//! The pipeline's metric inventory — every counter, gauge and histogram
//! the engine, detector, supervisor and streaming front end report
//! through, registered against one [`scd_obs::Registry`].
//!
//! Design contract (mirrored in DESIGN.md §Observability):
//!
//! * **Aggregation point.** Shard workers never touch shared metrics on
//!   the per-record path. Each worker accumulates a private
//!   `ShardStats` (plain integers + a [`scd_obs::LocalHistogram`]) and
//!   ships it with its interval sketch; the engine folds all of them into
//!   the shared atomics at the existing COMBINE barrier — one merge per
//!   shard per interval, on the thread already waiting there.
//! * **Zero steady-state allocation.** Recording is atomic adds into
//!   fixed-size structures; `ShardStats` is a flat value type recycled
//!   with `mem::take`. The turnover bench asserts the instrumented fused
//!   path still performs zero allocations per interval.
//! * **Invisible to detection.** Telemetry reads timings and counts; it
//!   never touches a sketch, an RNG, or a sort — `IntervalReport`s are
//!   bit-identical with metrics on or off (`tests/telemetry.rs`).

use scd_obs::{Counter, Gauge, Histogram, LocalHistogram, Registry};
use std::sync::Arc;

/// Metrics of the sharded ingest engine: per-stage interval timings,
/// queue depth, buffer-recycling effectiveness, archive footprint.
#[derive(Debug)]
pub struct EngineMetrics {
    /// Intervals closed by the engine.
    pub intervals_total: Arc<Counter>,
    /// Records pushed into the ingest half (counted on the pushing
    /// thread).
    pub records_total: Arc<Counter>,
    /// Updates the shard tables folded (from merged `ShardStats`): one per
    /// record past the combiner's exactness gate, one per evicted partial
    /// sum before it.
    pub updates_folded_total: Arc<Counter>,
    /// Batches folded by shard workers.
    pub batches_total: Arc<Counter>,
    /// Per-batch sketch fold time on the shard workers (ns).
    pub ingest_batch_ns: Arc<Histogram>,
    /// Interval-close barrier: flushing every shard and collecting the
    /// per-shard sketches (ns).
    pub barrier_ns: Arc<Histogram>,
    /// COMBINE of the per-shard sketches in shard order (ns).
    pub combine_ns: Arc<Histogram>,
    /// Shard merges that walked only the lines the interval wrote instead
    /// of sweeping the whole table (every table sparse).
    pub sparse_merges_total: Arc<Counter>,
    /// Detector turnover — forecast, fused error/F2 sweep, key scan (ns).
    pub detect_ns: Arc<Histogram>,
    /// Archive push + compaction (ns); empty when no archive runs.
    pub archive_ns: Arc<Histogram>,
    /// Deepest per-shard ingest queue observed at the interval close.
    pub queue_depth: Arc<Gauge>,
    /// Batch buffers reused from the recycle channel.
    pub recycle_hits_total: Arc<Counter>,
    /// Batch buffers freshly allocated (start-up, or recycle pool empty).
    pub recycle_misses_total: Arc<Counter>,
    /// Epochs resident in the archive.
    pub archive_sketches: Arc<Gauge>,
    /// Approximate archive memory footprint in bytes.
    pub archive_bytes: Arc<Gauge>,
    /// Buddy merges the archive has performed since birth.
    pub archive_merges: Arc<Gauge>,
}

/// Metrics of the change detector proper.
#[derive(Debug)]
pub struct DetectorMetrics {
    /// Warmed-up intervals scanned (warm-up intervals do not count).
    pub intervals_total: Arc<Counter>,
    /// Keys scored against the error sketch.
    pub keys_scanned_total: Arc<Counter>,
    /// Alarms raised.
    pub alarms_total: Arc<Counter>,
    /// Scanned keys whose estimated error was non-finite (excluded from
    /// alarm eligibility — see `IntervalReport::non_finite_errors`).
    pub non_finite_errors_total: Arc<Counter>,
    /// `ESTIMATEF2(Se(t))` of the most recent interval.
    pub error_f2: Arc<Gauge>,
    /// Alarm threshold `TA` of the most recent interval.
    pub alarm_threshold: Arc<Gauge>,
}

/// Metrics of the sub-interval GLR sequential-detection layer
/// ([`crate::glr`]): provisional alarm lifecycle counts and the
/// detection-latency win measured in base slots.
#[derive(Debug)]
pub struct GlrMetrics {
    /// Provisional alarms raised by the sequential statistic.
    pub provisional_total: Arc<Counter>,
    /// Provisionals confirmed by the interval-close detector.
    pub confirmed_total: Arc<Counter>,
    /// Provisionals retracted (interval closed without a matching alarm).
    pub retracted_total: Arc<Counter>,
    /// Base slots between the provisional firing and its interval's
    /// closing slot — how far ahead of interval close the alarm landed.
    pub lead_slots: Arc<Histogram>,
}

/// Metrics of the supervisor and checkpoint machinery.
#[derive(Debug)]
pub struct SupervisorMetrics {
    /// Supervised detector threads started (fresh or resumed).
    pub started_total: Arc<Counter>,
    /// Panic-triggered restarts absorbed.
    pub restarts_total: Arc<Counter>,
    /// Total milliseconds slept in restart backoff.
    pub backoff_ms_total: Arc<Counter>,
    /// Checkpoints written successfully.
    pub checkpoints_total: Arc<Counter>,
    /// Degraded events (checkpoint unwritable/unusable).
    pub degraded_total: Arc<Counter>,
    /// Restart budgets exhausted (detector down for good).
    pub gave_up_total: Arc<Counter>,
}

/// Metrics of the streaming front end's overload accounting (PR-1's
/// per-report [`crate::detector::DropStats`], accumulated for the run).
#[derive(Debug)]
pub struct StreamMetrics {
    /// Records processed by the streaming detector loop.
    pub records_total: Arc<Counter>,
    /// Records discarded because the input queue was full (`DropNewest`).
    pub dropped_total: Arc<Counter>,
    /// Records admitted by the `Sample` policy (at weight `1/rate`).
    pub sampled_in_total: Arc<Counter>,
    /// Records shed by the `Sample` policy.
    pub shed_total: Arc<Counter>,
}

/// One handle wiring the whole pipeline to a [`Registry`] — pass it to
/// [`crate::engine::EngineConfig::with_metrics`] /
/// [`crate::streaming::StreamingConfig`] and render the registry once
/// per interval.
#[derive(Debug)]
pub struct PipelineMetrics {
    /// Sharded-engine stage metrics.
    pub engine: EngineMetrics,
    /// Detector metrics (shared with the detector via
    /// [`crate::detector::SketchChangeDetector::set_metrics`]).
    pub detector: Arc<DetectorMetrics>,
    /// Supervisor lifecycle metrics.
    pub supervisor: SupervisorMetrics,
    /// Streaming overload metrics.
    pub stream: StreamMetrics,
    /// Sequential GLR layer metrics.
    pub glr: GlrMetrics,
}

impl PipelineMetrics {
    /// Registers the full metric inventory against `registry` and returns
    /// the recording handle. Call once per pipeline; metric names are
    /// globally unique within a registry.
    pub fn register(registry: &Registry) -> Arc<Self> {
        let engine = EngineMetrics {
            intervals_total: registry
                .counter("scd_engine_intervals_total", "intervals closed by the engine"),
            records_total: registry
                .counter("scd_engine_records_total", "records pushed into the ingest half"),
            updates_folded_total: registry
                .counter("scd_engine_updates_folded_total", "updates folded into shard tables"),
            batches_total: registry
                .counter("scd_engine_batches_total", "batches folded by shard workers"),
            ingest_batch_ns: registry
                .histogram("scd_engine_ingest_batch_ns", "per-batch sketch fold time (ns)"),
            barrier_ns: registry
                .histogram("scd_engine_barrier_ns", "interval-close flush+collect barrier (ns)"),
            combine_ns: registry
                .histogram("scd_engine_combine_ns", "per-interval shard COMBINE (ns)"),
            sparse_merges_total: registry.counter(
                "scd_engine_sparse_merges_total",
                "shard merges that walked only the lines the interval wrote",
            ),
            detect_ns: registry
                .histogram("scd_engine_detect_ns", "per-interval detector turnover (ns)"),
            archive_ns: registry
                .histogram("scd_engine_archive_ns", "per-interval archive push (ns)"),
            queue_depth: registry
                .gauge("scd_engine_queue_depth", "deepest shard queue at interval close"),
            recycle_hits_total: registry
                .counter("scd_engine_recycle_hits_total", "batch buffers reused"),
            recycle_misses_total: registry
                .counter("scd_engine_recycle_misses_total", "batch buffers freshly allocated"),
            archive_sketches: registry
                .gauge("scd_archive_sketches", "epochs resident in the archive"),
            archive_bytes: registry
                .gauge("scd_archive_bytes", "approximate archive memory footprint"),
            archive_merges: registry
                .gauge("scd_archive_merges", "buddy merges performed by the archive"),
        };
        let detector = Arc::new(DetectorMetrics {
            intervals_total: registry
                .counter("scd_detector_intervals_total", "warmed-up intervals scanned"),
            keys_scanned_total: registry
                .counter("scd_detector_keys_scanned_total", "keys scored against error sketches"),
            alarms_total: registry.counter("scd_detector_alarms_total", "alarms raised"),
            non_finite_errors_total: registry.counter(
                "scd_detector_non_finite_errors_total",
                "scanned keys with non-finite estimated error",
            ),
            error_f2: registry
                .gauge("scd_detector_error_f2", "ESTIMATEF2 of the latest error sketch"),
            alarm_threshold: registry
                .gauge("scd_detector_alarm_threshold", "latest alarm threshold TA"),
        });
        let supervisor = SupervisorMetrics {
            started_total: registry
                .counter("scd_supervisor_started_total", "supervised detector starts"),
            restarts_total: registry
                .counter("scd_supervisor_restarts_total", "panic-triggered restarts"),
            backoff_ms_total: registry
                .counter("scd_supervisor_backoff_ms_total", "milliseconds slept in backoff"),
            checkpoints_total: registry
                .counter("scd_supervisor_checkpoints_total", "checkpoints written"),
            degraded_total: registry
                .counter("scd_supervisor_degraded_total", "degraded lifecycle events"),
            gave_up_total: registry
                .counter("scd_supervisor_gave_up_total", "restart budgets exhausted"),
        };
        let stream = StreamMetrics {
            records_total: registry
                .counter("scd_stream_records_total", "records processed by the streaming loop"),
            dropped_total: registry
                .counter("scd_stream_dropped_total", "records dropped on a full queue"),
            sampled_in_total: registry
                .counter("scd_stream_sampled_in_total", "records admitted by the Sample policy"),
            shed_total: registry
                .counter("scd_stream_shed_total", "records shed by the Sample policy"),
        };
        let glr = GlrMetrics {
            provisional_total: registry
                .counter("scd_glr_provisional_total", "GLR provisional alarms raised"),
            confirmed_total: registry
                .counter("scd_glr_confirmed_total", "GLR provisionals confirmed at interval close"),
            retracted_total: registry
                .counter("scd_glr_retracted_total", "GLR provisionals retracted at interval close"),
            lead_slots: registry.histogram(
                "scd_glr_lead_slots",
                "base slots between a provisional alarm and its interval close",
            ),
        };
        Arc::new(PipelineMetrics { engine, detector, supervisor, stream, glr })
    }

    /// Folds one interval's [`crate::detector::DropStats`] into the
    /// streaming overload counters.
    pub fn record_drops(&self, drops: &crate::detector::DropStats) {
        self.stream.dropped_total.add(drops.dropped);
        self.stream.sampled_in_total.add(drops.sampled_in);
        self.stream.shed_total.add(drops.shed);
    }
}

/// A shard's private per-interval statistics: accumulated with plain
/// (non-atomic) arithmetic on the thread that folds the shard — its
/// worker, or the pushing thread of a one-shard half — and folded into
/// the shared [`EngineMetrics`] at the COMBINE barrier. `Default` + `mem::take` keeps the worker's copy
/// alive across intervals with no allocation (the histogram is a fixed
/// inline array).
#[derive(Debug, Clone, Default)]
pub(crate) struct ShardStats {
    /// Batches folded this interval.
    pub(crate) batches: u64,
    /// Updates folded this interval.
    pub(crate) updates: u64,
    /// Per-batch fold latency.
    pub(crate) fold_ns: LocalHistogram,
}

impl ShardStats {
    /// Folds this shard's interval into the shared engine metrics.
    pub(crate) fn merge_into(&self, engine: &EngineMetrics) {
        engine.batches_total.add(self.batches);
        engine.updates_folded_total.add(self.updates);
        engine.ingest_batch_ns.merge_local(&self.fold_ns);
    }
}
