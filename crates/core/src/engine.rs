//! Sharded parallel ingest: N worker threads, one merged sketch, exactly
//! the single-threaded answer.
//!
//! The paper's sketch module is embarrassingly parallel *because the
//! sketch is linear* (§3.1): partition the interval's update stream by
//! key across `N` workers, let each fold its share into a private k-ary
//! sketch over the shared hash family, and COMBINE the per-shard
//! sketches with coefficient 1 at the interval boundary. Per-cell,
//! COMBINE is a sum, and sums don't care how the stream was partitioned
//! — the merged sketch equals the one a single thread would have built.
//! With integer update values (packet and byte counts) every cell is an
//! exact integer sum below 2⁵³, so the equality is **bit for bit**, and
//! the detector's reports — estimates, `ESTIMATEF2`, alarms — are
//! *identical* to the single-threaded pipeline's, not merely close.
//! `tests/engine.rs` asserts exactly that, strategy by strategy.
//!
//! Design notes:
//!
//! * Workers are long-lived `std::thread`s fed update batches over the
//!   bounded channels of [`crate::channel`] — one queue per shard, so a
//!   slow shard back-pressures only its own feeder, and batching keeps
//!   the channel's mutex off the per-update hot path. Workers fold each
//!   batch with `KarySketch::update_batch` (hash the block row-major,
//!   then scatter one `K`-sized row at a time) and return the spent
//!   `Vec` on a recycle channel, so steady-state ingest allocates
//!   nothing per batch.
//! * Keys are partitioned by the SplitMix64 finalizer
//!   ([`scd_hash::mix64`]) — not `key % N`, which stripes sequential IP
//!   keys — followed by Lemire multiply-shift range reduction
//!   ([`scd_hash::range_reduce`]): no division anywhere on the per-update
//!   path. `scd_traffic::shard::shard_of_key` mirrors this exact mix so
//!   externally pre-partitioned traces land as the engine would route
//!   them.
//! * The main thread keeps the key log for error reconstruction; workers
//!   only ever see `(key, value)` pairs, so the merge point is the
//!   *only* synchronization per interval. The log's shape is gated by
//!   the key strategy: `TwoPass` keeps the §3.3 arrival-order replay
//!   list, while `Sampled`/`NextInterval` — whose detection pass dedups
//!   before querying — keep only first-seen-order *distinct* keys
//!   (bounded by the key population, not the record count, and
//!   bit-identical because deduplication is idempotent).
//! * When an [`ArchiveConfig`] is supplied, every interval's forecast
//!   error sketch `Se(t)` — handed back by
//!   [`SketchChangeDetector::process_observed_archiving`] — is pushed
//!   into a [`SketchArchive`] keyed by detector interval, with the
//!   report's top error keys as the epoch's directory entries. Warm-up
//!   intervals (no error sketch yet) are back-filled with zero sketches
//!   so archive interval indices always equal detector intervals.

use crate::channel::{bounded, Receiver, Sender};
use crate::detector::{
    DetectorConfig, DetectorSnapshot, IntervalReport, KeyStrategy, SketchChangeDetector,
};
use crate::glr::{
    GlrConfig, GlrDetector, GlrEvent, GlrRestoreError, GlrSnapshot, ProvisionalAlarm,
};
use crate::telemetry::{PipelineMetrics, ShardStats};
use scd_archive::{ArchiveConfig, ArchiveError, SketchArchive};
use scd_hash::{mix64, range_reduce, MixBuildHasher};
use scd_obs::Stopwatch;
use scd_sketch::{BatchScratch, KarySketch};
use std::collections::HashSet;
use std::sync::Arc;
use std::thread::JoinHandle;

/// How many of a report's top error keys are offered to the archive's
/// per-epoch directory (the archive truncates further to its own
/// `keys_per_epoch`).
const NOTABLE_KEYS_OFFERED: usize = 256;

/// The notable-key directory entries the engine offers an archive for one
/// interval: the report's top error keys (already sorted by the detector),
/// truncated to the engine-internal offer cap (256), with errors folded to
/// magnitude.
/// Exposed so out-of-engine archive replicas (e.g. a serving plane fed by
/// an [`IntervalObserver`]) file exactly the entries the engine would.
pub fn notable_keys(report: &IntervalReport) -> Vec<(u64, f64)> {
    report.errors.iter().take(NOTABLE_KEYS_OFFERED).map(|&(key, err)| (key, err.abs())).collect()
}

/// Observer of interval boundaries on a [`ShardedEngine`].
///
/// Called synchronously on the thread that ran detection — the caller's
/// thread in sequential mode, the detect thread in pipeline mode — once
/// per closed interval, *after* the detector produced the report and
/// *before* the engine's own archive consumes the error sketch.
/// Implementations must therefore be cheap-or-offloaded: a slow observer
/// stalls the turnover (in pipeline mode, the whole detect stage).
///
/// `error` is the interval's forecast-error sketch `Se(t)` labeled with
/// the detector interval `t` it covers; `None` while the model is warming
/// up (no error sketch exists yet). Observing never mutates detection:
/// reports are bit-identical with an observer attached or not.
pub trait IntervalObserver: Send + Sync + std::fmt::Debug {
    /// One interval closed with `report`; `error` is `(t, Se(t))` when an
    /// error sketch exists for a (possibly lagged) interval `t`.
    fn interval_closed(&self, report: &IntervalReport, error: Option<(usize, &KarySketch)>);

    /// Blocks until every interval handed to
    /// [`interval_closed`](Self::interval_closed) so far is fully
    /// reflected in the observer's published state. The default is a
    /// no-op — right for observers that do all their work inside the
    /// hook. Observers that offload (e.g. a serving plane's background
    /// snapshot rebuild) override it; [`ShardedEngine::drain`] calls it
    /// after the last in-flight interval so callers that drain see a
    /// view as fresh as the reports they received.
    fn flush(&self) {}
}

/// Configuration for a [`ShardedEngine`].
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker thread count `N ≥ 1`. `1` degenerates to the
    /// single-threaded pipeline plus one handoff (the bench baseline).
    pub shards: usize,
    /// Updates per batch message. Larger batches amortize channel
    /// locking; smaller ones bound worker lag at interval boundaries.
    pub batch: usize,
    /// Per-shard queue capacity in batches. A full queue back-pressures
    /// [`ShardedEngine::push`] (blocking send), never drops.
    pub queue_capacity: usize,
    /// The detection pipeline the merged sketches feed.
    pub detector: DetectorConfig,
    /// When set, archive every interval's error sketch for historical
    /// change queries.
    pub archive: Option<ArchiveConfig>,
    /// When true, detection runs on a dedicated thread so shard workers
    /// ingest interval `t + 1` while forecast/threshold/key-scoring runs
    /// for interval `t`. Reports are bit-identical to the sequential
    /// engine's; [`ShardedEngine::end_interval_overlapped`] delivers them
    /// with a one-interval lag.
    pub pipeline: bool,
    /// When set, the engine records per-stage timings, queue depths and
    /// throughput counters into these metrics (and hands the detector its
    /// share). Telemetry never changes a report: ingestion and detection
    /// are bit-identical with metrics on or off.
    pub metrics: Option<Arc<PipelineMetrics>>,
    /// When set, the observer is invoked at every interval close with the
    /// report and the interval's error sketch — the hook a serving plane
    /// uses to publish read-optimized snapshots. Observing never changes
    /// a report.
    pub observer: Option<Arc<dyn IntervalObserver>>,
    /// When set, a [`GlrDetector`] rides the ingest path: every pushed
    /// update also feeds the sequential statistic, and
    /// [`ShardedEngine::end_glr_slot`] closes base slots mid-interval.
    /// Provisional alarms surface through
    /// [`ShardedEngine::take_glr_events`] only — `IntervalReport`s are
    /// bit-identical with this layer on or off.
    pub glr: Option<GlrConfig>,
}

impl EngineConfig {
    /// A config with the default batching parameters (512-update
    /// batches, 8 batches in flight per shard), no archive, and
    /// sequential (non-pipelined) detection.
    pub fn new(detector: DetectorConfig, shards: usize) -> Self {
        EngineConfig {
            shards,
            batch: 512,
            queue_capacity: 8,
            detector,
            archive: None,
            pipeline: false,
            metrics: None,
            observer: None,
            glr: None,
        }
    }

    /// Enables the multi-resolution error-sketch archive.
    pub fn with_archive(mut self, archive: ArchiveConfig) -> Self {
        self.archive = Some(archive);
        self
    }

    /// Runs detection on a dedicated thread, overlapped with ingest.
    pub fn with_pipeline(mut self) -> Self {
        self.pipeline = true;
        self
    }

    /// Enables pipeline telemetry.
    pub fn with_metrics(mut self, metrics: Arc<PipelineMetrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Attaches an interval observer (e.g. a serving plane's snapshot
    /// publisher).
    pub fn with_observer(mut self, observer: Arc<dyn IntervalObserver>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Enables the sub-interval GLR sequential-detection layer.
    pub fn with_glr(mut self, glr: GlrConfig) -> Self {
        self.glr = Some(glr);
        self
    }
}

/// Errors from the sharded engine.
#[derive(Debug)]
pub enum EngineError {
    /// A structurally invalid [`EngineConfig`].
    BadConfig(String),
    /// A worker thread died (panicked) — its queue is disconnected. The
    /// engine cannot guarantee the interval's sketch is complete.
    WorkerLost {
        /// Index of the dead shard.
        shard: usize,
    },
    /// The pipelined detect thread died (panicked); in-flight intervals
    /// and their reports are lost.
    DetectorLost,
    /// The archive rejected a push or was misconfigured.
    Archive(ArchiveError),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::BadConfig(why) => write!(f, "invalid engine config: {why}"),
            EngineError::WorkerLost { shard } => write!(f, "shard {shard} worker died"),
            EngineError::DetectorLost => write!(f, "pipelined detect thread died"),
            EngineError::Archive(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<ArchiveError> for EngineError {
    fn from(e: ArchiveError) -> Self {
        EngineError::Archive(e)
    }
}

enum WorkerMsg {
    Batch(Vec<(u64, f64)>),
    /// Interval boundary: ship the accumulated sketch and start fresh.
    Flush,
}

struct Worker {
    /// `Option` so `Drop` can hang up (dropping the sender ends the
    /// worker's receive loop) before joining.
    tx: Option<Sender<WorkerMsg>>,
    results: Receiver<KarySketch>,
    /// Per-interval shard statistics, shipped just before the sketch
    /// (present only when telemetry is enabled).
    stats: Option<Receiver<ShardStats>>,
    thread: Option<JoinHandle<()>>,
}

/// Mixes the key so that structured key spaces (sequential IPs, aligned
/// prefixes) still spread evenly across shards, then range-reduces with
/// Lemire's multiply-shift — the `%` it replaces was the only integer
/// division on the per-update path. Any deterministic partition is
/// *correct* (linearity); balance is purely a throughput concern.
/// `scd_traffic::shard::shard_of_key` must stay in lockstep with this.
#[inline]
fn shard_of(key: u64, shards: usize) -> usize {
    range_reduce(mix64(key), shards)
}

/// Key log for the detection pass, gated by [`KeyStrategy`].
///
/// `TwoPass` replays the interval's key stream as it arrived (§3.3), so
/// it needs the full arrival-order list. `Sampled` and `NextInterval`
/// dedup before querying — their reports are a pure function of the
/// *distinct keys in first-seen order* — so logging anything more is
/// wasted memory and a wasted end-of-interval take: a repeated key costs
/// one hash-set probe instead of growing the log.
enum KeyLog {
    /// Arrival-order replay list (grows with the record count).
    Full(Vec<u64>),
    /// First-seen-order distinct keys (grows with the key population).
    Distinct { seen: HashSet<u64, MixBuildHasher>, order: Vec<u64> },
}

impl KeyLog {
    fn for_strategy(strategy: &KeyStrategy) -> KeyLog {
        match strategy {
            KeyStrategy::TwoPass => KeyLog::Full(Vec::new()),
            KeyStrategy::Sampled { .. } | KeyStrategy::NextInterval => {
                KeyLog::Distinct { seen: HashSet::with_hasher(MixBuildHasher), order: Vec::new() }
            }
        }
    }

    #[inline]
    fn record(&mut self, key: u64) {
        match self {
            KeyLog::Full(log) => log.push(key),
            KeyLog::Distinct { seen, order } => {
                if seen.insert(key) {
                    order.push(key);
                }
            }
        }
    }

    /// Takes the interval's key list and resets the log.
    fn take(&mut self) -> Vec<u64> {
        match self {
            KeyLog::Full(log) => std::mem::take(log),
            KeyLog::Distinct { seen, order } => {
                seen.clear();
                std::mem::take(order)
            }
        }
    }

    /// An empty log of the same variant — what a parallel producer builds
    /// for its chunk before the engine absorbs it.
    fn fresh_like(&self) -> KeyLog {
        match self {
            KeyLog::Full(_) => KeyLog::Full(Vec::new()),
            KeyLog::Distinct { .. } => {
                KeyLog::Distinct { seen: HashSet::with_hasher(MixBuildHasher), order: Vec::new() }
            }
        }
    }

    /// Merges a producer-chunk log into this one. Chunks are contiguous
    /// stream ranges absorbed in stream order, so `Full` concatenation
    /// reproduces arrival order exactly, and replaying each chunk's
    /// first-seen list through the global set reproduces global first-seen
    /// order exactly (a key's first global occurrence lies in the earliest
    /// chunk that contains it).
    fn absorb(&mut self, other: KeyLog) {
        match other {
            KeyLog::Full(mut chunk) => match self {
                KeyLog::Full(log) => log.append(&mut chunk),
                KeyLog::Distinct { .. } => unreachable!("mixed key log variants"),
            },
            KeyLog::Distinct { order, .. } => {
                assert!(matches!(self, KeyLog::Distinct { .. }), "mixed key log variants");
                for key in order {
                    self.record(key);
                }
            }
        }
    }
}

/// One producer's output for [`ShardedEngine::push_slice_parallel`]:
/// per-shard update buffers plus the chunk's key log.
type RoutedChunk = (Vec<Vec<(u64, f64)>>, KeyLog);

/// Producer-side routing for [`ShardedEngine::push_slice_parallel`]: walks
/// one contiguous chunk of the update stream, logging keys and
/// partitioning updates into per-shard buffers. Pure function of the
/// chunk — safe to run on any thread.
fn route_chunk(chunk: &[(u64, f64)], shards: usize, mut log: KeyLog) -> RoutedChunk {
    let mut bufs: Vec<Vec<(u64, f64)>> =
        (0..shards).map(|_| Vec::with_capacity(chunk.len() / shards + 1)).collect();
    for &(key, value) in chunk {
        log.record(key);
        bufs[shard_of(key, shards)].push((key, value));
    }
    (bufs, log)
}

/// Messages for the pipelined detect thread. Processed strictly in send
/// order, which is what makes mid-pipeline snapshots well-defined: a
/// `Snapshot` request reflects every interval handed off before it, even
/// ones still being processed when the request was sent.
enum DetectMsg {
    /// A closed interval: the per-shard sketches (in shard order) and the
    /// interval's key log.
    Interval { sketches: Vec<KarySketch>, keys: Vec<u64> },
    /// Checkpoint request: reply with the detector's snapshot.
    Snapshot(Sender<DetectorSnapshot>),
    /// Hand the archive back (end of run). Subsequent intervals are no
    /// longer archived.
    TakeArchive(Sender<Option<SketchArchive<KarySketch>>>),
}

/// Where detection runs: inline on the caller's thread (sequential, the
/// default) or on a dedicated thread overlapped with ingest.
enum DetectBackend {
    Inline {
        /// Boxed: the detector carries its recycled forecast/error/scratch
        /// workspaces inline, dwarfing the `Pipelined` variant otherwise.
        detector: Box<SketchChangeDetector>,
        archive: Option<SketchArchive<KarySketch>>,
        /// Recycled merge destination — the "observed" sketch. `None`
        /// only before the first interval.
        merged: Option<KarySketch>,
        /// Reused container for the per-interval shard sketches.
        shard_bufs: Vec<KarySketch>,
        /// Return paths handing cleared shard sketches back to workers.
        spare_txs: Vec<Sender<KarySketch>>,
    },
    Pipelined {
        /// `Option` so `Drop` can hang up before joining.
        detect_tx: Option<Sender<DetectMsg>>,
        report_rx: Receiver<Result<IntervalReport, EngineError>>,
        /// Emptied shard-sketch containers coming back for reuse.
        vec_return: Receiver<Vec<KarySketch>>,
        /// Intervals handed off whose reports have not been received.
        in_flight: usize,
        thread: Option<JoinHandle<()>>,
    },
}

/// Merges per-shard sketches in fixed shard order and leaves them zeroed
/// for their workers' next interval — one sweep ([`KarySketch::merge_draining`]:
/// each shard tile is cleared while the merge still has it in cache).
/// f64 addition is not associative in general, so a deterministic order
/// keeps reruns (and the sequential-vs-pipelined comparison) reproducible
/// — both backends call this exact routine, which is what makes their
/// reports bit-identical.
fn merge_shards(merged: &mut KarySketch, shard_sketches: &mut [KarySketch]) {
    merged
        .merge_draining(shard_sketches)
        .expect("an engine has at least one shard, all over one hash family by construction");
}

/// Hands each spent (already zeroed, see [`merge_shards`]) shard sketch
/// back to its worker's spare queue (dropped, not blocked on, if the queue
/// is full).
fn recycle_shards(shard_sketches: &mut Vec<KarySketch>, spare_txs: &[Sender<KarySketch>]) {
    for (shard, sketch) in shard_sketches.drain(..).enumerate() {
        let _ = spare_txs[shard].try_send(sketch);
    }
}

/// Pushes an interval's error sketch into the archive, back-filling
/// warm-up (and NextInterval-lag) gaps with zero sketches so archive
/// intervals track detector intervals.
fn archive_error(
    archive: &mut SketchArchive<KarySketch>,
    report: &IntervalReport,
    archived: Option<(usize, KarySketch)>,
) -> Result<(), ArchiveError> {
    if let Some((t, error)) = archived {
        while archive.next_interval() < t as u64 {
            archive.push(error.zero_like(), &[])?;
        }
        archive.push(error, &notable_keys(report))?;
    }
    Ok(())
}

/// Runs detection for one merged interval, archiving the error sketch
/// when an archive is configured. Shared by both backends. The detect
/// and archive stages get separate timings; archive footprint gauges
/// refresh after every push.
fn detect_interval(
    detector: &mut SketchChangeDetector,
    mut archive: Option<&mut SketchArchive<KarySketch>>,
    observer: Option<&dyn IntervalObserver>,
    observed: &KarySketch,
    keys: Vec<u64>,
    metrics: Option<&PipelineMetrics>,
) -> Result<IntervalReport, EngineError> {
    if let Some(m) = metrics {
        m.engine.intervals_total.inc();
    }
    if archive.is_some() || observer.is_some() {
        // The error sketch is wanted — by the archive, the observer, or
        // both. Both entry points run the same turnover, so the report is
        // bit-identical to the plain path's.
        // An archive at its budget retires one table per push (compaction
        // merges two epochs into one): that table is the detector's next
        // error buffer, so this path allocates no table per interval.
        if let Some(retired) = archive.as_deref_mut().and_then(SketchArchive::take_retired) {
            detector.recycle_error_buffer(retired);
        }
        let sw = Stopwatch::start();
        let (report, archived) = detector.process_observed_archiving(observed, keys);
        if let Some(m) = metrics {
            m.engine.detect_ns.record(sw.elapsed_ns());
        }
        // Observer first: it borrows the error sketch the archive is about
        // to consume.
        if let Some(observer) = observer {
            observer.interval_closed(&report, archived.as_ref().map(|&(t, ref e)| (t, e)));
        }
        if let Some(archive) = archive {
            let sw = Stopwatch::start();
            archive_error(archive, &report, archived)?;
            if let Some(m) = metrics {
                m.engine.archive_ns.record(sw.elapsed_ns());
                m.engine.archive_sketches.set(archive.sketch_count() as f64);
                m.engine.archive_bytes.set(archive.memory_bytes() as f64);
                m.engine.archive_merges.set(archive.merges_total() as f64);
            }
        } else if let Some((_, error)) = archived {
            // Only the observer wanted it, and it has looked.
            detector.recycle_error_buffer(error);
        }
        Ok(report)
    } else {
        // No archive, no observer: the recycling (non-archiving) turnover
        // path.
        let sw = Stopwatch::start();
        let report = detector.process_observed(observed, keys);
        if let Some(m) = metrics {
            m.engine.detect_ns.record(sw.elapsed_ns());
        }
        Ok(report)
    }
}

/// Everything the pipelined detect thread owns: the detector plus its
/// optional attachments (archive, observer, telemetry).
struct DetectSide {
    detector: SketchChangeDetector,
    archive: Option<SketchArchive<KarySketch>>,
    observer: Option<Arc<dyn IntervalObserver>>,
    metrics: Option<Arc<PipelineMetrics>>,
}

/// The pipelined detect thread: owns the detector (and archive), merges
/// shard sketches into a recycled buffer, runs the turnover, returns
/// cleared sketches to the workers, and ships one report per interval.
fn detect_loop(
    side: DetectSide,
    spare_txs: Vec<Sender<KarySketch>>,
    detect_rx: Receiver<DetectMsg>,
    report_tx: Sender<Result<IntervalReport, EngineError>>,
    vec_return: Sender<Vec<KarySketch>>,
) {
    let DetectSide { mut detector, mut archive, observer, metrics } = side;
    let mut merged = KarySketch::with_rows(Arc::clone(detector.rows()));
    while let Ok(msg) = detect_rx.recv() {
        match msg {
            DetectMsg::Interval { mut sketches, keys } => {
                let sw = Stopwatch::start();
                merge_shards(&mut merged, &mut sketches);
                if let Some(m) = &metrics {
                    m.engine.combine_ns.record(sw.elapsed_ns());
                }
                recycle_shards(&mut sketches, &spare_txs);
                let _ = vec_return.try_send(sketches);
                let result = detect_interval(
                    &mut detector,
                    archive.as_mut(),
                    observer.as_deref(),
                    &merged,
                    keys,
                    metrics.as_deref(),
                );
                if report_tx.send(result).is_err() {
                    break; // engine gone
                }
            }
            DetectMsg::Snapshot(reply) => {
                let _ = reply.send(detector.snapshot());
            }
            DetectMsg::TakeArchive(reply) => {
                let _ = reply.send(archive.take());
            }
        }
    }
}

/// Serializable state of the engine's GLR runtime: the sequential
/// detector plus the engine-side confirm/retract bookkeeping (pending
/// provisionals, interval-close slot markers, the ingest-interval
/// counter). Undrained [`GlrEvent`]s are *not* part of the snapshot —
/// drain them before checkpointing; a restored engine re-emits nothing.
#[derive(Debug, Clone)]
pub struct GlrEngineSnapshot {
    /// The sequential detector's complete state (mid-slot included).
    pub detector: GlrSnapshot,
    /// Provisionals awaiting their interval's report: `(interval, alarm)`.
    pub pending: Vec<(u64, ProvisionalAlarm)>,
    /// Slot counter at each recorded interval close: `(interval, slot)`.
    pub closes: Vec<(u64, u64)>,
    /// Ingest intervals closed so far.
    pub ingest_interval: u64,
}

/// The GLR layer riding the engine's ingest path: the sequential detector
/// plus confirm/retract bookkeeping against interval-close reports.
struct GlrRuntime {
    det: GlrDetector,
    /// Provisionals awaiting their interval's close-time report, oldest
    /// first, tagged with the ingest interval they fired in.
    pending: std::collections::VecDeque<(u64, ProvisionalAlarm)>,
    /// `(interval, slots_closed at its close)` markers, for lead-time
    /// accounting when a provisional is confirmed.
    closes: std::collections::VecDeque<(u64, u64)>,
    /// Event log drained by [`ShardedEngine::take_glr_events`].
    events: Vec<GlrEvent>,
    /// Ingest intervals closed so far — the tag for new provisionals.
    ingest_interval: u64,
}

/// The sharded parallel ingest engine: feed updates with
/// [`push`](Self::push), close each interval with
/// [`end_interval`](Self::end_interval) (or, in pipeline mode,
/// [`end_interval_overlapped`](Self::end_interval_overlapped) +
/// [`drain`](Self::drain)), read reports identical to the
/// single-threaded detector's.
pub struct ShardedEngine {
    shards: usize,
    batch: usize,
    detect: DetectBackend,
    workers: Vec<Worker>,
    /// Per-shard batch under construction.
    pending: Vec<Vec<(u64, f64)>>,
    /// Spent batch `Vec`s coming back from workers for reuse.
    recycle: Receiver<Vec<(u64, f64)>>,
    /// Key log for error reconstruction, shaped by the key strategy.
    keys: KeyLog,
    records_total: u64,
    /// Telemetry sink; `None` keeps every metric branch off the hot path.
    metrics: Option<Arc<PipelineMetrics>>,
    /// Interval-close observer, invoked on the detecting thread. Held
    /// here for the inline backend; the pipelined backend's copy lives on
    /// the detect thread.
    observer: Option<Arc<dyn IntervalObserver>>,
    /// Sub-interval GLR sequential detection, fed on the ingest thread.
    glr: Option<GlrRuntime>,
}

impl std::fmt::Debug for ShardedEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut d = f.debug_struct("ShardedEngine");
        d.field("shards", &self.shards).field("records_total", &self.records_total);
        match &self.detect {
            DetectBackend::Inline { detector, .. } => {
                d.field("intervals_processed", &detector.intervals_processed());
            }
            DetectBackend::Pipelined { in_flight, .. } => {
                d.field("pipeline", &true).field("in_flight", in_flight);
            }
        }
        d.finish()
    }
}

impl ShardedEngine {
    /// Spawns the worker pool. Workers live for the engine's lifetime —
    /// interval boundaries reuse them; nothing is spawned per interval.
    ///
    /// # Errors
    /// [`EngineError::BadConfig`] for zero shards/batch/queue, or an
    /// archive config that cannot sustain compaction.
    pub fn new(config: EngineConfig) -> Result<Self, EngineError> {
        if config.shards == 0 {
            return Err(EngineError::BadConfig("shards must be at least 1".into()));
        }
        if config.batch == 0 || config.queue_capacity == 0 {
            return Err(EngineError::BadConfig("batch and queue_capacity must be positive".into()));
        }
        let archive = match &config.archive {
            Some(cfg) => Some(SketchArchive::new(*cfg)?),
            None => None,
        };
        let mut detector = SketchChangeDetector::new(config.detector.clone());
        if let Some(m) = &config.metrics {
            detector.set_metrics(Arc::clone(&m.detector));
        }
        // Recycle pool: big enough to hold every batch that can be in
        // flight at once (per shard: the queue plus the one the worker is
        // folding), so a worker's `try_send` only ever drops a Vec in
        // degenerate races, never in steady state.
        let (recycle_tx, recycle_rx) =
            bounded::<Vec<(u64, f64)>>(config.shards * (config.queue_capacity + 1));
        let mut workers = Vec::with_capacity(config.shards);
        let mut spare_txs = Vec::with_capacity(config.shards);
        for shard in 0..config.shards {
            let (tx, rx) = bounded::<WorkerMsg>(config.queue_capacity);
            let (result_tx, result_rx) = bounded::<KarySketch>(1);
            // Cleared sketches coming back from the merge point; capacity
            // 2 covers the double buffer (one accumulating, one in the
            // detect path).
            let (spare_tx, spare_rx) = bounded::<KarySketch>(2);
            spare_txs.push(spare_tx);
            // Shard statistics ride a side channel, shipped just before
            // the sketch: the engine's blocking sketch recv at the barrier
            // therefore guarantees the stats message is already queued.
            // Capacity 2 covers the flush in progress plus the next one.
            let (stats_tx, stats_rx) = match &config.metrics {
                Some(_) => {
                    let (tx, rx) = bounded::<ShardStats>(2);
                    (Some(tx), Some(rx))
                }
                None => (None, None),
            };
            let rows = Arc::clone(detector.rows());
            let recycle = recycle_tx.clone();
            let thread = std::thread::Builder::new()
                .name(format!("scd-shard-{shard}"))
                .spawn(move || {
                    let mut sketch = KarySketch::with_rows(rows);
                    let mut scratch = BatchScratch::new();
                    // Private accumulator: no atomics, no sharing until
                    // the interval flush.
                    let mut stats = stats_tx.as_ref().map(|_| ShardStats::default());
                    loop {
                        match rx.recv() {
                            Ok(WorkerMsg::Batch(mut batch)) => {
                                match stats.as_mut() {
                                    Some(st) => {
                                        let sw = Stopwatch::start();
                                        sketch.update_batch(&batch, &mut scratch);
                                        st.fold_ns.record(sw.elapsed_ns());
                                        st.batches += 1;
                                        st.records += batch.len() as u64;
                                    }
                                    None => sketch.update_batch(&batch, &mut scratch),
                                }
                                batch.clear();
                                // Pool full (or engine gone): drop the Vec.
                                let _ = recycle.try_send(batch);
                            }
                            Ok(WorkerMsg::Flush) => {
                                if let (Some(st), Some(tx)) = (stats.as_mut(), stats_tx.as_ref()) {
                                    // Dropped (never blocked on) only if
                                    // the engine stopped consuming.
                                    let _ = tx.try_send(std::mem::take(st));
                                }
                                // Start the next interval on a recycled
                                // (already cleared) sketch when one has
                                // come back from the merge point.
                                let fresh = match spare_rx.try_recv() {
                                    Some(spare) => spare,
                                    None => sketch.zero_like(),
                                };
                                let full = std::mem::replace(&mut sketch, fresh);
                                if result_tx.send(full).is_err() {
                                    break;
                                }
                            }
                            // Engine hung up: drain complete, exit.
                            Err(_) => break,
                        }
                    }
                })
                .expect("spawn shard worker");
            workers.push(Worker {
                tx: Some(tx),
                results: result_rx,
                stats: stats_rx,
                thread: Some(thread),
            });
        }
        // The engine holds only the Receiver; worker clones keep the pool
        // alive, and it drains with them on shutdown.
        drop(recycle_tx);
        let keys = KeyLog::for_strategy(&config.detector.key_strategy);
        let detect = if config.pipeline {
            // Depth-1 interval queue: ingest can run at most one interval
            // ahead of detection (the double buffer), and a full queue
            // back-pressures the handoff instead of growing memory.
            let (detect_tx, detect_rx) = bounded::<DetectMsg>(1);
            // Reports outstanding never exceed intervals in flight
            // (queue + processing + handoff), so the detect thread never
            // blocks here during shutdown.
            let (report_tx, report_rx) = bounded::<Result<IntervalReport, EngineError>>(4);
            let (vec_tx, vec_rx) = bounded::<Vec<KarySketch>>(2);
            let metrics = config.metrics.clone();
            let observer = config.observer.clone();
            let thread = std::thread::Builder::new()
                .name("scd-detect".into())
                .spawn(move || {
                    detect_loop(
                        DetectSide { detector, archive, observer, metrics },
                        spare_txs,
                        detect_rx,
                        report_tx,
                        vec_tx,
                    );
                })
                .expect("spawn detect thread");
            DetectBackend::Pipelined {
                detect_tx: Some(detect_tx),
                report_rx,
                vec_return: vec_rx,
                in_flight: 0,
                thread: Some(thread),
            }
        } else {
            DetectBackend::Inline {
                detector: Box::new(detector),
                archive,
                merged: None,
                shard_bufs: Vec::with_capacity(config.shards),
                spare_txs,
            }
        };
        let glr = config.glr.map(|cfg| GlrRuntime {
            det: GlrDetector::new(cfg),
            pending: std::collections::VecDeque::new(),
            closes: std::collections::VecDeque::new(),
            events: Vec::new(),
            ingest_interval: 0,
        });
        Ok(ShardedEngine {
            shards: config.shards,
            batch: config.batch,
            detect,
            workers,
            pending: (0..config.shards).map(|_| Vec::new()).collect(),
            recycle: recycle_rx,
            keys,
            records_total: 0,
            metrics: config.metrics,
            observer: config.observer,
            glr,
        })
    }

    /// Worker count.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Whether detection runs on its own thread, overlapped with ingest.
    pub fn is_pipelined(&self) -> bool {
        matches!(self.detect, DetectBackend::Pipelined { .. })
    }

    /// The detection pipeline fed by the merged sketches. `None` in
    /// pipeline mode, where the detector lives on the detect thread —
    /// use [`detector_snapshot`](Self::detector_snapshot) there.
    pub fn detector(&self) -> Option<&SketchChangeDetector> {
        match &self.detect {
            DetectBackend::Inline { detector, .. } => Some(detector),
            DetectBackend::Pipelined { .. } => None,
        }
    }

    /// A checkpointable snapshot of the detector, in either mode. In
    /// pipeline mode this round-trips through the detect thread's
    /// message queue, so it reflects every interval handed off so far —
    /// including one still in flight — making mid-pipeline checkpoints
    /// well-defined.
    ///
    /// # Errors
    /// [`EngineError::DetectorLost`] if the detect thread has died.
    pub fn detector_snapshot(&mut self) -> Result<DetectorSnapshot, EngineError> {
        match &mut self.detect {
            DetectBackend::Inline { detector, .. } => Ok(detector.snapshot()),
            DetectBackend::Pipelined { detect_tx, .. } => {
                let (reply_tx, reply_rx) = bounded(1);
                detect_tx
                    .as_ref()
                    .expect("sender live until drop")
                    .send(DetectMsg::Snapshot(reply_tx))
                    .map_err(|_| EngineError::DetectorLost)?;
                reply_rx.recv().map_err(|_| EngineError::DetectorLost)
            }
        }
    }

    /// The error-sketch archive, if configured. `None` in pipeline mode
    /// (the archive lives on the detect thread — use
    /// [`take_archive`](Self::take_archive) after draining).
    pub fn archive(&self) -> Option<&SketchArchive<KarySketch>> {
        match &self.detect {
            DetectBackend::Inline { archive, .. } => archive.as_ref(),
            DetectBackend::Pipelined { .. } => None,
        }
    }

    /// Takes ownership of the archive (e.g. to persist it via
    /// `scd_archive::wire::write_atomic` after a run). Subsequent
    /// intervals are no longer archived. In pipeline mode this waits for
    /// every interval already handed off (call
    /// [`drain`](Self::drain) first to collect their reports).
    pub fn take_archive(&mut self) -> Option<SketchArchive<KarySketch>> {
        match &mut self.detect {
            DetectBackend::Inline { archive, .. } => archive.take(),
            DetectBackend::Pipelined { detect_tx, .. } => {
                let (reply_tx, reply_rx) = bounded(1);
                detect_tx.as_ref()?.send(DetectMsg::TakeArchive(reply_tx)).ok()?;
                reply_rx.recv().ok().flatten()
            }
        }
    }

    /// Total updates pushed over the engine's lifetime.
    pub fn records_total(&self) -> u64 {
        self.records_total
    }

    fn send(&mut self, shard: usize, msg: WorkerMsg) -> Result<(), EngineError> {
        let tx = self.workers[shard].tx.as_ref().expect("sender live until drop");
        tx.send(msg).map_err(|_| EngineError::WorkerLost { shard })
    }

    /// A batch `Vec` to build into: recycled from a worker when one is
    /// waiting, freshly allocated otherwise (start-up and after drops).
    fn fresh_batch(&self) -> Vec<(u64, f64)> {
        match self.recycle.try_recv() {
            // Cleared by the worker; len 0, capacity already ≈ batch.
            Some(spent) => {
                if let Some(m) = &self.metrics {
                    m.engine.recycle_hits_total.inc();
                }
                spent
            }
            None => {
                if let Some(m) = &self.metrics {
                    m.engine.recycle_misses_total.inc();
                }
                Vec::with_capacity(self.batch)
            }
        }
    }

    /// Ships `pending[shard]` to its worker, replacing it with a recycled
    /// (or fresh) buffer.
    fn flush_shard(&mut self, shard: usize) -> Result<(), EngineError> {
        let replacement = self.fresh_batch();
        let batch = std::mem::replace(&mut self.pending[shard], replacement);
        self.send(shard, WorkerMsg::Batch(batch))
    }

    /// Routes one update to its shard. Blocks (backpressure) if that
    /// shard's queue is full — the engine never silently drops.
    ///
    /// # Errors
    /// [`EngineError::WorkerLost`] if the shard's worker has died.
    #[inline]
    pub fn push(&mut self, key: u64, value: f64) -> Result<(), EngineError> {
        self.keys.record(key);
        if let Some(glr) = &mut self.glr {
            glr.det.observe(key, value);
        }
        self.records_total += 1;
        let shard = shard_of(key, self.shards);
        self.pending[shard].push((key, value));
        if self.pending[shard].len() >= self.batch {
            self.flush_shard(shard)?;
        }
        Ok(())
    }

    /// Routes a whole slice of updates — the bulk form of
    /// [`push`](Self::push), and the API the CLI and trace replay feed.
    /// Equivalent to pushing each item in order (same batches, same key
    /// log, bit-identical reports), but the loop stays inside one call:
    /// no per-update function boundary, and the single-shard case
    /// degenerates to `extend_from_slice` memcpys with no routing at all.
    ///
    /// # Errors
    /// [`EngineError::WorkerLost`] if a shard's worker has died.
    pub fn push_slice(&mut self, items: &[(u64, f64)]) -> Result<(), EngineError> {
        self.records_total += items.len() as u64;
        for &(key, _) in items {
            self.keys.record(key);
        }
        if let Some(glr) = &mut self.glr {
            glr.det.observe_slice(items);
        }
        if self.shards == 1 {
            let mut rest = items;
            while !rest.is_empty() {
                let room = self.batch - self.pending[0].len();
                let (head, tail) = rest.split_at(room.min(rest.len()));
                self.pending[0].extend_from_slice(head);
                rest = tail;
                if self.pending[0].len() >= self.batch {
                    self.flush_shard(0)?;
                }
            }
            return Ok(());
        }
        for &(key, value) in items {
            let shard = shard_of(key, self.shards);
            self.pending[shard].push((key, value));
            if self.pending[shard].len() >= self.batch {
                self.flush_shard(shard)?;
            }
        }
        Ok(())
    }

    /// Multi-producer bulk push: `producers` threads route contiguous
    /// chunks of `items` into private per-shard buffers in parallel, then
    /// the buffers are shipped through the existing worker channels in
    /// producer order. This parallelizes the hash-and-route hop that
    /// [`push_slice`](Self::push_slice) runs single-threaded — the side
    /// `BENCH_ingest.json` showed eating all shard-scaling gains.
    ///
    /// Reports are **bit-identical** to `push_slice` for any `f64` values,
    /// not merely for integer-valued cells: chunks are contiguous and
    /// shipped in chunk order, so every shard worker folds exactly the
    /// per-shard subsequence it would have seen from the sequential call,
    /// and the key log is absorbed in the same stream order (see
    /// `KeyLog::absorb`). Falls back to `push_slice` when the slice is
    /// too small to amortize thread spawns.
    ///
    /// # Errors
    /// [`EngineError::WorkerLost`] if a shard's worker has died.
    pub fn push_slice_parallel(
        &mut self,
        items: &[(u64, f64)],
        producers: usize,
    ) -> Result<(), EngineError> {
        let producers = producers.max(1);
        if producers == 1 || items.len() < producers * self.batch.max(256) {
            return self.push_slice(items);
        }
        // Anything still pending is earlier in the stream than `items`:
        // flush it first so per-shard fold order stays the sequential one.
        for shard in 0..self.shards {
            if !self.pending[shard].is_empty() {
                self.flush_shard(shard)?;
            }
        }
        self.records_total += items.len() as u64;
        // The GLR layer always observes in stream order, regardless of how
        // the routing hop is parallelized (the fallback path above feeds it
        // through `push_slice`).
        if let Some(glr) = &mut self.glr {
            glr.det.observe_slice(items);
        }
        let shards = self.shards;
        let chunk = items.len().div_ceil(producers);
        let routed: Vec<RoutedChunk> = std::thread::scope(|scope| {
            let handles: Vec<_> = items
                .chunks(chunk)
                .map(|c| {
                    let log = self.keys.fresh_like();
                    scope.spawn(move || route_chunk(c, shards, log))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("producer thread panicked")).collect()
        });
        for (bufs, log) in routed {
            self.keys.absorb(log);
            for (shard, buf) in bufs.into_iter().enumerate() {
                if !buf.is_empty() {
                    self.send(shard, WorkerMsg::Batch(buf))?;
                }
            }
        }
        Ok(())
    }

    /// Flushes every shard's pending batch and requests the interval
    /// sketches.
    fn flush_all(&mut self) -> Result<(), EngineError> {
        let mut deepest = 0usize;
        for shard in 0..self.shards {
            if !self.pending[shard].is_empty() {
                self.flush_shard(shard)?;
            }
            if self.metrics.is_some() {
                // Sampled right before Flush lands: how far the slowest
                // shard is lagging the interval boundary.
                let tx = self.workers[shard].tx.as_ref().expect("sender live until drop");
                deepest = deepest.max(tx.len());
            }
            self.send(shard, WorkerMsg::Flush)?;
        }
        if let Some(m) = &self.metrics {
            m.engine.queue_depth.set(deepest as f64);
        }
        Ok(())
    }

    /// Collects the per-shard interval sketches in shard order. This is
    /// the COMBINE barrier, so it doubles as the telemetry aggregation
    /// point: each worker shipped its [`ShardStats`] before its sketch,
    /// so after the blocking sketch recv the stats are guaranteed queued.
    fn collect_shards(&self, out: &mut Vec<KarySketch>) -> Result<(), EngineError> {
        out.clear();
        for (shard, worker) in self.workers.iter().enumerate() {
            out.push(worker.results.recv().map_err(|_| EngineError::WorkerLost { shard })?);
            if let (Some(stats_rx), Some(m)) = (&worker.stats, &self.metrics) {
                if let Some(st) = stats_rx.try_recv() {
                    st.merge_into(&m.engine);
                }
            }
        }
        Ok(())
    }

    /// Sequential-mode interval close: merge and detect on this thread,
    /// reusing the merge buffer and returning cleared shard sketches to
    /// the workers — steady state allocates nothing on the turnover path.
    fn end_interval_inline(&mut self) -> Result<IntervalReport, EngineError> {
        self.glr_note_interval_close();
        let sw = Stopwatch::start();
        self.flush_all()?;
        let mut bufs = match &mut self.detect {
            DetectBackend::Inline { shard_bufs, .. } => std::mem::take(shard_bufs),
            DetectBackend::Pipelined { .. } => unreachable!("inline close on pipelined backend"),
        };
        self.collect_shards(&mut bufs)?;
        if let Some(m) = &self.metrics {
            m.engine.barrier_ns.record(sw.elapsed_ns());
        }
        let keys = self.keys.take();
        let metrics = self.metrics.clone();
        let observer = self.observer.clone();
        let DetectBackend::Inline { detector, archive, merged, shard_bufs, spare_txs } =
            &mut self.detect
        else {
            unreachable!("inline close on pipelined backend")
        };
        let observed =
            merged.get_or_insert_with(|| KarySketch::with_rows(Arc::clone(detector.rows())));
        let sw = Stopwatch::start();
        merge_shards(observed, &mut bufs);
        if let Some(m) = &metrics {
            m.engine.combine_ns.record(sw.elapsed_ns());
        }
        recycle_shards(&mut bufs, spare_txs);
        *shard_bufs = bufs;
        let result = detect_interval(
            detector,
            archive.as_mut(),
            observer.as_deref(),
            observed,
            keys,
            metrics.as_deref(),
        );
        if let Ok(report) = &result {
            self.glr_on_report(report);
        }
        result
    }

    /// Pipeline-mode handoff: flush the shards, ship the interval's
    /// sketches and key log to the detect thread, and return immediately
    /// so ingest of the next interval overlaps detection of this one.
    fn ship_interval(&mut self) -> Result<(), EngineError> {
        self.glr_note_interval_close();
        let sw = Stopwatch::start();
        self.flush_all()?;
        let mut bufs = match &mut self.detect {
            DetectBackend::Pipelined { vec_return, .. } => {
                vec_return.try_recv().unwrap_or_default()
            }
            DetectBackend::Inline { .. } => unreachable!("handoff on inline backend"),
        };
        self.collect_shards(&mut bufs)?;
        if let Some(m) = &self.metrics {
            m.engine.barrier_ns.record(sw.elapsed_ns());
        }
        let keys = self.keys.take();
        let DetectBackend::Pipelined { detect_tx, in_flight, .. } = &mut self.detect else {
            unreachable!("handoff on inline backend")
        };
        detect_tx
            .as_ref()
            .expect("sender live until drop")
            .send(DetectMsg::Interval { sketches: bufs, keys })
            .map_err(|_| EngineError::DetectorLost)?;
        *in_flight += 1;
        Ok(())
    }

    /// Receives one outstanding report from the detect thread (blocking).
    fn recv_report(&mut self) -> Result<IntervalReport, EngineError> {
        let report = {
            let DetectBackend::Pipelined { report_rx, in_flight, .. } = &mut self.detect else {
                unreachable!("no reports outstanding on inline backend")
            };
            let report = report_rx.recv().map_err(|_| EngineError::DetectorLost)?;
            *in_flight -= 1;
            report
        };
        if let Ok(r) = &report {
            self.glr_on_report(r);
        }
        report
    }

    /// Whether a GLR sequential-detection layer is running
    /// ([`EngineConfig::with_glr`]).
    pub fn glr_enabled(&self) -> bool {
        self.glr.is_some()
    }

    /// Closes the current GLR base slot and runs the sequential statistic
    /// over the slot window. Call once per sub-interval boundary (e.g.
    /// every `interval / slots` seconds of trace time). A provisional
    /// alarm, if raised, is queued both for event pickup
    /// ([`take_glr_events`](Self::take_glr_events)) and for
    /// confirm/retract matching against the covering interval's report.
    /// No-op without a GLR layer.
    pub fn end_glr_slot(&mut self) {
        if let Some(glr) = &mut self.glr {
            Self::glr_close_slot(glr, self.metrics.as_deref());
        }
    }

    /// Seals the detector's open slot and records any provisional alarm
    /// against the interval currently being ingested.
    fn glr_close_slot(glr: &mut GlrRuntime, metrics: Option<&PipelineMetrics>) {
        if let Some(alarm) = glr.det.end_slot() {
            if let Some(m) = metrics {
                m.glr.provisional_total.inc();
            }
            glr.pending.push_back((glr.ingest_interval, alarm.clone()));
            glr.events.push(GlrEvent::Provisional { interval: glr.ingest_interval, alarm });
        }
    }

    /// Interval-boundary bookkeeping for the GLR layer: force-close a
    /// dirty open slot (updates never bleed across interval boundaries),
    /// remember which slot count the closing interval ended at (for the
    /// lead-time histogram), and advance the ingest interval counter.
    fn glr_note_interval_close(&mut self) {
        if let Some(glr) = &mut self.glr {
            if glr.det.slot_dirty() {
                Self::glr_close_slot(glr, self.metrics.as_deref());
            }
            glr.closes.push_back((glr.ingest_interval, glr.det.slots_closed()));
            glr.ingest_interval += 1;
        }
    }

    /// Resolves pending provisional alarms against a freshly delivered
    /// interval report: a provisional from interval `t` is **confirmed**
    /// when `t`'s warmed-up report alarms on the provisional's hinted
    /// key, and **retracted** otherwise. Reports are matched on
    /// [`IntervalReport::interval`], which is the *covered* interval —
    /// under `NextInterval` the report closing interval `t` covers
    /// `t − 1`, and this matching handles that lag uniformly.
    fn glr_on_report(&mut self, report: &IntervalReport) {
        let Some(glr) = &mut self.glr else { return };
        let rint = report.interval as u64;
        while let Some(&(iv, _)) = glr.pending.front() {
            if iv > rint {
                break;
            }
            if iv == rint && !report.warmed_up {
                // The covering report has not arrived yet (warm-up, or
                // NextInterval's one-close lag). Keep waiting.
                break;
            }
            let (_, alarm) = glr.pending.pop_front().expect("front checked above");
            let confirmed = iv == rint
                && alarm.key_hint.is_some_and(|k| report.alarms.iter().any(|a| a.key == k));
            if confirmed {
                while glr.closes.front().is_some_and(|&(i, _)| i < iv) {
                    glr.closes.pop_front();
                }
                let close_slot = glr.closes.front().filter(|&&(i, _)| i == iv).map(|&(_, s)| s);
                let lead = close_slot.map_or(0, |c| c.saturating_sub(alarm.raised_slot));
                if let Some(m) = &self.metrics {
                    m.glr.confirmed_total.inc();
                    m.glr.lead_slots.record(lead);
                }
                glr.events.push(GlrEvent::Confirmed { interval: iv, lead_slots: lead, alarm });
            } else {
                if let Some(m) = &self.metrics {
                    m.glr.retracted_total.inc();
                }
                glr.events.push(GlrEvent::Retracted { interval: iv, alarm });
            }
        }
        while glr.closes.front().is_some_and(|&(i, _)| i < rint) {
            glr.closes.pop_front();
        }
    }

    /// Drains the GLR event log accumulated since the last call:
    /// provisional alarms in slot order, interleaved with the
    /// confirmations and retractions resolved by delivered interval
    /// reports. Empty without a GLR layer.
    pub fn take_glr_events(&mut self) -> Vec<GlrEvent> {
        self.glr.as_mut().map(|g| std::mem::take(&mut g.events)).unwrap_or_default()
    }

    /// Snapshots the GLR layer — detector state plus the unresolved
    /// provisional queue and interval bookkeeping — for
    /// checkpoint/restore. Undrained events are *not* part of the
    /// snapshot. `None` without a GLR layer.
    pub fn glr_snapshot(&self) -> Option<GlrEngineSnapshot> {
        self.glr.as_ref().map(|g| GlrEngineSnapshot {
            detector: g.det.snapshot(),
            pending: g.pending.iter().cloned().collect(),
            closes: g.closes.iter().copied().collect(),
            ingest_interval: g.ingest_interval,
        })
    }

    /// Restores the GLR layer from a snapshot taken by
    /// [`glr_snapshot`](Self::glr_snapshot). The engine must have been
    /// built with the same [`GlrConfig`]; resumed processing is bit-exact
    /// with the uninterrupted run, including mid-window and mid-slot
    /// interruption points.
    ///
    /// # Errors
    /// [`GlrRestoreError::Config`] when no GLR layer is enabled or the
    /// snapshot shape disagrees with the config;
    /// [`GlrRestoreError::FamilyMismatch`] when the snapshot's sketches
    /// were built over a different hash family.
    pub fn restore_glr(&mut self, snap: GlrEngineSnapshot) -> Result<(), GlrRestoreError> {
        let Some(glr) = &mut self.glr else {
            return Err(GlrRestoreError::Config("engine has no GLR layer enabled".into()));
        };
        glr.det = GlrDetector::restore(glr.det.config().clone(), snap.detector)?;
        glr.pending = snap.pending.into();
        glr.closes = snap.closes.into();
        glr.ingest_interval = snap.ingest_interval;
        glr.events.clear();
        Ok(())
    }

    /// Closes the interval: flushes every shard, merges the per-shard
    /// sketches in shard order, and runs the detection pipeline on the
    /// merged observed sketch — then archives the resulting error sketch
    /// when an archive is configured.
    ///
    /// In pipeline mode this waits for the interval's own report (no
    /// overlap); use
    /// [`end_interval_overlapped`](Self::end_interval_overlapped) to keep
    /// ingest and detection concurrent. When mixing the two styles, call
    /// [`drain`](Self::drain) before this method — a report still pending
    /// from an earlier overlapped close is otherwise discarded here.
    ///
    /// # Errors
    /// [`EngineError::WorkerLost`] if any worker died mid-interval;
    /// [`EngineError::DetectorLost`] if the detect thread died;
    /// [`EngineError::Archive`] if the archive rejects the error sketch.
    pub fn end_interval(&mut self) -> Result<IntervalReport, EngineError> {
        match &self.detect {
            DetectBackend::Inline { .. } => self.end_interval_inline(),
            DetectBackend::Pipelined { .. } => {
                self.ship_interval()?;
                let report = self.drain()?;
                Ok(report.expect("interval just shipped yields a report"))
            }
        }
    }

    /// Closes the interval without waiting for its report: ships interval
    /// `t` to the detect thread and returns interval `t − 1`'s report
    /// (`None` on the first call, when nothing is finished yet). The
    /// final interval's report is delivered by [`drain`](Self::drain).
    ///
    /// In sequential mode there is nothing to overlap with, so this
    /// degenerates to [`end_interval`](Self::end_interval) with the
    /// report wrapped in `Some` — no lag.
    ///
    /// # Errors
    /// As [`end_interval`](Self::end_interval).
    pub fn end_interval_overlapped(&mut self) -> Result<Option<IntervalReport>, EngineError> {
        match &self.detect {
            DetectBackend::Inline { .. } => self.end_interval_inline().map(Some),
            DetectBackend::Pipelined { .. } => {
                self.ship_interval()?;
                let outstanding = match &self.detect {
                    DetectBackend::Pipelined { in_flight, .. } => *in_flight,
                    DetectBackend::Inline { .. } => unreachable!(),
                };
                // Keep exactly one interval in flight: ship t, then wait
                // for t − 1 (already overlapped with t's ingest).
                if outstanding > 1 {
                    self.recv_report().map(Some)
                } else {
                    Ok(None)
                }
            }
        }
    }

    /// Waits for the last in-flight interval and returns its report
    /// (`None` when nothing is outstanding — always in sequential mode).
    ///
    /// # Errors
    /// [`EngineError::DetectorLost`] if the detect thread died, plus any
    /// detection/archive error from the drained interval.
    pub fn drain(&mut self) -> Result<Option<IntervalReport>, EngineError> {
        let mut last = None;
        while matches!(&self.detect, DetectBackend::Pipelined { in_flight, .. } if *in_flight > 0) {
            last = Some(self.recv_report()?);
        }
        if let Some(observer) = &self.observer {
            observer.flush();
        }
        Ok(last)
    }

    /// Convenience: push a whole interval's updates and close it — the
    /// sharded drop-in for `SketchChangeDetector::process_interval`.
    ///
    /// # Errors
    /// As [`push`](Self::push) and [`end_interval`](Self::end_interval).
    pub fn process_interval(
        &mut self,
        items: &[(u64, f64)],
    ) -> Result<IntervalReport, EngineError> {
        self.push_slice(items)?;
        self.end_interval()
    }

    /// [`process_interval`](Self::process_interval) with the
    /// multi-producer source plane: routes via
    /// [`push_slice_parallel`](Self::push_slice_parallel), then closes the
    /// interval. Bit-identical reports; the whole source side runs on
    /// `producers` threads.
    ///
    /// # Errors
    /// As [`push_slice_parallel`](Self::push_slice_parallel) and
    /// [`end_interval`](Self::end_interval).
    pub fn process_interval_parallel(
        &mut self,
        items: &[(u64, f64)],
        producers: usize,
    ) -> Result<IntervalReport, EngineError> {
        self.push_slice_parallel(items, producers)?;
        self.end_interval()
    }

    /// Closes the interval **without running detection**: flushes every
    /// shard, merges the per-shard sketches in shard order, and hands back
    /// the merged observed sketch plus the interval's key log. This is
    /// the ingest-node half of the distributed plane (`scd-net`): each
    /// vantage point runs a `ShardedEngine` for parallel ingest but ships
    /// its interval sketch to an aggregator that COMBINEs all nodes and
    /// runs the one global detector. The embedded detector is not
    /// advanced, so a harvested engine never emits reports of its own.
    ///
    /// Only sequential (non-pipelined) engines support harvesting — in
    /// pipeline mode the interval state lives on the detect thread, which
    /// exists precisely to run the detection this method skips.
    ///
    /// # Errors
    /// [`EngineError::BadConfig`] on a pipelined engine;
    /// [`EngineError::WorkerLost`] if a shard worker died mid-interval.
    pub fn end_interval_sketch(&mut self) -> Result<(KarySketch, Vec<u64>), EngineError> {
        if matches!(self.detect, DetectBackend::Pipelined { .. }) {
            return Err(EngineError::BadConfig(
                "end_interval_sketch requires a non-pipelined engine".into(),
            ));
        }
        let sw = Stopwatch::start();
        self.flush_all()?;
        let mut bufs = match &mut self.detect {
            DetectBackend::Inline { shard_bufs, .. } => std::mem::take(shard_bufs),
            DetectBackend::Pipelined { .. } => unreachable!("checked above"),
        };
        self.collect_shards(&mut bufs)?;
        if let Some(m) = &self.metrics {
            m.engine.barrier_ns.record(sw.elapsed_ns());
        }
        let keys = self.keys.take();
        let metrics = self.metrics.clone();
        let DetectBackend::Inline { detector, shard_bufs, spare_txs, .. } = &mut self.detect else {
            unreachable!("checked above")
        };
        // The caller keeps the merged sketch (it crosses the wire), so it
        // cannot come from the recycled merge buffer.
        let mut observed = KarySketch::with_rows(Arc::clone(detector.rows()));
        let sw = Stopwatch::start();
        merge_shards(&mut observed, &mut bufs);
        if let Some(m) = &metrics {
            m.engine.combine_ns.record(sw.elapsed_ns());
        }
        recycle_shards(&mut bufs, spare_txs);
        *shard_bufs = bufs;
        Ok((observed, keys))
    }
}

impl Drop for ShardedEngine {
    fn drop(&mut self) {
        // Hang up every queue first (lets all workers start draining),
        // then join.
        for worker in &mut self.workers {
            worker.tx.take();
        }
        for worker in &mut self.workers {
            if let Some(thread) = worker.thread.take() {
                let _ = thread.join();
            }
        }
        // Then the detect thread: dropping its sender ends its receive
        // loop. Its report queue can absorb every in-flight interval, so
        // it never blocks on the way out.
        if let DetectBackend::Pipelined { detect_tx, thread, .. } = &mut self.detect {
            detect_tx.take();
            if let Some(thread) = thread.take() {
                let _ = thread.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::KeyStrategy;
    use scd_forecast::ModelSpec;
    use scd_sketch::SketchConfig;

    fn config(shards: usize) -> EngineConfig {
        EngineConfig::new(
            DetectorConfig {
                sketch: SketchConfig { h: 3, k: 512, seed: 4 },
                model: ModelSpec::Ewma { alpha: 0.5 },
                threshold: 0.05,
                key_strategy: KeyStrategy::TwoPass,
            },
            shards,
        )
    }

    #[test]
    fn rejects_degenerate_configs() {
        assert!(matches!(
            ShardedEngine::new(EngineConfig { shards: 0, ..config(1) }),
            Err(EngineError::BadConfig(_))
        ));
        assert!(matches!(
            ShardedEngine::new(EngineConfig { batch: 0, ..config(2) }),
            Err(EngineError::BadConfig(_))
        ));
        let bad_archive = config(2).with_archive(ArchiveConfig {
            max_sketches: 2,
            full_resolution: 4,
            keys_per_epoch: 4,
        });
        assert!(matches!(ShardedEngine::new(bad_archive), Err(EngineError::Archive(_))));
    }

    /// The one-sweep merge is the assign + add-scaled sequence it
    /// replaced, cell for cell, and hands the shards back cleared — at a
    /// table of two tiles and a tail, with fractional cells so that the
    /// order of the adds shows in the low bits.
    #[test]
    fn merge_shards_is_assign_then_add_and_leaves_the_shards_zero() {
        let proto = KarySketch::new(SketchConfig { h: 5, k: 512, seed: 4 });
        assert!(proto.table().len() > 2 * scd_sketch::batch::SWEEP_TILE);
        for shards in [1usize, 2, 3, 7] {
            let mut sketches: Vec<KarySketch> = (0..shards)
                .map(|shard| {
                    let mut sketch = proto.zero_like();
                    for (i, cell) in sketch.table_mut().iter_mut().enumerate() {
                        *cell = ((i * 31 + shard * 17) % 1013) as f64 / 7.0 - 60.0;
                    }
                    sketch
                })
                .collect();
            let mut expected = proto.zero_like();
            expected.assign_from(&sketches[0]).unwrap();
            for sketch in &sketches[1..] {
                expected.add_scaled(sketch, 1.0).unwrap();
            }
            // A recycled destination: stale cells must not survive.
            let mut merged = proto.zero_like();
            merged.table_mut().fill(f64::NAN);
            merge_shards(&mut merged, &mut sketches);
            let bits = |s: &KarySketch| s.table().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&merged), bits(&expected), "{shards} shards");
            for (shard, sketch) in sketches.iter().enumerate() {
                assert!(
                    sketch.table().iter().all(|x| x.to_bits() == 0),
                    "shard {shard} of {shards} not cleared"
                );
            }
        }
    }

    #[test]
    fn shard_routing_is_balanced() {
        for shards in [2usize, 4, 8] {
            let mut counts = vec![0u64; shards];
            // Sequential keys — the adversarial case for `key % N`.
            for key in 0..8_000u64 {
                counts[shard_of(key, shards)] += 1;
            }
            let expect = 8_000 / shards as u64;
            for (shard, &n) in counts.iter().enumerate() {
                assert!(
                    n > expect / 2 && n < expect * 2,
                    "shard {shard}/{shards}: {n} keys (expected ≈{expect})"
                );
            }
        }
    }

    #[test]
    fn shard_routing_spreads_sequential_ip_streams() {
        // Lemire range reduction maps the TOP bits of the hash to the
        // shard: structured key spaces must still spread after the mix.
        // Model a /16 scan (sequential IPv4 hosts) and a stride-aligned
        // /24 sweep — both adversarial for `key % N` and for any routing
        // that reads low bits directly.
        let scan: Vec<u64> = (0..8_000u64).map(|i| 0x0A00_0000 + i).collect();
        let sweep: Vec<u64> = (0..8_000u64).map(|i| 0xC0A8_0000 + (i << 8)).collect();
        for keys in [&scan, &sweep] {
            for shards in [3usize, 4, 7, 8] {
                let mut counts = vec![0u64; shards];
                for &key in keys {
                    counts[shard_of(key, shards)] += 1;
                }
                let expect = keys.len() as u64 / shards as u64;
                for (shard, &n) in counts.iter().enumerate() {
                    assert!(
                        n > expect / 2 && n < expect * 2,
                        "shard {shard}/{shards}: {n} keys (expected ≈{expect})"
                    );
                }
            }
        }
    }

    #[test]
    fn push_slice_matches_per_update_push() {
        // Same stream through push_slice (in uneven chunks) and through
        // per-update push must produce identical reports — the bulk path
        // is a pure restructuring, for every key strategy.
        for strategy in [
            KeyStrategy::TwoPass,
            KeyStrategy::NextInterval,
            KeyStrategy::Sampled { rate: 0.5, seed: 11 },
        ] {
            for shards in [1usize, 4] {
                let mut cfg = config(shards);
                cfg.detector.key_strategy = strategy;
                cfg.batch = 64; // force mid-slice flushes
                let mut bulk = ShardedEngine::new(cfg.clone()).unwrap();
                let mut scalar = ShardedEngine::new(cfg).unwrap();
                for t in 0..6u64 {
                    let items: Vec<(u64, f64)> =
                        (0..500u64).map(|i| (i % 170, ((i * 31 + t * 13) % 400) as f64)).collect();
                    for chunk in items.chunks(93) {
                        bulk.push_slice(chunk).unwrap();
                    }
                    for &(key, value) in &items {
                        scalar.push(key, value).unwrap();
                    }
                    let a = bulk.end_interval().unwrap();
                    let b = scalar.end_interval().unwrap();
                    assert_eq!(a, b, "{strategy:?} shards={shards} interval {t}");
                }
                assert_eq!(bulk.records_total(), scalar.records_total());
            }
        }
    }

    #[test]
    fn push_slice_parallel_matches_push_slice() {
        // The multi-producer source plane is a pure restructuring: for
        // every key strategy, shard count, and producer count — including
        // fractional values, where bit-identity relies on per-shard fold
        // order, not on integer-exact addition — reports must be
        // identical to the sequential bulk path.
        for strategy in [
            KeyStrategy::TwoPass,
            KeyStrategy::NextInterval,
            KeyStrategy::Sampled { rate: 0.5, seed: 11 },
        ] {
            for shards in [1usize, 4] {
                for producers in [2usize, 3, 8] {
                    let mut cfg = config(shards);
                    cfg.detector.key_strategy = strategy;
                    cfg.batch = 64;
                    let mut par = ShardedEngine::new(cfg.clone()).unwrap();
                    let mut seq = ShardedEngine::new(cfg).unwrap();
                    for t in 0..4u64 {
                        let items: Vec<(u64, f64)> = (0..700u64)
                            .map(|i| (i % 170, ((i * 31 + t * 13) % 400) as f64 + 0.25))
                            .collect();
                        // Mix a partial push first so the parallel path has
                        // to preserve order across pending flushes.
                        par.push_slice(&items[..37]).unwrap();
                        par.push_slice_parallel(&items[37..], producers).unwrap();
                        seq.push_slice(&items).unwrap();
                        let a = par.end_interval().unwrap();
                        let b = seq.end_interval().unwrap();
                        assert_eq!(
                            a, b,
                            "{strategy:?} shards={shards} producers={producers} interval {t}"
                        );
                    }
                    assert_eq!(par.records_total(), seq.records_total());
                }
            }
        }
    }

    #[test]
    fn process_interval_parallel_matches_pipelined_and_sequential() {
        // Parallel source on/off × pipeline on/off: all four engines must
        // emit the same reports.
        let mut cfg = config(4);
        cfg.batch = 64;
        let mut seq = ShardedEngine::new(cfg.clone()).unwrap();
        let mut par = ShardedEngine::new(cfg.clone()).unwrap();
        let mut pipe = ShardedEngine::new(cfg.clone().with_pipeline()).unwrap();
        let mut pipe_par = ShardedEngine::new(cfg.with_pipeline()).unwrap();
        let mut reports: Vec<Vec<IntervalReport>> = vec![Vec::new(); 4];
        for t in 0..6u64 {
            let items: Vec<(u64, f64)> =
                (0..900u64).map(|i| (i % 240, ((i * 7 + t * 29) % 500) as f64)).collect();
            reports[0].push(seq.process_interval(&items).unwrap());
            reports[1].push(par.process_interval_parallel(&items, 3).unwrap());
            pipe.push_slice(&items).unwrap();
            if let Some(r) = pipe.end_interval_overlapped().unwrap() {
                reports[2].push(r);
            }
            pipe_par.push_slice_parallel(&items, 3).unwrap();
            if let Some(r) = pipe_par.end_interval_overlapped().unwrap() {
                reports[3].push(r);
            }
        }
        while let Some(r) = pipe.drain().unwrap() {
            reports[2].push(r);
        }
        while let Some(r) = pipe_par.drain().unwrap() {
            reports[3].push(r);
        }
        assert_eq!(reports[0], reports[1], "parallel source changed sequential reports");
        assert_eq!(reports[0], reports[2], "pipeline changed reports");
        assert_eq!(reports[0], reports[3], "parallel source changed pipelined reports");
    }

    #[test]
    fn single_shard_engine_matches_detector_exactly() {
        let mut engine = ShardedEngine::new(config(1)).unwrap();
        let mut reference = SketchChangeDetector::new(config(1).detector);
        for t in 0..8u64 {
            let items: Vec<(u64, f64)> =
                (0..200u64).map(|k| (k, ((k * 13 + t * 7) % 100) as f64)).collect();
            let sharded = engine.process_interval(&items).unwrap();
            let single = reference.process_interval(&items);
            assert_eq!(sharded, single, "interval {t}");
        }
    }

    #[test]
    fn harvested_sketch_feeds_external_detector_identically() {
        // Harvest-without-detect (the ingest-node path) must hand back
        // exactly the sketch and key log the embedded detector would have
        // consumed: feeding them to an external detector reproduces the
        // in-engine reports bit for bit.
        let mut engine = ShardedEngine::new(config(4)).unwrap();
        let mut reference = ShardedEngine::new(config(4)).unwrap();
        let mut external = SketchChangeDetector::new(config(1).detector);
        for t in 0..6u64 {
            let items: Vec<(u64, f64)> =
                (0..300u64).map(|i| (i % 120, ((i * 17 + t * 5) % 300) as f64)).collect();
            engine.push_slice(&items).unwrap();
            let (sketch, keys) = engine.end_interval_sketch().unwrap();
            let harvested = external.process_observed(&sketch, keys);
            let direct = reference.process_interval(&items).unwrap();
            assert_eq!(harvested, direct, "interval {t}");
        }
        // The embedded detector never advanced.
        assert_eq!(engine.detector().unwrap().intervals_processed(), 0);
    }

    #[test]
    fn harvest_rejects_pipelined_engines() {
        let mut engine = ShardedEngine::new(config(2).with_pipeline()).unwrap();
        engine.push(1, 1.0).unwrap();
        assert!(matches!(engine.end_interval_sketch(), Err(EngineError::BadConfig(_))));
    }

    #[test]
    fn drop_joins_workers_cleanly() {
        let mut engine = ShardedEngine::new(config(4)).unwrap();
        engine.push(1, 1.0).unwrap();
        // Dropping with a batch in flight and no flush must not hang.
        drop(engine);
    }

    use crate::glr::{GlrConfig, GlrEvent};
    use scd_hash::SplitMix64;

    fn glr_cfg() -> GlrConfig {
        GlrConfig {
            sketch: SketchConfig { h: 3, k: 1024, seed: 0x5CD },
            projections: 8,
            max_window: 4,
            threshold: 16.0,
            min_baseline: 4,
            hint_keys: 4096,
            cooldown: 8,
        }
    }

    /// Deterministic slot traffic keyed by (interval, slot): ~40 steady
    /// keys with jitter, plus an optional burst update.
    fn glr_slot_items(t: u64, s: u64, burst: Option<(u64, f64)>) -> Vec<(u64, f64)> {
        let mut rng = SplitMix64::new(0x00FE_ED00 ^ (t << 8) ^ s);
        let mut items: Vec<(u64, f64)> =
            (0..40u64).map(|k| (k, 1_000.0 + rng.next_below(101) as f64 - 50.0)).collect();
        if let Some(b) = burst {
            items.push(b);
        }
        items
    }

    #[test]
    fn glr_confirms_a_real_change_ahead_of_interval_close() {
        const SLOTS: u64 = 4;
        let burst_iv = 4u64;
        let burst_slot = 1u64;
        let mut engine = ShardedEngine::new(config(2).with_glr(glr_cfg())).unwrap();
        let mut plain = ShardedEngine::new(config(2)).unwrap();
        let mut events = Vec::new();
        for t in 0..6u64 {
            for s in 0..SLOTS {
                let bursting = (t, s) >= (burst_iv, burst_slot);
                let items = glr_slot_items(t, s, bursting.then_some((777, 40_000.0)));
                engine.push_slice(&items).unwrap();
                plain.push_slice(&items).unwrap();
                engine.end_glr_slot();
            }
            let a = engine.end_interval().unwrap();
            let b = plain.end_interval().unwrap();
            assert_eq!(a, b, "GLR layer changed interval {t}'s report");
            events.extend(engine.take_glr_events());
        }
        let provisional = events
            .iter()
            .find_map(|e| match e {
                GlrEvent::Provisional { interval, alarm } => Some((*interval, alarm.clone())),
                _ => None,
            })
            .expect("burst never raised a provisional");
        assert_eq!(provisional.0, burst_iv, "provisional tagged to the wrong interval");
        assert_eq!(provisional.1.key_hint, Some(777));
        let confirmed = events
            .iter()
            .find_map(|e| match e {
                GlrEvent::Confirmed { interval, lead_slots, alarm } => {
                    Some((*interval, *lead_slots, alarm.clone()))
                }
                _ => None,
            })
            .expect("provisional never confirmed");
        assert_eq!(confirmed.0, burst_iv);
        assert_eq!(confirmed.2, provisional.1, "confirmation carries a different alarm");
        // Fired at least two slots before the interval's closing slot.
        assert!(
            confirmed.1 >= 2,
            "lead of {} slots — provisional barely beat interval close",
            confirmed.1
        );
        // Nothing fired before the burst.
        for e in &events {
            let iv = match e {
                GlrEvent::Provisional { interval, .. }
                | GlrEvent::Confirmed { interval, .. }
                | GlrEvent::Retracted { interval, .. } => *interval,
            };
            assert!(iv >= burst_iv, "event before the burst: {e:?}");
        }
    }

    #[test]
    fn glr_retracts_a_provisional_the_close_detector_cannot_confirm() {
        // Fire during interval 0, whose close-time report is still warming
        // up: the provisional must be retracted once a later warmed-up
        // report proves no confirmation is coming.
        const SLOTS: u64 = 10;
        let mut cfg = glr_cfg();
        cfg.max_window = 2;
        cfg.min_baseline = 2;
        let mut engine = ShardedEngine::new(config(2).with_glr(cfg)).unwrap();
        let mut events = Vec::new();
        for t in 0..2u64 {
            for s in 0..SLOTS {
                let bursting = t == 0 && s >= 6;
                let items = glr_slot_items(t, s, bursting.then_some((777, 40_000.0)));
                engine.push_slice(&items).unwrap();
                engine.end_glr_slot();
            }
            engine.end_interval().unwrap();
            events.extend(engine.take_glr_events());
        }
        assert!(
            events.iter().any(|e| matches!(e, GlrEvent::Provisional { interval: 0, .. })),
            "burst in interval 0 never raised a provisional: {events:?}"
        );
        assert!(
            events.iter().any(|e| matches!(e, GlrEvent::Retracted { interval: 0, .. })),
            "interval 0's provisional was never retracted: {events:?}"
        );
        assert!(
            !events.iter().any(|e| matches!(e, GlrEvent::Confirmed { interval: 0, .. })),
            "a warm-up interval cannot confirm: {events:?}"
        );
    }

    #[test]
    fn glr_events_identical_between_inline_and_pipelined() {
        const SLOTS: u64 = 4;
        let mut inline = ShardedEngine::new(config(2).with_glr(glr_cfg())).unwrap();
        let mut piped = ShardedEngine::new(config(2).with_glr(glr_cfg()).with_pipeline()).unwrap();
        for t in 0..7u64 {
            for s in 0..SLOTS {
                let bursting = t >= 4 && (t, s) >= (4, 1);
                let items = glr_slot_items(t, s, bursting.then_some((42, 40_000.0)));
                inline.push_slice(&items).unwrap();
                piped.push_slice(&items).unwrap();
                inline.end_glr_slot();
                piped.end_glr_slot();
            }
            let a = inline.end_interval().unwrap();
            let b = piped.end_interval().unwrap();
            assert_eq!(a, b, "pipeline changed interval {t}'s report under GLR");
            assert_eq!(
                inline.take_glr_events(),
                piped.take_glr_events(),
                "pipeline changed interval {t}'s GLR events"
            );
        }
    }

    #[test]
    fn glr_engine_snapshot_resumes_bit_exactly_with_pending_provisionals() {
        const SLOTS: u64 = 4;
        let burst = |t: u64, s: u64| ((t, s) >= (4, 1)).then_some((777u64, 40_000.0));
        // Reference: uninterrupted run.
        let mut reference = ShardedEngine::new(config(2).with_glr(glr_cfg())).unwrap();
        let mut want = Vec::new();
        for t in 0..6u64 {
            for s in 0..SLOTS {
                reference.push_slice(&glr_slot_items(t, s, burst(t, s))).unwrap();
                reference.end_glr_slot();
            }
            want.push((reference.end_interval().unwrap(), reference.take_glr_events()));
        }
        // Interrupted run: both engines ingest identically until
        // mid-interval 4, just after the burst slot closed — a provisional
        // is pending, unconfirmed. Engine `b`'s GLR state is then
        // overwritten wholesale from `a`'s snapshot; the remainder must
        // replay bit-exactly, including the pending alarm's confirmation.
        let mut a = ShardedEngine::new(config(2).with_glr(glr_cfg())).unwrap();
        let mut b = ShardedEngine::new(config(2).with_glr(glr_cfg())).unwrap();
        let mut prefix_events = Vec::new();
        let mut resumed = false;
        for t in 0..6u64 {
            for s in 0..SLOTS {
                let items = glr_slot_items(t, s, burst(t, s));
                a.push_slice(&items).unwrap();
                a.end_glr_slot();
                b.push_slice(&items).unwrap();
                b.end_glr_slot();
                if (t, s) == (4, 1) {
                    let snap = a.glr_snapshot().expect("GLR enabled");
                    assert!(!snap.pending.is_empty(), "expected a pending provisional");
                    // Restore discards undrained events, but the snapshot's
                    // pending queue still carries the provisional awaiting
                    // confirmation at interval close — drain first.
                    prefix_events = b.take_glr_events();
                    b.restore_glr(snap).expect("restore");
                    resumed = true;
                }
            }
            let report = b.end_interval().unwrap();
            let mut events = b.take_glr_events();
            a.end_interval().unwrap();
            a.take_glr_events();
            let (ref_report, ref_events) = &want[t as usize];
            assert_eq!(&report, ref_report, "interval {t} report diverged after restore");
            if t == 4 {
                // The provisional event itself was drained just before the
                // restore; re-attach it so the comparison covers the whole
                // interval's event stream.
                let mut all = std::mem::take(&mut prefix_events);
                all.append(&mut events);
                events = all;
            }
            assert_eq!(&events, ref_events, "interval {t} GLR events diverged after restore");
        }
        assert!(resumed);
    }
}
