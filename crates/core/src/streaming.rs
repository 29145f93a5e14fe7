//! Near-real-time streaming front end — the paper's §6 "online change
//! detection" deployment shape.
//!
//! The offline pipeline consumes pre-binned intervals; a live deployment
//! consumes a **stream of flow records** and must bin, rotate, and detect
//! as time advances. [`spawn`] runs the detector on its own thread behind
//! a bounded `std::sync::mpsc::sync_channel`:
//!
//! ```text
//! capture thread ──records──► [channel] ──► detector thread ──reports──►
//! ```
//!
//! Interval rotation is driven by **event time** (record timestamps), not
//! wall clock, so behaviour is deterministic and replayable: when a record
//! arrives whose timestamp belongs to a later interval, every interval up
//! to it is flushed through the detector (empty intervals included — the
//! forecasting models must advance through silence). Records that arrive
//! *late* (timestamp before the current interval) are folded into the
//! current interval rather than dropped; the paper's two-pass replay is
//! equally approximate about stragglers.
//!
//! **Overload** is a policy, not an accident: [`OverloadPolicy`] decides
//! what happens when records outpace the detector — block the producer
//! (lossless backpressure), drop the newest record (bounded latency), or
//! admit a random fraction at weight `1/rate` so sketch totals stay
//! unbiased (the paper's §3.3 sampled-stream estimator). Whatever is shed
//! is counted and surfaced per interval in [`IntervalReport::drops`].
//!
//! **Everything behind the binner is the engine's.** This module is a
//! driver: it keeps what only a record stream needs — event-time binning,
//! late-record folding, the advance through empty intervals, the overload
//! front end and the stamping of [`DropStats`] onto reports — and feeds
//! each finished interval to a [`ShardedEngine`] built from
//! [`StreamingConfig::engine`]. Shards, the key strategy, telemetry,
//! checkpointing and restarts are that engine's configuration
//! ([`crate::supervisor::Supervision`], read from nowhere else); the
//! driver only tells it where the stream stands, so a checkpoint can carry
//! the position back. A supervised engine's lifecycle events come back on
//! [`StreamingHandle::events`] unless the supervision names its own
//! sender.
//!
//! The record channel lives *outside* the supervised region: producers
//! keep their sender across restarts, and nothing they sent is lost or
//! re-emitted — a restart rebuilds only the detector, at the interval it
//! had reached.
//!
//! Shutdown: drop the record sender (or call
//! [`StreamingHandle::shutdown`]). The detector flushes the final partial
//! interval, emits its report, and the thread ends. A detector panic the
//! supervision did not absorb is returned as a typed [`StreamFault`] —
//! shutting down is never itself a panic.

use crate::detector::{DropStats, IntervalReport};
use crate::engine::{EngineConfig, EngineError, ShardedEngine};
use crate::sampling::UpdateSampler;
use crate::supervisor::LifecycleEvent;
use scd_hash::SplitMix64;
use scd_traffic::{FlowRecord, KeySpec, ValueSpec};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Capacity of the report queue the driver fills as intervals close.
const REPORT_CAPACITY: usize = 64;

/// Capacity of the lifecycle event queue [`spawn`] hands back; events
/// beyond it are dropped, never waited on.
const EVENT_CAPACITY: usize = 256;

/// What the record sender does when the detector cannot keep up.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OverloadPolicy {
    /// Block the producer until the queue has room. Lossless; producer
    /// latency is unbounded.
    Block,
    /// Drop the record being sent when the queue is full, counting it in
    /// [`DropStats::dropped`]. Producer never blocks; sketch totals are
    /// biased low under sustained overload.
    DropNewest,
    /// Admit each record with probability `rate`, at weight `1/rate`, and
    /// shed the rest (counted in [`DropStats::shed`]). This is the paper's
    /// §3.3 sampled-stream estimator: totals stay unbiased while load
    /// drops by `1/rate`. Admitted records still block when the queue is
    /// full.
    Sample {
        /// Admission probability, in `(0, 1]`.
        rate: f64,
        /// Seed for the admission coin (deterministic experiments).
        seed: u64,
    },
}

/// Configuration for the streaming front end.
#[derive(Debug, Clone)]
pub struct StreamingConfig {
    /// The engine every finished interval is fed to: detector, shards,
    /// telemetry and — through its supervision — checkpointing.
    pub engine: EngineConfig,
    /// Interval length in milliseconds of event time.
    pub interval_ms: u64,
    /// Key projection from records.
    pub key: KeySpec,
    /// Value projection from records.
    pub value: ValueSpec,
    /// Record-channel capacity (backpressure bound); must be positive.
    pub channel_capacity: usize,
    /// Overload behaviour of [`RecordSender::send`].
    pub overload: OverloadPolicy,
}

/// A record admitted into the detector queue, with its sampling weight.
struct Msg {
    record: FlowRecord,
    weight: f64,
}

/// Shared overload counters, drained into [`DropStats`] at each interval
/// flush. Attribution is approximate by one queue depth: a record shed
/// while interval `t` is being accumulated is charged to the next report
/// flushed, which is the best a sender that never sees event time can do.
struct OverloadCounters {
    dropped: AtomicU64,
    sampled_in: AtomicU64,
    shed: AtomicU64,
    sampler: Mutex<SplitMix64>,
}

impl OverloadCounters {
    fn new(seed: u64) -> Self {
        OverloadCounters {
            dropped: AtomicU64::new(0),
            sampled_in: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            sampler: Mutex::new(SplitMix64::new(seed)),
        }
    }

    fn drain(&self) -> DropStats {
        DropStats {
            dropped: self.dropped.swap(0, Ordering::Relaxed),
            sampled_in: self.sampled_in.swap(0, Ordering::Relaxed),
            shed: self.shed.swap(0, Ordering::Relaxed),
        }
    }
}

/// The sending half of a streaming detector: applies the configured
/// [`OverloadPolicy`] to every record. Clone freely for multiple
/// producers.
pub struct RecordSender {
    tx: SyncSender<Msg>,
    policy: OverloadPolicy,
    counters: Arc<OverloadCounters>,
}

impl Clone for RecordSender {
    fn clone(&self) -> Self {
        RecordSender {
            tx: self.tx.clone(),
            policy: self.policy,
            counters: Arc::clone(&self.counters),
        }
    }
}

impl RecordSender {
    /// Offers one record under the overload policy. Returns `false` only
    /// if the detector thread has stopped; a record shed *by policy* is a
    /// successful send (it is counted, not an error).
    pub fn send(&self, record: FlowRecord) -> bool {
        match self.policy {
            OverloadPolicy::Block => self.tx.send(Msg { record, weight: 1.0 }).is_ok(),
            OverloadPolicy::DropNewest => match self.tx.try_send(Msg { record, weight: 1.0 }) {
                Ok(()) => true,
                Err(TrySendError::Full(_)) => {
                    self.counters.dropped.fetch_add(1, Ordering::Relaxed);
                    true
                }
                Err(TrySendError::Disconnected(_)) => false,
            },
            OverloadPolicy::Sample { rate, .. } => {
                // The same Bernoulli predicate as the record sampler and
                // the detector's Sampled key scan — see
                // `UpdateSampler::keep` for the strict-< semantics (the
                // inline comparison this replaces admitted with a 2⁻⁶⁴
                // bias and saturated rates within 2⁻⁵³ of 1).
                let admit = {
                    let mut rng = self.counters.sampler.lock().expect("sampler lock");
                    UpdateSampler::keep(rate, &mut rng)
                };
                if admit {
                    self.counters.sampled_in.fetch_add(1, Ordering::Relaxed);
                    self.tx.send(Msg { record, weight: 1.0 / rate }).is_ok()
                } else {
                    self.counters.shed.fetch_add(1, Ordering::Relaxed);
                    true
                }
            }
        }
    }
}

/// Why a detector thread stopped abnormally.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamFault {
    /// The detector thread panicked; the payload's message, if any.
    Panicked(String),
}

impl std::fmt::Display for StreamFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamFault::Panicked(msg) => write!(f, "detector thread panicked: {msg}"),
        }
    }
}

impl std::error::Error for StreamFault {}

/// Renders a panic payload (from `join` or `catch_unwind`) as text.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Handle to a running streaming detector.
pub struct StreamingHandle {
    /// Send flow records here; drop (or [`StreamingHandle::shutdown`]) to stop.
    records: RecordSender,
    /// Interval reports arrive here as event time advances.
    reports: Receiver<IntervalReport>,
    /// Lifecycle events of a supervised engine that named no sender of its
    /// own; otherwise nothing ever arrives here.
    events: Receiver<LifecycleEvent>,
    thread: JoinHandle<u64>,
}

impl StreamingHandle {
    /// Sends one record under the configured overload policy. Returns
    /// `false` once the detector thread has stopped (a supervised one that
    /// gave up included).
    pub fn send(&self, record: FlowRecord) -> bool {
        self.records.send(record)
    }

    /// A cloneable sender for feeding records from multiple threads.
    pub fn sender(&self) -> RecordSender {
        self.records.clone()
    }

    /// The report stream (it survives restarts).
    pub fn reports(&self) -> &Receiver<IntervalReport> {
        &self.reports
    }

    /// The lifecycle event stream: empty unless the engine is supervised
    /// and its [`Supervision::events`](crate::supervisor::Supervision::events)
    /// was left unset for [`spawn`] to fill in.
    pub fn events(&self) -> &Receiver<LifecycleEvent> {
        &self.events
    }

    /// Stops the detector, then drains and returns the remaining reports,
    /// the undrained lifecycle events and the total number of records
    /// processed. A detector panic surfaces as `Err(StreamFault::Panicked)`
    /// — this method itself never panics, and no panic a supervised
    /// detector absorbed can cause one.
    pub fn shutdown(self) -> Result<(Vec<IntervalReport>, Vec<LifecycleEvent>, u64), StreamFault> {
        drop(self.records);
        let remaining: Vec<IntervalReport> = self.reports.iter().collect();
        match self.thread.join() {
            Ok(processed) => Ok((remaining, self.events.try_iter().collect(), processed)),
            Err(payload) => Err(StreamFault::Panicked(panic_message(payload.as_ref()))),
        }
    }
}

/// The streaming binner's position in event time — everything the
/// driver loop owns besides the engine.
struct BinnerState {
    /// `(key, weighted value)` pairs of the interval being accumulated.
    current: Vec<(u64, f64)>,
    /// Event-time index of the interval being accumulated; fixed by the
    /// first record (or by the checkpoint resumed from).
    interval_idx: Option<u64>,
    /// Records processed so far.
    processed: u64,
}

impl BinnerState {
    /// Feeds the accumulated interval to the engine and closes it, telling
    /// the engine where the stream stands once it is done.
    fn flush(
        &mut self,
        engine: &mut ShardedEngine,
        next_interval: u64,
    ) -> Result<IntervalReport, EngineError> {
        engine.push_slice(&self.current)?;
        self.current.clear();
        engine.set_stream_position(Some(next_interval), self.processed);
        engine.end_interval()
    }
}

/// The driver loop proper: bin records by event time and flush finished
/// intervals through the engine. Returns when the input closes, the
/// report receiver goes away, or the engine fails.
fn run_loop(
    engine: &mut ShardedEngine,
    binner: &mut BinnerState,
    config: &StreamingConfig,
    counters: &OverloadCounters,
    records: &Receiver<Msg>,
    reports: &SyncSender<IntervalReport>,
) -> Result<(), EngineError> {
    let metrics = config.engine.metrics.as_deref();
    while let Ok(msg) = records.recv() {
        binner.processed += 1;
        if let Some(m) = metrics {
            m.stream.records_total.inc();
        }
        let t = msg.record.timestamp_ms / config.interval_ms;
        let idx = *binner.interval_idx.get_or_insert(t);
        if t > idx {
            // Flush the finished interval, then any empty ones the stream
            // skipped over (models advance through silence).
            let mut report = binner.flush(engine, idx + 1)?;
            report.drops = counters.drain();
            if let Some(m) = metrics {
                m.record_drops(&report.drops);
            }
            if reports.send(report).is_err() {
                return Ok(());
            }
            for skipped in (idx + 1)..t {
                if reports.send(binner.flush(engine, skipped + 1)?).is_err() {
                    return Ok(());
                }
            }
            binner.interval_idx = Some(t);
        }
        // Late records (t < idx) fold into the current interval.
        binner.current.push((
            config.key.key_of(&msg.record),
            config.value.value_of(&msg.record) * msg.weight,
        ));
    }
    // Senders dropped: flush the final partial interval. Counters are
    // drained unconditionally — even when every tail record was shed or
    // dropped (leaving nothing to process), the counts must surface in a
    // report so `processed + lost == sent` accounting holds.
    let drops = counters.drain();
    if let Some(m) = metrics {
        m.record_drops(&drops);
    }
    if !binner.current.is_empty() {
        let next = binner.interval_idx.map_or(0, |t| t + 1);
        let mut report = binner.flush(engine, next)?;
        report.drops = drops;
        binner.interval_idx = Some(next);
        let _ = reports.send(report);
    } else if drops != DropStats::default() {
        // No records to process, so the detector is not advanced; the
        // trailing counts ride out on a synthetic counters-only report.
        let report = IntervalReport {
            interval: engine.intervals_closed() as usize,
            drops,
            ..IntervalReport::default()
        };
        let _ = reports.send(report);
    }
    Ok(())
}

/// Spawns the detector thread: builds the engine from
/// [`StreamingConfig::engine`] and starts the driver, which ends when every
/// record sender is gone. A supervised engine — supervision is read from
/// the engine config and nowhere else — absorbs detector panics within its
/// restart budget; one that gives up ends the thread quietly (the lifecycle
/// events say why, and producers see their sends fail). Any other engine
/// failure is a panic that [`StreamingHandle::shutdown`] reports.
///
/// # Panics
/// Panics if `interval_ms == 0`, `channel_capacity == 0` (a zero-capacity
/// `sync_channel` would be a rendezvous, not a queue), or the sampling
/// rate is out of range, or on an invalid engine configuration.
pub fn spawn(mut config: StreamingConfig) -> StreamingHandle {
    assert!(config.interval_ms > 0, "interval must be positive");
    assert!(config.channel_capacity > 0, "channel capacity must be positive");
    let sampler_seed = match config.overload {
        OverloadPolicy::Sample { rate, seed } => {
            assert!(rate > 0.0 && rate <= 1.0, "sampling rate must be in (0, 1], got {rate}");
            seed
        }
        _ => 0,
    };
    let (tx, record_rx) = sync_channel(config.channel_capacity);
    let counters = Arc::new(OverloadCounters::new(sampler_seed));
    let records = RecordSender { tx, policy: config.overload, counters: Arc::clone(&counters) };
    let (report_tx, reports) = sync_channel(REPORT_CAPACITY);
    // A sender the caller set stays in effect; unused, ours hangs up and
    // `events()` stays empty.
    let (event_tx, events) = sync_channel(EVENT_CAPACITY);
    if let Some(supervision) = &mut config.engine.supervision {
        supervision.events.get_or_insert(event_tx);
    }
    let mut engine = ShardedEngine::new(config.engine.clone()).expect("valid engine config");
    // A resumed engine puts the binner back where the checkpoint left it:
    // the interval then in flight is the checkpoint gap and is gone;
    // position and counters carry over.
    let mut binner = BinnerState {
        current: Vec::new(),
        interval_idx: engine.resumed_interval(),
        processed: engine.records_total(),
    };
    let thread = std::thread::Builder::new()
        .name("scd-streaming-detector".into())
        .spawn(move || {
            match run_loop(&mut engine, &mut binner, &config, &counters, &record_rx, &report_tx) {
                Ok(()) | Err(EngineError::DetectorGaveUp { .. }) => binner.processed,
                Err(e) => panic!("{e}"),
            }
        })
        .expect("spawn detector thread");
    StreamingHandle { records, reports, events, thread }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::{DetectorConfig, KeyStrategy};
    use scd_forecast::ModelSpec;
    use scd_sketch::SketchConfig;

    fn config() -> StreamingConfig {
        StreamingConfig {
            engine: EngineConfig::new(
                DetectorConfig {
                    sketch: SketchConfig { h: 3, k: 1024, seed: 3 },
                    model: ModelSpec::Ewma { alpha: 0.5 },
                    threshold: 0.3,
                    key_strategy: KeyStrategy::TwoPass,
                },
                1,
            ),
            interval_ms: 1_000,
            key: KeySpec::DstIp,
            value: ValueSpec::Bytes,
            channel_capacity: 256,
            overload: OverloadPolicy::Block,
        }
    }

    fn record(ts: u64, dst: u32, bytes: u64) -> FlowRecord {
        FlowRecord {
            timestamp_ms: ts,
            src_ip: 1,
            dst_ip: dst,
            src_port: 1,
            dst_port: 80,
            protocol: 6,
            bytes,
            packets: 1,
        }
    }

    #[test]
    fn detects_spike_in_stream() {
        let handle = spawn(config());
        // Intervals 0..4: steady; interval 3 carries a spike on dst 99.
        for t in 0..5u64 {
            for i in 0..20 {
                handle.send(record(t * 1000 + i * 40, 7, 1_000));
                handle.send(record(t * 1000 + i * 40 + 1, 8, 500));
            }
            if t == 3 {
                for i in 0..10 {
                    handle.send(record(t * 1000 + 500 + i, 99, 50_000));
                }
            }
        }
        let (reports, _, processed) = handle.shutdown().expect("clean shutdown");
        assert_eq!(processed, 5 * 40 + 10);
        assert_eq!(reports.len(), 5, "one report per event-time interval");
        let spike_report = &reports[3];
        assert!(
            spike_report.alarms.iter().any(|a| a.key == 99),
            "spike not flagged: {:?}",
            spike_report.alarms
        );
        assert!(reports[2].alarms.iter().all(|a| a.key != 99), "no alarm before the spike");
    }

    #[test]
    fn empty_intervals_advance_the_model() {
        let handle = spawn(config());
        handle.send(record(100, 5, 1_000));
        handle.send(record(5_100, 5, 1_000)); // skips intervals 1..=4
        let (reports, ..) = handle.shutdown().expect("clean shutdown");
        // Interval 0 + three empty (1,2,3,4) + final partial (5) = 6.
        assert_eq!(reports.len(), 6);
        // The disappearance registers as a negative error in interval 1.
        let r1 = &reports[1];
        if r1.warmed_up {
            assert!(r1.errors.is_empty(), "empty interval scans no keys (two-pass)");
        }
    }

    #[test]
    fn late_records_fold_into_current_interval() {
        let handle = spawn(config());
        handle.send(record(2_500, 1, 10));
        handle.send(record(1_900, 1, 10)); // late by 600ms: accepted
        let (reports, _, processed) = handle.shutdown().expect("clean shutdown");
        assert_eq!(processed, 2);
        assert_eq!(reports.len(), 1);
    }

    #[test]
    fn shutdown_with_no_records_is_clean() {
        let handle = spawn(config());
        let (reports, _, processed) = handle.shutdown().expect("clean shutdown");
        assert!(reports.is_empty());
        assert_eq!(processed, 0);
    }

    #[test]
    fn report_interval_indices_are_sequential() {
        let handle = spawn(config());
        for t in 0..4u64 {
            handle.send(record(t * 1000 + 10, 2, 100));
        }
        let (reports, ..) = handle.shutdown().expect("clean shutdown");
        let idx: Vec<usize> = reports.iter().map(|r| r.interval).collect();
        assert_eq!(idx, vec![0, 1, 2, 3]);
    }

    #[test]
    fn block_policy_reports_zero_drops() {
        let handle = spawn(config());
        for t in 0..3u64 {
            for i in 0..50 {
                handle.send(record(t * 1000 + i, 7, 100));
            }
        }
        let (reports, ..) = handle.shutdown().expect("clean shutdown");
        assert!(reports.iter().all(|r| r.drops == DropStats::default()));
    }

    #[test]
    fn sample_policy_counts_and_reweights() {
        let mut cfg = config();
        cfg.overload = OverloadPolicy::Sample { rate: 0.5, seed: 42 };
        let handle = spawn(cfg);
        // One interval of 2000 identical records on one key, then a
        // boundary record to force the flush.
        for i in 0..2_000u64 {
            handle.send(record(i % 1000, 7, 100));
        }
        handle.send(record(1_500, 7, 100));
        let (reports, _, processed) = handle.shutdown().expect("clean shutdown");
        let admitted: u64 = reports.iter().map(|r| r.drops.sampled_in).sum();
        let shed: u64 = reports.iter().map(|r| r.drops.shed).sum();
        assert_eq!(admitted + shed, 2_001, "every record is either admitted or shed");
        assert!((700..=1_300).contains(&admitted), "rate 0.5 admitted {admitted} of 2001");
        // Only admitted records reached the detector.
        assert_eq!(processed, admitted);
        assert!(reports.iter().all(|r| r.drops.dropped == 0));
    }

    #[test]
    fn drop_newest_policy_never_blocks() {
        let mut cfg = config();
        cfg.channel_capacity = 4;
        cfg.overload = OverloadPolicy::DropNewest;
        let handle = spawn(cfg);
        // Flood far beyond capacity; with Block this could stall only if
        // the detector hung, with DropNewest it must always return.
        for i in 0..10_000u64 {
            assert!(handle.send(record(i % 500, 9, 10)));
        }
        handle.send(record(2_000, 9, 10)); // flush boundary
        let (reports, _, processed) = handle.shutdown().expect("clean shutdown");
        let total_dropped: u64 = reports.iter().map(|r| r.drops.dropped).sum();
        assert_eq!(processed + total_dropped, 10_001);
    }
}
