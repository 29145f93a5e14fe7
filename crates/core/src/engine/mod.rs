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
//! * Workers are long-lived `std::thread`s fed update batches over
//!   bounded `std::sync::mpsc::sync_channel`s — one work queue and one
//!   result queue per shard, so a slow shard back-pressures only its own
//!   feeder, and batching keeps the queue off the per-update hot path.
//!   Workers fold each batch with `KarySketch::update_batch` (hash the
//!   block row-major, then scatter one `K`-sized row at a time), mark the
//!   64-byte lines it wrote while the table is sparse, and return the
//!   spent `Vec` to a shared recycle pool, so steady-state ingest
//!   allocates nothing per batch. A worker's statistics ride with
//!   its interval sketch; its cleared sketch comes back with the next
//!   `Flush`. One shard has no worker: the pushing thread folds each
//!   batch itself, and the close trades the shard table for a cleared
//!   spare.
//! * Keys are partitioned by the SplitMix64 finalizer
//!   ([`scd_hash::mix64`]) — not `key % N`, which stripes sequential IP
//!   keys — followed by Lemire multiply-shift range reduction
//!   ([`scd_hash::range_reduce`]): no division anywhere on the per-update
//!   path ([`scd_hash::shard_of`]).
//! * The key log is the fold's combiner. Each routing producer keeps a
//!   direct-mapped cache of 4 096 `(key, partial sum)` slots: a hit adds
//!   to its slot, a miss logs the key and evicts the resident sum into
//!   its shard's batch as one update, and the close flushes every cache.
//!   Workers only ever see `(key, value)` pairs, so the merge point is
//!   the *only* synchronization per interval. The misses, in stream
//!   order, hold every key's first occurrence, so they deduplicate to the
//!   interval's distinct keys in first-seen order — what every key
//!   strategy scans, since the detector deduplicates before querying.
//!   The cache is taken only while every value of the interval is an
//!   integer and their Σ|v| stays below 2⁵³, where every cell is an exact
//!   integer sum in any grouping; the first slice that breaks that
//!   flushes the caches, and the rest of the interval folds per record
//!   in stream order. Either way every cell keeps its bits.
//! * When an [`ArchiveConfig`] is supplied, every interval's forecast
//!   error sketch `Se(t)` — handed back by
//!   [`SketchChangeDetector::process_observed_archiving`](crate::SketchChangeDetector::process_observed_archiving) — is pushed
//!   into a [`SketchArchive`] keyed by detector interval, with the
//!   report's top error keys as the epoch's directory entries. Warm-up
//!   intervals (no error sketch yet) are back-filled with zero sketches
//!   so archive interval indices always equal detector intervals.
//!
//! The module is split along its seams: `route` decides which shard an
//! update goes to and what the key log keeps; `workers` is the ingest
//! half ([`ShardedIngest`]: shard workers, recycle pool, the close
//! barrier; one shard folds on the pushing thread); `table` is the shard
//! tables, which know the lines they wrote, and the one shard merge, which
//! walks only those lines while it can; `stage` is the detect
//! side ([`DetectStage`]: detector and supervision, and the one publish
//! step: observer, then archive); `slots` is the GLR layer; and this file
//! is the public [`ShardedEngine`], which joins an ingest half to a stage
//! — inline, or across a detect thread and a publish lane.

mod route;
mod slots;
mod stage;
mod table;
#[cfg(test)]
mod tests;
mod workers;

pub use slots::GlrEngineSnapshot;
pub use stage::{notable_keys, DetectStage, IntervalObserver, MEMORY_BASE_EVERY};
pub use workers::ShardedIngest;

use crate::checkpoint::Checkpoint;
use crate::detector::{DetectorConfig, DetectorSnapshot, IntervalReport};
use crate::glr::{GlrConfig, GlrEvent, GlrRestoreError};
use crate::supervisor::Supervision;
use crate::telemetry::PipelineMetrics;
use scd_archive::{ArchiveConfig, ArchiveError, SketchArchive};
use scd_sketch::KarySketch;
use slots::GlrRuntime;
use stage::{Publisher, Turnover};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use table::{merge_shards, ShardTable};

/// Configuration for a [`ShardedEngine`].
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Shard count `N ≥ 1`, one worker thread each. `1` degenerates to
    /// the single-threaded pipeline: no worker, the pushing thread folds.
    pub shards: usize,
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
    /// uses to publish read-optimized snapshots — on the caller's thread,
    /// or on the publish lane when pipelined. Observing never changes a
    /// report.
    pub observer: Option<Arc<dyn IntervalObserver>>,
    /// When set, a [`GlrDetector`](crate::glr::GlrDetector) rides the ingest path: every pushed
    /// update also feeds the sequential statistic, and
    /// [`ShardedEngine::end_glr_slot`] closes base slots mid-interval.
    /// Provisional alarms surface through
    /// [`ShardedEngine::take_glr_events`] only — `IntervalReport`s are
    /// bit-identical with this layer on or off.
    pub glr: Option<GlrConfig>,
    /// When set, the detect stage runs supervised: detector panics are
    /// absorbed (restart base, silent replay, retry) within the restart
    /// budget, the stage checkpoints on the policy's cadence and resumes
    /// from an existing checkpoint at start-up. Supervision never changes
    /// a report.
    pub supervision: Option<Supervision>,
}

impl EngineConfig {
    /// A config with no archive and sequential (non-pipelined) detection.
    pub fn new(detector: DetectorConfig, shards: usize) -> Self {
        EngineConfig {
            shards,
            detector,
            archive: None,
            pipeline: false,
            metrics: None,
            observer: None,
            glr: None,
            supervision: None,
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

    /// Runs the detect stage under supervision.
    pub fn with_supervision(mut self, supervision: Supervision) -> Self {
        self.supervision = Some(supervision);
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
    /// The pipelined detect thread or publish lane died (panicked — a
    /// detector outside supervision, or an observer); in-flight intervals
    /// and their reports are lost.
    DetectorLost,
    /// A supervised detector exhausted its restart budget.
    DetectorGaveUp {
        /// Panics absorbed before giving up.
        attempts: u32,
    },
    /// The archive rejected a push or was misconfigured.
    Archive(ArchiveError),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::BadConfig(why) => write!(f, "invalid engine config: {why}"),
            EngineError::WorkerLost { shard } => write!(f, "shard {shard} worker died"),
            EngineError::DetectorLost => {
                write!(f, "pipelined detect thread or publish lane died")
            }
            EngineError::DetectorGaveUp { attempts } => {
                write!(f, "detector gave up after absorbing {attempts} panics")
            }
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

/// Messages for the pipelined detect thread. Processed strictly in send
/// order, which is what makes mid-pipeline snapshots well-defined: a
/// `Snapshot` request reflects every interval handed off before it, even
/// ones still being processed when the request was sent.
enum DetectMsg {
    /// A closed interval: the per-shard tables (in shard order), the
    /// interval's key log, and what a supervised stage carries into a
    /// checkpoint written after it.
    Interval { tables: Vec<ShardTable>, keys: Vec<u64>, carry: Carry },
    /// Checkpoint request: reply with the detector's snapshot.
    Snapshot(SyncSender<DetectorSnapshot>),
    /// Hand the archive back (end of run) — passed on to the publish lane,
    /// which holds it. Subsequent intervals are no longer archived.
    TakeArchive(SyncSender<Option<SketchArchive<KarySketch>>>),
}

/// What rides along with a closed interval for a supervised stage: the
/// driver's stream position once the interval is done and, under GLR with
/// a checkpoint path, the GLR runtime's state at the close.
struct Carry {
    next_interval: Option<u64>,
    processed: u64,
    glr: Option<Box<GlrEngineSnapshot>>,
}

impl Carry {
    fn hand_to(self, stage: &mut DetectStage) {
        stage.set_position(self.next_interval, self.processed);
        if let Some(glr) = self.glr {
            stage.carry_glr(*glr);
        }
    }
}

/// Where detection runs: inline on the caller's thread (sequential, the
/// default) or on a detect thread and a publish lane overlapped with
/// ingest.
enum DetectBackend {
    /// Boxed: the stage carries the detector's recycled workspaces inline,
    /// dwarfing the `Pipelined` variant otherwise. The merge destination
    /// and the key log are the ingest half's (`end_interval_merged`).
    Inline(Box<DetectStage>),
    Pipelined(Pipeline),
}

/// What the detect thread hands the publish lane, in interval order.
enum PublishMsg {
    /// One interval's turnover (report and `Se(t)`), or the error that
    /// took its place.
    Interval(Result<Turnover, EngineError>),
    /// Hand the archive back (end of run), after every interval before it.
    TakeArchive(SyncSender<Option<SketchArchive<KarySketch>>>),
}

/// The pipelined backend: ingest ‖ merge + detect ‖ publish, one thread
/// each after the shard workers, joined by bounded queues.
struct Pipeline {
    /// `Option` so `Drop` can hang up before joining.
    detect_tx: Option<SyncSender<DetectMsg>>,
    /// Reports, in interval order, once the lane has published them.
    report_rx: Receiver<Result<IntervalReport, EngineError>>,
    /// Merged (so cleared) shard tables coming back, in their container,
    /// for the workers' next `Flush`.
    table_return: Receiver<Vec<ShardTable>>,
    /// Scanned key logs coming back, for the ingest half's next interval.
    key_return: Receiver<Vec<u64>>,
    /// Intervals handed off whose reports have not been received.
    in_flight: usize,
    /// The detect thread, then the publish lane: joined in that order.
    threads: Vec<JoinHandle<()>>,
}

impl Pipeline {
    /// Starts the detect thread on `stage` and the publish lane on its
    /// publisher.
    fn spawn(mut stage: DetectStage, metrics: Option<Arc<PipelineMetrics>>) -> Pipeline {
        let publisher = std::mem::take(&mut stage.publisher);
        let want_error = publisher.wants_error();
        // Depth-1 interval queue: ingest can run at most one interval
        // ahead of detection (the double buffer), and a full queue
        // back-pressures the handoff instead of growing memory. The lane's
        // queue does the same one stage on.
        let (detect_tx, detect_rx) = sync_channel(1);
        let (publish_tx, publish_rx) = sync_channel(1);
        // Reports outstanding never exceed intervals in flight (at most
        // two: the one shipped and the one before it), so the lane never
        // blocks here during shutdown.
        let (report_tx, report_rx) = sync_channel(4);
        let (table_tx, table_return) = sync_channel(2);
        let (key_tx, key_return) = sync_channel(2);
        let (spare_tx, spare_rx) = sync_channel(2);
        let returns = Returns { tables: table_tx, keys: key_tx };
        let detect = std::thread::Builder::new()
            .name("scd-detect".into())
            .spawn(move || {
                detect_loop(stage, want_error, detect_rx, publish_tx, spare_rx, returns, metrics)
            })
            .expect("spawn detect thread");
        let publish = std::thread::Builder::new()
            .name("scd-publish".into())
            .spawn(move || publish_loop(publisher, publish_rx, report_tx, spare_tx))
            .expect("spawn publish lane");
        Pipeline {
            detect_tx: Some(detect_tx),
            report_rx,
            table_return,
            key_return,
            in_flight: 0,
            threads: vec![detect, publish],
        }
    }

    fn send(&self, msg: DetectMsg) -> Result<(), EngineError> {
        let tx = self.detect_tx.as_ref().expect("sender live until drop");
        tx.send(msg).map_err(|_| EngineError::DetectorLost)
    }

    /// The handoff: flush the shards — handing back the cleared tables and
    /// key log the detect thread has returned — and ship the interval's
    /// tables and key log to the detect thread, which merges them. Returns
    /// at once, so ingest of the next interval overlaps detection of this
    /// one.
    fn ship(&mut self, ingest: &mut ShardedIngest, carry: Carry) -> Result<(), EngineError> {
        let mut tables = self.table_return.try_recv().unwrap_or_default();
        let mut keys = self.key_return.try_recv().unwrap_or_default();
        ingest.close(&mut tables, &mut keys)?;
        self.send(DetectMsg::Interval { tables, keys, carry })?;
        self.in_flight += 1;
        Ok(())
    }

    /// Receives the oldest outstanding report (blocking) — published: the
    /// observer has seen its interval and the archive holds it.
    fn recv(&mut self) -> Result<IntervalReport, EngineError> {
        let report = self.report_rx.recv().map_err(|_| EngineError::DetectorLost)?;
        self.in_flight -= 1;
        report
    }

    /// Hangs up — dropping the sender ends the detect thread's receive
    /// loop, which drops the lane's sender in turn — and joins both. The
    /// report queue can absorb every in-flight interval, so neither blocks
    /// on the way out.
    fn shutdown(&mut self) {
        self.detect_tx.take();
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

/// What the detect thread hands back to the ingest side for reuse.
struct Returns {
    /// The cleared shard tables, as soon as they are merged.
    tables: SyncSender<Vec<ShardTable>>,
    /// The key log, once scanned.
    keys: SyncSender<Vec<u64>>,
}

/// The pipelined detect thread: owns the stage, merges shard tables into
/// a recycled destination, hands the cleared tables back for the workers'
/// next interval, runs the turnover (handing the key log back after it),
/// and moves the report and `Se(t)` to the publish lane, taking back the
/// tables the lane returns for its next error sketch. It never waits for
/// the lane except on its bounded queue.
fn detect_loop(
    mut stage: DetectStage,
    want_error: bool,
    detect_rx: Receiver<DetectMsg>,
    publish_tx: SyncSender<PublishMsg>,
    spares: Receiver<KarySketch>,
    returns: Returns,
    metrics: Option<Arc<PipelineMetrics>>,
) {
    let mut merged = ShardTable::new(Arc::clone(stage.rows()));
    while let Ok(msg) = detect_rx.recv() {
        let forward = match msg {
            DetectMsg::Interval { mut tables, keys, carry } => {
                merge_shards(&mut merged, &mut tables, metrics.as_deref());
                let _ = returns.tables.try_send(tables);
                carry.hand_to(&mut stage);
                stage.recycle(spares.try_iter().last());
                let turnover = stage.detect(merged.sketch(), &keys, want_error);
                let _ = returns.keys.try_send(keys);
                PublishMsg::Interval(turnover)
            }
            DetectMsg::Snapshot(reply) => {
                let _ = reply.send(stage.detector().snapshot());
                continue;
            }
            DetectMsg::TakeArchive(reply) => PublishMsg::TakeArchive(reply),
        };
        if publish_tx.send(forward).is_err() {
            break; // lane gone
        }
    }
}

/// The publish lane: runs [`Publisher::publish`] on each turnover in
/// interval order — observer, then archive — beside detection of the next
/// interval, returns the spare table to the detector, and passes the
/// report (moved, never copied) on to the engine.
fn publish_loop(
    mut publisher: Publisher,
    publish_rx: Receiver<PublishMsg>,
    report_tx: SyncSender<Result<IntervalReport, EngineError>>,
    spare_tx: SyncSender<KarySketch>,
) {
    while let Ok(msg) = publish_rx.recv() {
        let result = match msg {
            PublishMsg::Interval(turnover) => turnover.and_then(|(report, error)| {
                let spare = publisher.publish(&report, error)?;
                if let Some(table) = spare {
                    let _ = spare_tx.try_send(table);
                }
                Ok(report)
            }),
            PublishMsg::TakeArchive(reply) => {
                let _ = reply.send(publisher.archive.take());
                continue;
            }
        };
        if report_tx.send(result).is_err() {
            break; // engine gone
        }
    }
}

/// The sharded parallel ingest engine: feed updates with
/// [`push_slice`](Self::push_slice), close each interval with
/// [`end_interval`](Self::end_interval) (or, in pipeline mode,
/// [`end_interval_overlapped`](Self::end_interval_overlapped) +
/// [`drain`](Self::drain)), read reports identical to the
/// single-threaded detector's.
pub struct ShardedEngine {
    ingest: ShardedIngest,
    detect: DetectBackend,
    /// Telemetry sink; `None` keeps every metric branch off the hot path.
    metrics: Option<Arc<PipelineMetrics>>,
    /// Interval-close observer, flushed by [`drain`](Self::drain).
    observer: Option<Arc<dyn IntervalObserver>>,
    /// Sub-interval GLR sequential detection, fed on the ingest thread.
    glr: Option<GlrRuntime>,
    /// Whether each close carries the GLR runtime's state to the stage
    /// (GLR under supervision with a checkpoint path). A pipelined engine
    /// that does waits for each interval's own report: no overlap.
    carries_glr: bool,
    /// Intervals closed so far, resumed ones included.
    closed: u64,
    /// Where the checkpoint this engine started from says the driver's
    /// stream stood: the event-time index of the interval in flight.
    resumed_interval: Option<u64>,
    /// The driver's stream position for the next close, when it set one.
    position: Option<(Option<u64>, u64)>,
}

impl std::fmt::Debug for ShardedEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut d = f.debug_struct("ShardedEngine");
        d.field("shards", &self.shards()).field("records_total", &self.records_total());
        match &self.detect {
            DetectBackend::Inline(stage) => {
                d.field("intervals_processed", &stage.emitted());
            }
            DetectBackend::Pipelined(pipe) => {
                d.field("pipeline", &true).field("in_flight", &pipe.in_flight);
            }
        }
        d.finish()
    }
}

impl ShardedEngine {
    /// Spawns the worker pool (none for one shard). Workers live for the
    /// engine's lifetime — interval boundaries reuse them; nothing is
    /// spawned per interval.
    /// Under [`Supervision`] with a checkpoint path, an existing usable
    /// checkpoint is resumed from: the detector, the GLR layer,
    /// [`records_total`](Self::records_total) and the driver's
    /// [`resumed_interval`](Self::resumed_interval) all continue from it.
    ///
    /// # Errors
    /// [`EngineError::BadConfig`] for zero shards, or an archive config
    /// that cannot sustain compaction.
    pub fn new(config: EngineConfig) -> Result<Self, EngineError> {
        let (stage, resumed) = DetectStage::from_config(&config)?;
        let mut ingest =
            ShardedIngest::build(Arc::clone(stage.rows()), config.shards, config.metrics.clone())?;
        let mut glr = config.glr.clone().map(GlrRuntime::new);
        let closed = stage.emitted();
        if let Some(Checkpoint { glr: Some((_, snapshot)), .. }) = &resumed {
            // The stage only resumes from a checkpoint written under this
            // engine's own GLR configuration.
            let runtime = glr.as_mut().expect("checkpoint GLR section matches the config");
            runtime
                .restore(snapshot.clone())
                .map_err(|e| EngineError::BadConfig(format!("checkpoint GLR section: {e}")))?;
        }
        let mut resumed_interval = None;
        if let Some(ck) = resumed {
            (resumed_interval, ingest.records_total) = (ck.next_interval, ck.processed);
        }
        let carries_glr = glr.is_some()
            && config.supervision.as_ref().is_some_and(|sup| sup.checkpoint.is_some());
        let detect = if config.pipeline {
            DetectBackend::Pipelined(Pipeline::spawn(stage, config.metrics.clone()))
        } else {
            DetectBackend::Inline(Box::new(stage))
        };
        Ok(ShardedEngine {
            ingest,
            detect,
            metrics: config.metrics,
            observer: config.observer,
            glr,
            carries_glr,
            closed,
            resumed_interval,
            position: None,
        })
    }

    /// Worker count.
    pub fn shards(&self) -> usize {
        self.ingest.shards
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
        match &self.detect {
            DetectBackend::Inline(stage) => Ok(stage.detector().snapshot()),
            DetectBackend::Pipelined(pipe) => {
                let (reply_tx, reply_rx) = sync_channel(1);
                pipe.send(DetectMsg::Snapshot(reply_tx))?;
                reply_rx.recv().map_err(|_| EngineError::DetectorLost)
            }
        }
    }

    /// Takes ownership of the archive (e.g. to persist it via
    /// `scd_archive::wire::write_atomic` after a run). Subsequent
    /// intervals are no longer archived. In pipeline mode this waits for
    /// the lane to publish every interval already handed off (call
    /// [`drain`](Self::drain) first to collect their reports).
    pub fn take_archive(&mut self) -> Option<SketchArchive<KarySketch>> {
        match &mut self.detect {
            DetectBackend::Inline(stage) => stage.publisher.archive.take(),
            DetectBackend::Pipelined(pipe) => {
                let (reply_tx, reply_rx) = sync_channel(1);
                pipe.detect_tx.as_ref()?.send(DetectMsg::TakeArchive(reply_tx)).ok()?;
                reply_rx.recv().ok().flatten()
            }
        }
    }

    /// Total updates pushed over the engine's lifetime — and, for an
    /// engine resumed from a checkpoint, over the lifetimes before it.
    pub fn records_total(&self) -> u64 {
        self.ingest.records_total()
    }

    /// Intervals closed so far, resumed ones included: the interval index
    /// the next close's report will carry (one less under `NextInterval`).
    pub fn intervals_closed(&self) -> u64 {
        self.closed
    }

    /// The event-time index of the interval the driver was accumulating
    /// when the checkpoint this engine resumed from was written (its record
    /// count is [`records_total`](Self::records_total)); `None` for a fresh
    /// start.
    pub fn resumed_interval(&self) -> Option<u64> {
        self.resumed_interval
    }

    /// Tells the engine where the driver's stream will stand once the
    /// next closed interval is done; a checkpoint written after that
    /// interval records it. A driver that does not track event time need
    /// not call this: the default is the closed-interval count and
    /// [`records_total`](Self::records_total).
    pub fn set_stream_position(&mut self, next_interval: Option<u64>, processed: u64) {
        self.position = Some((next_interval, processed));
    }

    /// Routes a slice of updates to their shards, in order (see
    /// [`ShardedIngest::push_slice`]); the GLR layer, when enabled,
    /// observes them too.
    ///
    /// # Errors
    /// [`EngineError::WorkerLost`] if a shard's worker has died.
    pub fn push_slice(&mut self, items: &[(u64, f64)]) -> Result<(), EngineError> {
        if let Some(glr) = &mut self.glr {
            glr.det.observe_slice(items);
        }
        self.ingest.push_slice(items)
    }

    /// Multi-producer bulk push (see
    /// [`ShardedIngest::push_slice_parallel`]). The GLR layer always
    /// observes in stream order, regardless of how the routing hop is
    /// parallelized.
    ///
    /// # Errors
    /// [`EngineError::WorkerLost`] if a shard's worker has died.
    pub fn push_slice_parallel(
        &mut self,
        items: &[(u64, f64)],
        producers: usize,
    ) -> Result<(), EngineError> {
        if let Some(glr) = &mut self.glr {
            glr.det.observe_slice(items);
        }
        self.ingest.push_slice_parallel(items, producers)
    }

    /// Interval-boundary bookkeeping shared by both backends: closes the
    /// GLR layer's interval and says what a supervised stage carries into
    /// a checkpoint written after this one.
    fn note_interval_close(&mut self) -> Carry {
        if let Some(glr) = &mut self.glr {
            glr.note_interval_close(self.metrics.as_deref());
        }
        self.closed += 1;
        let (next_interval, processed) =
            self.position.take().unwrap_or((Some(self.closed), self.records_total()));
        let glr = self.glr.as_ref().filter(|_| self.carries_glr).map(|g| Box::new(g.snapshot()));
        Carry { next_interval, processed, glr }
    }

    /// Closes the interval on its backend. Inline, the ingest half merges
    /// the shard tables and the stage detects on this thread — steady
    /// state allocates nothing on the turnover path — and the report comes
    /// back. Pipelined, the interval is shipped to the detect thread and
    /// `None` comes back.
    fn close(&mut self) -> Result<Option<IntervalReport>, EngineError> {
        let carry = self.note_interval_close();
        match &mut self.detect {
            DetectBackend::Inline(stage) => {
                let (observed, keys) = self.ingest.end_interval_merged()?;
                carry.hand_to(stage);
                let report = stage.observe(observed, keys)?;
                if let Some(glr) = &mut self.glr {
                    glr.on_report(&report, self.metrics.as_deref());
                }
                Ok(Some(report))
            }
            DetectBackend::Pipelined(pipe) => {
                pipe.ship(&mut self.ingest, carry)?;
                Ok(None)
            }
        }
    }

    /// Receives reports from the detect thread (blocking) until at most
    /// `keep` intervals are in flight, resolving GLR provisionals against
    /// each, and returns the last one (`None` if none was received —
    /// always in sequential mode).
    fn receive_until(&mut self, keep: usize) -> Result<Option<IntervalReport>, EngineError> {
        let mut last = None;
        if let DetectBackend::Pipelined(pipe) = &mut self.detect {
            while pipe.in_flight > keep {
                let report = pipe.recv()?;
                if let Some(glr) = &mut self.glr {
                    glr.on_report(&report, self.metrics.as_deref());
                }
                last = Some(report);
            }
        }
        Ok(last)
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
            glr.close_slot(self.metrics.as_deref());
        }
    }

    /// Drains the GLR event log accumulated since the last call:
    /// provisional alarms in slot order, interleaved with the
    /// confirmations and retractions resolved by delivered interval
    /// reports. Empty without a GLR layer.
    pub fn take_glr_events(&mut self) -> Vec<GlrEvent> {
        self.glr.as_mut().map(GlrRuntime::take_events).unwrap_or_default()
    }

    /// Snapshots the GLR layer — detector state plus the unresolved
    /// provisional queue and interval bookkeeping — for
    /// checkpoint/restore. Undrained events are *not* part of the
    /// snapshot. `None` without a GLR layer.
    pub fn glr_snapshot(&self) -> Option<GlrEngineSnapshot> {
        self.glr.as_ref().map(GlrRuntime::snapshot)
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
        glr.restore(snap)
    }

    /// Closes the interval: flushes every shard, merges the per-shard
    /// sketches in shard order, and runs the detection pipeline on the
    /// merged observed sketch — then publishes it: the observer sees it,
    /// and the archive takes the resulting error sketch when configured.
    ///
    /// In pipeline mode this waits for the interval's own report, which
    /// comes back once the publish lane is done with it (no overlap); use
    /// [`end_interval_overlapped`](Self::end_interval_overlapped) to keep
    /// ingest and detection concurrent. When mixing the two styles, call
    /// [`drain`](Self::drain) before this method — a report still pending
    /// from an earlier overlapped close is otherwise discarded here.
    ///
    /// # Errors
    /// [`EngineError::WorkerLost`] if any worker died mid-interval;
    /// [`EngineError::DetectorLost`] if the detect thread died;
    /// [`EngineError::DetectorGaveUp`] if a supervised detector spent its
    /// restart budget;
    /// [`EngineError::Archive`] if the archive rejects the error sketch.
    pub fn end_interval(&mut self) -> Result<IntervalReport, EngineError> {
        match self.close()? {
            Some(report) => Ok(report),
            None => Ok(self.drain()?.expect("interval just shipped yields a report")),
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
        // The GLR state a close carries into a checkpoint must have seen
        // every earlier report, so such an engine never runs ahead.
        if self.carries_glr {
            return self.end_interval().map(Some);
        }
        match self.close()? {
            Some(report) => Ok(Some(report)),
            // Keep exactly one interval in flight: ship t, then wait for
            // t − 1 (already overlapped with t's ingest).
            None => self.receive_until(1),
        }
    }

    /// Waits for the last in-flight interval to be published and returns
    /// its report (`None` when nothing is outstanding — always in
    /// sequential mode), then flushes the observer.
    ///
    /// # Errors
    /// [`EngineError::DetectorLost`] if the detect thread or the publish
    /// lane died, plus any
    /// detection/archive error from the drained interval.
    pub fn drain(&mut self) -> Result<Option<IntervalReport>, EngineError> {
        let last = self.receive_until(0)?;
        if let Some(observer) = &self.observer {
            observer.flush();
        }
        Ok(last)
    }

    /// Convenience: push a whole interval's updates and close it — the
    /// sharded drop-in for `SketchChangeDetector::process_interval`.
    ///
    /// # Errors
    /// As [`push_slice`](Self::push_slice) and
    /// [`end_interval`](Self::end_interval).
    pub fn process_interval(
        &mut self,
        items: &[(u64, f64)],
    ) -> Result<IntervalReport, EngineError> {
        self.push_slice(items)?;
        self.end_interval()
    }
}

impl Drop for ShardedEngine {
    fn drop(&mut self) {
        // The workers first, then the detect thread: dropping its sender
        // ends its receive loop. Its report queue can absorb every
        // in-flight interval, so it never blocks on the way out.
        self.ingest.shutdown();
        if let DetectBackend::Pipelined(pipe) = &mut self.detect {
            pipe.shutdown();
        }
    }
}
