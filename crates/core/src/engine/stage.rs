//! The detect stage: the one consumer of the paper's one hand-off.
//!
//! The sketch module gives the forecasting and detection modules `So(t)`
//! plus the interval's key stream (§2.2, §3.3). COMBINE is linear, so the
//! sketch may have been folded by one thread, N shards or N routers; the
//! detection side cannot tell and must not care. [`DetectStage`] is that
//! detection side: it owns the detector, the optional archive, observer
//! and metrics, and — when [`Supervision`] is configured — the one
//! restart contract every runtime shares:
//!
//! * a panic in the detector turnover is caught, booked against the
//!   restart budget, slept off (jittered backoff), and answered by
//!   rebuilding the detector at the **restart base** and *silently*
//!   replaying the `(So, keys)` pairs retained since it — no archive push,
//!   observer call, metric or report for a replayed interval — before the
//!   failed interval is retried. The report stream has no gap, no rewind
//!   and no duplicate;
//! * the restart base is an in-memory [`DetectorSnapshot`], renewed on the
//!   checkpoint policy's cadence — when it is also written out as the
//!   file a new process resumes from (consulted at start-up) — or, with
//!   no checkpoint path, every [`MEMORY_BASE_EVERY`] intervals: retention
//!   is bounded by the cadence in every configuration;
//! * every degradation — an unusable or foreign checkpoint, a failed
//!   write — is a [`LifecycleEvent::Degraded`] and a count, never silence.

use super::slots::GlrEngineSnapshot;
use super::{EngineConfig, EngineError};
use crate::checkpoint::Checkpoint;
use crate::detector::{report_order, DetectorSnapshot, IntervalReport, SketchChangeDetector};
use crate::glr::GlrConfig;
use crate::streaming::panic_message;
use crate::supervisor::{LifecycleEvent, Supervision};
use crate::telemetry::{PipelineMetrics, SupervisorMetrics};
use scd_archive::{ArchiveError, SketchArchive};
use scd_hash::HashRows;
use scd_obs::{Counter, Stopwatch};
use scd_sketch::KarySketch;
use std::borrow::Borrow;
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// How many of a report's top error keys are offered to the archive's
/// per-epoch directory (the archive truncates further to its own
/// `keys_per_epoch`).
const NOTABLE_KEYS_OFFERED: usize = 256;

/// Cadence, in intervals, of the in-memory restart base a supervised
/// stage keeps when no checkpoint path is configured: the most intervals
/// it ever retains for replay.
pub const MEMORY_BASE_EVERY: u64 = 8;

/// The notable-key directory entries the engine offers an archive for one
/// interval: the report's top error keys in rank order (what
/// [`IntervalReport::rank_errors`] would put first), capped at the
/// engine-internal offer limit (256), with errors folded to magnitude.
/// `errors` is in scan order, so this selects: one pass keeps the best 256
/// seen so far in a bounded heap, and only those are sorted — no full sort
/// and no copy of the list.
/// Exposed so out-of-engine archive replicas (e.g. a serving plane fed by
/// an [`IntervalObserver`]) file exactly the entries the engine would.
pub fn notable_keys(report: &IntervalReport) -> Vec<(u64, f64)> {
    // A max-heap on the rank key keeps the worst kept entry on top, where
    // a better one replaces it.
    let mut best = BinaryHeap::with_capacity(NOTABLE_KEYS_OFFERED.min(report.errors.len()));
    for entry in &report.errors {
        let rank = report_order(entry);
        if best.len() < NOTABLE_KEYS_OFFERED {
            best.push(rank);
        } else if let Some(mut worst) = best.peek_mut().filter(|worst| rank < **worst) {
            *worst = rank;
        }
    }
    // The rank key holds the bits of |error|: the magnitude comes back out.
    best.into_sorted_vec().into_iter().map(|(bits, key)| (key, f64::from_bits(bits.0))).collect()
}

/// Observer of interval boundaries on a [`DetectStage`].
///
/// Called once per closed interval, in interval order, *after* the
/// detector produced the report and *before* the stage's own archive
/// consumes the error sketch. It runs where the stage publishes: on the
/// caller's thread inline (and for a stage driven directly, like the
/// fan-in aggregator's), on the publish lane when the engine is
/// pipelined — beside detection of the next interval, not on the detect
/// thread. A slow observer stalls the publish step; pipelined, that is
/// the lane, which back-pressures detection only once it falls an
/// interval behind.
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
    /// snapshot rebuild) override it; [`ShardedEngine::drain`](super::ShardedEngine::drain)
    /// calls it after the last in-flight interval so callers that drain
    /// see a view as fresh as the reports they received.
    fn flush(&self) {}
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

/// One turnover's product: the report and, when asked for, the error
/// sketch it was computed from.
pub(super) type Turnover = (IntervalReport, Option<(usize, KarySketch)>);

/// What runs after detection, on the report and `Se(t)`: the observer,
/// then the archive. Inline it runs on the caller's thread right after
/// the turnover; a pipelined engine moves it to its publish lane.
#[derive(Default)]
pub(super) struct Publisher {
    /// The error-sketch archive, if configured (and not yet taken).
    pub(super) archive: Option<SketchArchive<KarySketch>>,
    observer: Option<Arc<dyn IntervalObserver>>,
    metrics: Option<Arc<PipelineMetrics>>,
}

impl Publisher {
    /// Whether the turnover must hand `Se(t)` over: the archive, the
    /// observer or both read it.
    pub(super) fn wants_error(&self) -> bool {
        self.archive.is_some() || self.observer.is_some()
    }

    /// The one publish step: the observer sees the interval, then the
    /// archive takes `Se(t)` (timed, footprint gauges refreshed). Returns
    /// the table the detector writes its next error sketch into: the one
    /// the archive's last compaction retired (an archive at its budget
    /// merges two epochs into one per push), or `Se(t)` itself when only
    /// the observer read it — so no path allocates a table per interval.
    ///
    /// # Errors
    /// [`EngineError::Archive`] if the archive rejects the error sketch.
    pub(super) fn publish(
        &mut self,
        report: &IntervalReport,
        error: Option<(usize, KarySketch)>,
    ) -> Result<Option<KarySketch>, EngineError> {
        // Observer first: it borrows the error sketch the archive is about
        // to consume.
        if let Some(observer) = &self.observer {
            observer.interval_closed(report, error.as_ref().map(|&(t, ref e)| (t, e)));
        }
        let Some(archive) = &mut self.archive else {
            return Ok(error.map(|(_, e)| e));
        };
        let sw = Stopwatch::start();
        archive_error(archive, report, error)?;
        if let Some(m) = &self.metrics {
            m.engine.archive_ns.record(sw.elapsed_ns());
            m.engine.archive_sketches.set(archive.sketch_count() as f64);
            m.engine.archive_bytes.set(archive.memory_bytes() as f64);
            m.engine.archive_merges.set(archive.merges_total() as f64);
        }
        Ok(archive.take_retired())
    }
}

/// The one place a detector panic is caught: the primary attempt and the
/// silent replay both run through it.
fn guarded<R>(work: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(work)).map_err(|payload| panic_message(payload.as_ref()))
}

/// What a supervised stage keeps besides the detector.
struct Supervisor {
    policy: Supervision,
    /// The GLR configuration checkpoints are written under.
    glr: Option<GlrConfig>,
    metrics: Option<Arc<PipelineMetrics>>,
    /// The restart base: the detector as of the last checkpoint (written,
    /// attempted or resumed from) or in-memory base; `None` before the first.
    base: Option<DetectorSnapshot>,
    /// `(So, keys)` of every interval observed since the restart base.
    retained: Vec<(KarySketch, Vec<u64>)>,
    restarts: u32,
    /// The driver's stream position once the interval being observed is
    /// done, when the driver tracks one.
    position: Option<(Option<u64>, u64)>,
    /// The GLR runtime's state at the close of the interval being observed.
    glr_carry: Option<GlrEngineSnapshot>,
}

impl Supervisor {
    fn emit(&self, event: LifecycleEvent) {
        // Best-effort: losing an event beats stalling the detector.
        if let Some(events) = &self.policy.events {
            let _ = events.try_send(event);
        }
    }

    fn count(&self, which: impl FnOnce(&SupervisorMetrics) -> &Counter, n: u64) {
        if let Some(m) = &self.metrics {
            which(&m.supervisor).add(n);
        }
    }

    fn degraded(&self, reason: String) {
        self.count(|m| &m.degraded_total, 1);
        self.emit(LifecycleEvent::Degraded { reason });
    }

    /// Whether more panics have been booked than the budget absorbs.
    fn spent(&self) -> bool {
        self.restarts > self.policy.restart.max_restarts
    }

    /// Detector interval count at the restart base.
    fn base_at(&self) -> u64 {
        self.base.as_ref().map_or(0, |base| base.intervals_processed)
    }
}

/// Loads the checkpoint `config` points at, if it points at one and the
/// file exists. `Ok(None)` — nothing to resume from; `Err` — a checkpoint
/// exists but is unusable (corrupt, or for a different config).
fn load_checkpoint(
    config: &EngineConfig,
) -> Result<Option<(SketchChangeDetector, Checkpoint)>, String> {
    let policy = config.supervision.as_ref().and_then(|sup| sup.checkpoint.as_ref());
    let Some(policy) = policy.filter(|policy| policy.path.exists()) else { return Ok(None) };
    let ck = Checkpoint::load(&policy.path).map_err(|e| format!("checkpoint unusable: {e}"))?;
    if ck.config != config.detector || ck.glr.as_ref().map(|(glr, _)| glr) != config.glr.as_ref() {
        return Err("checkpoint is for a different detector config".into());
    }
    let detector = ck.restore_detector().map_err(|e| format!("checkpoint restore failed: {e}"))?;
    Ok(Some((detector, ck)))
}

/// The detect stage: owns the detector and everything that hangs off an
/// interval close. Feed it each interval's merged observed sketch and key
/// log with [`observe`](Self::observe); it answers with the interval's
/// report. A [`ShardedEngine`](super::ShardedEngine) runs one inline or on
/// its detect thread; an aggregator that COMBINEs remote sketches drives
/// one directly.
pub struct DetectStage {
    detector: SketchChangeDetector,
    /// Observer and archive; moved to the publish lane when pipelined.
    pub(super) publisher: Publisher,
    metrics: Option<Arc<PipelineMetrics>>,
    supervisor: Option<Supervisor>,
}

impl DetectStage {
    /// Builds the stage an engine with this configuration runs. Under
    /// supervision with a checkpoint path, an existing usable checkpoint
    /// is resumed from — and handed back, so the driver can restore its
    /// own stream position from it; an unusable one degrades to a fresh
    /// start.
    ///
    /// # Errors
    /// [`EngineError::Archive`] for an archive config that cannot sustain
    /// compaction.
    ///
    /// # Panics
    /// On an invalid [`DetectorConfig`](crate::DetectorConfig), like
    /// [`SketchChangeDetector::new`].
    pub fn from_config(
        config: &EngineConfig,
    ) -> Result<(DetectStage, Option<Checkpoint>), EngineError> {
        let archive = match &config.archive {
            Some(cfg) => Some(SketchArchive::new(*cfg)?),
            None => None,
        };
        let mut supervisor = config.supervision.clone().map(|policy| Supervisor {
            policy,
            glr: config.glr.clone(),
            metrics: config.metrics.clone(),
            base: None,
            retained: Vec::new(),
            restarts: 0,
            position: None,
            glr_carry: None,
        });
        let mut resumed = None;
        if let Some(sup) = &mut supervisor {
            // Consulted *before* the first interval, so a restarted process
            // continues where the previous one left off instead of starting
            // over (and clobbering the old checkpoint at its first write).
            match load_checkpoint(config) {
                Ok(found) => resumed = found,
                Err(reason) => sup.degraded(format!("{reason}; starting fresh")),
            }
            sup.base = resumed.as_ref().map(|(_, ck)| ck.snapshot.clone());
            sup.count(|m| &m.started_total, 1);
            sup.emit(LifecycleEvent::Started);
        }
        let (detector, resumed) = resumed.unzip();
        let mut detector =
            detector.unwrap_or_else(|| SketchChangeDetector::new(config.detector.clone()));
        // The metric sink is not detector state and is never checkpointed,
        // so every build — fresh or restored — attaches the same sink.
        if let Some(m) = &config.metrics {
            detector.set_metrics(Arc::clone(&m.detector));
        }
        let publisher = Publisher {
            archive,
            observer: config.observer.clone(),
            metrics: config.metrics.clone(),
        };
        let stage =
            DetectStage { detector, publisher, metrics: config.metrics.clone(), supervisor };
        Ok((stage, resumed))
    }

    /// Intervals observed so far, resumed ones included (the interval
    /// index the next [`observe`](Self::observe) will carry).
    pub fn emitted(&self) -> u64 {
        self.detector.intervals_processed() as u64
    }

    /// Panics absorbed so far.
    pub fn restarts(&self) -> u32 {
        self.supervisor.as_ref().map_or(0, |sup| sup.restarts)
    }

    /// Intervals currently retained for replay (always zero without
    /// supervision; never more than the base cadence with it).
    pub fn retained(&self) -> usize {
        self.supervisor.as_ref().map_or(0, |sup| sup.retained.len())
    }

    /// The hash family the observed sketches must be built over.
    pub fn rows(&self) -> &Arc<HashRows> {
        self.detector.rows()
    }

    /// The detector this stage drives.
    pub fn detector(&self) -> &SketchChangeDetector {
        &self.detector
    }

    /// Tells a supervised stage where the driver's stream will stand once
    /// the next observed interval is done: the event-time index of the
    /// interval it will be accumulating and its running record count. The
    /// pair is what a checkpoint written after that interval carries, and
    /// `processed` is the position the fault hook is consulted at. A
    /// driver that never calls this gets the interval count for both.
    pub fn set_position(&mut self, next_interval: Option<u64>, processed: u64) {
        if let Some(sup) = &mut self.supervisor {
            sup.position = Some((next_interval, processed));
        }
    }

    /// Hands over the GLR runtime's state at the close of the interval
    /// about to be observed, for the checkpoint that may follow it.
    pub(super) fn carry_glr(&mut self, snapshot: GlrEngineSnapshot) {
        if let Some(sup) = &mut self.supervisor {
            sup.glr_carry = Some(snapshot);
        }
    }

    /// Runs one interval through the detector, then publishes it — the
    /// observer, then the archive — in order on this thread. The detect and
    /// archive stages get separate timings; archive footprint gauges
    /// refresh after every push. Under supervision a detector panic is
    /// absorbed — restart base, silent replay, retry — up to the restart
    /// budget. `keys` is the interval's key stream, as
    /// [`SketchChangeDetector::process_observed`] takes it.
    ///
    /// # Errors
    /// [`EngineError::Archive`] if the archive rejects the error sketch;
    /// [`EngineError::DetectorGaveUp`] once the restart budget is spent.
    pub fn observe(
        &mut self,
        observed: impl Borrow<KarySketch>,
        keys: &[u64],
    ) -> Result<IntervalReport, EngineError> {
        let want_error = self.publisher.wants_error();
        let (report, error) = self.detect(observed.borrow(), keys, want_error)?;
        let spare = self.publisher.publish(&report, error)?;
        self.recycle(spare);
        Ok(report)
    }

    /// The detect half of [`observe`](Self::observe): the turnover (timed,
    /// supervised when configured) and the restart-base cadence, handing
    /// back the report and — when `want_error` — `Se(t)` for
    /// [`Publisher::publish`].
    pub(super) fn detect(
        &mut self,
        observed: &KarySketch,
        keys: &[u64],
        want_error: bool,
    ) -> Result<Turnover, EngineError> {
        // A detector that gave up stays down: the interval it failed on is
        // a hole no later interval may be reported across.
        if let Some(sup) = self.supervisor.as_ref().filter(|sup| sup.spent()) {
            return Err(EngineError::DetectorGaveUp { attempts: sup.restarts - 1 });
        }
        if let Some(m) = &self.metrics {
            m.engine.intervals_total.inc();
        }
        let sw = Stopwatch::start();
        let turnover = if self.supervisor.is_some() {
            self.supervised_turnover(observed, keys, want_error)?
        } else {
            self.detector.turnover(observed, keys, want_error)
        };
        if let Some(m) = &self.metrics {
            m.engine.detect_ns.record(sw.elapsed_ns());
        }
        self.rebase_if_due(&turnover.0);
        Ok(turnover)
    }

    /// Offers the detector a table for its next error sketch (what
    /// [`Publisher::publish`] handed back).
    pub(super) fn recycle(&mut self, spare: Option<KarySketch>) {
        if let Some(table) = spare {
            self.detector.recycle_error_buffer(table);
        }
    }

    /// The turnover under supervision: only the fault hook and the
    /// detector run inside the guard, and the interval is retained for
    /// replay once it has gone through.
    fn supervised_turnover(
        &mut self,
        observed: &KarySketch,
        keys: &[u64],
        want_error: bool,
    ) -> Result<Turnover, EngineError> {
        loop {
            let at = self.fault_position();
            let fault = self.supervisor.as_ref().and_then(|sup| sup.policy.fault.as_ref());
            let detector = &mut self.detector;
            let attempt = guarded(|| {
                if let Some(fault) = fault {
                    fault.before_record(at);
                }
                detector.turnover(observed, keys, want_error)
            });
            match attempt {
                Ok(done) => {
                    let sup = self.supervisor.as_mut().expect("supervised turnover");
                    sup.retained.push((observed.clone(), keys.to_vec()));
                    return Ok(done);
                }
                Err(panic) => self.restart(panic)?,
            }
        }
    }

    /// The stream position the fault hook is consulted at.
    fn fault_position(&self) -> u64 {
        let position = self.supervisor.as_ref().and_then(|sup| sup.position);
        position.map_or(self.emitted(), |(_, processed)| processed)
    }

    /// Books one panic against the budget, sleeps the jittered backoff,
    /// and rebuilds the detector to the pre-panic position. A panic during
    /// the replay burns another restart and tries again (deterministic
    /// poison eventually exhausts the budget).
    fn restart(&mut self, mut panic: String) -> Result<(), EngineError> {
        let at = self.fault_position();
        let sup = self.supervisor.as_mut().expect("supervised turnover");
        loop {
            sup.restarts += 1;
            if sup.spent() {
                let attempts = sup.restarts - 1;
                sup.count(|m| &m.gave_up_total, 1);
                sup.emit(LifecycleEvent::GaveUp { attempts });
                return Err(EngineError::DetectorGaveUp { attempts });
            }
            let config = self.detector.config().clone();
            let backoff = sup.policy.restart.backoff_jittered(sup.restarts, config.sketch.seed);
            sup.count(|m| &m.backoff_ms_total, backoff.as_millis() as u64);
            std::thread::sleep(backoff);
            // The half-mutated detector of the panicked run is discarded.
            let mut detector = match &sup.base {
                Some(base) => SketchChangeDetector::restore(config, base.clone())
                    .expect("a snapshot this configuration's detector took restores under it"),
                None => SketchChangeDetector::new(config),
            };
            sup.count(|m| &m.restarts_total, 1);
            sup.emit(LifecycleEvent::Restarted {
                attempt: sup.restarts,
                resumed_intervals: sup.base_at(),
                panic,
            });
            let (fault, retained) = (sup.policy.fault.as_ref(), &sup.retained);
            let replay = guarded(|| {
                for (sketch, keys) in retained {
                    if let Some(fault) = fault {
                        fault.before_record(at);
                    }
                    let _ = detector.turnover(sketch, keys, false);
                }
                detector
            });
            match replay {
                Ok(mut detector) => {
                    // Attached only now: a replayed interval counts nothing.
                    if let Some(m) = &sup.metrics {
                        detector.set_metrics(Arc::clone(&m.detector));
                    }
                    self.detector = detector;
                    return Ok(());
                }
                Err(next) => panic = next,
            }
        }
    }

    /// The one cadence rule: once `every` intervals have gone through
    /// since the restart base, make a new one — and, when a path is
    /// configured, write it out as the checkpoint a new process resumes
    /// from — and let the retained intervals go.
    fn rebase_if_due(&mut self, report: &IntervalReport) {
        let Some(sup) = &mut self.supervisor else { return };
        let glr = sup.glr_carry.take();
        let done = self.detector.intervals_processed() as u64;
        let every = sup.policy.checkpoint.as_ref().map_or(MEMORY_BASE_EVERY, |p| p.every.max(1));
        if done - sup.base_at() < every {
            return;
        }
        let mut snapshot = self.detector.snapshot();
        if let Some(policy) = &sup.policy.checkpoint {
            let (next_interval, processed) = sup.position.unwrap_or((Some(done), done));
            let glr = glr.map(|mut carried| {
                carried.resolve(report);
                carried
            });
            let checkpoint = Checkpoint {
                config: self.detector.config().clone(),
                snapshot,
                next_interval,
                processed,
                staggered: None,
                glr: sup.glr.clone().zip(glr),
            };
            match checkpoint.write_atomic(&policy.path) {
                Ok(()) => {
                    sup.count(|m| &m.checkpoints_total, 1);
                    sup.emit(LifecycleEvent::CheckpointWritten { intervals: done });
                }
                // Losing durability is strictly better than losing
                // detection: say so and carry on.
                Err(e) => sup.degraded(format!("checkpoint write failed: {e}")),
            }
            snapshot = checkpoint.snapshot;
        }
        sup.base = Some(snapshot);
        sup.retained.clear();
    }
}
