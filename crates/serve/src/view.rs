//! The snapshot-handoff machinery: an [`IntervalObserver`] that turns
//! every interval close into an immutable, atomically-swapped
//! [`ServingView`] readers can query without ever blocking the writer.
//!
//! # Handoff semantics
//!
//! The engine invokes [`ServingPlane::interval_closed`] once per closed
//! interval, in order, where it publishes — the caller's thread inline,
//! the publish lane of a pipelined engine — *before* the engine's own
//! archive consumes the error sketch. Per closed interval the plane:
//!
//! 1. projects the error sketch fat → slim ([`SlimSketch::from_fat`]) on
//!    that calling thread: the one table-sized step, and the last read of
//!    the fat table, which the plane never copies or keeps;
//! 2. advances its **replica archive** — a `SketchArchive<`[`SlimEpoch`]`>`
//!    fed the exact push sequence of the engine's archive (zero back-fill
//!    for warm-up and NextInterval-lag gaps, then the interval's sketch
//!    with the same [`notable_keys`] directory entries), except that each
//!    epoch is stored as an `f32` **slim projection**: half the resident
//!    bytes per epoch, so the same budget holds twice the history, and
//!    every historical query (`range_sketch` / `key_history` /
//!    `changed_keys`) answers from `f32` with the composed
//!    [`SlimSketch::error_bound`] envelope — still bit-identical to the
//!    fat archive for integer-count streams. The same allocation serves
//!    live point queries *and* sits in the archive as the newest epoch
//!    ([`SharedSketch::from_arc`]);
//! 3. publishes a new [`ServingView`] by swapping one `Arc` pointer.
//!
//! # Inline vs background rebuild
//!
//! With [`RebuildMode::Inline`] all three steps run inside the observer
//! hook — deterministic, and fine when the interval budget dwarfs the
//! rebuild cost. With [`RebuildMode::Background`] the hook projects and
//! enqueues an `Arc<SlimSketch>`; a dedicated `scd-serve-rebuild` thread
//! performs the back-fill, archive push and publish. The queue is bounded
//! (capacity [`REBUILD_QUEUE`]), so a slow rebuild back-pressures the
//! observer rather than growing without bound, and published views lag
//! ingest by at most that many intervals — [`ServingPlane::flush`] (also
//! called by `ShardedEngine::drain`) blocks until the view has caught up.
//! Jobs apply FIFO through the same code path as inline mode, so final
//! state is **bit-identical** across modes. A rebuild thread that dies
//! (a sketch over a foreign hash family reaches the replica's push) books
//! its panic message; every later hand-off and flush panics with it
//! instead of waiting.
//!
//! Because the replica's element type is copy-on-write
//! ([`SharedSketch`]), publishing a view clones the archive as an `Arc`
//! bump per epoch; register tables are deep-copied only when a later
//! buddy merge mutates an epoch a published view still references.
//! Readers clone the current `Arc<ServingView>` (one brief read lock,
//! never held across a query) and then work entirely on immutable data.

use crate::metrics::ServeMetrics;
use crate::shared::SharedSketch;
use crate::slim::{SlimEpoch, SlimSketch};
use scd_archive::{ArchiveConfig, ArchiveError, SketchArchive};
use scd_core::streaming::panic_message;
use scd_core::{notable_keys, IntervalObserver, IntervalReport};
use scd_obs::Stopwatch;
use scd_sketch::KarySketch;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, SyncSender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};
use std::thread::JoinHandle;

/// Background-rebuild queue depth, in intervals. A full queue blocks the
/// observer (bounded lag, never unbounded memory); published views trail
/// ingest by at most this many intervals plus the one in flight.
pub const REBUILD_QUEUE: usize = 2;

/// One interval's immutable serving state: everything a query needs,
/// frozen at an interval boundary. Cheap to clone (Arc bumps all the way
/// down).
#[derive(Debug, Clone)]
pub struct ServingView {
    /// Index of the last closed interval this view reflects; `None`
    /// before the first interval closes.
    pub interval: Option<u64>,
    /// The last interval's detection report (alarms, F2 energy,
    /// threshold). `None` before the first interval closes.
    pub report: Option<IntervalReport>,
    /// Read-optimized projection of the latest error sketch — the live
    /// point-estimate path. `None` until the model warms up (no error
    /// sketch exists yet). The newest archive epoch shares this exact
    /// allocation.
    pub slim: Option<Arc<SlimSketch>>,
    /// Snapshot of the error-sketch history replica — the historical
    /// query path (`range_sketch`, `key_history`, `changed_keys`),
    /// served entirely from `f32` slim epochs.
    pub archive: SketchArchive<SlimEpoch>,
}

impl ServingView {
    /// Heap bytes the view holds: the replica archive's, plus the live
    /// slim sketch's unless it is the archive's newest epoch — the same
    /// allocation, which the archive already counts.
    pub fn memory_bytes(&self) -> usize {
        let newest = self.archive.epochs().last().and_then(|epoch| epoch.sketch());
        let slim_bytes = match (&self.slim, newest) {
            (Some(slim), Some(newest)) if std::ptr::eq::<SlimSketch>(&**slim, newest.get()) => 0,
            (Some(slim), _) => slim.memory_bytes(),
            (None, _) => 0,
        };
        self.archive.memory_bytes() + slim_bytes
    }
}

/// When the fat→slim rebuild runs relative to the ingest path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebuildMode {
    /// Rebuild inside the observer hook, on the observer's thread (the
    /// publish lane of a pipelined engine). Every published view is
    /// current the moment `interval_closed` returns.
    Inline,
    /// Project on the observer's thread and hand the slim sketch to a
    /// dedicated rebuild thread for the archive push and publish. Views
    /// lag by at most [`REBUILD_QUEUE`] + 1 intervals;
    /// [`ServingPlane::flush`] waits for them. Final state is
    /// bit-identical to [`Inline`](Self::Inline).
    Background,
}

/// Writer-side state: the replica archive advanced under a mutex held
/// only by whichever thread applies interval closes (the observer's
/// thread inline, the rebuild thread in background mode).
#[derive(Debug)]
struct Replica {
    archive: SketchArchive<SlimEpoch>,
    /// The slim sketch of the newest real epoch, carried forward across
    /// report-only intervals so live estimates keep serving through gaps.
    last_slim: Option<Arc<SlimSketch>>,
}

/// State shared between the plane handle and the rebuild thread.
#[derive(Debug)]
struct PlaneShared {
    replica: Mutex<Replica>,
    current: RwLock<Arc<ServingView>>,
    metrics: Option<Arc<ServeMetrics>>,
}

/// One interval close, projected: the report and `Se(t)`'s slim form —
/// what [`PlaneShared::apply`] publishes, and what the rebuild queue holds.
#[derive(Debug)]
struct Job {
    report: IntervalReport,
    slim: Option<(usize, Arc<SlimSketch>)>,
    /// Nanoseconds the projection took, booked into the snapshot time.
    project_ns: u64,
}

impl Job {
    /// Projects `Se(t)` fat → slim on the calling thread: the one
    /// table-sized step of a close, and the last read of the fat table.
    fn project(report: &IntervalReport, error: Option<(usize, &KarySketch)>) -> Job {
        let sw = Stopwatch::start();
        let slim = error.map(|(t, err)| (t, Arc::new(SlimSketch::from_fat(err))));
        Job { report: report.clone(), slim, project_ns: sw.elapsed_ns() }
    }
}

/// Submit/complete accounting for [`ServingPlane::flush`].
#[derive(Debug, Default)]
struct Progress {
    submitted: u64,
    processed: u64,
    /// The panic that ended the rebuild thread, if one did: every later
    /// hand-off and flush raises it instead of waiting.
    failed: Option<String>,
}

impl Progress {
    /// Panics with the rebuild thread's own message once it has died.
    /// The guard is released first, so the lock is not poisoned.
    fn check(progress: MutexGuard<'_, Progress>) -> MutexGuard<'_, Progress> {
        match progress.failed.clone() {
            None => progress,
            Some(why) => {
                drop(progress);
                panic!("serving plane rebuild thread died: {why}");
            }
        }
    }
}

/// Rebuild-thread plumbing shared with the observer side.
#[derive(Debug)]
struct RebuildShared {
    progress: Mutex<Progress>,
    done: Condvar,
}

impl RebuildShared {
    fn progress(&self) -> MutexGuard<'_, Progress> {
        Progress::check(self.progress.lock().expect("rebuild progress lock poisoned"))
    }
}

#[derive(Debug)]
struct Background {
    tx: Option<SyncSender<Job>>,
    shared: Arc<RebuildShared>,
    join: Option<JoinHandle<()>>,
}

/// The serving plane: owns the replica archive, implements
/// [`IntervalObserver`], and publishes [`ServingView`] snapshots. See the
/// [module docs](self).
#[derive(Debug)]
pub struct ServingPlane {
    shared: Arc<PlaneShared>,
    background: Option<Background>,
}

impl PlaneShared {
    /// Applies one projected interval close to the replica and publishes
    /// the new view — the single code path both rebuild modes funnel
    /// through, so their final state is bit-identical by construction.
    fn apply(&self, job: Job) {
        let sw = Stopwatch::start();
        let mut replica = self.replica.lock().expect("serving replica lock poisoned");
        let mut slim = replica.last_slim.clone();
        if let Some((t, fresh)) = job.slim {
            // Mirror the engine's `archive_error` push sequence exactly:
            // zero back-fill up to t, then the interval's sketch with the
            // same notable-key directory entries — but store each epoch
            // as its slim f32 projection.
            let zero = SharedSketch::new(SlimSketch::zeroed(fresh.rows()));
            while replica.archive.next_interval() < t as u64 {
                replica
                    .archive
                    .push(zero.clone(), &[])
                    .expect("replica push cannot fail after back-fill");
            }
            let notable = notable_keys(&job.report);
            replica
                .archive
                .push(SharedSketch::from_arc(Arc::clone(&fresh)), &notable)
                .expect("replica push cannot fail after back-fill");
            // The table the push retired (the demoted epoch's, once it
            // packed) feeds no producer here: free it now, not a push later.
            drop(replica.archive.take_retired());
            slim = Some(fresh);
        }
        replica.last_slim = slim.clone();
        let interval = job.report.interval;
        let view = ServingView {
            interval: Some(interval as u64),
            report: Some(job.report),
            slim,
            archive: replica.archive.clone(),
        };
        if let Some(m) = &self.metrics {
            m.snapshots_total.inc();
            m.view_interval.set(interval as f64);
            m.view_epochs.set(view.archive.sketch_count() as f64);
            m.view_bytes.set(view.memory_bytes() as f64);
            m.snapshot_ns.record(job.project_ns + sw.elapsed_ns());
        }
        drop(replica);
        let view = Arc::new(view);
        *self.current.write().expect("serving view lock poisoned") = view;
    }
}

impl ServingPlane {
    /// Creates an inline-rebuild plane whose replica archive uses
    /// `config` — pass the same [`ArchiveConfig`] as the engine's
    /// archive, or served historical answers will diverge from offline
    /// queries.
    ///
    /// # Errors
    /// [`ArchiveError::BadConfig`] for an invalid archive shape.
    pub fn new(config: ArchiveConfig) -> Result<Arc<ServingPlane>, ArchiveError> {
        Self::with_options(config, None, RebuildMode::Inline)
    }

    /// Like [`new`](Self::new), with serving telemetry attached.
    ///
    /// # Errors
    /// [`ArchiveError::BadConfig`] for an invalid archive shape.
    pub fn with_metrics(
        config: ArchiveConfig,
        metrics: Option<Arc<ServeMetrics>>,
    ) -> Result<Arc<ServingPlane>, ArchiveError> {
        Self::with_options(config, metrics, RebuildMode::Inline)
    }

    /// Full-control constructor: archive shape, telemetry, and
    /// [`RebuildMode`]. [`RebuildMode::Background`] spawns the
    /// `scd-serve-rebuild` thread, which lives until the plane drops.
    ///
    /// # Errors
    /// [`ArchiveError::BadConfig`] for an invalid archive shape.
    pub fn with_options(
        config: ArchiveConfig,
        metrics: Option<Arc<ServeMetrics>>,
        mode: RebuildMode,
    ) -> Result<Arc<ServingPlane>, ArchiveError> {
        let archive = SketchArchive::new(config)?;
        let empty =
            ServingView { interval: None, report: None, slim: None, archive: archive.clone() };
        let shared = Arc::new(PlaneShared {
            replica: Mutex::new(Replica { archive, last_slim: None }),
            current: RwLock::new(Arc::new(empty)),
            metrics,
        });
        let background = match mode {
            RebuildMode::Inline => None,
            RebuildMode::Background => Some(Self::spawn_rebuild(&shared)),
        };
        Ok(Arc::new(ServingPlane { shared, background }))
    }

    fn spawn_rebuild(shared: &Arc<PlaneShared>) -> Background {
        let (tx, rx) = mpsc::sync_channel::<Job>(REBUILD_QUEUE);
        let rebuild = Arc::new(RebuildShared {
            progress: Mutex::new(Progress::default()),
            done: Condvar::new(),
        });
        let plane = Arc::clone(shared);
        let rb = Arc::clone(&rebuild);
        let join = std::thread::Builder::new()
            .name("scd-serve-rebuild".into())
            .spawn(move || {
                while let Ok(job) = rx.recv() {
                    // A panic here (a foreign hash family, say) ends the
                    // thread, and is booked first: a flush or a hand-off
                    // after it raises the message instead of waiting.
                    let applied = catch_unwind(AssertUnwindSafe(|| plane.apply(job)));
                    let mut progress = rb.progress.lock().expect("rebuild progress lock poisoned");
                    match applied {
                        Ok(()) => progress.processed += 1,
                        Err(payload) => progress.failed = Some(panic_message(payload.as_ref())),
                    }
                    if let Some(m) = &plane.metrics {
                        m.rebuild_lag.set((progress.submitted - progress.processed) as f64);
                    }
                    rb.done.notify_all();
                    if progress.failed.is_some() {
                        return;
                    }
                }
            })
            .expect("spawn scd-serve-rebuild thread");
        Background { tx: Some(tx), shared: rebuild, join: Some(join) }
    }

    /// The current view: one read lock to clone the `Arc`, then the
    /// caller works lock-free on immutable data. In background mode the
    /// view may trail ingest by up to [`REBUILD_QUEUE`] + 1 intervals;
    /// [`flush`](Self::flush) waits out the lag.
    pub fn view(&self) -> Arc<ServingView> {
        Arc::clone(&self.shared.current.read().expect("serving view lock poisoned"))
    }

    /// How the fat→slim rebuild runs for this plane.
    pub fn rebuild_mode(&self) -> RebuildMode {
        if self.background.is_some() {
            RebuildMode::Background
        } else {
            RebuildMode::Inline
        }
    }
}

impl Drop for ServingPlane {
    fn drop(&mut self) {
        if let Some(bg) = &mut self.background {
            // Closing the channel ends the rebuild loop after it drains
            // every queued interval; join so no view publish races the
            // process teardown.
            drop(bg.tx.take());
            if let Some(join) = bg.join.take() {
                let _ = join.join();
            }
        }
    }
}

impl IntervalObserver for ServingPlane {
    fn interval_closed(&self, report: &IntervalReport, error: Option<(usize, &KarySketch)>) {
        // The projection is the last read of the fat `Se(t)`: it runs here,
        // on the caller's thread, in both modes.
        let job = Job::project(report, error);
        let Some(bg) = &self.background else {
            self.shared.apply(job);
            return;
        };
        // Background handoff: enqueue the slim projection. The bounded send
        // back-pressures when the rebuild falls REBUILD_QUEUE intervals
        // behind.
        {
            let mut progress = bg.shared.progress();
            progress.submitted += 1;
            if let Some(m) = &self.shared.metrics {
                m.rebuild_lag.set((progress.submitted - progress.processed) as f64);
            }
        }
        let tx = bg.tx.as_ref().expect("rebuild channel open while plane is live");
        if tx.send(job).is_err() {
            // The thread died and booked why: raise that here.
            drop(bg.shared.progress());
            panic!("serving plane rebuild thread is gone");
        }
    }

    /// Blocks until every submitted interval is reflected in the
    /// published view (no-op inline). After `flush`, [`view`](Self::view)
    /// is exactly as fresh as an inline plane's would be.
    ///
    /// # Panics
    /// With the rebuild thread's own message, if it died.
    fn flush(&self) {
        let Some(bg) = &self.background else { return };
        let mut progress = bg.shared.progress();
        while progress.processed < progress.submitted {
            let woke = bg.shared.done.wait(progress).expect("rebuild progress lock poisoned");
            progress = Progress::check(woke);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scd_sketch::SketchConfig;

    fn archive_cfg() -> ArchiveConfig {
        ArchiveConfig { max_sketches: 8, full_resolution: 4, keys_per_epoch: 16 }
    }

    fn error_sketch(seed_shift: u64) -> KarySketch {
        let mut s = KarySketch::new(SketchConfig { h: 3, k: 256, seed: 11 });
        for key in 0..40u64 {
            s.update(key, (key + 1 + seed_shift) as f64);
        }
        s
    }

    fn report_at(interval: usize) -> IntervalReport {
        IntervalReport {
            interval,
            warmed_up: true,
            errors: vec![(3, 9.0), (1, -4.0)],
            ..IntervalReport::default()
        }
    }

    /// Widened f32 epoch registers for exactness comparisons against the
    /// fat `f64` source (integer streams round-trip losslessly).
    fn widened(epoch: &SlimSketch) -> Vec<f64> {
        epoch.table().iter().map(|&c| f64::from(c)).collect()
    }

    /// Before any interval closes, the view is explicitly empty.
    #[test]
    fn initial_view_is_empty() {
        let plane = ServingPlane::new(archive_cfg()).unwrap();
        let view = plane.view();
        assert!(view.interval.is_none());
        assert!(view.report.is_none());
        assert!(view.slim.is_none());
        assert!(view.archive.coverage().is_none());
        assert_eq!(plane.rebuild_mode(), RebuildMode::Inline);
    }

    /// Warm-up intervals (no error sketch) publish the report but leave
    /// slim sketch and archive untouched.
    #[test]
    fn warmup_interval_publishes_report_only() {
        let plane = ServingPlane::new(archive_cfg()).unwrap();
        plane.interval_closed(&IntervalReport { interval: 0, ..Default::default() }, None);
        let view = plane.view();
        assert_eq!(view.interval, Some(0));
        assert!(view.report.is_some());
        assert!(view.slim.is_none());
        assert!(view.archive.coverage().is_none());
    }

    /// The replica mirrors the engine's push sequence: warm-up gaps are
    /// zero-filled so archive intervals track detector intervals, and
    /// the stored epochs are f32 slim projections — exact for the
    /// integer-count stream here.
    #[test]
    fn replica_backfills_warmup_gap_and_tracks_intervals() {
        let plane = ServingPlane::new(archive_cfg()).unwrap();
        plane.interval_closed(&report_at(0), None);
        let err = error_sketch(0);
        plane.interval_closed(&report_at(1), Some((1, &err)));
        let view = plane.view();
        assert_eq!(view.interval, Some(1));
        assert_eq!(view.archive.coverage(), Some((0, 2)));
        // Epoch 0 is the zero back-fill; epoch 1 holds the error sketch,
        // stored slim: half the bytes, integer-exact registers.
        let range = view.archive.range_sketch(1, 2).unwrap();
        assert_eq!(widened(range.sketch.get()), err.table());
        assert_eq!(range.sketch.get().memory_bytes() * 2, err.memory_bytes());
        let est = err.estimator();
        for key in 0..40u64 {
            assert_eq!(
                range.sketch.get().estimate(key).to_bits(),
                est.estimate(key).to_bits(),
                "key {key}"
            );
        }
        let zero = view.archive.range_sketch(0, 1).unwrap();
        assert!(zero.sketch.get().table().iter().all(|&c| c == 0.0));
        assert_eq!(zero.sketch.get().error_bound(), 0.0);
    }

    /// Published views are immutable: a held snapshot still reads its
    /// interval's state after later closes advance the replica.
    #[test]
    fn held_snapshot_survives_later_intervals() {
        let plane = ServingPlane::new(archive_cfg()).unwrap();
        let err1 = error_sketch(0);
        plane.interval_closed(&report_at(0), Some((0, &err1)));
        let old = plane.view();
        let err2 = error_sketch(100);
        plane.interval_closed(&report_at(1), Some((1, &err2)));
        // The old view's world is frozen at interval 0.
        assert_eq!(old.interval, Some(0));
        assert_eq!(old.archive.coverage(), Some((0, 1)));
        assert_eq!(old.slim.as_ref().unwrap().estimate(5).to_bits(), err1.estimate(5).to_bits());
        // The new view sees both epochs and the fresh slim sketch.
        let new = plane.view();
        assert_eq!(new.archive.coverage(), Some((0, 2)));
        assert_eq!(new.slim.as_ref().unwrap().estimate(5).to_bits(), err2.estimate(5).to_bits());
    }

    /// The slim sketch carries forward across an interval that produced
    /// no error sketch (e.g. a NextInterval lag gap).
    #[test]
    fn slim_carries_forward_through_gap() {
        let plane = ServingPlane::new(archive_cfg()).unwrap();
        let err = error_sketch(7);
        plane.interval_closed(&report_at(0), Some((0, &err)));
        plane.interval_closed(&report_at(1), None);
        let view = plane.view();
        assert_eq!(view.interval, Some(1));
        assert!(view.slim.is_some());
        assert_eq!(view.archive.coverage(), Some((0, 1)));
    }

    /// The live slim sketch and the newest archive epoch share one
    /// allocation — the handoff is an Arc bump, not a second projection.
    #[test]
    fn live_slim_and_newest_epoch_share_storage() {
        let plane = ServingPlane::new(archive_cfg()).unwrap();
        let err = error_sketch(3);
        plane.interval_closed(&report_at(0), Some((0, &err)));
        let view = plane.view();
        let slim = view.slim.as_ref().unwrap();
        let epoch = view.archive.epochs().last().unwrap();
        assert!(std::ptr::eq::<SlimSketch>(slim.as_ref(), epoch.sketch().unwrap().get()));
    }

    /// The replica's notable-key directory matches `notable_keys` on the
    /// report, so candidate ranking matches the engine archive's.
    #[test]
    fn replica_files_notable_keys() {
        let plane = ServingPlane::new(archive_cfg()).unwrap();
        let report = report_at(0);
        let err = error_sketch(0);
        plane.interval_closed(&report, Some((0, &err)));
        let view = plane.view();
        let candidates = view.archive.candidate_keys(0, 1).unwrap();
        assert_eq!(candidates, vec![3, 1]);
    }

    /// Serving metrics advance with each snapshot.
    #[test]
    fn metrics_track_snapshots() {
        let registry = scd_obs::Registry::new();
        let metrics = ServeMetrics::register(&registry);
        let plane = ServingPlane::with_metrics(archive_cfg(), Some(Arc::clone(&metrics))).unwrap();
        let err = error_sketch(0);
        plane.interval_closed(&report_at(0), Some((0, &err)));
        plane.interval_closed(&report_at(1), Some((1, &err)));
        let mut text = String::new();
        registry.render_prometheus(&mut text);
        assert!(text.contains("scd_serve_snapshots_total 2"));
        assert!(text.contains("scd_serve_view_interval 1"));
    }

    /// The live slim sketch is the archive's newest epoch, one allocation,
    /// so the view's bytes count it once — also through a report-only
    /// interval, which serves the same slim sketch on.
    #[test]
    fn view_bytes_count_the_shared_newest_epoch_once() {
        let registry = scd_obs::Registry::new();
        let metrics = ServeMetrics::register(&registry);
        let plane = ServingPlane::with_metrics(archive_cfg(), Some(Arc::clone(&metrics))).unwrap();
        plane.interval_closed(&report_at(0), Some((0, &error_sketch(0))));
        plane.interval_closed(&report_at(1), Some((1, &error_sketch(5))));
        plane.interval_closed(&report_at(2), None);
        let view = plane.view();
        let archive_bytes = view.archive.memory_bytes();
        assert_eq!(view.memory_bytes(), archive_bytes);
        let mut text = String::new();
        registry.render_prometheus(&mut text);
        assert!(text.contains(&format!("scd_serve_view_bytes {archive_bytes}\n")), "{text}");
        // A slim sketch the archive does not hold is counted on its own.
        let detached = ServingView {
            slim: Some(Arc::new((**view.slim.as_ref().unwrap()).clone())),
            ..(*view).clone()
        };
        assert_eq!(
            detached.memory_bytes(),
            archive_bytes + detached.slim.as_ref().unwrap().memory_bytes()
        );
    }

    /// Background rebuild lands in the same published state as inline,
    /// bit for bit: same coverage, same epoch registers, same slim
    /// estimates — the jobs replay through the identical apply path.
    #[test]
    fn background_rebuild_matches_inline_bit_for_bit() {
        let inline = ServingPlane::new(archive_cfg()).unwrap();
        let background =
            ServingPlane::with_options(archive_cfg(), None, RebuildMode::Background).unwrap();
        assert_eq!(background.rebuild_mode(), RebuildMode::Background);
        for interval in 0..12usize {
            let report = report_at(interval);
            if interval % 5 == 4 {
                // A report-only gap: no error sketch this interval.
                inline.interval_closed(&report, None);
                background.interval_closed(&report, None);
            } else {
                let err = error_sketch(interval as u64 * 31);
                inline.interval_closed(&report, Some((interval, &err)));
                background.interval_closed(&report, Some((interval, &err)));
            }
        }
        background.flush();
        let (a, b) = (inline.view(), background.view());
        assert_eq!(a.interval, b.interval);
        assert_eq!(a.archive.coverage(), b.archive.coverage());
        let (from, to) = a.archive.coverage().unwrap();
        for t in from..to {
            let (ra, rb) = (
                a.archive.range_sketch(t, t + 1).unwrap(),
                b.archive.range_sketch(t, t + 1).unwrap(),
            );
            assert_eq!(ra.sketch.get().table(), rb.sketch.get().table(), "epoch {t}");
            assert_eq!(
                ra.sketch.get().error_bound().to_bits(),
                rb.sketch.get().error_bound().to_bits(),
                "epoch {t} envelope"
            );
        }
        let (sa, sb) = (a.slim.as_ref().unwrap(), b.slim.as_ref().unwrap());
        for key in 0..40u64 {
            assert_eq!(sa.estimate(key).to_bits(), sb.estimate(key).to_bits(), "key {key}");
        }
    }

    /// A rebuild thread that dies — here a sketch over a second hash
    /// family reaches the replica's push — surfaces: `flush` panics with
    /// its message, and so does the next hand-off. Neither waits.
    #[test]
    fn a_dead_rebuild_thread_surfaces_its_panic() {
        let (tx, rx) = mpsc::sync_channel(1);
        std::thread::spawn(move || {
            let plane =
                ServingPlane::with_options(archive_cfg(), None, RebuildMode::Background).unwrap();
            let mut foreign = KarySketch::new(SketchConfig { h: 3, k: 256, seed: 12 });
            foreign.update(7, 1.0);
            plane.interval_closed(&report_at(0), Some((0, &error_sketch(0))));
            plane.interval_closed(&report_at(1), Some((1, &foreign)));
            let message = |p: Box<dyn std::any::Any + Send>| panic_message(p.as_ref());
            let flushed = catch_unwind(AssertUnwindSafe(|| plane.flush())).map_err(message);
            let next =
                catch_unwind(AssertUnwindSafe(|| plane.interval_closed(&report_at(2), None)))
                    .map_err(message);
            drop(plane);
            tx.send((flushed, next)).unwrap();
        });
        let (flushed, next) = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("a dead rebuild thread left flush waiting");
        let why = flushed.unwrap_err();
        assert!(why.contains("rebuild thread died"), "{why}");
        assert!(why.contains("replica push cannot fail"), "{why}");
        assert!(next.unwrap_err().contains("rebuild thread died"));
    }

    /// `flush` drains the rebuild queue: after it returns, the view is
    /// as fresh as the last submitted interval, and the lag gauge reads
    /// zero.
    #[test]
    fn flush_catches_the_view_up() {
        let registry = scd_obs::Registry::new();
        let metrics = ServeMetrics::register(&registry);
        let plane = ServingPlane::with_options(
            archive_cfg(),
            Some(Arc::clone(&metrics)),
            RebuildMode::Background,
        )
        .unwrap();
        for interval in 0..6usize {
            let err = error_sketch(interval as u64);
            plane.interval_closed(&report_at(interval), Some((interval, &err)));
        }
        plane.flush();
        assert_eq!(plane.view().interval, Some(5));
        assert_eq!(plane.view().archive.coverage(), Some((0, 6)));
        let mut text = String::new();
        registry.render_prometheus(&mut text);
        assert!(text.contains("scd_serve_rebuild_lag 0"));
        // Dropping the plane joins the rebuild thread cleanly.
        drop(plane);
    }
}
