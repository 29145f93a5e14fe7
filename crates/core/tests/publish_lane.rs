//! The publish lane: a pipelined engine runs the observer and the archive
//! push on a thread of its own, beside detection of the next interval, and
//! hands the report on from there. None of that may show: on ARIMA1 over
//! `H = 5, K = 65 536` (fractional error sketches, an archive small enough
//! to compact and hand its retired tables back), at 1 and 2 shards, under
//! `TwoPass` and `NextInterval` (the lagged error sketch, and the last one
//! left pending), the pipelined engine's reports, the observer's
//! `(interval, Se(t))` sequence and the archive's bytes equal the inline
//! engine's, bit for bit. `end_interval` returns only once the observer has
//! seen the interval; a supervised restart replays silently, so no replayed
//! interval reaches the lane; and a lane that dies — its observer panicked —
//! surfaces as `DetectorLost`, not as a hang.

use scd_archive::ArchiveConfig;
use scd_core::{
    DetectorConfig, EngineConfig, EngineError, IntervalObserver, IntervalReport, KeyStrategy,
    LifecycleEvent, RestartPolicy, ShardedEngine, Supervision,
};
use scd_forecast::{ArimaSpec, ModelSpec};
use scd_hash::{mix64, SplitMix64};
use scd_sketch::{KarySketch, SketchConfig};
use scd_traffic::FaultPlan;
use std::sync::mpsc::sync_channel;
use std::sync::{Arc, Mutex};
use std::time::Duration;

const SKETCH: SketchConfig = SketchConfig { h: 5, k: 65_536, seed: 0x9B1_15E };
const ARCHIVE: ArchiveConfig =
    ArchiveConfig { max_sketches: 4, full_resolution: 2, keys_per_epoch: 8 };
const INTERVALS: u64 = 9;
/// Records an interval.
const PER: u64 = 600;
/// How long a run that should end may take before the test calls it hung.
const BOUND: Duration = Duration::from_secs(120);

fn config(key_strategy: KeyStrategy) -> DetectorConfig {
    DetectorConfig {
        sketch: SKETCH,
        model: ModelSpec::Arima(ArimaSpec::new(1, &[0.5, 0.2], &[0.3]).unwrap()),
        threshold: 0.05,
        key_strategy,
    }
}

/// One interval: [`PER`] records over 150 keys, and a burst at interval 6.
fn interval_updates(t: u64) -> Vec<(u64, f64)> {
    let mut rng = SplitMix64::new(0x1A4E ^ t);
    let mut items: Vec<(u64, f64)> =
        (0..PER).map(|_| (rng.next_below(150), (rng.next_below(1_400) + 40) as f64)).collect();
    if t == 6 {
        items[0] = (0x0B0A_57ED, 2_000_000.0);
    }
    items
}

/// A digest of every cell's bits.
fn digest(sketch: &KarySketch) -> u64 {
    sketch.table().iter().fold(0, |acc, x| mix64(acc ^ x.to_bits()))
}

/// What the observer saw: per close, the report's interval and the error
/// sketch's `(t, digest)`.
type Seen = Vec<(usize, Option<(usize, u64)>)>;

/// Records every close; panics on the report of interval `panic_at`.
#[derive(Debug, Default)]
struct Recorder {
    seen: Mutex<Seen>,
    panic_at: Option<usize>,
}

impl IntervalObserver for Recorder {
    fn interval_closed(&self, report: &IntervalReport, error: Option<(usize, &KarySketch)>) {
        if self.panic_at == Some(report.interval) {
            panic!("observer refuses interval {}", report.interval);
        }
        let error = error.map(|(t, e)| (t, digest(e)));
        self.seen.lock().unwrap().push((report.interval, error));
    }
}

impl Recorder {
    fn last_interval(&self) -> Option<usize> {
        self.seen.lock().unwrap().last().map(|&(t, _)| t)
    }
}

/// How a run closes its intervals.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Close {
    Inline,
    /// Pipelined, waiting for each interval's own report.
    Pipelined,
    /// Pipelined, one interval in flight.
    Overlapped,
}

/// What a run leaves behind.
#[derive(Debug, PartialEq)]
struct Outcome {
    reports: Vec<IntervalReport>,
    lines: Vec<String>,
    seen: Seen,
    archive: Vec<u8>,
}

fn run(
    key_strategy: KeyStrategy,
    shards: usize,
    close: Close,
    sup: Option<Supervision>,
) -> Outcome {
    let recorder = Arc::new(Recorder::default());
    let mut config = EngineConfig::new(config(key_strategy), shards)
        .with_archive(ARCHIVE)
        .with_observer(Arc::clone(&recorder) as Arc<dyn IntervalObserver>);
    if close != Close::Inline {
        config = config.with_pipeline();
    }
    if let Some(sup) = sup {
        config = config.with_supervision(sup);
    }
    let mut engine = ShardedEngine::new(config).unwrap();
    let mut reports = Vec::new();
    for t in 0..INTERVALS {
        engine.push_slice(&interval_updates(t)).unwrap();
        if close == Close::Overlapped {
            reports.extend(engine.end_interval_overlapped().unwrap());
        } else {
            let report = engine.end_interval().unwrap();
            // Published before it is returned: the observer has seen it.
            assert_eq!(recorder.last_interval(), Some(report.interval), "{close:?}, t = {t}");
            reports.push(report);
        }
    }
    reports.extend(engine.drain().unwrap());
    let archive = scd_archive::wire::to_bytes(&engine.take_archive().unwrap());
    let lines = reports.iter().map(IntervalReport::canonical_line).collect();
    let seen = std::mem::take(&mut *recorder.seen.lock().unwrap());
    Outcome { reports, lines, seen, archive }
}

#[test]
fn the_lane_publishes_what_the_inline_engine_publishes() {
    for strategy in [KeyStrategy::TwoPass, KeyStrategy::NextInterval] {
        let want = run(strategy, 1, Close::Inline, None);
        assert!(want.reports.iter().any(|r| !r.alarms.is_empty()), "{strategy:?}: no alarm");
        assert!(want.seen.iter().filter(|(_, e)| e.is_some()).count() >= 5, "{strategy:?}");
        if strategy == KeyStrategy::NextInterval {
            // The error sketch lags its close, and the last one stays pending.
            assert!(want.seen.iter().all(|&(t, e)| e.is_none_or(|(et, _)| et == t)));
            assert_eq!(want.seen.last().map(|&(t, _)| t), Some(INTERVALS as usize - 2));
        }
        for shards in [1, 2] {
            for close in [Close::Inline, Close::Pipelined, Close::Overlapped] {
                let got = run(strategy, shards, close, None);
                assert_eq!(got, want, "{strategy:?}, {shards} shards, {close:?}");
            }
        }
    }
}

#[test]
fn replayed_intervals_never_reach_the_lane() {
    for strategy in [KeyStrategy::TwoPass, KeyStrategy::NextInterval] {
        let want = run(strategy, 2, Close::Inline, None);
        // A detector panic in the middle of interval 5's close: the stage
        // restarts at its base (none yet) and replays intervals 0–4.
        let (events_tx, events) = sync_channel(64);
        let sup = Supervision {
            restart: RestartPolicy { backoff_base_ms: 1, ..RestartPolicy::default() },
            fault: Some(FaultPlan::panic_at(5 * PER + PER / 2, "planted")),
            events: Some(events_tx),
            ..Supervision::default()
        };
        let got = run(strategy, 2, Close::Overlapped, Some(sup));
        let restarts: Vec<_> = events
            .try_iter()
            .filter(|e| matches!(e, LifecycleEvent::Restarted { resumed_intervals: 0, .. }))
            .collect();
        assert_eq!(restarts.len(), 1, "{strategy:?}: {restarts:?}");
        // Each interval reached the observer once, in order, and the
        // archive holds each once: nothing replayed was published.
        assert_eq!(got, want, "{strategy:?}");
    }
}

/// Runs `work` on a thread of its own and fails the test if it does not
/// finish within [`BOUND`]; a panic inside comes back as `Err(message)`.
fn bounded<R: Send + 'static>(work: impl FnOnce() -> R + Send + 'static) -> Result<R, String> {
    let (tx, rx) = sync_channel(1);
    std::thread::spawn(move || {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(work));
        let _ = tx.send(outcome.map_err(|p| scd_core::streaming::panic_message(p.as_ref())));
    });
    rx.recv_timeout(BOUND).expect("hung: no outcome within the time bound")
}

/// Closes intervals until one fails; returns the reports before it and
/// the error.
fn until_failure(shards: usize, pipeline: bool) -> (Vec<usize>, EngineError) {
    let recorder = Arc::new(Recorder { panic_at: Some(3), ..Recorder::default() });
    let mut config = EngineConfig::new(config(KeyStrategy::TwoPass), shards)
        .with_archive(ARCHIVE)
        .with_observer(recorder as Arc<dyn IntervalObserver>);
    if pipeline {
        config = config.with_pipeline();
    }
    let mut engine = ShardedEngine::new(config).unwrap();
    let mut delivered = Vec::new();
    for t in 0..INTERVALS {
        let pushed = engine.push_slice(&interval_updates(t));
        match pushed.and_then(|()| engine.end_interval_overlapped()) {
            Ok(report) => delivered.extend(report.map(|r| r.interval)),
            Err(e) => return (delivered, e),
        }
    }
    match engine.drain() {
        Ok(_) => panic!("the observer's panic never surfaced"),
        Err(e) => (delivered, e),
    }
}

#[test]
fn a_dead_lane_surfaces_as_detector_lost() {
    for shards in [1, 2] {
        let (delivered, error) = bounded(move || until_failure(shards, true)).unwrap();
        assert!(matches!(error, EngineError::DetectorLost), "{shards} shards: {error}");
        assert_eq!(delivered, vec![0, 1, 2], "{shards} shards");
    }
    // Inline, the observer runs on the caller's thread: its panic is the
    // caller's, message and all.
    let panic = bounded(|| until_failure(2, false)).unwrap_err();
    assert!(panic.contains("observer refuses interval 3"), "{panic}");
}
