//! One restart contract, checked once for every runtime that closes an
//! interval: the same seeded stream and the same fault plans go through
//! the detect stage fed `(So, keys)` directly (the aggregator's shape), a
//! 1-shard inline engine, a 2-shard pipelined engine with an archive and
//! an observer, and the streaming driver — with a checkpoint file and
//! without, under every key strategy — and must yield the uninterrupted
//! bare detector's reports, the same lifecycle counters in every shape,
//! and a checkpoint a new engine resumes from.

use scd_archive::ArchiveConfig;
use scd_core::{
    spawn_streaming, CheckpointPolicy, DetectStage, DetectorConfig, EngineConfig, EngineError,
    GlrConfig, GlrEvent, IntervalObserver, IntervalReport, KeyStrategy, LifecycleEvent,
    OverloadPolicy, PipelineMetrics, RestartPolicy, ShardedEngine, SketchChangeDetector,
    StreamingConfig, Supervision,
};
use scd_forecast::ModelSpec;
use scd_hash::SplitMix64;
use scd_sketch::{KarySketch, SketchConfig};
use scd_traffic::{FaultPlan, FlowRecord, KeySpec, ValueSpec};
use std::path::{Path, PathBuf};
use std::sync::mpsc::sync_channel;
use std::sync::{Arc, Mutex};
use std::time::Duration;

const INTERVALS: u64 = 24;
/// Records per interval; fault positions are record counts.
const PER: u64 = 40;
const EVERY: u64 = 2;
const RESTART: RestartPolicy =
    RestartPolicy { max_restarts: 2, backoff_base_ms: 1, backoff_cap_ms: 4 };
const ARCHIVE: ArchiveConfig =
    ArchiveConfig { max_sketches: 8, full_resolution: 2, keys_per_epoch: 8 };

fn detector_config(strategy: KeyStrategy) -> DetectorConfig {
    DetectorConfig {
        sketch: SketchConfig { h: 3, k: 512, seed: 29 },
        model: ModelSpec::Nshw { alpha: 0.5, beta: 0.3 },
        threshold: 0.1,
        key_strategy: strategy,
    }
}

/// Integer volumes over ~25 keys, with a burst at interval 13.
fn interval_updates(t: u64) -> Vec<(u64, f64)> {
    let mut rng = SplitMix64::new(0x5EED ^ t);
    let mut items: Vec<(u64, f64)> =
        (0..PER).map(|_| (rng.next_below(25), (rng.next_below(900) + 100) as f64)).collect();
    if t == 13 {
        items[7] = (3, 250_000.0);
    }
    items
}

fn reference(strategy: KeyStrategy, intervals: u64) -> Vec<IntervalReport> {
    let mut detector = SketchChangeDetector::new(detector_config(strategy));
    (0..intervals).map(|t| detector.process_interval(&interval_updates(t))).collect()
}

/// A record position in the middle of interval `t`: every shape's close of
/// `t` is the first to reach it, whether or not its count includes the
/// record that triggered the close.
fn within(t: u64) -> u64 {
    t * PER + PER / 2
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("scd-supervision-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Shape {
    Stage,
    Inline,
    Pipelined,
    Streaming,
}

/// Counts how often each interval's report reached the observer.
#[derive(Debug, Default)]
struct SeenOnce(Mutex<Vec<usize>>);

impl IntervalObserver for SeenOnce {
    fn interval_closed(&self, report: &IntervalReport, _: Option<(usize, &KarySketch)>) {
        self.0.lock().unwrap().push(report.interval);
    }
}

struct Outcome {
    reports: Vec<IntervalReport>,
    gave_up: bool,
    events: Vec<LifecycleEvent>,
    /// `[started, restarts, gave_up, backoff_ms, checkpoints, degraded]`.
    counters: [u64; 6],
}

fn run(shape: Shape, strategy: KeyStrategy, path: Option<&Path>, fault: FaultPlan) -> Outcome {
    let registry = scd_obs::Registry::new();
    let metrics = PipelineMetrics::register(&registry);
    let (event_tx, event_rx) = sync_channel(1024);
    let supervision = Supervision {
        restart: RESTART,
        checkpoint: path.map(|p| CheckpointPolicy { path: p.to_path_buf(), every: EVERY }),
        fault: Some(fault.clone()),
        events: Some(event_tx),
    };
    let shards = if shape == Shape::Pipelined { 2 } else { 1 };
    let mut config = EngineConfig::new(detector_config(strategy), shards)
        .with_metrics(Arc::clone(&metrics))
        .with_supervision(supervision);
    let seen = Arc::new(SeenOnce::default());
    if shape == Shape::Pipelined {
        config = config
            .with_pipeline()
            .with_archive(ARCHIVE)
            .with_observer(Arc::clone(&seen) as Arc<dyn IntervalObserver>);
    }
    let mut reports = Vec::new();
    let mut failure = None;
    match shape {
        Shape::Stage => {
            let (mut stage, _) = DetectStage::from_config(&config).expect("stage");
            let cadence = if path.is_some() { EVERY } else { scd_core::engine::MEMORY_BASE_EVERY };
            for t in 0..INTERVALS {
                let items = interval_updates(t);
                let mut observed = KarySketch::with_rows(Arc::clone(stage.rows()));
                items.iter().for_each(|&(key, value)| observed.update(key, value));
                stage.set_position(Some(t + 1), (t + 1) * PER);
                match stage
                    .observe(observed, &items.iter().map(|&(key, _)| key).collect::<Vec<_>>())
                {
                    Ok(report) => reports.push(report),
                    Err(e) => {
                        failure = Some(e);
                        break;
                    }
                }
                assert!(stage.retained() as u64 <= cadence, "retained {}", stage.retained());
            }
        }
        Shape::Inline | Shape::Pipelined => {
            let mut engine = ShardedEngine::new(config).expect("engine");
            let mut feed = || -> Result<(), EngineError> {
                for t in 0..INTERVALS {
                    engine.push_slice(&interval_updates(t))?;
                    reports.extend(engine.end_interval_overlapped()?);
                }
                reports.extend(engine.drain()?);
                Ok(())
            };
            failure = feed().err();
            if shape == Shape::Pipelined && failure.is_none() {
                // Replays are silent: the observer and the archive saw each
                // interval exactly once, like an engine nothing happened to.
                let mut plain = ShardedEngine::new(
                    EngineConfig::new(detector_config(strategy), 2).with_archive(ARCHIVE),
                )
                .unwrap();
                (0..INTERVALS).for_each(|t| {
                    plain.process_interval(&interval_updates(t)).unwrap();
                });
                let bytes = |e: &mut ShardedEngine| {
                    scd_archive::wire::to_bytes(&e.take_archive().expect("archive"))
                };
                assert_eq!(bytes(&mut engine), bytes(&mut plain), "archive saw a replay");
                let seen = seen.0.lock().unwrap();
                let expect: Vec<usize> = reports.iter().map(|r| r.interval).collect();
                assert_eq!(*seen, expect, "observer saw a replay (or missed an interval)");
            }
        }
        Shape::Streaming => {
            // The engine's supervision is the streaming detector's: its
            // restart policy, fault plan and event sender are all in effect.
            let handle = spawn_streaming(StreamingConfig {
                engine: config,
                interval_ms: 1_000,
                key: KeySpec::DstIp,
                value: ValueSpec::Bytes,
                channel_capacity: 64,
                overload: OverloadPolicy::Block,
            });
            'feed: for t in 0..INTERVALS {
                for (i, (key, value)) in interval_updates(t).into_iter().enumerate() {
                    let record = FlowRecord {
                        timestamp_ms: t * 1_000 + i as u64,
                        src_ip: 1,
                        dst_ip: key as u32,
                        src_port: 1,
                        dst_port: 80,
                        protocol: 6,
                        bytes: value as u64,
                        packets: 1,
                    };
                    if !handle.send(record) {
                        break 'feed;
                    }
                    reports.extend(handle.reports().try_iter());
                }
            }
            let (tail, own_events, _) = handle.shutdown().expect("driver survives");
            reports.extend(tail);
            assert!(own_events.is_empty(), "the handle took events meant for the sender set");
        }
    }
    let events: Vec<LifecycleEvent> = event_rx.try_iter().collect();
    let gave_up = match failure {
        None => events.iter().any(|e| matches!(e, LifecycleEvent::GaveUp { .. })),
        Some(EngineError::DetectorGaveUp { .. }) => true,
        Some(other) => panic!("{shape:?}: {other}"),
    };
    let s = &metrics.supervisor;
    let counters = [
        s.started_total.get(),
        s.restarts_total.get(),
        s.gave_up_total.get(),
        s.backoff_ms_total.get(),
        s.checkpoints_total.get(),
        s.degraded_total.get(),
    ];
    Outcome { reports, gave_up, events, counters }
}

#[test]
fn every_runtime_keeps_the_one_restart_contract() {
    let strategies = [
        KeyStrategy::TwoPass,
        KeyStrategy::NextInterval,
        KeyStrategy::Sampled { rate: 0.5, seed: 77 },
    ];
    // (name, plan, restarts absorbed, interval the budget runs out at)
    type Plan = (&'static str, fn() -> FaultPlan, u64, Option<u64>);
    let plans: [Plan; 4] = [
        ("one panic", || FaultPlan::panic_at(within(10), "once"), 1, None),
        (
            // Interval 11 is never a base (2 | 10, 8 | 8): the second fault
            // fires inside the replay of what was retained since.
            "panic during replay",
            || FaultPlan::panic_at(within(11), "first").and_panic_at(within(11), "in replay"),
            2,
            None,
        ),
        (
            "three panics against a budget of two",
            || {
                FaultPlan::panic_at(within(9), "one")
                    .and_panic_at(within(9), "two")
                    .and_panic_at(within(9), "three")
            },
            2,
            Some(9),
        ),
        ("a stall", || FaultPlan::stall_at(within(6), Duration::from_millis(5)), 0, None),
    ];
    for strategy in strategies {
        let want = reference(strategy, INTERVALS);
        for (name, plan, restarts, gives_up_at) in plans {
            for with_path in [true, false] {
                let mut counters = None;
                for shape in [Shape::Stage, Shape::Inline, Shape::Pipelined, Shape::Streaming] {
                    let tag = format!("{shape:?} / {strategy:?} / {name} / file={with_path}");
                    let path = with_path.then(|| temp_path("table.ckpt"));
                    if let Some(p) = &path {
                        std::fs::remove_file(p).ok();
                    }
                    let got = run(shape, strategy, path.as_deref(), plan());
                    let emitted = gives_up_at.unwrap_or(INTERVALS) as usize;
                    assert_eq!(got.gave_up, gives_up_at.is_some(), "{tag}");
                    assert_eq!(got.reports.len(), emitted, "{tag}: no gap, rewind or duplicate");
                    assert_eq!(got.reports, want[..emitted], "{tag}");
                    let checkpoints = if with_path { emitted as u64 / EVERY } else { 0 };
                    assert_eq!(got.counters[0], 1, "{tag}: started");
                    assert_eq!(got.counters[1], restarts, "{tag}: restarts");
                    assert_eq!(got.counters[4], checkpoints, "{tag}: checkpoints");
                    assert_eq!(got.counters[5], 0, "{tag}: degraded");
                    // The same story in every shape, backoff included.
                    assert_eq!(*counters.get_or_insert(got.counters), got.counters, "{tag}");
                    let restarted = got
                        .events
                        .iter()
                        .filter(|e| matches!(e, LifecycleEvent::Restarted { .. }))
                        .count();
                    assert_eq!(restarted as u64, restarts, "{tag}: {:?}", got.events);
                    if let (Some(p), None) = (&path, gives_up_at) {
                        resumes_from(p, strategy, &tag);
                    }
                }
            }
        }
    }
}

/// A new engine pointed at the file a finished run left continues it:
/// interval count, record count and stream position restored, and the next
/// report the one an uninterrupted detector gives.
fn resumes_from(path: &Path, strategy: KeyStrategy, tag: &str) {
    let policy = CheckpointPolicy { path: path.to_path_buf(), every: EVERY };
    let supervision = Supervision { checkpoint: Some(policy), ..Supervision::default() };
    let config = EngineConfig::new(detector_config(strategy), 1).with_supervision(supervision);
    let mut engine = ShardedEngine::new(config).expect("engine");
    assert_eq!(engine.intervals_closed(), INTERVALS, "{tag}");
    assert_eq!(engine.resumed_interval(), Some(INTERVALS), "{tag}");
    assert_eq!(engine.records_total(), INTERVALS * PER, "{tag}");
    let report = engine.process_interval(&interval_updates(INTERVALS)).unwrap();
    assert_eq!(Some(&report), reference(strategy, INTERVALS + 1).last(), "{tag}");
}

/// A `--glr 4`-shaped engine killed after a provisional alarm, while the
/// GLR window still spans the onset, and resumed from the checkpoint
/// **file** by a new engine, emits the same reports and the same
/// `GlrEvent`s as the engine nothing happened to. Under `NextInterval` the
/// provisional is still unconfirmed when the checkpoint is written, so the
/// file carries it.
#[test]
fn a_glr_engine_resumes_mid_window_from_the_file() {
    const SLOTS: u64 = 4;
    const KILL_AFTER: u64 = 4;
    let glr = GlrConfig {
        sketch: SketchConfig { h: 3, k: 1024, seed: 0x5CD },
        projections: 8,
        max_window: 4,
        threshold: 16.0,
        min_baseline: 4,
        hint_keys: 4096,
        cooldown: 8,
    };
    let slot_items = |t: u64, s: u64| -> Vec<(u64, f64)> {
        let mut rng = SplitMix64::new(0x00FE_ED00 ^ (t << 8) ^ s);
        let mut items: Vec<(u64, f64)> =
            (0..40u64).map(|k| (k, 1_000.0 + rng.next_below(101) as f64 - 50.0)).collect();
        if (t, s) >= (KILL_AFTER, 1) {
            items.push((777, 40_000.0));
        }
        items
    };
    for strategy in [KeyStrategy::TwoPass, KeyStrategy::NextInterval] {
        for pipelined in [false, true] {
            // Feeds 8 intervals, draining after `KILL_AFTER` either way;
            // with `kill`, the engine is then dropped and a new one built
            // over the same checkpoint file takes its place.
            let run = |kill: bool| -> (Vec<IntervalReport>, Vec<GlrEvent>) {
                let path = temp_path(if kill { "glr-killed.ckpt" } else { "glr-whole.ckpt" });
                std::fs::remove_file(&path).ok();
                let build = || {
                    let mut config = EngineConfig::new(detector_config(strategy), 2)
                        .with_glr(glr.clone())
                        .with_supervision(Supervision {
                            checkpoint: Some(CheckpointPolicy { path: path.clone(), every: 1 }),
                            ..Supervision::default()
                        });
                    if pipelined {
                        config = config.with_pipeline();
                    }
                    ShardedEngine::new(config).expect("engine")
                };
                let (mut reports, mut events) = (Vec::new(), Vec::new());
                let mut engine = build();
                for t in 0..8 {
                    for s in 0..SLOTS {
                        engine.push_slice(&slot_items(t, s)).unwrap();
                        engine.end_glr_slot();
                    }
                    reports.extend(engine.end_interval_overlapped().unwrap());
                    if t == KILL_AFTER || t == 7 {
                        reports.extend(engine.drain().unwrap());
                    }
                    events.extend(engine.take_glr_events());
                    if t == KILL_AFTER && kill {
                        engine = build();
                        assert_eq!(engine.intervals_closed(), KILL_AFTER + 1);
                        assert_eq!(engine.records_total(), (KILL_AFTER + 1) * SLOTS * 40 + 3);
                    }
                }
                (reports, events)
            };
            let tag = format!("{strategy:?} pipelined={pipelined}");
            let (want_reports, want_events) = run(false);
            let raised = |e: &GlrEvent| matches!(e, GlrEvent::Provisional { interval: 4, .. });
            let settled = |e: &GlrEvent| matches!(e, GlrEvent::Confirmed { interval: 4, .. });
            let at = |pick: &dyn Fn(&GlrEvent) -> bool| want_events.iter().position(pick);
            assert!(at(&raised) < at(&settled), "{tag}: burst not raised then confirmed");
            let (reports, events) = run(true);
            assert_eq!(reports, want_reports, "{tag}: reports diverged after the resume");
            assert_eq!(events, want_events, "{tag}: GLR events diverged after the resume");
        }
    }
}

/// One interval for the stage tests: its observed sketch, its key log and
/// the updates they were built from.
fn stage_interval(stage: &DetectStage, t: u64) -> (KarySketch, Vec<u64>, Vec<(u64, f64)>) {
    let items: Vec<(u64, f64)> =
        (0..60u64).map(|i| (i % 23, ((i * 19 + t * 7) % 350 + 50) as f64)).collect();
    let mut observed = KarySketch::with_rows(Arc::clone(stage.rows()));
    items.iter().for_each(|&(key, value)| observed.update(key, value));
    (observed, items.iter().map(|&(key, _)| key).collect(), items)
}

#[test]
fn a_supervised_stage_without_a_checkpoint_path_retains_a_cadence_not_the_run() {
    // The aggregator's detector used to keep every interval's observed
    // sketch and key log for the life of the process when no checkpoint
    // path was configured. 200 intervals hold at most the in-memory base
    // cadence, and a panic three quarters of the way through still
    // rebuilds the exact detector: reports == the uninterrupted reference.
    let restart = RestartPolicy { max_restarts: 1, backoff_base_ms: 1, backoff_cap_ms: 1 };
    let fault = FaultPlan::panic_at(150, "three quarters in");
    let supervision = Supervision { restart, fault: Some(fault), ..Supervision::default() };
    let engine =
        EngineConfig::new(detector_config(KeyStrategy::TwoPass), 1).with_supervision(supervision);
    let (mut stage, _) = DetectStage::from_config(&engine).unwrap();
    let mut reference = SketchChangeDetector::new(detector_config(KeyStrategy::TwoPass));
    let mut most = 0;
    for t in 0..200u64 {
        let (observed, keys, items) = stage_interval(&stage, t);
        let report = stage.observe(observed, &keys).unwrap();
        assert_eq!(report, reference.process_interval(&items), "interval {t}");
        most = most.max(stage.retained());
    }
    assert_eq!(stage.restarts(), 1, "the injected panic was absorbed");
    // The interval that completes a cadence becomes the new base.
    assert_eq!(
        most as u64,
        scd_core::engine::MEMORY_BASE_EVERY - 1,
        "retention is the cadence, not the run"
    );
}

#[test]
fn a_checkpoint_that_cannot_be_written_degrades_once_a_write_and_still_bounds_retention() {
    let dir = std::env::temp_dir().join(format!("scd-stage-no-such-dir-{}", std::process::id()));
    let policy = CheckpointPolicy { path: dir.join("detector.ckpt"), every: 3 };
    let (events_tx, events) = sync_channel(64);
    let supervision = Supervision {
        restart: RestartPolicy { max_restarts: 1, backoff_base_ms: 1, backoff_cap_ms: 1 },
        checkpoint: Some(policy),
        // The in-memory base that stands in for the unwritable file must be
        // a real one: a panic after three failed writes replays from it.
        fault: Some(FaultPlan::panic_at(10, "after three failed writes")),
        events: Some(events_tx),
    };
    let engine =
        EngineConfig::new(detector_config(KeyStrategy::TwoPass), 1).with_supervision(supervision);
    let (mut stage, resumed) = DetectStage::from_config(&engine).unwrap();
    assert!(resumed.is_none());
    let mut reference = SketchChangeDetector::new(detector_config(KeyStrategy::TwoPass));
    for t in 0..12u64 {
        let (observed, keys, items) = stage_interval(&stage, t);
        let report = stage.observe(observed, &keys).unwrap();
        assert_eq!(report, reference.process_interval(&items), "interval {t}");
        assert!(stage.retained() <= 3, "retained {} intervals", stage.retained());
    }
    let events: Vec<LifecycleEvent> = events.try_iter().collect();
    let degraded = events.iter().filter(|e| matches!(e, LifecycleEvent::Degraded { .. })).count();
    assert_eq!(degraded, 4, "one per failed write (intervals 3, 6, 9, 12): {events:?}");
    assert!(
        events.contains(&LifecycleEvent::Restarted {
            attempt: 1,
            resumed_intervals: 9,
            panic: "injected fault: after three failed writes".into()
        }),
        "{events:?}"
    );
    assert!(!dir.exists());
}
