//! Integration tests of the fault-tolerance layer: checkpoint/restore,
//! supervised restarts, overload accounting, and corruption handling —
//! the acceptance criteria of the robustness milestone.

use scd_core::{
    spawn_streaming, Checkpoint, CheckpointPolicy, DetectorConfig, EngineConfig, KeyStrategy,
    LifecycleEvent, OverloadPolicy, RestartPolicy, SketchChangeDetector, StreamingConfig,
    Supervision,
};
use scd_forecast::ModelSpec;
use scd_sketch::SketchConfig;
use scd_traffic::{Corruptor, FaultPlan, FlowRecord, KeySpec, ValueSpec};
use std::path::PathBuf;
use std::sync::mpsc::sync_channel;

fn detector_config() -> DetectorConfig {
    DetectorConfig {
        sketch: SketchConfig { h: 3, k: 1024, seed: 17 },
        model: ModelSpec::Nshw { alpha: 0.4, beta: 0.2 },
        threshold: 0.1,
        key_strategy: KeyStrategy::TwoPass,
    }
}

/// Deterministic per-interval update streams: 30 steady flows plus a 20×
/// spike on key 7 at interval 8.
fn interval_updates(t: usize) -> Vec<(u64, f64)> {
    (0..30u64)
        .map(|k| {
            let base = 1_000.0 + 40.0 * k as f64 + 10.0 * ((t + k as usize) % 5) as f64;
            let v = if k == 7 && t == 8 { base * 20.0 } else { base };
            (k, v)
        })
        .collect()
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("scd-fault-tolerance");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
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

fn streaming_config() -> StreamingConfig {
    StreamingConfig {
        engine: EngineConfig::new(detector_config(), 1),
        interval_ms: 1_000,
        key: KeySpec::DstIp,
        value: ValueSpec::Bytes,
        channel_capacity: 256,
        overload: OverloadPolicy::Block,
    }
}

/// A supervised streaming detector's config: the restart budget, fault
/// plan and checkpoint policy all sit on the engine's [`Supervision`].
fn supervised(
    checkpoint: Option<CheckpointPolicy>,
    restart: RestartPolicy,
    fault: Option<FaultPlan>,
) -> StreamingConfig {
    let mut config = streaming_config();
    let supervision = Supervision { restart, checkpoint, fault, events: None };
    config.engine = config.engine.with_supervision(supervision);
    config
}

/// Acceptance criterion 1: kill the detector mid-stream, restore from the
/// checkpoint file, and the remaining interval reports are identical to
/// an uninterrupted run's — field for field, including every float.
#[test]
fn kill_and_restore_reports_are_identical() {
    let cfg = detector_config();
    let mut uninterrupted = SketchChangeDetector::new(cfg.clone());
    let reference: Vec<_> =
        (0..16).map(|t| uninterrupted.process_interval(&interval_updates(t))).collect();

    // Run to interval 9, persist, and "kill" by dropping the detector.
    let path = temp_path("kill-restore.ckpt");
    let mut first_half = SketchChangeDetector::new(cfg.clone());
    for (t, expected) in reference.iter().enumerate().take(9) {
        let r = first_half.process_interval(&interval_updates(t));
        assert_eq!(&r, expected, "pre-kill divergence at t={t}");
    }
    Checkpoint {
        config: cfg.clone(),
        snapshot: first_half.snapshot(),
        next_interval: Some(9),
        processed: 9 * 30,
        staggered: None,
        glr: None,
    }
    .write_atomic(&path)
    .expect("write checkpoint");
    drop(first_half);

    // A new process would do exactly this: load, restore, continue.
    let loaded = Checkpoint::load(&path).expect("load checkpoint");
    assert_eq!(loaded.next_interval, Some(9));
    assert_eq!(loaded.processed, 270);
    let mut restored = loaded.restore_detector().expect("restore");
    for (t, expected) in reference.iter().enumerate().skip(9) {
        let r = restored.process_interval(&interval_updates(t));
        assert_eq!(&r, expected, "post-restore divergence at t={t}");
    }
    std::fs::remove_file(&path).ok();
}

/// Acceptance criterion 2: a panic inside the supervised detector leads
/// to a `Restarted` event and a report stream with no holes — only the
/// checkpoint gap is re-emitted, nothing is silently missing.
#[test]
fn supervised_detector_restarts_from_checkpoint_after_panic() {
    let path = temp_path("supervised-restart.ckpt");
    std::fs::remove_file(&path).ok();
    let every = 2u64;
    let handle = spawn_streaming(supervised(
        Some(CheckpointPolicy { path: path.clone(), every }),
        RestartPolicy::default(),
        // 5 records per interval: record 33 lands mid-interval-6, well
        // after several checkpoints exist.
        Some(FaultPlan::panic_at(33, "injected detector crash")),
    ));
    for t in 0..12u64 {
        for i in 0..5u64 {
            assert!(handle.send(record(t * 1_000 + i * 100, (i % 3) as u32, 500 + t)));
        }
    }
    let (reports, events, _processed, _) = handle.shutdown().expect("supervisor never panics");

    let restarts: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            LifecycleEvent::Restarted { attempt, resumed_intervals, .. } => {
                Some((*attempt, *resumed_intervals))
            }
            _ => None,
        })
        .collect();
    assert_eq!(restarts.len(), 1, "exactly one restart: {events:?}");
    let (attempt, resumed) = restarts[0];
    assert_eq!(attempt, 1);
    assert!(resumed > 0, "restart should resume from a checkpoint, not from scratch");
    assert!(events.contains(&LifecycleEvent::Started));
    assert!(
        events.iter().any(|e| matches!(e, LifecycleEvent::CheckpointWritten { .. })),
        "checkpoints should have been written: {events:?}"
    );
    assert!(
        !events.iter().any(|e| matches!(e, LifecycleEvent::GaveUp { .. })),
        "one panic must not exhaust the budget"
    );

    // No holes: every interval index from 0 to the maximum is reported at
    // least once, and only the checkpoint gap is reported twice.
    let mut indices: Vec<usize> = reports.iter().map(|r| r.interval).collect();
    let max = *indices.iter().max().expect("reports exist");
    assert!(max >= 10, "stream should reach interval 10+, got {max}");
    for want in 0..=max {
        assert!(indices.contains(&want), "interval {want} lost: {indices:?}");
    }
    indices.sort_unstable();
    let duplicates = indices.len() - (max + 1);
    assert!(
        (duplicates as u64) <= every,
        "re-emitted {duplicates} intervals; checkpoint gap is at most {every}"
    );
    std::fs::remove_file(&path).ok();
}

/// Without a checkpoint file the supervisor still restarts — from scratch
/// — and says so via `resumed_intervals: 0`.
#[test]
fn restart_without_checkpoint_starts_fresh() {
    let handle = spawn_streaming(supervised(
        None,
        RestartPolicy::default(),
        Some(FaultPlan::panic_at(12, "crash with no durability")),
    ));
    for t in 0..6u64 {
        for i in 0..5u64 {
            handle.send(record(t * 1_000 + i * 100, 1, 100));
        }
    }
    let (_reports, events, _, _) = handle.shutdown().expect("supervisor survives");
    assert!(events
        .iter()
        .any(|e| matches!(e, LifecycleEvent::Restarted { resumed_intervals: 0, .. })));
}

/// A corrupt checkpoint at restart time degrades (typed, evented) and
/// restarts fresh — it must not panic the supervisor and must not be
/// trusted.
#[test]
fn corrupt_checkpoint_degrades_instead_of_crashing() {
    let path = temp_path("corrupt.ckpt");
    // Build a valid checkpoint file, then flip one byte.
    let cfg = detector_config();
    let mut det = SketchChangeDetector::new(cfg.clone());
    for t in 0..4 {
        det.process_interval(&interval_updates(t));
    }
    let ck = Checkpoint {
        config: cfg,
        snapshot: det.snapshot(),
        next_interval: Some(4),
        processed: 120,
        staggered: None,
        glr: None,
    };
    let mut bytes = ck.to_bytes();
    Corruptor::new(99).flip_one_byte(&mut bytes);
    assert!(Checkpoint::from_bytes(&bytes).is_err(), "flip must be detected");
    std::fs::write(&path, &bytes).expect("write corrupt file");

    let handle = spawn_streaming(supervised(
        Some(CheckpointPolicy {
            path: path.clone(),
            // Effectively never write, so the corrupt file stays in place
            // until the crash tries to read it.
            every: 1_000_000,
        }),
        RestartPolicy::default(),
        Some(FaultPlan::panic_at(8, "crash into corrupt checkpoint")),
    ));
    for t in 0..5u64 {
        for i in 0..5u64 {
            handle.send(record(t * 1_000 + i * 100, 2, 300));
        }
    }
    let (_reports, events, _, _) = handle.shutdown().expect("supervisor survives");
    assert!(
        events.iter().any(|e| matches!(e, LifecycleEvent::Degraded { .. })),
        "corrupt checkpoint must surface as Degraded: {events:?}"
    );
    assert!(events
        .iter()
        .any(|e| matches!(e, LifecycleEvent::Restarted { resumed_intervals: 0, .. })));
    std::fs::remove_file(&path).ok();
}

/// Exhausting the restart budget produces `GaveUp` and stops cleanly;
/// producers see `send` fail instead of hanging. With telemetry attached,
/// the lifecycle counters narrate the same story: one start, two absorbed
/// restarts, one exhausted budget, and backoff sleep covering at least
/// the policy's schedule for those attempts.
#[test]
fn restart_budget_exhaustion_gives_up_cleanly() {
    let registry = scd_obs::Registry::new();
    let metrics = scd_core::PipelineMetrics::register(&registry);
    let restart = RestartPolicy { max_restarts: 2, backoff_base_ms: 1, backoff_cap_ms: 5 };
    let mut stream = supervised(
        None,
        restart,
        Some(FaultPlan::panic_at(1, "first").and_panic_at(1, "second").and_panic_at(1, "third")),
    );
    stream.engine.metrics = Some(std::sync::Arc::clone(&metrics));
    let handle = spawn_streaming(stream);
    // Keep sending until the dead detector disconnects the channel.
    let mut refused = false;
    for i in 0..10_000u64 {
        if !handle.send(record(i, 1, 10)) {
            refused = true;
            break;
        }
    }
    assert!(refused, "sends must start failing after GaveUp");
    let (_reports, events, _, _) = handle.shutdown().expect("supervisor survives");
    assert!(
        events.contains(&LifecycleEvent::GaveUp { attempts: 2 }),
        "expected GaveUp after 2 absorbed restarts: {events:?}"
    );
    assert_eq!(metrics.supervisor.started_total.get(), 1);
    assert_eq!(metrics.supervisor.restarts_total.get(), 2);
    assert_eq!(metrics.supervisor.gave_up_total.get(), 1);
    // The budget check precedes the sleep, so only the two absorbed
    // attempts slept: backoff(1) + backoff(2).
    let expected_ms: u64 = (1..=2).map(|a| restart.backoff(a).as_millis() as u64).sum();
    assert_eq!(metrics.supervisor.backoff_ms_total.get(), expected_ms);
}

/// Supervision is transparent when nothing goes wrong: a supervised run
/// and a plain run over the same stream produce identical reports.
#[test]
fn supervised_clean_run_matches_plain_run() {
    let send_all = |send: &dyn Fn(FlowRecord) -> bool| {
        for t in 0..8u64 {
            for i in 0..10u64 {
                send(record(t * 1_000 + i * 90, (i % 4) as u32, 100 * (t + 1)));
            }
        }
    };
    let plain = spawn_streaming(streaming_config());
    send_all(&|r| plain.send(r));
    let (plain_reports, plain_events, plain_n, _) = plain.shutdown().expect("clean");
    assert!(plain_events.is_empty(), "an unsupervised stream announces nothing");

    let sup = spawn_streaming(supervised(None, RestartPolicy::default(), None));
    send_all(&|r| sup.send(r));
    let (sup_reports, events, sup_n, _) = sup.shutdown().expect("clean");

    assert_eq!(plain_reports, sup_reports);
    assert_eq!(plain_n, sup_n);
    assert_eq!(events, vec![LifecycleEvent::Started]);
}

/// Out-of-order records within the stream do not derail binning: records
/// late by less than an interval fold into the current interval, and the
/// report sequence stays sequential.
#[test]
fn out_of_order_records_keep_interval_sequence() {
    let handle = spawn_streaming(streaming_config());
    // Interval 0 arrives interleaved out of order.
    for ts in [700u64, 100, 900, 300, 500] {
        handle.send(record(ts, 1, 100));
    }
    // Jump to interval 2, then a straggler from interval 1 arrives late.
    handle.send(record(2_200, 1, 100));
    handle.send(record(1_800, 1, 100)); // late: folds into interval 2
    handle.send(record(2_600, 1, 100));
    let (reports, _, processed, _) = handle.shutdown().expect("clean");
    assert_eq!(processed, 8);
    let idx: Vec<usize> = reports.iter().map(|r| r.interval).collect();
    assert_eq!(idx, vec![0, 1, 2], "sequential intervals: {idx:?}");
    // The straggler's bytes are counted (in interval 2), not dropped.
    let total: f64 = reports.iter().flat_map(|r| &r.errors).map(|(_, e)| e.abs()).sum();
    assert!(total.is_finite());
}

/// Permuting record order *within* one interval does not change the
/// interval's report (sketch updates commute).
#[test]
fn intra_interval_order_is_irrelevant() {
    let run = |order: &[u64]| {
        let handle = spawn_streaming(streaming_config());
        for &i in order {
            handle.send(record(i * 7 % 1_000, (i % 5) as u32, 100 + i));
        }
        handle.send(record(1_500, 0, 1)); // flush boundary
        let (reports, ..) = handle.shutdown().expect("clean");
        reports
    };
    let forward: Vec<u64> = (0..60).collect();
    let mut backward = forward.clone();
    backward.reverse();
    assert_eq!(run(&forward)[0], run(&backward)[0]);
}

/// Process-level resume: a *new* supervised detector pointed at an
/// existing checkpoint file picks up where the previous run left off —
/// its first report continues the interval sequence instead of starting
/// over at 0 (and quietly overwriting the old checkpoint).
#[test]
fn new_process_resumes_from_existing_checkpoint() {
    let path = temp_path("process-resume.ckpt");
    std::fs::remove_file(&path).ok();
    let policy = || Some(CheckpointPolicy { path: path.clone(), every: 2 });

    // First "process": 6 intervals, checkpointed every 2 (and once more at
    // the final flush).
    let first = spawn_streaming(supervised(policy(), RestartPolicy::default(), None));
    for t in 0..6u64 {
        for i in 0..5u64 {
            assert!(first.send(record(t * 1_000 + i * 100, (i % 3) as u32, 400 + t)));
        }
    }
    let (first_reports, _, _, _) = first.shutdown().expect("clean first run");
    let first_max = first_reports.iter().map(|r| r.interval).max().expect("reports");

    // Second "process", same config and checkpoint path, fed the next
    // stretch of the stream.
    let second = spawn_streaming(supervised(policy(), RestartPolicy::default(), None));
    for t in 6..9u64 {
        for i in 0..5u64 {
            assert!(second.send(record(t * 1_000 + i * 100, (i % 3) as u32, 400 + t)));
        }
    }
    let (reports, events, _, _) = second.shutdown().expect("clean second run");
    assert!(events.contains(&LifecycleEvent::Started));
    assert!(
        !events.iter().any(|e| matches!(e, LifecycleEvent::Degraded { .. })),
        "valid checkpoint must not degrade: {events:?}"
    );
    let min = reports.iter().map(|r| r.interval).min().expect("second run reports");
    assert!(
        min > first_max,
        "second process restarted from interval {min} instead of resuming past {first_max}"
    );
    std::fs::remove_file(&path).ok();
}

/// Overload accounting survives a fully shed tail: when every record of
/// the stream is shed by the sampler (nothing ever reaches the detector),
/// the shed counts still surface in a report instead of vanishing, so
/// `processed + lost == sent` holds.
#[test]
fn fully_shed_tail_still_surfaces_drop_counters() {
    let mut cfg = streaming_config();
    // Rate low enough that (deterministically, for this seed) all 50
    // records are shed.
    cfg.overload = OverloadPolicy::Sample { rate: 1e-9, seed: 7 };
    let handle = spawn_streaming(cfg);
    for i in 0..50u64 {
        assert!(handle.send(record(i * 10, 1, 100)));
    }
    let (reports, _, processed, _) = handle.shutdown().expect("clean");
    assert_eq!(processed, 0, "every record should have been shed");
    let shed: u64 = reports.iter().map(|r| r.drops.shed).sum();
    let admitted: u64 = reports.iter().map(|r| r.drops.sampled_in).sum();
    assert_eq!(shed + admitted, 50, "tail counters lost: {reports:?}");
}

/// One way to start a stream: what the caller sets on the engine's
/// [`Supervision`] is what runs. Its event sender receives the lifecycle
/// (the handle's own stream stays empty), its restart budget of one gives
/// up at the second panic, and its fault plan is the one that fires.
#[test]
fn the_callers_supervision_is_the_one_in_effect() {
    let (events_tx, events) = sync_channel(64);
    let mut config = streaming_config();
    config.engine = config.engine.with_supervision(Supervision {
        restart: RestartPolicy { max_restarts: 1, backoff_base_ms: 1, backoff_cap_ms: 1 },
        checkpoint: None,
        fault: Some(FaultPlan::panic_at(7, "first").and_panic_at(7, "second")),
        events: Some(events_tx),
    });
    let handle = spawn_streaming(config);
    let mut refused = false;
    for i in 0..10_000u64 {
        if !handle.send(record(i * 250, 1, 10)) {
            refused = true;
            break;
        }
    }
    assert!(refused, "a budget of one must give up at the second panic");
    let (_reports, own_events, _, _) = handle.shutdown().expect("supervisor survives");
    assert!(own_events.is_empty(), "the handle took events meant for the caller: {own_events:?}");
    let events: Vec<LifecycleEvent> = events.try_iter().collect();
    assert_eq!(
        events,
        vec![
            LifecycleEvent::Started,
            LifecycleEvent::Restarted {
                attempt: 1,
                resumed_intervals: 0,
                panic: "injected fault: first".into()
            },
            LifecycleEvent::GaveUp { attempts: 1 },
        ]
    );
}
