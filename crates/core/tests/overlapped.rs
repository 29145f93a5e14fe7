//! Acceptance tests for the ingest/detect pipeline (interval turnover
//! tentpole):
//!
//! 1. With detection overlapped on its own thread, every
//!    `IntervalReport` is **bit-identical** (`==`, no epsilon) to the
//!    sequential engine's — for all five paper models plus the seasonal
//!    extension, across every key strategy. The pipelined path reuses
//!    every buffer (double-buffered observed sketches, recycled merge
//!    destination, in-place forecast recursions), and these tests pin
//!    that none of that recycling perturbs a single bit.
//! 2. A checkpoint taken mid-pipeline — with an interval still in
//!    flight on the detect thread — restores a detector whose future
//!    reports are bit-identical to the pipeline's own.
//! 3. The recycled/preallocated forecast workspaces never leak into
//!    checkpoints: snapshot → wire bytes → restore round-trips bit-exact
//!    for every model even after long in-place steady-state runs.

use scd_archive::ArchiveConfig;
use scd_core::{
    Checkpoint, DetectorConfig, EngineConfig, IntervalReport, KeyStrategy, ShardedEngine,
    SketchChangeDetector,
};
use scd_forecast::{ArimaSpec, ModelSpec};
use scd_hash::SplitMix64;
use scd_sketch::SketchConfig;

/// The paper's five models (§3.2) plus the seasonal extension.
fn all_models() -> Vec<ModelSpec> {
    vec![
        ModelSpec::Ma { window: 3 },
        ModelSpec::Sma { window: 4 },
        ModelSpec::Ewma { alpha: 0.4 },
        ModelSpec::Nshw { alpha: 0.5, beta: 0.3 },
        ModelSpec::Arima(ArimaSpec::new(1, &[0.6], &[0.3]).unwrap()),
        ModelSpec::Shw { alpha: 0.5, beta: 0.2, gamma: 0.4, period: 3 },
    ]
}

fn detector_config(model: ModelSpec, strategy: KeyStrategy) -> DetectorConfig {
    DetectorConfig {
        sketch: SketchConfig { h: 5, k: 1024, seed: 0x000F_F5E7 },
        model,
        threshold: 0.05,
        key_strategy: strategy,
    }
}

/// One interval of synthetic traffic: ~500 updates over ~180 keys with
/// integer volumes (exact in f64), plus a burst late in the run so the
/// alarm path is exercised, not just the quiet path.
fn interval_updates(t: u64) -> Vec<(u64, f64)> {
    let mut rng = SplitMix64::new(0x00BE_21A9 ^ t);
    let mut items: Vec<(u64, f64)> = (0..500)
        .map(|_| {
            let key = rng.next_below(180);
            let volume = (rng.next_below(900) + 1) as f64;
            (key, volume)
        })
        .collect();
    if t == 10 {
        items.push((0x000B_0057, 1_500_000.0));
    }
    items
}

/// Runs `intervals` through a pipelined engine with the overlapped API
/// and returns the reports in interval order.
fn run_pipelined(config: EngineConfig, intervals: u64) -> Vec<IntervalReport> {
    let mut engine = ShardedEngine::new(config.with_pipeline()).unwrap();
    let mut reports = Vec::new();
    for t in 0..intervals {
        engine.push_slice(&interval_updates(t)).unwrap();
        let report = engine.end_interval_overlapped().unwrap();
        // Pipelined, each close returns the interval before it.
        assert_eq!(report.is_none(), t == 0, "interval {t}");
        reports.extend(report);
    }
    if let Some(last) = engine.drain().unwrap() {
        reports.push(last);
    }
    reports
}

fn run_sequential(config: EngineConfig, intervals: u64) -> Vec<IntervalReport> {
    let mut engine = ShardedEngine::new(config).unwrap();
    (0..intervals).map(|t| engine.process_interval(&interval_updates(t)).unwrap()).collect()
}

#[test]
fn pipelined_reports_bit_identical_to_sequential() {
    let strategies = [
        KeyStrategy::TwoPass,
        KeyStrategy::NextInterval,
        KeyStrategy::Sampled { rate: 0.5, seed: 77 },
    ];
    for model in all_models() {
        for strategy in strategies {
            let config = EngineConfig::new(detector_config(model.clone(), strategy), 4);
            let overlapped = run_pipelined(config.clone(), 14);
            let sequential = run_sequential(config, 14);
            assert_eq!(overlapped.len(), sequential.len(), "{model:?} {strategy:?} lost reports");
            for (t, (a, b)) in overlapped.iter().zip(&sequential).enumerate() {
                assert_eq!(a, b, "{model:?} {strategy:?} diverged on interval {t}");
            }
        }
    }
}

#[test]
fn pipelined_blocking_close_matches_sequential() {
    // `end_interval` works in pipeline mode too (ship + wait): same
    // reports, no lag — the drop-in path for callers that don't overlap.
    let config =
        EngineConfig::new(detector_config(ModelSpec::Ewma { alpha: 0.4 }, KeyStrategy::TwoPass), 4);
    let mut pipelined = ShardedEngine::new(config.clone().with_pipeline()).unwrap();
    let mut sequential = ShardedEngine::new(config).unwrap();
    for t in 0..8u64 {
        let items = interval_updates(t);
        let a = pipelined.process_interval(&items).unwrap();
        let b = sequential.process_interval(&items).unwrap();
        assert_eq!(a, b, "interval {t}");
    }
    assert!(pipelined.drain().unwrap().is_none(), "blocking close leaves nothing in flight");
}

#[test]
fn pipelined_archive_matches_sequential_archive() {
    // The archive lives on the detect thread in pipeline mode;
    // `take_archive` retrieves it after draining, and its contents match
    // the sequential engine's bit for bit (same pushes, same order).
    let archive_cfg = ArchiveConfig { max_sketches: 16, full_resolution: 4, keys_per_epoch: 16 };
    let config =
        EngineConfig::new(detector_config(ModelSpec::Ewma { alpha: 0.4 }, KeyStrategy::TwoPass), 4)
            .with_archive(archive_cfg);

    let mut pipelined = ShardedEngine::new(config.clone().with_pipeline()).unwrap();
    for t in 0..12u64 {
        pipelined.push_slice(&interval_updates(t)).unwrap();
        pipelined.end_interval_overlapped().unwrap();
    }
    pipelined.drain().unwrap();
    let from_pipeline = pipelined.take_archive().expect("archive configured");

    let mut sequential = ShardedEngine::new(config).unwrap();
    for t in 0..12u64 {
        sequential.process_interval(&interval_updates(t)).unwrap();
    }
    let reference = sequential.take_archive().expect("archive configured");

    assert_eq!(from_pipeline.coverage(), reference.coverage());
    assert_eq!(from_pipeline.sketch_count(), reference.sketch_count());
    let (start, end) = from_pipeline.coverage().unwrap();
    for t in start..end {
        let a = from_pipeline.range_sketch(t, t + 1).unwrap();
        let b = reference.range_sketch(t, t + 1).unwrap();
        assert_eq!(a.covered, b.covered, "interval {t}");
        assert!(a.sketch.estimate_f2() == b.sketch.estimate_f2(), "interval {t} F2");
    }
}

#[test]
fn mid_pipeline_checkpoint_restores_bit_exact() {
    // Checkpoint while an interval is still in flight on the detect
    // thread: the snapshot round-trips through the detect queue, so it
    // reflects that interval. A detector restored from the serialized
    // checkpoint must then report bit-identically to the live pipeline.
    for model in all_models() {
        let det_cfg = detector_config(model.clone(), KeyStrategy::TwoPass);
        let config = EngineConfig::new(det_cfg.clone(), 4).with_pipeline();
        let mut engine = ShardedEngine::new(config).unwrap();
        for t in 0..9u64 {
            engine.push_slice(&interval_updates(t)).unwrap();
            engine.end_interval_overlapped().unwrap();
        }
        // Interval 8's report has not been drained yet — it is (or just
        // was) in flight. The snapshot still covers it.
        let snapshot = engine.detector_snapshot().unwrap();
        let checkpoint = Checkpoint {
            config: det_cfg,
            snapshot,
            next_interval: None,
            processed: 0,
            staggered: None,
            glr: None,
        };
        let bytes = checkpoint.to_bytes();
        let mut restored = Checkpoint::from_bytes(&bytes).unwrap().restore_detector().unwrap();

        engine.drain().unwrap();
        for t in 9..15u64 {
            let items = interval_updates(t);
            engine.push_slice(&items).unwrap();
            engine.end_interval_overlapped().unwrap();
            let live = engine.drain().unwrap().expect("one interval in flight");
            let resumed = restored.process_interval(&items);
            assert_eq!(live, resumed, "{model:?} diverged on interval {t} after restore");
        }
    }
}

#[test]
fn recycled_forecast_state_checkpoints_bit_exact() {
    // Long steady-state runs exercise every in-place recursion and
    // recycled workspace; none of that scratch is model state, so a
    // snapshot → bytes → restore round trip must resume bit-exact for
    // every model.
    for model in all_models() {
        let det_cfg = detector_config(model.clone(), KeyStrategy::NextInterval);
        let mut detector = SketchChangeDetector::new(det_cfg.clone());
        for t in 0..20u64 {
            detector.process_interval(&interval_updates(t));
        }
        let checkpoint = Checkpoint {
            config: det_cfg,
            snapshot: detector.snapshot(),
            next_interval: None,
            processed: 0,
            staggered: None,
            glr: None,
        };
        let bytes = checkpoint.to_bytes();
        let mut restored = Checkpoint::from_bytes(&bytes).unwrap().restore_detector().unwrap();
        for t in 20..30u64 {
            let items = interval_updates(t);
            let a = detector.process_interval(&items);
            let b = restored.process_interval(&items);
            assert_eq!(a, b, "{model:?} diverged on interval {t} after restore");
        }
    }
}
