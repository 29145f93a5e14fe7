//! Telemetry must be invisible to detection: attaching a
//! [`PipelineMetrics`] handle to an engine may cost a few atomic adds,
//! but it must not perturb a single bit of any `IntervalReport` — the
//! instrumentation reads timings and counts, never a sketch, an RNG, or
//! a sort. These tests pin that contract for every paper model, every
//! key strategy, and both engine drive modes, and sanity-check that the
//! counters the run *does* record tell a story consistent with the
//! traffic that was pushed.

use scd_core::{
    DetectorConfig, EngineConfig, IntervalReport, KeyStrategy, PipelineMetrics, ShardedEngine,
};
use scd_forecast::{ArimaSpec, ModelSpec};
use scd_hash::SplitMix64;
use scd_obs::Registry;
use scd_sketch::SketchConfig;
use std::sync::Arc;

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

fn all_strategies() -> [KeyStrategy; 3] {
    [KeyStrategy::TwoPass, KeyStrategy::NextInterval, KeyStrategy::Sampled { rate: 0.5, seed: 77 }]
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
/// integer volumes (exact in f64), plus a burst so alarms fire.
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

const INTERVALS: u64 = 14;
const SHARDS: usize = 4;

fn run_sequential(config: EngineConfig) -> Vec<IntervalReport> {
    let mut engine = ShardedEngine::new(config).unwrap();
    (0..INTERVALS).map(|t| engine.process_interval(&interval_updates(t)).unwrap()).collect()
}

fn run_pipelined(config: EngineConfig) -> Vec<IntervalReport> {
    let mut engine = ShardedEngine::new(config.with_pipeline()).unwrap();
    let mut reports = Vec::new();
    for t in 0..INTERVALS {
        engine.push_slice(&interval_updates(t)).unwrap();
        if let Some(report) = engine.end_interval_overlapped().unwrap() {
            reports.push(report);
        }
    }
    if let Some(last) = engine.drain().unwrap() {
        reports.push(last);
    }
    reports
}

#[test]
fn reports_bit_identical_with_and_without_telemetry() {
    for model in all_models() {
        for strategy in all_strategies() {
            let config = EngineConfig::new(detector_config(model.clone(), strategy), SHARDS);

            let registry = Registry::new();
            let metrics = PipelineMetrics::register(&registry);
            let instrumented = config.clone().with_metrics(Arc::clone(&metrics));

            let bare_seq = run_sequential(config.clone());
            let wired_seq = run_sequential(instrumented.clone());
            assert_eq!(
                bare_seq, wired_seq,
                "{model:?} {strategy:?}: sequential reports diverged with telemetry attached"
            );

            let bare_pipe = run_pipelined(config);
            let wired_pipe = run_pipelined(instrumented);
            assert_eq!(
                bare_pipe, wired_pipe,
                "{model:?} {strategy:?}: pipelined reports diverged with telemetry attached"
            );
            assert_eq!(bare_seq, bare_pipe, "{model:?} {strategy:?}: drive modes diverged");
        }
    }
}

#[test]
fn recorded_metrics_match_the_traffic() {
    let registry = Registry::new();
    let metrics = PipelineMetrics::register(&registry);
    let config = EngineConfig::new(
        detector_config(ModelSpec::Ewma { alpha: 0.4 }, KeyStrategy::TwoPass),
        SHARDS,
    )
    .with_metrics(Arc::clone(&metrics));
    let reports = run_sequential(config);

    let pushed: u64 = (0..INTERVALS).map(|t| interval_updates(t).len() as u64).sum();
    assert_eq!(metrics.engine.records_total.get(), pushed, "every pushed update is counted");
    assert_eq!(metrics.engine.intervals_total.get(), INTERVALS);
    assert_eq!(metrics.engine.detect_ns.count(), INTERVALS, "one detect span per interval");
    assert_eq!(metrics.engine.combine_ns.count(), INTERVALS);
    assert_eq!(metrics.engine.barrier_ns.count(), INTERVALS);
    assert!(metrics.engine.batches_total.get() >= INTERVALS, "at least one batch per interval");
    assert_eq!(
        metrics.engine.ingest_batch_ns.count(),
        metrics.engine.batches_total.get(),
        "one fold-latency sample per batch"
    );
    // Integer traffic through finite models: nothing non-finite to shed.
    assert_eq!(metrics.detector.non_finite_errors_total.get(), 0);
    let alarms: u64 = reports.iter().map(|r| r.alarms.len() as u64).sum();
    assert_eq!(metrics.detector.alarms_total.get(), alarms);
    assert!(alarms > 0, "the burst at t=10 must raise at least one alarm");
    // The detector skips warm-up intervals; it still sees most of them.
    let scanned = metrics.detector.intervals_total.get();
    assert!(
        scanned > 0 && scanned <= INTERVALS,
        "warmed-up interval count out of range: {scanned}"
    );

    // The rendered snapshot carries the same numbers end to end.
    let mut line = String::new();
    registry.render_jsonl(INTERVALS - 1, &mut line);
    let fields = scd_obs::parse_flat_json(&line).expect("snapshot parses");
    let get = |name: &str| {
        fields.iter().find(|(k, _)| k == name).unwrap_or_else(|| panic!("missing field {name}")).1
    };
    assert_eq!(get("scd_engine_records_total"), pushed as f64);
    assert_eq!(get("scd_detector_alarms_total"), alarms as f64);

    let mut exposition = String::new();
    registry.render_prometheus(&mut exposition);
    scd_obs::validate_exposition(&exposition).expect("exposition is well-formed");
}

/// `scd_engine_records_total` counts records pushed and
/// `scd_engine_updates_folded_total` what the shard tables folded. On
/// integer traffic the combining cache folds a key's records into one
/// update while it stays resident, so the tables fold fewer updates than
/// records were pushed; a fractional value sends every record of its
/// interval down the per-record path, one update each.
#[test]
fn updates_folded_are_counted_beside_records_pushed() {
    for fractional in [false, true] {
        for shards in [1usize, SHARDS] {
            let registry = Registry::new();
            let metrics = PipelineMetrics::register(&registry);
            let config = EngineConfig::new(
                detector_config(ModelSpec::Ewma { alpha: 0.4 }, KeyStrategy::TwoPass),
                shards,
            )
            .with_metrics(Arc::clone(&metrics));
            let mut engine = ShardedEngine::new(config).unwrap();
            let mut pushed = 0u64;
            for t in 0..INTERVALS {
                let mut items = interval_updates(t);
                if fractional {
                    items.iter_mut().for_each(|(_, v)| *v += 0.5);
                }
                pushed += items.len() as u64;
                engine.push_slice(&items).unwrap();
                engine.end_interval().unwrap();
            }
            let folded = metrics.engine.updates_folded_total.get();
            let what = format!("fractional {fractional}, {shards} shard(s)");
            assert_eq!(metrics.engine.records_total.get(), pushed, "{what}: records pushed");
            if fractional {
                assert_eq!(folded, pushed, "{what}: one update folded per record");
            } else {
                assert!(folded < pushed, "{what}: {folded} updates folded for {pushed} records");
            }
        }
    }
}
