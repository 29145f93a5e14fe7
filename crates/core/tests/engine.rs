//! Acceptance tests for the sharded ingest engine (the tentpole claims):
//!
//! 1. At `N ≥ 4` shards, every `IntervalReport` — estimates, F2, alarm
//!    thresholds, alarm sets — is **bit-identical** to the
//!    single-threaded detector's, for every key strategy. Integer update
//!    values make every sketch cell an exact sum, so the partition and
//!    merge cannot perturb even the last bit.
//! 2. With an archive attached, an anomaly injected into a past interval
//!    is answered by a historical change query over a dyadic window,
//!    within the archive's sketch budget.

use scd_archive::ArchiveConfig;
use scd_core::{DetectorConfig, EngineConfig, KeyStrategy, ShardedEngine, SketchChangeDetector};
use scd_forecast::ModelSpec;
use scd_hash::SplitMix64;
use scd_sketch::SketchConfig;

fn detector_config(strategy: KeyStrategy) -> DetectorConfig {
    DetectorConfig {
        sketch: SketchConfig { h: 5, k: 1024, seed: 0x5CD },
        model: ModelSpec::Ewma { alpha: 0.4 },
        threshold: 0.05,
        key_strategy: strategy,
    }
}

/// One interval of synthetic traffic: ~600 updates over ~200 keys with
/// integer volumes (exact in f64), plus an optional injected burst.
fn interval_updates(t: u64, burst: Option<(u64, f64)>) -> Vec<(u64, f64)> {
    let mut rng = SplitMix64::new(0xE614E ^ t);
    let mut items: Vec<(u64, f64)> = (0..600)
        .map(|_| {
            let key = rng.next_below(200);
            let volume = (rng.next_below(1_000) + 1) as f64;
            (key, volume)
        })
        .collect();
    if let Some((key, volume)) = burst {
        items.push((key, volume));
    }
    items
}

#[test]
fn sharded_reports_bit_identical_to_single_threaded() {
    let strategies = [
        KeyStrategy::TwoPass,
        KeyStrategy::NextInterval,
        KeyStrategy::Sampled { rate: 0.5, seed: 77 },
    ];
    for strategy in strategies {
        for shards in [2usize, 4, 8] {
            let mut engine =
                ShardedEngine::new(EngineConfig::new(detector_config(strategy), shards)).unwrap();
            let mut reference = SketchChangeDetector::new(detector_config(strategy));
            for t in 0..12u64 {
                let burst = (t == 9).then_some((0xDD05_u64, 2_000_000.0));
                let items = interval_updates(t, burst);
                let sharded = engine.process_interval(&items).unwrap();
                let single = reference.process_interval(&items);
                assert_eq!(
                    sharded, single,
                    "{strategy:?} at {shards} shards diverged on interval {t}"
                );
                if t == 9 && matches!(strategy, KeyStrategy::TwoPass) {
                    assert!(
                        sharded.alarms.iter().any(|a| a.key == 0xDD05),
                        "burst missed at {shards} shards"
                    );
                }
            }
        }
    }
}

#[test]
fn archive_answers_historical_change_query() {
    let archive_cfg = ArchiveConfig { max_sketches: 12, full_resolution: 4, keys_per_epoch: 32 };
    let burst_key = 0xABCD_u64;
    // The archive after the first `intervals` intervals, with a burst at
    // interval 20.
    let archive_after = |intervals: u64| {
        let mut engine = ShardedEngine::new(
            EngineConfig::new(detector_config(KeyStrategy::TwoPass), 4).with_archive(archive_cfg),
        )
        .unwrap();
        for t in 0..intervals {
            let burst = (t == 20).then_some((burst_key, 3_000_000.0));
            engine.process_interval(&interval_updates(t, burst)).unwrap();
        }
        engine.take_archive().expect("archive configured")
    };
    // Query after 23 intervals, while 20 is still inside the
    // full-resolution window, then after 64, once it has decayed into a
    // dyadic epoch.
    {
        let archive = archive_after(23);
        // At full resolution the error history pinpoints the burst to
        // its exact interval…
        let history = archive.key_history(burst_key, 16, 23).unwrap();
        let hot: Vec<_> = history.iter().filter(|p| p.total > 1_000_000.0).collect();
        assert_eq!(hot.len(), 1, "burst not localized: {history:?}");
        assert_eq!((hot[0].start, hot[0].len), (20, 1));
        // …and the model's subsequent adaptation shows as negative
        // forecast error (the telescoping that later cancels inside
        // coarse epochs — see DESIGN.md).
        let correction: f64 = history.iter().filter(|p| p.start > 20).map(|p| p.total).sum();
        assert!(correction < -500_000.0, "no post-burst correction visible: {history:?}");
    }
    let archive = archive_after(64);
    assert!(archive.sketch_count() <= 12, "budget exceeded: {}", archive.sketch_count());
    assert_eq!(archive.coverage(), Some((0, 64)), "archive must track detector intervals");
    // The window [16, 32) now lives in the decayed region; the burst's
    // *net* unforecast volume still tops the change query.
    let report = archive.changed_keys(16, 32, 0.05, &[]).unwrap();
    assert_eq!(
        report.changes.first().map(|c| c.key),
        Some(burst_key),
        "burst not the top historical change: {report:?}"
    );
    assert!(report.epochs_used >= 1);
    // A quiet recent window stays quiet for that key.
    let quiet = archive.changed_keys(60, 64, 0.05, &[burst_key]).unwrap();
    assert!(quiet.changes.iter().all(|c| c.key != burst_key));
}

#[test]
fn warmup_gaps_are_backfilled_with_zero_epochs() {
    // MA(3) has no forecast for interval 0 (empty history), so no error
    // sketch exists for it; the interval must still occupy archive slot
    // 0 so indices line up.
    let config = DetectorConfig {
        sketch: SketchConfig { h: 3, k: 512, seed: 2 },
        model: ModelSpec::Ma { window: 3 },
        threshold: 0.05,
        key_strategy: KeyStrategy::TwoPass,
    };
    // Budget 12 > 10 intervals: nothing merges, so the query window
    // below covers exactly the warm-up intervals.
    let archive_cfg = ArchiveConfig { max_sketches: 12, full_resolution: 2, keys_per_epoch: 8 };
    let mut engine =
        ShardedEngine::new(EngineConfig::new(config, 4).with_archive(archive_cfg)).unwrap();
    for t in 0..10u64 {
        engine.process_interval(&interval_updates(t, None)).unwrap();
    }
    let archive = engine.take_archive().unwrap();
    assert_eq!(archive.coverage(), Some((0, 10)));
    // The warm-up interval carries zero error mass; the next one does
    // not (the model is live from interval 1 on).
    let warmup = archive.range_sketch(0, 1).unwrap();
    assert_eq!(warmup.covered, (0, 1));
    assert_eq!(warmup.sketch.estimate_f2(), 0.0);
    let live = archive.range_sketch(1, 2).unwrap();
    assert!(live.sketch.estimate_f2() > 0.0);
}

#[test]
fn next_interval_strategy_archives_with_lag() {
    let archive_cfg = ArchiveConfig { max_sketches: 8, full_resolution: 2, keys_per_epoch: 8 };
    let mut engine = ShardedEngine::new(
        EngineConfig::new(detector_config(KeyStrategy::NextInterval), 4).with_archive(archive_cfg),
    )
    .unwrap();
    for t in 0..10u64 {
        engine.process_interval(&interval_updates(t, None)).unwrap();
    }
    let archive = engine.take_archive().unwrap();
    // Interval 9's error sketch is still pending (never queried), so the
    // archive covers one less than the detector's interval count.
    assert_eq!(archive.coverage(), Some((0, 9)));
}
