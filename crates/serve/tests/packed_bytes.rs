//! The archives count packed bytes: an engine with a serving plane over a
//! skewed stream holds its history in a small fraction of the dense
//! bytes — so an epoch that silently stayed dense would fail here — and a
//! stream that writes every register keeps its epochs dense.

use scd_archive::ArchiveConfig;
use scd_core::{DetectorConfig, EngineConfig, IntervalObserver, KeyStrategy, ShardedEngine};
use scd_forecast::ModelSpec;
use scd_hash::SplitMix64;
use scd_serve::{RebuildMode, ServingPlane};
use scd_sketch::SketchConfig;
use std::sync::Arc;

/// The `scd detect --serve` / `--archive-out` shape.
const ARCHIVE: ArchiveConfig =
    ArchiveConfig { max_sketches: 64, full_resolution: 8, keys_per_epoch: 64 };
const H: usize = 5;

/// Keys drawn Zipf(`s`) over `universe` keys by inverse CDF.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(universe: usize, s: f64) -> Zipf {
        let mut total = 0.0;
        let mut cdf: Vec<f64> = (1..=universe)
            .map(|rank| {
                total += (rank as f64).powf(-s);
                total
            })
            .collect();
        cdf.iter_mut().for_each(|c| *c /= total);
        Zipf { cdf }
    }

    fn key(&self, rng: &mut SplitMix64) -> u64 {
        let u = rng.next_below(1 << 53) as f64 / (1u64 << 53) as f64;
        let rank = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
        (rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32
    }
}

/// An ARIMA1 engine at width `k` with the archive and an inline serving
/// plane, fed `intervals` intervals of `interval(t, rng)` updates.
fn run(
    k: usize,
    intervals: u64,
    interval: impl Fn(u64, &mut SplitMix64) -> Vec<(u64, f64)>,
) -> (ShardedEngine, Arc<ServingPlane>) {
    let detector = DetectorConfig {
        sketch: SketchConfig { h: H, k, seed: 0x5CD },
        model: ModelSpec::parse("arima1:0.5,0.2/0.3").unwrap(),
        threshold: 0.05,
        key_strategy: KeyStrategy::TwoPass,
    };
    let plane = ServingPlane::with_options(ARCHIVE, None, RebuildMode::Inline).unwrap();
    let config = EngineConfig::new(detector, 2)
        .with_archive(ARCHIVE)
        .with_observer(Arc::clone(&plane) as Arc<dyn IntervalObserver>);
    let mut engine = ShardedEngine::new(config).unwrap();
    let mut rng = SplitMix64::new(0xB17E5);
    for t in 0..intervals {
        engine.push_slice(&interval(t, &mut rng)).unwrap();
        engine.end_interval().unwrap();
    }
    (engine, plane)
}

/// Heap bytes of `epochs` dense tables of `cell` bytes a register.
fn dense(epochs: usize, k: usize, cell: usize) -> usize {
    epochs * H * k * cell
}

#[test]
fn a_full_archive_of_a_skewed_stream_holds_under_15_percent_of_its_dense_bytes() {
    const K: usize = 65_536;
    let zipf = Zipf::new(5_000, 1.1);
    let (mut engine, plane) = run(K, 72, |_, rng| {
        (0..500).map(|_| (zipf.key(rng), (rng.next_below(1_500) + 40) as f64)).collect()
    });
    let view = plane.view();
    let archive = engine.take_archive().unwrap();
    assert_eq!(archive.sketch_count(), 64, "the archive is full");
    assert!(archive.merges_total() > 0, "and compacting");
    assert!(
        archive.epochs().filter(|e| e.packed().is_some()).count() == 63,
        "all but the newest pack"
    );
    let (fat, fat_dense) = (archive.memory_bytes(), dense(64, K, 8));
    assert!(fat * 100 < fat_dense * 15, "engine archive: {fat} of {fat_dense} dense bytes");
    assert_eq!(view.archive.sketch_count(), 64);
    let (slim, slim_dense) = (view.memory_bytes(), dense(64, K, 4));
    assert!(slim * 100 < slim_dense * 15, "serving view: {slim} of {slim_dense} dense bytes");
}

/// Warm-up intervals reach the archives as zero back-fill, which packs to
/// nothing; every epoch that holds the stream stays dense.
#[test]
fn a_stream_that_writes_every_register_stays_dense() {
    const K: usize = 32_768;
    let (mut engine, plane) = run(K, 12, |_, rng| {
        (0..300_000u64).map(|key| (key, (rng.next_below(1_000) + 1) as f64)).collect()
    });
    let archive = engine.take_archive().unwrap();
    let view = plane.view();
    for (epochs, cell, bytes) in [
        (
            archive
                .epochs()
                .map(|e| (e.packed().map(|p| p.written()), e.notable().len()))
                .collect::<Vec<_>>(),
            8,
            archive.memory_bytes(),
        ),
        (
            view.archive
                .epochs()
                .map(|e| (e.packed().map(|p| p.written()), e.notable().len()))
                .collect(),
            4,
            view.memory_bytes(),
        ),
    ] {
        assert!(
            epochs.iter().all(|&(written, _)| written.unwrap_or(0) == 0),
            "a written epoch packed"
        );
        let dense_epochs = epochs.iter().filter(|(written, _)| written.is_none()).count();
        assert!(dense_epochs >= 8, "{dense_epochs} dense epochs");
        let directory: usize = epochs.iter().map(|&(_, keys)| keys * 16).sum();
        assert_eq!(bytes, dense(dense_epochs, K, cell) + directory);
    }
}
