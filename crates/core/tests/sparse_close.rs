//! The engine's close on the sparse shape: a few hundred keys an interval
//! into `K = 65 536` buckets, where the shard merge walks only the 64-byte
//! lines the interval wrote (`engine.rs` and `overlapped.rs` run ~200 keys
//! into `K = 1 024`, where every table is dense and the merge sweeps).
//!
//! For every model, inline and pipelined, at 1, 2 and 4 shards and under
//! every key strategy — with an archive and an interval observer attached
//! — the reports equal `SketchChangeDetector::process_interval`'s, the
//! error sketch the observer sees equals the reference detector's bit for
//! bit, and the archive's bytes equal those of an archive fed the
//! reference's error sketches. One interval in the middle is dense, so the
//! run goes sparse → dense → sparse through every merge destination, and
//! the merge counter shows the walk was taken.

use scd_archive::{ArchiveConfig, SketchArchive};
use scd_core::{
    notable_keys, DetectorConfig, EngineConfig, IntervalObserver, IntervalReport, KeyStrategy,
    PipelineMetrics, ShardedEngine, SketchChangeDetector,
};
use scd_forecast::{ArimaSpec, ModelSpec};
use scd_hash::{mix64, SplitMix64};
use scd_obs::Registry;
use scd_sketch::{KarySketch, SketchConfig};
use std::sync::{Arc, Mutex};

const SKETCH: SketchConfig = SketchConfig { h: 3, k: 65_536, seed: 0x005B_A25E };
const ARCHIVE: ArchiveConfig =
    ArchiveConfig { max_sketches: 4, full_resolution: 2, keys_per_epoch: 8 };
const INTERVALS: u64 = 7;
/// The interval that writes enough lines to make every table dense.
const DENSE: u64 = 2;

/// One interval: 800 records over 200 keys (integer volumes, exact in any
/// summation order), a burst at interval 6, and 40 000 records over as
/// many keys at [`DENSE`].
fn interval_updates(t: u64) -> Vec<(u64, f64)> {
    let mut rng = SplitMix64::new(0x5BA2 ^ t);
    let (records, keys) = if t == DENSE { (40_000, 40_000) } else { (800, 200) };
    let mut items: Vec<(u64, f64)> =
        (0..records).map(|_| (rng.next_below(keys), (rng.next_below(1_400) + 40) as f64)).collect();
    if t == 6 {
        items.push((0x0B0A_57ED, 3_000_000.0));
    }
    items
}

/// A digest of every cell's bits.
fn digest(sketch: &KarySketch) -> u64 {
    sketch.table().iter().fold(0, |acc, x| mix64(acc ^ x.to_bits()))
}

/// Records the error sketch of every closed interval, as a digest.
#[derive(Debug, Default)]
struct Seen(Mutex<Vec<(usize, u64)>>);

impl IntervalObserver for Seen {
    fn interval_closed(&self, _: &IntervalReport, error: Option<(usize, &KarySketch)>) {
        if let Some((t, error)) = error {
            self.0.lock().unwrap().push((t, digest(error)));
        }
    }
}

/// What a run leaves behind.
struct Outcome {
    reports: Vec<IntervalReport>,
    errors: Vec<(usize, u64)>,
    archive: Vec<u8>,
}

/// The reference: `process_interval` for the reports, and a second
/// detector on the same observed sketches for the error sketches, pushed
/// into an archive the way the engine's stage pushes them.
fn reference(config: &DetectorConfig) -> Outcome {
    let mut plain = SketchChangeDetector::new(config.clone());
    let mut archiving = SketchChangeDetector::new(config.clone());
    let mut archive = SketchArchive::<KarySketch>::new(ARCHIVE).unwrap();
    let (mut reports, mut errors) = (Vec::new(), Vec::new());
    for t in 0..INTERVALS {
        let items = interval_updates(t);
        let report = plain.process_interval(&items);
        let mut observed = KarySketch::new(config.sketch);
        for &(key, value) in &items {
            observed.update(key, value);
        }
        let keys = items.iter().map(|&(key, _)| key).collect();
        let (again, error) = archiving.process_observed_archiving(&observed, keys);
        assert_eq!(again, report, "the two reference detectors disagree");
        if let Some((t, error)) = error {
            errors.push((t, digest(&error)));
            while archive.next_interval() < t as u64 {
                archive.push(error.zero_like(), &[]).unwrap();
            }
            archive.push(error, &notable_keys(&report)).unwrap();
        }
        reports.push(report);
    }
    Outcome { reports, errors, archive: scd_archive::wire::to_bytes(&archive) }
}

/// The engine run, and how many of its merges walked lines.
fn engine(config: &DetectorConfig, shards: usize, pipeline: bool) -> (Outcome, u64) {
    let seen = Arc::new(Seen::default());
    let metrics = PipelineMetrics::register(&Registry::new());
    let mut engine_config = EngineConfig::new(config.clone(), shards)
        .with_archive(ARCHIVE)
        .with_observer(Arc::clone(&seen) as Arc<dyn IntervalObserver>)
        .with_metrics(Arc::clone(&metrics));
    if pipeline {
        engine_config = engine_config.with_pipeline();
    }
    let mut engine = ShardedEngine::new(engine_config).unwrap();
    let mut reports = Vec::new();
    for t in 0..INTERVALS {
        engine.push_slice(&interval_updates(t)).unwrap();
        reports.extend(engine.end_interval_overlapped().unwrap());
    }
    reports.extend(engine.drain().unwrap());
    let archive = scd_archive::wire::to_bytes(&engine.take_archive().unwrap());
    let errors = std::mem::take(&mut *seen.0.lock().unwrap());
    (Outcome { reports, errors, archive }, metrics.engine.sparse_merges_total.get())
}

/// The whole matrix for one model.
fn sparse_closes_equal_the_detector(model: ModelSpec) {
    let strategies = [
        KeyStrategy::TwoPass,
        KeyStrategy::NextInterval,
        KeyStrategy::Sampled { rate: 0.5, seed: 5 },
    ];
    for strategy in strategies {
        let config = DetectorConfig {
            sketch: SKETCH,
            model: model.clone(),
            threshold: 0.05,
            key_strategy: strategy,
        };
        let want = reference(&config);
        assert!(want.reports.iter().any(|r| !r.alarms.is_empty()), "{model:?}: nothing alarmed");
        for shards in [1usize, 2, 4] {
            for pipeline in [false, true] {
                let what = format!("{model:?}, {strategy:?}, {shards} shards, pipeline {pipeline}");
                let (got, walked) = engine(&config, shards, pipeline);
                assert_eq!(got.reports, want.reports, "{what}: reports");
                assert_eq!(got.errors, want.errors, "{what}: error sketches");
                assert!(got.archive == want.archive, "{what}: archive bytes");
                // The close after the dense one sweeps: its destination does
                // not know its lines. So does the dense one, unless one shard
                // swaps and only clears the sparse table the merge before held.
                let sweeps = if shards == 1 { 1 } else { 2 };
                assert_eq!(walked, INTERVALS - sweeps, "{what}: line walks");
            }
        }
    }
}

#[test]
fn ma() {
    sparse_closes_equal_the_detector(ModelSpec::Ma { window: 3 });
}

#[test]
fn sma() {
    sparse_closes_equal_the_detector(ModelSpec::Sma { window: 4 });
}

#[test]
fn ewma() {
    sparse_closes_equal_the_detector(ModelSpec::Ewma { alpha: 0.4 });
}

#[test]
fn nshw() {
    sparse_closes_equal_the_detector(ModelSpec::Nshw { alpha: 0.5, beta: 0.3 });
}

#[test]
fn arima0() {
    let spec = ArimaSpec::new(0, &[0.7, -0.1], &[0.3, 0.1]).unwrap();
    sparse_closes_equal_the_detector(ModelSpec::Arima(spec));
}

#[test]
fn arima1() {
    sparse_closes_equal_the_detector(ModelSpec::Arima(ArimaSpec::new(1, &[0.6], &[0.3]).unwrap()));
}

#[test]
fn shw() {
    sparse_closes_equal_the_detector(ModelSpec::Shw {
        alpha: 0.5,
        beta: 0.2,
        gamma: 0.4,
        period: 3,
    });
}
