//! One hash family per process: every constructor that needs the family of
//! an `(H, K, seed)` gets the same `Arc<HashRows>` while any holder of it
//! lives, another identity gets another family, and once the last holder
//! drops, the tables go with it.
//!
//! This is a test binary of its own because the family registry is
//! process-wide: a family another test holds would keep one alive here.

use scd_archive::{ArchiveConfig, SketchArchive};
use scd_core::{
    Checkpoint, DetectStage, DetectorConfig, EngineConfig, KeyStrategy, ShardedIngest,
    SketchChangeDetector,
};
use scd_forecast::ModelSpec;
use scd_hash::HashRows;
use scd_sketch::{CountMinSketch, Deltoid, DeltoidConfig, KarySketch, SketchConfig};
use std::sync::{Arc, Weak};

const SKETCH: SketchConfig = SketchConfig { h: 5, k: 1024, seed: 0x0F_A417 };

fn detector_config() -> DetectorConfig {
    DetectorConfig {
        sketch: SKETCH,
        model: ModelSpec::Ewma { alpha: 0.5 },
        threshold: 0.1,
        key_strategy: KeyStrategy::TwoPass,
    }
}

fn family() -> Arc<HashRows> {
    HashRows::shared(SKETCH.h, SKETCH.k, SKETCH.seed)
}

/// A detector with sketches in its model state, checkpointed and restored
/// through the checkpoint's own decoder.
fn restored_detector() -> SketchChangeDetector {
    let mut detector = SketchChangeDetector::new(detector_config());
    for t in 0..3u64 {
        detector.process_interval(&[(7, 100.0 + t as f64)]);
    }
    let checkpoint = Checkpoint {
        config: detector_config(),
        snapshot: detector.snapshot(),
        next_interval: None,
        processed: 0,
        staggered: None,
        glr: None,
    };
    drop(detector);
    Checkpoint::from_bytes(&checkpoint.to_bytes()).unwrap().restore_detector().unwrap()
}

/// The sketches of an archive's epochs, decoded from its bytes.
fn archived_epochs() -> Vec<KarySketch> {
    let config = ArchiveConfig { max_sketches: 4, full_resolution: 2, keys_per_epoch: 4 };
    let mut archive = SketchArchive::new(config).unwrap();
    for t in 0..6u64 {
        let mut s = KarySketch::new(SKETCH);
        s.update(t, 1.0);
        archive.push(s, &[(t, 1.0)]).unwrap();
    }
    let back = scd_archive::wire::from_bytes(&scd_archive::wire::to_bytes(&archive)).unwrap();
    back.epochs().map(|epoch| back.dense_sketch(epoch).into_owned()).collect()
}

#[test]
fn every_holder_of_one_identity_shares_one_family() {
    let rows = family();
    let sketch = KarySketch::new(SKETCH);
    let detector = SketchChangeDetector::new(detector_config());
    let one_shard = ShardedIngest::new(SKETCH, 1).unwrap();
    let two_shards = ShardedIngest::new(SKETCH, 2).unwrap();
    let (stage, _) = DetectStage::from_config(&EngineConfig::new(detector_config(), 2)).unwrap();
    let restored = restored_detector();
    let epochs = archived_epochs();
    let count_min = CountMinSketch::new(SKETCH.h, SKETCH.k, SKETCH.seed);
    let deltoid =
        Deltoid::new(DeltoidConfig { h: SKETCH.h, k: SKETCH.k, key_bits: 32, seed: SKETCH.seed });

    let holders = [
        ("KarySketch::new", sketch.rows()),
        ("SketchChangeDetector::new", detector.rows()),
        ("ShardedIngest::new, 1 shard", one_shard.rows()),
        ("ShardedIngest::new, 2 shards", two_shards.rows()),
        ("DetectStage::from_config", stage.rows()),
        ("Checkpoint::from_bytes", restored.rows()),
        ("CountMinSketch::new", count_min.rows()),
        ("Deltoid::new", deltoid.rows()),
    ];
    for (what, held) in holders {
        assert!(Arc::ptr_eq(held, &rows), "{what} built a family of its own");
    }
    assert!(epochs.len() >= 2, "the archive holds several epochs");
    for (i, epoch) in epochs.iter().enumerate() {
        assert!(Arc::ptr_eq(epoch.rows(), &rows), "archive epoch {i} built a family of its own");
    }
}

#[test]
fn another_identity_gets_another_family() {
    let rows = family();
    let (h, k, seed) = rows.identity();
    for (other_h, other_k, other_seed) in [(h, k, seed + 1), (h + 2, k, seed), (h, k * 2, seed)] {
        let other = HashRows::shared(other_h, other_k, other_seed);
        assert!(!Arc::ptr_eq(&other, &rows));
        assert_eq!(other.identity(), (other_h, other_k, other_seed));
        assert!(Arc::ptr_eq(&other, &HashRows::shared(other_h, other_k, other_seed)));
    }
}

#[test]
fn the_registry_keeps_no_family_alive() {
    // An identity no other test here uses, so nothing else holds it.
    let (h, k, seed) = (3, 256, 0xD0_0D);
    let first = HashRows::shared(h, k, seed);
    let sketch = KarySketch::new(SketchConfig { h, k, seed });
    assert!(Arc::ptr_eq(sketch.rows(), &first));
    let weak: Weak<HashRows> = Arc::downgrade(&first);
    drop((first, sketch));
    assert!(weak.upgrade().is_none(), "the family outlived its last holder");
    let fresh = HashRows::shared(h, k, seed);
    assert_eq!(fresh.identity(), (h, k, seed));
    assert!(Arc::strong_count(&fresh) == 1, "the fresh family has one holder: this test");
}
