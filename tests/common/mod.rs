//! Fixed-seed fixtures of every persisted and transmitted format, shared
//! by the golden-digest test and the hostile-input suite. Changing one
//! changes golden bytes: don't.
#![allow(dead_code)] // each test crate uses its own subset

use sketch_change::archive::{ArchiveConfig, SketchArchive};
use sketch_change::core::{
    Checkpoint, DetectorConfig, GlrConfig, GlrDetector, GlrEngineSnapshot, KeyStrategy,
    ProvisionalAlarm, SketchChangeDetector,
};
use sketch_change::forecast::ModelSpec;
use sketch_change::net::Frame;
use sketch_change::serve::{Request, Response};
use sketch_change::sketch::{self, KarySketch, SketchConfig};
use sketch_change::traffic::{FlowRecord, RouterProfile, TrafficGenerator};

pub fn items(t: u64) -> Vec<(u64, f64)> {
    (0..40u64)
        .map(|k| (k * 2_654_435_761 % 100_003, 50.0 + ((t * 13 + k * 7) % 97) as f64))
        .collect()
}

pub fn sample_sketch(t: u64) -> KarySketch {
    let mut s = KarySketch::new(SketchConfig { h: 5, k: 1024, seed: 0x5CD });
    for (key, value) in items(t) {
        s.update(key, value);
    }
    s
}

pub fn sample_trace() -> Vec<FlowRecord> {
    let mut cfg = RouterProfile::Small.config(2003);
    cfg.records_per_sec = 20.0;
    cfg.interval_secs = 60;
    let mut g = TrafficGenerator::new(cfg);
    (0..3).flat_map(|t| g.interval_records(t)).collect()
}

pub fn sample_archive() -> SketchArchive<KarySketch> {
    let mut archive: SketchArchive<KarySketch> = SketchArchive::new(ArchiveConfig {
        max_sketches: 4,
        full_resolution: 2,
        keys_per_epoch: 8,
    })
    .unwrap();
    for t in 0..9 {
        let notable: Vec<(u64, f64)> = items(t).into_iter().take(12).collect();
        archive.push(sample_sketch(t), &notable).unwrap();
    }
    archive
}

fn checkpoint_config() -> DetectorConfig {
    DetectorConfig {
        sketch: SketchConfig { h: 3, k: 256, seed: 11 },
        model: ModelSpec::Ewma { alpha: 0.5 },
        threshold: 0.05,
        key_strategy: KeyStrategy::TwoPass,
    }
}

/// A checkpoint without GLR state.
pub fn plain_checkpoint() -> Checkpoint {
    let config = checkpoint_config();
    let mut det = SketchChangeDetector::new(config.clone());
    for t in 0..6 {
        det.process_interval(&items(t));
    }
    Checkpoint {
        config,
        snapshot: det.snapshot(),
        next_interval: Some(6),
        processed: 240,
        staggered: None,
        glr: None,
    }
}

/// [`plain_checkpoint`]'s fixture under `model`, cut after `intervals`
/// intervals.
pub fn model_checkpoint(model: ModelSpec, intervals: u64) -> Checkpoint {
    let config = DetectorConfig { model, ..checkpoint_config() };
    let mut det = SketchChangeDetector::new(config.clone());
    for t in 0..intervals {
        det.process_interval(&items(t));
    }
    Checkpoint {
        config,
        snapshot: det.snapshot(),
        next_interval: Some(intervals),
        processed: 40 * intervals,
        staggered: None,
        glr: None,
    }
}

/// [`plain_checkpoint`] plus a GLR layer caught mid-slot with a
/// provisional alarm queued.
pub fn v2_checkpoint() -> Checkpoint {
    let mut ck = plain_checkpoint();
    let glr_cfg =
        GlrConfig { max_window: 4, projections: 8, ..GlrConfig::new(16.0, ck.config.sketch.seed) };
    let mut glr = GlrDetector::new(glr_cfg.clone());
    for s in 0..11 {
        glr.observe_slice(&items(s));
        glr.end_slot();
    }
    glr.observe(99, 1234.5);
    ck.glr = Some((
        glr_cfg,
        GlrEngineSnapshot {
            detector: glr.snapshot(),
            pending: vec![(
                2,
                ProvisionalAlarm {
                    key_hint: Some(777),
                    onset_slot: 9,
                    raised_slot: 10,
                    statistic: 42.5,
                    window: 2,
                },
            )],
            closes: vec![(1, 4), (2, 8)],
            ingest_interval: 2,
        },
    ));
    ck
}

pub fn interval_frame() -> Frame {
    Frame::Interval {
        node: 1,
        interval: 7,
        data: sketch::to_bytes(&sample_sketch(7)),
        data_keys: items(7).into_iter().map(|(k, _)| k).collect(),
        parity: sketch::to_bytes(&sample_sketch(8)),
        parity_keys: items(8).into_iter().map(|(k, _)| k).collect(),
    }
}

/// [`interval_frame`] as an ingest node ships it: both blobs packed.
pub fn packed_interval_frame() -> Frame {
    Frame::Interval {
        node: 1,
        interval: 7,
        data: sketch::wire::to_bytes_packed(&sample_sketch(7)),
        data_keys: items(7).into_iter().map(|(k, _)| k).collect(),
        parity: sketch::wire::to_bytes_packed(&sample_sketch(8)),
        parity_keys: items(8).into_iter().map(|(k, _)| k).collect(),
    }
}

pub fn changed_keys_request() -> Request {
    Request::ChangedKeys { from: 3, to: 9, threshold: 0.05 }
}

pub fn changed_keys_response() -> Response {
    Response::ChangedKeys {
        as_of: 31,
        requested: (3, 9),
        covered: (2, 10),
        epochs_used: 4,
        error_f2: 123.5,
        alarm_threshold: 0.55,
        changes: items(5).into_iter().take(12).collect(),
    }
}
