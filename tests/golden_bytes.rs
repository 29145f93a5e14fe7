//! Golden digests of every CRC-footed format's bytes for fixed seeds.
//!
//! The CRC-32 kernels, the trace encoder and the streaming trace writer
//! may change how bytes are produced, never which bytes: each digest
//! below was recorded from the byte-at-a-time CRC and the field-by-field
//! encoder, and a kernel or encoder that writes anything else fails here.
//! The digest is FNV-1a/64 written in this file, so it shares no code with
//! the checksum under test.

use sketch_change::archive::{wire as archive_wire, ArchiveConfig, SketchArchive};
use sketch_change::core::{
    Checkpoint, DetectorConfig, GlrConfig, GlrDetector, GlrEngineSnapshot, KeyStrategy,
    ProvisionalAlarm, SketchChangeDetector, StaggeredDetector,
};
use sketch_change::forecast::ModelSpec;
use sketch_change::net::Frame;
use sketch_change::sketch::{self, KarySketch, SketchConfig};
use sketch_change::traffic::{io, FlowRecord, RouterProfile, TrafficGenerator};

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01B3))
}

/// Length and digest, so a failure says whether the size moved too.
fn digest(bytes: &[u8]) -> (usize, u64) {
    (bytes.len(), fnv1a64(bytes))
}

fn items(t: u64) -> Vec<(u64, f64)> {
    (0..40u64)
        .map(|k| (k * 2_654_435_761 % 100_003, 50.0 + ((t * 13 + k * 7) % 97) as f64))
        .collect()
}

fn sample_sketch(t: u64) -> KarySketch {
    let mut s = KarySketch::new(SketchConfig { h: 5, k: 1024, seed: 0x5CD });
    for (key, value) in items(t) {
        s.update(key, value);
    }
    s
}

fn sample_trace() -> Vec<FlowRecord> {
    let mut cfg = RouterProfile::Small.config(2003);
    cfg.records_per_sec = 20.0;
    cfg.interval_secs = 60;
    let mut g = TrafficGenerator::new(cfg);
    (0..3).flat_map(|t| g.interval_records(t)).collect()
}

#[test]
fn trace_bytes_are_golden() {
    let records = sample_trace();
    let bytes = io::to_binary(&records);
    assert_eq!(digest(&bytes), (120_924, 0x7B9D_47C1_266F_0DB9), "SCDTRC02 (to_binary)");
    let mut streamed = Vec::new();
    io::write_binary(&mut streamed, &records).unwrap();
    assert_eq!(streamed, bytes, "write_binary must emit to_binary's bytes");
}

#[test]
fn sketch_blob_is_golden() {
    let bytes = sketch::to_bytes(&sample_sketch(1));
    assert_eq!(&bytes[..8], b"SCDSKT02");
    assert_eq!(digest(&bytes), (40_996, 0x346A_8250_6FF4_55AE), "SCDSKT02");
}

#[test]
fn archive_dump_is_golden() {
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
    let bytes = archive_wire::to_bytes(&archive);
    assert_eq!(&bytes[..8], b"SCDARCH1");
    assert_eq!(digest(&bytes), (164_644, 0x6605_40B6_2A3A_AA42), "SCDARCH1");
}

#[test]
fn v2_checkpoint_is_golden() {
    let config = DetectorConfig {
        sketch: SketchConfig { h: 3, k: 256, seed: 11 },
        model: ModelSpec::Ewma { alpha: 0.5 },
        threshold: 0.05,
        key_strategy: KeyStrategy::TwoPass,
    };
    let mut det = SketchChangeDetector::new(config.clone());
    for t in 0..6 {
        det.process_interval(&items(t));
    }
    let mut stag = StaggeredDetector::new(config.clone(), 3);
    for s in 0..7 {
        stag.process_slot(&items(s));
    }
    let glr_cfg =
        GlrConfig { max_window: 4, projections: 8, ..GlrConfig::new(16.0, config.sketch.seed) };
    let mut glr = GlrDetector::new(glr_cfg.clone());
    for s in 0..11 {
        glr.observe_slice(&items(s));
        glr.end_slot();
    }
    glr.observe(99, 1234.5);
    let ck = Checkpoint {
        config,
        snapshot: det.snapshot(),
        next_interval: Some(6),
        processed: 240,
        staggered: Some((3, stag.snapshot())),
        glr: Some((
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
        )),
    };
    let bytes = ck.to_bytes();
    assert_eq!(&bytes[..8], b"SCDCKPT2");
    assert_eq!(digest(&bytes), (194_149, 0xD0A1_FD7F_3C8E_0D53), "SCDCKPT2");
}

#[test]
fn net_frame_is_golden() {
    let frame = Frame::Interval {
        node: 1,
        interval: 7,
        data: sketch::to_bytes(&sample_sketch(7)),
        data_keys: items(7).into_iter().map(|(k, _)| k).collect(),
        parity: sketch::to_bytes(&sample_sketch(8)),
        parity_keys: items(8).into_iter().map(|(k, _)| k).collect(),
    };
    let bytes = frame.encode();
    assert_eq!(&bytes[..4], b"SCDN");
    assert_eq!(digest(&bytes), (82_689, 0x388B_9029_273E_5D1C), "SCDN");
}
