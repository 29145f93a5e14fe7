//! Golden digests of every CRC-footed format's bytes for fixed seeds.
//!
//! The CRC-32 kernels, the trace encoder, the streaming trace writer and
//! the shared envelope code may change how bytes are produced, never which
//! bytes: each digest below was recorded from the byte-at-a-time CRC and
//! the hand-rolled per-format envelopes, and a kernel or encoder that
//! writes anything else fails here (the two `SCDSKP01` digests are as old
//! as that format: recorded from its first encoder). The digest is
//! FNV-1a/64 written in this file, so it shares no code with the checksum
//! under test.

mod common;

use common::*;
use sketch_change::archive::wire as archive_wire;
use sketch_change::core::{Checkpoint, CheckpointError};
use sketch_change::sketch;
use sketch_change::traffic::io;

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01B3))
}

/// Length and digest, so a failure says whether the size moved too.
fn digest(bytes: &[u8]) -> (usize, u64) {
    (bytes.len(), fnv1a64(bytes))
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
fn packed_sketch_blob_is_golden() {
    let sketch = sample_sketch(1);
    let bytes = sketch::wire::to_bytes_packed(&sketch);
    assert_eq!(&bytes[..8], b"SCDSKP01");
    assert_eq!(digest(&bytes), (602, 0x7C57_A8D1_6FED_12BF), "SCDSKP01");
    let back = sketch::wire::from_bytes_with_rows(&bytes, sketch.rows()).expect("decodes");
    assert_eq!(sketch::to_bytes(&back), sketch::to_bytes(&sketch), "packed is exact");
}

#[test]
fn archive_dump_is_golden() {
    let bytes = archive_wire::to_bytes(&sample_archive());
    assert_eq!(&bytes[..8], b"SCDARCH1");
    assert_eq!(digest(&bytes), (164_644, 0x6605_40B6_2A3A_AA42), "SCDARCH1");
}

/// A checkpoint with a GLR section. The digest is the one the writer gave
/// this fixture while it still encoded staggered-lane sections: dropping
/// that section moved no byte of any checkpoint without one.
#[test]
fn v2_checkpoint_is_golden() {
    let bytes = v2_checkpoint().to_bytes();
    assert_eq!(&bytes[..8], b"SCDCKPT2");
    assert_eq!(digest(&bytes), (155_960, 0x7838_6904_5E7B_9014), "SCDCKPT2");
}

/// A checkpoint without staggered or GLR state used to be written in a
/// separate `SCDCKPT1` layout. Now it is the one layout with both section
/// flags zero: the new magic, the old body (digest recorded from the
/// `SCDCKPT1` writer), two zero bytes, and a fresh checksum.
#[test]
fn plain_checkpoint_is_the_old_body_plus_two_zero_flags() {
    let bytes = plain_checkpoint().to_bytes();
    let (sealed, crc) = bytes.split_at(bytes.len() - 4);
    let (magic, body) = sealed.split_at(8);
    let (v1_body, flags) = body.split_at(body.len() - 2);
    assert_eq!(magic, b"SCDCKPT2");
    assert_eq!(digest(v1_body), (6_261, 0xBE0E_50B9_6E93_3333), "plain checkpoint body");
    assert_eq!(flags, [0, 0], "absent staggered and GLR sections");
    assert_eq!(crc, sketch_change::hash::crc32(sealed).to_le_bytes());
    let back = Checkpoint::from_bytes(&bytes).expect("decodes");
    assert!(back.staggered.is_none() && back.glr.is_none());
}

/// The checkpoint of every model family the grid search tunes, cut once
/// while a ring or warm-up buffer is still filling (after 2 intervals: MA's
/// window of 5, SMA's of 4, ARIMA1's three observations and SHW's first
/// period of 4 are not yet full) and once in steady state (after 9). The
/// digests were recorded from the writer while each model still kept its
/// state in private fields and copied it out to checkpoint: holding the
/// state once moved no byte.
#[test]
fn every_model_checkpoint_is_golden() {
    let models = [
        "ma:5",
        "sma:4",
        "ewma:0.5",
        "nshw:0.6:0.2",
        "arima0:0.7,-0.1/0.3,0.1",
        "arima1:0.5,0.2/0.3",
        "shw:0.3:0.1:0.5:4",
    ];
    let mut got = Vec::new();
    for model in models {
        for cut in [2, 9] {
            let spec = sketch_change::forecast::ModelSpec::parse(model).unwrap();
            got.push((model, cut, digest(&model_checkpoint(spec, cut).to_bytes())));
        }
    }
    let want = [
        ("ma:5", 2, (12_466, 0xDDD7_797A_091C_ECAE)),
        ("ma:5", 9, (31_030, 0x576B_E696_63FF_A870)),
        ("sma:4", 2, (12_467, 0x6ED4_ECBA_7989_696F)),
        ("sma:4", 9, (24_843, 0x42F2_B52B_5D29_1F91)),
        ("ewma:0.5", 2, (6_275, 0x6A10_DFB9_A7A5_C493)),
        ("ewma:0.5", 9, (6_275, 0xB9AC_57D8_B1E4_D9A9)),
        ("nshw:0.6:0.2", 2, (18_656, 0x0468_E4E7_B530_BDD0)),
        ("nshw:0.6:0.2", 9, (18_656, 0xE59F_BCE6_A8C2_8273)),
        ("arima0:0.7,-0.1/0.3,0.1", 2, (24_877, 0x21F1_4DF2_90A4_B949)),
        ("arima0:0.7,-0.1/0.3,0.1", 9, (24_877, 0x799E_59ED_6CAB_4391)),
        ("arima1:0.5,0.2/0.3", 2, (18_684, 0xDD63_5108_1176_651D)),
        ("arima1:0.5,0.2/0.3", 9, (24_872, 0x3763_E908_BA92_6841)),
        ("shw:0.3:0.1:0.5:4", 2, (12_480, 0x646B_353D_17D8_D64B)),
        ("shw:0.3:0.1:0.5:4", 9, (37_248, 0xCE5F_CCBC_EB8D_1FA5)),
    ];
    assert_eq!(got, want, "SCDCKPT2 per model family");
}

/// The staggered-lane flag is always written 0: a body that sets it, under
/// a valid checksum, is refused as malformed rather than decoded.
#[test]
fn a_set_staggered_flag_is_malformed() {
    let bytes = plain_checkpoint().to_bytes();
    let mut body = bytes[..bytes.len() - 4].to_vec();
    let at = body.len() - 2;
    body[at] = 1;
    sketch_change::hash::envelope::seal(&mut body);
    assert!(matches!(Checkpoint::from_bytes(&body), Err(CheckpointError::Malformed(_))));
}

#[test]
fn net_frame_is_golden() {
    let bytes = interval_frame().encode();
    assert_eq!(&bytes[..4], b"SCDN");
    assert_eq!(digest(&bytes), (82_689, 0x388B_9029_273E_5D1C), "SCDN");
}

/// `Frame::encode` carries blobs opaquely: packing them changes the
/// frame's length and digest, not its layout.
#[test]
fn packed_net_frame_is_golden() {
    let bytes = packed_interval_frame().encode();
    assert_eq!(&bytes[..4], b"SCDN");
    assert_eq!(digest(&bytes), (1_896, 0xFAF6_1010_193E_7C3A), "SCDN carrying SCDSKP01 blobs");
}

#[test]
fn query_frames_are_golden() {
    let request = changed_keys_request().encode();
    assert_eq!(&request[..4], b"SCDQ");
    assert_eq!(digest(&request), (37, 0x738E_3C6A_D79E_FB98), "SCDQ request");
    let response = changed_keys_response().encode();
    assert_eq!(&response[..4], b"SCDQ");
    assert_eq!(digest(&response), (277, 0x0C2B_A937_097A_6EB8), "SCDQ response");
}
