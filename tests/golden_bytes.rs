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
use sketch_change::core::Checkpoint;
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

#[test]
fn v2_checkpoint_is_golden() {
    let bytes = v2_checkpoint().to_bytes();
    assert_eq!(&bytes[..8], b"SCDCKPT2");
    assert_eq!(digest(&bytes), (194_149, 0xD0A1_FD7F_3C8E_0D53), "SCDCKPT2");
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
