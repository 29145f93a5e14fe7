//! Exact identity of both CRC-32 kernels against a bitwise reference
//! written here, with each kernel forced directly (so the test means the
//! same whatever `SCD_SIMD` or detection resolved for the process). On
//! hosts without carry-less multiply the forced-`Avx2` call falls back to
//! the table kernel and the test degrades to table == reference.
//!
//! A CRC has one right answer per input, so every comparison is `==`.

use scd_hash::crc32::CLMUL_MIN_LEN;
use scd_hash::{crc32, Crc32, SplitMix64, Variant};

const KERNELS: [Variant; 2] = [Variant::Scalar, Variant::Avx2];

/// The shift register, one bit at a time, over the raw (un-finalised)
/// state. Shares nothing with the crate's tables.
fn reference_raw(mut state: u32, data: &[u8]) -> u32 {
    for &byte in data {
        state ^= byte as u32;
        for _ in 0..8 {
            state = if state & 1 != 0 { (state >> 1) ^ 0xEDB8_8320 } else { state >> 1 };
        }
    }
    state
}

fn reference(data: &[u8]) -> u32 {
    reference_raw(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

fn forced(variant: Variant, parts: &[&[u8]]) -> u32 {
    let mut crc = Crc32::new();
    for part in parts {
        crc.update_with(variant, part);
    }
    crc.finalize()
}

fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = SplitMix64::new(seed);
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

#[test]
fn known_vectors() {
    // The check value, the empty input, and two vectors zlib's own test
    // suite and documentation use.
    let vectors: [(&[u8], u32); 4] = [
        (b"123456789", 0xCBF4_3926),
        (b"", 0),
        (b"The quick brown fox jumps over the lazy dog", 0x414F_A339),
        (b"a", 0xE8B7_BE43),
    ];
    for (input, want) in vectors {
        assert_eq!(reference(input), want, "reference on {input:?}");
        assert_eq!(crc32(input), want, "dispatched on {input:?}");
        for kernel in KERNELS {
            assert_eq!(forced(kernel, &[input]), want, "{kernel:?} on {input:?}");
        }
    }
}

#[test]
fn every_length_at_every_alignment() {
    // 0..=300 covers the sub-16-byte tail, the below-CLMUL_MIN_LEN
    // table-only case, the first 64-byte fold and the lanes after it;
    // offsets 0..16 put the first byte at every position of a 16-byte
    // line.
    const MAX_LEN: usize = 300;
    const _: () = assert!(CLMUL_MIN_LEN + 2 * 64 < MAX_LEN, "sweep must reach past the folds");
    let buffer = random_bytes(0xC4C, MAX_LEN + 16);
    for offset in 0..16 {
        for len in 0..=MAX_LEN {
            let data = &buffer[offset..offset + len];
            let want = reference(data);
            for kernel in KERNELS {
                assert_eq!(forced(kernel, &[data]), want, "{kernel:?} offset={offset} len={len}");
            }
        }
    }
}

#[test]
fn large_buffer() {
    let data = random_bytes(0xB16, (1 << 20) + 7);
    let want = reference(&data);
    assert_eq!(crc32(&data), want, "dispatched");
    for kernel in KERNELS {
        assert_eq!(forced(kernel, &[&data]), want, "{kernel:?}");
    }
}

#[test]
fn split_updates_match_one_shot() {
    let data = random_bytes(0x5917, 4096 + 13);
    let want = reference(&data);
    let mut rng = SplitMix64::new(0x5918);
    for _ in 0..200 {
        let a = rng.next_below(data.len() as u64 + 1) as usize;
        let b = rng.next_below(data.len() as u64 + 1) as usize;
        let (a, b) = (a.min(b), a.max(b));
        for kernel in KERNELS {
            assert_eq!(forced(kernel, &[&data[..a], &data[a..]]), want, "{kernel:?} split {a}");
            assert_eq!(
                forced(kernel, &[&data[..a], &data[a..b], &data[b..]]),
                want,
                "{kernel:?} split {a}/{b}"
            );
        }
        // A stream may change kernels between calls (a short frame
        // header, then a long body): the raw state composes across them.
        let mut mixed = Crc32::new();
        mixed.update_with(Variant::Avx2, &data[..a]);
        mixed.update_with(Variant::Scalar, &data[a..b]);
        mixed.update_with(Variant::Avx2, &data[b..]);
        assert_eq!(mixed.finalize(), want, "mixed kernels split {a}/{b}");
    }
}

#[test]
fn non_initial_states() {
    // Continue from states that are not the all-ones initial register:
    // feed a random prefix with the reference's own arithmetic, then
    // compare the continuation kernel by kernel.
    let mut rng = SplitMix64::new(0x57A7);
    for _ in 0..50 {
        let prefix = random_bytes(rng.next_u64(), 1 + rng.next_below(40) as usize);
        let body = random_bytes(rng.next_u64(), rng.next_below(700) as usize);
        let want = reference_raw(reference_raw(0xFFFF_FFFF, &prefix), &body) ^ 0xFFFF_FFFF;
        for kernel in KERNELS {
            // The prefix goes through the table kernel (it is short), so
            // the body starts from an arbitrary register either way.
            assert_eq!(forced(kernel, &[&prefix, &body]), want, "{kernel:?} len={}", body.len());
        }
    }
}
