//! Bit-identity of `update_batch` against the serial `update` loop.
//!
//! The batched kernel is a pure re-scheduling of the same floating-point
//! additions: within every (row, cell) the values still accumulate in
//! stream order, so the tables must be **exactly equal** — `==` on `f64`,
//! no epsilon. These tests pin that contract across the sketch shapes the
//! paper evaluates (H ∈ {1, 5, 9, 25}), random batch split points
//! (including empty batches), signed and fractional values, and keys from
//! both hash sub-domains (32-bit tabulation path and 64-bit polynomial
//! path). The engine's bit-identical-reports guarantee rests on this.

use scd_hash::SplitMix64;
use scd_sketch::{BatchScratch, Deltoid, DeltoidConfig, KarySketch, SketchConfig};

const PAPER_H: [usize; 4] = [1, 5, 9, 25];

/// Random stream with signed fractional values and keys spanning both
/// hash sub-domains.
fn stream(rng: &mut SplitMix64, len: usize, signed: bool) -> Vec<(u64, f64)> {
    (0..len)
        .map(|_| {
            let key = if rng.next_below(4) == 0 {
                rng.next_u64() | (1 << 40) // force the Poly4 (64-bit) path
            } else {
                rng.next_below(u32::MAX as u64) // Tab4 (32-bit) path
            };
            let magnitude = (rng.next_below(1_000_000) as f64) / 128.0; // fractional
            let v = if signed && rng.next_below(2) == 0 { -magnitude } else { magnitude };
            (key, v)
        })
        .collect()
}

/// Splits `items` at random points (possibly producing empty batches).
fn random_batches<'a>(rng: &mut SplitMix64, items: &'a [(u64, f64)]) -> Vec<&'a [(u64, f64)]> {
    let mut batches = Vec::new();
    let mut rest = items;
    while !rest.is_empty() {
        let take = rng.next_below(rest.len() as u64 + 1) as usize;
        let (head, tail) = rest.split_at(take);
        batches.push(head);
        rest = tail;
        if take == 0 && batches.len() > items.len() + 8 {
            break; // don't loop forever on a run of zero-length draws
        }
    }
    batches.push(&items[items.len()..]); // one guaranteed-empty batch
    batches
}

#[test]
fn kary_update_batch_is_bit_identical() {
    let mut rng = SplitMix64::new(0xBA7C4);
    for &h in &PAPER_H {
        for case in 0..12u64 {
            let cfg = SketchConfig { h, k: 256, seed: 0x1D0 + case };
            let items = stream(&mut rng, 200, true);

            let mut serial = KarySketch::new(cfg);
            for &(key, v) in &items {
                serial.update(key, v);
            }

            let mut batched = KarySketch::new(cfg);
            let mut scratch = BatchScratch::new();
            for batch in random_batches(&mut rng, &items) {
                batched.update_batch(batch, &mut scratch);
            }

            assert_eq!(serial.table(), batched.table(), "H={h} case {case}");
        }
    }
}

#[test]
fn deltoid_update_batch_is_bit_identical() {
    let mut rng = SplitMix64::new(0xDE17);
    for &h in &PAPER_H {
        for &key_bits in &[32u32, 48, 64] {
            let cfg = DeltoidConfig { h, k: 64, key_bits, seed: 0xD0 ^ h as u64 };
            let items = stream(&mut rng, 200, true);

            let mut serial = Deltoid::new(cfg);
            for &(key, v) in &items {
                serial.update(key, v);
            }

            let mut batched = Deltoid::new(cfg);
            let mut scratch = BatchScratch::new();
            for batch in random_batches(&mut rng, &items) {
                batched.update_batch(batch, &mut scratch);
            }

            assert_eq!(serial.table(), batched.table(), "H={h} key_bits={key_bits}");
        }
    }
}

#[test]
fn deltoid_batch_masks_keys_before_hashing() {
    // Keys wider than `key_bits` must land in the bucket of their masked
    // value — the batch path has to mask before hashing, like `update`.
    let cfg = DeltoidConfig { h: 5, k: 64, key_bits: 16, seed: 9 };
    let wide = [(0xABCD_1234_0042u64, 3.5), (0x42u64 | (1 << 63), -1.25)];

    let mut serial = Deltoid::new(cfg);
    for &(key, v) in &wide {
        serial.update(key, v);
    }
    let mut batched = Deltoid::new(cfg);
    batched.update_batch(&wide, &mut BatchScratch::new());
    assert_eq!(serial.table(), batched.table());
}

#[test]
fn scratch_reuse_across_shapes_is_safe() {
    // One scratch serving sketches of different H/K — buffers must resize
    // correctly instead of carrying stale layout assumptions.
    let mut rng = SplitMix64::new(0x5C7A);
    let mut scratch = BatchScratch::new();
    for &(h, k) in &[(9usize, 512usize), (1, 64), (25, 256), (5, 1024)] {
        let cfg = SketchConfig { h, k, seed: 0xAB };
        let items = stream(&mut rng, 100, true);
        let mut serial = KarySketch::new(cfg);
        for &(key, v) in &items {
            serial.update(key, v);
        }
        let mut batched = KarySketch::new(cfg);
        batched.update_batch(&items, &mut scratch);
        assert_eq!(serial.table(), batched.table(), "H={h} K={k}");
    }
    assert!(scratch.memory_bytes() > 0);
}

#[test]
fn empty_batch_is_a_noop() {
    let mut scratch = BatchScratch::new();
    let mut s = KarySketch::new(SketchConfig { h: 5, k: 64, seed: 1 });
    s.update_batch(&[], &mut scratch);
    assert!(s.table().iter().all(|&c| c == 0.0));
}
