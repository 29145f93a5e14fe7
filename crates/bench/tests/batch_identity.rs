//! Bit-identity of the baselines' `update_batch` against their serial
//! `update` loop: the same contract `scd-sketch`'s `batch_identity.rs`
//! pins for the k-ary sketch and the deltoid, over the sketch shapes the
//! paper evaluates (H ∈ {1, 5, 9, 25}), random batch split points
//! (including empty batches), signed and fractional values, and keys from
//! both hash sub-domains.

use scd_bench::{BatchScratch, CountMinSketch, CountSketch};
use scd_hash::SplitMix64;

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
fn countmin_update_batch_is_bit_identical() {
    let mut rng = SplitMix64::new(0xC0117);
    for &h in &PAPER_H {
        let items = stream(&mut rng, 300, false); // cash-register: non-negative
        let seed = 0xC0DE ^ h as u64;
        let mut serial = CountMinSketch::new(h, 128, seed);
        for &(key, v) in &items {
            serial.update(key, v);
        }
        let mut batched = CountMinSketch::new(h, 128, seed);
        let mut scratch = BatchScratch::new();
        for batch in random_batches(&mut rng, &items) {
            batched.update_batch(batch, &mut scratch);
        }
        // CountMinSketch exposes no raw table; estimates are pure functions
        // of the table, so exact `==` over a dense probe set plus the row-0
        // sum pins every cell a query can see.
        for key in (0..2_000u64).chain(items.iter().map(|&(k, _)| k)) {
            assert!(serial.estimate(key) == batched.estimate(key), "H={h} key {key}");
        }
        assert!(serial.sum() == batched.sum(), "H={h} sum");
    }
}

#[test]
fn countsketch_update_batch_is_bit_identical() {
    let mut rng = SplitMix64::new(0x5167);
    for &h in &PAPER_H {
        let items = stream(&mut rng, 300, true);
        let mut serial = CountSketch::new(h, 128, 0xC5 ^ h as u64);
        for &(key, v) in &items {
            serial.update(key, v);
        }
        let mut batched = CountSketch::new(h, 128, 0xC5 ^ h as u64);
        let mut scratch = BatchScratch::new();
        for batch in random_batches(&mut rng, &items) {
            batched.update_batch(batch, &mut scratch);
        }
        // Same probe-based comparison: estimates and F2 are pure functions
        // of the table, and exact equality of both across 2000 probes pins
        // bit-identity for the cells that matter.
        for key in (0..2_000u64).chain(items.iter().map(|&(k, _)| k)) {
            assert!(
                serial.estimate(key) == batched.estimate(key),
                "H={h} key {key}: {} vs {}",
                serial.estimate(key),
                batched.estimate(key)
            );
        }
        assert!(serial.estimate_f2() == batched.estimate_f2(), "H={h} F2");
    }
}
