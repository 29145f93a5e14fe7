//! Property tests for the linearity contract (paper §3.1 COMBINE) that the
//! sharded ingest engine and the multi-resolution archive both build on.
//!
//! Two families of properties:
//!
//! 1. **Estimate linearity** — `EST(COMBINE(a,S1,b,S2)) = a·EST(S1) +
//!    b·EST(S2)`. Exact per *row*; after the cross-row median it is exact
//!    whenever the median is trivial (`H = 1`) and holds to floating-point
//!    rounding cell-wise for any `H`, which is what the per-cell checks
//!    verify.
//! 2. **Sharded merge** — summarizing an arbitrary partition of the key
//!    stream in separate sketches and merging with coefficient 1 equals
//!    summarizing the whole stream in one sketch, **bit for bit** when
//!    update values are integers (every cell is then an exact sum, so
//!    addition order cannot matter). This is the exactness guarantee the
//!    `scd-core` engine's COMBINE step relies on.

use scd_bench::{CountMinSketch, CountSketch};
use scd_hash::SplitMix64;
use scd_sketch::{Deltoid, DeltoidConfig, KarySketch, LinearSketch, SketchConfig};

/// Deterministic pseudo-random stream of `(key, integer value)` updates.
fn random_updates(seed: u64, n: usize, key_space: u64) -> Vec<(u64, f64)> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| {
            let key = rng.next_below(key_space);
            // Integer values in [-500, 500): sums of these are exact in f64.
            let value = rng.next_below(1000) as f64 - 500.0;
            (key, value)
        })
        .collect()
}

/// A random coefficient in roughly [-2, 2], quantized so products stay
/// well-conditioned.
fn random_coeff(rng: &mut SplitMix64) -> f64 {
    (rng.next_below(64) as f64 - 32.0) / 16.0
}

#[test]
fn kary_combine_is_cellwise_linear_randomized() {
    for trial in 0..10u64 {
        let cfg = SketchConfig { h: 5, k: 1024, seed: 100 + trial };
        let mut rng = SplitMix64::new(0xA11CE + trial);
        let mut s1 = KarySketch::new(cfg);
        let mut s2 = KarySketch::new(cfg);
        for (key, value) in random_updates(trial, 300, 4096) {
            s1.update(key, value);
        }
        for (key, value) in random_updates(trial ^ 0xFF, 300, 4096) {
            s2.update(key, value);
        }
        let (a, b) = (random_coeff(&mut rng), random_coeff(&mut rng));
        let combo = s1.combine(&[(a, &s1), (b, &s2)]).expect("combine");
        for (i, cell) in combo.table().iter().enumerate() {
            let expect = a * s1.table()[i] + b * s2.table()[i];
            assert!(
                (cell - expect).abs() <= 1e-9 * expect.abs().max(1.0),
                "trial {trial}, cell {i}: {cell} vs {expect}"
            );
        }
    }
}

#[test]
fn kary_single_row_estimates_combine_exactly() {
    // With H = 1 the median is the identity, so estimate linearity holds
    // to floating-point rounding for every key, not just per cell.
    for trial in 0..10u64 {
        let cfg = SketchConfig { h: 1, k: 2048, seed: 7 + trial };
        let mut rng = SplitMix64::new(0xBEEF + trial);
        let mut s1 = KarySketch::new(cfg);
        let mut s2 = KarySketch::new(cfg);
        let u1 = random_updates(2 * trial, 200, 1 << 20);
        let u2 = random_updates(2 * trial + 1, 200, 1 << 20);
        for &(key, value) in &u1 {
            s1.update(key, value);
        }
        for &(key, value) in &u2 {
            s2.update(key, value);
        }
        let (a, b) = (random_coeff(&mut rng), random_coeff(&mut rng));
        let combo = s1.combine(&[(a, &s1), (b, &s2)]).expect("combine");
        for &(key, _) in u1.iter().chain(&u2).take(100) {
            let lhs = combo.estimate(key);
            let rhs = a * s1.estimate(key) + b * s2.estimate(key);
            assert!(
                (lhs - rhs).abs() <= 1e-6 * rhs.abs().max(1.0),
                "trial {trial}, key {key}: {lhs} vs {rhs}"
            );
        }
        // F2 of the combination matches the directly-computed combination.
        let direct = {
            let mut s = s1.zero_like();
            for &(key, value) in &u1 {
                s.update(key, a * value);
            }
            for &(key, value) in &u2 {
                s.update(key, b * value);
            }
            s
        };
        let (f2c, f2d) = (combo.estimate_f2(), direct.estimate_f2());
        assert!(
            (f2c - f2d).abs() <= 1e-6 * f2d.abs().max(1.0),
            "trial {trial}: combined F2 {f2c} vs direct {f2d}"
        );
    }
}

#[test]
fn deltoid_single_row_estimates_combine_exactly() {
    for trial in 0..5u64 {
        let cfg = DeltoidConfig { h: 1, k: 512, key_bits: 32, seed: 31 + trial };
        let mut rng = SplitMix64::new(0xDE17 + trial);
        let mut s1 = Deltoid::new(cfg);
        let mut s2 = Deltoid::new(cfg);
        let u1 = random_updates(5 * trial, 150, 1 << 16);
        let u2 = random_updates(5 * trial + 3, 150, 1 << 16);
        for &(key, value) in &u1 {
            s1.update(key, value);
        }
        for &(key, value) in &u2 {
            s2.update(key, value);
        }
        let (a, b) = (random_coeff(&mut rng), random_coeff(&mut rng));
        let mut combo = s1.zero_like();
        combo.add_scaled(&s1, a).unwrap();
        combo.add_scaled(&s2, b).unwrap();
        for &(key, _) in u1.iter().chain(&u2).take(80) {
            let lhs = combo.estimate(key);
            let rhs = a * s1.estimate(key) + b * s2.estimate(key);
            assert!(
                (lhs - rhs).abs() <= 1e-6 * rhs.abs().max(1.0),
                "trial {trial}, key {key}: {lhs} vs {rhs}"
            );
        }
    }
}

/// Partitions `updates` into `parts` sub-streams by a random assignment,
/// sketches each part, merges with coefficient 1, and hands (whole,
/// merged) to the caller's assertion.
fn sharded_merge_case<S: LinearSketch>(
    make: impl Fn() -> S,
    update: impl Fn(&mut S, u64, f64),
    updates: &[(u64, f64)],
    parts: usize,
    assign_seed: u64,
) -> (S, S) {
    let mut whole = make();
    let mut shards: Vec<S> = (0..parts).map(|_| make()).collect();
    let mut rng = SplitMix64::new(assign_seed);
    for &(key, value) in updates {
        update(&mut whole, key, value);
        // Arbitrary partition: any key may land in any shard at any time.
        let shard = rng.next_below(parts as u64) as usize;
        update(&mut shards[shard], key, value);
    }
    let terms: Vec<(f64, &S)> = shards.iter().map(|s| (1.0, s)).collect();
    let merged = S::combine(&terms).expect("merge");
    (whole, merged)
}

#[test]
fn kary_sharded_merge_is_bit_identical() {
    for parts in [2usize, 4, 8] {
        let updates = random_updates(99, 1_000, 1 << 14);
        let cfg = SketchConfig { h: 5, k: 1024, seed: 1 };
        let (whole, merged) = sharded_merge_case(
            || KarySketch::new(cfg),
            |s, k, v| s.update(k, v),
            &updates,
            parts,
            0x5AAD + parts as u64,
        );
        // Integer update values ⇒ every cell is an exact integer sum ⇒
        // the partition cannot perturb even the last bit.
        assert_eq!(whole.table(), merged.table(), "{parts} shards: cells differ");
        for &(key, _) in updates.iter().take(200) {
            assert_eq!(whole.estimate(key), merged.estimate(key), "{parts} shards, key {key}");
        }
        assert_eq!(whole.estimate_f2(), merged.estimate_f2(), "{parts} shards: F2 differs");
    }
}

#[test]
fn deltoid_sharded_merge_matches_single_ingest() {
    let updates = random_updates(77, 600, 1 << 16);
    let cfg = DeltoidConfig { h: 3, k: 256, key_bits: 32, seed: 2 };
    let (whole, merged) =
        sharded_merge_case(|| Deltoid::new(cfg), |s, k, v| s.update(k, v), &updates, 4, 0xD017);
    for &(key, _) in updates.iter().take(200) {
        assert_eq!(whole.estimate(key), merged.estimate(key), "key {key}");
    }
    assert_eq!(whole.estimate_f2(), merged.estimate_f2());
}

#[test]
fn countsketch_sharded_merge_matches_single_ingest() {
    let updates = random_updates(55, 600, 1 << 16);
    let (whole, merged) = sharded_merge_case(
        || CountSketch::new(5, 512, 3),
        |s, k, v| s.update(k, v),
        &updates,
        4,
        0xC5C5,
    );
    for &(key, _) in updates.iter().take(200) {
        assert_eq!(whole.estimate(key), merged.estimate(key), "key {key}");
    }
    assert_eq!(whole.estimate_f2(), merged.estimate_f2());
}

#[test]
fn countmin_sharded_merge_matches_single_ingest() {
    // Count-Min is cash-register only: make the values non-negative.
    let updates: Vec<(u64, f64)> =
        random_updates(44, 600, 1 << 16).into_iter().map(|(k, v)| (k, v.abs())).collect();
    let (whole, merged) = sharded_merge_case(
        || CountMinSketch::new(5, 512, 4),
        |s, k, v| s.update(k, v),
        &updates,
        4,
        0xC31A,
    );
    for &(key, _) in updates.iter().take(200) {
        assert_eq!(whole.estimate(key), merged.estimate(key), "key {key}");
    }
}
