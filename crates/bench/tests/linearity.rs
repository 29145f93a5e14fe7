//! The sharded-merge property of `scd-sketch`'s `linearity.rs`, held for
//! the baselines: summarizing an arbitrary partition of the key stream in
//! separate sketches and merging with coefficient 1 gives the estimates of
//! summarizing the whole stream in one.

use scd_bench::{CountMinSketch, CountSketch};
use scd_hash::SplitMix64;
use scd_sketch::LinearSketch;

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
