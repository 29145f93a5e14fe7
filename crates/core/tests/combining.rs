//! The ingest half's combining cache folds a key's records into one
//! partial sum before they reach a shard table. That is exact only while
//! the interval's values pass the gate — integers, Σ|v| below 2⁵³ — and
//! the first slice that breaks the gate must send the rest of the interval
//! down the per-record path. These tests hold every table to the per-record
//! `KarySketch::update` reference bit for bit (per shard, summed in shard
//! order: where a cell's sum rounds, that is the grouping a sharded ingest
//! half computes), and the key log to the first-seen reference, on streams
//! planted with everything that breaks the gate or tries to, through every
//! way of pushing: `push_slice`, and `push_slice_parallel` with one, two
//! and three producers, at one and four shards.

use scd_core::EngineConfig;
use scd_core::{DetectorConfig, KeyStrategy, ShardedEngine, ShardedIngest, SketchChangeDetector};
use scd_forecast::ModelSpec;
use scd_hash::{mix64, shard_of, HashRows, SplitMix64};
use scd_sketch::{KarySketch, SketchConfig};
use std::collections::HashSet;
use std::sync::Arc;

const SKETCH: SketchConfig = SketchConfig { h: 5, k: 1024, seed: 0x00C0_4B1E };

/// 2⁵³.
const EXACT: f64 = 9_007_199_254_740_992.0;

/// Records per interval: several producer chunks of several batches each.
const RECORDS: usize = 6_000;

/// How a test pushes one interval.
#[derive(Clone, Copy, Debug)]
enum Feed {
    /// `push_slice` over uneven slices.
    Slices,
    /// `push_slice_parallel` over 2 000-record slices with this many
    /// producers.
    Parallel(usize),
}

const FEEDS: [Feed; 4] = [Feed::Slices, Feed::Parallel(1), Feed::Parallel(2), Feed::Parallel(3)];

fn feed(ingest: &mut ShardedIngest, how: Feed, items: &[(u64, f64)]) {
    match how {
        Feed::Slices => items.chunks(777).for_each(|c| ingest.push_slice(c).unwrap()),
        Feed::Parallel(p) => {
            items.chunks(2_000).for_each(|c| ingest.push_slice_parallel(c, p).unwrap())
        }
    }
}

/// Integer byte counts over a skewed population of ~600 keys: most records
/// hit a resident key.
fn zipf_like(seed: u64, n: usize) -> Vec<(u64, f64)> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| {
            let rank = rng.next_below(600);
            let key = rng.next_below(rank + 1) * 7_919 + 3;
            (key, (40 + rng.next_below(1_460)) as f64)
        })
        .collect()
}

/// The per-record reference: each shard's records folded one by one in
/// stream order and the shard tables summed in shard order — what the
/// ingest half computes with no cache (one table, for one shard) — and the
/// distinct keys in first-seen order.
fn reference(rows: &Arc<HashRows>, shards: usize, items: &[(u64, f64)]) -> (KarySketch, Vec<u64>) {
    let mut tables: Vec<KarySketch> =
        (0..shards).map(|_| KarySketch::with_rows(Arc::clone(rows))).collect();
    let mut seen = HashSet::new();
    let mut first_seen = Vec::new();
    for &(key, value) in items {
        tables[shard_of(key, shards)].update(key, value);
        if seen.insert(key) {
            first_seen.push(key);
        }
    }
    let mut merged = tables.remove(0);
    for table in &tables {
        merged.add_scaled(table, 1.0).unwrap();
    }
    (merged, first_seen)
}

fn bits(sketch: &KarySketch) -> Vec<u64> {
    sketch.table().iter().map(|c| c.to_bits()).collect()
}

/// Pushes each interval of `stream` every way at one and four shards, and
/// checks every table and key log against the reference. A fresh stream
/// interval follows each planted one, so a closed gate must reopen.
fn assert_matches_reference(name: &str, stream: &[Vec<(u64, f64)>]) {
    for shards in [1usize, 4] {
        for how in FEEDS {
            let mut ingest = ShardedIngest::new(SKETCH, shards).unwrap();
            for (t, items) in stream.iter().enumerate() {
                feed(&mut ingest, how, items);
                let rows = Arc::clone(ingest.rows());
                let (observed, keys) = ingest.end_interval_sketch().unwrap();
                let (expected, first_seen) = reference(&rows, shards, items);
                let what = format!("{name}: {shards} shard(s), {how:?}, interval {t}");
                assert!(bits(observed) == bits(&expected), "{what}: the table differs");
                assert_eq!(keys, first_seen, "{what}: the key log differs");
            }
        }
    }
}

/// `planted` as interval 1 of a three-interval stream of integer traffic.
fn around(planted: Vec<(u64, f64)>) -> Vec<Vec<(u64, f64)>> {
    vec![zipf_like(1, RECORDS), planted, zipf_like(3, RECORDS)]
}

/// Integer traffic with `value` planted at record `at`.
fn plant(value: f64, at: usize) -> Vec<(u64, f64)> {
    let mut items = zipf_like(2, RECORDS);
    items[at].1 = value;
    items
}

#[test]
fn integer_traffic_matches_the_per_record_reference() {
    assert_matches_reference("integers", &[zipf_like(1, RECORDS), zipf_like(2, 900)]);
}

#[test]
fn a_planted_fraction_mid_interval_folds_the_rest_per_record() {
    assert_matches_reference("0.5 mid-interval", &around(plant(0.5, RECORDS / 2)));
    // A fraction on the very first record: nothing was ever combined.
    assert_matches_reference("0.5 first", &around(plant(0.5, 0)));
    // Sums of 0.5 are exact anyway. `OverloadPolicy::Sample`'s 1/rate
    // weights are not: from mid-interval on, every record is reweighted,
    // and any grouping but stream order would round differently.
    let mut weighted = zipf_like(7, RECORDS);
    weighted[RECORDS / 2..].iter_mut().for_each(|(_, v)| *v /= 0.3);
    assert_matches_reference("1/0.3 weights from mid-interval", &around(weighted));
}

#[test]
fn nan_infinities_and_negative_zero_keep_their_bits() {
    for value in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0] {
        assert_matches_reference(&format!("{value:?} planted"), &around(plant(value, 3_333)));
    }
    // -0.0 alone passes the gate: a whole interval of it.
    let zeros: Vec<(u64, f64)> =
        zipf_like(4, RECORDS).into_iter().map(|(k, _)| (k, -0.0)).collect();
    assert_matches_reference("all -0.0", &around(zeros));
}

#[test]
fn a_value_of_two_to_the_53_breaks_the_gate() {
    assert_matches_reference("2^53 planted", &around(plant(EXACT, 2_500)));
    assert_matches_reference("-2^53 planted", &around(plant(-EXACT, 2_500)));
}

#[test]
fn a_slice_whose_mass_crosses_two_to_the_53_folds_the_rest_per_record() {
    // Odd integers just past 2⁵¹ on the heaviest key: four of them are past
    // 2⁵³, and from there its cells' sums round, so grouping would move
    // bits.
    let mut items = zipf_like(5, RECORDS);
    for (i, item) in items.iter_mut().enumerate().filter(|(i, _)| i % 700 == 350) {
        *item = (3, 2_251_799_813_685_249.0 + 2.0 * i as f64);
    }
    assert_matches_reference("Σ|v| crosses 2^53", &around(items));
}

#[test]
fn negative_integers_combine_exactly() {
    let mut rng = SplitMix64::new(6);
    let items: Vec<(u64, f64)> = zipf_like(6, RECORDS)
        .into_iter()
        .map(|(k, v)| (k, if rng.next_below(3) == 0 { -v } else { v }))
        .collect();
    assert_matches_reference("negative integers", &around(items));
}

#[test]
fn a_stream_that_misses_every_record_still_matches() {
    // More distinct keys than the cache has slots, round robin: every
    // record evicts the key that left the slot least recently.
    let many: Vec<(u64, f64)> =
        (0..RECORDS as u64).map(|i| ((i % 4_999) * 104_729 + 1, (i % 97 + 1) as f64)).collect();
    assert_matches_reference("round robin over 4 999 keys", &around(many));
    // Keys that all land in one slot, round robin.
    let colliding: Vec<u64> = (0u64..).filter(|&k| mix64(k) & 4_095 == 17).take(5).collect();
    let thrash: Vec<(u64, f64)> =
        (0..RECORDS).map(|i| (colliding[i % colliding.len()], (i % 13 + 1) as f64)).collect();
    assert_matches_reference("one slot, five keys", &around(thrash));
}

/// Every key strategy scans the engine's key log exactly as it scans the
/// per-record reference's arrival list: the same keys, in the same order,
/// with the same estimates — planted fraction included.
#[test]
fn every_key_strategy_scans_the_first_seen_keys() {
    let strategies = [
        KeyStrategy::TwoPass,
        KeyStrategy::NextInterval,
        KeyStrategy::Sampled { rate: 0.5, seed: 9 },
    ];
    let stream: Vec<Vec<(u64, f64)>> = (0..8u64)
        .map(|t| if t == 5 { plant(0.25, 4_000) } else { zipf_like(10 + t, RECORDS) })
        .collect();
    for strategy in strategies {
        let config = DetectorConfig {
            sketch: SKETCH,
            model: ModelSpec::Ewma { alpha: 0.5 },
            threshold: 0.05,
            key_strategy: strategy,
        };
        for (shards, producers) in [(1usize, 1usize), (4, 2), (4, 3)] {
            let mut engine = ShardedEngine::new(EngineConfig::new(config.clone(), shards)).unwrap();
            let mut detector = SketchChangeDetector::new(config.clone());
            for (t, items) in stream.iter().enumerate() {
                items.chunks(2_000).for_each(|c| engine.push_slice_parallel(c, producers).unwrap());
                let got = engine.end_interval().unwrap();
                let want = detector.process_interval(items);
                let what =
                    format!("{strategy:?}, {shards} shard(s), {producers} producer(s), t={t}");
                assert_eq!(got.errors, want.errors, "{what}: scan order or estimates differ");
                assert_eq!(got, want, "{what}: reports differ");
            }
        }
    }
}
