//! The detect-stage key scan is batched and tiled, and it ranks only the
//! alarms: `errors` leaves in scan order, and `rank_errors` is the one
//! full-list ranking. The `IntervalReport` may not tell otherwise. These
//! tests hold the report — `errors` in first-seen order, its ranking,
//! alarms, `non_finite_errors`, the canonical digest and `==` — to an
//! oracle that scores one key at a time and ranks with the comparator the
//! scan used before: a stable `sort_by` on `total_cmp` of `|e|`, then key.

use scd_core::{
    notable_keys, Alarm, DetectorConfig, IntervalReport, KeyStrategy, SketchChangeDetector,
    UpdateSampler,
};
use scd_forecast::ModelSpec;
use scd_hash::SplitMix64;
use scd_sketch::batch::ESTIMATE_TILE;
use scd_sketch::{KarySketch, SketchConfig};

fn config(model: ModelSpec, strategy: KeyStrategy) -> DetectorConfig {
    config_h(5, model, strategy)
}

fn config_h(h: usize, model: ModelSpec, strategy: KeyStrategy) -> DetectorConfig {
    DetectorConfig {
        sketch: SketchConfig { h, k: 4096, seed: 0x5CA9 },
        model,
        threshold: 0.02,
        key_strategy: strategy,
    }
}

const STRATEGIES: [KeyStrategy; 3] =
    [KeyStrategy::TwoPass, KeyStrategy::NextInterval, KeyStrategy::Sampled { rate: 0.6, seed: 17 }];

/// One interval: an observed sketch and its arrival-order key log (with
/// repeats, as ingest records it).
type Interval = (KarySketch, Vec<u64>);

/// `n` distinct keys per interval with volumes from a twenty-value grid,
/// so equal `|error|` across different keys is the rule, not the
/// exception; a tenth of the keys arrive twice.
fn intervals(det: &SketchChangeDetector, n: usize, count: u64) -> Vec<Interval> {
    (0..count)
        .map(|t| {
            let mut rng = SplitMix64::new(0x5CA9_0000 ^ t);
            let mut observed = KarySketch::with_rows(det.rows().clone());
            let mut keys = Vec::with_capacity(n + n / 10);
            for i in 0..n as u64 {
                let key = i.wrapping_mul(2_654_435_761) % (1 << 32);
                observed.update(key, ((rng.next_below(20) + 1) * 100) as f64);
                keys.push(key);
                if i % 10 == 3 {
                    keys.push(key);
                }
            }
            (observed, keys)
        })
        .collect()
}

fn bits(errors: &[(u64, f64)]) -> Vec<(u64, u64)> {
    errors.iter().map(|&(k, e)| (k, e.to_bits())).collect()
}

/// Field-by-field equality with the floats by bit pattern (`error_f2`
/// can be NaN or infinite in the poisoned cases, and NaN != NaN).
fn assert_same(a: &IntervalReport, b: &IntervalReport, what: &str) {
    assert_eq!((a.interval, a.warmed_up), (b.interval, b.warmed_up), "{what}");
    assert_eq!(a.error_f2.to_bits(), b.error_f2.to_bits(), "{what}: F2");
    assert_eq!(a.alarm_threshold.to_bits(), b.alarm_threshold.to_bits(), "{what}: threshold");
    assert_eq!(a.non_finite_errors, b.non_finite_errors, "{what}: non-finite count");
    assert_eq!(bits(&a.errors), bits(&b.errors), "{what}: errors");
    let alarm_bits = |alarms: &[Alarm]| -> Vec<(u64, u64, u64)> {
        alarms.iter().map(|a| (a.key, a.estimated_error.to_bits(), a.threshold.to_bits())).collect()
    };
    assert_eq!(alarm_bits(&a.alarms), alarm_bits(&b.alarms), "{what}: alarms");
}

/// The comparator the scan ranked with before it was batched or tiled.
fn rank_by_comparator(errors: &mut [(u64, f64)]) {
    errors.sort_by(|a, b| b.1.abs().total_cmp(&a.1.abs()).then_with(|| a.0.cmp(&b.0)));
}

/// The scan as it was before it was batched or tiled: one `ESTIMATE` per
/// first-seen key that `keep` admits (the `Sampled` coin, drawn in
/// first-seen order), non-finite ones counted and dropped, then the old
/// stable comparator sort and the alarm prefix. Interval, F2 and
/// threshold are taken from `like` — they are computed before the scan
/// and are not its business. Returns the report with `errors` in
/// first-seen order, and the ranked list.
fn oracle(
    error: &KarySketch,
    keys: &[u64],
    mut keep: impl FnMut() -> bool,
    like: &IntervalReport,
) -> (IntervalReport, Vec<(u64, f64)>) {
    let estimator = error.estimator();
    let mut seen = std::collections::HashSet::new();
    let mut non_finite_errors = 0u64;
    let errors: Vec<(u64, f64)> = keys
        .iter()
        .filter(|k| seen.insert(**k) && keep())
        .map(|&key| (key, estimator.estimate(key)))
        .filter(|&(_, e)| {
            non_finite_errors += u64::from(!e.is_finite());
            e.is_finite()
        })
        .collect();
    let mut ranked = errors.clone();
    rank_by_comparator(&mut ranked);
    let threshold = like.alarm_threshold;
    let alarms = ranked
        .iter()
        .take_while(|(_, e)| e.abs() >= threshold && e.abs() > 0.0)
        .map(|&(key, estimated_error)| Alarm { key, estimated_error, threshold })
        .collect();
    (IntervalReport { alarms, errors, non_finite_errors, ..like.clone() }, ranked)
}

/// What the order of `errors` may and may not change: the digest and `==`
/// see a ranked list, whatever order it is in, and the digest is the one a
/// CRC over the oracle's ranked list gives.
fn assert_order_blind(report: &IntervalReport, ranked: &[(u64, f64)], what: &str) {
    let mut buf = Vec::new();
    for &(key, e) in ranked {
        buf.extend_from_slice(&key.to_le_bytes());
        buf.extend_from_slice(&e.to_bits().to_le_bytes());
    }
    let digest = format!(" errors={}:{:08x} ", ranked.len(), scd_hash::crc32(&buf));
    let line = report.canonical_line();
    assert!(line.contains(&digest), "{what}: {line} does not carry{digest}");

    let mut shuffled = report.clone();
    let mut rng = SplitMix64::new(0x5A0F ^ report.errors.len() as u64);
    for i in (1..shuffled.errors.len()).rev() {
        shuffled.errors.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
    assert_eq!(shuffled.canonical_line(), line, "{what}: the digest saw the order");
    // NaN != NaN: a poisoned report is not equal to itself, shuffled or not.
    if report.error_f2.is_nan() {
        return;
    }
    assert_eq!(shuffled, *report, "{what}: == saw the order");
    if shuffled.errors.is_empty() {
        return;
    }
    let i = shuffled.errors.len() / 2;
    let mut other_key = shuffled.clone();
    other_key.errors[i].0 ^= 1 << 63;
    assert_ne!(other_key, *report, "{what}: == missed a changed key");
    let mut other_bit = shuffled.clone();
    other_bit.errors[i].1 = f64::from_bits(other_bit.errors[i].1.to_bits() ^ 1);
    assert_ne!(other_bit, *report, "{what}: == missed a changed estimate bit");
    let mut shorter = shuffled;
    shorter.errors.pop();
    assert_ne!(shorter, *report, "{what}: == missed a missing entry");
}

/// Feeds `feed` through a detector and holds every warmed-up report to
/// the per-key oracle over the very error sketch the report came from
/// (under `NextInterval` that is the previous interval's, queried with
/// this interval's keys — what `process_observed_archiving` hands back):
/// `errors` in first-seen order, then ranked by `rank_errors`, the
/// digest and `==` blind to the order.
fn check(cfg: &DetectorConfig, feed: &[Interval], what: &str) -> Vec<IntervalReport> {
    let mut det = SketchChangeDetector::new(cfg.clone());
    let mut coins = match cfg.key_strategy {
        KeyStrategy::Sampled { rate, seed } => Some((rate, SplitMix64::new(seed))),
        _ => None,
    };
    feed.iter()
        .map(|(observed, keys)| {
            let (report, error) = det.process_observed_archiving(observed, keys.clone());
            if let Some((t, error)) = error {
                assert_eq!(t, report.interval);
                let what = format!("{what}, interval {t}");
                let keep =
                    || coins.as_mut().map_or(true, |(rate, rng)| UpdateSampler::keep(*rate, rng));
                let (expected, by_rank) = oracle(&error, keys, keep, &report);
                assert_same(&report, &expected, &what);
                assert_same(
                    &ranked(&report),
                    &IntervalReport { errors: by_rank.clone(), ..expected },
                    &format!("{what}, ranked"),
                );
                assert_order_blind(&report, &by_rank, &what);
            }
            report
        })
        .collect()
}

/// `report` with its errors ranked.
fn ranked(report: &IntervalReport) -> IntervalReport {
    let mut ranked = report.clone();
    ranked.rank_errors();
    ranked
}

/// Key counts from nothing to several tiles, on both sides of every tile
/// boundary — two model families' error sketches, all three key
/// strategies. `Sampled` draws one coin per deduplicated key in
/// first-seen order before the scan starts, so the oracle can only agree
/// if the scan leaves that order alone.
#[test]
fn the_scan_reports_what_the_per_key_oracle_reports() {
    let sizes = [0, 1, 5, 700, ESTIMATE_TILE - 1, ESTIMATE_TILE, ESTIMATE_TILE + 1];
    for strategy in STRATEGIES {
        for model in [ModelSpec::Ma { window: 1 }, ModelSpec::Ewma { alpha: 0.3 }] {
            let cfg = config(model, strategy);
            let det = SketchChangeDetector::new(cfg.clone());
            for n in sizes {
                let feed = intervals(&det, n, 4);
                let reports = check(&cfg, &feed, &format!("{strategy:?} n={n}"));
                let scanned = reports.last().unwrap().errors.len();
                match strategy {
                    KeyStrategy::Sampled { .. } => assert!(scanned <= n),
                    _ => assert_eq!(scanned, n, "every distinct key scanned once"),
                }
            }
        }
    }
}

/// A `replay-keys`-sized interval (several tiles and a ragged tail). The
/// value grid makes magnitude ties common; the order among them is by
/// key, which an unstable sort can only promise under a total order.
#[test]
fn magnitude_ties_over_several_tiles_are_ordered_by_key() {
    let cfg = config(ModelSpec::Ma { window: 1 }, KeyStrategy::TwoPass);
    let det = SketchChangeDetector::new(cfg.clone());
    let feed = intervals(&det, 3 * ESTIMATE_TILE + 4_097, 3);
    let reports = check(&cfg, &feed, "several tiles");
    let errors = &ranked(reports.last().unwrap()).errors;
    let ties = errors.windows(2).filter(|w| w[0].1.abs() == w[1].1.abs()).count();
    assert!(ties > 1_000, "expected many magnitude ties, found {ties}");
}

/// Equal `|error|` with opposite signs on different keys: interval 0
/// carries keys `A`, interval 1 carries keys `B` with the same volumes,
/// and `ma:1` makes the error sketch their exact difference — `sum(S)` is
/// zero, so `A_i` and `B_i` estimate to `∓v_i` exactly. The ranking must
/// order each such pair by key.
#[test]
fn opposite_sign_ties_are_ordered_by_key() {
    let cfg = config(ModelSpec::Ma { window: 1 }, KeyStrategy::TwoPass);
    let det = SketchChangeDetector::new(cfg.clone());
    let (mut first, mut second) =
        (KarySketch::with_rows(det.rows().clone()), KarySketch::with_rows(det.rows().clone()));
    let mut keys = Vec::new();
    for i in 0..300u64 {
        let volume = (i + 1) as f64 * 8.0;
        // B before A in the replay list and B > A numerically, so arrival
        // order does not produce the right answer by luck.
        let (a, b) = (1_000 + i, 900_000 - i);
        first.update(a, volume);
        second.update(b, volume);
        keys.extend([b, a]);
    }
    let feed = vec![(first, keys.clone()), (second, keys)];
    let reports = check(&cfg, &feed, "opposite-sign ties");
    let errors = &ranked(&reports[1]).errors;
    assert_eq!(errors.len(), 600);
    let opposite_pairs = errors
        .windows(2)
        .filter(|w| w[0].1 == -w[1].1 && w[0].1 != 0.0)
        .inspect(|w| assert!(w[0].0 < w[1].0, "tie not in key order: {w:?}"))
        .count();
    assert!(opposite_pairs >= 200, "only {opposite_pairs} opposite-sign ties formed");
}

/// Non-finite estimates are counted and dropped wherever in the replay
/// list they fall — here the first key and the last — and the finite rest
/// is reported as ever. Volumes of `±f64::MAX` leave every cell and
/// `sum(S)` finite but overflow the estimator's `/(1 − 1/K)` for the two
/// keys that own them, so finite and non-finite estimates mix in one
/// interval (an infinite *cell* would poison `sum(S)` and with it every
/// key).
#[test]
fn non_finite_estimates_are_counted_and_dropped() {
    let cfg = config(ModelSpec::Ma { window: 1 }, KeyStrategy::TwoPass);
    let det = SketchChangeDetector::new(cfg.clone());
    let n = 6_000usize;
    let mut feed = intervals(&det, n, 3);
    let (observed, keys) = &mut feed[1];
    let poisoned = [keys[0], keys[keys.len() - 1]];
    observed.update(poisoned[0], f64::MAX);
    observed.update(poisoned[1], -f64::MAX);
    let reports = check(&cfg, &feed, "poisoned");
    for report in &reports[1..] {
        // Interval 1 sees ±huge, interval 2 (its `ma:1` echo) ∓huge.
        assert_eq!(report.non_finite_errors, 2, "interval {}", report.interval);
        assert_eq!(report.errors.len(), n - 2);
        assert!(report.errors.iter().all(|(k, e)| e.is_finite() && !poisoned.contains(k)));
        assert!(report.alarms.is_empty(), "an infinite F2 puts the bar out of reach");
    }
}

/// Interval 0 is empty; intervals 1–3 are one and the same: `pairs`
/// opposite-sign pairs (`A_i = +v_i`, `B_i = −v_i`, `v_i` from a
/// twenty-value grid, so magnitudes tie within a pair and across pairs)
/// and `quiet` keys that are listed but never updated, over a table whose
/// untouched cells alternate `−0.0` / `+0.0`. Under `ma:1` interval 1's
/// error sketch is that table: `sum(S)` is exactly zero, a quiet key
/// estimates to a signed zero, and `A_i` / `B_i` to `±v_i` wherever they
/// do not collide. Intervals 2 and 3 predict their predecessor exactly:
/// every cell, `F2` and `TA` are zero.
fn signed_zero_feed(det: &SketchChangeDetector, pairs: u64, quiet: u64) -> Vec<Interval> {
    let mut observed = KarySketch::with_rows(det.rows().clone());
    for (i, cell) in observed.table_mut().iter_mut().enumerate() {
        if i % 2 == 0 {
            *cell = -0.0;
        }
    }
    let mut keys = Vec::new();
    for i in 0..pairs {
        let volume = ((i * 7) % 20 + 1) as f64 * 100.0;
        let (a, b) = (10_000 + i, 5_000_000 - i);
        observed.update(a, volume);
        observed.update(b, -volume);
        keys.extend([b, a]);
    }
    keys.extend((0..quiet).map(|i| 70_000_000 + i * 977));
    let empty = KarySketch::with_rows(det.rows().clone());
    let mut feed = vec![(empty, keys.clone())];
    feed.extend((0..3).map(|_| (observed.clone(), keys.clone())));
    feed
}

/// At every paper `H` and under every key strategy: a report with
/// opposite-sign magnitude ties among its alarms, signed zeros among its
/// errors and a nonzero bar, then reports with `F2 = 0` — where `TA = 0`
/// and a key whose estimate is zero must still not alarm.
#[test]
fn signed_zeros_ties_and_a_zero_bar_alarm_as_the_oracle_does() {
    for h in [1usize, 5, 9, 25] {
        for strategy in STRATEGIES {
            let what = format!("H={h} {strategy:?}");
            let cfg = config_h(h, ModelSpec::Ma { window: 1 }, strategy);
            let det = SketchChangeDetector::new(cfg.clone());
            let reports = check(&cfg, &signed_zero_feed(&det, 200, 600), &what);
            let warm: Vec<&IntervalReport> = reports.iter().filter(|r| r.warmed_up).collect();
            assert_eq!(warm.len(), 3 - usize::from(strategy == KeyStrategy::NextInterval));

            let changed = warm[0];
            assert_eq!(changed.interval, 1, "{what}");
            assert!(changed.alarm_threshold > 0.0, "{what}");
            let zeros = |negative: bool| {
                let signed = |&&(_, e): &&(u64, f64)| e == 0.0 && e.is_sign_negative() == negative;
                changed.errors.iter().filter(signed).count()
            };
            assert!(zeros(true) > 10 && zeros(false) > 10, "{what}: ±0.0");
            let alarms = &changed.alarms;
            assert!(alarms.iter().all(|a| a.estimated_error.abs() >= changed.alarm_threshold));
            let opposite_ties = alarms
                .windows(2)
                .filter(|w| w[0].estimated_error == -w[1].estimated_error)
                .inspect(|w| assert!(w[0].key < w[1].key, "{what}: tie not in key order"))
                .count();
            assert!(opposite_ties >= 10, "{what}: {opposite_ties} opposite-sign alarm ties");

            for still in &warm[1..] {
                assert_eq!((still.error_f2, still.alarm_threshold), (0.0, 0.0), "{what}");
                assert!(!still.errors.is_empty(), "{what}");
                assert!(still.errors.iter().all(|(_, e)| *e == 0.0), "{what}");
                assert!(still.alarms.is_empty(), "{what}: a zero error alarmed under TA = 0");
            }
        }
    }
}

/// The archive's notable keys come from a bounded selection, not a sort
/// of the whole list: they must be exactly the first 256 entries of the
/// ranked list, folded to magnitude — at, around and far past the cap,
/// with magnitude ties, opposite signs and signed zeros.
#[test]
fn notable_keys_are_the_ranked_prefix() {
    for n in [0usize, 1, 255, 256, 257, 10_000] {
        let mut rng = SplitMix64::new(0x0AB1_E000 ^ n as u64);
        let errors: Vec<(u64, f64)> = (0..n as u64)
            .map(|i| {
                let key = i.wrapping_mul(2_654_435_761) % (1 << 32);
                let magnitude = (rng.next_below(40) * 50) as f64;
                (key, if rng.next_below(2) == 0 { -magnitude } else { magnitude })
            })
            .collect();
        let report = IntervalReport { errors, warmed_up: true, ..Default::default() };
        let expected: Vec<(u64, f64)> =
            ranked(&report).errors.iter().take(256).map(|&(k, e)| (k, e.abs())).collect();
        let got = notable_keys(&report);
        assert_eq!(bits(&got), bits(&expected), "n={n}");
        assert_eq!(got.len(), n.min(256));
    }
}
