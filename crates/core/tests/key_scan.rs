//! The detect-stage key scan is batched, tiled and ordered with an
//! unstable sort on an integer key; the `IntervalReport` may not tell.
//! These tests hold the report — `errors` order, alarms,
//! `non_finite_errors` — to an oracle that scores one key at a time and
//! orders with the comparator the scan used before: a stable `sort_by` on
//! `total_cmp` of `|e|`, then key.

use scd_core::{
    Alarm, DetectorConfig, IntervalReport, KeyStrategy, SketchChangeDetector, UpdateSampler,
};
use scd_forecast::ModelSpec;
use scd_hash::SplitMix64;
use scd_sketch::batch::ESTIMATE_TILE;
use scd_sketch::{KarySketch, SketchConfig};

fn config(model: ModelSpec, strategy: KeyStrategy) -> DetectorConfig {
    DetectorConfig {
        sketch: SketchConfig { h: 5, k: 4096, seed: 0x5CA9 },
        model,
        threshold: 0.02,
        key_strategy: strategy,
    }
}

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

/// Field-by-field equality with the floats by bit pattern (`error_f2`
/// can be NaN or infinite in the poisoned cases, and NaN != NaN).
fn assert_same(a: &IntervalReport, b: &IntervalReport, what: &str) {
    assert_eq!((a.interval, a.warmed_up), (b.interval, b.warmed_up), "{what}");
    assert_eq!(a.error_f2.to_bits(), b.error_f2.to_bits(), "{what}: F2");
    assert_eq!(a.alarm_threshold.to_bits(), b.alarm_threshold.to_bits(), "{what}: threshold");
    assert_eq!(a.non_finite_errors, b.non_finite_errors, "{what}: non-finite count");
    let bits = |errors: &[(u64, f64)]| -> Vec<(u64, u64)> {
        errors.iter().map(|&(k, e)| (k, e.to_bits())).collect()
    };
    assert_eq!(bits(&a.errors), bits(&b.errors), "{what}: errors");
    let alarm_bits = |alarms: &[Alarm]| -> Vec<(u64, u64, u64)> {
        alarms.iter().map(|a| (a.key, a.estimated_error.to_bits(), a.threshold.to_bits())).collect()
    };
    assert_eq!(alarm_bits(&a.alarms), alarm_bits(&b.alarms), "{what}: alarms");
}

/// The scan as it was before it was batched or tiled: one `ESTIMATE` per
/// first-seen key that `keep` admits (the `Sampled` coin, drawn in
/// first-seen order), non-finite ones counted and dropped, then the old
/// stable comparator sort and the alarm prefix. Interval, F2 and
/// threshold are taken from `like` — they are computed before the scan
/// and are not its business.
fn oracle(
    error: &KarySketch,
    keys: &[u64],
    mut keep: impl FnMut() -> bool,
    like: &IntervalReport,
) -> IntervalReport {
    let estimator = error.estimator();
    let mut seen = std::collections::HashSet::new();
    let mut non_finite_errors = 0u64;
    let mut errors: Vec<(u64, f64)> = keys
        .iter()
        .filter(|k| seen.insert(**k) && keep())
        .map(|&key| (key, estimator.estimate(key)))
        .filter(|&(_, e)| {
            non_finite_errors += u64::from(!e.is_finite());
            e.is_finite()
        })
        .collect();
    errors.sort_by(|a, b| b.1.abs().total_cmp(&a.1.abs()).then_with(|| a.0.cmp(&b.0)));
    let threshold = like.alarm_threshold;
    let alarms = errors
        .iter()
        .take_while(|(_, e)| e.abs() >= threshold && e.abs() > 0.0)
        .map(|&(key, estimated_error)| Alarm { key, estimated_error, threshold })
        .collect();
    IntervalReport { alarms, errors, non_finite_errors, ..like.clone() }
}

/// Feeds `feed` through a detector and holds every warmed-up report to
/// the per-key oracle over the very error sketch the report came from
/// (under `NextInterval` that is the previous interval's, queried with
/// this interval's keys — what `process_observed_archiving` hands back).
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
                let keep =
                    || coins.as_mut().map_or(true, |(rate, rng)| UpdateSampler::keep(*rate, rng));
                let expected = oracle(&error, keys, keep, &report);
                assert_same(&report, &expected, &format!("{what}, interval {t}"));
            }
            report
        })
        .collect()
}

/// Key counts from nothing to several tiles, on both sides of every tile
/// boundary — two model families' error sketches, all three key
/// strategies. `Sampled` draws one coin per deduplicated key in
/// first-seen order before the scan starts, so the oracle can only agree
/// if the scan leaves that order alone.
#[test]
fn the_scan_reports_what_the_per_key_oracle_reports() {
    let strategies = [
        KeyStrategy::TwoPass,
        KeyStrategy::NextInterval,
        KeyStrategy::Sampled { rate: 0.6, seed: 17 },
    ];
    let sizes = [0, 1, 5, 700, ESTIMATE_TILE - 1, ESTIMATE_TILE, ESTIMATE_TILE + 1];
    for strategy in strategies {
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
    let errors = &reports.last().unwrap().errors;
    let ties = errors.windows(2).filter(|w| w[0].1.abs() == w[1].1.abs()).count();
    assert!(ties > 1_000, "expected many magnitude ties, found {ties}");
}

/// Equal `|error|` with opposite signs on different keys: interval 0
/// carries keys `A`, interval 1 carries keys `B` with the same volumes,
/// and `ma:1` makes the error sketch their exact difference — `sum(S)` is
/// zero, so `A_i` and `B_i` estimate to `∓v_i` exactly. The report must
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
    let errors = &reports[1].errors;
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
