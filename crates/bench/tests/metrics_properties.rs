//! Property-based tests for the evaluation metrics, driven by a seeded
//! `SplitMix64` so runs are reproducible: the experiment harness's
//! conclusions are only as sound as these functions.

use scd_bench::metrics;
use scd_hash::SplitMix64;

const CASES: u64 = 64;

fn uniform(rng: &mut SplitMix64, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * (rng.next_below(1_000_000) as f64) / 1_000_000.0
}

/// A per-flow error list: at most one entry per key.
fn error_list(rng: &mut SplitMix64) -> Vec<(u64, f64)> {
    let len = rng.next_below(80) as usize;
    let mut v: Vec<(u64, f64)> =
        (0..len).map(|_| (rng.next_below(500), uniform(rng, -1e6, 1e6))).collect();
    let mut seen = std::collections::HashSet::new();
    v.retain(|(k, _)| seen.insert(*k));
    v
}

/// Similarity is always within [0, 1].
#[test]
fn similarity_bounded() {
    let mut rng = SplitMix64::new(0x51A1);
    for _ in 0..CASES {
        let pf = error_list(&mut rng);
        let sk = error_list(&mut rng);
        let n = 1 + rng.next_below(49) as usize;
        let s = metrics::topn_similarity(&pf, &sk, n);
        assert!((0.0..=1.0).contains(&s), "similarity {s}");
    }
}

/// Comparing a list against itself is perfect for any N.
#[test]
fn self_similarity_is_one() {
    let mut rng = SplitMix64::new(0x5E1F);
    for _ in 0..CASES {
        let pf = error_list(&mut rng);
        let n = 1 + rng.next_below(49) as usize;
        assert_eq!(metrics::topn_similarity(&pf, &pf, n), 1.0);
    }
}

/// Expanding the candidate list (larger X) never reduces similarity.
#[test]
fn x_monotone() {
    let mut rng = SplitMix64::new(0x1107);
    for _ in 0..CASES {
        let pf = error_list(&mut rng);
        let sk = error_list(&mut rng);
        let n = 1 + rng.next_below(29) as usize;
        let mut prev = 0.0;
        for x in [1.0, 1.25, 1.5, 1.75, 2.0] {
            let s = metrics::topn_vs_xn(&pf, &sk, n, x);
            assert!(s + 1e-12 >= prev, "X={x}: {s} < {prev}");
            prev = s;
        }
    }
}

/// Threshold-report counts are internally consistent: the overlap never
/// exceeds either side, and ratios are in [0, 1].
#[test]
fn threshold_report_consistent() {
    let mut rng = SplitMix64::new(0x7B0E);
    for _ in 0..CASES {
        let pf = error_list(&mut rng);
        let sk = error_list(&mut rng);
        let l2 = uniform(&mut rng, 0.0, 1e6);
        let phi = uniform(&mut rng, 0.001, 0.5);
        let rep = metrics::threshold_report(&pf, &sk, l2, phi);
        assert!(rep.common_alarms <= rep.perflow_alarms);
        assert!(rep.common_alarms <= rep.sketch_alarms);
        assert!((0.0..=1.0).contains(&rep.false_negative_ratio()));
        assert!((0.0..=1.0).contains(&rep.false_positive_ratio()));
    }
}

/// Raising the threshold fraction never raises the per-flow alarm count.
#[test]
fn alarms_monotone_in_threshold() {
    let mut rng = SplitMix64::new(0xA1A2);
    for _ in 0..CASES {
        let pf = error_list(&mut rng);
        let sk = error_list(&mut rng);
        let l2 = uniform(&mut rng, 1.0, 1e6);
        let mut prev = usize::MAX;
        for phi in [0.01, 0.02, 0.05, 0.1, 0.3] {
            let rep = metrics::threshold_report(&pf, &sk, l2, phi);
            assert!(rep.perflow_alarms <= prev);
            prev = rep.perflow_alarms;
        }
    }
}

/// The empirical CDF is monotone in both coordinates, starts above 0 and
/// ends at exactly 1.
#[test]
fn cdf_well_formed() {
    let mut rng = SplitMix64::new(0xCDF0);
    for _ in 0..CASES {
        let len = 1 + rng.next_below(199) as usize;
        let values: Vec<f64> = (0..len).map(|_| uniform(&mut rng, -1e9, 1e9)).collect();
        let cdf = metrics::empirical_cdf(&values);
        assert_eq!(cdf.len(), values.len());
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
        for w in cdf.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
    }
}

/// Total energy is the Euclidean norm of the per-interval L2 values:
/// permutation-invariant and monotone under adding intervals.
#[test]
fn total_energy_properties() {
    let mut rng = SplitMix64::new(0xE4E6);
    for _ in 0..CASES {
        let len = 1 + rng.next_below(39) as usize;
        let f2s: Vec<f64> = (0..len).map(|_| uniform(&mut rng, 0.0, 1e9)).collect();
        let e = metrics::total_energy(&f2s);
        let mut shuffled = f2s.clone();
        shuffled.reverse();
        assert!((metrics::total_energy(&shuffled) - e).abs() < 1e-9);
        let mut extended = f2s.clone();
        extended.push(1.0);
        assert!(metrics::total_energy(&extended) >= e);
    }
}

/// Relative difference is zero exactly at equality.
#[test]
fn relative_difference_zero_at_equality() {
    let mut rng = SplitMix64::new(0x0E11);
    for _ in 0..CASES {
        let e = uniform(&mut rng, 1.0, 1e9);
        assert_eq!(metrics::relative_difference(e, e), 0.0);
    }
}
