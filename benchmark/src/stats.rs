//! Sample statistics: medians, nearest-rank percentiles, the "ten samples
//! beyond" rule for tail percentiles, and the quartiles `compare` reports.

/// Sorts a sample in place (timings are finite; `total_cmp` keeps the sort
/// total regardless).
pub fn sort(values: &mut [f64]) {
    values.sort_unstable_by(f64::total_cmp);
}

/// Nearest-rank percentile of an ascending sample: the smallest value with
/// at least `p` of the sample at or below it. `p` in `[0, 1]`.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a sample (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    sort(&mut v);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The highest percentile, capped at `cap`, that still leaves at least ten
/// samples beyond it; a sample too small for any tail falls back to the
/// median. 1200 samples support p99 (12 beyond); 168 support p94.
pub fn tail_percentile(samples: usize, cap: f64) -> f64 {
    if samples < 20 {
        return 0.5;
    }
    (1.0 - 10.0 / samples as f64).min(cap).max(0.5)
}

/// `(value, percentile used)` at the highest supported percentile <= p99.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    sort(&mut v);
    let p = tail_percentile(v.len(), 0.99);
    (percentile_sorted(&v, p), p)
}

/// The tail of each group's samples, then the median over groups. Under a
/// periodic writer the slow requests are the ones that meet its burst, so
/// the tail is taken per writer period: one odd burst moves one group, not
/// the result. With a single group this is [`tail`].
pub fn tail_by_group(values: &[f64], groups: &[u32]) -> f64 {
    assert_eq!(values.len(), groups.len());
    let mut by_group: std::collections::BTreeMap<u32, Vec<f64>> = std::collections::BTreeMap::new();
    for (&v, &g) in values.iter().zip(groups) {
        by_group.entry(g).or_default().push(v);
    }
    let tails: Vec<f64> = by_group.values().map(|v| tail(v).0).collect();
    median(&tails)
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile range as a share of the median: the spread the contract
/// compares with a metric's bound.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// `100 * (a - b) / b`.
pub fn pct_over(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        100.0 * (a - b) / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.5), 50.0);
        assert_eq!(percentile_sorted(&v, 0.99), 99.0);
        assert_eq!(percentile_sorted(&v, 1.0), 100.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(1200, 0.99), 0.99); // 12 beyond
        assert_eq!(tail_percentile(1000, 0.99), 0.99); // exactly 10 beyond
        assert!((tail_percentile(800, 0.99) - 0.9875).abs() < 1e-12);
        assert!((tail_percentile(168, 0.99) - (1.0 - 10.0 / 168.0)).abs() < 1e-12);
        assert_eq!(tail_percentile(20, 0.99), 0.5);
        assert_eq!(tail_percentile(5, 0.99), 0.5);
        for n in [20usize, 32, 168, 800, 1200, 50_000] {
            let p = tail_percentile(n, 0.99);
            assert!(n as f64 * (1.0 - p) >= 10.0 - 1e-9, "{n} samples at p{p}");
        }
    }

    #[test]
    fn grouped_tail_is_the_median_of_group_tails() {
        let values: Vec<f64> = (0..300).map(f64::from).collect();
        let one_group = vec![0u32; 300];
        assert_eq!(tail_by_group(&values, &one_group), tail(&values).0);
        // Three groups of 100: tails at p90 are 89, 189, 289.
        let groups: Vec<u32> = (0..300).map(|i| i / 100).collect();
        assert_eq!(tail_by_group(&values, &groups), 189.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 4.0, 12.0));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
