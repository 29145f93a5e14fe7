//! Median selection for the per-row estimates.
//!
//! The paper chooses `H ∈ {1, 5, 9, 25}` precisely because "we can use
//! optimized median networks to find the medians quickly without making any
//! assumptions on the nature of the input" (§4.2, citing Devillard's *Fast
//! median search* and Huang et al.'s median filtering networks). Those
//! fixed-size comparison networks for 3, 5, 7, 9 and 25 elements are kept
//! here as `const` pair tables ([`network`]); other sizes fall back to
//! `select_nth_unstable`.
//!
//! A network performs a *selection*, not a full sort: after its exchanges
//! run, the middle slot holds the median; other slots are scrambled. Each
//! table has two executors that must agree to the bit — [`median_inplace`]
//! runs it on one key's `H` values, [`crate::simd::median_rows`] runs it
//! on four keys at a time across a row-major block — so the exchange
//! itself is pinned down once, in [`exchange`].
//!
//! NaN handling: sketch cells are finite by construction (updates are
//! finite and combinations use finite coefficients). If a NaN sneaks in,
//! every comparison against it is false, so it stays in its slot and the
//! network still terminates with *some* input value in the middle — the
//! same one under both executors. The selection fallback orders by
//! `f64::total_cmp`, which is total.

/// One compare-exchange on two values: `(lo, hi)` such that `lo <= hi`
/// whenever the inputs are ordered. The selects are written out — `lo` is
/// `y` exactly when `x > y` — because every executor of the networks below
/// (per key here, lanewise in [`crate::simd::median_rows`]) must agree on
/// where `±0.0` pairs and NaNs land: `x > y` is false for both, so such a
/// pair passes through unswapped.
#[inline(always)]
pub fn exchange(x: f64, y: f64) -> (f64, f64) {
    (if x > y { y } else { x }, if x > y { x } else { y })
}

/// A median-selection network: compare-exchange slot pairs, run in order
/// on `H` values; afterwards slot `H / 2` holds the median.
pub type Network = [(usize, usize)];

/// 3 elements, 3 exchanges.
const NET3: [(usize, usize); 3] = [(0, 1), (1, 2), (0, 1)];

/// 5 elements, 7 exchanges (Devillard's `opt_med5`).
const NET5: [(usize, usize); 7] = [(0, 1), (3, 4), (0, 3), (1, 4), (1, 2), (2, 3), (1, 2)];

/// 7 elements, 13 exchanges (Devillard's `opt_med7`).
const NET7: [(usize, usize); 13] = [
    (0, 5),
    (0, 3),
    (1, 6),
    (2, 4),
    (0, 1),
    (3, 5),
    (2, 6),
    (2, 3),
    (3, 6),
    (4, 5),
    (1, 4),
    (1, 3),
    (3, 4),
];

/// 9 elements, 19 exchanges (Paeth's network, as in Devillard's
/// `opt_med9`).
const NET9: [(usize, usize); 19] = [
    (1, 2),
    (4, 5),
    (7, 8),
    (0, 1),
    (3, 4),
    (6, 7),
    (1, 2),
    (4, 5),
    (7, 8),
    (0, 3),
    (5, 8),
    (4, 7),
    (3, 6),
    (1, 4),
    (2, 5),
    (4, 7),
    (4, 2),
    (6, 4),
    (4, 2),
];

/// 25 elements, 99 exchanges (Devillard's `opt_med25`).
const NET25: [(usize, usize); 99] = [
    (0, 1),
    (3, 4),
    (2, 4),
    (2, 3),
    (6, 7),
    (5, 7),
    (5, 6),
    (9, 10),
    (8, 10),
    (8, 9),
    (12, 13),
    (11, 13),
    (11, 12),
    (15, 16),
    (14, 16),
    (14, 15),
    (18, 19),
    (17, 19),
    (17, 18),
    (21, 22),
    (20, 22),
    (20, 21),
    (23, 24),
    (2, 5),
    (3, 6),
    (0, 6),
    (0, 3),
    (4, 7),
    (1, 7),
    (1, 4),
    (11, 14),
    (8, 14),
    (8, 11),
    (12, 15),
    (9, 15),
    (9, 12),
    (13, 16),
    (10, 16),
    (10, 13),
    (20, 23),
    (17, 23),
    (17, 20),
    (21, 24),
    (18, 24),
    (18, 21),
    (19, 22),
    (8, 17),
    (9, 18),
    (0, 18),
    (0, 9),
    (10, 19),
    (1, 19),
    (1, 10),
    (11, 20),
    (2, 20),
    (2, 11),
    (12, 21),
    (3, 21),
    (3, 12),
    (13, 22),
    (4, 22),
    (4, 13),
    (14, 23),
    (5, 23),
    (5, 14),
    (15, 24),
    (6, 24),
    (6, 15),
    (7, 16),
    (7, 19),
    (13, 21),
    (15, 23),
    (7, 13),
    (7, 15),
    (1, 9),
    (3, 11),
    (5, 17),
    (11, 17),
    (9, 17),
    (4, 10),
    (6, 12),
    (7, 14),
    (4, 6),
    (4, 7),
    (12, 14),
    (10, 14),
    (6, 7),
    (10, 12),
    (6, 10),
    (6, 17),
    (12, 17),
    (7, 17),
    (7, 10),
    (12, 18),
    (7, 12),
    (10, 18),
    (12, 20),
    (10, 20),
    (10, 12),
];

/// The selection network for `h` values, for the sizes that have one.
pub fn network(h: usize) -> Option<&'static Network> {
    match h {
        3 => Some(&NET3),
        5 => Some(&NET5),
        7 => Some(&NET7),
        9 => Some(&NET9),
        25 => Some(&NET25),
        _ => None,
    }
}

/// General median by partial selection. For even lengths this returns the
/// *lower* middle element — the paper's estimators only ever use odd `H`
/// (1, 5, 9, 25), so the choice is inconsequential but must be documented.
fn median_general(v: &mut [f64]) -> f64 {
    let mid = (v.len() - 1) / 2;
    let (_, m, _) = v.select_nth_unstable_by(mid, f64::total_cmp);
    *m
}

/// Returns the median of `values`, scrambling the slice.
///
/// Uses a fixed comparison network for the sizes the paper recommends
/// (`H ∈ {1, 3, 5, 7, 9, 25}`) and partial selection otherwise.
///
/// # Panics
/// Panics on an empty slice.
pub fn median_inplace(values: &mut [f64]) -> f64 {
    let h = values.len();
    assert!(h > 0, "median of empty slice");
    match network(h) {
        Some(net) => {
            for &(a, b) in net {
                (values[a], values[b]) = exchange(values[a], values[b]);
            }
            values[h / 2]
        }
        None if h == 1 => values[0],
        None => median_general(values),
    }
}

/// Returns the median via the generic selection path only — used by the
/// `median_ablation` benchmark to compare networks against selection.
pub fn median_selection_only(values: &mut [f64]) -> f64 {
    if values.len() == 1 {
        return values[0];
    }
    median_general(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference_median(vals: &[f64]) -> f64 {
        let mut s = vals.to_vec();
        s.sort_by(f64::total_cmp);
        s[(s.len() - 1) / 2]
    }

    /// Networks must agree with sort-based median on randomized inputs for
    /// every supported size — this exhaustively validates the comparison
    /// sequences (a single wrong pair would fail within a few trials).
    #[test]
    fn networks_match_reference() {
        let mut state = 0x1234_5678_u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (1u64 << 31) as f64 - 0.5
        };
        for &n in &[1usize, 3, 5, 7, 9, 25] {
            for _ in 0..2000 {
                let vals: Vec<f64> = (0..n).map(|_| next()).collect();
                let mut work = vals.clone();
                let got = median_inplace(&mut work);
                assert_eq!(got, reference_median(&vals), "n = {n}, vals = {vals:?}");
            }
        }
    }

    /// The tables themselves, independent of any executor: exactly the
    /// five sizes are tabulated, every pair addresses a slot below `H`,
    /// and — by the zero-one principle, which holds for selection as for
    /// sorting — a table that selects the median of every 0/1 input
    /// selects it for all inputs (checked exhaustively up to `H = 9`; the
    /// 2²⁵ inputs of `H = 25` are left to the randomized check above).
    #[test]
    fn network_tables_are_well_formed_and_select_every_zero_one_input() {
        let tabulated: Vec<usize> = (0..=32).filter(|&h| network(h).is_some()).collect();
        assert_eq!(tabulated, [3, 5, 7, 9, 25]);
        for h in tabulated {
            let net = network(h).unwrap();
            assert!(net.iter().all(|&(a, b)| a < h && b < h && a != b), "H = {h}");
            if h > 9 {
                continue;
            }
            for bits in 0u32..1 << h {
                let mut v: Vec<f64> = (0..h).map(|i| f64::from((bits >> i) & 1)).collect();
                for &(a, b) in net {
                    (v[a], v[b]) = exchange(v[a], v[b]);
                }
                let expect = f64::from(u32::from(bits.count_ones() as usize > h / 2));
                assert_eq!(v[h / 2], expect, "H = {h}, input {bits:#b}");
            }
        }
    }

    /// `exchange` leaves unordered pairs where they were: the property
    /// both executors of the tables rely on to agree bit for bit.
    #[test]
    fn exchange_passes_signed_zeros_and_nans_through() {
        let bits = |(lo, hi): (f64, f64)| (lo.to_bits(), hi.to_bits());
        assert_eq!(bits(exchange(0.0, -0.0)), (0.0f64.to_bits(), (-0.0f64).to_bits()));
        assert_eq!(bits(exchange(-0.0, 0.0)), ((-0.0f64).to_bits(), 0.0f64.to_bits()));
        assert_eq!(bits(exchange(f64::NAN, 1.0)), (f64::NAN.to_bits(), 1.0f64.to_bits()));
        assert_eq!(bits(exchange(1.0, f64::NAN)), (1.0f64.to_bits(), f64::NAN.to_bits()));
        assert_eq!(exchange(2.0, 1.0), (1.0, 2.0));
    }

    #[test]
    fn networks_handle_duplicates_and_extremes() {
        for &n in &[3usize, 5, 7, 9, 25] {
            let mut all_same = vec![4.25; n];
            assert_eq!(median_inplace(&mut all_same), 4.25);

            let mut with_infs: Vec<f64> = (0..n).map(|i| i as f64).collect();
            with_infs[0] = f64::NEG_INFINITY;
            with_infs[n - 1] = f64::INFINITY;
            let expect = reference_median(&with_infs);
            assert_eq!(median_inplace(&mut with_infs), expect);
        }
    }

    #[test]
    fn general_path_used_for_other_sizes() {
        for n in [2usize, 4, 6, 8, 11, 13, 17, 100] {
            let vals: Vec<f64> = (0..n).map(|i| ((i * 7919) % n) as f64).collect();
            let mut work = vals.clone();
            assert_eq!(median_inplace(&mut work), reference_median(&vals), "n = {n}");
        }
    }

    #[test]
    fn selection_only_matches() {
        let vals: Vec<f64> = vec![9.0, 1.0, 5.0, 3.0, 7.0];
        let mut a = vals.clone();
        let mut b = vals.clone();
        assert_eq!(median_inplace(&mut a), median_selection_only(&mut b));
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_panics() {
        median_inplace(&mut []);
    }
}
