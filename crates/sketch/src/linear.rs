//! The linear-summary trait surface: what COMBINE needs from a sketch.
//!
//! The paper exploits linearity *within* one interval (forecast models run
//! in sketch space); Hokusai-style archives and sharded ingest exploit the
//! same property *across* intervals and *across* threads. Everything they
//! need is captured here: a sketch is a fixed-shape table of registers
//! that combines entry-wise, plus a point estimator to read results back
//! out. Any structure satisfying [`LinearSketch`] can be sharded (merge
//! per-shard summaries with coefficient 1) and archived (sum adjacent
//! windows as they age) without knowing which sketch it is.
//!
//! Four implementations ship in this crate:
//!
//! * [`KarySketch`] — the paper's sketch; fully linear, unbiased point and
//!   second-moment estimates.
//! * [`CountSketch`] — signed updates, unbiased; linear table.
//! * [`CountMinSketch`] — the counter table is linear even though the
//!   *estimator* (min over rows) is not; negative coefficients leave the
//!   cash-register model, so its guarantee only survives all-positive
//!   combinations (which is all sharding and archiving ever use).
//! * [`Deltoid`] — group-testing counters; linear like the k-ary sketch
//!   with per-bit counters riding along.
//!
//! [`SecondMoment`] is the smaller capability needed to pick alarm
//! thresholds (`TA = T·√F2`); Count-Min cannot provide it, which is why
//! change queries require `LinearSketch + SecondMoment` while plain
//! archiving requires only `LinearSketch`.

use crate::batch::EstimateScratch;
use crate::countmin::CountMinSketch;
use crate::countsketch::CountSketch;
use crate::deltoid::Deltoid;
use crate::error::SketchError;
use crate::heavyhitters::MisraGries;
use crate::kary::KarySketch;
use crate::median::median_inplace;

/// Anything that can answer a point query: "how much mass did `key`
/// accumulate?". This is the read surface query services are generic
/// over — every [`LinearSketch`] provides it (as a supertrait), and so
/// do summaries that are *not* linear, like [`MisraGries`], whose
/// counters cannot be combined with arbitrary coefficients but answer
/// exactly this question.
pub trait PointEstimate {
    /// Point estimate of the value accumulated for `key` (each
    /// implementation's native estimator: median-unbiased, min, exact
    /// lower bound, …).
    fn estimate(&self, key: u64) -> f64;

    /// [`estimate`](PointEstimate::estimate) for a whole block of keys:
    /// `out` is cleared and filled with one estimate per key, in order.
    /// The provided form is the per-key loop; sketches with a batched
    /// estimator override it with the same values at a fraction of the
    /// cost (the k-ary sketch's per-key `estimate` rescans a row for
    /// `sum(S)` on every call).
    fn estimate_many(&self, keys: &[u64], out: &mut Vec<f64>) {
        out.clear();
        out.extend(keys.iter().map(|&key| self.estimate(key)));
    }
}

/// Median across `h` per-row statistics — the reduction every
/// median-estimator sketch (k-ary, count sketch, deltoid) shares. The
/// rows are evaluated in order and reduced with the same median network
/// as the historical per-sketch loops, so routing an estimator through
/// this helper is bit-identical to its previous inline implementation.
/// The values live on the stack for `h ≤ 32` (every shape the paper
/// evaluates), so a point query allocates nothing.
pub fn median_over_rows(h: usize, mut per_row: impl FnMut(usize) -> f64) -> f64 {
    const STACK_ROWS: usize = 32;
    if h <= STACK_ROWS {
        let mut values = [0.0f64; STACK_ROWS];
        for (row, value) in values[..h].iter_mut().enumerate() {
            *value = per_row(row);
        }
        median_inplace(&mut values[..h])
    } else {
        let mut values: Vec<f64> = (0..h).map(per_row).collect();
        median_inplace(&mut values)
    }
}

/// Minimum across `h` per-row statistics — the count-min reduction
/// (never underestimates over non-negative streams). Empty row sets
/// reduce to `+inf`, matching a zero-row sketch's "no information".
pub fn min_over_rows(h: usize, per_row: impl FnMut(usize) -> f64) -> f64 {
    (0..h).map(per_row).fold(f64::INFINITY, f64::min)
}

/// A constant-shape summary that combines entry-wise: the COMBINE surface
/// of the paper's §3.1, abstracted over the concrete sketch.
///
/// Implementations must guarantee that for compatible sketches (equal
/// [`identity`](LinearSketch::identity)), `add_scaled` is exact per-cell
/// linearity: every register of `self` becomes `self + c·other`. This is
/// what makes sharded merge *exact* (not approximate) and lets archives
/// halve resolution by summation without re-reading any stream.
///
/// The point estimator lives in the [`PointEstimate`] supertrait, so
/// read-side code that never combines can bound on `PointEstimate`
/// alone (and cover non-linear summaries like [`MisraGries`] too).
pub trait LinearSketch: Clone + PointEstimate {
    /// A zeroed sketch of identical shape, hash family, and auxiliary
    /// state (sign hashes, key width, …) — combinable with `self`.
    fn zero_like(&self) -> Self;

    /// In-place `self += c · other`.
    ///
    /// # Errors
    /// [`SketchError::IncompatibleSketches`] when the two summaries were
    /// built over different hash families (or shapes).
    fn add_scaled(&mut self, other: &Self, c: f64) -> Result<(), SketchError>;

    /// In-place `self *= c`.
    fn scale(&mut self, c: f64);

    /// Hash-family identity `(H, K, seed)`; equal identities are the
    /// precondition for combining.
    fn identity(&self) -> (usize, usize, u64);

    /// Heap bytes held by the register table — the unit the archive's
    /// memory budget is denominated in.
    fn memory_bytes(&self) -> usize;

    /// **COMBINE(c1,S1,…,cl,Sl)** — returns `Σ_i c_i · S_i`. Provided in
    /// terms of [`zero_like`](LinearSketch::zero_like) and
    /// [`add_scaled`](LinearSketch::add_scaled).
    ///
    /// # Errors
    /// [`SketchError::EmptyCombination`] for an empty term list;
    /// [`SketchError::IncompatibleSketches`] on any identity mismatch.
    fn combine(terms: &[(f64, &Self)]) -> Result<Self, SketchError> {
        let &(_, first) = terms.first().ok_or(SketchError::EmptyCombination)?;
        let mut out = first.zero_like();
        for &(c, s) in terms {
            out.add_scaled(s, c)?;
        }
        Ok(out)
    }
}

/// Summaries that can estimate the stream's second moment `F2 = Σ_a v_a²`
/// — the quantity change detection thresholds against (`TA = T·√F2`).
pub trait SecondMoment {
    /// Estimate of `F2`. May be negative for near-empty sketches when the
    /// estimator is unbiased rather than nonnegative; callers clamp.
    fn estimate_f2(&self) -> f64;
}

impl PointEstimate for KarySketch {
    fn estimate(&self, key: u64) -> f64 {
        KarySketch::estimate(self, key)
    }

    fn estimate_many(&self, keys: &[u64], out: &mut Vec<f64>) {
        self.estimate_batch(keys, &mut EstimateScratch::new(), out);
    }
}

impl PointEstimate for CountSketch {
    fn estimate(&self, key: u64) -> f64 {
        CountSketch::estimate(self, key)
    }
}

impl PointEstimate for CountMinSketch {
    fn estimate(&self, key: u64) -> f64 {
        CountMinSketch::estimate(self, key)
    }
}

impl PointEstimate for Deltoid {
    fn estimate(&self, key: u64) -> f64 {
        Deltoid::estimate(self, key)
    }
}

impl PointEstimate for MisraGries {
    fn estimate(&self, key: u64) -> f64 {
        MisraGries::estimate(self, key)
    }
}

impl LinearSketch for KarySketch {
    fn zero_like(&self) -> Self {
        KarySketch::zero_like(self)
    }

    fn add_scaled(&mut self, other: &Self, c: f64) -> Result<(), SketchError> {
        KarySketch::add_scaled(self, other, c)
    }

    fn scale(&mut self, c: f64) {
        KarySketch::scale(self, c);
    }

    fn identity(&self) -> (usize, usize, u64) {
        self.rows().identity()
    }

    fn memory_bytes(&self) -> usize {
        KarySketch::memory_bytes(self)
    }
}

impl SecondMoment for KarySketch {
    fn estimate_f2(&self) -> f64 {
        KarySketch::estimate_f2(self)
    }
}

impl LinearSketch for CountSketch {
    fn zero_like(&self) -> Self {
        CountSketch::zero_like(self)
    }

    fn add_scaled(&mut self, other: &Self, c: f64) -> Result<(), SketchError> {
        CountSketch::add_scaled(self, other, c)
    }

    fn scale(&mut self, c: f64) {
        CountSketch::scale(self, c);
    }

    fn identity(&self) -> (usize, usize, u64) {
        self.rows().identity()
    }

    fn memory_bytes(&self) -> usize {
        CountSketch::memory_bytes(self)
    }
}

impl SecondMoment for CountSketch {
    fn estimate_f2(&self) -> f64 {
        CountSketch::estimate_f2(self)
    }
}

impl LinearSketch for CountMinSketch {
    fn zero_like(&self) -> Self {
        CountMinSketch::zero_like(self)
    }

    fn add_scaled(&mut self, other: &Self, c: f64) -> Result<(), SketchError> {
        CountMinSketch::add_scaled(self, other, c)
    }

    fn scale(&mut self, c: f64) {
        CountMinSketch::scale(self, c);
    }

    fn identity(&self) -> (usize, usize, u64) {
        self.rows().identity()
    }

    fn memory_bytes(&self) -> usize {
        CountMinSketch::memory_bytes(self)
    }
}

impl LinearSketch for Deltoid {
    fn zero_like(&self) -> Self {
        Deltoid::zero_like(self)
    }

    fn add_scaled(&mut self, other: &Self, c: f64) -> Result<(), SketchError> {
        Deltoid::add_scaled(self, other, c)
    }

    fn scale(&mut self, c: f64) {
        Deltoid::scale(self, c);
    }

    fn identity(&self) -> (usize, usize, u64) {
        self.rows().identity()
    }

    fn memory_bytes(&self) -> usize {
        Deltoid::memory_bytes(self)
    }
}

impl SecondMoment for Deltoid {
    fn estimate_f2(&self) -> f64 {
        Deltoid::estimate_f2(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deltoid::DeltoidConfig;
    use crate::kary::SketchConfig;

    /// Updates each sketch kind through the trait-agnostic path and checks
    /// that combine is entry-wise linear on the native estimators.
    fn keyed_updates() -> Vec<(u64, f64)> {
        (0..60u64).map(|k| (k * 7 + 1, (k % 11 + 1) as f64)).collect()
    }

    fn check_merge_equals_whole<S, F, U>(make: F, update: U)
    where
        S: LinearSketch,
        F: Fn() -> S,
        U: Fn(&mut S, u64, f64),
    {
        let updates = keyed_updates();
        let mut whole = make();
        let mut left = make();
        let mut right = make();
        for (i, &(key, value)) in updates.iter().enumerate() {
            update(&mut whole, key, value);
            if i % 2 == 0 {
                update(&mut left, key, value);
            } else {
                update(&mut right, key, value);
            }
        }
        let merged = S::combine(&[(1.0, &left), (1.0, &right)]).expect("combine");
        for &(key, _) in &updates {
            let a = whole.estimate(key);
            let b = merged.estimate(key);
            assert!((a - b).abs() < 1e-9, "key {key}: whole {a} vs merged {b}");
        }
    }

    #[test]
    fn kary_merge_equals_whole() {
        let cfg = SketchConfig { h: 5, k: 1024, seed: 9 };
        check_merge_equals_whole(|| KarySketch::new(cfg), |s, k, v| s.update(k, v));
    }

    #[test]
    fn countsketch_merge_equals_whole() {
        check_merge_equals_whole(|| CountSketch::new(5, 1024, 9), |s, k, v| s.update(k, v));
    }

    #[test]
    fn countmin_merge_equals_whole() {
        check_merge_equals_whole(|| CountMinSketch::new(5, 1024, 9), |s, k, v| s.update(k, v));
    }

    #[test]
    fn deltoid_merge_equals_whole() {
        let cfg = DeltoidConfig { h: 5, k: 512, key_bits: 32, seed: 9 };
        check_merge_equals_whole(|| Deltoid::new(cfg), |s, k, v| s.update(k, v));
    }

    #[test]
    fn combine_rejects_incompatible_families() {
        let a = CountMinSketch::new(4, 256, 1);
        let b = CountMinSketch::new(4, 256, 2);
        assert!(matches!(
            CountMinSketch::combine(&[(1.0, &a), (1.0, &b)]),
            Err(SketchError::IncompatibleSketches { .. })
        ));
        let a = CountSketch::new(4, 256, 1);
        let b = CountSketch::new(4, 256, 2);
        assert!(matches!(
            CountSketch::combine(&[(1.0, &a), (1.0, &b)]),
            Err(SketchError::IncompatibleSketches { .. })
        ));
    }

    #[test]
    fn combine_rejects_empty_terms() {
        assert!(matches!(CountMinSketch::combine(&[]), Err(SketchError::EmptyCombination)));
    }

    #[test]
    fn countmin_scaled_archive_decay_stays_nonnegative() {
        // The archive's only combinations are nonnegative; check the min
        // estimator still never underestimates after such a merge.
        let mut a = CountMinSketch::new(4, 512, 3);
        let mut b = CountMinSketch::new(4, 512, 3);
        for key in 0..200u64 {
            a.update(key, 2.0);
            b.update(key, 3.0);
        }
        let merged = CountMinSketch::combine(&[(1.0, &a), (1.0, &b)]).unwrap();
        for key in 0..200u64 {
            assert!(merged.estimate(key) >= 5.0 - 1e-12, "key {key}");
        }
    }

    #[test]
    fn zero_like_preserves_sign_hashes() {
        let mut a = CountSketch::new(3, 256, 44);
        a.update(10, 5.0);
        let mut z = a.zero_like();
        assert_eq!(z.estimate(10), 0.0);
        z.update(10, 5.0);
        // Same signs ⇒ same cells ⇒ adding the two doubles the estimate.
        let sum = CountSketch::combine(&[(1.0, &a), (1.0, &z)]).unwrap();
        assert!((sum.estimate(10) - 10.0).abs() < 1e-9);
    }
}
