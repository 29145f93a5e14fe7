//! The [`Summary`] trait: the vector-space interface forecasting needs.
//!
//! A forecast model only ever forms *linear combinations* of past
//! observations (that is the paper's central trick — §3.2: "All six models
//! can be implemented on top of sketches by exploiting the linearity
//! property of sketches"). The trait below is the minimal algebra that
//! supports this — an additive zero, scaling, and multiply-add — plus the
//! one fact about representation the models' steady-state steps rely on:
//! every summary is a flat run of `f64` cells, so a step can walk all of
//! a model's tables once, cell by cell (see [`crate::blocked`]).
//!
//! Implementations:
//! * `f64` — per-flow (exact) analysis: one instance per flow, one cell.
//! * [`KarySketch`] — sketch-level analysis: one instance per interval for
//!   *all* flows at once; the cells are the `H × K` register table.
//! * [`Deltoid`] — the group-testing sketch, `H × K × (bits + 1)` cells.

use scd_sketch::{Deltoid, KarySketch};

/// An element of a vector space over `f64`, as used by forecasting models.
pub trait Summary: Clone {
    /// Returns the additive zero shaped like `self` (for sketches: same
    /// hash family, all registers zero).
    fn zero_like(&self) -> Self;

    /// In-place `self *= c`.
    fn scale(&mut self, c: f64);

    /// In-place `self += c · other`.
    ///
    /// # Panics
    /// For sketch summaries, panics if `other` was built over a different
    /// hash family — mixing families inside one forecaster is a programming
    /// error, not a recoverable condition.
    fn add_scaled(&mut self, other: &Self, c: f64);

    /// Convenience: `a - b` as a new value.
    fn sub(a: &Self, b: &Self) -> Self {
        let mut out = a.clone();
        out.add_scaled(b, -1.0);
        out
    }

    /// Convenience: weighted sum `Σ c_i · x_i`.
    ///
    /// # Panics
    /// Panics on an empty term list (no shape to produce a zero from).
    fn linear_combination(terms: &[(f64, &Self)]) -> Self {
        let (_, first) = terms.first().expect("linear combination of no terms");
        let mut out = first.zero_like();
        for &(c, x) in terms {
            out.add_scaled(x, c);
        }
        out
    }

    /// The summary's cells as one flat slice. Two summaries that pass
    /// [`check_family`](Summary::check_family) have equally long views
    /// whose cells correspond index by index, and every operation above
    /// acts on each cell alone — which is what lets a step apply the same
    /// operations one cell at a time.
    fn cells(&self) -> &[f64];

    /// The cells, writable in place (the shape is fixed).
    fn cells_mut(&mut self) -> &mut [f64];

    /// The check [`add_scaled`](Summary::add_scaled) makes before it
    /// touches a cell, on its own: a step runs it once per operand
    /// and then works on [`cells`](Summary::cells) directly.
    ///
    /// # Panics
    /// For sketch summaries, panics — with `add_scaled`'s message — if
    /// `other` was built over a different hash family.
    fn check_family(&self, other: &Self);
}

impl Summary for f64 {
    fn zero_like(&self) -> Self {
        0.0
    }

    fn scale(&mut self, c: f64) {
        *self *= c;
    }

    fn add_scaled(&mut self, other: &Self, c: f64) {
        *self += c * other;
    }

    fn cells(&self) -> &[f64] {
        std::slice::from_ref(self)
    }

    fn cells_mut(&mut self) -> &mut [f64] {
        std::slice::from_mut(self)
    }

    fn check_family(&self, _other: &Self) {}
}

impl Summary for KarySketch {
    fn zero_like(&self) -> Self {
        KarySketch::zero_like(self)
    }

    fn scale(&mut self, c: f64) {
        KarySketch::scale(self, c);
    }

    fn add_scaled(&mut self, other: &Self, c: f64) {
        KarySketch::add_scaled(self, other, c)
            .expect("forecaster fed sketches from different hash families");
    }

    fn cells(&self) -> &[f64] {
        self.table()
    }

    fn cells_mut(&mut self) -> &mut [f64] {
        self.table_mut()
    }

    fn check_family(&self, other: &Self) {
        KarySketch::check_family(self, other)
            .expect("forecaster fed sketches from different hash families");
    }
}

impl Summary for Deltoid {
    fn zero_like(&self) -> Self {
        Deltoid::zero_like(self)
    }

    fn scale(&mut self, c: f64) {
        Deltoid::scale(self, c);
    }

    fn add_scaled(&mut self, other: &Self, c: f64) {
        Deltoid::add_scaled(self, other, c)
            .expect("forecaster fed deltoids from different hash families");
    }

    fn cells(&self) -> &[f64] {
        self.table()
    }

    fn cells_mut(&mut self) -> &mut [f64] {
        self.table_mut()
    }

    fn check_family(&self, other: &Self) {
        Deltoid::check_family(self, other)
            .expect("forecaster fed deltoids from different hash families");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scd_sketch::SketchConfig;

    #[test]
    fn f64_algebra() {
        let mut x = 3.0f64;
        x.scale(2.0);
        x.add_scaled(&5.0, -0.5);
        assert_eq!(x, 3.5);
        assert_eq!(3.0f64.zero_like(), 0.0);
        assert_eq!(f64::sub(&7.0, &2.5), 4.5);
    }

    #[test]
    fn linear_combination_f64() {
        let (a, b, c) = (1.0, 10.0, 100.0);
        let lc = f64::linear_combination(&[(1.0, &a), (2.0, &b), (0.5, &c)]);
        assert_eq!(lc, 71.0);
    }

    #[test]
    fn sketch_algebra_matches_f64_per_key() {
        let cfg = SketchConfig { h: 3, k: 256, seed: 4 };
        let mut a = KarySketch::new(cfg);
        let mut b = KarySketch::new(cfg);
        a.update(9, 10.0);
        b.update(9, 4.0);
        let mut s = a.clone();
        Summary::scale(&mut s, 2.0);
        Summary::add_scaled(&mut s, &b, -1.0);
        // per key 9: 2*10 - 4 = 16
        assert!((s.estimate(9) - 16.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "different hash families")]
    fn mixing_families_panics() {
        let mut a = KarySketch::new(SketchConfig { h: 3, k: 256, seed: 1 });
        let b = KarySketch::new(SketchConfig { h: 3, k: 256, seed: 2 });
        Summary::add_scaled(&mut a, &b, 1.0);
    }

    #[test]
    #[should_panic(expected = "no terms")]
    fn empty_linear_combination_panics() {
        let _ = f64::linear_combination(&[]);
    }
}
