//! Appendix A/B: empirical verification of the estimator theorems.
//!
//! * Theorem 1 — each row estimate `v^h_a` is unbiased with
//!   `Var ≤ F2 / (K − 1)`.
//! * Theorem 4 — `F2^h` is an unbiased estimator of the second moment.
//! * Theorems 2/3/5 — taking the median over `H` rows makes large
//!   deviations exponentially unlikely in `H`.
//!
//! Measured across many independently seeded sketches over a fixed stream.
//! `measure` is shared with the accuracy ledger's `appendix` row
//! (`experiments check`), which runs it at fewer trials over the signed
//! form of the stream.

use crate::args::Args;
use crate::table::{f, Table};
use scd_sketch::{KarySketch, SketchConfig};

/// Buckets per row of every measured sketch.
pub(crate) const K: usize = 256;

/// The sketch shapes whose median is measured (the paper's `H`).
pub(crate) const HS: [usize; 4] = [1, 5, 9, 25];

const PROBE_KEY: u64 = 100u64.wrapping_mul(0x9E37_79B9_7F4A_7C15);

/// A fixed stream: 256 keys with values `i + 1`, every other one negated
/// when `signed`. Returns `F2`.
fn fill(s: &mut KarySketch, signed: bool) -> f64 {
    let mut f2 = 0.0;
    for i in 0..256u64 {
        let v = if signed && i % 2 == 1 { -((i + 1) as f64) } else { (i + 1) as f64 };
        s.update(i.wrapping_mul(0x9E37_79B9_7F4A_7C15), v);
        f2 += v * v;
    }
    f2
}

/// One quantity's estimates over independently seeded sketches, in seed
/// order, beside the true value.
#[derive(Debug)]
pub(crate) struct Draws {
    /// The estimates.
    pub(crate) values: Vec<f64>,
    /// The exact value they estimate.
    pub(crate) truth: f64,
}

impl Draws {
    /// Mean estimate.
    pub(crate) fn mean(&self) -> f64 {
        self.values.iter().fold(0.0, |sum, &v| sum + v) / self.values.len() as f64
    }

    /// Mean squared deviation from the truth (the variance about it).
    pub(crate) fn mse(&self) -> f64 {
        let sumsq =
            self.values.iter().fold(0.0, |sum, &v| sum + (v - self.truth) * (v - self.truth));
        sumsq / self.values.len() as f64
    }

    /// `mse − bound` in standard errors of the MSE, taken from the spread
    /// of the squared errors themselves (the estimates' fourth moment), so
    /// no normality is assumed: about `N(0, 1)` or below for an estimator
    /// whose variance is at most `bound`.
    pub(crate) fn mse_excess_se(&self, bound: f64) -> f64 {
        let n = self.values.len() as f64;
        let mse = self.mse();
        let var = self
            .values
            .iter()
            .map(|&v| (v - self.truth) * (v - self.truth) - mse)
            .map(|d| d * d)
            .sum::<f64>()
            / (n - 1.0);
        (mse - bound) / (var / n).sqrt()
    }

    /// `|mean − truth|` in standard errors of the mean: about `|N(0, 1)|`
    /// for an unbiased estimator.
    pub(crate) fn bias_se(&self) -> f64 {
        let n = self.values.len() as f64;
        let mean = self.mean();
        let var = self.values.iter().map(|&v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1.0);
        (mean - self.truth).abs() / (var / n).sqrt()
    }

    /// Fraction of estimates farther than `dev` from the truth.
    pub(crate) fn tail(&self, dev: f64) -> f64 {
        let hits = self.values.iter().filter(|&&v| (v - self.truth).abs() > dev).count();
        hits as f64 / self.values.len() as f64
    }
}

/// Everything the appendix measures over `trials` seeds per quantity.
#[derive(Debug)]
pub(crate) struct Measured {
    /// Theorem 1: row estimates of the probe key at `H = 1` (seeds
    /// `0..trials`).
    pub(crate) row: Draws,
    /// The bound `F2 / (K − 1)` on their variance.
    pub(crate) bound: f64,
    /// Theorem 4: `ESTIMATEF2` at `H = 1` (seeds `10_000 + i`).
    pub(crate) f2: Draws,
    /// Theorems 2/3/5: the median estimate of the probe key at each `H` of
    /// [`HS`] (seeds `20_000 + 31·i + H`).
    pub(crate) median: Vec<(usize, Draws)>,
}

impl Measured {
    /// The deviation the tails are measured at: 1.5 row-σ.
    pub(crate) fn dev(&self) -> f64 {
        1.5 * self.bound.sqrt()
    }
}

/// Runs the three measurements over `trials` seeds each, on the stream
/// with or without alternating signs.
pub(crate) fn measure(trials: u64, signed: bool) -> Measured {
    let truth = 101.0;
    let mut f2 = 0.0;
    let row = (0..trials)
        .map(|seed| {
            let mut s = KarySketch::new(SketchConfig { h: 1, k: K, seed });
            f2 = fill(&mut s, signed);
            s.estimate(PROBE_KEY)
        })
        .collect();
    let f2_draws = (0..trials)
        .map(|seed| {
            let mut s = KarySketch::new(SketchConfig { h: 1, k: K, seed: 10_000 + seed });
            fill(&mut s, signed);
            s.estimate_f2()
        })
        .collect();
    let median = HS
        .iter()
        .map(|&h| {
            let values = (0..trials)
                .map(|seed| {
                    let cfg = SketchConfig { h, k: K, seed: 20_000 + seed * 31 + h as u64 };
                    let mut s = KarySketch::new(cfg);
                    fill(&mut s, signed);
                    s.estimate(PROBE_KEY)
                })
                .collect();
            (h, Draws { values, truth })
        })
        .collect();
    Measured {
        row: Draws { values: row, truth },
        bound: f2 / (K as f64 - 1.0),
        f2: Draws { values: f2_draws, truth: f2 },
        median,
    }
}

/// Regenerates the Appendix A/B verification tables.
pub fn run(args: &Args) {
    let m = measure(args.get("trials", 600u64), false);

    let mut t1 = Table::new(
        "Appendix A (Theorem 1) — ESTIMATE unbiasedness and variance",
        &["quantity", "measured", "theory"],
    );
    t1.row(&["E[v_a^est]".into(), f(m.row.mean(), 3), format!("{} (exact)", m.row.truth)]);
    t1.row(&["Var[v_a^est]".into(), f(m.row.mse(), 1), format!("<= {:.1}", m.bound)]);
    t1.print();
    println!();

    let mut t4 = Table::new(
        "Appendix B (Theorem 4) — ESTIMATEF2 unbiasedness",
        &["quantity", "measured", "theory"],
    );
    t4.row(&["E[F2^est]".into(), f(m.f2.mean(), 0), format!("{} (exact)", m.f2.truth)]);
    t4.print();
    println!();

    let mut t5 = Table::new(
        "Theorems 2/3/5 — P(|estimate - truth| > 1.5 row-sigma) vs H",
        &["H", "tail probability"],
    );
    for (h, draws) in &m.median {
        t5.row(&[h.to_string(), f(draws.tail(m.dev()), 4)]);
    }
    t5.print();
    let path = t5.save_csv("appendix_tails").expect("write results/");
    println!("\npaper shape: tail mass decays steeply in H (Chernoff bound).");
    println!("csv: {}", path.display());
}
