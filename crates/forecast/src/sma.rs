//! S-shaped moving average (SMA) — paper §3.2.1.
//!
//! "A class of weighted moving average models that give higher weights to
//! more recent samples … We use a subclass that gives equal weights to the
//! most recent half of the window, and linearly decayed weights for the
//! earlier half", citing the weighting of TFRC (Floyd et al., *Equation-
//! based congestion control*):
//!
//! ```text
//! Sf(t) = Σ_{i=1..W} w_i · So(t−i)  /  Σ_{i=1..W} w_i
//! ```
//!
//! Concretely (matching the TFRC weight schedule; for `W = 8` the weights
//! over most-recent-first samples are `1, 1, 1, 1, 0.8, 0.6, 0.4, 0.2`):
//! with `r = ceil(W/2)` recent samples at weight 1, the older samples at
//! age `i ≥ r` (0-indexed from most recent) get weight
//! `(W − i) / (W − r + 1)`.

use crate::blocked::emit_reference;
use crate::ma::step_window;
use crate::Summary;

/// Weight of the sample at `age` (0 = most recent) in a window of `w`.
pub fn sma_weight(age: usize, w: usize) -> f64 {
    debug_assert!(age < w);
    let recent = w.div_ceil(2);
    if age < recent {
        1.0
    } else {
        (w - age) as f64 / (w - recent + 1) as f64
    }
}

/// `forecast()` over [`ModelState::Sma`](crate::ModelState::Sma)'s
/// history: during ramp-up, the weight schedule of the *effective* window
/// (the number of samples actually held).
pub(crate) fn forecast<S: Summary>(history: &[S]) -> Option<S> {
    let w = history.len();
    let mut total_weight = 0.0;
    let mut out = history.first()?.zero_like();
    for (age, s) in history.iter().rev().enumerate() {
        let weight = sma_weight(age, w);
        out.add_scaled(s, weight);
        total_weight += weight;
    }
    out.scale(1.0 / total_weight);
    Some(out)
}

/// The step over [`ModelState::Sma`](crate::ModelState::Sma): while the
/// ring is still filling, the reference path, which grows it; once full,
/// [`step_window`] over `weights`, `sma_weight` for every age newest first.
pub(crate) fn step<S: Summary>(
    window: usize,
    weights: &[f64],
    history: &mut Vec<S>,
    observed: &S,
    forecast_out: Option<&mut S>,
    error_out: Option<&mut S>,
) -> bool {
    if history.len() < window {
        let warmed = emit_reference(forecast(history).as_ref(), observed, forecast_out, error_out);
        history.push(observed.clone());
        return warmed;
    }
    // Accumulated newest-first, as `forecast()` accumulates it.
    let total_weight: f64 = weights.iter().fold(0.0, |total, w| total + w);
    let scale = Some(1.0 / total_weight);
    step_window(history, weights, true, scale, observed, forecast_out, error_out);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Forecaster, ModelSpec};

    #[test]
    fn tfrc_weight_schedule_for_w8() {
        let got: Vec<f64> = (0..8).map(|i| sma_weight(i, 8)).collect();
        let expect = [1.0, 1.0, 1.0, 1.0, 0.8, 0.6, 0.4, 0.2];
        for (g, e) in got.iter().zip(&expect) {
            assert!((g - e).abs() < 1e-12, "{got:?}");
        }
    }

    #[test]
    fn odd_window_weights() {
        // W = 5: recent ceil(5/2)=3 samples flat, ages 3,4 decay 2/3, 1/3.
        let got: Vec<f64> = (0..5).map(|i| sma_weight(i, 5)).collect();
        let expect = [1.0, 1.0, 1.0, 2.0 / 3.0, 1.0 / 3.0];
        for (g, e) in got.iter().zip(&expect) {
            assert!((g - e).abs() < 1e-12, "{got:?}");
        }
    }

    #[test]
    fn weights_emphasize_recent_samples() {
        // A spike in the most recent sample must move the forecast more
        // than the same spike in the oldest sample.
        let mut recent_spike: Forecaster<f64> = ModelSpec::Sma { window: 6 }.build();
        let mut old_spike: Forecaster<f64> = ModelSpec::Sma { window: 6 }.build();
        for i in 0..6 {
            recent_spike.observe(&(if i == 5 { 100.0 } else { 0.0 }));
            old_spike.observe(&(if i == 0 { 100.0 } else { 0.0 }));
        }
        assert!(recent_spike.forecast().unwrap() > old_spike.forecast().unwrap());
    }

    #[test]
    fn window_one_is_last_value() {
        let mut m: Forecaster<f64> = ModelSpec::Sma { window: 1 }.build();
        m.observe(&3.0);
        m.observe(&8.0);
        assert_eq!(m.forecast(), Some(8.0));
    }

    #[test]
    fn constant_stream_forecasts_the_constant() {
        // Weights normalize, so any weighting of a constant returns it.
        let mut m: Forecaster<f64> = ModelSpec::Sma { window: 7 }.build();
        for _ in 0..10 {
            m.observe(&42.0);
        }
        assert!((m.forecast().unwrap() - 42.0).abs() < 1e-12);
    }

    #[test]
    fn matches_manual_weighted_average() {
        let samples = [10.0, 20.0, 30.0, 40.0]; // oldest..newest
        let mut m: Forecaster<f64> = ModelSpec::Sma { window: 4 }.build();
        for s in samples {
            m.observe(&s);
        }
        // ages newest-first: 40 (age0, w=1), 30 (age1, w=1), 20 (age2, 2/3), 10 (age3, 1/3)
        let num = 40.0 + 30.0 + 20.0 * (2.0 / 3.0) + 10.0 * (1.0 / 3.0);
        let den = 1.0 + 1.0 + 2.0 / 3.0 + 1.0 / 3.0;
        assert!((m.forecast().unwrap() - num / den).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_window_rejected() {
        let _: Forecaster<f64> = ModelSpec::Sma { window: 0 }.build();
    }
}
