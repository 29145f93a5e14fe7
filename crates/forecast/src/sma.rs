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

use crate::blocked::{emit_reference, sweep_tiles, Sinks, TileScratch};
use crate::state::{ModelState, StateError};
use crate::{Forecaster, Summary};
use scd_sketch::simd;
use std::collections::VecDeque;

/// Weighted moving average: flat weights for the recent half of the window,
/// linearly decaying weights for the older half.
#[derive(Debug, Clone)]
pub struct SShapedMovingAverage<S> {
    window: usize,
    /// Most-recent-last (push_back) history, at most `window` entries.
    history: VecDeque<S>,
    /// One tile of forecast, for a step asked for `Se(t)` but not `Sf(t)`.
    scratch: TileScratch,
}

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

impl<S: Summary> SShapedMovingAverage<S> {
    /// Creates an SMA model with window `W ≥ 1`.
    ///
    /// # Panics
    /// Panics if `window == 0`.
    pub fn new(window: usize) -> Self {
        assert!(window >= 1, "SMA window must be at least 1");
        SShapedMovingAverage {
            window,
            history: VecDeque::with_capacity(window),
            scratch: TileScratch::default(),
        }
    }

    /// The configured window `W`.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Rebuilds the model from checkpointed state.
    pub fn resume(window: usize, history: Vec<S>) -> Result<Self, StateError> {
        if window == 0 {
            return Err(StateError::InvalidShape("SMA window must be at least 1".into()));
        }
        if history.len() > window {
            return Err(StateError::InvalidShape(format!(
                "SMA history of {} exceeds window {window}",
                history.len()
            )));
        }
        Ok(SShapedMovingAverage {
            window,
            history: history.into(),
            scratch: TileScratch::default(),
        })
    }
}

impl<S: Summary> Forecaster<S> for SShapedMovingAverage<S> {
    fn forecast(&self) -> Option<S> {
        if self.history.is_empty() {
            return None;
        }
        // During ramp-up, apply the weight schedule of the *effective*
        // window (the number of samples actually held).
        let w = self.history.len();
        let mut total_weight = 0.0;
        let mut out = self.history[0].zero_like();
        for (age, s) in self.history.iter().rev().enumerate() {
            let weight = sma_weight(age, w);
            out.add_scaled(s, weight);
            total_weight += weight;
        }
        out.scale(1.0 / total_weight);
        Some(out)
    }

    fn step_with(
        &mut self,
        observed: &S,
        forecast_out: Option<&mut S>,
        error_out: Option<&mut S>,
    ) -> bool {
        if self.history.len() < self.window {
            // The ring is still filling: the reference path, which grows it.
            let forecast = self.forecast();
            let warmed = emit_reference(forecast.as_ref(), observed, forecast_out, error_out);
            self.history.push_back(observed.clone());
            return warmed;
        }
        for s in &self.history {
            observed.check_family(s);
        }
        let mut sinks = Sinks::new(observed, forecast_out, error_out);
        let (variant, obs) = (simd::active(), observed.cells());
        let w = self.window;
        // Accumulated newest-first, as `forecast()` accumulates it.
        let total_weight: f64 = (0..w).fold(0.0, |total, age| total + sma_weight(age, w));
        for tile in sweep_tiles(obs.len()) {
            let o = &obs[tile.clone()];
            if sinks.any() {
                let [spare] = self.scratch.buffers(obs.len());
                sinks.build(variant, tile.clone(), o, spare, |f| {
                    f.fill(0.0);
                    for (age, s) in self.history.iter().rev().enumerate() {
                        simd::add_scaled(variant, f, &s.cells()[tile.clone()], sma_weight(age, w));
                    }
                    simd::scale(variant, f, 1.0 / total_weight);
                });
            }
            // The evicted summary's tile has been read; it takes So(t).
            self.history[0].cells_mut()[tile].copy_from_slice(o);
        }
        self.history.rotate_left(1);
        true
    }

    fn warm_up(&self) -> usize {
        1
    }

    fn name(&self) -> &'static str {
        "SMA"
    }

    fn snapshot_state(&self) -> ModelState<S> {
        ModelState::Sma { history: self.history.iter().cloned().collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut recent_spike: SShapedMovingAverage<f64> = SShapedMovingAverage::new(6);
        let mut old_spike: SShapedMovingAverage<f64> = SShapedMovingAverage::new(6);
        for i in 0..6 {
            recent_spike.observe(&(if i == 5 { 100.0 } else { 0.0 }));
            old_spike.observe(&(if i == 0 { 100.0 } else { 0.0 }));
        }
        assert!(recent_spike.forecast().unwrap() > old_spike.forecast().unwrap());
    }

    #[test]
    fn window_one_is_last_value() {
        let mut m: SShapedMovingAverage<f64> = SShapedMovingAverage::new(1);
        m.observe(&3.0);
        m.observe(&8.0);
        assert_eq!(m.forecast(), Some(8.0));
    }

    #[test]
    fn constant_stream_forecasts_the_constant() {
        // Weights normalize, so any weighting of a constant returns it.
        let mut m: SShapedMovingAverage<f64> = SShapedMovingAverage::new(7);
        for _ in 0..10 {
            m.observe(&42.0);
        }
        assert!((m.forecast().unwrap() - 42.0).abs() < 1e-12);
    }

    #[test]
    fn matches_manual_weighted_average() {
        let samples = [10.0, 20.0, 30.0, 40.0]; // oldest..newest
        let mut m: SShapedMovingAverage<f64> = SShapedMovingAverage::new(4);
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
        let _: SShapedMovingAverage<f64> = SShapedMovingAverage::new(0);
    }
}
