//! Exponentially weighted moving average (EWMA) — paper §3.2.1.
//!
//! "The forecast for time `t` is the weighted average of the previous
//! forecast and the newly observed sample at time `t − 1`":
//!
//! ```text
//! Sf(t) = α · So(t−1) + (1−α) · Sf(t−1)      for t > 2
//! Sf(2) = So(1)
//! ```
//!
//! `α ∈ [0, 1]` is the smoothing constant: how much weight new samples get
//! versus history. EWMA is the workhorse of the paper's evaluation
//! (Figures 4–9 all use it).

use crate::blocked::step_cells;
use crate::state::ModelState;
use crate::{Forecaster, Summary};

/// EWMA forecaster with smoothing constant `α`.
#[derive(Debug, Clone)]
pub struct Ewma<S> {
    alpha: f64,
    forecast: Option<S>,
}

impl<S: Summary> Ewma<S> {
    /// Creates an EWMA model.
    ///
    /// # Panics
    /// Panics unless `0 ≤ α ≤ 1`.
    pub fn new(alpha: f64) -> Self {
        assert!((0.0..=1.0).contains(&alpha), "EWMA alpha must be in [0, 1], got {alpha}");
        Ewma { alpha, forecast: None }
    }

    /// The smoothing constant `α`.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Rebuilds the model from checkpointed state. Any `forecast` (or none)
    /// is a valid EWMA state, so this cannot fail.
    pub fn resume(alpha: f64, forecast: Option<S>) -> Self {
        let mut m = Ewma::new(alpha);
        m.forecast = forecast;
        m
    }
}

impl<S: Summary> Forecaster<S> for Ewma<S> {
    fn forecast(&self) -> Option<S> {
        self.forecast.clone()
    }

    fn step_with(
        &mut self,
        observed: &S,
        forecast_out: Option<&mut S>,
        error_out: Option<&mut S>,
    ) -> bool {
        let Some(state) = &mut self.forecast else {
            // Sf(2) = So(1): the first observation seeds the forecast.
            self.forecast = Some(observed.clone());
            return false;
        };
        let (alpha, keep) = (self.alpha, 1.0 - self.alpha);
        step_cells(observed, [], [state], forecast_out, error_out, |o, [], [f]| {
            let forecast = *f;
            // Sf(t+1) = α·So(t) + (1−α)·Sf(t), in place on the state.
            *f = *f * keep + alpha * o;
            forecast
        });
        true
    }

    fn warm_up(&self) -> usize {
        1
    }

    fn name(&self) -> &'static str {
        "EWMA"
    }

    fn snapshot_state(&self) -> ModelState<S> {
        ModelState::Ewma { forecast: self.forecast.clone() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_paper_recursion() {
        let mut m: Ewma<f64> = Ewma::new(0.25);
        assert_eq!(m.forecast(), None);
        m.observe(&100.0);
        assert_eq!(m.forecast(), Some(100.0)); // Sf(2) = So(1)
        m.observe(&200.0);
        // Sf(3) = 0.25*200 + 0.75*100 = 125
        assert_eq!(m.forecast(), Some(125.0));
        m.observe(&0.0);
        // Sf(4) = 0.25*0 + 0.75*125 = 93.75
        assert_eq!(m.forecast(), Some(93.75));
    }

    #[test]
    fn alpha_one_is_last_value_model() {
        let mut m: Ewma<f64> = Ewma::new(1.0);
        for v in [5.0, 9.0, 2.0] {
            m.observe(&v);
        }
        assert_eq!(m.forecast(), Some(2.0));
    }

    #[test]
    fn alpha_zero_freezes_first_observation() {
        let mut m: Ewma<f64> = Ewma::new(0.0);
        m.observe(&50.0);
        for v in [100.0, 200.0, 300.0] {
            m.observe(&v);
        }
        assert_eq!(m.forecast(), Some(50.0));
    }

    #[test]
    fn converges_to_constant_stream() {
        let mut m: Ewma<f64> = Ewma::new(0.3);
        m.observe(&0.0);
        for _ in 0..100 {
            m.observe(&10.0);
        }
        assert!((m.forecast().unwrap() - 10.0).abs() < 1e-10);
    }

    #[test]
    #[should_panic(expected = "in [0, 1]")]
    fn invalid_alpha_rejected() {
        let _: Ewma<f64> = Ewma::new(1.5);
    }

    #[test]
    fn linear_in_observations() {
        let a = [3.0, 8.0, 1.0, 6.0];
        let b = [1.0, -2.0, 5.0, 0.5];
        let (ca, cb) = (2.0, -0.5);
        let mut ma: Ewma<f64> = Ewma::new(0.4);
        let mut mb: Ewma<f64> = Ewma::new(0.4);
        let mut mc: Ewma<f64> = Ewma::new(0.4);
        for i in 0..4 {
            ma.observe(&a[i]);
            mb.observe(&b[i]);
            mc.observe(&(ca * a[i] + cb * b[i]));
        }
        let expect = ca * ma.forecast().unwrap() + cb * mb.forecast().unwrap();
        assert!((mc.forecast().unwrap() - expect).abs() < 1e-12);
    }
}
