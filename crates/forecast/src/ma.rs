//! Moving average (MA) — paper §3.2.1.
//!
//! "This forecasting model assigns equal weights to all past samples, and
//! has a single integer parameter `W ≥ 1` which specifies the number of
//! past time intervals used for computing the forecast":
//!
//! ```text
//! Sf(t) = ( Σ_{i=1..W} So(t−i) ) / W
//! ```
//!
//! During the ramp-up phase (fewer than `W` observations so far) the model
//! averages over however many samples exist, so the first forecast is
//! available after a single observation — the paper handles ramp-up by
//! discarding the first hour of every trace, and the evaluation harness
//! does the same.

use crate::blocked::{emit_reference, sweep_tiles, Sinks, TileScratch};
use crate::state::{ModelState, StateError};
use crate::{Forecaster, Summary};
use scd_sketch::simd;
use std::collections::VecDeque;

/// Equal-weight moving average over the last `W` observations.
#[derive(Debug, Clone)]
pub struct MovingAverage<S> {
    window: usize,
    history: VecDeque<S>,
    /// One tile of forecast, for a step asked for `Se(t)` but not `Sf(t)`.
    scratch: TileScratch,
}

impl<S: Summary> MovingAverage<S> {
    /// Creates an MA model with window `W ≥ 1`.
    ///
    /// # Panics
    /// Panics if `window == 0`.
    pub fn new(window: usize) -> Self {
        assert!(window >= 1, "MA window must be at least 1");
        MovingAverage {
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
            return Err(StateError::InvalidShape("MA window must be at least 1".into()));
        }
        if history.len() > window {
            return Err(StateError::InvalidShape(format!(
                "MA history of {} exceeds window {window}",
                history.len()
            )));
        }
        Ok(MovingAverage { window, history: history.into(), scratch: TileScratch::default() })
    }
}

impl<S: Summary> Forecaster<S> for MovingAverage<S> {
    fn forecast(&self) -> Option<S> {
        if self.history.is_empty() {
            return None;
        }
        let w = self.history.len() as f64;
        let mut out = self.history[0].zero_like();
        for s in &self.history {
            out.add_scaled(s, 1.0 / w);
        }
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
        let weight = 1.0 / self.history.len() as f64;
        for tile in sweep_tiles(obs.len()) {
            let o = &obs[tile.clone()];
            if sinks.any() {
                let [spare] = self.scratch.buffers(obs.len());
                sinks.build(variant, tile.clone(), o, spare, |f| {
                    f.fill(0.0);
                    for s in &self.history {
                        simd::add_scaled(variant, f, &s.cells()[tile.clone()], weight);
                    }
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
        "MA"
    }

    fn snapshot_state(&self) -> ModelState<S> {
        ModelState::Ma { history: self.history.iter().cloned().collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averages_last_w_samples() {
        let mut m: MovingAverage<f64> = MovingAverage::new(3);
        for v in [3.0, 6.0, 9.0, 30.0] {
            m.observe(&v);
        }
        // Last 3 samples: 6, 9, 30.
        assert_eq!(m.forecast(), Some(15.0));
    }

    #[test]
    fn ramp_up_uses_available_samples() {
        let mut m: MovingAverage<f64> = MovingAverage::new(5);
        assert_eq!(m.forecast(), None);
        m.observe(&10.0);
        assert_eq!(m.forecast(), Some(10.0));
        m.observe(&20.0);
        assert_eq!(m.forecast(), Some(15.0));
    }

    #[test]
    fn window_one_is_last_value() {
        let mut m: MovingAverage<f64> = MovingAverage::new(1);
        m.observe(&7.0);
        m.observe(&11.0);
        assert_eq!(m.forecast(), Some(11.0));
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_window_rejected() {
        let _: MovingAverage<f64> = MovingAverage::new(0);
    }

    #[test]
    fn forecast_is_linear_in_observations() {
        // MA(2) of stream a+2b equals MA(2) of a plus 2*MA(2) of b.
        let a = [5.0, 7.0, 1.0];
        let b = [2.0, -1.0, 4.0];
        let mut ma: MovingAverage<f64> = MovingAverage::new(2);
        let mut mb: MovingAverage<f64> = MovingAverage::new(2);
        let mut mc: MovingAverage<f64> = MovingAverage::new(2);
        for i in 0..3 {
            ma.observe(&a[i]);
            mb.observe(&b[i]);
            mc.observe(&(a[i] + 2.0 * b[i]));
        }
        let expect = ma.forecast().unwrap() + 2.0 * mb.forecast().unwrap();
        assert!((mc.forecast().unwrap() - expect).abs() < 1e-12);
    }
}
