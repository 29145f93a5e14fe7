//! Non-seasonal Holt-Winters (NSHW) — paper §3.2.1.
//!
//! Double exponential smoothing: a smoothed level `Ss` plus a smoothed
//! linear trend `St`, with parameters `α, β ∈ [0, 1]`:
//!
//! ```text
//! Ss(t) = α · So(t−1) + (1−α) · Sf(t−1)        t > 2,   Ss(2) = So(1)
//! St(t) = β · (Ss(t) − Ss(t−1)) + (1−β) · St(t−1)   t > 2,   St(2) = So(2) − So(1)
//! Sf(t) = Ss(t) + St(t)
//! ```
//!
//! The trend seed `St(2)` needs two observations, so the first forecast is
//! emitted after a two-interval warm-up (`Sf(3)` is the first prediction
//! that uses no future data). This is the model Brutlag's aberrant-
//! behaviour detector (the paper's reference \[9\]) builds on, and the model
//! behind the paper's thresholding experiments (Figures 10–11).

use crate::blocked::{sweep_tiles, Sinks};
use crate::state::{ModelState, NshwParts, StateError};
use crate::{Forecaster, Summary};
use scd_sketch::simd;

/// State carried between intervals once the model is warm.
#[derive(Debug, Clone)]
struct HwState<S> {
    /// Smoothed level `Ss(t)`.
    level: S,
    /// Smoothed trend `St(t)`.
    trend: S,
    /// Previous forecast `Sf(t)` (needed by the level recursion).
    forecast: S,
}

/// Non-seasonal Holt-Winters forecaster.
#[derive(Debug, Clone)]
pub struct NonSeasonalHoltWinters<S> {
    alpha: f64,
    beta: f64,
    /// First observation, held until the second arrives to seed the trend.
    first: Option<S>,
    state: Option<HwState<S>>,
}

impl<S: Summary> NonSeasonalHoltWinters<S> {
    /// Creates an NSHW model.
    ///
    /// # Panics
    /// Panics unless both `α` and `β` lie in `[0, 1]`.
    pub fn new(alpha: f64, beta: f64) -> Self {
        assert!((0.0..=1.0).contains(&alpha), "NSHW alpha must be in [0, 1], got {alpha}");
        assert!((0.0..=1.0).contains(&beta), "NSHW beta must be in [0, 1], got {beta}");
        NonSeasonalHoltWinters { alpha, beta, first: None, state: None }
    }

    /// Smoothing parameters `(α, β)`.
    pub fn params(&self) -> (f64, f64) {
        (self.alpha, self.beta)
    }

    /// Rebuilds the model from checkpointed state.
    pub fn resume(
        alpha: f64,
        beta: f64,
        first: Option<S>,
        state: Option<NshwParts<S>>,
    ) -> Result<Self, StateError> {
        if first.is_some() && state.is_some() {
            return Err(StateError::InvalidShape("NSHW cannot be both warming up and warm".into()));
        }
        let mut m = NonSeasonalHoltWinters::new(alpha, beta);
        m.first = first;
        m.state = state.map(|p| HwState { level: p.level, trend: p.trend, forecast: p.forecast });
        Ok(m)
    }
    /// Warm-up: holds the first observation, then seeds the state from
    /// the second.
    fn seed(&mut self, observed: &S) {
        let Some(first) = self.first.take() else {
            self.first = Some(observed.clone());
            return;
        };
        // Second observation: seed level and trend per the paper —
        // Ss(2) = So(1), St(2) = So(2) − So(1), Sf(2) = Ss(2)+St(2) — then
        // advance one recursion step so that `forecast()` returns Sf(3),
        // the first prediction that uses no future data (Sf(2) as defined
        // would "predict" interval 2 from So(2) itself).
        let level2 = first;
        let trend2 = S::sub(observed, &level2);
        let mut f2 = level2.clone();
        f2.add_scaled(&trend2, 1.0);
        // Ss(3) = α·So(2) + (1−α)·Sf(2)
        let mut level = f2;
        level.scale(1.0 - self.alpha);
        level.add_scaled(observed, self.alpha);
        // St(3) = β·(Ss(3) − Ss(2)) + (1−β)·St(2)
        let mut trend = trend2;
        trend.scale(1.0 - self.beta);
        trend.add_scaled(&level, self.beta);
        trend.add_scaled(&level2, -self.beta);
        let mut forecast = level.clone();
        forecast.add_scaled(&trend, 1.0);
        self.state = Some(HwState { level, trend, forecast });
    }
}

impl<S: Summary> Forecaster<S> for NonSeasonalHoltWinters<S> {
    fn forecast(&self) -> Option<S> {
        self.state.as_ref().map(|st| st.forecast.clone())
    }

    fn step_with(
        &mut self,
        observed: &S,
        forecast_out: Option<&mut S>,
        error_out: Option<&mut S>,
    ) -> bool {
        let Some(HwState { level, trend, forecast }) = &mut self.state else {
            self.seed(observed);
            return false;
        };
        for part in [&*level, &*trend, &*forecast] {
            observed.check_family(part);
        }
        let mut sinks = Sinks::new(observed, forecast_out, error_out);
        let (variant, obs) = (simd::active(), observed.cells());
        let (level, trend, forecast) = (level.cells_mut(), trend.cells_mut(), forecast.cells_mut());
        let (alpha, beta) = (self.alpha, self.beta);
        for tile in sweep_tiles(obs.len()) {
            let o = &obs[tile.clone()];
            let (l, t, f) =
                (&mut level[tile.clone()], &mut trend[tile.clone()], &mut forecast[tile.clone()]);
            sinks.emit(variant, tile, o, f);
            // Ss(t) = α·So(t−1) + (1−α)·Sf(t−1): the forecast slot holds
            // Sf(t−1) and becomes the new level.
            simd::axpy(variant, f, 1.0 - alpha, o, alpha);
            // St(t) = β·(Ss(t) − Ss(t−1)) + (1−β)·St(t−1): `f` now holds
            // Ss(t), `l` still holds Ss(t−1).
            simd::scale(variant, t, 1.0 - beta);
            simd::add_scaled(variant, t, f, beta);
            simd::add_scaled(variant, t, l, -beta);
            // Rotate: the level slot takes Ss(t); the forecast slot becomes
            // Sf(t) = Ss(t) + St(t).
            l.copy_from_slice(f);
            simd::add_scaled(variant, f, t, 1.0);
        }
        true
    }

    fn warm_up(&self) -> usize {
        2
    }

    fn name(&self) -> &'static str {
        "NSHW"
    }

    fn snapshot_state(&self) -> ModelState<S> {
        ModelState::Nshw {
            first: self.first.clone(),
            state: self.state.as_ref().map(|s| NshwParts {
                level: s.level.clone(),
                trend: s.trend.clone(),
                forecast: s.forecast.clone(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_up_takes_two_observations() {
        let mut m: NonSeasonalHoltWinters<f64> = NonSeasonalHoltWinters::new(0.5, 0.5);
        assert_eq!(m.forecast(), None);
        m.observe(&10.0);
        assert_eq!(m.forecast(), None);
        m.observe(&14.0);
        // Seeds: Ss(2)=10, St(2)=4, Sf(2)=14; advanced:
        // Ss(3) = .5*14 + .5*14 = 14, St(3) = .5*4 + .5*4 = 4, Sf(3) = 18.
        assert_eq!(m.forecast(), Some(18.0));
    }

    #[test]
    fn recursion_matches_hand_computation() {
        let (alpha, beta) = (0.4, 0.3);
        let mut m: NonSeasonalHoltWinters<f64> = NonSeasonalHoltWinters::new(alpha, beta);
        m.observe(&10.0);
        m.observe(&14.0);
        // Seeds: Ss(2)=10, St(2)=4, Sf(2)=14.
        // Ss(3) = .4*14 + .6*14 = 14; St(3) = .3*(14-10) + .7*4 = 4; Sf(3) = 18.
        assert_eq!(m.forecast(), Some(18.0));
        m.observe(&20.0);
        // Ss(4) = .4*20 + .6*18 = 18.8
        // St(4) = .3*(18.8-14) + .7*4 = 1.44 + 2.8 = 4.24
        // Sf(4) = 23.04
        let f = m.forecast().unwrap();
        assert!((f - 23.04).abs() < 1e-12, "got {f}");
    }

    #[test]
    fn tracks_perfect_linear_trend_exactly() {
        // On So(t) = 5t the seeded trend is exact and the model should
        // forecast the next point with zero error forever.
        let mut m: NonSeasonalHoltWinters<f64> = NonSeasonalHoltWinters::new(0.5, 0.5);
        for t in 1..=20 {
            let x = 5.0 * t as f64;
            if let Some(f) = m.forecast() {
                assert!((f - x).abs() < 1e-9, "t={t}: forecast {f} vs {x}");
            }
            m.observe(&x);
        }
    }

    #[test]
    fn beta_zero_freezes_trend() {
        let mut m: NonSeasonalHoltWinters<f64> = NonSeasonalHoltWinters::new(0.5, 0.0);
        m.observe(&0.0);
        m.observe(&10.0); // trend seeded at 10, frozen
        for _ in 0..50 {
            m.observe(&100.0);
        }
        // Level converges to forecast ≈ level + 10; trend stays 10.
        let f = m.forecast().unwrap();
        assert!(f > 105.0, "trend should persist, forecast {f}");
    }

    #[test]
    #[should_panic(expected = "beta must be in [0, 1]")]
    fn invalid_beta_rejected() {
        let _: NonSeasonalHoltWinters<f64> = NonSeasonalHoltWinters::new(0.5, -0.1);
    }

    #[test]
    fn linear_in_observations() {
        let a = [3.0, 8.0, 1.0, 6.0, 2.0];
        let b = [1.0, -2.0, 5.0, 0.5, -1.0];
        let (ca, cb) = (1.5, 2.0);
        let mk = || NonSeasonalHoltWinters::<f64>::new(0.6, 0.2);
        let (mut ma, mut mb, mut mc) = (mk(), mk(), mk());
        for i in 0..5 {
            ma.observe(&a[i]);
            mb.observe(&b[i]);
            mc.observe(&(ca * a[i] + cb * b[i]));
        }
        let expect = ca * ma.forecast().unwrap() + cb * mb.forecast().unwrap();
        assert!((mc.forecast().unwrap() - expect).abs() < 1e-9);
    }
}
