//! Seasonal (additive) Holt-Winters — an extension beyond the paper.
//!
//! The paper restricts itself to the *non-seasonal* model (§3.2.1), but its
//! reference \[9\] (Brutlag's aberrant-behaviour detector) is built on the
//! seasonal variant, and network traffic is strongly diurnal — the
//! synthetic substrate models exactly that cycle. The additive seasonal
//! recursions are, like everything else in this crate, **linear in the
//! observations**, so the model runs on sketches unchanged; this module
//! exists to demonstrate that the paper's framework extends beyond its own
//! model list for free.
//!
//! With period `m` and parameters `α, β, γ ∈ [0, 1]`:
//!
//! ```text
//! level_t = α · (x_t − season_{t−m}) + (1−α) · (level_{t−1} + trend_{t−1})
//! trend_t = β · (level_t − level_{t−1}) + (1−β) · trend_{t−1}
//! season_t = γ · (x_t − level_t) + (1−γ) · season_{t−m}
//! forecast_{t+1} = level_t + trend_t + season_{t+1−m}
//! ```
//!
//! Initialization uses the first full period: level = mean of cycle 1,
//! trend = 0, seasonal indices = deviations from that mean. Warm-up is
//! therefore `m` observations.

use crate::blocked::step_cells;
use crate::state::{ModelState, ShwParts, StateError};
use crate::{Forecaster, Summary};

/// Additive seasonal Holt-Winters forecaster with period `m`.
#[derive(Debug, Clone)]
pub struct SeasonalHoltWinters<S> {
    alpha: f64,
    beta: f64,
    gamma: f64,
    period: usize,
    /// Observations of the first (incomplete) cycle, for initialization.
    init_buffer: Vec<S>,
    state: Option<SeasonState<S>>,
}

#[derive(Debug, Clone)]
struct SeasonState<S> {
    level: S,
    trend: S,
    /// Seasonal indices; `season[t % m]` is the index for phase `t % m`,
    /// most recently updated one period ago.
    season: Vec<S>,
    /// Phase (t mod m) of the *next* observation.
    phase: usize,
}

impl<S: Summary> SeasonalHoltWinters<S> {
    /// Creates the model.
    ///
    /// # Panics
    /// Panics unless `period ≥ 2` and all smoothing constants are in
    /// `[0, 1]`.
    pub fn new(alpha: f64, beta: f64, gamma: f64, period: usize) -> Self {
        assert!(period >= 2, "seasonal period must be at least 2, got {period}");
        for (name, v) in [("alpha", alpha), ("beta", beta), ("gamma", gamma)] {
            assert!((0.0..=1.0).contains(&v), "SHW {name} must be in [0, 1], got {v}");
        }
        SeasonalHoltWinters {
            alpha,
            beta,
            gamma,
            period,
            init_buffer: Vec::with_capacity(period),
            state: None,
        }
    }

    /// The seasonal period `m`.
    pub fn period(&self) -> usize {
        self.period
    }

    /// Smoothing parameters `(α, β, γ)`.
    pub fn params(&self) -> (f64, f64, f64) {
        (self.alpha, self.beta, self.gamma)
    }

    /// Rebuilds the model from checkpointed state.
    pub fn resume(
        alpha: f64,
        beta: f64,
        gamma: f64,
        period: usize,
        init: Vec<S>,
        state: Option<ShwParts<S>>,
    ) -> Result<Self, StateError> {
        if init.len() >= period.max(1) && state.is_none() {
            return Err(StateError::InvalidShape(format!(
                "SHW init buffer of {} should have seeded state at period {period}",
                init.len()
            )));
        }
        if let Some(p) = &state {
            if !init.is_empty() {
                return Err(StateError::InvalidShape(
                    "SHW cannot be both initializing and warm".into(),
                ));
            }
            if p.season.len() != period {
                return Err(StateError::InvalidShape(format!(
                    "SHW season vector of {} does not match period {period}",
                    p.season.len()
                )));
            }
            if p.phase >= period {
                return Err(StateError::InvalidShape(format!(
                    "SHW phase {} out of range for period {period}",
                    p.phase
                )));
            }
        }
        let mut m = SeasonalHoltWinters::new(alpha, beta, gamma, period);
        m.init_buffer = init;
        m.state = state.map(|p| SeasonState {
            level: p.level,
            trend: p.trend,
            season: p.season,
            phase: p.phase,
        });
        Ok(m)
    }
    /// Warm-up: buffers the first cycle and, once it is complete,
    /// initializes from it — level = cycle mean, trend = 0,
    /// season[i] = x_i − mean.
    fn collect_first_cycle(&mut self, observed: &S) {
        self.init_buffer.push(observed.clone());
        if self.init_buffer.len() < self.period {
            return;
        }
        let m = self.period as f64;
        let mut level = observed.zero_like();
        for x in &self.init_buffer {
            level.add_scaled(x, 1.0 / m);
        }
        let season: Vec<S> = self
            .init_buffer
            .iter()
            .map(|x| {
                let mut s = x.clone();
                s.add_scaled(&level, -1.0);
                s
            })
            .collect();
        self.state = Some(SeasonState { trend: level.zero_like(), level, season, phase: 0 });
        self.init_buffer.clear();
    }
}

impl<S: Summary> Forecaster<S> for SeasonalHoltWinters<S> {
    fn forecast(&self) -> Option<S> {
        let state = self.state.as_ref()?;
        // forecast = level + trend + season for the upcoming phase.
        let mut f = state.level.clone();
        f.add_scaled(&state.trend, 1.0);
        f.add_scaled(&state.season[state.phase], 1.0);
        Some(f)
    }

    fn step_with(
        &mut self,
        observed: &S,
        forecast_out: Option<&mut S>,
        error_out: Option<&mut S>,
    ) -> bool {
        let Some(SeasonState { level, trend, season, phase }) = &mut self.state else {
            self.collect_first_cycle(observed);
            return false;
        };
        let (alpha, beta, gamma) = (self.alpha, self.beta, self.gamma);
        let keep = (1.0 - alpha, 1.0 - beta, 1.0 - gamma);
        let tables = [level, trend, &mut season[*phase]];
        step_cells(observed, [], tables, forecast_out, error_out, |o, [], [l, t, s]| {
            // forecast = level + trend + season for the upcoming phase.
            let mut forecast = *l;
            forecast += 1.0 * *t;
            forecast += 1.0 * *s;
            let previous = *l;
            // level' = α(x − season_old) + (1−α)(level + trend)
            *l += 1.0 * *t;
            *l *= keep.0;
            *l += alpha * o;
            *l += -alpha * *s;
            // trend' = β(level' − level) + (1−β)trend
            *t *= keep.1;
            *t += beta * *l;
            *t += -beta * previous;
            // season' = γ(x − level') + (1−γ)season_old
            *s *= keep.2;
            *s += gamma * o;
            *s += -gamma * *l;
            forecast
        });
        *phase = (*phase + 1) % self.period;
        true
    }

    fn warm_up(&self) -> usize {
        self.period
    }

    fn name(&self) -> &'static str {
        "SHW"
    }

    fn snapshot_state(&self) -> ModelState<S> {
        ModelState::Shw {
            init: self.init_buffer.clone(),
            state: self.state.as_ref().map(|s| ShwParts {
                level: s.level.clone(),
                trend: s.trend.clone(),
                season: s.season.clone(),
                phase: s.phase,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_up_is_one_period() {
        let mut m: SeasonalHoltWinters<f64> = SeasonalHoltWinters::new(0.5, 0.3, 0.4, 4);
        for i in 0..4 {
            assert!(m.forecast().is_none(), "warm at step {i}");
            m.observe(&(10.0 + i as f64));
        }
        assert!(m.forecast().is_some());
    }

    #[test]
    fn pure_seasonal_signal_forecast_exactly() {
        // A strict period-4 signal with zero trend: after initialization,
        // forecasts should match the signal exactly, forever.
        let cycle = [100.0, 250.0, 80.0, 160.0];
        let mut m: SeasonalHoltWinters<f64> = SeasonalHoltWinters::new(0.3, 0.2, 0.5, 4);
        for t in 0..32 {
            let x = cycle[t % 4];
            if t >= 4 {
                let f = m.forecast().expect("warm");
                assert!((f - x).abs() < 1e-9, "t={t}: forecast {f} vs {x}");
            }
            m.observe(&x);
        }
    }

    #[test]
    fn seasonal_beats_nshw_on_cyclic_traffic() {
        // The motivation: on diurnal-like traffic, NSHW chases the cycle
        // while SHW learns it. Compare cumulative |error|.
        use crate::NonSeasonalHoltWinters;
        let cycle = [100.0, 400.0, 900.0, 400.0];
        let mut shw: SeasonalHoltWinters<f64> = SeasonalHoltWinters::new(0.3, 0.1, 0.6, 4);
        let mut nshw: NonSeasonalHoltWinters<f64> = NonSeasonalHoltWinters::new(0.5, 0.2);
        let (mut err_s, mut err_n) = (0.0, 0.0);
        for t in 0..40 {
            let x = cycle[t % 4] + (t as f64) * 2.0; // cycle + mild trend
            if t >= 8 {
                err_s += (shw.forecast().unwrap() - x).abs();
                err_n += (nshw.forecast().unwrap() - x).abs();
            }
            shw.observe(&x);
            nshw.observe(&x);
        }
        assert!(
            err_s < err_n / 3.0,
            "seasonal {err_s:.0} should beat non-seasonal {err_n:.0} by a wide margin"
        );
    }

    #[test]
    fn linear_in_observations() {
        let xs: Vec<f64> = (0..14).map(|t| 50.0 + 20.0 * ((t % 3) as f64)).collect();
        let ys: Vec<f64> = (0..14).map(|t| 10.0 * ((t % 5) as f64) - 7.0).collect();
        let (ca, cb) = (2.0, -1.5);
        let mk = || SeasonalHoltWinters::<f64>::new(0.4, 0.2, 0.3, 3);
        let (mut ma, mut mb, mut mc) = (mk(), mk(), mk());
        for i in 0..14 {
            ma.observe(&xs[i]);
            mb.observe(&ys[i]);
            mc.observe(&(ca * xs[i] + cb * ys[i]));
        }
        let expect = ca * ma.forecast().unwrap() + cb * mb.forecast().unwrap();
        let got = mc.forecast().unwrap();
        assert!((got - expect).abs() < 1e-9, "{got} vs {expect}");
    }

    #[test]
    fn runs_on_sketches() {
        use scd_sketch::{KarySketch, SketchConfig};
        let cfg = SketchConfig { h: 3, k: 512, seed: 8 };
        let mut m: SeasonalHoltWinters<KarySketch> = SeasonalHoltWinters::new(0.4, 0.2, 0.5, 3);
        let cycle = [1_000.0, 5_000.0, 2_000.0];
        for t in 0..12 {
            let mut s = KarySketch::new(cfg);
            s.update(42, cycle[t % 3]);
            if t >= 3 {
                let f = m.forecast().expect("warm");
                let predicted = f.estimate(42);
                assert!(
                    (predicted - cycle[t % 3]).abs() < 50.0,
                    "t={t}: predicted {predicted} vs {}",
                    cycle[t % 3]
                );
            }
            m.observe(&s);
        }
    }

    #[test]
    #[should_panic(expected = "period must be at least 2")]
    fn short_period_rejected() {
        let _: SeasonalHoltWinters<f64> = SeasonalHoltWinters::new(0.5, 0.5, 0.5, 1);
    }

    #[test]
    #[should_panic(expected = "gamma must be in [0, 1]")]
    fn bad_gamma_rejected() {
        let _: SeasonalHoltWinters<f64> = SeasonalHoltWinters::new(0.5, 0.5, 1.5, 4);
    }
}
