//! Time-series forecasting models over *linear summaries* (paper §3.2).
//!
//! The forecasting module of sketch-based change detection computes, for
//! each time interval `t`, a forecast `Sf(t)` from the observed summaries
//! of past intervals, and the forecast error `Se(t) = So(t) − Sf(t)`. The
//! paper implements six univariate models — moving average (MA), S-shaped
//! moving average (SMA), exponentially weighted moving average (EWMA),
//! non-seasonal Holt-Winters (NSHW), and ARIMA with `d = 0` and `d = 1` —
//! and observes that **every one of them is a linear function of past
//! observations**, so they can run directly on sketches via COMBINE.
//!
//! This crate captures that observation in the type system: each model is
//! implemented once, generically over the [`Summary`] trait (a vector-space
//! API: zero, scale, add-scaled). Instantiated at `f64` it is the classic
//! scalar forecaster used for exact per-flow analysis; instantiated at
//! [`scd_sketch::KarySketch`] it is the sketch-level forecaster. Because
//! sketching is itself linear, the two instantiations commute: running the
//! model in sketch space equals sketching the per-flow forecasts — a
//! property the integration tests verify cell-for-cell.
//!
//! A model is its parameters and the summaries it keeps: one
//! [`Forecaster`] type holds a [`ModelSpec`] and the [`ModelState`] its
//! step rewrites in place, so a checkpoint is a copy of the state and a
//! restore is a check of its shape.
//!
//! # Example
//!
//! ```
//! use scd_forecast::{Forecaster, ModelSpec};
//!
//! // Scalar instantiation: forecast a single flow's byte counts.
//! let mut model: Forecaster<f64> = ModelSpec::Ewma { alpha: 0.5 }.build();
//! assert!(model.forecast().is_none()); // warm-up: nothing observed yet
//! model.observe(&100.0);
//! assert_eq!(model.forecast(), Some(100.0)); // Sf(2) = So(1)
//! model.observe(&200.0);
//! assert_eq!(model.forecast(), Some(150.0)); // 0.5*200 + 0.5*100
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arima;
pub mod blocked;
pub mod ewma;
pub mod holt_winters;
pub mod ma;
pub mod model;
pub mod seasonal;
pub mod sma;
pub mod state;
pub mod summary;

pub use arima::ArimaSpec;
pub use model::{ModelError, ModelKind, ModelSpec};
pub use state::{ModelState, NshwParts, ShwParts, StateError};
pub use summary::Summary;

/// A forecasting model over summaries of type `S`: its parameters and its
/// state, each stated once.
///
/// Time advances one interval per step. [`forecast`](Forecaster::forecast)
/// returns the model's prediction for the *next unobserved* interval, or
/// `None` while the model is still warming up (§4.2 of the paper sets
/// aside the first hour of each trace for exactly this reason).
///
/// A model states its recurrence twice, and only twice, as free functions
/// of its module over its own [`ModelState`] variant: `forecast()` is the
/// allocating reference — whole-table [`Summary`] operations, the form the
/// paper writes the model in — and [`step_with`](Forecaster::step_with)
/// is the step that ships: one per-cell function walked once over the
/// model's tables (see [`blocked`]), which advances the state in place and
/// writes `Sf(t)` / `Se(t)` to whichever buffers the caller passes. Both
/// dispatch through one `match` on the spec and the state.
/// [`observe`](Forecaster::observe), [`step_into`](Forecaster::step_into)
/// and [`step_error_into`](Forecaster::step_error_into) are that one step
/// with a choice of outputs, so they cannot drift apart, and the tests hold
/// the step to the reference bit for bit.
///
/// Built by [`ModelSpec::build`] or, from checkpointed state, by
/// [`ModelSpec::restore`]; the spec and the state variant always belong to
/// the same model family.
#[derive(Debug, Clone)]
pub struct Forecaster<S> {
    spec: ModelSpec,
    state: ModelState<S>,
    /// A window model's per-slot coefficients (MA's `1/W`, SMA's weights
    /// newest first), derived from the spec once so a steady step
    /// allocates nothing; empty for every other model.
    weights: Vec<f64>,
}

impl<S: Summary> Forecaster<S> {
    /// Pairs a spec with a state of its own family (the caller's check).
    pub(crate) fn new(spec: ModelSpec, state: ModelState<S>) -> Self {
        let weights = match spec {
            ModelSpec::Ma { window } => vec![1.0 / window as f64; window],
            ModelSpec::Sma { window } => {
                (0..window).map(|age| sma::sma_weight(age, window)).collect()
            }
            _ => Vec::new(),
        };
        Forecaster { spec, state, weights }
    }

    /// The model's complete mutable state, for checkpointing. Restoring a
    /// copy with [`ModelSpec::restore`] (same spec) yields a forecaster
    /// whose future outputs are bit-identical to this one's.
    pub fn state(&self) -> &ModelState<S> {
        &self.state
    }

    /// Prediction `Sf(t)` for the upcoming interval `t`, from data observed
    /// strictly before `t`. `None` during warm-up.
    pub fn forecast(&self) -> Option<S> {
        match (&self.spec, &self.state) {
            (_, ModelState::Ma { history }) => ma::forecast(history),
            (_, ModelState::Sma { history }) => sma::forecast(history),
            // EWMA and NSHW keep their forecast as state.
            (_, ModelState::Ewma { forecast }) => forecast.clone(),
            (_, ModelState::Nshw { state, .. }) => state.as_ref().map(|p| p.forecast.clone()),
            (ModelSpec::Arima(spec), ModelState::Arima { x_hist, e_hist, observed_count }) => {
                arima::forecast(spec, x_hist, e_hist, *observed_count)
            }
            (_, ModelState::Shw { state, .. }) => state.as_ref().map(seasonal::forecast),
            (spec, state) => unreachable!("{} spec over {} state", spec.kind(), state.tag()),
        }
    }

    /// The step: feeds the observed summary `So(t)`, advances the model to
    /// interval `t + 1`, and — when the model had a forecast for `t` —
    /// writes `Sf(t)` to `forecast_out` and `Se(t) = So(t) − Sf(t)` to
    /// `error_out`, each only if given. Returns whether it had one
    /// (`false` during warm-up, the outputs left untouched).
    ///
    /// **Bit-identity contract**: the outputs equal `forecast()` and
    /// `observed − forecast()` bit for bit, and the state afterwards equals
    /// what the whole-table recurrence leaves — the step replays the same
    /// floating-point operations per cell, in the same order, and only
    /// changes the order in which cells are visited. Once its history is
    /// full a model steps without touching the heap; warm-up and ring-fill
    /// intervals may clone.
    ///
    /// # Panics
    /// For sketch summaries, panics if `observed`, an output buffer or a
    /// piece of the model's state was built over a different hash family.
    pub fn step_with(
        &mut self,
        observed: &S,
        forecast_out: Option<&mut S>,
        error_out: Option<&mut S>,
    ) -> bool {
        let (o, sf, se) = (observed, forecast_out, error_out);
        match (&self.spec, &mut self.state) {
            (&ModelSpec::Ma { window }, ModelState::Ma { history }) => {
                ma::step(window, &self.weights, history, o, sf, se)
            }
            (&ModelSpec::Sma { window }, ModelState::Sma { history }) => {
                sma::step(window, &self.weights, history, o, sf, se)
            }
            (&ModelSpec::Ewma { alpha }, ModelState::Ewma { forecast }) => {
                ewma::step(alpha, forecast, o, sf, se)
            }
            (&ModelSpec::Nshw { alpha, beta }, ModelState::Nshw { first, state }) => {
                holt_winters::step(alpha, beta, first, state, o, sf, se)
            }
            (ModelSpec::Arima(spec), ModelState::Arima { x_hist, e_hist, observed_count }) => {
                arima::step(spec, x_hist, e_hist, observed_count, o, sf, se)
            }
            (&ModelSpec::Shw { alpha, beta, gamma, period }, ModelState::Shw { init, state }) => {
                seasonal::step([alpha, beta, gamma], period, init, state, o, sf, se)
            }
            (spec, state) => unreachable!("{} spec over {} state", spec.kind(), state.tag()),
        }
    }

    /// Feeds the observed summary `So(t)` for the current interval and
    /// advances the model to interval `t + 1`.
    pub fn observe(&mut self, observed: &S) {
        self.step_with(observed, None, None);
    }

    /// Number of `observe` calls needed before `forecast` returns `Some`.
    pub fn warm_up(&self) -> usize {
        match &self.spec {
            ModelSpec::Ma { .. } | ModelSpec::Sma { .. } | ModelSpec::Ewma { .. } => 1,
            ModelSpec::Nshw { .. } => 2,
            ModelSpec::Arima(spec) => arima::needed_history(spec),
            ModelSpec::Shw { period, .. } => *period,
        }
    }

    /// Short human-readable model name (e.g. `"EWMA"`).
    pub fn name(&self) -> &'static str {
        self.spec.kind().name()
    }

    /// The allocating form of the detection loop's step: returns
    /// `(Sf(t), Se(t) = So(t) − Sf(t))` for the current interval — `None`
    /// during warm-up — and then advances the model with `So(t)`.
    pub fn step(&mut self, observed: &S) -> Option<(S, S)> {
        let out = self.forecast().map(|f| {
            let mut err = observed.clone();
            err.add_scaled(&f, -1.0);
            (f, err)
        });
        self.observe(observed);
        out
    }

    /// Buffer-recycling [`step`](Forecaster::step): writes `Sf(t)` and
    /// `Se(t) = So(t) − Sf(t)` into caller-owned buffers and advances the
    /// model. Returns `false` — both buffers untouched — during warm-up.
    pub fn step_into(&mut self, observed: &S, forecast_out: &mut S, error_out: &mut S) -> bool {
        self.step_with(observed, Some(forecast_out), Some(error_out))
    }

    /// [`step_into`](Forecaster::step_into) for a caller that never reads
    /// `Sf(t)` — the detector: writes only `Se(t)`, so the forecast is
    /// never materialized as a table.
    pub fn step_error_into(&mut self, observed: &S, error_out: &mut S) -> bool {
        self.step_with(observed, None, Some(error_out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_returns_forecast_and_error() {
        let mut m: Forecaster<f64> = ModelSpec::Ewma { alpha: 1.0 }.build(); // alpha=1: last-value forecast
        assert!(m.step(&10.0).is_none()); // warm-up interval
        let (f, e) = m.step(&14.0).unwrap();
        assert_eq!(f, 10.0);
        assert_eq!(e, 4.0);
    }
}
