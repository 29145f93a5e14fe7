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
//! # Example
//!
//! ```
//! use scd_forecast::{Ewma, Forecaster};
//!
//! // Scalar instantiation: forecast a single flow's byte counts.
//! let mut model: Ewma<f64> = Ewma::new(0.5);
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

pub use arima::{Arima, ArimaSpec};
pub use ewma::Ewma;
pub use holt_winters::NonSeasonalHoltWinters;
pub use ma::MovingAverage;
pub use model::{ModelError, ModelKind, ModelSpec};
pub use seasonal::SeasonalHoltWinters;
pub use sma::SShapedMovingAverage;
pub use state::{ModelState, NshwParts, ShwParts, StateError};
pub use summary::Summary;

/// A forecasting model over summaries of type `S`.
///
/// Time advances one interval per step. [`forecast`](Forecaster::forecast)
/// returns the model's prediction for the *next unobserved* interval, or
/// `None` while the model is still warming up (§4.2 of the paper sets
/// aside the first hour of each trace for exactly this reason).
///
/// A model states its recurrence twice, and only twice: `forecast()` is
/// the allocating reference — whole-table [`Summary`] operations, the form
/// the paper writes the model in — and [`step_with`](Forecaster::step_with)
/// is the step that ships: one cache-blocked walk (see [`blocked`]) that
/// advances the state in place and writes `Sf(t)` / `Se(t)` to whichever
/// buffers the caller passes. [`observe`](Forecaster::observe),
/// [`step_into`](Forecaster::step_into) and
/// [`step_error_into`](Forecaster::step_error_into) are that one step with
/// a choice of outputs, so they cannot drift apart, and the tests hold the
/// step to the reference bit for bit.
pub trait Forecaster<S: Summary> {
    /// Prediction `Sf(t)` for the upcoming interval `t`, from data observed
    /// strictly before `t`. `None` during warm-up.
    fn forecast(&self) -> Option<S>;

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
    fn step_with(
        &mut self,
        observed: &S,
        forecast_out: Option<&mut S>,
        error_out: Option<&mut S>,
    ) -> bool;

    /// Feeds the observed summary `So(t)` for the current interval and
    /// advances the model to interval `t + 1`.
    fn observe(&mut self, observed: &S) {
        self.step_with(observed, None, None);
    }

    /// Number of `observe` calls needed before `forecast` returns `Some`.
    fn warm_up(&self) -> usize;

    /// Short human-readable model name (e.g. `"EWMA"`).
    fn name(&self) -> &'static str;

    /// Exports the model's complete mutable state for checkpointing.
    /// Restoring it with [`ModelSpec::restore`](model::ModelSpec::restore)
    /// (same spec) yields a forecaster whose future outputs are
    /// bit-identical to this one's.
    fn snapshot_state(&self) -> ModelState<S>;

    /// The allocating form of the detection loop's step: returns
    /// `(Sf(t), Se(t) = So(t) − Sf(t))` for the current interval — `None`
    /// during warm-up — and then advances the model with `So(t)`.
    fn step(&mut self, observed: &S) -> Option<(S, S)> {
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
    fn step_into(&mut self, observed: &S, forecast_out: &mut S, error_out: &mut S) -> bool {
        self.step_with(observed, Some(forecast_out), Some(error_out))
    }

    /// [`step_into`](Forecaster::step_into) for a caller that never reads
    /// `Sf(t)` — the detector: writes only `Se(t)`, so the forecast is
    /// never materialized as a table.
    fn step_error_into(&mut self, observed: &S, error_out: &mut S) -> bool {
        self.step_with(observed, None, Some(error_out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_returns_forecast_and_error() {
        let mut m: Ewma<f64> = Ewma::new(1.0); // alpha=1: last-value forecast
        assert!(m.step(&10.0).is_none()); // warm-up interval
        let (f, e) = m.step(&14.0).unwrap();
        assert_eq!(f, 10.0);
        assert_eq!(e, 4.0);
    }
}
