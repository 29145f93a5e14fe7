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
use crate::Summary;

/// The step over [`ModelState::Ewma`](crate::ModelState::Ewma): the first
/// observation seeds the forecast, every later one advances it in place.
pub(crate) fn step<S: Summary>(
    alpha: f64,
    forecast: &mut Option<S>,
    observed: &S,
    forecast_out: Option<&mut S>,
    error_out: Option<&mut S>,
) -> bool {
    let Some(state) = forecast else {
        // Sf(2) = So(1): the first observation seeds the forecast.
        *forecast = Some(observed.clone());
        return false;
    };
    let keep = 1.0 - alpha;
    step_cells(observed, [], [state], forecast_out, error_out, |o, [], [f]| {
        let forecast = *f;
        // Sf(t+1) = α·So(t) + (1−α)·Sf(t), in place on the state.
        *f = *f * keep + alpha * o;
        forecast
    });
    true
}

#[cfg(test)]
mod tests {
    use crate::{Forecaster, ModelSpec};

    #[test]
    fn matches_paper_recursion() {
        let mut m: Forecaster<f64> = ModelSpec::Ewma { alpha: 0.25 }.build();
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
        let mut m: Forecaster<f64> = ModelSpec::Ewma { alpha: 1.0 }.build();
        for v in [5.0, 9.0, 2.0] {
            m.observe(&v);
        }
        assert_eq!(m.forecast(), Some(2.0));
    }

    #[test]
    fn alpha_zero_freezes_first_observation() {
        let mut m: Forecaster<f64> = ModelSpec::Ewma { alpha: 0.0 }.build();
        m.observe(&50.0);
        for v in [100.0, 200.0, 300.0] {
            m.observe(&v);
        }
        assert_eq!(m.forecast(), Some(50.0));
    }

    #[test]
    fn converges_to_constant_stream() {
        let mut m: Forecaster<f64> = ModelSpec::Ewma { alpha: 0.3 }.build();
        m.observe(&0.0);
        for _ in 0..100 {
            m.observe(&10.0);
        }
        assert!((m.forecast().unwrap() - 10.0).abs() < 1e-10);
    }

    #[test]
    #[should_panic(expected = "in [0, 1]")]
    fn invalid_alpha_rejected() {
        let _: Forecaster<f64> = ModelSpec::Ewma { alpha: 1.5 }.build();
    }

    #[test]
    fn linear_in_observations() {
        let a = [3.0, 8.0, 1.0, 6.0];
        let b = [1.0, -2.0, 5.0, 0.5];
        let (ca, cb) = (2.0, -0.5);
        let mut ma: Forecaster<f64> = ModelSpec::Ewma { alpha: 0.4 }.build();
        let mut mb: Forecaster<f64> = ModelSpec::Ewma { alpha: 0.4 }.build();
        let mut mc: Forecaster<f64> = ModelSpec::Ewma { alpha: 0.4 }.build();
        for i in 0..4 {
            ma.observe(&a[i]);
            mb.observe(&b[i]);
            mc.observe(&(ca * a[i] + cb * b[i]));
        }
        let expect = ca * ma.forecast().unwrap() + cb * mb.forecast().unwrap();
        assert!((mc.forecast().unwrap() - expect).abs() < 1e-12);
    }
}
