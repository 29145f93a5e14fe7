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

use crate::blocked::step_cells;
use crate::state::NshwParts;
use crate::Summary;

/// The step over [`ModelState::Nshw`](crate::ModelState::Nshw): holds the
/// first observation, seeds the warm state from the second, and advances
/// the warm state in place from then on.
pub(crate) fn step<S: Summary>(
    alpha: f64,
    beta: f64,
    first: &mut Option<S>,
    state: &mut Option<NshwParts<S>>,
    observed: &S,
    forecast_out: Option<&mut S>,
    error_out: Option<&mut S>,
) -> bool {
    let Some(NshwParts { level, trend, forecast }) = state else {
        *state = seed(alpha, beta, first, observed);
        return false;
    };
    let (keep_alpha, keep_beta) = (1.0 - alpha, 1.0 - beta);
    let tables = [level, trend, forecast];
    step_cells(observed, [], tables, forecast_out, error_out, |o, [], [l, t, f]| {
        let forecast = *f;
        // Ss(t) = α·So(t−1) + (1−α)·Sf(t−1): the forecast slot holds
        // Sf(t−1) and becomes the new level.
        *f = *f * keep_alpha + alpha * o;
        // St(t) = β·(Ss(t) − Ss(t−1)) + (1−β)·St(t−1): `f` now holds
        // Ss(t), `l` still holds Ss(t−1).
        *t *= keep_beta;
        *t += beta * *f;
        *t += -beta * *l;
        // Rotate: the level slot takes Ss(t); the forecast slot becomes
        // Sf(t) = Ss(t) + St(t).
        *l = *f;
        *f += 1.0 * *t;
        forecast
    });
    true
}

/// Warm-up: holds the first observation in `first`, then seeds the warm
/// state from the second (`None` until then).
fn seed<S: Summary>(
    alpha: f64,
    beta: f64,
    first: &mut Option<S>,
    observed: &S,
) -> Option<NshwParts<S>> {
    let Some(first) = first.take() else {
        *first = Some(observed.clone());
        return None;
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
    level.scale(1.0 - alpha);
    level.add_scaled(observed, alpha);
    // St(3) = β·(Ss(3) − Ss(2)) + (1−β)·St(2)
    let mut trend = trend2;
    trend.scale(1.0 - beta);
    trend.add_scaled(&level, beta);
    trend.add_scaled(&level2, -beta);
    let mut forecast = level.clone();
    forecast.add_scaled(&trend, 1.0);
    Some(NshwParts { level, trend, forecast })
}

#[cfg(test)]
mod tests {
    use crate::{Forecaster, ModelSpec};

    #[test]
    fn warm_up_takes_two_observations() {
        let mut m: Forecaster<f64> = ModelSpec::Nshw { alpha: 0.5, beta: 0.5 }.build();
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
        let mut m: Forecaster<f64> = ModelSpec::Nshw { alpha, beta }.build();
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
        let mut m: Forecaster<f64> = ModelSpec::Nshw { alpha: 0.5, beta: 0.5 }.build();
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
        let mut m: Forecaster<f64> = ModelSpec::Nshw { alpha: 0.5, beta: 0.0 }.build();
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
        let _: Forecaster<f64> = ModelSpec::Nshw { alpha: 0.5, beta: -0.1 }.build();
    }

    #[test]
    fn linear_in_observations() {
        let a = [3.0, 8.0, 1.0, 6.0, 2.0];
        let b = [1.0, -2.0, 5.0, 0.5, -1.0];
        let (ca, cb) = (1.5, 2.0);
        let mk = || ModelSpec::Nshw { alpha: 0.6, beta: 0.2 }.build::<f64>();
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
