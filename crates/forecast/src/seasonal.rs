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
use crate::state::ShwParts;
use crate::Summary;

/// `forecast()` over the warm state: level + trend + season for the
/// upcoming phase.
pub(crate) fn forecast<S: Summary>(state: &ShwParts<S>) -> S {
    let mut f = state.level.clone();
    f.add_scaled(&state.trend, 1.0);
    f.add_scaled(&state.season[state.phase], 1.0);
    f
}

/// The step over [`ModelState::Shw`](crate::ModelState::Shw): buffers the
/// first cycle in `init`, seeds the warm state from it once complete, and
/// advances the warm state in place from then on. `smoothing` is
/// `[α, β, γ]`.
pub(crate) fn step<S: Summary>(
    smoothing: [f64; 3],
    period: usize,
    init: &mut Vec<S>,
    state: &mut Option<ShwParts<S>>,
    observed: &S,
    forecast_out: Option<&mut S>,
    error_out: Option<&mut S>,
) -> bool {
    let Some(ShwParts { level, trend, season, phase }) = state else {
        *state = collect_first_cycle(period, init, observed);
        return false;
    };
    let [alpha, beta, gamma] = smoothing;
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
    *phase = (*phase + 1) % period;
    true
}

/// Warm-up: buffers the first cycle and, once it is complete,
/// initializes from it — level = cycle mean, trend = 0,
/// season[i] = x_i − mean — emptying the buffer.
fn collect_first_cycle<S: Summary>(
    period: usize,
    init: &mut Vec<S>,
    observed: &S,
) -> Option<ShwParts<S>> {
    init.push(observed.clone());
    if init.len() < period {
        return None;
    }
    let m = period as f64;
    let mut level = observed.zero_like();
    for x in init.iter() {
        level.add_scaled(x, 1.0 / m);
    }
    let season: Vec<S> = std::mem::take(init)
        .into_iter()
        .map(|mut s| {
            s.add_scaled(&level, -1.0);
            s
        })
        .collect();
    Some(ShwParts { trend: level.zero_like(), level, season, phase: 0 })
}

#[cfg(test)]
mod tests {
    use crate::{Forecaster, ModelSpec};

    #[test]
    fn warm_up_is_one_period() {
        let mut m: Forecaster<f64> =
            ModelSpec::Shw { alpha: 0.5, beta: 0.3, gamma: 0.4, period: 4 }.build();
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
        let mut m: Forecaster<f64> =
            ModelSpec::Shw { alpha: 0.3, beta: 0.2, gamma: 0.5, period: 4 }.build();
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
        let cycle = [100.0, 400.0, 900.0, 400.0];
        let mut shw: Forecaster<f64> =
            ModelSpec::Shw { alpha: 0.3, beta: 0.1, gamma: 0.6, period: 4 }.build();
        let mut nshw: Forecaster<f64> = ModelSpec::Nshw { alpha: 0.5, beta: 0.2 }.build();
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
        let mk = || ModelSpec::Shw { alpha: 0.4, beta: 0.2, gamma: 0.3, period: 3 }.build::<f64>();
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
        let mut m: Forecaster<KarySketch> =
            ModelSpec::Shw { alpha: 0.4, beta: 0.2, gamma: 0.5, period: 3 }.build();
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
        let _: Forecaster<f64> =
            ModelSpec::Shw { alpha: 0.5, beta: 0.5, gamma: 0.5, period: 1 }.build();
    }

    #[test]
    #[should_panic(expected = "gamma must be in [0, 1]")]
    fn bad_gamma_rejected() {
        let _: Forecaster<f64> =
            ModelSpec::Shw { alpha: 0.5, beta: 0.5, gamma: 1.5, period: 4 }.build();
    }
}
