//! The §5.1.1 random comparator: random parameterizations of each model
//! family, against which the grid search of `scd_core::gridsearch` is
//! judged ("grid search vs random", `experiments gridsearch` and the CDF
//! figures).

use scd_forecast::{ArimaSpec, ModelKind, ModelSpec};
use scd_traffic::Rng;

/// Draws a random parameterization of `kind` — the comparator the paper's
/// §5.1.1 "random" experiments use. ARIMA coefficients are drawn from the
/// stationarity/invertibility region (the triangle `|φ2| < 1`,
/// `φ2 ± φ1 < 1` for order 2, `|φ| < 1` for order 1) so that random models
/// are *valid* forecasters rather than numerically explosive ones.
pub fn random_spec(kind: ModelKind, max_window: usize, rng: &mut Rng) -> ModelSpec {
    match kind {
        ModelKind::Ma => ModelSpec::Ma { window: 1 + rng.below(max_window as u64) as usize },
        ModelKind::Sma => ModelSpec::Sma { window: 1 + rng.below(max_window as u64) as usize },
        ModelKind::Ewma => ModelSpec::Ewma { alpha: rng.uniform_in(0.05, 1.0) },
        ModelKind::Nshw => {
            ModelSpec::Nshw { alpha: rng.uniform_in(0.05, 1.0), beta: rng.uniform_in(0.0, 1.0) }
        }
        ModelKind::Arima0 => ModelSpec::Arima(random_arima(0, rng)),
        ModelKind::Arima1 => ModelSpec::Arima(random_arima(1, rng)),
        ModelKind::Shw => ModelSpec::Shw {
            alpha: rng.uniform_in(0.05, 1.0),
            beta: rng.uniform_in(0.0, 1.0),
            gamma: rng.uniform_in(0.05, 1.0),
            // A small plausible period; callers tuning real diurnal data
            // should use `search_model`, where the period is structural.
            period: 2 + rng.below(23) as usize,
        },
    }
}

fn random_stable_coeffs(order: usize, rng: &mut Rng) -> Vec<f64> {
    match order {
        0 => vec![],
        1 => vec![rng.uniform_in(-0.95, 0.95)],
        _ => loop {
            let c1 = rng.uniform_in(-1.9, 1.9);
            let c2 = rng.uniform_in(-0.95, 0.95);
            if c1 + c2 < 0.999 && c2 - c1 < 0.999 {
                break vec![c1, c2];
            }
        },
    }
}

fn random_arima(d: usize, rng: &mut Rng) -> ArimaSpec {
    // Avoid the degenerate (p, q) = (0, 0) structure for d = 0 (a constant-
    // zero forecaster) — always keep at least one term.
    let (p, q) = loop {
        let p = rng.below(3) as usize;
        let q = rng.below(3) as usize;
        if p + q > 0 || d == 1 {
            break (p, q);
        }
    };
    let ar = random_stable_coeffs(p, rng);
    let ma = random_stable_coeffs(q, rng);
    ArimaSpec::new(d, &ar, &ma).expect("sampled coefficients are in range")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_specs_are_valid() {
        let mut rng = Rng::new(3);
        for kind in ModelKind::ALL {
            for _ in 0..20 {
                let spec = random_spec(kind, 10, &mut rng);
                spec.validate().expect("random spec must validate");
                assert_eq!(spec.kind(), kind);
            }
        }
    }
}
