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

use crate::blocked::{emit_reference, walk};
use crate::Summary;

/// `forecast()` over [`ModelState::Ma`](crate::ModelState::Ma)'s history:
/// the mean of the held observations.
pub(crate) fn forecast<S: Summary>(history: &[S]) -> Option<S> {
    let w = history.len() as f64;
    let mut out = history.first()?.zero_like();
    for s in history {
        out.add_scaled(s, 1.0 / w);
    }
    Some(out)
}

/// The step over [`ModelState::Ma`](crate::ModelState::Ma): while the
/// ring is still filling, the reference path, which grows it; once full,
/// [`step_window`] over `weights`, `1/W` once per slot.
pub(crate) fn step<S: Summary>(
    window: usize,
    weights: &[f64],
    history: &mut Vec<S>,
    observed: &S,
    forecast_out: Option<&mut S>,
    error_out: Option<&mut S>,
) -> bool {
    if history.len() < window {
        let warmed = emit_reference(forecast(history).as_ref(), observed, forecast_out, error_out);
        history.push(observed.clone());
        return warmed;
    }
    step_window(history, weights, false, None, observed, forecast_out, error_out);
    true
}

/// Cells a window step sums at a time, slot after slot, before it walks
/// them: the block's partial forecasts stay in L1 whatever the window.
/// 512 read 15–20 % faster than 1 024 on MA(13) and SMA(14).
const WINDOW_BLOCK: usize = 512;

/// The steady step of a window model (MA, SMA) over its full `ring`: the
/// forecast is `forecast()`'s sequence — `f = 0.0; f += c_k·h_k` over the
/// slots oldest first (or newest first), `coeffs` in that order, then
/// `f *= scale` if given — and the evicted oldest slot takes `So(t)` and
/// becomes the newest. One path for every window: block by block, the
/// forecasts are summed two slots a pass — into `Sf` if asked for, else
/// a buffer — each cell adding its terms in order, and the block is then
/// walked like any other model's step, its forecasts the one read.
pub(crate) fn step_window<S: Summary>(
    ring: &mut [S],
    coeffs: &[f64],
    newest_first: bool,
    scale: Option<f64>,
    observed: &S,
    forecast_out: Option<&mut S>,
    error_out: Option<&mut S>,
) {
    let (oldest, newer) = ring.split_first_mut().expect("window ≥ 1");
    let operands = newer.iter().chain([&*oldest]).chain(forecast_out.as_deref());
    for s in operands.chain(error_out.as_deref()) {
        observed.check_family(s);
    }
    let forecasting = forecast_out.is_some() || error_out.is_some();
    let (obs, oldest) = (observed.cells(), oldest.cells_mut());
    let mut sf = forecast_out.map(|s| s.cells_mut());
    let mut se = error_out.map(|s| s.cells_mut());
    let mut buffer = [0.0; WINDOW_BLOCK];
    for start in (0..obs.len()).step_by(WINDOW_BLOCK) {
        let cells = start..obs.len().min(start + WINDOW_BLOCK);
        let sums = match sf.as_deref_mut() {
            Some(sf) => &mut sf[cells.clone()],
            None => &mut buffer[..cells.len()],
        };
        if forecasting {
            sums.fill(0.0);
            // (c_k, h_k) in summation order, ring position 0 the oldest slot.
            let mut slots = coeffs.iter().enumerate().map(|(k, &c)| {
                let slot = if newest_first { newer.len() - k } else { k };
                (c, if slot == 0 { &*oldest } else { newer[slot - 1].cells() })
            });
            while let Some((c0, h0)) = slots.next() {
                let h0 = &h0[cells.clone()];
                match slots.next() {
                    Some((c1, h1)) => {
                        for ((f, &a), &b) in sums.iter_mut().zip(h0).zip(&h1[cells.clone()]) {
                            *f += c0 * a;
                            *f += c1 * b;
                        }
                    }
                    None => sums.iter_mut().zip(h0).for_each(|(f, &a)| *f += c0 * a),
                }
            }
            if let Some(scale) = scale {
                sums.iter_mut().for_each(|f| *f *= scale);
            }
        }
        let se = se.as_deref_mut().map(|s| &mut s[cells.clone()]);
        let (o, x) = (&obs[cells.clone()], &mut oldest[cells]);
        walk(o, [&*sums], [x], None, se, &|o, [f], [x]| {
            *x = o;
            f
        });
    }
    ring.rotate_left(1);
}

#[cfg(test)]
mod tests {
    use crate::{Forecaster, ModelSpec};

    #[test]
    fn averages_last_w_samples() {
        let mut m: Forecaster<f64> = ModelSpec::Ma { window: 3 }.build();
        for v in [3.0, 6.0, 9.0, 30.0] {
            m.observe(&v);
        }
        // Last 3 samples: 6, 9, 30.
        assert_eq!(m.forecast(), Some(15.0));
    }

    #[test]
    fn ramp_up_uses_available_samples() {
        let mut m: Forecaster<f64> = ModelSpec::Ma { window: 5 }.build();
        assert_eq!(m.forecast(), None);
        m.observe(&10.0);
        assert_eq!(m.forecast(), Some(10.0));
        m.observe(&20.0);
        assert_eq!(m.forecast(), Some(15.0));
    }

    #[test]
    fn window_one_is_last_value() {
        let mut m: Forecaster<f64> = ModelSpec::Ma { window: 1 }.build();
        m.observe(&7.0);
        m.observe(&11.0);
        assert_eq!(m.forecast(), Some(11.0));
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_window_rejected() {
        let _: Forecaster<f64> = ModelSpec::Ma { window: 0 }.build();
    }

    #[test]
    fn forecast_is_linear_in_observations() {
        // MA(2) of stream a+2b equals MA(2) of a plus 2*MA(2) of b.
        let a = [5.0, 7.0, 1.0];
        let b = [2.0, -1.0, 4.0];
        let mut ma: Forecaster<f64> = ModelSpec::Ma { window: 2 }.build();
        let mut mb: Forecaster<f64> = ModelSpec::Ma { window: 2 }.build();
        let mut mc: Forecaster<f64> = ModelSpec::Ma { window: 2 }.build();
        for i in 0..3 {
            ma.observe(&a[i]);
            mb.observe(&b[i]);
            mc.observe(&(a[i] + 2.0 * b[i]));
        }
        let expect = ma.forecast().unwrap() + 2.0 * mb.forecast().unwrap();
        assert!((mc.forecast().unwrap() - expect).abs() < 1e-12);
    }
}
