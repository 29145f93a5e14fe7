//! ARIMA forecasting — paper §3.2.2.
//!
//! Box-Jenkins ARIMA(p, d, q) models "capture the linear dependency of the
//! future values on the past values". The paper restricts the space exactly
//! as we do here:
//!
//! * `p ≤ 2` autoregressive terms, `q ≤ 2` moving-average terms ("in
//!   practice, p and q very rarely need to be greater than 2"),
//! * `d ∈ {0, 1}` differencing passes — **ARIMA0** and **ARIMA1** in the
//!   paper's terminology,
//! * all coefficients restricted to `[−2, 2]` (the paper's necessary —
//!   though not sufficient — condition for invertibility/stationarity).
//!
//! With `Z_t` the `d`-times differenced series and `e_t` the forecast
//! error at time `t`, the model forecasts
//!
//! ```text
//! Ẑ_t = C + Σ_{j=1..p} AR_j · Z_{t−j} + Σ_{i=1..q} MA_i · e_{t−i}
//! ```
//!
//! and, for `d = 1`, integrates back: `X̂_t = X_{t−1} + Ẑ_t`. Note the
//! error is identical in differenced and raw space when `d = 1`
//! (`X_t − X̂_t = Z_t − Ẑ_t`), so a single error history serves both.
//! Early errors (before the model has ever forecast) are taken as zero, the
//! standard conditional-least-squares initialization.
//!
//! Everything above is a linear combination of past observations and past
//! errors — and errors are themselves linear in observations — so the model
//! runs unchanged over sketches.

use crate::blocked::{emit_reference, sweep_tiles, Sinks, TileScratch};
use crate::state::{ModelState, StateError};
use crate::{Forecaster, Summary};
use scd_sketch::simd;
use std::collections::VecDeque;

/// Maximum AR/MA order the paper (and this implementation) supports.
pub const MAX_ORDER: usize = 2;

/// Validated ARIMA(p, d, q) specification with coefficients.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArimaSpec {
    /// Number of differencing passes: 0 (ARIMA0) or 1 (ARIMA1).
    pub d: usize,
    /// Autoregressive coefficients; the slice length is `p ≤ 2`.
    pub ar: ArimaCoeffs,
    /// Moving-average coefficients; the slice length is `q ≤ 2`.
    ///
    /// Note there is no constant term `C`: a constant offset is affine, not
    /// linear, in the observations, so it cannot be represented in sketch
    /// space (it would have to shift *every* key's signal). The paper's
    /// experiments use `C = 0` throughout.
    pub ma: ArimaCoeffs,
}

/// Up to [`MAX_ORDER`] coefficients, stored inline.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ArimaCoeffs {
    len: usize,
    vals: [f64; MAX_ORDER],
}

impl ArimaCoeffs {
    /// Builds a coefficient vector from a slice.
    ///
    /// # Panics
    /// Panics if more than [`MAX_ORDER`] coefficients are supplied.
    pub fn new(coeffs: &[f64]) -> Self {
        assert!(
            coeffs.len() <= MAX_ORDER,
            "at most {MAX_ORDER} AR/MA coefficients supported, got {}",
            coeffs.len()
        );
        let mut vals = [0.0; MAX_ORDER];
        vals[..coeffs.len()].copy_from_slice(coeffs);
        ArimaCoeffs { len: coeffs.len(), vals }
    }

    /// Coefficients as a slice of length `p` (or `q`).
    pub fn as_slice(&self) -> &[f64] {
        &self.vals[..self.len]
    }

    /// The model order contributed by these coefficients.
    pub fn order(&self) -> usize {
        self.len
    }
}

/// Errors from ARIMA specification validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArimaError {
    /// `d` was neither 0 nor 1.
    UnsupportedDifferencing(usize),
    /// A coefficient fell outside the paper's `[−2, 2]` admissible range.
    CoefficientOutOfRange {
        /// `"AR"` or `"MA"`.
        kind: &'static str,
        /// Index of the offending coefficient.
        index: usize,
    },
    /// A coefficient was NaN or infinite.
    NonFiniteCoefficient,
}

impl std::fmt::Display for ArimaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArimaError::UnsupportedDifferencing(d) => {
                write!(f, "ARIMA differencing order d={d} unsupported (must be 0 or 1)")
            }
            ArimaError::CoefficientOutOfRange { kind, index } => {
                write!(f, "{kind} coefficient {index} outside [-2, 2]")
            }
            ArimaError::NonFiniteCoefficient => write!(f, "non-finite ARIMA coefficient"),
        }
    }
}

impl std::error::Error for ArimaError {}

impl ArimaSpec {
    /// Builds and validates a specification.
    pub fn new(d: usize, ar: &[f64], ma: &[f64]) -> Result<Self, ArimaError> {
        let spec = ArimaSpec { d, ar: ArimaCoeffs::new(ar), ma: ArimaCoeffs::new(ma) };
        spec.validate()?;
        Ok(spec)
    }

    /// Checks `d ∈ {0,1}` and all coefficients finite and within `[−2, 2]`.
    pub fn validate(&self) -> Result<(), ArimaError> {
        if self.d > 1 {
            return Err(ArimaError::UnsupportedDifferencing(self.d));
        }
        for (kind, coeffs) in [("AR", &self.ar), ("MA", &self.ma)] {
            for (index, &v) in coeffs.as_slice().iter().enumerate() {
                if !v.is_finite() {
                    return Err(ArimaError::NonFiniteCoefficient);
                }
                if !(-2.0..=2.0).contains(&v) {
                    return Err(ArimaError::CoefficientOutOfRange { kind, index });
                }
            }
        }
        Ok(())
    }

    /// AR order `p`.
    pub fn p(&self) -> usize {
        self.ar.order()
    }

    /// MA order `q`.
    pub fn q(&self) -> usize {
        self.ma.order()
    }

    /// The paper's name for the model class: `"ARIMA0"` or `"ARIMA1"`.
    pub fn class_name(&self) -> &'static str {
        if self.d == 0 {
            "ARIMA0"
        } else {
            "ARIMA1"
        }
    }
}

/// Raw observations a model of this shape retains.
fn retention(spec: &ArimaSpec) -> usize {
    (spec.p() + spec.d).max(spec.d + 1).max(1)
}

/// ARIMA(p ≤ 2, d ≤ 1, q ≤ 2) forecaster over any [`Summary`].
#[derive(Debug, Clone)]
pub struct Arima<S> {
    spec: ArimaSpec,
    /// Raw observations `X`, newest last; holds up to `p + d` entries.
    x_hist: VecDeque<S>,
    /// Forecast errors `e`, newest last; holds up to `q` entries.
    e_hist: VecDeque<S>,
    observed_count: usize,
    /// Two tiles: the forecast under construction (when the caller takes
    /// no `Sf(t)`) and the differenced lag `Z_{t−j}` (when `d = 1`).
    scratch: TileScratch,
}

impl<S: Summary> Arima<S> {
    /// Creates the forecaster from a validated spec.
    pub fn new(spec: ArimaSpec) -> Self {
        spec.validate().expect("invalid ArimaSpec");
        Arima {
            spec,
            x_hist: VecDeque::new(),
            e_hist: VecDeque::new(),
            observed_count: 0,
            scratch: TileScratch::default(),
        }
    }

    /// The model specification.
    pub fn spec(&self) -> &ArimaSpec {
        &self.spec
    }

    /// Rebuilds the model from checkpointed state.
    pub fn resume(
        spec: ArimaSpec,
        x_hist: Vec<S>,
        e_hist: Vec<S>,
        observed_count: u64,
    ) -> Result<Self, StateError> {
        spec.validate().map_err(|e| StateError::InvalidShape(format!("bad ARIMA spec: {e}")))?;
        let keep = retention(&spec);
        if x_hist.len() > keep {
            return Err(StateError::InvalidShape(format!(
                "ARIMA x history of {} exceeds retention {keep}",
                x_hist.len()
            )));
        }
        if e_hist.len() > spec.q() {
            return Err(StateError::InvalidShape(format!(
                "ARIMA error history of {} exceeds q={}",
                e_hist.len(),
                spec.q()
            )));
        }
        if (observed_count as usize) < x_hist.len() {
            return Err(StateError::InvalidShape("ARIMA observed_count below held history".into()));
        }
        Ok(Arima {
            spec,
            x_hist: x_hist.into(),
            e_hist: e_hist.into(),
            observed_count: observed_count as usize,
            scratch: TileScratch::default(),
        })
    }

    /// The reference recurrence, for the intervals that grow a ring:
    /// records the error of `forecast` (zero during warm-up: the standard
    /// conditional initialization `e_t = 0` before the first forecast),
    /// then the observation.
    fn grow(&mut self, observed: &S, forecast: Option<&S>) {
        let q = self.spec.q();
        if q > 0 {
            if self.e_hist.len() == q {
                self.e_hist.pop_front();
            }
            self.e_hist.push_back(match forecast {
                Some(f) => S::sub(observed, f),
                None => observed.zero_like(),
            });
        }
        if self.x_hist.len() == retention(&self.spec) {
            self.x_hist.pop_front();
        }
        self.x_hist.push_back(observed.clone());
        self.observed_count += 1;
    }

    /// History length needed before a forecast can be formed.
    fn needed_history(&self) -> usize {
        (self.spec.p() + self.spec.d).max(self.spec.d).max(1)
    }

    /// `Z_{t−j}` for `j = 1..=p`, newest first, as linear combinations of
    /// raw history. Returns `None` until enough history exists.
    fn differenced_lags(&self) -> Option<Vec<S>> {
        let p = self.spec.p();
        let d = self.spec.d;
        if self.x_hist.len() < p + d {
            return None;
        }
        let n = self.x_hist.len();
        let mut lags = Vec::with_capacity(p);
        for j in 1..=p {
            // X index of X_{t−j} is n − j (newest is X_{t−1} at n − 1).
            let idx = n - j;
            let z = if d == 0 {
                self.x_hist[idx].clone()
            } else {
                S::sub(&self.x_hist[idx], &self.x_hist[idx - 1])
            };
            lags.push(z);
        }
        Some(lags)
    }
}

impl<S: Summary> Forecaster<S> for Arima<S> {
    fn forecast(&self) -> Option<S> {
        if self.observed_count < self.needed_history() {
            return None;
        }
        let lags = self.differenced_lags()?;
        // Shape donor for the zero: any stored summary.
        let donor = self.x_hist.back()?;
        let mut zhat = donor.zero_like();
        for (j, z) in lags.iter().enumerate() {
            zhat.add_scaled(z, self.spec.ar.as_slice()[j]);
        }
        for (i, e) in self.e_hist.iter().rev().enumerate().take(self.spec.q()) {
            zhat.add_scaled(e, self.spec.ma.as_slice()[i]);
        }
        let mut xhat = zhat;
        if self.spec.d == 1 {
            // X̂_t = X_{t−1} + Ẑ_t
            xhat.add_scaled(self.x_hist.back().expect("history checked"), 1.0);
        }
        Some(xhat)
    }

    fn step_with(
        &mut self,
        observed: &S,
        forecast_out: Option<&mut S>,
        error_out: Option<&mut S>,
    ) -> bool {
        let (p, d, q) = (self.spec.p(), self.spec.d, self.spec.q());
        let n = self.x_hist.len();
        if n < retention(&self.spec) || self.e_hist.len() < q {
            // Warm-up, or a ring still filling: the reference path.
            let forecast = self.forecast();
            let warmed = emit_reference(forecast.as_ref(), observed, forecast_out, error_out);
            self.grow(observed, forecast.as_ref());
            return warmed;
        }
        for s in self.x_hist.iter().chain(&self.e_hist) {
            observed.check_family(s);
        }
        let mut sinks = Sinks::new(observed, forecast_out, error_out);
        let (variant, obs) = (simd::active(), observed.cells());
        let (ar, ma) = (self.spec.ar, self.spec.ma);
        // The model's own error history needs the forecast whoever else does.
        let forecasting = q > 0 || sinks.any();
        for tile in sweep_tiles(obs.len()) {
            let o = &obs[tile.clone()];
            if forecasting {
                let [spare, lag] = self.scratch.buffers(obs.len());
                let (x_hist, e_hist) = (&self.x_hist, &self.e_hist);
                // `forecast()`'s sequence per cell: zero, AR terms over the
                // (differenced) lags newest-first, MA terms over the errors
                // newest-first, then (d = 1) the integration step.
                let f = sinks.build(variant, tile.clone(), o, spare, |f| {
                    f.fill(0.0);
                    for j in 1..=p {
                        let newer = &x_hist[n - j].cells()[tile.clone()];
                        if d == 0 {
                            simd::add_scaled(variant, f, newer, ar.as_slice()[j - 1]);
                        } else {
                            let lag = &mut lag[..tile.len()];
                            simd::sub(
                                variant,
                                lag,
                                newer,
                                &x_hist[n - j - 1].cells()[tile.clone()],
                            );
                            simd::add_scaled(variant, f, lag, ar.as_slice()[j - 1]);
                        }
                    }
                    for (i, e) in e_hist.iter().rev().enumerate() {
                        simd::add_scaled(variant, f, &e.cells()[tile.clone()], ma.as_slice()[i]);
                    }
                    if d == 1 {
                        simd::add_scaled(variant, f, &x_hist[n - 1].cells()[tile.clone()], 1.0);
                    }
                });
                if q > 0 {
                    // The evicted error's tile has been read; it takes e_t.
                    simd::sub(variant, &mut self.e_hist[0].cells_mut()[tile.clone()], o, f);
                }
            }
            // Likewise the evicted observation's tile takes X_t.
            self.x_hist[0].cells_mut()[tile].copy_from_slice(o);
        }
        self.e_hist.rotate_left(usize::from(q > 0));
        self.x_hist.rotate_left(1);
        self.observed_count += 1;
        true
    }

    fn warm_up(&self) -> usize {
        self.needed_history()
    }

    fn name(&self) -> &'static str {
        self.spec.class_name()
    }

    fn snapshot_state(&self) -> ModelState<S> {
        ModelState::Arima {
            x_hist: self.x_hist.iter().cloned().collect(),
            e_hist: self.e_hist.iter().cloned().collect(),
            observed_count: self.observed_count as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(d: usize, ar: &[f64], ma: &[f64]) -> ArimaSpec {
        ArimaSpec::new(d, ar, ma).unwrap()
    }

    #[test]
    fn validation_rules() {
        assert!(ArimaSpec::new(2, &[], &[]).is_err());
        assert!(ArimaSpec::new(0, &[2.5], &[]).is_err());
        assert!(ArimaSpec::new(0, &[], &[-2.1]).is_err());
        assert!(ArimaSpec::new(0, &[f64::NAN], &[]).is_err());
        assert!(ArimaSpec::new(1, &[0.5, -0.3], &[0.2, 0.1]).is_ok());
    }

    #[test]
    #[should_panic(expected = "at most 2")]
    fn too_many_coefficients_panic() {
        let _ = ArimaCoeffs::new(&[0.1, 0.2, 0.3]);
    }

    #[test]
    fn ar1_d0_matches_recursion() {
        // AR(1): X̂_t = 0.5 · X_{t−1}.
        let mut m: Arima<f64> = Arima::new(spec(0, &[0.5], &[]));
        assert!(m.forecast().is_none());
        m.observe(&8.0);
        assert_eq!(m.forecast(), Some(4.0));
        m.observe(&6.0);
        assert_eq!(m.forecast(), Some(3.0));
    }

    #[test]
    fn ar1_d1_is_trend_following() {
        // ARIMA(1,1,0) with AR=1: X̂_t = X_{t−1} + (X_{t−1} − X_{t−2}),
        // i.e. continue the last slope — exact on linear series.
        let mut m: Arima<f64> = Arima::new(spec(1, &[1.0], &[]));
        for t in 1..=10 {
            let x = 3.0 * t as f64;
            if t > 2 {
                let f = m.forecast().unwrap();
                assert!((f - x).abs() < 1e-12, "t={t}: {f}");
            }
            m.observe(&x);
        }
    }

    #[test]
    fn pure_ma_model_uses_past_errors() {
        // ARIMA(0,0,1): X̂_t = 0.5 · e_{t−1}. First forecast 0 (errors
        // initialized to zero), then follows half the last surprise.
        let mut m: Arima<f64> = Arima::new(spec(0, &[], &[0.5]));
        m.observe(&10.0); // e = 10 - 0? no forecast yet -> e seeded as 0
        assert_eq!(m.forecast(), Some(0.0));
        m.observe(&4.0); // forecast was 0, e = 4
        assert_eq!(m.forecast(), Some(2.0));
        m.observe(&2.0); // forecast was 2, e = 0 -> next forecast 0
        assert_eq!(m.forecast(), Some(0.0));
    }

    #[test]
    fn arima_211_hand_computed() {
        // ARIMA(2,0,1): Ẑ_t = 0.6 Z_{t−1} − 0.2 Z_{t−2} + 0.3 e_{t−1}.
        let mut m: Arima<f64> = Arima::new(spec(0, &[0.6, -0.2], &[0.3]));
        m.observe(&10.0); // e=0
        assert!(m.forecast().is_none()); // needs p=2 history
        m.observe(&20.0); // e=0 (no forecast yet)
                          // Ẑ = 0.6*20 - 0.2*10 + 0.3*0 = 10
        assert_eq!(m.forecast(), Some(10.0));
        m.observe(&13.0); // e = 3
                          // Ẑ = 0.6*13 - 0.2*20 + 0.3*3 = 7.8 - 4 + 0.9 = 4.7
        let f = m.forecast().unwrap();
        assert!((f - 4.7).abs() < 1e-12, "{f}");
    }

    #[test]
    fn d1_warm_up_needs_p_plus_one_samples() {
        let m: Arima<f64> = Arima::new(spec(1, &[0.5, 0.5], &[]));
        assert_eq!(m.warm_up(), 3); // p + d = 2 + 1
    }

    #[test]
    fn random_walk_model() {
        // ARIMA(0,1,0): X̂_t = X_{t−1} (forecast = last value).
        let mut m: Arima<f64> = Arima::new(spec(1, &[], &[]));
        m.observe(&7.0);
        assert_eq!(m.forecast(), Some(7.0));
        m.observe(&9.0);
        assert_eq!(m.forecast(), Some(9.0));
    }

    #[test]
    fn linear_in_observations() {
        let a = [3.0, 8.0, 1.0, 6.0, 2.0, 4.0];
        let b = [1.0, -2.0, 5.0, 0.5, -1.0, 2.0];
        let (ca, cb) = (2.0, 3.0);
        let mk = || Arima::<f64>::new(spec(1, &[0.7, -0.1], &[0.4, 0.2]));
        let (mut ma_, mut mb_, mut mc_) = (mk(), mk(), mk());
        for i in 0..a.len() {
            ma_.observe(&a[i]);
            mb_.observe(&b[i]);
            mc_.observe(&(ca * a[i] + cb * b[i]));
        }
        let expect = ca * ma_.forecast().unwrap() + cb * mb_.forecast().unwrap();
        let got = mc_.forecast().unwrap();
        assert!((got - expect).abs() < 1e-9, "{got} vs {expect}");
    }

    #[test]
    fn class_names() {
        assert_eq!(spec(0, &[0.1], &[]).class_name(), "ARIMA0");
        assert_eq!(spec(1, &[0.1], &[]).class_name(), "ARIMA1");
    }
}
