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

use crate::blocked::{emit_reference, step_cells};
use crate::Summary;

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
pub(crate) fn retention(spec: &ArimaSpec) -> usize {
    (spec.p() + spec.d).max(spec.d + 1).max(1)
}

/// History length needed before a forecast can be formed.
pub(crate) fn needed_history(spec: &ArimaSpec) -> usize {
    (spec.p() + spec.d).max(spec.d).max(1)
}

/// `forecast()` over [`ModelState::Arima`](crate::ModelState::Arima):
/// the raw observations `x_hist` (newest last, up to [`retention`]), the
/// errors `e_hist` (newest last, up to `q`) and the observation count.
pub(crate) fn forecast<S: Summary>(
    spec: &ArimaSpec,
    x_hist: &[S],
    e_hist: &[S],
    observed_count: u64,
) -> Option<S> {
    if observed_count < needed_history(spec) as u64 {
        return None;
    }
    let lags = differenced_lags(spec, x_hist)?;
    // Shape donor for the zero: any stored summary.
    let donor = x_hist.last()?;
    let mut zhat = donor.zero_like();
    for (j, z) in lags.iter().enumerate() {
        zhat.add_scaled(z, spec.ar.as_slice()[j]);
    }
    for (i, e) in e_hist.iter().rev().enumerate().take(spec.q()) {
        zhat.add_scaled(e, spec.ma.as_slice()[i]);
    }
    let mut xhat = zhat;
    if spec.d == 1 {
        // X̂_t = X_{t−1} + Ẑ_t
        xhat.add_scaled(x_hist.last().expect("history checked"), 1.0);
    }
    Some(xhat)
}

/// `Z_{t−j}` for `j = 1..=p`, newest first, as linear combinations of
/// raw history. Returns `None` until enough history exists.
fn differenced_lags<S: Summary>(spec: &ArimaSpec, x_hist: &[S]) -> Option<Vec<S>> {
    let (p, d) = (spec.p(), spec.d);
    if x_hist.len() < p + d {
        return None;
    }
    let n = x_hist.len();
    let mut lags = Vec::with_capacity(p);
    for j in 1..=p {
        // X index of X_{t−j} is n − j (newest is X_{t−1} at n − 1).
        let idx = n - j;
        let z = if d == 0 { x_hist[idx].clone() } else { S::sub(&x_hist[idx], &x_hist[idx - 1]) };
        lags.push(z);
    }
    Some(lags)
}

/// The step over [`ModelState::Arima`](crate::ModelState::Arima): the
/// reference path while a ring is still filling, which grows it, and once
/// both are full one step monomorphized per shape, which rewrites the
/// oldest slots in place and rotates them to the newest.
pub(crate) fn step<S: Summary>(
    spec: &ArimaSpec,
    x_hist: &mut Vec<S>,
    e_hist: &mut Vec<S>,
    observed_count: &mut u64,
    observed: &S,
    forecast_out: Option<&mut S>,
    error_out: Option<&mut S>,
) -> bool {
    let (p, d, q) = (spec.p(), spec.d, spec.q());
    if x_hist.len() < retention(spec) || e_hist.len() < q {
        // Warm-up, or a ring still filling: the reference path.
        let forecast = forecast(spec, x_hist, e_hist, *observed_count);
        let warmed = emit_reference(forecast.as_ref(), observed, forecast_out, error_out);
        grow(spec, x_hist, e_hist, observed, forecast.as_ref());
        *observed_count += 1;
        return warmed;
    }
    // One monomorphized step per shape, so a cell's terms are straight-line code.
    let steady: Steady<S> = match (p, d, q) {
        (0, 0, 0) => steady::<S, 0, 0, 0>,
        (0, 0, 1) => steady::<S, 0, 0, 1>,
        (0, 0, 2) => steady::<S, 0, 0, 2>,
        (0, 1, 0) => steady::<S, 0, 1, 0>,
        (0, 1, 1) => steady::<S, 0, 1, 1>,
        (0, 1, 2) => steady::<S, 0, 1, 2>,
        (1, 0, 0) => steady::<S, 1, 0, 0>,
        (1, 0, 1) => steady::<S, 1, 0, 1>,
        (1, 0, 2) => steady::<S, 1, 0, 2>,
        (1, 1, 0) => steady::<S, 1, 1, 0>,
        (1, 1, 1) => steady::<S, 1, 1, 1>,
        (1, 1, 2) => steady::<S, 1, 1, 2>,
        (2, 0, 0) => steady::<S, 2, 0, 0>,
        (2, 0, 1) => steady::<S, 2, 0, 1>,
        (2, 0, 2) => steady::<S, 2, 0, 2>,
        (2, 1, 0) => steady::<S, 2, 1, 0>,
        (2, 1, 1) => steady::<S, 2, 1, 1>,
        (2, 1, 2) => steady::<S, 2, 1, 2>,
        _ => unreachable!("validated ARIMA shape ({p}, {d}, {q})"),
    };
    steady(spec, x_hist, e_hist, observed, forecast_out, error_out);
    e_hist.rotate_left(usize::from(q > 0));
    x_hist.rotate_left(1);
    *observed_count += 1;
    true
}

/// The reference recurrence, for the intervals that grow a ring:
/// records the error of `forecast` (zero during warm-up: the standard
/// conditional initialization `e_t = 0` before the first forecast),
/// then the observation.
fn grow<S: Summary>(
    spec: &ArimaSpec,
    x_hist: &mut Vec<S>,
    e_hist: &mut Vec<S>,
    observed: &S,
    forecast: Option<&S>,
) {
    let q = spec.q();
    if q > 0 {
        if e_hist.len() == q {
            e_hist.remove(0);
        }
        e_hist.push(match forecast {
            Some(f) => S::sub(observed, f),
            None => observed.zero_like(),
        });
    }
    if x_hist.len() == retention(spec) {
        x_hist.remove(0);
    }
    x_hist.push(observed.clone());
}

/// A shape's steady step: `(spec, x_hist, e_hist, So, Sf, Se)`.
type Steady<S> = fn(&ArimaSpec, &mut [S], &mut [S], &S, Option<&mut S>, Option<&mut S>);

/// The steady-state step of an ARIMA(`P`, `D`, `Q`): both rings are
/// full, so the oldest observation's table takes `X_t` and (`Q > 0`)
/// the oldest error's takes `e_t`, in the same walk that reads them.
fn steady<S: Summary, const P: usize, const D: usize, const Q: usize>(
    spec: &ArimaSpec,
    x_hist: &mut [S],
    e_hist: &mut [S],
    observed: &S,
    forecast_out: Option<&mut S>,
    error_out: Option<&mut S>,
) {
    let (ar, ma) = (spec.ar.vals, spec.ma.vals);
    let (x_oldest, x_newer) = x_hist.split_first_mut().expect("X held");
    let (e_oldest, e_newer) = match e_hist.split_first_mut() {
        Some((oldest, newer)) => (Some(oldest), newer.last()),
        None => (None, None),
    };
    // The read-only tables, newest first: X_{t−1}, X_{t−2}, then e_{t−1}
    // when the oldest error is e_{t−2}. A table this shape lacks is
    // `observed`, whose value the cell never reads.
    let newer = |k| x_newer.iter().rev().nth(k);
    let reads = [newer(0), newer(1), e_newer].map(|s| s.unwrap_or(observed));
    // X_{t−1}, X_{t−2}, X_{t−3} from the reads and the oldest slot of
    // the `n`-table ring (`retention`, from the shape's constants).
    let n = (P + D).max(D + 1);
    debug_assert_eq!(n, x_newer.len() + 1);
    let x = move |r: [f64; 3], oldest: f64| -> [f64; 3] {
        std::array::from_fn(|k| if k + 1 < n { r[k] } else { oldest })
    };
    if Q == 0 {
        step_cells(observed, reads, [x_oldest], forecast_out, error_out, |o, r, [xo]| {
            let f = cell::<P, D, Q>(ar, ma, x(r, *xo), [0.0; MAX_ORDER]);
            *xo = o;
            f
        });
    } else {
        let writes = [x_oldest, e_oldest.expect("Q errors held")];
        step_cells(observed, reads, writes, forecast_out, error_out, |o, r, [xo, eo]| {
            let e = [if Q > 1 { r[2] } else { *eo }, *eo];
            let f = cell::<P, D, Q>(ar, ma, x(r, *xo), e);
            // The evicted error has been read; it takes e_t. Likewise
            // the evicted observation takes X_t.
            *eo = o - f;
            *xo = o;
            f
        });
    }
}

/// `forecast()`'s sequence for one cell: zero, the AR terms over the
/// (differenced) lags newest first, the MA terms over the errors newest
/// first, then (`D = 1`) the integration step. `x` holds `X_{t−1}`,
/// `X_{t−2}`, `X_{t−3}` and `e` holds `e_{t−1}`, `e_{t−2}`, as far as the
/// shape has them.
#[inline(always)]
fn cell<const P: usize, const D: usize, const Q: usize>(
    ar: [f64; MAX_ORDER],
    ma: [f64; MAX_ORDER],
    x: [f64; 3],
    e: [f64; MAX_ORDER],
) -> f64 {
    let mut f = 0.0;
    for j in 0..P {
        f += ar[j] * if D == 0 { x[j] } else { x[j] - x[j + 1] };
    }
    for i in 0..Q {
        f += ma[i] * e[i];
    }
    if D == 1 {
        f += 1.0 * x[0];
    }
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Forecaster, ModelSpec};

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
        let mut m: Forecaster<f64> = ModelSpec::Arima(spec(0, &[0.5], &[])).build();
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
        let mut m: Forecaster<f64> = ModelSpec::Arima(spec(1, &[1.0], &[])).build();
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
        let mut m: Forecaster<f64> = ModelSpec::Arima(spec(0, &[], &[0.5])).build();
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
        let mut m: Forecaster<f64> = ModelSpec::Arima(spec(0, &[0.6, -0.2], &[0.3])).build();
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
        let m: Forecaster<f64> = ModelSpec::Arima(spec(1, &[0.5, 0.5], &[])).build();
        assert_eq!(m.warm_up(), 3); // p + d = 2 + 1
    }

    #[test]
    fn random_walk_model() {
        // ARIMA(0,1,0): X̂_t = X_{t−1} (forecast = last value).
        let mut m: Forecaster<f64> = ModelSpec::Arima(spec(1, &[], &[])).build();
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
        let mk = || ModelSpec::Arima(spec(1, &[0.7, -0.1], &[0.4, 0.2])).build::<f64>();
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
