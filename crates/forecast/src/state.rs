//! Serializable model state, for checkpoint/restore of running detectors.
//!
//! A forecaster's complete mutable state *is* a [`ModelState`] — a plain
//! data enum over the summary type `S` that [`Forecaster::state`] lends
//! out — and a [`ModelSpec`] rebuilds an equivalent forecaster from a copy
//! of it via [`ModelSpec::restore`]. The round trip is exact: a restored model
//! produces bit-identical forecasts to the original from that point on,
//! which is what lets a crashed streaming detector resume from its last
//! checkpoint without replaying the entire stream.
//!
//! The split mirrors the config/state distinction: the *spec* (window,
//! smoothing constants, coefficients) travels in the checkpoint header as a
//! compact string ([`ModelSpec::compact`]); the *state* (histories, levels,
//! trends, error buffers) travels as summaries encoded by the caller.

use crate::model::{ModelKind, ModelSpec};
use crate::{Forecaster, Summary};

/// Complete mutable state of one forecasting model over summary type `S`.
///
/// This is the state a [`Forecaster`] steps in place, not a copy of it;
/// all sequences are oldest-first.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelState<S> {
    /// Moving average — the rolling window, oldest first.
    Ma {
        /// Held observations (at most the configured window).
        history: Vec<S>,
    },
    /// S-shaped moving average — the rolling window, oldest first.
    Sma {
        /// Held observations (at most the configured window).
        history: Vec<S>,
    },
    /// EWMA — the current forecast, if past warm-up.
    Ewma {
        /// `Sf(t)`, or `None` before the first observation.
        forecast: Option<S>,
    },
    /// Non-seasonal Holt-Winters.
    Nshw {
        /// First observation, held only during warm-up.
        first: Option<S>,
        /// Warm state `(level, trend, forecast)`, once seeded.
        state: Option<NshwParts<S>>,
    },
    /// ARIMA0 and ARIMA1.
    Arima {
        /// Raw observation history `X`, oldest first.
        x_hist: Vec<S>,
        /// Forecast-error history `e`, oldest first.
        e_hist: Vec<S>,
        /// Total observations seen (drives warm-up).
        observed_count: u64,
    },
    /// Seasonal Holt-Winters.
    Shw {
        /// First-cycle observations buffered during initialization.
        init: Vec<S>,
        /// Warm state, once a full period has been seen.
        state: Option<ShwParts<S>>,
    },
}

/// Warm-state components of non-seasonal Holt-Winters.
#[derive(Debug, Clone, PartialEq)]
pub struct NshwParts<S> {
    /// Smoothed level `Ss(t)`.
    pub level: S,
    /// Smoothed trend `St(t)`.
    pub trend: S,
    /// Current forecast `Sf(t)`.
    pub forecast: S,
}

/// Warm-state components of seasonal Holt-Winters.
#[derive(Debug, Clone, PartialEq)]
pub struct ShwParts<S> {
    /// Smoothed level.
    pub level: S,
    /// Smoothed trend.
    pub trend: S,
    /// Seasonal indices, one per phase; length equals the period.
    pub season: Vec<S>,
    /// Phase (`t mod m`) of the next observation.
    pub phase: usize,
}

impl<S> ModelState<S> {
    /// Short tag naming the variant, used in errors and on the wire.
    pub fn tag(&self) -> &'static str {
        match self {
            ModelState::Ma { .. } => "MA",
            ModelState::Sma { .. } => "SMA",
            ModelState::Ewma { .. } => "EWMA",
            ModelState::Nshw { .. } => "NSHW",
            ModelState::Arima { .. } => "ARIMA",
            ModelState::Shw { .. } => "SHW",
        }
    }
}

/// Errors from rebuilding a forecaster out of serialized state.
#[derive(Debug, Clone, PartialEq)]
pub enum StateError {
    /// The state variant does not belong to the spec's model family.
    KindMismatch {
        /// Family the spec describes.
        expected: ModelKind,
        /// Variant tag found in the state.
        got: &'static str,
    },
    /// The state's shape is inconsistent with the spec (e.g. a history
    /// longer than the window, or a season vector of the wrong length).
    InvalidShape(String),
}

impl std::fmt::Display for StateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StateError::KindMismatch { expected, got } => {
                write!(f, "model state {got} does not match spec {expected}")
            }
            StateError::InvalidShape(what) => write!(f, "invalid model state: {what}"),
        }
    }
}

impl std::error::Error for StateError {}

impl ModelSpec {
    /// Rebuilds a forecaster from its serialized state.
    ///
    /// The state must be a copy of [`Forecaster::state`] of a model built
    /// from an equal spec; spec, variant and shape are validated, so
    /// corrupt or mismatched state is a typed [`StateError`], never a
    /// panic.
    pub fn restore<S: Summary>(&self, state: ModelState<S>) -> Result<Forecaster<S>, StateError> {
        self.validate().map_err(|e| StateError::InvalidShape(format!("bad spec: {e}")))?;
        self.check_shape(&state)?;
        Ok(Forecaster::new(self.clone(), state))
    }

    /// The one shape validator: `state` is of this spec's family and holds
    /// what a model of this spec can reach.
    fn check_shape<S>(&self, state: &ModelState<S>) -> Result<(), StateError> {
        let bad = |what: String| Err(StateError::InvalidShape(what));
        match (self, state) {
            (&ModelSpec::Ma { window }, ModelState::Ma { history })
            | (&ModelSpec::Sma { window }, ModelState::Sma { history })
                if history.len() > window =>
            {
                bad(format!("{} history of {} exceeds window {window}", self.kind(), history.len()))
            }
            (ModelSpec::Ma { .. }, ModelState::Ma { .. })
            | (ModelSpec::Sma { .. }, ModelState::Sma { .. })
            | (ModelSpec::Ewma { .. }, ModelState::Ewma { .. }) => Ok(()),
            (ModelSpec::Nshw { .. }, ModelState::Nshw { first, state }) => {
                if first.is_some() && state.is_some() {
                    return bad("NSHW cannot be both warming up and warm".into());
                }
                Ok(())
            }
            (ModelSpec::Arima(spec), ModelState::Arima { x_hist, e_hist, observed_count }) => {
                let keep = crate::arima::retention(spec);
                if x_hist.len() > keep {
                    return bad(format!(
                        "ARIMA x history of {} exceeds retention {keep}",
                        x_hist.len()
                    ));
                }
                if e_hist.len() > spec.q() {
                    return bad(format!(
                        "ARIMA error history of {} exceeds q={}",
                        e_hist.len(),
                        spec.q()
                    ));
                }
                if *observed_count < x_hist.len() as u64 {
                    return bad("ARIMA observed_count below held history".into());
                }
                Ok(())
            }
            (&ModelSpec::Shw { period, .. }, ModelState::Shw { init, state }) => match state {
                None if init.len() >= period => bad(format!(
                    "SHW init buffer of {} should have seeded state at period {period}",
                    init.len()
                )),
                None => Ok(()),
                Some(_) if !init.is_empty() => {
                    bad("SHW cannot be both initializing and warm".into())
                }
                Some(p) if p.season.len() != period => bad(format!(
                    "SHW season vector of {} does not match period {period}",
                    p.season.len()
                )),
                Some(p) if p.phase >= period => {
                    bad(format!("SHW phase {} out of range for period {period}", p.phase))
                }
                Some(_) => Ok(()),
            },
            (_, state) => Err(StateError::KindMismatch { expected: self.kind(), got: state.tag() }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arima::ArimaSpec;

    fn all_specs() -> Vec<ModelSpec> {
        vec![
            ModelSpec::Ma { window: 3 },
            ModelSpec::Sma { window: 4 },
            ModelSpec::Ewma { alpha: 0.4 },
            ModelSpec::Nshw { alpha: 0.5, beta: 0.3 },
            ModelSpec::Arima(ArimaSpec::new(0, &[0.6, -0.2], &[0.3]).unwrap()),
            ModelSpec::Arima(ArimaSpec::new(1, &[0.5], &[0.2, 0.1]).unwrap()),
            ModelSpec::Shw { alpha: 0.4, beta: 0.2, gamma: 0.3, period: 3 },
        ]
    }

    /// The core guarantee: snapshot at any point, restore, and the restored
    /// model's future outputs are bit-identical to the original's.
    #[test]
    fn snapshot_restore_is_exact_at_every_prefix() {
        let xs: Vec<f64> = (0..20).map(|t| 100.0 + 17.0 * ((t % 5) as f64) - t as f64).collect();
        for spec in all_specs() {
            for cut in 0..xs.len() {
                let mut original: Forecaster<f64> = spec.build();
                for x in &xs[..cut] {
                    original.observe(x);
                }
                let state = original.state().clone();
                let mut restored = spec.restore(state).expect("restore");
                for x in &xs[cut..] {
                    assert_eq!(
                        original.forecast().map(f64::to_bits),
                        restored.forecast().map(f64::to_bits),
                        "{} cut={cut}",
                        spec.describe()
                    );
                    original.observe(x);
                    restored.observe(x);
                }
                assert_eq!(
                    original.forecast().map(f64::to_bits),
                    restored.forecast().map(f64::to_bits),
                    "{} final",
                    spec.describe()
                );
            }
        }
    }

    /// A restored model steps — not only forecasts — like the original:
    /// `Sf` and `Se` from `step_into` match bit for bit, so whatever a
    /// model derives from its spec (a window's weights) is rebuilt too.
    #[test]
    fn restored_steps_match_the_original_bit_for_bit() {
        let xs: Vec<f64> = (0..20).map(|t| 3.0 * ((t * 7) % 11) as f64 - t as f64 / 3.0).collect();
        for spec in all_specs() {
            for cut in 0..xs.len() {
                let mut original: Forecaster<f64> = spec.build();
                for x in &xs[..cut] {
                    original.observe(x);
                }
                let mut restored = spec.restore(original.state().clone()).expect("restore");
                for (t, x) in xs.iter().enumerate().skip(cut) {
                    let (mut f1, mut e1, mut f2, mut e2) = (0.0, 0.0, 0.0, 0.0);
                    let warm = original.step_into(x, &mut f1, &mut e1);
                    assert_eq!(warm, restored.step_into(x, &mut f2, &mut e2));
                    let what = format!("{} cut={cut} t={t}", spec.describe());
                    assert_eq!(
                        [f1.to_bits(), e1.to_bits()],
                        [f2.to_bits(), e2.to_bits()],
                        "{what}"
                    );
                }
            }
        }
    }

    #[test]
    fn an_invalid_spec_is_refused_not_panicked_on() {
        let state: ModelState<f64> = ModelState::Ewma { forecast: Some(1.0) };
        assert!(matches!(
            ModelSpec::Ewma { alpha: 1.5 }.restore(state),
            Err(StateError::InvalidShape(_))
        ));
        let empty: ModelState<f64> = ModelState::Ma { history: vec![] };
        assert!(matches!(
            ModelSpec::Ma { window: 0 }.restore(empty),
            Err(StateError::InvalidShape(_))
        ));
    }

    #[test]
    fn kind_mismatch_is_typed() {
        let state: ModelState<f64> = ModelState::Ewma { forecast: Some(1.0) };
        match (ModelSpec::Ma { window: 3 }).restore(state) {
            Err(StateError::KindMismatch { .. }) => {}
            Err(other) => panic!("wrong error: {other}"),
            Ok(_) => panic!("mismatched state restored"),
        }
    }

    #[test]
    fn invalid_shapes_are_typed() {
        // History longer than the window.
        let too_long: ModelState<f64> = ModelState::Ma { history: vec![1.0; 5] };
        assert!(matches!(
            ModelSpec::Ma { window: 3 }.restore(too_long),
            Err(StateError::InvalidShape(_))
        ));
        // Season vector of the wrong length.
        let bad_season: ModelState<f64> = ModelState::Shw {
            init: vec![],
            state: Some(ShwParts { level: 0.0, trend: 0.0, season: vec![0.0; 2], phase: 0 }),
        };
        assert!(matches!(
            ModelSpec::Shw { alpha: 0.5, beta: 0.5, gamma: 0.5, period: 4 }.restore(bad_season),
            Err(StateError::InvalidShape(_))
        ));
        // Phase out of range.
        let bad_phase: ModelState<f64> = ModelState::Shw {
            init: vec![],
            state: Some(ShwParts { level: 0.0, trend: 0.0, season: vec![0.0; 4], phase: 9 }),
        };
        assert!(ModelSpec::Shw { alpha: 0.5, beta: 0.5, gamma: 0.5, period: 4 }
            .restore(bad_phase)
            .is_err());
        // NSHW with both warm-up and warm state set.
        let both: ModelState<f64> = ModelState::Nshw {
            first: Some(1.0),
            state: Some(NshwParts { level: 0.0, trend: 0.0, forecast: 0.0 }),
        };
        assert!(ModelSpec::Nshw { alpha: 0.5, beta: 0.5 }.restore(both).is_err());
        // ARIMA with more errors than q.
        let bad_arima: ModelState<f64> =
            ModelState::Arima { x_hist: vec![1.0], e_hist: vec![0.0; 4], observed_count: 1 };
        assert!(ModelSpec::Arima(ArimaSpec::new(0, &[0.5], &[0.3]).unwrap())
            .restore(bad_arima)
            .is_err());
        // SMA history longer than the window.
        let too_long: ModelState<f64> = ModelState::Sma { history: vec![1.0; 5] };
        assert!(matches!(
            ModelSpec::Sma { window: 4 }.restore(too_long),
            Err(StateError::InvalidShape(_))
        ));
        // ARIMA x history past retention: ARIMA(1, 1, 0) keeps two.
        let arima = ModelSpec::Arima(ArimaSpec::new(1, &[0.5], &[]).unwrap());
        let long_x: ModelState<f64> =
            ModelState::Arima { x_hist: vec![1.0; 3], e_hist: vec![], observed_count: 3 };
        assert!(matches!(arima.restore(long_x), Err(StateError::InvalidShape(_))));
        // ARIMA observed_count below the history it holds.
        let undercount: ModelState<f64> =
            ModelState::Arima { x_hist: vec![1.0; 2], e_hist: vec![], observed_count: 1 };
        assert!(matches!(arima.restore(undercount), Err(StateError::InvalidShape(_))));
        let shw = ModelSpec::Shw { alpha: 0.5, beta: 0.5, gamma: 0.5, period: 4 };
        // SHW with a full init buffer and no state.
        let unseeded: ModelState<f64> = ModelState::Shw { init: vec![1.0; 4], state: None };
        assert!(matches!(shw.restore(unseeded), Err(StateError::InvalidShape(_))));
        // SHW with both init and state set.
        let both: ModelState<f64> = ModelState::Shw {
            init: vec![1.0],
            state: Some(ShwParts { level: 0.0, trend: 0.0, season: vec![0.0; 4], phase: 0 }),
        };
        assert!(matches!(shw.restore(both), Err(StateError::InvalidShape(_))));
    }
}
