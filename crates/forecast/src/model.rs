//! Unified model specification: the six models of paper §3.2 behind one
//! enum, so the detection pipeline, grid search, and experiment harness can
//! treat "a forecasting model" as data.

use crate::arima::{ArimaError, ArimaSpec};
use crate::{Forecaster, ModelState, Summary};

/// The model families evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Moving average.
    Ma,
    /// S-shaped moving average.
    Sma,
    /// Exponentially weighted moving average.
    Ewma,
    /// Non-seasonal Holt-Winters.
    Nshw,
    /// ARIMA with `d = 0`.
    Arima0,
    /// ARIMA with `d = 1`.
    Arima1,
    /// Seasonal (additive) Holt-Winters — an extension beyond the paper's
    /// six models; not part of [`ModelKind::ALL`], which the experiment
    /// harness reserves for the paper's lineup.
    Shw,
}

impl ModelKind {
    /// The paper's six families, in the order the paper lists them
    /// (Figure 1). Excludes the [`ModelKind::Shw`] extension.
    pub const ALL: [ModelKind; 6] = [
        ModelKind::Ma,
        ModelKind::Sma,
        ModelKind::Ewma,
        ModelKind::Nshw,
        ModelKind::Arima0,
        ModelKind::Arima1,
    ];

    /// The paper's display name.
    pub fn name(&self) -> &'static str {
        match self {
            ModelKind::Ma => "MA",
            ModelKind::Sma => "SMA",
            ModelKind::Ewma => "EWMA",
            ModelKind::Nshw => "NSHW",
            ModelKind::Arima0 => "ARIMA0",
            ModelKind::Arima1 => "ARIMA1",
            ModelKind::Shw => "SHW",
        }
    }
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for ModelKind {
    type Err = ModelError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_uppercase().as_str() {
            "MA" => Ok(ModelKind::Ma),
            "SMA" => Ok(ModelKind::Sma),
            "EWMA" => Ok(ModelKind::Ewma),
            "NSHW" | "HOLT-WINTERS" | "HOLTWINTERS" => Ok(ModelKind::Nshw),
            "ARIMA0" => Ok(ModelKind::Arima0),
            "ARIMA1" => Ok(ModelKind::Arima1),
            "SHW" => Ok(ModelKind::Shw),
            other => Err(ModelError::UnknownModel(other.to_string())),
        }
    }
}

/// A fully parameterized forecasting model, ready to instantiate over any
/// [`Summary`] type.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelSpec {
    /// Moving average with window `W ≥ 1`.
    Ma {
        /// Window length in intervals.
        window: usize,
    },
    /// S-shaped moving average with window `W ≥ 1`.
    Sma {
        /// Window length in intervals.
        window: usize,
    },
    /// EWMA with smoothing constant `α ∈ [0, 1]`.
    Ewma {
        /// Smoothing constant.
        alpha: f64,
    },
    /// Non-seasonal Holt-Winters with `α, β ∈ [0, 1]`.
    Nshw {
        /// Level smoothing constant.
        alpha: f64,
        /// Trend smoothing constant.
        beta: f64,
    },
    /// ARIMA(p ≤ 2, d ≤ 1, q ≤ 2).
    Arima(ArimaSpec),
    /// Seasonal additive Holt-Winters with `α, β, γ ∈ [0, 1]` and period
    /// `m ≥ 2` (extension beyond the paper; still linear, still sketchable).
    Shw {
        /// Level smoothing constant.
        alpha: f64,
        /// Trend smoothing constant.
        beta: f64,
        /// Seasonal smoothing constant.
        gamma: f64,
        /// Season length in intervals (e.g. 288 five-minute intervals/day).
        period: usize,
    },
}

/// Validation and parsing errors for model specifications.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// A window parameter was zero.
    ZeroWindow,
    /// A seasonal period shorter than two intervals (no season to learn).
    ShortSeason {
        /// Offending period.
        period: usize,
    },
    /// A smoothing constant fell outside `[0, 1]`.
    SmoothingOutOfRange {
        /// `"alpha"` or `"beta"`.
        which: &'static str,
        /// Offending value.
        value: f64,
    },
    /// ARIMA-specific validation failure.
    Arima(ArimaError),
    /// Unrecognized model name in parsing.
    UnknownModel(String),
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::ZeroWindow => write!(f, "window must be at least 1"),
            ModelError::ShortSeason { period } => {
                write!(f, "seasonal period must be at least 2 intervals, got {period}")
            }
            ModelError::SmoothingOutOfRange { which, value } => {
                write!(f, "{which} = {value} outside [0, 1]")
            }
            ModelError::Arima(e) => write!(f, "{e}"),
            ModelError::UnknownModel(s) => write!(f, "unknown model '{s}'"),
        }
    }
}

impl std::error::Error for ModelError {}

impl From<ArimaError> for ModelError {
    fn from(e: ArimaError) -> Self {
        ModelError::Arima(e)
    }
}

impl ModelSpec {
    /// Checks all parameters against their admissible ranges.
    pub fn validate(&self) -> Result<(), ModelError> {
        match *self {
            ModelSpec::Ma { window } | ModelSpec::Sma { window } => {
                if window == 0 {
                    Err(ModelError::ZeroWindow)
                } else {
                    Ok(())
                }
            }
            ModelSpec::Ewma { alpha } => {
                if (0.0..=1.0).contains(&alpha) {
                    Ok(())
                } else {
                    Err(ModelError::SmoothingOutOfRange { which: "alpha", value: alpha })
                }
            }
            ModelSpec::Nshw { alpha, beta } => {
                if !(0.0..=1.0).contains(&alpha) {
                    Err(ModelError::SmoothingOutOfRange { which: "alpha", value: alpha })
                } else if !(0.0..=1.0).contains(&beta) {
                    Err(ModelError::SmoothingOutOfRange { which: "beta", value: beta })
                } else {
                    Ok(())
                }
            }
            ModelSpec::Arima(spec) => spec.validate().map_err(ModelError::from),
            ModelSpec::Shw { alpha, beta, gamma, period } => {
                for (which, v) in [("alpha", alpha), ("beta", beta), ("gamma", gamma)] {
                    if !(0.0..=1.0).contains(&v) {
                        return Err(ModelError::SmoothingOutOfRange { which, value: v });
                    }
                }
                if period < 2 {
                    return Err(ModelError::ShortSeason { period });
                }
                Ok(())
            }
        }
    }

    /// The model family this spec parameterizes.
    pub fn kind(&self) -> ModelKind {
        match self {
            ModelSpec::Ma { .. } => ModelKind::Ma,
            ModelSpec::Sma { .. } => ModelKind::Sma,
            ModelSpec::Ewma { .. } => ModelKind::Ewma,
            ModelSpec::Nshw { .. } => ModelKind::Nshw,
            ModelSpec::Arima(s) => {
                if s.d == 0 {
                    ModelKind::Arima0
                } else {
                    ModelKind::Arima1
                }
            }
            ModelSpec::Shw { .. } => ModelKind::Shw,
        }
    }

    /// Instantiates the forecaster over summary type `S`, with the empty
    /// state of this spec's family.
    ///
    /// # Panics
    /// Panics on an invalid spec — call [`validate`](Self::validate) first
    /// when the parameters come from untrusted input.
    pub fn build<S: Summary>(&self) -> Forecaster<S> {
        match self.validate() {
            Err(ModelError::SmoothingOutOfRange { which, value }) => {
                panic!("{} {which} must be in [0, 1], got {value}", self.kind())
            }
            Err(e) => panic!("invalid {} spec: {e}", self.kind()),
            Ok(()) => {}
        }
        let state = match self {
            ModelSpec::Ma { .. } => ModelState::Ma { history: Vec::new() },
            ModelSpec::Sma { .. } => ModelState::Sma { history: Vec::new() },
            ModelSpec::Ewma { .. } => ModelState::Ewma { forecast: None },
            ModelSpec::Nshw { .. } => ModelState::Nshw { first: None, state: None },
            ModelSpec::Arima(_) => {
                ModelState::Arima { x_hist: Vec::new(), e_hist: Vec::new(), observed_count: 0 }
            }
            ModelSpec::Shw { .. } => ModelState::Shw { init: Vec::new(), state: None },
        };
        Forecaster::new(self.clone(), state)
    }

    /// Parses a compact textual spec, the inverse-ish of
    /// [`describe`](Self::describe) for command-line use:
    ///
    /// * `ma:W` / `sma:W` — window `W`, e.g. `ma:5`
    /// * `ewma:A` — smoothing constant, e.g. `ewma:0.5`
    /// * `nshw:A:B` — level and trend constants, e.g. `nshw:0.6:0.2`
    /// * `shw:A:B:G:M` — level, trend and seasonal constants and the season
    ///   length `M ≥ 2` in intervals, e.g. `shw:0.3:0.1:0.5:288`
    /// * `arima0:AR.../MA...` and `arima1:AR.../MA...` — comma-separated
    ///   coefficient lists either side of a slash, e.g. `arima0:0.7,-0.1/0.3`
    ///   (empty sides allowed: `arima1:/` is a random walk).
    ///
    /// # Errors
    /// [`ModelError::UnknownModel`] on syntax errors and the usual
    /// validation errors on out-of-range parameters.
    pub fn parse(text: &str) -> Result<Self, ModelError> {
        let bad = || ModelError::UnknownModel(text.to_string());
        let (name, rest) = match text.split_once(':') {
            Some((n, r)) => (n, r),
            None => (text, ""),
        };
        let spec = match name.to_ascii_lowercase().as_str() {
            "ma" => ModelSpec::Ma { window: rest.parse().map_err(|_| bad())? },
            "sma" => ModelSpec::Sma { window: rest.parse().map_err(|_| bad())? },
            "ewma" => ModelSpec::Ewma { alpha: rest.parse().map_err(|_| bad())? },
            "nshw" => {
                let (a, b) = rest.split_once(':').ok_or_else(bad)?;
                ModelSpec::Nshw {
                    alpha: a.parse().map_err(|_| bad())?,
                    beta: b.parse().map_err(|_| bad())?,
                }
            }
            "shw" => {
                let parts: Vec<&str> = rest.split(':').collect();
                if parts.len() != 4 {
                    return Err(bad());
                }
                ModelSpec::Shw {
                    alpha: parts[0].parse().map_err(|_| bad())?,
                    beta: parts[1].parse().map_err(|_| bad())?,
                    gamma: parts[2].parse().map_err(|_| bad())?,
                    period: parts[3].parse().map_err(|_| bad())?,
                }
            }
            "arima0" | "arima1" => {
                let d = if name.ends_with('0') { 0 } else { 1 };
                let (ar_text, ma_text) = rest.split_once('/').ok_or_else(bad)?;
                let parse_list = |t: &str| -> Result<Vec<f64>, ModelError> {
                    if t.trim().is_empty() {
                        return Ok(Vec::new());
                    }
                    t.split(',').map(|c| c.trim().parse::<f64>().map_err(|_| bad())).collect()
                };
                let ar = parse_list(ar_text)?;
                let ma = parse_list(ma_text)?;
                ModelSpec::Arima(ArimaSpec::new(d, &ar, &ma)?)
            }
            _ => return Err(bad()),
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Renders the spec in the exact syntax [`parse`](Self::parse) accepts
    /// (`parse(compact()) == self`), for tools that emit reusable configs.
    pub fn compact(&self) -> String {
        let join = |c: &[f64]| c.iter().map(|v| format!("{v}")).collect::<Vec<_>>().join(",");
        match self {
            ModelSpec::Ma { window } => format!("ma:{window}"),
            ModelSpec::Sma { window } => format!("sma:{window}"),
            ModelSpec::Ewma { alpha } => format!("ewma:{alpha}"),
            ModelSpec::Nshw { alpha, beta } => format!("nshw:{alpha}:{beta}"),
            ModelSpec::Arima(s) => {
                format!("arima{}:{}/{}", s.d, join(s.ar.as_slice()), join(s.ma.as_slice()))
            }
            ModelSpec::Shw { alpha, beta, gamma, period } => {
                format!("shw:{alpha}:{beta}:{gamma}:{period}")
            }
        }
    }

    /// Compact display of the parameters, for experiment logs.
    pub fn describe(&self) -> String {
        match self {
            ModelSpec::Ma { window } => format!("MA(W={window})"),
            ModelSpec::Sma { window } => format!("SMA(W={window})"),
            ModelSpec::Ewma { alpha } => format!("EWMA(a={alpha:.4})"),
            ModelSpec::Nshw { alpha, beta } => format!("NSHW(a={alpha:.4}, b={beta:.4})"),
            ModelSpec::Arima(s) => format!(
                "{}(p={}, q={}, ar={:?}, ma={:?})",
                s.class_name(),
                s.p(),
                s.q(),
                s.ar.as_slice(),
                s.ma.as_slice()
            ),
            ModelSpec::Shw { alpha, beta, gamma, period } => {
                format!("SHW(a={alpha:.4}, b={beta:.4}, g={gamma:.4}, m={period})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_catches_bad_parameters() {
        assert_eq!(ModelSpec::Ma { window: 0 }.validate(), Err(ModelError::ZeroWindow));
        assert!(ModelSpec::Ewma { alpha: 1.2 }.validate().is_err());
        assert!(ModelSpec::Nshw { alpha: 0.5, beta: -0.1 }.validate().is_err());
        assert!(ModelSpec::Ewma { alpha: 0.0 }.validate().is_ok());
    }

    #[test]
    fn build_produces_working_forecasters() {
        let specs = [
            ModelSpec::Ma { window: 2 },
            ModelSpec::Sma { window: 4 },
            ModelSpec::Ewma { alpha: 0.5 },
            ModelSpec::Nshw { alpha: 0.5, beta: 0.5 },
            ModelSpec::Arima(ArimaSpec::new(0, &[0.5], &[0.2]).unwrap()),
            ModelSpec::Arima(ArimaSpec::new(1, &[0.5], &[]).unwrap()),
        ];
        for spec in &specs {
            let mut m: Forecaster<f64> = spec.build();
            for v in [10.0, 12.0, 9.0, 14.0] {
                m.observe(&v);
            }
            let f = m.forecast().expect("warm after 4 observations");
            assert!(f.is_finite(), "{}", spec.describe());
        }
    }

    #[test]
    fn kind_round_trips_name_parsing() {
        for kind in ModelKind::ALL {
            let parsed: ModelKind = kind.name().parse().unwrap();
            assert_eq!(parsed, kind);
        }
        assert!("bogus".parse::<ModelKind>().is_err());
    }

    #[test]
    fn describe_mentions_parameters() {
        assert_eq!(ModelSpec::Ma { window: 5 }.describe(), "MA(W=5)");
        assert!(ModelSpec::Ewma { alpha: 0.25 }.describe().contains("0.25"));
    }

    #[test]
    fn parse_round_trips_families() {
        let cases = [
            ("ma:5", ModelSpec::Ma { window: 5 }),
            ("sma:12", ModelSpec::Sma { window: 12 }),
            ("ewma:0.5", ModelSpec::Ewma { alpha: 0.5 }),
            ("nshw:0.6:0.2", ModelSpec::Nshw { alpha: 0.6, beta: 0.2 }),
            (
                "arima0:0.7,-0.1/0.3",
                ModelSpec::Arima(ArimaSpec::new(0, &[0.7, -0.1], &[0.3]).unwrap()),
            ),
            ("arima1:/", ModelSpec::Arima(ArimaSpec::new(1, &[], &[]).unwrap())),
        ];
        for (text, expect) in cases {
            assert_eq!(ModelSpec::parse(text).unwrap(), expect, "{text}");
        }
    }

    #[test]
    fn shw_parse_build_and_validate() {
        let spec = ModelSpec::parse("shw:0.3:0.1:0.5:288").unwrap();
        assert_eq!(spec, ModelSpec::Shw { alpha: 0.3, beta: 0.1, gamma: 0.5, period: 288 });
        assert_eq!(spec.kind(), ModelKind::Shw);
        assert!(ModelSpec::parse("shw:0.3:0.1:0.5").is_err());
        assert!(ModelSpec::Shw { alpha: 0.3, beta: 0.1, gamma: 1.5, period: 4 }
            .validate()
            .is_err());
        for period in [0, 1] {
            let short = ModelError::ShortSeason { period };
            assert_eq!(
                ModelSpec::Shw { alpha: 0.3, beta: 0.1, gamma: 0.5, period }.validate(),
                Err(short.clone())
            );
            assert_eq!(ModelSpec::parse(&format!("shw:0.3:0.1:0.5:{period}")), Err(short.clone()));
            assert_eq!(
                short.to_string(),
                format!("seasonal period must be at least 2 intervals, got {period}")
            );
        }
        assert!(ModelSpec::parse("shw:0.3:0.1:0.5:2").is_ok());
        // A smoothing constant out of range is reported before the period.
        assert_eq!(
            ModelSpec::parse("shw:0.3:0.1:1.5:1"),
            Err(ModelError::SmoothingOutOfRange { which: "gamma", value: 1.5 })
        );
        let mut m: Forecaster<f64> = spec.build();
        assert_eq!(m.warm_up(), 288);
        m.observe(&1.0);
        assert_eq!(m.name(), "SHW");
    }

    #[test]
    fn compact_round_trips_through_parse() {
        let specs = [
            ModelSpec::Shw { alpha: 0.25, beta: 0.5, gamma: 0.75, period: 12 },
            ModelSpec::Ma { window: 7 },
            ModelSpec::Sma { window: 3 },
            ModelSpec::Ewma { alpha: 0.375 },
            ModelSpec::Nshw { alpha: 0.9, beta: 0.05 },
            ModelSpec::Arima(ArimaSpec::new(0, &[0.5], &[-0.25, 0.125]).unwrap()),
            ModelSpec::Arima(ArimaSpec::new(1, &[], &[]).unwrap()),
        ];
        for spec in specs {
            let text = spec.compact();
            assert_eq!(ModelSpec::parse(&text).unwrap(), spec, "{text}");
        }
    }

    #[test]
    fn parse_rejects_garbage_and_bad_ranges() {
        for bad in ["", "foo", "ewma", "ewma:x", "ewma:1.5", "nshw:0.5", "arima0:3.0/", "ma:0"] {
            assert!(ModelSpec::parse(bad).is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn kind_matches_arima_differencing() {
        let a0 = ModelSpec::Arima(ArimaSpec::new(0, &[0.1], &[]).unwrap());
        let a1 = ModelSpec::Arima(ArimaSpec::new(1, &[0.1], &[]).unwrap());
        assert_eq!(a0.kind(), ModelKind::Arima0);
        assert_eq!(a1.kind(), ModelKind::Arima1);
    }
}
