//! Multi-pass grid search for forecast-model parameters (paper §3.4.2).
//!
//! "A commonly used simple heuristic for configuring model parameters is
//! choosing parameters that minimize the total residual energy … We extend
//! the heuristic to the sketch context and look for parameters that
//! minimize the estimated total energy of forecast errors
//! `Σ_t F2est(Se(t))`" — crucially using the *estimated* second moment, so
//! that parameter search itself never needs per-flow state.
//!
//! Search procedure, as in §4.2:
//!
//! * MA/SMA: the window is an integer — evaluate every `W` from 1 to the
//!   configured maximum (10 for 300 s intervals, 12 for 60 s).
//! * EWMA / NSHW (and the SHW extension): multi-pass grid. Pass 1 scans
//!   `{0.1, 0.2, …, 1.0}` per parameter; each further pass subdivides the
//!   ±1-step neighborhood of the incumbent — the best point so far — into
//!   `subdivisions` equal parts (the paper uses 10).
//! * ARIMA: every structure `(p ≤ 2, q ≤ 2)` is scanned with each
//!   coefficient gridded into `arima_subdivisions` points of `[−2, 2]`
//!   (the paper uses 7 "to limit the search space"), then refined around
//!   the structure's incumbent the same way.
//!
//! One walker, `search_grid`, runs every multi-pass grid.
//!
//! The objective is a function of the observed sketches alone, and
//! `So(t)` is the same for every candidate. So the search folds each
//! interval into `So(t)` once, at the search shape, and scores a candidate
//! by stepping its model over that sequence and summing `ESTIMATEF2` of
//! each error sketch: no detector, key stream or threshold per candidate.
//! The energies are bit-identical to running a detector per candidate:
//! `So(t)` comes from the same per-record `update` loop over the same
//! shared hash family, and `step_error_into` and `estimate_f2` are the two
//! calls the detector's interval turnover makes, in the same order, on
//! tables of the same bits. The price is memory: `H·K·8` bytes of `So` per
//! interval (64 KiB at the paper's search shape).
//!
//! During search the paper fixes `H = 1, K = 8192` — the estimated energy
//! at that size already tracks the true energy closely (its Figure 1–3
//! result), which is what makes the cheap search sound.

use scd_forecast::{ArimaSpec, ModelKind, ModelSpec};
use scd_sketch::{KarySketch, SketchConfig};
use std::sync::Arc;

/// Grid-search configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridSearchConfig {
    /// Sketch used for energy estimation (paper: `H = 1, K = 8192`).
    pub sketch: SketchConfig,
    /// Number of grid passes (paper: 2).
    pub passes: usize,
    /// Subdivisions per pass for smoothing parameters (paper: 10).
    pub subdivisions: usize,
    /// Subdivisions per pass for ARIMA coefficients (paper: 7).
    pub arima_subdivisions: usize,
    /// Maximum MA/SMA window (paper: 10 for 300 s intervals, 12 for 60 s).
    pub max_window: usize,
    /// Leading intervals excluded from the energy objective (model
    /// warm-up; the paper discards the first hour).
    pub warm_up_intervals: usize,
    /// Season length used when searching the seasonal Holt-Winters
    /// extension (`ModelKind::Shw`): the period is structural (one diurnal
    /// cycle), not searched.
    pub seasonal_period: usize,
}

impl GridSearchConfig {
    /// The paper's search settings for a given interval length.
    pub fn paper_default(interval_secs: u32) -> Self {
        GridSearchConfig {
            sketch: SketchConfig { h: 1, k: 8192, seed: 0x6121D },
            passes: 2,
            subdivisions: 10,
            arima_subdivisions: 7,
            max_window: if interval_secs >= 300 { 10 } else { 12 },
            warm_up_intervals: (3600 / interval_secs.max(1)) as usize,
            // One day's worth of intervals: the diurnal cycle.
            seasonal_period: (86_400 / interval_secs.max(1) as usize).max(2),
        }
    }

    /// The paper's settings with a coarser ARIMA coefficient grid (5
    /// points per coefficient instead of 7): the default depth of
    /// `scd tune` and the experiments, which select
    /// [`paper_default`](Self::paper_default) only when asked.
    pub fn fast(interval_secs: u32) -> Self {
        GridSearchConfig { arima_subdivisions: 5, ..Self::paper_default(interval_secs) }
    }
}

/// Outcome of a parameter search.
#[derive(Debug, Clone, PartialEq)]
pub struct GridSearchResult {
    /// The best specification found.
    pub spec: ModelSpec,
    /// Its estimated total energy `Σ_t F2est(Se(t))`.
    pub energy: f64,
    /// Number of candidate evaluations performed.
    pub evaluated: usize,
}

/// Folds each interval's updates into its observed sketch `So(t)` with
/// the per-record `update` loop of the detector's `process_interval`, so
/// every cell has the bits the detector would give it. Costs `H·K·8`
/// bytes per interval.
pub fn observe(sketch: SketchConfig, intervals: &[Vec<(u64, f64)>]) -> Vec<KarySketch> {
    intervals
        .iter()
        .map(|items| {
            let mut observed = KarySketch::new(sketch);
            for &(key, value) in items {
                observed.update(key, value);
            }
            observed
        })
        .collect()
}

/// Steps `spec`'s model over the observed sketches and returns the
/// estimated total error energy `Σ_t F2est(Se(t))` for `t` past warm-up:
/// the forecast step and `ESTIMATEF2` of the detector's turnover, with
/// nothing else. Non-finite energies (explosive ARIMA candidates) map to
/// `+∞` so they lose every comparison without poisoning NaN orderings.
///
/// This is the one sketch-energy objective: the search minimises it, and
/// its square root is the sketch side of the §5.1 energy comparisons.
pub fn estimated_total_energy(
    spec: &ModelSpec,
    observed: &[KarySketch],
    warm_up_intervals: usize,
) -> f64 {
    let Some(first) = observed.first() else { return 0.0 };
    let mut model = spec.build::<KarySketch>();
    let mut error = KarySketch::with_rows(Arc::clone(first.rows()));
    let mut energy = 0.0;
    for (t, so) in observed.iter().enumerate() {
        if model.step_error_into(so, &mut error) && t >= warm_up_intervals {
            let f2 = error.estimate_f2();
            if !f2.is_finite() {
                return f64::INFINITY;
            }
            energy += f2.max(0.0);
        }
    }
    energy
}

/// Searches the parameter space of `kind` and returns the best spec.
///
/// # Panics
/// Panics if `config` has zero passes/subdivisions or `intervals` is empty.
pub fn search_model(
    kind: ModelKind,
    config: &GridSearchConfig,
    intervals: &[Vec<(u64, f64)>],
) -> GridSearchResult {
    assert!(config.passes >= 1 && config.subdivisions >= 2 && config.arima_subdivisions >= 2);
    assert!(!intervals.is_empty(), "grid search needs at least one interval");
    let observed = observe(config.sketch, intervals);
    let mut evaluated = 0usize;
    let mut eval = |spec: &ModelSpec| -> f64 {
        evaluated += 1;
        estimated_total_energy(spec, &observed, config.warm_up_intervals)
    };

    let (spec, energy) = match kind {
        ModelKind::Ma => {
            search_window(config.max_window, &mut eval, |w| ModelSpec::Ma { window: w })
        }
        ModelKind::Sma => {
            search_window(config.max_window, &mut eval, |w| ModelSpec::Sma { window: w })
        }
        ModelKind::Ewma => {
            search_smoothing(config, &mut eval, 1, |p| ModelSpec::Ewma { alpha: p[0] })
        }
        ModelKind::Nshw => {
            search_smoothing(config, &mut eval, 2, |p| ModelSpec::Nshw { alpha: p[0], beta: p[1] })
        }
        ModelKind::Shw => {
            let period = config.seasonal_period;
            search_smoothing(config, &mut eval, 3, |p| ModelSpec::Shw {
                alpha: p[0],
                beta: p[1],
                gamma: p[2],
                period,
            })
        }
        ModelKind::Arima0 => search_arima(config, &mut eval, 0),
        ModelKind::Arima1 => search_arima(config, &mut eval, 1),
    };
    GridSearchResult { spec, energy, evaluated }
}

/// Integer window search for MA/SMA.
fn search_window(
    max_window: usize,
    eval: &mut dyn FnMut(&ModelSpec) -> f64,
    make: fn(usize) -> ModelSpec,
) -> (ModelSpec, f64) {
    first_min((1..=max_window.max(1)).map(|w| {
        let spec = make(w);
        let e = eval(&spec);
        (spec, e)
    }))
}

/// EWMA / NSHW / SHW: the grid over `dims` smoothing parameters in
/// `[0, 1]`, whose first pass is `{0.1, 0.2, …, 1.0}` per the paper.
fn search_smoothing(
    config: &GridSearchConfig,
    eval: &mut dyn FnMut(&ModelSpec) -> f64,
    dims: usize,
    make: impl Fn(&[f64]) -> ModelSpec,
) -> (ModelSpec, f64) {
    let (point, energy) =
        search_grid(dims, (0.0, 1.0), 0.55, 0.45, config.passes, config.subdivisions, &mut |p| {
            eval(&make(p))
        });
    (make(&point), energy)
}

/// ARIMA with differencing order `d`: every structure `(p ≤ 2, q ≤ 2)` in
/// `(p, q)` order, its `p + q` coefficients gridded over `[−2, 2]`.
fn search_arima(
    config: &GridSearchConfig,
    eval: &mut dyn FnMut(&ModelSpec) -> f64,
    d: usize,
) -> (ModelSpec, f64) {
    first_min((0..=2).flat_map(|p| (0..=2).map(move |q| (p, q))).map(|(p, q)| {
        let make = |coefs: &[f64]| {
            let spec = ArimaSpec::new(d, &coefs[..p], &coefs[p..]);
            ModelSpec::Arima(spec.expect("grid points are in range"))
        };
        let (coefs, e) = search_grid(
            p + q,
            (-2.0, 2.0),
            0.0,
            2.0,
            config.passes,
            config.arima_subdivisions,
            &mut |c| eval(&make(c)),
        );
        (make(&coefs), e)
    }))
}

/// The multi-pass Cartesian grid over `dims` parameters in `[lo, hi]`.
///
/// Pass 1 lays `n` evenly spaced points per dimension over
/// `center ± half_range`. Each further pass divides the range by
/// `(n − 1) / 2`, so it spans the ±1-step neighbourhood of the incumbent
/// (the best point so far), and re-centres there. Points are clamped to
/// `[lo, hi]` and scanned with dimension 0 varying fastest. A point with
/// no coordinates has nothing to refine and is evaluated once.
fn search_grid(
    dims: usize,
    (lo, hi): (f64, f64),
    center: f64,
    mut half_range: f64,
    passes: usize,
    n: usize,
    eval: &mut dyn FnMut(&[f64]) -> f64,
) -> (Vec<f64>, f64) {
    let mut centers = vec![center; dims];
    let mut best = None;
    for _pass in 0..if dims == 0 { 1 } else { passes } {
        // Point `j` takes its coordinate in dimension `d` from digit `d`
        // of `j` in base `n`.
        let points = (0..n.pow(dims as u32)).map(|mut j| {
            let point: Vec<f64> = centers
                .iter()
                .map(|&c| {
                    let frac = (j % n) as f64 / (n - 1) as f64;
                    j /= n;
                    (c - half_range + 2.0 * half_range * frac).clamp(lo, hi)
                })
                .collect();
            let e = eval(&point);
            (point, e)
        });
        let incumbent = first_min(best.into_iter().chain(points));
        centers.clone_from(&incumbent.0);
        best = Some(incumbent);
        half_range /= (n - 1) as f64 / 2.0;
    }
    best.expect("at least one pass")
}

/// The first of `candidates` with the least energy: a later candidate
/// wins only if strictly better.
fn first_min<T>(candidates: impl Iterator<Item = (T, f64)>) -> (T, f64) {
    candidates.reduce(|best, c| if c.1 < best.1 { c } else { best }).expect("a candidate")
}
