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
use scd_traffic::Rng;
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
    use crate::detector::{DetectorConfig, KeyStrategy, SketchChangeDetector};

    /// The objective as a whole detector per candidate computes it: every
    /// record re-hashed, the turnover run with its key scan sampled away.
    /// [`estimated_total_energy`] must match it bit for bit.
    fn reference_energy(
        spec: &ModelSpec,
        sketch: SketchConfig,
        intervals: &[Vec<(u64, f64)>],
        warm_up_intervals: usize,
    ) -> f64 {
        let mut det = SketchChangeDetector::new(DetectorConfig {
            sketch,
            model: spec.clone(),
            threshold: 1.0,
            key_strategy: KeyStrategy::Sampled { rate: 0.0, seed: 0 },
        });
        let mut energy = 0.0;
        for (t, items) in intervals.iter().enumerate() {
            let report = det.process_interval(items);
            if report.warmed_up && t >= warm_up_intervals {
                if !report.error_f2.is_finite() {
                    return f64::INFINITY;
                }
                energy += report.error_f2.max(0.0);
            }
        }
        energy
    }

    /// A toy trace: two flows with EWMA-friendly dynamics. Flow A is an
    /// AR-ish process around 1000, flow B around 100.
    fn toy_trace(intervals: usize) -> Vec<Vec<(u64, f64)>> {
        let mut rng = Rng::new(42);
        let mut a = 1000.0;
        let mut b = 100.0;
        (0..intervals)
            .map(|_| {
                a = 0.8 * a + 0.2 * 1000.0 + rng.normal(0.0, 30.0);
                b = 0.8 * b + 0.2 * 100.0 + rng.normal(0.0, 5.0);
                vec![(1u64, a), (2u64, b)]
            })
            .collect()
    }

    fn tiny_config() -> GridSearchConfig {
        GridSearchConfig {
            sketch: SketchConfig { h: 1, k: 256, seed: 5 },
            passes: 2,
            subdivisions: 5,
            arima_subdivisions: 3,
            max_window: 5,
            warm_up_intervals: 3,
            seasonal_period: 4,
        }
    }

    /// Twelve updates an interval over forty keys (so buckets collide at
    /// small K), with integer, fractional or signed values.
    fn varied_trace(rng: &mut Rng, intervals: usize, values: usize) -> Vec<Vec<(u64, f64)>> {
        (0..intervals)
            .map(|_| {
                (0..12)
                    .map(|_| {
                        let key = rng.below(40);
                        let value = match values {
                            0 => rng.below(2_000) as f64,
                            1 => rng.uniform_in(0.0, 2_000.0),
                            _ => rng.uniform_in(-1_000.0, 1_000.0),
                        };
                        (key, value)
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn objective_is_bit_identical_to_a_detector_per_candidate() {
        let mut rng = Rng::new(31);
        let mut kinds = ModelKind::ALL.to_vec();
        kinds.push(ModelKind::Shw);
        let arima =
            |d, ar: &[f64], ma: &[f64]| ModelSpec::Arima(ArimaSpec::new(d, ar, ma).unwrap());
        for h in [1, 5] {
            let sketch = SketchConfig { h, k: 64, seed: 17 };
            for values in 0..3 {
                let trace = varied_trace(&mut rng, 24, values);
                let observed = observe(sketch, &trace);
                // Random candidates of every family, plus grid corners.
                let mut specs: Vec<ModelSpec> = kinds
                    .iter()
                    .flat_map(|&kind| {
                        (0..3).map(|_| random_spec(kind, 6, &mut rng)).collect::<Vec<_>>()
                    })
                    .collect();
                specs.extend([
                    ModelSpec::Ewma { alpha: 0.0 },
                    ModelSpec::Nshw { alpha: 1.0, beta: 0.0 },
                    ModelSpec::Shw { alpha: 0.1, beta: 0.55, gamma: 1.0, period: 3 },
                    arima(0, &[2.0, -2.0], &[]),
                    arima(1, &[-2.0], &[2.0, 2.0]),
                ]);
                for warm_up in [0, 5] {
                    for spec in &specs {
                        let want = reference_energy(spec, sketch, &trace, warm_up);
                        let got = estimated_total_energy(spec, &observed, warm_up);
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "{} at H={h}, values {values}, warm-up {warm_up}: {got} vs {want}",
                            spec.compact()
                        );
                    }
                }
            }
        }
        // An explosive ARIMA scores +∞ on both sides.
        let trace = toy_trace(400);
        let sketch = SketchConfig { h: 1, k: 64, seed: 1 };
        let spec = arima(0, &[-2.0], &[-2.0, -2.0]);
        assert_eq!(reference_energy(&spec, sketch, &trace, 0), f64::INFINITY);
        assert_eq!(estimated_total_energy(&spec, &observe(sketch, &trace), 0), f64::INFINITY);
    }

    #[test]
    fn search_results_are_pinned() {
        // (spec, energy bits, candidates) per family on the toy trace, as
        // the search gave them when every candidate ran a whole detector.
        let pinned = [
            (ModelKind::Ma, "ma:1", 0x40d3_57d7_015c_3744, 5),
            (ModelKind::Sma, "sma:1", 0x40d3_57d7_015c_3744, 5),
            (ModelKind::Ewma, "ewma:1", 0x40d3_57d7_015c_3744, 10),
            (
                ModelKind::Nshw,
                "nshw:0.8875000000000001:0.21250000000000005",
                0x40d4_e479_3d4e_7679,
                50,
            ),
            (ModelKind::Arima0, "arima0:2,-2/", 0x4179_17a9_db0b_953e, 337),
            (ModelKind::Arima1, "arima1:/", 0x40d3_57d7_015c_3744, 337),
            (ModelKind::Shw, "shw:0.6625000000000001:0:1:4", 0x40d8_985b_da3a_cfa8, 250),
        ];
        let trace = toy_trace(30);
        for (kind, spec, bits, evaluated) in pinned {
            let r = search_model(kind, &tiny_config(), &trace);
            assert_eq!(
                (r.spec.compact().as_str(), r.energy.to_bits(), r.evaluated),
                (spec, bits, evaluated),
                "{kind}"
            );
        }
    }

    #[test]
    fn energy_objective_prefers_better_parameters() {
        let trace = toy_trace(30);
        let cfg = tiny_config();
        // For a mean-reverting process, alpha near 1 chases noise less well
        // than a moderate alpha... at minimum, energies must differ and be
        // finite, and a absurd model (alpha=0, frozen first value) must be
        // worse than the best found.
        let e_frozen = estimated_total_energy(
            &ModelSpec::Ewma { alpha: 0.0 },
            &observe(cfg.sketch, &trace),
            cfg.warm_up_intervals,
        );
        let found = search_model(ModelKind::Ewma, &cfg, &trace);
        assert!(found.energy.is_finite());
        assert!(found.energy <= e_frozen, "search must beat alpha=0");
    }

    #[test]
    fn search_never_worse_than_random_candidates() {
        // The paper's §5.1.1 claim, in miniature: grid search is never
        // worse than random parameter picks under the same objective.
        let trace = toy_trace(25);
        let cfg = tiny_config();
        let mut rng = Rng::new(7);
        for kind in [ModelKind::Ewma, ModelKind::Ma, ModelKind::Nshw] {
            let found = search_model(kind, &cfg, &trace);
            for _ in 0..5 {
                let spec = random_spec(kind, cfg.max_window, &mut rng);
                let e = estimated_total_energy(
                    &spec,
                    &observe(cfg.sketch, &trace),
                    cfg.warm_up_intervals,
                );
                assert!(
                    found.energy <= e + 1e-9,
                    "{kind}: search energy {} beaten by random {} ({})",
                    found.energy,
                    e,
                    spec.describe()
                );
            }
        }
    }

    #[test]
    fn window_search_covers_range() {
        let trace = toy_trace(20);
        let cfg = tiny_config();
        let r = search_model(ModelKind::Ma, &cfg, &trace);
        assert_eq!(r.evaluated, cfg.max_window);
        match r.spec {
            ModelSpec::Ma { window } => assert!((1..=cfg.max_window).contains(&window)),
            other => panic!("wrong spec family: {other:?}"),
        }
    }

    #[test]
    fn arima_search_returns_valid_spec() {
        let trace = toy_trace(20);
        let mut cfg = tiny_config();
        cfg.passes = 1; // keep the test fast
        for kind in [ModelKind::Arima0, ModelKind::Arima1] {
            let r = search_model(kind, &cfg, &trace);
            assert!(r.energy.is_finite());
            match &r.spec {
                ModelSpec::Arima(s) => {
                    s.validate().unwrap();
                    assert_eq!(s.d == 0, kind == ModelKind::Arima0);
                }
                other => panic!("wrong family {other:?}"),
            }
        }
    }

    #[test]
    fn refinement_does_not_regress() {
        // More passes can only improve (or tie) the objective.
        let trace = toy_trace(25);
        let mut one = tiny_config();
        one.passes = 1;
        let mut two = tiny_config();
        two.passes = 2;
        let e1 = search_model(ModelKind::Ewma, &one, &trace).energy;
        let e2 = search_model(ModelKind::Ewma, &two, &trace).energy;
        assert!(e2 <= e1 + 1e-9, "pass 2 regressed: {e2} > {e1}");
        // Past two passes too: pass 3 re-centres each ARIMA structure on
        // its best point so far.
        let mut cfg = tiny_config();
        cfg.sketch.k = 64;
        cfg.arima_subdivisions = 4;
        for kind in [ModelKind::Arima0, ModelKind::Arima1] {
            cfg.passes = 2;
            let two = search_model(kind, &cfg, &trace);
            cfg.passes = 3;
            let three = search_model(kind, &cfg, &trace);
            assert_eq!((two.evaluated, three.evaluated), (881, 1321), "{kind}");
            assert!(three.energy <= two.energy, "{kind}: pass 3 regressed: {three:?} > {two:?}");
        }
    }

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

    #[test]
    fn explosive_candidates_score_infinite_not_nan() {
        // AR coefficient 2.0 with d=1 doubles the series every step: the
        // energy must come back as +inf, not NaN.
        let trace = toy_trace(40);
        let spec = ModelSpec::Arima(ArimaSpec::new(1, &[2.0, 2.0], &[]).unwrap());
        let observed = observe(SketchConfig { h: 1, k: 64, seed: 1 }, &trace);
        let e = estimated_total_energy(&spec, &observed, 0);
        assert!(e == f64::INFINITY || e.is_finite());
        assert!(!e.is_nan());
    }
}
