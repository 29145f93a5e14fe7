//! The grid search of §3.4.2 (`scd_core::gridsearch`): its objective is
//! bit-identical to a detector per candidate, its results are pinned, and
//! it is never worse than the §5.1.1 random comparator (`scd-bench`'s
//! `random_spec`) under the same objective.

use scd_bench::random_spec;
use scd_core::gridsearch::{estimated_total_energy, observe, search_model, GridSearchConfig};
use scd_core::{DetectorConfig, KeyStrategy, SketchChangeDetector};
use scd_forecast::{ArimaSpec, ModelKind, ModelSpec};
use scd_sketch::SketchConfig;
use scd_traffic::Rng;

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
    let arima = |d, ar: &[f64], ma: &[f64]| ModelSpec::Arima(ArimaSpec::new(d, ar, ma).unwrap());
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
        (ModelKind::Nshw, "nshw:0.8875000000000001:0.21250000000000005", 0x40d4_e479_3d4e_7679, 50),
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
            let e =
                estimated_total_energy(&spec, &observe(cfg.sketch, &trace), cfg.warm_up_intervals);
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
