//! The paper's central claim, tested exactly: because the sketch is a
//! linear map and every forecast model is linear in its observations,
//! **forecasting commutes with sketching**. Running a model over observed
//! sketches must produce, cell for cell, the same table as sketching the
//! per-flow forecasts produced by scalar instances of the same model.
//!
//! This holds *exactly* (up to floating-point reassociation), not just in
//! distribution — it is an algebraic identity, which makes it a perfect
//! oracle test for every model implementation at once.

use scd_forecast::{ArimaSpec, Forecaster, ModelSpec, Summary};
use scd_sketch::{KarySketch, SketchConfig};
use std::collections::HashMap;

const CFG: SketchConfig = SketchConfig { h: 5, k: 256, seed: 0xC0DE };

/// Synthetic per-interval traffic: returns `intervals` maps of key -> bytes.
fn synthetic_intervals(intervals: usize) -> Vec<HashMap<u64, f64>> {
    let keys: Vec<u64> = (0..40u64).map(|i| i * 0x9E37 + 11).collect();
    (0..intervals)
        .map(|t| {
            keys.iter()
                .enumerate()
                .map(|(i, &k)| {
                    // Each key has its own level, trend and phase, so the
                    // per-key series genuinely differ.
                    let level = 100.0 * (i + 1) as f64;
                    let trend = (i % 5) as f64 * t as f64;
                    let wobble = ((t * (i + 3)) % 7) as f64 * 3.0;
                    (k, level + trend + wobble)
                })
                .collect()
        })
        .collect()
}

fn all_specs() -> Vec<ModelSpec> {
    vec![
        ModelSpec::Ma { window: 3 },
        ModelSpec::Sma { window: 4 },
        ModelSpec::Ewma { alpha: 0.35 },
        ModelSpec::Nshw { alpha: 0.6, beta: 0.25 },
        ModelSpec::Arima(ArimaSpec::new(0, &[0.7, -0.2], &[0.4]).unwrap()),
        ModelSpec::Arima(ArimaSpec::new(1, &[0.5], &[0.3, -0.1]).unwrap()),
    ]
}

#[test]
fn sketched_forecast_equals_sketch_of_scalar_forecasts() {
    let intervals = synthetic_intervals(10);

    for spec in all_specs() {
        // Sketch-space model.
        let mut sketch_model: Forecaster<KarySketch> = spec.build();
        // One scalar model per flow.
        let mut scalar_models: HashMap<u64, Forecaster<f64>> = HashMap::new();

        for interval in &intervals {
            // Forecasts before observing this interval.
            let sketch_forecast = sketch_model.forecast();
            let scalar_forecast_sketch = if sketch_forecast.is_some() {
                let mut s = KarySketch::new(CFG);
                for (&key, model) in &scalar_models {
                    // Every scalar model was created at the same time, so
                    // warm-up states coincide with the sketch model's.
                    if let Some(f) = model.forecast() {
                        s.update(key, f);
                    }
                }
                Some(s)
            } else {
                None
            };

            if let (Some(a), Some(b)) = (&sketch_forecast, &scalar_forecast_sketch) {
                for (i, (x, y)) in a.table().iter().zip(b.table()).enumerate() {
                    let tol = 1e-6_f64.max(x.abs() * 1e-9);
                    assert!(
                        (x - y).abs() <= tol,
                        "{}: cell {i} diverged: sketch-space {x} vs sketched-scalars {y}",
                        spec.describe()
                    );
                }
            } else {
                assert_eq!(
                    sketch_forecast.is_some(),
                    scalar_forecast_sketch.is_some(),
                    "{}: warm-up disagreement",
                    spec.describe()
                );
            }

            // Observe the interval on both sides.
            let mut observed = KarySketch::new(CFG);
            for (&key, &v) in interval {
                observed.update(key, v);
                scalar_models.entry(key).or_insert_with(|| spec.build()).observe(&v);
            }
            sketch_model.observe(&observed);
        }
    }
}

#[test]
fn error_sketch_matches_scalar_errors() {
    // Same commutation, but for the full step() path (forecast + error),
    // checking ESTIMATE on the error sketch against true per-flow errors.
    let intervals = synthetic_intervals(8);
    let spec = ModelSpec::Ewma { alpha: 0.5 };

    let mut sketch_model: Forecaster<KarySketch> = spec.build();
    let mut scalar_models: HashMap<u64, Forecaster<f64>> = HashMap::new();

    for interval in &intervals {
        let mut observed = KarySketch::new(CFG);
        let mut scalar_errors: HashMap<u64, f64> = HashMap::new();
        for (&key, &v) in interval {
            observed.update(key, v);
            let m = scalar_models.entry(key).or_insert_with(|| spec.build());
            if let Some((_f, e)) = m.step(&v) {
                scalar_errors.insert(key, e);
            }
        }
        if let Some((_forecast, error_sketch)) = sketch_model.step(&observed) {
            // The error sketch should estimate each flow's scalar error to
            // within the sketch noise; with 40 keys in K=256 cells and
            // errors of modest magnitude, a loose bound suffices — the
            // point is the *pipeline* identity, exactness is covered above.
            let est = error_sketch.estimator();
            let f2: f64 = scalar_errors.values().map(|e| e * e).sum();
            let noise = (f2 / 255.0).sqrt().max(1e-9);
            for (&key, &true_err) in &scalar_errors {
                let got = est.estimate(key);
                assert!(
                    (got - true_err).abs() <= 8.0 * noise + 1e-6,
                    "key {key}: estimated error {got} vs true {true_err} (noise {noise})"
                );
            }
        }
    }
}

#[test]
fn summary_trait_object_composition() {
    // The detection pipeline treats models as trait objects over sketches;
    // make sure Forecaster<KarySketch> supports the linear ops the
    // pipeline needs end-to-end.
    let spec = ModelSpec::Nshw { alpha: 0.4, beta: 0.2 };
    let mut model: Forecaster<KarySketch> = spec.build();
    for t in 0..6 {
        let mut s = KarySketch::new(CFG);
        s.update(1, 100.0 + 10.0 * t as f64);
        s.update(2, 50.0);
        model.observe(&s);
    }
    let f = model.forecast().expect("warm");
    // Flow 1 trends upward: forecast ≈ 160; flow 2 flat at 50.
    assert!((f.estimate(1) - 160.0).abs() < 15.0, "{}", f.estimate(1));
    assert!((f.estimate(2) - 50.0).abs() < 10.0, "{}", f.estimate(2));
    // Error sketch for a new observation.
    let mut next = KarySketch::new(CFG);
    next.update(1, 300.0); // anomaly!
    next.update(2, 50.0);
    let err = KarySketch::sub(&next, &f);
    assert!(err.estimate(1) > 100.0, "anomalous flow has large error");
    assert!(err.estimate(2).abs() < 10.0, "normal flow has small error");
}
