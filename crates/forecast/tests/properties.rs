//! Property-based tests of the forecasting models' structural invariants,
//! driven by a seeded `SplitMix64` so runs are reproducible.

use scd_forecast::{ArimaSpec, Forecaster, ModelSpec};
use scd_hash::SplitMix64;

const CASES: u64 = 64;

fn uniform(rng: &mut SplitMix64, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * (rng.next_below(1_000_000) as f64) / 1_000_000.0
}

fn random_spec(rng: &mut SplitMix64) -> ModelSpec {
    match rng.next_below(5) {
        0 => ModelSpec::Ma { window: 1 + rng.next_below(7) as usize },
        1 => ModelSpec::Sma { window: 1 + rng.next_below(7) as usize },
        2 => ModelSpec::Ewma { alpha: uniform(rng, 0.0, 1.0) },
        3 => ModelSpec::Nshw { alpha: uniform(rng, 0.0, 1.0), beta: uniform(rng, 0.0, 1.0) },
        _ => {
            let d = rng.next_below(2) as usize;
            let ar: Vec<f64> = (0..rng.next_below(3)).map(|_| uniform(rng, -1.5, 1.5)).collect();
            let ma: Vec<f64> = (0..rng.next_below(3)).map(|_| uniform(rng, -1.5, 1.5)).collect();
            ModelSpec::Arima(ArimaSpec::new(d, &ar, &ma).unwrap())
        }
    }
}

fn random_stream(rng: &mut SplitMix64) -> Vec<f64> {
    let len = 4 + rng.next_below(16) as usize;
    (0..len).map(|_| uniform(rng, -1e4, 1e4)).collect()
}

/// Every model is linear: model(c1·x + c2·y) = c1·model(x) + c2·model(y).
/// This is the precondition for running the model on sketches at all.
#[test]
fn models_are_linear() {
    let mut rng = SplitMix64::new(0x11EA);
    for _ in 0..CASES {
        let spec = random_spec(&mut rng);
        let xs = random_stream(&mut rng);
        let ys = random_stream(&mut rng);
        let c1 = uniform(&mut rng, -3.0, 3.0);
        let c2 = uniform(&mut rng, -3.0, 3.0);
        let n = xs.len().min(ys.len());
        let mut mx: Forecaster<f64> = spec.build();
        let mut my: Forecaster<f64> = spec.build();
        let mut mz: Forecaster<f64> = spec.build();
        for i in 0..n {
            mx.observe(&xs[i]);
            my.observe(&ys[i]);
            mz.observe(&(c1 * xs[i] + c2 * ys[i]));
        }
        match (mx.forecast(), my.forecast(), mz.forecast()) {
            (Some(fx), Some(fy), Some(fz)) => {
                let expect = c1 * fx + c2 * fy;
                // Scale-aware tolerance: inputs up to 1e4, a few intervals
                // of accumulation.
                let tol = 1e-6_f64.max(expect.abs() * 1e-9);
                assert!((fz - expect).abs() <= tol, "{}: {fz} vs {expect}", spec.describe());
            }
            (a, b, c) => {
                // Warm-up states must agree across the three instances.
                assert_eq!(a.is_some(), c.is_some());
                assert_eq!(b.is_some(), c.is_some());
            }
        }
    }
}

/// Forecasts are finite for finite inputs.
#[test]
fn forecasts_stay_finite() {
    let mut rng = SplitMix64::new(0xF1417E);
    for _ in 0..CASES {
        let spec = random_spec(&mut rng);
        let xs = random_stream(&mut rng);
        let mut m: Forecaster<f64> = spec.build();
        for x in &xs {
            m.observe(x);
            if let Some(f) = m.forecast() {
                assert!(f.is_finite(), "{}: non-finite forecast", spec.describe());
            }
        }
    }
}

/// Warm-up contract: forecast() is None for exactly the first
/// `warm_up()` observations and Some afterwards.
#[test]
fn warm_up_contract() {
    let mut rng = SplitMix64::new(0x3A52);
    for _ in 0..CASES {
        let spec = random_spec(&mut rng);
        let xs = random_stream(&mut rng);
        let mut m: Forecaster<f64> = spec.build();
        let warm = m.warm_up();
        for (i, x) in xs.iter().enumerate() {
            let expected_ready = i >= warm;
            assert_eq!(
                m.forecast().is_some(),
                expected_ready,
                "{}: after {i} observations (warm_up = {warm})",
                spec.describe()
            );
            m.observe(x);
        }
    }
}

/// A constant stream is eventually forecast as (close to) the constant
/// by every smoothing model; ARIMA is excluded since arbitrary random
/// coefficients need not have unit DC gain.
#[test]
fn smoothing_models_track_constants() {
    let mut rng = SplitMix64::new(0xC025);
    for _ in 0..CASES {
        let window = 1 + rng.next_below(7) as usize;
        let alpha = uniform(&mut rng, 0.05, 1.0);
        let beta = uniform(&mut rng, 0.0, 1.0);
        let level = uniform(&mut rng, 1.0, 1e4);
        let specs = [
            ModelSpec::Ma { window },
            ModelSpec::Sma { window },
            ModelSpec::Ewma { alpha },
            ModelSpec::Nshw { alpha, beta },
        ];
        for spec in specs {
            let mut m: Forecaster<f64> = spec.build();
            for _ in 0..200 {
                m.observe(&level);
            }
            let f = m.forecast().unwrap();
            assert!(
                (f - level).abs() < 1e-6 * level + 1e-9,
                "{}: forecast {f} for constant {level}",
                spec.describe()
            );
        }
    }
}

/// `step` returns an error equal to observation minus forecast.
#[test]
fn step_error_identity() {
    let mut rng = SplitMix64::new(0x57E9);
    for _ in 0..CASES {
        let spec = random_spec(&mut rng);
        let xs = random_stream(&mut rng);
        let mut m: Forecaster<f64> = spec.build();
        for x in &xs {
            let pre = m.forecast();
            let stepped = m.step(x);
            match (pre, stepped) {
                (Some(f), Some((f2, e))) => {
                    assert_eq!(f, f2);
                    assert!((e - (x - f)).abs() < 1e-9);
                }
                (None, None) => {}
                (a, b) => {
                    panic!("step/forecast disagree: {:?} vs {:?}", a, b.map(|p| p.0))
                }
            }
        }
    }
}

/// Snapshot/restore round-trips through a random prefix for a random spec:
/// restored forecasts are bit-identical to the uninterrupted model's.
#[test]
fn snapshot_restore_round_trip() {
    let mut rng = SplitMix64::new(0x5A47);
    for _ in 0..CASES {
        let spec = random_spec(&mut rng);
        let xs = random_stream(&mut rng);
        let cut = rng.next_below(xs.len() as u64 + 1) as usize;
        let mut original: Forecaster<f64> = spec.build();
        for x in &xs[..cut] {
            original.observe(x);
        }
        let mut restored = spec.restore(original.state().clone()).expect("restore");
        for x in &xs[cut..] {
            assert_eq!(
                original.forecast().map(f64::to_bits),
                restored.forecast().map(f64::to_bits),
                "{}",
                spec.describe()
            );
            original.observe(x);
            restored.observe(x);
        }
        assert_eq!(
            original.forecast().map(f64::to_bits),
            restored.forecast().map(f64::to_bits),
            "{}",
            spec.describe()
        );
    }
}
