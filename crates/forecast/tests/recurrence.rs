//! Each model's steady-state step against its recursion written out once
//! more: plain `f64` arithmetic over the model's own [`ModelState`], in
//! the operation order of the whole-table reference (`forecast()`, then
//! the paper's recursion one operation at a time).
//!
//! `blocked_identity.rs` holds the step to `forecast()` and to one scalar
//! model per cell, but its reference model and its scalar twins advance
//! through the same per-cell function as the step under test. A reordered
//! *state* update that leaves the forecast formula alone would pass there;
//! here the state after every step must match this recursion
//! `to_bits()`-exactly, and so must `Sf` and `Se`.

use scd_forecast::sma::sma_weight;
use scd_forecast::{ArimaSpec, ModelSpec, ModelState, Summary};
use scd_hash::SplitMix64;
use scd_sketch::{KarySketch, SketchConfig};

/// One step of `spec`'s recursion on `state`, fed `o`; returns `Sf(t)`.
fn reference_step(spec: &ModelSpec, state: &mut ModelState<f64>, o: f64) -> f64 {
    match (spec, state) {
        (ModelSpec::Ma { .. }, ModelState::Ma { history }) => {
            let weight = 1.0 / history.len() as f64;
            let mut f = 0.0;
            for h in history.iter() {
                f += weight * h;
            }
            history.remove(0);
            history.push(o);
            f
        }
        (ModelSpec::Sma { window }, ModelState::Sma { history }) => {
            let (mut f, mut total) = (0.0, 0.0);
            for (age, h) in history.iter().rev().enumerate() {
                let weight = sma_weight(age, *window);
                f += weight * h;
                total += weight;
            }
            f *= 1.0 / total;
            history.remove(0);
            history.push(o);
            f
        }
        (ModelSpec::Ewma { alpha }, ModelState::Ewma { forecast: Some(s) }) => {
            let f = *s;
            *s = f * (1.0 - alpha) + alpha * o;
            f
        }
        (ModelSpec::Nshw { alpha, beta }, ModelState::Nshw { state: Some(p), .. }) => {
            let f = p.forecast;
            let level = f * (1.0 - alpha) + alpha * o;
            p.trend = p.trend * (1.0 - beta) + beta * level + -beta * p.level;
            p.level = level;
            p.forecast = level + 1.0 * p.trend;
            f
        }
        (ModelSpec::Shw { alpha, beta, gamma, period }, ModelState::Shw { state: Some(p), .. }) => {
            let s = p.season[p.phase];
            let f = p.level + 1.0 * p.trend + 1.0 * s;
            let level = (p.level + 1.0 * p.trend) * (1.0 - alpha) + alpha * o + -alpha * s;
            p.trend = p.trend * (1.0 - beta) + beta * level + -beta * p.level;
            p.season[p.phase] = s * (1.0 - gamma) + gamma * o + -gamma * level;
            p.level = level;
            p.phase = (p.phase + 1) % period;
            f
        }
        (ModelSpec::Arima(spec), ModelState::Arima { x_hist, e_hist, observed_count }) => {
            let n = x_hist.len();
            let mut f = 0.0;
            for (j, c) in spec.ar.as_slice().iter().enumerate() {
                let newer = x_hist[n - 1 - j];
                f += c * if spec.d == 0 { newer } else { newer - x_hist[n - 2 - j] };
            }
            for (i, c) in spec.ma.as_slice().iter().enumerate() {
                f += c * e_hist[e_hist.len() - 1 - i];
            }
            if spec.d == 1 {
                f += 1.0 * x_hist[n - 1];
            }
            if spec.q() > 0 {
                e_hist.remove(0);
                e_hist.push(o - f);
            }
            x_hist.remove(0);
            x_hist.push(o);
            *observed_count += 1;
            f
        }
        (spec, state) => panic!("{} not in its steady state: {state:?}", spec.describe()),
    }
}

/// Every number a state holds, as bits, in one fixed order: `value`
/// reads one cell of a summary.
fn bits<S>(state: &ModelState<S>, value: impl Fn(&S) -> f64) -> Vec<u64> {
    let numbers: Vec<f64> = match state {
        ModelState::Ma { history } | ModelState::Sma { history } => {
            history.iter().map(&value).collect()
        }
        ModelState::Ewma { forecast } => forecast.iter().map(&value).collect(),
        ModelState::Nshw { first, state } => {
            let parts = state.iter().flat_map(|p| [&p.level, &p.trend, &p.forecast]);
            first.iter().chain(parts).map(&value).collect()
        }
        ModelState::Arima { x_hist, e_hist, observed_count } => {
            x_hist.iter().chain(e_hist).map(&value).chain([*observed_count as f64]).collect()
        }
        ModelState::Shw { init, state } => {
            let parts = state.iter().flat_map(|p| {
                let tables = [&p.level, &p.trend].into_iter().chain(&p.season);
                [p.phase as f64].into_iter().chain(tables.map(&value))
            });
            init.iter().map(&value).chain(parts).collect()
        }
    };
    numbers.iter().map(|x| x.to_bits()).collect()
}

/// The specs `blocked_identity.rs` runs — every kind, every ARIMA shape —
/// and MA and SMA windows past the grid search's widest, 12.
fn specs() -> Vec<ModelSpec> {
    let mut specs = vec![
        ModelSpec::Ewma { alpha: 0.3 },
        ModelSpec::Nshw { alpha: 0.6, beta: 0.2 },
        ModelSpec::Shw { alpha: 0.3, beta: 0.1, gamma: 0.5, period: 2 },
        ModelSpec::Shw { alpha: 0.3, beta: 0.1, gamma: 0.5, period: 3 },
    ];
    for window in [1, 2, 5, 12, 13, 14] {
        specs.extend([ModelSpec::Ma { window }, ModelSpec::Sma { window }]);
    }
    for d in 0..=1 {
        for p in 0..=2 {
            for q in 0..=2 {
                let spec = ArimaSpec::new(d, &[0.5, -0.3][..p], &[0.4, 0.2][..q]).unwrap();
                specs.push(ModelSpec::Arima(spec));
            }
        }
    }
    specs
}

/// Cell `i`'s observation at interval `t`: a value with a fraction, and
/// now and then a signed zero, a subnormal, and late in the run ±inf.
fn observation(t: usize, i: usize, rng: &mut SplitMix64) -> f64 {
    let sign = if (t + i) % 2 == 0 { 1.0 } else { -1.0 };
    match (t + i) % 13 {
        3 => 0.0 * sign,
        5 => f64::from_bits(3 + t as u64) * sign,
        7 if t == 40 => f64::INFINITY,
        9 if t == 44 => f64::NEG_INFINITY,
        _ => (rng.next_below(2_000_001) as f64 - 1_000_000.0) / 1024.0,
    }
}

/// A model over a 768-cell sketch — past the first of the 512-cell blocks
/// a window model sums in — against 768 recursions, one per cell,
/// each started from the state its cell's scalar model reached in
/// warm-up (the reference path, which `blocked_identity.rs` holds).
#[test]
fn steady_steps_follow_the_recursion() {
    const WARM: usize = 16; // warm-up and ring fill of every spec above
    let proto = KarySketch::new(SketchConfig { h: 3, k: 256, seed: 0x2EC });
    let cells = proto.cells().len();
    for (n, spec) in specs().iter().enumerate() {
        let mut rng = SplitMix64::new(0x2EC0 + n as u64);
        let mut model = spec.build::<KarySketch>();
        let mut twins: Vec<_> = (0..cells).map(|_| spec.build::<f64>()).collect();
        let mut observed = proto.zero_like();
        let mut fill = |t: usize, observed: &mut KarySketch| {
            for (i, x) in observed.cells_mut().iter_mut().enumerate() {
                *x = observation(t, i, &mut rng);
            }
        };
        for t in 0..WARM {
            fill(t, &mut observed);
            model.observe(&observed);
            for (twin, &o) in twins.iter_mut().zip(observed.cells()) {
                twin.observe(&o);
            }
        }
        let mut states: Vec<_> = twins.iter().map(|twin| twin.state().clone()).collect();
        let (mut f, mut e) = (proto.zero_like(), proto.zero_like());
        for t in WARM..WARM + 32 {
            let what = format!("{} at interval {t}", spec.describe());
            fill(t, &mut observed);
            assert!(model.step_into(&observed, &mut f, &mut e), "{what}: warm");
            let snapshot = model.state().clone();
            for (i, state) in states.iter_mut().enumerate() {
                let o = observed.cells()[i];
                let want = reference_step(spec, state, o);
                assert_eq!(f.cells()[i].to_bits(), want.to_bits(), "{what}: Sf, cell {i}");
                assert_eq!(e.cells()[i].to_bits(), (o - want).to_bits(), "{what}: Se, cell {i}");
                let got = bits(&snapshot, |s: &KarySketch| s.cells()[i]);
                assert_eq!(got, bits(state, |&x| x), "{what}: state, cell {i}");
            }
        }
    }
}
