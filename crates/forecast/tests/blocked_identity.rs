//! The fused step is the reference recurrence, bit for bit.
//!
//! Every model steps through one kernel (`Forecaster::step_with`): its
//! per-cell function, walked once over its tables by
//! `blocked::step_cells`. This suite holds that kernel to two oracles,
//! comparing `to_bits()`, never `==`:
//!
//! * **the reference on the same summary type** — `forecast()` (whole-table
//!   `Summary` operations, allocating), `Se = So − Sf`, then `observe()` —
//!   against a second model that takes `observe`, `step_into` and
//!   `step_error_into` steps in a random interleaving: same outputs, same
//!   `state()` after every step, outputs untouched when there is
//!   no forecast yet;
//! * **one scalar model per cell** — every operation of every model is
//!   elementwise, so a model over an `n`-cell table must equal `n`
//!   independent `f64` models, each fed its own cell's series. A scalar
//!   model is a one-cell table: no offset, no tail, and its arithmetic is
//!   pinned by the hand-computed unit tests next to each model. Whatever
//!   a walk over many cells could get wrong — a cell written at the wrong
//!   offset, a ring slot overwritten before it was read, a tail skipped —
//!   shows up as one cell disagreeing with its scalar twin.
//!
//! Both oracles advance their state through the same per-cell function as
//! the step under test; `recurrence.rs` holds that state update to the
//! recursion written out independently.
//!
//! Runs start at the first observation, so warm-up and ring-fill intervals
//! (the reference path inside `step_with`) are covered along with at least
//! three windows of steady state. Table lengths straddle `SWEEP_TILE`, the
//! boundary a tiled walk would get wrong: below one, exactly one, three
//! tiles and seven cells. Cells carry ±0.0, subnormals, ±inf, NaN and
//! values that overflow. The workspace test run under `SCD_SIMD=scalar`
//! repeats all of it.

use scd_forecast::blocked::SWEEP_TILE;
use scd_forecast::{ArimaSpec, Forecaster, ModelSpec, ModelState, Summary};
use scd_hash::SplitMix64;
use scd_sketch::{Deltoid, DeltoidConfig, KarySketch, SketchConfig};
use std::hint::black_box;

/// A bare table of any length: the summary type that can be *exactly*
/// three tiles and seven cells long (a sketch's length is `H · K`).
#[derive(Debug, Clone)]
struct Flat(Vec<f64>);

impl Summary for Flat {
    fn zero_like(&self) -> Self {
        Flat(vec![0.0; self.0.len()])
    }

    fn scale(&mut self, c: f64) {
        for x in &mut self.0 {
            *x *= c;
        }
    }

    fn add_scaled(&mut self, other: &Self, c: f64) {
        self.check_family(other);
        for (x, y) in self.0.iter_mut().zip(&other.0) {
            *x += c * y;
        }
    }

    fn cells(&self) -> &[f64] {
        &self.0
    }

    fn cells_mut(&mut self) -> &mut [f64] {
        &mut self.0
    }

    fn check_family(&self, other: &Self) {
        assert_eq!(self.0.len(), other.0.len(), "tables of different lengths");
    }
}

type Model<S> = Forecaster<S>;

/// All seven model kinds: MA / SMA windows 1, 2, 5; EWMA (its two
/// degenerate constants included); NSHW; SHW periods 2 and 3; every ARIMA
/// shape (p, d, q) ∈ {0,1,2} × {0,1} × {0,1,2}.
fn specs() -> Vec<ModelSpec> {
    let mut specs = Vec::new();
    for window in [1, 2, 5] {
        specs.push(ModelSpec::Ma { window });
        specs.push(ModelSpec::Sma { window });
    }
    for alpha in [0.3, 0.0, 1.0] {
        specs.push(ModelSpec::Ewma { alpha });
    }
    specs.push(ModelSpec::Nshw { alpha: 0.6, beta: 0.2 });
    for period in [2, 3] {
        specs.push(ModelSpec::Shw { alpha: 0.3, beta: 0.1, gamma: 0.5, period });
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

/// Steps per run: warm-up and ring fill (at most 5 intervals for these
/// specs) and then at least three times the longest window.
const STEPS: usize = 5 + 3 * 5 + 2;

/// The one NaN this platform's arithmetic produces (`inf − inf`). Injected
/// NaNs use the same bits, so which operand's payload an instruction
/// forwards — the one thing IEEE 754 leaves open — cannot matter.
fn nan() -> f64 {
    black_box(f64::INFINITY) - black_box(f64::INFINITY)
}

/// Fills one interval's observation: ordinary values with a fraction
/// everywhere, and at a few fixed cells — both ends, the middle, either
/// side of the first tile boundary — the values floating point treats
/// specially, arriving at different intervals.
fn fill(cells: &mut [f64], t: usize, rng: &mut SplitMix64) {
    for x in cells.iter_mut() {
        *x = (rng.next_below(2_000_001) as f64 - 1_000_000.0) / 1024.0;
    }
    let n = cells.len();
    let from_end = |back: usize| n.wrapping_sub(back);
    let spots =
        [0, 1, 2, 3, n / 2, SWEEP_TILE - 1, SWEEP_TILE, from_end(3), from_end(2), from_end(1)];
    for (kind, &spot) in spots.iter().enumerate().filter(|(_, &spot)| spot < n) {
        let sign = if t % 2 == 0 { 1.0 } else { -1.0 };
        match kind % 6 {
            0 => cells[spot] = 0.0 * sign,
            1 => cells[spot] = f64::from_bits(1 + t as u64) * sign,
            2 if t == 7 => cells[spot] = f64::INFINITY,
            3 if t == 9 => cells[spot] = f64::NEG_INFINITY,
            4 if t % 8 == 6 => cells[spot] = nan(),
            5 => cells[spot] = 1.0e308 * sign,
            _ => {}
        }
    }
}

/// Every summary a state holds, in one fixed order, and its plain numbers.
fn flatten<S>(state: &ModelState<S>) -> (Vec<&S>, Vec<u64>) {
    match state {
        ModelState::Ma { history } | ModelState::Sma { history } => {
            (history.iter().collect(), vec![])
        }
        ModelState::Ewma { forecast } => (forecast.iter().collect(), vec![]),
        ModelState::Nshw { first, state } => {
            let mut parts: Vec<&S> = first.iter().collect();
            if let Some(p) = state {
                parts.extend([&p.level, &p.trend, &p.forecast]);
            }
            (parts, vec![u64::from(first.is_some())])
        }
        ModelState::Arima { x_hist, e_hist, observed_count } => {
            (x_hist.iter().chain(e_hist).collect(), vec![x_hist.len() as u64, *observed_count])
        }
        ModelState::Shw { init, state } => {
            let mut parts: Vec<&S> = init.iter().collect();
            let mut numbers = vec![init.len() as u64];
            if let Some(p) = state {
                parts.extend([&p.level, &p.trend]);
                parts.extend(&p.season);
                numbers.push(p.phase as u64);
            }
            (parts, numbers)
        }
    }
}

fn bits(cells: &[f64]) -> Vec<u64> {
    cells.iter().map(|x| x.to_bits()).collect()
}

fn assert_same_state<S: Summary>(what: &str, got: &ModelState<S>, want: &ModelState<S>) {
    let ((got, got_numbers), (want, want_numbers)) = (flatten(got), flatten(want));
    assert_eq!(got_numbers, want_numbers, "{what}: state shape");
    assert_eq!(got.len(), want.len(), "{what}: summaries held");
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(bits(g.cells()), bits(w.cells()), "{what}: state summary {i}");
    }
}

/// Checks cell `i` of every summary in `state` against the scalar model
/// that was fed cell `i`'s series.
fn assert_cell_state<S: Summary>(what: &str, state: &ModelState<S>, twins: &[Model<f64>]) {
    let (parts, numbers) = flatten(state);
    for (i, twin) in twins.iter().enumerate() {
        let twin_state = twin.state().clone();
        let (twin_parts, twin_numbers) = flatten(&twin_state);
        assert_eq!(numbers, twin_numbers, "{what}: state shape vs the scalar model of cell {i}");
        assert_eq!(parts.len(), twin_parts.len(), "{what}: summaries held, cell {i}");
        for (j, (part, scalar)) in parts.iter().zip(&twin_parts).enumerate() {
            assert_eq!(
                part.cells()[i].to_bits(),
                scalar.to_bits(),
                "{what}: cell {i} of state summary {j} vs its scalar model"
            );
        }
    }
}

/// A value no arithmetic in a run produces: an untouched output still
/// holds it in every cell.
const SENTINEL: f64 = 12_345.678_9;

fn sentinel_like<S: Summary>(proto: &S) -> S {
    let mut s = proto.zero_like();
    s.cells_mut().fill(SENTINEL);
    s
}

fn assert_untouched<S: Summary>(what: &str, output: &S) {
    assert!(output.cells().iter().all(|x| x.to_bits() == SENTINEL.to_bits()), "{what}");
}

/// One model spec over one summary shape, against both oracles.
fn check<S: Summary + Send + 'static>(spec: &ModelSpec, proto: &S, seed: u64) {
    let what = format!("{} over {} cells", spec.describe(), proto.cells().len());
    let mut rng = SplitMix64::new(seed);
    let mut reference: Model<S> = spec.build();
    let mut blocked: Model<S> = spec.build();
    let mut twins: Vec<Model<f64>> = proto.cells().iter().map(|_| spec.build()).collect();
    for t in 0..STEPS {
        let what = format!("{what}, interval {t}");
        let mut observed = proto.zero_like();
        fill(observed.cells_mut(), t, &mut rng);

        // The reference: forecast(), Se = So − Sf, observe().
        let forecast = reference.forecast();
        let error = forecast.as_ref().map(|f| S::sub(&observed, f));
        reference.observe(&observed);
        assert_eq!(forecast.is_some(), t >= reference.warm_up(), "{what}: warm-up contract");

        // The blocked step, in whichever form this interval draws.
        let (mut forecast_out, mut error_out) = (sentinel_like(proto), sentinel_like(proto));
        let form = rng.next_below(3);
        let stepped = match form {
            0 => {
                blocked.observe(&observed);
                forecast.is_some()
            }
            1 => blocked.step_error_into(&observed, &mut error_out),
            _ => blocked.step_into(&observed, &mut forecast_out, &mut error_out),
        };
        assert_eq!(stepped, forecast.is_some(), "{what}: step's return value");
        match (&forecast, &error) {
            (Some(f), Some(e)) if form == 2 => {
                assert_eq!(bits(forecast_out.cells()), bits(f.cells()), "{what}: Sf");
                assert_eq!(bits(error_out.cells()), bits(e.cells()), "{what}: Se (step_into)");
            }
            (Some(_), Some(e)) if form == 1 => {
                assert_untouched(&format!("{what}: error-only step wrote Sf"), &forecast_out);
                assert_eq!(bits(error_out.cells()), bits(e.cells()), "{what}: Se (error-only)");
            }
            _ => {
                assert_untouched(&format!("{what}: Sf written without a forecast"), &forecast_out);
                assert_untouched(&format!("{what}: Se written without a forecast"), &error_out);
            }
        }
        let state = blocked.state().clone();
        assert_same_state(&what, &state, reference.state());

        // One scalar model per cell.
        for (i, twin) in twins.iter_mut().enumerate() {
            let stepped = twin.step(&observed.cells()[i]);
            assert_eq!(stepped.is_some(), forecast.is_some(), "{what}: cell {i} warm-up");
            if let (Some((f, e)), Some(table_f), Some(table_e)) = (stepped, &forecast, &error) {
                assert_eq!(f.to_bits(), table_f.cells()[i].to_bits(), "{what}: Sf, cell {i}");
                assert_eq!(e.to_bits(), table_e.cells()[i].to_bits(), "{what}: Se, cell {i}");
            }
        }
        assert_cell_state(&what, &state, &twins);
    }
}

#[test]
fn blocked_step_equals_reference_on_tables_around_the_tile() {
    for len in [37, SWEEP_TILE, 3 * SWEEP_TILE + 7] {
        for (i, spec) in specs().iter().enumerate() {
            check(spec, &Flat(vec![0.0; len]), 0xB10C + i as u64);
        }
    }
}

#[test]
fn blocked_step_equals_reference_on_scalars() {
    for (i, spec) in specs().iter().enumerate() {
        check(spec, &0.0f64, 0x5CA1 + i as u64);
    }
}

#[test]
fn blocked_step_equals_reference_on_kary_sketches() {
    // 768 cells (below a tile), 1,024 (exactly one), 2,560 (two and a half).
    for (h, k) in [(3, 256), (1, 1024), (5, 512)] {
        let proto = KarySketch::new(SketchConfig { h, k, seed: 0xB10C });
        for (i, spec) in specs().iter().enumerate() {
            check(spec, &proto, 0x4A47 + i as u64);
        }
    }
}

#[test]
fn blocked_step_equals_reference_on_deltoids() {
    // 144 cells, 1,024 (exactly one tile), 1,728 (one tile and 704).
    for (h, k, key_bits) in [(1, 16, 8), (2, 64, 7), (3, 64, 8)] {
        let proto = Deltoid::new(DeltoidConfig { h, k, key_bits, seed: 0xB10C });
        assert_eq!(proto.cells().len(), h * k * (key_bits as usize + 1));
        for (i, spec) in specs().iter().enumerate() {
            check(spec, &proto, 0xDE17 + i as u64);
        }
    }
}

/// Which operand of a steady-state step comes from the wrong family.
enum Foreign {
    Observed,
    ForecastOut,
    ErrorOut,
}

/// Warms a sketch model into its steady state, then takes one step with
/// one operand built over a different hash family.
fn step_with_a_foreign_operand(spec: &str, foreign: Foreign) {
    let ours = KarySketch::new(SketchConfig { h: 3, k: 256, seed: 1 });
    let theirs = KarySketch::new(SketchConfig { h: 3, k: 256, seed: 2 });
    let mut model: Model<KarySketch> = ModelSpec::parse(spec).unwrap().build();
    for _ in 0..8 {
        model.observe(&ours);
    }
    let (mut forecast_out, mut error_out) = (ours.zero_like(), ours.zero_like());
    match foreign {
        Foreign::Observed => model.observe(&theirs),
        Foreign::ForecastOut => {
            model.step_into(&ours, &mut theirs.zero_like(), &mut error_out);
        }
        Foreign::ErrorOut => {
            model.step_into(&ours, &mut forecast_out, &mut theirs.zero_like());
        }
    }
}

#[test]
#[should_panic(expected = "forecaster fed sketches from different hash families")]
fn ma_rejects_a_foreign_observation() {
    step_with_a_foreign_operand("ma:3", Foreign::Observed);
}

#[test]
#[should_panic(expected = "forecaster fed sketches from different hash families")]
fn sma_rejects_a_foreign_forecast_buffer() {
    step_with_a_foreign_operand("sma:3", Foreign::ForecastOut);
}

#[test]
#[should_panic(expected = "forecaster fed sketches from different hash families")]
fn ewma_rejects_a_foreign_error_buffer() {
    step_with_a_foreign_operand("ewma:0.5", Foreign::ErrorOut);
}

#[test]
#[should_panic(expected = "forecaster fed sketches from different hash families")]
fn nshw_rejects_a_foreign_observation() {
    step_with_a_foreign_operand("nshw:0.6:0.2", Foreign::Observed);
}

#[test]
#[should_panic(expected = "forecaster fed sketches from different hash families")]
fn arima0_rejects_a_foreign_error_buffer() {
    step_with_a_foreign_operand("arima0:0.7,-0.1/0.3", Foreign::ErrorOut);
}

#[test]
#[should_panic(expected = "forecaster fed sketches from different hash families")]
fn arima1_rejects_a_foreign_observation() {
    step_with_a_foreign_operand("arima1:0.5,0.2/0.3", Foreign::Observed);
}

#[test]
#[should_panic(expected = "forecaster fed sketches from different hash families")]
fn shw_rejects_a_foreign_forecast_buffer() {
    step_with_a_foreign_operand("shw:0.3:0.1:0.5:3", Foreign::ForecastOut);
}

#[test]
#[should_panic(expected = "forecaster fed deltoids from different hash families")]
fn a_deltoid_model_rejects_a_foreign_observation() {
    let ours = Deltoid::new(DeltoidConfig { h: 1, k: 16, key_bits: 8, seed: 1 });
    let theirs = Deltoid::new(DeltoidConfig { h: 1, k: 16, key_bits: 8, seed: 2 });
    let mut model: Model<Deltoid> = ModelSpec::parse("arima1:0.5/0.3").unwrap().build();
    for _ in 0..8 {
        model.observe(&ours);
    }
    model.observe(&theirs);
}
