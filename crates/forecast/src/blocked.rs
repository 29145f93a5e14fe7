//! The one steady-state step every model runs: `step_cells`.
//!
//! Every model is COMBINE over table-sized summaries (§3.2), and every
//! operation of its recurrence is elementwise: the value a cell ends up
//! with depends on the operations applied to *that cell*, in order, and on
//! nothing else. So a model states its steady-state step once, as scalar
//! code over one cell's values, and `step_cells` walks the observation,
//! the model's state tables and the optional `Sf`/`Se` sinks once, in
//! lockstep, calling it for each cell. Each table is read once and each
//! written table written once, and the intermediates (a forecast under
//! construction, ARIMA's differenced lag, SHW's previous level) never
//! leave registers: the step costs one pass over memory, not one per
//! operation or one L1 pass per operation per tile. A window model (MA,
//! SMA), whose ring has no fixed size, is the one exception: block by
//! block, it sums the forecasts slot after slot into `Sf` or an L1
//! buffer, then walks the block through `walk` with them as its one read.
//!
//! **Bit identity.** A model's cell function applies, to one cell, exactly
//! the operation sequence its whole-table reference (`forecast()`,
//! `Se = So − Sf`, the recurrence) applies to every cell, in the same
//! order and with the same operands: multiply and add stay separate
//! operations (Rust never contracts them into an FMA, and this crate
//! enables no target feature), so each rounds exactly as the reference's
//! does. The walk changes which cell is computed when, never what one cell
//! sees. `tests/blocked_identity.rs` checks it `to_bits()`-exactly for
//! every model over every summary type, against the reference and against
//! one scalar model per cell; `tests/recurrence.rs` holds the state each
//! step leaves to the recursion written out in plain `f64`.

use crate::Summary;

/// The tile of the sketch's own sweeps (COMBINE, the shard merge). The
/// forecast step walks untiled but for a window model's blocks, which
/// divide a tile; the identity tests size tables around a tile, the
/// boundary a blocked walk would get wrong.
pub use scd_sketch::batch::SWEEP_TILE;

/// One steady-state step: for every cell `i`, `cell(So[i], reads[·][i],
/// writes[·][i])` returns the cell's forecast `Sf(t)[i]` and leaves the
/// state's new values in `writes`; `Sf` goes to `forecast_out` and
/// `Se = So − Sf` to `error_out`, each only if given. `reads` are the
/// state tables the step only reads, `writes` the ones it rewrites (a
/// smoothed level, ARIMA's evicted lag slot); each operand's family is
/// checked once, before any cell is touched.
///
/// # Panics
/// For sketch summaries, panics if an operand was built over a different
/// hash family than `observed`.
pub(crate) fn step_cells<S: Summary, const R: usize, const W: usize>(
    observed: &S,
    reads: [&S; R],
    writes: [&mut S; W],
    forecast_out: Option<&mut S>,
    error_out: Option<&mut S>,
    cell: impl Fn(f64, [f64; R], &mut [f64; W]) -> f64,
) {
    let operands = writes.iter().map(|s| &**s).chain(forecast_out.as_deref());
    for s in reads.iter().copied().chain(operands).chain(error_out.as_deref()) {
        observed.check_family(s);
    }
    let (reads, writes) = (reads.map(|s| s.cells()), writes.map(|s| s.cells_mut()));
    let forecast_out = forecast_out.map(|s| s.cells_mut());
    walk(observed.cells(), reads, writes, forecast_out, error_out.map(|s| s.cells_mut()), &cell);
}

/// `step_cells` over operands whose families are checked: every cell of
/// `obs` against the same cell of each operand. A window model (MA, SMA)
/// walks its tables block by block through it.
pub(crate) fn walk<const R: usize, const W: usize>(
    obs: &[f64],
    reads: [&[f64]; R],
    writes: [&mut [f64]; W],
    forecast_out: Option<&mut [f64]>,
    error_out: Option<&mut [f64]>,
    cell: &impl Fn(f64, [f64; R], &mut [f64; W]) -> f64,
) {
    // Every operand cut to `obs.len()` here, so the loops check no bound.
    let len = obs.len();
    let (reads, mut writes) = (reads.map(|s| &s[..len]), writes.map(|s| &mut s[..len]));
    let forecast_out = forecast_out.map(|s| &mut s[..len]);
    // One walk per choice of sinks, so the loop never asks which it has.
    match (forecast_out, error_out.map(|s| &mut s[..len])) {
        (None, None) => lockstep(obs, reads, &mut writes, cell, |_, _, _| {}),
        (Some(sf), None) => lockstep(obs, reads, &mut writes, cell, |i, _, f| sf[i] = f),
        (None, Some(se)) => lockstep(obs, reads, &mut writes, cell, |i, o, f| se[i] = o - f),
        (Some(sf), Some(se)) => lockstep(obs, reads, &mut writes, cell, |i, o, f| {
            sf[i] = f;
            se[i] = o - f;
        }),
    }
}

/// The walk itself, every operand already `obs.len()` cells long.
#[inline(always)]
fn lockstep<const R: usize, const W: usize>(
    obs: &[f64],
    reads: [&[f64]; R],
    writes: &mut [&mut [f64]; W],
    cell: &impl Fn(f64, [f64; R], &mut [f64; W]) -> f64,
    mut emit: impl FnMut(usize, f64, f64),
) {
    for (i, &o) in obs.iter().enumerate() {
        // Plain loops over constant bounds, which LLVM unrolls into
        // registers; `array::map` / `from_fn` here stopped being unrolled
        // past five tables (a step over six ran 5× slower).
        let (mut r, mut state) = ([0.0; R], [0.0; W]);
        for k in 0..R {
            r[k] = reads[k][i];
        }
        for k in 0..W {
            state[k] = writes[k][i];
        }
        let f = cell(o, r, &mut state);
        for k in 0..W {
            writes[k][i] = state[k];
        }
        emit(i, o, f);
    }
}

/// A step off the steady state (warm-up, a ring still filling) takes the
/// allocating reference path; this writes its `forecast` — the model's
/// `forecast()` — and `Se = So − Sf` to whichever sinks were asked for.
/// Returns whether there was a forecast; without one the sinks are left
/// untouched.
pub(crate) fn emit_reference<S: Summary>(
    forecast: Option<&S>,
    observed: &S,
    forecast_out: Option<&mut S>,
    error_out: Option<&mut S>,
) -> bool {
    let Some(forecast) = forecast else { return false };
    step_cells(observed, [forecast], [], forecast_out, error_out, |_, [f], []| f);
    true
}
