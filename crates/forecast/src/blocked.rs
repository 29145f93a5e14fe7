//! What the models' cache-blocked steps share.
//!
//! Every model is COMBINE over table-sized summaries (§3.2), so once a
//! table outgrows the cache a step costs what its *passes over memory*
//! cost. A whole-table operation per term — zero, add-scaled, add-scaled,
//! subtract, … — streams every table through the cache once per
//! operation. A blocked step instead walks the tables in tiles of
//! [`SWEEP_TILE`] cells and applies the model's whole per-cell operation
//! sequence to one tile before moving to the next: each live table is read
//! once and each written table written once, and the intermediates (a
//! forecast under construction, ARIMA's differenced lag, SHW's previous
//! level) are tile-sized and stay in L1.
//!
//! **Bit identity.** Every operation here is elementwise: the value a cell
//! ends up with depends on the operations applied to *that cell*, in
//! order, and on nothing else. Blocking changes which cell is processed
//! when; it never changes the operations one cell sees, and each of those
//! is the same [`scd_sketch::simd`] slice kernel the whole-table methods
//! call (no FMA, scalar and AVX2 variants identical — see that module).
//! So a blocked step is bit-identical to the allocating reference
//! (`forecast()`, `Se = So − Sf`, then the whole-table recursion), which
//! `tests/blocked_identity.rs` checks `to_bits()`-exactly for every model
//! over every summary type.

use crate::Summary;
use scd_sketch::simd::{self, Variant};
use std::ops::Range;

pub use scd_sketch::batch::{sweep_tiles, SWEEP_TILE};

/// The caller-owned outputs of one step, as cell views: `Sf(t)` and/or
/// `Se(t) = So(t) − Sf(t)`. A plain `observe` has neither.
pub(crate) struct Sinks<'a> {
    forecast: Option<&'a mut [f64]>,
    error: Option<&'a mut [f64]>,
}

impl<'a> Sinks<'a> {
    /// The sinks' cell views, each checked against `observed`'s family.
    pub fn new<S: Summary>(
        observed: &S,
        forecast_out: Option<&'a mut S>,
        error_out: Option<&'a mut S>,
    ) -> Self {
        let cells = |sink: Option<&'a mut S>| {
            sink.map(|s| {
                observed.check_family(s);
                s.cells_mut()
            })
        };
        Sinks { forecast: cells(forecast_out), error: cells(error_out) }
    }

    /// Whether anything was asked for — when not, a model that only
    /// *computes* its forecast (MA, SMA, SHW) can skip computing it.
    pub fn any(&self) -> bool {
        self.forecast.is_some() || self.error.is_some()
    }

    /// One tile of a model that holds its forecast as state: `forecast`
    /// (the state's tile, not yet advanced) is copied to the forecast sink
    /// and `observed − forecast` written to the error sink.
    pub fn emit(
        &mut self,
        variant: Variant,
        tile: Range<usize>,
        observed: &[f64],
        forecast: &[f64],
    ) {
        if let Some(f) = &mut self.forecast {
            f[tile.clone()].copy_from_slice(forecast);
        }
        if let Some(e) = &mut self.error {
            simd::sub(variant, &mut e[tile], observed, forecast);
        }
    }

    /// One tile of a model that computes its forecast: `build` fills it —
    /// in the forecast sink's own tile, or in `spare` when there is no
    /// such sink — and `observed − forecast` is written to the error sink.
    /// Returns the tile's forecast.
    pub fn build<'s>(
        &'s mut self,
        variant: Variant,
        tile: Range<usize>,
        observed: &[f64],
        spare: &'s mut [f64],
        build: impl FnOnce(&mut [f64]),
    ) -> &'s [f64] {
        let forecast = match &mut self.forecast {
            Some(f) => &mut f[tile.clone()],
            None => &mut spare[..tile.len()],
        };
        build(forecast);
        if let Some(e) = &mut self.error {
            simd::sub(variant, &mut e[tile], observed, forecast);
        }
        forecast
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
    observed.check_family(forecast);
    let cells = forecast.cells();
    Sinks::new(observed, forecast_out, error_out).emit(
        simd::active(),
        0..cells.len(),
        observed.cells(),
        cells,
    );
    true
}

/// The tile-sized intermediates of a model's blocked step. Sized on first
/// use, then recycled every interval; never part of a model's state.
#[derive(Debug, Clone, Default)]
pub(crate) struct TileScratch(Vec<f64>);

impl TileScratch {
    /// `N` buffers of one tile each, for a walk over `len` cells. Their
    /// contents are whatever the last step left: write before reading.
    pub fn buffers<const N: usize>(&mut self, len: usize) -> [&mut [f64]; N] {
        let tile = len.min(SWEEP_TILE);
        if self.0.len() < N * tile {
            self.0.resize(N * tile, 0.0);
        }
        let mut rest = self.0.as_mut_slice();
        std::array::from_fn(|_| {
            let (buffer, tail) = std::mem::take(&mut rest).split_at_mut(tile);
            rest = tail;
            buffer
        })
    }
}
