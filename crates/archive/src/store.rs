//! How an epoch holds its table: dense as pushed, or **packed** — its
//! written cells alone.
//!
//! A register of an error sketch that no key ever hashed to is `+0.0`,
//! and stays `+0.0` through every forecast step and every buddy merge
//! (COMBINE with coefficient 1 adds cell to cell). On a skewed stream
//! most of a table is such registers, so an epoch the archive no longer
//! holds as its newest is kept as the `(index, value)` pairs of the
//! registers whose bits are not `+0.0` — `−0.0`, NaN and ±inf included —
//! plus the scalars its reads need ([`CellTable::Totals`]), whenever that
//! takes at most half the dense bytes ([`pack_limit`]).
//!
//! Every read keeps the dense table's bits:
//!
//! * a point estimate reads an absent register as `+0.0`, which is what
//!   the dense table holds there;
//! * a range COMBINE adds packed cells into an accumulator that starts at
//!   `+0.0` ([`CellList::add_into`]). Such an accumulator never holds
//!   `−0.0` (`x + y` is `−0.0` only when both are), so adding an absent
//!   `+0.0` would change nothing and is skipped;
//! * a buddy merge of two packed tables ([`merge_cells`]) adds every
//!   register either side wrote, reading the other side as `+0.0`, and
//!   keeps each sum whose bits are not `+0.0` — so a `−0.0` on one side
//!   only becomes `+0.0`, as the dense add makes it;
//! * a merged table's row totals come from the dense expression
//!   ([`CellList::row_sum`]), never from a fold over the written cells
//!   alone: [`Iterator::sum`] on `f64` starts at `−0.0`, so a row of
//!   `+0.0`s sums to `+0.0` densely but to `−0.0` over no cells.

use scd_sketch::{Cell, CellTable};
use std::sync::Arc;

/// The written registers of a table, in index order: `values[i]` sits at
/// flat (row-major) register `index[i]`. Two arrays, not pairs, so an
/// `f64` cell costs 12 bytes and an `f32` one 8.
#[derive(Debug, Clone)]
pub(crate) struct CellList<C> {
    index: Vec<u32>,
    values: Vec<C>,
}

impl<C> Default for CellList<C> {
    fn default() -> Self {
        CellList { index: Vec::new(), values: Vec::new() }
    }
}

impl<C: Cell> CellList<C> {
    /// Written registers held.
    pub(crate) fn len(&self) -> usize {
        self.index.len()
    }

    /// Heap bytes of the cells held (not of spare capacity).
    pub(crate) fn bytes(&self) -> usize {
        self.index.len() * std::mem::size_of::<u32>() + self.values.len() * std::mem::size_of::<C>()
    }

    fn clear(&mut self) {
        self.index.clear();
        self.values.clear();
    }

    fn push(&mut self, cell: usize, value: C) {
        self.index.push(cell as u32);
        self.values.push(value);
    }

    /// Register `cell` of the dense table: its written value, or `+0.0`.
    pub(crate) fn get(&self, cell: usize) -> C {
        match self.index.binary_search(&(cell as u32)) {
            Ok(i) => self.values[i],
            Err(_) => C::ZERO,
        }
    }

    /// `dst += 1.0 · self` over the written registers alone — exact for a
    /// `dst` that holds no `−0.0`, such as a COMBINE accumulator started
    /// at `+0.0` (see the [module docs](self)).
    pub(crate) fn add_into(&self, dst: &mut [C]) {
        for (&cell, &value) in self.index.iter().zip(&self.values) {
            let d = &mut dst[cell as usize];
            *d = d.plus(value);
        }
    }

    /// Overwrites `dst` with the dense table.
    pub(crate) fn write_into(&self, dst: &mut [C]) {
        dst.fill(C::ZERO);
        for (&cell, &value) in self.index.iter().zip(&self.values) {
            dst[cell as usize] = value;
        }
    }

    /// `Σ_j T[row][j]` of the dense table, widened to `f64` and
    /// accumulated as [`Iterator::sum`] over all `k` registers of the row.
    /// Each run of absent registers adds one `+0.0`: adding `+0.0` twice
    /// is adding it once, bit for bit, and adding it at all is what turns
    /// a `−0.0` running total into `+0.0`.
    pub(crate) fn row_sum(&self, row: usize, k: usize) -> f64 {
        let (lo, hi) = ((row * k) as u64, ((row + 1) * k) as u64);
        let first = self.index.partition_point(|&c| u64::from(c) < lo);
        let last = self.index.partition_point(|&c| u64::from(c) < hi);
        let written = self.index[first..last].iter().zip(&self.values[first..last]);
        let mut next = lo;
        let total: f64 = written
            .flat_map(|(&cell, &value)| {
                let gap = u64::from(cell) > next;
                next = u64::from(cell) + 1;
                gap.then_some(0.0).into_iter().chain(Some(value.widen()))
            })
            .sum();
        let tail_gap = self.index[first..last].last().map_or(k > 0, |&c| u64::from(c) + 1 < hi);
        if tail_gap {
            total + 0.0
        } else {
            total
        }
    }
}

/// Most written registers a packed copy of an `n`-register table may
/// hold: packed bytes at most half the dense bytes. `None` when register
/// indices would not fit the `u32` a packed cell carries.
pub(crate) fn pack_limit<C: Cell>(n: usize) -> Option<usize> {
    let cell = std::mem::size_of::<C>();
    (n as u64 <= 1 << 32).then_some(n * cell / 2 / (std::mem::size_of::<u32>() + cell))
}

/// The pack routine: fills `out` with the registers of `cells` whose bits
/// are not `+0.0`, in index order — or returns `false`, `out` left empty,
/// when more than `limit` are written. One vectorised
/// sweep marks the written registers of each 64-cell block in `masks`
/// (scratch, resized here); only the marked ones are visited.
pub(crate) fn pack_cells<C: Cell>(
    cells: &[C],
    limit: usize,
    masks: &mut Vec<u64>,
    out: &mut CellList<C>,
) -> bool {
    out.clear();
    masks.resize(cells.len().div_ceil(64), 0);
    C::written_masks(cells, masks);
    let written: usize = masks.iter().map(|m| m.count_ones() as usize).sum();
    if written > limit {
        return false;
    }
    out.index.reserve(written);
    out.values.reserve(written);
    for (block, &mask) in masks.iter().enumerate() {
        let mut mask = mask;
        while mask != 0 {
            let cell = block * 64 + mask.trailing_zeros() as usize;
            out.push(cell, cells[cell]);
            mask &= mask - 1;
        }
    }
    true
}

/// The packed merge: `out = left + 1.0·right` over the registers either
/// side wrote, an absent register read as `+0.0`, keeping every sum whose
/// bits are not `+0.0`. Each sum is the dense add's own `l + r`, in that
/// operand order.
pub(crate) fn merge_cells<C: Cell>(left: &CellList<C>, right: &CellList<C>, out: &mut CellList<C>) {
    out.clear();
    let mut keep = |cell: u32, sum: C| {
        if !sum.is_unwritten() {
            out.index.push(cell);
            out.values.push(sum);
        }
    };
    let (li, lv, ri, rv) = (&left.index, &left.values, &right.index, &right.values);
    let (mut i, mut j) = (0, 0);
    while i < li.len() && j < ri.len() {
        if li[i] == ri[j] {
            keep(li[i], lv[i].plus(rv[j]));
            (i, j) = (i + 1, j + 1);
        } else if li[i] < ri[j] {
            keep(li[i], lv[i].plus(C::ZERO));
            i += 1;
        } else {
            keep(ri[j], C::ZERO.plus(rv[j]));
            j += 1;
        }
    }
    for (&cell, &l) in li[i..].iter().zip(&lv[i..]) {
        keep(cell, l.plus(C::ZERO));
    }
    for (&cell, &r) in ri[j..].iter().zip(&rv[j..]) {
        keep(cell, C::ZERO.plus(r));
    }
}

/// A packed table: its written registers and the scalars its reads take.
#[derive(Debug, Clone)]
pub struct Packed<L: CellTable> {
    pub(crate) cells: CellList<L::Cell>,
    pub(crate) totals: L::Totals,
}

impl<L: CellTable> Default for Packed<L> {
    fn default() -> Self {
        Packed { cells: CellList::default(), totals: L::Totals::default() }
    }
}

impl<L: CellTable> Packed<L> {
    /// Written registers held.
    pub fn written(&self) -> usize {
        self.cells.len()
    }

    /// The scalars the table's reads take (for the k-ary sketch, its
    /// stream total).
    pub fn totals(&self) -> &L::Totals {
        &self.totals
    }

    /// Writes the dense table into `blank` (any table of the family; every
    /// register and scalar is overwritten).
    pub(crate) fn unpack_into(&self, blank: &mut L) {
        self.cells.write_into(blank.cells_mut());
        blank.set_totals(&self.totals);
    }

    /// The table's point estimate for `key`, through `family`, any dense
    /// table of the same family.
    pub(crate) fn estimate(&self, family: &L, key: u64) -> f64 {
        family.estimate_from(key, &self.totals, |cell| self.cells.get(cell).widen())
    }
}

/// An epoch's table. Shared (`Arc`) when packed, so a snapshot of the
/// archive clones a packed epoch as a pointer bump.
#[derive(Debug, Clone)]
pub(crate) enum Table<L: CellTable> {
    Dense(L),
    Packed(Arc<Packed<L>>),
}

impl<L: CellTable> Table<L> {
    /// Heap bytes: the dense table's, or the packed cells'.
    pub(crate) fn bytes(&self) -> usize {
        match self {
            Table::Dense(sketch) => sketch.memory_bytes(),
            Table::Packed(packed) => packed.cells.bytes(),
        }
    }
}
