//! The register-cell surface a sketch archive stores epochs through.
//!
//! An archive keeps history as register tables, and most of an error
//! sketch's registers are exactly `+0.0`: a bucket no key hashed to stays
//! `+0.0` through every forecast step and every COMBINE with coefficient
//! one. [`CellTable`] is what an archive needs to keep such a table as its
//! written cells alone and still answer with the table's bits: the cells
//! themselves, the few scalars a read takes from the table besides them,
//! and the point estimate over cells stored elsewhere. The engine's `f64`
//! [`KarySketch`] and the [`CountSketch`] implement it here, the serving
//! plane's `f32` slim sketch in `scd-serve`.

use crate::countsketch::CountSketch;
use crate::kary::{estimate_cells, KarySketch};
use crate::linear::LinearSketch;
use crate::simd;

/// One register: `f64` or `f32`.
pub trait Cell: Copy + PartialEq + Send + Sync + std::fmt::Debug + 'static {
    /// `+0.0`, the value of a register nothing was ever added to.
    const ZERO: Self;

    /// Whether the bits are exactly `+0.0`'s (`−0.0` is a written cell).
    fn is_unwritten(self) -> bool;

    /// `self + other` — one register of `add_scaled(other, 1.0)`, whose
    /// product `1.0 · other` is `other` exactly.
    fn plus(self, other: Self) -> Self;

    /// The register as `f64` (exact for both types).
    fn widen(self) -> f64;

    /// `masks[b]` bit `i` set ⇔ register `64·b + i` of `cells` is written:
    /// the pack sweep, through the [`simd`] kernel for the type.
    fn written_masks(cells: &[Self], masks: &mut [u64]);
}

impl Cell for f64 {
    const ZERO: f64 = 0.0;

    #[inline]
    fn is_unwritten(self) -> bool {
        self.to_bits() == 0
    }

    #[inline]
    fn plus(self, other: f64) -> f64 {
        self + other
    }

    #[inline]
    fn widen(self) -> f64 {
        self
    }

    fn written_masks(cells: &[f64], masks: &mut [u64]) {
        simd::written_masks(simd::active(), cells, masks);
    }
}

impl Cell for f32 {
    const ZERO: f32 = 0.0;

    #[inline]
    fn is_unwritten(self) -> bool {
        self.to_bits() == 0
    }

    #[inline]
    fn plus(self, other: f32) -> f32 {
        self + other
    }

    #[inline]
    fn widen(self) -> f64 {
        f64::from(self)
    }

    fn written_masks(cells: &[f32], masks: &mut [u64]) {
        simd::written_masks_f32(simd::active(), cells, masks);
    }
}

/// A [`LinearSketch`] whose register table an archive may hold as its
/// written cells: the element type supplies cell access, its read scalars
/// ([`Totals`](CellTable::Totals)) and its estimator; the archive owns
/// the one pack routine and the one packed merge.
pub trait CellTable: LinearSketch {
    /// The register type.
    type Cell: Cell;

    /// What a read takes from the table besides its cells, kept beside a
    /// packed copy so no read rescans one.
    type Totals: Clone + Default + Send + Sync + std::fmt::Debug + 'static;

    /// The row-major `H × K` registers.
    fn cells(&self) -> &[Self::Cell];

    /// The registers, writable; the shape is fixed.
    fn cells_mut(&mut self) -> &mut [Self::Cell];

    /// This table's scalars, as its own reads compute them.
    fn totals(&self) -> Self::Totals;

    /// Installs `totals` on a table whose registers were just overwritten
    /// with those of the table `totals` came from.
    fn set_totals(&mut self, totals: &Self::Totals);

    /// The scalar half of `self.add_scaled(other, 1.0)` for an `other`
    /// whose registers the caller adds itself.
    fn absorb_totals(&mut self, other: &Self::Totals);

    /// The scalars of `left + 1.0·right`. `row_sum(i)` is `Σ_j` of row `i`
    /// of the merged table, accumulated as [`Iterator::sum`] over its `K`
    /// registers widened to `f64` — the dense expression, absent cells
    /// included.
    fn merged_totals(
        left: &Self::Totals,
        right: &Self::Totals,
        row_sum: impl Fn(usize) -> f64,
    ) -> Self::Totals;

    /// The point estimate for `key` of a table of this sketch's family
    /// whose register `i` is `cell(i)` and whose scalars are `totals` —
    /// the bits this sketch's own estimate gives when the table is its own.
    fn estimate_from(&self, key: u64, totals: &Self::Totals, cell: impl Fn(usize) -> f64) -> f64;
}

/// The fat sketch reads one scalar besides its cells: the stream total,
/// row 0's [`sum`](KarySketch::sum), which it recomputes from the table.
impl CellTable for KarySketch {
    type Cell = f64;
    type Totals = f64;

    fn cells(&self) -> &[f64] {
        self.table()
    }

    fn cells_mut(&mut self) -> &mut [f64] {
        self.table_mut()
    }

    fn totals(&self) -> f64 {
        self.sum()
    }

    fn set_totals(&mut self, _: &f64) {}

    fn absorb_totals(&mut self, _: &f64) {}

    fn merged_totals(_: &f64, _: &f64, row_sum: impl Fn(usize) -> f64) -> f64 {
        row_sum(0)
    }

    fn estimate_from(&self, key: u64, sum: &f64, cell: impl Fn(usize) -> f64) -> f64 {
        estimate_cells(self.rows(), key, *sum, cell)
    }
}

/// The count sketch's estimate reads its cells and sign hashes alone.
impl CellTable for CountSketch {
    type Cell = f64;
    type Totals = ();

    fn cells(&self) -> &[f64] {
        self.table()
    }

    fn cells_mut(&mut self) -> &mut [f64] {
        self.table_mut()
    }

    fn totals(&self) {}

    fn set_totals(&mut self, _: &()) {}

    fn absorb_totals(&mut self, _: &()) {}

    fn merged_totals(_: &(), _: &(), _: impl Fn(usize) -> f64) {}

    fn estimate_from(&self, key: u64, _: &(), cell: impl Fn(usize) -> f64) -> f64 {
        self.estimate_cells(key, cell)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_positive_zero_is_unwritten() {
        assert!(0.0f64.is_unwritten() && 0.0f32.is_unwritten());
        for v in [-0.0f64, 5e-324, f64::NAN, f64::NEG_INFINITY, 1.0] {
            assert!(!v.is_unwritten(), "{v}");
        }
        for v in [-0.0f32, 1e-45, f32::NAN, f32::INFINITY, -1.0] {
            assert!(!v.is_unwritten(), "{v}");
        }
    }

    /// An absent register reads as `+0.0`, and adding it is not a no-op
    /// on `−0.0`: the packed merge must add it, never skip it.
    #[test]
    fn adding_an_absent_cell_clears_negative_zero() {
        assert!((-0.0f64).plus(f64::ZERO).is_unwritten());
        assert!(f64::ZERO.plus(-0.0).is_unwritten());
        assert!(!(-0.0f64).plus(-0.0).is_unwritten());
        assert!((-0.0f32).plus(f32::ZERO).is_unwritten());
    }
}
