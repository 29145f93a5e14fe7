//! [`SharedSketch`] — a copy-on-write [`LinearSketch`] adapter.
//!
//! The serving plane keeps its own replica of the detector's error-sketch
//! archive and publishes an immutable snapshot of it at every interval
//! close. Cloning a `SketchArchive<KarySketch>` copies every register
//! table — `O(window · H · K)` bytes per interval, all of it thrown away
//! when the next snapshot supersedes it. Wrapping the element type in
//! `SharedSketch` makes those snapshots cheap: a clone is an `Arc` bump
//! per epoch, and the tables are only deep-copied when the *writer*
//! mutates one it still shares with a published view
//! ([`Arc::make_mut`]) — which happens only on the archive's occasional
//! dyadic buddy merges, not per interval.
//!
//! The adapter is arithmetic-transparent: every operation forwards to the
//! inner sketch's `f64` implementation, so an archive of
//! `SharedSketch<L>` holds bit-identical register state to an archive of
//! `L` fed the same pushes — the property the soak test leans on when it
//! diffs served answers against offline `scd query`.

use scd_sketch::{CellTable, LinearSketch, PointEstimate, SecondMoment, SketchError};
use std::sync::Arc;

/// A [`LinearSketch`] behind an [`Arc`] with copy-on-write mutation. See
/// the [module docs](self).
#[derive(Debug, Clone)]
pub struct SharedSketch<L>(Arc<L>);

impl<L> SharedSketch<L> {
    /// Wraps a sketch; no copy.
    pub fn new(sketch: L) -> SharedSketch<L> {
        SharedSketch(Arc::new(sketch))
    }

    /// Adopts an existing handle; no copy. Lets the serving plane push
    /// the *same* slim allocation into the archive that the live view
    /// serves point queries from — one table, two readers.
    pub fn from_arc(sketch: Arc<L>) -> SharedSketch<L> {
        SharedSketch(sketch)
    }

    /// Read access to the inner sketch.
    pub fn get(&self) -> &L {
        &self.0
    }
}

impl<L: PointEstimate> PointEstimate for SharedSketch<L> {
    fn estimate(&self, key: u64) -> f64 {
        self.0.estimate(key)
    }

    fn estimate_many(&self, keys: &[u64], out: &mut Vec<f64>) {
        self.0.estimate_many(keys, out);
    }
}

impl<L: SecondMoment> SecondMoment for SharedSketch<L> {
    fn estimate_f2(&self) -> f64 {
        self.0.estimate_f2()
    }
}

impl<L: LinearSketch> LinearSketch for SharedSketch<L> {
    fn zero_like(&self) -> Self {
        SharedSketch::new(self.0.zero_like())
    }

    fn add_scaled(&mut self, other: &Self, c: f64) -> Result<(), SketchError> {
        Arc::make_mut(&mut self.0).add_scaled(&other.0, c)
    }

    fn scale(&mut self, c: f64) {
        Arc::make_mut(&mut self.0).scale(c);
    }

    fn identity(&self) -> (usize, usize, u64) {
        self.0.identity()
    }

    fn memory_bytes(&self) -> usize {
        self.0.memory_bytes()
    }
}

/// Reads forward; writes go through [`Arc::make_mut`], like every other
/// mutation.
impl<L: CellTable> CellTable for SharedSketch<L> {
    type Cell = L::Cell;
    type Totals = L::Totals;

    fn cells(&self) -> &[L::Cell] {
        self.0.cells()
    }

    fn cells_mut(&mut self) -> &mut [L::Cell] {
        Arc::make_mut(&mut self.0).cells_mut()
    }

    fn totals(&self) -> L::Totals {
        self.0.totals()
    }

    fn set_totals(&mut self, totals: &L::Totals) {
        Arc::make_mut(&mut self.0).set_totals(totals);
    }

    fn absorb_totals(&mut self, other: &L::Totals) {
        Arc::make_mut(&mut self.0).absorb_totals(other);
    }

    fn merged_totals(
        left: &L::Totals,
        right: &L::Totals,
        row_sum: impl Fn(usize) -> f64,
    ) -> L::Totals {
        L::merged_totals(left, right, row_sum)
    }

    fn estimate_from(&self, key: u64, totals: &L::Totals, cell: impl Fn(usize) -> f64) -> f64 {
        self.0.estimate_from(key, totals, cell)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scd_sketch::{KarySketch, SketchConfig};

    fn sketch(shift: u64) -> KarySketch {
        let mut s = KarySketch::new(SketchConfig { h: 3, k: 256, seed: 42 });
        for key in 0..50u64 {
            s.update(key, (key + 1 + shift) as f64);
        }
        s
    }

    /// Clones share storage until a write; writes never disturb clones.
    #[test]
    fn clone_is_shallow_and_write_detaches() {
        let mut a = SharedSketch::new(sketch(3));
        let snapshot = a.clone();
        assert!(Arc::strong_count(&a.0) > 1);
        let before = snapshot.estimate(7);
        let delta = SharedSketch::new(sketch(3));
        a.add_scaled(&delta, 1.0).unwrap();
        // The writer detached; the snapshot still reads the old state.
        assert_eq!((Arc::strong_count(&snapshot.0), Arc::strong_count(&a.0)), (1, 1));
        assert_eq!(snapshot.estimate(7).to_bits(), before.to_bits());
        assert_eq!(a.estimate(7).to_bits(), (2.0 * before).to_bits());
    }

    /// The adapter is arithmetic-transparent: the same combination on
    /// wrapped and bare sketches yields bit-identical registers.
    #[test]
    fn combination_matches_bare_sketch_exactly() {
        let (a, b) = (sketch(4), sketch(5));
        let bare = <KarySketch as LinearSketch>::combine(&[(1.0, &a), (-0.5, &b)]).unwrap();
        let wrapped =
            SharedSketch::combine(&[(1.0, &SharedSketch::new(a)), (-0.5, &SharedSketch::new(b))])
                .unwrap();
        assert_eq!(wrapped.get().table(), bare.table());
        assert_eq!(wrapped.estimate_f2().to_bits(), bare.estimate_f2().to_bits());
        assert_eq!(wrapped.identity(), bare.identity());
        assert_eq!(wrapped.memory_bytes(), bare.memory_bytes());
    }

    /// `scale` through `Arc::make_mut` leaves earlier snapshots intact.
    #[test]
    fn scale_preserves_snapshots() {
        let mut a = SharedSketch::new(sketch(6));
        let snapshot = a.clone();
        a.scale(0.5);
        assert_eq!(snapshot.estimate(3).to_bits(), (2.0 * a.estimate(3)).to_bits());
    }
}
