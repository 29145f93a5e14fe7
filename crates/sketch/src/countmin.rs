//! Count-Min sketch baseline (Cormode & Muthukrishnan).
//!
//! The paper positions the k-ary sketch against contemporaneous summary
//! structures; Count-Min is the standard cash-register-model comparator.
//! It shares the `H × K` table-of-hash-tables layout but estimates a key's
//! value as the **minimum** over rows, which (a) requires non-negative
//! updates and (b) is biased upward by collisions, in exchange for a
//! one-sided `ε·N` guarantee with only 2-universal hashing.
//!
//! It is included so the benchmark harness can compare point-query accuracy
//! and the (in)ability to summarize *forecast errors*: error streams are
//! signed, which Count-Min fundamentally cannot represent — one of the
//! reasons the paper designs the k-ary sketch instead.

use crate::batch::BatchScratch;
use crate::error::SketchError;
use crate::linear::min_over_rows;
use scd_hash::HashRows;
use std::sync::Arc;

/// Count-Min sketch over non-negative updates.
#[derive(Clone)]
pub struct CountMinSketch {
    rows: Arc<HashRows>,
    table: Vec<f64>,
}

impl CountMinSketch {
    /// Creates an empty Count-Min sketch with `h` rows of `k` buckets.
    pub fn new(h: usize, k: usize, seed: u64) -> Self {
        let rows = HashRows::shared(h, k, seed);
        let len = rows.h() * rows.k();
        CountMinSketch { rows, table: vec![0.0; len] }
    }

    /// Number of rows.
    pub fn h(&self) -> usize {
        self.rows.h()
    }

    /// Buckets per row.
    pub fn k(&self) -> usize {
        self.rows.k()
    }

    /// Adds `value` (must be ≥ 0) to `key`'s counters.
    ///
    /// # Panics
    /// Panics in debug builds on negative updates — Count-Min's minimum
    /// estimator is only valid in the cash-register model.
    #[inline]
    pub fn update(&mut self, key: u64, value: f64) {
        debug_assert!(value >= 0.0, "Count-Min requires non-negative updates");
        let k = self.k();
        for row in 0..self.h() {
            let bucket = self.rows.bucket(row, key);
            self.table[row * k + bucket] += value;
        }
    }

    /// Batched [`update`](Self::update): hash the whole block row-major,
    /// then scatter one `K`-sized counter row at a time. Bit-identical to
    /// the per-update loop (see [`crate::batch`]); same non-negativity
    /// requirement.
    pub fn update_batch(&mut self, items: &[(u64, f64)], scratch: &mut BatchScratch) {
        debug_assert!(
            items.iter().all(|&(_, v)| v >= 0.0),
            "Count-Min requires non-negative updates"
        );
        let h = self.h();
        let k = self.k();
        let (keys, buckets) = scratch.prepare(items, h);
        self.rows.buckets_batch(keys, buckets);
        let n = items.len();
        for row in 0..h {
            let row_cells = &mut self.table[row * k..(row + 1) * k];
            let row_buckets = &buckets[row * n..(row + 1) * n];
            for (&bucket, &(_, value)) in row_buckets.iter().zip(items) {
                row_cells[bucket] += value;
            }
        }
    }

    /// Point query: minimum over rows. Never underestimates (over
    /// non-negative streams); overestimates by colliding mass.
    pub fn estimate(&self, key: u64) -> f64 {
        let k = self.k();
        min_over_rows(self.h(), |row| self.table[row * k + self.rows.bucket(row, key)])
    }

    /// Total stream mass (row 0 sum).
    pub fn sum(&self) -> f64 {
        self.table[..self.k()].iter().sum()
    }

    /// The hash family backing this sketch.
    pub fn rows(&self) -> &Arc<HashRows> {
        &self.rows
    }

    /// Heap bytes of the counter table.
    pub fn memory_bytes(&self) -> usize {
        self.table.len() * std::mem::size_of::<f64>()
    }

    /// In-place `self += c · other` — the counter table is entry-wise
    /// linear even though the *estimator* (min over rows) is not.
    ///
    /// With `c < 0` the result leaves the cash-register model: the
    /// never-underestimates guarantee no longer holds, exactly as a raw
    /// negative [`CountMinSketch::update`] would break it. Aggregation
    /// (all-positive coefficients, e.g. archiving interval sketches) is the
    /// intended use.
    ///
    /// # Errors
    /// [`SketchError::IncompatibleSketches`] if the hash families differ.
    pub fn add_scaled(&mut self, other: &CountMinSketch, c: f64) -> Result<(), SketchError> {
        if self.rows.identity() != other.rows.identity() {
            return Err(SketchError::IncompatibleSketches {
                left: self.rows.identity(),
                right: other.rows.identity(),
            });
        }
        for (dst, src) in self.table.iter_mut().zip(&other.table) {
            *dst += c * src;
        }
        Ok(())
    }

    /// In-place `self *= c`.
    pub fn scale(&mut self, c: f64) {
        for cell in &mut self.table {
            *cell *= c;
        }
    }

    /// Resets every counter to zero, keeping the hash family.
    pub fn clear(&mut self) {
        self.table.fill(0.0);
    }

    /// Returns a zeroed sketch over the same hash family.
    pub fn zero_like(&self) -> CountMinSketch {
        CountMinSketch { rows: Arc::clone(&self.rows), table: vec![0.0; self.table.len()] }
    }
}

impl std::fmt::Debug for CountMinSketch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CountMinSketch").field("h", &self.h()).field("k", &self.k()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_underestimates() {
        let mut cm = CountMinSketch::new(4, 256, 1);
        let keys: Vec<u64> = (0..500).collect();
        for &key in &keys {
            cm.update(key, (key % 7 + 1) as f64);
        }
        for &key in &keys {
            let truth = (key % 7 + 1) as f64;
            assert!(cm.estimate(key) >= truth - 1e-12, "key {key}");
        }
    }

    #[test]
    fn exact_when_no_collisions() {
        let mut cm = CountMinSketch::new(4, 4096, 2);
        cm.update(1, 10.0);
        cm.update(2, 20.0);
        // With 2 keys in 4096 buckets a collision in *all* rows is
        // essentially impossible.
        assert!((cm.estimate(1) - 10.0).abs() < 1e-12);
        assert!((cm.estimate(2) - 20.0).abs() < 1e-12);
    }

    #[test]
    fn overestimate_bounded_by_epsilon_n() {
        // Classic guarantee with 2e/K width: err <= (e/K)*N w.h.p. Use a
        // loose empirical check: max error over keys < 4*N/K.
        let (h, k) = (5, 512);
        let mut cm = CountMinSketch::new(h, k, 3);
        let n_keys = 4000u64;
        let mut total = 0.0;
        for key in 0..n_keys {
            cm.update(key, 1.0);
            total += 1.0;
        }
        let bound = 4.0 * total / k as f64;
        for key in (0..n_keys).step_by(37) {
            let err = cm.estimate(key) - 1.0;
            assert!(err <= bound, "key {key}: error {err} > {bound}");
        }
    }

    #[test]
    fn sum_counts_total_mass() {
        let mut cm = CountMinSketch::new(3, 64, 4);
        cm.update(1, 5.0);
        cm.update(2, 7.0);
        assert!((cm.sum() - 12.0).abs() < 1e-12);
    }
}
