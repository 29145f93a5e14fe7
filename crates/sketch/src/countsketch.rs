//! Count sketch baseline (Charikar, Chen & Farach-Colton, ICALP 2002 — the
//! paper's reference \[11\]).
//!
//! The paper states the k-ary sketch "is similar to the count sketch …
//! however, the most common operations on k-ary sketch use simpler
//! operations and are more efficient". The count sketch keeps, per row, a
//! bucket hash `h_i` *and* a sign hash `s_i : [u] → {−1,+1}`; UPDATE adds
//! `s_i(a)·u` and ESTIMATE takes `median_i s_i(a)·T[i][h_i(a)]`. The sign
//! hash makes each row estimate unbiased *without* the `sum/K` correction
//! the k-ary sketch uses — at the cost of one extra hash evaluation per
//! row per update, which is exactly the overhead the paper's remark is
//! about. The `hash_ablation`/`sketch_ops` benches quantify it.
//!
//! Like the k-ary sketch (and unlike Count-Min), it supports signed
//! updates, so it *could* summarize forecast errors; it is retained as the
//! honest baseline for both accuracy and speed comparisons.

use crate::batch::BatchScratch;
use crate::error::SketchError;
use crate::linear::median_over_rows;
use scd_hash::{HashRows, Hasher4, SplitMix64};
use std::sync::Arc;

/// The Charikar et al. count sketch.
#[derive(Clone)]
pub struct CountSketch {
    rows: Arc<HashRows>,
    /// One independent sign hash per row.
    signs: Vec<Hasher4>,
    table: Vec<f64>,
}

impl CountSketch {
    /// Creates an empty count sketch with `h` rows of `k` buckets.
    pub fn new(h: usize, k: usize, seed: u64) -> Self {
        let rows = HashRows::shared(h, k, seed);
        let mut sm = SplitMix64::new(seed ^ 0x5163_4E00);
        let signs = (0..h).map(|_| Hasher4::new(sm.next_u64())).collect();
        let len = rows.h() * rows.k();
        CountSketch { rows, signs, table: vec![0.0; len] }
    }

    /// Number of rows.
    pub fn h(&self) -> usize {
        self.rows.h()
    }

    /// Buckets per row.
    pub fn k(&self) -> usize {
        self.rows.k()
    }

    #[inline]
    fn sign(&self, row: usize, key: u64) -> f64 {
        // Low bit of an independent 4-universal hash: a 4-wise independent
        // ±1 variable.
        if self.signs[row].hash64(key) & 1 == 0 {
            1.0
        } else {
            -1.0
        }
    }

    /// Adds `sign_i(key) · value` to each row's bucket. Signed updates are
    /// allowed (Turnstile model).
    #[inline]
    pub fn update(&mut self, key: u64, value: f64) {
        let k = self.k();
        for row in 0..self.h() {
            let bucket = self.rows.bucket(row, key);
            let s = self.sign(row, key);
            self.table[row * k + bucket] += s * value;
        }
    }

    /// Batched [`update`](Self::update). Buckets are precomputed row-major;
    /// the sign hash is evaluated inline during each row's scatter (the
    /// sign hasher's tables then stay cache-hot for the whole block, same
    /// argument as the bucket hashes). Bit-identical to the per-update
    /// loop (see [`crate::batch`]).
    pub fn update_batch(&mut self, items: &[(u64, f64)], scratch: &mut BatchScratch) {
        let h = self.h();
        let k = self.k();
        let (keys, buckets) = scratch.prepare(items, h);
        self.rows.buckets_batch(keys, buckets);
        let n = items.len();
        for row in 0..h {
            let sign_hash = &self.signs[row];
            let row_cells = &mut self.table[row * k..(row + 1) * k];
            let row_buckets = &buckets[row * n..(row + 1) * n];
            for (&bucket, &(key, value)) in row_buckets.iter().zip(items) {
                let s = if sign_hash.hash64(key) & 1 == 0 { 1.0 } else { -1.0 };
                row_cells[bucket] += s * value;
            }
        }
    }

    /// Point query: `median_i sign_i(key) · T[i][h_i(key)]`. Unbiased with
    /// variance ≤ `F2 / K` per row.
    pub fn estimate(&self, key: u64) -> f64 {
        let table = &self.table;
        self.estimate_cells(key, |cell| table[cell])
    }

    /// [`estimate`](Self::estimate) over a table of this family whose
    /// register `i·K + b` reads `cell(i·K + b)`.
    pub(crate) fn estimate_cells(&self, key: u64, cell: impl Fn(usize) -> f64) -> f64 {
        let k = self.k();
        median_over_rows(self.h(), |row| {
            self.sign(row, key) * cell(row * k + self.rows.bucket(row, key))
        })
    }

    /// Raw counter table (row-major, length `H·K`).
    pub fn table(&self) -> &[f64] {
        &self.table
    }

    /// The counter table, writable in place; the shape is fixed.
    pub fn table_mut(&mut self) -> &mut [f64] {
        &mut self.table
    }

    /// Second-moment estimate: `median_i Σ_j T[i][j]²` (the AMS estimator
    /// the count sketch rows embed).
    pub fn estimate_f2(&self) -> f64 {
        let k = self.k();
        median_over_rows(self.h(), |row| {
            self.table[row * k..(row + 1) * k].iter().map(|&x| x * x).sum()
        })
    }

    /// The hash family backing this sketch (sign hashes are derived
    /// deterministically from the same seed, so equal identities imply
    /// equal sign functions).
    pub fn rows(&self) -> &Arc<HashRows> {
        &self.rows
    }

    /// Heap bytes of the counter table.
    pub fn memory_bytes(&self) -> usize {
        self.table.len() * std::mem::size_of::<f64>()
    }

    /// In-place `self += c · other`. Every counter is a sum of
    /// `sign_i(a)·u` terms, so the table combines entry-wise exactly like
    /// the k-ary sketch's.
    ///
    /// # Errors
    /// [`SketchError::IncompatibleSketches`] if the hash families differ
    /// (the identity covers the sign hashes too — both are derived from
    /// the construction seed).
    pub fn add_scaled(&mut self, other: &CountSketch, c: f64) -> Result<(), SketchError> {
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

    /// Resets every counter to zero, keeping hash family and signs.
    pub fn clear(&mut self) {
        self.table.fill(0.0);
    }

    /// Returns a zeroed sketch sharing this one's hash family and sign
    /// hashes.
    pub fn zero_like(&self) -> CountSketch {
        CountSketch {
            rows: Arc::clone(&self.rows),
            signs: self.signs.clone(),
            table: vec![0.0; self.table.len()],
        }
    }
}

impl std::fmt::Debug for CountSketch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CountSketch").field("h", &self.h()).field("k", &self.k()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_key_exact() {
        let mut cs = CountSketch::new(5, 1024, 9);
        cs.update(42, 300.0);
        assert!((cs.estimate(42) - 300.0).abs() < 1e-9);
    }

    #[test]
    fn signed_updates_cancel() {
        let mut cs = CountSketch::new(5, 1024, 9);
        cs.update(7, 100.0);
        cs.update(7, -100.0);
        assert!(cs.estimate(7).abs() < 1e-9);
    }

    #[test]
    fn estimates_track_truth_with_noise() {
        let mut cs = CountSketch::new(9, 4096, 11);
        let mut f2 = 0.0;
        for key in 0..300u64 {
            let v = (key % 23 + 1) as f64;
            cs.update(key, v);
            f2 += v * v;
        }
        let noise = (f2 / 4096.0).sqrt();
        for key in 0..300u64 {
            let truth = (key % 23 + 1) as f64;
            let e = cs.estimate(key);
            assert!((e - truth).abs() < 6.0 * noise, "key {key}: {e} vs {truth}");
        }
    }

    #[test]
    fn f2_estimate_close() {
        let mut cs = CountSketch::new(9, 8192, 13);
        let mut f2 = 0.0;
        for key in 0..400u64 {
            let v = ((key * 31) % 51) as f64 + 1.0;
            cs.update(key, v);
            f2 += v * v;
        }
        let est = cs.estimate_f2();
        assert!((est - f2).abs() < 0.1 * f2, "{est} vs {f2}");
    }

    #[test]
    fn sign_is_deterministic_and_balanced() {
        let cs = CountSketch::new(1, 64, 17);
        let plus = (0..10_000u64).filter(|&k| cs.sign(0, k) > 0.0).count();
        assert!((4_600..=5_400).contains(&plus), "plus = {plus}");
        assert_eq!(cs.sign(0, 5), cs.sign(0, 5));
    }
}
