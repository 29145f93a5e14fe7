//! Group-testing ("deltoid") sketch: key recovery without a key stream.
//!
//! Plain sketches answer point queries but "do not contain information
//! about what keys have appeared in the input stream" (paper §3.3) — hence
//! the two-pass / next-interval workarounds. The paper's fourth option is
//! to "incorporate combinatorial group testing into sketches [Cormode &
//! Muthukrishnan, PODC 2003]. This allows one to directly infer keys from
//! the (modified) sketch data structure without requiring a separate
//! stream of keys … however, this scheme also increases the update and
//! estimation costs". This module implements that option so the tradeoff
//! can be measured rather than cited.
//!
//! Construction (the *deltoid* of Cormode–Muthukrishnan): each bucket
//! holds `1 + B` counters for `B`-bit keys — one **total** and one
//! per key-bit, counting only updates whose key has that bit set. All
//! counters are linear, so the structure COMBINEs exactly like the k-ary
//! sketch and the forecasting layer runs on it unchanged.
//!
//! **Recovery**: in a bucket dominated by a single large-change key `a`
//! with error mass `t`, bit counter `j` holds ≈ `t` when bit `j` of `a` is
//! set and ≈ 0 otherwise; reading each bit as `counter/total > 1/2`
//! reconstructs `a`. Candidates are validated by hashing back into the
//! bucket and by a median point-estimate across rows, which suppresses
//! buckets where collisions scrambled the bits. Keys whose |error| exceeds
//! the bucket noise are recovered with high probability as `H` grows —
//! without ever seeing the key stream.
//!
//! **Costs** versus the k-ary sketch (`B = 32`): ×33 memory and ×(popcount)
//! update work — exactly the "increased update and estimation costs" the
//! paper warns about; `benches/sketch_ops.rs` quantifies it.

use crate::batch::BatchScratch;
use crate::error::SketchError;
use crate::linear::median_over_rows;
use scd_hash::HashRows;
use std::collections::HashSet;
use std::sync::Arc;

/// Shape of a deltoid sketch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DeltoidConfig {
    /// Hash rows `H` (as in the k-ary sketch).
    pub h: usize,
    /// Buckets per row `K` (power of two).
    pub k: usize,
    /// Key width in bits, `1 ..= 64` (32 for IPv4 destination keys).
    pub key_bits: u32,
    /// Hash-family seed.
    pub seed: u64,
}

/// Group-testing sketch supporting direct recovery of heavy-change keys.
#[derive(Clone)]
pub struct Deltoid {
    rows: Arc<HashRows>,
    key_bits: u32,
    /// Row-major `[row][bucket][counter]`; counter 0 is the bucket total,
    /// counters `1..=key_bits` are the per-bit totals.
    table: Vec<f64>,
}

impl Deltoid {
    /// Creates an empty deltoid sketch.
    ///
    /// # Panics
    /// Panics if `key_bits` is 0 or exceeds 64, or `k` is not a power of
    /// two.
    pub fn new(config: DeltoidConfig) -> Self {
        Self::with_rows(HashRows::shared(config.h, config.k, config.seed), config.key_bits)
    }

    /// Creates an empty deltoid over the hash family `rows` — what a caller
    /// that already holds the family uses, skipping the registry lookup.
    ///
    /// # Panics
    /// Panics if `key_bits` is 0 or exceeds 64.
    pub fn with_rows(rows: Arc<HashRows>, key_bits: u32) -> Self {
        assert!((1..=64).contains(&key_bits), "key_bits must be in 1..=64, got {key_bits}");
        let len = rows.h() * rows.k() * (key_bits as usize + 1);
        Deltoid { rows, key_bits, table: vec![0.0; len] }
    }

    /// The hash family shared by this deltoid.
    pub fn rows(&self) -> &Arc<HashRows> {
        &self.rows
    }

    /// Number of rows `H`.
    pub fn h(&self) -> usize {
        self.rows.h()
    }

    /// Buckets per row `K`.
    pub fn k(&self) -> usize {
        self.rows.k()
    }

    /// Key width in bits.
    pub fn key_bits(&self) -> u32 {
        self.key_bits
    }

    /// Heap bytes of the counter table (×`key_bits + 1` the k-ary cost).
    pub fn memory_bytes(&self) -> usize {
        self.table.len() * std::mem::size_of::<f64>()
    }

    /// Stride of one bucket's counter group.
    #[inline]
    fn stride(&self) -> usize {
        self.key_bits as usize + 1
    }

    #[inline]
    fn bucket_base(&self, row: usize, bucket: usize) -> usize {
        (row * self.k() + bucket) * self.stride()
    }

    /// Masks a key to the configured width.
    #[inline]
    fn mask(&self, key: u64) -> u64 {
        if self.key_bits == 64 {
            key
        } else {
            key & ((1u64 << self.key_bits) - 1)
        }
    }

    /// UPDATE: `H · (1 + popcount(key))` counter additions.
    pub fn update(&mut self, key: u64, value: f64) {
        let key = self.mask(key);
        for row in 0..self.h() {
            let bucket = self.rows.bucket(row, key);
            let base = self.bucket_base(row, bucket);
            self.table[base] += value;
            let mut bits = key;
            while bits != 0 {
                let j = bits.trailing_zeros() as usize;
                self.table[base + 1 + j] += value;
                bits &= bits - 1;
            }
        }
    }

    /// UPDATE over a whole block of arrivals: bit-identical to calling
    /// [`update`](Self::update) for each item in order, but restructured
    /// like `KarySketch::update_batch` — every bucket is hashed first
    /// ([`HashRows::buckets_batch`], one pass per row over the tabulation
    /// tables), then each row's counter groups are scattered into in one
    /// pass. Keys are masked to the configured width *before* hashing,
    /// exactly as the serial path does, and within every counter values
    /// still accumulate in item order, so the table is bit-identical to
    /// the serial one. `scratch` is reused across calls; keep one per
    /// ingest thread.
    pub fn update_batch(&mut self, items: &[(u64, f64)], scratch: &mut BatchScratch) {
        let h = self.h();
        let k = self.k();
        let stride = self.stride();
        let bits_mask = if self.key_bits == 64 { u64::MAX } else { (1u64 << self.key_bits) - 1 };
        let (keys, buckets) = scratch.prepare_mapped(items, h, |key| key & bits_mask);
        self.rows.buckets_batch(keys, buckets);
        let n = items.len();
        for row in 0..h {
            let row_cells = &mut self.table[row * k * stride..(row + 1) * k * stride];
            let row_buckets = &buckets[row * n..(row + 1) * n];
            for ((&bucket, &key), &(_, value)) in row_buckets.iter().zip(keys).zip(items) {
                let base = bucket * stride;
                row_cells[base] += value;
                let mut bits = key;
                while bits != 0 {
                    let j = bits.trailing_zeros() as usize;
                    row_cells[base + 1 + j] += value;
                    bits &= bits - 1;
                }
            }
        }
    }

    /// Raw counter table (row-major `[row][bucket][counter]`, length
    /// `H·K·(key_bits+1)`). Exposed read-only for diagnostics and the
    /// bit-identity tests.
    pub fn table(&self) -> &[f64] {
        &self.table
    }

    /// The counter table, writable in place — the flat cell view the
    /// forecasting layer's blocked steps sweep. The shape is fixed.
    pub fn table_mut(&mut self) -> &mut [f64] {
        &mut self.table
    }

    /// Sum of bucket totals in row 0 (the stream total).
    pub fn sum(&self) -> f64 {
        let stride = self.stride();
        (0..self.k()).map(|b| self.table[b * stride]).sum()
    }

    /// Point estimate of `key`'s value: the k-ary formula over the bucket
    /// totals, median across rows.
    pub fn estimate(&self, key: u64) -> f64 {
        let key = self.mask(key);
        let k = self.k() as f64;
        let sum = self.sum();
        median_over_rows(self.h(), |row| {
            let bucket = self.rows.bucket(row, key);
            let t = self.table[self.bucket_base(row, bucket)];
            (t - sum / k) / (1.0 - 1.0 / k)
        })
    }

    /// Second-moment estimate from the bucket totals (same estimator as
    /// the k-ary sketch).
    pub fn estimate_f2(&self) -> f64 {
        let k = self.k() as f64;
        let sum = self.sum();
        let stride = self.stride();
        median_over_rows(self.h(), |row| {
            let sq: f64 = (0..self.k())
                .map(|b| {
                    let t = self.table[(row * self.k() + b) * stride];
                    t * t
                })
                .sum();
            (k / (k - 1.0)) * sq - (sum * sum) / (k - 1.0)
        })
    }

    /// In-place `self += c · other`.
    ///
    /// # Errors
    /// [`SketchError::IncompatibleSketches`] when shapes differ.
    pub fn add_scaled(&mut self, other: &Deltoid, c: f64) -> Result<(), SketchError> {
        self.check_family(other)?;
        for (dst, src) in self.table.iter_mut().zip(&other.table) {
            *dst += c * src;
        }
        Ok(())
    }

    /// `Ok` when `other` shares this deltoid's hash family and key width,
    /// so their counters line up.
    ///
    /// # Errors
    /// [`SketchError::IncompatibleSketches`] otherwise.
    pub fn check_family(&self, other: &Deltoid) -> Result<(), SketchError> {
        if self.rows.identity() != other.rows.identity() || self.key_bits != other.key_bits {
            return Err(SketchError::IncompatibleSketches {
                left: self.rows.identity(),
                right: other.rows.identity(),
            });
        }
        Ok(())
    }

    /// In-place `self *= c`.
    pub fn scale(&mut self, c: f64) {
        for cell in &mut self.table {
            *cell *= c;
        }
    }

    /// Returns a zeroed deltoid over the same family.
    pub fn zero_like(&self) -> Deltoid {
        Deltoid {
            rows: Arc::clone(&self.rows),
            key_bits: self.key_bits,
            table: vec![0.0; self.table.len()],
        }
    }

    /// Recovers candidate keys whose |value| in this sketch is at least
    /// `min_abs` — **without any key stream**. Each qualifying bucket
    /// proposes one key by bit-majority decoding; candidates must hash
    /// back into the proposing bucket and survive a cross-row estimate
    /// check. Returned keys are deduplicated and sorted by decreasing
    /// |estimate|.
    pub fn recover(&self, min_abs: f64) -> Vec<(u64, f64)> {
        assert!(min_abs > 0.0, "recovery threshold must be positive");
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        for row in 0..self.h() {
            for bucket in 0..self.k() {
                let base = self.bucket_base(row, bucket);
                let total = self.table[base];
                if total.abs() < min_abs {
                    continue;
                }
                // Bit-majority decode: bit j set iff counter_j is closer to
                // `total` than to 0 (ratio > 1/2). Works for either sign of
                // the dominant change because the ratio normalizes it away.
                let mut key = 0u64;
                for j in 0..self.key_bits as usize {
                    let ratio = self.table[base + 1 + j] / total;
                    if ratio > 0.5 {
                        key |= 1u64 << j;
                    }
                }
                // Validation 1: the decoded key must land in this bucket.
                if self.rows.bucket(row, key) != bucket {
                    continue;
                }
                // Validation 2: the cross-row median estimate must itself
                // clear the threshold (suppresses collision garbage).
                let est = self.estimate(key);
                if est.abs() < min_abs {
                    continue;
                }
                if seen.insert(key) {
                    out.push((key, est));
                }
            }
        }
        out.sort_by(|a, b| {
            b.1.abs().partial_cmp(&a.1.abs()).expect("finite estimates").then_with(|| a.0.cmp(&b.0))
        });
        out
    }
}

impl std::fmt::Debug for Deltoid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Deltoid")
            .field("h", &self.h())
            .field("k", &self.k())
            .field("key_bits", &self.key_bits)
            .field("memory_bytes", &self.memory_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> DeltoidConfig {
        DeltoidConfig { h: 5, k: 512, key_bits: 32, seed: 77 }
    }

    #[test]
    fn recovers_single_heavy_key() {
        let mut d = Deltoid::new(cfg());
        d.update(0xC0A8_0142, 50_000.0);
        for key in 0..200u64 {
            d.update(key * 7 + 1, 10.0); // background noise
        }
        let found = d.recover(10_000.0);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].0, 0xC0A8_0142);
        assert!((found[0].1 - 50_000.0).abs() < 2_000.0);
    }

    #[test]
    fn recovers_negative_changes() {
        let mut d = Deltoid::new(cfg());
        d.update(0x0A00_0001, -40_000.0); // an outage in an error sketch
        for key in 0..100u64 {
            d.update(key * 13 + 2, 5.0);
        }
        let found = d.recover(8_000.0);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].0, 0x0A00_0001);
        assert!(found[0].1 < -30_000.0);
    }

    #[test]
    fn recovers_multiple_heavy_keys() {
        let mut d = Deltoid::new(cfg());
        let heavies = [0x0101_0101u64, 0x0202_0202, 0x7F7F_7F7F, 0x4242_4242];
        for (i, &k) in heavies.iter().enumerate() {
            d.update(k, 100_000.0 * (i + 1) as f64);
        }
        for key in 0..300u64 {
            d.update(key * 31 + 3, 20.0);
        }
        let found = d.recover(50_000.0);
        let keys: HashSet<u64> = found.iter().map(|&(k, _)| k).collect();
        for &k in &heavies {
            assert!(keys.contains(&k), "missed {k:#x}; found {found:?}");
        }
        // Sorted by decreasing magnitude: the 4x key first.
        assert_eq!(found[0].0, 0x4242_4242);
    }

    #[test]
    fn no_false_keys_from_pure_noise() {
        let mut d = Deltoid::new(cfg());
        for key in 0..400u64 {
            d.update(key * 17 + 5, 25.0);
        }
        // Threshold far above any single key's mass.
        assert!(d.recover(5_000.0).is_empty());
    }

    #[test]
    fn linearity_matches_kary_semantics() {
        let mut a = Deltoid::new(cfg());
        let mut b = Deltoid::new(cfg());
        a.update(9, 100.0);
        b.update(9, 40.0);
        let mut err = a.clone();
        err.add_scaled(&b, -1.0).unwrap();
        assert!((err.estimate(9) - 60.0).abs() < 1.0);
    }

    #[test]
    fn estimate_and_f2_track_truth() {
        let mut d = Deltoid::new(cfg());
        let mut f2 = 0.0;
        for key in 0..150u64 {
            let v = (key % 11 + 1) as f64 * 10.0;
            d.update(key * 3 + 7, v);
            f2 += v * v;
        }
        let est = d.estimate_f2();
        assert!((est - f2).abs() < 0.2 * f2, "{est} vs {f2}");
    }

    #[test]
    fn incompatible_combination_rejected() {
        let mut a = Deltoid::new(cfg());
        let b = Deltoid::new(DeltoidConfig { seed: 78, ..cfg() });
        assert!(a.add_scaled(&b, 1.0).is_err());
    }

    #[test]
    fn memory_is_33x_kary() {
        let d = Deltoid::new(cfg());
        assert_eq!(d.memory_bytes(), 5 * 512 * 33 * 8);
    }

    #[test]
    fn key_mask_respected() {
        let mut d = Deltoid::new(DeltoidConfig { h: 3, k: 64, key_bits: 16, seed: 1 });
        // Keys differing only above bit 16 alias deliberately.
        d.update(0x0001_1234, 10.0);
        d.update(0x0002_1234, 10.0);
        assert!((d.estimate(0x1234) - 20.0).abs() < 1.0);
    }

    #[test]
    fn recovery_after_combine_of_interval_sketches() {
        // The detection use-case: So(t) - Sf(t) computed in deltoid space,
        // then recover the changed key from the difference.
        let c = cfg();
        let mut observed = Deltoid::new(c);
        let mut forecast = Deltoid::new(c);
        for key in 0..100u64 {
            observed.update(key + 1000, 100.0);
            forecast.update(key + 1000, 100.0); // perfectly forecast
        }
        observed.update(0xBEEF, 90_000.0); // the change
        forecast.update(0xBEEF, 1_000.0);
        let mut error = observed.clone();
        error.add_scaled(&forecast, -1.0).unwrap();
        let found = error.recover(20_000.0);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].0, 0xBEEF);
    }
}
