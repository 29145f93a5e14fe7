//! The k-ary sketch data structure (paper §3.1).
//!
//! An `H × K` table of registers. Each row `i` has its own 4-universal
//! hash `h_i : [u] → [K]`; "we can view the data structure as an array of
//! hash tables". Four operations are defined:
//!
//! * **UPDATE(S, a, u)**: for each row `i`, `T[i][h_i(a)] += u`.
//! * **ESTIMATE(S, a)**: `median_i (T[i][h_i(a)] − sum/K) / (1 − 1/K)`,
//!   where `sum = Σ_j T[0][j]` is the stream total. Each per-row value is
//!   an unbiased estimator of `v_a` with variance ≤ `F2/(K−1)`
//!   (Appendix A); the median avoids the extreme rows.
//! * **ESTIMATEF2(S)**: `median_i [ K/(K−1) · Σ_j T[i][j]² − sum²/(K−1) ]`,
//!   an unbiased estimator of the second moment (Appendix B).
//! * **COMBINE(c1,S1,…,cl,Sl)**: entry-wise linear combination — the
//!   property that lets forecasting models run in sketch space.
//!
//! Registers are `f64`: the change-detection pipeline combines sketches
//! with fractional coefficients (EWMA's `α`, Holt-Winters' `β`, ARIMA
//! coefficients), so integer cells would not survive COMBINE. Linearity is
//! then *exact per cell* up to floating-point rounding, a fact the
//! forecasting layer's property tests rely on.

use crate::batch::{estimate_tiles, sweep_tiles, BatchScratch, EstimateScratch};
use crate::error::SketchError;
use crate::linear::median_over_rows;
use crate::simd;
use scd_hash::HashRows;
use std::borrow::BorrowMut;
use std::sync::Arc;

/// Shape and seeding of a k-ary sketch.
///
/// Sketches are only combinable when **all three fields are equal** — the
/// hash rows must agree for cell-wise arithmetic to be meaningful.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SketchConfig {
    /// Number of hash rows `H`. The paper evaluates `H ∈ {1, 5, 9, 25}`
    /// (odd, so the median is a single element, and small, because update
    /// cost is proportional to `H`).
    pub h: usize,
    /// Buckets per row `K`; must be a power of two. The paper evaluates
    /// `K` from 1024 ("the lower bound we quickly zoomed in on") to 65536
    /// (the analytic upper bound for its target error).
    pub k: usize,
    /// Seed for the 4-universal hash family.
    pub seed: u64,
}

impl SketchConfig {
    /// The configuration used for most accuracy results in the paper
    /// (§5.2: "with K = 32K, the similarity is over 0.95 even for large N").
    pub fn paper_default() -> Self {
        SketchConfig { h: 5, k: 32_768, seed: 0x5CD_2003 }
    }
}

/// The k-ary sketch: a constant-memory linear summary of a keyed update
/// stream. See the [module docs](self) for the operation definitions.
#[derive(Clone)]
pub struct KarySketch {
    rows: Arc<HashRows>,
    /// Row-major `H × K` register table.
    table: Vec<f64>,
}

impl KarySketch {
    /// Creates an empty sketch over the process's hash family for `config`
    /// ([`HashRows::shared`]): every sketch of one configuration shares one
    /// set of tabulation tables.
    pub fn new(config: SketchConfig) -> Self {
        Self::with_rows(HashRows::shared(config.h, config.k, config.seed))
    }

    /// Creates an empty sketch over the hash family `rows` — what a caller
    /// that already holds the family uses, skipping the registry lookup.
    pub fn with_rows(rows: Arc<HashRows>) -> Self {
        let len = rows.h() * rows.k();
        KarySketch { rows, table: vec![0.0; len] }
    }

    /// The hash family shared by this sketch.
    pub fn rows(&self) -> &Arc<HashRows> {
        &self.rows
    }

    /// Number of hash rows `H`.
    #[inline]
    pub fn h(&self) -> usize {
        self.rows.h()
    }

    /// Number of buckets per row `K`.
    #[inline]
    pub fn k(&self) -> usize {
        self.rows.k()
    }

    /// Raw register table (row-major, length `H·K`). Exposed read-only for
    /// diagnostics and serialization.
    pub fn table(&self) -> &[f64] {
        &self.table
    }

    /// The register table, writable in place — the flat cell view the
    /// forecasting layer's blocked steps sweep. The shape is fixed: cells
    /// can be rewritten, never added or removed.
    pub fn table_mut(&mut self) -> &mut [f64] {
        &mut self.table
    }

    /// Heap bytes used by the register table (the "constant, small amount
    /// of memory" the paper claims: `H·K·8` bytes, e.g. 1.25 MiB at
    /// `H=5, K=32768`).
    pub fn memory_bytes(&self) -> usize {
        self.table.len() * std::mem::size_of::<f64>()
    }

    /// **UPDATE(S, a, u)** — folds one arrival into the sketch: `H` hash
    /// evaluations and `H` adds.
    #[inline]
    pub fn update(&mut self, key: u64, value: f64) {
        let k = self.k();
        for row in 0..self.h() {
            let bucket = self.rows.bucket(row, key);
            self.table[row * k + bucket] += value;
        }
    }

    /// **UPDATE** over a whole block of arrivals: bit-identical to calling
    /// [`update`](Self::update) for each item in order, but restructured
    /// for cache locality — all buckets are hashed first
    /// ([`HashRows::buckets_batch`], one pass per row over the tabulation
    /// tables), then each `K`-sized register row is scattered into in one
    /// pass. Within every cell, values still accumulate in item order, so
    /// the floating-point result is exactly the serial one (see
    /// [`crate::batch`]). `scratch` is reused across calls; keep one per
    /// ingest thread.
    pub fn update_batch(&mut self, items: &[(u64, f64)], scratch: &mut BatchScratch) {
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

    /// Sum of all registers in row 0 — the stream total `Σ_a v_a` (every
    /// row holds the same total; the paper reads it from one row).
    pub fn sum(&self) -> f64 {
        self.table[..self.k()].iter().sum()
    }

    /// **ESTIMATE(S, a)** — unbiased estimate of the value of `key`.
    ///
    /// Recomputes `sum(S)` on each call; when estimating many keys against
    /// a fixed sketch (the change-detection inner loop), use
    /// [`estimator`](Self::estimator), which snapshots the sum once, as the
    /// paper prescribes ("which only needs to be computed once before any
    /// ESTIMATE(S, a) is called").
    pub fn estimate(&self, key: u64) -> f64 {
        self.estimator().estimate(key)
    }

    /// Snapshots `sum(S)` and returns a borrowing estimator for repeated
    /// point queries.
    pub fn estimator(&self) -> Estimator<'_> {
        Estimator { sketch: self, sum: self.sum() }
    }

    /// **ESTIMATE** over a whole block of keys: fills `out` with one
    /// estimate per key, bit-identical to calling
    /// [`Estimator::estimate`] for each key in order, through the tiled
    /// batch estimator ([`Estimator::estimate_tiles`]).
    ///
    /// `sum(S)` is snapshotted once, as the paper prescribes. `out` is
    /// cleared first; keep it (and `scratch`) across intervals and the
    /// scan allocates nothing in steady state.
    pub fn estimate_batch(&self, keys: &[u64], scratch: &mut EstimateScratch, out: &mut Vec<f64>) {
        out.clear();
        if keys.is_empty() {
            return;
        }
        out.reserve(keys.len());
        self.estimator().estimate_tiles(keys, scratch, |_, estimates| {
            out.extend_from_slice(estimates);
        });
    }

    /// **ESTIMATEF2(S)** — unbiased estimate of the second moment
    /// `F2 = Σ_a v_a²`.
    ///
    /// Each row's `Σ x²` (and row 0's `Σ x`) is one serial chain of
    /// dependent adds — floating-point addition does not reassociate, so
    /// a chain cannot be split without changing its bits, and run alone it
    /// pays the adder's full latency per cell. The chains of *different*
    /// rows are independent, so up to eight rows advance together,
    /// one column at a time: every chain still adds its own row's cells in
    /// column order (the same bits as one row after another), and the
    /// adder pipelines them.
    pub fn estimate_f2(&self) -> f64 {
        let (h, k) = (self.h(), self.k());
        let kf = k as f64;
        // Rows per group: as even as `H` splits into groups of at most
        // `F2_CHAINS` (5 → 5, 9 → 5 + 4, 25 → 7 + 6 + 6 + 6).
        let per = h.div_ceil(h.div_ceil(F2_CHAINS));
        let (mut sum, mut group) = (0.0, [0.0; F2_CHAINS]);
        // `median_over_rows` asks for the rows in order, so a group's
        // moments are computed when its first row comes up.
        median_over_rows(h, |row| {
            if row % per == 0 {
                let rows = &self.table[row * k..(row + per).min(h) * k];
                let first_row_sum = square_sums(rows, k, &mut group);
                if row == 0 {
                    sum = first_row_sum;
                }
            }
            (kf / (kf - 1.0)) * group[row % per] - (sum * sum) / (kf - 1.0)
        })
    }

    /// The L2 norm `sqrt(max(F2est, 0))` — the paper's "total energy" for
    /// one interval. Negative F2 estimates (possible for near-empty
    /// sketches since the estimator is unbiased, not nonnegative) clamp to
    /// zero.
    pub fn l2_norm(&self) -> f64 {
        self.estimate_f2().max(0.0).sqrt()
    }

    /// **COMBINE(c1,S1,…,cl,Sl)** — returns `Σ_i c_i · S_i`.
    ///
    /// All sketches (including `self`, which only supplies the hash family)
    /// must share identical hash rows.
    ///
    /// # Errors
    /// [`SketchError::IncompatibleSketches`] on any identity mismatch and
    /// [`SketchError::EmptyCombination`] for an empty term list.
    pub fn combine(&self, terms: &[(f64, &KarySketch)]) -> Result<KarySketch, SketchError> {
        if terms.is_empty() {
            return Err(SketchError::EmptyCombination);
        }
        let mut out = KarySketch::with_rows(Arc::clone(&self.rows));
        for &(c, s) in terms {
            out.add_scaled(s, c)?;
        }
        Ok(out)
    }

    /// In-place `self += c · other`.
    ///
    /// # Errors
    /// [`SketchError::IncompatibleSketches`] if the hash families differ.
    pub fn add_scaled(&mut self, other: &KarySketch, c: f64) -> Result<(), SketchError> {
        self.check_family(other)?;
        simd::add_scaled(simd::active(), &mut self.table, &other.table, c);
        Ok(())
    }

    /// In-place `self *= c`.
    pub fn scale(&mut self, c: f64) {
        simd::scale(simd::active(), &mut self.table, c);
    }

    /// In-place assignment `self ← src`: overwrites the register table
    /// without allocating (the recycled-buffer analogue of `clone`).
    ///
    /// # Errors
    /// [`SketchError::IncompatibleSketches`] if the hash families differ.
    pub fn assign_from(&mut self, src: &KarySketch) -> Result<(), SketchError> {
        self.check_family(src)?;
        self.table.copy_from_slice(&src.table);
        Ok(())
    }

    /// In-place `self ← c · src` in one sweep — bit-identical to
    /// [`assign_from`](Self::assign_from) followed by
    /// [`scale`](Self::scale) (each cell performs the same single
    /// multiplication).
    ///
    /// # Errors
    /// [`SketchError::IncompatibleSketches`] if the hash families differ.
    pub fn scale_assign(&mut self, src: &KarySketch, c: f64) -> Result<(), SketchError> {
        self.check_family(src)?;
        simd::scale_assign(simd::active(), &mut self.table, &src.table, c);
        Ok(())
    }

    /// **COMBINE** into a caller-recycled table: `self ← Σ_i c_i · S_i` in
    /// a single sweep over the output (every cell accumulates its terms in
    /// term order starting from zero — the same floating-point sequence as
    /// the allocating [`combine`](Self::combine), so the result is
    /// bit-identical).
    ///
    /// `self`'s previous contents are overwritten; `self` may not appear
    /// among the terms.
    ///
    /// # Errors
    /// [`SketchError::IncompatibleSketches`] on any identity mismatch and
    /// [`SketchError::EmptyCombination`] for an empty term list.
    pub fn combine_into(&mut self, terms: &[(f64, &KarySketch)]) -> Result<(), SketchError> {
        if terms.is_empty() {
            return Err(SketchError::EmptyCombination);
        }
        for &(_, s) in terms {
            self.check_family(s)?;
        }
        let variant = simd::active();
        for tile in sweep_tiles(self.table.len()) {
            let dst = &mut self.table[tile.clone()];
            dst.fill(0.0);
            for &(c, s) in terms {
                simd::add_scaled(variant, dst, &s.table[tile.clone()], c);
            }
        }
        Ok(())
    }

    /// The shard merge as one sweep: `self ← shards[0]`, then
    /// `self += 1.0 · shards[i]` in slice order — per cell exactly the
    /// sequence of [`assign_from`](Self::assign_from) followed by
    /// [`add_scaled`](Self::add_scaled)`(·, 1.0)` per further shard, so
    /// the merged table is bit-identical to theirs — and every shard is
    /// left all-zero, each of its tiles cleared while the merge still has
    /// it in cache instead of by a second pass over the table.
    ///
    /// The shards may be anything that lends its sketch out — a table that
    /// carries bookkeeping of its own beside the cells, say.
    ///
    /// # Errors
    /// [`SketchError::IncompatibleSketches`] on any identity mismatch and
    /// [`SketchError::EmptyCombination`] for an empty shard list; `self`
    /// and the shards are untouched on error.
    pub fn merge_draining<S: BorrowMut<KarySketch>>(
        &mut self,
        shards: &mut [S],
    ) -> Result<(), SketchError> {
        for s in shards.iter() {
            self.check_family(s.borrow())?;
        }
        let Some((first, rest)) = shards.split_first_mut() else {
            return Err(SketchError::EmptyCombination);
        };
        let first = first.borrow_mut();
        let variant = simd::active();
        for tile in sweep_tiles(self.table.len()) {
            let dst = &mut self.table[tile.clone()];
            let src = &mut first.table[tile.clone()];
            dst.copy_from_slice(src);
            src.fill(0.0);
            for s in rest.iter_mut() {
                let src = &mut s.borrow_mut().table[tile.clone()];
                simd::add_scaled(variant, dst, src, 1.0);
                src.fill(0.0);
            }
        }
        Ok(())
    }

    /// In-place difference `self ← a − b`. Bit-identical to cloning `a`
    /// and calling [`add_scaled`](Self::add_scaled)`(b, -1.0)`: IEEE-754
    /// defines `x − y` as `x + (−y)` and `(−1)·y` as the exact negation
    /// of `y`, so the error sketch `Se = So − Sf` built this way matches
    /// the allocating path bit for bit.
    ///
    /// # Errors
    /// [`SketchError::IncompatibleSketches`] if any hash family differs.
    pub fn sub_into(&mut self, a: &KarySketch, b: &KarySketch) -> Result<(), SketchError> {
        self.check_family(a)?;
        self.check_family(b)?;
        simd::sub(simd::active(), &mut self.table, &a.table, &b.table);
        Ok(())
    }

    /// The identity check every in-place kernel starts with: `Ok` when
    /// `other` shares this sketch's hash family, so their cells line up.
    ///
    /// # Errors
    /// [`SketchError::IncompatibleSketches`] if the hash families differ.
    #[inline]
    pub fn check_family(&self, other: &KarySketch) -> Result<(), SketchError> {
        if self.rows.identity() != other.rows.identity() {
            return Err(SketchError::IncompatibleSketches {
                left: self.rows.identity(),
                right: other.rows.identity(),
            });
        }
        Ok(())
    }

    /// Resets every register to zero, keeping the hash family.
    pub fn clear(&mut self) {
        self.table.fill(0.0);
    }

    /// Returns a zeroed sketch over the same hash family.
    pub fn zero_like(&self) -> KarySketch {
        KarySketch::with_rows(Arc::clone(&self.rows))
    }

    /// Replaces the register table wholesale (deserialization path).
    ///
    /// # Panics
    /// Panics if the length differs from `H·K`.
    pub(crate) fn load_table(&mut self, table: Vec<f64>) {
        assert_eq!(table.len(), self.table.len(), "table shape mismatch");
        self.table = table;
    }
}

/// Most rows whose moment chains [`KarySketch::estimate_f2`] advances
/// together: enough independent adds in flight to hide the adder's
/// latency, few enough that every accumulator stays in a register.
const F2_CHAINS: usize = 8;

/// `Σ x²` of each `k`-cell row of `rows` (at most [`F2_CHAINS`] of them)
/// into `out`, and the plain `Σ x` of the first row as the return value —
/// every sum accumulated in column order from `0.0`, all advancing one
/// column at a time.
fn square_sums(rows: &[f64], k: usize, out: &mut [f64; F2_CHAINS]) -> f64 {
    fn chains<const G: usize>(rows: &[f64], k: usize, out: &mut [f64; F2_CHAINS]) -> f64 {
        let rows: [&[f64]; G] = std::array::from_fn(|g| &rows[g * k..(g + 1) * k]);
        let (mut sum, mut sq) = (0.0, [0.0; G]);
        for (col, &x) in rows[0].iter().enumerate() {
            sum += x;
            for (sq, row) in sq.iter_mut().zip(&rows) {
                let v = row[col];
                *sq += v * v;
            }
        }
        out[..G].copy_from_slice(&sq);
        sum
    }
    match rows.len() / k {
        1 => chains::<1>(rows, k, out),
        2 => chains::<2>(rows, k, out),
        3 => chains::<3>(rows, k, out),
        4 => chains::<4>(rows, k, out),
        5 => chains::<5>(rows, k, out),
        6 => chains::<6>(rows, k, out),
        7 => chains::<7>(rows, k, out),
        8 => chains::<8>(rows, k, out),
        n => unreachable!("{n} rows in a group of at most {F2_CHAINS}"),
    }
}

impl std::fmt::Debug for KarySketch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KarySketch")
            .field("h", &self.h())
            .field("k", &self.k())
            .field("sum", &self.sum())
            .finish()
    }
}

/// **ESTIMATE** over any store of a `rows`-shaped table:
/// `median_i (T[i][h_i(key)] − sum/K) / (1 − 1/K)`, where `cell(i·K + b)`
/// reads register `T[i][b]` widened to `f64`. The one definition of the
/// estimator: the fat sketch's [`Estimator`], the serving plane's slim
/// sketch and an archive's packed epochs all read through it, so a table
/// answers with the same bits whichever way it is stored.
#[inline]
pub fn estimate_cells(rows: &HashRows, key: u64, sum: f64, cell: impl Fn(usize) -> f64) -> f64 {
    let k = rows.k() as f64;
    let kk = rows.k();
    median_over_rows(rows.h(), |row| {
        (cell(row * kk + rows.bucket(row, key)) - sum / k) / (1.0 - 1.0 / k)
    })
}

/// Point-query handle with the stream total precomputed (paper §3.1:
/// `sum(S)` "only needs to be computed once before any ESTIMATE is
/// called").
pub struct Estimator<'a> {
    sketch: &'a KarySketch,
    sum: f64,
}

impl Estimator<'_> {
    /// Unbiased estimate of the value associated with `key`:
    /// `median_i (T[i][h_i(key)] − sum/K) / (1 − 1/K)`.
    pub fn estimate(&self, key: u64) -> f64 {
        let table = &self.sketch.table;
        estimate_cells(&self.sketch.rows, key, self.sum, |cell| table[cell])
    }

    /// [`estimate`](Self::estimate) for every key, tile by tile: `emit`
    /// receives each tile's keys and their estimates in key order (see
    /// [`batch::estimate_tiles`](crate::batch::estimate_tiles) for the
    /// phases). The scratch never grows with the key count.
    pub fn estimate_tiles(
        &self,
        keys: &[u64],
        scratch: &mut EstimateScratch,
        emit: impl FnMut(&[u64], &[f64]),
    ) {
        let s = self.sketch;
        estimate_tiles(&s.rows, &s.table, self.sum, simd::gather, keys, scratch, emit);
    }

    /// The snapshotted stream total.
    pub fn sum(&self) -> f64 {
        self.sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SketchConfig {
        SketchConfig { h: 5, k: 1024, seed: 42 }
    }

    #[test]
    fn empty_sketch_estimates_zero() {
        let s = KarySketch::new(cfg());
        assert_eq!(s.estimate(12345), 0.0);
        assert_eq!(s.estimate_f2(), 0.0);
        assert_eq!(s.sum(), 0.0);
    }

    #[test]
    fn single_key_estimate_is_near_exact() {
        let mut s = KarySketch::new(cfg());
        s.update(7, 500.0);
        // With a single key, the row estimate is (500 - 500/K)/(1 - 1/K) = 500.
        assert!((s.estimate(7) - 500.0).abs() < 1e-9);
    }

    #[test]
    fn single_key_f2_is_near_exact() {
        let mut s = KarySketch::new(cfg());
        s.update(7, 500.0);
        // K/(K-1)*500^2 - 500^2/(K-1) = 500^2.
        assert!((s.estimate_f2() - 250_000.0).abs() < 1e-6);
    }

    #[test]
    fn updates_accumulate_per_key() {
        let mut s = KarySketch::new(cfg());
        s.update(9, 100.0);
        s.update(9, 50.0);
        s.update(9, -30.0); // Turnstile model: negative updates allowed
        assert!((s.estimate(9) - 120.0).abs() < 1e-9);
    }

    #[test]
    fn sum_equals_total_updates() {
        let mut s = KarySketch::new(cfg());
        let mut total = 0.0;
        for key in 0..200u64 {
            let v = (key % 17) as f64 + 0.5;
            s.update(key, v);
            total += v;
        }
        assert!((s.sum() - total).abs() < 1e-6);
    }

    #[test]
    fn estimate_accuracy_over_many_keys() {
        // 200 keys, values 1..=200 spread over K=1024 buckets: estimates
        // should track true values well within the F2/(K-1) noise scale.
        let mut s = KarySketch::new(SketchConfig { h: 9, k: 4096, seed: 3 });
        let mut f2 = 0.0;
        for key in 0..200u64 {
            let v = (key + 1) as f64;
            s.update(key, v);
            f2 += v * v;
        }
        let noise = (f2 / 4095.0).sqrt(); // one-row std dev upper bound
        let est = s.estimator();
        for key in 0..200u64 {
            let e = est.estimate(key);
            let truth = (key + 1) as f64;
            assert!(
                (e - truth).abs() < 6.0 * noise,
                "key {key}: est {e}, truth {truth}, noise scale {noise}"
            );
        }
    }

    #[test]
    fn f2_estimate_tracks_truth() {
        let mut s = KarySketch::new(SketchConfig { h: 9, k: 8192, seed: 5 });
        let mut f2 = 0.0;
        for key in 0..500u64 {
            let v = ((key * key) % 97) as f64 + 1.0;
            s.update(key, v);
            f2 += v * v;
        }
        let est = s.estimate_f2();
        assert!((est - f2).abs() < 0.1 * f2, "estimated F2 {est} vs true {f2}");
    }

    /// The interleaved row chains are the row-by-row formula, bit for bit
    /// — at every grouping: one group (H = 5), uneven groups (9 → 5 + 4,
    /// 25 → 7 + 6 + 6 + 6) and past `median_over_rows`' stack buffer (33).
    #[test]
    fn f2_row_chains_interleave_without_changing_a_bit() {
        for h in [1usize, 2, 5, 8, 9, 25, 33] {
            let mut s = KarySketch::new(SketchConfig { h, k: 64, seed: 11 });
            for (i, cell) in s.table.iter_mut().enumerate() {
                *cell = ((i * 37 + h) % 1009) as f64 / 7.0 - 70.0;
            }
            let k = 64.0;
            let sum: f64 = s.table[..64].iter().fold(0.0, |acc, &x| acc + x);
            let mut per_row: Vec<f64> = s
                .table
                .chunks(64)
                .map(|row| {
                    let sq = row.iter().fold(0.0, |acc, &x| acc + x * x);
                    (k / (k - 1.0)) * sq - (sum * sum) / (k - 1.0)
                })
                .collect();
            let expected = crate::median::median_inplace(&mut per_row);
            assert_eq!(s.estimate_f2().to_bits(), expected.to_bits(), "H={h}");
        }
    }

    #[test]
    fn combine_is_entrywise_linear() {
        let c = cfg();
        let mut a = KarySketch::new(c);
        let mut b = KarySketch::new(c);
        for key in 0..50u64 {
            a.update(key, key as f64);
            b.update(key * 3, 1.0);
        }
        let combo = a.combine(&[(2.0, &a), (-0.5, &b)]).unwrap();
        for (i, cell) in combo.table().iter().enumerate() {
            let expect = 2.0 * a.table()[i] - 0.5 * b.table()[i];
            assert!((cell - expect).abs() < 1e-12, "cell {i}");
        }
    }

    #[test]
    fn combine_estimate_matches_combined_values() {
        let c = cfg();
        let mut obs = KarySketch::new(c);
        let mut fcst = KarySketch::new(c);
        obs.update(1, 100.0);
        fcst.update(1, 60.0);
        let err = obs.combine(&[(1.0, &obs), (-1.0, &fcst)]).unwrap();
        assert!((err.estimate(1) - 40.0).abs() < 1e-9);
    }

    #[test]
    fn incompatible_sketches_rejected() {
        let a = KarySketch::new(SketchConfig { h: 5, k: 1024, seed: 1 });
        let b = KarySketch::new(SketchConfig { h: 5, k: 1024, seed: 2 });
        let err = a.combine(&[(1.0, &a), (1.0, &b)]).unwrap_err();
        assert!(matches!(err, SketchError::IncompatibleSketches { .. }));
    }

    #[test]
    fn empty_combination_rejected() {
        let a = KarySketch::new(cfg());
        assert_eq!(a.combine(&[]).unwrap_err(), SketchError::EmptyCombination);
    }

    #[test]
    fn scale_and_clear() {
        let mut s = KarySketch::new(cfg());
        s.update(10, 8.0);
        s.scale(0.25);
        assert!((s.estimate(10) - 2.0).abs() < 1e-9);
        s.clear();
        assert_eq!(s.sum(), 0.0);
        assert_eq!(s.estimate(10), 0.0);
    }

    #[test]
    fn shared_rows_combine_without_reseeding() {
        let rows = scd_hash::HashRows::shared(3, 256, 77);
        let mut a = KarySketch::with_rows(Arc::clone(&rows));
        let mut b = KarySketch::with_rows(Arc::clone(&rows));
        a.update(5, 2.0);
        b.update(5, 3.0);
        let sum = a.combine(&[(1.0, &a), (1.0, &b)]).unwrap();
        assert!((sum.estimate(5) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn memory_matches_h_times_k() {
        let s = KarySketch::new(SketchConfig { h: 5, k: 32768, seed: 0 });
        assert_eq!(s.memory_bytes(), 5 * 32768 * 8);
    }

    #[test]
    fn l2_norm_nonnegative_and_consistent() {
        let mut s = KarySketch::new(cfg());
        s.update(3, 30.0);
        s.update(4, 40.0);
        let l2 = s.l2_norm();
        assert!((l2 - 50.0).abs() < 1.0, "l2 = {l2}");
        assert!(KarySketch::new(cfg()).l2_norm() >= 0.0);
    }

    #[test]
    fn zero_like_preserves_family() {
        let mut s = KarySketch::new(cfg());
        s.update(1, 1.0);
        let z = s.zero_like();
        assert_eq!(z.sum(), 0.0);
        assert_eq!(z.rows().identity(), s.rows().identity());
    }
}
