//! The read-optimized **slim sketch** — the "fat-free" second stage of an
//! SF-sketch pair (Yang et al.) — and [`SlimEpoch`], its archive form.
//!
//! The engine's k-ary sketch is update-optimized: `f64` registers, no
//! derived state, so UPDATE is `H` adds and COMBINE is exact. Point
//! queries against it, however, pay an `O(K)` scan per fresh sketch —
//! `ESTIMATE` needs the stream total `sum(S)`, which the paper computes
//! "once before any ESTIMATE is called" — and drag `8·H·K` bytes through
//! the cache. The slim sketch is the read-side companion:
//!
//! * **`f32` registers** — half the table bytes of the fat sketch, so the
//!   same memory budget holds twice the history and far more of it stays
//!   cache-resident under a query storm;
//! * **per-row totals precomputed** — maintained incrementally in `f64`,
//!   so a point query touches exactly `H` cells and `ESTIMATEF2` never
//!   rescans a row for its total;
//! * **synced at interval boundaries** — [`SlimSketch::from_fat`] /
//!   [`SlimSketch::sync`] rebuild it from the fat sketch at interval
//!   close (the handoff the serving plane publishes).
//!
//! Since PR 9 the slim sketch is also a full [`LinearSketch`]: COMBINE
//! runs **lanewise in `f32`** (through the eight-lane kernels in
//! [`scd_sketch::simd`]), which is what lets the serving plane's replica
//! archive store *slim epochs* and answer every historical query from
//! `f32` state. The price is `f64 → f32` rounding, and the bound is
//! knowable and **composable**: [`SlimSketch::error_bound`] returns a
//! conservative per-estimate envelope derived from the largest magnitude
//! the table has held and the number of rounded operations each cell may
//! have absorbed — [`add_scaled`](SlimSketch::add_scaled) and
//! [`scale`](SlimSketch::scale) widen the envelope so a buddy-merged
//! epoch's bound always dominates each constituent's. For integer cells
//! below 2²⁴ (packet/byte counts in one interval) every rounding is
//! exact and slim answers equal fat answers **bit for bit** — the
//! property tests below assert both regimes.
//!
//! The row totals and the envelope are one [`SlimTotals`], which is what
//! the replica archive keeps beside an older epoch's written `f32` cells
//! when it packs the epoch ([`CellTable`]): a packed epoch answers, merges
//! and widens its envelope exactly as the dense one would.

use crate::shared::SharedSketch;
use scd_hash::HashRows;
use scd_sketch::batch::estimate_tiles;
use scd_sketch::{
    estimate_cells, estimate_f2_cells, simd, CellTable, EstimateScratch, KarySketch, LinearSketch,
    PointEstimate, SecondMoment, SketchError,
};
use std::sync::Arc;

/// One slim archive epoch: a copy-on-write handle on a [`SlimSketch`].
/// The serving replica is a `SketchArchive<SlimEpoch>` — snapshots clone
/// as `Arc` bumps, buddy merges combine lanewise in `f32`, and every
/// historical query (`range_sketch` / `key_history` / `changed_keys`)
/// answers from `f32` state with the composed
/// [`error_bound`](SlimSketch::error_bound) envelope.
pub type SlimEpoch = SharedSketch<SlimSketch>;

/// A compact read-optimized projection of a [`KarySketch`]: `f32`
/// registers plus per-row totals and the rounding envelope maintained
/// incrementally. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct SlimSketch {
    rows: Arc<HashRows>,
    /// Row-major `H × K` register table, `f32`.
    table: Vec<f32>,
    /// What reads take besides the registers.
    totals: SlimTotals,
}

/// A slim sketch's scalars, maintained beside its `f32` registers and
/// kept beside a packed archive epoch's written cells: per-row totals and
/// the rounding envelope.
#[derive(Debug, Clone, Default)]
pub struct SlimTotals {
    /// Per-row totals `Σ_j T[i][j]`, carried in full `f64` precision —
    /// row 0 is the stream total the fat sketch recomputes by scanning,
    /// and each row's own total feeds its `ESTIMATEF2` term.
    row_sums: Vec<f64>,
    /// Largest `|cell|` magnitude the envelope must cover — an upper
    /// bound on every cell (and every rounded intermediate) since the
    /// last [`sync`](SlimSketch::sync).
    max_abs: f64,
    /// Rounded `f32` operations a cell may have absorbed since the last
    /// sync: 1 for the sync itself, one per [`scale`](SlimSketch::scale),
    /// and two (multiply + add) per [`add_scaled`](SlimSketch::add_scaled)
    /// term.
    roundings: u64,
}

impl SlimTotals {
    /// The scalar half of `self += cf · other`: per-row totals fold
    /// linearly in `f64`, and the envelope widens so the result's bound
    /// dominates both constituents'.
    fn absorb(&mut self, other: &SlimTotals, cf: f32) {
        for (dst, &src) in self.row_sums.iter_mut().zip(&other.row_sums) {
            *dst += f64::from(cf) * src;
        }
        self.max_abs += f64::from(cf).abs() * other.max_abs;
        self.roundings = self.roundings + other.roundings + 2;
    }
}

impl SlimSketch {
    /// Builds a slim sketch from a fat one (the interval-close path).
    pub fn from_fat(fat: &KarySketch) -> SlimSketch {
        let mut slim = SlimSketch::zeroed(fat.rows());
        slim.sync(fat);
        slim
    }

    /// An all-zero slim sketch over `rows` — the identity for
    /// [`add_scaled`](Self::add_scaled), used for the replica archive's
    /// zero back-fill epochs. A zero table has absorbed no roundings, so
    /// its [`error_bound`](Self::error_bound) is exactly zero.
    pub fn zeroed(rows: &Arc<HashRows>) -> SlimSketch {
        SlimSketch {
            rows: Arc::clone(rows),
            table: vec![0.0; rows.h() * rows.k()],
            totals: SlimTotals { row_sums: vec![0.0; rows.h()], max_abs: 0.0, roundings: 0 },
        }
    }

    /// Re-projects `fat` into this slim sketch without reallocating —
    /// the steady-state interval-boundary refresh.
    ///
    /// # Panics
    /// Panics if `fat` belongs to a different hash family (the serving
    /// plane always syncs against the one detector family).
    pub fn sync(&mut self, fat: &KarySketch) {
        assert_eq!(
            self.rows.identity(),
            fat.rows().identity(),
            "slim sketch must sync against its own hash family"
        );
        let totals = &mut self.totals;
        totals.max_abs = project(fat.table(), self.rows.k(), &mut self.table, &mut totals.row_sums);
        totals.roundings = 1;
    }

    /// Number of hash rows `H`.
    pub fn h(&self) -> usize {
        self.rows.h()
    }

    /// Buckets per row `K`.
    pub fn k(&self) -> usize {
        self.rows.k()
    }

    /// The hash family shared with the fat sketch.
    pub fn rows(&self) -> &Arc<HashRows> {
        &self.rows
    }

    /// Raw `f32` register table (row-major, length `H·K`). Exposed
    /// read-only for diagnostics and the bit-identity soak assertions.
    pub fn table(&self) -> &[f32] {
        &self.table
    }

    /// Heap bytes of the register table — half the fat sketch's.
    pub fn memory_bytes(&self) -> usize {
        self.table.len() * std::mem::size_of::<f32>()
    }

    /// The maintained stream total (row 0's running sum; no row scan).
    pub fn sum(&self) -> f64 {
        self.totals.row_sums[0]
    }

    /// The maintained per-row totals `Σ_j T[i][j]`.
    pub fn row_sums(&self) -> &[f64] {
        &self.totals.row_sums
    }

    /// In-place `self += c · other`, **lanewise in `f32`** (the eight-lane
    /// [`simd::add_scaled_f32`] sweep) — the slim archive's buddy-merge
    /// arithmetic. The coefficient is rounded to `f32` once and applied
    /// identically to every cell; per-row totals fold linearly in `f64`;
    /// the rounding envelope composes so the result's
    /// [`error_bound`](Self::error_bound) dominates both constituents'
    /// (each cell absorbs at most two new rounded operations — multiply
    /// and add — at magnitudes the widened `max_abs` covers).
    ///
    /// # Errors
    /// [`SketchError::IncompatibleSketches`] if the hash families differ.
    pub fn add_scaled(&mut self, other: &SlimSketch, c: f64) -> Result<(), SketchError> {
        if self.rows.identity() != other.rows.identity() {
            return Err(SketchError::IncompatibleSketches {
                left: self.rows.identity(),
                right: other.rows.identity(),
            });
        }
        #[allow(clippy::cast_possible_truncation)]
        let cf = c as f32;
        simd::add_scaled_f32(simd::active(), &mut self.table, &other.table, cf);
        self.totals.absorb(&other.totals, cf);
        Ok(())
    }

    /// In-place `self *= c`, lanewise in `f32` ([`simd::scale_f32`]).
    /// One rounded operation per cell; the envelope's magnitude ceiling
    /// only ever widens (`max_abs · max(1, |c|)`), keeping
    /// [`error_bound`](Self::error_bound) monotone.
    pub fn scale(&mut self, c: f64) {
        #[allow(clippy::cast_possible_truncation)]
        let cf = c as f32;
        simd::scale_f32(simd::active(), &mut self.table, cf);
        let totals = &mut self.totals;
        for s in &mut totals.row_sums {
            *s *= f64::from(cf);
        }
        totals.max_abs *= f64::from(cf).abs().max(1.0);
        totals.roundings += 1;
    }

    /// **ESTIMATE** against the slim table: the paper's
    /// `median_i (T[i][h_i(key)] − sum/K) / (1 − 1/K)` with the stream
    /// total read from the maintained row-0 sum — `H` cell loads, no row
    /// scan. Per-row arithmetic is `f64`; the only precision lost is the
    /// cells' storage rounding, bounded by
    /// [`error_bound`](Self::error_bound).
    pub fn estimate(&self, key: u64) -> f64 {
        let table = &self.table;
        self.estimate_from(key, &self.totals, |cell| f64::from(table[cell]))
    }

    /// **ESTIMATE** over a block of keys: fills `out` with one estimate
    /// per key, equal to calling [`estimate`](Self::estimate) per key in
    /// order (the batch-vs-scalar property test asserts exact `==`). This
    /// is the fat sketch's tiled batch estimator
    /// ([`scd_sketch::batch::estimate_tiles`]) over the `f32` table: the
    /// gather widens each cell ([`simd::gather_widen_f32`], eight per
    /// step) and the stream total is the maintained row-0 sum. `out` is
    /// cleared first.
    pub fn estimate_batch(&self, keys: &[u64], scratch: &mut EstimateScratch, out: &mut Vec<f64>) {
        out.clear();
        out.reserve(keys.len());
        estimate_tiles(
            &self.rows,
            &self.table,
            self.sum(),
            simd::gather_widen_f32,
            keys,
            scratch,
            |_, estimates| out.extend_from_slice(estimates),
        );
    }

    /// **ESTIMATEF2** from `f32` state: the fat formula
    /// `median_i [ K/(K−1) · Σ_j T[i][j]² − sum²/(K−1) ]` with each row's
    /// squared sum accumulated in `f64` over the widened cells and the
    /// `sum` term read from that row's **maintained** total. For integer
    /// streams both quantities equal the fat sketch's exactly, so the F2
    /// estimate is bit-identical; for fractional streams the per-row
    /// totals are the linear fold of the constituents' (not a rescan),
    /// which tracks the same value to within the storage rounding.
    pub fn estimate_f2(&self) -> f64 {
        let row_sums = &self.totals.row_sums;
        estimate_f2_cells(&self.table, self.h(), self.k(), |row, _| row_sums[row])
    }

    /// A conservative bound on `|slim.estimate(key) − fat.estimate(key)|`
    /// against the `f64` state that would result from the same operation
    /// sequence (sync, combines) in full precision.
    ///
    /// Each cell has absorbed at most `roundings` rounded `f32`
    /// operations, each off by at most half an ulp at the envelope's
    /// magnitude ceiling: `max_abs · 2⁻²⁴`. The estimator divides a cell
    /// difference by `(1 − 1/K)`, so per estimate:
    ///
    /// ```text
    /// bound = roundings · max_abs · 2⁻²⁴ / (1 − 1/K)
    /// ```
    ///
    /// The median across rows cannot exceed the worst row, so the bound
    /// survives the reduction. Composition keeps it an upper envelope:
    /// `add_scaled` sums both operands' roundings (plus two for its own
    /// multiply-add) under a ceiling that dominates both tables, and
    /// `scale` adds one rounding under a never-shrinking ceiling — so a
    /// merged epoch's bound is always ≥ each constituent's. For tables
    /// whose cells are integers below 2²⁴ every rounding is exact and
    /// the true error is zero — the bound is an envelope, not an
    /// estimate.
    pub fn error_bound(&self) -> f64 {
        let k = self.k() as f64;
        let SlimTotals { max_abs, roundings, .. } = self.totals;
        (roundings as f64) * max_abs * 2f64.powi(-24) / (1.0 - 1.0 / k)
    }
}

/// Rows [`project`] advances together: enough independent add chains to
/// hide an add's latency, few enough that their totals and maxima stay in
/// registers.
const PROJECT_ROWS: usize = 8;

/// Projects the row-major `totals.len() × k` table `src` into `dst` in
/// one pass, writes each row's total to `totals`, and returns the largest
/// `|cell|`. Every row's total advances one column at a time from `0.0`,
/// in column order — the additions of a row-by-row loop, in its order, so
/// its bits — but up to [`PROJECT_ROWS`] rows' chains run side by side
/// instead of one after another. The maximum is order-free (`f64::max`
/// skips NaN), so it keeps per-row maxima.
fn project(src: &[f64], k: usize, dst: &mut [f32], totals: &mut [f64]) -> f64 {
    let span = PROJECT_ROWS * k;
    let groups = src.chunks(span).zip(dst.chunks_mut(span)).zip(totals.chunks_mut(PROJECT_ROWS));
    let mut max_abs = 0.0f64;
    for ((src, dst), totals) in groups {
        let group_max = match totals.len() {
            1 => project_group::<1>(src, k, dst, totals),
            2 => project_group::<2>(src, k, dst, totals),
            3 => project_group::<3>(src, k, dst, totals),
            4 => project_group::<4>(src, k, dst, totals),
            5 => project_group::<5>(src, k, dst, totals),
            6 => project_group::<6>(src, k, dst, totals),
            7 => project_group::<7>(src, k, dst, totals),
            _ => project_group::<PROJECT_ROWS>(src, k, dst, totals),
        };
        max_abs = max_abs.max(group_max);
    }
    max_abs
}

/// [`project`] over exactly `R` rows.
fn project_group<const R: usize>(
    src: &[f64],
    k: usize,
    dst: &mut [f32],
    totals: &mut [f64],
) -> f64 {
    let src: [&[f64]; R] = std::array::from_fn(|r| &src[r * k..(r + 1) * k]);
    let mut dst_rows = dst.chunks_exact_mut(k);
    let dst: [&mut [f32]; R] = std::array::from_fn(|_| dst_rows.next().expect("R rows"));
    let mut sums = [0.0f64; R];
    let mut maxima = [0.0f64; R];
    for col in 0..k {
        for r in 0..R {
            let s = src[r][col];
            dst[r][col] = s as f32;
            sums[r] += s;
            maxima[r] = maxima[r].max(s.abs());
        }
    }
    totals.copy_from_slice(&sums);
    maxima.into_iter().fold(0.0, f64::max)
}

impl PointEstimate for SlimSketch {
    fn estimate(&self, key: u64) -> f64 {
        SlimSketch::estimate(self, key)
    }

    fn estimate_many(&self, keys: &[u64], out: &mut Vec<f64>) {
        self.estimate_batch(keys, &mut EstimateScratch::new(), out);
    }
}

impl SecondMoment for SlimSketch {
    fn estimate_f2(&self) -> f64 {
        SlimSketch::estimate_f2(self)
    }
}

impl LinearSketch for SlimSketch {
    fn zero_like(&self) -> Self {
        SlimSketch::zeroed(&self.rows)
    }

    fn add_scaled(&mut self, other: &Self, c: f64) -> Result<(), SketchError> {
        SlimSketch::add_scaled(self, other, c)
    }

    fn scale(&mut self, c: f64) {
        SlimSketch::scale(self, c);
    }

    fn identity(&self) -> (usize, usize, u64) {
        self.rows.identity()
    }

    fn memory_bytes(&self) -> usize {
        SlimSketch::memory_bytes(self)
    }
}

/// The archive hooks: `f32` registers, and the scalars a slim read takes
/// — per-row totals and the envelope — carried beside a packed epoch and
/// folded as [`add_scaled`](SlimSketch::add_scaled) folds them.
impl CellTable for SlimSketch {
    type Cell = f32;
    type Totals = SlimTotals;

    fn cells(&self) -> &[f32] {
        &self.table
    }

    fn cells_mut(&mut self) -> &mut [f32] {
        &mut self.table
    }

    fn totals(&self) -> SlimTotals {
        self.totals.clone()
    }

    fn set_totals(&mut self, totals: &SlimTotals) {
        self.totals.clone_from(totals);
    }

    fn absorb_totals(&mut self, other: &SlimTotals) {
        self.totals.absorb(other, 1.0);
    }

    fn merged_totals(
        left: &SlimTotals,
        right: &SlimTotals,
        _: impl Fn(usize) -> f64,
    ) -> SlimTotals {
        let mut merged = left.clone();
        merged.absorb(right, 1.0);
        merged
    }

    fn estimate_from(&self, key: u64, totals: &SlimTotals, cell: impl Fn(usize) -> f64) -> f64 {
        estimate_cells(&self.rows, key, totals.row_sums[0], cell)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scd_sketch::SketchConfig;

    fn fat(seed: u64) -> KarySketch {
        KarySketch::new(SketchConfig { h: 5, k: 1024, seed })
    }

    /// Integer update streams (counts below 2²⁴) round-trip `f32`
    /// exactly, so slim estimates equal fat estimates bit for bit.
    #[test]
    fn integer_cells_estimate_exactly_equal_to_fat() {
        let mut f = fat(7);
        for key in 0..400u64 {
            f.update(key, ((key * 37) % 5000 + 1) as f64);
        }
        let slim = SlimSketch::from_fat(&f);
        let est = f.estimator();
        for key in 0..400u64 {
            let (a, b) = (slim.estimate(key), est.estimate(key));
            assert_eq!(a.to_bits(), b.to_bits(), "key {key}: slim {a} vs fat {b}");
        }
        assert_eq!(slim.error_bound(), slim.error_bound().abs());
        assert_eq!(slim.estimate_f2().to_bits(), f.estimate_f2().to_bits());
    }

    /// Fractional cells pick up `f32` rounding; the error must stay
    /// within the advertised bound.
    #[test]
    fn fractional_cells_stay_within_error_bound() {
        let mut f = fat(8);
        for key in 0..400u64 {
            f.update(key, (key as f64 + 0.1) * 1.000_000_7);
        }
        let slim = SlimSketch::from_fat(&f);
        let bound = slim.error_bound();
        assert!(bound > 0.0);
        let est = f.estimator();
        for key in 0..400u64 {
            let err = (slim.estimate(key) - est.estimate(key)).abs();
            assert!(err <= bound, "key {key}: error {err} exceeds bound {bound}");
        }
    }

    /// `estimate_batch` is a pure restructuring of the scalar loop —
    /// across several of the batch estimator's tiles, over keys the
    /// sketch holds and keys it never saw.
    #[test]
    fn batch_estimates_equal_scalar_estimates() {
        let mut f = fat(10);
        for key in 0..300u64 {
            f.update(key * 3 + 1, ((key % 97) + 1) as f64 * 1.5);
        }
        let slim = SlimSketch::from_fat(&f);
        let n = 3 * scd_sketch::batch::ESTIMATE_TILE as u64 + 7;
        let keys: Vec<u64> = (0..n).map(|k| k * 3 + 1).collect();
        let mut scratch = EstimateScratch::new();
        let mut out = Vec::new();
        slim.estimate_batch(&keys, &mut scratch, &mut out);
        assert_eq!(out.len(), keys.len());
        for (i, &key) in keys.iter().enumerate() {
            let scalar = slim.estimate(key);
            assert_eq!(
                out[i].to_bits(),
                scalar.to_bits(),
                "key {key}: batch {} vs scalar {scalar}",
                out[i]
            );
        }
        // Reusing the scratch (second call) must not change anything.
        let mut again = Vec::new();
        slim.estimate_batch(&keys, &mut scratch, &mut again);
        assert_eq!(out, again);
        // The trait's block form is the same scan.
        slim.estimate_many(&keys, &mut again);
        assert_eq!(out, again);
        // Empty key set clears the output.
        slim.estimate_batch(&[], &mut scratch, &mut out);
        assert!(out.is_empty());
    }

    /// The maintained per-row sums track the fat sketch's row scans.
    #[test]
    fn maintained_sums_match_fat_scan() {
        let mut f = fat(11);
        let mut slim = SlimSketch::from_fat(&f);
        for key in 0..100u64 {
            f.update(key, (key % 10 + 1) as f64);
        }
        slim.sync(&f);
        assert_eq!(slim.sum().to_bits(), f.sum().to_bits());
        assert_eq!(slim.totals.row_sums.len(), slim.h());
        for &rs in &slim.totals.row_sums {
            assert_eq!(rs, f.sum(), "every row total equals the stream total");
        }
        assert_eq!(slim.memory_bytes() * 2, f.memory_bytes());
    }

    /// The row-by-row projection `sync` ran before the one-pass
    /// [`project`]: each row's total one serial chain, rows in turn.
    fn reference_project(src: &[f64], k: usize, dst: &mut [f32], totals: &mut [f64]) -> f64 {
        let mut max_abs = 0.0f64;
        for (row, row_sum) in totals.iter_mut().enumerate() {
            let mut total = 0.0f64;
            for (d, &s) in dst[row * k..(row + 1) * k].iter_mut().zip(&src[row * k..(row + 1) * k])
            {
                *d = s as f32;
                total += s;
                max_abs = max_abs.max(s.abs());
            }
            *row_sum = total;
        }
        max_abs
    }

    /// A table that reaches every corner of the `f64 → f32` projection:
    /// signed zeros, subnormals, integers above 2²⁴, huge and fractional
    /// values in every row; ±inf and NaN only in odd rows, so even rows
    /// keep finite totals whose bits mean something.
    fn awkward_table(h: usize, k: usize, seed: u64) -> Vec<f64> {
        let mut rng = scd_hash::SplitMix64::new(seed);
        (0..h * k)
            .map(|i| {
                let r = rng.next_u64();
                let odd_row = (i / k) % 2 == 1;
                match r % 13 {
                    0 => 0.0,
                    1 => -0.0,
                    2 => f64::MIN_POSITIVE / 3.0,
                    3 => -f64::from_bits(1),
                    4 => 16_777_217.0 + (r >> 40) as f64,
                    5 => -1.0e300 * ((r >> 50) as f64 + 1.0),
                    6 if odd_row => f64::INFINITY,
                    7 if odd_row => f64::NEG_INFINITY,
                    8 if odd_row => f64::NAN,
                    _ => ((r >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 1.0e6,
                }
            })
            .collect()
    }

    fn bits64(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn bits32(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The one-pass projection is the row-by-row loop, bit for bit: every
    /// register, every row total and the magnitude ceiling — and, where
    /// `K` can shape a sketch, the whole synced state down to
    /// `error_bound()`. `K = 7` is no hash family's width, so it runs
    /// through the projection alone.
    #[test]
    fn one_pass_sync_matches_row_by_row_loop() {
        for h in [1usize, 3, 5, 9, 25] {
            for k in [1usize, 7, 1024] {
                let src = awkward_table(h, k, (h * 1000 + k) as u64);
                let (mut want, mut got) = (vec![0.0f32; h * k], vec![0.0f32; h * k]);
                let (mut want_sums, mut got_sums) = (vec![0.0; h], vec![0.0; h]);
                let want_max = reference_project(&src, k, &mut want, &mut want_sums);
                let got_max = project(&src, k, &mut got, &mut got_sums);
                let shape = format!("H = {h}, K = {k}");
                assert_eq!(bits32(&got), bits32(&want), "{shape}: registers");
                assert_eq!(bits64(&got_sums), bits64(&want_sums), "{shape}: row totals");
                assert_eq!(got_max.to_bits(), want_max.to_bits(), "{shape}: max_abs");
                assert!(want_sums.iter().step_by(2).all(|s| s.is_finite()), "{shape}");
                if !k.is_power_of_two() {
                    continue;
                }
                let mut f = KarySketch::new(SketchConfig { h, k, seed: 5 });
                f.table_mut().copy_from_slice(&src);
                let slim = SlimSketch::from_fat(&f);
                assert_eq!(bits32(slim.table()), bits32(&want), "{shape}: sync registers");
                assert_eq!(
                    bits64(&slim.totals.row_sums),
                    bits64(&want_sums),
                    "{shape}: sync totals"
                );
                assert_eq!(
                    slim.totals.max_abs.to_bits(),
                    want_max.to_bits(),
                    "{shape}: sync max_abs"
                );
                assert_eq!(slim.totals.roundings, 1, "{shape}");
                let bound = 1.0 * want_max * 2f64.powi(-24) / (1.0 - 1.0 / k as f64);
                assert_eq!(slim.error_bound().to_bits(), bound.to_bits(), "{shape}: bound");
            }
        }
    }

    /// ESTIMATEF2 with its rows' chains side by side is the row-by-row
    /// formula it replaced, bit for bit, over tables holding ±0.0,
    /// subnormals, ±inf and NaN.
    #[test]
    fn interleaved_f2_matches_row_by_row_formula() {
        for h in [1usize, 2, 3, 5, 9, 25] {
            for k in [2usize, 1024] {
                let mut f = KarySketch::new(SketchConfig { h, k, seed: 5 });
                f.table_mut().copy_from_slice(&awkward_table(h, k, (h * 7 + k) as u64));
                let slim = SlimSketch::from_fat(&f);
                let kf = k as f64;
                let want = scd_sketch::median_over_rows(h, |row| {
                    let row_slice = &slim.table()[row * k..(row + 1) * k];
                    let sq: f64 = row_slice
                        .iter()
                        .map(|&x| {
                            let v = f64::from(x);
                            v * v
                        })
                        .sum();
                    let sum = slim.row_sums()[row];
                    (kf / (kf - 1.0)) * sq - (sum * sum) / (kf - 1.0)
                });
                assert_eq!(slim.estimate_f2().to_bits(), want.to_bits(), "H = {h}, K = {k}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "hash family")]
    fn sync_rejects_foreign_family() {
        let a = fat(1);
        let b = fat(2);
        let mut slim = SlimSketch::from_fat(&a);
        slim.sync(&b);
    }

    /// Slim COMBINE on integer streams equals the fat COMBINE bit for
    /// bit: merging archive epochs in `f32` loses nothing while cells
    /// stay integer-exact.
    #[test]
    fn integer_combine_matches_fat_combine_exactly() {
        let mut fa = fat(21);
        let mut fb = fat(21);
        for key in 0..200u64 {
            fa.update(key, ((key * 7) % 900 + 1) as f64);
            fb.update(key * 2 + 1, ((key * 11) % 400 + 1) as f64);
        }
        let mut slim = SlimSketch::from_fat(&fa);
        slim.add_scaled(&SlimSketch::from_fat(&fb), 1.0).unwrap();
        let mut merged_fat = fa.clone();
        merged_fat.add_scaled(&fb, 1.0).unwrap();
        let est = merged_fat.estimator();
        for key in 0..200u64 {
            assert_eq!(slim.estimate(key).to_bits(), est.estimate(key).to_bits(), "key {key}");
        }
        assert_eq!(slim.estimate_f2().to_bits(), merged_fat.estimate_f2().to_bits());
        assert_eq!(slim.sum(), merged_fat.sum());
    }

    /// The buddy-merge envelope composes: a merged pair's bound is ≥
    /// each constituent's, and fractional merges stay within it against
    /// the fat ground truth.
    #[test]
    fn merged_envelope_dominates_constituents_and_holds() {
        let mut fa = fat(22);
        let mut fb = fat(22);
        for key in 0..300u64 {
            fa.update(key, (key as f64 + 0.3) * 1.000_001_3);
            fb.update(key, (key as f64 * 0.7 + 0.1) * 0.999_998_9);
        }
        let sa = SlimSketch::from_fat(&fa);
        let sb = SlimSketch::from_fat(&fb);
        let mut merged = sa.clone();
        merged.add_scaled(&sb, 1.0).unwrap();
        assert!(merged.error_bound() >= sa.error_bound());
        assert!(merged.error_bound() >= sb.error_bound());
        let mut merged_fat = fa.clone();
        merged_fat.add_scaled(&fb, 1.0).unwrap();
        let bound = merged.error_bound();
        let est = merged_fat.estimator();
        for key in 0..300u64 {
            let err = (merged.estimate(key) - est.estimate(key)).abs();
            assert!(err <= bound, "key {key}: error {err} exceeds composed bound {bound}");
        }
        // scale() also only widens the envelope.
        let before = merged.error_bound();
        merged.scale(1.5);
        assert!(merged.error_bound() >= before);
    }

    /// The linear-trait surface: zero identity, family checks, memory.
    #[test]
    fn linear_trait_surface() {
        let mut f = fat(23);
        for key in 0..50u64 {
            f.update(key, (key + 1) as f64);
        }
        let slim = SlimSketch::from_fat(&f);
        let zero = LinearSketch::zero_like(&slim);
        assert_eq!(zero.sum(), 0.0);
        assert_eq!(zero.error_bound(), 0.0);
        assert_eq!(LinearSketch::identity(&zero), slim.rows().identity());
        let mut merged = zero.clone();
        merged.add_scaled(&slim, 1.0).unwrap();
        for key in 0..50u64 {
            assert_eq!(merged.estimate(key).to_bits(), slim.estimate(key).to_bits());
        }
        let foreign = SlimSketch::from_fat(&fat(99));
        assert!(matches!(
            merged.add_scaled(&foreign, 1.0),
            Err(SketchError::IncompatibleSketches { .. })
        ));
        assert_eq!(LinearSketch::memory_bytes(&slim), slim.table().len() * 4);
    }
}
