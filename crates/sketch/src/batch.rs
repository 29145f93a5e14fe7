//! Reusable scratch space for batched sketch updates and estimates.
//!
//! The per-update `update(key, value)` loop is bound by cache behaviour,
//! not arithmetic: for every arrival it touches `H` sets of ~1 MiB
//! tabulation tables *and* `H` sketch rows, so at `H = 5` the working set
//! thrashes between six unrelated memory regions per update. The batched
//! path splits the work into two cache-friendly phases over a block of
//! updates:
//!
//! 1. **Hash phase** — `HashRows::buckets_batch` computes every bucket
//!    row-major into the scratch's bucket table: each row's tabulation
//!    tables are walked once for the whole block.
//! 2. **Scatter phase** — each sketch row's `K` registers are updated in
//!    one pass using that row's bucket block: one `8·K`-byte region stays
//!    hot (256 KiB at the paper's `K = 32768` — L2-resident) instead of
//!    `H` of them competing.
//!
//! Per-cell accumulation order is *identical* to the serial loop (arrivals
//! are applied in stream order within every row), so the resulting table
//! is **bit-identical** to per-update `update` calls — not merely close —
//! which `tests/properties.rs` asserts for all sketch shapes. The scratch
//! is plain reusable memory: hold one per worker thread and feed it to
//! every `update_batch` call to keep the hot path allocation-free.

use crate::simd;
use scd_hash::HashRows;

/// Scratch buffers for `update_batch`: the block's keys (contiguous, as
/// the hash layer wants them) and the row-major `H × block` bucket table.
/// Create once, reuse for every batch; buffers grow to the largest batch
/// seen and stay there.
#[derive(Debug, Default, Clone)]
pub struct BatchScratch {
    pub(crate) keys: Vec<u64>,
    pub(crate) buckets: Vec<usize>,
}

impl BatchScratch {
    /// An empty scratch; buffers are sized lazily by the first batch.
    pub fn new() -> Self {
        BatchScratch::default()
    }

    /// Heap bytes currently held (capacity, not length) — scratch memory
    /// is part of a worker's steady-state footprint.
    pub fn memory_bytes(&self) -> usize {
        self.keys.capacity() * std::mem::size_of::<u64>()
            + self.buckets.capacity() * std::mem::size_of::<usize>()
    }

    /// The bucket block of the last batch folded with this scratch:
    /// row-major, `H` rows of one bucket per item — what a caller that
    /// tracks which cells a fold wrote reads back instead of hashing again.
    pub fn buckets(&self) -> &[usize] {
        &self.buckets
    }

    /// Fills `keys` and resizes `buckets` for a block of `items` over `h`
    /// rows, returning `(keys, buckets)` ready for
    /// `HashRows::buckets_batch`.
    pub(crate) fn prepare(&mut self, items: &[(u64, f64)], h: usize) -> (&[u64], &mut [usize]) {
        self.prepare_mapped(items, h, |key| key)
    }

    /// Like [`prepare`](Self::prepare) but passes every key through `map`
    /// first — the deltoid's batch path masks keys to the configured width
    /// *before* hashing, exactly as its serial `update` does.
    pub(crate) fn prepare_mapped(
        &mut self,
        items: &[(u64, f64)],
        h: usize,
        map: impl Fn(u64) -> u64,
    ) -> (&[u64], &mut [usize]) {
        self.keys.clear();
        self.keys.extend(items.iter().map(|&(key, _)| map(key)));
        self.buckets.clear();
        self.buckets.resize(h * items.len(), 0);
        (&self.keys, &mut self.buckets)
    }
}

/// Keys per tile of the batched `ESTIMATE` ([`estimate_tiles`]): what
/// bounds the scratch (`16·H + 8` bytes per key — 1.4 MiB at `H = 5`)
/// whatever the candidate count. A constant, not a parameter: results do
/// not depend on it.
///
/// Why not smaller: every tile walks all `H` rows' tabulation tables and
/// register rows, which together (~4 MiB at `H = 5`, `K = 32768`) do not
/// fit L2, so each tile re-fetches them and a row's tables only pay back
/// over the keys of one tile. Measured cold, 98,804 keys, `K = 32768`
/// (hash + gather ms at `H = 5`; whole estimate at `H = 5` / `H = 25`):
/// 512 keys 3.7 + 1.4, 6.8 / 65; 8 Ki 3.1 + 1.3, 6.3 / 47; 16 Ki
/// 2.6 + 1.0, 5.8 / 49; 32 Ki 2.0 + 1.1, 5.5 / 46; untiled 1.5 + 1.2,
/// 4.9 / 34 — at 7.9 MB of scratch for that one scan, 40 MB at `H = 25`.
/// 16 Ki gives back about a millisecond of the two that tiling costs.
pub const ESTIMATE_TILE: usize = 16 * 1024;

/// Cells per tile of the blocked whole-table sweeps: `COMBINE` into a
/// recycled table ([`KarySketch::combine_into`]) and the shard merge
/// ([`KarySketch::merge_draining`]). A sweep walks its operands one tile
/// at a time and applies *every* term to that tile before moving on, so
/// each table streams through the cache once. A constant, not a
/// parameter: results do not depend on it — blocking changes which cell
/// is processed when, never the operations applied to one cell.
///
/// Sized by measurement at `H = 5`, `K = 65536` (2.6 MB a table, past the
/// 2 MiB of L2): `combine_into` and the shard merge have a flat bottom
/// from 512 to 4 Ki cells; below it the per-tile call overhead shows.
/// 1 Ki (8 KB an operand) is the smallest tile on the flat part. (The
/// forecast models' steps no longer tile: each is one per-cell function
/// walked once over its tables, `scd_forecast::blocked`.)
///
/// [`KarySketch::combine_into`]: crate::KarySketch::combine_into
/// [`KarySketch::merge_draining`]: crate::KarySketch::merge_draining
pub const SWEEP_TILE: usize = 1024;

/// The tiles of a `len`-cell sweep: consecutive index ranges of
/// [`SWEEP_TILE`] cells, the last one shorter.
pub fn sweep_tiles(len: usize) -> impl Iterator<Item = std::ops::Range<usize>> {
    (0..len).step_by(SWEEP_TILE).map(move |start| start..(start + SWEEP_TILE).min(len))
}

/// Scratch buffers for the batched `ESTIMATE` ([`estimate_tiles`]): one
/// tile's row-major `H × tile` bucket table, the gathered register values
/// in the same layout, the tile's medians, and the `H`-slot column the
/// per-key median falls back to for an `H` with no selection network.
/// Create once, reuse every interval; the buffers are sized by the sketch
/// shape and [`ESTIMATE_TILE`], **not** by the candidate count, so a scan
/// of any length runs in one tile's worth and allocates nothing once warm.
#[derive(Debug, Default, Clone)]
pub struct EstimateScratch {
    buckets: Vec<usize>,
    values: Vec<f64>,
    medians: Vec<f64>,
    per_row: Vec<f64>,
}

impl EstimateScratch {
    /// An empty scratch; buffers are sized lazily by the first batch.
    pub fn new() -> Self {
        EstimateScratch::default()
    }

    /// Heap bytes currently held (capacity, not length) — scratch memory
    /// is part of the detector's steady-state footprint.
    pub fn memory_bytes(&self) -> usize {
        self.buckets.capacity() * std::mem::size_of::<usize>()
            + (self.values.capacity() + self.medians.capacity() + self.per_row.capacity())
                * std::mem::size_of::<f64>()
    }

    /// Grows the tile buffers to hold `tile` keys over `h` rows. Contents
    /// are never read before being overwritten, so nothing is cleared.
    fn fit(&mut self, h: usize, tile: usize) {
        if self.buckets.len() < h * tile {
            self.buckets.resize(h * tile, 0);
            self.values.resize(h * tile, 0.0);
        }
        if self.medians.len() < tile {
            self.medians.resize(tile, 0.0);
        }
    }
}

/// **ESTIMATE** over a block of keys against a row-major `H × K` register
/// table — the one batched estimator behind [`Estimator::estimate_tiles`]
/// (fat `f64` cells) and the serving plane's slim sketch (`f32` cells,
/// widened by the gather). `emit` receives each tile's keys and their
/// estimates, in key order; every estimate is bit-identical to the
/// per-key formula `median_i (T[i][h_i(key)] − sum/K) / (1 − 1/K)`.
///
/// The keys are walked in tiles of [`ESTIMATE_TILE`]; per tile:
///
/// 1. **Hash** — [`HashRows::buckets_batch`] computes the tile's buckets
///    row-major (one pass per row over the tabulation tables).
/// 2. **Gather** — `gather` reads each register row's cells for the tile
///    into the value block ([`simd::gather`] / [`simd::gather_widen_f32`]).
/// 3. **Transform** — the per-cell subtract-and-divide over the block.
/// 4. **Median** — [`simd::median_rows`] runs the selection network
///    lanewise across the block.
///
/// `sum` is the stream total, supplied by the caller so it is computed
/// once per sketch, "before any ESTIMATE is called" (§3.1).
///
/// # Panics
/// Panics if `table` is not `H × K` for `rows`.
///
/// [`Estimator::estimate_tiles`]: crate::Estimator::estimate_tiles
pub fn estimate_tiles<C>(
    rows: &HashRows,
    table: &[C],
    sum: f64,
    gather: impl Fn(simd::Variant, &mut [f64], &[C], &[usize]),
    keys: &[u64],
    scratch: &mut EstimateScratch,
    mut emit: impl FnMut(&[u64], &[f64]),
) {
    let (h, k) = (rows.h(), rows.k());
    assert_eq!(table.len(), h * k, "table must be H x K");
    let variant = simd::active();
    scratch.fit(h, keys.len().min(ESTIMATE_TILE));
    for tile in keys.chunks(ESTIMATE_TILE) {
        let n = tile.len();
        let buckets = &mut scratch.buckets[..h * n];
        let values = &mut scratch.values[..h * n];
        rows.buckets_batch(tile, buckets);
        for row in 0..h {
            gather(
                variant,
                &mut values[row * n..(row + 1) * n],
                &table[row * k..(row + 1) * k],
                &buckets[row * n..(row + 1) * n],
            );
        }
        simd::estimate_transform(variant, values, sum, k as f64);
        let medians = &mut scratch.medians[..n];
        simd::median_rows(variant, medians, values, h, &mut scratch.per_row);
        emit(tile, medians);
    }
}
