//! Shard tables that know which of their 64-byte lines they wrote, and the
//! one shard merge.
//!
//! COMBINE is a per-cell sum (§3.1): a cell that no shard wrote this
//! interval is zero in every shard and zero in `So`. A [`ShardTable`] is a
//! k-ary sketch plus the set of 64-byte lines (8 cells) that may hold
//! anything but `+0.0`, marked from the bucket block each batched fold
//! already computes. While every table of a merge knows its set,
//! [`merge_shards`] reads, writes and clears only those lines; once a
//! table's set passes a share of its lines it stops marking, counts as
//! dense, and the merge is the full sweep of
//! [`KarySketch::merge_draining`].
//!
//! A set travels with its table — through the workers' `Flush`, the detect
//! thread's queue and the one-shard swap — so every merge destination
//! knows which of its own lines the previous merge wrote.

use crate::telemetry::PipelineMetrics;
use scd_hash::HashRows;
use scd_obs::Stopwatch;
use scd_sketch::{simd, BatchScratch, KarySketch};
use std::borrow::{Borrow, BorrowMut};
use std::ops::Range;
use std::sync::Arc;

/// Cells per tracked line: 64 bytes of `f64`, one cache line.
const LINE_CELLS: usize = 8;

/// A table stays sparse while at most `1 / SPARSE_SHARE` of its lines
/// are marked (rounded up, so a table of a few lines can be sparse too).
/// Past that, the line walk would visit enough of the table that a sweep,
/// which streams it, is the cheaper way through.
const SPARSE_SHARE: usize = 16;

/// What a line-walked shard contributes for a line it never wrote: the
/// `+0.0` cells the sweep would have read there.
const ZERO_LINE: [f64; LINE_CELLS] = [0.0; LINE_CELLS];

/// A k-ary sketch that knows which of its lines may be non-zero.
///
/// Invariant while the set is known: every cell outside the marked lines
/// holds `+0.0` (the bits of `0.0`, not `-0.0`).
pub(crate) struct ShardTable {
    sketch: KarySketch,
    /// One bit per line of the table (the last line may be short).
    lines: Vec<u64>,
    /// Lines marked in `lines`; `None` when the set no longer covers every
    /// written cell — a dense table, or a destination whose content is
    /// unknown.
    marked: Option<usize>,
}

impl ShardTable {
    /// An all-zero table over `rows`, with nothing marked.
    pub(crate) fn new(rows: Arc<HashRows>) -> Self {
        let sketch = KarySketch::with_rows(rows);
        let lines = sketch.table().len().div_ceil(LINE_CELLS);
        ShardTable { sketch, lines: vec![0; lines.div_ceil(64)], marked: Some(0) }
    }

    /// A table holding `sketch`, whose cells this side knows nothing
    /// about: the first merge into it sweeps.
    #[cfg(test)]
    pub(crate) fn unknown(sketch: KarySketch) -> Self {
        let mut table = ShardTable::new(Arc::clone(sketch.rows()));
        table.sketch = sketch;
        table.marked = None;
        table
    }

    /// Whether the invariant holds: a sparse table's cells outside its
    /// marked lines are all `+0.0`, and it marked as many lines as it says.
    #[cfg(test)]
    pub(crate) fn lines_cover_cells(&self) -> bool {
        let Some(marked) = self.marked else { return true };
        let table = self.sketch.table();
        let covered =
            |cell: usize| self.lines[cell / LINE_CELLS / 64] >> (cell / LINE_CELLS % 64) & 1;
        count_lines(&self.lines) == marked
            && table.iter().enumerate().all(|(i, x)| covered(i) == 1 || x.to_bits() == 0)
    }

    /// An all-zero table over the same hash family.
    pub(crate) fn zero_like(&self) -> Self {
        ShardTable::new(Arc::clone(self.sketch.rows()))
    }

    /// The cells.
    pub(crate) fn sketch(&self) -> &KarySketch {
        &self.sketch
    }

    /// Whether the marked lines cover every cell that is not `+0.0`.
    pub(crate) fn is_sparse(&self) -> bool {
        self.marked.is_some()
    }

    /// Lines a table of this shape may mark and still count as sparse.
    fn sparse_limit(&self) -> usize {
        self.sketch.table().len().div_ceil(LINE_CELLS).div_ceil(SPARSE_SHARE)
    }

    /// **UPDATE** over a batch ([`KarySketch::update_batch`]), then marks
    /// the lines it wrote from the bucket block the fold left in
    /// `scratch` — until the set passes the sparse limit, when marking
    /// stops for the rest of the interval.
    pub(crate) fn update_batch(&mut self, items: &[(u64, f64)], scratch: &mut BatchScratch) {
        self.sketch.update_batch(items, scratch);
        let (Some(mut marked), n) = (self.marked, items.len()) else { return };
        if n == 0 {
            return;
        }
        let (k, limit) = (self.sketch.k(), self.sparse_limit());
        for (row, buckets) in scratch.buckets().chunks_exact(n).enumerate() {
            for &bucket in buckets {
                let line = (row * k + bucket) / LINE_CELLS;
                let (word, bit) = (&mut self.lines[line / 64], 1u64 << (line % 64));
                if *word & bit == 0 {
                    *word |= bit;
                    marked += 1;
                }
            }
            if marked > limit {
                self.marked = None;
                return;
            }
        }
        self.marked = Some(marked);
    }

    /// Zeroes the table — only its marked lines while it knows them — and
    /// leaves nothing marked. Returns whether it walked the lines.
    fn clear(&mut self) -> bool {
        let walked = self.is_sparse();
        if walked {
            let table = self.sketch.table_mut();
            let len = table.len();
            for line in set_lines(&self.lines) {
                table[cells(line, len)].fill(0.0);
            }
        } else {
            self.sketch.clear();
        }
        self.lines.fill(0);
        self.marked = Some(0);
        walked
    }

    /// The line walk of [`merge_shards`]: `self ← Σ shards` over the union
    /// of the shards' lines, per cell exactly the sweep's sequence — copy
    /// shard 0, then add each further shard in shard order — with a shard
    /// that never wrote a line contributing the `+0.0` cells the sweep
    /// would have read there. The lines `self` held from its previous merge
    /// and no shard wrote now are zeroed; the shards are left all-zero.
    /// Every table must be sparse.
    fn merge_lines(&mut self, shards: &mut [ShardTable]) {
        let variant = simd::active();
        let dst = self.sketch.table_mut();
        let len = dst.len();
        // The destination's set becomes the union once its stale lines are
        // zeroed; each pass below is a short loop over those lines, so many
        // of their cache misses are in flight at once.
        for (w, held) in self.lines.iter_mut().enumerate() {
            let union = shards.iter().fold(0, |union, s| union | s.lines[w]);
            for line in word_lines(w, *held & !union) {
                dst[cells(line, len)].fill(0.0);
            }
            *held = union;
        }
        for (i, s) in shards.iter_mut().enumerate() {
            let src = s.sketch.table_mut();
            for (w, (&union, wrote)) in self.lines.iter().zip(&mut s.lines).enumerate() {
                for line in word_lines(w, union) {
                    let cells = cells(line, len);
                    let out = &mut dst[cells.clone()];
                    let src = &mut src[cells];
                    match (i, *wrote >> (line % 64) & 1 == 1) {
                        (0, true) => out.copy_from_slice(src),
                        (0, false) => out.fill(0.0),
                        (_, true) => simd::add_scaled(variant, out, src, 1.0),
                        (_, false) => simd::add_scaled(variant, out, &ZERO_LINE[..out.len()], 1.0),
                    }
                }
                for line in word_lines(w, *wrote) {
                    src[cells(line, len)].fill(0.0);
                }
                *wrote = 0;
            }
            s.marked = Some(0);
        }
        self.marked = Some(count_lines(&self.lines));
    }
}

impl Borrow<KarySketch> for ShardTable {
    fn borrow(&self) -> &KarySketch {
        &self.sketch
    }
}

impl BorrowMut<KarySketch> for ShardTable {
    fn borrow_mut(&mut self) -> &mut KarySketch {
        &mut self.sketch
    }
}

/// The cells of `line` in a table of `len` cells.
fn cells(line: usize, len: usize) -> Range<usize> {
    line * LINE_CELLS..((line + 1) * LINE_CELLS).min(len)
}

/// The lines set in word `w` of a line set, given that word's `bits`.
fn word_lines(w: usize, mut bits: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let bit = bits.trailing_zeros() as usize;
        bits &= bits.wrapping_sub(1);
        (bit < 64).then_some(w * 64 + bit)
    })
}

/// How many lines `lines` has set.
fn count_lines(lines: &[u64]) -> usize {
    lines.iter().map(|w| w.count_ones() as usize).sum()
}

/// Every line set in `lines`, in table order.
fn set_lines(lines: &[u64]) -> impl Iterator<Item = usize> + '_ {
    lines.iter().enumerate().flat_map(|(w, &bits)| word_lines(w, bits))
}

/// Merges the shard tables in fixed shard order into `merged` and leaves
/// them zeroed for their next interval. f64 addition is not associative
/// in general, so a deterministic order keeps reruns (and the
/// sequential-vs-pipelined comparison) reproducible — every close path
/// calls this exact routine, which is what makes their reports
/// bit-identical.
///
/// * One shard's table *is* the merge: the two tables trade places,
///   bit-identical to the copy, and the table that held the previous
///   merge is cleared.
/// * When `merged` and every shard know their lines, only the union of
///   the shards' lines is merged and cleared ([`ShardTable::merge_lines`]),
///   and the lines `merged` still holds from its previous merge are
///   zeroed.
/// * Otherwise the whole table is swept ([`KarySketch::merge_draining`]):
///   each shard tile is cleared while the merge still has it in cache.
///
/// Each cell sees the same operations on every path, so the merged table
/// is bit-identical whichever runs. Records the merge's time and, when it
/// walked lines, one sparse merge into `metrics`.
pub(crate) fn merge_shards(
    merged: &mut ShardTable,
    shards: &mut [ShardTable],
    metrics: Option<&PipelineMetrics>,
) {
    const SAME_FAMILY: &str = "an engine has at least one shard, all over one hash family";
    let sw = Stopwatch::start();
    for s in shards.iter() {
        merged.sketch.check_family(&s.sketch).expect(SAME_FAMILY);
    }
    let all_sparse = shards.iter().all(ShardTable::is_sparse);
    let walked = match shards {
        [only] => {
            std::mem::swap(merged, only);
            only.clear()
        }
        _ if all_sparse && merged.is_sparse() => {
            merged.merge_lines(shards);
            true
        }
        _ => {
            merged.sketch.merge_draining(shards).expect(SAME_FAMILY);
            // The sum is +0.0 wherever no shard wrote, so a merge of sparse
            // shards leaves a destination that knows its lines again.
            merged.lines.fill(0);
            for s in shards.iter_mut() {
                for (held, wrote) in merged.lines.iter_mut().zip(&s.lines) {
                    *held |= wrote;
                }
                s.lines.fill(0);
                s.marked = Some(0);
            }
            merged.marked = all_sparse.then(|| count_lines(&merged.lines));
            false
        }
    };
    if let Some(m) = metrics {
        m.engine.combine_ns.record(sw.elapsed_ns());
        if walked {
            m.engine.sparse_merges_total.inc();
        }
    }
}
