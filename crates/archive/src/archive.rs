//! The archive proper: dyadic epochs, budget-driven compaction, queries.

use crate::store::{merge_cells, pack_cells, pack_limit, Packed, Table};
use scd_sketch::{CellTable, SecondMoment, SketchError};
use std::borrow::Cow;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Retention policy for a [`SketchArchive`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArchiveConfig {
    /// Hard budget on retained sketches. Memory is at most `max_sketches`
    /// times one sketch (plus the key directory), forever, regardless of
    /// how many intervals have been pushed — less when epochs pack (see
    /// [`SketchArchive::memory_bytes`]).
    pub max_sketches: usize,
    /// The most recent `full_resolution` intervals are never merged: the
    /// detector's recent past stays queryable at native resolution.
    pub full_resolution: usize,
    /// Per-epoch cap on remembered salient keys (the candidate set for
    /// [`SketchArchive::changed_keys`]). `0` disables the directory;
    /// queries then need explicit candidates.
    pub keys_per_epoch: usize,
}

impl ArchiveConfig {
    /// Checks the arithmetic that compaction relies on.
    ///
    /// `max_sketches ≥ full_resolution + 2` guarantees that whenever the
    /// budget is exceeded, at least two *unprotected* adjacent epochs
    /// exist (the protected suffix spans `full_resolution` intervals and
    /// epochs are disjoint, so it holds at most `full_resolution`
    /// epochs), hence compaction always makes progress.
    ///
    /// # Errors
    /// [`ArchiveError::BadConfig`] when the inequality fails or
    /// `full_resolution` is zero.
    pub fn validate(&self) -> Result<(), ArchiveError> {
        if self.full_resolution == 0 {
            return Err(ArchiveError::BadConfig("full_resolution must be at least 1".into()));
        }
        if self.max_sketches < self.full_resolution + 2 {
            return Err(ArchiveError::BadConfig(format!(
                "max_sketches ({}) must be at least full_resolution + 2 ({})",
                self.max_sketches,
                self.full_resolution + 2
            )));
        }
        Ok(())
    }
}

/// Errors from archive operations.
#[derive(Debug)]
pub enum ArchiveError {
    /// The configuration cannot sustain compaction.
    BadConfig(String),
    /// A query window with `to ≤ from`.
    EmptyRange {
        /// Requested start (inclusive).
        from: u64,
        /// Requested end (exclusive).
        to: u64,
    },
    /// The query window does not intersect any retained epoch.
    OutOfRange {
        /// Requested start (inclusive).
        from: u64,
        /// Requested end (exclusive).
        to: u64,
        /// What the archive currently covers, if anything.
        coverage: Option<(u64, u64)>,
    },
    /// A sketch-level failure (incompatible hash families).
    Sketch(SketchError),
}

impl std::fmt::Display for ArchiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArchiveError::BadConfig(why) => write!(f, "invalid archive config: {why}"),
            ArchiveError::EmptyRange { from, to } => {
                write!(f, "empty query window [{from}, {to})")
            }
            ArchiveError::OutOfRange { from, to, coverage: Some((lo, hi)) } => {
                write!(f, "window [{from}, {to}) outside archived range [{lo}, {hi})")
            }
            ArchiveError::OutOfRange { from, to, coverage: None } => {
                write!(f, "window [{from}, {to}) queried against an empty archive")
            }
            ArchiveError::Sketch(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ArchiveError {}

impl From<SketchError> for ArchiveError {
    fn from(e: SketchError) -> Self {
        ArchiveError::Sketch(e)
    }
}

/// One retained span of history: the COMBINE of `len` consecutive
/// interval sketches starting at interval `start`, held dense or packed
/// (see [`SketchArchive::memory_bytes`]).
#[derive(Debug, Clone)]
pub struct Epoch<L: CellTable> {
    pub(crate) start: u64,
    pub(crate) len: u64,
    pub(crate) table: Table<L>,
    /// Directory of this epoch's most salient keys, `(key, weight)` with
    /// nonnegative weights, sorted by weight descending then key
    /// ascending, at most `keys_per_epoch` entries.
    pub(crate) notable: Vec<(u64, f64)>,
}

impl<L: CellTable> Epoch<L> {
    /// First interval covered (inclusive).
    pub fn start(&self) -> u64 {
        self.start
    }

    /// Number of consecutive intervals summarized.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Always false: an epoch covers at least one interval.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// One past the last covered interval.
    pub fn end(&self) -> u64 {
        self.start + self.len
    }

    /// The summed sketch for the covered span while it is held dense —
    /// always for the newest epoch, which is stored exactly as pushed —
    /// and `None` while it is packed. [`SketchArchive::dense_sketch`]
    /// gives any epoch's table.
    pub fn sketch(&self) -> Option<&L> {
        match &self.table {
            Table::Dense(sketch) => Some(sketch),
            Table::Packed(_) => None,
        }
    }

    /// The epoch's written cells and read scalars while it is packed.
    pub fn packed(&self) -> Option<&Packed<L>> {
        match &self.table {
            Table::Dense(_) => None,
            Table::Packed(packed) => Some(packed),
        }
    }

    /// The epoch's key directory (weight-ranked).
    pub fn notable(&self) -> &[(u64, f64)] {
        &self.notable
    }
}

/// Sums `|weight|` per key, ranks by weight descending (ties: key
/// ascending), and truncates to `cap`. The single ranking rule used both
/// at push time and when epochs merge.
fn rank_notable(entries: impl IntoIterator<Item = (u64, f64)>, cap: usize) -> Vec<(u64, f64)> {
    if cap == 0 {
        return Vec::new();
    }
    let mut by_key: BTreeMap<u64, f64> = BTreeMap::new();
    for (key, weight) in entries {
        *by_key.entry(key).or_insert(0.0) += weight.abs();
    }
    let mut ranked: Vec<(u64, f64)> = by_key.into_iter().collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    ranked.truncate(cap);
    ranked
}

/// Packed tables a merge freed, kept for the next pack or merge to fill
/// (at most this many).
const SPARE_PACKED: usize = 2;

/// A fixed-budget, multi-resolution store of per-interval sketches.
///
/// Intervals are pushed in order (`0, 1, 2, …`); the archive keeps them
/// as a deque of contiguous [`Epoch`]s, oldest first, and compacts by
/// COMBINE when the deque outgrows [`ArchiveConfig::max_sketches`].
#[derive(Debug)]
pub struct SketchArchive<L: CellTable> {
    config: ArchiveConfig,
    epochs: VecDeque<Epoch<L>>,
    next_interval: u64,
    /// Epoch merges performed since construction (compaction work done —
    /// the telemetry layer reads this once per interval).
    merges: u64,
    /// The dense table the latest push emptied of its meaning — the
    /// demoted newest epoch's once it packed, or a merged buddy's — that
    /// no epoch refers to any more. Held (one at most, the newest) so a
    /// producer can reuse the allocation —
    /// [`take_retired`](SketchArchive::take_retired). Not history: never
    /// serialized, never cloned.
    retired: Option<L>,
    /// Unshared packed tables merges freed, refilled by the next pack or
    /// merge instead of allocating. Not history either.
    spare: Vec<Arc<Packed<L>>>,
    /// The pack sweep's written-register masks, one per 64 registers.
    masks: Vec<u64>,
}

/// A snapshot: the epochs (a packed one as a pointer bump), not the
/// retired table or the spare packed tables.
impl<L: CellTable> Clone for SketchArchive<L> {
    fn clone(&self) -> Self {
        SketchArchive {
            config: self.config,
            epochs: self.epochs.clone(),
            next_interval: self.next_interval,
            merges: self.merges,
            retired: None,
            spare: Vec::new(),
            masks: Vec::new(),
        }
    }
}

impl<L: CellTable> SketchArchive<L> {
    /// Creates an empty archive.
    ///
    /// # Errors
    /// [`ArchiveError::BadConfig`] if `config` cannot sustain compaction.
    pub fn new(config: ArchiveConfig) -> Result<Self, ArchiveError> {
        config.validate()?;
        Ok(SketchArchive {
            config,
            epochs: VecDeque::new(),
            next_interval: 0,
            merges: 0,
            retired: None,
            spare: Vec::new(),
            masks: Vec::new(),
        })
    }

    /// Rebuilds an archive from decoded parts, re-validating every
    /// structural invariant (used by the wire format; corrupt inputs
    /// must not produce an archive that later panics).
    pub(crate) fn from_parts(
        config: ArchiveConfig,
        next_interval: u64,
        epochs: Vec<Epoch<L>>,
    ) -> Result<Self, ArchiveError> {
        config.validate()?;
        let mut expected_start = None;
        for epoch in &epochs {
            if epoch.len == 0 {
                return Err(ArchiveError::BadConfig("zero-length epoch".into()));
            }
            if let Some(expected) = expected_start {
                if epoch.start != expected {
                    return Err(ArchiveError::BadConfig(format!(
                        "epochs not contiguous: expected start {expected}, found {}",
                        epoch.start
                    )));
                }
            }
            expected_start = Some(epoch.end());
            if let (Some(first), Some(sketch)) = (epochs.first(), epoch.sketch()) {
                let first = first.sketch().expect("decoded epochs are dense");
                if first.identity() != sketch.identity() {
                    return Err(SketchError::IncompatibleSketches {
                        left: first.identity(),
                        right: sketch.identity(),
                    }
                    .into());
                }
            }
        }
        if let Some(end) = expected_start {
            if end > next_interval {
                return Err(ArchiveError::BadConfig(format!(
                    "epochs end at {end} but next_interval is {next_interval}"
                )));
            }
        }
        let mut archive = SketchArchive {
            config,
            epochs: epochs.into(),
            next_interval,
            merges: 0,
            retired: None,
            spare: Vec::new(),
            masks: Vec::new(),
        };
        for i in 0..archive.epochs.len().saturating_sub(1) {
            archive.settle(i);
        }
        archive.compact();
        Ok(archive)
    }

    /// The retention policy.
    pub fn config(&self) -> &ArchiveConfig {
        &self.config
    }

    /// The interval index the *next* push will be assigned.
    pub fn next_interval(&self) -> u64 {
        self.next_interval
    }

    /// Number of retained epochs (≤ `max_sketches` after every push).
    pub fn sketch_count(&self) -> usize {
        self.epochs.len()
    }

    /// Total epoch merges performed by compaction since this archive was
    /// constructed (resets to 0 on a wire-format reload — it counts work
    /// done by *this* instance, not the archive's lifetime).
    pub fn merges_total(&self) -> u64 {
        self.merges
    }

    /// `[first, one-past-last)` interval range covered, or `None` while
    /// empty.
    pub fn coverage(&self) -> Option<(u64, u64)> {
        match (self.epochs.front(), self.epochs.back()) {
            (Some(first), Some(last)) => Some((first.start, last.end())),
            _ => None,
        }
    }

    /// Retained epochs, oldest first.
    pub fn epochs(&self) -> impl Iterator<Item = &Epoch<L>> {
        self.epochs.iter()
    }

    /// Heap bytes held: every epoch's table plus the key directory.
    ///
    /// The newest epoch is the dense table as pushed. Every older one is
    /// held **packed** — the registers whose bits are not `+0.0`, at 4
    /// bytes of index plus the register each — whenever that is at most
    /// half its dense bytes, and dense otherwise; whether it packs depends
    /// on its own written-register count alone, looked at when a push
    /// demotes it and after every merge. So the bound is
    /// `Σ min(dense, packed)`-like and never above the dense
    /// `max_sketches · sketch_size + max_sketches · keys_per_epoch · 16`.
    /// (The retired table [`take_retired`](Self::take_retired) may be
    /// holding and spare packed capacity are not history and are not
    /// counted.)
    pub fn memory_bytes(&self) -> usize {
        self.epochs
            .iter()
            .map(|e| e.table.bytes() + e.notable.len() * std::mem::size_of::<(u64, f64)>())
            .sum()
    }

    /// Appends the sketch for the next interval, with an optional list of
    /// that interval's salient keys and weights (typically the detector's
    /// per-key |forecast error|; weights are folded in as absolute
    /// values). Returns the interval index assigned, then compacts if
    /// over budget.
    ///
    /// # Errors
    /// [`ArchiveError::Sketch`] if `sketch` belongs to a different hash
    /// family than the epochs already archived.
    pub fn push(&mut self, sketch: L, notable: &[(u64, f64)]) -> Result<u64, ArchiveError> {
        if !self.epochs.is_empty() {
            let back = self.newest();
            if back.identity() != sketch.identity() {
                return Err(SketchError::IncompatibleSketches {
                    left: back.identity(),
                    right: sketch.identity(),
                }
                .into());
            }
        }
        let t = self.next_interval;
        let notable = rank_notable(notable.iter().copied(), self.config.keys_per_epoch);
        self.epochs.push_back(Epoch { start: t, len: 1, table: Table::Dense(sketch), notable });
        self.next_interval = t + 1;
        if self.epochs.len() >= 2 {
            self.settle(self.epochs.len() - 2);
        }
        self.compact();
        Ok(t)
    }

    /// The newest epoch's table, which is always dense.
    ///
    /// # Panics
    /// On an empty archive.
    fn newest(&self) -> &L {
        let back = self.epochs.back().expect("a non-empty archive");
        back.sketch().expect("the newest epoch is held as pushed")
    }

    /// A dense table of the archive's family whose contents will be
    /// overwritten: the retired one if held, else a fresh zeroed one.
    fn blank(&mut self) -> L {
        match self.retired.take() {
            Some(table) => table,
            None => self.newest().zero_like(),
        }
    }

    /// An empty packed table: a spare if one is held.
    fn spare(&mut self) -> Arc<Packed<L>> {
        self.spare.pop().unwrap_or_default()
    }

    /// Takes back a packed table no epoch holds any more, unless a
    /// snapshot still shares it.
    fn recycle(&mut self, mut packed: Arc<Packed<L>>) {
        if self.spare.len() < SPARE_PACKED && Arc::get_mut(&mut packed).is_some() {
            self.spare.push(packed);
        }
    }

    /// Holds epoch `i` packed if its written registers fit
    /// [`pack_limit`], dense otherwise — the one storage rule, applied to
    /// every epoch but the newest. A dense table that packs is retired.
    fn settle(&mut self, i: usize) {
        let limit = pack_limit::<L::Cell>(self.newest().cells().len());
        if let Table::Packed(packed) = &self.epochs[i].table {
            if limit.is_some_and(|limit| packed.cells.len() <= limit) {
                return;
            }
            let packed = Arc::clone(packed);
            let mut dense = self.blank();
            packed.unpack_into(&mut dense);
            self.epochs[i].table = Table::Dense(dense);
            self.recycle(packed);
            return;
        }
        let Some(limit) = limit else { return };
        let mut packed = self.spare();
        let into = Arc::get_mut(&mut packed).expect("a spare is unshared");
        let Table::Dense(sketch) = &self.epochs[i].table else { unreachable!("not packed") };
        if !pack_cells(sketch.cells(), limit, &mut self.masks, &mut into.cells) {
            self.recycle(packed);
            return;
        }
        into.totals = sketch.totals();
        if let Table::Dense(old) =
            std::mem::replace(&mut self.epochs[i].table, Table::Packed(packed))
        {
            self.retired = Some(old);
        }
    }

    /// `left + 1.0·right`, held however the two are: a dense add when both
    /// are dense, the packed merge when both are packed, and otherwise the
    /// packed one unpacked into a spare dense table and added densely.
    fn merge_tables(&mut self, left: Table<L>, right: Table<L>) -> Table<L> {
        match (left, right) {
            (Table::Dense(mut left), Table::Dense(right)) => {
                left.add_scaled(&right, 1.0).expect("identities checked at push");
                self.retired = Some(right);
                Table::Dense(left)
            }
            (Table::Packed(left), Table::Packed(right)) => {
                let (_, k, _) = self.newest().identity();
                let mut merged = self.spare();
                let out = Arc::get_mut(&mut merged).expect("a spare is unshared");
                merge_cells(&left.cells, &right.cells, &mut out.cells);
                let cells = &out.cells;
                out.totals =
                    L::merged_totals(&left.totals, &right.totals, |row| cells.row_sum(row, k));
                self.recycle(left);
                self.recycle(right);
                Table::Packed(merged)
            }
            (Table::Dense(mut left), Table::Packed(right)) => {
                let mut scratch = self.blank();
                right.unpack_into(&mut scratch);
                left.add_scaled(&scratch, 1.0).expect("identities checked at push");
                self.retired = Some(scratch);
                self.recycle(right);
                Table::Dense(left)
            }
            (Table::Packed(left), Table::Dense(right)) => {
                let mut sum = self.blank();
                left.unpack_into(&mut sum);
                sum.add_scaled(&right, 1.0).expect("identities checked at push");
                self.retired = Some(right);
                self.recycle(left);
                Table::Dense(sum)
            }
        }
    }

    fn compact(&mut self) {
        while self.epochs.len() > self.config.max_sketches {
            if !self.merge_once() {
                // Unreachable under a validated config (see
                // `ArchiveConfig::validate`); kept as a safety valve so a
                // pathological state degrades to over-budget rather than
                // looping forever.
                break;
            }
        }
    }

    /// Merges one adjacent pair of unprotected epochs, preferring the
    /// oldest *buddy* pair — equal widths `w` with the left epoch
    /// starting at a multiple of `2w`, the binary-counter rule that
    /// yields power-of-two epoch widths — and falling back to the oldest
    /// adjacent pair when no buddies exist (e.g. after loading an
    /// archive whose alignment was disturbed).
    fn merge_once(&mut self) -> bool {
        let protected_from = self.next_interval.saturating_sub(self.config.full_resolution as u64);
        let mut unprotected = 0;
        while unprotected < self.epochs.len() && self.epochs[unprotected].end() <= protected_from {
            unprotected += 1;
        }
        if unprotected < 2 {
            return false;
        }
        let mut pick = 0;
        for i in 0..unprotected - 1 {
            let (left, right) = (&self.epochs[i], &self.epochs[i + 1]);
            if left.len == right.len && left.start % (2 * left.len) == 0 {
                pick = i;
                break;
            }
        }
        let right = self.epochs.remove(pick + 1).expect("pick+1 < unprotected ≤ len");
        let left = self.epochs.remove(pick).expect("pick < unprotected ≤ len");
        let notable = rank_notable(
            left.notable.iter().chain(right.notable.iter()).copied(),
            self.config.keys_per_epoch,
        );
        let table = self.merge_tables(left.table, right.table);
        let merged = Epoch { start: left.start, len: left.len + right.len, table, notable };
        self.epochs.insert(pick, merged);
        self.settle(pick);
        self.merges += 1;
        true
    }

    /// Hands out the dense table the latest push retired, if it has not
    /// been taken yet. In steady state an archive at its budget retires
    /// exactly one table per [`push`](Self::push) — the demoted newest
    /// epoch's when it packs, a merged buddy's when epochs stay dense —
    /// so whoever produces the pushed sketches can write the next one
    /// into this allocation instead of a fresh one. The contents are
    /// stale cells: overwrite them all, and check
    /// [`identity`](scd_sketch::LinearSketch::identity) before trusting the shape.
    pub fn take_retired(&mut self) -> Option<L> {
        self.retired.take()
    }

    /// Indices `[lo, hi)` of the epochs overlapping `[from, to)`.
    fn select(&self, from: u64, to: u64) -> Result<(usize, usize), ArchiveError> {
        if to <= from {
            return Err(ArchiveError::EmptyRange { from, to });
        }
        let lo = self.epochs.iter().position(|e| e.end() > from);
        let lo = match lo {
            Some(i) if self.epochs[i].start < to => i,
            _ => return Err(ArchiveError::OutOfRange { from, to, coverage: self.coverage() }),
        };
        let mut hi = lo + 1;
        while hi < self.epochs.len() && self.epochs[hi].start < to {
            hi += 1;
        }
        Ok((lo, hi))
    }

    /// COMBINEs every epoch overlapping `[from, to)` into one sketch —
    /// exactly the sketch that direct ingest of the covered span would
    /// have produced, by linearity. The covered span is *snapped
    /// outward* to epoch boundaries; `covered` reports what was actually
    /// summed, which can be wider than requested once resolution has
    /// decayed.
    ///
    /// # Errors
    /// [`ArchiveError::EmptyRange`] / [`ArchiveError::OutOfRange`] on a
    /// degenerate or non-intersecting window.
    ///
    /// The sum is [`combine`](scd_sketch::LinearSketch::combine)'s: a zeroed accumulator, each
    /// epoch added with coefficient 1 in order — a packed epoch by adding
    /// its written registers alone, which leaves the accumulator's bits
    /// exactly where the dense add would (it starts at `+0.0`, so it never
    /// holds the `−0.0` an absent `+0.0` would change).
    pub fn range_sketch(&self, from: u64, to: u64) -> Result<RangeSketch<L>, ArchiveError> {
        let (lo, hi) = self.select(from, to)?;
        let mut sketch = self.newest().zero_like();
        for epoch in self.epochs.range(lo..hi) {
            match &epoch.table {
                Table::Dense(dense) => sketch.add_scaled(dense, 1.0)?,
                Table::Packed(packed) => {
                    packed.cells.add_into(sketch.cells_mut());
                    sketch.absorb_totals(&packed.totals);
                }
            }
        }
        Ok(RangeSketch {
            sketch,
            covered: (self.epochs[lo].start, self.epochs[hi - 1].end()),
            epochs_used: hi - lo,
        })
    }

    /// The directory's candidate keys for `[from, to)`: the union of the
    /// overlapping epochs' notable keys, weight-ranked. (Unbounded by
    /// `keys_per_epoch` only in the trivial sense of spanning several
    /// epochs; at most `epochs_used · keys_per_epoch` keys.)
    ///
    /// # Errors
    /// As [`range_sketch`](Self::range_sketch).
    pub fn candidate_keys(&self, from: u64, to: u64) -> Result<Vec<u64>, ArchiveError> {
        let (lo, hi) = self.select(from, to)?;
        let pooled = self.epochs.range(lo..hi).flat_map(|e| e.notable.iter().copied());
        Ok(rank_notable(pooled, usize::MAX).into_iter().map(|(key, _)| key).collect())
    }

    /// A key's accumulated value per retained epoch across `[from, to)`
    /// — the archive-resolution history of (say) a flow's forecast
    /// error. `mean` divides by the epoch width, making points of
    /// different resolutions comparable.
    ///
    /// # Errors
    /// As [`range_sketch`](Self::range_sketch).
    pub fn key_history(
        &self,
        key: u64,
        from: u64,
        to: u64,
    ) -> Result<Vec<HistoryPoint>, ArchiveError> {
        let (lo, hi) = self.select(from, to)?;
        let family = self.newest();
        Ok(self
            .epochs
            .range(lo..hi)
            .map(|e| {
                let total = match &e.table {
                    Table::Dense(sketch) => sketch.estimate(key),
                    Table::Packed(packed) => packed.estimate(family, key),
                };
                HistoryPoint { start: e.start, len: e.len, total, mean: total / e.len as f64 }
            })
            .collect())
    }

    /// `epoch`'s table dense: borrowed while it is held dense, otherwise
    /// unpacked into a new table of the archive's family — every register
    /// and read scalar the dense table had.
    ///
    /// # Panics
    /// If `epoch` is not one of this archive's.
    pub fn dense_sketch<'a>(&'a self, epoch: &'a Epoch<L>) -> Cow<'a, L> {
        match &epoch.table {
            Table::Dense(sketch) => Cow::Borrowed(sketch),
            Table::Packed(packed) => {
                let mut sketch = self.newest().zero_like();
                packed.unpack_into(&mut sketch);
                Cow::Owned(sketch)
            }
        }
    }
}

impl<L: CellTable + SecondMoment> SketchArchive<L> {
    /// Top changed keys over a past window, by the live detector's alarm
    /// rule applied to the range sketch: `TA = threshold · √max(F2, 0)`,
    /// keys with `|estimate| ≥ TA` (and nonzero) reported in decreasing
    /// magnitude. Candidates are the window's directory keys plus
    /// `extra_candidates` (sketches cannot enumerate keys, so the scan
    /// set must come from somewhere — same as the paper's §3.2 key
    /// strategies, but offline).
    ///
    /// # Errors
    /// As [`range_sketch`](Self::range_sketch).
    pub fn changed_keys(
        &self,
        from: u64,
        to: u64,
        threshold: f64,
        extra_candidates: &[u64],
    ) -> Result<ChangeQueryReport, ArchiveError> {
        let range = self.range_sketch(from, to)?;
        let f2 = range.sketch.estimate_f2();
        let alarm_threshold = threshold * f2.max(0.0).sqrt();
        let mut candidates = self.candidate_keys(from, to)?;
        candidates.extend_from_slice(extra_candidates);
        let mut seen = std::collections::HashSet::new();
        candidates.retain(|k| seen.insert(*k));
        // One batched scan of the range sketch, not one `estimate` per
        // candidate: a k-ary `estimate` rescans a row for `sum(S)` each call.
        let mut magnitudes = Vec::new();
        range.sketch.estimate_many(&candidates, &mut magnitudes);
        let mut changes: Vec<KeyChange> = candidates
            .into_iter()
            .zip(magnitudes)
            .map(|(key, magnitude)| KeyChange { key, magnitude })
            .filter(|c| c.magnitude.abs() >= alarm_threshold && c.magnitude.abs() > 0.0)
            .collect();
        changes.sort_by(|a, b| {
            b.magnitude.abs().total_cmp(&a.magnitude.abs()).then_with(|| a.key.cmp(&b.key))
        });
        Ok(ChangeQueryReport {
            requested: (from, to),
            covered: range.covered,
            epochs_used: range.epochs_used,
            error_f2: f2,
            alarm_threshold,
            changes,
        })
    }
}

/// Result of [`SketchArchive::range_sketch`].
#[derive(Debug, Clone)]
pub struct RangeSketch<L> {
    /// COMBINE of every overlapping epoch.
    pub sketch: L,
    /// `[start, end)` actually covered after snapping to epoch bounds.
    pub covered: (u64, u64),
    /// How many retained epochs were summed.
    pub epochs_used: usize,
}

/// One epoch's contribution to a key's history.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryPoint {
    /// First interval of the epoch.
    pub start: u64,
    /// Epoch width in intervals.
    pub len: u64,
    /// Estimated value accumulated for the key across the epoch.
    pub total: f64,
    /// `total / len`: per-interval rate, comparable across resolutions.
    pub mean: f64,
}

/// One key surfaced by [`SketchArchive::changed_keys`].
#[derive(Debug, Clone, PartialEq)]
pub struct KeyChange {
    /// The key.
    pub key: u64,
    /// Its estimated accumulated value over the covered window.
    pub magnitude: f64,
}

/// Result of [`SketchArchive::changed_keys`].
#[derive(Debug, Clone, PartialEq)]
pub struct ChangeQueryReport {
    /// The window as asked.
    pub requested: (u64, u64),
    /// The window as answered (snapped outward to epoch bounds).
    pub covered: (u64, u64),
    /// Epochs summed to answer.
    pub epochs_used: usize,
    /// `ESTIMATEF2` of the range sketch.
    pub error_f2: f64,
    /// `threshold · √max(F2, 0)` — the alarm bar applied.
    pub alarm_threshold: f64,
    /// Keys whose `|estimate| ≥` the bar, decreasing magnitude.
    pub changes: Vec<KeyChange>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use scd_sketch::{KarySketch, SketchConfig};

    fn cfg(max: usize, full: usize) -> ArchiveConfig {
        ArchiveConfig { max_sketches: max, full_resolution: full, keys_per_epoch: 8 }
    }

    fn proto() -> KarySketch {
        KarySketch::new(SketchConfig { h: 3, k: 256, seed: 5 })
    }

    fn push_n(archive: &mut SketchArchive<KarySketch>, n: u64) {
        let proto = proto();
        for t in 0..n {
            let mut s = proto.zero_like();
            s.update(t % 16, 1.0);
            archive.push(s, &[(t % 16, 1.0)]).unwrap();
        }
    }

    #[test]
    fn config_validation() {
        assert!(cfg(10, 4).validate().is_ok());
        assert!(cfg(5, 4).validate().is_err());
        assert!(ArchiveConfig { max_sketches: 8, full_resolution: 0, keys_per_epoch: 1 }
            .validate()
            .is_err());
        assert!(SketchArchive::<KarySketch>::new(cfg(3, 4)).is_err());
    }

    #[test]
    fn budget_and_coverage_invariants_hold_at_every_length() {
        let mut archive = SketchArchive::new(cfg(12, 4)).unwrap();
        let proto = proto();
        for t in 0..300u64 {
            let mut s = proto.zero_like();
            s.update(t, 1.0);
            archive.push(s, &[]).unwrap();
            assert!(archive.sketch_count() <= 12, "t={t}: {} epochs", archive.sketch_count());
            assert_eq!(archive.coverage(), Some((0, t + 1)), "t={t}: coverage gap");
            // Contiguity, oldest first.
            let mut expect = 0;
            for e in archive.epochs() {
                assert_eq!(e.start(), expect, "t={t}");
                expect = e.end();
            }
            // The protected window stays at width 1.
            let protected_from = (t + 1).saturating_sub(4);
            for e in archive.epochs().filter(|e| e.start() >= protected_from) {
                assert_eq!(e.len(), 1, "t={t}: protected epoch at {} was merged", e.start());
            }
        }
    }

    #[test]
    fn ample_budget_produces_power_of_two_epochs() {
        // 16 sketches comfortably hold 500 intervals in binary-counter
        // form, so only aligned buddy merges ever fire and every epoch
        // stays a power of two at an aligned start.
        let mut archive = SketchArchive::new(cfg(16, 3)).unwrap();
        push_n(&mut archive, 500);
        for e in archive.epochs() {
            assert!(e.len().is_power_of_two(), "epoch at {} has width {}", e.start(), e.len());
            assert_eq!(e.start() % e.len(), 0, "epoch at {} misaligned", e.start());
        }
        assert!(archive.sketch_count() <= 16);
        assert_eq!(archive.coverage(), Some((0, 500)));
    }

    #[test]
    fn tight_budget_falls_back_but_never_loses_coverage() {
        // 10 sketches cannot hold 500 intervals in pure dyadic form; the
        // oldest epochs absorb fallback merges. Coverage and budget must
        // still hold, and the decay must be monotone: older epochs are
        // never finer than the newest non-protected ones would allow.
        let mut archive = SketchArchive::new(cfg(10, 3)).unwrap();
        push_n(&mut archive, 500);
        assert!(archive.sketch_count() <= 10);
        assert_eq!(archive.coverage(), Some((0, 500)));
        // All the non-power-of-two widths (if any) sit at the old end.
        let widths: Vec<u64> = archive.epochs().map(|e| e.len()).collect();
        let first_pow2_suffix = widths
            .iter()
            .position(|w| w.is_power_of_two())
            .expect("the protected width-1 epochs are powers of two");
        assert!(
            widths[first_pow2_suffix..].iter().all(|w| w.is_power_of_two()),
            "irregular widths not confined to the old end: {widths:?}"
        );
    }

    #[test]
    fn directory_stays_bounded_and_ranked() {
        let mut archive = SketchArchive::new(ArchiveConfig {
            max_sketches: 6,
            full_resolution: 2,
            keys_per_epoch: 3,
        })
        .unwrap();
        let proto = proto();
        for t in 0..64u64 {
            let mut s = proto.zero_like();
            s.update(t % 8, 1.0);
            let notable: Vec<(u64, f64)> = (0..8u64).map(|k| (k, (k + 1) as f64)).collect();
            archive.push(s, &notable).unwrap();
        }
        for e in archive.epochs() {
            assert!(e.notable().len() <= 3);
            // Highest-weight keys survive the merges: weights accumulate,
            // so keys 7, 6, 5 dominate everywhere.
            let keys: Vec<u64> = e.notable().iter().map(|&(k, _)| k).collect();
            assert_eq!(keys, vec![7, 6, 5], "epoch at {}", e.start());
        }
    }

    #[test]
    fn push_rejects_foreign_family() {
        let mut archive = SketchArchive::new(cfg(8, 2)).unwrap();
        archive.push(proto(), &[]).unwrap();
        let foreign = KarySketch::new(SketchConfig { h: 3, k: 256, seed: 6 });
        assert!(matches!(archive.push(foreign, &[]), Err(ArchiveError::Sketch(_))));
    }

    #[test]
    fn select_edge_cases() {
        let mut archive = SketchArchive::new(cfg(8, 2)).unwrap();
        push_n(&mut archive, 10);
        assert!(matches!(
            archive.range_sketch(5, 5),
            Err(ArchiveError::EmptyRange { from: 5, to: 5 })
        ));
        assert!(matches!(archive.range_sketch(7, 3), Err(ArchiveError::EmptyRange { .. })));
        assert!(matches!(
            archive.range_sketch(10, 20),
            Err(ArchiveError::OutOfRange { coverage: Some((0, 10)), .. })
        ));
        let empty = SketchArchive::<KarySketch>::new(cfg(8, 2)).unwrap();
        assert!(matches!(
            empty.range_sketch(0, 1),
            Err(ArchiveError::OutOfRange { coverage: None, .. })
        ));
        // Partial overlap snaps outward.
        let r = archive.range_sketch(9, 20).unwrap();
        assert_eq!(r.covered.1, 10);
    }

    #[test]
    fn memory_is_bounded_by_budget() {
        let mut archive = SketchArchive::new(cfg(8, 2)).unwrap();
        push_n(&mut archive, 200);
        let per_sketch = proto().memory_bytes();
        let bound = 8 * (per_sketch + 8 * 16);
        assert!(archive.memory_bytes() <= bound, "{} > {bound}", archive.memory_bytes());
    }
}
