//! A packing archive answers with a dense archive's bits. Each case feeds
//! the same pushes to a `SketchArchive` — which holds every epoch but the
//! newest packed when that halves it — and to a dense reference kept here
//! (the buddy-merge compaction over plain tables), for the engine's fat
//! `KarySketch` and the serving replica's slim `SlimEpoch`, at H ∈ {1, 5}
//! and K ∈ {1 024, 65 536}. After every push it compares, by `to_bits()`:
//! every epoch's dense registers and read scalars; `range_sketch`,
//! `key_history` and `changed_keys` over every epoch-aligned window;
//! `memory_bytes` against the packing rule; and, for the fat archive, the
//! `SCDARCH1` bytes against the dense encoding.
//!
//! The pushes reach every corner the packed form has to get right: `±0.0`,
//! NaN, ±inf and subnormal registers; all-`+0.0` tables and rows whose
//! only written register is `−0.0` (the `Iterator::sum` trap: such a row
//! totals `+0.0` densely and `−0.0` over its written cells alone); a
//! dense epoch between packed ones; and merges of packed with packed, of
//! packed with dense, and of dense with dense.

use scd_archive::{wire, ArchiveConfig, Epoch, SketchArchive};
use scd_hash::{byteio, envelope, SplitMix64};
use scd_serve::{SharedSketch, SlimEpoch, SlimSketch};
use scd_sketch::{wire as sketch_wire, CellTable, KarySketch, SecondMoment, SketchConfig};
use std::collections::HashSet;

const SEED: u64 = 0x9AC4;

/// The key whose buckets hold the lone `−0.0` of a trap interval.
const TRAP_KEY: u64 = 0xDEAD_BEEF;

/// What an interval's table looks like.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Shape {
    /// ~3 % of registers written, with every awkward value.
    Sparse,
    /// ~70 % written: an epoch that stays dense.
    Dense,
    /// `−0.0` at `TRAP_KEY`'s bucket of every row, `+0.0` elsewhere.
    Trap,
    /// All `+0.0`, as a warm-up back-fill.
    Zero,
}

/// Intervals 4–5 pair up as a buddy of two trap tables; 9 and 16 are
/// dense amid sparse neighbours; 12–13 are zero.
fn shape(t: u64) -> Shape {
    match t {
        4 | 5 => Shape::Trap,
        9 | 16 => Shape::Dense,
        12 | 13 => Shape::Zero,
        _ => Shape::Sparse,
    }
}

/// A written register's value: everything a table may hold. The tiny
/// ones are subnormal in `f64`, or in `f32` after a slim projection.
///
/// Rust leaves unspecified which payload the sum of two NaNs carries — the
/// dense add kernel's own choice differs between debug and release
/// builds — so no register is ever handed two NaNs of different bits:
/// every NaN here is `f64::NAN`, and a register's infinities all have the
/// sign of its index parity, so no `∞ − ∞` makes the other NaN.
fn awkward(rng: &mut SplitMix64, cell: usize) -> f64 {
    let inf = if cell % 2 == 0 { f64::INFINITY } else { f64::NEG_INFINITY };
    match rng.next_below(12) {
        0 => -0.0,
        1 => f64::NAN,
        2 | 3 => inf,
        4 => f64::MIN_POSITIVE / 3.0,
        5 => -1.0e-40,
        6 => 3.0e-41,
        7 => (rng.next_below(1 << 20) as f64) - (1 << 19) as f64,
        _ => (rng.next_below(1 << 40) as f64 / (1u64 << 20) as f64 - 5.0e5) * 1.000_000_3,
    }
}

/// Interval `t`'s fat table over `proto`'s family.
fn fat_table(proto: &KarySketch, t: u64) -> KarySketch {
    let mut sketch = proto.zero_like();
    let (h, k) = (proto.h(), proto.k());
    let mut rng = SplitMix64::new(SEED ^ t.wrapping_mul(0x9E37_79B9));
    match shape(t) {
        Shape::Zero => {}
        Shape::Trap => {
            for row in 0..h {
                let cell = row * k + proto.rows().bucket(row, TRAP_KEY);
                sketch.table_mut()[cell] = -0.0;
            }
        }
        Shape::Sparse | Shape::Dense => {
            let per_100 = if shape(t) == Shape::Dense { 70 } else { 3 };
            for (i, cell) in sketch.table_mut().iter_mut().enumerate() {
                if rng.next_below(100) < per_100 {
                    *cell = awkward(&mut rng, i);
                }
            }
        }
    }
    sketch
}

/// The per-interval directory entries: a few keys, so `changed_keys` has
/// candidates to rank.
fn notable(t: u64) -> Vec<(u64, f64)> {
    (0..6u64).map(|i| ((t * 7 + i * 13) % 40, (i + 1) as f64)).collect()
}

/// Keys every query asks about: the trap key and eleven others, some of
/// them directory keys.
fn probe_keys() -> Vec<u64> {
    std::iter::once(TRAP_KEY).chain((0..40).step_by(4)).chain([1 << 40]).collect()
}

/// The bits a case compares, per element type.
trait Element: CellTable + SecondMoment + std::fmt::Debug {
    /// Interval `t` as this element type.
    fn from_fat(fat: &KarySketch) -> Self;
    /// Every register's bits.
    fn cell_bits(&self) -> Vec<u64>;
    /// The read scalars' bits, as the table carries them.
    fn scalar_bits(&self) -> Vec<u64>;
    /// The read scalars' bits a packed epoch keeps, where the element's
    /// own unpacked table would recompute rather than carry them.
    fn stored_bits(_: &Self::Totals) -> Option<Vec<u64>> {
        None
    }
}

impl Element for KarySketch {
    fn from_fat(fat: &KarySketch) -> Self {
        fat.clone()
    }

    fn cell_bits(&self) -> Vec<u64> {
        self.table().iter().map(|c| c.to_bits()).collect()
    }

    fn scalar_bits(&self) -> Vec<u64> {
        vec![self.sum().to_bits()]
    }

    fn stored_bits(sum: &f64) -> Option<Vec<u64>> {
        Some(vec![sum.to_bits()])
    }
}

impl Element for SlimEpoch {
    fn from_fat(fat: &KarySketch) -> Self {
        SharedSketch::new(SlimSketch::from_fat(fat))
    }

    fn cell_bits(&self) -> Vec<u64> {
        self.get().table().iter().map(|c| u64::from(c.to_bits())).collect()
    }

    fn scalar_bits(&self) -> Vec<u64> {
        let slim = self.get();
        slim.row_sums().iter().map(|s| s.to_bits()).chain([slim.error_bound().to_bits()]).collect()
    }
}

/// The dense archive the packing one must equal: the same buddy-merge
/// compaction over plain tables, each merge a dense `add_scaled`.
struct DenseArchive<L> {
    config: ArchiveConfig,
    next: u64,
    /// `(start, len, table)`, oldest first.
    epochs: Vec<(u64, u64, L)>,
}

impl<L: CellTable> DenseArchive<L> {
    fn new(config: ArchiveConfig) -> Self {
        DenseArchive { config, next: 0, epochs: Vec::new() }
    }

    fn push(&mut self, table: L) {
        self.epochs.push((self.next, 1, table));
        self.next += 1;
        while self.epochs.len() > self.config.max_sketches {
            let protected_from = self.next.saturating_sub(self.config.full_resolution as u64);
            let unprotected = self.epochs.iter().filter(|e| e.0 + e.1 <= protected_from).count();
            assert!(unprotected >= 2, "a valid config always has a pair to merge");
            let pick = (0..unprotected - 1)
                .find(|&i| {
                    let (left, right) = (&self.epochs[i], &self.epochs[i + 1]);
                    left.1 == right.1 && left.0 % (2 * left.1) == 0
                })
                .unwrap_or(0);
            let (_, len, right) = self.epochs.remove(pick + 1);
            let left = &mut self.epochs[pick];
            left.2.add_scaled(&right, 1.0).unwrap();
            left.1 += len;
        }
    }

    /// COMBINE of epochs `lo..hi` for every `hi`, as
    /// `LinearSketch::combine` builds each: a zeroed table, then every
    /// epoch added with coefficient 1, in order.
    fn ranges_from(&self, lo: usize) -> Vec<L> {
        let mut sum = self.epochs[lo].2.zero_like();
        let mut ranges = Vec::new();
        for epoch in &self.epochs[lo..] {
            sum.add_scaled(&epoch.2, 1.0).unwrap();
            ranges.push(sum.clone());
        }
        ranges
    }
}

/// Bytes the packing rule says an archive with the reference's epochs
/// holds: the newest dense, every other one packed at `4 + size_of(cell)`
/// bytes a written register when that is at most half its dense bytes.
fn expected_bytes<L: Element>(reference: &DenseArchive<L>, archive: &SketchArchive<L>) -> usize {
    let cell = std::mem::size_of::<L::Cell>();
    let last = reference.epochs.len() - 1;
    let tables: usize = reference
        .epochs
        .iter()
        .enumerate()
        .map(|(i, (_, _, table))| {
            let dense = table.memory_bytes();
            let written = table.cell_bits().iter().filter(|&&b| b != 0).count();
            let packed = written * (4 + cell);
            if i < last && 2 * packed <= dense {
                packed
            } else {
                dense
            }
        })
        .sum();
    let directory: usize = archive.epochs().map(|e| e.notable().len() * 16).sum();
    tables + directory
}

/// The dense `SCDARCH1` encoding of the reference's epochs, with the
/// packing archive's directory (packing leaves the directory alone).
fn dense_bytes(
    reference: &DenseArchive<KarySketch>,
    archive: &SketchArchive<KarySketch>,
) -> Vec<u8> {
    let mut out = wire::MAGIC.to_vec();
    let config = archive.config();
    byteio::put_u32(&mut out, config.max_sketches as u32);
    byteio::put_u32(&mut out, config.full_resolution as u32);
    byteio::put_u32(&mut out, config.keys_per_epoch as u32);
    byteio::put_u64(&mut out, reference.next);
    byteio::put_u32(&mut out, reference.epochs.len() as u32);
    for ((start, len, table), epoch) in reference.epochs.iter().zip(archive.epochs()) {
        byteio::put_u64(&mut out, *start);
        byteio::put_u64(&mut out, *len);
        byteio::put_u32(&mut out, epoch.notable().len() as u32);
        for &(key, weight) in epoch.notable() {
            byteio::put_u64(&mut out, key);
            byteio::put_f64(&mut out, weight);
        }
        envelope::put_blob(&mut out, &sketch_wire::to_bytes(table));
    }
    envelope::seal(&mut out);
    out
}

/// `changed_keys` as the archive computes it, over the reference's range
/// table: the live alarm rule over the directory's candidates plus
/// `extra`, first-seen order, decreasing magnitude.
fn changed_oracle<L: Element>(range: &L, candidates: Vec<u64>, extra: &[u64]) -> Vec<(u64, u64)> {
    let f2 = range.estimate_f2();
    let bar = 0.01 * f2.max(0.0).sqrt();
    let mut seen = HashSet::new();
    let keys: Vec<u64> =
        candidates.into_iter().chain(extra.iter().copied()).filter(|k| seen.insert(*k)).collect();
    let mut magnitudes = Vec::new();
    range.estimate_many(&keys, &mut magnitudes);
    let mut changes: Vec<(u64, f64)> = keys
        .into_iter()
        .zip(magnitudes)
        .filter(|&(_, m)| m.abs() >= bar && m.abs() > 0.0)
        .collect();
    changes.sort_by(|a, b| b.1.abs().total_cmp(&a.1.abs()).then_with(|| a.0.cmp(&b.0)));
    changes.into_iter().map(|(key, m)| (key, m.to_bits())).collect()
}

fn epoch_bits<L: Element>(archive: &SketchArchive<L>, epoch: &Epoch<L>) -> (Vec<u64>, Vec<u64>) {
    let dense = archive.dense_sketch(epoch);
    (dense.cell_bits(), dense.scalar_bits())
}

/// One case: `pushes` intervals through both archives, every comparison
/// after every push. Returns the packing archive, how many times a check
/// found an epoch packed, and how many times a dense one besides the
/// newest.
fn check<L: Element>(
    h: usize,
    k: usize,
    pushes: u64,
    dense_bytes_check: impl Fn(&SketchArchive<L>, &DenseArchive<L>),
) -> (SketchArchive<L>, usize, usize) {
    let config = ArchiveConfig { max_sketches: 6, full_resolution: 2, keys_per_epoch: 4 };
    let proto = KarySketch::new(SketchConfig { h, k, seed: SEED });
    let mut archive = SketchArchive::<L>::new(config).unwrap();
    let mut reference = DenseArchive::<L>::new(config);
    let keys = probe_keys();
    let (mut packed_seen, mut dense_seen) = (0, 0);
    for t in 0..pushes {
        let fat = fat_table(&proto, t);
        archive.push(L::from_fat(&fat), &notable(t)).unwrap();
        reference.push(L::from_fat(&fat));
        let case = format!("H = {h}, K = {k}, after push {t}");

        let epochs: Vec<&Epoch<L>> = archive.epochs().collect();
        assert_eq!(epochs.len(), reference.epochs.len(), "{case}: epoch count");
        assert!(epochs.last().unwrap().sketch().is_some(), "{case}: the newest epoch is dense");
        for (i, (epoch, (start, len, table))) in epochs.iter().zip(&reference.epochs).enumerate() {
            let at = format!("{case}, epoch {i} [{start}, +{len})");
            assert_eq!((epoch.start(), epoch.len()), (*start, *len), "{at}: span");
            let (cells, scalars) = epoch_bits(&archive, epoch);
            assert!(cells == table.cell_bits(), "{at}: registers");
            assert_eq!(scalars, table.scalar_bits(), "{at}: read scalars");
            match epoch.packed() {
                Some(packed) => {
                    packed_seen += 1;
                    if let Some(stored) = L::stored_bits(packed.totals()) {
                        assert_eq!(stored, table.scalar_bits(), "{at}: stored scalars");
                    }
                }
                None if i + 1 < epochs.len() => dense_seen += 1,
                None => {}
            }
        }
        assert_eq!(archive.memory_bytes(), expected_bytes(&reference, &archive), "{case}: bytes");
        dense_bytes_check(&archive, &reference);

        // Each reference epoch's estimates, once: a fat `estimate` rescans
        // row 0 for the stream total on every call.
        let estimates: Vec<Vec<u64>> = reference
            .epochs
            .iter()
            .map(|e| keys.iter().map(|&key| e.2.estimate(key).to_bits()).collect())
            .collect();
        let n = epochs.len();
        for lo in 0..n {
            for (hi, want) in (lo + 1..=n).zip(reference.ranges_from(lo)) {
                let (from, to) = (epochs[lo].start(), epochs[hi - 1].end());
                let at = format!("{case}, window [{from}, {to})");
                let got = archive.range_sketch(from, to).unwrap();
                assert_eq!(got.covered, (from, to), "{at}: covered");
                assert!(got.sketch.cell_bits() == want.cell_bits(), "{at}: range registers");
                assert_eq!(got.sketch.scalar_bits(), want.scalar_bits(), "{at}: range scalars");
                for (i, &key) in keys.iter().enumerate() {
                    let history = archive.key_history(key, from, to).unwrap();
                    let want: Vec<u64> = estimates[lo..hi].iter().map(|e| e[i]).collect();
                    let got: Vec<u64> = history.iter().map(|p| p.total.to_bits()).collect();
                    assert_eq!(got, want, "{at}: key_history({key:#x})");
                }
                let report = archive.changed_keys(from, to, 0.01, &keys[..8]).unwrap();
                assert_eq!(report.error_f2.to_bits(), want.estimate_f2().to_bits(), "{at}: F2");
                let got: Vec<(u64, u64)> =
                    report.changes.iter().map(|c| (c.key, c.magnitude.to_bits())).collect();
                let candidates = archive.candidate_keys(from, to).unwrap();
                assert_eq!(
                    got,
                    changed_oracle(&want, candidates, &keys[..8]),
                    "{at}: changed_keys"
                );
            }
        }
    }
    (archive, packed_seen, dense_seen)
}

/// The fat archive writes the dense `SCDARCH1` bytes from packed epochs.
fn same_archive_bytes(archive: &SketchArchive<KarySketch>, reference: &DenseArchive<KarySketch>) {
    let bytes = wire::to_bytes(archive);
    assert!(
        bytes == dense_bytes(reference, archive),
        "SCDARCH1 bytes differ from the dense encoding"
    );
}

/// The shapes: H ∈ {1, 5}, K ∈ {1 024, 65 536}. Twelve pushes reach the
/// trap pair's merge and interval 9's dense epoch between packed ones;
/// fourteen, its merge with packed interval 8.
const CASES: [(usize, usize, u64); 4] =
    [(1, 1024, 24), (5, 1024, 24), (1, 65_536, 14), (5, 65_536, 12)];

fn run<L: Element>(
    bytes: impl Fn(&SketchArchive<L>, &DenseArchive<L>) + Copy,
) -> Vec<SketchArchive<L>> {
    CASES
        .iter()
        .map(|&(h, k, pushes)| {
            let (archive, packed, dense) = check::<L>(h, k, pushes, bytes);
            assert!(packed > 15, "H = {h}, K = {k}: only {packed} packed epochs seen");
            assert!(dense >= 2, "H = {h}, K = {k}: only {dense} dense older epochs seen");
            archive
        })
        .collect()
}

#[test]
fn packed_fat_archive_equals_the_dense_one() {
    for archive in run::<KarySketch>(same_archive_bytes) {
        // Loading packs by the same rule, and writes the same bytes back.
        let bytes = wire::to_bytes(&archive);
        let reloaded = wire::from_bytes(&bytes).unwrap();
        assert!(wire::to_bytes(&reloaded) == bytes, "a reloaded archive writes other bytes");
        assert_eq!(reloaded.memory_bytes(), archive.memory_bytes(), "a reload packs alike");
    }
}

#[test]
fn packed_slim_archive_equals_the_dense_one() {
    run::<SlimEpoch>(|_, _| {});
}
