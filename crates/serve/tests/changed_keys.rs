//! `SketchArchive::changed_keys` scores its candidates through one
//! batched `estimate_many` scan of the range sketch. The answer must be
//! the one the per-key loop gave — same keys, same magnitudes to the bit,
//! same order — for the engine's fat `f64` archive and for the serving
//! replica's slim `f32` one, including windows that split a buddy-merged
//! epoch and snap outward.

use scd_archive::{ArchiveConfig, KeyChange, SketchArchive};
use scd_hash::SplitMix64;
use scd_serve::{SlimEpoch, SlimSketch};
use scd_sketch::{CellTable, KarySketch, SecondMoment, SketchConfig};

/// Fractional volumes over 600 keys, so slim cells really round. (The
/// batch estimator's tile edges are `scd-sketch`'s `kernel_identity` and
/// the slim unit tests' business; these windows fit one tile.)
fn interval_updates(t: u64) -> Vec<(u64, f64)> {
    let mut rng = SplitMix64::new(0xC4A9 ^ t);
    (0..600u64)
        .map(|k| (k * 2_654_435_761 % (1 << 32), (rng.next_below(10_000) as f64 + 0.37) * 1.000_1))
        .collect()
}

/// The pre-batching `changed_keys`, kept as the oracle: dedup in
/// first-seen order, one `estimate` per key, the live alarm rule, a
/// stable `total_cmp` sort.
fn per_key_oracle<L: CellTable + SecondMoment>(
    archive: &SketchArchive<L>,
    (from, to): (u64, u64),
    threshold: f64,
    extra: &[u64],
) -> Vec<KeyChange> {
    let range = archive.range_sketch(from, to).unwrap();
    let bar = threshold * range.sketch.estimate_f2().max(0.0).sqrt();
    let mut candidates = archive.candidate_keys(from, to).unwrap();
    candidates.extend_from_slice(extra);
    let mut seen = std::collections::HashSet::new();
    let mut changes: Vec<KeyChange> = candidates
        .into_iter()
        .filter(|k| seen.insert(*k))
        .map(|key| KeyChange { key, magnitude: range.sketch.estimate(key) })
        .filter(|c| c.magnitude.abs() >= bar && c.magnitude.abs() > 0.0)
        .collect();
    changes.sort_by(|a, b| {
        b.magnitude.abs().total_cmp(&a.magnitude.abs()).then_with(|| a.key.cmp(&b.key))
    });
    changes
}

fn batched_answers_equal_the_per_key_oracle<L: CellTable + SecondMoment>(
    epoch: impl Fn(&KarySketch) -> L,
) {
    let config = ArchiveConfig { max_sketches: 8, full_resolution: 3, keys_per_epoch: 512 };
    let mut archive: SketchArchive<L> = SketchArchive::new(config).unwrap();
    let proto = KarySketch::new(SketchConfig { h: 5, k: 1024, seed: 0xA7C4 });
    // Push until three buddy merges have happened, so wide epochs sit in
    // the middle of coverage.
    let mut t = 0u64;
    while archive.merges_total() < 3 {
        let updates = interval_updates(t);
        let mut fat = proto.zero_like();
        for &(key, v) in &updates {
            fat.update(key, v);
        }
        archive.push(epoch(&fat), &updates).unwrap();
        t += 1;
    }
    let (first, last) = archive.coverage().unwrap();
    let (mstart, mend) = archive
        .epochs()
        .find(|e| e.len() >= 2)
        .map(|e| (e.start(), e.end()))
        .expect("three merges leave a wide epoch");
    // Keys the directory already lists (so dedup has work), plus keys no
    // interval carried.
    let extra: Vec<u64> = interval_updates(0)
        .iter()
        .take(40)
        .map(|&(k, _)| k)
        .chain(1 << 40..(1 << 40) + 40)
        .collect();
    for window in [(mstart + 1, mend + 1), (first, last), (last - 1, last)] {
        for threshold in [1e-6, 0.02, 0.5] {
            let got = archive.changed_keys(window.0, window.1, threshold, &extra).unwrap();
            let expect = per_key_oracle(&archive, window, threshold, &extra);
            assert_eq!(got.changes, expect, "window {window:?} threshold {threshold}");
        }
    }
}

#[test]
fn fat_archive_changed_keys_match_per_key_scan() {
    batched_answers_equal_the_per_key_oracle(KarySketch::clone);
}

#[test]
fn slim_archive_changed_keys_match_per_key_scan() {
    batched_answers_equal_the_per_key_oracle(|fat| SlimEpoch::new(SlimSketch::from_fat(fat)));
}
