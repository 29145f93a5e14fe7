//! End-to-end properties of the multi-resolution archive: queries answer
//! exactly what direct ingest of the covered span would, changes injected
//! into the past stay findable after resolution decay, and the archive is
//! genuinely generic over linear summaries.

use scd_archive::{ArchiveConfig, ArchiveError, SketchArchive};
use scd_bench::CountSketch;
use scd_hash::SplitMix64;
use scd_sketch::{KarySketch, SketchConfig};

fn proto() -> KarySketch {
    KarySketch::new(SketchConfig { h: 5, k: 1024, seed: 77 })
}

/// Per-interval synthetic traffic: 32 steady keys with integer volumes
/// (so all sums are exact in f64), deterministic per interval.
fn interval_updates(t: u64) -> Vec<(u64, f64)> {
    let mut rng = SplitMix64::new(0x7AFF1C ^ t);
    (0..32u64).map(|k| (k, (rng.next_below(100) + 1) as f64)).collect()
}

fn build_archive(
    config: ArchiveConfig,
    intervals: u64,
    inject: impl Fn(u64) -> Option<(u64, f64)>,
) -> SketchArchive<KarySketch> {
    let proto = proto();
    let mut archive = SketchArchive::new(config).unwrap();
    for t in 0..intervals {
        let mut s = proto.zero_like();
        let mut notable: Vec<(u64, f64)> = Vec::new();
        for (key, v) in interval_updates(t) {
            s.update(key, v);
            notable.push((key, v));
        }
        if let Some((key, v)) = inject(t) {
            s.update(key, v);
            notable.push((key, v));
        }
        archive.push(s, &notable).unwrap();
    }
    archive
}

#[test]
fn range_sketch_is_bit_identical_to_direct_ingest() {
    let config = ArchiveConfig { max_sketches: 10, full_resolution: 3, keys_per_epoch: 8 };
    let archive = build_archive(config, 128, |_| None);
    // Query a window; replay the *covered* span directly into one sketch.
    let range = archive.range_sketch(40, 90).unwrap();
    let (lo, hi) = range.covered;
    assert!(lo <= 40 && hi >= 90, "covered {lo}..{hi} does not contain 40..90");
    let mut direct = proto().zero_like();
    for t in lo..hi {
        for (key, v) in interval_updates(t) {
            direct.update(key, v);
        }
    }
    // Integer volumes ⇒ every cell is an exact sum ⇒ decay (COMBINE)
    // cannot perturb a single bit relative to direct ingest.
    assert_eq!(range.sketch.table(), direct.table());
    assert_eq!(range.sketch.estimate_f2(), direct.estimate_f2());
}

#[test]
fn injected_past_change_survives_resolution_decay() {
    let config = ArchiveConfig { max_sketches: 8, full_resolution: 2, keys_per_epoch: 16 };
    let burst_key = 0xBAD_u64;
    // A burst at interval 50, long since decayed into a coarse epoch by
    // interval 400.
    let archive = build_archive(config, 400, |t| (t == 50).then_some((burst_key, 250_000.0)));
    let report = archive.changed_keys(32, 64, 0.2, &[]).unwrap();
    assert!(!report.changes.is_empty(), "no changes surfaced");
    assert_eq!(report.changes[0].key, burst_key, "burst key not ranked first: {report:?}");
    assert!(report.changes[0].magnitude > 200_000.0);
    assert!(report.alarm_threshold > 0.0);
    // A quiet window that *doesn't* snap onto the burst epoch (the recent
    // full-resolution region) does not implicate the key.
    let quiet = archive.changed_keys(396, 400, 0.2, &[burst_key]).unwrap();
    assert!(quiet.covered.0 > 64, "window snapped over the burst: {:?}", quiet.covered);
    assert!(
        quiet.changes.iter().all(|c| c.key != burst_key),
        "burst key alarmed in a quiet window: {quiet:?}"
    );
}

#[test]
fn key_history_localizes_the_burst() {
    let config = ArchiveConfig { max_sketches: 12, full_resolution: 4, keys_per_epoch: 8 };
    let burst_key = 7_u64; // also a steady key: history = baseline + burst
    let archive = build_archive(config, 256, |t| (t == 100).then_some((burst_key, 500_000.0)));
    let history = archive.key_history(burst_key, 0, 256).unwrap();
    assert_eq!(history.len(), archive.sketch_count());
    // Exactly the epoch containing interval 100 carries the burst mass.
    for point in &history {
        let has_burst = point.start <= 100 && 100 < point.start + point.len;
        if has_burst {
            assert!(point.total > 400_000.0, "burst epoch {point:?} missing mass");
        } else {
            // Steady traffic: ≤ 100 per interval per key plus sketch noise.
            assert!(point.mean < 5_000.0, "quiet epoch {point:?} shows burst mass");
        }
    }
    // Points tile the covered range in order.
    let mut expect = history[0].start;
    for point in &history {
        assert_eq!(point.start, expect);
        expect = point.start + point.len;
    }
    assert_eq!(expect, 256);
}

#[test]
fn directory_feeds_queries_even_without_explicit_candidates() {
    let config = ArchiveConfig { max_sketches: 8, full_resolution: 2, keys_per_epoch: 4 };
    let archive = build_archive(config, 96, |t| (t == 30).then_some((999, 1_000_000.0)));
    // The burst key was never passed to the query: the per-epoch
    // directory alone must remember it across merges.
    let candidates = archive.candidate_keys(16, 48).unwrap();
    assert!(candidates.contains(&999), "directory forgot the burst key: {candidates:?}");
    let report = archive.changed_keys(16, 48, 0.2, &[]).unwrap();
    assert_eq!(report.changes[0].key, 999);
}

#[test]
fn archive_is_generic_over_count_sketch() {
    let config = ArchiveConfig { max_sketches: 8, full_resolution: 2, keys_per_epoch: 8 };
    let proto = CountSketch::new(5, 1024, 3);
    let mut archive = SketchArchive::new(config).unwrap();
    for t in 0..64u64 {
        let mut s = proto.zero_like();
        for (key, v) in interval_updates(t) {
            s.update(key, v);
        }
        if t == 20 {
            s.update(4242, 100_000.0);
        }
        archive.push(s, &[(4242, if t == 20 { 100_000.0 } else { 0.0 })]).unwrap();
    }
    assert!(archive.sketch_count() <= 8);
    let report = archive.changed_keys(16, 32, 0.2, &[]).unwrap();
    assert_eq!(report.changes[0].key, 4242);
}

#[test]
fn queries_reject_bad_windows_with_typed_errors() {
    let config = ArchiveConfig { max_sketches: 8, full_resolution: 2, keys_per_epoch: 4 };
    let archive = build_archive(config, 32, |_| None);
    assert!(matches!(
        archive.changed_keys(10, 10, 0.05, &[]),
        Err(ArchiveError::EmptyRange { .. })
    ));
    assert!(matches!(
        archive.key_history(1, 40, 50),
        Err(ArchiveError::OutOfRange { coverage: Some((0, 32)), .. })
    ));
}

/// Pushes intervals one at a time until the archive performs its next
/// buddy merge, returning the interval count at which it happened.
fn push_until_next_merge(archive: &mut SketchArchive<KarySketch>, mut t: u64) -> u64 {
    let before = archive.merges_total();
    loop {
        let mut s = proto().zero_like();
        let mut notable: Vec<(u64, f64)> = Vec::new();
        for (key, v) in interval_updates(t) {
            s.update(key, v);
            notable.push((key, v));
        }
        archive.push(s, &notable).unwrap();
        t += 1;
        if archive.merges_total() > before {
            return t;
        }
    }
}

/// A range query that straddles a *just-merged* buddy pair answers
/// exactly what direct ingest of the snapped-outward window would: the
/// merge coarsens coverage granularity but never perturbs a register
/// bit (integer volumes make every cell an exact sum).
#[test]
fn range_straddling_a_just_merged_pair_is_exact() {
    let config = ArchiveConfig { max_sketches: 8, full_resolution: 3, keys_per_epoch: 8 };
    let mut archive = SketchArchive::new(config).unwrap();
    let mut pushed = push_until_next_merge(&mut archive, 0);
    // Do it twice more so merged epochs sit in the middle of coverage,
    // not at its very edge.
    pushed = push_until_next_merge(&mut archive, pushed);
    pushed = push_until_next_merge(&mut archive, pushed);
    // Find a merged epoch (len ≥ 2) with a neighbor on each side.
    let merged = archive
        .epochs()
        .find(|e| e.len() >= 2)
        .map(|e| (e.start(), e.end()))
        .expect("a merge just happened, so a wide epoch exists");
    let (mstart, mend) = merged;
    // Ask for a window that splits the merged pair down the middle: it
    // must snap outward to whole epochs on both sides.
    let mid = mstart + 1;
    let range = archive.range_sketch(mid, mend + 1).unwrap();
    let (lo, hi) = range.covered;
    assert!(lo <= mstart && hi >= mend, "covered [{lo}, {hi}) does not swallow the merged pair");
    assert!(lo >= archive.coverage().unwrap().0);
    let mut direct = proto().zero_like();
    for t in lo..hi {
        for (key, v) in interval_updates(t) {
            direct.update(key, v);
        }
    }
    assert_eq!(range.sketch.table(), direct.table(), "merged-boundary range diverged");
    let _ = pushed;
}

/// `key_history` across a just-merged pair reports the pair as ONE point
/// whose width, total and mean reflect the merged epoch — and the total
/// equals the estimate from direct ingest of those intervals bit for
/// bit.
#[test]
fn key_history_across_a_just_merged_pair_collapses_to_one_point() {
    let config = ArchiveConfig { max_sketches: 8, full_resolution: 3, keys_per_epoch: 8 };
    let mut archive = SketchArchive::new(config).unwrap();
    let mut t = push_until_next_merge(&mut archive, 0);
    t = push_until_next_merge(&mut archive, t);
    let (mstart, mend, mlen) = archive
        .epochs()
        .find(|e| e.len() >= 2)
        .map(|e| (e.start(), e.end(), e.len()))
        .expect("merged epoch exists");
    let key = 7u64; // one of the 32 steady keys
                    // Straddle the pair: one interval inside it, extending past its end.
    let history = archive.key_history(key, mstart + 1, mend + 1).unwrap();
    let first = &history[0];
    assert_eq!(first.start, mstart, "first point must snap to the merged epoch start");
    assert_eq!(first.len, mlen, "merged pair must surface as one point of its full width");
    // Every later point starts at the previous point's end: merge
    // boundaries leave no gaps and no overlaps.
    for pair in history.windows(2) {
        assert_eq!(pair[0].start + pair[0].len, pair[1].start);
    }
    // The merged point's total is the estimate of the summed sketch,
    // which (integer volumes) equals direct ingest of the pair exactly.
    let mut direct = proto().zero_like();
    for i in mstart..mend {
        for (k, v) in interval_updates(i) {
            direct.update(k, v);
        }
    }
    assert_eq!(first.total.to_bits(), direct.estimate(key).to_bits());
    assert_eq!(first.mean.to_bits(), (first.total / mlen as f64).to_bits());
    let _ = t;
}

/// The merge that evicts resolution keeps the notable-key directory:
/// candidates pooled over a window straddling the merged pair still
/// surface the keys filed before the merge.
#[test]
fn directory_survives_buddy_merges() {
    let config = ArchiveConfig { max_sketches: 8, full_resolution: 3, keys_per_epoch: 64 };
    let mut archive = SketchArchive::new(config).unwrap();
    let t = push_until_next_merge(&mut archive, 0);
    let (mstart, mend) = archive
        .epochs()
        .find(|e| e.len() >= 2)
        .map(|e| (e.start(), e.end()))
        .expect("merged epoch exists");
    let candidates = archive.candidate_keys(mstart, mend).unwrap();
    for key in 0..32u64 {
        assert!(candidates.contains(&key), "steady key {key} lost from merged directory");
    }
    let _ = t;
}
