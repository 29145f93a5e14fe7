//! Exact `==` identity of the fused in-place kernels against their
//! allocating counterparts.
//!
//! Every kernel added for the zero-allocation turnover path
//! (`scale_assign`, `combine_into`, `sub_into`, `estimate_batch`) is a
//! pure re-scheduling of the floating-point operations its allocating
//! counterpart performs — same operations, same order, per cell. These tests pin that contract
//! with exact `f64` equality (no epsilon) across the paper's sketch
//! shapes (H ∈ {1, 5, 9, 25}) with signed fractional values.

use scd_hash::SplitMix64;
use scd_sketch::{BatchScratch, EstimateScratch, KarySketch, SketchConfig};

const PAPER_H: [usize; 4] = [1, 5, 9, 25];

/// Random signed fractional stream with keys from both hash sub-domains.
fn stream(rng: &mut SplitMix64, len: usize) -> Vec<(u64, f64)> {
    (0..len)
        .map(|_| {
            let key = if rng.next_below(4) == 0 {
                rng.next_u64() | (1 << 40) // Poly4 (64-bit) path
            } else {
                rng.next_below(u32::MAX as u64) // Tab4 (32-bit) path
            };
            let magnitude = (rng.next_below(1_000_000) as f64) / 128.0;
            let v = if rng.next_below(2) == 0 { -magnitude } else { magnitude };
            (key, v)
        })
        .collect()
}

/// A populated sketch of the given shape.
fn populated(rng: &mut SplitMix64, cfg: SketchConfig, len: usize) -> KarySketch {
    let mut s = KarySketch::new(cfg);
    let mut scratch = BatchScratch::new();
    s.update_batch(&stream(rng, len), &mut scratch);
    s
}

#[test]
fn estimate_batch_matches_scalar_estimate_exactly() {
    let mut rng = SplitMix64::new(0xE571);
    for &h in &PAPER_H {
        let cfg = SketchConfig { h, k: 256, seed: 0xBEEF ^ h as u64 };
        let items = stream(&mut rng, 400);
        let sketch = {
            let mut s = KarySketch::new(cfg);
            let mut scratch = BatchScratch::new();
            s.update_batch(&items, &mut scratch);
            s
        };
        // Candidate set: present keys, absent keys, and duplicates.
        let mut keys: Vec<u64> = items.iter().map(|&(k, _)| k).collect();
        keys.extend((0..100).map(|_| rng.next_u64()));
        keys.push(keys[0]);

        let mut scratch = EstimateScratch::new();
        let mut batched = Vec::new();
        sketch.estimate_batch(&keys, &mut scratch, &mut batched);
        assert_eq!(batched.len(), keys.len(), "H={h}");
        for (i, &key) in keys.iter().enumerate() {
            assert!(
                sketch.estimate(key) == batched[i],
                "H={h} key {key}: scalar {} vs batched {}",
                sketch.estimate(key),
                batched[i]
            );
        }
    }
}

#[test]
fn estimate_batch_reuses_scratch_across_shapes() {
    let mut rng = SplitMix64::new(0xE572);
    let mut scratch = EstimateScratch::new();
    let mut out = Vec::new();
    for &(h, k) in &[(9usize, 512usize), (1, 64), (25, 256), (5, 1024)] {
        let cfg = SketchConfig { h, k, seed: 0x5EED };
        let sketch = populated(&mut rng, cfg, 200);
        let keys: Vec<u64> = (0..64).map(|_| rng.next_u64()).collect();
        sketch.estimate_batch(&keys, &mut scratch, &mut out);
        for (i, &key) in keys.iter().enumerate() {
            assert!(sketch.estimate(key) == out[i], "H={h} K={k} key {key}");
        }
    }
    sketch_empty_batch(&mut scratch, &mut out);
    assert!(scratch.memory_bytes() > 0);
}

fn sketch_empty_batch(scratch: &mut EstimateScratch, out: &mut Vec<f64>) {
    let sketch = KarySketch::new(SketchConfig { h: 5, k: 64, seed: 3 });
    sketch.estimate_batch(&[], scratch, out);
    assert!(out.is_empty());
}

/// The batch estimator walks its keys in tiles; nothing may change at a
/// tile's edge. Every paper `H`, plus two with no median network, over
/// key counts straddling one and several tiles — batched, per-key
/// through the snapshotting `Estimator`, and through the
/// `PointEstimate::estimate_many` override, all `==`.
#[test]
fn estimate_batch_matches_estimator_across_tile_boundaries() {
    use scd_sketch::batch::ESTIMATE_TILE as TILE;
    use scd_sketch::PointEstimate;
    let mut rng = SplitMix64::new(0xE573);
    let mut scratch = EstimateScratch::new();
    let (mut batched, mut many) = (Vec::new(), Vec::new());
    for h in [1usize, 5, 9, 25, 4, 11] {
        let sketch = populated(&mut rng, SketchConfig { h, k: 512, seed: 0x711E ^ h as u64 }, 600);
        let estimator = sketch.estimator();
        for n in [TILE - 1, TILE, TILE + 1, 3 * TILE + 7] {
            let keys: Vec<u64> = stream(&mut rng, n).into_iter().map(|(key, _)| key).collect();
            sketch.estimate_batch(&keys, &mut scratch, &mut batched);
            sketch.estimate_many(&keys, &mut many);
            assert_eq!(batched.len(), n, "H={h} n={n}");
            for (i, &key) in keys.iter().enumerate() {
                let scalar = estimator.estimate(key);
                assert!(scalar == batched[i], "H={h} n={n} key {key} (batch)");
                assert!(scalar == many[i], "H={h} n={n} key {key} (estimate_many)");
            }
        }
    }
    // The scratch is sized by the shape and the tile, never by the keys:
    // it has seen H = 25 at a full tile, so a batch sixteen times longer
    // leaves it exactly as large.
    let settled = scratch.memory_bytes();
    let sketch = populated(&mut rng, SketchConfig { h: 25, k: 512, seed: 0x711E }, 600);
    let keys: Vec<u64> = (0..16 * TILE as u64).collect();
    sketch.estimate_batch(&keys, &mut scratch, &mut batched);
    assert_eq!(scratch.memory_bytes(), settled);
}

#[test]
fn combine_into_matches_allocating_combine_exactly() {
    let mut rng = SplitMix64::new(0xC0B1);
    for &h in &PAPER_H {
        let cfg = SketchConfig { h, k: 128, seed: 0xCAFE ^ h as u64 };
        let sketches: Vec<KarySketch> = (0..4).map(|_| populated(&mut rng, cfg, 150)).collect();
        let coeffs = [1.0, -1.0, 0.25, -2.5];
        let terms: Vec<(f64, &KarySketch)> = coeffs.iter().copied().zip(sketches.iter()).collect();

        let allocating = sketches[0].combine(&terms).unwrap();
        // combine_into overwrites whatever the destination held before.
        let mut fused = populated(&mut rng, cfg, 50);
        fused.combine_into(&terms).unwrap();
        assert_eq!(allocating.table(), fused.table(), "H={h}");
    }
}

#[test]
fn scale_assign_and_assign_from_match_clone_path_exactly() {
    let mut rng = SplitMix64::new(0x5CA1);
    for &h in &PAPER_H {
        let cfg = SketchConfig { h, k: 128, seed: 0xD00D ^ h as u64 };
        let src = populated(&mut rng, cfg, 150);

        let mut cloned = src.clone();
        cloned.scale(-0.375);
        let mut fused = populated(&mut rng, cfg, 40);
        fused.scale_assign(&src, -0.375).unwrap();
        assert_eq!(cloned.table(), fused.table(), "H={h} scale_assign");

        let mut assigned = populated(&mut rng, cfg, 40);
        assigned.assign_from(&src).unwrap();
        assert_eq!(src.table(), assigned.table(), "H={h} assign_from");
    }
}

#[test]
fn sub_into_matches_combine_exactly() {
    let mut rng = SplitMix64::new(0x5B17);
    for &h in &PAPER_H {
        let cfg = SketchConfig { h, k: 128, seed: 0xB0B ^ h as u64 };
        let a = populated(&mut rng, cfg, 150);
        let b = populated(&mut rng, cfg, 150);

        let allocating = a.combine(&[(1.0, &a), (-1.0, &b)]).unwrap();
        let mut fused = populated(&mut rng, cfg, 40);
        fused.sub_into(&a, &b).unwrap();
        assert_eq!(allocating.table(), fused.table(), "H={h}");
    }
}

#[test]
fn sub_into_then_estimate_f2_matches_two_step_path_exactly() {
    let mut rng = SplitMix64::new(0xF2F2);
    for &h in &PAPER_H {
        let cfg = SketchConfig { h, k: 256, seed: 0xF00D ^ h as u64 };
        let observed = populated(&mut rng, cfg, 300);
        let forecast = populated(&mut rng, cfg, 300);

        let two_step = observed.combine(&[(1.0, &observed), (-1.0, &forecast)]).unwrap();
        let expected_f2 = two_step.estimate_f2();

        let mut error = populated(&mut rng, cfg, 40);
        let mut scratch = EstimateScratch::new();
        error.sub_into(&observed, &forecast).unwrap();
        let fused_f2 = error.estimate_f2();
        assert_eq!(two_step.table(), error.table(), "H={h} error sketch");
        assert!(expected_f2 == fused_f2, "H={h} F2: {expected_f2} vs {fused_f2}");

        // And the in-place error sketch answers key queries identically.
        let mut out = Vec::new();
        let keys: Vec<u64> = (0..32).map(|_| rng.next_u64()).collect();
        error.estimate_batch(&keys, &mut scratch, &mut out);
        for (i, &key) in keys.iter().enumerate() {
            assert!(two_step.estimate(key) == out[i], "H={h} key {key}");
        }
    }
}

#[test]
fn kernels_reject_mismatched_hash_families() {
    let a = KarySketch::new(SketchConfig { h: 3, k: 64, seed: 1 });
    let b = KarySketch::new(SketchConfig { h: 3, k: 64, seed: 2 });
    let mut dst = a.clone();
    assert!(dst.assign_from(&b).is_err());
    assert!(dst.scale_assign(&b, 1.0).is_err());
    assert!(dst.sub_into(&a, &b).is_err());
    assert!(dst.combine_into(&[(1.0, &a), (1.0, &b)]).is_err());
}
