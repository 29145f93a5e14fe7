//! Exact `==` identity of the AVX2 **`f32`** kernels (eight lanes per
//! step) against their scalar references, with both variants forced
//! directly — the slim-read-path complement of `simd_identity.rs`. On
//! hosts without AVX2 the forced-AVX2 call falls back to scalar and the
//! tests degrade to scalar == scalar.
//!
//! Values are signed and fractional (exact in `f32`, with enough
//! mantissa variety that any operand-order or rounding divergence would
//! show), plus an awkward `f32` palette (±0, subnormals, ±inf, NaN) for
//! every sweep; lengths cover every length 0..=72 — each residue of the
//! vectoriser's unrolled 8-lane body and of its epilogue — odd lengths,
//! and the paper's sketch shapes H·K for H ∈ {1, 5, 9, 25}.

use scd_hash::SplitMix64;
use scd_sketch::simd::{self, Variant};

const PAPER_H: [usize; 4] = [1, 5, 9, 25];
const K: usize = 128;

/// Lengths exercising every 8-lane remainder plus full sketch tables for
/// every paper H, then every length up to 72: nine 8-lane steps, past one
/// unrolled body of four vectors and every epilogue.
fn lengths() -> Vec<usize> {
    let mut ls = vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 17, 100, 257];
    ls.extend(PAPER_H.iter().map(|h| h * K));
    ls.extend(0..=72);
    ls
}

/// Signed fractional values exactly representable in `f32`.
fn values(rng: &mut SplitMix64, n: usize) -> Vec<f32> {
    (0..n)
        .map(|_| {
            let magnitude = (rng.next_below(1_000_000) as f32) / 128.0;
            if rng.next_below(2) == 0 {
                -magnitude
            } else {
                magnitude
            }
        })
        .collect()
}

#[test]
fn add_scaled_f32_variants_are_bit_identical() {
    let mut rng = SplitMix64::new(0xF1);
    for n in lengths() {
        let base = values(&mut rng, n);
        let src = values(&mut rng, n);
        for &c in &[1.0f32, -1.0, 0.25, -2.5, 0.0] {
            let mut scalar = base.clone();
            let mut vector = base.clone();
            simd::add_scaled_f32(Variant::Scalar, &mut scalar, &src, c);
            simd::add_scaled_f32(Variant::Avx2, &mut vector, &src, c);
            assert_eq!(scalar, vector, "n={n} c={c}");
        }
    }
}

#[test]
fn scale_f32_variants_are_bit_identical() {
    let mut rng = SplitMix64::new(0xF2);
    for n in lengths() {
        let base = values(&mut rng, n);
        for &c in &[0.5f32, -3.25, 0.0] {
            let mut scalar = base.clone();
            let mut vector = base.clone();
            simd::scale_f32(Variant::Scalar, &mut scalar, c);
            simd::scale_f32(Variant::Avx2, &mut vector, c);
            assert_eq!(scalar, vector, "n={n} c={c}");
        }
    }
}

#[test]
fn gather_widen_f32_variants_are_bit_identical() {
    let mut rng = SplitMix64::new(0xF4);
    for &k in &[1usize, 64, 1024, 65_536] {
        let cells = values(&mut rng, k);
        for n in lengths() {
            let buckets: Vec<usize> = (0..n).map(|_| rng.next_below(k as u64) as usize).collect();
            let mut scalar = vec![f64::NAN; n];
            let mut vector = vec![0.0; n];
            simd::gather_widen_f32(Variant::Scalar, &mut scalar, &cells, &buckets);
            simd::gather_widen_f32(Variant::Avx2, &mut vector, &cells, &buckets);
            assert_eq!(scalar, vector, "k={k} n={n}");
            // Both must equal the inline widen the scalar slim path uses.
            for (i, &b) in buckets.iter().enumerate() {
                assert!(scalar[i] == f64::from(cells[b]), "k={k} n={n} i={i}");
            }
        }
    }
}

/// The f32 combine restructuring (zero the table, one `add_scaled_f32`
/// pass per term) performs the same per-cell accumulation sequence as a
/// scalar term loop — the property the slim archive's buddy merges rely
/// on.
#[test]
fn f32_combine_passes_match_scalar_term_loop() {
    let mut rng = SplitMix64::new(0xF5);
    for n in lengths() {
        let tables: Vec<Vec<f32>> = (0..4).map(|_| values(&mut rng, n)).collect();
        let coeffs = [1.0f32, -1.0, 0.25, -2.5];

        let mut reference = vec![0.0f32; n];
        for (c, t) in coeffs.iter().zip(&tables) {
            for (slot, &x) in reference.iter_mut().zip(t) {
                *slot += c * x;
            }
        }

        for variant in [Variant::Scalar, Variant::Avx2] {
            let mut out = vec![0.0f32; n];
            for (c, t) in coeffs.iter().zip(&tables) {
                simd::add_scaled_f32(variant, &mut out, t, *c);
            }
            assert_eq!(out, reference, "n={n} {variant:?}");
        }
    }
}

/// The slim read path is the shared tile driver over an `f32` table: the
/// widening gather feeds the same transform and lanewise median as the
/// fat path. Across tile edges every estimate equals the per-key formula
/// evaluated in `f64` over the widened cells.
#[test]
fn tiled_estimate_over_f32_cells_matches_per_key_formula() {
    use scd_hash::HashRows;
    use scd_sketch::batch::{estimate_tiles, ESTIMATE_TILE as TILE};
    use scd_sketch::median::median_inplace;
    use scd_sketch::EstimateScratch;
    let mut rng = SplitMix64::new(0xF6);
    let mut scratch = EstimateScratch::new();
    for h in [1usize, 5, 9, 25, 4] {
        let k = 256usize;
        let rows = HashRows::new(h, k, 0xF32 ^ h as u64);
        let table = values(&mut rng, h * k);
        let sum = 1_234.5;
        for n in [0, 1, TILE - 1, TILE, TILE + 1, 3 * TILE + 7] {
            let keys: Vec<u64> = (0..n).map(|_| rng.next_below(1 << 40)).collect();
            let mut got = Vec::new();
            estimate_tiles(
                &rows,
                &table,
                sum,
                simd::gather_widen_f32,
                &keys,
                &mut scratch,
                |tile, estimates| {
                    assert_eq!(
                        tile,
                        &keys[got.len()..got.len() + tile.len()],
                        "tiles in key order"
                    );
                    got.extend_from_slice(estimates);
                },
            );
            assert_eq!(got.len(), n, "H={h} n={n}");
            for (i, &key) in keys.iter().enumerate() {
                let kf = k as f64;
                let mut per_row: Vec<f64> = (0..h)
                    .map(|row| {
                        let cell = f64::from(table[row * k + rows.bucket(row, key)]);
                        (cell - sum / kf) / (1.0 - 1.0 / kf)
                    })
                    .collect();
                let expect = median_inplace(&mut per_row);
                assert!(got[i] == expect, "H={h} n={n} key {key}: {} vs {expect}", got[i]);
            }
        }
    }
}

/// The `f32` palette of awkward values: signed zeros, exact duplicates,
/// subnormals, the largest finite value, infinities and NaNs (two
/// payloads), salted with ordinary values.
fn awkward_values(rng: &mut SplitMix64, n: usize) -> Vec<f32> {
    const PALETTE: [f32; 12] = [
        0.0,
        -0.0,
        1.5,
        1.5,
        -1.5,
        f32::MIN_POSITIVE / 2.0,
        -f32::MIN_POSITIVE / 2.0,
        1e-45,
        f32::MAX,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
    ];
    (0..n)
        .map(|_| match rng.next_below(16) as usize {
            12 => f32::from_bits(0xFFC0_1234),
            pick if pick < PALETTE.len() => PALETTE[pick],
            _ => (rng.next_below(2_000) as f32 - 1_000.0) / 8.0,
        })
        .collect()
}

/// One sweep under test, applied to a cell table under a forced variant.
type Sweep<'a> = &'a dyn Fn(Variant, &mut [f32]);

/// Same bits, lane by lane — except that a NaN need only meet a NaN: Rust
/// leaves NaN payloads unspecified, so a compiled loop may carry either
/// operand's.
fn assert_same_bits(scalar: &[f32], vector: &[f32], what: &str) {
    assert_eq!(scalar.len(), vector.len(), "{what}");
    for (i, (s, v)) in scalar.iter().zip(vector).enumerate() {
        if s.is_nan() {
            assert!(v.is_nan(), "{what} i={i}: NaN vs {v}");
        } else {
            assert_eq!(s.to_bits(), v.to_bits(), "{what} i={i}: {s} vs {v}");
        }
    }
}

/// Every `f32` sweep, fed the awkward palette as cells and as
/// coefficients: signed zeros, subnormals, infinities, NaNs and products
/// that overflow.
#[test]
fn f32_sweeps_agree_on_awkward_values() {
    const COEFFS: [f32; 8] =
        [1.0, -0.0, 0.0, 1e-45, f32::MAX, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
    let mut rng = SplitMix64::new(0xFA);
    for n in lengths() {
        let base = awkward_values(&mut rng, n);
        let src = awkward_values(&mut rng, n);
        for &c in &COEFFS {
            let sweeps: [(&str, Sweep); 2] = [
                ("add_scaled_f32", &|v, out| simd::add_scaled_f32(v, out, &src, c)),
                ("scale_f32", &|v, out| simd::scale_f32(v, out, c)),
            ];
            for (name, sweep) in sweeps {
                let mut scalar = base.clone();
                let mut vector = base.clone();
                sweep(Variant::Scalar, &mut scalar);
                sweep(Variant::Avx2, &mut vector);
                assert_same_bits(&scalar, &vector, &format!("{name} n={n} c={c}"));
            }
        }
    }
}

/// One `#[should_panic]` test per sweep and variant: a length mismatch
/// panics as each sweep's `# Panics` says, instead of `zip` stopping at
/// the shorter slice.
macro_rules! length_mismatch_panics {
    ($($scalar:ident, $avx2:ident: |$v:ident| $call:expr;)*) => {$(
        #[test]
        #[should_panic(expected = "slice lengths must match")]
        fn $scalar() {
            let $v = Variant::Scalar;
            $call;
        }

        #[test]
        #[should_panic(expected = "slice lengths must match")]
        fn $avx2() {
            let $v = Variant::Avx2;
            $call;
        }
    )*};
}

length_mismatch_panics! {
    add_scaled_f32_length_mismatch_panics_scalar, add_scaled_f32_length_mismatch_panics_avx2:
        |v| simd::add_scaled_f32(v, &mut [0.0; 16], &[0.0; 17], 1.0);
}

/// The slim archive's pack masks, as `written_masks` for `f64`: both
/// forced variants mark exactly the cells whose bits are not `+0.0`'s.
#[test]
fn written_masks_f32_variants_mark_exactly_the_non_positive_zero_cells() {
    const AWKWARD: [f32; 6] = [-0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1e-40, -3.5];
    let mut rng = SplitMix64::new(0xF7);
    for n in lengths().into_iter().chain([64 * 5 + 63, 5 * 65_536]) {
        let cells: Vec<f32> = (0..n)
            .map(|_| match rng.next_below(12) as usize {
                pick if pick < AWKWARD.len() => AWKWARD[pick],
                _ => 0.0,
            })
            .collect();
        let want: Vec<u64> = cells
            .chunks(64)
            .map(|block| {
                block
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| c.to_bits() != 0)
                    .map(|(i, _)| 1 << i)
                    .sum()
            })
            .collect();
        for variant in [Variant::Scalar, Variant::Avx2] {
            let mut masks = vec![!0; n.div_ceil(64)];
            simd::written_masks_f32(variant, &cells, &mut masks);
            assert_eq!(masks, want, "n={n} {variant:?}");
        }
    }
}
