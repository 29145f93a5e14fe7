//! Exact `==` identity of the AVX2 `f64` kernels against their scalar
//! references, with both variants forced directly — independent of what
//! `SCD_SIMD` or CPU detection resolved for this process. (The complement
//! is CI's `SCD_SIMD=scalar` run of the whole suite, which drives every
//! *dispatched* path through the scalar kernels on AVX2 runners.)
//!
//! Values are signed and fractional, plus an awkward palette (±0,
//! subnormals, ±inf, NaN) for every sweep; lengths cover every length
//! 0..=40 — each residue of the vectoriser's unrolled body and of its
//! epilogue — odd lengths, and the paper's sketch shapes H·K for
//! H ∈ {1, 5, 9, 25}. On hosts without AVX2 the forced-AVX2 call falls
//! back to scalar and the tests degrade to scalar == scalar.

use scd_hash::SplitMix64;
use scd_sketch::simd::{self, Variant};

const PAPER_H: [usize; 4] = [1, 5, 9, 25];
const K: usize = 128;

/// Lengths exercising the 4-lane remainder handling plus full sketch
/// tables for every paper H, then every length up to 40: ten 4-lane
/// steps, past one unrolled body of four vectors and every epilogue.
fn lengths() -> Vec<usize> {
    let mut ls = vec![0, 1, 2, 3, 4, 5, 7, 13, 100, 257];
    ls.extend(PAPER_H.iter().map(|h| h * K));
    ls.extend(0..=40);
    ls
}

/// Signed fractional values (exact in f64, but with enough mantissa
/// variety that any operand-order or rounding divergence would show).
fn values(rng: &mut SplitMix64, n: usize) -> Vec<f64> {
    (0..n)
        .map(|_| {
            let magnitude = (rng.next_below(1_000_000) as f64) / 128.0;
            if rng.next_below(2) == 0 {
                -magnitude
            } else {
                magnitude
            }
        })
        .collect()
}

#[test]
fn axpy_variants_are_bit_identical() {
    let mut rng = SplitMix64::new(0xA1);
    for n in lengths() {
        let base = values(&mut rng, n);
        let src = values(&mut rng, n);
        for &(a, b) in &[(0.75, 0.25), (-1.5, 2.0), (0.0, 1.0), (1.0, -0.125)] {
            let mut scalar = base.clone();
            let mut vector = base.clone();
            simd::axpy(Variant::Scalar, &mut scalar, a, &src, b);
            simd::axpy(Variant::Avx2, &mut vector, a, &src, b);
            assert_eq!(scalar, vector, "n={n} a={a} b={b}");
        }
    }
}

#[test]
fn scale_assign_variants_are_bit_identical() {
    let mut rng = SplitMix64::new(0xA2);
    for n in lengths() {
        let src = values(&mut rng, n);
        let mut scalar = vec![f64::NAN; n];
        let mut vector = vec![0.0; n];
        simd::scale_assign(Variant::Scalar, &mut scalar, &src, -0.375);
        simd::scale_assign(Variant::Avx2, &mut vector, &src, -0.375);
        assert_eq!(scalar, vector, "n={n}");
    }
}

#[test]
fn add_scaled_variants_are_bit_identical() {
    let mut rng = SplitMix64::new(0xA3);
    for n in lengths() {
        let base = values(&mut rng, n);
        let src = values(&mut rng, n);
        for &c in &[1.0, -1.0, 0.25, -2.5, 0.0] {
            let mut scalar = base.clone();
            let mut vector = base.clone();
            simd::add_scaled(Variant::Scalar, &mut scalar, &src, c);
            simd::add_scaled(Variant::Avx2, &mut vector, &src, c);
            assert_eq!(scalar, vector, "n={n} c={c}");
        }
    }
}

#[test]
fn scale_variants_are_bit_identical() {
    let mut rng = SplitMix64::new(0xA4);
    for n in lengths() {
        let base = values(&mut rng, n);
        for &c in &[0.5, -3.25, 0.0] {
            let mut scalar = base.clone();
            let mut vector = base.clone();
            simd::scale(Variant::Scalar, &mut scalar, c);
            simd::scale(Variant::Avx2, &mut vector, c);
            assert_eq!(scalar, vector, "n={n} c={c}");
        }
    }
}

#[test]
fn sub_variants_are_bit_identical() {
    let mut rng = SplitMix64::new(0xA5);
    for n in lengths() {
        let a = values(&mut rng, n);
        let b = values(&mut rng, n);
        let mut scalar = vec![f64::NAN; n];
        let mut vector = vec![0.0; n];
        simd::sub(Variant::Scalar, &mut scalar, &a, &b);
        simd::sub(Variant::Avx2, &mut vector, &a, &b);
        assert_eq!(scalar, vector, "n={n}");
    }
}

#[test]
fn gather_variants_are_bit_identical() {
    let mut rng = SplitMix64::new(0xA6);
    for &k in &[1usize, 64, 1024] {
        let cells = values(&mut rng, k);
        for n in lengths() {
            let buckets: Vec<usize> = (0..n).map(|_| rng.next_below(k as u64) as usize).collect();
            let mut scalar = vec![f64::NAN; n];
            let mut vector = vec![0.0; n];
            simd::gather(Variant::Scalar, &mut scalar, &cells, &buckets);
            simd::gather(Variant::Avx2, &mut vector, &cells, &buckets);
            assert_eq!(scalar, vector, "k={k} n={n}");
        }
    }
}

#[test]
fn estimate_transform_variants_are_bit_identical() {
    let mut rng = SplitMix64::new(0xA7);
    for n in lengths() {
        let base = values(&mut rng, n);
        for &(sum, kf) in &[(12_345.625, 1024.0), (-7.5, 64.0), (0.0, 2.0)] {
            let mut scalar = base.clone();
            let mut vector = base.clone();
            simd::estimate_transform(Variant::Scalar, &mut scalar, sum, kf);
            simd::estimate_transform(Variant::Avx2, &mut vector, sum, kf);
            assert_eq!(scalar, vector, "n={n} sum={sum} kf={kf}");
            // And both match the inline per-element formula the scalar
            // ESTIMATE path uses.
            for (i, &v) in base.iter().enumerate() {
                let expect = (v - sum / kf) / (1.0 - 1.0 / kf);
                assert!(scalar[i] == expect, "n={n} i={i}");
            }
        }
    }
}

/// The vectorized COMBINE restructuring (zero the table, then one
/// `add_scaled` pass per term) performs the same per-cell accumulation
/// sequence as the scalar term loop.
#[test]
fn combine_passes_match_scalar_term_loop() {
    let mut rng = SplitMix64::new(0xA8);
    for n in lengths() {
        let tables: Vec<Vec<f64>> = (0..4).map(|_| values(&mut rng, n)).collect();
        let coeffs = [1.0, -1.0, 0.25, -2.5];

        let mut reference = vec![0.0; n];
        for (i, slot) in reference.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (c, t) in coeffs.iter().zip(&tables) {
                acc += c * t[i];
            }
            *slot = acc;
        }

        for variant in [Variant::Scalar, Variant::Avx2] {
            let mut out = vec![f64::NAN; n];
            out.fill(0.0);
            for (c, t) in coeffs.iter().zip(&tables) {
                simd::add_scaled(variant, &mut out, t, *c);
            }
            assert_eq!(out, reference, "n={n} {variant:?}");
        }
    }
}

/// Values a median network must place exactly where the scalar `>`
/// comparison puts them: signed zeros, exact duplicates, subnormals,
/// infinities and NaNs (two payloads, so a swapped pair would show),
/// salted with ordinary values.
fn awkward_values(rng: &mut SplitMix64, n: usize) -> Vec<f64> {
    const PALETTE: [f64; 12] = [
        0.0,
        -0.0,
        1.5,
        1.5,
        -1.5,
        f64::MIN_POSITIVE / 2.0,
        -f64::MIN_POSITIVE / 2.0,
        5e-324,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        f64::NAN,
    ];
    (0..n)
        .map(|_| match rng.next_below(16) as usize {
            11 => f64::from_bits(0xFFF8_0000_0000_1234),
            pick if pick < PALETTE.len() => PALETTE[pick],
            _ => (rng.next_below(2_000) as f64 - 1_000.0) / 8.0,
        })
        .collect()
}

/// The lanewise median kernel, under both forced variants, returns for
/// every key exactly the bits `median_inplace` returns on that key's
/// column — for every `H` with a network, `H = 1`, and three `H` without
/// one (the per-key selection path; 33 is past `median_over_rows`' stack
/// buffer), across the group-of-four remainder and the batch tile's edges.
#[test]
fn median_rows_variants_match_median_inplace_bit_for_bit() {
    use scd_sketch::batch::ESTIMATE_TILE as TILE;
    use scd_sketch::median::median_inplace;
    let mut rng = SplitMix64::new(0xA9);
    let mut column = Vec::new();
    for h in [1usize, 3, 5, 7, 9, 25, 4, 11, 33] {
        for n in [0, 1, 3, 4, 5, TILE - 1, TILE, TILE + 1, 3 * TILE + 7] {
            for awkward in [false, true] {
                let vals =
                    if awkward { awkward_values(&mut rng, h * n) } else { values(&mut rng, h * n) };
                let expect: Vec<u64> = (0..n)
                    .map(|i| {
                        let mut column: Vec<f64> = (0..h).map(|row| vals[row * n + i]).collect();
                        median_inplace(&mut column).to_bits()
                    })
                    .collect();
                for variant in [Variant::Scalar, Variant::Avx2] {
                    let mut out = vec![f64::NAN; n];
                    simd::median_rows(variant, &mut out, &vals, h, &mut column);
                    let got: Vec<u64> = out.iter().map(|m| m.to_bits()).collect();
                    assert_eq!(got, expect, "H={h} n={n} awkward={awkward} {variant:?}");
                }
            }
        }
    }
}

/// One sweep under test, applied to a cell table under a forced variant.
type Sweep<'a> = &'a dyn Fn(Variant, &mut [f64]);

/// Same bits, lane by lane — except that a NaN need only meet a NaN: Rust
/// leaves NaN payloads unspecified, so a compiled loop may carry either
/// operand's.
fn assert_same_bits(scalar: &[f64], vector: &[f64], what: &str) {
    assert_eq!(scalar.len(), vector.len(), "{what}");
    for (i, (s, v)) in scalar.iter().zip(vector).enumerate() {
        if s.is_nan() {
            assert!(v.is_nan(), "{what} i={i}: NaN vs {v}");
        } else {
            assert_eq!(s.to_bits(), v.to_bits(), "{what} i={i}: {s} vs {v}");
        }
    }
}

/// Every `f64` sweep, fed the awkward palette as cells and as
/// coefficients: signed zeros, subnormals, infinities, NaNs, products that
/// overflow and a transform whose denominator is zero.
#[test]
fn sweeps_agree_on_awkward_values() {
    const COEFFS: [f64; 8] =
        [1.0, -0.0, 0.0, 5e-324, f64::MAX, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
    let mut rng = SplitMix64::new(0xAA);
    for n in lengths() {
        let base = awkward_values(&mut rng, n);
        let src = awkward_values(&mut rng, n);
        for (i, &c) in COEFFS.iter().enumerate() {
            let d = COEFFS[(i + 3) % COEFFS.len()];
            let what = format!("n={n} c={c} d={d}");
            let sweeps: [(&str, Sweep); 6] = [
                ("axpy", &|v, out| simd::axpy(v, out, c, &src, d)),
                ("scale_assign", &|v, out| simd::scale_assign(v, out, &src, c)),
                ("add_scaled", &|v, out| simd::add_scaled(v, out, &src, c)),
                ("scale", &|v, out| simd::scale(v, out, c)),
                ("sub", &|v, out| simd::sub(v, out, &base, &src)),
                ("estimate_transform", &|v, out| simd::estimate_transform(v, out, c, d)),
            ];
            for (name, sweep) in sweeps {
                let mut scalar = base.clone();
                let mut vector = base.clone();
                sweep(Variant::Scalar, &mut scalar);
                sweep(Variant::Avx2, &mut vector);
                assert_same_bits(&scalar, &vector, &format!("{name} {what}"));
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
    axpy_length_mismatch_panics_scalar, axpy_length_mismatch_panics_avx2:
        |v| simd::axpy(v, &mut [0.0; 8], 1.0, &[0.0; 9], 1.0);
    scale_assign_length_mismatch_panics_scalar, scale_assign_length_mismatch_panics_avx2:
        |v| simd::scale_assign(v, &mut [0.0; 8], &[0.0; 7], 1.0);
    add_scaled_length_mismatch_panics_scalar, add_scaled_length_mismatch_panics_avx2:
        |v| simd::add_scaled(v, &mut [0.0; 8], &[0.0; 9], 1.0);
    sub_length_mismatch_panics_scalar, sub_length_mismatch_panics_avx2:
        |v| simd::sub(v, &mut [0.0; 8], &[0.0; 8], &[0.0; 9]);
}

/// The archive's pack masks: under both forced variants, bit `i` of mask
/// `b` is set exactly when cell `64·b + i` is not `+0.0` — `−0.0`, NaN,
/// infinities and subnormals all count as written — for every length,
/// short last blocks included.
#[test]
fn written_masks_variants_mark_exactly_the_non_positive_zero_cells() {
    let mut rng = SplitMix64::new(0xAB);
    for n in lengths().into_iter().chain([64 * 5 + 63, 5 * 65_536]) {
        let cells: Vec<f64> = awkward_values(&mut rng, n)
            .into_iter()
            .map(|c| if rng.next_below(3) == 0 { c } else { 0.0 })
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
            simd::written_masks(variant, &cells, &mut masks);
            assert_eq!(masks, want, "n={n} {variant:?}");
        }
    }
}
