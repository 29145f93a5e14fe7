//! SIMD kernels for the sketch's elementwise sweeps — `f64` for the fat
//! write path, `f32` (eight lanes per step instead of four) for the slim
//! read path — with runtime dispatch shared with `scd-hash` (see
//! [`scd_hash::simd`]).
//!
//! **Exactness.** Every kernel here is *bit-identical* to the scalar loop
//! it replaces, by construction:
//!
//! * Each element undergoes exactly the scalar operation sequence —
//!   separate `vmulpd`/`vaddpd`/`vsubpd`/`vdivpd` instructions with the
//!   scalar operand order, never FMA (Rust also never contracts `a*b + c`
//!   to FMA, so scalar and vector lanes round identically).
//! * Lanes are independent: vectorization reorders *which element is
//!   processed when*, never *the operations applied to one element*, so
//!   there is no floating-point reassociation.
//! * Reductions whose accumulation order matters ([`KarySketch::sum`],
//!   squared-sum rows in `ESTIMATEF2`) deliberately stay scalar in
//!   `kary.rs`; this module ships sweeps, gathers and one order-free
//!   reduction — [`median_rows`], the per-key median across rows, whose
//!   `min`/`max` exchanges select among the inputs and round nothing.
//!
//! Identity is enforced by exact `==` tests in `tests/simd_identity.rs`
//! with both variants forced directly.
//!
//! [`KarySketch::sum`]: crate::KarySketch::sum

// The crate otherwise denies unsafe code; intrinsics require it. All
// unsafe here is behind runtime AVX2 detection.
#![allow(unsafe_code)]

use crate::median;
pub use scd_hash::simd::{active, avx2_supported, Variant};

/// Whether this call should take the AVX2 path (requested *and* runnable).
#[inline]
fn use_avx2(variant: Variant) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        variant == Variant::Avx2 && avx2_supported()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = variant;
        false
    }
}

/// Fused `dst[i] = (dst[i]·a) + b·src[i]` — the sweep behind
/// [`KarySketch::axpy_assign`](crate::KarySketch::axpy_assign).
///
/// # Panics
/// Panics if the slice lengths differ.
pub fn axpy(variant: Variant, dst: &mut [f64], a: f64, src: &[f64], b: f64) {
    assert_eq!(dst.len(), src.len(), "slice lengths must match");
    #[cfg(target_arch = "x86_64")]
    if use_avx2(variant) {
        // SAFETY: AVX2 support verified at runtime; lengths checked above.
        unsafe { avx2::axpy(dst, a, src, b) };
        return;
    }
    let _ = variant;
    for (d, &s) in dst.iter_mut().zip(src) {
        let scaled = *d * a;
        *d = scaled + b * s;
    }
}

/// `dst[i] = src[i]·c` — the sweep behind
/// [`KarySketch::scale_assign`](crate::KarySketch::scale_assign).
///
/// # Panics
/// Panics if the slice lengths differ.
pub fn scale_assign(variant: Variant, dst: &mut [f64], src: &[f64], c: f64) {
    assert_eq!(dst.len(), src.len(), "slice lengths must match");
    #[cfg(target_arch = "x86_64")]
    if use_avx2(variant) {
        // SAFETY: AVX2 support verified at runtime; lengths checked above.
        unsafe { avx2::scale_assign(dst, src, c) };
        return;
    }
    let _ = variant;
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = s * c;
    }
}

/// `dst[i] += c·src[i]` — the sweep behind
/// [`KarySketch::add_scaled`](crate::KarySketch::add_scaled), each term
/// of the blocked `COMBINE` and shard merge, and most of every forecast
/// model's blocked step.
///
/// # Panics
/// Panics if the slice lengths differ.
pub fn add_scaled(variant: Variant, dst: &mut [f64], src: &[f64], c: f64) {
    assert_eq!(dst.len(), src.len(), "slice lengths must match");
    #[cfg(target_arch = "x86_64")]
    if use_avx2(variant) {
        // SAFETY: AVX2 support verified at runtime; lengths checked above.
        unsafe { avx2::add_scaled(dst, src, c) };
        return;
    }
    let _ = variant;
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += c * s;
    }
}

/// `dst[i] *= c` — the sweep behind
/// [`KarySketch::scale`](crate::KarySketch::scale).
pub fn scale(variant: Variant, dst: &mut [f64], c: f64) {
    #[cfg(target_arch = "x86_64")]
    if use_avx2(variant) {
        // SAFETY: AVX2 support verified at runtime.
        unsafe { avx2::scale(dst, c) };
        return;
    }
    let _ = variant;
    for d in dst.iter_mut() {
        *d *= c;
    }
}

/// `dst[i] = a[i] − b[i]` — the sweep behind
/// [`KarySketch::sub_into`](crate::KarySketch::sub_into) and the error
/// tile (`Se = So − Sf`) of every forecast model's blocked step.
///
/// # Panics
/// Panics if the slice lengths differ.
pub fn sub(variant: Variant, dst: &mut [f64], a: &[f64], b: &[f64]) {
    assert_eq!(dst.len(), a.len(), "slice lengths must match");
    assert_eq!(dst.len(), b.len(), "slice lengths must match");
    #[cfg(target_arch = "x86_64")]
    if use_avx2(variant) {
        // SAFETY: AVX2 support verified at runtime; lengths checked above.
        unsafe { avx2::sub(dst, a, b) };
        return;
    }
    let _ = variant;
    for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
        *d = x - y;
    }
}

/// `out[i] = cells[buckets[i]]` — the gather phase of
/// [`KarySketch::estimate_batch`](crate::KarySketch::estimate_batch)
/// (pure data movement, exact by definition).
///
/// # Panics
/// Panics if the lengths differ or any bucket is out of range.
pub fn gather(variant: Variant, out: &mut [f64], cells: &[f64], buckets: &[usize]) {
    assert_eq!(out.len(), buckets.len(), "slice lengths must match");
    assert!(buckets.iter().all(|&b| b < cells.len()), "bucket out of range");
    #[cfg(target_arch = "x86_64")]
    if use_avx2(variant) {
        // SAFETY: AVX2 support verified at runtime; every index was just
        // bounds-checked against `cells`.
        unsafe { avx2::gather(out, cells, buckets) };
        return;
    }
    let _ = variant;
    for (v, &bucket) in out.iter_mut().zip(buckets) {
        *v = cells[bucket];
    }
}

/// `vals[i] = (vals[i] − sum/kf) / (1 − 1/kf)` — the per-cell estimator
/// transform of `ESTIMATE`, applied to a whole gathered block. The two
/// derived constants are computed once; each element then performs the
/// identical subtract-and-divide the scalar formula performs.
pub fn estimate_transform(variant: Variant, vals: &mut [f64], sum: f64, kf: f64) {
    let mean = sum / kf;
    let denom = 1.0 - 1.0 / kf;
    #[cfg(target_arch = "x86_64")]
    if use_avx2(variant) {
        // SAFETY: AVX2 support verified at runtime.
        unsafe { avx2::estimate_transform(vals, mean, denom) };
        return;
    }
    let _ = variant;
    for v in vals.iter_mut() {
        *v = (*v - mean) / denom;
    }
}

/// `out[i] = median_row vals[row·n + i]` for a row-major `h × n` block
/// (`n = out.len()`) — the median phase of `ESTIMATE`, bit-identical to
/// [`median_inplace`](crate::median::median_inplace) on each key's column.
///
/// For the `H` that have a selection network ([`median::network`]) the
/// network runs **lanewise**: four keys at a time, one vector per row, each
/// compare-exchange a `min`/`max` pair — no per-key strided copy, no
/// data-dependent branch. Each exchange reproduces [`median::exchange`]'s
/// selects exactly: `_mm256_min_pd(y, x)` returns `y` where `y < x` and `x`
/// otherwise (its *second* operand whenever the compare is false — NaN or
/// `±0.0` pairs included), which is `if x > y { y } else { x }`; and
/// `_mm256_max_pd(x, y)` is `if x > y { x } else { y }` the same way. So a
/// `-0.0`/`+0.0` pair or a NaN stays in the slot the scalar network leaves
/// it in. The scalar variant runs the same selects on `[f64; 4]` lanes.
/// `H = 1` is a copy; any other `H` takes the per-key selection path
/// through `column`, a caller-kept buffer that grows to `h` once (so no
/// `H` allocates per key).
///
/// # Panics
/// Panics if `h == 0` or `vals.len() != h · out.len()`.
pub fn median_rows(
    variant: Variant,
    out: &mut [f64],
    vals: &[f64],
    h: usize,
    column: &mut Vec<f64>,
) {
    let n = out.len();
    assert!(h > 0, "median of empty slice");
    assert_eq!(vals.len(), h * n, "values must be H x out.len()");
    if h == 1 {
        out.copy_from_slice(vals);
        return;
    }
    // Whole groups of four go through the network lanewise; the tail (and
    // every key, when `h` has no network) is reduced per key.
    let grouped = median::network(h).map_or(0, |net| median_groups(variant, net, out, vals, h));
    for (i, slot) in out.iter_mut().enumerate().skip(grouped) {
        column.clear();
        column.extend((0..h).map(|row| vals[row * n + i]));
        *slot = median::median_inplace(column);
    }
}

/// The largest `H` with a selection network — the lanewise kernels hold
/// one vector per row in a fixed array of this many.
const MAX_ROWS: usize = 25;

/// Runs `net` lanewise over the leading whole groups of four keys of the
/// `h × out.len()` block; returns how many keys (a multiple of four) that
/// covered.
fn median_groups(
    variant: Variant,
    net: &median::Network,
    out: &mut [f64],
    vals: &[f64],
    h: usize,
) -> usize {
    #[cfg(target_arch = "x86_64")]
    if use_avx2(variant) {
        // SAFETY: AVX2 support verified at runtime; `median_rows` checked
        // the block shape, and `h` has a network, so `h <= MAX_ROWS`.
        return unsafe { avx2::median_groups(net, out, vals, h) };
    }
    let _ = variant;
    let n = out.len();
    let mut v = [[0.0f64; 4]; MAX_ROWS];
    let mut i = 0;
    while i + 4 <= n {
        for (row, lanes) in v[..h].iter_mut().enumerate() {
            lanes.copy_from_slice(&vals[row * n + i..row * n + i + 4]);
        }
        for &(a, b) in net {
            let (x, y) = (v[a], v[b]);
            for lane in 0..4 {
                (v[a][lane], v[b][lane]) = median::exchange(x[lane], y[lane]);
            }
        }
        out[i..i + 4].copy_from_slice(&v[h / 2]);
        i += 4;
    }
    i
}

/// `dst[i] += c·src[i]` in **`f32`** — the merge sweep behind the slim
/// archive's epoch combines (`SlimSketch::add_scaled`). Eight lanes per
/// AVX2 step (twice the `f64` kernels' four): separate `vmulps`/`vaddps`
/// with the scalar operand order, never FMA, so each lane rounds exactly
/// like the scalar loop.
///
/// # Panics
/// Panics if the slice lengths differ.
pub fn add_scaled_f32(variant: Variant, dst: &mut [f32], src: &[f32], c: f32) {
    assert_eq!(dst.len(), src.len(), "slice lengths must match");
    #[cfg(target_arch = "x86_64")]
    if use_avx2(variant) {
        // SAFETY: AVX2 support verified at runtime; lengths checked above.
        unsafe { avx2::add_scaled_f32(dst, src, c) };
        return;
    }
    let _ = variant;
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += c * s;
    }
}

/// `dst[i] *= c` in **`f32`** — the decay sweep behind
/// `SlimSketch::scale`.
pub fn scale_f32(variant: Variant, dst: &mut [f32], c: f32) {
    #[cfg(target_arch = "x86_64")]
    if use_avx2(variant) {
        // SAFETY: AVX2 support verified at runtime.
        unsafe { avx2::scale_f32(dst, c) };
        return;
    }
    let _ = variant;
    for d in dst.iter_mut() {
        *d *= c;
    }
}

/// `dst[i] = a[i] − b[i]` in **`f32`** — the slim difference sweep.
///
/// # Panics
/// Panics if the slice lengths differ.
pub fn sub_f32(variant: Variant, dst: &mut [f32], a: &[f32], b: &[f32]) {
    assert_eq!(dst.len(), a.len(), "slice lengths must match");
    assert_eq!(dst.len(), b.len(), "slice lengths must match");
    #[cfg(target_arch = "x86_64")]
    if use_avx2(variant) {
        // SAFETY: AVX2 support verified at runtime; lengths checked above.
        unsafe { avx2::sub_f32(dst, a, b) };
        return;
    }
    let _ = variant;
    for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
        *d = x - y;
    }
}

/// `out[i] = f64::from(cells[buckets[i]])` — the gather-and-widen phase
/// of the slim batch estimator: eight `f32` cells gathered per AVX2 step
/// (`vgatherdps`), then widened to `f64` (`vcvtps2pd`, exact by IEEE-754
/// — every `f32` is representable in `f64`), so the estimator arithmetic
/// itself stays in `f64` exactly like the scalar slim path.
///
/// # Panics
/// Panics if the lengths differ or any bucket is out of range.
pub fn gather_widen_f32(variant: Variant, out: &mut [f64], cells: &[f32], buckets: &[usize]) {
    assert_eq!(out.len(), buckets.len(), "slice lengths must match");
    assert!(buckets.iter().all(|&b| b < cells.len()), "bucket out of range");
    #[cfg(target_arch = "x86_64")]
    if use_avx2(variant) {
        // SAFETY: AVX2 support verified at runtime; every index was just
        // bounds-checked against `cells`.
        unsafe { avx2::gather_widen_f32(out, cells, buckets) };
        return;
    }
    let _ = variant;
    for (v, &bucket) in out.iter_mut().zip(buckets) {
        *v = f64::from(cells[bucket]);
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{median, MAX_ROWS};
    #[allow(clippy::wildcard_imports)]
    use core::arch::x86_64::*;

    /// # Safety
    /// AVX2 must be supported; `dst.len() == src.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn axpy(dst: &mut [f64], a: f64, src: &[f64], b: f64) {
        let n = dst.len();
        let av = _mm256_set1_pd(a);
        let bv = _mm256_set1_pd(b);
        let mut i = 0;
        while i + 4 <= n {
            let d = _mm256_loadu_pd(dst.as_ptr().add(i));
            let s = _mm256_loadu_pd(src.as_ptr().add(i));
            let scaled = _mm256_mul_pd(d, av);
            let r = _mm256_add_pd(scaled, _mm256_mul_pd(bv, s));
            _mm256_storeu_pd(dst.as_mut_ptr().add(i), r);
            i += 4;
        }
        while i < n {
            let scaled = dst[i] * a;
            dst[i] = scaled + b * src[i];
            i += 1;
        }
    }

    /// # Safety
    /// AVX2 must be supported; `dst.len() == src.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn scale_assign(dst: &mut [f64], src: &[f64], c: f64) {
        let n = dst.len();
        let cv = _mm256_set1_pd(c);
        let mut i = 0;
        while i + 4 <= n {
            let s = _mm256_loadu_pd(src.as_ptr().add(i));
            _mm256_storeu_pd(dst.as_mut_ptr().add(i), _mm256_mul_pd(s, cv));
            i += 4;
        }
        while i < n {
            dst[i] = src[i] * c;
            i += 1;
        }
    }

    /// # Safety
    /// AVX2 must be supported; `dst.len() == src.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn add_scaled(dst: &mut [f64], src: &[f64], c: f64) {
        let n = dst.len();
        let cv = _mm256_set1_pd(c);
        let mut i = 0;
        while i + 4 <= n {
            let d = _mm256_loadu_pd(dst.as_ptr().add(i));
            let s = _mm256_loadu_pd(src.as_ptr().add(i));
            let r = _mm256_add_pd(d, _mm256_mul_pd(cv, s));
            _mm256_storeu_pd(dst.as_mut_ptr().add(i), r);
            i += 4;
        }
        while i < n {
            dst[i] += c * src[i];
            i += 1;
        }
    }

    /// # Safety
    /// AVX2 must be supported.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn scale(dst: &mut [f64], c: f64) {
        let n = dst.len();
        let cv = _mm256_set1_pd(c);
        let mut i = 0;
        while i + 4 <= n {
            let d = _mm256_loadu_pd(dst.as_ptr().add(i));
            _mm256_storeu_pd(dst.as_mut_ptr().add(i), _mm256_mul_pd(d, cv));
            i += 4;
        }
        while i < n {
            dst[i] *= c;
            i += 1;
        }
    }

    /// # Safety
    /// AVX2 must be supported; all three slices must share one length.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn sub(dst: &mut [f64], a: &[f64], b: &[f64]) {
        let n = dst.len();
        let mut i = 0;
        while i + 4 <= n {
            let x = _mm256_loadu_pd(a.as_ptr().add(i));
            let y = _mm256_loadu_pd(b.as_ptr().add(i));
            _mm256_storeu_pd(dst.as_mut_ptr().add(i), _mm256_sub_pd(x, y));
            i += 4;
        }
        while i < n {
            dst[i] = a[i] - b[i];
            i += 1;
        }
    }

    /// # Safety
    /// AVX2 must be supported; `out.len() == buckets.len()` and every
    /// bucket must be `< cells.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gather(out: &mut [f64], cells: &[f64], buckets: &[usize]) {
        let n = out.len();
        let mut i = 0;
        while i + 4 <= n {
            // usize is 64-bit on x86_64; indices fit in i64 (bounds-checked
            // by the caller against a slice length).
            let idx = _mm256_loadu_si256(buckets.as_ptr().add(i) as *const __m256i);
            let v = _mm256_i64gather_pd::<8>(cells.as_ptr(), idx);
            _mm256_storeu_pd(out.as_mut_ptr().add(i), v);
            i += 4;
        }
        while i < n {
            out[i] = cells[buckets[i]];
            i += 1;
        }
    }

    /// # Safety
    /// AVX2 must be supported; `dst.len() == src.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn add_scaled_f32(dst: &mut [f32], src: &[f32], c: f32) {
        let n = dst.len();
        let cv = _mm256_set1_ps(c);
        let mut i = 0;
        while i + 8 <= n {
            let d = _mm256_loadu_ps(dst.as_ptr().add(i));
            let s = _mm256_loadu_ps(src.as_ptr().add(i));
            let r = _mm256_add_ps(d, _mm256_mul_ps(cv, s));
            _mm256_storeu_ps(dst.as_mut_ptr().add(i), r);
            i += 8;
        }
        while i < n {
            dst[i] += c * src[i];
            i += 1;
        }
    }

    /// # Safety
    /// AVX2 must be supported.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn scale_f32(dst: &mut [f32], c: f32) {
        let n = dst.len();
        let cv = _mm256_set1_ps(c);
        let mut i = 0;
        while i + 8 <= n {
            let d = _mm256_loadu_ps(dst.as_ptr().add(i));
            _mm256_storeu_ps(dst.as_mut_ptr().add(i), _mm256_mul_ps(d, cv));
            i += 8;
        }
        while i < n {
            dst[i] *= c;
            i += 1;
        }
    }

    /// # Safety
    /// AVX2 must be supported; all three slices must share one length.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn sub_f32(dst: &mut [f32], a: &[f32], b: &[f32]) {
        let n = dst.len();
        let mut i = 0;
        while i + 8 <= n {
            let x = _mm256_loadu_ps(a.as_ptr().add(i));
            let y = _mm256_loadu_ps(b.as_ptr().add(i));
            _mm256_storeu_ps(dst.as_mut_ptr().add(i), _mm256_sub_ps(x, y));
            i += 8;
        }
        while i < n {
            dst[i] = a[i] - b[i];
            i += 1;
        }
    }

    /// # Safety
    /// AVX2 must be supported; `out.len() == buckets.len()` and every
    /// bucket must be `< cells.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gather_widen_f32(out: &mut [f64], cells: &[f32], buckets: &[usize]) {
        let n = out.len();
        let mut i = 0;
        while i + 8 <= n {
            // Bucket indices are `usize` (bounds-checked < cells.len() ≤
            // i32::MAX in any real sketch shape); narrow to the eight i32
            // lanes `vgatherdps` indexes with.
            let b = buckets.as_ptr().add(i);
            let idx = _mm256_setr_epi32(
                *b as i32,
                *b.add(1) as i32,
                *b.add(2) as i32,
                *b.add(3) as i32,
                *b.add(4) as i32,
                *b.add(5) as i32,
                *b.add(6) as i32,
                *b.add(7) as i32,
            );
            let v = _mm256_i32gather_ps::<4>(cells.as_ptr(), idx);
            // Widen the low and high four f32 lanes to f64 — exact.
            let lo = _mm256_cvtps_pd(_mm256_castps256_ps128(v));
            let hi = _mm256_cvtps_pd(_mm256_extractf128_ps::<1>(v));
            _mm256_storeu_pd(out.as_mut_ptr().add(i), lo);
            _mm256_storeu_pd(out.as_mut_ptr().add(i + 4), hi);
            i += 8;
        }
        while i < n {
            out[i] = f64::from(cells[buckets[i]]);
            i += 1;
        }
    }

    /// # Safety
    /// AVX2 must be supported.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn estimate_transform(vals: &mut [f64], mean: f64, denom: f64) {
        let n = vals.len();
        let mv = _mm256_set1_pd(mean);
        let dv = _mm256_set1_pd(denom);
        let mut i = 0;
        while i + 4 <= n {
            let v = _mm256_loadu_pd(vals.as_ptr().add(i));
            let r = _mm256_div_pd(_mm256_sub_pd(v, mv), dv);
            _mm256_storeu_pd(vals.as_mut_ptr().add(i), r);
            i += 4;
        }
        while i < n {
            vals[i] = (vals[i] - mean) / denom;
            i += 1;
        }
    }

    /// Lanewise median network over whole groups of four keys; returns how
    /// many leading keys it reduced. See [`super::median_rows`] for the
    /// operand-order argument.
    ///
    /// # Safety
    /// AVX2 must be supported; `vals.len() == h * out.len()` and
    /// `h <= MAX_ROWS`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn median_groups(
        net: &median::Network,
        out: &mut [f64],
        vals: &[f64],
        h: usize,
    ) -> usize {
        let n = out.len();
        let mut v = [_mm256_setzero_pd(); MAX_ROWS];
        let mut i = 0;
        while i + 4 <= n {
            for (row, lanes) in v[..h].iter_mut().enumerate() {
                *lanes = _mm256_loadu_pd(vals.as_ptr().add(row * n + i));
            }
            for &(a, b) in net {
                let (x, y) = (v[a], v[b]);
                v[a] = _mm256_min_pd(y, x);
                v[b] = _mm256_max_pd(x, y);
            }
            _mm256_storeu_pd(out.as_mut_ptr().add(i), v[h / 2]);
            i += 4;
        }
        i
    }
}
