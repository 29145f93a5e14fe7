//! SIMD kernels for the sketch's elementwise sweeps — `f64` for the fat
//! write path, `f32` (eight lanes per step instead of four) for the slim
//! read path — with runtime dispatch shared with `scd-hash` (see
//! [`scd_hash::simd`]).
//!
//! **One body, compiled twice.** Each elementwise sweep —
//! [`scale_assign`], [`add_scaled`], [`scale`], [`sub`],
//! [`estimate_transform`], [`add_scaled_f32`], [`scale_f32`] and the
//! archive's pack masks [`written_masks`] / [`written_masks_f32`] — is
//! written once, as its scalar loop. [`Variant::Avx2`]
//! runs that loop inside a `#[target_feature(enable = "avx2")]` function,
//! where LLVM vectorises it to 256-bit lanes (its own unrolling and
//! epilogue included); any other variant runs it as it is. Every kernel
//! is *bit-identical* to the scalar loop by construction, not by a second
//! implementation kept in step with the first:
//!
//! * Lanes are independent cells: vectorisation reorders *which cell is
//!   processed when*, never *the operations applied to one cell*, so
//!   there is no floating-point reassociation — each lane runs the
//!   scalar `vmulpd`/`vaddpd`/`vsubpd`/`vdivpd` sequence with the
//!   scalar operand order.
//! * Never FMA. Rust never contracts `a*b + c` into a fused multiply-add,
//!   and `avx2` is the only feature the compiled copy enables — never
//!   `fma` — so no multiply and add can be fused behind the loop's back
//!   (a fused pair rounds once instead of twice and moves bits).
//! * Reductions whose accumulation order matters ([`KarySketch::sum`],
//!   squared-sum rows in `ESTIMATEF2`) deliberately stay scalar in
//!   `kary.rs`; this module ships sweeps, gathers and one order-free
//!   reduction — [`median_rows`], the per-key median across rows, whose
//!   `min`/`max` exchanges select among the inputs and round nothing.
//!
//! **What stays hand-written.** Three kernels are explicit `core::arch`
//! intrinsics, each for a measured reason: the two gathers ([`gather`],
//! [`gather_widen_f32`]), because LLVM emits no `vgather` for an indexed
//! load, and the lanewise median network behind [`median_rows`], which
//! compiled from its scalar form ran about 2.2× slower. Both are exact
//! without any argument about rounding: a gather is data movement, and a
//! `min`/`max` exchange selects.
//!
//! Identity is enforced by exact tests in `tests/simd_identity.rs` and
//! `tests/simd_identity_f32.rs` with both variants forced directly.
//!
//! [`KarySketch::sum`]: crate::KarySketch::sum

// The crate otherwise denies unsafe code; the target-feature calls and the
// intrinsics require it. All unsafe here is behind runtime AVX2 detection.
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

/// Defines an elementwise sweep `pub fn name(variant, args…)` from its
/// scalar body alone. When `use_avx2` holds, the body runs inside a copy
/// compiled with `avx2` enabled and nothing else (a stray `fma` would let
/// LLVM fuse a multiply and an add and move bits); otherwise it runs as
/// it is.
macro_rules! sweep {
    ($(#[$doc:meta])* pub fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $body:block) => {
        $(#[$doc])*
        pub fn $name(variant: Variant, $($arg: $ty),*) {
            #[inline(always)]
            fn body($($arg: $ty),*) $body

            #[cfg(target_arch = "x86_64")]
            if use_avx2(variant) {
                /// # Safety
                /// AVX2 must be supported.
                #[target_feature(enable = "avx2")]
                unsafe fn avx2($($arg: $ty),*) {
                    body($($arg),*)
                }
                // SAFETY: AVX2 support verified at runtime.
                unsafe { avx2($($arg),*) };
                return;
            }
            let _ = variant;
            body($($arg),*)
        }
    };
}

sweep! {
    /// `dst[i] = src[i]·c` — the sweep behind
    /// [`KarySketch::scale_assign`](crate::KarySketch::scale_assign).
    ///
    /// # Panics
    /// Panics if the slice lengths differ.
    pub fn scale_assign(dst: &mut [f64], src: &[f64], c: f64) {
        assert_eq!(dst.len(), src.len(), "slice lengths must match");
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = s * c;
        }
    }
}

sweep! {
    /// `dst[i] += c·src[i]` — the sweep behind
    /// [`KarySketch::add_scaled`](crate::KarySketch::add_scaled) and each
    /// term of the blocked `COMBINE` and shard merge.
    ///
    /// # Panics
    /// Panics if the slice lengths differ.
    pub fn add_scaled(dst: &mut [f64], src: &[f64], c: f64) {
        assert_eq!(dst.len(), src.len(), "slice lengths must match");
        for (d, &s) in dst.iter_mut().zip(src) {
            *d += c * s;
        }
    }
}

sweep! {
    /// `dst[i] *= c` — the sweep behind
    /// [`KarySketch::scale`](crate::KarySketch::scale).
    pub fn scale(dst: &mut [f64], c: f64) {
        for d in dst.iter_mut() {
            *d *= c;
        }
    }
}

sweep! {
    /// `dst[i] = a[i] − b[i]` — the sweep behind
    /// [`KarySketch::sub_into`](crate::KarySketch::sub_into).
    ///
    /// # Panics
    /// Panics if the slice lengths differ.
    pub fn sub(dst: &mut [f64], a: &[f64], b: &[f64]) {
        assert_eq!(dst.len(), a.len(), "slice lengths must match");
        assert_eq!(dst.len(), b.len(), "slice lengths must match");
        for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
            *d = x - y;
        }
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

sweep! {
    /// `vals[i] = (vals[i] − sum/kf) / (1 − 1/kf)` — the per-cell estimator
    /// transform of `ESTIMATE`, applied to a whole gathered block. The two
    /// derived constants are computed once; each element then performs the
    /// identical subtract-and-divide the scalar formula performs.
    pub fn estimate_transform(vals: &mut [f64], sum: f64, kf: f64) {
        let mean = sum / kf;
        let denom = 1.0 - 1.0 / kf;
        for v in vals.iter_mut() {
            *v = (*v - mean) / denom;
        }
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

sweep! {
    /// `dst[i] += c·src[i]` in **`f32`** — the merge sweep behind the slim
    /// archive's epoch combines (`SlimSketch::add_scaled`). Eight lanes per
    /// AVX2 step (twice the `f64` sweeps' four): separate `vmulps`/`vaddps`
    /// with the scalar operand order, never FMA, so each lane rounds exactly
    /// like the scalar loop.
    ///
    /// # Panics
    /// Panics if the slice lengths differ.
    pub fn add_scaled_f32(dst: &mut [f32], src: &[f32], c: f32) {
        assert_eq!(dst.len(), src.len(), "slice lengths must match");
        for (d, &s) in dst.iter_mut().zip(src) {
            *d += c * s;
        }
    }
}

sweep! {
    /// `dst[i] *= c` in **`f32`** — the decay sweep behind
    /// `SlimSketch::scale`.
    pub fn scale_f32(dst: &mut [f32], c: f32) {
        for d in dst.iter_mut() {
            *d *= c;
        }
    }
}

sweep! {
    /// `masks[b]` bit `i` set ⇔ `cells[64·b + i]` is written (its bits are
    /// not `+0.0`'s) — the sweep an archive packs a fat table by, one
    /// 64-cell block per mask (the last block may be short).
    ///
    /// # Panics
    /// Panics unless `masks` holds one mask per block.
    pub fn written_masks(cells: &[f64], masks: &mut [u64]) {
        assert_eq!(masks.len(), cells.len().div_ceil(64), "one mask per 64-cell block");
        let mut blocks = cells.chunks_exact(64);
        for (block, mask) in (&mut blocks).zip(masks.iter_mut()) {
            let block: &[f64; 64] = block.try_into().expect("64 cells");
            *mask = (0..64).fold(0, |m, i| m | (u64::from(block[i].to_bits() != 0) << i));
        }
        if let Some(last) = masks.get_mut(cells.len() / 64) {
            let tail = blocks.remainder().iter().enumerate();
            *last = tail.fold(0, |m, (i, c)| m | (u64::from(c.to_bits() != 0) << i));
        }
    }
}

sweep! {
    /// [`written_masks`] over an **`f32`** table — the slim archive's
    /// pack sweep.
    ///
    /// # Panics
    /// Panics unless `masks` holds one mask per block.
    pub fn written_masks_f32(cells: &[f32], masks: &mut [u64]) {
        assert_eq!(masks.len(), cells.len().div_ceil(64), "one mask per 64-cell block");
        let mut blocks = cells.chunks_exact(64);
        for (block, mask) in (&mut blocks).zip(masks.iter_mut()) {
            let block: &[f32; 64] = block.try_into().expect("64 cells");
            *mask = (0..64).fold(0, |m, i| m | (u64::from(block[i].to_bits() != 0) << i));
        }
        if let Some(last) = masks.get_mut(cells.len() / 64) {
            let tail = blocks.remainder().iter().enumerate();
            *last = tail.fold(0, |m, (i, c)| m | (u64::from(c.to_bits() != 0) << i));
        }
    }
}

/// `out[i] = f64::from(cells[buckets[i]])` — the gather-and-widen phase
/// of the slim batch estimator: eight `f32` cells gathered per AVX2 step
/// (`vgatherdps`), then widened to `f64` (`vcvtps2pd`, exact by IEEE-754
/// — every `f32` is representable in `f64`), so the estimator arithmetic
/// itself stays in `f64` exactly like the scalar slim path. A table past
/// 2³¹ cells, whose indices do not fit `vgatherdps`' `i32` lanes, takes
/// the scalar loop, with the same bits.
///
/// # Panics
/// Panics if the lengths differ or any bucket is out of range.
pub fn gather_widen_f32(variant: Variant, out: &mut [f64], cells: &[f32], buckets: &[usize]) {
    assert_eq!(out.len(), buckets.len(), "slice lengths must match");
    assert!(buckets.iter().all(|&b| b < cells.len()), "bucket out of range");
    #[cfg(target_arch = "x86_64")]
    if use_avx2(variant) && indices_fit_i32(cells.len()) {
        // SAFETY: AVX2 support verified at runtime; every index was just
        // bounds-checked against `cells`, whose length keeps it in `i32`.
        unsafe { avx2::gather_widen_f32(out, cells, buckets) };
        return;
    }
    let _ = variant;
    for (v, &bucket) in out.iter_mut().zip(buckets) {
        *v = f64::from(cells[bucket]);
    }
}

/// Whether every index below `len` fits an `i32` lane — the narrowing
/// `vgatherdps` needs: `len ≤ 2³¹`, so the largest index is `i32::MAX`.
fn indices_fit_i32(len: usize) -> bool {
    len <= 1 << 31
}

/// The kernels the compiler cannot produce at speed from a scalar body.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{median, MAX_ROWS};
    #[allow(clippy::wildcard_imports)]
    use core::arch::x86_64::*;

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
    /// AVX2 must be supported; `out.len() == buckets.len()` and every
    /// bucket must be `< cells.len() ≤ 2³¹` (see `super::indices_fit_i32`).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gather_widen_f32(out: &mut [f64], cells: &[f32], buckets: &[usize]) {
        let n = out.len();
        let mut i = 0;
        while i + 8 <= n {
            // Bucket indices are `usize`, each `< cells.len() ≤ 2³¹`, so
            // narrowing to the eight i32 lanes `vgatherdps` indexes with
            // keeps every one.
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

#[cfg(test)]
mod tests {
    use super::indices_fit_i32;

    /// The AVX2 widening gather narrows every bucket to `i32`, so it may run
    /// only while the largest bucket, `len − 1`, is at most `i32::MAX`. (The
    /// scalar fallback past 2³¹ cells is not driven end to end here: that
    /// would take an 8 GiB table.)
    #[test]
    fn widening_gather_takes_avx2_only_while_indices_fit_i32() {
        assert!(indices_fit_i32(0));
        assert!(indices_fit_i32(1 << 31));
        assert_eq!(i32::try_from((1usize << 31) - 1), Ok(i32::MAX));
        assert!(!indices_fit_i32((1 << 31) + 1));
        assert!(!indices_fit_i32(usize::MAX));
    }
}
