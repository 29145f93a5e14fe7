//! Runtime SIMD dispatch for the workspace's hot kernels.
//!
//! The workspace stays std-only — no nightly `std::simd`, no new
//! dependencies — so an x86_64 kernel takes one of two forms, both behind
//! runtime feature detection. An elementwise sweep is its scalar loop
//! compiled a second time inside a `#[target_feature(enable = "avx2")]`
//! function, which LLVM vectorises (the sketch's sweeps, `scd_sketch::simd`).
//! A kernel the compiler cannot produce at speed from a scalar body is
//! explicit `core::arch` intrinsics: the gathers (this module's tabulation
//! hash, the sketch's cell gathers), the lanewise median network and the
//! CRC-32 carry-less multiply. One [`Variant`] is resolved per process
//! (detected once, cached): AVX2 when the CPU reports it, scalar
//! otherwise. The `SCD_SIMD` environment variable overrides detection
//! (`SCD_SIMD=scalar` forces the fallback — this is how CI exercises the
//! scalar paths on AVX2 runners; `SCD_SIMD=avx2` is honored only when the
//! CPU can actually run it). The CRC-32 carry-less-multiply kernel lives
//! here too and follows the same variant: it runs under [`Variant::Avx2`]
//! on hosts that also report `pclmulqdq` + `sse4.1` ([`clmul_supported`]).
//!
//! **Exactness contract.** Every SIMD kernel in this workspace is
//! *bit-identical* to its scalar reference: integer kernels (tabulation
//! gathers, XORs, masks) are pure data movement; floating-point kernels
//! perform exactly the scalar operation sequence per element — separate
//! multiply and add instructions (never FMA: Rust never contracts to it,
//! and no kernel enables the `fma` feature), same operand order, divisions
//! kept as divisions. A compiled sweep is that sequence by construction:
//! it is the scalar loop, with lanes that are independent cells.
//! Reductions whose reassociation would change results (row sums, squared
//! sums) stay scalar. Identity is enforced by exact `==` property tests
//! in each crate, run against both variants.

// The workspace otherwise denies unsafe code; intrinsics require it. All
// unsafe in this module is behind runtime feature detection.
#![allow(unsafe_code)]

use std::sync::OnceLock;

/// Which kernel implementation the process dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Portable reference implementation.
    Scalar,
    /// 256-bit AVX2 intrinsics (x86_64 only).
    Avx2,
}

impl Variant {
    /// Stable lowercase name, logged into bench JSON for machine context.
    pub fn name(self) -> &'static str {
        match self {
            Variant::Scalar => "scalar",
            Variant::Avx2 => "avx2",
        }
    }
}

/// Whether this host can execute the AVX2 kernels.
pub fn avx2_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether this host can execute the carry-less-multiply CRC-32 kernel.
pub fn clmul_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::is_x86_feature_detected!("pclmulqdq") && std::is_x86_feature_detected!("sse4.1")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Advances the raw CRC-32 register `state` over `data` with the
/// carry-less-multiply kernel; `None` when the host cannot run it (the
/// caller falls back to the table kernel).
///
/// # Panics
/// Panics unless `data` is a whole number of 16-byte lanes and at least
/// one 64-byte fold block.
pub(crate) fn crc32_fold(state: u32, data: &[u8]) -> Option<u32> {
    #[cfg(target_arch = "x86_64")]
    if clmul_supported() {
        // SAFETY: pclmulqdq and sse4.1 were just verified at runtime (sse2
        // is baseline on x86_64).
        return Some(unsafe { crc_clmul::fold(state, data) });
    }
    let _ = (state, data);
    None
}

static ACTIVE: OnceLock<Variant> = OnceLock::new();

/// The variant this process dispatches to (detected once, then cached —
/// consult `SCD_SIMD` before first use if you need to force a path).
pub fn active() -> Variant {
    *ACTIVE.get_or_init(|| match std::env::var("SCD_SIMD") {
        Ok(v) if v.eq_ignore_ascii_case("scalar") => Variant::Scalar,
        Ok(v) if v.eq_ignore_ascii_case("avx2") && avx2_supported() => Variant::Avx2,
        _ if avx2_supported() => Variant::Avx2,
        _ => Variant::Scalar,
    })
}

/// AVX2 batch bucketing for [`crate::Hasher4`]: the hash phase of
/// `update_batch`/`estimate_batch`. Groups of eight tabulation-domain keys
/// are hashed with three `vpgatherdd` gathers of 32-bit table entries, two
/// XORs and one mask; any group containing a `Poly4`-domain key
/// (> `u32::MAX`) falls back to the scalar path for that group. Bit-identical
/// to the scalar loop — everything here is integer data movement.
#[cfg(target_arch = "x86_64")]
pub(crate) mod hash_avx2 {
    use crate::Hasher4;
    #[allow(clippy::wildcard_imports)]
    use core::arch::x86_64::*;

    /// # Safety
    /// Caller must ensure the CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn bucket_batch(hasher: &Hasher4, keys: &[u64], k: usize, out: &mut [usize]) {
        let (t0, t1, t2) = hasher.tab.tables();
        let char_mask = _mm256_set1_epi32(0xFFFF);
        // A tabulation hash is 32 bits wide, so the mask's low 32 bits are
        // all of it that can matter.
        let k_mask = _mm256_set1_epi32((k as u64 - 1) as u32 as i32);
        let mut i = 0;
        while i + 8 <= keys.len() {
            let group = &keys[i..i + 8];
            let slots = &mut out[i..i + 8];
            // SAFETY (of the loads): `group` holds eight u64s, two 32-byte
            // unaligned loads.
            let lo = _mm256_loadu_si256(group.as_ptr() as *const __m256i);
            let hi = _mm256_loadu_si256(group.as_ptr().add(4) as *const __m256i);
            let high_halves = _mm256_srli_epi64::<32>(_mm256_or_si256(lo, hi));
            if _mm256_testz_si256(high_halves, high_halves) == 0 {
                // Mixed-domain group: at least one Poly4 key.
                for (slot, &key) in slots.iter_mut().zip(group) {
                    *slot = hasher.bucket(key, k);
                }
                i += 8;
                continue;
            }
            // The low half of each key, in key order: per 128-bit lane the
            // shuffle takes [lo0 lo1 hi0 hi1 | lo2 lo3 hi2 hi3], and the
            // permute puts the four `lo` keys ahead of the four `hi` ones.
            let halves = _mm256_castps_si256(_mm256_shuffle_ps::<0b10_00_10_00>(
                _mm256_castsi256_ps(lo),
                _mm256_castsi256_ps(hi),
            ));
            let k32 = _mm256_permute4x64_epi64::<0b11_01_10_00>(halves);
            let c0 = _mm256_and_si256(k32, char_mask);
            let c1 = _mm256_srli_epi32::<16>(k32);
            let d = _mm256_add_epi32(c0, c1);
            // Indices are in range by construction: c0, c1 < 2^16 and
            // d <= 2*(2^16 - 1) < DERIVED_LEN.
            let v0 = _mm256_i32gather_epi32::<4>(t0.as_ptr() as *const i32, c0);
            let v1 = _mm256_i32gather_epi32::<4>(t1.as_ptr() as *const i32, c1);
            let v2 = _mm256_i32gather_epi32::<4>(t2.as_ptr() as *const i32, d);
            let bucket = _mm256_and_si256(_mm256_xor_si256(_mm256_xor_si256(v0, v1), v2), k_mask);
            // SAFETY (of the stores): `usize` is 64 bits on x86_64 and
            // `slots` holds eight of them, two 32-byte unaligned stores.
            let first = _mm256_cvtepu32_epi64(_mm256_castsi256_si128(bucket));
            let second = _mm256_cvtepu32_epi64(_mm256_extracti128_si256::<1>(bucket));
            _mm256_storeu_si256(slots.as_mut_ptr() as *mut __m256i, first);
            _mm256_storeu_si256(slots.as_mut_ptr().add(4) as *mut __m256i, second);
            i += 8;
        }
        for (slot, &key) in out[i..].iter_mut().zip(&keys[i..]) {
            *slot = hasher.bucket(key, k);
        }
    }
}

/// CRC-32 by carry-less multiplication, after Gopal et al., *Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ Instruction*
/// (Intel, 2009), in the bit-reflected domain the IEEE polynomial uses.
///
/// A 128-bit lane `a` that sits `d` bits ahead of lane `b` in the message
/// is congruent (mod P) to `a.lo·(x^(d+32) mod P) ⊕ a.hi·(x^(d−32) mod P)`
/// aligned with `b`, so one pair of multiplies moves a lane any fixed
/// distance down the message without a reduction. Four lanes leapfrog 64
/// bytes a step; they are then folded into one, the 128 bits into 64 and
/// the 64 into 32 by Barrett reduction. Everything is XOR and carry-less
/// multiply — exact GF(2) arithmetic, so the result is the table kernel's
/// bit for bit.
#[cfg(target_arch = "x86_64")]
mod crc_clmul {
    #[allow(clippy::wildcard_imports)]
    use core::arch::x86_64::*;

    // Fold constants: `x^n mod P`, bit-reflected and shifted left by one
    // (the reflected product of two 64-bit operands lands one bit low).
    /// `x^(512+32) mod P` and `x^(512−32) mod P`: a lane moves 64 bytes.
    const FOLD_BY_4: (i64, i64) = (0x1_5444_2BD4, 0x1_C6E4_1596);
    /// `x^(128+32) mod P` and `x^(128−32) mod P`: a lane moves 16 bytes.
    const FOLD_BY_1: (i64, i64) = (0x1_7519_97D0, 0x0_CCAA_009E);
    /// `x^64 mod P`: folds the 96-bit intermediate to 64 bits.
    const FOLD_TO_64: i64 = 0x1_63CD_6124;
    /// The polynomial `P` itself and `μ = ⌊x^64 / P⌋`, for Barrett.
    const POLY_MU: (i64, i64) = (0x1_DB71_0641, 0x1_F701_1641);

    /// # Safety
    /// Caller must ensure the CPU supports SSE2.
    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn load(lane: &[u8]) -> __m128i {
        debug_assert_eq!(lane.len(), 16);
        // SAFETY (of the read): `lane` is a 16-byte slice, so the 16
        // bytes behind its pointer are readable; `loadu` needs no
        // alignment.
        _mm_loadu_si128(lane.as_ptr() as *const __m128i)
    }

    /// Moves lane `a` down the message by the distance `keys` encodes and
    /// adds it into lane `b`.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports PCLMULQDQ and SSE2.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse2")]
    unsafe fn fold_lane(a: __m128i, b: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(a, keys);
        let hi = _mm_clmulepi64_si128::<0x11>(a, keys);
        _mm_xor_si128(_mm_xor_si128(lo, hi), b)
    }

    /// Advances the raw CRC register `state` over `data`.
    ///
    /// # Panics
    /// Panics if `data` is shorter than 64 bytes or not a multiple of 16.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports PCLMULQDQ and SSE4.1.
    #[target_feature(enable = "pclmulqdq,sse2,sse4.1")]
    pub(super) unsafe fn fold(state: u32, data: &[u8]) -> u32 {
        assert!(data.len() % 16 == 0, "clmul CRC input must be whole 16-byte lanes");
        let mut blocks = data.chunks_exact(64);
        let first = blocks.next().expect("clmul CRC input must hold one 64-byte block");
        // The register enters as an XOR into the first four message bytes.
        let mut x0 = _mm_xor_si128(load(&first[..16]), _mm_cvtsi32_si128(state as i32));
        let mut x1 = load(&first[16..32]);
        let mut x2 = load(&first[32..48]);
        let mut x3 = load(&first[48..]);

        let by_4 = _mm_set_epi64x(FOLD_BY_4.1, FOLD_BY_4.0);
        for block in &mut blocks {
            x0 = fold_lane(x0, load(&block[..16]), by_4);
            x1 = fold_lane(x1, load(&block[16..32]), by_4);
            x2 = fold_lane(x2, load(&block[32..48]), by_4);
            x3 = fold_lane(x3, load(&block[48..]), by_4);
        }

        // Four lanes into one, then the remaining whole lanes.
        let by_1 = _mm_set_epi64x(FOLD_BY_1.1, FOLD_BY_1.0);
        let mut x = fold_lane(x0, x1, by_1);
        x = fold_lane(x, x2, by_1);
        x = fold_lane(x, x3, by_1);
        for lane in blocks.remainder().chunks_exact(16) {
            x = fold_lane(x, load(lane), by_1);
        }

        // 128 → 96 bits: the low half moves down 64 bits onto the high
        // half. 96 → 64: the low 32 bits move down 64 bits onto the rest.
        let low_32 = _mm_set_epi32(0, 0, 0, !0);
        let x = _mm_xor_si128(_mm_clmulepi64_si128::<0x10>(x, by_1), _mm_srli_si128::<8>(x));
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low_32), _mm_set_epi64x(0, FOLD_TO_64)),
            _mm_srli_si128::<4>(x),
        );

        // Barrett: q = ⌊x·μ / x^32⌋ (low 32 bits), remainder = x ⊕ q·P.
        let poly_mu = _mm_set_epi64x(POLY_MU.1, POLY_MU.0);
        let q = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low_32), poly_mu);
        let qp = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(q, low_32), poly_mu);
        _mm_extract_epi32::<1>(_mm_xor_si128(x, qp)) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_names_are_stable() {
        assert_eq!(Variant::Scalar.name(), "scalar");
        assert_eq!(Variant::Avx2.name(), "avx2");
    }

    #[test]
    fn active_is_consistent() {
        // Whatever was resolved, it must be stable across calls and
        // runnable on this host.
        let v = active();
        assert_eq!(v, active());
        if v == Variant::Avx2 {
            assert!(avx2_supported());
        }
    }
}
