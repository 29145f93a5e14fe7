//! 4-universal hash functions for sketch data structures.
//!
//! The k-ary sketch of *Sketch-based Change Detection* (IMC 2003) requires
//! its per-row hash functions `h_i : [u] -> [K]` to be **4-universal**
//! (4-wise independent): for any four distinct keys, the tuple of their hash
//! values is uniformly distributed over `[K]^4`. 4-universality is what
//! drives the variance bounds of the sketch's `ESTIMATE` and `ESTIMATEF2`
//! operations (Appendix A and B of the paper): each row estimator is
//! unbiased with variance at most `F2 / (K - 1)`.
//!
//! Two constructions are provided:
//!
//! * [`Poly4`] — the classic Carter–Wegman degree-3 polynomial over the
//!   Mersenne prime field `GF(2^61 - 1)`. Exactly 4-wise independent for
//!   keys below the prime; extended to the full `u64` key space with the
//!   Thorup–Zhang derived-character composition (three independent
//!   polynomials over the two 32-bit halves and their integer sum). This is
//!   the *reference* implementation: slower, but trivially auditable.
//! * [`Tab4`] — tabulation-based hashing after Thorup & Zhang,
//!   *Tabulation based 4-universal hashing with applications to second
//!   moment estimation* (the paper's reference \[33\]): for a 32-bit key
//!   split into 16-bit characters `c0, c1`, the hash is
//!   `T0[c0] ^ T1[c1] ^ T2[c0 + c1]` with three precomputed tables of
//!   32-bit entries. Three cache-friendly lookups per key; this is the
//!   construction the paper's Table 1 benchmarks. Keys wider than 32 bits
//!   fall back to [`Poly4`] transparently via [`Hasher4`].
//!
//! All constructions are deterministic functions of a seed
//! ([`splitmix::SplitMix64`] expands the seed), so sketches built with the
//! same seed are *combinable*: they agree on every `h_i` and therefore on
//! every cell, which is what makes the sketch linear across machines and
//! across time intervals.
//!
//! # Example
//!
//! ```
//! use scd_hash::{Hasher4, HashRows};
//!
//! // One 4-universal function, bucketed into K = 1024 cells.
//! let h = Hasher4::new(0xC0FFEE);
//! let b = h.bucket(192_168_0_1, 1024);
//! assert!(b < 1024);
//! assert_eq!(b, Hasher4::new(0xC0FFEE).bucket(192_168_0_1, 1024));
//!
//! // H = 5 independent rows, as a k-ary sketch uses: one family per
//! // `(H, K, seed)` per process, shared by every sketch built on it.
//! let rows = HashRows::shared(5, 1024, 42);
//! assert!(std::sync::Arc::ptr_eq(&rows, &HashRows::shared(5, 1024, 42)));
//! let mut buckets = [0usize; 5];
//! rows.buckets(10_0_0_7, &mut buckets);
//! assert!(buckets.iter().all(|&b| b < 1024));
//! ```

#![deny(unsafe_code)] // relaxed from `forbid` only for the vetted `simd` module
#![warn(missing_docs)]

pub mod byteio;
pub mod crc32;
pub mod envelope;
pub mod poly;
pub mod rows;
pub mod simd;
pub mod splitmix;
pub mod tabulation;

pub use crc32::{crc32, Crc32};
pub use poly::Poly4;
pub use rows::HashRows;
pub use simd::Variant;
pub use splitmix::{mix64, range_reduce, shard_of, MixBuildHasher, SplitMix64};
pub use tabulation::Tab4;

/// A seeded 4-universal hash function over `u64` keys.
///
/// Dispatches to [`Tab4`] (three table lookups) when the key fits in 32
/// bits and to [`Poly4`] otherwise, so the common case — destination IPv4
/// addresses, the key the paper's experiments use — takes the fast path
/// while the API stays honest for the full `u64` key space (§2.1 of the
/// paper allows keys built from any packet-header fields).
#[derive(Clone)]
pub struct Hasher4 {
    tab: Tab4,
    poly: Poly4,
}

impl Hasher4 {
    /// Builds the hasher from a seed. Equal seeds yield identical functions.
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let tab_seed = sm.next_u64();
        let poly_seed = sm.next_u64();
        Hasher4 { tab: Tab4::new(tab_seed), poly: Poly4::new(poly_seed) }
    }

    /// Returns the hash of `key`. Keys `< 2^32` use tabulation and get 32
    /// uniform bits (the upper 32 are zero); larger keys use the polynomial
    /// scheme and get a value below `2^61 - 1`, uniform in its low bits.
    /// Either way the low 32 bits — all a bucket of `K ≤ 2^32` reads — are
    /// uniform. Within each sub-domain the family is 4-wise independent;
    /// across the two sub-domains values are independent because the two
    /// schemes are seeded independently.
    #[inline]
    pub fn hash64(&self, key: u64) -> u64 {
        if key <= u32::MAX as u64 {
            self.tab.hash32(key as u32) as u64
        } else {
            self.poly.hash64(key)
        }
    }

    /// Maps `key` into `[0, k)`. `k` must be a power of two no larger than
    /// `2^32` (the paper uses `K ∈ {1024, …, 65536}`); this lets bucketing
    /// be a mask instead of a division on the per-record hot path.
    #[inline]
    pub fn bucket(&self, key: u64, k: usize) -> usize {
        debug_assert!(k.is_power_of_two(), "K must be a power of two, got {k}");
        (self.hash64(key) & (k as u64 - 1)) as usize
    }

    /// Buckets a whole block of keys in one pass: `out[i] = bucket(keys[i],
    /// k)`. One tight loop over this function's tabulation tables — the
    /// tables stay resident in cache across the block instead of being
    /// re-fetched per sketch row per key, which is what makes batched
    /// sketch updates fast.
    ///
    /// Dispatches to the AVX2 kernel when the process resolved
    /// [`simd::active`] to [`Variant::Avx2`]; the result is bit-identical
    /// to [`bucket_batch_scalar`](Self::bucket_batch_scalar) either way.
    ///
    /// # Panics
    /// Panics if `out.len() != keys.len()`.
    #[inline]
    pub fn bucket_batch(&self, keys: &[u64], k: usize, out: &mut [usize]) {
        self.bucket_batch_with(simd::active(), keys, k, out);
    }

    /// [`bucket_batch`](Self::bucket_batch) with an explicit kernel choice —
    /// the hook the SIMD/scalar identity tests use to force both paths in
    /// one process. [`Variant::Avx2`] silently falls back to scalar on hosts
    /// without AVX2.
    ///
    /// # Panics
    /// Panics if `out.len() != keys.len()`.
    pub fn bucket_batch_with(&self, variant: Variant, keys: &[u64], k: usize, out: &mut [usize]) {
        assert_eq!(out.len(), keys.len(), "output slice must match key count");
        #[cfg(target_arch = "x86_64")]
        if variant == Variant::Avx2 && simd::avx2_supported() {
            // SAFETY: AVX2 support was just verified at runtime.
            #[allow(unsafe_code)]
            unsafe {
                simd::hash_avx2::bucket_batch(self, keys, k, out)
            };
            return;
        }
        let _ = variant;
        self.bucket_batch_scalar(keys, k, out);
    }

    /// The scalar reference implementation of [`bucket_batch`](Self::bucket_batch).
    ///
    /// # Panics
    /// Panics if `out.len() != keys.len()`.
    #[inline]
    pub fn bucket_batch_scalar(&self, keys: &[u64], k: usize, out: &mut [usize]) {
        assert_eq!(out.len(), keys.len(), "output slice must match key count");
        for (slot, &key) in out.iter_mut().zip(keys) {
            *slot = self.bucket(key, k);
        }
    }
}

impl std::fmt::Debug for Hasher4 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hasher4").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_equal_seeds() {
        let a = Hasher4::new(7);
        let b = Hasher4::new(7);
        for key in [0u64, 1, 0xFFFF_FFFF, 0x1_0000_0000, u64::MAX] {
            assert_eq!(a.hash64(key), b.hash64(key));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = Hasher4::new(1);
        let b = Hasher4::new(2);
        let same = (0..1000u64).filter(|&k| a.hash64(k) == b.hash64(k)).count();
        assert!(same < 5, "independent seeds should almost never collide, got {same}");
    }

    #[test]
    fn bucket_in_range() {
        let h = Hasher4::new(99);
        for k in [2usize, 64, 1024, 65536] {
            for key in 0..256u64 {
                assert!(h.bucket(key, k) < k);
            }
        }
    }

    #[test]
    fn covers_both_key_subdomains() {
        let h = Hasher4::new(3);
        // 32-bit path and 64-bit path must both produce stable output.
        let small = h.hash64(0xDEAD_BEEF);
        let large = h.hash64(0xDEAD_BEEF_0000_0001);
        assert_eq!(small, h.hash64(0xDEAD_BEEF));
        assert_eq!(large, h.hash64(0xDEAD_BEEF_0000_0001));
    }
}
