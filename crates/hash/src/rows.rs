//! `H` independent hash rows, the per-sketch bundle the k-ary sketch uses.
//!
//! A k-ary sketch is "an array of hash tables" (paper §3.1): `H` rows, each
//! with its own independent 4-universal function into `[K]`. The paper
//! constructs the rows "using independent seeds"; [`HashRows`] does exactly
//! that, deriving one sub-seed per row from the family seed through
//! SplitMix64 so that the whole bundle is reproducible from `(h, k, seed)`.
//!
//! Two sketches can only be combined (added, subtracted, scaled — the
//! linearity that the forecasting layer depends on) if they share the same
//! rows. `HashRows` therefore exposes an [`identity`](HashRows::identity)
//! fingerprint that the sketch layer checks before combining.
//!
//! A family is ~1 MiB of tabulation tables per row and never changes once
//! built, so a process holds one per identity: [`HashRows::shared`] hands
//! out the live `Arc` of a family, or builds it. The registry keeps only
//! `Weak`s, so a family is freed when its last sketch goes.

use crate::splitmix::SplitMix64;
use crate::Hasher4;
use std::sync::{Arc, Mutex, PoisonError, Weak};

/// Largest `K` a family serves: tabulation entries are 32 bits wide.
const MAX_K: usize = 1 << 32;

/// `(H, K, seed)`, as [`HashRows::identity`] gives it.
type Identity = (usize, usize, u64);

/// Every family handed out by [`HashRows::shared`], by identity; the dead
/// ones are swept at the next build.
static FAMILIES: Mutex<Vec<(Identity, Weak<HashRows>)>> = Mutex::new(Vec::new());

/// A family of `H` independent 4-universal hash functions into `[0, K)`.
#[derive(Clone)]
pub struct HashRows {
    hashers: Vec<Hasher4>,
    k: usize,
    identity: Identity,
}

impl HashRows {
    /// The process's family of identity `(h, k, seed)`: the one every live
    /// holder shares, or a new one when nothing holds it. Sketches combine
    /// only within a family, and a family is the largest fixed cost of a
    /// sketch, so this — not [`new`](Self::new) — is how to get one.
    ///
    /// # Panics
    /// As [`new`](Self::new).
    pub fn shared(h: usize, k: usize, seed: u64) -> Arc<HashRows> {
        let identity = (h, k, seed);
        // A panic in `new` leaves the map as it was, so a poisoned lock is
        // still a consistent one.
        let mut families = FAMILIES.lock().unwrap_or_else(PoisonError::into_inner);
        let live = families.iter().find(|(id, _)| *id == identity).and_then(|(_, w)| w.upgrade());
        if let Some(rows) = live {
            return rows;
        }
        let rows = Arc::new(HashRows::new(h, k, seed));
        families.retain(|(_, family)| family.strong_count() > 0);
        families.push((identity, Arc::downgrade(&rows)));
        rows
    }

    /// Builds `h` rows bucketing into `[0, k)`, unshared: a family of its
    /// own. `k` must be a power of two no larger than `2^32`; `h` must be at
    /// least 1.
    ///
    /// # Panics
    /// Panics if `h == 0`, or `k` is not a power of two, or `k > 2^32`.
    pub fn new(h: usize, k: usize, seed: u64) -> Self {
        assert!(h >= 1, "need at least one hash row");
        assert!(k.is_power_of_two(), "K must be a power of two, got {k}");
        assert!(k <= MAX_K, "K must be at most 2^32 (32-bit tabulation entries), got {k}");
        let mut sm = SplitMix64::new(seed ^ 0x5EED_0F5E_ED00);
        let hashers = (0..h).map(|_| Hasher4::new(sm.next_u64())).collect();
        HashRows { hashers, k, identity: (h, k, seed) }
    }

    /// Number of rows `H`.
    #[inline]
    pub fn h(&self) -> usize {
        self.hashers.len()
    }

    /// Number of buckets per row `K`.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Fingerprint `(H, K, seed)`: two `HashRows` with equal identities
    /// compute identical bucket mappings, so sketches built on them are
    /// combinable.
    #[inline]
    pub fn identity(&self) -> Identity {
        self.identity
    }

    /// Bucket of `key` in row `row`.
    #[inline]
    pub fn bucket(&self, row: usize, key: u64) -> usize {
        self.hashers[row].bucket(key, self.k)
    }

    /// Fills `out[row]` with the bucket of `key` in each row.
    ///
    /// # Panics
    /// Panics if `out.len() != self.h()`.
    #[inline]
    pub fn buckets(&self, key: u64, out: &mut [usize]) {
        assert_eq!(out.len(), self.h(), "output slice must have H entries");
        for (slot, hasher) in out.iter_mut().zip(&self.hashers) {
            *slot = hasher.bucket(key, self.k);
        }
    }

    /// Buckets a block of keys for **all** `H` rows, row-major:
    /// `out[row * keys.len() + i]` is the bucket of `keys[i]` in `row`.
    ///
    /// This is the batched form of [`buckets`](Self::buckets), restructured
    /// key-innermost: each row's ~1 MiB of tabulation tables is walked in
    /// one pass over the whole block, instead of being evicted and
    /// re-fetched `H − 1` rows later for every single key. The sketch
    /// layer's `update_batch` builds on exactly this layout — row-major
    /// bucket blocks feed row-major register scatters.
    ///
    /// # Panics
    /// Panics if `out.len() != self.h() * keys.len()`.
    pub fn buckets_batch(&self, keys: &[u64], out: &mut [usize]) {
        assert_eq!(out.len(), self.h() * keys.len(), "output must be H x keys.len()");
        if keys.is_empty() {
            return;
        }
        for (hasher, row_out) in self.hashers.iter().zip(out.chunks_exact_mut(keys.len())) {
            hasher.bucket_batch(keys, self.k, row_out);
        }
    }
}

impl std::fmt::Debug for HashRows {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HashRows")
            .field("h", &self.h())
            .field("k", &self.k)
            .field("seed", &self.identity.2)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_mutually_independent() {
        let rows = HashRows::new(5, 1024, 9);
        // Two rows agreeing on many keys would indicate shared seeds.
        for a in 0..5 {
            for b in (a + 1)..5 {
                let agree =
                    (0..2000u64).filter(|&key| rows.bucket(a, key) == rows.bucket(b, key)).count();
                // Expected agreement = 2000/1024 ≈ 2.
                assert!(agree < 12, "rows {a},{b} agree on {agree} of 2000 keys");
            }
        }
    }

    #[test]
    fn same_identity_same_mapping() {
        let a = HashRows::new(3, 256, 123);
        let b = HashRows::new(3, 256, 123);
        assert_eq!(a.identity(), b.identity());
        for key in 0..500u64 {
            for row in 0..3 {
                assert_eq!(a.bucket(row, key), b.bucket(row, key));
            }
        }
    }

    #[test]
    fn buckets_fills_all_rows() {
        let rows = HashRows::new(7, 64, 1);
        let mut out = [usize::MAX; 7];
        rows.buckets(42, &mut out);
        for (row, &b) in out.iter().enumerate() {
            assert_eq!(b, rows.bucket(row, 42));
            assert!(b < 64);
        }
    }

    #[test]
    fn buckets_batch_matches_per_key_buckets() {
        let rows = HashRows::new(5, 512, 33);
        // Mix the 32-bit (tabulation) and 64-bit (polynomial) sub-domains.
        let keys: Vec<u64> =
            (0..300u64).map(|i| if i % 3 == 0 { i << 40 | i } else { i * 2654435761 }).collect();
        let mut out = vec![usize::MAX; 5 * keys.len()];
        rows.buckets_batch(&keys, &mut out);
        for row in 0..5 {
            for (i, &key) in keys.iter().enumerate() {
                assert_eq!(out[row * keys.len() + i], rows.bucket(row, key), "row {row} key {key}");
            }
        }
    }

    #[test]
    fn buckets_batch_empty_block_is_noop() {
        let rows = HashRows::new(3, 64, 1);
        rows.buckets_batch(&[], &mut []);
    }

    #[test]
    #[should_panic(expected = "H x keys.len()")]
    fn buckets_batch_rejects_misshapen_output() {
        let rows = HashRows::new(3, 64, 1);
        let mut out = [0usize; 5];
        rows.buckets_batch(&[1, 2], &mut out);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_k() {
        let _ = HashRows::new(1, 1000, 0);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn rejects_zero_rows() {
        let _ = HashRows::new(0, 1024, 0);
    }

    #[test]
    fn the_largest_k_is_served() {
        let rows = HashRows::new(1, 1 << 32, 4);
        assert!((0..1000u64).any(|key| rows.bucket(0, key) >= 1 << 31));
    }
}
