//! SplitMix64: a tiny, fast, well-mixed PRNG used only to expand user seeds
//! into hash-function parameters and table contents.
//!
//! The sketch layer must be deterministic given a seed — two sketches are
//! combinable only if they were built from the *same* hash functions — so we
//! vendor this ten-line generator instead of depending on an external RNG
//! whose stream might change between versions. SplitMix64 is the seed
//! expander recommended by the xoshiro authors; its output is equidistributed
//! and passes BigCrush, which is far more than seed expansion needs.

/// The SplitMix64 finalizer: a cheap, statistically strong bit mix of one
/// `u64`. This is the mixing step of [`SplitMix64::next_u64`] exposed as a
/// pure function, for callers that need a *stateless* scramble — shard
/// routing of structured key spaces (sequential IPs must not stripe), and
/// the [`MixBuildHasher`] hash-set hasher.
///
/// Not 4-universal and not seeded — never use it where the sketch variance
/// bounds require [`crate::Hasher4`].
#[inline]
pub fn mix64(key: u64) -> u64 {
    let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Lemire multiply-shift range reduction: maps a 64-bit hash to `[0, n)`
/// with one widening multiply and a shift — no division on the hot path,
/// and (unlike masking) `n` need not be a power of two. Uniform hashes map
/// to near-uniform buckets: bucket `i` receives `⌈2^64·(i+1)/n⌉ −
/// ⌈2^64·i/n⌉` of the 2^64 inputs, within one of each other.
#[inline]
pub fn range_reduce(hash: u64, n: usize) -> usize {
    (((hash as u128) * (n as u128)) >> 64) as usize
}

/// The key → shard mix: [`mix64`] so that structured key spaces
/// (sequential IPs, aligned prefixes) still spread evenly — `key % n`
/// stripes them — then [`range_reduce`], so there is no integer division
/// on the per-update path. Any deterministic partition is *correct*
/// (linearity); balance is purely a throughput concern. The sharded
/// engine routes updates with it and an ingest node filters the keys it
/// owns with it; the two partitions are independent.
#[inline]
pub fn shard_of(key: u64, shards: usize) -> usize {
    range_reduce(mix64(key), shards)
}

/// A `std::hash::BuildHasher` for `u64`-keyed sets based on [`mix64`].
///
/// `HashSet<u64>`'s default SipHash is an order of magnitude slower than
/// one multiply-mix, and DoS resistance is pointless for sets the process
/// itself fills with keys it already hashed four-universally. Used by the
/// engine's distinct-key log and the detector's key dedup — both on the
/// per-interval critical path.
#[derive(Debug, Clone, Copy, Default)]
pub struct MixBuildHasher;

/// Hasher state for [`MixBuildHasher`].
#[derive(Debug, Clone, Default)]
pub struct MixHasher {
    state: u64,
}

impl std::hash::Hasher for MixHasher {
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.state = mix64(self.state ^ n);
    }

    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback (8-byte chunks); the intended key type is u64,
        // which takes the `write_u64` fast path.
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }
}

impl std::hash::BuildHasher for MixBuildHasher {
    type Hasher = MixHasher;

    #[inline]
    fn build_hasher(&self) -> MixHasher {
        MixHasher::default()
    }
}

/// The SplitMix64 pseudo-random generator (Steele, Lea & Flood 2014).
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed. Every seed, including 0, is valid.
    #[inline]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The current internal state. `SplitMix64::new(g.state())` resumes the
    /// stream exactly where `g` left off — checkpoint/restore relies on this
    /// to make restored detectors bit-identical to uninterrupted ones.
    #[inline]
    pub fn state(&self) -> u64 {
        self.state
    }

    /// Returns the next 64 pseudo-random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Returns a value uniform in `[0, bound)` by rejection sampling, so the
    /// result is exactly uniform (important when drawing polynomial
    /// coefficients from a prime field).
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Rejection zone keeps the distribution exactly uniform.
        let zone = u64::MAX - (u64::MAX % bound) - 1;
        loop {
            let v = self.next_u64();
            if v <= zone {
                return v % bound;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_vector() {
        // First outputs for seed 1234567, cross-checked against the public
        // reference implementation of SplitMix64.
        let mut sm = SplitMix64::new(1234567);
        let got: Vec<u64> = (0..3).map(|_| sm.next_u64()).collect();
        assert_eq!(got[0], 6457827717110365317);
        assert_eq!(got[1], 3203168211198807973);
        assert_eq!(got[2], 9817491932198370423);
    }

    #[test]
    fn deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn next_below_in_range_and_uniform_ish() {
        let mut sm = SplitMix64::new(7);
        let bound = 10u64;
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            let v = sm.next_below(bound);
            assert!(v < bound);
            counts[v as usize] += 1;
        }
        // Each bin expects 10_000; allow generous slack (5 sigma ~ 475).
        for &c in &counts {
            assert!((9_400..=10_600).contains(&c), "bin count {c} out of range");
        }
    }

    #[test]
    fn zero_seed_is_fine() {
        let mut sm = SplitMix64::new(0);
        let a = sm.next_u64();
        let b = sm.next_u64();
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn mix64_matches_generator_step() {
        // mix64 is exactly one next_u64 step: generator with state s emits
        // mix64(s) (the add happens before the mix, so compare at s).
        for seed in [0u64, 1, 42, u64::MAX / 2] {
            let mut sm = SplitMix64::new(seed);
            assert_eq!(sm.next_u64(), mix64(seed));
        }
    }

    #[test]
    fn range_reduce_covers_and_balances() {
        // Uniform-ish hashes must spread evenly over a non-power-of-two n.
        let n = 12usize;
        let mut counts = vec![0u32; n];
        for key in 0..120_000u64 {
            let b = range_reduce(mix64(key), n);
            assert!(b < n);
            counts[b] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!((9_300..=10_700).contains(&c), "bucket {i} count {c}");
        }
        // Degenerate edges.
        assert_eq!(range_reduce(u64::MAX, 1), 0);
        assert_eq!(range_reduce(0, 7), 0);
        assert_eq!(range_reduce(u64::MAX, 7), 6);
    }

    #[test]
    fn mix_build_hasher_usable_in_std_set() {
        let mut set: std::collections::HashSet<u64, MixBuildHasher> =
            std::collections::HashSet::with_hasher(MixBuildHasher);
        for key in 0..1_000u64 {
            assert!(set.insert(key));
            assert!(!set.insert(key));
        }
        assert_eq!(set.len(), 1_000);
    }
}
