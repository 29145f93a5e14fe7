//! Tabulation-based 4-universal hashing (Thorup–Zhang), the fast scheme the
//! paper benchmarks in Table 1.
//!
//! A 32-bit key is split into two 16-bit characters `c0, c1` plus one
//! *derived* character `c0 + c1` (a 17-bit integer sum, **not** XOR — the
//! sum is what makes the isolation argument work). The hash is
//!
//! ```text
//! h(key) = T0[c0] ^ T1[c1] ^ T2[c0 + c1]
//! ```
//!
//! with three tables of uniformly random 32-bit entries. Thorup & Zhang
//! prove this family is 4-universal: among any four distinct keys, at least
//! one of the three coordinates `(c0, c1, c0+c1)` takes some value at
//! exactly one key, so that key's table entry is uniform and independent of
//! the other three hash values; peeling repeats the argument.
//!
//! Memory: `2·2^16 + (2^17 - 1)` entries of 4 bytes ≈ 1 MiB per function —
//! the "constant, small amount of memory" regime the paper targets. Each
//! hash costs three L1/L2 loads and two XORs. The 32 output bits are all a
//! bucket ever reads: a sketch masks the hash to `log₂ K` bits, and `K` is
//! at most `2^32` (`HashRows` rejects more), so wider entries would only
//! carry bits every mask discards. Bit `i` of an XOR reads only bit `i` of
//! its operands, so keeping the low half of each entry keeps the low half
//! of every hash: the buckets are the ones 64-bit entries drawn from the
//! same stream give. One evaluation yields two independent 16-bit values,
//! a quarter of the paper's "each hash computation produces 8 independent
//! 16-bit hash values" (§5.3).
//!
//! Table entries are the low halves of [`SplitMix64`] outputs; we rely on
//! the entries being i.i.d. uniform (the information-theoretic form of the
//! Thorup–Zhang theorem) rather than on their space-efficient
//! pseudo-random filling, since 1 MiB of true tables is cheap on modern
//! hosts and keeps the proof obligations minimal.

use crate::splitmix::SplitMix64;

const CHAR_BITS: u32 = 16;
const CHAR_MASK: u32 = (1 << CHAR_BITS) - 1;
const TABLE_LEN: usize = 1 << CHAR_BITS; // 65536
const DERIVED_LEN: usize = (1 << (CHAR_BITS + 1)) - 1; // c0 + c1 <= 2*(2^16 - 1)

/// Tabulation-based 4-universal hash function for 32-bit keys.
#[derive(Clone)]
pub struct Tab4 {
    t0: Box<[u32]>,
    t1: Box<[u32]>,
    t2: Box<[u32]>,
}

impl Tab4 {
    /// Builds the three tables from a seed (deterministic; ≈1 MiB).
    pub fn new(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut fill =
            |len: usize| -> Box<[u32]> { (0..len).map(|_| rng.next_u64() as u32).collect() };
        Tab4 { t0: fill(TABLE_LEN), t1: fill(TABLE_LEN), t2: fill(DERIVED_LEN) }
    }

    /// Hashes a 32-bit key to 32 uniform bits.
    #[inline]
    pub fn hash32(&self, key: u32) -> u32 {
        let c0 = key & CHAR_MASK;
        let c1 = key >> CHAR_BITS;
        let d = c0 + c1;
        // Indices are in range by construction; use plain indexing (bounds
        // checks are branch-predicted away and we forbid unsafe code).
        self.t0[c0 as usize] ^ self.t1[c1 as usize] ^ self.t2[d as usize]
    }

    /// Maps a 32-bit key into `[0, k)` for power-of-two `k ≤ 2^32`.
    #[inline]
    pub fn bucket32(&self, key: u32, k: usize) -> usize {
        debug_assert!(k.is_power_of_two());
        (self.hash32(key) as u64 & (k as u64 - 1)) as usize
    }

    /// The three lookup tables `(T0, T1, T2)`, for the crate's SIMD batch
    /// kernel (which gathers from them directly).
    pub(crate) fn tables(&self) -> (&[u32], &[u32], &[u32]) {
        (&self.t0, &self.t1, &self.t2)
    }

    /// Approximate heap footprint in bytes (for capacity planning).
    pub fn memory_bytes(&self) -> usize {
        (self.t0.len() + self.t1.len() + self.t2.len()) * std::mem::size_of::<u32>()
    }
}

impl std::fmt::Debug for Tab4 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tab4").field("memory_bytes", &self.memory_bytes()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let a = Tab4::new(31337);
        let b = Tab4::new(31337);
        for key in [0u32, 1, 65535, 65536, u32::MAX] {
            assert_eq!(a.hash32(key), b.hash32(key));
        }
    }

    #[test]
    fn seed_sensitive() {
        let a = Tab4::new(1);
        let b = Tab4::new(2);
        let same = (0..1000u32).filter(|&k| a.hash32(k) == b.hash32(k)).count();
        assert_eq!(same, 0, "32-bit outputs from independent seeds should not collide");
    }

    #[test]
    fn derived_index_never_out_of_bounds() {
        let t = Tab4::new(5);
        // The extreme characters exercise the largest derived index.
        let _ = t.hash32(u32::MAX); // c0 = c1 = 0xFFFF, d = 0x1FFFE = DERIVED_LEN - 1
        let _ = t.hash32(0);
    }

    #[test]
    fn bucket_distribution_uniform() {
        let t = Tab4::new(99);
        let k = 64usize;
        let n = 64_000u32;
        let mut counts = vec![0u32; k];
        for key in 0..n {
            counts[t.bucket32(key.wrapping_mul(2654435761), k)] += 1;
        }
        let expect = (n as usize / k) as f64;
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expect).abs() < expect * 0.2,
                "bucket {i} count {c} vs expected {expect}"
            );
        }
    }

    #[test]
    fn memory_is_about_one_mib() {
        let t = Tab4::new(0);
        let mb = t.memory_bytes();
        assert!(mb > 1_000_000 && mb < 1_100_000, "memory {mb}");
    }

    /// Statistical check of 4-wise independence on one bit: for four fixed
    /// distinct keys, the XOR of a fixed output bit across random seeds
    /// should be unbiased. A 3-universal-only family constructed the same
    /// way *without* the derived table would fail the analogous parity test
    /// on keys forming a 2x2 combinatorial rectangle.
    #[test]
    fn four_key_parity_unbiased() {
        // Keys forming a rectangle in (c0, c1): the adversarial pattern for
        // plain 2-table tabulation.
        let keys = [0x0001_0002u32, 0x0001_0003, 0x0004_0002, 0x0004_0003];
        let trials = 2000;
        let mut ones = 0u32;
        for seed in 0..trials {
            let t = Tab4::new(seed as u64 * 7919 + 1);
            let parity = keys.iter().fold(0u32, |acc, &k| acc ^ t.hash32(k)) & 1;
            ones += parity;
        }
        // Without the derived table, parity would be 0 for every seed.
        // With 4-universality it is a fair coin: expect ~1000, sd ~22.
        assert!(
            (880..=1120).contains(&ones),
            "parity ones = {ones} out of {trials}, expected near {}",
            trials / 2
        );
    }

    /// The same rectangle test but *demonstrating* why the derived table is
    /// needed: dropping T2 yields constant-zero parity.
    #[test]
    fn two_table_scheme_fails_rectangle_parity() {
        let keys = [0x0001_0002u32, 0x0001_0003, 0x0004_0002, 0x0004_0003];
        for seed in 0..50u64 {
            let t = Tab4::new(seed);
            let two_table = |key: u32| {
                let c0 = (key & CHAR_MASK) as usize;
                let c1 = (key >> CHAR_BITS) as usize;
                t.t0[c0] ^ t.t1[c1]
            };
            let parity = keys.iter().fold(0u32, |acc, &k| acc ^ two_table(k));
            assert_eq!(parity, 0, "rectangle XOR must cancel without derived char");
        }
    }
}
