//! Carter–Wegman polynomial hashing over the Mersenne prime `p = 2^61 - 1`.
//!
//! A degree-3 polynomial with coefficients drawn uniformly from `GF(p)`,
//! evaluated at the key, is **exactly 4-wise independent** over keys in
//! `[0, p)`: for any four distinct keys the four values are determined by a
//! bijection (the 4×4 Vandermonde system) from the four uniform
//! coefficients. This is the textbook construction the paper's references
//! [10, 39] (Carter & Wegman) establish.
//!
//! `u64` keys do not fit below `p`, so [`Poly4::hash64`] uses the
//! Thorup–Zhang *derived character* composition: split the key into two
//! 32-bit characters `c0, c1`, and combine three **independent** 4-universal
//! functions as
//!
//! ```text
//! h(c0, c1) = P0(c0) + P1(c1) + P2(c0 + c1)   (mod p)
//! ```
//!
//! Among any four distinct `(c0, c1)` pairs, one of the three coordinates
//! `c0`, `c1`, `c0 + c1` takes a value at exactly one of the four keys
//! (Thorup–Zhang's isolation lemma), so the corresponding independent
//! component hash makes that key's value uniform and independent of the
//! other three — yielding 4-wise independence over the whole `u64` domain.
//!
//! Arithmetic uses the standard Mersenne trick: `x mod (2^61-1)` is
//! `(x & p) + (x >> 61)` followed by one conditional subtraction, and the
//! 128-bit product of two sub-61-bit values reduces with two shifts.

use crate::splitmix::SplitMix64;

/// The Mersenne prime `2^61 - 1`.
pub const MERSENNE_P: u64 = (1 << 61) - 1;

/// Reduces a 128-bit value modulo `2^61 - 1`.
#[inline]
fn mod_p128(x: u128) -> u64 {
    // x = hi * 2^61 + lo  =>  x ≡ hi + lo (mod 2^61 - 1). The high part can
    // reach 2^67, so reduce it once more in 128-bit space before narrowing.
    let lo = (x as u64) & MERSENNE_P;
    let hi = x >> 61; // < 2^67: reduce again before it fits in u64
    let hi = ((hi as u64) & MERSENNE_P) + (hi >> 61) as u64;
    let mut r = lo + (hi & MERSENNE_P) + (hi >> 61);
    if r >= MERSENNE_P {
        r -= MERSENNE_P;
    }
    if r >= MERSENNE_P {
        r -= MERSENNE_P;
    }
    r
}

/// Multiplies two field elements modulo `2^61 - 1`.
#[inline]
fn mul_mod(a: u64, b: u64) -> u64 {
    mod_p128(a as u128 * b as u128)
}

/// Adds two field elements modulo `2^61 - 1`.
#[inline]
fn add_mod(a: u64, b: u64) -> u64 {
    let s = a + b; // both < 2^61, no overflow in u64
    if s >= MERSENNE_P {
        s - MERSENNE_P
    } else {
        s
    }
}

/// One degree-3 polynomial over `GF(2^61 - 1)`: 4-universal for keys `< p`.
#[derive(Debug, Clone, Copy)]
struct CubicPoly {
    /// Coefficients `a0..a3`, each uniform in `[0, p)`.
    coef: [u64; 4],
}

impl CubicPoly {
    fn new(rng: &mut SplitMix64) -> Self {
        let mut coef = [0u64; 4];
        for c in &mut coef {
            *c = rng.next_below(MERSENNE_P);
        }
        CubicPoly { coef }
    }

    /// Evaluates the polynomial by Horner's rule. `x` must be `< p`.
    #[inline]
    fn eval(&self, x: u64) -> u64 {
        debug_assert!(x < MERSENNE_P);
        let mut acc = self.coef[3];
        acc = add_mod(mul_mod(acc, x), self.coef[2]);
        acc = add_mod(mul_mod(acc, x), self.coef[1]);
        add_mod(mul_mod(acc, x), self.coef[0])
    }
}

/// A 4-universal hash function over the full `u64` key space, built from
/// three independent degree-3 polynomials over `GF(2^61 - 1)`.
///
/// Output values lie in `[0, 2^61 - 1)`; because the modulus is within
/// `2^-43` of a power of two, the low 16 (or 32) bits are uniform to within
/// a bias that is negligible against the sketch's own `O(1/√K)` estimation
/// error, so masking to a power-of-two bucket count is sound in practice.
#[derive(Debug, Clone)]
pub struct Poly4 {
    p0: CubicPoly,
    p1: CubicPoly,
    p2: CubicPoly,
}

impl Poly4 {
    /// Builds the function from a seed; equal seeds give equal functions.
    pub fn new(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        Poly4 {
            p0: CubicPoly::new(&mut rng),
            p1: CubicPoly::new(&mut rng),
            p2: CubicPoly::new(&mut rng),
        }
    }

    /// Hashes a full 64-bit key (derived-character composition).
    #[inline]
    pub fn hash64(&self, key: u64) -> u64 {
        let c0 = key & 0xFFFF_FFFF;
        let c1 = key >> 32;
        let d = c0 + c1; // < 2^33 < p
        add_mod(add_mod(self.p0.eval(c0), self.p1.eval(c1)), self.p2.eval(d))
    }

    /// Maps `key` into `[0, k)` for power-of-two `k`.
    #[inline]
    pub fn bucket(&self, key: u64, k: usize) -> usize {
        debug_assert!(k.is_power_of_two());
        (self.hash64(key) & (k as u64 - 1)) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_arithmetic_identities() {
        assert_eq!(add_mod(MERSENNE_P - 1, 1), 0);
        assert_eq!(add_mod(0, 0), 0);
        assert_eq!(mul_mod(0, 12345), 0);
        assert_eq!(mul_mod(1, MERSENNE_P - 1), MERSENNE_P - 1);
        // (p-1)^2 mod p = 1 since p-1 ≡ -1.
        assert_eq!(mul_mod(MERSENNE_P - 1, MERSENNE_P - 1), 1);
    }

    #[test]
    fn mod_p128_matches_naive() {
        let cases: [u128; 6] =
            [0, 1, MERSENNE_P as u128, (MERSENNE_P as u128) * 2 + 5, u64::MAX as u128, u128::MAX];
        for &x in &cases {
            assert_eq!(mod_p128(x) as u128, x % MERSENNE_P as u128, "x = {x}");
        }
    }

    #[test]
    fn horner_matches_direct_evaluation() {
        let mut rng = SplitMix64::new(11);
        let p = CubicPoly::new(&mut rng);
        for x in [0u64, 1, 2, 1_000_003, MERSENNE_P - 1] {
            // direct: a0 + a1 x + a2 x^2 + a3 x^3
            let x2 = mul_mod(x, x);
            let x3 = mul_mod(x2, x);
            let direct = add_mod(
                add_mod(p.coef[0], mul_mod(p.coef[1], x)),
                add_mod(mul_mod(p.coef[2], x2), mul_mod(p.coef[3], x3)),
            );
            assert_eq!(p.eval(x), direct);
        }
    }

    #[test]
    fn deterministic_and_seed_sensitive() {
        let a = Poly4::new(5);
        let b = Poly4::new(5);
        let c = Poly4::new(6);
        assert_eq!(a.hash64(123), b.hash64(123));
        assert_ne!(a.hash64(123), c.hash64(123)); // astronomically unlikely to collide
    }

    #[test]
    fn pairwise_collision_rate_close_to_uniform() {
        // Empirical sanity check of universality: collision probability of
        // bucketed values over K buckets should be ~1/K.
        let h = Poly4::new(2024);
        let k = 256usize;
        let n = 2000u64;
        let buckets: Vec<usize> = (0..n).map(|key| h.bucket(key * 2654435761, k)).collect();
        let mut collisions = 0u64;
        let mut pairs = 0u64;
        for i in 0..buckets.len() {
            for j in (i + 1)..buckets.len() {
                pairs += 1;
                if buckets[i] == buckets[j] {
                    collisions += 1;
                }
            }
        }
        let rate = collisions as f64 / pairs as f64;
        let expected = 1.0 / k as f64;
        assert!(
            (rate - expected).abs() < expected * 0.25,
            "collision rate {rate} too far from {expected}"
        );
    }

    #[test]
    fn output_below_modulus() {
        let h = Poly4::new(77);
        for key in [0u64, 1, u32::MAX as u64, u64::MAX] {
            assert!(h.hash64(key) < MERSENNE_P);
        }
    }
}
