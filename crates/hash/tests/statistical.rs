//! Statistical tests of 4-wise independence for both hash constructions.
//!
//! These are distributional checks over many seeds, complementing the
//! in-module determinism/uniformity unit tests: pairwise independence
//! (chi-square over bucket pairs), 4-key joint-bit unbiasedness, and
//! avalanche behaviour.

use scd_hash::{Hasher4, Poly4, Tab4};

/// Chi-square test that pairs of bucketed values for two fixed distinct
/// keys are uniform over the 2-D grid — a consequence of (even just)
/// pairwise independence, which 4-universality implies.
fn pairwise_chi_square(hash: impl Fn(u64, u64) -> (usize, usize), cells: usize) {
    let trials = 4000u64;
    let mut counts = vec![0u32; cells * cells];
    for seed in 0..trials {
        let (a, b) = hash(seed, 0xDEAD_BEEF);
        counts[a * cells + b] += 1;
    }
    let expect = trials as f64 / (cells * cells) as f64;
    let chi2: f64 = counts
        .iter()
        .map(|&c| {
            let d = c as f64 - expect;
            d * d / expect
        })
        .sum();
    // dof = cells² − 1 = 63 at cells = 8; mean 63, sd ~11.2. Accept < 63 +
    // 5 sd ≈ 120 (false-failure probability ≪ 1e-6).
    let dof = (cells * cells - 1) as f64;
    let limit = dof + 5.0 * (2.0 * dof).sqrt();
    assert!(chi2 < limit, "chi2 = {chi2:.1}, limit {limit:.1}");
}

#[test]
fn tabulation_pairs_uniform_across_seeds() {
    pairwise_chi_square(
        |seed, key| {
            let t = Tab4::new(seed);
            (t.bucket32(key as u32, 8), t.bucket32(key.wrapping_add(1) as u32, 8))
        },
        8,
    );
}

#[test]
fn polynomial_pairs_uniform_across_seeds() {
    pairwise_chi_square(
        |seed, key| {
            let p = Poly4::new(seed);
            (p.bucket(key, 8), p.bucket(key.wrapping_add(1), 8))
        },
        8,
    );
}

/// 4-wise check: for four distinct keys, the AND of a fixed output bit
/// should hit with probability 1/16 — the statistic that separates 4-wise
/// independent families from merely 3-wise ones.
fn four_key_and_probability(bit_of: impl Fn(u64, u64) -> u64) {
    let keys = [3u64, 1_000_003, 77_777_777, 4_294_967_295];
    let trials = 8000u64;
    let mut hits = 0u64;
    for seed in 0..trials {
        let all_ones = keys.iter().all(|&k| bit_of(seed, k) == 1);
        hits += all_ones as u64;
    }
    let p = hits as f64 / trials as f64;
    // Expect 1/16 = 0.0625, sd = sqrt(p(1-p)/n) ≈ 0.0027; allow 5 sd.
    assert!((p - 0.0625).abs() < 0.014, "P(all four bits set) = {p}, expected 0.0625");
}

#[test]
fn tabulation_four_key_joint_bit() {
    four_key_and_probability(|seed, key| u64::from(Tab4::new(seed).hash32(key as u32) & 1));
}

#[test]
fn polynomial_four_key_joint_bit() {
    four_key_and_probability(|seed, key| Poly4::new(seed).hash64(key) & 1);
}

/// Output bits should each be close to fair over a key sweep (bit balance)
/// for a single fixed function.
#[test]
fn bit_balance_over_keys() {
    let h = Hasher4::new(1234);
    let n = 50_000u64;
    let mut ones = [0u32; 32];
    for key in 0..n {
        let v = h.hash64(key);
        for (b, slot) in ones.iter_mut().enumerate() {
            *slot += ((v >> b) & 1) as u32;
        }
    }
    for (b, &c) in ones.iter().enumerate() {
        let p = c as f64 / n as f64;
        assert!((p - 0.5).abs() < 0.02, "output bit {b} biased: P(1) = {p}");
    }
}

/// Flipping one input bit should flip roughly half the output bits on
/// average (avalanche) — not implied by 4-universality but expected from
/// these constructions and relied on when masking buckets from low bits.
/// The keys here are tabulation-domain, whose hash is 32 bits wide.
#[test]
fn avalanche_on_single_bit_flips() {
    let h = Hasher4::new(777);
    let n = 2_000u64;
    let mut total_flips = 0u64;
    let mut cases = 0u64;
    for key in 0..n {
        let base = h.hash64(key);
        for bit in 0..32 {
            let flipped = h.hash64(key ^ (1 << bit));
            total_flips += (base ^ flipped).count_ones() as u64;
            cases += 1;
        }
    }
    let avg = total_flips as f64 / cases as f64;
    assert!((avg - 16.0).abs() < 1.0, "average flipped output bits {avg}, expected ~16");
}

/// Bucket masks of each row in a family must look independent: the
/// empirical joint distribution over (row0, row1) buckets is uniform.
#[test]
fn family_rows_jointly_uniform() {
    use scd_hash::HashRows;
    let rows = HashRows::new(2, 16, 99);
    let n = 64_000u64;
    let mut counts = vec![0u32; 256];
    for key in 0..n {
        let a = rows.bucket(0, key);
        let b = rows.bucket(1, key);
        counts[a * 16 + b] += 1;
    }
    let expect = n as f64 / 256.0;
    let chi2: f64 = counts
        .iter()
        .map(|&c| {
            let d = c as f64 - expect;
            d * d / expect
        })
        .sum();
    let dof = 255.0f64;
    let limit = dof + 5.0 * (2.0 * dof).sqrt();
    assert!(chi2 < limit, "chi2 = {chi2:.1} over limit {limit:.1}");
}
