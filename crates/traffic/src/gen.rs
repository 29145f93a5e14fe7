//! Synthetic netflow trace generation.
//!
//! The generator models a router's traffic as a fixed population of
//! destination hosts whose shares follow a Zipf law, modulated over time by
//! a diurnal cycle and per-key multiplicative noise. Each interval is
//! generated independently and deterministically from `(seed, interval)`,
//! and every *record* within an interval is a pure function of
//! `(seed, interval, index)` via counter-based RNG streams, so traces can
//! be produced out of order, in parallel (see
//! [`TrafficGenerator::interval_records_range`]), or streamed without
//! storage — parallel output is bit-identical to sequential.
//!
//! Calibration targets the *shape* of the paper's dataset (§4.1): ten
//! routers from 861 K to 60 M records over four hours. The three
//! [`RouterProfile`]s keep those relative sizes at roughly 1/100 scale so
//! that full experiment sweeps finish in minutes; every experiment binary
//! exposes `--scale` to move back toward paper scale.

use crate::record::FlowRecord;
use crate::rng::Rng;
use crate::zipf::Zipf;
use scd_hash::SplitMix64;

/// Generator parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficConfig {
    /// Number of distinct destination hosts in the router's population.
    pub n_flows: usize,
    /// Zipf exponent of the destination share distribution (≈1 for
    /// Internet-like skew).
    pub zipf_exponent: f64,
    /// Mean flow records per second (before diurnal modulation).
    pub records_per_sec: f64,
    /// Interval length in seconds (the paper uses 300 and 60).
    pub interval_secs: u32,
    /// Median bytes per flow record.
    pub median_flow_bytes: f64,
    /// Lognormal sigma of per-record byte counts.
    pub byte_sigma: f64,
    /// Relative amplitude of the diurnal volume cycle, in `[0, 1)`.
    pub diurnal_amplitude: f64,
    /// Diurnal period, in intervals.
    pub diurnal_period: f64,
    /// Sigma of the per-(key, interval) lognormal rate jitter — this is
    /// what gives each flow a non-trivial time series to forecast.
    pub key_noise_sigma: f64,
    /// Master seed.
    pub seed: u64,
}

impl TrafficConfig {
    /// Expected records per interval before modulation.
    pub fn records_per_interval(&self) -> f64 {
        self.records_per_sec * self.interval_secs as f64
    }

    /// Multiplies record volume and key population by `scale` (used by the
    /// experiment binaries' `--scale` flag).
    pub fn scaled(mut self, scale: f64) -> Self {
        assert!(scale > 0.0, "scale must be positive");
        self.records_per_sec *= scale;
        self.n_flows = ((self.n_flows as f64 * scale).round() as usize).max(16);
        self
    }
}

/// The paper's three router sizes (§5.2: "three router data files
/// representing high volume (over 60 Million), medium (12.7 Million), and
/// low (5.3 Million) records" over four hours), at ~1/100 scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RouterProfile {
    /// ≈42 records/s (~600 K over 4 h at full scale ÷ 100 ≈ 150 K records).
    Large,
    /// ≈9 records/s.
    Medium,
    /// ≈3.7 records/s.
    Small,
}

impl RouterProfile {
    /// A calibrated configuration for this profile.
    pub fn config(&self, seed: u64) -> TrafficConfig {
        // Paper: large 60 M, medium 12.7 M, small 5.3 M records per 4 h.
        // 1/100 scale => 600 K / 127 K / 53 K records per 4 h trace.
        let records_per_sec = match self {
            RouterProfile::Large => 600_000.0 / 14_400.0,
            RouterProfile::Medium => 127_000.0 / 14_400.0,
            RouterProfile::Small => 53_000.0 / 14_400.0,
        };
        let n_flows = match self {
            RouterProfile::Large => 30_000,
            RouterProfile::Medium => 10_000,
            RouterProfile::Small => 4_000,
        };
        TrafficConfig {
            n_flows,
            zipf_exponent: 1.05,
            records_per_sec,
            interval_secs: 300,
            median_flow_bytes: 2_000.0,
            byte_sigma: 1.2,
            diurnal_amplitude: 0.3,
            // One diurnal cycle per 24 h = 288 five-minute intervals.
            diurnal_period: 288.0,
            key_noise_sigma: 0.25,
            seed,
        }
    }

    /// Display name matching the paper's terminology.
    pub fn name(&self) -> &'static str {
        match self {
            RouterProfile::Large => "large",
            RouterProfile::Medium => "medium",
            RouterProfile::Small => "small",
        }
    }

    /// All three profiles.
    pub const ALL: [RouterProfile; 3] =
        [RouterProfile::Large, RouterProfile::Medium, RouterProfile::Small];
}

/// Deterministic synthetic trace generator.
#[derive(Debug, Clone)]
pub struct TrafficGenerator {
    config: TrafficConfig,
    zipf: Zipf,
    /// Salt for the stable rank -> destination IP mapping.
    ip_salt: u64,
}

impl TrafficGenerator {
    /// Builds a generator; `O(n_flows)` setup for the Zipf table.
    pub fn new(config: TrafficConfig) -> Self {
        let zipf = Zipf::new(config.n_flows, config.zipf_exponent);
        let ip_salt = SplitMix64::new(config.seed ^ 0x1B_AD5EED).next_u64();
        TrafficGenerator { config, zipf, ip_salt }
    }

    /// The generator's configuration.
    pub fn config(&self) -> &TrafficConfig {
        &self.config
    }

    /// Stable destination IP for a traffic rank. Ranks map to
    /// pseudo-random, distinct-with-high-probability addresses so key
    /// distributions over the sketch are realistic (not sequential).
    pub fn dst_ip_of_rank(&self, rank: usize) -> u32 {
        let mut sm =
            SplitMix64::new(self.ip_salt ^ (rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        // Avoid 0.0.0.0 and multicast/reserved high ranges for plausibility.
        0x0100_0000 + (sm.next_u64() % 0xDF00_0000u64) as u32
    }

    /// Expected byte volume of `rank` in interval `t` (the ground-truth
    /// mean the noise jitters around) — used by tests and by anomaly
    /// calibration.
    pub fn expected_rank_bytes(&self, rank: usize, t: usize) -> f64 {
        self.config.records_per_interval()
            * self.diurnal_factor(t)
            * self.zipf.pmf(rank)
            * self.mean_flow_bytes()
    }

    /// Mean (not median) bytes per record under the lognormal model.
    pub fn mean_flow_bytes(&self) -> f64 {
        // E[lognormal(mu, sigma)] with median e^mu: median * exp(sigma^2/2).
        self.config.median_flow_bytes * (self.config.byte_sigma.powi(2) / 2.0).exp()
    }

    /// Diurnal volume multiplier at interval `t`.
    pub fn diurnal_factor(&self, t: usize) -> f64 {
        1.0 + self.config.diurnal_amplitude
            * (2.0 * std::f64::consts::PI * t as f64 / self.config.diurnal_period).sin()
    }

    /// Per-(key, interval) lognormal rate multiplier — deterministic in
    /// `(seed, rank, t)` so the same interval regenerates identically.
    fn key_interval_factor(&self, rank: usize, t: usize) -> f64 {
        let mut rng = Rng::new(
            self.config
                .seed
                .wrapping_mul(0xA24B_AED4_963E_E407)
                .wrapping_add((rank as u64) << 20)
                .wrapping_add(t as u64),
        );
        rng.lognormal(
            -self.config.key_noise_sigma.powi(2) / 2.0, // unit mean
            self.config.key_noise_sigma,
        )
    }

    /// Number of records in interval `t` — a Poisson draw from a dedicated
    /// count stream, deterministic in `(seed, t)`.
    pub fn interval_len(&self, t: usize) -> usize {
        let mut rng = Rng::new(self.config.seed.wrapping_add(0x5EED * t as u64 + 1));
        let lambda = self.config.records_per_interval() * self.diurnal_factor(t);
        rng.poisson(lambda) as usize
    }

    /// Per-interval salt for the counter-based record streams. Kept
    /// separate from the count stream so record contents are not
    /// correlated with the Poisson draw.
    fn interval_salt(&self, t: usize) -> u64 {
        SplitMix64::new(
            self.config.seed
                ^ 0xC0DE_5A17_u64.rotate_left(32)
                ^ (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        )
        .next_u64()
    }

    /// Synthesizes record `i` of interval `t` from its own counter-based
    /// RNG stream (SplitMix64 seeded at golden-ratio stride `i` off the
    /// interval salt). This is what makes the source plane parallel:
    /// `record_at(t, i)` is a pure function of `(seed, t, i)`, so any
    /// partition of `0..interval_len(t)` across producer threads
    /// regenerates exactly the records the sequential path produces.
    fn record_at(
        &self,
        salt: u64,
        t: usize,
        i: usize,
        t0: u64,
        interval_ms: u64,
        mu: f64,
    ) -> FlowRecord {
        let mut rng = Rng::new(salt.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        let rank = self.zipf.sample(&mut rng);
        let key_factor = self.key_interval_factor(rank, t);
        let bytes =
            (rng.lognormal(mu, self.config.byte_sigma) * key_factor).round().max(40.0) as u64;
        let packets = ((bytes as f64 / 700.0).ceil() as u32).max(1);
        FlowRecord {
            timestamp_ms: t0 + rng.below(interval_ms),
            src_ip: 0x0100_0000 + (rng.next_u64() % 0xDF00_0000u64) as u32,
            dst_ip: self.dst_ip_of_rank(rank),
            src_port: 1024 + (rng.below(64_512)) as u16,
            dst_port: *[80u16, 443, 53, 25, 8080, 22]
                .get(rng.below(6) as usize)
                .expect("index < 6"),
            protocol: if rng.below(10) < 8 { 6 } else { 17 },
            bytes,
            packets,
        }
    }

    /// Generates records `lo..hi` of interval `t` — exactly the slice
    /// `interval_records(t)[lo..hi]`, without generating the rest. This is
    /// the per-producer building block of the parallel source plane.
    ///
    /// # Panics
    /// Panics if `lo > hi` or `hi > interval_len(t)`.
    pub fn interval_records_range(&self, t: usize, lo: usize, hi: usize) -> Vec<FlowRecord> {
        assert!(lo <= hi, "range reversed: {lo} > {hi}");
        let n = self.interval_len(t);
        assert!(hi <= n, "range end {hi} past interval length {n}");
        let salt = self.interval_salt(t);
        let interval_ms = self.config.interval_secs as u64 * 1000;
        let t0 = t as u64 * interval_ms;
        let mu = self.config.median_flow_bytes.ln();
        (lo..hi).map(|i| self.record_at(salt, t, i, t0, interval_ms, mu)).collect()
    }

    /// Generates all flow records of interval `t` (timestamps within
    /// `[t·L, (t+1)·L)` milliseconds, `L` the interval length).
    pub fn interval_records(&mut self, t: usize) -> Vec<FlowRecord> {
        let n = self.interval_len(t);
        self.interval_records_range(t, 0, n)
    }

    /// Generates a full trace of `intervals` consecutive intervals.
    pub fn trace(&mut self, intervals: usize) -> Vec<Vec<FlowRecord>> {
        (0..intervals).map(|t| self.interval_records(t)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn small_config() -> TrafficConfig {
        TrafficConfig {
            n_flows: 500,
            zipf_exponent: 1.0,
            records_per_sec: 10.0,
            interval_secs: 60,
            median_flow_bytes: 1_000.0,
            byte_sigma: 1.0,
            diurnal_amplitude: 0.2,
            diurnal_period: 100.0,
            key_noise_sigma: 0.2,
            seed: 77,
        }
    }

    #[test]
    fn deterministic_per_interval() {
        let mut a = TrafficGenerator::new(small_config());
        let mut b = TrafficGenerator::new(small_config());
        assert_eq!(a.interval_records(3), b.interval_records(3));
        // And independent of generation order.
        let _ = a.interval_records(7);
        assert_eq!(a.interval_records(3), b.interval_records(3));
    }

    #[test]
    fn record_count_tracks_configured_rate() {
        let mut g = TrafficGenerator::new(small_config());
        let total: usize = (0..20).map(|t| g.interval_records(t).len()).sum();
        let expect = 20.0 * 600.0; // 10 rec/s * 60 s * 20 intervals
        let got = total as f64;
        assert!((got - expect).abs() < 0.15 * expect, "total records {got} vs expected {expect}");
    }

    #[test]
    fn traffic_is_heavy_tailed() {
        let mut g = TrafficGenerator::new(small_config());
        let mut per_key: HashMap<u32, u64> = HashMap::new();
        for t in 0..10 {
            for r in g.interval_records(t) {
                *per_key.entry(r.dst_ip).or_default() += r.bytes;
            }
        }
        let mut volumes: Vec<u64> = per_key.values().copied().collect();
        volumes.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = volumes.iter().sum();
        let top10: u64 = volumes.iter().take(10).sum();
        // Zipf(1.0) over 500 keys: top 10 of ~500 keys should carry a
        // disproportionate share (≥ 25% here; uniform would give 2%).
        assert!(top10 as f64 > 0.25 * total as f64, "top-10 share {} of {}", top10, total);
    }

    #[test]
    fn timestamps_fall_in_interval() {
        let mut g = TrafficGenerator::new(small_config());
        for t in [0usize, 5] {
            let lo = t as u64 * 60_000;
            let hi = lo + 60_000;
            for r in g.interval_records(t) {
                assert!((lo..hi).contains(&r.timestamp_ms));
            }
        }
    }

    #[test]
    fn diurnal_cycle_modulates_volume() {
        let mut cfg = small_config();
        cfg.diurnal_amplitude = 0.5;
        cfg.diurnal_period = 40.0;
        let g = TrafficGenerator::new(cfg);
        // Peak at t = 10 (sin = 1), trough at t = 30 (sin = -1).
        assert!(g.diurnal_factor(10) > 1.4);
        assert!(g.diurnal_factor(30) < 0.6);
    }

    #[test]
    fn rank_ip_mapping_is_stable_and_spread() {
        let g = TrafficGenerator::new(small_config());
        let a = g.dst_ip_of_rank(0);
        assert_eq!(a, g.dst_ip_of_rank(0));
        let distinct: std::collections::HashSet<u32> =
            (0..500).map(|r| g.dst_ip_of_rank(r)).collect();
        assert!(distinct.len() >= 499, "rank IPs should be essentially unique");
    }

    #[test]
    fn profiles_are_ordered_by_volume() {
        let l = RouterProfile::Large.config(1);
        let m = RouterProfile::Medium.config(1);
        let s = RouterProfile::Small.config(1);
        assert!(l.records_per_sec > m.records_per_sec);
        assert!(m.records_per_sec > s.records_per_sec);
        assert!(l.n_flows > m.n_flows && m.n_flows > s.n_flows);
    }

    #[test]
    fn scaling_moves_volume() {
        let base = RouterProfile::Small.config(1);
        let doubled = base.scaled(2.0);
        assert!((doubled.records_per_sec - 2.0 * base.records_per_sec).abs() < 1e-9);
        assert_eq!(doubled.n_flows, base.n_flows * 2);
    }

    #[test]
    fn range_synthesis_matches_sequential_slices() {
        let mut g = TrafficGenerator::new(small_config());
        for t in [0usize, 3, 11] {
            let full = g.interval_records(t);
            let n = full.len();
            assert_eq!(g.interval_len(t), n);
            // Arbitrary sub-ranges are exactly the corresponding slices.
            for (lo, hi) in [(0, n), (0, n / 2), (n / 2, n), (n / 3, 2 * n / 3), (n, n)] {
                assert_eq!(g.interval_records_range(t, lo, hi), full[lo..hi], "range {lo}..{hi}");
            }
            // Any contiguous partition concatenates back to the full interval.
            for parts in [2usize, 3, 7] {
                let chunk = n.div_ceil(parts);
                let merged: Vec<_> = (0..parts)
                    .flat_map(|w| g.interval_records_range(t, w * chunk, ((w + 1) * chunk).min(n)))
                    .collect();
                assert_eq!(merged, full, "{parts}-way partition of interval {t}");
            }
        }
    }

    #[test]
    fn merged_shard_partition_is_same_multiset_as_sequential() {
        let mut g = TrafficGenerator::new(small_config());
        let full = g.interval_records(2);
        // Producers synthesize disjoint counter ranges; merging them must
        // reproduce the sequential interval as a multiset.
        let n = full.len();
        let chunk = n.div_ceil(4);
        let mut merged: Vec<FlowRecord> = Vec::new();
        for w in 0..4 {
            merged.extend(g.interval_records_range(2, w * chunk, ((w + 1) * chunk).min(n)));
        }
        let sort_key =
            |r: &FlowRecord| (r.timestamp_ms, r.src_ip, r.dst_ip, r.src_port, r.bytes, r.packets);
        let mut expect = full;
        expect.sort_by_key(sort_key);
        merged.sort_by_key(sort_key);
        assert_eq!(merged, expect);
    }

    #[test]
    fn bytes_have_floor_and_packets_positive() {
        let mut g = TrafficGenerator::new(small_config());
        for r in g.interval_records(0) {
            assert!(r.bytes >= 40);
            assert!(r.packets >= 1);
        }
    }
}
