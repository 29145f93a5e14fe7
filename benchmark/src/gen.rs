//! The seeded workload generator. It is the benchmark's own (SplitMix64 +
//! a Zipf CDF), not `scd_traffic::TrafficGenerator`, so a change to the
//! repository's generator cannot move a workload. The program under test
//! only ever sees the trace file this module writes.

use crate::spec::{KeyDist, Workload, INTERVAL_SECS};
use sketch_change::traffic::{io, FlowRecord};
use std::fs::File;
use std::io::BufWriter;
use std::path::Path;

/// First destination IP of every key universe (10.0.0.0).
pub const KEY_BASE: u32 = 0x0A00_0000;

/// SplitMix64 (Steele, Lea, Flood): one add and three xor-shift-multiply
/// steps per draw.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)` by multiply-shift (bias below 2^-32 for the
    /// sizes used here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() >> 32) * n) >> 32
    }
}

/// Zipf law over ranks `0..n`: `P(rank r) ∝ (r + 1)^-s`, sampled by binary
/// search in the cumulative table.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 0..n {
            acc += ((r + 1) as f64).powf(-s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, u: f64) -> usize {
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }

    pub fn p(&self, rank: usize) -> f64 {
        self.cdf[rank] - if rank == 0 { 0.0 } else { self.cdf[rank - 1] }
    }
}

/// A planted step change: from `interval` on, `share` of all records go to
/// `key`. On Zipf workloads the share is 29 times the key's own, i.e. the
/// key's traffic steps up thirty-fold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Plant {
    pub interval: usize,
    pub key: u64,
    pub share: f64,
}

/// The three plants of a workload: a pure function of its shape, so the
/// checker knows them without reading the generator's output.
pub fn plants(w: &Workload) -> Vec<Plant> {
    let zipf = match w.keys {
        KeyDist::Zipf { universe, s } => Some(Zipf::new(universe as usize, s)),
        KeyDist::Uniform { .. } => None,
    };
    (1..=3usize)
        .map(|j| {
            let interval = w.intervals * j / 4;
            match (w.keys, &zipf) {
                (KeyDist::Zipf { universe, .. }, Some(zipf)) => {
                    let rank = (universe as usize / 500) * j;
                    Plant {
                        interval,
                        key: u64::from(KEY_BASE) + rank as u64,
                        share: 29.0 * zipf.p(rank),
                    }
                }
                (KeyDist::Zipf { .. }, None) => unreachable!("zipf table built above"),
                // Uniform keys carry almost nothing each; the plant key sits
                // just outside the universe and takes a fixed share.
                (KeyDist::Uniform { bits }, _) => Plant {
                    interval,
                    key: u64::from(KEY_BASE) + (1u64 << bits) + j as u64,
                    share: 0.005,
                },
            }
        })
        .collect()
}

/// Every record of the workload's trace, in timestamp order.
pub fn records(w: &Workload, seed: u64) -> Vec<FlowRecord> {
    let mut rng = SplitMix::new(seed ^ 0x5CD_BE7C_0000_0000);
    let plants = plants(w);
    let zipf = match w.keys {
        KeyDist::Zipf { universe, s } => Some(Zipf::new(universe as usize, s)),
        KeyDist::Uniform { .. } => None,
    };
    let interval_ms = u64::from(INTERVAL_SECS) * 1000;
    let n = w.records_per_interval;
    let mut out = Vec::with_capacity(w.total_records());
    for t in 0..w.intervals {
        let active: Vec<&Plant> = plants.iter().filter(|p| p.interval <= t).collect();
        let planted: f64 = active.iter().map(|p| p.share).sum();
        for i in 0..n {
            let mut u = rng.next_f64();
            let dst_ip = if u < planted {
                let mut hit = active[active.len() - 1];
                for p in &active {
                    if u < p.share {
                        hit = p;
                        break;
                    }
                    u -= p.share;
                }
                hit.key as u32
            } else {
                match (&zipf, w.keys) {
                    (Some(z), _) => KEY_BASE + z.sample(rng.next_f64()) as u32,
                    (None, KeyDist::Uniform { bits }) => KEY_BASE + rng.below(1 << bits) as u32,
                    (None, KeyDist::Zipf { .. }) => unreachable!("zipf table built above"),
                }
            };
            let bits = rng.next_u64();
            let bytes = 40 + (bits & 0xFFFF) % 1461;
            out.push(FlowRecord {
                timestamp_ms: t as u64 * interval_ms + (i as u64 * interval_ms) / n as u64,
                src_ip: 0xC0A8_0000 | ((bits >> 16) & 0xFFFF) as u32,
                dst_ip,
                src_port: 1024 + ((bits >> 32) & 0x7FFF) as u16,
                dst_port: if bits >> 63 == 0 { 80 } else { 443 },
                protocol: 6,
                bytes,
                packets: 1 + (bytes / 1460) as u32,
            });
        }
    }
    out
}

/// Writes the trace as one `SCDTRC02` file through the repository's own
/// writer, and syncs it: left dirty, its pages would be written back in
/// the middle of the timed section.
pub fn write_trace(path: &Path, records: &[FlowRecord]) -> Result<(), io::TraceIoError> {
    let file = File::create(path)?;
    io::write_binary(BufWriter::new(&file), records)?;
    file.sync_all()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Workload;

    /// FNV-1a over a byte string: the content hash the tests pin.
    fn content_hash(bytes: &[u8]) -> u64 {
        bytes
            .iter()
            .fold(0xCBF2_9CE4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3))
    }

    fn small(name: &str) -> Workload {
        Workload::by_name(name).unwrap().smoke()
    }

    #[test]
    fn same_seed_gives_byte_identical_files() {
        for name in ["replay-volume", "replay-keys"] {
            let w = small(name);
            let a = io::to_binary(&records(&w, 2003));
            let b = io::to_binary(&records(&w, 2003));
            let c = io::to_binary(&records(&w, 2004));
            assert_eq!(content_hash(&a), content_hash(&b), "{name}");
            assert_ne!(content_hash(&a), content_hash(&c), "{name}");
            assert_eq!(a.len(), 8 + 33 * w.total_records() + 4);
        }
    }

    #[test]
    fn generated_content_is_pinned() {
        // A change here means every recorded baseline describes other inputs.
        let w = small("replay-turnover");
        assert_eq!(content_hash(&io::to_binary(&records(&w, 2003))), 0x3AFD_E7AC_2082_E6EB);
    }

    #[test]
    fn intervals_are_full_and_ordered() {
        let w = small("fanin-2node");
        let recs = records(&w, 7);
        assert_eq!(recs.len(), w.total_records());
        assert!(recs.windows(2).all(|p| p[0].timestamp_ms <= p[1].timestamp_ms));
        let per = |t: u64| recs.iter().filter(|r| r.timestamp_ms / 60_000 == t).count();
        assert_eq!(per(0), w.records_per_interval);
        assert_eq!(per(w.intervals as u64 - 1), w.records_per_interval);
    }

    #[test]
    fn plants_step_up_at_their_onset() {
        let w = small("replay-volume");
        let recs = records(&w, 11);
        for plant in plants(&w) {
            let count = |t: usize| {
                recs.iter()
                    .filter(|r| {
                        r.timestamp_ms / 60_000 == t as u64 && u64::from(r.dst_ip) == plant.key
                    })
                    .count() as f64
            };
            let before = count(plant.interval - 1);
            let after = count(plant.interval);
            assert!(after > 8.0 * before.max(1.0), "plant {plant:?}: {before} -> {after}");
        }
    }

    #[test]
    fn zipf_is_a_distribution() {
        let z = Zipf::new(1000, 1.1);
        let total: f64 = (0..1000).map(|r| z.p(r)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(z.p(0) > z.p(1) && z.p(1) > z.p(999));
        assert_eq!(z.sample(0.0), 0);
        assert_eq!(z.sample(0.999_999_999_9), 999);
    }
}
