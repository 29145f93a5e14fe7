//! Hierarchical (multi-prefix) detection: find a distributed change that
//! no single host reveals, and localize a host-level attack through the
//! levels — the §2.1 aggregation-levels remark made operational.
//!
//! §2.1: "It is also possible to define keys with entities like network
//! prefixes or AS numbers to achieve higher levels of aggregation." The
//! [`HierarchicalDetector`] below runs one detector per prefix length
//! (e.g. /32, /24, /16), all fed from the same record stream, with a
//! *drill-down* report that attributes coarse-level alarms to the
//! finer-level keys beneath them. Why run levels simultaneously rather
//! than just the finest?
//!
//! * **Distributed changes** (a scanned /24, a DDoS'd customer block)
//!   spread over many host keys, none individually significant, yet sum to
//!   a large change at the prefix level — invisible at /32, obvious at
//!   /16.
//! * **Localization**: a /8-level alarm alone names a huge region;
//!   drill-down through the levels narrows the change to the finest
//!   prefix that still alarms.
//!
//! Each level has its own sketch and model (all sharing one configuration
//! template); update cost is `levels × H` per record.
//!
//! Two events on one router:
//! * a **network scan**: 400 probes spread across one /16, each far below
//!   any per-host threshold;
//! * a **host DoS**: one /32 floods, which also bumps its /24 and /16.
//!
//! ```sh
//! cargo run --release --example hierarchy
//! cargo test --example hierarchy          # the detector's unit tests
//! ```

use sketch_change::prelude::*;
use sketch_change::traffic::record::format_ipv4;

#[cfg_attr(test, allow(dead_code))]
fn main() {
    let mut cfg = RouterProfile::Small.config(77);
    cfg.interval_secs = 60;
    cfg.records_per_sec = 25.0;
    cfg.n_flows = 3_000;
    let mut generator = TrafficGenerator::new(cfg);

    let mut detector = HierarchicalDetector::new(HierarchyConfig {
        detector: DetectorConfig {
            sketch: SketchConfig { h: 5, k: 16_384, seed: 9 },
            model: ModelSpec::Ewma { alpha: 0.5 },
            threshold: 0.22,
            key_strategy: KeyStrategy::TwoPass,
        },
        prefix_lengths: vec![32, 24, 16],
        value: ValueSpec::Bytes,
    });

    let scan_net: u32 = 0x0A63_0000; // 10.99.0.0/16
    let dos_victim: u32 = 0x0A64_0505; // 10.100.5.5
    let dos_bytes = 40.0 * generator.expected_rank_bytes(10, 0);

    println!("events at t=8: scan across 10.99.0.0/16 (400 light probes),");
    println!("               DoS against 10.100.5.5 ({:.1} MB)", dos_bytes / 1e6);
    println!();

    for t in 0..12 {
        let mut records = generator.interval_records(t);
        if t == 8 {
            for i in 0..400u32 {
                records.push(FlowRecord {
                    timestamp_ms: t as u64 * 60_000 + i as u64,
                    src_ip: 0x3100_0000 + i,
                    dst_ip: scan_net | ((i % 250) << 8) | (i / 250 + 1),
                    src_port: 40_000,
                    dst_port: 445,
                    protocol: 6,
                    bytes: 2_000,
                    packets: 2,
                });
            }
            for i in 0..60u32 {
                records.push(FlowRecord {
                    timestamp_ms: t as u64 * 60_000 + 500 + i as u64,
                    src_ip: 0x3200_0000 + i,
                    dst_ip: dos_victim,
                    src_port: 1024 + i as u16,
                    dst_port: 80,
                    protocol: 6,
                    bytes: (dos_bytes / 60.0) as u64,
                    packets: 30,
                });
            }
        }
        let reports = detector.process_interval(&records);
        let localized = HierarchicalDetector::localize(&reports);
        for alarm in &localized {
            // Render the prefix in CIDR form at its level.
            let shown = (alarm.alarm.key << (32 - alarm.prefix_len as u64)) as u32;
            println!(
                "t={t:>2}  /{:<2} {:<18} error {:+10.2} MB  confirmed at {:?}",
                alarm.prefix_len,
                format!("{}/{}", format_ipv4(shown), alarm.prefix_len),
                alarm.alarm.estimated_error / 1e6,
                alarm.confirmed_at,
            );
        }
    }

    println!();
    println!("the scan surfaces only as a /16 aggregate; the DoS localizes to its /32");
    println!("with confirmations from the enclosing prefixes.");
}

/// Configuration: the detector template plus the prefix lengths to watch.
#[derive(Debug, Clone)]
struct HierarchyConfig {
    /// Template applied at every level (sketch shape, model, threshold,
    /// key strategy).
    detector: DetectorConfig,
    /// Prefix lengths, finest first (e.g. `[32, 24, 16, 8]`). Must be
    /// non-empty, each in `1..=32`, strictly decreasing.
    prefix_lengths: Vec<u8>,
    /// Value projected from each record.
    value: ValueSpec,
}

/// One level's alarms for an interval.
#[derive(Debug, Clone)]
struct LevelReport {
    /// Prefix length of this level.
    prefix_len: u8,
    /// The underlying interval report.
    report: IntervalReport,
}

/// An alarm localized through the hierarchy: the finest prefix length at
/// which the change crossed its level's threshold, with the chain of
/// coarser alarms above it.
#[derive(Debug, Clone)]
struct LocalizedAlarm {
    /// Finest alarming prefix length.
    prefix_len: u8,
    /// The alarm at that level (key is the prefix value).
    alarm: Alarm,
    /// Prefix lengths of coarser levels that also alarmed for an enclosing
    /// prefix of this key.
    confirmed_at: Vec<u8>,
}

/// Simultaneous detectors over a prefix hierarchy.
struct HierarchicalDetector {
    levels: Vec<(u8, SketchChangeDetector)>,
    value: ValueSpec,
}

impl HierarchicalDetector {
    /// Builds one detector per prefix length.
    ///
    /// # Panics
    /// Panics if the prefix list is empty, out of `1..=32`, or not strictly
    /// decreasing (finest first).
    fn new(config: HierarchyConfig) -> Self {
        assert!(!config.prefix_lengths.is_empty(), "need at least one level");
        for w in config.prefix_lengths.windows(2) {
            assert!(w[0] > w[1], "prefix lengths must be strictly decreasing");
        }
        for &p in &config.prefix_lengths {
            assert!((1..=32).contains(&p), "prefix length {p} out of range");
        }
        let levels = config
            .prefix_lengths
            .iter()
            .map(|&p| (p, SketchChangeDetector::new(config.detector.clone())))
            .collect();
        HierarchicalDetector { levels, value: config.value }
    }

    /// Feeds one interval of flow records to every level and returns the
    /// per-level reports, finest first.
    fn process_interval(&mut self, records: &[FlowRecord]) -> Vec<LevelReport> {
        self.levels
            .iter_mut()
            .map(|(prefix_len, det)| {
                let items: Vec<(u64, f64)> = records
                    .iter()
                    .map(|r| (KeySpec::DstPrefix(*prefix_len).key_of(r), self.value.value_of(r)))
                    .collect();
                LevelReport { prefix_len: *prefix_len, report: det.process_interval(&items) }
            })
            .collect()
    }

    /// Localizes an interval's alarms: for each level's alarms whose key is
    /// not covered by a finer-level alarm, emit a [`LocalizedAlarm`] with
    /// the coarser confirmations.
    fn localize(reports: &[LevelReport]) -> Vec<LocalizedAlarm> {
        let mut out = Vec::new();
        for (i, level) in reports.iter().enumerate() {
            for alarm in &level.report.alarms {
                // Covered by a finer alarm? (A finer-level alarm whose key,
                // shortened to this level's length, equals this key.)
                let covered = reports[..i].iter().any(|finer| {
                    finer.report.alarms.iter().any(|fa| {
                        fa.key >> (level_shift(finer.prefix_len, level.prefix_len)) == alarm.key
                    })
                });
                if covered {
                    continue;
                }
                // Coarser confirmations.
                let confirmed_at = reports[i + 1..]
                    .iter()
                    .filter(|coarser| {
                        coarser.report.alarms.iter().any(|ca| {
                            alarm.key >> level_shift(level.prefix_len, coarser.prefix_len) == ca.key
                        })
                    })
                    .map(|c| c.prefix_len)
                    .collect();
                out.push(LocalizedAlarm {
                    prefix_len: level.prefix_len,
                    alarm: *alarm,
                    confirmed_at,
                });
            }
        }
        out
    }
}

/// Bits to drop to turn a `fine`-length prefix into a `coarse`-length one.
fn level_shift(fine: u8, coarse: u8) -> u32 {
    debug_assert!(fine >= coarse);
    (fine - coarse) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> HierarchyConfig {
        HierarchyConfig {
            detector: DetectorConfig {
                sketch: SketchConfig { h: 3, k: 4096, seed: 5 },
                model: ModelSpec::Ewma { alpha: 0.5 },
                threshold: 0.25,
                key_strategy: KeyStrategy::TwoPass,
            },
            prefix_lengths: vec![32, 24, 16],
            value: ValueSpec::Bytes,
        }
    }

    fn record(dst_ip: u32, bytes: u64, ts: u64) -> FlowRecord {
        FlowRecord {
            timestamp_ms: ts,
            src_ip: 1,
            dst_ip,
            src_port: 9,
            dst_port: 80,
            protocol: 6,
            bytes,
            packets: 1,
        }
    }

    /// Steady background across several /16s.
    fn background(t: usize) -> Vec<FlowRecord> {
        let mut out = Vec::new();
        for host in 0..60u32 {
            let ip = 0x0A00_0000 | ((host % 6) << 16) | ((host / 6) << 8) | 1;
            out.push(record(ip, 20_000, t as u64 * 60_000 + host as u64));
        }
        out
    }

    #[test]
    fn host_level_attack_localizes_to_slash32() {
        let mut det = HierarchicalDetector::new(config());
        for t in 0..3 {
            det.process_interval(&background(t));
        }
        let mut attacked = background(3);
        let victim = 0x0A01_0201u32;
        for i in 0..20 {
            attacked.push(record(victim, 200_000, 180_000 + i));
        }
        let reports = det.process_interval(&attacked);
        let localized = HierarchicalDetector::localize(&reports);
        let host_alarm = localized
            .iter()
            .find(|a| a.prefix_len == 32 && a.alarm.key == victim as u64)
            .expect("host-level localization");
        // The /24 and /16 above it should confirm: 4 MB through one host
        // also moves its enclosing prefixes.
        assert!(
            host_alarm.confirmed_at.contains(&24) || host_alarm.confirmed_at.contains(&16),
            "expected coarse confirmation, got {:?}",
            host_alarm.confirmed_at
        );
        // And no separate /24 alarm for the same region (it is covered).
        assert!(
            !localized.iter().any(|a| a.prefix_len == 24 && a.alarm.key == (victim >> 8) as u64),
            "covered /24 alarm should be folded into the /32 one"
        );
    }

    #[test]
    fn distributed_scan_visible_only_at_coarse_level() {
        // 200 hosts in one /16 each gain a small amount — no host key
        // changes enough to alarm, but the /16 aggregate jumps.
        let mut det = HierarchicalDetector::new(config());
        for t in 0..3 {
            det.process_interval(&background(t));
        }
        let mut scanned = background(3);
        for host in 0..200u32 {
            // 10.2.x.2 for 200 distinct x: one probe per /24, so no /24
            // aggregates enough either — only the /16 sees the full sum.
            let ip = 0x0A02_0000 | (host << 8) | 2;
            scanned.push(record(ip, 6_000, 180_500 + host as u64));
        }
        let reports = det.process_interval(&scanned);
        let localized = HierarchicalDetector::localize(&reports);
        let coarse = localized
            .iter()
            .find(|a| a.prefix_len == 16 && a.alarm.key == 0x0A02)
            .expect("distributed change should alarm at /16");
        assert!(coarse.alarm.estimated_error > 0.0);
        // No single probe host should alarm at /32.
        assert!(
            !localized.iter().any(|a| a.prefix_len == 32 && (a.alarm.key >> 16) == 0x0A02),
            "no individual host should cross the /32 threshold: {localized:?}"
        );
    }

    #[test]
    fn quiet_traffic_quiet_hierarchy() {
        let mut det = HierarchicalDetector::new(config());
        for t in 0..5 {
            let reports = det.process_interval(&background(t));
            if t >= 2 {
                let localized = HierarchicalDetector::localize(&reports);
                assert!(
                    localized.is_empty(),
                    "steady traffic must not alarm at any level: {localized:?}"
                );
            }
        }
    }

    #[test]
    fn reports_ordered_finest_first() {
        let mut det = HierarchicalDetector::new(config());
        let reports = det.process_interval(&background(0));
        let lens: Vec<u8> = reports.iter().map(|r| r.prefix_len).collect();
        assert_eq!(lens, vec![32, 24, 16]);
    }

    #[test]
    #[should_panic(expected = "strictly decreasing")]
    fn unordered_levels_rejected() {
        let mut c = config();
        c.prefix_lengths = vec![16, 24];
        let _ = HierarchicalDetector::new(c);
    }

    #[test]
    #[should_panic(expected = "at least one level")]
    fn empty_levels_rejected() {
        let mut c = config();
        c.prefix_lengths = vec![];
        let _ = HierarchicalDetector::new(c);
    }
}
