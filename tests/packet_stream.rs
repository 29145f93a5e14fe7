//! Raw packets to alarms: the §2.1 per-packet input path composed with the
//! §6 streaming front end. Ethernet frames are built, parsed (checksum
//! verified), projected to updates, and pushed through the threaded
//! detector — the full "sit directly on a packet feed" deployment.

use sketch_change::core::{spawn_streaming, OverloadPolicy, StreamingConfig};
use sketch_change::prelude::*;
use sketch_change::traffic::packet::{build_frame, parse_ethernet};
use sketch_change::traffic::routes::RouteTable;

#[test]
fn frames_to_alarms_through_streaming_detector() {
    let handle = spawn_streaming(StreamingConfig {
        engine: EngineConfig::new(
            DetectorConfig {
                sketch: SketchConfig { h: 3, k: 2048, seed: 4 },
                model: ModelSpec::Ewma { alpha: 0.5 },
                threshold: 0.3,
                key_strategy: KeyStrategy::TwoPass,
            },
            1,
        ),
        interval_ms: 1_000,
        key: KeySpec::DstIp,
        value: ValueSpec::Bytes,
        channel_capacity: 1024,
        overload: OverloadPolicy::Block,
    });

    // Four event-time seconds of packets to two services; second 2 floods
    // a third destination.
    for t in 0..4u64 {
        for i in 0..30u64 {
            for (dst, payload) in [(0x0A00_0001u32, 400usize), (0x0A00_0002, 200)] {
                let frame = build_frame(0xC0A8_0000 + i as u32, dst, 5000, 443, 6, payload);
                let pkt = parse_ethernet(&frame).expect("well-formed frame");
                // Packet summaries carry no timestamp; the capture layer
                // supplies arrival time. Reconstruct a FlowRecord the
                // streaming API accepts.
                let record = FlowRecord {
                    timestamp_ms: t * 1000 + i * 30,
                    src_ip: pkt.src_ip,
                    dst_ip: pkt.dst_ip,
                    src_port: pkt.src_port,
                    dst_port: pkt.dst_port,
                    protocol: pkt.protocol,
                    bytes: pkt.total_length as u64,
                    packets: 1,
                };
                assert!(handle.send(record));
            }
        }
        if t == 2 {
            for i in 0..40u64 {
                let frame = build_frame(0x3000_0000 + i as u32, 0x0A00_00FF, 1024, 80, 6, 1400);
                let pkt = parse_ethernet(&frame).unwrap();
                handle.send(FlowRecord {
                    timestamp_ms: t * 1000 + 900,
                    src_ip: pkt.src_ip,
                    dst_ip: pkt.dst_ip,
                    src_port: pkt.src_port,
                    dst_port: pkt.dst_port,
                    protocol: pkt.protocol,
                    bytes: pkt.total_length as u64,
                    packets: 1,
                });
            }
        }
    }
    let (reports, _, processed) = handle.shutdown().expect("clean shutdown");
    assert_eq!(processed, 4 * 60 + 40);
    assert_eq!(reports.len(), 4);
    assert!(
        reports[2].alarms.iter().any(|a| a.key == 0x0A00_00FF),
        "packet flood not flagged at second 2: {:?}",
        reports[2].alarms
    );
    assert!(reports[1].alarms.iter().all(|a| a.key != 0x0A00_00FF), "no alarm before the flood");
}

#[test]
fn as_level_keys_through_route_table() {
    // AS aggregation: records keyed by the LPM table instead of raw IPs.
    let table = RouteTable::synthetic(8);
    let mut det = SketchChangeDetector::new(DetectorConfig {
        sketch: SketchConfig { h: 3, k: 1024, seed: 6 },
        model: ModelSpec::Ewma { alpha: 0.5 },
        threshold: 0.3,
        key_strategy: KeyStrategy::TwoPass,
    });
    let record = |dst_ip: u32, bytes: u64| FlowRecord {
        timestamp_ms: 0,
        src_ip: 1,
        dst_ip,
        src_port: 1,
        dst_port: 80,
        protocol: 6,
        bytes,
        packets: 1,
    };
    // Steady per-AS traffic, then AS 5's region surges across many hosts.
    let mut steady: Vec<(u64, f64)> = Vec::new();
    for asn in 0..8u32 {
        for h in 0..10u32 {
            steady.push(table.as_update(&record((asn << 29) | h, 10_000), ValueSpec::Bytes));
        }
    }
    det.process_interval(&steady);
    det.process_interval(&steady);
    let mut surged = steady.clone();
    for h in 0..30u32 {
        surged.push(table.as_update(&record((4u32 << 29) | (h << 8), 50_000), ValueSpec::Bytes));
    }
    let report = det.process_interval(&surged);
    // (4 << 29) is the top half of block index 4 -> AS 5 under the /3 grid.
    let as_key = table.lookup(4u32 << 29).unwrap() as u64;
    assert!(
        report.alarms.iter().any(|a| a.key == as_key),
        "AS-level surge not flagged: {:?}",
        report.alarms
    );
}
