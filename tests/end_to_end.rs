//! Workspace-level integration tests: exercise the public `sketch-change`
//! API exactly as a downstream user would, across all five crates.

use scd_bench::{metrics, PerFlowDetector};
use sketch_change::core::{gridsearch, segment_records};
use sketch_change::prelude::*;
use sketch_change::traffic::io;

/// Full user journey: generate a trace, persist it, read it back, segment
/// it into intervals, grid-search model parameters, detect an injected
/// anomaly.
#[test]
fn trace_to_alarms_full_journey() {
    // 1. Generate + inject.
    let mut cfg = RouterProfile::Small.config(11);
    cfg.records_per_sec = 10.0;
    cfg.interval_secs = 60;
    cfg.n_flows = 600;
    let mut generator = TrafficGenerator::new(cfg);
    let victim_rank = 15;
    let baseline = generator.expected_rank_bytes(victim_rank, 12);
    let injector = AnomalyInjector::new(
        vec![AnomalyEvent {
            kind: AnomalyKind::DosAttack { byte_rate: baseline * 20.0, flows: 40 },
            victim_rank,
            start_interval: 12,
            duration: 2,
        }],
        1,
    );
    let (trace, truth) = injector.labeled_trace(&mut generator, 16);
    let victim = generator.dst_ip_of_rank(victim_rank) as u64;
    assert!(truth.is_anomalous(12, victim));

    // 2. Persist and reload through the binary trace format.
    let flat: Vec<FlowRecord> = trace.iter().flatten().copied().collect();
    let mut buf = Vec::new();
    io::write_binary(&mut buf, &flat).unwrap();
    let reloaded = io::read_binary(&buf[..]).unwrap();
    assert_eq!(flat.len(), reloaded.len());

    // 3. Segment by timestamp (recovering the interval structure).
    let intervals = segment_records(&reloaded, 60, KeySpec::DstIp, ValueSpec::Bytes);
    assert_eq!(intervals.len(), 16);

    // 4. Grid-search EWMA's alpha on the quiet prefix.
    let gs_cfg = gridsearch::GridSearchConfig {
        sketch: SketchConfig { h: 1, k: 4096, seed: 9 },
        passes: 2,
        subdivisions: 6,
        arima_subdivisions: 3,
        max_window: 6,
        warm_up_intervals: 2,
        seasonal_period: 4,
    };
    let found = gridsearch::search_model(ModelKind::Ewma, &gs_cfg, &intervals[..10]);
    found.spec.validate().unwrap();

    // 5. Detect with the tuned model.
    let mut detector = SketchChangeDetector::new(DetectorConfig {
        sketch: SketchConfig { h: 5, k: 16_384, seed: 3 },
        model: found.spec,
        threshold: 0.2,
        key_strategy: KeyStrategy::TwoPass,
    });
    let mut victim_alarm_intervals = Vec::new();
    for (t, items) in intervals.iter().enumerate() {
        let report = detector.process_interval(items);
        if report.alarms.iter().any(|a| a.key == victim) {
            victim_alarm_intervals.push(t);
        }
    }
    assert!(
        victim_alarm_intervals.contains(&12),
        "attack onset not detected; alarms at {victim_alarm_intervals:?}"
    );
}

/// The linearity showcase: per-router sketches sum to the union sketch, so
/// detection over the aggregate equals detection over merged traffic.
#[test]
fn combine_across_routers_equals_merged_traffic() {
    let sketch_cfg = SketchConfig { h: 3, k: 4096, seed: 1234 };
    let mut gens: Vec<TrafficGenerator> = (0..3)
        .map(|i| {
            let mut c = RouterProfile::Small.config(50 + i);
            c.records_per_sec = 5.0;
            c.interval_secs = 60;
            c.n_flows = 300;
            TrafficGenerator::new(c)
        })
        .collect();

    for t in 0..3 {
        let mut merged_updates = Vec::new();
        let mut summed = KarySketch::new(sketch_cfg);
        for g in &mut gens {
            let records = g.interval_records(t);
            let updates = to_updates(&records, KeySpec::DstIp, ValueSpec::Bytes);
            let mut local = KarySketch::new(sketch_cfg);
            for &(k, v) in &updates {
                local.update(k, v);
            }
            summed.add_scaled(&local, 1.0).unwrap();
            merged_updates.extend(updates);
        }
        let mut direct = KarySketch::new(sketch_cfg);
        for (k, v) in merged_updates {
            direct.update(k, v);
        }
        for (a, b) in summed.table().iter().zip(direct.table()) {
            assert!((a - b).abs() < 1e-6, "cell mismatch: {a} vs {b}");
        }
    }
}

/// Aggregation levels (§2.1): the same records keyed by /16 prefix produce
/// detection at a coarser granularity — an attack on one host is visible
/// under its prefix key.
#[test]
fn prefix_aggregation_detects_host_attack() {
    let mut cfg = RouterProfile::Small.config(88);
    cfg.records_per_sec = 10.0;
    cfg.interval_secs = 60;
    cfg.n_flows = 500;
    let mut generator = TrafficGenerator::new(cfg);
    let victim_rank = 10;
    let baseline = generator.expected_rank_bytes(victim_rank, 6);
    let injector = AnomalyInjector::new(
        vec![AnomalyEvent {
            kind: AnomalyKind::DosAttack { byte_rate: baseline * 25.0, flows: 40 },
            victim_rank,
            start_interval: 6,
            duration: 1,
        }],
        2,
    );
    let (trace, _) = injector.labeled_trace(&mut generator, 8);
    let victim_prefix = (generator.dst_ip_of_rank(victim_rank) >> 16) as u64;

    let mut detector = SketchChangeDetector::new(DetectorConfig {
        sketch: SketchConfig { h: 5, k: 8192, seed: 77 },
        model: ModelSpec::Ewma { alpha: 0.5 },
        threshold: 0.2,
        key_strategy: KeyStrategy::TwoPass,
    });
    let mut hit = false;
    for (t, records) in trace.iter().enumerate() {
        let items = to_updates(records, KeySpec::DstPrefix(16), ValueSpec::Count);
        // Count-valued updates: a DoS adds many flows, so connection counts
        // spike under the /16 even though each flow is small.
        let report = detector.process_interval(&items);
        if t == 6 && report.alarms.iter().any(|a| a.key == victim_prefix) {
            hit = true;
        }
    }
    assert!(hit, "prefix-level detection missed the attack");
}

/// Sketch-vs-per-flow agreement through the public API, all six models.
#[test]
fn all_models_agree_with_perflow_reference() {
    let mut cfg = RouterProfile::Small.config(4242);
    cfg.records_per_sec = 20.0;
    cfg.interval_secs = 60;
    cfg.n_flows = 300;
    let mut g = TrafficGenerator::new(cfg);
    let trace: Vec<Vec<(u64, f64)>> = (0..12)
        .map(|t| to_updates(&g.interval_records(t), KeySpec::DstIp, ValueSpec::Bytes))
        .collect();

    let specs = [
        ModelSpec::Ma { window: 4 },
        ModelSpec::Sma { window: 4 },
        ModelSpec::Ewma { alpha: 0.5 },
        ModelSpec::Nshw { alpha: 0.5, beta: 0.2 },
        ModelSpec::Arima(ArimaSpec::new(0, &[0.8], &[0.2]).unwrap()),
        ModelSpec::Arima(ArimaSpec::new(1, &[0.3], &[0.3]).unwrap()),
    ];
    for spec in specs {
        let mut sk = SketchChangeDetector::new(DetectorConfig {
            sketch: SketchConfig { h: 5, k: 32_768, seed: 5 },
            model: spec.clone(),
            threshold: 0.05,
            key_strategy: KeyStrategy::TwoPass,
        });
        let mut pf = PerFlowDetector::new(spec.clone());
        let mut sims = Vec::new();
        for (t, items) in trace.iter().enumerate() {
            let a = sk.process_interval(items);
            let b = pf.process_interval(items);
            if t >= 5 && a.warmed_up && b.warmed_up {
                sims.push(metrics::topn_similarity(&b.errors, &a.errors, 30));
            }
        }
        let m = metrics::mean(&sims);
        assert!(m > 0.85, "{}: similarity {m} too low ({sims:?})", spec.describe());
    }
}

/// The §6 streaming front end end to end: timestamped records go through
/// the threaded detector, which cuts intervals by event time. Four seconds
/// to two services (each record's `bytes` is the IPv4 total length of a
/// frame with a 28-byte header stub); second 2 floods a third destination.
#[test]
fn frames_to_alarms_through_streaming_detector() {
    use sketch_change::core::{spawn_streaming, OverloadPolicy, StreamingConfig};

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
    let record = |timestamp_ms, src_ip, dst_ip, src_port, dst_port, bytes| FlowRecord {
        timestamp_ms,
        src_ip,
        dst_ip,
        src_port,
        dst_port,
        protocol: 6,
        bytes,
        packets: 1,
    };
    for t in 0..4u64 {
        for i in 0..30u64 {
            for (dst, bytes) in [(0x0A00_0001u32, 428), (0x0A00_0002, 228)] {
                assert!(handle.send(record(
                    t * 1000 + i * 30,
                    0xC0A8_0000 + i as u32,
                    dst,
                    5000,
                    443,
                    bytes
                )));
            }
        }
        if t == 2 {
            for i in 0..40u64 {
                handle.send(record(
                    t * 1000 + 900,
                    0x3000_0000 + i as u32,
                    0x0A00_00FF,
                    1024,
                    80,
                    1428,
                ));
            }
        }
    }
    let (reports, _, processed, _) = handle.shutdown().expect("clean shutdown");
    assert_eq!(processed, 4 * 60 + 40);
    assert_eq!(reports.len(), 4);
    assert!(
        reports[2].alarms.iter().any(|a| a.key == 0x0A00_00FF),
        "flood not flagged at second 2: {:?}",
        reports[2].alarms
    );
    assert!(reports[1].alarms.iter().all(|a| a.key != 0x0A00_00FF), "no alarm before the flood");
}
