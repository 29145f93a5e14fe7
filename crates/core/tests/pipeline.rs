//! End-to-end pipeline tests on generated traffic: the miniature version of
//! the paper's evaluation, asserting its qualitative results hold.

use scd_bench::{metrics, PerFlowDetector};
use scd_core::{DetectorConfig, KeyStrategy, SketchChangeDetector};
use scd_forecast::ModelSpec;
use scd_sketch::SketchConfig;
use scd_traffic::{
    to_updates, AnomalyEvent, AnomalyInjector, AnomalyKind, KeySpec, RouterProfile,
    TrafficGenerator, ValueSpec,
};

/// A dense miniature trace: enough records per interval that the busiest
/// flows appear in every interval, matching the regime of the paper's
/// traces (~1M records per 300 s interval). Two-pass key replay only scans
/// keys present in the interval, so on *sparse* traffic per-flow analysis
/// sees disappearances the sketch scan cannot — a documented §3.3 caveat,
/// tested separately in `outage_detection_negative_change`.
fn small_trace(intervals: usize, seed: u64) -> Vec<Vec<(u64, f64)>> {
    let mut cfg = RouterProfile::Small.config(seed);
    cfg.records_per_sec = 30.0;
    cfg.interval_secs = 60;
    cfg.n_flows = 400;
    let mut g = TrafficGenerator::new(cfg);
    (0..intervals)
        .map(|t| to_updates(&g.interval_records(t), KeySpec::DstIp, ValueSpec::Bytes))
        .collect()
}

/// The paper's headline accuracy result in miniature: with H=5, K=32768 the
/// sketch's top-N flows by |forecast error| agree with per-flow analysis at
/// similarity ≳ 0.9.
#[test]
fn topn_similarity_matches_paper_shape() {
    let trace = small_trace(14, 2024);
    let warm_up = 4;

    let model = ModelSpec::Ewma { alpha: 0.5 };
    let mut sketch_det = SketchChangeDetector::new(DetectorConfig {
        sketch: SketchConfig { h: 5, k: 32_768, seed: 77 },
        model: model.clone(),
        threshold: 0.05,
        key_strategy: KeyStrategy::TwoPass,
    });
    let mut perflow_det = PerFlowDetector::new(model);

    let mut sims = Vec::new();
    for (t, items) in trace.iter().enumerate() {
        let sk = sketch_det.process_interval(items);
        let pf = perflow_det.process_interval(items);
        if t >= warm_up && sk.warmed_up && pf.warmed_up {
            sims.push(metrics::topn_similarity(&pf.errors, &sk.errors, 50));
        }
    }
    let mean_sim = metrics::mean(&sims);
    assert!(
        mean_sim > 0.9,
        "top-50 similarity {mean_sim} below paper-shape threshold (sims: {sims:?})"
    );
}

/// Lower K must not *improve* agreement (paper Figure 5): K=1024 should be
/// measurably worse than K=32768 on the same trace.
#[test]
fn similarity_improves_with_k() {
    let trace = small_trace(14, 5);
    let model = ModelSpec::Ewma { alpha: 0.5 };

    let mean_sim = |k: usize| -> f64 {
        let mut sk_det = SketchChangeDetector::new(DetectorConfig {
            sketch: SketchConfig { h: 5, k, seed: 77 },
            model: model.clone(),
            threshold: 0.05,
            key_strategy: KeyStrategy::TwoPass,
        });
        let mut pf_det = PerFlowDetector::new(model.clone());
        let mut sims = Vec::new();
        for (t, items) in trace.iter().enumerate() {
            let sk = sk_det.process_interval(items);
            let pf = pf_det.process_interval(items);
            if t >= 4 {
                sims.push(metrics::topn_similarity(&pf.errors, &sk.errors, 100));
            }
        }
        metrics::mean(&sims)
    };

    let low = mean_sim(256);
    let high = mean_sim(32_768);
    assert!(high > low, "similarity should improve with K: K=256 -> {low}, K=32768 -> {high}");
    assert!(high > 0.85, "large-K similarity too low: {high}");
}

/// Injected DoS attacks must be detected (recall) without drowning in false
/// alarms (precision floor), using ground-truth labels the paper lacked.
#[test]
fn injected_dos_attacks_are_detected() {
    let mut cfg = RouterProfile::Small.config(9);
    cfg.records_per_sec = 4.0;
    cfg.interval_secs = 60;
    cfg.n_flows = 500;
    let mut g = TrafficGenerator::new(cfg);

    // Calibrate attack volume to ~15x the victim's baseline.
    let victim_rank = 20;
    let baseline = g.expected_rank_bytes(victim_rank, 8);
    let events = vec![AnomalyEvent {
        kind: AnomalyKind::DosAttack { byte_rate: baseline * 15.0, flows: 30 },
        victim_rank,
        start_interval: 8,
        duration: 2,
    }];
    let injector = AnomalyInjector::new(events, 3);
    let (records, truth) = injector.labeled_trace(&mut g, 12);
    let victim_key = g.dst_ip_of_rank(victim_rank) as u64;

    let mut det = SketchChangeDetector::new(DetectorConfig {
        sketch: SketchConfig { h: 5, k: 8192, seed: 4 },
        model: ModelSpec::Ewma { alpha: 0.4 },
        threshold: 0.2,
        key_strategy: KeyStrategy::TwoPass,
    });

    let mut detected_at = Vec::new();
    for (t, interval_records) in records.iter().enumerate() {
        let items = to_updates(interval_records, KeySpec::DstIp, ValueSpec::Bytes);
        let report = det.process_interval(&items);
        if report.alarms.iter().any(|a| a.key == victim_key) {
            detected_at.push(t);
        }
    }
    assert!(
        detected_at.contains(&8),
        "attack onset at t=8 not detected (alarms at {detected_at:?})"
    );
    assert!(truth.is_anomalous(8, victim_key), "ground truth sanity");
    // The attack should not be flagged during quiet pre-attack intervals.
    assert!(
        detected_at.iter().all(|&t| t >= 8),
        "victim flagged before the attack: {detected_at:?}"
    );
}

/// An outage (flow disappears) is caught by per-flow analysis and by the
/// sketch *when the two-pass key list still contains the key* (i.e. via
/// explicit zero updates); the online strategy documented in §3.3 misses it.
#[test]
fn outage_detection_negative_change() {
    let model = ModelSpec::Ewma { alpha: 0.5 };
    let mut pf = PerFlowDetector::new(model);
    let busy: Vec<(u64, f64)> = vec![(10, 100_000.0), (11, 90_000.0), (12, 500.0)];
    let outage: Vec<(u64, f64)> = vec![(11, 90_000.0), (12, 500.0)]; // flow 10 gone
    pf.process_interval(&busy);
    pf.process_interval(&busy);
    let r = pf.process_interval(&outage);
    let top = r.errors.first().expect("errors exist");
    assert_eq!(top.0, 10);
    assert!(top.1 < -80_000.0, "outage must be a large negative change");
}

/// Threshold-based agreement (paper Figures 10–15 shape): false negative
/// and false positive ratios at K = 32768 stay low for thresholds ≥ 0.05.
#[test]
fn thresholding_false_rates_low_at_large_k() {
    let trace = small_trace(14, 31);
    let model = ModelSpec::Nshw { alpha: 0.6, beta: 0.3 };
    let mut sk_det = SketchChangeDetector::new(DetectorConfig {
        sketch: SketchConfig { h: 5, k: 32_768, seed: 12 },
        model: model.clone(),
        threshold: 0.05,
        key_strategy: KeyStrategy::TwoPass,
    });
    let mut pf_det = PerFlowDetector::new(model);

    let mut fn_ratios = Vec::new();
    let mut fp_ratios = Vec::new();
    for (t, items) in trace.iter().enumerate() {
        let sk = sk_det.process_interval(items);
        let pf = pf_det.process_interval(items);
        if t >= 4 && sk.warmed_up {
            let sketch_l2 = sk.error_f2.max(0.0).sqrt();
            let rep = metrics::threshold_report(&pf.errors, &sk.errors, sketch_l2, 0.05);
            fn_ratios.push(rep.false_negative_ratio());
            fp_ratios.push(rep.false_positive_ratio());
        }
    }
    let mean_fn = metrics::mean(&fn_ratios);
    let mean_fp = metrics::mean(&fp_ratios);
    // The paper reports <2% at full trace scale; at this miniature scale an
    // interval's alarm set is ~15 flows, so a single boundary miss already
    // costs ~7%. Bound at 12% — still far below the ~50%+ that a broken
    // estimator produces (see the K=256 case in similarity_improves_with_k).
    assert!(mean_fn < 0.12, "mean false-negative ratio {mean_fn} too high");
    assert!(mean_fp < 0.12, "mean false-positive ratio {mean_fp} too high");
}

/// Estimated total energy from sketches tracks per-flow total energy within
/// a few percent even at H=1, K=1024 (paper Figure 1's claim).
#[test]
fn energy_relative_difference_small() {
    let trace = small_trace(16, 55);
    let model = ModelSpec::Ewma { alpha: 0.5 };
    let warm = 4;

    let mut sk_det = SketchChangeDetector::new(DetectorConfig {
        sketch: SketchConfig { h: 1, k: 1024, seed: 1 },
        model: model.clone(),
        threshold: 0.05,
        key_strategy: KeyStrategy::TwoPass,
    });
    let mut pf_det = PerFlowDetector::new(model);

    let mut sk_f2 = Vec::new();
    let mut pf_f2 = Vec::new();
    for (t, items) in trace.iter().enumerate() {
        let sk = sk_det.process_interval(items);
        let pf = pf_det.process_interval(items);
        if t >= warm {
            sk_f2.push(sk.error_f2);
            pf_f2.push(pf.error_f2);
        }
    }
    let rel =
        metrics::relative_difference(metrics::total_energy(&sk_f2), metrics::total_energy(&pf_f2));
    assert!(
        rel.abs() < 5.0,
        "relative difference {rel}% exceeds the paper's ±3.5% envelope (with margin)"
    );
}
