//! The fan-in plane says so when its detector's durability degrades: a
//! corrupt checkpoint at start-up and a checkpoint that cannot be written
//! both used to be swallowed without an event or a counter. Each now
//! surfaces as a `LifecycleEvent::Degraded` in the run's summary (and
//! `scd_supervisor_degraded_total`), while detection carries on with
//! reports bit-identical to the single box.

use scd_core::supervisor::{CheckpointPolicy, LifecycleEvent, RestartPolicy};
use scd_core::{
    Checkpoint, DetectorConfig, IntervalReport, KeyStrategy, PipelineMetrics, SketchChangeDetector,
};
use scd_forecast::ModelSpec;
use scd_net::{AggregateSummary, Aggregator, AggregatorConfig, IngestNode, NodeConfig};
use scd_sketch::SketchConfig;
use scd_traffic::Corruptor;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

const INTERVALS: u64 = 8;
const SKETCH: SketchConfig = SketchConfig { h: 3, k: 512, seed: 11 };

fn detector_config() -> DetectorConfig {
    DetectorConfig {
        sketch: SKETCH,
        model: ModelSpec::Ewma { alpha: 0.5 },
        threshold: 0.05,
        key_strategy: KeyStrategy::TwoPass,
    }
}

fn interval_updates(t: u64) -> Vec<(u64, f64)> {
    (0..200u64).map(|key| (key, (100 + (key % 13) * 10 + (t % 3) * 5) as f64)).collect()
}

fn reference() -> Vec<IntervalReport> {
    let mut detector = SketchChangeDetector::new(detector_config());
    (0..INTERVALS).map(|t| detector.process_interval(&interval_updates(t))).collect()
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("scd-net-degraded-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A one-node ring, checkpointing every 2 intervals at `checkpoint`.
fn run_plane(tag: &str, checkpoint: PathBuf) -> (AggregateSummary, Arc<PipelineMetrics>) {
    let registry = scd_obs::Registry::new();
    let metrics = PipelineMetrics::register(&registry);
    let config = AggregatorConfig {
        checkpoint: Some(CheckpointPolicy { path: checkpoint, every: 2 }),
        detect_metrics: Some(Arc::clone(&metrics)),
        node_deadline: Duration::from_secs(10),
        run_timeout: Duration::from_secs(30),
        ..AggregatorConfig::new(detector_config(), 1)
    };
    let aggregator = Aggregator::bind(config, "127.0.0.1:0").expect("bind");
    let addr = aggregator.local_addr().expect("addr").to_string();
    let plane = std::thread::spawn(move || aggregator.run().expect("aggregate"));
    let spool_dir = scratch(&format!("{tag}-spool"));
    let mut node = IngestNode::new(NodeConfig {
        node: 0,
        nodes: 1,
        sketch: SKETCH,
        shards: 2,
        addr,
        spool_dir: spool_dir.clone(),
        retry: RestartPolicy { max_restarts: 5, backoff_base_ms: 5, backoff_cap_ms: 100 },
        fault: None,
        metrics: None,
    })
    .expect("node up");
    for t in 0..INTERVALS {
        node.push_slice(&interval_updates(t)).expect("push");
        node.end_interval().expect("close interval");
    }
    let shipped = node.finish(Duration::from_secs(15)).expect("finish");
    assert!(shipped.unacked.is_empty(), "spool must drain: {:?}", shipped.unacked);
    let summary = plane.join().expect("aggregator thread");
    let _ = std::fs::remove_dir_all(&spool_dir);
    (summary, metrics)
}

fn degradations(summary: &AggregateSummary) -> Vec<&str> {
    summary
        .events
        .iter()
        .filter_map(|e| match e {
            LifecycleEvent::Degraded { reason } => Some(reason.as_str()),
            _ => None,
        })
        .collect()
}

fn assert_reports_match_the_single_box(summary: &AggregateSummary) {
    assert!(!summary.timed_out);
    let got: Vec<&IntervalReport> = summary.intervals.iter().map(|e| &e.report).collect();
    assert_eq!(got, reference().iter().collect::<Vec<_>>());
}

#[test]
fn a_corrupt_checkpoint_at_start_up_is_one_degraded_event_not_silence() {
    let dir = scratch("corrupt");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("aggregate.ckpt");
    // A valid checkpoint of this very detector, four intervals in — then
    // one flipped byte.
    let mut detector = SketchChangeDetector::new(detector_config());
    (0..4).for_each(|t| drop(detector.process_interval(&interval_updates(t))));
    let mut bytes = Checkpoint {
        config: detector_config(),
        snapshot: detector.snapshot(),
        next_interval: Some(4),
        processed: 4,
        staggered: None,
        glr: None,
    }
    .to_bytes();
    Corruptor::new(7).flip_one_byte(&mut bytes);
    std::fs::write(&path, &bytes).unwrap();

    let (summary, metrics) = run_plane("corrupt", path.clone());
    assert_eq!(summary.resumed_from, 0, "a corrupt checkpoint must not be trusted");
    assert_reports_match_the_single_box(&summary);
    let degraded = degradations(&summary);
    assert_eq!(degraded.len(), 1, "{:?}", summary.events);
    assert!(degraded[0].contains("checkpoint unusable"), "{degraded:?}");
    assert_eq!(metrics.supervisor.degraded_total.get(), 1);
    // The first write on the cadence replaced it with a good one.
    assert_eq!(metrics.supervisor.checkpoints_total.get(), INTERVALS / 2);
    assert_eq!(Checkpoint::load(&path).expect("rewritten").snapshot.intervals_processed, 8);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_unwritable_checkpoint_directory_is_a_degraded_event_per_failed_write() {
    let dir = scratch("unwritable");
    let (summary, metrics) =
        run_plane("unwritable", dir.join("no-such-dir").join("aggregate.ckpt"));
    assert_reports_match_the_single_box(&summary);
    let degraded = degradations(&summary);
    assert_eq!(degraded.len() as u64, INTERVALS / 2, "{:?}", summary.events);
    assert!(degraded.iter().all(|reason| reason.contains("checkpoint write failed")));
    assert_eq!(metrics.supervisor.degraded_total.get(), INTERVALS / 2);
    assert_eq!(metrics.supervisor.checkpoints_total.get(), 0);
    assert!(!dir.exists());
}
