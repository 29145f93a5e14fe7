//! End-to-end tests of the distributed plane against the acceptance
//! criteria:
//!
//! * a healthy 3-node run — even under dropped, duplicated, corrupted
//!   and truncated frames — produces `IntervalReport`s **bit-identical**
//!   to a single-box run over the concatenated trace;
//! * losing one node degrades to parity recovery, still bit-identical;
//! * losing two (adjacent-coverage) nodes yields an explicitly flagged
//!   partial whose report is exactly the detection over the surviving
//!   shards — degraded, never silently wrong;
//! * detector panics at the aggregator are absorbed: restore from
//!   checkpoint, replay, resume mid-stream with unchanged output;
//! * an interval close never waits for an ack, and ships the packed
//!   sketch body whenever the cells are integers (a fraction of the dense
//!   frame's bytes), the dense one when they are not — same reports.

use scd_core::supervisor::RestartPolicy;
use scd_core::{
    CheckpointPolicy, DetectStage, DetectorConfig, EngineConfig, KeyStrategy, SketchChangeDetector,
    Supervision,
};
use scd_forecast::ModelSpec;
use scd_net::sender::ACK_POLL;
use scd_net::{
    AggregateSummary, Aggregator, AggregatorConfig, Frame, IngestNode, NetMetrics, NodeConfig,
    NodeSummary, SpoolDir, VERSION,
};
use scd_sketch::SketchConfig;
use scd_traffic::{shard_of_key, FaultPlan, NetFaultPlan};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

const NODES: u32 = 3;
const INTERVALS: u64 = 8;

/// The sketch family of every test but one.
const SKETCH: SketchConfig = SketchConfig { h: 3, k: 512, seed: 7 };

fn detector_config() -> DetectorConfig {
    detector_config_with(SKETCH)
}

fn detector_config_with(sketch: SketchConfig) -> DetectorConfig {
    DetectorConfig {
        sketch,
        model: ModelSpec::Ewma { alpha: 0.5 },
        threshold: 0.05,
        key_strategy: KeyStrategy::TwoPass,
    }
}

/// Deterministic synthetic trace: integer byte counts (exact in f64),
/// a heavy-tailed-ish spread of keys, and one 30× spike at interval 4.
fn interval_updates(t: u64) -> Vec<(u64, f64)> {
    let mut updates = Vec::new();
    for key in 0..300u64 {
        let base = 100 + (key % 17) * 10;
        let mut value = base + (t % 3) * 5 + key / 50;
        if t == 4 && key == 7 {
            value *= 30;
        }
        updates.push((key, value as f64));
    }
    updates
}

/// The single-box reference: one detector over the whole trace.
fn reference_reports(filter: impl Fn(u64) -> bool) -> Vec<scd_core::IntervalReport> {
    reference_reports_with(SKETCH, filter)
}

fn reference_reports_with(
    sketch: SketchConfig,
    filter: impl Fn(u64) -> bool,
) -> Vec<scd_core::IntervalReport> {
    let mut detector = SketchChangeDetector::new(detector_config_with(sketch));
    (0..INTERVALS)
        .map(|t| {
            let updates: Vec<(u64, f64)> =
                interval_updates(t).into_iter().filter(|&(k, _)| filter(k)).collect();
            detector.process_interval(&updates)
        })
        .collect()
}

fn spool_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("scd-net-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One ingest node on its own thread: ships every interval of the
/// synthetic trace, runs `before_finish`, then finishes.
fn spawn_node(
    sketch: SketchConfig,
    id: u32,
    addr: String,
    spool: PathBuf,
    fault: Option<NetFaultPlan>,
    before_finish: impl FnOnce() + Send + 'static,
) -> std::thread::JoinHandle<NodeSummary> {
    std::thread::spawn(move || {
        let mut node = IngestNode::new(NodeConfig {
            node: id,
            nodes: NODES,
            sketch,
            shards: 2,
            addr,
            spool_dir: spool,
            retry: RestartPolicy { max_restarts: 5, backoff_base_ms: 5, backoff_cap_ms: 100 },
            fault,
            metrics: None,
        })
        .expect("node up");
        for t in 0..INTERVALS {
            node.push_slice(&interval_updates(t)).expect("push");
            node.end_interval().expect("close interval");
        }
        before_finish();
        node.finish(Duration::from_secs(15)).expect("finish")
    })
}

/// Joins node threads, insisting every spool drained.
fn join_nodes(threads: Vec<std::thread::JoinHandle<NodeSummary>>) {
    for thread in threads {
        let summary = thread.join().expect("node thread");
        assert_eq!(summary.intervals_total, INTERVALS);
        assert!(summary.unacked.is_empty(), "spool must drain: {:?}", summary.unacked);
    }
}

/// The reports of a full-coverage run must equal the single box's.
fn assert_full_and_identical(sketch: SketchConfig, summary: &AggregateSummary) {
    assert_no_gaps(summary);
    let reference = reference_reports_with(sketch, |_| true);
    for (emitted, expect) in summary.intervals.iter().zip(&reference) {
        assert!(
            emitted.missing.is_empty() && emitted.recovered.is_empty(),
            "interval {} must be a full merge, not a degraded emission",
            emitted.interval
        );
        assert_eq!(
            emitted.report, *expect,
            "interval {} must stay bit-identical to the single box",
            emitted.interval
        );
    }
}

/// Runs an aggregator plus the given subset of nodes to completion.
fn run_plane(
    tag: &str,
    node_ids: &[u32],
    fault_for: impl Fn(u32) -> Option<NetFaultPlan>,
    mut agg_config: AggregatorConfig,
) -> AggregateSummary {
    agg_config.run_timeout = Duration::from_secs(30);
    let aggregator = Aggregator::bind(agg_config, "127.0.0.1:0").expect("bind");
    let addr = aggregator.local_addr().expect("addr").to_string();
    let agg_thread = std::thread::spawn(move || aggregator.run().expect("aggregate"));
    let spool = spool_dir(tag);
    join_nodes(
        node_ids
            .iter()
            .map(|&id| spawn_node(SKETCH, id, addr.clone(), spool.clone(), fault_for(id), || ()))
            .collect(),
    );
    let summary = agg_thread.join().expect("aggregator thread");
    let _ = std::fs::remove_dir_all(&spool);
    summary
}

fn assert_no_gaps(summary: &AggregateSummary) {
    assert_eq!(summary.intervals.len() as u64, INTERVALS, "every interval must be emitted");
    for (i, emitted) in summary.intervals.iter().enumerate() {
        assert_eq!(emitted.interval, i as u64, "intervals must emit in order with no gaps");
    }
    assert!(!summary.timed_out, "run must finish before the timeout");
}

#[test]
fn healthy_three_nodes_match_single_box_bit_for_bit_despite_network_faults() {
    let summary = run_plane(
        "healthy",
        &[0, 1, 2],
        |id| match id {
            // Drop one frame, later corrupt one: exercises resend and the
            // aggregator's tear-down-and-reconnect path.
            0 => Some(NetFaultPlan::none().and_drop_at(2).and_corrupt_at(5, 0xC0DE)),
            // Duplicate a frame: exercises (node, interval) dedup.
            1 => Some(NetFaultPlan::none().and_duplicate_at(1)),
            // Truncate mid-frame and slam the connection shut.
            2 => Some(NetFaultPlan::none().and_truncate_at(3, 20)),
            _ => None,
        },
        AggregatorConfig {
            grace: Duration::from_secs(2),
            node_deadline: Duration::from_secs(10),
            ..AggregatorConfig::new(detector_config(), NODES)
        },
    );
    assert_no_gaps(&summary);
    let reference = reference_reports(|_| true);
    for (emitted, expect) in summary.intervals.iter().zip(&reference) {
        assert!(emitted.missing.is_empty(), "healthy run must have full coverage");
        assert!(emitted.recovered.is_empty(), "healthy run must not need parity");
        assert_eq!(emitted.report, *expect, "interval {} diverged", emitted.interval);
        assert_eq!(emitted.report.canonical_line(), expect.canonical_line());
    }
    // The spike the reference flags is flagged identically.
    assert!(summary.intervals[4].report.alarms.iter().any(|a| a.key == 7));
}

#[test]
fn one_lost_node_is_recovered_from_parity_bit_for_bit() {
    // Node 1 never comes up. Node 2 carries shard 1 as its buddy, so its
    // parity sketch and key list reconstruct node 1's data exactly.
    let summary = run_plane(
        "one-lost",
        &[0, 2],
        |_| None,
        AggregatorConfig {
            grace: Duration::from_millis(150),
            node_deadline: Duration::from_millis(300),
            ..AggregatorConfig::new(detector_config(), NODES)
        },
    );
    assert_no_gaps(&summary);
    let reference = reference_reports(|_| true);
    for (emitted, expect) in summary.intervals.iter().zip(&reference) {
        assert!(emitted.missing.is_empty(), "parity must cover a single loss");
        assert_eq!(emitted.recovered, vec![1], "node 1 must be rebuilt from parity");
        assert_eq!(
            emitted.report, *expect,
            "recovered interval {} must be bit-identical",
            emitted.interval
        );
    }
}

#[test]
fn two_lost_nodes_yield_flagged_partial_over_surviving_shards() {
    // Only node 0 survives. Its parity rebuilds its buddy (node 2), but
    // nobody carries node 1 — the plane must flag it, and the emitted
    // report must be exactly the detection over shards 0 and 2.
    let summary = run_plane(
        "two-lost",
        &[0],
        |_| None,
        AggregatorConfig {
            grace: Duration::from_millis(150),
            node_deadline: Duration::from_millis(300),
            ..AggregatorConfig::new(detector_config(), NODES)
        },
    );
    assert_no_gaps(&summary);
    let surviving = reference_reports(|key| shard_of_key(key, NODES as usize) != 1);
    let full = reference_reports(|_| true);
    for ((emitted, partial_expect), full_expect) in
        summary.intervals.iter().zip(&surviving).zip(&full)
    {
        assert_eq!(emitted.missing, vec![1], "the uncoverable node must be flagged");
        assert_eq!(emitted.recovered, vec![2], "node 0's parity must rebuild node 2");
        assert_eq!(
            emitted.report, *partial_expect,
            "partial interval {} must equal detection over surviving shards",
            emitted.interval
        );
        // During warm-up every report is empty, so only warmed-up
        // intervals can demonstrate the partial/full distinction.
        if emitted.report.warmed_up {
            assert_ne!(
                emitted.report, *full_expect,
                "a partial must not masquerade as the full report"
            );
        }
    }
}

/// A well-formed `Hello` for `node`, as a hand-driven client sends it.
fn hello(sketch: SketchConfig, node: u32) -> Vec<u8> {
    Frame::Hello {
        node,
        nodes: NODES,
        h: sketch.h as u64,
        k: sketch.k as u64,
        seed: sketch.seed,
        version: VERSION,
    }
    .encode()
}

/// A restarted node whose spool already drained against a previous
/// aggregator incarnation reconnects with a bare `Hello` + `Bye`. The
/// declared interval range must NOT open the grace window on its own:
/// while zero frames for an interval have arrived and the nodes that
/// owe them are still inside their liveness deadlines, the aggregator
/// has to keep waiting instead of emitting empty flagged partials.
///
/// The rule itself — over thousands of grace windows, on an injected
/// clock — is pinned by the aggregator's unit test of its wait step.
/// This is the same situation end to end: the declaration sits longer
/// than a grace window that is itself sized (like the healthy run's)
/// above any skew between the three node threads, so nothing here races
/// the scheduler.
#[test]
fn declared_but_undelivered_intervals_wait_for_the_first_frame() {
    let grace = Duration::from_secs(2);
    let config = AggregatorConfig {
        grace,
        node_deadline: Duration::from_secs(10),
        run_timeout: Duration::from_secs(30),
        ..AggregatorConfig::new(detector_config(), NODES)
    };
    let aggregator = Aggregator::bind(config, "127.0.0.1:0").expect("bind");
    let addr = aggregator.local_addr().expect("addr").to_string();
    let agg_thread = std::thread::spawn(move || aggregator.run().expect("aggregate"));

    // The straggler: node 0 from a previous run, nothing left to ship.
    let mut stale = TcpStream::connect(&addr).expect("stale connect");
    stale.write_all(&hello(SKETCH, 0)).expect("stale hello");
    stale.write_all(&Frame::Bye { node: 0, intervals_total: INTERVALS }.encode()).expect("bye");
    stale.flush().expect("flush");

    // Let the declaration outlast a whole grace window with zero
    // interval frames delivered.
    std::thread::sleep(grace + Duration::from_millis(200));

    // Now the real plane ships everything.
    let spool = spool_dir("stale-bye");
    join_nodes(
        (0..NODES)
            .map(|id| spawn_node(SKETCH, id, addr.clone(), spool.clone(), None, || ()))
            .collect(),
    );
    drop(stale);
    let summary = agg_thread.join().expect("aggregator thread");
    let _ = std::fs::remove_dir_all(&spool);
    assert_full_and_identical(SKETCH, &summary);
}

/// Polls `done` until it holds, or fails the test after ten seconds.
fn wait_for(what: &str, done: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Two hostile clients beside a healthy run: one connects and never says
/// `Hello`, one says `Hello` and then never reads an `Ack`. Each must be
/// cut loose within its budget (one read timeout; one write timeout once
/// the acks back up) and counted, and the three real nodes' reports stay
/// bit-identical to the single box.
///
/// Backing the acks up means filling two kernel socket buffers 21 bytes
/// at a time — hundreds of thousands of frames — so this one test runs on
/// the smallest sketch family there is, to keep each frame near 150 bytes.
#[test]
fn mute_and_ack_hoarding_clients_are_cut_loose_beside_a_healthy_run() {
    const TINY: SketchConfig = SketchConfig { h: 1, k: 2, seed: 7 };
    let registry = scd_obs::Registry::new();
    let metrics = NetMetrics::register(&registry);
    let rejected = || metrics.aggregator.rejected_connections_total.get();
    let config = AggregatorConfig {
        grace: Duration::from_secs(2),
        // The real nodes sit silent while the hoarder is dealt with.
        node_deadline: Duration::from_secs(60),
        run_timeout: Duration::from_secs(90),
        metrics: Some(Arc::clone(&metrics)),
        ..AggregatorConfig::new(detector_config_with(TINY), NODES)
    };
    let aggregator = Aggregator::bind(config, "127.0.0.1:0").expect("bind");
    let addr = aggregator.local_addr().expect("addr").to_string();
    let agg_thread = std::thread::spawn(move || aggregator.run().expect("aggregate"));

    // The mute client is there first. Budget: one 500 ms read timeout;
    // allow the scheduler as much again several times over.
    let mut mute = TcpStream::connect(&addr).expect("mute connect");
    let mute_since = Instant::now();
    mute.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

    // The healthy plane. Its nodes ship everything at full speed but
    // hold their `Bye` until the hostile clients have been dealt with, so
    // the aggregator is still up to deal with them.
    let spool = spool_dir("hostile");
    let hostile_done = Arc::new(std::sync::Barrier::new(NODES as usize + 1));
    let nodes: Vec<_> = (0..NODES)
        .map(|id| {
            let gate = Arc::clone(&hostile_done);
            spawn_node(TINY, id, addr.clone(), spool.clone(), None, move || {
                gate.wait();
            })
        })
        .collect();

    assert_eq!(mute.read(&mut [0u8; 16]).expect("a mute client is closed, not reset"), 0);
    assert!(mute_since.elapsed() < Duration::from_secs(3), "mute client pinned its reader");
    assert_eq!(rejected(), 1, "the mute client must be counted");

    // The hoarder resends node 0's interval 0 for ever and reads nothing.
    // It waits for interval 0 to be emitted first, so every copy is a
    // stale duplicate: acknowledged at receipt, merged nowhere.
    wait_for("interval 0 to be emitted", || metrics.aggregator.full_intervals_total.get() >= 1);
    let blob = scd_sketch::wire::to_bytes(&scd_sketch::KarySketch::new(TINY));
    let stale = Frame::Interval {
        node: 0,
        interval: 0,
        data: blob.clone(),
        data_keys: vec![],
        parity: blob,
        parity_keys: vec![],
    }
    .encode();
    let mut hoarder = TcpStream::connect(&addr).expect("hoarder connect");
    hoarder.set_write_timeout(Some(Duration::from_millis(200))).unwrap();
    hoarder.write_all(&hello(TINY, 0)).expect("hoarder hello");
    // Until the acks back up the aggregator keeps reading and these
    // writes succeed; then its ack write blocks, it stops reading, and
    // ours time out — until its write deadline passes and it hangs up,
    // which surfaces here as a reset or broken pipe.
    let mut wedged_since = None;
    let hung_up = loop {
        match hoarder.write_all(&stale) {
            Ok(()) => wedged_since = None,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                let since = *wedged_since.get_or_insert_with(Instant::now);
                assert!(since.elapsed() < Duration::from_secs(8), "ack hoarder pinned its reader");
            }
            Err(_) => break Instant::now(),
        }
    };
    // Budget: the 2 s ack write timeout, measured from our first blocked
    // write (which can only lag the aggregator's own).
    if let Some(since) = wedged_since {
        assert!(hung_up - since < Duration::from_secs(6), "ack hoarder outlived its budget");
    }
    wait_for("the hoarder to be counted", || rejected() == 2);
    // Neither client held the real intervals up: all eight are already
    // out, though no node has signed off yet.
    assert_eq!(metrics.aggregator.full_intervals_total.get(), INTERVALS);

    hostile_done.wait();
    join_nodes(nodes);
    let summary = agg_thread.join().expect("aggregator thread");
    let _ = std::fs::remove_dir_all(&spool);
    assert_full_and_identical(TINY, &summary);
    assert_eq!(rejected(), 2, "only the two hostile clients were ever rejected");
}

/// Connections past the cap (four per ring node) are closed on accept and
/// counted; the ones inside it are untouched.
#[test]
fn a_connect_flood_above_the_cap_is_refused_and_counted() {
    let registry = scd_obs::Registry::new();
    let metrics = NetMetrics::register(&registry);
    let config = AggregatorConfig {
        // The squatters below say `Hello` and fall silent: once this
        // passes they are all down, and the run ends on its own.
        node_deadline: Duration::from_millis(1_500),
        run_timeout: Duration::from_secs(30),
        metrics: Some(Arc::clone(&metrics)),
        ..AggregatorConfig::new(detector_config(), NODES)
    };
    let aggregator = Aggregator::bind(config, "127.0.0.1:0").expect("bind");
    let addr = aggregator.local_addr().expect("addr").to_string();
    let agg_thread = std::thread::spawn(move || aggregator.run().expect("aggregate"));

    let cap = NODES as usize * 4;
    let squatters: Vec<TcpStream> = (0..cap)
        .map(|i| {
            let mut conn = TcpStream::connect(&addr).expect("squatter connect");
            conn.write_all(&hello(SKETCH, i as u32 % NODES)).expect("squatter hello");
            conn
        })
        .collect();
    // Accepts are served in connect order, so every squatter holds a
    // slot before the first of these is looked at.
    for i in 0..5 {
        let mut extra = TcpStream::connect(&addr).expect("extra connect");
        extra.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        assert_eq!(extra.read(&mut [0u8; 16]).expect("refusal is a clean close"), 0, "extra {i}");
    }
    assert_eq!(metrics.aggregator.rejected_connections_total.get(), 5);
    // The squatters were never disturbed: still open, nothing to read.
    for mut conn in squatters {
        conn.set_read_timeout(Some(Duration::from_millis(4))).unwrap();
        let err = conn.read(&mut [0u8; 16]).expect_err("a squatter was closed");
        assert!(matches!(
            err.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ));
    }
    let summary = agg_thread.join().expect("aggregator thread");
    assert!(summary.intervals.is_empty() && !summary.timed_out);
}

#[test]
fn detector_panics_restart_from_checkpoint_with_unchanged_reports() {
    let ck_path = std::env::temp_dir().join(format!("scd-net-test-ckpt-{}.ck", std::process::id()));
    let _ = std::fs::remove_file(&ck_path);
    let summary = run_plane(
        "panics",
        &[0, 1, 2],
        |_| None,
        AggregatorConfig {
            grace: Duration::from_secs(2),
            node_deadline: Duration::from_secs(10),
            checkpoint: Some(CheckpointPolicy { path: ck_path.clone(), every: 2 }),
            restart: RestartPolicy { max_restarts: 3, backoff_base_ms: 1, backoff_cap_ms: 5 },
            fault: Some(FaultPlan::panic_at(3, "injected detector panic")),
            ..AggregatorConfig::new(detector_config(), NODES)
        },
    );
    assert_no_gaps(&summary);
    assert_eq!(summary.detector_restarts, 1, "exactly the injected panic is absorbed");
    let reference = reference_reports(|_| true);
    for (emitted, expect) in summary.intervals.iter().zip(&reference) {
        assert_eq!(
            emitted.report, *expect,
            "restart must resume mid-stream with unchanged output at interval {}",
            emitted.interval
        );
    }
    assert!(ck_path.exists(), "checkpoints must have been written");
    let _ = std::fs::remove_file(&ck_path);
}

#[test]
fn supervised_detector_resumes_from_checkpoint_at_startup() {
    let ck_path =
        std::env::temp_dir().join(format!("scd-net-test-resume-{}.ck", std::process::id()));
    let _ = std::fs::remove_file(&ck_path);
    let config = detector_config();
    let every = CheckpointPolicy { path: ck_path.clone(), every: 2 };
    let mut reference = SketchChangeDetector::new(config.clone());
    let stage = |checkpoint: CheckpointPolicy| {
        let supervision = Supervision { checkpoint: Some(checkpoint), ..Supervision::default() };
        let engine = EngineConfig::new(config.clone(), 1).with_supervision(supervision);
        DetectStage::from_config(&engine)
    };
    let mut first = stage(every.clone()).expect("fresh").0;
    let sketch_of = |updates: &[(u64, f64)], rows: &std::sync::Arc<scd_hash::HashRows>| {
        let mut s = scd_sketch::KarySketch::with_rows(std::sync::Arc::clone(rows));
        let mut keys = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for &(k, v) in updates {
            s.update(k, v);
            if seen.insert(k) {
                keys.push(k);
            }
        }
        (s, keys)
    };
    // Four intervals through the first incarnation (checkpoint lands at 4).
    for t in 0..4u64 {
        let updates = interval_updates(t);
        let (s, keys) = sketch_of(&updates, first.rows());
        let got = first.observe(s, &keys).expect("observe");
        let expect = reference.process_interval(&updates);
        assert_eq!(got, expect);
    }
    drop(first);
    // A restarted process resumes at interval 4 and stays bit-identical.
    let mut second = stage(every).expect("resumed").0;
    assert_eq!(second.emitted(), 4, "startup must consult the checkpoint");
    for t in 4..INTERVALS {
        let updates = interval_updates(t);
        let (s, keys) = sketch_of(&updates, second.rows());
        let got = second.observe(s, &keys).expect("observe");
        let expect = reference.process_interval(&updates);
        assert_eq!(got, expect, "resumed detector diverged at interval {t}");
    }
    let _ = std::fs::remove_file(&ck_path);
}

/// One attempt at the no-wait check: 20 closes against a peer that
/// swallows every byte and never acknowledges one, then the same 20 spool
/// stores on their own. Returns `(closes, stores)`.
fn closes_against_a_mute_peer(attempt: u32) -> (Duration, Duration) {
    const TINY: SketchConfig = SketchConfig { h: 1, k: 2, seed: 7 };
    const CLOSES: u64 = 20;
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let peer = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().expect("accept");
        std::io::copy(&mut conn, &mut std::io::sink()).expect("swallow until the node hangs up")
    });
    let spool = spool_dir(&format!("no-ack-{attempt}"));
    let mut node = IngestNode::new(NodeConfig {
        node: 0,
        nodes: NODES,
        sketch: TINY,
        shards: 2,
        addr,
        spool_dir: spool.clone(),
        retry: RestartPolicy { max_restarts: 5, backoff_base_ms: 5, backoff_cap_ms: 100 },
        fault: None,
        metrics: None,
    })
    .expect("node up");
    let began = Instant::now();
    for _ in 0..CLOSES {
        node.end_interval().expect("close interval");
    }
    let closes = began.elapsed();
    drop(node);
    assert!(peer.join().expect("peer thread") > 0, "the frames were sent");

    // Nothing was acknowledged, so nothing may have left the spool.
    let spooled = SpoolDir::open(&spool, 0).expect("spool");
    assert_eq!(spooled.pending().expect("pending"), (0..CLOSES).collect::<Vec<_>>());
    let frames: Vec<Vec<u8>> = (0..CLOSES).map(|t| spooled.load(t).expect("load")).collect();
    let alone = SpoolDir::open(&spool.join("alone"), 0).expect("second spool");
    let began = Instant::now();
    for (t, frame) in frames.iter().enumerate() {
        alone.store(t as u64, frame).expect("store");
    }
    let stores = began.elapsed();
    let _ = std::fs::remove_dir_all(&spool);
    (closes, stores)
}

/// An interval close drains the acks the socket already holds and moves
/// on. Twenty closes with no ack ever arriving must cost less than half
/// a read timeout each on top of their own spool writes (measured here,
/// so a slow disk cannot fail this) — a close that waits for its ack
/// sleeps a whole timeout every time, 200 ms in all, on any machine. A
/// busy machine can steal a time slice from one attempt, not from three.
#[test]
fn a_close_never_waits_for_an_ack() {
    let mut seen = Vec::new();
    for attempt in 0..3 {
        let (closes, stores) = closes_against_a_mute_peer(attempt);
        if closes < 20 * ACK_POLL / 2 + stores {
            return;
        }
        seen.push((closes, stores));
    }
    panic!("20 closes waited on acks that never came: (closes, their stores alone) = {seen:?}");
}

/// `finish` does not hang up while an ack is still owed. Closing a socket
/// that holds unread bytes sends a reset instead of a clean close, and a
/// reset lets the peer discard what it has not read yet — the final `Bye`,
/// after which an aggregator sits out the node's whole liveness deadline.
/// Since closes stopped waiting for acks, a resend's duplicate ack can be
/// in flight when the spool is already empty; so the node counts the
/// frames it wrote and leaves only when each has been answered. The peer
/// here gets interval 0 twice, answers once, and must find the node still
/// connected until it answers the second copy.
#[test]
fn finish_waits_for_the_ack_of_every_frame_it_wrote() {
    const TINY: SketchConfig = SketchConfig { h: 1, k: 2, seed: 7 };
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let peer = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().expect("accept");
        let ack = Frame::Ack { interval: 0 }.encode();
        let mut intervals = 0;
        while intervals < 2 {
            let frame = Frame::read_from(&mut conn).expect("hello, then interval 0 twice");
            intervals += usize::from(matches!(frame, Frame::Interval { .. }));
        }
        conn.write_all(&ack).expect("first ack");
        // The spool is empty now, and one ack is still owed: for as long
        // as we care to look, nothing but `Bye`s arrives, and no end of
        // stream.
        conn.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
        let watched = Instant::now();
        while watched.elapsed() < Duration::from_millis(300) {
            let got = Frame::read_from(&mut conn);
            let waiting = matches!(got, Ok(Frame::Bye { .. }) | Err(scd_net::FrameError::Idle));
            assert!(waiting, "the node left with an ack still owed: {got:?}");
        }
        conn.write_all(&ack).expect("second ack");
        conn.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut byes = 0;
        loop {
            match Frame::read_from(&mut conn) {
                Ok(Frame::Bye { .. }) => byes += 1,
                other => break (byes, other),
            }
        }
    });
    let spool = spool_dir("owed-ack");
    let mut node = IngestNode::new(NodeConfig {
        node: 0,
        nodes: NODES,
        sketch: TINY,
        shards: 1,
        addr,
        spool_dir: spool.clone(),
        retry: RestartPolicy { max_restarts: 5, backoff_base_ms: 5, backoff_cap_ms: 100 },
        fault: Some(NetFaultPlan::none().and_duplicate_at(0)),
        metrics: None,
    })
    .expect("node up");
    node.end_interval().expect("close interval");
    let summary = node.finish(Duration::from_secs(10)).expect("finish");
    assert!(summary.unacked.is_empty());
    let (byes, end) = peer.join().expect("peer thread");
    let _ = std::fs::remove_dir_all(&spool);
    assert!(byes >= 1, "the closing Bye must follow the last ack");
    assert!(matches!(end, Err(scd_net::FrameError::Closed)), "not a clean close: {end:?}");
}

/// A healthy ring, every node counted by `metrics`, against the single
/// box over the same updates: returns the plane's summary and the
/// reference reports.
fn run_counted_ring(
    tag: &str,
    sketch: SketchConfig,
    nodes: u32,
    intervals: u64,
    updates: fn(u64) -> Vec<(u64, f64)>,
    metrics: &Arc<NetMetrics>,
) -> (AggregateSummary, Vec<scd_core::IntervalReport>) {
    let config = AggregatorConfig {
        grace: Duration::from_secs(2),
        node_deadline: Duration::from_secs(10),
        run_timeout: Duration::from_secs(30),
        ..AggregatorConfig::new(detector_config_with(sketch), nodes)
    };
    let aggregator = Aggregator::bind(config, "127.0.0.1:0").expect("bind");
    let addr = aggregator.local_addr().expect("addr").to_string();
    let agg_thread = std::thread::spawn(move || aggregator.run().expect("aggregate"));
    let spool = spool_dir(tag);
    let threads: Vec<_> = (0..nodes)
        .map(|node| {
            let config = NodeConfig {
                node,
                nodes,
                sketch,
                shards: 1,
                addr: addr.clone(),
                spool_dir: spool.clone(),
                retry: RestartPolicy { max_restarts: 5, backoff_base_ms: 5, backoff_cap_ms: 100 },
                fault: None,
                metrics: Some(Arc::clone(metrics)),
            };
            std::thread::spawn(move || {
                let mut node = IngestNode::new(config).expect("node up");
                for t in 0..intervals {
                    node.push_slice(&updates(t)).expect("push");
                    node.end_interval().expect("close interval");
                }
                node.finish(Duration::from_secs(15)).expect("finish")
            })
        })
        .collect();
    for thread in threads {
        let summary = thread.join().expect("node thread");
        assert!(summary.unacked.is_empty(), "spool must drain: {:?}", summary.unacked);
    }
    let summary = agg_thread.join().expect("aggregator thread");
    let _ = std::fs::remove_dir_all(&spool);
    let mut detector = SketchChangeDetector::new(detector_config_with(sketch));
    let reference = (0..intervals).map(|t| detector.process_interval(&updates(t))).collect();
    (summary, reference)
}

fn assert_full_and_equal(summary: &AggregateSummary, reference: &[scd_core::IntervalReport]) {
    assert!(!summary.timed_out);
    assert_eq!(summary.intervals.len(), reference.len(), "every interval must be emitted");
    for (emitted, expect) in summary.intervals.iter().zip(reference) {
        assert!(emitted.missing.is_empty() && emitted.recovered.is_empty());
        assert_eq!(emitted.report, *expect, "interval {} diverged", emitted.interval);
    }
}

/// Interval frames the nodes put on the wire, resends included, and the
/// size of one dense blob of `sketch`'s family.
fn frames_and_dense_blob(metrics: &NetMetrics, sketch: SketchConfig) -> (u64, u64) {
    let frames = metrics.sender.frames_sent_total.get() + metrics.sender.frames_resent_total.get();
    (frames, scd_sketch::wire::to_bytes(&scd_sketch::KarySketch::new(sketch)).len() as u64)
}

/// Half-byte values (what reweighted sampling produces) leave fractional
/// cells the packed body cannot carry: every frame falls back to the
/// dense blobs, and the reports still equal the single box's.
#[test]
fn fractional_cells_ship_dense_and_still_match_the_single_box() {
    fn halved(t: u64) -> Vec<(u64, f64)> {
        interval_updates(t).into_iter().map(|(k, v)| (k, 0.5 * v)).collect()
    }
    let metrics = NetMetrics::register(&scd_obs::Registry::new());
    let (summary, reference) =
        run_counted_ring("fractional", SKETCH, NODES, INTERVALS, halved, &metrics);
    assert_full_and_equal(&summary, &reference);
    assert!(summary.intervals[4].report.alarms.iter().any(|a| a.key == 7));
    let (frames, dense_blob) = frames_and_dense_blob(&metrics, SKETCH);
    assert!(frames >= u64::from(NODES) * INTERVALS);
    let sent = metrics.sender.bytes_sent_total.get();
    assert!(sent >= frames * 2 * dense_blob, "{frames} frames in {sent} B: some went packed");
}

/// At the benchmark's shape (H = 5, K = 32 768, two nodes, ~5 000 records
/// a shard over ~1 250 keys) an interval's cells are integers and ~7 %
/// non-zero: the frames go packed, at under a tenth of the dense bytes.
#[test]
fn integer_intervals_ship_under_a_tenth_of_the_dense_bytes() {
    const WIDE: SketchConfig = SketchConfig { h: 5, k: 32_768, seed: 0x5CD };
    fn updates(t: u64) -> Vec<(u64, f64)> {
        let mut rng = scd_hash::SplitMix64::new(0xFA21 + t);
        (0..10_000).map(|_| (rng.next_below(2_500), (40 + rng.next_below(1_460)) as f64)).collect()
    }
    let metrics = NetMetrics::register(&scd_obs::Registry::new());
    let (summary, reference) = run_counted_ring("packed-bytes", WIDE, 2, 3, updates, &metrics);
    assert_full_and_equal(&summary, &reference);
    let (frames, dense_blob) = frames_and_dense_blob(&metrics, WIDE);
    assert!(frames >= 2 * 3);
    // Every byte the nodes wrote — key lists, handshakes and any resend
    // included — against the two dense blobs alone of as many frames.
    let sent = metrics.sender.bytes_sent_total.get();
    assert!(sent * 10 < frames * 2 * dense_blob, "{frames} frames took {sent} B");
}
