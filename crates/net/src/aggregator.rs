//! The aggregation point: COMBINE every node's interval sketch, run the
//! one global detector, degrade explicitly when nodes are lost.
//!
//! Sketch linearity (paper §2, `DESIGN.md` §Aggregation) is what makes
//! this exact: per-interval sketches over disjoint key shards sum — cell
//! by cell — to the sketch of the whole stream, and integer byte-count
//! cells make those sums exact in `f64`. So the aggregator's report for
//! an interval is **bit-identical** to a single-box run over the
//! concatenated trace whenever it has (or can reconstruct) every shard.
//!
//! The degradation ladder, per interval:
//!
//! 1. **Wait** — until every node's frame is in, or the grace window
//!    (opened by the interval's *first arriving frame*, never by a mere
//!    `Bye` declaration) closes, or every still-missing node is known
//!    dead/done.
//! 2. **Merge with redundancy** — any missing node whose ring successor
//!    delivered is reconstructed exactly from the successor's parity
//!    sketch (`D_m = P_{m+1} − D_{m+1}`) and parity key list; the interval
//!    is then emitted as *recovered*, bit-identical to the full merge.
//! 3. **Partial, explicitly flagged** — if reconstruction cannot cover
//!    every loss (two adjacent nodes down), the interval is emitted from
//!    what is present, with the missing node set recorded on the
//!    emission. Never silently wrong: a consumer can always distinguish
//!    a full-coverage report from a partial one.
//!
//! Duplicates (resent spool frames) are dropped by `(node, interval)`;
//! every received interval frame is acknowledged, including duplicates
//! and stale arrivals, so node spools always drain.
//!
//! A node's sketch blobs stay the bytes that arrived. The receipt check
//! walks each blob the way the decoder would, writing no table; emit adds
//! each present node's data cells straight into `So(t)` — for a packed
//! blob, its non-zero cells only; and only step 2 decodes, the successor's
//! parity and data, to subtract them. A slot is tens of kilobytes where
//! two decoded tables were megabytes, however far the nodes run ahead.

use crate::frame::{Frame, FrameError, VERSION};
use crate::metrics::NetMetrics;
use crate::NetError;
use scd_core::detector::{DetectorConfig, IntervalReport};
use scd_core::supervisor::{CheckpointPolicy, LifecycleEvent, RestartPolicy, Supervision};
use scd_core::{DetectStage, EngineConfig, PipelineMetrics};
use scd_hash::HashRows;
use scd_obs::{Budgets, Listener};
use scd_sketch::{wire, KarySketch};
use scd_traffic::FaultPlan;
use std::collections::BTreeMap;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Socket read timeout on node connections. A connected node may be
/// quiet for a whole interval between frames (the read times out at a
/// frame boundary and is retried until the run ends), but its `Hello`
/// must arrive, and a frame once begun must keep arriving, within this.
const READ_TIMEOUT: Duration = Duration::from_millis(500);

/// Budget for writing one `Ack`; a node not draining its socket for this
/// long loses the connection (and reconnects, resending its spool).
const WRITE_TIMEOUT: Duration = Duration::from_secs(2);

/// Concurrent connections allowed per ring node: one live, plus room for
/// reconnects racing the teardown of connections the node abandoned.
const CONNECTIONS_PER_NODE: usize = 4;

/// Longest the main loop waits for a reader-thread event before it looks
/// at the clock again: the resolution of grace windows, node deadlines and
/// the run timeout. An event wakes it at once.
const TICK: Duration = Duration::from_millis(5);

/// Configuration of the aggregation point.
#[derive(Debug, Clone)]
pub struct AggregatorConfig {
    /// The one global detector all nodes feed.
    pub detector: DetectorConfig,
    /// Ring size — how many nodes must report each interval.
    pub nodes: u32,
    /// How long to hold an incomplete interval for stragglers before
    /// walking the degradation ladder.
    pub grace: Duration,
    /// Silence longer than this marks a node down (a node that never
    /// connected is measured from aggregator start).
    pub node_deadline: Duration,
    /// Hard wall-clock bound on the whole run; on expiry everything
    /// buffered is flushed through the ladder and the summary is marked
    /// timed out.
    pub run_timeout: Duration,
    /// Optional detector checkpointing: a restarted aggregator process
    /// resumes at the checkpointed interval.
    pub checkpoint: Option<CheckpointPolicy>,
    /// Restart budget for absorbed detector panics.
    pub restart: RestartPolicy,
    /// Test-only detector fault injection (panic/stall per interval).
    pub fault: Option<FaultPlan>,
    /// Optional metric sink.
    pub metrics: Option<Arc<NetMetrics>>,
    /// Optional metric sink of the detect stage: detector, turnover
    /// timing and supervisor lifecycle counters.
    pub detect_metrics: Option<Arc<PipelineMetrics>>,
}

impl AggregatorConfig {
    /// A config with production-shaped defaults for everything but the
    /// detector and ring size.
    pub fn new(detector: DetectorConfig, nodes: u32) -> AggregatorConfig {
        AggregatorConfig {
            detector,
            nodes,
            grace: Duration::from_millis(500),
            node_deadline: Duration::from_secs(2),
            run_timeout: Duration::from_secs(60),
            checkpoint: None,
            restart: RestartPolicy::default(),
            fault: None,
            metrics: None,
            detect_metrics: None,
        }
    }
}

/// One emitted interval: the global report plus its coverage provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct EmittedInterval {
    /// Global interval index.
    pub interval: u64,
    /// The detector's report over the combined sketch.
    pub report: IntervalReport,
    /// Nodes whose shard is absent from this report (empty ⇒ full
    /// coverage; the report is bit-identical to a single-box run).
    pub missing: Vec<u32>,
    /// Nodes reconstructed exactly from ring parity (recovery preserves
    /// bit-identity; these are *not* missing).
    pub recovered: Vec<u32>,
}

/// What a whole aggregation run produced.
#[derive(Debug)]
pub struct AggregateSummary {
    /// Emitted intervals in order.
    pub intervals: Vec<EmittedInterval>,
    /// Whether [`AggregatorConfig::run_timeout`] expired.
    pub timed_out: bool,
    /// Detector panics absorbed by the supervisor.
    pub detector_restarts: u32,
    /// Interval index the detector resumed from (0 unless a usable
    /// checkpoint existed at startup).
    pub resumed_from: u64,
    /// What the detector's supervision announced, in order: checkpoints
    /// written, restarts, and every degradation.
    pub events: Vec<LifecycleEvent>,
}

/// One node's contribution to one interval, its sketch blobs kept as the
/// bytes that arrived (checked at receipt): emit adds the data blob's
/// cells straight into `So(t)`, and only recovery decodes a parity blob.
struct NodeSlot {
    data: Vec<u8>,
    data_keys: Vec<u64>,
    parity: Vec<u8>,
    parity_keys: Vec<u64>,
}

/// What reader threads feed the main loop.
enum Event {
    Interval { node: u32, interval: u64, slot: NodeSlot },
    Bye { node: u32, total: u64 },
    Seen { node: u32 },
}

/// The bound aggregation point. [`run`](Aggregator::run) consumes it.
pub struct Aggregator {
    config: AggregatorConfig,
    listener: Listener,
}

impl Aggregator {
    /// Binds the listening socket (use port 0 for an ephemeral port).
    ///
    /// # Errors
    /// Socket errors, or a zero-node ring.
    pub fn bind(config: AggregatorConfig, addr: &str) -> Result<Aggregator, NetError> {
        if config.nodes == 0 {
            return Err(NetError::Config("aggregator needs at least one node".into()));
        }
        let budgets = Budgets {
            thread_name: "scd-net-accept",
            read_timeout: READ_TIMEOUT,
            write_timeout: WRITE_TIMEOUT,
            max_connections: config.nodes as usize * CONNECTIONS_PER_NODE,
            accepted: Arc::default(),
            refused: match &config.metrics {
                Some(m) => Arc::clone(&m.aggregator.rejected_connections_total),
                None => Arc::default(),
            },
        };
        let listener = Listener::bind(addr, budgets)?;
        Ok(Aggregator { config, listener })
    }

    /// The bound address — hand this to the nodes.
    ///
    /// # Errors
    /// None today; the signature predates the address being cached.
    pub fn local_addr(&self) -> Result<SocketAddr, NetError> {
        Ok(self.listener.local_addr())
    }

    /// Runs the plane to completion: accepts node connections, assembles
    /// intervals through the degradation ladder, and feeds the supervised
    /// global detector.
    ///
    /// # Errors
    /// Socket setup failures or the detector's restart budget running
    /// out. Node loss is *not* an error — it produces recovered or
    /// flagged-partial intervals.
    pub fn run(mut self) -> Result<AggregateSummary, NetError> {
        let (event_tx, event_rx) = sync_channel(256);
        let mut stage =
            EngineConfig::new(self.config.detector.clone(), 1).with_supervision(Supervision {
                restart: self.config.restart,
                checkpoint: self.config.checkpoint.clone(),
                fault: self.config.fault.clone(),
                events: Some(event_tx),
            });
        stage.metrics = self.config.detect_metrics.clone();
        let (mut detector, _) = DetectStage::from_config(&stage)?;
        let resumed_from = detector.emitted();
        let rows = Arc::clone(detector.rows());
        let (tx, rx) = sync_channel(1024);
        let expect = Expect {
            nodes: self.config.nodes,
            h: self.config.detector.sketch.h as u64,
            k: self.config.detector.sketch.k as u64,
            seed: self.config.detector.sketch.seed,
        };
        let metrics = self.config.metrics.clone();
        let readers = tx.clone();
        self.listener.start(move |stream, stop| {
            serve_connection(stream, stop, &readers, &rows, expect, metrics.as_deref());
        });

        let mut events = Vec::new();
        let outcome =
            aggregate_loop(&self.config, &mut detector, &rx, resumed_from, &event_rx, &mut events);
        // `tx` lived this long so the loop's wait never sees a hung-up
        // queue; dropping `rx` unblocks reader threads stuck on a full one.
        drop((tx, rx));
        self.listener.shutdown();
        let (intervals, timed_out) = outcome?;
        events.extend(event_rx.try_iter());
        Ok(AggregateSummary {
            intervals,
            timed_out,
            detector_restarts: detector.restarts(),
            resumed_from,
            events,
        })
    }
}

/// Per-node liveness and stream-end bookkeeping.
struct NodeState {
    last_seen: Option<Instant>,
    bye: Option<u64>,
}

fn aggregate_loop(
    config: &AggregatorConfig,
    detector: &mut DetectStage,
    rx: &Receiver<Event>,
    resumed_from: u64,
    lifecycle: &Receiver<LifecycleEvent>,
    events: &mut Vec<LifecycleEvent>,
) -> Result<(Vec<EmittedInterval>, bool), NetError> {
    let n = config.nodes as usize;
    let mut observed = KarySketch::with_rows(Arc::clone(detector.rows()));
    let start = Instant::now();
    let mut slots: BTreeMap<u64, Vec<Option<NodeSlot>>> = BTreeMap::new();
    let mut nodes: Vec<NodeState> =
        (0..n).map(|_| NodeState { last_seen: None, bye: None }).collect();
    let mut next_emit = resumed_from;
    let mut waiting: Option<(u64, Instant)> = None;
    let mut emitted: Vec<EmittedInterval> = Vec::new();
    let mut timed_out = false;

    loop {
        // Wait for the next reader-thread event (at most a tick), then
        // drain everything queued behind it.
        let first = rx.recv_timeout(TICK).ok();
        for event in first.into_iter().chain(rx.try_iter()) {
            match event {
                Event::Seen { node } => {
                    if let Some(state) = nodes.get_mut(node as usize) {
                        state.last_seen = Some(Instant::now());
                    }
                }
                Event::Bye { node, total } => {
                    if let Some(state) = nodes.get_mut(node as usize) {
                        state.last_seen = Some(Instant::now());
                        let prev = state.bye.unwrap_or(0);
                        state.bye = Some(prev.max(total));
                    }
                }
                Event::Interval { node, interval, slot } => {
                    if let Some(state) = nodes.get_mut(node as usize) {
                        state.last_seen = Some(Instant::now());
                    } else {
                        continue; // out-of-range node id: frame ignored
                    }
                    if interval < next_emit {
                        // Stale resend of an already-emitted interval —
                        // it was acked at receipt; nothing to merge.
                        bump(config, |m| m.aggregator.duplicates_total.inc());
                        continue;
                    }
                    let row = slots.entry(interval).or_insert_with(|| none_row(n));
                    if row[node as usize].is_some() {
                        bump(config, |m| m.aggregator.duplicates_total.inc());
                    } else {
                        row[node as usize] = Some(slot);
                        bump(config, |m| m.aggregator.frames_total.inc());
                    }
                }
            }
        }

        let now = Instant::now();
        let down: Vec<bool> = nodes
            .iter()
            .map(|s| match s.last_seen {
                Some(seen) => now.duration_since(seen) > config.node_deadline,
                None => now.duration_since(start) > config.node_deadline,
            })
            .collect();
        bump(config, |m| {
            m.aggregator.nodes_down.set(down.iter().filter(|&&d| d).count() as f64);
            m.aggregator.max_lag.set(slots.len() as f64);
        });
        let max_bye = nodes.iter().filter_map(|s| s.bye).max();

        // Emit as far as the ladder allows.
        loop {
            let t = next_emit;
            let in_declared_range = max_bye.is_some_and(|b| t < b);
            if !slots.contains_key(&t) && !in_declared_range {
                break; // nothing buffered and no node promised this interval
            }
            let row = slots.get(&t);
            let present = |i: usize| row.is_some_and(|r| r[i].is_some());
            let expected = |i: usize| !down[i] && nodes[i].bye.map_or(true, |total| total > t);
            let ready = wait_is_over(n, present, expected, &mut waiting, t, now, config.grace);
            if !(ready || timed_out && slots.contains_key(&t)) {
                break;
            }
            let row = slots.remove(&t).unwrap_or_else(|| none_row(n));
            let out = emit_one(config, detector, &mut observed, t, row)?;
            emitted.push(out);
            next_emit += 1;
            waiting = None;
        }
        // The lifecycle queue is best-effort and bounded: keep it drained.
        events.extend(lifecycle.try_iter());

        // Done when every node has signed off (or died) and everything
        // promised or buffered has been emitted.
        let all_accounted = (0..n).all(|i| nodes[i].bye.is_some() || down[i]);
        let drained = slots.is_empty() && max_bye.map_or(true, |b| next_emit >= b);
        if all_accounted && drained {
            break;
        }
        if start.elapsed() >= config.run_timeout {
            if timed_out {
                // Second pass after the forced flush: stop for real.
                break;
            }
            // One more emit sweep with the ladder forced open.
            timed_out = true;
        }
    }
    Ok((emitted, timed_out))
}

/// Step 1 of the ladder: may interval `t` stop waiting at `now`?
/// `present(i)` — node `i`'s frame is in; `expected(i)` — node `i` is
/// alive and has not signed off before `t`. `waiting` remembers when the
/// grace window of the interval being held opened.
fn wait_is_over(
    n: usize,
    present: impl Fn(usize) -> bool,
    expected: impl Fn(usize) -> bool,
    waiting: &mut Option<(u64, Instant)>,
    t: u64,
    now: Instant,
    grace: Duration,
) -> bool {
    if (0..n).all(&present) {
        return true;
    }
    if !(0..n).any(|i| !present(i) && expected(i)) {
        return true; // nobody left to wait for: degrade immediately
    }
    if !(0..n).any(&present) {
        // Declared (via Bye) but not one frame delivered yet: the grace
        // window opens at first arrival, not first visit. Liveness
        // deadlines and the run timeout still bound the wait.
        return false;
    }
    match *waiting {
        Some((wt, since)) if wt == t => now.duration_since(since) >= grace,
        _ => {
            *waiting = Some((t, now));
            false
        }
    }
}

fn none_row(n: usize) -> Vec<Option<NodeSlot>> {
    (0..n).map(|_| None).collect()
}

fn bump(config: &AggregatorConfig, f: impl FnOnce(&NetMetrics)) {
    if let Some(m) = &config.metrics {
        f(m);
    }
}

/// Walks one interval through recovery and the detector: `observed` is
/// the recycled `So(t)`, overwritten here.
fn emit_one(
    config: &AggregatorConfig,
    detector: &mut DetectStage,
    observed: &mut KarySketch,
    t: u64,
    row: Vec<Option<NodeSlot>>,
) -> Result<EmittedInterval, NetError> {
    let n = row.len();
    let rows = Arc::clone(observed.rows());
    observed.clear();
    let mut keys: Vec<u64> = Vec::new();
    let mut missing: Vec<u32> = Vec::new();
    let mut recovered: Vec<u32> = Vec::new();
    for m in 0..n {
        if let Some(slot) = &row[m] {
            // COMBINE straight from the blob's cells.
            wire::add_into(&slot.data, observed)?;
            keys.extend_from_slice(&slot.data_keys);
        } else if let Some(succ) = &row[(m + 1) % n] {
            // Recovery, the one place a blob is decoded: D_m = P_{m+1} −
            // D_{m+1}, exact for integer cells. Only an *originally
            // delivered* successor counts — a reconstructed node carries
            // no parity of its own, so two adjacent losses leave the
            // earlier one unrecoverable.
            let parity = wire::from_bytes_with_rows(&succ.parity, &rows)?;
            let data = wire::from_bytes_with_rows(&succ.data, &rows)?;
            let mut d = KarySketch::with_rows(Arc::clone(&rows));
            d.sub_into(&parity, &data)?;
            observed.add_scaled(&d, 1.0)?;
            keys.extend_from_slice(&succ.parity_keys);
            recovered.push(m as u32);
        } else {
            missing.push(m as u32);
        }
    }
    bump(config, |metrics| {
        if !missing.is_empty() {
            metrics.aggregator.partial_intervals_total.inc();
        } else if !recovered.is_empty() {
            metrics.aggregator.recovered_intervals_total.inc();
        } else {
            metrics.aggregator.full_intervals_total.inc();
        }
    });
    let before = detector.restarts();
    let report = detector.observe(&*observed, &keys)?;
    let after = detector.restarts();
    if after > before {
        bump(config, |m| {
            m.aggregator.detector_restarts_total.add(u64::from(after - before));
        });
    }
    Ok(EmittedInterval { interval: t, report, missing, recovered })
}

/// Sketch-family identity every node's `Hello` must match.
#[derive(Clone, Copy)]
struct Expect {
    nodes: u32,
    h: u64,
    k: u64,
    seed: u64,
}

/// One node connection: validate the handshake, then decode frames,
/// acking every interval at receipt. Any decode error, a mid-frame stall
/// or an undrained ack tears the connection down — the node's spool
/// machinery makes that safe.
fn serve_connection(
    mut stream: TcpStream,
    stop: &AtomicBool,
    tx: &SyncSender<Event>,
    rows: &Arc<HashRows>,
    expect: Expect,
    metrics: Option<&NetMetrics>,
) {
    let _ = stream.set_nodelay(true);
    let reject = || {
        if let Some(m) = metrics {
            m.aggregator.rejected_connections_total.inc();
        }
    };
    // The node speaks first: a connection that has not said a valid
    // `Hello` within one read timeout is not a node.
    let node = match Frame::read_from(&mut stream) {
        Ok(Frame::Hello { node, nodes, h, k, seed, version })
            if nodes == expect.nodes
                && node < expect.nodes
                && (h, k, seed) == (expect.h, expect.k, expect.seed)
                && version == VERSION =>
        {
            node
        }
        _ => return reject(),
    };
    if tx.send(Event::Seen { node }).is_err() {
        return;
    }
    loop {
        match Frame::read_from(&mut stream) {
            Ok(Frame::Interval { node: from, interval, data, data_keys, parity, parity_keys }) => {
                if from != node {
                    return reject();
                }
                // An embedded sketch blob — packed or dense, told apart
                // by its magic — that fails its own CRC, family or
                // cell-body check is treated like any corrupt frame. The
                // check writes no table: the slot keeps the bytes.
                if wire::validate_with_rows(&data, rows).is_err()
                    || wire::validate_with_rows(&parity, rows).is_err()
                {
                    return reject();
                }
                // Ack at receipt: the frame is intact and queued for the
                // plane, so the node may drop its spool copy.
                let ack = Frame::Ack { interval }.encode();
                if stream.write_all(&ack).is_err() {
                    return reject();
                }
                let slot = NodeSlot { data, data_keys, parity, parity_keys };
                if tx.send(Event::Interval { node, interval, slot }).is_err() {
                    return;
                }
            }
            Ok(Frame::Bye { node: from, intervals_total }) => {
                if from == node && tx.send(Event::Bye { node, total: intervals_total }).is_err() {
                    return;
                }
            }
            Ok(Frame::Hello { .. } | Frame::Ack { .. }) => return reject(),
            // Quiet between frames, for as long as the run lasts.
            Err(FrameError::Idle) if !stop.load(Ordering::Acquire) => {}
            Err(FrameError::Idle | FrameError::Closed) => return,
            Err(_) => return reject(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The grace window opens at an interval's first *frame*, never at a
    /// `Bye` declaration — decided on an injected clock, so no scheduler
    /// can race it.
    #[test]
    fn grace_opens_at_the_first_frame_not_at_the_declaration() {
        let grace = Duration::from_millis(20);
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut waiting = None;
        let all_expected = |_: usize| true;
        // Interval 0 is declared by a stale `Bye`; no frame has arrived.
        // Thousands of grace windows pass: still waiting, window unopened.
        for ms in [0, 19, 20, 21, 1_000, 60_000] {
            assert!(!wait_is_over(3, |_| false, all_expected, &mut waiting, 0, at(ms), grace));
            assert_eq!(waiting, None, "a declaration alone must not open the window");
        }
        // Node 1's frame lands at 60 s: the window opens there.
        let one_in = |i: usize| i == 1;
        assert!(!wait_is_over(3, one_in, all_expected, &mut waiting, 0, at(60_000), grace));
        assert_eq!(waiting, Some((0, at(60_000))));
        assert!(!wait_is_over(3, one_in, all_expected, &mut waiting, 0, at(60_019), grace));
        assert!(wait_is_over(3, one_in, all_expected, &mut waiting, 0, at(60_020), grace));
        // Everyone in, or nobody left to wait for, never waits at all.
        assert!(wait_is_over(3, |_| true, all_expected, &mut None, 0, at(0), grace));
        assert!(wait_is_over(3, one_in, |_| false, &mut None, 0, at(0), grace));
        assert!(wait_is_over(3, |_| false, |_| false, &mut None, 0, at(0), grace));
        // A window held for one interval does not carry over to the next.
        assert!(!wait_is_over(3, one_in, all_expected, &mut waiting, 1, at(70_000), grace));
        assert_eq!(waiting, Some((1, at(70_000))));
    }
}
