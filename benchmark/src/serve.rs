//! The serving plane under load: `serve-mixed` (paced writer beside an
//! open-loop reader; runnable, but not among the workloads the driver
//! gates), `serve-cold` (frozen plane, closed-loop unique reads), and the
//! short serve tail every batch workload ends with so that each workload
//! runs from trace bytes to an answered query.
//!
//! All three stand up what `scd serve` stands up: a 1-shard engine, a
//! `ServingPlane` as its observer and a `QueryServer` with the cache on.
//! `serve-mixed` runs it as `--pipeline` does (detect thread, background
//! rebuild); warm-ups and tails run it in order, see [`Mode`].

use crate::common::{peak_rss_mb, BoxResult, Checks, ChildArgs, CloseStamp, Intervals, Outcome};
use crate::gen::{SplitMix, Zipf, KEY_BASE};
use crate::probes;
use crate::span::{Span, Tracer, NO_INTERVAL};
use crate::spec::{KeyDist, Workload, ARCHIVE, INTERVAL_SECS};
use crate::stats::{median, pct_over, tail, tail_by_group};
use sketch_change::core::{
    segment_records, EngineConfig, IntervalObserver, IntervalReport, ShardedEngine,
};
use sketch_change::obs::Registry;
use sketch_change::serve::{
    QueryClient, QueryServer, RebuildMode, Request, Response, ServeMetrics, ServerOptions,
    ServingPlane,
};
use sketch_change::sketch::KarySketch;
use sketch_change::traffic::{io, KeySpec, ValueSpec};
use std::fs::File;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Writer pace of `serve-mixed`: one interval every 250 ms.
const PACE: Duration = Duration::from_millis(250);
/// Untimed leading intervals of `serve-mixed`.
const MIXED_WARM_INTERVALS: usize = 8;
/// Requests per second per connection in the open loop.
const RATE_PER_CLIENT: u64 = 1000;
/// Reader connections, open or closed loop.
const CLIENTS: usize = 2;
/// Pause between a warm-up poller's requests: the resolution of its
/// freshness samples.
const POLL_GAP: Duration = Duration::from_micros(100);
/// Length of a slice of a timed query section: a closed loop's rate is the
/// median over slices, and on a traced run spans are recorded in every
/// other slice so one run yields traced and untraced samples of one load.
const SLICE: Duration = Duration::from_millis(250);

pub const KINDS: [&str; 4] = ["estimate", "changed_keys", "key_history", "range_sketch"];

fn kind_of(req: &Request) -> usize {
    match req {
        Request::Estimate { .. } => 0,
        Request::ChangedKeys { .. } => 1,
        Request::KeyHistory { .. } => 2,
        Request::RangeSketch { .. } => 3,
    }
}

const SPAN_NAMES: [&str; 4] = [
    "serve.rtt.estimate",
    "serve.rtt.changed_keys",
    "serve.rtt.key_history",
    "serve.rtt.range_sketch",
];

fn as_of(resp: &Response) -> Option<u64> {
    match resp {
        Response::NoData { as_of, .. } | Response::Error { as_of, .. } => *as_of,
        Response::Estimate { as_of, .. }
        | Response::ChangedKeys { as_of, .. }
        | Response::KeyHistory { as_of, .. }
        | Response::RangeSketch { as_of, .. } => Some(*as_of),
    }
}

/// Reads and segments a trace the way `scd serve` does.
pub fn read_intervals(args: &ChildArgs) -> BoxResult<Intervals> {
    let records = io::read_binary(File::open(args.trace_path())?)?;
    Ok(segment_records(&records, INTERVAL_SECS, KeySpec::DstIp, ValueSpec::Bytes))
}

/// Keeps the first few `(report, error sketch)` pairs an engine hands its
/// observer, for the per-layer probes of a traced run.
#[derive(Debug, Default)]
pub struct Capture {
    pub closes: Mutex<Vec<(IntervalReport, usize, KarySketch)>>,
}

#[derive(Debug)]
struct Tee {
    stamp: Arc<CloseStamp>,
    capture: Arc<Capture>,
}

impl IntervalObserver for Tee {
    fn interval_closed(&self, report: &IntervalReport, error: Option<(usize, &KarySketch)>) {
        self.stamp.interval_closed(report, error);
        if let Some((t, err)) = error {
            let mut closes = self.capture.closes.lock().expect("capture lock poisoned");
            if closes.len() < 8 {
                closes.push((report.clone(), t, err.clone()));
            }
        }
    }

    fn flush(&self) {
        self.stamp.flush();
    }
}

/// How a rig runs detection and the view rebuild.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `scd serve --pipeline`: detect thread, background rebuild thread.
    Pipelined,
    /// `scd serve --sync-rebuild`: every step in order on the pushing
    /// thread. The plane it leaves is bit-identical to the pipelined one;
    /// what it measures is code rather than how five threads happened to
    /// land on two cores, which on the builder's box splits runs into a
    /// fast and a slow mode 40 % apart.
    InOrder,
}

/// What `scd serve` builds: engine, plane, query server.
pub struct Rig {
    pub engine: ShardedEngine,
    pub plane: Arc<ServingPlane>,
    pub server: QueryServer,
    pub stamp: Arc<CloseStamp>,
    pub epoch: Instant,
    /// Present on traced runs only, as `--metrics` would attach them.
    pub metrics: Option<Arc<ServeMetrics>>,
    pub capture: Arc<Capture>,
}

impl Rig {
    pub fn new(w: &Workload, intervals: usize, mode: Mode, traced: bool) -> BoxResult<Rig> {
        let registry = Registry::new();
        let metrics = traced.then(|| ServeMetrics::register(&registry));
        let rebuild = match mode {
            Mode::Pipelined => RebuildMode::Background,
            Mode::InOrder => RebuildMode::Inline,
        };
        let plane = ServingPlane::with_options(ARCHIVE, metrics.clone(), rebuild)?;
        let epoch = Instant::now();
        let stamp = CloseStamp::new(epoch, intervals, Some(Arc::clone(&plane)));
        let capture = Arc::new(Capture::default());
        let observer: Arc<dyn IntervalObserver> = if traced {
            Arc::new(Tee { stamp: Arc::clone(&stamp), capture: Arc::clone(&capture) })
        } else {
            Arc::clone(&stamp) as Arc<dyn IntervalObserver>
        };
        let mut config = EngineConfig::new(w.detector(), 1).with_observer(observer);
        if mode == Mode::Pipelined {
            config = config.with_pipeline();
        }
        if traced {
            // The fat archive `scd serve --out` keeps: the probes read it.
            config = config.with_archive(ARCHIVE);
        }
        let engine = ShardedEngine::new(config)?;
        let server = QueryServer::bind_with(
            "127.0.0.1:0",
            Arc::clone(&plane),
            metrics.clone(),
            ServerOptions::default(),
        )?;
        Ok(Rig { engine, plane, server, stamp, epoch, metrics, capture })
    }

    fn addr(&self) -> String {
        self.server.addr().to_string()
    }
}

/// Close and freshness samples of a warm-up replay.
#[derive(Debug, Default)]
pub struct WarmStats {
    pub close_ms: Vec<f64>,
    /// First byte pushed to report seen, per interval: what the write side
    /// was busy for.
    pub busy_ms: Vec<f64>,
    /// Empty unless the replay was polled.
    pub fresh_ms: Vec<f64>,
    pub records: u64,
    pub estimate_rtt_us: Vec<f64>,
}

impl WarmStats {
    /// Records per second of write-side busy time, from the median
    /// interval: a burst on a neighbour moves a few intervals, not this.
    pub fn records_per_s(&self) -> f64 {
        let per_interval = self.records as f64 / self.busy_ms.len().max(1) as f64;
        per_interval / (median(&self.busy_ms) / 1e3)
    }
}

/// One connection polling live estimates every 100 us beside a replay: the
/// first response whose `as_of` covers interval `t` dates its freshness.
struct Poller {
    first_seen: Arc<Vec<AtomicU64>>,
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<Result<Vec<f64>, String>>,
}

impl Poller {
    fn start(addr: String, epoch: Instant, intervals: usize) -> Poller {
        let first_seen: Arc<Vec<AtomicU64>> =
            Arc::new((0..intervals).map(|_| AtomicU64::new(0)).collect());
        let stop = Arc::new(AtomicBool::new(false));
        let hot_key = u64::from(KEY_BASE);
        let thread = {
            let (first_seen, stop) = (Arc::clone(&first_seen), Arc::clone(&stop));
            std::thread::spawn(move || -> Result<Vec<f64>, String> {
                let mut client = QueryClient::connect(&addr).map_err(|e| e.to_string())?;
                let req = Request::Estimate { key: hot_key, from: 0, to: 0 };
                let mut rtts = Vec::new();
                let mut next = 0usize;
                while !stop.load(Ordering::Acquire) {
                    let sent = Instant::now();
                    let resp = client.ask(&req).map_err(|e| e.to_string())?;
                    let got = Instant::now();
                    rtts.push((got - sent).as_nanos() as f64 / 1e3);
                    if let Some(t) = as_of(&resp) {
                        let ns = (got - epoch).as_nanos() as u64;
                        while next < first_seen.len() && next as u64 <= t {
                            // Release pairs with the Acquire in `finish`.
                            first_seen[next].store(ns.max(1), Ordering::Release);
                            next += 1;
                        }
                    }
                    // Back to back, the poller and its server thread would
                    // take both cores from the write side they are watching.
                    std::thread::sleep(POLL_GAP);
                }
                Ok(rtts)
            })
        };
        Poller { first_seen, stop, thread }
    }

    /// Waits (bounded) for the last interval to show, stops the thread and
    /// returns when each interval was first seen (nanoseconds after the
    /// epoch, 0: never) and the round-trip times.
    fn finish(self) -> BoxResult<(Vec<u64>, Vec<f64>)> {
        let deadline = Instant::now() + Duration::from_secs(10);
        let last_unseen = || self.first_seen.last().is_some_and(|s| s.load(Ordering::Acquire) == 0);
        while last_unseen() && Instant::now() < deadline {
            std::thread::sleep(POLL_GAP);
        }
        self.stop.store(true, Ordering::Release);
        let rtts = self.thread.join().map_err(|_| "poller panicked")??;
        Ok((self.first_seen.iter().map(|s| s.load(Ordering::Acquire)).collect(), rtts))
    }
}

/// Replays `intervals` into the rig back to back, as `scd serve` replays a
/// trace without `--pace-ms`; each interval yields one close sample. With
/// `poll` (traced runs) a connection polls live estimates beside it and
/// each interval also yields a push-to-queryable sample; untraced, nothing
/// runs beside the write side, whose close times are then those of the code
/// and not of a reader waking on the other core 10 000 times a second.
pub fn warm(
    rig: &mut Rig,
    intervals: &[Vec<(u64, f64)>],
    poll: bool,
    checks: &mut Checks,
) -> BoxResult<WarmStats> {
    let n = intervals.len();
    let poller = poll.then(|| Poller::start(rig.addr(), rig.epoch, n));
    let mut stats = WarmStats::default();
    let mut began_ns = vec![0u64; n];
    let mut pushed_ns = vec![0u64; n];
    for (t, items) in intervals.iter().enumerate() {
        began_ns[t] = rig.stamp.ns_since_epoch();
        rig.engine.push_slice(items)?;
        pushed_ns[t] = rig.stamp.ns_since_epoch();
        rig.engine.end_interval_overlapped()?;
        stats.records += items.len() as u64;
    }
    rig.engine.drain()?;
    // `drain` flushed the plane: every interval is queryable now.
    let covered = rig.plane.view().archive.coverage().map(|(_, hi)| hi);
    checks.attempt(covered == Some(n as u64), || {
        format!("warm-up: the view covers up to {covered:?} after {n} intervals")
    });
    let seen = match poller {
        Some(poller) => {
            let (seen, rtts) = poller.finish()?;
            stats.estimate_rtt_us = rtts;
            Some(seen)
        }
        None => None,
    };
    for t in 0..n {
        let closed = rig.stamp.closed_ns(t);
        let seen_ns = seen.as_ref().map(|s| s[t]);
        checks.attempt(closed != 0 && seen_ns != Some(0), || {
            format!("warm-up: interval {t} never became queryable")
        });
        if closed == 0 {
            continue;
        }
        stats.close_ms.push(closed.saturating_sub(pushed_ns[t]) as f64 / 1e6);
        stats.busy_ms.push(closed.saturating_sub(began_ns[t]) as f64 / 1e6);
        if let Some(seen_ns) = seen_ns.filter(|&ns| ns != 0) {
            stats.fresh_ms.push(seen_ns.saturating_sub(pushed_ns[t]) as f64 / 1e6);
        }
    }
    Ok(stats)
}

/// What one reader connection saw.
#[derive(Debug, Default)]
struct ClientLog {
    /// Latency of every timed request in microseconds: from due time in
    /// the open loop, from send in the closed loop.
    lat_us: Vec<f64>,
    /// The writer period each timed request was due in (0 with no writer).
    period: Vec<u32>,
    /// Closed loop: the [`SLICE`] of the timed section each response came
    /// in.
    slice: Vec<u32>,
    /// Send-to-response time per request kind.
    rtt_us: [Vec<f64>; 4],
    /// The same, split by whether the slice recorded spans.
    rtt_traced_us: Vec<f64>,
    rtt_untraced_us: Vec<f64>,
    late_ms: Vec<f64>,
    /// Start of the timed section to the last timed response.
    elapsed_s: f64,
    /// First time a response's `as_of` covered interval `t`.
    first_seen: Vec<Option<Instant>>,
    checks: Checks,
    sampled: Vec<(Request, Response)>,
    spans: Vec<Span>,
}

impl ClientLog {
    /// Books one timed exchange.
    fn book(&mut self, req: &Request, resp: &Response, last_as_of: &mut Option<u64>) {
        let ok = !matches!(resp, Response::Error { .. } | Response::NoData { .. });
        self.checks.attempt(ok, || format!("{req:?} answered {resp:?}"));
        let now = as_of(resp);
        self.checks.attempt(now >= *last_as_of, || {
            format!("as_of went back from {last_as_of:?} to {now:?} on one connection")
        });
        *last_as_of = now.max(*last_as_of);
    }
}

/// Sleeps until shortly before `due`, then yields until it: `sleep` alone
/// overshoots by the kernel's timer slack, which at 1000 q/s is a visible
/// share of a request's latency.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(150) {
            std::thread::sleep(left - Duration::from_micros(150));
        } else {
            std::thread::yield_now();
        }
    }
}

/// The request pool of `serve-mixed`: 32 windows inside the coverage the
/// warm-up intervals establish and 64 hot keys, so answers repeat within
/// one `as_of`.
struct MixedPool {
    windows: Vec<(u64, u64)>,
    keys: Zipf,
}

impl MixedPool {
    fn new() -> MixedPool {
        let hi = MIXED_WARM_INTERVALS as u64;
        let mut windows = Vec::new();
        for len in 1..=hi {
            for from in 0..=(hi - len) {
                windows.push((from, from + len));
            }
        }
        windows.truncate(32);
        MixedPool { windows, keys: Zipf::new(64, 1.1) }
    }

    fn request(&self, rng: &mut SplitMix) -> Request {
        let kind = rng.next_f64();
        let rank = self.keys.sample(rng.next_f64());
        let key = u64::from(KEY_BASE) + rank as u64;
        let (from, to) = self.windows[rng.below(self.windows.len() as u64) as usize];
        if kind < 0.40 {
            Request::Estimate { key, from: 0, to: 0 }
        } else if kind < 0.70 {
            Request::ChangedKeys { from, to, threshold: crate::spec::THRESHOLD }
        } else if kind < 0.85 {
            // Each hot key is asked about over one window of its own, so
            // a key's history is one answer per `as_of`, not thirty-two.
            let (from, to) = self.windows[rank % self.windows.len()];
            Request::KeyHistory { key, from, to }
        } else {
            Request::RangeSketch { from, to }
        }
    }
}

/// One open-loop connection: request `i` is due `i` ms after `start` and
/// is timed from then, whether or not the previous answer had arrived. The
/// generator's own timer overshoot is taken out and reported as lateness:
/// on this kind of VM a sleep can wake 100 us late, several times the
/// round trip being measured.
fn mixed_client(
    addr: String,
    c: usize,
    seed: u64,
    epoch: Instant,
    start: Instant,
    intervals: usize,
    traced: bool,
) -> Result<ClientLog, String> {
    let pool = MixedPool::new();
    let mut rng = SplitMix::new(seed ^ (0xC11E57 + c as u64));
    let mut client = QueryClient::connect(&addr).map_err(|e| e.to_string())?;
    let mut log = ClientLog { first_seen: vec![None; intervals], ..ClientLog::default() };
    let mut tracer = Tracer::new(epoch, false);
    let timed_from = start + PACE * MIXED_WARM_INTERVALS as u32;
    let end = start + PACE * intervals as u32;
    let gap = Duration::from_nanos(1_000_000_000 / RATE_PER_CLIENT);
    let offset = gap * c as u32 / CLIENTS as u32;
    let mut last_as_of = None;
    let mut next_t = 0usize;
    let mut prev_got = start;
    for i in 0u32.. {
        let due = start + offset + gap * i;
        if due >= end {
            break;
        }
        wait_until(due);
        let req = pool.request(&mut rng);
        let sent = Instant::now();
        // How late the generator itself ran: past the due time, and not
        // because the previous answer was still out.
        let overshoot = sent - due.max(prev_got).min(sent);
        let resp = client.ask(&req).map_err(|e| e.to_string())?;
        let got = Instant::now();
        prev_got = got;
        if let Some(t) = as_of(&resp) {
            while next_t < intervals && next_t as u64 <= t {
                log.first_seen[next_t] = Some(got);
                next_t += 1;
            }
        }
        if due < timed_from {
            continue;
        }
        let slice_traced =
            traced && ((due - start).as_millis() / SLICE.as_millis()).is_multiple_of(2);
        tracer.set_on(slice_traced);
        tracer.record(SPAN_NAMES[kind_of(&req)], sent, got);
        let rtt = (got - sent).as_nanos() as f64 / 1e3;
        log.lat_us.push((got - due - overshoot).as_nanos() as f64 / 1e3);
        log.period.push(((due - start).as_nanos() / PACE.as_nanos()) as u32);
        log.late_ms.push(overshoot.as_nanos() as f64 / 1e6);
        log.elapsed_s = (got - timed_from).as_secs_f64();
        log.rtt_us[kind_of(&req)].push(rtt);
        if slice_traced { &mut log.rtt_traced_us } else { &mut log.rtt_untraced_us }.push(rtt);
        log.book(&req, &resp, &mut last_as_of);
    }
    log.spans = tracer.spans;
    Ok(log)
}

/// The unique-request stream of one closed-loop connection: of every
/// twelve requests eight are `changed_keys`, three `key_history` and one
/// `range_sketch`, and window, threshold and key never repeat. A
/// `range_sketch` is identified by its window alone and 64 epochs hold only
/// ~2 000 windows, so that kind is rationed to one in twelve: at 25 % the
/// windows would come round within seconds and (the cache evicting the
/// same few slots over and over) a tenth of all lookups would hit.
struct ColdRequests {
    windows: Vec<(u64, u64)>,
    universe: u64,
    n: u64,
    c: u64,
}

impl ColdRequests {
    fn new(coverage: (u64, u64), universe: u64, seed: u64, c: usize) -> ColdRequests {
        let (lo, hi) = coverage;
        let mut all = Vec::new();
        for from in lo..hi {
            for to in (from + 1)..=hi {
                all.push((from, to));
            }
        }
        // Fisher-Yates, then each connection takes every other window.
        let mut rng = SplitMix::new(seed ^ 0xC01D);
        for i in (1..all.len()).rev() {
            all.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let windows: Vec<(u64, u64)> = if all.len() >= 2 * CLIENTS {
            all.into_iter().skip(c).step_by(CLIENTS).collect()
        } else {
            all
        };
        ColdRequests { windows, universe, n: 0, c: c as u64 }
    }

    fn next(&mut self) -> Request {
        let n = self.n;
        self.n += 1;
        let unique = n * CLIENTS as u64 + self.c;
        let window = |i: u64| self.windows[(i % self.windows.len() as u64) as usize];
        if n % 12 == 11 {
            let (from, to) = window(n / 12);
            Request::RangeSketch { from, to }
        } else if n % 3 == 2 {
            let (from, to) = window(n);
            Request::KeyHistory {
                key: u64::from(KEY_BASE) + unique.wrapping_mul(7919) % self.universe,
                from,
                to,
            }
        } else {
            let (from, to) = window(n);
            Request::ChangedKeys {
                from,
                to,
                threshold: crate::spec::THRESHOLD + unique as f64 * 1e-9,
            }
        }
    }
}

/// One closed-loop connection: the next request goes out when the
/// previous answer is in. Every hundredth exchange is kept for the
/// frozen-view comparison.
fn cold_client(
    addr: String,
    mut requests: ColdRequests,
    c: usize,
    epoch: Instant,
    warmup: Duration,
    timed: Duration,
    traced: bool,
) -> Result<ClientLog, String> {
    let mut client = QueryClient::connect(&addr).map_err(|e| e.to_string())?;
    let mut log = ClientLog::default();
    let mut tracer = Tracer::new(epoch, false);
    let start = Instant::now();
    let timed_from = start + warmup;
    let end = timed_from + timed;
    let mut last_as_of = None;
    let mut i = 0u64;
    loop {
        let req = requests.next();
        let sent = Instant::now();
        if sent >= end {
            break;
        }
        let resp = client.ask(&req).map_err(|e| e.to_string())?;
        let got = Instant::now();
        if sent < timed_from {
            continue;
        }
        let slice_traced =
            traced && ((sent - start).as_millis() / SLICE.as_millis()).is_multiple_of(2);
        tracer.set_on(slice_traced);
        tracer.record(SPAN_NAMES[kind_of(&req)], sent, got);
        let rtt = (got - sent).as_nanos() as f64 / 1e3;
        log.lat_us.push(rtt);
        log.period.push(0);
        log.slice.push(((got - timed_from).as_nanos() / SLICE.as_nanos()) as u32);
        log.elapsed_s = (got - timed_from).as_secs_f64();
        log.rtt_us[kind_of(&req)].push(rtt);
        if slice_traced { &mut log.rtt_traced_us } else { &mut log.rtt_untraced_us }.push(rtt);
        log.book(&req, &resp, &mut last_as_of);
        if (i + c as u64).is_multiple_of(100) {
            log.sampled.push((req, resp));
        }
        i += 1;
    }
    log.spans = tracer.spans;
    Ok(log)
}

/// The merged view of all reader connections.
#[derive(Debug, Default)]
pub struct QueryStats {
    pub lat_us: Vec<f64>,
    pub period: Vec<u32>,
    slice: Vec<u32>,
    pub rtt_us: [Vec<f64>; 4],
    pub rtt_traced_us: Vec<f64>,
    pub rtt_untraced_us: Vec<f64>,
    pub late_ms: Vec<f64>,
    pub elapsed_s: f64,
    pub spans: Vec<(String, Vec<Span>)>,
}

impl QueryStats {
    fn absorb(&mut self, c: usize, log: ClientLog, checks: &mut Checks) -> ClientLog {
        self.lat_us.extend_from_slice(&log.lat_us);
        self.period.extend_from_slice(&log.period);
        self.slice.extend_from_slice(&log.slice);
        for k in 0..4 {
            self.rtt_us[k].extend_from_slice(&log.rtt_us[k]);
        }
        self.rtt_traced_us.extend_from_slice(&log.rtt_traced_us);
        self.rtt_untraced_us.extend_from_slice(&log.rtt_untraced_us);
        self.late_ms.extend_from_slice(&log.late_ms);
        self.elapsed_s = self.elapsed_s.max(log.elapsed_s);
        self.spans.push((format!("client-{c}"), log.spans.clone()));
        checks.attempted += log.checks.attempted;
        checks.failed += log.checks.failed;
        checks.failures.extend(log.checks.failures.iter().take(5).cloned());
        log
    }

    /// Completed requests per second. Closed loop: the median over the
    /// 250 ms slices of the timed section (the last, partial one left out),
    /// so a burst on a neighbour moves a few slices, not the rate. Open
    /// loop: the achieved rate over the whole section.
    pub fn qps(&self) -> f64 {
        let Some(&last) = self.slice.iter().max().filter(|&&last| last > 0) else {
            return self.lat_us.len() as f64 / self.elapsed_s;
        };
        let mut counts = vec![0.0f64; last as usize];
        for &s in self.slice.iter().filter(|&&s| s < last) {
            counts[s as usize] += 1.0;
        }
        median(&counts) / SLICE.as_secs_f64()
    }

    /// Median send-to-response time in span-recording slices over the
    /// others, as a percentage: what tracing costs this workload.
    pub fn trace_overhead_pct(&self) -> f64 {
        if self.rtt_traced_us.is_empty() || self.rtt_untraced_us.is_empty() {
            return 0.0;
        }
        pct_over(median(&self.rtt_traced_us), median(&self.rtt_untraced_us))
    }
}

/// Runs the closed loop against a frozen plane and checks a sample of the
/// answers against `scd_serve::answer` on that same view.
pub fn cold_queries(
    rig: &Rig,
    w: &Workload,
    seed: u64,
    warmup: Duration,
    timed: Duration,
    traced: bool,
    checks: &mut Checks,
) -> BoxResult<QueryStats> {
    let view = rig.plane.view();
    let coverage = view.archive.coverage().ok_or("the warmed plane holds no epochs")?;
    let universe = match w.keys {
        KeyDist::Zipf { universe, .. } => u64::from(universe),
        KeyDist::Uniform { bits } => 1 << bits,
    };
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let requests = ColdRequests::new(coverage, universe, seed, c);
            let (addr, epoch) = (rig.addr(), rig.epoch);
            std::thread::spawn(move || cold_client(addr, requests, c, epoch, warmup, timed, traced))
        })
        .collect();
    let mut stats = QueryStats::default();
    for (c, h) in handles.into_iter().enumerate() {
        let log = h.join().map_err(|_| "reader panicked")??;
        let log = stats.absorb(c, log, checks);
        for (req, resp) in &log.sampled {
            let want = sketch_change::serve::answer(&view, req);
            checks.attempt(*resp == want, || {
                format!("{req:?}: served answer differs from the frozen view's")
            });
        }
    }
    Ok(stats)
}

/// What a warmed-then-queried plane leaves behind for the probes.
pub struct Served {
    pub rig: Rig,
    pub warm: WarmStats,
    pub queries: QueryStats,
}

/// The timings that follow the scheduler rather than the code on a small
/// box: reported by traced runs, without a bound.
pub fn put_unbounded(out: &mut Outcome, close_ms: &[f64], served: &Served) {
    let (fresh_ms, lat_us) = (&served.warm.fresh_ms, &served.queries.lat_us);
    out.put("close_ms_p50", median(close_ms), close_ms.len());
    out.put("close_ms_p99", tail(close_ms).0, close_ms.len());
    out.put("query_p50_us", median(lat_us), lat_us.len());
    out.put("fresh_ms_p50", median(fresh_ms), fresh_ms.len());
}

/// The serve tail of a batch workload: the first [`TAIL_INTERVALS`] of its
/// own intervals through `scd serve`'s plane, then a third of `--seconds`
/// of `serve-cold`'s loop. Yields the query cell the workload has no events
/// for in its timed section and, on a traced run, the query-latency and
/// freshness numbers (for `fanin-2node` the close numbers too).
pub fn tail_fill(
    args: &ChildArgs,
    intervals: &Intervals,
    seed: u64,
    out: &mut Outcome,
) -> BoxResult<Served> {
    let w = &args.workload;
    let n = crate::spec::TAIL_INTERVALS.min(intervals.len());
    let mut rig = Rig::new(w, n, Mode::InOrder, args.traced)?;
    let warm = warm(&mut rig, &intervals[..n], args.traced, &mut out.checks)?;
    let timed = Duration::from_secs_f64(args.tail_seconds());
    let queries = cold_queries(
        &rig,
        w,
        seed,
        Duration::from_millis(200),
        timed,
        args.traced,
        &mut out.checks,
    )?;
    if !args.traced {
        out.put("query_qps", queries.qps(), queries.lat_us.len());
    }
    Ok(Served { rig, warm, queries })
}

/// Per-layer numbers every served plane yields on a traced run.
pub fn put_serve_layers(
    args: &ChildArgs,
    out: &mut Outcome,
    served: &mut Served,
    with_estimate_rtt: bool,
) {
    let q = &served.queries;
    for (k, kind) in KINDS.iter().enumerate() {
        let rtts =
            if k == 0 && with_estimate_rtt { &served.warm.estimate_rtt_us } else { &q.rtt_us[k] };
        if !rtts.is_empty() {
            out.put(&format!("serve.rtt_us_p50.{kind}"), median(rtts), rtts.len());
        }
    }
    if !q.lat_us.is_empty() {
        out.put("serve.query_tail_us", tail_by_group(&q.lat_us, &q.period), q.lat_us.len());
    }
    if let Some(m) = &served.rig.metrics {
        let (hits, misses) = (m.cache_hits.get() as f64, m.cache_misses.get() as f64);
        out.put("serve.cache_hit_ratio", hits / (hits + misses).max(1.0), (hits + misses) as usize);
        out.put("serve.coalesced", m.coalesced_total.get() as f64, 1);
        out.put("serve.query_errors", m.query_errors.get() as f64, 1);
        out.put("serve.view_bytes", m.view_bytes.get(), 1);
    }
    probes::serve_layers(args, out, served);
    // The fat archive `scd serve --out` keeps.
    if let Some(archive) = served.rig.engine.take_archive() {
        probes::archive_layers(out, &archive);
    }
}

/// `serve-cold`: warm a plane with the whole trace, freeze it, read it.
pub fn run_cold(args: &ChildArgs, seed: u64) -> BoxResult<Outcome> {
    let w = &args.workload;
    let mut out = Outcome::default();
    let read_start = Instant::now();
    let intervals = read_intervals(args)?;
    let read_s = read_start.elapsed().as_secs_f64();
    // Warm a fresh plane five times and keep the last: set-up time is the
    // median, and the ingest cells pool five replays' samples.
    let mut warm_s = Vec::new();
    let mut pooled = WarmStats::default();
    let mut rig = None;
    for _ in 0..if args.smoke { 1 } else { 5 } {
        drop(rig.take());
        let warm_start = Instant::now();
        let mut fresh_rig = Rig::new(w, intervals.len(), Mode::InOrder, args.traced)?;
        let warm = warm(&mut fresh_rig, &intervals, args.traced, &mut out.checks)?;
        warm_s.push(warm_start.elapsed().as_secs_f64());
        pooled.records += warm.records;
        pooled.close_ms.extend(warm.close_ms);
        pooled.busy_ms.extend(warm.busy_ms);
        pooled.fresh_ms.extend(warm.fresh_ms);
        pooled.estimate_rtt_us.extend(warm.estimate_rtt_us);
        rig = Some(fresh_rig);
    }
    let (rig, warm) = (rig.expect("warmed at least once"), pooled);
    out.warm_s = read_s + median(&warm_s);
    let scale = if args.smoke { 0.1 } else { 1.0 };
    let timed = Duration::from_secs_f64(args.seconds * scale);
    let warmup = Duration::from_secs_f64(scale);
    let queries = cold_queries(&rig, w, seed, warmup, timed, args.traced, &mut out.checks)?;
    let rss = peak_rss_mb();
    let mut served = Served { rig, warm, queries };
    if args.traced {
        put_unbounded(&mut out, &served.warm.close_ms, &served);
        put_serve_layers(args, &mut out, &mut served, true);
        out.put(
            "trace.overhead_pct",
            served.queries.trace_overhead_pct(),
            served.queries.rtt_traced_us.len(),
        );
        probes::common_layers(args, &mut out, &intervals);
        write_spans(args, &served)?;
    } else {
        let (w, q) = (&served.warm, &served.queries);
        out.put("query_qps", q.qps(), q.lat_us.len());
        out.put("records_per_s", w.records_per_s(), w.busy_ms.len());
        out.put("peak_rss_mb", rss, 1);
    }
    Ok(out)
}

fn write_spans(args: &ChildArgs, served: &Served) -> BoxResult<()> {
    let threads: Vec<(&str, &[Span])> = served
        .queries
        .spans
        .iter()
        .map(|(name, spans)| (name.as_str(), spans.as_slice()))
        .collect();
    crate::common::write_span_file(args, &threads)?;
    Ok(())
}

/// `serve-mixed`: the writer pushes one interval every 250 ms while two
/// connections read on a fixed 1000 q/s schedule each.
pub fn run_mixed(args: &ChildArgs, seed: u64) -> BoxResult<Outcome> {
    let w = &args.workload;
    let mut out = Outcome::default();
    let warm_start = Instant::now();
    let intervals = read_intervals(args)?;
    let n = intervals.len();
    let mut rig = Rig::new(w, n, Mode::Pipelined, args.traced)?;
    out.warm_s = warm_start.elapsed().as_secs_f64();

    let start = Instant::now() + Duration::from_millis(20);
    let readers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let (addr, epoch, traced) = (rig.addr(), rig.epoch, args.traced);
            std::thread::spawn(move || mixed_client(addr, c, seed, epoch, start, n, traced))
        })
        .collect();

    let mut tracer = Tracer::new(rig.epoch, args.traced);
    let mut pushed: Vec<(Instant, Instant)> = Vec::with_capacity(n);
    for (t, items) in intervals.iter().enumerate() {
        wait_until(start + PACE * t as u32);
        let began = Instant::now();
        tracer.span("engine.push", t as i64, |_| rig.engine.push_slice(items))?;
        pushed.push((began, Instant::now()));
        tracer.span("engine.close", t as i64, |_| rig.engine.end_interval_overlapped())?;
    }
    tracer.span("engine.close", NO_INTERVAL, |_| rig.engine.drain())?;

    let mut queries = QueryStats::default();
    let mut first_seen: Vec<Option<Instant>> = vec![None; n];
    for (c, h) in readers.into_iter().enumerate() {
        let log = h.join().map_err(|_| "reader panicked")??;
        let log = queries.absorb(c, log, &mut out.checks);
        for (t, seen) in log.first_seen.iter().enumerate() {
            first_seen[t] = match (first_seen[t], *seen) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
        }
    }
    let rss = peak_rss_mb();

    let (mut close_ms, mut fresh_ms, mut busy_s, mut records) = (Vec::new(), Vec::new(), 0.0, 0u64);
    // The last interval's report arrives with `drain`, after the readers'
    // schedule has ended, so nothing can observe its freshness.
    for t in MIXED_WARM_INTERVALS..n - 1 {
        let (began, done) = pushed[t];
        let closed_ns = rig.stamp.closed_ns(t);
        out.checks.attempt(closed_ns != 0 && first_seen[t].is_some(), || {
            format!("interval {t} was never reported or never became queryable")
        });
        let (Some(seen), true) = (first_seen[t], closed_ns != 0) else { continue };
        let closed = rig.epoch + Duration::from_nanos(closed_ns);
        close_ms.push(closed.saturating_duration_since(done).as_secs_f64() * 1e3);
        fresh_ms.push(seen.saturating_duration_since(done).as_secs_f64() * 1e3);
        busy_s += closed.saturating_duration_since(began).as_secs_f64();
        records += intervals[t].len() as u64;
    }

    let warm = WarmStats { close_ms, fresh_ms, ..WarmStats::default() };
    let mut served = Served { rig, warm, queries };
    if args.traced {
        let push_ns: u64 =
            tracer.spans.iter().filter(|s| s.name == "engine.push").map(Span::dur_ns).sum();
        let close_ns: u64 =
            tracer.spans.iter().filter(|s| s.name == "engine.close").map(Span::dur_ns).sum();
        out.put("engine.push_s", push_ns as f64 / 1e9, n);
        out.put(
            "engine.push_ns_per_record",
            push_ns as f64 / (n * w.records_per_interval) as f64,
            n,
        );
        out.put("engine.close_s", close_ns as f64 / 1e9, n);
        out.put("engine.records_total", served.rig.engine.records_total() as f64, 1);
        put_unbounded(&mut out, &served.warm.close_ms, &served);
        put_serve_layers(args, &mut out, &mut served, false);
        let late = tail(&served.queries.late_ms);
        out.put("loadgen.late_ms_p99", late.0, served.queries.late_ms.len());
        out.put(
            "trace.overhead_pct",
            served.queries.trace_overhead_pct(),
            served.queries.rtt_traced_us.len(),
        );
        probes::common_layers(args, &mut out, &intervals);
        let mut threads: Vec<(&str, &[Span])> = vec![("writer", &tracer.spans)];
        threads.extend(served.queries.spans.iter().map(|(n, s)| (n.as_str(), s.as_slice())));
        crate::common::write_span_file(args, &threads)?;
    } else {
        let (close_ms, q) = (&served.warm.close_ms, &served.queries);
        out.put("query_qps", q.qps(), q.lat_us.len());
        out.put("records_per_s", records as f64 / busy_s, close_ms.len());
        out.put("peak_rss_mb", rss, 1);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_requests_do_not_repeat() {
        let mut seen = std::collections::HashSet::new();
        for c in 0..CLIENTS {
            let mut reqs = ColdRequests::new((1, 64), 50_000, 9, c);
            for _ in 0..12_000 {
                let req = reqs.next();
                assert!(seen.insert(format!("{req:?}")), "repeated {req:?}");
            }
        }
    }

    #[test]
    fn a_closed_loops_rate_is_its_median_slice() {
        let mut q = QueryStats::default();
        // Four full slices of 10, 10, 2 and 10 responses, then a partial one.
        for (slice, n) in [(0, 10), (1, 10), (2, 2), (3, 10), (4, 3)] {
            q.slice.extend(std::iter::repeat_n(slice, n));
            q.lat_us.extend(std::iter::repeat_n(1.0, n));
        }
        q.elapsed_s = 1.1;
        assert_eq!(q.qps(), 10.0 / SLICE.as_secs_f64());
        // An open loop books no slices: its rate is the achieved one.
        let open = QueryStats { lat_us: vec![1.0; 22], elapsed_s: 1.1, ..QueryStats::default() };
        assert!((open.qps() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn mixed_pool_has_32_windows_inside_the_warm_coverage() {
        let pool = MixedPool::new();
        assert_eq!(pool.windows.len(), 32);
        let hi = MIXED_WARM_INTERVALS as u64;
        assert!(pool.windows.iter().all(|&(from, to)| from < to && to <= hi));
    }
}
