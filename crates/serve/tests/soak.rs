//! Mixed ingest + query soak: the serving plane must be a pure
//! *observer* — attaching it changes no detection output — and every
//! answer it serves, live or historical, must match what offline
//! analysis of the same interval's state computes.
//!
//! Three layers of proof:
//!
//! 1. **Observer transparency** — for all six forecast models, in both
//!    sequential and pipelined engine modes, the [`IntervalReport`]
//!    stream with the serving plane attached is `==` (and the f64 fields
//!    bit-identical, via `PartialEq` on exact values) to the stream
//!    without it.
//! 2. **Replica fidelity** — after a full run, the final published
//!    view's replica archive answers `range_sketch` / `key_history` /
//!    `changed_keys` bit-identically to the engine's own archive.
//! 3. **Interval consistency under concurrency** — query threads hammer
//!    a live [`QueryServer`] over TCP *while* the main thread ingests;
//!    every answer is keyed by its `as_of` interval and re-derived from
//!    that interval's reference snapshot: a reader must see exactly one
//!    interval's world, never a torn mix.

use scd_archive::ArchiveConfig;
use scd_core::{
    DetectorConfig, EngineConfig, IntervalObserver, IntervalReport, KeyStrategy, ShardedEngine,
};
use scd_forecast::ModelSpec;
use scd_serve::{
    answer, QueryClient, QueryServer, RebuildMode, Request, Response, ServerOptions, ServingPlane,
    ServingView,
};
use scd_sketch::{KarySketch, SketchConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

const INTERVALS: u64 = 24;
const KEYS: u64 = 40;

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Deterministic synthetic traffic: steady integer volumes per key, with
/// a burst on key 7 over intervals 12..14 so `changed_keys` has
/// something to find. Integer values keep every sketch register exact.
fn updates(t: u64) -> Vec<(u64, f64)> {
    let mut out = Vec::with_capacity(KEYS as usize);
    for key in 0..KEYS {
        let mut v = (splitmix64(key.wrapping_mul(0x51D) ^ t) % 500 + 100) as f64;
        if key == 7 && (12..14).contains(&t) {
            v += 50_000.0;
        }
        out.push((key, v));
    }
    out
}

fn detector(model: ModelSpec) -> DetectorConfig {
    DetectorConfig {
        sketch: SketchConfig { h: 3, k: 512, seed: 0x5CD },
        model,
        threshold: 0.2,
        key_strategy: KeyStrategy::TwoPass,
    }
}

fn archive_cfg() -> ArchiveConfig {
    ArchiveConfig { max_sketches: 12, full_resolution: 4, keys_per_epoch: 16 }
}

/// Replays the synthetic trace; returns the full report stream.
fn run_engine(
    model: ModelSpec,
    pipelined: bool,
    observer: Option<Arc<dyn IntervalObserver>>,
) -> (Vec<IntervalReport>, ShardedEngine) {
    let mut config = EngineConfig::new(detector(model), 2).with_archive(archive_cfg());
    if pipelined {
        config = config.with_pipeline();
    }
    if let Some(obs) = observer {
        config = config.with_observer(obs);
    }
    let mut engine = ShardedEngine::new(config).expect("engine");
    let mut reports = Vec::new();
    for t in 0..INTERVALS {
        engine.push_slice(&updates(t)).expect("push");
        if pipelined {
            if let Some(r) = engine.end_interval_overlapped().expect("cut") {
                reports.push(r);
            }
        } else {
            reports.push(engine.end_interval().expect("cut"));
        }
    }
    if pipelined {
        if let Some(r) = engine.drain().expect("drain") {
            reports.push(r);
        }
    }
    (reports, engine)
}

const MODELS: [&str; 6] =
    ["ma:4", "sma:4", "ewma:0.5", "nshw:0.6:0.2", "shw:0.5:0.2:0.1:6", "arima0:0.7,-0.1/0.3"];

/// Layer 1: the serving plane is observation-only. For every model, in
/// both engine modes, report streams with and without the plane attached
/// are equal — `IntervalReport` compares its f64 fields exactly, so this
/// is bit-identity of the detection output. The pipelined runs attach a
/// [`RebuildMode::Background`] plane so the off-thread rebuild handoff
/// is covered too.
#[test]
fn reports_bit_identical_with_serving_on_and_off() {
    for spec in MODELS {
        let model = ModelSpec::parse(spec).expect("model spec");
        for pipelined in [false, true] {
            let (bare, _) = run_engine(model.clone(), pipelined, None);
            let mode = if pipelined { RebuildMode::Background } else { RebuildMode::Inline };
            let plane = ServingPlane::with_options(archive_cfg(), None, mode).expect("plane");
            let observer: Arc<dyn IntervalObserver> = Arc::clone(&plane) as _;
            let (observed, _) = run_engine(model.clone(), pipelined, Some(observer));
            assert_eq!(
                bare, observed,
                "report stream diverged with serving attached ({spec}, pipelined={pipelined})"
            );
            assert_eq!(bare.len(), INTERVALS as usize, "lost reports ({spec})");
        }
    }
}

/// Widens a slim f32 table so it can be compared against the fat f64 one.
fn widened(table: &[f32]) -> Vec<f64> {
    table.iter().map(|&c| f64::from(c)).collect()
}

/// Layer 2: the final view's replica archive answers historical queries
/// bit-identically to the engine's own archive — the property that lets
/// CI diff `scd ask` against offline `scd query`. `ma:1` (last-value
/// forecast) keeps every forecast error an integer far below 2^24, so
/// the slim f32 cells widen back to exactly the fat f64 registers and
/// every downstream number is computed by identical f64 arithmetic.
#[test]
fn final_view_matches_engine_archive_bit_for_bit() {
    let model = ModelSpec::parse("ma:1").unwrap();
    let plane =
        ServingPlane::with_options(archive_cfg(), None, RebuildMode::Inline).expect("plane");
    let observer: Arc<dyn IntervalObserver> = Arc::clone(&plane) as _;
    let (_, mut engine) = run_engine(model, true, Some(observer));
    let offline = engine.take_archive().expect("engine archive");
    let view = plane.view();

    assert_eq!(view.archive.coverage(), offline.coverage());
    assert_eq!(view.archive.sketch_count(), offline.sketch_count());
    let (lo, hi) = offline.coverage().expect("covered");

    // Whole-window and sub-window range sketches: identical registers
    // (after widening), identical maintained totals, and an envelope
    // that certifies the exactness the register equality shows.
    for (from, to) in [(lo, hi), (lo + 1, hi - 1), (10, 16)] {
        let served = view.archive.range_sketch(from, to).expect("served range");
        let direct = offline.range_sketch(from, to).expect("offline range");
        assert_eq!(served.covered, direct.covered);
        assert_eq!(served.epochs_used, direct.epochs_used);
        let slim = served.sketch.get();
        assert_eq!(widened(slim.table()), direct.sketch.table());
        assert_eq!(slim.sum().to_bits(), direct.sketch.sum().to_bits());
        assert!(slim.error_bound() >= 0.0);
    }

    // Change ranking over the burst window: same keys, same magnitudes.
    let served = view.archive.changed_keys(10, 16, 0.2, &[]).expect("served changes");
    let direct = offline.changed_keys(10, 16, 0.2, &[]).expect("offline changes");
    assert_eq!(served.error_f2.to_bits(), direct.error_f2.to_bits());
    assert_eq!(served.changes.len(), direct.changes.len());
    assert!(served.changes.iter().any(|c| c.key == 7), "burst key missing");
    for (s, d) in served.changes.iter().zip(&direct.changes) {
        assert_eq!(s.key, d.key);
        assert_eq!(s.magnitude.to_bits(), d.magnitude.to_bits());
    }

    // Per-key history of the burst victim: identical points.
    let served = view.archive.key_history(7, lo, hi).expect("served history");
    let direct = offline.key_history(7, lo, hi).expect("offline history");
    assert_eq!(served.len(), direct.len());
    for (s, d) in served.iter().zip(&direct) {
        assert_eq!((s.start, s.len), (d.start, d.len));
        assert_eq!(s.total.to_bits(), d.total.to_bits());
        assert_eq!(s.mean.to_bits(), d.mean.to_bits());
    }
}

/// Layer 2, fractional regime: `ewma:0.5` error sketches hold dyadic
/// values whose low bits fall off the f32 mantissa, so slim answers are
/// *not* bit-identical — but every divergence must stay inside the
/// [`error_bound`](scd_serve::SlimSketch::error_bound) envelope the slim
/// sketch composed across its buddy merges.
#[test]
fn fractional_model_answers_stay_within_slim_error_bound() {
    let model = ModelSpec::parse("ewma:0.5").unwrap();
    let plane =
        ServingPlane::with_options(archive_cfg(), None, RebuildMode::Inline).expect("plane");
    let observer: Arc<dyn IntervalObserver> = Arc::clone(&plane) as _;
    let (_, mut engine) = run_engine(model, true, Some(observer));
    let offline = engine.take_archive().expect("engine archive");
    let view = plane.view();
    let (lo, hi) = offline.coverage().expect("covered");

    for (from, to) in [(lo, hi), (10, 16)] {
        let served = view.archive.range_sketch(from, to).expect("served range");
        let direct = offline.range_sketch(from, to).expect("offline range");
        let slim = served.sketch.get();
        let bound = slim.error_bound();
        // The envelope is meaningful: positive (rounding really happens)
        // yet far below the burst magnitude it must not drown out.
        assert!(bound > 0.0, "fractional cells must carry a nonzero envelope");
        assert!(bound < 100.0, "envelope uselessly loose: {bound}");
        // Maintained totals never pass through f32 — still bit-exact.
        assert_eq!(slim.sum().to_bits(), direct.sketch.sum().to_bits());
        for key in 0..KEYS {
            let s = slim.estimate(key);
            let d = direct.sketch.estimate(key);
            assert!(
                (s - d).abs() <= bound,
                "estimate[{key}] over [{from}, {to}): slim {s} vs fat {d} exceeds bound {bound}"
            );
        }
    }

    // Change ranking: the burst key must survive the f32 projection, and
    // shared keys' magnitudes must agree within the window's envelope.
    let served = view.archive.changed_keys(10, 16, 0.2, &[]).expect("served changes");
    let direct = offline.changed_keys(10, 16, 0.2, &[]).expect("offline changes");
    let bound = view.archive.range_sketch(10, 16).expect("range").sketch.get().error_bound();
    assert!(served.changes.iter().any(|c| c.key == 7), "burst key missing from slim answer");
    assert!(direct.changes.iter().any(|c| c.key == 7), "burst key missing from fat answer");
    let direct_by_key: std::collections::HashMap<u64, f64> =
        direct.changes.iter().map(|c| (c.key, c.magnitude)).collect();
    for s in &served.changes {
        if let Some(&d) = direct_by_key.get(&s.key) {
            assert!(
                (s.magnitude - d).abs() <= bound,
                "changed key {}: slim {} vs fat {d} exceeds bound {bound}",
                s.key,
                s.magnitude
            );
        }
    }
    let f2_rel = (served.error_f2 - direct.error_f2).abs() / direct.error_f2.max(1.0);
    assert!(f2_rel < 1e-4, "F2 diverged beyond rounding: {f2_rel}");

    // Per-key history: each point's total within its own range envelope.
    let served = view.archive.key_history(7, lo, hi).expect("served history");
    let direct = offline.key_history(7, lo, hi).expect("offline history");
    assert_eq!(served.len(), direct.len());
    for (s, d) in served.iter().zip(&direct) {
        assert_eq!((s.start, s.len), (d.start, d.len));
        let span = view.archive.range_sketch(s.start, s.start + s.len).expect("point range");
        let bound = span.sketch.get().error_bound();
        assert!(
            (s.total - d.total).abs() <= bound,
            "history [{}, {}): slim {} vs fat {} exceeds bound {bound}",
            s.start,
            s.start + s.len,
            s.total,
            d.total
        );
        assert!((s.mean - d.mean).abs() <= bound, "history mean diverged beyond bound");
    }
}

/// Off-thread rebuild is a latency optimization, not a semantic one:
/// after the engine drains (which flushes the observer), a background
/// plane's final view answers bit-identically to an inline plane's over
/// the same pipelined run — fractional model included, since both
/// planes run the *same* fat→slim projection in the same order.
#[test]
fn background_rebuild_final_view_matches_inline() {
    let model = ModelSpec::parse("ewma:0.5").unwrap();
    let inline_plane =
        ServingPlane::with_options(archive_cfg(), None, RebuildMode::Inline).expect("plane");
    let observer: Arc<dyn IntervalObserver> = Arc::clone(&inline_plane) as _;
    run_engine(model.clone(), true, Some(observer));
    let bg_plane =
        ServingPlane::with_options(archive_cfg(), None, RebuildMode::Background).expect("plane");
    let observer: Arc<dyn IntervalObserver> = Arc::clone(&bg_plane) as _;
    run_engine(model, true, Some(observer));

    let (a, b) = (inline_plane.view(), bg_plane.view());
    assert_eq!(a.interval, b.interval, "background view lags after drain");
    assert_eq!(a.archive.coverage(), b.archive.coverage());
    let (lo, hi) = a.archive.coverage().expect("covered");
    for (from, to) in [(lo, hi), (10, 16)] {
        let ra = a.archive.range_sketch(from, to).expect("inline range");
        let rb = b.archive.range_sketch(from, to).expect("background range");
        assert_eq!(ra.sketch.get().table(), rb.sketch.get().table());
        assert_eq!(ra.sketch.get().sum().to_bits(), rb.sketch.get().sum().to_bits());
        assert_eq!(
            ra.sketch.get().error_bound().to_bits(),
            rb.sketch.get().error_bound().to_bits(),
            "envelopes composed differently across rebuild modes"
        );
    }
    let (sa, sb) = (a.slim.as_ref().expect("warm"), b.slim.as_ref().expect("warm"));
    assert_eq!(sa.table(), sb.table(), "live slim sketches diverged");
    for key in 0..KEYS {
        assert_eq!(sa.estimate(key).to_bits(), sb.estimate(key).to_bits());
    }
}

/// The answer cache and request coalescing are invisible to clients: the
/// same four query shapes against the same plane come back identical
/// from a cache-on server and a cache-off server, and repeat asks (cache
/// hits) reproduce the first answer exactly.
#[test]
fn cached_and_uncached_servers_agree() {
    let model = ModelSpec::parse("ma:4").unwrap();
    let plane =
        ServingPlane::with_options(archive_cfg(), None, RebuildMode::Inline).expect("plane");
    let observer: Arc<dyn IntervalObserver> = Arc::clone(&plane) as _;
    run_engine(model, true, Some(observer));

    let mut cached = QueryServer::bind_with(
        "127.0.0.1:0",
        Arc::clone(&plane),
        None,
        ServerOptions { cache: true },
    )
    .expect("bind cached");
    let mut uncached = QueryServer::bind_with(
        "127.0.0.1:0",
        Arc::clone(&plane),
        None,
        ServerOptions { cache: false },
    )
    .expect("bind uncached");
    let mut with_cache = QueryClient::connect(&cached.addr().to_string()).expect("connect");
    let mut without = QueryClient::connect(&uncached.addr().to_string()).expect("connect");

    for req in [
        Request::Estimate { key: 7, from: 0, to: 0 },
        Request::Estimate { key: 7, from: 10, to: 16 },
        Request::ChangedKeys { from: 8, to: 16, threshold: 0.2 },
        Request::KeyHistory { key: 7, from: 0, to: INTERVALS },
        Request::RangeSketch { from: 0, to: INTERVALS },
    ] {
        let first = with_cache.ask(&req).expect("cached ask");
        let again = with_cache.ask(&req).expect("cached ask (hit)");
        let bare = without.ask(&req).expect("uncached ask");
        assert_eq!(first, again, "cache hit diverged from its own miss: {req:?}");
        assert_eq!(first, bare, "cached answer diverged from uncached: {req:?}");
    }
    cached.shutdown();
    uncached.shutdown();
}

/// Delegating observer that also records the view published for each
/// interval close — the reference against which concurrently-served
/// answers are re-derived.
#[derive(Debug)]
struct Recording {
    plane: Arc<ServingPlane>,
    views: Mutex<Vec<Arc<ServingView>>>,
}

impl IntervalObserver for Recording {
    fn interval_closed(&self, report: &IntervalReport, error: Option<(usize, &KarySketch)>) {
        self.plane.interval_closed(report, error);
        // The plane under test rebuilds off-thread; flush before
        // snapshotting so the recorded reference is this interval's view
        // (clients still race the server concurrently the whole time).
        self.plane.flush();
        self.views.lock().unwrap().push(self.plane.view());
    }

    fn flush(&self) {
        self.plane.flush();
    }
}

/// Layer 3: concurrent clients query over TCP while the engine ingests.
/// Every answer carries the `as_of` interval of the view that produced
/// it; re-deriving the answer from that interval's recorded reference
/// view must reproduce it exactly — no torn reads, no stale mixes.
#[test]
fn concurrent_queries_during_ingest_are_interval_consistent() {
    let model = ModelSpec::parse("ewma:0.5").unwrap();
    let plane =
        ServingPlane::with_options(archive_cfg(), None, RebuildMode::Background).expect("plane");
    let recording =
        Arc::new(Recording { plane: Arc::clone(&plane), views: Mutex::new(Vec::new()) });
    let mut server =
        QueryServer::bind_with("127.0.0.1:0", Arc::clone(&plane), None, ServerOptions::default())
            .expect("bind");
    let addr = server.addr();

    let stop = Arc::new(AtomicBool::new(false));
    let mut clients = Vec::new();
    for worker in 0..3u64 {
        let stop = Arc::clone(&stop);
        clients.push(std::thread::spawn(move || {
            let mut client = QueryClient::connect(&addr.to_string()).expect("connect");
            let mut log: Vec<(Request, Response)> = Vec::new();
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let key = splitmix64((worker << 32) | i) % KEYS;
                for req in [
                    Request::Estimate { key, from: 0, to: 0 },
                    Request::ChangedKeys { from: 8, to: 16, threshold: 0.2 },
                    Request::KeyHistory { key: 7, from: 0, to: INTERVALS },
                    Request::RangeSketch { from: 0, to: INTERVALS },
                ] {
                    let resp = client.ask(&req).expect("query failed mid-soak");
                    log.push((req, resp));
                }
                i += 1;
            }
            log
        }));
    }

    let observer: Arc<dyn IntervalObserver> = Arc::clone(&recording) as _;
    let mut config =
        EngineConfig::new(detector(model), 2).with_archive(archive_cfg()).with_observer(observer);
    config = config.with_pipeline();
    let mut engine = ShardedEngine::new(config).expect("engine");
    for t in 0..INTERVALS {
        engine.push_slice(&updates(t)).expect("push");
        engine.end_interval_overlapped().expect("cut");
        // Leave the clients a window inside each interval.
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    engine.drain().expect("drain");
    // Let clients observe the final view too, then stop them.
    std::thread::sleep(std::time::Duration::from_millis(50));
    stop.store(true, Ordering::Relaxed);
    let logs: Vec<_> = clients.into_iter().map(|c| c.join().expect("client thread")).collect();
    server.shutdown();

    // Index reference views by as_of interval.
    let views = recording.views.lock().unwrap();
    let mut by_interval = std::collections::HashMap::new();
    for v in views.iter() {
        by_interval.insert(v.interval.expect("published view has interval"), Arc::clone(v));
    }

    let mut verified = 0usize;
    for (req, resp) in logs.iter().flatten() {
        let as_of = match resp {
            Response::Estimate { as_of, .. }
            | Response::ChangedKeys { as_of, .. }
            | Response::KeyHistory { as_of, .. }
            | Response::RangeSketch { as_of, .. } => *as_of,
            // Pre-warm-up answers carry no interval; nothing to check.
            Response::NoData { .. } => continue,
            // Fixed query windows start out entirely ahead of coverage —
            // a loud out-of-range answer is correct there, mirroring
            // offline `scd query`. Anything else is a server bug.
            Response::Error { message, .. } if message.contains("outside archived range") => {
                continue
            }
            Response::Error { message, .. } => panic!("server answered error: {message}"),
        };
        let reference = by_interval
            .get(&as_of)
            .unwrap_or_else(|| panic!("answer cites unknown interval {as_of}"));
        assert_eq!(
            resp,
            &answer(reference, req),
            "served answer diverged from its interval's reference (as_of {as_of})"
        );
        verified += 1;
    }
    assert!(
        verified >= 100,
        "soak too thin: only {verified} answers verified against reference views"
    );

    // And the last recorded view serves the live estimate the final error
    // sketch implies for the burst key.
    let last = views.last().expect("views recorded");
    let slim = last.slim.as_ref().expect("warmed up");
    let est = slim.estimate(7);
    assert!(est.is_finite());
}
