//! The query listener: a multi-client TCP front end over the
//! [`ServingPlane`]'s snapshots, plus the pure [`answer`] function it
//! (and the tests) evaluate queries with.
//!
//! Accepting, the connection cap and the socket deadlines are
//! `scd_obs::Listener`'s, configured with this server's budgets. Each
//! connection pins the *current* view per request — a client issuing
//! many queries sees the pipeline advance between them, but every single
//! answer is interval-consistent (one atomic view, one `as_of`).
//!
//! # Answer cache and request coalescing
//!
//! Historical answers are pure functions of `(view, request)`, and a
//! view is immutable until the next interval swaps the `Arc`. The server
//! exploits that with a per-view answer cache: the first request for a
//! given `(as_of, query)` computes and memoizes; identical requests —
//! concurrent or later, from any connection — wait on the in-flight slot
//! (coalescing) or read the memo, so a `changed_keys` storm costs one
//! epoch scan per interval instead of one per request. Correctness is
//! structural: the cache key includes the view's `as_of`, and a newer
//! `as_of` clears the map, so a cached answer can never outlive the view
//! it was computed against. Live estimates (`from == to`) are never
//! cached — they are `H` cell reads, cheaper than the cache lookup is
//! worth. [`ServerOptions::cache`] turns the whole layer off.

use crate::metrics::ServeMetrics;
use crate::proto::{ProtoError, Request, Response};
use crate::view::{ServingPlane, ServingView};
use scd_archive::ArchiveError;
use scd_obs::{Budgets, Listener, LocalHistogram, Stopwatch};
use scd_sketch::{PointEstimate, SecondMoment};
use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Per-connection socket read timeout: an idle-but-open client is fine
/// (the read just times out at a frame boundary and retries until
/// `stop`), a mid-frame stall longer than this tears the connection down.
const READ_TIMEOUT: Duration = Duration::from_millis(500);

/// Per-response write budget; a client not draining its socket for this
/// long loses the connection.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Concurrent-connection cap; accepts beyond it are dropped immediately
/// (the client sees a clean close at a frame boundary and may retry).
const MAX_CONNECTIONS: usize = 64;

/// Distinct answers memoized per view; at the cap a new distinct query
/// evicts a *completed* memo (the map is also cleared at every view
/// swap, so this only bounds query diversity against one long-lived
/// view). In-flight `Pending` slots are never evicted — they are what
/// identical concurrent requests coalesce on.
const CACHE_CAP: usize = 1024;

/// Requests between folds of a connection's private latency histogram
/// into the shared [`ServeMetrics::answer_ns`] (plus one final fold when
/// the connection closes) — the `scd-obs` worker-local pattern, so the
/// per-request cost is a plain array add, not contended atomics.
const LOCAL_MERGE_EVERY: u64 = 64;

/// Evaluates one query against one frozen [`ServingView`] — pure, no
/// I/O, shared by the TCP handler, the CLI's offline path, and the
/// tests.
///
/// Archive outcomes map onto responses as: an empty window (`to ≤ from`
/// historically, or any historical query before the archive holds its
/// first epoch) is [`Response::NoData`] — a fact about the data, not a
/// failure; a window outside a *non-empty* archive's coverage, or a
/// sketch-level fault, is [`Response::Error`].
pub fn answer(view: &ServingView, req: &Request) -> Response {
    let Some(as_of) = view.interval else {
        return Response::NoData { as_of: None, reason: "no interval has closed yet".into() };
    };
    match *req {
        Request::Estimate { key, from, to } if from == to => match &view.slim {
            Some(slim) => Response::Estimate {
                as_of,
                live: true,
                value: slim.estimate(key),
                error_bound: slim.error_bound(),
            },
            None => Response::NoData {
                as_of: Some(as_of),
                reason: "model is still warming up: no error sketch yet".into(),
            },
        },
        Request::Estimate { key, from, to } => match view.archive.range_sketch(from, to) {
            Ok(range) => Response::Estimate {
                as_of,
                live: false,
                value: range.sketch.estimate(key),
                error_bound: range.sketch.get().error_bound(),
            },
            Err(e) => archive_miss(as_of, e),
        },
        Request::ChangedKeys { from, to, threshold } => {
            match view.archive.changed_keys(from, to, threshold, &[]) {
                Ok(report) => Response::ChangedKeys {
                    as_of,
                    requested: report.requested,
                    covered: report.covered,
                    epochs_used: report.epochs_used as u64,
                    error_f2: report.error_f2,
                    alarm_threshold: report.alarm_threshold,
                    changes: report.changes.into_iter().map(|c| (c.key, c.magnitude)).collect(),
                },
                Err(e) => archive_miss(as_of, e),
            }
        }
        Request::KeyHistory { key, from, to } => match view.archive.key_history(key, from, to) {
            Ok(points) => Response::KeyHistory {
                as_of,
                covered: points
                    .first()
                    .zip(points.last())
                    .map_or((0, 0), |(a, b)| (a.start, b.start + b.len)),
                points: points.into_iter().map(|p| (p.start, p.len, p.total, p.mean)).collect(),
            },
            Err(e) => archive_miss(as_of, e),
        },
        Request::RangeSketch { from, to } => match view.archive.range_sketch(from, to) {
            Ok(range) => Response::RangeSketch {
                as_of,
                covered: range.covered,
                epochs_used: range.epochs_used as u64,
                sum: range.sketch.get().sum(),
                error_f2: range.sketch.estimate_f2(),
            },
            Err(e) => archive_miss(as_of, e),
        },
    }
}

/// Maps an archive query failure onto the wire: "nothing there" answers
/// become [`Response::NoData`], real faults become [`Response::Error`].
fn archive_miss(as_of: u64, e: ArchiveError) -> Response {
    let as_of = Some(as_of);
    match e {
        ArchiveError::EmptyRange { .. } => Response::NoData { as_of, reason: e.to_string() },
        ArchiveError::OutOfRange { coverage: None, .. } => Response::NoData {
            as_of,
            reason: "archive holds no epochs yet (model warming up)".into(),
        },
        other => Response::Error { as_of, message: other.to_string() },
    }
}

/// A request's identity for memoization. Live estimates map to `None`
/// (never cached); float thresholds key by their exact bit pattern.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum CacheKey {
    Estimate { key: u64, from: u64, to: u64 },
    ChangedKeys { from: u64, to: u64, threshold_bits: u64 },
    KeyHistory { key: u64, from: u64, to: u64 },
    RangeSketch { from: u64, to: u64 },
}

fn cache_key(req: &Request) -> Option<CacheKey> {
    match *req {
        Request::Estimate { from, to, .. } if from == to => None,
        Request::Estimate { key, from, to } => Some(CacheKey::Estimate { key, from, to }),
        Request::ChangedKeys { from, to, threshold } => {
            Some(CacheKey::ChangedKeys { from, to, threshold_bits: threshold.to_bits() })
        }
        Request::KeyHistory { key, from, to } => Some(CacheKey::KeyHistory { key, from, to }),
        Request::RangeSketch { from, to } => Some(CacheKey::RangeSketch { from, to }),
    }
}

/// One memo slot: `Pending` while the first requester computes (later
/// identical requests block on the condvar — that's the coalescing),
/// then `Ready` with the answer every waiter clones.
#[derive(Debug)]
struct Slot {
    state: Mutex<SlotState>,
    ready: Condvar,
}

#[derive(Debug)]
enum SlotState {
    Pending,
    Ready(Response),
}

#[derive(Debug, Default)]
struct CacheInner {
    /// The view interval the map's entries were computed against.
    as_of: u64,
    map: HashMap<CacheKey, Arc<Slot>>,
}

/// The per-view answer cache. See the [module docs](self) for the
/// invalidation argument.
#[derive(Debug)]
pub(crate) struct AnswerCache {
    /// Memo-count ceiling ([`CACHE_CAP`] in production; tests shrink it
    /// to exercise cap pressure).
    cap: usize,
    inner: Mutex<CacheInner>,
}

impl Default for AnswerCache {
    fn default() -> Self {
        AnswerCache::with_capacity(CACHE_CAP)
    }
}

impl AnswerCache {
    fn with_capacity(cap: usize) -> Self {
        AnswerCache { cap, inner: Mutex::default() }
    }
}

/// What the cache decided for one request.
enum Claim {
    /// First requester: compute, publish into the slot, notify waiters.
    Compute(Arc<Slot>),
    /// Identical request already computed or in flight: wait and clone.
    Hit(Arc<Slot>),
    /// Not cacheable (a straggler connection's superseded view): compute
    /// uncached.
    Bypass,
}

/// [`answer`] through the memo layer — same responses, byte for byte
/// (the first requester's `answer` output is what everyone receives).
pub(crate) fn answer_cached(
    cache: &AnswerCache,
    view: &ServingView,
    req: &Request,
    metrics: Option<&ServeMetrics>,
) -> Response {
    let (Some(as_of), Some(key)) = (view.interval, cache_key(req)) else {
        return answer(view, req);
    };
    let claim = {
        let mut inner = cache.inner.lock().expect("answer cache lock poisoned");
        if as_of < inner.as_of {
            // A connection still holding a superseded view: its answers
            // must come from *that* view, and the map now belongs to a
            // newer one. Compute directly.
            Claim::Bypass
        } else {
            if as_of > inner.as_of {
                // The Arc swap happened: every memo below is for a dead
                // view. Invalidate wholesale.
                inner.as_of = as_of;
                inner.map.clear();
            }
            if let Some(slot) = inner.map.get(&key) {
                Claim::Hit(Arc::clone(slot))
            } else {
                let mut full = inner.map.len() >= cache.cap;
                if full {
                    // Full: evict a *completed* memo rather than bypass —
                    // a long-lived view (idle ingest) must not lock the
                    // cache into whatever happened to fill it first.
                    // Pending slots are exempt: evicting one would let
                    // the next identical request miss the map and start
                    // a second scan while the first is still in flight,
                    // breaking one-scan-per-distinct-query coalescing.
                    // (Existing waiters would survive — they hold their
                    // own `Arc` — but new arrivals would not coalesce.)
                    // `try_lock` cannot deadlock here: slot locks are
                    // never held across a grab of the cache lock, and a
                    // contended slot just stays resident this round.
                    let victim =
                        inner.map.iter().find_map(|(k, slot)| match slot.state.try_lock() {
                            Ok(state) if matches!(*state, SlotState::Ready(_)) => Some(k.clone()),
                            _ => None,
                        });
                    if let Some(victim) = victim {
                        inner.map.remove(&victim);
                        full = false;
                    }
                }
                if full {
                    // Every resident slot is an in-flight computation:
                    // answer this query uncached instead of displacing
                    // one of them or growing past the cap.
                    Claim::Bypass
                } else {
                    let slot = Arc::new(Slot {
                        state: Mutex::new(SlotState::Pending),
                        ready: Condvar::new(),
                    });
                    inner.map.insert(key, Arc::clone(&slot));
                    Claim::Compute(slot)
                }
            }
        }
    };
    match claim {
        Claim::Bypass => answer(view, req),
        Claim::Compute(slot) => {
            if let Some(m) = metrics {
                m.cache_misses.inc();
            }
            let resp = answer(view, req);
            *slot.state.lock().expect("cache slot lock poisoned") = SlotState::Ready(resp.clone());
            slot.ready.notify_all();
            resp
        }
        Claim::Hit(slot) => {
            let mut coalesced = false;
            let mut state = slot.state.lock().expect("cache slot lock poisoned");
            while matches!(*state, SlotState::Pending) {
                coalesced = true;
                state = slot.ready.wait(state).expect("cache slot lock poisoned");
            }
            let SlotState::Ready(resp) = &*state else { unreachable!("loop exits on Ready") };
            let resp = resp.clone();
            drop(state);
            if let Some(m) = metrics {
                m.cache_hits.inc();
                if coalesced {
                    m.coalesced_total.inc();
                }
            }
            resp
        }
    }
}

/// Read-path knobs for [`QueryServer::bind_with`].
#[derive(Debug, Clone, Copy)]
pub struct ServerOptions {
    /// Memoize and coalesce historical answers per view (default on).
    pub cache: bool,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions { cache: true }
    }
}

/// A TCP query server bound to a local address, answering [`Request`]s
/// against the [`ServingPlane`]'s current view until stopped or dropped.
#[derive(Debug)]
pub struct QueryServer {
    listener: Listener,
}

impl QueryServer {
    /// Binds `addr` (use port 0 for an ephemeral port — see
    /// [`addr`](Self::addr)) and starts the accept loop, with the answer
    /// cache on ([`ServerOptions::default`]).
    ///
    /// # Errors
    /// Propagates the bind failure.
    pub fn bind(
        addr: &str,
        plane: Arc<ServingPlane>,
        metrics: Option<Arc<ServeMetrics>>,
    ) -> std::io::Result<QueryServer> {
        Self::bind_with(addr, plane, metrics, ServerOptions::default())
    }

    /// [`bind`](Self::bind) with explicit [`ServerOptions`].
    ///
    /// # Errors
    /// Propagates the bind failure.
    pub fn bind_with(
        addr: &str,
        plane: Arc<ServingPlane>,
        metrics: Option<Arc<ServeMetrics>>,
        options: ServerOptions,
    ) -> std::io::Result<QueryServer> {
        let (accepted, refused) = match &metrics {
            Some(m) => (Arc::clone(&m.connections_total), Arc::clone(&m.connections_refused)),
            None => Default::default(),
        };
        let mut listener = Listener::bind(
            addr,
            Budgets {
                thread_name: "scd-serve",
                read_timeout: READ_TIMEOUT,
                write_timeout: WRITE_TIMEOUT,
                max_connections: MAX_CONNECTIONS,
                accepted,
                refused,
            },
        )?;
        let cache = options.cache.then(AnswerCache::default);
        listener.start(move |stream, stop| {
            let _ = serve_connection(stream, &plane, cache.as_ref(), metrics.as_deref(), stop);
        });
        Ok(QueryServer { listener })
    }

    /// The bound address (with the real port when bound ephemerally).
    pub fn addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// Stops accepting and waits for every open connection's handler to
    /// observe the stop flag (at its next read timeout) and exit.
    pub fn shutdown(&mut self) {
        self.listener.shutdown();
    }
}

/// One connection's request/response loop. Returns on clean close, any
/// protocol error (the connection is torn down — queries are idempotent
/// and the client reconnects), or server stop.
fn serve_connection(
    stream: TcpStream,
    plane: &ServingPlane,
    cache: Option<&AnswerCache>,
    metrics: Option<&ServeMetrics>,
    stop: &AtomicBool,
) -> Result<(), ProtoError> {
    // Latency samples accumulate in a connection-private histogram (plain
    // adds) and fold into the shared one every LOCAL_MERGE_EVERY requests
    // and once at teardown, whatever path exits the loop.
    let mut local_answer = LocalHistogram::new();
    let result = serve_requests(stream, plane, cache, metrics, stop, &mut local_answer);
    if let Some(m) = metrics {
        m.answer_ns.merge_local(&local_answer);
    }
    result
}

fn serve_requests(
    stream: TcpStream,
    plane: &ServingPlane,
    cache: Option<&AnswerCache>,
    metrics: Option<&ServeMetrics>,
    stop: &AtomicBool,
    local_answer: &mut LocalHistogram,
) -> Result<(), ProtoError> {
    let mut reader = stream.try_clone()?;
    let mut writer = stream;
    loop {
        if stop.load(Ordering::Acquire) {
            return Ok(());
        }
        let req = match Request::read_from(&mut reader) {
            Ok(req) => req,
            Err(ProtoError::Closed) => return Ok(()),
            // An idle client between requests: the read timed out at a
            // frame boundary. Check the stop flag and wait again. A
            // timeout *inside* a frame is `Stalled` and falls through:
            // part of the frame is consumed, so retrying would resume
            // mid-frame and misread payload bytes as a header.
            Err(ProtoError::Idle) => continue,
            Err(e) => return Err(e),
        };
        let sw = Stopwatch::start();
        let view = plane.view();
        let resp = match cache {
            Some(cache) => answer_cached(cache, &view, &req, metrics),
            None => answer(&view, &req),
        };
        if let Some(m) = metrics {
            m.queries_total.inc();
            match resp {
                Response::Error { .. } => m.query_errors.inc(),
                Response::NoData { .. } => m.query_nodata.inc(),
                _ => {}
            }
            local_answer.record(sw.elapsed_ns());
            if local_answer.count() >= LOCAL_MERGE_EVERY {
                m.answer_ns.merge_local(local_answer);
                local_answer.clear();
            }
        }
        writer.write_all(&resp.encode())?;
        writer.flush()?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slim::SlimSketch;
    use scd_archive::ArchiveConfig;
    use scd_core::{IntervalObserver, IntervalReport};
    use scd_sketch::{KarySketch, SketchConfig};

    fn plane_with_two_intervals() -> Arc<ServingPlane> {
        let plane = ServingPlane::new(ArchiveConfig {
            max_sketches: 8,
            full_resolution: 4,
            keys_per_epoch: 16,
        })
        .unwrap();
        for t in 0..2usize {
            let mut err = KarySketch::new(SketchConfig { h: 3, k: 256, seed: 5 });
            for key in 0..30u64 {
                err.update(key, ((key + 1) * (t as u64 + 1)) as f64);
            }
            let report = IntervalReport {
                interval: t,
                warmed_up: true,
                errors: vec![(2, 5.0)],
                ..Default::default()
            };
            plane.interval_closed(&report, Some((t, &err)));
        }
        plane
    }

    /// Pre-first-interval views answer every query kind with NoData.
    #[test]
    fn empty_view_answers_nodata_everywhere() {
        let plane = ServingPlane::new(ArchiveConfig {
            max_sketches: 8,
            full_resolution: 4,
            keys_per_epoch: 16,
        })
        .unwrap();
        let view = plane.view();
        let reqs = [
            Request::Estimate { key: 1, from: 0, to: 0 },
            Request::Estimate { key: 1, from: 0, to: 4 },
            Request::ChangedKeys { from: 0, to: 4, threshold: 0.05 },
            Request::KeyHistory { key: 1, from: 0, to: 4 },
            Request::RangeSketch { from: 0, to: 4 },
        ];
        for req in reqs {
            assert!(
                matches!(answer(&view, &req), Response::NoData { .. }),
                "expected NoData for {req:?}"
            );
        }
    }

    /// A warmed-up view answers live estimates from the slim sketch and
    /// historical estimates from the archive, both tagged with as_of.
    #[test]
    fn live_and_historical_estimates() {
        let plane = plane_with_two_intervals();
        let view = plane.view();
        let slim = view.slim.as_ref().unwrap();
        match answer(&view, &Request::Estimate { key: 7, from: 0, to: 0 }) {
            Response::Estimate { as_of, live, value, error_bound } => {
                assert_eq!(as_of, 1);
                assert!(live);
                assert_eq!(value.to_bits(), slim.estimate(7).to_bits());
                assert!(error_bound >= 0.0);
            }
            other => panic!("unexpected {other:?}"),
        }
        match answer(&view, &Request::Estimate { key: 7, from: 0, to: 2 }) {
            Response::Estimate { as_of, live, value, error_bound } => {
                assert_eq!(as_of, 1);
                assert!(!live);
                let range = view.archive.range_sketch(0, 2).unwrap();
                assert_eq!(value.to_bits(), range.sketch.estimate(7).to_bits());
                // Historical answers now carry the composed slim rounding
                // envelope of the combined range.
                assert_eq!(error_bound.to_bits(), range.sketch.get().error_bound().to_bits());
                assert!(error_bound > 0.0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// Empty windows and not-yet-covered windows answer NoData; windows
    /// outside a non-empty archive answer Error.
    #[test]
    fn window_misses_map_to_nodata_or_error() {
        let plane = plane_with_two_intervals();
        let view = plane.view();
        assert!(matches!(
            answer(&view, &Request::RangeSketch { from: 4, to: 2 }),
            Response::NoData { .. }
        ));
        assert!(matches!(
            answer(&view, &Request::RangeSketch { from: 10, to: 20 }),
            Response::Error { .. }
        ));
    }

    /// End-to-end over a real socket: bind, connect, ask all four kinds,
    /// answers equal the pure `answer` on the same view.
    #[test]
    fn serves_all_query_kinds_over_tcp() {
        let plane = plane_with_two_intervals();
        let mut server = QueryServer::bind("127.0.0.1:0", Arc::clone(&plane), None).unwrap();
        let view = plane.view();
        let mut client = crate::client::QueryClient::connect(&server.addr().to_string()).unwrap();
        let reqs = [
            Request::Estimate { key: 3, from: 0, to: 0 },
            Request::Estimate { key: 3, from: 0, to: 2 },
            Request::ChangedKeys { from: 0, to: 2, threshold: 0.05 },
            Request::KeyHistory { key: 3, from: 0, to: 2 },
            Request::RangeSketch { from: 0, to: 2 },
        ];
        for req in reqs {
            let served = client.ask(&req).unwrap();
            assert_eq!(served, answer(&view, &req), "mismatch for {req:?}");
        }
        server.shutdown();
    }

    /// Protocol corruption tears down only the offending connection; the
    /// server keeps serving new ones.
    #[test]
    fn corrupt_frame_drops_connection_but_not_server() {
        let plane = plane_with_two_intervals();
        let server = QueryServer::bind("127.0.0.1:0", Arc::clone(&plane), None).unwrap();
        let addr = server.addr().to_string();
        {
            let mut bad = TcpStream::connect(&addr).unwrap();
            bad.write_all(b"GARBAGE NOT A FRAME").unwrap();
            bad.flush().unwrap();
            // The server rejects at the magic check and closes; reading
            // eventually observes EOF.
            let mut buf = [0u8; 16];
            use std::io::Read;
            bad.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            loop {
                match bad.read(&mut buf) {
                    Ok(0) => break,
                    Ok(_) => {}
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut =>
                    {
                        panic!("server did not close corrupted connection")
                    }
                    Err(_) => break,
                }
            }
        }
        let mut client = crate::client::QueryClient::connect(&addr).unwrap();
        let resp = client.ask(&Request::RangeSketch { from: 0, to: 2 }).unwrap();
        assert!(matches!(resp, Response::RangeSketch { .. }));
    }

    /// A client that stalls mid-frame past the read timeout loses its
    /// connection: the handler must not retry the read from the middle of
    /// the frame (it would misparse payload bytes as a header). An idle
    /// client, quiet for just as long *between* frames, keeps its.
    #[test]
    fn mid_frame_stall_closes_the_connection_idle_does_not() {
        use std::io::Read;
        let registry = scd_obs::Registry::new();
        let metrics = ServeMetrics::register(&registry);
        let plane = plane_with_two_intervals();
        let server =
            QueryServer::bind("127.0.0.1:0", Arc::clone(&plane), Some(Arc::clone(&metrics)))
                .unwrap();
        let addr = server.addr().to_string();
        let req = Request::RangeSketch { from: 0, to: 2 };
        let frame = req.encode();

        let mut idle = crate::client::QueryClient::connect(&addr).unwrap();
        let mut slow = TcpStream::connect(&addr).unwrap();
        slow.set_nodelay(true).unwrap();
        slow.write_all(&frame[..5]).unwrap();
        // Without another byte sent, the server hangs up once the stall
        // outlasts its read timeout: the client reads EOF, not a timeout.
        slow.set_read_timeout(Some(READ_TIMEOUT * 10)).unwrap();
        assert_eq!(slow.read(&mut [0u8; 64]).expect("server closes a stalled connection"), 0);
        // The rest arrives too late to be misread as a new frame.
        let _ = slow.write_all(&frame[5..]);
        // The idle connection sat through the same silence, in sync.
        assert!(matches!(idle.ask(&req).unwrap(), Response::RangeSketch { .. }));
        let mut fresh = crate::client::QueryClient::connect(&addr).unwrap();
        assert!(matches!(fresh.ask(&req).unwrap(), Response::RangeSketch { .. }));
        assert_eq!(metrics.query_errors.get(), 0);
        assert_eq!(metrics.queries_total.get(), 2);
    }

    /// Multiple concurrent clients each get consistent answers.
    #[test]
    fn concurrent_clients_get_consistent_answers() {
        let plane = plane_with_two_intervals();
        let server = QueryServer::bind("127.0.0.1:0", Arc::clone(&plane), None).unwrap();
        let addr = server.addr().to_string();
        let view = plane.view();
        let expect = answer(&view, &Request::Estimate { key: 9, from: 0, to: 0 });
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let addr = addr.clone();
                let expect = expect.clone();
                std::thread::spawn(move || {
                    let mut client = crate::client::QueryClient::connect(&addr).unwrap();
                    for _ in 0..25 {
                        let got =
                            client.ask(&Request::Estimate { key: 9, from: 0, to: 0 }).unwrap();
                        assert_eq!(got, expect);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    /// The memo layer returns the same bytes as the uncached path for
    /// every query kind, hits on repeats, and coalesces concurrent
    /// identical requests onto one computation.
    #[test]
    fn cache_answers_match_uncached_and_count_hits() {
        let registry = scd_obs::Registry::new();
        let metrics = ServeMetrics::register(&registry);
        let plane = plane_with_two_intervals();
        let view = plane.view();
        let cache = AnswerCache::default();
        let reqs = [
            Request::Estimate { key: 3, from: 0, to: 2 },
            Request::ChangedKeys { from: 0, to: 2, threshold: 0.05 },
            Request::KeyHistory { key: 3, from: 0, to: 2 },
            Request::RangeSketch { from: 0, to: 2 },
        ];
        for req in &reqs {
            let direct = answer(&view, req);
            let first = answer_cached(&cache, &view, req, Some(&metrics));
            let second = answer_cached(&cache, &view, req, Some(&metrics));
            assert_eq!(first.encode(), direct.encode(), "first answer for {req:?}");
            assert_eq!(second.encode(), direct.encode(), "cached answer for {req:?}");
        }
        assert_eq!(metrics.cache_misses.get(), reqs.len() as u64);
        assert_eq!(metrics.cache_hits.get(), reqs.len() as u64);
        // Live estimates bypass the cache entirely.
        let live = Request::Estimate { key: 3, from: 0, to: 0 };
        let direct = answer(&view, &live);
        assert_eq!(answer_cached(&cache, &view, &live, Some(&metrics)).encode(), direct.encode());
        assert_eq!(metrics.cache_misses.get(), reqs.len() as u64);
    }

    /// A waiter blocked on a Pending slot receives exactly the response
    /// the computing side publishes, and counts as coalesced.
    #[test]
    fn pending_slot_coalesces_waiters() {
        let registry = scd_obs::Registry::new();
        let metrics = ServeMetrics::register(&registry);
        let plane = plane_with_two_intervals();
        let view = plane.view();
        let cache = Arc::new(AnswerCache::default());
        let req = Request::ChangedKeys { from: 0, to: 2, threshold: 0.05 };
        // Plant a Pending slot by hand, as if another connection were
        // mid-computation.
        let slot = Arc::new(Slot { state: Mutex::new(SlotState::Pending), ready: Condvar::new() });
        {
            let mut inner = cache.inner.lock().unwrap();
            inner.as_of = view.interval.unwrap();
            inner.map.insert(cache_key(&req).unwrap(), Arc::clone(&slot));
        }
        let waiter = {
            let (cache, view, req, metrics) =
                (Arc::clone(&cache), Arc::clone(&view), req.clone(), Arc::clone(&metrics));
            std::thread::spawn(move || answer_cached(&cache, &view, &req, Some(&metrics)))
        };
        std::thread::sleep(Duration::from_millis(30));
        let expect = answer(&view, &req);
        *slot.state.lock().unwrap() = SlotState::Ready(expect.clone());
        slot.ready.notify_all();
        assert_eq!(waiter.join().unwrap().encode(), expect.encode());
        assert_eq!(metrics.coalesced_total.get(), 1);
        assert_eq!(metrics.cache_hits.get(), 1);
    }

    /// Under cap pressure, eviction never displaces an in-flight Pending
    /// slot: new distinct queries bypass the cache instead, and identical
    /// requests keep coalescing onto the one scan already running.
    #[test]
    fn cap_pressure_never_evicts_in_flight_slots() {
        let registry = scd_obs::Registry::new();
        let metrics = ServeMetrics::register(&registry);
        let plane = plane_with_two_intervals();
        let view = plane.view();
        let cache = Arc::new(AnswerCache::with_capacity(2));
        let in_flight = [
            Request::ChangedKeys { from: 0, to: 2, threshold: 0.05 },
            Request::KeyHistory { key: 3, from: 0, to: 2 },
        ];
        // Two hand-planted Pending slots fill the cache, as if two
        // scans were mid-flight on other connections.
        let slots: Vec<Arc<Slot>> = in_flight
            .iter()
            .map(|req| {
                let slot =
                    Arc::new(Slot { state: Mutex::new(SlotState::Pending), ready: Condvar::new() });
                let mut inner = cache.inner.lock().unwrap();
                inner.as_of = view.interval.unwrap();
                inner.map.insert(cache_key(req).unwrap(), Arc::clone(&slot));
                slot
            })
            .collect();
        // A third distinct query against the full, all-Pending cache
        // must not evict either scan: it computes uncached and leaves
        // the map untouched.
        let extra = Request::RangeSketch { from: 0, to: 2 };
        let got = answer_cached(&cache, &view, &extra, Some(&metrics));
        assert_eq!(got.encode(), answer(&view, &extra).encode());
        assert_eq!(metrics.cache_misses.get(), 0, "bypass must not claim a slot");
        {
            let inner = cache.inner.lock().unwrap();
            assert_eq!(inner.map.len(), 2);
            for req in &in_flight {
                assert!(
                    inner.map.contains_key(&cache_key(req).unwrap()),
                    "in-flight slot evicted under cap pressure"
                );
            }
        }
        // Identical requests issued during the squeeze still coalesce
        // onto the original scans — one scan per distinct in-flight
        // query, never a second Compute.
        let waiters: Vec<_> = in_flight
            .iter()
            .map(|req| {
                let (cache, view, req, metrics) =
                    (Arc::clone(&cache), Arc::clone(&view), req.clone(), Arc::clone(&metrics));
                std::thread::spawn(move || answer_cached(&cache, &view, &req, Some(&metrics)))
            })
            .collect();
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(metrics.cache_misses.get(), 0, "an in-flight query was recomputed");
        for (req, slot) in in_flight.iter().zip(&slots) {
            *slot.state.lock().unwrap() = SlotState::Ready(answer(&view, req));
            slot.ready.notify_all();
        }
        for (w, req) in waiters.into_iter().zip(&in_flight) {
            assert_eq!(w.join().unwrap().encode(), answer(&view, req).encode());
        }
        assert_eq!(metrics.coalesced_total.get(), 2);
        // Once the scans publish, cap pressure evicts again: a new
        // distinct query displaces a Ready memo and claims a real slot.
        let after = Request::Estimate { key: 3, from: 0, to: 2 };
        let got = answer_cached(&cache, &view, &after, Some(&metrics));
        assert_eq!(got.encode(), answer(&view, &after).encode());
        assert_eq!(metrics.cache_misses.get(), 1, "Ready memos are evictable again");
        assert_eq!(cache.inner.lock().unwrap().map.len(), 2);
    }

    /// A connection still serving a superseded view bypasses the cache:
    /// its answers come from its own view, never a newer one's memo.
    #[test]
    fn stale_view_bypasses_newer_cache() {
        let plane = plane_with_two_intervals();
        let old = plane.view();
        // Advance the plane one more interval; the cache follows.
        let mut err = KarySketch::new(SketchConfig { h: 3, k: 256, seed: 5 });
        for key in 0..30u64 {
            err.update(key, (key + 9) as f64);
        }
        let report = IntervalReport { interval: 2, warmed_up: true, ..Default::default() };
        plane.interval_closed(&report, Some((2, &err)));
        let new = plane.view();
        let cache = AnswerCache::default();
        let req = Request::RangeSketch { from: 0, to: 3 };
        let from_new = answer_cached(&cache, &new, &req, None);
        let from_old = answer_cached(&cache, &old, &req, None);
        assert_eq!(from_new.encode(), answer(&new, &req).encode());
        assert_eq!(from_old.encode(), answer(&old, &req).encode());
        assert_ne!(from_old.encode(), from_new.encode(), "stale view must not see newer memo");
    }

    /// Over TCP with the cache on, repeated identical requests from
    /// different connections are byte-identical and the hit counter
    /// advances.
    #[test]
    fn cached_tcp_answers_are_byte_identical() {
        let registry = scd_obs::Registry::new();
        let metrics = ServeMetrics::register(&registry);
        let plane = plane_with_two_intervals();
        let server = QueryServer::bind_with(
            "127.0.0.1:0",
            Arc::clone(&plane),
            Some(Arc::clone(&metrics)),
            ServerOptions { cache: true },
        )
        .unwrap();
        let addr = server.addr().to_string();
        let req = Request::ChangedKeys { from: 0, to: 2, threshold: 0.05 };
        let mut responses = Vec::new();
        for _ in 0..3 {
            let mut client = crate::client::QueryClient::connect(&addr).unwrap();
            responses.push(client.ask(&req).unwrap().encode());
        }
        assert!(responses.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(metrics.cache_misses.get(), 1);
        assert_eq!(metrics.cache_hits.get(), 2);
    }

    /// The slim sketch the server answers from matches a fresh projection
    /// of the last error sketch (guards the handoff wiring end to end).
    #[test]
    fn served_live_estimates_match_fresh_projection() {
        let plane = plane_with_two_intervals();
        let view = plane.view();
        let mut err = KarySketch::new(SketchConfig { h: 3, k: 256, seed: 5 });
        for key in 0..30u64 {
            err.update(key, ((key + 1) * 2) as f64);
        }
        let fresh = SlimSketch::from_fat(&err);
        for key in 0..30u64 {
            assert_eq!(
                view.slim.as_ref().unwrap().estimate(key).to_bits(),
                fresh.estimate(key).to_bits()
            );
        }
    }
}
