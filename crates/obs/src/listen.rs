//! The workspace's one TCP accept loop, and the Prometheus scrape
//! endpoint built on it.
//!
//! [`Listener`] is what every server in the workspace (this crate's
//! [`MetricsListener`], the serving plane's query server, the distributed
//! plane's aggregator) constructs with its own [`Budgets`] instead of
//! re-implementing: a non-blocking accept polled against a stop flag, so
//! shutdown never needs a wake-up connection; accepted sockets forced
//! back to blocking mode (BSD and macOS inherit `O_NONBLOCK` from the
//! listener) with read and write timeouts, so a peer that will not send
//! or will not drain cannot wedge its handler forever; a cap on
//! concurrent connections, with refusals counted; one handler thread per
//! connection, all joined when the listener stops.
//!
//! The scrape endpoint is deliberately not a web server: no keep-alive,
//! no routing — a scraper connects, we read and discard its request head,
//! write one `200 OK` with the rendered metrics, and close. That is
//! exactly the protocol subset a Prometheus scrape (or `curl`, or `scd
//! metrics --addr`) needs, and it keeps the responder off the pipeline's
//! threads entirely: rendering reads the shared atomics, so serving never
//! blocks ingestion or detection.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::metric::Counter;
use crate::registry::Registry;

/// How long the accept loop sleeps when no connection is pending — the
/// latency of noticing the stop flag.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// What one server allows its connections.
#[derive(Debug, Clone)]
pub struct Budgets {
    /// Name of the accept thread; handler threads are `<name>-conn`.
    pub thread_name: &'static str,
    /// Socket read timeout on every accepted connection.
    pub read_timeout: Duration,
    /// Socket write timeout on every accepted connection.
    pub write_timeout: Duration,
    /// Concurrent-connection cap; accepts beyond it are closed at once
    /// (the client sees a clean close and may retry).
    pub max_connections: usize,
    /// Incremented per connection handed to the handler.
    pub accepted: Arc<Counter>,
    /// Incremented per connection closed unserved: over the cap, or (never
    /// seen in practice) its socket options or thread could not be set up.
    pub refused: Arc<Counter>,
}

/// A bound TCP listener that, once [`start`](Listener::start)ed, runs
/// `handler` on its own thread for every connection within [`Budgets`].
/// Dropping it (or [`shutdown`](Listener::shutdown)) stops accepting and
/// joins the accept thread and every handler.
#[derive(Debug)]
pub struct Listener {
    addr: SocketAddr,
    /// Bound but not yet accepting; taken by `start`. Connections made
    /// before then wait in the kernel's backlog.
    socket: Option<TcpListener>,
    budgets: Budgets,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl Listener {
    /// Binds `addr` (port `0` for an ephemeral port — see
    /// [`local_addr`](Listener::local_addr)).
    ///
    /// # Errors
    /// The bind error, verbatim (address in use, permission, bad syntax).
    pub fn bind(addr: &str, budgets: Budgets) -> std::io::Result<Listener> {
        let socket = TcpListener::bind(addr)?;
        let addr = socket.local_addr()?;
        socket.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        Ok(Listener { addr, socket: Some(socket), budgets, stop, accept_thread: None })
    }

    /// The bound address (with the real port when bound ephemerally).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Starts the accept loop. `handler` gets each connection — blocking,
    /// timeouts set — and the stop flag, which it must poll at least once
    /// per read timeout so shutdown can join it.
    ///
    /// # Panics
    /// If called twice, or if the accept thread cannot be spawned.
    pub fn start<H>(&mut self, handler: H)
    where
        H: Fn(TcpStream, &AtomicBool) + Send + Sync + 'static,
    {
        let socket = self.socket.take().expect("a listener starts once");
        let budgets = self.budgets.clone();
        let stop = Arc::clone(&self.stop);
        let thread = std::thread::Builder::new()
            .name(budgets.thread_name.into())
            .spawn(move || accept_loop(&socket, &budgets, &stop, Arc::new(handler)))
            .expect("spawn accept thread");
        self.accept_thread = Some(thread);
    }

    /// Stops accepting and waits for the accept thread and every handler
    /// to exit (each notices the stop flag within one read or write
    /// timeout).
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(thread) = self.accept_thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop<H>(socket: &TcpListener, budgets: &Budgets, stop: &Arc<AtomicBool>, handler: Arc<H>)
where
    H: Fn(TcpStream, &AtomicBool) + Send + Sync + 'static,
{
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    while !stop.load(Ordering::Acquire) {
        let Ok((stream, _peer)) = socket.accept() else {
            // Nothing pending (`WouldBlock`), or a transient accept
            // failure (aborted handshake, fd pressure): poll again.
            std::thread::sleep(ACCEPT_POLL);
            continue;
        };
        handlers.retain(|h| !h.is_finished());
        let prepared = handlers.len() < budgets.max_connections
            && stream.set_nonblocking(false).is_ok()
            && stream.set_read_timeout(Some(budgets.read_timeout)).is_ok()
            && stream.set_write_timeout(Some(budgets.write_timeout)).is_ok();
        if !prepared {
            budgets.refused.inc();
            continue;
        }
        let (handler, stop) = (Arc::clone(&handler), Arc::clone(stop));
        let spawned = std::thread::Builder::new()
            .name(format!("{}-conn", budgets.thread_name))
            .spawn(move || handler(stream, &stop));
        match spawned {
            Ok(thread) => {
                budgets.accepted.inc();
                handlers.push(thread);
            }
            Err(_) => budgets.refused.inc(),
        }
    }
    for thread in handlers {
        let _ = thread.join();
    }
}

/// Scrapers served at once; a scrape is one short exchange, so more than
/// a handful in flight is a flood, not monitoring.
const MAX_SCRAPERS: usize = 4;

/// Per-socket-call budget in both directions: a client that won't send
/// its request or won't drain the response is cut off, not waited on.
const SCRAPE_IO_TIMEOUT: Duration = Duration::from_millis(500);

/// A running metrics responder; dropping it (or calling
/// [`stop`](MetricsListener::stop)) shuts it down.
#[derive(Debug)]
pub struct MetricsListener {
    listener: Listener,
}

impl MetricsListener {
    /// Binds `addr` (e.g. `127.0.0.1:9184`, or port `0` for an ephemeral
    /// port) and serves `registry`'s Prometheus exposition until stopped.
    ///
    /// # Errors
    /// The bind error, verbatim (address in use, permission, bad syntax).
    pub fn bind(addr: &str, registry: Arc<Registry>) -> std::io::Result<MetricsListener> {
        let mut listener = Listener::bind(
            addr,
            Budgets {
                thread_name: "scd-metrics-listen",
                read_timeout: SCRAPE_IO_TIMEOUT,
                write_timeout: SCRAPE_IO_TIMEOUT,
                max_connections: MAX_SCRAPERS,
                accepted: Arc::default(),
                refused: Arc::default(),
            },
        )?;
        listener.start(move |stream, _stop| {
            let _ = respond(stream, &registry);
        });
        Ok(MetricsListener { listener })
    }

    /// The bound address (useful when binding port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// Stops the responder and joins its threads.
    pub fn stop(mut self) {
        self.listener.shutdown();
    }
}

/// Serves one connection: drain the request head, answer with the
/// current exposition.
fn respond(mut stream: TcpStream, registry: &Registry) -> std::io::Result<()> {
    // One budget for the whole exchange, on top of the per-call socket
    // timeouts: a trickling client holds its slot (and shutdown's join)
    // for two seconds at most.
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    drain_request_head(&mut stream, deadline)?;
    let mut body = String::new();
    registry.render_prometheus(&mut body);
    let head = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    write_with_deadline(&mut stream, head.as_bytes(), deadline)?;
    write_with_deadline(&mut stream, body.as_bytes(), deadline)?;
    stream.flush()
}

/// `write_all` under two bounds: the socket's `SO_SNDTIMEO` caps each
/// individual write, and `deadline` caps the whole transfer — so a
/// trickle-reading client cannot stretch a response out indefinitely by
/// draining one buffer's worth every 499 ms. Short writes (a full socket
/// buffer against a slow reader) are resumed from where they stopped.
fn write_with_deadline(
    stream: &mut TcpStream,
    mut data: &[u8],
    deadline: std::time::Instant,
) -> std::io::Result<()> {
    while !data.is_empty() {
        if std::time::Instant::now() >= deadline {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        match stream.write(data) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => data = &data[n..],
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            // WouldBlock / TimedOut from SO_SNDTIMEO included: give up on
            // this scraper and serve the next one.
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Reads until the blank line ending the HTTP request head (or EOF, a
/// hard cap, or `deadline` — a scraper's GET is a few hundred bytes sent
/// at once, so anything pathological is cut off rather than buffered).
fn drain_request_head(stream: &mut TcpStream, deadline: std::time::Instant) -> std::io::Result<()> {
    let mut buf = [0u8; 512];
    let mut tail = [0u8; 4];
    let mut read_total = 0usize;
    while read_total < 16 * 1024 && std::time::Instant::now() < deadline {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            return Ok(());
        }
        read_total += n;
        for &b in &buf[..n] {
            tail.rotate_left(1);
            tail[3] = b;
            if &tail == b"\r\n\r\n" {
                return Ok(());
            }
        }
    }
    Ok(())
}

/// Fetches the exposition body from a listener at `addr` — the client
/// half `scd metrics --addr` uses, kept here so the request/response
/// framing lives next to the responder it must match.
///
/// # Errors
/// Connection or read errors, or a response without the expected
/// `200 OK` status line.
pub fn fetch(addr: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    write!(stream, "GET /metrics HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n")?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let Some((head, body)) = response.split_once("\r\n\r\n") else {
        return Err(std::io::Error::other("malformed HTTP response: no header terminator"));
    };
    let status = head.lines().next().unwrap_or("");
    if !status.contains("200") {
        return Err(std::io::Error::other(format!("unexpected status line: {status}")));
    }
    Ok(body.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::text::validate_exposition;
    use std::time::Instant;

    fn wait_for(what: &str, done: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Holds each connection open until the peer closes or the listener
    /// stops, checking what the listener promised about the socket.
    fn hold_open(mut stream: TcpStream, stop: &AtomicBool) {
        assert_eq!(stream.read_timeout().unwrap(), Some(Duration::from_millis(20)));
        assert_eq!(stream.write_timeout().unwrap(), Some(Duration::from_millis(40)));
        let mut byte = [0u8; 1];
        while !stop.load(Ordering::Acquire) {
            match stream.read(&mut byte) {
                Ok(0) => return,
                Ok(_) => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) => {}
                Err(_) => return,
            }
        }
    }

    #[test]
    fn listener_caps_connections_counts_both_ways_and_joins_handlers() {
        let (accepted, refused) = (Arc::new(Counter::new()), Arc::new(Counter::new()));
        let mut listener = Listener::bind(
            "127.0.0.1:0",
            Budgets {
                thread_name: "scd-test-listen",
                read_timeout: Duration::from_millis(20),
                write_timeout: Duration::from_millis(40),
                max_connections: 2,
                accepted: Arc::clone(&accepted),
                refused: Arc::clone(&refused),
            },
        )
        .expect("bind");
        let addr = listener.local_addr();
        // Connections made before `start` wait in the backlog.
        let first = TcpStream::connect(addr).expect("connect before start");
        let exited = Arc::new(Counter::new());
        let handler_exits = Arc::clone(&exited);
        listener.start(move |stream, stop| {
            hold_open(stream, stop);
            handler_exits.inc();
        });
        let _second = TcpStream::connect(addr).expect("second");
        wait_for("two accepted connections", || accepted.get() == 2);
        // The third is over the cap: closed at once, counted, no handler.
        let mut third = TcpStream::connect(addr).expect("third");
        third.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        assert_eq!(third.read(&mut [0u8; 1]).expect("refusal is a clean close"), 0);
        assert_eq!((accepted.get(), refused.get()), (2, 1));
        // A slot frees when a peer leaves.
        drop(first);
        wait_for("the first handler to exit", || exited.get() == 1);
        let _fourth = TcpStream::connect(addr).expect("fourth");
        wait_for("the freed slot to be reused", || accepted.get() == 3);
        // Shutdown needs no wake-up connection and joins every handler,
        // including the two still holding open connections.
        listener.shutdown();
        assert_eq!(exited.get(), 3);
    }

    #[test]
    fn serves_valid_exposition_over_tcp() {
        let registry = Arc::new(Registry::new());
        let c = registry.counter("scd_listen_test_total", "requests observed by the test");
        c.add(3);
        let listener =
            MetricsListener::bind("127.0.0.1:0", Arc::clone(&registry)).expect("bind ephemeral");
        let addr = listener.local_addr().to_string();

        let body = fetch(&addr).expect("fetch metrics");
        validate_exposition(&body).expect("valid exposition");
        assert!(body.contains("scd_listen_test_total 3\n"), "body:\n{body}");

        // Values are read live: a second scrape sees the new count.
        c.add(4);
        let body = fetch(&addr).expect("second fetch");
        assert!(body.contains("scd_listen_test_total 7\n"), "body:\n{body}");
        listener.stop();
    }

    #[test]
    fn stop_joins_without_a_wakeup_connection() {
        let registry = Arc::new(Registry::new());
        let listener = MetricsListener::bind("127.0.0.1:0", registry).expect("bind");
        listener.stop(); // must return promptly with no client ever connecting
    }

    #[test]
    fn half_open_scraper_does_not_wedge_the_accept_loop() {
        let registry = Arc::new(Registry::new());
        registry.counter("scd_listen_halfopen_total", "half-open test counter").add(1);
        let listener = MetricsListener::bind("127.0.0.1:0", registry).expect("bind");
        let addr = listener.local_addr().to_string();
        // A client that connects and then sends nothing: the responder's
        // read timeout must cut it loose...
        let _mute = TcpStream::connect(&addr).expect("connect");
        // ...so a real scrape right behind it still gets served. The
        // fetch timeout is generous; without the read timeout on accepted
        // sockets this would block until the test harness killed us.
        let body = fetch(&addr).expect("scrape behind a half-open client");
        assert!(body.contains("scd_listen_halfopen_total 1\n"), "body:\n{body}");
        listener.stop();
    }

    #[test]
    fn non_reading_scraper_does_not_wedge_the_accept_loop() {
        let registry = Arc::new(Registry::new());
        // Make the exposition far larger than any socket buffer, so
        // writing it to a non-reading client MUST hit a short write.
        for i in 0..4_000 {
            let name: &'static str =
                Box::leak(format!("scd_listen_flood_{i}_total").into_boxed_str());
            registry.counter(name, "flood counter for the stalled-writer test").add(i);
        }
        let listener = MetricsListener::bind("127.0.0.1:0", Arc::clone(&registry)).expect("bind");
        let addr = listener.local_addr().to_string();
        // A scraper that sends a valid request and then never reads: the
        // response cannot fit in the socket buffer, so an unbounded
        // write_all would block the responder thread forever.
        let mut stalled = TcpStream::connect(&addr).expect("connect");
        write!(stalled, "GET /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
            .expect("send request");
        // The responder must abandon the stalled client and serve this one.
        let body = fetch(&addr).expect("scrape behind a non-reading client");
        assert!(body.contains("scd_listen_flood_0_total 0\n"), "body:\n{body}");
        drop(stalled);
        listener.stop();
    }
}
