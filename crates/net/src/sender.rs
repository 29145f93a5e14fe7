//! The ingest node: local sharded ingest + reliable frame shipping.
//!
//! Each node `i` in an `N`-node ring taps two key shards of the traffic
//! it sees (modeling a mirrored port that carries more than the node's
//! own responsibility):
//!
//! * its **data shard** `i` — the partition it is responsible for, and
//! * its **buddy shard** `(i−1+N) mod N` — its ring predecessor's
//!   partition, ingested only to build parity.
//!
//! Per interval the node ships `D_i` (data sketch + distinct keys) and
//! the parity sketch `P_i = D_{i−1} + D_i` with the buddy shard's key
//! list. Sketch cells are integer byte counts, so every cell of `P_i` is
//! an exact `f64` sum and the aggregator can recover a lost node's data
//! exactly: `D_{i−1} = P_i − D_i` cell for cell (IEEE-754 subtraction of
//! exact integers below 2⁵³ is exact). For the same reason both sketches
//! travel packed (`scd_sketch::wire::to_bytes_packed`: the non-zero cells
//! only, bit-exact), and dense only if a cell is not such an integer.
//!
//! Reliability is spool-then-send: the frame hits the on-disk
//! [`SpoolDir`] before the first transmission attempt and is deleted only
//! on the aggregator's `Ack`. An interval close collects the acks that
//! have already arrived and never waits for one; only
//! [`finish`](IngestNode::finish) does. Connection loss triggers
//! reconnects under the jittered [`RestartPolicy`] backoff; every
//! reconnect resends the whole spool (the aggregator dedups by
//! `(node, interval)`), and so does `finish` while acks are missing.
//!
//! On a live connection a frame is resent on proof of loss, never for
//! being slow. TCP delivers in order, and the aggregator acks every frame
//! at receipt, in order, so the acks answer the frames written, oldest
//! first. A spooled interval is lost only when its latest transmission on
//! this connection precedes one that was acknowledged: the frame was
//! dropped before it reached the socket. A close resends exactly those.

use crate::frame::{Frame, SCDN, VERSION};
use crate::metrics::NetMetrics;
use crate::spool::SpoolDir;
use crate::NetError;
use scd_core::engine::ShardedIngest;
use scd_core::supervisor::RestartPolicy;
use scd_sketch::{wire, SketchConfig};
use scd_traffic::{shard_of_key, Corruptor, NetFaultKind, NetFaultPlan};
use std::collections::{BTreeMap, VecDeque};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration of one ingest node.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// This node's id in `0..nodes`.
    pub node: u32,
    /// Ring size.
    pub nodes: u32,
    /// Sketch family — must match the aggregator's exactly.
    pub sketch: SketchConfig,
    /// Shards of each of the two local ingest halves: one folds on the
    /// node's own thread, more run a worker thread each.
    pub shards: usize,
    /// Aggregator address (`host:port`).
    pub addr: String,
    /// Spool directory for unacknowledged interval frames.
    pub spool_dir: PathBuf,
    /// Reconnect budget and backoff schedule.
    pub retry: RestartPolicy,
    /// Test-only network fault injection, consulted once per interval
    /// frame transmission. `None` in production.
    pub fault: Option<NetFaultPlan>,
    /// Optional metric sink.
    pub metrics: Option<Arc<NetMetrics>>,
}

/// End-of-run accounting from [`IngestNode::finish`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeSummary {
    /// Intervals this node closed and shipped.
    pub intervals_total: u64,
    /// Intervals still unacknowledged when the node gave up waiting.
    pub unacked: Vec<u64>,
}

/// One ingest vantage point of the distributed plane.
pub struct IngestNode {
    config: NodeConfig,
    /// The two ingest halves; each keeps the merged table a close encodes.
    data: ShardedIngest,
    buddy: ShardedIngest,
    /// What a pushed slice holds for each half, in stream order; reused.
    data_items: Vec<(u64, f64)>,
    buddy_items: Vec<(u64, f64)>,
    buddy_id: u32,
    spool: SpoolDir,
    /// The spooled intervals not yet acknowledged, each with the number
    /// of its latest transmission on this connection (`None`: not sent on
    /// it yet).
    unacked: BTreeMap<u64, Option<u64>>,
    conn: Option<TcpStream>,
    /// The numbers of the interval frames written to `conn` and not yet
    /// answered, oldest first. The aggregator acks every interval frame
    /// it receives, in order, duplicates included: the next ack answers
    /// the front one, and when this is empty no ack is on its way.
    awaiting: VecDeque<u64>,
    /// The latest transmission on this connection an ack has answered.
    acked_through: Option<u64>,
    inbuf: Vec<u8>,
    interval: u64,
    /// Transmissions so far, each numbered by the count before it: what
    /// the fault plan and the loss rule both go by.
    frame_seq: u64,
    connect_attempts: u32,
}

/// Read timeout on the node's socket, and so the length of one turn of
/// [`IngestNode::finish`]'s wait for the last acks. An interval close
/// never waits on it: its ack drain does not block.
pub const ACK_POLL: Duration = Duration::from_millis(10);

impl IngestNode {
    /// Builds the node's two ingest halves, opens its spool, and connects to
    /// the aggregator (with retry/backoff). Frames already spooled by a
    /// previous incarnation of this node id are resent on connect.
    ///
    /// # Errors
    /// Invalid configuration, spool I/O failure, or the connect budget
    /// running out.
    pub fn new(config: NodeConfig) -> Result<IngestNode, NetError> {
        if config.nodes == 0 || config.node >= config.nodes {
            return Err(NetError::Config(format!(
                "node id {} outside ring of {} nodes",
                config.node, config.nodes
            )));
        }
        let data = ShardedIngest::new(config.sketch, config.shards)?;
        let buddy = ShardedIngest::new(config.sketch, config.shards)?;
        let spool = SpoolDir::open(&config.spool_dir, config.node)?;
        let unacked = spool.pending()?.into_iter().map(|interval| (interval, None)).collect();
        let buddy_id = (config.node + config.nodes - 1) % config.nodes;
        let mut node = IngestNode {
            config,
            data,
            buddy,
            data_items: Vec::new(),
            buddy_items: Vec::new(),
            buddy_id,
            spool,
            unacked,
            conn: None,
            awaiting: VecDeque::new(),
            acked_through: None,
            inbuf: Vec::new(),
            interval: 0,
            frame_seq: 0,
            connect_attempts: 0,
        };
        node.ensure_connected()?;
        Ok(node)
    }

    /// The node's ring-predecessor id, whose shard it taps for parity.
    pub fn buddy(&self) -> u32 {
        self.buddy_id
    }

    /// Offers a slice of updates from the mirrored stream. The node keeps
    /// only the updates landing in its data or buddy shard, each half its
    /// own subsequence in stream order; everything else is some other
    /// node's responsibility and is ignored.
    ///
    /// # Errors
    /// [`NetError::Engine`] if a local shard worker died.
    pub fn push_slice(&mut self, items: &[(u64, f64)]) -> Result<(), NetError> {
        let nodes = self.config.nodes as usize;
        self.data_items.clear();
        self.buddy_items.clear();
        for &(key, value) in items {
            let shard = shard_of_key(key, nodes) as u32;
            if shard == self.config.node {
                self.data_items.push((key, value));
            } else if shard == self.buddy_id {
                self.buddy_items.push((key, value));
            }
        }
        self.data.push_slice(&self.data_items)?;
        self.buddy.push_slice(&self.buddy_items)?;
        Ok(())
    }

    /// Closes the current interval: harvests both ingest halves into the
    /// node's two tables, encodes data and parity, spools the frame, and
    /// attempts transmission — then collects whatever acks are already in
    /// and resends the intervals they prove lost.
    /// Network failure is not an error here — the frame is durable in the
    /// spool and will be resent; only local failures (engine, disk)
    /// surface.
    ///
    /// # Errors
    /// Ingest harvest or spool I/O failures.
    pub fn end_interval(&mut self) -> Result<(), NetError> {
        let (data, data_keys) = self.data.end_interval_sketch()?;
        let (buddy, buddy_keys) = self.buddy.end_interval_sketch()?;
        let frame = Frame::Interval {
            node: self.config.node,
            interval: self.interval,
            data: wire::to_bytes_packed(data),
            data_keys,
            // P_i = D_{i−1} + D_i, summed cell by cell as it is written:
            // exact integer sums, so the aggregator's subtraction recovers
            // the buddy's cells bit for bit.
            parity: wire::to_bytes_packed_sum(buddy, data)?,
            parity_keys: buddy_keys,
        };
        let bytes = frame.encode();
        self.spool.store(self.interval, &bytes)?;
        self.unacked.insert(self.interval, None);
        // A reconnect resends the entire spool (current frame included);
        // otherwise transmit the new frame directly. A failed connect
        // leaves the frame spooled; the next interval retries.
        if let Ok(false) = self.ensure_connected() {
            self.send_interval_bytes(self.interval, &bytes, false);
        }
        self.poll_acks(false);
        self.resend_lost();
        self.interval += 1;
        if let Some(m) = &self.config.metrics {
            m.sender.spool_pending.set(self.unacked.len() as f64);
        }
        Ok(())
    }

    /// Announces end of stream and waits (up to `deadline`) for every
    /// spooled interval to be acknowledged, reconnecting and resending as
    /// needed.
    ///
    /// # Errors
    /// Spool I/O failures. Running out of time is *not* an error: the
    /// summary lists what remained unacknowledged.
    pub fn finish(mut self, deadline: Duration) -> Result<NodeSummary, NetError> {
        let start = Instant::now();
        let bye = Frame::Bye { node: self.config.node, intervals_total: self.interval }.encode();
        self.send_plain(&bye);
        let mut last_resend = Instant::now();
        loop {
            // The one timed wait of the plane: a turn sleeps on the socket,
            // so it ends when an ack lands, not a fixed nap later. With no
            // socket to sleep on (lost, or refused on every reconnect) the
            // nap is what keeps the loop from spinning.
            self.poll_acks(true);
            if self.conn.is_none() {
                std::thread::sleep(ACK_POLL);
            }
            let pending = self.spool.pending()?;
            if let Some(m) = &self.config.metrics {
                m.sender.spool_pending.set(pending.len() as f64);
            }
            // Leave only once no ack is on its way (or the connection is
            // gone): a socket dropped with unread bytes is reset, not
            // closed, and a reset lets the aggregator's kernel discard the
            // `Bye` it has not read yet.
            if pending.is_empty() && (self.awaiting.is_empty() || self.conn.is_none()) {
                self.send_plain(&bye); // repeat in case the first copy died with a connection
                return Ok(NodeSummary { intervals_total: self.interval, unacked: vec![] });
            }
            if start.elapsed() >= deadline {
                return Ok(NodeSummary { intervals_total: self.interval, unacked: pending });
            }
            match self.ensure_connected() {
                Ok(true) => {
                    self.send_plain(&bye);
                    last_resend = Instant::now();
                }
                Ok(false) => {
                    if last_resend.elapsed() >= Duration::from_millis(200) {
                        self.resend_all()?;
                        self.send_plain(&bye);
                        if let Some(m) = &self.config.metrics {
                            m.sender.heartbeats_total.inc();
                        }
                        last_resend = Instant::now();
                    }
                }
                // Connect budget exhausted; keep polling until the
                // deadline in case the aggregator comes back.
                Err(_) => {}
            }
        }
    }

    /// Connects (or verifies the existing connection), sending `Hello`
    /// and replaying the spool after any fresh connect. Returns whether a
    /// fresh connect (and therefore a full spool resend) happened.
    fn ensure_connected(&mut self) -> Result<bool, NetError> {
        if self.conn.is_some() {
            return Ok(false);
        }
        loop {
            if self.connect_attempts > self.config.retry.max_restarts {
                return Err(NetError::ConnectFailed { attempts: self.connect_attempts });
            }
            self.connect_attempts += 1;
            match TcpStream::connect(&self.config.addr) {
                Ok(stream) => {
                    let _ = stream.set_nodelay(true);
                    let _ = stream.set_read_timeout(Some(ACK_POLL));
                    self.conn = Some(stream);
                    self.awaiting.clear();
                    self.acked_through = None;
                    self.unacked.values_mut().for_each(|sent| *sent = None);
                    self.inbuf.clear();
                    let hello = Frame::Hello {
                        node: self.config.node,
                        nodes: self.config.nodes,
                        h: self.config.sketch.h as u64,
                        k: self.config.sketch.k as u64,
                        seed: self.config.sketch.seed,
                        version: VERSION,
                    }
                    .encode();
                    if !self.write_raw(&hello) {
                        continue; // connection died immediately; retry
                    }
                    if let Some(m) = &self.config.metrics {
                        m.sender.connects_total.inc();
                    }
                    // The handshake held: the aggregator is reachable, so
                    // future disconnects deserve a full budget again.
                    self.connect_attempts = 0;
                    self.resend_all()?;
                    return Ok(true);
                }
                Err(_) => {
                    let backoff = self.config.retry.backoff_jittered(
                        self.connect_attempts,
                        self.config.sketch.seed ^ u64::from(self.config.node),
                    );
                    if let Some(m) = &self.config.metrics {
                        m.sender.connect_failures_total.inc();
                        m.sender.backoff_ms_total.add(backoff.as_millis() as u64);
                    }
                    std::thread::sleep(backoff);
                }
            }
        }
    }

    /// Resends every spooled frame, oldest first.
    fn resend_all(&mut self) -> Result<(), NetError> {
        for interval in self.spool.pending()? {
            if let Ok(bytes) = self.spool.load(interval) {
                self.send_interval_bytes(interval, &bytes, true);
            }
        }
        Ok(())
    }

    /// Resends the spooled intervals whose latest transmission on this
    /// connection precedes an acknowledged one: with in-order delivery and
    /// in-order acks, those never reached the aggregator (module docs).
    /// An interval whose ack is merely late is left alone.
    fn resend_lost(&mut self) {
        let Some(acked) = self.acked_through else { return };
        let lost: Vec<u64> = self
            .unacked
            .iter()
            .filter(|(_, sent)| sent.is_some_and(|seq| seq < acked))
            .map(|(&interval, _)| interval)
            .collect();
        for interval in lost {
            if let Ok(bytes) = self.spool.load(interval) {
                self.send_interval_bytes(interval, &bytes, true);
            }
        }
    }

    /// Transmits one interval frame, consulting the fault plan, and
    /// records it as `interval`'s latest transmission — a dropped frame
    /// included: it counts as sent, and the loss rule finds it out.
    fn send_interval_bytes(&mut self, interval: u64, bytes: &[u8], resend: bool) {
        let seq = self.frame_seq;
        self.frame_seq += 1;
        if let Some(sent) = self.unacked.get_mut(&interval) {
            *sent = Some(seq);
        }
        match self.config.fault.as_ref().and_then(|f| f.action_for(seq)) {
            Some(NetFaultKind::DropFrame) => return, // "sent" into the void
            Some(NetFaultKind::DuplicateFrame) => {
                self.write_frame(seq, bytes);
                self.write_frame(seq, bytes);
            }
            Some(NetFaultKind::CorruptByte { seed }) => {
                let mut dirty = bytes.to_vec();
                Corruptor::new(seed).flip_one_byte(&mut dirty);
                self.write_frame(seq, &dirty);
            }
            Some(NetFaultKind::TruncateAndClose { keep }) => {
                let keep = keep.min(bytes.len());
                self.write_raw(&bytes[..keep]);
                if let Some(conn) = self.conn.take() {
                    let _ = conn.shutdown(std::net::Shutdown::Both);
                }
            }
            Some(NetFaultKind::Delay(pause)) => {
                std::thread::sleep(pause);
                self.write_frame(seq, bytes);
            }
            None => self.write_frame(seq, bytes),
        }
        if let Some(m) = &self.config.metrics {
            if resend {
                m.sender.frames_resent_total.inc();
            } else {
                m.sender.frames_sent_total.inc();
            }
        }
    }

    /// Writes one whole interval frame, transmission `seq`, which the
    /// aggregator will answer with one `Ack` (a corrupted copy is answered
    /// by a hang-up instead, and a new connection owes nothing).
    fn write_frame(&mut self, seq: u64, bytes: &[u8]) {
        if self.write_raw(bytes) {
            self.awaiting.push_back(seq);
        }
    }

    /// Transmits a non-interval frame (hello/bye), no fault injection.
    fn send_plain(&mut self, bytes: &[u8]) {
        if self.conn.is_none() && self.ensure_connected().is_err() {
            return;
        }
        self.write_raw(bytes);
    }

    /// Writes bytes to the live connection; on failure the connection is
    /// torn down (a later `ensure_connected` rebuilds and resends).
    fn write_raw(&mut self, bytes: &[u8]) -> bool {
        let Some(conn) = &mut self.conn else { return false };
        match conn.write_all(bytes).and_then(|()| conn.flush()) {
            Ok(()) => {
                if let Some(m) = &self.config.metrics {
                    m.sender.bytes_sent_total.add(bytes.len() as u64);
                }
                true
            }
            Err(_) => {
                self.conn = None;
                false
            }
        }
    }

    /// Drains the ack frames the socket already holds and returns: the
    /// reads are non-blocking, so an interval close never sleeps on an ack
    /// that is still in flight — the next close (or `finish`) collects it.
    /// With `wait`, the first read alone blocks, for at most [`ACK_POLL`]:
    /// `finish`'s loop wakes when an ack arrives. Writes always block (the
    /// socket is switched back before returning). Partial frames stay
    /// buffered across polls, so a slow aggregator never desynchronizes
    /// the stream.
    fn poll_acks(&mut self, wait: bool) {
        let mut dead = false;
        if let Some(conn) = &mut self.conn {
            let mut chunk = [0u8; 4096];
            let mut blocking = wait;
            dead = conn.set_nonblocking(!blocking).is_err();
            while !dead {
                match conn.read(&mut chunk) {
                    Ok(0) => dead = true,
                    Ok(n) => {
                        self.inbuf.extend_from_slice(&chunk[..n]);
                        if blocking {
                            blocking = false;
                            dead = conn.set_nonblocking(true).is_err();
                        }
                    }
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut =>
                    {
                        break
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => dead = true,
                }
            }
            // A socket stuck non-blocking would fail the next large write
            // half way through a frame: treat it as lost instead.
            dead |= conn.set_nonblocking(false).is_err();
        }
        if dead {
            self.conn = None;
        }
        // Parse complete frames out of the buffer.
        loop {
            let total = match SCDN.frame_len(&self.inbuf) {
                Ok(Some(total)) if total <= self.inbuf.len() => total,
                Ok(_) => return, // the rest of the frame is still in flight
                Err(_) => return self.desynchronized(),
            };
            match Frame::decode(&self.inbuf[..total]) {
                Ok(Frame::Ack { interval }) => {
                    if let Some(seq) = self.awaiting.pop_front() {
                        self.acked_through = Some(seq);
                    }
                    self.unacked.remove(&interval);
                    let _ = self.spool.ack(interval);
                    if let Some(m) = &self.config.metrics {
                        m.sender.acks_total.inc();
                    }
                }
                Ok(_) => {} // nothing else flows aggregator → node today
                Err(_) => return self.desynchronized(),
            }
            self.inbuf.drain(..total);
        }
    }

    /// The inbound stream is hostile or out of step: drop the connection
    /// and start over; the spool still holds everything unacknowledged.
    fn desynchronized(&mut self) {
        self.conn = None;
        self.inbuf.clear();
    }
}

impl std::fmt::Debug for IngestNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IngestNode")
            .field("node", &self.config.node)
            .field("nodes", &self.config.nodes)
            .field("interval", &self.interval)
            .field("connected", &self.conn.is_some())
            .finish()
    }
}
