//! When an ingest node resends a spooled interval on a live connection.
//!
//! TCP delivers in order and the aggregator acks every interval frame at
//! receipt, in order. So an unacknowledged interval is lost only when its
//! latest transmission precedes one that was acknowledged; an ack that is
//! merely late proves nothing. Both sides of that rule, against peers
//! driven by hand: one that never acks (nothing may be resent before
//! `finish`, however many closes pass) and one that acks everything
//! beside a dropped frame (the drop is resent exactly once, after the ack
//! that proves it).

use scd_core::supervisor::RestartPolicy;
use scd_net::{Frame, IngestNode, NetMetrics, NodeConfig};
use scd_sketch::SketchConfig;
use scd_traffic::NetFaultPlan;
use std::io::Write;
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

const TINY: SketchConfig = SketchConfig { h: 1, k: 2, seed: 7 };

fn spool_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("scd-net-resend-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A hand-driven aggregator on its own thread: reads frames until the
/// node hangs up, acknowledging each interval frame when `acks` is set,
/// and returns the intervals of the frames it received, in order.
fn peer(acks: bool) -> (String, JoinHandle<Vec<u64>>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let thread = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().expect("accept");
        conn.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut received = Vec::new();
        loop {
            match Frame::read_from(&mut conn) {
                Ok(Frame::Interval { interval, .. }) => {
                    received.push(interval);
                    if acks {
                        conn.write_all(&Frame::Ack { interval }.encode()).expect("ack");
                    }
                }
                Ok(_) => {}
                Err(_) => return received,
            }
        }
    });
    (addr, thread)
}

fn node(
    addr: String,
    spool: PathBuf,
    fault: Option<NetFaultPlan>,
) -> (IngestNode, Arc<NetMetrics>) {
    let metrics = NetMetrics::register(&scd_obs::Registry::new());
    let node = IngestNode::new(NodeConfig {
        node: 0,
        nodes: 1,
        sketch: TINY,
        shards: 1,
        addr,
        spool_dir: spool,
        retry: RestartPolicy { max_restarts: 5, backoff_base_ms: 5, backoff_cap_ms: 100 },
        fault,
        metrics: Some(Arc::clone(&metrics)),
    })
    .expect("node up");
    (node, metrics)
}

fn close(node: &mut IngestNode, t: u64) {
    node.push_slice(&[(t, 100.0), (t + 1, 40.0)]).expect("push");
    node.end_interval().expect("close interval");
}

/// However many closes pass without an ack, no ack has proved a frame
/// lost: every interval goes out once, and the spool keeps them all.
#[test]
fn a_peer_that_never_acks_gets_every_frame_once() {
    const CLOSES: u64 = 12;
    let (addr, peer) = peer(false);
    let spool = spool_dir("mute");
    let (mut node, metrics) = node(addr, spool.clone(), None);
    for t in 0..CLOSES {
        close(&mut node, t);
    }
    assert_eq!(metrics.sender.frames_sent_total.get(), CLOSES);
    assert_eq!(metrics.sender.frames_resent_total.get(), 0, "resent with no loss proven");
    assert_eq!(metrics.sender.spool_pending.get(), CLOSES as f64);
    drop(node);
    let received = peer.join().expect("peer thread");
    let _ = std::fs::remove_dir_all(&spool);
    assert_eq!(received, (0..CLOSES).collect::<Vec<_>>());
}

/// The first transmission of interval 1 is dropped. The ack of interval 2
/// proves it lost, and the next close resends it — once, before `finish`.
#[test]
fn a_dropped_frame_is_resent_once_an_ack_proves_it_lost() {
    const CLOSES: u64 = 6;
    let (addr, peer) = peer(true);
    let spool = spool_dir("dropped");
    let (mut node, metrics) = node(addr, spool.clone(), Some(NetFaultPlan::none().and_drop_at(1)));
    for t in 0..CLOSES {
        close(&mut node, t);
        // Loopback acks arrive in microseconds; give each a wide margin.
        std::thread::sleep(Duration::from_millis(30));
    }
    assert_eq!(metrics.sender.frames_resent_total.get(), 1, "the drop is resent exactly once");
    let summary = node.finish(Duration::from_secs(10)).expect("finish");
    assert!(summary.unacked.is_empty(), "spool must drain: {:?}", summary.unacked);
    let received = peer.join().expect("peer thread");
    let _ = std::fs::remove_dir_all(&spool);
    let first = |interval| received.iter().position(|&i| i == interval);
    assert!(first(1) > first(2), "interval 1 arrived before its loss was proven: {received:?}");
    let mut intervals = received.clone();
    intervals.sort_unstable();
    intervals.dedup();
    assert_eq!(intervals, (0..CLOSES).collect::<Vec<_>>());
}
