//! Metric inventory of the distributed plane, in the same
//! register-against-one-[`Registry`] style as `scd_core::telemetry` —
//! node-side transport counters and aggregator-side plane health, so an
//! operator can see lag, retries, reconnects and recovered intervals
//! without reading logs.

use scd_obs::{Counter, Gauge, Registry};
use std::sync::Arc;

/// Ingest-node transport metrics.
#[derive(Debug)]
pub struct SenderMetrics {
    /// Interval frames sent (first attempts).
    pub frames_sent_total: Arc<Counter>,
    /// Interval frames resent from the spool.
    pub frames_resent_total: Arc<Counter>,
    /// Bytes written to the aggregator connection: every frame, resends
    /// and handshakes included.
    pub bytes_sent_total: Arc<Counter>,
    /// Acks received from the aggregator.
    pub acks_total: Arc<Counter>,
    /// TCP (re)connects performed, including the first.
    pub connects_total: Arc<Counter>,
    /// Failed connect attempts (each is followed by jittered backoff).
    pub connect_failures_total: Arc<Counter>,
    /// Milliseconds slept in reconnect backoff.
    pub backoff_ms_total: Arc<Counter>,
    /// Intervals currently spooled awaiting ack — the node's lag.
    pub spool_pending: Arc<Gauge>,
    /// Rounds of [`IngestNode::finish`](crate::IngestNode::finish) that
    /// resent the whole spool and a `Bye` while acks were missing.
    pub heartbeats_total: Arc<Counter>,
}

/// Aggregator-side plane metrics.
#[derive(Debug)]
pub struct AggregatorMetrics {
    /// Interval frames accepted (first copy per `(node, interval)`).
    pub frames_total: Arc<Counter>,
    /// Duplicate interval frames dropped by dedup.
    pub duplicates_total: Arc<Counter>,
    /// Connections torn down on a decode/handshake error, a mid-frame or
    /// ack stall, or refused at the connection cap.
    pub rejected_connections_total: Arc<Counter>,
    /// Intervals emitted with every node present.
    pub full_intervals_total: Arc<Counter>,
    /// Intervals emitted after recovering one lost node from parity.
    pub recovered_intervals_total: Arc<Counter>,
    /// Intervals emitted as explicitly flagged partials.
    pub partial_intervals_total: Arc<Counter>,
    /// Nodes currently past their liveness deadline.
    pub nodes_down: Arc<Gauge>,
    /// Deepest emit lag observed: buffered-but-unemittable intervals.
    pub max_lag: Arc<Gauge>,
    /// Detector panics absorbed by the aggregator's supervisor.
    pub detector_restarts_total: Arc<Counter>,
}

/// One handle wiring the distributed plane to a [`Registry`]. A process
/// is either a node or the aggregator, but registering both sides is
/// harmless — unused metrics just render as zeros.
#[derive(Debug)]
pub struct NetMetrics {
    /// Node-side transport metrics.
    pub sender: SenderMetrics,
    /// Aggregator-side plane metrics.
    pub aggregator: AggregatorMetrics,
}

impl NetMetrics {
    /// Registers the inventory against `registry`. Call once per process.
    pub fn register(registry: &Registry) -> Arc<Self> {
        let sender = SenderMetrics {
            frames_sent_total: registry
                .counter("scd_net_frames_sent_total", "interval frames sent (first attempts)"),
            frames_resent_total: registry
                .counter("scd_net_frames_resent_total", "interval frames resent from the spool"),
            bytes_sent_total: registry.counter(
                "scd_net_sender_bytes_sent_total",
                "bytes written to the aggregator connection",
            ),
            acks_total: registry.counter("scd_net_acks_total", "acks received"),
            connects_total: registry.counter("scd_net_connects_total", "TCP (re)connects"),
            connect_failures_total: registry
                .counter("scd_net_connect_failures_total", "failed connect attempts"),
            backoff_ms_total: registry
                .counter("scd_net_backoff_ms_total", "milliseconds slept in reconnect backoff"),
            spool_pending: registry
                .gauge("scd_net_spool_pending", "intervals spooled awaiting ack"),
            heartbeats_total: registry
                .counter("scd_net_heartbeats_total", "finish rounds that resent the spool and Bye"),
        };
        let aggregator = AggregatorMetrics {
            frames_total: registry.counter("scd_net_agg_frames_total", "interval frames accepted"),
            duplicates_total: registry
                .counter("scd_net_agg_duplicates_total", "duplicate interval frames dropped"),
            rejected_connections_total: registry.counter(
                "scd_net_agg_rejected_connections_total",
                "connections dropped on a decode, handshake or stall error, or refused at the cap",
            ),
            full_intervals_total: registry
                .counter("scd_net_agg_full_intervals_total", "intervals with every node present"),
            recovered_intervals_total: registry.counter(
                "scd_net_agg_recovered_intervals_total",
                "intervals recovered from parity after a node loss",
            ),
            partial_intervals_total: registry.counter(
                "scd_net_agg_partial_intervals_total",
                "intervals emitted as flagged partials",
            ),
            nodes_down: registry
                .gauge("scd_net_agg_nodes_down", "nodes past their liveness deadline"),
            max_lag: registry.gauge("scd_net_agg_max_lag", "buffered intervals not yet emittable"),
            detector_restarts_total: registry.counter(
                "scd_net_agg_detector_restarts_total",
                "detector panics absorbed by the aggregator supervisor",
            ),
        };
        Arc::new(NetMetrics { sender, aggregator })
    }
}
