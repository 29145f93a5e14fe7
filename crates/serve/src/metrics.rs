//! Serving-plane telemetry, registered into an `scd-obs` [`Registry`]
//! alongside the pipeline's own metrics so one `/metrics` endpoint (or
//! one `scd-obs` snapshot) covers ingest and serving together.

use scd_obs::{Counter, Gauge, Histogram, Registry};
use std::sync::Arc;

/// Counters, gauges, and latency histograms for the serving plane:
/// snapshot handoffs on the write side, connections and per-query-kind
/// traffic on the read side.
#[derive(Debug)]
pub struct ServeMetrics {
    /// Interval snapshots published by the [`ServingPlane`] observer.
    ///
    /// [`ServingPlane`]: crate::ServingPlane
    pub snapshots_total: Arc<Counter>,
    /// Interval index of the currently served view (−1 until the first
    /// snapshot).
    pub view_interval: Arc<Gauge>,
    /// Epochs retained by the serving replica archive.
    pub view_epochs: Arc<Gauge>,
    /// Heap bytes of the serving replica archive plus the live slim
    /// sketch.
    pub view_bytes: Arc<Gauge>,
    /// Nanoseconds spent building and publishing one snapshot: the fat →
    /// slim projection on the observer's thread, plus replica push and
    /// swap wherever the plane applies them. No table is copied.
    pub snapshot_ns: Arc<Histogram>,
    /// Connections accepted by the query listener.
    pub connections_total: Arc<Counter>,
    /// Connections refused because the concurrent-connection cap was hit.
    pub connections_refused: Arc<Counter>,
    /// Queries answered, across all kinds and connections.
    pub queries_total: Arc<Counter>,
    /// Queries answered with `Response::Error` (bad request or archive
    /// failure — protocol-level failures close the connection instead).
    pub query_errors: Arc<Counter>,
    /// Queries answered with `Response::NoData` (empty window, warm-up).
    pub query_nodata: Arc<Counter>,
    /// Nanoseconds from decoded request to encoded response (answer time
    /// only, excluding socket I/O).
    pub answer_ns: Arc<Histogram>,
    /// Queries answered from the per-view answer cache (no archive work).
    pub cache_hits: Arc<Counter>,
    /// Cacheable queries that missed and were computed (then cached).
    pub cache_misses: Arc<Counter>,
    /// Requests coalesced onto another identical in-flight computation
    /// (a subset of `cache_hits`: the hit happened while the first
    /// requester was still computing).
    pub coalesced_total: Arc<Counter>,
    /// Intervals handed to the background snapshot rebuild thread and
    /// not yet reflected in the published view (0 when rebuilding
    /// inline).
    pub rebuild_lag: Arc<Gauge>,
}

impl ServeMetrics {
    /// Registers every serving metric under the `scd_serve_` prefix and
    /// returns the handle bundle (shareable across the observer, the
    /// listener, and its connection threads).
    pub fn register(registry: &Registry) -> Arc<ServeMetrics> {
        Arc::new(ServeMetrics {
            snapshots_total: registry.counter(
                "scd_serve_snapshots_total",
                "Interval snapshots published to the serving view",
            ),
            view_interval: registry
                .gauge("scd_serve_view_interval", "Interval index of the served view"),
            view_epochs: registry
                .gauge("scd_serve_view_epochs", "Epochs retained by the serving replica archive"),
            view_bytes: registry.gauge(
                "scd_serve_view_bytes",
                "Heap bytes of the serving replica archive and live slim sketch",
            ),
            snapshot_ns: registry.histogram(
                "scd_serve_snapshot_ns",
                "Nanoseconds to build and publish one interval snapshot",
            ),
            connections_total: registry
                .counter("scd_serve_connections_total", "Query connections accepted"),
            connections_refused: registry.counter(
                "scd_serve_connections_refused",
                "Query connections refused at the concurrency cap",
            ),
            queries_total: registry.counter("scd_serve_queries_total", "Queries answered"),
            query_errors: registry
                .counter("scd_serve_query_errors", "Queries answered with an error response"),
            query_nodata: registry
                .counter("scd_serve_query_nodata", "Queries answered with a no-data response"),
            answer_ns: registry.histogram(
                "scd_serve_answer_ns",
                "Nanoseconds from decoded request to encoded response",
            ),
            cache_hits: registry
                .counter("scd_serve_cache_hits", "Queries answered from the per-view answer cache"),
            cache_misses: registry
                .counter("scd_serve_cache_misses", "Cacheable queries computed on a cache miss"),
            coalesced_total: registry.counter(
                "scd_serve_coalesced_total",
                "Requests coalesced onto an identical in-flight computation",
            ),
            rebuild_lag: registry
                .gauge("scd_serve_rebuild_lag", "Intervals queued for background snapshot rebuild"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registers_under_serve_prefix() {
        let registry = Registry::new();
        let metrics = ServeMetrics::register(&registry);
        metrics.snapshots_total.inc();
        metrics.view_interval.set(3.0);
        metrics.answer_ns.record(1000);
        let mut text = String::new();
        registry.render_prometheus(&mut text);
        assert!(text.contains("scd_serve_snapshots_total 1"));
        assert!(text.contains("scd_serve_view_interval 3"));
        assert!(text.contains("scd_serve_answer_ns"));
    }
}
