//! Std-only telemetry for the sketch-change pipeline.
//!
//! Production sketch deployments treat observability as a first-class
//! concern: per-stage latency, overload/restart behavior, and alarm rates
//! must be visible live, not reconstructed from end-of-run benchmark
//! JSON. This crate provides the primitives the pipeline reports through,
//! under the same constraints as the hot path it instruments:
//!
//! - **Fixed allocation.** Every metric is a fixed-size structure
//!   ([`Counter`], [`Gauge`], and a 64-bucket log₂ [`Histogram`])
//!   allocated once at registration. Recording is a handful of atomic
//!   adds; rendering reuses caller-provided `String` buffers. Nothing on
//!   the record path allocates.
//! - **Lock-free recording.** Shared metrics use relaxed atomics; worker
//!   threads accumulate into private [`LocalHistogram`]s / plain counters
//!   and merge them into the shared set once per interval (the engine
//!   does this at its COMBINE barrier), so the per-record path touches no
//!   shared cache lines at all.
//! - **Two render targets.** [`Registry::render_jsonl`] emits one flat
//!   JSON object per interval (machine-diffable snapshots), and
//!   [`Registry::render_prometheus`] emits the Prometheus text
//!   exposition format. [`parse_flat_json`] and [`validate_exposition`]
//!   close the loop for tooling and CI smoke tests without external
//!   dependencies.
//! - **Optional scrape endpoint.** [`MetricsListener`] answers HTTP
//!   requests with the live exposition off the pipeline's threads (no
//!   web framework, no pipeline involvement); [`fetch`] is the matching
//!   client half. It is built on [`Listener`], the bounded accept loop
//!   every TCP server in the workspace shares.
//!
//! ```
//! use scd_obs::Registry;
//!
//! let registry = Registry::new();
//! let records = registry.counter("scd_records_total", "records ingested");
//! let detect = registry.histogram("scd_detect_ns", "per-interval detect latency");
//!
//! records.add(1024);
//! let span = detect.span();
//! // ... detect an interval ...
//! drop(span); // records elapsed nanoseconds
//!
//! let mut line = String::new();
//! registry.render_jsonl(7, &mut line);
//! assert!(line.starts_with("{\"interval\":7,"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod listen;
mod metric;
mod registry;
mod text;

pub use listen::{fetch, Budgets, Listener, MetricsListener};
pub use metric::{Counter, Gauge, Histogram, LocalHistogram, Span, Stopwatch, BUCKETS};
pub use registry::Registry;
pub use text::{parse_flat_json, validate_exposition};
