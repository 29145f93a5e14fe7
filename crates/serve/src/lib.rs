//! Read-optimized serving plane for the change-detection pipeline: query
//! the detector's state — live and historical — while it ingests, without
//! ever blocking the write path.
//!
//! The paper's pipeline is write-optimized end to end: the k-ary sketch
//! takes `H` adds per UPDATE, and everything read-shaped (the stream
//! total, per-key estimates, change queries) is recomputed at interval
//! turnover. That is the right trade for ingest, and the wrong one for a
//! query front end, where many concurrent readers hit the *same* frozen
//! state between turnovers. This crate adds the read side as a separate
//! plane, in the spirit of SF-sketches (a write-optimized "fat" stage
//! paired with a read-optimized "slim" stage, synced at boundaries):
//!
//! * [`SlimSketch`] — a compact `f32` projection of the latest error
//!   sketch with the stream total precomputed: point queries touch `H`
//!   cells instead of rescanning a `K`-wide row, at a rounding cost
//!   bounded by [`SlimSketch::error_bound`] (zero for integer-count
//!   streams).
//! * [`ServingPlane`] — an [`IntervalObserver`](scd_core::IntervalObserver)
//!   that converts every interval close into an immutable [`ServingView`]
//!   (slim sketch + interval report + a copy-on-write replica of the
//!   error-sketch archive), published by swapping one `Arc`: readers
//!   never block the thread that publishes, and a reader mid-query keeps its
//!   interval-consistent world alive for as long as it needs it.
//! * [`QueryServer`] / [`QueryClient`] — a multi-client TCP query
//!   service speaking [`proto`]'s `SCDQ` frames (length-prefixed,
//!   CRC-guarded, hostile-input-safe), answering live estimates,
//!   historical range estimates, heavy-change queries, and per-key
//!   histories; [`answer`] is the pure per-query core the CLI shares.
//! * [`ServeMetrics`] — serving telemetry registered into the same
//!   `scd-obs` registry as the pipeline's own metrics.
//!
//! Historical answers are **bit-identical** to offline `scd query`
//! against the engine's dumped archive: the plane's replica archive is
//! fed the exact push sequence of the engine's (same zero back-fill,
//! same notable-key directory), and [`SharedSketch`] forwards every
//! combine to the same `f64` arithmetic — it only makes the snapshots
//! cheap, never different.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod metrics;
pub mod proto;
pub mod server;
pub mod shared;
pub mod slim;
pub mod view;

pub use client::QueryClient;
pub use metrics::ServeMetrics;
pub use proto::{ProtoError, Request, Response, SCDQ};
pub use server::{answer, QueryServer, ServerOptions};
pub use shared::SharedSketch;
pub use slim::{SlimEpoch, SlimSketch, SlimTotals};
pub use view::{RebuildMode, ServingPlane, ServingView};
