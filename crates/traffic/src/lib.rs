//! Netflow-like traffic substrate for sketch-based change detection.
//!
//! The paper's evaluation (§4.1) runs on "four hours worth of netflow dumps
//! from ten different routers in the backbone of a tier-1 ISP" — data we do
//! not have. This crate is the documented substitution (see `DESIGN.md`):
//! a synthetic flow-record generator that reproduces the *statistical
//! shape* the detection pipeline is sensitive to:
//!
//! * a large destination-IP key space with **heavy-tailed** (Zipf) traffic
//!   shares — a few big flows, a long tail of small ones;
//! * per-key time series that vary smoothly (diurnal trend + multiplicative
//!   noise), so forecasting models have signal to track;
//! * configurable record volumes matching the paper's three router sizes
//!   (large / medium / small);
//! * **injected anomalies** (DoS-like spikes, flash crowds, outages, port
//!   scans) with exact ground-truth labels, which the real traces lacked —
//!   enabling recall/precision measurements the paper could only
//!   approximate by sketch-vs-per-flow agreement.
//!
//! Everything is deterministic from a seed, so experiments are exactly
//! reproducible.
//!
//! The input boundary is the flow record ([`FlowRecord`], read and written
//! by [`io`]); §2.1's coarser keys are projections of it, such as
//! [`KeySpec::DstPrefix`] for network prefixes.
//!
//! # Example
//!
//! ```
//! use scd_traffic::{RouterProfile, TrafficGenerator, KeySpec, ValueSpec};
//!
//! let mut gen = TrafficGenerator::new(RouterProfile::Small.config(7));
//! let records = gen.interval_records(0);
//! assert!(!records.is_empty());
//! // Turn records into the (key, value) update stream the sketch consumes.
//! let updates = scd_traffic::to_updates(&records, KeySpec::DstIp, ValueSpec::Bytes);
//! assert_eq!(updates.len(), records.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod anomaly;
pub mod fault;
pub mod gen;
pub mod io;
pub mod record;
pub mod rng;
pub mod zipf;

pub use anomaly::{AnomalyEvent, AnomalyInjector, AnomalyKind, GroundTruth};
pub use fault::{Corruptor, FaultKind, FaultPlan, NetFaultKind, NetFaultPlan};
pub use gen::{RouterProfile, TrafficConfig, TrafficGenerator};
pub use io::{ChunkedTraceReader, TraceIoError};
pub use record::{to_updates, FlowRecord, KeySpec, ValueSpec};
pub use rng::Rng;
/// The key → shard mix an ingest node filters the keys it owns with.
pub use scd_hash::shard_of as shard_of_key;
pub use zipf::Zipf;
