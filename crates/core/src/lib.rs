//! Sketch-based change detection — the paper's primary contribution,
//! assembled from the substrate crates.
//!
//! The pipeline (paper §2.2) has three modules per time interval `t`:
//!
//! 1. **Sketch module** — summarize the interval's `(key, update)` stream
//!    into the observed sketch `So(t)`.
//! 2. **Forecasting module** — produce the forecast sketch `Sf(t)` from
//!    past observed sketches via one of six linear models, and the error
//!    sketch `Se(t) = So(t) − Sf(t)`.
//! 3. **Change detection module** — choose the alarm threshold
//!    `TA = T · √(ESTIMATEF2(Se(t)))`, reconstruct per-key forecast errors
//!    from `Se(t)`, and raise an alarm for every key whose estimated error
//!    exceeds `TA` in absolute value.
//!
//! This crate provides:
//!
//! * [`SketchChangeDetector`] — the full pipeline, with the paper's three
//!   key-stream strategies (§3.3): offline two-pass, online next-interval,
//!   and sampled.
//! * [`PerFlowDetector`] — the exact per-flow reference (one scalar
//!   forecaster per flow), "the ideal environment with infinite resources"
//!   every accuracy experiment compares against.
//! * [`gridsearch`] — the multi-pass grid search of §3.4.2 for choosing
//!   model parameters by minimizing estimated total error energy.
//! * [`metrics`] — the paper's evaluation metrics: top-N similarity,
//!   top-N vs top-X·N, thresholded false positives/negatives, relative
//!   difference of total energy, empirical CDFs.
//! * [`stream`] — interval segmentation of timestamped flow records.
//! * The paper's §6 "ongoing work", implemented as extensions:
//!   [`adaptive`] (periodic online re-tuning of model parameters),
//!   [`staggered`] (phase-shifted interval lanes against boundary effects,
//!   sharing slot sketches through linearity), and [`sampling`]
//!   (Horvitz–Thompson record thinning in front of the sketch),
//!   [`reversible`] (group-testing sketches that recover heavy-change keys
//!   directly, with no key stream at all), and [`hierarchy`]
//!   (simultaneous detection at multiple prefix lengths with drill-down
//!   localization — §2.1's aggregation levels), and [`glr`] (sub-interval
//!   GLR sequential detection: provisional alarms raised seconds after
//!   onset, confirmed or retracted at interval close).
//! * [`engine`] — sharded parallel ingest: worker threads each fold a
//!   key-partition of the update stream into a private sketch over the
//!   shared hash family, COMBINEd per interval into exactly the
//!   single-threaded observed sketch, optionally feeding an
//!   `scd-archive` multi-resolution history of error sketches.
//! * A fault-tolerance layer for the §6 online deployment: [`checkpoint`]
//!   (CRC-guarded atomic snapshots of the full detector state),
//!   [`supervisor`] (the policy of the one restart contract every detect
//!   stage keeps: panic recovery from checkpoints and a lifecycle event
//!   stream), and [`streaming`] (the record-stream driver, started one
//!   way — [`spawn_streaming`] — with its overload policies: block / drop /
//!   sample, with per-interval shed accounting).
//!
//! Every queue between threads is a bounded
//! `std::sync::mpsc::sync_channel`.
//!
//! # Example
//!
//! ```
//! use scd_core::{DetectorConfig, KeyStrategy, SketchChangeDetector};
//! use scd_forecast::ModelSpec;
//! use scd_sketch::SketchConfig;
//!
//! let mut det = SketchChangeDetector::new(DetectorConfig {
//!     sketch: SketchConfig { h: 5, k: 4096, seed: 1 },
//!     model: ModelSpec::Ewma { alpha: 0.6 },
//!     threshold: 0.05,
//!     key_strategy: KeyStrategy::TwoPass,
//! });
//!
//! // Two quiet intervals teach the model the baseline...
//! det.process_interval(&[(7, 1000.0), (9, 500.0)]);
//! det.process_interval(&[(7, 1000.0), (9, 500.0)]);
//! // ...then flow 7 surges 20x.
//! let report = det.process_interval(&[(7, 20_000.0), (9, 500.0)]);
//! assert!(report.alarms.iter().any(|a| a.key == 7));
//! assert!(!report.alarms.iter().any(|a| a.key == 9));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod checkpoint;
pub mod detector;
pub mod engine;
pub mod glr;
pub mod gridsearch;
pub mod hierarchy;
pub mod metrics;
pub mod perflow;
pub mod reversible;
pub mod sampling;
pub mod staggered;
pub mod stream;
pub mod streaming;
pub mod supervisor;
pub mod telemetry;

pub use adaptive::{AdaptiveConfig, AdaptiveDetector};
pub use checkpoint::{Checkpoint, CheckpointError};
pub use detector::{
    Alarm, DetectorConfig, DetectorSnapshot, DropStats, IntervalReport, KeyStrategy, RestoreError,
    SketchChangeDetector,
};
pub use engine::{
    notable_keys, DetectStage, EngineConfig, EngineError, GlrEngineSnapshot, IntervalObserver,
    ShardedEngine, ShardedIngest,
};
pub use glr::{GlrConfig, GlrDetector, GlrEvent, GlrRestoreError, GlrSnapshot, ProvisionalAlarm};
pub use gridsearch::{search_model, GridSearchConfig, GridSearchResult};
pub use hierarchy::{HierarchicalDetector, HierarchyConfig, LocalizedAlarm};
pub use metrics::{
    empirical_cdf, relative_difference, threshold_report, topn_similarity, topn_vs_xn,
    ThresholdReport,
};
pub use perflow::{PerFlowDetector, PerFlowReport};
pub use reversible::{ReversibleChangeDetector, ReversibleConfig, ReversibleReport};
pub use sampling::UpdateSampler;
pub use staggered::{StaggeredAlarm, StaggeredDetector, StaggeredSnapshot};
pub use stream::{segment_records, StreamSegmenter};
pub use streaming::{
    spawn as spawn_streaming, OverloadPolicy, RecordSender, StreamFault, StreamingConfig,
    StreamingHandle,
};
pub use supervisor::{CheckpointPolicy, LifecycleEvent, RestartPolicy, Supervision};
pub use telemetry::{
    DetectorMetrics, EngineMetrics, GlrMetrics, PipelineMetrics, StreamMetrics, SupervisorMetrics,
};
