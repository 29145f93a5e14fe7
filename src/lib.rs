//! # sketch-change
//!
//! A Rust implementation of **sketch-based change detection** for massive
//! network data streams, reproducing Krishnamurthy, Sen, Zhang & Chen,
//! *Sketch-based Change Detection: Methods, Evaluation, and Applications*
//! (ACM IMC 2003).
//!
//! Network operators need to spot significant traffic changes — DoS
//! attacks, flash crowds, outages, scans — across millions of concurrent
//! flows, where keeping per-flow state is too expensive. This library
//! summarizes the traffic into a **k-ary sketch**: a constant-size, linear
//! summary supporting unbiased reconstruction of any flow's value. Because
//! the sketch is linear, classical time-series forecasting (moving
//! averages, EWMA, Holt-Winters, ARIMA) runs directly *in sketch space*,
//! and flows whose forecast error exceeds an energy-derived threshold are
//! flagged — all in `O(H)` work per packet/flow record and `O(H·K)` memory
//! total.
//!
//! ## Crate map
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`hash`] | `scd-hash` | 4-universal hashing (Thorup–Zhang tabulation, Carter–Wegman polynomials) |
//! | [`sketch`] | `scd-sketch` | k-ary sketch (UPDATE / ESTIMATE / ESTIMATEF2 / COMBINE), the linear-sketch traits, median networks |
//! | [`forecast`] | `scd-forecast` | the six forecast models, generic over scalars and sketches |
//! | [`core`] | `scd-core` | the change-detection pipeline, grid search, sharded ingest engine |
//! | [`archive`] | `scd-archive` | multi-resolution sketch archive with historical change queries |
//! | [`traffic`] | `scd-traffic` | synthetic netflow substrate, anomaly injection, trace I/O and sharding |
//! | [`obs`] | `scd-obs` | pipeline observability: metric registry, snapshots, scrape endpoint |
//! | [`net`] | `scd-net` | distributed ingest plane: CRC-guarded sketch frames, spooling, parity recovery |
//! | [`serve`] | `scd-serve` | read-optimized serving plane: slim sketches, interval snapshots, TCP query service |
//!
//! ## Quickstart
//!
//! ```
//! use sketch_change::prelude::*;
//!
//! // Configure: H x K sketch, EWMA forecasting, alarm at 5% of the error
//! // L2 norm, offline two-pass key replay.
//! let mut detector = SketchChangeDetector::new(DetectorConfig {
//!     sketch: SketchConfig { h: 5, k: 32_768, seed: 42 },
//!     model: ModelSpec::Ewma { alpha: 0.5 },
//!     threshold: 0.05,
//!     key_strategy: KeyStrategy::TwoPass,
//! });
//!
//! // Feed (key, value) updates per interval; keys are e.g. destination
//! // IPs, values byte counts.
//! detector.process_interval(&[(0xC0A80101, 1_000.0), (0xC0A80102, 2_000.0)]);
//! detector.process_interval(&[(0xC0A80101, 1_000.0), (0xC0A80102, 2_000.0)]);
//! let report = detector.process_interval(&[(0xC0A80101, 90_000.0), (0xC0A80102, 2_000.0)]);
//! assert_eq!(report.alarms[0].key, 0xC0A80101);
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios (quickstart, DoS
//! detection, flash-crowd monitoring, multi-router aggregation, and the
//! hierarchical and adaptive detectors, which only their examples run) and
//! `DESIGN.md` / `EXPERIMENTS.md` for the paper-reproduction inventory.
//! The experiment harness, `scd-bench` (not re-exported here), holds what
//! the experiments evaluate the sketch against: the count-min and count
//! sketch baselines, the exact per-flow oracle and the §5 metrics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use scd_archive as archive;
pub use scd_core as core;
pub use scd_forecast as forecast;
pub use scd_hash as hash;
pub use scd_net as net;
pub use scd_obs as obs;
pub use scd_serve as serve;
pub use scd_sketch as sketch;
pub use scd_traffic as traffic;

/// One-stop imports for typical use.
pub mod prelude {
    pub use scd_archive::{ArchiveConfig, SketchArchive};
    pub use scd_core::{
        Alarm, DetectorConfig, EngineConfig, IntervalReport, KeyStrategy, ShardedEngine,
        SketchChangeDetector,
    };
    pub use scd_forecast::{ArimaSpec, Forecaster, ModelKind, ModelSpec, Summary};
    pub use scd_serve::{QueryClient, QueryServer, Request, Response, ServingPlane, SlimSketch};
    pub use scd_sketch::{KarySketch, SketchConfig};
    pub use scd_traffic::{
        to_updates, AnomalyEvent, AnomalyInjector, AnomalyKind, FlowRecord, KeySpec, RouterProfile,
        TrafficGenerator, ValueSpec,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_reexports_compose() {
        use crate::prelude::*;
        let cfg = SketchConfig { h: 1, k: 64, seed: 0 };
        let mut s = KarySketch::new(cfg);
        s.update(1, 2.0);
        assert!(s.estimate(1) > 0.0);
    }
}
