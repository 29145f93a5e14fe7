//! Staggered multi-phase detection — the second item of the paper's
//! "ongoing work" (§6): *"Avoiding boundary effects due to fixed interval
//! sizes. Possible solutions include (i) simultaneously run multiple models
//! using different interval sizes, and different starting points … The
//! linearity of sketches makes this possible."*
//!
//! A change that straddles an interval boundary is split between two
//! observations, halving its apparent magnitude in each; a fixed grid can
//! therefore miss changes that a shifted grid sees whole.
//! [`StaggeredDetector`] runs `lanes` detectors whose interval boundaries
//! are offset by one *base slot* (of duration `interval / lanes`) from one
//! another.
//!
//! Linearity is what makes this cheap, exactly as the paper observes: each
//! base slot is folded **once**, through the engine's ingest half
//! ([`ShardedIngest`], so on any number of shards), and every lane's
//! interval sketch is the COMBINE (sum) of its `lanes` most recent slot
//! tables — the input stream is never re-scanned per lane.

use crate::detector::{DetectorConfig, IntervalReport, KeyStrategy, SketchChangeDetector};
use crate::engine::{EngineError, ShardedIngest};
use scd_sketch::KarySketch;
use std::collections::VecDeque;

/// Runs `lanes` phase-shifted copies of the detector over one update
/// stream, sharing per-slot sketching work through sketch linearity.
///
/// Feed it *base slots*: update batches of duration `interval / lanes`.
/// Each lane reports once per `lanes` slots, at its own phase.
pub struct StaggeredDetector {
    ingest: ShardedIngest,
    lanes: Vec<SketchChangeDetector>,
    /// The most recent `lanes` slots, oldest first: each slot's merged
    /// table and its distinct keys in first-seen order.
    ring: VecDeque<(KarySketch, Vec<u64>)>,
    slot: usize,
}

impl std::fmt::Debug for StaggeredDetector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StaggeredDetector")
            .field("lanes", &self.lanes.len())
            .field("slot", &self.slot)
            .finish()
    }
}

impl StaggeredDetector {
    /// Builds `lanes` phase-shifted detectors from the base config, over
    /// one ingest half of `shards` shards. One detector interval = `lanes`
    /// base slots.
    ///
    /// # Errors
    /// [`EngineError::BadConfig`] for zero lanes, zero shards, or a key
    /// strategy other than two-pass.
    ///
    /// # Panics
    /// Panics if the detector config is invalid.
    pub fn new(config: DetectorConfig, lanes: usize, shards: usize) -> Result<Self, EngineError> {
        if lanes == 0 {
            return Err(EngineError::BadConfig("need at least one lane".into()));
        }
        if !matches!(config.key_strategy, KeyStrategy::TwoPass) {
            return Err(EngineError::BadConfig(
                "staggered detection supports the two-pass strategy only".into(),
            ));
        }
        Ok(StaggeredDetector {
            ingest: ShardedIngest::new(config.sketch, shards)?,
            lanes: (0..lanes).map(|_| SketchChangeDetector::new(config.clone())).collect(),
            ring: VecDeque::with_capacity(lanes + 1),
            slot: 0,
        })
    }

    /// Feeds one base slot of updates, routed by `producers` threads (see
    /// [`ShardedIngest::push_slice_parallel`]), and returns the report of
    /// the lane whose interval ends at this slot boundary, with the lane's
    /// index. Until a full interval's worth of slots has arrived it returns
    /// `None`: a *partial* window would show a change at a fraction of its
    /// magnitude — exactly the boundary effect staggering exists to kill.
    ///
    /// # Errors
    /// [`EngineError::WorkerLost`] if a shard's worker has died.
    pub fn process_slot(
        &mut self,
        items: &[(u64, f64)],
        producers: usize,
    ) -> Result<Option<(usize, IntervalReport)>, EngineError> {
        let lanes = self.lanes.len();
        self.ingest.push_slice_parallel(items, producers)?;
        let (table, keys) = self.ingest.end_interval_sketch()?;
        self.ring.push_back((table.clone(), keys));
        if self.ring.len() > lanes {
            self.ring.pop_front();
        }
        self.slot += 1;
        if self.ring.len() < lanes {
            return Ok(None);
        }
        // Lane i's boundary falls where slot ≡ i (mod lanes); its interval
        // is the COMBINE of the last `lanes` slots, oldest first, from zero.
        let lane = self.slot % lanes;
        let terms: Vec<(f64, &KarySketch)> = self.ring.iter().map(|(s, _)| (1.0, s)).collect();
        let window = terms[0].1.combine(&terms).expect("slot tables share the ingest's family");
        let keys = self.ring.iter().flat_map(|(_, keys)| keys.iter().copied()).collect();
        Ok(Some((lane, self.lanes[lane].process_observed(&window, keys))))
    }
}
