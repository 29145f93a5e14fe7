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
//! base slot is sketched **once**, and every lane's interval sketch is the
//! COMBINE (sum) of its `lanes` most recent slot sketches — the input
//! stream is never re-scanned per lane.

use crate::detector::{
    Alarm, DetectorConfig, DetectorSnapshot, KeyStrategy, RestoreError, SketchChangeDetector,
};
use scd_hash::HashRows;
use scd_sketch::KarySketch;
use std::collections::HashSet;
use std::sync::Arc;

/// Serializable image of a [`StaggeredDetector`]: the slot counter, the
/// buffered slot sketches + key logs, and every lane's detector state.
/// Embedded in checkpoints so the slot buffer — which the GLR layer's
/// slotting piggybacks on — survives restarts bit-exactly.
#[derive(Debug, Clone)]
pub struct StaggeredSnapshot {
    /// Base slots processed so far.
    pub slot: u64,
    /// Buffered recent slots, oldest first: `(slot sketch, slot keys)`.
    pub recent_slots: Vec<(KarySketch, Vec<u64>)>,
    /// Per-lane detector snapshots, in lane order.
    pub lanes: Vec<DetectorSnapshot>,
}

/// A merged alarm from the staggered ensemble.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StaggeredAlarm {
    /// The flagged key.
    pub key: u64,
    /// The alarm as raised by the detecting lane.
    pub alarm: Alarm,
    /// Which lane (phase offset index) raised it.
    pub lane: usize,
}

/// Runs `lanes` phase-shifted copies of the detector over one update
/// stream, sharing per-slot sketching work through sketch linearity.
///
/// Feed it *base slots*: update batches of duration `interval / lanes`.
/// Each lane fires once per `lanes` slots, at its own phase.
pub struct StaggeredDetector {
    lanes: Vec<SketchChangeDetector>,
    rows: Arc<HashRows>,
    /// Sketch + key list per buffered base slot (most recent `lanes`).
    recent_slots: Vec<(KarySketch, Vec<u64>)>,
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
    /// Builds `lanes ≥ 1` phase-shifted detectors from the base config.
    /// The config's interval semantics: one detector interval = `lanes`
    /// base slots.
    ///
    /// # Panics
    /// Panics if `lanes == 0` or the config is invalid.
    pub fn new(config: DetectorConfig, lanes: usize) -> Self {
        assert!(lanes >= 1, "need at least one lane");
        assert!(
            matches!(config.key_strategy, KeyStrategy::TwoPass),
            "staggered detection currently supports the two-pass strategy"
        );
        let detectors = (0..lanes).map(|_| SketchChangeDetector::new(config.clone())).collect();
        let rows = HashRows::shared(config.sketch.h, config.sketch.k, config.sketch.seed);
        StaggeredDetector { lanes: detectors, rows, recent_slots: Vec::new(), slot: 0 }
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Whether the slot buffer holds a full interval's worth of slots.
    /// Until this is true, every [`process_slot`](Self::process_slot) call
    /// returns no alarms: the warm-up guard refuses to COMBINE a *partial*
    /// window, which would halve a change's apparent magnitude — exactly
    /// the boundary effect staggering exists to kill.
    pub fn warmed_up(&self) -> bool {
        self.recent_slots.len() >= self.lanes.len()
    }

    /// Captures the complete mutable state: slot counter, buffered slot
    /// sketches/keys, and every lane's detector snapshot.
    pub fn snapshot(&self) -> StaggeredSnapshot {
        StaggeredSnapshot {
            slot: self.slot as u64,
            recent_slots: self.recent_slots.clone(),
            lanes: self.lanes.iter().map(|d| d.snapshot()).collect(),
        }
    }

    /// Rebuilds a staggered detector from a snapshot taken under the same
    /// config and lane count; the restored ensemble is bit-identical to
    /// the snapshotted one for every subsequent slot — including the
    /// warm-up suppression when the snapshot was taken mid-warm-up.
    ///
    /// # Errors
    /// [`RestoreError`] if the lane count or any lane's state does not
    /// match the config, or a buffered sketch is from another hash family.
    pub fn restore(
        config: DetectorConfig,
        lanes: usize,
        snap: StaggeredSnapshot,
    ) -> Result<Self, RestoreError> {
        if lanes == 0 {
            return Err(RestoreError::BadConfig("need at least one lane".into()));
        }
        if !matches!(config.key_strategy, KeyStrategy::TwoPass) {
            return Err(RestoreError::BadConfig(
                "staggered detection currently supports the two-pass strategy".into(),
            ));
        }
        if snap.lanes.len() != lanes {
            return Err(RestoreError::BadConfig(format!(
                "snapshot has {} lanes, expected {lanes}",
                snap.lanes.len()
            )));
        }
        if snap.recent_slots.len() > lanes {
            return Err(RestoreError::BadConfig(format!(
                "snapshot buffers {} slots, more than {lanes} lanes",
                snap.recent_slots.len()
            )));
        }
        let rows = HashRows::shared(config.sketch.h, config.sketch.k, config.sketch.seed);
        for (sketch, _) in &snap.recent_slots {
            if sketch.rows().identity() != rows.identity() {
                return Err(RestoreError::BadConfig(
                    "buffered slot sketch is from a different hash family".into(),
                ));
            }
        }
        let detectors: Result<Vec<_>, _> = snap
            .lanes
            .into_iter()
            .map(|s| SketchChangeDetector::restore(config.clone(), s))
            .collect();
        Ok(StaggeredDetector {
            lanes: detectors?,
            rows,
            recent_slots: snap.recent_slots,
            slot: snap.slot as usize,
        })
    }

    /// Feeds one base slot of updates. The slot is sketched exactly once.
    /// Returns the alarms of the lane (if any) whose interval completed at
    /// this slot boundary, deduplicated by key.
    pub fn process_slot(&mut self, items: &[(u64, f64)]) -> Vec<StaggeredAlarm> {
        let lanes = self.lanes.len();
        // Sketch the slot once (shared across all lanes via linearity).
        let mut slot_sketch = KarySketch::with_rows(Arc::clone(&self.rows));
        let mut keys = Vec::with_capacity(items.len());
        for &(key, value) in items {
            slot_sketch.update(key, value);
            keys.push(key);
        }
        self.recent_slots.push((slot_sketch, keys));
        if self.recent_slots.len() > lanes {
            self.recent_slots.remove(0);
        }
        self.slot += 1;

        // Lane whose boundary falls here: lane i fires when slot ≡ i (mod
        // lanes), consuming the last `lanes` slots as one interval.
        let lane_idx = self.slot % lanes;
        if self.recent_slots.len() < lanes {
            return Vec::new(); // not enough history for a full interval yet
        }
        // Interval sketch = Σ slot sketches (COMBINE, no input re-scan).
        let mut observed = KarySketch::with_rows(Arc::clone(&self.rows));
        let mut interval_keys = Vec::new();
        for (sketch, keys) in &self.recent_slots {
            observed.add_scaled(sketch, 1.0).expect("slot sketches share the configured family");
            interval_keys.extend_from_slice(keys);
        }
        let report = self.lanes[lane_idx].process_observed(&observed, interval_keys);
        let mut seen = HashSet::new();
        report
            .alarms
            .into_iter()
            .filter(|a| seen.insert(a.key))
            .map(|alarm| StaggeredAlarm { key: alarm.key, alarm, lane: lane_idx })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scd_forecast::ModelSpec;
    use scd_sketch::SketchConfig;

    fn config() -> DetectorConfig {
        DetectorConfig {
            sketch: SketchConfig { h: 3, k: 2048, seed: 6 },
            model: ModelSpec::Ewma { alpha: 0.6 },
            threshold: 0.3,
            key_strategy: KeyStrategy::TwoPass,
        }
    }

    /// Base slots: steady background on keys 1..=3; a burst on key 99 that
    /// straddles an aligned boundary (half in each adjacent interval) but
    /// sits wholly inside one staggered lane's interval.
    fn slots(burst_at: usize, n: usize) -> Vec<Vec<(u64, f64)>> {
        (0..n)
            .map(|s| {
                let mut v = vec![(1u64, 1000.0), (2, 800.0), (3, 600.0)];
                if s == burst_at || s == burst_at + 1 {
                    v.push((99, 50_000.0));
                }
                v
            })
            .collect()
    }

    #[test]
    fn straddling_burst_caught_by_some_lane() {
        // 2 lanes over 2-slot intervals; the burst covers slots 9 and 10,
        // which an aligned (even-boundary) grid splits across intervals but
        // the odd-phase lane sees whole.
        let mut det = StaggeredDetector::new(config(), 2);
        let mut caught = false;
        for (s, items) in slots(9, 16).iter().enumerate() {
            for alarm in det.process_slot(items) {
                if alarm.key == 99 && s >= 9 {
                    caught = true;
                }
            }
        }
        assert!(caught, "no lane caught the straddling burst");
    }

    #[test]
    fn single_lane_matches_plain_detector() {
        let mut staggered = StaggeredDetector::new(config(), 1);
        let mut plain = SketchChangeDetector::new(config());
        for items in slots(5, 10) {
            let sa = staggered.process_slot(&items);
            let pa = plain.process_interval(&items);
            let sk: Vec<u64> = sa.iter().map(|a| a.key).collect();
            let pk: Vec<u64> = pa.alarms.iter().map(|a| a.key).collect();
            assert_eq!(sk, pk);
        }
    }

    #[test]
    fn each_slot_reports_at_most_one_lane() {
        let mut det = StaggeredDetector::new(config(), 3);
        for items in slots(7, 12) {
            let alarms = det.process_slot(&items);
            let lanes: HashSet<usize> = alarms.iter().map(|a| a.lane).collect();
            assert!(lanes.len() <= 1, "one lane per slot boundary");
        }
    }

    #[test]
    fn keys_deduplicated_within_report() {
        let mut det = StaggeredDetector::new(config(), 2);
        for s in 0..8 {
            // Duplicate updates for the same key within a slot.
            let items = vec![(5u64, 100.0), (5, 100.0), (6, 50.0)];
            let alarms = det.process_slot(&items);
            let keys: Vec<u64> = alarms.iter().map(|a| a.key).collect();
            let mut dedup = keys.clone();
            dedup.dedup();
            assert_eq!(keys, dedup, "slot {s}");
        }
    }

    #[test]
    fn lane_interval_equals_sum_of_slots() {
        // The COMBINE path must agree with direct per-interval sketching:
        // run 2-lane staggered and a plain detector fed the concatenated
        // slot pairs at the aligned phase; their alarm sets must coincide
        // on aligned boundaries.
        let mut staggered = StaggeredDetector::new(config(), 2);
        let mut plain = SketchChangeDetector::new(config());
        let all = slots(4, 12);
        let mut plain_alarms: Vec<Vec<u64>> = Vec::new();
        for pair in all.chunks(2) {
            if pair.len() == 2 {
                let merged: Vec<(u64, f64)> =
                    pair[0].iter().chain(pair[1].iter()).copied().collect();
                plain_alarms
                    .push(plain.process_interval(&merged).alarms.iter().map(|a| a.key).collect());
            }
        }
        let mut staggered_aligned: Vec<Vec<u64>> = Vec::new();
        for (s, items) in all.iter().enumerate() {
            let alarms = det_keys(&mut staggered, items);
            if s % 2 == 1 {
                // Aligned lane fires on odd slot indices (slot counter hits
                // an even multiple after incrementing).
                staggered_aligned.push(alarms);
            }
        }
        assert_eq!(plain_alarms, staggered_aligned);
    }

    fn det_keys(det: &mut StaggeredDetector, items: &[(u64, f64)]) -> Vec<u64> {
        det.process_slot(items).iter().map(|a| a.key).collect()
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn zero_lanes_rejected() {
        let _ = StaggeredDetector::new(config(), 0);
    }

    /// Warm-up boundary regression (ISSUE 10 audit): a change planted in
    /// slot 0 must never surface through a *partial* window. Until
    /// `lanes` slots are buffered, a lane interval would COMBINE fewer
    /// slots than a full interval holds, showing the burst at reduced
    /// magnitude against full-interval baselines — the guard suppresses
    /// every report until the buffer holds a complete window.
    #[test]
    fn change_in_slot_zero_never_fires_on_a_partial_window() {
        for lanes in [2usize, 3, 4, 5] {
            let mut det = StaggeredDetector::new(config(), lanes);
            for s in 0..lanes * 4 {
                let mut items = vec![(1u64, 1000.0), (2, 800.0), (3, 600.0)];
                if s == 0 {
                    items.push((42, 500_000.0));
                }
                let warmed_before = det.warmed_up();
                let alarms = det.process_slot(&items);
                if s + 1 < lanes {
                    assert!(!warmed_before, "warm-up ended early at slot {s} (lanes={lanes})");
                    assert!(
                        alarms.is_empty(),
                        "lane fired on a partial {}-slot window (lanes={lanes})",
                        s + 1
                    );
                } else {
                    assert!(det.warmed_up(), "still cold after {} slots (lanes={lanes})", s + 1);
                }
            }
        }
    }

    /// Snapshot/restore round-trips bit-exactly, including mid-warm-up:
    /// a detector restored from a snapshot taken before the slot buffer
    /// filled must keep suppressing partial windows and then produce the
    /// exact alarm stream of the uninterrupted run.
    #[test]
    fn snapshot_restore_is_bit_exact_even_mid_warm_up() {
        let lanes = 3;
        let all = slots(6, 18);
        for snap_at in [1usize, 2, 7] {
            let mut reference = StaggeredDetector::new(config(), lanes);
            let mut interrupted = StaggeredDetector::new(config(), lanes);
            let mut ref_alarms = Vec::new();
            let mut got_alarms = Vec::new();
            for (s, items) in all.iter().enumerate() {
                ref_alarms.push(reference.process_slot(items));
                if s == snap_at {
                    let snap = interrupted.snapshot();
                    interrupted = StaggeredDetector::restore(config(), lanes, snap)
                        .expect("restore staggered snapshot");
                    // `interrupted` has processed slots 0..s at this point.
                    assert_eq!(interrupted.warmed_up(), s >= lanes);
                }
                got_alarms.push(interrupted.process_slot(items));
            }
            assert_eq!(ref_alarms, got_alarms, "divergence after restore at slot {snap_at}");
        }
    }

    #[test]
    fn restore_rejects_bad_shapes() {
        let det = StaggeredDetector::new(config(), 2);
        let snap = det.snapshot();
        assert!(StaggeredDetector::restore(config(), 3, snap.clone()).is_err());
        assert!(StaggeredDetector::restore(config(), 0, snap.clone()).is_err());
        let mut wrong_family = config();
        wrong_family.sketch.seed ^= 1;
        let mut fed = StaggeredDetector::new(config(), 2);
        fed.process_slot(&[(1, 10.0)]);
        assert!(StaggeredDetector::restore(wrong_family, 2, fed.snapshot()).is_err());
    }
}
