//! Staggered lanes are built from the engine's ingest half: each base slot
//! folds once through a `ShardedIngest`, and each lane's interval is the
//! COMBINE of the last L slot tables. These tests hold that shape to the
//! bits of the algorithm it replaced and to the engine's own contract:
//!
//! 1. on integer traffic, the lanes' reports do not depend on the shard
//!    count or the number of routing threads;
//! 2. on one shard, with fractional values, every report equals an oracle
//!    of the standalone fold: each slot sketched by scalar `update`, a
//!    zero table plus `add_scaled` of each buffered slot, oldest first,
//!    then `process_observed` over every arrival's key;
//! 3. lane 0's windows are the aligned grid, so its reports are a plain
//!    `ShardedEngine`'s over L-slot intervals;
//! 4. a change straddling an aligned boundary is caught by the shifted
//!    lane, lanes report in rotation, and a partial window never reports.

use scd_core::{
    DetectorConfig, EngineConfig, IntervalReport, KeyStrategy, ShardedEngine, SketchChangeDetector,
    StaggeredDetector,
};
use scd_forecast::ModelSpec;
use scd_hash::SplitMix64;
use scd_sketch::{KarySketch, SketchConfig};
use std::collections::VecDeque;

fn config() -> DetectorConfig {
    DetectorConfig {
        sketch: SketchConfig { h: 5, k: 1024, seed: 0x5CD },
        model: ModelSpec::Ewma { alpha: 0.6 },
        threshold: 0.2,
        key_strategy: KeyStrategy::TwoPass,
    }
}

/// One base slot: `n` updates over 300 keys plus a burst on key 99 in the
/// slots `burst` names. Integer volumes unless `fractional`. At n = 1 500
/// a slot is large enough for two routing threads to split it.
fn slot(s: u64, n: usize, fractional: bool, burst: &[u64]) -> Vec<(u64, f64)> {
    let mut rng = SplitMix64::new(0x57A6 ^ s);
    let mut items: Vec<(u64, f64)> = (0..n)
        .map(|_| {
            let key = rng.next_below(300);
            let volume = (rng.next_below(1_000) + 1) as f64;
            (key, if fractional { volume / 7.0 } else { volume })
        })
        .collect();
    if burst.contains(&s) {
        items.push((99, 200_000.0));
    }
    items
}

/// A report's digest and its error list in scan order, bit for bit.
fn bits(report: &IntervalReport) -> (String, Vec<(u64, u64)>) {
    let errors = report.errors.iter().map(|&(k, e)| (k, e.to_bits())).collect();
    (report.canonical_line(), errors)
}

type LaneReports = Vec<Option<(usize, (String, Vec<(u64, u64)>))>>;

fn run(lanes: usize, shards: usize, producers: usize, slots: &[Vec<(u64, f64)>]) -> LaneReports {
    let mut det = StaggeredDetector::new(config(), lanes, shards).expect("valid lanes");
    slots
        .iter()
        .map(|items| {
            let out = det.process_slot(items, producers).expect("no worker dies");
            out.map(|(lane, report)| (lane, bits(&report)))
        })
        .collect()
}

/// The standalone algorithm the lanes replaced, kept here as the oracle.
fn oracle(lanes: usize, slots: &[Vec<(u64, f64)>]) -> LaneReports {
    let mut detectors: Vec<_> = (0..lanes).map(|_| SketchChangeDetector::new(config())).collect();
    let mut ring: VecDeque<(KarySketch, Vec<u64>)> = VecDeque::new();
    let mut out = Vec::new();
    for (s, items) in slots.iter().enumerate() {
        let mut sketch = KarySketch::new(config().sketch);
        for &(key, value) in items {
            sketch.update(key, value);
        }
        ring.push_back((sketch, items.iter().map(|&(k, _)| k).collect()));
        if ring.len() > lanes {
            ring.pop_front();
        }
        if ring.len() < lanes {
            out.push(None);
            continue;
        }
        let lane = (s + 1) % lanes;
        let mut observed = KarySketch::new(config().sketch);
        let mut keys = Vec::new();
        for (sketch, slot_keys) in &ring {
            observed.add_scaled(sketch, 1.0).expect("one family");
            keys.extend_from_slice(slot_keys);
        }
        out.push(Some((lane, bits(&detectors[lane].process_observed(&observed, keys)))));
    }
    out
}

#[test]
fn integer_lanes_do_not_depend_on_the_ingest_shape() {
    let slots: Vec<_> = (0..14).map(|s| slot(s, 1_500, false, &[9, 10])).collect();
    let reference = run(3, 1, 1, &slots);
    assert!(reference.iter().flatten().any(|(_, (line, _))| !line.contains("alarms=0:")));
    for (shards, producers) in [(1, 2), (3, 1), (3, 2)] {
        assert_eq!(
            run(3, shards, producers, &slots),
            reference,
            "{shards} shards, {producers} threads"
        );
    }
}

#[test]
fn one_shard_equals_the_standalone_fold_for_fractional_values() {
    let slots: Vec<_> = (0..13).map(|s| slot(s, 1_500, true, &[6, 7])).collect();
    for lanes in [1, 2, 4] {
        let expected = oracle(lanes, &slots);
        for producers in [1, 2] {
            assert_eq!(
                run(lanes, 1, producers, &slots),
                expected,
                "{lanes} lanes, {producers} threads"
            );
        }
    }
}

#[test]
fn lane_zero_is_the_engine_over_aligned_intervals() {
    let lanes = 4;
    let slots: Vec<_> = (0..24).map(|s| slot(s, 400, false, &[13])).collect();
    let mut engine = ShardedEngine::new(EngineConfig::new(config(), 2)).expect("engine");
    let plain: Vec<_> = slots
        .chunks(lanes)
        .map(|interval| bits(&engine.process_interval(&interval.concat()).expect("report")))
        .collect();
    let lane0: Vec<_> = run(lanes, 2, 1, &slots)
        .into_iter()
        .flatten()
        .filter(|(lane, _)| *lane == 0)
        .map(|(_, report)| report)
        .collect();
    assert_eq!(lane0, plain);
}

#[test]
fn the_shifted_lane_catches_a_straddling_burst() {
    // Slots 9 and 10 carry half the burst each: the aligned lane's
    // intervals (slots 8–9 and 10–11) see half of it, lane 1's (9–10) all.
    let mut det = StaggeredDetector::new(config(), 2, 1).expect("valid lanes");
    let mut caught = Vec::new();
    for s in 0..16 {
        let mut items = slot(s, 200, false, &[]);
        if s == 9 || s == 10 {
            items.push((99, 100_000.0));
        }
        if let Some((lane, report)) = det.process_slot(&items, 1).expect("one shard") {
            if report.alarms.iter().any(|a| a.key == 99) {
                caught.push((s, lane));
            }
        }
    }
    assert!(caught.contains(&(10, 1)), "lane 1 missed the straddler: {caught:?}");
}

#[test]
fn lanes_report_in_rotation_and_never_on_a_partial_window() {
    for lanes in [2, 3, 5] {
        let mut det = StaggeredDetector::new(config(), lanes, 1).expect("valid lanes");
        for s in 0..lanes * 4 {
            // A change in slot 0 only ever shows in a full window.
            let burst = if s == 0 { &[0][..] } else { &[] };
            let out = det.process_slot(&slot(s as u64, 100, false, burst), 1).expect("one shard");
            match out {
                None => assert!(s + 1 < lanes, "slot {s} of {lanes} lanes went unreported"),
                Some((lane, _)) => {
                    assert!(s + 1 >= lanes, "a partial {}-slot window reported", s + 1);
                    assert_eq!(lane, (s + 1) % lanes, "slot {s}");
                }
            }
        }
    }
}

#[test]
fn bad_shapes_are_refused() {
    assert!(StaggeredDetector::new(config(), 0, 1).is_err());
    assert!(StaggeredDetector::new(config(), 2, 0).is_err());
    let next = DetectorConfig { key_strategy: KeyStrategy::NextInterval, ..config() };
    assert!(StaggeredDetector::new(next, 2, 1).is_err());
}
