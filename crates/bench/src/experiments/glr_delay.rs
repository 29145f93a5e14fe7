//! Detection delay vs false-alarm rate of the GLR sequential layer
//! (`scd-core::glr`), swept over the provisional-alarm threshold.
//!
//! The experiment mirrors how `scd detect --glr` runs the layer: each
//! interval's records are binned into `SLOTS` sub-interval slots by
//! timestamp, the engine sees one `push_slice` + `end_glr_slot` per
//! slot, and the interval-close detector confirms or retracts whatever
//! the sequential statistic raised mid-interval. Two trace families per
//! trial seed, both from `scd-traffic`:
//!
//! * **Injected** — a DoS surge (30× the victim's baseline) switched on
//!   at a known interval. The detection delay is the number of slots of
//!   data the GLR layer consumed past the onset before a *confirmed*
//!   provisional fired; a change only caught by the interval-close
//!   detector costs the full `SLOTS` slots.
//! * **Clean** — the same generator with no injection. Every
//!   provisional raised here is a false alarm (counted per interval,
//!   confirmed-on-clean reported separately — those are the close
//!   detector agreeing the background shifted, not GLR noise).
//!
//! After Cao et al., *Sketching for Sequential Change-Point Detection*:
//! the curve a threshold is picked from. `--trials` sets the trial seeds
//! per threshold (default 6) and `--scale` the traffic volume (default
//! 1.0 = 40 records/s); the run fails unless some swept threshold
//! reaches a median delay under half an interval while raising at most
//! one false provisional per clean interval.

use crate::args::Args;
use crate::table::{f, Table};
use scd_core::{DetectorConfig, EngineConfig, GlrConfig, GlrEvent, KeyStrategy, ShardedEngine};
use scd_forecast::ModelSpec;
use scd_sketch::SketchConfig;
use scd_traffic::{
    to_updates, AnomalyEvent, AnomalyInjector, AnomalyKind, FlowRecord, KeySpec, RouterProfile,
    TrafficGenerator, ValueSpec,
};

/// Sub-interval slots per detection interval (the CLI's `--glr` value).
const SLOTS: usize = 8;
/// Intervals per trial run; the first few warm the forecast model.
const INTERVALS: usize = 12;
/// Interval at which the injected DoS switches on.
const ONSET_INTERVAL: usize = 8;
/// Victim's traffic rank in the generator population.
const VICTIM_RANK: usize = 5;
/// Provisional-alarm thresholds swept.
const THRESHOLDS: [f64; 5] = [2.0, 4.0, 8.0, 16.0, 32.0];

fn traffic_config(seed: u64, scale: f64) -> scd_traffic::TrafficConfig {
    let mut cfg = RouterProfile::Small.config(seed);
    cfg.n_flows = 400;
    cfg.records_per_sec = 40.0 * scale;
    cfg.interval_secs = 60;
    cfg
}

fn detector_config() -> DetectorConfig {
    DetectorConfig {
        sketch: SketchConfig { h: 5, k: 1 << 13, seed: 0x5CD },
        model: ModelSpec::Ewma { alpha: 0.4 },
        threshold: 0.05,
        key_strategy: KeyStrategy::TwoPass,
    }
}

/// Bins one interval's records into `SLOTS` timestamp slots and projects
/// them onto the update stream, exactly as the CLI's `--glr` loop does.
fn slot_updates(records: &[FlowRecord], t: usize, interval_secs: u32) -> Vec<Vec<(u64, f64)>> {
    let interval_ms = interval_secs as u64 * 1000;
    let t0 = t as u64 * interval_ms;
    let slot_ms = interval_ms / SLOTS as u64;
    let mut slots: Vec<Vec<FlowRecord>> = vec![Vec::new(); SLOTS];
    for r in records {
        let idx = ((r.timestamp_ms.saturating_sub(t0)) / slot_ms).min(SLOTS as u64 - 1);
        slots[idx as usize].push(*r);
    }
    slots.iter().map(|rs| to_updates(rs, KeySpec::DstIp, ValueSpec::Bytes)).collect()
}

/// Drives one trace through a GLR-armed engine slot by slot and returns
/// every sequential event the run emitted.
fn run_trace(trace: &[Vec<FlowRecord>], interval_secs: u32, threshold: f64) -> Vec<GlrEvent> {
    let glr = GlrConfig { max_window: SLOTS, ..GlrConfig::new(threshold, 0x5CD) };
    let config = EngineConfig::new(detector_config(), 2).with_glr(glr);
    let mut engine = ShardedEngine::new(config).expect("engine config");
    let mut events = Vec::new();
    for (t, records) in trace.iter().enumerate() {
        for updates in slot_updates(records, t, interval_secs) {
            engine.push_slice(&updates).expect("push");
            engine.end_glr_slot();
        }
        engine.end_interval_overlapped().expect("interval close");
        events.extend(engine.take_glr_events());
    }
    if engine.drain().expect("drain").is_some() {
        events.extend(engine.take_glr_events());
    }
    events
}

/// One trial's labeled DoS trace: the surge is sized off the victim's own
/// expected baseline, so every seed sees the same relative change.
fn injected_trace(seed: u64, scale: f64) -> (Vec<Vec<FlowRecord>>, u32) {
    let cfg = traffic_config(seed, scale);
    let mut generator = TrafficGenerator::new(cfg);
    let baseline = generator.expected_rank_bytes(VICTIM_RANK, ONSET_INTERVAL).max(1.0);
    let event = AnomalyEvent {
        kind: AnomalyKind::DosAttack { byte_rate: 30.0 * baseline, flows: 64 },
        victim_rank: VICTIM_RANK,
        start_interval: ONSET_INTERVAL,
        duration: INTERVALS - ONSET_INTERVAL,
    };
    let injector = AnomalyInjector::new(vec![event], seed ^ 0xA11A);
    let (trace, _truth) = injector.labeled_trace(&mut generator, INTERVALS);
    (trace, cfg.interval_secs)
}

fn clean_trace(seed: u64, scale: f64) -> (Vec<Vec<FlowRecord>>, u32) {
    let cfg = traffic_config(seed, scale);
    let mut generator = TrafficGenerator::new(cfg);
    (generator.trace(INTERVALS), cfg.interval_secs)
}

/// Slots of data consumed past the onset before a confirmed provisional
/// fired for the onset interval; `SLOTS` when only the interval-close
/// detector caught it.
fn detection_delay(events: &[GlrEvent]) -> usize {
    let onset_slot = (ONSET_INTERVAL * SLOTS) as u64;
    events
        .iter()
        .filter_map(|e| match e {
            GlrEvent::Confirmed { interval, alarm, .. }
                if *interval == ONSET_INTERVAL as u64 && alarm.raised_slot >= onset_slot =>
            {
                Some((alarm.raised_slot - onset_slot) as usize + 1)
            }
            _ => None,
        })
        .min()
        .unwrap_or(SLOTS)
}

struct SweepRow {
    threshold: f64,
    delays: Vec<usize>,
    early: usize,
    false_provisionals: usize,
    confirmed_clean: usize,
    clean_intervals: usize,
}

impl SweepRow {
    fn false_rate(&self) -> f64 {
        self.false_provisionals as f64 / self.clean_intervals as f64
    }
}

fn median(sorted: &[usize]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2] as f64
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) as f64 / 2.0
    }
}

fn run_sweep(trials: usize, scale: f64) -> Vec<SweepRow> {
    let traces: Vec<_> = (0..trials)
        .map(|i| {
            let seed = 0xB0A + i as u64 * 7919;
            (injected_trace(seed, scale), clean_trace(seed ^ 0xC1EA, scale))
        })
        .collect();
    THRESHOLDS
        .iter()
        .map(|&threshold| {
            let mut delays = Vec::new();
            let mut early = 0usize;
            let mut false_provisionals = 0usize;
            let mut confirmed_clean = 0usize;
            for ((hot, hot_secs), (cold, cold_secs)) in &traces {
                let delay = detection_delay(&run_trace(hot, *hot_secs, threshold));
                if delay < SLOTS {
                    early += 1;
                }
                delays.push(delay);
                for e in run_trace(cold, *cold_secs, threshold) {
                    match e {
                        GlrEvent::Provisional { .. } => false_provisionals += 1,
                        GlrEvent::Confirmed { .. } => confirmed_clean += 1,
                        GlrEvent::Retracted { .. } => {}
                    }
                }
            }
            delays.sort_unstable();
            SweepRow {
                threshold,
                delays,
                early,
                false_provisionals,
                confirmed_clean,
                clean_intervals: trials * INTERVALS,
            }
        })
        .collect()
}

/// Runs the threshold sweep and prints the delay / false-alarm curve.
pub fn run(args: &Args) {
    let trials = args.get("trials", 6usize);
    let scale = args.get("scale", 1.0);
    let rows = run_sweep(trials, scale);
    let mut t = Table::new(
        &format!(
            "GLR detection delay (DoS at interval {ONSET_INTERVAL} of {INTERVALS}, \
             {SLOTS} slots/interval, {trials} trials)"
        ),
        &["threshold", "median delay (slots)", "early", "false prov/interval", "confirmed clean"],
    );
    for row in &rows {
        t.row(&[
            f(row.threshold, 1),
            f(median(&row.delays), 1),
            format!("{}/{}", row.early, row.delays.len()),
            f(row.false_rate(), 4),
            row.confirmed_clean.to_string(),
        ]);
    }
    t.print();

    // The acceptance bar of the PR that added the layer: some swept
    // threshold detects in under half an interval (median) while staying
    // quiet on clean traffic.
    let winner = rows
        .iter()
        .find(|r| median(&r.delays) < SLOTS as f64 / 2.0 && r.false_rate() <= 1.0)
        .expect(
            "no threshold reached median delay < 0.5 intervals with ≤1 false provisional/interval",
        );
    println!(
        "\nthreshold {:.1} detects in {:.1}/{SLOTS} slots (median) with {:.3} false \
         provisionals per clean interval",
        winner.threshold,
        median(&winner.delays),
        winner.false_rate()
    );
    let path = t.save_csv("glr_delay").expect("write results/");
    println!("csv: {}", path.display());
}
