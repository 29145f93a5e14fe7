//! Online monitoring with the paper's §6 "ongoing work" features combined:
//!
//! * **record sampling** in front of the sketch (`UpdateSampler`) — 10% of
//!   records, Horvitz–Thompson rescaled;
//! * **staggered interval lanes** (`StaggeredDetector`) — two phase-shifted
//!   detectors against boundary straddling;
//! * **adaptive re-tuning** (`AdaptiveDetector`) — EWMA's α re-fitted by
//!   grid search every 20 intervals;
//! * **reversible detection** (`ReversibleChangeDetector`) — group-testing
//!   sketches recover the attacker with *no key replay*, online.
//!
//! One synthetic stream with two injected events (a boundary-straddling
//! burst and a hit-and-run attack) flows through all four configurations.
//!
//! ```sh
//! cargo run --release --example online_monitor
//! cargo test --example online_monitor     # the adaptive detector's unit tests
//! ```

use sketch_change::core::{
    search_model, GridSearchConfig, ReversibleChangeDetector, ReversibleConfig, StaggeredDetector,
    UpdateSampler,
};
use sketch_change::prelude::*;
use sketch_change::sketch::DeltoidConfig;
use std::collections::VecDeque;

#[cfg_attr(test, allow(dead_code))]
fn main() {
    let slots = 60usize; // 30-second base slots; detector interval = 2 slots
    let mut cfg = RouterProfile::Small.config(99);
    cfg.interval_secs = 30;
    cfg.records_per_sec = 30.0;
    cfg.n_flows = 2_000;
    let mut generator = TrafficGenerator::new(cfg);

    // Event A: burst straddling an even slot boundary (slots 29-30).
    let straddler = generator.dst_ip_of_rank(900) as u64;
    // Event B: hit-and-run attack in slot 40 only, on a key that never
    // appears again.
    let hit_and_run: u64 = 0x0BAD_F00D;
    let burst_bytes = 60.0 * generator.expected_rank_bytes(5, 0);

    let base = DetectorConfig {
        sketch: SketchConfig { h: 5, k: 16_384, seed: 21 },
        model: ModelSpec::Ewma { alpha: 0.5 },
        threshold: 0.25,
        key_strategy: KeyStrategy::TwoPass,
    };

    let mut staggered = StaggeredDetector::new(base.clone(), 2, 1).expect("two lanes, one shard");
    let mut adaptive = AdaptiveDetector::new(AdaptiveConfig {
        detector: base.clone(),
        retune_every: 20,
        window: 16,
        search: GridSearchConfig::paper_default(30),
    });
    let mut reversible = ReversibleChangeDetector::new(ReversibleConfig {
        deltoid: DeltoidConfig { h: 5, k: 4_096, key_bits: 32, seed: 77 },
        model: ModelSpec::Ewma { alpha: 0.5 },
        threshold: 0.25,
    });
    let mut sampler = UpdateSampler::new(0.10, 5);

    println!(
        "events: straddling burst on {} at slots 29-30; hit-and-run on {} at slot 40",
        sketch_change::traffic::record::format_ipv4(straddler as u32),
        sketch_change::traffic::record::format_ipv4(hit_and_run as u32)
    );
    println!("sampling 10% of records into every detector\n");

    let mut findings: Vec<String> = Vec::new();
    for s in 0..slots {
        let mut updates =
            to_updates(&generator.interval_records(s), KeySpec::DstIp, ValueSpec::Bytes);
        // Attacks arrive as many small flows (as real floods do) so the
        // 10% record sampler sees a representative subset of them.
        if s == 29 || s == 30 {
            for _ in 0..100 {
                updates.push((straddler, burst_bytes / 200.0)); // half per slot
            }
        }
        if s == 40 {
            for _ in 0..100 {
                updates.push((hit_and_run, burst_bytes / 100.0));
            }
        }
        let thinned = sampler.sample_interval(&updates);

        // Staggered lanes consume base slots directly.
        if let Some((lane, report)) = staggered.process_slot(&thinned, 1).expect("one shard") {
            if report.alarms.iter().any(|al| al.key == straddler) {
                findings.push(format!(
                    "slot {s:>2}: staggered lane {lane} caught the boundary-straddling burst"
                ));
            }
        }
        // Adaptive and reversible detectors run at base-slot resolution
        // (30 s intervals) — independent consumers of the same stream.
        let a = adaptive.process_interval(&thinned);
        if a.alarms.iter().any(|al| al.key == straddler) && (29..=31).contains(&s) {
            findings.push(format!(
                "slot {s:>2}: adaptive detector (model {}) flagged the burst",
                adaptive.current_model().describe()
            ));
        }
        let r = reversible.process_interval(&thinned);
        if r.alarms.iter().any(|al| al.key == hit_and_run) {
            findings.push(format!(
                "slot {s:>2}: reversible detector recovered the hit-and-run key with no replay"
            ));
        }
    }

    for f in &findings {
        println!("{f}");
    }
    println!(
        "\nadaptive detector re-tuned {} time(s); current model: {}",
        adaptive.retunes(),
        adaptive.current_model().describe()
    );
    assert!(
        findings.iter().any(|f| f.contains("staggered")),
        "expected the staggered ensemble to catch the straddler"
    );
    assert!(
        findings.iter().any(|f| f.contains("hit-and-run")),
        "expected the reversible detector to recover the hit-and-run key"
    );
    println!("all three extension mechanisms fired as designed.");
}

// Online model-parameter adaptation — the first item of the paper's
// "ongoing work" (§6): *"One possible way is periodically recomputing the
// forecast model parameters using history data to keep up with changes in
// overall traffic behavior."*
//
// `AdaptiveDetector` wraps `SketchChangeDetector` and re-runs the §3.4
// grid search every `retune_every` intervals over a sliding window of
// recent intervals. Retuning preserves detection continuity by replaying
// the retained history into the freshly parameterized model, so the next
// interval's forecast is warm immediately.
//
// The window stores `(key, value)` update batches, not per-flow state —
// bounded by `window × records-per-interval`, the same data a two-pass
// deployment already buffers for key replay. A retune hands the window to
// the search in place, and the search folds each interval once. A window
// of observed sketches instead would cost `H·K·8` bytes per interval
// whatever the traffic.

/// Configuration for the adaptive wrapper.
#[derive(Debug, Clone)]
struct AdaptiveConfig {
    /// Base detector configuration; its `model` field provides the initial
    /// parameters and the model *family* to re-tune within.
    detector: DetectorConfig,
    /// Re-run grid search after this many intervals (e.g. daily: 288 at
    /// 300 s intervals).
    retune_every: usize,
    /// How many recent intervals of updates to keep and tune on.
    window: usize,
    /// Grid-search settings (the paper's: `H = 1, K = 8192`, 2 passes).
    search: GridSearchConfig,
}

/// A change detector that periodically re-fits its forecast parameters.
struct AdaptiveDetector {
    config: AdaptiveConfig,
    kind: ModelKind,
    inner: SketchChangeDetector,
    history: VecDeque<Vec<(u64, f64)>>,
    since_retune: usize,
    retunes: usize,
}

impl AdaptiveDetector {
    /// Builds the adaptive detector.
    ///
    /// # Panics
    /// Panics if `retune_every == 0` or `window == 0`, or on an invalid
    /// base configuration.
    fn new(config: AdaptiveConfig) -> Self {
        assert!(config.retune_every > 0, "retune_every must be positive");
        assert!(config.window > 0, "window must be positive");
        let kind = config.detector.model.kind();
        let inner = SketchChangeDetector::new(config.detector.clone());
        AdaptiveDetector {
            kind,
            inner,
            history: VecDeque::with_capacity(config.window),
            since_retune: 0,
            config,
            retunes: 0,
        }
    }

    /// The currently active model parameters.
    fn current_model(&self) -> &ModelSpec {
        &self.inner.config().model
    }

    /// How many times the parameters have been re-fitted.
    fn retunes(&self) -> usize {
        self.retunes
    }

    /// Processes one interval, re-tuning first when the schedule says so.
    fn process_interval(&mut self, items: &[(u64, f64)]) -> IntervalReport {
        if self.since_retune >= self.config.retune_every && self.history.len() >= 2 {
            self.retune();
            self.since_retune = 0;
        }
        // Record history for future tuning and (post-retune) replay.
        if self.history.len() == self.config.window {
            self.history.pop_front();
        }
        self.history.push_back(items.to_vec());
        self.since_retune += 1;
        self.inner.process_interval(items)
    }

    /// Re-fits parameters on the retained window and swaps in a fresh
    /// detector, replayed over the window so its model is warm.
    fn retune(&mut self) {
        let window = &*self.history.make_contiguous();
        // Tune with no warm-up skip: the window *is* the recent history.
        let mut search = self.config.search;
        search.warm_up_intervals = 0;
        let result = search_model(self.kind, &search, window);
        let mut cfg = self.config.detector.clone();
        cfg.model = result.spec;
        let mut fresh = SketchChangeDetector::new(cfg);
        for items in window {
            let _ = fresh.process_interval(items);
        }
        self.inner = fresh;
        self.retunes += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(retune_every: usize, window: usize) -> AdaptiveConfig {
        AdaptiveConfig {
            detector: DetectorConfig {
                sketch: SketchConfig { h: 3, k: 1024, seed: 4 },
                model: ModelSpec::Ewma { alpha: 0.9 },
                threshold: 0.1,
                key_strategy: KeyStrategy::TwoPass,
            },
            retune_every,
            window,
            search: GridSearchConfig {
                sketch: SketchConfig { h: 1, k: 512, seed: 1 },
                passes: 2,
                subdivisions: 5,
                arima_subdivisions: 3,
                max_window: 4,
                warm_up_intervals: 0,
                seasonal_period: 4,
            },
        }
    }

    /// A smooth mean-reverting flow pair.
    fn interval(t: usize) -> Vec<(u64, f64)> {
        let base = 1_000.0 + 100.0 * ((t as f64) * 0.7).sin();
        vec![(1, base), (2, base / 10.0)]
    }

    #[test]
    fn retunes_on_schedule() {
        let mut det = AdaptiveDetector::new(config(5, 8));
        for t in 0..16 {
            det.process_interval(&interval(t));
        }
        assert!(det.retunes() >= 2, "expected ≥2 retunes, got {}", det.retunes());
    }

    #[test]
    fn stays_within_model_family() {
        let mut det = AdaptiveDetector::new(config(4, 6));
        for t in 0..10 {
            det.process_interval(&interval(t));
        }
        assert!(matches!(det.current_model(), ModelSpec::Ewma { .. }));
    }

    #[test]
    fn detection_survives_retuning() {
        // A spike right after a retune boundary must still alarm: the
        // replayed window keeps the model warm.
        let mut det = AdaptiveDetector::new(config(4, 6));
        for t in 0..12 {
            det.process_interval(&interval(t));
        }
        let mut spiked = interval(12);
        spiked[0].1 *= 30.0;
        let report = det.process_interval(&spiked);
        assert!(report.warmed_up, "model must be warm right after retune");
        assert!(
            report.alarms.iter().any(|a| a.key == 1),
            "spike missed after retune: {:?}",
            report.alarms
        );
    }

    #[test]
    fn no_retune_before_schedule() {
        let mut det = AdaptiveDetector::new(config(100, 8));
        for t in 0..20 {
            det.process_interval(&interval(t));
        }
        assert_eq!(det.retunes(), 0);
    }

    #[test]
    #[should_panic(expected = "retune_every")]
    fn zero_schedule_rejected() {
        let _ = AdaptiveDetector::new(config(0, 4));
    }

    #[test]
    fn reports_are_pinned_under_every_key_strategy() {
        // A digest of every report's canonical line over four retunes of
        // fractional traffic with a spike, as the detector gave it when
        // the search ran a whole detector per candidate. `Sampled` replays
        // advance its sampler, so it is the strategy most likely to drift.
        for (strategy, digest) in [
            (KeyStrategy::TwoPass, 0xdc15_5f66),
            (KeyStrategy::NextInterval, 0x12c3_c4d9),
            (KeyStrategy::Sampled { rate: 0.5, seed: 9 }, 0xa6f2_459a),
        ] {
            let mut cfg = config(5, 6);
            cfg.detector.key_strategy = strategy;
            let mut det = AdaptiveDetector::new(cfg);
            let mut lines = String::new();
            for t in 0..24 {
                let mut items: Vec<(u64, f64)> = (0..8u64)
                    .map(|k| {
                        let phase = 0.45 * t as f64 + k as f64;
                        (k * 0x9E37_79B9 + 11, 250.5 + 37.25 * k as f64 + 60.125 * phase.sin())
                    })
                    .collect();
                if t == 17 {
                    items[3].1 *= 20.0;
                }
                lines.push_str(&det.process_interval(&items).canonical_line());
                lines.push('\n');
            }
            assert_eq!(det.retunes(), 4, "{strategy:?}");
            assert_eq!(sketch_change::hash::crc32(lines.as_bytes()), digest, "{strategy:?}");
        }
    }
}
