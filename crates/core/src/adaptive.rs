//! Online model-parameter adaptation — the first item of the paper's
//! "ongoing work" (§6): *"One possible way is periodically recomputing the
//! forecast model parameters using history data to keep up with changes in
//! overall traffic behavior."*
//!
//! [`AdaptiveDetector`] wraps [`SketchChangeDetector`] and re-runs the §3.4
//! grid search every `retune_every` intervals over a sliding window of
//! recent intervals. Retuning preserves detection continuity by replaying
//! the retained history into the freshly parameterized model, so the next
//! interval's forecast is warm immediately.
//!
//! The window stores `(key, value)` update batches, not per-flow state —
//! bounded by `window × records-per-interval`, the same data a two-pass
//! deployment already buffers for key replay. A retune hands the window to
//! the search in place, and the search folds each interval once. A window
//! of observed sketches instead would cost `H·K·8` bytes per interval
//! whatever the traffic.

use crate::detector::{DetectorConfig, IntervalReport, SketchChangeDetector};
use crate::gridsearch::{search_model, GridSearchConfig};
use scd_forecast::ModelKind;
use std::collections::VecDeque;

/// Configuration for the adaptive wrapper.
#[derive(Debug, Clone)]
pub struct AdaptiveConfig {
    /// Base detector configuration; its `model` field provides the initial
    /// parameters and the model *family* to re-tune within.
    pub detector: DetectorConfig,
    /// Re-run grid search after this many intervals (e.g. daily: 288 at
    /// 300 s intervals).
    pub retune_every: usize,
    /// How many recent intervals of updates to keep and tune on.
    pub window: usize,
    /// Grid-search settings (the paper's: `H = 1, K = 8192`, 2 passes).
    pub search: GridSearchConfig,
}

/// A change detector that periodically re-fits its forecast parameters.
pub struct AdaptiveDetector {
    config: AdaptiveConfig,
    kind: ModelKind,
    inner: SketchChangeDetector,
    history: VecDeque<Vec<(u64, f64)>>,
    since_retune: usize,
    retunes: usize,
}

impl std::fmt::Debug for AdaptiveDetector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdaptiveDetector")
            .field("kind", &self.kind)
            .field("retunes", &self.retunes)
            .field("window_filled", &self.history.len())
            .finish()
    }
}

impl AdaptiveDetector {
    /// Builds the adaptive detector.
    ///
    /// # Panics
    /// Panics if `retune_every == 0` or `window == 0`, or on an invalid
    /// base configuration.
    pub fn new(config: AdaptiveConfig) -> Self {
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
    pub fn current_model(&self) -> &scd_forecast::ModelSpec {
        &self.inner.config().model
    }

    /// How many times the parameters have been re-fitted.
    pub fn retunes(&self) -> usize {
        self.retunes
    }

    /// Processes one interval, re-tuning first when the schedule says so.
    pub fn process_interval(&mut self, items: &[(u64, f64)]) -> IntervalReport {
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
    use crate::detector::KeyStrategy;
    use scd_forecast::ModelSpec;
    use scd_sketch::SketchConfig;

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
            assert_eq!(scd_hash::crc32(lines.as_bytes()), digest, "{strategy:?}");
        }
    }
}
