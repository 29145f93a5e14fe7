//! Streaming change detection with **direct key recovery** — the §3.3
//! group-testing option, assembled into a full detector.
//!
//! [`ReversibleChangeDetector`] mirrors
//! [`SketchChangeDetector`](crate::detector::SketchChangeDetector) but
//! summarizes each interval into a [`Deltoid`] (group-testing sketch)
//! instead of a plain k-ary sketch. The error deltoid
//! `Se(t) = So(t) − Sf(t)` then *names its own heavy changers*: no second
//! pass over the input, no waiting for keys to reappear, no sampling loss.
//! This closes the blind spot of the online strategies — a key that spikes
//! once and never returns (a classic hit-and-run attack) is still
//! identified — at the documented cost of `(key_bits + 1)×` memory and
//! update work.
//!
//! The alarm rule is the same as the paper's: recover every key whose
//! reconstructed |error| is at least `T · √(ESTIMATEF2(Se(t)))`.

use crate::detector::Alarm;
use scd_forecast::{Forecaster, ModelSpec};
use scd_hash::HashRows;
use scd_sketch::{Deltoid, DeltoidConfig};
use std::sync::Arc;

/// Configuration for the reversible detector.
#[derive(Debug, Clone, PartialEq)]
pub struct ReversibleConfig {
    /// Deltoid shape (`H`, `K`, key width, seed).
    pub deltoid: DeltoidConfig,
    /// Forecasting model.
    pub model: ModelSpec,
    /// Alarm threshold parameter `T` (fraction of the error L2 norm).
    pub threshold: f64,
}

/// Per-interval report with directly recovered keys.
#[derive(Debug, Clone, Default)]
pub struct ReversibleReport {
    /// Interval index.
    pub interval: usize,
    /// False during model warm-up.
    pub warmed_up: bool,
    /// `ESTIMATEF2(Se(t))`.
    pub error_f2: f64,
    /// `TA = T·√(max(F2, 0))`.
    pub alarm_threshold: f64,
    /// Recovered keys with |error| ≥ `TA`, sorted by decreasing |error| —
    /// obtained from the sketch alone, with no key stream.
    pub alarms: Vec<Alarm>,
}

/// The change-detection pipeline over group-testing sketches.
pub struct ReversibleChangeDetector {
    config: ReversibleConfig,
    rows: Arc<HashRows>,
    model: Box<dyn Forecaster<Deltoid> + Send>,
    intervals_processed: usize,
}

impl std::fmt::Debug for ReversibleChangeDetector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReversibleChangeDetector")
            .field("config", &self.config)
            .field("intervals_processed", &self.intervals_processed)
            .finish()
    }
}

impl ReversibleChangeDetector {
    /// Builds the detector.
    ///
    /// # Panics
    /// Panics on an invalid model spec or non-positive threshold.
    pub fn new(config: ReversibleConfig) -> Self {
        config.model.validate().expect("invalid model spec");
        assert!(
            config.threshold > 0.0 && config.threshold.is_finite(),
            "threshold parameter T must be positive"
        );
        let model = config.model.build();
        let rows = HashRows::shared(config.deltoid.h, config.deltoid.k, config.deltoid.seed);
        ReversibleChangeDetector { config, rows, model, intervals_processed: 0 }
    }

    /// The configuration.
    pub fn config(&self) -> &ReversibleConfig {
        &self.config
    }

    /// Feeds one interval of `(key, value)` updates; alarms are recovered
    /// from the error sketch directly.
    pub fn process_interval(&mut self, items: &[(u64, f64)]) -> ReversibleReport {
        let t = self.intervals_processed;
        self.intervals_processed += 1;

        let mut observed = Deltoid::with_rows(Arc::clone(&self.rows), self.config.deltoid.key_bits);
        for &(key, value) in items {
            observed.update(key, value);
        }
        match self.model.step(&observed) {
            None => ReversibleReport { interval: t, ..Default::default() },
            Some((_forecast, error)) => {
                let f2 = error.estimate_f2();
                let ta = self.config.threshold * f2.max(0.0).sqrt();
                let alarms = if ta > 0.0 {
                    error
                        .recover(ta)
                        .into_iter()
                        .map(|(key, estimated_error)| Alarm { key, estimated_error, threshold: ta })
                        .collect()
                } else {
                    Vec::new()
                };
                ReversibleReport {
                    interval: t,
                    warmed_up: true,
                    error_f2: f2,
                    alarm_threshold: ta,
                    alarms,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> ReversibleConfig {
        ReversibleConfig {
            deltoid: DeltoidConfig { h: 5, k: 1024, key_bits: 32, seed: 11 },
            model: ModelSpec::Ewma { alpha: 0.5 },
            threshold: 0.3,
        }
    }

    fn steady() -> Vec<(u64, f64)> {
        (0..200u64).map(|k| (k * 101 + 7, 500.0)).collect()
    }

    #[test]
    fn hit_and_run_attack_recovered_without_key_stream() {
        // The attack key appears in exactly one interval. Two-pass would
        // need the (offline) replay; next-interval would MISS it; the
        // reversible detector names it from the sketch alone.
        let mut det = ReversibleChangeDetector::new(config());
        det.process_interval(&steady());
        det.process_interval(&steady());
        let mut attacked = steady();
        attacked.push((0xDEAD_BEEF, 300_000.0));
        let report = det.process_interval(&attacked);
        assert!(report.warmed_up);
        assert!(
            report.alarms.iter().any(|a| a.key == 0xDEAD_BEEF),
            "hit-and-run key not recovered: {:?}",
            report.alarms
        );
    }

    #[test]
    fn quiet_intervals_produce_no_alarms() {
        let mut det = ReversibleChangeDetector::new(config());
        for _ in 0..4 {
            let r = det.process_interval(&steady());
            if r.warmed_up {
                assert!(r.alarms.is_empty(), "false recovery on steady traffic: {:?}", r.alarms);
            }
        }
    }

    #[test]
    fn outage_recovered_as_negative_change() {
        let mut det = ReversibleChangeDetector::new(config());
        let mut with_big = steady();
        with_big.push((0x0BAD_CAFE, 400_000.0));
        det.process_interval(&with_big);
        det.process_interval(&with_big);
        // The big flow disappears entirely — no record carries its key.
        let report = det.process_interval(&steady());
        let alarm = report
            .alarms
            .iter()
            .find(|a| a.key == 0x0BAD_CAFE)
            .expect("outage key recovered with no key stream");
        assert!(alarm.estimated_error < -100_000.0);
    }

    #[test]
    fn warm_up_reports_empty() {
        let mut det = ReversibleChangeDetector::new(config());
        let r = det.process_interval(&steady());
        assert!(!r.warmed_up);
        assert!(r.alarms.is_empty());
    }

    #[test]
    fn alarms_sorted_by_magnitude() {
        let mut det = ReversibleChangeDetector::new(config());
        det.process_interval(&steady());
        det.process_interval(&steady());
        // Both changes must clear TA = 0.3·√(400K² + 900K²) ≈ 296K.
        let mut attacked = steady();
        attacked.push((0x1111_1111, 400_000.0));
        attacked.push((0x2222_2222, 900_000.0));
        let report = det.process_interval(&attacked);
        let idx_small = report.alarms.iter().position(|a| a.key == 0x1111_1111);
        let idx_big = report.alarms.iter().position(|a| a.key == 0x2222_2222);
        match (idx_big, idx_small) {
            (Some(b), Some(s)) => assert!(b < s, "larger change must rank first"),
            other => panic!("both attacks should be recovered, got {other:?}"),
        }
    }
}
