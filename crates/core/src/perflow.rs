//! Exact per-flow change detection — the reference the paper compares
//! sketches against (§2.2: "In an ideal environment with infinite
//! resources, we can perform time series forecasting and change detection
//! on a per-flow basis").
//!
//! One scalar forecaster per signal `A[a]`. A signal participates "if it
//! appears before or during interval It": once a key has been seen, its
//! model keeps running, observing 0 in intervals where the key is absent —
//! this is exactly what the sketch does implicitly (absent keys simply
//! contribute nothing to `So(t)`), and it is what lets a *disappearing*
//! flow register as a large negative change.
//!
//! Memory and time are `O(#flows)` — tens of millions at ISP scale, which
//! is the cost the sketch exists to avoid. Keep that in mind before feeding
//! this detector a full-scale trace.

use scd_forecast::{Forecaster, ModelSpec};
use std::collections::HashMap;

/// Exact per-interval results from per-flow analysis.
#[derive(Debug, Clone, Default)]
pub struct PerFlowReport {
    /// Interval index.
    pub interval: usize,
    /// False while *every* tracked flow is still inside model warm-up.
    pub warmed_up: bool,
    /// True total error energy `F2 = Σ_a e_a(t)²` over flows with warm
    /// models.
    pub error_f2: f64,
    /// Exact forecast error per flow (flows with warm models only), sorted
    /// by decreasing |error|.
    pub errors: Vec<(u64, f64)>,
}

impl PerFlowReport {
    /// Flows whose |error| meets `threshold`.
    pub fn alarms(&self, threshold: f64) -> Vec<(u64, f64)> {
        self.errors.iter().copied().take_while(|(_, e)| e.abs() >= threshold).collect()
    }

    /// The L2 norm of the interval's forecast errors.
    pub fn l2_norm(&self) -> f64 {
        self.error_f2.sqrt()
    }
}

/// Exact per-flow detector: one scalar model per key.
pub struct PerFlowDetector {
    model_spec: ModelSpec,
    models: HashMap<u64, Box<dyn Forecaster<f64> + Send>>,
    intervals_processed: usize,
}

impl std::fmt::Debug for PerFlowDetector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PerFlowDetector")
            .field("model", &self.model_spec)
            .field("tracked_flows", &self.models.len())
            .field("intervals_processed", &self.intervals_processed)
            .finish()
    }
}

impl PerFlowDetector {
    /// Builds the detector.
    ///
    /// # Panics
    /// Panics on an invalid model spec.
    pub fn new(model: ModelSpec) -> Self {
        model.validate().expect("invalid model spec");
        PerFlowDetector { model_spec: model, models: HashMap::new(), intervals_processed: 0 }
    }

    /// Number of intervals fed so far.
    pub fn intervals_processed(&self) -> usize {
        self.intervals_processed
    }

    /// Feeds one interval's `(key, value)` stream; duplicate keys are
    /// pre-aggregated (the observed value `o_a(t)` is the total update).
    /// Every previously-seen key that is absent from `items` observes 0.
    pub fn process_interval(&mut self, items: &[(u64, f64)]) -> PerFlowReport {
        let t = self.intervals_processed;
        self.intervals_processed += 1;

        // o_a(t): total update per key this interval.
        let mut observed: HashMap<u64, f64> = HashMap::new();
        for &(key, value) in items {
            *observed.entry(key).or_insert(0.0) += value;
        }

        // Make sure every newly-appearing key has a model. A signal that
        // first appears at interval t existed (with value 0) in intervals
        // 0..t — the Turnstile model's signals are defined over the whole
        // key space — so a new model is backfilled with t zero
        // observations. This is also exactly what sketch-space forecasting
        // implies by linearity (every cell's model runs from interval 0),
        // so the per-flow reference and the sketch stay aligned on keys
        // that appear mid-trace.
        for &key in observed.keys() {
            self.models.entry(key).or_insert_with(|| {
                let mut model = self.model_spec.build();
                for _ in 0..t {
                    model.observe(&0.0);
                }
                model
            });
        }

        let mut errors = Vec::new();
        let mut any_warm = false;
        for (&key, model) in &mut self.models {
            let value = observed.get(&key).copied().unwrap_or(0.0);
            if let Some((_forecast, e)) = model.step(&value) {
                any_warm = true;
                errors.push((key, e));
            }
        }
        errors.sort_by(|a, b| b.1.abs().total_cmp(&a.1.abs()).then_with(|| a.0.cmp(&b.0)));
        // F2 in ranked order, not map order: the map's order is seeded per
        // process, and the sum's low bits depend on its order.
        let f2 = errors.iter().fold(0.0, |f2, &(_, e)| f2 + e * e);
        PerFlowReport { interval: t, warmed_up: any_warm, error_f2: f2, errors }
    }

    /// Convenience: runs the detector over a whole trace and returns one
    /// report per interval.
    pub fn run(&mut self, intervals: &[Vec<(u64, f64)>]) -> Vec<PerFlowReport> {
        intervals.iter().map(|i| self.process_interval(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ewma() -> ModelSpec {
        ModelSpec::Ewma { alpha: 0.5 }
    }

    #[test]
    fn exact_errors_for_known_stream() {
        let mut det = PerFlowDetector::new(ModelSpec::Ewma { alpha: 1.0 }); // last-value
        det.process_interval(&[(1, 100.0), (2, 40.0)]);
        let r = det.process_interval(&[(1, 130.0), (2, 40.0)]);
        assert!(r.warmed_up);
        let errs: HashMap<u64, f64> = r.errors.iter().copied().collect();
        assert_eq!(errs[&1], 30.0);
        assert_eq!(errs[&2], 0.0);
        assert!((r.error_f2 - 900.0).abs() < 1e-9);
    }

    #[test]
    fn absent_keys_observe_zero() {
        let mut det = PerFlowDetector::new(ModelSpec::Ewma { alpha: 1.0 });
        det.process_interval(&[(7, 500.0)]);
        let r = det.process_interval(&[]); // flow 7 disappears
        let errs: HashMap<u64, f64> = r.errors.iter().copied().collect();
        assert_eq!(errs[&7], -500.0, "disappearance is a negative change");
    }

    #[test]
    fn duplicate_keys_aggregate() {
        let mut det = PerFlowDetector::new(ModelSpec::Ewma { alpha: 1.0 });
        det.process_interval(&[(3, 10.0), (3, 20.0)]); // o_3 = 30
        let r = det.process_interval(&[(3, 45.0)]);
        assert_eq!(r.errors[0], (3, 15.0));
    }

    #[test]
    fn new_keys_keep_getting_models() {
        let mut det = PerFlowDetector::new(ewma());
        det.process_interval(&[(1, 1.0)]);
        det.process_interval(&[(1, 1.0), (2, 2.0)]);
        det.process_interval(&[(3, 3.0)]);
        assert_eq!(det.models.len(), 3);
    }

    #[test]
    fn errors_sorted_by_magnitude() {
        let mut det = PerFlowDetector::new(ModelSpec::Ewma { alpha: 1.0 });
        det.process_interval(&[(1, 0.0), (2, 0.0), (3, 0.0)]);
        let r = det.process_interval(&[(1, 5.0), (2, 50.0), (3, -20.0)]);
        let keys: Vec<u64> = r.errors.iter().map(|&(k, _)| k).collect();
        assert_eq!(keys, vec![2, 3, 1]);
    }

    #[test]
    fn alarms_respect_threshold() {
        let mut det = PerFlowDetector::new(ModelSpec::Ewma { alpha: 1.0 });
        det.process_interval(&[(1, 0.0), (2, 0.0)]);
        let r = det.process_interval(&[(1, 100.0), (2, 5.0)]);
        let alarms = r.alarms(50.0);
        assert_eq!(alarms, vec![(1, 100.0)]);
    }

    #[test]
    fn no_warm_reports_before_model_ready() {
        let mut det = PerFlowDetector::new(ModelSpec::Nshw { alpha: 0.5, beta: 0.5 });
        let r0 = det.process_interval(&[(1, 1.0)]);
        let r1 = det.process_interval(&[(1, 1.0)]);
        let r2 = det.process_interval(&[(1, 1.0)]);
        assert!(!r0.warmed_up && !r1.warmed_up);
        assert!(r2.warmed_up, "NSHW warm after two observations");
    }

    #[test]
    fn error_f2_is_summed_in_rank_order() {
        // 1 500 keys whose errors span twelve orders of magnitude, so the
        // sum's low bits depend on its order.
        let mut rng = scd_traffic::Rng::new(0x1E);
        let intervals: Vec<Vec<(u64, f64)>> = (0..3)
            .map(|_| {
                (0..1_500u64)
                    .map(|key| {
                        let scale = 10f64.powi(rng.below(12) as i32);
                        (key * 7_919, rng.uniform_in(0.0, 1.0) * scale)
                    })
                    .collect()
            })
            .collect();
        let run = || PerFlowDetector::new(ewma()).run(&intervals);
        let (a, b) = (run(), run());
        for (ra, rb) in a.iter().zip(&b).skip(1) {
            assert!(ra.errors.len() >= 1_000);
            let want = ra.errors.iter().fold(0.0, |f2, &(_, e)| f2 + e * e);
            assert_eq!(ra.error_f2.to_bits(), want.to_bits(), "interval {}", ra.interval);
            assert_eq!(ra.error_f2.to_bits(), rb.error_f2.to_bits(), "interval {}", ra.interval);
        }
    }

    #[test]
    fn run_processes_whole_trace() {
        let trace = vec![vec![(1u64, 10.0)], vec![(1u64, 12.0)], vec![(1u64, 14.0)]];
        let mut det = PerFlowDetector::new(ewma());
        let reports = det.run(&trace);
        assert_eq!(reports.len(), 3);
        assert_eq!(reports[2].interval, 2);
    }
}
