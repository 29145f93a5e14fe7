//! Shared comparison runner: trace generation, per-flow reference runs,
//! sketch runs, and their per-interval error lists.

use crate::metrics;
use crate::perflow::PerFlowDetector;
use scd_core::{DetectorConfig, KeyStrategy, SketchChangeDetector};
use scd_forecast::ModelSpec;
use scd_sketch::SketchConfig;
use scd_traffic::{KeySpec, RouterProfile, TrafficGenerator, ValueSpec};
use std::collections::HashMap;

/// A generated per-interval update trace plus its provenance.
#[derive(Debug, Clone)]
pub struct Trace {
    /// `(key, value)` updates per interval.
    pub intervals: Vec<Vec<(u64, f64)>>,
    /// Interval length in seconds.
    pub interval_secs: u32,
    /// Router profile used.
    pub profile: RouterProfile,
    /// Total record count (for reporting).
    pub records: usize,
}

/// Generates the update trace for a router profile at the given interval
/// length, deterministic in `seed`.
///
/// Each interval holds one byte total per key, in first-seen order: the
/// same bits as per-record updates for every detector, since integer
/// sums below 2⁵³ never round and both detectors dedup keys first.
pub fn make_trace(
    profile: RouterProfile,
    interval_secs: u32,
    n_intervals: usize,
    scale: f64,
    seed: u64,
) -> Trace {
    let mut cfg = profile.config(seed).scaled(scale);
    cfg.interval_secs = interval_secs;
    let mut generator = TrafficGenerator::new(cfg);
    let mut records = 0usize;
    let intervals: Vec<Vec<(u64, f64)>> = (0..n_intervals)
        .map(|t| {
            let r = generator.interval_records(t);
            records += r.len();
            let mut slot: HashMap<u64, usize> = HashMap::new();
            let mut totals: Vec<(u64, f64)> = Vec::new();
            for rec in &r {
                let key = KeySpec::DstIp.key_of(rec);
                let i = *slot.entry(key).or_insert_with(|| {
                    totals.push((key, 0.0));
                    totals.len() - 1
                });
                totals[i].1 += ValueSpec::Bytes.value_of(rec);
            }
            totals
        })
        .collect();
    Trace { intervals, interval_secs, profile, records }
}

/// Per-interval outcome of one detector run (after its model warmed up).
#[derive(Debug, Clone)]
pub struct IntervalOutcome {
    /// Interval index in the trace.
    pub t: usize,
    /// Per-key forecast errors, ranked: decreasing |error|, ties by
    /// ascending key. The per-flow detector reports them ranked; a sketch
    /// report's are in scan order until [`run_sketch`] ranks them, which is
    /// what lets an experiment read a top-N as a prefix.
    pub errors: Vec<(u64, f64)>,
    /// Second moment of the errors: exact for per-flow, `ESTIMATEF2` for
    /// sketches.
    pub f2: f64,
}

/// Runs exact per-flow detection; returns one outcome per warmed-up
/// interval at index ≥ `warm_up`.
pub fn run_perflow(trace: &Trace, model: &ModelSpec, warm_up: usize) -> Vec<IntervalOutcome> {
    let mut det = PerFlowDetector::new(model.clone());
    let mut out = Vec::new();
    for (t, items) in trace.intervals.iter().enumerate() {
        let rep = det.process_interval(items);
        if rep.warmed_up && t >= warm_up {
            out.push(IntervalOutcome { t, errors: rep.errors, f2: rep.error_f2 });
        }
    }
    out
}

/// Total per-flow error energy `√Σ_t F2(t)` over the warmed-up intervals
/// at index ≥ `warm_up`: the reference side of the §5.1 energy
/// comparisons.
pub fn perflow_energy(trace: &Trace, model: &ModelSpec, warm_up: usize) -> f64 {
    let f2: Vec<f64> = run_perflow(trace, model, warm_up).iter().map(|o| o.f2).collect();
    metrics::total_energy(&f2)
}

/// Runs sketch-based detection (offline two-pass, as in all the paper's
/// experiments); returns one outcome per warmed-up interval ≥ `warm_up`.
pub fn run_sketch(
    trace: &Trace,
    model: &ModelSpec,
    sketch: SketchConfig,
    warm_up: usize,
) -> Vec<IntervalOutcome> {
    let mut det = SketchChangeDetector::new(DetectorConfig {
        sketch,
        model: model.clone(),
        threshold: 0.01, // alarms unused here; metrics re-threshold
        key_strategy: KeyStrategy::TwoPass,
    });
    let mut out = Vec::new();
    for (t, items) in trace.intervals.iter().enumerate() {
        let mut rep = det.process_interval(items);
        if rep.warmed_up && t >= warm_up {
            rep.rank_errors();
            out.push(IntervalOutcome { t, errors: rep.errors, f2: rep.error_f2 });
        }
    }
    out
}

/// Pairs per-flow and sketch outcomes on their common intervals.
pub fn paired<'a>(
    perflow: &'a [IntervalOutcome],
    sketch: &'a [IntervalOutcome],
) -> Vec<(&'a IntervalOutcome, &'a IntervalOutcome)> {
    let mut out = Vec::new();
    let mut j = 0usize;
    for pf in perflow {
        while j < sketch.len() && sketch[j].t < pf.t {
            j += 1;
        }
        if j < sketch.len() && sketch[j].t == pf.t {
            out.push((pf, &sketch[j]));
        }
    }
    out
}

/// Runs a set of independent jobs on up to `workers` scoped threads,
/// preserving output order. Used to parallelize (model, H, K) sweeps.
pub fn parallel_map<T, R, F>(items: Vec<T>, workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    use std::sync::Mutex;
    let workers = workers.max(1);
    let n = items.len();
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    // A shared LIFO job queue and a result bin, both behind plain mutexes:
    // jobs here are coarse (whole detector runs), so lock traffic is noise.
    let queue: Mutex<Vec<(usize, T)>> = Mutex::new(items.into_iter().enumerate().collect());
    let results: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|scope| {
        for _ in 0..workers.min(n.max(1)) {
            scope.spawn(|| loop {
                let job = queue.lock().expect("job queue").pop();
                match job {
                    Some((idx, item)) => {
                        let r = f(item);
                        results.lock().expect("result bin").push((idx, r));
                    }
                    None => break,
                }
            });
        }
    });
    for (idx, r) in results.into_inner().expect("result bin") {
        slots[idx] = Some(r);
    }
    slots.into_iter().map(|s| s.expect("all jobs completed")).collect()
}

/// Default worker count: physical parallelism, capped to leave the system
/// responsive.
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;
    use scd_traffic::to_updates;

    #[test]
    fn trace_generation_is_deterministic() {
        let a = make_trace(RouterProfile::Small, 60, 4, 0.2, 7);
        let b = make_trace(RouterProfile::Small, 60, 4, 0.2, 7);
        assert_eq!(a.intervals, b.intervals);
        assert_eq!(a.records, b.records);
        assert!(a.records > 0);
    }

    /// An outcome list as bits: per interval its index, F2 and every
    /// ranked error.
    fn outcome_bits(outcomes: &[IntervalOutcome]) -> Vec<u64> {
        let mut bits = Vec::new();
        for o in outcomes {
            bits.extend([o.t as u64, o.f2.to_bits(), o.errors.len() as u64]);
            bits.extend(o.errors.iter().flat_map(|&(k, e)| [k, e.to_bits()]));
        }
        bits
    }

    #[test]
    fn per_key_totals_give_per_record_bits() {
        let (profile, secs, n, scale, seed) = (RouterProfile::Medium, 300, 8, 0.3, 21);
        let totals = make_trace(profile, secs, n, scale, seed);
        let mut cfg = profile.config(seed).scaled(scale);
        cfg.interval_secs = secs;
        let mut generator = TrafficGenerator::new(cfg);
        let per_record = Trace {
            intervals: (0..n)
                .map(|t| {
                    to_updates(&generator.interval_records(t), KeySpec::DstIp, ValueSpec::Bytes)
                })
                .collect(),
            ..totals.clone()
        };
        let updates = |t: &Trace| t.intervals.iter().map(Vec::len).sum::<usize>();
        assert_eq!(updates(&per_record), totals.records);
        assert!(updates(&totals) * 2 < totals.records, "the totals fold repeated keys");
        for (tot, rec) in totals.intervals.iter().zip(&per_record.intervals) {
            let mut seen = std::collections::HashSet::new();
            let first_seen: Vec<u64> =
                rec.iter().map(|&(k, _)| k).filter(|&k| seen.insert(k)).collect();
            assert_eq!(tot.iter().map(|&(k, _)| k).collect::<Vec<_>>(), first_seen);
        }
        for model in [ModelSpec::Ewma { alpha: 0.4 }, ModelSpec::Nshw { alpha: 0.5, beta: 0.2 }] {
            assert_eq!(
                outcome_bits(&run_perflow(&totals, &model, 2)),
                outcome_bits(&run_perflow(&per_record, &model, 2)),
            );
            for (h, k) in [(1, 1024), (5, 8192)] {
                let sketch = SketchConfig { h, k, seed: 3 };
                assert_eq!(
                    outcome_bits(&run_sketch(&totals, &model, sketch, 2)),
                    outcome_bits(&run_sketch(&per_record, &model, sketch, 2)),
                );
            }
        }
    }

    #[test]
    fn perflow_and_sketch_pair_up() {
        let trace = make_trace(RouterProfile::Small, 60, 8, 0.3, 9);
        let model = ModelSpec::Ewma { alpha: 0.5 };
        let pf = run_perflow(&trace, &model, 2);
        let sk = run_sketch(&trace, &model, SketchConfig { h: 5, k: 8192, seed: 3 }, 2);
        let pairs = paired(&pf, &sk);
        assert_eq!(pairs.len(), pf.len());
        // Agreement sanity on the paired intervals.
        let sims: Vec<f64> =
            pairs.iter().map(|(p, s)| metrics::topn_similarity(&p.errors, &s.errors, 20)).collect();
        assert!(metrics::mean(&sims) > 0.5, "sims: {sims:?}");
    }

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map((0..50).collect::<Vec<i32>>(), 4, |x| x * x);
        assert_eq!(out, (0..50).map(|x| x * x).collect::<Vec<i32>>());
    }

    #[test]
    fn parallel_map_empty_and_single_worker() {
        let empty: Vec<i32> = parallel_map(Vec::<i32>::new(), 3, |x| x);
        assert!(empty.is_empty());
        let one = parallel_map(vec![1, 2, 3], 1, |x| x + 1);
        assert_eq!(one, vec![2, 3, 4]);
    }
}
