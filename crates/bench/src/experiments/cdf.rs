//! Shared machinery for the relative-difference CDF experiments
//! (Figures 1–3): random model parameters, sketch-vs-per-flow total-energy
//! comparison, and CDF summarization.
//!
//! The sketch energy is the grid search's objective: each trace is folded
//! once per shape and every spec scored from that fold, with no detector.

use crate::args::CommonArgs;
use crate::metrics;
use crate::random::random_spec;
use crate::runner::{default_workers, make_trace, parallel_map, perflow_energy, Trace};
use crate::table::{f, Table};
use scd_core::gridsearch::{estimated_total_energy, observe};
use scd_forecast::{ModelKind, ModelSpec};
use scd_sketch::SketchConfig;
use scd_traffic::{Rng, RouterProfile};

/// The paper's ten routers, emulated as ten independently seeded
/// generators spanning the three size classes.
pub fn ten_routers(base_seed: u64) -> Vec<(RouterProfile, u64)> {
    let mut out = Vec::new();
    for i in 0..2u64 {
        out.push((RouterProfile::Large, base_seed + i));
    }
    for i in 0..4u64 {
        out.push((RouterProfile::Medium, base_seed + 100 + i));
    }
    for i in 0..4u64 {
        out.push((RouterProfile::Small, base_seed + 200 + i));
    }
    out
}

/// Builds the traces for a router list at the given interval size.
pub fn build_traces(
    routers: &[(RouterProfile, u64)],
    interval_secs: u32,
    common: &CommonArgs,
) -> Vec<Trace> {
    routers
        .iter()
        .map(|&(profile, seed)| {
            make_trace(profile, interval_secs, common.intervals(interval_secs), common.scale, seed)
        })
        .collect()
}

/// Collects relative-difference samples of total energy `√Σ F2` for `kind`
/// across all traces with `n_random` random parameter points each (the
/// paper's "random" experiment design): one list per shape in `shapes`.
pub fn samples_for_model(
    kind: ModelKind,
    traces: &[Trace],
    shapes: &[SketchConfig],
    n_random: usize,
    warm_up: usize,
    seed: u64,
) -> Vec<Vec<f64>> {
    let mut rng = Rng::new(seed ^ 0xCDF);
    let specs: Vec<ModelSpec> = (0..n_random).map(|_| random_spec(kind, 10, &mut rng)).collect();
    let workers = default_workers();
    let jobs = |n: usize| (0..traces.len()).flat_map(move |ti| (0..n).map(move |j| (ti, j)));

    let perflow = parallel_map(jobs(specs.len()).collect(), workers, |(ti, si)| {
        perflow_energy(&traces[ti], &specs[si], warm_up)
    });
    let sketch = parallel_map(jobs(shapes.len()).collect(), workers, |(ti, hi)| {
        let observed = observe(shapes[hi], &traces[ti].intervals);
        specs
            .iter()
            .map(|spec| estimated_total_energy(spec, &observed, warm_up).sqrt())
            .collect::<Vec<f64>>()
    });
    (0..shapes.len())
        .map(|hi| {
            jobs(specs.len())
                .map(|(ti, si)| {
                    let sk = sketch[ti * shapes.len() + hi][si];
                    metrics::relative_difference(sk, perflow[ti * specs.len() + si])
                })
                .collect()
        })
        .collect()
}

/// Prints a CDF summary row set and saves the full CDF as CSV.
pub fn report_cdf(title: &str, curves: &[(String, Vec<f64>)], csv_name: &str) {
    let mut t = Table::new(
        title,
        &["curve", "n", "min %", "p25 %", "median %", "p75 %", "max %", "|x|<=1% share"],
    );
    for (label, samples) in curves {
        let mut s = samples.clone();
        s.sort_by(f64::total_cmp);
        let q = |p: f64| s[(p * (s.len() - 1) as f64).round() as usize];
        let within = s.iter().filter(|x| x.abs() <= 1.0).count() as f64 / s.len() as f64;
        t.row(&[
            label.clone(),
            s.len().to_string(),
            f(q(0.0), 3),
            f(q(0.25), 3),
            f(q(0.5), 3),
            f(q(0.75), 3),
            f(q(1.0), 3),
            f(within, 2),
        ]);
    }
    t.print();

    // Full CDFs to CSV: one row per (curve, value, cumulative probability).
    let mut csv = Table::new(title, &["curve", "relative_difference_pct", "cdf"]);
    for (label, samples) in curves {
        for (v, p) in metrics::empirical_cdf(samples) {
            csv.row(&[label.clone(), format!("{v:.6}"), format!("{p:.6}")]);
        }
    }
    let path = csv.save_csv(csv_name).expect("write results/");
    println!("csv: {}\n", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_are_pinned() {
        // Recorded from a whole detector run per (trace, spec, shape) on
        // per-record traces.
        let pinned: [(ModelKind, [[u64; 4]; 2]); 2] = [
            (
                ModelKind::Ewma,
                [
                    [
                        0x3fa4a3284036bc52,
                        0x3f6e6918e7079c3f,
                        0x3fab2f7c8ed4caeb,
                        0xbf9a368b1721efe4,
                    ],
                    [
                        0xbf893140fadb136d,
                        0xbf829c7b7cba5956,
                        0xbf788b9f1a5c4c4e,
                        0xbf7671168e7997a6,
                    ],
                ],
            ),
            (
                ModelKind::Arima0,
                [
                    [
                        0x3f857ccec4108ac9,
                        0x3fe34fc982980ee0,
                        0xbfe1d51dea5a5c30,
                        0xbfd8f39c8a10bd55,
                    ],
                    [
                        0xbfa8ee46c36e3107,
                        0xbfaa151edc2855c8,
                        0xbfab73e36b5df8ef,
                        0xbfb6845209f575ab,
                    ],
                ],
            ),
        ];
        let traces: Vec<Trace> = [11, 12]
            .iter()
            .map(|&seed| make_trace(RouterProfile::Small, 300, 10, 0.2, seed))
            .collect();
        let shapes = [(1, 1024), (5, 8192)].map(|(h, k)| SketchConfig { h, k, seed: 0x5EED });
        for (kind, want) in pinned {
            let got = samples_for_model(kind, &traces, &shapes, 2, 3, 7);
            let got: Vec<Vec<u64>> =
                got.iter().map(|s| s.iter().map(|x| x.to_bits()).collect()).collect();
            assert_eq!(got, want, "{}", kind.name());
        }
    }
}
