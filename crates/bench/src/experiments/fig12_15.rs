//! Figures 12–15: thresholding false-negative (Figs. 12–13) and
//! false-positive (Figs. 14–15) ratios for the medium router at 300 s,
//! across four models: EWMA, NSHW, ARIMA0, ARIMA1, with `H = 5` and
//! `K ∈ {8192, 32768, 65536}`.
//!
//! Paper's results: EWMA and NSHW false negatives "well below 1% for
//! thresholds larger than 0.01"; ARIMA variants "low but differ a bit …
//! for a low threshold of 0.01"; false positives below 1% for φ > 0.01 at
//! K ≥ 32K for all four models.

use crate::args::Args;
use crate::experiments::params::{tuned, SearchDepth};
use crate::metrics;
use crate::runner::{make_trace, paired, run_perflow, run_sketch};
use crate::table::{f, Table};
use scd_forecast::ModelKind;
use scd_sketch::SketchConfig;
use scd_traffic::RouterProfile;

const PHIS: [f64; 4] = [0.01, 0.02, 0.05, 0.07];
const KS: [usize; 3] = [8192, 32_768, 65_536];
const MODELS: [ModelKind; 4] =
    [ModelKind::Ewma, ModelKind::Nshw, ModelKind::Arima0, ModelKind::Arima1];

/// Regenerates Figures 12–15.
pub fn run(args: &Args) {
    let common = args.common_scaled(4.0);
    let interval_secs = 300;
    let depth = if args.has("paper-search") { SearchDepth::Paper } else { SearchDepth::Fast };
    let trace = make_trace(
        RouterProfile::Medium,
        interval_secs,
        common.intervals(interval_secs),
        common.scale,
        common.seed,
    );
    let warm = common.warm_up(interval_secs);
    println!("Figures 12-15: medium router, interval=300s, {} records\n", trace.records);

    for kind in MODELS {
        let spec = tuned(kind, &trace, common.seed, depth);
        let pf = run_perflow(&trace, &spec, warm);
        let mut t = Table::new(
            &format!("{} — mean FN / FP ratios vs K (H=5, 300s)", spec.describe()),
            &[
                "K", "FN@0.01", "FN@0.02", "FN@0.05", "FN@0.07", "FP@0.01", "FP@0.02", "FP@0.05",
                "FP@0.07",
            ],
        );
        for &k in &KS {
            let sk = run_sketch(
                &trace,
                &spec,
                SketchConfig { h: 5, k, seed: common.seed ^ 0x0F16_0012 },
                warm,
            );
            let pairs = paired(&pf, &sk);
            let mut row = vec![k.to_string()];
            for want_fn in [true, false] {
                for &phi in &PHIS {
                    let vals: Vec<f64> = pairs
                        .iter()
                        .map(|(p, s)| {
                            let rep = metrics::threshold_report(
                                &p.errors,
                                &s.errors,
                                s.f2.max(0.0).sqrt(),
                                phi,
                            );
                            if want_fn {
                                rep.false_negative_ratio()
                            } else {
                                rep.false_positive_ratio()
                            }
                        })
                        .collect();
                    row.push(f(metrics::mean(&vals), 4));
                }
            }
            t.row(&row);
        }
        t.print();
        let path = t
            .save_csv(&format!("fig12_15_{}", kind.name().to_lowercase()))
            .expect("write results/");
        println!("csv: {}\n", path.display());
    }
    println!("paper shape: FN/FP < a few % for phi >= 0.02 at K >= 32K, all four models.");
}
