//! Figures 10 and 11: thresholding on the large router with non-seasonal
//! Holt-Winters — mean alarm counts versus the threshold fraction, and
//! false-negative / false-positive ratios versus `K`.
//!
//! Paper's results: "for a very low value of H (=1), the number of alarms
//! are very high. Simply increasing H to 5 suffices to dramatically reduce
//! \[them\] … there is virtually no difference between the per-flow results
//! and the sketch results when H ≥ 5 and K ≥ 8K"; "for K=32K and beyond,
//! the false negative ratio drops rapidly to be less than 2% even for very
//! low threshold values"; false positives "below 1%" at K=32K, φ ≥ 0.02.

use crate::args::Args;
use crate::experiments::params::{tuned, SearchDepth};
use crate::metrics;
use crate::runner::{make_trace, paired, run_perflow, run_sketch, IntervalOutcome};
use crate::table::{f, Table};
use scd_forecast::ModelKind;
use scd_sketch::SketchConfig;
use scd_traffic::RouterProfile;

const PHIS: [f64; 5] = [0.01, 0.02, 0.05, 0.07, 0.1];

/// Mean per-interval alarm count at threshold `phi` for one error-list run.
fn mean_alarms(outcomes: &[IntervalOutcome], phi: f64) -> f64 {
    let counts: Vec<f64> = outcomes
        .iter()
        .map(|o| {
            let l2 = o.f2.max(0.0).sqrt();
            o.errors.iter().filter(|&&(_, e)| e.abs() >= phi * l2).count() as f64
        })
        .collect();
    metrics::mean(&counts)
}

fn run_panel(args: &Args, interval_secs: u32, fig: &str) {
    let common = args.common_scaled(4.0);
    let trace = make_trace(
        RouterProfile::Large,
        interval_secs,
        common.intervals(interval_secs),
        common.scale,
        common.seed,
    );
    let warm = common.warm_up(interval_secs);
    let spec = tuned(ModelKind::Nshw, &trace, common.seed, SearchDepth::Fast);
    println!(
        "{fig}: NSHW {} on large router, interval={interval_secs}s, {} records",
        spec.describe(),
        trace.records
    );
    let pf = run_perflow(&trace, &spec, warm);

    // Panel (a): number of alarms vs threshold for the paper's (K, H) set.
    let combos: [(usize, usize); 4] = [(8192, 1), (8192, 5), (32_768, 5), (65_536, 5)];
    let mut ta = Table::new(
        &format!("{fig}(a) — mean #alarms vs threshold, interval={interval_secs}s"),
        &[
            "threshold",
            "sk(K=8192,H=1)",
            "sk(K=8192,H=5)",
            "sk(K=32768,H=5)",
            "sk(K=65536,H=5)",
            "per-flow",
        ],
    );
    let sketch_runs: Vec<Vec<IntervalOutcome>> = combos
        .iter()
        .map(|&(k, h)| {
            run_sketch(&trace, &spec, SketchConfig { h, k, seed: common.seed ^ 0x0F16_0010 }, warm)
        })
        .collect();
    for &phi in &PHIS {
        let mut row = vec![format!("{phi}")];
        for sk in &sketch_runs {
            row.push(f(mean_alarms(sk, phi), 1));
        }
        row.push(f(mean_alarms(&pf, phi), 1));
        ta.row(&row);
    }
    ta.print();
    let path = ta.save_csv(&format!("{fig}_alarms")).expect("write results/");
    println!("csv: {}\n", path.display());

    // Panels (b)/(c): FN and FP ratios vs K at H = 5.
    let mut tb = Table::new(
        &format!("{fig}(b,c) — mean FN / FP ratios vs K (H=5), interval={interval_secs}s"),
        &[
            "K", "FN@0.01", "FN@0.02", "FN@0.05", "FN@0.07", "FP@0.01", "FP@0.02", "FP@0.05",
            "FP@0.07",
        ],
    );
    // Panel (a)'s H = 5 runs, read again: the same trace, spec, seed and
    // warm-up would give the same outcomes.
    for (&(k, _), sk) in combos.iter().zip(&sketch_runs).filter(|((_, h), _)| *h == 5) {
        let pairs = paired(&pf, sk);
        let mut row = vec![k.to_string()];
        for &phi in &PHIS[..4] {
            let fns: Vec<f64> = pairs
                .iter()
                .map(|(p, s)| {
                    metrics::threshold_report(&p.errors, &s.errors, s.f2.max(0.0).sqrt(), phi)
                        .false_negative_ratio()
                })
                .collect();
            row.push(f(metrics::mean(&fns), 4));
        }
        for &phi in &PHIS[..4] {
            let fps: Vec<f64> = pairs
                .iter()
                .map(|(p, s)| {
                    metrics::threshold_report(&p.errors, &s.errors, s.f2.max(0.0).sqrt(), phi)
                        .false_positive_ratio()
                })
                .collect();
            row.push(f(metrics::mean(&fps), 4));
        }
        tb.row(&row);
    }
    tb.print();
    let path = tb.save_csv(&format!("{fig}_fnfp")).expect("write results/");
    println!("csv: {}\n", path.display());
}

/// Figure 10: 60 s intervals.
pub fn run_fig10(args: &Args) {
    run_panel(args, 60, "fig10");
    println!("paper shape: H=1 over-alarms; H=5, K>=32K tracks per-flow closely.");
}

/// Figure 11: 300 s intervals.
pub fn run_fig11(args: &Args) {
    run_panel(args, 300, "fig11");
    println!("paper shape: same as Figure 10 at the longer interval.");
}
