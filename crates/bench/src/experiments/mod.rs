//! One module per regenerated table/figure. Every module exposes
//! `pub fn run(args: &Args)`; the `experiments` binary dispatches on the
//! first positional argument. See DESIGN.md for the experiment index.

pub mod ablations;
pub mod appendix;
pub mod cdf;
pub mod fig1;
pub mod fig10_11;
pub mod fig12_15;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5to9;
pub mod fig6;
pub mod glr_delay;
pub mod gridsearch;
pub mod hh_vs_change;
pub mod params;
pub mod seasonal;
pub mod table1;

use crate::args::Args;

/// One registry entry: experiment name, description, entry point.
pub type Experiment = (&'static str, &'static str, fn(&Args));

/// Experiment registry: name, description, and entry point.
pub fn registry() -> Vec<Experiment> {
    vec![
        ("table1", "Running time of 10M hash / UPDATE / ESTIMATE ops", table1::run as fn(&Args)),
        ("fig1", "CDF of relative difference, all 6 models (H=1, K=1024)", fig1::run),
        ("fig2", "CDF of relative difference varying H (EWMA, ARIMA0)", fig2::run),
        ("fig3", "CDF of relative difference varying K (EWMA, ARIMA0)", fig3::run),
        ("gridsearch", "Grid search vs random parameters (§5.1.1)", gridsearch::run),
        ("fig4", "Top-N similarity over time (large router, EWMA)", fig4::run),
        ("fig5", "Mean similarity vs K (EWMA, large router)", fig5to9::run_fig5),
        ("fig6", "Top-N vs top-X*N (EWMA, large router)", fig6::run),
        ("fig7", "Effect of H at K=8192 and K=32768 (EWMA, large router)", fig5to9::run_fig7),
        ("fig8", "Similarity for the medium router (EWMA)", fig5to9::run_fig8),
        ("fig9", "Similarity under ARIMA0 (large & medium routers)", fig5to9::run_fig9),
        ("fig10", "Thresholding: alarms / FN / FP (NSHW, large router, 60s)", fig10_11::run_fig10),
        ("fig11", "Thresholding: alarms / FN / FP (NSHW, large router, 300s)", fig10_11::run_fig11),
        ("fig12_15", "Thresholding FN/FP, medium router, 4 models", fig12_15::run),
        ("hh_vs_change", "Heavy hitters vs heavy changers (§1.1 claim)", hh_vs_change::run),
        ("seasonal", "Seasonal vs non-seasonal Holt-Winters on diurnal traffic", seasonal::run),
        ("appendix", "Empirical check of Appendix A/B accuracy theorems", appendix::run),
        (
            "ablations",
            "Design-choice ablations (medians, hashing, strategies, intervals)",
            ablations::run,
        ),
        ("glr_delay", "GLR detection delay vs false-alarm rate, threshold sweep", glr_delay::run),
    ]
}

/// Runs every experiment in sequence (the `all` pseudo-experiment).
pub fn run_all(args: &Args) {
    for (name, _desc, f) in registry() {
        println!("\n######## {name} ########");
        f(args);
    }
}
