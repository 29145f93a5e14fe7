//! Figure 1: empirical CDF of the relative difference between sketch and
//! per-flow total error energy, for all six models, with randomly selected
//! model parameters, `interval = 300 s, H = 1, K = 1024`, across the ten
//! routers.
//!
//! Paper's result: "even for small H (1) and K (1024), across all the
//! models, most of the mass is concentrated in the neighborhood of the 0%
//! point … Only for the NSHW model a small percentage of points have sketch
//! values that differ by more than 1.5% … The worst case difference is
//! 3.5%."

use crate::args::Args;
use crate::experiments::cdf;
use scd_forecast::ModelKind;
use scd_sketch::SketchConfig;

/// Regenerates Figure 1.
pub fn run(args: &Args) {
    let common = args.common();
    let interval_secs = 300;
    let n_random = args.get("random-points", 3usize);
    let sketch = SketchConfig { h: 1, k: 1024, seed: common.seed ^ 0x0F16_0001 };

    println!("Figure 1: relative difference CDF, all models, interval=300, H=1, K=1024");
    println!("({} routers x {} random parameter points per model)\n", 10, n_random);

    let routers = cdf::ten_routers(common.seed);
    let traces = cdf::build_traces(&routers, interval_secs, &common);
    let warm_up = common.warm_up(interval_secs);

    let curves: Vec<(String, Vec<f64>)> = ModelKind::ALL
        .iter()
        .map(|&kind| {
            let mut samples =
                cdf::samples_for_model(kind, &traces, &[sketch], n_random, warm_up, common.seed);
            (kind.name().to_string(), samples.remove(0))
        })
        .collect();

    cdf::report_cdf(
        "Figure 1 — relative difference of total energy (sketch vs per-flow)",
        &curves,
        "fig1_cdf",
    );
    println!("paper shape: mass near 0%, worst case |difference| ~3.5% (NSHW the widest).");
}
