//! Figure 2: effect of the number of hash rows `H` on the relative
//! difference, for EWMA (K = 1024) and ARIMA0 (K = 8192), random
//! parameters, 300 s intervals.
//!
//! Paper's result: "there is no need to increase H beyond 5 to achieve low
//! relative difference."

use crate::args::Args;
use crate::experiments::cdf;
use scd_forecast::ModelKind;
use scd_sketch::SketchConfig;

/// Regenerates Figure 2 (both panels).
pub fn run(args: &Args) {
    let common = args.common();
    let interval_secs = 300;
    let n_random = args.get("random-points", 3usize);
    let routers = cdf::ten_routers(common.seed);
    let traces = cdf::build_traces(&routers, interval_secs, &common);
    let warm_up = common.warm_up(interval_secs);

    for (panel, kind, k) in [
        ("(a) Model=EWMA", ModelKind::Ewma, 1024usize),
        ("(b) Model=ARIMA0", ModelKind::Arima0, 8192),
    ] {
        let shapes =
            [1usize, 5, 9, 25].map(|h| SketchConfig { h, k, seed: common.seed ^ 0x0F16_0002 });
        let samples =
            cdf::samples_for_model(kind, &traces, &shapes, n_random, warm_up, common.seed);
        let curves: Vec<(String, Vec<f64>)> =
            shapes.iter().map(|s| format!("H={}, K={k}", s.h)).zip(samples).collect();
        cdf::report_cdf(
            &format!("Figure 2 {panel} — varying H"),
            &curves,
            &format!("fig2_{}", kind.name().to_lowercase()),
        );
    }
    println!("paper shape: H=5 already tight; H=9/25 give no further improvement.");
}
