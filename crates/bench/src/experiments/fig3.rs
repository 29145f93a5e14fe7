//! Figure 3: effect of the bucket count `K` on the relative difference,
//! for EWMA and ARIMA0 at `H = 5`, random parameters, 300 s intervals.
//!
//! Paper's result: "once K = 8192 the relative difference becomes
//! insignificant, obviating the need to increase K further."

use crate::args::Args;
use crate::experiments::cdf;
use scd_forecast::ModelKind;
use scd_sketch::SketchConfig;

/// Regenerates Figure 3 (both panels).
pub fn run(args: &Args) {
    let common = args.common();
    let interval_secs = 300;
    let n_random = args.get("random-points", 3usize);
    let routers = cdf::ten_routers(common.seed);
    let traces = cdf::build_traces(&routers, interval_secs, &common);
    let warm_up = common.warm_up(interval_secs);

    for (panel, kind) in
        [("(a) Model=EWMA", ModelKind::Ewma), ("(b) Model=ARIMA0", ModelKind::Arima0)]
    {
        let seed = common.seed ^ 0x0F16_0003;
        let shapes = [1024usize, 8192, 65_536].map(|k| SketchConfig { h: 5, k, seed });
        let samples =
            cdf::samples_for_model(kind, &traces, &shapes, n_random, warm_up, common.seed);
        let curves: Vec<(String, Vec<f64>)> =
            shapes.iter().map(|s| format!("H=5, K={}", s.k)).zip(samples).collect();
        cdf::report_cdf(
            &format!("Figure 3 {panel} — varying K"),
            &curves,
            &format!("fig3_{}", kind.name().to_lowercase()),
        );
    }
    println!("paper shape: K=8192 collapses the CDF onto 0%; K=65536 adds nothing.");
}
