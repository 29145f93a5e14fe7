//! Figure 6: comparing the per-flow top-N against the sketch's top-X·N,
//! `X ∈ {1, 1.25, 1.5, 1.75, 2}`, EWMA, `H = 5, K = 8192`.
//!
//! Paper's result: "With X=1.5, the similarity has risen significantly even
//! for large N … higher values of X result in marginal additional accuracy
//! gains" (at the cost of more false positives).

use crate::args::Args;
use crate::experiments::params::{tuned, SearchDepth};
use crate::metrics;
use crate::runner::{make_trace, paired, run_perflow, run_sketch};
use crate::table::{f, Table};
use scd_forecast::ModelKind;
use scd_sketch::SketchConfig;
use scd_traffic::RouterProfile;

const XS: [f64; 5] = [1.0, 1.25, 1.5, 1.75, 2.0];
const TOP_NS: [usize; 3] = [50, 100, 500];

/// Regenerates Figure 6 (large router by default; `--router medium` gives
/// the Figure 8(b) panel).
pub fn run(args: &Args) {
    let common = args.common_scaled(4.0);
    let profile = match args.get("router", "large".to_string()).as_str() {
        "large" => RouterProfile::Large,
        "medium" => RouterProfile::Medium,
        "small" => RouterProfile::Small,
        other => panic!("unknown router profile '{other}'"),
    };
    let sketch = SketchConfig { h: 5, k: 8192, seed: common.seed ^ 0x0F16_0006 };

    for &interval_secs in &[300u32, 60] {
        let trace = make_trace(
            profile,
            interval_secs,
            common.intervals(interval_secs),
            common.scale,
            common.seed,
        );
        let warm = common.warm_up(interval_secs);
        let spec = tuned(ModelKind::Ewma, &trace, common.seed, SearchDepth::Fast);
        let pf = run_perflow(&trace, &spec, warm);
        let sk = run_sketch(&trace, &spec, sketch, warm);
        let pairs = paired(&pf, &sk);

        let mut t = Table::new(
            &format!(
                "Figure 6 — topN vs top-X*N, EWMA, {} router, H=5, K=8192, interval={interval_secs}s",
                profile.name()
            ),
            &["X", "N=50", "N=100", "N=500"],
        );
        for &x in &XS {
            let mut sums = [0.0f64; 3];
            for (p, s) in &pairs {
                for (i, &n) in TOP_NS.iter().enumerate() {
                    sums[i] += metrics::topn_vs_xn(&p.errors, &s.errors, n, x);
                }
            }
            let c = pairs.len().max(1) as f64;
            t.row(&[format!("{x:.2}"), f(sums[0] / c, 3), f(sums[1] / c, 3), f(sums[2] / c, 3)]);
        }
        t.print();
        let path = t
            .save_csv(&format!("fig6_{}_interval{interval_secs}", profile.name()))
            .expect("write results/");
        println!("csv: {}\n", path.display());
    }
    println!("paper shape: X=1.5 recovers most near-misses; X>1.5 marginal.");
}
