//! Figures 5, 7, 8, 9: mean top-N similarity sweeps over K and H, for the
//! large and medium routers, EWMA and ARIMA0.
//!
//! Paper's results:
//! * Fig. 5 — "for K=32K, the similarity is over 0.95 even for large N. For
//!   a smaller N (say 50 or 100), the overlap is nearly 100%."
//! * Fig. 7 — "with a small K=8K, H needs to be at least 9 … increasing K
//!   to 32K instantly increases similarity to nearly 1, for a small H=5."
//! * Fig. 8/9 — the same shapes hold for the medium router and for ARIMA0.

use crate::args::Args;
use crate::experiments::params::{tuned, SearchDepth};
use crate::metrics;
use crate::runner::{make_trace, paired, run_perflow, run_sketch, IntervalOutcome, Trace};
use crate::table::{f, Table};
use scd_forecast::{ModelKind, ModelSpec};
use scd_sketch::SketchConfig;
use scd_traffic::RouterProfile;

const TOP_NS: [usize; 4] = [50, 100, 500, 1000];

/// Mean similarity for each N in `TOP_NS` between per-flow and one sketch
/// configuration.
fn mean_similarities(pf: &[IntervalOutcome], sk: &[IntervalOutcome]) -> [f64; 4] {
    let pairs = paired(pf, sk);
    let mut sums = [0.0f64; 4];
    for (p, s) in &pairs {
        for (i, &n) in TOP_NS.iter().enumerate() {
            sums[i] += metrics::topn_similarity(&p.errors, &s.errors, n);
        }
    }
    let n = pairs.len().max(1) as f64;
    sums.map(|x| x / n)
}

/// Similarity-vs-K table for one (router, model, interval, H).
#[allow(clippy::too_many_arguments)]
fn sweep_k(
    title: &str,
    csv: &str,
    trace: &Trace,
    spec: &ModelSpec,
    h: usize,
    ks: &[usize],
    warm: usize,
    seed: u64,
) {
    let pf = run_perflow(trace, spec, warm);
    let mut t = Table::new(title, &["K", "N=50", "N=100", "N=500", "N=1000"]);
    for &k in ks {
        let sk = run_sketch(trace, spec, SketchConfig { h, k, seed }, warm);
        let m = mean_similarities(&pf, &sk);
        t.row(&[k.to_string(), f(m[0], 3), f(m[1], 3), f(m[2], 3), f(m[3], 3)]);
    }
    t.print();
    let path = t.save_csv(csv).expect("write results/");
    println!("csv: {}\n", path.display());
}

/// Similarity-vs-H table for one (router, model, interval, K).
#[allow(clippy::too_many_arguments)]
fn sweep_h(
    title: &str,
    csv: &str,
    trace: &Trace,
    spec: &ModelSpec,
    k: usize,
    hs: &[usize],
    warm: usize,
    seed: u64,
) {
    let pf = run_perflow(trace, spec, warm);
    let mut t = Table::new(title, &["H", "N=50", "N=100", "N=500", "N=1000"]);
    for &h in hs {
        let sk = run_sketch(trace, spec, SketchConfig { h, k, seed }, warm);
        let m = mean_similarities(&pf, &sk);
        t.row(&[h.to_string(), f(m[0], 3), f(m[1], 3), f(m[2], 3), f(m[3], 3)]);
    }
    t.print();
    let path = t.save_csv(csv).expect("write results/");
    println!("csv: {}\n", path.display());
}

/// Figure 5: mean similarity vs K (EWMA, large router, H=5, both intervals).
pub fn run_fig5(args: &Args) {
    let common = args.common_scaled(4.0);
    for &interval_secs in &[300u32, 60] {
        let trace = make_trace(
            RouterProfile::Large,
            interval_secs,
            common.intervals(interval_secs),
            common.scale,
            common.seed,
        );
        let spec = tuned(ModelKind::Ewma, &trace, common.seed, SearchDepth::Fast);
        sweep_k(
            &format!("Figure 5 — EWMA, large router, H=5, interval={interval_secs}s"),
            &format!("fig5_interval{interval_secs}"),
            &trace,
            &spec,
            5,
            &[8192, 32_768, 65_536],
            common.warm_up(interval_secs),
            common.seed ^ 0x0F16_0005,
        );
    }
    println!("paper shape: K=32768 exceeds 0.95 for all N; 64K adds little.");
}

/// Figure 7: effect of H at K=8192 (300 s) and K=32768 (60 s).
pub fn run_fig7(args: &Args) {
    let common = args.common_scaled(4.0);
    for (interval_secs, k) in [(300u32, 8192usize), (60, 32_768)] {
        let trace = make_trace(
            RouterProfile::Large,
            interval_secs,
            common.intervals(interval_secs),
            common.scale,
            common.seed,
        );
        let spec = tuned(ModelKind::Ewma, &trace, common.seed, SearchDepth::Fast);
        sweep_h(
            &format!("Figure 7 — EWMA, large router, K={k}, interval={interval_secs}s"),
            &format!("fig7_k{k}"),
            &trace,
            &spec,
            k,
            &[1, 5, 9, 25],
            common.warm_up(interval_secs),
            common.seed ^ 0x0F16_0007,
        );
    }
    println!("paper shape: at K=8K, H>=9 needed for large N; at K=32K, H=5 suffices.");
}

/// Figure 8: the medium router — similarity vs K (the top-N vs X·N panel is
/// regenerated by `fig6 --router medium`).
pub fn run_fig8(args: &Args) {
    let common = args.common_scaled(4.0);
    let interval_secs = 300;
    let trace = make_trace(
        RouterProfile::Medium,
        interval_secs,
        common.intervals(interval_secs),
        common.scale,
        common.seed,
    );
    let spec = tuned(ModelKind::Ewma, &trace, common.seed, SearchDepth::Fast);
    sweep_k(
        "Figure 8(a) — EWMA, medium router, H=5, interval=300s",
        "fig8_medium",
        &trace,
        &spec,
        5,
        &[8192, 32_768, 65_536],
        common.warm_up(interval_secs),
        common.seed ^ 0x0F16_0008,
    );
    println!("paper shape: medium router matches the large router's curves.");
}

/// Figure 9: ARIMA0 for large and medium routers (similarity vs K, 300 s).
pub fn run_fig9(args: &Args) {
    let common = args.common_scaled(4.0);
    let interval_secs = 300;
    let depth = if args.has("paper-search") { SearchDepth::Paper } else { SearchDepth::Fast };
    for profile in [RouterProfile::Large, RouterProfile::Medium] {
        let trace = make_trace(
            profile,
            interval_secs,
            common.intervals(interval_secs),
            common.scale,
            common.seed,
        );
        let spec = tuned(ModelKind::Arima0, &trace, common.seed, depth);
        println!("ARIMA0 tuned on {} router: {}", profile.name(), spec.describe());
        sweep_k(
            &format!("Figure 9 — ARIMA0, {} router, H=5, interval=300s", profile.name()),
            &format!("fig9_{}", profile.name()),
            &trace,
            &spec,
            5,
            &[8192, 32_768, 65_536],
            common.warm_up(interval_secs),
            common.seed ^ 0x0F16_0009,
        );
    }
    println!("paper shape: ARIMA0 mirrors the EWMA similarity curves.");
}
