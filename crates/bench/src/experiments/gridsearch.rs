//! §5.1.1 grid-search validation: "in all cases (all models, three router
//! files, both intervals) grid search is never worse than the random
//! parameters. Secondly, in at least 20% of the cases the results with the
//! random parameters are at least twice … as bad as the errors in the grid
//! search case."
//!
//! For each (model, router, interval): grid-search parameters on the trace
//! (H = 1, K = 8192, as in the paper), then compare the **per-flow** total
//! energy of the searched parameters against that of randomly drawn
//! parameter points.

use crate::args::Args;
use crate::experiments::params::{tuned, SearchDepth};
use crate::runner::{make_trace, perflow_energy};
use crate::table::{f, Table};
use scd_core::gridsearch::random_spec;
use scd_forecast::ModelKind;
use scd_traffic::{Rng, RouterProfile};

/// Regenerates the §5.1.1 comparison.
pub fn run(args: &Args) {
    let common = args.common();
    let depth = if args.has("paper-search") { SearchDepth::Paper } else { SearchDepth::Fast };
    let n_random = args.get("random-points", 5usize);
    let profiles: Vec<RouterProfile> = if args.has("all-routers") {
        RouterProfile::ALL.to_vec()
    } else {
        // Small + medium by default; ARIMA search on the large router takes
        // tens of minutes (the paper had beefy offline machines).
        vec![RouterProfile::Small, RouterProfile::Medium]
    };

    println!(
        "Grid search vs random parameters (per-flow energies; {} random points/case, {:?} search)\n",
        n_random, depth
    );

    let mut t = Table::new(
        "§5.1.1 — grid search vs random parameters",
        &[
            "model",
            "router",
            "interval",
            "grid energy",
            "best random",
            "worst random",
            "grid<=all random",
            "#random >=2x worse",
        ],
    );
    let mut cases = 0usize;
    let mut never_worse = 0usize;
    let mut cases_with_2x = 0usize;

    for &interval_secs in &[300u32, 60] {
        for &profile in &profiles {
            let trace = make_trace(
                profile,
                interval_secs,
                common.intervals(interval_secs),
                common.scale,
                common.seed + profile as u64,
            );
            let warm = common.warm_up(interval_secs);
            for kind in ModelKind::ALL {
                let t0 = std::time::Instant::now();
                let searched = tuned(kind, &trace, common.seed + profile as u64, depth);
                let t_search = t0.elapsed().as_secs_f64();
                let t0 = std::time::Instant::now();
                let grid_e = perflow_energy(&trace, &searched, warm);
                let t_pf = t0.elapsed().as_secs_f64();
                eprintln!(
                    "  [{} {} {}s: search {:.1}s, per-flow eval {:.1}s x{}]",
                    kind.name(),
                    profile.name(),
                    interval_secs,
                    t_search,
                    t_pf,
                    n_random + 1
                );

                let mut rng = Rng::new(common.seed ^ (kind as u64) << 8 ^ interval_secs as u64);
                let random_es: Vec<f64> = (0..n_random)
                    .map(|_| {
                        let spec = random_spec(kind, 10, &mut rng);
                        perflow_energy(&trace, &spec, warm)
                    })
                    .collect();
                let best = random_es.iter().cloned().fold(f64::INFINITY, f64::min);
                let worst = random_es.iter().cloned().fold(0.0, f64::max);
                let ok = grid_e <= best * (1.0 + 1e-9);
                let n2x = random_es.iter().filter(|&&e| e >= 2.0 * grid_e).count();

                cases += 1;
                never_worse += ok as usize;
                cases_with_2x += (n2x > 0) as usize;
                t.row(&[
                    kind.name().into(),
                    profile.name().into(),
                    format!("{interval_secs}s"),
                    f(grid_e, 0),
                    f(best, 0),
                    f(worst, 0),
                    if ok { "yes".into() } else { "NO".into() },
                    format!("{n2x}/{n_random}"),
                ]);
            }
        }
    }
    t.print();
    let path = t.save_csv("gridsearch").expect("write results/");
    println!("\ngrid search never worse than random: {never_worse}/{cases} cases");
    println!(
        "cases where some random point is >=2x worse: {cases_with_2x}/{cases} ({:.0}%)",
        100.0 * cases_with_2x as f64 / cases as f64
    );
    println!("paper: never worse in all cases; >=20% of cases at least 2x worse.");
    println!("csv: {}", path.display());
}
