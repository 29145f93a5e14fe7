//! Seasonal vs non-seasonal Holt-Winters on diurnal traffic — the ablation
//! justifying the SHW extension.
//!
//! The substrate models a diurnal volume cycle (as real backbone traffic
//! has); the paper's NSHW must chase that cycle as "trend", inflating its
//! forecast-error energy, while the seasonal variant learns the cycle once
//! and spends its error budget on genuine change. Both models run in
//! sketch space (SHW is linear too), so this is a like-for-like comparison
//! of total error energy and alarm counts.

use crate::args::Args;
use crate::runner::perflow_energy;
use crate::table::{f, Table};
use scd_forecast::ModelSpec;
use scd_traffic::RouterProfile;

/// Regenerates the seasonal ablation.
pub fn run(args: &Args) {
    let common = args.common();
    // Strong, short diurnal cycle so a laptop-scale trace holds several
    // full periods: 24 "hours" compressed into 24 intervals of 300 s.
    let interval_secs = 300u32;
    let period = 24usize;
    let n_intervals = args.get("intervals", 5 * period);

    let mut cfg = RouterProfile::Small.config(common.seed).scaled(common.scale);
    cfg.interval_secs = interval_secs;
    cfg.diurnal_amplitude = 0.6;
    cfg.diurnal_period = period as f64;
    let mut generator = scd_traffic::TrafficGenerator::new(cfg);
    let trace = crate::runner::Trace {
        intervals: (0..n_intervals)
            .map(|t| {
                scd_traffic::to_updates(
                    &generator.interval_records(t),
                    scd_traffic::KeySpec::DstIp,
                    scd_traffic::ValueSpec::Bytes,
                )
            })
            .collect(),
        interval_secs,
        profile: RouterProfile::Small,
        records: 0,
    };
    let warm = 2 * period; // both models fully warm and cycle-aware

    let gamma: f64 = args.get("gamma", 0.2);
    let candidates = [
        ModelSpec::Ewma { alpha: 0.5 },
        ModelSpec::Nshw { alpha: 0.5, beta: 0.2 },
        ModelSpec::Shw { alpha: 0.3, beta: 0.05, gamma, period },
    ];
    let mut t = Table::new(
        "Seasonal ablation — diurnal traffic (amplitude 0.6, period 24 intervals)",
        &["model", "per-flow total energy", "vs EWMA"],
    );
    let mut baseline = None;
    for spec in &candidates {
        let energy = perflow_energy(&trace, spec, warm);
        let base = *baseline.get_or_insert(energy);
        t.row(&[spec.describe(), f(energy, 0), format!("{:+.1}%", 100.0 * (energy - base) / base)]);
    }
    t.print();
    println!();

    // Panel 2: the aggregate (SNMP-style) series — one key holding each
    // interval's total. Summing across all flows cancels the per-flow
    // sampling noise, leaving the clean diurnal signal where the seasonal
    // model should shine.
    let totals: Vec<Vec<(u64, f64)>> = trace
        .intervals
        .iter()
        .map(|items| vec![(0u64, items.iter().map(|&(_, v)| v).sum())])
        .collect();
    let agg_trace = crate::runner::Trace { intervals: totals, ..trace.clone() };
    let mut t2 = Table::new(
        "Panel 2 — aggregate (single series) total per interval",
        &["model", "residual energy", "vs EWMA"],
    );
    let mut baseline = None;
    for spec in &candidates {
        let energy = perflow_energy(&agg_trace, spec, warm);
        let base = *baseline.get_or_insert(energy);
        t2.row(&[
            spec.describe(),
            f(energy, 0),
            format!("{:+.1}%", 100.0 * (energy - base) / base),
        ]);
    }
    t2.print();
    let path = t.save_csv("seasonal").expect("write results/");
    let path2 = t2.save_csv("seasonal_aggregate").expect("write results/");
    println!(
        "\nmeasured shape (and the honest lesson): at the PER-FLOW level sampling\n\
         noise dominates each key's diurnal swing, so plain EWMA wins and the\n\
         seasonal terms just memorize last period's noise — consistent with the\n\
         paper finding its simple models sufficient. On the clean AGGREGATE\n\
         series the ordering flips and SHW wins decisively; seasonal modeling\n\
         belongs at (or above) the aggregation level where the cycle is visible."
    );
    println!("csv: {} / {}", path.display(), path2.display());
}
