//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. **Median networks vs generic selection** — the §4.2 rationale for
//!    choosing H ∈ {1, 5, 9, 25}.
//! 2. **Tabulation vs polynomial hashing** — the §5.3 speed motivation.
//! 3. **Key-stream strategies** (§3.3) — recall of injected anomalies under
//!    two-pass, next-interval, and sampled key replay.
//! 4. **Interval size** (§4.2/§6) — detection delay vs per-interval work.

use crate::args::Args;
use crate::table::{f, Table};
use scd_core::{
    DetectorConfig, KeyStrategy, ReversibleChangeDetector, ReversibleConfig, SketchChangeDetector,
};
use scd_forecast::ModelSpec;
use scd_hash::{Poly4, Tab4};
use scd_sketch::median::{median_inplace, median_selection_only};
use scd_sketch::{DeltoidConfig, SketchConfig};
use scd_traffic::{
    to_updates, AnomalyEvent, AnomalyInjector, AnomalyKind, KeySpec, Rng, RouterProfile,
    TrafficGenerator, ValueSpec,
};
use std::time::Instant;

/// Runs all four ablations.
pub fn run(args: &Args) {
    median_ablation(args);
    hash_ablation(args);
    strategy_ablation(args);
    interval_ablation(args);
}

fn median_ablation(args: &Args) {
    let reps = args.get("reps", 2_000_000usize);
    let mut rng = Rng::new(1);
    let mut t = Table::new(
        "Ablation 1 — median network vs selection (ns per median)",
        &["H", "network", "selection", "speedup"],
    );
    for &h in &[5usize, 9, 25] {
        let inputs: Vec<Vec<f64>> =
            (0..64).map(|_| (0..h).map(|_| rng.uniform()).collect()).collect();
        let time = |use_network: bool| -> f64 {
            let start = Instant::now();
            let mut acc = 0.0;
            for i in 0..reps {
                let mut v = inputs[i & 63].clone();
                acc += if use_network {
                    median_inplace(&mut v)
                } else {
                    median_selection_only(&mut v)
                };
            }
            std::hint::black_box(acc);
            start.elapsed().as_secs_f64() / reps as f64 * 1e9
        };
        let net = time(true);
        let sel = time(false);
        t.row(&[h.to_string(), f(net, 1), f(sel, 1), f(sel / net, 2)]);
    }
    t.print();
    println!("(clone overhead included in both; the ratio is what matters)\n");
}

fn hash_ablation(args: &Args) {
    let reps = args.get("reps", 2_000_000usize) as u64;
    let tab = Tab4::new(1);
    let poly = Poly4::new(2);
    let mut t = Table::new(
        "Ablation 2 — tabulation vs polynomial 4-universal hashing (ns per hash)",
        &["scheme", "ns/op"],
    );
    let start = Instant::now();
    let mut acc = 0u32;
    for i in 0..reps {
        acc ^= tab.hash32(i as u32);
    }
    std::hint::black_box(acc);
    let tab_ns = start.elapsed().as_secs_f64() / reps as f64 * 1e9;

    let start = Instant::now();
    let mut acc = 0u64;
    for i in 0..reps {
        acc ^= poly.hash64(i);
    }
    std::hint::black_box(acc);
    let poly_ns = start.elapsed().as_secs_f64() / reps as f64 * 1e9;

    t.row(&["Thorup-Zhang tabulation (u32)".into(), f(tab_ns, 1)]);
    t.row(&["Carter-Wegman degree-3 poly (u64)".into(), f(poly_ns, 1)]);
    t.print();
    println!("(the paper's Table 1 builds on the tabulation scheme being the fast path)\n");
}

fn strategy_ablation(args: &Args) {
    let common = args.common();
    let mut cfg = RouterProfile::Small.config(common.seed);
    cfg.records_per_sec *= common.scale * 3.0;
    cfg.interval_secs = 60;
    let mut generator = TrafficGenerator::new(cfg);

    // Ten attacks; half of them "hit and run" (victim silent afterwards) —
    // the case §3.3 warns online key collection can miss.
    let n_events = 10usize;
    let events: Vec<AnomalyEvent> = (0..n_events)
        .map(|i| {
            let rank = 40 + i * 37;
            let baseline = generator.expected_rank_bytes(rank, 0).max(20_000.0);
            AnomalyEvent {
                kind: AnomalyKind::DosAttack { byte_rate: baseline * 25.0, flows: 40 },
                victim_rank: rank,
                start_interval: 10 + i * 4,
                duration: 1,
            }
        })
        .collect();
    let injector = AnomalyInjector::new(events.clone(), 5);
    let intervals = 10 + n_events * 4 + 4;
    let (trace, _truth) = injector.labeled_trace(&mut generator, intervals);

    let mut t = Table::new(
        "Ablation 3 — key-stream strategies (§3.3): attack-onset recall",
        &["strategy", "onsets detected", "keys scanned/interval", "memory (KiB)"],
    );
    for (name, strategy) in [
        ("two-pass (offline)", KeyStrategy::TwoPass),
        ("next-interval (online)", KeyStrategy::NextInterval),
        ("sampled 25% (online-ish)", KeyStrategy::Sampled { rate: 0.25, seed: 3 }),
    ] {
        let mut det = SketchChangeDetector::new(DetectorConfig {
            sketch: SketchConfig { h: 5, k: 16_384, seed: 7 },
            model: ModelSpec::Ewma { alpha: 0.5 },
            threshold: 0.15,
            key_strategy: strategy,
        });
        let mut hits = 0usize;
        let mut scanned = 0usize;
        let mut reports = 0usize;
        for records in &trace {
            let items = to_updates(records, KeySpec::DstIp, ValueSpec::Bytes);
            let rep = det.process_interval(&items);
            if rep.warmed_up {
                scanned += rep.errors.len();
                reports += 1;
                for ev in &events {
                    if rep.interval == ev.start_interval {
                        let victim = generator.dst_ip_of_rank(ev.victim_rank) as u64;
                        if rep.alarms.iter().any(|a| a.key == victim) {
                            hits += 1;
                        }
                    }
                }
            }
        }
        t.row(&[
            name.into(),
            format!("{hits}/{n_events}"),
            (scanned / reports.max(1)).to_string(),
            (5 * 16_384 * 8 / 1024).to_string(),
        ]);
    }
    // The group-testing alternative (§3.3 option four): direct recovery,
    // no key stream at all, at (key_bits + 1)x the memory.
    {
        let mut det = ReversibleChangeDetector::new(ReversibleConfig {
            deltoid: DeltoidConfig { h: 5, k: 16_384, key_bits: 32, seed: 7 },
            model: ModelSpec::Ewma { alpha: 0.5 },
            threshold: 0.15,
        });
        let mut hits = 0usize;
        for records in &trace {
            let items = to_updates(records, KeySpec::DstIp, ValueSpec::Bytes);
            let rep = det.process_interval(&items);
            for ev in &events {
                if rep.interval == ev.start_interval {
                    let victim = generator.dst_ip_of_rank(ev.victim_rank) as u64;
                    if rep.alarms.iter().any(|a| a.key == victim) {
                        hits += 1;
                    }
                }
            }
        }
        t.row(&[
            "group-testing (reversible)".into(),
            format!("{hits}/{n_events}"),
            "0 (recovered from sketch)".into(),
            (5 * 16_384 * 33 * 8 / 1024).to_string(),
        ]);
    }
    t.print();
    println!("(one-interval attacks vanish afterwards: the online strategy pays for it)\n");
}

fn interval_ablation(args: &Args) {
    let common = args.common();
    let mut t = Table::new(
        "Ablation 4 — interval size: responsiveness vs per-interval work",
        &["interval", "detection delay (s, worst)", "forecast steps/hour", "records/interval"],
    );
    for &secs in &[60u32, 300, 900] {
        let mut cfg = RouterProfile::Small.config(common.seed);
        cfg.records_per_sec *= common.scale;
        cfg.interval_secs = secs;
        let mut g = TrafficGenerator::new(cfg);
        let n = g.interval_records(1).len();
        // Worst-case detection delay: an event starting right after an
        // interval boundary is only reported at the end of the next one.
        t.row(&[
            format!("{secs}s"),
            (2 * secs).to_string(),
            (3600 / secs).to_string(),
            n.to_string(),
        ]);
    }
    t.print();
    println!("(the paper picks 300 s as the responsiveness/overhead tradeoff, §4.2)");
}
