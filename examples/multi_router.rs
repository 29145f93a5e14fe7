//! Network-wide detection via sketch linearity (COMBINE across routers).
//!
//! "Its linearity property enables us to summarize traffic at various
//! levels" — including *spatially*: sketches built independently at many
//! routers, over the same hash family, can be summed into one network-wide
//! sketch. This example stages a distributed low-rate attack: each of five
//! routers sees only a small (sub-threshold) surge toward the victim, but
//! the aggregated sketch sees the full attack.
//!
//! ```sh
//! cargo run --release --example multi_router
//! ```

use scd_forecast::Forecaster;
use sketch_change::prelude::*;

const ROUTERS: usize = 5;
const INTERVALS: usize = 16;
const ATTACK_START: usize = 10;

fn main() {
    // All routers share the SAME sketch config (H, K, seed) — the
    // precondition for COMBINE.
    let sketch_cfg = SketchConfig { h: 5, k: 32_768, seed: 0xA11CE };

    // Five small routers with different seeds (different traffic), plus a
    // per-router slice of the distributed attack.
    let mut generators: Vec<TrafficGenerator> = (0..ROUTERS)
        .map(|i| {
            let mut cfg = RouterProfile::Small.config(1000 + i as u64);
            cfg.interval_secs = 60;
            cfg.records_per_sec = 20.0;
            cfg.n_flows = 2_000;
            TrafficGenerator::new(cfg)
        })
        .collect();

    // The victim: one address, attacked through every router at a rate
    // calibrated to stay below each router's own alarm threshold (measured
    // during the pre-attack intervals), so no single vantage point fires.
    let victim_ip: u32 = 0x0A63_0001; // 10.99.0.1
    let mut per_router_rate = f64::NAN; // set at attack onset from min TA
    let mut last_ta = [f64::INFINITY; ROUTERS];

    // One sketch-space forecaster per router + one for the aggregate.
    let model = ModelSpec::Ewma { alpha: 0.5 };
    let mut router_models: Vec<Forecaster<KarySketch>> =
        (0..ROUTERS).map(|_| model.build()).collect();
    let mut aggregate_model: Forecaster<KarySketch> = model.build();
    let threshold_t = 0.18;

    println!("distributed attack on 10.99.0.1 through {ROUTERS} routers from t={ATTACK_START}");
    println!(
        "{:<9} {:>28} {:>24}",
        "interval", "per-router victim alarms", "aggregate victim alarm"
    );

    for t in 0..INTERVALS {
        let mut aggregate = KarySketch::new(sketch_cfg);
        let mut per_router_alarms = 0usize;

        if t == ATTACK_START {
            // Calibrate: 80% of the quietest router's current threshold —
            // below every local alarm bar, while the 5-router sum (≈4x one
            // threshold) clears the aggregate bar (≈√5 x one threshold,
            // since independent routers' error energies add).
            let min_ta = last_ta.iter().cloned().fold(f64::INFINITY, f64::min);
            per_router_rate = 0.8 * min_ta;
            println!(
                "  [attack begins: {:.0} KB/interval per router, {:.0} KB network-wide]",
                per_router_rate / 1e3,
                per_router_rate * ROUTERS as f64 / 1e3
            );
        }
        for (i, generator) in generators.iter_mut().enumerate() {
            let mut records = generator.interval_records(t);
            if t >= ATTACK_START {
                // The attack slice this router carries: 30 small flows.
                for f in 0..30u32 {
                    records.push(FlowRecord {
                        timestamp_ms: (t as u64) * 60_000 + f as u64,
                        src_ip: 0x3000_0000 + ((i as u32) << 8) + f,
                        dst_ip: victim_ip,
                        src_port: 1024 + f as u16,
                        dst_port: 80,
                        protocol: 6,
                        bytes: (per_router_rate / 30.0) as u64,
                        packets: 20,
                    });
                }
            }

            // Build this router's observed sketch and step its local model.
            let mut observed = KarySketch::new(sketch_cfg);
            for (key, value) in to_updates(&records, KeySpec::DstIp, ValueSpec::Bytes) {
                observed.update(key, value);
            }
            if let Some((_f, err)) = router_models[i].step(&observed) {
                let ta = threshold_t * err.estimate_f2().max(0.0).sqrt();
                last_ta[i] = ta;
                let e = err.estimate(victim_ip as u64);
                if e.abs() >= ta && e.abs() > 0.0 {
                    per_router_alarms += 1;
                }
            }

            // Ship the (tiny) sketch to the aggregation point: COMBINE.
            aggregate.add_scaled(&observed, 1.0).expect("same hash family at every router");
        }

        // Network-wide detection on the summed sketch.
        let agg_alarm = match aggregate_model.step(&aggregate) {
            None => "warm-up".to_string(),
            Some((_f, err)) => {
                let ta = threshold_t * err.estimate_f2().max(0.0).sqrt();
                let e = err.estimate(victim_ip as u64);
                if e.abs() >= ta && e.abs() > 0.0 {
                    format!("ALARM ({:+.2} MB)", e / 1e6)
                } else {
                    "-".to_string()
                }
            }
        };
        println!("{:<9} {:>21}/{} routers {:>24}", t, per_router_alarms, ROUTERS, agg_alarm);
    }

    println!();
    println!(
        "each router ships {} KiB per interval instead of per-flow tables;",
        sketch_cfg.h * sketch_cfg.k * 8 / 1024
    );
    println!("the attack hides below per-router thresholds but is obvious in the aggregate.");
}
