//! Table 1: running time for 10 million hash computations, sketch UPDATEs,
//! and sketch ESTIMATEs (paper §5.3).
//!
//! The paper's numbers: on a 400 MHz SGI R12k — 0.34 s / 0.81 s / 2.69 s;
//! on a 900 MHz Ultrasparc-III — 0.89 s / 0.45 s / 1.46 s, for hash /
//! UPDATE / ESTIMATE with `H = 5, K = 2^16`. Absolute numbers on a modern
//! CPU are far smaller; the *preserved claims* are (a) per-record cost is
//! tens of nanoseconds, i.e. line-rate feasible, and (b) ESTIMATE costs a
//! small multiple of UPDATE (the median computation).
//!
//! The paper's hash batch produces "8 independent 16-bit hash values" per
//! computation; our `Hasher4` produces 32 bits (2 such values) per call on
//! the tabulation-domain keys timed here, so the hash row times four calls
//! to match the paper's unit of work.

use crate::args::Args;
use crate::baselines::{CountMinSketch, CountSketch};
use crate::table::{f, Table};
use scd_hash::Hasher4;
use scd_sketch::{KarySketch, SketchConfig};
use std::time::Instant;

/// Number of operations, as in the paper.
const OPS: usize = 10_000_000;

/// Seconds for `ops` calls of `op` over the table's key sequence.
fn time_ops(ops: usize, mut op: impl FnMut(u64) -> u64) -> f64 {
    let start = Instant::now();
    let mut acc = 0u64;
    for i in 0..ops as u64 {
        acc ^= op(i.wrapping_mul(0x9E37_79B9_7F4A_7C15) as u32 as u64);
    }
    std::hint::black_box(acc);
    start.elapsed().as_secs_f64()
}

/// Runs the timing table.
pub fn run(args: &Args) {
    let ops = (OPS as f64 * args.get("scale", 1.0)) as usize;
    println!("Table 1: {ops} operations per row (H = 5, K = 65536)\n");

    // --- hash: equivalent of 8 independent 16-bit values per item.
    let [h1, h2, h3, h4] = [1, 2, 3, 4].map(Hasher4::new);
    let hash_secs =
        time_ops(ops, |key| h1.hash64(key) ^ h2.hash64(key) ^ h3.hash64(key) ^ h4.hash64(key));

    // --- UPDATE on an H=5, K=2^16 sketch, then ESTIMATE with the stream
    // total precomputed (as the paper does).
    let mut sketch = KarySketch::new(SketchConfig { h: 5, k: 1 << 16, seed: 3 });
    let update_secs = time_ops(ops, |key| {
        sketch.update(key, 1.0);
        0
    });
    let est = sketch.estimator();
    let estimate_secs = time_ops(ops, |key| est.estimate(key).to_bits());

    // --- §3.1: k-ary operations are "simpler and more efficient than the
    // corresponding operations on count sketches" (an extra sign hash per
    // row); count-min is the floor (no sign work, min for median).
    let mut cs = CountSketch::new(5, 1 << 16, 9);
    let cs_update_secs = time_ops(ops, |key| {
        cs.update(key, 1.0);
        0
    });
    let cs_estimate_secs = time_ops(ops, |key| cs.estimate(key).to_bits());
    let mut cm = CountMinSketch::new(5, 1 << 16, 8);
    let cm_update_secs = time_ops(ops, |key| {
        cm.update(key, 1.0);
        0
    });
    let cm_estimate_secs = time_ops(ops, |key| cm.estimate(key).to_bits());

    let mut t = Table::new(
        "Table 1 — running time (seconds) for 10M operations",
        &["operation", "this host (s)", "ns/op", "paper: SGI R12k (s)", "paper: USparc-III (s)"],
    );
    for (name, secs, sgi, sparc) in [
        ("compute 8 16-bit hash values", hash_secs, "0.34", "0.89"),
        ("UPDATE (H=5, K=2^16)", update_secs, "0.81", "0.45"),
        ("ESTIMATE (H=5, K=2^16)", estimate_secs, "2.69", "1.46"),
        ("count sketch UPDATE (§3.1 baseline)", cs_update_secs, "-", "-"),
        ("count sketch ESTIMATE (§3.1 baseline)", cs_estimate_secs, "-", "-"),
        ("count-min UPDATE (baseline)", cm_update_secs, "-", "-"),
        ("count-min ESTIMATE (baseline)", cm_estimate_secs, "-", "-"),
    ] {
        t.row(&[name.into(), f(secs, 3), f(secs / ops as f64 * 1e9, 1), sgi.into(), sparc.into()]);
    }
    t.print();
    let path = t.save_csv("table1").expect("write results/");
    println!(
        "\nshape check: ESTIMATE/UPDATE ratio = {:.2} (paper: 3.3x / 3.2x)",
        estimate_secs / update_secs
    );
    println!(
        "§3.1 check: count sketch / k-ary = {:.2}x UPDATE, {:.2}x ESTIMATE",
        cs_update_secs / update_secs,
        cs_estimate_secs / estimate_secs
    );
    println!("csv: {}", path.display());
}
