//! `fanin-2node`: two `scd ingest-node` call sequences on their own
//! threads shipping interval frames over loopback into one
//! `scd aggregate`, healthy, no faults. A pass runs from the first node
//! push to `Aggregator::run` returning.

use crate::common::{
    check_plants, check_reports, inline_reference, peak_rss_mb, reset_peak_rss, write_span_file,
    BoxResult, ChildArgs, Intervals, Outcome,
};
use crate::gen::plants;
use crate::probes;
use crate::serve;
use crate::span::{Span, Tracer, NO_INTERVAL};
use crate::spec::{H, SKETCH_SEED};
use crate::stats::{median, pct_over};
use sketch_change::core::{IntervalReport, RestartPolicy};
use sketch_change::net::{Aggregator, AggregatorConfig, IngestNode, NetMetrics, NodeConfig};
use sketch_change::obs::Registry;
use sketch_change::sketch::SketchConfig;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const NODES: u32 = 2;

struct Pass {
    wall_s: f64,
    reports: Vec<IntervalReport>,
    /// Intervals that were not plain full-coverage emissions, node
    /// intervals left unacknowledged, and a timed-out run: each a failure.
    degraded: usize,
    end_interval_ms: Vec<f64>,
    resent: u64,
    recovered: usize,
    spans: Vec<(String, Vec<Span>)>,
}

fn pass(
    args: &ChildArgs,
    intervals: &Arc<Intervals>,
    n: usize,
    traced: bool,
    epoch: Instant,
) -> BoxResult<Pass> {
    let w = &args.workload;
    let registry = Registry::new();
    let metrics = traced.then(|| NetMetrics::register(&registry));
    // `scd aggregate --grace-ms 30000 --node-timeout-ms 30000`: both nodes are
    // healthy, so neither limit is part of what a pass measures. At the
    // defaults (500 ms, 2 s) one node stalled on its spool's fsync or by the
    // hypervisor has its interval rebuilt from parity: a bit-identical report,
    // but a recovery this workload counts as a failed operation (it showed in
    // 2 of 60 runs on the builder's box).
    let patience = Duration::from_secs(30);
    let config = AggregatorConfig {
        metrics: metrics.clone(),
        grace: patience,
        node_deadline: patience,
        ..AggregatorConfig::new(w.detector(), NODES)
    };
    let aggregator = Aggregator::bind(config, "127.0.0.1:0")?;
    let addr = aggregator.local_addr()?.to_string();
    let aggregate = std::thread::spawn(move || aggregator.run());

    let spool_dir = args.dir.join(format!("spool-{n}"));
    let ready = Arc::new(Barrier::new(NODES as usize + 1));
    let nodes: Vec<_> = (0..NODES)
        .map(|node| {
            let config = NodeConfig {
                node,
                nodes: NODES,
                sketch: SketchConfig { h: H, k: w.k, seed: SKETCH_SEED },
                shards: 1,
                addr: addr.clone(),
                spool_dir: spool_dir.clone(),
                retry: RestartPolicy { max_restarts: 8, ..RestartPolicy::default() },
                fault: None,
                metrics: metrics.clone(),
            };
            let (intervals, ready) = (Arc::clone(intervals), Arc::clone(&ready));
            std::thread::spawn(move || -> Result<(usize, Vec<f64>, Vec<Span>), String> {
                let mut tracer = Tracer::new(epoch, traced);
                // Reach the barrier whether or not the connect worked, or the
                // other threads would wait on it for ever.
                let ingest = IngestNode::new(config);
                ready.wait();
                let mut ingest = ingest.map_err(|e| e.to_string())?;
                let mut end_ms = Vec::with_capacity(intervals.len());
                for (t, items) in intervals.iter().enumerate() {
                    tracer
                        .span("net.node_push", t as i64, |_| ingest.push_slice(items))
                        .map_err(|e| e.to_string())?;
                    let began = Instant::now();
                    tracer
                        .span("net.node_end_interval", t as i64, |_| ingest.end_interval())
                        .map_err(|e| e.to_string())?;
                    end_ms.push(began.elapsed().as_secs_f64() * 1e3);
                }
                let summary = tracer
                    .span("net.node_finish", NO_INTERVAL, |_| {
                        ingest.finish(Duration::from_secs(60))
                    })
                    .map_err(|e| e.to_string())?;
                Ok((summary.unacked.len(), end_ms, tracer.spans))
            })
        })
        .collect();

    ready.wait();
    let start = Instant::now();
    let summary = aggregate.join().map_err(|_| "aggregator panicked")??;
    let wall_s = start.elapsed().as_secs_f64();

    let mut p = Pass {
        wall_s,
        reports: Vec::new(),
        degraded: usize::from(summary.timed_out),
        end_interval_ms: Vec::new(),
        resent: metrics.as_ref().map_or(0, |m| m.sender.frames_resent_total.get()),
        recovered: 0,
        spans: Vec::new(),
    };
    for (i, node) in nodes.into_iter().enumerate() {
        let (unacked, end_ms, spans) = node.join().map_err(|_| "ingest node panicked")??;
        p.degraded += unacked;
        p.end_interval_ms.extend(end_ms);
        p.spans.push((format!("node-{i}"), spans));
    }
    for emitted in summary.intervals {
        p.degraded += usize::from(!emitted.missing.is_empty() || !emitted.recovered.is_empty());
        p.recovered += usize::from(!emitted.recovered.is_empty());
        p.reports.push(emitted.report);
    }
    let _ = std::fs::remove_dir_all(&spool_dir);
    Ok(p)
}

pub fn run(args: &ChildArgs, seed: u64) -> BoxResult<Outcome> {
    let w = &args.workload;
    let mut out = Outcome::default();
    let warm_start = Instant::now();
    let intervals = Arc::new(serve::read_intervals(args)?);
    out.warm_s = warm_start.elapsed().as_secs_f64();
    let epoch = Instant::now();

    // Warm-up pass, checked against the single-box run before any timing.
    let warm = pass(args, &intervals, 0, false, epoch)?;
    let (reference, single_box_s) = inline_reference(w, &intervals);
    check_reports(&mut out.checks, w.name, &warm.reports, &reference);
    check_plants(&mut out.checks, w.name, &warm.reports, &plants(w));
    out.checks.attempt(warm.degraded == 0, || {
        format!("{} degraded or unacknowledged intervals", warm.degraded)
    });
    drop((warm, reference));
    reset_peak_rss();

    let (mut plain, mut spanned) = (Vec::new(), Vec::new());
    let (mut end_ms, mut resent, mut recovered) = (Vec::new(), 0, 0);
    let mut spans: Vec<(String, Vec<Span>)> = Vec::new();
    let timed = Instant::now();
    let budget = args.pass_seconds();
    let mut n = 1;
    // Read after the first timed pass, as on the replay workloads.
    let mut rss = 0.0;
    loop {
        for with_spans in [false, true] {
            if with_spans && !args.traced {
                continue;
            }
            let p = pass(args, &intervals, n, with_spans, epoch)?;
            n += 1;
            out.checks.attempt(p.reports.len() == w.intervals && p.degraded == 0, || {
                format!(
                    "a timed pass emitted {} of {} intervals, {} degraded",
                    p.reports.len(),
                    w.intervals,
                    p.degraded
                )
            });
            if with_spans {
                spanned.push(p.wall_s);
                end_ms.extend(p.end_interval_ms);
                resent += p.resent;
                recovered += p.recovered;
                spans = p.spans;
            } else {
                plain.push(p.wall_s);
            }
            if rss == 0.0 {
                rss = peak_rss_mb();
            }
        }
        if timed.elapsed().as_secs_f64() >= budget {
            break;
        }
    }
    let rate = w.total_records() as f64 / median(&plain);

    if !args.traced {
        out.put("records_per_s", rate, plain.len());
        out.put("peak_rss_mb", rss, 1);
        serve::tail_fill(args, &intervals, seed, &mut out)?;
        return Ok(out);
    }
    out.put("pass.wall_s", median(&plain), plain.len());
    out.put("net.node_end_interval_ms_p50", median(&end_ms), end_ms.len());
    out.put("net.retries", resent as f64, spanned.len());
    out.put("net.recovered_intervals", recovered as f64, spanned.len());
    out.put("net.vs_single_box", rate / (w.total_records() as f64 / single_box_s), plain.len());
    out.put("trace.overhead_pct", pct_over(median(&spanned), median(&plain)), spanned.len());
    out.text += &format!(
        "fanin-2node: {:.0} records/s against {:.0} single-box ({:.1}x slower)\n",
        rate,
        w.total_records() as f64 / single_box_s,
        (w.total_records() as f64 / single_box_s) / rate
    );
    let mut served = serve::tail_fill(args, &intervals, seed, &mut out)?;
    // No interval observer on this plane: the close numbers are the tail's.
    serve::put_unbounded(&mut out, &served.warm.close_ms, &served);
    serve::put_serve_layers(args, &mut out, &mut served, true);
    probes::common_layers(args, &mut out, &intervals);
    let threads: Vec<(&str, &[Span])> =
        spans.iter().map(|(n, s)| (n.as_str(), s.as_slice())).collect();
    write_span_file(args, &threads)?;
    Ok(out)
}
