//! The `replay-*` workloads: one pass is the call sequence of
//! `scd detect --shards 2 --pipeline --source-threads 2` over a trace file,
//! from `File::open` to the last report. `replay-turnover` adds the engine
//! archive and a background-rebuild serving plane as the observer. On a
//! traced run each full-speed pass (throughput) is followed by a latency
//! pass over the same intervals, closed one at a time ([`latency_pass`]).

use crate::common::{
    check_plants, check_reports, inline_reference, peak_rss_mb, reset_peak_rss, write_span_file,
    BoxResult, ChildArgs, CloseStamp, Intervals, Outcome,
};
use crate::gen::plants;
use crate::probes;
use crate::serve;
use crate::span::{Ledger, Tracer, NO_INTERVAL};
use crate::spec::{Kind, ARCHIVE, CHUNK_RECORDS, INTERVAL_SECS, SKETCH_SEED};
use crate::stats::{median, pct_over};
use sketch_change::core::{
    EngineConfig, GlrConfig, IntervalObserver, IntervalReport, PipelineMetrics, ShardedEngine,
    StreamSegmenter,
};
use sketch_change::obs::Registry;
use sketch_change::serve::{RebuildMode, ServingPlane};
use sketch_change::traffic::{ChunkedTraceReader, KeySpec, ValueSpec};
use std::fs::File;
use std::sync::Arc;
use std::time::Instant;

const SHARDS: usize = 2;
const SOURCE_THREADS: usize = 2;
/// Sub-interval slots of the GLR pass (`--glr 8`). 60 s does not divide by
/// 8, so the slots are cut by record count; records are evenly spaced, so
/// each is 7.5 s of trace.
const GLR_SLOTS: usize = 8;

/// What a pass adds to the plain call sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Variant {
    Plain,
    /// Spans around every call into a layer.
    Spans,
    /// `--metrics`: the engine records its stage histograms.
    Metrics,
    /// `--glr 8`: sequential detection rides the ingest path.
    Glr,
}

struct Pass {
    wall_s: f64,
    /// Engine construction to last report: what the inline reference is
    /// compared with.
    engine_s: f64,
    records: u64,
    bytes: u64,
    reports: Vec<IntervalReport>,
    report_count: usize,
    close_ms: Vec<f64>,
    queue_depth_max: f64,
    intervals: Intervals,
    metrics: Option<Arc<PipelineMetrics>>,
    engine: ShardedEngine,
}

/// The engine `scd detect --shards 2 --pipeline` builds, with the
/// benchmark's close stamp (and, on `replay-turnover`, a background-rebuild
/// serving plane behind it) as its observer.
fn build_engine(
    args: &ChildArgs,
    epoch: Instant,
    intervals: usize,
    metrics: Option<&Arc<PipelineMetrics>>,
    glr: bool,
) -> BoxResult<(ShardedEngine, Arc<CloseStamp>)> {
    let w = &args.workload;
    let plane = match w.kind {
        Kind::ReplayServed => {
            Some(ServingPlane::with_options(ARCHIVE, None, RebuildMode::Background)?)
        }
        _ => None,
    };
    let stamp = CloseStamp::new(epoch, intervals, plane);
    let mut config = EngineConfig::new(w.detector(), SHARDS)
        .with_pipeline()
        .with_observer(Arc::clone(&stamp) as Arc<dyn IntervalObserver>);
    if w.kind == Kind::ReplayServed {
        config = config.with_archive(ARCHIVE);
    }
    if let Some(m) = metrics {
        config = config.with_metrics(Arc::clone(m));
    }
    if glr {
        config = config.with_glr(GlrConfig { max_window: 8, ..GlrConfig::new(16.0, SKETCH_SEED) });
    }
    Ok((ShardedEngine::new(config)?, stamp))
}

fn pass(args: &ChildArgs, variant: Variant, keep: bool, tracer: &mut Tracer) -> BoxResult<Pass> {
    tracer.set_on(variant == Variant::Spans);
    let epoch = Instant::now();
    tracer.span("pass", NO_INTERVAL, |tr| -> BoxResult<Pass> {
        let file = File::open(args.trace_path())?;
        let bytes = file.metadata()?.len();
        let mut reader = ChunkedTraceReader::new(file)?;
        let mut segmenter = StreamSegmenter::new(INTERVAL_SECS, KeySpec::DstIp, ValueSpec::Bytes);
        let mut chunk = Vec::with_capacity(CHUNK_RECORDS);
        loop {
            chunk.clear();
            let n = tr.span("traffic.parse", NO_INTERVAL, |_| {
                reader.next_chunk(CHUNK_RECORDS, &mut chunk)
            })?;
            if n == 0 {
                break;
            }
            tr.span("stream.segment", NO_INTERVAL, |_| segmenter.push(&chunk));
        }
        let intervals = tr.span("stream.segment", NO_INTERVAL, |_| segmenter.finish());

        let engine_start = Instant::now();
        let registry = Registry::new();
        let metrics = (variant == Variant::Metrics).then(|| PipelineMetrics::register(&registry));
        let (mut engine, stamp) = tr.span("engine.new", NO_INTERVAL, |_| {
            build_engine(args, epoch, intervals.len(), metrics.as_ref(), variant == Variant::Glr)
        })?;

        let mut reports = Vec::new();
        let mut report_count = 0usize;
        let mut take = |r: Option<IntervalReport>| {
            if let Some(r) = r {
                report_count += 1;
                if keep {
                    reports.push(r);
                }
            }
        };
        let mut pushed_ns = Vec::with_capacity(intervals.len());
        let mut queue_depth_max = 0.0f64;
        for (t, items) in intervals.iter().enumerate() {
            let t = t as i64;
            if variant == Variant::Glr {
                let slot = items.len().div_ceil(GLR_SLOTS).max(1);
                for part in items.chunks(slot) {
                    engine.push_slice_parallel(part, SOURCE_THREADS)?;
                    engine.end_glr_slot();
                    std::hint::black_box(engine.take_glr_events());
                }
            } else {
                tr.span("engine.push", t, |_| engine.push_slice_parallel(items, SOURCE_THREADS))?;
            }
            pushed_ns.push(stamp.ns_since_epoch());
            take(tr.span("engine.close", t, |_| engine.end_interval_overlapped())?);
            if let Some(m) = &metrics {
                queue_depth_max = queue_depth_max.max(m.engine.queue_depth.get());
            }
            if variant == Variant::Glr {
                std::hint::black_box(engine.take_glr_events());
            }
        }
        take(tr.span("engine.close", NO_INTERVAL, |_| engine.drain())?);
        let wall_s = epoch.elapsed().as_secs_f64();
        let engine_s = engine_start.elapsed().as_secs_f64();

        let close_ms = (0..intervals.len())
            .filter(|&t| stamp.closed_ns(t) != 0)
            .map(|t| stamp.closed_ns(t).saturating_sub(pushed_ns[t]) as f64 / 1e6)
            .collect();
        Ok(Pass {
            wall_s,
            engine_s,
            records: reader.records_read() as u64,
            bytes,
            reports,
            report_count,
            close_ms,
            queue_depth_max,
            intervals,
            metrics,
            engine,
        })
    })
}

/// The latency pass: the same engine fed the same intervals the way a live
/// feed feeds it, each interval closed (`end_interval`: ship, then wait for
/// that interval's own report) before the next one's records arrive. A
/// full-speed pass is the throughput test; its closes queue behind one
/// another and share two cores with the next interval's push, so what they
/// take says how five threads happened to be scheduled (11 or 21 ms on the
/// same input). Here nothing is queued and nothing competes: the close is
/// barrier, COMBINE, forecast, detect, archive and hand-off, i.e. code.
/// Returns the close latencies in milliseconds.
fn latency_pass(args: &ChildArgs, intervals: &Intervals) -> BoxResult<Vec<f64>> {
    let epoch = Instant::now();
    let (mut engine, stamp) = build_engine(args, epoch, intervals.len(), None, false)?;
    let mut close_ms = Vec::with_capacity(intervals.len());
    for (t, items) in intervals.iter().enumerate() {
        engine.push_slice_parallel(items, SOURCE_THREADS)?;
        let pushed_ns = stamp.ns_since_epoch();
        engine.end_interval()?;
        close_ms.push(stamp.closed_ns(t).saturating_sub(pushed_ns) as f64 / 1e6);
    }
    engine.drain()?;
    Ok(close_ms)
}

pub fn run(args: &ChildArgs, seed: u64) -> BoxResult<Outcome> {
    let w = &args.workload;
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(Instant::now(), false);

    // The warm-up pass doubles as the verification pass: it alone keeps
    // its reports, and they are checked before anything is timed.
    let warm = pass(args, Variant::Plain, true, &mut tracer)?;
    let (reference, inline_s) = inline_reference(w, &warm.intervals);
    check_reports(&mut out.checks, w.name, &warm.reports, &reference);
    check_plants(&mut out.checks, w.name, &warm.reports, &plants(w));
    out.checks.attempt(warm.records as usize == w.total_records(), || {
        format!("read {} records, the trace holds {}", warm.records, w.total_records())
    });
    drop(reference);
    drop(warm);
    reset_peak_rss();

    let variants: &[Variant] = match (args.traced, w.name) {
        (false, _) => &[Variant::Plain],
        (true, "replay-volume") => {
            &[Variant::Plain, Variant::Spans, Variant::Metrics, Variant::Glr]
        }
        (true, _) => &[Variant::Plain, Variant::Spans, Variant::Metrics],
    };
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); 4];
    let (mut engine_s, mut queued_ms, mut ledgers) = (Vec::new(), Vec::new(), Vec::new());
    let mut close_ms = Vec::new();
    let mut parse = (0u64, 0u64, 0u64); // bytes, records, passes
                                        // The one metrics pass's histograms and its deepest queue.
    let mut staged: Option<(Arc<PipelineMetrics>, f64)> = None;
    let mut last: Option<(ShardedEngine, Intervals)> = None;
    // Read after the first timed pass: one pass is what a user of `scd`
    // runs, and later passes only add allocator fragmentation.
    let mut rss = 0.0;
    let timed = Instant::now();
    let budget = args.pass_seconds();
    let mut round = 0;
    loop {
        // The metrics and GLR passes run once; the rounds after that go to
        // the plain/spans pair, whose difference is the noisiest number here.
        let this_round = if round == 0 { variants } else { &variants[..variants.len().min(2)] };
        round += 1;
        for &variant in this_round {
            let first = tracer.spans.len();
            // The previous pass's intervals must not sit beside this one's.
            drop(last.take());
            let p = pass(args, variant, false, &mut tracer)?;
            out.checks.attempt(p.report_count == w.intervals, || {
                format!("a timed pass delivered {} of {} reports", p.report_count, w.intervals)
            });
            walls[variant as usize].push(p.wall_s);
            match variant {
                Variant::Plain => {
                    engine_s.push(p.engine_s);
                    queued_ms.extend_from_slice(&p.close_ms);
                }
                Variant::Spans => {
                    ledgers.push(Ledger::of(&tracer.spans, first));
                    parse = (parse.0 + p.bytes, parse.1 + p.records, parse.2 + 1);
                }
                Variant::Metrics => staged = p.metrics.clone().map(|m| (m, p.queue_depth_max)),
                Variant::Glr => {}
            }
            if rss == 0.0 {
                rss = peak_rss_mb();
            }
            // On a traced run each full-speed pass is followed by a latency
            // pass over the same intervals, so both see the same stretch of
            // the run.
            if variant == Variant::Plain && args.traced {
                let lat = latency_pass(args, &p.intervals)?;
                out.checks.attempt(lat.len() == w.intervals, || {
                    format!("a latency pass closed {} of {} intervals", lat.len(), w.intervals)
                });
                close_ms.extend(lat);
            }
            last = Some((p.engine, p.intervals));
        }
        // A traced run gets two rounds at least: one pass a side says little
        // about what the spans cost.
        let rounds_wanted = if args.traced && !args.smoke { 2 } else { 1 };
        if timed.elapsed().as_secs_f64() >= budget && round >= rounds_wanted {
            break;
        }
    }
    let plain = &walls[Variant::Plain as usize];
    let pass_s = median(plain);

    if !args.traced {
        out.put("records_per_s", w.total_records() as f64 / pass_s, plain.len());
        out.put("peak_rss_mb", rss, 1);
        let (_, intervals) = last.take().ok_or("no timed pass ran")?;
        serve::tail_fill(args, &intervals, seed, &mut out)?;
        return Ok(out);
    }

    let spans_s = median(&walls[Variant::Spans as usize]);
    let ledger = Ledger::merged(&ledgers);
    let passes = ledgers.len();
    let per_pass = |name: &str| ledger.total_ns(name) as f64 / 1e9 / passes as f64;
    out.text += &ledger.render(w.name, passes);
    out.put("pass.wall_s", pass_s, plain.len());
    out.put("close_queued_ms_p50", median(&queued_ms), queued_ms.len());
    out.put("traffic.parse_s", per_pass("traffic.parse"), passes);
    out.put(
        "traffic.parse_mb_s",
        parse.0 as f64 / 1e6 / (ledger.total_ns("traffic.parse") as f64 / 1e9),
        passes,
    );
    out.put("traffic.records_read", (parse.1 / parse.2.max(1)) as f64, passes);
    out.put("stream.segment_s", per_pass("stream.segment"), passes);
    out.put("engine.push_s", per_pass("engine.push"), passes);
    out.put(
        "engine.push_ns_per_record",
        ledger.total_ns("engine.push") as f64 / (passes * w.total_records()) as f64,
        passes,
    );
    out.put("engine.close_s", per_pass("engine.close"), passes);
    out.put("engine.speedup_vs_inline", inline_s / median(&engine_s), engine_s.len());
    out.put("ledger.residual_pct", ledger.residual_pct(), passes);
    out.put("trace.overhead_pct", pct_over(spans_s, pass_s), walls[Variant::Spans as usize].len());
    if let Some((m, depth)) = &staged {
        let e = &m.engine;
        let mean_ms =
            |h: &sketch_change::obs::Histogram| h.sum() as f64 / 1e6 / h.count().max(1) as f64;
        out.put("engine.records_total", e.records_total.get() as f64, 1);
        out.put(
            "engine.fold_busy_s",
            e.ingest_batch_ns.sum() as f64 / 1e9,
            e.ingest_batch_ns.count() as usize,
        );
        out.put("engine.barrier_ms_mean", mean_ms(&e.barrier_ns), e.barrier_ns.count() as usize);
        out.put("engine.combine_ms_mean", mean_ms(&e.combine_ns), e.combine_ns.count() as usize);
        out.put("engine.detect_ms_mean", mean_ms(&e.detect_ns), e.detect_ns.count() as usize);
        out.put("engine.archive_ms_mean", mean_ms(&e.archive_ns), e.archive_ns.count() as usize);
        out.put("engine.queue_depth_max", *depth, 1);
        out.text += &format!(
            "  engine.close stages (means per interval, metrics pass): barrier {:.3} ms, combine {:.3} ms, detect {:.3} ms, archive {:.3} ms\n",
            mean_ms(&e.barrier_ns), mean_ms(&e.combine_ns), mean_ms(&e.detect_ns), mean_ms(&e.archive_ns)
        );
        let with_metrics = median(&walls[Variant::Metrics as usize]);
        if w.name == "replay-volume" {
            out.put("obs.metrics_on_overhead_pct", pct_over(with_metrics, pass_s), 1);
        }
    }
    if w.name == "replay-volume" {
        let glr = &walls[Variant::Glr as usize];
        let glr_s = median(glr);
        out.put(
            "glr.tax_ns_per_record",
            (glr_s - pass_s) * 1e9 / w.total_records() as f64,
            glr.len(),
        );
        out.put("glr.tax_pct", pct_over(glr_s, pass_s), glr.len());
        if !args.smoke {
            probes::cli_detect(args, &mut out, pass_s)?;
        }
    }
    let (mut engine, intervals) = last.take().ok_or("no timed pass ran")?;
    probes::checkpoint_layers(args, &mut out, &mut engine)?;
    let main_archive = engine.take_archive();
    drop(engine);
    let mut served = serve::tail_fill(args, &intervals, seed, &mut out)?;
    serve::put_unbounded(&mut out, &close_ms, &served);
    serve::put_serve_layers(args, &mut out, &mut served, true);
    if let Some(archive) = &main_archive {
        // The 400-interval archive, compaction included, not the tail's.
        probes::archive_layers(&mut out, archive);
    }
    probes::common_layers(args, &mut out, &intervals);
    write_span_file(args, &[("main", &tracer.spans)])?;
    Ok(out)
}
