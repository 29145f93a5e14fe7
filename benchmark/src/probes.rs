//! Per-layer probes of a traced run: each times one layer's public
//! functions from outside, at the workload's own H, K, model and key set,
//! so the numbers extend the paper's Table 1 (UPDATE / ESTIMATE /
//! ESTIMATEF2 / COMBINE) down the rest of the stack.

use crate::common::{BoxResult, ChildArgs, Intervals, Outcome};
use crate::gen::KEY_BASE;
use crate::serve::{Served, KINDS};
use crate::spec::{ARCHIVE, H, SKETCH_SEED};
use crate::stats::{median, pct_over};
use sketch_change::archive::{wire as archive_wire, SketchArchive};
use sketch_change::core::{
    notable_keys, Checkpoint, IntervalObserver, ShardedEngine, SketchChangeDetector,
};
use sketch_change::net::Frame;
use sketch_change::serve::{answer, RebuildMode, Request, ServingPlane};
use sketch_change::sketch::{
    wire as sketch_wire, BatchScratch, EstimateScratch, KarySketch, SketchConfig,
};
use std::hint::black_box;
use std::time::Instant;

/// Seconds per call: median over `reps` timings of `f`.
fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

fn distinct_keys(items: &[(u64, f64)]) -> Vec<u64> {
    let mut keys: Vec<u64> = items.iter().map(|&(k, _)| k).collect();
    keys.sort_unstable();
    keys.dedup();
    keys
}

/// The probes every workload runs on its own data: hash, sketch, forecast,
/// detector and frame codec.
pub fn common_layers(args: &ChildArgs, out: &mut Outcome, intervals: &Intervals) {
    let w = &args.workload;
    let reps = if args.smoke { 3 } else { 7 };
    let config = SketchConfig { h: H, k: w.k, seed: SKETCH_SEED };

    let buffer = vec![0xA5u8; if args.smoke { 4 << 20 } else { 64 << 20 }];
    let crc_s = time_median(3, || {
        black_box(sketch_change::hash::crc32(black_box(&buffer)));
    });
    out.put("hash.crc32_mb_s", buffer.len() as f64 / 1e6 / crc_s, 3);
    drop(buffer);

    // Table 1 at this workload's shape: the busiest of its first intervals.
    let sample =
        intervals.iter().take(8).max_by_key(|i| i.len()).expect("a workload has intervals");
    let keys = distinct_keys(sample);
    let mut sketch = KarySketch::new(config);
    let mut scratch = BatchScratch::new();
    let update_s = time_median(reps, || {
        sketch.clear();
        sketch.update_batch(black_box(sample), &mut scratch);
    });
    out.put("sketch.update_ns", update_s * 1e9 / sample.len() as f64, reps);
    let (mut est_scratch, mut estimates) = (EstimateScratch::new(), Vec::new());
    let estimate_s = time_median(reps, || {
        sketch.estimate_batch(black_box(&keys), &mut est_scratch, &mut estimates);
        black_box(&estimates);
    });
    out.put("sketch.estimate_ns", estimate_s * 1e9 / keys.len() as f64, reps);
    let f2_s = time_median(reps * 3, || {
        black_box(black_box(&sketch).estimate_f2());
    });
    out.put("sketch.estimate_f2_us", f2_s * 1e6, reps * 3);
    let other = sketch.clone();
    let mut sum = sketch.zero_like();
    let combine_s = time_median(reps * 3, || {
        sum.combine_into(black_box(&[(1.0, &sketch), (1.0, &other)])).expect("one hash family");
    });
    out.put("sketch.combine_us", combine_s * 1e6, reps * 3);

    let mut model = w.model_spec().build::<KarySketch>();
    let (mut forecast, mut error) = (sketch.zero_like(), sketch.zero_like());
    for _ in 0..=model.warm_up() {
        model.observe(&sketch);
    }
    let step_s = time_median(reps * 3, || {
        black_box(model.step_into(black_box(&sketch), &mut forecast, &mut error));
    });
    out.put("forecast.step_us", step_s * 1e6, reps * 3);

    // The detector turnover on pre-built sketches, one per leading interval.
    let mut detector = SketchChangeDetector::new(w.detector());
    let mut turnovers = Vec::new();
    let mut scanned = Vec::new();
    for items in intervals.iter().take(8) {
        let mut observed = KarySketch::with_rows(std::sync::Arc::clone(detector.rows()));
        observed.update_batch(items, &mut scratch);
        let stream: Vec<u64> = items.iter().map(|&(k, _)| k).collect();
        let start = Instant::now();
        let report = detector.process_observed(&observed, stream);
        let took = start.elapsed().as_secs_f64();
        if report.warmed_up {
            turnovers.push(took * 1e3);
            scanned.push(report.errors.len() as f64);
        }
    }
    if !turnovers.is_empty() {
        let (turnover_ms, keys_scanned) = (median(&turnovers), median(&scanned));
        out.put("detector.turnover_ms_p50", turnover_ms, turnovers.len());
        out.put("detector.keys_scanned_per_interval", keys_scanned, scanned.len());
        out.put("detector.ns_per_key", turnover_ms * 1e6 / keys_scanned.max(1.0), turnovers.len());
    }

    // One interval frame as an ingest node ships it: data + parity blobs.
    let frame = Frame::Interval {
        node: 0,
        interval: 0,
        data: sketch_wire::to_bytes(&sketch),
        data_keys: keys.clone(),
        parity: sketch_wire::to_bytes(&sum),
        parity_keys: keys,
    };
    let mut encoded = Vec::new();
    let encode_s = time_median(reps, || encoded = black_box(&frame).encode());
    let decode_s = time_median(reps, || {
        black_box(Frame::decode(black_box(&encoded)).expect("a frame just encoded decodes"));
    });
    out.put("net.frame_encode_mb_s", encoded.len() as f64 / 1e6 / encode_s, reps);
    out.put("net.frame_decode_mb_s", encoded.len() as f64 / 1e6 / decode_s, reps);
    out.put("net.bytes_per_interval", encoded.len() as f64, 1);
}

/// The archive codec and heavy-change query on a fat archive.
pub fn archive_layers(out: &mut Outcome, archive: &SketchArchive<KarySketch>) {
    let Some((lo, hi)) = archive.coverage() else { return };
    let mut bytes = Vec::new();
    let to_s = time_median(3, || bytes = archive_wire::to_bytes(black_box(archive)));
    let from_s = time_median(3, || {
        black_box(
            archive_wire::from_bytes(black_box(&bytes)).expect("an archive just written loads"),
        );
    });
    out.put("archive.to_bytes_mb_s", bytes.len() as f64 / 1e6 / to_s, 3);
    out.put("archive.from_bytes_mb_s", bytes.len() as f64 / 1e6 / from_s, 3);
    let changed_s = time_median(5, || {
        black_box(
            archive
                .changed_keys(lo, hi, crate::spec::THRESHOLD, &[])
                .expect("window inside coverage"),
        );
    });
    out.put("archive.changed_keys_ms", changed_s * 1e3, 5);
    out.put("archive.epochs", archive.sketch_count() as f64, 1);
    out.put("archive.memory_bytes", archive.memory_bytes() as f64, 1);
}

/// What a served plane yields beyond its load test: direct `answer` times
/// per request kind (no TCP, no cache), the publish cost of one interval
/// close, and the archive layer on the engine's own fat archive.
pub fn serve_layers(args: &ChildArgs, out: &mut Outcome, served: &Served) {
    let view = served.rig.plane.view();
    if let Some((lo, hi)) = view.archive.coverage() {
        let key = u64::from(KEY_BASE);
        let mid = lo + (hi - lo) / 2;
        let requests = [
            Request::Estimate { key, from: 0, to: 0 },
            Request::ChangedKeys {
                from: lo,
                to: hi.min(mid + 4),
                threshold: crate::spec::THRESHOLD,
            },
            Request::KeyHistory { key, from: lo, to: hi.min(mid + 4) },
            Request::RangeSketch { from: lo, to: hi.min(mid + 4) },
        ];
        for (kind, req) in KINDS.iter().zip(&requests) {
            let reps = if args.smoke { 20 } else { 200 };
            let answer_s = time_median(reps, || {
                black_box(answer(black_box(&view), black_box(req)));
            });
            out.put(&format!("serve.answer_us_p50.{kind}"), answer_s * 1e6, reps);
        }
    }

    let closes = served.rig.capture.closes.lock().expect("capture lock poisoned");
    if !closes.is_empty() {
        let plane = ServingPlane::with_options(ARCHIVE, None, RebuildMode::Background)
            .expect("the archive shape is valid");
        let mut fat =
            SketchArchive::<KarySketch>::new(ARCHIVE).expect("the archive shape is valid");
        let (mut publish_ms, mut push_us) = (Vec::new(), Vec::new());
        for (report, t, error) in closes.iter() {
            let start = Instant::now();
            plane.interval_closed(report, Some((*t, error)));
            plane.flush();
            publish_ms.push(start.elapsed().as_secs_f64() * 1e3);
            let (copy, notable) = (error.clone(), notable_keys(report));
            let start = Instant::now();
            fat.push(copy, &notable).expect("pushes are in interval order");
            push_us.push(start.elapsed().as_secs_f64() * 1e6);
        }
        out.put("serve.publish_ms_p50", median(&publish_ms), publish_ms.len());
        out.put("archive.push_us_p50", median(&push_us), push_us.len());
    }
}

/// Checkpoint cost at the end of a replay: serialise and write the
/// detector's state as `scd stream --checkpoint` would.
pub fn checkpoint_layers(
    args: &ChildArgs,
    out: &mut Outcome,
    engine: &mut ShardedEngine,
) -> BoxResult<()> {
    let snapshot = engine.detector_snapshot()?;
    let checkpoint = Checkpoint {
        config: args.workload.detector(),
        processed: snapshot.intervals_processed,
        snapshot,
        next_interval: None,
        staggered: None,
        glr: None,
    };
    let mut bytes = Vec::new();
    let to_s = time_median(5, || bytes = black_box(&checkpoint).to_bytes());
    let path = args.dir.join("detector.ckpt");
    let mut failed = None;
    let write_s =
        time_median(5, || failed = checkpoint.write_atomic(&path).err().or(failed.take()));
    if let Some(e) = failed {
        return Err(e.into());
    }
    out.put("checkpoint.to_bytes_ms", to_s * 1e3, 5);
    out.put("checkpoint.write_atomic_ms", write_s * 1e3, 5);
    out.put("checkpoint.bytes", bytes.len() as f64, 1);
    Ok(())
}

/// Builds the `scd` binary and times `scd detect` on the workload's trace
/// with the flags the in-process pass mirrors.
pub fn cli_detect(args: &ChildArgs, out: &mut Outcome, pass_s: f64) -> BoxResult<()> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let built = std::process::Command::new(&cargo)
        .args(["build", "--release", "--offline", "--quiet", "-p", "scd-cli", "--manifest-path"])
        .arg(args.repo.join("Cargo.toml"))
        .stdout(std::process::Stdio::null())
        .status()?;
    if !built.success() {
        return Err("building the scd binary failed".into());
    }
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => std::path::PathBuf::from(dir),
        None => args.repo.join("target"),
    };
    let scd = target.join("release").join("scd");
    let w = &args.workload;
    let mut walls = Vec::new();
    for _ in 0..3 {
        let start = Instant::now();
        let status = std::process::Command::new(&scd)
            .args([
                "detect",
                "--interval",
                "60",
                "--shards",
                "2",
                "--pipeline",
                "--source-threads",
                "2",
            ])
            .args(["--model", w.model, "--k", &w.k.to_string(), "--trace"])
            .arg(args.trace_path())
            .stdout(std::process::Stdio::null())
            .status()?;
        walls.push(start.elapsed().as_secs_f64());
        out.checks.attempt(status.success(), || format!("scd detect exited with {status}"));
    }
    out.put("cli.detect_wall_s", median(&walls), walls.len());
    out.put("cli.overhead_pct", pct_over(median(&walls), pass_s), walls.len());
    Ok(())
}
