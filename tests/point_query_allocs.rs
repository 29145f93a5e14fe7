//! A point query is `H` cell reads and a median: it has no business on
//! the heap. `median_over_rows` once collected its per-row values into a
//! fresh `Vec` on every call, so every `estimate` on every
//! median-estimator sketch allocated; this suite counts allocations on
//! the querying thread and holds them at zero for the paper's `H`.
//!
//! The same counter holds the interval turnover — the real
//! `SketchChangeDetector`, not a mirror of it — to the one allocation a
//! report needs (two once it alarms), on the plain path, on the archiving
//! path, where the error sketch leaves with the caller every interval, and
//! on the detect stage with every pipeline metric attached and a snapshot
//! rendered — and the engine's close on the sparse shape, where the shard
//! merge walks only the lines its interval wrote, adds nothing to that.

use scd_bench::CountSketch;
use sketch_change::archive::{ArchiveConfig, SketchArchive};
use sketch_change::core::{
    DetectStage, DetectorConfig, EngineConfig, KeyStrategy, PipelineMetrics, ShardedEngine,
    SketchChangeDetector,
};
use sketch_change::forecast::ModelSpec;
use sketch_change::hash::shard_of;
use sketch_change::obs::Registry;
use sketch_change::serve::SlimSketch;
use sketch_change::sketch::{
    Deltoid, DeltoidConfig, EstimateScratch, KarySketch, PointEstimate, SketchConfig,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts allocations (not bytes) made on the calling thread.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    ALLOCATIONS.with(|a| a.set(a.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`; the only added
// behaviour is a store to a destructor-free thread-local `Cell`.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocations `f` makes on this thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

fn assert_queries_do_not_allocate(name: &str, h: usize, sketch: &impl PointEstimate) {
    let mut acc = 0.0;
    let allocations = allocations_in(|| {
        for key in 0..200u64 {
            acc += sketch.estimate(key * 13 + 1);
        }
    });
    assert!(acc.is_finite());
    assert_eq!(allocations, 0, "{name} H={h}: {allocations} allocations over 200 point queries");
}

#[test]
fn point_queries_do_not_allocate() {
    for h in [1usize, 5, 9, 25] {
        let updates: Vec<(u64, f64)> =
            (0..300u64).map(|k| (k * 13 + 1, (k % 41 + 1) as f64)).collect();

        let mut kary = KarySketch::new(SketchConfig { h, k: 256, seed: 7 });
        let mut count = CountSketch::new(h, 256, 7);
        let mut deltoid = Deltoid::new(DeltoidConfig { h, k: 256, key_bits: 32, seed: 7 });
        for &(key, v) in &updates {
            kary.update(key, v);
            count.update(key, v);
            deltoid.update(key, v);
        }
        let slim = SlimSketch::from_fat(&kary);

        assert_queries_do_not_allocate("k-ary", h, &kary);
        assert_queries_do_not_allocate("slim", h, &slim);
        assert_queries_do_not_allocate("count sketch", h, &count);
        assert_queries_do_not_allocate("deltoid", h, &deltoid);

        // ESTIMATEF2 is the same per-row median.
        let f2_allocations = allocations_in(|| {
            let f2 = kary.estimate_f2() + slim.estimate_f2() + count.estimate_f2();
            assert!(f2.is_finite());
        });
        assert_eq!(f2_allocations, 0, "H={h}: ESTIMATEF2 allocated");
    }
}

/// The batched scan allocates nothing once its scratch and output are
/// warm — also at an `H` with no selection network and past
/// `median_over_rows`' stack buffer, where the per-key fallback reduces
/// through the scratch's own column buffer.
#[test]
fn a_warm_batched_scan_does_not_allocate_at_any_h() {
    for h in [5usize, 4, 33] {
        let mut kary = KarySketch::new(SketchConfig { h, k: 256, seed: 7 });
        let keys: Vec<u64> = (0..3_000u64).map(|k| k * 13 + 1).collect();
        for &key in &keys {
            kary.update(key, (key % 41 + 1) as f64);
        }
        let slim = SlimSketch::from_fat(&kary);
        let (mut scratch, mut out) = (EstimateScratch::new(), Vec::new());
        kary.estimate_batch(&keys, &mut scratch, &mut out);
        slim.estimate_batch(&keys, &mut scratch, &mut out);
        let allocations = allocations_in(|| {
            kary.estimate_batch(&keys, &mut scratch, &mut out);
            slim.estimate_batch(&keys, &mut scratch, &mut out);
        });
        assert_eq!(allocations, 0, "H={h}: a warm scan of {} keys allocated", keys.len());
    }
}

/// One spec per model kind, the seasonal extension included.
const MODELS: [&str; 7] = [
    "ma:3",
    "sma:4",
    "ewma:0.5",
    "nshw:0.5:0.3",
    "arima0:0.7,-0.1/0.3,0.1",
    "arima1:0.5,0.2/0.3",
    "shw:0.5:0.2:0.4:3",
];

/// Intervals before counting starts: past every model's warm-up and ring
/// fill, past the first use of each lazily sized workspace, and — on the
/// archiving path — past the archive's budget, so that every push
/// compacts.
const WARM_INTERVALS: usize = 24;

/// A detector for `model`, four observed sketches over its hash family to
/// cycle through, and the interval's key stream (with repeats).
fn turnover_rig(model: &str) -> (SketchChangeDetector, Vec<KarySketch>, Vec<u64>) {
    let detector = SketchChangeDetector::new(DetectorConfig {
        sketch: SketchConfig { h: 5, k: 2048, seed: 7 },
        model: ModelSpec::parse(model).expect("a valid model spec"),
        // No key reaches 100 × the error L2 norm: the alarm list stays
        // empty, so a report's only allocation is its `errors` vector.
        threshold: 100.0,
        key_strategy: KeyStrategy::TwoPass,
    });
    let keys: Vec<u64> = (0..900u64).map(|i| (i % 300) * 13 + 1).collect();
    let observed = (0..4u64)
        .map(|t| {
            let mut sketch = KarySketch::with_rows(std::sync::Arc::clone(detector.rows()));
            for &key in &keys {
                sketch.update(key, ((key + 7 * t) % 41 + 1) as f64);
            }
            sketch
        })
        .collect();
    (detector, observed, keys)
}

/// A warm turnover allocates its report's `errors` vector and nothing
/// else — no forecast table, no error table, no scratch — for every model.
#[test]
fn a_warm_turnover_allocates_only_its_report() {
    for model in MODELS {
        let (mut detector, observed, keys) = turnover_rig(model);
        for t in 0..WARM_INTERVALS + 8 {
            let stream = keys.clone();
            let mut report = None;
            let allocations = allocations_in(|| {
                report = Some(detector.process_observed(&observed[t % 4], stream));
            });
            let report = report.expect("the closure ran");
            if t >= WARM_INTERVALS {
                assert!(report.warmed_up && report.alarms.is_empty() && report.errors.len() == 300);
                assert_eq!(allocations, 1, "{model}, interval {t}: beyond the report's errors");
            }
        }
    }
}

/// With a bar low enough to alarm, a warm turnover allocates `errors` and
/// `alarms` and nothing else: the alarms are selected straight into a
/// vector of their final size and ranked in place — no intermediate list,
/// no growth, no sorted copy of `errors`.
#[test]
fn a_warm_alarming_turnover_allocates_only_its_two_lists() {
    for model in MODELS {
        let (rig, observed, keys) = turnover_rig(model);
        let mut detector =
            SketchChangeDetector::new(DetectorConfig { threshold: 0.02, ..rig.config().clone() });
        for t in 0..WARM_INTERVALS + 8 {
            let stream = keys.clone();
            let mut report = None;
            let allocations = allocations_in(|| {
                report = Some(detector.process_observed(&observed[t % 4], stream));
            });
            let report = report.expect("the closure ran");
            if t >= WARM_INTERVALS {
                assert!(report.warmed_up && report.errors.len() == 300);
                assert!(report.alarms.len() > 8, "{model}: {} alarms", report.alarms.len());
                assert_eq!(allocations, 2, "{model}, interval {t}: beyond errors and alarms");
            }
        }
    }
}

/// The archiving path hands every error sketch to the archive, so it
/// cannot keep one; it is given the table the archive's compaction
/// retired instead. Once the archive is at its budget that is one table
/// in, one table out per interval, and the whole close — turnover and
/// push — allocates the report's `errors` vector and nothing else.
#[test]
fn a_warm_archiving_turnover_reuses_the_table_the_archive_retired() {
    for model in MODELS {
        let (mut detector, observed, keys) = turnover_rig(model);
        // No key directory: `push` then has nothing of its own to allocate.
        let mut archive = SketchArchive::<KarySketch>::new(ArchiveConfig {
            max_sketches: 6,
            full_resolution: 2,
            keys_per_epoch: 0,
        })
        .expect("a valid archive shape");
        for t in 0..WARM_INTERVALS + 8 {
            let stream = keys.clone();
            let mut report = None;
            let allocations = allocations_in(|| {
                if let Some(retired) = archive.take_retired() {
                    detector.recycle_error_buffer(retired);
                }
                let (r, error) = detector.process_observed_archiving(&observed[t % 4], stream);
                if let Some((_, error)) = error {
                    archive.push(error, &[]).expect("one hash family");
                }
                report = Some(r);
            });
            let report = report.expect("the closure ran");
            if t >= WARM_INTERVALS {
                assert!(report.warmed_up && report.errors.len() == 300);
                assert_eq!(archive.sketch_count(), 6, "{model}: the archive is at its budget");
                assert_eq!(allocations, 1, "{model}, interval {t}: beyond the report's errors");
            }
        }
    }
}

/// Watching the pipeline costs no heap. The same turnover through the
/// real detect stage with every pipeline metric registered, each interval
/// followed by the JSONL snapshot a `--metrics` run renders: the metric
/// handles are fixed-size atomics and the snapshot goes into a reused
/// buffer, so the close still allocates the report's `errors` vector and
/// nothing else.
#[test]
fn a_warm_instrumented_turnover_allocates_only_its_report() {
    for model in MODELS {
        let (detector, observed, keys) = turnover_rig(model);
        let registry = Registry::new();
        let metrics = PipelineMetrics::register(&registry);
        let config = EngineConfig::new(detector.config().clone(), 1).with_metrics(metrics);
        let (mut stage, _) = DetectStage::from_config(&config).expect("no archive to reject");
        // Span sums are wall-clock nanoseconds, so a snapshot's length
        // varies by a few digits from run to run: room for several.
        let mut line = String::with_capacity(64 * 1024);
        for t in 0..WARM_INTERVALS + 8 {
            let mut report = None;
            let allocations = allocations_in(|| {
                report = Some(stage.observe(&observed[t % 4], &keys).expect("unsupervised"));
                line.clear();
                registry.render_jsonl(t as u64, &mut line);
            });
            let report = report.expect("the closure ran");
            assert!(line.len() < line.capacity() / 4, "{} bytes of snapshot", line.len());
            if t >= WARM_INTERVALS {
                assert!(report.warmed_up && report.alarms.is_empty() && report.errors.len() == 300);
                assert!(line.contains(&format!("\"scd_engine_intervals_total\":{}", t + 1)));
                assert_eq!(allocations, 1, "{model}, interval {t}: beyond the report's errors");
            }
        }
    }
}

/// The sparse close allocates nothing on the closing thread beyond what
/// any turnover does. A warm inline engine at `K = 65 536` — 300 keys an
/// interval, so every shard table stays sparse — closes with its report's
/// `errors` vector as the one allocation: barrier, shard merge and clear
/// included, at one shard (the table swap) and at two (the line walk). The
/// merge counter shows every measured close walked.
///
/// A thread's first wait on a `std::sync::mpsc` queue allocates the queue's
/// waiter entry, once. So the warm-up starts with one interval per shard
/// that buries that shard alone in records: the close then waits on each
/// worker's result queue at least once before anything is counted.
#[test]
fn a_warm_sparse_close_allocates_only_its_report() {
    for shards in [1usize, 2] {
        let metrics = PipelineMetrics::register(&Registry::new());
        let detector = DetectorConfig {
            sketch: SketchConfig { h: 5, k: 65_536, seed: 7 },
            model: ModelSpec::parse("ewma:0.5").expect("a valid model spec"),
            threshold: 100.0,
            key_strategy: KeyStrategy::TwoPass,
        };
        let config = EngineConfig::new(detector, shards).with_metrics(metrics.clone());
        let mut engine = ShardedEngine::new(config).expect("a valid engine");
        let keys: Vec<u64> = (0..900u64).map(|i| (i % 300) * 13 + 1).collect();
        let mut walked_before = 0;
        for t in 0..WARM_INTERVALS + 8 {
            let mut items: Vec<(u64, f64)> =
                keys.iter().map(|&key| (key, ((key + 7 * t as u64) % 41 + 1) as f64)).collect();
            if t < shards {
                let buried = (1u64 << 40..).filter(|&key| shard_of(key, shards) == t);
                items.extend(buried.take(200_000).map(|key| (key, 1.0)));
            }
            engine.push_slice(&items).expect("workers alive");
            if t == WARM_INTERVALS {
                walked_before = metrics.engine.sparse_merges_total.get();
            }
            let mut report = None;
            let allocations = allocations_in(|| {
                report = Some(engine.end_interval().expect("workers alive"));
            });
            let report = report.expect("the closure ran");
            if t >= WARM_INTERVALS {
                assert!(report.warmed_up && report.alarms.is_empty() && report.errors.len() == 300);
                assert_eq!(
                    allocations, 1,
                    "{shards} shards, interval {t}: beyond the report's errors"
                );
            }
        }
        let walked = metrics.engine.sparse_merges_total.get() - walked_before;
        assert_eq!(walked, 8, "{shards} shards: line walks");
    }
}

/// A warm push allocates nothing on the pushing thread. Every routing
/// producer keeps its combining cache and batches across calls and
/// intervals, and the key log (the cache misses) trades places with the
/// log the last close scanned instead of regrowing every interval. At two
/// shards the batches that leave for the workers are replaced from the
/// recycle pool, which the warm-up's burst interval fills.
#[test]
fn a_warm_push_allocates_nothing() {
    for shards in [1usize, 2] {
        let detector = DetectorConfig {
            sketch: SketchConfig { h: 5, k: 4096, seed: 7 },
            model: ModelSpec::parse("ewma:0.5").expect("a valid model spec"),
            threshold: 100.0,
            key_strategy: KeyStrategy::TwoPass,
        };
        let mut engine =
            ShardedEngine::new(EngineConfig::new(detector, shards)).expect("an engine");
        // 5 000 records over 1 500 keys: enough that keys collide in the
        // cache and every shard ships batches mid-interval.
        let interval = |t: u64| -> Vec<(u64, f64)> {
            (0..5_000u64).map(|i| ((i * i + t) % 1_500 * 13 + 1, (i % 41 + 1) as f64)).collect()
        };
        for t in 0..WARM_INTERVALS as u64 + 8 {
            let mut items = interval(t);
            if t == 0 {
                items.extend((1u64 << 40..).take(200_000).map(|key| (key, 1.0)));
            }
            let allocations = allocations_in(|| {
                for slice in items.chunks(700) {
                    engine.push_slice(slice).expect("workers alive");
                }
            });
            engine.end_interval().expect("workers alive");
            if t >= WARM_INTERVALS as u64 {
                assert_eq!(
                    allocations, 0,
                    "{shards} shard(s), interval {t}: a warm push allocated"
                );
            }
        }
    }
}
