//! Interval-turnover cost: the per-interval detection epilogue — forecast,
//! error sketch, `ESTIMATEF2`, per-key error estimates, model advance —
//! measured on the **cloning** path the detector used before the fused
//! kernels landed, against the **fused zero-allocation** path it runs now.
//!
//! Two groups:
//!
//! * `turnover/*` — per-interval latency of the paths on identical
//!   inputs (same model, same observed sketches, same candidate keys).
//!   All are bit-identical in output; the fused path just reuses every
//!   buffer (error sketch, estimate scratch), takes the step the detector
//!   takes (`Forecaster::step_error_into`, the cache-blocked one) and
//!   batches the per-key scan. `fused_telemetry` is the fused path with
//!   the full per-interval telemetry the engine records around its
//!   detect stage — span timing, counters, gauges, *and* a JSONL
//!   snapshot render into a recycled buffer — pinning the observability
//!   layer's ≤5% overhead contract where it can be watched.
//! * allocations per interval — counted by a wrapping global allocator
//!   over a fixed steady-state window, per model, for the fused path
//!   both bare and with telemetry attached. Both must be **zero** for
//!   every model once warm; the cloning path shows what each turnover
//!   used to pay. Counts are printed and, when `SCD_BENCH_JSON` is set,
//!   written to a sibling `*_allocs.json` file (the harness's JSON
//!   schema only carries timings).
//!
//! Run with `SCD_BENCH_JSON=BENCH_turnover.json cargo bench --bench
//! turnover`; `SCD_BENCH_SMOKE=1` shrinks the sketch and sample counts
//! for the CI gate, which asserts fused ≥ 2× faster than cloning,
//! telemetry-on fused still ≥ 2× faster than cloning, and exactly zero
//! fused steady-state allocations with or without telemetry.

use scd_bench::microbench::Criterion;
use scd_bench::{criterion_group, criterion_main};
use scd_forecast::{ArimaSpec, Forecaster, ModelSpec};
use scd_hash::{MixBuildHasher, SplitMix64};
use scd_sketch::{BatchScratch, EstimateScratch, KarySketch, SketchConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Counts every heap allocation (alloc, alloc_zeroed, realloc) so the
/// bench can assert the fused turnover path's steady state performs none.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure delegation to `System`; the counter is a relaxed atomic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Candidate keys scored per interval. The paper's detection pass scores
/// every distinct key of the interval, so the key scan — not the sketch
/// walk — dominates realistic turnovers.
const N_KEYS_SCORED: usize = 2_048;
/// Distinct observed sketches cycled through so the model state keeps
/// moving instead of converging onto one fixed point.
const RING: usize = 6;

fn smoke() -> bool {
    std::env::var_os("SCD_BENCH_SMOKE").is_some()
}

fn sketch_config() -> SketchConfig {
    SketchConfig { h: 5, k: if smoke() { 1 << 11 } else { 1 << 13 }, seed: 0x7EAE }
}

fn samples() -> usize {
    if smoke() {
        7
    } else {
        9
    }
}

/// The paper's five models plus the seasonal extension — the fused path
/// must hold the zero-allocation invariant for all of them.
fn all_models() -> Vec<(&'static str, ModelSpec)> {
    vec![
        ("ma", ModelSpec::Ma { window: 3 }),
        ("sma", ModelSpec::Sma { window: 4 }),
        ("ewma", ModelSpec::Ewma { alpha: 0.5 }),
        ("nshw", ModelSpec::Nshw { alpha: 0.5, beta: 0.3 }),
        ("arima", ModelSpec::Arima(ArimaSpec::new(1, &[0.6], &[0.3]).unwrap())),
        ("shw", ModelSpec::Shw { alpha: 0.5, beta: 0.2, gamma: 0.4, period: 3 }),
    ]
}

/// A ring of per-interval observed sketches over a stable key population,
/// plus the arrival-order key log the detection pass receives — with
/// duplicates, exactly as ingest records it (20k arrivals over ~2k keys).
fn observed_ring() -> (Vec<KarySketch>, Vec<u64>) {
    let mut rng = SplitMix64::new(0x07EA_E0B5);
    let keys: Vec<u64> = (0..N_KEYS_SCORED as u64).map(|k| k * 7 + 1).collect();
    let mut scratch = BatchScratch::new();
    let mut key_log = Vec::new();
    let ring: Vec<KarySketch> = (0..RING)
        .map(|t| {
            let mut sketch = KarySketch::new(sketch_config());
            let items: Vec<(u64, f64)> = (0..20_000)
                .map(|_| {
                    let key = keys[rng.next_below(N_KEYS_SCORED as u64) as usize];
                    (key, (rng.next_below(1_000) + 1 + 50 * t as u64) as f64)
                })
                .collect();
            if t == 0 {
                key_log = items.iter().map(|&(k, _)| k).collect();
            }
            sketch.update_batch(&items, &mut scratch);
            sketch
        })
        .collect();
    (ring, key_log)
}

type Model = Box<dyn Forecaster<KarySketch> + Send>;

/// Advances the model past warm-up so every turnover below runs the
/// steady-state path.
fn warm(model: &mut Model, ring: &[KarySketch]) {
    for t in 0..model.warm_up().max(1) + RING {
        model.observe(&ring[t % RING]);
    }
}

/// The turnover as the detector ran it before this optimization
/// (`model.step` + `dedup_keys` + scalar key scan): clone a forecast out
/// of the model, clone the observed sketch into the error, dedup the key
/// log through a freshly allocated hash set, then walk the distinct keys
/// one scalar ESTIMATE at a time into a fresh score vector.
fn cloning_turnover(model: &mut Model, observed: &KarySketch, key_log: &[u64]) -> f64 {
    let (_forecast, error) = model.step(observed).expect("model warmed past warm_up");
    let mut seen: HashSet<u64, MixBuildHasher> = HashSet::with_hasher(MixBuildHasher);
    let keys: Vec<u64> = key_log.iter().copied().filter(|k| seen.insert(*k)).collect();
    let f2 = error.estimate_f2();
    let estimator = error.estimator();
    let scored: Vec<(u64, f64)> = keys.iter().map(|&k| (k, estimator.estimate(k))).collect();
    std::hint::black_box(scored);
    f2
}

/// Recycled workspaces for the fused path — the bench-level mirror of the
/// detector's persistent turnover state.
struct FusedState {
    error: KarySketch,
    scratch: EstimateScratch,
    seen: HashSet<u64, MixBuildHasher>,
    keys: Vec<u64>,
    estimates: Vec<f64>,
}

impl FusedState {
    fn new() -> Self {
        FusedState {
            error: KarySketch::new(sketch_config()),
            scratch: EstimateScratch::new(),
            seen: HashSet::with_hasher(MixBuildHasher),
            keys: Vec::new(),
            estimates: Vec::new(),
        }
    }
}

/// The fused path, mirroring the detector's recycled turnover: the
/// model's own error-only step (the entry `SketchChangeDetector::turnover`
/// calls) into a reused error sketch, its F2, dedup in place against a
/// persistent (cleared, not freed) hash set, batched key estimates into a
/// reused vector. Bit-identical outputs, zero steady-state allocations.
fn fused_turnover(
    model: &mut Model,
    observed: &KarySketch,
    key_log: &[u64],
    st: &mut FusedState,
) -> f64 {
    assert!(model.step_error_into(observed, &mut st.error), "model warmed past warm_up");
    let f2 = st.error.estimate_f2();
    st.keys.clear();
    st.keys.extend_from_slice(key_log);
    st.seen.clear();
    let seen = &mut st.seen;
    st.keys.retain(|k| seen.insert(*k));
    st.error.estimate_batch(&st.keys, &mut st.scratch, &mut st.estimates);
    std::hint::black_box(&st.estimates);
    f2
}

/// The per-interval telemetry the engine hangs on its detect stage,
/// rebuilt at bench scope: the same registry/metric structures, the same
/// recording calls, plus the JSONL snapshot a `--metrics` run renders
/// each interval. Everything here is fixed-size and recycled, so the
/// instrumented turnover must stay at zero steady-state allocations.
struct TelemetryState {
    registry: scd_obs::Registry,
    detect_ns: std::sync::Arc<scd_obs::Histogram>,
    intervals: std::sync::Arc<scd_obs::Counter>,
    keys_scanned: std::sync::Arc<scd_obs::Counter>,
    error_f2: std::sync::Arc<scd_obs::Gauge>,
    line: String,
    interval: u64,
}

impl TelemetryState {
    fn new() -> Self {
        let registry = scd_obs::Registry::new();
        let detect_ns = registry.histogram("scd_engine_detect_ns", "detect turnover (ns)");
        let intervals = registry.counter("scd_detector_intervals_total", "intervals scanned");
        let keys_scanned = registry.counter("scd_detector_keys_scanned_total", "keys scored");
        let error_f2 = registry.gauge("scd_detector_error_f2", "latest error F2");
        TelemetryState {
            registry,
            detect_ns,
            intervals,
            keys_scanned,
            error_f2,
            line: String::new(),
            interval: 0,
        }
    }
}

/// The fused turnover with the engine's detect-stage telemetry around
/// it: a span on the stage histogram, the detector counters and gauges,
/// and one JSONL snapshot into the recycled line buffer.
fn fused_telemetry_turnover(
    model: &mut Model,
    observed: &KarySketch,
    key_log: &[u64],
    st: &mut FusedState,
    tel: &mut TelemetryState,
) -> f64 {
    let span = tel.detect_ns.span();
    let f2 = fused_turnover(model, observed, key_log, st);
    drop(span);
    tel.intervals.inc();
    tel.keys_scanned.add(st.keys.len() as u64);
    tel.error_f2.set(f2);
    tel.line.clear();
    tel.registry.render_jsonl(tel.interval, &mut tel.line);
    std::hint::black_box(tel.line.len());
    tel.interval += 1;
    f2
}

fn bench_turnover_latency(c: &mut Criterion) {
    let (ring, keys) = observed_ring();
    let mut group = c.benchmark_group("turnover");
    group.sample_size(samples());

    group.bench_function("cloning", |b| {
        let mut model: Model = ModelSpec::Ewma { alpha: 0.5 }.build();
        warm(&mut model, &ring);
        let mut t = 0usize;
        b.iter_custom(|iters| {
            let start = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(cloning_turnover(&mut model, &ring[t % RING], &keys));
                t += 1;
            }
            start.elapsed()
        })
    });

    group.bench_function("fused", |b| {
        let mut model: Model = ModelSpec::Ewma { alpha: 0.5 }.build();
        warm(&mut model, &ring);
        let mut st = FusedState::new();
        let mut t = 0usize;
        b.iter_custom(|iters| {
            let start = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(fused_turnover(&mut model, &ring[t % RING], &keys, &mut st));
                t += 1;
            }
            start.elapsed()
        })
    });

    group.bench_function("fused_telemetry", |b| {
        let mut model: Model = ModelSpec::Ewma { alpha: 0.5 }.build();
        warm(&mut model, &ring);
        let mut st = FusedState::new();
        let mut tel = TelemetryState::new();
        let mut t = 0usize;
        b.iter_custom(|iters| {
            let start = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(fused_telemetry_turnover(
                    &mut model,
                    &ring[t % RING],
                    &keys,
                    &mut st,
                    &mut tel,
                ));
                t += 1;
            }
            start.elapsed()
        })
    });
    group.finish();
}

/// Exact allocation counts over a fixed steady-state window; no sampling
/// needed — the counts are deterministic.
fn count_allocs(mut turnover: impl FnMut(usize)) -> u64 {
    const WINDOW: usize = 64;
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for t in 0..WINDOW {
        turnover(t);
    }
    (ALLOCATIONS.load(Ordering::Relaxed) - before) / WINDOW as u64
}

fn measure_allocations() {
    let (ring, keys) = observed_ring();
    let mut lines: Vec<String> = Vec::new();

    println!("\nturnover_allocs (heap allocations per interval, steady state)");
    let mut model: Model = ModelSpec::Ewma { alpha: 0.5 }.build();
    warm(&mut model, &ring);
    let cloning = count_allocs(|t| {
        std::hint::black_box(cloning_turnover(&mut model, &ring[t % RING], &keys));
    });
    println!("  {:<14} {cloning:>10} allocs/interval", "cloning/ewma");
    lines.push(format!(
        "    {{\"path\": \"cloning\", \"model\": \"ewma\", \"allocs_per_interval\": {cloning}}}"
    ));

    for (name, spec) in all_models() {
        let mut model: Model = spec.build();
        warm(&mut model, &ring);
        let mut st = FusedState::new();
        // One extra lap so every lazily-grown workspace (estimate scratch,
        // the models' tile buffers) reaches capacity.
        for t in 0..RING {
            fused_turnover(&mut model, &ring[t % RING], &keys, &mut st);
        }
        let fused = count_allocs(|t| {
            std::hint::black_box(fused_turnover(&mut model, &ring[t % RING], &keys, &mut st));
        });
        println!("  {:<14} {fused:>10} allocs/interval", format!("fused/{name}"));
        lines.push(format!(
            "    {{\"path\": \"fused\", \"model\": \"{name}\", \"allocs_per_interval\": {fused}}}"
        ));
        assert_eq!(fused, 0, "fused turnover allocated on the {name} steady state");
    }

    // Telemetry attached: same zero-allocation invariant — the metric
    // structures are fixed-size atomics and the snapshot renders into a
    // recycled buffer, so watching the pipeline must cost no heap.
    for (name, spec) in all_models() {
        let mut model: Model = spec.build();
        warm(&mut model, &ring);
        let mut st = FusedState::new();
        let mut tel = TelemetryState::new();
        for t in 0..RING {
            fused_telemetry_turnover(&mut model, &ring[t % RING], &keys, &mut st, &mut tel);
        }
        let telemetry = count_allocs(|t| {
            std::hint::black_box(fused_telemetry_turnover(
                &mut model,
                &ring[t % RING],
                &keys,
                &mut st,
                &mut tel,
            ));
        });
        println!("  {:<22} {telemetry:>10} allocs/interval", format!("fused_telemetry/{name}"));
        lines.push(format!(
            "    {{\"path\": \"fused_telemetry\", \"model\": \"{name}\", \
             \"allocs_per_interval\": {telemetry}}}"
        ));
        assert_eq!(telemetry, 0, "telemetry added allocations on the {name} steady state");
    }

    // The harness's JSON schema only carries timings; allocation counts go
    // to a sibling file next to the requested report.
    if let Some(path) = std::env::var_os("SCD_BENCH_JSON") {
        let path = std::path::PathBuf::from(path);
        let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("BENCH_turnover");
        let alloc_path = path.with_file_name(format!("{stem}_allocs.json"));
        let body = format!(
            "{{\n  \"harness\": \"scd-bench turnover allocs\",\n  \"results\": [\n{}\n  ]\n}}\n",
            lines.join(",\n")
        );
        match std::fs::write(&alloc_path, body) {
            Ok(()) => println!("\nwrote allocation counts to {}", alloc_path.display()),
            Err(e) => eprintln!("turnover: cannot write {}: {e}", alloc_path.display()),
        }
    }
}

fn bench_turnover_allocs(_c: &mut Criterion) {
    measure_allocations();
}

criterion_group!(benches, bench_turnover_latency, bench_turnover_allocs);
criterion_main!(benches);
