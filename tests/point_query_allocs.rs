//! A point query is `H` cell reads and a median: it has no business on
//! the heap. `median_over_rows` once collected its per-row values into a
//! fresh `Vec` on every call, so every `estimate` on every
//! median-estimator sketch allocated; this suite counts allocations on
//! the querying thread and holds them at zero for the paper's `H`.

use sketch_change::serve::SlimSketch;
use sketch_change::sketch::{
    CountSketch, Deltoid, DeltoidConfig, EstimateScratch, KarySketch, PointEstimate, SketchConfig,
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
