//! Loading an `SCDARCH1` dump holds dense only the table being decoded:
//! each epoch but the newest is packed as soon as its blob is read. The
//! file spells every epoch out dense, so a decoder that packed only once
//! every blob was in would hold the whole history dense for a moment — 64
//! tables for the 64-epoch dumps `scd query` reads.
//!
//! One test in its own binary, so the counting allocator below sees no
//! other test's allocations.

use scd_archive::{wire, ArchiveConfig, SketchArchive};
use scd_hash::SplitMix64;
use scd_sketch::{KarySketch, SketchConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Live heap bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(size: usize) {
    let live = LIVE.fetch_add(size, Relaxed) + size;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`; the only added
// behaviour is arithmetic on two atomics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Counted as a fresh block beside the old one, as a moving
        // reallocation holds both.
        grew(new_size);
        LIVE.fetch_sub(layout.size(), Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

#[test]
fn a_sparse_dump_loads_within_its_packed_bytes_plus_three_dense_tables() {
    const EPOCHS: usize = 64;
    // K as in the benchmark's dumps; one row keeps the file at 32 MiB.
    let sketch = SketchConfig { h: 1, k: 65_536, seed: 3 };
    let config = ArchiveConfig { max_sketches: EPOCHS, full_resolution: 4, keys_per_epoch: 8 };
    let mut archive = SketchArchive::new(config).unwrap();
    let mut rng = SplitMix64::new(5);
    for _ in 0..EPOCHS {
        let mut s = KarySketch::new(sketch);
        for _ in 0..500 {
            s.update(rng.next_u64(), 1.0 + rng.next_below(100) as f64);
        }
        archive.push(s, &[]).unwrap();
    }
    assert_eq!(archive.sketch_count(), EPOCHS);
    let bytes = wire::to_bytes(&archive);
    let dense = sketch.h * sketch.k * std::mem::size_of::<f64>();

    // `archive` stays alive, so the decoder finds its hash family in the
    // registry instead of building one.
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let loaded = wire::from_bytes(&bytes).expect("a pristine dump decodes");
    let peak = PEAK.load(Relaxed) - before;

    assert_eq!(loaded.epochs().filter(|e| e.packed().is_some()).count(), EPOCHS - 1);
    let bound = loaded.memory_bytes() + 3 * dense;
    assert!(
        peak <= bound,
        "loading peaked {peak} B above the input, over {bound} B: the packed history \
         ({} B) plus three {dense}-B dense tables",
        loaded.memory_bytes()
    );
    assert_eq!(wire::to_bytes(&loaded), bytes, "the load keeps every bit");
}
