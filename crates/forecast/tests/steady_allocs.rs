//! Once its history is full, a model steps without touching the heap, in
//! every form of the step: `observe`, `step_into` and `step_error_into`.
//! The window models (MA, SMA) included at windows past one summing
//! block's slot pairs: their per-slot weights are derived from the spec
//! once, when the model is built or restored, never per step.

use scd_forecast::{Forecaster, ModelSpec};
use scd_sketch::{KarySketch, SketchConfig};
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
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// Every model kind, every ARIMA differencing, windows up to 14.
const MODELS: [&str; 10] = [
    "ma:3",
    "ma:13",
    "sma:4",
    "sma:14",
    "ewma:0.5",
    "nshw:0.5:0.3",
    "arima0:0.7,-0.1/0.3,0.1",
    "arima1:0.5,0.2/0.3",
    "arima1:/",
    "shw:0.5:0.2:0.4:3",
];

/// Past every model's warm-up and ring fill above.
const WARM: usize = 16;

fn check(model: &mut Forecaster<KarySketch>, proto: &KarySketch, what: &str) {
    let observed: Vec<KarySketch> = (0..3)
        .map(|t| {
            let mut s = proto.zero_like();
            for key in 0..200u64 {
                s.update(key * 31 + t, (key % 17) as f64 + t as f64);
            }
            s
        })
        .collect();
    for t in 0..WARM {
        model.observe(&observed[t % 3]);
    }
    let (mut forecast, mut error) = (proto.zero_like(), proto.zero_like());
    for t in 0..9 {
        let o = &observed[t % 3];
        let allocations = allocations_in(|| match t % 3 {
            0 => model.observe(o),
            1 => assert!(model.step_into(o, &mut forecast, &mut error)),
            _ => assert!(model.step_error_into(o, &mut error)),
        });
        assert_eq!(allocations, 0, "{what}: warm step {t}");
    }
}

#[test]
fn a_warm_step_allocates_nothing_in_any_form() {
    let proto = KarySketch::new(SketchConfig { h: 3, k: 512, seed: 5 });
    for text in MODELS {
        let spec = ModelSpec::parse(text).unwrap();
        let mut built: Forecaster<KarySketch> = spec.build();
        check(&mut built, &proto, text);
        let mut restored = spec.restore(built.state().clone()).expect("restore");
        check(&mut restored, &proto, &format!("{text}, restored"));
    }
}
