//! The **k-ary sketch** of *Sketch-based Change Detection: Methods,
//! Evaluation, and Applications* (Krishnamurthy, Sen, Zhang & Chen, IMC
//! 2003), together with the count-min and count sketches it is usually
//! compared against.
//!
//! A k-ary sketch summarizes a stream of `(key, update)` pairs in the
//! Turnstile model: each arrival `(a, u)` adds `u` to a time-varying signal
//! `A[a]`, and the sketch answers, in constant space and constant time,
//!
//! * [`KarySketch::update`] — fold one arrival into the summary,
//! * [`KarySketch::estimate`] — an unbiased estimate of `A[a]` for any key,
//! * [`KarySketch::estimate_f2`] — an unbiased estimate of the second
//!   moment `F2 = Σ_a A[a]²` (whose square root is the stream's L2 norm),
//! * [`KarySketch::combine`] — any linear combination `Σ c_i · S_i` of
//!   sketches built over the same hash rows.
//!
//! Linearity is the property the change-detection pipeline exploits: every
//! forecast model in the paper (moving average, EWMA, Holt-Winters, ARIMA)
//! is a linear function of past observations, so the *forecast sketch* and
//! the *forecast-error sketch* can be computed directly in sketch space.
//!
//! # Accuracy guarantees (paper Appendix A & B)
//!
//! With `H` rows of `K` buckets and 4-universal row hashes, each per-row
//! estimate is unbiased with variance at most `F2 / (K-1)`; taking the
//! median across rows drives the probability of an extreme estimate down
//! exponentially in `H` (Chernoff). The statistical tests in
//! `tests/statistical.rs` verify both facts empirically.
//!
//! # Example
//!
//! ```
//! use scd_sketch::{KarySketch, SketchConfig};
//!
//! let cfg = SketchConfig { h: 5, k: 1024, seed: 7 };
//! let mut observed = KarySketch::new(cfg);
//! let mut forecast = KarySketch::new(cfg);
//!
//! // Interval t: flow 10.0.0.1 sends 9_000 bytes; the forecast said 1_000.
//! observed.update(0x0A00_0001, 9_000.0);
//! forecast.update(0x0A00_0001, 1_000.0);
//!
//! // Error sketch Se = So - Sf, formed entirely in sketch space.
//! let error = observed.combine(&[(1.0, &observed), (-1.0, &forecast)]).unwrap();
//! let e = error.estimate(0x0A00_0001);
//! assert!((e - 8_000.0).abs() < 1.0);
//! ```

#![deny(unsafe_code)] // relaxed from `forbid` only for the vetted `simd` module
#![warn(missing_docs)]

pub mod batch;
pub mod cells;
pub mod countmin;
pub mod countsketch;
pub mod deltoid;
pub mod error;
pub mod heavyhitters;
pub mod kary;
pub mod linear;
pub mod median;
pub mod simd;
pub mod wire;

pub use batch::{BatchScratch, EstimateScratch};
pub use cells::{Cell, CellTable};
pub use countmin::CountMinSketch;
pub use countsketch::CountSketch;
pub use deltoid::{Deltoid, DeltoidConfig};
pub use error::SketchError;
pub use heavyhitters::MisraGries;
pub use kary::{estimate_cells, estimate_f2_cells, Estimator, KarySketch, SketchConfig};
pub use linear::{median_over_rows, min_over_rows, LinearSketch, PointEstimate, SecondMoment};
pub use wire::{from_bytes, to_bytes, WireError};
