//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (§5). See `DESIGN.md` for the experiment ↔ figure index and
//! `EXPERIMENTS.md` for recorded results.
//!
//! The harness is organized around one reusable comparison runner
//! ([`runner`]): generate a deterministic synthetic trace for a router
//! profile, run exact per-flow detection once, run sketch detection for
//! each `(H, K)` of interest, and hand the per-interval error lists to the
//! metric being plotted. Experiment modules under [`experiments`] each
//! regenerate one figure or table and print the same rows/series the paper
//! reports (plus CSV under `results/`).
//!
//! What the experiments evaluate the k-ary sketch *against* lives here
//! too, outside the product: the paper's baseline summaries
//! ([`baselines`]), the exact per-flow oracle ([`perflow`]), the §5
//! metrics ([`metrics`]) and the §5.1.1 random comparator ([`random`]).
//! The accuracy ledger ([`accuracy`], `ACCURACY.json`) holds the paper's
//! claims to recorded floors and ceilings (`experiments check`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accuracy;
pub mod args;
pub mod baselines;
pub mod experiments;
// The benchmark's JSON reader, shared rather than copied: this crate
// reads `ACCURACY.json` with it and uses none of its writer.
#[path = "../../../benchmark/src/json.rs"]
#[allow(dead_code, missing_docs)]
mod json;
pub mod metrics;
pub mod perflow;
pub mod random;
pub mod runner;
pub mod table;

pub use baselines::{BatchScratch, CountMinSketch, CountSketch, MisraGries};
pub use perflow::{PerFlowDetector, PerFlowReport};
pub use random::random_spec;
