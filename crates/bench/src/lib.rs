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

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod experiments;
pub mod runner;
pub mod table;
