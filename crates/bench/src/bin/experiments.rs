//! Experiment driver: regenerates the paper's tables and figures.
//!
//! ```sh
//! cargo run --release -p scd-bench --bin experiments -- <name> [flags]
//! cargo run --release -p scd-bench --bin experiments -- all
//! cargo run --release -p scd-bench --bin experiments -- check
//! ```
//!
//! `check` runs the accuracy ledger (`ACCURACY.json`, or `--ledger
//! <path>`) at its reduced, seeded size and exits 1 if a row breaches its
//! floor or ceiling.
//!
//! Common flags: `--scale <x>` (traffic volume multiplier), `--seed <n>`,
//! `--hours <h>` (trace length). Per-experiment flags are documented in the
//! experiment modules (`--random-points`, `--paper-search`, `--router`,
//! `--all-routers`, `--trials`, `--reps`). A flag that no experiment of
//! the run read fails the process once the run has ended (exit 2).

use scd_bench::args::Args;
use scd_bench::{accuracy, experiments};

fn usage() -> ! {
    eprintln!("usage: experiments <name> [--scale X] [--seed N] [--hours H] [...]\n");
    eprintln!("experiments:");
    for (name, desc, _) in experiments::registry() {
        eprintln!("  {name:<12} {desc}");
    }
    eprintln!("  {:<12} run every experiment in sequence", "all");
    eprintln!("  {:<12} hold the accuracy ledger (ACCURACY.json) to its bounds", "check");
    std::process::exit(2);
}

fn main() {
    let args = Args::from_env();
    let Some(name) = args.positional.first() else {
        usage();
    };
    let started = std::time::Instant::now();
    let mut held = true;
    if name == "all" {
        experiments::run_all(&args);
    } else if name == "check" {
        held = accuracy::check(&args);
    } else {
        match experiments::registry().into_iter().find(|(n, _, _)| n == name) {
            Some((_, _, f)) => f(&args),
            None => {
                eprintln!("unknown experiment '{name}'\n");
                usage();
            }
        }
    }
    eprintln!("\n[{name} finished in {:.1}s]", started.elapsed().as_secs_f64());
    if let Err(unread) = args.done(name) {
        eprintln!("{unread}");
        std::process::exit(2);
    }
    if !held {
        eprintln!("check: a ledger row breached its bound");
        std::process::exit(1);
    }
}
