//! Experiment driver: regenerates the paper's tables and figures.
//!
//! ```sh
//! cargo run --release -p scd-bench --bin experiments -- <name> [flags]
//! cargo run --release -p scd-bench --bin experiments -- all
//! ```
//!
//! Common flags: `--scale <x>` (traffic volume multiplier), `--seed <n>`,
//! `--hours <h>` (trace length). Per-experiment flags are documented in the
//! experiment modules (`--random-points`, `--paper-search`, `--router`,
//! `--all-routers`, `--trials`, `--reps`). A flag that no experiment of
//! the run read fails the process once the run has ended (exit 2).

use scd_bench::args::Args;
use scd_bench::experiments;

fn usage() -> ! {
    eprintln!("usage: experiments <name> [--scale X] [--seed N] [--hours H] [...]\n");
    eprintln!("experiments:");
    for (name, desc, _) in experiments::registry() {
        eprintln!("  {name:<12} {desc}");
    }
    eprintln!("  {:<12} run every experiment in sequence", "all");
    std::process::exit(2);
}

fn main() {
    let args = Args::from_env();
    let Some(name) = args.positional.first() else {
        usage();
    };
    let started = std::time::Instant::now();
    if name == "all" {
        experiments::run_all(&args);
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
}
