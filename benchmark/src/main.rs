//! `scd-benchmark`: the interval-ledger benchmark. Six workloads drive the
//! call sequences of `scd detect`, `scd serve` and `scd ingest-node` /
//! `scd aggregate` in-process, each in a fresh child process of this
//! binary; see `README.md` beside this package.
//!
//! ```text
//! scd-benchmark --workload NAME [--seed N] [--seconds S] [--trace [0|1]] [--smoke] [--out FILE]
//! scd-benchmark --all           [--seed N] [--seconds S] [--trace]       [--smoke] [--out FILE]
//! scd-benchmark compare A.jsonl B.jsonl
//! scd-benchmark spec
//! ```

mod common;
mod compare;
mod fanin;
mod gen;
mod json;
mod probes;
mod replay;
mod serve;
mod span;
mod spec;
mod stats;

use common::{BoxResult, ChildArgs, Outcome};
use json::{obj, Value};
use spec::{Kind, Workload, DEFAULT_SEED, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// Times the trace is generated and written per run, at least; `setup_s`
/// is the median. A small trace is set up until a second has gone into it
/// (fifteen times at most): a 40 ms set-up measured three times says more
/// about the moment than about the code.
const SETUP_REPEATS: usize = 3;
const SETUP_MAX_REPEATS: usize = 15;

#[derive(Debug, Clone)]
struct Options {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    out: Option<PathBuf>,
    /// Set on the child side: the run directory the parent prepared.
    child_dir: Option<PathBuf>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: scd-benchmark --workload NAME | --all  [--seed N] [--seconds S] [--trace [0|1]] [--smoke] [--out FILE]\n\
         \u{20}      scd-benchmark compare A.jsonl B.jsonl\n\
         \u{20}      scd-benchmark spec\n\
         workloads: {}",
        WORKLOADS.map(|w| w.name).join(", ")
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: f64::from(RUN_SECONDS),
        traced: false,
        smoke: false,
        out: None,
        child_dir: None,
    };
    let mut i = 0;
    let value = |i: &mut usize| -> Result<&String, String> {
        *i += 1;
        args.get(*i).ok_or(format!("{} needs a value", args[*i - 1]))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => {
                let name = value(&mut i)?;
                o.workloads
                    .push(Workload::by_name(name).ok_or(format!("unknown workload '{name}'"))?);
            }
            "--all" => o.workloads = WORKLOADS.to_vec(),
            "--seed" => o.seed = value(&mut i)?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                o.seconds = value(&mut i)?.parse().map_err(|_| "bad --seconds")?;
                if !(o.seconds > 0.0 && o.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            // `--trace` alone switches tracing on; the driver passes 0 or 1.
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => {
                    o.traced = false;
                    i += 1;
                }
                Some("1") => {
                    o.traced = true;
                    i += 1;
                }
                _ => o.traced = true,
            },
            "--smoke" => o.smoke = true,
            "--out" => o.out = Some(PathBuf::from(value(&mut i)?)),
            "--dir" => o.child_dir = Some(PathBuf::from(value(&mut i)?)),
            other => return Err(format!("unknown argument '{other}'")),
        }
        i += 1;
    }
    if o.workloads.is_empty() {
        return Err("name a workload with --workload, or pass --all".into());
    }
    Ok(o)
}

/// The benchmark's own directory: `benchmark/` under the current directory
/// when run from a checkout's root, else where the package was built.
fn bench_dir() -> PathBuf {
    let here = std::env::current_dir().unwrap_or_default().join("benchmark");
    if here.join("Cargo.toml").is_file() {
        here
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        None | Some("-h" | "--help") => return usage(),
        Some("spec") => {
            println!("{}", spec::benchmark_json());
            return ExitCode::SUCCESS;
        }
        Some("compare") => {
            let [_, a, b] = args.as_slice() else { return usage() };
            return match compare_files(a, b) {
                Ok(false) => ExitCode::SUCCESS,
                Ok(true) => ExitCode::FAILURE,
                Err(e) => {
                    eprintln!("scd-benchmark compare: {e}");
                    ExitCode::from(2)
                }
            };
        }
        Some("child") => parse(&args[1..]).map_err(Into::into).and_then(|o| child(&o)),
        Some(_) => parse(&args).map_err(Into::into).and_then(|o| parent(&o)),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("scd-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

fn compare_files(a: &str, b: &str) -> BoxResult<bool> {
    Ok(compare::run(&std::fs::read_to_string(a)?, &std::fs::read_to_string(b)?)?)
}

/// The child side: run one workload on the inputs the parent wrote and
/// print the outcome as the last line.
fn child(o: &Options) -> BoxResult<()> {
    let bench = bench_dir();
    let workload = if o.smoke { o.workloads[0].smoke() } else { o.workloads[0] };
    let args = ChildArgs {
        workload,
        dir: o.child_dir.clone().ok_or("child needs --dir")?,
        out_dir: bench.join("out"),
        repo: bench.parent().map(Path::to_path_buf).unwrap_or_default(),
        seconds: o.seconds,
        traced: o.traced,
        smoke: o.smoke,
    };
    let outcome = match workload.kind {
        Kind::Replay | Kind::ReplayServed => replay::run(&args, o.seed)?,
        Kind::ServeMixed => serve::run_mixed(&args, o.seed)?,
        Kind::ServeCold => serve::run_cold(&args, o.seed)?,
        Kind::Fanin => fanin::run(&args, o.seed)?,
    };
    println!("{}", outcome.to_json().render());
    Ok(())
}

/// One workload's merged result as the parent reports it.
struct RunResult {
    workload: Workload,
    outcome: Outcome,
    /// `(name, unit)` of every metric this mode must report, in order.
    expected: Vec<(&'static str, &'static str)>,
}

impl RunResult {
    fn metric(&self, name: &str) -> Option<&common::Metric> {
        self.outcome.metrics.iter().find(|m| m.name == name)
    }

    /// `{"name": {"value", "unit"[, "samples"]}}` over the expected names;
    /// a per-layer metric the workload has no events for reads 0.
    fn metrics_json(&self, with_samples: bool) -> Value {
        Value::Obj(
            self.expected
                .iter()
                .map(|&(name, unit)| {
                    let m = self.metric(name);
                    let mut fields = vec![
                        ("value", Value::Num(m.map_or(0.0, |m| m.value))),
                        ("unit", Value::Str(unit.to_string())),
                    ];
                    if with_samples {
                        fields.push(("samples", Value::Num(m.map_or(0, |m| m.samples) as f64)));
                    }
                    (name.to_string(), obj(fields))
                })
                .collect(),
        )
    }

    /// The line the driver reads.
    fn driver_line(&self) -> String {
        obj(vec![
            ("correct", Value::Bool(self.outcome.checks.failed == 0)),
            ("attempted", Value::Num(self.outcome.checks.attempted.max(1) as f64)),
            ("failed", Value::Num(self.outcome.checks.failed as f64)),
            ("metrics", self.metrics_json(false)),
        ])
        .render()
    }

    fn print(&self, o: &Options) {
        println!(
            "== {} (seed {}, {} s, {}{}) ==",
            self.workload.name,
            o.seed,
            o.seconds,
            if o.traced { "traced" } else { "untraced" },
            if o.smoke { ", smoke" } else { "" }
        );
        print!("{}", self.outcome.text);
        for &(name, unit) in &self.expected {
            match self.metric(name) {
                Some(m) => println!(
                    "  {:<38} {:>16.4} {:<10} ({} samples)",
                    name, m.value, unit, m.samples
                ),
                None => println!(
                    "  {:<38} {:>16} {:<10} (no such event on this workload)",
                    name, "-", unit
                ),
            }
        }
        let c = &self.outcome.checks;
        println!("  checks: {} operations attempted, {} failed", c.attempted, c.failed);
        for f in &c.failures {
            println!("    FAILED: {f}");
        }
    }
}

/// The parent side of one workload: set up the inputs (timed), run the
/// child, merge.
fn run_workload(o: &Options, workload: Workload, bench: &Path) -> BoxResult<RunResult> {
    let shape = if o.smoke { workload.smoke() } else { workload };
    let dir = bench.join("out").join(format!("run-{}-{}", workload.name, std::process::id()));
    std::fs::create_dir_all(&dir)?;
    let result = (|| -> BoxResult<RunResult> {
        let mut setups: Vec<f64> = Vec::new();
        loop {
            let start = Instant::now();
            let records = gen::records(&shape, o.seed);
            gen::write_trace(&dir.join("trace.bin"), &records)?;
            setups.push(start.elapsed().as_secs_f64());
            let enough = setups.len() >= SETUP_REPEATS && setups.iter().sum::<f64>() >= 1.0;
            if o.smoke || enough || setups.len() >= SETUP_MAX_REPEATS {
                break;
            }
        }

        let mut cmd = Command::new(std::env::current_exe()?);
        cmd.args(["child", "--workload", workload.name, "--dir"]).arg(&dir);
        cmd.args(["--seed", &o.seed.to_string(), "--seconds", &o.seconds.to_string()]);
        cmd.args(["--trace", if o.traced { "1" } else { "0" }]);
        if o.smoke {
            cmd.arg("--smoke");
        }
        // One malloc arena: with glibc's per-thread arenas the child's peak
        // RSS swings by a third from run to run on the same input, and
        // says more about which thread freed what than about the program.
        if std::env::var_os("MALLOC_ARENA_MAX").is_none() {
            cmd.env("MALLOC_ARENA_MAX", "1");
        }
        let output =
            cmd.stdout(Stdio::piped()).stderr(Stdio::inherit()).spawn()?.wait_with_output()?;
        if !output.status.success() {
            return Err(format!("the {} child exited with {}", workload.name, output.status).into());
        }
        let stdout = String::from_utf8(output.stdout)?;
        let line = stdout.lines().last().ok_or("the child printed nothing")?;
        let mut outcome = Outcome::from_json(line)?;

        let expected: Vec<(&str, &str)> = if o.traced {
            PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
        } else {
            outcome.put("setup_s", stats::median(&setups) + outcome.warm_s, setups.len());
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        };
        if !o.traced {
            for (name, _) in &expected {
                if !outcome.metrics.iter().any(|m| m.name == *name && m.value > 0.0) {
                    return Err(format!(
                        "{}: end-to-end metric {name} was not measured",
                        workload.name
                    )
                    .into());
                }
            }
        }
        Ok(RunResult { workload, outcome, expected })
    })();
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// The machine context recorded with every result.
fn context(bench: &Path) -> Value {
    let run = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .current_dir(bench)
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map_or("unknown".to_string(), |s| s.trim().to_string())
    };
    obj(vec![
        ("cpus", Value::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64)),
        ("simd_variant", Value::Str(sketch_change::hash::simd::active().name().to_string())),
        ("rustc", Value::Str(run("rustc", &["--version"]))),
        ("commit", Value::Str(run("git", &["rev-parse", "--short", "HEAD"]))),
    ])
}

fn parent(o: &Options) -> BoxResult<()> {
    let bench = bench_dir();
    let context = context(&bench);
    println!("context: {}", context.render());
    let out_path =
        o.out.clone().or_else(|| (o.workloads.len() > 1).then(|| bench.join("out/results.jsonl")));
    let mut last = None;
    let (mut attempted, mut failed) = (0, 0);
    for &workload in &o.workloads {
        let result = run_workload(o, workload, &bench)?;
        result.print(o);
        attempted += result.outcome.checks.attempted;
        failed += result.outcome.checks.failed;
        if let Some(path) = &out_path {
            if let Some(parent) = path.parent() {
                std::fs::create_dir_all(parent)?;
            }
            let record = obj(vec![
                ("workload", Value::Str(workload.name.to_string())),
                ("traced", Value::Bool(o.traced)),
                ("smoke", Value::Bool(o.smoke)),
                ("seed", Value::Num(o.seed as f64)),
                ("seconds", Value::Num(o.seconds)),
                ("context", context.clone()),
                ("attempted", Value::Num(result.outcome.checks.attempted as f64)),
                ("failed", Value::Num(result.outcome.checks.failed as f64)),
                ("metrics", result.metrics_json(true)),
            ]);
            let mut file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
            writeln!(file, "{}", record.render())?;
        }
        last = Some(result);
    }
    if let Some(path) = &out_path {
        println!("results appended to {}", path.display());
    }
    println!("total: {attempted} operations attempted, {failed} failed");
    // One workload: the line the driver reads comes last.
    if let (1, Some(result)) = (o.workloads.len(), &last) {
        println!("{}", result.driver_line());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let o = parse(&args("--workload serve-cold --seed 17 --seconds 8 --trace 0")).unwrap();
        assert_eq!(
            (o.workloads[0].name, o.seed, o.seconds, o.traced),
            ("serve-cold", 17, 8.0, false)
        );
        let o = parse(&args("--workload fanin-2node --seed 1 --seconds 8 --trace 1")).unwrap();
        assert!(o.traced && !o.smoke);
    }

    #[test]
    fn a_bare_trace_flag_switches_tracing_on() {
        let o = parse(&args("--all --trace --smoke")).unwrap();
        assert!(o.traced && o.smoke);
        assert_eq!(o.workloads.len(), WORKLOADS.len());
        assert_eq!(o.seed, DEFAULT_SEED);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(parse(&args("--seed 3")).is_err());
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--all --seconds 0")).is_err());
        assert!(parse(&args("--all --seconds")).is_err());
        assert!(parse(&args("--all --frobnicate")).is_err());
    }
}
