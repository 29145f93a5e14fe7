//! What every workload shares: the result a child hands its parent, the
//! failure ledger, the close-latency observer, the inline reference and the
//! process's own memory high-water mark.

use crate::gen::Plant;
use crate::json::{self, obj, Value};
use crate::span::{self, Span};
use crate::spec::Workload;
use sketch_change::core::{IntervalObserver, IntervalReport, SketchChangeDetector};
use sketch_change::serve::ServingPlane;
use sketch_change::sketch::KarySketch;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One `(key, value)` update stream per interval, as the CLI holds them.
pub type Intervals = Vec<Vec<(u64, f64)>>;

/// What a child process is asked to run.
#[derive(Debug, Clone)]
pub struct ChildArgs {
    pub workload: Workload,
    /// Directory holding `trace.bin`; scratch files go here too.
    pub dir: PathBuf,
    /// Where spans and results are kept (`benchmark/out`).
    pub out_dir: PathBuf,
    /// Repository root (for the `cli.*` probe).
    pub repo: PathBuf,
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
}

impl ChildArgs {
    pub fn trace_path(&self) -> PathBuf {
        self.dir.join("trace.bin")
    }

    /// Seconds a batch workload spends on timed passes: two thirds of
    /// `--seconds` (none with `--smoke`: one pass a variant).
    pub fn pass_seconds(&self) -> f64 {
        if self.smoke {
            0.0
        } else {
            self.seconds * 2.0 / 3.0
        }
    }

    /// Seconds its serve tail spends on timed queries: the other third.
    pub fn tail_seconds(&self) -> f64 {
        if self.smoke {
            0.2
        } else {
            self.seconds / 3.0
        }
    }
}

/// One reported number with the count of samples behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub samples: usize,
}

/// Operations attempted and failed by the correctness checks, with one
/// line per failure.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn attempt(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }
}

/// Everything a child reports: metrics, checks, child-side set-up time
/// and free-form text (the ledger) the parent prints as is.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub checks: Checks,
    pub warm_s: f64,
    pub text: String,
}

impl Outcome {
    /// Records a metric; a later value for the same name replaces the
    /// earlier one.
    pub fn put(&mut self, name: &str, value: f64, samples: usize) {
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric { name: name.to_string(), value, samples });
    }

    pub fn to_json(&self) -> Value {
        obj(vec![
            (
                "metrics",
                Value::Obj(
                    self.metrics
                        .iter()
                        .map(|m| {
                            let v = obj(vec![
                                ("value", Value::Num(m.value)),
                                ("samples", Value::Num(m.samples as f64)),
                            ]);
                            (m.name.clone(), v)
                        })
                        .collect(),
                ),
            ),
            ("attempted", Value::Num(self.checks.attempted as f64)),
            ("failed", Value::Num(self.checks.failed as f64)),
            (
                "failures",
                Value::Arr(self.checks.failures.iter().cloned().map(Value::Str).collect()),
            ),
            ("warm_s", Value::Num(self.warm_s)),
            ("text", Value::Str(self.text.clone())),
        ])
    }

    pub fn from_json(line: &str) -> Result<Outcome, String> {
        let doc = json::parse(line)?;
        let num = |key: &str| doc.get(key).and_then(Value::as_f64).ok_or(format!("no {key}"));
        let mut out = Outcome { warm_s: num("warm_s")?, ..Outcome::default() };
        out.checks.attempted = num("attempted")? as u64;
        out.checks.failed = num("failed")? as u64;
        for f in doc.get("failures").and_then(Value::as_array).ok_or("no failures")? {
            out.checks.failures.push(f.as_str().unwrap_or_default().to_string());
        }
        out.text = doc.get("text").and_then(Value::as_str).unwrap_or_default().to_string();
        for (name, m) in doc.get("metrics").and_then(Value::as_object).ok_or("no metrics")? {
            let field = |k: &str| m.get(k).and_then(Value::as_f64).ok_or(format!("{name}: no {k}"));
            out.put(name, field("value")?, field("samples")? as usize);
        }
        Ok(out)
    }
}

/// The benchmark's own `IntervalObserver`: stamps when interval `t`'s
/// report was seen, after handing it to the serving plane when one is
/// attached. Close latency is this stamp minus the return of `t`'s last
/// push.
#[derive(Debug)]
pub struct CloseStamp {
    epoch: Instant,
    closed_ns: Vec<AtomicU64>,
    plane: Option<Arc<ServingPlane>>,
}

impl CloseStamp {
    pub fn new(epoch: Instant, intervals: usize, plane: Option<Arc<ServingPlane>>) -> Arc<Self> {
        let closed_ns = (0..intervals).map(|_| AtomicU64::new(0)).collect();
        Arc::new(CloseStamp { epoch, closed_ns, plane })
    }

    /// Nanoseconds after the epoch at which report `t` was seen (0: never).
    pub fn closed_ns(&self, t: usize) -> u64 {
        self.closed_ns[t].load(Ordering::Acquire)
    }

    pub fn ns_since_epoch(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

impl IntervalObserver for CloseStamp {
    fn interval_closed(&self, report: &IntervalReport, error: Option<(usize, &KarySketch)>) {
        if let Some(plane) = &self.plane {
            plane.interval_closed(report, error);
        }
        if let Some(slot) = self.closed_ns.get(report.interval) {
            // Release pairs with the Acquire in `closed_ns`: a reader that
            // sees the stamp also sees the plane's hand-off before it.
            slot.store(self.ns_since_epoch().max(1), Ordering::Release);
        }
    }

    fn flush(&self) {
        if let Some(plane) = &self.plane {
            plane.flush();
        }
    }
}

/// The single-threaded reference: the same intervals through a bare
/// `SketchChangeDetector`. Returns the reports and the seconds it took.
pub fn inline_reference(w: &Workload, intervals: &Intervals) -> (Vec<IntervalReport>, f64) {
    let start = Instant::now();
    let mut det = SketchChangeDetector::new(w.detector());
    let reports = intervals.iter().map(|items| det.process_interval(items)).collect();
    (reports, start.elapsed().as_secs_f64())
}

/// Compares a run's reports with the reference, one operation per
/// interval: a missing report or a differing canonical line fails it.
pub fn check_reports(
    checks: &mut Checks,
    what: &str,
    got: &[IntervalReport],
    want: &[IntervalReport],
) {
    for (t, reference) in want.iter().enumerate() {
        let same = got.get(t).is_some_and(|r| r.canonical_line() == reference.canonical_line());
        checks.attempt(same, || match got.get(t) {
            Some(_) => format!("{what}: interval {t} differs from the inline reference"),
            None => format!("{what}: report for interval {t} is missing"),
        });
    }
    checks.attempt(got.len() == want.len(), || {
        format!("{what}: {} reports, reference has {}", got.len(), want.len())
    });
}

/// Every plant must alarm in its onset interval.
pub fn check_plants(checks: &mut Checks, what: &str, reports: &[IntervalReport], plants: &[Plant]) {
    for p in plants {
        let hit = reports.get(p.interval).is_some_and(|r| r.alarms.iter().any(|a| a.key == p.key));
        checks.attempt(hit, || {
            format!(
                "{what}: planted change on key {} did not alarm in interval {}",
                p.key, p.interval
            )
        });
    }
}

/// `VmHWM` of this process in MB (0 where `/proc` is unreadable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets the high-water mark to the current resident size, so the
/// verification pass (which keeps every report) does not count. Best
/// effort: where the kernel refuses, the peak simply includes that pass.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Writes the threads' spans to `out/spans-<workload>.jsonl`.
pub fn write_span_file(args: &ChildArgs, threads: &[(&str, &[Span])]) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(&args.out_dir)?;
    let path = args.out_dir.join(format!("spans-{}.jsonl", args.workload.name));
    let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for (thread, spans) in threads {
        span::write_spans(&mut file, thread, spans)?;
    }
    std::io::Write::flush(&mut file)?;
    Ok(path)
}

pub type BoxResult<T> = Result<T, Box<dyn std::error::Error>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_outcome_survives_the_pipe_to_the_parent() {
        let mut out =
            Outcome { warm_s: 0.25, text: "ledger\n  row\n".into(), ..Outcome::default() };
        out.put("records_per_s", 6.5e6, 9);
        out.put("close_ms_p50", 12.625, 216);
        out.put("records_per_s", 7.0e6, 10); // replaces the first
        out.checks.attempt(true, || unreachable!());
        out.checks.attempt(false, || "interval 3 differs".into());
        let back = Outcome::from_json(&out.to_json().render()).unwrap();
        assert_eq!(back.metrics, out.metrics);
        assert_eq!(back.metrics.len(), 2);
        assert_eq!((back.checks.attempted, back.checks.failed), (2, 1));
        assert_eq!(back.checks.failures, vec!["interval 3 differs".to_string()]);
        assert_eq!((back.warm_s, back.text), (0.25, out.text));
    }

    #[test]
    fn reports_are_checked_interval_by_interval() {
        let want: Vec<IntervalReport> = (0..4)
            .map(|interval| IntervalReport { interval, ..IntervalReport::default() })
            .collect();
        let mut got = want.clone();
        got[2].error_f2 = 1.0;
        got.pop();
        let mut checks = Checks::default();
        check_reports(&mut checks, "t", &got, &want);
        // Interval 2 differs, interval 3 is missing, and the counts differ.
        assert_eq!((checks.attempted, checks.failed), (5, 3));
    }
}
