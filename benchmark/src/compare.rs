//! `scd-benchmark compare A.jsonl B.jsonl`: the trajectory checker. Each
//! file holds one set of runs (one JSON object per line, as `--out`
//! appends them). Every (workload, end-to-end metric) row gets both sides'
//! median and quartiles and a verdict against the metric's recorded bound.

use crate::json::{self, Value};
use crate::spec::{END_TO_END, WORKLOADS};
use crate::stats::{median, quartiles, spread};
use std::collections::BTreeMap;

/// The runs of one file: metric samples per (workload, metric) and the
/// check totals per workload.
#[derive(Debug, Default)]
pub struct RunSet {
    values: BTreeMap<(String, String), Vec<f64>>,
    /// (attempted, failed) per workload.
    checks: BTreeMap<String, (f64, f64)>,
}

impl RunSet {
    pub fn parse(text: &str) -> Result<RunSet, String> {
        let mut set = RunSet::default();
        for (n, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
            let doc = json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
            let workload = doc
                .get("workload")
                .and_then(Value::as_str)
                .ok_or(format!("line {}: no workload", n + 1))?
                .to_string();
            let num = |k: &str| doc.get(k).and_then(Value::as_f64).unwrap_or(0.0);
            let totals = set.checks.entry(workload.clone()).or_default();
            totals.0 += num("attempted");
            totals.1 += num("failed");
            let metrics = doc.get("metrics").and_then(Value::as_object).unwrap_or(&[]);
            for (name, m) in metrics {
                if let Some(v) = m.get("value").and_then(Value::as_f64) {
                    set.values.entry((workload.clone(), name.clone())).or_default().push(v);
                }
            }
        }
        Ok(set)
    }

    fn failed_share(&self, workload: &str) -> f64 {
        self.checks.get(workload).map_or(0.0, |&(attempted, failed)| failed / attempted.max(1.0))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// One side's spread is wider than the bound: no call either way.
    Unresolved,
}

/// `(q1, median, q3)`; a single sample is its own quartiles.
fn summary(values: &[f64]) -> (f64, f64, f64) {
    if values.len() < 2 {
        let m = median(values);
        (m, m, m)
    } else {
        quartiles(values)
    }
}

/// The verdict on one row: `a` is the baseline, `b` the candidate.
pub fn judge(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let (qa, qb) = (summary(a), summary(b));
    let spread_of = |v: &[f64]| if v.len() < 2 { 0.0 } else { spread(v) };
    let noise = spread_of(a).max(spread_of(b));
    if noise > bound {
        return Verdict::Unresolved;
    }
    let worsening =
        if higher_is_better { (qa.1 - qb.1) / qa.1.abs() } else { (qb.1 - qa.1) / qa.1.abs() };
    if worsening > bound {
        Verdict::Worse
    } else if -worsening > noise && -worsening > 0.0 {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Prints the comparison; returns whether anything regressed.
pub fn run(a_text: &str, b_text: &str) -> Result<bool, String> {
    let (a, b) = (RunSet::parse(a_text)?, RunSet::parse(b_text)?);
    let mut regressed = false;
    println!(
        "{:<16} {:<14} {:>12} {:>25} {:>12} {:>25} {:>8}  verdict",
        "workload", "metric", "A median", "A quartiles", "B median", "B quartiles", "change"
    );
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let key = (w.name.to_string(), m.name.to_string());
            let (Some(va), Some(vb)) = (a.values.get(&key), b.values.get(&key)) else { continue };
            let (qa, qb) = (summary(va), summary(vb));
            let verdict = judge(va, vb, m.higher_is_better, m.bound);
            regressed |= verdict == Verdict::Worse;
            println!(
                "{:<16} {:<14} {:>12.4} {:>25} {:>12.4} {:>25} {:>+7.1}%  {}",
                w.name,
                m.name,
                qa.1,
                format!("[{:.4}, {:.4}] n={}", qa.0, qa.2, va.len()),
                qb.1,
                format!("[{:.4}, {:.4}] n={}", qb.0, qb.2, vb.len()),
                100.0 * (qb.1 - qa.1) / qa.1.abs().max(f64::MIN_POSITIVE),
                match verdict {
                    Verdict::Better => "better".to_string(),
                    Verdict::Same => "same".to_string(),
                    Verdict::Worse => format!("WORSE (bound {:.0}%)", m.bound * 100.0),
                    Verdict::Unresolved =>
                        format!("unresolved (spread over {:.0}%)", m.bound * 100.0),
                }
            );
        }
        let (fa, fb) = (a.failed_share(w.name), b.failed_share(w.name));
        if fb > fa {
            regressed = true;
            println!("{:<16} failed share rose from {fa:.6} to {fb:.6}: WORSE", w.name);
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let worse = [115.0, 116.0, 114.0, 115.5, 114.5];
        let better = [80.0, 81.0, 79.0, 80.5, 79.5];
        let noisy = [100.0, 140.0, 70.0, 120.0, 85.0];
        assert_eq!(judge(&base, &worse, false, 0.10), Verdict::Worse);
        assert_eq!(judge(&base, &worse, false, 0.20), Verdict::Same);
        assert_eq!(judge(&base, &better, false, 0.10), Verdict::Better);
        assert_eq!(judge(&base, &better, true, 0.10), Verdict::Worse);
        assert_eq!(judge(&base, &base, false, 0.10), Verdict::Same);
        assert_eq!(judge(&base, &noisy, false, 0.10), Verdict::Unresolved);
        assert_eq!(judge(&[100.0], &[111.0], false, 0.10), Verdict::Worse);
    }

    #[test]
    fn run_sets_group_by_workload_and_metric() {
        let text = "{\"workload\": \"serve-cold\", \"attempted\": 10, \"failed\": 1, \"metrics\": {\"query_qps\": {\"value\": 5.0}}}\n\
                    {\"workload\": \"serve-cold\", \"attempted\": 10, \"failed\": 0, \"metrics\": {\"query_qps\": {\"value\": 7.0}}}\n";
        let set = RunSet::parse(text).unwrap();
        assert_eq!(
            set.values[&("serve-cold".to_string(), "query_qps".to_string())],
            vec![5.0, 7.0]
        );
        assert!((set.failed_share("serve-cold") - 0.05).abs() < 1e-12);
        assert!(RunSet::parse("{\"metrics\": {}}").is_err());
    }
}
