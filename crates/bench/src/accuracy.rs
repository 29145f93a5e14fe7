//! The accuracy ledger: `ACCURACY.json` holds one row per paper claim —
//! its operating point, seed set, and the floor or ceiling each measured
//! quantity must respect, each with the sentence saying why it sits
//! there. `experiments check` ([`check`]) runs every row at its reduced,
//! seeded size, prints one table and fails on any breached bound, so a
//! change that keeps every bit of the wrong thing no longer passes.
//!
//! A row's name selects its measurement (the experiment module of the same
//! name, at the row's operating point); the row's bounds select which of
//! the measured quantities are held, by name.

use crate::args::{Args, CommonArgs};
use crate::experiments::{appendix, hh_vs_change};
use crate::json::{self, Value};
use crate::table::{f, Table};
use std::path::PathBuf;

/// One held quantity of a row.
#[derive(Debug)]
struct Bound {
    /// The measured quantity's name, as the row's measurement reports it.
    metric: String,
    /// The measured value must be at least this.
    floor: Option<f64>,
    /// The measured value must be at most this.
    ceiling: Option<f64>,
    /// Why the floor or ceiling is where it is.
    why: String,
}

impl Bound {
    /// Whether `value` respects the bound (a NaN never does).
    fn holds(&self, value: f64) -> bool {
        !value.is_nan()
            && self.floor.map_or(true, |floor| value >= floor)
            && self.ceiling.map_or(true, |ceiling| value <= ceiling)
    }

    fn describe(&self) -> String {
        match (self.floor, self.ceiling) {
            (Some(lo), Some(hi)) => format!("in [{lo}, {hi}]"),
            (Some(lo), None) => format!(">= {lo}"),
            (None, Some(hi)) => format!("<= {hi}"),
            (None, None) => "unbounded".into(),
        }
    }
}

/// One ledger row: a paper claim at one operating point.
#[derive(Debug)]
struct Row {
    /// The row's name, which is also its measurement's.
    name: String,
    /// The numbers the measurement reads.
    point: Value,
    /// The held quantities.
    bounds: Vec<Bound>,
}

/// The ledger the repository records, beside the workspace manifest.
fn default_path() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../ACCURACY.json"))
}

/// Reads the ledger's rows.
///
/// # Errors
/// Names the first missing or mistyped field.
fn parse(text: &str) -> Result<Vec<Row>, String> {
    let doc = json::parse(text)?;
    let rows = doc.get("rows").and_then(Value::as_array).ok_or("ledger: no \"rows\" array")?;
    rows.iter()
        .map(|row| {
            let name = field_str(row, "row")?;
            for described in ["claim", "seeds"] {
                field_str(row, described).map_err(|e| format!("{name}: {e}"))?;
            }
            let point = row
                .get("operating_point")
                .cloned()
                .ok_or(format!("{name}: no \"operating_point\""))?;
            let bounds = row
                .get("bounds")
                .and_then(Value::as_array)
                .ok_or(format!("{name}: no \"bounds\" array"))?
                .iter()
                .map(|b| {
                    let bound = Bound {
                        metric: field_str(b, "metric")?.to_string(),
                        floor: b.get("floor").and_then(Value::as_f64),
                        ceiling: b.get("ceiling").and_then(Value::as_f64),
                        why: field_str(b, "why")?.to_string(),
                    };
                    if bound.floor.is_none() && bound.ceiling.is_none() {
                        return Err(format!("{}: neither a floor nor a ceiling", bound.metric));
                    }
                    Ok(bound)
                })
                .collect::<Result<Vec<_>, String>>()
                .map_err(|e| format!("{name}: {e}"))?;
            Ok(Row { name: name.to_string(), point, bounds })
        })
        .collect()
}

fn field_str<'a>(value: &'a Value, key: &str) -> Result<&'a str, String> {
    value.get(key).and_then(Value::as_str).ok_or(format!("no string \"{key}\""))
}

fn number(point: &Value, key: &str) -> Result<f64, String> {
    point.get(key).and_then(Value::as_f64).ok_or(format!("operating point has no number \"{key}\""))
}

fn numbers(point: &Value, key: &str) -> Result<Vec<f64>, String> {
    point
        .get(key)
        .and_then(Value::as_array)
        .and_then(|items| items.iter().map(Value::as_f64).collect())
        .ok_or(format!("operating point has no number array \"{key}\""))
}

/// Runs `row`'s measurement at its operating point: every quantity it
/// reports, by name.
///
/// # Errors
/// An unknown row, or an operating point the measurement cannot run.
fn measure(row: &Row) -> Result<Vec<(String, f64)>, String> {
    let p = &row.point;
    match row.name.as_str() {
        "appendix" => {
            let shape = (number(p, "k")?, numbers(p, "h")?);
            let measured = (appendix::K as f64, appendix::HS.map(|h| h as f64).to_vec());
            if shape != measured {
                return Err(format!("appendix: operating point {shape:?}, measured {measured:?}"));
            }
            // The signed stream: only there is the median of rows unbiased.
            let m = appendix::measure(number(p, "trials")? as u64, true);
            let mut out = vec![
                ("row.bias_se".to_string(), m.row.bias_se()),
                ("row.var_excess_se".to_string(), m.row.mse_excess_se(m.bound)),
                ("f2.bias_se".to_string(), m.f2.bias_se()),
            ];
            for (h, draws) in &m.median {
                out.push((format!("median.bias_se.h{h}"), draws.bias_se()));
                out.push((format!("median.tail.h{h}"), draws.tail(m.dev())));
            }
            Ok(out)
        }
        "hh_vs_change" => {
            let common = CommonArgs {
                scale: number(p, "scale")?,
                seed: number(p, "seed")? as u64,
                hours: number(p, "hours")?,
            };
            let ns: Vec<usize> = numbers(p, "n")?.into_iter().map(|n| n as usize).collect();
            let mut out = Vec::new();
            for o in hh_vs_change::measure(common, &ns) {
                let found = |hits: usize| hits as f64 / o.labeled as f64;
                out.push((format!("overlap.n{}", o.n), o.mean_overlap));
                out.push((format!("hh_found.n{}", o.n), found(o.hh_found)));
                out.push((format!("change_found.n{}", o.n), found(o.change_found)));
            }
            Ok(out)
        }
        other => Err(format!("no measurement for ledger row '{other}'")),
    }
}

/// `experiments check`: runs every row of the ledger (`--ledger`, by
/// default the repository's `ACCURACY.json`), prints one line per held
/// quantity and returns whether every bound held; each breach is named
/// on stderr with the reason its bound sits where it does. A row that
/// cannot run, or a bound naming a quantity its row does not measure,
/// counts as breached.
pub fn check(args: &Args) -> bool {
    let path = args.get("ledger", default_path().display().to_string());
    let rows = match std::fs::read_to_string(&path)
        .map_err(|e| format!("{path}: {e}"))
        .and_then(|text| parse(&text))
    {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("check: {e}");
            return false;
        }
    };
    let mut table = Table::new(
        "Accuracy ledger (ACCURACY.json)",
        &["row", "quantity", "measured", "bound", "verdict"],
    );
    let mut held = true;
    for row in &rows {
        let started = std::time::Instant::now();
        let measured = match measure(row) {
            Ok(measured) => measured,
            Err(e) => {
                eprintln!("check: {e}");
                held = false;
                continue;
            }
        };
        for bound in &row.bounds {
            let value = measured.iter().find(|(name, _)| *name == bound.metric).map(|&(_, v)| v);
            let ok = value.is_some_and(|v| bound.holds(v));
            if !ok {
                eprintln!(
                    "check: {}: {} {} breaches {} ({})",
                    row.name,
                    bound.metric,
                    value.map_or("not measured".into(), |v| v.to_string()),
                    bound.describe(),
                    bound.why
                );
            }
            held &= ok;
            table.row(&[
                row.name.clone(),
                bound.metric.clone(),
                value.map_or("not measured".into(), |v| f(v, 4)),
                bound.describe(),
                if ok { "ok" } else { "BREACHED" }.into(),
            ]);
        }
        eprintln!("[{} measured in {:.1}s]", row.name, started.elapsed().as_secs_f64());
    }
    table.print();
    held
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The recorded ledger parses, names only rows this module measures,
    /// and bounds every quantity at most once.
    #[test]
    fn the_recorded_ledger_is_well_formed() {
        let text = std::fs::read_to_string(default_path()).expect("ACCURACY.json");
        let rows = parse(&text).expect("parses");
        let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["appendix", "hh_vs_change"]);
        for row in &rows {
            let mut metrics: Vec<&str> = row.bounds.iter().map(|b| b.metric.as_str()).collect();
            metrics.sort_unstable();
            let n = metrics.len();
            metrics.dedup();
            assert_eq!(metrics.len(), n, "{}: a quantity bounded twice", row.name);
        }
    }

    #[test]
    fn bounds_hold_inclusively_and_never_on_nan() {
        let b = Bound { metric: "m".into(), floor: Some(0.5), ceiling: Some(1.0), why: "".into() };
        assert!(b.holds(0.5) && b.holds(1.0));
        assert!(!b.holds(0.49) && !b.holds(1.01) && !b.holds(f64::NAN));
    }

    #[test]
    fn rows_without_a_bound_are_refused() {
        let doc = r#"{"rows": [{"row": "appendix", "claim": "c", "seeds": "s",
            "operating_point": {}, "bounds": [{"metric": "m", "why": "w"}]}]}"#;
        assert_eq!(parse(doc).unwrap_err(), "appendix: m: neither a floor nor a ceiling");
    }
}
