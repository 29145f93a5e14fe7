//! Minimal command-line argument handling for the experiment binary.
//!
//! Hand-rolled (~100 lines) to stay within the approved dependency set —
//! the option surface is tiny: `--scale`, `--intervals`, `--seed`,
//! `--out`, and per-experiment extras.

use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};

/// Parsed `--key value` flags plus positional arguments. Every accessor
/// records the name it was asked for, so [`Args::done`] can name the
/// flags no experiment looked at.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// Positional arguments in order (the first is the experiment name).
    pub positional: Vec<String>,
    flags: HashMap<String, String>,
    read: RefCell<BTreeSet<String>>,
}

impl Args {
    /// Parses the process arguments (excluding `argv[0]`).
    pub fn from_env() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// Parses from an explicit iterator (testable).
    pub fn parse(items: impl IntoIterator<Item = String>) -> Self {
        let mut out = Args::default();
        let mut it = items.into_iter().peekable();
        while let Some(item) = it.next() {
            if let Some(name) = item.strip_prefix("--") {
                let value = match it.peek() {
                    Some(v) if !v.starts_with("--") => it.next().expect("peeked"),
                    _ => "true".to_string(), // boolean flag
                };
                out.flags.insert(name.to_string(), value);
            } else {
                out.positional.push(item);
            }
        }
        out
    }

    /// Returns the flag value parsed as `T`, or `default` when absent.
    ///
    /// # Panics
    /// Panics with a usage message when the value does not parse.
    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        match self.raw(name) {
            None => default,
            Some(raw) => raw.parse().unwrap_or_else(|_| {
                panic!("flag --{name} expects a {}, got '{raw}'", std::any::type_name::<T>())
            }),
        }
    }

    /// True if the boolean flag is present.
    pub fn has(&self, name: &str) -> bool {
        self.raw(name).is_some()
    }

    fn raw(&self, name: &str) -> Option<&String> {
        self.read.borrow_mut().insert(name.to_string());
        self.flags.get(name)
    }

    /// Call when the run `what` has ended: a flag that no experiment of
    /// the run read (a misspelt `--sclae`) was silently ignored.
    ///
    /// # Errors
    /// Names every flag that was given and never read.
    pub fn done(&self, what: &str) -> Result<(), String> {
        let read = self.read.borrow();
        let mut unread: Vec<&str> =
            self.flags.keys().map(String::as_str).filter(|name| !read.contains(*name)).collect();
        unread.sort_unstable();
        match unread.as_slice() {
            [] => Ok(()),
            names => Err(format!("unknown flag --{} for '{what}'", names.join(", --"))),
        }
    }

    /// The common experiment knobs: `--scale` (traffic scale multiplier),
    /// `--seed`, and `--hours` (trace length; the paper uses 4).
    pub fn common(&self) -> CommonArgs {
        self.common_scaled(1.0)
    }

    /// Like [`common`](Self::common) but with an experiment-specific
    /// default scale. The top-N experiments default to 4x (≈1/25 of paper
    /// volume): below that, intervals hold fewer active keys than the
    /// paper's largest N=1000, capping similarity for reasons of trace
    /// size rather than sketch accuracy.
    pub fn common_scaled(&self, default_scale: f64) -> CommonArgs {
        CommonArgs {
            scale: self.get("scale", default_scale),
            seed: self.get("seed", 2003),
            hours: self.get("hours", 4.0),
        }
    }
}

/// Knobs shared by every experiment.
#[derive(Debug, Clone, Copy)]
pub struct CommonArgs {
    /// Traffic volume multiplier over the 1/100-scale defaults.
    pub scale: f64,
    /// Master seed.
    pub seed: u64,
    /// Trace length in hours (paper: 4, with the first hour as warm-up).
    pub hours: f64,
}

impl CommonArgs {
    /// Number of intervals for a given interval length, matching the
    /// paper's setup ("180 and 37 intervals respectively in the 60s and
    /// 300s time interval cases" after warm-up; we generate the full trace
    /// and skip warm-up).
    pub fn intervals(&self, interval_secs: u32) -> usize {
        ((self.hours * 3600.0) / interval_secs as f64).round() as usize
    }

    /// Warm-up intervals (the paper's first hour).
    pub fn warm_up(&self, interval_secs: u32) -> usize {
        (3600.0 / interval_secs as f64).round() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn positional_and_flags() {
        let a = parse("fig1 --scale 2.5 --verbose --seed 9");
        assert_eq!(a.positional, vec!["fig1"]);
        assert_eq!(a.get("scale", 1.0), 2.5);
        assert_eq!(a.get("seed", 0u64), 9);
        assert!(a.has("verbose"));
        assert!(!a.has("quiet"));
    }

    #[test]
    fn defaults_apply() {
        let a = parse("fig2");
        assert_eq!(a.get("scale", 1.0), 1.0);
        let c = a.common();
        assert_eq!(c.intervals(300), 48);
        assert_eq!(c.intervals(60), 240);
        assert_eq!(c.warm_up(300), 12);
        assert_eq!(c.warm_up(60), 60);
    }

    #[test]
    fn done_names_the_flags_nobody_read() {
        let a = parse("fig5 --sclae 4 --seed 9 --paper-search");
        assert_eq!(a.common_scaled(4.0).scale, 4.0, "the misspelt flag changed nothing");
        assert_eq!(a.done("fig5").unwrap_err(), "unknown flag --paper-search, --sclae for 'fig5'");
        assert!(a.has("paper-search"));
        assert_eq!(a.done("fig5").unwrap_err(), "unknown flag --sclae for 'fig5'");
        // A flag counts as read even when it was absent or left at its default.
        let b = parse("all --scale 2");
        assert!(b.done("all").is_err());
        let _ = b.get("scale", 1.0);
        let _ = b.get("trials", 6usize);
        assert_eq!(b.done("all"), Ok(()));
    }

    #[test]
    #[should_panic(expected = "expects a")]
    fn bad_value_panics_with_message() {
        let a = parse("x --scale banana");
        let _ = a.get("scale", 1.0);
    }
}
