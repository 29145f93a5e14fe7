//! Tiny flag parser for the `scd` binary (no external dependencies).

use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};

/// Parsed command line: subcommand plus `--key value` flags. Every
/// accessor records the name it was asked for, so [`Flags::done`] can
/// name the flags the command never looked at.
#[derive(Debug, Clone, Default)]
pub struct Flags {
    /// Positional arguments after the subcommand.
    pub positional: Vec<String>,
    cmd: String,
    map: HashMap<String, String>,
    read: RefCell<BTreeSet<String>>,
}

/// A flag error with a user-facing message.
#[derive(Debug)]
pub struct FlagError(pub String);

impl std::fmt::Display for FlagError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for FlagError {}

impl Flags {
    /// Parses the argument iterator that follows subcommand `cmd`.
    pub fn parse(cmd: &str, items: impl IntoIterator<Item = String>) -> Self {
        let mut out = Flags { cmd: cmd.to_string(), ..Flags::default() };
        let mut it = items.into_iter().peekable();
        while let Some(item) = it.next() {
            if let Some(name) = item.strip_prefix("--") {
                let value = match it.peek() {
                    Some(v) if !v.starts_with("--") => it.next().expect("peeked"),
                    _ => "true".into(),
                };
                out.map.insert(name.to_string(), value);
            } else {
                out.positional.push(item);
            }
        }
        out
    }

    /// Required flag, parsed as `T`.
    pub fn require<T: std::str::FromStr>(&self, name: &str) -> Result<T, FlagError> {
        let raw =
            self.raw(name).ok_or_else(|| FlagError(format!("missing required flag --{name}")))?;
        raw.parse().map_err(|_| FlagError(format!("--{name}: cannot parse '{raw}'")))
    }

    /// Optional flag with default.
    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, FlagError> {
        match self.raw(name) {
            None => Ok(default),
            Some(raw) => {
                raw.parse().map_err(|_| FlagError(format!("--{name}: cannot parse '{raw}'")))
            }
        }
    }

    /// Raw string value, if present.
    pub fn raw(&self, name: &str) -> Option<&str> {
        self.read.borrow_mut().insert(name.to_string());
        self.map.get(name).map(String::as_str)
    }

    /// Boolean presence.
    pub fn has(&self, name: &str) -> bool {
        self.raw(name).is_some()
    }

    /// Call once the command has read every flag it honours and before it
    /// creates anything: a flag nobody read would otherwise be silently
    /// ignored.
    pub fn done(&self) -> Result<(), FlagError> {
        let read = self.read.borrow();
        let mut unread: Vec<&str> =
            self.map.keys().map(String::as_str).filter(|name| !read.contains(*name)).collect();
        unread.sort_unstable();
        match unread.as_slice() {
            [] => Ok(()),
            names => Err(FlagError(format!(
                "unknown flag --{} for 'scd {}'",
                names.join(", --"),
                self.cmd
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Flags {
        Flags::parse("test", s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn required_and_optional() {
        let f = parse("--trace t.bin --interval 300 --verbose");
        assert_eq!(f.require::<String>("trace").unwrap(), "t.bin");
        assert_eq!(f.get("interval", 60u32).unwrap(), 300);
        assert_eq!(f.get("missing", 7u32).unwrap(), 7);
        assert!(f.has("verbose"));
    }

    #[test]
    fn missing_required_is_error() {
        let f = parse("");
        assert!(f.require::<String>("trace").is_err());
    }

    #[test]
    fn unread_flags_are_named() {
        let f = parse("--trace t.bin --typo 3 --verbose");
        assert!(f.has("verbose"));
        assert_eq!(
            f.done().unwrap_err().to_string(),
            "unknown flag --trace, --typo for 'scd test'"
        );
        let _ = f.raw("trace");
        let _ = f.get("typo", 0u32);
        assert!(f.done().is_ok());
    }

    #[test]
    fn unparseable_reports_flag_name() {
        let f = parse("--interval banana");
        let err = f.require::<u32>("interval").unwrap_err();
        assert!(err.to_string().contains("--interval"));
    }
}
