//! Minimal `--flag value` argument parsing (no external dependencies).

use std::collections::BTreeMap;

/// Parsed command line: a subcommand plus positional arguments and
/// `--key value` flags.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Args {
    /// The subcommand (first positional argument).
    pub command: String,
    positionals: Vec<String>,
    flags: BTreeMap<String, String>,
}

/// Argument-parsing error with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parses `argv[1..]`: one subcommand followed by positionals and
    /// `--key value` pairs, in any order. Commands that take no
    /// positionals reject them via [`Args::no_positionals`].
    pub fn parse(argv: impl IntoIterator<Item = String>) -> Result<Args, ArgError> {
        let mut it = argv.into_iter();
        let command = it.next().unwrap_or_default();
        let mut positionals = Vec::new();
        let mut flags = BTreeMap::new();
        while let Some(arg) = it.next() {
            let Some(key) = arg.strip_prefix("--") else {
                positionals.push(arg);
                continue;
            };
            let value = it.next().ok_or_else(|| ArgError(format!("flag --{key} needs a value")))?;
            if flags.insert(key.to_string(), value).is_some() {
                return Err(ArgError(format!("flag --{key} given twice")));
            }
        }
        Ok(Args { command, positionals, flags })
    }

    /// The `i`-th positional argument after the subcommand, if present.
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positionals.get(i).map(String::as_str)
    }

    /// A required positional argument, named for the error message.
    pub fn required_positional(&self, i: usize, name: &str) -> Result<&str, ArgError> {
        self.positional(i).ok_or_else(|| ArgError(format!("missing argument <{name}>")))
    }

    /// Rejects stray positional arguments beyond the first `allowed`.
    pub fn max_positionals(&self, allowed: usize) -> Result<(), ArgError> {
        match self.positionals.get(allowed) {
            None => Ok(()),
            Some(extra) => Err(ArgError(format!("unexpected argument '{extra}'"))),
        }
    }

    /// Rejects any positional argument (most commands take only flags).
    pub fn no_positionals(&self) -> Result<(), ArgError> {
        self.max_positionals(0)
    }

    /// A required string flag.
    pub fn required(&self, key: &str) -> Result<&str, ArgError> {
        self.flags
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| ArgError(format!("missing required flag --{key}")))
    }

    /// An optional string flag.
    pub fn optional(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    /// A required numeric flag.
    pub fn required_num<T: std::str::FromStr>(&self, key: &str) -> Result<T, ArgError> {
        self.required(key)?.parse().map_err(|_| ArgError(format!("flag --{key} must be a number")))
    }

    /// An optional numeric flag with a default.
    pub fn num_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ArgError> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(s) => s.parse().map_err(|_| ArgError(format!("flag --{key} must be a number"))),
        }
    }

    /// Parses byte quantities with optional suffix: `64KB`, `200MB`, `1GB`,
    /// `2TB`, or a plain number of bytes (decimal units, as the paper).
    pub fn bytes_or(&self, key: &str, default: u64) -> Result<u64, ArgError> {
        let Some(s) = self.flags.get(key) else { return Ok(default) };
        parse_bytes(s).ok_or_else(|| ArgError(format!("flag --{key}: bad byte quantity '{s}'")))
    }

    /// Unknown-flag check against the allowed set (catches typos).
    pub fn check_known(&self, allowed: &[&str]) -> Result<(), ArgError> {
        for k in self.flags.keys() {
            if !allowed.contains(&k.as_str()) {
                return Err(ArgError(format!(
                    "unknown flag --{k} (allowed: {})",
                    allowed.iter().map(|a| format!("--{a}")).collect::<Vec<_>>().join(", ")
                )));
            }
        }
        Ok(())
    }
}

/// Parses `123`, `64KB`, `200MB`, `1GB`, `2TB` (decimal units).
pub fn parse_bytes(s: &str) -> Option<u64> {
    let s = s.trim();
    let (num, mult) = if let Some(n) = s.strip_suffix("TB") {
        (n, 1_000_000_000_000u64)
    } else if let Some(n) = s.strip_suffix("GB") {
        (n, 1_000_000_000)
    } else if let Some(n) = s.strip_suffix("MB") {
        (n, 1_000_000)
    } else if let Some(n) = s.strip_suffix("KB") {
        (n, 1_000)
    } else if let Some(n) = s.strip_suffix('B') {
        (n, 1)
    } else {
        (s, 1)
    };
    let num = num.trim();
    if let Ok(n) = num.parse::<u64>() {
        return n.checked_mul(mult);
    }
    // `f64` parsing also accepts `nan` and `inf`: neither is a byte
    // quantity, nor is a product past `u64::MAX`.
    let v = num.parse::<f64>().ok()? * mult as f64;
    (v.is_finite() && v >= 0.0 && v < u64::MAX as f64).then_some(v as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, ArgError> {
        Args::parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_command_and_flags() {
        let a = args("plan --v 1000 --element-bytes 500KB").unwrap();
        assert_eq!(a.command, "plan");
        assert_eq!(a.required_num::<u64>("v").unwrap(), 1000);
        assert_eq!(a.bytes_or("element-bytes", 0).unwrap(), 500_000);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(args("run v 10").unwrap().no_positionals().is_err()); // not --v
        assert!(args("run --v").is_err()); // missing value
        assert!(args("run --v 1 --v 2").is_err()); // duplicate
        let a = args("run --bogus 1").unwrap();
        assert!(a.check_known(&["v"]).is_err());
        assert!(a.required("v").is_err());
    }

    #[test]
    fn positionals_are_collected_in_order() {
        let a = args("trace diff a.json b.json --chrome out.json").unwrap();
        assert_eq!(a.command, "trace");
        assert_eq!(a.positional(0), Some("diff"));
        assert_eq!(a.positional(1), Some("a.json"));
        assert_eq!(a.positional(2), Some("b.json"));
        assert_eq!(a.positional(3), None);
        assert_eq!(a.required("chrome").unwrap(), "out.json");
        assert!(a.required_positional(3, "extra").is_err());
        assert!(a.max_positionals(3).is_ok());
        assert!(a.max_positionals(2).is_err());
        assert!(a.no_positionals().is_err());
        assert!(args("plan --v 10").unwrap().no_positionals().is_ok());
    }

    #[test]
    fn byte_suffixes() {
        assert_eq!(parse_bytes("123"), Some(123));
        assert_eq!(parse_bytes("64KB"), Some(64_000));
        assert_eq!(parse_bytes("1.5MB"), Some(1_500_000));
        assert_eq!(parse_bytes("1GB"), Some(1_000_000_000));
        assert_eq!(parse_bytes("2TB"), Some(2_000_000_000_000));
        assert_eq!(parse_bytes("10B"), Some(10));
        assert_eq!(parse_bytes("x"), None);
        assert_eq!(parse_bytes("-5MB"), None);
        assert_eq!(parse_bytes("nan"), None);
        assert_eq!(parse_bytes("NaNKB"), None);
        assert_eq!(parse_bytes("inf"), None);
        assert_eq!(parse_bytes("-infinityB"), None);
        assert_eq!(parse_bytes("18446744073709551615"), Some(u64::MAX));
        assert_eq!(parse_bytes("18446744073709552TB"), None);
        assert_eq!(parse_bytes("1e7TB"), Some(10_000_000_000_000_000_000));
        assert_eq!(parse_bytes("1e8TB"), None);
    }

    #[test]
    fn defaults() {
        let a = args("plan").unwrap();
        assert_eq!(a.num_or::<u64>("nodes", 8).unwrap(), 8);
        assert_eq!(a.optional("missing"), None);
    }
}
