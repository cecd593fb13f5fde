//! Minimal dependency-free option parsing: `--flag` and `--key value`.

use std::collections::HashMap;

/// Parsed command-line options.
#[derive(Debug, Default)]
pub struct Options {
    values: HashMap<String, String>,
    flags: Vec<String>,
}

impl Options {
    /// Parses `--key value` pairs and bare `--flag`s (a `--key` followed by
    /// another option or nothing is treated as a flag). Every name must be
    /// one of `known`, the options the subcommand takes, so a misspelt
    /// option fails instead of being ignored.
    pub fn parse(args: &[String], known: &[&str]) -> Result<Self, String> {
        let mut options = Options::default();
        let mut i = 0;
        while i < args.len() {
            let arg = &args[i];
            let Some(name) = arg.strip_prefix("--") else {
                return Err(format!("unexpected argument `{arg}`"));
            };
            if !known.contains(&name) {
                return Err(if known.is_empty() {
                    format!("unknown option `{arg}`: this command takes no options")
                } else {
                    format!("unknown option `{arg}`: expected --{}", known.join(", --"))
                });
            }
            match args.get(i + 1) {
                Some(value) if !value.starts_with("--") => {
                    options.values.insert(name.to_string(), value.clone());
                    i += 2;
                }
                _ => {
                    options.flags.push(name.to_string());
                    i += 1;
                }
            }
        }
        Ok(options)
    }

    /// Whether `--name` was given as a flag.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// The value of `--name value`, if present.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// Parses `--name value` as a number, with a default.
    pub fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value `{v}` for --{name}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KNOWN: &[&str] = &["acs", "csv", "frames", "oracle"];

    fn parse(args: &[&str]) -> Options {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        Options::parse(&owned, KNOWN).expect("valid args")
    }

    #[test]
    fn parses_key_values_and_flags() {
        let o = parse(&["--acs", "12", "--csv", "--frames", "30"]);
        assert_eq!(o.value("acs"), Some("12"));
        assert!(o.flag("csv"));
        assert_eq!(o.number::<u32>("frames", 0).unwrap(), 30);
        assert_eq!(o.number::<u32>("missing", 7).unwrap(), 7);
    }

    #[test]
    fn trailing_key_is_a_flag() {
        let o = parse(&["--oracle"]);
        assert!(o.flag("oracle"));
    }

    #[test]
    fn rejects_positional_arguments() {
        let owned = vec!["positional".to_string()];
        assert!(Options::parse(&owned, KNOWN).is_err());
    }

    #[test]
    fn rejects_unknown_options() {
        let owned = vec!["--acs".to_string(), "4".to_string(), "--ac".to_string()];
        let err = Options::parse(&owned, KNOWN).unwrap_err();
        assert!(err.contains("`--ac`") && err.contains("--frames"), "{err}");
        let err = Options::parse(&owned[..2], &[]).unwrap_err();
        assert!(err.contains("no options"), "{err}");
    }

    #[test]
    fn rejects_bad_numbers() {
        let o = parse(&["--acs", "twelve"]);
        assert!(o.number::<u16>("acs", 0).is_err());
    }
}
