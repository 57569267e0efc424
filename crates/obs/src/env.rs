//! Validated settings, shared across the workspace: every `DOSCO_*`
//! override ([`parse_lookup`]) and every flag of a shipped binary
//! ([`Flags`]) goes through one parse-and-validate step. A rejected value
//! is one [`SettingError`], `NAME must be EXPECTED, got "VALUE"`: a
//! binary prints that one line and exits with code 2
//! ([`SettingError::exit`]), and exits with code 1 on a file it cannot
//! read. An unset or blank variable, like an absent flag, keeps the
//! default; a blank or missing flag value, or an unnamed `--flag`, is an
//! error — never a silent fallback.

use std::str::FromStr;

/// A rejected setting: the flag (`--steps`) or variable (`DOSCO_SEEDS`),
/// the offending value and what was expected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SettingError {
    /// The flag or variable; `flag` for an argument that names no flag.
    pub name: &'static str,
    /// The value that could not be parsed or validated.
    pub value: String,
    /// What the setting expects.
    pub expected: String,
}

impl std::fmt::Display for SettingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (name, expected, value) = (self.name, &self.expected, &self.value);
        write!(f, "{name} must be {expected}, got {value:?}")
    }
}

impl std::error::Error for SettingError {}

impl SettingError {
    /// Prints the error's one line on stderr and exits with code 2, the
    /// usage error: no panic, no backtrace.
    pub fn exit(&self) -> ! {
        eprintln!("{self}");
        std::process::exit(2)
    }
}

/// The one parse-and-validate step: `raw` through `parse`, or the error
/// naming `name`, `raw` and `expected`.
fn check<T>(
    name: &'static str,
    raw: &str,
    expected: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Result<T, SettingError> {
    parse(raw).ok_or_else(|| SettingError {
        name,
        value: raw.to_string(),
        expected: expected.to_string(),
    })
}

/// Parses the variable `var` through `get` (injectable for tests — no
/// process-global environment mutation), whitespace trimmed: `Ok(None)`
/// when unset, empty or blank.
///
/// # Errors
///
/// Returns [`SettingError`] for a value that does not parse or fails
/// `valid`.
pub fn parse_lookup<T: FromStr>(
    get: &dyn Fn(&str) -> Option<String>,
    var: &'static str,
    expected: &str,
    valid: impl Fn(&T) -> bool,
) -> Result<Option<T>, SettingError> {
    match get(var).as_deref().map(str::trim) {
        None | Some("") => Ok(None),
        Some(raw) => check(var, raw, expected, |r| r.parse().ok().filter(valid)).map(Some),
    }
}

/// The command line of one binary, split against the flags it names.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Flags {
    /// Each value flag given and the argument after it ("" if none).
    values: Vec<(String, String)>,
    switches: Vec<String>,
    operands: Vec<String>,
}

impl Flags {
    /// Splits `args` (without the program name) against `values`, the
    /// space-separated flags that take the next argument as their value
    /// whatever it is, and `switches`, those that stand alone. Any other
    /// argument is an operand.
    ///
    /// # Errors
    ///
    /// Returns [`SettingError`] for an argument that starts with `--` but
    /// is named in neither list.
    pub fn parse(
        args: impl IntoIterator<Item = String>,
        values: &str,
        switches: &str,
    ) -> Result<Self, SettingError> {
        let (mut flags, mut args) = (Flags::default(), args.into_iter());
        let named = |list: &str, arg: &str| list.split_whitespace().any(|n| n == arg);
        while let Some(arg) = args.next() {
            if named(values, &arg) {
                flags.values.push((arg, args.next().unwrap_or_default()));
            } else if named(switches, &arg) {
                flags.switches.push(arg);
            } else if arg.starts_with("--") {
                let known = format!("{values} {switches}");
                let known = known.split_whitespace().collect::<Vec<_>>().join("|");
                let expected = match known.as_str() {
                    "" => "absent (this command reads no flags)".to_string(),
                    _ => format!("one of {known}"),
                };
                return check("flag", &arg, &expected, |_| None);
            } else {
                flags.operands.push(arg);
            }
        }
        Ok(flags)
    }

    /// The value of the flag `name` (its first occurrence) parsed as `T`
    /// and accepted by `valid`; `None` when the flag is absent.
    ///
    /// # Errors
    ///
    /// Returns [`SettingError`] for a value that is empty, does not parse
    /// or fails `valid`.
    pub fn value<T: FromStr>(
        &self,
        name: &'static str,
        expected: &str,
        valid: impl Fn(&T) -> bool,
    ) -> Result<Option<T>, SettingError> {
        self.value_by(name, expected, |raw| raw.parse().ok().filter(valid))
    }

    /// [`Flags::value`] for a value that names something through `parse`
    /// (an arrival pattern, an algorithm) instead of a [`FromStr`]: an
    /// empty value, or one `parse` rejects, is the error.
    pub fn value_by<T>(
        &self,
        name: &'static str,
        expected: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<Option<T>, SettingError> {
        let Some((_, raw)) = self.values.iter().find(|(n, _)| n == name) else {
            return Ok(None);
        };
        let non_empty = |raw: &str| parse(raw).filter(|_| !raw.trim().is_empty());
        check(name, raw, expected, non_empty).map(Some)
    }

    /// [`Flags::value`] for a flag without a default: an absent flag is the
    /// error of an empty value.
    pub fn required<T: FromStr>(
        &self,
        name: &'static str,
        expected: &str,
        valid: impl Fn(&T) -> bool,
    ) -> Result<T, SettingError> {
        let value = self.value(name, expected, valid)?;
        value.map_or_else(|| check(name, "", expected, |_| None), Ok)
    }

    /// Whether the switch `name` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// The arguments that are neither a flag nor a flag's value, in order.
    pub fn operands(&self) -> &[String] {
        &self.operands
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env_of<'a>(pairs: &'a [(&'a str, &'a str)]) -> impl Fn(&str) -> Option<String> + 'a {
        move |var| {
            pairs
                .iter()
                .find(|(k, _)| *k == var)
                .map(|(_, v)| (*v).to_string())
        }
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn unset_and_empty_mean_default() {
        let get = env_of(&[("EMPTY", ""), ("BLANK", "  \t ")]);
        assert_eq!(
            parse_lookup::<u64>(&get, "UNSET", "a number", |_| true),
            Ok(None)
        );
        assert_eq!(
            parse_lookup::<u64>(&get, "EMPTY", "a number", |_| true),
            Ok(None)
        );
        assert_eq!(
            parse_lookup::<u64>(&get, "BLANK", "a number", |_| true),
            Ok(None)
        );
    }

    #[test]
    fn valid_values_parse_with_whitespace_trimmed() {
        let get = env_of(&[("N", " 42 ")]);
        assert_eq!(
            parse_lookup::<u64>(&get, "N", "a number", |&v| v > 0),
            Ok(Some(42))
        );
    }

    #[test]
    fn malformed_values_name_variable_value_and_expectation() {
        let get = env_of(&[("N", "nope")]);
        let err = parse_lookup::<u64>(&get, "N", "a positive integer", |_| true).unwrap_err();
        assert_eq!(err.name, "N");
        assert_eq!(err.value, "nope");
        assert_eq!(
            err.to_string(),
            "N must be a positive integer, got \"nope\""
        );
    }

    #[test]
    fn validation_rejects_out_of_range_values() {
        let get = env_of(&[("N", "0")]);
        let err = parse_lookup::<u64>(&get, "N", "a positive integer", |&v| v >= 1).unwrap_err();
        assert_eq!(err.value, "0");
    }

    /// A flag's value goes through the same step and the same rendering
    /// as a variable's; switches and operands are kept apart.
    #[test]
    fn flags_split_values_switches_and_operands() {
        let argv = args(&["results", "--steps", "100", "--norm", "--lr", "-0.5"]);
        let flags = Flags::parse(argv, "--steps --lr --seed", "--norm").unwrap();
        assert_eq!(
            flags.value::<usize>("--steps", "a count", |_| true),
            Ok(Some(100))
        );
        assert_eq!(flags.value::<u64>("--seed", "a seed", |_| true), Ok(None));
        assert!(flags.switch("--norm"));
        assert_eq!(flags.operands(), &args(&["results"])[..]);
        let err = flags.value::<f32>("--lr", "a positive number", |&v| v > 0.0);
        assert_eq!(
            err.unwrap_err().to_string(),
            "--lr must be a positive number, got \"-0.5\""
        );
    }

    /// An empty value, a value flag given none at all, and an absent
    /// required flag are each an error, not the default.
    #[test]
    fn empty_and_missing_values_of_a_flag_are_errors() {
        let flags = Flags::parse(args(&["--out", "", "--steps"]), "--out --steps", "").unwrap();
        let err = flags
            .value::<String>("--out", "a file", |_| true)
            .unwrap_err();
        assert_eq!(err.to_string(), "--out must be a file, got \"\"");
        let err = flags
            .value::<usize>("--steps", "a count", |_| true)
            .unwrap_err();
        assert_eq!(err.name, "--steps");
        let err = flags.required::<String>("--policy", "a file", |_| true);
        assert_eq!(
            err.unwrap_err().to_string(),
            "--policy must be a file, got \"\""
        );
    }

    #[test]
    fn an_unknown_flag_names_itself_and_the_known_ones() {
        let err = Flags::parse(args(&["--step", "8000"]), "--steps", "--norm").unwrap_err();
        assert_eq!(
            err.to_string(),
            "flag must be one of --steps|--norm, got \"--step\""
        );
        let err = Flags::parse(args(&["--list"]), "", "").unwrap_err();
        assert_eq!(
            err.to_string(),
            "flag must be absent (this command reads no flags), got \"--list\""
        );
    }
}
