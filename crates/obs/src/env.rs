//! Validated environment-variable parsing, shared across the workspace.
//!
//! Every crate that reads configuration from the environment follows the
//! same contract (first established by `ExpBudget::from_env` in
//! `dosco_bench` and now factored here): an unset or empty/whitespace-only
//! variable means "keep the default", and a set-but-malformed value is a
//! hard error that names the variable, the offending value, and what was
//! expected — never a silent fallback.

use std::str::FromStr;

/// A rejected environment override: names the variable and the offending
/// value instead of a bare parse panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvParseError {
    /// The environment variable that failed validation.
    pub var: &'static str,
    /// The value that could not be parsed or validated.
    pub value: String,
    /// What the variable expects.
    pub expected: &'static str,
}

impl std::fmt::Display for EnvParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid {}={:?}: expected {}",
            self.var, self.value, self.expected
        )
    }
}

impl std::error::Error for EnvParseError {}

/// Parses one override through `get` (injectable for tests — no
/// process-global environment mutation). Unset and empty/whitespace-only
/// values both mean "keep the default" (`Ok(None)`); anything else must
/// parse as `T` and satisfy `valid`, or the error names the variable and
/// raw value.
///
/// # Errors
///
/// Returns [`EnvParseError`] when the variable is set to a non-empty value
/// that does not parse or fails `valid`.
pub fn parse_lookup<T: FromStr>(
    get: &dyn Fn(&str) -> Option<String>,
    var: &'static str,
    expected: &'static str,
    valid: impl Fn(&T) -> bool,
) -> Result<Option<T>, EnvParseError> {
    let Some(raw) = get(var) else {
        return Ok(None);
    };
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Ok(None);
    }
    match trimmed.parse::<T>() {
        Ok(v) if valid(&v) => Ok(Some(v)),
        _ => Err(EnvParseError {
            var,
            value: raw,
            expected,
        }),
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
        assert_eq!(err.var, "N");
        assert_eq!(err.value, "nope");
        assert_eq!(
            err.to_string(),
            "invalid N=\"nope\": expected a positive integer"
        );
    }

    #[test]
    fn validation_rejects_out_of_range_values() {
        let get = env_of(&[("N", "0")]);
        let err = parse_lookup::<u64>(&get, "N", "a positive integer", |&v| v >= 1).unwrap_err();
        assert_eq!(err.value, "0");
    }
}
