//! The one command-line flag walker behind `autofp`, `evald serve` and
//! the experiment binaries.
//!
//! Every flag is `--name` with either no value or exactly one value in
//! the next token. [`Flags::walk`] hands each flag token to the
//! caller's `match`; the arm of a value flag asks for its value with
//! [`Flags::value`] or [`Flags::parse`], and the arm of a valueless
//! flag simply does not ask. A value is never a token that starts with
//! `--`: `--csv --no-header` is "`--csv` needs a value", not a file
//! named `--no-header`. Each binary keeps its own way of reporting the
//! `Err` message.

use std::str::FromStr;

/// A walker over `--flag [value]` arguments (binary name and
/// subcommand already stripped).
#[derive(Debug)]
pub struct Flags<'a> {
    rest: &'a [String],
    flag: &'a str,
}

impl<'a> Flags<'a> {
    /// Hand every token in flag position to `arm`, in order, and stop
    /// at its first error. Any token is handed over, so the arm's
    /// catch-all reports an unknown flag or a stray value in the
    /// binary's own words.
    ///
    /// # Errors
    ///
    /// The first error `arm` returns.
    pub fn walk(
        args: &'a [String],
        mut arm: impl FnMut(&'a str, &mut Flags<'a>) -> Result<(), String>,
    ) -> Result<(), String> {
        let mut flags = Flags { rest: args, flag: "" };
        while let Some((flag, rest)) = flags.rest.split_first() {
            flags.rest = rest;
            flags.flag = flag;
            arm(flag, &mut flags)?;
        }
        Ok(())
    }

    /// The value of the flag the arm was handed.
    ///
    /// # Errors
    ///
    /// "`--flag` needs a value" when the arguments end here or the next
    /// token starts with `--`.
    pub fn value(&mut self) -> Result<&'a str, String> {
        match self.rest.split_first() {
            Some((value, rest)) if !value.starts_with("--") => {
                self.rest = rest;
                Ok(value)
            }
            _ => Err(format!("`{}` needs a value", self.flag)),
        }
    }

    /// [`Flags::value`] parsed as `T`.
    ///
    /// # Errors
    ///
    /// [`Flags::value`]'s error, or "`--flag` needs {what}, got
    /// `{value}`" when the value does not parse.
    pub fn parse<T: FromStr>(&mut self, what: &str) -> Result<T, String> {
        let value = self.value()?;
        value.parse().map_err(|_| format!("`{}` needs {what}, got `{value}`", self.flag))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    /// The flags `walk` hands over, each with what its arm read.
    fn walked(args: &[&str], valued: &[&str]) -> (Vec<String>, Result<(), String>) {
        let args = argv(args);
        let mut seen = Vec::new();
        let result = Flags::walk(&args, |flag, flags| {
            if valued.contains(&flag) {
                seen.push(format!("{flag}={}", flags.value()?));
            } else {
                seen.push(flag.to_string());
            }
            Ok(())
        });
        (seen, result)
    }

    #[test]
    fn arms_take_values_or_not() {
        let args = ["--n", "3", "--quiet", "--name", "", "stray"];
        let (seen, result) = walked(&args, &["--n", "--name"]);
        assert_eq!(seen, ["--n=3", "--quiet", "--name=", "stray"]);
        assert_eq!(result, Ok(()), "an empty value is the arm's to judge");
    }

    #[test]
    fn a_value_is_never_the_next_flag() {
        let (seen, result) = walked(&["--dir", "--dry-run"], &["--dir"]);
        assert!(seen.is_empty());
        assert_eq!(result, Err("`--dir` needs a value".to_string()));
        let (_, result) = walked(&["--quiet", "--dir"], &["--dir"]);
        assert_eq!(result, Err("`--dir` needs a value".to_string()));
        // A single leading dash is a value, so negative numbers pass.
        let (seen, result) = walked(&["--offset", "-1"], &["--offset"]);
        assert_eq!((seen, result), (vec!["--offset=-1".to_string()], Ok(())));
    }

    #[test]
    fn parse_errors_name_the_flag_and_the_value() {
        let args = argv(&["--port", "8080", "--port", "many"]);
        let mut ports = Vec::new();
        let result = Flags::walk(&args, |_, flags| {
            ports.push(flags.parse::<u16>("an integer in 0..=65535")?);
            Ok(())
        });
        assert_eq!(ports, [8080]);
        assert_eq!(result, Err("`--port` needs an integer in 0..=65535, got `many`".to_string()));
    }
}
