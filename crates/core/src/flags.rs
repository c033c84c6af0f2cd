//! One declarative flag table per entry point.
//!
//! Every command declares the flags it takes as a `&[Flag]` table —
//! exactly its `USAGE` synopsis — and hands argv to [`parse`]. The
//! global flags every entry point shares (`--metrics`, `--cache`,
//! `--jobs`, ...) are taken out of argv first, from anywhere, by
//! [`take`]. Both spell a flag `--f V` or `--f=V`; a flag outside the
//! table, a repeated flag (unless it is declared repeatable) and a flag
//! without its value are usage errors (exit code 2), so a typo can never
//! silently fall back to a default.
//!
//! The parser only splits argv: values stay strings until the caller
//! runs them through the validator that owns their vocabulary
//! ([`crate::cli::parse_shape`], [`crate::serve::validate_serve_count`],
//! ...).

use pacq_error::{PacqError, PacqResult};

/// One row of a flag table: the flag (dashes included) and how it
/// consumes argv.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flag {
    /// `--f V` / `--f=V`, at most once.
    Value(&'static str),
    /// `--f`, at most once, no value.
    Switch(&'static str),
    /// `--f V` / `--f=V`, any number of times (`--param`).
    Repeat(&'static str),
    /// Not accepted: the usage error names the flag and carries the
    /// hint instead of the generic "unknown flag" (`dse --precision`
    /// points to `--param precision=...`).
    Refused(&'static str, &'static str),
}

impl Flag {
    /// The flag, dashes included (`--shape`).
    pub fn name(&self) -> &'static str {
        match *self {
            Flag::Value(name)
            | Flag::Switch(name)
            | Flag::Repeat(name)
            | Flag::Refused(name, _) => name,
        }
    }
}

/// The flags found in argv, in argv order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Args {
    /// `(flag, value)`; switches carry an empty value.
    found: Vec<(&'static str, String)>,
}

impl Args {
    /// Whether `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.found.iter().any(|(f, _)| *f == name)
    }

    /// The value of `name`, if given.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.found
            .iter()
            .find(|(f, _)| *f == name)
            .map(|(_, v)| v.as_str())
    }

    /// Every value of a repeatable `name`, in argv order.
    pub fn values(&self, name: &str) -> Vec<String> {
        self.found
            .iter()
            .filter(|(f, _)| *f == name)
            .map(|(_, v)| v.clone())
            .collect()
    }

    /// The value of `name` run through its validator, if given.
    ///
    /// # Errors
    ///
    /// Whatever `parse` returns for the value.
    pub fn get<T>(
        &self,
        name: &str,
        parse: impl FnOnce(&str) -> PacqResult<T>,
    ) -> PacqResult<Option<T>> {
        self.value(name).map(parse).transpose()
    }
}

/// Parses `argv` strictly against `table`: every token must be one of
/// its flags (or that flag's value). `command` names the entry point in
/// error messages.
///
/// # Errors
///
/// Returns [`PacqError::Usage`] for a flag outside the table (or one it
/// refuses), a stray positional argument, a repeated non-repeatable
/// flag, a missing value, or a value given to a switch.
pub fn parse(argv: &[String], table: &[Flag], command: &str) -> PacqResult<Args> {
    let (args, rest) = take(argv, table)?;
    match rest.first() {
        None => Ok(args),
        Some(token) if token.starts_with('-') => Err(PacqError::usage(format!(
            "unknown flag `{}` for `{command}`",
            token.split('=').next().unwrap_or(token)
        ))),
        Some(token) => Err(PacqError::usage(format!(
            "unexpected argument `{token}` for `{command}`"
        ))),
    }
}

/// Takes `table`'s flags out of `argv` from anywhere, returning them
/// and every other token in order (the global flags of an entry point
/// come out this way before its command parses the rest).
///
/// # Errors
///
/// Same as [`parse`] for the flags in `table`.
pub fn take(argv: &[String], table: &[Flag]) -> PacqResult<(Args, Vec<String>)> {
    let mut args = Args::default();
    let mut rest = Vec::new();
    let mut it = argv.iter();
    while let Some(token) = it.next() {
        let (name, inline) = match token.split_once('=') {
            Some((name, value)) => (name, Some(value)),
            None => (token.as_str(), None),
        };
        let Some(&flag) = table.iter().find(|f| f.name() == name) else {
            rest.push(token.clone());
            continue;
        };
        let value = match (flag, inline) {
            (Flag::Refused(_, hint), _) => return Err(PacqError::usage(format!("{name}: {hint}"))),
            (Flag::Switch(_), Some(_)) => {
                return Err(PacqError::usage(format!("{name} takes no value")))
            }
            (Flag::Switch(_), None) => String::new(),
            (_, Some(v)) => v.to_string(),
            (_, None) => it
                .next()
                .ok_or_else(|| PacqError::usage(format!("missing value for {name}")))?
                .clone(),
        };
        if !matches!(flag, Flag::Repeat(_)) && args.has(name) {
            return Err(PacqError::usage(format!("{name} given twice")));
        }
        args.found.push((flag.name(), value));
    }
    Ok((args, rest))
}

#[cfg(test)]
mod tests {
    use super::*;

    const TABLE: &[Flag] = &[
        Flag::Value("--shape"),
        Flag::Switch("--json"),
        Flag::Repeat("--param"),
        Flag::Refused("--arch", "no --arch here"),
    ];

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn both_spellings_and_repeats() {
        let args = parse(
            &argv("--shape=m16n16k16 --param a=1 --json --param=b=2"),
            TABLE,
            "t",
        )
        .unwrap();
        assert_eq!(args.value("--shape"), Some("m16n16k16"));
        assert!(args.has("--json"));
        assert_eq!(args.values("--param"), argv("a=1 b=2"));
        let args = parse(&argv("--shape m32n16k16"), TABLE, "t").unwrap();
        assert_eq!(args.value("--shape"), Some("m32n16k16"));
        assert!(!args.has("--json"));
        assert_eq!(args.get("--shape", |v| Ok(v.len())).unwrap(), Some(9));
    }

    #[test]
    fn malformed_argv_is_a_usage_error() {
        for (cmd, needle) in [
            ("--shape a --shape b", "given twice"),
            ("--json --json", "given twice"),
            ("--shape", "missing value for --shape"),
            ("--json=1", "takes no value"),
            ("--jbos 4", "unknown flag `--jbos` for `t`"),
            ("--jbos=4", "unknown flag `--jbos` for `t`"),
            ("-x", "unknown flag `-x`"),
            ("stray", "unexpected argument `stray`"),
            ("--arch pacq", "--arch: no --arch here"),
        ] {
            let err = parse(&argv(cmd), TABLE, "t").unwrap_err();
            assert_eq!(err.exit_code(), 2, "{cmd}");
            assert!(err.to_string().contains(needle), "{cmd}: {err}");
        }
    }

    #[test]
    fn take_leaves_every_other_token_in_order() {
        let (args, rest) = take(&argv("analyze --shape s --dup 4 --json"), TABLE).unwrap();
        assert_eq!(args.value("--shape"), Some("s"));
        assert_eq!(rest, argv("analyze --dup 4"));
    }
}
