//! The workspace's one command-line parser.
//!
//! Every binary declares its flags in a [`Spec`] — the usage line, the
//! flags that take a value, the switches, and how many positional
//! arguments it accepts — and reads typed values off the parsed [`Args`].
//! The grammar is the same everywhere:
//!
//! * `--flag VALUE` sets a value; a repeated flag keeps its last value;
//! * `--switch` sets a switch;
//! * a value is typed on access: integers are decimal or `0x`-prefixed
//!   hexadecimal ([`int`]), lists are comma-separated, and a binary may
//!   pass its own parser (`Class::parse`, a bound check);
//! * `-h`/`--help` prints the usage line to stdout and exits 0;
//! * an unknown flag, a flag missing its value, a value that does not
//!   parse or a surplus positional prints the error and the usage line to
//!   stderr and exits 2 — never a panic.
//!
//! It stands in for `clap` in this hermetic build.

use std::fmt::Display;
use std::path::PathBuf;

/// What a binary accepts on its command line.
#[derive(Debug)]
pub struct Spec<'a> {
    /// The usage line (`usage: NAME ...`), printed for `--help` and on
    /// every error.
    pub usage: &'a str,
    /// Flags followed by a value, separated by whitespace.
    pub values: &'a str,
    /// Flags that stand alone, separated by whitespace.
    pub switches: &'a str,
    /// The most positional arguments the binary takes.
    pub positionals: usize,
}

/// A parsed command line; typed accessors exit 2 on a bad value.
#[derive(Debug)]
pub struct Args {
    prog: String,
    usage: String,
    values: Vec<(String, String)>,
    switches: Vec<String>,
    positionals: Vec<String>,
}

/// Why parsing stopped short of an [`Args`].
#[derive(Debug, PartialEq)]
enum Stop {
    Help,
    Bad(String),
}

impl Spec<'_> {
    /// Parse the process's own arguments, exiting on `--help` or an error.
    pub fn parse(&self) -> Args {
        let argv = std::env::args_os().map(|a| a.to_string_lossy().into_owned());
        match self.parse_from(argv) {
            Ok(args) => args,
            Err(Stop::Help) => {
                println!("{}", self.usage);
                std::process::exit(0);
            }
            Err(Stop::Bad(msg)) => exit_usage(&msg, self.usage),
        }
    }

    /// Parse `argv` (program name first).
    fn parse_from(&self, argv: impl IntoIterator<Item = String>) -> Result<Args, Stop> {
        let mut argv = argv.into_iter();
        let prog = prog_name(argv.next().unwrap_or_default());
        let (mut values, mut switches, mut positionals) = (Vec::new(), Vec::new(), Vec::new());
        while let Some(arg) = argv.next() {
            let a = arg.as_str();
            if a == "-h" || a == "--help" {
                return Err(Stop::Help);
            } else if self.values.split_whitespace().any(|f| f == a) {
                let v = argv
                    .next()
                    .ok_or_else(|| Stop::Bad(format!("{prog}: {a} needs a value")))?;
                values.push((arg, v));
            } else if self.switches.split_whitespace().any(|f| f == a) {
                switches.push(arg);
            } else if !a.starts_with('-') && positionals.len() < self.positionals {
                positionals.push(arg);
            } else {
                return Err(Stop::Bad(format!("{prog}: unknown argument {a}")));
            }
        }
        Ok(Args {
            prog,
            usage: self.usage.to_string(),
            values,
            switches,
            positionals,
        })
    }
}

/// The file name of `argv[0]`, for error messages.
fn prog_name(argv0: String) -> String {
    match std::path::Path::new(&argv0).file_name() {
        Some(name) => name.to_string_lossy().into_owned(),
        None => argv0,
    }
}

fn exit_usage(msg: &str, usage: &str) -> ! {
    eprintln!("{msg}\n{usage}");
    std::process::exit(2);
}

impl Args {
    /// Whether the switch `name` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// The value of `name` parsed as `T`, if the flag was given.
    pub fn value<T: FromArg>(&self, name: &str) -> Option<T> {
        self.value_with(name, T::from_arg)
    }

    /// The value of `name` through `parse`, if the flag was given; a
    /// value `parse` refuses exits 2.
    pub fn value_with<T>(&self, name: &str, parse: impl Fn(&str) -> Option<T>) -> Option<T> {
        let (_, v) = self.values.iter().rev().find(|(n, _)| n == name)?;
        Some(parse(v).unwrap_or_else(|| self.fail(format!("bad value {v:?} for {name}"))))
    }

    /// The comma-separated list `name`, each item parsed as `T`.
    pub fn list<T: FromArg>(&self, name: &str) -> Option<Vec<T>> {
        self.list_with(name, T::from_arg)
    }

    /// The comma-separated list `name`, each item through `parse`.
    pub fn list_with<T>(&self, name: &str, parse: impl Fn(&str) -> Option<T>) -> Option<Vec<T>> {
        self.value_with(name, |v| v.split(',').map(&parse).collect())
    }

    /// Positional argument `index` through `parse`, if given.
    pub fn positional_with<T>(&self, index: usize, parse: impl Fn(&str) -> Option<T>) -> Option<T> {
        let v = self.positionals.get(index)?;
        Some(parse(v).unwrap_or_else(|| self.fail(format!("bad argument {v:?}"))))
    }

    /// Report a usage error (arguments that parse but do not fit
    /// together) and exit 2.
    pub fn fail(&self, msg: impl Display) -> ! {
        exit_usage(&format!("{}: {msg}", self.prog), &self.usage)
    }
}

/// A type a flag's value can be parsed as.
pub trait FromArg: Sized {
    /// `s` as `Self`, or `None` when it does not parse.
    fn from_arg(s: &str) -> Option<Self>;
}

/// `s` as an unsigned integer: `0x`-prefixed hexadecimal, else decimal.
pub fn int(s: &str) -> Option<u64> {
    let s = s.trim();
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

macro_rules! from_int {
    ($($t:ty),*) => {$(
        impl FromArg for $t {
            fn from_arg(s: &str) -> Option<$t> {
                int(s)?.try_into().ok()
            }
        }
    )*};
}

from_int!(u8, u16, u32, u64, usize);

impl FromArg for f64 {
    fn from_arg(s: &str) -> Option<f64> {
        s.trim().parse().ok()
    }
}

impl FromArg for String {
    fn from_arg(s: &str) -> Option<String> {
        Some(s.to_string())
    }
}

impl FromArg for PathBuf {
    fn from_arg(s: &str) -> Option<PathBuf> {
        Some(s.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: Spec = Spec {
        usage: "usage: tool [--n N] [--list A,B] [--fast] [X]",
        values: "--n --list",
        switches: "--fast",
        positionals: 1,
    };

    fn parse(argv: &[&str]) -> Result<Args, Stop> {
        let argv = std::iter::once("/bin/tool").chain(argv.iter().copied());
        SPEC.parse_from(argv.map(String::from))
    }

    #[test]
    fn values_switches_lists_and_positionals_parse() {
        let a = parse(&[
            "--n", "0x10", "--fast", "pos", "--list", "1, 2,3", "--n", "7",
        ])
        .unwrap();
        assert_eq!(a.prog, "tool");
        assert_eq!(a.value::<u32>("--n"), Some(7), "the last value wins");
        assert!(a.switch("--fast"));
        assert_eq!(a.list::<usize>("--list"), Some(vec![1, 2, 3]));
        assert_eq!(a.positional_with(0, |s| Some(s.len())), Some(3));
        assert_eq!(a.positional_with(1, |s| Some(s.len())), None);
        let a = parse(&[]).unwrap();
        assert_eq!(a.value::<u32>("--n"), None);
        assert!(!a.switch("--fast"));
    }

    #[test]
    fn bad_command_lines_stop_with_a_reason() {
        let bad = |m: &str| Err(Stop::Bad(format!("tool: {m}")));
        assert_eq!(parse(&["--n"]).map(drop), bad("--n needs a value"));
        assert_eq!(
            parse(&["--bogus"]).map(drop),
            bad("unknown argument --bogus")
        );
        assert_eq!(
            parse(&["a", "b"]).map(drop),
            bad("unknown argument b"),
            "one positional too many"
        );
        assert_eq!(parse(&["--fast", "-h"]).unwrap_err(), Stop::Help);
        assert_eq!(parse(&["--help", "--bogus"]).unwrap_err(), Stop::Help);
        // A flag's value is taken as given, even when it looks like a flag.
        let a = parse(&["--list", "--help"]).unwrap();
        assert_eq!(a.value::<String>("--list").as_deref(), Some("--help"));
    }

    #[test]
    fn integers_are_decimal_or_hex_and_range_checked() {
        assert_eq!(int("42"), Some(42));
        assert_eq!(int(" 0xC0FFEE "), Some(0xC0FFEE));
        assert_eq!(int("0XfF"), Some(255));
        assert_eq!(int("0x"), None);
        assert_eq!(int("-1"), None);
        assert_eq!(int("12a"), None);
        assert_eq!(u8::from_arg("256"), None);
        assert_eq!(u8::from_arg("0xff"), Some(255));
        assert_eq!(f64::from_arg("2.5"), Some(2.5));
        assert_eq!(f64::from_arg("x"), None);
    }
}
