//! The command line the bench binaries share: one [`ArgReader`] behind
//! every binary's own flags, and [`parse_cli`] for the paper binaries'
//! `--json <path>` and `--threads <n>`, each accepted only by a binary
//! whose usage line names it, so the usage line and the parser cannot
//! disagree.

use std::path::PathBuf;
use std::process::exit;
use std::str::FromStr;

/// The process arguments, read flag by flag against one usage line: a
/// flag's value is taken on demand, and a missing or malformed one
/// prints its message, then the usage line, and exits 2.
pub struct ArgReader<'a> {
    args: std::iter::Skip<std::env::Args>,
    usage: &'a str,
}

impl<'a> ArgReader<'a> {
    /// Reads the process arguments after the program name.
    pub fn new(usage: &'a str) -> ArgReader<'a> {
        ArgReader {
            args: std::env::args().skip(1),
            usage,
        }
    }

    /// The next flag, if any.
    pub fn flag(&mut self) -> Option<String> {
        self.args.next()
    }

    /// Prints `msg`, then the usage line, and exits 2.
    pub fn die(&self, msg: &str) -> ! {
        eprintln!("{msg}");
        eprintln!("{}", self.usage);
        exit(2)
    }

    /// The argument after `flag`.
    pub fn value(&mut self, flag: &str) -> String {
        self.args
            .next()
            .unwrap_or_else(|| self.die(&format!("{flag} needs a value")))
    }

    /// `v`, given for `flag`, as a number (surrounding blanks ignored).
    pub fn parse<T: FromStr>(&self, flag: &str, v: &str) -> T {
        v.trim()
            .parse()
            .unwrap_or_else(|_| self.die(&format!("{flag}: {v:?} is not a number")))
    }

    /// The argument after `flag`, as a number.
    pub fn num<T: FromStr>(&mut self, flag: &str) -> T {
        let v = self.value(flag);
        self.parse(flag, &v)
    }
}

/// What a paper binary was asked for.
#[derive(Debug, Clone)]
pub struct Cli {
    /// Where to write the run's `MetricsReport`, if anywhere.
    pub json: Option<PathBuf>,
    /// Worker threads for independent runs (1: sequential).
    pub threads: usize,
}

/// Reads the process arguments against `usage` (printed by `--help`,
/// which exits 0); a missing value or an argument `usage` does not name
/// exits 2.
pub fn parse_cli(usage: &str) -> Cli {
    let mut cli = Cli {
        json: None,
        threads: 1,
    };
    let mut args = ArgReader::new(usage);
    while let Some(a) = args.flag() {
        match a.as_str() {
            "--help" | "-h" => {
                eprintln!("{usage}");
                exit(0);
            }
            "--json" if usage.contains("--json") => {
                cli.json = Some(PathBuf::from(args.value("--json")))
            }
            "--threads" if usage.contains("--threads") => cli.threads = args.num("--threads"),
            other => args.die(&format!("unknown argument: {other}")),
        }
    }
    cli
}
