//! The command line the paper binaries share: `--json <path>` and
//! `--threads <n>`, each accepted only by a binary whose usage line
//! names it, so the usage line and the parser cannot disagree.

use std::path::PathBuf;
use std::process::exit;

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
    let fail = |msg: String| -> ! {
        eprintln!("{msg}");
        exit(2)
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--help" | "-h" => {
                eprintln!("{usage}");
                exit(0);
            }
            "--json" if usage.contains("--json") => match args.next() {
                Some(p) => cli.json = Some(PathBuf::from(p)),
                None => fail("--json requires a path".into()),
            },
            "--threads" if usage.contains("--threads") => {
                match args.next().and_then(|v| v.parse().ok()) {
                    Some(n) => cli.threads = n,
                    None => fail("--threads requires a number".into()),
                }
            }
            other => fail(format!("unknown argument: {other}")),
        }
    }
    cli
}
