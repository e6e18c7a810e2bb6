//! Bounded-exhaustive fault-timing explorer: enumerate (don't sample)
//! every point of the milestone-anchored 1-fault + canonicalized
//! 2-fault lattice, judge each with the invariant checker, and write a
//! schema-versioned coverage report.
//!
//! Run with: `cargo run -p sttcp-bench --bin state_explore --release`
//!
//! Options:
//! * `--workload W`  verifying workload: `download` (default),
//!   `reqresp`, or `commit-stream`
//! * `--threads N`   worker threads for case execution (default 1;
//!   results are bit-identical at any thread count)
//! * `--budget N`    run at most N lattice points, evenly strided
//!   across the lattice (PR-CI smoke; default: the full lattice)
//! * `--seed N`      replay seed for the probe and every point
//!   (default 0)
//! * `--full`        full-size chaos profile (default is the quick
//!   profile — the lattice has tens of thousands of points)
//! * `--json PATH`   write the coverage `MetricsReport` to PATH
//! * `--verbose`     print every violating point as it folds
//!
//! Exit status is 1 if any invariant violation was found.

use std::path::PathBuf;
use std::process::ExitCode;

use sttcp_apps::chaos::{ChaosOptions, ChaosWorkload};
use sttcp_bench::cli::ArgReader;
use sttcp_bench::explore::{run_explore, ExploreConfig};
use sttcp_bench::flight::{dumps_to_json, flight_dir_for, write_flight_dump, FlightDumpPaths};

struct Args {
    workload: ChaosWorkload,
    threads: usize,
    budget: Option<usize>,
    seed: u64,
    full: bool,
    json: Option<PathBuf>,
    verbose: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: ChaosWorkload::Download,
        threads: 1,
        budget: None,
        seed: 0,
        full: false,
        json: None,
        verbose: false,
    };
    let mut it = ArgReader::new(
        "usage: state_explore [--workload download|reqresp|commit-stream] [--threads N] \
         [--budget N] [--seed N] [--full] [--json PATH] [--verbose]",
    );
    while let Some(a) = it.flag() {
        match a.as_str() {
            "--workload" => {
                let v = it.value("--workload");
                args.workload = v
                    .parse()
                    .unwrap_or_else(|e| it.die(&format!("--workload: {e}")));
            }
            "--threads" => args.threads = it.num("--threads"),
            "--budget" => args.budget = Some(it.num("--budget")),
            "--seed" => args.seed = it.num("--seed"),
            "--full" => args.full = true,
            "--json" => args.json = Some(PathBuf::from(it.value("--json"))),
            "--verbose" => args.verbose = true,
            other => it.die(&format!("unknown option {other:?}")),
        }
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();
    let opts = if args.full {
        ChaosOptions::default()
    } else {
        ChaosOptions::quick()
    };
    let cfg = ExploreConfig {
        seed: args.seed,
        workload: args.workload,
        threads: args.threads,
        budget: args.budget,
    };

    println!(
        "state explore: workload {}, seed {}{}{}",
        args.workload,
        args.seed,
        match args.budget {
            Some(b) => format!(", budget {b}"),
            None => ", full lattice".to_string(),
        },
        if args.threads > 1 {
            format!(", {} threads", args.threads)
        } else {
            String::new()
        },
    );

    let flight_dir = flight_dir_for(args.json.as_deref());
    let mut flight_dumps: Vec<FlightDumpPaths> = Vec::new();
    let run = run_explore(&cfg, &opts, |v| {
        println!(
            "VIOLATION class [{}] at lattice point {}: {}",
            v.invariants.join(", "),
            v.index,
            v.schedule
        );
        println!(
            "  shrunk to {} action(s) in {} probe runs:",
            v.shrunk.len(),
            v.shrink_runs
        );
        println!(
            "    cargo run -p sttcp-bench --bin chaos_hunt -- \\\n      \
             --seed {} --schedule \"{}\"",
            args.seed, v.shrunk
        );
        // The shrinker replays the minimized schedule once, so every
        // new violation class ships with its flight-recorder trace.
        if let Some(snap) = &v.flight {
            match write_flight_dump(&flight_dir, &format!("point{}", v.index), snap) {
                Ok(w) => {
                    println!(
                        "  flight dump: {} ({} events; open {} in ui.perfetto.dev)",
                        w.dump.display(),
                        w.events,
                        w.trace.display()
                    );
                    flight_dumps.push(w);
                }
                Err(e) => eprintln!("  failed to write flight dump for point {}: {e}", v.index),
            }
        }
    });

    let lat = &run.lattice;
    println!();
    println!(
        "milestones harvested     {:>7}  (probe run, fault-free)",
        lat.milestones.len()
    );
    println!("anchors                  {:>7}", lat.anchors.len());
    println!("1-fault points           {:>7}", lat.single_points);
    println!(
        "2-fault points           {:>7}  ({} mirrored + {} vacuous pruned)",
        lat.pair_points, lat.mirrored_pruned, lat.vacuous_pruned
    );
    println!("lattice points total     {:>7}", lat.schedules.len());
    println!("points run               {:>7}", run.summary.points);
    println!();
    for (k, n) in &run.summary.outcomes {
        println!("{k:<24} {n:>7}");
    }
    println!(
        "distinct outcomes        {:>7}  (behavior fingerprints)",
        run.summary.fingerprints.len()
    );
    if args.verbose {
        println!("\nverdict-matrix cells hit:");
        for (k, n) in &run.summary.verdict_cells {
            println!("  {k:<22} {n:>7}");
        }
    } else {
        println!(
            "verdict cells hit        {:>7}",
            run.summary.verdict_cells.len()
        );
    }

    if let Some(path) = &args.json {
        let mut report = run.to_report(&cfg);
        report.set("flight_dumps", dumps_to_json(&flight_dumps));
        if let Err(e) = report.write_to(path) {
            eprintln!("failed to write {}: {e}", path.display());
            return ExitCode::from(1);
        }
        println!("coverage report written to {}", path.display());
    }

    if run.summary.violation_points == 0 {
        println!("\nno invariant violations — the explored lattice is clean");
        ExitCode::SUCCESS
    } else {
        println!(
            "\n{} violating point(s) in {} class(es)",
            run.summary.violation_points,
            run.summary.violations.len()
        );
        ExitCode::from(1)
    }
}
