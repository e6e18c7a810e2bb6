//! Chaos hunt: sweep seeded multi-fault schedules against the invariant
//! checker, shrink any violation to a minimal reproducer, and print it
//! in paste-able form. Every takeover that ended a run's longest client
//! stall is folded into a phase-latency table (fault → symptom → verdict
//! → STONITH → takeover → restart, p50/p99/max across seeds), the same
//! way in every flavour.
//!
//! Run with: `cargo run -p sttcp-bench --bin chaos_hunt --release`
//!
//! Options:
//! * `--seeds N`          number of seeds to sweep (default 200)
//! * `--start N`          first seed (default 0)
//! * `--threads N`        worker threads for case execution (default 1;
//!   results are bit-identical at any thread count)
//! * `--quick`            smaller download + shorter horizon (CI smoke)
//! * `--double`           double-fault schedules (failure during repair)
//! * `--reintegrate`      reintegrate-then-fail schedules: crash, warm
//!   reboot + rejoin, then crash the other side (a schedule shape: every
//!   reboot rejoins, whatever the flavour)
//! * `--pool`             N-replica pool schedules: kill the active,
//!   usually reboot + rejoin it, then kill the next active — quorum
//!   fencing and rank-ordered takeover under the pool invariants
//!   (`--double`, `--reintegrate` and `--pool` pick one schedule
//!   flavour; giving two is a usage error)
//! * `--seed N`           run exactly one seed, verbosely
//! * `--schedule S`       replay a schedule string (with `--seed`'s seed)
//! * `--workload W`       verifying workload: `download` (default),
//!   `reqresp`, or `commit-stream`
//! * `--grammar`          after the sweep, print the action-grammar
//!   coverage table: injections per action kind and 2-fault kind
//!   combos exercised vs possible
//! * `--verbose`          print every case, not just violations
//! * `--trace`            print the fault log and every server's event
//!   log, merged by time, to stderr (single-case mode)
//! * `--json PATH`        write a `MetricsReport` (outcomes + phase
//!   histograms) to PATH after the sweep
//! * `--enforce-bounds`   fail (exit 1) if any verdict's fault → verdict
//!   latency — every verdict any member logged, in every flavour —
//!   exceeds the configured bound for the detector that fired
//!
//! Exit status is 1 if any invariant violation was found (or, with
//! `--enforce-bounds`, any detection bound was exceeded).

use std::path::PathBuf;
use std::process::ExitCode;

use sttcp::invariant::Outcome;
use sttcp_apps::chaos::{
    run_chaos_case, shrink_schedule, ChaosOptions, ChaosWorkload, FaultSchedule,
};
use sttcp_bench::cli::ArgReader;
use sttcp_bench::flight::{dumps_to_json, flight_dir_for, write_flight_dump, FlightDumpPaths};
use sttcp_bench::hunt::{run_sweep, takeover_phases, Flavour, GrammarCoverage, SweepConfig};

/// Writes the violation's flight-recorder dump pair and prints where it
/// went; returns the paths for the `--json` report's `flight_dumps`
/// section. Failures are reported but never fail the hunt.
fn dump_flight(
    dir: &std::path::Path,
    stem: &str,
    snap: &simnet::flight::FlightSnapshot,
) -> Option<FlightDumpPaths> {
    match write_flight_dump(dir, stem, snap) {
        Ok(w) => {
            println!(
                "  flight dump: {} ({} events; open {} in ui.perfetto.dev)",
                w.dump.display(),
                w.events,
                w.trace.display()
            );
            Some(w)
        }
        Err(e) => {
            eprintln!("  failed to write flight dump {stem}: {e}");
            None
        }
    }
}

struct Args {
    seeds: u64,
    start: u64,
    threads: usize,
    quick: bool,
    flavour: Flavour,
    one_seed: Option<u64>,
    schedule: Option<String>,
    workload: Option<ChaosWorkload>,
    grammar: bool,
    verbose: bool,
    trace: bool,
    flight_always: bool,
    json: Option<PathBuf>,
    enforce_bounds: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        seeds: 200,
        start: 0,
        threads: 1,
        quick: false,
        flavour: Flavour::Single,
        one_seed: None,
        schedule: None,
        workload: None,
        grammar: false,
        verbose: false,
        trace: false,
        flight_always: false,
        json: None,
        enforce_bounds: false,
    };
    let mut it = ArgReader::new(
        "usage: chaos_hunt [--seeds N] [--start N] [--threads N] [--quick] \
         [--double | --reintegrate | --pool] [--seed N [--schedule \"...\"]] \
         [--workload download|reqresp|commit-stream] [--grammar] [--verbose] [--trace] \
         [--flight-always] [--json PATH] [--enforce-bounds]",
    );
    while let Some(a) = it.flag() {
        let mut pick = |f: Flavour| {
            if args.flavour != Flavour::Single && args.flavour != f {
                it.die(&format!(
                    "{}and {}are different schedule flavours: pick one",
                    args.flavour.flag(),
                    f.flag()
                ));
            }
            args.flavour = f;
        };
        match a.as_str() {
            "--seeds" => args.seeds = it.num("--seeds"),
            "--start" => args.start = it.num("--start"),
            "--threads" => args.threads = it.num("--threads"),
            "--quick" => args.quick = true,
            "--double" => pick(Flavour::Double),
            "--reintegrate" => pick(Flavour::Reintegrate),
            "--pool" => pick(Flavour::Pool),
            "--seed" => args.one_seed = Some(it.num("--seed")),
            "--schedule" => args.schedule = Some(it.value("--schedule")),
            "--workload" => {
                let v = it.value("--workload");
                args.workload = Some(
                    v.parse()
                        .unwrap_or_else(|e| it.die(&format!("--workload: {e}"))),
                );
            }
            "--grammar" => args.grammar = true,
            "--verbose" => args.verbose = true,
            "--trace" => args.trace = true,
            "--flight-always" => args.flight_always = true,
            "--json" => args.json = Some(PathBuf::from(it.value("--json"))),
            "--enforce-bounds" => args.enforce_bounds = true,
            other => it.die(&format!("unknown option {other:?}")),
        }
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();
    let mut opts = if args.quick {
        ChaosOptions::quick()
    } else {
        ChaosOptions::default()
    };
    opts.trace = args.trace;
    opts.flight_always = args.flight_always;
    if let Some(w) = args.workload {
        opts.workload = w;
    }
    let topology = args.flavour.topology();
    let mut coverage = GrammarCoverage::default();

    // Single-case mode: replay one seed (and optionally a pasted
    // schedule) with full detail.
    if args.one_seed.is_some() || args.schedule.is_some() {
        let seed = args.one_seed.unwrap_or(0);
        let schedule = match &args.schedule {
            Some(s) => s.parse::<FaultSchedule>().unwrap_or_else(|e| {
                eprintln!("--schedule: {e}");
                std::process::exit(2);
            }),
            None => args.flavour.schedule(seed),
        };
        println!("seed {seed}: {schedule}");
        let report = run_chaos_case(topology, seed, &schedule, &opts);
        println!("outcome: {}", report.outcome);
        println!("client: {:?}", report.client);
        println!(
            "active at end: {:?}, final ranks: {:?}",
            report.active_at_end, report.final_ranks
        );
        for (at, what) in &report.faults {
            println!("  fault @ {at}: {what}");
        }
        let labels: Vec<String> = (0..report.member_events.len())
            .map(|i| format!("{}:", topology.member_label(i)))
            .collect();
        let width = labels.iter().map(String::len).max().unwrap_or(0);
        for (label, events) in labels.iter().zip(&report.member_events) {
            for e in events {
                println!("  {label:<width$} {e}");
            }
        }
        // Where the stall went: per takeover that ended it.
        for (i, b) in takeover_phases(&report) {
            let taker = topology.member_label(i);
            println!("takeover by {taker} (stall {}):", b.total);
            for (p, d) in obs::timeline::Phase::ALL.iter().zip(b.durations.iter()) {
                println!("  {:<10} {d}", p.name());
            }
        }
        for v in &report.violations {
            println!("VIOLATION [{}]: {}", v.invariant, v.detail);
        }
        if let Some(snap) = &report.flight {
            dump_flight(
                &flight_dir_for(args.json.as_deref()),
                &format!("seed{seed}"),
                snap,
            );
        }
        return if report.outcome == Outcome::Violation {
            ExitCode::from(1)
        } else {
            ExitCode::SUCCESS
        };
    }

    // Sweep mode.
    println!(
        "chaos hunt: {} seeds {}..{} ({}{}{})",
        args.seeds,
        args.start,
        args.start + args.seeds,
        args.flavour.name(),
        if args.quick { ", quick" } else { "" },
        if args.threads > 1 {
            format!(", {} threads", args.threads)
        } else {
            String::new()
        },
    );

    let cfg = SweepConfig {
        seeds: args.seeds,
        start: args.start,
        quick: args.quick,
        flavour: args.flavour,
        threads: args.threads,
    };
    let flight_dir = flight_dir_for(args.json.as_deref());
    let mut flight_dumps: Vec<FlightDumpPaths> = Vec::new();
    let summary = run_sweep(&cfg, &opts, |case| {
        if args.grammar {
            coverage.add(&case.schedule);
        }
        if args.verbose || case.report.outcome == Outcome::Violation {
            println!(
                "seed {}: {} — {}",
                case.seed, case.report.outcome, case.schedule
            );
        }
        if case.report.outcome == Outcome::Violation {
            for v in &case.report.violations {
                println!("  [{}] {}", v.invariant, v.detail);
            }
            println!("  shrinking...");
            let shrunk = shrink_schedule(topology, case.seed, &case.schedule, &opts);
            println!(
                "  minimal reproducer ({} actions, {} probe runs):",
                shrunk.schedule.len(),
                shrunk.runs
            );
            println!(
                "    cargo run -p sttcp-bench --bin chaos_hunt -- \\\n      \
                 {}--seed {} --schedule \"{}\"",
                args.flavour.flag(),
                case.seed,
                shrunk.schedule
            );
            // The shrunk reproducer's trace is the one worth keeping;
            // fall back to the original run's tail if shrinking lost
            // the violation (it shouldn't — replay is deterministic).
            if let Some(snap) = shrunk.flight.as_ref().or(case.report.flight.as_ref()) {
                flight_dumps.extend(dump_flight(
                    &flight_dir,
                    &format!("seed{}", case.seed),
                    snap,
                ));
            }
        }
    });

    println!();
    println!("clean                    {:>6}", summary.clean);
    println!("recovered                {:>6}", summary.recovered);
    println!("detected-unrecoverable   {:>6}", summary.detected);
    println!("service-lost             {:>6}", summary.lost);
    println!("VIOLATIONS               {:>6}", summary.violated.len());
    println!("takeovers                {:>6}", summary.takeovers);

    if args.grammar {
        println!(
            "\naction-grammar coverage across {} schedules:\n",
            args.seeds
        );
        print!("{}", coverage.render_table());
    }

    if !summary.agg.is_empty() {
        println!(
            "\ntakeover phase latencies across {} takeovers:\n",
            summary.agg.failovers()
        );
        print!("{}", summary.agg.render_table());
    }

    println!(
        "\ndetection bounds: {} verdicts checked, {} exceeded",
        summary.bound_checked,
        summary.bound_violations.len()
    );
    for v in &summary.bound_violations {
        println!(
            "BOUND EXCEEDED: seed {} ({}) detected in {:.1} ms > bound {:.1} ms",
            v.seed,
            v.reason,
            v.measured_us as f64 / 1_000.0,
            v.bound_us as f64 / 1_000.0,
        );
    }

    if let Some(path) = &args.json {
        let mut report = summary.to_report(&cfg, args.enforce_bounds);
        report.set("flight_dumps", dumps_to_json(&flight_dumps));
        if let Err(e) = report.write_to(path) {
            eprintln!("failed to write {}: {e}", path.display());
            return ExitCode::from(1);
        }
        println!("metrics report written to {}", path.display());
    }

    let bounds_failed = args.enforce_bounds && !summary.bound_violations.is_empty();
    if summary.violated.is_empty() && !bounds_failed {
        println!("\nno invariant violations — every run within its fault envelope");
        ExitCode::SUCCESS
    } else {
        if !summary.violated.is_empty() {
            println!("\nviolating seeds: {:?}", summary.violated);
        }
        if bounds_failed {
            println!("\ndetection bounds exceeded — see BOUND EXCEEDED lines above");
        }
        ExitCode::from(1)
    }
}
