//! The repo benchmark's single binary. See `README.md` beside the
//! manifest for the workloads, the metrics and how to read the output.
//!
//! Three ways in:
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — one measured run
//!   of one workload, ending in one JSON result line (what
//!   `BENCHMARK.json`'s command is called with);
//! * no `--workload` — every workload, five repetitions each, then a
//!   traced repetition and the probes; a table per workload and a JSON
//!   summary (`--quick`, `--repeat-check`, `--seed N`);
//! * `--unit W …` — one repetition in this process, printing the line
//!   protocol of `output::Report`. Internal: every repetition runs in a
//!   fresh process so that `VmHWM` and the allocator start clean.

mod adapter;
mod alloc;
mod metrics;
mod output;
mod speed;
mod stats;
mod tracing;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use metrics::{Better, Kind, END_TO_END};
use output::{Report, Row};
use workloads::WORKLOADS;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Below this share of a core, a repetition was pre-empted: discard it.
const MIN_CPU_SHARE: f64 = 0.9;
/// Discarded repetitions are rerun, at most this many times per run.
const MAX_RERUNS: usize = 2;
/// `--quick` runs every workload at this fraction of its size.
const QUICK_DIV: u64 = 20;

struct Cli {
    workload: Option<String>,
    unit: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    div: u64,
    reps: usize,
    quick: bool,
    repeat_check: bool,
    out_dir: PathBuf,
}

fn usage() -> ! {
    eprintln!(
        "usage: run.sh --workload NAME --seed N --seconds S --trace 0|1\n\
         \x20      run.sh [--seed N] [--quick] [--repeat-check]\n\
         workloads: {}",
        WORKLOADS.map(|w| w.name).join(" ")
    );
    std::process::exit(2);
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        workload: None,
        unit: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        div: 1,
        reps: 5,
        quick: false,
        repeat_check: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        fn num<T: std::str::FromStr>(v: String) -> T {
            v.parse().unwrap_or_else(|_| usage())
        }
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()),
            "--unit" => cli.unit = Some(value()),
            "--seed" => cli.seed = num(value()),
            "--seconds" => cli.seconds = num(value()),
            "--trace" => cli.trace = num::<u8>(value()) != 0,
            "--div" => cli.div = num(value()),
            "--out-dir" => cli.out_dir = PathBuf::from(value()),
            "--quick" => cli.quick = true,
            "--repeat-check" => cli.repeat_check = true,
            _ => usage(),
        }
    }
    if cli.quick {
        cli.div = QUICK_DIV;
        cli.reps = 1;
    }
    let named = cli.workload.iter().chain(&cli.unit);
    for name in named {
        if !WORKLOADS.iter().any(|w| w.name == name) {
            usage();
        }
    }
    cli
}

/// On-CPU nanoseconds of this (single-threaded) process, where the
/// kernel keeps them.
fn cpu_ns() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/schedstat").ok()?;
    stat.split_whitespace().next()?.parse().ok()
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// One repetition, in this process.
fn run_unit(name: &str, cli: &Cli) -> Report {
    let spec = workloads::spec(name, cli.seed, cli.div).expect("checked by parse_cli");
    let mut tracer = tracing::Tracer::new(cli.trace, format!("{name}-seed{}", cli.seed));
    let cpu0 = cpu_ns();
    if cli.trace {
        alloc::start();
    }
    let unit = adapter::run(&spec, cli.seed, &mut tracer);
    let allocs = alloc::stop();
    // Without the kernel's figure there is no noise control: count the
    // repetition as having had its core.
    let cpu_s = match (cpu0, cpu_ns()) {
        (Some(a), Some(b)) => (b - a) as f64 / 1e9,
        _ => unit.unit_wall_s,
    };

    let mut m: BTreeMap<String, f64> = metrics::end_to_end(&unit)
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    m.insert("peak_rss_mb".into(), peak_rss_mb());
    m.extend(metrics::layer_values(&unit));
    m.insert("host.cpu_s".into(), cpu_s);
    m.insert("host.cpu_share".into(), cpu_s / unit.unit_wall_s.max(1e-9));
    if cli.trace {
        let ms = |names: &[&str]| names.iter().map(|n| tracer.total_ms(n)).sum::<f64>();
        m.insert("span.setup_ms".into(), ms(&["setup", "build"]));
        m.insert(
            "span.run_ms".into(),
            ms(&["run", "ramp", "steady", "failover"]),
        );
        m.insert("span.report_ms".into(), ms(&["report"]));
        // What no profiler scope covers: `World::run_until`'s own loop, the
        // event queue's pop and peek, the profiler's clock reads. With it
        // the components sum to `span.run_ms` by construction.
        let attributed: f64 = unit.prof.iter().map(|p| p.0 as f64 / 1e6).sum();
        m.insert("prof.unattributed_ms".into(), m["span.run_ms"] - attributed);
        m.insert("span.ramp_ms".into(), ms(&["ramp"]));
        m.insert("span.steady_ms".into(), ms(&["steady"]));
        m.insert("span.failover_ms".into(), ms(&["failover"]));
        m.insert("alloc.count".into(), allocs.count as f64);
        m.insert("alloc.bytes".into(), allocs.bytes as f64);
        m.insert(
            "alloc.count_per_event".into(),
            allocs.count as f64 / unit.layer.events.max(1) as f64,
        );
        m.insert(
            "alloc.peak_live_mb".into(),
            allocs.peak_live_bytes as f64 / 1e6,
        );
        let counters: Vec<(String, f64)> = m
            .iter()
            .filter(|(k, _)| k.starts_with("prof.") || k.starts_with("alloc."))
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        let path = cli.out_dir.join(format!("{name}.trace.json"));
        let written = std::fs::create_dir_all(&cli.out_dir)
            .and_then(|()| std::fs::write(&path, tracer.to_chrome_json(&counters)));
        if let Err(e) = written {
            eprintln!("cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
    Report {
        metrics: m,
        attempted: unit.attempted,
        failed: unit.failed,
        errors: unit.errors,
    }
}

/// One repetition in a fresh process of this same binary.
fn spawn_unit(name: &str, cli: &Cli, trace: bool) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--unit", name])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--div", &cli.div.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(&cli.out_dir)
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    match Report::from_lines(&stdout) {
        Some(r) if out.status.success() => Ok(r),
        _ => Err(format!(
            "repetition of {name} died ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        )),
    }
}

/// Unit, kind and direction of every metric, by name.
struct Meta {
    unit: &'static str,
    kind: Kind,
    better: Better,
}

fn catalogue() -> BTreeMap<String, Meta> {
    let e2e = END_TO_END
        .iter()
        .map(|d| (d.name.to_string(), d.unit, d.kind, d.better));
    let layers = metrics::per_layer()
        .into_iter()
        .map(|d| (d.name, d.unit, d.kind, d.better));
    e2e.chain(layers)
        .map(|(name, unit, kind, better)| (name, Meta { unit, kind, better }))
        .collect()
}

/// Several repetitions of one workload, combined: host metrics by the
/// best repetition, simulated ones by insisting they are identical.
///
/// Best, not median. Host times are read at reference speed (`speed.rs`),
/// which takes out most of what other tenants of the machine do to a
/// repetition; what is left still only ever slows it down, so the fastest
/// of a few is the steadiest estimate of what the program costs (quartile
/// spread of ten runs during a noisy spell: best of 3, 3.7–6.1 % over the
/// five workloads; median of 3, 7.3–9.6 %; wall clock, best of 3, 11–18 %).
struct Measured {
    report: Report,
    /// `(max − min) / median` of each host metric.
    spreads: BTreeMap<String, f64>,
    reps: usize,
    discarded: usize,
}

/// Runs untraced repetitions until `enough(reps so far, seconds measured)`.
fn measure(name: &str, cli: &Cli, enough: impl Fn(usize, f64) -> bool) -> Measured {
    let mut kept: Vec<Report> = Vec::new();
    let mut errors = Vec::new();
    let (mut measured_s, mut discarded) = (0.0, 0);
    while !enough(kept.len(), measured_s) {
        let t = Instant::now();
        match spawn_unit(name, cli, false) {
            Ok(r) => {
                let share = r.metrics.get("host.cpu_share").copied().unwrap_or(1.0);
                // A discarded repetition still uses up the run's seconds: a
                // run on a pre-empted machine ends on time with fewer kept.
                measured_s += t.elapsed().as_secs_f64();
                if share < MIN_CPU_SHARE && discarded < MAX_RERUNS {
                    discarded += 1;
                    eprintln!("{name}: repetition got {share:.2} of a core; rerunning it");
                    continue;
                }
                kept.push(r);
            }
            Err(e) => {
                errors.push(e);
                break;
            }
        }
    }
    let Some((mut report, spreads)) = combine(&kept) else {
        return Measured {
            report: Report {
                attempted: 1,
                failed: 1,
                errors,
                ..Report::default()
            },
            spreads: BTreeMap::new(),
            reps: 0,
            discarded,
        };
    };
    report.failed += errors.len() as u64;
    report.errors.extend(errors);
    Measured {
        report,
        spreads,
        reps: kept.len(),
        discarded,
    }
}

/// Combines the repetitions of one run (`None` if there are none): the
/// best value of each host metric with its `(max − min) / median`
/// spread, the one value of each simulated metric — a difference between
/// repetitions of one seed is a failed determinism check.
fn combine(kept: &[Report]) -> Option<(Report, BTreeMap<String, f64>)> {
    let catalogue = catalogue();
    let first = kept.first()?;
    // The checks ran in every repetition on the same inputs; report one
    // repetition's count of operations and the worst failure count.
    let mut report = Report {
        attempted: first.attempted,
        failed: kept.iter().map(|r| r.failed).max().unwrap_or(0),
        ..Report::default()
    };
    for e in kept.iter().flat_map(|r| &r.errors) {
        if !report.errors.contains(e) {
            report.errors.push(e.clone());
        }
    }
    let mut spreads = BTreeMap::new();
    for key in first.metrics.keys() {
        let values: Vec<f64> = kept
            .iter()
            .filter_map(|r| r.metrics.get(key).copied())
            .collect();
        let meta = catalogue.get(key);
        if meta.is_some_and(|m| m.kind == Kind::Sim) {
            if values.iter().any(|v| v.to_bits() != values[0].to_bits()) {
                report.failed += 1;
                report.errors.push(format!(
                    "determinism: {key} differs between repetitions of one seed: {values:?}"
                ));
            }
            report.metrics.insert(key.clone(), values[0]);
        } else {
            let pick = if meta.is_some_and(|m| m.better == Better::Higher) {
                f64::max
            } else {
                f64::min
            };
            let best = values.iter().copied().fold(values[0], pick);
            report.metrics.insert(key.clone(), best);
            spreads.insert(key.clone(), stats::spread(&values));
        }
    }
    Some((report, spreads))
}

/// The traced repetition and the probes, merged over an untraced
/// baseline: counts stay the untraced (exact) ones, `prof.*`, `span.*`
/// and `alloc.*` come from the traced repetition.
fn traced(name: &str, cli: &Cli, base: &mut Report, probes: &[(&'static str, f64)]) {
    match spawn_unit(name, cli, true) {
        Ok(t) => {
            let timed = |r: &Report| r.metrics.get("host.ref_s").copied().unwrap_or(0.0);
            let overhead = (timed(&t) / timed(base).max(1e-9) - 1.0) * 100.0;
            base.metrics.insert("trace.overhead_pct".into(), overhead);
            for (k, v) in &t.metrics {
                if ["prof.", "span.", "alloc."]
                    .iter()
                    .any(|p| k.starts_with(p))
                {
                    base.metrics.insert(k.clone(), *v);
                }
            }
            // Tracing must not change what is simulated: every exact count
            // and simulated time of the traced repetition equals the
            // untraced ones.
            let catalogue = catalogue();
            let differing: Vec<&String> = t
                .metrics
                .iter()
                .filter(|(k, _)| catalogue.get(*k).is_some_and(|m| m.kind == Kind::Sim))
                .filter(|(k, v)| base.metrics.get(*k).map(|b| b.to_bits()) != Some(v.to_bits()))
                .map(|(k, _)| k)
                .collect();
            if !differing.is_empty() || t.failed != 0 {
                base.failed += 1;
                base.errors.push(format!(
                    "traced repetition disagrees with the untraced ones on {differing:?}"
                ));
            }
        }
        Err(e) => {
            base.failed += 1;
            base.errors.push(e);
        }
    }
    for (k, v) in probes {
        base.metrics.insert((*k).to_string(), *v);
    }
}

/// `--workload`: one measured run, one JSON result line.
fn driver_mode(name: &str, cli: &Cli) -> ExitCode {
    let mut m = if cli.trace {
        measure(name, cli, |reps, _| reps >= 1)
    } else {
        measure(name, cli, |reps, secs| reps >= 2 && secs >= cli.seconds)
    };
    let names: Vec<(String, &str)> = if cli.trace {
        traced(name, cli, &mut m.report, &adapter::probes::run_all());
        metrics::per_layer()
            .into_iter()
            .map(|d| (d.name, d.unit))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|d| (d.name.to_string(), d.unit))
            .collect()
    };
    println!(
        "{name}: seed {}, {} repetitions ({} discarded as pre-empted)",
        cli.seed, m.reps, m.discarded
    );
    for e in &m.report.errors {
        println!("FAILED: {e}");
    }
    let correct = m.report.failed == 0 && m.report.errors.is_empty() && m.reps > 0;
    println!("{}", output::result_line(&m.report, correct, &names));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One full set: every workload measured, traced and printed.
fn full_set(cli: &Cli, probes: &[(&'static str, f64)]) -> (Vec<(String, Report)>, bool) {
    let catalogue = catalogue();
    let mut all = Vec::new();
    let mut ok = true;
    for w in &WORKLOADS {
        let mut m = measure(w.name, cli, |reps, _| reps >= cli.reps);
        traced(w.name, cli, &mut m.report, probes);
        println!(
            "\n== {} (seed {}, {} repetitions, {} discarded){}\n   {}",
            w.name,
            cli.seed,
            m.reps,
            m.discarded,
            if cli.quick {
                " — QUICK, not for claims"
            } else {
                ""
            },
            w.why
        );
        let e2e: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
        let row = |k: &String, v: &f64| Row {
            name: k.clone(),
            unit: catalogue.get(k).map_or("", |m| m.unit),
            higher_is_better: catalogue.get(k).is_some_and(|m| m.better == Better::Higher),
            value: *v,
            spread: m.spreads.get(k).copied(),
        };
        let (top, rest): (Vec<_>, Vec<_>) = m
            .report
            .metrics
            .iter()
            .partition(|(k, _)| e2e.contains(&k.as_str()));
        println!(" end to end:");
        print!(
            "{}",
            output::table(&top.iter().map(|(k, v)| row(k, v)).collect::<Vec<_>>())
        );
        println!(" per layer:");
        print!(
            "{}",
            output::table(&rest.iter().map(|(k, v)| row(k, v)).collect::<Vec<_>>())
        );
        println!(
            " checks: {} attempted, {} failed",
            m.report.attempted, m.report.failed
        );
        for e in &m.report.errors {
            println!(" FAILED: {e}");
        }
        ok &= m.report.failed == 0 && m.report.errors.is_empty() && m.reps > 0;
        all.push((w.name.to_string(), m.report));
    }
    (all, ok)
}

/// `--repeat-check`: two sets of the same commit must agree within the
/// benchmark's own bounds (host) or exactly (simulated).
fn sets_agree(a: &[(String, Report)], b: &[(String, Report)]) -> bool {
    let mut ok = true;
    for ((name, ra), (_, rb)) in a.iter().zip(b) {
        for d in &END_TO_END {
            let (Some(&x), Some(&y)) = (ra.metrics.get(d.name), rb.metrics.get(d.name)) else {
                continue;
            };
            let agree = match d.kind {
                Kind::Sim => x.to_bits() == y.to_bits(),
                Kind::Host => (x - y).abs() <= d.bound * x.abs().max(y.abs()),
            };
            if !agree {
                ok = false;
                println!(
                    "REPEAT-CHECK: {name} {} read {x} then {y} (bound {})",
                    d.name, d.bound
                );
            }
        }
    }
    ok
}

fn write_summary(dir: &Path, text: &str) {
    let written =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(dir.join("summary.json"), text));
    if let Err(e) = written {
        eprintln!("cannot write summary.json under {}: {e}", dir.display());
    }
}

fn main() -> ExitCode {
    let cli = parse_cli();
    if let Some(name) = &cli.unit {
        print!("{}", run_unit(name, &cli).to_lines());
        return ExitCode::SUCCESS;
    }
    if let Some(name) = &cli.workload {
        return driver_mode(name, &cli);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("probes: direct timings of public APIs ...");
    let probes = adapter::probes::run_all();
    let (first, mut ok) = full_set(&cli, &probes);
    if cli.repeat_check {
        println!("\n#### second set, for --repeat-check");
        let (second, ok2) = full_set(&cli, &probes);
        ok &= ok2 && sets_agree(&first, &second);
    }
    let units = catalogue().into_iter().map(|(k, m)| (k, m.unit)).collect();
    let summary = output::summary_json(cli.seed, cli.quick, nproc, &first, &units);
    write_summary(&cli.out_dir, &summary);
    println!("\n{summary}");
    if ok {
        ExitCode::SUCCESS
    } else {
        println!("FAILED: see above");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(rate: f64, setup: f64, events: f64) -> Report {
        Report {
            metrics: BTreeMap::from([
                ("payload_mb_per_s".to_string(), rate),
                ("setup_s".to_string(), setup),
                ("simnet.events".to_string(), events),
            ]),
            attempted: 10,
            failed: 0,
            errors: Vec::new(),
        }
    }

    #[test]
    fn host_metrics_take_the_best_repetition_by_their_direction() {
        let kept = [
            rep(100.0, 0.3, 7.0),
            rep(120.0, 0.2, 7.0),
            rep(90.0, 0.4, 7.0),
        ];
        let (r, spreads) = combine(&kept).unwrap();
        assert_eq!(r.metrics["payload_mb_per_s"], 120.0);
        assert_eq!(r.metrics["setup_s"], 0.2);
        assert_eq!(r.metrics["simnet.events"], 7.0);
        assert_eq!((r.attempted, r.failed), (10, 0));
        assert_eq!(spreads["payload_mb_per_s"], 0.3);
        assert!(!spreads.contains_key("simnet.events"));
    }

    #[test]
    fn a_simulated_value_that_differs_between_repetitions_fails_the_run() {
        let kept = [rep(100.0, 0.3, 7.0), rep(100.0, 0.3, 8.0)];
        let (r, _) = combine(&kept).unwrap();
        assert_eq!(r.failed, 1);
        assert!(
            r.errors[0].starts_with("determinism: simnet.events"),
            "{:?}",
            r.errors
        );
        assert!(combine(&[]).is_none());
    }
}
