//! Simulator throughput suite: measures wall-clock events/sec,
//! bytes/sec, and chaos seeds/sec, and writes a schema-versioned
//! `BENCH_simperf.json` so the performance trajectory is recorded
//! alongside the correctness results.
//!
//! Three measurements:
//!
//! 1. **Steady state** — one fault-free download through the full
//!    ST-TCP stack (`events_per_sec`, `bytes_per_sec`). This is the
//!    single-run number the acceptance gate compares against the
//!    pre-change baseline.
//! 2. **Chaos sweep, 1 thread** — quick-profile `chaos_hunt` seeds per
//!    second on one core (`seeds_per_sec_1t`).
//! 3. **Chaos sweep, N threads** — the same seed range on the worker
//!    pool (`seeds_per_sec_mt`), demonstrating the fan-out speedup.
//!
//! Baseline numbers (measured on the pre-change tree with this same
//! binary) are passed back in via `--baseline-*` flags and embedded in
//! the report, so one file tells the whole before/after story.
//!
//! A fourth, opt-in measurement (`--scale`) ramps thousands of
//! simulated clients against one delta-heartbeat pair with sharded
//! serial links and records conns/sec, heartbeat bytes/conn and
//! bytes/round, the failover stall, and the process's resident memory
//! (`VmHWM`, total and per connection) at each connection count into a
//! `scale` report section.
//!
//! Options:
//! * `--out PATH`                     report path (default `BENCH_simperf.json`)
//! * `--check PATH`                   regression-gate mode: read the
//!   checked-in report at PATH, re-measure steady state (best of 3 to
//!   tolerate machine noise), and exit 1 if the best fresh bytes/sec
//!   falls more than 10% below the snapshot's (events/sec is printed,
//!   not gated: removing events is a win), or if heartbeat
//!   bytes/conn regresses more than 10% above the snapshot's. Skips the
//!   sweeps and writes nothing.
//! * `--scale`                        also run the client-ramp scale bench and
//!   record the `scale` section (budget-gated: exits 1 if HB bytes/conn
//!   exceeds the budget, failover stalls unbounded, or a point of 10 000+
//!   connections is resident above 16 KiB per connection)
//! * `--scale-conns LIST`             comma-separated connection counts for
//!   `--scale` (default `100,1000,10000,100000`)
//! * `--scale-smoke N`                CI smoke: run ONLY the `N`-connection
//!   ramp point, assert the same budgets, write nothing
//! * `--download-bytes N`             steady-state download size (default 4 MiB)
//! * `--chaos-seeds N`                seeds per chaos sweep (default 64)
//! * `--threads N`                    worker threads for the parallel sweep
//!   (default: all cores)
//! * `--baseline-events-per-sec X`    pre-change steady-state events/sec
//! * `--baseline-bytes-per-sec X`     pre-change steady-state bytes/sec
//! * `--baseline-seeds-per-sec X`     pre-change 1-thread seeds/sec

use std::path::PathBuf;
use std::rc::Rc;
use std::time::Instant;

use obs::json::Json;
use obs::report::MetricsReport;
use simnet::profile::Component;
use simnet::time::SimTime;
use sttcp::config::StTcpConfig;
use sttcp::metrics::ServerMetrics;
use sttcp_apps::apps::StreamApp;
use sttcp_apps::chaos::ChaosOptions;
use sttcp_apps::client::ClientWorkload;
use sttcp_apps::pool::PoolScenarioBuilder;
use sttcp_apps::scenario::{Scenario, ScenarioBuilder};
use sttcp_bench::experiments::{
    scale_ramp_end, scale_scenario, SCALE_HB_BATCH, SCALE_SERIAL_LINKS,
};
use sttcp_bench::hunt::{run_sweep, SweepConfig};
use sttcp_bench::parallel::default_threads;

struct Args {
    out: PathBuf,
    check: Option<PathBuf>,
    scale: bool,
    scale_conns: Vec<u64>,
    scale_smoke: Option<u64>,
    download_bytes: u64,
    chaos_seeds: u64,
    threads: usize,
    baseline_events_per_sec: Option<f64>,
    baseline_bytes_per_sec: Option<f64>,
    baseline_seeds_per_sec: Option<f64>,
}

fn parse_args() -> Args {
    let mut args = Args {
        out: PathBuf::from("BENCH_simperf.json"),
        check: None,
        scale: false,
        scale_conns: vec![100, 1000, 10_000, 100_000],
        scale_smoke: None,
        download_bytes: 4 * 1024 * 1024,
        chaos_seeds: 64,
        threads: default_threads(),
        baseline_events_per_sec: None,
        baseline_bytes_per_sec: None,
        baseline_seeds_per_sec: None,
    };
    fn die(msg: &str) -> ! {
        eprintln!("{msg}");
        eprintln!(
            "usage: bench_suite [--out PATH] [--check PATH] [--scale] \
             [--scale-conns LIST] [--scale-smoke N] [--download-bytes N] \
             [--chaos-seeds N] [--threads N] [--baseline-events-per-sec X] \
             [--baseline-bytes-per-sec X] [--baseline-seeds-per-sec X]"
        );
        std::process::exit(2);
    }
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = |name: &str| {
            it.next()
                .unwrap_or_else(|| die(&format!("{name} needs a value")))
        };
        fn num<T: std::str::FromStr>(name: &str, v: String) -> T {
            v.parse().unwrap_or_else(|_| {
                eprintln!("{name}: {v:?} is not a number");
                std::process::exit(2);
            })
        }
        match a.as_str() {
            "--out" => args.out = PathBuf::from(val("--out")),
            "--check" => args.check = Some(PathBuf::from(val("--check"))),
            "--scale" => args.scale = true,
            "--scale-conns" => {
                args.scale_conns = val("--scale-conns")
                    .split(',')
                    .map(|s| num("--scale-conns", s.trim().to_string()))
                    .collect();
                if args.scale_conns.is_empty() {
                    die("--scale-conns needs at least one count");
                }
            }
            "--scale-smoke" => {
                args.scale_smoke = Some(num("--scale-smoke", val("--scale-smoke")));
            }
            "--download-bytes" => {
                args.download_bytes = num("--download-bytes", val("--download-bytes"));
            }
            "--chaos-seeds" => args.chaos_seeds = num("--chaos-seeds", val("--chaos-seeds")),
            "--threads" => args.threads = num("--threads", val("--threads")),
            "--baseline-events-per-sec" => {
                args.baseline_events_per_sec = Some(num(
                    "--baseline-events-per-sec",
                    val("--baseline-events-per-sec"),
                ));
            }
            "--baseline-bytes-per-sec" => {
                args.baseline_bytes_per_sec = Some(num(
                    "--baseline-bytes-per-sec",
                    val("--baseline-bytes-per-sec"),
                ));
            }
            "--baseline-seeds-per-sec" => {
                args.baseline_seeds_per_sec = Some(num(
                    "--baseline-seeds-per-sec",
                    val("--baseline-seeds-per-sec"),
                ));
            }
            other => die(&format!("unknown option {other:?}")),
        }
    }
    args
}

struct SteadyState {
    events: u64,
    bytes: u64,
    wall_us: u64,
    events_per_sec: f64,
    bytes_per_sec: f64,
    /// Virtual-time-deterministic heartbeat payload bytes per announced
    /// connection entry — the `--check` bandwidth gate.
    hb_bytes_per_conn: u64,
}

/// One fault-free download through the full ST-TCP stack: primary +
/// backup + verifying client, heartbeats on, no injected faults.
fn steady_state(total: u64) -> SteadyState {
    let mut s = ScenarioBuilder::new(
        Rc::new(|| Box::new(StreamApp::new(4096, false)) as _),
        ClientWorkload::Download { total },
    )
    .seed(1)
    .build();
    let started = Instant::now();
    // Generous virtual horizon; the loop exits when the client finishes.
    let horizon = SimTime::from_millis(10_000 + total / 100);
    let step = SimTime::from_millis(500);
    let mut until = step;
    while !s.client_finished() && until <= horizon {
        s.world.run_until(until);
        until = SimTime::from_micros(until.as_micros() + step.as_micros());
    }
    let wall = started.elapsed();
    assert!(s.client_finished(), "steady-state download did not finish");
    let events = s.world.events_processed();
    let bytes = s.client_log().total_received;
    let secs = wall.as_secs_f64().max(1e-9);
    SteadyState {
        events,
        bytes,
        wall_us: wall.as_micros() as u64,
        events_per_sec: events as f64 / secs,
        bytes_per_sec: bytes as f64 / secs,
        hb_bytes_per_conn: s
            .server(s.primary)
            .metrics()
            .hb_bandwidth()
            .bytes_per_conn(),
    }
}

/// A second, *profiled* steady-state run: per-component wall-clock
/// attribution (simnet/tcp/sttcp/pool/app buckets) plus heartbeat
/// bandwidth accounting. Kept separate from [`steady_state`] so
/// profiler overhead never touches the numbers the `--check` gate
/// compares. Returns the `profile` and `hb_bandwidth` report sections.
fn profiled_sections(total: u64) -> (Json, Json) {
    let mut s = ScenarioBuilder::new(
        Rc::new(|| Box::new(StreamApp::new(4096, false)) as _),
        ClientWorkload::Download { total },
    )
    .seed(1)
    .build();
    s.world.set_profiling(true);
    let horizon = SimTime::from_millis(10_000 + total / 100);
    let step = SimTime::from_millis(500);
    let mut until = step;
    while !s.client_finished() && until <= horizon {
        s.world.run_until(until);
        until = SimTime::from_micros(until.as_micros() + step.as_micros());
    }
    assert!(s.client_finished(), "profiled download did not finish");

    let p = s.world.profiler();
    let hb = s.server(s.primary).metrics().hb_bandwidth().to_json();

    // A short profiled pool-mode run (3 replicas, small download) so the
    // `pool` bucket reflects real fencing/membership work instead of
    // sitting empty: pair-mode scenarios never execute pool code.
    let mut p3 = PoolScenarioBuilder::new(
        Rc::new(|| Box::new(StreamApp::new(4096, false)) as _),
        ClientWorkload::Download { total: 256 * 1024 },
    )
    .seed(1)
    .replicas(3)
    .build();
    p3.world.set_profiling(true);
    p3.world.run_until(SimTime::from_millis(5_000));
    assert!(
        p3.client_finished(),
        "profiled pool download did not finish"
    );
    let pp = p3.world.profiler();

    let mut profile = Json::obj();
    for c in Component::ALL {
        let a = p.stats(c);
        let b = pp.stats(c);
        let mut o = Json::obj();
        o.set("scopes", Json::U64(a.scopes + b.scopes));
        o.set("self_us", Json::U64((a.self_ns + b.self_ns) / 1_000));
        o.set("total_us", Json::U64((a.total_ns + b.total_ns) / 1_000));
        profile.set(c.key(), o);
    }
    profile.set(
        "total_self_us",
        Json::U64((p.total_self_ns() + pp.total_self_ns()) / 1_000),
    );
    (profile, hb)
}

struct ChaosRate {
    wall_us: u64,
    seeds_per_sec: f64,
}

/// Times a quick-profile chaos sweep at the given thread count.
fn chaos_rate(seeds: u64, threads: usize) -> ChaosRate {
    let cfg = SweepConfig {
        seeds,
        start: 0,
        quick: true,
        double: false,
        reintegrate: false,
        threads,
    };
    let opts = ChaosOptions::quick();
    let started = Instant::now();
    let summary = run_sweep(&cfg, &opts, |_| {});
    let wall = started.elapsed();
    assert!(
        summary.violated.is_empty(),
        "chaos sweep hit invariant violations: {:?}",
        summary.violated
    );
    ChaosRate {
        wall_us: wall.as_micros() as u64,
        seeds_per_sec: seeds as f64 / wall.as_secs_f64().max(1e-9),
    }
}

/// Steady-state heartbeat budget asserted by `--scale`/`--scale-smoke`:
/// bytes per round divided by live connections, in delta mode with an
/// idle-heavy mix. The v1 full-state format costs ~21 bytes/conn; the
/// delta format must come in far under that.
const SCALE_BUDGET_BYTES_PER_CONN: f64 = 8.0;
/// Upper bound on the post-crash takeover stall at any ramp size.
const SCALE_MAX_STALL_US: u64 = 5_000_000;
/// Connection-establishment floor at the 10k ramp point, wall-clock
/// conns/sec. Set at about half the rate measured with one connection
/// table behind the servers (~64 000/s, 58.9-71.3k over six ramps on a
/// two-core container; ~33 600/s with four B-tree maps and nine
/// descents per heartbeat record, ~8 100/s with every-connection walks
/// on the 50 ms check tick) so the scale gate locks the win in: a
/// change that quietly reintroduces either fails here long before the
/// budget gates notice. The host-independent form of this gate is the
/// visit-counter test in `tests/extensions.rs`.
const SCALE_MIN_CONNS_PER_SEC_10K: f64 = 30_000.0;
/// Resident memory per connection (each with its client host) allowed
/// from 10 000 connections up; below that the process's fixed footprint
/// dominates the quotient. Measured 7.4 KiB at 10k and 7.0 at 100k; it
/// was 10.5 KiB while every client endpoint kept wheel levels for its
/// one SYN timer and the event queue's slots kept their high-water
/// marks. The host-independent form of this gate is the live-heap slope
/// test in `tests/extensions.rs`.
const SCALE_MAX_RSS_KIB_PER_CONN: f64 = 10.0;

/// The process's resident-set high-water mark (`VmHWM`) in KiB, where
/// the platform reports one.
fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

struct ScalePoint {
    conns: u64,
    live_conns: u64,
    ramp_wall_us: u64,
    conns_per_sec: f64,
    hb_bytes_per_round: f64,
    hb_bytes_per_conn: f64,
    failover_stall_us: u64,
    /// Connection visits by both servers' periodic timers per check
    /// tick of the steady window (`ServerMetrics::timer_conn_visits`):
    /// follows the active connections, not `conns`.
    visits_per_check: f64,
    /// 32-bit `conn_key` collisions seen by either server.
    conn_key_collisions: u64,
    /// The process's resident high-water mark after this point, if the
    /// point set it: `None` when the mark did not move (an earlier,
    /// larger point owns it) or the platform has no `VmHWM`.
    peak_rss_kib: Option<u64>,
}

impl ScalePoint {
    fn rss_kib_per_conn(&self) -> Option<f64> {
        self.peak_rss_kib
            .map(|kib| kib as f64 / self.live_conns.max(1) as f64)
    }
}

/// Sums one [`ServerMetrics`] counter over both servers of the pair.
fn both_servers(s: &Scenario, counter: impl Fn(&ServerMetrics) -> u64) -> u64 {
    [s.primary, s.backup]
        .iter()
        .map(|&n| counter(s.server(n).metrics()))
        .sum()
}

/// One ramp point: `total_conns` clients (1 ms connect stagger, an
/// idle-heavy mix with one downloader per 500 connections) against a
/// batched delta-heartbeat pair with 4 sharded serial links. Measures the
/// connection-establishment rate, the steady-state heartbeat cost once
/// every counter is acknowledged, and the takeover stall after a
/// primary crash.
fn scale_point(total_conns: u64) -> ScalePoint {
    let check_period = StTcpConfig::default().check_period;
    let rss_before = peak_rss_kib();
    let mut s = scale_scenario(total_conns, 7);

    // Ramp: every client connected, plus settling room for the tail.
    let ramp_end = scale_ramp_end(total_conns);
    let started = Instant::now();
    s.world.run_until(ramp_end);
    let ramp_wall = started.elapsed();
    let live = s.server(s.primary).conn_keys().len() as u64;

    // Steady window: 2 s of virtual time with all counters acked.
    let before = s.server(s.primary).metrics().hb_bandwidth();
    let visits_before = both_servers(&s, ServerMetrics::timer_conn_visits);
    let steady_end = SimTime::from_micros(ramp_end.as_micros() + 2_000_000);
    s.world.run_until(steady_end);
    let after = s.server(s.primary).metrics().hb_bandwidth();
    let check_ticks = 2_000_000 / check_period.as_micros();
    let visits_per_check = (both_servers(&s, ServerMetrics::timer_conn_visits) - visits_before)
        as f64
        / check_ticks as f64;
    let conn_key_collisions = both_servers(&s, ServerMetrics::conn_key_collisions);
    let rounds = (after.rounds - before.rounds).max(1);
    let bytes = after.total_bytes() - before.total_bytes();
    let per_round = bytes as f64 / rounds as f64;
    let per_conn = per_round / live.max(1) as f64;

    // Failover: kill the primary, time the takeover stall.
    let crash_at = SimTime::from_micros(steady_end.as_micros() + 10_000);
    s.crash_primary_at(crash_at);
    let horizon = SimTime::from_micros(crash_at.as_micros() + 30_000_000);
    let mut until = crash_at;
    let mut took = None;
    while took.is_none() && until < horizon {
        until = SimTime::from_micros(until.as_micros() + 100_000);
        s.world.run_until(until);
        took = s.server(s.backup).took_over_at();
    }
    let stall = took.unwrap_or(horizon).saturating_since(crash_at);

    ScalePoint {
        conns: total_conns,
        live_conns: live,
        ramp_wall_us: ramp_wall.as_micros() as u64,
        conns_per_sec: live as f64 / ramp_wall.as_secs_f64().max(1e-9),
        hb_bytes_per_round: per_round,
        hb_bytes_per_conn: per_conn,
        failover_stall_us: stall.as_micros(),
        visits_per_check,
        conn_key_collisions,
        peak_rss_kib: peak_rss_kib().filter(|&after| Some(after) > rss_before),
    }
}

/// Runs the ramp at each count, printing a table and enforcing the
/// heartbeat budget and the stall bound. Returns the `scale` report
/// section and whether every point passed.
fn run_scale(counts: &[u64]) -> (Json, bool) {
    let mut points = Vec::new();
    let mut ok = true;
    println!("bench_suite: scale ramp (batched delta heartbeats, 4 serial links)...");
    println!(
        "  conns     live  conns/s   HB B/round  HB B/conn  stall_ms  visits/check  key-collisions  \
         RSS MB  KiB/conn"
    );
    let or_dash = |x: Option<f64>| x.map_or("-".to_string(), |x| format!("{x:.1}"));
    for &n in counts {
        let p = scale_point(n);
        println!(
            "  {:>7} {:>7}  {:>8.0}  {:>10.1}  {:>9.3}  {:>8.1}  {:>12.1}  {:>14}  {:>6}  {:>8}",
            p.conns,
            p.live_conns,
            p.conns_per_sec,
            p.hb_bytes_per_round,
            p.hb_bytes_per_conn,
            p.failover_stall_us as f64 / 1e3,
            p.visits_per_check,
            p.conn_key_collisions,
            or_dash(p.peak_rss_kib.map(|kib| kib as f64 / 1024.0)),
            or_dash(p.rss_kib_per_conn()),
        );
        if p.hb_bytes_per_conn >= SCALE_BUDGET_BYTES_PER_CONN {
            eprintln!(
                "SCALE BUDGET EXCEEDED: {:.3} bytes/conn at {} conns (budget {})",
                p.hb_bytes_per_conn, p.conns, SCALE_BUDGET_BYTES_PER_CONN
            );
            ok = false;
        }
        if p.failover_stall_us > SCALE_MAX_STALL_US {
            eprintln!(
                "SCALE STALL UNBOUNDED: {:.1} ms takeover stall at {} conns (bound {} ms)",
                p.failover_stall_us as f64 / 1e3,
                p.conns,
                SCALE_MAX_STALL_US / 1_000
            );
            ok = false;
        }
        if p.conns == 10_000 && p.conns_per_sec < SCALE_MIN_CONNS_PER_SEC_10K {
            eprintln!(
                "SCALE RAMP REGRESSION: {:.0} conns/s at {} conns (floor {:.0})",
                p.conns_per_sec, p.conns, SCALE_MIN_CONNS_PER_SEC_10K
            );
            ok = false;
        }
        let over = |per_conn: &f64| p.conns >= 10_000 && *per_conn > SCALE_MAX_RSS_KIB_PER_CONN;
        if let Some(per_conn) = p.rss_kib_per_conn().filter(over) {
            eprintln!(
                "SCALE FOOTPRINT EXCEEDED: {per_conn:.1} KiB resident per conn at {} conns \
                 (bound {SCALE_MAX_RSS_KIB_PER_CONN})",
                p.conns
            );
            ok = false;
        }
        points.push(p);
    }
    let mut section = Json::obj();
    section.set(
        "budget_bytes_per_conn",
        Json::F64(SCALE_BUDGET_BYTES_PER_CONN),
    );
    section.set("max_stall_us", Json::U64(SCALE_MAX_STALL_US));
    section.set("serial_links", Json::U64(SCALE_SERIAL_LINKS as u64));
    section.set("hb_batch", Json::U64(SCALE_HB_BATCH as u64));
    section.set(
        "min_conns_per_sec_10k",
        Json::F64(SCALE_MIN_CONNS_PER_SEC_10K),
    );
    section.set(
        "max_rss_kib_per_conn",
        Json::F64(SCALE_MAX_RSS_KIB_PER_CONN),
    );
    section.set(
        "points",
        Json::Arr(
            points
                .iter()
                .map(|p| {
                    let mut o = Json::obj();
                    o.set("conns", Json::U64(p.conns));
                    o.set("live_conns", Json::U64(p.live_conns));
                    o.set("ramp_wall_us", Json::U64(p.ramp_wall_us));
                    o.set("conns_per_sec", Json::F64(p.conns_per_sec));
                    o.set("hb_bytes_per_round", Json::F64(p.hb_bytes_per_round));
                    o.set("hb_bytes_per_conn", Json::F64(p.hb_bytes_per_conn));
                    o.set("failover_stall_us", Json::U64(p.failover_stall_us));
                    o.set("visits_per_check", Json::F64(p.visits_per_check));
                    o.set("conn_key_collisions", Json::U64(p.conn_key_collisions));
                    if let Some(kib) = p.peak_rss_kib {
                        o.set("peak_rss_mb", Json::F64(kib as f64 / 1024.0));
                    }
                    if let Some(per_conn) = p.rss_kib_per_conn() {
                        o.set("rss_kib_per_conn", Json::F64(per_conn));
                    }
                    o
                })
                .collect(),
        ),
    );
    (section, ok)
}

/// Pulls the first numeric value following `"<key>":` out of a report.
/// The reports are written by our own `Json` printer (no whitespace
/// after the colon), so a string scan is exact — and it keeps the gate
/// independent of any JSON-parsing code the change under test may have
/// touched.
fn scan_number(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let rest = &text[text.find(&needle)? + needle.len()..];
    let end = rest
        .find(|c: char| !matches!(c, '0'..='9' | '.' | '-' | '+' | 'e' | 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Regression-gate mode: compare a fresh steady-state measurement
/// against the checked-in snapshot. Best of 3 runs, 10% tolerance on
/// payload bytes/sec — the floor rides the snapshot, so regenerating it
/// after a perf win locks the win in instead of defending 80% of the old
/// number. Bytes, not events: the download is fixed work, the events it
/// takes are not, and a change that removes cheap events moves
/// events/sec the wrong way while the run gets faster (events/sec is
/// still printed). Also gates heartbeat `bytes_per_conn` (virtual-time
/// deterministic, so the tolerance only covers snapshot rounding):
/// fresh must stay within 10% of the snapshot.
fn check_against(path: &PathBuf, fallback_download_bytes: u64) -> ! {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("--check: cannot read {}: {e}", path.display());
        std::process::exit(2);
    });
    let baseline = scan_number(&text, "bytes_per_sec").unwrap_or_else(|| {
        eprintln!(
            "--check: no \"bytes_per_sec\" in {} — regenerate it with --out",
            path.display()
        );
        std::process::exit(2);
    });
    let baseline_bpc = scan_number(&text, "bytes_per_conn");
    let download_bytes = scan_number(&text, "download_bytes")
        .map(|b| b as u64)
        .unwrap_or(fallback_download_bytes);
    println!(
        "bench_suite --check: snapshot {:.0} bytes/s ({} byte download), best of 3 runs...",
        baseline, download_bytes
    );
    let mut best = 0f64;
    let mut bytes_per_conn = 0u64;
    for run in 1..=3 {
        let s = steady_state(download_bytes);
        println!(
            "  run {run}: {:.0} bytes/s, {:.0} events/s ({:.3} s)",
            s.bytes_per_sec,
            s.events_per_sec,
            s.wall_us as f64 / 1e6
        );
        best = best.max(s.bytes_per_sec);
        bytes_per_conn = s.hb_bytes_per_conn;
    }
    let mut failed = false;
    let ratio = best / baseline.max(1e-9);
    if ratio < 0.9 {
        eprintln!(
            "REGRESSION: best {:.0} bytes/s is {:.1}% of the {:.0} bytes/s snapshot \
             (gate: >= 90%)",
            best,
            ratio * 100.0,
            baseline
        );
        failed = true;
    } else {
        println!(
            "ok: best {:.0} bytes/s is {:.1}% of the snapshot (gate: >= 90%)",
            best,
            ratio * 100.0
        );
    }
    match baseline_bpc {
        Some(b) if bytes_per_conn as f64 > b * 1.1 => {
            eprintln!(
                "REGRESSION: heartbeat {bytes_per_conn} bytes/conn vs snapshot {b:.0} \
                 (gate: <= 110%)"
            );
            failed = true;
        }
        Some(b) => {
            println!(
                "ok: heartbeat {bytes_per_conn} bytes/conn vs snapshot {b:.0} (gate: <= 110%)"
            );
        }
        None => {
            println!("note: snapshot has no \"bytes_per_conn\"; bandwidth gate skipped");
        }
    }
    std::process::exit(if failed { 1 } else { 0 });
}

fn main() {
    let args = parse_args();

    if let Some(n) = args.scale_smoke {
        let (_, ok) = run_scale(&[n]);
        std::process::exit(if ok { 0 } else { 1 });
    }

    if let Some(path) = &args.check {
        check_against(path, args.download_bytes);
    }

    println!(
        "bench_suite: steady-state download ({} bytes, best of 3)...",
        args.download_bytes
    );
    // Best of 3, mirroring --check: the snapshot this writes is the
    // gate's baseline, so both sides must tolerate machine noise the
    // same way — a cold single-run baseline would weaken the gate.
    let mut steady = steady_state(args.download_bytes);
    for _ in 0..2 {
        let s = steady_state(args.download_bytes);
        if s.events_per_sec > steady.events_per_sec {
            steady = s;
        }
    }
    println!(
        "  {} events in {:.3} s — {:.0} events/s, {:.0} bytes/s",
        steady.events,
        steady.wall_us as f64 / 1e6,
        steady.events_per_sec,
        steady.bytes_per_sec,
    );

    println!(
        "bench_suite: chaos sweep ({} seeds, 1 thread)...",
        args.chaos_seeds
    );
    let chaos_1t = chaos_rate(args.chaos_seeds, 1);
    println!(
        "  {:.3} s — {:.2} seeds/s",
        chaos_1t.wall_us as f64 / 1e6,
        chaos_1t.seeds_per_sec,
    );

    println!(
        "bench_suite: chaos sweep ({} seeds, {} threads)...",
        args.chaos_seeds, args.threads
    );
    let chaos_mt = chaos_rate(args.chaos_seeds, args.threads);
    println!(
        "  {:.3} s — {:.2} seeds/s ({:.2}x)",
        chaos_mt.wall_us as f64 / 1e6,
        chaos_mt.seeds_per_sec,
        chaos_mt.seeds_per_sec / chaos_1t.seeds_per_sec.max(1e-9),
    );

    println!("bench_suite: profiled steady-state run (attribution only)...");
    let (profile, hb_bandwidth) = profiled_sections(args.download_bytes);

    let scale = args.scale.then(|| {
        let (section, ok) = run_scale(&args.scale_conns);
        if !ok {
            std::process::exit(1);
        }
        section
    });

    let mut report = MetricsReport::new("bench_suite");
    let mut config = Json::obj();
    config.set("download_bytes", Json::U64(args.download_bytes));
    config.set("chaos_seeds", Json::U64(args.chaos_seeds));
    config.set("threads", Json::U64(args.threads as u64));
    report.set("config", config);

    let mut current = Json::obj();
    let mut ss = Json::obj();
    ss.set("events", Json::U64(steady.events));
    ss.set("bytes", Json::U64(steady.bytes));
    ss.set("wall_us", Json::U64(steady.wall_us));
    ss.set("events_per_sec", Json::F64(steady.events_per_sec));
    ss.set("bytes_per_sec", Json::F64(steady.bytes_per_sec));
    current.set("steady_state", ss);
    let mut ch = Json::obj();
    ch.set("seeds", Json::U64(args.chaos_seeds));
    ch.set("wall_us_1t", Json::U64(chaos_1t.wall_us));
    ch.set("seeds_per_sec_1t", Json::F64(chaos_1t.seeds_per_sec));
    ch.set("threads", Json::U64(args.threads as u64));
    ch.set("wall_us_mt", Json::U64(chaos_mt.wall_us));
    ch.set("seeds_per_sec_mt", Json::F64(chaos_mt.seeds_per_sec));
    ch.set(
        "speedup",
        Json::F64(chaos_mt.seeds_per_sec / chaos_1t.seeds_per_sec.max(1e-9)),
    );
    current.set("chaos", ch);
    current.set("profile", profile);
    current.set("hb_bandwidth", hb_bandwidth);
    if let Some(scale) = scale {
        current.set("scale", scale);
    }
    report.set("current", current);

    if args.baseline_events_per_sec.is_some()
        || args.baseline_bytes_per_sec.is_some()
        || args.baseline_seeds_per_sec.is_some()
    {
        let mut baseline = Json::obj();
        if let Some(x) = args.baseline_events_per_sec {
            baseline.set("events_per_sec", Json::F64(x));
            baseline.set(
                "events_per_sec_ratio",
                Json::F64(steady.events_per_sec / x.max(1e-9)),
            );
        }
        if let Some(x) = args.baseline_bytes_per_sec {
            baseline.set("bytes_per_sec", Json::F64(x));
        }
        if let Some(x) = args.baseline_seeds_per_sec {
            baseline.set("seeds_per_sec_1t", Json::F64(x));
        }
        report.set("baseline", baseline);
    }

    match report.write_to(&args.out) {
        Ok(()) => println!("report written to {}", args.out.display()),
        Err(e) => {
            eprintln!("failed to write {}: {e}", args.out.display());
            std::process::exit(1);
        }
    }
}
