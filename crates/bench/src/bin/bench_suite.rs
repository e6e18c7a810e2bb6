//! Scale ramp: thousands of simulated clients against one
//! delta-heartbeat pair with sharded serial links. Records conns/sec,
//! heartbeat bytes/conn and bytes/round, the failover stall, check-tick
//! visits and the process's resident memory (`VmHWM`, total and per
//! connection) at each connection count, and enforces the sim-time
//! budgets that only these tiers exercise: exits 1 if HB bytes/conn
//! exceeds the budget, the failover stall exceeds what the configured
//! timeouts allow (680 ms), the 10 000-connection ramp falls below its
//! conns/s floor, check ticks visit more than the active connections, or
//! a point of 10 000+ connections is resident above the per-connection bound.
//!
//! Everything else about simulator speed — steady-state throughput, the
//! per-component profile, heartbeat bandwidth, chaos seeds/s — is read
//! from `benchmark/run.sh` (see EXPERIMENTS, "Where the numbers come
//! from").
//!
//! Options (one of `--scale` / `--scale-smoke` is required):
//! * `--scale`             run the ramp and write the report
//! * `--scale-conns LIST`  comma-separated connection counts for
//!   `--scale` (default `100,1000,10000,100000`)
//! * `--out PATH`          report path for `--scale` (default
//!   `BENCH_simperf.json`)
//! * `--scale-smoke N`     CI smoke: run ONLY the `N`-connection ramp
//!   point, assert the same budgets, write nothing

use std::path::PathBuf;
use std::time::Instant;

use obs::json::Json;
use obs::report::MetricsReport;
use simnet::time::{SimDuration, SimTime};
use sttcp::config::{StTcpConfig, STONITH_DELAY};
use sttcp::metrics::ServerMetrics;
use sttcp_apps::scenario::Scenario;
use sttcp_bench::cli::ArgReader;
use sttcp_bench::experiments::{
    scale_ramp_end, scale_scenario, SCALE_HB_BATCH, SCALE_SERIAL_LINKS,
};

struct Args {
    out: PathBuf,
    scale: bool,
    scale_conns: Vec<u64>,
    scale_smoke: Option<u64>,
}

fn parse_args() -> Args {
    let mut args = Args {
        out: PathBuf::from("BENCH_simperf.json"),
        scale: false,
        scale_conns: vec![100, 1000, 10_000, 100_000],
        scale_smoke: None,
    };
    let mut it = ArgReader::new(
        "usage: bench_suite (--scale [--scale-conns LIST] [--out PATH] | --scale-smoke N)",
    );
    while let Some(a) = it.flag() {
        match a.as_str() {
            "--out" => args.out = PathBuf::from(it.value("--out")),
            "--scale" => args.scale = true,
            "--scale-conns" => {
                let list = it.value("--scale-conns");
                args.scale_conns = list
                    .split(',')
                    .map(|s| it.parse("--scale-conns", s))
                    .collect();
            }
            "--scale-smoke" => args.scale_smoke = Some(it.num("--scale-smoke")),
            other => it.die(&format!("unknown option {other:?}")),
        }
    }
    if !args.scale && args.scale_smoke.is_none() {
        it.die("nothing to do: pass --scale or --scale-smoke N");
    }
    args
}

/// Steady-state heartbeat budget asserted by `--scale`/`--scale-smoke`:
/// bytes per round divided by live connections, in delta mode with an
/// idle-heavy mix. The v1 full-state format costs ~21 bytes/conn; the
/// delta format must come in far under that.
const SCALE_BUDGET_BYTES_PER_CONN: f64 = 8.0;
/// Upper bound on the post-crash takeover stall (crash → takeover) at
/// any ramp size, from the configuration the scale mix runs under: the
/// last heartbeat may still be in flight at the crash (10 ms covers a
/// full serial round), silence takes `hb_timeout` plus at most
/// `check_period` of jitter guard to become a verdict, the takeover
/// follows [`STONITH_DELAY`] later. 680 ms by default; sim-time, so exact.
fn scale_max_stall_us() -> u64 {
    let cfg = StTcpConfig::default();
    let in_flight = SimDuration::from_millis(10);
    (cfg.hb_timeout() + cfg.check_period + STONITH_DELAY + in_flight).as_micros()
}
/// Connection-establishment floor at the 10k ramp point, wall-clock
/// conns/sec. Set at about half the rate measured with a hashed key
/// index behind the servers (~68 000/s, 56.3-84.1k over eleven ramps on
/// a two-core container; ~57 000/s while the index was a B-tree,
/// ~33 600/s with four B-tree maps and nine descents per heartbeat
/// record, ~8 100/s with every-connection walks on the 50 ms check
/// tick) so the scale gate locks the win in: a change that quietly
/// reintroduces the maps or the walks fails here long before the
/// budget gates notice. The host-independent form of this gate is the
/// visit-counter test in `tests/extensions.rs`.
const SCALE_MIN_CONNS_PER_SEC_10K: f64 = 35_000.0;
/// Connection visits per check tick (both servers) allowed in the steady
/// window: its few active connections, at any ramp size. Sim-time, so
/// exact: 10.0 at every tier; 107.3 while each handshake left a no-op RTO.
const SCALE_MAX_VISITS_PER_CHECK: f64 = 16.0;
/// Resident memory per connection (each with its client host) allowed
/// from 10 000 connections up; below that the process's fixed footprint
/// dominates the quotient. Measured 6.5 KiB at 10k and 6.2 at 100k; it
/// was 7.4 and 7.1 while every connection carried its own TCP config
/// and a four-slot output queue, 10.5 while every client endpoint kept
/// wheel levels for its one SYN timer. The host-independent form of
/// this gate is the live-heap slope test in `tests/extensions.rs`.
const SCALE_MAX_RSS_KIB_PER_CONN: f64 = 8.0;

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
    let max_stall_us = scale_max_stall_us();
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
        if p.failover_stall_us > max_stall_us {
            eprintln!(
                "SCALE STALL EXCEEDED: {:.1} ms takeover stall at {} conns (bound {} ms)",
                p.failover_stall_us as f64 / 1e3,
                p.conns,
                max_stall_us / 1_000
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
        if p.visits_per_check > SCALE_MAX_VISITS_PER_CHECK {
            eprintln!(
                "SCALE VISITS EXCEEDED: {:.1} connection visits per check tick at {} conns \
                 (bound {SCALE_MAX_VISITS_PER_CHECK})",
                p.visits_per_check, p.conns
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
    for (gate, bound) in [
        ("budget_bytes_per_conn", SCALE_BUDGET_BYTES_PER_CONN),
        ("min_conns_per_sec_10k", SCALE_MIN_CONNS_PER_SEC_10K),
        ("max_visits_per_check", SCALE_MAX_VISITS_PER_CHECK),
        ("max_rss_kib_per_conn", SCALE_MAX_RSS_KIB_PER_CONN),
    ] {
        section.set(gate, Json::F64(bound));
    }
    section.set("max_stall_us", Json::U64(max_stall_us));
    section.set("serial_links", Json::U64(SCALE_SERIAL_LINKS as u64));
    section.set("hb_batch", Json::U64(SCALE_HB_BATCH as u64));
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

fn main() {
    let args = parse_args();

    if let Some(n) = args.scale_smoke {
        let (_, ok) = run_scale(&[n]);
        std::process::exit(if ok { 0 } else { 1 });
    }

    let (scale, ok) = run_scale(&args.scale_conns);
    if !ok {
        std::process::exit(1);
    }
    let mut report = MetricsReport::new("bench_suite");
    let mut config = Json::obj();
    let conns = args.scale_conns.iter().map(|&n| Json::U64(n));
    config.set("scale_conns", Json::Arr(conns.collect()));
    report.set("config", config);
    let mut current = Json::obj();
    current.set("scale", scale);
    report.set("current", current);

    match report.write_to(&args.out) {
        Ok(()) => println!("report written to {}", args.out.display()),
        Err(e) => {
            eprintln!("failed to write {}: {e}", args.out.display());
            std::process::exit(1);
        }
    }
}
