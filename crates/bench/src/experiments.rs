//! Experiment runners: one function per table/figure of the paper.
//!
//! Every single-failure table — Table 1, Demos 1, 2, 4 and 5, §4.3's
//! tap-loss bursts and the ablations — is one [`Trial`]: a world, one
//! injection at one instant, a run to a horizon, and the readers on
//! [`TrialRun`]. The binaries in `src/bin/` are thin printers over
//! these functions.

use std::rc::Rc;

use obs::json::Json;
use obs::report::MetricsReport;
use obs::timeline::PhaseBreakdown;

use simnet::link::{LinkDir, LinkId};
use simnet::node::NodeId;
use simnet::serial::{SerialDir, SerialParams, SerialState};
use simnet::time::{SimDuration, SimTime};
use simnet::world::World;

use simtcp::conn::{ConnStats, TcpConfig};

use sttcp::app::EchoApp;
use sttcp::config::StTcpConfig;
use sttcp::events::{FailureReason, StTcpEvent};
use sttcp::heartbeat::{ConnHb, HbPayload, HB_CONN_LEN, HB_HEADER_LEN};
use sttcp::server::AppCrashMode;

use sttcp_apps::apps::StreamApp;
use sttcp_apps::client::{ClientWorkload, ReconnectPolicy};
use sttcp_apps::scenario::{build_baseline, AppMaker, Scenario, ScenarioBuilder, Topology};

use crate::phases::{detection_bound, failover_timeline};

fn stream_app(chunk: usize) -> AppMaker {
    Rc::new(move || Box::new(StreamApp::new(chunk, false)) as _)
}

/// The chatty client of the single-failure tables: `count` 1 KiB slabs
/// echoed, one every 50 ms.
pub fn chat(count: u32) -> ClientWorkload {
    ClientWorkload::EchoChat {
        chunk: 1024,
        period: SimDuration::from_millis(50),
        count,
    }
}

/// Records per batched heartbeat part in the scale mix: rounds touching
/// more connections than this split into multi-part v3 envelopes, so a
/// resync burst never serializes one giant frame.
pub const SCALE_HB_BATCH: usize = 1_024;
/// Serial heartbeat links in the scale mix (`conn_key % 4` sharding).
pub const SCALE_SERIAL_LINKS: usize = 4;

/// The published scale mix (`bench_suite --scale`, the repo benchmark's
/// `conn_ramp`): `total_conns` clients, each on its own host, connecting
/// 1 ms apart from t = 100 ms — one 256 KiB download, then one 64 KiB
/// download per 500, everyone else idle — against a delta-heartbeat pair
/// with batched envelopes and sharded serial links.
pub fn scale_scenario(total_conns: u64, seed: u64) -> Scenario {
    assert!(total_conns >= 1);
    let rest = (0..total_conns - 1)
        .map(|i| match i % 500 {
            0 => ClientWorkload::Download { total: 64 * 1024 },
            _ => ClientWorkload::Idle,
        })
        .collect();
    ScenarioBuilder::new(
        stream_app(4096),
        ClientWorkload::Download { total: 256 * 1024 },
    )
    .extra_clients(rest)
    .seed(seed)
    .sttcp(StTcpConfig {
        hb_delta: true,
        hb_batch: SCALE_HB_BATCH,
        ..Default::default()
    })
    .serial_links(SCALE_SERIAL_LINKS)
    .build()
}

/// When the last client of a [`scale_scenario`] has connected and the
/// tail has had 500 ms to settle.
pub fn scale_ramp_end(total_conns: u64) -> SimTime {
    SimTime::from_millis(100 + (total_conns - 1) + 500)
}

fn fast_cfg(hb_ms: u64) -> StTcpConfig {
    StTcpConfig {
        app_max_lag_time: SimDuration::from_secs(1),
        max_delay_fin: SimDuration::from_secs(5),
        ..StTcpConfig::with_hb_period(SimDuration::from_millis(hb_ms))
    }
}

// ---------------------------------------------------------------------
// Metrics-report assembly
// ---------------------------------------------------------------------

fn link_stats_json(w: &World, l: LinkId) -> Json {
    let a = w.link(l).stats(LinkDir::AtoB);
    let b = w.link(l).stats(LinkDir::BtoA);
    let mut o = Json::obj();
    o.set("offered", Json::U64(a.offered + b.offered));
    o.set("delivered", Json::U64(a.delivered + b.delivered));
    o.set("dropped_loss", Json::U64(a.dropped_loss + b.dropped_loss));
    o.set("dropped_down", Json::U64(a.dropped_down + b.dropped_down));
    o.set("corrupted", Json::U64(a.corrupted + b.corrupted));
    o.set(
        "bytes_delivered",
        Json::U64(a.bytes_delivered + b.bytes_delivered),
    );
    o
}

fn conn_stats_json(s: ConnStats) -> Json {
    let mut o = Json::obj();
    o.set("segs_out", Json::U64(s.segs_out));
    o.set("segs_in", Json::U64(s.segs_in));
    o.set("bytes_sent", Json::U64(s.bytes_sent));
    o.set("bytes_retransmitted", Json::U64(s.bytes_retransmitted));
    o.set("rto_fires", Json::U64(s.rto_fires));
    o.set("fast_retransmits", Json::U64(s.fast_retransmits));
    o
}

/// Assembles the four instrumented layers of a finished scenario into a
/// [`MetricsReport`]: `simnet` (per-link frame stats and fault
/// episodes), `tcp` (per-server transfer counters), and `core` (each
/// server's [`sttcp::metrics::ServerMetrics`]). The caller adds the
/// run-specific `client` and `phases` sections.
pub fn scenario_report(kind: &str, s: &Scenario) -> MetricsReport {
    let mut report = MetricsReport::new(kind);

    let mut links = Json::obj();
    links.set("client", link_stats_json(&s.world, s.link_client));
    links.set("primary", link_stats_json(&s.world, s.link_primary));
    links.set("backup", link_stats_json(&s.world, s.link_backup));
    let mut simnet_sec = Json::obj();
    simnet_sec.set("links", links);
    let faults: Vec<Json> = s
        .world
        .faults()
        .iter()
        .map(|(at, what)| {
            let mut f = Json::obj();
            f.set("at_us", Json::U64(at.as_micros()));
            f.set("what", Json::from(what.as_str()));
            f
        })
        .collect();
    simnet_sec.set("faults", Json::Arr(faults));
    report.set("simnet", simnet_sec);

    let mut tcp_sec = Json::obj();
    tcp_sec.set("primary", conn_stats_json(s.server(s.primary).tcp_stats()));
    tcp_sec.set("backup", conn_stats_json(s.server(s.backup).tcp_stats()));
    report.set("tcp", tcp_sec);

    let mut core_sec = Json::obj();
    core_sec.set("primary", s.server(s.primary).metrics().to_json());
    core_sec.set("backup", s.server(s.backup).metrics().to_json());
    report.set("core", core_sec);

    report
}

// ---------------------------------------------------------------------
// The single-failure runner
// ---------------------------------------------------------------------

/// One single-failure run: a world built from a topology, a seed, a
/// configuration, an application and a client workload; one injection
/// at `at`; a run to `horizon`. Every single-failure table is a `Trial`
/// read through [`TrialRun`].
pub struct Trial {
    /// The pair, or a pool.
    pub topology: Topology,
    /// The world seed.
    pub seed: u64,
    /// Every server's configuration.
    pub sttcp: StTcpConfig,
    /// The replicated application.
    pub app: AppMaker,
    /// The (first) client's workload.
    pub workload: ClientWorkload,
    /// The injection instant, which every latency is read from.
    pub at: SimTime,
    /// Where the run stops.
    pub horizon: SimTime,
}

impl Trial {
    /// The pair serving the echo application to `workload`, the failure
    /// injected at 2 s and the run ended at 90 s.
    pub fn echo(seed: u64, sttcp: StTcpConfig, workload: ClientWorkload) -> Trial {
        Trial {
            topology: Topology::Pair,
            seed,
            sttcp,
            app: Rc::new(|| Box::new(EchoApp::default()) as _),
            workload,
            at: SimTime::from_secs(2),
            horizon: SimTime::from_secs(90),
        }
    }

    /// Builds the world, hands it to `inject` — which schedules its
    /// failure at the instant it is given — and runs to the horizon.
    pub fn run(self, inject: impl FnOnce(&mut Scenario, SimTime)) -> TrialRun {
        let mut s = ScenarioBuilder::new(self.app, self.workload)
            .seed(self.seed)
            .sttcp(self.sttcp)
            .topology(self.topology)
            .build();
        inject(&mut s, self.at);
        s.world.run_until(self.horizon);
        TrialRun { s, at: self.at }
    }
}

/// The member a failure on the primary side (`true`: rank 0) or the
/// backup side (rank 1) strikes, and the other of the two, which is the
/// one expected to detect it.
pub fn victim_and_detector(s: &Scenario, primary_side: bool) -> (NodeId, NodeId) {
    match primary_side {
        true => (s.primary, s.backup),
        false => (s.backup, s.primary),
    }
}

/// What the servers did about a single failure (Table 1's recovery
/// column).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recovery {
    /// A standby took over; the active was shut down.
    Takeover,
    /// The active shut a standby down and serves on: without fault
    /// tolerance in the pair, with its other standbys in a pool.
    NonFt,
    /// The backup fetched the client bytes it missed from the active.
    Fetched,
    /// None required: normal TCP behaviour.
    None,
}

impl Recovery {
    /// Table 1's wording.
    pub fn label(self) -> &'static str {
        match self {
            Recovery::Takeover => "backup took over; primary shut down",
            Recovery::NonFt => "primary non-fault-tolerant; backup shut down",
            Recovery::Fetched => "backup fetched missed bytes from primary",
            Recovery::None => "none required (normal TCP behaviour)",
        }
    }
}

/// A finished [`Trial`]: the world as the horizon left it, and the
/// readers every single-failure table uses.
pub struct TrialRun {
    /// The world, run to the horizon.
    pub s: Scenario,
    /// The injection instant.
    pub at: SimTime,
}

impl TrialRun {
    /// How long after the injection `node` first logged an event `probe`
    /// accepts, if it ever did.
    pub fn logged(&self, node: NodeId, probe: impl Fn(&StTcpEvent) -> bool) -> Option<SimDuration> {
        let events = self.s.server(node).events();
        let first = events.iter().find(|e| probe(e))?;
        Some(first.at().saturating_since(self.at))
    }

    /// `node`'s first verdict on a peer, and its latency from the
    /// injection.
    pub fn verdict(&self, node: NodeId) -> Option<(FailureReason, SimDuration)> {
        let since = |at: SimTime| at.saturating_since(self.at);
        self.s.server(node).events().iter().find_map(|e| match *e {
            StTcpEvent::PeerDeclaredFailed { reason, at } => Some((reason, since(at))),
            _ => None,
        })
    }

    /// The first member's (by rank) first verdict, if any member
    /// reached one.
    pub fn any_verdict(&self) -> Option<FailureReason> {
        let mut servers = self.s.servers.iter();
        servers
            .find_map(|&n| self.verdict(n))
            .map(|(reason, _)| reason)
    }

    /// The recovery class: a standby's takeover, else rank 0's STONITH,
    /// else the backup's completed fetch, else none.
    pub fn recovery(&self) -> Recovery {
        let s = &self.s;
        let stonith = |e: &StTcpEvent| matches!(e, StTcpEvent::StonithIssued { .. });
        let fetched = |e: &StTcpEvent| matches!(e, StTcpEvent::RecoveryCompleted { .. });
        if s.servers[1..]
            .iter()
            .any(|&n| s.server(n).took_over_at().is_some())
        {
            Recovery::Takeover
        } else if self.logged(s.primary, stonith).is_some() {
            Recovery::NonFt
        } else if self.logged(s.backup, fetched).is_some() {
            Recovery::Fetched
        } else {
            Recovery::None
        }
    }

    /// The client was served transparently: its workload finished on one
    /// connection, never reset, every byte verified.
    pub fn client_intact(&self) -> bool {
        let log = self.s.client_log();
        self.s.client_finished()
            && log.integrity_violations == 0
            && log.resets == 0
            && log.connects.len() == 1
    }
}

// ---------------------------------------------------------------------
// Demo 1 / Demo 2: failover
// ---------------------------------------------------------------------

/// One failover measurement (Demos 1 and 2).
#[derive(Debug, Clone)]
pub struct FailoverRun {
    /// Heartbeat period used.
    pub hb_period: SimDuration,
    /// Crash injection time.
    pub crash_at: SimTime,
    /// Crash → backup's failure verdict.
    pub detection: Option<SimDuration>,
    /// Crash → takeover complete (egress unsuppressed).
    pub takeover: Option<SimDuration>,
    /// Longest client-visible progress stall around the crash — the
    /// user-experienced failover time (detection + TCP restart delay).
    pub client_stall: SimDuration,
    /// The client finished its download on one connection.
    pub transparent: bool,
    /// Pattern violations (must be 0).
    pub violations: u64,
    /// The client's progress series (ms, bytes) for plotting.
    pub progress: Vec<(f64, f64)>,
    /// Phase breakdown of the longest client stall (present whenever the
    /// stall window is measurable; its `total` equals `client_stall`).
    pub breakdown: Option<PhaseBreakdown>,
    /// Full metrics report: simnet/tcp/core sections plus the client and
    /// phase data above.
    pub report: MetricsReport,
    /// The always-on flight recorder's tail at end of run — the causal
    /// trace of the crash → detection → takeover chain, ready for
    /// [`crate::flight::write_flight_dump`].
    pub flight: simnet::flight::FlightSnapshot,
}

/// Runs one primary-crash failover with the given heartbeat period.
pub fn run_failover(seed: u64, hb_ms: u64, total: u64, crash_ms: u64) -> FailoverRun {
    let cfg = StTcpConfig::with_hb_period(SimDuration::from_millis(hb_ms));
    let run = Trial {
        app: stream_app(4096),
        at: SimTime::from_millis(crash_ms),
        horizon: SimTime::from_millis(crash_ms + 60_000 + total / 100),
        ..Trial::echo(seed, cfg, ClientWorkload::Download { total })
    }
    .run(|s, at| s.crash_primary_at(at));
    let (s, crash) = (&run.s, run.at);
    let log = s.client_log().clone();
    let end = log.finished_at.unwrap_or(s.world.now());
    let detection = run.verdict(s.backup).map(|(_, d)| d);
    let takeover = s
        .server(s.backup)
        .took_over_at()
        .map(|at| at.saturating_since(crash));
    let stall_from = crash - SimDuration::from_millis(100);
    let client_stall = log.longest_stall(stall_from, end);
    // Anchor the phase timeline to the same window `client_stall` was
    // measured on: the breakdown's total equals the stall by construction.
    let breakdown = log
        .longest_stall_window(stall_from, end)
        .and_then(|(ws, we)| {
            failover_timeline(ws, we, Some(crash), s.server(s.backup).events()).breakdown()
        });

    let mut report = scenario_report("demo1_failover", s);
    let mut config = Json::obj();
    config.set("seed", Json::U64(seed));
    config.set(
        "hb_period_us",
        Json::U64(SimDuration::from_millis(hb_ms).as_micros()),
    );
    config.set("crash_at_us", Json::U64(crash.as_micros()));
    config.set("total_bytes", Json::U64(total));
    report.set("config", config);
    let mut client = Json::obj();
    client.set("stall_us", Json::U64(client_stall.as_micros()));
    if let Some((ws, we)) = log.longest_stall_window(stall_from, end) {
        let mut w = Json::obj();
        w.set("start_us", Json::U64(ws.as_micros()));
        w.set("end_us", Json::U64(we.as_micros()));
        client.set("stall_window", w);
    }
    client.set("bytes_received", Json::U64(log.total_received));
    client.set("integrity_violations", Json::U64(log.integrity_violations));
    client.set("resets", Json::U64(u64::from(log.resets)));
    client.set(
        "transparent",
        Json::Bool(s.client_finished() && log.connects.len() == 1 && log.resets == 0),
    );
    report.set("client", client);
    if let Some(b) = &breakdown {
        report.set("phases", b.to_json());
    }

    FailoverRun {
        flight: s.world.flight_snapshot(None),
        hb_period: SimDuration::from_millis(hb_ms),
        crash_at: crash,
        detection,
        takeover,
        client_stall,
        transparent: s.client_finished() && log.connects.len() == 1 && log.resets == 0,
        violations: log.integrity_violations,
        progress: log
            .progress
            .iter()
            .map(|&(at, b)| (at.as_micros() as f64 / 1_000.0, b as f64))
            .collect(),
        breakdown,
        report,
    }
}

/// Runs the plain-TCP-with-standby baseline for the same crash (Demo 1's
/// contrast). Returns (disruption, reconnects, finished).
pub fn run_baseline_failover(
    seed: u64,
    total: u64,
    crash_ms: u64,
    stall_timeout: SimDuration,
) -> (SimDuration, u32, bool) {
    let policy = ReconnectPolicy {
        stall_timeout,
        targets: vec![("10.0.0.4".parse().unwrap(), 80)],
        reconnect_delay: SimDuration::from_millis(200),
    };
    let mut b = build_baseline(
        seed,
        stream_app(4096),
        ClientWorkload::Download { total },
        TcpConfig::default(),
        Some(policy),
    );
    let crash = SimTime::from_millis(crash_ms);
    b.crash_primary_at(crash);
    b.world.run_until(crash + SimDuration::from_secs(120));
    let log = b.client_log();
    let end = log.finished_at.unwrap_or(b.world.now());
    (
        log.longest_stall(crash - SimDuration::from_millis(100), end),
        log.reconnects,
        b.client_finished(),
    )
}

/// A client-push failover run (EchoChat): at the crash the client has
/// unacked data in flight, so the post-detection restart is paced by the
/// *client's* retransmission backoff — the component the paper singles
/// out in Demo 2. Returns (detection, client stall, roundtrips done).
pub fn run_failover_push(
    seed: u64,
    hb_ms: u64,
    crash_ms: u64,
) -> (Option<SimDuration>, SimDuration, u32) {
    let cfg = StTcpConfig::with_hb_period(SimDuration::from_millis(hb_ms));
    let workload = ClientWorkload::EchoChat {
        chunk: 1024,
        period: SimDuration::from_millis(25),
        count: 1_000,
    };
    let run = Trial {
        at: SimTime::from_millis(crash_ms),
        horizon: SimTime::from_millis(crash_ms + 90_000),
        ..Trial::echo(seed, cfg, workload)
    }
    .run(|s, at| s.crash_primary_at(at));
    let log = run.s.client_log();
    assert!(
        run.s.client_finished() && log.integrity_violations == 0,
        "push failover failed"
    );
    let detection = run.verdict(run.s.backup).map(|(_, d)| d);
    let stall_from = run.at - SimDuration::from_millis(100);
    let stall = log.longest_stall(stall_from, log.finished_at.unwrap());
    (detection, stall, log.echo_roundtrips)
}

/// Demo 2: sweeps the heartbeat period over the paper's three values with
/// several crash phases each.
pub fn run_hb_sweep(trials: u32, total: u64) -> Vec<FailoverRun> {
    let mut out = Vec::new();
    for &hb_ms in &[200u64, 500, 1_000] {
        for i in 0..trials {
            // Vary seed and crash phase relative to the heartbeat.
            let crash_ms = 1_000 + (i as u64 * 137) % hb_ms;
            out.push(run_failover(100 + i as u64, hb_ms, total, crash_ms));
        }
    }
    out
}

// ---------------------------------------------------------------------
// Demo 3: failure-free overhead
// ---------------------------------------------------------------------

/// A failure-free transfer measurement with and without ST-TCP (Demo 3).
#[derive(Debug, Clone)]
pub struct OverheadRun {
    /// Transfer size in bytes.
    pub bytes: u64,
    /// Virtual completion time with ST-TCP (primary + active backup).
    pub sttcp_time: SimDuration,
    /// Virtual completion time with a plain TCP server.
    pub plain_time: SimDuration,
    /// Relative overhead `(sttcp - plain) / plain`.
    pub overhead: f64,
    /// Frames delivered to the client NIC in the ST-TCP run.
    pub sttcp_client_frames: u64,
    /// Frames delivered to the client NIC in the plain run.
    pub plain_client_frames: u64,
    /// Heartbeat bytes carried by the serial link during the ST-TCP run.
    pub hb_serial_bytes: u64,
}

/// Runs Demo 3: the same download with ST-TCP enabled and disabled.
pub fn run_overhead(seed: u64, total: u64) -> OverheadRun {
    let chunk = 64 * 1024;
    // ST-TCP run.
    let mut s = ScenarioBuilder::new(stream_app(chunk), ClientWorkload::Download { total })
        .seed(seed)
        .build();
    let deadline = SimTime::from_secs(600);
    s.world.run_until(deadline);
    assert!(s.client_finished(), "sttcp transfer incomplete");
    let connect = s.client_log().connects[0];
    let sttcp_time = s
        .client_log()
        .finished_at
        .unwrap()
        .saturating_since(connect);
    let sttcp_client_frames = s.world.link(s.link_client).stats(LinkDir::BtoA).delivered;
    let hb = s.world.serial(s.serial);
    let hb_serial_bytes =
        hb.stats(SerialDir::AtoB).bytes_delivered + hb.stats(SerialDir::BtoA).bytes_delivered;

    // Plain run.
    let mut b = build_baseline(
        seed,
        stream_app(chunk),
        ClientWorkload::Download { total },
        TcpConfig::default(),
        None,
    );
    b.world.run_until(deadline);
    assert!(b.client_finished(), "plain transfer incomplete");
    let connect = b.client_log().connects[0];
    let plain_time = b
        .client_log()
        .finished_at
        .unwrap()
        .saturating_since(connect);
    let plain_client_frames = b.world.link(b.link_client).stats(LinkDir::BtoA).delivered;

    let overhead = (sttcp_time.as_micros() as f64 - plain_time.as_micros() as f64)
        / plain_time.as_micros() as f64;
    OverheadRun {
        bytes: total,
        sttcp_time,
        plain_time,
        overhead,
        sttcp_client_frames,
        plain_client_frames,
        hb_serial_bytes,
    }
}

// ---------------------------------------------------------------------
// Table 1: the full single-failure matrix
// ---------------------------------------------------------------------

/// Outcome of one Table 1 scenario.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Row number in the paper's table (1-5).
    pub row: u32,
    /// Failure location ("primary" or "backup").
    pub location: &'static str,
    /// What was injected.
    pub failure: String,
    /// The symptom observed (which detector fired, if any).
    pub symptom: String,
    /// The recovery action taken.
    pub recovery: Recovery,
    /// Crash → detection latency, when a detector fired.
    pub detection: Option<SimDuration>,
    /// Which detector fired, when one did.
    pub reason: Option<FailureReason>,
    /// The configured worst-case detection latency for that detector
    /// (`detection` must stay within it).
    pub bound: Option<SimDuration>,
    /// The client's stream stayed correct and uninterrupted.
    pub client_ok: bool,
}

impl Table1Row {
    /// True when the measured detection latency violates its configured
    /// bound. Rows without a verdict or without a time-bounded detector
    /// never violate.
    pub fn bound_violated(&self) -> bool {
        matches!((self.detection, self.bound), (Some(d), Some(b)) if d > b)
    }
}

/// A Table 1 failure: scheduled on the world at the instant, against
/// the victim (rows 1–4; row 5 names its own link).
type Injection = fn(&mut Scenario, NodeId, SimTime);

fn crash(s: &mut Scenario, victim: NodeId, at: SimTime) {
    s.crash_at(victim, at);
}

fn app_silent(s: &mut Scenario, victim: NodeId, at: SimTime) {
    s.crash_app_at(victim, at, AppCrashMode::SilentNoCleanup);
}

fn app_fin(s: &mut Scenario, victim: NodeId, at: SimTime) {
    s.crash_app_at(victim, at, AppCrashMode::CleanupFin);
}

fn nic(s: &mut Scenario, victim: NodeId, at: SimTime) {
    s.fail_nic_at(victim, at);
}

fn tap_burst(s: &mut Scenario, _: NodeId, at: SimTime) {
    s.drop_tap_at(s.link_backup, at, 20);
}

fn tap_outage(s: &mut Scenario, _: NodeId, at: SimTime) {
    s.drop_primary_tap_for(at, SimDuration::from_millis(300));
}

/// Table 1's ten cases, in the order the matrix has always run them
/// (the index is also the seed bump): row, location, failure, injection.
const TABLE1: [(u32, &str, &str, Injection); 10] = [
    (1, "primary", "HW/OS crash", crash),
    (1, "backup", "HW/OS crash", crash),
    (2, "primary", "app crash, no FIN/RST", app_silent),
    (2, "backup", "app crash, no FIN/RST", app_silent),
    (3, "primary", "app crash, FIN generated", app_fin),
    (3, "backup", "app crash, FIN generated", app_fin),
    (4, "primary", "NIC failure", nic),
    (4, "backup", "NIC failure", nic),
    (5, "backup", "20 client frames lost on the tap", tap_burst),
    (
        5,
        "primary",
        "300ms client-frame outage toward primary",
        tap_outage,
    ),
];

/// Runs Table 1's ten single failures on `topology` and reports each
/// row's observed symptom and recovery action. The cases fan out over
/// up to `threads` workers; each one's seed derives from `seed` and its
/// fixed case index alone, so the rows come back in the same order with
/// the same content at any thread count.
pub fn run_table1(topology: Topology, seed: u64, threads: usize) -> Vec<Table1Row> {
    let cases: Vec<usize> = (0..TABLE1.len()).collect();
    crate::parallel::parallel_map_indexed(threads, &cases, |_, &case| {
        table1_row(topology, seed, case)
    })
}

/// Runs Table 1's case `case` (in `0..10`, the matrix's order) on
/// `topology`, seeded `seed + case`.
pub fn table1_row(topology: Topology, seed: u64, case: usize) -> Table1Row {
    let (row, location, failure, inject) = TABLE1[case];
    let primary_side = location == "primary";
    // Row 5's outage runs the paper-default lag thresholds: TCP takes
    // about a second of fast-retransmit hole-filling to repair a 300 ms
    // outage, which must stay inside AppMaxLagTime (2 s) — a failure
    // shorter than the thresholds never triggers ST-TCP.
    let sttcp = match (row, primary_side) {
        (5, true) => StTcpConfig::with_hb_period(SimDuration::from_millis(200)),
        _ => fast_cfg(200),
    };
    let run = Trial {
        topology,
        ..Trial::echo(seed + case as u64, sttcp.clone(), chat(400))
    }
    .run(|s, at| inject(s, victim_and_detector(s, primary_side).0, at));
    let s = &run.s;
    let (victim, detector) = victim_and_detector(s, primary_side);
    let fin_held = |e: &StTcpEvent| matches!(e, StTcpEvent::FinHeld { .. });
    let fetched = |e: &StTcpEvent| matches!(e, StTcpEvent::RecoveryCompleted { .. });
    let symptom = match (row, primary_side) {
        (5, false) if run.logged(s.backup, fetched).is_some() => {
            "HB up; backup missed client bytes"
        }
        (5, false) => "loss not observed",
        (5, true) if run.any_verdict().is_none() => "primary missed bytes; client retransmits",
        (5, true) => "unexpected failure verdict",
        _ => "no failure declared",
    };
    let held = row == 3 && run.logged(victim, fin_held).is_some();
    let verdict = run.verdict(detector).filter(|_| row != 5);
    let reason = verdict.map(|(r, _)| r);
    Table1Row {
        row,
        location,
        failure: format!("{failure}{}", if held { " (held)" } else { "" }),
        symptom: reason.map_or(symptom.into(), |r| r.to_string()),
        recovery: run.recovery(),
        detection: verdict.map(|(_, d)| d),
        reason,
        bound: reason.and_then(|r| detection_bound(&sttcp, r)),
        client_ok: run.client_intact(),
    }
}

// ---------------------------------------------------------------------
// §3: serial-link capacity
// ---------------------------------------------------------------------

/// Serial heartbeat capacity analysis (the paper's "~100 connections on a
/// 115.2 kbps serial link" claim).
#[derive(Debug, Clone)]
pub struct SerialCapacity {
    /// Heartbeat period assumed.
    pub hb_period: SimDuration,
    /// Measured wire bytes per connection record.
    pub bytes_per_conn: usize,
    /// Header bytes per heartbeat message.
    pub header_bytes: usize,
    /// Computed bandwidth per connection in bits/s (with 8N1 framing).
    pub bits_per_sec_per_conn: f64,
    /// Largest connection count whose heartbeat serializes within one
    /// period on the RS-232 model.
    pub max_conns: usize,
    /// Link utilization at `max_conns`.
    pub utilization_at_max: f64,
}

/// Measures heartbeat wire cost and serial capacity by binary search on
/// the channel model.
pub fn run_serial_capacity(hb_ms: u64) -> SerialCapacity {
    let period = SimDuration::from_millis(hb_ms);
    let chan = SerialState::new(
        (NodeId(0), simnet::node::SerialPortId(0)),
        (NodeId(1), simnet::node::SerialPortId(0)),
        SerialParams::rs232(),
    );
    let wire_len = |conns: usize| -> usize {
        let hb = HbPayload {
            seqno: 0,
            role: sttcp::config::Role::Primary,
            rank: 0,
            conns: vec![ConnHb::default(); conns],
            ping: None,
        };
        hb.encode().len()
    };
    // Hard cap from the u16 count field; search the feasible region.
    let mut max_conns = 0;
    for n in 1..=6_000usize {
        // The HB must fully serialize within one period (both directions
        // are independent, so one direction's budget is the whole period).
        if chan.serialization_time(wire_len(n)) <= period {
            max_conns = n;
        } else {
            break;
        }
    }
    let per_conn_bits = (HB_CONN_LEN as f64) * 10.0; // 8N1 framing
    let bits_per_sec_per_conn = per_conn_bits / period.as_secs_f64();
    let utilization_at_max =
        chan.serialization_time(wire_len(max_conns)).as_secs_f64() / period.as_secs_f64();
    SerialCapacity {
        hb_period: period,
        bytes_per_conn: HB_CONN_LEN,
        header_bytes: HB_HEADER_LEN,
        bits_per_sec_per_conn,
        max_conns,
        utilization_at_max,
    }
}

// ---------------------------------------------------------------------
// §4.3: temporary network failure sweep
// ---------------------------------------------------------------------

/// One loss-burst recovery measurement (E-S2).
#[derive(Debug, Clone)]
pub struct TempNetFailRun {
    /// Frames dropped on the backup's tap.
    pub burst: u64,
    /// The backup issued at least one fetch request.
    pub recovery_requested: bool,
    /// The backup fully caught up.
    pub recovered: bool,
    /// Injection → recovery completion.
    pub recovery_time: Option<SimDuration>,
    /// Anybody declared failed? (Expected only in the overflow case.)
    pub verdict: Option<FailureReason>,
    /// Client stream survived intact.
    pub client_ok: bool,
}

/// Runs a loss burst of `burst` frames against the backup tap; with
/// `tiny_hold`, the primary's extended receive buffer is shrunk so the
/// burst overflows it (the paper's "backup considered failed" case needs
/// a *sustained* outage — modelled by a long drop window instead of a
/// burst when `tiny_hold` is set).
pub fn run_temp_netfail(seed: u64, burst: u64, tiny_hold: bool) -> TempNetFailRun {
    let mut cfg = fast_cfg(200);
    if tiny_hold {
        cfg.hold_buf = 2 * 1024;
        // Keep the recovery channel from refilling the gap: sustained
        // outage on the tap.
        cfg.recovery_interval = SimDuration::from_secs(600);
    }
    let run =
        Trial::echo(seed, cfg, chat(400)).run(|s, at| s.drop_tap_at(s.link_backup, at, burst));
    let backup = run.s.backup;
    let requested = |e: &StTcpEvent| matches!(e, StTcpEvent::RecoveryRequested { .. });
    let recovered = |e: &StTcpEvent| matches!(e, StTcpEvent::RecoveryCompleted { .. });
    let recovery_time = run.logged(backup, recovered);
    TempNetFailRun {
        burst,
        recovery_requested: run.logged(backup, requested).is_some(),
        recovered: recovery_time.is_some(),
        recovery_time,
        verdict: run.any_verdict(),
        client_ok: run.client_intact(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failover_runner_produces_sane_metrics() {
        // 512 KiB at ~400 KB/s spans ~1.3 s; the crash at 700 ms lands
        // mid-transfer.
        let r = run_failover(5, 200, 512 * 1024, 700);
        assert!(r.transparent, "{r:?}");
        assert_eq!(r.violations, 0);
        let d = r.detection.expect("detected");
        assert!(d >= SimDuration::from_millis(300) && d <= SimDuration::from_millis(700));
        assert!(r.takeover.unwrap() >= d);
        assert!(r.client_stall >= d);
        assert!(!r.progress.is_empty());
    }

    #[test]
    fn failover_phases_sum_to_the_client_stall() {
        let r = run_failover(5, 200, 512 * 1024, 700);
        let b = r.breakdown.expect("stall window measurable");
        // The breakdown partitions the same window longest_stall measured:
        // totals agree exactly, and the six phases sum to the total.
        assert_eq!(b.total, r.client_stall);
        let sum: SimDuration = b.durations.iter().fold(SimDuration::ZERO, |a, &d| a + d);
        assert_eq!(sum, b.total);
        // The verdict-bounded part of the stall respects the configured
        // detection bound for the detector that fired.
        let cfg = StTcpConfig::with_hb_period(SimDuration::from_millis(200));
        let bound = detection_bound(&cfg, FailureReason::HbBothLinksDown).unwrap();
        assert!(b.detection() <= bound, "{:?} > {bound:?}", b.detection());
        // Every layer reported a section.
        let j = r.report.to_json();
        for sec in [
            "\"simnet\"",
            "\"tcp\"",
            "\"core\"",
            "\"client\"",
            "\"phases\"",
            "\"config\"",
        ] {
            assert!(j.contains(sec), "report missing {sec}: {j}");
        }
        // Cross-check: the client section's stall equals the phase total.
        let stall_us = r
            .report
            .get("client")
            .and_then(|c| c.get("stall_us"))
            .cloned();
        assert_eq!(stall_us, Some(Json::U64(b.total.as_micros())));
    }

    #[test]
    fn serial_capacity_matches_paper_scale() {
        let c = run_serial_capacity(200);
        assert_eq!(c.bytes_per_conn, 21);
        // ~0.8-1.1 kbit/s per connection at 200 ms (paper says ~0.8).
        assert!(c.bits_per_sec_per_conn > 800.0 && c.bits_per_sec_per_conn < 1_200.0);
        // On the order of 100 connections.
        assert!(
            c.max_conns >= 80 && c.max_conns <= 130,
            "max_conns = {}",
            c.max_conns
        );
        assert!(c.utilization_at_max <= 1.0);
    }

    #[test]
    fn overhead_runner_reports_small_overhead() {
        let r = run_overhead(6, 2 * 1024 * 1024);
        assert!(r.overhead.abs() < 0.05, "overhead {}", r.overhead);
        assert!(r.hb_serial_bytes > 0);
    }

    #[test]
    fn temp_netfail_runner_recovers_small_bursts() {
        let r = run_temp_netfail(7, 10, false);
        assert!(r.recovery_requested && r.recovered, "{r:?}");
        assert!(r.client_ok);
        assert_eq!(r.verdict, None);
    }
}
