//! The only module that calls into the repo's crates.
//!
//! Scenario construction, the `bench_suite --scale` configuration, every
//! accessor a metric is read from and (in [`probes`]) every direct timing
//! of a public API live here, so a change to the repo's surface — ROADMAP
//! item 2 deleting `hb_delta`/`hb_batch`, say — is an edit to this file
//! and no other. Everything it hands back is plain data ([`Unit`]).
//!
//! All layers are measured from outside: public accessors, wall-clock
//! timing of public calls, and `World::set_profiling`.

pub mod probes;

use std::rc::Rc;
use std::time::{Duration, Instant};

use simnet::link::{LinkDir, LinkId};
use simnet::profile::Component;
use simnet::serial::SerialId;
use simnet::time::{SimDuration, SimTime};
use simnet::world::World;
use simtcp::conn::TcpConfig;
use sttcp::app::{Application, EchoApp};
use sttcp::config::StTcpConfig;
use sttcp_apps::apps::StreamApp;
use sttcp_apps::client::{ClientLog, ClientWorkload};
use sttcp_apps::scenario::{build_baseline, AppMaker, Scenario, ScenarioBuilder};
use sttcp_bench::phases::failover_timeline;

use crate::metrics::{echo_latencies_us, FailoverPhases, Goodput, LayerCounts, Unit};
use crate::speed::RefClock;
use crate::tracing::Tracer;
use crate::workloads::{mix, EchoSpec, Spec, MIB};

/// `bench_suite --scale`'s heartbeat batch size and serial-link count.
const SCALE_HB_BATCH: usize = 1_024;
const SCALE_SERIAL_LINKS: usize = 4;

/// Simulated time per `World::run_until` slice while waiting for clients.
const SLICE: SimDuration = SimDuration::from_millis(500);

/// Simulated time per lap of the reference clock: a slice is run in steps
/// of this, each a few milliseconds of host time on every workload (the
/// longest, conn_ramp's, ~25 ms), so the clock reads the machine's speed
/// as often as it wants to.
const STEP: SimDuration = SimDuration::from_millis(100);

/// The steady window of the three single-world fault-free workloads:
/// every client is connected and sending throughout it.
const STEADY_FROM: SimTime = SimTime::from_millis(500);
const STEADY_TO: SimTime = SimTime::from_millis(1_500);

/// Per-frame delivery jitter on every Ethernet link, drawn from the
/// world's seeded generator: the part of the inputs that `--seed` decides
/// inside the simulation. The seed also picks the jitter's bound, 1 to
/// 3 µs (an extreme such as a longest gap saturates at the bound, and
/// would otherwise read the same on every seed). Against 10 µs of
/// serialization for the smallest frame this never reorders anything.
fn jitter_links(world: &mut World, links: usize, seed: u64) {
    let max = SimDuration::from_micros(1 + mix(seed, 5) % 3);
    for i in 0..links {
        for dir in [LinkDir::AtoB, LinkDir::BtoA] {
            world.link_mut(LinkId(i)).set_jitter(dir, max);
        }
    }
}

/// Builds the scenario and returns it with the median build time, in
/// seconds at reference speed. A build that takes microseconds is
/// repeated for 50 ms, so the figure is the median of thousands rather
/// than one cold sample; a build that takes longer (conn_ramp's) happens
/// once (a second one doubles the process's peak memory). The machine's
/// slowdown is the median of three samples before the builds, one every
/// 10 ms among them and three after: one burst alone is off by 5–10 %.
/// The last scenario built is the one that runs.
fn timed_build(seed: u64, clock: &mut RefClock, build: impl Fn() -> Scenario) -> (Scenario, f64) {
    let mut slowdown: Vec<f64> = (0..3).map(|_| clock.sample()).collect();
    let mut times = Vec::new();
    let mut building = Duration::ZERO;
    loop {
        let t = Instant::now();
        let mut s = build();
        // One link per node: the clients, the primary, the backup.
        jitter_links(&mut s.world, s.clients.len() + 2, seed);
        let took = t.elapsed();
        times.push(took.as_secs_f64());
        building += took;
        if building >= Duration::from_millis(50) {
            slowdown.extend((0..3).map(|_| clock.sample()));
            let at_reference = crate::stats::median(&times) / crate::stats::median(&slowdown);
            return (s, at_reference);
        }
        if building >= Duration::from_millis(10) * (slowdown.len() as u32 - 2) {
            slowdown.push(clock.sample());
        }
    }
}

fn stream_app(chunk: usize) -> AppMaker {
    Rc::new(move || Box::new(StreamApp::new(chunk, false)) as Box<dyn Application>)
}

fn echo_app() -> AppMaker {
    Rc::new(|| Box::new(EchoApp::default()) as Box<dyn Application>)
}

/// Runs one repetition of a workload and returns what it observed.
pub fn run(spec: &Spec, seed: u64, tracer: &mut Tracer) -> Unit {
    let started = Instant::now();
    let span = tracer.enter("workload");
    let mut clock = RefClock::new();
    let clock = &mut clock;
    let mut unit = match spec {
        Spec::BulkDownload { total, pair_total } => {
            let download = ClientWorkload::Download { total: *total };
            let pair = ClientWorkload::Download { total: *pair_total };
            let app = stream_app(65_536);
            fault_free(seed, app, vec![download], pair, None, tracer, clock)
        }
        Spec::Echo(e) => {
            let chat = |count| ClientWorkload::EchoChat {
                chunk: e.chunk,
                period: SimDuration::from_micros(e.period_us),
                count,
            };
            // The pair is one client's traffic; an eighth of a bulk
            // stream is enough to read a ratio of simulated rates.
            let pair_count = if e.clients == 1 { e.count / 8 } else { e.count };
            fault_free(
                seed,
                echo_app(),
                vec![chat(e.count); e.clients],
                chat(pair_count.max(1)),
                Some(*e),
                tracer,
                clock,
            )
        }
        Spec::ConnRamp {
            conns,
            crash_after_us,
        } => conn_ramp(seed, *conns, *crash_after_us, tracer, clock),
        Spec::FailoverStorm { total, crash_at_us } => {
            failover_storm(seed, *total, crash_at_us, tracer, clock)
        }
    };
    tracer.exit(span);
    unit.unit_wall_s = started.elapsed().as_secs_f64();
    unit
}

/// Times `World::run_until` slices, records a span around each and laps
/// the reference clock every [`STEP`] of simulated time.
struct Runner<'a> {
    tracer: &'a mut Tracer,
    clock: &'a mut RefClock,
    wall: Duration,
}

impl Runner<'_> {
    fn slice(&mut self, world: &mut World, until: SimTime, name: &str) -> Duration {
        let span = self.tracer.enter(name);
        let mut took = Duration::ZERO;
        loop {
            let step = until.min(world.now() + STEP);
            let t = Instant::now();
            world.run_until(step);
            took += t.elapsed();
            self.clock.lap();
            if step >= until {
                break;
            }
        }
        self.tracer.exit(span);
        self.wall += took;
        took
    }

    /// Closes a timed region: its host seconds and reference seconds go
    /// to the unit.
    fn close_timed(&mut self, unit: &mut Unit) {
        self.clock.lap();
        unit.timed_wall_s = self.clock.raw_s();
        unit.timed_ref_s = self.clock.ref_s();
    }

    /// Slices forward until `done` or the horizon.
    fn until(
        &mut self,
        s: &mut Scenario,
        step: SimDuration,
        horizon: SimTime,
        name: &str,
        done: impl Fn(&Scenario) -> bool,
    ) {
        while !done(s) && s.world.now() < horizon {
            let next = s.world.now() + step;
            self.slice(&mut s.world, next, name);
        }
    }
}

fn all_finished(s: &Scenario) -> bool {
    s.clients.iter().all(|&c| s.finished(c))
}

/// Heartbeat bytes as simnet saw them: primary→backup
/// `SerialStats.bytes_delivered` summed over the serial links, and the
/// primary's round counter, at one instant.
fn hb_snapshot(s: &Scenario, serial_links: usize) -> (u64, u64) {
    let bytes = (0..serial_links)
        .map(|k| {
            let link = s.world.serial(SerialId(k));
            let from = if link.a.0 == s.primary {
                link.a
            } else {
                link.b
            };
            let dir = link.dir_from(from).expect("endpoint of its own link");
            link.stats(dir).bytes_delivered
        })
        .sum();
    let rounds = s.server(s.primary).metrics().hb_bandwidth().rounds;
    (bytes, rounds)
}

/// Runs through the steady window `[from, to]`, adding its heartbeat
/// bytes and rounds to the unit.
fn steady_window(
    run: &mut Runner<'_>,
    s: &mut Scenario,
    serial_links: usize,
    from: SimTime,
    to: SimTime,
    name: &str,
    unit: &mut Unit,
) -> Duration {
    let mut took = run.slice(&mut s.world, from, name);
    let before = hb_snapshot(s, serial_links);
    took += run.slice(&mut s.world, to, name);
    let after = hb_snapshot(s, serial_links);
    unit.hb_serial_bytes += after.0 - before.0;
    unit.hb_rounds += after.1 - before.1;
    took
}

/// What a client was asked to do, for the checks.
fn expected_ops(w: &ClientWorkload) -> u64 {
    match w {
        ClientWorkload::Download { .. } => 1,
        ClientWorkload::EchoChat { count, .. } | ClientWorkload::ReqResp { count, .. } => {
            u64::from(*count)
        }
        ClientWorkload::Idle => 0,
    }
}

/// Folds one client's log into the unit: payload, operations, latencies,
/// stall, and the output checks (finished, verified, one connect, no
/// reset).
fn observe_client(unit: &mut Unit, who: &str, log: &ClientLog, workload: &ClientWorkload) {
    let expected = expected_ops(workload);
    // A connect is an operation too: it is all an idle client does.
    unit.attempted += expected + 1;
    unit.conns += log.connects.len() as u64;
    unit.payload_bytes += log.total_received;
    if log.connects.len() != 1 {
        unit.fail(format!("{who}: {} connects, want 1", log.connects.len()));
    }
    if log.resets != 0 {
        unit.fail(format!("{who}: {} resets", log.resets));
    }
    if log.integrity_violations != 0 {
        unit.fail(format!(
            "{who}: {} integrity violations",
            log.integrity_violations
        ));
    }
    let Some(&connect) = log.connects.first() else {
        unit.fail_n(expected, format!("{who}: never connected"));
        return;
    };
    let done = match workload {
        ClientWorkload::Download { .. } => {
            if let Some(fin) = log.finished_at {
                unit.op_latency_us
                    .push(fin.saturating_since(connect).as_micros());
            }
            u64::from(log.finished_at.is_some())
        }
        ClientWorkload::EchoChat {
            chunk,
            period,
            count,
        } => {
            let progress: Vec<(u64, u64)> = log
                .progress
                .iter()
                .map(|&(t, b)| (t.as_micros(), b))
                .collect();
            let lat = echo_latencies_us(
                &progress,
                connect.as_micros(),
                *chunk as u64,
                period.as_micros(),
                u64::from(*count),
            );
            let done = lat.len() as u64;
            unit.op_latency_us.extend(lat);
            done.min(u64::from(log.echo_roundtrips))
        }
        ClientWorkload::ReqResp { .. } => u64::from(log.echo_roundtrips),
        ClientWorkload::Idle => 0,
    };
    unit.ops += done;
    if done < expected {
        let what = format!("{who}: {done} of {expected} operations completed");
        unit.fail_n(expected - done, what);
    }
    if let (Some(fin), false) = (log.finished_at, log.progress.is_empty()) {
        unit.stall_us
            .push(log.longest_stall(connect, fin).as_micros());
    }
}

/// Payload bits over (last finish − first connect) for one world's
/// clients; clients without a finish time close at `until`.
fn world_goodput(logs: &[&ClientLog], until: SimTime) -> Goodput {
    let first = logs.iter().filter_map(|l| l.connects.first()).min();
    let last = logs
        .iter()
        .map(|l| l.finished_at.unwrap_or(until))
        .max()
        .unwrap_or(until);
    let Some(&first) = first else {
        return Goodput::default();
    };
    Goodput {
        bits: logs.iter().map(|l| l.total_received * 8).sum(),
        span_us: last.saturating_since(first).as_micros(),
    }
}

/// Reads every layer's counters off a finished scenario.
fn add_layer_counts(s: &Scenario, serial_links: usize, c: &mut LayerCounts) {
    c.events += s.world.events_processed();
    for i in 0..s.clients.len() + 2 {
        for dir in [LinkDir::AtoB, LinkDir::BtoA] {
            let st = s.world.link(LinkId(i)).stats(dir);
            c.frames_offered += st.offered;
            c.frames_delivered += st.delivered;
            c.frames_dropped += st.dropped_loss + st.dropped_down;
        }
    }
    for k in 0..serial_links {
        let link = s.world.serial(SerialId(k));
        for from in [link.a, link.b] {
            let dir = link.dir_from(from).expect("endpoint of its own link");
            c.serial_bytes += link.stats(dir).bytes_delivered;
        }
    }
    for node in [s.primary, s.backup] {
        let tcp = s.server(node).tcp_stats();
        c.segs_out += tcp.segs_out;
        c.segs_in += tcp.segs_in;
        c.bytes_retransmitted += tcp.bytes_retransmitted;
        c.rto_fires += tcp.rto_fires;
        c.fast_retransmits += tcp.fast_retransmits;
    }
    let backup = s.server(s.backup).endpoint();
    c.suppressed_segs += backup
        .sockets()
        .into_iter()
        .filter_map(|id| backup.shim_stats(id))
        .map(|st| st.suppressed)
        .sum::<u64>();
    let pm = s.server(s.primary).metrics();
    let hb = pm.hb_bandwidth();
    c.hb_rounds += hb.rounds;
    c.hb_frames += hb.frames;
    c.hb_payload_bytes += hb.payload_bytes;
    c.hb_framing_bytes += hb.framing_bytes;
    c.hb_conn_entries += hb.conn_entries;
    c.hold_high_water_bytes = c.hold_high_water_bytes.max(pm.hold_high_water());
    c.fetch_bytes_served += pm.fetch_bytes_served();
    c.replay_bytes += s.server(s.backup).metrics().replay_bytes();
}

fn add_profile(world: &World, prof: &mut [(u64, u64); 9]) {
    for (slot, c) in prof.iter_mut().zip(Component::ALL) {
        let st = world.profiler().stats(c);
        slot.0 += st.self_ns;
        slot.1 += st.scopes;
    }
}

/// Every conn key the primary knows must have the same application
/// digest on the backup: the replicas ran in lockstep.
fn check_digests(s: &Scenario, unit: &mut Unit) {
    let (p, b) = (s.server(s.primary), s.server(s.backup));
    for key in p.conn_keys() {
        unit.attempted += 1;
        if p.app_digest(key) != b.app_digest(key) {
            unit.fail(format!(
                "conn {key:#x}: app digest differs between primary and backup"
            ));
        }
    }
}

/// Crashes the primary `after` from now and runs until the backup has
/// taken over. Returns `(crash time, took_over_at)`.
fn crash_and_take_over(
    run: &mut Runner<'_>,
    s: &mut Scenario,
    after: SimDuration,
    name: &str,
) -> (SimTime, Option<SimTime>) {
    let crash_at = s.world.now() + after;
    s.crash_primary_at(crash_at);
    let horizon = crash_at + SimDuration::from_secs(30);
    let backup = s.backup;
    run.until(s, SimDuration::from_millis(100), horizon, name, |s| {
        s.server(backup).took_over_at().is_some()
    });
    (crash_at, s.server(s.backup).took_over_at())
}

fn record_takeover(unit: &mut Unit, who: &str, crash_at: SimTime, took: Option<SimTime>) {
    unit.attempted += 1;
    match took {
        Some(at) => {
            unit.takeovers += 1;
            unit.takeover_us
                .push(at.saturating_since(crash_at).as_micros());
        }
        None => unit.fail(format!("{who}: backup never took over")),
    }
}

/// One client's traffic, fault-free, through ST-TCP and through a plain
/// TCP server: the failure-free overhead pair (paper Demo 3). Untimed
/// for the end-to-end rates; the plain side's host time is kept as the
/// bare simnet+simtcp baseline.
fn overhead_pair(seed: u64, app: AppMaker, workload: ClientWorkload, unit: &mut Unit) {
    let horizon = SimTime::from_secs(600);
    let mut st = ScenarioBuilder::new(app.clone(), workload.clone())
        .seed(seed)
        .build();
    jitter_links(&mut st.world, 3, seed);
    while !st.client_finished() && st.world.now() < horizon {
        let next = st.world.now() + SLICE;
        st.world.run_until(next);
    }
    let mut plain = build_baseline(seed, app, workload.clone(), TcpConfig::default(), None);
    jitter_links(&mut plain.world, 2, seed);
    let t = Instant::now();
    while !plain.client_finished() && plain.world.now() < horizon {
        let next = plain.world.now() + SLICE;
        plain.world.run_until(next);
    }
    unit.plain_wall_s = t.elapsed().as_secs_f64();
    unit.plain_bytes = plain.client_log().total_received;
    unit.pair_sttcp = world_goodput(&[st.client_log()], horizon);
    unit.pair_plain = world_goodput(&[plain.client_log()], horizon);
    for (who, log) in [
        ("pair/sttcp", st.client_log()),
        ("pair/plain", plain.client_log()),
    ] {
        unit.attempted += 1;
        if log.finished_at.is_none() || log.integrity_violations != 0 || log.resets != 0 {
            unit.fail(format!("{who}: transfer did not complete cleanly"));
        }
    }
}

/// bulk_download, bulk_echo, fanin_echo: one default-config world, every
/// client runs to completion, then — outside the timed region — the
/// primary is crashed once so the workload also has a takeover time.
fn fault_free(
    seed: u64,
    app: AppMaker,
    mut clients: Vec<ClientWorkload>,
    pair: ClientWorkload,
    echo: Option<EchoSpec>,
    tracer: &mut Tracer,
    clock: &mut RefClock,
) -> Unit {
    let mut unit = Unit::default();
    let workloads = clients.clone();
    let first = clients.remove(0);

    let span = tracer.enter("setup");
    let (mut s, setup_s) = timed_build(seed, clock, || {
        ScenarioBuilder::new(app.clone(), first.clone())
            .extra_clients(clients.clone())
            .seed(seed)
            .build()
    });
    unit.setup_s = setup_s;
    tracer.exit(span);
    s.world.set_profiling(tracer.enabled());

    let mut run = Runner {
        tracer,
        clock,
        wall: Duration::ZERO,
    };
    run.clock.restart();
    steady_window(
        &mut run,
        &mut s,
        1,
        STEADY_FROM,
        STEADY_TO,
        "run",
        &mut unit,
    );
    unit.hb_conns = s.server(s.primary).conn_keys().len() as u64;
    // Generous horizon: ten times the echo schedule, or ten minutes.
    let horizon = SimTime::from_secs(echo.map_or(600, |e| {
        10 + 10 * e.period_us * u64::from(e.count) / 1_000_000
    }));
    run.until(&mut s, SLICE, horizon, "run", all_finished);
    run.close_timed(&mut unit);
    unit.run_wall_s = run.wall.as_secs_f64();

    let span = run.tracer.enter("report");
    let now = s.world.now();
    let logs: Vec<&ClientLog> = s.clients.iter().map(|&c| s.log_of(c)).collect();
    unit.goodput = world_goodput(&logs, now);
    for (i, (log, w)) in logs.iter().zip(&workloads).enumerate() {
        observe_client(&mut unit, &format!("client{i}"), log, w);
    }
    unit.work_units = match echo {
        Some(_) => unit.ops,
        None => unit.payload_bytes / MIB,
    };
    check_digests(&s, &mut unit);
    add_layer_counts(&s, 1, &mut unit.layer);
    add_profile(&s.world, &mut unit.prof);
    run.tracer.exit(span);

    s.world.set_profiling(false);
    let jitter = SimDuration::from_micros(10_000 + mix(seed, 3) % 1_000);
    run.clock.restart();
    let (crash_at, took) = crash_and_take_over(&mut run, &mut s, jitter, "tail");
    unit.failover_ref_s = run.clock.ref_s();
    record_takeover(&mut unit, "tail", crash_at, took);
    drop(s);

    let span = run.tracer.enter("pair");
    overhead_pair(seed, app, pair, &mut unit);
    run.tracer.exit(span);
    unit
}

/// conn_ramp: exactly `bench_suite --scale`'s point — ramp, a 2 s steady
/// window, primary crash, takeover.
fn conn_ramp(
    seed: u64,
    total_conns: u64,
    crash_after_us: u64,
    tracer: &mut Tracer,
    clock: &mut RefClock,
) -> Unit {
    let mut unit = Unit::default();
    let extra = total_conns.max(1) - 1;
    let first = ClientWorkload::Download { total: 256 * 1024 };
    let rest: Vec<ClientWorkload> = (0..extra)
        .map(|i| {
            if i % 500 == 0 {
                ClientWorkload::Download { total: 64 * 1024 }
            } else {
                ClientWorkload::Idle
            }
        })
        .collect();
    let cfg = StTcpConfig {
        hb_delta: true,
        hb_batch: SCALE_HB_BATCH,
        ..Default::default()
    };

    let span = tracer.enter("setup");
    let (mut s, setup_s) = timed_build(seed, clock, || {
        ScenarioBuilder::new(stream_app(4096), first.clone())
            .extra_clients(rest.clone())
            .seed(seed)
            .sttcp(cfg.clone())
            .serial_links(SCALE_SERIAL_LINKS)
            .build()
    });
    unit.setup_s = setup_s;
    tracer.exit(span);
    s.world.set_profiling(tracer.enabled());

    let mut run = Runner {
        tracer,
        clock,
        wall: Duration::ZERO,
    };
    // Clients connect 1 ms apart from t = 100 ms; the tail gets 500 ms.
    let ramp_end = SimTime::from_millis(100 + extra + 500);
    run.clock.restart();
    let ramp = run.slice(&mut s.world, ramp_end, "ramp");
    unit.ramp_wall_s = ramp.as_secs_f64();
    run.close_timed(&mut unit);

    let span = run.tracer.enter("report");
    let live = s.server(s.primary).conn_keys().len() as u64;
    unit.hb_conns = live;
    unit.work_units = live;
    unit.attempted += total_conns;
    if live != total_conns {
        let what = format!("{live} of {total_conns} conns live at ramp end");
        unit.fail_n(total_conns.abs_diff(live), what);
    }
    let logs: Vec<&ClientLog> = s.clients.iter().map(|&c| s.log_of(c)).collect();
    unit.goodput = world_goodput(&logs, ramp_end);
    let workloads = std::iter::once(&first).chain(&rest);
    for (i, (log, w)) in logs.iter().zip(workloads).enumerate() {
        observe_client(&mut unit, &format!("client{i}"), log, w);
    }
    run.tracer.exit(span);

    let steady_end = ramp_end + SimDuration::from_secs(2);
    run.clock.restart();
    let steady = steady_window(
        &mut run,
        &mut s,
        SCALE_SERIAL_LINKS,
        ramp_end,
        steady_end,
        "steady",
        &mut unit,
    );
    unit.steady_wall_s = steady.as_secs_f64();

    let before = run.wall;
    let after = SimDuration::from_micros(crash_after_us);
    let (crash_at, took) = crash_and_take_over(&mut run, &mut s, after, "failover");
    unit.failover_wall_s = (run.wall - before).as_secs_f64();
    unit.failover_ref_s = run.clock.ref_s();
    record_takeover(&mut unit, "ramp", crash_at, took);
    unit.run_wall_s = run.wall.as_secs_f64();

    let span = run.tracer.enter("report");
    add_layer_counts(&s, SCALE_SERIAL_LINKS, &mut unit.layer);
    add_profile(&s.world, &mut unit.prof);
    run.tracer.exit(span);
    drop(s);

    let span = run.tracer.enter("pair");
    overhead_pair(
        seed,
        stream_app(4096),
        ClientWorkload::Download { total: 64 * 1024 },
        &mut unit,
    );
    run.tracer.exit(span);
    unit
}

/// failover_storm: one small world per crash time, each run until its
/// client has the whole download despite the crash.
fn failover_storm(
    seed: u64,
    total: u64,
    crash_at_us: &[u64],
    tracer: &mut Tracer,
    clock: &mut RefClock,
) -> Unit {
    let mut unit = Unit::default();
    let workload = ClientWorkload::Download { total };
    let hb_period = StTcpConfig::default().hb_period;
    let window = (SimTime::from_millis(300), SimTime::from_millis(700));
    let horizon = SimTime::from_secs(60);
    let mut run_wall = Duration::ZERO;

    clock.restart();
    for (i, &crash_us) in crash_at_us.iter().enumerate() {
        let who = format!("world[{i}]");
        let world_span = tracer.enter(&who);

        let span = tracer.enter("build");
        let t = Instant::now();
        let mut s = ScenarioBuilder::new(stream_app(4096), workload.clone())
            .seed(seed + i as u64)
            .build();
        jitter_links(&mut s.world, 3, seed + i as u64);
        let crash_at = SimTime::from_micros(crash_us);
        s.crash_primary_at(crash_at);
        let built = t.elapsed();
        tracer.exit(span);
        unit.setup_s += built.as_secs_f64() / clock.factor();
        unit.build_us.push(built.as_micros() as u64);
        s.world.set_profiling(tracer.enabled());

        let mut run = Runner {
            tracer,
            clock,
            wall: Duration::ZERO,
        };
        steady_window(&mut run, &mut s, 1, window.0, window.1, "run", &mut unit);
        run.until(&mut s, SLICE / 2, horizon, "run", all_finished);
        unit.run_us.push(run.wall.as_micros() as u64);
        run_wall += run.wall;

        let log = s.client_log();
        unit.goodput.add(world_goodput(&[log], horizon));
        observe_client(&mut unit, &who, log, &workload);
        let took = s.server(s.backup).took_over_at();
        record_takeover(&mut unit, &who, crash_at, took);
        if let (Some(&connect), Some(fin)) = (log.connects.first(), log.finished_at) {
            unit.attempted += 1;
            if log.longest_stall(connect, fin) < hb_period {
                unit.fail(format!("{who}: stall shorter than one heartbeat period"));
            }
            if let Some((from, to)) = log.longest_stall_window(connect, fin) {
                let events = s.server(s.backup).events();
                let timeline = failover_timeline(from, to, Some(crash_at), events);
                if let Some(b) = timeline.breakdown() {
                    unit.phases.push(FailoverPhases {
                        phase_us: b.durations.map(|d| d.as_micros()),
                        detect_us: b.detection().as_micros(),
                    });
                }
            }
        }
        add_layer_counts(&s, 1, &mut unit.layer);
        add_profile(&s.world, &mut unit.prof);
        drop(s);
        tracer.exit(world_span);
    }
    // The last lap takes in the last world's checks and teardown.
    clock.lap();
    unit.timed_wall_s = clock.raw_s();
    unit.timed_ref_s = clock.ref_s();
    unit.failover_ref_s = unit.timed_ref_s;
    unit.run_wall_s = run_wall.as_secs_f64();
    unit.hb_conns = 1;
    unit.work_units = crash_at_us.len() as u64;

    let span = tracer.enter("pair");
    overhead_pair(seed, stream_app(4096), workload, &mut unit);
    tracer.exit(span);
    unit
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{per_layer, Better, END_TO_END};
    use crate::output::{result_line, summary_json, Report};
    use crate::workloads::{spec, WORKLOADS};
    use obs::json::Json;
    use std::fmt::Write as _;

    /// The echo-RTT derivation against a hand-built `ClientLog.progress`.
    #[test]
    fn echo_rtt_from_a_hand_built_client_log() {
        let ms = SimTime::from_millis;
        let log = ClientLog {
            connects: vec![ms(100)],
            progress: vec![(ms(106), 64), (ms(111), 100), (ms(117), 192)],
            total_received: 192,
            echo_roundtrips: 3,
            finished_at: Some(ms(117)),
            ..ClientLog::default()
        };
        let w = ClientWorkload::EchoChat {
            chunk: 64,
            period: SimDuration::from_millis(5),
            count: 3,
        };
        let mut unit = Unit::default();
        observe_client(&mut unit, "c", &log, &w);
        // Slabs due at 105/110/115 ms; covered at 106, 117 (the 111 ms
        // sample holds only 100 of the 128 bytes) and 117 ms.
        assert_eq!(unit.op_latency_us, vec![1_000, 7_000, 2_000]);
        assert_eq!((unit.ops, unit.failed), (3, 0));
        assert_eq!(unit.stall_us, vec![6_000]);
    }

    /// A small storm: phases sum to the stall world by world, so the
    /// phase medians sum to the stall median within rounding.
    #[test]
    fn storm_phases_sum_to_the_stall() {
        let s = spec("failover_storm", 3, 50).unwrap();
        let unit = run(&s, 3, &mut Tracer::new(false, "t".into()));
        assert_eq!(unit.failed, 0, "{:?}", unit.errors);
        assert_eq!(unit.phases.len(), unit.stall_us.len());
        for (p, stall) in unit.phases.iter().zip(&unit.stall_us) {
            assert_eq!(p.phase_us.iter().sum::<u64>(), *stall);
        }
        let m = crate::metrics::layer_values(&unit);
        let phase_medians: f64 = crate::metrics::PHASES
            .iter()
            .map(|p| m[&format!("sttcp.phase.{p}_ms_p50")])
            .sum();
        let stall_median = crate::metrics::end_to_end(&unit)["stall_ms_p50"];
        // Medians of parts need not sum to the median of the whole; here
        // one phase (symptom) carries the spread, so they do to within
        // the 10 ms lattice the stalls sit on.
        assert!(
            (phase_medians - stall_median).abs() <= 10.0,
            "{phase_medians} vs {stall_median}"
        );
    }

    /// `metrics.rs` may not import the repo, so it spells the profiler's
    /// components and the timeline's phases out; they must stay the repo's.
    #[test]
    fn component_and_phase_names_are_the_repos() {
        assert_eq!(
            crate::metrics::COMPONENTS,
            Component::ALL.map(Component::key)
        );
        assert_eq!(
            crate::metrics::PHASES,
            obs::timeline::Phase::ALL.map(obs::timeline::Phase::name)
        );
    }

    /// A failed check must surface: a client that never finishes counts.
    #[test]
    fn an_unfinished_client_is_a_failed_operation() {
        let log = ClientLog {
            connects: vec![SimTime::from_millis(100)],
            ..ClientLog::default()
        };
        let mut unit = Unit::default();
        let w = ClientWorkload::Download { total: 1 << 20 };
        observe_client(&mut unit, "c", &log, &w);
        assert_eq!((unit.attempted, unit.failed, unit.ops), (2, 1, 0));
    }

    #[test]
    fn emitted_json_parses_with_obs_json() {
        let mut tracer = Tracer::new(true, "run \"1\"".into());
        let unit = run(&spec("bulk_echo", 1, 400).unwrap(), 1, &mut tracer);
        assert_eq!(unit.failed, 0, "{:?}", unit.errors);
        let trace = tracer.to_chrome_json(&[("prof.tcp.self_ms".to_string(), 1.5)]);
        let parsed = Json::parse(&trace).expect("chrome trace parses");
        let events = parsed.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert!(events.len() > 4);
        assert_eq!(
            events[0].get("name").and_then(Json::as_str),
            Some("workload")
        );

        let report = Report {
            metrics: crate::metrics::end_to_end(&unit)
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            attempted: unit.attempted,
            failed: unit.failed,
            errors: Vec::new(),
        };
        let names: Vec<(String, &str)> = END_TO_END
            .iter()
            .map(|d| (d.name.to_string(), d.unit))
            .collect();
        let line = Json::parse(&result_line(&report, true, &names)).expect("result line parses");
        let Json::Obj(fields) = &line else {
            panic!("result line is an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let Some(Json::Obj(metrics)) = line.get("metrics") else {
            panic!("metrics is an object")
        };
        assert_eq!(metrics.len(), END_TO_END.len());

        let units = names.iter().map(|(k, u)| (k.clone(), *u)).collect();
        let summary = summary_json(1, true, 2, &[("bulk_echo".into(), report)], &units);
        let parsed = Json::parse(&summary).expect("summary parses");
        assert_eq!(parsed.get("claim"), Some(&Json::Null));
    }

    /// `BENCHMARK.json` is the catalogue, rendered. On a mismatch the
    /// expected text is in the failure message: paste it over the file.
    #[test]
    fn benchmark_json_is_the_catalogue() {
        let dir = |b: Better| match b {
            Better::Higher => "higher",
            Better::Lower => "lower",
        };
        let mut want = String::from("{\n");
        want.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
        want.push_str("  \"paths\": [\"benchmark\"],\n");
        want.push_str("  \"run_seconds\": 15,\n");
        want.push_str("  \"workloads\": [\n");
        for (i, w) in WORKLOADS.iter().enumerate() {
            let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
            let _ = writeln!(
                want,
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
                w.name, w.why
            );
        }
        want.push_str("  ],\n  \"end_to_end\": [\n");
        for (i, d) in END_TO_END.iter().enumerate() {
            let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
            let _ = writeln!(
                want,
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
                d.name,
                d.unit,
                dir(d.better),
                d.bound
            );
        }
        want.push_str("  ],\n  \"per_layer\": [\n");
        let layers = per_layer();
        assert!(layers.len() <= 128);
        for (i, d) in layers.iter().enumerate() {
            let comma = if i + 1 < layers.len() { "," } else { "" };
            let _ = writeln!(
                want,
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
                d.name,
                d.unit,
                dir(d.better)
            );
            assert!(crate::metrics::name_ok(&d.name), "{}", d.name);
            assert!(d.unit.len() <= 16, "{}", d.unit);
        }
        want.push_str("  ]\n}\n");
        Json::parse(&want).expect("rendered catalogue parses");
        let have = include_str!("../../BENCHMARK.json");
        assert!(have == want, "BENCHMARK.json should read:\n{want}");
    }

    /// The README documents every metric and workload by name.
    #[test]
    fn readme_names_every_metric_and_workload() {
        let readme = include_str!("../README.md");
        for d in &END_TO_END {
            assert!(readme.contains(&format!("`{}`", d.name)), "{}", d.name);
        }
        for d in per_layer() {
            // Families are documented by pattern (`prof.<c>.self_ms`, …).
            let family = ["prof.", "sttcp.phase."]
                .iter()
                .any(|p| d.name.starts_with(p));
            assert!(
                family || readme.contains(&format!("`{}`", d.name)),
                "{}",
                d.name
            );
        }
        for w in &WORKLOADS {
            assert!(readme.contains(&format!("`{}`", w.name)), "{}", w.name);
        }
    }
}
