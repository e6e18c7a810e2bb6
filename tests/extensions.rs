//! Integration tests for capabilities beyond the paper's headline demos:
//! multiple simultaneous client connections, the §4.2.2 watchdog
//! extension, and the §4.3 output-commit (unrecoverable gap) caveat.

use std::rc::Rc;

use simnet::time::{SimDuration, SimTime};

use sttcp::app::EchoApp;
use sttcp::config::{Role, StTcpConfig, GAP_GIVEUP};
use sttcp::events::{FailureReason, StTcpEvent};
use sttcp::metrics::ServerMetrics;
use sttcp::server::AppCrashMode;

use sttcp_apps::apps::StreamApp;
use sttcp_apps::client::ClientWorkload;
use sttcp_apps::scenario::{AppMaker, Scenario, ScenarioBuilder, Topology};
use sttcp_bench::experiments::SCALE_HB_BATCH;

fn t(ms: u64) -> SimTime {
    SimTime::from_millis(ms)
}

fn stream_app(chunk: usize) -> AppMaker {
    Rc::new(move || Box::new(StreamApp::new(chunk, false)) as _)
}

fn echo_app() -> AppMaker {
    Rc::new(|| Box::new(EchoApp::default()) as _)
}

// ---------------------------------------------------------------------
// Multiple clients
// ---------------------------------------------------------------------

#[test]
fn three_clients_all_served_failure_free() {
    // One server application type serves every client, so all workloads
    // speak the streamer's protocol.
    let mut s = ScenarioBuilder::new(
        stream_app(4096),
        ClientWorkload::Download { total: 128 * 1024 },
    )
    .extra_clients(vec![
        ClientWorkload::Download { total: 64 * 1024 },
        ClientWorkload::Download { total: 96 * 1024 },
    ])
    .seed(201)
    .build();
    s.world.run_until(t(15_000));
    for &c in s.clients.clone().iter() {
        assert!(s.finished(c), "client {c:?} unfinished: {:?}", s.log_of(c));
        assert_eq!(s.log_of(c).integrity_violations, 0);
    }
    // The heartbeat carries one record per connection on both servers.
    assert_eq!(s.server(s.primary).conn_keys().len(), 3);
    assert_eq!(s.server(s.backup).conn_keys().len(), 3);
    // Replica lockstep on every connection.
    for key in s.server(s.primary).conn_keys() {
        assert_eq!(
            s.server(s.primary).app_digest(key),
            s.server(s.backup).app_digest(key),
            "replica divergence on conn {key:08x}"
        );
    }
}

#[test]
fn three_clients_survive_primary_crash_together() {
    let mut s = ScenarioBuilder::new(
        stream_app(4096),
        ClientWorkload::Download { total: 512 * 1024 },
    )
    .extra_clients(vec![
        ClientWorkload::Download { total: 512 * 1024 },
        ClientWorkload::Download { total: 384 * 1024 },
    ])
    .seed(202)
    .build();
    s.crash_primary_at(t(800));
    s.world.run_until(t(60_000));
    assert!(s.server(s.backup).took_over_at().is_some());
    for &c in s.clients.clone().iter() {
        let log = s.log_of(c);
        assert!(s.finished(c), "client {c:?} unfinished: {log:?}");
        assert_eq!(log.integrity_violations, 0, "client {c:?} corrupted");
        assert_eq!(log.resets, 0, "client {c:?} reset");
        assert_eq!(log.connects.len(), 1, "client {c:?} reconnected");
    }
}

// ---------------------------------------------------------------------
// Watchdog extension (§4.2.2)
// ---------------------------------------------------------------------

#[test]
fn watchdog_detects_app_crash_on_idle_connection() {
    // The case the paper admits the transport layer cannot see: the
    // primary's application dies while the connection is completely idle.
    let cfg = StTcpConfig {
        watchdog_timeout: Some(SimDuration::from_millis(500)),
        ..Default::default()
    };
    let mut s = ScenarioBuilder::new(echo_app(), ClientWorkload::Idle)
        .seed(210)
        .sttcp(cfg)
        .build();
    s.crash_app_at(s.primary, t(2_000), AppCrashMode::SilentNoCleanup);
    s.world.run_until(t(20_000));
    let reason = s.server(s.backup).events().iter().find_map(|e| match e {
        StTcpEvent::PeerDeclaredFailed { reason, at } => Some((*reason, *at)),
        _ => None,
    });
    let (reason, at) = reason.expect("watchdog should have caught the idle crash");
    assert_eq!(reason, FailureReason::WatchdogReport);
    // Detection: watchdog timeout + heartbeat + check slop.
    assert!(at > t(2_500) && at < t(4_000), "detected at {at}");
    assert!(s.server(s.backup).took_over_at().is_some());
    assert!(!s.world.is_powered(s.primary));
}

#[test]
fn without_watchdog_idle_app_crash_stays_undetected() {
    // The paper's admitted limitation, reproduced: no traffic, no FIN, no
    // watchdog ⇒ nothing at the transport layer ever notices.
    let mut s = ScenarioBuilder::new(echo_app(), ClientWorkload::Idle)
        .seed(211)
        .build();
    s.crash_app_at(s.primary, t(2_000), AppCrashMode::SilentNoCleanup);
    s.world.run_until(t(30_000));
    let verdicts = s
        .server(s.backup)
        .events()
        .iter()
        .any(|e| matches!(e, StTcpEvent::PeerDeclaredFailed { .. }));
    assert!(
        !verdicts,
        "idle crash should be invisible without a watchdog"
    );
    assert!(s.server(s.primary).ft_mode());
}

/// A healthy application is never suspected, whatever the timeout —
/// one shorter than the 10 ms application tick included (a per-connection
/// sign-of-life clock refreshed by that tick once condemned both servers
/// at 250 ms).
#[test]
fn watchdog_never_fires_on_healthy_idle_pair() {
    for timeout_ms in [500, 10] {
        let cfg = StTcpConfig {
            watchdog_timeout: Some(SimDuration::from_millis(timeout_ms)),
            ..Default::default()
        };
        let mut s = ScenarioBuilder::new(echo_app(), ClientWorkload::Idle)
            .seed(212)
            .sttcp(cfg)
            .build();
        s.world.run_until(t(30_000));
        for node in [s.primary, s.backup] {
            assert!(
                s.server(node)
                    .events()
                    .iter()
                    .all(|e| !matches!(e, StTcpEvent::PeerDeclaredFailed { .. })),
                "{timeout_ms} ms: false watchdog verdict on {node:?}: {:?}",
                s.server(node).events()
            );
        }
        assert!(s.server(s.primary).ft_mode());
        assert!(s.server(s.backup).ft_mode());
    }
}

#[test]
fn watchdog_accelerates_detection_under_traffic_too() {
    let cfg = StTcpConfig {
        watchdog_timeout: Some(SimDuration::from_millis(300)),
        // Make the lag detectors slow so the watchdog visibly wins.
        app_max_lag_time: SimDuration::from_secs(10),
        app_max_lag_bytes: 64 * 1024 * 1024,
        ..Default::default()
    };
    let mut s = ScenarioBuilder::new(
        echo_app(),
        ClientWorkload::EchoChat {
            chunk: 512,
            period: SimDuration::from_millis(50),
            count: 300,
        },
    )
    .seed(213)
    .sttcp(cfg)
    .build();
    s.crash_app_at(s.primary, t(2_000), AppCrashMode::SilentNoCleanup);
    s.world.run_until(t(60_000));
    let reason = s.server(s.backup).events().iter().find_map(|e| match e {
        StTcpEvent::PeerDeclaredFailed { reason, at } => Some((*reason, *at)),
        _ => None,
    });
    let (reason, at) = reason.expect("detected");
    assert_eq!(reason, FailureReason::WatchdogReport);
    assert!(
        at < t(4_000),
        "watchdog should beat the 10s lag timer, fired {at}"
    );
    assert!(s.client_finished());
    assert_eq!(s.client_log().resets, 0);
}

// ---------------------------------------------------------------------
// Output-commit caveat (§4.3): unrecoverable gap at takeover
// ---------------------------------------------------------------------

/// Both §4.3 give-up rules, one row each. The backup misses bytes the
/// primary acks at 2 000 ms, and the primary dies before any recovery
/// round. Crashing at 2 150 ms, the backup never heard of those bytes: it
/// takes over with a hole the client never refills, and the hole watch
/// gives up. Crashing at 2 210 ms, the 2 200 ms heartbeat reported them,
/// so the takeover itself gives up.
#[test]
fn primary_crash_during_recovery_resets_connection_not_hangs() {
    for (crash_ms, by_hole_watch) in [(2_150, true), (2_210, false)] {
        let cfg = StTcpConfig {
            // Keep the backup from (re-)fetching before the crash lands.
            recovery_interval: SimDuration::from_secs(600),
            ..Default::default()
        };
        let mut s = ScenarioBuilder::new(
            echo_app(),
            ClientWorkload::EchoChat {
                chunk: 1024,
                period: SimDuration::from_millis(50),
                count: 300,
            },
        )
        .seed(220)
        .sttcp(cfg)
        .build();
        s.drop_tap_at(s.link_backup, t(2_000), 10);
        s.crash_primary_at(t(crash_ms));
        s.world.run_until(t(30_000));

        let backup = s.server(s.backup);
        let took = backup.took_over_at().expect("takeover");
        let gaps: Vec<_> = (backup.events().iter())
            .filter_map(|e| match e {
                StTcpEvent::UnrecoverableGap { at, .. } => Some(at.saturating_since(took)),
                _ => None,
            })
            .collect();
        let rule = |d| match by_hole_watch {
            true => d >= GAP_GIVEUP,
            false => d == SimDuration::ZERO,
        };
        let msg = format!("crash at {crash_ms} ms: gaps {gaps:?} after the takeover");
        assert!(matches!(gaps[..], [d] if rule(d)), "{msg}");
        // The client is *reset* (the honest unrecoverable outcome the
        // paper describes), not stranded on a silent, stalled connection.
        let log = s.client_log();
        assert_eq!((log.resets, log.integrity_violations), (1, 0), "{log:?}");
        assert_eq!(backup.role(), Role::Primary);
    }
}

// ---------------------------------------------------------------------
// Delta (v2) heartbeats and parallel serial links
// ---------------------------------------------------------------------

fn delta_cfg() -> StTcpConfig {
    StTcpConfig {
        hb_delta: true,
        ..Default::default()
    }
}

#[test]
fn delta_heartbeats_serve_clients_failure_free() {
    let mut s = ScenarioBuilder::new(
        stream_app(4096),
        ClientWorkload::Download { total: 128 * 1024 },
    )
    .extra_clients(vec![
        ClientWorkload::Download { total: 64 * 1024 },
        ClientWorkload::Idle,
        ClientWorkload::Idle,
    ])
    .seed(230)
    .sttcp(delta_cfg())
    .serial_links(3)
    .build();
    s.world.run_until(t(15_000));
    for &c in s.clients.clone().iter() {
        let log = s.log_of(c);
        assert_eq!(log.integrity_violations, 0);
        assert_eq!(log.connects.len(), 1, "client {c:?}: {log:?}");
    }
    assert!(s.finished(s.client));
    assert_eq!(s.server(s.primary).conn_keys().len(), 4);
    assert_eq!(s.server(s.backup).conn_keys().len(), 4);
    for key in s.server(s.primary).conn_keys() {
        assert_eq!(
            s.server(s.primary).app_digest(key),
            s.server(s.backup).app_digest(key),
            "replica divergence on conn {key:08x}"
        );
    }
}

#[test]
fn delta_heartbeats_survive_primary_crash() {
    let mut s = ScenarioBuilder::new(
        stream_app(4096),
        ClientWorkload::Download { total: 512 * 1024 },
    )
    .extra_clients(vec![
        ClientWorkload::Download { total: 384 * 1024 },
        ClientWorkload::Idle,
    ])
    .seed(231)
    .sttcp(delta_cfg())
    .serial_links(2)
    .build();
    s.crash_primary_at(t(800));
    s.world.run_until(t(60_000));
    assert!(s.server(s.backup).took_over_at().is_some());
    for c in [s.client, s.clients[1]] {
        let log = s.log_of(c);
        assert!(s.finished(c), "client {c:?} unfinished: {log:?}");
        assert_eq!(log.integrity_violations, 0, "client {c:?} corrupted");
        assert_eq!(log.resets, 0, "client {c:?} reset");
        assert_eq!(log.connects.len(), 1, "client {c:?} reconnected");
    }
}

#[test]
fn delta_serial_shards_survive_ip_heartbeat_loss() {
    // Kill the primary's NIC: only the sharded serial links remain, and
    // the net-lag detector must still fire through them (the IP frame
    // carried every record; serial shard s carries only conns with
    // key % nserial == s, so liveness and per-conn state both flow).
    let mut s = ScenarioBuilder::new(
        stream_app(4096),
        ClientWorkload::Download { total: 512 * 1024 },
    )
    .extra_clients(vec![ClientWorkload::Download { total: 256 * 1024 }])
    .seed(233)
    .sttcp(delta_cfg())
    .serial_links(3)
    .build();
    s.fail_nic_at(s.primary, t(900));
    s.world.run_until(t(60_000));
    assert!(
        s.server(s.backup).took_over_at().is_some(),
        "backup never took over after NIC failure: {:?}",
        s.server(s.backup).events()
    );
    for &c in s.clients.clone().iter() {
        let log = s.log_of(c);
        assert!(s.finished(c), "client {c:?} unfinished: {log:?}");
        assert_eq!(log.integrity_violations, 0);
        assert_eq!(log.connects.len(), 1);
    }
}

/// Regression: a connection that idles for a second, then moves 80 KiB
/// each way. Idle, its record rides no delta frame, so no check visits
/// it; the first visit after the burst counted the idle second as the
/// byte criterion's confirmation window already served, and both
/// servers condemned each other (`AppLagBytes` at 1.150 s) while v1 —
/// every record re-applied every round — stayed verdict-free. Every
/// heartbeat format judges the run alike.
#[test]
fn an_idle_second_then_a_burst_is_not_app_lag_in_any_heartbeat_format() {
    let batched = StTcpConfig {
        hb_batch: SCALE_HB_BATCH,
        ..delta_cfg()
    };
    for (cfg, cables) in [(StTcpConfig::default(), 1), (delta_cfg(), 1), (batched, 4)] {
        let chat = ClientWorkload::EchoChat {
            chunk: 80 * 1024,
            period: SimDuration::from_secs(1),
            count: 6,
        };
        let mode = (cfg.hb_delta, cfg.hb_batch);
        let mut s = ScenarioBuilder::new(echo_app(), chat)
            .seed(1)
            .sttcp(cfg)
            .serial_links(cables)
            .build();
        s.world.run_until(t(10_000));
        for node in [s.primary, s.backup] {
            let verdicts: Vec<_> = s
                .server(node)
                .events()
                .iter()
                .filter(|e| matches!(e, StTcpEvent::PeerDeclaredFailed { .. }))
                .collect();
            assert!(verdicts.is_empty(), "(delta, batch) {mode:?}: {verdicts:?}");
        }
        assert!(s.finished(s.client), "(delta, batch) {mode:?}: unfinished");
    }
}

// ---------------------------------------------------------------------
// One heartbeat sender: what a v1 member gets
// ---------------------------------------------------------------------

/// What the one sender puts on the primary's wire before any connection
/// opens: its role, no records, and a ping report exactly while its
/// gateway-ping campaign runs — opened by the loss of the backup's IP
/// heartbeats (serial alive: Table 1 row 4), closed by their return.
/// Every ping is lost too, so each attempt after the first is a failure.
#[test]
fn heartbeat_payload_reflects_role_and_ping_state() {
    use simnet::{frame::EthernetFrame, ip::IpProto, iplayer::IpInterface, link::LinkDir};
    use sttcp::heartbeat::HbPayload;
    let mut s = ScenarioBuilder::new(echo_app(), ClientWorkload::Idle)
        .connect_at(SimDuration::from_secs(60))
        .build();
    let sent = Rc::new(std::cell::RefCell::new(Vec::new()));
    let log = sent.clone();
    let tap = move |f: &EthernetFrame| {
        let pkt = IpInterface::decap(f);
        let hb = pkt.as_ref().filter(|p| p.proto == IpProto::Heartbeat);
        log.borrow_mut()
            .extend(hb.map(|p| HbPayload::decode(&p.payload).unwrap()));
        pkt.is_some_and(|p| p.proto == IpProto::Icmp)
    };
    s.world
        .set_link_filter(s.link_primary, LinkDir::AtoB, Some(Box::new(tap)));
    let link = s.link_backup;
    s.world.schedule(t(1_000), move |w| {
        w.drop_window(link, LinkDir::AtoB, t(2_900))
    });
    for (from, to, ping) in [
        (0, 1_000, false),
        (1_700, 2_900, true),
        (3_100, 4_000, false),
    ] {
        s.world.run_until(t(from));
        sent.take();
        s.world.run_until(t(to));
        let hbs = sent.take();
        assert!(hbs.len() >= 4, "{} rounds in {from}..{to} ms", hbs.len());
        for hb in &hbs {
            let lost = hb.ping.map(|p| p.consecutive_failures + 1 == p.attempts);
            let got = (hb.role, hb.conns.len(), lost);
            let want = (Role::Primary, 0, ping.then_some(true));
            assert_eq!(got, want, "in {from}..{to} ms");
        }
        let attempts = |hb: &HbPayload| hb.ping.map(|p| p.attempts);
        assert!(!ping || attempts(&hbs[0]) < attempts(&hbs[hbs.len() - 1]));
    }
    assert!(s.server(s.primary).ft_mode());
}

/// v1 heartbeats on two cables: every round copies one frame of all nine
/// records to the address and both cables — 3 frames, 27 records. A
/// delta full-state round (the primary's at 200 ms: the clients connected
/// from 100 ms, and no ack of its boot is back yet) sends the nine once
/// on the address and shards them across the cables; idle and acked, its
/// rounds go on with three empty frames each.
#[test]
fn v1_rounds_copy_every_record_to_every_cable() {
    for (cfg, records) in [(StTcpConfig::default(), 27), (delta_cfg(), 9 + 9)] {
        let mut s = ScenarioBuilder::new(echo_app(), ClientWorkload::Idle)
            .extra_clients(vec![ClientWorkload::Idle; 8])
            .sttcp(cfg.clone())
            .serial_links(2)
            .build();
        // The primary's (rounds, frames, records) in `from..to` ms.
        let mut window = |from, to| {
            s.world.run_until(t(from));
            let b = s.server(s.primary).metrics().hb_bandwidth();
            s.world.run_until(t(to));
            let a = s.server(s.primary).metrics().hb_bandwidth();
            (
                a.rounds - b.rounds,
                a.frames - b.frames,
                a.conn_entries - b.conn_entries,
            )
        };
        assert_eq!(window(199, 201), (1, 3, records));
        let idle = if cfg.hb_delta { 0 } else { 21 * 27 };
        assert_eq!(window(4_999, 9_001), (21, 21 * 3, idle));
        for server in [s.primary, s.backup] {
            assert_eq!(s.server(server).conn_keys().len(), 9);
        }
    }
}

// ---------------------------------------------------------------------
// O(active) periodic paths: the host-independent scale gate
// ---------------------------------------------------------------------

/// 2 000 resident connections, 4 of them busy, on the pair (four cables)
/// and on `pool(3)` (its one cable per member pair). Every periodic path
/// (check tick, recovery, heartbeat record selection, hole check, app
/// tick) counts the connections it visits, and every member counts the
/// heartbeat bytes it sends; in steady state both must follow the busy
/// four, never the resident two thousand. Counted in sim time, so a
/// noisy host cannot flake it. (Under v1 full-state rounds a `pool(3)`
/// member sent 84 B per connection per round and visited 2 527–3 025
/// connections per check tick.) The pair runs again with the watchdog
/// on, which selects no extra visits: a per-connection sign-of-life
/// clock once cost every application tick and heartbeat round a walk of
/// the whole table, 12 517 visits per check tick.
#[test]
fn periodic_timer_visits_track_active_conns_not_resident_ones() {
    let watchdog = StTcpConfig {
        watchdog_timeout: Some(SimDuration::from_millis(500)),
        ..delta_cfg()
    };
    for (topology, cfg) in [
        (Topology::Pair, delta_cfg()),
        (Topology::Pool(3), delta_cfg()),
        (Topology::Pair, watchdog),
    ] {
        periodic_work_tracks_active_conns(topology, cfg);
    }
}

fn periodic_work_tracks_active_conns(topology: Topology, cfg: StTcpConfig) {
    const POPULATION: usize = 2_000;
    const ACTIVE: u64 = 4;
    // One member of the quiet population sends a single request as it
    // connects; the backup's tap loses exactly that segment, so the
    // backup learns of the bytes only from the primary's heartbeat
    // record — the lag set's one feed — and must fetch them.
    const VICTIM: usize = 1_000;
    let mut workloads = vec![ClientWorkload::Idle; POPULATION];
    for w in workloads.iter_mut().take(ACTIVE as usize - 1) {
        *w = ClientWorkload::Download {
            total: 24 * 1024 * 1024,
        };
    }
    workloads[VICTIM] = ClientWorkload::Download { total: 2_048 };
    let builder = ScenarioBuilder::new(
        stream_app(4096),
        ClientWorkload::Download {
            total: 24 * 1024 * 1024,
        },
    )
    .extra_clients(workloads)
    .seed(240)
    .sttcp(cfg);
    let mut s = match topology {
        Topology::Pair => builder.serial_links(4),
        Topology::Pool(n) => builder.pool(n),
    }
    .build();
    let victim_ip =
        std::net::Ipv4Addr::new(10, 0, 1 + (VICTIM / 240) as u8, 10 + (VICTIM % 240) as u8);
    let mut dropped = false;
    s.world.set_link_filter(
        s.link_backup,
        simnet::link::LinkDir::BtoA,
        Some(Box::new(move |frame| {
            let lose = !dropped
                && simnet::iplayer::IpInterface::decap(frame).is_some_and(|pkt| {
                    pkt.src == victim_ip
                        && simtcp::segment::peek_segment(&pkt.payload).is_some_and(|h| h.len > 0)
                });
            dropped |= lose;
            lose
        })),
    );

    // Ramp (clients connect 1 ms apart from t = 100 ms), then settle.
    s.world.run_until(t(3_000));
    // Per member: timer visits, heartbeat rounds, heartbeat bytes sent.
    let counters = |s: &Scenario| -> Vec<[u64; 3]> {
        let of = |m: &ServerMetrics| {
            let hb = m.hb_bandwidth();
            [m.timer_conn_visits(), hb.rounds, hb.total_bytes()]
        };
        s.servers
            .iter()
            .map(|&n| of(s.server(n).metrics()))
            .collect()
    };
    let before = counters(&s);
    s.world.run_until(t(5_000));
    let after = counters(&s);
    let check_ticks = 2_000 / 50;
    // Measured: 31 on every member of both topologies. It read 38 while
    // each finished handshake left a retransmit timeout armed, whose
    // no-op fire touched its socket onto every dirty list.
    for (i, (b, a)) in before.iter().zip(&after).enumerate() {
        let node = topology.member_label(i);
        let per_tick = (a[0] - b[0]) / check_ticks;
        assert!(
            per_tick <= 8 * ACTIVE,
            "{node}: {per_tick} connection visits per check tick with {ACTIVE} active of {} resident",
            POPULATION + 1
        );
        let per_conn = (a[2] - b[2]) as f64 / (a[1] - b[1]) as f64 / (POPULATION + 1) as f64;
        assert!(
            per_conn < 0.5,
            "{node}: {per_conn:.3} heartbeat bytes per connection per round"
        );
    }
    // The busy four really were busy across the whole window.
    assert!(
        !s.client_finished(),
        "downloaders finished inside the window"
    );

    for &node in &s.servers {
        assert_eq!(s.server(node).conn_keys().len(), POPULATION + 1);
        assert_eq!(s.server(node).metrics().conn_key_collisions(), 0);
    }
    // The lost request was recovered through the heartbeat-fed lag set.
    let victim = s.clients[1 + VICTIM];
    assert!(s.finished(victim), "victim: {:?}", s.log_of(victim));
    assert_eq!(s.log_of(victim).integrity_violations, 0);
    let backup = s.server(s.backup);
    let fetched: Vec<u32> = backup
        .events()
        .iter()
        .filter_map(|e| match e {
            StTcpEvent::RecoveryCompleted { conn, .. } => Some(*conn),
            _ => None,
        })
        .collect();
    assert_eq!(fetched.len(), 1, "recoveries: {fetched:?}");
    assert!(backup.metrics().replay_bytes() > 0);
    assert_eq!(
        s.server(s.primary).app_digest(fetched[0]),
        backup.app_digest(fetched[0]),
        "replica divergence on the recovered connection"
    );
}

// ---------------------------------------------------------------------
// The datapath copy budget and the per-connection footprint: the
// host-independent gates on payload copies and on memory
// ---------------------------------------------------------------------

mod alloc_count {
    //! Allocator calls made, and bytes and blocks still live, by the
    //! calling thread.
    //! Thread-local, so tests running in parallel in this binary do not
    //! see each other; a world runs on the thread that drives it.
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        static CALLS: Cell<u64> = const { Cell::new(0) };
        // Signed: a thread may free what another allocated.
        static LIVE: Cell<i64> = const { Cell::new(0) };
        static LIVE_BLOCKS: Cell<i64> = const { Cell::new(0) };
    }

    pub struct Counting;

    /// Counts a block growing from `old` to `new` bytes, and the call
    /// that grew it (`alloc` or `realloc`; frees are not counted).
    fn resized(old: usize, new: usize) {
        // `try_with`: the allocator also runs while a thread is torn down.
        let _ = CALLS.try_with(|c| c.set(c.get() + u64::from(new > 0)));
        let _ = LIVE.try_with(|l| l.set(l.get() + new as i64 - old as i64));
        // +1 for `alloc`, -1 for `dealloc`, 0 for `realloc`.
        let _ = LIVE_BLOCKS.try_with(|l| l.set(l.get() + (old == 0) as i64 - (new == 0) as i64));
    }

    // SAFETY: every method forwards its arguments unchanged to `System`,
    // which upholds the `GlobalAlloc` contract; the counters are
    // const-initialised thread-local `Cell`s with no destructor, so
    // touching them never allocates or re-enters the allocator.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            resized(0, layout.size());
            // SAFETY: the caller's obligations are passed through.
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            resized(layout.size(), 0);
            // SAFETY: `ptr` came from `System` with this `layout`.
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            resized(layout.size(), new_size);
            // SAFETY: the caller's obligations are passed through.
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    /// `alloc` and `realloc` calls this thread has made so far.
    pub fn calls() -> u64 {
        CALLS.with(|c| c.get())
    }

    /// Bytes this thread has allocated and not freed.
    pub fn live() -> i64 {
        LIVE.with(|l| l.get())
    }

    /// Blocks this thread has allocated and not freed.
    pub fn live_blocks() -> i64 {
        LIVE_BLOCKS.with(|l| l.get())
    }
}

#[global_allocator]
static ALLOC: alloc_count::Counting = alloc_count::Counting;

/// The paced 4 MiB download (64 KiB application writes) both allocation
/// gates below run.
const BUDGET_DOWNLOAD: u64 = 4 * 1024 * 1024;
fn budget_download() -> sttcp_apps::scenario::Scenario {
    ScenarioBuilder::new(
        Rc::new(|| Box::new(StreamApp::new(64 * 1024, false)) as _),
        ClientWorkload::Download {
            total: BUDGET_DOWNLOAD,
        },
    )
    .seed(77)
    .build()
}

#[test]
fn a_download_moves_each_payload_byte_within_the_copy_budget() {
    // The budget (DESIGN, "Datapath buffers and copies"): per payload
    // byte the primary copies once (the wire build), the suppressed
    // backup never (its application writes are views of the static
    // pattern, like the primary's, and its segments are dropped
    // unencoded), every receiver never, and one segment in ~45 is
    // gathered across two app writes on each server. A write into a
    // recycled buffer allocates nothing, so copies are counted where
    // they land: `bytes::written()` sums the length of every buffer built
    // on this thread — 1 for the wire build, ~0.05 for the gathers, and
    // headers, ACKs and heartbeats on top: 1.057 here. With the pattern
    // filled per write again (a 64 KiB buffer on each server) it reads
    // 3.057; one re-introduced copy on any hop costs at least 1.
    const TOTAL: u64 = BUDGET_DOWNLOAD;
    let mut s = budget_download();
    let before = bytes::written();
    s.world.run_until(t(10_000));
    let per_byte = (bytes::written() - before) as f64 / TOTAL as f64;
    assert!(s.client_finished(), "{:?}", s.client_log());
    assert_eq!(s.client_log().integrity_violations, 0);
    assert!(
        per_byte < 1.25,
        "{per_byte:.3} bytes written per payload byte (budget: 1 copy + gathers + framing)"
    );
    // The backup's share of that budget is nothing: it generated every
    // segment and encoded none.
    let backup = s.server(s.backup);
    let sock = backup.endpoint().sockets()[0];
    let suppressed = backup.endpoint().shim_stats(sock).expect("live").suppressed;
    assert!(
        suppressed >= TOTAL / 1460,
        "{suppressed} segments suppressed"
    );
}

#[test]
fn a_steady_state_data_segment_and_its_ack_cost_a_bounded_number_of_allocations() {
    // Allocator calls on all three hosts and in the world, per data
    // segment, over the middle of a download, when every list, ring,
    // queue and spare list has reached its working size. A packet needs
    // none (DESIGN, "Datapath buffers and copies"): the segment and its
    // ACK are built in buffers delivered packets left behind, and an
    // application write is a view of the static pattern. What is left —
    // 0.12 — comes with timers, not packets: lists on the servers'
    // timer path and each heartbeat round's encode and decode. It read
    // 4.22 while every packet allocated its buffer and count box and
    // every write its 64 KiB chunk, and 13.47 while the endpoint's dirty
    // lists (6.11), the switch's out-port list (2.00) and each poll's
    // packet list (1.14) were dropped and regrown per packet; one such
    // allocation back on any host's per-packet path costs at least 1.
    let mut s = budget_download();
    s.world.run_until(t(200));
    let (calls, received) = (alloc_count::calls(), s.client_log().total_received);
    s.world.run_until(t(600));
    let segments = (s.client_log().total_received - received) / 1460;
    assert!(segments > 1_500, "{segments} data segments in the window");
    let per_segment = (alloc_count::calls() - calls) as f64 / segments as f64;
    assert!(
        per_segment < 0.25,
        "{per_segment:.2} allocations per data segment and its ACK"
    );
}

#[test]
fn a_4_mib_download_finishes_within_the_event_budget() {
    // The host-independent form of "steady-state throughput did not
    // regress": the fault-free 4 MiB download `bench_suite` used to time
    // (7–15 ms of wall clock, too short to gate) is fixed work, so the
    // events it takes are exact: 14 100 with delayed ACKs, 18 427 while
    // the client acknowledged every segment, 24 453 before the lazy TCP
    // deadline timer. A change that lowers the count lowers the constant;
    // `bulk_download`'s `simnet.events` is the same reading at 384 MiB.
    let mut s = ScenarioBuilder::new(
        stream_app(4096),
        ClientWorkload::Download {
            total: 4 * 1024 * 1024,
        },
    )
    .seed(1)
    .build();
    let mut until = 500;
    while !s.client_finished() && until <= 60_000 {
        s.world.run_until(t(until));
        until += 500;
    }
    assert!(s.client_finished(), "download did not finish");
    let events = s.world.events_processed();
    assert!(events <= 14_100, "{events} events for a 4 MiB download");
}

#[test]
fn a_ramp_of_idle_connections_finishes_within_the_event_budget() {
    // The published scale mix (`conn_ramp`'s world), through its ramp and
    // past the last handshake's initial 1 s RTO. Fixed work, so the count
    // is exact: 24 676 events, 12.34 per connection; 25 137 while every
    // data segment was acknowledged at once, and 29 121 while a finished
    // handshake left each server's retransmit timer armed, and each fired
    // once with nothing outstanding: two no-op events per connection. A
    // change that lowers the count lowers the constant.
    use sttcp_bench::experiments::{scale_ramp_end, scale_scenario};
    const CONNS: u64 = 2_000;
    let mut s = scale_scenario(CONNS, 1);
    s.world
        .run_until(scale_ramp_end(CONNS) + SimDuration::from_secs(1));
    assert_eq!(s.server(s.backup).conn_keys().len() as u64, CONNS);
    let events = s.world.events_processed();
    assert!(
        events <= 24_676,
        "{events} events, {:.2} per connection",
        events as f64 / CONNS as f64
    );
}

#[test]
fn an_echo_round_trip_costs_five_frames_and_six_events() {
    // `fanin_echo`'s exchange, one 64-byte slab every 5 ms, read one
    // round trip at a time between the servers' ticks: the request
    // carrying the ACK of the last reply (client link, then the switch to
    // both servers: 3 frames), the reply carrying the request's ACK (2)
    // and the client's send timer. Exact: 5 frames and 6 events, and 4
    // more events in the 19 round trips: the client's timer, armed for a
    // reply's 40 ms delayed-ACK deadline that the next request paid,
    // wakes once to re-arm. It read 8 and 9 while the client acknowledged
    // each reply alone, and 10 and 11 while the primary also answered
    // each request with a pure ACK before the reply. A change that lowers
    // the count lowers these.
    use simnet::link::LinkDir;
    let chat = ClientWorkload::EchoChat {
        chunk: 64,
        period: SimDuration::from_millis(5),
        count: 1_000,
    };
    let mut s = ScenarioBuilder::new(echo_app(), chat).seed(1).build();
    let counts = |s: &Scenario| {
        let links = [s.link_client, s.link_primary, s.link_backup];
        let dirs = [LinkDir::AtoB, LinkDir::BtoA];
        let frames = links
            .iter()
            .flat_map(|&l| dirs.map(|d| s.world.link(l).stats(d)));
        let frames: u64 = frames.map(|st| st.delivered).sum();
        (
            frames,
            s.world.events_processed(),
            s.client_log().total_received,
        )
    };
    let mut events = 0;
    for k in 1..20 {
        let at = t(1_000 + 5 * k);
        s.world.run_until(at);
        let (f0, e0, r0) = counts(&s);
        s.world.run_until(at + SimDuration::from_millis(1));
        let (f, e, r) = counts(&s);
        assert_eq!((f - f0, r - r0), (5, 64), "round trip {k}");
        assert!(e - e0 >= 6, "round trip {k}: {} events", e - e0);
        events += e - e0;
    }
    assert_eq!(events, 19 * 6 + 4);
}

#[test]
fn payload_is_shared_not_copied_from_wire_build_to_application_read() {
    // Pointer identity at both ends of the wire, through the public
    // endpoint API the nodes use: the sender's packet encodes in place
    // (the IP header goes into headroom of the buffer the segment was
    // written to), and what the receiving application reads is a view
    // of the very frame buffer that arrived.
    use simnet::ip::{Ipv4Packet, IPV4_HEADER_LEN};
    use simtcp::endpoint::{EndpointConfig, ListenConfig, TcpEndpoint};
    use simtcp::socket::SocketEvent;
    let ip = |last| std::net::Ipv4Addr::new(10, 0, 0, last);
    let now = t(1);
    let mut server = TcpEndpoint::new(EndpointConfig::default());
    let mut client = TcpEndpoint::new(EndpointConfig {
        seed: 9,
        ..EndpointConfig::default()
    });
    server.listen(80, ListenConfig::default());
    let csock = client.connect(now, (ip(1), 40_000), (ip(100), 80));

    // Carries one direction's pending packets over "the wire", handing
    // each wire buffer to `arrived` right after its receiver took it in —
    // as a NIC hands frames up one at a time.
    fn deliver(
        from: &mut TcpEndpoint,
        to: &mut TcpEndpoint,
        now: SimTime,
        mut arrived: impl FnMut(&mut TcpEndpoint, &bytes::Bytes),
    ) -> usize {
        let pkts = from.poll_packets(now);
        for pkt in &pkts {
            let wire = pkt.encode();
            assert_eq!(
                wire[IPV4_HEADER_LEN..].as_ptr(),
                pkt.payload.as_ptr(),
                "IP encode must fill its header into the segment's buffer"
            );
            to.on_packet(now, &Ipv4Packet::decode(&wire).expect("own encoding"));
            arrived(to, &wire);
        }
        pkts.len()
    }
    // Handshake.
    deliver(&mut client, &mut server, now, |_, _| {});
    deliver(&mut server, &mut client, now, |_, _| {});
    deliver(&mut client, &mut server, now, |_, _| {});
    let ssock = std::iter::from_fn(|| server.poll_event())
        .find_map(|(sock, ev)| (ev == SocketEvent::Accepted).then_some(sock))
        .expect("accepted");

    // One 64 KiB application write, handed down as `Bytes`.
    let chunk = sttcp_apps::pattern::pattern_chunk(0, 64 * 1024);
    assert_eq!(server.send_bytes(now, ssock, &chunk), chunk.len());
    let mut read = 0usize;
    let mut data_segments = 0;
    while read < chunk.len() {
        let moved = deliver(&mut server, &mut client, now, |client, wire| {
            // Each arrival is read at once, as the client node does, so
            // one segment serves the read: it must *be* that segment.
            let got = client.recv(csock, 64 * 1024);
            if got.is_empty() {
                return;
            }
            data_segments += 1;
            let payload = &wire[IPV4_HEADER_LEN + simtcp::segment::TCP_HEADER_LEN..];
            assert_eq!(got.as_ptr(), payload.as_ptr(), "read at {read} was copied");
            assert_eq!(got.as_ref(), &chunk[read..read + got.len()]);
            read += got.len();
        });
        assert!(moved > 0, "stalled at {read}");
        deliver(&mut client, &mut server, now, |_, _| {}); // ACKs open the window
    }
    assert!(data_segments >= 45, "{data_segments} data segments");
}

#[test]
fn an_accepted_idle_connection_owns_its_entry_and_one_output_slot() {
    // Two hand-wired endpoints (the benchmark probe's pattern), 1 000
    // handshakes, no data, then everything but the server dropped: what
    // is live is what the accepting side keeps. Per connection that is
    // the boxed entry and the output queue's one slot, plus its share
    // of the demux tree's leaves, the socket table and the timer heap. The
    // queue used to be `VecDeque`'s first-push four slots (192 B) and the
    // event queue a third block.
    use simtcp::endpoint::{EndpointConfig, ListenConfig, TcpEndpoint};
    const CONNS: i64 = 1_000;
    let now = t(1);
    let before = (alloc_count::live_blocks(), alloc_count::live());
    let mut server = TcpEndpoint::new(EndpointConfig::default());
    server.listen(80, ListenConfig::default());
    {
        let mut client = TcpEndpoint::new(EndpointConfig {
            seed: 9,
            ..EndpointConfig::default()
        });
        for i in 0..CONNS as u32 {
            let local = std::net::Ipv4Addr::new(10, 1, (i / 250) as u8, (i % 250) as u8);
            client.connect(
                now,
                (local, 40_000),
                (std::net::Ipv4Addr::new(10, 0, 0, 100), 80),
            );
        }
        loop {
            let (up, down) = (client.poll_packets(now), server.poll_packets(now));
            if up.is_empty() && down.is_empty() {
                break;
            }
            up.iter().for_each(|p| server.on_packet(now, p));
            down.iter().for_each(|p| client.on_packet(now, p));
        }
        while server.poll_event().is_some() {}
    }
    assert_eq!(server.sockets().len() as i64, CONNS);
    let blocks = (alloc_count::live_blocks() - before.0) as f64 / CONNS as f64;
    let bytes = (alloc_count::live() - before.1) / CONNS;
    assert!(
        blocks <= 3.0,
        "{blocks} live blocks per accepted connection"
    );
    assert!(bytes <= 768, "{bytes} live bytes per accepted connection");
}

#[test]
fn a_mostly_idle_connection_costs_at_most_6144_bytes_of_heap() {
    // The published scale mix (`scale_scenario`: what `bench_suite
    // --scale` and the benchmark's conn_ramp run), through its ramp.
    // Each connection brings a client host with it, so the slope of live
    // heap over connections is what one more (host, connection) costs
    // across all three machines: 5 936 B (DESIGN, "What a host and a
    // connection cost"; `heap_census` names the call sites), the bound is
    // that rounded up to the next 256. It was 5 969 B while each
    // connection's control state kept a post-takeover hole clock, 6 068 B
    // while a client host's flight ring held 64-byte events, 6 118 B while
    // a no-op retransmit timeout made each client's endpoint allocate its
    // due list, and 7 181 B while every connection carried its own copy
    // of the TCP config, a four-slot output queue and a heap-allocated
    // event queue. A slope, so what the world costs before its first
    // client cancels out.
    use sttcp_bench::experiments::{scale_ramp_end, scale_scenario};
    fn live_after_ramp(conns: u64) -> i64 {
        let before = alloc_count::live();
        let mut s = scale_scenario(conns, 1);
        s.world.run_until(scale_ramp_end(conns));
        assert_eq!(s.server(s.primary).conn_keys().len() as u64, conns);
        assert_eq!(s.server(s.backup).conn_keys().len() as u64, conns);
        alloc_count::live() - before
    }
    let per_conn = (live_after_ramp(3_000) - live_after_ramp(1_000)) / 2_000;
    assert!(
        per_conn <= 6_144,
        "{per_conn} live heap bytes per (client host, connection)"
    );
}
