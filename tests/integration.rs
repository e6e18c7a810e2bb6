//! Cross-crate integration tests: every Table 1 failure scenario, the
//! failure-free path, replica lockstep, determinism, and the baseline
//! contrast.
//!
//! Each test builds the paper's Figure 2 topology (client+gateway,
//! primary, backup, switch, serial cable, multicast tap), injects exactly
//! one failure, and asserts three things: (a) the client's byte stream
//! stays correct (integrity), (b) the paper's *symptom* was observed
//! (the right detector fired), and (c) the paper's *recovery action* was
//! taken (takeover vs non-FT, STONITH).

use std::rc::Rc;

use simnet::node::NodeId;
use simnet::time::{SimDuration, SimTime};

use sttcp::config::{Role, StTcpConfig};
use sttcp::events::{FailureReason, FinReleaseReason, StTcpEvent};
use sttcp::server::AppCrashMode;

use sttcp_apps::apps::{ReqRespApp, StreamApp};
use sttcp_apps::client::{ClientWorkload, ReconnectPolicy};
use sttcp_apps::scenario::{build_baseline, AppMaker, Scenario, ScenarioBuilder};

fn t(ms: u64) -> SimTime {
    SimTime::from_millis(ms)
}

fn stream_app(chunk: usize, close: bool) -> AppMaker {
    Rc::new(move || Box::new(StreamApp::new(chunk, close)) as _)
}

fn echo_app() -> AppMaker {
    Rc::new(|| Box::new(sttcp::app::EchoApp::default()) as _)
}

fn download(total: u64) -> ClientWorkload {
    ClientWorkload::Download { total }
}

fn chat() -> ClientWorkload {
    ClientWorkload::EchoChat {
        chunk: 1024,
        period: SimDuration::from_millis(50),
        count: 200,
    }
}

/// A config with thresholds small enough for fast tests.
fn fast_cfg() -> StTcpConfig {
    StTcpConfig {
        app_max_lag_time: SimDuration::from_secs(1),
        max_delay_fin: SimDuration::from_secs(5),
        ..StTcpConfig::default()
    }
}

fn reason_of(s: &Scenario, node: NodeId) -> Option<FailureReason> {
    s.server(node).events().iter().find_map(|e| match e {
        StTcpEvent::PeerDeclaredFailed { reason, at: _ } => Some(*reason),
        _ => None,
    })
}

fn assert_clean_client(s: &Scenario) {
    let log = s.client_log();
    assert!(s.client_finished(), "client did not finish: {log:?}");
    assert_eq!(log.integrity_violations, 0, "stream corrupted");
    assert_eq!(log.resets, 0, "client saw a reset");
    assert_eq!(log.reconnects, 0, "client had to reconnect");
    assert_eq!(log.connects.len(), 1, "client reconnected");
}

/// Client bytes `node` holds in extended receive buffers, over every
/// connection it accepted.
fn held_bytes(s: &Scenario, node: NodeId) -> usize {
    let tcp = s.server(node).endpoint();
    let conns = tcp.sockets().into_iter().filter_map(|id| tcp.conn(id));
    conns.map(|c| c.hold_used()).sum()
}

/// An active server with no backup left feeds nobody, so it holds no
/// client byte for one (paper §2: it "continues non-fault-tolerant").
fn assert_holds_nothing(s: &Scenario, node: NodeId) {
    assert!(!s.server(node).ft_mode());
    assert_eq!(held_bytes(s, node), 0, "an active with no backup holds");
}

// ---------------------------------------------------------------------
// Failure-free operation
// ---------------------------------------------------------------------

#[test]
fn failure_free_download_completes_with_lockstep_replicas() {
    let mut s = ScenarioBuilder::new(stream_app(4096, false), download(256 * 1024))
        .seed(11)
        .build();
    s.world.run_until(t(10_000));
    assert_clean_client(&s);
    // Replica lockstep: identical app digests on both servers.
    let key = s.first_conn_key();
    let dp = s.server(s.primary).app_digest(key).expect("primary app");
    let db = s.server(s.backup).app_digest(key).expect("backup app");
    assert_eq!(dp, db, "replicas diverged");
    // Nobody declared anybody failed.
    assert_eq!(reason_of(&s, s.primary), None);
    assert_eq!(reason_of(&s, s.backup), None);
    assert!(s.server(s.primary).ft_mode());
    assert!(s.server(s.backup).ft_mode());
}

#[test]
fn failure_free_normal_close_is_not_delayed() {
    // Both replicas close after serving: FINs match, no MaxDelayFIN stall.
    let mut s = ScenarioBuilder::new(stream_app(4096, true), download(64 * 1024))
        .seed(12)
        .sttcp(fast_cfg())
        .build();
    s.world.run_until(t(10_000));
    let log = s.client_log();
    assert!(s.client_finished());
    let fin_at = log.server_fin_at.expect("client saw server FIN");
    let done_at = log.finished_at.unwrap();
    assert!(
        fin_at.saturating_since(done_at) < SimDuration::from_secs(2),
        "FIN was delayed: finished {done_at}, fin {fin_at}"
    );
    // The primary released its FIN promptly: either it learned via the
    // heartbeat that the backup also closed, or the client's own FIN was
    // already in hand — never the MaxDelayFIN path.
    let released = s.server(s.primary).events().iter().any(|e| {
        matches!(
            e,
            StTcpEvent::FinReleased {
                reason: FinReleaseReason::PeerAlsoFin | FinReleaseReason::ClientClosedFirst,
                ..
            }
        )
    });
    assert!(released, "events: {:?}", s.server(s.primary).events());
    let delayed = s.server(s.primary).events().iter().any(|e| {
        matches!(
            e,
            StTcpEvent::FinReleased {
                reason: FinReleaseReason::DelayExpired,
                ..
            }
        )
    });
    assert!(!delayed, "normal close took the MaxDelayFIN path");
}

#[test]
fn runs_are_deterministic() {
    let run = |seed| {
        let mut s = ScenarioBuilder::new(stream_app(4096, false), download(128 * 1024))
            .seed(seed)
            .build();
        s.crash_primary_at(t(700));
        s.world.run_until(t(15_000));
        (
            s.client_log().progress.clone(),
            s.server(s.backup).took_over_at(),
        )
    };
    assert_eq!(run(77), run(77));
}

// ---------------------------------------------------------------------
// Table 1 row 1: HW/OS crash
// ---------------------------------------------------------------------

#[test]
fn row1_primary_hw_crash_backup_takes_over() {
    let mut s = ScenarioBuilder::new(stream_app(4096, false), download(256 * 1024))
        .seed(21)
        .build();
    s.crash_primary_at(t(1_000));
    s.world.run_until(t(30_000));
    assert_clean_client(&s);
    // Symptom: backup saw HB failure on both links.
    assert_eq!(
        reason_of(&s, s.backup),
        Some(FailureReason::HbBothLinksDown)
    );
    // Recovery: backup took over and shut the primary down.
    let took = s.server(s.backup).took_over_at().expect("takeover");
    assert!(took > t(1_000));
    assert_eq!(s.server(s.backup).role(), Role::Primary);
    assert!(!s.world.is_powered(s.primary));
}

#[test]
fn row1_backup_hw_crash_primary_goes_non_ft() {
    let mut s = ScenarioBuilder::new(stream_app(4096, false), download(256 * 1024))
        .seed(22)
        .build();
    s.crash_backup_at(t(1_000));
    s.world.run_until(t(30_000));
    assert_clean_client(&s);
    assert_eq!(
        reason_of(&s, s.primary),
        Some(FailureReason::HbBothLinksDown)
    );
    let went_non_ft = s
        .server(s.primary)
        .events()
        .iter()
        .any(|e| matches!(e, StTcpEvent::WentNonFt { .. }));
    assert!(went_non_ft);
    assert!(!s.server(s.primary).ft_mode());
    assert_eq!(s.server(s.primary).role(), Role::Primary);
    assert!(!s.world.is_powered(s.backup), "backup not shut down");
}

#[test]
fn row1_failover_time_scales_with_hb_period() {
    // Demo 2's shape: longer heartbeat period ⇒ longer client-visible
    // stall around the crash.
    let stall_for = |period_ms: u64| {
        let mut s = ScenarioBuilder::new(stream_app(4096, false), download(512 * 1024))
            .seed(23)
            .sttcp(StTcpConfig::with_hb_period(SimDuration::from_millis(
                period_ms,
            )))
            .build();
        s.crash_primary_at(t(1_000));
        s.world.run_until(t(40_000));
        assert_clean_client(&s);
        s.client_log()
            .longest_stall(t(900), s.client_log().finished_at.unwrap())
    };
    let s200 = stall_for(200);
    let s1000 = stall_for(1_000);
    assert!(
        s1000 > s200,
        "stall at 1s HB ({s1000}) should exceed stall at 200ms HB ({s200})"
    );
    // The liveness clock starts at the last heartbeat received, so the
    // minimum detection latency is (timeout - period) = 2 periods.
    assert!(s200 >= SimDuration::from_millis(400), "s200 = {s200}");
    assert!(s1000 >= SimDuration::from_millis(2_000), "s1000 = {s1000}");
}

// ---------------------------------------------------------------------
// Table 1 row 2: application crash without cleanup (no FIN)
// ---------------------------------------------------------------------

#[test]
fn row2_primary_app_crash_silent_detected_and_taken_over() {
    let mut s = ScenarioBuilder::new(echo_app(), chat())
        .seed(31)
        .sttcp(fast_cfg())
        .build();
    s.crash_app_at(s.primary, t(2_000), AppCrashMode::SilentNoCleanup);
    s.world.run_until(t(40_000));
    assert_clean_client(&s);
    let reason = reason_of(&s, s.backup).expect("backup detected");
    assert!(
        matches!(
            reason,
            FailureReason::AppLagBytes | FailureReason::AppLagTime
        ),
        "reason {reason}"
    );
    assert!(s.server(s.backup).took_over_at().is_some());
    assert!(!s.world.is_powered(s.primary));
}

#[test]
fn row2_backup_app_crash_silent_primary_goes_non_ft() {
    let mut s = ScenarioBuilder::new(echo_app(), chat())
        .seed(32)
        .sttcp(fast_cfg())
        .build();
    s.crash_app_at(s.backup, t(2_000), AppCrashMode::SilentNoCleanup);
    s.world.run_until(t(40_000));
    assert_clean_client(&s);
    let reason = reason_of(&s, s.primary).expect("primary detected");
    assert!(matches!(
        reason,
        FailureReason::AppLagBytes | FailureReason::AppLagTime
    ));
    assert!(!s.world.is_powered(s.backup));
    assert_eq!(s.server(s.primary).role(), Role::Primary);
    assert_holds_nothing(&s, s.primary);
}

// ---------------------------------------------------------------------
// Table 1 row 3: application crash with cleanup (FIN/RST generated)
// ---------------------------------------------------------------------

#[test]
fn row3_primary_app_crash_with_fin_is_held_and_masked() {
    let mut s = ScenarioBuilder::new(echo_app(), chat())
        .seed(41)
        .sttcp(fast_cfg())
        .build();
    s.crash_app_at(s.primary, t(2_000), AppCrashMode::CleanupFin);
    s.world.run_until(t(40_000));
    assert_clean_client(&s);
    // The FIN was held on the primary, never reaching the client before
    // the backup's lag detector condemned the primary.
    let held = s
        .server(s.primary)
        .events()
        .iter()
        .any(|e| matches!(e, StTcpEvent::FinHeld { .. }));
    assert!(held, "primary FIN was not held");
    assert!(s.server(s.backup).took_over_at().is_some());
    assert!(!s.world.is_powered(s.primary));
    // The client never saw a premature FIN: it finished its whole chat.
    assert_eq!(s.client_log().echo_roundtrips, 200);
}

#[test]
fn row3_backup_app_crash_with_fin_primary_goes_non_ft() {
    let mut s = ScenarioBuilder::new(echo_app(), chat())
        .seed(42)
        .sttcp(fast_cfg())
        .build();
    s.crash_app_at(s.backup, t(2_000), AppCrashMode::CleanupFin);
    s.world.run_until(t(40_000));
    assert_clean_client(&s);
    let reason = reason_of(&s, s.primary).expect("primary detected backup failure");
    assert!(
        matches!(
            reason,
            FailureReason::AppLagBytes
                | FailureReason::AppLagTime
                | FailureReason::FinMismatchTimeout
        ),
        "reason {reason}"
    );
    assert!(!s.world.is_powered(s.backup));
    assert_holds_nothing(&s, s.primary);
}

#[test]
fn row3_primary_app_crash_with_rst_is_masked_too() {
    let mut s = ScenarioBuilder::new(echo_app(), chat())
        .seed(43)
        .sttcp(fast_cfg())
        .build();
    s.crash_app_at(s.primary, t(2_000), AppCrashMode::CleanupRst);
    s.world.run_until(t(40_000));
    assert_clean_client(&s);
    assert!(s.server(s.backup).took_over_at().is_some());
}

// ---------------------------------------------------------------------
// Table 1 row 4: NIC failure
// ---------------------------------------------------------------------

#[test]
fn row4_primary_nic_failure_chatty_client() {
    let mut s = ScenarioBuilder::new(echo_app(), chat())
        .seed(51)
        .sttcp(fast_cfg())
        .build();
    let p = s.primary;
    s.fail_nic_at(p, t(2_000));
    s.world.run_until(t(60_000));
    assert_clean_client(&s);
    let reason = reason_of(&s, s.backup).expect("backup detected");
    assert!(
        matches!(
            reason,
            FailureReason::NetByteLag | FailureReason::NetAckLag | FailureReason::NetPingFail
        ),
        "reason {reason}"
    );
    assert!(s.server(s.backup).took_over_at().is_some());
    assert!(!s.world.is_powered(s.primary));
}

#[test]
fn row4_backup_nic_failure_primary_goes_non_ft() {
    let mut s = ScenarioBuilder::new(echo_app(), chat())
        .seed(52)
        .sttcp(fast_cfg())
        .build();
    let b = s.backup;
    s.fail_nic_at(b, t(2_000));
    s.world.run_until(t(60_000));
    assert_clean_client(&s);
    let reason = reason_of(&s, s.primary).expect("primary detected");
    assert!(matches!(
        reason,
        FailureReason::NetByteLag | FailureReason::NetAckLag | FailureReason::NetPingFail
    ));
    assert!(!s.world.is_powered(s.backup));
    // The client must be completely unaffected (primary kept serving).
    assert_eq!(s.client_log().connects.len(), 1);
    assert_holds_nothing(&s, s.primary);
}

#[test]
fn row4_primary_nic_failure_quiet_client_uses_ping_path() {
    let mut s = ScenarioBuilder::new(echo_app(), ClientWorkload::Idle)
        .seed(53)
        .sttcp(fast_cfg())
        .build();
    let p = s.primary;
    s.fail_nic_at(p, t(2_000));
    s.world.run_until(t(30_000));
    // With no client traffic at all, only the gateway-ping mechanism can
    // assign blame.
    assert_eq!(reason_of(&s, s.backup), Some(FailureReason::NetPingFail));
    assert!(s.server(s.backup).took_over_at().is_some());
    assert!(!s.world.is_powered(s.primary));
}

/// Row 4's gateway pings end with the row. A crash silences the peer's
/// IP heartbeat ~3 ms before its serial one, so the survivor engages row
/// 4 (and pings) just before row 1 fires; a dead NIC under a quiet
/// client is row 4 up to its own verdict. Either way, from one ping
/// interval after the verdict on, the survivor sends no echo request.
#[test]
fn the_survivor_stops_pinging_with_its_verdict() {
    use simnet::ip::{IcmpMessage, IpProto};
    use simnet::{frame::EthernetFrame, iplayer::IpInterface, link::LinkDir};
    use sttcp::config::PING_INTERVAL;
    let crash: fn(&mut Scenario) = |s| s.crash_primary_at(t(2_000));
    let nic: fn(&mut Scenario) = |s| s.fail_nic_at(s.primary, t(2_000));
    let cases = [
        (crash, FailureReason::HbBothLinksDown),
        (nic, FailureReason::NetPingFail),
    ];
    for (fault, want) in cases {
        let mut s = ScenarioBuilder::new(echo_app(), ClientWorkload::Idle)
            .seed(53)
            .sttcp(fast_cfg())
            .build();
        let requests = Rc::new(std::cell::Cell::new(0));
        let count = requests.clone();
        let tap = move |f: &EthernetFrame| {
            let icmp = IpInterface::decap(f).filter(|p| p.proto == IpProto::Icmp);
            let msg = icmp.and_then(|p| IcmpMessage::decode(&p.payload).ok());
            if let Some(IcmpMessage::EchoRequest { .. }) = msg {
                count.set(count.get() + 1);
            }
            false
        };
        let link = s.link_backup;
        s.world
            .set_link_filter(link, LinkDir::AtoB, Some(Box::new(tap)));
        fault(&mut s);
        let mut now = t(2_000);
        let (reason, at) = loop {
            s.world.run_until(now);
            let verdict = s.server(s.backup).events().iter().find_map(|e| match e {
                StTcpEvent::PeerDeclaredFailed { reason, at } => Some((*reason, *at)),
                _ => None,
            });
            if let Some(v) = verdict {
                break v;
            }
            now += SimDuration::from_millis(50);
        };
        assert_eq!(reason, want);
        s.world.run_until(at + PING_INTERVAL);
        let sent = requests.get();
        assert!(sent > 0, "{want:?}: row 4 never pinged");
        s.world.run_until(t(30_000));
        let late = requests.get() - sent;
        assert_eq!(
            late, 0,
            "{want:?}: {late} echo requests a ping interval after {at}"
        );
    }
}

// ---------------------------------------------------------------------
// Table 1 row 5: temporary network failure (backup misses bytes)
// ---------------------------------------------------------------------

#[test]
fn row5_backup_recovers_missed_bytes_from_primary() {
    let mut s = ScenarioBuilder::new(echo_app(), chat())
        .seed(61)
        .sttcp(fast_cfg())
        .build();
    // Drop 20 client data frames on the tap toward the backup.
    s.drop_tap_at(s.link_backup, t(2_000), 20);
    s.world.run_until(t(40_000));
    assert_clean_client(&s);
    // The backup noticed the gap and recovered it from the primary.
    let backup = s.server(s.backup);
    let requested = backup
        .events()
        .iter()
        .any(|e| matches!(e, StTcpEvent::RecoveryRequested { .. }));
    let completed = backup
        .events()
        .iter()
        .any(|e| matches!(e, StTcpEvent::RecoveryCompleted { .. }));
    assert!(requested, "no recovery request: {:?}", backup.events());
    assert!(completed, "recovery never completed");
    // Nobody was declared failed; the pair is still fault tolerant.
    assert_eq!(reason_of(&s, s.primary), None);
    assert_eq!(reason_of(&s, s.backup), None);
    assert!(s.server(s.primary).ft_mode());
    // And the replicas converged again.
    let key = s.first_conn_key();
    assert_eq!(
        s.server(s.primary).app_digest(key),
        s.server(s.backup).app_digest(key)
    );
}

// ---------------------------------------------------------------------
// Baseline contrast (Demo 1's second half)
// ---------------------------------------------------------------------

#[test]
fn baseline_plain_tcp_requires_reconnect_and_restart() {
    let policy = ReconnectPolicy {
        stall_timeout: SimDuration::from_secs(3),
        targets: vec![("10.0.0.4".parse().unwrap(), 80)],
        reconnect_delay: SimDuration::from_millis(100),
    };
    let mut b = build_baseline(
        71,
        stream_app(4096, false),
        download(512 * 1024),
        simtcp::conn::TcpConfig::default(),
        Some(policy),
    );
    b.crash_primary_at(t(400));
    b.world.run_until(t(60_000));
    let log = b.client_log();
    assert!(b.client_finished(), "client never finished: {log:?}");
    // The disruption is visible: the client reconnected and restarted.
    assert!(log.reconnects >= 1, "no reconnect happened");
    assert!(log.connects.len() >= 2);
    assert_eq!(log.integrity_violations, 0);
}

#[test]
fn sttcp_stall_is_much_smaller_than_baseline_disruption() {
    // ST-TCP run.
    let mut s = ScenarioBuilder::new(stream_app(4096, false), download(512 * 1024))
        .seed(72)
        .build();
    s.crash_primary_at(t(400));
    s.world.run_until(t(60_000));
    assert_clean_client(&s);
    let st_stall = s
        .client_log()
        .longest_stall(t(300), s.client_log().finished_at.unwrap());

    // Baseline run with a 3-second application-level stall timeout.
    let policy = ReconnectPolicy {
        stall_timeout: SimDuration::from_secs(3),
        targets: vec![("10.0.0.4".parse().unwrap(), 80)],
        reconnect_delay: SimDuration::from_millis(100),
    };
    let mut b = build_baseline(
        72,
        stream_app(4096, false),
        download(512 * 1024),
        simtcp::conn::TcpConfig::default(),
        Some(policy),
    );
    b.crash_primary_at(t(400));
    b.world.run_until(t(60_000));
    assert!(b.client_finished());
    let base_stall = b
        .client_log()
        .longest_stall(t(300), b.client_log().finished_at.unwrap());

    assert!(
        st_stall * 2 < base_stall,
        "ST-TCP stall {st_stall} not clearly better than baseline {base_stall}"
    );
}

// ---------------------------------------------------------------------
// Cross-cutting invariants
// ---------------------------------------------------------------------

#[test]
fn no_dual_active_after_any_takeover() {
    for (seed, crash_ms) in [(81u64, 500u64), (82, 1_500), (83, 2_500)] {
        let mut s = ScenarioBuilder::new(stream_app(4096, false), download(256 * 1024))
            .seed(seed)
            .build();
        s.crash_primary_at(t(crash_ms));
        s.world.run_until(t(40_000));
        if s.server(s.backup).took_over_at().is_some() {
            assert!(
                !s.world.is_powered(s.primary),
                "takeover with primary still powered (seed {seed})"
            );
        }
    }
}

/// The hold rule: an active server holds client bytes exactly while it
/// has a backup to feed, and logs `HoldArmed` only for a connection that
/// holds. Three ways to be an active with no backup left, each serving a
/// 1 KiB echo every 20 ms: a pair primary that condemned its backup
/// before the client connected, a pair backup that took over before the
/// client connected, and a three-member pool's last member standing,
/// whose connection predates both verdicts.
#[test]
fn an_active_with_no_backup_holds_no_client_bytes() {
    // (seed, pool size (0: the pair), crashes as (rank, ms), connect ms,
    // the `HoldArmed` events the server left active logs)
    type Crashes = &'static [(usize, u64)];
    let cases: [(u64, usize, Crashes, u64, usize); 3] = [
        (4, 0, &[(1, 500)], 3_000, 0),
        (9, 0, &[(0, 500)], 3_000, 0),
        (8, 3, &[(1, 500), (2, 3_000)], 100, 1),
    ];
    // Every case's (seed, held bytes, `HoldArmed` events), compared at once.
    let (mut got, mut want) = (Vec::new(), Vec::new());
    for (seed, pool, crashes, connect_ms, armed) in cases {
        let chat = ClientWorkload::EchoChat {
            chunk: 1024,
            period: SimDuration::from_millis(20),
            count: 1_000,
        };
        let mut b = ScenarioBuilder::new(echo_app(), chat)
            .seed(seed)
            .connect_at(SimDuration::from_millis(connect_ms));
        if pool > 0 {
            b = b.pool(pool);
        }
        let mut s = b.build();
        for &(rank, ms) in crashes {
            s.crash_at(s.servers[rank], t(ms));
        }
        s.world.run_until(t(30_000));
        assert_clean_client(&s);
        let mut active = s.servers.iter().filter(|&&n| s.server(n).is_active());
        let (Some(&node), None) = (active.next(), active.next()) else {
            panic!("seed {seed}: not exactly one active server");
        };
        let logged = s.server(node).events().iter();
        let logged = logged.filter(|e| matches!(e, StTcpEvent::HoldArmed { .. }));
        got.push((seed, held_bytes(&s, node), logged.count()));
        want.push((seed, 0, armed));
    }
    assert_eq!(got, want, "(seed, held bytes, HoldArmed events)");
}

/// An active left without a backup has nobody to arbitrate a FIN with,
/// so a connection it accepts afterwards closes at once: the pair and a
/// two-member pool lose their backup at 300 ms, the client connects at
/// 2 s, and the server closes after a 64 KiB download. A live arbiter
/// held that FIN until the client's own (in the pair for good, in the
/// pool for `max_delay_fin`).
#[test]
fn a_connection_accepted_without_a_backup_closes_unheld() {
    for pool in [0, 2] {
        let mut b = ScenarioBuilder::new(stream_app(4096, true), download(64 * 1024))
            .seed(31)
            .connect_at(SimDuration::from_secs(2));
        if pool > 0 {
            b = b.pool(pool);
        }
        let mut s = b.build();
        s.crash_backup_at(t(300));
        s.world.run_until(t(10_000));
        assert_clean_client(&s);
        let fin = s.server(s.primary).events().iter().filter_map(|e| match e {
            StTcpEvent::FinHeld { .. } => Some(None),
            StTcpEvent::FinReleased { reason, .. } => Some(Some(*reason)),
            _ => None,
        });
        let fin: Vec<_> = fin.collect();
        assert_eq!(fin, [Some(FinReleaseReason::PeerFailed)], "pool {pool}");
    }
}

/// A joiner that dies mid-join is condemned like any backup: the primary
/// crashes at 1 s, reboots into a join at 2.5 s and crashes again 5 ms
/// later. The active serving the join judges it by row 1, goes
/// non-fault-tolerant and releases its hold; a join that never completes
/// used to leave every later client byte held (902 144 B at 25 s).
#[test]
fn a_joiner_that_dies_mid_join_is_condemned_and_releases_the_hold() {
    let chat = ClientWorkload::EchoChat {
        chunk: 1024,
        period: SimDuration::from_millis(20),
        count: 1_000,
    };
    let mut s = ScenarioBuilder::new(echo_app(), chat).seed(5).build();
    s.crash_primary_at(t(1_000));
    s.reboot_at(s.primary, t(2_500));
    s.crash_primary_at(t(2_505));
    s.world.run_until(t(25_000));
    assert_clean_client(&s);
    let after_rejoin = s.server(s.backup).events().iter().filter_map(|e| match *e {
        StTcpEvent::PeerDeclaredFailed { reason, at } if at > t(2_505) => Some(Ok(reason)),
        StTcpEvent::WentNonFt { reason, at } if at > t(2_505) => Some(Err(reason)),
        _ => None,
    });
    let reason = FailureReason::HbBothLinksDown;
    assert_eq!(after_rejoin.collect::<Vec<_>>(), [Ok(reason), Err(reason)]);
    assert_holds_nothing(&s, s.backup);
}

#[test]
fn reqresp_workload_survives_primary_crash() {
    // A second application type through the same machinery.
    let app: AppMaker = Rc::new(|| Box::new(ReqRespApp::new()) as _);
    let mut s = ScenarioBuilder::new(app, ClientWorkload::Idle)
        .seed(91)
        .build();
    s.crash_primary_at(t(1_000));
    s.world.run_until(t(10_000));
    assert!(s.server(s.backup).took_over_at().is_some());
    assert!(!s.world.is_powered(s.primary));
}

#[test]
fn profiler_attributes_tick_scheduler_buckets() {
    // The benchmark's traced run reports per-component wall-clock
    // attribution (`prof.*`); the tick-scheduler rework split the old
    // monolithic `tcp` bucket into deadline-queue, egress-poll, and
    // HB-encode scopes. A download with heartbeats on must exercise
    // every one of them — a zero-scope bucket means an instrumentation
    // site was dropped and `prof.*` would silently report the work
    // under `other`.
    use simnet::profile::Component;
    let mut s = ScenarioBuilder::new(stream_app(4096, false), download(256 * 1024))
        .seed(5)
        .sttcp(StTcpConfig {
            hb_delta: true,
            hb_batch: 4,
            ..Default::default()
        })
        .build();
    s.world.set_profiling(true);
    s.world.run_until(t(20_000));
    assert!(s.client_finished(), "profiled download did not finish");
    let p = s.world.profiler();
    for c in [
        Component::Kernel,
        Component::Tcp,
        Component::Sttcp,
        Component::App,
        Component::TcpWheel,
        Component::TcpPoll,
        Component::HbEncode,
    ] {
        assert!(
            p.stats(c).scopes > 0,
            "component {:?} recorded no scopes in a profiled download",
            c
        );
    }

    // No benchmark workload is a pool, so this is the one place the
    // `pool` bucket is seen non-zero: a 3-replica download runs pool
    // heartbeat intake and fan-out on every member.
    let mut s = ScenarioBuilder::new(stream_app(4096, false), download(256 * 1024))
        .seed(1)
        .pool(3)
        .build();
    s.world.set_profiling(true);
    s.world.run_until(t(5_000));
    assert!(s.client_finished(), "profiled pool download did not finish");
    let pool = s.world.profiler().stats(Component::Pool);
    assert!(pool.scopes > 0, "a 3-replica pool recorded no pool scopes");

    // Server-only: with the client host's dispatches charged elsewhere,
    // what is left in `app` beyond the client's own verify scopes (one
    // per read it logged) are the replica applications' callbacks on the
    // two servers — accept, request, and a tick per 4 KiB on each. Were
    // they charged to the scope that happens to be open instead, `sttcp`
    // and `tcp` would hide the workload generator's cost.
    let mut s = ScenarioBuilder::new(stream_app(4096, false), download(256 * 1024))
        .seed(5)
        .build();
    s.world.set_node_component(s.client, Component::Other);
    s.world.set_profiling(true);
    s.world.run_until(t(20_000));
    assert!(s.client_finished(), "profiled download did not finish");
    let client_reads = s.client_log().progress.len() as u64;
    let server_app_scopes = s.world.profiler().stats(Component::App).scopes - client_reads;
    assert!(
        server_app_scopes >= 2 * 64,
        "server application callbacks recorded only {server_app_scopes} app scopes"
    );
}
