//! The liveness timer at server level: heartbeat silence is a verdict on
//! its deadline plus the measured jitter guard (`sttcp::linkmon`), not on
//! the next 50 ms check tick after it.
//!
//! `linkmon.rs` pins the arithmetic against a microsecond poll; these
//! tests pin the wiring — that the server arms, fires and re-arms the one
//! timer, that the guard covers what a LAN does to arrival times, and
//! where exactly the edge of a false takeover now lies.

use std::rc::Rc;

use simnet::link::{LinkDir, LinkParams};
use simnet::node::NodeId;
use simnet::time::{SimDuration, SimTime};

use sttcp::config::StTcpConfig;
use sttcp::events::{FailureReason, HbLink, StTcpEvent};
use sttcp_apps::chaos::{chaos_config, run_chaos_case, ChaosOptions, FaultSchedule};
use sttcp_apps::client::ClientWorkload;
use sttcp_apps::scenario::{Scenario, ScenarioBuilder, Topology::Pair};

fn t(ms: u64) -> SimTime {
    SimTime::from_millis(ms)
}

fn verdict(events: &[StTcpEvent]) -> Option<(FailureReason, SimTime)> {
    events.iter().find_map(|e| match e {
        StTcpEvent::PeerDeclaredFailed { reason, at } => Some((*reason, *at)),
        _ => None,
    })
}

fn verdict_of(s: &Scenario, node: NodeId) -> Option<(FailureReason, SimTime)> {
    verdict(s.server(node).events())
}

/// An idle pair (one established connection, heartbeats every 200 ms from
/// t = 0 on both links) on `link`s with up to 200 µs of per-frame jitter.
fn idle_pair(seed: u64, link: LinkParams) -> Scenario {
    let app = Rc::new(|| Box::new(sttcp::app::EchoApp::default()) as _);
    let mut s = ScenarioBuilder::new(app, ClientWorkload::Idle)
        .seed(seed)
        .link(link)
        .build();
    for l in [s.link_primary, s.link_backup] {
        for dir in [LinkDir::AtoB, LinkDir::BtoA] {
            s.world
                .set_link_jitter(l, dir, SimDuration::from_micros(200));
        }
    }
    s
}

/// Every heartbeat between the two servers is lost from `from` to `to`:
/// the primary's Ethernet link is cut (the IP heartbeats of both
/// directions cross it) and the serial cable fails.
fn lose_heartbeats(s: &mut Scenario, from: SimTime, to: SimTime) {
    let (link, serial) = (s.link_primary, s.serial);
    s.world.schedule(from, move |w| {
        w.cut_link(link);
        w.fail_serial(serial);
    });
    s.world.schedule(to, move |w| {
        w.restore_link(link);
        w.restore_serial(serial);
    });
}

/// `hb_timeout` is exactly three periods, so the heartbeat that ends a
/// two-round loss is due *on* the deadline and the link's jitter decides
/// which side of it it lands. The guard is measured from that same
/// jitter: no verdict, either server, any seed, any position of the loss.
#[test]
fn two_lost_rounds_under_lan_jitter_are_not_a_verdict() {
    for seed in 0..64 {
        let mut s = idle_pair(seed, LinkParams::lan());
        // Rounds leave at multiples of 200 ms: two of them fall in here.
        let from = 900 + 200 * (seed % 5);
        lose_heartbeats(&mut s, t(from), t(from + 400));
        s.world.run_until(t(4_000));
        for node in [s.primary, s.backup] {
            assert_eq!(verdict_of(&s, node), None, "seed {seed}, node {node:?}");
            assert!(s.server(node).ft_mode());
        }
    }
}

/// The same with the serial cable dead from the start, so that nothing
/// but the measured guard stands between the IP link's jitter and a
/// takeover: the heartbeat that ends the loss is late by however much
/// more the LAN delayed it than the last one before the loss — as often
/// as not. Four mean deviations are an allowance, not a bound: of the 128
/// servers one (seed 31's backup, 387 µs late against a guard that had
/// just decayed) fences; with the guard dropped to zero
/// (`--cfg mutate_no_hb_guard`) about half of them do.
#[test]
fn two_lost_rounds_on_the_only_link_left_are_covered_by_the_guard() {
    let mut fenced = Vec::new();
    for seed in 0..64 {
        let mut s = idle_pair(seed, LinkParams::lan());
        let (ip, serial) = (s.link_primary, s.serial);
        s.world.schedule(t(138), move |w| w.fail_serial(serial));
        let from = 1_900 + 200 * (seed % 5);
        s.world.schedule(t(from), move |w| w.cut_link(ip));
        s.world.schedule(t(from + 400), move |w| w.restore_link(ip));
        s.world.run_until(t(5_000));
        fenced.extend([s.primary, s.backup].map(|n| verdict_of(&s, n).map(|v| (seed, n, v.1))));
    }
    let fenced: Vec<_> = fenced.into_iter().flatten().collect();
    assert!(fenced.len() <= 1, "fenced over jitter: {fenced:?}");
}

/// Three lost rounds are a verdict, and a timed one: the last heartbeats
/// arrived by 803 ms (the serial copy takes 2.95 ms), so both links are
/// silent by 1 403 ms plus the guard — not at the 1 450 ms check tick,
/// and within `hb_timeout + check_period` of the last arrival whatever
/// the guard measured.
#[test]
fn three_lost_rounds_are_a_verdict_on_the_deadline() {
    let cfg = StTcpConfig::default();
    for seed in 0..64 {
        let mut s = idle_pair(seed, LinkParams::lan());
        lose_heartbeats(&mut s, t(900), t(1_500));
        s.world.run_until(t(2_000));
        for node in [s.primary, s.backup] {
            let (reason, at) = verdict_of(&s, node).expect("three rounds lost");
            assert_eq!(reason, FailureReason::HbBothLinksDown);
            assert!(at > t(800) + cfg.hb_timeout(), "seed {seed}: {at}");
            assert!(at <= t(803) + cfg.hb_timeout() + cfg.check_period);
            assert!(
                at < t(1_410),
                "seed {seed}: verdict at {at} waited for a tick"
            );
        }
    }
}

/// The price of exactness, pinned on both sides (chaos seed 400's race).
/// The serial cable has been dead for a second when three IP rounds are
/// lost; it is repaired 3 ms before the IP deadline, and the first
/// heartbeat over it — sent on the round that leaves at 1 400 ms — lands
/// at 1 402.95 ms.
///
/// On the LAN the IP deadline is 1 400.1 ms: the heartbeat is 2.85 ms
/// late, both links have been silent for `hb_timeout`, and a healthy peer
/// is fenced — by the spec; the 1 450 ms tick used to find the serial
/// link alive again and spare it. On links with 3 ms of latency per hop
/// the IP deadline is 1 406 ms, the same heartbeat is 3 ms early, and
/// nobody is fenced.
#[test]
fn a_serial_repair_3_ms_either_side_of_the_deadline_decides_the_fence() {
    let run = |link: LinkParams| {
        let mut s = idle_pair(400, link);
        let (ip, serial) = (s.link_primary, s.serial);
        s.world.schedule(t(138), move |w| w.fail_serial(serial));
        s.world.schedule(t(900), move |w| w.cut_link(ip));
        s.world
            .schedule(t(1_397), move |w| w.restore_serial(serial));
        s.world.schedule(t(1_500), move |w| w.restore_link(ip));
        s.world.run_until(t(3_000));
        (verdict_of(&s, s.primary), verdict_of(&s, s.backup))
    };

    let (p, b) = run(LinkParams::lan());
    for v in [p, b] {
        let (reason, at) = v.expect("late by 2.85 ms is late");
        assert_eq!(reason, FailureReason::HbBothLinksDown);
        assert!(at > t(1_400) && at < t(1_402), "verdict at {at}");
    }

    let long_haul = LinkParams {
        latency: SimDuration::from_millis(3),
        ..LinkParams::lan()
    };
    assert_eq!(run(long_haul), (None, None));
}

/// A power cycle voids the armed record with the rest of `server::Ram`:
/// the primary dies with its timer armed (its serial monitor is 2 ms
/// from silence), warm-reboots at a phase whose check ticks fall on
/// ..31 / ..81 ms, rejoins — and when the backup dies in turn, times the
/// silence from its own fresh monitors: the verdict is on the IP deadline
/// (last round 2 400 ms + 600), not on the 3 031 ms tick a stale record
/// would have left it to.
#[test]
fn a_warm_rebooted_joiner_re_arms_from_a_void_record() {
    let opts = ChaosOptions::default();
    let schedule: FaultSchedule =
        "@138 serial-fail; @601 crash primary; @1231 reboot primary; @2510 crash backup"
            .parse()
            .unwrap();
    let report = run_chaos_case(Pair, 12, &schedule, &opts);
    assert!(report.client.finished, "{:?}", report.client);
    let rejoined = report.member_events[0]
        .iter()
        .any(|e| matches!(e, StTcpEvent::ReintegrationCompleted { at } if *at < t(2_510)));
    assert!(rejoined, "{:?}", report.member_events[0]);
    let (reason, at) = verdict(&report.member_events[0]).expect("the rejoined primary's verdict");
    assert_eq!(reason, FailureReason::HbBothLinksDown);
    assert!(at > t(3_000) && at < t(3_010), "verdict at {at}");
}

/// One receive rule for both wire formats: a frozen stream revives no
/// link. The serial cable fails at 950 ms, the primary's heartbeat seqno
/// freezes at 1 010 ms, and the cable is back at 1 700 ms. The first
/// frame over it is fresh *on that link*, but it does not advance the
/// stream, which last advanced more than `hb_timeout` before — so it
/// refreshes no monitor, and the backup's row-1 verdict lands where the
/// IP link's starvation puts it, at the same instant under v1 and delta
/// (to the microsecond the two encodings' frame lengths move arrivals
/// by; seed 1: 2 200.115 ms, where delta's used to wait for 2 405 ms).
#[test]
fn a_frozen_stream_revives_no_link_in_either_format() {
    let schedule: FaultSchedule =
        "@950 serial-fail; @1010 byz-hb primary freeze; @1700 serial-restore"
            .parse()
            .unwrap();
    let backup_log = |hb_delta| {
        let opts = ChaosOptions {
            sttcp: StTcpConfig {
                hb_delta,
                ..chaos_config()
            },
            ..ChaosOptions::default()
        };
        run_chaos_case(Pair, 1, &schedule, &opts).member_events[1].clone()
    };
    let (v1, delta) = (backup_log(false), backup_log(true));
    for log in [&v1, &delta] {
        let revived = log.iter().find(
            |e| matches!(e, StTcpEvent::HbLinkUp { link: HbLink::Serial, at } if *at > t(1_010)),
        );
        assert_eq!(revived, None, "the frozen stream revived the cable");
    }
    let (reason, at) = verdict(&v1).expect("the frozen primary is condemned");
    assert_eq!(reason, FailureReason::HbBothLinksDown);
    let (delta_reason, delta_at) = verdict(&delta).expect("and under delta");
    assert_eq!(delta_reason, reason);
    let apart = delta_at.max(at).saturating_since(delta_at.min(at));
    assert!(
        apart <= SimDuration::from_micros(2),
        "v1 {at}, delta {delta_at}"
    );
}
