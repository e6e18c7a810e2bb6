//! Integration tests for the N-replica standby pool: rank-ordered
//! takeover, quorum-checked fencing, rank reassignment on rejoin, and
//! the determinism contract of the `--pool` sweep.
//!
//! The seeded pool tier mirrors `tests/soak.rs`: generated schedules,
//! judged only by the pair's own checker, `sttcp::invariant::check`,
//! against `pool_expectation`'s takeover budget — never a hand-written
//! per-case oracle. The edge-case tests below pin the fencing corners
//! the quorum rule must get right: the 2-node degenerate pool (where a
//! fence collapses to classic single-shot STONITH), simultaneous
//! candidates racing for the same corpse, and a fenced ex-active that
//! reboots mid-run.

use std::rc::Rc;

use simnet::flight::{FlightKind, SpanId};
use simnet::node::NodeId;
use simnet::serial::SerialDir;
use simnet::time::{SimDuration, SimTime};
use sttcp::config::StTcpConfig;
use sttcp::events::StTcpEvent;
use sttcp::invariant::Outcome;
use sttcp_apps::apps::StreamApp;
use sttcp_apps::chaos::{chaos_config, run_chaos_case, ChaosOptions, FaultSchedule};
use sttcp_apps::client::ClientWorkload;
use sttcp_apps::explore::{grammar, outcome_key, GrammarOp};
use sttcp_apps::scenario::{Scenario, ScenarioBuilder, Topology};
use sttcp_bench::experiments::{table1_row, Recovery, SCALE_HB_BATCH};
use sttcp_bench::hunt::{run_sweep, Flavour, SweepConfig};
use sttcp_bench::parallel::default_threads;

/// The pool every seeded case below runs on: what `chaos_hunt --pool`
/// sweeps.
const POOL: Topology = Topology::Pool(3);

fn quick() -> ChaosOptions {
    ChaosOptions::quick()
}

fn pool_sweep(seeds: u64, threads: usize) -> SweepConfig {
    SweepConfig {
        seeds,
        start: 0,
        quick: true,
        flavour: Flavour::Pool,
        threads,
    }
}

/// Builds an `n`-member pool serving a small verified download — the
/// same profile `run_chaos_case` gives a pool, minus the fixed replica
/// count.
fn pool_of(n: usize, seed: u64) -> Scenario {
    ScenarioBuilder::new(
        Rc::new(|| Box::new(StreamApp::new(4096, false)) as _),
        ClientWorkload::Download { total: 48 * 1024 },
    )
    .seed(seed)
    .pool(n)
    .sttcp(chaos_config())
    .build()
}

/// A `pool(3)` serving a 1 KiB echo every 50 ms, 200 times.
fn chatting_pool3() -> Scenario {
    let chat = ClientWorkload::EchoChat {
        chunk: 1024,
        period: SimDuration::from_millis(50),
        count: 200,
    };
    let app = || Box::new(sttcp::app::EchoApp::default()) as _;
    ScenarioBuilder::new(Rc::new(app), chat)
        .seed(61)
        .pool(3)
        .build()
}

/// A `pool(3)` at seed 5 serving `count` 1 KiB echoes every 20 ms.
fn echoing_pool3(count: u32) -> Scenario {
    let chat = ClientWorkload::EchoChat {
        chunk: 1024,
        period: SimDuration::from_millis(20),
        count,
    };
    let app = || Box::new(sttcp::app::EchoApp::default()) as _;
    ScenarioBuilder::new(Rc::new(app), chat)
        .seed(5)
        .pool(3)
        .build()
}

/// Client bytes `node` holds in extended receive buffers.
fn held_bytes(s: &Scenario, node: NodeId) -> usize {
    let tcp = s.server(node).endpoint();
    let conns = tcp.sockets().into_iter().filter_map(|id| tcp.conn(id));
    conns.map(|c| c.hold_used()).sum()
}

fn took_over_at(events: &[StTcpEvent]) -> Option<SimTime> {
    events.iter().find_map(|e| match e {
        StTcpEvent::TookOver { at } => Some(*at),
        _ => None,
    })
}

fn quorum_votes(events: &[StTcpEvent]) -> Option<u32> {
    events.iter().find_map(|e| match e {
        StTcpEvent::FenceQuorumReached { votes, .. } => Some(*votes),
        _ => None,
    })
}

/// The seeded pool tier: generated kill-the-takeover-chain schedules,
/// every run judged by the pool invariant checker. Any violation panics
/// with a paste-able `chaos_hunt --pool` reproducer.
#[test]
fn pool_soak_tier_is_violation_free() {
    let summary = run_sweep(&pool_sweep(48, default_threads()), &quick(), |case| {
        assert_ne!(
            case.report.outcome,
            Outcome::Violation,
            "seed {}: {}\n  violations: {:?}\n  reproducer:\n    cargo run -p sttcp-bench \
             --bin chaos_hunt -- --pool --seed {} --schedule \"{}\"",
            case.seed,
            case.schedule,
            case.report.violations,
            case.seed,
            case.schedule
        );
    });
    assert!(summary.violated.is_empty());
    // Every generated schedule kills the active (and usually its
    // successor): a sweep with no takeovers means the tier tests nothing.
    assert!(
        summary.takeovers >= 48,
        "only {} takeovers across 48 seeds",
        summary.takeovers
    );
}

/// `--threads` must be invisible in the pool sweep too: outcome
/// counters, takeover totals, and phase percentiles fold to a
/// byte-identical report at 1 and 4 workers.
#[test]
fn pool_sweep_report_is_identical_across_thread_counts() {
    let reports: Vec<String> = [1usize, 4]
        .into_iter()
        .map(|threads| {
            let cfg = pool_sweep(32, threads);
            let summary = run_sweep(&cfg, &quick(), |_| {});
            assert!(summary.violated.is_empty(), "{:?}", summary.violated);
            summary.to_report(&cfg, false).to_json()
        })
        .collect();
    assert_eq!(
        reports[0], reports[1],
        "pool sweep report differs between 1 and 4 threads"
    );
}

/// Replaying the same pool case twice is bit-for-bit identical — the
/// property that makes `--pool --seed N --schedule "..."` reproducers
/// trustworthy.
#[test]
fn pool_replay_is_deterministic() {
    for seed in [0, 9, 31] {
        let schedule = FaultSchedule::generate_pool(seed);
        let reparsed: FaultSchedule = schedule.to_string().parse().unwrap();
        let a = run_chaos_case(POOL, seed, &schedule, &quick());
        let b = run_chaos_case(POOL, seed, &reparsed, &quick());
        assert_eq!(
            a.fingerprint(),
            b.fingerprint(),
            "seed {seed} ({schedule}) diverged between runs"
        );
    }
}

/// A two-member pool is the paper's original pair: the lone survivor's
/// "quorum" is its own vote, so the fence degenerates to classic
/// single-shot STONITH — and must still precede the takeover.
#[test]
fn two_node_pool_fence_degenerates_to_stonith() {
    let mut s = pool_of(2, 41);
    s.crash_primary_at(SimTime::from_millis(800));
    s.world.run_until(SimTime::from_secs(25));

    assert!(s.client_finished(), "client: {:?}", s.client_log());
    assert_eq!(s.client_log().integrity_violations, 0);
    let events = s.server(s.backup).events();
    assert_eq!(
        quorum_votes(events),
        Some(1),
        "lone survivor must fence on its own vote"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e, StTcpEvent::StonithIssued { .. })),
        "degenerate fence must still fire STONITH"
    );
    let took = took_over_at(events).expect("survivor never took over");
    let fenced = events
        .iter()
        .find_map(|e| match e {
            StTcpEvent::FenceQuorumReached { at, .. } => Some(*at),
            _ => None,
        })
        .unwrap();
    assert!(
        fenced <= took,
        "takeover at {took} before fence at {fenced}"
    );
    assert!(s.server(s.backup).is_active());
}

/// When the active dies in a deep pool, every standby sees the same
/// corpse at the same time — simultaneous candidates. The race must
/// resolve by rank: exactly one takeover, by the best-ranked live
/// member, with the deeper standbys staying passive witnesses.
#[test]
fn simultaneous_candidates_resolve_by_rank() {
    let mut s = pool_of(4, 43);
    s.crash_primary_at(SimTime::from_millis(800));
    s.world.run_until(SimTime::from_secs(25));

    assert!(s.client_finished(), "client: {:?}", s.client_log());
    assert_eq!(s.client_log().resets, 0);
    assert!(took_over_at(s.server(s.backup).events()).is_some());
    for i in [2, 3] {
        assert_eq!(
            took_over_at(s.server(s.servers[i]).events()),
            None,
            "rank-{i} took over past a live better-ranked candidate"
        );
        assert!(!s.server(s.servers[i]).is_active());
    }
    // The witnesses contributed votes rather than competing: quorum is
    // a majority of the three survivors, so at least one deeper standby
    // confirmed the death alongside the candidate's own vote.
    assert!(quorum_votes(s.server(s.backup).events()).unwrap() >= 2);
}

/// A fenced ex-active that warm-reboots must never emit a client-visible
/// segment before it has rejoined: it comes back suppressed, stays so
/// through re-integration, and serves again only as a ranked-back
/// standby. The client's single unbroken connection is the proof.
#[test]
fn fenced_ex_active_is_silent_until_rejoined() {
    let schedule: FaultSchedule = "@800 crash primary; @1500 reboot primary".parse().unwrap();
    let report = run_chaos_case(POOL, 29, &schedule, &ChaosOptions::default());
    assert_eq!(
        report.outcome,
        Outcome::Recovered,
        "{:?}",
        report.violations
    );

    // No resets, no reconnects, no corruption: nothing the rebooted
    // ex-active could have emitted reached the client.
    assert_eq!(report.client.resets, 0);
    assert_eq!(report.client.integrity_violations, 0);
    assert!(report.client.finished);

    // The rebooted member never took the service back...
    assert_eq!(took_over_at(&report.member_events[0]), None);
    assert_ne!(report.active_at_end, Some(0));
    // ...and re-entered only through the join protocol, under a rank
    // behind every configured one.
    assert!(report.member_events[0]
        .iter()
        .any(|e| matches!(e, StTcpEvent::ReintegrationCompleted { .. })));
    assert!(
        report.final_ranks[0] >= 3,
        "rejoiner kept rank {}",
        report.final_ranks[0]
    );
}

/// The active serves a join session once: rank 1 took over and arms the
/// hold for the rejoining rank 0 once per connection. While control
/// messages rode the cables, the joiner's `JoinRequest` arrived there
/// 0.67 ms after its IP copy, and rank 1 re-armed every hold and re-sent
/// every snapshot and `JoinDone`.
#[test]
fn a_join_session_is_served_once() {
    let schedule: FaultSchedule = "@800 crash primary; @1500 reboot primary".parse().unwrap();
    let report = run_chaos_case(POOL, 29, &schedule, &ChaosOptions::default());
    let events = &report.member_events[1];
    let started = events
        .iter()
        .position(|e| matches!(e, StTcpEvent::ReintegrationStarted { .. }));
    let join = &events[started.expect("rank 1 never served the join")..];
    let armed = join.iter().filter_map(|e| match e {
        StTcpEvent::HoldArmed { conn, .. } => Some(*conn),
        _ => None,
    });
    let mut armed: Vec<u32> = armed.collect();
    let logged = armed.len();
    armed.sort_unstable();
    armed.dedup();
    assert!(!armed.is_empty(), "the join armed no hold");
    assert_eq!(logged, armed.len(), "`HoldArmed` per connection: {join:?}");
}

/// The resurrection race: the active crashes and warm-reboots *faster
/// than the heartbeat timeout*, so by liveness alone it never looks
/// dead — yet it comes back as a suppressed joiner at its old rank, so
/// nobody is serving. The survivors must recognise the impossible
/// Primary→Backup role transition, mark the old incarnation defunct,
/// and fence it so the takeover proceeds (found by the full-profile
/// sweep as seed 922's schedule; before the defunct rule the client
/// hung forever with no fence ever opening). The reboot came at 809 ms
/// in that schedule, which only beat a timeout *polled* at 850 ms: the
/// last heartbeat of a crash at 363 ms is the 200 ms round, silence is
/// a verdict at 803 ms now that it is timed, and a reboot after that
/// meets an ordinary fence. 759 ms keeps the race the test is about.
#[test]
fn fast_rebooted_active_is_fenced_as_defunct() {
    let schedule: FaultSchedule = "@363 crash primary; @759 reboot primary; @5550 crash backup"
        .parse()
        .unwrap();
    let report = run_chaos_case(POOL, 922, &schedule, &ChaosOptions::default());
    assert_eq!(
        report.outcome,
        Outcome::Recovered,
        "{:?}",
        report.violations
    );
    assert!(report.client.finished);
    assert_eq!(report.client.resets, 0);

    // Both survivors observed the role transition and condemned the
    // still-heartbeating ghost; rank 1 took over after a real quorum.
    for member in [1, 2] {
        assert!(
            report.member_events[member]
                .iter()
                .any(|e| matches!(e, StTcpEvent::DefunctActiveDetected { rank: 0, .. })),
            "rank {member} never marked the rebooted active defunct"
        );
    }
    let fence = report.member_events[1]
        .iter()
        .find_map(|e| match e {
            StTcpEvent::FenceQuorumReached {
                target_rank: 0,
                votes,
                at,
            } => Some((*votes, *at)),
            _ => None,
        })
        .expect("rank 1 must fence the defunct active");
    assert!(fence.0 >= 2, "majority quorum, not self-certification");
    let takeover = took_over_at(&report.member_events[1]).expect("rank 1 takes over");
    assert!(fence.1 <= takeover);
    // The chain continues: rank 2 inherits the service when rank 1 dies.
    assert_eq!(report.active_at_end, Some(2));
}

/// Regression: a fault-free `pool(3)` serving 3 201 idle connections
/// under `hb_delta` + `hb_batch` fenced its healthy active. The pool ran
/// v1 full-state rounds whatever the flags said: 13 + 21 × 3 201 =
/// 67 234 B, over the IP limit, so nothing went out on IP, and the one
/// 115.2 kbps cable could not carry a round within the timeout — rank 1
/// opened a round against rank 0 at 3.813 s and took over at 3.840 s.
#[test]
fn a_fault_free_delta_pool_of_3201_idle_connections_fences_nobody() {
    let cfg = StTcpConfig {
        hb_delta: true,
        hb_batch: SCALE_HB_BATCH,
        ..StTcpConfig::default()
    };
    let app = || Box::new(sttcp::app::EchoApp::default()) as _;
    let mut s = ScenarioBuilder::new(Rc::new(app), ClientWorkload::Idle)
        .extra_clients(vec![ClientWorkload::Idle; 3_200])
        .seed(241)
        .pool(3)
        .sttcp(cfg)
        .build();
    s.world.run_until(SimTime::from_secs(6));
    for (i, &node) in s.servers.iter().enumerate() {
        let verdict = s.server(node).events().iter().find(|e| {
            matches!(
                e,
                StTcpEvent::FenceRequested { .. } | StTcpEvent::PeerDeclaredFailed { .. }
            )
        });
        assert_eq!(verdict, None, "rank {i}");
        assert_eq!(s.server(node).conn_keys().len(), 3_201, "rank {i}");
    }
    assert!(s.server(s.primary).is_active());
}

/// A backup that misses client bytes after a takeover fetches them from
/// the new active: rank 2 follows rank 1 from its first active heartbeat
/// on, reseeds its lag set from rank 1's mirror and fetches from rank 1,
/// which serves the bytes from its hold buffer (as a backup it served none).
#[test]
fn a_backup_lagging_across_a_takeover_recovers_from_the_new_active() {
    let mut s = chatting_pool3();
    let (rank1, rank2) = (s.servers[1], s.servers[2]);
    s.crash_primary_at(SimTime::from_millis(800));
    s.drop_tap_at(s.server_links[2], SimTime::from_millis(3_000), 20);
    s.world.run_until(SimTime::from_secs(40));

    assert!(s.client_finished(), "client: {:?}", s.client_log());
    assert_eq!(s.client_log().integrity_violations, 0);
    assert_eq!(s.client_log().resets, 0);
    let took = took_over_at(s.server(rank1).events()).expect("rank 1 took over");
    let events = s.server(rank2).events();
    let requested = events.iter().find_map(|e| match e {
        StTcpEvent::RecoveryRequested { at, .. } => Some(*at),
        _ => None,
    });
    let requested = requested.expect("rank 2 never asked for the bytes it missed");
    let completed = events
        .iter()
        .any(|e| matches!(e, StTcpEvent::RecoveryCompleted { at, .. } if *at >= requested));
    assert!(took < requested && completed, "rank 2: {events:?}");
    assert!(s.server(rank1).metrics().fetch_bytes_served() > 0);
    let digest = |node| s.server(node).app_digest(s.first_conn_key());
    assert_eq!(digest(rank1), digest(rank2));
}

/// A pool's serial cables are heartbeat links: only fence votes share
/// them. Rank 2 misses 20 tap frames at 3 s and fetches the bytes from
/// rank 0. While every control message also rode every cable, rank 0's
/// 8 KiB fetch replies held its cable to rank 2 for 1.03 s (the
/// heartbeat timeout is 0.6 s), 21 929 B crossed it against 3 413 B of
/// heartbeats, and each `FetchRequest`'s cable copy was answered a
/// second time: 18 432 B served, each reply replayed twice (36 864 B).
#[test]
fn bulk_control_stays_off_the_cables() {
    let run = |tap_loss: bool| {
        let mut s = chatting_pool3();
        s.world.set_flight_capacity(1 << 16);
        if tap_loss {
            s.drop_tap_at(s.server_links[2], SimTime::from_millis(3_000), 20);
        }
        s.world.run_until(SimTime::from_secs(20));
        // `serials[1]` is the rank 0 – rank 2 cable, rank 0 at its `a` end.
        let cable = s.world.serial(s.serials[1]).stats(SerialDir::AtoB);
        let heard = s
            .world
            .flight_snapshot(None)
            .events
            .into_iter()
            .filter(|e| {
                matches!(e.kind, FlightKind::HbRecv { seqno, link: 1 }
                if e.node == Some(s.servers[2]) && e.span == SpanId::heartbeat(0, 0, seqno))
            });
        let heard: Vec<SimTime> = heard.map(|e| e.time).collect();
        let gap = heard.windows(2).map(|w| w[1].saturating_since(w[0])).max();
        let served = s.server(s.servers[0]).metrics().fetch_bytes_served();
        let replayed = s.server(s.servers[2]).metrics().replay_bytes();
        (cable.bytes_delivered, gap.unwrap(), served, replayed)
    };
    let ((quiet, ..), (bytes, gap, served, replayed)) = (run(false), run(true));
    assert_eq!(bytes, quiet, "cable bytes with and without the tap loss");
    let timeout = StTcpConfig::default().hb_timeout();
    assert!(gap <= timeout, "rank 0 silent on its cable for {gap}");
    assert!(
        served > 0 && served == replayed,
        "served {served}, replayed {replayed}"
    );
}

/// A pool takeover has a symptom, as the pair's does: a backup logs its
/// active's heartbeat links going down, so a crash's silence is phased as
/// `symptom` (fault → the IP link's verdict) and only the few
/// milliseconds from there to the fence as `diagnosis`. Before the
/// links' edges were logged for the followed member in both topologies,
/// the pool read symptom 0 and diagnosis 403.9 ms (seed 1) where the pair
/// reads 400.1 / 3.6 ms.
#[test]
fn a_pool_takeover_has_a_symptom_like_the_pairs() {
    use obs::timeline::Phase;
    use sttcp_bench::hunt::takeover_phases;

    let schedule: FaultSchedule = "@1000 crash primary".parse().unwrap();
    let opts = ChaosOptions {
        total_bytes: 8 << 20,
        ..ChaosOptions::default()
    };
    for topology in [Topology::Pair, POOL] {
        let report = run_chaos_case(topology, 1, &schedule, &opts);
        let phases = takeover_phases(&report);
        let [(_, b)] = phases.as_slice() else {
            panic!("{topology:?}: one folded takeover, got {phases:?}");
        };
        let (symptom, diagnosis) = (b.get(Phase::Symptom), b.get(Phase::Diagnosis));
        assert!(
            symptom > diagnosis && diagnosis > SimDuration::ZERO,
            "{topology:?}: symptom {symptom}, diagnosis {diagnosis}"
        );
    }
}

/// Both backups of a three-member pool die 200 ms apart under a 1 KiB
/// echo every 20 ms. The active opens a fence round against rank 1 that
/// needs rank 2's vote, and rank 2 is dead too, so the round never
/// completes: the active stays in `ft_mode`, holding every client byte
/// for backups that are gone (1 495 040 B at 30 s, over its 1 MiB
/// `hold_buf`). Quorum counts the dead rank 2 in the electorate, so the
/// round is stuck for good (ROADMAP item 10; `pool.rs`'s
/// `liveness_counterexamples_are_two_deaths_before_a_commit` enumerates
/// every such schedule).
#[test]
#[ignore = "a fence round whose electorate's majority is dead never ends (ROADMAP item 10)"]
fn an_active_whose_backups_all_died_holds_within_hold_buf() {
    let mut s = echoing_pool3(2_000);
    s.crash_at(s.servers[1], SimTime::from_millis(1_000));
    s.crash_at(s.servers[2], SimTime::from_millis(1_200));
    s.world.run_until(SimTime::from_secs(30));
    let held = held_bytes(&s, s.primary);
    assert!(held <= StTcpConfig::default().hold_buf, "holds {held} B");
}

/// A joiner that dies mid-join: `servers[0]` crashes at 1 s, reboots into
/// a join at 2.5 s and crashes again 5 ms later. The active's round
/// against it opens at 3.101 s under its pre-join rank 0 and never
/// reaches a quorum, so the dead joiner stays unfenced and pins 902 144 B
/// of client bytes at 25 s (the pair condemns it by row 1).
#[test]
#[ignore = "ROADMAP item 10"]
fn a_joiner_that_dies_mid_join_is_fenced() {
    let mut s = echoing_pool3(1_000);
    s.crash_at(s.servers[0], SimTime::from_millis(1_000));
    s.reboot_at(s.servers[0], SimTime::from_millis(2_500));
    s.crash_at(s.servers[0], SimTime::from_millis(2_505));
    s.world.run_until(SimTime::from_secs(25));
    let fenced = s.server(s.servers[1]).events().iter().any(|e| {
        matches!(e, StTcpEvent::FenceQuorumReached { at, .. } if *at > SimTime::from_millis(2_505))
    });
    let held = held_bytes(&s, s.servers[1]);
    assert!(
        fenced && held < 64 * 1024,
        "fenced {fenced}, holds {held} B"
    );
}

/// Byzantine heartbeats (CRC-valid, semantically impossible) across a
/// seeded sweep of both sides, both lies and both heartbeat formats
/// (v1 full-state and delta): the detector must reject and quarantine —
/// any mis-verdict trips the `byzantine-liar-verdict` or
/// `no-false-positive` invariant and fails the run.
#[test]
fn byzantine_heartbeat_sweep_is_violation_free() {
    for hb_delta in [false, true] {
        let opts = ChaosOptions {
            sttcp: StTcpConfig {
                hb_delta,
                ..chaos_config()
            },
            ..quick()
        };
        for seed in 0..60 {
            let schedule = FaultSchedule::generate_byzantine(seed);
            let report = run_chaos_case(Topology::Pair, seed, &schedule, &opts);
            assert_ne!(
                report.outcome,
                Outcome::Violation,
                "seed {seed}, hb_delta {hb_delta}: {schedule}\n  violations: {:?}",
                report.violations
            );
        }
    }
}

/// The same byzantine schedules against the pool: a lying member must
/// end up quarantined by the honest majority, never trusted into a
/// takeover chain — in either heartbeat format.
#[test]
fn pool_absorbs_byzantine_heartbeats() {
    for hb_delta in [false, true] {
        let opts = ChaosOptions {
            sttcp: StTcpConfig {
                hb_delta,
                ..chaos_config()
            },
            ..quick()
        };
        for seed in 0..24 {
            let schedule = FaultSchedule::generate_byzantine(seed);
            let report = run_chaos_case(POOL, seed, &schedule, &opts);
            assert_ne!(
                report.outcome,
                Outcome::Violation,
                "seed {seed}, hb_delta {hb_delta}: {schedule}\n  violations: {:?}",
                report.violations
            );
        }
    }
}

/// Table 1's outcome for one case: the symptom (the detector's verdict,
/// or row 5's rule), the recovery class, and whether the client was
/// served transparently.
fn table1_outcome(topology: Topology, case: usize) -> (String, Recovery, bool) {
    let r = table1_row(topology, 1_000, case);
    assert!(!r.bound_violated(), "{topology:?} case {case}: {r:?}");
    (r.symptom, r.recovery, r.client_ok)
}

fn assert_pool_masks_as_the_pair(case: usize) {
    let (pool, pair) = (
        table1_outcome(POOL, case),
        table1_outcome(Topology::Pair, case),
    );
    assert_eq!(pool, pair, "Table 1 case {case}: pool(3) vs the pair");
}

/// ROADMAP item 7(a): the pool runs Table 1's ten single failures (rank
/// 0 the primary-side victim, rank 1 the backup-side one, the other of
/// the two the detector). A crash on either side is fenced by quorum and
/// masked as the pair masks it, and row 5 needs no detector; rows 2–4
/// differ, pinned one by one below.
#[test]
fn the_pool_masks_crashes_and_tap_losses_as_the_pair_does() {
    for case in [0, 1, 8, 9] {
        assert_pool_masks_as_the_pair(case);
    }
}

/// The active's application hangs: the pool has no lag detector, the
/// client stalls after 37 echoes with nobody condemned.
#[test]
#[ignore = "ROADMAP item 7(b)"]
fn table1_row2_silent_app_crash_at_the_active() {
    assert_pool_masks_as_the_pair(2);
}

/// A standby's application hangs: the client is served, but the pool
/// keeps the zombie standby instead of shutting it down.
#[test]
#[ignore = "ROADMAP item 7(b)"]
fn table1_row2_silent_app_crash_at_a_standby() {
    assert_pool_masks_as_the_pair(3);
}

/// The active's application exits with a FIN: the FIN is held, no
/// verdict comes, and the client stalls after 37 echoes.
#[test]
#[ignore = "ROADMAP item 7(b)"]
fn table1_row3_app_fin_at_the_active() {
    assert_pool_masks_as_the_pair(4);
}

/// A standby's application exits with a FIN: served, standby kept.
#[test]
#[ignore = "ROADMAP item 7(b)"]
fn table1_row3_app_fin_at_a_standby() {
    assert_pool_masks_as_the_pair(5);
}

/// The active's NIC fails: the serial mesh keeps it heard, no gateway
/// ping assigns blame, and the client stalls after 37 echoes.
#[test]
#[ignore = "ROADMAP item 7(b)"]
fn table1_row4_nic_failure_at_the_active() {
    assert_pool_masks_as_the_pair(6);
}

/// A standby's NIC fails: served, the deaf standby kept.
#[test]
#[ignore = "ROADMAP item 7(b)"]
fn table1_row4_nic_failure_at_a_standby() {
    assert_pool_masks_as_the_pair(7);
}

/// Where the grammar half of ROADMAP item 7(a) injects each op: mid
/// download, between the quick probe's first data byte (100.3 ms at seed
/// 1) and its first heartbeat round (200 ms).
const GRAMMAR_ANCHOR_MS: u64 = 150;

/// The outcome class of one explorer grammar op, alone at
/// [`GRAMMAR_ANCHOR_MS`] (seed 1, quick options).
fn grammar_outcome(topology: Topology, op: GrammarOp) -> &'static str {
    let mut s = FaultSchedule::default();
    op.push_onto(&mut s, GRAMMAR_ANCHOR_MS);
    outcome_key(run_chaos_case(topology, 1, &s, &quick()).outcome)
}

/// The grammar ops whose pool(3) outcome differs from the pair's: the
/// active's dead NIC, cut cable or crashed application has no pool
/// detector and the client is left unserved (an exiting application's
/// RST is detected but unrecoverable), and a standby's dead NIC or cut
/// cable goes unnoticed, the deaf standby kept.
fn grammar_gap() -> [GrammarOp; 7] {
    use sttcp::server::AppCrashMode::*;
    use sttcp_apps::chaos::ChaosAction::*;
    use sttcp_apps::chaos::Side::*;
    [
        NicDown(Primary),
        LinkCut(Primary.link()),
        AppCrash(Primary, SilentNoCleanup),
        AppCrash(Primary, CleanupFin),
        AppCrash(Primary, CleanupRst),
        NicDown(Backup),
        LinkCut(Backup.link()),
    ]
    .map(GrammarOp::Single)
}

fn assert_pool_outcome_is_the_pairs(op: GrammarOp) {
    let (pool, pair) = (
        grammar_outcome(POOL, op),
        grammar_outcome(Topology::Pair, op),
    );
    assert_eq!(pool, pair, "{op:?}: pool(3) vs the pair");
}

/// ROADMAP item 7(a), the grammar half: every other op of the explorer's
/// grammar ends in the same outcome class on pool(3) as on the pair.
#[test]
fn the_pool_matches_the_pair_on_the_rest_of_the_grammar() {
    let gap = grammar_gap();
    for op in grammar().into_iter().filter(|op| !gap.contains(op)) {
        assert_pool_outcome_is_the_pairs(op);
    }
}

#[test]
#[ignore = "ROADMAP item 7(b)"]
fn the_pool_matches_the_pair_on_the_grammar_gap() {
    for op in grammar_gap() {
        assert_pool_outcome_is_the_pairs(op);
    }
}
