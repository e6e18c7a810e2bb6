//! Integration tests for the chaos engine itself: deterministic replay,
//! paste-able reproducers, shrinker soundness, and regression schedules
//! for classes of faults the protocol must absorb.
//!
//! The heavier seeded sweeps live in `tests/soak.rs`; these tests pin the
//! *machinery* — that a printed schedule replays bit-for-bit, that the
//! shrinker converges to the same minimum every time, and that specific
//! small schedules land in the outcome class they are supposed to.

use std::rc::Rc;

use simnet::time::SimTime;
use sttcp::config::StTcpConfig;
use sttcp::events::{FailureReason, StTcpEvent};
use sttcp::invariant::Outcome;
use sttcp_apps::apps::StreamApp;
use sttcp_apps::chaos::{
    chaos_config, run_chaos_case, shrink_schedule, ChaosOptions, ChaosReport, FaultSchedule,
};
use sttcp_apps::client::ClientWorkload;
use sttcp_apps::scenario::{AppMaker, ScenarioBuilder, Topology::Pair};
use sttcp_bench::hunt::{run_sweep, Flavour, SweepConfig};

fn quick() -> ChaosOptions {
    ChaosOptions::quick()
}

/// The 64-seed quick sweep of one flavour on `threads` workers: the
/// violating seeds and the metrics report `chaos_hunt --json` writes.
fn sweep_report(flavour: Flavour, opts: &ChaosOptions, threads: usize) -> (Vec<u64>, String) {
    let cfg = SweepConfig {
        seeds: 64,
        start: 0,
        quick: true,
        flavour,
        threads,
    };
    let summary = run_sweep(&cfg, opts, |_| {});
    let report = summary.to_report(&cfg, true).to_json();
    (summary.violated, report)
}

/// `--threads` must be invisible in the results: a sweep run on a
/// 4-worker pool folds to a byte-identical metrics report (outcome
/// counters, phase percentiles, bound checks — everything) as the same
/// sweep run sequentially. This is the determinism contract the parallel
/// seed fan-out is built on.
fn assert_thread_invariant(flavour: Flavour, opts: &ChaosOptions) {
    assert_eq!(
        sweep_report(flavour, opts, 1),
        sweep_report(flavour, opts, 4),
        "{flavour:?} sweep report differs between 1 and 4 threads"
    );
}

/// What a heartbeat wire format must not change about a run: outcome
/// class, violated invariants, client integrity, and which servers took
/// over / fenced. Raw fingerprints legitimately diverge across formats
/// (frame sizes shift every microsecond timestamp downstream of a
/// heartbeat); a protocol *decision* must not.
fn semantic_verdict(r: &ChaosReport) -> impl PartialEq + std::fmt::Debug {
    let any = |evs: &[StTcpEvent], f: fn(&StTcpEvent) -> bool| evs.iter().any(f);
    let took_over = |e: &StTcpEvent| matches!(e, StTcpEvent::TookOver { .. });
    let stonith = |e: &StTcpEvent| matches!(e, StTcpEvent::StonithIssued { .. });
    (
        r.outcome,
        r.violations.iter().map(|v| v.invariant).collect::<Vec<_>>(),
        r.client.finished,
        r.client.integrity_violations,
        r.member_events
            .iter()
            .map(|evs| (any(evs, took_over), any(evs, stonith)))
            .collect::<Vec<_>>(),
    )
}

/// Replaying the same `(seed, schedule)` twice must produce identical
/// observable behavior — the property that makes printed reproducers and
/// shrinking sound.
#[test]
fn replay_is_bit_for_bit_deterministic() {
    for seed in [0, 3, 17, 40, 99] {
        let schedule = FaultSchedule::generate(seed);
        let a = run_chaos_case(Pair, seed, &schedule, &quick());
        let b = run_chaos_case(Pair, seed, &schedule, &quick());
        assert_eq!(
            a.fingerprint(),
            b.fingerprint(),
            "seed {seed} ({schedule}) diverged between runs"
        );
    }
}

/// A schedule that went through print-then-parse replays identically to
/// the original — the reproducer a violation prints is trustworthy.
#[test]
fn printed_reproducer_replays_identically() {
    for seed in [1, 7, 23, 61] {
        let schedule = FaultSchedule::generate(seed);
        let reparsed: FaultSchedule = schedule.to_string().parse().unwrap();
        assert_eq!(reparsed, schedule);
        let a = run_chaos_case(Pair, seed, &schedule, &quick());
        let b = run_chaos_case(Pair, seed, &reparsed, &quick());
        assert_eq!(a.fingerprint(), b.fingerprint(), "seed {seed}");
    }
}

/// The shrinker is deterministic: shrinking the same violation twice
/// yields the same minimal schedule in the same number of probe runs.
/// (Uses a benign schedule judged by a synthetic predicate in unit tests;
/// here we only exercise the end-to-end entry point on a non-violating
/// schedule, which must come back unchanged.)
#[test]
fn shrinking_a_passing_schedule_is_identity() {
    let schedule: FaultSchedule = "@500 crash primary".parse().unwrap();
    let r1 = shrink_schedule(Pair, 11, &schedule, &quick());
    let r2 = shrink_schedule(Pair, 11, &schedule, &quick());
    assert_eq!(r1.schedule, schedule);
    assert_eq!(r1.schedule, r2.schedule);
    assert_eq!(r1.runs, r2.runs);
}

/// A fault-free schedule must come back `Clean`: full download, no
/// verdicts, no resets.
#[test]
fn empty_schedule_is_clean() {
    let report = run_chaos_case(Pair, 5, &FaultSchedule::default(), &quick());
    assert_eq!(report.outcome, Outcome::Clean, "{:?}", report.violations);
    assert!(report.client.finished);
    assert_eq!(report.client.resets, 0);
}

/// A primary crash mid-transfer is the paper's headline scenario: the
/// backup takes over and the client finishes. Anything less is a bug.
#[test]
fn primary_crash_recovers() {
    let schedule: FaultSchedule = "@900 crash primary".parse().unwrap();
    let report = run_chaos_case(Pair, 2, &schedule, &quick());
    assert_eq!(
        report.outcome,
        Outcome::Recovered,
        "violations: {:?}",
        report.violations
    );
    assert!(report.client.finished);
    assert!(report.member_events[1]
        .iter()
        .any(|e| matches!(e, StTcpEvent::TookOver { .. })));
}

/// Regression: a small burst of corrupted frames toward the primary is
/// *dropped, never acted on* — the CRC turns corruption into loss, so no
/// failure verdict may fire and the client still finishes. Before the
/// control formats carried checksums, a flipped bit inside a heartbeat
/// could be decoded as a live message and acted on.
#[test]
fn corrupted_frames_are_dropped_not_acted_on() {
    for (seed, schedule) in [
        (4, "@400 corrupt primary 6"),
        (9, "@300 corrupt backup 6"),
        (13, "@250 corrupt client 4"),
    ] {
        let schedule: FaultSchedule = schedule.parse().unwrap();
        let report = run_chaos_case(Pair, seed, &schedule, &quick());
        assert_ne!(
            report.outcome,
            Outcome::Violation,
            "seed {seed} ({schedule}): {:?}",
            report.violations
        );
        let verdicts = report.member_events[0]
            .iter()
            .chain(report.member_events[1].iter())
            .filter(|e| {
                matches!(
                    e,
                    StTcpEvent::PeerDeclaredFailed { .. }
                        | StTcpEvent::TookOver { .. }
                        | StTcpEvent::StonithIssued { .. }
                )
            })
            .count();
        assert_eq!(
            verdicts, 0,
            "seed {seed} ({schedule}): corruption provoked a verdict"
        );
    }
}

/// A crashed-then-rebooted primary never takes the service back: it
/// rejoins behind the backup that took over, or is condemned as defunct
/// (rebooted before the backup noticed) and stays off.
#[test]
fn rebooted_primary_never_takes_the_service_back() {
    let schedule: FaultSchedule = "@800 crash primary; @1400 reboot primary".parse().unwrap();
    let report = run_chaos_case(Pair, 6, &schedule, &quick());
    assert_ne!(
        report.outcome,
        Outcome::Violation,
        "violations: {:?}",
        report.violations
    );
    // The rebooted primary must not have taken over again.
    let primary_takeovers = report.member_events[0]
        .iter()
        .filter(|e| matches!(e, StTcpEvent::TookOver { .. }))
        .count();
    assert_eq!(primary_takeovers, 0);
    // At most one server ends active (no-dual-active held): the backup.
    assert_eq!(report.active_at_end, Some(1));
}

/// The pair's resurrection race (the pool's is in `tests/pool.rs`): the
/// primary reboots inside the backup's liveness timeout and heartbeats
/// as a backup, so nobody serves — seed 1222's client hung, and seed 47
/// (`--reintegrate` without its second crash) was judged `clean` after
/// its download with no server left active. The reboot's v1 seqnos soon
/// overtake the dead stream's, and its v2 epoch makes its frames fresh
/// at once, so no link starves: the demotion condemns it.
#[test]
fn primary_rebooted_before_detection_is_condemned_as_defunct() {
    let delta = delta_opts();
    for (seed, schedule) in [
        (1222, "@82 crash primary; @200 reboot primary"),
        (47, "@436 crash primary; @966 reboot primary"),
    ] {
        for opts in [quick(), delta.clone()] {
            let schedule: FaultSchedule = schedule.parse().unwrap();
            let report = run_chaos_case(Pair, seed, &schedule, &opts);
            let case = format!("seed {seed}, hb_delta {}", opts.sttcp.hb_delta);
            let v = &report.violations;
            assert_eq!(report.outcome, Outcome::Recovered, "{case}: {v:?}");
            assert_eq!(report.active_at_end, Some(1), "{case}");
            assert!(
                (report.member_events[1].iter())
                    .any(|e| matches!(e, StTcpEvent::DefunctActiveDetected { .. })),
                "{case}: the backup never marked the rebooted primary defunct"
            );
        }
    }
}

/// Regression (found by the 2000-seed hunt, seed 1877): a transient
/// fault stalls the transport, both replica apps freeze at the same
/// stream position, and the app then dies with an abortive close. The
/// FIN/RST gate held the one-shot RST — and unlike a FIN, an RST is
/// never regenerated by retransmission — so when MaxDelayFIN released
/// the gate nothing was re-sent and the client hung forever with zero
/// resets. `release_fin` must re-issue a held RST. The crash lands
/// inside the NIC outage, so the transport is stalled whatever the
/// recovery after it costs (the seed's 7 s crash came after the download
/// once ACKs were delayed); `--features inject_held_rst` fails this test.
#[test]
fn held_rst_is_reissued_when_gate_opens() {
    let schedule: FaultSchedule = "@200 nic-down primary; @600 app-crash primary rst; \
                                   @1000 nic-up primary"
        .parse()
        .unwrap();
    let report = run_chaos_case(Pair, 1877, &schedule, &ChaosOptions::default());
    assert_ne!(
        report.outcome,
        Outcome::Violation,
        "violations: {:?}",
        report.violations
    );
    assert!(
        report.client.resets >= 1,
        "client must be told about the abortive close, not left hanging \
         (client: {:?})",
        report.client
    );
}

/// Asserts the download client finished by 2 s, on the pair
/// `run_chaos_case` builds for `opts` (whose checker reads only the
/// longest stall, so a crawl that progresses every RTO reads clean).
fn assert_finished_by_2s(seed: u64, schedule: &FaultSchedule, opts: &ChaosOptions) {
    let app: AppMaker = Rc::new(|| Box::new(StreamApp::new(4096, false)) as _);
    let workload = ClientWorkload::Download {
        total: opts.total_bytes,
    };
    let mut s = ScenarioBuilder::new(app, workload)
        .seed(seed)
        .sttcp(opts.sttcp.clone())
        .build();
    schedule.apply(&mut s);
    s.world.run_until(SimTime::ZERO + opts.horizon);
    let at = s.client_log().finished_at;
    assert!(
        at.is_some_and(|t| t <= SimTime::from_millis(2_000)),
        "seed {seed} ({schedule}) finished at {at:?}"
    );
}

/// Regression (the crawl): a fault the pair rides out without a takeover
/// loses the primary's whole window, and a timeout that resent only the
/// head drained it at one MSS per RTO. Seed 1877's 800 ms NIC flap
/// finished its 192 KiB at 6.91 s. A timeout now rewinds to `snd.una`
/// and resends in slow start.
#[test]
fn a_healed_nic_flap_does_not_leave_the_download_crawling_1877() {
    let flap = "@200 nic-down primary; @1000 nic-up primary"
        .parse()
        .unwrap();
    assert_finished_by_2s(1877, &flap, &ChaosOptions::default());
}

/// The same crawl in the quick hunt: seed 1444's 835 ms cut of the
/// primary's link finished the 48 KiB at 8.60 s, and the checker called
/// it clean.
#[test]
fn a_healed_cut_does_not_leave_the_download_crawling_1444() {
    assert_finished_by_2s(1444, &FaultSchedule::generate(1444), &quick());
}

/// Asserts a verdict-free schedule ran `Clean`: download complete, no
/// reset, and no server condemned its peer.
fn assert_clean_and_verdict_free(seed: u64, schedule: &str, opts: &ChaosOptions) {
    let schedule: FaultSchedule = schedule.parse().unwrap();
    let report = run_chaos_case(Pair, seed, &schedule, opts);
    assert_eq!(report.outcome, Outcome::Clean, "{:?}", report.violations);
    assert!(report.client.finished, "client: {:?}", report.client);
    assert_eq!(report.client.resets, 0, "client: {:?}", report.client);
    let verdicts = (report.member_events.iter().flatten())
        .filter(|e| matches!(e, StTcpEvent::PeerDeclaredFailed { .. }))
        .count();
    assert_eq!(verdicts, 0, "a healthy peer was condemned");
}

/// Regression (nightly soak, quick seed 1586, shrunk to one action): the
/// seventh reordered frame toward the primary is the client's FIN, held
/// on the wire until the next heartbeat 190 ms later; the final ACK is
/// held the same way, past the primary's FIN retransmission. The primary
/// reaches CLOSED on the late ACK and — correctly, RFC 793 p. 36 —
/// answers the TIME-WAIT client's re-ACK of the duplicate FIN with an
/// RST. The client had every byte and both FINs acknowledged; simtcp
/// reported "connection reset" to it anyway (RFC 793 p. 70: in
/// TIME-WAIT an RST only deletes the TCB).
#[test]
fn late_rst_into_time_wait_is_not_a_client_reset() {
    assert_clean_and_verdict_free(1586, "@185 reorder primary 7", &quick());
}

/// Regression (nightly soak, full-profile seed 100): the same reset by
/// another road — jitter on the primary's link delivers an old client
/// ACK after the one that closed the connection, and the RST it earns
/// finds the client in TIME-WAIT.
#[test]
fn jitter_delayed_ack_after_close_is_not_a_client_reset() {
    let schedule = "@224 jitter primary 23; @416 dup backup 3; \
                    @1110 jitter-end primary; @1536 serial-fail";
    assert_clean_and_verdict_free(100, schedule, &ChaosOptions::default());
}

/// Regression (nightly soak, full-profile seed 126): reordering toward
/// the client delays its GET by an RTO, so both applications sit at
/// position 0 for a second; the tap loss then costs the backup the GET
/// itself, which it recovers 150 ms after the primary's application
/// started streaming. The primary condemned it 50 ms later: 80 KiB ahead
/// of a heartbeat older than the request, with the idle second counted
/// as a confirmation window already served. A detector bug, not an
/// under-modelled schedule — the backup was healthy and a heartbeat away
/// from saying so.
#[test]
fn idle_second_before_a_late_get_is_not_app_lag() {
    let schedule = "@66 reorder client 6; @169 drop-tap 13";
    assert_clean_and_verdict_free(126, schedule, &ChaosOptions::default());
}

/// Double crash (both servers) destroys the service; the checker must
/// classify it as `ServiceLost` or an explicitly announced failure —
/// never a violation, and never a silently "successful" run.
#[test]
fn double_crash_loses_service_without_violation() {
    // Both crashes land before the download can complete: the primary
    // dies mid-handshake and the backup dies before its takeover can
    // finish serving.
    let schedule: FaultSchedule = "@150 crash primary; @400 crash backup".parse().unwrap();
    let report = run_chaos_case(Pair, 8, &schedule, &quick());
    assert!(
        matches!(
            report.outcome,
            Outcome::ServiceLost | Outcome::DetectedUnrecoverable
        ),
        "outcome {} (violations: {:?})",
        report.outcome,
        report.violations
    );
    assert!(!report.client.finished);
}

/// The tentpole end-to-end scenario: the primary crashes mid-transfer,
/// the backup takes over, the primary warm-reboots and re-integrates
/// into the live connection — and then the *backup* crashes while data
/// is still flowing. The re-integrated primary must detect the failure,
/// fence, take over, and finish serving the (verified) download. The
/// download is sized so it cannot complete before the second crash:
/// a finished client proves the tail bytes came from the rejoined node.
#[test]
fn reintegrated_pair_survives_second_crash() {
    use simnet::time::SimTime;

    let opts = ChaosOptions {
        total_bytes: 2 * 1024 * 1024,
        ..ChaosOptions::default()
    };
    let schedule: FaultSchedule = "@300 crash primary; @1200 reboot primary; @2000 crash backup"
        .parse()
        .unwrap();
    let report = run_chaos_case(Pair, 12, &schedule, &opts);

    assert_eq!(
        report.outcome,
        Outcome::Recovered,
        "violations: {:?}, client: {:?}",
        report.violations,
        report.client
    );
    assert!(report.client.finished);
    assert_eq!(report.client.bytes_ok, opts.total_bytes);
    assert_eq!(report.client.integrity_violations, 0);

    // Redundancy was restored before the second fault...
    let rejoined_at = report.member_events[0]
        .iter()
        .find_map(|e| match e {
            StTcpEvent::ReintegrationCompleted { at } => Some(*at),
            _ => None,
        })
        .expect("primary never completed re-integration");
    assert!(rejoined_at < SimTime::from_millis(2_000));

    // ...and the rejoined primary performed the second takeover.
    let second_takeover = report.member_events[0]
        .iter()
        .find_map(|e| match e {
            StTcpEvent::TookOver { at } => Some(*at),
            _ => None,
        })
        .expect("re-integrated primary never took over");
    assert!(second_takeover > rejoined_at);
}

/// The reintegrate-then-fail tier obeys the same determinism contract as
/// the other sweep flavours, and a seed sweep of it stays violation-free:
/// snapshot transfer must never break output commit or digest lockstep.
#[test]
fn reintegrate_sweep_is_deterministic_and_clean() {
    let (violated, _) = sweep_report(Flavour::Reintegrate, &quick(), 1);
    assert!(violated.is_empty(), "reintegrate sweep hit {violated:?}");
    assert_thread_invariant(Flavour::Reintegrate, &quick());
}

/// Delta heartbeats are a wire optimisation, not a behaviour change, in
/// the pair and in `pool(3)` alike. Two contracts, both over 64 seeds of
/// each topology's generator:
///
/// 1. A delta-mode sweep folds to a byte-identical metrics report at 1
///    and 4 threads — the same determinism contract full-state mode
///    already pins.
/// 2. Every seed's [`semantic_verdict`] matches between delta and
///    full-state mode.
#[cfg(not(mutate_no_hb_guard))]
#[test]
fn delta_heartbeat_sweep_matches_full_state_semantics() {
    // Contract 1: delta mode is deterministic and thread-invariant.
    for flavour in TOPOLOGIES {
        assert_thread_invariant(flavour, &delta_opts());
    }
    // Contract 2: per-seed verdict equivalence against full-state mode.
    let changed = seeds_where_delta_mode_changes_the_verdict();
    assert!(
        changed.is_empty(),
        "delta mode changed a protocol decision: {changed:?}"
    );
}

/// The sweep flavours that stand for the two topologies: the pair's
/// `generate` schedules and the pool's `generate_pool` ones.
const TOPOLOGIES: [Flavour; 2] = [Flavour::Single, Flavour::Pool];

fn delta_opts() -> ChaosOptions {
    with_sttcp(StTcpConfig {
        hb_delta: true,
        ..chaos_config()
    })
}

/// The quick profile under `sttcp`.
fn with_sttcp(sttcp: StTcpConfig) -> ChaosOptions {
    ChaosOptions {
        sttcp,
        ..ChaosOptions::quick()
    }
}

/// The seeds in 0..64 of either topology whose [`semantic_verdict`]
/// differs between `a` and `b`.
fn seeds_where_modes_differ(a: &ChaosOptions, b: &ChaosOptions) -> Vec<(Flavour, u64)> {
    let differs = |flavour: Flavour, seed| {
        let schedule = flavour.schedule(seed);
        let run = |opts| run_chaos_case(flavour.topology(), seed, &schedule, opts);
        semantic_verdict(&run(a)) != semantic_verdict(&run(b))
    };
    let seeds = TOPOLOGIES
        .into_iter()
        .flat_map(|f| (0..64).map(move |seed| (f, seed)));
    seeds.filter(|&(f, seed)| differs(f, seed)).collect()
}

/// Contract 2 of the delta sweep: the seeds whose semantic verdict
/// differs between delta and full-state mode.
fn seeds_where_delta_mode_changes_the_verdict() -> Vec<(Flavour, u64)> {
    seeds_where_modes_differ(&quick(), &delta_opts())
}

/// The mutation gate for the liveness jitter guard
/// (`RUSTFLAGS="--cfg mutate_no_hb_guard"`, `linkmon.rs`): with the guard
/// dropped to zero the liveness timer ties with a heartbeat arriving on
/// the very instant of its deadline and, queued first, wins. Delta frames
/// are a few bytes shorter than full-state ones, so the two modes land
/// that heartbeat a few microseconds apart — on either side of the tie —
/// and the equivalence sweep above is the oracle that sees one mode fence
/// where the other does not.
#[cfg(mutate_no_hb_guard)]
#[test]
fn delta_sweep_catches_a_dropped_jitter_guard() {
    let caught = seeds_where_delta_mode_changes_the_verdict();
    assert!(
        !caught.is_empty(),
        "the delta-equivalence sweep did not notice the missing guard"
    );
}

/// CI's `chaos_hunt --quick --seeds 50 --double --enforce-bounds` went
/// red on seed 24 (`@80 reorder client 8; @129 app-crash primary
/// silent`): the reordering parks the client's GET until its 1.1 s
/// retransmit, so the replicas have nothing to lag each other on before
/// 1.100 s, and the app-lag verdict at 2.150 s — 1 050 ms after the lag
/// began — was charged 2 021 ms against the 1 800 ms bound because the
/// clock started at the fault. The bound is charged from symptom onset.
#[test]
fn app_lag_bound_is_charged_from_the_first_delivered_byte() {
    let cfg = SweepConfig {
        seeds: 1,
        start: 24,
        quick: true,
        flavour: Flavour::Double,
        threads: 1,
    };
    let mut lag_verdict = false;
    let summary = run_sweep(&cfg, &quick(), |case| {
        lag_verdict = case.report.member_events[1].iter().any(|e| {
            matches!(
                e,
                StTcpEvent::PeerDeclaredFailed {
                    reason: FailureReason::AppLagTime,
                    ..
                }
            )
        });
    });
    assert!(lag_verdict, "seed 24 no longer ends in an app-lag verdict");
    assert_eq!(summary.bound_checked, 1);
    assert!(summary.bound_violations.is_empty());
}

/// One sweep seed of `flavour` ends in a `reason` verdict whose
/// detection stays within the bound `--enforce-bounds` checks.
fn assert_verdict_within_bound(flavour: Flavour, quick: bool, seed: u64, reason: FailureReason) {
    let cfg = SweepConfig {
        seeds: 1,
        start: seed,
        quick,
        flavour,
        threads: 1,
    };
    let opts = match quick {
        true => ChaosOptions::quick(),
        false => ChaosOptions::default(),
    };
    let mut verdict = false;
    let summary = run_sweep(&cfg, &opts, |case| {
        verdict = (case.report.member_events.iter().flatten())
            .any(|e| matches!(e, StTcpEvent::PeerDeclaredFailed { reason: r, .. } if *r == reason));
    });
    assert!(
        verdict,
        "seed {seed} no longer ends in a {reason:?} verdict"
    );
    assert_eq!(summary.bound_checked, 1);
    assert!(
        summary.bound_violations.is_empty(),
        "seed {seed} exceeds its bound"
    );
}

/// The nightly `--seeds 2000 --double --enforce-bounds` soak was red on
/// seeds 1481 (`@7052 corrupt client 12; @7669 cut primary`) and 1563
/// (`@4163 corrupt client 11; @4985 cut backup`): the download is long
/// over, so the budget sits unspent on the idle client link until the
/// IP heartbeat dies and the gateway pings start, then eats the
/// survivor's own pings one per 200 ms. `net_ping_fail` rightly waits for
/// a ping of its own to succeed — 2 981 / 2 665 ms against a 2 400 ms
/// bound. The detector's clock now starts one ping interval per budgeted
/// frame after the fault.
#[test]
fn ping_bound_waits_out_a_client_corruption_budget_1481() {
    assert_verdict_within_bound(Flavour::Double, false, 1481, FailureReason::NetPingFail);
}

#[test]
fn ping_bound_waits_out_a_client_corruption_budget_1563() {
    assert_verdict_within_bound(Flavour::Double, false, 1563, FailureReason::NetPingFail);
}

/// Quick `--reintegrate` seed 1582 reboots the primary 315 ms after its
/// crash. Starved of stale-frame credit, row 1 fired 851.1 ms after the
/// reboot against an 850 ms bound; the demotion fires it on the next tick.
#[test]
fn a_reboot_before_detection_is_condemned_within_the_bound_1582() {
    let reason = FailureReason::HbBothLinksDown;
    assert_verdict_within_bound(Flavour::Reintegrate, true, 1582, reason);
}

/// Batched heartbeat envelopes (v3 multi-part frames) are a framing
/// optimisation, not a behaviour change. Same two contracts as the
/// delta sweep, over the same seeds of both topologies:
///
/// 1. A batch-mode sweep folds to a byte-identical metrics report at 1
///    and 4 threads.
/// 2. Every seed's [`semantic_verdict`] matches between batch-on (tiny
///    2-record parts, so multi-part rounds actually occur under chaos
///    load) and batch-off runs of the same schedule.
#[test]
fn batch_heartbeat_sweep_matches_single_frame_semantics() {
    let batch_opts = with_sttcp(StTcpConfig {
        hb_delta: true,
        hb_batch: 2,
        ..chaos_config()
    });
    // Contract 1: batch mode is deterministic and thread-invariant.
    for flavour in TOPOLOGIES {
        assert_thread_invariant(flavour, &batch_opts);
    }
    // Contract 2: per-seed verdict equivalence against single-frame mode.
    let changed = seeds_where_modes_differ(&delta_opts(), &batch_opts);
    assert!(
        changed.is_empty(),
        "batch framing changed the verdict: {changed:?}"
    );
}

/// The plain and double-fault sweeps obey [`assert_thread_invariant`].
#[test]
fn sweep_report_is_identical_across_thread_counts() {
    assert_thread_invariant(Flavour::Single, &quick());
    assert_thread_invariant(Flavour::Double, &quick());
}

/// Every flavour phases a takeover the same way: a full-profile sweep
/// folds only takeovers that ended the client's longest stall, each
/// phased from its taker's log, so every folded `takeover` phase is the
/// STONITH delay. Folding the pair's longest stall whatever ended it
/// reported a 9.8 ms gap between two paced writes as a failover, with
/// a 0.1 ms takeover phase.
#[test]
fn every_folded_takeover_phase_is_the_stonith_delay() {
    use obs::timeline::Phase;
    use sttcp::config::STONITH_DELAY;
    use sttcp_bench::hunt::takeover_phases;

    for flavour in [
        Flavour::Single,
        Flavour::Double,
        Flavour::Reintegrate,
        Flavour::Pool,
    ] {
        let cfg = SweepConfig {
            seeds: 100,
            start: 0,
            quick: false,
            flavour,
            threads: 2,
        };
        let mut phases = Vec::new();
        let summary = run_sweep(&cfg, &ChaosOptions::default(), |case| {
            phases.extend(takeover_phases(&case.report));
        });
        assert!(!phases.is_empty(), "{flavour:?}: no takeover folded");
        assert_eq!(summary.agg.failovers(), phases.len() as u64, "{flavour:?}");
        for (taker, b) in phases {
            let takeover = b.get(Phase::Takeover);
            assert_eq!(takeover, STONITH_DELAY, "{flavour:?}: taker {taker}");
        }
    }
}

/// `--enforce-bounds` holds every verdict to its bound: in the quick
/// reintegrate and pool sweeps, every verdict with a bound that any
/// member logged — a pair's second verdict and every pool verdict
/// included — is checked.
#[test]
fn every_bounded_verdict_is_checked() {
    use sttcp_bench::phases::detection_bound;

    let cfg = chaos_config();
    for flavour in [Flavour::Reintegrate, Flavour::Pool] {
        let sweep = SweepConfig {
            seeds: 64,
            start: 0,
            quick: true,
            flavour,
            threads: 2,
        };
        let mut bounded = 0;
        let summary = run_sweep(&sweep, &quick(), |case| {
            bounded += (case.report.member_events.iter().flatten())
                .filter(|e| match e {
                    StTcpEvent::PeerDeclaredFailed { reason, .. } => {
                        detection_bound(&cfg, *reason).is_some()
                    }
                    _ => false,
                })
                .count() as u64;
        });
        assert!(bounded > 0, "{flavour:?}: no bounded verdict");
        assert_eq!(summary.bound_checked, bounded, "{flavour:?}");
    }
}
