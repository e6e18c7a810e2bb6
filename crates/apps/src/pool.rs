//! The N-replica standby pool's fault envelope: what a schedule makes
//! legitimate when one active plus K ≥ 2 tapping backups share pairwise
//! serial heartbeat links, rank-ordered takeover with quorum-checked
//! fencing, and continuous re-integration.
//!
//! The pool has no harness and no judge of its own.
//! [`ScenarioBuilder::pool`] wires it, [`FaultSchedule::apply`] injects
//! into it (`Side::Primary` addresses the rank-0 member and
//! `Side::Backup` the rank-1 member, so the stock generators kill the
//! takeover chain in order while deeper members supply quorum),
//! [`run_chaos_case`] runs it under [`Topology::Pool`] and
//! [`sttcp::invariant::check`] judges it — the pair's builder, applier,
//! runner and checker, with the pair as their two-member case. What
//! differs is protocol, and this is the part of it the harness owns:
//! [`pool_expectation`], whose takeover budget makes the checker judge a
//! quorum-fenced takeover chain instead of the pair's one failure epoch.
//!
//! [`ScenarioBuilder::pool`]: crate::scenario::ScenarioBuilder::pool
//! [`run_chaos_case`]: crate::chaos::run_chaos_case
//! [`Topology::Pool`]: crate::scenario::Topology::Pool

use simnet::time::SimDuration;

use sttcp::invariant::Expectation;

use crate::chaos::{ChaosAction, FaultSchedule};

/// Derives the [`Expectation`] a schedule makes legitimate in a
/// three-member pool. Conservative in the same sense as
/// [`FaultSchedule::expectation`]: the strict envelope is only claimed
/// for the crash/reboot (and pure-byzantine) shapes the pool generators
/// emit; anything more exotic widens the envelope rather than risking a
/// false violation.
pub fn pool_expectation(schedule: &FaultSchedule) -> Expectation {
    use ChaosAction::*;

    let crashes: Vec<u64> = schedule
        .actions
        .iter()
        .filter(|a| matches!(a.action, Crash(_)))
        .map(|a| a.at_ms)
        .collect();

    // A takeover chain needs the previous fence to complete before the
    // next active dies: with crashes packed tighter than detection +
    // fence + STONITH, the last survivor can end up a minority that is
    // (correctly) unable to assemble a quorum — blocked, not split.
    let crashes_packed = crashes
        .windows(2)
        .any(|w| w[1].saturating_sub(w[0]) < 2_000);

    let pure_byzantine = !schedule.actions.is_empty()
        && schedule
            .actions
            .iter()
            .all(|a| matches!(a.action, ByzantineHb(..)));

    // Beyond crash/reboot/byzantine the pool envelope is not modeled
    // precisely; widen it instead of guessing.
    let exotic = schedule
        .actions
        .iter()
        .any(|a| !matches!(a.action, Crash(_) | Reboot(_) | ByzantineHb(..)));

    Expectation {
        service_may_be_lost: crashes_packed || exotic,
        unrecoverable_gap_possible: exotic,
        abortive_close_possible: false,
        verdicts_possible: !schedule.actions.is_empty(),
        max_stall: if exotic {
            None
        } else {
            Some(SimDuration::from_secs(15))
        },
        // The takeover budget stands in for the pair's per-epoch caps and
        // liar rule.
        reboots: false,
        byzantine: None,
        // One takeover per crash, plus one for a byzantine active that
        // gets condemned and fenced by the honest majority.
        max_takeovers: Some(crashes.len() as u32 + u32::from(pure_byzantine)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{run_chaos_case, ChaosOptions, Side};
    use crate::scenario::Topology;
    use sttcp::events::StTcpEvent;
    use sttcp::invariant::Outcome;

    const POOL: Topology = Topology::Pool(3);

    #[test]
    fn pool_schedules_are_coherent() {
        let a = FaultSchedule::generate_pool(3);
        assert_eq!(a, FaultSchedule::generate_pool(3));
        for seed in 0..100 {
            let s = FaultSchedule::generate_pool(seed);
            let crashes: Vec<&crate::chaos::TimedAction> = s
                .actions
                .iter()
                .filter(|t| matches!(t.action, ChaosAction::Crash(_)))
                .collect();
            assert_eq!(crashes.len(), 2, "seed {seed}: {s}");
            assert_eq!(crashes[0].action, ChaosAction::Crash(Side::Primary));
            assert_eq!(crashes[1].action, ChaosAction::Crash(Side::Backup));
            assert!(
                crashes[1].at_ms >= crashes[0].at_ms + 2_500,
                "seed {seed}: second kill must wait for the first fence: {s}"
            );
            let reparsed: FaultSchedule = s.to_string().parse().unwrap();
            assert_eq!(reparsed, s, "seed {seed}");
            let exp = pool_expectation(&s);
            assert!(!exp.service_may_be_lost, "seed {seed}: {s}");
            assert_eq!(exp.max_takeovers, Some(2));
            assert!(exp.verdicts_possible);
        }
    }

    #[test]
    fn pool_expectation_widens_for_packed_or_exotic_schedules() {
        let packed: FaultSchedule = "@500 crash primary; @900 crash backup".parse().unwrap();
        let e = pool_expectation(&packed);
        assert!(e.service_may_be_lost, "minority survivor may block");

        let exotic: FaultSchedule = "@500 crash primary; @600 loss client 30; @900 loss-end client"
            .parse()
            .unwrap();
        let e = pool_expectation(&exotic);
        assert!(e.service_may_be_lost);
        assert!(e.max_stall.is_none());

        let byz: FaultSchedule = "@500 byz-hb primary regress".parse().unwrap();
        let e = pool_expectation(&byz);
        assert!(!e.service_may_be_lost);
        assert_eq!(e.max_takeovers, Some(1));

        let quiet = FaultSchedule::default();
        assert!(!pool_expectation(&quiet).verdicts_possible);
    }

    #[test]
    fn quiet_pool_run_is_clean_and_silent() {
        let schedule = FaultSchedule::default();
        let report = run_chaos_case(POOL, 11, &schedule, &ChaosOptions::quick());
        assert_eq!(report.outcome, Outcome::Clean, "{:?}", report.violations);
        assert!(report.client.finished);
        assert_eq!(report.takeovers(), 0);
        assert_eq!(report.active_at_end, Some(0));
        assert_eq!(report.final_ranks, vec![0, 1, 2]);
    }

    #[test]
    fn active_kill_fails_over_by_rank_with_quorum_fence() {
        let schedule: FaultSchedule = "@800 crash primary".parse().unwrap();
        let report = run_chaos_case(POOL, 7, &schedule, &ChaosOptions::quick());
        assert_eq!(
            report.outcome,
            Outcome::Recovered,
            "{:?}",
            report.violations
        );
        assert!(report.client.finished);
        assert_eq!(report.takeovers(), 1);
        // The lowest-rank live backup, not the deeper one, takes over.
        assert_eq!(report.active_at_end, Some(1));
        let rank1 = &report.member_events[1];
        let quorum = rank1
            .iter()
            .find_map(|e| match e {
                StTcpEvent::FenceQuorumReached { votes, at, .. } => Some((*votes, *at)),
                _ => None,
            })
            .expect("taker must reach a fence quorum");
        // Both survivors vote: the candidate plus the rank-2 witness.
        assert_eq!(quorum.0, 2);
        let took = rank1
            .iter()
            .find_map(|e| match e {
                StTcpEvent::TookOver { at } => Some(*at),
                _ => None,
            })
            .unwrap();
        assert!(quorum.1 <= took);
    }

    #[test]
    fn sequential_kills_exhaust_to_deepest_backup() {
        let schedule: FaultSchedule = "@800 crash primary; @4500 crash backup".parse().unwrap();
        let report = run_chaos_case(POOL, 19, &schedule, &ChaosOptions::default());
        assert_eq!(
            report.outcome,
            Outcome::Recovered,
            "{:?}",
            report.violations
        );
        assert!(report.client.finished);
        assert_eq!(report.takeovers(), 2);
        assert_eq!(report.active_at_end, Some(2));
    }

    #[test]
    fn rebooted_member_rejoins_with_fresh_rank() {
        let schedule: FaultSchedule = "@800 crash primary; @1500 reboot primary".parse().unwrap();
        let report = run_chaos_case(POOL, 23, &schedule, &ChaosOptions::default());
        assert_eq!(
            report.outcome,
            Outcome::Recovered,
            "{:?}",
            report.violations
        );
        assert!(report.client.finished);
        // The ex-active rejoined under a rank behind every configured one.
        assert!(
            report.final_ranks[0] >= 3,
            "rejoiner kept rank {} instead of moving to the back",
            report.final_ranks[0]
        );
        assert!(report.member_events[0]
            .iter()
            .any(|e| matches!(e, StTcpEvent::ReintegrationCompleted { .. })));
    }

    #[test]
    fn pool_case_is_deterministic() {
        let schedule = FaultSchedule::generate_pool(5);
        let a = run_chaos_case(POOL, 5, &schedule, &ChaosOptions::quick());
        let b = run_chaos_case(POOL, 5, &schedule, &ChaosOptions::quick());
        assert_eq!(a.fingerprint(), b.fingerprint());
    }
}
