//! First-class invariant checking over chaos runs.
//!
//! A chaos run (see the `sttcp-apps` crate's `chaos` module) executes a
//! client workload against the pair or an N-replica pool while a fault
//! schedule fires. Afterwards [`check`] judges the run: it takes every
//! member's [`StTcpEvent`] log plus the client's transcript, and an
//! [`Expectation`] derived from the schedule (what *could* legitimately
//! have happened given the injected faults), and checks the properties
//! ST-TCP promises regardless of fault timing. One checker, stated once
//! for any number of members; what applies where:
//!
//! | invariant | pair | pool |
//! |---|---|---|
//! | `byte-stream-integrity` — the client never sees wrong bytes | ✓ | ✓ |
//! | `no-dual-active` — at most one member ends active | ✓ | ✓ |
//! | `no-headless-service` — at least one member ends active, unless the service may be lost | ✓ | ✓ |
//! | `stonith-precedes-takeover` — on the taker's own log | ✓ | ✓ |
//! | `quorum-fence-precedes-takeover` — ditto, a fence quorum | — | ✓ |
//! | `at-most-one-verdict` — verdicts, takeovers, STONITHs per server (two if the schedule reboots) | ✓ | — |
//! | `at-most-one-verdict` — one takeover per member, the pool within its budget | — | ✓ |
//! | `byzantine-liar-verdict` — the lying side never condemns | ✓ | — |
//! | `no-false-positive` — no verdict, no reset where none is justified | ✓ | ✓ |
//! | `no-silent-failure` / `unrecoverable-only-when-possible` | ✓ | ✓ |
//! | `bounded-stall` — the client's longest outage, when it finished | ✓ | ✓ |
//!
//! The protocol decides the one branch: an expectation that carries a
//! takeover budget ([`Expectation::max_takeovers`]) judges a rank-ordered
//! takeover chain, one without judges the pair's single failure epoch.
//!
//! The checker is deliberately *conservative*: the [`Expectation`] says
//! what is possible, not what must happen, so a legitimate-but-unlucky
//! run never reports a violation. Anything it does report is a real
//! protocol bug — the chaos harness then shrinks the schedule that
//! exposed it.

use core::fmt;

use simnet::time::{SimDuration, SimTime};

use crate::config::Role;
use crate::events::StTcpEvent;

/// What the invariant checker knows about one server after a run.
#[derive(Debug, Clone)]
pub struct ServerView {
    /// What the member is called in violation details (the pair's
    /// `primary` / `backup`, a pool's `rank<i>`).
    pub label: String,
    /// The server's protocol event log.
    pub events: Vec<StTcpEvent>,
    /// True if the server ended the run able to emit client-visible
    /// traffic (powered, acting primary: `StTcpServer::is_active`).
    pub active_at_end: bool,
}

/// What the invariant checker knows about the client after a run.
#[derive(Debug, Clone, Default)]
pub struct ClientView {
    /// Bytes verified correct against the expected stream.
    pub bytes_ok: u64,
    /// Bytes that contradicted the expected stream. Must be zero, always.
    pub integrity_violations: u64,
    /// Connection resets the client observed.
    pub resets: u64,
    /// True if the workload ran to its planned completion.
    pub finished: bool,
    /// The longest gap between consecutive client-visible progress
    /// events.
    pub longest_stall: SimDuration,
}

/// What the fault schedule makes legitimately possible. Derived from the
/// schedule alone (`sttcp-apps`: `FaultSchedule::expectation` for the
/// pair, `pool_expectation` for a pool) — conservative toward "possible".
#[derive(Debug, Clone)]
pub struct Expectation {
    /// Some fault could have made the service disappear (for example,
    /// every member crashed, or the survivor's client path was cut).
    /// When false, the client finishing is mandatory.
    pub service_may_be_lost: bool,
    /// Client bytes acked by the active may have been lost to every
    /// survivor forever (tap loss or corruption combined with an active
    /// crash): an [`StTcpEvent::UnrecoverableGap`] reset is legitimate.
    pub unrecoverable_gap_possible: bool,
    /// An application crash with RST cleanup was injected: the client
    /// may see an abortive close.
    pub abortive_close_possible: bool,
    /// Failure verdicts are legitimate (some injected fault could make a
    /// correct detector fire). When false — empty or tap-only-drop
    /// schedules — any verdict is a false positive.
    pub verdicts_possible: bool,
    /// Bound on [`ClientView::longest_stall`] when the run otherwise
    /// succeeds; `None` disables the check (schedules whose loss bursts
    /// can stall the client arbitrarily via RTO backoff).
    pub max_stall: Option<SimDuration>,
    /// Pair: the schedule reboots a crashed server, which rejoins. A
    /// server may then legitimately see *two* failure epochs — one before
    /// its crash or its peer's, one after redundancy is restored — so the
    /// at-most-one-verdict invariant widens to at most one per epoch.
    pub reboots: bool,
    /// Pair: the schedule armed byzantine heartbeat corruption on this
    /// (configured) side. The *honest* side may legitimately condemn the
    /// liar; the liar itself — whose inbound evidence is untouched — must
    /// never fire a verdict against its healthy peer.
    pub byzantine: Option<Role>,
    /// Pool: the most takeovers the whole pool may perform (one per
    /// active the schedule kills). `Some` makes the run a takeover chain:
    /// every takeover needs a fence quorum, and the pool's budget
    /// replaces the pair's per-server caps and liar rule.
    pub max_takeovers: Option<u32>,
}

/// Classification of a finished chaos run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// No fault observable by the client, no verdict fired.
    Clean,
    /// A failure was detected and masked; the client finished.
    Recovered,
    /// A failure was detected but could not be masked; the client was
    /// told explicitly (reset / unrecoverable-gap). Legitimate per the
    /// paper's output-commit caveat.
    DetectedUnrecoverable,
    /// The schedule destroyed all service (for example, both servers
    /// down) — the client could not finish, as expected.
    ServiceLost,
    /// An invariant was violated: a protocol bug.
    Violation,
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Outcome::Clean => "clean",
            Outcome::Recovered => "recovered",
            Outcome::DetectedUnrecoverable => "detected-unrecoverable",
            Outcome::ServiceLost => "service-lost",
            Outcome::Violation => "VIOLATION",
        };
        write!(f, "{s}")
    }
}

/// One violated invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Stable name of the invariant (e.g. `"no-dual-active"`).
    pub invariant: &'static str,
    /// Human-readable specifics.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.invariant, self.detail)
    }
}

/// The checker's verdict on a run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Overall classification.
    pub outcome: Outcome,
    /// Every violated invariant (empty unless `outcome` is
    /// [`Outcome::Violation`]).
    pub violations: Vec<Violation>,
}

impl Report {
    /// True when no invariant was violated.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

fn count_events(events: &[StTcpEvent], mut pred: impl FnMut(&StTcpEvent) -> bool) -> usize {
    events.iter().filter(|e| pred(e)).count()
}

fn first_time(events: &[StTcpEvent], mut pred: impl FnMut(&StTcpEvent) -> bool) -> Option<SimTime> {
    events.iter().find(|e| pred(e)).map(|e| e.at())
}

fn is_declared(e: &StTcpEvent) -> bool {
    matches!(e, StTcpEvent::PeerDeclaredFailed { .. })
}

fn is_stonith(e: &StTcpEvent) -> bool {
    matches!(e, StTcpEvent::StonithIssued { .. })
}

fn is_took_over(e: &StTcpEvent) -> bool {
    matches!(e, StTcpEvent::TookOver { .. })
}

fn is_quorum(e: &StTcpEvent) -> bool {
    matches!(e, StTcpEvent::FenceQuorumReached { .. })
}

/// A verdict acted on: a condemned peer, a takeover, or a primary gone
/// non-fault-tolerant.
fn is_verdict(e: &StTcpEvent) -> bool {
    is_declared(e) || is_took_over(e) || matches!(e, StTcpEvent::WentNonFt { .. })
}

/// Checks every invariant over one finished run.
///
/// `views` holds every member in configured order — the pair's primary
/// then backup, or a pool's ranks — whatever roles they ended the run in.
pub fn check(views: &[ServerView], client: &ClientView, exp: &Expectation) -> Report {
    let mut violations = Vec::new();
    let mut violate = |invariant, detail| violations.push(Violation { invariant, detail });

    // 1. Byte-stream integrity: unconditional. Corruption, loss, and
    // takeover may slow or reset the client but may never hand it wrong
    // bytes.
    if client.integrity_violations > 0 {
        violate(
            "byte-stream-integrity",
            format!(
                "client verified {} bytes but saw {} contradicting its expected stream",
                client.bytes_ok, client.integrity_violations
            ),
        );
    }

    // 2a. No dual-active, direct form.
    let actives = views.iter().filter(|v| v.active_at_end).count();
    if actives > 1 {
        let who = if actives == 2 {
            "both".into()
        } else {
            actives.to_string()
        };
        violate(
            "no-dual-active",
            format!("{who} servers ended the run active for the service IP"),
        );
    }

    // 2b. No headless service: where the schedule leaves the service
    // survivable, a client that finished early is not enough.
    if actives == 0 && !exp.service_may_be_lost {
        let detail = "no server ended the run active for the service IP".to_string();
        violate("no-headless-service", detail);
    }

    // 2c. No dual-active, causal form: the taker's own STONITH precedes
    // every takeover. A peer that was already down is no excuse: a
    // verdict logs STONITH before it arms the takeover timer, the only
    // path to `TookOver`, so a correct server never needs one.
    for v in views {
        let Some(took_at) = first_time(&v.events, is_took_over) else {
            continue;
        };
        let stonith_at = first_time(&v.events, is_stonith);
        if stonith_at.is_none_or(|t| t > took_at) {
            violate(
                "stonith-precedes-takeover",
                format!(
                    "{} took over at {took_at} without first issuing STONITH \
                     (stonith: {stonith_at:?})",
                    v.label
                ),
            );
        }
    }

    // 3. Bounded verdicts — where the protocols differ.
    if let Some(budget) = exp.max_takeovers {
        // A takeover chain: rank order and fencing are worthless if a
        // taker can skip the vote, each member takes over at most once,
        // and the pool at most once per active the schedule kills.
        let mut total = 0;
        for v in views {
            let takeovers = count_events(&v.events, is_took_over);
            total += takeovers;
            if let Some(took_at) = first_time(&v.events, is_took_over) {
                let quorum_at = first_time(&v.events, is_quorum);
                if quorum_at.is_none_or(|t| t > took_at) {
                    violate(
                        "quorum-fence-precedes-takeover",
                        format!(
                            "{} took over at {took_at} without first reaching a fence \
                             quorum (quorum: {quorum_at:?})",
                            v.label
                        ),
                    );
                }
            }
            if takeovers > 1 {
                violate(
                    "at-most-one-verdict",
                    format!("{} took over {takeovers} times in one incarnation", v.label),
                );
            }
        }
        if total > budget as usize {
            violate(
                "at-most-one-verdict",
                format!("{total} takeovers across the pool (schedule budget {budget})"),
            );
        }
    } else {
        // At most one failure verdict / takeover / STONITH per server —
        // per failure epoch. A schedule that reboots legitimately runs
        // two epochs (fail over, rejoin, fail over again), so each
        // counter may reach two; anything beyond is flapping.
        let cap = if exp.reboots { 2 } else { 1 };
        for v in views {
            for (what, n) in [
                ("peer-declared-failed", count_events(&v.events, is_declared)),
                ("took-over", count_events(&v.events, is_took_over)),
                ("stonith-issued", count_events(&v.events, is_stonith)),
            ] {
                if n > cap {
                    violate(
                        "at-most-one-verdict",
                        format!("{} logged {what} {n} times (cap {cap})", v.label),
                    );
                }
            }
        }

        // Byzantine containment: the server armed with corrupt outgoing
        // heartbeats keeps receiving the honest peer's truthful ones, so
        // it has no legitimate grounds to condemn anyone. Only the honest
        // side may fire the verdict that quarantines the liar.
        if let Some(liar_role) = exp.byzantine {
            let liar = &views[usize::from(liar_role == Role::Backup)];
            let n = count_events(&liar.events, is_declared);
            if n > 0 {
                violate(
                    "byzantine-liar-verdict",
                    format!(
                        "the lying {} declared its honest peer failed {n} time(s); \
                         its own inbound evidence never justified a verdict",
                        liar.label
                    ),
                );
            }
        }
    }

    // 4. False positives: with no verdict-provoking fault injected, no
    // verdict may fire and the client must finish untouched. A fence
    // quorum is a verdict too (only a pool ever logs one).
    if !exp.verdicts_possible {
        for v in views {
            let verdicts = count_events(&v.events, |e| {
                is_verdict(e) || is_stonith(e) || is_quorum(e)
            });
            if verdicts > 0 {
                violate(
                    "no-false-positive",
                    format!(
                        "{} fired {verdicts} verdict event(s) though the schedule \
                         injected nothing a correct detector reacts to",
                        v.label
                    ),
                );
            }
        }
        if client.resets > 0 {
            violate(
                "no-false-positive",
                format!(
                    "client saw {} reset(s) under a verdict-free schedule",
                    client.resets
                ),
            );
        }
    }

    // 5. Unrecoverable ⇒ explicitly detected, never silent. If service
    // was expected to survive and the client did not finish, someone
    // must have said so out loud.
    let events = || views.iter().flat_map(|v| v.events.iter());
    let any_unrecoverable = events().any(|e| matches!(e, StTcpEvent::UnrecoverableGap { .. }));
    if !exp.service_may_be_lost && !client.finished {
        if client.resets == 0 && !any_unrecoverable {
            violate(
                "no-silent-failure",
                "service was expected to survive, yet the client neither finished \
                 nor was reset — it was left hanging silently"
                    .to_string(),
            );
        } else if !exp.unrecoverable_gap_possible && !exp.abortive_close_possible {
            violate(
                "unrecoverable-only-when-possible",
                "client was reset although the schedule permits no data-loss or \
                 abortive-close path"
                    .to_string(),
            );
        }
    }

    // 6. Bounded post-detection stall, only for runs that completed.
    if let Some(bound) = exp.max_stall {
        if client.finished && client.longest_stall > bound {
            violate(
                "bounded-stall",
                format!("client stalled {} (bound {})", client.longest_stall, bound),
            );
        }
    }

    let any_verdict = events().any(is_verdict);
    let outcome = if !violations.is_empty() {
        Outcome::Violation
    } else if any_unrecoverable || (!client.finished && client.resets > 0) {
        Outcome::DetectedUnrecoverable
    } else if !client.finished {
        Outcome::ServiceLost
    } else if any_verdict {
        Outcome::Recovered
    } else {
        Outcome::Clean
    };

    Report {
        outcome,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{FailureReason, HbLink};

    const PAIR: bool = false;
    const POOL: bool = true;

    fn at(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }
    fn declared(ms: u64) -> StTcpEvent {
        let reason = FailureReason::HbBothLinksDown;
        StTcpEvent::PeerDeclaredFailed { reason, at: at(ms) }
    }
    fn stonith(ms: u64) -> StTcpEvent {
        StTcpEvent::StonithIssued { at: at(ms) }
    }
    fn took(ms: u64) -> StTcpEvent {
        StTcpEvent::TookOver { at: at(ms) }
    }
    fn went_non_ft(ms: u64) -> StTcpEvent {
        let reason = FailureReason::HbBothLinksDown;
        StTcpEvent::WentNonFt { reason, at: at(ms) }
    }
    fn quorum(ms: u64) -> StTcpEvent {
        let (target_rank, votes) = (0, 2);
        StTcpEvent::FenceQuorumReached {
            target_rank,
            votes,
            at: at(ms),
        }
    }

    /// The synthetic run every test starts from: the pair or a
    /// three-member pool, member 0 active and silent, the client finished
    /// after a 120 ms stall, under an expectation that permits verdicts
    /// (and, in a pool, two takeovers).
    struct Run {
        views: Vec<ServerView>,
        client: ClientView,
        exp: Expectation,
    }

    fn run(pool: bool) -> Run {
        let label = |i| match (pool, i) {
            (PAIR, 0) => "primary".to_string(),
            (PAIR, _) => "backup".to_string(),
            (POOL, i) => format!("rank{i}"),
        };
        Run {
            views: (0..if pool { 3 } else { 2 })
                .map(|i| ServerView {
                    label: label(i),
                    events: Vec::new(),
                    active_at_end: i == 0,
                })
                .collect(),
            client: ClientView {
                finished: true,
                longest_stall: SimDuration::from_millis(120),
                ..ClientView::default()
            },
            exp: Expectation {
                service_may_be_lost: false,
                unrecoverable_gap_possible: false,
                abortive_close_possible: false,
                verdicts_possible: true,
                max_stall: Some(SimDuration::from_secs(5)),
                reboots: false,
                byzantine: None,
                max_takeovers: pool.then_some(2),
            },
        }
    }

    impl Run {
        /// Member `i` condemns the active and takes over the way its
        /// protocol does: after STONITH, and in a pool after a quorum.
        fn take_over(&mut self, i: usize, ms: u64) -> &mut Run {
            if self.exp.max_takeovers.is_some() {
                self.views[i].events.push(quorum(ms));
            }
            (self.views[i].events).extend([declared(ms), stonith(ms), took(ms + 20)]);
            for (j, v) in self.views.iter_mut().enumerate() {
                v.active_at_end = j == i;
            }
            self
        }

        fn judge(&self) -> Report {
            check(&self.views, &self.client, &self.exp)
        }

        /// The distinct invariants the run violates, in report order.
        fn violated(&self) -> Vec<&'static str> {
            let report = self.judge();
            let mut names: Vec<_> = report.violations.iter().map(|v| v.invariant).collect();
            names.dedup();
            names
        }
    }

    // ----- the table: every invariant × {pair, pool of 3} -----

    /// One invariant: `build(run, true)` breaks it on the fixture,
    /// `build(run, false)` builds its legitimate near miss, which must be
    /// judged `near_miss` without a violation. `pair` / `pool` say where
    /// the invariant applies; the other column is not applicable.
    struct Row {
        invariant: &'static str,
        pair: bool,
        pool: bool,
        near_miss: Outcome,
        build: fn(&mut Run, bool),
    }

    const TABLE: &[Row] = &[
        Row {
            invariant: "byte-stream-integrity",
            pair: true,
            pool: true,
            near_miss: Outcome::Clean,
            build: |r, bad| r.client.integrity_violations = if bad { 3 } else { 0 },
        },
        Row {
            invariant: "no-dual-active",
            pair: true,
            pool: true,
            near_miss: Outcome::Recovered,
            build: |r, bad| r.take_over(1, 1_000).views[0].active_at_end = bad,
        },
        Row {
            // The client finished, but nobody is left serving.
            invariant: "no-headless-service",
            pair: true,
            pool: true,
            near_miss: Outcome::Recovered,
            build: |r, bad| r.take_over(1, 1_000).views[1].active_at_end = !bad,
        },
        Row {
            invariant: "stonith-precedes-takeover",
            pair: true,
            pool: true,
            near_miss: Outcome::Recovered,
            build: |r, bad| {
                let events = &mut r.take_over(1, 1_000).views[1].events;
                events.retain(|e| !bad || !matches!(e, StTcpEvent::StonithIssued { .. }));
            },
        },
        Row {
            // A second takeover by the same member.
            invariant: "at-most-one-verdict",
            pair: true,
            pool: true,
            near_miss: Outcome::Recovered,
            build: |r, bad| {
                let events = &mut r.take_over(1, 1_000).views[1].events;
                events.extend(bad.then(|| took(2_000)));
            },
        },
        Row {
            // Re-integration runs two failure epochs; a third verdict is
            // flapping.
            invariant: "at-most-one-verdict",
            pair: true,
            pool: false,
            near_miss: Outcome::Recovered,
            build: |r, bad| {
                r.exp.reboots = true;
                let events = &mut r.take_over(1, 1_000).views[1].events;
                events.extend([declared(6_000), stonith(6_000)]);
                events.extend(bad.then(|| declared(9_000)));
            },
        },
        Row {
            // A takeover chain longer than the schedule's budget.
            invariant: "at-most-one-verdict",
            pair: false,
            pool: true,
            near_miss: Outcome::Recovered,
            build: |r, bad| {
                r.take_over(1, 1_000).take_over(2, 4_000);
                r.exp.max_takeovers = Some(if bad { 1 } else { 2 });
            },
        },
        Row {
            invariant: "byzantine-liar-verdict",
            pair: true,
            pool: false,
            near_miss: Outcome::Recovered,
            build: |r, bad| {
                r.exp.byzantine = Some(Role::Primary);
                if bad {
                    r.views[0].events.push(declared(700));
                } else {
                    r.take_over(1, 1_000);
                }
            },
        },
        Row {
            invariant: "quorum-fence-precedes-takeover",
            pair: false,
            pool: true,
            near_miss: Outcome::Recovered,
            build: |r, bad| {
                let events = &mut r.take_over(1, 1_000).views[1].events;
                events.retain(|e| !bad || !matches!(e, StTcpEvent::FenceQuorumReached { .. }));
            },
        },
        Row {
            invariant: "no-false-positive",
            pair: true,
            pool: true,
            near_miss: Outcome::Clean,
            build: |r, bad| {
                r.exp.verdicts_possible = false;
                let link = HbLink::Ip;
                r.views[0].events = vec![StTcpEvent::HbLinkDown { link, at: at(400) }];
                r.views[1].events.extend(bad.then(|| went_non_ft(650)));
            },
        },
        Row {
            invariant: "no-silent-failure",
            pair: true,
            pool: true,
            near_miss: Outcome::ServiceLost,
            build: |r, bad| {
                r.client.finished = false;
                r.exp.service_may_be_lost = !bad;
            },
        },
        Row {
            invariant: "unrecoverable-only-when-possible",
            pair: true,
            pool: true,
            near_miss: Outcome::DetectedUnrecoverable,
            build: |r, bad| {
                (r.client.finished, r.client.resets) = (false, 1);
                r.exp.unrecoverable_gap_possible = !bad;
            },
        },
        Row {
            invariant: "bounded-stall",
            pair: true,
            pool: true,
            near_miss: Outcome::Clean,
            build: |r, bad| {
                r.client.longest_stall = SimDuration::from_secs(30);
                r.exp.max_stall = r.exp.max_stall.filter(|_| bad);
            },
        },
    ];

    #[test]
    fn every_invariant_breaks_and_holds_in_pair_and_pool() {
        for (i, row) in TABLE.iter().enumerate() {
            for pool in [PAIR, POOL]
                .into_iter()
                .filter(|&p| [row.pair, row.pool][p as usize])
            {
                for bad in [true, false] {
                    let mut r = run(pool);
                    (row.build)(&mut r, bad);
                    let want = match bad {
                        true => (vec![row.invariant], Outcome::Violation),
                        false => (vec![], row.near_miss),
                    };
                    assert_eq!(
                        (r.violated(), r.judge().outcome),
                        want,
                        "row {i} ({}), pool: {pool}, bad: {bad}",
                        row.invariant
                    );
                }
            }
        }
    }

    // ----- single scenarios, and the detail strings -----

    #[test]
    fn clean_run_is_clean() {
        for pool in [PAIR, POOL] {
            let mut r = run(pool);
            r.exp.verdicts_possible = false;
            let report = r.judge();
            assert!(report.ok(), "violations: {:?}", report.violations);
            assert_eq!(report.outcome, Outcome::Clean);
        }
    }

    #[test]
    fn integrity_violation_always_fires() {
        // Even where the schedule may legitimately lose the service.
        let mut r = run(PAIR);
        r.client.integrity_violations = 3;
        r.exp.service_may_be_lost = true;
        assert_eq!(r.violated(), ["byte-stream-integrity"]);
    }

    #[test]
    fn dual_active_detected() {
        let mut r = run(PAIR);
        r.views[1].active_at_end = true;
        assert_eq!(
            r.judge().violations[0].detail,
            "both servers ended the run active for the service IP"
        );
        let mut r = run(POOL);
        r.views.iter_mut().for_each(|v| v.active_at_end = true);
        assert_eq!(
            r.judge().violations[0].detail,
            "3 servers ended the run active for the service IP"
        );
    }

    #[test]
    fn takeover_without_stonith_or_dead_peer_is_violation() {
        let mut r = run(PAIR);
        r.views[1].events = vec![declared(700), took(720)];
        assert_eq!(r.violated(), ["stonith-precedes-takeover"]);
        assert_eq!(
            r.judge().violations[0].detail,
            "backup took over at 0.720000s without first issuing STONITH (stonith: None)"
        );
    }

    #[test]
    fn proper_takeover_with_stonith_is_recovered() {
        let mut r = run(PAIR);
        r.take_over(1, 1_100);
        let report = r.judge();
        assert!(report.ok(), "violations: {:?}", report.violations);
        assert_eq!(report.outcome, Outcome::Recovered);
    }

    #[test]
    fn double_verdict_is_violation() {
        let mut r = run(PAIR);
        r.views[0].events = vec![declared(100), declared(200)];
        assert_eq!(
            r.judge().violations[0].detail,
            "primary logged peer-declared-failed 2 times (cap 1)"
        );
    }

    #[test]
    fn reintegration_widens_verdict_cap_to_two_epochs() {
        let mut r = run(PAIR);
        let rejoined = StTcpEvent::ReintegrationCompleted { at: at(3_000) };
        let events = &mut r.take_over(1, 1_100).views[1].events;
        events.extend([rejoined, declared(6_100), stonith(6_120)]);

        // Two epochs of verdicts under a plain crash expectation: flapping.
        assert_eq!(r.violated(), ["at-most-one-verdict"]);

        // The same log under a schedule that reboots is legitimate.
        r.exp.reboots = true;
        let report = r.judge();
        assert!(report.ok(), "violations: {:?}", report.violations);
        assert_eq!(report.outcome, Outcome::Recovered);

        // A third verdict is flapping even with a reboot.
        r.views[1].events.push(declared(9_000));
        assert_eq!(r.violated(), ["at-most-one-verdict"]);
    }

    #[test]
    fn false_positive_detected_on_benign_schedule() {
        let mut r = run(PAIR);
        r.views[0].events = vec![went_non_ft(650)];
        // Under a crashy schedule the same events are fine.
        assert_eq!(r.judge().outcome, Outcome::Recovered);
        r.exp.verdicts_possible = false;
        assert_eq!(
            r.judge().violations[0].detail,
            "primary fired 1 verdict event(s) though the schedule injected nothing a \
             correct detector reacts to"
        );
    }

    #[test]
    fn silent_hang_is_violation_but_announced_reset_is_not() {
        let mut r = run(PAIR);
        r.client.finished = false;
        assert_eq!(r.violated(), ["no-silent-failure"]);

        // Announced via UnrecoverableGap on the backup: legitimate if the
        // schedule makes a gap possible.
        r.exp.unrecoverable_gap_possible = true;
        r.client.resets = 1;
        let (conn, missing_from) = (1, 4_096);
        let gap = StTcpEvent::UnrecoverableGap {
            conn,
            missing_from,
            at: at(800),
        };
        r.views[1].events.push(gap);
        let report = r.judge();
        assert!(report.ok(), "violations: {:?}", report.violations);
        assert_eq!(report.outcome, Outcome::DetectedUnrecoverable);
    }

    #[test]
    fn reset_without_any_loss_path_is_violation() {
        let mut r = run(PAIR);
        (r.client.finished, r.client.resets) = (false, 1);
        assert_eq!(r.violated(), ["unrecoverable-only-when-possible"]);
        // An injected RST cleanup is the other legitimate path.
        r.exp.abortive_close_possible = true;
        assert_eq!(r.judge().outcome, Outcome::DetectedUnrecoverable);
    }

    #[test]
    fn service_lost_when_expected() {
        let mut r = run(PAIR);
        (r.client.finished, r.exp.service_may_be_lost) = (false, true);
        r.views[0].active_at_end = false;
        let report = r.judge();
        assert!(report.ok(), "violations: {:?}", report.violations);
        assert_eq!(report.outcome, Outcome::ServiceLost);
    }

    #[test]
    fn stall_bound_enforced_only_when_finished() {
        let mut r = run(PAIR);
        r.client.longest_stall = SimDuration::from_secs(30);
        assert_eq!(r.violated(), ["bounded-stall"]);
        (r.client.finished, r.exp.service_may_be_lost) = (false, true);
        assert!(r.judge().ok());
    }

    #[test]
    fn hb_link_events_alone_are_not_verdicts() {
        let mut r = run(PAIR);
        r.exp.verdicts_possible = false;
        let link = HbLink::Ip;
        r.views[0].events = vec![
            StTcpEvent::HbLinkDown { link, at: at(400) },
            StTcpEvent::HbLinkUp { link, at: at(900) },
        ];
        let report = r.judge();
        assert!(report.ok(), "violations: {:?}", report.violations);
        assert_eq!(report.outcome, Outcome::Clean);
    }

    #[test]
    fn byzantine_liar_must_not_fire_verdicts() {
        // The honest backup condemns the lying primary: legitimate.
        let mut r = run(PAIR);
        r.exp.byzantine = Some(Role::Primary);
        let rejected = StTcpEvent::ByzantineHbRejected { at: at(400) };
        r.views[1].events.push(rejected);
        r.take_over(1, 1_000);
        let report = r.judge();
        assert!(report.ok(), "violations: {:?}", report.violations);

        // The liar condemning its honest peer is the bug this invariant
        // exists for.
        let mut r = run(PAIR);
        r.exp.byzantine = Some(Role::Primary);
        r.views[0].events = vec![declared(700)];
        assert_eq!(
            r.judge().violations[0].detail,
            "the lying primary declared its honest peer failed 1 time(s); its own inbound \
             evidence never justified a verdict"
        );
    }

    #[test]
    fn pool_takeover_without_quorum_is_violation() {
        let mut r = run(POOL);
        r.views[1].events = vec![stonith(1_100), took(1_200)];
        (r.views[0].active_at_end, r.views[1].active_at_end) = (false, true);
        assert_eq!(r.violated(), ["quorum-fence-precedes-takeover"]);
        assert_eq!(
            r.judge().violations[0].detail,
            "rank1 took over at 1.200000s without first reaching a fence quorum (quorum: None)"
        );
    }

    #[test]
    fn pool_quorum_checked_takeover_is_recovered() {
        let mut r = run(POOL);
        let (target_rank, epoch, rank) = (0, 1, 0);
        let requested = StTcpEvent::FenceRequested {
            target_rank,
            epoch,
            at: at(900),
        };
        r.views[1].events.push(requested);
        r.take_over(1, 1_000);
        r.views[2].events = vec![StTcpEvent::PoolMemberFenced {
            rank,
            at: at(1_001),
        }];
        let report = r.judge();
        assert!(report.ok(), "violations: {:?}", report.violations);
        assert_eq!(report.outcome, Outcome::Recovered);
    }

    #[test]
    fn pool_dual_active_and_takeover_budget_enforced() {
        let mut r = run(POOL);
        r.take_over(0, 1_000)
            .take_over(1, 2_000)
            .take_over(2, 3_000);
        r.views.iter_mut().for_each(|v| v.active_at_end = true);
        assert_eq!(r.violated(), ["no-dual-active", "at-most-one-verdict"]);
        assert_eq!(
            r.judge().violations[1].detail,
            "3 takeovers across the pool (schedule budget 2)"
        );
    }

    #[test]
    fn pool_false_positive_on_quiet_schedule() {
        // A fence quorum is a verdict in either protocol's log.
        for pool in [PAIR, POOL] {
            let mut r = run(pool);
            r.exp.verdicts_possible = false;
            r.views[1].events.push(quorum(800));
            assert_eq!(r.violated(), ["no-false-positive"]);
        }
    }
}
