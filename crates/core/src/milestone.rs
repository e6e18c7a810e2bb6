//! Protocol milestone extraction from the event log.
//!
//! A *milestone* is a timestamped point in a fault-free run where the
//! protocol changes phase: the connection reaching ESTABLISHED (which on
//! the backup doubles as the ISN-match proof), the first data byte
//! reaching the replica application, the hold buffer arming, each
//! heartbeat round, FIN interception and release. The bounded-exhaustive
//! explorer (`sttcp_apps::explore`) anchors its fault-timing lattice to
//! these points instead of sampling timestamps at random, so a bug that
//! only fires in the narrow window *between* two protocol events cannot
//! hide between sampled seeds.
//!
//! Heartbeat rounds are synthesized arithmetically from the configured
//! period rather than read from the log — the log records link
//! transitions, not every healthy round, and the lattice wants anchors
//! *on* the healthy cadence. So is each round's liveness deadline, one
//! `hb_timeout` later: the instant its silence would become a verdict
//! (`crate::linkmon`), which a crash, a link repair or a late heartbeat
//! must be tried on both sides of.

use core::fmt;

use simnet::time::SimTime;

use crate::config::StTcpConfig;
use crate::events::StTcpEvent;

/// What kind of protocol phase boundary a milestone marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MilestoneKind {
    /// The connection reached ESTABLISHED (SYN exchange done). On the
    /// backup this also proves the synchronized ISN matched the tapped
    /// handshake.
    Established,
    /// First client data byte delivered to the replica application.
    FirstData,
    /// The extended receive (hold) buffer was armed.
    HoldArmed,
    /// The n-th heartbeat round (1-based), synthesized at `n × hb_period`.
    HbRound(u32),
    /// The liveness deadline of the n-th heartbeat round: the last
    /// instant a successor may arrive, synthesized at `HbRound(n)` +
    /// `hb_timeout`.
    LivenessDeadline(u32),
    /// A locally generated FIN/RST entered arbitration hold.
    FinHeld,
    /// A held FIN/RST was released.
    FinReleased,
    /// A failure verdict was reached against the peer.
    PeerDeclaredFailed,
    /// STONITH was issued.
    StonithIssued,
    /// A backup completed takeover of the client connections.
    TookOver,
    /// Missed-byte recovery was requested.
    RecoveryRequested,
    /// Missed-byte recovery completed.
    RecoveryCompleted,
    /// Re-integration of a rebooted node started.
    ReintegrationStarted,
    /// Re-integration completed; the pair is fault-tolerant again.
    ReintegrationCompleted,
}

impl MilestoneKind {
    /// A short stable identifier (coverage-report keys, CLI output).
    pub fn key(self) -> &'static str {
        match self {
            MilestoneKind::Established => "established",
            MilestoneKind::FirstData => "first_data",
            MilestoneKind::HoldArmed => "hold_armed",
            MilestoneKind::HbRound(_) => "hb_round",
            MilestoneKind::LivenessDeadline(_) => "liveness_deadline",
            MilestoneKind::FinHeld => "fin_held",
            MilestoneKind::FinReleased => "fin_released",
            MilestoneKind::PeerDeclaredFailed => "peer_declared_failed",
            MilestoneKind::StonithIssued => "stonith_issued",
            MilestoneKind::TookOver => "took_over",
            MilestoneKind::RecoveryRequested => "recovery_requested",
            MilestoneKind::RecoveryCompleted => "recovery_completed",
            MilestoneKind::ReintegrationStarted => "reintegration_started",
            MilestoneKind::ReintegrationCompleted => "reintegration_completed",
        }
    }
}

impl fmt::Display for MilestoneKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MilestoneKind::HbRound(n) => write!(f, "hb_round_{n}"),
            MilestoneKind::LivenessDeadline(n) => write!(f, "liveness_deadline_{n}"),
            other => write!(f, "{}", other.key()),
        }
    }
}

/// A timestamped protocol phase boundary harvested from a fault-free run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Milestone {
    /// What phase boundary this is.
    pub kind: MilestoneKind,
    /// When it happened in the fault-free trace.
    pub at: SimTime,
}

/// How many heartbeat rounds to synthesize beyond the last observed
/// event — faults just after the final protocol event (e.g. between the
/// FIN release and the next heartbeat) are exactly the boundary windows
/// the explorer exists to cover.
const HB_ROUNDS_PAST_LAST_EVENT: u64 = 2;

/// Hard cap on synthesized heartbeat rounds, so a long trace cannot blow
/// the lattice up quadratically.
const MAX_HB_ROUNDS: u32 = 16;

/// Extracts the milestone list from the two servers' event logs.
///
/// Events from both logs are merged (the backup's `Established` is the
/// ISN-match proof; the primary's is the accept), deduplicated by
/// `(kind, at)`, and returned sorted by time with a stable kind order
/// breaking ties — the result is a pure function of the logs, so the
/// explorer's lattice is deterministic.
pub fn harvest(primary: &[StTcpEvent], backup: &[StTcpEvent], cfg: &StTcpConfig) -> Vec<Milestone> {
    let mut out: Vec<Milestone> = Vec::new();
    let mut last_event = SimTime::ZERO;
    let any_event = !primary.is_empty() || !backup.is_empty();
    for ev in primary.iter().chain(backup.iter()) {
        let kind = match ev {
            StTcpEvent::ConnEstablished { .. } => Some(MilestoneKind::Established),
            StTcpEvent::FirstDataDelivered { .. } => Some(MilestoneKind::FirstData),
            StTcpEvent::HoldArmed { .. } => Some(MilestoneKind::HoldArmed),
            StTcpEvent::FinHeld { .. } => Some(MilestoneKind::FinHeld),
            StTcpEvent::FinReleased { .. } => Some(MilestoneKind::FinReleased),
            StTcpEvent::PeerDeclaredFailed { .. } => Some(MilestoneKind::PeerDeclaredFailed),
            StTcpEvent::StonithIssued { .. } => Some(MilestoneKind::StonithIssued),
            StTcpEvent::TookOver { .. } => Some(MilestoneKind::TookOver),
            StTcpEvent::RecoveryRequested { .. } => Some(MilestoneKind::RecoveryRequested),
            StTcpEvent::RecoveryCompleted { .. } => Some(MilestoneKind::RecoveryCompleted),
            StTcpEvent::ReintegrationStarted { .. } => Some(MilestoneKind::ReintegrationStarted),
            StTcpEvent::ReintegrationCompleted { .. } => {
                Some(MilestoneKind::ReintegrationCompleted)
            }
            _ => None,
        };
        last_event = last_event.max(ev.at());
        if let Some(kind) = kind {
            out.push(Milestone { kind, at: ev.at() });
        }
    }

    // Healthy heartbeat cadence, spanning a little past the last protocol
    // event so "just after the end" windows exist in the lattice, and each
    // round's liveness deadline. An empty trace (no run at all) yields no
    // anchors.
    if !any_event {
        return out;
    }
    let period = cfg.hb_period.as_millis().max(1);
    let until = last_event.as_millis() + HB_ROUNDS_PAST_LAST_EVENT * period;
    let mut round = 1u32;
    while u64::from(round) * period <= until && round <= MAX_HB_ROUNDS {
        let at = SimTime::from_millis(u64::from(round) * period);
        out.push(Milestone {
            kind: MilestoneKind::HbRound(round),
            at,
        });
        out.push(Milestone {
            kind: MilestoneKind::LivenessDeadline(round),
            at: at + cfg.hb_timeout(),
        });
        round += 1;
    }

    out.sort_by_key(|m| (m.at, m.kind));
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::time::SimDuration;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn harvest_is_sorted_deduped_and_spans_hb_rounds() {
        let primary = vec![
            StTcpEvent::ConnEstablished { conn: 1, at: t(30) },
            StTcpEvent::HoldArmed { conn: 1, at: t(30) },
            StTcpEvent::FirstDataDelivered { conn: 1, at: t(45) },
            StTcpEvent::FinHeld {
                conn: 1,
                at: t(700),
            },
        ];
        let backup = vec![
            StTcpEvent::ConnEstablished { conn: 1, at: t(30) },
            StTcpEvent::FirstDataDelivered { conn: 1, at: t(45) },
        ];
        let ms = harvest(&primary, &backup, &StTcpConfig::default());
        // Sorted by time, duplicates collapsed.
        for w in ms.windows(2) {
            assert!(w[0].at <= w[1].at);
            assert_ne!(w[0], w[1]);
        }
        // Only one Established anchor despite both logs reporting it.
        assert_eq!(
            ms.iter()
                .filter(|m| m.kind == MilestoneKind::Established)
                .count(),
            1
        );
        // HB rounds reach past the last event (700ms) by two periods.
        let last_hb = ms
            .iter()
            .filter_map(|m| match m.kind {
                MilestoneKind::HbRound(_) => Some(m.at),
                _ => None,
            })
            .max()
            .unwrap();
        assert!(last_hb >= t(1000), "last hb round at {last_hb}");
        // Every round has its liveness deadline one timeout later.
        for m in &ms {
            if let MilestoneKind::HbRound(n) = m.kind {
                let deadline = Milestone {
                    kind: MilestoneKind::LivenessDeadline(n),
                    at: m.at + SimDuration::from_millis(600),
                };
                assert!(ms.contains(&deadline), "round {n} has no deadline");
            }
        }
    }

    #[test]
    fn harvest_of_empty_logs_still_yields_nothing() {
        let ms = harvest(&[], &[], &StTcpConfig::default());
        assert!(ms.is_empty());
    }
}
