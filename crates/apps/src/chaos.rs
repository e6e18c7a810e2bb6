//! The chaos engine: multi-fault schedules, seeded generation, a run
//! harness wired to the invariant checker, and a shrinking reproducer.
//!
//! A [`FaultSchedule`] is a serializable list of timed fault and restore
//! actions over the full `simnet` fault surface — node crash/reboot, NIC
//! failure, cable cut, loss burst, frame corruption, serial failure,
//! application crash. Schedules print as one line
//! (`@500 crash primary; @700 serial-fail`) and parse back exactly, so a
//! failing case is a paste-able reproducer.
//!
//! [`run_chaos_case`] executes a schedule against the pair or an
//! N-replica pool with a verifying workload and judges the run with
//! [`sttcp::invariant::check`]: the [`Expectation`] is derived from the
//! schedule alone (a pool's by [`crate::pool::pool_expectation`]),
//! conservatively, so a violation is always a real protocol bug.
//! [`shrink_schedule`] then minimizes a violating schedule by greedy
//! action removal followed by timestamp snapping — replay is bit-for-bit
//! deterministic, so the shrunk schedule still fails for the same reason.

use std::fmt;
use std::rc::Rc;
use std::str::FromStr;

use simnet::hash::{fnv1a, FNV_OFFSET};
use simnet::link::{LinkDir, LinkId};
use simnet::node::{NicId, NodeId};
use simnet::rng::SimRng;
use simnet::time::{SimDuration, SimTime};

use sttcp::config::{Role, StTcpConfig};
use sttcp::events::StTcpEvent;
use sttcp::invariant::{self, ClientView, Expectation, Outcome, ServerView, Violation};
use sttcp::server::{AppCrashMode, ByzantineHbMode, StTcpServer};

use crate::apps::{CommitStreamApp, ReqRespApp, StreamApp};
use crate::client::ClientWorkload;
use crate::pool::pool_expectation;
use crate::scenario::{Scenario, ScenarioBuilder, Topology};

/// Which server a fault targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// The configured primary.
    Primary,
    /// The configured backup.
    Backup,
}

impl Side {
    /// The Ethernet link belonging to this side.
    pub fn link(self) -> LinkSel {
        match self {
            Side::Primary => LinkSel::Primary,
            Side::Backup => LinkSel::Backup,
        }
    }
}

impl fmt::Display for Side {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Side::Primary => write!(f, "primary"),
            Side::Backup => write!(f, "backup"),
        }
    }
}

/// Which switch link a fault targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkSel {
    /// Client ↔ switch (the client host doubles as the gateway).
    Client,
    /// Primary ↔ switch.
    Primary,
    /// Backup ↔ switch.
    Backup,
}

impl fmt::Display for LinkSel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkSel::Client => write!(f, "client"),
            LinkSel::Primary => write!(f, "primary"),
            LinkSel::Backup => write!(f, "backup"),
        }
    }
}

/// One injectable fault or restore action.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChaosAction {
    /// HW/OS crash: immediate power loss (Table 1 row 1).
    Crash(Side),
    /// Power a crashed node back on. It reboots as a fresh suppressed
    /// backup (state lost) and asks the active to rejoin; a reboot
    /// before its peer noticed the crash is condemned and stays off. It
    /// never comes back as a second active server.
    Reboot(Side),
    /// NIC failure on a server (Table 1 row 4).
    NicDown(Side),
    /// NIC repair.
    NicUp(Side),
    /// Cable cut on a switch link.
    LinkCut(LinkSel),
    /// Cable repair.
    LinkRestore(LinkSel),
    /// Probabilistic frame loss (percent, both directions) on a link.
    LinkLoss(LinkSel, u8),
    /// End of a loss episode.
    LinkLossEnd(LinkSel),
    /// Drop the next `n` service-bound TCP frames on the backup's tap
    /// (Table 1 row 5 — absorbed by missed-byte recovery).
    DropTap(u32),
    /// Flip one bit in each of the next `n` frames delivered toward the
    /// selected node. Checksums must turn this into loss, never action.
    CorruptFrames(LinkSel, u32),
    /// Serial (null-modem) cable failure.
    SerialFail,
    /// Serial cable repair.
    SerialRestore,
    /// Application crash on a server (Table 1 rows 2-3).
    AppCrash(Side, AppCrashMode),
    /// Transmit each of the next `n` frames toward the selected node
    /// twice (flapping switch port). Duplicates must be absorbed, never
    /// acted on twice.
    Dup(LinkSel, u32),
    /// Swap each of the next `n` frames toward the selected node with
    /// its successor (multipath segment). Out-of-order heartbeats and
    /// TCP segments must be absorbed, never mis-verdicted.
    Reorder(LinkSel, u32),
    /// Per-frame uniform delivery jitter up to the given bound in
    /// milliseconds, both directions (congested segment).
    Jitter(LinkSel, u16),
    /// End of a jitter episode.
    JitterEnd(LinkSel),
    /// Byzantine heartbeat source: the node keeps sending CRC-valid but
    /// semantically corrupt heartbeats. Receivers must quarantine the
    /// stream; the liar's own inbound evidence stays untouched, so it
    /// must never fire a verdict against its honest peer.
    ByzantineHb(Side, ByzantineHbMode),
}

impl ChaosAction {
    /// Every verb in the fault grammar, in [`TimedAction`] display order
    /// (coverage tables iterate over this).
    pub const KINDS: [&'static str; 18] = [
        "crash",
        "reboot",
        "nic-down",
        "nic-up",
        "cut",
        "restore",
        "loss",
        "loss-end",
        "drop-tap",
        "corrupt",
        "serial-fail",
        "serial-restore",
        "app-crash",
        "dup",
        "reorder",
        "jitter",
        "jitter-end",
        "byz-hb",
    ];

    /// The action's verb — its grammar "kind", with side/link/amount
    /// arguments erased (coverage accounting).
    pub fn kind(self) -> &'static str {
        match self {
            ChaosAction::Crash(_) => "crash",
            ChaosAction::Reboot(_) => "reboot",
            ChaosAction::NicDown(_) => "nic-down",
            ChaosAction::NicUp(_) => "nic-up",
            ChaosAction::LinkCut(_) => "cut",
            ChaosAction::LinkRestore(_) => "restore",
            ChaosAction::LinkLoss(..) => "loss",
            ChaosAction::LinkLossEnd(_) => "loss-end",
            ChaosAction::DropTap(_) => "drop-tap",
            ChaosAction::CorruptFrames(..) => "corrupt",
            ChaosAction::SerialFail => "serial-fail",
            ChaosAction::SerialRestore => "serial-restore",
            ChaosAction::AppCrash(..) => "app-crash",
            ChaosAction::Dup(..) => "dup",
            ChaosAction::Reorder(..) => "reorder",
            ChaosAction::Jitter(..) => "jitter",
            ChaosAction::JitterEnd(_) => "jitter-end",
            ChaosAction::ByzantineHb(..) => "byz-hb",
        }
    }
}

/// A fault action with its injection time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimedAction {
    /// Virtual milliseconds after world start.
    pub at_ms: u64,
    /// What to inject.
    pub action: ChaosAction,
}

impl fmt::Display for TimedAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{} ", self.at_ms)?;
        match self.action {
            ChaosAction::Crash(s) => write!(f, "crash {s}"),
            ChaosAction::Reboot(s) => write!(f, "reboot {s}"),
            ChaosAction::NicDown(s) => write!(f, "nic-down {s}"),
            ChaosAction::NicUp(s) => write!(f, "nic-up {s}"),
            ChaosAction::LinkCut(l) => write!(f, "cut {l}"),
            ChaosAction::LinkRestore(l) => write!(f, "restore {l}"),
            ChaosAction::LinkLoss(l, pct) => write!(f, "loss {l} {pct}"),
            ChaosAction::LinkLossEnd(l) => write!(f, "loss-end {l}"),
            ChaosAction::DropTap(n) => write!(f, "drop-tap {n}"),
            ChaosAction::CorruptFrames(l, n) => write!(f, "corrupt {l} {n}"),
            ChaosAction::SerialFail => write!(f, "serial-fail"),
            ChaosAction::SerialRestore => write!(f, "serial-restore"),
            ChaosAction::AppCrash(s, mode) => {
                let m = match mode {
                    AppCrashMode::SilentNoCleanup => "silent",
                    AppCrashMode::CleanupFin => "fin",
                    AppCrashMode::CleanupRst => "rst",
                };
                write!(f, "app-crash {s} {m}")
            }
            ChaosAction::Dup(l, n) => write!(f, "dup {l} {n}"),
            ChaosAction::Reorder(l, n) => write!(f, "reorder {l} {n}"),
            ChaosAction::Jitter(l, ms) => write!(f, "jitter {l} {ms}"),
            ChaosAction::JitterEnd(l) => write!(f, "jitter-end {l}"),
            ChaosAction::ByzantineHb(s, mode) => {
                let m = match mode {
                    ByzantineHbMode::Freeze => "freeze",
                    ByzantineHbMode::Regress => "regress",
                };
                write!(f, "byz-hb {s} {m}")
            }
        }
    }
}

/// Error from parsing a schedule string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleParseError(String);

impl fmt::Display for ScheduleParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad fault schedule: {}", self.0)
    }
}

impl std::error::Error for ScheduleParseError {}

fn parse_side(s: &str) -> Result<Side, ScheduleParseError> {
    match s {
        "primary" => Ok(Side::Primary),
        "backup" => Ok(Side::Backup),
        _ => Err(ScheduleParseError(format!("unknown side {s:?}"))),
    }
}

fn parse_link(s: &str) -> Result<LinkSel, ScheduleParseError> {
    match s {
        "client" => Ok(LinkSel::Client),
        "primary" => Ok(LinkSel::Primary),
        "backup" => Ok(LinkSel::Backup),
        _ => Err(ScheduleParseError(format!("unknown link {s:?}"))),
    }
}

fn parse_num<T: FromStr>(s: &str) -> Result<T, ScheduleParseError> {
    s.parse()
        .map_err(|_| ScheduleParseError(format!("bad number {s:?}")))
}

impl FromStr for TimedAction {
    type Err = ScheduleParseError;

    fn from_str(s: &str) -> Result<TimedAction, ScheduleParseError> {
        let mut words = s.split_whitespace();
        let at = words
            .next()
            .ok_or_else(|| ScheduleParseError("empty action".into()))?;
        let at_ms: u64 = at
            .strip_prefix('@')
            .ok_or_else(|| ScheduleParseError(format!("expected @<ms>, got {at:?}")))
            .and_then(parse_num)?;
        let verb = words
            .next()
            .ok_or_else(|| ScheduleParseError(format!("missing verb after {at:?}")))?;
        let mut arg = || {
            words
                .next()
                .ok_or_else(|| ScheduleParseError(format!("verb {verb:?} needs an argument")))
        };
        let action = match verb {
            "crash" => ChaosAction::Crash(parse_side(arg()?)?),
            "reboot" => ChaosAction::Reboot(parse_side(arg()?)?),
            "nic-down" => ChaosAction::NicDown(parse_side(arg()?)?),
            "nic-up" => ChaosAction::NicUp(parse_side(arg()?)?),
            "cut" => ChaosAction::LinkCut(parse_link(arg()?)?),
            "restore" => ChaosAction::LinkRestore(parse_link(arg()?)?),
            "loss" => ChaosAction::LinkLoss(parse_link(arg()?)?, parse_num(arg()?)?),
            "loss-end" => ChaosAction::LinkLossEnd(parse_link(arg()?)?),
            "drop-tap" => ChaosAction::DropTap(parse_num(arg()?)?),
            "corrupt" => ChaosAction::CorruptFrames(parse_link(arg()?)?, parse_num(arg()?)?),
            "serial-fail" => ChaosAction::SerialFail,
            "serial-restore" => ChaosAction::SerialRestore,
            "app-crash" => {
                let side = parse_side(arg()?)?;
                let mode = match arg()? {
                    "silent" => AppCrashMode::SilentNoCleanup,
                    "fin" => AppCrashMode::CleanupFin,
                    "rst" => AppCrashMode::CleanupRst,
                    m => return Err(ScheduleParseError(format!("unknown crash mode {m:?}"))),
                };
                ChaosAction::AppCrash(side, mode)
            }
            "dup" => ChaosAction::Dup(parse_link(arg()?)?, parse_num(arg()?)?),
            "reorder" => ChaosAction::Reorder(parse_link(arg()?)?, parse_num(arg()?)?),
            "jitter" => ChaosAction::Jitter(parse_link(arg()?)?, parse_num(arg()?)?),
            "jitter-end" => ChaosAction::JitterEnd(parse_link(arg()?)?),
            "byz-hb" => {
                let side = parse_side(arg()?)?;
                let mode = match arg()? {
                    "freeze" => ByzantineHbMode::Freeze,
                    "regress" => ByzantineHbMode::Regress,
                    m => return Err(ScheduleParseError(format!("unknown byz mode {m:?}"))),
                };
                ChaosAction::ByzantineHb(side, mode)
            }
            _ => return Err(ScheduleParseError(format!("unknown verb {verb:?}"))),
        };
        if let Some(extra) = words.next() {
            return Err(ScheduleParseError(format!("trailing token {extra:?}")));
        }
        Ok(TimedAction { at_ms, action })
    }
}

/// A serializable, replayable multi-fault schedule.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultSchedule {
    /// The actions, sorted by injection time.
    pub actions: Vec<TimedAction>,
}

impl fmt::Display for FaultSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.actions.is_empty() {
            return write!(f, "(no faults)");
        }
        for (i, a) in self.actions.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{a}")?;
        }
        Ok(())
    }
}

impl FromStr for FaultSchedule {
    type Err = ScheduleParseError;

    fn from_str(s: &str) -> Result<FaultSchedule, ScheduleParseError> {
        let mut sched = FaultSchedule::default();
        for part in s.split([';', '\n']) {
            let part = part.trim();
            if part.is_empty() || part == "(no faults)" {
                continue;
            }
            sched.actions.push(part.parse()?);
        }
        sched.sort();
        Ok(sched)
    }
}

impl FaultSchedule {
    /// Adds an action, keeping time order.
    pub fn push(&mut self, at_ms: u64, action: ChaosAction) {
        self.actions.push(TimedAction { at_ms, action });
        self.sort();
    }

    /// Restores time order (stable, so same-time actions keep their
    /// relative order).
    pub fn sort(&mut self) {
        self.actions.sort_by_key(|a| a.at_ms);
    }

    /// Number of actions.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// True when the schedule injects nothing.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// Schedules every action into a built scenario's world — the one
    /// applier for both topologies. `Side::Primary` / `Side::Backup`
    /// address ranks 0 and 1 (nodes and switch links alike) and
    /// `serial-fail` the rank-0 ↔ rank-1 cable; in a pool the deeper
    /// members are never addressed directly and act as its depth, and
    /// the rest of the serial mesh stays up.
    pub fn apply(&self, s: &mut Scenario) {
        use ChaosAction::*;
        // Frame-budget faults hit the direction toward the selected node:
        // `connect_to_switch` makes the node endpoint `a`, the switch `b`.
        const IN: LinkDir = LinkDir::BtoA;
        for ta in &self.actions {
            let at = SimTime::from_millis(ta.at_ms);
            let node = |side: Side| -> NodeId {
                match side {
                    Side::Primary => s.primary,
                    Side::Backup => s.backup,
                }
            };
            let link = |sel: LinkSel| -> LinkId {
                match sel {
                    LinkSel::Client => s.link_client,
                    LinkSel::Primary => s.link_primary,
                    LinkSel::Backup => s.link_backup,
                }
            };
            match ta.action {
                Crash(side) => s.crash_at(node(side), at),
                Reboot(side) => s.reboot_at(node(side), at),
                NicDown(side) => s.fail_nic_at(node(side), at),
                NicUp(side) => {
                    let n = node(side);
                    s.world.schedule(at, move |w| w.restore_nic(n, NicId(0)));
                }
                LinkCut(sel) => {
                    let l = link(sel);
                    s.world.schedule(at, move |w| w.cut_link(l));
                }
                LinkRestore(sel) => {
                    let l = link(sel);
                    s.world.schedule(at, move |w| w.restore_link(l));
                }
                LinkLoss(sel, _) | LinkLossEnd(sel) => {
                    let l = link(sel);
                    let p = match ta.action {
                        LinkLoss(_, pct) => f64::from(pct.min(100)) / 100.0,
                        _ => 0.0,
                    };
                    s.world.schedule(at, move |w| {
                        w.set_link_loss(l, LinkDir::AtoB, p);
                        w.set_link_loss(l, LinkDir::BtoA, p);
                    });
                }
                DropTap(n) => s.drop_tap_at(s.link_backup, at, u64::from(n)),
                CorruptFrames(sel, n) => {
                    let l = link(sel);
                    s.world
                        .schedule(at, move |w| w.corrupt_frames(l, IN, u64::from(n)));
                }
                SerialFail => s.fail_serial_at(at),
                SerialRestore => {
                    let ser = s.serial;
                    s.world.schedule(at, move |w| w.restore_serial(ser));
                }
                AppCrash(side, mode) => s.crash_app_at(node(side), at, mode),
                Dup(sel, n) => {
                    let l = link(sel);
                    s.world
                        .schedule(at, move |w| w.dup_frames(l, IN, u64::from(n)));
                }
                Reorder(sel, n) => {
                    let l = link(sel);
                    s.world
                        .schedule(at, move |w| w.reorder_frames(l, IN, u64::from(n)));
                }
                Jitter(sel, _) | JitterEnd(sel) => {
                    let l = link(sel);
                    let max = match ta.action {
                        Jitter(_, ms) => SimDuration::from_millis(u64::from(ms)),
                        _ => SimDuration::ZERO,
                    };
                    s.world.schedule(at, move |w| {
                        w.set_link_jitter(l, LinkDir::AtoB, max);
                        w.set_link_jitter(l, LinkDir::BtoA, max);
                    });
                }
                ByzantineHb(side, mode) => {
                    let n = node(side);
                    s.world.schedule(at, move |w| {
                        w.note_fault(format!("byzantine hb ({mode:?}) on n{}", n.0));
                        if let Some(server) = w.node_mut::<StTcpServer>(n) {
                            server.inject_byzantine_hb(mode);
                        }
                    });
                }
            }
        }
    }

    /// Derives what this schedule makes legitimately possible — the
    /// [`Expectation`] fed to the invariant checker. Deliberately
    /// conservative toward "possible": an over-strict expectation would
    /// report legitimate runs as violations, an over-lax one merely
    /// checks less.
    pub fn expectation(&self) -> Expectation {
        use ChaosAction::*;

        // Loss bursts that recovery absorbs without any verdict. Beyond
        // this the primary's extended receive buffer may overflow and
        // escalation is legitimate.
        const QUIET_BURST: u32 = 30;

        // Could a correct detector have been provoked into a verdict?
        // Corruption of *any* size counts: a corruption budget is a frame
        // count, not a time window, so when traffic is sparse a handful of
        // corrupted (CRC-dropped) frames can swallow seconds' worth of
        // consecutive heartbeats or gateway pings — exactly what a real
        // blackout looks like to a correct detector.
        let verdicts_possible = self.actions.iter().any(|a| match a.action {
            Crash(_) | AppCrash(..) | NicDown(_) | NicUp(_) | LinkCut(_) | LinkRestore(_)
            | LinkLoss(..) | LinkLossEnd(_) | Reboot(_) | CorruptFrames(..) => true,
            DropTap(n) => n > QUIET_BURST,
            SerialFail | SerialRestore => false,
            // A byzantine sender's heartbeats are quarantined, so its
            // honest peer legitimately sees both links dark and condemns
            // it — that verdict is correct, not a false positive.
            ByzantineHb(..) => true,
            // Duplication and reordering are absorbed by TCP and the
            // checksummed/sequenced control formats; jitter episodes stay
            // far below the heartbeat timeout. None may provoke a verdict.
            Dup(..) | Reorder(..) | Jitter(..) | JitterEnd(_) => false,
        });

        // Could a side have ended up dead — crashed by the schedule, or
        // condemned and STONITHed by its peer after an impairment?
        let impaired = |side: Side| {
            self.actions.iter().any(|a| match a.action {
                Crash(s) | AppCrash(s, _) | NicDown(s) => s == side,
                // A byzantine node gets condemned and STONITHed by its
                // honest peer, so it can end up just as dead as a crash.
                ByzantineHb(s, _) => s == side,
                LinkCut(l) | LinkLoss(l, _) => l == side.link(),
                _ => false,
            })
        };

        // Serial dead while the servers' IP heartbeat path is also
        // breakable: both sides may (correctly) condemn each other.
        let split_brain = self.actions.iter().any(|a| matches!(a.action, SerialFail))
            && self.actions.iter().any(|a| {
                matches!(
                    a.action,
                    NicDown(_)
                        | LinkCut(LinkSel::Primary | LinkSel::Backup)
                        | LinkLoss(LinkSel::Primary | LinkSel::Backup, _)
                )
            });

        // Client path state at end of schedule (order matters).
        let mut client_cut = false;
        let mut lossy_at_end = false;
        for a in &self.actions {
            match a.action {
                LinkCut(LinkSel::Client) => client_cut = true,
                LinkRestore(LinkSel::Client) => client_cut = false,
                LinkLoss(..) => lossy_at_end = true,
                LinkLossEnd(_) => lossy_at_end = false,
                _ => {}
            }
        }

        // Budgeted corruption (and probabilistic loss) on the request
        // path interacts with RTO backoff: every retransmission of the
        // same segment can eat one budget unit while the RTO doubles, so
        // even a small burst can legally stall the client past any
        // finite horizon. Completion cannot be demanded.
        let request_path_unreliable = self.actions.iter().any(|a| {
            matches!(
                a.action,
                CorruptFrames(LinkSel::Client | LinkSel::Primary, _)
                    | LinkLoss(LinkSel::Client | LinkSel::Primary, _)
            )
        });

        // Bytes the primary acked can be lost to the backup forever only
        // if the tap was impaired *and* a takeover was possible. The
        // primary can die by direct impairment, or by STONITH from a
        // backup whose view of the primary's heartbeats went dark —
        // corruption or loss toward the backup eats the primary's IP
        // heartbeats, and under sparse traffic a frame budget is an
        // unbounded blackout in time.
        let tap_impaired = self.actions.iter().any(|a| {
            matches!(
                a.action,
                DropTap(_)
                    | CorruptFrames(LinkSel::Backup, _)
                    | LinkLoss(LinkSel::Backup, _)
                    | LinkCut(LinkSel::Backup)
                    | NicDown(Side::Backup)
            )
        });
        let primary_may_die = impaired(Side::Primary)
            || self.actions.iter().any(|a| {
                matches!(
                    a.action,
                    CorruptFrames(LinkSel::Backup, _) | LinkLoss(LinkSel::Backup, _)
                )
            });
        let unrecoverable_gap_possible = tap_impaired && primary_may_die;

        let service_may_be_lost = (impaired(Side::Primary) && impaired(Side::Backup))
            || split_brain
            || client_cut
            || request_path_unreliable
            // A loss episode never switched off can stall TCP past any
            // horizon; don't demand completion.
            || lossy_at_end
            // After a takeover the backup's own link *is* the client's
            // path to the service, so a drop/corruption budget installed
            // on the tap now starves client traffic instead — and the
            // client's RTO backoff can stretch a small frame budget past
            // any finite horizon. With the primary able to die, a tap
            // impairment forfeits the completion guarantee.
            || (tap_impaired && primary_may_die);

        let abortive_close_possible = self
            .actions
            .iter()
            .any(|a| matches!(a.action, AppCrash(_, AppCrashMode::CleanupRst)));

        // Stalls are boundable only when nothing can hold the client's
        // TCP in RTO backoff for schedule-dependent lengths of time. A
        // tap impairment plus a dead primary qualifies too: the tap
        // budget lands on the client's path to the new active server and
        // drains at RTO pace, not wall-clock pace.
        let unbounded_stall = self.actions.iter().any(|a| {
            matches!(
                a.action,
                LinkLoss(..) | CorruptFrames(..) | LinkCut(LinkSel::Client)
            )
        }) || (tap_impaired && primary_may_die);
        let max_stall = if unbounded_stall {
            None
        } else {
            // Worst bounded path: detection (heartbeat timeout or app-lag
            // confirmation) + STONITH + takeover + client RTO backoff
            // accumulated while the service was silent.
            Some(SimDuration::from_secs(15))
        };

        // The liar-containment invariant (the byzantine side must never
        // fire a verdict) is only sound when nothing else in the schedule
        // could hand the liar legitimate inbound evidence against its
        // peer: apply it iff *every* action is a byzantine injection on
        // one single side.
        let mut byz_side = None;
        let mut byz_pure = !self.actions.is_empty();
        for a in &self.actions {
            match a.action {
                ByzantineHb(s, _) => {
                    if *byz_side.get_or_insert(s) != s {
                        byz_pure = false;
                    }
                }
                _ => byz_pure = false,
            }
        }
        let byzantine = match (byz_pure, byz_side) {
            (true, Some(Side::Primary)) => Some(Role::Primary),
            (true, Some(Side::Backup)) => Some(Role::Backup),
            _ => None,
        };

        Expectation {
            service_may_be_lost,
            unrecoverable_gap_possible,
            abortive_close_possible,
            verdicts_possible,
            max_stall,
            byzantine,
            reboots: self.actions.iter().any(|a| matches!(a.action, Reboot(_))),
            max_takeovers: None,
        }
    }

    /// Generates a coherent seeded schedule of 1–4 faults. Same seed,
    /// same schedule.
    pub fn generate(seed: u64) -> FaultSchedule {
        Self::generate_with(seed, 1, 4)
    }

    /// Generates a single-fault schedule (plus any paired restore).
    pub fn generate_single(seed: u64) -> FaultSchedule {
        Self::generate_with(seed, 1, 1)
    }

    /// Generates a double-fault schedule: a first fault (restored where
    /// the fault class allows it) followed by a second, independent
    /// fault — the classic "failure during repair" shape.
    pub fn generate_double(seed: u64) -> FaultSchedule {
        Self::generate_with(seed, 2, 2)
    }

    /// Generates a `reintegrate-then-fail` schedule: crash one side, warm
    /// reboot it (it rejoins the live connections), then — after the join
    /// has had time to converge —
    /// crash the *other* side, so only a successfully re-integrated backup
    /// can keep the service alive through the second failure.
    pub fn generate_reintegrate(seed: u64) -> FaultSchedule {
        let mut rng = SimRng::seed_from(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5E1A7);
        let first = if rng.chance(0.5) {
            Side::Primary
        } else {
            Side::Backup
        };
        let second = match first {
            Side::Primary => Side::Backup,
            Side::Backup => Side::Primary,
        };
        let t1 = 250 + rng.range_u64(0, 2_000);
        let reboot = t1 + 300 + rng.range_u64(0, 1_200);
        let t2 = reboot + 2_500 + rng.range_u64(0, 2_500);
        let mut sched = FaultSchedule::default();
        sched.push(t1, ChaosAction::Crash(first));
        sched.push(reboot, ChaosAction::Reboot(first));
        sched.push(t2, ChaosAction::Crash(second));
        sched
    }

    /// Generates a pool chaos schedule: kill the active, usually warm-boot
    /// it back (it rejoins as a fresh backup under a new rank), then — once the pool has settled — kill the next active
    /// too. In a pool scenario `Side::Primary` addresses the rank-0
    /// member and `Side::Backup` the rank-1 member (see
    /// [`FaultSchedule::apply`]); deeper members are never targeted
    /// directly, so every takeover in the chain must be quorum-fenced by
    /// the survivors.
    pub fn generate_pool(seed: u64) -> FaultSchedule {
        let mut rng = SimRng::seed_from(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x9001D);
        let mut sched = FaultSchedule::default();
        let t1 = 250 + rng.range_u64(0, 2_000);
        sched.push(t1, ChaosAction::Crash(Side::Primary));
        let mut settled = t1;
        if rng.chance(0.7) {
            let reboot = t1 + 300 + rng.range_u64(0, 1_200);
            sched.push(reboot, ChaosAction::Reboot(Side::Primary));
            settled = reboot;
        }
        let t2 = settled + 2_500 + rng.range_u64(0, 2_500);
        sched.push(t2, ChaosAction::Crash(Side::Backup));
        if rng.chance(0.4) {
            let reboot = t2 + 300 + rng.range_u64(0, 1_200);
            sched.push(reboot, ChaosAction::Reboot(Side::Backup));
        }
        sched
    }

    /// Generates a byzantine-heartbeat schedule: one side starts lying in
    /// its heartbeats (CRC-valid, semantically corrupt) mid-transfer. The
    /// honest side must quarantine the stream and condemn the liar; the
    /// liar must never condemn the honest side.
    pub fn generate_byzantine(seed: u64) -> FaultSchedule {
        let mut rng = SimRng::seed_from(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xB12A7);
        let side = if rng.chance(0.5) {
            Side::Primary
        } else {
            Side::Backup
        };
        let mode = if rng.chance(0.5) {
            ByzantineHbMode::Freeze
        } else {
            ByzantineHbMode::Regress
        };
        let t = 400 + rng.range_u64(0, 3_000);
        let mut sched = FaultSchedule::default();
        sched.push(t, ChaosAction::ByzantineHb(side, mode));
        sched
    }

    /// Seeded generation with a fault-count range (paired restores ride
    /// along and don't count).
    pub fn generate_with(seed: u64, min_faults: usize, max_faults: usize) -> FaultSchedule {
        let mut rng = SimRng::seed_from(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xC4A05);
        let n = min_faults + rng.index(max_faults - min_faults + 1);
        let mut sched = FaultSchedule::default();
        let mut crashed = [false; 2];
        let mut app_crashed = [false; 2];
        let mut nic_down = [false; 2];
        let mut cut = [false; 3];
        let mut serial_failed = false;

        // Fault times cluster where the protocol is most fragile: the
        // connection handshake (the client connects at t = 100 ms), the
        // steady transfer, and the late/FIN window.
        let pick_time = |rng: &mut SimRng| -> u64 {
            match rng.index(10) {
                0..=2 => 60 + rng.range_u64(0, 190),    // handshake
                3..=7 => 250 + rng.range_u64(0, 3_750), // steady state
                _ => 4_000 + rng.range_u64(0, 4_000),   // late / FIN
            }
        };
        let side_of = |i: usize| if i == 0 { Side::Primary } else { Side::Backup };
        let link_of = |i: usize| match i {
            0 => LinkSel::Client,
            1 => LinkSel::Primary,
            _ => LinkSel::Backup,
        };

        for _ in 0..n {
            let t = pick_time(&mut rng);
            match rng.index(11) {
                0 => {
                    // HW/OS crash; sometimes with a later reboot (which
                    // rejoins, or is condemned if it beat detection).
                    let i = rng.index(2);
                    let i = if crashed[i] { 1 - i } else { i };
                    if crashed[i] {
                        sched.push(t, ChaosAction::DropTap(1 + rng.index(QUIET_TAP) as u32));
                        continue;
                    }
                    crashed[i] = true;
                    sched.push(t, ChaosAction::Crash(side_of(i)));
                    if rng.chance(0.4) {
                        let dt = 300 + rng.range_u64(0, 2_000);
                        sched.push(t + dt, ChaosAction::Reboot(side_of(i)));
                    }
                }
                1 => {
                    let i = rng.index(2);
                    if app_crashed[i] || crashed[i] {
                        sched.push(t, ChaosAction::SerialFail);
                        serial_failed = true;
                        continue;
                    }
                    app_crashed[i] = true;
                    let mode = [
                        AppCrashMode::SilentNoCleanup,
                        AppCrashMode::CleanupFin,
                        AppCrashMode::CleanupRst,
                    ][rng.index(3)];
                    sched.push(t, ChaosAction::AppCrash(side_of(i), mode));
                }
                2 => {
                    let i = rng.index(2);
                    if nic_down[i] {
                        sched.push(t, ChaosAction::NicUp(side_of(i)));
                        nic_down[i] = false;
                        continue;
                    }
                    nic_down[i] = true;
                    sched.push(t, ChaosAction::NicDown(side_of(i)));
                    if rng.chance(0.5) {
                        let dt = 400 + rng.range_u64(0, 2_500);
                        sched.push(t + dt, ChaosAction::NicUp(side_of(i)));
                        nic_down[i] = false;
                    }
                }
                3 => {
                    let i = rng.index(3);
                    if cut[i] {
                        sched.push(t, ChaosAction::LinkRestore(link_of(i)));
                        cut[i] = false;
                        continue;
                    }
                    cut[i] = true;
                    sched.push(t, ChaosAction::LinkCut(link_of(i)));
                    if rng.chance(0.6) {
                        let dt = 400 + rng.range_u64(0, 2_500);
                        sched.push(t + dt, ChaosAction::LinkRestore(link_of(i)));
                        cut[i] = false;
                    }
                }
                4 => {
                    // Loss episodes always end: unbounded loss proves
                    // nothing a cut doesn't, and only blurs expectations.
                    let l = link_of(rng.index(3));
                    let pct = 10 + rng.index(51) as u8;
                    sched.push(t, ChaosAction::LinkLoss(l, pct));
                    let dt = 200 + rng.range_u64(0, 1_300);
                    sched.push(t + dt, ChaosAction::LinkLossEnd(l));
                }
                5 => {
                    sched.push(t, ChaosAction::DropTap(1 + rng.index(QUIET_TAP) as u32));
                }
                6 => {
                    let l = link_of(rng.index(3));
                    sched.push(t, ChaosAction::CorruptFrames(l, 1 + rng.index(12) as u32));
                }
                7 => {
                    if serial_failed {
                        sched.push(t, ChaosAction::SerialRestore);
                        serial_failed = false;
                    } else {
                        serial_failed = true;
                        sched.push(t, ChaosAction::SerialFail);
                        if rng.chance(0.5) {
                            let dt = 500 + rng.range_u64(0, 3_000);
                            sched.push(t + dt, ChaosAction::SerialRestore);
                            serial_failed = false;
                        }
                    }
                }
                8 => {
                    let l = link_of(rng.index(3));
                    sched.push(t, ChaosAction::Dup(l, 1 + rng.index(8) as u32));
                }
                9 => {
                    let l = link_of(rng.index(3));
                    sched.push(t, ChaosAction::Reorder(l, 1 + rng.index(8) as u32));
                }
                _ => {
                    // Jitter episodes always end, and the bound stays far
                    // below the 600 ms heartbeat timeout.
                    let l = link_of(rng.index(3));
                    let ms = 1 + rng.index(30) as u16;
                    sched.push(t, ChaosAction::Jitter(l, ms));
                    let dt = 200 + rng.range_u64(0, 1_300);
                    sched.push(t + dt, ChaosAction::JitterEnd(l));
                }
            }
        }
        sched.sort();
        sched
    }
}

/// Largest tap burst recovery must absorb silently (see
/// [`FaultSchedule::expectation`]).
const QUIET_TAP: usize = 30;

/// The tail of virtual time a captured flight snapshot keeps.
const FLIGHT_WINDOW: SimDuration = SimDuration::from_millis(2_000);

/// Which application/traffic pair a chaos or explore case drives — the
/// first slice of the ROADMAP app zoo. Every workload keeps the client's
/// end-to-end byte verification: `Download` and `CommitStream` check the
/// fixed pattern, `ReqResp` checks each response against the known
/// deterministic transformation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ChaosWorkload {
    /// Smooth verifying download from [`StreamApp`] (the original chaos
    /// surface).
    #[default]
    Download,
    /// Interactive request/response against [`ReqRespApp`]: periodic
    /// request lines, each response verified.
    ReqResp,
    /// Bursty download from [`CommitStreamApp`]: the replicas' app
    /// positions sit still between commits, then jump together.
    CommitStream,
}

impl ChaosWorkload {
    /// Every workload (CLI sweeps, coverage tables).
    pub const ALL: [ChaosWorkload; 3] = [
        ChaosWorkload::Download,
        ChaosWorkload::ReqResp,
        ChaosWorkload::CommitStream,
    ];

    /// Stable identifier (CLI values, report keys).
    pub fn key(self) -> &'static str {
        match self {
            ChaosWorkload::Download => "download",
            ChaosWorkload::ReqResp => "reqresp",
            ChaosWorkload::CommitStream => "commit-stream",
        }
    }
}

impl fmt::Display for ChaosWorkload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.key())
    }
}

impl FromStr for ChaosWorkload {
    type Err = ScheduleParseError;

    fn from_str(s: &str) -> Result<ChaosWorkload, ScheduleParseError> {
        ChaosWorkload::ALL
            .into_iter()
            .find(|w| w.key() == s)
            .ok_or_else(|| ScheduleParseError(format!("unknown workload {s:?}")))
    }
}

/// Knobs for one chaos run.
#[derive(Debug, Clone)]
pub struct ChaosOptions {
    /// Download size the verifying client requests.
    pub total_bytes: u64,
    /// Virtual-time horizon for the run.
    pub horizon: SimDuration,
    /// Print the run's typed record — the fault log and every server's
    /// event log, merged by time — to stderr after the run (debugging).
    pub trace: bool,
    /// Which application/traffic pair to run.
    pub workload: ChaosWorkload,
    /// Capture a flight-recorder snapshot into the report even when no
    /// invariant was violated (demos attach a dump unconditionally; the
    /// hunt only pays for snapshots on violations).
    pub flight_always: bool,
    /// Every server's configuration ([`chaos_config`] by default); the
    /// hunt's detection bounds and the explorer's offsets read it too.
    pub sttcp: StTcpConfig,
}

impl Default for ChaosOptions {
    fn default() -> ChaosOptions {
        ChaosOptions {
            total_bytes: 192 * 1024,
            horizon: SimDuration::from_secs(40),
            trace: false,
            workload: ChaosWorkload::Download,
            flight_always: false,
            sttcp: chaos_config(),
        }
    }
}

impl ChaosOptions {
    /// Smaller/faster settings for smoke sweeps (CI).
    pub fn quick() -> ChaosOptions {
        ChaosOptions {
            total_bytes: 48 * 1024,
            horizon: SimDuration::from_secs(25),
            ..ChaosOptions::default()
        }
    }
}

/// Everything a chaos run produced, for classification and reproduction.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// The checker's classification.
    pub outcome: Outcome,
    /// Violated invariants (empty unless `outcome` is `Violation`).
    pub violations: Vec<Violation>,
    /// The client as the checker saw it.
    pub client: ClientView,
    /// Every server's event log, indexed by initial rank (the pair:
    /// primary, then backup).
    pub member_events: Vec<Vec<StTcpEvent>>,
    /// Every server's rank at end of run (pool rejoiners get fresh
    /// ranks; the pair never moves off 0).
    pub final_ranks: Vec<u8>,
    /// Which server (by initial rank) ended the run active, if any.
    pub active_at_end: Option<usize>,
    /// `(start, end)` of the longest client stall, when measurable — the
    /// window a failover-phase timeline anchors to.
    pub stall_window: Option<(SimTime, SimTime)>,
    /// Every injected fault, as `(time, description)` in injection order
    /// (from the world's uncapped fault-episode log).
    pub faults: Vec<(SimTime, String)>,
    /// Flight-recorder snapshot, captured when the run violated an
    /// invariant (or unconditionally under
    /// [`ChaosOptions::flight_always`]). Deliberately excluded from
    /// [`ChaosReport::fingerprint`]: the fingerprint digests protocol
    /// observables, and the flight tail is derived from them.
    pub flight: Option<simnet::flight::FlightSnapshot>,
}

impl ChaosReport {
    /// A stable digest of everything observable — two runs of the same
    /// `(topology, seed, schedule, opts)` must produce equal fingerprints
    /// at any thread count (deterministic replay is what makes shrinking
    /// sound). The per-member logs are digested as one nested list, so
    /// the same events under a different member order digest differently.
    pub fn fingerprint(&self) -> u64 {
        let mut h = FNV_OFFSET;
        let mut eat = |bytes: &[u8]| h = fnv1a(h, bytes);
        eat(format!("{:?}", self.outcome).as_bytes());
        eat(format!("{:?}", self.violations).as_bytes());
        eat(format!("{:?}", self.client).as_bytes());
        eat(format!("{:?}", self.member_events).as_bytes());
        eat(format!("{:?}", self.final_ranks).as_bytes());
        h
    }

    /// Total takeovers observed across every server.
    pub fn takeovers(&self) -> u64 {
        self.member_events
            .iter()
            .flatten()
            .filter(|e| matches!(e, StTcpEvent::TookOver { .. }))
            .count() as u64
    }
}

/// The ST-TCP configuration every chaos case runs under. Public so the
/// hunt harness can derive per-detector bounds from the same knobs.
pub fn chaos_config() -> StTcpConfig {
    StTcpConfig {
        app_max_lag_time: SimDuration::from_secs(1),
        max_delay_fin: SimDuration::from_secs(5),
        ..StTcpConfig::default()
    }
}

/// The `(server app factory, client workload)` pair for one chaos
/// workload. `total_bytes` sizes the download flavours; `ReqResp` derives
/// a request count from it so every workload scales with the same knob.
fn workload_pair(
    workload: ChaosWorkload,
    total_bytes: u64,
) -> (crate::scenario::AppMaker, ClientWorkload) {
    match workload {
        ChaosWorkload::Download => (
            Rc::new(|| Box::new(StreamApp::new(4096, false)) as _),
            ClientWorkload::Download { total: total_bytes },
        ),
        ChaosWorkload::ReqResp => (
            Rc::new(|| Box::new(ReqRespApp::new()) as _),
            ClientWorkload::ReqResp {
                period: SimDuration::from_millis(50),
                // ~1 request per KiB of the download budget, capped so the
                // run always fits the horizon at the 50ms cadence.
                count: (total_bytes / 1024).clamp(8, 120) as u32,
            },
        ),
        ChaosWorkload::CommitStream => (
            // Same long-run rate as the smooth streamer (4096/tick), but
            // flushed as one 16 KiB commit every 4 ticks.
            Rc::new(|| Box::new(CommitStreamApp::new(16 * 1024, 4, false)) as _),
            ClientWorkload::Download { total: total_bytes },
        ),
    }
}

/// `ChaosOptions::trace`: prints the fault log and each named server's
/// event log to stderr as one record ordered by time (ties: faults
/// first, then servers in the order given).
fn eprint_record(faults: &[(SimTime, String)], servers: &[(String, &[StTcpEvent])]) {
    let mut lines: Vec<(SimTime, String)> = faults
        .iter()
        .map(|(at, what)| (*at, format!("world: [{at}] inject: {what}")))
        .collect();
    for (name, events) in servers {
        lines.extend(events.iter().map(|e| (e.at(), format!("{name}: {e}"))));
    }
    lines.sort_by_key(|(at, _)| *at);
    for (_, line) in lines {
        eprintln!("{line}");
    }
}

/// Runs one chaos case: the given topology, the selected verifying
/// workload, the given schedule, then the invariant checker. Fully
/// deterministic in `(topology, seed, schedule, opts)`.
///
/// Topology decides what is protocol and nothing else: how the servers
/// are wired, and which expectation model the one checker judges the
/// run against.
pub fn run_chaos_case(
    topology: Topology,
    seed: u64,
    schedule: &FaultSchedule,
    opts: &ChaosOptions,
) -> ChaosReport {
    let (factory, client_workload) = workload_pair(opts.workload, opts.total_bytes);
    let mut s = ScenarioBuilder::new(factory, client_workload)
        .seed(seed)
        .sttcp(opts.sttcp.clone())
        .topology(topology)
        .build();

    schedule.apply(&mut s);
    let end = SimTime::ZERO + opts.horizon;
    s.world.run_until(end);

    let member_events: Vec<Vec<StTcpEvent>> = (s.servers.iter())
        .map(|&n| s.server(n).events().to_vec())
        .collect();
    if opts.trace {
        let servers: Vec<_> = (member_events.iter().enumerate())
            .map(|(i, events)| (topology.member_label(i), events.as_slice()))
            .collect();
        eprint_record(s.world.faults(), &servers);
    }

    let mut views = Vec::with_capacity(s.servers.len());
    let mut final_ranks = Vec::with_capacity(s.servers.len());
    let mut active_at_end = None;
    for (i, &node) in s.servers.iter().enumerate() {
        let srv = s.server(node);
        views.push(ServerView {
            label: topology.member_label(i),
            events: member_events[i].clone(),
            active_at_end: srv.is_active(),
        });
        if srv.is_active() {
            active_at_end = Some(i);
        }
        final_ranks.push(srv.pool_rank());
    }

    let log = s.client_log();
    let from = log
        .connects
        .first()
        .copied()
        .unwrap_or(SimTime::from_millis(100));
    let to = log.finished_at.unwrap_or(end);
    let client = ClientView {
        bytes_ok: log.total_received,
        integrity_violations: log.integrity_violations,
        resets: u64::from(log.resets),
        finished: s.client_finished(),
        longest_stall: log.longest_stall(from, to),
    };

    let expectation = match topology {
        Topology::Pair => schedule.expectation(),
        Topology::Pool(_) => pool_expectation(schedule),
    };
    let report = invariant::check(&views, &client, &expectation);
    // The recorder is always on; the *snapshot* is taken only when a
    // violation makes the tail worth shipping (or when asked to).
    let flight = (report.outcome == Outcome::Violation || opts.flight_always)
        .then(|| s.world.flight_snapshot(Some(FLIGHT_WINDOW)));
    ChaosReport {
        outcome: report.outcome,
        violations: report.violations,
        client,
        member_events,
        final_ranks,
        active_at_end,
        stall_window: log.longest_stall_window(from, to),
        faults: s.world.faults().to_vec(),
        flight,
    }
}

/// Result of shrinking a violating schedule.
#[derive(Debug, Clone)]
pub struct ShrinkResult {
    /// The minimized schedule (still violating, unless the input never
    /// violated in the first place).
    pub schedule: FaultSchedule,
    /// Chaos runs spent shrinking (including the final replay that
    /// captures `flight`).
    pub runs: usize,
    /// Flight-recorder tail of the shrunk reproducer's violation, so a
    /// minimized repro ships with its trace. `None` when the input
    /// never violated.
    pub flight: Option<simnet::flight::FlightSnapshot>,
}

/// Greedy delta-debugging over an arbitrary "still failing" predicate:
/// drop actions one at a time to a fixpoint, then snap surviving
/// timestamps to coarser values (1000/500/250/100 ms) where the failure
/// persists.
pub fn shrink_with(
    schedule: &FaultSchedule,
    mut still_fails: impl FnMut(&FaultSchedule) -> bool,
) -> (FaultSchedule, usize) {
    let mut runs = 0;
    let mut fails = |s: &FaultSchedule, runs: &mut usize| {
        *runs += 1;
        still_fails(s)
    };
    let mut cur = schedule.clone();
    if !fails(&cur, &mut runs) {
        return (cur, runs);
    }
    loop {
        let mut improved = false;
        let mut i = 0;
        while i < cur.actions.len() {
            let mut cand = cur.clone();
            cand.actions.remove(i);
            if fails(&cand, &mut runs) {
                cur = cand;
                improved = true;
            } else {
                i += 1;
            }
        }
        if !improved {
            break;
        }
    }
    for snap in [1_000u64, 500, 250, 100] {
        for i in 0..cur.actions.len() {
            let orig = cur.actions[i].at_ms;
            let snapped = (orig / snap) * snap;
            if snapped == orig || snapped == 0 {
                continue;
            }
            let mut cand = cur.clone();
            cand.actions[i].at_ms = snapped;
            cand.sort();
            if fails(&cand, &mut runs) {
                cur = cand;
            }
        }
    }
    (cur, runs)
}

/// Shrinks a schedule that violates an invariant under `(topology, seed,
/// opts)` to a minimal reproducer. Deterministic replay makes every
/// probe reliable.
pub fn shrink_schedule(
    topology: Topology,
    seed: u64,
    schedule: &FaultSchedule,
    opts: &ChaosOptions,
) -> ShrinkResult {
    let (schedule, runs) = shrink_with(schedule, |cand| {
        run_chaos_case(topology, seed, cand, opts).outcome == Outcome::Violation
    });
    // One replay of the minimized schedule captures the trace that
    // ships with the repro.
    let flight = run_chaos_case(topology, seed, &schedule, opts).flight;
    ShrinkResult {
        schedule,
        runs: runs + 1,
        flight,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_display_parse_roundtrip() {
        let text = "@500 crash primary; @900 reboot primary; @300 nic-down backup; \
                    @700 nic-up backup; @100 cut client; @200 restore client; \
                    @400 loss backup 30; @900 loss-end backup; @150 drop-tap 12; \
                    @250 corrupt primary 5; @600 serial-fail; @2000 serial-restore; \
                    @2500 app-crash primary rst; @2600 app-crash backup silent; \
                    @2700 app-crash backup fin; @2800 dup client 4; \
                    @2900 reorder backup 3; @3000 jitter primary 20; \
                    @3300 jitter-end primary; @3400 byz-hb primary freeze; \
                    @3500 byz-hb backup regress";
        let sched: FaultSchedule = text.parse().unwrap();
        assert_eq!(sched.len(), 21);
        let reparsed: FaultSchedule = sched.to_string().parse().unwrap();
        assert_eq!(reparsed, sched);
        // Sorted by time.
        assert!(sched.actions.windows(2).all(|w| w[0].at_ms <= w[1].at_ms));
    }

    #[test]
    fn empty_schedule_roundtrip() {
        let sched = FaultSchedule::default();
        assert_eq!(sched.to_string(), "(no faults)");
        let parsed: FaultSchedule = sched.to_string().parse().unwrap();
        assert!(parsed.is_empty());
    }

    #[test]
    fn bad_schedules_rejected() {
        for bad in [
            "500 crash primary",
            "@x crash primary",
            "@500 explode primary",
            "@500 crash",
            "@500 crash gateway",
            "@500 loss primary",
            "@500 crash primary extra",
            "@500 app-crash primary kaboom",
            "@500 byz-hb primary",
            "@500 byz-hb primary lie",
        ] {
            assert!(bad.parse::<FaultSchedule>().is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn generation_is_deterministic_and_seed_sensitive() {
        let a = FaultSchedule::generate(7);
        let b = FaultSchedule::generate(7);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        let differs = (0..20).any(|s| FaultSchedule::generate(s) != a);
        assert!(differs);
    }

    #[test]
    fn generated_schedules_roundtrip_and_stay_coherent() {
        for seed in 0..200 {
            let sched = FaultSchedule::generate(seed);
            let reparsed: FaultSchedule = sched.to_string().parse().unwrap();
            assert_eq!(reparsed, sched, "seed {seed}");
            // Coherence: reboots only after a crash of the same side.
            for (i, a) in sched.actions.iter().enumerate() {
                if let ChaosAction::Reboot(side) = a.action {
                    assert!(
                        sched.actions[..i]
                            .iter()
                            .any(|p| p.action == ChaosAction::Crash(side)),
                        "seed {seed}: reboot of never-crashed {side}"
                    );
                }
            }
        }
    }

    #[test]
    fn reintegrate_schedules_are_coherent() {
        let a = FaultSchedule::generate_reintegrate(11);
        assert_eq!(a, FaultSchedule::generate_reintegrate(11));
        for seed in 0..100 {
            let s = FaultSchedule::generate_reintegrate(seed);
            assert_eq!(s.len(), 3, "seed {seed}: {s}");
            let (first, reboot, second) = (s.actions[0], s.actions[1], s.actions[2]);
            let ChaosAction::Crash(side_a) = first.action else {
                panic!("seed {seed}: expected first crash, got {s}");
            };
            assert_eq!(reboot.action, ChaosAction::Reboot(side_a), "seed {seed}");
            let ChaosAction::Crash(side_b) = second.action else {
                panic!("seed {seed}: expected second crash, got {s}");
            };
            assert_ne!(
                side_a, side_b,
                "seed {seed}: second crash must hit the peer"
            );
            // Enough time for detection+takeover before the reboot is
            // irrelevant, and for the join to converge before the second
            // crash tests it.
            assert!(reboot.at_ms >= first.at_ms + 300, "seed {seed}");
            assert!(second.at_ms >= reboot.at_ms + 2_500, "seed {seed}");
            let reparsed: FaultSchedule = s.to_string().parse().unwrap();
            assert_eq!(reparsed, s, "seed {seed}");
        }
    }

    #[test]
    fn byzantine_schedules_are_coherent() {
        let a = FaultSchedule::generate_byzantine(5);
        assert_eq!(a, FaultSchedule::generate_byzantine(5));
        let mut sides_seen = 0u8;
        for seed in 0..100 {
            let s = FaultSchedule::generate_byzantine(seed);
            assert_eq!(s.len(), 1, "seed {seed}: {s}");
            let ChaosAction::ByzantineHb(side, _) = s.actions[0].action else {
                panic!("seed {seed}: expected byz-hb, got {s}");
            };
            sides_seen |= match side {
                Side::Primary => 1,
                Side::Backup => 2,
            };
            assert!(s.actions[0].at_ms >= 400, "seed {seed}");
            let reparsed: FaultSchedule = s.to_string().parse().unwrap();
            assert_eq!(reparsed, s, "seed {seed}");
        }
        assert_eq!(sides_seen, 3, "both sides must get exercised");
    }

    #[test]
    fn byzantine_expectation_rules() {
        // Pure single-side byzantine schedule: liar containment applies.
        let pure: FaultSchedule = "@500 byz-hb primary freeze".parse().unwrap();
        let e = pure.expectation();
        assert_eq!(e.byzantine, Some(Role::Primary));
        assert!(e.verdicts_possible, "honest side may condemn the liar");
        assert!(!e.service_may_be_lost);
        assert!(!e.unrecoverable_gap_possible);
        assert!(e.max_stall.is_some());

        let backup: FaultSchedule = "@500 byz-hb backup regress".parse().unwrap();
        assert_eq!(backup.expectation().byzantine, Some(Role::Backup));

        // Mixed with other faults the liar could hold legitimate evidence
        // against its peer, so containment cannot be asserted.
        let mixed: FaultSchedule = "@500 byz-hb primary freeze; @900 crash backup"
            .parse()
            .unwrap();
        let e = mixed.expectation();
        assert_eq!(e.byzantine, None);
        // The liar gets STONITHed and the peer crashed: both sides dead.
        assert!(e.service_may_be_lost);

        let both: FaultSchedule = "@500 byz-hb primary freeze; @600 byz-hb backup regress"
            .parse()
            .unwrap();
        assert_eq!(both.expectation().byzantine, None);
    }

    #[test]
    fn expectation_rules() {
        let strict: FaultSchedule = "@300 drop-tap 10".parse().unwrap();
        let e = strict.expectation();
        assert!(!e.verdicts_possible);
        assert!(!e.service_may_be_lost);
        assert!(!e.unrecoverable_gap_possible);
        assert!(e.max_stall.is_some());

        // Even a small corruption budget may legitimately provoke a
        // verdict: frame counts are not time windows, and under sparse
        // traffic a few eaten heartbeats look exactly like a blackout.
        let corrupt: FaultSchedule = "@300 corrupt backup 8".parse().unwrap();
        let e = corrupt.expectation();
        assert!(e.verdicts_possible, "corruption can eat heartbeats");
        assert!(e.max_stall.is_none(), "corruption can stall via RTO");
        // Corruption toward the backup is both a tap risk and a
        // primary-death risk (the backup may condemn a dark primary).
        assert!(e.unrecoverable_gap_possible);
        assert!(e.service_may_be_lost);

        let crash: FaultSchedule = "@500 crash primary".parse().unwrap();
        let e = crash.expectation();
        assert!(e.verdicts_possible);
        assert!(!e.service_may_be_lost);

        let double: FaultSchedule = "@500 crash primary; @900 crash backup".parse().unwrap();
        assert!(double.expectation().service_may_be_lost);

        let split: FaultSchedule = "@500 serial-fail; @600 cut primary".parse().unwrap();
        assert!(split.expectation().service_may_be_lost);

        let gap: FaultSchedule = "@300 drop-tap 10; @500 crash primary".parse().unwrap();
        assert!(gap.expectation().unrecoverable_gap_possible);

        let rst: FaultSchedule = "@500 app-crash primary rst".parse().unwrap();
        assert!(rst.expectation().abortive_close_possible);

        let serial_only: FaultSchedule = "@500 serial-fail".parse().unwrap();
        let e = serial_only.expectation();
        assert!(
            !e.verdicts_possible,
            "a serial failure alone must never provoke a verdict"
        );

        // Serial dead + corruption toward a server: that server sees both
        // heartbeat links dark and may correctly condemn its peer.
        let deaf: FaultSchedule = "@500 serial-fail; @600 corrupt primary 5".parse().unwrap();
        assert!(deaf.expectation().verdicts_possible);

        // A deaf backup can STONITH the primary, so tap corruption then
        // becomes both a gap risk and a client-path risk.
        let deaf_backup: FaultSchedule = "@500 serial-fail; @600 corrupt backup 5".parse().unwrap();
        let e = deaf_backup.expectation();
        assert!(e.verdicts_possible);
        assert!(e.unrecoverable_gap_possible);
        assert!(e.service_may_be_lost);

        // Tap drop plus a dead primary: after takeover the tap filter
        // starves the client's path to the new active server, so
        // completion cannot be demanded.
        let tap_then_dead: FaultSchedule = "@100 cut primary; @200 drop-tap 16".parse().unwrap();
        assert!(tap_then_dead.expectation().service_may_be_lost);

        // Duplication, reordering, and bounded jitter are benign: no
        // verdict may fire, the download completes, and stalls stay
        // bounded.
        let benign: FaultSchedule = "@300 dup primary 6; @400 reorder backup 4; \
                                     @500 jitter client 25; @900 jitter-end client"
            .parse()
            .unwrap();
        let e = benign.expectation();
        assert!(!e.verdicts_possible);
        assert!(!e.service_may_be_lost);
        assert!(!e.unrecoverable_gap_possible);
        assert!(e.max_stall.is_some());
    }

    /// The one applier, every verb, both topologies: a one-action
    /// schedule (reboot needs its crash first) must leave exactly the
    /// fault-log entry that names the rank-0 / rank-1 node, its switch
    /// link, or the rank-0 ↔ rank-1 cable. `{n*}` are node names, `{i*}`
    /// node ids, `{l*}` link ids (`c` the client's), `{ser}` the cable.
    #[test]
    fn every_verb_lands_on_the_addressed_rank_in_pair_and_pool() {
        const TABLE: [(&str, &str); 18] = [
            ("@5 crash primary", "crash {n0}"),
            ("@4 crash backup; @5 reboot backup", "power on {n1}"),
            ("@5 nic-down primary", "fail nic0 on {n0}"),
            ("@5 nic-up backup", "restore nic0 on {n1}"),
            ("@5 cut backup", "cut link {l1}"),
            ("@5 restore primary", "restore link {l0}"),
            ("@5 loss client 30", "loss 0.3 on link {lc} b->a"),
            ("@5 loss-end backup", "loss 0 on link {l1} b->a"),
            ("@5 drop-tap 5", "filter on link {l1} b->a"),
            ("@5 corrupt primary 3", "corrupt next 3 on link {l0} b->a"),
            ("@5 serial-fail", "fail serial {ser}"),
            ("@5 serial-restore", "restore serial {ser}"),
            (
                "@5 app-crash backup silent",
                "app crash (SilentNoCleanup) on n{i1}",
            ),
            ("@5 dup backup 2", "dup next 2 on link {l1} b->a"),
            ("@5 reorder primary 2", "reorder next 2 on link {l0} b->a"),
            ("@5 jitter backup 5", "jitter 5000us on link {l1} b->a"),
            ("@5 jitter-end primary", "jitter 0us on link {l0} b->a"),
            ("@5 byz-hb primary freeze", "byzantine hb (Freeze) on n{i0}"),
        ];
        for topology in [Topology::Pair, Topology::Pool(3)] {
            for ((text, want), kind) in TABLE.iter().zip(ChaosAction::KINDS) {
                let schedule: FaultSchedule = text.parse().unwrap();
                assert_eq!(schedule.actions.last().unwrap().action.kind(), kind);
                let (app, load) = workload_pair(ChaosWorkload::Download, 4096);
                let mut s = ScenarioBuilder::new(app, load).topology(topology).build();
                schedule.apply(&mut s);
                s.world.run_until(SimTime::from_millis(6));
                let mut want = want.to_string();
                for (i, &node) in s.servers.iter().enumerate().take(2) {
                    want = want
                        .replace(&format!("{{n{i}}}"), s.world.node_name(node))
                        .replace(&format!("{{i{i}}}"), &node.0.to_string())
                        .replace(&format!("{{l{i}}}"), &s.server_links[i].0.to_string());
                }
                want = want
                    .replace("{lc}", &s.link_client.0.to_string())
                    .replace("{ser}", &s.serials[0].0.to_string());
                let got = s.world.faults().last().map(|(_, what)| what.as_str());
                assert_eq!(got, Some(&want[..]), "{topology:?}: {text}");
            }
        }
    }

    #[test]
    fn shrink_with_reduces_to_relevant_core() {
        let sched: FaultSchedule = "@100 drop-tap 3; @500 crash primary; @700 serial-fail; \
                                    @900 nic-down backup; @1100 corrupt client 2"
            .parse()
            .unwrap();
        // Synthetic failure: needs the crash and the serial failure.
        let (min, runs) = shrink_with(&sched, |s| {
            let crash = s
                .actions
                .iter()
                .any(|a| a.action == ChaosAction::Crash(Side::Primary));
            let serial = s
                .actions
                .iter()
                .any(|a| a.action == ChaosAction::SerialFail);
            crash && serial
        });
        assert_eq!(min.len(), 2, "shrunk to {min}");
        assert!(runs > 2);
        // Time snapping kicked in: 700 → 500 (multiple of 500), 500 stays.
        assert_eq!(min.actions[0].at_ms, 500);
        assert_eq!(min.actions[1].at_ms, 500);
    }

    #[test]
    fn shrink_with_leaves_passing_schedule_alone() {
        let sched: FaultSchedule = "@500 crash primary".parse().unwrap();
        let (out, runs) = shrink_with(&sched, |_| false);
        assert_eq!(out, sched);
        assert_eq!(runs, 1);
    }
}
