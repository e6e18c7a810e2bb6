//! Bounded-exhaustive fault-timing exploration: the milestone lattice.
//!
//! Random chaos ([`crate::chaos`]) samples the fault-timing space; this
//! module *enumerates* a bounded slice of it. A fault-free probe run is
//! harvested for protocol milestones ([`sttcp::milestone`]): connection
//! establishment, first data byte, hold-buffer arming, each heartbeat
//! round and its liveness deadline, FIN hold/release. Fault injection
//! times are then quantized to a lattice anchored on those milestones —
//! at each one, just before, just after, and midway between each
//! adjacent pair — so a bug that only fires in the narrow window between
//! two protocol events occupies a lattice point by construction instead
//! of waiting for a lucky seed.
//!
//! The action grammar is pruned to the faults whose *timing* matters:
//! crash, NIC failure, cable cut, serial failure, application crash,
//! byzantine heartbeats — the one-shot state transitions — plus *flap*
//! composites (a NIC / cable / serial outage repaired after a fixed
//! dwell). Flaps are first-class grammar actions because several
//! protocol windows only open *after* a repair — a retransmission
//! backlog draining through a healed NIC, reintegration over a healed
//! cable — and no single one-shot action can open them. Budgeted
//! episodes (loss bursts, corruption, jitter) are left to the random
//! hunt; their effect integrates over a window, so milestone-relative
//! placement adds nothing an episode straddling the milestone does not
//! already cover.
//!
//! Two tiers are enumerated:
//!
//! * **1-fault**: every grammar action at every anchor (including the
//!   ±ε and between-milestone anchors).
//! * **2-fault**: every ordered pair of grammar actions; the first at
//!   every milestone `At` time, the second at every later milestone
//!   time *and* at a fixed set of protocol-characteristic offsets
//!   after the first (ε, half and full heartbeat period, the detection
//!   timeout, the flap dwell and dwell-plus-periods). The offsets
//!   exist because the first fault shifts every downstream milestone —
//!   the fault-free trace's absolute times stop describing the
//!   perturbed run's phases — so the second fault is also quantized
//!   *relative to the first*. Pairs are canonicalized: same-instant
//!   pairs run in one representative order (the mirrored schedule is
//!   behaviorally a permutation of the same injection batch), and
//!   vacuous second actions are pruned.
//!
//! **Pruning soundness.** A pruned point is never silently dropped from
//! a violation class; each rule removes only schedules whose observable
//! behavior equals that of a *retained* schedule:
//!
//! * *Mirror canonicalization* (same-instant pairs): both orders inject
//!   the same action set at the same virtual instant; the retained
//!   representative exercises the same batch.
//! * *Dead-node vacuity*: after `crash s`, any second action on node
//!   `s` (its NIC, link, application, heartbeat source) acts on a
//!   powered-off node. The world is byte-identical to the retained
//!   1-fault schedule `crash s`, which is always in the lattice.
//! * *Idempotent re-injection*: a second `app-crash` on an already-dead
//!   application, a second `serial-fail` on a dead cable, or an exact
//!   repeat of a one-shot action changes nothing; the retained 1-fault
//!   point covers it. An identical *flap* repeated at the same instant
//!   is likewise a duplicate injection batch — but a repeat at a later
//!   time is two spaced (or overlap-extended) outages, a genuinely new
//!   schedule, and is retained.
//!
//! Every lattice point runs through [`run_chaos_case`] and is judged by
//! the same [`sttcp::invariant::check`] oracle as the random hunt;
//! violations shrink through the same [`shrink_schedule`] delta
//! debugger. Enumeration order is deterministic, so a fold over
//! [`Lattice::schedules`] is bit-identical at any thread count.

use std::collections::{BTreeMap, BTreeSet};

use sttcp::config::StTcpConfig;
use sttcp::events::StTcpEvent;
use sttcp::invariant::Outcome;
use sttcp::milestone::{harvest, Milestone, MilestoneKind};
use sttcp::server::{AppCrashMode, ByzantineHbMode};

use crate::chaos::{
    run_chaos_case, shrink_schedule, ChaosAction, ChaosOptions, ChaosReport, FaultSchedule,
    LinkSel, ShrinkResult, Side,
};
use crate::scenario::Topology;

/// Schema identifier stamped into every coverage report this explorer
/// emits; bump when the report layout changes.
pub const EXPLORE_SCHEMA_VERSION: u32 = 1;

/// How far "just before" / "just after" anchors sit from their
/// milestone, in virtual milliseconds. Small enough to land inside the
/// same protocol phase, large enough to order distinctly against the
/// milestone's own event batch.
pub const EPSILON_MS: u64 = 5;

/// Dwell of a flap composite: how long the faulted resource stays down
/// before the matching repair fires, in virtual milliseconds. Chosen
/// to out-last the heartbeat detection timeout (3 × 200 ms) so a flap
/// is *observable* as an outage — a shorter flap is a strictly gentler
/// version of the same transition pair.
pub const FLAP_DWELL_MS: u64 = 800;

/// One grammar element: a single one-shot fault, or a transient *flap*
/// composite — `fault` at the anchor, `repair` [`FLAP_DWELL_MS`]
/// later. A flap occupies one grammar slot: treating the outage and
/// its repair as separate lattice faults would spend both slots of a
/// 2-fault schedule on the outage alone and leave nothing to compose
/// with the post-repair window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GrammarOp {
    /// A single one-shot fault.
    Single(ChaosAction),
    /// `fault` at the anchor, `repair` [`FLAP_DWELL_MS`] later.
    Flap {
        /// The outage injected at the anchor.
        fault: ChaosAction,
        /// The matching repair, [`FLAP_DWELL_MS`] after the anchor.
        repair: ChaosAction,
    },
}

impl GrammarOp {
    /// The action injected at the anchor itself. Vacuity reasons about
    /// this initiating transition: a repair on a node that a prior
    /// fault powered off is as inert as its fault.
    pub fn initiating(self) -> ChaosAction {
        match self {
            GrammarOp::Single(a) | GrammarOp::Flap { fault: a, .. } => a,
        }
    }

    /// Appends this op's timed actions to `s`, anchored at `at_ms`.
    pub fn push_onto(self, s: &mut FaultSchedule, at_ms: u64) {
        match self {
            GrammarOp::Single(a) => s.push(at_ms, a),
            GrammarOp::Flap { fault, repair } => {
                s.push(at_ms, fault);
                s.push(at_ms + FLAP_DWELL_MS, repair);
            }
        }
    }
}

/// The pruned action grammar: the one-shot state-transition faults
/// whose injection *timing* is the variable under test, plus the flap
/// composites, enumerated in a fixed canonical order (pair
/// canonicalization compares indices into this list).
pub fn grammar() -> Vec<GrammarOp> {
    let mut g = Vec::new();
    for side in [Side::Primary, Side::Backup] {
        g.push(GrammarOp::Single(ChaosAction::Crash(side)));
        g.push(GrammarOp::Single(ChaosAction::NicDown(side)));
        g.push(GrammarOp::Single(ChaosAction::LinkCut(side.link())));
        for mode in [
            AppCrashMode::SilentNoCleanup,
            AppCrashMode::CleanupFin,
            AppCrashMode::CleanupRst,
        ] {
            g.push(GrammarOp::Single(ChaosAction::AppCrash(side, mode)));
        }
        for mode in [ByzantineHbMode::Freeze, ByzantineHbMode::Regress] {
            g.push(GrammarOp::Single(ChaosAction::ByzantineHb(side, mode)));
        }
        g.push(GrammarOp::Flap {
            fault: ChaosAction::NicDown(side),
            repair: ChaosAction::NicUp(side),
        });
        g.push(GrammarOp::Flap {
            fault: ChaosAction::LinkCut(side.link()),
            repair: ChaosAction::LinkRestore(side.link()),
        });
    }
    g.push(GrammarOp::Single(ChaosAction::SerialFail));
    g.push(GrammarOp::Flap {
        fault: ChaosAction::SerialFail,
        repair: ChaosAction::SerialRestore,
    });
    g
}

/// The quantized offsets at which the pair tier places its second
/// fault relative to the first, in virtual milliseconds: ε, half and
/// full heartbeat period, the detection timeout, and the flap dwell
/// alone and stretched by heartbeat periods (the windows right after a
/// flap's repair). Derived from the run's configuration (the chaos
/// harness's [`ChaosOptions::sttcp`]), so the offsets track the
/// protocol's actual timescales.
pub fn pair_offsets(cfg: &StTcpConfig) -> Vec<u64> {
    let hp = cfg.hb_period.as_millis();
    let ht = cfg.hb_timeout().as_millis();
    let mut offs = vec![
        EPSILON_MS,
        hp / 2,
        hp,
        ht,
        FLAP_DWELL_MS,
        FLAP_DWELL_MS + hp / 2,
        FLAP_DWELL_MS + hp,
        FLAP_DWELL_MS + 2 * hp,
    ];
    offs.sort_unstable();
    offs.dedup();
    offs.retain(|&d| d > 0);
    offs
}

/// Where an anchor sits relative to its milestone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AnchorKind {
    /// `EPSILON_MS` before the milestone.
    Before,
    /// Exactly at the milestone.
    At,
    /// `EPSILON_MS` after the milestone.
    After,
    /// Midway between this milestone and the next distinct one.
    Between,
}

impl AnchorKind {
    /// Stable key for coverage reports.
    pub fn key(self) -> &'static str {
        match self {
            AnchorKind::Before => "before",
            AnchorKind::At => "at",
            AnchorKind::After => "after",
            AnchorKind::Between => "between",
        }
    }
}

/// One quantized injection time, tagged with the milestone that anchors
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Anchor {
    /// Injection time in virtual milliseconds.
    pub at_ms: u64,
    /// Position relative to the anchoring milestone.
    pub kind: AnchorKind,
    /// The anchoring milestone (for `Between`, the earlier one).
    pub milestone: MilestoneKind,
}

/// Builds the full anchor set from a harvested milestone list: at /
/// just-before / just-after each milestone, plus the midpoint between
/// each adjacent pair of distinct milestone times. Deduplicated by time
/// (first tag wins), time 0 excluded (the world needs one instant of
/// healthy start-up for a "before everything" point to differ from not
/// running at all — the empty schedule covers that).
pub fn anchors(milestones: &[Milestone]) -> Vec<Anchor> {
    // Distinct milestone times in order, each with the first kind
    // harvested at that time (milestones arrive sorted by (at, kind)).
    let mut times: Vec<(u64, MilestoneKind)> = Vec::new();
    for m in milestones {
        let ms = m.at.as_millis();
        if times.last().map(|&(t, _)| t) != Some(ms) {
            times.push((ms, m.kind));
        }
    }

    let mut out: Vec<Anchor> = Vec::new();
    let mut push = |at_ms: u64, kind: AnchorKind, milestone: MilestoneKind| {
        if at_ms > 0 && !out.iter().any(|a| a.at_ms == at_ms) {
            out.push(Anchor {
                at_ms,
                kind,
                milestone,
            });
        }
    };
    for &(t, kind) in &times {
        push(t.saturating_sub(EPSILON_MS), AnchorKind::Before, kind);
        push(t, AnchorKind::At, kind);
        push(t + EPSILON_MS, AnchorKind::After, kind);
    }
    for w in times.windows(2) {
        let (t1, kind) = w[0];
        let t2 = w[1].0;
        push(t1 + (t2 - t1) / 2, AnchorKind::Between, kind);
    }
    out.sort_by_key(|a| a.at_ms);
    out
}

/// The node a grammar action acts on or through — `None` for the serial
/// cable, which belongs to both.
fn side_of(a: ChaosAction) -> Option<Side> {
    match a {
        ChaosAction::Crash(s)
        | ChaosAction::NicDown(s)
        | ChaosAction::AppCrash(s, _)
        | ChaosAction::ByzantineHb(s, _) => Some(s),
        ChaosAction::LinkCut(LinkSel::Primary) => Some(Side::Primary),
        ChaosAction::LinkCut(LinkSel::Backup) => Some(Side::Backup),
        _ => None,
    }
}

/// True when `second`, injected at or after `first` (`same_instant`
/// says which), cannot change the world's observable behavior — see
/// the module docs for why each rule maps the pruned pair onto a
/// retained schedule.
pub fn vacuous_after(first: GrammarOp, second: GrammarOp, same_instant: bool) -> bool {
    // The node is powered off: nothing on it — fault or repair — can
    // observably change.
    if let GrammarOp::Single(ChaosAction::Crash(s)) = first {
        return side_of(second.initiating()) == Some(s);
    }
    match (first, second) {
        // The application is already gone; crash mode of a dead app is
        // unobservable.
        (
            GrammarOp::Single(ChaosAction::AppCrash(s, _)),
            GrammarOp::Single(ChaosAction::AppCrash(s2, _)),
        ) => s == s2,
        // One-shot re-injection: a dead cable stays dead, a downed NIC
        // stays down, a byzantine mode re-armed is the same lie.
        (GrammarOp::Single(a), GrammarOp::Single(b)) => a == b,
        // An identical flap at the same instant duplicates the batch;
        // a repeat at a later time is a spaced or overlap-extended
        // double outage — a real schedule — and is retained.
        (GrammarOp::Flap { .. }, _) => same_instant && first == second,
        _ => false,
    }
}

/// The enumerated lattice: every schedule to run, in deterministic
/// order, plus the bookkeeping a coverage report needs.
#[derive(Debug, Clone)]
pub struct Lattice {
    /// Milestones the anchors were derived from.
    pub milestones: Vec<Milestone>,
    /// The full anchor set (1-fault tier).
    pub anchors: Vec<Anchor>,
    /// The relative offsets the pair tier adds to each first-fault
    /// time ([`pair_offsets`]).
    pub offsets: Vec<u64>,
    /// Every lattice point, 1-fault tier first, then the canonicalized
    /// 2-fault tier, in enumeration order.
    pub schedules: Vec<FaultSchedule>,
    /// Points in the 1-fault tier (prefix of `schedules`).
    pub single_points: usize,
    /// Ordered `(t1, t2)` time pairs the pair tier enumerated (the raw
    /// pair product is this times the squared grammar size).
    pub pair_time_pairs: usize,
    /// Points in the 2-fault tier.
    pub pair_points: usize,
    /// Same-instant mirror pairs canonicalized away.
    pub mirrored_pruned: usize,
    /// Vacuous second actions pruned.
    pub vacuous_pruned: usize,
}

/// Enumerates the lattice for a milestone list. 1-fault points use all
/// anchors; 2-fault points anchor the first fault at the milestone
/// `At` times (the ±ε / midpoint refinement is a single-fault luxury —
/// quadratic in pairs it would outgrow a nightly budget without adding
/// a new *ordering* of protocol phases) and the second fault at every
/// later `At` time plus every [`pair_offsets`] delta after the first.
pub fn build_lattice(milestones: &[Milestone], cfg: &StTcpConfig) -> Lattice {
    let g = grammar();
    let offsets = pair_offsets(cfg);
    let anchor_list = anchors(milestones);
    let at_times: Vec<u64> = anchor_list
        .iter()
        .filter(|a| a.kind == AnchorKind::At)
        .map(|a| a.at_ms)
        .collect();

    let mut schedules = Vec::new();
    for a in &anchor_list {
        for &op in &g {
            let mut s = FaultSchedule::default();
            op.push_onto(&mut s, a.at_ms);
            s.sort();
            schedules.push(s);
        }
    }
    let single_points = schedules.len();

    let mut mirrored = 0usize;
    let mut vacuous = 0usize;
    let mut time_pairs = 0usize;
    for (i1, &t1) in at_times.iter().enumerate() {
        // Second-fault times: later milestones, plus the quantized
        // offsets after t1. BTreeSet dedups the collisions (an offset
        // landing exactly on a milestone) and fixes enumeration order.
        let mut t2s: BTreeSet<u64> = at_times[i1..].iter().copied().collect();
        for &d in &offsets {
            t2s.insert(t1 + d);
        }
        for &t2 in &t2s {
            time_pairs += 1;
            for (g1, &op1) in g.iter().enumerate() {
                for (g2, &op2) in g.iter().enumerate() {
                    if t1 == t2 && g1 > g2 {
                        mirrored += 1;
                        continue;
                    }
                    if vacuous_after(op1, op2, t1 == t2) {
                        vacuous += 1;
                        continue;
                    }
                    let mut s = FaultSchedule::default();
                    op1.push_onto(&mut s, t1);
                    op2.push_onto(&mut s, t2);
                    s.sort();
                    schedules.push(s);
                }
            }
        }
    }
    let pair_points = schedules.len() - single_points;

    Lattice {
        milestones: milestones.to_vec(),
        anchors: anchor_list,
        offsets,
        schedules,
        single_points,
        pair_time_pairs: time_pairs,
        pair_points,
        mirrored_pruned: mirrored,
        vacuous_pruned: vacuous,
    }
}

/// Runs the fault-free probe and harvests its milestones. The probe
/// runs under the same `(seed, opts)` as every lattice point, so the
/// milestones are exactly the phase boundaries the faulted runs will
/// perturb.
pub fn probe_milestones(seed: u64, opts: &ChaosOptions) -> (Vec<Milestone>, ChaosReport) {
    let report = run_chaos_case(Topology::Pair, seed, &FaultSchedule::default(), opts);
    let ms = harvest(
        &report.member_events[0],
        &report.member_events[1],
        &opts.sttcp,
    );
    (ms, report)
}

/// What one lattice point produced, reduced to what the fold needs.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// The checker's classification.
    pub outcome: Outcome,
    /// Stable digest of everything observable in the run.
    pub fingerprint: u64,
    /// Detector verdicts fired in either server's log, by stable key,
    /// in log order (verdict-matrix coverage).
    pub verdicts: Vec<&'static str>,
    /// Violated invariant names (empty unless `outcome` is
    /// `Violation`).
    pub violated: Vec<&'static str>,
}

/// Executes one lattice point and reduces it to a [`CaseResult`].
pub fn explore_case(seed: u64, schedule: &FaultSchedule, opts: &ChaosOptions) -> CaseResult {
    let report = run_chaos_case(Topology::Pair, seed, schedule, opts);
    let verdicts = report
        .member_events
        .iter()
        .flatten()
        .filter_map(|e| match e {
            StTcpEvent::PeerDeclaredFailed { reason, .. } => Some(reason.key()),
            _ => None,
        })
        .collect();
    CaseResult {
        outcome: report.outcome,
        fingerprint: report.fingerprint(),
        verdicts,
        violated: report.violations.iter().map(|v| v.invariant).collect(),
    }
}

/// A lattice point that violated an invariant, with its shrunk
/// reproducer.
#[derive(Debug, Clone)]
pub struct ViolationCase {
    /// Index into [`Lattice::schedules`].
    pub index: usize,
    /// The violating schedule as enumerated.
    pub schedule: FaultSchedule,
    /// Violated invariant names, sorted (the dedup class key).
    pub invariants: Vec<&'static str>,
    /// The shrunk reproducer.
    pub shrunk: FaultSchedule,
    /// Chaos runs the shrinker spent.
    pub shrink_runs: usize,
    /// Flight-recorder tail from replaying the shrunk reproducer — the
    /// trace that ships with the repro.
    pub flight: Option<simnet::flight::FlightSnapshot>,
}

/// Order-sensitive fold of an exploration — build it by calling
/// [`ExploreSummary::add`] over case results **in lattice order**; the
/// result (and any report rendered from it) is then bit-identical at
/// any thread count.
#[derive(Debug, Clone, Default)]
pub struct ExploreSummary {
    /// Lattice points executed.
    pub points: usize,
    /// Count per [`Outcome`], keyed by stable name.
    pub outcomes: BTreeMap<&'static str, u64>,
    /// Distinct behavior fingerprints, with multiplicity.
    pub fingerprints: BTreeMap<u64, u64>,
    /// Verdict-matrix coverage: detector key → points where it fired.
    pub verdict_cells: BTreeMap<&'static str, u64>,
    /// Violating points in lattice order, one per distinct invariant
    /// class (later points repeating an already-seen class are counted
    /// in `violation_points` but not shrunk again).
    pub violations: Vec<ViolationCase>,
    /// Total violating points, including class repeats.
    pub violation_points: usize,
}

/// Stable name for an outcome, used as a report key.
pub fn outcome_key(o: Outcome) -> &'static str {
    match o {
        Outcome::Clean => "clean",
        Outcome::Recovered => "recovered",
        Outcome::DetectedUnrecoverable => "detected_unrecoverable",
        Outcome::ServiceLost => "service_lost",
        Outcome::Violation => "violation",
    }
}

impl ExploreSummary {
    /// Folds one case result in. `shrink` maps a violating schedule to
    /// its minimized reproducer — pass [`shrink_point`] for the real
    /// thing; tests stub it to keep folds cheap.
    pub fn add(
        &mut self,
        index: usize,
        schedule: &FaultSchedule,
        case: &CaseResult,
        shrink: &mut dyn FnMut(&FaultSchedule) -> ShrinkResult,
    ) {
        self.points += 1;
        *self.outcomes.entry(outcome_key(case.outcome)).or_insert(0) += 1;
        *self.fingerprints.entry(case.fingerprint).or_insert(0) += 1;
        let mut seen = Vec::new();
        for v in &case.verdicts {
            if !seen.contains(v) {
                seen.push(v);
                *self.verdict_cells.entry(v).or_insert(0) += 1;
            }
        }
        if case.outcome == Outcome::Violation {
            self.violation_points += 1;
            let mut invariants = case.violated.clone();
            invariants.sort_unstable();
            invariants.dedup();
            if !self.violations.iter().any(|v| v.invariants == invariants) {
                let r = shrink(schedule);
                self.violations.push(ViolationCase {
                    index,
                    schedule: schedule.clone(),
                    invariants,
                    shrunk: r.schedule,
                    shrink_runs: r.runs,
                    flight: r.flight,
                });
            }
        }
    }
}

/// The real shrinker for [`ExploreSummary::add`]: delta-debug the
/// schedule under the same `(seed, opts)` that exposed it.
pub fn shrink_point(seed: u64, opts: &ChaosOptions, schedule: &FaultSchedule) -> ShrinkResult {
    shrink_schedule(Topology::Pair, seed, schedule, opts)
}

/// A deterministic stride subset of `total` lattice indices with at
/// most `budget` members, spanning the whole lattice — the PR-CI smoke
/// runs this; the nightly tier runs everything. Returns all indices
/// when the budget covers them.
pub fn budget_indices(total: usize, budget: usize) -> Vec<usize> {
    if budget == 0 || total == 0 {
        return Vec::new();
    }
    if budget >= total {
        return (0..total).collect();
    }
    // Evenly spaced without floats: index i*total/budget is strictly
    // increasing because budget < total.
    (0..budget).map(|i| i * total / budget).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::chaos_config;
    use simnet::time::SimTime;
    use sttcp::milestone::MilestoneKind;

    fn ms(kind: MilestoneKind, at_ms: u64) -> Milestone {
        Milestone {
            kind,
            at: SimTime::from_millis(at_ms),
        }
    }

    #[test]
    fn grammar_is_fixed_and_deduplicated() {
        let g = grammar();
        assert_eq!(g.len(), 22);
        for (i, a) in g.iter().enumerate() {
            assert!(!g[..i].contains(a), "duplicate grammar op {a:?}");
        }
        let flaps = g
            .iter()
            .filter(|op| matches!(op, GrammarOp::Flap { .. }))
            .count();
        assert_eq!(flaps, 5, "nic x2, cable x2, serial");
        // Every flap pairs a fault with its matching repair kind.
        for op in &g {
            if let GrammarOp::Flap { fault, repair } = op {
                let expected = match fault.kind() {
                    "nic-down" => "nic-up",
                    "cut" => "restore",
                    "serial-fail" => "serial-restore",
                    other => panic!("unexpected flap fault kind {other}"),
                };
                assert_eq!(repair.kind(), expected);
            }
        }
    }

    #[test]
    fn pair_offsets_are_sorted_positive_and_cover_the_flap_dwell() {
        let offs = pair_offsets(&chaos_config());
        assert!(offs.windows(2).all(|w| w[0] < w[1]));
        assert!(offs.iter().all(|&d| d > 0));
        assert!(offs.contains(&EPSILON_MS));
        assert!(offs.contains(&FLAP_DWELL_MS));
        // At least one offset strictly after the dwell: the post-repair
        // window a flap exists to open.
        assert!(offs.iter().any(|&d| d > FLAP_DWELL_MS));
    }

    #[test]
    fn flap_expands_to_fault_then_repair() {
        let op = GrammarOp::Flap {
            fault: ChaosAction::NicDown(Side::Primary),
            repair: ChaosAction::NicUp(Side::Primary),
        };
        let mut s = FaultSchedule::default();
        op.push_onto(&mut s, 200);
        s.sort();
        assert_eq!(s.to_string(), "@200 nic-down primary; @1000 nic-up primary");
        assert_eq!(op.initiating(), ChaosAction::NicDown(Side::Primary));
    }

    #[test]
    fn anchors_cover_before_at_after_and_midpoints() {
        let m = [
            ms(MilestoneKind::Established, 30),
            ms(MilestoneKind::HoldArmed, 30),
            ms(MilestoneKind::HbRound(1), 200),
        ];
        let a = anchors(&m);
        let at = |t: u64| a.iter().find(|x| x.at_ms == t);
        assert_eq!(at(25).unwrap().kind, AnchorKind::Before);
        assert_eq!(at(30).unwrap().kind, AnchorKind::At);
        assert_eq!(at(35).unwrap().kind, AnchorKind::After);
        assert_eq!(at(115).unwrap().kind, AnchorKind::Between);
        assert_eq!(at(200).unwrap().kind, AnchorKind::At);
        // Sorted, unique, no time-zero anchor.
        assert!(a.windows(2).all(|w| w[0].at_ms < w[1].at_ms));
        assert!(a.iter().all(|x| x.at_ms > 0));
    }

    #[test]
    fn pair_tier_is_canonicalized_and_pruned() {
        let m = [
            ms(MilestoneKind::Established, 100),
            ms(MilestoneKind::HbRound(1), 200),
        ];
        let lat = build_lattice(&m, &chaos_config());
        let g = grammar().len();
        assert_eq!(lat.single_points, lat.anchors.len() * g);
        assert!(lat.mirrored_pruned > 0);
        assert!(lat.vacuous_pruned > 0);
        // Each at-time contributes the later at-times plus the offset
        // grid (deduplicated): t1=100 collides with the 200 milestone
        // via the hb-period offset, t1=200 has only itself as a later
        // milestone.
        let offs = pair_offsets(&chaos_config());
        assert_eq!(lat.pair_time_pairs, (2 + offs.len() - 1) + (1 + offs.len()));
        // Every pair schedule is time-sorted and holds 2–4 timed
        // actions (two singles up to two flaps).
        for s in &lat.schedules[lat.single_points..] {
            assert!((2..=4).contains(&s.len()), "bad pair arity {s}");
            assert!(s.actions.windows(2).all(|w| w[0].at_ms <= w[1].at_ms));
        }
        // Exactly one same-instant ordering survives per unordered op
        // pair: the mirrored count is (g choose 2) per at-time.
        assert_eq!(lat.mirrored_pruned, 2 * g * (g - 1) / 2);
        // The accounting adds up: enumerated + pruned = the raw product
        // over the enumerated time pairs.
        assert_eq!(
            lat.pair_points + lat.mirrored_pruned + lat.vacuous_pruned,
            lat.pair_time_pairs * g * g
        );
    }

    #[test]
    fn lattice_contains_the_post_repair_crash_window() {
        // The window that motivates flap composites: a transient NIC
        // outage at a heartbeat round, repaired, then an application
        // crash one heartbeat period after the repair — the shape that
        // exposed the PR-1 held-RST bug.
        let m = [
            ms(MilestoneKind::Established, 30),
            ms(MilestoneKind::HbRound(1), 200),
        ];
        let lat = build_lattice(&m, &chaos_config());
        let want = "@200 nic-down primary; @1000 nic-up primary; @1200 app-crash primary rst";
        assert!(
            lat.schedules.iter().any(|s| s.to_string() == want),
            "missing lattice point {want}"
        );
    }

    #[test]
    fn vacuity_rules_match_their_soundness_argument() {
        use ChaosAction::*;
        use GrammarOp::Single;
        let nic_flap = |side: Side| GrammarOp::Flap {
            fault: NicDown(side),
            repair: NicUp(side),
        };
        // Dead node: anything on the crashed side is vacuous…
        assert!(vacuous_after(
            Single(Crash(Side::Primary)),
            Single(NicDown(Side::Primary)),
            false
        ));
        assert!(vacuous_after(
            Single(Crash(Side::Primary)),
            Single(AppCrash(Side::Primary, AppCrashMode::CleanupRst)),
            false
        ));
        assert!(vacuous_after(
            Single(Crash(Side::Primary)),
            Single(LinkCut(LinkSel::Primary)),
            false
        ));
        // …including a flap initiated on the dead side…
        assert!(vacuous_after(
            Single(Crash(Side::Primary)),
            nic_flap(Side::Primary),
            false
        ));
        // …but the serial cable and the other side are not.
        assert!(!vacuous_after(
            Single(Crash(Side::Primary)),
            Single(SerialFail),
            false
        ));
        assert!(!vacuous_after(
            Single(Crash(Side::Primary)),
            Single(Crash(Side::Backup)),
            false
        ));
        assert!(!vacuous_after(
            Single(Crash(Side::Primary)),
            nic_flap(Side::Backup),
            false
        ));
        // App death is per-side and mode-independent.
        assert!(vacuous_after(
            Single(AppCrash(Side::Backup, AppCrashMode::SilentNoCleanup)),
            Single(AppCrash(Side::Backup, AppCrashMode::CleanupFin)),
            false
        ));
        assert!(!vacuous_after(
            Single(AppCrash(Side::Backup, AppCrashMode::SilentNoCleanup)),
            Single(Crash(Side::Backup)),
            false
        ));
        // Byzantine mode *changes* are a real new behavior.
        assert!(!vacuous_after(
            Single(ByzantineHb(Side::Primary, ByzantineHbMode::Freeze)),
            Single(ByzantineHb(Side::Primary, ByzantineHbMode::Regress)),
            false
        ));
        assert!(vacuous_after(
            Single(ByzantineHb(Side::Primary, ByzantineHbMode::Freeze)),
            Single(ByzantineHb(Side::Primary, ByzantineHbMode::Freeze)),
            false
        ));
        // Identical flaps collapse only at the same instant; spaced
        // repeats are a double outage and stay.
        assert!(vacuous_after(
            nic_flap(Side::Primary),
            nic_flap(Side::Primary),
            true
        ));
        assert!(!vacuous_after(
            nic_flap(Side::Primary),
            nic_flap(Side::Primary),
            false
        ));
        // A flap never swallows a later one-shot: a permanent NIC-down
        // after a transient one is a new world.
        assert!(!vacuous_after(
            nic_flap(Side::Primary),
            Single(NicDown(Side::Primary)),
            false
        ));
    }

    #[test]
    fn budget_indices_span_and_respect_budget() {
        assert_eq!(budget_indices(10, 20), (0..10).collect::<Vec<_>>());
        let sub = budget_indices(1000, 10);
        assert_eq!(sub.len(), 10);
        assert_eq!(sub[0], 0);
        assert!(sub.windows(2).all(|w| w[0] < w[1]));
        assert!(*sub.last().unwrap() >= 900);
        assert!(budget_indices(0, 5).is_empty());
        assert!(budget_indices(5, 0).is_empty());
    }

    #[test]
    fn summary_folds_violation_classes_once() {
        let mut s = ExploreSummary::default();
        let sched: FaultSchedule = "@100 crash primary".parse().unwrap();
        let case = CaseResult {
            outcome: Outcome::Violation,
            fingerprint: 7,
            verdicts: vec!["hb_both_links_down", "hb_both_links_down"],
            violated: vec!["client-completion"],
        };
        let mut stub = |s: &FaultSchedule| ShrinkResult {
            schedule: s.clone(),
            runs: 0,
            flight: None,
        };
        s.add(0, &sched, &case, &mut stub);
        s.add(1, &sched, &case, &mut stub);
        assert_eq!(s.points, 2);
        assert_eq!(s.violation_points, 2);
        assert_eq!(s.violations.len(), 1, "same class shrunk once");
        // A per-case repeated verdict counts once per point.
        assert_eq!(s.verdict_cells["hb_both_links_down"], 2);
    }
}
