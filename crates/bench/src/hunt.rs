//! The chaos-hunt sweep as a library: generate seeded fault schedules,
//! run each case, and fold outcome counters / phase aggregates /
//! detection-bound checks **in seed order**.
//!
//! Case *execution* fans out over a worker pool
//! ([`crate::parallel::parallel_seeds`]); each `World` is independent
//! and deterministic, so only the fold is order-sensitive. Folding in
//! seed order makes the summary — and the [`MetricsReport`] built from
//! it — bit-identical across `--threads` settings, which
//! `tests/chaos.rs` pins as a regression test.

use std::collections::BTreeMap;

use obs::json::Json;
use obs::report::MetricsReport;
use obs::timeline::PhaseBreakdown;
use simnet::time::SimTime;
use sttcp::config::PING_INTERVAL;
use sttcp::events::{FailureReason, StTcpEvent};
use sttcp::invariant::Outcome;
use sttcp_apps::chaos::{
    run_chaos_case, ChaosAction, ChaosOptions, ChaosReport, FaultSchedule, LinkSel,
};
use sttcp_apps::scenario::Topology;

use crate::parallel::parallel_seeds;
use crate::phases::{detection_bound, failover_timeline, PhaseAgg};

/// Which schedule generator a sweep draws from — and, with it, which
/// topology the cases run on. One value: the four are mutually
/// exclusive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flavour {
    /// 1–4 faults per schedule ([`FaultSchedule::generate`]).
    Single,
    /// Double-fault schedules (failure during repair).
    Double,
    /// Reintegrate-then-fail schedules (crash, warm reboot + rejoin,
    /// then crash the other side).
    Reintegrate,
    /// Takeover chains down a three-member pool (kill the active,
    /// usually reboot + rejoin it, kill the next active).
    Pool,
}

impl Flavour {
    /// The CLI flag that selects this flavour, with its trailing space
    /// (`Single` is the default and has none) — spliced into printed
    /// reproducer command lines.
    pub fn flag(self) -> &'static str {
        match self {
            Flavour::Single => "",
            Flavour::Double => "--double ",
            Flavour::Reintegrate => "--reintegrate ",
            Flavour::Pool => "--pool ",
        }
    }

    /// The sweep banner's name for this flavour.
    pub fn name(self) -> &'static str {
        match self {
            Flavour::Single => "multi-fault",
            Flavour::Double => "double-fault",
            Flavour::Reintegrate => "reintegrate-then-fail",
            Flavour::Pool => "pool",
        }
    }

    /// The topology this flavour's cases run on.
    pub fn topology(self) -> Topology {
        match self {
            Flavour::Pool => Topology::Pool(3),
            _ => Topology::Pair,
        }
    }

    /// Generates the schedule for `seed`.
    pub fn schedule(self, seed: u64) -> FaultSchedule {
        match self {
            Flavour::Single => FaultSchedule::generate(seed),
            Flavour::Double => FaultSchedule::generate_double(seed),
            Flavour::Reintegrate => FaultSchedule::generate_reintegrate(seed),
            Flavour::Pool => FaultSchedule::generate_pool(seed),
        }
    }
}

/// What to sweep: a contiguous seed range, the schedule generator
/// flavour, and how many worker threads to run cases on.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Number of seeds to sweep.
    pub seeds: u64,
    /// First seed.
    pub start: u64,
    /// Quick profile (smaller download, shorter horizon) — recorded in
    /// the report; the caller picks the matching [`ChaosOptions`].
    pub quick: bool,
    /// Schedule generator and topology.
    pub flavour: Flavour,
    /// Worker threads for case execution (`<= 1` runs inline).
    pub threads: usize,
}

/// One executed sweep case, handed to the fold callback in seed order.
pub struct SweepCase {
    /// The seed the schedule was generated from.
    pub seed: u64,
    /// The generated fault schedule.
    pub schedule: FaultSchedule,
    /// The chaos run's report.
    pub report: ChaosReport,
}

/// A fault → verdict latency that exceeded the configured bound for the
/// detector that fired.
pub struct BoundViolation {
    /// Seed of the offending run.
    pub seed: u64,
    /// Verdict reason key (detector name).
    pub reason: &'static str,
    /// Measured detection latency.
    pub measured_us: u64,
    /// The configured bound it exceeded.
    pub bound_us: u64,
}

/// Seed-order fold of a whole sweep.
pub struct SweepSummary {
    /// Runs with no fault impact observed.
    pub clean: u64,
    /// Runs that failed over and finished the workload.
    pub recovered: u64,
    /// Runs that detected an unrecoverable fault pattern.
    pub detected: u64,
    /// Runs where service was (legitimately) lost.
    pub lost: u64,
    /// Seeds whose run violated an invariant.
    pub violated: Vec<u64>,
    /// Total takeovers observed across all runs.
    pub takeovers: u64,
    /// Cross-seed phase-latency aggregation, one fold per takeover that
    /// ended a run's longest client stall ([`takeover_phases`]).
    pub agg: PhaseAgg,
    /// Verdicts, any member's, whose detection latency was checked
    /// against the bound for the detector that fired.
    pub bound_checked: u64,
    /// Detection-bound violations, in seed order.
    pub bound_violations: Vec<BoundViolation>,
}

/// One phase breakdown per takeover that ended the client's longest
/// stall — a takeover at `t` with `ws <= t <= we`, `[ws, we]` being
/// [`ChaosReport::stall_window`] — as `(taker's index, breakdown)` in
/// takeover order. A takeover outside the stall ended no stall the
/// client saw, and is not folded; nor is a stall that no takeover ended
/// (a gap between two paced writes, say).
///
/// Marks come from the taker's own log within `[fault, t]`, `fault`
/// being the latest fault at or before the taker's last verdict — the
/// fault the verdict answers, as [`detection_clock_start`] charges it.
/// So neither an earlier failover in the same log, nor a fault landing
/// inside the STONITH delay, nor the heartbeat links going down once the
/// STONITH lands can take a mark.
pub fn takeover_phases(report: &ChaosReport) -> Vec<(usize, PhaseBreakdown)> {
    let Some((ws, we)) = report.stall_window else {
        return Vec::new();
    };
    let logs = report.member_events.iter().enumerate();
    let mut takeovers: Vec<(SimTime, usize)> = logs
        .flat_map(|(i, evs)| {
            evs.iter().filter_map(move |e| match e {
                StTcpEvent::TookOver { at } if (ws..=we).contains(at) => Some((*at, i)),
                _ => None,
            })
        })
        .collect();
    takeovers.sort();
    let phased = |(t, i): (SimTime, usize)| {
        let log = &report.member_events[i];
        let verdict = log.iter().rev().find_map(|e| match e {
            StTcpEvent::PeerDeclaredFailed { at, .. } if *at <= t => Some(*at),
            _ => None,
        });
        let fault_at = latest_fault_before(report, verdict.unwrap_or(t));
        let floor = fault_at.unwrap_or(ws);
        let episode: Vec<StTcpEvent> = (log.iter())
            .filter(|e| (floor..=t).contains(&e.at()))
            .cloned()
            .collect();
        let b = failover_timeline(ws, we, fault_at, &episode).breakdown()?;
        Some((i, b))
    };
    takeovers.into_iter().filter_map(phased).collect()
}

/// The latest injected fault at or before `cutoff` — the lenient
/// attribution for chaos runs, where several faults may precede one
/// verdict and the detector answers for the most recent of them.
pub fn latest_fault_before(report: &ChaosReport, cutoff: SimTime) -> Option<SimTime> {
    report
        .faults
        .iter()
        .map(|(at, _)| *at)
        .filter(|at| *at <= cutoff)
        .max()
}

/// The moment the survivor's detection clock for `reason` last
/// (re)started before `cutoff`: the latest fault, or whichever of these
/// came later. The latest heartbeat-link recovery — a heartbeat outage
/// stalls lag/ping evidence (peer positions stop refreshing), so a
/// detector's configured bound can only be charged from when heartbeat
/// coverage was last restored. And, for the application-lag detectors,
/// the first client byte the survivor's application read: one replica
/// cannot lag the other on a stream nobody has read yet, so a fault that
/// precedes the client's first data (say its GET sits out a reordering
/// until the retransmit) has no symptom to time until that byte lands.
///
/// A gateway-ping verdict also needs the survivor's *own* pings to
/// succeed, and they cross the client link toward the gateway: a
/// `corrupt client N` budget laid there by `cutoff` eats up to N of them
/// — a frame budget drains at traffic pace, and on an idle link that is
/// one ping per [`PING_INTERVAL`] — so the clock starts that much after
/// the fault.
pub fn detection_clock_start(
    report: &ChaosReport,
    schedule: &FaultSchedule,
    events: &[StTcpEvent],
    reason: FailureReason,
    cutoff: SimTime,
) -> Option<SimTime> {
    let mut fault = latest_fault_before(report, cutoff)?;
    if reason == FailureReason::NetPingFail {
        let eaten: u32 = (schedule.actions.iter())
            .filter(|a| SimTime::from_millis(a.at_ms) <= cutoff)
            .map(|a| match a.action {
                ChaosAction::CorruptFrames(LinkSel::Client, n) => n,
                _ => 0,
            })
            .sum();
        fault += PING_INTERVAL * u64::from(eaten);
    }
    let app_lag = matches!(
        reason,
        FailureReason::AppLagBytes | FailureReason::AppLagTime
    );
    let restart = events
        .iter()
        .filter_map(|e| match e {
            StTcpEvent::HbLinkUp { at, .. } => Some(*at),
            StTcpEvent::FirstDataDelivered { at, .. } if app_lag => Some(*at),
            _ => None,
        })
        .filter(|at| *at <= cutoff)
        .max();
    Some(restart.map_or(fault, |at| fault.max(at)))
}

/// Fault-grammar coverage over a set of generated schedules: which
/// action kinds, and which unordered 2-fault kind combinations, the
/// sweep actually exercised versus everything the grammar allows.
#[derive(Debug, Clone, Default)]
pub struct GrammarCoverage {
    /// Injections per action kind (verb), across all folded schedules.
    pub kinds: BTreeMap<&'static str, u64>,
    /// Unordered kind pairs co-occurring in one schedule, canonicalized
    /// (`first <= second` lexicographically).
    pub pairs: BTreeMap<(&'static str, &'static str), u64>,
}

impl GrammarCoverage {
    /// Folds one schedule in.
    pub fn add(&mut self, schedule: &FaultSchedule) {
        let kinds: Vec<&'static str> = schedule.actions.iter().map(|a| a.action.kind()).collect();
        for &k in &kinds {
            *self.kinds.entry(k).or_insert(0) += 1;
        }
        let mut seen: Vec<(&'static str, &'static str)> = Vec::new();
        for (i, &a) in kinds.iter().enumerate() {
            for &b in &kinds[i + 1..] {
                let pair = if a <= b { (a, b) } else { (b, a) };
                if !seen.contains(&pair) {
                    seen.push(pair);
                }
            }
        }
        for pair in seen {
            *self.pairs.entry(pair).or_insert(0) += 1;
        }
    }

    /// All unordered kind pairs the grammar allows (including a kind
    /// with itself: `crash`+`crash` on different sides is a real
    /// schedule).
    pub fn possible_pairs() -> usize {
        let n = ChaosAction::KINDS.len();
        n * (n + 1) / 2
    }

    /// Renders the exercised-vs-possible table the `--grammar` flag
    /// prints.
    pub fn render_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{:<16} {:>10}", "action kind", "injections");
        for kind in ChaosAction::KINDS {
            let n = self.kinds.get(kind).copied().unwrap_or(0);
            let mark = if n == 0 { "  <- never exercised" } else { "" };
            let _ = writeln!(out, "{kind:<16} {n:>10}{mark}");
        }
        let _ = writeln!(
            out,
            "\nkinds exercised:        {:>4} / {}",
            self.kinds.len(),
            ChaosAction::KINDS.len()
        );
        let _ = writeln!(
            out,
            "2-fault combos seen:    {:>4} / {} possible",
            self.pairs.len(),
            Self::possible_pairs()
        );
        let missing: Vec<String> = ChaosAction::KINDS
            .iter()
            .filter(|k| !self.kinds.contains_key(*k))
            .map(|k| (*k).to_string())
            .collect();
        if !missing.is_empty() {
            let _ = writeln!(out, "never exercised:        {}", missing.join(", "));
        }
        out
    }
}

/// Runs the sweep: cases execute on up to `cfg.threads` workers, then
/// fold sequentially in seed order. `on_case` fires once per case (in
/// seed order) before the case is folded — the CLI hooks printing and
/// shrinking there; pass `|_| {}` when only the summary matters.
pub fn run_sweep(
    cfg: &SweepConfig,
    opts: &ChaosOptions,
    mut on_case: impl FnMut(&SweepCase),
) -> SweepSummary {
    let topology = cfg.flavour.topology();
    let cases = parallel_seeds(cfg.threads, cfg.start, cfg.seeds, |seed| {
        let schedule = cfg.flavour.schedule(seed);
        let report = run_chaos_case(topology, seed, &schedule, opts);
        SweepCase {
            seed,
            schedule,
            report,
        }
    });

    let mut s = SweepSummary {
        clean: 0,
        recovered: 0,
        detected: 0,
        lost: 0,
        violated: Vec::new(),
        takeovers: 0,
        agg: PhaseAgg::new(),
        bound_checked: 0,
        bound_violations: Vec::new(),
    };
    for case in &cases {
        on_case(case);
        let report = &case.report;
        s.takeovers += report.takeovers();

        // Every flavour folds the same way: each takeover that ended
        // the client's longest stall, phased from the taker's own log;
        // and every verdict any member logged, checked against the
        // configured bound for the detector that fired.
        for (_, b) in takeover_phases(report) {
            s.agg.add(&b);
        }
        for events in &report.member_events {
            let verdicts = events.iter().filter_map(|e| match e {
                StTcpEvent::PeerDeclaredFailed { reason, at } => Some((*reason, *at)),
                _ => None,
            });
            for (reason, at) in verdicts {
                let (Some(clock_start), Some(bound)) = (
                    detection_clock_start(report, &case.schedule, events, reason, at),
                    detection_bound(&opts.sttcp, reason),
                ) else {
                    continue;
                };
                s.bound_checked += 1;
                let measured = at.saturating_since(clock_start);
                if measured > bound {
                    s.bound_violations.push(BoundViolation {
                        seed: case.seed,
                        reason: reason.key(),
                        measured_us: measured.as_micros(),
                        bound_us: bound.as_micros(),
                    });
                }
            }
        }

        match report.outcome {
            Outcome::Clean => s.clean += 1,
            Outcome::Recovered => s.recovered += 1,
            Outcome::DetectedUnrecoverable => s.detected += 1,
            Outcome::ServiceLost => s.lost += 1,
            Outcome::Violation => s.violated.push(case.seed),
        }
    }
    s
}

impl SweepSummary {
    /// Builds the `chaos_hunt` [`MetricsReport`], one shape for every
    /// flavour and independent of `cfg.threads`.
    pub fn to_report(&self, cfg: &SweepConfig, enforce_bounds: bool) -> MetricsReport {
        let mut report = MetricsReport::new("chaos_hunt");
        let mut cfg_j = Json::obj();
        cfg_j.set("seeds", Json::U64(cfg.seeds));
        cfg_j.set("start", Json::U64(cfg.start));
        cfg_j.set("quick", Json::Bool(cfg.quick));
        cfg_j.set("double", Json::Bool(cfg.flavour == Flavour::Double));
        // The schedule flavour, not a server mode: every reboot rejoins.
        let reintegrate = cfg.flavour == Flavour::Reintegrate;
        cfg_j.set("reintegrate", Json::Bool(reintegrate));
        cfg_j.set("pool", Json::Bool(cfg.flavour == Flavour::Pool));
        report.set("config", cfg_j);
        let mut outcomes = Json::obj();
        outcomes.set("clean", Json::U64(self.clean));
        outcomes.set("recovered", Json::U64(self.recovered));
        outcomes.set("detected_unrecoverable", Json::U64(self.detected));
        outcomes.set("service_lost", Json::U64(self.lost));
        outcomes.set("violations", Json::U64(self.violated.len() as u64));
        report.set("outcomes", outcomes);
        report.set("takeovers", Json::U64(self.takeovers));
        report.set("phases", self.agg.to_json());
        let mut bounds = Json::obj();
        bounds.set("checked", Json::U64(self.bound_checked));
        bounds.set("enforced", Json::Bool(enforce_bounds));
        bounds.set(
            "exceeded",
            Json::Arr(
                self.bound_violations
                    .iter()
                    .map(|v| {
                        let mut o = Json::obj();
                        o.set("seed", Json::U64(v.seed));
                        o.set("reason", Json::from(v.reason));
                        o.set("measured_us", Json::U64(v.measured_us));
                        o.set("bound_us", Json::U64(v.bound_us));
                        o
                    })
                    .collect(),
            ),
        );
        report.set("detection_bounds", bounds);
        report
    }
}
