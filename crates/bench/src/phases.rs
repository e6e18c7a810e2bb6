//! Failover-phase analysis: event logs → `obs` timelines, detection
//! bounds, and cross-seed aggregation.
//!
//! The `obs` crate defines the protocol-neutral [`Timeline`]; this module
//! owns the ST-TCP-specific glue: mapping [`StTcpEvent`]s to phase marks
//! ([`failover_timeline`]), deriving the configured worst-case detection
//! latency for each [`FailureReason`] ([`detection_bound`]), and
//! aggregating phase breakdowns across many seeds into p50/p99/max tables
//! ([`PhaseAgg`], what `chaos_hunt` prints).

use obs::json::Json;
use obs::metrics::Histogram;
use obs::timeline::{Phase, PhaseBreakdown, PhaseMark, Timeline};

use simnet::time::{SimDuration, SimTime};

use sttcp::config::{StTcpConfig, NET_LAG_TIME, PING_FAIL_THRESHOLD, PING_INTERVAL};
use sttcp::events::{FailureReason, StTcpEvent};

use crate::report::Table;

/// Builds the phase timeline for one failover from the surviving
/// server's event log.
///
/// `stall_start`/`stall_end` bracket the client-observed stall (from
/// `ClientLog::longest_stall_window`); `fault_at` is the injection time
/// when the harness knows it. Marks are taken as: first heartbeat-link
/// down at or after the fault (symptom), first failure verdict, first
/// STONITH, first takeover. Marks outside the stall window are clamped
/// by [`Timeline::breakdown`], so the phase durations always sum to the
/// client-observed stall exactly.
pub fn failover_timeline(
    stall_start: SimTime,
    stall_end: SimTime,
    fault_at: Option<SimTime>,
    events: &[StTcpEvent],
) -> Timeline {
    let mut tl = Timeline::new(stall_start);
    if let Some(at) = fault_at {
        tl.mark(PhaseMark::FaultInjected, at);
    }
    let symptom_floor = fault_at.unwrap_or(stall_start);
    for e in events {
        match e {
            StTcpEvent::HbLinkDown { at, .. } if *at >= symptom_floor => {
                tl.mark(PhaseMark::SymptomObserved, *at);
            }
            StTcpEvent::PeerDeclaredFailed { at, .. } => {
                // The verdict itself is symptom evidence if no link edge
                // preceded it (e.g. app-lag verdicts with healthy links).
                tl.mark(PhaseMark::Verdict, *at);
            }
            StTcpEvent::StonithIssued { at } => tl.mark(PhaseMark::Stonith, *at),
            StTcpEvent::TookOver { at } => tl.mark(PhaseMark::Takeover, *at),
            StTcpEvent::ReintegrationCompleted { at } => tl.mark(PhaseMark::Reintegrated, *at),
            _ => {}
        }
    }
    tl.finish(stall_end);
    tl
}

/// The configured worst-case fault → verdict latency for a detector, or
/// `None` when the detector has no time bound ([`FailureReason::HoldOverflow`]
/// is rate-dependent; a disabled watchdog never fires).
///
/// Each bound is the detector's own timeout plus scheduling slack: the
/// symptom must survive one heartbeat period of staleness, and a
/// content-based verdict is only taken on the check timer (two periods:
/// one to arm, one to confirm). Heartbeat silence is timed, not polled
/// (`sttcp::linkmon`): row 1 fires on its deadline plus a jitter guard
/// of at most one check period.
pub fn detection_bound(cfg: &StTcpConfig, reason: FailureReason) -> Option<SimDuration> {
    let polled = cfg.check_period * 2 + cfg.hb_period;
    let timed = cfg.check_period + cfg.hb_period;
    let net_evidence = {
        // Row 4 verdicts need the IP heartbeat declared dead first, then
        // whichever network-failure evidence accumulates slowest.
        let lag = NET_LAG_TIME + cfg.effective_lag_confirm();
        let pings = PING_INTERVAL * u64::from(PING_FAIL_THRESHOLD);
        cfg.hb_timeout() + lag.max(pings)
    };
    let (base, slack) = match reason {
        FailureReason::HbBothLinksDown => (cfg.hb_timeout(), timed),
        FailureReason::AppLagBytes | FailureReason::AppLagTime => {
            // Byte lag implies time lag: if the byte detector fired, the
            // time detector was at most this far behind.
            (cfg.app_max_lag_time + cfg.effective_lag_confirm(), polled)
        }
        FailureReason::NetByteLag | FailureReason::NetAckLag | FailureReason::NetPingFail => {
            (net_evidence, polled)
        }
        FailureReason::FinMismatchTimeout => (cfg.max_delay_fin, polled),
        FailureReason::HoldOverflow => return None,
        FailureReason::WatchdogReport => (cfg.watchdog_timeout? + cfg.hb_period, polled),
    };
    Some(base + slack)
}

/// Phase-latency distributions aggregated across many failovers.
#[derive(Debug, Clone)]
pub struct PhaseAgg {
    per_phase: [Histogram; 7],
    detection: Histogram,
    stall: Histogram,
    failovers: u64,
}

impl Default for PhaseAgg {
    fn default() -> PhaseAgg {
        PhaseAgg::new()
    }
}

impl PhaseAgg {
    /// Creates an empty aggregation.
    pub fn new() -> PhaseAgg {
        PhaseAgg {
            per_phase: std::array::from_fn(|_| Histogram::latency_us()),
            detection: Histogram::latency_us(),
            stall: Histogram::latency_us(),
            failovers: 0,
        }
    }

    /// Folds in one failover's breakdown.
    pub fn add(&mut self, b: &PhaseBreakdown) {
        for (h, d) in self.per_phase.iter_mut().zip(b.durations.iter()) {
            h.observe_duration(*d);
        }
        self.detection.observe_duration(b.detection());
        self.stall.observe_duration(b.total);
        self.failovers += 1;
    }

    /// Failovers folded in so far.
    pub fn failovers(&self) -> u64 {
        self.failovers
    }

    /// True when nothing was aggregated.
    pub fn is_empty(&self) -> bool {
        self.failovers == 0
    }

    /// The aggregated detection-latency distribution (fault → verdict).
    pub fn detection(&self) -> &Histogram {
        &self.detection
    }

    /// Renders the per-phase p50/p99/max latency table.
    pub fn render_table(&self) -> String {
        let ms = |us: Option<u64>| match us {
            Some(v) => format!("{:.1}", v as f64 / 1_000.0),
            None => "-".into(),
        };
        let mut t = Table::new(vec!["phase", "p50 (ms)", "p99 (ms)", "max (ms)"]);
        for (p, h) in Phase::ALL.iter().zip(self.per_phase.iter()) {
            t.row(vec![
                p.name().to_string(),
                ms(h.quantile(0.50)),
                ms(h.quantile(0.99)),
                ms(h.max()),
            ]);
        }
        for (name, h) in [("detection", &self.detection), ("total stall", &self.stall)] {
            t.row(vec![
                name.to_string(),
                ms(h.quantile(0.50)),
                ms(h.quantile(0.99)),
                ms(h.max()),
            ]);
        }
        t.render()
    }

    /// The aggregation as a JSON object (one histogram per phase).
    pub fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("failovers", Json::U64(self.failovers));
        let mut phases = Json::obj();
        for (p, h) in Phase::ALL.iter().zip(self.per_phase.iter()) {
            phases.set(p.name(), h.to_json());
        }
        o.set("phases_us", phases);
        o.set("detection_us", self.detection.to_json());
        o.set("stall_us", self.stall.to_json());
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn crash_events() -> Vec<StTcpEvent> {
        use sttcp::events::HbLink;
        vec![
            StTcpEvent::HbLinkDown {
                link: HbLink::Ip,
                at: t(1_450),
            },
            StTcpEvent::PeerDeclaredFailed {
                reason: FailureReason::HbBothLinksDown,
                at: t(1_600),
            },
            StTcpEvent::StonithIssued { at: t(1_600) },
            StTcpEvent::TookOver { at: t(1_650) },
        ]
    }

    #[test]
    fn timeline_marks_follow_the_event_log() {
        let tl = failover_timeline(t(980), t(1_700), Some(t(1_000)), &crash_events());
        let b = tl.breakdown().unwrap();
        assert_eq!(b.total, SimDuration::from_millis(720));
        let sum: SimDuration = b.durations.iter().fold(SimDuration::ZERO, |a, &d| a + d);
        assert_eq!(sum, b.total);
        assert_eq!(b.get(Phase::Symptom), SimDuration::from_millis(450));
        assert_eq!(b.get(Phase::Diagnosis), SimDuration::from_millis(150));
        assert_eq!(b.detection(), SimDuration::from_millis(600));
        assert_eq!(b.get(Phase::Takeover), SimDuration::from_millis(50));
        assert_eq!(b.get(Phase::Restart), SimDuration::from_millis(50));
    }

    #[test]
    fn hb_both_links_bound_covers_the_default_config() {
        let cfg = StTcpConfig::default();
        let b = detection_bound(&cfg, FailureReason::HbBothLinksDown).unwrap();
        assert_eq!(b, cfg.hb_timeout() + cfg.hb_period + cfg.check_period);
        // HoldOverflow is rate-dependent: no bound.
        assert_eq!(detection_bound(&cfg, FailureReason::HoldOverflow), None);
        // Watchdog disabled by default: no bound.
        assert_eq!(detection_bound(&cfg, FailureReason::WatchdogReport), None);
    }

    #[test]
    fn agg_quantiles_cover_added_breakdowns() {
        let mut agg = PhaseAgg::new();
        assert!(agg.is_empty());
        for ms in [100u64, 200, 400] {
            let tl = failover_timeline(t(1_000), t(1_000 + ms), Some(t(1_000)), &[]);
            agg.add(&tl.breakdown().unwrap());
        }
        assert_eq!(agg.failovers(), 3);
        let table = agg.render_table();
        assert!(table.contains("restart"), "{table}");
        assert!(table.contains("total stall"), "{table}");
        let j = agg.to_json().to_string();
        assert!(j.contains("\"failovers\":3"));
    }
}
