//! The failover-phase timeline.
//!
//! A [`Timeline`] stitches the marks of one failover — fault injected,
//! first symptom, verdict, STONITH, takeover, re-integration (when a
//! rebooted peer rejoined), first client-visible byte after the stall —
//! into a [`PhaseBreakdown`]: seven contiguous phases that *partition*
//! the client-observed stall window. Boundaries are
//! clamped monotonically into the window, so the phase durations sum to
//! the total stall **by construction** (the acceptance check of the
//! paper's "at worst a short stall" claim becomes an identity, and any
//! disagreement with the client transcript is a bug in the marks, not in
//! the arithmetic).
//!
//! `obs` sits below the ST-TCP core, so the marks are protocol-neutral;
//! the mapping from `StTcpEvent`s to marks lives with the harnesses that
//! own the event logs.

use core::fmt;

use simnet::time::{SimDuration, SimTime};

use crate::json::Json;

/// A timestamped milestone inside one failover.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PhaseMark {
    /// The fault was injected (known to the harness, not the protocol).
    FaultInjected,
    /// The surviving server first observed a symptom (e.g. a heartbeat
    /// link going down).
    SymptomObserved,
    /// The surviving server declared its peer failed.
    Verdict,
    /// STONITH was issued to the failed peer.
    Stonith,
    /// The takeover completed (egress unsuppressed).
    Takeover,
    /// A rebooted peer completed re-integration (redundancy restored).
    Reintegrated,
}

impl PhaseMark {
    const COUNT: usize = 6;

    fn index(self) -> usize {
        match self {
            PhaseMark::FaultInjected => 0,
            PhaseMark::SymptomObserved => 1,
            PhaseMark::Verdict => 2,
            PhaseMark::Stonith => 3,
            PhaseMark::Takeover => 4,
            PhaseMark::Reintegrated => 5,
        }
    }
}

/// One of the seven contiguous phases of a failover stall.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Stall-window start → fault injection (the client had already
    /// paused between progress samples when the fault hit).
    PreFault,
    /// Fault injection → first observed symptom.
    Symptom,
    /// First symptom → failure verdict.
    Diagnosis,
    /// Verdict → STONITH issued.
    Fencing,
    /// STONITH → takeover complete.
    Takeover,
    /// Takeover → re-integration complete (zero-length in runs where no
    /// rebooted peer rejoined; a join finished after the stall window
    /// is clamped to its end, and this phase takes `Restart`'s share).
    Reintegration,
    /// Re-integration (or takeover) → first client-visible byte after
    /// the stall.
    Restart,
}

impl Phase {
    /// All seven phases, in timeline order.
    pub const ALL: [Phase; 7] = [
        Phase::PreFault,
        Phase::Symptom,
        Phase::Diagnosis,
        Phase::Fencing,
        Phase::Takeover,
        Phase::Reintegration,
        Phase::Restart,
    ];

    /// A short stable name (report keys and table rows).
    pub fn name(self) -> &'static str {
        match self {
            Phase::PreFault => "pre_fault",
            Phase::Symptom => "symptom",
            Phase::Diagnosis => "diagnosis",
            Phase::Fencing => "fencing",
            Phase::Takeover => "takeover",
            Phase::Reintegration => "reintegration",
            Phase::Restart => "restart",
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Builder for one failover's phase breakdown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Timeline {
    start: SimTime,
    marks: [Option<SimTime>; PhaseMark::COUNT],
    end: Option<SimTime>,
}

impl Timeline {
    /// Starts a timeline at the beginning of the client-observed stall
    /// window (the last progress sample before the stall).
    pub fn new(stall_start: SimTime) -> Timeline {
        Timeline {
            start: stall_start,
            marks: [None; PhaseMark::COUNT],
            end: None,
        }
    }

    /// Records a mark. The first time wins — a retried verdict or a
    /// second STONITH does not move the boundary.
    pub fn mark(&mut self, m: PhaseMark, at: SimTime) {
        let slot = &mut self.marks[m.index()];
        if slot.is_none() {
            *slot = Some(at);
        }
    }

    /// Closes the window at the first client-visible byte after the
    /// stall.
    pub fn finish(&mut self, first_byte_at: SimTime) {
        self.end = Some(first_byte_at.max(self.start));
    }

    /// The stall-window start.
    pub fn start(&self) -> SimTime {
        self.start
    }

    /// When a mark was recorded, if it was.
    pub fn mark_at(&self, m: PhaseMark) -> Option<SimTime> {
        self.marks[m.index()]
    }

    /// Computes the phase breakdown; `None` until [`Timeline::finish`]
    /// was called.
    ///
    /// A missing mark collapses its phase to zero length at the previous
    /// boundary; a mark outside the window (or out of order) is clamped,
    /// so the seven durations always partition `[start, end]` exactly.
    pub fn breakdown(&self) -> Option<PhaseBreakdown> {
        let end = self.end?;
        let mut durations = [SimDuration::ZERO; 7];
        let mut prev = self.start;
        for (i, mark) in self.marks.iter().enumerate() {
            let b = mark.unwrap_or(prev).max(prev).min(end);
            durations[i] = b.saturating_since(prev);
            prev = b;
        }
        durations[6] = end.saturating_since(prev);
        Some(PhaseBreakdown {
            durations,
            total: end.saturating_since(self.start),
        })
    }
}

/// Seven phase durations that partition one failover stall.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseBreakdown {
    /// Durations indexed like [`Phase::ALL`].
    pub durations: [SimDuration; 7],
    /// The whole stall window (equals the sum of `durations`).
    pub total: SimDuration,
}

impl PhaseBreakdown {
    /// The duration of one phase.
    pub fn get(&self, p: Phase) -> SimDuration {
        self.durations[Phase::ALL.iter().position(|&q| q == p).unwrap()]
    }

    /// Fault injection → verdict: the detection latency that Table 1's
    /// timeout bounds constrain (symptom + diagnosis).
    pub fn detection(&self) -> SimDuration {
        self.get(Phase::Symptom) + self.get(Phase::Diagnosis)
    }

    /// The breakdown as a JSON object of microsecond durations.
    pub fn to_json(&self) -> Json {
        let mut o = Json::obj();
        for (p, d) in Phase::ALL.iter().zip(self.durations.iter()) {
            o.set(p.name(), Json::U64(d.as_micros()));
        }
        o.set("detection", Json::U64(self.detection().as_micros()));
        o.set("total", Json::U64(self.total.as_micros()));
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn phases_partition_the_stall_window() {
        let mut tl = Timeline::new(t(995));
        tl.mark(PhaseMark::FaultInjected, t(1_000));
        tl.mark(PhaseMark::SymptomObserved, t(1_200));
        tl.mark(PhaseMark::Verdict, t(1_600));
        tl.mark(PhaseMark::Stonith, t(1_600));
        tl.mark(PhaseMark::Takeover, t(1_620));
        tl.finish(t(1_700));
        let b = tl.breakdown().unwrap();
        assert_eq!(b.total, SimDuration::from_millis(705));
        let sum: SimDuration = b.durations.iter().fold(SimDuration::ZERO, |a, &d| a + d);
        assert_eq!(sum, b.total);
        assert_eq!(b.get(Phase::PreFault), SimDuration::from_millis(5));
        assert_eq!(b.get(Phase::Symptom), SimDuration::from_millis(200));
        assert_eq!(b.get(Phase::Diagnosis), SimDuration::from_millis(400));
        assert_eq!(b.get(Phase::Fencing), SimDuration::ZERO);
        assert_eq!(b.get(Phase::Takeover), SimDuration::from_millis(20));
        assert_eq!(b.get(Phase::Restart), SimDuration::from_millis(80));
        assert_eq!(b.detection(), SimDuration::from_millis(600));
    }

    #[test]
    fn missing_marks_collapse_to_zero() {
        let mut tl = Timeline::new(t(0));
        tl.mark(PhaseMark::Verdict, t(500));
        tl.finish(t(600));
        let b = tl.breakdown().unwrap();
        assert_eq!(b.get(Phase::PreFault), SimDuration::ZERO);
        // Without a fault mark, the symptom phase absorbs start→symptom;
        // here no symptom either, so diagnosis runs start→verdict.
        assert_eq!(b.get(Phase::Diagnosis), SimDuration::from_millis(500));
        assert_eq!(b.get(Phase::Restart), SimDuration::from_millis(100));
        let sum: SimDuration = b.durations.iter().fold(SimDuration::ZERO, |a, &d| a + d);
        assert_eq!(sum, b.total);
    }

    #[test]
    fn out_of_window_marks_are_clamped() {
        let mut tl = Timeline::new(t(100));
        tl.mark(PhaseMark::FaultInjected, t(50)); // before the window
        tl.mark(PhaseMark::SymptomObserved, t(150));
        tl.mark(PhaseMark::Verdict, t(120)); // out of order
        tl.mark(PhaseMark::Takeover, t(900)); // after the window
        tl.finish(t(200));
        let b = tl.breakdown().unwrap();
        let sum: SimDuration = b.durations.iter().fold(SimDuration::ZERO, |a, &d| a + d);
        assert_eq!(sum, b.total);
        assert_eq!(b.total, SimDuration::from_millis(100));
    }

    #[test]
    fn unfinished_timeline_has_no_breakdown() {
        let tl = Timeline::new(t(0));
        assert_eq!(tl.breakdown(), None);
        assert_eq!(tl.mark_at(PhaseMark::Verdict), None);
        assert_eq!(tl.start(), t(0));
    }

    #[test]
    fn first_mark_wins() {
        let mut tl = Timeline::new(t(0));
        tl.mark(PhaseMark::Stonith, t(10));
        tl.mark(PhaseMark::Stonith, t(20));
        assert_eq!(tl.mark_at(PhaseMark::Stonith), Some(t(10)));
    }

    #[test]
    fn breakdown_json_lists_every_phase() {
        let mut tl = Timeline::new(t(0));
        tl.finish(t(10));
        let j = tl.breakdown().unwrap().to_json().to_string();
        for p in Phase::ALL {
            assert!(j.contains(p.name()), "{j} missing {p}");
        }
        assert!(j.contains("\"total\":10000"));
    }
}
