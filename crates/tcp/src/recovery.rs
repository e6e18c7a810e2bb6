//! Loss recovery. [`Recovery`] alone writes what the loss rules read:
//! Reno's cwnd and ssthresh, the RFC 6298 estimator, the retransmit
//! deadline, the duplicate-ACK count and one timeout count. The connection
//! reports events and reads the send allowance, the RTO and the deadline.
//!
//! Deliberately plain Reno: slow start, congestion avoidance, fast
//! retransmit on three duplicate ACKs and multiplicative decrease on
//! timeout, with no SACK and no NewReno partial-ack logic. The paper
//! predates all of that, and what the experiments need is the qualitative
//! behaviour — ramp-up on a clean LAN and window collapse after the
//! retransmission timeouts that surround a failover. After a timeout the
//! connection goes back to `snd.una` and resends everything unacknowledged
//! from the one-MSS window up (see [`crate::conn`]).
//!
//! The RTO schedule matters directly to the paper's Demo 2: after the
//! primary crashes, both the client and the (not-yet-active) backup keep
//! retransmitting with exponentially growing intervals, and the post-
//! detection component of the failover time is "the delay until the next
//! client or backup retransmission" — i.e. a function of how far the
//! backoff has progressed during failure detection.
//!
//! One count is both the backoff exponent and the retry count: the RTO
//! doubles per timeout since the last progress or restart, and the timeout
//! that takes it past [`MAX_RETRIES`] gives up. Its one edge: a passive
//! open whose SYN-ACK timed out keeps the count when the handshake's ACK
//! arrives, as it kept its backoff when a separate retry count restarted
//! there, so until its first progress it has that many fewer timeouts
//! left. No recorded artifact reaches that give-up. Linux, making a fresh
//! socket there, clears both; doing so here moves the `ablations` binary's
//! ablation 2 (24 → 25 of 40 false verdicts at 3 periods, 30 → 31 at 5).

use simnet::time::{SimDuration, SimTime};

use crate::conn::MSS;

/// The RTO before any RTT sample exists.
pub(crate) const INITIAL_RTO: SimDuration = SimDuration::from_millis(1_000);

/// The lower clamp of the computed RTO: Linux's 200 ms floor keeps
/// retransmission visible at simulation time scales.
pub(crate) const MIN_RTO: SimDuration = SimDuration::from_millis(200);

/// The upper clamp of the backed-off RTO.
pub(crate) const MAX_RTO: SimDuration = SimDuration::from_secs(60);

/// Consecutive timeouts a connection survives; the next one resets it.
pub(crate) const MAX_RETRIES: u8 = 15;

/// The loss-recovery state of one connection. See the [module docs](self).
#[derive(Debug)]
pub(crate) struct Recovery {
    cwnd: u64,
    ssthresh: u64,
    /// Bytes acked since the last cwnd increment in congestion avoidance.
    avoid_acc: u64,
    /// Smoothed RTT in microseconds; `None` until the first sample.
    srtt: Option<f64>,
    rttvar: f64,
    /// The RTO before backoff and clamps, in microseconds.
    base_rto: f64,
    deadline: Option<SimTime>,
    dup_acks: u8,
    /// Timeouts since the last progress or restart: the backoff exponent
    /// and the retry count.
    timeouts: u8,
}

impl Recovery {
    /// A 4-MSS initial window (RFC 3390 flavour), an unbounded ssthresh
    /// and [`INITIAL_RTO`]; nothing armed.
    pub(crate) fn new() -> Recovery {
        Recovery {
            cwnd: 4 * MSS as u64,
            ssthresh: u64::MAX / 2,
            avoid_acc: 0,
            srtt: None,
            rttvar: 0.0,
            base_rto: INITIAL_RTO.as_micros() as f64,
            deadline: None,
            dup_acks: 0,
            timeouts: 0,
        }
    }

    /// The congestion window in bytes.
    pub(crate) fn cwnd(&self) -> u64 {
        self.cwnd
    }

    /// How many more bytes the window lets out with `flight` outstanding.
    pub(crate) fn allowance(&self, flight: u64) -> u64 {
        self.cwnd.saturating_sub(flight)
    }

    /// The retransmission timeout: the estimate clamped to
    /// [`MIN_RTO`]..[`MAX_RTO`], doubled per timeout, clamped again.
    pub(crate) fn rto(&self) -> SimDuration {
        let base = self
            .base_rto
            .max(MIN_RTO.as_micros() as f64)
            .min(MAX_RTO.as_micros() as f64);
        let factor = 1u64 << self.timeouts.min(16);
        SimDuration::from_micros(base as u64)
            .saturating_mul(factor)
            .min(MAX_RTO)
    }

    /// When the retransmit timer fires, if it runs.
    pub(crate) fn deadline(&self) -> Option<SimTime> {
        self.deadline
    }

    /// (Re)starts the retransmit timer one [`Recovery::rto`] from `now`.
    pub(crate) fn arm(&mut self, now: SimTime) {
        self.deadline = Some(now + self.rto());
    }

    /// Stops the retransmit timer.
    pub(crate) fn disarm(&mut self) {
        self.deadline = None;
    }

    /// True, and the timer stopped, if it was due at `now`.
    pub(crate) fn due(&mut self, now: SimTime) -> bool {
        self.deadline.take_if(|t| now >= *t).is_some()
    }

    /// Clears the timeout count: the handshake completed on our side, or
    /// the connection goes back to `una` of its own accord.
    pub(crate) fn restart(&mut self) {
        self.timeouts = 0;
    }

    /// An ACK took `bytes` new bytes or our FIN, with an RTT sample if
    /// it acked a timed segment (Karn's rule is the stream's). Clears both
    /// counts, grows the window, and keeps the timer running only while
    /// something is `outstanding`.
    pub(crate) fn on_progress(
        &mut self,
        bytes: u64,
        rtt: Option<SimDuration>,
        outstanding: bool,
        now: SimTime,
    ) {
        self.timeouts = 0;
        self.dup_acks = 0;
        if bytes > 0 && self.cwnd < self.ssthresh {
            self.cwnd += bytes.min(MSS as u64);
        } else if bytes > 0 {
            // Congestion avoidance: +1 MSS per cwnd of acked data.
            self.avoid_acc += bytes;
            if self.avoid_acc >= self.cwnd {
                self.avoid_acc -= self.cwnd;
                self.cwnd += MSS as u64;
            }
        }
        if let Some(rtt) = rtt {
            // RFC 6298: alpha = 1/8, beta = 1/4.
            let r = rtt.as_micros() as f64;
            let (srtt, rttvar) = match self.srtt {
                None => (r, r / 2.0),
                Some(s) => (
                    0.875 * s + 0.125 * r,
                    0.75 * self.rttvar + 0.25 * (s - r).abs(),
                ),
            };
            (self.srtt, self.rttvar) = (Some(srtt), rttvar);
            self.base_rto = srtt + (4.0 * rttvar).max(1.0);
        }
        self.deadline = outstanding.then(|| now + self.rto());
    }

    /// A duplicate ACK with `flight` bytes outstanding. True on the third:
    /// the window halves, the timer restarts, and the caller resends the
    /// head (fast retransmit).
    pub(crate) fn on_dup_ack(&mut self, flight: u64, now: SimTime) -> bool {
        self.dup_acks = self.dup_acks.saturating_add(1);
        if self.dup_acks != 3 {
            return false;
        }
        self.halve(flight);
        self.cwnd = self.ssthresh;
        self.arm(now);
        true
    }

    /// The retransmit timer fired with `flight` bytes outstanding. False
    /// if the retry budget is spent (the caller resets the connection);
    /// otherwise the window collapses to one MSS, the RTO doubles, and the
    /// caller goes back to `una`.
    pub(crate) fn on_timeout(&mut self, flight: u64) -> bool {
        self.timeouts = self.timeouts.saturating_add(1);
        if self.timeouts > MAX_RETRIES {
            return false;
        }
        self.halve(flight);
        self.cwnd = MSS as u64;
        true
    }

    fn halve(&mut self, flight: u64) {
        self.ssthresh = (flight / 2).max(2 * MSS as u64);
        self.avoid_acc = 0;
    }
}

/// Readings for the `cc` and `rto` unit tests in the crate root.
#[cfg(test)]
impl Recovery {
    pub(crate) fn ssthresh(&self) -> u64 {
        self.ssthresh
    }

    pub(crate) fn srtt(&self) -> Option<SimDuration> {
        self.srtt.map(|s| SimDuration::from_micros(s as u64))
    }

    pub(crate) fn timeouts(&self) -> u8 {
        self.timeouts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const M: u64 = MSS as u64;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn the_timer_runs_while_something_is_outstanding() {
        let mut r = Recovery::new();
        r.arm(t(0));
        assert!(!r.due(t(999)) && r.due(t(1_000)) && r.deadline().is_none());
        r.on_progress(M, None, true, t(5));
        assert_eq!(r.deadline(), Some(t(5) + INITIAL_RTO));
        r.on_progress(M, None, false, t(6));
        assert_eq!(r.deadline(), None);
    }

    /// The loss state as the connection kept it before [`Recovery`]:
    /// Reno in `cc.rs`, the RFC 6298 estimator in `rto.rs` under its
    /// default tunables, and `rtx_deadline`, `dup_acks` and `retries` on
    /// `TcpConn`, where the retry count and the estimator's backoff
    /// counted the same timeouts. Each method is the old code it stands
    /// for, kept as the differential oracle; the types and fields are
    /// renamed so that the deleted names stay deleted.
    mod model {
        use simnet::time::{SimDuration, SimTime};

        #[derive(Default)]
        pub struct Reno {
            mss: u32,
            pub cwnd: u64,
            ssthresh: u64,
            avoid_acc: u64,
        }

        impl Reno {
            fn on_ack(&mut self, acked: u64) {
                if acked == 0 {
                    return;
                }
                if self.cwnd < self.ssthresh {
                    self.cwnd += acked.min(self.mss as u64);
                } else {
                    self.avoid_acc += acked;
                    if self.avoid_acc >= self.cwnd {
                        self.avoid_acc -= self.cwnd;
                        self.cwnd += self.mss as u64;
                    }
                }
            }

            fn on_timeout(&mut self, flight: u64) {
                self.ssthresh = (flight / 2).max(2 * self.mss as u64);
                self.cwnd = self.mss as u64;
                self.avoid_acc = 0;
            }

            fn on_fast_retransmit(&mut self, flight: u64) {
                self.ssthresh = (flight / 2).max(2 * self.mss as u64);
                self.cwnd = self.ssthresh;
                self.avoid_acc = 0;
            }
        }

        #[derive(Default)]
        pub struct Estimator {
            srtt: Option<f64>,
            rttvar: f64,
            rto: f64,
            backoff: u32,
        }

        impl Estimator {
            fn on_sample(&mut self, rtt: SimDuration) {
                let r = rtt.as_micros() as f64;
                match self.srtt {
                    None => {
                        self.srtt = Some(r);
                        self.rttvar = r / 2.0;
                    }
                    Some(srtt) => {
                        self.rttvar = 0.75 * self.rttvar + 0.25 * (srtt - r).abs();
                        self.srtt = Some(0.875 * srtt + 0.125 * r);
                    }
                }
                self.rto = self.srtt.unwrap() + (4.0 * self.rttvar).max(1.0);
                self.backoff = 0;
            }

            /// `current_rto` with `min_rto` 200 ms and `max_rto` 60 s.
            pub fn backed_off(&self) -> SimDuration {
                let max_rto = SimDuration::from_secs(60);
                let base = self.rto.max(200e3).min(max_rto.as_micros() as f64);
                let factor = 1u64 << self.backoff.min(32);
                let backed = SimDuration::from_micros(base as u64).saturating_mul(factor);
                backed.min(max_rto)
            }
        }

        /// `TcpConn`'s five loss fields, with a retry budget of 15.
        #[derive(Default)]
        pub struct FiveFields {
            pub cc: Reno,
            pub rto: Estimator,
            pub rtx_deadline: Option<SimTime>,
            dup_acks: u8,
            rtx_count: u8,
        }

        impl FiveFields {
            /// `TcpConn::raw` under the default `TcpConfig`.
            pub fn new() -> FiveFields {
                let mut m = FiveFields::default();
                (m.cc.mss, m.cc.cwnd, m.cc.ssthresh) = (1460, 4 * 1460, u64::MAX / 2);
                m.rto.rto = 1e6;
                m
            }

            pub fn arm_rtx(&mut self, now: SimTime) {
                self.rtx_deadline = Some(now + self.rto.backed_off());
            }

            /// `process_ack`'s branch for an ACK of new bytes or the FIN.
            pub fn progress(&mut self, n: u64, rtt: Option<SimDuration>, more: bool, now: SimTime) {
                self.rtx_count = 0;
                self.dup_acks = 0;
                self.cc.on_ack(n);
                if let Some(rtt) = rtt {
                    self.rto.on_sample(rtt);
                }
                self.rto.backoff = 0;
                match more {
                    true => self.arm_rtx(now),
                    false => self.rtx_deadline = None,
                }
            }

            /// `process_ack`'s duplicate-ACK branch: true on fast retransmit.
            pub fn dup_ack(&mut self, flight: u64, now: SimTime) -> bool {
                self.dup_acks = self.dup_acks.saturating_add(1);
                if self.dup_acks == 3 {
                    self.cc.on_fast_retransmit(flight);
                    self.arm_rtx(now);
                }
                self.dup_acks == 3
            }

            /// `on_timer` and `on_rtx_timeout` up to the rewind: false
            /// where the connection reset.
            pub fn timeout(&mut self, flight: u64) -> bool {
                self.rtx_deadline = None;
                self.rtx_count = self.rtx_count.saturating_add(1);
                if self.rtx_count > 15 {
                    return false;
                }
                self.cc.on_timeout(flight);
                self.rto.backoff = (self.rto.backoff + 1).min(16);
                true
            }

            /// `rewind_unacked` and the end of SYN-SENT.
            pub fn restart(&mut self) {
                self.rto.backoff = 0;
                self.rtx_count = 0;
            }
        }
    }

    /// `Progress(bytes, rtt_us, outstanding)` (0 bytes: our FIN alone),
    /// `DupAck(flight)`, and `Stall(n, flight)`: n timeouts in a row, each
    /// after a resend armed the timer.
    #[derive(Debug, Clone)]
    enum Op {
        Progress(u64, Option<u64>, bool),
        DupAck(u64),
        Stall(u8, u64),
        Restart,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        let flight = || prop_oneof![0u64..=4 * M, 0u64..=200 * M];
        let bytes = prop_oneof![Just(0u64), 1u64..=M, 1u64..=8 * M];
        let rtt = prop_oneof![Just(None), (0u64..=2_000_000).prop_map(Some)];
        prop_oneof![
            (bytes, rtt, any::<bool>()).prop_map(|(b, rtt, more)| Op::Progress(b, rtt, more)),
            flight().prop_map(Op::DupAck),
            flight().prop_map(Op::DupAck),
            (0u8..=20, flight()).prop_map(|(n, flight)| Op::Stall(n, flight)),
            Just(Op::Restart),
        ]
    }

    proptest! {
        /// Differential test: `Recovery`, and the two modules and three
        /// connection fields it replaced, driven by the same progress,
        /// duplicate ACKs, timeouts and restarts, take the same
        /// fast-retransmit and give-up steps and agree on cwnd, the
        /// allowance, the RTO and the deadline after every step.
        #[test]
        fn recovery_matches_the_congestion_control_the_estimator_and_the_connection_counts(
            ops in proptest::collection::vec(op_strategy(), 0..48),
        ) {
            let (mut new, mut old, mut now) = (Recovery::new(), model::FiveFields::new(), t(0));
            for op in ops {
                now += SimDuration::from_millis(7);
                match op {
                    Op::Progress(bytes, rtt, more) => {
                        let rtt = rtt.map(SimDuration::from_micros);
                        new.on_progress(bytes, rtt, more, now);
                        old.progress(bytes, rtt, more, now);
                    }
                    Op::DupAck(flight) => {
                        prop_assert_eq!(new.on_dup_ack(flight, now), old.dup_ack(flight, now));
                    }
                    Op::Stall(n, flight) => {
                        for _ in 0..n {
                            new.arm(now);
                            old.arm_rtx(now);
                            prop_assert_eq!(new.deadline(), old.rtx_deadline);
                            now = old.rtx_deadline.unwrap();
                            prop_assert!(new.due(now));
                            let alive = new.on_timeout(flight);
                            prop_assert_eq!(alive, old.timeout(flight));
                            if !alive {
                                (new, old) = (Recovery::new(), model::FiveFields::new());
                                break;
                            }
                        }
                    }
                    Op::Restart => {
                        new.restart();
                        old.restart();
                    }
                }
                prop_assert_eq!(new.cwnd(), old.cc.cwnd);
                for flight in [0, 3 * M, old.cc.cwnd / 2, old.cc.cwnd + 1] {
                    prop_assert_eq!(new.allowance(flight), old.cc.cwnd.saturating_sub(flight));
                }
                prop_assert_eq!(new.rto(), old.rto.backed_off());
                prop_assert_eq!(new.deadline(), old.rtx_deadline);
            }
        }
    }
}
