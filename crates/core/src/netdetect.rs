//! The local-network (NIC/cable) failure detector (§4.3): all of Table 1
//! row 4.
//!
//! Engaged only in the signature condition of Table 1 row 4: the IP-link
//! heartbeat is dead while the serial-link heartbeat is alive. Three
//! mechanisms, in the paper's order of preference:
//!
//! 1. **Client-byte lag** — if the client is sending, the server whose NIC
//!    died stops receiving; compare `LastByteReceived` across the serial
//!    heartbeat.
//! 2. **Client-ack lag** — for server-push workloads the client sends only
//!    ACKs; compare `LastAckReceived`. Catches a dead *backup* NIC but not
//!    a dead *primary* NIC (no data reaches the client, so nobody gets
//!    ACKs).
//! 3. **Gateway ping** — both servers ping the gateway and exchange the
//!    results over the serial heartbeat; the server whose pings keep
//!    failing while its peer's succeed is the one with the dead NIC.
//!
//! The detector owns the whole row, the ping campaign included. It is
//! engaged from one reading ([`NetFailureDetector::engage`]), and one
//! episode — the campaign and the lag history — lasts exactly while it
//! is: no probe and no report outlive the row, and a verdict ends it.
//!
//! The two lag comparisons are the application-lag detector's tracker,
//! `applag::LagTrack`, fed with sums instead of one connection's
//! positions: the serial heartbeat is exactly as stale as the IP one, so
//! the same staleness rules apply — the byte criterion needs the peer
//! stalled for a confirmation window *while behind* (an idle stretch
//! spent level with it does not count), the time criterion ages the
//! oldest position the peer has not matched. Fed every check tick while
//! engaged, it never needs the tracker's sparse-visit rule.

use simnet::time::SimTime;

use crate::applag::{LagLimits, LagTrack};
use crate::config::{StTcpConfig, NET_LAG_BYTES, NET_LAG_TIME, PING_FAIL_THRESHOLD, PING_INTERVAL};
use crate::events::FailureReason;
use crate::heartbeat::PingReport;

/// Aggregated observations for one detector evaluation.
#[derive(Debug, Clone, Copy, Default)]
pub struct NetObservation {
    /// Sum of `LastByteReceived` over this server's connections.
    pub my_bytes: u64,
    /// Sum of the peer's `LastByteReceived` (from the serial heartbeat).
    pub peer_bytes: u64,
    /// Sum of `LastAckReceived` over this server's connections.
    pub my_acks: u64,
    /// Sum of the peer's `LastAckReceived`.
    pub peer_acks: u64,
    /// The peer's gateway-ping report, from its heartbeat stream.
    pub peer_report: Option<PingReport>,
}

/// Everything one row-4 episode has seen: its gateway-ping campaign
/// and its lag history.
#[derive(Debug, Clone, Default)]
struct Episode {
    /// When the next probe is due.
    next: SimTime,
    /// The seq of the last probe sent, until its reply arrives.
    awaiting: Option<u16>,
    report: PingReport,
    byte_lag: LagTrack,
    ack_lag: LagTrack,
}

/// Local-network failure detector. One per server (aggregated across
/// connections).
#[derive(Debug, Clone)]
pub struct NetFailureDetector {
    limits: LagLimits,
    /// The ICMP identifier of this server's probes.
    probe_id: u16,
    /// The seq of the last probe sent; it keeps counting across episodes.
    probe_seq: u16,
    /// `Some` exactly while engaged.
    episode: Option<Episode>,
}

impl NetFailureDetector {
    /// Creates the detector of a server configured by `cfg`, its probes
    /// carrying ICMP identifier `probe_id`.
    pub fn new(cfg: &StTcpConfig, probe_id: u16) -> Self {
        NetFailureDetector {
            limits: LagLimits::new(NET_LAG_BYTES, NET_LAG_TIME, cfg),
            probe_id,
            probe_seq: 0,
            episode: None,
        }
    }

    /// Hands over whether row 4 holds: the server is fault-tolerant, and
    /// the IP heartbeat it follows is dead while the serial one is alive.
    /// The engaging edge starts a fresh episode, its first probe due at
    /// `now`; `false` ends the episode.
    pub fn engage(&mut self, now: SimTime, holds: bool) {
        if !holds {
            self.episode = None;
        } else if self.episode.is_none() {
            self.episode = Some(Episode {
                next: now,
                ..Episode::default()
            });
        }
    }

    /// Whether row 4 holds, as last handed over.
    pub fn engaged(&self) -> bool {
        self.episode.is_some()
    }

    /// When the next probe is due; `None` while disengaged.
    pub fn probe_due(&self) -> Option<SimTime> {
        self.episode.as_ref().map(|e| e.next)
    }

    /// The probe to send at `now` as `(id, seq)`, if one is due. The
    /// previous probe, still unanswered, counts as a failure; the next is
    /// due one [`PING_INTERVAL`] later.
    pub fn probe(&mut self, now: SimTime) -> Option<(u16, u16)> {
        let e = self.episode.as_mut().filter(|e| e.next <= now)?;
        if e.awaiting.is_some() {
            e.report.consecutive_failures += 1;
        }
        self.probe_seq = self.probe_seq.wrapping_add(1);
        e.report.attempts += 1;
        e.awaiting = Some(self.probe_seq);
        e.next = now + PING_INTERVAL;
        Some((self.probe_id, self.probe_seq))
    }

    /// An echo reply: only the current probe's clears the failures.
    pub fn on_reply(&mut self, id: u16, seq: u16) {
        let current = |e: &&mut Episode| id == self.probe_id && e.awaiting == Some(seq);
        if let Some(e) = self.episode.as_mut().filter(current) {
            e.awaiting = None;
            e.report.consecutive_failures = 0;
        }
    }

    /// The campaign's state for this server's heartbeats; `None` while
    /// disengaged.
    pub fn report(&self) -> Option<PingReport> {
        self.episode.as_ref().map(|e| e.report)
    }

    /// Evaluates one observation; `None` while disengaged. A verdict
    /// ends the episode: the row is decided.
    pub fn check(&mut self, now: SimTime, obs: &NetObservation) -> Option<FailureReason> {
        let e = self.episode.as_mut()?;
        // Either lag criterion of a track condemns the peer under that
        // track's row-4 reason.
        let limits = &self.limits;
        let lags =
            |track: &mut LagTrack, mine, peers| track.update(now, mine, peers, limits).is_some();
        let peers_fail = obs
            .peer_report
            .is_some_and(|p| p.consecutive_failures >= PING_FAIL_THRESHOLD);
        let verdict = if lags(&mut e.byte_lag, obs.my_bytes, obs.peer_bytes) {
            FailureReason::NetByteLag
        } else if lags(&mut e.ack_lag, obs.my_acks, obs.peer_acks) {
            FailureReason::NetAckLag
        } else if peers_fail && e.report.consecutive_failures == 0 && e.report.attempts > 0 {
            FailureReason::NetPingFail
        } else {
            return None;
        };
        self.episode = None;
        Some(verdict)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::time::SimDuration;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    const ID: u16 = 7;

    /// An engaged detector: row 4 holds from t = 0.
    fn det() -> NetFailureDetector {
        let limits = LagLimits {
            bytes: 1_000,
            time: SimDuration::from_millis(500),
            confirm: SimDuration::from_millis(200),
            check_period: SimDuration::from_millis(50),
        };
        let mut d = NetFailureDetector::new(&StTcpConfig::default(), ID);
        d.limits = limits;
        d.engage(t(0), true);
        d
    }

    /// Sends `n` probes one ping interval (200 ms) apart from `from` ms,
    /// none answered.
    fn unanswered(d: &mut NetFailureDetector, from: u64, n: u64) {
        for i in 0..n {
            let at = t(from) + PING_INTERVAL * i;
            assert!(d.probe(at).is_some(), "probe {i} not due");
        }
    }

    fn report(consecutive_failures: u32, attempts: u32) -> Option<PingReport> {
        Some(PingReport {
            consecutive_failures,
            attempts,
        })
    }

    fn obs() -> NetObservation {
        NetObservation::default()
    }

    #[test]
    fn quiet_network_no_verdict() {
        let mut d = det();
        assert_eq!(d.check(t(0), &obs()), None);
    }

    #[test]
    fn big_byte_lag_fires_after_confirmation() {
        let mut d = det();
        let o = NetObservation {
            my_bytes: 5_000,
            peer_bytes: 100,
            ..obs()
        };
        assert_eq!(d.check(t(0), &o), None);
        assert_eq!(d.check(t(200), &o), Some(FailureReason::NetByteLag));
    }

    #[test]
    fn small_byte_lag_needs_time() {
        let mut d = det();
        let o = NetObservation {
            my_bytes: 500,
            peer_bytes: 100,
            ..obs()
        };
        assert_eq!(d.check(t(0), &o), None);
        assert_eq!(d.check(t(499), &o), None);
        assert_eq!(d.check(t(500), &o), Some(FailureReason::NetByteLag));
    }

    #[test]
    fn ack_lag_detected_for_server_push() {
        let mut d = det();
        let o = NetObservation {
            my_acks: 100_000,
            peer_acks: 50_000,
            ..obs()
        };
        assert_eq!(d.check(t(0), &o), None);
        assert_eq!(d.check(t(200), &o), Some(FailureReason::NetAckLag));
    }

    #[test]
    fn heartbeat_sawtooth_never_fires() {
        let mut d = det();
        let mut mine = 0u64;
        let mut peers = 0u64;
        for ms in (0..3_000u64).step_by(50) {
            mine += 50_000;
            if ms % 150 == 0 {
                peers = mine;
            }
            let o = NetObservation {
                my_bytes: mine,
                peer_bytes: peers,
                ..obs()
            };
            assert_eq!(d.check(t(ms), &o), None, "false positive at {ms}ms");
        }
    }

    #[test]
    fn peer_ahead_is_never_a_peer_failure() {
        let mut d = det();
        let o = NetObservation {
            my_bytes: 100,
            peer_bytes: 9_999,
            my_acks: 0,
            peer_acks: 9_999,
            ..obs()
        };
        for ms in (0..5_000).step_by(100) {
            assert_eq!(d.check(t(ms), &o), None);
        }
    }

    #[test]
    fn ping_mismatch_condemns_peer() {
        let mut d = det();
        let (id, seq) = d.probe(t(0)).unwrap();
        d.on_reply(id, seq);
        let o = NetObservation {
            peer_report: report(3, 5),
            ..obs()
        };
        assert_eq!(d.check(t(0), &o), Some(FailureReason::NetPingFail));
        // The verdict decided the row: the campaign is over.
        assert_eq!((d.report(), d.probe_due()), (None, None));
    }

    #[test]
    fn ping_needs_local_success_evidence() {
        // No local attempts yet: not enough evidence.
        let mut d = det();
        let o = NetObservation {
            peer_report: report(5, 5),
            ..obs()
        };
        assert_eq!(d.check(t(0), &o), None);
        // Both failing: the gateway may be down; no verdict.
        unanswered(&mut d, 0, 4);
        assert_eq!(d.report(), report(3, 4));
        assert_eq!(d.check(t(600), &o), None);
    }

    #[test]
    fn engaging_makes_the_first_probe_due_at_once() {
        let mut d = det();
        d.engage(t(100), false);
        assert_eq!(d.probe_due(), None);
        d.engage(t(100), true);
        assert_eq!((d.probe_due(), d.report()), (Some(t(100)), report(0, 0)));
        assert_eq!(d.probe(t(100)), Some((ID, 1)));
        assert_eq!(d.report(), report(0, 1));
        // The next one is a ping interval out; staying engaged moves
        // nothing.
        d.engage(t(150), true);
        assert_eq!(d.probe_due(), Some(t(300)));
        assert_eq!(d.probe(t(299)), None);
    }

    #[test]
    fn an_unanswered_probe_counts_a_failure_at_the_next() {
        let mut d = det();
        unanswered(&mut d, 0, 1);
        assert_eq!(d.report(), report(0, 1));
        unanswered(&mut d, 200, 2);
        assert_eq!(d.report(), report(2, 3));
    }

    #[test]
    fn only_the_current_probe_clears_failures() {
        let mut d = det();
        unanswered(&mut d, 0, 3);
        assert_eq!(d.report(), report(2, 3));
        d.on_reply(ID, 2);
        d.on_reply(ID + 1, 3);
        assert_eq!(d.report(), report(2, 3), "a stale or foreign reply");
        d.on_reply(ID, 3);
        assert_eq!(d.report(), report(0, 3));
        // An answered probe is no failure at the next.
        unanswered(&mut d, 600, 1);
        assert_eq!(d.report(), report(0, 4));
    }

    #[test]
    fn a_disengaged_detector_neither_probes_nor_reports() {
        let mut d = det();
        unanswered(&mut d, 0, 1);
        d.engage(t(100), false);
        assert_eq!((d.probe_due(), d.report()), (None, None));
        assert_eq!(d.probe(t(10_000)), None);
        d.on_reply(ID, 1);
        let o = NetObservation {
            my_bytes: 5_000,
            peer_report: report(9, 9),
            ..obs()
        };
        assert_eq!(d.check(t(0), &o), None);
        assert_eq!(d.check(t(10_000), &o), None);
    }

    #[test]
    fn catching_up_resets_clock() {
        let mut d = det();
        let lag = NetObservation {
            my_bytes: 500,
            peer_bytes: 100,
            ..obs()
        };
        assert_eq!(d.check(t(0), &lag), None);
        let caught = NetObservation {
            my_bytes: 500,
            peer_bytes: 500,
            ..obs()
        };
        assert_eq!(d.check(t(400), &caught), None);
        assert_eq!(d.check(t(600), &lag), None, "clock restarted");
        assert_eq!(d.check(t(1_100), &lag), Some(FailureReason::NetByteLag));
    }

    #[test]
    fn idle_time_is_not_a_confirmation_window_already_served() {
        // Row 4 with both NICs healthy: the sums sit level for seconds,
        // then a client burst lands here before the next serial
        // heartbeat can report it at the peer. The peer only started
        // lagging now.
        let mut d = det();
        let level = NetObservation {
            my_bytes: 4_096,
            peer_bytes: 4_096,
            ..obs()
        };
        for ms in (0..3_000).step_by(50) {
            assert_eq!(d.check(t(ms), &level), None);
        }
        let burst = NetObservation {
            my_bytes: 4_096 + 20 * 1024,
            ..level
        };
        assert_eq!(d.check(t(3_000), &burst), None, "condemned on the jump");
        // A peer that really stopped receiving is still condemned one
        // confirmation window after it was last level.
        assert_eq!(d.check(t(3_100), &burst), None);
        assert_eq!(d.check(t(3_150), &burst), Some(FailureReason::NetByteLag));
    }

    /// Re-engaging is the only reset: failures, attempts and lag
    /// history start over, while the probe seq keeps counting.
    #[test]
    fn reset_clears_history() {
        let mut d = det();
        let lag = NetObservation {
            my_bytes: 500,
            peer_bytes: 100,
            ..obs()
        };
        let _ = d.check(t(0), &lag);
        unanswered(&mut d, 0, 2);
        d.engage(t(300), false);
        d.engage(t(300), true);
        assert_eq!(d.report(), report(0, 0));
        assert_eq!(d.probe(t(300)), Some((ID, 3)));
        assert_eq!(d.check(t(400), &lag), None);
        assert_eq!(d.check(t(899), &lag), None);
        assert_eq!(d.check(t(900), &lag), Some(FailureReason::NetByteLag));
    }
}
