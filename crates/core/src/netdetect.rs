//! The local-network (NIC/cable) failure detector (§4.3).
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
//! The two lag comparisons are the application-lag detector's tracker,
//! `applag::LagTrack`, fed with sums instead of one connection's
//! positions: the serial heartbeat is exactly as stale as the IP one, so
//! the same staleness rules apply — the byte criterion needs the peer
//! stalled for a confirmation window *while behind* (an idle stretch
//! spent level with it does not count), the time criterion ages the
//! oldest position the peer has not matched.

use simnet::time::{SimDuration, SimTime};

use crate::applag::LagTrack;
use crate::config::PING_FAIL_THRESHOLD;
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
    /// This server's own gateway-ping campaign state.
    pub my_ping: Option<PingReport>,
    /// The peer's gateway-ping report, from its heartbeat stream.
    pub peer_report: Option<PingReport>,
}

/// Local-network failure detector. One per server (aggregated across
/// connections).
#[derive(Debug, Clone)]
pub struct NetFailureDetector {
    lag_bytes: u64,
    lag_time: SimDuration,
    confirm: SimDuration,
    byte_lag: LagTrack,
    ack_lag: LagTrack,
}

impl NetFailureDetector {
    /// Creates a detector with the byte/time lag thresholds and the
    /// staleness-confirmation window (must exceed the heartbeat period).
    pub fn new(lag_bytes: u64, lag_time: SimDuration, confirm: SimDuration) -> Self {
        NetFailureDetector {
            lag_bytes,
            lag_time,
            confirm,
            byte_lag: LagTrack::default(),
            ack_lag: LagTrack::default(),
        }
    }

    /// Evaluates one observation. **Only call while the IP heartbeat is
    /// dead and the serial heartbeat is alive** — outside that condition
    /// the verdicts are meaningless; call [`NetFailureDetector::reset`]
    /// instead.
    pub fn check(&mut self, now: SimTime, obs: &NetObservation) -> Option<FailureReason> {
        // Either lag criterion of a track condemns the peer under that
        // track's row-4 reason.
        let (bytes, time, confirm) = (self.lag_bytes, self.lag_time, self.confirm);
        let lags = |track: &mut LagTrack, mine, peers| {
            track
                .update(now, mine, peers, bytes, time, confirm)
                .is_some()
        };
        if lags(&mut self.byte_lag, obs.my_bytes, obs.peer_bytes) {
            return Some(FailureReason::NetByteLag);
        }
        if lags(&mut self.ack_lag, obs.my_acks, obs.peer_acks) {
            return Some(FailureReason::NetAckLag);
        }
        if let (Some(mine), Some(peers)) = (obs.my_ping, obs.peer_report) {
            if peers.consecutive_failures >= PING_FAIL_THRESHOLD
                && mine.consecutive_failures == 0
                && mine.attempts > 0
            {
                return Some(FailureReason::NetPingFail);
            }
        }
        None
    }

    /// Clears lag history (call whenever the engagement condition stops
    /// holding).
    pub fn reset(&mut self) {
        self.byte_lag = LagTrack::default();
        self.ack_lag = LagTrack::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn det() -> NetFailureDetector {
        NetFailureDetector::new(
            1_000,
            SimDuration::from_millis(500),
            SimDuration::from_millis(200),
        )
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
        let o = NetObservation {
            my_ping: Some(PingReport {
                consecutive_failures: 0,
                attempts: 5,
            }),
            peer_report: Some(PingReport {
                consecutive_failures: 3,
                attempts: 5,
            }),
            ..obs()
        };
        assert_eq!(d.check(t(0), &o), Some(FailureReason::NetPingFail));
    }

    #[test]
    fn ping_needs_local_success_evidence() {
        let mut d = det();
        // Both failing: the gateway may be down; no verdict.
        let both = NetObservation {
            my_ping: Some(PingReport {
                consecutive_failures: 3,
                attempts: 5,
            }),
            peer_report: Some(PingReport {
                consecutive_failures: 3,
                attempts: 5,
            }),
            ..obs()
        };
        assert_eq!(d.check(t(0), &both), None);
        // No local attempts yet: not enough evidence.
        let unproven = NetObservation {
            my_ping: Some(PingReport {
                consecutive_failures: 0,
                attempts: 0,
            }),
            peer_report: Some(PingReport {
                consecutive_failures: 5,
                attempts: 5,
            }),
            ..obs()
        };
        assert_eq!(d.check(t(0), &unproven), None);
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

    #[test]
    fn reset_clears_history() {
        let mut d = det();
        let lag = NetObservation {
            my_bytes: 500,
            peer_bytes: 100,
            ..obs()
        };
        let _ = d.check(t(0), &lag);
        d.reset();
        assert_eq!(d.check(t(499), &lag), None);
        assert_eq!(d.check(t(999), &lag), Some(FailureReason::NetByteLag));
    }
}
