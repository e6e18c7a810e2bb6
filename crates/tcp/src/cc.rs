//! Reno-style congestion control.
//!
//! Slow start, congestion avoidance, fast retransmit on three duplicate
//! ACKs, and multiplicative decrease on timeout. Deliberately plain Reno
//! (no SACK, no NewReno partial-ack logic): the paper predates all of
//! that, and what the experiments need is the qualitative behaviour —
//! ramp-up on a clean LAN and window collapse after the retransmission
//! timeouts that surround a failover. After a timeout the connection goes
//! back to `snd.una` and resends everything unacknowledged from the
//! one-MSS window up (see [`crate::conn`]).

use core::fmt;

/// Congestion-control state for one connection.
#[derive(Debug, Clone)]
pub struct CongestionControl {
    mss: u32,
    cwnd: u64,
    ssthresh: u64,
    /// Bytes acked since the last cwnd increment during congestion
    /// avoidance.
    avoid_acc: u64,
}

impl CongestionControl {
    /// Creates Reno state for a connection with the given MSS.
    ///
    /// Initial window is 4 MSS (RFC 3390 flavour), initial ssthresh is
    /// effectively unbounded.
    pub fn new(mss: u32) -> CongestionControl {
        CongestionControl {
            mss,
            cwnd: 4 * mss as u64,
            ssthresh: u64::MAX / 2,
            avoid_acc: 0,
        }
    }

    /// The current congestion window in bytes.
    pub fn cwnd(&self) -> u64 {
        self.cwnd
    }

    /// The current slow-start threshold in bytes.
    pub fn ssthresh(&self) -> u64 {
        self.ssthresh
    }

    /// True while in slow start.
    pub fn in_slow_start(&self) -> bool {
        self.cwnd < self.ssthresh
    }

    /// How many more bytes may be in flight given `flight` bytes already
    /// outstanding.
    pub fn send_allowance(&self, flight: u64) -> u64 {
        self.cwnd.saturating_sub(flight)
    }

    /// Called when an ACK advances `snd.una` by `acked` bytes.
    pub fn on_ack(&mut self, acked: u64) {
        if acked == 0 {
            return;
        }
        if self.in_slow_start() {
            self.cwnd += acked.min(self.mss as u64);
        } else {
            // Congestion avoidance: +1 MSS per cwnd of acked data.
            self.avoid_acc += acked;
            if self.avoid_acc >= self.cwnd {
                self.avoid_acc -= self.cwnd;
                self.cwnd += self.mss as u64;
            }
        }
    }

    /// Called when a retransmission timeout fires with `flight` bytes
    /// outstanding: ssthresh halves, cwnd collapses to one MSS.
    pub fn on_timeout(&mut self, flight: u64) {
        self.ssthresh = (flight / 2).max(2 * self.mss as u64);
        self.cwnd = self.mss as u64;
        self.avoid_acc = 0;
    }

    /// Called on the third duplicate ACK (fast retransmit): halve.
    pub fn on_fast_retransmit(&mut self, flight: u64) {
        self.ssthresh = (flight / 2).max(2 * self.mss as u64);
        self.cwnd = self.ssthresh;
        self.avoid_acc = 0;
    }
}

impl fmt::Display for CongestionControl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cwnd={} ssthresh={} ({})",
            self.cwnd,
            self.ssthresh,
            if self.in_slow_start() {
                "slow-start"
            } else {
                "avoidance"
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MSS: u32 = 1460;

    #[test]
    fn initial_window_is_4_mss() {
        let cc = CongestionControl::new(MSS);
        assert_eq!(cc.cwnd(), 4 * MSS as u64);
        assert!(cc.in_slow_start());
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut cc = CongestionControl::new(MSS);
        let start = cc.cwnd();
        // Ack a full window's worth in MSS chunks: cwnd should double.
        let mut acked = 0;
        while acked < start {
            cc.on_ack(MSS as u64);
            acked += MSS as u64;
        }
        assert_eq!(cc.cwnd(), 2 * start);
    }

    #[test]
    fn avoidance_grows_linearly() {
        let mut cc = CongestionControl::new(MSS);
        // Force into avoidance with a known cwnd.
        cc.on_timeout(100 * MSS as u64); // ssthresh = 50 MSS, cwnd = 1 MSS
        while cc.in_slow_start() {
            cc.on_ack(MSS as u64);
        }
        let cwnd = cc.cwnd();
        // One cwnd of acks ⇒ exactly one MSS of growth.
        let mut acked = 0;
        while acked < cwnd {
            cc.on_ack(MSS as u64);
            acked += MSS as u64;
        }
        assert!(
            cc.cwnd() >= cwnd + MSS as u64 && cc.cwnd() <= cwnd + 2 * MSS as u64,
            "cwnd grew from {cwnd} to {}",
            cc.cwnd()
        );
    }

    #[test]
    fn timeout_collapses_window() {
        let mut cc = CongestionControl::new(MSS);
        for _ in 0..100 {
            cc.on_ack(MSS as u64);
        }
        let flight = cc.cwnd();
        cc.on_timeout(flight);
        assert_eq!(cc.cwnd(), MSS as u64);
        assert_eq!(cc.ssthresh(), (flight / 2).max(2 * MSS as u64));
    }

    #[test]
    fn fast_retransmit_halves() {
        let mut cc = CongestionControl::new(MSS);
        for _ in 0..100 {
            cc.on_ack(MSS as u64);
        }
        let flight = cc.cwnd();
        cc.on_fast_retransmit(flight);
        assert_eq!(cc.cwnd(), (flight / 2).max(2 * MSS as u64));
        assert!(!cc.in_slow_start() || cc.cwnd() == cc.ssthresh());
    }

    #[test]
    fn ssthresh_floor_is_2_mss() {
        let mut cc = CongestionControl::new(MSS);
        cc.on_timeout(0);
        assert_eq!(cc.ssthresh(), 2 * MSS as u64);
    }

    #[test]
    fn allowance_subtracts_flight() {
        let cc = CongestionControl::new(MSS);
        assert_eq!(cc.send_allowance(0), 4 * MSS as u64);
        assert_eq!(cc.send_allowance(3 * MSS as u64), MSS as u64);
        assert_eq!(cc.send_allowance(10 * MSS as u64), 0);
    }

    #[test]
    fn zero_ack_is_ignored() {
        let mut cc = CongestionControl::new(MSS);
        let w = cc.cwnd();
        cc.on_ack(0);
        assert_eq!(cc.cwnd(), w);
    }

    #[test]
    fn display_names_phase() {
        let mut cc = CongestionControl::new(MSS);
        assert!(cc.to_string().contains("slow-start"));
        cc.on_timeout(100 * MSS as u64);
        while cc.in_slow_start() {
            cc.on_ack(MSS as u64);
        }
        assert!(cc.to_string().contains("avoidance"));
    }
}
