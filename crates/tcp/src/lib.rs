//! # simtcp — a userspace TCP for the ST-TCP reproduction
//!
//! A full TCP implementation (handshake, sliding window with flow and
//! congestion control, retransmission with exponential backoff, graceful
//! close, reset handling) designed to run inside the deterministic
//! [`simnet`] simulator, plus the hook points the ST-TCP layer needs:
//!
//! * deterministic initial sequence numbers ([`endpoint::IsnPolicy`]),
//! * egress suppression for the backup ([`endpoint::EgressMode`]),
//! * FIN gating for `MaxDelayFIN` arbitration ([`endpoint::FinGate`]),
//! * the extended receive ("hold") buffer and missed-byte recovery
//!   ([`conn::TcpConn::fetch_held`], [`conn::TcpConn::inject_in_order`]),
//! * full observability of the paper's heartbeat fields
//!   (`LastByteReceived`, `LastAckReceived`, `LastAppByteWritten`,
//!   `LastAppByteRead`).
//!
//! The crate is a plain state-machine library: no I/O, no threads, no
//! wall-clock time. Hosts embed a [`endpoint::TcpEndpoint`] and shuttle
//! [`simnet::ip::Ipv4Packet`]s in and out.
//!
//! ## Example
//!
//! ```
//! use simtcp::endpoint::{EndpointConfig, ListenConfig, TcpEndpoint};
//! use simnet::time::SimTime;
//!
//! let now = SimTime::ZERO;
//! let mut server = TcpEndpoint::new(EndpointConfig { seed: 1, ..Default::default() });
//! let mut client = TcpEndpoint::new(EndpointConfig { seed: 2, ..Default::default() });
//! server.listen(80, ListenConfig::default());
//! let sock = client.connect(now, ("10.0.0.1".parse()?, 40000), ("10.0.0.9".parse()?, 80));
//!
//! // Shuttle packets until quiet (a simulator normally does this).
//! loop {
//!     let cp = client.poll_packets(now);
//!     let sp = server.poll_packets(now);
//!     if cp.is_empty() && sp.is_empty() { break; }
//!     for p in cp { server.on_packet(now, &p); }
//!     for p in sp { client.on_packet(now, &p); }
//! }
//! assert_eq!(client.conn(sock).unwrap().state(), simtcp::conn::TcpState::Established);
//! # Ok::<(), std::net::AddrParseError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chunks;
pub mod conn;
pub mod endpoint;
mod recovery;
pub mod recvbuf;
pub mod segment;
pub mod sendbuf;
pub mod seq;
pub mod socket;

/// Commonly used items, re-exported for convenient glob import.
pub mod prelude {
    pub use crate::conn::{ConnEvent, ConnStats, TcpConfig, TcpConn, TcpState};
    pub use crate::endpoint::{
        EgressMode, EndpointConfig, FinGate, IsnPolicy, ListenConfig, RstPolicy, TcpEndpoint,
    };
    pub use crate::segment::{TcpFlags, TcpSegment};
    pub use crate::seq::SeqNum;
    pub use crate::socket::{FourTuple, SocketEvent, SocketId};
}

// The unit tests of Reno's window and of the RFC 6298 timeout, under the
// paths they had before both merged into `recovery`.
#[cfg(test)]
mod cc {
    mod tests {
        use crate::conn::MSS;
        use crate::recovery::Recovery;
        use simnet::time::SimTime;

        const M: u64 = MSS as u64;

        /// Acks `bytes` in MSS steps.
        fn ack(r: &mut Recovery, bytes: u64) {
            for _ in 0..bytes / M {
                r.on_progress(M, None, true, SimTime::ZERO);
            }
        }

        #[test]
        fn initial_window_is_4_mss() {
            let r = Recovery::new();
            assert_eq!(r.cwnd(), 4 * M);
            assert!(r.cwnd() < r.ssthresh(), "slow start");
        }

        #[test]
        fn slow_start_doubles_per_rtt() {
            let mut r = Recovery::new();
            let start = r.cwnd();
            ack(&mut r, start);
            assert_eq!(r.cwnd(), 2 * start);
        }

        #[test]
        fn avoidance_grows_linearly() {
            let mut r = Recovery::new();
            assert!(r.on_timeout(100 * M)); // ssthresh = 50 MSS, cwnd = 1 MSS
            while r.cwnd() < r.ssthresh() {
                ack(&mut r, M);
            }
            let cwnd = r.cwnd();
            ack(&mut r, cwnd);
            assert_eq!(r.cwnd(), cwnd + M, "one cwnd of acks, one MSS");
        }

        #[test]
        fn timeout_collapses_window() {
            let mut r = Recovery::new();
            ack(&mut r, 100 * M);
            let flight = r.cwnd();
            assert!(r.on_timeout(flight));
            assert_eq!(r.cwnd(), M);
            assert_eq!(r.ssthresh(), (flight / 2).max(2 * M));
        }

        #[test]
        fn fast_retransmit_halves() {
            let mut r = Recovery::new();
            ack(&mut r, 100 * M);
            let flight = r.cwnd();
            let dups: Vec<bool> = (0..4)
                .map(|_| r.on_dup_ack(flight, SimTime::ZERO))
                .collect();
            assert_eq!(dups, [false, false, true, false], "the third, once");
            assert_eq!(r.cwnd(), (flight / 2).max(2 * M));
            assert_eq!(r.cwnd(), r.ssthresh());
        }

        #[test]
        fn ssthresh_floor_is_2_mss() {
            let mut r = Recovery::new();
            assert!(r.on_timeout(0));
            assert_eq!(r.ssthresh(), 2 * M);
        }

        #[test]
        fn allowance_subtracts_flight() {
            let r = Recovery::new();
            assert_eq!(r.allowance(0), 4 * M);
            assert_eq!(r.allowance(3 * M), M);
            assert_eq!(r.allowance(10 * M), 0);
        }

        #[test]
        fn zero_ack_is_ignored() {
            let mut r = Recovery::new();
            let w = r.cwnd();
            r.on_progress(0, None, true, SimTime::ZERO); // our FIN's ACK alone
            assert_eq!(r.cwnd(), w);
        }
    }
}

#[cfg(test)]
mod rto {
    mod tests {
        use crate::conn::MSS;
        use crate::recovery::{Recovery, INITIAL_RTO, MAX_RETRIES, MAX_RTO, MIN_RTO};
        use simnet::time::{SimDuration, SimTime};

        const M: u64 = MSS as u64;

        /// One acked MSS timed at `ms`.
        fn sample(r: &mut Recovery, ms: u64) {
            let rtt = Some(SimDuration::from_millis(ms));
            r.on_progress(M, rtt, true, SimTime::ZERO);
        }

        #[test]
        fn initial_rto_before_samples() {
            let r = Recovery::new();
            assert_eq!(r.rto(), INITIAL_RTO);
            assert_eq!(r.rto(), SimDuration::from_millis(1_000));
            assert_eq!(r.srtt(), None);
        }

        #[test]
        fn first_sample_sets_srtt() {
            let mut r = Recovery::new();
            sample(&mut r, 10);
            assert_eq!(r.srtt(), Some(SimDuration::from_millis(10)));
            // RTO = srtt + 4*rttvar = 10 + 20 = 30ms, clamped up to min 200ms.
            assert_eq!(r.rto(), MIN_RTO);
        }

        #[test]
        fn backoff_doubles_and_clamps() {
            let mut r = Recovery::new();
            sample(&mut r, 10); // rto floor 200ms
            let base = r.rto();
            assert!(r.on_timeout(M));
            assert_eq!(r.rto(), base * 2);
            assert!(r.on_timeout(M));
            assert_eq!(r.rto(), base * 4);
            assert!((2..MAX_RETRIES).all(|_| r.on_timeout(M)));
            assert_eq!(r.rto(), MAX_RTO, "max clamp");
            assert!(!r.on_timeout(M), "one past the retry budget gives up");
            assert_eq!(r.rto(), MAX_RTO);
        }

        #[test]
        fn sample_resets_backoff() {
            let mut r = Recovery::new();
            sample(&mut r, 10);
            assert!(r.on_timeout(M) && r.on_timeout(M));
            assert_eq!(r.timeouts(), 2);
            sample(&mut r, 10);
            assert_eq!(r.timeouts(), 0);
            let mut r2 = Recovery::new();
            sample(&mut r2, 10);
            assert_eq!(r.rto(), r2.rto());
        }

        #[test]
        fn reset_backoff_explicit() {
            let mut r = Recovery::new();
            assert!(r.on_timeout(M));
            assert_eq!(r.timeouts(), 1);
            r.restart();
            assert_eq!(r.timeouts(), 0);
            assert_eq!(r.rto(), INITIAL_RTO);
        }

        #[test]
        fn large_rtt_raises_rto_above_floor() {
            let mut r = Recovery::new();
            sample(&mut r, 500);
            // srtt 500ms + 4*250ms = 1.5s > floor.
            assert_eq!(r.rto(), SimDuration::from_millis(1_500));
        }
    }
}
