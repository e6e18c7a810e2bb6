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

pub mod cc;
mod chunks;
pub mod conn;
pub mod endpoint;
pub mod recvbuf;
pub mod rto;
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
    pub use crate::rto::RtoConfig;
    pub use crate::segment::{TcpFlags, TcpSegment};
    pub use crate::seq::SeqNum;
    pub use crate::socket::{FourTuple, SocketEvent, SocketId};
}
