//! # sttcp — Server fault-Tolerant TCP
//!
//! A from-scratch reproduction of **ST-TCP** (Marwah, Mishra, Fetzer —
//! "A System Demonstration of ST-TCP", DSN 2005): a primary-backup
//! extension of TCP in which an active backup taps the client's traffic,
//! runs a deterministic replica of the server application with matching
//! sequence numbers, and takes over the TCP connection — same IP, same
//! port, same sequence space — when the primary fails. The failover is
//! invisible to an unmodified client.
//!
//! ## What lives where
//!
//! * [`server`] — [`server::StTcpServer`], the node that ties everything
//!   together; instantiate one as primary and one as backup.
//! * [`config`] — every tunable the paper names (`hb_period`,
//!   `AppMaxLagBytes`, `AppMaxLagTime`, `MaxDelayFIN`, …).
//! * [`heartbeat`] — the dual-link heartbeat wire format (§3).
//! * [`linkmon`] / [`applag`] / [`netdetect`] / [`finarb`] — the failure
//!   detectors of Table 1 (HW/OS crash, application crash without and
//!   with cleanup, NIC/local-network failure).
//! * [`recover`] — missed-byte recovery from the primary's extended
//!   receive buffer (Table 1 row 5).
//! * [`pool`] — the N-replica standby-pool extension: rank-ordered
//!   takeover with quorum-checked fencing and rank reassignment on
//!   rejoin (pair mode is the degenerate two-member pool).
//! * [`metrics`] — per-server counters, gauges, and histograms
//!   ([`metrics::ServerMetrics`]) fed from the protocol hot paths and
//!   serialized into the `obs` metrics report.
//! * [`app`] — the deterministic application contract (§2's assumption,
//!   made explicit) that replicas must satisfy.
//! * [`events`] — the externally observable protocol event log that tests
//!   and experiment harnesses assert on.
//!
//! The substrate lives in the sibling crates: [`simnet`] (deterministic
//! network simulation: switch with multicast tap, serial link, fault
//! injection, STONITH power control) and [`simtcp`] (the userspace TCP
//! with ST-TCP's hook points).
//!
//! ## Example
//!
//! Building the full two-server topology takes a dozen wiring steps
//! (NICs, switch, serial cable, ARP entries), so the runnable examples
//! live in the workspace's `examples/` directory and the scenario builder
//! in the `sttcp-apps` crate; start with `examples/quickstart.rs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod app;
pub mod applag;
pub mod config;
mod conntable;
pub mod events;
pub mod finarb;
mod hbsend;
pub mod heartbeat;
pub mod invariant;
mod join;
pub mod linkmon;
pub mod metrics;
pub mod milestone;
pub mod netdetect;
pub mod pool;
pub mod recover;
pub mod server;
pub mod wire;

/// Commonly used items, re-exported for convenient glob import.
pub mod prelude {
    pub use crate::app::{AppAction, AppFactory, Application, EchoApp};
    pub use crate::config::{Role, StTcpConfig};
    pub use crate::events::{FailureReason, FinReleaseReason, HbLink, StTcpEvent};
    pub use crate::heartbeat::{conn_key, ConnHb, HbPayload, PingReport};
    pub use crate::pool::PoolPeer;
    pub use crate::server::{AppCrashMode, ByzantineHbMode, ServerSetup, StTcpServer};
}
