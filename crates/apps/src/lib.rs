//! # sttcp-apps — workloads, clients, and scenarios for ST-TCP
//!
//! Everything needed to *exercise* the [`sttcp`] core:
//!
//! * [`apps`] — deterministic server applications (streamer,
//!   request/response worker, sink) satisfying ST-TCP's replica contract.
//! * [`client`] — a verifying TCP client that checks every received byte
//!   against the deterministic [`pattern`] and records a progress series
//!   (the headless pie chart of the paper's Demo 1).
//! * [`scenario`] — topology builders: the paper's Figure 2 setup
//!   (client + primary + backup + switch + serial cable + multicast tap),
//!   the same figure widened to an N-replica pool
//!   ([`scenario::ScenarioBuilder::pool`]) and the plain-TCP baselines,
//!   plus schedulable fault injections for every Table 1 row.
//! * [`chaos`] — fault schedules, the one applier and the one case
//!   runner ([`chaos::run_chaos_case`]) for pair and pool alike;
//!   [`pool`] holds only what the pool judges a run by.
//! * [`plain`] — the non-fault-tolerant baseline server.
//!
//! ## Quickstart
//!
//! ```
//! use std::rc::Rc;
//! use simnet::time::SimTime;
//! use sttcp_apps::apps::StreamApp;
//! use sttcp_apps::client::ClientWorkload;
//! use sttcp_apps::scenario::ScenarioBuilder;
//!
//! // A 64 KiB download that survives a primary crash at t = 1s.
//! let mut s = ScenarioBuilder::new(
//!     Rc::new(|| Box::new(StreamApp::new(4096, false)) as _),
//!     ClientWorkload::Download { total: 64 * 1024 },
//! )
//! .seed(7)
//! .build();
//! s.crash_primary_at(SimTime::from_secs(1));
//! s.world.run_until(SimTime::from_secs(20));
//! assert!(s.client_finished());
//! assert_eq!(s.client_log().integrity_violations, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apps;
pub mod chaos;
pub mod client;
pub mod explore;
pub mod pattern;
pub mod plain;
pub mod pool;
pub mod scenario;

/// Commonly used items, re-exported for convenient glob import.
pub mod prelude {
    pub use crate::apps::{CommitStreamApp, ReqRespApp, SinkApp, StreamApp};
    pub use crate::chaos::{
        run_chaos_case, shrink_schedule, ChaosAction, ChaosOptions, ChaosReport, ChaosWorkload,
        FaultSchedule, LinkSel, ShrinkResult, Side, TimedAction,
    };
    pub use crate::client::{ClientConfig, ClientLog, ClientWorkload, ReconnectPolicy, TcpClient};
    pub use crate::explore::{
        build_lattice, explore_case, pair_offsets, probe_milestones, Anchor, AnchorKind,
        CaseResult, ExploreSummary, GrammarOp, Lattice, ViolationCase,
    };
    pub use crate::pattern::{pattern_byte, pattern_chunk, verify_pattern};
    pub use crate::plain::{PlainServer, PlainServerConfig};
    pub use crate::pool::pool_expectation;
    pub use crate::scenario::{
        build_baseline, Addressing, AppMaker, BaselineScenario, Scenario, ScenarioBuilder, Topology,
    };
}
