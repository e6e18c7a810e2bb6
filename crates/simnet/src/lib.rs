//! # simnet — a deterministic discrete-event network simulator
//!
//! `simnet` provides the physical substrate the ST-TCP reproduction runs
//! on: hosts with NICs and power state, point-to-point Ethernet links with
//! latency/bandwidth/loss, a learning switch with multicast flooding (the
//! mechanism behind ST-TCP's traffic tap), RS-232 serial channels (the
//! second heartbeat link), an IPv4-lite layer with static ARP and ICMP
//! echo, and a fault-injection API covering every failure class in the
//! paper's Table 1.
//!
//! Everything runs single-threaded on a virtual clock. Given the same
//! seed, topology, and scripts, a run is bit-for-bit reproducible — which
//! is what makes failover-time measurements and failure-scenario tests
//! meaningful.
//!
//! ## Layers
//!
//! * [`time`] / [`event`] / [`rng`] / [`hash`] — the simulation kernel.
//! * [`mac`] / [`frame`] / [`link`] / [`switch`] / [`serial`] — layer 2.
//! * [`ip`] / [`iplayer`] — layer 3 (IPv4-lite, static ARP, ICMP echo).
//! * [`node`] / [`host`] / [`world`] — hosts and the event loop.
//! * [`fault`] / [`flight`] / [`profile`] — fault injection and
//!   observability: the fault log, the causal flight recorder (per-host
//!   bounded rings), and the per-component wall-clock profiler.
//!
//! ## Example
//!
//! ```
//! use simnet::prelude::*;
//! use bytes::Bytes;
//!
//! // A node that greets a peer once at startup.
//! struct Greeter { me: MacAddr, peer: MacAddr, got: usize }
//! impl Node for Greeter {
//!     fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
//!         let f = EthernetFrame::new(self.me, self.peer, EtherType::Ipv4,
//!                                    Bytes::from_static(b"hi"));
//!         ctx.send_frame(NicId(0), f);
//!     }
//!     fn on_frame(&mut self, _: &mut NodeCtx<'_>, _: NicId, _: EthernetFrame) {
//!         self.got += 1;
//!     }
//!     fn on_timer(&mut self, _: &mut NodeCtx<'_>, _: TimerToken) {}
//! }
//!
//! let mut w = World::new(1);
//! let (ma, mb) = (MacAddr::unicast(1), MacAddr::unicast(2));
//! let a = w.add_node("a", Box::new(Greeter { me: ma, peer: mb, got: 0 }));
//! let b = w.add_node("b", Box::new(Greeter { me: mb, peer: ma, got: 0 }));
//! let na = w.add_nic(a, ma);
//! let nb = w.add_nic(b, mb);
//! w.connect_nodes((a, na), (b, nb), LinkParams::lan());
//! w.start();
//! w.run_until(SimTime::from_millis(1));
//! assert_eq!(w.node::<Greeter>(b).unwrap().got, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod fault;
pub mod flight;
pub mod frame;
pub mod hash;
pub mod host;
pub mod ip;
pub mod iplayer;
pub mod link;
pub mod mac;
pub mod node;
pub mod profile;
pub mod rng;
pub mod serial;
pub mod switch;
pub mod time;
pub mod world;

/// Commonly used items, re-exported for convenient glob import.
pub mod prelude {
    pub use crate::flight::{FlightEvent, FlightKind, FlightRecorder, SpanId};
    pub use crate::frame::{EtherType, EthernetFrame};
    pub use crate::ip::{IcmpMessage, IpProto, Ipv4Packet};
    pub use crate::iplayer::IpInterface;
    pub use crate::link::{LinkDir, LinkId, LinkParams, SwitchId};
    pub use crate::mac::MacAddr;
    pub use crate::node::{NicId, Node, NodeCtx, NodeId, SerialPortId, TimerToken};
    pub use crate::profile::Component;
    pub use crate::rng::SimRng;
    pub use crate::serial::{SerialId, SerialParams};
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::world::World;
}
