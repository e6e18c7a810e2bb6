//! The [`Node`] trait and the context handed to node callbacks.
//!
//! A *node* is any host-like participant in the simulation: a client, the
//! primary server, the backup server, a gateway. Nodes are pure event
//! handlers — they receive frames, serial bytes, and timer firings, and
//! react by queueing *effects* (frames to send, timers to arm, a peer to
//! power off) on the [`NodeCtx`]. The world applies effects after the
//! callback returns, which keeps the event loop free of aliasing and makes
//! every step deterministic.

use bytes::Bytes;
use core::fmt;

use crate::flight::{FlightKind, FlightRecorder, SpanId};
use crate::frame::EthernetFrame;
use crate::profile::{Component, Profiler};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// Identifies a node within a [`crate::world::World`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

/// Identifies a NIC within a node (dense, starting at 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NicId(pub usize);

/// Identifies a serial port within a node (dense, starting at 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SerialPortId(pub usize);

/// A world-unique handle for a pending timer, used for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerId(pub u64);

/// An opaque payload a node attaches to a timer so it can tell its timers
/// apart when they fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerToken(pub u64);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// An effect queued by a node callback, applied by the world afterwards.
#[derive(Debug)]
pub(crate) enum Effect {
    SendFrame {
        nic: NicId,
        frame: EthernetFrame,
    },
    SendSerial {
        port: SerialPortId,
        data: Bytes,
    },
    SetTimer {
        id: TimerId,
        at: SimTime,
        token: TimerToken,
    },
    CancelTimer(TimerId),
    PowerOff {
        target: NodeId,
        after: SimDuration,
    },
    Trace(String),
}

/// The context passed to every [`Node`] callback.
///
/// Provides the current virtual time, deterministic randomness, and the
/// ability to queue effects. All effects take hold only after the callback
/// returns, in the order they were queued.
pub struct NodeCtx<'a> {
    pub(crate) now: SimTime,
    pub(crate) node: NodeId,
    pub(crate) rng: &'a mut SimRng,
    pub(crate) effects: &'a mut Vec<Effect>,
    pub(crate) next_timer_id: &'a mut u64,
    pub(crate) flight: &'a mut FlightRecorder,
    pub(crate) profiler: &'a mut Profiler,
}

impl fmt::Debug for NodeCtx<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NodeCtx")
            .field("now", &self.now)
            .field("node", &self.node)
            .finish_non_exhaustive()
    }
}

impl NodeCtx<'_> {
    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the node being called.
    pub fn node_id(&self) -> NodeId {
        self.node
    }

    /// Deterministic randomness shared by the whole world.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// Queues a frame for transmission out of `nic`.
    ///
    /// Silently dropped by the world if the NIC is down, unattached, or the
    /// node is powered off — exactly like a real NIC with no carrier.
    pub fn send_frame(&mut self, nic: NicId, frame: EthernetFrame) {
        self.effects.push(Effect::SendFrame { nic, frame });
    }

    /// Queues `data` for transmission out of serial port `port`.
    pub fn send_serial(&mut self, port: SerialPortId, data: Bytes) {
        self.effects.push(Effect::SendSerial { port, data });
    }

    /// Arms a timer to fire `after` from now, delivering `token` to
    /// [`Node::on_timer`]. Returns a handle usable with
    /// [`NodeCtx::cancel_timer`].
    pub fn set_timer(&mut self, after: SimDuration, token: TimerToken) -> TimerId {
        let id = TimerId(*self.next_timer_id);
        *self.next_timer_id += 1;
        self.effects.push(Effect::SetTimer {
            id,
            at: self.now + after,
            token,
        });
        id
    }

    /// Cancels a previously armed timer. Cancelling an already-fired or
    /// already-cancelled timer is a no-op.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.effects.push(Effect::CancelTimer(id));
    }

    /// Moves a node's one deadline timer to `want`. `armed` is the
    /// caller's record of the timer it has set and the instant it is set
    /// for: nothing happens while that instant is `want`; otherwise the
    /// old timer (if any) is cancelled and a new one (if wanted) armed,
    /// in that order. A deadline already past fires at once.
    pub fn rearm_timer(
        &mut self,
        armed: &mut Option<(TimerId, SimTime)>,
        want: Option<SimTime>,
        token: TimerToken,
    ) {
        if armed.map(|(_, at)| at) == want {
            return;
        }
        if let Some((id, _)) = armed.take() {
            self.cancel_timer(id);
        }
        if let Some(at) = want {
            let id = self.set_timer(at.saturating_since(self.now), token);
            *armed = Some((id, at));
        }
    }

    /// Commands the power controller to power off `target` after `after`
    /// (the STONITH action the backup performs before taking over a
    /// connection, and the primary performs before going non-fault-tolerant).
    pub fn power_off(&mut self, target: NodeId, after: SimDuration) {
        self.effects.push(Effect::PowerOff { target, after });
    }

    /// Records a line in the world trace (visible to tests and harnesses).
    pub fn trace(&mut self, msg: impl Into<String>) {
        self.effects.push(Effect::Trace(msg.into()));
    }

    /// Records a causal event in this node's flight-recorder ring.
    /// The event is `Copy` and a ring allocates only while growing to
    /// its bound, so this is safe on the hottest datapath.
    pub fn flight(&mut self, span: SpanId, parent: SpanId, kind: FlightKind) {
        self.flight
            .record(Some(self.node), self.now, span, parent, kind);
    }

    /// Opens a profiler sub-scope attributed to `comp` (for refining a
    /// dispatch's attribution, e.g. the TCP work inside a server
    /// callback). Must be balanced with [`NodeCtx::profile_exit`]
    /// before the callback returns. No-op when profiling is disabled.
    pub fn profile_enter(&mut self, comp: Component) {
        self.profiler.enter(comp);
    }

    /// Closes the innermost profiler sub-scope.
    pub fn profile_exit(&mut self) {
        self.profiler.exit();
    }

    /// The world's profiler, for handing to helpers that open sub-scopes
    /// of their own but need nothing else from the context.
    pub fn profiler(&mut self) -> &mut Profiler {
        self.profiler
    }
}

/// A participant in the simulation.
///
/// Implementations live outside `simnet` (the TCP endpoints, ST-TCP
/// servers, clients, and gateways). All callbacks receive a [`NodeCtx`]
/// for observing time and queueing effects.
///
/// The `Any` supertrait lets harnesses recover the concrete node type
/// after a run via [`crate::world::World::node`] to inspect final state.
pub trait Node: core::any::Any {
    /// Called once when the world starts, before any other event.
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        let _ = ctx;
    }

    /// A frame arrived on `nic`.
    fn on_frame(&mut self, ctx: &mut NodeCtx<'_>, nic: NicId, frame: EthernetFrame);

    /// Serial data arrived on `port`.
    fn on_serial(&mut self, ctx: &mut NodeCtx<'_>, port: SerialPortId, data: Bytes) {
        let _ = (ctx, port, data);
    }

    /// A timer armed with [`NodeCtx::set_timer`] fired.
    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: TimerToken);

    /// The node has been powered off by the power controller. No further
    /// callbacks will be delivered until it is powered on again. The node
    /// must not queue effects here (they are discarded); the hook exists so
    /// implementations can mark internal state for assertions.
    fn on_power_off(&mut self) {}

    /// The node has been powered back on (cold boot).
    fn on_power_on(&mut self, ctx: &mut NodeCtx<'_>) {
        let _ = ctx;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_assigns_monotonic_timer_ids() {
        let mut rng = SimRng::seed_from(1);
        let mut effects = Vec::new();
        let mut next = 0u64;
        let mut flight = FlightRecorder::new();
        let mut profiler = Profiler::new();
        let mut ctx = NodeCtx {
            now: SimTime::from_millis(5),
            node: NodeId(3),
            rng: &mut rng,
            effects: &mut effects,
            next_timer_id: &mut next,
            flight: &mut flight,
            profiler: &mut profiler,
        };
        let a = ctx.set_timer(SimDuration::from_millis(1), TimerToken(10));
        let b = ctx.set_timer(SimDuration::from_millis(2), TimerToken(11));
        assert!(b.0 > a.0);
        assert_eq!(ctx.now(), SimTime::from_millis(5));
        assert_eq!(ctx.node_id(), NodeId(3));
        assert_eq!(effects.len(), 2);
        match &effects[0] {
            Effect::SetTimer { at, token, .. } => {
                assert_eq!(*at, SimTime::from_millis(6));
                assert_eq!(*token, TimerToken(10));
            }
            other => panic!("unexpected effect {other:?}"),
        }
    }

    #[test]
    fn effects_preserve_order() {
        let mut rng = SimRng::seed_from(1);
        let mut effects = Vec::new();
        let mut next = 0u64;
        let mut flight = FlightRecorder::new();
        let mut profiler = Profiler::new();
        let mut ctx = NodeCtx {
            now: SimTime::ZERO,
            node: NodeId(0),
            rng: &mut rng,
            effects: &mut effects,
            next_timer_id: &mut next,
            flight: &mut flight,
            profiler: &mut profiler,
        };
        ctx.trace("first");
        ctx.power_off(NodeId(1), SimDuration::ZERO);
        ctx.trace("second");
        assert_eq!(effects.len(), 3);
        assert!(matches!(effects[0], Effect::Trace(_)));
        assert!(matches!(effects[1], Effect::PowerOff { .. }));
        assert!(matches!(effects[2], Effect::Trace(_)));
    }

    #[test]
    fn ctx_flight_records_into_the_node_ring() {
        let mut rng = SimRng::seed_from(1);
        let mut effects = Vec::new();
        let mut next = 0u64;
        let mut flight = FlightRecorder::new();
        flight.add_host();
        let mut profiler = Profiler::new();
        let span = SpanId::heartbeat(1, 0, 9);
        {
            let mut ctx = NodeCtx {
                now: SimTime::from_millis(7),
                node: NodeId(0),
                rng: &mut rng,
                effects: &mut effects,
                next_timer_id: &mut next,
                flight: &mut flight,
                profiler: &mut profiler,
            };
            ctx.flight(span, SpanId::NONE, FlightKind::HbRecv { seqno: 9, link: 0 });
        }
        let snap = flight.snapshot(None);
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].node, Some(NodeId(0)));
        assert_eq!(snap[0].span, span);
        assert_eq!(snap[0].time, SimTime::from_millis(7));
    }
}
