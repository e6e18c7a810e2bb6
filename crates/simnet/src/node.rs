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

use crate::flight::{FlightKind, FlightRecorder, SegmentHeader, SpanId};
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
    SendFrame { nic: NicId, frame: EthernetFrame },
    SendSerial { port: SerialPortId, data: Bytes },
    SetTimer { at: SimTime, token: TimerToken },
    PowerOff { target: NodeId, after: SimDuration },
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
    #[inline]
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
    #[inline]
    pub fn send_frame(&mut self, nic: NicId, frame: EthernetFrame) {
        self.effects.push(Effect::SendFrame { nic, frame });
    }

    /// Queues `data` for transmission out of serial port `port`.
    pub fn send_serial(&mut self, port: SerialPortId, data: Bytes) {
        self.effects.push(Effect::SendSerial { port, data });
    }

    /// Arms a timer to fire `after` from now, delivering `token` to
    /// [`Node::on_timer`]. A timer cannot be cancelled: a node that
    /// changes its mind ignores the fire (see [`NodeCtx::rearm_timer`]).
    #[inline]
    pub fn set_timer(&mut self, after: SimDuration, token: TimerToken) {
        self.effects.push(Effect::SetTimer {
            at: self.now + after,
            token,
        });
    }

    /// Keeps a node's one deadline timer no later than `want`. `armed`
    /// is the caller's record of the instant its earliest queued timer
    /// fires. Lazy: a timer that fires no later than `want` (or when
    /// nothing is wanted) is left alone — the fire re-evaluates, see
    /// [`NodeCtx::timer_due`] — so a deadline that keeps moving later,
    /// the retransmit timer under a steady ACK stream, costs no event
    /// per move. A deadline that moved *earlier* arms a second timer
    /// and leaves the first to fire unheeded. A deadline already past
    /// fires at once.
    ///
    /// A node whose timers were voided (power cycle) must reset `armed`
    /// to `None`: the rule trusts the record.
    #[inline]
    pub fn rearm_timer(
        &mut self,
        armed: &mut Option<SimTime>,
        want: Option<SimTime>,
        token: TimerToken,
    ) {
        // A deadline already past is due now, not then.
        let Some(at) = want.map(|w| w.max(self.now)) else {
            return;
        };
        if armed.is_some_and(|armed| armed <= at) {
            return;
        }
        self.effects.push(Effect::SetTimer { at, token });
        *armed = Some(at);
    }

    /// A timer kept by [`NodeCtx::rearm_timer`] fired: true if `want` is
    /// due now. If not, the caller must do nothing else. Either the
    /// fire is not the recorded one — a timer superseded by an earlier
    /// one — and nothing happens, or the timer was left armed while the
    /// deadline moved later and is re-armed for `want`: an early fire has
    /// no effect but that re-arm, and deadlines are observed at exactly
    /// the instants an eagerly moved timer would fire.
    #[inline]
    pub fn timer_due(
        &mut self,
        armed: &mut Option<SimTime>,
        want: Option<SimTime>,
        token: TimerToken,
    ) -> bool {
        if *armed != Some(self.now) {
            return false;
        }
        *armed = None;
        if want.is_some_and(|w| w <= self.now) {
            return true;
        }
        self.rearm_timer(armed, want, token);
        false
    }

    /// Commands the power controller to power off `target` after `after`
    /// (the STONITH action the backup performs before taking over a
    /// connection, and the primary performs before going non-fault-tolerant).
    pub fn power_off(&mut self, target: NodeId, after: SimDuration) {
        self.effects.push(Effect::PowerOff { target, after });
    }

    /// Records a causal event in this node's flight-recorder ring.
    /// The event is `Copy` and a ring allocates only while growing to
    /// its bound, so this is safe on the hottest datapath.
    #[inline]
    pub fn flight(&mut self, span: SpanId, parent: SpanId, kind: FlightKind) {
        self.flight
            .record(Some(self.node), self.now, span, parent, kind);
    }

    /// Records a TCP segment this node sent (`outbound`) or delivered in
    /// its flight-recorder ring: a 32-byte store of the header, whose
    /// span and kind are derived only when a snapshot is taken.
    #[inline]
    pub fn flight_segment(&mut self, header: SegmentHeader, outbound: bool) {
        self.flight
            .record_segment(self.node, self.now, header, outbound);
    }

    /// Opens a profiler sub-scope attributed to `comp` (for refining a
    /// dispatch's attribution, e.g. the TCP work inside a server
    /// callback). Must be balanced with [`NodeCtx::profile_exit`]
    /// before the callback returns. No-op when profiling is disabled.
    #[inline]
    pub fn profile_enter(&mut self, comp: Component) {
        self.profiler.enter(comp);
    }

    /// Closes the innermost profiler sub-scope.
    #[inline]
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
    use proptest::prelude::*;

    /// Runs `f` against a context for node `node` at `now`; returns its
    /// result, the effects it queued and the flight recorder.
    fn with_ctx<R>(
        now: SimTime,
        node: NodeId,
        f: impl FnOnce(&mut NodeCtx<'_>) -> R,
    ) -> (R, Vec<Effect>, FlightRecorder) {
        let mut rng = SimRng::seed_from(1);
        let mut effects = Vec::new();
        let mut flight = FlightRecorder::new();
        flight.add_host();
        let mut profiler = Profiler::new();
        let r = f(&mut NodeCtx {
            now,
            node,
            rng: &mut rng,
            effects: &mut effects,
            flight: &mut flight,
            profiler: &mut profiler,
        });
        (r, effects, flight)
    }

    #[test]
    fn ctx_set_timer_queues_an_absolute_deadline() {
        let (_, effects, _) = with_ctx(SimTime::from_millis(5), NodeId(3), |ctx| {
            ctx.set_timer(SimDuration::from_millis(1), TimerToken(10));
            ctx.set_timer(SimDuration::from_millis(2), TimerToken(11));
            assert_eq!(ctx.now(), SimTime::from_millis(5));
            assert_eq!(ctx.node_id(), NodeId(3));
        });
        assert_eq!(effects.len(), 2);
        match &effects[0] {
            Effect::SetTimer { at, token } => {
                assert_eq!(*at, SimTime::from_millis(6));
                assert_eq!(*token, TimerToken(10));
            }
            other => panic!("unexpected effect {other:?}"),
        }
    }

    #[test]
    fn effects_preserve_order() {
        let (_, effects, _) = with_ctx(SimTime::ZERO, NodeId(0), |ctx| {
            ctx.set_timer(SimDuration::from_millis(1), TimerToken(1));
            ctx.power_off(NodeId(1), SimDuration::ZERO);
            ctx.set_timer(SimDuration::from_millis(2), TimerToken(2));
        });
        let timers = effects.iter().map(|e| match e {
            Effect::SetTimer { token, .. } => Some(token.0),
            _ => None,
        });
        assert_eq!(timers.collect::<Vec<_>>(), [Some(1), None, Some(2)]);
        assert!(matches!(effects[1], Effect::PowerOff { .. }));
    }

    #[test]
    fn ctx_flight_records_into_the_node_ring() {
        let span = SpanId::heartbeat(1, 0, 9);
        let (_, _, flight) = with_ctx(SimTime::from_millis(7), NodeId(0), |ctx| {
            ctx.flight(span, SpanId::NONE, FlightKind::HbRecv { seqno: 9, link: 0 });
        });
        let snap = flight.snapshot(None);
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].node, Some(NodeId(0)));
        assert_eq!(snap[0].span, span);
        assert_eq!(snap[0].time, SimTime::from_millis(7));
    }

    // ----- the lazy deadline timer against an eager model -----------------

    const TOKEN: TimerToken = TimerToken(7);

    /// How the wanted deadline moves in one script step, in milliseconds.
    #[derive(Debug, Clone, Copy)]
    enum Want {
        Keep,
        Clear,
        /// Later than the current deadline (or than now, with none).
        Later(u64),
        /// Earlier than the current deadline — possibly already past.
        Earlier(u64),
        /// This far from now.
        In(u64),
        /// Already this far past.
        Past(u64),
    }

    fn want_strategy() -> impl Strategy<Value = Want> {
        prop_oneof![
            (0u64..1).prop_map(|_| Want::Keep),
            (0u64..1).prop_map(|_| Want::Clear),
            (1u64..30).prop_map(Want::Later),
            (1u64..30).prop_map(Want::Earlier),
            (0u64..30).prop_map(Want::In),
            (1u64..10).prop_map(Want::Past),
        ]
    }

    /// Which timer discipline a [`Rig`] runs.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Policy {
        /// [`NodeCtx::rearm_timer`] + [`NodeCtx::timer_due`].
        Lazy,
        /// The discipline they replaced: the timer is cancelled and
        /// re-armed whenever the wanted deadline changes, so every fire
        /// is due.
        Eager,
        /// The seeded mutation: `Lazy`, but a deadline that moved earlier
        /// leaves the later timer alone too.
        NeverEarlier,
    }

    /// One node with one deadline timer and a model of the world's queue
    /// for it: `(fire instant, push order)`.
    struct Rig {
        policy: Policy,
        now: SimTime,
        want: Option<SimTime>,
        armed: Option<SimTime>,
        queue: Vec<(SimTime, u64)>,
        pushes: u64,
        /// Superseded timers still queued (`Lazy` only).
        stale: usize,
        /// The instants at which a fire found the deadline due.
        observed: Vec<SimTime>,
    }

    impl Rig {
        fn new(policy: Policy) -> Rig {
            Rig {
                policy,
                now: SimTime::ZERO,
                want: None,
                armed: None,
                queue: Vec::new(),
                pushes: 0,
                stale: 0,
                observed: Vec::new(),
            }
        }

        /// Applies a context call's effects to the model queue: a timer
        /// discipline may queue timers and nothing else.
        fn apply(&mut self, effects: Vec<Effect>) -> usize {
            let n = effects.len();
            for e in effects {
                match e {
                    Effect::SetTimer { at, token } => {
                        assert_eq!(token, TOKEN);
                        assert!(at >= self.now, "timer armed in the past");
                        self.queue.push((at, self.pushes));
                        self.pushes += 1;
                    }
                    other => panic!("a timer discipline queued {other:?}"),
                }
            }
            n
        }

        fn rearm(&mut self) {
            let (mut armed, want) = (self.armed, self.want);
            match self.policy {
                Policy::NeverEarlier if armed.is_some() => {}
                Policy::Lazy | Policy::NeverEarlier => {
                    let (_, effects, _) = with_ctx(self.now, NodeId(0), |ctx| {
                        ctx.rearm_timer(&mut armed, want, TOKEN)
                    });
                    if self.apply(effects) == 1 && self.armed.is_some() {
                        self.stale += 1;
                    }
                }
                Policy::Eager => {
                    let at = want.map(|w| w.max(self.now));
                    if armed != at {
                        // A true cancel: the old timer leaves the queue.
                        self.queue.retain(|&(t, _)| Some(t) != armed);
                        armed = at;
                        if let Some(at) = at {
                            self.queue.push((at, self.pushes));
                            self.pushes += 1;
                        }
                    }
                }
            }
            self.armed = armed;
        }

        /// Fires the earliest queued timer, the way the three TCP nodes
        /// handle their deadline token.
        fn fire(&mut self) {
            let i = (0..self.queue.len())
                .min_by_key(|&i| self.queue[i])
                .expect("a queued timer");
            self.now = self.queue.remove(i).0;
            let (mut armed, want) = (self.armed, self.want);
            let due = match self.policy {
                Policy::Eager => {
                    armed = None;
                    want.is_some_and(|w| w <= self.now)
                }
                Policy::Lazy | Policy::NeverEarlier => {
                    let heeded = armed == Some(self.now);
                    let (due, effects, _) = with_ctx(self.now, NodeId(0), |ctx| {
                        ctx.timer_due(&mut armed, want, TOKEN)
                    });
                    if !heeded {
                        self.stale -= 1;
                    }
                    // A fire that finds nothing due re-arms at most; a
                    // superseded one does nothing at all.
                    let queued = self.apply(effects);
                    assert!(queued <= usize::from(heeded && !due));
                    due
                }
            };
            self.armed = armed;
            if due {
                // The deadline is consumed, as `on_time` consumes it.
                self.observed.push(self.now);
                self.want = None;
                self.rearm();
            }
        }

        /// Runs `script`: before each step every timer due within `gap`
        /// ms fires; then the wanted deadline moves and the timer is
        /// re-armed. Ends by letting the queue drain.
        fn run(mut self, script: &[(u64, Want)]) -> Rig {
            for &(gap, step) in script {
                let until = self.now + SimDuration::from_millis(gap);
                while self.queue.iter().any(|&(t, _)| t <= until) {
                    self.fire();
                    self.check();
                }
                self.now = until;
                // Every instant in the rig is a whole millisecond.
                let ms = SimDuration::from_millis;
                let back = |t: SimTime, d| SimTime::from_millis(t.as_millis().saturating_sub(d));
                self.want = match step {
                    Want::Keep => self.want,
                    Want::Clear => None,
                    Want::Later(d) => Some(self.want.unwrap_or(self.now) + ms(d)),
                    Want::Earlier(d) => self.want.map(|w| back(w, d)),
                    Want::In(d) => Some(self.now + ms(d)),
                    Want::Past(d) => Some(back(self.now, d)),
                };
                self.rearm();
                self.check();
            }
            while !self.queue.is_empty() {
                self.fire();
                self.check();
            }
            self
        }

        /// After every step: a wanted deadline is covered by a queued
        /// timer no later than it, and the queue holds exactly the
        /// recorded timer plus the superseded ones yet to fire.
        fn check(&self) {
            if self.policy != Policy::Lazy {
                return;
            }
            if let Some(w) = self.want {
                let at = self.armed.expect("a wanted deadline has a timer");
                assert!(at <= w.max(self.now));
            }
            if let Some(at) = self.armed {
                assert!(self.queue.iter().any(|&(t, _)| t == at));
            }
            assert_eq!(
                self.queue.len(),
                usize::from(self.armed.is_some()) + self.stale
            );
        }
    }

    proptest! {
        /// A due deadline is observed at exactly the instants the eager
        /// discipline observes it, whatever the deadline does in between
        /// (the structural claims are asserted inside the rig).
        #[test]
        fn lazy_timer_observes_deadlines_when_the_eager_one_does(
            script in proptest::collection::vec((0u64..12, want_strategy()), 0..60),
        ) {
            let lazy = Rig::new(Policy::Lazy).run(&script);
            let eager = Rig::new(Policy::Eager).run(&script);
            prop_assert_eq!(&lazy.observed, &eager.observed);
            // Laziness only ever saves events.
            prop_assert!(lazy.pushes <= eager.pushes + lazy.observed.len() as u64);
        }
    }

    #[test]
    fn a_timer_that_ignores_an_earlier_deadline_is_caught() {
        // Deadline 20 ms out, then pulled in to 5 ms.
        let script = [(0, Want::In(20)), (1, Want::Earlier(16))];
        let eager = Rig::new(Policy::Eager).run(&script);
        assert_eq!(eager.observed, vec![SimTime::from_millis(4)]);
        assert_eq!(Rig::new(Policy::Lazy).run(&script).observed, eager.observed);
        let mutant = Rig::new(Policy::NeverEarlier).run(&script);
        assert_ne!(mutant.observed, eager.observed, "the mutation must show");
    }

    #[test]
    fn a_deadline_that_keeps_moving_later_costs_one_timer_per_fire() {
        // A retransmit timer under a steady ACK stream: 20 ms out, pushed
        // back every millisecond.
        let script: Vec<(u64, Want)> = (0..100).map(|_| (1, Want::In(20))).collect();
        let lazy = Rig::new(Policy::Lazy).run(&script);
        let eager = Rig::new(Policy::Eager).run(&script);
        assert_eq!(lazy.observed, eager.observed);
        assert_eq!(eager.pushes, 100);
        assert!(lazy.pushes <= 8, "{} timers armed", lazy.pushes);
    }
}
