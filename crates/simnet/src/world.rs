//! The simulation world: topology construction and the event loop.
//!
//! A [`World`] owns every node, link, switch, and serial channel, plus the
//! event queue and the seeded RNG. Construction is two-phase: build the
//! topology (`add_*`/`connect_*`), then [`World::start`] and run. The
//! whole simulation is single-threaded and deterministic: same seed, same
//! topology, same scripts ⇒ identical event sequence.
//!
//! # Examples
//!
//! ```
//! use simnet::world::World;
//! use simnet::node::{Node, NodeCtx, NicId, TimerToken};
//! use simnet::time::{SimDuration, SimTime};
//! use simnet::frame::EthernetFrame;
//!
//! struct Beeper { beeps: u32 }
//! impl Node for Beeper {
//!     fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
//!         ctx.set_timer(SimDuration::from_millis(10), TimerToken(0));
//!     }
//!     fn on_frame(&mut self, _: &mut NodeCtx<'_>, _: NicId, _: EthernetFrame) {}
//!     fn on_timer(&mut self, _: &mut NodeCtx<'_>, _: TimerToken) { self.beeps += 1; }
//! }
//!
//! let mut w = World::new(42);
//! let id = w.add_node("beeper", Box::new(Beeper { beeps: 0 }));
//! w.start();
//! w.run_until(SimTime::from_millis(100));
//! assert_eq!(w.node::<Beeper>(id).unwrap().beeps, 1);
//! ```

use std::any::Any;
use std::collections::HashMap;

use crate::event::{Ev, EventQueue};
use crate::flight::{FlightKind, FlightRecorder, SpanId};
use crate::frame::EthernetFrame;
use crate::host::{NicState, NodeSlot};
use crate::link::{Endpoint, LinkId, LinkParams, LinkState, SwitchId, TxOutcome};
use crate::mac::MacAddr;
use crate::node::{Effect, NicId, Node, NodeCtx, NodeId, SerialPortId};
use crate::profile::{Component, Profiler};
use crate::rng::SimRng;
use crate::serial::{SerialId, SerialParams, SerialState, SerialTxOutcome};
use crate::switch::SwitchState;
use crate::time::{SimDuration, SimTime};

/// Error returned by [`World::run_until_idle`] when the event cap is hit,
/// which almost always indicates a livelock (two nodes ping-ponging
/// forever).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunawayError {
    /// The number of events that were processed before giving up.
    pub events_processed: u64,
}

impl std::fmt::Display for RunawayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "simulation did not go idle after {} events",
            self.events_processed
        )
    }
}

impl std::error::Error for RunawayError {}

type Script = Box<dyn FnOnce(&mut World)>;

/// The simulation world. See the [module docs](self) for an overview.
///
/// Not `Send` — its nodes are `Box<dyn Node>`, and the frame buffers in
/// flight (`bytes::Bytes`) count references non-atomically: a parallel
/// sweep builds each world inside the worker that runs it.
/// ```compile_fail
/// fn is_send<T: Send>() {}
/// is_send::<simnet::world::World>();
/// ```
pub struct World {
    now: SimTime,
    queue: EventQueue,
    pub(crate) nodes: Vec<NodeSlot>,
    pub(crate) links: Vec<LinkState>,
    pub(crate) switches: Vec<SwitchState>,
    pub(crate) serials: Vec<SerialState>,
    rng: SimRng,
    flight: FlightRecorder,
    profiler: Profiler,
    faults: Vec<(SimTime, String)>,
    scripts: HashMap<u64, Script>,
    next_script_id: u64,
    started: bool,
    events_processed: u64,
    /// The effect list handed to each node callback: kept (empty)
    /// between dispatches so the kernel loop does not allocate one per
    /// event.
    effects_scratch: Vec<Effect>,
    /// Likewise the out-link list a switch fills for each frame.
    out_links_scratch: Vec<LinkId>,
}

impl Drop for World {
    /// Frees the world's traffic, then the spare buffer stores it left on
    /// this thread: the next world starts from none, as the first did.
    fn drop(&mut self) {
        self.queue = EventQueue::new();
        (self.nodes, self.links, self.switches, self.serials) = Default::default();
        bytes::release_spares();
    }
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("now", &self.now)
            .field("nodes", &self.nodes.len())
            .field("links", &self.links.len())
            .field("switches", &self.switches.len())
            .field("serials", &self.serials.len())
            .field("pending_events", &self.queue.len())
            .finish_non_exhaustive()
    }
}

impl World {
    /// Creates an empty world with a deterministic RNG seed.
    pub fn new(seed: u64) -> World {
        World {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            nodes: Vec::new(),
            links: Vec::new(),
            switches: Vec::new(),
            serials: Vec::new(),
            rng: SimRng::seed_from(seed),
            flight: FlightRecorder::new(),
            profiler: Profiler::new(),
            faults: Vec::new(),
            scripts: HashMap::new(),
            next_script_id: 0,
            started: false,
            events_processed: 0,
            effects_scratch: Vec::new(),
            out_links_scratch: Vec::new(),
        }
    }

    // ----- topology construction ---------------------------------------

    /// Adds a node with the given name (flight dumps print it). Returns its id.
    pub fn add_node(&mut self, name: &str, logic: Box<dyn Node>) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(NodeSlot::new(name.to_string(), logic));
        self.flight.add_host();
        id
    }

    /// Adds a NIC with address `mac` to `node`. NICs are numbered densely
    /// from zero in creation order.
    pub fn add_nic(&mut self, node: NodeId, mac: MacAddr) -> NicId {
        let slot = &mut self.nodes[node.0];
        let id = NicId(slot.nics.len());
        slot.nics.push(NicState::new(mac));
        id
    }

    /// Adds a switch with `ports` ports. Returns its id.
    pub fn add_switch(&mut self, ports: usize) -> SwitchId {
        let id = SwitchId(self.switches.len());
        self.switches.push(SwitchState::new(ports));
        id
    }

    /// Cables a node NIC to a switch port with the given link parameters.
    ///
    /// # Panics
    ///
    /// Panics if the NIC is already cabled or the switch port is occupied.
    pub fn connect_to_switch(
        &mut self,
        node: NodeId,
        nic: NicId,
        switch: SwitchId,
        port: usize,
        params: LinkParams,
    ) -> LinkId {
        let id = LinkId(self.links.len());
        let a = Endpoint::Node { node, nic };
        let b = Endpoint::Switch { switch, port };
        self.links.push(LinkState::new(a, b, params));
        let nic_state = &mut self.nodes[node.0].nics[nic.0];
        assert!(nic_state.link.is_none(), "nic already cabled");
        nic_state.link = Some(id);
        self.switches[switch.0].attach(port, id);
        id
    }

    /// Cables two node NICs directly (crossover cable).
    ///
    /// # Panics
    ///
    /// Panics if either NIC is already cabled.
    pub fn connect_nodes(
        &mut self,
        a: (NodeId, NicId),
        b: (NodeId, NicId),
        params: LinkParams,
    ) -> LinkId {
        let id = LinkId(self.links.len());
        self.links.push(LinkState::new(
            Endpoint::Node {
                node: a.0,
                nic: a.1,
            },
            Endpoint::Node {
                node: b.0,
                nic: b.1,
            },
            params,
        ));
        for (node, nic) in [a, b] {
            let nic_state = &mut self.nodes[node.0].nics[nic.0];
            assert!(nic_state.link.is_none(), "nic already cabled");
            nic_state.link = Some(id);
        }
        id
    }

    /// Connects two nodes with a serial channel (null-modem cable).
    /// Returns the channel id and the serial port assigned on each node.
    pub fn connect_serial(
        &mut self,
        a: NodeId,
        b: NodeId,
        params: SerialParams,
    ) -> (SerialId, SerialPortId, SerialPortId) {
        let id = SerialId(self.serials.len());
        let pa = SerialPortId(self.nodes[a.0].serial_ports.len());
        self.nodes[a.0].serial_ports.push(Some(id));
        let pb = SerialPortId(self.nodes[b.0].serial_ports.len());
        self.nodes[b.0].serial_ports.push(Some(id));
        self.serials
            .push(SerialState::new((a, pa), (b, pb), params));
        (id, pa, pb)
    }

    // ----- accessors -----------------------------------------------------

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The flight recorder (per-host causal event rings).
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Sets the per-host flight-recorder ring capacity.
    pub fn set_flight_capacity(&mut self, capacity: usize) {
        self.flight.set_capacity(capacity);
    }

    /// Captures a flight-recorder snapshot: the last `window` of
    /// causally-linked events (everything retained when `None`), plus
    /// the host names the events' node ids index.
    pub fn flight_snapshot(&self, window: Option<SimDuration>) -> crate::flight::FlightSnapshot {
        crate::flight::FlightSnapshot {
            events: self.flight.snapshot(window),
            hosts: self.nodes.iter().map(|n| n.name.clone()).collect(),
            window_ms: window.map(|w| w.as_millis()),
        }
    }

    /// The per-component wall-clock profiler.
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// Enables or disables per-component wall-clock profiling.
    /// Observational only: toggling this never changes simulation
    /// behavior, so determinism is unaffected.
    pub fn set_profiling(&mut self, on: bool) {
        self.profiler.set_enabled(on);
    }

    /// Attributes `node`'s dispatch time to profiler bucket `comp`
    /// (scenario builders call this; the default bucket is `Other`).
    pub fn set_node_component(&mut self, node: NodeId, comp: Component) {
        self.nodes[node.0].component = comp;
    }

    /// Number of nodes in the world.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Records a fault injection: an entry in the fault-episode log,
    /// which is never capped, so metrics can attribute symptoms to
    /// faults, plus a flight event the causal spans hang from.
    pub fn note_fault(&mut self, message: impl Into<String>) {
        let message = message.into();
        let index = self.faults.len() as u64;
        self.flight.record(
            None,
            self.now,
            SpanId::fault(index),
            SpanId::NONE,
            FlightKind::Fault {
                index: index as u32,
            },
        );
        self.faults.push((self.now, message));
    }

    /// Every fault injected so far, as `(time, description)` in
    /// injection order.
    pub fn faults(&self) -> &[(SimTime, String)] {
        &self.faults
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Immutable access to a link.
    pub fn link(&self, id: LinkId) -> &LinkState {
        &self.links[id.0]
    }

    /// Mutable access to a link (fault injection).
    pub fn link_mut(&mut self, id: LinkId) -> &mut LinkState {
        &mut self.links[id.0]
    }

    /// Immutable access to a serial channel.
    pub fn serial(&self, id: SerialId) -> &SerialState {
        &self.serials[id.0]
    }

    /// Mutable access to a serial channel (fault injection).
    pub fn serial_mut(&mut self, id: SerialId) -> &mut SerialState {
        &mut self.serials[id.0]
    }

    /// Immutable access to a switch.
    pub fn switch(&self, id: SwitchId) -> &SwitchState {
        &self.switches[id.0]
    }

    /// Registers a static multicast group membership on a switch port
    /// (IGMP-snooping style). See [`SwitchState::join_group`].
    pub fn join_multicast(&mut self, id: SwitchId, mac: MacAddr, port: usize) {
        self.switches[id.0].join_group(mac, port);
    }

    /// The name a node was created with.
    pub fn node_name(&self, id: NodeId) -> &str {
        &self.nodes[id.0].name
    }

    /// Whether a node currently has power.
    pub fn is_powered(&self, id: NodeId) -> bool {
        self.nodes[id.0].powered
    }

    /// The NIC state (MAC, up/down, cabling) of `nic` on `node`.
    pub fn nic(&self, node: NodeId, nic: NicId) -> &NicState {
        &self.nodes[node.0].nics[nic.0]
    }

    /// Downcasts a node's logic to its concrete type for inspection.
    ///
    /// Returns `None` if the type does not match.
    pub fn node<T: Node>(&self, id: NodeId) -> Option<&T> {
        let logic = self.nodes[id.0].logic.as_deref()?;
        (logic as &dyn Any).downcast_ref::<T>()
    }

    /// Mutable variant of [`World::node`]. Mutating node logic outside a
    /// callback is intended for test setup only.
    pub fn node_mut<T: Node>(&mut self, id: NodeId) -> Option<&mut T> {
        let logic = self.nodes[id.0].logic.as_deref_mut()?;
        (logic as &mut dyn Any).downcast_mut::<T>()
    }

    /// Pushes a raw event (crate-internal; used by the fault layer).
    pub(crate) fn push_event(&mut self, at: SimTime, ev: Ev) {
        self.queue.push(at.max(self.now), ev);
    }

    // ----- scripting -----------------------------------------------------

    /// Schedules `f` to run against the world at time `at` (clamped to now).
    /// Used for fault injection and workload scripting.
    pub fn schedule(&mut self, at: SimTime, f: impl FnOnce(&mut World) + 'static) {
        let id = self.next_script_id;
        self.next_script_id += 1;
        self.scripts.insert(id, Box::new(f));
        let at = at.max(self.now);
        self.queue.push(at, Ev::Script { id });
    }

    /// Schedules `f` to run `after` from now.
    pub fn schedule_in(&mut self, after: SimDuration, f: impl FnOnce(&mut World) + 'static) {
        let at = self.now + after;
        self.schedule(at, f);
    }

    // ----- running -------------------------------------------------------

    /// Delivers `on_start` to every node (in id order). Must be called
    /// exactly once, after topology construction, before running.
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    pub fn start(&mut self) {
        assert!(!self.started, "world already started");
        self.started = true;
        for i in 0..self.nodes.len() {
            self.dispatch(NodeId(i), |node, ctx| node.on_start(ctx));
        }
    }

    /// Processes events until the queue is empty or every remaining event
    /// is after `t`; leaves the clock at exactly `t`.
    pub fn run_until(&mut self, t: SimTime) {
        assert!(self.started, "call start() before running");
        while let Some(next) = self.queue.peek_time() {
            if next > t {
                break;
            }
            self.step();
        }
        if t > self.now {
            self.now = t;
        }
    }

    /// Processes events until the queue is empty, with a safety cap.
    ///
    /// # Errors
    ///
    /// Returns [`RunawayError`] if more than `max_events` are processed
    /// without the queue draining.
    pub fn run_until_idle(&mut self, max_events: u64) -> Result<SimTime, RunawayError> {
        assert!(self.started, "call start() before running");
        let mut n = 0u64;
        while !self.queue.is_empty() {
            self.step();
            n += 1;
            if n > max_events {
                return Err(RunawayError {
                    events_processed: n,
                });
            }
        }
        Ok(self.now)
    }

    /// Processes a single event. Returns `false` if the queue was empty.
    pub fn step(&mut self) -> bool {
        let Some((at, ev)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(at >= self.now, "time went backwards");
        self.now = at;
        self.events_processed += 1;
        // Everything outside node callbacks is kernel time; dispatch
        // opens a nested per-component scope for the callback itself.
        self.profiler.enter(Component::Kernel);
        self.step_event(ev);
        self.profiler.exit();
        true
    }

    /// The body of one event, factored out of [`World::step`] so the
    /// profiler scope wraps every early return uniformly.
    fn step_event(&mut self, ev: Ev) {
        match ev {
            Ev::LinkArrival { link, dir, frame } => {
                let dest = self.links[link.0].dest(dir);
                match dest {
                    Endpoint::Node { node, nic } => self.deliver_frame(node, nic, frame),
                    Endpoint::Switch { switch, port } => self.switch_forward(switch, port, frame),
                }
            }
            Ev::SerialArrival { serial, dir, data } => {
                let (node, port) = self.serials[serial.0].dest(dir);
                if self.serials[serial.0].is_down() {
                    return; // channel died while in flight
                }
                if self.nodes[node.0].powered {
                    self.dispatch(node, |logic, ctx| logic.on_serial(ctx, port, data));
                }
            }
            Ev::Timer { node, token, epoch } => {
                let slot = &self.nodes[node.0];
                if !slot.powered || slot.epoch != epoch {
                    return;
                }
                self.dispatch(node, |logic, ctx| logic.on_timer(ctx, token));
            }
            Ev::PowerOff { node } => self.do_power_off(node),
            Ev::PowerOn { node } => self.do_power_on(node),
            Ev::Script { id } => {
                if let Some(f) = self.scripts.remove(&id) {
                    f(self);
                }
            }
        }
    }

    // ----- internal plumbing ----------------------------------------------

    /// Calls `f` on a node's logic with a fresh context, then applies the
    /// queued effects.
    fn dispatch<F>(&mut self, node: NodeId, f: F)
    where
        F: FnOnce(&mut dyn Node, &mut NodeCtx<'_>),
    {
        let mut logic = match self.nodes[node.0].logic.take() {
            Some(l) => l,
            None => return, // re-entrant dispatch is impossible; defensive
        };
        let comp = self.nodes[node.0].component;
        self.profiler.enter(comp);
        let mut effects = std::mem::take(&mut self.effects_scratch);
        {
            let mut ctx = NodeCtx {
                now: self.now,
                node,
                rng: &mut self.rng,
                effects: &mut effects,
                flight: &mut self.flight,
                profiler: &mut self.profiler,
            };
            f(logic.as_mut(), &mut ctx);
        }
        self.profiler.exit();
        self.nodes[node.0].logic = Some(logic);
        self.apply_effects(node, &mut effects);
        self.effects_scratch = effects;
    }

    /// Applies (and drains) the effects a callback queued.
    fn apply_effects(&mut self, node: NodeId, effects: &mut Vec<Effect>) {
        for effect in effects.drain(..) {
            match effect {
                Effect::SendFrame { nic, frame } => self.send_frame_from(node, nic, frame),
                Effect::SendSerial { port, data } => {
                    let slot = &self.nodes[node.0];
                    let Some(Some(serial)) = slot.serial_ports.get(port.0).copied() else {
                        continue;
                    };
                    let dir = match self.serials[serial.0].dir_from((node, port)) {
                        Some(d) => d,
                        None => continue,
                    };
                    let len = data.len();
                    match self.serials[serial.0].transmit(self.now, dir, len) {
                        SerialTxOutcome::Deliver(at) => {
                            self.queue.push(at, Ev::SerialArrival { serial, dir, data });
                        }
                        SerialTxOutcome::Dropped => {}
                    }
                }
                Effect::SetTimer { at, token } => {
                    let epoch = self.nodes[node.0].epoch;
                    self.queue.push(at, Ev::Timer { node, token, epoch });
                }
                Effect::PowerOff { target, after } => {
                    let at = self.now + after;
                    self.queue.push(at, Ev::PowerOff { node: target });
                }
            }
        }
    }

    /// Transmits a frame out of a node NIC, if the hardware allows it.
    fn send_frame_from(&mut self, node: NodeId, nic: NicId, frame: EthernetFrame) {
        let slot = &self.nodes[node.0];
        if !slot.powered {
            return;
        }
        let Some(nic_state) = slot.nics.get(nic.0) else {
            return;
        };
        if !nic_state.up {
            return;
        }
        let Some(link) = nic_state.link else {
            return;
        };
        self.transmit_on_link(link, Endpoint::Node { node, nic }, frame);
    }

    /// Offers a frame to a link from one of its endpoints, scheduling an
    /// arrival if the link delivers it.
    fn transmit_on_link(&mut self, link: LinkId, from: Endpoint, frame: EthernetFrame) {
        let dir = self.links[link.0]
            .dir_from(from)
            .expect("endpoint is not on this link");
        let copies = if self.links[link.0].consume_dup(dir) {
            2
        } else {
            1
        };
        let frame = if self.links[link.0].consume_corrupt(dir) {
            corrupt_payload(frame, &mut self.rng)
        } else {
            frame
        };
        for _ in 0..copies {
            match self.links[link.0].transmit(self.now, dir, &frame, &mut self.rng) {
                TxOutcome::Deliver(at) => {
                    let frame = frame.clone();
                    self.queue.push(at, Ev::LinkArrival { link, dir, frame });
                }
                TxOutcome::Dropped | TxOutcome::Held => {}
                TxOutcome::DeliverAndRelease { at, released } => {
                    let frame = frame.clone();
                    self.queue.push(at, Ev::LinkArrival { link, dir, frame });
                    let (rel_at, rel_frame) = released;
                    self.queue.push(
                        rel_at,
                        Ev::LinkArrival {
                            link,
                            dir,
                            frame: rel_frame,
                        },
                    );
                }
            }
        }
    }

    /// Delivers a frame to node logic, if the hardware allows it.
    fn deliver_frame(&mut self, node: NodeId, nic: NicId, frame: EthernetFrame) {
        let slot = &self.nodes[node.0];
        if !slot.powered {
            return;
        }
        let Some(nic_state) = slot.nics.get(nic.0) else {
            return;
        };
        if !nic_state.up {
            return;
        }
        self.dispatch(node, |logic, ctx| logic.on_frame(ctx, nic, frame));
    }

    /// Runs switch forwarding for a frame that arrived on `port`.
    fn switch_forward(&mut self, switch: SwitchId, port: usize, frame: EthernetFrame) {
        let mut out_links = std::mem::take(&mut self.out_links_scratch);
        self.switches[switch.0].forward(port, &frame, &mut out_links);
        for link in out_links.drain(..) {
            // The frame leaves through the switch's endpoint on that link.
            let from = if matches!(self.links[link.0].a, Endpoint::Switch { switch: s, .. } if s == switch)
            {
                self.links[link.0].a
            } else {
                self.links[link.0].b
            };
            self.transmit_on_link(link, from, frame.clone());
        }
        self.out_links_scratch = out_links;
    }

    pub(crate) fn do_power_off(&mut self, node: NodeId) {
        let slot = &mut self.nodes[node.0];
        if !slot.powered {
            return;
        }
        slot.powered = false;
        slot.epoch += 1;
        if let Some(logic) = slot.logic.as_deref_mut() {
            logic.on_power_off();
        }
    }

    pub(crate) fn do_power_on(&mut self, node: NodeId) {
        let slot = &mut self.nodes[node.0];
        if slot.powered {
            return;
        }
        slot.powered = true;
        self.dispatch(node, |logic, ctx| logic.on_power_on(ctx));
    }
}

/// Flips one random payload bit of `frame` (injected electrical noise).
/// Frames with empty payloads pass through untouched.
fn corrupt_payload(frame: EthernetFrame, rng: &mut SimRng) -> EthernetFrame {
    if frame.payload.is_empty() {
        return frame;
    }
    let mut data = frame.payload.to_vec();
    let bit = rng.index(data.len() * 8);
    data[bit / 8] ^= 1 << (bit % 8);
    EthernetFrame::new(
        frame.src,
        frame.dst,
        frame.ethertype,
        bytes::Bytes::from(data),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::EtherType;
    use crate::node::TimerToken;
    use bytes::Bytes;

    /// A node that sends a frame to a destination MAC on start, counts
    /// frames it receives, and echoes serial data back.
    struct Chatter {
        nic: NicId,
        dst: MacAddr,
        src: MacAddr,
        send_on_start: bool,
        received: Vec<EthernetFrame>,
        serial_received: Vec<Bytes>,
        timer_fires: u32,
    }

    impl Chatter {
        fn new(src: MacAddr, dst: MacAddr, send_on_start: bool) -> Chatter {
            Chatter {
                nic: NicId(0),
                dst,
                src,
                send_on_start,
                received: Vec::new(),
                serial_received: Vec::new(),
                timer_fires: 0,
            }
        }
    }

    impl Node for Chatter {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            if self.send_on_start {
                let f = EthernetFrame::new(
                    self.src,
                    self.dst,
                    EtherType::Ipv4,
                    Bytes::from_static(b"ping"),
                );
                ctx.send_frame(self.nic, f);
            }
        }
        fn on_frame(&mut self, _: &mut NodeCtx<'_>, _: NicId, frame: EthernetFrame) {
            self.received.push(frame);
        }
        fn on_serial(&mut self, _: &mut NodeCtx<'_>, _: SerialPortId, data: Bytes) {
            self.serial_received.push(data);
        }
        fn on_timer(&mut self, _: &mut NodeCtx<'_>, _: TimerToken) {
            self.timer_fires += 1;
        }
    }

    fn two_nodes_via_switch() -> (World, NodeId, NodeId) {
        let mut w = World::new(1);
        let a = w.add_node(
            "a",
            Box::new(Chatter::new(MacAddr::unicast(1), MacAddr::unicast(2), true)),
        );
        let b = w.add_node(
            "b",
            Box::new(Chatter::new(
                MacAddr::unicast(2),
                MacAddr::unicast(1),
                false,
            )),
        );
        let na = w.add_nic(a, MacAddr::unicast(1));
        let nb = w.add_nic(b, MacAddr::unicast(2));
        let sw = w.add_switch(2);
        w.connect_to_switch(a, na, sw, 0, LinkParams::lan());
        w.connect_to_switch(b, nb, sw, 1, LinkParams::lan());
        (w, a, b)
    }

    #[test]
    fn frame_travels_through_switch() {
        let (mut w, _a, b) = two_nodes_via_switch();
        w.start();
        w.run_until(SimTime::from_millis(10));
        let rx = &w.node::<Chatter>(b).unwrap().received;
        assert_eq!(rx.len(), 1);
        assert_eq!(rx[0].payload.as_ref(), b"ping");
    }

    #[test]
    fn multicast_reaches_all_other_ports() {
        let mut w = World::new(1);
        let multi = MacAddr::multicast(7);
        let a = w.add_node(
            "a",
            Box::new(Chatter::new(MacAddr::unicast(1), multi, true)),
        );
        let b = w.add_node(
            "b",
            Box::new(Chatter::new(MacAddr::unicast(2), multi, false)),
        );
        let c = w.add_node(
            "c",
            Box::new(Chatter::new(MacAddr::unicast(3), multi, false)),
        );
        let sw = w.add_switch(3);
        for (i, (n, m)) in [(a, 1u32), (b, 2), (c, 3)].iter().enumerate() {
            let nic = w.add_nic(*n, MacAddr::unicast(*m));
            w.connect_to_switch(*n, nic, sw, i, LinkParams::lan());
        }
        w.start();
        w.run_until(SimTime::from_millis(10));
        assert_eq!(w.node::<Chatter>(b).unwrap().received.len(), 1);
        assert_eq!(w.node::<Chatter>(c).unwrap().received.len(), 1);
        assert_eq!(w.node::<Chatter>(a).unwrap().received.len(), 0);
    }

    #[test]
    fn crossover_cable_delivers_directly() {
        let mut w = World::new(1);
        let a = w.add_node(
            "a",
            Box::new(Chatter::new(MacAddr::unicast(1), MacAddr::unicast(2), true)),
        );
        let b = w.add_node(
            "b",
            Box::new(Chatter::new(
                MacAddr::unicast(2),
                MacAddr::unicast(1),
                false,
            )),
        );
        let na = w.add_nic(a, MacAddr::unicast(1));
        let nb = w.add_nic(b, MacAddr::unicast(2));
        w.connect_nodes((a, na), (b, nb), LinkParams::ideal());
        w.start();
        w.run_until(SimTime::from_millis(1));
        assert_eq!(w.node::<Chatter>(b).unwrap().received.len(), 1);
    }

    #[test]
    fn serial_channel_delivers() {
        let mut w = World::new(1);
        let a = w.add_node(
            "a",
            Box::new(Chatter::new(
                MacAddr::unicast(1),
                MacAddr::unicast(2),
                false,
            )),
        );
        let b = w.add_node(
            "b",
            Box::new(Chatter::new(
                MacAddr::unicast(2),
                MacAddr::unicast(1),
                false,
            )),
        );
        let (_id, pa, _pb) = w.connect_serial(a, b, SerialParams::rs232());
        w.start();
        w.schedule(SimTime::from_millis(1), move |w| {
            // Inject a serial send from node a by dispatching a script that
            // calls through the public fault/test API: easiest is to use a
            // timer-free direct dispatch via node_mut + manual effect; here
            // we go through the node logic itself.
            let _ = w; // see send below
        });
        // Drive a send from within the node by setting a timer path instead:
        // simpler — directly exercise apply_effects through dispatch.
        w.schedule(SimTime::from_millis(2), move |w| {
            w.dispatch(NodeId(0), |_logic, ctx| {
                ctx.send_serial(pa, Bytes::from_static(b"hb"));
            });
        });
        w.run_until(SimTime::from_millis(100));
        assert_eq!(
            w.node::<Chatter>(b).unwrap().serial_received,
            vec![Bytes::from_static(b"hb")]
        );
    }

    #[test]
    fn powered_off_node_is_deaf_and_mute() {
        let (mut w, a, b) = two_nodes_via_switch();
        // Cut power to b before start-up traffic arrives.
        w.schedule(SimTime::ZERO, move |w| w.do_power_off(b));
        w.start();
        w.run_until(SimTime::from_millis(10));
        assert_eq!(w.node::<Chatter>(b).unwrap().received.len(), 0);
        assert!(!w.is_powered(b));
        assert!(w.is_powered(a));
    }

    #[test]
    fn power_cycle_discards_stale_timers() {
        struct TimerNode {
            fires: u32,
        }
        impl Node for TimerNode {
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                ctx.set_timer(SimDuration::from_millis(50), TimerToken(1));
            }
            fn on_frame(&mut self, _: &mut NodeCtx<'_>, _: NicId, _: EthernetFrame) {}
            fn on_timer(&mut self, _: &mut NodeCtx<'_>, _: TimerToken) {
                self.fires += 1;
            }
        }
        let mut w = World::new(1);
        let n = w.add_node("t", Box::new(TimerNode { fires: 0 }));
        w.start();
        // Power off at 10ms, back on at 20ms: the 50ms timer must NOT fire
        // because it belongs to the old epoch.
        w.schedule(SimTime::from_millis(10), move |w| w.do_power_off(n));
        w.schedule(SimTime::from_millis(20), move |w| w.do_power_on(n));
        w.run_until(SimTime::from_millis(100));
        assert_eq!(w.node::<TimerNode>(n).unwrap().fires, 0);
    }

    #[test]
    fn superseded_timer_fire_goes_unheeded() {
        const DEADLINE: TimerToken = TimerToken(1);
        /// Wants a deadline 9 ms out, then (a millisecond in) 5 ms out.
        struct Hasty {
            armed: Option<SimTime>,
            want: Option<SimTime>,
            due_at: Vec<SimTime>,
        }
        impl Node for Hasty {
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                self.want = Some(SimTime::from_millis(9));
                ctx.rearm_timer(&mut self.armed, self.want, DEADLINE);
                ctx.set_timer(SimDuration::from_millis(1), TimerToken(0));
            }
            fn on_frame(&mut self, _: &mut NodeCtx<'_>, _: NicId, _: EthernetFrame) {}
            fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: TimerToken) {
                if token != DEADLINE {
                    self.want = Some(SimTime::from_millis(5));
                    ctx.rearm_timer(&mut self.armed, self.want, DEADLINE);
                } else if ctx.timer_due(&mut self.armed, self.want, DEADLINE) {
                    self.due_at.push(ctx.now());
                    self.want = None;
                }
            }
        }
        let mut w = World::new(1);
        let n = w.add_node(
            "h",
            Box::new(Hasty {
                armed: None,
                want: None,
                due_at: Vec::new(),
            }),
        );
        w.start();
        w.run_until(SimTime::from_millis(20));
        // The 1 ms tick, the 5 ms fire and the superseded 9 ms one.
        assert_eq!(w.events_processed(), 3);
        assert_eq!(
            w.node::<Hasty>(n).unwrap().due_at,
            vec![SimTime::from_millis(5)]
        );
    }

    #[test]
    fn run_until_leaves_clock_at_target() {
        let (mut w, ..) = two_nodes_via_switch();
        w.start();
        w.run_until(SimTime::from_millis(123));
        assert_eq!(w.now(), SimTime::from_millis(123));
    }

    #[test]
    fn run_until_idle_caps_runaway() {
        struct PingPong {
            nic: NicId,
            me: MacAddr,
            peer: MacAddr,
        }
        impl Node for PingPong {
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                let f = EthernetFrame::new(self.me, self.peer, EtherType::Ipv4, Bytes::new());
                ctx.send_frame(self.nic, f);
            }
            fn on_frame(&mut self, ctx: &mut NodeCtx<'_>, _: NicId, _: EthernetFrame) {
                let f = EthernetFrame::new(self.me, self.peer, EtherType::Ipv4, Bytes::new());
                ctx.send_frame(self.nic, f);
            }
            fn on_timer(&mut self, _: &mut NodeCtx<'_>, _: TimerToken) {}
        }
        let mut w = World::new(1);
        let a = w.add_node(
            "a",
            Box::new(PingPong {
                nic: NicId(0),
                me: MacAddr::unicast(1),
                peer: MacAddr::unicast(2),
            }),
        );
        let b = w.add_node(
            "b",
            Box::new(PingPong {
                nic: NicId(0),
                me: MacAddr::unicast(2),
                peer: MacAddr::unicast(1),
            }),
        );
        let na = w.add_nic(a, MacAddr::unicast(1));
        let nb = w.add_nic(b, MacAddr::unicast(2));
        w.connect_nodes((a, na), (b, nb), LinkParams::lan());
        w.start();
        let err = w.run_until_idle(1_000).unwrap_err();
        assert!(err.events_processed > 1_000);
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn scripts_run_at_their_time_in_order() {
        let mut w = World::new(1);
        let _ = w.add_node(
            "a",
            Box::new(Chatter::new(
                MacAddr::unicast(1),
                MacAddr::unicast(2),
                false,
            )),
        );
        w.start();
        w.schedule(SimTime::from_millis(5), |w| w.note_fault("second"));
        w.schedule(SimTime::from_millis(1), |w| w.note_fault("first"));
        w.run_until(SimTime::from_millis(10));
        assert_eq!(
            w.faults(),
            [
                (SimTime::from_millis(1), "first".to_string()),
                (SimTime::from_millis(5), "second".to_string()),
            ]
        );
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = |seed| {
            let (mut w, ..) = two_nodes_via_switch();
            let _ = std::mem::replace(&mut w, {
                let mut w2 = World::new(seed);
                let a = w2.add_node(
                    "a",
                    Box::new(Chatter::new(MacAddr::unicast(1), MacAddr::unicast(2), true)),
                );
                let b = w2.add_node(
                    "b",
                    Box::new(Chatter::new(
                        MacAddr::unicast(2),
                        MacAddr::unicast(1),
                        false,
                    )),
                );
                let na = w2.add_nic(a, MacAddr::unicast(1));
                let nb = w2.add_nic(b, MacAddr::unicast(2));
                let sw = w2.add_switch(2);
                let l1 = w2.connect_to_switch(a, na, sw, 0, LinkParams::lan());
                w2.connect_to_switch(b, nb, sw, 1, LinkParams::lan());
                w2.link_mut(l1).set_loss(crate::link::LinkDir::AtoB, 0.3);
                w2
            });
            w.start();
            w.run_until(SimTime::from_millis(50));
            w.events_processed()
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn power_on_after_reboots_node() {
        let (mut w, a, _b) = two_nodes_via_switch();
        w.start();
        w.schedule(SimTime::from_millis(5), move |w| w.crash_node(a));
        w.schedule(SimTime::from_millis(10), move |w| {
            w.power_on_after(a, SimDuration::from_millis(15));
        });
        w.run_until(SimTime::from_millis(20));
        assert!(!w.is_powered(a), "still off before the delay elapses");
        w.run_until(SimTime::from_millis(30));
        assert!(w.is_powered(a), "powered on after the delay");
    }

    #[test]
    fn serial_down_drops_in_flight_messages() {
        let mut w = World::new(1);
        let a = w.add_node(
            "a",
            Box::new(Chatter::new(
                MacAddr::unicast(1),
                MacAddr::unicast(2),
                false,
            )),
        );
        let b = w.add_node(
            "b",
            Box::new(Chatter::new(
                MacAddr::unicast(2),
                MacAddr::unicast(1),
                false,
            )),
        );
        let (id, pa, _pb) = w.connect_serial(a, b, SerialParams::rs232());
        w.start();
        // Send 100 bytes at t=1ms; serialization alone takes ~8.7ms at
        // 115.2 kbps 8N1. Cut the cable at t=2ms, mid-flight.
        w.schedule(SimTime::from_millis(1), move |w| {
            w.dispatch(NodeId(0), |_logic, ctx| {
                ctx.send_serial(pa, Bytes::from(vec![0x44u8; 100]));
            });
        });
        w.schedule(SimTime::from_millis(2), move |w| w.fail_serial(id));
        w.run_until(SimTime::from_millis(100));
        assert!(w.node::<Chatter>(b).unwrap().serial_received.is_empty());
        // Restore and verify traffic resumes.
        w.restore_serial(id);
        w.schedule(SimTime::from_millis(101), move |w| {
            w.dispatch(NodeId(0), |_logic, ctx| {
                ctx.send_serial(pa, Bytes::from_static(b"alive"));
            });
        });
        w.run_until(SimTime::from_millis(200));
        assert_eq!(
            w.node::<Chatter>(b).unwrap().serial_received,
            vec![Bytes::from_static(b"alive")],
        );
    }

    #[test]
    fn node_accessors_work() {
        let (w, a, _b) = two_nodes_via_switch();
        assert_eq!(w.node_name(a), "a");
        assert_eq!(w.nic(a, NicId(0)).mac, MacAddr::unicast(1));
        assert!(w.nic(a, NicId(0)).up);
        // Wrong-type downcast returns None.
        struct Other;
        impl Node for Other {
            fn on_frame(&mut self, _: &mut NodeCtx<'_>, _: NicId, _: EthernetFrame) {}
            fn on_timer(&mut self, _: &mut NodeCtx<'_>, _: TimerToken) {}
        }
        assert!(w.node::<Other>(a).is_none());
        assert!(w.node::<Chatter>(a).is_some());
    }

    #[test]
    fn failed_nic_blocks_rx_and_tx() {
        let (mut w, a, b) = two_nodes_via_switch();
        w.nodes[a.0].nics[0].up = false;
        w.start();
        w.run_until(SimTime::from_millis(10));
        // a's start-up frame never left.
        assert_eq!(w.node::<Chatter>(b).unwrap().received.len(), 0);
    }
}
