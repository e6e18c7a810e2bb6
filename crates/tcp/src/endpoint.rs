//! The per-host TCP endpoint: demultiplexing, listeners, timers, and the
//! ST-TCP egress shim.
//!
//! A [`TcpEndpoint`] owns every connection on a host and converts between
//! IP packets and per-connection segments. It is where ST-TCP's hooks
//! live:
//!
//! * **ISN policy** — the backup must produce the *same* initial sequence
//!   number as the primary for each connection, so both servers run the
//!   [`IsnPolicy::Deterministic`] policy (a keyed hash of the four-tuple),
//!   realizing the paper's "the backup changes its initial sequence number
//!   to match that of the primary" without extra messaging.
//! * **Egress suppression** — the backup generates every segment a normal
//!   server would, but its endpoint drops them at the shim
//!   ([`EgressMode::Suppress`]); on takeover the mode flips to
//!   [`EgressMode::Normal`] and the connection picks up mid-stream.
//! * **FIN gate** — for the paper's `MaxDelayFIN` arbitration, a
//!   connection's FIN segments can be held at the shim
//!   ([`FinGate::Hold`]) while data continues to flow, then released or
//!   left to die with the server.

use bytes::Bytes;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::net::Ipv4Addr;
use std::rc::Rc;

use simnet::hash::{fnv1a, FNV_OFFSET};
use simnet::ip::{IpProto, Ipv4Packet};
use simnet::rng::SimRng;
use simnet::time::SimTime;

use crate::conn::{ConnEvent, TcpConfig, TcpConn, TcpState};
use crate::segment::{TcpFlags, TcpSegment};
use crate::seq::SeqNum;
use crate::socket::{FourTuple, SocketEvent, SocketId};

/// How initial sequence numbers are chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IsnPolicy {
    /// Seeded-random ISNs (ordinary hosts).
    Random,
    /// A keyed hash of the connection four-tuple: two endpoints configured
    /// with the same salt derive the same ISN for the same connection —
    /// the ST-TCP primary/backup configuration.
    Deterministic {
        /// Shared key; both servers must agree on it.
        salt: u64,
    },
    /// A fixed ISN (tests only).
    Fixed(SeqNum),
}

/// What to do with segments addressed to no known connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RstPolicy {
    /// Answer with an RST (ordinary hosts).
    Send,
    /// Stay silent (the ST-TCP backup must never betray its presence).
    Silent,
}

/// Per-connection egress behaviour at the shim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EgressMode {
    /// Segments leave the host normally.
    Normal,
    /// Segments are generated, counted, and dropped (the ST-TCP backup).
    Suppress,
}

/// Per-connection FIN/RST handling at the shim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FinGate {
    /// FIN/RST segments pass through.
    Open,
    /// FIN- or RST-flagged segments are held (dropped and counted); data
    /// segments still pass. Used by the `MaxDelayFIN` protocol, which the
    /// paper applies to both close (FIN) and abort (RST) events.
    Hold,
}

/// Endpoint-level configuration.
#[derive(Debug, Clone)]
pub struct EndpointConfig {
    /// Per-connection TCP tuning for actively opened sockets, shared
    /// with every connection opened under it.
    pub tcp: Rc<TcpConfig>,
    /// ISN selection policy.
    pub isn: IsnPolicy,
    /// Behaviour toward unknown segments.
    pub rst_policy: RstPolicy,
    /// Seed for the endpoint's private RNG (random ISNs, ephemeral ports).
    pub seed: u64,
}

impl Default for EndpointConfig {
    fn default() -> Self {
        EndpointConfig {
            tcp: Rc::default(),
            isn: IsnPolicy::Random,
            rst_policy: RstPolicy::Send,
            seed: 0,
        }
    }
}

/// Configuration applied to connections accepted by a listener.
#[derive(Debug, Clone)]
pub struct ListenConfig {
    /// TCP tuning for accepted connections (e.g. the primary enables the
    /// hold buffer here), shared with every connection accepted under
    /// it. Listening again replaces the `Rc`; connections already
    /// accepted keep the config they were born with.
    pub tcp: Rc<TcpConfig>,
    /// Egress mode for accepted connections.
    pub egress: EgressMode,
}

impl Default for ListenConfig {
    fn default() -> Self {
        ListenConfig {
            tcp: Rc::default(),
            egress: EgressMode::Normal,
        }
    }
}

/// Shim counters for one connection.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShimStats {
    /// Segments dropped by [`EgressMode::Suppress`].
    pub suppressed: u64,
    /// FIN segments held by [`FinGate::Hold`].
    pub fins_held: u64,
}

/// Sums, over the tracked sockets ([`TcpEndpoint::track`]), of the
/// per-connection quantities the ST-TCP server samples every check
/// period. Kept incrementally: a query costs O(sockets that moved since
/// the last query), never O(connections).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EndpointTotals {
    /// Bytes held in extended receive buffers ([`TcpConn::hold_used`]).
    pub hold: u64,
    /// Sum of congestion windows ([`TcpConn::cwnd`]).
    pub cwnd_sum: u64,
    /// Sum of send-buffer occupancy ([`TcpConn::send_occupancy`]).
    pub send_occ: u64,
    /// Sum of receive-side occupancy ([`TcpConn::recv_occupancy`]).
    pub recv_occ: u64,
    /// Tracked sockets whose hold buffer has overflowed.
    pub hold_overflows: u64,
    /// Tracked sockets (closed ones included: a socket stays tracked
    /// until [`TcpEndpoint::untrack`]).
    pub live: u64,
}

impl EndpointTotals {
    /// One connection's contribution.
    fn of(conn: &TcpConn) -> EndpointTotals {
        EndpointTotals {
            hold: conn.hold_used() as u64,
            cwnd_sum: conn.cwnd(),
            send_occ: conn.send_occupancy() as u64,
            recv_occ: conn.recv_occupancy() as u64,
            hold_overflows: conn.hold_overflow() as u64,
            live: 1,
        }
    }

    fn add(&mut self, o: &EndpointTotals) {
        self.hold += o.hold;
        self.cwnd_sum += o.cwnd_sum;
        self.send_occ += o.send_occ;
        self.recv_occ += o.recv_occ;
        self.hold_overflows += o.hold_overflows;
        self.live += o.live;
    }

    fn sub(&mut self, o: &EndpointTotals) {
        self.hold -= o.hold;
        self.cwnd_sum -= o.cwnd_sum;
        self.send_occ -= o.send_occ;
        self.recv_occ -= o.recv_occ;
        self.hold_overflows -= o.hold_overflows;
        self.live -= o.live;
    }
}

/// [`ConnEntry::dirty`] bit: on [`DirtyLists::touched`].
const TOUCHED: u8 = 1;
/// [`ConnEntry::dirty`] bit: on [`DirtyLists::poll`].
const POLL: u8 = 1 << 1;
/// [`ConnEntry::dirty`] bit: on [`DirtyLists::deadline`].
const DEADLINE: u8 = 1 << 2;
/// [`ConnEntry::dirty`] bit: on [`DirtyLists::totals`].
const TOTALS: u8 = 1 << 3;

/// The endpoint's intrusive dirty lists. A socket is on a list iff the
/// matching bit of its [`ConnEntry::dirty`] is set, so each socket
/// appears at most once per list and idle sockets are on none.
#[derive(Debug, Default)]
struct DirtyLists {
    /// Sockets with activity since the last [`TcpEndpoint::drain_touched`]
    /// — the feed behind ST-TCP's delta heartbeats: idle connections are
    /// never visited when building a heartbeat.
    touched: Vec<SocketId>,
    /// Sockets that may have outbound segments pending. Every path that
    /// can make a connection emit a segment marks it, so
    /// [`TcpEndpoint::poll_packets`] visits only active connections.
    poll: Vec<SocketId>,
    /// Sockets whose queued deadline may no longer match their
    /// connection's `next_deadline` (touched, or polled — emitting a
    /// segment can arm the retransmit/persist timers). Reconciled
    /// lazily by [`TcpEndpoint::sync_deadlines`] before any timer query.
    deadline: Vec<SocketId>,
    /// Tracked sockets whose cached [`ConnEntry::counted`] contribution
    /// may be stale. Reconciled by [`TcpEndpoint::totals`].
    totals: Vec<SocketId>,
}

impl DirtyLists {
    /// Puts `id` on every list named in `which` that it is not already
    /// on. Untracked sockets contribute nothing to the totals and never
    /// join that list.
    fn mark(&mut self, e: &mut ConnEntry, id: SocketId, which: u8) {
        let which = if e.tracked { which } else { which & !TOTALS };
        let new = which & !e.dirty;
        e.dirty |= which;
        if new & TOUCHED != 0 {
            self.touched.push(id);
        }
        if new & POLL != 0 {
            self.poll.push(id);
        }
        if new & DEADLINE != 0 {
            self.deadline.push(id);
        }
        if new & TOTALS != 0 {
            self.totals.push(id);
        }
    }
}

#[derive(Debug)]
struct ConnEntry {
    conn: TcpConn,
    egress: EgressMode,
    fin_gate: FinGate,
    shim: ShimStats,
    /// Which [`DirtyLists`] this socket is currently on.
    dirty: u8,
    /// Counted in the endpoint's [`EndpointTotals`].
    tracked: bool,
    /// The contribution last added to the totals (zero while untracked
    /// or not yet reconciled).
    counted: EndpointTotals,
    /// The deadline this socket last pushed on the deadline queue
    /// (`None` = no live registration). A queue entry is valid only
    /// while it matches; rescheduling just strands the old entry as a
    /// tombstone the pop path discards.
    queued_at: Option<SimTime>,
}

/// The socket table. Ids are handed out densely from zero, never
/// reused, and a socket is never removed (a closed connection only
/// releases its four-tuple), so the id *is* the index: lookup is one
/// bounds check, and iteration order is `SocketId` order. Each entry is
/// its own allocation, so the table grows by moving pointers and an
/// endpoint with one socket pays for one (a `Vec` of inline 576-byte
/// entries starts at four).
#[derive(Debug, Default)]
#[allow(clippy::vec_box)]
struct SockTable(Vec<Box<ConnEntry>>);

impl SockTable {
    fn get(&self, id: SocketId) -> Option<&ConnEntry> {
        let i = usize::try_from(id.0).ok()?;
        self.0.get(i).map(Box::as_ref)
    }

    fn get_mut(&mut self, id: SocketId) -> Option<&mut ConnEntry> {
        let i = usize::try_from(id.0).ok()?;
        self.0.get_mut(i).map(Box::as_mut)
    }

    /// Adds a socket under the next id.
    fn push(&mut self, entry: ConnEntry) -> SocketId {
        self.0.push(Box::new(entry));
        SocketId(self.0.len() as u64 - 1)
    }

    /// Every socket, in `SocketId` order.
    fn iter(&self) -> impl Iterator<Item = (SocketId, &ConnEntry)> {
        (0u64..).map(SocketId).zip(self.0.iter().map(Box::as_ref))
    }
}

/// A host's TCP stack. See the [module docs](self).
#[derive(Debug)]
pub struct TcpEndpoint {
    cfg: EndpointConfig,
    rng: SimRng,
    listeners: BTreeMap<u16, ListenConfig>,
    socks: SockTable,
    by_tuple: BTreeMap<FourTuple, SocketId>,
    events: VecDeque<(SocketId, SocketEvent)>,
    raw_out: VecDeque<(FourTuple, TcpSegment)>,
    dirty: DirtyLists,
    /// Running sums over tracked sockets, exact for every socket not on
    /// `dirty.totals`. The every-socket walk it replaced survives as the
    /// differential oracle (`scan_totals`), asserted on every
    /// debug-build query and by the proptest at the bottom of this file.
    totals: EndpointTotals,
    /// Per-connection timer deadlines, earliest first, with lazy
    /// tombstones (see [`ConnEntry::queued_at`]). Replaces the flat
    /// every-socket deadline scan: timer queries cost O(active), so
    /// idle connections cost zero CPU per tick. A plain min-heap is
    /// enough: [`TcpEndpoint::on_time`] re-sorts what is due by
    /// `SocketId` and [`TcpEndpoint::next_deadline`] wants only the
    /// smallest live time, so the order of equal times never shows.
    /// The scan it replaced survives as the differential oracle
    /// (`scan_due`, `scan_next_deadline`) asserted against on every
    /// debug-build query and driven hard by the proptest at the bottom
    /// of this file.
    deadlines: BinaryHeap<Reverse<(SimTime, SocketId)>>,
    /// [`TcpEndpoint::on_time`]'s due-set, kept between calls for its
    /// capacity like the dirty lists (empty outside that call).
    due: Vec<SocketId>,
}

impl TcpEndpoint {
    /// Creates an endpoint.
    pub fn new(cfg: EndpointConfig) -> TcpEndpoint {
        let rng = SimRng::seed_from(cfg.seed);
        TcpEndpoint {
            cfg,
            rng,
            listeners: BTreeMap::new(),
            socks: SockTable::default(),
            by_tuple: BTreeMap::new(),
            events: VecDeque::new(),
            raw_out: VecDeque::new(),
            dirty: DirtyLists::default(),
            totals: EndpointTotals::default(),
            deadlines: BinaryHeap::new(),
            due: Vec::new(),
        }
    }

    /// Marks a socket active: it joins every dirty list — touched
    /// (drained by the ST-TCP server's delta-heartbeat builder), poll,
    /// deadline, and (if tracked) totals.
    fn touch(&mut self, id: SocketId) {
        if let Some(e) = self.socks.get_mut(id) {
            self.dirty.mark(e, id, TOUCHED | POLL | DEADLINE | TOTALS);
        }
    }

    /// Reconciles the deadline queue with every dirty socket's current
    /// deadline. Lazy on purpose: `conn_mut` touches *before* handing
    /// out `&mut`, so the registration must be refreshed after the
    /// mutation — at the next timer query — not at touch time.
    fn sync_deadlines(&mut self) {
        if self.dirty.deadline.is_empty() {
            return; // every timer query of an idle endpoint
        }
        let mut dirty = std::mem::take(&mut self.dirty.deadline);
        for id in dirty.drain(..) {
            let Some(e) = self.socks.get_mut(id) else {
                continue;
            };
            e.dirty &= !DEADLINE;
            let d = e.conn.next_deadline();
            if e.queued_at != d {
                e.queued_at = d;
                if let Some(t) = d {
                    self.deadlines.push(Reverse((t, id)));
                }
            }
        }
        // Hand the (empty) buffer back so its capacity is reused.
        self.dirty.deadline = dirty;
    }

    /// Drains the set of sockets with any activity (segments, timers,
    /// application I/O, control-plane mutation) since the last drain.
    /// Order is first-touch order; each socket appears at most once.
    pub fn drain_touched(&mut self) -> Vec<SocketId> {
        for id in &self.dirty.touched {
            if let Some(e) = self.socks.get_mut(*id) {
                e.dirty &= !TOUCHED;
            }
        }
        std::mem::take(&mut self.dirty.touched)
    }

    // ----- incremental totals ---------------------------------------------

    /// Starts counting a socket in [`TcpEndpoint::totals`].
    pub fn track(&mut self, id: SocketId) {
        if let Some(e) = self.socks.get_mut(id) {
            e.tracked = true;
            self.dirty.mark(e, id, TOTALS);
        }
    }

    /// Stops counting a socket in [`TcpEndpoint::totals`].
    pub fn untrack(&mut self, id: SocketId) {
        if let Some(e) = self.socks.get_mut(id) {
            e.tracked = false;
            self.totals.sub(&e.counted);
            e.counted = EndpointTotals::default();
        }
    }

    /// How many sockets the next [`TcpEndpoint::totals`] query will
    /// re-read: the tracked sockets touched since the last query.
    pub fn totals_stale(&self) -> usize {
        self.dirty.totals.len()
    }

    /// The sums over every tracked socket, as of now.
    ///
    /// O(moved): only sockets touched since the last query are re-read
    /// (subtract the cached contribution, add the current one).
    pub fn totals(&mut self) -> EndpointTotals {
        let mut stale = std::mem::take(&mut self.dirty.totals);
        for id in stale.drain(..) {
            let Some(e) = self.socks.get_mut(id) else {
                continue;
            };
            e.dirty &= !TOTALS;
            if !e.tracked {
                continue;
            }
            self.totals.sub(&e.counted);
            e.counted = EndpointTotals::of(&e.conn);
            self.totals.add(&e.counted);
        }
        // Hand the (empty) buffer back so its capacity is reused.
        self.dirty.totals = stale;
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            self.totals,
            self.scan_totals(),
            "incremental totals diverged from the scan oracle"
        );
        self.totals
    }

    /// The replaced O(n) sampling walk, kept as the differential oracle
    /// for [`TcpEndpoint::totals`].
    #[cfg(any(test, debug_assertions))]
    fn scan_totals(&self) -> EndpointTotals {
        let mut sum = EndpointTotals::default();
        for (_, e) in self.socks.iter().filter(|(_, e)| e.tracked) {
            sum.add(&EndpointTotals::of(&e.conn));
        }
        sum
    }

    // ----- listeners and opens ------------------------------------------

    /// Starts listening on `port` with the given accept-time config.
    pub fn listen(&mut self, port: u16, config: ListenConfig) {
        self.listeners.insert(port, config);
    }

    /// Stops listening on `port` (existing connections unaffected).
    pub fn unlisten(&mut self, port: u16) {
        self.listeners.remove(&port);
    }

    /// Actively opens a connection. Returns the new socket id.
    pub fn connect(
        &mut self,
        now: SimTime,
        local: (Ipv4Addr, u16),
        remote: (Ipv4Addr, u16),
    ) -> SocketId {
        let tuple = FourTuple { local, remote };
        let iss = self.pick_isn(tuple);
        let conn = TcpConn::client(Rc::clone(&self.cfg.tcp), tuple, iss, now);
        self.install(conn, EgressMode::Normal)
    }

    fn pick_isn(&mut self, tuple: FourTuple) -> SeqNum {
        match self.cfg.isn {
            IsnPolicy::Random => SeqNum(self.rng.next_u32()),
            IsnPolicy::Fixed(isn) => isn,
            IsnPolicy::Deterministic { salt } => SeqNum(deterministic_isn(tuple, salt)),
        }
    }

    fn install(&mut self, conn: TcpConn, egress: EgressMode) -> SocketId {
        let tuple = conn.tuple();
        let id = self.socks.push(ConnEntry {
            conn,
            egress,
            fin_gate: FinGate::Open,
            shim: ShimStats::default(),
            dirty: 0,
            tracked: false,
            counted: EndpointTotals::default(),
            queued_at: None,
        });
        self.by_tuple.insert(tuple, id);
        self.touch(id);
        id
    }

    // ----- packet path ------------------------------------------------

    /// Processes an inbound IP packet carrying TCP. Non-TCP packets and
    /// undecodable segments are ignored (the caller routes ICMP etc.).
    pub fn on_packet(&mut self, now: SimTime, pkt: &Ipv4Packet) {
        if pkt.proto != IpProto::Tcp {
            return;
        }
        let Ok(seg) = TcpSegment::decode(&pkt.payload, pkt.src, pkt.dst) else {
            return;
        };
        let tuple = FourTuple {
            local: (pkt.dst, seg.dst_port),
            remote: (pkt.src, seg.src_port),
        };
        if let Some(&id) = self.by_tuple.get(&tuple) {
            if let Some(entry) = self.socks.get_mut(id) {
                entry.conn.on_segment(now, &seg);
                self.collect_events(id);
                self.touch(id);
                return;
            }
        }
        // No connection: maybe a listener?
        if seg.flags.syn && !seg.flags.ack {
            if let Some(lc) = self.listeners.get(&seg.dst_port) {
                let (tcp, egress) = (Rc::clone(&lc.tcp), lc.egress);
                let iss = self.pick_isn(tuple);
                let conn = TcpConn::server_from_syn(tcp, tuple, iss, &seg, now);
                let id = self.install(conn, egress);
                self.events.push_back((id, SocketEvent::Accepted));
                return;
            }
        }
        // Unknown segment: RST policy.
        if self.cfg.rst_policy == RstPolicy::Send && !seg.flags.rst {
            let rst = make_rst_for(&seg);
            self.raw_out.push_back((tuple, rst));
        }
    }

    /// Fires all timers due at `now`.
    ///
    /// O(due), not O(connections): the queue yields exactly the sockets
    /// whose registered deadline is `<= now`. Firing order is ascending
    /// `SocketId` — the order the replaced every-socket scan produced —
    /// so simulation runs are bit-identical to the scan implementation
    /// (the debug assertion and the differential proptest below pin
    /// this).
    pub fn on_time(&mut self, now: SimTime) {
        self.sync_deadlines();
        let mut due = std::mem::take(&mut self.due);
        while let Some(&Reverse((t, id))) = self.deadlines.peek() {
            if t > now {
                break;
            }
            let _ = self.deadlines.pop();
            // Valid only if this entry is the socket's live registration;
            // rescheduled/cancelled deadlines left tombstones behind.
            if let Some(e) = self.socks.get_mut(id) {
                if e.queued_at == Some(t) {
                    e.queued_at = None;
                    due.push(id);
                }
            }
        }
        due.sort_unstable();
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            due,
            self.scan_due(now),
            "queued due-set diverged from the scan oracle"
        );
        for id in due.drain(..) {
            if let Some(entry) = self.socks.get_mut(id) {
                entry.conn.on_timer(now);
            }
            self.collect_events(id);
            self.touch(id);
        }
        // Hand the (empty) buffer back so its capacity is reused.
        self.due = due;
    }

    /// The earliest timer deadline across all connections.
    ///
    /// O(active): answered from the top of the queue, discarding stale
    /// tombstones on the way (hence `&mut`).
    pub fn next_deadline(&mut self) -> Option<SimTime> {
        self.sync_deadlines();
        let next = loop {
            match self.deadlines.peek() {
                None => break None,
                Some(&Reverse((t, id))) => {
                    if self.socks.get(id).is_some_and(|e| e.queued_at == Some(t)) {
                        break Some(t);
                    }
                    let _ = self.deadlines.pop();
                }
            }
        };
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            next,
            self.scan_next_deadline(),
            "queued next_deadline diverged from the scan oracle"
        );
        next
    }

    /// The replaced O(n) due-set scan, kept as the differential oracle:
    /// trivially correct by inspection, asserted bit-identical to the
    /// queue on every debug-build `on_time`.
    #[cfg(any(test, debug_assertions))]
    fn scan_due(&self, now: SimTime) -> Vec<SocketId> {
        self.socks
            .iter()
            .filter(|(_, e)| e.conn.next_deadline().is_some_and(|d| d <= now))
            .map(|(id, _)| id)
            .collect()
    }

    /// The replaced O(n) min-deadline scan, kept as the differential
    /// oracle for [`TcpEndpoint::next_deadline`].
    #[cfg(any(test, debug_assertions))]
    fn scan_next_deadline(&self) -> Option<SimTime> {
        self.socks
            .iter()
            .filter_map(|(_, e)| e.conn.next_deadline())
            .min()
    }

    /// Drains all pending outbound segments as IP packets, applying the
    /// egress shim (suppression, FIN gating).
    pub fn poll_packets(&mut self, now: SimTime) -> Vec<Ipv4Packet> {
        let mut out = Vec::new();
        self.poll_packets_with(now, |pkt| out.push(pkt));
        out
    }

    /// [`TcpEndpoint::poll_packets`] handing each packet to `sink` as it
    /// is built, so a node's flush loop needs no list per poll. Returns
    /// how many packets there were.
    pub fn poll_packets_with(&mut self, _now: SimTime, mut sink: impl FnMut(Ipv4Packet)) -> usize {
        let mut polled = 0;
        let mut out = |pkt| {
            polled += 1;
            sink(pkt);
        };
        while let Some((tuple, seg)) = self.raw_out.pop_front() {
            out(wrap(tuple, &seg));
        }
        // Only sockets with activity since the last poll can have pending
        // segments; idle connections are not visited (O(active), not
        // O(connections) — the scale bench depends on this).
        let mut pollable = std::mem::take(&mut self.dirty.poll);
        for id in pollable.drain(..) {
            let Some(entry) = self.socks.get_mut(id) else {
                continue;
            };
            entry.dirty &= !POLL;
            while let Some(seg) = entry.conn.poll_segment() {
                match entry.egress {
                    EgressMode::Suppress => {
                        entry.shim.suppressed += 1;
                        continue;
                    }
                    EgressMode::Normal => {}
                }
                if entry.fin_gate == FinGate::Hold && (seg.flags.fin || seg.flags.rst) {
                    entry.shim.fins_held += 1;
                    continue;
                }
                out(wrap(entry.conn.tuple(), &seg));
            }
            // Emitting segments can arm the retransmit/persist/TIME-WAIT
            // timers; refresh this socket's queued deadline lazily.
            self.dirty.mark(entry, id, DEADLINE);
        }
        // Nothing above marks a socket pollable: the buffer comes back
        // empty, capacity kept.
        self.dirty.poll = pollable;
        polled
    }

    /// Drains the next application event.
    pub fn poll_event(&mut self) -> Option<(SocketId, SocketEvent)> {
        self.events.pop_front()
    }

    fn collect_events(&mut self, id: SocketId) {
        let Some(entry) = self.socks.get_mut(id) else {
            return;
        };
        while let Some(ev) = entry.conn.poll_event() {
            let sev = match ev {
                ConnEvent::Connected => SocketEvent::Connected,
                ConnEvent::DataReadable => SocketEvent::DataReadable,
                ConnEvent::PeerFin => SocketEvent::PeerFin,
                ConnEvent::Reset => SocketEvent::Reset,
                ConnEvent::Closed => SocketEvent::Closed,
            };
            self.events.push_back((id, sev));
        }
        // Fully closed connections release their tuple so a new connection
        // with the same endpoints can be accepted later — unless the FIN
        // gate is holding: a connection whose FIN/RST is being withheld
        // must keep absorbing the peer's segments silently (answering them
        // with fresh RSTs would leak the very event the gate suppresses).
        if entry.conn.state() == TcpState::Closed && entry.fin_gate == FinGate::Open {
            let tuple = entry.conn.tuple();
            if self.by_tuple.get(&tuple) == Some(&id) {
                self.by_tuple.remove(&tuple);
            }
        }
    }

    // ----- application API ------------------------------------------------

    /// Writes data on a socket; returns bytes accepted.
    pub fn send(&mut self, now: SimTime, id: SocketId, data: &[u8]) -> usize {
        self.send_with(id, |conn| conn.send(now, data))
    }

    /// [`TcpEndpoint::send`] for data the caller already holds as
    /// [`Bytes`]: shared into the send buffer, not copied.
    pub fn send_bytes(&mut self, now: SimTime, id: SocketId, data: &Bytes) -> usize {
        self.send_with(id, |conn| conn.send_bytes(now, data))
    }

    fn send_with(&mut self, id: SocketId, send: impl FnOnce(&mut TcpConn) -> usize) -> usize {
        let n = match self.socks.get_mut(id) {
            Some(e) => send(&mut e.conn),
            None => 0,
        };
        self.collect_events(id);
        self.touch(id);
        n
    }

    /// Reads up to `max` in-order bytes from a socket.
    pub fn recv(&mut self, id: SocketId, max: usize) -> Bytes {
        let data = match self.socks.get_mut(id) {
            Some(e) => e.conn.recv(max),
            None => Bytes::new(),
        };
        if !data.is_empty() {
            self.touch(id);
        }
        data
    }

    /// Closes the sending side of a socket.
    pub fn close(&mut self, now: SimTime, id: SocketId) {
        if let Some(e) = self.socks.get_mut(id) {
            e.conn.close(now);
        }
        self.collect_events(id);
        self.touch(id);
    }

    /// Aborts a socket with an RST.
    pub fn abort(&mut self, now: SimTime, id: SocketId) {
        if let Some(e) = self.socks.get_mut(id) {
            e.conn.abort(now);
        }
        self.collect_events(id);
        self.touch(id);
    }

    /// Installs a connection rebuilt from a re-integration snapshot
    /// ([`TcpConn::resume`]) under this endpoint's demultiplexer, with the
    /// given egress mode (the joining backup installs with
    /// [`EgressMode::Suppress`]). Returns `None` — installing nothing —
    /// if the four-tuple is already taken, which means the endpoint
    /// accepted the connection itself (a tapped SYN) and the snapshot is
    /// redundant.
    pub fn install_resumed(&mut self, conn: TcpConn, egress: EgressMode) -> Option<SocketId> {
        if self.by_tuple.contains_key(&conn.tuple()) {
            return None;
        }
        let id = self.install(conn, egress);
        self.collect_events(id);
        Some(id)
    }

    // ----- introspection and ST-TCP control --------------------------------

    /// Immutable access to a socket's connection state machine.
    pub fn conn(&self, id: SocketId) -> Option<&TcpConn> {
        self.socks.get(id).map(|e| &e.conn)
    }

    /// Mutable access to a socket's connection (ST-TCP hold/injection
    /// control). Marks the socket touched: the caller may mutate state
    /// that feeds heartbeats or produces segments (the hold's arming and
    /// the takeover rewind; a hold release has its own call, below).
    pub fn conn_mut(&mut self, id: SocketId) -> Option<&mut TcpConn> {
        self.touch(id);
        self.socks.get_mut(id).map(|e| &mut e.conn)
    }

    /// [`TcpConn::release_hold_until`] on socket `id`, which is touched
    /// only if its release point moved: an empty release changes nothing
    /// a heartbeat, a segment, a timer or the totals read.
    pub fn release_hold_until(&mut self, id: SocketId, upto: u64) {
        if (self.socks.get_mut(id)).is_some_and(|e| e.conn.release_hold_until(upto)) {
            self.touch(id);
        }
    }

    /// Looks up the socket for a four-tuple.
    pub fn socket_by_tuple(&self, tuple: FourTuple) -> Option<SocketId> {
        self.by_tuple.get(&tuple).copied()
    }

    /// The id of every socket ever created (closed ones included: a
    /// socket is never removed), in creation order.
    pub fn sockets(&self) -> Vec<SocketId> {
        self.socks.iter().map(|(id, _)| id).collect()
    }

    /// Sets the egress mode of a socket (takeover flips the backup's
    /// client connections from `Suppress` to `Normal`).
    pub fn set_egress(&mut self, id: SocketId, mode: EgressMode) {
        if let Some(e) = self.socks.get_mut(id) {
            e.egress = mode;
        }
    }

    /// The egress mode of a socket.
    pub fn egress(&self, id: SocketId) -> Option<EgressMode> {
        self.socks.get(id).map(|e| e.egress)
    }

    /// Sets the FIN gate of a socket.
    pub fn set_fin_gate(&mut self, id: SocketId, gate: FinGate) {
        if let Some(e) = self.socks.get_mut(id) {
            e.fin_gate = gate;
        }
    }

    /// Opens a held FIN gate and forces an immediate retransmission so the
    /// FIN actually goes out now rather than at the next backed-off RTO.
    /// A held RST is re-issued explicitly: the original was a one-shot
    /// segment the gate swallowed, and nothing retransmits it.
    pub fn release_fin(&mut self, now: SimTime, id: SocketId) {
        if let Some(e) = self.socks.get_mut(id) {
            e.fin_gate = FinGate::Open;
            if e.conn.rst_generated() {
                // Mutation seam: `inject_held_rst` re-introduces the PR-1
                // held-RST bug (gate swallows the one-shot RST and release
                // forgets to re-send it — the client hangs forever). Built
                // only so the bounded-exhaustive explorer can prove it
                // re-discovers and shrinks the bug; never enable it in a
                // real build.
                #[cfg(not(feature = "inject_held_rst"))]
                e.conn.reissue_rst(now);
                #[cfg(feature = "inject_held_rst")]
                let _ = now;
            } else if e.conn.fin_generated() {
                e.conn.force_retransmit(now);
            }
        }
        self.collect_events(id);
        self.touch(id);
    }

    /// Shim counters for a socket.
    pub fn shim_stats(&self, id: SocketId) -> Option<ShimStats> {
        self.socks.get(id).map(|e| e.shim)
    }

    /// Changes the policy toward segments addressed to no known
    /// connection. The ST-TCP backup runs `Silent` while shadowing and
    /// flips to `Send` at takeover, when it must behave like an ordinary
    /// host (including resetting orphaned connections).
    pub fn set_rst_policy(&mut self, policy: RstPolicy) {
        self.cfg.rst_policy = policy;
    }

    /// Injects in-order bytes into a socket's receive path (ST-TCP
    /// missed-byte recovery), delivering any resulting events.
    pub fn inject_in_order(&mut self, id: SocketId, off: u64, data: &Bytes) {
        if let Some(e) = self.socks.get_mut(id) {
            e.conn.inject_in_order(off, data);
        }
        self.collect_events(id);
        self.touch(id);
    }
}

/// The IP packet carrying `seg`, with the segment written straight into
/// the buffer the packet's wire form will use (one allocation, one
/// payload copy from send buffer to frame).
fn wrap(tuple: FourTuple, seg: &TcpSegment) -> Ipv4Packet {
    let (src, dst) = (tuple.local.0, tuple.remote.0);
    Ipv4Packet::build(src, dst, IpProto::Tcp, seg.wire_len(), |buf| {
        seg.encode_into(buf, src, dst)
    })
}

/// Builds the RST answering an unexpected segment (RFC 793 reset
/// generation, simplified).
fn make_rst_for(seg: &TcpSegment) -> TcpSegment {
    let (seq, ack, ack_flag) = if seg.flags.ack {
        (seg.ack, SeqNum(0), false)
    } else {
        (SeqNum(0), seg.seq + seg.seq_len(), true)
    };
    TcpSegment {
        src_port: seg.dst_port,
        dst_port: seg.src_port,
        seq,
        ack,
        flags: TcpFlags {
            rst: true,
            ack: ack_flag,
            ..Default::default()
        },
        window: 0,
        payload: Bytes::new(),
    }
}

/// FNV-1a over the four-tuple and salt: a keyed, deterministic ISN that
/// both ST-TCP servers derive identically.
fn deterministic_isn(tuple: FourTuple, salt: u64) -> u32 {
    let h = fnv1a(FNV_OFFSET, &salt.to_be_bytes());
    let h = fnv1a(h, &tuple.packed().to_be_bytes()[4..]);
    (h ^ (h >> 32)) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conn::TcpState;
    use crate::rto::RtoConfig;
    use simnet::time::SimDuration;

    fn ip(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, last)
    }

    /// Two endpoints wired back-to-back through a lossless instant pipe.
    struct Net {
        a: TcpEndpoint,
        b: TcpEndpoint,
        now: SimTime,
    }

    impl Net {
        fn new() -> Net {
            Net {
                a: TcpEndpoint::new(EndpointConfig {
                    seed: 1,
                    ..Default::default()
                }),
                b: TcpEndpoint::new(EndpointConfig {
                    seed: 2,
                    ..Default::default()
                }),
                now: SimTime::ZERO,
            }
        }

        fn pump(&mut self) {
            loop {
                let pa = self.a.poll_packets(self.now);
                let pb = self.b.poll_packets(self.now);
                if pa.is_empty() && pb.is_empty() {
                    break;
                }
                for p in pa {
                    self.b.on_packet(self.now, &p);
                }
                for p in pb {
                    self.a.on_packet(self.now, &p);
                }
            }
        }

        fn advance(&mut self, to: SimTime) {
            self.now = to;
            self.a.on_time(to);
            self.b.on_time(to);
            self.pump();
        }
    }

    fn connected_pair() -> (Net, SocketId, SocketId) {
        let mut n = Net::new();
        n.b.listen(80, ListenConfig::default());
        let ca = n.a.connect(n.now, (ip(1), 40_000), (ip(2), 80));
        n.pump();
        let mut server_sock = None;
        while let Some((id, ev)) = n.b.poll_event() {
            if ev == SocketEvent::Accepted {
                server_sock = Some(id);
            }
        }
        let sb = server_sock.expect("accept event");
        assert_eq!(n.a.conn(ca).unwrap().state(), TcpState::Established);
        assert_eq!(n.b.conn(sb).unwrap().state(), TcpState::Established);
        (n, ca, sb)
    }

    #[test]
    fn connect_accept_and_transfer() {
        let (mut n, ca, sb) = connected_pair();
        assert_eq!(n.a.send(n.now, ca, b"ping"), 4);
        n.pump();
        assert_eq!(n.b.recv(sb, 100).as_ref(), b"ping");
        assert_eq!(n.b.send(n.now, sb, b"pong!"), 5);
        n.pump();
        assert_eq!(n.a.recv(ca, 100).as_ref(), b"pong!");
    }

    #[test]
    fn events_flow_through_endpoint() {
        let (mut n, ca, sb) = connected_pair();
        let _ = n.a.send(n.now, ca, b"x");
        n.pump();
        let evs: Vec<SocketEvent> = std::iter::from_fn(|| n.b.poll_event())
            .map(|(id, ev)| {
                assert_eq!(id, sb);
                ev
            })
            .collect();
        assert!(evs.contains(&SocketEvent::DataReadable));
    }

    #[test]
    fn unknown_segment_gets_rst_when_policy_send() {
        let mut n = Net::new();
        // No listener on b.
        let ca = n.a.connect(n.now, (ip(1), 40_000), (ip(2), 80));
        n.pump();
        assert_eq!(n.a.conn(ca).unwrap().state(), TcpState::Closed);
        let evs: Vec<SocketEvent> = std::iter::from_fn(|| n.a.poll_event())
            .map(|(_, e)| e)
            .collect();
        assert!(evs.contains(&SocketEvent::Reset));
    }

    #[test]
    fn silent_policy_sends_nothing() {
        let mut n = Net::new();
        n.b = TcpEndpoint::new(EndpointConfig {
            rst_policy: RstPolicy::Silent,
            seed: 2,
            ..Default::default()
        });
        let ca = n.a.connect(n.now, (ip(1), 40_000), (ip(2), 80));
        n.pump();
        // The SYN goes unanswered: client still in SYN-SENT.
        assert_eq!(n.a.conn(ca).unwrap().state(), TcpState::SynSent);
    }

    #[test]
    fn deterministic_isn_matches_across_endpoints() {
        let tuple = FourTuple {
            local: (ip(100), 80),
            remote: (ip(1), 40_000),
        };
        assert_eq!(deterministic_isn(tuple, 7), deterministic_isn(tuple, 7));
        assert_ne!(deterministic_isn(tuple, 7), deterministic_isn(tuple, 8));
        let other = FourTuple {
            local: (ip(100), 80),
            remote: (ip(1), 40_001),
        };
        assert_ne!(deterministic_isn(tuple, 7), deterministic_isn(other, 7));
    }

    #[test]
    fn two_listeners_with_deterministic_isn_accept_identically() {
        // The ST-TCP property: primary and backup accept the same SYN and
        // produce the same ISS.
        let mk = || {
            let mut e = TcpEndpoint::new(EndpointConfig {
                isn: IsnPolicy::Deterministic { salt: 99 },
                rst_policy: RstPolicy::Silent,
                seed: 5,
                ..Default::default()
            });
            e.listen(80, ListenConfig::default());
            e
        };
        let mut primary = mk();
        let mut backup = mk();
        let mut client = TcpEndpoint::new(EndpointConfig {
            seed: 9,
            ..Default::default()
        });
        let _ = client.connect(SimTime::ZERO, (ip(1), 40_000), (ip(100), 80));
        let syn_pkt = &client.poll_packets(SimTime::ZERO)[0];
        primary.on_packet(SimTime::ZERO, syn_pkt);
        backup.on_packet(SimTime::ZERO, syn_pkt);
        let ps = primary.sockets()[0];
        let bs = backup.sockets()[0];
        assert_eq!(
            primary.conn(ps).unwrap().isn(),
            backup.conn(bs).unwrap().isn()
        );
    }

    #[test]
    fn suppressed_egress_emits_nothing_but_counts() {
        let mut n = Net::new();
        n.b.listen(
            80,
            ListenConfig {
                egress: EgressMode::Suppress,
                ..Default::default()
            },
        );
        let ca = n.a.connect(n.now, (ip(1), 40_000), (ip(2), 80));
        n.pump();
        // The SYN-ACK was suppressed: the client is still in SYN-SENT.
        assert_eq!(n.a.conn(ca).unwrap().state(), TcpState::SynSent);
        let sb = n.b.sockets()[0];
        assert!(n.b.shim_stats(sb).unwrap().suppressed >= 1);
    }

    #[test]
    fn unsuppressing_lets_connection_complete() {
        let mut n = Net::new();
        n.b.listen(
            80,
            ListenConfig {
                egress: EgressMode::Suppress,
                ..Default::default()
            },
        );
        let ca = n.a.connect(n.now, (ip(1), 40_000), (ip(2), 80));
        n.pump();
        let sb = n.b.sockets()[0];
        assert_eq!(n.b.egress(sb), Some(EgressMode::Suppress));
        n.b.set_egress(sb, EgressMode::Normal);
        // Client retransmits its SYN; this time the SYN-ACK flows.
        let d = n.a.next_deadline().unwrap();
        n.advance(d);
        assert_eq!(n.a.conn(ca).unwrap().state(), TcpState::Established);
    }

    #[test]
    fn fin_gate_holds_fin_but_passes_data() {
        let (mut n, ca, sb) = connected_pair();
        n.a.set_fin_gate(ca, FinGate::Hold);
        let _ = n.a.send(n.now, ca, b"last data");
        n.a.close(n.now, ca);
        n.pump();
        // Data arrived…
        assert_eq!(n.b.recv(sb, 100).as_ref(), b"last data");
        // …but no FIN was seen by the server.
        assert!(!n.b.conn(sb).unwrap().peer_fin_received());
        assert!(n.a.shim_stats(ca).unwrap().fins_held >= 1);
        // Releasing the gate delivers the FIN promptly.
        n.a.release_fin(n.now, ca);
        n.pump();
        assert!(n.b.conn(sb).unwrap().peer_fin_received());
    }

    #[test]
    fn timers_drive_retransmission_through_endpoint() {
        let (mut n, ca, sb) = connected_pair();
        let _ = n.a.send(n.now, ca, b"will be lost");
        // Drop the data packet on the floor.
        let _ = n.a.poll_packets(n.now);
        assert_eq!(n.b.recv(sb, 100).len(), 0);
        let d = n.a.next_deadline().unwrap();
        n.advance(d);
        assert_eq!(n.b.recv(sb, 100).as_ref(), b"will be lost");
    }

    #[test]
    fn closed_connection_frees_tuple_for_reuse() {
        let (mut n, ca, _sb) = connected_pair();
        n.a.abort(n.now, ca);
        n.pump();
        assert_eq!(
            n.a.socket_by_tuple(FourTuple {
                local: (ip(1), 40_000),
                remote: (ip(2), 80),
            }),
            None
        );
    }

    #[test]
    fn many_concurrent_connections_demux_correctly() {
        let mut n = Net::new();
        n.b.listen(80, ListenConfig::default());
        let mut socks = Vec::new();
        for i in 0..8u16 {
            socks.push(n.a.connect(n.now, (ip(1), 41_000 + i), (ip(2), 80)));
        }
        n.pump();
        // Each client socket established; each gets its own echo lane.
        for (i, &sock) in socks.iter().enumerate() {
            assert_eq!(n.a.conn(sock).unwrap().state(), TcpState::Established);
            let msg = format!("hello-{i}");
            let _ = n.a.send(n.now, sock, msg.as_bytes());
        }
        n.pump();
        // Server got 8 distinct connections with the right bytes.
        let server_socks = n.b.sockets();
        assert_eq!(server_socks.len(), 8);
        let mut seen: Vec<String> = server_socks
            .iter()
            .map(|&s| String::from_utf8_lossy(&n.b.recv(s, 100)).into_owned())
            .collect();
        seen.sort();
        let mut expected: Vec<String> = (0..8).map(|i| format!("hello-{i}")).collect();
        expected.sort();
        assert_eq!(seen, expected);
    }

    #[test]
    fn unlisten_stops_new_accepts_keeps_existing() {
        let (mut n, ca, sb) = connected_pair();
        n.b.unlisten(80);
        // Existing connection still works.
        let _ = n.a.send(n.now, ca, b"still alive");
        n.pump();
        assert_eq!(n.b.recv(sb, 100).as_ref(), b"still alive");
        // New connection attempts are refused.
        let c2 = n.a.connect(n.now, (ip(1), 40_001), (ip(2), 80));
        n.pump();
        assert_eq!(n.a.conn(c2).unwrap().state(), TcpState::Closed);
    }

    #[test]
    fn listening_again_reconfigures_new_connections_only() {
        let accept_with = |send_buf| ListenConfig {
            tcp: Rc::new(TcpConfig {
                send_buf,
                ..Default::default()
            }),
            ..Default::default()
        };
        let mut n = Net::new();
        let first = accept_with(1_000);
        n.b.listen(80, first.clone());
        let _ = n.a.connect(n.now, (ip(1), 40_000), (ip(2), 80));
        n.pump();
        n.b.listen(80, accept_with(2_000));
        let _ = n.a.connect(n.now, (ip(1), 40_001), (ip(2), 80));
        n.pump();
        let accepted = n.b.sockets();
        let capacity = |i: usize| n.b.conn(accepted[i]).unwrap().send_capacity();
        assert_eq!((capacity(0), capacity(1)), (1_000, 2_000));
        // Replaced, not mutated: the first config is still what it was,
        // held by the caller and the one connection born under it.
        assert_eq!(first.tcp.send_buf, 1_000);
        assert_eq!(Rc::strong_count(&first.tcp), 2);
    }

    #[test]
    fn deadline_aggregation_takes_minimum() {
        let (mut n, ca, _sb) = connected_pair();
        // One connection with an armed retransmission timer.
        let _ = n.a.send(n.now, ca, b"x");
        let d1 = n.a.next_deadline().expect("rtx armed");
        // A second connection arms a SYN timer (never answered).
        let _ = n.a.connect(n.now, (ip(1), 40_007), (ip(9), 80));
        let d2 = n.a.next_deadline().expect("two timers now");
        assert!(d2 <= d1);
    }

    #[test]
    fn set_rst_policy_flips_behaviour() {
        let mut n = Net::new();
        n.b = TcpEndpoint::new(EndpointConfig {
            rst_policy: RstPolicy::Silent,
            seed: 2,
            ..Default::default()
        });
        let ca = n.a.connect(n.now, (ip(1), 40_000), (ip(2), 80));
        n.pump();
        assert_eq!(n.a.conn(ca).unwrap().state(), TcpState::SynSent);
        // Flip to Send: the next retransmitted SYN gets refused.
        n.b.set_rst_policy(RstPolicy::Send);
        let d = n.a.next_deadline().unwrap();
        n.advance(d);
        assert_eq!(n.a.conn(ca).unwrap().state(), TcpState::Closed);
    }

    #[test]
    fn drain_touched_tracks_activity_and_resets() {
        let (mut n, ca, sb) = connected_pair();
        // The handshake touched both sockets; drain to a clean slate.
        assert!(n.a.drain_touched().contains(&ca));
        assert!(n.b.drain_touched().contains(&sb));
        assert!(n.a.drain_touched().is_empty());
        assert!(n.b.drain_touched().is_empty());
        // Idle sockets stay untouched; data flow touches both ends.
        let _ = n.a.send(n.now, ca, b"ping");
        n.pump();
        assert_eq!(n.a.drain_touched(), vec![ca]);
        assert_eq!(n.b.drain_touched(), vec![sb]);
        // Each socket appears at most once per drain even when touched
        // repeatedly.
        let _ = n.a.send(n.now, ca, b"a");
        let _ = n.a.send(n.now, ca, b"b");
        assert_eq!(n.a.drain_touched(), vec![ca]);
    }

    #[test]
    fn idle_connections_are_not_polled() {
        let (mut n, ca, sb) = connected_pair();
        n.pump();
        // Steady state: nothing pending, polling returns nothing and the
        // poll list stays empty until new activity arrives.
        assert!(n.a.poll_packets(n.now).is_empty());
        let _ = n.a.send(n.now, ca, b"x");
        let pkts = n.a.poll_packets(n.now);
        assert!(!pkts.is_empty());
        for p in pkts {
            n.b.on_packet(n.now, &p);
        }
        n.pump();
        assert_eq!(n.b.recv(sb, 10).as_ref(), b"x");
    }

    use proptest::prelude::*;

    #[derive(Debug, Clone, Copy)]
    enum EpOp {
        /// Open a fresh connection (arms SYN/handshake timers).
        Open,
        /// Write bytes on a random client socket (arms the retransmit
        /// timer; fills the server's receive and hold buffers).
        Send(u8, u8),
        /// Server application reads from a random accepted socket.
        Recv(u8, u8),
        /// Backup confirmation: release held bytes on a random accepted
        /// socket up to a fraction of what it has received.
        HoldRelease(u8, u8),
        /// Close a random client socket (FIN + TIME-WAIT timers).
        Close(u8),
        /// Abort a random accepted socket (RST; the socket stays tracked).
        Abort(u8),
        /// Jump both endpoints to the earliest deadline and fire it.
        AdvanceNext,
        /// Jump forward an arbitrary amount (fires batches of timers).
        AdvanceBy(u32),
        /// Shuttle packets (delivers data and acks; polling arms timers
        /// outside `touch` paths).
        Pump,
        /// Loss: whatever both sides have queued is polled and dropped.
        Lose,
    }

    fn ep_op_strategy() -> impl Strategy<Value = EpOp> {
        prop_oneof![
            Just(EpOp::Open),
            (any::<u8>(), 1u8..=250).prop_map(|(s, len)| EpOp::Send(s, len)),
            (any::<u8>(), 1u8..=250).prop_map(|(s, max)| EpOp::Recv(s, max)),
            (any::<u8>(), any::<u8>()).prop_map(|(s, f)| EpOp::HoldRelease(s, f)),
            any::<u8>().prop_map(EpOp::Close),
            any::<u8>().prop_map(EpOp::Abort),
            Just(EpOp::AdvanceNext),
            (1u32..2_000_000).prop_map(EpOp::AdvanceBy),
            Just(EpOp::Pump),
            Just(EpOp::Lose),
        ]
    }

    proptest! {
        /// Differential test: the queue-scheduled timer path produces
        /// exactly the due-sets and min-deadlines of the O(n) scan it
        /// replaced, and the incremental totals equal the every-socket
        /// sampling walk, under arbitrary interleavings of connection
        /// activity. `on_time` additionally asserts the due-set (in
        /// firing order) against the scan oracle internally, so every
        /// `advance` here also diffs the firing path.
        #[test]
        fn deadline_queue_matches_scan_oracle(
            ops in proptest::collection::vec(ep_op_strategy(), 0..80),
        ) {
            let mut n = Net::new();
            // A small hold buffer, so overflow is reachable.
            n.b.listen(80, ListenConfig {
                tcp: TcpConfig { hold_buf: Some(300), ..Default::default() }.into(),
                ..Default::default()
            });
            let mut socks: Vec<SocketId> = Vec::new();
            let mut accepted: Vec<SocketId> = Vec::new();
            let mut next_port = 40_000u16;
            for op in ops {
                match op {
                    EpOp::Open => {
                        socks.push(n.a.connect(n.now, (ip(1), next_port), (ip(2), 80)));
                        next_port += 1;
                    }
                    EpOp::Send(which, len) => {
                        if !socks.is_empty() {
                            let s = socks[which as usize % socks.len()];
                            let data = vec![0x5a; len as usize];
                            let _ = n.a.send(n.now, s, &data);
                        }
                    }
                    EpOp::Recv(which, max) => {
                        if !accepted.is_empty() {
                            let s = accepted[which as usize % accepted.len()];
                            let _ = n.b.recv(s, max as usize);
                        }
                    }
                    EpOp::HoldRelease(which, frac) => {
                        if !accepted.is_empty() {
                            let s = accepted[which as usize % accepted.len()];
                            let upto = n.b.conn(s).map_or(0, |c| c.bytes_received() * frac as u64 / 255);
                            n.b.release_hold_until(s, upto);
                        }
                    }
                    EpOp::Close(which) => {
                        if !socks.is_empty() {
                            let s = socks[which as usize % socks.len()];
                            n.a.close(n.now, s);
                        }
                    }
                    EpOp::Abort(which) => {
                        if !accepted.is_empty() {
                            let s = accepted[which as usize % accepted.len()];
                            n.b.abort(n.now, s);
                        }
                    }
                    EpOp::AdvanceNext => {
                        let da = n.a.next_deadline();
                        let db = n.b.next_deadline();
                        if let Some(d) = [da, db].into_iter().flatten().min() {
                            let to = d.max(n.now);
                            n.advance(to);
                        }
                    }
                    EpOp::AdvanceBy(us) => {
                        let to = n.now + SimDuration::from_micros(us as u64);
                        n.advance(to);
                    }
                    EpOp::Pump => n.pump(),
                    EpOp::Lose => {
                        let _ = n.a.poll_packets(n.now);
                        let _ = n.b.poll_packets(n.now);
                    }
                }
                // The server side tracks what it accepts, like the
                // ST-TCP server does; SYN_RCVD sockets are counted too
                // (the accept event fires at SYN time).
                while let Some((id, ev)) = n.b.poll_event() {
                    if ev == SocketEvent::Accepted {
                        n.b.track(id);
                        accepted.push(id);
                    }
                }
                // Explicit diff (the internal debug assertions cover
                // debug builds; this also pins `--release` test runs).
                prop_assert_eq!(n.a.next_deadline(), n.a.scan_next_deadline());
                prop_assert_eq!(n.b.next_deadline(), n.b.scan_next_deadline());
                prop_assert_eq!(n.b.totals(), n.b.scan_totals());
                prop_assert_eq!(n.b.totals().live, accepted.len() as u64);
                // The socket table is dense: ids come out in strictly
                // increasing order and a socket exists exactly for the
                // ids handed out — closed and aborted ones included.
                prop_assert_eq!(&n.a.sockets(), &socks);
                for e in [&n.a, &n.b] {
                    let ids = e.sockets();
                    prop_assert!(ids.windows(2).all(|w| w[0] < w[1]));
                    let count = ids.len() as u64;
                    prop_assert!((0..count).all(|i| e.conn(SocketId(i)).is_some()));
                    prop_assert!(e.conn(SocketId(count)).is_none());
                    prop_assert!(e.conn(SocketId(u64::MAX)).is_none());
                }
            }
        }
    }

    #[test]
    fn an_endpoint_that_never_armed_a_timer_holds_no_deadline_storage() {
        let mut e = TcpEndpoint::new(EndpointConfig::default());
        e.listen(80, ListenConfig::default());
        assert_eq!(e.next_deadline(), None);
        e.on_time(SimTime::from_secs(5));
        assert!(e.poll_packets(SimTime::from_secs(5)).is_empty());
        assert_eq!(e.deadlines.capacity(), 0);
        assert_eq!(e.socks.0.capacity(), 0);
    }

    /// Why insertion order never mattered: what is due fires in
    /// `SocketId` order — the scan's order — whichever socket registered
    /// first and whichever is due sooner. Socket 0's SYN timer fires once
    /// and backs off to the instant socket 1's first SYN timer is due (or
    /// `gap` after it); either can be queued first.
    #[test]
    fn sockets_due_together_fire_in_socket_id_order() {
        let rto = RtoConfig::default().initial_rto;
        let at = |n: u64| SimTime::from_micros(n * rto.as_micros());
        for (low_registers_first, gap) in [(true, 0), (false, 0), (true, 3), (false, 3)] {
            let gap = SimDuration::from_millis(gap);
            let mut e = TcpEndpoint::new(EndpointConfig::default());
            let s0 = e.connect(at(0), (ip(1), 40_000), (ip(9), 80));
            let fire_s0 = |e: &mut TcpEndpoint| {
                e.on_time(at(1));
                assert_eq!(e.conn(s0).unwrap().next_deadline(), Some(at(3)));
                let _ = e.next_deadline(); // queues socket 0 for at(3)
            };
            if low_registers_first {
                fire_s0(&mut e);
            }
            let s1 = e.connect(at(2) - gap, (ip(1), 40_001), (ip(9), 80));
            assert_eq!(e.conn(s1).unwrap().next_deadline(), Some(at(3) - gap));
            let _ = e.next_deadline(); // queues socket 1
            if !low_registers_first {
                fire_s0(&mut e);
            }
            let _ = e.drain_touched();
            e.on_time(at(3));
            // `on_time` touches each socket as it fires it.
            assert_eq!(e.drain_touched(), vec![s0, s1]);
        }
    }

    /// `bulk_download`'s shape: every ack pushes the one connection's
    /// retransmit deadline later. The stranded entry is earlier than the
    /// live one, so it is at the top of the heap and the next query
    /// discards it: the queue stays a handful of entries deep however
    /// long the transfer runs.
    #[test]
    fn a_deadline_pushed_later_ten_thousand_times_leaves_no_backlog() {
        let (mut n, ca, sb) = connected_pair();
        let mut acks = Vec::new();
        let mut last = None;
        let mut moves = 0;
        for _ in 0..10_000 {
            n.now += SimDuration::from_micros(100);
            let _ = n.a.send(n.now, ca, b"x");
            for p in std::mem::take(&mut acks) {
                n.a.on_packet(n.now, &p);
            }
            for p in n.a.poll_packets(n.now) {
                n.b.on_packet(n.now, &p);
            }
            let _ = n.b.recv(sb, 100);
            acks = n.b.poll_packets(n.now);
            let d = n.a.next_deadline();
            assert!(d.is_some(), "a byte is always in flight");
            moves += usize::from(d != last);
            last = d;
            assert!(n.a.deadlines.len() <= 2, "{} queued", n.a.deadlines.len());
        }
        assert!(moves >= 9_000, "the deadline moved only {moves} times");
    }

    /// No horizon: a deadline more than 2^36 µs past anything queued
    /// before it (the deleted wheel's overflow path) is an ordinary entry.
    #[test]
    fn a_deadline_nineteen_hours_out_is_reported_and_fires() {
        let mut e = TcpEndpoint::new(EndpointConfig::default());
        let near = e.connect(SimTime::ZERO, (ip(1), 40_000), (ip(9), 80));
        let first = e.next_deadline().expect("SYN timer");
        let far_now = SimTime::from_micros((1 << 36) + 5);
        let far = e.connect(far_now, (ip(1), 40_001), (ip(9), 80));
        let far_due = e.conn(far).unwrap().next_deadline().expect("SYN timer");
        assert!(far_due.as_micros() - first.as_micros() > 1 << 36);
        assert_eq!(e.next_deadline(), Some(first));
        e.abort(SimTime::ZERO, near);
        assert_eq!(e.next_deadline(), Some(far_due));
        assert_eq!(e.next_deadline(), e.scan_next_deadline());
        assert_eq!(e.scan_due(far_due), vec![far]);
        let _ = e.poll_packets(far_now);
        e.on_time(far_due);
        let syns = e.poll_packets(far_due);
        assert_eq!(syns.len(), 1, "the SYN is retransmitted");
        assert!(e.next_deadline().is_some_and(|d| d > far_due));
    }

    #[test]
    fn totals_follow_track_untrack_and_activity() {
        let (mut n, ca, sb) = connected_pair();
        // Nothing tracked: clients and unaccounted sockets cost nothing.
        assert_eq!(n.b.totals(), EndpointTotals::default());
        assert_eq!(n.a.totals_stale(), 0);
        n.b.track(sb);
        assert_eq!(n.b.totals_stale(), 1);
        let idle = n.b.totals();
        assert_eq!(idle.live, 1);
        assert_eq!(idle.cwnd_sum, n.b.conn(sb).unwrap().cwnd());
        assert_eq!(idle.recv_occ, 0);
        // A quiet socket is not re-read…
        assert_eq!(n.b.totals_stale(), 0);
        // …and one that moved is, once.
        let _ = n.a.send(n.now, ca, b"hello");
        n.pump();
        assert_eq!(n.b.totals_stale(), 1);
        assert_eq!(n.b.totals().recv_occ, 5);
        assert_eq!(n.b.recv(sb, 100).len(), 5);
        assert_eq!(n.b.totals().recv_occ, 0);
        n.b.untrack(sb);
        assert_eq!(n.b.totals(), EndpointTotals::default());
    }

    #[test]
    fn rst_for_ackless_segment_acks_it() {
        let seg = TcpSegment {
            src_port: 1,
            dst_port: 2,
            seq: SeqNum(100),
            ack: SeqNum(0),
            flags: TcpFlags::SYN,
            window: 0,
            payload: Bytes::new(),
        };
        let rst = make_rst_for(&seg);
        assert!(rst.flags.rst && rst.flags.ack);
        assert_eq!(rst.ack, SeqNum(101));
        let seg2 = TcpSegment {
            flags: TcpFlags::ACK,
            ack: SeqNum(555),
            ..seg
        };
        let rst2 = make_rst_for(&seg2);
        assert!(rst2.flags.rst && !rst2.flags.ack);
        assert_eq!(rst2.seq, SeqNum(555));
    }
}
