//! The ST-TCP server node: ties the TCP stack, the replica application,
//! the heartbeat engine, every failure detector, and recovery together.
//!
//! One [`StTcpServer`] instance runs on each server host — the pair's two,
//! or every pool member; the [`crate::config::Role`] decides its behaviour:
//!
//! * The **primary** serves clients normally, holds received client bytes
//!   in the extended receive buffer until the backup confirms them, sends
//!   heartbeats on both links, arbitrates FINs, answers missed-byte fetch
//!   requests, and — if the backup fails — STONITHs it and continues
//!   non-fault-tolerant.
//! * The **backup** accepts the same (tapped) client segments with the
//!   same deterministic ISN, runs the replica application, suppresses all
//!   egress, tracks the primary through heartbeats, fetches bytes it
//!   missed, and — if the primary fails — powers it down and takes over
//!   the client connections in place.

use bytes::Bytes;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use simnet::flight::{FlightKind, SpanId};
use simnet::frame::EthernetFrame;
use simnet::ip::{IpProto, Ipv4Packet};
use simnet::iplayer::IpInterface;
use simnet::node::{NicId, Node, NodeCtx, NodeId, SerialPortId, TimerToken};
use simnet::profile::{Component, Profiler};
use simnet::time::SimTime;

use simtcp::conn::{ConnStats, TcpConfig, TcpConn, TcpState};
#[cfg(debug_assertions)]
use simtcp::endpoint::EndpointTotals;
use simtcp::endpoint::{
    EgressMode, EndpointConfig, FinGate, IsnPolicy, ListenConfig, RstPolicy, TcpEndpoint,
};
use simtcp::segment::peek_segment;
use simtcp::socket::{SocketEvent, SocketId};

use crate::app::{AppAction, AppFactory, Application};
use crate::applag::{AppLag, AppLagDetector, Engagement};
use crate::config::{Role, StTcpConfig, APP_TICK, GAP_GIVEUP, STONITH_DELAY};
use crate::conntable::{ConnCtl, ConnTable, Set, SlotId};
use crate::events::{FailureReason, HbLink, StTcpEvent};
use crate::finarb::{ArbAction, FinArbiter};
pub use crate::hbsend::ByzantineHbMode;
use crate::hbsend::{Sender, View};
use crate::heartbeat::{conn_key, decode_any, AnyHb, ConnHb, HbFrame, HbPayload};
use crate::join::Join;
use crate::linkmon::next_silence;
use crate::metrics::{HbBandwidth, ServerMetrics};
use crate::netdetect::{NetFailureDetector, NetObservation};
use crate::pool::{
    followed, live_non_fenced, member_table, seq_newer, MemberState, Members, PeerConn, PoolPeer,
    PoolState, RxBatch,
};
use crate::recover::{ConnSnapshotMsg, CtrlMsg};

/// The IP protocol number carrying the server-to-server recovery channel.
pub const CTRL_PROTO: IpProto = IpProto::Other(254);

/// The wire role byte both heartbeat endpoints derive span ids from.
fn role_byte(role: Role) -> u8 {
    match role {
        Role::Primary => 0,
        Role::Backup => 1,
    }
}

/// The stable numeric code a verdict's [`FailureReason`] gets in flight
/// events (the index into [`FailureReason::ALL`]).
pub fn reason_code(reason: FailureReason) -> u32 {
    FailureReason::ALL
        .iter()
        .position(|&r| r == reason)
        .unwrap() as u32
}

/// Records fence message `msg` under its round's span, which every member
/// derives from (epoch, target): request, votes and commit read as one.
fn fence_flight(ctx: &mut NodeCtx<'_>, parent: SpanId, msg: &CtrlMsg) {
    let Some((epoch, target_rank)) = msg.fence_round() else {
        return;
    };
    let epoch = u64::from(epoch);
    let kind = match *msg {
        CtrlMsg::FenceAck {
            voter_rank,
            granted,
            ..
        } => FlightKind::FenceAck {
            epoch,
            target_rank,
            voter_rank,
            granted,
        },
        CtrlMsg::FenceCommit { .. } => FlightKind::FenceCommit { epoch, target_rank },
        _ => FlightKind::FenceRequest { epoch, target_rank },
    };
    ctx.flight(SpanId::fence(epoch, target_rank), parent, kind);
}

const TOKEN_HB: TimerToken = TimerToken(1);
const TOKEN_CHECK: TimerToken = TimerToken(2);
const TOKEN_TCP: TimerToken = TimerToken(3);
const TOKEN_APP_TICK: TimerToken = TimerToken(4);
const TOKEN_PING: TimerToken = TimerToken(5);
const TOKEN_TAKEOVER: TimerToken = TimerToken(6);
const TOKEN_LIVENESS: TimerToken = TimerToken(7);

/// Static wiring for one ST-TCP server instance.
#[derive(Debug, Clone)]
pub struct ServerSetup {
    /// Initial role.
    pub role: Role,
    /// ST-TCP tunables.
    pub sttcp: StTcpConfig,
    /// Base TCP tuning (the primary's accepted connections additionally
    /// get the extended receive buffer).
    pub tcp: TcpConfig,
    /// The shared service address clients connect to (an alias on both
    /// servers).
    pub service_ip: Ipv4Addr,
    /// The service port.
    pub service_port: u16,
    /// This server's own address (heartbeat + recovery channel).
    pub private_ip: Ipv4Addr,
    /// The gateway pinged during IP-heartbeat outages (the client host in
    /// the paper's setup).
    pub gateway_ip: Ipv4Addr,
    /// Shared ISN salt — must match on both servers.
    pub isn_salt: u64,
    /// Seed for this server's private randomness.
    pub seed: u64,
    /// This server's static rank (0 = initially active). The pair's
    /// heartbeats carry it too ([`StTcpServer::pool_rank`]).
    pub rank: u8,
    /// The other servers: the pair's one peer, or every other pool
    /// member. Heartbeats and control messages count only from these.
    pub peers: Vec<PoolPeer>,
    /// Runs the N-replica pool protocol (quorum fencing, rank-ordered
    /// takeover) instead of the pair's. Stated, not inferred: a
    /// two-member pool and the pair have the same member count.
    pub pool: bool,
}

/// How an application crash is injected (Demo 4's two scenarios, plus the
/// RST variant of OS cleanup).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppCrashMode {
    /// The application stops reading and writing but the socket stays
    /// open; no FIN is generated (§4.2.1).
    SilentNoCleanup,
    /// The OS cleans up and closes the socket: a FIN is generated
    /// (§4.2.2).
    CleanupFin,
    /// The OS cleanup aborts the socket: an RST is generated.
    CleanupRst,
}

/// One of a member's links, as seen from this host: its address over
/// the switch, or a local serial port cabled to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Via {
    Ip(Ipv4Addr),
    Serial(SerialPortId),
}

/// The ST-TCP server node. See the [module docs](self).
///
/// Its own fields are what survives a power cycle — the host's wiring
/// and the observer's record of the run; everything a reboot erases
/// lives in [`Ram`].
pub struct StTcpServer {
    setup: ServerSetup,
    /// Carries the ARP entries topology builders patched in.
    iface: IpInterface,
    /// The serial cables, in wiring order: each local port and the
    /// member at its far end (see [`StTcpServer::links_to`]).
    serial: Vec<(SerialPortId, Ipv4Addr)>,
    app_factory: Box<dyn AppFactory>,
    events: Vec<StTcpEvent>,
    metrics: ServerMetrics,
    /// Span of the last heartbeat this server received — the evidence a
    /// later failure verdict is causally parented to. Kept across a
    /// reboot on purpose: flight dumps chain a rebooted node's first
    /// events to what it last heard.
    last_hb_rx_span: SpanId,
    /// Span of this server's failure verdict; the STONITH and takeover
    /// flight events join it so the whole failover reads as one chain.
    /// Kept across a reboot, likewise.
    verdict_span: SpanId,
    ram: Ram,
}

/// The replica application's liveness, one server fact: in this
/// simulator it is alive or crashed for every connection at once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AppLife {
    Alive,
    /// Crashed at this instant, not yet reported.
    Crashed(SimTime),
    /// Reported by the watchdog: every open record that is not
    /// close-issued carries `app_suspected`.
    Suspected,
}

/// Everything a power cycle erases: the protocol state of one boot
/// incarnation. [`Ram::boot`] is the only place it is made — `new` and
/// the warm `on_power_on` go through it — so a field added here is
/// rebuilt at every boot. (A wiring call before the world starts only
/// widens the per-link state in place.)
struct Ram {
    /// The heartbeat sender: epoch, seqno, touched feed and what every
    /// member acknowledged.
    hb: Sender,

    tcp: TcpEndpoint,
    app: AppLife,

    role: Role,
    ft_mode: bool,

    /// Every connection this server or a member knows: local control
    /// state, heartbeat cache and active-set membership, one slot per
    /// connection key (see [`crate::conntable`]); each member mirrors
    /// its records by the same slots.
    ///
    /// What feeds each active set: `Lag` — [`StTcpServer::note_lag`]
    /// wherever a member record is applied or a key is (re)bound
    /// (`bytes_received` only grows, so nothing else can open a gap);
    /// `Unacked` — a cached record changing, and every cached record
    /// whenever the peer's acks are voided; `OutBlocked`, `Tick` —
    /// re-evaluated after every write attempt / application callback;
    /// `Check` — any local or peer activity, kept while a FIN-arbitration
    /// deadline or lag tracker must keep aging.
    table: ConnTable,

    /// The other servers — the pair's one peer, or the pool — each one
    /// record of everything this server knows about it.
    members: Members,

    /// Table 1 row 2; each connection keeps only its history.
    app_detect: AppLagDetector,
    /// Table 1 row 4, its gateway-ping campaign included.
    net_detect: NetFailureDetector,
    /// When the ping timer fires (see [`NetFailureDetector::probe_due`]).
    ping_timer: Option<SimTime>,

    /// The pool's round state (`None` in pair mode).
    pool: Option<PoolState>,
    /// From the takeover on: the sockets that may hold a receive hole
    /// (§4.3), each with the tick its hole was first seen. The takeover
    /// seeds every socket; then the endpoint's touched feed (out-of-order
    /// bytes only appear on packet receipt).
    holes: Option<BTreeMap<SocketId, Option<SimTime>>>,
    /// Re-integration: this rebooted server joining, or the active serving.
    join: Join,
    tcp_timer: Option<SimTime>,
    /// When the liveness timer fires (see [`StTcpServer::check_liveness`]).
    liveness_timer: Option<SimTime>,
    /// The packet list `flush` polls into (the poll is profiled apart
    /// from the sends), kept for its capacity.
    pkts: Vec<Ipv4Packet>,
    powered_off: bool,
}

impl Ram {
    /// The state of a server that powers up at `now` in `role` with the
    /// `serial` cables wired: every member presumed
    /// alive (grace period from fresh monitors anchored at `now`), no
    /// connections, a fresh TCP stack listening on the service port —
    /// the primary's accepted connections carry the extended receive
    /// buffer, the backup accepts in suppressed mode and never answers
    /// stray segments.
    fn boot(
        setup: &ServerSetup,
        role: Role,
        now: SimTime,
        serial: &[(SerialPortId, Ipv4Addr)],
    ) -> Ram {
        let mut tcp = std::rc::Rc::new(setup.tcp.clone());
        let (rst_policy, egress) = match role {
            Role::Primary => {
                std::rc::Rc::make_mut(&mut tcp).hold_buf = Some(setup.sttcp.hold_buf);
                (RstPolicy::Send, EgressMode::Normal)
            }
            Role::Backup => (RstPolicy::Silent, EgressMode::Suppress),
        };
        let mut endpoint = TcpEndpoint::new(EndpointConfig {
            tcp: setup.tcp.clone().into(),
            isn: IsnPolicy::Deterministic {
                salt: setup.isn_salt,
            },
            rst_policy,
            seed: setup.seed,
        });
        endpoint.listen(setup.service_port, ListenConfig { tcp, egress });
        let cables = |ip| serial.iter().filter(|&&(_, to)| to == ip).count();
        let members = member_table(&setup.peers, &setup.sttcp, now, cables);
        let mut ram = Ram {
            hb: Sender::new(&setup.sttcp, now, &members),
            tcp: endpoint,
            app: AppLife::Alive,
            role,
            ft_mode: true,
            table: ConnTable::default(),
            members,
            app_detect: AppLagDetector::new(&setup.sttcp),
            net_detect: NetFailureDetector::new(&setup.sttcp, (setup.seed & 0xffff) as u16),
            ping_timer: None,
            // Boots with the static rank; a rejoin's `JoinDone` hands
            // over the fresh one.
            pool: setup.pool.then(|| PoolState::new(setup.rank, &setup.peers)),
            holes: None,
            join: Join::default(),
            tcp_timer: None,
            liveness_timer: None,
            pkts: Vec::new(),
            powered_off: false,
        };
        ram.engage_app_lag(now); // row 2 reads from boot on: no edge to walk yet
        ram
    }

    /// The member Table 1's detectors judge: the pair's peer, nobody in a
    /// pool (ROADMAP item 7(b)). The one place rows 2–5 tell pair from pool.
    fn judged(&self) -> Option<(Ipv4Addr, &MemberState)> {
        followed(None, &self.members).filter(|_| self.pool.is_none())
    }

    /// Hands row 2 the judged member's reading at `now` — none reads as
    /// no IP heartbeat, i.e. off — and returns the detector's edge.
    fn engage_app_lag(&mut self, now: SimTime) -> Option<bool> {
        let judged = self.judged().map(|(_, m)| (m.hb.ip_up, m.hb.last_rx()));
        let (ip_up, last_rx) = judged.unwrap_or((false, None));
        self.app_detect.engage(now, ip_up, last_rx)
    }
}

impl std::fmt::Debug for StTcpServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StTcpServer")
            .field("role", &self.ram.role)
            .field("ft_mode", &self.ram.ft_mode)
            .field("conns", &self.ram.table.socks().count())
            .finish_non_exhaustive()
    }
}

impl StTcpServer {
    /// Creates a server. `iface` must already carry the service-IP alias
    /// and the static ARP entries for the client, every peer, and the
    /// gateway; serial cables are wired afterwards
    /// ([`StTcpServer::add_serial_link`]).
    pub fn new(
        setup: ServerSetup,
        iface: IpInterface,
        app_factory: Box<dyn AppFactory>,
    ) -> StTcpServer {
        StTcpServer {
            ram: Ram::boot(&setup, setup.role, SimTime::ZERO, &[]),
            setup,
            iface,
            serial: Vec::new(),
            app_factory,
            events: Vec::new(),
            metrics: ServerMetrics::new(),
            last_hb_rx_span: SpanId::NONE,
            verdict_span: SpanId::NONE,
        }
    }

    /// Rebuilds everything a power cycle erases, for a boot at `now` in
    /// `role` on the present wiring.
    fn boot(&mut self, role: Role, now: SimTime) {
        self.ram = Ram::boot(&self.setup, role, now, &self.serial);
    }

    /// Opens the periodic work of a boot: the first heartbeat round and
    /// the heartbeat, check and application-tick timers.
    fn start_rounds(&mut self, ctx: &mut NodeCtx<'_>) {
        self.send_heartbeats(ctx);
        ctx.set_timer(self.setup.sttcp.hb_period, TOKEN_HB);
        ctx.set_timer(self.setup.sttcp.check_period, TOKEN_CHECK);
        ctx.set_timer(APP_TICK, TOKEN_APP_TICK);
    }

    /// Wires local serial port `port` to member `to`, after the topology
    /// builder connected the null-modem pair and before the world
    /// starts. Every cable carries heartbeats, and a pool's fence votes
    /// too; delta heartbeats shard connection `key` onto the
    /// `key % n`-th of the `n` cables to a member, in wiring order. This
    /// widens that member's delta-stream links in place — no reboot.
    pub fn add_serial_link(&mut self, port: SerialPortId, to: Ipv4Addr) {
        self.serial.push((port, to));
        let cables = self.serial.iter().filter(|&&(_, ip)| ip == to).count();
        if let Some(m) = self.ram.members.get_mut(&to) {
            m.wire(cables);
        }
    }

    /// Where frames to member `ip` leave this host, link by link: its
    /// address (link 0), then each cable wired to it (link `1 + k`).
    fn links_to(&self, ip: Ipv4Addr) -> impl Iterator<Item = Via> + '_ {
        let cables = self.serial.iter().filter(move |&&(_, to)| to == ip);
        std::iter::once(Via::Ip(ip)).chain(cables.map(|&(port, _)| Via::Serial(port)))
    }

    /// The source rule, stated once for heartbeats and control messages
    /// in both topologies: a frame arriving `via` a link counts only as
    /// a member's — from its address on IP, from its cable on serial —
    /// and is that member's link number ([`StTcpServer::links_to`]).
    /// Every client shares the switch with the servers' private
    /// addresses, so a CRC-valid frame proves nothing about its sender.
    fn member_link(&self, via: Via) -> Option<(Ipv4Addr, usize)> {
        let src = match via {
            Via::Ip(src) => src,
            Via::Serial(port) => self.serial.iter().find(|&&(p, _)| p == port)?.1,
        };
        let link = self.links_to(src).position(|v| v == via)?;
        self.ram.members.contains_key(&src).then_some((src, link))
    }

    /// Adds a static ARP entry (topology builders registering additional
    /// clients after construction).
    pub fn add_arp(&mut self, addr: Ipv4Addr, mac: simnet::mac::MacAddr) {
        self.iface.add_arp(addr, mac);
    }

    /// True while the replica application runs ([`AppLife`]).
    fn app_up(&self) -> bool {
        self.ram.app == AppLife::Alive
    }

    /// Binds `key` to `sock` with fresh control state, keeping the
    /// endpoint's tracked set (what [`TcpEndpoint::totals`] sums) equal
    /// to the sockets the key index resolves to. A displaced socket
    /// drops out of heartbeats, recovery and totals; when it belongs to
    /// a *different* four-tuple that is a 32-bit `conn_key` collision,
    /// which is counted rather than silently absorbed.
    fn bind_key(&mut self, key: u32, sock: SocketId, app: Box<dyn Application>) -> SlotId {
        let mut ctl = ConnCtl::new(key, app, &self.setup.sttcp, self.ram.role);
        // An active without a backup has nobody to arbitrate a FIN with;
        // a completed join hands out fresh arbiters.
        if self.ram.role == Role::Primary && !self.ram.ft_mode {
            let _ = ctl.finarb.on_peer_failed();
        }
        let (s, displaced) = self.ram.table.bind(key, sock, ctl);
        if let Some(old) = displaced {
            self.ram.tcp.untrack(old);
            let tuple_of = |s| self.ram.tcp.conn(s).map(|c| c.tuple());
            if tuple_of(old) != tuple_of(sock) {
                self.metrics.on_conn_key_collision();
            }
        }
        self.ram.tcp.track(sock);
        self.note_lag(s);
        s
    }

    /// Row-5 feed: the slot joins the lag set if the followed member has
    /// received bytes this backup has not, or a fetch cycle is still open
    /// on it. Called wherever that can become true: a member record
    /// applied, a key (re)bound, a new member followed. Only a backup (or
    /// joiner) ever runs recovery.
    fn note_lag(&mut self, s: SlotId) {
        if self.ram.role == Role::Backup && self.lag_pending(s) {
            self.ram.table.insert(Set::Lag, s);
        }
    }

    /// The replaced every-connection recovery walk, kept as the
    /// differential oracle for the lag set: keys it would act on that
    /// the set is missing. Always empty.
    fn scan_lag_gaps(&self) -> impl Iterator<Item = u32> + '_ {
        self.ram
            .table
            .bound()
            .filter(|&(_, s, _)| !self.ram.table.contains(Set::Lag, s) && self.lag_pending(s))
            .map(|(key, _, _)| key)
    }

    /// The full per-key condition `run_recovery` acts on.
    fn lag_pending(&self, s: SlotId) -> bool {
        let slot = &self.ram.table[s];
        let (Some(conn), Some(peer)) = (
            slot.sock().and_then(|sock| self.ram.tcp.conn(sock)),
            self.followed_pos(s),
        ) else {
            return false;
        };
        peer.last_byte_received > conn.bytes_received()
            || slot.ctl.as_ref().is_some_and(|c| c.recovering)
    }

    /// Drains the endpoint's touched feed into its two consumers: the
    /// next heartbeat round (records that may have changed) and,
    /// after a takeover, the receive-hole check. Both the heartbeat and
    /// the check timer call this, so neither starves the other.
    fn absorb_touched(&mut self) {
        let touched = self.ram.tcp.drain_touched();
        self.metrics.on_timer_visits(touched.len());
        if let Some(holes) = &mut self.ram.holes {
            for &sock in &touched {
                if self.ram.table.by_sock(sock).is_some() {
                    holes.entry(sock).or_default();
                }
            }
        }
        self.ram.hb.touch(touched);
    }

    /// A snapshot of every socket with control state, in `SocketId`
    /// order, for walks that mutate as they go.
    fn all_socks(&self) -> Vec<(SocketId, SlotId)> {
        self.ram.table.socks().collect()
    }

    /// The socket `key` resolves to.
    fn sock_of(&self, key: u32) -> Option<SocketId> {
        self.ram.table[self.ram.table.by_key(key)?].sock()
    }

    /// Re-evaluates whether the slot's application needs periodic
    /// `on_tick` callbacks. Called after every callback into the app,
    /// since tick appetite changes with application state.
    fn refresh_tick(&mut self, s: SlotId) {
        let ctl = self.ram.table[s].ctl.as_ref();
        let wants = self.app_up() && ctl.is_some_and(|c| !c.closed && c.app.wants_tick());
        self.ram.table.set(Set::Tick, s, wants);
    }

    /// Retries every connection whose application output is blocked on
    /// a full send buffer, in `SocketId` order.
    fn flush_blocked(&mut self, now: SimTime) {
        for s in self.ram.table.members(Set::OutBlocked) {
            if let Some(sock) = self.ram.table[s].sock() {
                self.flush_pending(now, sock);
            }
        }
    }

    // ----- public introspection -------------------------------------------

    /// The server's current role (a backup becomes `Primary` at takeover).
    pub fn role(&self) -> Role {
        self.ram.role
    }

    /// True while the server still believes its peer is alive and is
    /// operating fault-tolerant.
    pub fn ft_mode(&self) -> bool {
        self.ram.ft_mode
    }

    /// The protocol event log.
    pub fn events(&self) -> &[StTcpEvent] {
        &self.events
    }

    /// Runtime metrics (heartbeat inter-arrivals, hold high-water,
    /// fetch/replay bytes, verdict counters, TCP samples).
    pub fn metrics(&self) -> &ServerMetrics {
        &self.metrics
    }

    /// Aggregate TCP transfer counters across this server's connections
    /// (retransmits, RTO firings, segment counts).
    pub fn tcp_stats(&self) -> ConnStats {
        let mut sum = ConnStats::default();
        for (_, _, sock) in self.ram.table.bound() {
            if let Some(c) = self.ram.tcp.conn(sock) {
                let s = c.stats();
                sum.segs_out += s.segs_out;
                sum.segs_in += s.segs_in;
                sum.bytes_sent += s.bytes_sent;
                sum.bytes_retransmitted += s.bytes_retransmitted;
                sum.rto_fires += s.rto_fires;
                sum.fast_retransmits += s.fast_retransmits;
            }
        }
        sum
    }

    /// When this server took over, if it did.
    pub fn took_over_at(&self) -> Option<SimTime> {
        self.events.iter().find_map(|e| match e {
            StTcpEvent::TookOver { at } => Some(*at),
            _ => None,
        })
    }

    /// When this server completed a re-integration (as joiner or as the
    /// active side), if it did.
    pub fn reintegrated_at(&self) -> Option<SimTime> {
        self.events.iter().find_map(|e| match e {
            StTcpEvent::ReintegrationCompleted { at } => Some(*at),
            _ => None,
        })
    }

    /// The underlying TCP endpoint (tests and harnesses).
    pub fn endpoint(&self) -> &TcpEndpoint {
        &self.ram.tcp
    }

    /// Application state digest for a connection key (replica-lockstep
    /// assertions).
    pub fn app_digest(&self, key: u32) -> Option<u64> {
        let ctl = self.ram.table[self.ram.table.by_key(key)?].ctl.as_ref()?;
        Some(ctl.app.state_digest())
    }

    /// Connection keys currently known.
    pub fn conn_keys(&self) -> Vec<u32> {
        self.ram.table.bound().map(|(key, _, _)| key).collect()
    }

    /// Differential check of every active set against the
    /// every-connection walk that defines it (the walks the sets
    /// replaced, which also back the debug assertions): `Err` names a
    /// connection a walk would act on that its set has lost. For tests.
    pub fn check_active_sets(&self) -> Result<(), String> {
        if self.ram.role == Role::Backup {
            if let Some(key) = self.scan_lag_gaps().next() {
                return Err(format!("conn {key:08x} lags outside the lag set"));
            }
        }
        let (table, members) = (&self.ram.table, &self.ram.members);
        if let Some((_, key)) = (self.ram.hb.scan_unacked(table, members))
            .find(|&(s, _)| !table.contains(Set::Unacked, s))
        {
            return Err(format!("conn {key:08x} unacked outside the unacked set"));
        }
        for (sock, s) in self.ram.table.socks() {
            let Some(ctl) = &self.ram.table[s].ctl else {
                return Err(format!("{sock:?} is indexed without control state"));
            };
            let open = !ctl.closed;
            let armed = ctl.finarb.needs_check() || ctl.applag.needs_check();
            let wanted = [
                (Set::Tick, open && self.app_up() && ctl.app.wants_tick()),
                (Set::OutBlocked, !ctl.pending_out.is_empty()),
                (Set::Check, open && armed),
            ];
            let lost = |&(set, wanted): &(Set, bool)| wanted && !self.ram.table.contains(set, s);
            if let Some((set, _)) = wanted.iter().find(|w| lost(w)) {
                return Err(format!("{sock:?} belongs in {set:?} but is not a member"));
            }
        }
        Ok(())
    }

    /// True when this server could currently emit client-visible traffic:
    /// powered on and acting as primary (the original primary, or a
    /// backup after takeover). At most one server may ever be active at
    /// once — the chaos invariant checker enforces this.
    pub fn is_active(&self) -> bool {
        !self.ram.powered_off && self.ram.role == Role::Primary
    }

    /// This server's current pool rank (reassigned on rejoin), or its
    /// static configured rank in pair mode.
    pub fn pool_rank(&self) -> u8 {
        self.ram
            .pool
            .as_ref()
            .map_or(self.setup.rank, PoolState::my_rank)
    }

    /// Most recent pool-strength sample: this server plus every live
    /// non-fenced member. `None` in pair mode.
    pub fn pool_strength(&self) -> Option<u64> {
        self.ram.pool.as_ref().map(|_| self.metrics.pool_strength())
    }

    // ----- failure injection ------------------------------------------------

    /// Crashes the replica application on this server (Demo 4). Applies to
    /// every current connection and to all future ones.
    ///
    /// State changes are immediate; any resulting FIN/RST leaves with the
    /// next timer-driven flush (bounded by [`APP_TICK`]).
    pub fn inject_app_crash(&mut self, now: SimTime, mode: AppCrashMode) {
        if self.app_up() {
            self.ram.app = AppLife::Crashed(now);
        }
        if mode == AppCrashMode::SilentNoCleanup {
            return;
        }
        for (sock, s) in self.all_socks() {
            let Some(ctl) = self.ram.table[s].ctl.as_mut().filter(|c| !c.closed) else {
                continue;
            };
            ctl.close_issued = true;
            let (key, action) = (ctl.key, ctl.finarb.on_local_close(now));
            self.apply_gate_action(now, sock, key, action);
            // A held FIN's release deadline is polled by the check tick.
            self.ram.table.insert(Set::Check, s);
            match mode {
                AppCrashMode::CleanupRst => self.ram.tcp.abort(now, sock),
                _ => self.ram.tcp.close(now, sock),
            }
        }
    }

    /// Arms byzantine heartbeat corruption on this server: every future
    /// heartbeat it sends lies per `mode` while remaining CRC-valid.
    /// Receivers must quarantine the stream, not mis-verdict.
    pub fn inject_byzantine_hb(&mut self, mode: ByzantineHbMode) {
        self.ram.hb.lie(mode);
    }

    // ----- internal: TCP event handling ------------------------------------

    /// Drains endpoint events, returning whether anything happened.
    /// Runs inside `flush`'s TCP scope; every callback into the
    /// application opens an application sub-scope, so replica work is
    /// charged to `app`, not to whichever layer delivered the event.
    fn drain_tcp_events(&mut self, now: SimTime, prof: &mut Profiler) -> bool {
        let mut any = false;
        while let Some((sock, ev)) = self.ram.tcp.poll_event() {
            any = true;
            match ev {
                SocketEvent::Accepted => self.on_accepted(now, prof, sock),
                SocketEvent::Connected => {}
                SocketEvent::DataReadable => self.on_readable(now, prof, sock),
                SocketEvent::PeerFin => self.on_client_fin(now, prof, sock),
                SocketEvent::Reset | SocketEvent::Closed => {
                    if let Some(ctl) = self.ram.table.ctl_mut(sock) {
                        ctl.closed = true;
                    }
                }
            }
        }
        any
    }

    fn on_accepted(&mut self, now: SimTime, prof: &mut Profiler, sock: SocketId) {
        let Some(conn) = self.ram.tcp.conn(sock) else {
            return;
        };
        let (key, holds) = (conn_key(conn.tuple()), conn.holds());
        prof.enter(Component::App);
        let mut app = self.app_factory.create();
        let open_actions = match self.app_up() {
            true => app.on_open(),
            false => Vec::new(),
        };
        prof.exit();
        self.bind_key(key, sock, app);
        self.events
            .push(StTcpEvent::ConnEstablished { conn: key, at: now });
        // The listener gives a connection the extended receive buffer
        // while this server has a backup to feed
        // ([`StTcpServer::hold_client_bytes`]); the log says what this
        // one does.
        if holds {
            self.events
                .push(StTcpEvent::HoldArmed { conn: key, at: now });
        }
        self.apply_app_actions(now, sock, open_actions);
    }

    fn on_readable(&mut self, now: SimTime, prof: &mut Profiler, sock: SocketId) {
        // A crashed application never reads: bytes pile up in the TCP
        // receive buffer exactly as in §4.2.1.
        let alive = self.app_up();
        while let Some(ctl) = self.ram.table.ctl_mut(sock).filter(|_| alive) {
            let data = self.ram.tcp.recv(sock, 64 * 1024);
            if data.is_empty() {
                return;
            }
            if !ctl.saw_data {
                ctl.saw_data = true;
                self.events.push(StTcpEvent::FirstDataDelivered {
                    conn: ctl.key,
                    at: now,
                });
            }
            prof.enter(Component::App);
            let actions = ctl.app.on_data(&data);
            prof.exit();
            self.apply_app_actions(now, sock, actions);
        }
    }

    fn on_client_fin(&mut self, now: SimTime, prof: &mut Profiler, sock: SocketId) {
        let Some(s) = self.ram.table.by_sock(sock) else {
            return;
        };
        self.ram.table.insert(Set::Check, s);
        let alive = self.app_up();
        let Some(ctl) = self.ram.table[s].ctl.as_mut() else {
            return;
        };
        let key = ctl.key;
        let arb = ctl.finarb.note_client_fin(now);
        let actions = alive.then(|| {
            prof.enter(Component::App);
            let actions = ctl.app.on_peer_close();
            prof.exit();
            actions
        });
        if let Some(action) = arb {
            self.apply_gate_action(now, sock, key, action);
        }
        if let Some(actions) = actions {
            self.apply_app_actions(now, sock, actions);
        }
    }

    fn apply_app_actions(&mut self, now: SimTime, sock: SocketId, actions: Vec<AppAction>) {
        let Some(s) = self.ram.table.by_sock(sock) else {
            return;
        };
        for action in actions {
            let Some(ctl) = self.ram.table[s].ctl.as_mut() else {
                return;
            };
            if let AppAction::Write(bytes) = action {
                ctl.pending_out.push_back(bytes);
                continue;
            }
            // Close or abort: arbitrate the first one, then let it go.
            if !ctl.close_issued {
                ctl.close_issued = true;
                let (key, arb) = (ctl.key, ctl.finarb.on_local_close(now));
                self.apply_gate_action(now, sock, key, arb);
            }
            if action == AppAction::Close {
                self.flush_pending(now, sock);
                self.ram.tcp.close(now, sock);
            } else {
                self.ram.tcp.abort(now, sock);
            }
        }
        self.flush_pending(now, sock);
        // Any callback into the application may change its detector-visible
        // state or its appetite for ticks.
        self.ram.table.insert(Set::Check, s);
        self.refresh_tick(s);
    }

    fn flush_pending(&mut self, now: SimTime, sock: SocketId) {
        let Some(s) = self.ram.table.by_sock(sock) else {
            return;
        };
        let Some(ctl) = self.ram.table[s].ctl.as_mut() else {
            return;
        };
        let mut wrote = false;
        while let Some(front) = ctl.pending_out.front_mut() {
            let n = self.ram.tcp.send_bytes(now, sock, front);
            if n == 0 {
                break; // send buffer full; retry on a later tick
            }
            wrote = true;
            if n == front.len() {
                ctl.pending_out.pop_front();
            } else {
                *front = front.slice(n..);
                break;
            }
        }
        // Track blocked output so flush loops revisit only these.
        let blocked = !ctl.pending_out.is_empty();
        self.ram.table.set(Set::OutBlocked, s, blocked);
        // Writing advances the app position the lag detector compares.
        if wrote {
            self.ram.table.insert(Set::Check, s);
        }
    }

    /// Applies a FIN-arbitration gate action (but not `DeclarePeerFailed`,
    /// which the caller must route through the verdict path).
    fn apply_gate_action(&mut self, now: SimTime, sock: SocketId, key: u32, action: ArbAction) {
        match action {
            ArbAction::HoldFin => {
                self.ram.tcp.set_fin_gate(sock, FinGate::Hold);
                self.events.push(StTcpEvent::FinHeld { conn: key, at: now });
            }
            ArbAction::ReleaseFin(reason) => {
                self.ram.tcp.release_fin(now, sock);
                self.events.push(StTcpEvent::FinReleased {
                    conn: key,
                    reason,
                    at: now,
                });
            }
            ArbAction::DeclarePeerFailed => {
                // Routed by the caller; reaching here is a logic error we
                // surface loudly in debug builds and ignore in release.
                debug_assert!(false, "DeclarePeerFailed must go through verdicts");
            }
        }
    }

    // ----- internal: heartbeats ---------------------------------------------

    /// Records a heartbeat's arrival on flight link `link` and makes it
    /// the evidence a later verdict is parented to.
    fn note_hb_rx(&mut self, ctx: &mut NodeCtx<'_>, hb: &HbPayload, link: u8) {
        let span = SpanId::heartbeat(role_byte(hb.role), hb.rank, hb.seqno);
        let seqno = hb.seqno;
        ctx.flight(span, SpanId::NONE, FlightKind::HbRecv { seqno, link });
        self.last_hb_rx_span = span;
    }

    /// True when a frame numbered `seq` may update mirror `e`: unless a
    /// newer frame already did — cross-link reorder legitimately
    /// delivers older frames late.
    fn takes(e: &PeerConn, seq: u32) -> bool {
        e.last_update_seq == 0 || !seq_newer(e.last_update_seq, seq)
    }

    /// What the [`followed`] member last reported for the key of `s` (a
    /// displaced socket reads its key's).
    fn followed_pos(&self, s: SlotId) -> Option<PeerConn> {
        let (_, m) = followed(self.ram.pool.as_ref(), &self.ram.members)?;
        m.mirror.get(self.ram.table.home(s)).copied()
    }

    /// What the [`Ram::judged`] member last reported for the key of `s`.
    fn judged_pos(&self, s: SlotId) -> Option<PeerConn> {
        let (_, m) = self.ram.judged()?;
        m.mirror.get(self.ram.table.home(s)).copied()
    }

    /// The byzantine sanity check: a record that would regress a
    /// cumulative counter this receiver already accepted is semantically
    /// impossible, so the whole payload is a lie. `false` (logged and
    /// counted) tells the caller to drop the frame, including its
    /// liveness value, so the stream starves the link monitors and row 1
    /// condemns the liar instead of its lies driving hold-release or lag
    /// verdicts. Creates no slot: a dropped frame leaves nothing behind.
    /// Checked against the sender's mirror, where the records would land.
    /// Only records the frame would actually update can regress:
    /// records an older cross-link frame repeats are skipped.
    fn vet_records(&mut self, now: SimTime, src: Ipv4Addr, hb: &HbPayload) -> bool {
        let Some(m) = self.ram.members.get(&src) else {
            return false;
        };
        let lie = hb.conns.iter().any(|c| {
            let peer = self.ram.table.by_key(c.key).and_then(|s| m.mirror.get(s));
            peer.is_some_and(|e| Self::takes(e, hb.seqno) && e.regressed_by(c))
        });
        if !lie {
            return true;
        }
        let m = self.ram.members.get_mut(&src).expect("found above");
        if m.hb.first_byzantine_report() {
            self.events
                .push(StTcpEvent::ByzantineHbRejected { at: now });
        }
        self.metrics.on_byzantine_rejected();
        false
    }

    /// The pool-wide view of keyed slot `s` its FIN arbiter and hold
    /// release go by, over every unfenced member (the pair's peer is all
    /// of it): a FIN counts once any member saw one, and held bytes are
    /// released only up to the slowest member's `LastByteReceived` — a
    /// member with no record yet holds everything back.
    fn member_view(&self, s: SlotId) -> (bool, u64) {
        let (mut fin_or_rst, mut lbr) = (false, u64::MAX);
        for m in self.ram.members.values().filter(|m| !m.fenced) {
            match m.mirror.get(s) {
                Some(e) => {
                    fin_or_rst |= e.fin_or_rst;
                    lbr = lbr.min(e.last_byte_received);
                }
                None => lbr = 0,
            }
        }
        (fin_or_rst, lbr)
    }

    /// Slot `s`'s connection sees its key's [`StTcpServer::member_view`]:
    /// the FIN arbiter, the lag detector and lag feed, and — at the
    /// active — the hold release. Nothing before a socket is bound (the
    /// members may know a key first; `bind_key` catches up).
    fn settle(&mut self, now: SimTime, s: SlotId) {
        let (key, Some(sock)) = (self.ram.table[s].key(), self.ram.table[s].sock()) else {
            return;
        };
        let (fin_or_rst, lbr) = self.member_view(s);
        let ctl = self.ram.table[s].ctl.as_mut();
        if let Some(a) = ctl.and_then(|c| c.finarb.on_peer_hb(now, fin_or_rst)) {
            self.apply_gate_action(now, sock, key, a);
        }
        // Fresh member positions: the lag detector must look again.
        self.ram.table.insert(Set::Check, s);
        if self.ram.role == Role::Primary {
            self.ram.tcp.release_hold_until(sock, lbr);
        }
        self.note_lag(s);
    }

    /// Settles every connection again — the edge at which a member is
    /// fenced, leaving every key's view, while idle keys ride no delta
    /// frame. (A rejoin needs no walk: the member comes back with no
    /// records, which only lowers the release point, and FINs latch.)
    fn settle_all(&mut self, now: SimTime) {
        let bound: Vec<SlotId> = self.ram.table.bound().map(|(_, s, _)| s).collect();
        for s in bound {
            self.settle(now, s);
        }
    }

    /// Applies member `src`'s vetted records, in pair and pool alike:
    /// each lands in its mirror at the key's slot (made if missing: a key
    /// a member names first gets its slot here) unless the cell took this
    /// round or a newer one, then its connection settles. Only this
    /// frame's keys are visited: a newly followed active seeds the lag
    /// set once, and a fence settles every key.
    fn apply_records(&mut self, now: SimTime, hb: &HbPayload, src: Ipv4Addr) {
        let rank = self.ram.members[&src].rank;
        let refollow = (self.ram.pool.as_mut()).is_some_and(|p| p.follow(hb.role, rank));
        let seq = hb.seqno;
        for c in &hb.conns {
            let s = self.ram.table.entry(c.key);
            let m = self.ram.members.get_mut(&src).expect("vetted");
            let peer = m.mirror.entry(s);
            // A record of the round its cell already took (0: none) repeats it.
            let copy = peer.last_update_seq != 0 && seq == peer.last_update_seq;
            if copy || !Self::takes(peer, seq) {
                continue;
            }
            peer.last_update_seq = seq;
            peer.apply(c);
            m.app_suspected |= c.app_suspected;
            self.settle(now, s);
        }
        if refollow {
            // Every key the new active mirrors may have become lagging.
            self.ram.table.clear_set(Set::Lag);
            let m = self.ram.members.get_mut(&src).expect("vetted");
            for s in m.mirror.iter_mut().map(|(s, _)| s).collect::<Vec<_>>() {
                self.note_lag(s);
            }
        }
    }

    /// The one heartbeat intake — v1 full-state frames, and v2 ones whose
    /// envelope is `f` — in both topologies, from member `src` on its
    /// link `link`: rank rule, demotion, v2 epoch, then one receive rule
    /// for every frame. A frame is stale or fresh on its link (the same
    /// round rides every link, and faults replay older ones); a stale one
    /// is not re-applied. A fresh one is vetted (v3 parts in order on
    /// their link first) and updates a mirror cell only if it is newer
    /// for that connection. Either proves the member alive — but a frame
    /// that does not advance the member's stream does so only while the
    /// stream advanced within the heartbeat timeout: a stream frozen
    /// longer is a replay loop or a frozen byzantine sender, and must
    /// starve the monitors so row 1 (or the pool's fence) condemns the
    /// member instead of trusting it forever, on whichever link.
    fn handle_heartbeat(
        &mut self,
        now: SimTime,
        hb: &HbPayload,
        f: Option<&HbFrame>,
        src: Ipv4Addr,
        link: usize,
    ) {
        let hblink = match link {
            0 => HbLink::Ip,
            _ => HbLink::Serial,
        };
        let Some(m) = self.ram.members.get_mut(&src) else {
            return;
        };
        // (The pair's ranks never change: it admits every frame.)
        if !m.admit(hb.rank, now) {
            return;
        }
        self.events.extend(m.hb.note_demotion(hb, now));
        // A new incarnation of the member voids all per-link and
        // per-connection ordering state; its acks of our frames restart
        // from nothing, so full frames flow both ways until
        // re-acknowledged.
        if let Some(f) = f.filter(|f| f.epoch != m.rx_epoch) {
            m.forget_stream();
            m.rx_epoch = f.epoch;
            m.mirror.iter_mut().for_each(|(_, p)| p.last_update_seq = 0);
            self.ram.hb.void(&mut self.ram.table, Some(src));
        }
        let m = self.ram.members.get_mut(&src).expect("admitted above");
        let applied = m.links[link].applied;
        if applied != 0 && !seq_newer(hb.seqno, applied) {
            m.hb.credit(hblink, now, &mut self.metrics);
            return;
        }
        // Batched (v3) rounds: parts share a seqno and must arrive in
        // order on their link. Part 0 opens a round (discarding any
        // half-finished predecessor); any other part is accepted only if
        // it is exactly the next part of the open round. An out-of-order
        // part means an earlier part was lost — the round can never
        // complete, so drop it and let the unacked records ride again.
        if let Some(f) = f.filter(|f| f.parts > 1 && f.part > 0) {
            let next = RxBatch {
                seqno: hb.seqno,
                parts: f.parts,
                next: f.part,
            };
            if m.links[link].batch != next {
                return;
            }
        }
        if !self.vet_records(now, src, hb) {
            return;
        }
        let m = self.ram.members.get_mut(&src).expect("vetted above");
        // The link's cumulative ack advances only once the whole round is
        // in hand: single-frame rounds immediately, batched rounds on
        // their final part. A poisoned or lost part never completes the
        // round, so the sender keeps resending the records.
        let (part, parts) = f.map_or((0, 1), |f| (f.part, f.parts));
        let l = &mut m.links[link];
        if parts > 1 {
            l.batch = RxBatch {
                seqno: hb.seqno,
                parts,
                next: part + 1,
            };
        }
        if parts <= 1 || part + 1 == parts {
            l.applied = hb.seqno;
        }
        if m.hb.last_seqno.is_none_or(|l| seq_newer(hb.seqno, l)) {
            m.hb.advance(hb, now);
        }
        m.hb.credit(hblink, now, &mut self.metrics);
        if let Some(f) = f {
            self.ram.hb.ack(src, f.ack_epoch, &f.acks);
        }
        // Equal seqno is the same round's frame on another link: vetted,
        // then skipped per record like a strictly older one.
        self.apply_records(now, hb, src);
    }

    /// One heartbeat round ([`crate::hbsend`]), sent, counted and recorded
    /// frame by frame. The watchdog reports on the first round
    /// `watchdog_timeout` or more after a crash (the §4.2.2 extension),
    /// which changes every open record.
    fn send_heartbeats(&mut self, ctx: &mut NodeCtx<'_>) {
        let now = ctx.now();
        self.absorb_touched();
        let report = match (self.ram.app, self.setup.sttcp.watchdog_timeout) {
            (AppLife::Crashed(at), Some(t)) => now.saturating_since(at) >= t,
            _ => false,
        };
        if report {
            self.ram.app = AppLife::Suspected;
        }
        let (tcp, suspected) = (&self.ram.tcp, self.ram.app == AppLife::Suspected);
        let view = View {
            role: self.ram.role,
            rank: self.pool_rank(),
            ping: self.ram.net_detect.report(),
            report,
            record: |table: &ConnTable, s| {
                let conn = tcp.conn(table[s].sock()?)?;
                let open = (table[s].ctl.as_ref()).is_some_and(|c| !c.closed && !c.close_issued);
                Some(ConnHb {
                    key: table[s].key(),
                    last_byte_received: conn.bytes_received(),
                    last_ack_received: conn.last_ack_received(),
                    last_app_byte_written: conn.app_bytes_written(),
                    last_app_byte_read: conn.app_bytes_read(),
                    fin_generated: conn.fin_generated(),
                    rst_generated: conn.rst_generated(),
                    app_suspected: suspected && open,
                })
            },
        };
        let out = (self.ram.hb).round(&mut self.ram.table, &view, &self.ram.members);
        self.metrics.on_timer_visits(out.visits);
        // Both ends derive the span from wire-observable fields, so emit
        // and receive link up without any wire change.
        let (hdr, mut round) = (out.hdr, HbBandwidth::default());
        let span = SpanId::heartbeat(role_byte(hdr.role), hdr.rank, hdr.seq);
        for f in out.frames {
            // Nothing sent, counted or recorded on a link the member has
            // no cable for, to an unresolved address or over 65 535 B.
            let bytes = f.wire.len() as u32;
            match self.links_to(f.to).nth(usize::from(f.link)) {
                Some(Via::Ip(to)) => match self.iface.frame_to(to, IpProto::Heartbeat, f.wire) {
                    Some(frame) => ctx.send_frame(self.iface.nic, frame),
                    None => continue,
                },
                Some(Via::Serial(port)) => ctx.send_serial(port, f.wire),
                None => continue,
            }
            round.add_frame(u64::from(f.conns), u64::from(bytes));
            let (seqno, link, conns) = (hdr.seq, f.link, f.conns);
            ctx.flight(
                span,
                SpanId::NONE,
                FlightKind::HbEmit {
                    seqno,
                    link,
                    bytes,
                    conns,
                },
            );
        }
        self.metrics.on_hb_round(round);
    }

    // ----- internal: verdicts and recovery actions ---------------------------

    /// The verdict on `node`, in pair and pool mode alike: logged and
    /// counted, its span causally parented to `parent` — the evidence
    /// that produced it — and then STONITH, which joins the verdict's
    /// span and comes before any connection is touched (no dual-active).
    fn condemn(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        node: NodeId,
        reason: FailureReason,
        parent: SpanId,
    ) {
        let now = ctx.now();
        self.events
            .push(StTcpEvent::PeerDeclaredFailed { reason, at: now });
        self.metrics.on_verdict(reason);
        let vspan = SpanId::verdict(ctx.node_id().0 as u64, now.as_micros());
        self.verdict_span = vspan;
        let reason = reason_code(reason);
        ctx.flight(vspan, parent, FlightKind::Verdict { reason });
        ctx.power_off(node, STONITH_DELAY);
        self.events.push(StTcpEvent::StonithIssued { at: now });
        let target = node.0 as u32;
        ctx.flight(vspan, parent, FlightKind::Stonith { target });
    }

    /// Every verdict's one sink: `target` is condemned for `reason`, the
    /// span parented to `parent` (the evidence); a fenced target leaves
    /// every key's view. A condemned active is taken over once provably
    /// silent (power controller latency); an active left with no live
    /// unfenced member to feed goes non-fault-tolerant — every FIN arbiter
    /// resolves as peer-failed, and it stops holding client bytes.
    fn accuse(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        target: Ipv4Addr,
        reason: FailureReason,
        parent: SpanId,
    ) {
        let now = ctx.now();
        let m = &self.ram.members[&target];
        let (node, fenced) = (m.node, m.fenced);
        // The active is the member a backup follows.
        let followed = followed(self.ram.pool.as_ref(), &self.ram.members).map(|(ip, _)| ip);
        let was_active = self.ram.role == Role::Backup && followed == Some(target);
        self.condemn(ctx, node, reason, parent);
        self.ram.join.condemned(target);
        let mut rest = self.ram.members.iter().filter(|&(&ip, _)| ip != target);
        self.ram.ft_mode = rest.any(|(_, m)| !m.fenced && m.alive(now));
        if fenced {
            self.settle_all(now);
        }
        if was_active {
            ctx.set_timer(STONITH_DELAY, TOKEN_TAKEOVER);
            return;
        }
        if self.ram.role == Role::Backup || self.ram.ft_mode {
            return;
        }
        self.events.push(StTcpEvent::WentNonFt { reason, at: now });
        self.hold_client_bytes(now, false);
        for (sock, s) in self.all_socks() {
            let Some(ctl) = &mut self.ram.table[s].ctl else {
                continue;
            };
            if let (key, Some(a)) = (ctl.key, ctl.finarb.on_peer_failed()) {
                self.apply_gate_action(now, sock, key, a);
            }
        }
    }

    /// The extended receive buffer's one rule after boot: an active
    /// server holds client bytes exactly while it has a backup to feed.
    /// On, every connection holds from its receive edge on (logged
    /// `HoldArmed`) and so does every connection accepted from now on;
    /// off, every connection releases what it held and the listener
    /// accepts plain ones. Only an active server calls this.
    fn hold_client_bytes(&mut self, now: SimTime, on: bool) {
        let mut tcp = self.setup.tcp.clone();
        tcp.hold_buf = on.then_some(self.setup.sttcp.hold_buf);
        let (tcp, egress) = (tcp.into(), EgressMode::Normal);
        let port = self.setup.service_port;
        self.ram.tcp.listen(port, ListenConfig { tcp, egress });
        for (sock, s) in self.all_socks() {
            if let Some(conn) = self.ram.tcp.conn_mut(sock) {
                match on {
                    true => conn.enable_hold(self.setup.sttcp.hold_buf),
                    false => conn.disable_hold(),
                }
            }
            if on {
                let conn = self.ram.table[s].key();
                self.events.push(StTcpEvent::HoldArmed { conn, at: now });
            }
        }
    }

    fn complete_takeover(&mut self, ctx: &mut NodeCtx<'_>) {
        let now = ctx.now();
        self.ram.role = Role::Primary;
        self.events.push(StTcpEvent::TookOver { at: now });
        // The takeover joins the verdict's span: the dump reads as one
        // chain, heartbeat evidence → verdict → STONITH → takeover.
        ctx.flight(
            self.verdict_span,
            self.last_hb_rx_span,
            FlightKind::Takeover {
                conns: self.ram.table.socks().count() as u32,
            },
        );
        // Pool mode: other backups may survive the takeover — keep serving
        // them fault-tolerant. Pair mode has nobody left to feed.
        let keep_ft = self.ram.pool.is_some() && self.ram.members.values().any(|m| !m.fenced);
        self.ram.ft_mode = keep_ft;
        // From now on this host speaks for the service: orphan segments
        // (e.g. for a connection reset as unrecoverable) get ordinary
        // RSTs instead of shadow silence.
        self.ram.tcp.set_rst_policy(RstPolicy::Send);
        self.hold_client_bytes(now, keep_ft);
        for (sock, s) in self.all_socks() {
            self.ram.tcp.set_egress(sock, EgressMode::Normal);
            let Some(ctl) = &mut self.ram.table[s].ctl else {
                continue;
            };
            let (key, action) = (ctl.key, ctl.finarb.on_takeover());
            // The paper's output-commit caveat: if the dead primary had
            // received-and-acked client bytes this backup never got, those
            // bytes exist nowhere anymore. Without a logger the connection
            // cannot be continued correctly; reset it rather than hang the
            // client forever ("ST-TCP treats this failure as
            // unrecoverable", §4.3).
            let mine = self.ram.tcp.conn(sock).map(TcpConn::bytes_received);
            let peer = self.followed_pos(s).map(|p| p.last_byte_received);
            if peer.zip(mine).is_some_and(|(peer, mine)| peer > mine) {
                self.give_up(now, sock);
                continue;
            }
            if let Some(a) = action {
                self.apply_gate_action(now, sock, key, a);
            } else {
                self.ram.tcp.set_fin_gate(sock, FinGate::Open);
            }
            // Everything between snd.una and the cursor was generated but
            // suppressed — never on the wire. Rewind and stream it afresh
            // (ack-clocked), rather than dribbling it out one
            // retransmission per RTO.
            if let Some(conn) = self.ram.tcp.conn_mut(sock) {
                conn.rewind_unacked(now);
            }
        }
        if let Some(pool) = &mut self.ram.pool {
            pool.took_over();
        }
        // An active server never fetches.
        self.ram.table.clear_set(Set::Lag);
        // Connections may carry receive holes from their time as tapped
        // shadows: the first hole check looks at every one.
        let socks = self.ram.table.socks().map(|(sock, _)| (sock, None));
        self.ram.holes = Some(socks.collect());
        // Delta mode: every member's acks are void; a surviving backup or
        // a future joiner is served full-state frames until it
        // acknowledges this epoch.
        self.ram.hb.void(&mut self.ram.table, None);
        self.flush(ctx);
    }

    /// What heartbeat *silence* decides, as opposed to heartbeat contents:
    /// link edges; on the [judged](Ram::judged) member's reading, Table 1
    /// row 1 (both links silent) and whether rows 2 and 4 engage; a pool's
    /// fence round.
    /// Runs when the liveness timer fires — the instant a link's timeout
    /// and jitter guard are both spent ([`crate::linkmon`]) — and on every
    /// check tick, which is what notices a link coming back; either way it
    /// leaves the one timer on the next instant a monitor can fall silent.
    fn check_liveness(&mut self, ctx: &mut NodeCtx<'_>) {
        let now = ctx.now();
        self.read_links(now);
        // Row 1 is [`MemberState::overdue`], whose two silences equal
        // `!ip_up && !serial_up` here: `read_links` just set each.
        let judged = self.ram.judged();
        let judged = judged.map(|(ip, m)| (ip, m.overdue(now), m.hb.ip_up));
        // Row 2's reading; its edges are walks over every connection.
        if let Some(on) = self.ram.engage_app_lag(now) {
            let socks = self.all_socks();
            self.metrics.on_timer_visits(socks.len());
            for (_, s) in socks {
                if on {
                    self.ram.table.insert(Set::Check, s);
                } else if let Some(ctl) = &mut self.ram.table[s].ctl {
                    ctl.applag = AppLag::default();
                }
            }
        }
        // Row 1 judges a backup, or the joiner this server serves.
        let judging = self.ram.ft_mode || self.ram.join.serving();
        if let Some((target, true, _)) = judged.filter(|_| judging) {
            // Row 1: the host is gone, or heard only as a defunct restart.
            // The evidence is the last heartbeat this server accepted.
            let evidence = self.last_hb_rx_span;
            self.accuse(ctx, target, FailureReason::HbBothLinksDown, evidence);
        }
        // Row 4 holds while the IP heartbeat is dead and, row 1 having had
        // its say, the serial one is not: the gateway pings that will say
        // whose network failed run exactly then. The verdict waits for
        // evidence, on the check tick.
        let ip_dead = judged.is_some_and(|(_, _, ip_up)| !ip_up);
        self.ram.net_detect.engage(now, self.ram.ft_mode && ip_dead);
        let due = self.ram.net_detect.probe_due();
        ctx.rearm_timer(&mut self.ram.ping_timer, due, TOKEN_PING);
        self.fence_tick(ctx);
        // A silence further out than the next tick is the next tick's to
        // see coming: a pair whose heartbeats flow never arms the timer.
        // Whose silence counts: every member not yet fenced.
        let unfenced = self.ram.members.values().filter(|m| !m.fenced);
        let next = next_silence(unfenced.flat_map(|m| [&m.hb.ip_mon, &m.hb.serial_mon]), now);
        let want = next.filter(|&at| at <= now + self.setup.sttcp.check_period);
        ctx.rearm_timer(&mut self.ram.liveness_timer, want, TOKEN_LIVENESS);
    }

    /// Takes every member's link reading, and logs the [`followed`]
    /// member's edges (a change of who is followed logs nothing).
    fn read_links(&mut self, now: SimTime) {
        let followed = followed(self.ram.pool.as_ref(), &self.ram.members).map(|(ip, _)| ip);
        let mut edges = [None; 2];
        for (&ip, m) in self.ram.members.iter_mut() {
            let read = m.hb.read_links(now);
            if Some(ip) == followed {
                edges = read;
            }
        }
        for (link, up) in edges.into_iter().flatten() {
            self.events.push(match up {
                true => StTcpEvent::HbLinkUp { link, at: now },
                false => StTcpEvent::HbLinkDown { link, at: now },
            });
        }
    }

    fn run_checks(&mut self, ctx: &mut NodeCtx<'_>) {
        let now = ctx.now();
        debug_assert_eq!(self.check_active_sets(), Ok(()));

        // Metrics sampling: hold occupancy and aggregate TCP state, once
        // per check period — from the endpoint's incremental totals, so
        // only connections that moved since the last tick are re-read.
        self.metrics.on_timer_visits(self.ram.tcp.totals_stale());
        let totals = self.ram.tcp.totals();
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            totals,
            self.scan_sampling_walk(),
            "endpoint totals diverged from the key-index sampling walk"
        );
        self.metrics.sample_hold(totals.hold);
        if totals.live > 0 {
            self.metrics
                .sample_tcp(totals.cwnd_sum, totals.send_occ, totals.recv_occ);
        }

        // Pool-only: a sample would print the gauge in every pair's
        // metrics JSON.
        if self.ram.pool.is_some() {
            let strength = 1 + live_non_fenced(&self.ram.members, now);
            self.metrics.sample_pool_strength(strength as u64);
        }

        // What silence alone decides was decided on its deadline, and is
        // looked at again here.
        self.check_liveness(ctx);

        self.check_post_takeover_holes(ctx);

        // Re-integration: a joiner catches up (fetching bytes its tap
        // missed while it was down) and completes once converged. This runs
        // *before* the ft_mode gate below — a joiner is deliberately not
        // fault-tolerant yet, but must still make progress.
        if self.ram.join.joining() {
            self.run_recovery(ctx);
            self.try_finish_join(ctx);
        }

        // Not fault-tolerant — a lone server, a joiner, or a verdict a
        // moment ago in `check_liveness` — means nothing left to judge.
        if !self.ram.ft_mode {
            return;
        }

        // Table 1's rows 2–5 judge the [judged](Ram::judged) member. With
        // none (a pool), rows 2 and 4 never engage, the walk only ages FIN
        // deadlines, and an arbiter that runs out resolves itself. Row 4
        // (IP heartbeat dead, serial alive) finds whose network failed
        // from the pings and the serial heartbeat's contents.
        let judged = self.ram.judged().map(|(ip, m)| (ip, m.app_suspected));
        let mut verdict = None;
        if self.ram.net_detect.engaged() {
            let obs = self.net_observation();
            verdict = self.ram.net_detect.check(now, &obs);
        }
        if verdict.is_none() {
            let lag = self.check_conns(now);
            // §4.2.2 extension: the member's own watchdog reported its
            // replica dead. A self-report is actionable even on an idle
            // connection — exactly the case the transport-layer detectors
            // cannot see.
            let watchdog = judged.is_some_and(|(_, suspected)| suspected);
            // Row 5 escalation: the primary's hold buffer overflowed — the
            // backup cannot catch up. (Sampled with the totals above.)
            let overflow = self.ram.role == Role::Primary && totals.hold_overflows > 0;
            verdict = lag
                .or(watchdog.then_some(FailureReason::WatchdogReport))
                .or(overflow.then_some(FailureReason::HoldOverflow));
        }
        if let (Some(reason), Some((target, _))) = (verdict, judged) {
            self.accuse(ctx, target, reason, self.last_hb_rx_span);
            return;
        }

        // Row 5: the backup fetches bytes it missed.
        if self.ram.role == Role::Backup {
            self.run_recovery(ctx);
        }
    }

    /// The check tick's connection walk, in pair and pool alike: FIN
    /// deadlines and, while row 2's detector judges, Table 1 rows 2/3. Only
    /// connections with recent activity or an armed detector are
    /// visited: one leaves the set once both its arbiters are provably
    /// inert and re-enters on any movement. The walk's verdict, if any.
    fn check_conns(&mut self, now: SimTime) -> Option<FailureReason> {
        let mut verdict: Option<FailureReason> = None;
        let mut arb_actions: Vec<(SocketId, u32, ArbAction)> = Vec::new();
        let judging = self.ram.app_detect.state() == Engagement::Judging;
        let slots = self.ram.table.members(Set::Check);
        self.metrics.on_timer_visits(slots.len());
        for s in slots {
            let peer = judging.then(|| self.judged_pos(s)).flatten();
            let slot = &mut self.ram.table[s];
            let (Some(sock), Some(ctl)) = (slot.sock(), slot.ctl.as_mut()) else {
                continue;
            };
            if !ctl.closed {
                // FIN arbitration deadlines.
                match ctl.finarb.on_check(now) {
                    Some(ArbAction::DeclarePeerFailed) => {
                        verdict = verdict.or(Some(FailureReason::FinMismatchTimeout));
                    }
                    Some(a) => arb_actions.push((sock, ctl.key, a)),
                    None => {}
                }
                // Application-lag detection (rows 2/3), on this
                // connection's record in the peer's heartbeat.
                if let (Some(peer), Some(c)) = (peer, self.ram.tcp.conn(sock)) {
                    let mine = (c.app_bytes_read(), c.app_bytes_written());
                    let peers = (peer.last_app_byte_read, peer.last_app_byte_written);
                    let lag = self.ram.app_detect.check(&mut ctl.applag, now, mine, peers);
                    verdict = verdict.or(lag);
                }
            }
            if ctl.closed || !(ctl.finarb.needs_check() || self.ram.app_detect.keeps(&ctl.applag)) {
                self.ram.table.remove(Set::Check, s);
            }
        }
        for (sock, key, action) in arb_actions {
            self.apply_gate_action(now, sock, key, action);
        }
        verdict
    }

    /// Post-takeover output-commit check (§4.3): a receive hole with
    /// client data stranded beyond it that the client never refills —
    /// because the dead primary already acked those bytes — makes the
    /// connection unrecoverable. Detect it by hole persistence; a
    /// repairable hole is refilled by a client retransmission well
    /// within [`GAP_GIVEUP`].
    fn check_post_takeover_holes(&mut self, ctx: &mut NodeCtx<'_>) {
        if self.ram.holes.is_none() {
            return;
        }
        let now = ctx.now();
        // Only a socket touched since the last check can have grown a
        // hole, and only one already aging a hole can hit the deadline.
        self.absorb_touched();
        let (table, tcp) = (&self.ram.table, &self.ram.tcp);
        let Some(holes) = &mut self.ram.holes else {
            return;
        };
        // Client data parked behind a receive hole on an open connection.
        let stranded = |sock| match (table.ctl(sock), tcp.conn(sock)) {
            (Some(ctl), Some(c)) => {
                !ctl.closed && c.ooo_bytes() > 0 && c.state() != TcpState::Closed
            }
            _ => false,
        };
        #[cfg(debug_assertions)]
        for (sock, _) in table.socks() {
            debug_assert!(
                holes.contains_key(&sock) || !stranded(sock),
                "socket {sock:?} holds a receive hole outside the hole watch"
            );
        }
        self.metrics.on_timer_visits(holes.len());
        let mut expired = Vec::new();
        holes.retain(|&sock, since| {
            let aging = stranded(sock);
            if aging && now.saturating_since(*since.get_or_insert(now)) >= GAP_GIVEUP {
                expired.push(sock);
            }
            aging
        });
        for sock in expired {
            self.give_up(now, sock);
        }
    }

    /// Gives up on a connection that cannot be continued correctly:
    /// logs the gap from the first byte this server lacks, then opens
    /// the FIN gate and resets the client rather than hang it.
    fn give_up(&mut self, now: SimTime, sock: SocketId) {
        let Some(ctl) = self.ram.table.ctl_mut(sock) else {
            return;
        };
        ctl.closed = true;
        let conn = ctl.key;
        let missing_from = self.ram.tcp.conn(sock).map_or(0, TcpConn::bytes_received);
        self.events.push(StTcpEvent::UnrecoverableGap {
            conn,
            missing_from,
            at: now,
        });
        self.ram.tcp.set_fin_gate(sock, FinGate::Open);
        self.ram.tcp.abort(now, sock);
    }

    /// The replaced every-connection sampling walk, kept as the
    /// differential oracle for the endpoint totals *and* for the tracked
    /// set being exactly the sockets the key index resolves to.
    #[cfg(debug_assertions)]
    fn scan_sampling_walk(&self) -> EndpointTotals {
        let mut sum = EndpointTotals::default();
        for (_, _, sock) in self.ram.table.bound() {
            if let Some(c) = self.ram.tcp.conn(sock) {
                sum.live += 1;
                sum.hold += c.hold_used() as u64;
                sum.cwnd_sum += c.cwnd();
                sum.send_occ += c.send_occupancy() as u64;
                sum.recv_occ += c.recv_occupancy() as u64;
                sum.hold_overflows += c.hold_overflow() as u64;
            }
        }
        sum
    }

    // ----- internal: quorum fencing -------------------------------------------

    /// Drives this server's fence round ([`PoolState::fence_tick`]) and
    /// (re-)solicits every other unfenced member's vote each tick until
    /// the round commits or ends. Profiled as pool work; a pair or a
    /// joiner has none.
    fn fence_tick(&mut self, ctx: &mut NodeCtx<'_>) {
        let now = ctx.now();
        let (Some(pool), false) = (&mut self.ram.pool, self.ram.join.joining()) else {
            return; // (a joiner has no say over anyone's life)
        };
        ctx.profile_enter(Component::Pool);
        let solicit = pool.fence_tick(&self.ram.members, now, self.ram.role);
        if let Some((request, target, opened)) = solicit {
            if let Some((epoch, target_rank)) = request.fence_round().filter(|_| opened) {
                self.events.push(StTcpEvent::FenceRequested {
                    target_rank,
                    epoch,
                    at: now,
                });
                fence_flight(ctx, self.last_hb_rx_span, &request);
            }
            for (&ip, m) in &self.ram.members {
                if !m.fenced && ip != target {
                    self.send_ctrl_to(ctx, ip, &request);
                }
            }
        }
        // In a degenerate pool the initiator's own vote is the quorum.
        self.commit_fence(ctx);
        ctx.profile_exit();
    }

    /// One fence message from member `src` (the source rule ran at
    /// intake), through the pool's machine: a request is answered, a vote
    /// counts toward this server's round, and another member's commit is
    /// adopted. A joiner has no vote yet, but adopts commits.
    fn handle_fence(&mut self, ctx: &mut NodeCtx<'_>, src: Ipv4Addr, msg: &CtrlMsg) {
        let now = ctx.now();
        if self.ram.join.joining() && matches!(msg, CtrlMsg::FenceRequest { .. }) {
            return;
        }
        fence_flight(ctx, SpanId::NONE, msg);
        let (Some(pool), members) = (&mut self.ram.pool, &mut self.ram.members) else {
            return;
        };
        if let Some(reply) = pool.answer(members, now, src, msg) {
            fence_flight(ctx, SpanId::NONE, &reply);
            self.send_ctrl_to(ctx, src, &reply);
        } else if pool.count_vote(msg) {
            self.commit_fence(ctx);
        } else if let Some((_, rank)) = msg.fence_round().filter(|_| pool.adopt(members, msg)) {
            self.events
                .push(StTcpEvent::PoolMemberFenced { rank, at: now });
            self.settle_all(now);
        }
    }

    /// Commits this server's round once it stands with a quorum
    /// ([`PoolState::commit`]): the commit closes the round's span and
    /// tells the survivors, who mark the target fenced without a quorum
    /// of their own (a losing simultaneous candidate abandons its round),
    /// and the target is accused under the round's span — STONITH, and a
    /// takeover if it was the active.
    fn commit_fence(&mut self, ctx: &mut NodeCtx<'_>) {
        let now = ctx.now();
        let members = &mut self.ram.members;
        let committed = (self.ram.pool.as_mut()).and_then(|p| p.commit(members, now));
        let Some((commit, target, votes)) = committed else {
            return;
        };
        let Some((epoch, target_rank)) = commit.fence_round() else {
            return;
        };
        self.events.push(StTcpEvent::FenceQuorumReached {
            target_rank,
            votes,
            at: now,
        });
        self.events.push(StTcpEvent::PoolMemberFenced {
            rank: target_rank,
            at: now,
        });
        fence_flight(ctx, SpanId::NONE, &commit);
        for (&ip, m) in &self.ram.members {
            if !m.fenced {
                self.send_ctrl_to(ctx, ip, &commit);
            }
        }
        let fspan = SpanId::fence(u64::from(epoch), target_rank);
        self.accuse(ctx, target, FailureReason::HbBothLinksDown, fspan);
    }

    fn net_observation(&mut self) -> NetObservation {
        let mut obs = NetObservation {
            peer_report: self.ram.judged().and_then(|(_, m)| m.hb.ping),
            ..Default::default()
        };
        // A fault-window walk: it runs only while the IP heartbeat is
        // down with a serial link still up (Table 1 row 4).
        let mut visits = 0;
        for (_, s, sock) in self.ram.table.bound() {
            visits += 1;
            let (Some(conn), Some(peer)) = (self.ram.tcp.conn(sock), self.judged_pos(s)) else {
                continue;
            };
            obs.my_bytes += conn.bytes_received();
            obs.peer_bytes += peer.last_byte_received;
            obs.my_acks += conn.last_ack_received();
            obs.peer_acks += peer.last_ack_received;
        }
        self.metrics.on_timer_visits(visits);
        obs
    }

    fn run_recovery(&mut self, ctx: &mut NodeCtx<'_>) {
        let now = ctx.now();
        // The walk over every connection this replaced is the oracle:
        // nothing it would have acted on may be missing from the set.
        debug_assert_eq!(
            self.scan_lag_gaps().next(),
            None,
            "a connection lags or is recovering outside the lag set"
        );
        let mut requests = Vec::new();
        // Key order, like the walk: events and fetches keep their order.
        let slots = self.ram.table.members(Set::Lag);
        self.metrics.on_timer_visits(slots.len());
        for s in slots {
            let peer = self.followed_pos(s);
            let slot = &mut self.ram.table[s];
            let conn = slot.sock().and_then(|sock| self.ram.tcp.conn(sock));
            let (Some(conn), Some(peer), Some(ctl)) = (conn, peer, slot.ctl.as_mut()) else {
                self.ram.table.remove(Set::Lag, s);
                continue;
            };
            let (key, mine) = (ctl.key, conn.bytes_received());
            if peer.last_byte_received <= mine {
                if ctl.recovering {
                    ctl.recovering = false;
                    self.events.push(StTcpEvent::RecoveryCompleted {
                        conn: key,
                        through: mine,
                        at: now,
                    });
                }
                self.ram.table.remove(Set::Lag, s);
                continue;
            }
            let due = ctl
                .last_fetch_at
                .map(|t| now.saturating_since(t) >= self.setup.sttcp.recovery_interval)
                .unwrap_or(true);
            if !due {
                continue;
            }
            ctl.last_fetch_at = Some(now);
            if !ctl.recovering {
                ctl.recovering = true;
                self.events.push(StTcpEvent::RecoveryRequested {
                    conn: key,
                    from: mine,
                    at: now,
                });
            }
            requests.push(CtrlMsg::FetchRequest {
                conn: key,
                from: mine,
                max: self.setup.sttcp.recovery_chunk as u32,
            });
        }
        for req in requests {
            self.send_ctrl(ctx, &req);
        }
    }

    // ----- internal: re-integration -----------------------------------------

    /// Active side: answer a joiner's `JoinRequest` by snapshotting every
    /// live connection and announcing the count. Idempotent — a repeated
    /// request (lost snapshot or lost `JoinDone`) re-sends everything; the
    /// joiner skips keys it already installed.
    fn serve_join(&mut self, ctx: &mut NodeCtx<'_>, src: Ipv4Addr, session: u32) {
        // Only an active primary owns live connections a joiner can copy.
        if !self.is_active() {
            return;
        }
        let now = ctx.now();
        let (members, pool) = (&mut self.ram.members, self.ram.pool.as_mut());
        let (new_rank, new) = self.ram.join.serve(src, session, members, pool, now);
        if new {
            // The rebooted joiner's acks of this server's frames are void:
            // full-state frames until it acknowledges.
            self.ram.table.clear_set(Set::Lag);
            self.ram.hb.void(&mut self.ram.table, Some(src));
            self.events
                .push(StTcpEvent::ReintegrationStarted { at: now });
        }
        // Once the join completes there is a backup to feed. Arm the hold
        // buffer *before* capturing the snapshots: every client byte at
        // or beyond a snapshot's receive edge stays fetchable, so the
        // joiner sees the stream with no hole — `[read cursor, edge)`
        // rides in the snapshot, `[edge, ∞)` arrives by tap or fetch.
        self.hold_client_bytes(now, true);
        let socks = self.all_socks().into_iter();
        let snaps: Vec<_> = socks
            .filter_map(|(sock, _)| self.snapshot_conn(session, sock))
            .collect();
        let conns = snaps.len() as u32;
        for msg in snaps {
            self.send_ctrl_to(ctx, src, &CtrlMsg::ConnSnapshot(msg));
        }
        let done = CtrlMsg::JoinDone {
            session,
            conns,
            new_rank,
        };
        self.send_ctrl_to(ctx, src, &done);
    }

    /// Captures one connection as a [`ConnSnapshotMsg`], or `None` when it
    /// cannot be joined (closed, not snapshottable, or a buffer exceeds the
    /// control-channel cap — such a connection simply stays unreplicated).
    fn snapshot_conn(&self, session: u32, sock: SocketId) -> Option<ConnSnapshotMsg> {
        let ctl = self.ram.table.ctl(sock).filter(|c| !c.closed)?;
        let snap = self.ram.tcp.conn(sock)?.snapshot()?;
        let app_state = ctl.app.snapshot().map(Bytes::from).unwrap_or_default();
        let msg = ConnSnapshotMsg {
            session,
            conn: ctl.key,
            snap,
            app_digest: ctl.app.state_digest(),
            app_state,
        };
        msg.fits().then_some(msg)
    }

    /// Joiner side: install one connection snapshot into the suppressed
    /// TCP state machine and spin up its replica application.
    fn install_snapshot(&mut self, ctx: &mut NodeCtx<'_>, s: &ConnSnapshotMsg) {
        let now = ctx.now();
        if !self.ram.join.wants(s.session, s.conn) {
            return;
        }
        let mut snap = s.snap.clone();
        snap.tuple.local = (self.setup.service_ip, self.setup.service_port);
        if conn_key(snap.tuple) != s.conn {
            // CRC passed but the key does not match the tuple: semantic
            // corruption; never install it.
            return;
        }
        // Restore the replica application first and verify lockstep
        // *before* touching transport state: a replica whose digest
        // diverges from the active side would silently produce different
        // output at the next takeover — worse than leaving the connection
        // unreplicated.
        let mut app = self.app_factory.create();
        if !s.app_state.is_empty() {
            app.restore(&s.app_state);
        }
        if app.state_digest() != s.app_digest {
            return;
        }
        // A tuple already live locally counts as installed: the tapped SYN
        // beat the snapshot here, so the connection is replicated from its
        // very beginning and the snapshot is redundant.
        self.ram.join.installed(s.conn);
        let conn = TcpConn::resume(self.setup.tcp.clone(), &snap);
        let Some(sock) = self.ram.tcp.install_resumed(conn, EgressMode::Suppress) else {
            return;
        };
        let slot = self.bind_key(s.conn, sock, app);
        if let Some(ctl) = &mut self.ram.table[slot].ctl {
            ctl.close_issued = snap.local_fin;
            // The connection resumed mid-stream: its first byte was
            // delivered on the active side long ago.
            ctl.saw_data = true;
        }
        self.refresh_tick(slot);
        self.ram.table.insert(Set::Check, slot);
        let conn = s.conn;
        self.events
            .push(StTcpEvent::SnapshotInstalled { conn, at: now });
    }

    /// Joiner side: complete the join once all announced snapshots are in
    /// and the tap has converged with the active's heartbeat positions.
    /// Until then `ft_mode` stays off: a half-joined backup can neither
    /// fire verdicts nor take over, so it never becomes a second active.
    fn try_finish_join(&mut self, ctx: &mut NodeCtx<'_>) {
        // Convergence is judged against the peer's positions: none count
        // before a post-reboot heartbeat is heard.
        let heard = self.ram.members.values().any(|m| m.hb.last_rx().is_some());
        if !self.ram.join.joining() || self.ram.join.awaiting().is_some() || !heard {
            return;
        }
        // Converged when every connection the followed member reports
        // exists locally with receive and application-read positions
        // caught up (a closed local connection has nothing left to
        // converge). A join-window walk, in key order: it stops the tick
        // the join completes.
        let (mut visits, mut converged) = (0, true);
        for (key, s) in self.ram.table.keyed() {
            let Some(peer) = self.followed_pos(s) else {
                continue;
            };
            visits += 1;
            let slot = &self.ram.table[s];
            let Some(sock) = slot.sock() else {
                // Heartbeats announce every conn still in the peer's socket
                // table, including closed ones the snapshot pass skipped —
                // those have nothing to converge. Only a key we actually
                // installed may gate convergence (it can lag the key index
                // by one poll when the tuple arrived via tap); a brand-new
                // conn is tapped from its SYN and needs no catch-up.
                converged &= !self.ram.join.has_installed(key);
                continue;
            };
            let open = slot.ctl.as_ref().is_some_and(|c| !c.closed);
            if let Some(conn) = self.ram.tcp.conn(sock).filter(|_| open) {
                converged &= conn.bytes_received() >= peer.last_byte_received
                    && conn.app_bytes_read() >= peer.last_app_byte_read;
            }
        }
        self.metrics.on_timer_visits(visits);
        if converged {
            self.complete_join(ctx, None);
        }
    }

    /// The one completion step ([`Join::complete`]): the joiner's once
    /// converged (`by` is `None`), which tells the active, and the active's
    /// on that `JoinComplete`. Detectors resume against a fresh member from
    /// one evaluation per connection; the active's unclosed connections
    /// get fresh FIN arbiters (the old ones open-gated on the dead one).
    fn complete_join(&mut self, ctx: &mut NodeCtx<'_>, by: Option<u32>) {
        let Some(session) = self.ram.join.complete(by) else {
            return;
        };
        self.ram.ft_mode = true;
        for (_, s) in self.all_socks() {
            self.ram.table.insert(Set::Check, s);
            let ctl = self.ram.table[s].ctl.as_mut();
            if let Some(ctl) = ctl.filter(|c| by.is_some() && !c.close_issued && !c.closed) {
                ctl.finarb = FinArbiter::new(self.ram.role, self.setup.sttcp.max_delay_fin);
            }
        }
        self.events
            .push(StTcpEvent::ReintegrationCompleted { at: ctx.now() });
        if by.is_none() {
            self.send_ctrl(ctx, &CtrlMsg::JoinComplete { session });
        }
    }

    /// Sends a control message to member `ip`: over IP, and a fence vote
    /// over its cables too ([`CtrlMsg::rides_cables`]), so a quorum
    /// survives an IP partition exactly like heartbeats do.
    fn send_ctrl_to(&self, ctx: &mut NodeCtx<'_>, ip: Ipv4Addr, msg: &CtrlMsg) {
        let wire = msg.encode();
        for via in self.links_to(ip) {
            match via {
                Via::Ip(to) => {
                    if let Some(frame) = self.iface.frame_to(to, CTRL_PROTO, wire.clone()) {
                        ctx.send_frame(self.iface.nic, frame);
                    }
                }
                Via::Serial(port) if msg.rides_cables() => ctx.send_serial(port, wire.clone()),
                Via::Serial(_) => {}
            }
        }
    }

    /// Sends a control message toward the active server: the [`followed`]
    /// member — or every unfenced member while that one is fenced or
    /// unknown, or this server is joining.
    fn send_ctrl(&self, ctx: &mut NodeCtx<'_>, msg: &CtrlMsg) {
        // A joiner's rebuilt pool view may still believe a dead member
        // active, so it broadcasts until the join completes; only the
        // active side answers a JoinRequest anyway.
        let active = followed(self.ram.pool.as_ref(), &self.ram.members)
            .filter(|(_, m)| !m.fenced && !self.ram.join.joining())
            .map(|(ip, _)| ip);
        for (&ip, m) in &self.ram.members {
            if active.map_or(!m.fenced, |a| a == ip) {
                self.send_ctrl_to(ctx, ip, msg);
            }
        }
    }

    fn handle_ctrl(&mut self, ctx: &mut NodeCtx<'_>, src: Ipv4Addr, msg: &CtrlMsg) {
        match msg {
            CtrlMsg::FetchRequest { conn, from, max } => {
                let Some(sock) = self.sock_of(*conn) else {
                    return;
                };
                let data = self
                    .ram
                    .tcp
                    .conn(sock)
                    .and_then(|c| c.fetch_held(*from, *max as usize))
                    .unwrap_or_default();
                self.metrics.on_fetch_served(data.len() as u64);
                let reply = CtrlMsg::FetchReply {
                    conn: *conn,
                    from: *from,
                    data,
                };
                self.send_ctrl_to(ctx, src, &reply);
            }
            CtrlMsg::FetchReply { conn, from, data } => {
                if data.is_empty() {
                    return;
                }
                let Some(sock) = self.sock_of(*conn) else {
                    return;
                };
                self.ram.tcp.inject_in_order(sock, *from, data);
                self.metrics.on_replay(data.len() as u64);
            }
            CtrlMsg::JoinRequest { session } => {
                self.serve_join(ctx, src, *session);
            }
            CtrlMsg::ConnSnapshot(s) => {
                self.install_snapshot(ctx, s);
            }
            CtrlMsg::JoinDone {
                session,
                conns,
                new_rank,
            } => {
                let ours = self.ram.join.announced(*session, *conns);
                if let Some(pool) = self.ram.pool.as_mut().filter(|_| ours) {
                    pool.rejoined_as(*new_rank);
                }
                self.try_finish_join(ctx);
            }
            CtrlMsg::FenceRequest { .. }
            | CtrlMsg::FenceAck { .. }
            | CtrlMsg::FenceCommit { .. } => {
                ctx.profile_enter(Component::Pool);
                self.handle_fence(ctx, src, msg);
                ctx.profile_exit();
            }
            CtrlMsg::JoinComplete { session } => self.complete_join(ctx, Some(*session)),
        }
    }

    // ----- internal: I/O plumbing ---------------------------------------------

    fn flush(&mut self, ctx: &mut NodeCtx<'_>) {
        let now = ctx.now();
        ctx.profile_enter(Component::Tcp);
        let mut pkts = std::mem::take(&mut self.ram.pkts);
        loop {
            let had_events = self.drain_tcp_events(now, ctx.profiler());
            // Acknowledgments may have freed send-buffer space: drain any
            // application output that was blocked on it.
            if self.ram.table.set_len(Set::OutBlocked) > 0 {
                self.flush_blocked(now);
            }
            ctx.profile_enter(Component::TcpPoll);
            self.ram.tcp.poll_packets_with(now, |pkt| pkts.push(pkt));
            ctx.profile_exit();
            if !had_events && pkts.is_empty() {
                break;
            }
            for pkt in pkts.drain(..) {
                if pkt.proto == IpProto::Tcp {
                    if let Some(h) = peek_segment(&pkt.payload) {
                        ctx.flight_segment(h, true);
                    }
                }
                if let Some(frame) = self.iface.encap(&pkt) {
                    ctx.send_frame(self.iface.nic, frame);
                }
            }
        }
        self.ram.pkts = pkts;
        ctx.profile_exit();
        // Keep the TCP deadline timer no later than the deadline. The query
        // is where the deadline queue does its per-flush work (syncing
        // dirty socket deadlines, discarding tombstones), so it is
        // attributed to the wheel bucket alongside due-timer dispatch.
        ctx.profile_enter(Component::TcpWheel);
        let want = self.ram.tcp.next_deadline();
        ctx.profile_exit();
        ctx.rearm_timer(&mut self.ram.tcp_timer, want, TOKEN_TCP);
    }

    /// The one heartbeat dispatch, for IP and serial alike: member `src`
    /// sent `data` on its link `link` (the source rule already held).
    /// False when `data` is no heartbeat.
    fn on_member_hb(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        src: Ipv4Addr,
        link: usize,
        data: &[u8],
    ) -> bool {
        let Ok(any) = decode_any(data) else {
            return false;
        };
        let (hb, f) = match &any {
            AnyHb::V1(hb) => (hb, None),
            AnyHb::V2(f) => (&f.hb, Some(f)),
        };
        self.note_hb_rx(ctx, hb, link as u8);
        self.handle_heartbeat(ctx.now(), hb, f, src, link);
        true
    }

    fn handle_ip_packet(&mut self, ctx: &mut NodeCtx<'_>, pkt: &Ipv4Packet) {
        let now = ctx.now();
        match pkt.proto {
            IpProto::Icmp => {
                if let Some((id, seq)) = self.iface.handle_icmp(ctx, pkt) {
                    self.ram.net_detect.on_reply(id, seq);
                }
            }
            IpProto::Heartbeat if pkt.dst == self.setup.private_ip => {
                if let Some((src, link)) = self.member_link(Via::Ip(pkt.src)) {
                    self.on_member_hb(ctx, src, link, &pkt.payload);
                }
            }
            CTRL_PROTO if pkt.dst == self.setup.private_ip => {
                if let Some((src, _)) = self.member_link(Via::Ip(pkt.src)) {
                    if let Ok(msg) = CtrlMsg::decode(&pkt.payload) {
                        self.handle_ctrl(ctx, src, &msg);
                    }
                }
            }
            IpProto::Tcp
                if pkt.dst == self.setup.service_ip || pkt.dst == self.setup.private_ip =>
            {
                if let Some(h) = peek_segment(&pkt.payload) {
                    ctx.flight_segment(h, false);
                }
                ctx.profile_enter(Component::Tcp);
                self.ram.tcp.on_packet(now, pkt);
                ctx.profile_exit();
            }
            _ => {}
        }
    }
}

impl Node for StTcpServer {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        // `ram` is this boot's already: made for time zero, when a world
        // starts its nodes, by `new` and again by each wiring change.
        debug_assert_eq!(ctx.now(), SimTime::ZERO);
        self.start_rounds(ctx);
    }

    fn on_frame(&mut self, ctx: &mut NodeCtx<'_>, _nic: NicId, frame: EthernetFrame) {
        if let Some(pkt) = IpInterface::decap(&frame) {
            self.handle_ip_packet(ctx, &pkt);
        }
        self.flush(ctx);
    }

    fn on_serial(&mut self, ctx: &mut NodeCtx<'_>, port: SerialPortId, data: Bytes) {
        // A cable carries heartbeats and a pool's fence votes; the CRC in
        // each format keeps the two decodes from colliding.
        if let Some((src, link)) = self.member_link(Via::Serial(port)) {
            if !self.on_member_hb(ctx, src, link, &data) {
                if let Ok(msg) = CtrlMsg::decode(&data) {
                    self.handle_ctrl(ctx, src, &msg);
                }
            }
        }
        self.flush(ctx);
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: TimerToken) {
        match token {
            TOKEN_HB => {
                // A member heartbeats while it has a member to keep in
                // step: fault-tolerant, or joining or serving a join (each
                // side's positions are what the other converges or
                // releases held bytes against).
                if self.ram.ft_mode || self.ram.join.joining() || self.ram.join.serving() {
                    ctx.profile_enter(Component::HbEncode);
                    self.send_heartbeats(ctx);
                    ctx.profile_exit();
                } else {
                    self.ram.hb.skip();
                }
                // A joiner re-requests until the full snapshot set arrives
                // (any of the join messages may have been lost).
                if let Some(session) = self.ram.join.awaiting() {
                    self.send_ctrl(ctx, &CtrlMsg::JoinRequest { session });
                }
                ctx.set_timer(self.setup.sttcp.hb_period, TOKEN_HB);
            }
            TOKEN_CHECK => {
                self.run_checks(ctx);
                // Opportunistically drain app output that was blocked on a
                // full send buffer.
                let now = ctx.now();
                self.metrics
                    .on_timer_visits(self.ram.table.set_len(Set::OutBlocked));
                ctx.profile_enter(Component::Tcp);
                self.flush_blocked(now);
                ctx.profile_exit();
                ctx.set_timer(self.setup.sttcp.check_period, TOKEN_CHECK);
            }
            TOKEN_TCP => {
                ctx.profile_enter(Component::TcpWheel);
                let want = self.ram.tcp.next_deadline();
                let due = ctx.timer_due(&mut self.ram.tcp_timer, want, TOKEN_TCP);
                if due {
                    self.ram.tcp.on_time(ctx.now());
                }
                ctx.profile_exit();
                if !due {
                    return;
                }
            }
            TOKEN_APP_TICK => {
                let now = ctx.now();
                // Only applications that asked for ticks are visited, so
                // idle connections cost nothing per round.
                let slots = self.ram.table.members(Set::Tick);
                self.metrics.on_timer_visits(slots.len());
                let alive = self.app_up();
                for s in slots {
                    let slot = &mut self.ram.table[s];
                    let (sock, ctl) = (slot.sock(), slot.ctl.as_mut());
                    let (Some(sock), Some(ctl)) = (sock, ctl.filter(|c| alive && !c.closed)) else {
                        self.ram.table.remove(Set::Tick, s);
                        continue;
                    };
                    ctx.profile_enter(Component::App);
                    let actions = ctl.app.on_tick(now);
                    ctx.profile_exit();
                    // Applying the actions is the endpoint's send / close /
                    // abort: TCP work, like the same calls under `flush`.
                    ctx.profile_enter(Component::Tcp);
                    self.apply_app_actions(now, sock, actions);
                    ctx.profile_exit();
                }
                ctx.set_timer(APP_TICK, TOKEN_APP_TICK);
            }
            TOKEN_PING => {
                let due = self.ram.net_detect.probe_due();
                if ctx.timer_due(&mut self.ram.ping_timer, due, TOKEN_PING) {
                    if let Some((id, seq)) = self.ram.net_detect.probe(ctx.now()) {
                        let _ = self.iface.send_ping(ctx, self.setup.gateway_ip, id, seq);
                    }
                    let due = self.ram.net_detect.probe_due();
                    ctx.rearm_timer(&mut self.ram.ping_timer, due, TOKEN_PING);
                }
            }
            TOKEN_TAKEOVER => {
                self.complete_takeover(ctx);
            }
            // (A fire other than the recorded one was superseded.)
            TOKEN_LIVENESS if self.ram.liveness_timer == Some(ctx.now()) => {
                self.ram.liveness_timer = None;
                self.check_liveness(ctx);
            }
            _ => {}
        }
        self.flush(ctx);
    }

    fn on_power_off(&mut self) {
        self.ram.powered_off = true;
    }

    fn on_power_on(&mut self, ctx: &mut NodeCtx<'_>) {
        // Every reboot rejoins (DESIGN §9), whatever role this host held:
        // a fresh backup tapping suppressed with the shared ISN, so
        // connections opened from now replicate from their SYN and older
        // ones arrive as snapshots; not fault-tolerant until the join
        // completes. (An active rebooted faster than its peer's liveness
        // timeout is condemned as defunct, `HbSource`, and stays off.)
        let now = ctx.now();
        self.boot(Role::Backup, now);
        self.ram.ft_mode = false;
        self.ram.join = Join::boot(now);
        self.events
            .push(StTcpEvent::ReintegrationStarted { at: now });
        if let Some(session) = self.ram.join.awaiting() {
            self.send_ctrl(ctx, &CtrlMsg::JoinRequest { session });
        }
        // The power-off invalidated every pending timer (epoch bump); arm
        // a fresh set.
        self.start_rounds(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::EchoApp;
    use crate::heartbeat::HbFrameKind;
    use simnet::mac::MacAddr;
    use simtcp::socket::FourTuple;

    const PEER: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 3);

    fn setup(role: Role) -> ServerSetup {
        ServerSetup {
            role,
            sttcp: StTcpConfig::default(),
            tcp: TcpConfig::default(),
            service_ip: Ipv4Addr::new(10, 0, 0, 100),
            service_port: 80,
            private_ip: Ipv4Addr::new(10, 0, 0, 2),
            gateway_ip: Ipv4Addr::new(10, 0, 0, 1),
            isn_salt: 42,
            seed: 7,
            rank: 0,
            peers: vec![PoolPeer {
                rank: 0,
                ip: PEER,
                node: NodeId(1),
            }],
            pool: false,
        }
    }

    fn server(role: Role) -> StTcpServer {
        let s = setup(role);
        let mut iface = IpInterface::new(NicId(0), MacAddr::unicast(2), s.private_ip);
        iface.add_alias(s.service_ip);
        iface.add_arp(PEER, MacAddr::unicast(3));
        iface.add_arp(s.gateway_ip, MacAddr::unicast(1));
        StTcpServer::new(
            s,
            iface,
            Box::new(|| Box::new(EchoApp::default()) as Box<dyn Application>),
        )
    }

    #[test]
    fn constructs_with_expected_initial_state() {
        let s = server(Role::Backup);
        assert_eq!(s.role(), Role::Backup);
        assert!(s.ft_mode());
        assert!(s.events().is_empty());
        assert_eq!(s.took_over_at(), None);
        assert!(s.conn_keys().is_empty());
        assert!(format!("{s:?}").contains("backup") || format!("{s:?}").contains("Backup"));
    }

    /// Backup `PEER`'s heartbeat round `seqno`: one record, confirming
    /// `lbr` bytes of connection `key`.
    fn round(seqno: u32, key: u32, lbr: u64) -> HbPayload {
        let rec = ConnHb {
            key,
            last_byte_received: lbr,
            ..Default::default()
        };
        let (role, rank, conns, ping) = (Role::Backup, 1, vec![rec], None);
        HbPayload {
            seqno,
            role,
            rank,
            conns,
            ping,
        }
    }

    #[test]
    fn handle_heartbeat_updates_monitors_and_peer_state() {
        let mut s = server(Role::Primary);
        let t = SimTime::from_millis(100);
        let mut hb = round(1, 0xabc, 1_000);
        hb.conns[0].last_app_byte_read = 950;
        s.handle_heartbeat(t, &hb, None, PEER, 1);
        let peer = &s.ram.members[&PEER].hb;
        assert_eq!(peer.serial_mon.last_rx(), Some(t));
        assert_eq!(peer.ip_mon.last_rx(), None);
        let p = s.followed_pos(s.ram.table.by_key(0xabc).unwrap()).unwrap();
        assert_eq!(p.last_byte_received, 1_000);
        assert_eq!(p.last_app_byte_read, 950);
        // One regressing counter condemns the whole frame, and a dropped
        // frame leaves no slot behind for a key it was the first to name.
        let mut lie = hb;
        lie.seqno = 2;
        lie.conns[0].last_byte_received = 999;
        lie.conns.push(ConnHb::default());
        s.handle_heartbeat(t, &lie, None, PEER, 1);
        assert_eq!(s.metrics.byzantine_rejected(), 1);
        assert_eq!(s.ram.table.by_key(0), None);
    }

    /// A SYN from `remote` to the service address, as the server's NIC
    /// would deliver it.
    fn syn_from(remote: (Ipv4Addr, u16), service: (Ipv4Addr, u16)) -> Ipv4Packet {
        let mut client = TcpEndpoint::new(EndpointConfig::default());
        let _ = client.connect(SimTime::ZERO, remote, service);
        client.poll_packets(SimTime::ZERO).remove(0)
    }

    #[test]
    fn conn_key_collision_is_counted_and_displaces_the_older_socket() {
        let mut s = server(Role::Primary);
        let service = (s.setup.service_ip, s.setup.service_port);
        s.ram.tcp.listen(service.1, ListenConfig::default());
        // Forge two client tuples whose 32-bit FNV keys collide
        // (birthday search: ~2^16 tuples suffice).
        let mut seen = std::collections::BTreeMap::<u32, (Ipv4Addr, u16)>::new();
        let (a, b) = (0..u32::MAX)
            .find_map(|i| {
                let remote = (
                    Ipv4Addr::from(0x0a01_0000 + (i >> 14)),
                    1024 + (i & 0x3fff) as u16,
                );
                let key = conn_key(FourTuple {
                    local: service,
                    remote,
                });
                seen.insert(key, remote).map(|earlier| (earlier, remote))
            })
            .expect("a 32-bit hash collides long before 2^32 tuples");
        let now = SimTime::ZERO;
        for (i, remote) in [a, b].into_iter().enumerate() {
            s.ram.tcp.on_packet(now, &syn_from(remote, service));
            assert!(s.drain_tcp_events(now, &mut Profiler::new()));
            assert_eq!(s.metrics.conn_key_collisions(), i as u64);
        }
        // Both sockets live on in the endpoint, but only the newer one is
        // indexed, heartbeated and sampled.
        assert_eq!(s.ram.table.socks().count(), 2);
        assert_eq!(s.conn_keys().len(), 1);
        assert_eq!(s.ram.tcp.totals().live, 1);
        assert!(s
            .metrics
            .to_json()
            .to_string()
            .contains("\"conn_key_collisions\":1"));
        // The same tuple re-accepted after a close rebinds its own key:
        // a replacement, not a collision.
        let sock = s.sock_of(conn_key(FourTuple {
            local: service,
            remote: b,
        }));
        let sock = sock.expect("the newer socket holds the key");
        s.ram.tcp.abort(now, sock);
        s.ram.tcp.on_packet(now, &syn_from(b, service));
        assert!(s.drain_tcp_events(now, &mut Profiler::new()));
        assert_eq!(s.ram.table.socks().count(), 3);
        assert_eq!(s.metrics.conn_key_collisions(), 1);
        assert_eq!(s.ram.tcp.totals().live, 1);
    }

    /// A replica that asks for every tick (the trait default) and opens
    /// with more output than a send buffer holds.
    struct Chatty;

    impl Application for Chatty {
        fn on_open(&mut self) -> Vec<AppAction> {
            vec![AppAction::Write(Bytes::from(vec![0; 1 << 20]))]
        }

        fn on_data(&mut self, _: &Bytes) -> Vec<AppAction> {
            Vec::new()
        }
    }

    /// The rebuilt TCP stack reissues socket ids from zero, so a warm
    /// reboot must forget every set that names sockets — before the
    /// first snapshot installs, no tick, flush or detector visit may be
    /// owed to a pre-crash id.
    #[test]
    fn warm_reboot_forgets_every_active_set() {
        let setup = setup(Role::Primary);
        let service = (setup.service_ip, setup.service_port);
        let mut iface = IpInterface::new(NicId(0), MacAddr::unicast(2), setup.private_ip);
        iface.add_alias(setup.service_ip);
        iface.add_arp(PEER, MacAddr::unicast(3));
        let server = StTcpServer::new(setup, iface, Box::new(|| Box::new(Chatty) as _));
        let mut world = simnet::world::World::new(1);
        let node = world.add_node("primary", Box::new(server));
        world.add_nic(node, MacAddr::unicast(2));
        world.start();
        let s = world.node_mut::<StTcpServer>(node).expect("server type");
        for port in 4000..4003 {
            let syn = syn_from((Ipv4Addr::new(10, 0, 0, 1), port), service);
            s.ram.tcp.on_packet(SimTime::ZERO, &syn);
        }
        assert!(s.drain_tcp_events(SimTime::ZERO, &mut Profiler::new()));
        for set in [Set::Tick, Set::OutBlocked, Set::Check] {
            assert_eq!(s.ram.table.set_len(set), 3, "{set:?} before the crash");
        }
        world.crash_node(node);
        world.restore_node(node);
        let s = world.node::<StTcpServer>(node).expect("server type");
        assert!(s.ram.join.joining(), "rebooted into a join");
        assert_eq!(s.ram.table.socks().count(), 0);
        for set in Set::ALL {
            assert_eq!(s.ram.table.set_len(set), 0, "{set:?} survived the reboot");
        }
    }

    /// A server in `role` holding 10 bytes of one client connection, its
    /// endpoint's touched feed and totals drained; and the key.
    fn holding(role: Role) -> (StTcpServer, u32) {
        let (mut s, now) = (server(role), SimTime::ZERO);
        let client = (Ipv4Addr::new(10, 0, 1, 10), 4000);
        let syn = syn_from(client, (s.setup.service_ip, 80));
        s.ram.tcp.on_packet(now, &syn);
        s.drain_tcp_events(now, &mut Profiler::new());
        let key = s.conn_keys()[0];
        let data = Bytes::from(vec![7; 10]);
        s.ram.tcp.inject_in_order(s.sock_of(key).unwrap(), 0, &data);
        s.ram.tcp.totals();
        s.ram.tcp.drain_touched();
        (s, key)
    }

    /// A peer host that never speaks.
    struct Dead;

    impl Node for Dead {
        fn on_frame(&mut self, _: &mut NodeCtx<'_>, _: NicId, _: EthernetFrame) {}
        fn on_timer(&mut self, _: &mut NodeCtx<'_>, _: TimerToken) {}
    }

    /// A v1 backup whose primary falls silent takes over alone: no round
    /// reads the touched feed until a join, so it must not pile up: one
    /// socket touched per check tick leaves at most a heartbeat period's 4.
    #[test]
    fn a_lone_survivors_touched_feed_stays_bounded() {
        let (s, key) = holding(Role::Backup);
        let (sock, x) = (s.sock_of(key).unwrap(), Bytes::from_static(b"x"));
        let mut world = simnet::world::World::new(1);
        let node = world.add_node("backup", Box::new(s));
        world.add_node("primary", Box::new(Dead)); // `setup`'s peer node
        world.start();
        for tick in 0..100 {
            world.run_until(SimTime::from_millis(1_000 + 50 * tick));
            let s = world.node_mut::<StTcpServer>(node).expect("server type");
            assert!(s.ram.holes.is_some() && !s.ram.ft_mode && s.ram.tcp.conn(sock).is_some());
            s.ram.tcp.inject_in_order(sock, 10 + tick, &x);
            let n = s.ram.hb.touched();
            assert!(n <= 4, "{n} touched sockets held after {tick} ticks");
        }
    }

    /// Every pair verdict is one accusation of the judged member: row 1,
    /// the watchdog's report and the hold overflow each log the verdict,
    /// then a STONITH that powers the judged node off — once, though the
    /// silent peer's row 1 follows every other verdict.
    #[test]
    fn every_pair_verdict_is_one_accusation_of_the_judged_member() {
        use FailureReason::{HbBothLinksDown, HoldOverflow, WatchdogReport};
        let backup = [HbBothLinksDown, WatchdogReport].map(|why| (Role::Backup, why));
        for (role, why) in backup.into_iter().chain([(Role::Primary, HoldOverflow)]) {
            let (mut s, key) = holding(role);
            let judged = s.ram.judged().map(|(ip, m)| (ip, m.node));
            assert_eq!(judged, Some((PEER, NodeId(1))));
            let conn = s.ram.tcp.conn_mut(s.sock_of(key).unwrap()).unwrap();
            match why {
                WatchdogReport => s.ram.members.get_mut(&PEER).unwrap().app_suspected = true,
                HoldOverflow => {
                    conn.enable_hold(4);
                    conn.inject_in_order(10, &Bytes::from(vec![7; 5]));
                }
                _ => {}
            }
            let mut world = simnet::world::World::new(1);
            let node = world.add_node("server", Box::new(s));
            let peer = world.add_node("peer", Box::new(Dead));
            world.start();
            world.run_until(SimTime::from_millis(2_000));
            let s = world.node::<StTcpServer>(node).expect("server type");
            let log = s.events().iter().filter_map(|e| match *e {
                StTcpEvent::PeerDeclaredFailed { reason, .. } => Some(Some(reason)),
                StTcpEvent::StonithIssued { .. } => Some(None),
                _ => None,
            });
            assert_eq!(log.collect::<Vec<_>>(), [Some(why), None], "{role:?}");
            assert!(!world.is_powered(peer), "{why:?}: the judged node is off");
        }
    }

    #[test]
    fn a_settle_that_releases_nothing_touches_nothing() {
        let ((mut s, key), t) = (holding(Role::Primary), SimTime::from_millis(1));
        s.handle_heartbeat(t, &round(1, key, 0), None, PEER, 0);
        assert_eq!(s.ram.tcp.totals_stale(), 0);
        assert!(s.ram.tcp.drain_touched().is_empty());
        s.handle_heartbeat(t, &round(2, key, 4), None, PEER, 0);
        assert_eq!(s.ram.tcp.totals().hold, 6);
    }

    #[test]
    fn a_same_round_copy_on_a_second_link_is_not_settled_again() {
        let ((mut s, key), t) = (holding(Role::Primary), SimTime::from_millis(1));
        let frame = |seqno| HbFrame {
            kind: HbFrameKind::Delta,
            epoch: 5,
            link: 0,
            ack_epoch: 0,
            part: 0,
            parts: 1,
            acks: Vec::new(),
            hb: round(seqno, key, 4),
        };
        let (one, two) = (frame(1), frame(2));
        s.handle_heartbeat(t, &one.hb, Some(&one), PEER, 0);
        // The IP heartbeat reads down: the tick only ages FIN deadlines.
        s.ram.app_detect.engage(t, false, None);
        s.check_conns(t);
        assert_eq!(s.ram.table.set_len(Set::Check), 0, "drained by the tick");
        s.handle_heartbeat(t, &one.hb, Some(&one), PEER, 1);
        assert_eq!(s.ram.table.set_len(Set::Check), 0);
        s.handle_heartbeat(t, &two.hb, Some(&two), PEER, 0);
        assert_eq!(s.ram.table.set_len(Set::Check), 1);
    }

    #[test]
    fn peer_fin_flag_is_sticky() {
        let mut s = server(Role::Primary);
        let (mut hb_fin, hb_nofin) = (round(1, 1, 0), round(2, 1, 0));
        hb_fin.conns[0].fin_generated = true;
        s.handle_heartbeat(SimTime::from_millis(1), &hb_fin, None, PEER, 0);
        s.handle_heartbeat(SimTime::from_millis(2), &hb_nofin, None, PEER, 0);
        let p = s.followed_pos(s.ram.table.by_key(1).unwrap()).unwrap();
        assert!(p.fin_or_rst);
    }
}
