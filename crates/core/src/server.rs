//! The ST-TCP server node: ties the TCP stack, the replica application,
//! the heartbeat engine, every failure detector, and recovery together.
//!
//! One [`StTcpServer`] instance runs on each of the two server hosts; the
//! [`crate::config::Role`] decides its behaviour:
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
use std::collections::BTreeSet;
use std::net::Ipv4Addr;

use simnet::flight::{FlightKind, SpanId};
use simnet::frame::EthernetFrame;
use simnet::ip::{IpProto, Ipv4Packet};
use simnet::iplayer::IpInterface;
use simnet::node::{NicId, Node, NodeCtx, NodeId, SerialPortId, TimerToken};
use simnet::profile::{Component, Profiler};
use simnet::time::{SimDuration, SimTime};

use simtcp::conn::{ConnStats, TcpConfig, TcpConn, TcpSnapshot, TcpState};
#[cfg(debug_assertions)]
use simtcp::endpoint::EndpointTotals;
use simtcp::endpoint::{
    EgressMode, EndpointConfig, FinGate, IsnPolicy, ListenConfig, RstPolicy, TcpEndpoint,
};
use simtcp::segment::peek_segment;
use simtcp::seq::SeqNum;
use simtcp::socket::{FourTuple, SocketEvent, SocketId};

use crate::app::{AppAction, AppFactory, Application};
use crate::config::{
    Role, StTcpConfig, APP_TICK, GAP_GIVEUP, NET_LAG_BYTES, NET_LAG_TIME, PING_INTERVAL,
    STONITH_DELAY,
};
use crate::conntable::{ConnCtl, ConnTable, HbCacheEntry, Set, SlotId};
use crate::events::{FailureReason, HbLink, StTcpEvent};
use crate::finarb::{ArbAction, FinArbiter};
use crate::heartbeat::{
    conn_key, decode_any, AnyHb, ConnHb, HbFrame, HbFrameKind, HbPayload, PingReport,
};
use crate::linkmon::next_silence;
use crate::metrics::{HbBandwidth, ServerMetrics};
use crate::netdetect::{NetFailureDetector, NetObservation};
use crate::pool::{
    followed, live_non_fenced, member_table, quorum_needed, seq_newer, FenceRound, MemberState,
    Members, PeerConn, PoolPeer, PoolState, RxBatch,
};
use crate::recover::{ConnSnapshotMsg, CtrlMsg, MAX_FETCH_DATA};

/// The IP protocol number carrying the server-to-server recovery channel.
pub const CTRL_PROTO: IpProto = IpProto::Other(254);

/// The wire role byte both heartbeat endpoints derive span ids from.
fn role_byte(role: Role) -> u8 {
    match role {
        Role::Primary => 0,
        Role::Backup => 1,
    }
}

/// Derives a boot-incarnation epoch for the delta-heartbeat protocol from
/// the boot instant: deterministic (replay-stable), distinct across
/// reboots within one run, and never 0 — a zero epoch always means "none
/// seen yet".
fn epoch_from(now: SimTime) -> u32 {
    let n = now.as_micros();
    ((n ^ (n >> 32)) as u32) | 1
}

/// The stable numeric code a verdict's [`FailureReason`] gets in flight
/// events (the index into [`FailureReason::ALL`]).
pub fn reason_code(reason: FailureReason) -> u32 {
    FailureReason::ALL
        .iter()
        .position(|&r| r == reason)
        .unwrap() as u32
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

/// How an injected byzantine heartbeat lies (testing): the sender's
/// payloads remain CRC-valid on the wire but are semantically corrupt,
/// so only the receiver's sanity check can stop them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ByzantineHbMode {
    /// Re-send the same seqno forever. Receivers must treat the frozen
    /// payload as stale — counting it as liveness is fine, re-applying
    /// its counters is not.
    Freeze,
    /// Advance the seqno but regress the per-connection cumulative
    /// counters to impossible values. Receivers must reject the whole
    /// payload (quarantine) rather than mis-verdict a healthy peer.
    Regress,
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

/// Re-integration join progress on a rebooted server (the *joiner* side).
///
/// The session nonce scopes every snapshot to one boot of the joiner, so
/// stale snapshots from an earlier join attempt are ignored. The join is
/// complete once all `expected` connections announced by `JoinDone` are
/// installed *and* the local tap has converged with the active peer's
/// heartbeat positions.
#[derive(Debug)]
struct JoinState {
    session: u32,
    /// Connection count from the active peer's `JoinDone`; `None` until it
    /// arrives.
    expected: Option<u32>,
    /// Connection keys whose snapshots were installed (or found already
    /// live via the tap).
    installed: BTreeSet<u32>,
}

/// Gateway-ping campaign state.
#[derive(Debug, Clone, Copy, Default)]
struct PingCampaign {
    active: bool,
    id: u16,
    seq: u16,
    awaiting: Option<u16>,
    consecutive_failures: u32,
    attempts: u32,
}

impl PingCampaign {
    fn report(&self) -> PingReport {
        PingReport {
            consecutive_failures: self.consecutive_failures,
            attempts: self.attempts,
        }
    }
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
    // ----- heartbeat sender state -----
    /// This boot incarnation; acks from a previous incarnation are void.
    hb_epoch: u32,
    /// Sockets the endpoint reported touched that no heartbeat round has
    /// looked at yet (see [`StTcpServer::absorb_touched`]); dropped at
    /// each heartbeat tick that runs no round.
    hb_touched: Vec<SocketId>,
    /// Heartbeat-round scratch, kept for its capacity:
    /// the candidate `(key, slot)`s, the records owed to each member, and
    /// one member's records per link. (Each member's own stream state is
    /// on its [`MemberState`].)
    hb_cands: Vec<(u32, SlotId)>,
    hb_owed: Vec<Vec<ConnHb>>,
    hb_link_recs: Vec<Vec<ConnHb>>,

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
    /// whenever the peer's acks are voided; `Hole` — the endpoint's
    /// touched feed after a takeover (out-of-order bytes only appear on
    /// packet receipt); `OutBlocked`, `Tick` — re-evaluated after every
    /// write attempt / application callback; `Check` — any local or
    /// peer activity, kept while a FIN-arbitration deadline or lag
    /// tracker must keep aging.
    table: ConnTable,

    /// The other servers — the pair's one peer, or the pool — each one
    /// record of everything this server knows about it.
    members: Members,

    net_detect: NetFailureDetector,
    ping: PingCampaign,

    hb_seq: u32,
    /// Byzantine heartbeat fault injection, if armed (testing).
    byz_mode: Option<ByzantineHbMode>,
    /// The pool's round state (`None` in pair mode).
    pool: Option<PoolState>,
    took_over: bool,
    /// Re-integration: `Some` while this (rebooted) server is joining the
    /// active peer's live connections.
    join: Option<JoinState>,
    /// Re-integration: `Some(session)` while this (active) server is
    /// feeding snapshots to a joining peer.
    serving_join: Option<u32>,
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
        Ram {
            hb_epoch: epoch_from(now),
            hb_touched: Vec::new(),
            hb_cands: Vec::new(),
            hb_owed: Vec::new(),
            hb_link_recs: Vec::new(),
            tcp: endpoint,
            app: AppLife::Alive,
            role,
            ft_mode: true,
            table: ConnTable::default(),
            members: member_table(&setup.peers, &setup.sttcp, now, cables),
            net_detect: NetFailureDetector::new(
                NET_LAG_BYTES,
                NET_LAG_TIME,
                setup.sttcp.effective_lag_confirm(),
            ),
            ping: PingCampaign {
                id: (setup.seed & 0xffff) as u16,
                ..Default::default()
            },
            hb_seq: 0,
            byz_mode: None,
            // Boots with the static rank; a rejoin's `JoinDone` hands
            // over the fresh one.
            pool: setup.pool.then(|| PoolState::new(setup.rank, &setup.peers)),
            took_over: false,
            join: None,
            serving_join: None,
            tcp_timer: None,
            liveness_timer: None,
            pkts: Vec::new(),
            powered_off: false,
        }
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

    /// The [`followed`] member: the pair's peer, the pool's active.
    fn followed_member(&self) -> Option<&MemberState> {
        followed(self.ram.pool.as_ref(), &self.ram.members).map(|(_, m)| m)
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

    /// The heartbeat record describing the slot's socket right now.
    fn conn_record(&self, s: SlotId, conn: &TcpConn) -> ConnHb {
        let ctl = self.ram.table[s].ctl.as_ref();
        let open = ctl.is_some_and(|c| !c.closed && !c.close_issued);
        ConnHb {
            key: self.ram.table[s].key(),
            last_byte_received: conn.bytes_received(),
            last_ack_received: conn.last_ack_received(),
            last_app_byte_written: conn.app_bytes_written(),
            last_app_byte_read: conn.app_bytes_read(),
            fin_generated: conn.fin_generated(),
            rst_generated: conn.rst_generated(),
            app_suspected: self.ram.app == AppLife::Suspected && open,
        }
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

    /// The table's share of voiding a member's acks of this server's
    /// heartbeat frames (its new incarnation, a takeover, a join): every
    /// cached record counts as unacknowledged again.
    fn unack_cached(&mut self) {
        let cached: Vec<SlotId> = self.ram.table.cached().map(|(s, _)| s).collect();
        for s in cached {
            self.ram.table.insert(Set::Unacked, s);
        }
    }

    /// Drains the endpoint's touched feed into its two consumers: the
    /// next heartbeat round (records that may have changed) and,
    /// after a takeover, the receive-hole check. Both the heartbeat and
    /// the check timer call this, so neither starves the other.
    fn absorb_touched(&mut self) {
        let touched = self.ram.tcp.drain_touched();
        self.metrics.on_timer_visits(touched.len());
        if self.ram.took_over {
            for &sock in &touched {
                if let Some(s) = self.ram.table.by_sock(sock) {
                    self.ram.table.insert(Set::Hole, s);
                }
            }
        }
        self.ram.hb_touched.extend(touched);
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

    /// Gives every connection one detector evaluation.
    fn check_every_conn(&mut self) {
        for (_, s) in self.all_socks() {
            self.ram.table.insert(Set::Check, s);
        }
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
        if let Some((_, key)) = self
            .scan_unacked()
            .find(|&(s, _)| !self.ram.table.contains(Set::Unacked, s))
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
    /// backup after takeover). At most one server in a pair may ever be
    /// active at once — the chaos invariant checker enforces this.
    pub fn is_active(&self) -> bool {
        !self.ram.powered_off && self.ram.role == Role::Primary
    }

    /// This server's current pool rank (reassigned on rejoin), or its
    /// static configured rank in pair mode.
    pub fn pool_rank(&self) -> u8 {
        self.ram
            .pool
            .as_ref()
            .map_or(self.setup.rank, |p| p.my_rank)
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
        self.ram.byz_mode = Some(mode);
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

    /// Sends one heartbeat frame of `conns` records, counts it into
    /// `round` and records its `HbEmit` — none of the three for an
    /// unresolved IP destination or a packet over 65 535 B.
    #[allow(clippy::too_many_arguments)]
    fn emit_hb(
        &self,
        ctx: &mut NodeCtx<'_>,
        round: &mut HbBandwidth,
        span: SpanId,
        seqno: u32,
        link: u8,
        via: Via,
        wire: &Bytes,
        conns: u32,
    ) {
        let bytes = wire.len() as u32;
        match via {
            Via::Ip(to) => {
                let Some(frame) = self.iface.frame_to(to, IpProto::Heartbeat, wire.clone()) else {
                    return;
                };
                ctx.send_frame(self.iface.nic, frame);
            }
            Via::Serial(port) => ctx.send_serial(port, wire.clone()),
        }
        round.add_frame(u64::from(conns), u64::from(bytes));
        let kind = FlightKind::HbEmit {
            seqno,
            link,
            bytes,
            conns,
        };
        ctx.flight(span, SpanId::NONE, kind);
    }

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
        let m = self.followed_member()?;
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
        let m = &self.ram.members[&src];
        let mut refollow = false;
        if let Some(pool) = &mut self.ram.pool {
            if hb.role == Role::Primary && pool.active_rank != m.rank {
                pool.active_rank = m.rank;
                refollow = true;
            }
        }
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
            self.unack_cached();
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
        // The member's cumulative acks of our frames, valid only while
        // they refer to this boot incarnation.
        if let Some(f) = f.filter(|f| f.ack_epoch == self.ram.hb_epoch) {
            m.ack_epoch = f.ack_epoch;
            for (l, &a) in m.links.iter_mut().zip(&f.acks) {
                if a != 0 && (l.acked == 0 || seq_newer(a, l.acked)) {
                    l.acked = a;
                }
            }
        }
        // Equal seqno is the same round's frame on another link: vetted,
        // then skipped per record like a strictly older one.
        self.apply_records(now, hb, src);
    }

    /// The replaced whole-cache selection walk, kept as the differential
    /// oracle for the unacked set: every cached record some unfenced
    /// member's acks do not cover, in key order.
    fn scan_unacked(&self) -> impl Iterator<Item = (SlotId, u32)> + '_ {
        let (epoch, members) = (self.ram.hb_epoch, &self.ram.members);
        let owed = move |key, changed_at| {
            (members.values()).any(|m| !m.fenced && !m.covers(epoch, key, changed_at))
        };
        let cached = self.ram.table.cached();
        cached
            .filter(move |(_, e)| owed(e.rec.key, e.changed_at))
            .map(|(s, e)| (s, e.rec.key))
    }

    /// One heartbeat round, member by member: each gets full state
    /// until it has acknowledged this boot incarnation (covering loss,
    /// takeover, reboot, and join without any extra signalling), then
    /// the dirty-until-acked records its own acks do not cover. Under
    /// `hb_delta` a member gets every record on its address and shard
    /// `key % n` on the `n` cables to it; otherwise (v1) it never
    /// acknowledges, so it gets the whole cache: the round's one v1
    /// frame, copied to every link.
    fn send_heartbeats(&mut self, ctx: &mut NodeCtx<'_>) {
        // A frozen byzantine sender re-uses the last seqno forever;
        // receivers treat the payload as stale and never re-apply it.
        if self.ram.byz_mode != Some(ByzantineHbMode::Freeze) {
            self.ram.hb_seq = self.ram.hb_seq.wrapping_add(1);
        }
        let now = ctx.now();
        let (seq, epoch) = (self.ram.hb_seq, self.ram.hb_epoch);
        let regress = self.ram.byz_mode == Some(ByzantineHbMode::Regress);
        let v1 = !self.setup.sttcp.hb_delta;
        // Owed full state: a v1 member, fenced or not; an unfenced member
        // with no valid acks for this incarnation yet (a fenced one is
        // owed nothing until it rejoins, which voids its acks anyway) —
        // or every member, from a byzantine sender, which must lie about
        // every connection.
        let full = |m: &MemberState| regress || v1 || (!m.fenced && m.ack_epoch != epoch);
        let any_full = self.ram.members.values().any(|m| full(m));
        // Refresh the record cache. The candidates are the endpoint's
        // touched feed plus every record that may still await an ack, so
        // idle connections cost nothing per heartbeat period; the one
        // signal that changes with *time* is the watchdog's (§4.2.2
        // extension) report of a crash, made once, on the first round
        // `watchdog_timeout` or more after it: it changes every open
        // record, so that round refreshes every bound one. Key order,
        // each key once: a touched socket stands for whatever its key
        // resolves to now.
        self.absorb_touched();
        let report = match (self.ram.app, self.setup.sttcp.watchdog_timeout) {
            (AppLife::Crashed(at), Some(t)) => now.saturating_since(at) >= t,
            _ => false,
        };
        if report {
            self.ram.app = AppLife::Suspected;
        }
        let mut cands = std::mem::take(&mut self.ram.hb_cands);
        cands.clear();
        if any_full || report {
            cands.extend(self.ram.table.bound().map(|(key, s, _)| (key, s)));
        } else {
            let unacked = self.ram.table.members(Set::Unacked);
            let touched = self.ram.hb_touched.iter();
            let touched = touched.filter_map(|&sock| self.ram.table.by_sock(sock));
            let slots = touched.map(|s| self.ram.table.home(s)).chain(unacked);
            cands.extend(slots.map(|s| (self.ram.table[s].key(), s)));
            cands.sort_unstable();
            cands.dedup();
        }
        self.ram.hb_touched.clear();
        self.metrics.on_timer_visits(cands.len());
        for &(_, s) in &cands {
            let conn = self.ram.table[s]
                .sock()
                .and_then(|sock| self.ram.tcp.conn(sock));
            let Some(rec) = conn.map(|conn| self.conn_record(s, conn)) else {
                self.ram.table[s].cache = None;
                continue;
            };
            if self.ram.table[s].cache.is_some_and(|e| e.rec == rec) {
                continue;
            }
            self.ram.table[s].cache = Some(HbCacheEntry {
                rec,
                changed_at: seq,
            });
            self.ram.table.insert(Set::Unacked, s);
        }
        self.ram.hb_cands = cands;
        // What each member is owed, in key order: the whole cache, or the
        // records its acks do not cover — all in the unacked set, which
        // sheds a record once every unfenced member's acks cover it (acks
        // only advance between resets: it never needs another look).
        let mut owed = std::mem::take(&mut self.ram.hb_owed);
        owed.resize_with(self.ram.members.len(), Vec::new);
        owed.iter_mut().for_each(Vec::clear);
        let slots: Vec<SlotId> = match any_full {
            true => self.ram.table.cached().map(|(s, _)| s).collect(),
            false => self.ram.table.members(Set::Unacked),
        };
        self.metrics.on_timer_visits(slots.len());
        // Every v1 member is owed the whole cache: the first one's list
        // stands for all of them, and its payload is encoded once.
        let (members, table) = (&self.ram.members, &mut self.ram.table);
        for s in slots {
            let Some(e) = table[s].cache else {
                table.remove(Set::Unacked, s);
                continue;
            };
            let mut rec = e.rec;
            // Cumulative counters never shrink: a regression is the
            // canonical semantically-impossible lie.
            if regress {
                rec.last_byte_received = rec.last_byte_received.saturating_sub(100_000);
                rec.last_app_byte_read = rec.last_app_byte_read.saturating_sub(100_000);
            }
            let mut owed_any = false;
            for (i, (recs, m)) in owed.iter_mut().zip(members.values()).enumerate() {
                let owes = full(m) || !m.covers(epoch, rec.key, e.changed_at);
                if owes && !(v1 && i > 0) {
                    recs.push(rec);
                }
                owed_any |= owes && !m.fenced;
            }
            if !any_full && !owed_any {
                table.remove(Set::Unacked, s);
            }
        }
        #[cfg(debug_assertions)]
        if !any_full {
            let kept = self.ram.table.members(Set::Unacked);
            let kept = kept.iter().map(|&s| self.ram.table[s].key());
            debug_assert!(
                kept.eq(self.scan_unacked().map(|(_, key)| key)),
                "unacked set diverged from the whole-cache walk"
            );
        }
        let (role, rank) = (self.ram.role, self.pool_rank());
        let ping = self.ram.ping.active.then(|| self.ram.ping.report());
        // Both ends derive the span from wire-observable fields, so emit
        // and receive link up without any wire change.
        let span = SpanId::heartbeat(role_byte(role), rank, seq);
        let mut round = HbBandwidth::default();
        // Every member's share, link by link — its address, then its
        // cables — split into batch parts when it exceeds the batch knob;
        // a v1 member's is the one v1 payload of the round.
        let mut shards = std::mem::take(&mut self.ram.hb_link_recs);
        let mut v1_wire = None;
        for ((&ip, m), recs) in self.ram.members.iter().zip(&mut owed) {
            if v1 {
                let (wire, n) = v1_wire.get_or_insert_with(|| {
                    let conns = std::mem::take(recs);
                    let hb = HbPayload {
                        seqno: seq,
                        role,
                        rank,
                        conns,
                        ping,
                    };
                    let wire = (hb.encode(), hb.conns.len() as u32);
                    *recs = hb.conns;
                    wire
                });
                for (link, via) in self.links_to(ip).enumerate() {
                    self.emit_hb(ctx, &mut round, span, seq, link as u8, via, wire, *n);
                }
                continue;
            }
            let kind = match full(m) {
                true => HbFrameKind::Full,
                false => HbFrameKind::Delta,
            };
            shards.resize_with(m.links.len(), Vec::new);
            shards.iter_mut().for_each(Vec::clear);
            let recs = &*recs;
            for &rec in recs {
                shards[m.shard_link(rec.key)].push(rec);
            }
            for (link, via) in self.links_to(ip).enumerate() {
                let recs = if link == 0 { recs } else { &shards[link] };
                let (link, batch) = (link as u8, self.setup.sttcp.hb_batch);
                let frames = m.link_frames(kind, epoch, link, seq, role, rank, ping, recs, batch);
                for f in frames {
                    let n = f.hb.conns.len() as u32;
                    self.emit_hb(ctx, &mut round, span, seq, link, via, &f.encode(), n);
                }
            }
        }
        self.ram.hb_owed = owed;
        self.ram.hb_link_recs = shards;
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

    fn declare_peer_failed(&mut self, ctx: &mut NodeCtx<'_>, reason: FailureReason) {
        if !self.ram.ft_mode {
            return;
        }
        self.ram.ft_mode = false;
        // Parented to the last heartbeat this server accepted — the
        // final evidence before it condemned the peer.
        let node = self.followed_member().expect("a pair's peer").node;
        self.condemn(ctx, node, reason, self.last_hb_rx_span);
        // The pair's peer is the active exactly when this server is not.
        self.after_verdict(ctx, reason, self.ram.role == Role::Backup);
    }

    /// What follows a verdict in pair and pool alike, once `condemn` has
    /// STONITHed the member: a condemned active is taken over only after
    /// it is provably silent (power controller latency); an active left
    /// without a backup (`ft_mode` false) continues non-fault-tolerant —
    /// every FIN arbiter resolves as peer-failed, and with nobody to
    /// feed it stops holding client bytes.
    fn after_verdict(&mut self, ctx: &mut NodeCtx<'_>, reason: FailureReason, was_active: bool) {
        let now = ctx.now();
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
        self.ram.took_over = true;
        self.events.push(StTcpEvent::TookOver { at: now });
        // The takeover joins the verdict's span: the dump reads as one
        // chain, heartbeat evidence → verdict → STONITH → takeover.
        let tspan = if self.verdict_span.is_none() {
            SpanId::verdict(ctx.node_id().0 as u64, now.as_micros())
        } else {
            self.verdict_span
        };
        ctx.flight(
            tspan,
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
            let gap = self.followed_pos(s).and_then(|peer| {
                let mine = self.ram.tcp.conn(sock)?.bytes_received();
                (peer.last_byte_received > mine).then_some(mine)
            });
            if let Some(missing_from) = gap {
                self.events.push(StTcpEvent::UnrecoverableGap {
                    conn: key,
                    missing_from,
                    at: now,
                });
                self.ram.tcp.set_fin_gate(sock, FinGate::Open);
                self.ram.tcp.abort(now, sock);
                if let Some(ctl) = &mut self.ram.table[s].ctl {
                    ctl.closed = true;
                }
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
                if !matches!(conn.state(), TcpState::Closed) {
                    conn.rewind_unacked(now);
                }
            }
        }
        if let Some(pool) = &mut self.ram.pool {
            // The dead active's mirror served the gap check above; from
            // here the new active's own positions are authoritative.
            pool.active_rank = pool.my_rank;
        }
        // An active server never fetches.
        self.ram.table.clear_set(Set::Lag);
        // Connections may carry receive holes from their time as tapped
        // shadows: the first hole check looks at every one.
        for (_, s) in self.all_socks() {
            self.ram.table.insert(Set::Hole, s);
        }
        // Delta mode: every member's acks are void; a surviving backup or
        // a future joiner is served full-state frames until it
        // acknowledges this epoch.
        for m in self.ram.members.values_mut() {
            m.links.iter_mut().for_each(|l| l.acked = 0);
            m.ack_epoch = 0;
        }
        self.unack_cached();
        self.flush(ctx);
    }

    /// What heartbeat *silence* decides, as opposed to heartbeat contents:
    /// link up/down edges, Table 1 row 1 (both links silent), the start
    /// and end of row 4's ping campaign, and in pool mode a fence round.
    /// Runs when the liveness timer fires — the instant a link's timeout
    /// and jitter guard are both spent ([`crate::linkmon`]) — and on every
    /// check tick, which is what notices a link coming back; either way it
    /// leaves the one timer on the next instant a monitor can fall silent.
    fn check_liveness(&mut self, ctx: &mut NodeCtx<'_>) {
        let now = ctx.now();
        self.read_links(now);
        if self.ram.pool.is_none() {
            self.check_pair_liveness(ctx);
        } else if self.ram.join.is_none() {
            // (A joiner has no say over anyone's life.)
            ctx.profile_enter(Component::Pool);
            self.fence_tick(ctx);
            ctx.profile_exit();
        }
        // A silence further out than the next tick is the next tick's to
        // see coming: a pair whose heartbeats flow never arms the timer.
        // Whose silence counts: every member not yet fenced.
        let unfenced = self.ram.members.values().filter(|m| !m.fenced);
        let next = next_silence(unfenced.flat_map(|m| [&m.hb.ip_mon, &m.hb.serial_mon]), now);
        let want = next.filter(|&at| at <= now + self.setup.sttcp.check_period);
        ctx.rearm_timer(&mut self.ram.liveness_timer, want, TOKEN_LIVENESS);
    }

    /// Takes every member's link reading, and logs the [`followed`]
    /// member's edges (a change of who is followed logs nothing); an IP
    /// edge also re-baselines the lag detectors.
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
            if link == HbLink::Serial {
                continue;
            }
            let socks = self.all_socks();
            self.metrics.on_timer_visits(socks.len());
            for (_, s) in socks {
                if up {
                    // Lag that formed while the IP heartbeat was down
                    // marked nothing: every connection looks once.
                    self.ram.table.insert(Set::Check, s);
                } else if let Some(ctl) = &mut self.ram.table[s].ctl {
                    // App lag is now a symptom of the network fault: stale
                    // watermarks must not be a verdict when it returns.
                    ctl.applag.reset();
                }
            }
        }
    }

    /// The pair's share of [`StTcpServer::check_liveness`]: rows 1 and 4
    /// on its peer's link reading. Row 1 is [`MemberState::overdue`], which
    /// opens a pool's fence round; its two silences equal `!ip_up && !serial_up`
    /// here, as `read_links(now)` has just set each to `!is_silent(now)`.
    fn check_pair_liveness(&mut self, ctx: &mut NodeCtx<'_>) {
        let peer = self.followed_member().expect("a pair's peer");
        let (overdue, ip_alive) = (peer.overdue(ctx.now()), peer.hb.ip_up);
        if !self.ram.ft_mode {
            return;
        }
        if overdue {
            // Row 1: the peer host is gone, or heard only as a defunct restart.
            self.declare_peer_failed(ctx, FailureReason::HbBothLinksDown);
        } else if !ip_alive {
            // Row 4 opens: the gateway pings that will say whose network
            // failed. The verdict waits for evidence, on the check tick.
            if !self.ram.ping.active {
                self.ram.ping.active = true;
                self.ram.ping.awaiting = None;
                self.ram.ping.consecutive_failures = 0;
                self.ram.ping.attempts = 0;
                ctx.set_timer(SimDuration::ZERO, TOKEN_PING);
            }
        } else {
            self.ram.ping.active = false;
            self.ram.net_detect.reset();
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
        if self.ram.join.is_some() {
            self.run_recovery(ctx);
            self.try_finish_join(ctx);
        }

        // Not fault-tolerant — a lone server, a joiner, or row 1 a
        // moment ago in `check_liveness` — means nothing left to judge.
        if !self.ram.ft_mode {
            return;
        }

        // Table 1's rows 2–5 judge the pair's one peer. A pool's one
        // verdict is the quorum fence (ROADMAP item 7(b)): its walk only
        // ages FIN deadlines, and an arbiter that runs out resolves itself.
        if self.ram.pool.is_none() {
            // Row 4: IP heartbeat dead, serial alive ⇒ local network
            // failure somewhere; figure out whose from what the pings and
            // the serial heartbeat's contents say.
            let peer = self.followed_member().expect("a pair's peer");
            let (ip_alive, serial_alive) = (peer.hb.ip_up, peer.hb.serial_up);
            let (app_suspected, last_rx) = (peer.app_suspected, peer.hb.last_rx());
            if !ip_alive && serial_alive {
                let obs = self.net_observation();
                if let Some(reason) = self.ram.net_detect.check(now, &obs) {
                    self.declare_peer_failed(ctx, reason);
                    return;
                }
            }
            // Rows 2/3 compare application positions against the peer's
            // heartbeat, which is only meaningful while heartbeats are
            // *fresh*: a dead host's last heartbeat frozen in time must be
            // handled by the liveness detector (row 1), not misread as an
            // application crash.
            let hb_staleness = last_rx.map(|t| now.saturating_since(t));
            let hb_fresh = hb_staleness.is_some_and(|s| {
                s <= self.setup.sttcp.hb_period + self.setup.sttcp.check_period * 2
            });
            if let Some(reason) = self.check_conns(now, Some((ip_alive, hb_fresh))) {
                self.declare_peer_failed(ctx, reason);
                return;
            }
            // §4.2.2 extension: the peer's own watchdog reported its
            // replica dead. A self-report is actionable even on an idle
            // connection — exactly the case the transport-layer detectors
            // cannot see.
            if app_suspected {
                self.declare_peer_failed(ctx, FailureReason::WatchdogReport);
                return;
            }
            // Row 5 escalation: the primary's hold buffer overflowed — the
            // backup cannot catch up. (Sampled with the totals above.)
            if self.ram.role == Role::Primary && totals.hold_overflows > 0 {
                self.declare_peer_failed(ctx, FailureReason::HoldOverflow);
                return;
            }
        } else {
            let _ = self.check_conns(now, None);
        }

        // Row 5: the backup fetches bytes it missed.
        if self.ram.role == Role::Backup {
            self.run_recovery(ctx);
        }
    }

    /// The check tick's connection walk, in pair and pool alike: FIN
    /// deadlines and, given `rows` (IP heartbeat up, peer evidence fresh),
    /// the pair's Table 1 rows 2/3. Only connections with recent activity
    /// or an armed detector are visited: one leaves the set once both its
    /// arbiters are provably inert and re-enters on any movement. The
    /// walk's verdict, if any.
    fn check_conns(&mut self, now: SimTime, rows: Option<(bool, bool)>) -> Option<FailureReason> {
        let mut verdict: Option<FailureReason> = None;
        let mut arb_actions: Vec<(SocketId, u32, ArbAction)> = Vec::new();
        let slots = self.ram.table.members(Set::Check);
        self.metrics.on_timer_visits(slots.len());
        for s in slots {
            let peer = rows.and_then(|_| self.followed_pos(s));
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
                // Application-lag detection (rows 2/3) presumes the
                // network is healthy — with the IP heartbeat down, any app
                // lag is a symptom of the network failure and blame is
                // assigned by the row-4 detectors instead. It also needs
                // fresh evidence (stale: the liveness detector rules) and
                // this connection in the peer's heartbeat.
                match rows {
                    None => {}
                    Some((false, _)) => ctl.applag.reset(),
                    Some((true, false)) => continue,
                    Some((true, true)) => {
                        if let (Some(peer), Some(c)) = (peer, self.ram.tcp.conn(sock)) {
                            let (read, written) = (c.app_bytes_read(), c.app_bytes_written());
                            let (p_read, p_written) =
                                (peer.last_app_byte_read, peer.last_app_byte_written);
                            let lag = ctl.applag.check(now, read, written, p_read, p_written);
                            verdict = verdict.or(lag);
                        }
                    }
                }
            }
            if ctl.closed || !(ctl.finarb.needs_check() || ctl.applag.needs_check()) {
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
        if !self.ram.took_over {
            return;
        }
        let now = ctx.now();
        // Only a socket touched since the last check can have grown a
        // hole, and only one already aging a hole can hit the deadline.
        self.absorb_touched();
        #[cfg(debug_assertions)]
        for (sock, s) in self.ram.table.socks() {
            let ctl = self.ram.table[s]
                .ctl
                .as_ref()
                .expect("indexed sockets have control state");
            debug_assert!(
                self.ram.table.contains(Set::Hole, s)
                    || (ctl.hole_since.is_none() && (ctl.closed || !self.stranded(sock))),
                "socket {sock:?} holds a receive hole outside the hole set"
            );
        }
        let slots = self.ram.table.members(Set::Hole);
        self.metrics.on_timer_visits(slots.len());
        for s in slots {
            let Some(sock) = self.ram.table[s].sock() else {
                continue;
            };
            let stranded = self.stranded(sock);
            let Some(ctl) = &mut self.ram.table[s].ctl else {
                continue;
            };
            if ctl.closed || !stranded {
                ctl.hole_since = None;
                self.ram.table.remove(Set::Hole, s);
                continue;
            }
            let since = *ctl.hole_since.get_or_insert(now);
            if now.saturating_since(since) >= GAP_GIVEUP {
                let key = ctl.key;
                ctl.closed = true;
                let missing_from = self
                    .ram
                    .tcp
                    .conn(sock)
                    .map(|c| c.bytes_received())
                    .unwrap_or(0);
                self.events.push(StTcpEvent::UnrecoverableGap {
                    conn: key,
                    missing_from,
                    at: now,
                });
                self.ram.tcp.set_fin_gate(sock, FinGate::Open);
                self.ram.tcp.abort(now, sock);
            }
        }
    }

    /// True when `sock` has client data parked behind a receive hole on
    /// a connection that is still open.
    fn stranded(&self, sock: SocketId) -> bool {
        self.ram
            .tcp
            .conn(sock)
            .is_some_and(|c| c.ooo_bytes() > 0 && !matches!(c.state(), TcpState::Closed))
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

    /// Drives this server's fence round: drop a round that no longer
    /// [stands](FenceRound::stands), open a round against a dead member
    /// when eligible, and (re-)solicit votes every tick until quorum or
    /// abandonment.
    fn fence_tick(&mut self, ctx: &mut NodeCtx<'_>) {
        let now = ctx.now();
        let mut open_event: Option<(u8, u32)> = None;
        let mut round: Option<(CtrlMsg, Ipv4Addr)> = None;
        {
            let (Some(pool), members) = (&mut self.ram.pool, &self.ram.members) else {
                return;
            };
            if pool.fence.as_ref().is_some_and(|f| !f.stands(members, now)) {
                pool.fence = None;
            }
            if pool.fence.is_none() {
                if let Some((target, target_rank)) = pool.fence_target(members, now, self.ram.role)
                {
                    pool.epoch = pool.epoch.wrapping_add(1);
                    pool.fence = Some(FenceRound {
                        epoch: pool.epoch,
                        target,
                        target_rank,
                        votes: BTreeSet::from([pool.my_rank]),
                    });
                    open_event = Some((target_rank, pool.epoch));
                }
            }
            if let Some(f) = &pool.fence {
                let msg = CtrlMsg::FenceRequest {
                    epoch: f.epoch,
                    target_rank: f.target_rank,
                    candidate_rank: pool.my_rank,
                };
                round = Some((msg, f.target));
            }
        }
        if let Some((target_rank, epoch)) = open_event {
            self.events.push(StTcpEvent::FenceRequested {
                target_rank,
                epoch,
                at: now,
            });
            // The round's span is shared by every member: request,
            // votes, and commit all derive it from (epoch, target).
            ctx.flight(
                SpanId::fence(u64::from(epoch), target_rank),
                self.last_hb_rx_span,
                FlightKind::FenceRequest {
                    epoch: u64::from(epoch),
                    target_rank,
                },
            );
        }
        if let Some((msg, target)) = round {
            for (&ip, m) in &self.ram.members {
                if !m.fenced && ip != target {
                    self.send_ctrl_to(ctx, ip, &msg);
                }
            }
        }
        // In a degenerate pool the initiator's own vote is the quorum.
        self.try_complete_fence(ctx);
    }

    /// A pool member asks this server to confirm `target_rank` dead so
    /// that `candidate_rank` may fence it; [`PoolState::grants`] answers.
    fn handle_fence_request(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        src: Ipv4Addr,
        epoch: u32,
        target_rank: u8,
        candidate_rank: u8,
    ) {
        if self.ram.join.is_some() {
            return; // a joiner has no vote yet
        }
        let now = ctx.now();
        ctx.flight(
            SpanId::fence(u64::from(epoch), target_rank),
            SpanId::NONE,
            FlightKind::FenceRequest {
                epoch: u64::from(epoch),
                target_rank,
            },
        );
        let Some(pool) = &self.ram.pool else {
            return;
        };
        let my_rank = pool.my_rank;
        let granted = pool.grants(&self.ram.members, now, src, target_rank, candidate_rank);
        let reply = CtrlMsg::FenceAck {
            epoch,
            target_rank,
            voter_rank: my_rank,
            granted,
        };
        ctx.flight(
            SpanId::fence(u64::from(epoch), target_rank),
            SpanId::NONE,
            FlightKind::FenceAck {
                epoch: u64::from(epoch),
                target_rank,
                voter_rank: my_rank,
                granted,
            },
        );
        self.send_ctrl_to(ctx, src, &reply);
    }

    /// A vote arrived for this server's fence round (from a member: the
    /// source rule ran at intake).
    fn handle_fence_ack(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        epoch: u32,
        target_rank: u8,
        voter_rank: u8,
        granted: bool,
    ) {
        ctx.flight(
            SpanId::fence(u64::from(epoch), target_rank),
            SpanId::NONE,
            FlightKind::FenceAck {
                epoch: u64::from(epoch),
                target_rank,
                voter_rank,
                granted,
            },
        );
        {
            let Some(pool) = &mut self.ram.pool else {
                return;
            };
            let Some(f) = &mut pool.fence else {
                return;
            };
            if f.epoch != epoch || f.target_rank != target_rank || !granted {
                return;
            }
            f.votes.insert(voter_rank);
        }
        self.try_complete_fence(ctx);
    }

    /// Completes this server's fence round once a majority of the
    /// surviving membership confirmed the target dead: fence, STONITH,
    /// broadcast the commit, and either take over (dead active) or carry
    /// on with the remaining pool.
    fn try_complete_fence(&mut self, ctx: &mut NodeCtx<'_>) {
        let now = ctx.now();
        let fenced;
        {
            let (Some(pool), members) = (&mut self.ram.pool, &mut self.ram.members) else {
                return;
            };
            let Some(f) = pool.fence.as_ref().filter(|f| f.stands(members, now)) else {
                return;
            };
            if f.votes.len() < quorum_needed(members, f.target_rank) {
                return;
            }
            let target = f.target;
            let target_rank = f.target_rank;
            let votes = f.votes.len() as u32;
            let epoch = f.epoch;
            pool.fence = None;
            let Some(m) = members.get_mut(&target) else {
                return;
            };
            m.fenced = true;
            fenced = (target_rank, m.node, epoch, votes);
        }
        let (target_rank, target_node, epoch, votes) = fenced;
        self.events.push(StTcpEvent::FenceQuorumReached {
            target_rank,
            votes,
            at: now,
        });
        self.events.push(StTcpEvent::PoolMemberFenced {
            rank: target_rank,
            at: now,
        });
        // Quorum: the commit closes the fence span, and the pool-mode
        // verdict is parented to the round that produced it.
        let fspan = SpanId::fence(u64::from(epoch), target_rank);
        ctx.flight(
            fspan,
            SpanId::NONE,
            FlightKind::FenceCommit {
                epoch: u64::from(epoch),
                target_rank,
            },
        );
        self.condemn(ctx, target_node, FailureReason::HbBothLinksDown, fspan);
        let was_active = self
            .ram
            .pool
            .as_ref()
            .is_some_and(|p| p.active_rank == target_rank);
        // Fault-tolerant while some live member is left to feed.
        self.ram.ft_mode = live_non_fenced(&self.ram.members, now) > 0;
        self.settle_all(now);
        // Tell the survivors: they mark the member fenced without needing
        // their own quorum, and a losing simultaneous candidate abandons
        // its round.
        let commit = CtrlMsg::FenceCommit { epoch, target_rank };
        for (&ip, m) in &self.ram.members {
            if !m.fenced {
                self.send_ctrl_to(ctx, ip, &commit);
            }
        }
        self.after_verdict(ctx, FailureReason::HbBothLinksDown, was_active);
    }

    /// Another member completed a fence round: adopt its verdict.
    fn handle_fence_commit(&mut self, ctx: &mut NodeCtx<'_>, target_rank: u8) {
        let now = ctx.now();
        let (Some(pool), members) = (&self.ram.pool, &mut self.ram.members) else {
            return;
        };
        if target_rank == pool.my_rank {
            // Someone fenced *me*; the STONITH is already in flight
            // and resolves this incarnation. Nothing to do.
            return;
        }
        let mut fenced_any = false;
        for m in members.values_mut() {
            if m.rank == target_rank && !m.fenced {
                m.fenced = true;
                fenced_any = true;
            }
        }
        if fenced_any {
            self.events.push(StTcpEvent::PoolMemberFenced {
                rank: target_rank,
                at: now,
            });
            self.settle_all(now);
        }
    }

    fn net_observation(&mut self) -> NetObservation {
        let mut obs = NetObservation {
            my_ping: self.ram.ping.active.then(|| self.ram.ping.report()),
            peer_report: self.followed_member().and_then(|m| m.hb.ping),
            ..Default::default()
        };
        // A fault-window walk: it runs only while the IP heartbeat is
        // down with a serial link still up (Table 1 row 4).
        let mut visits = 0;
        for (_, s, sock) in self.ram.table.bound() {
            visits += 1;
            let (Some(conn), Some(peer)) = (self.ram.tcp.conn(sock), self.followed_pos(s)) else {
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
        // Pool mode: assign the joiner a fresh rank behind every original
        // member (idempotent per join session) and reset its member entry
        // for the new incarnation — which no fence round stands against.
        let mut new_rank = 0u8;
        if let Some(pool) = &mut self.ram.pool {
            match pool.last_session_served {
                Some((ip, s, r)) if ip == src && s == session => new_rank = r,
                _ => {
                    new_rank = pool.next_rank;
                    pool.next_rank = pool.next_rank.wrapping_add(1);
                    pool.last_session_served = Some((src, session, new_rank));
                    if let Some(m) = self.ram.members.get_mut(&src) {
                        m.reset_for_rejoin(now);
                    }
                }
            }
        }
        if self.ram.serving_join != Some(session) {
            self.ram.serving_join = Some(session);
            // A new join session means the joiner rebooted: everything
            // known about its old incarnation — its mirror, with sticky
            // FIN/watchdog flags that would otherwise poison verdicts
            // against the new one, and its delta stream, whose acks are
            // void (it gets full-state frames until it acknowledges) — is
            // stale.
            self.ram.table.clear_set(Set::Lag);
            if let Some(m) = self.ram.members.get_mut(&src) {
                m.forget_incarnation(now);
            }
            self.unack_cached();
            self.events
                .push(StTcpEvent::ReintegrationStarted { at: now });
        }
        // Once the join completes there is a backup to feed. Arm the hold
        // buffer *before* capturing the snapshots: every client byte at
        // or beyond a snapshot's receive edge stays fetchable, so the
        // joiner sees the stream with no hole — `[read cursor, edge)`
        // rides in the snapshot, `[edge, ∞)` arrives by tap or fetch.
        self.hold_client_bytes(now, true);
        let mut announced = 0u32;
        for (sock, _) in self.all_socks() {
            let Some(msg) = self.snapshot_conn(session, sock) else {
                continue;
            };
            announced += 1;
            self.send_ctrl_to(ctx, src, &CtrlMsg::ConnSnapshot(msg));
        }
        self.send_ctrl_to(
            ctx,
            src,
            &CtrlMsg::JoinDone {
                session,
                conns: announced,
                new_rank,
            },
        );
    }

    /// Captures one connection as a [`ConnSnapshotMsg`], or `None` when it
    /// cannot be joined (closed, not snapshottable, or a buffer exceeds the
    /// control-channel cap — such a connection simply stays unreplicated).
    fn snapshot_conn(&self, session: u32, sock: SocketId) -> Option<ConnSnapshotMsg> {
        let ctl = self.ram.table.ctl(sock).filter(|c| !c.closed)?;
        let key = ctl.key;
        let snap = self.ram.tcp.conn(sock)?.snapshot()?;
        if snap.unacked.len() > MAX_FETCH_DATA || snap.pending.len() > MAX_FETCH_DATA {
            return None;
        }
        let app_state = ctl
            .app
            .snapshot()
            .map(Bytes::from)
            .unwrap_or_else(Bytes::new);
        if app_state.len() > MAX_FETCH_DATA {
            return None;
        }
        Some(ConnSnapshotMsg {
            session,
            conn: key,
            client_ip: u32::from(snap.tuple.remote.0),
            client_port: snap.tuple.remote.1,
            iss: snap.iss.0,
            peer_isn: snap.peer_isn.0,
            snd_una: snap.snd_una,
            rcv_start: snap.rcv_start,
            fin_offset: snap.fin_offset,
            local_fin: snap.local_fin,
            peer_fin_consumed: snap.peer_fin_consumed,
            app_digest: ctl.app.state_digest(),
            unacked: snap.unacked,
            pending: snap.pending,
            app_state,
        })
    }

    /// Joiner side: install one connection snapshot into the suppressed
    /// TCP state machine and spin up its replica application.
    fn install_snapshot(&mut self, ctx: &mut NodeCtx<'_>, s: &ConnSnapshotMsg) {
        let now = ctx.now();
        let Some(join) = &self.ram.join else {
            return;
        };
        if s.session != join.session || join.installed.contains(&s.conn) {
            return;
        }
        let tuple = FourTuple {
            local: (self.setup.service_ip, self.setup.service_port),
            remote: (Ipv4Addr::from(s.client_ip), s.client_port),
        };
        if conn_key(tuple) != s.conn {
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
        let conn = TcpConn::resume(
            self.setup.tcp.clone(),
            &TcpSnapshot {
                tuple,
                iss: SeqNum(s.iss),
                peer_isn: SeqNum(s.peer_isn),
                snd_una: s.snd_una,
                unacked: s.unacked.clone(),
                local_fin: s.local_fin,
                rcv_start: s.rcv_start,
                pending: s.pending.clone(),
                fin_offset: s.fin_offset,
                peer_fin_consumed: s.peer_fin_consumed,
            },
        );
        match self.ram.tcp.install_resumed(conn, EgressMode::Suppress) {
            Some(sock) => {
                let slot = self.bind_key(s.conn, sock, app);
                if let Some(ctl) = &mut self.ram.table[slot].ctl {
                    ctl.close_issued = s.local_fin;
                    // The connection resumed mid-stream: its first byte
                    // was delivered on the active side long ago.
                    ctl.saw_data = true;
                }
                self.refresh_tick(slot);
                self.ram.table.insert(Set::Check, slot);
                self.events.push(StTcpEvent::SnapshotInstalled {
                    conn: s.conn,
                    at: now,
                });
            }
            None => {
                // The tuple is already live locally: the tapped SYN beat the
                // snapshot here, so the connection is replicated from its
                // very beginning and the snapshot is redundant.
            }
        }
        if let Some(join) = &mut self.ram.join {
            join.installed.insert(s.conn);
        }
    }

    /// Joiner side: complete the join once all announced snapshots are in
    /// and the local tap has converged with the active peer's heartbeat
    /// positions. Until then `ft_mode` stays false — the joiner can neither
    /// fire verdicts nor take over, so a half-joined backup can never
    /// become a second active server.
    fn try_finish_join(&mut self, ctx: &mut NodeCtx<'_>) {
        let Some(join) = &self.ram.join else {
            return;
        };
        let Some(expected) = join.expected else {
            return;
        };
        if (join.installed.len() as u32) < expected {
            return;
        }
        // Require at least one post-reboot heartbeat: convergence is judged
        // against the peer's positions, which are meaningless before any
        // have been heard.
        let heard = self.ram.members.values().any(|m| m.hb.last_rx().is_some());
        if !heard {
            return;
        }
        // Converged when every connection the followed member reports
        // exists locally with receive and application-read positions
        // caught up (a closed local connection has nothing left to
        // converge). A join-window walk, in key order: it stops the tick
        // the join completes.
        let keyed = self.ram.table.keyed();
        let visits = keyed
            .filter(|&(_, s)| self.followed_pos(s).is_some())
            .count();
        self.metrics.on_timer_visits(visits);
        for (key, s) in self.ram.table.keyed() {
            let Some(peer) = self.followed_pos(s) else {
                continue;
            };
            let slot = &self.ram.table[s];
            let Some(sock) = slot.sock() else {
                // Heartbeats announce every conn still in the peer's socket
                // table, including closed ones the snapshot pass skipped —
                // those have nothing to converge. Only a key we actually
                // installed may gate convergence (it can lag the key index
                // by one poll when the tuple arrived via tap); a brand-new
                // conn is tapped from its SYN and needs no catch-up.
                if join.installed.contains(&key) {
                    return;
                }
                continue;
            };
            if slot.ctl.as_ref().is_none_or(|c| c.closed) {
                continue;
            }
            let Some(conn) = self.ram.tcp.conn(sock) else {
                continue;
            };
            if conn.bytes_received() < peer.last_byte_received
                || conn.app_bytes_read() < peer.last_app_byte_read
            {
                return;
            }
        }
        let now = ctx.now();
        let session = join.session;
        self.ram.join = None;
        self.ram.ft_mode = true;
        // Detectors resume against a fresh peer: give every connection one
        // evaluation so first-observation baselines are established.
        self.check_every_conn();
        self.events
            .push(StTcpEvent::ReintegrationCompleted { at: now });
        self.send_ctrl(ctx, &CtrlMsg::JoinComplete { session });
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
            .filter(|(_, m)| !m.fenced && self.ram.join.is_none())
            .map(|(ip, _)| ip);
        for (&ip, m) in &self.ram.members {
            if active.map_or(!m.fenced, |a| a == ip) {
                self.send_ctrl_to(ctx, ip, msg);
            }
        }
    }

    fn handle_ctrl(&mut self, ctx: &mut NodeCtx<'_>, src: Ipv4Addr, msg: &CtrlMsg) {
        let now = ctx.now();
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
                if let Some(join) = &mut self.ram.join {
                    if join.session == *session {
                        join.expected = Some(*conns);
                        // Pool: the active assigned this joiner a fresh
                        // rank behind every original member. Announcing it
                        // in our heartbeats is what un-fences us everywhere.
                        if let Some(pool) = &mut self.ram.pool {
                            pool.my_rank = *new_rank;
                        }
                    }
                }
                self.try_finish_join(ctx);
            }
            CtrlMsg::FenceRequest {
                epoch,
                target_rank,
                candidate_rank,
            } => {
                ctx.profile_enter(Component::Pool);
                self.handle_fence_request(ctx, src, *epoch, *target_rank, *candidate_rank);
                ctx.profile_exit();
            }
            CtrlMsg::FenceAck {
                epoch,
                target_rank,
                voter_rank,
                granted,
            } => {
                ctx.profile_enter(Component::Pool);
                self.handle_fence_ack(ctx, *epoch, *target_rank, *voter_rank, *granted);
                ctx.profile_exit();
            }
            CtrlMsg::FenceCommit { epoch, target_rank } => {
                ctx.flight(
                    SpanId::fence(u64::from(*epoch), *target_rank),
                    SpanId::NONE,
                    FlightKind::FenceCommit {
                        epoch: u64::from(*epoch),
                        target_rank: *target_rank,
                    },
                );
                ctx.profile_enter(Component::Pool);
                self.handle_fence_commit(ctx, *target_rank);
                ctx.profile_exit();
            }
            CtrlMsg::JoinComplete { session } => {
                if self.ram.serving_join == Some(*session) {
                    self.ram.serving_join = None;
                    self.ram.ft_mode = true;
                    self.check_every_conn();
                    self.events
                        .push(StTcpEvent::ReintegrationCompleted { at: now });
                    // Fresh FIN arbitration against the new backup: the old
                    // arbiters are in their peer-failed (open-gate) state
                    // from the takeover.
                    for (_, s) in self.all_socks() {
                        let ctl = self.ram.table[s].ctl.as_mut();
                        if let Some(ctl) = ctl.filter(|c| !c.close_issued && !c.closed) {
                            ctl.finarb =
                                FinArbiter::new(self.ram.role, self.setup.sttcp.max_delay_fin);
                        }
                    }
                }
            }
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
                        h.record(ctx, true);
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
                    if self.ram.ping.active
                        && id == self.ram.ping.id
                        && Some(seq) == self.ram.ping.awaiting
                    {
                        self.ram.ping.awaiting = None;
                        self.ram.ping.consecutive_failures = 0;
                    }
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
                    h.record(ctx, false);
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
                // step: fault-tolerant, or in a re-integration join — the
                // joiner's positions drive the active side's hold-buffer
                // release, and the active side's positions define the
                // joiner's convergence target.
                if self.ram.ft_mode || self.ram.join.is_some() || self.ram.serving_join.is_some() {
                    ctx.profile_enter(Component::HbEncode);
                    self.send_heartbeats(ctx);
                    ctx.profile_exit();
                } else {
                    // Nothing reads the touched feed until a join resumes
                    // the rounds, whose first is full state: the join
                    // voids the joiner's acks.
                    self.ram.hb_touched.clear();
                }
                // A joiner re-requests until the full snapshot set arrives
                // (any of the join messages may have been lost).
                if let Some(join) = &self.ram.join {
                    let complete = join
                        .expected
                        .is_some_and(|e| join.installed.len() as u32 >= e);
                    if !complete {
                        let session = join.session;
                        self.send_ctrl(ctx, &CtrlMsg::JoinRequest { session });
                    }
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
            TOKEN_PING if self.ram.ping.active => {
                if self.ram.ping.awaiting.is_some() {
                    self.ram.ping.consecutive_failures += 1;
                }
                self.ram.ping.seq = self.ram.ping.seq.wrapping_add(1);
                self.ram.ping.attempts += 1;
                self.ram.ping.awaiting = Some(self.ram.ping.seq);
                let _ = self.iface.send_ping(
                    ctx,
                    self.setup.gateway_ip,
                    self.ram.ping.id,
                    self.ram.ping.seq,
                );
                ctx.set_timer(PING_INTERVAL, TOKEN_PING);
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
        // Every reboot rejoins. All pre-crash state is gone; boot as a
        // fresh backup — whatever role this host held before — and ask
        // the active peer for per-connection snapshots. Until the join
        // converges, `ft_mode` stays false: this node fires no verdicts
        // and can never take over, so the dual-active invariant holds
        // even if the join never completes. An active that reboots faster
        // than its peer's liveness timeout finds no active to join: its
        // backup announcement marks it defunct at the peer (`HbSource`),
        // which condemns and STONITHs it — it stays off, exactly like
        // the crash it followed.
        let now = ctx.now();
        // A fresh TCP stack tapping in suppressed mode with the shared
        // deterministic ISN, exactly like an original backup: connections
        // opened after the reboot replicate from their SYN; pre-existing
        // ones arrive as snapshots.
        self.boot(Role::Backup, now);
        self.ram.ft_mode = false;
        // Session nonce: unique per boot (virtual boot time), never zero.
        let session = (now.as_micros() as u32) | 1;
        self.ram.join = Some(JoinState {
            session,
            expected: None,
            installed: BTreeSet::new(),
        });
        self.events
            .push(StTcpEvent::ReintegrationStarted { at: now });
        self.send_ctrl(ctx, &CtrlMsg::JoinRequest { session });
        // The power-off invalidated every pending timer (epoch bump); arm
        // a fresh set.
        self.start_rounds(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::EchoApp;
    use simnet::mac::MacAddr;

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
        assert!(
            s.ram.join.is_some(),
            "rebooted into a join, nothing installed yet"
        );
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

    /// A v1 backup whose primary falls silent takes over alone: no round
    /// reads the touched feed until a join, so it must not pile up: one
    /// socket touched per check tick leaves at most a heartbeat period's 4.
    #[test]
    fn a_lone_survivors_touched_feed_stays_bounded() {
        struct Dead;
        impl Node for Dead {
            fn on_frame(&mut self, _: &mut NodeCtx<'_>, _: NicId, _: EthernetFrame) {}
            fn on_timer(&mut self, _: &mut NodeCtx<'_>, _: TimerToken) {}
        }
        let (s, key) = holding(Role::Backup);
        let (sock, x) = (s.sock_of(key).unwrap(), Bytes::from_static(b"x"));
        let mut world = simnet::world::World::new(1);
        let node = world.add_node("backup", Box::new(s));
        world.add_node("primary", Box::new(Dead)); // `setup`'s peer node
        world.start();
        for tick in 0..100 {
            world.run_until(SimTime::from_millis(1_000 + 50 * tick));
            let s = world.node_mut::<StTcpServer>(node).expect("server type");
            assert!(s.ram.took_over && !s.ram.ft_mode && s.ram.tcp.conn(sock).is_some());
            s.ram.tcp.inject_in_order(sock, 10 + tick, &x);
            let n = s.ram.hb_touched.len();
            assert!(n <= 4, "{n} touched sockets held after {tick} ticks");
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
        s.check_conns(t, None);
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
