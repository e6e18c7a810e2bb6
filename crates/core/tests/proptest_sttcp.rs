//! Property-based tests for ST-TCP core components: heartbeat wire
//! format, counter unwrapping, detector soundness (no false positives on
//! healthy-but-stale observations; guaranteed detection of frozen peers),
//! FIN-arbitration safety, and the server's O(active) sets against the
//! every-connection walks they replaced.

use std::collections::{BTreeMap, VecDeque};
use std::net::Ipv4Addr;

use bytes::Bytes;
use proptest::collection::vec;
use proptest::prelude::*;

use simnet::frame::EthernetFrame;
use simnet::ip::IpProto;
use simnet::iplayer::IpInterface;
use simnet::link::LinkParams;
use simnet::mac::MacAddr;
use simnet::node::{NicId, Node, NodeCtx, NodeId, SerialPortId, TimerToken};
use simnet::serial::SerialParams;
use simnet::time::{SimDuration, SimTime};
use simnet::world::World;

use simtcp::conn::{TcpConfig, TcpSnapshot};
use simtcp::endpoint::{EndpointConfig, IsnPolicy, ListenConfig, TcpEndpoint};
use simtcp::seq::SeqNum;
use simtcp::socket::{FourTuple, SocketEvent, SocketId};

use sttcp::app::{Application, EchoApp};
use sttcp::applag::{AppLag, AppLagDetector};
use sttcp::config::{Role, StTcpConfig};
use sttcp::events::{FailureReason, HbLink, StTcpEvent};
use sttcp::finarb::{ArbAction, FinArbiter};
use sttcp::heartbeat::{
    conn_key, decode_any, unwrap_u32_near, AnyHb, ConnHb, HbFrame, HbFrameKind, HbPayload,
    PingReport,
};
use sttcp::pool::PoolPeer;
use sttcp::recover::{ConnSnapshotMsg, CtrlMsg};
use sttcp::server::{ServerSetup, StTcpServer, CTRL_PROTO};
use sttcp::wire;

fn t(ms: u64) -> SimTime {
    SimTime::from_millis(ms)
}

// ----------------------------------------------------------------------
// O(active) sets vs their full-walk definitions: the harness
// ----------------------------------------------------------------------

const SERVICE: (Ipv4Addr, u16) = (Ipv4Addr::new(10, 0, 0, 100), 80);
const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const PEER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const SERVER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 3);
const ISN_SALT: u64 = 42;
const STEP: SimDuration = SimDuration::from_millis(5);

/// One scripted move of the puppet peer.
#[derive(Debug, Clone, Copy)]
enum SetOp {
    /// A new client connection (the backup taps its SYN).
    Connect,
    /// Client bytes on connection `which`; with `tap_loss` the backup's
    /// tap misses them while the puppet's primary receives them — the
    /// backup now lags.
    Send { which: u8, len: u8, tap_loss: bool },
    /// A heartbeat from the puppet primary. `v2` picks the wire format,
    /// `serial` the link; `seq_step == 0` replays the last seqno;
    /// `pick` selects which connections get a record; `skew` bends the
    /// reported receive position around the truth (negative values are
    /// byzantine regressions the server must reject); `ack_back` is how
    /// far behind the server's latest frame the acks trail (`None` = no
    /// valid ack: wrong epoch); `new_epoch` restarts the puppet's
    /// incarnation.
    Hb {
        v2: bool,
        serial: bool,
        seq_step: u8,
        pick: u8,
        skew: i8,
        ack_back: Option<u8>,
        new_epoch: bool,
    },
    /// Let the server's own timers run.
    Idle,
}

fn set_op_strategy() -> impl Strategy<Value = SetOp> {
    prop_oneof![
        Just(SetOp::Connect),
        (any::<u8>(), 1u8..=200, any::<bool>()).prop_map(|(which, len, tap_loss)| SetOp::Send {
            which,
            len,
            tap_loss
        }),
        (
            (any::<bool>(), any::<bool>(), 0u8..3, any::<u8>()),
            (-3i8..40, proptest::option::of(0u8..4), 0u8..16),
        )
            .prop_map(|((v2, serial, seq_step, pick), (skew, ack_back, epoch))| {
                SetOp::Hb {
                    v2,
                    serial,
                    seq_step,
                    pick,
                    skew,
                    ack_back,
                    new_epoch: epoch == 0,
                }
            }),
        Just(SetOp::Idle),
    ]
}

/// Plays everything around one real backup server: the client, the
/// primary's TCP (same deterministic ISN, so the backup's tapped
/// handshake completes), and the primary's heartbeat/recovery side —
/// the latter scripted, so sequences no honest primary would emit
/// (replays, reordered links, epoch restarts, stale or missing acks,
/// regressing counters) reach the server's intake paths.
struct Puppet {
    iface: IpInterface,
    serial: SerialPortId,
    client: TcpEndpoint,
    primary: TcpEndpoint,
    script: VecDeque<SetOp>,
    /// Client-side sockets, in connect order.
    socks: Vec<SocketId>,
    /// The primary-side socket of each connection key.
    by_key: BTreeMap<u32, SocketId>,
    next_port: u16,
    seq: u32,
    epoch: u32,
    /// Learned from the server's own frames.
    srv_epoch: u32,
    srv_seq: u32,
}

impl Puppet {
    fn new(script: Vec<SetOp>) -> Puppet {
        let mut iface = IpInterface::new(NicId(0), MacAddr::unicast(1), PEER_IP);
        iface.add_alias(CLIENT_IP);
        iface.add_arp(SERVER_IP, MacAddr::unicast(2));
        iface.add_arp(SERVICE.0, MacAddr::unicast(2));
        let mut primary = TcpEndpoint::new(EndpointConfig {
            isn: IsnPolicy::Deterministic { salt: ISN_SALT },
            ..Default::default()
        });
        primary.listen(
            SERVICE.1,
            ListenConfig {
                tcp: TcpConfig {
                    hold_buf: Some(1 << 20),
                    ..Default::default()
                }
                .into(),
                ..Default::default()
            },
        );
        Puppet {
            iface,
            serial: SerialPortId(0),
            client: TcpEndpoint::new(EndpointConfig::default()),
            primary,
            script: script.into(),
            socks: Vec::new(),
            by_key: BTreeMap::new(),
            next_port: 40_000,
            seq: 0,
            epoch: 7,
            srv_epoch: 0,
            srv_seq: 0,
        }
    }

    /// Shuttles client <-> primary until quiet; every client packet is
    /// also tapped to the backup unless `tap_loss`.
    fn pump(&mut self, ctx: &mut NodeCtx<'_>, tap_loss: bool) {
        let now = ctx.now();
        loop {
            let up = self.client.poll_packets(now);
            let down = self.primary.poll_packets(now);
            if up.is_empty() && down.is_empty() {
                break;
            }
            for pkt in up {
                self.primary.on_packet(now, &pkt);
                if !tap_loss {
                    if let Some(frame) = self.iface.encap(&pkt) {
                        ctx.send_frame(self.iface.nic, frame);
                    }
                }
            }
            for pkt in down {
                self.client.on_packet(now, &pkt);
            }
            while let Some((sock, ev)) = self.primary.poll_event() {
                match ev {
                    SocketEvent::Accepted => {
                        let tuple = self.primary.conn(sock).expect("just accepted").tuple();
                        self.by_key.insert(conn_key(tuple), sock);
                    }
                    // The primary's application reads everything.
                    SocketEvent::DataReadable => {
                        let _ = self.primary.recv(sock, usize::MAX);
                    }
                    _ => {}
                }
            }
            while self.client.poll_event().is_some() {}
        }
    }

    fn heartbeat(&mut self, ctx: &mut NodeCtx<'_>, op: SetOp) {
        let SetOp::Hb {
            v2,
            serial,
            seq_step,
            pick,
            skew,
            ack_back,
            new_epoch,
        } = op
        else {
            return;
        };
        if new_epoch {
            self.epoch = self.epoch.wrapping_add(2);
            self.seq = 0;
        }
        self.seq += seq_step as u32;
        let conns: Vec<ConnHb> = self
            .by_key
            .iter()
            .enumerate()
            .filter(|(i, _)| (pick >> (i % 8)) & 1 == 1)
            .filter_map(|(_, (&key, &sock))| {
                let c = self.primary.conn(sock)?;
                Some(ConnHb {
                    key,
                    last_byte_received: c.bytes_received().saturating_add_signed(skew as i64),
                    last_ack_received: c.last_ack_received(),
                    last_app_byte_written: c.app_bytes_written(),
                    last_app_byte_read: c.app_bytes_read(),
                    ..Default::default()
                })
            })
            .collect();
        let hb = HbPayload {
            seqno: self.seq,
            role: Role::Primary,
            rank: 0,
            conns,
            ping: None,
        };
        let wire = if v2 {
            // Acks never run ahead of what the server actually sent.
            let ack = self.srv_seq.saturating_sub(ack_back.unwrap_or(0) as u32);
            HbFrame {
                kind: HbFrameKind::Delta,
                epoch: self.epoch,
                link: serial as u8,
                ack_epoch: if ack_back.is_some() {
                    self.srv_epoch
                } else {
                    0
                },
                acks: vec![ack, ack],
                part: 0,
                parts: 1,
                hb,
            }
            .encode()
        } else {
            hb.encode()
        };
        if serial {
            ctx.send_serial(self.serial, wire);
        } else if let Some(frame) = self.iface.frame_to(SERVER_IP, IpProto::Heartbeat, wire) {
            ctx.send_frame(self.iface.nic, frame);
        }
    }

    fn learn(&mut self, wire: &[u8]) {
        if let Ok(AnyHb::V2(f)) = decode_any(wire) {
            self.srv_epoch = f.epoch;
            self.srv_seq = f.hb.seqno;
        }
    }
}

impl Node for Puppet {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        ctx.set_timer(STEP, TimerToken(0));
    }

    fn on_frame(&mut self, ctx: &mut NodeCtx<'_>, _nic: NicId, frame: EthernetFrame) {
        let Some(pkt) = IpInterface::decap(&frame) else {
            return;
        };
        if pkt.proto == IpProto::Heartbeat {
            self.learn(&pkt.payload);
        } else if pkt.proto == CTRL_PROTO {
            // Serve the backup's missed-byte fetches from the hold buffer.
            if let Ok(CtrlMsg::FetchRequest { conn, from, max }) = CtrlMsg::decode(&pkt.payload) {
                let data = self
                    .by_key
                    .get(&conn)
                    .and_then(|&sock| self.primary.conn(sock))
                    .and_then(|c| c.fetch_held(from, max as usize))
                    .unwrap_or_default();
                let reply = CtrlMsg::FetchReply { conn, from, data }.encode();
                if let Some(frame) = self.iface.frame_to(SERVER_IP, CTRL_PROTO, reply) {
                    ctx.send_frame(self.iface.nic, frame);
                }
            }
        }
    }

    fn on_serial(&mut self, _ctx: &mut NodeCtx<'_>, _port: SerialPortId, data: Bytes) {
        self.learn(&data);
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _token: TimerToken) {
        let now = ctx.now();
        self.client.on_time(now);
        self.primary.on_time(now);
        let mut tap_loss = false;
        match self.script.pop_front() {
            Some(SetOp::Connect) => {
                let sock = self
                    .client
                    .connect(now, (CLIENT_IP, self.next_port), SERVICE);
                self.next_port += 1;
                self.socks.push(sock);
            }
            Some(SetOp::Send {
                which,
                len,
                tap_loss: lose,
            }) => {
                if !self.socks.is_empty() {
                    let sock = self.socks[which as usize % self.socks.len()];
                    let _ = self.client.send(now, sock, &vec![0xa5; len as usize]);
                    tap_loss = lose;
                }
            }
            Some(op @ SetOp::Hb { .. }) => self.heartbeat(ctx, op),
            Some(SetOp::Idle) | None => {}
        }
        self.pump(ctx, tap_loss);
        ctx.set_timer(STEP, TimerToken(0));
    }
}

/// The wiring of the one real server these worlds hold, at `SERVER_IP`
/// with its pair peer at `PEER_IP` on node `peer`.
fn server_setup(role: Role, sttcp: StTcpConfig, peer: NodeId) -> ServerSetup {
    let rank = match role {
        Role::Primary => 0,
        Role::Backup => 1,
    };
    ServerSetup {
        role,
        sttcp,
        tcp: TcpConfig::default(),
        service_ip: SERVICE.0,
        service_port: SERVICE.1,
        private_ip: SERVER_IP,
        gateway_ip: CLIENT_IP,
        isn_salt: ISN_SALT,
        seed: 3,
        rank,
        peers: vec![PoolPeer {
            rank: 1 - rank,
            ip: PEER_IP,
            node: peer,
        }],
        pool: false,
    }
}

/// A world of one real backup server and the puppet that surrounds it.
fn puppet_world(script: Vec<SetOp>) -> (World, NodeId) {
    let mut world = World::new(1);
    let puppet = world.add_node("puppet", Box::new(Puppet::new(script)));
    let puppet_nic = world.add_nic(puppet, MacAddr::unicast(1));
    let mut iface = IpInterface::new(NicId(0), MacAddr::unicast(2), SERVER_IP);
    iface.add_alias(SERVICE.0);
    iface.add_arp(PEER_IP, MacAddr::unicast(1));
    iface.add_arp(CLIENT_IP, MacAddr::unicast(1));
    let far = SimDuration::from_secs(1_000_000);
    // Fast timers so a short script spans many rounds, and detector
    // thresholds out of reach: no verdict may end the run (a verdict
    // would STONITH the puppet).
    let sttcp = StTcpConfig {
        hb_delta: true,
        hb_period: SimDuration::from_millis(20),
        hb_timeout_periods: 1_000_000,
        check_period: SimDuration::from_millis(10),
        recovery_interval: SimDuration::from_millis(10),
        app_max_lag_bytes: u64::MAX,
        app_max_lag_time: far,
        ..Default::default()
    };
    let setup = server_setup(Role::Backup, sttcp, puppet);
    let server = StTcpServer::new(
        setup,
        iface,
        Box::new(|| Box::new(EchoApp::default()) as Box<dyn Application>),
    );
    let server = world.add_node("backup", Box::new(server));
    let server_nic = world.add_nic(server, MacAddr::unicast(2));
    world.connect_nodes(
        (puppet, puppet_nic),
        (server, server_nic),
        LinkParams::ideal(),
    );
    let (_, _, server_port) =
        world.connect_serial(puppet, server, SerialParams::crossover_ethernet());
    world
        .node_mut::<StTcpServer>(server)
        .expect("server type")
        .add_serial_link(server_port, PEER_IP);
    world.start();
    (world, server)
}

// ----------------------------------------------------------------------
// Heartbeats and control count only from members, pair and pool alike
// ----------------------------------------------------------------------

/// A host on the servers' switch that speaks their protocols from IP
/// source `out.addr()`: one control message at start, then a heartbeat
/// with a fresh seqno every 100 ms, every frame CRC-valid.
struct Forger {
    out: IpInterface,
    ctrl: CtrlMsg,
    seq: u32,
}

impl Node for Forger {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        let frame = self.out.frame_to(SERVER_IP, CTRL_PROTO, self.ctrl.encode());
        ctx.send_frame(NicId(0), frame.expect("server resolves"));
        self.on_timer(ctx, TimerToken(0));
    }

    fn on_frame(&mut self, _: &mut NodeCtx<'_>, _: NicId, _: EthernetFrame) {}

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: TimerToken) {
        self.seq += 1;
        let hb = HbPayload {
            seqno: self.seq,
            role: Role::Backup,
            rank: 1,
            conns: Vec::new(),
            ping: None,
        };
        let frame = self
            .out
            .frame_to(SERVER_IP, IpProto::Heartbeat, hb.encode());
        ctx.send_frame(NicId(0), frame.expect("server resolves"));
        ctx.set_timer(SimDuration::from_millis(100), token);
    }
}

/// `until` in the life of a server wired by `setup` (given the forger's
/// node) whose real peers are silent while a [`Forger`] at `src` sends
/// it `ctrl` and heartbeats: the server's node and its world.
fn forged_world(
    src: Ipv4Addr,
    ctrl: CtrlMsg,
    setup: impl FnOnce(NodeId) -> ServerSetup,
    until: SimTime,
) -> (World, NodeId) {
    let mut world = World::new(1);
    let mut out = IpInterface::new(NicId(0), MacAddr::unicast(9), src);
    out.add_arp(SERVER_IP, MacAddr::unicast(2));
    let forger = world.add_node("forger", Box::new(Forger { out, ctrl, seq: 0 }));
    let forger_nic = world.add_nic(forger, MacAddr::unicast(9));
    let mut iface = IpInterface::new(NicId(0), MacAddr::unicast(2), SERVER_IP);
    iface.add_arp(PEER_IP, MacAddr::unicast(1));
    let app = || Box::new(EchoApp::default()) as Box<dyn Application>;
    let server = StTcpServer::new(setup(forger), iface, Box::new(app));
    let server = world.add_node("server", Box::new(server));
    let server_nic = world.add_nic(server, MacAddr::unicast(2));
    world.connect_nodes(
        (forger, forger_nic),
        (server, server_nic),
        LinkParams::lan(),
    );
    world.start();
    world.run_until(until);
    (world, server)
}

/// One second in the life of an active pair primary asked to serve a
/// join from `src`: IP heartbeats it counted, whether it began serving
/// the join, and whether it declared its (silent) peer failed.
fn primary_hearing(src: Ipv4Addr) -> (u64, bool, bool) {
    let join = CtrlMsg::JoinRequest { session: 77 };
    let setup = |node| server_setup(Role::Primary, StTcpConfig::default(), node);
    let (world, server) = forged_world(src, join, setup, t(1_000));
    let s = world.node::<StTcpServer>(server).expect("server type");
    let logged = |want: fn(&StTcpEvent) -> bool| s.events().iter().any(want);
    (
        s.metrics().hb_received(HbLink::Ip),
        logged(|e| matches!(e, StTcpEvent::ReintegrationStarted { .. })),
        logged(|e| matches!(e, StTcpEvent::PeerDeclaredFailed { .. })),
    )
}

/// Rank 2 of the three-member pool whose rank-1 member the server is.
const RANK2_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 4);

/// The ranks rank 1 of a three-member pool logs fenced within 300 ms —
/// before any silence could open a round of its own — when `src` sends
/// it a commit fencing the active, rank 0.
fn pool_member_fenced(src: Ipv4Addr) -> Vec<u8> {
    let commit = CtrlMsg::FenceCommit {
        epoch: 1,
        target_rank: 0,
    };
    let setup = |node| {
        let member = |rank, ip| PoolPeer { rank, ip, node };
        ServerSetup {
            peers: vec![member(0, PEER_IP), member(2, RANK2_IP)],
            pool: true,
            ..server_setup(Role::Backup, StTcpConfig::default(), node)
        }
    };
    let (world, server) = forged_world(src, commit, setup, t(300));
    let s = world.node::<StTcpServer>(server).expect("server type");
    let fenced = s.events().iter().filter_map(|e| match e {
        StTcpEvent::PoolMemberFenced { rank, .. } => Some(*rank),
        _ => None,
    });
    fenced.collect()
}

/// Every client shares the switch with the servers' private addresses,
/// so a CRC-valid heartbeat or control message proves nothing about who
/// sent it. From a third address the stream must leave the heartbeat
/// counters, the link monitors (the silent peer is condemned on
/// schedule), the event log and the pool's fence state alone; from a
/// member's address the same frames are liveness, a join, and an adopted
/// fence commit.
#[test]
fn heartbeats_and_control_count_only_from_members() {
    let third_host = Ipv4Addr::new(10, 0, 0, 9);
    assert_eq!(primary_hearing(third_host), (0, false, true));
    let (heartbeats, joining, condemned) = primary_hearing(PEER_IP);
    assert!(heartbeats >= 9 && joining && !condemned);
    assert_eq!(pool_member_fenced(third_host), Vec::<u8>::new());
    assert_eq!(pool_member_fenced(RANK2_IP), vec![0]);
}

fn arb_snapshot_msg() -> impl Strategy<Value = ConnSnapshotMsg> {
    (
        (any::<u32>(), any::<u32>(), any::<u32>(), any::<u16>()),
        (any::<u32>(), any::<u32>(), any::<u64>(), any::<u64>()),
        (
            proptest::option::of(any::<u64>()),
            any::<bool>(),
            any::<bool>(),
            any::<u64>(),
        ),
        (
            vec(any::<u8>(), 0..512),
            vec(any::<u8>(), 0..512),
            vec(any::<u8>(), 0..256),
        ),
    )
        .prop_map(
            |(
                (session, conn, client_ip, client_port),
                (iss, peer_isn, snd_una, rcv_start),
                (fin_offset, local_fin, peer_fin_consumed, app_digest),
                (unacked, pending, app_state),
            )| ConnSnapshotMsg {
                session,
                conn,
                snap: TcpSnapshot {
                    tuple: FourTuple {
                        local: (Ipv4Addr::UNSPECIFIED, 0),
                        remote: (Ipv4Addr::from(client_ip), client_port),
                    },
                    iss: SeqNum(iss),
                    peer_isn: SeqNum(peer_isn),
                    snd_una,
                    unacked: Bytes::from(unacked),
                    local_fin,
                    rcv_start,
                    pending: Bytes::from(pending),
                    fin_offset,
                    peer_fin_consumed,
                },
                app_digest,
                app_state: Bytes::from(app_state),
            },
        )
}

fn arb_conn_hb() -> impl Strategy<Value = ConnHb> {
    (
        any::<u32>(),
        any::<u32>(),
        any::<u32>(),
        any::<u32>(),
        any::<u32>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(key, lbr, lar, labw, labr, fin, rst, wd)| ConnHb {
            key,
            last_byte_received: lbr as u64,
            last_ack_received: lar as u64,
            last_app_byte_written: labw as u64,
            last_app_byte_read: labr as u64,
            fin_generated: fin,
            rst_generated: rst,
            app_suspected: wd,
        })
}

/// A row-2 detector for `cfg`, judging from t = 0 on.
fn judging(cfg: &StTcpConfig) -> AppLagDetector {
    let mut det = AppLagDetector::new(cfg);
    det.engage(t(0), true, Some(t(0)));
    det
}

/// The config of a pair with the given heartbeat and check periods.
fn periods(hb_ms: u64, check_ms: u64) -> StTcpConfig {
    StTcpConfig {
        hb_period: SimDuration::from_millis(hb_ms),
        check_period: SimDuration::from_millis(check_ms),
        ..StTcpConfig::default()
    }
}

/// One stretch of a connection's life, in check ticks: `hold` ticks in
/// which nothing moves, then one in which this side's read and write
/// positions jump and the peer's heartbeat reports `news` — nothing new
/// (0), its positions as of before the jump (1), or level (2).
fn lag_stretch() -> impl Strategy<Value = (u64, u64, u64, u8)> {
    let jump = || prop_oneof![Just(0u64), 1u64..4_096, 64 * 1024..256 * 1024u64];
    (0u64..40, jump(), jump(), 0u8..3)
}

proptest! {
    // ------------------------------------------------------------------
    // Heartbeat wire format
    // ------------------------------------------------------------------

    #[test]
    fn heartbeat_roundtrips(
        seqno: u32,
        primary: bool,
        rank: u8,
        conns in vec(arb_conn_hb(), 0..50),
        ping in proptest::option::of((any::<u32>(), any::<u32>())),
    ) {
        let hb = HbPayload {
            seqno,
            role: if primary { Role::Primary } else { Role::Backup },
            rank,
            conns,
            ping: ping.map(|(f, a)| PingReport {
                consecutive_failures: f,
                attempts: a,
            }),
        };
        let wire = hb.encode();
        prop_assert_eq!(wire.len(), hb.wire_len());
        prop_assert_eq!(HbPayload::decode(&wire).unwrap(), hb);
    }

    #[test]
    fn heartbeat_truncation_always_rejected(
        conns in vec(arb_conn_hb(), 0..10),
        cut in 1usize..40,
    ) {
        let hb = HbPayload { seqno: 1, role: Role::Primary, rank: 0, conns, ping: None };
        let wire = hb.encode();
        let cut = cut.min(wire.len());
        if cut > 0 {
            prop_assert!(HbPayload::decode(&wire[..wire.len() - cut]).is_err());
        }
    }

    /// The heartbeat decoder is total: arbitrary bytes — any length,
    /// any content — either decode or return an error, never panic and
    /// never over-read. (The simnet can corrupt any frame; a panic in a
    /// decoder would turn bit rot into a crashed server.)
    #[test]
    fn heartbeat_decode_never_panics(wire in vec(any::<u8>(), 0..512)) {
        let _ = HbPayload::decode(&wire);
    }

    /// A single flipped bit anywhere in an encoded heartbeat is always
    /// rejected — the CRC turns corruption into loss, never action.
    #[test]
    fn heartbeat_any_bit_flip_rejected(
        conns in vec(arb_conn_hb(), 0..8),
        flip in any::<u32>(),
    ) {
        let hb = HbPayload { seqno: 7, role: Role::Primary, rank: 0, conns, ping: None };
        let mut wire = hb.encode().to_vec();
        let bit = flip as usize % (wire.len() * 8);
        wire[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(HbPayload::decode(&wire).is_err());
    }

    // ------------------------------------------------------------------
    // Delta heartbeat (v2) wire format
    // ------------------------------------------------------------------

    #[test]
    fn hb_frame_roundtrips(
        hdr in (any::<u32>(), any::<bool>(), any::<u8>(), any::<bool>()),
        epochs in (any::<u32>(), any::<u32>()),
        link in 0u8..6,
        acks in vec(any::<u32>(), 1..6),
        conns in vec(arb_conn_hb(), 0..50),
        ping in proptest::option::of((any::<u32>(), any::<u32>())),
    ) {
        let (seqno, primary, rank, delta) = hdr;
        let (epoch, ack_epoch) = epochs;
        let f = HbFrame {
            kind: if delta { HbFrameKind::Delta } else { HbFrameKind::Full },
            epoch,
            link,
            ack_epoch,
            part: 0,
            parts: 1,
            acks,
            hb: HbPayload {
                seqno,
                role: if primary { Role::Primary } else { Role::Backup },
                rank,
                conns,
                ping: ping.map(|(fails, a)| PingReport {
                    consecutive_failures: fails,
                    attempts: a,
                }),
            },
        };
        let wire = f.encode();
        prop_assert_eq!(wire.len(), f.wire_len());
        prop_assert_eq!(HbFrame::decode(&wire).unwrap(), f.clone());
        // The version dispatcher must route v2 wires to the v2 decoder.
        match decode_any(&wire).unwrap() {
            AnyHb::V2(g) => prop_assert_eq!(g, f),
            AnyHb::V1(_) => prop_assert!(false, "decode_any picked v1 for a v2 wire"),
        }
    }

    #[test]
    fn hb_frame_truncation_always_rejected(
        conns in vec(arb_conn_hb(), 0..10),
        acks in vec(any::<u32>(), 1..5),
        cut in 1usize..40,
    ) {
        let f = HbFrame {
            kind: HbFrameKind::Delta,
            epoch: 9,
            link: 0,
            ack_epoch: 3,
            part: 0,
            parts: 1,
            acks,
            hb: HbPayload { seqno: 1, role: Role::Primary, rank: 0, conns, ping: None },
        };
        let wire = f.encode();
        let cut = cut.min(wire.len());
        if cut > 0 {
            prop_assert!(HbFrame::decode(&wire[..wire.len() - cut]).is_err());
            prop_assert!(decode_any(&wire[..wire.len() - cut]).is_err());
        }
    }

    /// Both v2 decoders are total: arbitrary bytes never panic.
    #[test]
    fn hb_frame_decode_never_panics(wire in vec(any::<u8>(), 0..512)) {
        let _ = HbFrame::decode(&wire);
        let _ = decode_any(&wire);
    }

    /// A single flipped bit anywhere in an encoded v2 frame is always
    /// rejected — by the v2 decoder and by the version dispatcher (a
    /// corrupted version byte must not smuggle the frame through the v1
    /// path).
    #[test]
    fn hb_frame_any_bit_flip_rejected(
        conns in vec(arb_conn_hb(), 0..8),
        acks in vec(any::<u32>(), 1..5),
        flip in any::<u32>(),
    ) {
        let f = HbFrame {
            kind: HbFrameKind::Full,
            epoch: 5,
            link: 1,
            ack_epoch: 5,
            part: 0,
            parts: 1,
            acks,
            hb: HbPayload { seqno: 7, role: Role::Primary, rank: 0, conns, ping: None },
        };
        let mut wire = f.encode().to_vec();
        let bit = flip as usize % (wire.len() * 8);
        wire[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(HbFrame::decode(&wire).is_err());
        prop_assert!(decode_any(&wire).is_err());
    }

    // ------------------------------------------------------------------
    // Recovery control-channel wire format
    // ------------------------------------------------------------------

    /// Control messages round-trip exactly.
    #[test]
    fn ctrl_msg_roundtrips(
        conn: u32,
        from: u64,
        max: u32,
        data in vec(any::<u8>(), 0..2048),
    ) {
        let req = CtrlMsg::FetchRequest { conn, from, max };
        prop_assert_eq!(CtrlMsg::decode(&req.encode()).unwrap(), req);
        let reply = CtrlMsg::FetchReply {
            conn,
            from,
            data: Bytes::from(data),
        };
        prop_assert_eq!(CtrlMsg::decode(&reply.encode()).unwrap(), reply);
    }

    /// The re-integration messages round-trip exactly, including a full
    /// per-connection snapshot with all three opaque byte fields.
    #[test]
    fn ctrl_join_msgs_roundtrip(
        session: u32,
        conns: u32,
        new_rank: u8,
        snap in arb_snapshot_msg(),
    ) {
        for msg in [
            CtrlMsg::JoinRequest { session },
            CtrlMsg::JoinDone { session, conns, new_rank },
            CtrlMsg::JoinComplete { session },
            CtrlMsg::ConnSnapshot(snap),
        ] {
            prop_assert_eq!(CtrlMsg::decode(&msg.encode()).unwrap(), msg);
        }
    }

    /// The control decoder is total on arbitrary bytes.
    #[test]
    fn ctrl_decode_never_panics(wire in vec(any::<u8>(), 0..2048)) {
        let _ = CtrlMsg::decode(&wire);
    }

    /// *Any* contiguous subslice of a valid control message — not just
    /// tail truncations — either errors or round-trips; it never panics.
    /// Pins the decoders' reads staying total through the shared
    /// `wire::read_*`/`checked_crc_frame` helpers.
    #[test]
    fn ctrl_subslice_never_panics(
        data in vec(any::<u8>(), 0..256),
        lo in 0usize..300,
        hi in 0usize..300,
    ) {
        let full = CtrlMsg::FetchReply {
            conn: 5,
            from: 99,
            data: Bytes::from(data),
        }
        .encode();
        let lo = lo.min(full.len());
        let hi = hi.min(full.len()).max(lo);
        let _ = CtrlMsg::decode(&full[lo..hi]);
    }

    /// Same for heartbeats: arbitrary windows into a valid frame are
    /// rejected or decoded, never a panic.
    #[test]
    fn heartbeat_subslice_never_panics(
        conns in vec(arb_conn_hb(), 0..10),
        lo in 0usize..300,
        hi in 0usize..300,
    ) {
        let hb = HbPayload { seqno: 3, role: Role::Backup, rank: 1, conns, ping: None };
        let full = hb.encode();
        let lo = lo.min(full.len());
        let hi = hi.min(full.len()).max(lo);
        let _ = HbPayload::decode(&full[lo..hi]);
    }

    /// The total read helpers agree with direct big-endian reads exactly
    /// when in bounds, and return `None` (never panic) otherwise.
    #[test]
    fn wire_read_helpers_are_total_and_exact(
        data in vec(any::<u8>(), 0..64),
        pos in 0usize..80,
    ) {
        match wire::read_u32_at(&data, pos) {
            Some(v) => {
                prop_assert!(pos + 4 <= data.len());
                let mut b = [0u8; 4];
                b.copy_from_slice(&data[pos..pos + 4]);
                prop_assert_eq!(v, u32::from_be_bytes(b));
            }
            None => prop_assert!(pos + 4 > data.len()),
        }
        match wire::read_u64_at(&data, pos) {
            Some(v) => {
                prop_assert!(pos + 8 <= data.len());
                let mut b = [0u8; 8];
                b.copy_from_slice(&data[pos..pos + 8]);
                prop_assert_eq!(v, u64::from_be_bytes(b));
            }
            None => prop_assert!(pos + 8 > data.len()),
        }
    }

    /// CRC-tail framing: a well-formed frame splits and verifies; every
    /// truncation of it (and every min_body above the payload) is
    /// rejected without panicking.
    #[test]
    fn crc_tail_framing_is_total(
        body in vec(any::<u8>(), 0..128),
        cut in 0usize..140,
        min_body in 0usize..140,
    ) {
        let mut framed = body.clone();
        framed.extend_from_slice(&wire::crc32(&body).to_be_bytes());
        prop_assert_eq!(wire::checked_crc_frame(&framed, body.len()), Some(&body[..]));
        if min_body > body.len() {
            prop_assert_eq!(wire::checked_crc_frame(&framed, min_body), None);
        }
        let cut = cut.min(framed.len());
        if cut > 0 {
            let short = &framed[..framed.len() - cut];
            prop_assert_eq!(wire::checked_crc_frame(short, body.len()), None);
        }
    }

    /// Any truncation of an encoded snapshot is rejected — the decoder
    /// never mistakes a cut-off byte field for a shorter valid one.
    #[test]
    fn ctrl_snapshot_truncation_always_rejected(
        snap in arb_snapshot_msg(),
        cut in 1usize..64,
    ) {
        let wire = CtrlMsg::ConnSnapshot(snap).encode();
        let cut = cut.min(wire.len());
        prop_assert!(CtrlMsg::decode(&wire[..wire.len() - cut]).is_err());
    }

    /// A single flipped bit anywhere in an encoded snapshot is rejected
    /// (CRC) — corrupt state can never be installed into a joiner.
    #[test]
    fn ctrl_snapshot_any_bit_flip_rejected(
        snap in arb_snapshot_msg(),
        flip in any::<u32>(),
    ) {
        let mut wire = CtrlMsg::ConnSnapshot(snap).encode().to_vec();
        let bit = flip as usize % (wire.len() * 8);
        wire[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(CtrlMsg::decode(&wire).is_err());
    }

    /// Any truncation of a valid control message is rejected.
    #[test]
    fn ctrl_truncation_always_rejected(
        data in vec(any::<u8>(), 0..256),
        cut in 1usize..64,
    ) {
        let wire = CtrlMsg::FetchReply {
            conn: 3,
            from: 1 << 33,
            data: Bytes::from(data),
        }
        .encode();
        let cut = cut.min(wire.len());
        prop_assert!(CtrlMsg::decode(&wire[..wire.len() - cut]).is_err());
    }

    /// A single flipped bit anywhere in a control message is rejected.
    #[test]
    fn ctrl_any_bit_flip_rejected(
        data in vec(any::<u8>(), 0..64),
        flip in any::<u32>(),
    ) {
        let mut wire = CtrlMsg::FetchReply {
            conn: 9,
            from: 42,
            data: Bytes::from(data),
        }
        .encode()
        .to_vec();
        let bit = flip as usize % (wire.len() * 8);
        wire[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(CtrlMsg::decode(&wire).is_err());
    }

    #[test]
    fn unwrap_recovers_any_value_within_half_space(
        true_val in 0u64..(1u64 << 45),
        skew in -(1i64 << 30)..(1i64 << 30),
    ) {
        let near = (true_val as i64 + skew).max(0) as u64;
        prop_assert_eq!(unwrap_u32_near(true_val as u32, near), true_val);
    }

    // ------------------------------------------------------------------
    // Application-lag detector soundness
    // ------------------------------------------------------------------

    /// A healthy peer whose positions refresh on every heartbeat is never
    /// condemned, at any data rate, heartbeat period, or check period.
    #[test]
    fn healthy_peer_never_condemned(
        rate_per_ms in 0u64..10_000,
        hb_ms in 50u64..1_000,
        check_ms in 10u64..100,
        run_ms in 2_000u64..8_000,
    ) {
        let (det, mut lag) = (judging(&periods(hb_ms, check_ms)), AppLag::default());
        let mut peer_reported = 0u64;
        let mut next_hb = 0u64;
        let mut ms = 0u64;
        while ms < run_ms {
            let my_pos = ms * rate_per_ms;
            if ms >= next_hb {
                // Peer is healthy: its position at HB time equals ours.
                peer_reported = my_pos;
                next_hb += hb_ms;
            }
            let verdict = det.check(&mut lag, t(ms), (my_pos, my_pos), (peer_reported, peer_reported));
            prop_assert_eq!(verdict, None, "false positive at {}ms", ms);
            ms += check_ms;
        }
    }

    /// A frozen peer (crashed application) is always condemned within
    /// max(AppMaxLagTime, confirm) + one heartbeat of slack, provided the
    /// local side keeps making progress.
    #[test]
    fn frozen_peer_always_condemned(
        rate_per_ms in 100u64..10_000,
        hb_ms in 50u64..500,
        freeze_at_ms in 500u64..2_000,
    ) {
        let check_ms = 50u64;
        let cfg = periods(hb_ms, check_ms);
        let (confirm, max_time) = (cfg.effective_lag_confirm(), cfg.app_max_lag_time);
        let (det, mut lag) = (judging(&cfg), AppLag::default());
        let mut peer_reported = 0u64;
        let mut next_hb = 0u64;
        let freeze_pos = freeze_at_ms * rate_per_ms;
        let mut fired_at = None;
        let mut ms = 0u64;
        while ms < freeze_at_ms + 10_000 {
            let my_pos = ms * rate_per_ms;
            if ms >= next_hb {
                peer_reported = my_pos.min(freeze_pos);
                next_hb += hb_ms;
            }
            if det
                .check(&mut lag, t(ms), (my_pos, my_pos), (peer_reported, peer_reported))
                .is_some()
            {
                fired_at = Some(ms);
                break;
            }
            ms += check_ms;
        }
        let fired_at = fired_at.expect("frozen peer must be condemned");
        prop_assert!(fired_at >= freeze_at_ms, "condemned before the freeze");
        let bound = freeze_at_ms
            + max_time.as_millis().max(confirm.as_millis())
            + hb_ms
            + 2 * check_ms;
        prop_assert!(
            fired_at <= bound,
            "detection at {}ms exceeds bound {}ms",
            fired_at,
            bound
        );
    }

    /// The reason is AppLagBytes when the byte threshold is crossed with
    /// a stalled peer, AppLagTime otherwise — and only those two reasons
    /// ever come out of the detector.
    #[test]
    fn detector_reasons_are_in_range(
        observations in vec((0u64..1_000_000, 0u64..1_000_000), 1..50),
    ) {
        let det = judging(&StTcpConfig {
            app_max_lag_bytes: 10_000,
            app_max_lag_time: SimDuration::from_millis(700),
            ..StTcpConfig::default()
        });
        let mut lag = AppLag::default();
        for (i, (mine, peers)) in observations.into_iter().enumerate() {
            if let Some(r) = det.check(&mut lag, t(i as u64 * 100), (mine, mine), (peers, peers)) {
                prop_assert!(matches!(
                    r,
                    FailureReason::AppLagBytes | FailureReason::AppLagTime
                ));
            }
        }
    }

    /// The check set's sparse visits judge as the walk of every
    /// connection at every check tick did. Dense visits each tick; sparse
    /// visits the first, then only a tick where a position moved since
    /// its last visit or that visit left a watermark aging. Both give the
    /// same verdict at the same tick — a level stretch longer than the
    /// confirmation window, then a jump past `AppMaxLagBytes`, included.
    #[test]
    fn sparse_visits_judge_as_every_tick_does(stretches in vec(lag_stretch(), 1..24)) {
        let cfg = StTcpConfig::default();
        let det = judging(&cfg);
        let (mut dense, mut sparse) = (AppLag::default(), AppLag::default());
        let (mut mine, mut peers) = ((0, 0), (0, 0));
        let (mut seen, mut now) = (None, t(0));
        for (hold, d_read, d_write, news) in stretches {
            for step in 0..=hold {
                if step == hold {
                    let before = mine;
                    mine = (mine.0 + d_read, mine.1 + d_write);
                    peers = [peers, before, mine][news as usize];
                }
                let every = det.check(&mut dense, now, mine, peers);
                let visit = seen != Some((mine, peers)) || sparse.needs_check();
                seen = Some((mine, peers));
                let sparsely = visit.then(|| det.check(&mut sparse, now, mine, peers));
                prop_assert_eq!(every, sparsely.flatten(), "at {}", now);
                if every.is_some() {
                    return Ok(());
                }
                now += cfg.check_period;
            }
        }
    }

    // ------------------------------------------------------------------
    // O(active) sets vs their full-walk definitions
    // ------------------------------------------------------------------

    /// Whatever heartbeats (v1 or v2, either link, replayed, restarted,
    /// acking or not), client traffic, and tap losses a backup sees, the
    /// lag set never misses a connection the every-connection recovery
    /// walk would act on, and the unacked set never misses a record the
    /// whole-cache heartbeat walk would send. (Debug builds additionally
    /// assert both walks inside `run_recovery` and every delta round, and
    /// that a pruned unacked set *equals* the walk.)
    #[test]
    fn active_sets_match_their_full_walk_definitions(
        script in vec(set_op_strategy(), 1..120),
    ) {
        let steps = script.len() as u64 + 20;
        let (mut world, server) = puppet_world(script);
        for step in 1..=steps {
            world.run_until(SimTime::ZERO + STEP * step);
            let s = world.node::<StTcpServer>(server).expect("server type");
            if let Err(e) = s.check_active_sets() {
                prop_assert!(false, "step {}: {}", step, e);
            }
        }
        // The harness is only meaningful while the server stays a
        // fault-tolerant backup.
        let s = world.node::<StTcpServer>(server).expect("server type");
        prop_assert_eq!(s.role(), Role::Backup);
        prop_assert!(s.ft_mode(), "verdict fired: {:?}", s.events());
    }

    // ------------------------------------------------------------------
    // FIN arbitration safety
    // ------------------------------------------------------------------

    /// Whatever the event order, a primary-side arbiter (a) never issues
    /// DeclarePeerFailed once the local side has closed too, and (b)
    /// releases a held FIN at most once.
    #[test]
    fn finarb_safety_under_arbitrary_event_orders(events in vec(0u8..5, 1..30)) {
        let mut arb = FinArbiter::new(Role::Primary, SimDuration::from_secs(10));
        let mut releases = 0;
        let mut verdicts = 0;
        let mut local_closed = false;
        let mut clock = 0u64;
        for e in events {
            clock += 500;
            let action = match e {
                0 => {
                    if local_closed { continue; }
                    local_closed = true;
                    Some(arb.on_local_close(t(clock)))
                }
                1 => arb.on_peer_hb(t(clock), true),
                2 => arb.note_client_fin(t(clock)),
                3 => arb.on_check(t(clock + 60_000)), // deadlines long past
                _ => arb.on_peer_failed(),
            };
            match action {
                Some(ArbAction::ReleaseFin(_)) => releases += 1,
                Some(ArbAction::DeclarePeerFailed) => {
                    verdicts += 1;
                    prop_assert!(!local_closed, "verdict after local close");
                }
                _ => {}
            }
        }
        prop_assert!(releases <= 1, "FIN released {releases} times");
        prop_assert!(verdicts <= 1, "peer condemned {verdicts} times");
    }
}
