//! N-replica standby-pool scenario: one active plus K ≥ 2 tapping
//! backups, pairwise serial heartbeat links, rank-ordered takeover with
//! quorum-checked fencing, and continuous re-integration.
//!
//! [`PoolScenarioBuilder`] wires the paper's Figure 2 topology widened to
//! N servers: every replica aliases the service IP, taps the client's
//! multicast frames, and exchanges heartbeats with every other member
//! over both IP and a dedicated null-modem cable per pair. Faults reuse
//! the chaos vocabulary ([`FaultSchedule`]): in a pool world,
//! `Side::Primary` addresses the rank-0 member and `Side::Backup` the
//! rank-1 member, so the stock generators kill the takeover chain in
//! order while deeper members supply quorum.
//!
//! [`run_pool_case`] is the pool counterpart of
//! [`crate::chaos::run_chaos_case`]: same verifying download workload,
//! same determinism contract (equal `(seed, schedule, opts)` ⇒ equal
//! [`PoolReport::fingerprint`]), judged by
//! [`sttcp::invariant::check_pool`] — which adds the
//! `quorum-fence-precedes-takeover` invariant on top of the pairwise
//! properties.

use std::net::Ipv4Addr;
use std::rc::Rc;

use simnet::iplayer::IpInterface;
use simnet::link::{LinkDir, LinkId, LinkParams, SwitchId};
use simnet::mac::MacAddr;
use simnet::node::{NicId, NodeId};
use simnet::serial::{SerialId, SerialParams};
use simnet::time::{SimDuration, SimTime};
use simnet::world::World;

use simtcp::conn::TcpConfig;
use simtcp::socket::FourTuple;

use sttcp::config::{Role, StTcpConfig};
use sttcp::events::StTcpEvent;
use sttcp::heartbeat::conn_key;
use sttcp::invariant::{self, ClientView, Outcome, PoolExpectation, ServerView, Violation};
use sttcp::pool::PoolPeer;
use sttcp::server::{ServerSetup, StTcpServer};

use crate::apps::StreamApp;
use crate::chaos::{
    chaos_config, eprint_record, ChaosAction, ChaosOptions, FaultSchedule, LinkSel, Side,
};
use crate::client::{ClientConfig, ClientLog, ClientWorkload, TcpClient};
use crate::scenario::{Addressing, AppMaker, Scenario};

/// Builder for an N-replica pool world (default three replicas: one
/// active, two standbys — the smallest pool where fencing is a real
/// quorum vote rather than degenerate STONITH).
pub struct PoolScenarioBuilder {
    seed: u64,
    replicas: usize,
    sttcp: StTcpConfig,
    tcp: Rc<TcpConfig>,
    app: AppMaker,
    workload: ClientWorkload,
    connect_at: SimDuration,
    link: LinkParams,
    serial: SerialParams,
}

impl PoolScenarioBuilder {
    /// Starts a builder with an app factory and a client workload.
    pub fn new(app: AppMaker, workload: ClientWorkload) -> PoolScenarioBuilder {
        PoolScenarioBuilder {
            seed: 1,
            replicas: 3,
            sttcp: StTcpConfig::default(),
            tcp: Rc::default(),
            app,
            workload,
            connect_at: SimDuration::from_millis(100),
            link: LinkParams::lan(),
            serial: SerialParams::rs232(),
        }
    }

    /// Sets the world seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the replica count (2..=8; 2 is the degenerate pair-shaped
    /// pool where every fence is a self-quorum STONITH).
    pub fn replicas(mut self, n: usize) -> Self {
        assert!((2..=8).contains(&n), "pool size {n} out of range 2..=8");
        self.replicas = n;
        self
    }

    /// Sets the ST-TCP configuration shared by every member.
    pub fn sttcp(mut self, cfg: StTcpConfig) -> Self {
        self.sttcp = cfg;
        self
    }

    /// Sets the TCP configuration used by servers and client.
    pub fn tcp(mut self, cfg: TcpConfig) -> Self {
        self.tcp = Rc::new(cfg);
        self
    }

    /// Wires the world and starts it.
    pub fn build(self) -> PoolScenario {
        let a = Addressing::default();
        let n = self.replicas;
        let mut world = World::new(self.seed);

        let ips: Vec<Ipv4Addr> = (0..n)
            .map(|i| Ipv4Addr::new(10, 0, 0, 2 + i as u8))
            .collect();
        let macs: Vec<MacAddr> = (0..n).map(|i| MacAddr::unicast(2 + i as u32)).collect();
        let client_id = NodeId(0);
        let server_ids: Vec<NodeId> = (0..n).map(|i| NodeId(1 + i)).collect();

        // --- client (gateway), tapping via the multicast EA ---
        let mut client_iface = IpInterface::new(NicId(0), a.client_mac, a.client_ip);
        client_iface.add_arp(a.service_ip, a.multi_ea);
        for (ip, mac) in ips.iter().zip(macs.iter()) {
            client_iface.add_arp(*ip, *mac);
        }
        let client_cfg = ClientConfig {
            server: (a.service_ip, a.service_port),
            local_port: 40_000,
            workload: self.workload.clone(),
            connect_at: self.connect_at,
            reconnect: None,
            tcp: self.tcp.clone(),
            seed: self.seed ^ 0xc11e,
        };
        let client = TcpClient::new(client_cfg, client_iface);
        assert_eq!(world.add_node("client", Box::new(client)), client_id);

        // --- pool members, rank i at 10.0.0.(2+i) ---
        for i in 0..n {
            let mut iface = IpInterface::new(NicId(0), macs[i], ips[i]);
            iface.add_alias(a.service_ip);
            iface.add_arp(a.client_ip, a.client_mac);
            for j in 0..n {
                if j != i {
                    iface.add_arp(ips[j], macs[j]);
                }
            }
            let pool: Vec<PoolPeer> = (0..n)
                .filter(|&j| j != i)
                .map(|j| PoolPeer {
                    rank: j as u8,
                    ip: ips[j],
                    node: server_ids[j],
                })
                .collect();
            // Pair-mode peer fields are unused in pool mode but must
            // point at a real member; use the neighbour.
            let peer = if i == 0 { 1 } else { 0 };
            let setup = ServerSetup {
                role: if i == 0 { Role::Primary } else { Role::Backup },
                sttcp: self.sttcp.clone(),
                tcp: TcpConfig::clone(&self.tcp),
                service_ip: a.service_ip,
                service_port: a.service_port,
                private_ip: ips[i],
                peer_private_ip: ips[peer],
                peer_node: server_ids[peer],
                gateway_ip: a.client_ip,
                isn_salt: 0x5757_5757 ^ self.seed,
                seed: self.seed ^ (0x9f1a + i as u64),
                rank: i as u8,
                pool,
            };
            let app = self.app.clone();
            let server = StTcpServer::new(setup, iface, Box::new(move || app()));
            let name = format!("pool{i}");
            assert_eq!(world.add_node(&name, Box::new(server)), server_ids[i]);
        }

        // --- switch fabric ---
        let cn = world.add_nic(client_id, a.client_mac);
        let nics: Vec<_> = (0..n)
            .map(|i| world.add_nic(server_ids[i], macs[i]))
            .collect();
        let switch = world.add_switch(1 + n);
        let link_client = world.connect_to_switch(client_id, cn, switch, 0, self.link);
        let server_links: Vec<LinkId> = (0..n)
            .map(|i| world.connect_to_switch(server_ids[i], nics[i], switch, 1 + i, self.link))
            .collect();

        // --- pairwise null-modem mesh ---
        let mut serials = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                let (sid, port_i, port_j) =
                    world.connect_serial(server_ids[i], server_ids[j], self.serial);
                world
                    .node_mut::<StTcpServer>(server_ids[i])
                    .expect("server type")
                    .add_pool_serial(port_i, ips[j]);
                world
                    .node_mut::<StTcpServer>(server_ids[j])
                    .expect("server type")
                    .add_pool_serial(port_j, ips[i]);
                serials.push(sid);
            }
        }

        // Profiler attribution: client is application load, members are
        // the pool protocol machinery.
        world.set_node_component(client_id, simnet::profile::Component::App);
        for &sid in &server_ids {
            world.set_node_component(sid, simnet::profile::Component::Pool);
        }

        world.start();
        PoolScenario {
            world,
            client: client_id,
            servers: server_ids,
            ips,
            switch,
            link_client,
            server_links,
            serials,
            addressing: a,
        }
    }
}

/// A fully wired, started pool world.
pub struct PoolScenario {
    /// The simulation world.
    pub world: World,
    /// The client / gateway node.
    pub client: NodeId,
    /// Pool member nodes, indexed by initial rank.
    pub servers: Vec<NodeId>,
    /// Pool member private IPs, indexed by initial rank.
    pub ips: Vec<Ipv4Addr>,
    /// The Ethernet switch.
    pub switch: SwitchId,
    /// Client ↔ switch link.
    pub link_client: LinkId,
    /// Member ↔ switch links, indexed by initial rank.
    pub server_links: Vec<LinkId>,
    /// The pairwise serial channels, in `(i, j), i < j` order.
    pub serials: Vec<SerialId>,
    /// The addressing plan.
    pub addressing: Addressing,
}

impl PoolScenario {
    /// Immutable access to pool member `i` (by initial rank).
    pub fn server(&self, i: usize) -> &StTcpServer {
        self.world
            .node::<StTcpServer>(self.servers[i])
            .expect("server type")
    }

    /// The client's observation log.
    pub fn client_log(&self) -> &ClientLog {
        self.world
            .node::<TcpClient>(self.client)
            .expect("client type")
            .log()
    }

    /// The connection key of the client's first connection (for digest
    /// and heartbeat assertions).
    pub fn first_conn_key(&self) -> u32 {
        conn_key(FourTuple {
            local: (self.addressing.service_ip, self.addressing.service_port),
            remote: (self.addressing.client_ip, 40_000),
        })
    }

    /// True once the client's workload completed.
    pub fn client_finished(&self) -> bool {
        self.world
            .node::<TcpClient>(self.client)
            .expect("client type")
            .is_finished()
    }

    /// Schedules a HW/OS crash of member `i`.
    pub fn crash_at(&mut self, i: usize, at: SimTime) {
        let node = self.servers[i];
        self.world.schedule(at, move |w| w.crash_node(node));
    }

    /// Schedules a warm reboot of member `i` (no-op if still powered).
    pub fn reboot_at(&mut self, i: usize, at: SimTime) {
        let node = self.servers[i];
        self.world.schedule(at, move |w| {
            if !w.is_powered(node) {
                w.restore_node(node);
            }
        });
    }
}

impl FaultSchedule {
    /// Schedules every action into a pool world. `Side::Primary` targets
    /// the rank-0 member and `Side::Backup` the rank-1 member (nodes and
    /// links alike); the remaining members are never addressed directly
    /// and act as the pool's depth. `SerialFail`/`SerialRestore` hit the
    /// rank-0 ↔ rank-1 cable; the rest of the mesh stays up.
    pub fn apply_pool(&self, s: &mut PoolScenario) {
        for ta in &self.actions {
            let at = SimTime::from_millis(ta.at_ms);
            let node = |side: Side| -> NodeId {
                match side {
                    Side::Primary => s.servers[0],
                    Side::Backup => s.servers[1],
                }
            };
            let link = |sel: LinkSel| -> LinkId {
                match sel {
                    LinkSel::Client => s.link_client,
                    LinkSel::Primary => s.server_links[0],
                    LinkSel::Backup => s.server_links[1],
                }
            };
            match ta.action {
                ChaosAction::Crash(side) => {
                    let n = node(side);
                    s.world.schedule(at, move |w| w.crash_node(n));
                }
                ChaosAction::Reboot(side) => {
                    let n = node(side);
                    s.world.schedule(at, move |w| {
                        if !w.is_powered(n) {
                            w.restore_node(n);
                        }
                    });
                }
                ChaosAction::NicDown(side) => {
                    let n = node(side);
                    s.world.schedule(at, move |w| w.fail_nic(n, NicId(0)));
                }
                ChaosAction::NicUp(side) => {
                    let n = node(side);
                    s.world.schedule(at, move |w| w.restore_nic(n, NicId(0)));
                }
                ChaosAction::LinkCut(sel) => {
                    let l = link(sel);
                    s.world.schedule(at, move |w| w.cut_link(l));
                }
                ChaosAction::LinkRestore(sel) => {
                    let l = link(sel);
                    s.world.schedule(at, move |w| w.restore_link(l));
                }
                ChaosAction::LinkLoss(sel, pct) => {
                    let l = link(sel);
                    let p = f64::from(pct.min(100)) / 100.0;
                    s.world.schedule(at, move |w| {
                        w.set_link_loss(l, LinkDir::AtoB, p);
                        w.set_link_loss(l, LinkDir::BtoA, p);
                    });
                }
                ChaosAction::LinkLossEnd(sel) => {
                    let l = link(sel);
                    s.world.schedule(at, move |w| {
                        w.set_link_loss(l, LinkDir::AtoB, 0.0);
                        w.set_link_loss(l, LinkDir::BtoA, 0.0);
                    });
                }
                ChaosAction::DropTap(count) => {
                    let l = s.server_links[1];
                    let ip = s.addressing.service_ip;
                    Scenario::drop_tap(&mut s.world, l, ip, at, u64::from(count));
                }
                ChaosAction::CorruptFrames(sel, count) => {
                    let l = link(sel);
                    s.world.schedule(at, move |w| {
                        w.corrupt_frames(l, LinkDir::BtoA, u64::from(count))
                    });
                }
                ChaosAction::SerialFail => {
                    let ser = s.serials[0];
                    s.world.schedule(at, move |w| w.fail_serial(ser));
                }
                ChaosAction::SerialRestore => {
                    let ser = s.serials[0];
                    s.world.schedule(at, move |w| w.restore_serial(ser));
                }
                ChaosAction::AppCrash(side, mode) => {
                    let n = node(side);
                    s.world.schedule(at, move |w| {
                        let now = w.now();
                        w.note_fault(format!("app crash ({mode:?}) on n{}", n.0));
                        if let Some(server) = w.node_mut::<StTcpServer>(n) {
                            server.inject_app_crash(now, mode);
                        }
                    });
                }
                ChaosAction::Dup(sel, count) => {
                    let l = link(sel);
                    s.world.schedule(at, move |w| {
                        w.dup_frames(l, LinkDir::BtoA, u64::from(count))
                    });
                }
                ChaosAction::Reorder(sel, count) => {
                    let l = link(sel);
                    s.world.schedule(at, move |w| {
                        w.reorder_frames(l, LinkDir::BtoA, u64::from(count))
                    });
                }
                ChaosAction::Jitter(sel, ms) => {
                    let l = link(sel);
                    let max = SimDuration::from_millis(u64::from(ms));
                    s.world.schedule(at, move |w| {
                        w.set_link_jitter(l, LinkDir::AtoB, max);
                        w.set_link_jitter(l, LinkDir::BtoA, max);
                    });
                }
                ChaosAction::JitterEnd(sel) => {
                    let l = link(sel);
                    s.world.schedule(at, move |w| {
                        w.set_link_jitter(l, LinkDir::AtoB, SimDuration::ZERO);
                        w.set_link_jitter(l, LinkDir::BtoA, SimDuration::ZERO);
                    });
                }
                ChaosAction::ByzantineHb(side, mode) => {
                    let n = node(side);
                    s.world.schedule(at, move |w| {
                        w.note_fault(format!("byzantine hb ({mode:?}) on n{}", n.0));
                        if let Some(server) = w.node_mut::<StTcpServer>(n) {
                            server.inject_byzantine_hb(mode);
                        }
                    });
                }
            }
        }
    }
}

/// Derives the [`PoolExpectation`] a schedule makes legitimate in a
/// three-member pool. Conservative in the same sense as
/// [`FaultSchedule::expectation`]: the strict envelope is only claimed
/// for the crash/reboot (and pure-byzantine) shapes the pool generators
/// emit; anything more exotic widens the envelope rather than risking a
/// false violation.
pub fn pool_expectation(schedule: &FaultSchedule) -> PoolExpectation {
    use ChaosAction::*;

    let crashes: Vec<u64> = schedule
        .actions
        .iter()
        .filter(|a| matches!(a.action, Crash(_)))
        .map(|a| a.at_ms)
        .collect();

    // A takeover chain needs the previous fence to complete before the
    // next active dies: with crashes packed tighter than detection +
    // fence + STONITH, the last survivor can end up a minority that is
    // (correctly) unable to assemble a quorum — blocked, not split.
    let crashes_packed = crashes
        .windows(2)
        .any(|w| w[1].saturating_sub(w[0]) < 2_000);

    let pure_byzantine = !schedule.actions.is_empty()
        && schedule
            .actions
            .iter()
            .all(|a| matches!(a.action, ByzantineHb(..)));

    // Beyond crash/reboot/byzantine the pool envelope is not modeled
    // precisely; widen it instead of guessing.
    let exotic = schedule
        .actions
        .iter()
        .any(|a| !matches!(a.action, Crash(_) | Reboot(_) | ByzantineHb(..)));

    PoolExpectation {
        service_may_be_lost: crashes_packed || exotic,
        unrecoverable_gap_possible: exotic,
        verdicts_possible: !schedule.actions.is_empty(),
        // One takeover per crash, plus one for a byzantine active that
        // gets condemned and fenced by the honest majority.
        max_takeovers: crashes.len() as u32 + u32::from(pure_byzantine),
        max_stall: if exotic {
            None
        } else {
            Some(SimDuration::from_secs(15))
        },
    }
}

/// Everything a pool chaos run produced.
#[derive(Debug, Clone)]
pub struct PoolReport {
    /// The checker's classification.
    pub outcome: Outcome,
    /// Violated invariants (empty unless `outcome` is `Violation`).
    pub violations: Vec<Violation>,
    /// The client as the checker saw it.
    pub client: ClientView,
    /// Every member's event log, indexed by initial rank.
    pub member_events: Vec<Vec<StTcpEvent>>,
    /// Every member's rank at end of run (rejoiners get fresh ranks).
    pub final_ranks: Vec<u8>,
    /// Which member (by initial rank) ended the run active, if any.
    pub active_at_end: Option<usize>,
    /// `(start, end)` of the longest client stall, when measurable.
    pub stall_window: Option<(SimTime, SimTime)>,
    /// Every injected fault, as `(time, description)` in injection order.
    pub faults: Vec<(SimTime, String)>,
    /// Flight-recorder tail, captured when the run violated an
    /// invariant (or when [`ChaosOptions::flight_always`] asked for
    /// it). Deliberately excluded from [`PoolReport::fingerprint`].
    pub flight: Option<simnet::flight::FlightSnapshot>,
}

impl PoolReport {
    /// A stable digest of everything observable — equal `(seed,
    /// schedule, opts)` must produce equal fingerprints regardless of
    /// thread count (what `tests/pool.rs` pins).
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(format!("{:?}", self.outcome).as_bytes());
        eat(format!("{:?}", self.violations).as_bytes());
        eat(format!("{:?}", self.client).as_bytes());
        eat(format!("{:?}", self.member_events).as_bytes());
        eat(format!("{:?}", self.final_ranks).as_bytes());
        h
    }

    /// Total takeovers observed across the pool.
    pub fn takeovers(&self) -> u64 {
        self.member_events
            .iter()
            .flatten()
            .filter(|e| matches!(e, StTcpEvent::TookOver { .. }))
            .count() as u64
    }
}

/// Runs one pool chaos case: three replicas, verifying download
/// workload, re-integration enabled (rebooted members rejoin as fresh
/// backups), then [`invariant::check_pool`]. Fully deterministic in
/// `(seed, schedule, opts)`.
pub fn run_pool_case(seed: u64, schedule: &FaultSchedule, opts: &ChaosOptions) -> PoolReport {
    let mut s = PoolScenarioBuilder::new(
        Rc::new(|| Box::new(StreamApp::new(4096, false)) as _),
        ClientWorkload::Download {
            total: opts.total_bytes,
        },
    )
    .seed(seed)
    .sttcp(StTcpConfig {
        reintegrate: true,
        ..chaos_config()
    })
    .build();

    schedule.apply_pool(&mut s);
    let end = SimTime::ZERO + opts.horizon;
    s.world.run_until(end);

    let scheduled_crash = |i: usize| -> Option<SimTime> {
        let side = match i {
            0 => Side::Primary,
            1 => Side::Backup,
            _ => return None,
        };
        schedule
            .actions
            .iter()
            .filter(|a| a.action == ChaosAction::Crash(side))
            .map(|a| SimTime::from_millis(a.at_ms))
            .min()
    };

    let n = s.servers.len();
    let mut views = Vec::with_capacity(n);
    let mut member_events = Vec::with_capacity(n);
    let mut final_ranks = Vec::with_capacity(n);
    let mut active_at_end = None;
    for i in 0..n {
        let srv = s.server(i);
        let events = srv.events().to_vec();
        views.push(ServerView {
            configured_role: if i == 0 { Role::Primary } else { Role::Backup },
            events: events.clone(),
            powered_off_at: srv.was_powered_off().then(|| scheduled_crash(i)).flatten(),
            cold_standby: srv.cold_standby(),
            active_at_end: srv.is_active(),
        });
        if srv.is_active() {
            active_at_end = Some(i);
        }
        member_events.push(events);
        final_ranks.push(srv.pool_rank());
    }

    let log = s.client_log();
    let from = log
        .connects
        .first()
        .copied()
        .unwrap_or(SimTime::from_millis(100));
    let to = log.finished_at.unwrap_or(end);
    let client = ClientView {
        bytes_ok: log.total_received,
        integrity_violations: log.integrity_violations,
        resets: u64::from(log.resets),
        finished: s.client_finished(),
        longest_stall: log.longest_stall(from, to),
    };

    if opts.trace {
        let servers: Vec<_> = (member_events.iter().enumerate())
            .map(|(i, events)| (format!("rank{i}"), events.as_slice()))
            .collect();
        eprint_record(s.world.faults(), &servers);
    }

    let report = invariant::check_pool(&views, &client, &pool_expectation(schedule));
    let flight = (report.outcome == Outcome::Violation || opts.flight_always).then(|| {
        s.world
            .flight_snapshot(opts.flight_window_ms.map(SimDuration::from_millis))
    });
    PoolReport {
        outcome: report.outcome,
        violations: report.violations,
        client,
        member_events,
        final_ranks,
        active_at_end,
        stall_window: log.longest_stall_window(from, to),
        faults: s.world.faults().to_vec(),
        flight,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_schedules_are_coherent() {
        let a = FaultSchedule::generate_pool(3);
        assert_eq!(a, FaultSchedule::generate_pool(3));
        for seed in 0..100 {
            let s = FaultSchedule::generate_pool(seed);
            let crashes: Vec<&crate::chaos::TimedAction> = s
                .actions
                .iter()
                .filter(|t| matches!(t.action, ChaosAction::Crash(_)))
                .collect();
            assert_eq!(crashes.len(), 2, "seed {seed}: {s}");
            assert_eq!(crashes[0].action, ChaosAction::Crash(Side::Primary));
            assert_eq!(crashes[1].action, ChaosAction::Crash(Side::Backup));
            assert!(
                crashes[1].at_ms >= crashes[0].at_ms + 2_500,
                "seed {seed}: second kill must wait for the first fence: {s}"
            );
            let reparsed: FaultSchedule = s.to_string().parse().unwrap();
            assert_eq!(reparsed, s, "seed {seed}");
            let exp = pool_expectation(&s);
            assert!(!exp.service_may_be_lost, "seed {seed}: {s}");
            assert_eq!(exp.max_takeovers, 2);
            assert!(exp.verdicts_possible);
        }
    }

    #[test]
    fn pool_expectation_widens_for_packed_or_exotic_schedules() {
        let packed: FaultSchedule = "@500 crash primary; @900 crash backup".parse().unwrap();
        let e = pool_expectation(&packed);
        assert!(e.service_may_be_lost, "minority survivor may block");

        let exotic: FaultSchedule = "@500 crash primary; @600 loss client 30; @900 loss-end client"
            .parse()
            .unwrap();
        let e = pool_expectation(&exotic);
        assert!(e.service_may_be_lost);
        assert!(e.max_stall.is_none());

        let byz: FaultSchedule = "@500 byz-hb primary regress".parse().unwrap();
        let e = pool_expectation(&byz);
        assert!(!e.service_may_be_lost);
        assert_eq!(e.max_takeovers, 1);

        let quiet = FaultSchedule::default();
        assert!(!pool_expectation(&quiet).verdicts_possible);
    }

    #[test]
    fn quiet_pool_run_is_clean_and_silent() {
        let schedule = FaultSchedule::default();
        let report = run_pool_case(11, &schedule, &ChaosOptions::quick());
        assert_eq!(report.outcome, Outcome::Clean, "{:?}", report.violations);
        assert!(report.client.finished);
        assert_eq!(report.takeovers(), 0);
        assert_eq!(report.active_at_end, Some(0));
        assert_eq!(report.final_ranks, vec![0, 1, 2]);
    }

    #[test]
    fn active_kill_fails_over_by_rank_with_quorum_fence() {
        let schedule: FaultSchedule = "@800 crash primary".parse().unwrap();
        let report = run_pool_case(7, &schedule, &ChaosOptions::quick());
        assert_eq!(
            report.outcome,
            Outcome::Recovered,
            "{:?}",
            report.violations
        );
        assert!(report.client.finished);
        assert_eq!(report.takeovers(), 1);
        // The lowest-rank live backup, not the deeper one, takes over.
        assert_eq!(report.active_at_end, Some(1));
        let rank1 = &report.member_events[1];
        let quorum = rank1
            .iter()
            .find_map(|e| match e {
                StTcpEvent::FenceQuorumReached { votes, at, .. } => Some((*votes, *at)),
                _ => None,
            })
            .expect("taker must reach a fence quorum");
        // Both survivors vote: the candidate plus the rank-2 witness.
        assert_eq!(quorum.0, 2);
        let took = rank1
            .iter()
            .find_map(|e| match e {
                StTcpEvent::TookOver { at } => Some(*at),
                _ => None,
            })
            .unwrap();
        assert!(quorum.1 <= took);
    }

    #[test]
    fn sequential_kills_exhaust_to_deepest_backup() {
        let schedule: FaultSchedule = "@800 crash primary; @4500 crash backup".parse().unwrap();
        let report = run_pool_case(19, &schedule, &ChaosOptions::default());
        assert_eq!(
            report.outcome,
            Outcome::Recovered,
            "{:?}",
            report.violations
        );
        assert!(report.client.finished);
        assert_eq!(report.takeovers(), 2);
        assert_eq!(report.active_at_end, Some(2));
    }

    #[test]
    fn rebooted_member_rejoins_with_fresh_rank() {
        let schedule: FaultSchedule = "@800 crash primary; @1500 reboot primary".parse().unwrap();
        let report = run_pool_case(23, &schedule, &ChaosOptions::default());
        assert_eq!(
            report.outcome,
            Outcome::Recovered,
            "{:?}",
            report.violations
        );
        assert!(report.client.finished);
        // The ex-active rejoined under a rank behind every configured one.
        assert!(
            report.final_ranks[0] >= 3,
            "rejoiner kept rank {} instead of moving to the back",
            report.final_ranks[0]
        );
        assert!(report.member_events[0]
            .iter()
            .any(|e| matches!(e, StTcpEvent::ReintegrationCompleted { .. })));
    }

    #[test]
    fn pool_case_is_deterministic() {
        let schedule = FaultSchedule::generate_pool(5);
        let a = run_pool_case(5, &schedule, &ChaosOptions::quick());
        let b = run_pool_case(5, &schedule, &ChaosOptions::quick());
        assert_eq!(a.fingerprint(), b.fingerprint());
    }
}
