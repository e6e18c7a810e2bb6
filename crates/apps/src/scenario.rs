//! Topology builders: the paper's experimental setup (Figure 2) in code.
//!
//! The standard ST-TCP scenario is: a client (doubling as the gateway),
//! the primary, and the backup, all on one Ethernet switch; a serial
//! null-modem cable between the servers; the service IP aliased on both
//! servers; and a static ARP entry on the client mapping the service IP
//! to a **multicast** Ethernet address so the switch floods every client
//! frame to both servers — the tap.
//!
//! [`ScenarioBuilder::pool`] widens the same figure to an N-replica
//! standby pool: every member aliases the service IP and taps the
//! client's multicast frames, and a null-modem cable joins every pair of
//! members. One builder wires both: the pair is the two-member case,
//! with the paper's own protocol (its parallel heartbeat cables,
//! single-shot STONITH); either way every server lists the others as
//! peers and [`Scenario`] lists the replicas in rank order, so fault
//! injection and observation address a pair and a pool through the same
//! fields.
//!
//! Builders also exist for the two baselines the paper compares against:
//! a plain single server ("ST-TCP disabled", Demo 3) and a plain primary
//! plus a plain hot standby that requires a client reconnect (Demo 1's
//! contrast).

use std::borrow::Cow;
use std::net::Ipv4Addr;
use std::rc::Rc;

use simnet::iplayer::IpInterface;
use simnet::link::{LinkDir, LinkId, LinkParams, SwitchId};
use simnet::mac::MacAddr;
use simnet::node::{NicId, NodeId};
use simnet::profile::Component;
use simnet::serial::{SerialId, SerialParams};
use simnet::time::{SimDuration, SimTime};
use simnet::world::World;

use simtcp::conn::TcpConfig;
use simtcp::socket::FourTuple;

use sttcp::app::Application;
use sttcp::config::{Role, StTcpConfig};
use sttcp::heartbeat::conn_key;
use sttcp::pool::PoolPeer;
use sttcp::server::{AppCrashMode, ServerSetup, StTcpServer};

use crate::client::{ClientConfig, ClientLog, ClientWorkload, ReconnectPolicy, TcpClient};
use crate::plain::{PlainServer, PlainServerConfig};

/// The fixed addressing plan of the standard topology.
#[derive(Debug, Clone, Copy)]
pub struct Addressing {
    /// The client / gateway host.
    pub client_ip: Ipv4Addr,
    /// The primary's private address.
    pub primary_ip: Ipv4Addr,
    /// The backup's private address.
    pub backup_ip: Ipv4Addr,
    /// The shared service address.
    pub service_ip: Ipv4Addr,
    /// The service port.
    pub service_port: u16,
    /// The client's MAC.
    pub client_mac: MacAddr,
    /// The primary's MAC.
    pub primary_mac: MacAddr,
    /// The backup's MAC.
    pub backup_mac: MacAddr,
    /// The multicast Ethernet address the client maps the service IP to
    /// (the paper's `multiEA`).
    pub multi_ea: MacAddr,
}

impl Default for Addressing {
    fn default() -> Self {
        Addressing {
            client_ip: Ipv4Addr::new(10, 0, 0, 1),
            primary_ip: Ipv4Addr::new(10, 0, 0, 2),
            backup_ip: Ipv4Addr::new(10, 0, 0, 3),
            service_ip: Ipv4Addr::new(10, 0, 0, 100),
            service_port: 80,
            client_mac: MacAddr::unicast(1),
            primary_mac: MacAddr::unicast(2),
            backup_mac: MacAddr::unicast(3),
            multi_ea: MacAddr::multicast(100),
        }
    }
}

/// A factory closure producing identical deterministic app replicas.
pub type AppMaker = Rc<dyn Fn() -> Box<dyn Application>>;

/// Which replica topology a world wires: the paper's pair, or an
/// N-replica standby pool (2..=8 members; `Pool(2)` runs the pool
/// protocol on two members and is not the pair).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// Primary + backup, peer-to-peer heartbeats, single-shot STONITH.
    Pair,
    /// One active plus `n - 1` ranked standbys, quorum-checked fencing.
    Pool(usize),
}

impl Topology {
    /// What member `i` (by initial rank) is called in traces and
    /// reports: the pair's roles, or the pool's ranks.
    pub fn member_label(self, i: usize) -> String {
        match (self, i) {
            (Topology::Pair, 0) => "primary".into(),
            (Topology::Pair, _) => "backup".into(),
            (Topology::Pool(_), i) => format!("rank{i}"),
        }
    }
}

/// Builder for the standard ST-TCP scenario.
pub struct ScenarioBuilder {
    seed: u64,
    sttcp: StTcpConfig,
    /// Made once per world: every client host, endpoint and connection
    /// shares it.
    tcp: Rc<TcpConfig>,
    app: AppMaker,
    workload: ClientWorkload,
    extra_clients: Vec<ClientWorkload>,
    connect_at: SimDuration,
    link: LinkParams,
    serial_links: usize,
    addressing: Addressing,
    topology: Topology,
}

impl ScenarioBuilder {
    /// Starts a builder with an app factory and a client workload.
    pub fn new(app: AppMaker, workload: ClientWorkload) -> ScenarioBuilder {
        ScenarioBuilder {
            seed: 1,
            sttcp: StTcpConfig::default(),
            tcp: Rc::default(),
            app,
            workload,
            extra_clients: Vec::new(),
            connect_at: SimDuration::from_millis(100),
            link: LinkParams::lan(),
            serial_links: 1,
            addressing: Addressing::default(),
            topology: Topology::Pair,
        }
    }

    /// Adds additional client hosts, each with its own workload against
    /// the same service (own IP `10.0.(1+i/240).(10+i%240)`, own switch
    /// port). All clients share the multicast-tap ARP entry, so the
    /// backup replicates every connection; the heartbeat then carries
    /// one record per connection.
    pub fn extra_clients(mut self, workloads: Vec<ClientWorkload>) -> Self {
        self.extra_clients = workloads;
        self
    }

    /// Sets the world seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the ST-TCP configuration (heartbeat period, thresholds, …).
    pub fn sttcp(mut self, cfg: StTcpConfig) -> Self {
        self.sttcp = cfg;
        self
    }

    /// Sets the Ethernet link parameters.
    pub fn link(mut self, params: LinkParams) -> Self {
        self.link = params;
        self
    }

    /// Sets the number of parallel serial heartbeat links between the
    /// servers (default 1). With `n` links, connection heartbeat records
    /// are sharded `conn_key % n` across them; link 0 is the classic
    /// null-modem cable.
    pub fn serial_links(mut self, n: usize) -> Self {
        assert!(n >= 1, "at least one serial link is required");
        self.serial_links = n;
        self
    }

    /// Builds an `n`-replica standby pool (2..=8) instead of the pair:
    /// rank `i` at `10.0.0.(2+i)`, a serial cable between every two
    /// members, rank-ordered takeover behind quorum-checked fencing.
    /// `pool(2)` is the degenerate pool whose every fence is a
    /// self-quorum STONITH — still the pool protocol, not the pair's.
    pub fn pool(mut self, n: usize) -> Self {
        assert!((2..=8).contains(&n), "pool size {n} out of range 2..=8");
        self.topology = Topology::Pool(n);
        self
    }

    /// Sets when (after start) the client connects.
    pub fn connect_at(mut self, at: SimDuration) -> Self {
        self.connect_at = at;
        self
    }

    /// Member `i` of `n`, knowing every other member as a peer: a pool
    /// ranks its members, the pair's both carry rank 0.
    fn member(&self, i: usize, n: usize, pool: bool) -> StTcpServer {
        let a = self.addressing;
        let rank = |j: usize| if pool { j as u8 } else { 0 };
        let (ip, mac) = member_addr(i);
        let mut iface = IpInterface::new(NicId(0), mac, ip);
        iface.add_alias(a.service_ip);
        iface.add_arp(a.client_ip, a.client_mac);
        let others = (0..n).filter(|&j| j != i);
        for j in others.clone() {
            let (ip, mac) = member_addr(j);
            iface.add_arp(ip, mac);
        }
        let peers = others.map(|j| PoolPeer {
            rank: rank(j),
            ip: member_addr(j).0,
            node: member_node(j),
        });
        let salt = match pool {
            true => 0x9f1a + i as u64,
            false => [0x9f1a, 0xbac0][i],
        };
        let setup = ServerSetup {
            role: if i == 0 { Role::Primary } else { Role::Backup },
            sttcp: self.sttcp.clone(),
            tcp: TcpConfig::clone(&self.tcp),
            service_ip: a.service_ip,
            service_port: a.service_port,
            private_ip: ip,
            gateway_ip: a.client_ip,
            isn_salt: 0x5757_5757 ^ self.seed,
            seed: self.seed ^ salt,
            rank: rank(i),
            peers: peers.collect(),
            pool,
        };
        let app = self.app.clone();
        StTcpServer::new(setup, iface, Box::new(move || app()))
    }

    /// Wires the world and starts it: the client (the gateway), the `n`
    /// members in rank order (`member_addr`), then any extra clients,
    /// one switch, and the cables between every two members in
    /// `(i, j), i < j` order.
    pub fn build(self) -> Scenario {
        let a = self.addressing;
        let (n, pool) = match self.topology {
            Topology::Pair => (2, false),
            Topology::Pool(n) => (n, true),
        };
        assert!(
            !pool || self.serial_links == 1,
            "a pool world has one cable per member pair"
        );
        let mut world = World::new(self.seed);
        let client_id = NodeId(0);

        // --- the client: the service IP resolves to the multicast EA —
        // the tap — and every server's private address to its own MAC ---
        let mut iface = IpInterface::new(NicId(0), a.client_mac, a.client_ip);
        iface.add_arp(a.service_ip, a.multi_ea);
        for i in 0..n {
            let (ip, mac) = member_addr(i);
            iface.add_arp(ip, mac);
        }
        let cfg = ClientConfig {
            server: (a.service_ip, a.service_port),
            local_port: 40_000,
            workload: self.workload.clone(),
            connect_at: self.connect_at,
            reconnect: None,
            tcp: self.tcp.clone(),
            seed: self.seed ^ 0xc11e,
        };
        let client = TcpClient::new(cfg, iface);
        assert_eq!(world.add_node("client", Box::new(client)), client_id);

        for i in 0..n {
            let name: Cow<str> = match pool {
                true => format!("pool{i}").into(),
                false => ["primary", "backup"][i].into(),
            };
            let node = Box::new(self.member(i, n, pool));
            assert_eq!(world.add_node(&name, node), member_node(i));
        }

        // Extra client hosts at 10.(i/60000).(1+(i%60000)/240).(10+i%240):
        // a fresh third octet every 240 hosts keeps clients clear of the
        // fixed 10.0.0.x plan (gateway, servers, service IP), and a fresh
        // second octet every 60 000 hosts (240 hosts x 250 subnets) lets
        // the 100k-connection scale ramp address every client. The first
        // 60 000 addresses are identical to the old single-plane plan.
        assert!(
            self.extra_clients.len() <= 240 * 250 * 255,
            "extra-client addressing plan exhausted"
        );
        let mut clients = vec![client_id];
        let mut extra_macs = Vec::new();
        for (i, workload) in self.extra_clients.iter().enumerate() {
            let r = i % 60_000;
            let ip = Ipv4Addr::new(
                10,
                (i / 60_000) as u8,
                1 + (r / 240) as u8,
                10 + (r % 240) as u8,
            );
            let mac = MacAddr::unicast(10 + i as u32);
            let mut iface = IpInterface::new(NicId(0), mac, ip);
            iface.add_arp(a.service_ip, a.multi_ea);
            let cfg = ClientConfig {
                server: (a.service_ip, a.service_port),
                local_port: 40_000,
                workload: workload.clone(),
                connect_at: self.connect_at + SimDuration::from_millis(i as u64 + 1),
                reconnect: None,
                tcp: self.tcp.clone(),
                seed: self.seed ^ (0xe0_00 + i as u64),
            };
            let id = world.add_node(
                &format!("client{}", i + 1),
                Box::new(TcpClient::new(cfg, iface)),
            );
            clients.push(id);
            extra_macs.push((id, mac, ip));
        }
        // Servers must be able to answer every client (static ARP).
        for &(_, client_mac, client_ip) in &extra_macs {
            for i in 0..n {
                // The interface lives inside the server; patching ARP after
                // construction needs a setter.
                world
                    .node_mut::<StTcpServer>(member_node(i))
                    .expect("server type")
                    .add_arp(client_ip, client_mac);
            }
        }

        // --- switch fabric: the client, the members, the extra clients ---
        let cn = world.add_nic(client_id, a.client_mac);
        let nics: Vec<_> = (0..n)
            .map(|i| world.add_nic(member_node(i), member_addr(i).1))
            .collect();
        let switch = world.add_switch(1 + n + extra_macs.len());
        let link_client = world.connect_to_switch(client_id, cn, switch, 0, self.link);
        let server_links: Vec<LinkId> = (0..n)
            .map(|i| world.connect_to_switch(member_node(i), nics[i], switch, 1 + i, self.link))
            .collect();
        for (port_off, (id, mac, _)) in extra_macs.iter().enumerate() {
            let nic = world.add_nic(*id, *mac);
            world.connect_to_switch(*id, nic, switch, 1 + n + port_off, self.link);
        }
        // The tap group: client frames to the service multicast EA reach
        // exactly the server ports (IGMP-snooping membership), in rank
        // order, instead of flooding to every client port — same tap
        // semantics, O(1) per frame regardless of client count.
        for i in 0..n {
            world.join_multicast(switch, a.multi_ea, 1 + i);
        }

        // --- cables: the pair's parallel heartbeat links, or a pool's
        // one per member pair ---
        let mut serials = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                for _ in 0..self.serial_links {
                    let (sid, port_i, port_j) =
                        world.connect_serial(member_node(i), member_node(j), SerialParams::rs232());
                    let (ip_i, ip_j) = (member_addr(i).0, member_addr(j).0);
                    for (me, port, to) in [(i, port_i, ip_j), (j, port_j, ip_i)] {
                        world
                            .node_mut::<StTcpServer>(member_node(me))
                            .expect("server type")
                            .add_serial_link(port, to);
                    }
                    serials.push(sid);
                }
            }
        }

        // Profiler attribution: client hosts are application load, the
        // servers are the protocol machinery (the pair's, or the pool's).
        for &id in &clients {
            world.set_node_component(id, Component::App);
        }
        let machinery = match pool {
            true => Component::Pool,
            false => Component::Sttcp,
        };
        for i in 0..n {
            world.set_node_component(member_node(i), machinery);
        }

        world.start();
        Scenario {
            world,
            client: client_id,
            clients,
            primary: member_node(0),
            backup: member_node(1),
            switch,
            link_client,
            link_primary: server_links[0],
            link_backup: server_links[1],
            serial: serials[0],
            servers: (0..n).map(member_node).collect(),
            server_links,
            serials,
            addressing: a,
        }
    }
}

/// Member `i`'s private address and MAC: rank `i` at `10.0.0.(2+i)`, so
/// the pair's primary and backup are ranks 0 and 1 of the one plan.
fn member_addr(i: usize) -> (Ipv4Addr, MacAddr) {
    (
        Ipv4Addr::new(10, 0, 0, 2 + i as u8),
        MacAddr::unicast(2 + i as u32),
    )
}

/// Member `i`'s node: ids are dense in add order, the client first, and
/// a `ServerSetup` names its peers' for STONITH before any is added.
fn member_node(i: usize) -> NodeId {
    NodeId(1 + i)
}

/// A fully wired, started ST-TCP world: the pair, or (built with
/// [`ScenarioBuilder::pool`]) an N-replica pool. The rank-order vectors
/// describe either; `primary` / `backup` and their links name ranks 0
/// and 1, which is what [`crate::chaos::Side`] and
/// [`crate::chaos::LinkSel`] address.
pub struct Scenario {
    /// The simulation world.
    pub world: World,
    /// The client / gateway node.
    pub client: NodeId,
    /// All client nodes (the first is the gateway client).
    pub clients: Vec<NodeId>,
    /// The (initial) primary node — rank 0.
    pub primary: NodeId,
    /// The (initial) backup node — rank 1.
    pub backup: NodeId,
    /// The Ethernet switch.
    pub switch: SwitchId,
    /// Client ↔ switch link.
    pub link_client: LinkId,
    /// Primary ↔ switch link.
    pub link_primary: LinkId,
    /// Backup ↔ switch link.
    pub link_backup: LinkId,
    /// The serial null-modem channel between ranks 0 and 1.
    pub serial: SerialId,
    /// Every server node, indexed by initial rank.
    pub servers: Vec<NodeId>,
    /// Server ↔ switch links, indexed by initial rank.
    pub server_links: Vec<LinkId>,
    /// Every serial channel: the pair's parallel heartbeat links, or the
    /// pool's mesh in `(i, j), i < j` order. `serials[0] == serial`.
    pub serials: Vec<SerialId>,
    /// The addressing plan.
    pub addressing: Addressing,
}

impl Scenario {
    /// The (first) client's observation log.
    pub fn client_log(&self) -> &ClientLog {
        self.log_of(self.client)
    }

    /// The observation log of any client node.
    pub fn log_of(&self, client: NodeId) -> &ClientLog {
        self.world
            .node::<TcpClient>(client)
            .expect("client type")
            .log()
    }

    /// True once the (first) client's workload completed.
    pub fn client_finished(&self) -> bool {
        self.finished(self.client)
    }

    /// True once the given client's workload completed.
    pub fn finished(&self, client: NodeId) -> bool {
        self.world
            .node::<TcpClient>(client)
            .expect("client type")
            .is_finished()
    }

    /// Immutable access to a server node.
    pub fn server(&self, node: NodeId) -> &StTcpServer {
        self.world.node::<StTcpServer>(node).expect("server type")
    }

    /// The connection key of the client's first connection (for digest
    /// and heartbeat assertions).
    pub fn first_conn_key(&self) -> u32 {
        conn_key(FourTuple {
            local: (self.addressing.service_ip, self.addressing.service_port),
            remote: (self.addressing.client_ip, 40_000),
        })
    }

    /// Schedules a HW/OS crash of a server (Table 1 row 1).
    pub fn crash_at(&mut self, node: NodeId, at: SimTime) {
        self.world.schedule(at, move |w| w.crash_node(node));
    }

    /// Schedules a warm reboot of a server (no-op if still powered).
    pub fn reboot_at(&mut self, node: NodeId, at: SimTime) {
        self.world.schedule(at, move |w| {
            if !w.is_powered(node) {
                w.restore_node(node);
            }
        });
    }

    /// Schedules a HW/OS crash of the primary (Table 1 row 1).
    pub fn crash_primary_at(&mut self, at: SimTime) {
        self.crash_at(self.primary, at);
    }

    /// Schedules a HW/OS crash of the backup.
    pub fn crash_backup_at(&mut self, at: SimTime) {
        self.crash_at(self.backup, at);
    }

    /// Schedules a NIC failure on one of the servers (Table 1 row 4).
    pub fn fail_nic_at(&mut self, node: NodeId, at: SimTime) {
        self.world.schedule(at, move |w| w.fail_nic(node, NicId(0)));
    }

    /// Schedules an application crash on a server (Table 1 rows 2-3,
    /// Demo 4).
    pub fn crash_app_at(&mut self, node: NodeId, at: SimTime, mode: AppCrashMode) {
        self.world.schedule(at, move |w| {
            let now = w.now();
            w.note_fault(format!("app crash ({mode:?}) on n{}", node.0));
            if let Some(server) = w.node_mut::<StTcpServer>(node) {
                server.inject_app_crash(now, mode);
            }
        });
    }

    /// Schedules a serial-cable failure.
    pub fn fail_serial_at(&mut self, at: SimTime) {
        let s = self.serial;
        self.world.schedule(at, move |w| w.fail_serial(s));
    }

    /// Schedules a loss burst on the tap of the server on switch link
    /// `link` (`link_backup`, or any of `server_links`): the next `n` TCP
    /// frames addressed to the service IP are dropped on the
    /// switch→server direction, while heartbeats keep flowing (Table 1
    /// row 5).
    pub fn drop_tap_at(&mut self, link: LinkId, at: SimTime, n: u64) {
        let service_ip = self.addressing.service_ip;
        self.world.schedule(at, move |w| {
            let mut budget = n;
            // `connect_to_switch` makes the node endpoint `a` and the
            // switch endpoint `b`, so switch→server traffic travels B→A.
            w.set_link_filter(
                link,
                LinkDir::BtoA,
                Some(Box::new(move |frame| {
                    let pkt = IpInterface::decap(frame);
                    let tcp = simnet::ip::IpProto::Tcp;
                    let drop =
                        budget > 0 && pkt.is_some_and(|p| p.proto == tcp && p.dst == service_ip);
                    budget -= u64::from(drop);
                    drop
                })),
            );
        });
    }

    /// Schedules a *time-boxed* outage toward the primary: every TCP frame
    /// addressed to the service IP on the switch→primary direction is
    /// dropped for `duration`, then delivery resumes. Ordinary client
    /// retransmission repairs this without any ST-TCP action (Table 1 row
    /// 5, primary side).
    pub fn drop_primary_tap_for(&mut self, at: SimTime, duration: SimDuration) {
        let link = self.link_primary;
        let service_ip = self.addressing.service_ip;
        self.world.schedule(at, move |w| {
            w.set_link_filter(
                link,
                LinkDir::BtoA,
                Some(Box::new(move |frame| {
                    matches!(IpInterface::decap(frame),
                             Some(pkt) if pkt.proto == simnet::ip::IpProto::Tcp
                                 && pkt.dst == service_ip)
                })),
            );
            w.schedule_in(duration, move |w| {
                w.set_link_filter(link, LinkDir::BtoA, None);
            });
        });
    }
}

/// A plain client↔server pair on a switch — "ST-TCP disabled" (Demo 3),
/// optionally with a plain hot standby on its own address (Demo 1
/// baseline).
pub struct BaselineScenario {
    /// The simulation world.
    pub world: World,
    /// The client node.
    pub client: NodeId,
    /// The plain primary node.
    pub primary: NodeId,
    /// The plain standby node, when built with one.
    pub standby: Option<NodeId>,
    /// Client ↔ switch link.
    pub link_client: LinkId,
    /// Primary ↔ switch link.
    pub link_primary: LinkId,
    /// The addressing plan.
    pub addressing: Addressing,
}

impl BaselineScenario {
    /// The client's observation log.
    pub fn client_log(&self) -> &ClientLog {
        self.world
            .node::<TcpClient>(self.client)
            .expect("client type")
            .log()
    }

    /// True once the client's workload completed.
    pub fn client_finished(&self) -> bool {
        self.world
            .node::<TcpClient>(self.client)
            .expect("client type")
            .is_finished()
    }

    /// Schedules a HW/OS crash of the primary.
    pub fn crash_primary_at(&mut self, at: SimTime) {
        let n = self.primary;
        self.world.schedule(at, move |w| w.crash_node(n));
    }
}

/// Builds the plain baseline: client + plain server, and optionally a
/// plain standby on `10.0.0.4` that the client's reconnect policy fails
/// over to.
pub fn build_baseline(
    seed: u64,
    app: AppMaker,
    workload: ClientWorkload,
    tcp: impl Into<Rc<TcpConfig>>,
    with_standby: Option<ReconnectPolicy>,
) -> BaselineScenario {
    let tcp = tcp.into();
    let a = Addressing::default();
    let standby_ip = Ipv4Addr::new(10, 0, 0, 4);
    let standby_mac = MacAddr::unicast(4);
    let mut world = World::new(seed);

    let mut client_iface = IpInterface::new(NicId(0), a.client_mac, a.client_ip);
    // No multicast trick here: the service IP belongs to the primary alone.
    client_iface.add_arp(a.service_ip, a.primary_mac);
    client_iface.add_arp(standby_ip, standby_mac);
    let client_cfg = ClientConfig {
        server: (a.service_ip, a.service_port),
        local_port: 40_000,
        workload,
        connect_at: SimDuration::from_millis(100),
        reconnect: with_standby.clone(),
        tcp: tcp.clone(),
        seed: seed ^ 0xc11e,
    };
    let client_id = world.add_node("client", Box::new(TcpClient::new(client_cfg, client_iface)));

    let mut primary_iface = IpInterface::new(NicId(0), a.primary_mac, a.primary_ip);
    primary_iface.add_alias(a.service_ip);
    primary_iface.add_arp(a.client_ip, a.client_mac);
    let primary_cfg = PlainServerConfig {
        port: a.service_port,
        tcp: tcp.clone(),
        seed: seed ^ 0x9147,
    };
    let app2 = app.clone();
    let primary_id = world.add_node(
        "plain-primary",
        Box::new(PlainServer::new(
            primary_cfg,
            primary_iface,
            Box::new(move || app2()),
        )),
    );

    let standby_id = with_standby.is_some().then(|| {
        let mut iface = IpInterface::new(NicId(0), standby_mac, standby_ip);
        iface.add_arp(a.client_ip, a.client_mac);
        let cfg = PlainServerConfig {
            port: a.service_port,
            tcp: tcp.clone(),
            seed: seed ^ 0x57b1,
        };
        let app3 = app.clone();
        world.add_node(
            "plain-standby",
            Box::new(PlainServer::new(cfg, iface, Box::new(move || app3()))),
        )
    });

    let ports = if standby_id.is_some() { 3 } else { 2 };
    let switch = world.add_switch(ports);
    let cn = world.add_nic(client_id, a.client_mac);
    let pn = world.add_nic(primary_id, a.primary_mac);
    let link_client = world.connect_to_switch(client_id, cn, switch, 0, LinkParams::lan());
    let link_primary = world.connect_to_switch(primary_id, pn, switch, 1, LinkParams::lan());
    if let Some(sid) = standby_id {
        let sn = world.add_nic(sid, standby_mac);
        world.connect_to_switch(sid, sn, switch, 2, LinkParams::lan());
    }
    world.start();
    BaselineScenario {
        world,
        client: client_id,
        primary: primary_id,
        standby: standby_id,
        link_client,
        link_primary,
        addressing: a,
    }
}
