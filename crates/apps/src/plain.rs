//! A plain (non-fault-tolerant) TCP server node — the baseline.
//!
//! Used two ways in the experiments:
//!
//! * **Demo 3** compares transfer time "with ST-TCP enabled" against
//!   "with ST-TCP disabled" — the disabled case is this server.
//! * **Demo 1's contrast** runs a plain primary plus a plain hot standby
//!   on a different address: when the primary dies the client's
//!   connection dies with it, and only a client-side reconnect-and-restart
//!   recovers service.

use bytes::Bytes;
use std::collections::BTreeMap;
use std::rc::Rc;

use simnet::frame::EthernetFrame;
use simnet::ip::IpProto;
use simnet::iplayer::IpInterface;
use simnet::node::{NicId, Node, NodeCtx, TimerToken};
use simnet::time::SimTime;

use simtcp::conn::TcpConfig;
use simtcp::endpoint::{EndpointConfig, IsnPolicy, ListenConfig, RstPolicy, TcpEndpoint};
use simtcp::socket::{SocketEvent, SocketId};

use sttcp::app::{AppAction, AppFactory, Application};
use sttcp::config::APP_TICK;

const TOKEN_TCP: TimerToken = TimerToken(1);
const TOKEN_APP_TICK: TimerToken = TimerToken(2);

/// Configuration for a [`PlainServer`].
#[derive(Debug, Clone)]
pub struct PlainServerConfig {
    /// Listening port.
    pub port: u16,
    /// TCP tuning, shared with the endpoint and its connections.
    pub tcp: Rc<TcpConfig>,
    /// RNG seed (ISNs).
    pub seed: u64,
}

impl Default for PlainServerConfig {
    fn default() -> Self {
        PlainServerConfig {
            port: 80,
            tcp: Rc::default(),
            seed: 0,
        }
    }
}

struct PlainConn {
    app: Box<dyn Application>,
    pending_out: Vec<Bytes>,
    closed: bool,
}

/// An ordinary TCP server with no fault tolerance whatsoever.
pub struct PlainServer {
    cfg: PlainServerConfig,
    iface: IpInterface,
    tcp: TcpEndpoint,
    factory: Box<dyn AppFactory>,
    conns: BTreeMap<SocketId, PlainConn>,
    tcp_timer: Option<SimTime>,
}

impl std::fmt::Debug for PlainServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlainServer")
            .field("port", &self.cfg.port)
            .field("conns", &self.conns.len())
            .finish_non_exhaustive()
    }
}

impl PlainServer {
    /// Creates a plain server on the given interface.
    pub fn new(
        cfg: PlainServerConfig,
        iface: IpInterface,
        factory: Box<dyn AppFactory>,
    ) -> PlainServer {
        let ep = EndpointConfig {
            tcp: cfg.tcp.clone(),
            isn: IsnPolicy::Random,
            rst_policy: RstPolicy::Send,
            seed: cfg.seed,
        };
        PlainServer {
            cfg,
            iface,
            tcp: TcpEndpoint::new(ep),
            factory,
            conns: BTreeMap::new(),
            tcp_timer: None,
        }
    }

    /// Total connections ever accepted.
    pub fn accepted(&self) -> usize {
        self.conns.len()
    }

    /// The underlying endpoint (for test assertions).
    pub fn endpoint(&self) -> &TcpEndpoint {
        &self.tcp
    }

    fn apply_actions(&mut self, now: SimTime, sock: SocketId, actions: Vec<AppAction>) {
        for a in actions {
            match a {
                AppAction::Write(b) => {
                    if let Some(c) = self.conns.get_mut(&sock) {
                        c.pending_out.push(b);
                    }
                }
                AppAction::Close => {
                    self.flush_pending(now, sock);
                    self.tcp.close(now, sock);
                }
                AppAction::Abort => self.tcp.abort(now, sock),
            }
        }
        self.flush_pending(now, sock);
    }

    fn flush_pending(&mut self, now: SimTime, sock: SocketId) {
        loop {
            let Some(front) = self
                .conns
                .get_mut(&sock)
                .and_then(|c| c.pending_out.first().cloned())
            else {
                return;
            };
            let n = self.tcp.send_bytes(now, sock, &front);
            let Some(c) = self.conns.get_mut(&sock) else {
                return;
            };
            if n == 0 {
                return;
            }
            if n == front.len() {
                c.pending_out.remove(0);
            } else {
                c.pending_out[0] = front.slice(n..);
                return;
            }
        }
    }

    fn drain_events(&mut self, now: SimTime) -> bool {
        let mut any = false;
        while let Some((sock, ev)) = self.tcp.poll_event() {
            any = true;
            match ev {
                SocketEvent::Accepted => {
                    let mut app = self.factory.create();
                    let actions = app.on_open();
                    self.conns.insert(
                        sock,
                        PlainConn {
                            app,
                            pending_out: Vec::new(),
                            closed: false,
                        },
                    );
                    self.apply_actions(now, sock, actions);
                }
                SocketEvent::DataReadable => loop {
                    let data = self.tcp.recv(sock, 64 * 1024);
                    if data.is_empty() {
                        break;
                    }
                    let actions = match self.conns.get_mut(&sock) {
                        Some(c) => c.app.on_data(&data),
                        None => break,
                    };
                    self.apply_actions(now, sock, actions);
                },
                SocketEvent::PeerFin => {
                    let actions = match self.conns.get_mut(&sock) {
                        Some(c) => c.app.on_peer_close(),
                        None => continue,
                    };
                    self.apply_actions(now, sock, actions);
                }
                SocketEvent::Reset | SocketEvent::Closed => {
                    if let Some(c) = self.conns.get_mut(&sock) {
                        c.closed = true;
                    }
                }
                SocketEvent::Connected => {}
            }
        }
        any
    }

    fn flush(&mut self, ctx: &mut NodeCtx<'_>) {
        let now = ctx.now();
        loop {
            let had = self.drain_events(now);
            let blocked: Vec<SocketId> = self
                .conns
                .iter()
                .filter(|(_, c)| !c.pending_out.is_empty() && !c.closed)
                .map(|(&s, _)| s)
                .collect();
            for s in blocked {
                self.flush_pending(now, s);
            }
            let iface = &self.iface;
            let sent = self.tcp.poll_packets_with(now, |pkt| {
                if let Some(frame) = iface.encap(&pkt) {
                    ctx.send_frame(iface.nic, frame);
                }
            });
            if !had && sent == 0 {
                break;
            }
        }
        ctx.rearm_timer(&mut self.tcp_timer, self.tcp.next_deadline(), TOKEN_TCP);
    }
}

impl Node for PlainServer {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        self.tcp.listen(
            self.cfg.port,
            ListenConfig {
                tcp: self.cfg.tcp.clone(),
                ..Default::default()
            },
        );
        ctx.set_timer(APP_TICK, TOKEN_APP_TICK);
    }

    fn on_frame(&mut self, ctx: &mut NodeCtx<'_>, _nic: NicId, frame: EthernetFrame) {
        if let Some(pkt) = IpInterface::decap(&frame) {
            match pkt.proto {
                IpProto::Icmp => {
                    let _ = self.iface.handle_icmp(ctx, &pkt);
                }
                IpProto::Tcp if self.iface.accepts(pkt.dst) => {
                    self.tcp.on_packet(ctx.now(), &pkt);
                }
                _ => {}
            }
        }
        self.flush(ctx);
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: TimerToken) {
        match token {
            TOKEN_TCP => {
                let want = self.tcp.next_deadline();
                if !ctx.timer_due(&mut self.tcp_timer, want, TOKEN_TCP) {
                    return;
                }
                self.tcp.on_time(ctx.now());
            }
            TOKEN_APP_TICK => {
                let now = ctx.now();
                let socks: Vec<SocketId> = self.conns.keys().copied().collect();
                for sock in socks {
                    let actions = match self.conns.get_mut(&sock) {
                        Some(c) if !c.closed => c.app.on_tick(now),
                        _ => continue,
                    };
                    self.apply_actions(now, sock, actions);
                }
                ctx.set_timer(APP_TICK, TOKEN_APP_TICK);
            }
            _ => {}
        }
        self.flush(ctx);
    }
}
