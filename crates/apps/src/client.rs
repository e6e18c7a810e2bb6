//! The verifying client node (and, per the paper's setup, the gateway).
//!
//! An unmodified TCP client that drives a workload against the service
//! address and *verifies every byte* it receives against the
//! deterministic pattern — so a failover that duplicated, dropped,
//! reordered, or corrupted anything is caught at an exact offset. It also
//! records a `(time, bytes)` progress series, the headless equivalent of
//! Demo 1's pie chart.
//!
//! The client knows nothing about ST-TCP. Its only optional concession to
//! the *baseline* comparison is a reconnect policy: plain-TCP clients
//! facing a dead server eventually give up and reconnect (to a standby
//! address) and restart their transfer — the paper's "the client would
//! have to re-connect".

use bytes::Bytes;
use std::net::Ipv4Addr;
use std::rc::Rc;

use simnet::frame::EthernetFrame;
use simnet::ip::IpProto;
use simnet::iplayer::IpInterface;
use simnet::node::{NicId, Node, NodeCtx, SerialPortId, TimerToken};
use simnet::profile::Component;
use simnet::time::{SimDuration, SimTime};

use simtcp::conn::TcpConfig;
use simtcp::endpoint::{EndpointConfig, IsnPolicy, RstPolicy, TcpEndpoint};
use simtcp::segment::peek_segment;
use simtcp::socket::{SocketEvent, SocketId};

use crate::apps::ReqRespApp;
use crate::pattern::{pattern_chunk, verify_pattern};

const TOKEN_CONNECT: TimerToken = TimerToken(1);
const TOKEN_TCP: TimerToken = TimerToken(2);
const TOKEN_CHAT: TimerToken = TimerToken(3);
const TOKEN_STALL: TimerToken = TimerToken(4);

/// What the client does once connected.
#[derive(Debug, Clone)]
pub enum ClientWorkload {
    /// Request `GET <total>\n` and receive `total` verified pattern bytes
    /// (Demo 1, 2, 3, 5).
    Download {
        /// Response bytes to request.
        total: u64,
    },
    /// Send a `chunk`-byte pattern slab every `period`, expecting it
    /// echoed back verbatim; stop after `count` slabs (Demo 4 — keeps the
    /// application active in both directions so lag detectors have
    /// something to observe).
    EchoChat {
        /// Bytes per slab.
        chunk: usize,
        /// Send period.
        period: SimDuration,
        /// Slabs to send.
        count: u32,
    },
    /// Send a deterministic request line every `period` and verify each
    /// response against [`ReqRespApp::response_for`]; stop after `count`
    /// round trips. Unlike [`ClientWorkload::Download`], the expected
    /// byte stream is built request-by-request, so the integrity check
    /// covers interactive traffic, not the fixed pattern.
    ReqResp {
        /// Request period.
        period: SimDuration,
        /// Requests to send.
        count: u32,
    },
    /// Connect and stay silent (the quiet-client case that forces the
    /// gateway-ping detection path in Demo 5).
    Idle,
}

/// Baseline-only reconnect behaviour for plain-TCP comparisons.
#[derive(Debug, Clone)]
pub struct ReconnectPolicy {
    /// Declare the connection dead after this long without progress.
    pub stall_timeout: SimDuration,
    /// Addresses to (re)connect to, round-robin.
    pub targets: Vec<(Ipv4Addr, u16)>,
    /// Pause before reconnecting.
    pub reconnect_delay: SimDuration,
}

/// Client configuration.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Service address to connect to first.
    pub server: (Ipv4Addr, u16),
    /// First local port (reconnects increment it).
    pub local_port: u16,
    /// The workload.
    pub workload: ClientWorkload,
    /// Delay after world start before connecting.
    pub connect_at: SimDuration,
    /// Baseline reconnect policy; `None` for a patient client (ST-TCP
    /// runs — the whole point is that the client never needs one).
    pub reconnect: Option<ReconnectPolicy>,
    /// TCP tuning, shared with the endpoint and its connections.
    pub tcp: Rc<TcpConfig>,
    /// Seed for the client's TCP stack (ISNs).
    pub seed: u64,
}

/// Everything the client observed, for assertions and reporting.
#[derive(Debug, Clone, Default)]
pub struct ClientLog {
    /// `(time, cumulative-in-connection response bytes)` samples.
    pub progress: Vec<(SimTime, u64)>,
    /// Position in the current response stream (resets on restart).
    pub response_pos: u64,
    /// Total verified bytes across all connection attempts.
    pub total_received: u64,
    /// Pattern mismatches observed (must stay 0 in every ST-TCP run).
    pub integrity_violations: u64,
    /// Completed echo round trips.
    pub echo_roundtrips: u32,
    /// Times the client connected successfully.
    pub connects: Vec<SimTime>,
    /// Connection resets observed.
    pub resets: u32,
    /// Reconnection attempts made (baseline only).
    pub reconnects: u32,
    /// When the workload finished, if it did.
    pub finished_at: Option<SimTime>,
    /// When the client observed a FIN from the server.
    pub server_fin_at: Option<SimTime>,
}

impl ClientLog {
    /// The longest gap between consecutive progress samples within
    /// `[from, to]` — the client-visible stall (Demo 1/2's failover time
    /// as the user experiences it).
    pub fn longest_stall(&self, from: SimTime, to: SimTime) -> SimDuration {
        let mut last = from;
        let mut worst = SimDuration::ZERO;
        for &(t, _) in &self.progress {
            if t < from {
                continue;
            }
            if t > to {
                break;
            }
            worst = worst.max(t.saturating_since(last));
            last = t;
        }
        worst.max(to.saturating_since(last))
    }

    /// The `(start, end)` of the longest stall within `[from, to]` — the
    /// same gap [`ClientLog::longest_stall`] measures, as a window the
    /// phase timeline can be anchored to. `start` is the last progress
    /// sample before the gap; `end` is the first sample after it (or `to`
    /// if progress never resumed). `None` if no samples fall in range and
    /// the range itself is empty.
    pub fn longest_stall_window(&self, from: SimTime, to: SimTime) -> Option<(SimTime, SimTime)> {
        if to <= from {
            return None;
        }
        let mut last = from;
        let mut worst = SimDuration::ZERO;
        let mut window = (from, to);
        for &(t, _) in &self.progress {
            if t < from {
                continue;
            }
            if t > to {
                break;
            }
            if t.saturating_since(last) > worst {
                worst = t.saturating_since(last);
                window = (last, t);
            }
            last = t;
        }
        if to.saturating_since(last) > worst {
            window = (last, to);
        }
        Some(window)
    }
}

/// The client node. See the [module docs](self).
pub struct TcpClient {
    cfg: ClientConfig,
    iface: IpInterface,
    tcp: TcpEndpoint,
    sock: Option<SocketId>,
    /// Index into `reconnect.targets` for the next attempt.
    next_target: usize,
    /// Ports consumed so far (offset from `local_port`).
    attempts: u16,
    chat_sent: u32,
    /// Stream position of the next byte to send in EchoChat.
    chat_tx_pos: u64,
    /// ReqResp: expected response stream, built as requests are issued.
    rr_expected: Vec<u8>,
    /// ReqResp: cumulative end offset of each response (round-trip marks).
    rr_ends: Vec<u64>,
    /// ReqResp: unsent tail of the current request line (carry-over when
    /// the send buffer was full).
    rr_pending: Vec<u8>,
    tcp_timer: Option<SimTime>,
    last_progress_at: SimTime,
    log: ClientLog,
    finished: bool,
}

impl std::fmt::Debug for TcpClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpClient")
            .field("sock", &self.sock)
            .field("received", &self.log.total_received)
            .finish_non_exhaustive()
    }
}

impl TcpClient {
    /// Creates a client on the given interface (which also answers pings:
    /// the client host doubles as the gateway in the paper's Figure 2).
    pub fn new(cfg: ClientConfig, iface: IpInterface) -> TcpClient {
        let endpoint_cfg = EndpointConfig {
            tcp: cfg.tcp.clone(),
            isn: IsnPolicy::Random,
            rst_policy: RstPolicy::Send,
            seed: cfg.seed,
        };
        TcpClient {
            cfg,
            iface,
            tcp: TcpEndpoint::new(endpoint_cfg),
            sock: None,
            next_target: 0,
            attempts: 0,
            chat_sent: 0,
            chat_tx_pos: 0,
            rr_expected: Vec::new(),
            rr_ends: Vec::new(),
            rr_pending: Vec::new(),
            tcp_timer: None,
            last_progress_at: SimTime::ZERO,
            log: ClientLog::default(),
            finished: false,
        }
    }

    /// The observation log.
    pub fn log(&self) -> &ClientLog {
        &self.log
    }

    /// True once the workload has completed successfully.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    fn connect(&mut self, ctx: &mut NodeCtx<'_>) {
        let now = ctx.now();
        let target = match (&self.cfg.reconnect, self.attempts) {
            (Some(p), n) if n > 0 && !p.targets.is_empty() => {
                let t = p.targets[self.next_target % p.targets.len()];
                self.next_target += 1;
                t
            }
            _ => self.cfg.server,
        };
        let local = (self.iface.addr(), self.cfg.local_port + self.attempts);
        self.attempts += 1;
        let sock = self.tcp.connect(now, local, target);
        self.sock = Some(sock);
        // A restarted download begins from scratch.
        self.log.response_pos = 0;
        self.chat_sent = 0;
        self.rr_expected.clear();
        self.rr_ends.clear();
        self.rr_pending.clear();
        self.last_progress_at = now;
    }

    /// The deterministic `i`-th request line for the ReqResp workload.
    fn reqresp_line(i: u32) -> Vec<u8> {
        format!("q{i:06}-{:08x}\n", i.wrapping_mul(0x9e37_79b9)).into_bytes()
    }

    fn on_connected(&mut self, ctx: &mut NodeCtx<'_>) {
        let now = ctx.now();
        self.log.connects.push(now);
        self.last_progress_at = now;
        let Some(sock) = self.sock else { return };
        match self.cfg.workload.clone() {
            ClientWorkload::Download { total } => {
                let req = format!("GET {total}\n");
                let _ = self.tcp.send(now, sock, req.as_bytes());
            }
            ClientWorkload::EchoChat { period, .. } | ClientWorkload::ReqResp { period, .. } => {
                ctx.set_timer(period, TOKEN_CHAT);
            }
            ClientWorkload::Idle => {}
        }
    }

    fn on_readable(&mut self, ctx: &mut NodeCtx<'_>) {
        let now = ctx.now();
        let Some(sock) = self.sock else { return };
        loop {
            let data = self.tcp.recv(sock, 64 * 1024);
            if data.is_empty() {
                break;
            }
            // Verification and bookkeeping are the client application's
            // work, not the TCP scope's this runs under.
            ctx.profile_enter(Component::App);
            let complete = self.account_response(now, &data);
            ctx.profile_exit();
            if complete && !self.finished {
                self.finished = true;
                self.log.finished_at = Some(now);
                self.tcp.close(now, sock);
            }
        }
    }

    /// Verifies one read against the expected stream and logs it.
    /// Returns whether the workload's response is now complete.
    fn account_response(&mut self, now: SimTime, data: &[u8]) -> bool {
        let mismatch = match self.cfg.workload {
            // ReqResp verifies against the per-request expected
            // stream; everything else against the fixed pattern.
            ClientWorkload::ReqResp { .. } => {
                let start = self.log.response_pos as usize;
                self.rr_expected.get(start..start + data.len()) != Some(data)
            }
            _ => verify_pattern(self.log.response_pos, data).is_some(),
        };
        if mismatch {
            self.log.integrity_violations += 1;
        }
        self.log.response_pos += data.len() as u64;
        self.log.total_received += data.len() as u64;
        self.last_progress_at = now;
        self.log.progress.push((now, self.log.response_pos));
        match self.cfg.workload {
            ClientWorkload::Download { total } => self.log.response_pos >= total,
            ClientWorkload::EchoChat { chunk, count, .. } => {
                let done = self.log.response_pos / chunk as u64;
                self.log.echo_roundtrips = done as u32;
                done >= count as u64
            }
            ClientWorkload::ReqResp { count, .. } => {
                let done = self
                    .rr_ends
                    .iter()
                    .take_while(|&&end| end <= self.log.response_pos)
                    .count();
                self.log.echo_roundtrips = done as u32;
                self.chat_sent >= count && done >= count as usize
            }
            ClientWorkload::Idle => false,
        }
    }

    fn on_chat_tick(&mut self, ctx: &mut NodeCtx<'_>) {
        let now = ctx.now();
        if let ClientWorkload::ReqResp { period, count } = self.cfg.workload {
            if self.finished {
                return;
            }
            if let Some(sock) = self.sock {
                if !self.rr_pending.is_empty() {
                    // Finish handing the previous line to TCP first — a
                    // request must never interleave with another.
                    let pending = std::mem::take(&mut self.rr_pending);
                    let n = self.tcp.send(now, sock, &pending);
                    self.rr_pending = pending[n..].to_vec();
                } else if self.chat_sent < count {
                    let line = Self::reqresp_line(self.chat_sent);
                    self.chat_sent += 1;
                    // The whole line will eventually reach the server (via
                    // the carry-over), so its response joins the expected
                    // stream now.
                    let resp = ReqRespApp::response_for(&line[..line.len() - 1]);
                    self.rr_expected.extend_from_slice(&resp);
                    self.rr_ends.push(self.rr_expected.len() as u64);
                    let n = self.tcp.send(now, sock, &line);
                    self.rr_pending = line[n..].to_vec();
                }
            }
            ctx.set_timer(period, TOKEN_CHAT);
            return;
        }
        let ClientWorkload::EchoChat {
            chunk,
            period,
            count,
        } = self.cfg.workload
        else {
            return;
        };
        if self.finished {
            return;
        }
        if self.chat_sent < count {
            if let Some(sock) = self.sock {
                let slab = pattern_chunk(self.chat_tx_pos, chunk);
                let n = self.tcp.send_bytes(now, sock, &slab);
                self.chat_tx_pos += n as u64;
                if n == chunk {
                    self.chat_sent += 1;
                }
                // Partial sends re-offer the remainder on the next tick.
            }
        }
        ctx.set_timer(period, TOKEN_CHAT);
    }

    fn on_stall_check(&mut self, ctx: &mut NodeCtx<'_>) {
        let now = ctx.now();
        let Some(policy) = self.cfg.reconnect.clone() else {
            return;
        };
        if !self.finished
            && self.sock.is_some()
            && now.saturating_since(self.last_progress_at) >= policy.stall_timeout
        {
            // Give up on this connection, reconnect after the delay.
            if let Some(sock) = self.sock.take() {
                self.tcp.abort(now, sock);
            }
            self.log.reconnects += 1;
            ctx.set_timer(policy.reconnect_delay, TOKEN_CONNECT);
        }
        ctx.set_timer(policy.stall_timeout / 2, TOKEN_STALL);
    }

    fn drain_events(&mut self, ctx: &mut NodeCtx<'_>) -> bool {
        let mut any = false;
        while let Some((sock, ev)) = self.tcp.poll_event() {
            if Some(sock) != self.sock {
                continue;
            }
            any = true;
            match ev {
                SocketEvent::Connected => self.on_connected(ctx),
                SocketEvent::DataReadable => self.on_readable(ctx),
                SocketEvent::PeerFin => {
                    let now = ctx.now();
                    self.log.server_fin_at.get_or_insert(now);
                    self.tcp.close(now, sock);
                }
                SocketEvent::Reset => {
                    self.log.resets += 1;
                    if let Some(p) = self.cfg.reconnect.clone() {
                        if !self.finished {
                            self.sock = None;
                            self.log.reconnects += 1;
                            ctx.set_timer(p.reconnect_delay, TOKEN_CONNECT);
                        }
                    }
                }
                SocketEvent::Closed | SocketEvent::Accepted => {}
            }
        }
        any
    }

    fn flush(&mut self, ctx: &mut NodeCtx<'_>) {
        let now = ctx.now();
        ctx.profile_enter(Component::Tcp);
        loop {
            let had = self.drain_events(ctx);
            let iface = &self.iface;
            let sent = self.tcp.poll_packets_with(now, |pkt| {
                if pkt.proto == IpProto::Tcp {
                    if let Some(h) = peek_segment(&pkt.payload) {
                        ctx.flight_segment(h, true);
                    }
                }
                if let Some(frame) = iface.encap(&pkt) {
                    ctx.send_frame(iface.nic, frame);
                }
            });
            if !had && sent == 0 {
                break;
            }
        }
        ctx.profile_exit();
        ctx.rearm_timer(&mut self.tcp_timer, self.tcp.next_deadline(), TOKEN_TCP);
    }
}

impl Node for TcpClient {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        ctx.set_timer(self.cfg.connect_at, TOKEN_CONNECT);
        if let Some(p) = &self.cfg.reconnect {
            let first = p.stall_timeout / 2;
            ctx.set_timer(first, TOKEN_STALL);
        }
    }

    fn on_frame(&mut self, ctx: &mut NodeCtx<'_>, _nic: NicId, frame: EthernetFrame) {
        if let Some(pkt) = IpInterface::decap(&frame) {
            match pkt.proto {
                IpProto::Icmp => {
                    // The client host is the gateway: answer pings.
                    let _ = self.iface.handle_icmp(ctx, &pkt);
                }
                IpProto::Tcp if self.iface.accepts(pkt.dst) => {
                    if let Some(h) = peek_segment(&pkt.payload) {
                        ctx.flight_segment(h, false);
                    }
                    ctx.profile_enter(Component::Tcp);
                    self.tcp.on_packet(ctx.now(), &pkt);
                    ctx.profile_exit();
                }
                _ => {}
            }
        }
        self.flush(ctx);
    }

    fn on_serial(&mut self, _ctx: &mut NodeCtx<'_>, _port: SerialPortId, _data: Bytes) {}

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: TimerToken) {
        match token {
            TOKEN_CONNECT if self.sock.is_none() && !self.finished => {
                self.connect(ctx);
            }
            TOKEN_TCP => {
                let want = self.tcp.next_deadline();
                if !ctx.timer_due(&mut self.tcp_timer, want, TOKEN_TCP) {
                    return;
                }
                self.tcp.on_time(ctx.now());
            }
            TOKEN_CHAT => self.on_chat_tick(ctx),
            TOKEN_STALL => self.on_stall_check(ctx),
            _ => {}
        }
        self.flush(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn longest_stall_finds_gap() {
        let mut log = ClientLog::default();
        for ms in [100u64, 200, 300, 1_300, 1_400] {
            log.progress.push((SimTime::from_millis(ms), ms));
        }
        let stall = log.longest_stall(SimTime::ZERO, SimTime::from_millis(1_500));
        assert_eq!(stall, SimDuration::from_millis(1_000));
    }

    #[test]
    fn longest_stall_counts_tail() {
        let mut log = ClientLog::default();
        log.progress.push((SimTime::from_millis(100), 1));
        let stall = log.longest_stall(SimTime::ZERO, SimTime::from_millis(5_000));
        assert_eq!(stall, SimDuration::from_millis(4_900));
    }

    #[test]
    fn longest_stall_empty_log_is_whole_window() {
        let log = ClientLog::default();
        assert_eq!(
            log.longest_stall(SimTime::from_millis(10), SimTime::from_millis(110)),
            SimDuration::from_millis(100)
        );
    }

    #[test]
    fn stall_window_brackets_the_gap_longest_stall_measures() {
        let mut log = ClientLog::default();
        for ms in [100u64, 200, 300, 1_300, 1_400] {
            log.progress.push((SimTime::from_millis(ms), ms));
        }
        let (from, to) = (SimTime::ZERO, SimTime::from_millis(1_500));
        let (start, end) = log.longest_stall_window(from, to).unwrap();
        assert_eq!(start, SimTime::from_millis(300));
        assert_eq!(end, SimTime::from_millis(1_300));
        assert_eq!(end.saturating_since(start), log.longest_stall(from, to));
    }

    #[test]
    fn stall_window_tail_ends_at_to() {
        let mut log = ClientLog::default();
        log.progress.push((SimTime::from_millis(100), 1));
        let (start, end) = log
            .longest_stall_window(SimTime::ZERO, SimTime::from_millis(5_000))
            .unwrap();
        assert_eq!(start, SimTime::from_millis(100));
        assert_eq!(end, SimTime::from_millis(5_000));
    }

    #[test]
    fn stall_window_empty_range_is_none() {
        let log = ClientLog::default();
        assert!(log
            .longest_stall_window(SimTime::from_millis(5), SimTime::from_millis(5))
            .is_none());
    }
}
