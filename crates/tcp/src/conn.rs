//! The TCP connection state machine.
//!
//! A [`TcpConn`] is one endpoint of one connection: handshake, sliding
//! window with flow and congestion control, retransmission with
//! exponential backoff, graceful close, and reset handling. It is a pure
//! state machine — segments in, segments out, explicit virtual-time
//! timers — which is what lets the ST-TCP layer wrap it, tap it, and
//! suppress its output without forking the protocol logic.
//!
//! Internally all positions are 64-bit stream offsets (offset 0 = first
//! payload byte); [`crate::seq::SeqTracker`] converts to wire sequence
//! numbers at the edges.
//!
//! Omissions relative to a kernel TCP, none of which the ST-TCP
//! experiments depend on: urgent data, TCP options beyond a fixed MSS,
//! window scaling, SACK, PAWS/timestamps, Nagle.
//!
//! ACKs are delayed as Linux delays them (RFC 1122 §4.2.3.2, RFC 9293
//! §3.8.6.3). An in-order data segment without FIN is acknowledged at
//! once only if it is the second since our last ACK, or while quick-ACK
//! lasts: the first [`QUICKACKS`] in-order segments of a connection, and
//! again after its receive side was idle longer than [`QUICKACK_IDLE`].
//! Otherwise the ACK is owed: any segment we send carries it, and if none
//! does it leaves alone [`DELACK`] later. Out-of-order, duplicate and FIN
//! segments are acknowledged at once. A pure ACK is withdrawn if a
//! FIN-less data segment is queued before anything polls, so a reply
//! written at once carries its request's ACK. A read owes a window update
//! only when it at least doubles a window of at most half the buffer
//! (RFC 1122 §4.2.3.3), and a SYN in a synchronized state is answered
//! with an ACK (RFC 9293 §3.10.7.4).
//!
//! Every send-stream position — cursor, high mark, FIN, RTT probe — is
//! the [`SendBuffer`]'s, and so is the rewind rule (see [`crate::sendbuf`]).

use bytes::Bytes;
use std::collections::VecDeque;
use std::num::NonZeroU32;
use std::rc::Rc;

use simnet::time::{SimDuration, SimTime};

use crate::recovery::Recovery;
use crate::recvbuf::RecvBuffer;
use crate::segment::{TcpFlags, TcpSegment};
use crate::sendbuf::{Fin, SendBuffer};
use crate::seq::{SeqNum, SeqTracker};
use crate::socket::FourTuple;

/// How long an owed ACK waits for a segment to ride (Linux
/// `TCP_DELACK_MIN`).
pub const DELACK: SimDuration = SimDuration::from_millis(40);

/// In-order segments acknowledged at once after the handshake and after
/// an idle receive side (Linux `TCP_MAX_QUICKACKS`).
pub const QUICKACKS: u8 = 16;

/// A receive side idle longer than this re-enters quick-ACK: the RTO
/// floor (Linux `TCP_RTO_MIN`).
pub const QUICKACK_IDLE: SimDuration = SimDuration::from_millis(200);

/// Maximum segment size: payload bytes per segment.
pub const MSS: u32 = 1460;

/// How long TIME-WAIT lingers.
pub const TIME_WAIT: SimDuration = SimDuration::from_secs(1);

/// Connection-level configuration. Read-only once a connection exists:
/// every holder ([`TcpConn`], the endpoint and listener configs) shares
/// one allocation through an `Rc`, and a limit a connection can change
/// for itself (the hold capacity, a resumed send buffer's widened
/// capacity) is copied out into that connection's own state.
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Send buffer capacity in bytes.
    pub send_buf: usize,
    /// Application receive buffer capacity (bounds the advertised window).
    pub recv_buf: usize,
    /// ST-TCP extended receive buffer ("hold") capacity; `None` for plain
    /// TCP.
    pub hold_buf: Option<usize>,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            send_buf: 256 * 1024,
            recv_buf: 64 * 1024,
            hold_buf: None,
        }
    }
}

/// TCP connection states (RFC 793 names; LISTEN lives in the endpoint).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TcpState {
    /// Active open sent, awaiting SYN-ACK.
    SynSent,
    /// Passive open replied, awaiting the handshake ACK.
    SynRcvd,
    /// Data transfer.
    Established,
    /// We closed first; FIN sent, not yet acked.
    FinWait1,
    /// Our FIN acked; awaiting the peer's FIN.
    FinWait2,
    /// Peer closed first; we may still send.
    CloseWait,
    /// Simultaneous close: FIN sent and peer FIN received, ours unacked.
    Closing,
    /// Peer closed, then we closed; awaiting the final ACK.
    LastAck,
    /// Both sides done; lingering to absorb stray segments.
    TimeWait,
    /// Fully closed (or aborted).
    Closed,
}

impl std::fmt::Display for TcpState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            TcpState::SynSent => "SYN-SENT",
            TcpState::SynRcvd => "SYN-RCVD",
            TcpState::Established => "ESTABLISHED",
            TcpState::FinWait1 => "FIN-WAIT-1",
            TcpState::FinWait2 => "FIN-WAIT-2",
            TcpState::CloseWait => "CLOSE-WAIT",
            TcpState::Closing => "CLOSING",
            TcpState::LastAck => "LAST-ACK",
            TcpState::TimeWait => "TIME-WAIT",
            TcpState::Closed => "CLOSED",
        };
        write!(f, "{s}")
    }
}

/// Application-visible connection events, drained via
/// [`TcpConn::poll_event`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnEvent {
    /// The handshake completed.
    Connected,
    /// New in-order data is readable.
    DataReadable,
    /// The peer closed its sending side (its FIN was consumed in order).
    PeerFin,
    /// The connection was reset (by the peer, or by retry exhaustion).
    Reset,
    /// The connection is fully closed.
    Closed,
}

/// The events awaiting [`TcpConn::poll_event`], oldest first, held inline:
/// four bits each (the discriminant plus one, so zero ends the queue),
/// oldest in the low nibble. An event equal to the newest one queued is
/// not queued again. Only `DataReadable` ever repeats, it stays true,
/// and an endpoint drains after every call, so no simulated run can
/// tell; what it buys is a bound — the four one-shot events with a
/// `DataReadable` between each stay well short of sixteen — and with it
/// no heap block per connection.
#[derive(Debug, Default)]
struct EventQueue(u64);

impl EventQueue {
    const BY_CODE: [ConnEvent; 5] = [
        ConnEvent::Connected,
        ConnEvent::DataReadable,
        ConnEvent::PeerFin,
        ConnEvent::Reset,
        ConnEvent::Closed,
    ];

    fn push(&mut self, ev: ConnEvent) {
        let code = ev as u64 + 1;
        let used = (u64::BITS - self.0.leading_zeros()).next_multiple_of(4);
        if used > 0 && self.0 >> (used - 4) == code {
            return;
        }
        assert!(
            used < u64::BITS,
            "sixteen undrained events: no connection has nine"
        );
        self.0 |= code << used;
    }

    fn pop(&mut self) -> Option<ConnEvent> {
        let code = (self.0 & 0xf) as usize;
        self.0 >>= 4;
        Self::BY_CODE.get(code.wrapping_sub(1)).copied()
    }
}

/// Per-connection transfer counters (for overhead measurements and tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnStats {
    /// Segments emitted (retransmissions and pure ACKs, not withdrawn ones).
    pub segs_out: u64,
    /// Segments processed.
    pub segs_in: u64,
    /// Payload bytes emitted for the first time.
    pub bytes_sent: u64,
    /// Payload bytes retransmitted.
    pub bytes_retransmitted: u64,
    /// Retransmission-timeout firings.
    pub rto_fires: u64,
    /// Fast retransmits triggered by triple duplicate ACKs.
    pub fast_retransmits: u64,
}

/// The portable protocol state of one live connection, as captured for
/// ST-TCP re-integration: enough to rebuild a tapping replica mid-stream
/// on a freshly booted backup.
///
/// Bytes below `snd_una` were acknowledged by the client and bytes below
/// `rcv_start` were consumed by the application before the capture — both
/// are summarized by the transferred application state, not carried here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpSnapshot {
    /// The connection four-tuple (server side local).
    pub tuple: FourTuple,
    /// Our initial sequence number (identical on both servers by the
    /// deterministic-ISN policy, but carried for verification).
    pub iss: SeqNum,
    /// The client's initial sequence number.
    pub peer_isn: SeqNum,
    /// Lowest unacknowledged send-stream offset.
    pub snd_una: u64,
    /// Send bytes covering `[snd_una, snd_una + unacked.len())`.
    pub unacked: Bytes,
    /// The application had closed its sending side (FIN queued).
    pub local_fin: bool,
    /// The application's receive read cursor at capture.
    pub rcv_start: u64,
    /// Receive bytes the application had not yet read:
    /// `[rcv_start, rcv_start + pending.len())`.
    pub pending: Bytes,
    /// The client's FIN stream offset, if one was ever seen.
    pub fin_offset: Option<u64>,
    /// The client's FIN had been consumed in order (the application was
    /// already told — the replica must not re-announce it).
    pub peer_fin_consumed: bool,
}

/// One endpoint of a TCP connection. See the [module docs](self).
#[derive(Debug)]
pub struct TcpConn {
    cfg: Rc<TcpConfig>,
    tuple: FourTuple,
    state: TcpState,

    // Send side.
    snd_tracker: SeqTracker,
    sendbuf: SendBuffer,
    /// Peer-advertised receive window.
    snd_wnd: u32,
    syn_acked: bool,

    // Receive side.
    rcv_tracker: Option<SeqTracker>,
    recvbuf: RecvBuffer,
    /// We have consumed the peer's FIN (it is reflected in our ACKs).
    peer_fin_consumed: bool,

    // Control.
    recovery: Recovery,
    persist_deadline: Option<SimTime>,
    persist_backoff: u8,
    timewait_deadline: Option<SimTime>,
    /// A pure ACK is owed now: the next output pass sends one unless a
    /// data segment or FIN goes.
    ack_pending: bool,
    /// The delayed-ACK deadline, in whole milliseconds of virtual time:
    /// armed while one in-order segment is unacknowledged.
    delack_at: Option<NonZeroU32>,
    /// When in-order data last arrived, in whole milliseconds.
    last_rcv_ms: u32,
    /// In-order segments still to be acknowledged at once.
    quickacks: u8,
    /// We emitted an RST (app abort) — ST-TCP's FIN/RST arbitration reads
    /// this.
    rst_generated: bool,

    out: VecDeque<TcpSegment>,
    events: EventQueue,
    stats: ConnStats,
}

// The scale tiers hold three of these per connection (client, primary,
// backup): the next field added is a decision, not an accident.
const _: () = assert!(std::mem::size_of::<TcpConn>() <= 480);

impl TcpConn {
    /// Creates an actively opening connection and queues the SYN.
    pub fn client(
        cfg: impl Into<Rc<TcpConfig>>,
        tuple: FourTuple,
        iss: SeqNum,
        now: SimTime,
    ) -> TcpConn {
        let mut c = TcpConn::raw(cfg.into(), tuple, iss);
        c.state = TcpState::SynSent;
        c.push_syn();
        c.recovery.arm(now);
        c
    }

    /// Creates a passively opened connection from a received SYN and
    /// queues the SYN-ACK.
    pub fn server_from_syn(
        cfg: impl Into<Rc<TcpConfig>>,
        tuple: FourTuple,
        iss: SeqNum,
        syn: &TcpSegment,
        now: SimTime,
    ) -> TcpConn {
        debug_assert!(syn.flags.syn && !syn.flags.ack);
        let mut c = TcpConn::raw(cfg.into(), tuple, iss);
        c.state = TcpState::SynRcvd;
        c.rcv_tracker = Some(SeqTracker::new(syn.seq));
        c.snd_wnd = syn.window as u32;
        c.push_syn();
        c.recovery.arm(now);
        c
    }

    fn raw(cfg: Rc<TcpConfig>, tuple: FourTuple, iss: SeqNum) -> TcpConn {
        let sendbuf = SendBuffer::new(cfg.send_buf);
        let recvbuf = RecvBuffer::new(cfg.recv_buf, cfg.hold_buf);
        TcpConn {
            cfg,
            tuple,
            state: TcpState::Closed,
            snd_tracker: SeqTracker::new(iss),
            sendbuf,
            snd_wnd: 0,
            syn_acked: false,
            rcv_tracker: None,
            recvbuf,
            peer_fin_consumed: false,
            recovery: Recovery::new(),
            persist_deadline: None,
            persist_backoff: 0,
            timewait_deadline: None,
            ack_pending: false,
            delack_at: None,
            last_rcv_ms: 0,
            quickacks: QUICKACKS,
            rst_generated: false,
            // One slot, not `VecDeque`'s first-push four (192 B): an idle
            // connection only ever queues its SYN or SYN-ACK here, and a
            // busy one doubles its way to its burst size once.
            out: VecDeque::with_capacity(1),
            events: EventQueue::default(),
            stats: ConnStats::default(),
        }
    }

    /// Captures the portable state of a live connection for ST-TCP
    /// re-integration. Returns `None` for connections that are not worth
    /// transferring: closed, lingering in TIME-WAIT, aborted, or still
    /// mid-handshake (no receive anchor yet).
    pub fn snapshot(&self) -> Option<TcpSnapshot> {
        if matches!(self.state, TcpState::Closed | TcpState::TimeWait) || self.rst_generated {
            return None;
        }
        let peer_isn = self.rcv_tracker?.isn();
        let una = self.sendbuf.una();
        let unacked = self.sendbuf.slice(una, usize::MAX);
        let read_pos = self.recvbuf.read_pos();
        let pending_len = (self.recvbuf.nxt() - read_pos) as usize;
        let pending = if pending_len == 0 {
            Bytes::new()
        } else {
            self.recvbuf
                .fetch(read_pos, pending_len)
                .expect("unread in-order bytes are always retained")
        };
        Some(TcpSnapshot {
            tuple: self.tuple,
            iss: self.isn(),
            peer_isn,
            snd_una: una,
            unacked,
            local_fin: self.fin_generated(),
            rcv_start: read_pos,
            pending,
            fin_offset: self.recvbuf.fin_offset(),
            peer_fin_consumed: self.peer_fin_consumed,
        })
    }

    /// Rebuilds one endpoint of a live connection from a re-integration
    /// snapshot — the ST-TCP replacement backup installing a
    /// tapping-but-suppressed replica mid-stream.
    ///
    /// The resumed connection behaves as if it had shadowed the stream
    /// from the start: the send side re-offers everything unacknowledged
    /// (the egress shim suppresses it), the receive side continues from
    /// the snapshot's read cursor with the unread bytes pre-injected, and
    /// an already-consumed client FIN is *not* re-announced.
    pub fn resume(cfg: impl Into<Rc<TcpConfig>>, snap: &TcpSnapshot) -> TcpConn {
        let mut c = TcpConn::raw(cfg.into(), snap.tuple, snap.iss);
        c.sendbuf = SendBuffer::resume(c.cfg.send_buf, snap.snd_una, &snap.unacked, snap.local_fin);
        c.snd_wnd = u16::MAX as u32;
        c.syn_acked = true;
        c.rcv_tracker = Some(SeqTracker::new(snap.peer_isn));
        c.recvbuf = RecvBuffer::resume(
            c.cfg.recv_buf,
            c.cfg.hold_buf,
            snap.rcv_start,
            snap.fin_offset,
        );
        c.peer_fin_consumed = snap.peer_fin_consumed;
        c.state = match (snap.local_fin, snap.peer_fin_consumed) {
            (false, false) => TcpState::Established,
            (false, true) => TcpState::CloseWait,
            (true, false) => TcpState::FinWait1,
            (true, true) => TcpState::LastAck,
        };
        if !snap.pending.is_empty() {
            let outcome = c
                .recvbuf
                .receive(snap.rcv_start as i64, &snap.pending, false);
            debug_assert_eq!(outcome.newly_in_order, snap.pending.len() as u64);
            // The replica application has not read these bytes yet.
            c.events.push(ConnEvent::DataReadable);
        }
        c.maybe_consume_peer_fin();
        c
    }

    /// Turns the extended receive buffer on (or re-arms it) from the
    /// current receive position — the active server's half of
    /// re-integration, so a joining backup can fetch anything it misses
    /// from here on.
    pub fn enable_hold(&mut self, capacity: usize) {
        self.recvbuf.enable_hold(capacity);
    }

    /// Turns the extended receive buffer off, releasing everything it
    /// held — the active server once it has no backup left to feed.
    pub fn disable_hold(&mut self) {
        self.recvbuf.disable_hold();
    }

    /// True while the extended receive buffer is on.
    pub fn holds(&self) -> bool {
        self.recvbuf.holds()
    }

    // ----- introspection ---------------------------------------------------

    /// The connection's four-tuple.
    pub fn tuple(&self) -> FourTuple {
        self.tuple
    }

    /// Current protocol state.
    pub fn state(&self) -> TcpState {
        self.state
    }

    /// Our initial sequence number.
    pub fn isn(&self) -> SeqNum {
        self.snd_tracker.isn()
    }

    /// The peer's initial sequence number, once known.
    pub fn peer_isn(&self) -> Option<SeqNum> {
        self.rcv_tracker.map(|t| t.isn())
    }

    /// Contiguous bytes received from the peer — the paper's
    /// `LastByteReceived`.
    pub fn bytes_received(&self) -> u64 {
        self.recvbuf.nxt()
    }

    /// Highest cumulative byte the peer has acknowledged — the paper's
    /// `LastAckReceived`.
    pub fn last_ack_received(&self) -> u64 {
        self.sendbuf.una()
    }

    /// Bytes the application has written — the paper's
    /// `LastAppByteWritten`.
    pub fn app_bytes_written(&self) -> u64 {
        self.sendbuf.written()
    }

    /// Bytes the application has read — the paper's `LastAppByteRead`.
    pub fn app_bytes_read(&self) -> u64 {
        self.recvbuf.read_pos()
    }

    /// Bytes ready for the application to read.
    pub fn readable(&self) -> usize {
        self.recvbuf.readable()
    }

    /// Free space in the send buffer.
    pub fn send_capacity(&self) -> usize {
        self.sendbuf.free_space()
    }

    /// True once this side has generated a FIN (application close), sent
    /// or not — input to ST-TCP's FIN arbitration.
    pub fn fin_generated(&self) -> bool {
        self.sendbuf.fin() != Fin::Open
    }

    /// True once this side has generated an RST (application abort).
    pub fn rst_generated(&self) -> bool {
        self.rst_generated
    }

    /// True once the peer's FIN has been consumed in order.
    pub fn peer_fin_received(&self) -> bool {
        self.peer_fin_consumed
    }

    /// Transfer counters.
    pub fn stats(&self) -> ConnStats {
        self.stats
    }

    /// Bytes held for the backup (ST-TCP extended receive buffer usage).
    pub fn hold_used(&self) -> usize {
        self.recvbuf.hold_used()
    }

    /// Bytes parked out-of-order behind a receive hole.
    pub fn ooo_bytes(&self) -> usize {
        self.recvbuf.ooo_bytes()
    }

    /// True when the hold has exceeded its capacity.
    pub fn hold_overflow(&self) -> bool {
        self.recvbuf.hold_overflow()
    }

    /// The current congestion window, in bytes (metrics sampling).
    pub fn cwnd(&self) -> u64 {
        self.recovery.cwnd()
    }

    /// Unacknowledged bytes occupying the send buffer.
    pub fn send_occupancy(&self) -> usize {
        self.sendbuf.buffered()
    }

    /// Bytes occupying the receive side: readable in-order data plus
    /// out-of-order segments parked behind a hole.
    pub fn recv_occupancy(&self) -> usize {
        self.recvbuf.readable() + self.recvbuf.ooo_bytes()
    }

    // ----- application API ---------------------------------------------------

    /// Writes application data; returns bytes accepted (bounded by buffer
    /// space). Data is transmitted as windows allow. The accepted bytes
    /// are copied once, into the send buffer.
    pub fn send(&mut self, now: SimTime, data: &[u8]) -> usize {
        self.send_with(now, |buf| buf.write(data))
    }

    /// [`TcpConn::send`] for data the caller already holds as [`Bytes`]:
    /// the send buffer shares the accepted prefix instead of copying it.
    pub fn send_bytes(&mut self, now: SimTime, data: &Bytes) -> usize {
        self.send_with(now, |buf| buf.write_bytes(data))
    }

    fn send_with(&mut self, now: SimTime, write: impl FnOnce(&mut SendBuffer) -> usize) -> usize {
        if !matches!(
            self.state,
            TcpState::SynSent | TcpState::SynRcvd | TcpState::Established | TcpState::CloseWait
        ) {
            return 0;
        }
        let n = write(&mut self.sendbuf);
        self.fill_output(now);
        n
    }

    /// Reads up to `max` bytes of in-order data.
    pub fn recv(&mut self, max: usize) -> Bytes {
        let before = self.recvbuf.window();
        let data = self.recvbuf.read(max);
        // A window update is owed only if the window was tight — at most
        // half the buffer — and this read at least doubled it (RFC 1122
        // §4.2.3.3; Linux `tcp_cleanup_rbuf`).
        let after = self.recvbuf.window();
        if !data.is_empty() && 2 * before <= self.cfg.recv_buf && after >= 2 * before {
            self.ack_pending = true;
        }
        data
    }

    /// Closes the sending side (queues a FIN after all written data).
    pub fn close(&mut self, now: SimTime) {
        self.state = match self.state {
            // The FIN waits for the handshake, whose end enters FIN-WAIT-1.
            s @ (TcpState::SynRcvd | TcpState::SynSent) => s,
            TcpState::Established => TcpState::FinWait1,
            TcpState::CloseWait => TcpState::LastAck,
            _ => return,
        };
        self.sendbuf.queue_fin();
        self.fill_output(now);
    }

    /// Aborts the connection: emits an RST and closes immediately.
    pub fn abort(&mut self, _now: SimTime) {
        if matches!(self.state, TcpState::Closed | TcpState::TimeWait) {
            self.state = TcpState::Closed;
            return;
        }
        self.push_rst();
        self.rst_generated = true;
        self.enter_closed(false);
    }

    /// Re-emits the RST of an aborted connection. An RST is a one-shot
    /// segment: unlike a FIN it is never regenerated by retransmission, so
    /// if the ST-TCP shim swallowed the original while the FIN/RST gate
    /// was holding, releasing the gate must re-issue it or the peer is
    /// left retransmitting into silence forever.
    pub fn reissue_rst(&mut self, _now: SimTime) {
        if self.rst_generated {
            self.push_rst();
        }
    }

    /// Queues an RST at the high mark (RFC 9293 SND.NXT, Linux
    /// `tcp_acceptable_seq`): after a rewind the cursor trails what the
    /// peer holds, and it drops an RST there as out of window.
    fn push_rst(&mut self) {
        self.push(TcpFlags::RST, self.sendbuf.high(), Bytes::new());
    }

    // ----- ST-TCP hooks ---------------------------------------------------

    /// Releases held receive bytes below stream offset `upto` (backup has
    /// confirmed them). True iff the release point moved.
    pub fn release_hold_until(&mut self, upto: u64) -> bool {
        self.recvbuf.release_until(upto)
    }

    /// Copies up to `max` held bytes from offset `off` to re-supply a
    /// lagging backup. `None` if the range is no longer retained.
    pub fn fetch_held(&self, off: u64, max: usize) -> Option<Bytes> {
        self.recvbuf.fetch(off, max)
    }

    /// Injects bytes into the receive path as if they had arrived from the
    /// peer (missed-byte recovery on the backup). FIN-free by definition.
    pub fn inject_in_order(&mut self, off: u64, data: &Bytes) {
        let outcome = self.recvbuf.receive(off as i64, data, false);
        if outcome.newly_in_order > 0 {
            self.events.push(ConnEvent::DataReadable);
            self.maybe_consume_peer_fin();
        }
    }

    /// Rewinds to the lowest unacknowledged offset and (re)streams from
    /// there, resetting backoff and owing an ACK: the ST-TCP takeover of a
    /// formerly *suppressed* connection, whose segments never reached the
    /// wire, and the release of a held FIN gate, whose FIN leaves now
    /// rather than at the next backed-off RTO. Bytes the old primary did
    /// deliver are acked away by the client's cumulative ACKs.
    pub fn rewind_unacked(&mut self, now: SimTime) {
        if matches!(self.state, TcpState::Closed | TcpState::TimeWait) {
            return;
        }
        self.recovery.restart();
        self.ack_pending |= self.syn_acked;
        self.rewind(now);
    }

    // ----- timer handling ---------------------------------------------------

    /// The earliest pending timer deadline, if any.
    pub fn next_deadline(&self) -> Option<SimTime> {
        [
            self.recovery.deadline(),
            self.persist_deadline,
            self.timewait_deadline,
            self.delack_deadline(),
        ]
        .into_iter()
        .flatten()
        .min()
    }

    /// Fires any timers that are due at `now`.
    pub fn on_timer(&mut self, now: SimTime) {
        if let Some(t) = self.timewait_deadline {
            if now >= t {
                self.timewait_deadline = None;
                if self.state == TcpState::TimeWait {
                    self.enter_closed(true);
                }
            }
        }
        // A timer left running while everything got acked fires idle.
        if self.recovery.due(now) && self.has_unacked() {
            self.stats.rto_fires += 1;
            if self.recovery.on_timeout(self.sendbuf.flight()) {
                self.rewind(now);
            } else {
                self.events.push(ConnEvent::Reset);
                self.enter_closed(false);
            }
        }
        if let Some(t) = self.persist_deadline {
            if now >= t {
                self.persist_deadline = None;
                self.on_persist_timeout(now);
            }
        }
        // Last: a retransmission or probe just sent carried the owed ACK.
        if self.delack_deadline().is_some_and(|t| now >= t) {
            self.emit_pure_ack();
        }
        debug_assert!(self.rtx_rule_holds());
    }

    fn delack_deadline(&self) -> Option<SimTime> {
        self.delack_at
            .map(|ms| SimTime::from_millis(u64::from(ms.get())))
    }

    fn on_persist_timeout(&mut self, now: SimTime) {
        if self.snd_wnd > 0 || self.sendbuf.unsent() == 0 {
            self.persist_backoff = 0;
            self.fill_output(now);
            return;
        }
        // Send a 1-byte window probe (does not advance the cursor).
        let at = self.sendbuf.cursor();
        self.push(TcpFlags::ACK, at, self.sendbuf.slice(at, 1));
        self.persist_backoff = (self.persist_backoff + 1).min(10);
        let interval = self
            .recovery
            .rto()
            .saturating_mul(1u64 << self.persist_backoff.min(10))
            .min(SimDuration::from_secs(60));
        self.persist_deadline = Some(now + interval);
    }

    // ----- segment input ---------------------------------------------------

    /// Processes an inbound segment.
    pub fn on_segment(&mut self, now: SimTime, seg: &TcpSegment) {
        self.stats.segs_in += 1;
        if self.state == TcpState::Closed {
            return;
        }

        if seg.flags.rst {
            self.on_rst(seg); // arms nothing
            return;
        }

        match self.state {
            TcpState::SynSent => self.on_segment_syn_sent(now, seg),
            TcpState::TimeWait => {
                // Ack retransmitted FINs.
                if seg.flags.fin {
                    self.ack_pending = true;
                    self.emit_pure_ack();
                }
            }
            _ => self.on_segment_active(now, seg),
        }
        debug_assert!(self.rtx_rule_holds());
    }

    fn on_rst(&mut self, seg: &TcpSegment) {
        // Accept the RST if it is plausibly in-window (or we have no
        // receive anchor yet).
        let acceptable = match self.rcv_tracker {
            None => true,
            Some(t) => {
                let off = t.to_offset(seg.seq, self.recvbuf.nxt());
                let nxt = self.recvbuf.nxt() as i64;
                let win = self.recvbuf.window() as i64;
                off >= nxt - 1 && off <= nxt + win
            }
        };
        if !acceptable {
            return;
        }
        // RFC 793 p. 70: in TIME-WAIT an RST only deletes the TCB; the
        // user is told "connection reset" in the states before it. Both
        // FINs are acknowledged by then, so the stream ended cleanly and
        // nothing can be lost to a reset — it is what a peer already in
        // CLOSED answers a straggler with (say this side's re-ACK of a
        // retransmitted FIN whose first ACK arrived late).
        let clean = self.state == TcpState::TimeWait;
        if !clean {
            self.events.push(ConnEvent::Reset);
        }
        self.enter_closed(clean);
    }

    fn on_segment_syn_sent(&mut self, now: SimTime, seg: &TcpSegment) {
        if !(seg.flags.syn && seg.flags.ack) {
            return; // simultaneous open unsupported; ignore
        }
        // The SYN-ACK must ack our ISN+1.
        if seg.ack != self.isn() + 1 {
            return;
        }
        self.rcv_tracker = Some(SeqTracker::new(seg.seq));
        self.syn_acked = true;
        self.snd_wnd = seg.window as u32;
        self.recovery.restart();
        self.state = self.handshake_done();
        self.recovery.disarm(); // nothing was sent before the SYN was acked
        self.events.push(ConnEvent::Connected);
        self.ack_pending = true;
        // Handshake payload (rare) plus our ACK.
        if !seg.payload.is_empty() || seg.flags.fin {
            self.process_payload(now, seg);
        }
        self.fill_output(now);
    }

    /// The state a completed handshake enters: FIN-WAIT-1 if the
    /// application closed during it.
    fn handshake_done(&self) -> TcpState {
        match self.fin_generated() {
            true => TcpState::FinWait1,
            false => TcpState::Established,
        }
    }

    fn on_segment_active(&mut self, now: SimTime, seg: &TcpSegment) {
        // A retransmitted SYN in SYN-RCVD: re-send the SYN-ACK.
        if self.state == TcpState::SynRcvd && seg.flags.syn && !seg.flags.ack {
            self.push_syn();
            return;
        }
        // Any other SYN in a synchronized state — say a retransmitted
        // SYN-ACK whose first copy got through — is answered with an ACK
        // and dropped (RFC 9293 §3.10.7.4, RFC 5961 §4).
        if seg.flags.syn && self.state != TcpState::SynRcvd {
            self.ack_pending = true;
            self.fill_output(now);
            return;
        }

        if seg.flags.ack {
            self.process_ack(now, seg);
        }
        if !seg.payload.is_empty() || seg.flags.fin {
            self.process_payload(now, seg);
        }
        self.fill_output(now);
    }

    fn process_ack(&mut self, now: SimTime, seg: &TcpSegment) {
        let ack_off = self.snd_tracker.to_offset(seg.ack, self.sendbuf.una());
        self.snd_wnd = seg.window as u32;
        // Garbage from before our ISN, or acking what we never sent.
        let acked = u64::try_from(ack_off)
            .ok()
            .and_then(|off| self.sendbuf.ack(off, now));
        let Some(acked) = acked else { return };

        if self.state == TcpState::SynRcvd {
            self.syn_acked = true;
            // The timeout count carries over: see `crate::recovery`.
            self.state = self.handshake_done();
            self.recovery.disarm(); // nothing is sent before the SYN is acked
            self.events.push(ConnEvent::Connected);
        }

        if acked.bytes > 0 || acked.fin {
            let outstanding = self.has_unacked();
            self.recovery
                .on_progress(acked.bytes, acked.rtt, outstanding, now);
        } else if seg.payload.is_empty()
            && !seg.flags.syn
            && !seg.flags.fin
            && ack_off == self.sendbuf.una() as i64
            && self.sendbuf.flight() > 0
            && self.recovery.on_dup_ack(self.sendbuf.flight(), now)
        {
            // Fast retransmit: the head alone, neither PSH nor timed.
            self.stats.fast_retransmits += 1;
            let head = self.sendbuf.head(MSS);
            self.stats.bytes_retransmitted += head.resent;
            let mut flags = TcpFlags::ACK;
            flags.fin = head.fin;
            self.push(flags, head.off, self.sendbuf.slice(head.off, head.len));
        }

        if acked.fin {
            match self.state {
                TcpState::FinWait1 => self.state = TcpState::FinWait2,
                TcpState::Closing => self.enter_time_wait(),
                TcpState::LastAck => self.enter_closed(true),
                _ => {}
            }
        }

        // Window reopened: cancel persist probing.
        if self.snd_wnd > 0 {
            self.persist_deadline = None;
            self.persist_backoff = 0;
        }
    }

    fn process_payload(&mut self, now: SimTime, seg: &TcpSegment) {
        let Some(tracker) = self.rcv_tracker else {
            return;
        };
        let nxt = self.recvbuf.nxt();
        let off = tracker.to_offset(seg.seq, nxt);
        let outcome = self.recvbuf.receive(off, &seg.payload, seg.flags.fin);
        if outcome.newly_in_order > 0 {
            self.events.push(ConnEvent::DataReadable);
        }
        // In-order data, all of it taken, with nothing behind a hole: its
        // ACK may wait. Anything else — out of order, duplicate (the peer
        // is clearly missing our previous ACK), filling a hole, FIN — is
        // acknowledged at once.
        let in_order = off == nxt as i64
            && !seg.flags.fin
            && outcome.newly_in_order == seg.payload.len() as u64
            && self.recvbuf.ooo_bytes() == 0;
        if in_order {
            self.delay_ack(now);
        } else {
            self.ack_pending = true;
        }
        self.maybe_consume_peer_fin();
    }

    /// Owes the ACK of an in-order data segment, or sends it at once if
    /// it is the second one owed or quick-ACK lasts.
    fn delay_ack(&mut self, now: SimTime) {
        let ms = whole_ms(now);
        if ms.saturating_sub(self.last_rcv_ms) > QUICKACK_IDLE.as_millis() as u32 {
            self.quickacks = QUICKACKS;
        }
        self.last_rcv_ms = ms;
        if self.quickacks > 0 || self.delack_at.is_some() {
            self.quickacks = self.quickacks.saturating_sub(1);
            self.ack_pending = true;
        } else {
            self.delack_at = NonZeroU32::new(whole_ms(now + DELACK));
        }
    }

    fn maybe_consume_peer_fin(&mut self) {
        if self.peer_fin_consumed || !self.recvbuf.fin_reached() {
            return;
        }
        self.peer_fin_consumed = true;
        self.ack_pending = true;
        self.events.push(ConnEvent::PeerFin);
        match self.state {
            TcpState::SynRcvd | TcpState::Established => self.state = TcpState::CloseWait,
            TcpState::FinWait1 => {
                if self.sendbuf.fin() == Fin::Acked {
                    self.enter_time_wait();
                } else {
                    self.state = TcpState::Closing;
                }
            }
            TcpState::FinWait2 => self.enter_time_wait(),
            _ => {}
        }
    }

    // `fill_output`, which always runs later in the same dispatch, arms
    // the TIME-WAIT deadline and stops the other timers.
    fn enter_time_wait(&mut self) {
        self.state = TcpState::TimeWait;
    }

    fn enter_closed(&mut self, graceful: bool) {
        self.state = TcpState::Closed;
        self.recovery.disarm();
        self.persist_deadline = None;
        self.timewait_deadline = None;
        self.delack_at = None;
        if graceful {
            self.events.push(ConnEvent::Closed);
        }
    }

    // ----- output ---------------------------------------------------

    /// Drains the next outbound segment, if any.
    pub fn poll_segment(&mut self) -> Option<TcpSegment> {
        self.out.pop_front()
    }

    /// Drains the next application-visible event, if any. Consecutive
    /// identical events (in practice: `DataReadable` while nobody
    /// polled) are reported once.
    pub fn poll_event(&mut self) -> Option<ConnEvent> {
        self.events.pop()
    }

    /// Generates whatever output current state and windows permit: new
    /// data segments, a FIN, and/or a pure ACK. Arms timers as needed.
    pub fn fill_output(&mut self, now: SimTime) {
        // Arm the TIME-WAIT deadline of a state change just made.
        if self.state == TcpState::TimeWait && self.timewait_deadline.is_none() {
            self.timewait_deadline = Some(now + TIME_WAIT);
            self.recovery.disarm();
            self.persist_deadline = None;
        }

        let can_send_data = matches!(
            self.state,
            TcpState::Established
                | TcpState::CloseWait
                | TcpState::FinWait1
                | TcpState::Closing
                | TcpState::LastAck
        );

        let mut emitted = false;
        while can_send_data && self.syn_acked {
            let flight = self.sendbuf.flight();
            let wnd_room = u64::from(self.snd_wnd).saturating_sub(flight);
            let room = self.recovery.allowance(flight).min(wnd_room);
            let Some(span) = self.sendbuf.next(room, MSS) else {
                // Zero window with data pending: arm persist probing.
                if self.sendbuf.unsent() > 0 && wnd_room == 0 && self.persist_deadline.is_none() {
                    self.persist_deadline = Some(now + self.recovery.rto());
                }
                break;
            };
            self.sendbuf.sent(span, now);
            let n = span.len as u64;
            self.stats.bytes_retransmitted += span.resent;
            self.stats.bytes_sent += n - span.resent;
            if !span.fin {
                self.withdraw_pure_ack();
            }
            // PSH marks the last written byte; a bare FIN carries none.
            let mut flags = TcpFlags::ACK;
            flags.psh = n > 0 && span.off + n == self.sendbuf.written();
            flags.fin = span.fin;
            self.push(flags, span.off, self.sendbuf.slice(span.off, span.len));
            self.recovery.arm(now);
            self.ack_pending = false;
            emitted = true;
        }

        if self.ack_pending && !emitted && self.rcv_tracker.is_some() {
            self.emit_pure_ack();
        }
        debug_assert!(self.rtx_rule_holds());
    }

    fn emit_pure_ack(&mut self) {
        self.push(TcpFlags::ACK, self.sendbuf.cursor(), Bytes::new());
        self.ack_pending = false;
    }

    /// Drops a pure ACK still waiting at the back of `out` (nothing polled
    /// since its input): the FIN-less data segment queued next carries an
    /// ack at least as new and a right window edge at least as far. Never
    /// called for a FIN, which [`crate::endpoint::FinGate::Hold`] may
    /// swallow at poll, nor for a fast retransmission or a persist probe.
    fn withdraw_pure_ack(&mut self) {
        let queued = self.out.back();
        if queued.is_some_and(|s| s.flags == TcpFlags::ACK && s.payload.is_empty()) {
            self.out.pop_back();
            self.stats.segs_out -= 1;
        }
    }

    /// Goes back to `una`, or to the SYN or SYN-ACK before the handshake
    /// completes: see [`crate::sendbuf`].
    fn rewind(&mut self, now: SimTime) {
        self.sendbuf.rewind();
        if !self.syn_acked {
            // A peer the SYN-ACK already established answers with the ACK
            // this side missed (a challenge ACK).
            self.push_syn();
            self.recovery.arm(now);
            return;
        }
        self.fill_output(now);
    }

    // ----- helpers ---------------------------------------------------

    /// Anything (SYN, data, FIN) outstanding and unacknowledged?
    fn has_unacked(&self) -> bool {
        matches!(self.state, TcpState::SynSent | TcpState::SynRcvd) || self.sendbuf.outstanding()
    }

    /// RFC 6298 §5.2, checked after every segment, timer and output pass in
    /// debug builds: the retransmit timer runs only while something is
    /// outstanding (the SYN until it is acked, whatever `close` did).
    pub(crate) fn rtx_rule_holds(&self) -> bool {
        self.recovery.deadline().is_none() || !self.syn_acked || self.has_unacked()
    }

    /// Queues our SYN, or the SYN-ACK once the peer's SYN is anchored.
    fn push_syn(&mut self) {
        self.push(TcpFlags::SYN, 0, Bytes::new());
    }

    /// Queues a segment at stream offset `off` (a SYN at our ISN), acking
    /// all consumed in order once the receive side is anchored. An ACK
    /// pays what is owed, unless on a FIN or RST: a held gate swallows it.
    fn push(&mut self, mut flags: TcpFlags, off: u64, payload: Bytes) {
        flags.ack = self.rcv_tracker.is_some();
        let ack = self.rcv_tracker.map_or(SeqNum(0), |t| {
            t.to_seq(self.recvbuf.nxt()) + u32::from(self.recvbuf.fin_reached())
        });
        if flags.ack && !flags.fin && !flags.rst {
            self.delack_at = None;
        }
        self.stats.segs_out += 1;
        self.out.push_back(TcpSegment {
            src_port: self.tuple.local.1,
            dst_port: self.tuple.remote.1,
            seq: match flags.syn {
                true => self.isn(),
                false => self.snd_tracker.to_seq(off),
            },
            ack,
            flags,
            window: self.recvbuf.window().min(u16::MAX as usize) as u16,
            payload,
        });
    }
}

/// `t` in whole milliseconds, rounded up so a deadline never fires early
/// (`u32`: 49 days of virtual time).
fn whole_ms(t: SimTime) -> u32 {
    u32::try_from(t.as_micros().div_ceil(1_000)).unwrap_or(u32::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::{INITIAL_RTO, MAX_RETRIES, MIN_RTO};
    use std::net::Ipv4Addr;

    const CLIENT_ISS: SeqNum = SeqNum(1_000);
    const SERVER_ISS: SeqNum = SeqNum(9_000_000);

    fn tuple_client() -> FourTuple {
        FourTuple {
            local: (Ipv4Addr::new(10, 0, 0, 1), 40_000),
            remote: (Ipv4Addr::new(10, 0, 0, 100), 80),
        }
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    /// A two-endpoint harness that shuttles segments instantly.
    struct Pair {
        client: TcpConn,
        server: Option<TcpConn>,
        now: SimTime,
    }

    impl Pair {
        fn new() -> Pair {
            let client = TcpConn::client(
                TcpConfig::default(),
                tuple_client(),
                CLIENT_ISS,
                SimTime::ZERO,
            );
            Pair {
                client,
                server: None,
                now: SimTime::ZERO,
            }
        }

        /// Exchanges segments until both sides go quiet.
        fn pump(&mut self) {
            loop {
                let mut moved = false;
                while let Some(seg) = self.client.poll_segment() {
                    moved = true;
                    match &mut self.server {
                        Some(s) => s.on_segment(self.now, &seg),
                        None if seg.flags.syn && !seg.flags.ack => {
                            let s = TcpConn::server_from_syn(
                                TcpConfig::default(),
                                tuple_client().flipped(),
                                SERVER_ISS,
                                &seg,
                                self.now,
                            );
                            self.server = Some(s);
                        }
                        None => {}
                    }
                }
                if let Some(s) = &mut self.server {
                    while let Some(seg) = s.poll_segment() {
                        moved = true;
                        self.client.on_segment(self.now, &seg);
                    }
                }
                if !moved {
                    break;
                }
            }
        }

        fn advance(&mut self, to: SimTime) {
            self.now = to;
            self.client.on_timer(to);
            if let Some(s) = &mut self.server {
                s.on_timer(to);
            }
        }

        fn established() -> Pair {
            let mut p = Pair::new();
            p.pump();
            assert_eq!(p.client.state(), TcpState::Established);
            assert_eq!(p.server.as_ref().unwrap().state(), TcpState::Established);
            p
        }

        fn server(&mut self) -> &mut TcpConn {
            self.server.as_mut().unwrap()
        }
    }

    #[test]
    fn three_way_handshake() {
        let mut p = Pair::new();
        assert_eq!(p.client.state(), TcpState::SynSent);
        p.pump();
        assert_eq!(p.client.state(), TcpState::Established);
        let s = p.server();
        assert_eq!(s.state(), TcpState::Established);
        // ISNs visible on both ends.
        assert_eq!(s.peer_isn(), Some(CLIENT_ISS));
        assert_eq!(s.isn(), SERVER_ISS);
    }

    #[test]
    fn a_completed_handshake_arms_no_timer_on_either_side() {
        // RFC 6298 §5.2: with the SYN and the SYN-ACK acked and nothing
        // written, neither end has a retransmit timeout left to fire.
        let mut p = Pair::established();
        assert_eq!(p.client.next_deadline(), None);
        assert_eq!(p.server().next_deadline(), None);
    }

    #[test]
    fn an_acked_fin_leaves_no_retransmit_timer() {
        let mut p = Pair::established();
        p.client.close(p.now);
        assert!(p.client.next_deadline().is_some(), "the FIN is outstanding");
        p.pump();
        assert_eq!(p.client.state(), TcpState::FinWait2);
        assert_eq!(p.client.next_deadline(), None);
        assert_eq!(p.server().state(), TcpState::CloseWait);
        assert_eq!(p.server().next_deadline(), None);
    }

    /// Every written byte and the FIN reach `to`, which then closes too:
    /// both ends end in CLOSED or TIME-WAIT.
    fn delivered_then_closed(p: &mut Pair, client_wrote: bool, data: &[u8]) {
        let (to, from) = match client_wrote {
            true => (p.server.as_mut().unwrap(), &mut p.client),
            false => (&mut p.client, p.server.as_mut().unwrap()),
        };
        assert_eq!(to.recv(100).as_ref(), data);
        assert!(to.peer_fin_received());
        assert_eq!(from.state(), TcpState::FinWait2);
        to.close(p.now);
        p.pump();
        for end in [&p.client, p.server.as_ref().unwrap()] {
            assert!(matches!(end.state(), TcpState::Closed | TcpState::TimeWait));
        }
    }

    #[test]
    fn a_client_closing_in_syn_sent_sends_its_data_and_fin() {
        let mut p = Pair::new();
        assert_eq!(p.client.send(p.now, b"hello"), 5);
        p.client.close(p.now);
        p.pump();
        delivered_then_closed(&mut p, true, b"hello");
    }

    #[test]
    fn a_server_closing_in_syn_rcvd_sends_its_data_and_fin() {
        let mut p = Pair::new();
        let syn = p.client.poll_segment().unwrap();
        let cfg = TcpConfig::default();
        let tuple = tuple_client().flipped();
        let mut s = TcpConn::server_from_syn(cfg, tuple, SERVER_ISS, &syn, p.now);
        assert_eq!(s.send(p.now, b"world"), 5);
        s.close(p.now);
        p.server = Some(s);
        p.pump();
        delivered_then_closed(&mut p, false, b"world");
    }

    #[test]
    fn handshake_emits_connected_events() {
        let mut p = Pair::established();
        let mut evs = Vec::new();
        while let Some(e) = p.client.poll_event() {
            evs.push(e);
        }
        assert!(evs.contains(&ConnEvent::Connected));
        let mut sevs = Vec::new();
        while let Some(e) = p.server().poll_event() {
            sevs.push(e);
        }
        assert!(sevs.contains(&ConnEvent::Connected));
    }

    #[test]
    fn data_transfer_both_directions() {
        let mut p = Pair::established();
        assert_eq!(p.client.send(p.now, b"hello"), 5);
        p.pump();
        let s = p.server();
        assert_eq!(s.readable(), 5);
        assert_eq!(s.recv(100).as_ref(), b"hello");
        let n = s.send(t(0), b"world!");
        assert_eq!(n, 6);
        p.pump();
        assert_eq!(p.client.recv(100).as_ref(), b"world!");
    }

    #[test]
    fn large_transfer_respects_mss_segmentation() {
        let mut p = Pair::established();
        let data = vec![7u8; 10_000];
        assert_eq!(p.client.send(p.now, &data), 10_000);
        p.pump();
        let got = p.server().recv(20_000);
        assert_eq!(got.len(), 10_000);
        assert!(got.iter().all(|&b| b == 7));
        // More than one segment was needed.
        assert!(p.client.stats().segs_out >= 7);
    }

    #[test]
    fn counters_track_directions() {
        let mut p = Pair::established();
        let _ = p.client.send(p.now, b"abc");
        p.pump();
        assert_eq!(p.client.app_bytes_written(), 3);
        assert_eq!(p.server().bytes_received(), 3);
        assert_eq!(p.client.last_ack_received(), 3);
        assert_eq!(p.server().app_bytes_read(), 0);
        let _ = p.server().recv(10);
        assert_eq!(p.server().app_bytes_read(), 3);
    }

    #[test]
    fn graceful_close_full_cycle() {
        let mut p = Pair::established();
        let _ = p.client.send(p.now, b"bye");
        p.client.close(p.now);
        assert_eq!(p.client.state(), TcpState::FinWait1);
        p.pump();
        let s = p.server();
        assert_eq!(s.recv(10).as_ref(), b"bye");
        assert!(s.peer_fin_received());
        assert_eq!(s.state(), TcpState::CloseWait);
        s.close(t(0));
        p.pump();
        assert_eq!(p.server().state(), TcpState::Closed);
        assert_eq!(p.client.state(), TcpState::TimeWait);
        // TIME-WAIT expires.
        p.advance(t(5_000));
        assert_eq!(p.client.state(), TcpState::Closed);
    }

    #[test]
    fn fin_events_fire() {
        let mut p = Pair::established();
        p.client.close(p.now);
        p.pump();
        let mut evs = Vec::new();
        while let Some(e) = p.server().poll_event() {
            evs.push(e);
        }
        assert!(evs.contains(&ConnEvent::PeerFin));
    }

    #[test]
    fn abort_sends_rst_and_peer_resets() {
        let mut p = Pair::established();
        p.client.abort(p.now);
        assert!(p.client.rst_generated());
        assert_eq!(p.client.state(), TcpState::Closed);
        p.pump();
        assert_eq!(p.server().state(), TcpState::Closed);
        let mut evs = Vec::new();
        while let Some(e) = p.server().poll_event() {
            evs.push(e);
        }
        assert!(evs.contains(&ConnEvent::Reset));
    }

    #[test]
    fn rto_backoff_doubles_between_retries() {
        let mut p = Pair::established();
        let _ = p.client.send(p.now, b"x");
        let _ = p.client.poll_segment(); // drop
        let d1 = p.client.next_deadline().unwrap();
        p.client.on_timer(d1);
        let _ = p.client.poll_segment(); // drop retransmission
        let d2 = p.client.next_deadline().unwrap();
        p.client.on_timer(d2);
        let _ = p.client.poll_segment(); // drop again
        let d3 = p.client.next_deadline().unwrap();
        let gap1 = d2 - d1;
        let gap2 = d3 - d2;
        assert_eq!(gap2, gap1 * 2, "exponential backoff");
    }

    #[test]
    fn retry_exhaustion_resets_connection() {
        let mut c = TcpConn::client(TcpConfig::default(), tuple_client(), CLIENT_ISS, t(0));
        let _ = c.poll_segment(); // SYN never answered
        for _ in 0..MAX_RETRIES {
            c.on_timer(c.next_deadline().unwrap());
            assert!(c.poll_segment().unwrap().flags.syn, "a timeout resends");
        }
        assert_eq!(c.state(), TcpState::SynSent);
        c.on_timer(c.next_deadline().unwrap());
        assert!(c.poll_segment().is_none());
        assert_eq!(c.state(), TcpState::Closed);
        assert_eq!(c.stats().rto_fires, u64::from(MAX_RETRIES) + 1);
        assert_eq!(c.poll_event(), Some(ConnEvent::Reset));
    }

    #[test]
    fn out_of_order_segments_reassemble() {
        let mut p = Pair::established();
        let _ = p.client.send(p.now, b"aaaa");
        let first = p.client.poll_segment().unwrap();
        let _ = p.client.send(p.now, b"bbbb");
        let second = p.client.poll_segment().unwrap();
        // Deliver in reverse order.
        let s = p.server();
        s.on_segment(t(0), &second);
        assert_eq!(s.readable(), 0);
        // Nothing written: a pure duplicate ACK answers the early arrival,
        // so fast retransmit sees the same input.
        let dup = s.poll_segment().unwrap();
        assert_eq!((dup.flags, dup.payload.len()), (TcpFlags::ACK, 0));
        assert_eq!(dup.ack, CLIENT_ISS + 1);
        s.on_segment(t(0), &first);
        assert_eq!(s.recv(100).as_ref(), b"aaaabbbb");
    }

    /// Delivers `req` from the client to the server and leaves the
    /// server's answer unpolled, as an endpoint does while its
    /// application runs.
    fn request_in(p: &mut Pair, req: &[u8]) {
        assert_eq!(p.client.send(p.now, req), req.len());
        let seg = p.client.poll_segment().unwrap();
        let now = p.now;
        p.server().on_segment(now, &seg);
    }

    #[test]
    fn a_reply_written_before_the_poll_leaves_as_one_segment_with_the_ack() {
        let mut p = Pair::established();
        let sent = p.server().stats().segs_out;
        request_in(&mut p, b"ping");
        let s = p.server();
        assert_eq!(s.recv(100).as_ref(), b"ping");
        assert_eq!(s.send(t(0), b"pong"), 4);
        let reply = s.poll_segment().unwrap();
        assert!(s.poll_segment().is_none(), "the pure ACK was withdrawn");
        assert_eq!(
            (reply.payload.as_ref(), reply.ack),
            (&b"pong"[..], CLIENT_ISS + 5)
        );
        assert_eq!(reply.window, u16::MAX);
        // The withdrawn ACK never left, so it never counted.
        assert_eq!(s.stats().segs_out, sent + 1);
    }

    #[test]
    fn with_no_reply_the_pure_ack_is_the_one_built_at_input() {
        let mut p = Pair::established();
        request_in(&mut p, b"ping");
        let s = p.server();
        // Reading opens the window, but the queued ACK keeps the window
        // of its input: a receiver that never writes back sends the same
        // bytes as before ACKs could be withdrawn.
        assert_eq!(s.recv(100).as_ref(), b"ping");
        let ack = s.poll_segment().unwrap();
        let expect = TcpSegment {
            src_port: 80,
            dst_port: 40_000,
            seq: SERVER_ISS + 1,
            ack: CLIENT_ISS + 5,
            flags: TcpFlags::ACK,
            window: (TcpConfig::default().recv_buf - 4) as u16,
            payload: Bytes::new(),
        };
        assert_eq!(ack, expect);
        assert!(s.poll_segment().is_none());
    }

    #[test]
    fn a_segment_carrying_fin_never_withdraws_the_pure_ack() {
        // A takeover's rewind re-offers "pong" and the FIN in one segment
        // after a request's ACK was queued: a held FIN gate swallows that
        // segment, so the ACK must still leave on its own.
        let mut p = Pair::established();
        let s = p.server();
        let _ = s.send(t(0), b"pong");
        s.close(t(0));
        while s.poll_segment().is_some() {} // suppressed, never delivered
        request_in(&mut p, b"ping");
        let s = p.server();
        s.rewind_unacked(t(0));
        let ack = s.poll_segment().unwrap();
        assert_eq!((ack.flags, ack.ack), (TcpFlags::ACK, CLIENT_ISS + 5));
        let last = s.poll_segment().unwrap();
        assert!(last.flags.fin && last.payload.as_ref() == b"pong");
    }

    /// `request_in`, and what the server sent at once (its ACK, if any).
    fn acked_at_once(p: &mut Pair, req: &[u8]) -> Option<TcpSegment> {
        request_in(p, req);
        let ack = p.server().poll_segment();
        assert!(p.server().poll_segment().is_none());
        ack
    }

    /// An established pair whose server has spent its quick-ACKs on
    /// one-byte requests, each acknowledged at once.
    fn past_quickack() -> Pair {
        let mut p = Pair::established();
        for k in 1..=QUICKACKS as u32 {
            let ack = acked_at_once(&mut p, b"q").expect("quick-ACK");
            assert_eq!(ack.ack, CLIENT_ISS + 1 + k);
        }
        p
    }

    #[test]
    fn past_quick_ack_the_second_in_order_segment_is_acked_at_once() {
        let mut p = past_quickack();
        let acked = CLIENT_ISS + 1 + QUICKACKS as u32;
        assert!(acked_at_once(&mut p, b"a").is_none(), "the first is owed");
        let ack = acked_at_once(&mut p, b"b").expect("the second is not");
        assert_eq!((ack.flags, ack.ack), (TcpFlags::ACK, acked + 2));
        assert_eq!(p.server().next_deadline(), None, "nothing owed");
    }

    #[test]
    fn a_lone_segments_ack_rides_the_next_write_or_leaves_after_40_ms() {
        let mut p = past_quickack();
        let acked = CLIENT_ISS + 1 + QUICKACKS as u32;
        assert!(acked_at_once(&mut p, b"a").is_none());
        assert_eq!(p.server().next_deadline(), Some(t(40)));
        let s = p.server();
        assert_eq!(s.send(t(1), b"reply"), 5);
        let reply = s.poll_segment().unwrap();
        assert_eq!(
            (reply.payload.as_ref(), reply.ack),
            (&b"reply"[..], acked + 1)
        );
        assert_eq!(s.delack_at, None, "the reply paid it");

        p.now = t(2);
        assert!(acked_at_once(&mut p, b"b").is_none());
        assert_eq!(p.server().delack_deadline(), Some(t(42)));
        p.server().on_timer(t(41));
        assert!(p.server().poll_segment().is_none());
        p.server().on_timer(t(42));
        let ack = p.server().poll_segment().expect("the deadline's ACK");
        assert_eq!((ack.flags, ack.ack), (TcpFlags::ACK, acked + 2));
        assert_eq!(p.server().delack_deadline(), None);
    }

    #[test]
    fn out_of_order_duplicate_and_fin_segments_are_acked_at_once() {
        let mut p = past_quickack();
        let acked = CLIENT_ISS + 1 + QUICKACKS as u32;
        let _ = p.client.send(p.now, b"a");
        let first = p.client.poll_segment().unwrap();
        let _ = p.client.send(p.now, b"b");
        let second = p.client.poll_segment().unwrap();
        p.client.close(p.now);
        let fin = p.client.poll_segment().unwrap();
        let s = p.server();
        for (seg, ack) in [
            (&second, acked),    // out of order: a duplicate ACK
            (&first, acked + 2), // fills the hole
            (&first, acked + 2), // a duplicate
            (&fin, acked + 3),
        ] {
            s.on_segment(t(0), seg);
            let out = s.poll_segment().expect("acked at once");
            assert_eq!((out.flags, out.ack), (TcpFlags::ACK, ack));
            assert_eq!(s.delack_at, None);
        }
    }

    #[test]
    fn quick_ack_covers_16_segments_after_the_handshake_and_after_idling() {
        // `past_quickack` checks the first 16; the 17th is owed.
        let mut p = past_quickack();
        assert!(acked_at_once(&mut p, b"x").is_none());
        p.advance(t(40));
        assert!(p.server().poll_segment().is_some(), "the owed ACK");
        // 200 ms since the last arrival is not idle; 201 ms is.
        p.now = t(200);
        assert!(acked_at_once(&mut p, b"x").is_none());
        p.advance(t(401));
        assert!(p.server().poll_segment().is_some(), "the owed ACK");
        for k in 1..=QUICKACKS {
            assert!(acked_at_once(&mut p, b"q").is_some(), "quick-ACK {k}");
        }
        assert!(acked_at_once(&mut p, b"x").is_none());
    }

    #[test]
    fn a_read_owes_a_window_update_only_if_the_window_was_tight() {
        let mut p = Pair::established();
        // Reading a request leaves nothing owed: the pure ACK the client
        // sends next is answered with nothing.
        assert!(acked_at_once(&mut p, b"ping").is_some());
        assert_eq!(p.server().recv(100).as_ref(), b"ping");
        let sent = p.server().stats().segs_out;
        p.client.ack_pending = true;
        p.client.fill_output(p.now);
        p.pump();
        assert_eq!(p.server().stats().segs_out, sent);
        // A read that reopens a closed window owes the update, which the
        // next segment in draws out.
        let _ = p.client.send(p.now, &[3u8; 70_000]);
        p.pump();
        assert_eq!(p.server().recvbuf.window(), 0);
        let _ = p.server().recv(1 << 20);
        let sent = p.server().stats().segs_out;
        p.client.ack_pending = true;
        p.client.fill_output(p.now);
        p.pump();
        assert!(p.server().stats().segs_out > sent, "no window update");
        assert!(p.server().bytes_received() > 65_536);
    }

    #[test]
    fn an_established_connection_answers_a_duplicate_syn_ack_with_an_ack() {
        let mut p = Pair::new();
        let syn = p.client.poll_segment().unwrap();
        let mut s = TcpConn::server_from_syn(
            TcpConfig::default(),
            tuple_client().flipped(),
            SERVER_ISS,
            &syn,
            p.now,
        );
        let syn_ack = s.poll_segment().unwrap();
        p.server = Some(s);
        p.client.on_segment(t(0), &syn_ack);
        p.pump();
        assert_eq!(p.server().state(), TcpState::Established);
        // The SYN-ACK's retransmission reaches the established client.
        p.client.on_segment(t(1), &syn_ack);
        let ack = p.client.poll_segment().expect("an ACK answers it");
        assert_eq!(ack.flags, TcpFlags::ACK);
        assert_eq!((ack.seq, ack.ack), (CLIENT_ISS + 1, SERVER_ISS + 1));
        assert_eq!(p.client.state(), TcpState::Established);
    }

    #[test]
    fn a_rewind_in_syn_rcvd_re_offers_the_syn_ack_and_the_peer_completes_it() {
        // A replica that missed the handshake ACK takes over. A pure ACK
        // would draw nothing from a client the primary's copy of the
        // SYN-ACK established; the SYN-ACK draws the ACK it missed.
        let mut p = Pair::new();
        let syn = p.client.poll_segment().unwrap();
        let (cfg, tuple) = (TcpConfig::default(), tuple_client().flipped());
        let mut replica = TcpConn::server_from_syn(cfg, tuple, SERVER_ISS, &syn, p.now);
        while replica.poll_segment().is_some() {} // suppressed
        let primary =
            TcpConn::server_from_syn(TcpConfig::default(), tuple, SERVER_ISS, &syn, p.now);
        p.server = Some(primary);
        p.pump();
        assert_eq!(p.client.state(), TcpState::Established);
        replica.rewind_unacked(t(1));
        let syn_ack = replica.poll_segment().unwrap();
        assert_eq!(syn_ack.flags, TcpFlags::SYN_ACK);
        p.client.on_segment(t(1), &syn_ack);
        replica.on_segment(t(1), &p.client.poll_segment().unwrap());
        assert_eq!(replica.state(), TcpState::Established);
    }

    #[test]
    fn duplicate_acks_trigger_fast_retransmit() {
        let mut p = Pair::established();
        // Warm up so cwnd allows multiple segments at once.
        for _ in 0..20 {
            let _ = p.client.send(p.now, &vec![1u8; 1460]);
            p.pump();
            let _ = p.server().recv(1 << 20);
        }
        // Send 5 segments, drop the first, deliver the rest.
        let _ = p.client.send(p.now, &vec![2u8; 1460 * 5]);
        let lost = p.client.poll_segment().unwrap();
        let mut segs = Vec::new();
        while let Some(s) = p.client.poll_segment() {
            segs.push(s);
        }
        assert!(
            segs.len() >= 3,
            "need ≥3 following segments, got {}",
            segs.len()
        );
        for s in &segs {
            p.server().on_segment(t(1), s);
        }
        // Server generated dup acks; deliver them to the client.
        let mut acks = Vec::new();
        while let Some(a) = p.server().poll_segment() {
            acks.push(a);
        }
        assert!(acks.len() >= 3);
        for a in &acks {
            p.client.on_segment(t(1), a);
        }
        assert_eq!(p.client.stats().fast_retransmits, 1);
        // The fast retransmission fills the hole.
        let rtx = p.client.poll_segment().unwrap();
        assert_eq!(rtx.seq, lost.seq);
        p.server().on_segment(t(1), &rtx);
        let _ = p.server().recv(1 << 20);
        assert_eq!(p.server().bytes_received(), p.client.app_bytes_written());
    }

    #[test]
    fn zero_window_stalls_then_probe_resumes() {
        // Tiny server receive buffer, app never reads.
        let mut p = Pair::new();
        p.pump();
        // Replace server with a tiny-window one: simplest is to use default
        // pair and fill the 64 KiB window.
        let big = vec![3u8; 70_000];
        let _ = p.client.send(p.now, &big);
        p.pump();
        // Window is now zero (server app read nothing).
        let s = p.server.as_ref().unwrap();
        assert!(s.recvbuf.window() == 0);
        let received = s.bytes_received();
        assert!(received >= 64 * 1024 - 1);
        // Client has unsent data pending and a persist timer armed.
        assert!(p.client.persist_deadline.is_some() || p.client.sendbuf.flight() > 0);
        // Server app reads; window reopens; ack propagates.
        let _ = p.server().recv(1 << 20);
        // Fire the client's persist/rtx machinery until data flows again.
        for _ in 0..50 {
            if let Some(d) = p.client.next_deadline() {
                p.advance(d);
                p.pump();
            }
            if p.server.as_ref().unwrap().bytes_received() == 70_000 {
                break;
            }
            let _ = p.server().recv(1 << 20);
        }
        assert_eq!(p.server.as_ref().unwrap().bytes_received(), 70_000);
    }

    #[test]
    fn hold_buffer_serves_fetch_and_overflow() {
        let cfg = TcpConfig {
            hold_buf: Some(8),
            ..Default::default()
        };
        let mut client = TcpConn::client(
            TcpConfig::default(),
            tuple_client(),
            CLIENT_ISS,
            SimTime::ZERO,
        );
        let syn = client.poll_segment().unwrap();
        let mut server = TcpConn::server_from_syn(
            cfg,
            tuple_client().flipped(),
            SERVER_ISS,
            &syn,
            SimTime::ZERO,
        );
        let synack = server.poll_segment().unwrap();
        client.on_segment(SimTime::ZERO, &synack);
        while let Some(s) = client.poll_segment() {
            server.on_segment(SimTime::ZERO, &s);
        }
        let _ = client.send(SimTime::ZERO, b"0123456789ab");
        while let Some(s) = client.poll_segment() {
            server.on_segment(SimTime::ZERO, &s);
        }
        // App reads everything, but hold keeps it.
        let _ = server.recv(100);
        assert_eq!(server.hold_used(), 12);
        assert!(server.hold_overflow());
        assert_eq!(server.fetch_held(4, 4).unwrap().as_ref(), b"4567");
        server.release_hold_until(10);
        assert_eq!(server.hold_used(), 2);
        assert!(!server.hold_overflow());
        assert!(server.fetch_held(4, 4).is_none());
    }

    #[test]
    fn inject_in_order_fills_gap() {
        let mut p = Pair::established();
        let _ = p.client.send(p.now, b"abcd");
        let first = p.client.poll_segment().unwrap();
        let _ = p.client.send(p.now, b"efgh");
        let second = p.client.poll_segment().unwrap();
        // Lose the first; deliver the second (out of order).
        let s = p.server();
        s.on_segment(t(0), &second);
        assert_eq!(s.readable(), 0);
        // ST-TCP recovery injects the missing bytes.
        s.inject_in_order(0, &first.payload);
        assert_eq!(s.recv(100).as_ref(), b"abcdefgh");
    }

    #[test]
    fn rewind_unacked_restreams_suppressed_data() {
        // Model the ST-TCP backup: data "sent" (cursor advanced) but every
        // segment dropped; after takeover, rewind must re-offer the whole
        // unacked region as ordinary transmissions.
        let mut p = Pair::established();
        let payload = vec![9u8; 8 * 1460];
        let _ = p.client.send(p.now, &payload);
        // Suppress: throw away everything the client generated.
        while p.client.poll_segment().is_some() {}
        p.client.rewind_unacked(t(1));
        // The data streams again (cwnd-limited, so possibly over multiple
        // ack exchanges).
        for _ in 0..10 {
            p.pump();
            if p.server().bytes_received() == payload.len() as u64 {
                break;
            }
        }
        assert_eq!(p.server().recv(1 << 20).len(), payload.len());
    }

    #[test]
    fn force_retransmit_resends_head_immediately() {
        // A lost head leaves at once on a rewind (takeover, FIN-gate
        // release), not at the next backed-off RTO.
        let mut p = Pair::established();
        let _ = p.client.send(p.now, b"data!");
        let _ = p.client.poll_segment(); // lost
        assert!(p.client.poll_segment().is_none());
        p.client.rewind_unacked(t(1));
        let seg = p.client.poll_segment().unwrap();
        assert_eq!(seg.payload.as_ref(), b"data!");
    }

    #[test]
    fn rewind_unacked_reoffers_unacked_fin() {
        let mut p = Pair::established();
        let _ = p.client.send(p.now, b"tail");
        p.client.close(p.now);
        while p.client.poll_segment().is_some() {} // all suppressed
        p.client.rewind_unacked(t(1));
        p.pump();
        let s = p.server();
        assert_eq!(s.recv(100).as_ref(), b"tail");
        assert!(s.peer_fin_received(), "FIN was not re-offered");
    }

    /// Writes `segs` full segments on an established pair, loses them
    /// all, and returns the pair, the lost segments and the RTO deadline.
    fn window_lost(segs: usize) -> (Pair, Vec<TcpSegment>, SimTime) {
        let mut p = Pair::established();
        let _ = p.client.send(p.now, &vec![5u8; segs * 1460]);
        let lost: Vec<_> = std::iter::from_fn(|| p.client.poll_segment()).collect();
        assert_eq!(lost.len(), segs);
        let rto = p.client.next_deadline().unwrap();
        (p, lost, rto)
    }

    #[test]
    fn after_an_rto_a_lost_window_leaves_on_acks_not_timeouts() {
        let (mut p, lost, rto) = window_lost(4);
        p.advance(rto);
        let head = p.client.poll_segment().unwrap();
        assert_eq!(head.seq, lost[0].seq);
        assert!(p.client.poll_segment().is_none(), "slow start: one MSS");
        p.server().on_segment(rto, &head);
        let ack = p.server().poll_segment().unwrap();
        p.client.on_segment(rto, &ack);
        let next = p.client.poll_segment().expect("the head's ACK sends on");
        assert_eq!(next.seq, lost[1].seq);
        p.server().on_segment(rto, &next);
        p.pump();
        assert_eq!(p.server().bytes_received(), 4 * 1460);
        assert_eq!(p.client.stats().rto_fires, 1);
    }

    #[test]
    fn after_a_rewind_first_sends_and_resends_split_the_stream() {
        let (mut p, lost, _) = window_lost(4);
        let _ = p.client.send(p.now, &[5u8; 4 * 1460]);
        p.client.rewind_unacked(t(1));
        p.pump();
        assert_eq!(p.server().bytes_received(), 8 * 1460);
        let stats = p.client.stats();
        assert_eq!(stats.bytes_sent, 8 * 1460, "every byte is sent once");
        assert_eq!(stats.bytes_retransmitted, lost.len() as u64 * 1460);
    }

    #[test]
    fn no_rtt_sample_comes_from_a_resent_segment() {
        let (mut p, _, rto) = window_lost(4);
        p.advance(rto);
        assert_eq!(p.client.sendbuf.probe, None, "Karn: a resend is not timed");
        p.now = rto + SimDuration::from_millis(30);
        p.pump();
        assert_eq!(p.server().bytes_received(), 4 * 1460);
        assert_eq!(p.client.recovery.rto(), INITIAL_RTO, "no sample yet");
        let _ = p.client.send(p.now, b"past the high mark");
        p.pump();
        assert_eq!(p.client.recovery.rto(), MIN_RTO, "sampled");
    }

    #[test]
    fn an_rto_takes_the_ack_of_a_fin_that_arrived_ahead_of_a_hole() {
        let (mut p, lost, rto) = window_lost(2);
        p.client.close(p.now);
        let fin = p.client.poll_segment().unwrap();
        for seg in [&lost[1], &fin] {
            p.server().on_segment(t(0), seg);
        }
        while p.server().poll_segment().is_some() {} // duplicate ACKs, lost
        p.advance(rto);
        let head = p.client.poll_segment().unwrap();
        assert_eq!(head.seq, lost[0].seq);
        p.server().on_segment(rto, &head);
        let ack = p.server().poll_segment().unwrap();
        assert_eq!(ack.ack, fin.seq + 1, "the hole filled, the FIN is acked");
        p.client.on_segment(rto, &ack);
        assert_eq!(p.client.state(), TcpState::FinWait2);
        assert!(p.client.poll_segment().is_none(), "nothing past the head");
        assert_eq!(p.client.next_deadline(), None);
    }

    #[test]
    fn an_rst_after_an_rto_rewind_is_taken_by_the_peer() {
        // The whole window arrived and only its ACKs were lost: the
        // rewind leaves the cursor below what the server holds, so an RST
        // sent there would be out of window and the idle server would
        // stay ESTABLISHED.
        let (mut p, lost, rto) = window_lost(4);
        for seg in &lost {
            p.server().on_segment(t(0), seg);
        }
        while p.server().poll_segment().is_some() {} // ACKs, lost
        p.advance(rto);
        while p.client.poll_segment().is_some() {} // the resent head, lost
        p.client.abort(rto);
        let rst = p.client.poll_segment().unwrap();
        assert_eq!(rst.seq, lost[3].seq + 1460, "at the high mark");
        p.server().on_segment(rto, &rst);
        assert_eq!(p.server().state(), TcpState::Closed);
    }

    #[test]
    fn an_rto_into_a_zero_window_hands_over_to_the_persist_probe() {
        let (mut p, lost, rto) = window_lost(2);
        p.server().on_segment(t(0), &lost[0]);
        let mut ack = p.server().poll_segment().unwrap();
        ack.window = 0;
        p.client.on_segment(p.now, &ack);
        p.advance(rto);
        assert!(
            p.client.poll_segment().is_none(),
            "nothing fits a zero window"
        );
        assert_eq!(p.client.recovery.deadline(), None);
        let probe_at = p.client.persist_deadline.unwrap();
        p.advance(probe_at);
        p.pump();
        assert_eq!(p.server().bytes_received(), 2 * 1460);
    }

    #[test]
    fn simultaneous_close_reaches_time_wait_or_closed() {
        let mut p = Pair::established();
        p.client.close(p.now);
        p.server().close(t(0));
        // Exchange the crossed FINs.
        p.pump();
        let cs = p.client.state();
        let ss = p.server().state();
        for s in [cs, ss] {
            assert!(
                matches!(s, TcpState::TimeWait | TcpState::Closed),
                "state {s}"
            );
        }
    }

    #[test]
    fn syn_retransmission_answered_in_syn_rcvd() {
        let mut client = TcpConn::client(
            TcpConfig::default(),
            tuple_client(),
            CLIENT_ISS,
            SimTime::ZERO,
        );
        let syn = client.poll_segment().unwrap();
        let mut server = TcpConn::server_from_syn(
            TcpConfig::default(),
            tuple_client().flipped(),
            SERVER_ISS,
            &syn,
            SimTime::ZERO,
        );
        let synack1 = server.poll_segment().unwrap();
        // SYN-ACK lost; the client retransmits its SYN.
        let d = client.next_deadline().unwrap();
        client.on_timer(d);
        let syn2 = client.poll_segment().unwrap();
        assert!(syn2.flags.syn);
        server.on_segment(d, &syn2);
        let synack2 = server.poll_segment().unwrap();
        assert_eq!(synack2.seq, synack1.seq, "same ISS on re-send");
        client.on_segment(d, &synack2);
        assert_eq!(client.state(), TcpState::Established);
    }

    #[test]
    fn window_advertisement_reflects_unread_data() {
        let mut p = Pair::established();
        let _ = p.client.send(p.now, &vec![1u8; 10_000]);
        p.pump();
        // Ask the server to emit an ack and inspect its window.
        let _ = p.client.send(p.now, b"x");
        let mut seg = p.client.poll_segment().unwrap();
        p.server().on_segment(t(0), &seg);
        let ack = p.server().poll_segment().unwrap();
        assert!(ack.window < (64 * 1024_u32 - 10_000) as u16 + 1);
        // After the app reads, the next ack advertises more.
        let _ = p.server().recv(1 << 20);
        let _ = p.client.send(p.now, b"y");
        seg = p.client.poll_segment().unwrap();
        p.server().on_segment(t(0), &seg);
        let ack2 = p.server().poll_segment().unwrap();
        assert!(ack2.window > ack.window);
    }

    #[test]
    fn send_refused_when_closed() {
        let mut p = Pair::established();
        p.client.abort(p.now);
        assert_eq!(p.client.send(p.now, b"nope"), 0);
        assert_eq!(p.client.recv(10).len(), 0);
    }

    #[test]
    fn half_close_server_keeps_sending() {
        // Client closes its sending side; the server continues streaming
        // (the classic half-close), then closes.
        let mut p = Pair::established();
        p.client.close(p.now);
        p.pump();
        let s = p.server();
        assert_eq!(s.state(), TcpState::CloseWait);
        assert_eq!(s.send(t(0), b"still talking"), 13);
        p.pump();
        assert_eq!(p.client.recv(100).as_ref(), b"still talking");
        assert_eq!(p.client.state(), TcpState::FinWait2);
        p.server().close(t(0));
        p.pump();
        assert_eq!(p.server().state(), TcpState::Closed);
        assert_eq!(p.client.state(), TcpState::TimeWait);
    }

    #[test]
    fn time_wait_acks_retransmitted_fin() {
        let mut p = Pair::established();
        p.client.close(p.now);
        p.pump();
        // Capture the server's FIN for replay.
        p.server().close(t(0));
        let server_fin = {
            let s = p.server();
            let seg = s.poll_segment().unwrap();
            assert!(seg.flags.fin);
            seg
        };
        p.client.on_segment(t(0), &server_fin);
        while let Some(seg) = p.client.poll_segment() {
            p.server().on_segment(t(0), &seg);
        }
        assert_eq!(p.client.state(), TcpState::TimeWait);
        // The server's FIN is retransmitted (its ack was lost, say): the
        // TIME-WAIT client must re-ack it.
        p.client.on_segment(t(1), &server_fin);
        let ack = p.client.poll_segment().expect("re-ack from TIME-WAIT");
        assert!(ack.flags.ack && !ack.flags.fin);
    }

    #[test]
    fn rst_in_time_wait_closes_without_a_reset_signal() {
        // The peer reached CLOSED and answers a straggler with an RST
        // (RFC 793 p. 36); both FINs are acked, so TIME-WAIT just ends.
        let mut p = Pair::established();
        p.client.close(p.now);
        p.pump();
        p.server().close(t(0));
        p.pump();
        assert_eq!(p.client.state(), TcpState::TimeWait);
        while p.client.poll_event().is_some() {}
        let rst = TcpSegment {
            src_port: 80,
            dst_port: 40_000,
            seq: p.server().isn() + 2, // past the SYN and the FIN
            ack: SeqNum(0),
            flags: TcpFlags::RST,
            window: 0,
            payload: Bytes::new(),
        };
        p.client.on_segment(t(1), &rst);
        assert_eq!(p.client.state(), TcpState::Closed);
        let evs: Vec<ConnEvent> = std::iter::from_fn(|| p.client.poll_event()).collect();
        assert_eq!(evs, vec![ConnEvent::Closed]);
    }

    #[test]
    fn data_arriving_in_fin_wait_is_still_delivered() {
        // We close first but the peer has data in flight: it must still be
        // readable.
        let mut p = Pair::established();
        p.client.close(p.now);
        // Deliver our FIN later; first the server sends data.
        let fin = p.client.poll_segment().unwrap();
        let _ = p.server().send(t(0), b"late data");
        let data = p.server().poll_segment().unwrap();
        p.client.on_segment(t(0), &data);
        assert_eq!(p.client.recv(100).as_ref(), b"late data");
        p.server().on_segment(t(0), &fin);
        p.pump();
    }

    #[test]
    fn duplicate_fin_is_idempotent() {
        let mut p = Pair::established();
        p.client.close(p.now);
        let fin = p.client.poll_segment().unwrap();
        let s = p.server();
        s.on_segment(t(0), &fin);
        s.on_segment(t(0), &fin);
        s.on_segment(t(0), &fin);
        assert_eq!(s.state(), TcpState::CloseWait);
        let mut fins = 0;
        while let Some(e) = s.poll_event() {
            if e == ConnEvent::PeerFin {
                fins += 1;
            }
        }
        assert_eq!(fins, 1, "PeerFin event must fire exactly once");
    }

    #[test]
    fn old_duplicate_segment_reacked_not_redelivered() {
        let mut p = Pair::established();
        let _ = p.client.send(p.now, b"abc");
        let seg = p.client.poll_segment().unwrap();
        p.server().on_segment(t(0), &seg);
        assert_eq!(p.server().recv(10).as_ref(), b"abc");
        // Replay the same segment: no new data, but an ACK is emitted so a
        // peer that missed the first ACK resynchronizes.
        while p.server().poll_segment().is_some() {}
        p.server().on_segment(t(1), &seg);
        assert_eq!(p.server().recv(10).len(), 0);
        let ack = p
            .server()
            .poll_segment()
            .expect("duplicate deserves an ack");
        assert!(ack.flags.ack);
        assert!(ack.payload.is_empty());
    }

    #[test]
    fn rst_in_syn_sent_kills_connection() {
        let mut c = TcpConn::client(
            TcpConfig::default(),
            tuple_client(),
            CLIENT_ISS,
            SimTime::ZERO,
        );
        let syn = c.poll_segment().unwrap();
        let rst = TcpSegment {
            src_port: syn.dst_port,
            dst_port: syn.src_port,
            seq: SeqNum(0),
            ack: syn.seq + 1,
            flags: TcpFlags {
                rst: true,
                ack: true,
                ..Default::default()
            },
            window: 0,
            payload: Bytes::new(),
        };
        c.on_segment(SimTime::ZERO, &rst);
        assert_eq!(c.state(), TcpState::Closed);
    }

    #[test]
    fn out_of_window_rst_is_ignored() {
        let mut p = Pair::established();
        // An RST far outside the receive window must not kill the conn
        // (blind-reset protection).
        let bogus = TcpSegment {
            src_port: 80,
            dst_port: 40_000,
            seq: p.server().isn() + 500_000,
            ack: SeqNum(0),
            flags: TcpFlags::RST,
            window: 0,
            payload: Bytes::new(),
        };
        p.client.on_segment(t(0), &bogus);
        assert_eq!(p.client.state(), TcpState::Established);
    }

    #[test]
    fn hold_fetch_across_partial_release_and_reads() {
        let cfg = TcpConfig {
            hold_buf: Some(1 << 20),
            ..Default::default()
        };
        let mut client = TcpConn::client(
            TcpConfig::default(),
            tuple_client(),
            CLIENT_ISS,
            SimTime::ZERO,
        );
        let syn = client.poll_segment().unwrap();
        let mut server = TcpConn::server_from_syn(
            cfg,
            tuple_client().flipped(),
            SERVER_ISS,
            &syn,
            SimTime::ZERO,
        );
        while let Some(s) = server.poll_segment() {
            client.on_segment(SimTime::ZERO, &s);
        }
        while let Some(s) = client.poll_segment() {
            server.on_segment(SimTime::ZERO, &s);
        }
        let _ = client.send(SimTime::ZERO, b"0123456789");
        while let Some(s) = client.poll_segment() {
            server.on_segment(SimTime::ZERO, &s);
        }
        let _ = server.recv(4); // app read 4
        server.release_hold_until(2); // backup confirmed 2
                                      // Fetchable region is [2, 10): reads don't affect it.
        assert_eq!(server.fetch_held(2, 100).unwrap().as_ref(), b"23456789");
        assert_eq!(server.fetch_held(6, 2).unwrap().as_ref(), b"67");
        assert!(server.fetch_held(1, 1).is_none());
    }

    #[test]
    fn snapshot_resume_preserves_stream_positions() {
        let mut p = Pair::established();
        let _ = p.client.send(p.now, b"0123456789");
        p.pump();
        let s = p.server();
        assert_eq!(s.recv(4).as_ref(), b"0123");
        let snap = s.snapshot().expect("live connection snapshots");
        assert_eq!(snap.rcv_start, 4);
        assert_eq!(snap.pending.as_ref(), b"456789");
        assert!(!snap.local_fin && !snap.peer_fin_consumed);

        let replica = TcpConn::resume(TcpConfig::default(), &snap);
        assert_eq!(replica.state(), TcpState::Established);
        assert_eq!(replica.bytes_received(), s.bytes_received());
        assert_eq!(replica.app_bytes_read(), 4);
        assert_eq!(replica.isn(), s.isn());
        assert_eq!(replica.peer_isn(), s.peer_isn());
    }

    #[test]
    fn resumed_replica_reads_pending_then_taps_new_data() {
        let mut p = Pair::established();
        let _ = p.client.send(p.now, b"abcdef");
        p.pump();
        let snap = p.server().snapshot().unwrap();
        let mut replica = TcpConn::resume(TcpConfig::default(), &snap);
        // Pending bytes are immediately readable on the replica…
        assert_eq!(replica.recv(100).as_ref(), b"abcdef");
        // …and tapped client segments continue the stream seamlessly.
        let _ = p.client.send(p.now, b"ghi");
        let seg = p.client.poll_segment().unwrap();
        replica.on_segment(t(1), &seg);
        assert_eq!(replica.recv(100).as_ref(), b"ghi");
    }

    #[test]
    fn resume_carries_unacked_send_data_and_fin() {
        let mut p = Pair::established();
        let s = p.server();
        let _ = s.send(t(0), b"tail");
        s.close(t(0));
        while s.poll_segment().is_some() {} // all lost
        let snap = s.snapshot().unwrap();
        assert_eq!(snap.unacked.as_ref(), b"tail");
        assert!(snap.local_fin);
        let mut replica = TcpConn::resume(TcpConfig::default(), &snap);
        assert_eq!(replica.state(), TcpState::FinWait1);
        // After a takeover the replica re-offers the suppressed region.
        replica.rewind_unacked(t(2));
        p.client.on_segment(t(2), &replica.poll_segment().unwrap());
        assert_eq!(p.client.recv(100).as_ref(), b"tail");
    }

    #[test]
    fn resume_does_not_reannounce_consumed_client_fin() {
        let mut p = Pair::established();
        p.client.close(p.now);
        p.pump();
        let s = p.server();
        assert!(s.peer_fin_received());
        let snap = s.snapshot().unwrap();
        assert!(snap.peer_fin_consumed);
        let mut replica = TcpConn::resume(TcpConfig::default(), &snap);
        assert_eq!(replica.state(), TcpState::CloseWait);
        assert!(replica.peer_fin_received());
        let mut evs = Vec::new();
        while let Some(e) = replica.poll_event() {
            evs.push(e);
        }
        assert!(!evs.contains(&ConnEvent::PeerFin), "FIN re-announced");
    }

    #[test]
    fn resume_on_a_shared_config_restores_every_limit() {
        let cfg = Rc::new(TcpConfig {
            send_buf: 5_000,
            recv_buf: 3_000,
            hold_buf: Some(700),
        });
        let mut p = Pair::established();
        let _ = p.server().send(t(0), b"unacked");
        while p.server().poll_segment().is_some() {} // all lost
        let snap = p.server().snapshot().unwrap();
        let mut replica = TcpConn::resume(Rc::clone(&cfg), &snap);
        assert_eq!(Rc::strong_count(&cfg), 2, "shared, not copied");
        assert_eq!(replica.send_capacity(), 5_000 - b"unacked".len());
        assert_eq!(replica.recvbuf.window(), 3_000);
        // The hold limit is the config's too: 701 held bytes overflow it.
        let _ = p.client.send(p.now, &[7u8; 701]);
        replica.on_segment(t(1), &p.client.poll_segment().unwrap());
        assert_eq!(replica.recv(1_000).len(), 701);
        assert_eq!(replica.hold_used(), 701);
        assert!(replica.hold_overflow());
        replica.release_hold_until(1);
        assert!(!replica.hold_overflow());
    }

    #[test]
    fn an_idle_connection_keeps_one_output_slot() {
        // `VecDeque`'s own first push would take four (192 B) and keep
        // them for the connection's life.
        let mut p = Pair::established();
        let slot = std::mem::size_of::<TcpSegment>();
        assert!(p.client.out.capacity() * slot <= 64);
        assert!(p.server().out.capacity() * slot <= 64);
        // A burst grows the queue; nothing is lost on the way.
        let _ = p.client.send(p.now, &vec![1u8; 10 * 1460]);
        assert!(
            p.client.out.len() >= 2,
            "initial window is several segments"
        );
        p.pump();
        assert_eq!(p.server().bytes_received(), 10 * 1460);
    }

    #[test]
    fn event_queue_keeps_order_and_reports_a_repeat_once() {
        for (code, ev) in EventQueue::BY_CODE.into_iter().enumerate() {
            assert_eq!(ev as usize, code, "BY_CODE is indexed by discriminant");
        }
        let mut q = EventQueue::default();
        assert_eq!(q.pop(), None);
        use ConnEvent::*;
        // The longest undrained history a connection can have.
        for ev in [
            Connected,
            DataReadable,
            DataReadable,
            PeerFin,
            DataReadable,
            Reset,
            Closed,
        ] {
            q.push(ev);
        }
        let drained: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            drained,
            [
                Connected,
                DataReadable,
                PeerFin,
                DataReadable,
                Reset,
                Closed
            ]
        );
        assert_eq!(q.pop(), None);
        // Sixteen fit; nothing a connection does comes close.
        for i in 0..16 {
            q.push(if i % 2 == 0 { DataReadable } else { PeerFin });
        }
        assert_eq!(std::iter::from_fn(|| q.pop()).count(), 16);
    }

    #[test]
    fn closed_and_aborted_connections_do_not_snapshot() {
        let mut p = Pair::established();
        p.client.abort(p.now);
        assert!(p.client.snapshot().is_none());
    }

    #[test]
    fn stats_accumulate_sensibly() {
        let mut p = Pair::established();
        let _ = p.client.send(p.now, &vec![0u8; 5000]);
        p.pump();
        let st = p.client.stats();
        assert_eq!(st.bytes_sent, 5000);
        assert_eq!(st.bytes_retransmitted, 0);
        assert!(st.segs_out >= 4);
        assert!(p.server().stats().segs_in >= 4);
    }
}
