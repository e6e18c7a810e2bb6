//! The always-on flight recorder: causally-linked spans over the
//! datapath.
//!
//! Every host owns a bounded ring of 32-byte entries, recorded from
//! inside node dispatch (a ring starts empty, grows by doubling to its
//! bound and allocates nothing once it holds it — a host that records
//! twenty events in its life pays for twenty, not for the bound). A
//! segment, the record nearly every send and delivery makes, is stored
//! as the header its host saw; its [`FlightEvent`] — kind, connection
//! tag and [`SpanId::segment`] — is derived only when a snapshot is
//! taken. Any other event is kept whole in the host's side FIFO.
//! When a run ends in an invariant violation, the harness snapshots the
//! rings — the last N ms of segment, heartbeat, fence, fault, and
//! verdict activity, causally linked by span id — and the `obs` crate
//! renders the snapshot as schema-versioned JSON and as a Chrome
//! trace-event file loadable in `ui.perfetto.dev`.
//!
//! # Span identity
//!
//! A [`SpanId`] is a deterministic hash of *wire-observable* content:
//! both endpoints of a segment (or a heartbeat, or a fence round)
//! derive the same id independently, so the send and delivery of one
//! message share a span with no wire-format change and no shared
//! mutable state. Ids are therefore byte-identical across runs and
//! across `--threads` settings (the simulation itself is
//! single-threaded per world; workers only fan out across seeds).

use core::fmt;
use std::collections::VecDeque;

use crate::hash::{fnv1a_by, FNV_OFFSET};
use crate::node::NodeId;
use crate::time::{SimDuration, SimTime};

/// Default per-host ring capacity, in events. At chaos traffic rates
/// (~1 segment per ms per direction) this holds several virtual
/// seconds of history per host.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 1024;

/// A deterministic causal span identifier. `SpanId(0)` is reserved as
/// [`SpanId::NONE`] (no span / no parent).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The null span: "no parent" / "not part of a span".
    pub const NONE: SpanId = SpanId(0);

    /// FNV-1a's byte step over little-endian words, with a domain tag as
    /// the first word so different span families never collide
    /// structurally. The multiplier is 2^48 + 0x1b3, not FNV's 2^40 +
    /// 0x1b3: every recorded flight dump's ids follow from it. The null
    /// value is remapped so a real span is never [`SpanId::NONE`].
    #[inline]
    fn fnv(parts: &[u64]) -> SpanId {
        let word = |h, p: &u64| fnv1a_by(0x1_0000_0000_01b3, h, &p.to_le_bytes());
        let mut h = parts.iter().fold(FNV_OFFSET, word);
        if h == 0 {
            h = 0x5eed;
        }
        SpanId(h)
    }

    /// Span of one TCP segment, derived from its header: both the
    /// sender and the receiver compute the same id from the bytes on
    /// the wire.
    #[inline]
    pub fn segment(src_port: u16, dst_port: u16, seq: u32, flags: u8) -> SpanId {
        SpanId::fnv(&[
            1,
            u64::from(src_port),
            u64::from(dst_port),
            u64::from(seq),
            u64::from(flags),
        ])
    }

    /// Span of one heartbeat emission, derived from the payload header
    /// (sender role, rank, sequence number) — emit and every receive of
    /// the same round share it.
    pub fn heartbeat(role: u8, rank: u8, seqno: u32) -> SpanId {
        SpanId::fnv(&[2, u64::from(role), u64::from(rank), u64::from(seqno)])
    }

    /// Span of one fencing round, derived from `(epoch, target_rank)` —
    /// the request, every ack, and the commit share it.
    pub fn fence(epoch: u64, target_rank: u8) -> SpanId {
        SpanId::fnv(&[3, epoch, u64::from(target_rank)])
    }

    /// Span of one injected fault, derived from its injection index.
    pub fn fault(index: u64) -> SpanId {
        SpanId::fnv(&[4, index])
    }

    /// Span of one failure verdict, derived from the deciding node and
    /// the virtual time of the decision (both deterministic).
    pub fn verdict(node: u64, at_us: u64) -> SpanId {
        SpanId::fnv(&[5, node, at_us])
    }

    /// True for the null span.
    pub fn is_none(self) -> bool {
        self == SpanId::NONE
    }

    /// Parses the 16-hex-digit form produced by `Display`.
    pub fn from_hex(s: &str) -> Option<SpanId> {
        if s.len() != 16 {
            return None;
        }
        u64::from_str_radix(s, 16).ok().map(SpanId)
    }
}

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// What happened, with the numeric arguments the dump schema carries.
/// All variants are `Copy` so recording never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightKind {
    /// A TCP segment left a node.
    SegSend {
        /// Connection tag: [`SegmentHeader::conn_tag`], the two ports
        /// sorted, the same for both directions.
        conn: u32,
        /// Sequence number from the header.
        seq: u32,
        /// Payload length in bytes.
        len: u32,
        /// Header flag bits (the TCP flag-byte encoding).
        flags: u8,
    },
    /// A TCP segment reached node logic.
    SegDeliver {
        /// Connection tag: [`SegmentHeader::conn_tag`].
        conn: u32,
        /// Sequence number from the header.
        seq: u32,
        /// Payload length in bytes.
        len: u32,
        /// Header flag bits.
        flags: u8,
    },
    /// A bare acknowledgement (no payload, no SYN/FIN/RST) was sent or
    /// delivered.
    SegAck {
        /// Connection tag: [`SegmentHeader::conn_tag`].
        conn: u32,
        /// Cumulative ack number.
        ack: u32,
    },
    /// A heartbeat round was emitted on one link.
    HbEmit {
        /// Heartbeat sequence number.
        seqno: u32,
        /// Which link (0 = LAN, 1 = serial, …).
        link: u8,
        /// Wire bytes of this emission.
        bytes: u32,
        /// Connection records carried.
        conns: u32,
    },
    /// A heartbeat was received and processed.
    HbRecv {
        /// Heartbeat sequence number.
        seqno: u32,
        /// Which link it arrived on.
        link: u8,
    },
    /// A fencing round was requested.
    FenceRequest {
        /// Fencing epoch.
        epoch: u64,
        /// Rank being fenced.
        target_rank: u8,
    },
    /// A fencing vote arrived.
    FenceAck {
        /// Fencing epoch.
        epoch: u64,
        /// Rank being fenced.
        target_rank: u8,
        /// Rank of the voter.
        voter_rank: u8,
        /// Whether the vote granted the fence (1) or refused it (0).
        granted: bool,
    },
    /// A fencing round committed.
    FenceCommit {
        /// Fencing epoch.
        epoch: u64,
        /// Rank that was fenced.
        target_rank: u8,
    },
    /// A fault was injected into the world.
    Fault {
        /// Index into [`crate::world::World::faults`].
        index: u32,
    },
    /// A node declared a peer failed.
    Verdict {
        /// Stable numeric code of the failure reason (defined by the
        /// layer that records the verdict).
        reason: u32,
    },
    /// A STONITH power-off was commanded.
    Stonith {
        /// The node being powered off.
        target: u32,
    },
    /// A node took over the service.
    Takeover {
        /// Connections adopted.
        conns: u32,
    },
}

/// `(kind name, field names)` for every [`FlightKind`] variant — the
/// dump schema, used by `obs` for validation and round-tripping.
pub const FLIGHT_KIND_SPECS: &[(&str, &[&str])] = &[
    ("seg_send", &["conn", "seq", "len", "flags"]),
    ("seg_deliver", &["conn", "seq", "len", "flags"]),
    ("seg_ack", &["conn", "ack"]),
    ("hb_emit", &["seqno", "link", "bytes", "conns"]),
    ("hb_recv", &["seqno", "link"]),
    ("fence_request", &["epoch", "target_rank"]),
    (
        "fence_ack",
        &["epoch", "target_rank", "voter_rank", "granted"],
    ),
    ("fence_commit", &["epoch", "target_rank"]),
    ("fault", &["index"]),
    ("verdict", &["reason"]),
    ("stonith", &["target"]),
    ("takeover", &["conns"]),
];

impl FlightKind {
    /// Stable schema name of this variant.
    pub fn name(&self) -> &'static str {
        match self {
            FlightKind::SegSend { .. } => "seg_send",
            FlightKind::SegDeliver { .. } => "seg_deliver",
            FlightKind::SegAck { .. } => "seg_ack",
            FlightKind::HbEmit { .. } => "hb_emit",
            FlightKind::HbRecv { .. } => "hb_recv",
            FlightKind::FenceRequest { .. } => "fence_request",
            FlightKind::FenceAck { .. } => "fence_ack",
            FlightKind::FenceCommit { .. } => "fence_commit",
            FlightKind::Fault { .. } => "fault",
            FlightKind::Verdict { .. } => "verdict",
            FlightKind::Stonith { .. } => "stonith",
            FlightKind::Takeover { .. } => "takeover",
        }
    }

    /// The numeric arguments, in schema order. Cold path only (dump
    /// rendering); the hot path stores the `Copy` variant itself.
    pub fn fields(&self) -> Vec<(&'static str, u64)> {
        match *self {
            FlightKind::SegSend {
                conn,
                seq,
                len,
                flags,
            } => vec![
                ("conn", u64::from(conn)),
                ("seq", u64::from(seq)),
                ("len", u64::from(len)),
                ("flags", u64::from(flags)),
            ],
            FlightKind::SegDeliver {
                conn,
                seq,
                len,
                flags,
            } => vec![
                ("conn", u64::from(conn)),
                ("seq", u64::from(seq)),
                ("len", u64::from(len)),
                ("flags", u64::from(flags)),
            ],
            FlightKind::SegAck { conn, ack } => {
                vec![("conn", u64::from(conn)), ("ack", u64::from(ack))]
            }
            FlightKind::HbEmit {
                seqno,
                link,
                bytes,
                conns,
            } => vec![
                ("seqno", u64::from(seqno)),
                ("link", u64::from(link)),
                ("bytes", u64::from(bytes)),
                ("conns", u64::from(conns)),
            ],
            FlightKind::HbRecv { seqno, link } => {
                vec![("seqno", u64::from(seqno)), ("link", u64::from(link))]
            }
            FlightKind::FenceRequest { epoch, target_rank } => {
                vec![("epoch", epoch), ("target_rank", u64::from(target_rank))]
            }
            FlightKind::FenceAck {
                epoch,
                target_rank,
                voter_rank,
                granted,
            } => vec![
                ("epoch", epoch),
                ("target_rank", u64::from(target_rank)),
                ("voter_rank", u64::from(voter_rank)),
                ("granted", u64::from(granted)),
            ],
            FlightKind::FenceCommit { epoch, target_rank } => {
                vec![("epoch", epoch), ("target_rank", u64::from(target_rank))]
            }
            FlightKind::Fault { index } => vec![("index", u64::from(index))],
            FlightKind::Verdict { reason } => vec![("reason", u64::from(reason))],
            FlightKind::Stonith { target } => vec![("target", u64::from(target))],
            FlightKind::Takeover { conns } => vec![("conns", u64::from(conns))],
        }
    }

    /// Rebuilds a variant from its schema name and a field lookup —
    /// the inverse of [`FlightKind::name`] + [`FlightKind::fields`],
    /// used when parsing a dump back. Returns `None` for an unknown
    /// name or a missing field.
    pub fn from_fields(name: &str, get: &dyn Fn(&str) -> Option<u64>) -> Option<FlightKind> {
        let f = |k: &str| get(k);
        Some(match name {
            "seg_send" => FlightKind::SegSend {
                conn: f("conn")? as u32,
                seq: f("seq")? as u32,
                len: f("len")? as u32,
                flags: f("flags")? as u8,
            },
            "seg_deliver" => FlightKind::SegDeliver {
                conn: f("conn")? as u32,
                seq: f("seq")? as u32,
                len: f("len")? as u32,
                flags: f("flags")? as u8,
            },
            "seg_ack" => FlightKind::SegAck {
                conn: f("conn")? as u32,
                ack: f("ack")? as u32,
            },
            "hb_emit" => FlightKind::HbEmit {
                seqno: f("seqno")? as u32,
                link: f("link")? as u8,
                bytes: f("bytes")? as u32,
                conns: f("conns")? as u32,
            },
            "hb_recv" => FlightKind::HbRecv {
                seqno: f("seqno")? as u32,
                link: f("link")? as u8,
            },
            "fence_request" => FlightKind::FenceRequest {
                epoch: f("epoch")?,
                target_rank: f("target_rank")? as u8,
            },
            "fence_ack" => FlightKind::FenceAck {
                epoch: f("epoch")?,
                target_rank: f("target_rank")? as u8,
                voter_rank: f("voter_rank")? as u8,
                granted: f("granted")? != 0,
            },
            "fence_commit" => FlightKind::FenceCommit {
                epoch: f("epoch")?,
                target_rank: f("target_rank")? as u8,
            },
            "fault" => FlightKind::Fault {
                index: f("index")? as u32,
            },
            "verdict" => FlightKind::Verdict {
                reason: f("reason")? as u32,
            },
            "stonith" => FlightKind::Stonith {
                target: f("target")? as u32,
            },
            "takeover" => FlightKind::Takeover {
                conns: f("conns")? as u32,
            },
            _ => return None,
        })
    }
}

/// One event, as a snapshot renders it. `Copy`; a segment's is rebuilt
/// from its ring entry, any other is stored whole in its host's side
/// FIFO.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Global record sequence number: the total order across all hosts.
    pub seq: u64,
    /// Virtual time of the event.
    pub time: SimTime,
    /// The recording node; `None` for world-level events (faults).
    pub node: Option<NodeId>,
    /// The causal span this event belongs to.
    pub span: SpanId,
    /// The span that caused this one ([`SpanId::NONE`] for roots).
    pub parent: SpanId,
    /// What happened.
    pub kind: FlightKind,
}

// A side-FIFO slot is a push index plus an event: a new `FlightKind`
// field that pushes the event past 64 bytes would grow every host that
// records heartbeats, fences or verdicts silently.
const _: () = assert!(std::mem::size_of::<FlightEvent>() <= 64);

/// The header fields of one TCP segment as a host saw it: what a
/// segment record stores. The event it stands for — kind, connection
/// tag and span — is derived from them when a snapshot is taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Raw sequence number.
    pub seq: u32,
    /// Raw acknowledgment number.
    pub ack: u32,
    /// The raw flag byte (the TCP flag-byte encoding).
    pub flags: u8,
    /// Payload bytes after the header.
    pub len: u32,
}

impl SegmentHeader {
    /// A direction-independent connection tag (the two ports, sorted),
    /// identical for both flows of one connection on every host.
    pub fn conn_tag(&self) -> u32 {
        let lo = self.src_port.min(self.dst_port) as u32;
        let hi = self.src_port.max(self.dst_port) as u32;
        lo | (hi << 16)
    }

    /// True for a bare acknowledgment: no payload and no SYN/FIN/RST.
    pub fn is_pure_ack(&self) -> bool {
        self.len == 0 && self.flags & 0x07 == 0 && self.flags & 0x10 != 0
    }

    /// The span and kind of this segment's record, sent (`outbound`) or
    /// delivered. Both ends of the wire derive the same span from the
    /// header fields, so one host's sends pair with the other's
    /// delivers in a dump.
    fn event(&self, outbound: bool) -> (SpanId, FlightKind) {
        let (conn, seq, len, flags) = (self.conn_tag(), self.seq, self.len, self.flags);
        let kind = if self.is_pure_ack() {
            FlightKind::SegAck {
                conn,
                ack: self.ack,
            }
        } else if outbound {
            FlightKind::SegSend {
                conn,
                seq,
                len,
                flags,
            }
        } else {
            FlightKind::SegDeliver {
                conn,
                seq,
                len,
                flags,
            }
        };
        let span = SpanId::segment(self.src_port, self.dst_port, seq, flags);
        (span, kind)
    }
}

/// What a ring entry holds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Tag {
    /// An event kept whole in the host's side FIFO.
    #[default]
    Other,
    /// A segment the host sent.
    Send,
    /// A segment the host delivered.
    Deliver,
}

/// One ring slot: a segment's header fields (its payload length
/// narrowed to `u16`), record number and time, or a stand-in for an
/// event of another kind.
#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    seq: u64,
    time: SimTime,
    src_port: u16,
    dst_port: u16,
    seg_seq: u32,
    ack: u32,
    len: u16,
    flags: u8,
    tag: Tag,
}

// A full ring is `capacity × 32` bytes per busy host (32 KiB at the
// default 1024).
const _: () = assert!(std::mem::size_of::<Entry>() == 32);

impl Entry {
    /// The segment event this entry stands for, recorded on `node`.
    fn segment_event(&self, node: Option<NodeId>) -> FlightEvent {
        let header = SegmentHeader {
            src_port: self.src_port,
            dst_port: self.dst_port,
            seq: self.seg_seq,
            ack: self.ack,
            flags: self.flags,
            len: u32::from(self.len),
        };
        let (span, kind) = header.event(self.tag == Tag::Send);
        FlightEvent {
            seq: self.seq,
            time: self.time,
            node,
            span,
            parent: SpanId::NONE,
            kind,
        }
    }
}

/// One host's ring: its newest records up to the recorder's bound,
/// oldest first, and a count of those evicted. Push `k` lives in slot
/// `k & (slots.len() - 1)`. `slots` starts empty and doubles as the
/// ring fills, up to the bound rounded up to a power of two; a push at
/// the bound evicts the oldest record first, so a full ring neither
/// allocates nor grows again.
#[derive(Debug, Clone, Default)]
struct HostRing {
    slots: Vec<Entry>,
    /// The next record's push index.
    pushed: u64,
    /// The oldest retained record's push index. Every record below it
    /// was evicted, so it is also the eviction count.
    oldest: u64,
    /// Each retained *other* record's push index and whole event,
    /// oldest first.
    others: VecDeque<(u64, FlightEvent)>,
}

impl HostRing {
    /// Records retained.
    fn len(&self) -> usize {
        (self.pushed - self.oldest) as usize
    }

    /// Stores `entry` as the newest record, evicting the oldest when the
    /// ring holds `bound`. Returns its push index, or `None` if the
    /// bound is 0 (the record is counted as evicted).
    #[inline]
    fn push(&mut self, bound: usize, entry: Entry) -> Option<u64> {
        let k = self.pushed;
        if bound == 0 {
            self.pushed += 1;
            self.oldest = self.pushed;
            return None;
        }
        if self.len() == bound {
            self.evict_oldest();
        } else if self.len() == self.slots.len() {
            self.resize((2 * self.len()).max(4).min(bound.next_power_of_two()));
        }
        let mask = self.slots.len() - 1;
        self.slots[k as usize & mask] = entry;
        self.pushed = k + 1;
        Some(k)
    }

    /// Drops the oldest record. Reads nothing from the slots: the side
    /// FIFO's front push index says whether it was an *other*.
    #[inline]
    fn evict_oldest(&mut self) {
        if self.others.front().is_some_and(|&(k, _)| k == self.oldest) {
            self.others.pop_front();
        }
        self.oldest += 1;
    }

    /// Moves the retained records into `n` slots (a power of two no
    /// smaller than `len`, or 0 for an empty ring).
    #[cold]
    fn resize(&mut self, n: usize) {
        let mut slots = vec![Entry::default(); n];
        for k in self.oldest..self.pushed {
            slots[k as usize & (n - 1)] = self.slots[k as usize & (self.slots.len() - 1)];
        }
        self.slots = slots;
    }

    /// Applies a new bound: evicts the oldest records beyond it and
    /// releases storage beyond it (rounded up to a power of two).
    fn set_bound(&mut self, bound: usize) {
        while self.len() > bound {
            self.evict_oldest();
        }
        let keep = if bound == 0 {
            0
        } else {
            bound.next_power_of_two()
        };
        if self.slots.len() > keep {
            self.resize(keep);
        }
        self.others.shrink_to(bound);
    }

    /// The retained records as events, oldest first; `node` owns the
    /// ring.
    fn events(&self, node: Option<NodeId>) -> impl Iterator<Item = FlightEvent> + '_ {
        let mut others = self.others.iter().peekable();
        (self.oldest..self.pushed).map(move |k| match others.next_if(|&&(i, _)| i == k) {
            Some(&(_, event)) => event,
            None => self.slots[k as usize & (self.slots.len() - 1)].segment_event(node),
        })
    }
}

/// A captured flight-recorder snapshot, ready for a renderer: the
/// causally-linked events plus the host names their `node` ids index
/// (and the tail window that selected them, for the dump header).
///
/// Lives in `simnet` so harnesses can capture without depending on a
/// serializer; the `obs` crate renders it to JSON and Chrome trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlightSnapshot {
    /// The selected events, in global record order.
    pub events: Vec<FlightEvent>,
    /// `hosts[i]` names node `i`.
    pub hosts: Vec<String>,
    /// The tail window the capture used, in milliseconds (`None` when
    /// the full retained history was kept).
    pub window_ms: Option<u64>,
}

/// Per-host flight-recorder rings plus the global sequence counter.
///
/// Ring 0 belongs to the world (fault injections); ring `i + 1` to
/// node `i`. All rings share one capacity so the recorder's memory is
/// at most `O(hosts × capacity)` regardless of run length (and follows
/// what each host actually recorded below that).
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    rings: Vec<HostRing>,
    capacity: usize,
    next_seq: u64,
}

impl Default for FlightRecorder {
    fn default() -> FlightRecorder {
        FlightRecorder::new()
    }
}

impl FlightRecorder {
    /// Creates a recorder with the default per-host capacity and the
    /// world ring only; host rings are added as nodes are created.
    pub fn new() -> FlightRecorder {
        FlightRecorder {
            rings: vec![HostRing::default()],
            capacity: DEFAULT_FLIGHT_CAPACITY,
            next_seq: 0,
        }
    }

    /// Registers one more host ring (called by the world per node).
    pub(crate) fn add_host(&mut self) {
        self.rings.push(HostRing::default());
    }

    /// Sets the per-host ring capacity, applied to every existing ring
    /// (evicting oldest records if tightening) and to future hosts.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
        for r in &mut self.rings {
            r.set_bound(capacity);
        }
    }

    /// The per-host ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The next record's sequence number, taken.
    #[inline]
    fn take_seq(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq - 1
    }

    /// Records one event: a sequence-number bump, a ring entry and the
    /// event itself in the owner's side FIFO (each allocates only while
    /// still growing toward its bound).
    #[inline]
    pub fn record(
        &mut self,
        node: Option<NodeId>,
        time: SimTime,
        span: SpanId,
        parent: SpanId,
        kind: FlightKind,
    ) {
        let idx = match node {
            Some(n) if n.0 + 1 < self.rings.len() => n.0 + 1,
            Some(_) => 0, // defensive: unknown node falls into the world ring
            None => 0,
        };
        let seq = self.take_seq();
        let ring = &mut self.rings[idx];
        let entry = Entry {
            seq,
            time,
            ..Entry::default()
        };
        if let Some(k) = ring.push(self.capacity, entry) {
            let event = FlightEvent {
                seq,
                time,
                node,
                span,
                parent,
                kind,
            };
            ring.others.push_back((k, event));
        }
    }

    /// Records one TCP segment `node` sent (`outbound`) or delivered: a
    /// sequence-number bump and a 32-byte store of its header, with no
    /// span hashed. An unregistered node, or a payload longer than
    /// `u16::MAX`, is recorded through [`FlightRecorder::record`].
    #[inline]
    pub fn record_segment(
        &mut self,
        node: NodeId,
        time: SimTime,
        header: SegmentHeader,
        outbound: bool,
    ) {
        let idx = node.0 + 1;
        let (Ok(len), true) = (u16::try_from(header.len), idx < self.rings.len()) else {
            return self.record_whole_segment(node, time, header, outbound);
        };
        let entry = Entry {
            seq: self.take_seq(),
            time,
            src_port: header.src_port,
            dst_port: header.dst_port,
            seg_seq: header.seq,
            ack: header.ack,
            len,
            flags: header.flags,
            tag: if outbound { Tag::Send } else { Tag::Deliver },
        };
        self.rings[idx].push(self.capacity, entry);
    }

    /// The segment [`FlightRecorder::record_segment`] cannot store as an
    /// entry, recorded as its whole event.
    #[cold]
    #[inline(never)]
    fn record_whole_segment(
        &mut self,
        node: NodeId,
        time: SimTime,
        header: SegmentHeader,
        outbound: bool,
    ) {
        let (span, kind) = header.event(outbound);
        self.record(Some(node), time, span, SpanId::NONE, kind);
    }

    /// Total events recorded (including evicted ones).
    pub fn recorded(&self) -> u64 {
        self.next_seq
    }

    /// Total events evicted across all rings.
    pub fn dropped(&self) -> u64 {
        self.rings.iter().map(|r| r.oldest).sum()
    }

    /// Total events currently retained across all rings.
    pub fn len(&self) -> usize {
        self.rings.iter().map(HostRing::len).sum()
    }

    /// True if no events are retained.
    pub fn is_empty(&self) -> bool {
        self.rings.iter().all(|r| r.len() == 0)
    }

    /// Merges every ring into one record-order sequence, keeping only
    /// events within `window` of the newest event (pass `None` for
    /// everything retained). This is the dump the harness writes when a
    /// run violates an invariant; segment events are rebuilt here.
    pub fn snapshot(&self, window: Option<SimDuration>) -> Vec<FlightEvent> {
        let events = self.rings.iter().enumerate();
        let events = events.flat_map(|(i, r)| r.events(i.checked_sub(1).map(NodeId)));
        merge(events.collect(), window)
    }
}

/// Sorts `events` into record order and keeps those within `window` of
/// the newest.
fn merge(mut events: Vec<FlightEvent>, window: Option<SimDuration>) -> Vec<FlightEvent> {
    events.sort_by_key(|e| e.seq);
    if let Some(w) = window {
        if let Some(&last) = events.last() {
            events.retain(|e| last.time.saturating_since(e.time) <= w);
        }
    }
    events
}

/// The recorder the 32-byte rings replaced — every host's events whole,
/// in a `VecDeque` — kept as the differential test's oracle.
#[cfg(test)]
struct FullRecorder {
    /// Per ring: the retained events and the evicted count.
    rings: Vec<(VecDeque<FlightEvent>, u64)>,
    capacity: usize,
    next_seq: u64,
}

#[cfg(test)]
impl FullRecorder {
    fn new(hosts: usize) -> FullRecorder {
        FullRecorder {
            rings: vec![(VecDeque::new(), 0); hosts + 1],
            capacity: DEFAULT_FLIGHT_CAPACITY,
            next_seq: 0,
        }
    }

    fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
        for (events, dropped) in &mut self.rings {
            while events.len() > capacity {
                events.pop_front();
                *dropped += 1;
            }
        }
    }

    fn record(
        &mut self,
        node: Option<NodeId>,
        time: SimTime,
        span: SpanId,
        parent: SpanId,
        kind: FlightKind,
    ) {
        let idx = match node {
            Some(n) if n.0 + 1 < self.rings.len() => n.0 + 1,
            _ => 0,
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        let (events, dropped) = &mut self.rings[idx];
        events.push_back(FlightEvent {
            seq,
            time,
            node,
            span,
            parent,
            kind,
        });
        if events.len() > self.capacity {
            events.pop_front();
            *dropped += 1;
        }
    }

    fn record_segment(&mut self, node: NodeId, time: SimTime, h: SegmentHeader, outbound: bool) {
        let (span, kind) = h.event(outbound);
        self.record(Some(node), time, span, SpanId::NONE, kind);
    }

    fn snapshot(&self, window: Option<SimDuration>) -> Vec<FlightEvent> {
        let events = self
            .rings
            .iter()
            .flat_map(|(events, _)| events.iter().copied());
        merge(events.collect(), window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn span_ids_are_deterministic_and_domain_separated() {
        let a = SpanId::segment(80, 4000, 17, 0b10000);
        let b = SpanId::segment(80, 4000, 17, 0b10000);
        assert_eq!(a, b);
        assert_ne!(a, SpanId::segment(80, 4000, 18, 0b10000));
        // A heartbeat span never structurally collides with a fault
        // span of the same raw words.
        assert_ne!(SpanId::heartbeat(1, 0, 7), SpanId::fault(7));
        assert!(!a.is_none());
        assert!(SpanId::NONE.is_none());
    }

    #[test]
    fn span_hex_round_trips() {
        let s = SpanId::fence(3, 1);
        assert_eq!(SpanId::from_hex(&s.to_string()), Some(s));
        assert_eq!(s.to_string().len(), 16);
        assert!(SpanId::from_hex("xyz").is_none());
        assert!(SpanId::from_hex("00").is_none());
    }

    #[test]
    fn kind_fields_round_trip_through_the_schema() {
        let kinds = [
            FlightKind::SegSend {
                conn: (80 << 16) | 4000,
                seq: 1234,
                len: 512,
                flags: 0b11000,
            },
            FlightKind::SegDeliver {
                conn: 9,
                seq: 0,
                len: 0,
                flags: 2,
            },
            FlightKind::SegAck { conn: 9, ack: 77 },
            FlightKind::HbEmit {
                seqno: 41,
                link: 0,
                bytes: 34,
                conns: 1,
            },
            FlightKind::HbRecv { seqno: 41, link: 1 },
            FlightKind::FenceRequest {
                epoch: 2,
                target_rank: 0,
            },
            FlightKind::FenceAck {
                epoch: 2,
                target_rank: 0,
                voter_rank: 2,
                granted: true,
            },
            FlightKind::FenceCommit {
                epoch: 2,
                target_rank: 0,
            },
            FlightKind::Fault { index: 0 },
            FlightKind::Verdict { reason: 3 },
            FlightKind::Stonith { target: 1 },
            FlightKind::Takeover { conns: 4 },
        ];
        assert_eq!(kinds.len(), FLIGHT_KIND_SPECS.len());
        for k in kinds {
            let fields = k.fields();
            let spec = FLIGHT_KIND_SPECS
                .iter()
                .find(|(n, _)| *n == k.name())
                .expect("kind in spec table");
            let names: Vec<&str> = fields.iter().map(|&(n, _)| n).collect();
            assert_eq!(&names[..], spec.1, "field order matches spec");
            let get = |name: &str| fields.iter().find(|&&(n, _)| n == name).map(|&(_, v)| v);
            assert_eq!(FlightKind::from_fields(k.name(), &get), Some(k));
        }
        assert_eq!(FlightKind::from_fields("nope", &|_| Some(0)), None);
    }

    #[test]
    fn recorder_routes_by_node_and_snapshots_in_record_order() {
        let mut fr = FlightRecorder::new();
        fr.add_host();
        fr.add_host();
        fr.record(
            None,
            SimTime::from_millis(1),
            SpanId::fault(0),
            SpanId::NONE,
            FlightKind::Fault { index: 0 },
        );
        fr.record(
            Some(NodeId(1)),
            SimTime::from_millis(2),
            SpanId::heartbeat(1, 0, 5),
            SpanId::NONE,
            FlightKind::HbEmit {
                seqno: 5,
                link: 0,
                bytes: 34,
                conns: 1,
            },
        );
        fr.record(
            Some(NodeId(0)),
            SimTime::from_millis(3),
            SpanId::heartbeat(1, 0, 5),
            SpanId::NONE,
            FlightKind::HbRecv { seqno: 5, link: 0 },
        );
        let snap = fr.snapshot(None);
        assert_eq!(snap.len(), 3);
        assert!(snap.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(snap[1].span, snap[2].span, "emit and recv share a span");
        assert_eq!(fr.recorded(), 3);
        assert_eq!(fr.dropped(), 0);
    }

    #[test]
    fn snapshot_window_keeps_only_the_tail() {
        let mut fr = FlightRecorder::new();
        for i in 0..10u64 {
            fr.record(
                None,
                SimTime::from_millis(i * 100),
                SpanId::fault(i),
                SpanId::NONE,
                FlightKind::Fault { index: i as u32 },
            );
        }
        let tail = fr.snapshot(Some(SimDuration::from_millis(250)));
        let times: Vec<u64> = tail.iter().map(|e| e.time.as_millis()).collect();
        assert_eq!(times, vec![700, 800, 900]);
        assert_eq!(fr.snapshot(None).len(), 10);
    }

    #[test]
    fn per_host_rings_wrap_independently() {
        let mut fr = FlightRecorder::new();
        fr.add_host();
        fr.set_capacity(4);
        for i in 0..20u64 {
            fr.record(
                Some(NodeId(0)),
                SimTime::from_millis(i),
                SpanId::fault(i),
                SpanId::NONE,
                FlightKind::Fault { index: i as u32 },
            );
        }
        assert_eq!(fr.len(), 4);
        assert_eq!(fr.dropped(), 16);
        let snap = fr.snapshot(None);
        assert_eq!(snap.first().unwrap().seq, 16, "oldest retained is #16");
    }

    #[test]
    fn a_full_segment_ring_holds_32_kib_and_no_side_storage() {
        let mut fr = FlightRecorder::new();
        fr.add_host();
        let header = SegmentHeader {
            src_port: 80,
            dst_port: 4000,
            seq: 1,
            ack: 2,
            flags: 0x18,
            len: 64,
        };
        for i in 0..3 * DEFAULT_FLIGHT_CAPACITY as u64 {
            fr.record_segment(NodeId(0), SimTime::from_micros(i), header, i % 2 == 0);
        }
        let ring = &fr.rings[1];
        assert_eq!(ring.len(), DEFAULT_FLIGHT_CAPACITY);
        assert_eq!(
            ring.slots.capacity() * std::mem::size_of::<Entry>(),
            32 << 10
        );
        assert_eq!(ring.others.capacity(), 0, "side storage for segments");
    }

    #[test]
    fn empty_bounded_ring_holds_no_storage() {
        let mut fr = FlightRecorder::new();
        fr.add_host();
        fr.set_capacity(4);
        fr.set_capacity(1024);
        assert_eq!(fr.rings[1].slots.capacity(), 0, "set_capacity reserved");
    }

    #[test]
    fn bounded_ring_never_grows_its_buffer() {
        // Past its bound, that is: storage follows the contents up to the
        // bound rounded up to a power of two, and stops there.
        for bound in [8usize, 100, 1024] {
            let mut r = HostRing::default();
            for i in 0..10 * bound {
                r.push(bound, Entry::default());
                let slots = r.slots.capacity();
                assert!(
                    slots <= bound.next_power_of_two(),
                    "bound {bound}: storage for {slots} entries after {i} pushes"
                );
            }
            let full = r.slots.capacity();
            r.push(bound, Entry::default());
            assert_eq!(r.slots.capacity(), full, "push reallocated at capacity");
            assert_eq!(r.len(), bound);
            assert_eq!(r.oldest, 9 * bound as u64 + 1);
        }
    }

    #[test]
    fn lowering_the_bound_releases_the_old_buffer() {
        let mut fr = FlightRecorder::new();
        for i in 0..1024u32 {
            let kind = FlightKind::Fault { index: i };
            fr.record(None, SimTime::ZERO, SpanId::fault(0), SpanId::NONE, kind);
        }
        fr.set_capacity(64);
        let ring = &fr.rings[0];
        assert!(
            ring.slots.capacity() <= 64,
            "kept {}",
            ring.slots.capacity()
        );
        assert!(
            ring.others.capacity() <= 64,
            "kept {}",
            ring.others.capacity()
        );
        assert_eq!(fr.dropped(), 960);
        assert_eq!(fr.len(), 64);
        assert_eq!(fr.snapshot(None)[0].seq, 960);
    }

    /// The bounds the differential test moves between.
    const BOUNDS: [usize; 5] = [0, 1, 3, 64, 1024];

    /// SplitMix64's output step: the differential test's record source.
    fn mix(x: u64) -> u64 {
        let x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// Applies step `(op, count, seed)` to both recorders: op 0 moves the
    /// bound to one of [`BOUNDS`]; any other records `count` events
    /// (most on one host, the rest on hosts 0–2, an unregistered node or
    /// the world), segments and other kinds interleaved, at times
    /// advancing from `now`.
    fn step(
        fr: &mut FlightRecorder,
        oracle: &mut FullRecorder,
        now: &mut u64,
        (op, count, seed): (u8, u16, u64),
    ) {
        if op == 0 {
            let bound = BOUNDS[(seed % 5) as usize];
            fr.set_capacity(bound);
            oracle.set_capacity(bound);
            return;
        }
        let count = if op <= 2 { count } else { count % 4 };
        for i in 0..u64::from(count) {
            let x = mix(seed ^ i);
            let host = if x.is_multiple_of(4) {
                (x >> 2) % 5
            } else {
                seed % 5
            };
            let node = [Some(0), Some(1), Some(2), Some(7), None][host as usize].map(NodeId);
            *now += (x >> 60) % 3;
            let time = SimTime::from_millis(*now);
            match node {
                Some(node) if !(x >> 8).is_multiple_of(3) => {
                    let ports = [80, 4000, 4001];
                    let h = SegmentHeader {
                        src_port: ports[((x >> 10) % 3) as usize],
                        dst_port: ports[((x >> 12) % 3) as usize],
                        seq: (x >> 16) as u32,
                        ack: (x >> 24) as u32,
                        flags: (x >> 48) as u8 & 0x1f,
                        len: [0, 0, 1, 1460, 65535, 65536, 70000][((x >> 56) % 7) as usize],
                    };
                    fr.record_segment(node, time, h, x & 2 != 0);
                    oracle.record_segment(node, time, h, x & 2 != 0);
                }
                _ => {
                    let kind = FlightKind::HbRecv {
                        seqno: x as u32,
                        link: (x >> 32) as u8,
                    };
                    let (span, parent) = (SpanId(x | 1), SpanId(x >> 40));
                    fr.record(node, time, span, parent, kind);
                    oracle.record(node, time, span, parent, kind);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Differential test: the 32-byte rings and the full-event
        /// oracle agree on every snapshot (whole and windowed) and every
        /// count after each step of random interleavings of segment and
        /// other records, across several hosts, an unregistered node,
        /// payloads past `u16::MAX`, and bounds moved up and down.
        #[test]
        fn rings_match_the_full_event_oracle(
            steps in proptest::collection::vec((0u8..8, 0u16..1500, any::<u64>()), 0..40),
            window_ms in 0u64..40,
        ) {
            let mut fr = FlightRecorder::new();
            (0..3).for_each(|_| fr.add_host());
            let mut oracle = FullRecorder::new(3);
            let mut now = 0;
            let window = Some(SimDuration::from_millis(window_ms));
            for s in steps {
                step(&mut fr, &mut oracle, &mut now, s);
                prop_assert_eq!(fr.snapshot(None), oracle.snapshot(None));
                prop_assert_eq!(fr.snapshot(window), oracle.snapshot(window));
                prop_assert_eq!(fr.recorded(), oracle.next_seq);
                prop_assert_eq!(fr.dropped(), oracle.rings.iter().map(|r| r.1).sum::<u64>());
                prop_assert_eq!(fr.len(), oracle.rings.iter().map(|r| r.0.len()).sum::<usize>());
                prop_assert_eq!(fr.is_empty(), oracle.rings.iter().all(|r| r.0.is_empty()));
            }
        }
    }
}
