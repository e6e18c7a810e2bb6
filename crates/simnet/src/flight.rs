//! The always-on flight recorder: causally-linked spans over the
//! datapath.
//!
//! Every host owns a bounded [`Ring`](crate::ring::Ring) of
//! [`FlightEvent`]s, recorded from inside node dispatch (events are
//! `Copy`; a ring starts empty, grows by doubling to its bound and
//! allocates nothing once it holds it — a host that records twenty
//! events in its life pays for twenty, not for the bound).
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

use crate::hash::{fnv1a_by, FNV_OFFSET};
use crate::node::NodeId;
use crate::ring::Ring;
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
        /// Connection key: `src_port << 16 | dst_port` as seen by the sender.
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
        /// Connection key: `src_port << 16 | dst_port` as on the wire.
        conn: u32,
        /// Sequence number from the header.
        seq: u32,
        /// Payload length in bytes.
        len: u32,
        /// Header flag bits.
        flags: u8,
    },
    /// An acknowledgement was processed for a span's segment.
    SegAck {
        /// Connection key of the acked direction.
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

/// One recorded event. `Copy`, so recording is a struct store into
/// the host's ring — no allocation once the ring holds its bound.
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

// A full ring is `capacity × size_of::<FlightEvent>()` per busy host
// (64 KiB at the default 1024): a new `FlightKind` field that pushes the
// event past 64 bytes would double that silently.
const _: () = assert!(std::mem::size_of::<FlightEvent>() <= 64);

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
    rings: Vec<Ring<FlightEvent>>,
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
            rings: vec![Ring::bounded(DEFAULT_FLIGHT_CAPACITY)],
            capacity: DEFAULT_FLIGHT_CAPACITY,
            next_seq: 0,
        }
    }

    /// Registers one more host ring (called by the world per node).
    pub(crate) fn add_host(&mut self) {
        self.rings.push(Ring::bounded(self.capacity));
    }

    /// Sets the per-host ring capacity, applied to every existing ring
    /// (evicting oldest records if tightening) and to future hosts.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
        for r in &mut self.rings {
            r.set_capacity(capacity);
        }
    }

    /// The per-host ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records one event: a sequence-number bump and a `Copy` store
    /// into the owner's ring (which allocates only while still growing
    /// toward its bound).
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
        let seq = self.next_seq;
        self.next_seq += 1;
        self.rings[idx].push(FlightEvent {
            seq,
            time,
            node,
            span,
            parent,
            kind,
        });
    }

    /// Total events recorded (including evicted ones).
    pub fn recorded(&self) -> u64 {
        self.next_seq
    }

    /// Total events evicted across all rings.
    pub fn dropped(&self) -> u64 {
        self.rings.iter().map(Ring::dropped).sum()
    }

    /// Total events currently retained across all rings.
    pub fn len(&self) -> usize {
        self.rings.iter().map(Ring::len).sum()
    }

    /// True if no events are retained.
    pub fn is_empty(&self) -> bool {
        self.rings.iter().all(Ring::is_empty)
    }

    /// Merges every ring into one record-order sequence, keeping only
    /// events within `window` of the newest event (pass `None` for
    /// everything retained). This is the dump the harness writes when a
    /// run violates an invariant.
    pub fn snapshot(&self, window: Option<SimDuration>) -> Vec<FlightEvent> {
        let mut out: Vec<FlightEvent> = self.rings.iter().flat_map(|r| r.iter().copied()).collect();
        out.sort_by_key(|e| e.seq);
        if let Some(w) = window {
            if let Some(&last) = out.last() {
                out.retain(|e| last.time.saturating_since(e.time) <= w);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
