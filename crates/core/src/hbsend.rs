//! The heartbeat sender ([`Sender`]), one write scope: the boot epoch,
//! the round seqno, the byzantine lie, the touched feed, the round scratch
//! and what each member acknowledged. In the table it writes only the
//! record cache and [`Set::Unacked`]; the server keeps the timer, the
//! sends, the flight records and the bandwidth count.
//!
//! **Dirty until acked.** A round refreshes the cached record of every
//! touched socket and [`Set::Unacked`] key (of every bound key when a
//! member is owed full state or the watchdog's report changed every
//! record), stamping a change with the round's seqno. A member is owed a
//! record until its cumulative ack on its address, whose frames carry
//! every owed record, or on the key's shard cable (`key % n` of its `n`)
//! reaches that seqno: a lost frame re-dirties what it carried, and an
//! acked idle connection costs nothing. Debug builds check the set
//! against [`Sender::scan_unacked`], the walk it replaced.
//!
//! **Epochs.** A member is owed full state until its acks echo this
//! boot's epoch. [`Sender::void`] is the one rule for acks that no longer
//! hold (the member's new incarnation or join session; a takeover, for
//! every member): they go, and every cached record is unacked again.
//!
//! **Formats.** A v1 member (no `hb_delta`) never acks: it gets the whole
//! cache, the round's one [`HbPayload`] copied to every link. A delta
//! link's share is one v2 frame or v3 batch parts ([`split`]).

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use bytes::Bytes;
use simnet::time::SimTime;
use simtcp::socket::SocketId;

use crate::config::{Role, StTcpConfig};
use crate::conntable::{ConnTable, HbCacheEntry, Set, SlotId};
use crate::heartbeat::{ConnHb, HbFrame, HbFrameKind, HbPayload, PingReport};
use crate::pool::{seq_newer, MemberState, Members};

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

/// The link a member with `links` links gets `key`'s records on: cable
/// `key % n` of its `n` (link `1 + k` is its `k`-th cable).
fn shard_link(links: usize, key: u32) -> usize {
    1 + key as usize % links.saturating_sub(1).max(1)
}

/// What one member acknowledged of my frames: my epoch its acks echo,
/// and its cumulative ack per link (missing: 0).
#[derive(Debug, Default)]
struct Stream {
    ack_epoch: u32,
    acked: Vec<u32>,
}

impl Stream {
    /// True when the acks cover a record for `key` changed at
    /// `changed_at` in my incarnation `epoch`, the member having `links`
    /// links: on its address or on the key's shard cable.
    fn covers(&self, epoch: u32, links: usize, key: u32, changed_at: u32) -> bool {
        let acked = |link| self.acked.get(link).copied().unwrap_or(0);
        let covered = |link| !seq_newer(changed_at, acked(link));
        self.ack_epoch == epoch && (covered(0) || covered(shard_link(links, key)))
    }
}

/// A round's header fields, as each of its frames carries them.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Header {
    pub(crate) seq: u32,
    pub(crate) epoch: u32,
    pub(crate) role: Role,
    pub(crate) rank: u8,
    pub(crate) ping: Option<PingReport>,
}

/// What a round reads of the server besides the table and the members:
/// the header fields it owns, whether the watchdog's report changed
/// every record, and a bound slot's current record (`None` once its
/// socket is gone).
pub(crate) struct View<F> {
    pub(crate) role: Role,
    pub(crate) rank: u8,
    pub(crate) ping: Option<PingReport>,
    pub(crate) report: bool,
    pub(crate) record: F,
}

/// One encoded frame, for member `to`'s link `link`, of `conns` records.
pub(crate) struct Frame {
    pub(crate) to: Ipv4Addr,
    pub(crate) link: u8,
    pub(crate) wire: Bytes,
    pub(crate) conns: u32,
}

/// One round: its header, its frames member by member and link by link,
/// and how many connections it visited.
pub(crate) struct Round {
    pub(crate) hdr: Header,
    pub(crate) frames: Vec<Frame>,
    pub(crate) visits: usize,
}

/// The heartbeat sender. See the [module docs](self).
#[derive(Debug, Default)]
pub(crate) struct Sender {
    /// This boot incarnation: acks echoing another are void.
    epoch: u32,
    seq: u32,
    byz: Option<ByzantineHbMode>,
    /// `hb_delta` and `hb_batch`.
    delta: bool,
    batch: usize,
    /// Sockets touched since the last round.
    touched: Vec<SocketId>,
    /// Round scratch, kept for its capacity: the candidate `(key, slot)`s,
    /// the records owed to each member, one member's records per link.
    cands: Vec<(u32, SlotId)>,
    owed: Vec<Vec<ConnHb>>,
    shards: Vec<Vec<ConnHb>>,
    /// Every member's stream, in the member table's order.
    streams: BTreeMap<Ipv4Addr, Stream>,
}

impl Sender {
    /// The sender of a server booting at `now`: its epoch derives from the
    /// instant (replay-stable, distinct across reboots, never 0 — "none
    /// seen yet"), and every member is owed full state.
    pub(crate) fn new(cfg: &StTcpConfig, now: SimTime, members: &Members) -> Sender {
        let n = now.as_micros();
        Sender {
            epoch: ((n ^ (n >> 32)) as u32) | 1,
            delta: cfg.hb_delta,
            batch: cfg.hb_batch,
            streams: members.keys().map(|&ip| (ip, Stream::default())).collect(),
            ..Sender::default()
        }
    }

    /// Arms byzantine corruption of every later round.
    pub(crate) fn lie(&mut self, mode: ByzantineHbMode) {
        self.byz = Some(mode);
    }

    /// Feeds the endpoint's touched sockets to the next round.
    pub(crate) fn touch(&mut self, socks: Vec<SocketId>) {
        self.touched.extend(socks);
    }

    /// Drops the touched feed on a tick that runs no round: the round that
    /// resumes the stream is full state (a join voids the joiner's acks).
    pub(crate) fn skip(&mut self) {
        self.touched.clear();
    }

    /// Takes member `src`'s acks of my frames off one of its frames: only
    /// while they echo this epoch, and a link's ack only advances.
    pub(crate) fn ack(&mut self, src: Ipv4Addr, ack_epoch: u32, acks: &[u32]) {
        let Some(st) = self.streams.get_mut(&src) else {
            return;
        };
        if ack_epoch == self.epoch {
            st.ack_epoch = ack_epoch;
            st.acked.resize(st.acked.len().max(acks.len()), 0);
            for (l, &a) in st.acked.iter_mut().zip(acks) {
                if a != 0 && (*l == 0 || seq_newer(a, *l)) {
                    *l = a;
                }
            }
        }
    }

    /// Voids the acks of `member` (of every member for `None`), and
    /// every cached record is unacknowledged again.
    pub(crate) fn void(&mut self, table: &mut ConnTable, member: Option<Ipv4Addr>) {
        for (&ip, st) in &mut self.streams {
            if member.is_none_or(|m| m == ip) {
                *st = Stream::default();
            }
        }
        let cached: Vec<SlotId> = table.cached().map(|(s, _)| s).collect();
        cached
            .into_iter()
            .for_each(|s| table.insert(Set::Unacked, s));
    }

    /// The whole-cache walk the unacked set replaced, kept as its oracle:
    /// every cached record some unfenced member's acks do not cover, in
    /// key order.
    pub(crate) fn scan_unacked<'a>(
        &'a self,
        table: &'a ConnTable,
        members: &'a Members,
    ) -> impl Iterator<Item = (SlotId, u32)> + 'a {
        let pairs = move || members.values().zip(self.streams.values());
        let owed = move |e: &HbCacheEntry| {
            let covers = |m: &MemberState, st: &Stream| {
                st.covers(self.epoch, m.links.len(), e.rec.key, e.changed_at)
            };
            pairs().any(|(m, st)| !m.fenced && !covers(m, st))
        };
        let cached = table.cached().filter(move |(_, e)| owed(e));
        cached.map(|(s, e)| (s, e.rec.key))
    }

    /// One round: each member gets full state until it has acked this
    /// epoch, then the records its own acks do not cover — all of them on
    /// its address, shard `k` on its `k`-th cable; every v1 member gets
    /// the whole cache, the round's one v1 payload on every link.
    pub(crate) fn round<F>(
        &mut self,
        table: &mut ConnTable,
        view: &View<F>,
        members: &Members,
    ) -> Round
    where
        F: Fn(&ConnTable, SlotId) -> Option<ConnHb>,
    {
        // A frozen byzantine sender re-uses the last seqno forever.
        if self.byz != Some(ByzantineHbMode::Freeze) {
            self.seq = self.seq.wrapping_add(1);
        }
        let (seq, epoch) = (self.seq, self.epoch);
        let regress = self.byz == Some(ByzantineHbMode::Regress);
        let v1 = !self.delta;
        // Owed full state: a v1 member, fenced or not; an unfenced member
        // yet to ack this epoch (a fenced one's rejoin voids its acks);
        // every member, from a byzantine sender, which lies about all.
        let full =
            |m: &MemberState, st: &Stream| regress || v1 || (!m.fenced && st.ack_epoch != epoch);
        let streams = &self.streams;
        let pairs = || members.values().zip(streams.values());
        let any_full = pairs().any(|(m, st)| full(m, st));
        // Refresh the cache of the candidates, in key order, each key once:
        // a touched socket stands for whatever its key resolves to now.
        let mut cands = std::mem::take(&mut self.cands);
        cands.clear();
        if any_full || view.report {
            cands.extend(table.bound().map(|(key, s, _)| (key, s)));
        } else {
            let unacked = table.members(Set::Unacked);
            let touched = self.touched.iter().filter_map(|&sock| table.by_sock(sock));
            let slots = touched.map(|s| table.home(s)).chain(unacked);
            cands.extend(slots.map(|s| (table[s].key(), s)));
            cands.sort_unstable();
            cands.dedup();
        }
        self.touched.clear();
        let mut visits = cands.len();
        for &(_, s) in &cands {
            let rec = (view.record)(table, s);
            if table[s].cache.map(|e| e.rec) != rec {
                table[s].cache = rec.map(|rec| HbCacheEntry {
                    rec,
                    changed_at: seq,
                });
                if rec.is_some() {
                    table.insert(Set::Unacked, s);
                }
            }
        }
        self.cands = cands;
        // What each member is owed, in key order: the whole cache, or what
        // its acks do not cover — all of it in the unacked set, which
        // sheds a key once every unfenced member's acks cover it (acks
        // only advance between voids: it never needs another look). The
        // first v1 member's list stands for every v1 member's.
        let mut owed = std::mem::take(&mut self.owed);
        owed.resize_with(members.len(), Vec::new);
        owed.iter_mut().for_each(Vec::clear);
        let slots: Vec<SlotId> = match any_full {
            true => table.cached().map(|(s, _)| s).collect(),
            false => table.members(Set::Unacked),
        };
        visits += slots.len();
        for s in slots {
            let Some(e) = table[s].cache else {
                table.remove(Set::Unacked, s);
                continue;
            };
            let mut rec = e.rec;
            // Cumulative counters never shrink: the canonical lie.
            if regress {
                rec.last_byte_received = rec.last_byte_received.saturating_sub(100_000);
                rec.last_app_byte_read = rec.last_app_byte_read.saturating_sub(100_000);
            }
            let mut owed_any = false;
            for (i, (recs, (m, st))) in owed.iter_mut().zip(pairs()).enumerate() {
                let owes = full(m, st) || !st.covers(epoch, m.links.len(), rec.key, e.changed_at);
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
            let kept = table.members(Set::Unacked);
            let kept = kept.iter().map(|&s| table[s].key());
            let walk = self.scan_unacked(table, members).map(|(_, key)| key);
            debug_assert!(
                kept.eq(walk),
                "unacked set diverged from the whole-cache walk"
            );
        }
        let (role, rank, ping) = (view.role, view.rank, view.ping);
        let hdr = Header {
            seq,
            epoch,
            role,
            rank,
            ping,
        };
        let mut frames = Vec::new();
        let mut shards = std::mem::take(&mut self.shards);
        let mut v1_wire = None;
        for ((&to, m), (st, recs)) in members.iter().zip(self.streams.values().zip(&mut owed)) {
            let frame = |link: usize, wire, conns| Frame {
                to,
                link: link as u8,
                wire,
                conns,
            };
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
                frames.extend((0..m.links.len()).map(|link| frame(link, wire.clone(), *n)));
                continue;
            }
            let kind = match full(m, st) {
                true => HbFrameKind::Full,
                false => HbFrameKind::Delta,
            };
            shards.resize_with(m.links.len(), Vec::new);
            shards.iter_mut().for_each(Vec::clear);
            for &rec in recs.iter() {
                shards[shard_link(m.links.len(), rec.key)].push(rec);
            }
            for (link, shard) in shards.iter().enumerate() {
                let recs = if link == 0 { &recs[..] } else { shard };
                for f in split(m, kind, &hdr, link as u8, recs, self.batch) {
                    frames.push(frame(link, f.encode(), f.hb.conns.len() as u32));
                }
            }
        }
        (self.owed, self.shards) = (owed, shards);
        Round {
            hdr,
            frames,
            visits,
        }
    }
}

/// Splits one link's share of a round to member `m` into frames that ack
/// its stream: one frame (the v2 encoding) with `batch == 0` or a share
/// that fits, else `⌈n/batch⌉` v3 parts of one seqno, the ping on part 0
/// only and the ack vector on every part. No part exceeds the u16
/// `conn_count`: a share beyond 65 535 records splits even unbatched.
fn split(
    m: &MemberState,
    kind: HbFrameKind,
    hdr: &Header,
    link: u8,
    conns: &[ConnHb],
    batch: usize,
) -> Vec<HbFrame> {
    let cap = u16::MAX as usize;
    let chunk = if batch == 0 { cap } else { batch.min(cap) };
    let chunk = chunk.max(conns.len().div_ceil(cap)).max(1);
    let parts = conns.len().div_ceil(chunk).max(1);
    (0..parts)
        .map(|part| HbFrame {
            kind,
            epoch: hdr.epoch,
            link,
            ack_epoch: m.rx_epoch,
            acks: m.links.iter().map(|l| l.applied).collect(),
            part: part as u16,
            parts: parts as u16,
            hb: HbPayload {
                seqno: hdr.seq,
                role: hdr.role,
                rank: hdr.rank,
                conns: conns.chunks(chunk).nth(part).unwrap_or_default().to_vec(),
                ping: if part == 0 { hdr.ping } else { None },
            },
        })
        .collect()
}

/// Sockets touched since the last round or [`Sender::skip`].
#[cfg(test)]
impl Sender {
    pub(crate) fn touched(&self) -> usize {
        self.touched.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::EchoApp;
    use crate::conntable::ConnCtl;
    use crate::heartbeat::{decode_any, AnyHb};
    use crate::pool::{member_table, PoolPeer};
    use simnet::node::NodeId;

    const PEERS: [Ipv4Addr; 2] = [Ipv4Addr::new(10, 0, 0, 3), Ipv4Addr::new(10, 0, 0, 4)];

    fn members(cables: usize) -> Members {
        let peers = [1, 2].map(|rank| PoolPeer {
            rank,
            ip: PEERS[usize::from(rank) - 1],
            node: NodeId(usize::from(rank)),
        });
        member_table(&peers, &StTcpConfig::default(), SimTime::ZERO, |_| cables)
    }

    fn hdr(ping: Option<PingReport>) -> Header {
        Header {
            seq: 9,
            epoch: 5,
            role: Role::Primary,
            rank: 0,
            ping,
        }
    }

    fn recs(n: u32) -> Vec<ConnHb> {
        (0..n)
            .map(|key| ConnHb {
                key,
                last_byte_received: u64::from(key) * 7,
                ..ConnHb::default()
            })
            .collect()
    }

    /// A member whose stream from it applied seqnos 11, 12, … per link.
    fn acking_member() -> MemberState {
        let mut members = members(2);
        let mut m = *members.remove(&PEERS[0]).unwrap();
        m.rx_epoch = 77;
        for (i, l) in m.links.iter_mut().enumerate() {
            l.applied = 11 + i as u32;
        }
        m
    }

    #[test]
    fn batch_zero_is_one_frame_in_the_single_frame_v2_encoding() {
        let (m, ping) = (acking_member(), Some(PingReport::default()));
        let frames = split(&m, HbFrameKind::Delta, &hdr(ping), 1, &recs(10), 0);
        assert_eq!(frames.len(), 1);
        let v2 = HbFrame {
            kind: HbFrameKind::Delta,
            epoch: 5,
            link: 1,
            ack_epoch: 77,
            part: 0,
            parts: 1,
            acks: vec![11, 12, 13],
            hb: HbPayload {
                seqno: 9,
                role: Role::Primary,
                rank: 0,
                conns: recs(10),
                ping,
            },
        };
        let wire = frames[0].encode();
        assert_eq!((wire[0], &wire[..]), (2, &v2.encode()[..]));
    }

    #[test]
    fn a_batch_splits_into_parts_with_the_ping_on_part_zero_and_the_acks_on_every_part() {
        let (m, ping) = (acking_member(), Some(PingReport::default()));
        let frames = split(&m, HbFrameKind::Full, &hdr(ping), 0, &recs(10), 3);
        let sizes: Vec<usize> = frames.iter().map(|f| f.hb.conns.len()).collect();
        assert_eq!(sizes, [3, 3, 3, 1], "⌈10/3⌉ parts");
        for (i, f) in frames.iter().enumerate() {
            assert_eq!((f.part, f.parts), (i as u16, 4));
            assert_eq!((f.ack_epoch, &f.acks[..]), (77, &[11, 12, 13][..]));
            assert_eq!(f.hb.ping, if i == 0 { ping } else { None });
            assert_eq!(HbFrame::decode(&f.encode()).as_ref(), Ok(f));
        }
        let conns = frames.into_iter().flat_map(|f| f.hb.conns);
        assert!(conns.eq(recs(10)), "the parts carry the records in order");
    }

    #[test]
    fn no_part_overflows_the_u16_record_count() {
        let m = acking_member();
        let frames = split(&m, HbFrameKind::Full, &hdr(None), 0, &recs(65_536), 1);
        assert_eq!(frames.len(), 32_768, "batch 1 clamped to parts of 2");
        assert!(frames
            .iter()
            .all(|f| f.hb.conns.len() == 2 && f.parts == 32_768));
    }

    /// A deterministic xorshift stream.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// A minimal receiver of one sender's frames, written from the wire
    /// rules rather than from the server's intake: it decodes with the
    /// real codec, drops a stale round or an out-of-order batch part per
    /// link, applies the newest record per key, and echoes its highest
    /// completed round per link as the ack.
    #[derive(Default)]
    struct Receiver {
        epoch: u32,
        /// Per link: the highest completed round, and the open batch
        /// `(seqno, parts, next part)`.
        links: Vec<(u32, (u32, u16, u16))>,
        mirror: BTreeMap<u32, (u32, ConnHb)>,
    }

    impl Receiver {
        fn take(&mut self, link: usize, wire: &[u8]) {
            let (hb, epoch, part, parts) = match decode_any(wire).expect("frames decode") {
                AnyHb::V1(hb) => (hb, self.epoch, 0, 1),
                AnyHb::V2(f) => (f.hb, f.epoch, f.part, f.parts),
            };
            if epoch != self.epoch {
                self.epoch = epoch;
                self.links.clear();
                self.mirror.values_mut().for_each(|(seq, _)| *seq = 0);
            }
            if self.links.len() <= link {
                self.links.resize(link + 1, Default::default());
            }
            let (done, open) = &mut self.links[link];
            let seq = hb.seqno;
            if (*done != 0 && !seq_newer(seq, *done)) || (part > 0 && *open != (seq, parts, part)) {
                return;
            }
            for c in hb.conns {
                let cell = self.mirror.entry(c.key).or_insert((0, c));
                if cell.0 == 0 || !seq_newer(cell.0, seq) {
                    *cell = (seq, c);
                }
            }
            *open = (seq, parts, part + 1);
            if part + 1 == parts {
                *done = seq;
            }
        }

        fn acks(&self) -> Vec<u32> {
            self.links.iter().map(|&(done, _)| done).collect()
        }

        fn values(&self) -> BTreeMap<u32, ConnHb> {
            self.mirror.iter().map(|(&k, &(_, c))| (k, c)).collect()
        }
    }

    /// The record of slot `s` while its socket lives in `conns`: the
    /// socket's counters, flagged once the watchdog reported.
    fn record(
        conns: &BTreeMap<SocketId, ConnHb>,
        suspected: bool,
        table: &ConnTable,
        s: SlotId,
    ) -> Option<ConnHb> {
        let rec = conns.get(&table[s].sock()?)?;
        Some(ConnHb {
            key: table[s].key(),
            app_suspected: suspected,
            ..*rec
        })
    }

    /// One op sequence driving the sender and a full-state reference.
    struct Bench {
        cfg: StTcpConfig,
        cables: usize,
        table: ConnTable,
        members: Members,
        sender: Sender,
        /// The endpoint: every live socket's record.
        conns: BTreeMap<SocketId, ConnHb>,
        next_sock: u64,
        suspected: bool,
        report: bool,
        ref_seq: u32,
        /// Per member: the sender's receiver and the reference's.
        rx: Vec<[Receiver; 2]>,
    }

    impl Bench {
        fn new(cables: usize, delta: bool, batch: usize) -> Bench {
            let cfg = StTcpConfig {
                hb_delta: delta,
                hb_batch: batch,
                ..StTcpConfig::default()
            };
            let members = members(cables);
            Bench {
                sender: Sender::new(&cfg, SimTime::from_millis(3), &members),
                cfg,
                cables,
                table: ConnTable::default(),
                members,
                conns: BTreeMap::new(),
                next_sock: 0,
                suspected: false,
                report: false,
                ref_seq: 0,
                rx: PEERS.map(|_| Default::default()).into(),
            }
        }

        /// Binds `key` to a fresh socket whose record is `rec`.
        fn open(&mut self, key: u32, rec: ConnHb) {
            let sock = SocketId(self.next_sock);
            self.next_sock += 1;
            let ctl = ConnCtl::new(key, Box::new(EchoApp::default()), &self.cfg, Role::Primary);
            self.table.bind(key, sock, ctl);
            self.conns.insert(sock, rec);
            self.sender.touch(vec![sock]);
        }

        /// The socket `key` resolves to, while it is live.
        fn live(&self, key: u32) -> Option<SocketId> {
            let sock = self.table[self.table.by_key(key)?].sock()?;
            self.conns.contains_key(&sock).then_some(sock)
        }

        /// Member `i`'s new incarnation: it remembers nothing, and (as
        /// the server does on seeing its new epoch or join session) its
        /// acks are voided.
        fn forget(&mut self, i: usize) {
            self.rx[i] = Default::default();
            self.sender.void(&mut self.table, Some(PEERS[i]));
        }

        fn op(&mut self, rng: &mut Rng) {
            let key = rng.below(24) as u32 * 0x9e37;
            let i = rng.below(PEERS.len());
            match rng.below(20) {
                0..=2 => {
                    let rec = ConnHb {
                        last_byte_received: rng.next() % 1_000,
                        ..ConnHb::default()
                    };
                    self.open(key, rec);
                }
                3..=11 => {
                    if let Some(sock) = self.live(key) {
                        let rec = self.conns.get_mut(&sock).unwrap();
                        rec.last_byte_received += 1 + rng.next() % 3_000;
                        rec.last_app_byte_read += rng.next() % 2;
                        self.sender.touch(vec![sock]);
                    }
                }
                12 => {
                    if let Some(sock) = self.live(key) {
                        self.conns.remove(&sock);
                        self.sender.touch(vec![sock]);
                    }
                }
                13 => {
                    if let Some(sock) = self.live(key) {
                        let rec = self.conns[&sock];
                        self.open(key, rec);
                    }
                }
                14 => self.forget(i),
                15 => self.sender.void(&mut self.table, None),
                16 => {
                    let m = self.members.get_mut(&PEERS[i]).unwrap();
                    if m.fenced {
                        m.reset_for_rejoin(SimTime::ZERO);
                        self.forget(i);
                    }
                }
                17 => self.members.get_mut(&PEERS[i]).unwrap().fenced = true,
                18 if !self.suspected => (self.suspected, self.report) = (true, true),
                _ => {}
            }
        }

        /// Slot `s`'s record, while its socket lives.
        fn record(&self, table: &ConnTable, s: SlotId) -> Option<ConnHb> {
            record(&self.conns, self.suspected, table, s)
        }

        /// One round of both senders. `lossy` draws per member and link
        /// whether all of that link's parts arrive, and whether the
        /// member's ack gets back; returns the records the sender put in
        /// frames to unfenced members.
        fn round(&mut self, rng: &mut Rng, lossy: bool) -> u32 {
            let (conns, suspected) = (&self.conns, self.suspected);
            let view = View {
                role: Role::Primary,
                rank: 0,
                ping: None,
                report: std::mem::take(&mut self.report),
                record: |t: &ConnTable, s| record(conns, suspected, t, s),
            };
            let out = self.sender.round(&mut self.table, &view, &self.members);
            // The reference: every bound record to every member, on its
            // address and — sharded as the wire format shards — on every
            // cable.
            self.ref_seq += 1;
            let all: Vec<ConnHb> = (self.table.bound())
                .filter_map(|(_, s, _)| self.record(&self.table, s))
                .collect();
            let links = 1 + self.cables;
            let mut sent = 0;
            for (i, &ip) in PEERS.iter().enumerate() {
                let fenced = self.members[&ip].fenced;
                for link in 0..links {
                    if lossy && rng.below(4) == 0 {
                        continue;
                    }
                    for f in out
                        .frames
                        .iter()
                        .filter(|f| (f.to, f.link) == (ip, link as u8))
                    {
                        self.rx[i][0].take(link, &f.wire);
                        sent += if fenced { 0 } else { f.conns };
                    }
                    let sharded = |c: &&ConnHb| c.key as usize % self.cables == link - 1;
                    let conns = match link == 0 || !self.cfg.hb_delta {
                        true => all.clone(),
                        false => all.iter().filter(sharded).copied().collect(),
                    };
                    let hb = HbPayload {
                        seqno: self.ref_seq,
                        role: Role::Primary,
                        rank: 0,
                        conns,
                        ping: None,
                    };
                    self.rx[i][1].take(link, &hb.encode());
                }
                if self.cfg.hb_delta && !fenced && !(lossy && rng.below(5) == 0) {
                    let (epoch, acks) = (self.rx[i][0].epoch, self.rx[i][0].acks());
                    self.sender.ack(ip, epoch, &acks);
                }
            }
            sent
        }

        /// Every unfenced member holds the same values from both senders.
        fn assert_mirrors_agree(&self, what: &str) {
            for (i, ip) in PEERS.iter().enumerate() {
                if !self.members[ip].fenced {
                    let [sparse, full] = &self.rx[i];
                    assert_eq!(sparse.values(), full.values(), "{what}: member {ip}");
                }
            }
        }
    }

    /// The sender against a reference that sends every bound record to
    /// every member every round: after every round of one op sequence —
    /// connections opened, touched, closed and rebound, a member's
    /// reboot, a takeover, a fenced member and its join, the watchdog's
    /// report — under per-link loss, each unfenced member's mirror holds
    /// the same values from both. Then, idle and lossless, the sender's
    /// rounds go empty once every record is acked, and the mirrors hold
    /// every open connection's record.
    #[test]
    fn the_sender_keeps_every_mirror_equal_to_a_full_state_reference() {
        for (cables, delta, batch, seed) in
            (0..32).map(|i| (1 + 3 * (i & 1), i & 2 != 0, 2 * (i & 4), i))
        {
            let what = format!("{cables} cables, delta {delta}, batch {batch}, seed {seed}");
            let mut rng = Rng(0x2545_f491_4f6c_dd1d ^ (seed as u64) << 32);
            let mut b = Bench::new(cables, delta, batch);
            for r in 0..60 {
                for _ in 0..rng.below(4) {
                    b.op(&mut rng);
                }
                b.round(&mut rng, true);
                b.assert_mirrors_agree(&format!("{what}, round {r}"));
            }
            // Idle: the last lossless rounds carry nothing once acked.
            let idle: Vec<u32> = (0..3).map(|_| b.round(&mut rng, false)).collect();
            b.assert_mirrors_agree(&format!("{what}, idle"));
            if delta {
                assert_eq!(idle[2], 0, "{what}: an acked idle round carries records");
            }
            let open: BTreeMap<u32, ConnHb> = (b.table.bound())
                .filter_map(|(key, s, _)| Some((key, b.record(&b.table, s)?)))
                .collect();
            for (i, ip) in PEERS.iter().enumerate() {
                if !b.members[ip].fenced {
                    let held = b.rx[i][0].values();
                    assert!(
                        open.iter().all(|(k, c)| held.get(k) == Some(c)),
                        "{what}: {ip} converged"
                    );
                }
            }
        }
    }
}
