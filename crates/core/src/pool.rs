//! N-replica standby pool: membership, rank order, and quorum fencing.
//!
//! The paper's demonstration runs one primary and one backup. This
//! module generalises the pair to a *pool* of one active plus K ≥ 2
//! backups, all tapping the client's traffic through the multicast tap.
//! Every member carries a static **rank** (0 = the initially active
//! server); on an active failure the lowest-rank live backup takes over
//! — but only after a **quorum-checked fence**: a majority of the
//! surviving pool members must confirm the target dead on both heartbeat
//! links before the candidate STONITHs it and proceeds. The pairwise
//! protocol's single-shot STONITH is the degenerate two-member case
//! (quorum of one — the candidate's own vote).
//!
//! Quorum prevents split-brain under asymmetric heartbeat partitions: a
//! backup that merely lost *its own* links to the active can never
//! assemble a majority that includes members who still hear the active,
//! so it can never fence, never STONITH, and never take over.
//!
//! The state here is bookkeeping only — the protocol driving it (fence
//! rounds, votes, commits, takeover, re-integration with rank
//! reassignment) lives in [`crate::server`], wired into the heartbeat
//! and control channels. The member table is both topologies' model of
//! the other servers — the pair keeps its one peer in it too — while
//! [`PoolState`] is only the pool's round state.
//! A member is one record ([`MemberState`]) of everything this server
//! holds about it: link readings, ping report, watchdog latch, mirror and
//! a stream with per-link state in every wire format, judged by one
//! receive rule — the pair's is the one-member case. [`followed`] names
//! the member recovery and Table 1 read: the pair's peer, the pool's active.

use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

use simnet::node::NodeId;
use simnet::time::SimTime;

use crate::config::{Role, StTcpConfig};
use crate::conntable::Column;
use crate::heartbeat::{unwrap_u32_near, ConnHb, HbFrame, HbFrameKind, HbPayload, PingReport};
use crate::linkmon::HbSource;

/// Static description of one *other* member — the pair's one peer or
/// a pool member — as wired by the topology builder into
/// [`crate::server::ServerSetup::peers`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolPeer {
    /// The member's static rank (0 = initially active). Unique per pool.
    pub rank: u8,
    /// The member's private address (heartbeats + control channel).
    pub ip: Ipv4Addr,
    /// The member's node id, for STONITH.
    pub node: NodeId,
}

/// What one member reported for one connection, unwrapped to 64 bits:
/// a cell of that member's mirror ([`MemberState::mirror`]).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PeerConn {
    pub(crate) last_byte_received: u64,
    pub(crate) last_ack_received: u64,
    pub(crate) last_app_byte_written: u64,
    pub(crate) last_app_byte_read: u64,
    pub(crate) fin_or_rst: bool,
    /// Seqno of the frame that last updated this record — per-connection
    /// ordering, since frames can legitimately arrive out of order across
    /// links (a v1 round rides every link; delta rounds shard across
    /// them). 0 means never updated.
    pub(crate) last_update_seq: u32,
}

impl PeerConn {
    /// True when `c` puts a cumulative counter below what this mirror
    /// already accepted — impossible for an honest sender.
    pub(crate) fn regressed_by(&self, c: &ConnHb) -> bool {
        unwrap_u32_near(c.last_byte_received as u32, self.last_byte_received)
            < self.last_byte_received
            || unwrap_u32_near(c.last_app_byte_read as u32, self.last_app_byte_read)
                < self.last_app_byte_read
    }

    /// Folds one heartbeat record into the mirror: counters unwrap to
    /// the 64-bit value nearest the last one, the FIN flag is sticky.
    pub(crate) fn apply(&mut self, c: &ConnHb) {
        self.last_byte_received =
            unwrap_u32_near(c.last_byte_received as u32, self.last_byte_received);
        self.last_ack_received =
            unwrap_u32_near(c.last_ack_received as u32, self.last_ack_received);
        self.last_app_byte_written =
            unwrap_u32_near(c.last_app_byte_written as u32, self.last_app_byte_written);
        self.last_app_byte_read =
            unwrap_u32_near(c.last_app_byte_read as u32, self.last_app_byte_read);
        self.fin_or_rst |= c.fin_generated || c.rst_generated;
    }
}

/// Wrapping seqno comparison: true when `a` is strictly newer than `b`.
pub(crate) fn seq_newer(a: u32, b: u32) -> bool {
    a.wrapping_sub(b) as i32 > 0
}

/// Receive state for one link's batched (v3) heartbeat rounds: which round
/// is open and which part must arrive next. Parts of one round share a
/// seqno and must arrive in order on their link (serial links and the
/// simulated LAN both preserve per-link order); the link's cumulative ack
/// advances only when the final part lands, so a lost part means no ack
/// and the records ride again next round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct RxBatch {
    pub(crate) seqno: u32,
    pub(crate) parts: u16,
    pub(crate) next: u16,
}

/// One heartbeat link's stream state with one member, both directions:
/// link 0 is the member's address, link `1 + k` its `k`-th cable. Kept
/// in every wire format; only a delta (v2) member acks.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LinkState {
    /// The member's cumulative ack of *my* frames on this link.
    pub(crate) acked: u32,
    /// Highest seqno applied from the member on this link — echoed back
    /// as its ack, and the link's staleness filter.
    pub(crate) applied: u32,
    /// The batched (v3) round open on this link.
    pub(crate) batch: RxBatch,
}

/// Everything this server tracks about one other member: the pair's
/// one peer, or one pool member.
#[derive(Debug)]
pub(crate) struct MemberState {
    /// The member's current rank. Static until the member is fenced and
    /// rejoins, at which point its heartbeats announce the fresh rank the
    /// active assigned it. (The pair's never changes, so
    /// [`MemberState::admit`] takes every frame.)
    pub(crate) rank: u8,
    /// The member's node id, for STONITH.
    pub(crate) node: NodeId,
    /// Link liveness, heartbeat-stream state and the resurrection rule
    /// for this member: a `defunct` member is condemnable although heard,
    /// so the takeover is not deadlocked by the resurrection.
    pub(crate) hb: HbSource,
    /// The member has been fenced (quorum-confirmed dead + STONITHed).
    /// Everything it says under its old rank is ignored until it rejoins
    /// under a fresh one. (The pair never fences.)
    pub(crate) fenced: bool,
    /// The member's per-connection positions from its heartbeats, by
    /// the key's slot in the connection table.
    pub(crate) mirror: Column<PeerConn>,
    /// The stream with this member, one entry per link to it
    /// ([`MemberState::wire`]) whatever the wire format.
    pub(crate) links: Vec<LinkState>,
    /// My epoch the member's acks refer to; it is owed full-state frames
    /// until this matches my boot epoch.
    pub(crate) ack_epoch: u32,
    /// The member's epoch its links' `applied` seqnos refer to (0 = none
    /// seen yet, or v1).
    pub(crate) rx_epoch: u32,
    /// An applied record reported the member's watchdog suspects its own
    /// application (sticky: Table 1's self-report, with no mirror scan).
    pub(crate) app_suspected: bool,
}

impl MemberState {
    /// Sizes the stream for `cables` cables to the member: its address and
    /// every cable, the usual one counted from the start.
    pub(crate) fn wire(&mut self, cables: usize) {
        self.links.resize(1 + cables.max(1), LinkState::default());
    }

    /// The link (`1 + k`: its `k`-th cable) connection `key`'s records
    /// are sharded to toward this member: `key` modulo the cables to it.
    pub(crate) fn shard_link(&self, key: u32) -> usize {
        1 + key as usize % self.links.len().saturating_sub(1).max(1)
    }

    /// True when the member's acknowledged state covers a record for
    /// `key` changed at `changed_at`, in its view of my incarnation
    /// `epoch`: its IP link's cumulative ack (IP frames carry every
    /// in-flight record) or its shard cable's has reached it.
    pub(crate) fn covers(&self, epoch: u32, key: u32, changed_at: u32) -> bool {
        if self.ack_epoch != epoch {
            return false;
        }
        let acked = |link: usize| self.links.get(link).map_or(0, |l| l.acked);
        let (ip_ack, shard_ack) = (acked(0), acked(self.shard_link(key)));
        !seq_newer(changed_at, ip_ack) || !seq_newer(changed_at, shard_ack)
    }

    /// Forgets the delta stream both ways (a new incarnation of the
    /// member, or a new join session): its acks are void, and its next
    /// frame opens the receive side afresh.
    pub(crate) fn forget_stream(&mut self) {
        self.links.fill(LinkState::default());
        self.ack_epoch = 0;
        self.rx_epoch = 0;
    }

    /// Splits one link's heartbeat round to this member into wire frames
    /// that ack its stream. With `batch == 0` (or a round that fits), the
    /// whole record list rides a single frame — bit-for-bit the
    /// single-frame v2 encoding. Otherwise the records are chunked into
    /// `⌈n/chunk⌉` parts sharing one seqno (the v3 batch envelope); the
    /// ping report rides part 0 only, the ack vector repeats on every part
    /// so loss of any one part cannot strand acks. Chunk size is clamped
    /// so no part overflows the u16 `conn_count` field — a round beyond
    /// 65 535 records splits even when batching is "off".
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn link_frames(
        &self,
        kind: HbFrameKind,
        epoch: u32,
        link: u8,
        seq: u32,
        role: Role,
        rank: u8,
        ping: Option<PingReport>,
        conns: &[ConnHb],
        batch: usize,
    ) -> Vec<HbFrame> {
        let cap = u16::MAX as usize;
        let mut chunk = if batch == 0 { cap } else { batch.min(cap) };
        chunk = chunk.max(conns.len().div_ceil(cap)).max(1);
        let parts = conns.len().div_ceil(chunk).max(1);
        (0..parts)
            .map(|part| HbFrame {
                kind,
                epoch,
                link,
                ack_epoch: self.rx_epoch,
                acks: self.links.iter().map(|l| l.applied).collect(),
                part: part as u16,
                parts: parts as u16,
                hb: HbPayload {
                    seqno: seq,
                    role,
                    rank,
                    conns: conns.chunks(chunk).nth(part).unwrap_or_default().to_vec(),
                    ping: if part == 0 { ping } else { None },
                },
            })
            .collect()
    }

    /// True while at least one heartbeat link from this member is fresh.
    pub(crate) fn alive(&self, now: SimTime) -> bool {
        self.hb.ip_mon.is_alive(now) || self.hb.serial_mon.is_alive(now)
    }

    /// True when this member may be the target of a fence round: both
    /// links silent, or the serving incarnation provably gone behind a
    /// still-heartbeating reboot (`defunct`). A *vote* goes by this.
    pub(crate) fn condemnable(&self, now: SimTime) -> bool {
        !self.alive(now) || self.hb.defunct
    }

    /// [`MemberState::condemnable`] with each link's jitter guard
    /// served on top of its timeout — what *opens* a fence round, at the
    /// instant the liveness timer fires for it.
    pub(crate) fn overdue(&self, now: SimTime) -> bool {
        (self.hb.ip_mon.is_silent(now) && self.hb.serial_mon.is_silent(now)) || self.hb.defunct
    }

    /// Forgets what the member's previous incarnation said — stream,
    /// mirror, sticky flags; the link monitors are the caller's call.
    pub(crate) fn forget_incarnation(&mut self, now: SimTime) {
        self.hb.forget_incarnation(now);
        self.forget_stream();
        self.mirror.clear();
        self.app_suspected = false;
    }

    /// Resets the entry for a fresh incarnation of the member (fenced
    /// node rejoining, or a new join session).
    pub(crate) fn reset_for_rejoin(&mut self, now: SimTime) {
        self.hb.ip_mon = self.hb.ip_mon.restarted(now);
        self.hb.serial_mon = self.hb.serial_mon.restarted(now);
        self.fenced = false;
        self.forget_incarnation(now);
    }

    /// The pool's rank-incarnation rule, on a heartbeat announcing
    /// `rank`: false for the fenced incarnation, nothing of which counts
    /// until it rejoins under a fresh rank. Ranks change only at rejoin,
    /// so any other change is a new incarnation — welcomed back as a
    /// backup even without a fence (it rebooted faster than anyone could
    /// condemn it).
    pub(crate) fn admit(&mut self, rank: u8, now: SimTime) -> bool {
        if self.fenced && rank == self.rank {
            return false;
        }
        if self.fenced || rank != self.rank {
            self.reset_for_rejoin(now);
        }
        self.rank = rank;
        true
    }
}

/// Every other member by private address — the pair's one peer, or the
/// rest of the pool — iterated in address order. Boxed: a B-tree node
/// holds eleven entries, and eleven inline members make a 2 KB node
/// whose allocation cost each server's construction ~90 ns (a third).
pub(crate) type Members = BTreeMap<Ipv4Addr, Box<MemberState>>;

/// The member table at boot: every member presumed alive (grace period
/// from fresh monitors anchored at `now`), each with the stream links
/// its `cables(ip)` cables call for.
pub(crate) fn member_table(
    peers: &[PoolPeer],
    cfg: &StTcpConfig,
    now: SimTime,
    cables: impl Fn(Ipv4Addr) -> usize,
) -> Members {
    let mut members = Members::new();
    for p in peers {
        let mut member = MemberState {
            rank: p.rank,
            node: p.node,
            hb: HbSource::new(cfg, now),
            fenced: false,
            mirror: Column::default(),
            links: Vec::new(),
            ack_epoch: 0,
            rx_epoch: 0,
            app_suspected: false,
        };
        member.wire(cables(p.ip));
        members.insert(p.ip, Box::new(member));
    }
    members
}

/// The member whose positions this server follows — where recovery,
/// join convergence, the takeover gap check and Table 1's rows read: the
/// pair's one peer, or the pool member at `active_rank`, fenced or not
/// (the gap check reads a dead active's last word). None once this
/// server is the active.
pub(crate) fn followed<'a>(
    pool: Option<&PoolState>,
    members: &'a Members,
) -> Option<(Ipv4Addr, &'a MemberState)> {
    let mut members = members.iter().map(|(&ip, m)| (ip, &**m));
    match pool {
        None => members.next(),
        Some(p) if p.active_rank == p.my_rank => None,
        Some(p) => members.find(|(_, m)| m.rank == p.active_rank),
    }
}

/// Members not yet fenced with at least one fresh heartbeat link.
pub(crate) fn live_non_fenced(members: &Members, now: SimTime) -> usize {
    members
        .values()
        .filter(|m| !m.fenced && m.alive(now))
        .count()
}

/// Votes needed to fence `target_rank`: a majority of the current
/// membership (me plus every non-fenced member other than the target).
/// In the degenerate two-member pool this is 1 — the initiator's own
/// vote, i.e. classic single-shot STONITH.
pub(crate) fn quorum_needed(members: &Members, target_rank: u8) -> usize {
    let electorate = 1 + members
        .values()
        .filter(|m| !m.fenced && m.rank != target_rank)
        .count();
    electorate / 2 + 1
}

/// The takeover candidate rule, for a candidate and for its voters
/// alike: true when a better-ranked live member than `rank` — unfenced,
/// not defunct, not the dead active `active_rank` itself — could take
/// over instead.
pub(crate) fn outranked(members: &Members, now: SimTime, active_rank: u8, rank: u8) -> bool {
    members.values().any(|m| {
        !m.fenced && !m.hb.defunct && m.rank != active_rank && m.alive(now) && m.rank < rank
    })
}

/// One in-flight fence round this server is initiating.
#[derive(Debug)]
pub(crate) struct FenceRound {
    /// Round number, monotone per initiator.
    pub(crate) epoch: u32,
    /// The member being fenced.
    pub(crate) target: Ipv4Addr,
    /// Its rank at round start.
    pub(crate) target_rank: u8,
    /// Ranks that granted the fence (always includes the initiator's).
    pub(crate) votes: BTreeSet<u8>,
}

impl FenceRound {
    /// The one rule that ends a round: it stands while its target is
    /// unfenced and [`MemberState::condemnable`]. A target that revived,
    /// rejoined or was fenced by another member's round ends it; a
    /// defunct restart still heartbeating does not — its freshness is
    /// the new incarnation speaking, not the condemned one surviving.
    pub(crate) fn stands(&self, members: &Members, now: SimTime) -> bool {
        (members.get(&self.target)).is_some_and(|m| !m.fenced && m.condemnable(now))
    }
}

/// The pool's round state carried by [`crate::server::StTcpServer`]
/// (`None` in pair mode); the members themselves are the one table
/// both topologies keep.
#[derive(Debug)]
pub(crate) struct PoolState {
    /// This server's current rank (reassigned on rejoin via `JoinDone`).
    pub(crate) my_rank: u8,
    /// The rank of the member currently believed active (0 at start;
    /// updated from `Primary`-role heartbeats and at own takeover).
    pub(crate) active_rank: u8,
    /// The fence round this server is currently initiating, if any.
    pub(crate) fence: Option<FenceRound>,
    /// Fence-round counter (monotone per boot).
    pub(crate) epoch: u32,
    /// The next rank the active hands to a rejoining member. Rejoiners
    /// always rank behind every original member, so a rebooted ex-active
    /// can never be the preferred takeover candidate.
    pub(crate) next_rank: u8,
    /// The most recent join session this (active) server served:
    /// `(joiner ip, session nonce, rank assigned)`. Makes the rank
    /// assignment idempotent across re-sent `JoinRequest`s.
    pub(crate) last_session_served: Option<(Ipv4Addr, u32, u8)>,
}

impl PoolState {
    /// The round state at boot: rank 0 active, no round open.
    pub(crate) fn new(my_rank: u8, peers: &[PoolPeer]) -> PoolState {
        let top = peers.iter().map(|p| p.rank).fold(my_rank, u8::max);
        PoolState {
            my_rank,
            active_rank: 0,
            fence: None,
            epoch: 0,
            next_rank: top.wrapping_add(1),
            last_session_served: None,
        }
    }

    /// The member a server in `role` should open a fence round against
    /// at `now`, if any: an unfenced member whose silence is overdue —
    /// and this server the one entitled to condemn it.
    pub(crate) fn fence_target(
        &self,
        members: &Members,
        now: SimTime,
        role: Role,
    ) -> Option<(Ipv4Addr, u8)> {
        let overdue = members
            .iter()
            .filter(|(_, m)| !m.fenced && m.overdue(now))
            .map(|(&ip, m)| (ip, m.rank));
        // The dead active is served first: while it is unfenced nobody
        // is eligible to condemn a dead backup, and the takeover it
        // unblocks restores service.
        let (ip, rank) = overdue
            .clone()
            .find(|&(_, r)| r == self.active_rank)
            .or_else(|| overdue.min_by_key(|&(_, r)| r))?;
        let eligible = if rank == self.active_rank {
            // Rank order: only the best-ranked live backup campaigns to
            // fence the active (and take over).
            role == Role::Backup && !outranked(members, now, rank, self.my_rank)
        } else {
            // The active fences dead backups.
            role == Role::Primary
        };
        eligible.then_some((ip, rank))
    }

    /// The vote rule: grant member `candidate`'s round against
    /// `target_rank` only on my own evidence (the target condemnable, and
    /// not me), to an unfenced, not defunct candidate, and for a takeover
    /// never past a better-ranked live candidate, me included.
    pub(crate) fn grants(
        &self,
        members: &Members,
        now: SimTime,
        candidate: Ipv4Addr,
        target_rank: u8,
        candidate_rank: u8,
    ) -> bool {
        let candidate_ok = (members.get(&candidate))
            .is_some_and(|m| !m.fenced && !m.hb.defunct && m.rank == candidate_rank);
        let target_dead =
            (members.values()).any(|m| !m.fenced && m.rank == target_rank && m.condemnable(now));
        let passed_over = target_rank == self.active_rank
            && (self.my_rank < candidate_rank
                || outranked(members, now, target_rank, candidate_rank));
        candidate_ok && target_dead && target_rank != self.my_rank && !passed_over
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::time::SimDuration;

    fn peers3() -> Vec<PoolPeer> {
        vec![
            PoolPeer {
                rank: 0,
                ip: Ipv4Addr::new(10, 0, 0, 2),
                node: NodeId(1),
            },
            PoolPeer {
                rank: 2,
                ip: Ipv4Addr::new(10, 0, 0, 4),
                node: NodeId(3),
            },
        ]
    }

    /// Rank 1's view of the three-member pool, booted at `now`: its
    /// round state and its member table.
    fn pool3(now: SimTime) -> (PoolState, Members) {
        let peers = peers3();
        let members = member_table(&peers, &StTcpConfig::default(), now, |_| 1);
        (PoolState::new(1, &peers), members)
    }

    #[test]
    fn next_rank_is_one_past_the_pool_maximum() {
        let (p, _) = pool3(SimTime::ZERO);
        assert_eq!(p.next_rank, 3);
        assert_eq!(p.active_rank, 0);
        assert_eq!(p.my_rank, 1);
    }

    #[test]
    fn quorum_is_majority_of_non_fenced_membership() {
        let (_, mut members) = pool3(SimTime::ZERO);
        // 3-member pool, target is the active: electorate = me + rank2.
        assert_eq!(quorum_needed(&members, 0), 2);
        // Fence rank 2 out of the membership: degenerate pair left, and
        // fencing the active needs only my own vote (STONITH semantics).
        let rank2 = members.get_mut(&Ipv4Addr::new(10, 0, 0, 4)).unwrap();
        rank2.fenced = true;
        assert_eq!(quorum_needed(&members, 0), 1);
    }

    #[test]
    fn members_start_alive_via_grace_anchor() {
        let t0 = SimTime::from_millis(1_000);
        let (_, members) = pool3(t0);
        let live = |ms| live_non_fenced(&members, t0 + SimDuration::from_millis(ms));
        assert_eq!((live(0), live(599), live(600)), (2, 2, 0));
    }

    #[test]
    fn followed_is_the_pools_active_even_fenced_or_the_pairs_peer() {
        let (mut p, mut members) = pool3(SimTime::ZERO);
        let ip = |p: &PoolState, members: &Members| followed(Some(p), members).map(|(ip, _)| ip);
        assert_eq!(ip(&p, &members), Some(Ipv4Addr::new(10, 0, 0, 2)));
        // A fenced active is still followed: the gap check reads it.
        members.get_mut(&Ipv4Addr::new(10, 0, 0, 2)).unwrap().fenced = true;
        assert_eq!(ip(&p, &members), Some(Ipv4Addr::new(10, 0, 0, 2)));
        p.active_rank = 2;
        assert_eq!(ip(&p, &members), Some(Ipv4Addr::new(10, 0, 0, 4)));
        // This server took over: nobody is followed.
        p.active_rank = p.my_rank;
        assert_eq!(ip(&p, &members), None);
        // The pair follows its one peer, whatever its role or rank.
        let pair = member_table(
            &peers3()[1..],
            &StTcpConfig::default(),
            SimTime::ZERO,
            |_| 1,
        );
        assert_eq!(
            followed(None, &pair).map(|(ip, _)| ip),
            Some(Ipv4Addr::new(10, 0, 0, 4))
        );
    }

    #[test]
    fn rejoin_reset_clears_everything_but_identity() {
        let (_, mut members) = pool3(SimTime::ZERO);
        let m = members.get_mut(&Ipv4Addr::new(10, 0, 0, 2)).unwrap();
        m.fenced = true;
        (m.hb.role, m.hb.defunct) = (Role::Primary, true);
        m.hb.last_seqno = Some(17);
        m.hb.byzantine_reported = true;
        let s = crate::conntable::ConnTable::default().entry(1);
        m.mirror.entry(s).last_byte_received = 1;
        let t = SimTime::from_millis(5_000);
        m.reset_for_rejoin(t);
        assert!(!m.fenced);
        assert!(!m.hb.defunct);
        assert_eq!(m.hb.role, Role::Backup);
        assert_eq!(m.hb.last_seqno, None);
        assert!(!m.hb.byzantine_reported);
        assert!(m.mirror.iter_mut().next().is_none());
        assert_eq!(m.node, NodeId(1));
        assert!(m.alive(t));
    }

    /// A pure model of the pool's membership rounds — no `World`, no
    /// wire: `n` members heartbeat every period, fail on a schedule, and
    /// run rounds through the server's own rules
    /// ([`PoolState::fence_target`], [`PoolState::grants`],
    /// [`quorum_needed`], [`FenceRound::stands`]), every request, vote
    /// and commit delivered within its check tick; a commit STONITHs its
    /// target. A fault is a crash; the active's reboot: back within
    /// the liveness timeout as a backup with a fresh view and a restarted
    /// seqno, its frames judged by the receive rule's own steps
    /// ([`MemberState::admit`], [`HbSource::note_demotion`],
    /// [`HbSource::advance`] on a newer seqno, [`HbSource::credit`]), so
    /// the others find it defunct; or a cut: the member runs on, cut off
    /// from every other on IP and on every cable, so no frame, vote or
    /// commit crosses (STONITH, on the power controller, does). It
    /// enumerates every order of every set of faults on a grid of gaps,
    /// and checks safety on every schedule and liveness — every round
    /// ends once the faults stop — against a pinned set of
    /// counterexamples (ROADMAP item 10, whose fix updates the set).
    mod rounds {
        use super::*;
        use crate::events::HbLink;
        use crate::metrics::ServerMetrics;

        /// The first fault is at 1 s, each next one this many ms later.
        const GAPS_MS: [u64; 9] = [0, 200, 400, 600, 800, 1_000, 1_200, 1_400, 1_600];

        /// A rebooted member is back this long after going down: inside
        /// the 600 ms liveness timeout.
        const RESTART: SimDuration = SimDuration::from_millis(300);

        fn ip(rank: u8) -> Ipv4Addr {
            Ipv4Addr::new(10, 0, 0, 2 + rank)
        }

        fn role(serving: bool) -> Role {
            [Role::Backup, Role::Primary][serving as usize]
        }

        /// One member of the model, at index `rank`.
        struct Member {
            rank: u8,
            alive: bool,
            serving: bool,
            /// Its last heartbeat seqno; a reboot restarts it.
            seq: u32,
            /// Cut off from every other member.
            cut: bool,
            p: PoolState,
            view: Members,
        }

        impl Member {
            /// Rank `me` of an `n`-member pool, booted at `now` as a backup.
            fn boot(n: u8, me: u8, now: SimTime) -> Member {
                let peer = |rank| PoolPeer {
                    rank,
                    ip: ip(rank),
                    node: NodeId(rank as usize),
                };
                let others: Vec<PoolPeer> = (0..n).filter(|&r| r != me).map(peer).collect();
                Member {
                    rank: me,
                    alive: true,
                    serving: false,
                    seq: 0,
                    cut: false,
                    p: PoolState::new(me, &others),
                    view: member_table(&others, &StTcpConfig::default(), now, |_| 1),
                }
            }
        }

        /// What the first fault does; every later one is a crash.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        enum First {
            Crash,
            /// The active (rank 0) restarts [`RESTART`] after going down.
            Reboot,
            /// The member is cut off for good.
            Cut,
        }

        /// Members failing in `order`, the first at 1 s as `first` says,
        /// each next one a gap later.
        #[derive(Debug, Clone, PartialEq, Eq)]
        struct Schedule {
            first: First,
            order: Vec<u8>,
            gaps: Vec<u64>,
        }

        /// A commit: target rank, votes, electorate, and whether it was a
        /// takeover.
        type Commit = (u8, usize, usize, bool);

        /// Member `i`'s check tick: drop a round that no longer stands,
        /// open one if entitled, solicit every other unfenced member, and
        /// on quorum STONITH the target, fence it at every live member and
        /// take over a dead active.
        fn fence_tick(pool: &mut [Member], i: usize, now: SimTime) -> Option<Commit> {
            let Member {
                rank,
                serving,
                p,
                view,
                ..
            } = &mut pool[i];
            if p.fence.as_ref().is_some_and(|f| !f.stands(view, now)) {
                p.fence = None;
            }
            if p.fence.is_none() {
                if let Some((target, target_rank)) = p.fence_target(view, now, role(*serving)) {
                    p.epoch += 1;
                    p.fence = Some(FenceRound {
                        epoch: p.epoch,
                        target,
                        target_rank,
                        votes: BTreeSet::from([*rank]),
                    });
                }
            }
            let me = &pool[i];
            let (rank, cut, f) = (me.rank, me.cut, me.p.fence.as_ref()?);
            let (target, target_rank) = (f.target, f.target_rank);
            let reached = |v: &Member| v.rank == rank || !(v.cut || cut);
            let solicited = |v: &&Member| {
                v.alive && reached(v) && v.rank != rank && !me.view[&ip(v.rank)].fenced
            };
            let voters: Vec<u8> = (pool.iter().filter(solicited))
                .filter(|v| ip(v.rank) != target)
                .filter(|v| v.p.grants(&v.view, now, ip(rank), target_rank, rank))
                .map(|v| v.rank)
                .collect();
            let me = &mut pool[i];
            let f = me.p.fence.as_mut()?;
            f.votes.extend(voters);
            let votes = f.votes.len();
            if !f.stands(&me.view, now) || votes < quorum_needed(&me.view, target_rank) {
                return None;
            }
            me.p.fence = None;
            let others = me.view.values().filter(|m| !m.fenced);
            let electorate = 1 + others.filter(|m| m.rank != target_rank).count();
            let takeover = me.p.active_rank == target_rank;
            if takeover {
                (me.serving, me.p.active_rank) = (true, rank);
            }
            pool[target_rank as usize].alive = false;
            for m in pool.iter_mut().filter(|m| m.alive && reached(m)) {
                m.view.get_mut(&target).expect("a member").fenced = true;
            }
            Some((target_rank, votes, electorate, takeover))
        }

        /// Runs an `n`-member pool through `s` and 3 s beyond its last
        /// fault: its commits, the most members serving at once, and
        /// whether some live member's round still stands at the end.
        fn run(n: u8, s: &Schedule) -> (Vec<Commit>, usize, bool) {
            let cfg = StTcpConfig::default();
            let mut pool: Vec<Member> = (0..n)
                .map(|me| Member::boot(n, me, SimTime::ZERO))
                .collect();
            pool[0].serving = true;
            let mut at = SimTime::from_millis(1_000);
            let mut faults = vec![(s.order[0], at)];
            for (&rank, &gap) in s.order[1..].iter().zip(&s.gaps) {
                at += SimDuration::from_millis(gap);
                faults.push((rank, at));
            }
            let restart = (s.first == First::Reboot).then(|| faults[0].1 + RESTART);
            let end = at + SimDuration::from_secs(3);
            let (mut commits, mut max_serving) = (Vec::new(), 0);
            let mut metrics = ServerMetrics::new();
            let mut now = SimTime::ZERO;
            while now <= end {
                for (k, &(rank, _)) in faults.iter().enumerate().filter(|(_, f)| f.1 == now) {
                    let m = &mut pool[rank as usize];
                    match (k, s.first) {
                        (0, First::Cut) => m.cut = true,
                        _ => m.alive = false,
                    }
                }
                if restart == Some(now) {
                    pool[s.order[0] as usize] = Member::boot(n, s.order[0], now);
                }
                let round = now.as_micros().is_multiple_of(cfg.hb_period.as_micros());
                let heard = |m: &Member| m.alive && !m.cut;
                let frames: Vec<HbPayload> = (pool.iter_mut().filter(|m| heard(m) && round))
                    .map(|m| {
                        m.seq += 1;
                        HbPayload {
                            seqno: m.seq,
                            role: role(m.serving),
                            rank: m.rank,
                            conns: Vec::new(),
                            ping: None,
                        }
                    })
                    .collect();
                for hb in &frames {
                    for to in pool.iter_mut().filter(|m| heard(m) && m.rank != hb.rank) {
                        let m = to.view.get_mut(&ip(hb.rank)).expect("a member");
                        if !m.admit(hb.rank, now) {
                            continue;
                        }
                        m.hb.note_demotion(hb, now);
                        if m.hb.last_seqno.is_none_or(|l| seq_newer(hb.seqno, l)) {
                            m.hb.advance(hb, now);
                        }
                        for link in [HbLink::Ip, HbLink::Serial] {
                            m.hb.credit(link, now, &mut metrics);
                        }
                        if hb.role == Role::Primary {
                            to.p.active_rank = hb.rank;
                        }
                    }
                }
                for i in 0..pool.len() {
                    if pool[i].alive {
                        commits.extend(fence_tick(&mut pool, i, now));
                    }
                }
                max_serving = max_serving.max(pool.iter().filter(|m| m.alive && m.serving).count());
                now += cfg.check_period;
            }
            let stuck = pool.iter().any(|m| m.alive && m.p.fence.is_some());
            (commits, max_serving, stuck)
        }

        /// Every order of every non-empty set of the `n` members, on every
        /// grid of `grid` gaps, as crashes; each also with its first
        /// member cut instead, and each that rank 0 opens also with rank 0
        /// rebooted.
        fn schedules(n: u8, grid: &[u64]) -> Vec<Schedule> {
            let (first, gaps) = (First::Crash, vec![]);
            let lone = |r| Schedule {
                first,
                order: vec![r],
                gaps: gaps.clone(),
            };
            let mut out: Vec<Schedule> = (0..n).map(lone).collect();
            let mut i = 0;
            while let Some(s) = out.get(i).cloned() {
                for r in (0..n).filter(|r| !s.order.contains(r)) {
                    out.extend(grid.iter().map(|&g| Schedule {
                        first,
                        order: [&s.order[..], &[r]].concat(),
                        gaps: [&s.gaps[..], &[g]].concat(),
                    }));
                }
                i += 1;
            }
            let cuts = out.iter().map(|s| (First::Cut, s));
            let reboots = out.iter().filter(|s| s.order[0] == 0);
            let variants: Vec<_> = (cuts.chain(reboots.map(|s| (First::Reboot, s))))
                .map(|(first, s)| Schedule { first, ..s.clone() })
                .collect();
            out.extend(variants);
            out
        }

        /// The schedules of an `n`-member pool on which a live member's
        /// round never ends, asserting safety on every one: one member
        /// serves at a time (a cut active still serves until the commit
        /// that lets its successor take over STONITHs it), each dead
        /// active is taken over once, and every commit had a majority. A
        /// lone fault is fenced on every other vote, rank 0's by rank 1's
        /// takeover.
        fn counterexamples(n: u8, grid: &[u64]) -> Vec<Schedule> {
            let mut stuck_on = Vec::new();
            for s in schedules(n, grid) {
                let (commits, max_serving, stuck) = run(n, &s);
                if let [r] = s.order[..] {
                    let all = n as usize - 1;
                    assert_eq!(commits, [(r, all, all, r == 0)], "{s:?}");
                }
                assert!(max_serving <= 1, "{s:?}: two serving");
                for &(target, votes, electorate, _) in &commits {
                    assert!(2 * votes > electorate, "{s:?}: no quorum");
                    let takeovers = commits.iter().filter(|c| c.3 && c.0 == target);
                    assert!(takeovers.count() <= 1, "{s:?}: two takeovers");
                }
                if stuck {
                    stuck_on.push(s);
                }
            }
            stuck_on
        }

        /// Liveness fails on exactly the schedules where two members fail
        /// 400 ms or less apart — the active among them or not, crashed
        /// or rebooted: the round against the first opens once its last
        /// heartbeat (800 ms) is `hb_timeout` old (1 450 ms; a rebooted
        /// active's first backup frame marks it defunct at 1 400 ms), and
        /// quorum still counts the second, whose vote never comes. Both
        /// backups dying is the case `tests/pool.rs` pins in the
        /// simulator; the active and one backup strand the last backup
        /// the same way. A third death leaves nobody whose round could
        /// end, and a rebooted active alone never opens one. A cut member
        /// counts as the first death, but lives on: with a crash 400 ms or
        /// less behind it nobody can fence it, and its own round stands
        /// after the other two have died.
        #[test]
        fn liveness_counterexamples_are_two_deaths_before_a_commit() {
            let cut_survives = |s: &Schedule| s.first == First::Cut && s.order.len() == 3;
            let expected: Vec<_> = (schedules(3, &GAPS_MS).into_iter())
                .filter(|s| (s.order.len() == 2 || cut_survives(s)) && s.gaps[0] <= 400)
                .collect();
            assert_eq!(counterexamples(3, &GAPS_MS), expected);
        }

        /// Four members: a majority of three outlives any two faults, so
        /// liveness fails only with three — exactly when the third lands
        /// 400 ms or less after the second, before the second commit, so
        /// the survivor's round still needs a dead voter. The exception
        /// is where rank 0 fails first and rank 1, having taken over,
        /// dies 600 ms after it, before its first primary frame: the
        /// survivor still follows the fenced rank 0 and never opens a
        /// round (the pool serves nobody, which this model does not
        /// judge). A cut first fault follows the same rule, and with four
        /// faults the cut member outlives the other three unfenced — its
        /// round standing — when the majority side loses its second voter
        /// before committing against it: the first two crashes land
        /// within 400 ms of the cut, or each within 400 ms of the last
        /// and the first strikes the member that had to act first (rank
        /// 0 against a cut backup, rank 1 against a cut rank 0), whose
        /// silence the next in rank waits out. Gaps past 800 ms change
        /// nothing a commit cannot outrun, so the grid stops there.
        #[test]
        fn four_members_stall_on_a_third_fault_before_the_second_commit() {
            let grid = &GAPS_MS[..5];
            let unannounced = |o: &[u8], g: &[u64]| {
                o[0] == 0 && ((o[1] == 1 && g[0] == 600) || (o[2] == 1 && g[0] + g[1] == 600))
            };
            let cut_survives = |s: &Schedule| match (s.first, &s.order[..], &s.gaps[..]) {
                (First::Cut, [cut, first_crash, _, _], [g0, g1, _]) => {
                    let acts_first = if *cut == 0 { 1 } else { 0 };
                    g0 + g1 <= 400 || (*first_crash == acts_first && *g0 <= 400 && *g1 <= 400)
                }
                _ => false,
            };
            let expected: Vec<_> = (schedules(4, grid).into_iter())
                .filter(|s| {
                    let third_early = s.order.len() == 3 && s.gaps[1] <= 400;
                    third_early && !unannounced(&s.order, &s.gaps) || cut_survives(s)
                })
                .collect();
            assert_eq!(expected.len(), 426 + 348 + 840);
            assert_eq!(counterexamples(4, grid), expected);
        }
    }
}
