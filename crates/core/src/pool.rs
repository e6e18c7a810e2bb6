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
//! Each member also carries its own delta-heartbeat stream, so `hb_delta`
//! and `hb_batch` mean the same in both topologies: the pair's stream is
//! the one-member case; and each keeps its own mirror, [`followed`]
//! naming the one this server reads: the pair's peer, the pool's active.

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
    /// The peer's watchdog self-reported its application failed (sticky).
    pub(crate) app_suspected: bool,
    /// Delta (v2) heartbeats only: seqno of the frame that last updated
    /// this record — per-connection ordering, since sharded multi-link
    /// frames can legitimately arrive out of order across links. 0 means
    /// never updated by a v2 frame; the v1 path ignores it.
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
    /// the 64-bit value nearest the last one, the flags are sticky.
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
        self.app_suspected |= c.app_suspected;
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

/// One heartbeat link's delta-protocol (v2) state with one member, both
/// directions: link 0 is the member's address, link `1 + k` its `k`-th
/// cable.
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

/// How many [`LinkState`]s a member with `cables` cables to it keeps:
/// none under v1 (`delta` off), else its address plus every cable —
/// counting the usual one cable from the start, so that wiring it grows
/// nothing.
pub(crate) fn stream_links(delta: bool, cables: usize) -> usize {
    match delta {
        true => 1 + cables.max(1),
        false => 0,
    }
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
    /// The delta stream with this member, one entry per link to it
    /// ([`stream_links`]; empty under v1).
    pub(crate) links: Vec<LinkState>,
    /// My epoch the member's acks refer to; it is owed full-state frames
    /// until this matches my boot epoch.
    pub(crate) ack_epoch: u32,
    /// The member's epoch its links' `applied` seqnos refer to (0 = none
    /// seen yet).
    pub(crate) rx_epoch: u32,
}

impl MemberState {
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

    /// Resets the entry for a fresh incarnation of the member (fenced
    /// node rejoining, or a new join session).
    pub(crate) fn reset_for_rejoin(&mut self, now: SimTime) {
        self.hb.ip_mon = self.hb.ip_mon.restarted(now);
        self.hb.serial_mon = self.hb.serial_mon.restarted(now);
        self.hb.forget_incarnation(now);
        self.fenced = false;
        self.mirror.clear();
        self.forget_stream();
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
/// from fresh monitors anchored at `now`), each with the delta-stream
/// links its `cables(ip)` cables call for.
pub(crate) fn member_table(
    peers: &[PoolPeer],
    cfg: &StTcpConfig,
    now: SimTime,
    cables: impl Fn(Ipv4Addr) -> usize,
) -> Members {
    let mut members = Members::new();
    for p in peers {
        let member = MemberState {
            rank: p.rank,
            node: p.node,
            hb: HbSource::new(cfg, now),
            fenced: false,
            mirror: Column::default(),
            links: vec![LinkState::default(); stream_links(cfg.hb_delta, cables(p.ip))],
            ack_epoch: 0,
            rx_epoch: 0,
        };
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
}
