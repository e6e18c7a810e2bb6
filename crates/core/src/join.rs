//! Re-integration's one record (DESIGN §9): who joins whom, in which
//! session, changed only by these steps, which do no I/O. A rebooted
//! server joins, the active serves it; `server.rs` does the sends, events,
//! snapshot capture and install, and the convergence walk.

use std::collections::BTreeSet;
use std::net::Ipv4Addr;

use simnet::time::SimTime;

use crate::pool::{Members, PoolState};

/// A server's part in a join, if any: the session, and its side.
#[derive(Debug, Default)]
pub(crate) struct Join(Option<(u32, Side)>);

#[derive(Debug)]
enum Side {
    /// Rebooted, joining: the snapshot count of the active's `JoinDone`
    /// (`None` until it arrives), and the keys installed so far.
    Joining(Option<u32>, BTreeSet<u32>),
    /// Active, serving the joiner at this address, handed this rank.
    Serving(Ipv4Addr, u8),
}

impl Join {
    /// The join of a server booting at `now`; the session nonce is the
    /// boot instant, odd so never zero.
    pub(crate) fn boot(now: SimTime) -> Join {
        let session = (now.as_micros() as u32) | 1;
        Join(Some((session, Side::Joining(None, BTreeSet::new()))))
    }

    /// While joining: the session, the announced count, the keys in.
    fn joined(&self) -> Option<(u32, Option<u32>, &BTreeSet<u32>)> {
        match &self.0 {
            Some((session, Side::Joining(expected, keys))) => Some((*session, *expected, keys)),
            _ => None,
        }
    }

    /// True while this server joins (it has no say over anyone's life).
    pub(crate) fn joining(&self) -> bool {
        self.joined().is_some()
    }

    /// True while this active server serves a joiner.
    pub(crate) fn serving(&self) -> bool {
        matches!(self.0, Some((_, Side::Serving(..))))
    }

    /// The one "still awaiting snapshots" test: while joining, the session
    /// to (re-)request until `JoinDone` and all it announced are in.
    pub(crate) fn awaiting(&self) -> Option<u32> {
        let (session, expected, keys) = self.joined()?;
        expected
            .is_none_or(|e| (keys.len() as u32) < e)
            .then_some(session)
    }

    /// True when snapshot `conn` of `session` is this join's and not in.
    pub(crate) fn wants(&self, session: u32, conn: u32) -> bool {
        (self.joined()).is_some_and(|(s, _, keys)| s == session && !keys.contains(&conn))
    }

    /// True when `key` is in: only such a key can hold convergence back.
    pub(crate) fn has_installed(&self, key: u32) -> bool {
        (self.joined()).is_some_and(|(_, _, keys)| keys.contains(&key))
    }

    /// Snapshot `conn` is in, installed or opened by the tap; once.
    pub(crate) fn installed(&mut self, conn: u32) {
        if let Some((_, Side::Joining(_, keys))) = &mut self.0 {
            keys.insert(conn);
        }
    }

    /// `JoinDone` announced `conns` snapshots: true when it is of this
    /// join's `session` (one of another is stale).
    pub(crate) fn announced(&mut self, session: u32, conns: u32) -> bool {
        match &mut self.0 {
            Some((s, Side::Joining(expected, _))) if *s == session => *expected = Some(conns),
            _ => return false,
        }
        true
    }

    /// Active side: `joiner` asks to join in `session`. A new one (a
    /// reboot) gets the next rank (the pool's; 0 in a pair) and a member
    /// entry reset once, lest the old mirror's sticky flags poison
    /// verdicts; a re-sent request keeps its rank. The rank, and whether
    /// the session is new.
    pub(crate) fn serve(
        &mut self,
        joiner: Ipv4Addr,
        session: u32,
        members: &mut Members,
        pool: Option<&mut PoolState>,
        now: SimTime,
    ) -> (u8, bool) {
        match self.0 {
            Some((s, Side::Serving(j, rank))) if (j, s) == (joiner, session) => (rank, false),
            _ => {
                let rank = pool.map_or(0, PoolState::hand_out_rank);
                if let Some(m) = members.get_mut(&joiner) {
                    m.reset_for_rejoin(now);
                }
                self.0 = Some((session, Side::Serving(joiner, rank)));
                (rank, true)
            }
        }
    }

    /// The one completion step, ending the record: the joiner's once no
    /// snapshot is awaited (`by` is `None`; convergence is the caller's
    /// walk), the active's on `JoinComplete` of session `by`.
    pub(crate) fn complete(&mut self, by: Option<u32>) -> Option<u32> {
        let done = match self.0.as_ref()? {
            (_, Side::Joining(..)) => by.is_none() && self.awaiting().is_none(),
            (session, Side::Serving(..)) => by == Some(*session),
        };
        self.0.take_if(|_| done).map(|(session, _)| session)
    }

    /// A verdict on `target`: a join it was being served ends with it.
    pub(crate) fn condemned(&mut self, target: Ipv4Addr) {
        self.0
            .take_if(|(_, side)| matches!(side, Side::Serving(j, _) if *j == target));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StTcpConfig;
    use crate::pool::{member_table, PoolPeer};
    use simnet::node::NodeId;

    const JOINER: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
    const OTHER: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 4);

    /// Rank 1 of the three-member pool (ranks 0 to 2), serving nobody
    /// yet: its join record, round state and member table.
    struct Active(Join, PoolState, Members);

    impl Active {
        fn new() -> Active {
            let peers = [(0, JOINER, 1), (2, OTHER, 3)];
            let peers = peers.map(|(rank, ip, node)| PoolPeer {
                rank,
                ip,
                node: NodeId(node),
            });
            let members = member_table(&peers, &StTcpConfig::default(), SimTime::ZERO, |_| 1);
            Active(Join::default(), PoolState::new(1, &peers), members)
        }

        /// `Join::serve` at 5 s; `pool` false serves it as a pair would.
        fn serve(&mut self, joiner: Ipv4Addr, session: u32, pool: bool) -> (u8, bool) {
            let pool = Some(&mut self.1).filter(|_| pool);
            (self.0).serve(joiner, session, &mut self.2, pool, SimTime::from_secs(5))
        }

        fn fence(&mut self, ip: Ipv4Addr) {
            self.2.get_mut(&ip).unwrap().fenced = true;
        }
    }

    /// A joiner whose `JoinDone` announced two snapshots, and its session.
    fn joining() -> (Join, u32) {
        let mut join = Join::boot(SimTime::from_millis(2_500));
        let session = join.awaiting().unwrap();
        assert!(join.announced(session, 2));
        (join, session)
    }

    #[test]
    fn another_sessions_messages_change_nothing() {
        let (mut join, session) = joining();
        let stale = session + 2;
        assert!(!join.announced(stale, 0) && !join.wants(stale, 7));
        assert_eq!(join.complete(Some(session)), None);
        assert_eq!(join.awaiting(), Some(session));
        assert!(join.announced(session, 0));
        assert_eq!(join.awaiting(), None);
        let mut a = Active::new();
        assert_eq!(a.serve(JOINER, 7, true), (3, true));
        assert_eq!((a.0.complete(Some(9)), a.0.complete(None)), (None, None));
        assert!(a.0.serving());
        assert_eq!(a.0.complete(Some(7)), Some(7));
        assert!(!a.0.serving());
    }

    #[test]
    fn a_resent_snapshot_counts_once_and_rerequests_stop_when_all_are_in() {
        let (mut join, session) = joining();
        assert!(join.wants(session, 7));
        join.installed(7);
        join.installed(7);
        assert!(!join.wants(session, 7) && join.has_installed(7));
        assert_eq!(join.awaiting(), Some(session));
        assert_eq!(join.complete(None), None);
        join.installed(8);
        assert_eq!(join.awaiting(), None);
        assert_eq!(join.complete(None), Some(session));
        assert!(!join.joining() && !join.has_installed(7));
    }

    #[test]
    fn a_joiners_rank_is_handed_out_once_per_session() {
        let mut a = Active::new();
        assert_eq!(a.serve(JOINER, 7, true), (3, true));
        // A re-sent request: the same rank, and no second reset.
        a.fence(JOINER);
        assert_eq!(a.serve(JOINER, 7, true), (3, false));
        assert!(a.2[&JOINER].fenced);
        assert_eq!(a.1.hand_out_rank(), 4);
    }

    #[test]
    fn a_new_join_session_gets_the_next_rank() {
        let mut a = Active::new();
        assert_eq!(a.serve(JOINER, 7, true), (3, true));
        a.fence(JOINER);
        assert_eq!(a.serve(JOINER, 8, true), (4, true));
        assert!(!a.2[&JOINER].fenced);
        assert_eq!(a.serve(OTHER, 8, true), (5, true));
        // The pair hands out no rank, but resets its peer the same way.
        a.fence(JOINER);
        assert_eq!(a.serve(JOINER, 9, false), (0, true));
        assert!(!a.2[&JOINER].fenced);
    }

    #[test]
    fn a_verdict_on_the_joiner_ends_the_join_it_was_served() {
        let mut a = Active::new();
        a.serve(JOINER, 7, false);
        a.0.condemned(OTHER);
        assert!(a.0.serving());
        a.0.condemned(JOINER);
        assert!(!a.0.serving());
        assert_eq!(a.0.complete(Some(7)), None);
    }
}
