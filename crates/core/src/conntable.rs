//! The server's connection table: everything [`crate::server`] knows
//! about one connection, side by side in one [`Slot`].
//!
//! A slot belongs to a 32-bit [`crate::heartbeat::conn_key`]. It holds
//! the local control state ([`ConnCtl`], once a socket is bound), the
//! last record sent ([`HbCacheEntry`]) and a membership byte for the five
//! active sets. What another server reported is not here: each member
//! keeps its own heartbeat mirror in a [`Column`] indexed by the same
//! slots ([`crate::pool::MemberState`]).
//! Lookups:
//!
//! * `SocketId → slot` is a vector index: socket ids are dense from zero
//!   and never reused (stated on `simtcp`'s socket table).
//! * `conn_key → slot` is one hash map ([`simnet::hash::AddrMap`]: the
//!   key is already an FNV fold of a tuple the scenario assigned, so one
//!   multiply spreads it) — the only keyed lookup in the server, at a
//!   cost that does not grow with the connection count, and the one
//!   place a key collision shows: [`ConnTable::bind`] finds the key's
//!   slot already holding another socket.
//! * **Key order is a list, sorted when it has to be.** The
//!   key-ascending walks ([`ConnTable::keyed`], [`ConnTable::bound`],
//!   [`ConnTable::cached`]) read a vector of `(key, slot)` pairs that
//!   [`ConnTable::entry`] appends to; a walk sorts it first if keys
//!   added since the last one left it out of order (one pass over 8-byte
//!   pairs to find out). Keys never leave within a boot, so a
//!   steady stream of full heartbeat rounds sorts nothing, and a delta
//!   round — which visits sets, not the key list — never asks. The
//!   sequence is exactly the ordered map's this replaced (the
//!   differential test below keeps that map as its model).
//!
//! **A displaced socket** (the same tuple re-accepted, or a true 32-bit
//! collision) keeps its `ConnCtl`, its TCP events and its socket-ordered
//! set memberships in a fresh *unkeyed* slot whose `home` names the
//! key's slot; it reads a member's mirror of its key through `home`, but
//! is no longer what the key resolves to, so it leaves heartbeats,
//! recovery and the endpoint's tracked totals.
//!
//! **Active sets.** Membership is a bit in the slot; each set also keeps
//! a list of `(order, slot)` entries, `order` being the socket id or the
//! key. Insert and remove are O(1) and never search; a removed or
//! displaced member leaves a stale list entry that [`ConnTable::members`]
//! — the only way to visit a set — drops while it sorts, so every visit
//! is in ascending `SocketId` (or key) order, exactly the order of the
//! `BTreeSet`s this replaced.
//!
//! Slots are never freed within a boot (a reboot builds a fresh table): like
//! sockets, connections are not reaped, and a slot a member's record
//! made stays as a keyed slot without a socket.
//!
//! **What the four maps this replaced did implicitly, stated.** A member
//! record for a key with no socket yet makes a slot without `ctl`; a
//! later `bind` (an accept, or a joiner installing a snapshot) attaches
//! to it. A record cache entry exists only on a slot that resolves to a
//! socket, so a full round has nothing to prune. A reboot builds a fresh
//! table, which takes every set with it.

use bytes::Bytes;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::ops::{Index, IndexMut};

use simnet::hash::AddrMap;
use simnet::time::SimTime;
use simtcp::socket::SocketId;

use crate::app::Application;
use crate::applag::AppLag;
use crate::config::{Role, StTcpConfig};
use crate::finarb::FinArbiter;
use crate::heartbeat::ConnHb;

/// Per-connection control state of the local socket.
pub(crate) struct ConnCtl {
    pub(crate) key: u32,
    pub(crate) app: Box<dyn Application>,
    pub(crate) applag: AppLag,
    pub(crate) finarb: FinArbiter,
    pub(crate) pending_out: VecDeque<Bytes>,
    pub(crate) last_fetch_at: Option<SimTime>,
    pub(crate) recovering: bool,
    pub(crate) closed: bool,
    /// A local close/abort has already gone through arbitration.
    pub(crate) close_issued: bool,
    /// The first client data byte has been delivered to the application
    /// (milestone bookkeeping — emitted once per connection).
    pub(crate) saw_data: bool,
}

impl ConnCtl {
    /// Control state for a connection that starts (or resumes).
    pub(crate) fn new(
        key: u32,
        app: Box<dyn Application>,
        cfg: &StTcpConfig,
        role: Role,
    ) -> ConnCtl {
        ConnCtl {
            key,
            app,
            applag: AppLag::default(),
            finarb: FinArbiter::new(role, cfg.max_delay_fin),
            pending_out: VecDeque::new(),
            last_fetch_at: None,
            recovering: false,
            closed: false,
            close_issued: false,
            saw_data: false,
        }
    }
}

/// Last-sent heartbeat record for one connection (delta mode): the value
/// the members will converge on, and the seqno of the frame that first
/// carried it. The connection rides every frame until each unfenced
/// member's cumulative ack covers `changed_at`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HbCacheEntry {
    pub(crate) rec: ConnHb,
    pub(crate) changed_at: u32,
}

/// Index of a [`Slot`]; valid for the table's lifetime (one boot).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct SlotId(u32);

/// The five active sets (what each means is stated where the server
/// feeds it). `Lag` and `Unacked` hold keyed slots and are visited in
/// key order; the rest hold socket-bearing slots and are visited in
/// `SocketId` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Set {
    /// Backup: the followed member has received bytes this server has
    /// not, or a fetch cycle is still open.
    Lag,
    /// The cached heartbeat record may not be acknowledged yet.
    Unacked,
    /// Application output is blocked on a full send buffer.
    OutBlocked,
    /// The application wants `on_tick` callbacks.
    Tick,
    /// The per-connection detectors must look at it.
    Check,
}

impl Set {
    pub(crate) const ALL: [Set; 5] = [
        Set::Lag,
        Set::Unacked,
        Set::OutBlocked,
        Set::Tick,
        Set::Check,
    ];

    fn bit(self) -> u8 {
        1 << self as u8
    }

    fn by_key(self) -> bool {
        matches!(self, Set::Lag | Set::Unacked)
    }
}

/// No socket / no slot.
const NONE: u32 = u32::MAX;
/// Slots per chunk: the slab grows a chunk at a time, so it never holds
/// two copies of itself and never reserves more than one chunk ahead.
const CHUNK: usize = 256;

/// One connection's record. See the [module docs](self).
pub(crate) struct Slot {
    key: u32,
    /// The slot the key resolves to: itself, unless displaced.
    home: SlotId,
    /// The bound socket ([`NONE`] while only a member knows the key).
    sock: u32,
    /// Active-set membership, one [`Set::bit`] each.
    sets: u8,
    /// The record last sent to the members (keyed, socket-bearing slots).
    pub(crate) cache: Option<HbCacheEntry>,
    /// Local control state; `Some` exactly while a socket is bound.
    pub(crate) ctl: Option<ConnCtl>,
}

impl Slot {
    pub(crate) fn key(&self) -> u32 {
        self.key
    }

    pub(crate) fn sock(&self) -> Option<SocketId> {
        (self.sock != NONE).then_some(SocketId(u64::from(self.sock)))
    }
}

/// The table. See the [module docs](self).
#[derive(Default)]
pub(crate) struct ConnTable {
    chunks: Vec<Vec<Slot>>,
    len: u32,
    by_sock: Vec<u32>,
    by_key: AddrMap<u32, SlotId>,
    /// Every `by_key` pair once more, for the key-ascending walks:
    /// [`ConnTable::entry`] appends, and a walk sorts first if that left
    /// the list out of order (keys never leave within a boot).
    keys: RefCell<Vec<(u32, SlotId)>>,
    /// Per set: `order << 32 | slot`, a superset of the members.
    lists: [Vec<u64>; Set::ALL.len()],
    /// Per set: how many slots carry its bit.
    counts: [usize; Set::ALL.len()],
}

impl Index<SlotId> for ConnTable {
    type Output = Slot;
    fn index(&self, s: SlotId) -> &Slot {
        &self.chunks[s.0 as usize / CHUNK][s.0 as usize % CHUNK]
    }
}

impl IndexMut<SlotId> for ConnTable {
    fn index_mut(&mut self, s: SlotId) -> &mut Slot {
        &mut self.chunks[s.0 as usize / CHUNK][s.0 as usize % CHUNK]
    }
}

impl ConnTable {
    fn push(&mut self, key: u32, home: Option<SlotId>) -> SlotId {
        let id = SlotId(self.len);
        if self.chunks.last().is_none_or(|c| c.len() == CHUNK) {
            self.chunks.push(Vec::new());
        }
        self.len += 1;
        let chunk = self.chunks.last_mut().expect("pushed above");
        chunk.push(Slot {
            key,
            home: home.unwrap_or(id),
            sock: NONE,
            sets: 0,
            cache: None,
            ctl: None,
        });
        id
    }

    // ----- lookups ----------------------------------------------------------

    /// The slot `key` resolves to, if the key was ever seen.
    pub(crate) fn by_key(&self, key: u32) -> Option<SlotId> {
        self.by_key.get(&key).copied()
    }

    /// The slot holding `sock`'s control state (possibly displaced).
    pub(crate) fn by_sock(&self, sock: SocketId) -> Option<SlotId> {
        let s = *self.by_sock.get(usize::try_from(sock.0).ok()?)?;
        (s != NONE).then_some(SlotId(s))
    }

    /// `key`'s slot, created empty if the key is new.
    pub(crate) fn entry(&mut self, key: u32) -> SlotId {
        if let Some(s) = self.by_key(key) {
            return s;
        }
        let s = self.push(key, None);
        self.by_key.insert(key, s);
        self.keys.get_mut().push((key, s));
        s
    }

    /// The slot the key of `s` resolves to (`s` itself unless displaced).
    pub(crate) fn home(&self, s: SlotId) -> SlotId {
        self[s].home
    }

    pub(crate) fn ctl(&self, sock: SocketId) -> Option<&ConnCtl> {
        self[self.by_sock(sock)?].ctl.as_ref()
    }

    pub(crate) fn ctl_mut(&mut self, sock: SocketId) -> Option<&mut ConnCtl> {
        let s = self.by_sock(sock)?;
        self[s].ctl.as_mut()
    }

    // ----- binding ----------------------------------------------------------

    /// Makes `key` resolve to `sock`, whose control state is `ctl`.
    /// Returns the key's slot and the socket it displaced, if any (see
    /// the module docs for what a displaced socket keeps).
    pub(crate) fn bind(
        &mut self,
        key: u32,
        sock: SocketId,
        ctl: ConnCtl,
    ) -> (SlotId, Option<SocketId>) {
        let sock = u32::try_from(sock.0).expect("socket ids are dense from zero");
        let s = self.entry(key);
        let old = self[s].sock;
        let displaced = (old != NONE && old != sock).then(|| {
            let o = self.push(key, Some(s));
            self[o].sock = old;
            self[o].ctl = self[s].ctl.take();
            self.by_sock[old as usize] = o.0;
            for set in Set::ALL {
                if !set.by_key() && self.contains(set, s) {
                    self.remove(set, s);
                    self.insert(set, o);
                }
            }
            SocketId(u64::from(old))
        });
        if self.by_sock.len() <= sock as usize {
            self.by_sock.resize(sock as usize + 1, NONE);
        }
        debug_assert!(
            [NONE, s.0].contains(&self.by_sock[sock as usize]),
            "a socket binds one key, once"
        );
        self.by_sock[sock as usize] = s.0;
        self[s].sock = sock;
        self[s].ctl = Some(ctl);
        (s, displaced)
    }

    // ----- walks --------------------------------------------------------------

    /// Every socket that has control state — displaced ones included —
    /// in `SocketId` order.
    pub(crate) fn socks(&self) -> impl Iterator<Item = (SocketId, SlotId)> + '_ {
        (0u64..)
            .zip(&self.by_sock)
            .filter(|(_, &s)| s != NONE)
            .map(|(i, &s)| (SocketId(i), SlotId(s)))
    }

    /// Every key ever seen, in key order (sorting the list if it grew).
    pub(crate) fn keyed(&self) -> impl Iterator<Item = (u32, SlotId)> + '_ {
        // Sorted already unless `entry` ran since the last walk, and
        // then no walk is alive to hold the borrow.
        if !self.keys.borrow().is_sorted() {
            self.keys.borrow_mut().sort_unstable();
        }
        let keys = self.keys.borrow();
        (0..keys.len()).map(move |i| keys[i])
    }

    /// Every key that resolves to a socket, in key order.
    pub(crate) fn bound(&self) -> impl Iterator<Item = (u32, SlotId, SocketId)> + '_ {
        self.keyed()
            .filter_map(|(key, s)| Some((key, s, self[s].sock()?)))
    }

    /// Every cached heartbeat record, in key order.
    pub(crate) fn cached(&self) -> impl Iterator<Item = (SlotId, HbCacheEntry)> + '_ {
        self.keyed().filter_map(|(_, s)| Some((s, self[s].cache?)))
    }

    // ----- active sets ----------------------------------------------------------

    /// The value `set` orders the slot by.
    fn order(&self, set: Set, s: SlotId) -> u32 {
        match set.by_key() {
            true => self[s].key,
            false => self[s].sock,
        }
    }

    pub(crate) fn insert(&mut self, set: Set, s: SlotId) {
        if self.contains(set, s) {
            return;
        }
        let order = self.order(set, s);
        debug_assert!(
            if set.by_key() {
                self[s].home == s
            } else {
                order != NONE
            },
            "{set:?} cannot order {s:?}"
        );
        self[s].sets |= set.bit();
        self.counts[set as usize] += 1;
        // Stale entries are bounded by the members plus a chunk.
        if self.lists[set as usize].len() >= 2 * self.counts[set as usize] + CHUNK {
            self.compact(set);
        }
        self.lists[set as usize].push(u64::from(order) << 32 | u64::from(s.0));
    }

    pub(crate) fn remove(&mut self, set: Set, s: SlotId) {
        if self.contains(set, s) {
            self[s].sets &= !set.bit();
            self.counts[set as usize] -= 1;
            if self.counts[set as usize] == 0 {
                self.lists[set as usize].clear();
            }
        }
    }

    pub(crate) fn set(&mut self, set: Set, s: SlotId, member: bool) {
        match member {
            true => self.insert(set, s),
            false => self.remove(set, s),
        }
    }

    pub(crate) fn contains(&self, set: Set, s: SlotId) -> bool {
        self[s].sets & set.bit() != 0
    }

    pub(crate) fn set_len(&self, set: Set) -> usize {
        self.counts[set as usize]
    }

    /// Empties `set`.
    pub(crate) fn clear_set(&mut self, set: Set) {
        for e in std::mem::take(&mut self.lists[set as usize]) {
            self[SlotId(e as u32)].sets &= !set.bit();
        }
        self.counts[set as usize] = 0;
    }

    /// Sorts the set's list and drops its stale entries: exactly the
    /// members remain, in ascending order.
    fn compact(&mut self, set: Set) {
        let mut list = std::mem::take(&mut self.lists[set as usize]);
        list.sort_unstable();
        list.dedup();
        list.retain(|&e| {
            let s = SlotId(e as u32);
            self.contains(set, s) && self.order(set, s) == (e >> 32) as u32
        });
        self.lists[set as usize] = list;
    }

    /// The members of `set` in ascending order (of `SocketId`, or of key
    /// for `Lag` and `Unacked`): a snapshot the caller may walk while it
    /// inserts and removes.
    pub(crate) fn members(&mut self, set: Set) -> Vec<SlotId> {
        self.compact(set);
        let list = &self.lists[set as usize];
        debug_assert_eq!(list.len(), self.set_len(set), "{set:?}: list ≠ member bits");
        list.iter().map(|&e| SlotId(e as u32)).collect()
    }
}

/// One optional value per slot, kept beside the table by whoever owns it
/// (a member's heartbeat mirror). It grows a chunk at a time, like the
/// slots; a slot never written reads `None`.
#[derive(Debug, Default)]
pub(crate) struct Column<T>(Vec<Vec<Option<T>>>);

impl<T: Copy + Default> Column<T> {
    pub(crate) fn get(&self, s: SlotId) -> Option<&T> {
        self.0.get(s.0 as usize / CHUNK)?[s.0 as usize % CHUNK].as_ref()
    }

    /// The value of `s`, made (default) if missing.
    pub(crate) fn entry(&mut self, s: SlotId) -> &mut T {
        while self.0.len() <= s.0 as usize / CHUNK {
            self.0.push(vec![None; CHUNK]);
        }
        self.0[s.0 as usize / CHUNK][s.0 as usize % CHUNK].get_or_insert_with(T::default)
    }

    /// Every value, in slot order.
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = (SlotId, &mut T)> {
        let cells = self.0.iter_mut().flatten().enumerate();
        cells.filter_map(|(i, v)| Some((SlotId(i as u32), v.as_mut()?)))
    }

    pub(crate) fn clear(&mut self) {
        self.0.clear();
    }
}

/// Differential test against the four ordered maps and six ordered sets
/// the table replaced: after every operation, every lookup, every
/// ordered walk and every set agree.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::EchoApp;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    #[derive(Debug, Clone)]
    enum Op {
        /// Accept the next socket under key `k` (a rebind displaces).
        Bind(u8),
        /// The endpoint made a socket that never got control state.
        SkipSock,
        /// A member names key `k` first: its slot exists before a socket.
        Entry(u8),
        /// A delta round caches key `k`'s record as changed at `seq`.
        Cache(u8, u32),
        /// Every record changed at or before `seq` is acknowledged.
        AckPrune(u32),
        SetMember(u8, u8, bool),
        ClearSet(u8),
    }

    /// Twice as often on as off, so sets hold several members when a
    /// displacement or a prune lands.
    fn member(sets: std::ops::Range<u8>) -> impl Strategy<Value = Op> {
        (sets, any::<u8>(), 0u8..3).prop_map(|(set, x, off)| Op::SetMember(set, x, off > 0))
    }

    const NKEYS: u8 = 16;

    fn op() -> impl Strategy<Value = Op> {
        let key = || 0..NKEYS;
        // `Set::ALL` lists the key-ordered sets first.
        let sets = Set::ALL.len() as u8;
        let socket_sets = || Set::ALL.iter().position(|s| !s.by_key()).unwrap() as u8..sets;
        prop_oneof![
            key().prop_map(Op::Bind),
            key().prop_map(Op::Bind),
            Just(Op::SkipSock),
            key().prop_map(Op::Entry),
            (key(), 1u32..50).prop_map(|(k, seq)| Op::Cache(k, seq)),
            (1u32..50).prop_map(Op::AckPrune),
            // A third of all operations, mostly on the socket-ordered sets.
            member(0..sets),
            member(0..sets),
            member(socket_sets()),
            member(socket_sets()),
            member(socket_sets()),
            (0..sets).prop_map(Op::ClearSet),
        ]
    }

    /// Keys far apart and out of slot order, so key order ≠ slot order,
    /// and enough of them that runs keep adding keys between ordered walks.
    fn key_of(k: u8) -> u32 {
        u32::from(k).wrapping_mul(0x9e37_79b9)
    }

    /// The maps being deleted. `conns` holds each socket's key and the
    /// bind time that tags its control state (as its `last_fetch_at`).
    #[derive(Default)]
    struct Model {
        next_sock: u64,
        conns: BTreeMap<SocketId, (u32, SimTime)>,
        by_key: BTreeMap<u32, SocketId>,
        keys: BTreeSet<u32>,
        hb_cache: BTreeMap<u32, u32>,
        sets: [BTreeSet<u64>; Set::ALL.len()],
    }

    fn ctl(key: u32, tag: SimTime) -> ConnCtl {
        let app = Box::new(EchoApp::default());
        let mut ctl = ConnCtl::new(key, app, &StTcpConfig::default(), Role::Primary);
        ctl.last_fetch_at = Some(tag);
        ctl
    }

    fn apply(t: &mut ConnTable, m: &mut Model, op: Op, step: u64) {
        match op {
            Op::Bind(k) => {
                let (key, sock) = (key_of(k), SocketId(m.next_sock));
                let tag = SimTime::from_micros(step);
                m.next_sock += 1;
                let (s, displaced) = t.bind(key, sock, ctl(key, tag));
                assert_eq!(t.by_key(key), Some(s));
                assert_eq!(displaced, m.by_key.insert(key, sock));
                m.keys.insert(key);
                m.conns.insert(sock, (key, tag));
            }
            Op::SkipSock => m.next_sock += 1,
            Op::Entry(k) => {
                t.entry(key_of(k));
                m.keys.insert(key_of(k));
            }
            Op::Cache(k, changed_at) => {
                let key = key_of(k);
                let Some((s, _)) = t.by_key(key).zip(m.by_key.get(&key)) else {
                    return;
                };
                let rec = ConnHb {
                    key,
                    ..ConnHb::default()
                };
                t[s].cache = Some(HbCacheEntry { rec, changed_at });
                t.insert(Set::Unacked, s);
                m.hb_cache.insert(key, changed_at);
                m.sets[Set::Unacked as usize].insert(key.into());
            }
            Op::AckPrune(seq) => {
                for s in t.members(Set::Unacked) {
                    if t[s].cache.is_none_or(|e| e.changed_at <= seq) {
                        t.remove(Set::Unacked, s);
                    }
                }
                let cache = &m.hb_cache;
                m.sets[Set::Unacked as usize].retain(|&k| cache.get(&(k as u32)) > Some(&seq));
            }
            Op::SetMember(set, x, on) => {
                let set = Set::ALL[set as usize];
                // Key sets take any bound key, socket sets any socket
                // with control state — displaced ones included.
                let (s, order) = if set.by_key() {
                    let key = key_of(x % NKEYS);
                    let Some(s) = t.by_key(key).filter(|_| m.by_key.contains_key(&key)) else {
                        return;
                    };
                    (s, u64::from(key))
                } else {
                    let sock = SocketId(u64::from(x) % m.next_sock.max(1));
                    let Some(s) = t.by_sock(sock) else {
                        assert!(!m.conns.contains_key(&sock));
                        return;
                    };
                    (s, sock.0)
                };
                t.set(set, s, on);
                match on {
                    true => m.sets[set as usize].insert(order),
                    false => m.sets[set as usize].remove(&order),
                };
            }
            Op::ClearSet(set) => {
                t.clear_set(Set::ALL[set as usize]);
                m.sets[set as usize].clear();
            }
        }
    }

    /// `walk` also visits every set — which compacts its list, so the
    /// caller skips it on most steps to let stale entries pile up.
    fn agree(t: &mut ConnTable, m: &Model, walk: bool) -> Result<(), String> {
        let check = |what: &str, ok: bool| match ok {
            true => Ok(()),
            false => Err(format!("{what} disagree")),
        };
        // Keyed lookups and key-ordered walks.
        let bound: Vec<_> = t.bound().map(|(key, _, sock)| (key, sock)).collect();
        check(
            "bound()",
            bound
                .iter()
                .copied()
                .eq(m.by_key.iter().map(|(&k, &s)| (k, s))),
        )?;
        let keyed = t.keyed().map(|(key, _)| key);
        check("keyed()", keyed.eq(m.keys.iter().copied()))?;
        let cached = t.cached().map(|(_, e)| (e.rec.key, e.changed_at));
        check(
            "cached()",
            cached.eq(m.hb_cache.iter().map(|(&k, &v)| (k, v))),
        )?;
        for key in (0..NKEYS).map(key_of) {
            let sock = t.by_key(key).and_then(|s| t[s].sock());
            check("by_key", sock == m.by_key.get(&key).copied())?;
        }
        // Socket lookups and the socket-ordered walk; every socket —
        // displaced or not — finds its key's slot through `home`.
        check(
            "socks()",
            t.socks().map(|(sock, _)| sock).eq(m.conns.keys().copied()),
        )?;
        for sock in (0..m.next_sock + 1).map(SocketId) {
            let got = t.ctl(sock).map(|c| (c.key, c.last_fetch_at));
            let want = m.conns.get(&sock).map(|&(key, tag)| (key, Some(tag)));
            check("ctl", got == want)?;
            if let (Some(s), Some((key, _))) = (t.by_sock(sock), m.conns.get(&sock)) {
                check("slot key", t[s].key() == *key && t[t.home(s)].key() == *key)?;
                check("home", (t.home(s) == s) == (m.by_key[key] == sock))?;
            }
        }
        // Every set: size, membership bits and visiting order.
        for set in Set::ALL {
            let model = &m.sets[set as usize];
            check("set_len", t.set_len(set) == model.len())?;
            let order_of = |t: &ConnTable, s: SlotId| match set.by_key() {
                true => u64::from(t[s].key()),
                false => t[s].sock().map_or(u64::MAX, |sock| sock.0),
            };
            if !walk {
                continue;
            }
            let members = t.members(set);
            check("contains", members.iter().all(|&s| t.contains(set, s)))?;
            let visited = members.iter().map(|&s| order_of(t, s));
            check("members()", visited.eq(model.iter().copied()))?;
        }
        Ok(())
    }

    proptest! {
        #[test]
        fn table_matches_the_four_maps_it_replaced(ops in proptest::collection::vec(op(), 1..120)) {
            let (mut t, mut m) = (ConnTable::default(), Model::default());
            let last = ops.len() - 1;
            for (step, op) in ops.into_iter().enumerate() {
                let shown = format!("{op:?}");
                apply(&mut t, &mut m, op, step as u64);
                if let Err(e) = agree(&mut t, &m, step % 8 == 7 || step == last) {
                    prop_assert!(false, "after step {} ({}): {}", step, shown, e);
                }
            }
        }
    }

    /// A slot that loses its socket to a displacement and joins the same
    /// set again under its new socket, all between two visits, is
    /// visited once, in the new socket's place.
    #[test]
    fn rebound_slot_is_visited_once_in_its_new_order() {
        let mut t = ConnTable::default();
        let (s, _) = t.bind(1, SocketId(0), ctl(1, SimTime::ZERO));
        let (c, _) = t.bind(2, SocketId(1), ctl(2, SimTime::ZERO));
        t.insert(Set::Check, s);
        t.insert(Set::Check, c);
        assert_eq!(
            t.bind(1, SocketId(2), ctl(1, SimTime::ZERO)),
            (s, Some(SocketId(0)))
        );
        t.insert(Set::Check, s);
        let visited: Vec<_> = t.members(Set::Check).iter().map(|&m| t[m].sock).collect();
        assert_eq!(visited, [0, 1, 2]);
    }

    /// The key list sorts again after it grew: keys added since the last
    /// ordered walk — out of order, below and between the ones it already
    /// sorted — are in place at the next.
    #[test]
    fn keys_added_between_ordered_walks_are_walked_in_order() {
        let mut t = ConnTable::default();
        let walk = |t: &ConnTable| t.keyed().map(|(key, _)| key).collect::<Vec<_>>();
        for (round, sorted) in [
            (&[50, 10, 90], &[10, 50, 90][..]),
            (&[70, 5, 95], &[5, 10, 50, 70, 90, 95]),
        ] {
            for &key in round {
                t.entry(key);
            }
            assert_eq!(walk(&t), sorted);
        }
    }

    /// Stale list entries never outgrow the members by more than a
    /// constant: a set that is toggled but never visited stays bounded.
    #[test]
    fn unvisited_set_stays_bounded() {
        let mut t = ConnTable::default();
        let (a, _) = t.bind(1, SocketId(0), ctl(1, SimTime::ZERO));
        let (b, _) = t.bind(2, SocketId(1), ctl(2, SimTime::ZERO));
        t.insert(Set::Tick, a);
        for _ in 0..10_000 {
            t.insert(Set::Tick, b);
            t.remove(Set::Tick, b);
        }
        assert!(t.lists[Set::Tick as usize].len() <= 2 * 2 + CHUNK + 1);
        assert_eq!(t.members(Set::Tick), vec![a]);
    }
}
