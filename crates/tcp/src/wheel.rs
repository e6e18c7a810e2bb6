//! A hierarchical timing wheel for per-connection retransmit deadlines.
//!
//! [`TcpEndpoint`](crate::endpoint::TcpEndpoint) used to answer "which
//! connections have a deadline ≤ now?" and "what is the earliest
//! deadline?" by scanning every socket — O(n) per timer round, which
//! dominates once an endpoint carries tens of thousands of mostly-idle
//! connections. This wheel makes both queries O(active): connections
//! register their next deadline once when it changes, idle connections
//! are never visited.
//!
//! The structure is the same 6-level × 64-slot hashed wheel as the
//! simulator's event queue (`simnet::event`), with the same exact-order
//! contract: entries pop in `(time, insertion sequence)` order, the
//! highest differing 6-bit group of `time ^ cursor` picks the level, a
//! per-level occupancy bitmap finds the next slot, and two escape
//! hatches (an *overdue* heap for entries pushed behind the cursor, an
//! *overflow* heap for entries beyond the 2^36 µs span) keep ordering
//! exact rather than approximate. See the `simnet::event` module docs
//! for the full invariant walk-through; the differential proptest at
//! the bottom of this file pins this copy to a `BinaryHeap` oracle the
//! same way.
//!
//! Entries are *lazy*: the wheel never removes a rescheduled or
//! cancelled deadline. The endpoint stores the deadline it last
//! registered per socket and discards popped entries that no longer
//! match ([`crate::endpoint::TcpEndpoint::on_time`]), so a connection
//! whose timer moved simply leaves a stale tombstone behind. Stale
//! entries cost O(log n) heap work at most once each.
//!
//! # Storage: nothing until armed
//!
//! Every host owns an endpoint and every endpoint a wheel, so a world
//! of 20 000 clients builds 20 002 wheels, most of which will hold one
//! entry at a time. The layout is sized for that: [`DeadlineWheel::new`]
//! allocates nothing; every wheel-resident entry is a [`Node`] in one
//! slab (`Vec`, recycled through a free list); a slot is an 8-byte
//! `(head, tail)` FIFO threaded through the slab's `next` links; and a
//! level's 64 slots (512 bytes) appear the first time an entry is
//! routed to that level. Cascading a slot relinks its nodes in place —
//! no entry is copied — and a level-0 slot becomes the pending list by
//! handing over its `(head, tail)` pair.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::socket::SocketId;
use simnet::time::SimTime;

/// One deadline parked in a heap (behind the cursor, or beyond the
/// wheel's span), where `seq` carries the insertion order.
#[derive(Debug, Clone, Copy)]
struct Entry {
    at: SimTime,
    seq: u64,
    sock: SocketId,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Bits per wheel level (64 slots).
const BITS: usize = 6;
/// Slots per level.
const SLOTS: usize = 1 << BITS;
/// Wheel levels.
const LEVELS: usize = 6;
/// The wheel's span in µs: times at or beyond `elapsed ^ SPAN` overflow.
const SPAN: u64 = 1 << (BITS * LEVELS);

/// "No node": the end of a list, an empty list's head and tail.
const NIL: u32 = u32::MAX;

/// One deadline resident in the wheel (a slot or the pending list).
/// Insertion order is the node's position in its list, so no sequence
/// number is stored.
#[derive(Debug, Clone, Copy)]
struct Node {
    at: SimTime,
    sock: SocketId,
    /// The next node of the same list (or of the free list), or [`NIL`].
    next: u32,
}

/// A FIFO of slab nodes: append at `tail`, consume from `head`.
#[derive(Debug, Clone, Copy)]
struct List {
    head: u32,
    tail: u32,
}

impl List {
    const EMPTY: List = List {
        head: NIL,
        tail: NIL,
    };
}

/// A min-queue of `(deadline, socket)` pairs ordered by
/// `(time, insertion order)`.
#[derive(Debug)]
pub(crate) struct DeadlineWheel {
    /// The wheel cursor (µs): every wheel/pending/overflow entry is at
    /// `>= elapsed`, every overdue entry is at `< elapsed`. Never
    /// decreases.
    elapsed: u64,
    /// Backing store of every slot list, the pending list and the free
    /// list.
    slab: Vec<Node>,
    /// Head of the free list through `slab` ([`NIL`] when none is free).
    free: u32,
    /// Per-level slot lists; a level is allocated by the first entry
    /// routed to it and kept from then on.
    levels: [Option<Box<[List; SLOTS]>>; LEVELS],
    /// Per-level bitmap of non-empty slots.
    occupied: [u64; LEVELS],
    /// Entries at exactly `elapsed`, in insertion order.
    pending: List,
    /// Entries pushed behind the cursor.
    overdue: BinaryHeap<Entry>,
    /// Entries beyond the wheel's span.
    overflow: BinaryHeap<Entry>,
    seq: u64,
    len: usize,
}

impl DeadlineWheel {
    /// An empty wheel. Allocates nothing.
    pub(crate) fn new() -> DeadlineWheel {
        DeadlineWheel {
            elapsed: 0,
            slab: Vec::new(),
            free: NIL,
            levels: [const { None }; LEVELS],
            occupied: [0; LEVELS],
            pending: List::EMPTY,
            overdue: BinaryHeap::new(),
            overflow: BinaryHeap::new(),
            seq: 0,
            len: 0,
        }
    }

    pub(crate) fn push(&mut self, at: SimTime, sock: SocketId) {
        let seq = self.seq;
        self.seq += 1;
        self.len += 1;
        let us = at.as_micros();
        if us < self.elapsed {
            self.overdue.push(Entry { at, seq, sock });
        } else if us ^ self.elapsed >= SPAN {
            self.overflow.push(Entry { at, seq, sock });
        } else {
            self.insert(at, sock);
        }
    }

    /// Takes a slab node for an entry inside the wheel's span at or
    /// after the cursor, and files it.
    fn insert(&mut self, at: SimTime, sock: SocketId) {
        let node = Node {
            at,
            sock,
            next: NIL,
        };
        let idx = if self.free != NIL {
            let idx = self.free;
            self.free = self.slab[idx as usize].next;
            self.slab[idx as usize] = node;
            idx
        } else {
            // Indices stay below NIL, so a list link is never mistaken
            // for the end of its list.
            assert!(self.slab.len() < NIL as usize, "2^32 live deadlines");
            self.slab.push(node);
            (self.slab.len() - 1) as u32
        };
        self.link(idx);
    }

    /// Appends node `idx` to the list the cursor says it belongs on:
    /// pending when it is due exactly at the cursor, else the slot
    /// picked by the highest 6-bit group in which it differs from the
    /// cursor. The node must be at or after the cursor and inside the
    /// wheel's span.
    fn link(&mut self, idx: u32) {
        let at = self.slab[idx as usize].at.as_micros();
        let x = at ^ self.elapsed;
        debug_assert!(at >= self.elapsed && x < SPAN, "entry outside the wheel");
        let list = if x == 0 {
            &mut self.pending
        } else {
            let level = (63 - x.leading_zeros() as usize) / BITS;
            let slot = ((at >> (BITS * level)) & (SLOTS as u64 - 1)) as usize;
            self.occupied[level] |= 1 << slot;
            &mut self.levels[level].get_or_insert_with(|| Box::new([List::EMPTY; SLOTS]))[slot]
        };
        self.slab[idx as usize].next = NIL;
        if list.head == NIL {
            list.head = idx;
        } else {
            self.slab[list.tail as usize].next = idx;
        }
        list.tail = idx;
    }

    /// Advances the cursor until the earliest entry sits in `overdue`
    /// or `pending` (or the wheel is empty): cascades higher-level
    /// slots downward and migrates an overflow block into the wheel
    /// when it drains.
    fn settle(&mut self) {
        loop {
            if !self.overdue.is_empty() || self.pending.head != NIL {
                return;
            }
            let Some(level) = (0..LEVELS).find(|&l| self.occupied[l] != 0) else {
                // Wheel empty: migrate the overflow's next 2^36 µs block.
                let Some(top) = self.overflow.peek() else {
                    return;
                };
                let base = top.at.as_micros() & !(SPAN - 1);
                debug_assert!(base >= self.elapsed, "overflow block behind cursor");
                self.elapsed = base;
                while let Some(top) = self.overflow.peek() {
                    if top.at.as_micros() ^ self.elapsed >= SPAN {
                        break;
                    }
                    // Heap pop order is (time, seq), so same-µs entries
                    // append to their slot in seq order.
                    let e = self.overflow.pop().expect("peeked");
                    self.insert(e.at, e.sock);
                }
                continue;
            };
            // Occupied slots are strictly after the cursor's slot, so the
            // lowest set bit is the next slot in time.
            let slot = self.occupied[level].trailing_zeros() as usize;
            self.occupied[level] &= !(1 << slot);
            let slots = self.levels[level].as_mut().expect("occupied level");
            let list = std::mem::replace(&mut slots[slot], List::EMPTY);
            if level == 0 {
                // One exact µs tick, already in insertion order: the
                // slot's list *is* the pending list.
                self.elapsed = self.slab[list.head as usize].at.as_micros();
                self.pending = list;
            } else {
                // Advance to the slot's base and spread its nodes over
                // the lower levels (in list order, which re-appends
                // same-time entries without reordering them).
                let width = BITS * level;
                let block = 1u64 << (width + BITS);
                let base = (self.elapsed & !(block - 1)) | ((slot as u64) << width);
                debug_assert!(base > self.elapsed, "cascade must advance the cursor");
                self.elapsed = base;
                let mut idx = list.head;
                while idx != NIL {
                    let next = self.slab[idx as usize].next;
                    self.link(idx);
                    idx = next;
                }
            }
        }
    }

    pub(crate) fn pop(&mut self) -> Option<(SimTime, SocketId)> {
        self.settle();
        // Overdue entries are strictly behind the cursor, pending entries
        // exactly at it — overdue first, in heap (time, seq) order.
        let due = match self.overdue.pop() {
            Some(e) => (e.at, e.sock),
            None => {
                let idx = self.pending.head;
                if idx == NIL {
                    return None;
                }
                let node = self.slab[idx as usize];
                debug_assert_eq!(node.at.as_micros(), self.elapsed);
                self.pending.head = node.next;
                self.slab[idx as usize].next = self.free;
                self.free = idx;
                (node.at, node.sock)
            }
        };
        self.len -= 1;
        Some(due)
    }

    /// The earliest registered deadline. Exact (not a lower bound);
    /// computing it may cascade wheel slots, hence `&mut`.
    pub(crate) fn peek(&mut self) -> Option<(SimTime, SocketId)> {
        self.settle();
        match self.overdue.peek() {
            Some(e) => Some((e.at, e.sock)),
            // An empty pending list's head is NIL, which indexes no node.
            None => self
                .slab
                .get(self.pending.head as usize)
                .map(|n| (n.at, n.sock)),
        }
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Heap bytes this wheel holds (capacity, not use).
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.slab.capacity() * size_of::<Node>()
            + self.levels.iter().flatten().count() * size_of::<[List; SLOTS]>()
            + (self.overdue.capacity() + self.overflow.capacity()) * size_of::<Entry>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The trivially-correct oracle: a plain `(time, seq)` min-heap.
    struct HeapOracle {
        heap: BinaryHeap<Entry>,
        seq: u64,
    }

    impl HeapOracle {
        fn new() -> HeapOracle {
            HeapOracle {
                heap: BinaryHeap::new(),
                seq: 0,
            }
        }

        fn push(&mut self, at: SimTime, sock: SocketId) {
            let seq = self.seq;
            self.seq += 1;
            self.heap.push(Entry { at, seq, sock });
        }

        fn pop(&mut self) -> Option<(SimTime, SocketId)> {
            self.heap.pop().map(|e| (e.at, e.sock))
        }

        fn peek(&self) -> Option<(SimTime, SocketId)> {
            self.heap.peek().map(|e| (e.at, e.sock))
        }
    }

    #[test]
    fn pops_in_time_order_with_seq_tiebreak() {
        let mut w = DeadlineWheel::new();
        w.push(SimTime::from_millis(3), SocketId(3));
        w.push(SimTime::from_millis(1), SocketId(1));
        w.push(SimTime::from_millis(1), SocketId(9));
        w.push(SimTime::from_millis(2), SocketId(2));
        let order: Vec<(u64, SocketId)> = std::iter::from_fn(|| w.pop())
            .map(|(t, s)| (t.as_millis(), s))
            .collect();
        assert_eq!(
            order,
            vec![
                (1, SocketId(1)),
                (1, SocketId(9)),
                (2, SocketId(2)),
                (3, SocketId(3)),
            ]
        );
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn far_future_and_behind_cursor_entries_keep_exact_order() {
        let mut w = DeadlineWheel::new();
        w.push(SimTime::from_micros(2 * SPAN + 9), SocketId(4));
        w.push(SimTime::from_micros(10_000), SocketId(1));
        // Peeking advances the cursor to 10 000 µs...
        assert_eq!(w.peek(), Some((SimTime::from_micros(10_000), SocketId(1))));
        // ...and pushes behind it must still pop first, in (time, seq) order.
        w.push(SimTime::from_micros(500), SocketId(2));
        w.push(SimTime::from_micros(200), SocketId(3));
        let order: Vec<(u64, SocketId)> = std::iter::from_fn(|| w.pop())
            .map(|(t, s)| (t.as_micros(), s))
            .collect();
        assert_eq!(
            order,
            vec![
                (200, SocketId(3)),
                (500, SocketId(2)),
                (10_000, SocketId(1)),
                (2 * SPAN + 9, SocketId(4)),
            ]
        );
    }

    /// Deterministic heavy churn across every wheel level plus the
    /// overflow heap, diffed against the heap oracle pop for pop.
    #[test]
    fn storm_matches_heap_oracle() {
        let mut wheel = DeadlineWheel::new();
        let mut oracle = HeapOracle::new();
        let mut lcg: u64 = 0x2545_F491_4F6C_DD1D;
        let mut rand = || {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            lcg >> 11
        };
        let mut floor = 0u64;
        let mut tag = 0u64;
        for round in 0..50_000u64 {
            let r = rand();
            if r % 3 != 0 {
                let at = match r % 7 {
                    0 => floor,
                    1 => floor + r % 64,
                    2 => floor + r % 4_096,
                    3 => floor + r % 1_000_000,
                    4 => floor + r % (SPAN / 2),
                    _ => floor + r % (3 * SPAN),
                };
                let t = SimTime::from_micros(at);
                wheel.push(t, SocketId(tag));
                oracle.push(t, SocketId(tag));
                tag += 1;
            } else {
                let got = wheel.pop();
                let want = oracle.pop();
                assert_eq!(got, want, "divergence at round {round}");
                if let Some((t, _)) = got {
                    floor = t.as_micros();
                }
            }
        }
        loop {
            let got = wheel.pop();
            let want = oracle.pop();
            assert_eq!(got, want, "divergence during drain");
            if got.is_none() {
                break;
            }
        }
    }

    /// An empty wheel owns no heap memory; levels appear one by one as
    /// entries reach them. A lone far deadline — the idle client's
    /// cancelled SYN timer — occupies level 3 and, if it has to be
    /// cascaded out, touches 2, 1 and 0 on the way down.
    #[test]
    fn storage_appears_only_for_levels_entries_reach() {
        const LEVEL: usize = std::mem::size_of::<[List; SLOTS]>();
        let slab = |w: &DeadlineWheel| w.slab.capacity() * std::mem::size_of::<Node>();
        let mut w = DeadlineWheel::new();
        assert_eq!(w.heap_bytes(), 0);
        assert_eq!(w.peek(), None);
        assert_eq!(w.pop(), None);
        assert_eq!(w.heap_bytes(), 0, "querying an empty wheel allocated");

        let at = SimTime::from_micros((5 << 18) | (3 << 12) | (2 << 6) | 1);
        w.push(at, SocketId(7));
        assert_eq!(w.heap_bytes(), slab(&w) + LEVEL, "level 3 only");
        assert_eq!(w.pop(), Some((at, SocketId(7))));
        assert_eq!(w.heap_bytes(), slab(&w) + 4 * LEVEL, "levels 3 down to 0");

        // The drained levels and the freed node are reused, not regrown.
        let before = w.heap_bytes();
        let at2 = SimTime::from_micros(at.as_micros() + (9 << 18) + (1 << 12) + (1 << 6) + 1);
        w.push(at2, SocketId(8));
        assert_eq!(w.pop(), Some((at2, SocketId(8))));
        assert_eq!(w.heap_bytes(), before);
        assert_eq!(w.slab.len(), 1, "one node, recycled");
    }

    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// Push at an absolute time (behind the cursor once it has moved).
        Push(u64),
        /// Push this far ahead of the last popped time.
        PushAhead(u64),
        Pop,
        Peek,
        /// Pop until empty.
        Drain,
    }

    /// Half the draws are pushes (spread over same-tick, per-level, and
    /// overflow time scales), a third pops, the rest peeks.
    fn op_strategy() -> impl Strategy<Value = Op> {
        (0u8..9, 0u64..u64::MAX).prop_map(|(kind, raw)| match kind {
            0 => Op::Push(raw % 64),
            1 => Op::Push(raw % 4_096),
            2 => Op::Push(raw % 1_000_000),
            3 => Op::Push(raw % SPAN),
            4 => Op::Push(raw % (4 * SPAN)),
            5..=7 => Op::Pop,
            _ => Op::Peek,
        })
    }

    /// Sparse wheels, the shape most endpoints have: pushes land only on
    /// the levels `mask` names (bit 6 = the overflow heap), so whole
    /// levels stay empty; a push is either one digit at its level or a
    /// *lone* deadline with a non-zero digit at every level below it too,
    /// which must cascade all the way down; drains empty the wheel so the
    /// next push re-occupies a level that has been used and drained.
    fn sparse_ops() -> impl Strategy<Value = Vec<Op>> {
        let op = (0u8..8, 0u64..u64::MAX);
        (1u8..128, proptest::collection::vec(op, 0..200)).prop_map(|(mask, draws)| {
            let allowed: Vec<usize> = (0..=LEVELS).filter(|l| mask & (1 << l) != 0).collect();
            draws
                .into_iter()
                .map(|(kind, raw)| {
                    let level = allowed[(raw % allowed.len() as u64) as usize];
                    let digit = |l: usize| (1 + (raw >> (8 + BITS * l)) % 63) << (BITS * l);
                    match kind {
                        0..=2 => Op::PushAhead(digit(level)),
                        3 => Op::PushAhead((0..=level).map(digit).sum()),
                        4..=5 => Op::Pop,
                        6 => Op::Peek,
                        _ => Op::Drain,
                    }
                })
                .collect()
        })
    }

    /// Runs `ops` on the wheel and the heap oracle side by side, diffing
    /// every peek and pop, then drains both.
    fn diff_against_oracle(ops: Vec<Op>) -> Result<(), TestCaseError> {
        let mut wheel = DeadlineWheel::new();
        let mut oracle = HeapOracle::new();
        let mut tag = 0u64;
        let mut floor = 0u64;
        // Pops both, raising `floor` to the popped time; false when empty.
        fn pop(
            wheel: &mut DeadlineWheel,
            oracle: &mut HeapOracle,
            floor: &mut u64,
        ) -> Result<bool, TestCaseError> {
            let got = wheel.pop();
            prop_assert_eq!(got, oracle.pop());
            if let Some((t, _)) = got {
                *floor = (*floor).max(t.as_micros());
            }
            Ok(got.is_some())
        }
        for op in ops.into_iter().chain([Op::Drain]) {
            match op {
                Op::Push(at) | Op::PushAhead(at) => {
                    let ahead = matches!(op, Op::PushAhead(_));
                    let t = SimTime::from_micros(if ahead { floor + at } else { at });
                    wheel.push(t, SocketId(tag));
                    oracle.push(t, SocketId(tag));
                    tag += 1;
                }
                Op::Pop => {
                    pop(&mut wheel, &mut oracle, &mut floor)?;
                }
                Op::Peek => prop_assert_eq!(wheel.peek(), oracle.peek()),
                Op::Drain => while pop(&mut wheel, &mut oracle, &mut floor)? {},
            }
        }
        prop_assert_eq!(wheel.len(), 0);
        Ok(())
    }

    proptest! {
        /// Differential test: the wheel and the heap oracle agree on
        /// every peek and every pop — time *and* insertion order — for
        /// arbitrary interleaved workloads, including pushes at
        /// arbitrary (past) times that drive the overdue path hard.
        #[test]
        fn wheel_matches_heap_oracle(ops in proptest::collection::vec(op_strategy(), 0..400)) {
            diff_against_oracle(ops)?;
        }

        /// The same diff on sparse wheels (see [`sparse_ops`]): empty
        /// levels, drained and re-occupied levels, lone cascades.
        #[test]
        fn sparse_wheel_matches_heap_oracle(ops in sparse_ops()) {
            diff_against_oracle(ops)?;
        }
    }
}
