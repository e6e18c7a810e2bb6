//! The deterministic event queue.
//!
//! Events are ordered by `(time, insertion sequence)`. The sequence number
//! guarantees that simultaneous events dequeue in exactly the order they
//! were scheduled, which makes entire simulation runs bit-reproducible.
//!
//! # Implementation: hierarchical timing wheel
//!
//! The queue is a 6-level × 64-slot hashed timing wheel over the µs
//! clock (level *l* has 64^l µs granularity, so the wheel spans
//! 2^36 µs ≈ 19 virtual hours ahead of its `elapsed` cursor), with two
//! escape hatches that keep the ordering contract *exact* rather than
//! approximate:
//!
//! * an **overflow** min-heap for events scheduled beyond the wheel's
//!   span (they migrate into the wheel, one 2^36 µs block at a time,
//!   when the wheel drains), and
//! * an **overdue** min-heap for events pushed *behind* the cursor.
//!   `peek_time` has to advance the cursor to the earliest queued event
//!   (a wheel cannot answer "what's next" without cascading), and the
//!   world may afterwards push at times between its own clock and that
//!   cursor; those land here and still pop first, in `(time, seq)`
//!   order.
//!
//! Slot routing XORs the event time with the cursor: the highest
//! differing 6-bit group picks the level, so a slot at level *l* only
//! ever holds events that agree with the cursor on all higher groups.
//! Consequences that the pop path relies on (and the differential
//! proptest at the bottom of this file checks against the old
//! `BinaryHeap` implementation, kept as the test oracle):
//!
//! * within one level, occupied slots are strictly after the cursor's
//!   own slot — no wraparound, so "lowest set bit in the occupancy
//!   bitmap" is the next slot in time;
//! * all events at level *l* precede all events at level *l+1*, so the
//!   lowest occupied level holds the globally earliest event;
//! * a level-0 slot holds events of exactly one µs tick, in insertion
//!   order (cascading re-inserts preserve relative order, and a
//!   cascaded batch always precedes later direct pushes), so a drained
//!   level-0 slot *is* the `pending` FIFO, in exact `(time, seq)` order
//!   without comparisons.
//!
//! # Storage: live events, not high-water marks
//!
//! A bulk run parks millions of short-lived events (each server flush
//! re-arms its TCP timer ~200 ms ahead), a few thousand at a time. The
//! layout holds storage for the peak *live* count: [`EventQueue::new`]
//! allocates nothing; every wheel-resident event is a [`Node`] in one
//! slab (a `Vec`, recycled through a free list); a slot is an 8-byte
//! `(head, tail)` FIFO threaded through the slab's `next` links; and a
//! level's 64 slots (512 bytes) appear the first time an event is routed
//! there. Cascading relinks a slot's nodes in place — no event is
//! copied — and a level-0 slot becomes the pending list by handing over
//! its `(head, tail)` pair.

use bytes::Bytes;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::frame::EthernetFrame;
use crate::link::{LinkDir, LinkId};
use crate::node::{NodeId, TimerToken};
use crate::serial::{SerialDir, SerialId};
use crate::time::SimTime;

/// A simulation event.
#[derive(Debug)]
pub(crate) enum Ev {
    /// A frame finishes propagating along a link.
    LinkArrival {
        link: LinkId,
        dir: LinkDir,
        frame: EthernetFrame,
    },
    /// A serial message finishes propagating along a channel.
    SerialArrival {
        serial: SerialId,
        dir: SerialDir,
        data: Bytes,
    },
    /// A node timer fires. `epoch` must match the node's current power
    /// epoch; timers armed before a power cycle are discarded.
    Timer {
        node: NodeId,
        token: TimerToken,
        epoch: u64,
    },
    /// The power controller cuts power to a node.
    PowerOff { node: NodeId },
    /// The power controller restores power to a node.
    PowerOn { node: NodeId },
    /// A scripted callback (fault injection, workload step) runs against
    /// the whole world.
    Script { id: u64 },
}

/// One event parked in a heap (behind the cursor, or beyond the wheel's
/// span), where `seq` carries the insertion order.
struct Queued {
    at: SimTime,
    seq: u64,
    ev: Ev,
}

impl PartialEq for Queued {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Queued {}

impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Queued {
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

/// One event resident in the wheel (a slot or the pending list).
/// Insertion order is the node's position in its list, so no sequence
/// number is stored.
struct Node {
    at: SimTime,
    /// `None` only while the node is on the free list.
    ev: Option<Ev>,
    /// The next node of the same list (or of the free list), or [`NIL`].
    next: u32,
}

/// A FIFO of slab nodes: append at `tail`, consume from `head`.
#[derive(Clone, Copy)]
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

/// A min-queue of events ordered by `(time, insertion order)`.
pub(crate) struct EventQueue {
    /// The wheel cursor (µs): every wheel/pending/overflow event is at
    /// `>= elapsed`, every overdue event is at `< elapsed`. Never
    /// decreases.
    elapsed: u64,
    /// Backing store of every slot list, the pending list and the free
    /// list.
    slab: Vec<Node>,
    /// Head of the free list through `slab` ([`NIL`] when none is free).
    free: u32,
    /// Per-level slot lists; a level is allocated by the first event
    /// routed to it and kept from then on.
    levels: [Option<Box<[List; SLOTS]>>; LEVELS],
    /// Per-level bitmap of non-empty slots.
    occupied: [u64; LEVELS],
    /// Events at exactly `elapsed`, in insertion order.
    pending: List,
    /// Events pushed behind the cursor (see module docs).
    overdue: BinaryHeap<Queued>,
    /// Events beyond the wheel's span.
    overflow: BinaryHeap<Queued>,
    seq: u64,
    len: usize,
}

impl EventQueue {
    /// An empty queue. Allocates nothing.
    pub(crate) fn new() -> EventQueue {
        EventQueue {
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

    pub(crate) fn push(&mut self, at: SimTime, ev: Ev) {
        let seq = self.seq;
        self.seq += 1;
        self.len += 1;
        let us = at.as_micros();
        if us < self.elapsed {
            self.overdue.push(Queued { at, seq, ev });
        } else if us ^ self.elapsed >= SPAN {
            self.overflow.push(Queued { at, seq, ev });
        } else {
            self.insert(at, ev);
        }
    }

    /// Takes a slab node for an event inside the wheel's span at or
    /// after the cursor, and files it.
    fn insert(&mut self, at: SimTime, ev: Ev) {
        let node = Node {
            at,
            ev: Some(ev),
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
            assert!(self.slab.len() < NIL as usize, "2^32 live events");
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
        debug_assert!(at >= self.elapsed && x < SPAN, "event outside the wheel");
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

    /// Advances the cursor until the earliest event sits in `overdue`
    /// or `pending` (or the queue is empty): cascades higher-level
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
                    // Heap pop order is (time, seq), so same-µs events
                    // append to their slot in seq order.
                    let q = self.overflow.pop().expect("peeked");
                    self.insert(q.at, q.ev);
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
                // same-time events without reordering them).
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

    pub(crate) fn pop(&mut self) -> Option<(SimTime, Ev)> {
        self.settle();
        // Overdue events are strictly behind the cursor, pending events
        // exactly at it — overdue first, in heap (time, seq) order.
        let due = match self.overdue.pop() {
            Some(q) => (q.at, q.ev),
            None => {
                let idx = self.pending.head;
                // An empty pending list's head is NIL, which indexes no node.
                let node = self.slab.get_mut(idx as usize)?;
                debug_assert_eq!(node.at.as_micros(), self.elapsed);
                let ev = node.ev.take().expect("listed node holds an event");
                self.pending.head = node.next;
                node.next = self.free;
                self.free = idx;
                (node.at, ev)
            }
        };
        self.len -= 1;
        Some(due)
    }

    /// The earliest queued time. Exact (not a lower bound), which is
    /// what `World::run_until`'s stop condition needs; computing it may
    /// cascade wheel slots, hence `&mut`.
    pub(crate) fn peek_time(&mut self) -> Option<SimTime> {
        self.settle();
        match self.overdue.peek() {
            Some(q) => Some(q.at),
            None => self.slab.get(self.pending.head as usize).map(|n| n.at),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Heap bytes this queue holds (capacity, not use).
    #[cfg(test)]
    fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.slab.capacity() * size_of::<Node>()
            + self.levels.iter().flatten().count() * size_of::<[List; SLOTS]>()
            + (self.overdue.capacity() + self.overflow.capacity()) * size_of::<Queued>()
    }
}

/// The original `BinaryHeap` queue, kept as the differential-test
/// oracle: trivially correct by inspection, bitwise-identical pop
/// order is asserted against it.
#[cfg(test)]
pub(crate) struct HeapQueue {
    heap: BinaryHeap<Queued>,
    seq: u64,
}

#[cfg(test)]
impl HeapQueue {
    pub(crate) fn new() -> HeapQueue {
        HeapQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    pub(crate) fn push(&mut self, at: SimTime, ev: Ev) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Queued { at, seq, ev });
    }

    pub(crate) fn pop(&mut self) -> Option<(SimTime, Ev)> {
        self.heap.pop().map(|q| (q.at, q.ev))
    }

    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|q| q.at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn timer(n: usize) -> Ev {
        Ev::Timer {
            node: NodeId(n),
            token: TimerToken(0),
            epoch: 0,
        }
    }

    fn tag_of(ev: &Ev) -> usize {
        match ev {
            Ev::Timer { node, .. } => node.0,
            _ => unreachable!("tests only queue timers"),
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(3), timer(3));
        q.push(SimTime::from_millis(1), timer(1));
        q.push(SimTime::from_millis(2), timer(2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(t, _)| t.as_millis())
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for n in 0..10 {
            q.push(t, timer(n));
        }
        let order: Vec<usize> = std::iter::from_fn(|| q.pop())
            .map(|(_, ev)| tag_of(&ev))
            .collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_millis(7), timer(0));
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(7)));
        assert_eq!(q.len(), 1);
        let _ = q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_events_overflow_and_come_back() {
        let mut q = EventQueue::new();
        // Beyond the 2^36 µs wheel span, in several blocks.
        q.push(SimTime::from_micros(3 * SPAN + 7), timer(3));
        q.push(SimTime::from_micros(SPAN + 5), timer(1));
        q.push(SimTime::from_micros(SPAN + 5), timer(2));
        q.push(SimTime::from_micros(42), timer(0));
        let order: Vec<(u64, usize)> = std::iter::from_fn(|| q.pop())
            .map(|(t, ev)| (t.as_micros(), tag_of(&ev)))
            .collect();
        assert_eq!(
            order,
            vec![(42, 0), (SPAN + 5, 1), (SPAN + 5, 2), (3 * SPAN + 7, 3)]
        );
    }

    #[test]
    fn push_behind_cursor_after_peek_pops_first() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(10_000), timer(1));
        // Peeking advances the cursor to 10 000 µs.
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(10_000)));
        // The world may still push earlier (its own clock lags the
        // cursor): these must pop first, in (time, seq) order.
        q.push(SimTime::from_micros(500), timer(2));
        q.push(SimTime::from_micros(200), timer(3));
        q.push(SimTime::from_micros(500), timer(4));
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(200)));
        let order: Vec<(u64, usize)> = std::iter::from_fn(|| q.pop())
            .map(|(t, ev)| (t.as_micros(), tag_of(&ev)))
            .collect();
        assert_eq!(order, vec![(200, 3), (500, 2), (500, 4), (10_000, 1)]);
    }

    #[test]
    fn interleaved_pushes_at_one_tick_keep_seq_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(123_456);
        q.push(t, timer(0));
        q.push(t, timer(1));
        // Drain the first, then push more at the same (now current) tick.
        assert_eq!(q.pop().map(|(_, ev)| tag_of(&ev)), Some(0));
        q.push(t, timer(2));
        q.push(t, timer(3));
        let order: Vec<usize> = std::iter::from_fn(|| q.pop())
            .map(|(_, ev)| tag_of(&ev))
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    /// Deterministic heavy churn: an LCG-driven push/pop storm across
    /// every wheel level plus the overflow heap, diffed against the
    /// heap oracle pop for pop. Pushes never go below the last pop (the
    /// world's contract).
    #[test]
    fn storm_matches_heap_oracle() {
        let mut lcg: u64 = 0x2545_F491_4F6C_DD1D;
        let ops = (0..50_000).map(|_| {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = lcg >> 11;
            if r.is_multiple_of(3) {
                return Op::Pop;
            }
            // Mix of near, mid, far and same-tick times.
            Op::PushAhead(match r % 7 {
                0 => 0,
                1 => r % 64,
                2 => r % 4_096,
                3 => r % 1_000_000,
                4 => r % (SPAN / 2),
                _ => r % (3 * SPAN),
            })
        });
        diff_against_oracle(ops.collect()).expect("storm diverged");
    }

    /// An empty queue owns no heap memory; levels appear one by one as
    /// events reach them. A lone far event occupies level 3 and, when it
    /// is cascaded out, touches 2, 1 and 0 on the way down.
    #[test]
    fn storage_appears_only_for_levels_entries_reach() {
        const LEVEL: usize = std::mem::size_of::<[List; SLOTS]>();
        let slab = |q: &EventQueue| q.slab.capacity() * std::mem::size_of::<Node>();
        let mut q = EventQueue::new();
        assert_eq!(q.heap_bytes(), 0);
        assert_eq!(q.peek_time(), None);
        assert!(q.pop().is_none());
        assert_eq!(q.heap_bytes(), 0, "querying an empty queue allocated");

        let at = SimTime::from_micros((5 << 18) | (3 << 12) | (2 << 6) | 1);
        q.push(at, timer(7));
        assert_eq!(q.heap_bytes(), slab(&q) + LEVEL, "level 3 only");
        assert_eq!(q.pop().map(|(t, ev)| (t, tag_of(&ev))), Some((at, 7)));
        assert_eq!(q.heap_bytes(), slab(&q) + 4 * LEVEL, "levels 3 down to 0");

        // The drained levels and the freed node are reused, not regrown.
        let before = q.heap_bytes();
        let at2 = SimTime::from_micros(at.as_micros() + (9 << 18) + (1 << 12) + (1 << 6) + 1);
        q.push(at2, timer(8));
        assert_eq!(q.pop().map(|(t, ev)| (t, tag_of(&ev))), Some((at2, 8)));
        assert_eq!(q.heap_bytes(), before);
        assert_eq!(q.slab.len(), 1, "one node, recycled");
    }

    /// The shape a bulk transfer gives the queue: every ~80 µs a timer is
    /// armed 200–260 ms ahead (the server's cancelled-and-re-armed TCP
    /// timer) and whatever has come due is popped, so a few thousand
    /// events are live at any time out of a million pushed. Storage must
    /// follow the live count: a layout that lets each level-3 slot keep
    /// its high-water mark retains 20 MB on this stream.
    #[test]
    fn storage_follows_live_events_not_total_pushes() {
        let mut q = EventQueue::new();
        let mut peak_live = 0;
        for i in 0..1_000_000u64 {
            let now = i * 80;
            q.push(
                SimTime::from_micros(now + 200_000 + (i * 7_919) % 60_000),
                timer(0),
            );
            while q.peek_time().is_some_and(|t| t.as_micros() <= now) {
                let _ = q.pop();
            }
            peak_live = peak_live.max(q.len());
        }
        assert!((2_000..4_000).contains(&peak_live), "peak live {peak_live}");
        let bound = 2 * peak_live * std::mem::size_of::<Node>()
            + LEVELS * std::mem::size_of::<[List; SLOTS]>();
        assert!(bound < 512 * 1024);
        assert!(
            q.heap_bytes() <= bound,
            "{} bytes held for a peak of {peak_live} live events",
            q.heap_bytes()
        );
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

    /// Sparse wheels: pushes land only on the levels `mask` names
    /// (bit 6 = the overflow heap), so whole levels stay empty; a push is
    /// either one digit at its level or a *lone* event with a non-zero
    /// digit at every level below it too, which must cascade all the way
    /// down; drains empty the wheel so the next push re-occupies a level
    /// that has been used and drained.
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
        let mut wheel = EventQueue::new();
        let mut oracle = HeapQueue::new();
        let mut tag = 0usize;
        let mut floor = 0u64;
        // Pops both, raising `floor` to the popped time; false when empty.
        fn pop(
            wheel: &mut EventQueue,
            oracle: &mut HeapQueue,
            floor: &mut u64,
        ) -> Result<bool, TestCaseError> {
            let got = wheel.pop().map(|(t, ev)| (t, tag_of(&ev)));
            let want = oracle.pop().map(|(t, ev)| (t, tag_of(&ev)));
            prop_assert_eq!(got, want);
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
                    wheel.push(t, timer(tag));
                    oracle.push(t, timer(tag));
                    tag += 1;
                }
                Op::Pop => {
                    pop(&mut wheel, &mut oracle, &mut floor)?;
                }
                Op::Peek => prop_assert_eq!(wheel.peek_time(), oracle.peek_time()),
                Op::Drain => while pop(&mut wheel, &mut oracle, &mut floor)? {},
            }
        }
        prop_assert!(wheel.is_empty());
        Ok(())
    }

    proptest! {
        /// Differential test: the wheel and the heap oracle agree on
        /// every peek and every pop — time *and* insertion order — for
        /// arbitrary interleaved workloads. Unlike the world (which
        /// never schedules into the past), this pushes at arbitrary
        /// times, so it also drives the overdue path hard.
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
