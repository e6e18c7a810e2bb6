//! Point-to-point Ethernet links.
//!
//! A link joins two endpoints (node NICs or switch ports) and models, per
//! direction: propagation latency, serialization delay against a bandwidth
//! cap (with FIFO queueing), probabilistic loss, scripted drop windows,
//! frame-predicate filters, and an administrative up/down state. All loss
//! decisions draw from the world's seeded RNG, so runs are reproducible.

use core::fmt;

use crate::frame::EthernetFrame;
use crate::node::{NicId, NodeId};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// Identifies a link within a world.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub usize);

/// Identifies a switch within a world.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SwitchId(pub usize);

/// One of the two ends of a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// A NIC on a node.
    Node {
        /// The node.
        node: NodeId,
        /// The NIC within that node.
        nic: NicId,
    },
    /// A port on a switch.
    Switch {
        /// The switch.
        switch: SwitchId,
        /// The port index within that switch.
        port: usize,
    },
}

/// Which direction a frame travels on a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkDir {
    /// From endpoint `a` toward endpoint `b`.
    AtoB,
    /// From endpoint `b` toward endpoint `a`.
    BtoA,
}

impl LinkDir {
    /// The opposite direction.
    pub fn flip(self) -> LinkDir {
        match self {
            LinkDir::AtoB => LinkDir::BtoA,
            LinkDir::BtoA => LinkDir::AtoB,
        }
    }

    fn index(self) -> usize {
        match self {
            LinkDir::AtoB => 0,
            LinkDir::BtoA => 1,
        }
    }
}

impl fmt::Display for LinkDir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkDir::AtoB => write!(f, "a->b"),
            LinkDir::BtoA => write!(f, "b->a"),
        }
    }
}

/// Physical parameters of a link.
#[derive(Debug, Clone, Copy)]
pub struct LinkParams {
    /// One-way propagation latency.
    pub latency: SimDuration,
    /// Bandwidth cap in bits per second; `None` means unconstrained.
    pub bandwidth_bps: Option<u64>,
}

impl LinkParams {
    /// A typical switched 100 Mbit/s LAN segment with 50 µs latency —
    /// matches the paper's experimental setup (Figure 2).
    pub fn lan() -> LinkParams {
        LinkParams {
            latency: SimDuration::from_micros(50),
            bandwidth_bps: Some(100_000_000),
        }
    }

    /// An ideal link: zero latency, unconstrained bandwidth. Useful in
    /// unit tests where timing is irrelevant.
    pub fn ideal() -> LinkParams {
        LinkParams {
            latency: SimDuration::ZERO,
            bandwidth_bps: None,
        }
    }

    /// Sets the one-way latency (builder style).
    pub fn with_latency(mut self, latency: SimDuration) -> LinkParams {
        self.latency = latency;
        self
    }
}

impl Default for LinkParams {
    fn default() -> Self {
        LinkParams::lan()
    }
}

/// Per-link delivery counters, useful for overhead measurements (Demo 3)
/// and loss-injection assertions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Frames offered for transmission.
    pub offered: u64,
    /// Frames scheduled for delivery at the far end.
    pub delivered: u64,
    /// Frames dropped by the probabilistic loss model or a drop window.
    pub dropped_loss: u64,
    /// Frames dropped because the link (or an endpoint NIC) was down.
    pub dropped_down: u64,
    /// Payload bytes scheduled for delivery.
    pub bytes_delivered: u64,
    /// Frames delivered with an injected payload bit flip.
    pub corrupted: u64,
    /// Frames transmitted twice by the duplication budget.
    pub duplicated: u64,
    /// Frames delivered out of order by the reordering budget.
    pub reordered: u64,
}

/// A frame predicate used by [`LinkState::set_filter`]-style fault
/// injection: return `true` to drop the frame.
pub type DropFilter = Box<dyn FnMut(&EthernetFrame) -> bool>;

#[derive(Default)]
struct DirState {
    /// Administrative state: a downed direction silently eats frames.
    down: bool,
    /// Probability of dropping each frame.
    loss_prob: f64,
    /// Drop every frame until this time.
    drop_until: SimTime,
    /// Drop the next N frames.
    drop_next: u64,
    /// Flip one payload bit in each of the next N frames.
    corrupt_next: u64,
    /// Transmit each of the next N frames twice.
    dup_next: u64,
    /// Swap each of the next N frames with the frame that follows it.
    reorder_next: u64,
    /// A frame being held back by the reordering budget, with the
    /// arrival time it was originally scheduled for.
    held: Option<(SimTime, EthernetFrame)>,
    /// Per-frame uniform delivery jitter bound in microseconds (0 = off).
    jitter_max_us: u64,
    /// Serialization queue: time the transmitter is busy until.
    busy_until: SimTime,
    /// Optional targeted drop filter.
    filter: Option<DropFilter>,
}

impl fmt::Debug for DirState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DirState")
            .field("down", &self.down)
            .field("loss_prob", &self.loss_prob)
            .field("drop_until", &self.drop_until)
            .field("drop_next", &self.drop_next)
            .field("corrupt_next", &self.corrupt_next)
            .field("dup_next", &self.dup_next)
            .field("reorder_next", &self.reorder_next)
            .field("has_held", &self.held.is_some())
            .field("jitter_max_us", &self.jitter_max_us)
            .field("busy_until", &self.busy_until)
            .field("has_filter", &self.filter.is_some())
            .finish()
    }
}

/// The simulator-internal state of one link.
#[derive(Debug)]
pub struct LinkState {
    /// Endpoint `a`.
    pub a: Endpoint,
    /// Endpoint `b`.
    pub b: Endpoint,
    params: LinkParams,
    dirs: [DirState; 2],
    stats: [LinkStats; 2],
}

/// The outcome of offering a frame to a link for transmission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxOutcome {
    /// The frame will arrive at the far end at the given time.
    Deliver(SimTime),
    /// The frame was dropped (loss, filter, window, or link down).
    Dropped,
    /// The frame was held back by the reordering budget; it will be
    /// released behind the next frame offered in this direction. If no
    /// further frame is offered, the hold degrades into a single-frame
    /// loss (retransmission or the next heartbeat releases it in
    /// practice).
    Held,
    /// The offered frame arrives at `at`, and a previously held frame is
    /// released behind it — the pair arrives in swapped order.
    DeliverAndRelease {
        /// Arrival time of the frame just offered.
        at: SimTime,
        /// Arrival time and contents of the held frame now released.
        released: (SimTime, EthernetFrame),
    },
}

impl LinkState {
    pub(crate) fn new(a: Endpoint, b: Endpoint, params: LinkParams) -> LinkState {
        LinkState {
            a,
            b,
            params,
            dirs: Default::default(),
            stats: Default::default(),
        }
    }

    /// The endpoint a frame travelling in `dir` arrives at.
    pub fn dest(&self, dir: LinkDir) -> Endpoint {
        match dir {
            LinkDir::AtoB => self.b,
            LinkDir::BtoA => self.a,
        }
    }

    /// The direction for frames originating at `from`.
    ///
    /// Returns `None` when `from` is not an endpoint of this link.
    pub fn dir_from(&self, from: Endpoint) -> Option<LinkDir> {
        if self.a == from {
            Some(LinkDir::AtoB)
        } else if self.b == from {
            Some(LinkDir::BtoA)
        } else {
            None
        }
    }

    /// The physical parameters this link was created with.
    pub fn params(&self) -> LinkParams {
        self.params
    }

    /// Delivery counters for `dir`.
    pub fn stats(&self, dir: LinkDir) -> LinkStats {
        self.stats[dir.index()]
    }

    /// True if the given direction (or the whole link) is administratively
    /// down.
    pub fn is_down(&self, dir: LinkDir) -> bool {
        self.dirs[dir.index()].down
    }

    /// Administratively downs both directions (cable cut).
    pub fn set_down(&mut self, down: bool) {
        for d in &mut self.dirs {
            d.down = down;
        }
    }

    /// Administratively downs one direction only.
    pub fn set_dir_down(&mut self, dir: LinkDir, down: bool) {
        self.dirs[dir.index()].down = down;
    }

    /// Sets the per-frame loss probability for `dir`.
    pub fn set_loss(&mut self, dir: LinkDir, prob: f64) {
        self.dirs[dir.index()].loss_prob = prob;
    }

    /// Drops every frame in `dir` until `until`.
    pub fn set_drop_window(&mut self, dir: LinkDir, until: SimTime) {
        self.dirs[dir.index()].drop_until = until;
    }

    /// Drops the next `n` frames in `dir`.
    pub fn set_drop_next(&mut self, dir: LinkDir, n: u64) {
        self.dirs[dir.index()].drop_next = n;
    }

    /// Flips one payload bit in each of the next `n` frames in `dir`
    /// (electrical noise; the corrupted frame still arrives).
    pub fn set_corrupt_next(&mut self, dir: LinkDir, n: u64) {
        self.dirs[dir.index()].corrupt_next = n;
    }

    /// Consumes one unit of the corruption budget for `dir`, returning
    /// whether the caller should corrupt the frame it is about to
    /// transmit. The world calls this before [`LinkState::transmit`].
    pub fn consume_corrupt(&mut self, dir: LinkDir) -> bool {
        let i = dir.index();
        if self.dirs[i].corrupt_next > 0 {
            self.dirs[i].corrupt_next -= 1;
            self.stats[i].corrupted += 1;
            true
        } else {
            false
        }
    }

    /// Transmits each of the next `n` frames in `dir` twice (a flapping
    /// switch port or a mis-mirrored segment; TCP and the checksummed
    /// control formats must absorb exact duplicates).
    pub fn set_dup_next(&mut self, dir: LinkDir, n: u64) {
        self.dirs[dir.index()].dup_next = n;
    }

    /// Consumes one unit of the duplication budget for `dir`, returning
    /// whether the caller should transmit the frame it is about to offer
    /// twice. The world calls this before [`LinkState::transmit`].
    pub fn consume_dup(&mut self, dir: LinkDir) -> bool {
        let i = dir.index();
        if self.dirs[i].dup_next > 0 {
            self.dirs[i].dup_next -= 1;
            self.stats[i].duplicated += 1;
            true
        } else {
            false
        }
    }

    /// Swaps each of the next `n` frames in `dir` with the frame that
    /// follows it: the budgeted frame is held back and released just
    /// behind its successor.
    pub fn set_reorder_next(&mut self, dir: LinkDir, n: u64) {
        self.dirs[dir.index()].reorder_next = n;
    }

    /// Sets a per-frame uniform delivery jitter bound for `dir`: each
    /// delivered frame's arrival is delayed by a seeded random amount in
    /// `[0, max]`. `SimDuration::ZERO` clears the fault.
    pub fn set_jitter(&mut self, dir: LinkDir, max: SimDuration) {
        self.dirs[dir.index()].jitter_max_us = max.as_micros();
    }

    /// Installs a targeted drop filter for `dir`: frames for which the
    /// filter returns `true` are dropped. Replaces any existing filter.
    pub fn set_filter(&mut self, dir: LinkDir, filter: Option<DropFilter>) {
        self.dirs[dir.index()].filter = filter;
    }

    /// Offers a frame for transmission in `dir` at time `now`.
    ///
    /// Applies, in order: administrative state, drop window, drop-next
    /// budget, targeted filter, probabilistic loss; then computes the
    /// arrival time from FIFO serialization against the bandwidth cap plus
    /// propagation latency.
    pub fn transmit(
        &mut self,
        now: SimTime,
        dir: LinkDir,
        frame: &EthernetFrame,
        rng: &mut SimRng,
    ) -> TxOutcome {
        let i = dir.index();
        self.stats[i].offered += 1;
        let d = &mut self.dirs[i];
        if d.down {
            self.stats[i].dropped_down += 1;
            return TxOutcome::Dropped;
        }
        if now < d.drop_until {
            self.stats[i].dropped_loss += 1;
            return TxOutcome::Dropped;
        }
        if d.drop_next > 0 {
            d.drop_next -= 1;
            self.stats[i].dropped_loss += 1;
            return TxOutcome::Dropped;
        }
        if let Some(f) = d.filter.as_mut() {
            if f(frame) {
                self.stats[i].dropped_loss += 1;
                return TxOutcome::Dropped;
            }
        }
        if d.loss_prob > 0.0 && rng.chance(d.loss_prob) {
            self.stats[i].dropped_loss += 1;
            return TxOutcome::Dropped;
        }
        let start = if now > d.busy_until {
            now
        } else {
            d.busy_until
        };
        let ser = match self.params.bandwidth_bps {
            Some(bps) => SimDuration::transmission(frame.wire_len(), bps),
            None => SimDuration::ZERO,
        };
        d.busy_until = start + ser;
        let mut arrival = d.busy_until + self.params.latency;
        if d.jitter_max_us > 0 {
            arrival += SimDuration::from_micros(rng.range_u64(0, d.jitter_max_us + 1));
        }
        if let Some((held_at, held_frame)) = d.held.take() {
            // A held frame rides out just behind the frame that released
            // it, strictly after it, so the pair arrives swapped.
            let release_at = if held_at > arrival {
                held_at
            } else {
                arrival + SimDuration::from_micros(1)
            };
            self.stats[i].delivered += 2;
            self.stats[i].bytes_delivered +=
                frame.payload.len() as u64 + held_frame.payload.len() as u64;
            return TxOutcome::DeliverAndRelease {
                at: arrival,
                released: (release_at, held_frame),
            };
        }
        if d.reorder_next > 0 {
            d.reorder_next -= 1;
            d.held = Some((arrival, frame.clone()));
            self.stats[i].reordered += 1;
            return TxOutcome::Held;
        }
        self.stats[i].delivered += 1;
        self.stats[i].bytes_delivered += frame.payload.len() as u64;
        TxOutcome::Deliver(arrival)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::EtherType;
    use crate::mac::MacAddr;
    use bytes::Bytes;

    fn ep(n: usize) -> Endpoint {
        Endpoint::Node {
            node: NodeId(n),
            nic: NicId(0),
        }
    }

    fn frame(len: usize) -> EthernetFrame {
        EthernetFrame::new(
            MacAddr::unicast(1),
            MacAddr::unicast(2),
            EtherType::Ipv4,
            Bytes::from(vec![0u8; len]),
        )
    }

    fn link(params: LinkParams) -> LinkState {
        LinkState::new(ep(0), ep(1), params)
    }

    #[test]
    fn ideal_link_delivers_at_latency() {
        let mut l = link(LinkParams::ideal().with_latency(SimDuration::from_micros(100)));
        let mut rng = SimRng::seed_from(1);
        let out = l.transmit(
            SimTime::from_millis(1),
            LinkDir::AtoB,
            &frame(100),
            &mut rng,
        );
        assert_eq!(
            out,
            TxOutcome::Deliver(SimTime::from_millis(1) + SimDuration::from_micros(100))
        );
    }

    #[test]
    fn bandwidth_serialization_queues_fifo() {
        // 1 Mbit/s: a 1000-byte payload frame (1014B wire) takes 8112 µs.
        let mut l = link(LinkParams {
            latency: SimDuration::ZERO,
            bandwidth_bps: Some(1_000_000),
        });
        let mut rng = SimRng::seed_from(1);
        let t0 = SimTime::ZERO;
        let f = frame(1000);
        let ser = SimDuration::transmission(f.wire_len(), 1_000_000);
        let first = l.transmit(t0, LinkDir::AtoB, &f, &mut rng);
        let second = l.transmit(t0, LinkDir::AtoB, &f, &mut rng);
        assert_eq!(first, TxOutcome::Deliver(t0 + ser));
        assert_eq!(second, TxOutcome::Deliver(t0 + ser * 2));
    }

    #[test]
    fn directions_have_independent_queues() {
        let mut l = link(LinkParams {
            latency: SimDuration::ZERO,
            bandwidth_bps: Some(1_000_000),
        });
        let mut rng = SimRng::seed_from(1);
        let f = frame(1000);
        let ser = SimDuration::transmission(f.wire_len(), 1_000_000);
        let _ = l.transmit(SimTime::ZERO, LinkDir::AtoB, &f, &mut rng);
        // The reverse direction is not delayed by forward traffic.
        let rev = l.transmit(SimTime::ZERO, LinkDir::BtoA, &f, &mut rng);
        assert_eq!(rev, TxOutcome::Deliver(SimTime::ZERO + ser));
    }

    #[test]
    fn down_link_drops_and_counts() {
        let mut l = link(LinkParams::ideal());
        let mut rng = SimRng::seed_from(1);
        l.set_down(true);
        assert_eq!(
            l.transmit(SimTime::ZERO, LinkDir::AtoB, &frame(10), &mut rng),
            TxOutcome::Dropped
        );
        assert_eq!(l.stats(LinkDir::AtoB).dropped_down, 1);
        l.set_down(false);
        assert!(matches!(
            l.transmit(SimTime::ZERO, LinkDir::AtoB, &frame(10), &mut rng),
            TxOutcome::Deliver(_)
        ));
    }

    #[test]
    fn one_direction_down_leaves_other_up() {
        let mut l = link(LinkParams::ideal());
        let mut rng = SimRng::seed_from(1);
        l.set_dir_down(LinkDir::AtoB, true);
        assert_eq!(
            l.transmit(SimTime::ZERO, LinkDir::AtoB, &frame(10), &mut rng),
            TxOutcome::Dropped
        );
        assert!(matches!(
            l.transmit(SimTime::ZERO, LinkDir::BtoA, &frame(10), &mut rng),
            TxOutcome::Deliver(_)
        ));
        assert!(l.is_down(LinkDir::AtoB));
        assert!(!l.is_down(LinkDir::BtoA));
    }

    #[test]
    fn drop_window_expires() {
        let mut l = link(LinkParams::ideal());
        let mut rng = SimRng::seed_from(1);
        l.set_drop_window(LinkDir::AtoB, SimTime::from_millis(10));
        assert_eq!(
            l.transmit(SimTime::from_millis(5), LinkDir::AtoB, &frame(1), &mut rng),
            TxOutcome::Dropped
        );
        assert!(matches!(
            l.transmit(SimTime::from_millis(10), LinkDir::AtoB, &frame(1), &mut rng),
            TxOutcome::Deliver(_)
        ));
    }

    #[test]
    fn drop_next_budget_decrements() {
        let mut l = link(LinkParams::ideal());
        let mut rng = SimRng::seed_from(1);
        l.set_drop_next(LinkDir::AtoB, 2);
        for _ in 0..2 {
            assert_eq!(
                l.transmit(SimTime::ZERO, LinkDir::AtoB, &frame(1), &mut rng),
                TxOutcome::Dropped
            );
        }
        assert!(matches!(
            l.transmit(SimTime::ZERO, LinkDir::AtoB, &frame(1), &mut rng),
            TxOutcome::Deliver(_)
        ));
        assert_eq!(l.stats(LinkDir::AtoB).dropped_loss, 2);
    }

    #[test]
    fn filter_drops_matching_frames() {
        let mut l = link(LinkParams::ideal());
        let mut rng = SimRng::seed_from(1);
        l.set_filter(
            LinkDir::AtoB,
            Some(Box::new(|f: &EthernetFrame| f.payload.len() > 50)),
        );
        assert!(matches!(
            l.transmit(SimTime::ZERO, LinkDir::AtoB, &frame(10), &mut rng),
            TxOutcome::Deliver(_)
        ));
        assert_eq!(
            l.transmit(SimTime::ZERO, LinkDir::AtoB, &frame(100), &mut rng),
            TxOutcome::Dropped
        );
        l.set_filter(LinkDir::AtoB, None);
        assert!(matches!(
            l.transmit(SimTime::ZERO, LinkDir::AtoB, &frame(100), &mut rng),
            TxOutcome::Deliver(_)
        ));
    }

    #[test]
    fn probabilistic_loss_is_seeded() {
        let run = |seed: u64| -> Vec<bool> {
            let mut l = link(LinkParams::ideal());
            l.set_loss(LinkDir::AtoB, 0.5);
            let mut rng = SimRng::seed_from(seed);
            (0..64)
                .map(|_| {
                    matches!(
                        l.transmit(SimTime::ZERO, LinkDir::AtoB, &frame(1), &mut rng),
                        TxOutcome::Deliver(_)
                    )
                })
                .collect()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn dir_from_and_dest() {
        let l = link(LinkParams::ideal());
        assert_eq!(l.dir_from(ep(0)), Some(LinkDir::AtoB));
        assert_eq!(l.dir_from(ep(1)), Some(LinkDir::BtoA));
        assert_eq!(l.dir_from(ep(2)), None);
        assert_eq!(l.dest(LinkDir::AtoB), ep(1));
        assert_eq!(l.dest(LinkDir::BtoA), ep(0));
        assert_eq!(LinkDir::AtoB.flip(), LinkDir::BtoA);
    }

    #[test]
    fn dup_budget_decrements_and_counts() {
        let mut l = link(LinkParams::ideal());
        l.set_dup_next(LinkDir::AtoB, 2);
        assert!(l.consume_dup(LinkDir::AtoB));
        assert!(l.consume_dup(LinkDir::AtoB));
        assert!(!l.consume_dup(LinkDir::AtoB));
        assert!(!l.consume_dup(LinkDir::BtoA));
        assert_eq!(l.stats(LinkDir::AtoB).duplicated, 2);
    }

    #[test]
    fn reorder_swaps_adjacent_frames() {
        let mut l = link(LinkParams::ideal().with_latency(SimDuration::from_micros(10)));
        let mut rng = SimRng::seed_from(1);
        l.set_reorder_next(LinkDir::AtoB, 1);
        let first = l.transmit(SimTime::ZERO, LinkDir::AtoB, &frame(10), &mut rng);
        assert_eq!(first, TxOutcome::Held);
        let second = l.transmit(SimTime::from_micros(5), LinkDir::AtoB, &frame(20), &mut rng);
        match second {
            TxOutcome::DeliverAndRelease { at, released } => {
                assert!(released.0 > at, "held frame must land after its successor");
                assert_eq!(released.1.payload.len(), 10);
            }
            other => panic!("expected DeliverAndRelease, got {other:?}"),
        }
        assert_eq!(l.stats(LinkDir::AtoB).reordered, 1);
        assert_eq!(l.stats(LinkDir::AtoB).delivered, 2);
        // Budget exhausted: the next frame flows through normally.
        assert!(matches!(
            l.transmit(SimTime::from_micros(9), LinkDir::AtoB, &frame(1), &mut rng),
            TxOutcome::Deliver(_)
        ));
    }

    #[test]
    fn unreleased_held_frame_is_a_single_loss() {
        let mut l = link(LinkParams::ideal());
        let mut rng = SimRng::seed_from(1);
        l.set_reorder_next(LinkDir::AtoB, 1);
        assert_eq!(
            l.transmit(SimTime::ZERO, LinkDir::AtoB, &frame(10), &mut rng),
            TxOutcome::Held
        );
        // No successor ever arrives: offered 1, delivered 0.
        let s = l.stats(LinkDir::AtoB);
        assert_eq!(s.offered, 1);
        assert_eq!(s.delivered, 0);
    }

    #[test]
    fn jitter_delays_within_bound_and_is_seeded() {
        let run = |seed: u64| -> Vec<u64> {
            let mut l = link(LinkParams::ideal());
            l.set_jitter(LinkDir::AtoB, SimDuration::from_micros(100));
            let mut rng = SimRng::seed_from(seed);
            (0..32)
                .map(
                    |_| match l.transmit(SimTime::ZERO, LinkDir::AtoB, &frame(1), &mut rng) {
                        TxOutcome::Deliver(at) => at.as_micros(),
                        other => panic!("unexpected outcome {other:?}"),
                    },
                )
                .collect()
        };
        let a = run(42);
        assert!(a.iter().all(|&t| t <= 100));
        assert!(a.iter().any(|&t| t > 0));
        assert_eq!(a, run(42));
        assert_ne!(a, run(43));
    }

    #[test]
    fn zero_jitter_clears_the_fault() {
        let mut l = link(LinkParams::ideal());
        let mut rng = SimRng::seed_from(1);
        l.set_jitter(LinkDir::AtoB, SimDuration::from_micros(50));
        l.set_jitter(LinkDir::AtoB, SimDuration::ZERO);
        assert_eq!(
            l.transmit(SimTime::ZERO, LinkDir::AtoB, &frame(1), &mut rng),
            TxOutcome::Deliver(SimTime::ZERO)
        );
    }

    #[test]
    fn stats_track_bytes() {
        let mut l = link(LinkParams::ideal());
        let mut rng = SimRng::seed_from(1);
        let _ = l.transmit(SimTime::ZERO, LinkDir::AtoB, &frame(100), &mut rng);
        let s = l.stats(LinkDir::AtoB);
        assert_eq!(s.offered, 1);
        assert_eq!(s.delivered, 1);
        assert_eq!(s.bytes_delivered, 100);
    }
}
