//! Fault injection.
//!
//! Exposes every failure class from the paper's Table 1 as a first-class,
//! schedulable operation on the [`World`]:
//!
//! | Paper failure                  | Injection call |
//! |--------------------------------|----------------|
//! | HW/OS crash                    | [`World::crash_node`] |
//! | Application crash (±cleanup)   | injected at the app layer (`sttcp-apps`) |
//! | NIC failure                    | [`World::fail_nic`] |
//! | Cable failure                  | [`World::cut_link`] |
//! | Temporary network failure      | [`World::set_link_loss`], [`World::drop_window`], [`World::drop_next`] |
//! | Serial-cable failure           | [`World::fail_serial`] |
//!
//! All of these can be invoked immediately or scheduled at a virtual time
//! via [`World::schedule`]. Each goes through [`World::note_fault`], which
//! appends to the uncapped fault-episode log ([`World::faults`]: tests
//! assert on injection order, metrics attribute symptoms to faults) and
//! records a flight event.

use crate::link::{DropFilter, LinkDir, LinkId};
use crate::node::{NicId, NodeId};
use crate::serial::SerialId;
use crate::time::SimTime;
use crate::world::World;

impl World {
    /// Crashes a node at the hardware/OS level: it immediately loses power
    /// and stops sending, receiving, and processing. This is the paper's
    /// "HW/OS crash failure" (Table 1, row 1) and is also what the STONITH
    /// power-down performs.
    pub fn crash_node(&mut self, node: NodeId) {
        let name = self.node_name(node).to_string();
        self.note_fault(format!("crash {name}"));
        self.force_power_off(node);
    }

    /// Restores power to a crashed/powered-off node (cold boot). The node
    /// receives [`crate::node::Node::on_power_on`].
    pub fn restore_node(&mut self, node: NodeId) {
        let name = self.node_name(node).to_string();
        self.note_fault(format!("power on {name}"));
        self.force_power_on(node);
    }

    /// Schedules power restoration for `node` after `delay` (a repair
    /// action arriving some time after a crash).
    pub fn power_on_after(&mut self, node: NodeId, delay: crate::time::SimDuration) {
        let at = self.now() + delay;
        self.push_event(at, crate::event::Ev::PowerOn { node });
    }

    /// Fails a NIC: frames in either direction are silently dropped from
    /// now on (Table 1, row 4).
    pub fn fail_nic(&mut self, node: NodeId, nic: NicId) {
        let name = self.node_name(node).to_string();
        self.note_fault(format!("fail nic{} on {name}", nic.0));
        self.nodes[node.0].nics[nic.0].up = false;
    }

    /// Restores a failed NIC.
    pub fn restore_nic(&mut self, node: NodeId, nic: NicId) {
        let name = self.node_name(node).to_string();
        self.note_fault(format!("restore nic{} on {name}", nic.0));
        self.nodes[node.0].nics[nic.0].up = true;
    }

    /// Cuts a cable: the link drops all frames in both directions.
    pub fn cut_link(&mut self, link: LinkId) {
        self.note_fault(format!("cut link {}", link.0));
        self.link_mut(link).set_down(true);
    }

    /// Restores a cut cable.
    pub fn restore_link(&mut self, link: LinkId) {
        self.note_fault(format!("restore link {}", link.0));
        self.link_mut(link).set_down(false);
    }

    /// Sets a probabilistic per-frame loss rate on one direction of a link
    /// (temporary network failure, Table 1 row 5).
    pub fn set_link_loss(&mut self, link: LinkId, dir: LinkDir, prob: f64) {
        self.note_fault(format!("loss {prob} on link {} {dir}", link.0));
        self.link_mut(link).set_loss(dir, prob);
    }

    /// Drops every frame on one direction of a link until `until`.
    pub fn drop_window(&mut self, link: LinkId, dir: LinkDir, until: SimTime) {
        self.note_fault(format!(
            "drop window on link {} {dir} until {until}",
            link.0
        ));
        self.link_mut(link).set_drop_window(dir, until);
    }

    /// Drops the next `n` frames on one direction of a link.
    pub fn drop_next(&mut self, link: LinkId, dir: LinkDir, n: u64) {
        self.note_fault(format!("drop next {n} on link {} {dir}", link.0));
        self.link_mut(link).set_drop_next(dir, n);
    }

    /// Corrupts the next `n` frames on one direction of a link: each has
    /// one payload bit flipped in flight (bad cable / flaky switch port).
    /// Frames protected by a checksum arrive and fail verification; the
    /// receiver must treat them as loss, never act on the contents.
    pub fn corrupt_frames(&mut self, link: LinkId, dir: LinkDir, n: u64) {
        self.note_fault(format!("corrupt next {n} on link {} {dir}", link.0));
        self.link_mut(link).set_corrupt_next(dir, n);
    }

    /// Duplicates the next `n` frames on one direction of a link: each is
    /// transmitted twice, back to back (flapping switch port / mis-mirrored
    /// segment). TCP and the checksummed control formats must absorb exact
    /// duplicates without mis-verdicting.
    pub fn dup_frames(&mut self, link: LinkId, dir: LinkDir, n: u64) {
        self.note_fault(format!("dup next {n} on link {} {dir}", link.0));
        self.link_mut(link).set_dup_next(dir, n);
    }

    /// Reorders the next `n` frames on one direction of a link: each
    /// budgeted frame is held back and released just behind its successor,
    /// so the pair arrives swapped. A held frame with no successor decays
    /// into a single-frame loss.
    pub fn reorder_frames(&mut self, link: LinkId, dir: LinkDir, n: u64) {
        self.note_fault(format!("reorder next {n} on link {} {dir}", link.0));
        self.link_mut(link).set_reorder_next(dir, n);
    }

    /// Adds a seeded uniform per-frame delivery jitter in `[0, max]` to one
    /// direction of a link (congested segment / queueing wobble). Pass
    /// `SimDuration::ZERO` to clear.
    pub fn set_link_jitter(&mut self, link: LinkId, dir: LinkDir, max: crate::time::SimDuration) {
        self.note_fault(format!(
            "jitter {}us on link {} {dir}",
            max.as_micros(),
            link.0
        ));
        self.link_mut(link).set_jitter(dir, max);
    }

    /// Installs a targeted drop filter on one direction of a link; frames
    /// for which the filter returns `true` are dropped. Pass `None` to
    /// clear. Lets tests lose, say, only TCP data frames while heartbeats
    /// survive.
    pub fn set_link_filter(&mut self, link: LinkId, dir: LinkDir, filter: Option<DropFilter>) {
        self.note_fault(format!("filter on link {} {dir}", link.0));
        self.link_mut(link).set_filter(dir, filter);
    }

    /// Fails a serial channel (null-modem cable unplugged).
    pub fn fail_serial(&mut self, serial: SerialId) {
        self.note_fault(format!("fail serial {}", serial.0));
        self.serial_mut(serial).set_down(true);
    }

    /// Restores a failed serial channel.
    pub fn restore_serial(&mut self, serial: SerialId) {
        self.note_fault(format!("restore serial {}", serial.0));
        self.serial_mut(serial).set_down(false);
    }

    /// Immediately powers a node off (no event-queue round trip). Used by
    /// `crash_node` and directly by tests.
    pub fn force_power_off(&mut self, node: NodeId) {
        self.do_power_off(node);
    }

    /// Immediately powers a node on (cold boot); the node receives
    /// [`crate::node::Node::on_power_on`].
    pub fn force_power_on(&mut self, node: NodeId) {
        self.do_power_on(node);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{EtherType, EthernetFrame};
    use crate::link::LinkParams;
    use crate::mac::MacAddr;
    use crate::node::{Node, NodeCtx, TimerToken};
    use crate::time::{SimDuration, SimTime};
    use bytes::Bytes;

    /// When the first logged fault whose description contains `needle`
    /// was injected.
    fn fault_at(w: &World, needle: &str) -> Option<SimTime> {
        let (at, _) = w.faults().iter().find(|(_, what)| what.contains(needle))?;
        Some(*at)
    }

    /// Sends one frame per millisecond; counts what it receives.
    struct Pulser {
        me: MacAddr,
        peer: MacAddr,
        sent: u32,
        received: u32,
        powered_off_seen: bool,
    }

    impl Pulser {
        fn new(me: MacAddr, peer: MacAddr) -> Pulser {
            Pulser {
                me,
                peer,
                sent: 0,
                received: 0,
                powered_off_seen: false,
            }
        }
    }

    impl Node for Pulser {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            ctx.set_timer(SimDuration::from_millis(1), TimerToken(0));
        }
        fn on_frame(&mut self, _: &mut NodeCtx<'_>, _: crate::node::NicId, _: EthernetFrame) {
            self.received += 1;
        }
        fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _: TimerToken) {
            self.sent += 1;
            ctx.send_frame(
                crate::node::NicId(0),
                EthernetFrame::new(self.me, self.peer, EtherType::Ipv4, Bytes::new()),
            );
            ctx.set_timer(SimDuration::from_millis(1), TimerToken(0));
        }
        fn on_power_off(&mut self) {
            self.powered_off_seen = true;
        }
    }

    fn pulsing_pair() -> (World, NodeId, NodeId, LinkId) {
        let mut w = World::new(7);
        let ma = MacAddr::unicast(1);
        let mb = MacAddr::unicast(2);
        let a = w.add_node("a", Box::new(Pulser::new(ma, mb)));
        let b = w.add_node("b", Box::new(Pulser::new(mb, ma)));
        let na = w.add_nic(a, ma);
        let nb = w.add_nic(b, mb);
        let l = w.connect_nodes((a, na), (b, nb), LinkParams::ideal());
        (w, a, b, l)
    }

    #[test]
    fn crash_stops_a_node_cold() {
        let (mut w, a, b, _) = pulsing_pair();
        w.start();
        w.run_until(SimTime::from_millis(10));
        let before = w.node::<Pulser>(b).unwrap().received;
        assert!(before > 0);
        w.crash_node(a);
        w.run_until(SimTime::from_millis(30));
        let after = w.node::<Pulser>(b).unwrap().received;
        assert_eq!(after, before, "crashed node kept transmitting");
        assert!(w.node::<Pulser>(a).unwrap().powered_off_seen);
        assert!(fault_at(&w, "crash a").is_some());
    }

    #[test]
    fn restore_node_reboots() {
        let (mut w, a, _b, _) = pulsing_pair();
        w.start();
        w.run_until(SimTime::from_millis(5));
        w.crash_node(a);
        assert!(!w.is_powered(a));
        w.restore_node(a);
        assert!(w.is_powered(a));
        // Double restore is a no-op.
        w.restore_node(a);
        assert!(w.is_powered(a));
    }

    #[test]
    fn nic_failure_blocks_both_directions() {
        let (mut w, a, b, _) = pulsing_pair();
        w.start();
        w.run_until(SimTime::from_millis(10));
        w.fail_nic(a, crate::node::NicId(0));
        let a_rx = w.node::<Pulser>(a).unwrap().received;
        let b_rx = w.node::<Pulser>(b).unwrap().received;
        w.run_until(SimTime::from_millis(30));
        assert_eq!(w.node::<Pulser>(a).unwrap().received, a_rx);
        assert_eq!(w.node::<Pulser>(b).unwrap().received, b_rx);
        // But the node itself keeps running (its timers fire).
        assert!(w.node::<Pulser>(a).unwrap().sent > 10);
        w.restore_nic(a, crate::node::NicId(0));
        w.run_until(SimTime::from_millis(40));
        assert!(w.node::<Pulser>(b).unwrap().received > b_rx);
    }

    #[test]
    fn cut_and_restore_link() {
        let (mut w, _a, b, l) = pulsing_pair();
        w.start();
        w.run_until(SimTime::from_millis(10));
        w.cut_link(l);
        let rx = w.node::<Pulser>(b).unwrap().received;
        w.run_until(SimTime::from_millis(20));
        assert_eq!(w.node::<Pulser>(b).unwrap().received, rx);
        w.restore_link(l);
        w.run_until(SimTime::from_millis(30));
        assert!(w.node::<Pulser>(b).unwrap().received > rx);
    }

    #[test]
    fn drop_window_and_drop_next() {
        let (mut w, _a, b, l) = pulsing_pair();
        w.start();
        // Drop everything a→b for the first 10ms: ~10 frames lost.
        w.drop_window(l, LinkDir::AtoB, SimTime::from_millis(10));
        w.run_until(SimTime::from_millis(20));
        let got = w.node::<Pulser>(b).unwrap().received;
        assert!((8..=12).contains(&got), "got {got}");
        w.drop_next(l, LinkDir::AtoB, 3);
        w.run_until(SimTime::from_millis(26));
        let got2 = w.node::<Pulser>(b).unwrap().received;
        assert!(got2 >= got + 2 && got2 <= got + 4, "got2 {got2}");
    }

    #[test]
    fn scheduled_injection_happens_at_time() {
        let (mut w, a, b, _) = pulsing_pair();
        w.start();
        w.schedule(SimTime::from_millis(15), move |w| w.crash_node(a));
        w.run_until(SimTime::from_millis(40));
        let rx = w.node::<Pulser>(b).unwrap().received;
        assert!((13..=16).contains(&rx), "rx {rx}");
        assert_eq!(fault_at(&w, "crash"), Some(SimTime::from_millis(15)));
    }

    /// Sends one 8-byte payload per millisecond; records every payload it
    /// receives.
    struct PayloadPulser {
        me: MacAddr,
        peer: MacAddr,
        got: Vec<Vec<u8>>,
    }

    impl Node for PayloadPulser {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            ctx.set_timer(SimDuration::from_millis(1), TimerToken(0));
        }
        fn on_frame(&mut self, _: &mut NodeCtx<'_>, _: crate::node::NicId, f: EthernetFrame) {
            self.got.push(f.payload.to_vec());
        }
        fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _: TimerToken) {
            ctx.send_frame(
                crate::node::NicId(0),
                EthernetFrame::new(
                    self.me,
                    self.peer,
                    EtherType::Ipv4,
                    Bytes::from_static(&[0xAB; 8]),
                ),
            );
            ctx.set_timer(SimDuration::from_millis(1), TimerToken(0));
        }
    }

    #[test]
    fn corrupt_frames_flips_one_bit_then_stops() {
        let mut w = World::new(21);
        let ma = MacAddr::unicast(1);
        let mb = MacAddr::unicast(2);
        let a = w.add_node(
            "a",
            Box::new(PayloadPulser {
                me: ma,
                peer: mb,
                got: Vec::new(),
            }),
        );
        let b = w.add_node(
            "b",
            Box::new(PayloadPulser {
                me: mb,
                peer: ma,
                got: Vec::new(),
            }),
        );
        let na = w.add_nic(a, ma);
        let nb = w.add_nic(b, mb);
        let l = w.connect_nodes((a, na), (b, nb), LinkParams::ideal());
        w.start();
        w.corrupt_frames(l, LinkDir::AtoB, 2);
        w.run_until(SimTime::from_millis(10));
        let got = &w.node::<PayloadPulser>(b).unwrap().got;
        assert!(got.len() >= 5, "got {} frames", got.len());
        let diff_bits = |p: &[u8]| -> u32 {
            p.iter()
                .zip([0xABu8; 8].iter())
                .map(|(x, y)| (x ^ y).count_ones())
                .sum()
        };
        // Exactly the first two frames are corrupted, each by one bit.
        assert_eq!(diff_bits(&got[0]), 1, "frame 0: {:?}", got[0]);
        assert_eq!(diff_bits(&got[1]), 1, "frame 1: {:?}", got[1]);
        for (i, p) in got.iter().enumerate().skip(2) {
            assert_eq!(diff_bits(p), 0, "frame {i} corrupted past budget");
        }
        assert_eq!(w.link(l).stats(LinkDir::AtoB).corrupted, 2);
        assert!(fault_at(&w, "corrupt next 2").is_some());
    }

    /// Sends one frame per millisecond carrying a sequence number;
    /// records the sequence numbers it receives.
    struct SeqPulser {
        me: MacAddr,
        peer: MacAddr,
        next: u8,
        got: Vec<u8>,
    }

    impl Node for SeqPulser {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            ctx.set_timer(SimDuration::from_millis(1), TimerToken(0));
        }
        fn on_frame(&mut self, _: &mut NodeCtx<'_>, _: crate::node::NicId, f: EthernetFrame) {
            self.got.push(f.payload[0]);
        }
        fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _: TimerToken) {
            ctx.send_frame(
                crate::node::NicId(0),
                EthernetFrame::new(
                    self.me,
                    self.peer,
                    EtherType::Ipv4,
                    Bytes::from(vec![self.next]),
                ),
            );
            self.next = self.next.wrapping_add(1);
            ctx.set_timer(SimDuration::from_millis(1), TimerToken(0));
        }
    }

    fn seq_pair() -> (World, NodeId, NodeId, LinkId) {
        let mut w = World::new(31);
        let ma = MacAddr::unicast(1);
        let mb = MacAddr::unicast(2);
        let a = w.add_node(
            "a",
            Box::new(SeqPulser {
                me: ma,
                peer: mb,
                next: 0,
                got: Vec::new(),
            }),
        );
        let b = w.add_node(
            "b",
            Box::new(SeqPulser {
                me: mb,
                peer: ma,
                next: 0,
                got: Vec::new(),
            }),
        );
        let na = w.add_nic(a, ma);
        let nb = w.add_nic(b, mb);
        let l = w.connect_nodes((a, na), (b, nb), LinkParams::ideal());
        (w, a, b, l)
    }

    #[test]
    fn dup_frames_delivers_exact_duplicates() {
        let (mut w, a, b, l) = seq_pair();
        w.start();
        w.dup_frames(l, LinkDir::AtoB, 2);
        w.run_until(SimTime::from_millis(10));
        let sent = w.node::<SeqPulser>(a).unwrap().next as usize;
        let got = &w.node::<SeqPulser>(b).unwrap().got;
        assert_eq!(got.len(), sent + 2, "got {got:?}");
        // The first two frames each arrive twice, back to back.
        assert_eq!(&got[..4], &[0, 0, 1, 1]);
        assert_eq!(w.link(l).stats(LinkDir::AtoB).duplicated, 2);
        assert!(fault_at(&w, "dup next 2").is_some());
    }

    #[test]
    fn reorder_frames_swaps_delivery_order() {
        let (mut w, _a, b, l) = seq_pair();
        w.start();
        w.reorder_frames(l, LinkDir::AtoB, 1);
        w.run_until(SimTime::from_millis(10));
        let got = &w.node::<SeqPulser>(b).unwrap().got;
        // Frame 0 was held and released behind frame 1; everything after
        // flows in order.
        assert!(got.len() >= 4, "got {got:?}");
        assert_eq!(&got[..2], &[1, 0], "got {got:?}");
        assert!(got[2..].windows(2).all(|w| w[1] == w[0] + 1));
        assert!(fault_at(&w, "reorder next 1").is_some());
    }

    #[test]
    fn link_jitter_delays_but_loses_nothing() {
        let (mut w, a, b, l) = seq_pair();
        w.start();
        w.set_link_jitter(l, LinkDir::AtoB, SimDuration::from_micros(200));
        w.run_until(SimTime::from_millis(20));
        let sent = w.node::<SeqPulser>(a).unwrap().next as usize;
        let got = &w.node::<SeqPulser>(b).unwrap().got;
        // Jitter (200µs) stays below the 1ms send spacing: every frame
        // arrives, still in order (the final frame may still be in
        // flight past the horizon).
        assert!(got.len() >= sent - 1, "sent {sent}, got {got:?}");
        assert!(got.windows(2).all(|w| w[1] == w[0] + 1));
        // Clearing the fault restores deterministic zero-latency delivery.
        w.set_link_jitter(l, LinkDir::AtoB, SimDuration::ZERO);
        w.run_until(SimTime::from_millis(30));
        assert!(fault_at(&w, "jitter 200us").is_some());
    }

    #[test]
    fn filter_injection_targets_specific_frames() {
        let (mut w, _a, b, l) = pulsing_pair();
        w.start();
        w.run_until(SimTime::from_millis(5));
        let rx = w.node::<Pulser>(b).unwrap().received;
        // Drop everything (all frames match).
        w.set_link_filter(l, LinkDir::AtoB, Some(Box::new(|_| true)));
        w.run_until(SimTime::from_millis(10));
        assert_eq!(w.node::<Pulser>(b).unwrap().received, rx);
        w.set_link_filter(l, LinkDir::AtoB, None);
        w.run_until(SimTime::from_millis(15));
        assert!(w.node::<Pulser>(b).unwrap().received > rx);
    }
}
