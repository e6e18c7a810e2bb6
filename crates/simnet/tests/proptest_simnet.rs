//! Property-based tests for the simulation substrate: checksum algebra,
//! wire-format round-trips, time arithmetic, and deterministic event
//! ordering.

use bytes::Bytes;
use proptest::collection::vec;
use proptest::prelude::*;
use std::net::Ipv4Addr;

use simnet::frame::{EtherType, EthernetFrame};
use simnet::ip::{internet_checksum, IcmpMessage, IpProto, Ipv4Packet};
use simnet::mac::MacAddr;
use simnet::time::{SimDuration, SimTime};

/// Textbook scalar RFC 1071 checksum: two bytes at a time, fold at the
/// end — the reference the optimized accumulator is pinned against.
fn scalar_checksum(data: &[u8]) -> u16 {
    let mut sum: u32 = 0;
    let mut chunks = data.chunks_exact(2);
    for c in &mut chunks {
        sum += u32::from(u16::from_be_bytes([c[0], c[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u32::from(*last) << 8;
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

/// The grid the proptest below samples, walked whole: every length a
/// frame can carry × every start alignment × a cut of every class (none,
/// even, odd, inside a 32-byte lane group, inside an 8-byte word, last
/// byte) — once as two pushes and once as three, so a push can both
/// start and end on an odd offset.
#[test]
fn checksum_matches_scalar_reference_at_every_length_alignment_and_cut() {
    let mut buf: Vec<u8> = (0..1700u32)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
        .collect();
    buf[40..48].fill(0xff);
    let base = buf.as_ptr().align_offset(8);
    for align in 0..8 {
        for len in 0..=1600 {
            let data = &buf[base + align..][..len];
            let reference = scalar_checksum(data);
            let even = (len / 2) & !1;
            for cut in [
                0,
                even,
                even + 1,
                32 * (len / 64) + 13,
                8 * (len / 16) + 3,
                len - len.min(1),
            ] {
                let cut = cut.min(len);
                let mut two = simnet::ip::ChecksumAccumulator::new();
                two.push(&data[..cut]);
                two.push(&data[cut..]);
                assert_eq!(two.finish(), reference, "align {align} len {len} cut {cut}");
                let mid = (cut / 2) | 1;
                let mut three = simnet::ip::ChecksumAccumulator::new();
                three.push(&data[..mid.min(cut)]);
                three.push(&data[mid.min(cut)..cut]);
                three.push(&data[cut..]);
                assert_eq!(
                    three.finish(),
                    reference,
                    "align {align} len {len} cuts {mid}, {cut}"
                );
            }
        }
    }
}

proptest! {
    // ------------------------------------------------------------------
    // Internet checksum algebra
    // ------------------------------------------------------------------

    #[test]
    fn checksum_verifies_to_zero(data in vec(any::<u8>(), 0..512)) {
        let csum = internet_checksum(&data);
        let mut with = data.clone();
        if with.len() % 2 == 1 {
            with.push(0);
        }
        with.extend_from_slice(&csum.to_be_bytes());
        prop_assert_eq!(internet_checksum(&with), 0);
    }

    #[test]
    fn checksum_detects_single_bit_flips(data in vec(any::<u8>(), 1..256), bit: usize) {
        let original = internet_checksum(&data);
        let mut corrupted = data.clone();
        let i = bit % (data.len() * 8);
        corrupted[i / 8] ^= 1 << (i % 8);
        prop_assert_ne!(internet_checksum(&corrupted), original);
    }

    // Differential pin: the four-lane native-endian accumulator must be
    // byte-identical to the textbook scalar RFC 1071 walk for every
    // input length, alignment, and slice split.
    #[test]
    fn checksum_word_at_a_time_matches_scalar_reference(
        data in vec(any::<u8>(), 0..1600),
        splits in vec(0usize..1600, 0..6),
    ) {
        let reference = scalar_checksum(&data);
        prop_assert_eq!(internet_checksum(&data), reference);
        // Cut the input at arbitrary points — several, so pushes start
        // and end on odd offsets in every combination (the byte-parity
        // carry), with empty pushes where two cuts coincide — and
        // accumulate piecewise, as pseudo-header + header + payload do.
        let mut cuts: Vec<usize> = splits.iter().map(|s| s % (data.len() + 1)).collect();
        cuts.push(data.len());
        cuts.sort_unstable();
        let mut acc = simnet::ip::ChecksumAccumulator::new();
        let mut from = 0;
        for cut in cuts {
            acc.push(&data[from..cut]);
            from = cut;
        }
        prop_assert_eq!(acc.finish(), reference);
    }

    // The high-byte-heavy worst case: carries out of every 32-bit half.
    #[test]
    fn checksum_of_saturated_input_matches_scalar_reference(len in 0usize..70_000, odd in 0usize..9) {
        let data = vec![0xffu8; len];
        let mut acc = simnet::ip::ChecksumAccumulator::new();
        let mid = odd.min(len);
        acc.push(&data[..mid]);
        acc.push(&data[mid..]);
        prop_assert_eq!(acc.finish(), scalar_checksum(&data));
    }

    // ------------------------------------------------------------------
    // Wire-format round trips
    // ------------------------------------------------------------------

    #[test]
    fn ethernet_roundtrip(
        src: [u8; 6],
        dst: [u8; 6],
        ethertype: u16,
        payload in vec(any::<u8>(), 0..1600),
    ) {
        let f = EthernetFrame::new(
            MacAddr(src),
            MacAddr(dst),
            EtherType::from_u16(ethertype),
            Bytes::from(payload),
        );
        prop_assert_eq!(EthernetFrame::decode(&f.encode()).unwrap(), f);
    }

    #[test]
    fn ipv4_roundtrip(
        src: [u8; 4],
        dst: [u8; 4],
        proto: u8,
        payload in vec(any::<u8>(), 0..1480),
    ) {
        let p = Ipv4Packet::new(
            Ipv4Addr::from(src),
            Ipv4Addr::from(dst),
            IpProto::from_u8(proto),
            Bytes::from(payload),
        );
        prop_assert_eq!(Ipv4Packet::decode(&p.encode()).unwrap(), p);
    }

    #[test]
    fn ipv4_corruption_rejected_or_changed(
        src: [u8; 4],
        dst: [u8; 4],
        payload in vec(any::<u8>(), 0..128),
        bit: usize,
    ) {
        let p = Ipv4Packet::new(
            Ipv4Addr::from(src),
            Ipv4Addr::from(dst),
            IpProto::Tcp,
            Bytes::from(payload),
        );
        let mut wire = p.encode().to_vec();
        // Corrupt within the header (covered by the checksum).
        let i = bit % (20 * 8);
        wire[i / 8] ^= 1 << (i % 8);
        prop_assert!(Ipv4Packet::decode(&Bytes::from(wire)).is_err());
    }

    #[test]
    fn icmp_roundtrip(id: u16, seq: u16, reply: bool) {
        let m = if reply {
            IcmpMessage::EchoReply { id, seq }
        } else {
            IcmpMessage::EchoRequest { id, seq }
        };
        prop_assert_eq!(IcmpMessage::decode(&m.encode()).unwrap(), m);
    }

    // ------------------------------------------------------------------
    // Time arithmetic
    // ------------------------------------------------------------------

    #[test]
    fn time_add_sub_roundtrip(base in 0u64..(1u64 << 40), d in 0u64..(1u64 << 30)) {
        let t = SimTime::from_micros(base);
        let dur = SimDuration::from_micros(d);
        prop_assert_eq!((t + dur) - dur, t);
        prop_assert_eq!((t + dur) - t, dur);
        prop_assert_eq!((t + dur).saturating_since(t), dur);
        prop_assert_eq!(t.saturating_since(t + dur), SimDuration::ZERO);
    }

    #[test]
    fn transmission_time_is_monotone(bytes_a in 0usize..100_000, bytes_b in 0usize..100_000, bps in 1u64..10_000_000_000) {
        let (small, large) = if bytes_a <= bytes_b { (bytes_a, bytes_b) } else { (bytes_b, bytes_a) };
        prop_assert!(SimDuration::transmission(small, bps) <= SimDuration::transmission(large, bps));
    }
}

// ---------------------------------------------------------------------
// Deterministic world behaviour under random topologies of pulse nodes
// ---------------------------------------------------------------------

mod world_props {
    use super::*;
    use simnet::link::LinkParams;
    use simnet::node::{NicId, Node, NodeCtx, TimerToken};
    use simnet::world::World;

    struct Pulser {
        me: MacAddr,
        peer: MacAddr,
        period_us: u64,
        received: u64,
    }

    impl Node for Pulser {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            ctx.set_timer(SimDuration::from_micros(self.period_us), TimerToken(0));
        }
        fn on_frame(&mut self, _: &mut NodeCtx<'_>, _: NicId, _: EthernetFrame) {
            self.received += 1;
        }
        fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _: TimerToken) {
            let f = EthernetFrame::new(self.me, self.peer, EtherType::Ipv4, Bytes::new());
            ctx.send_frame(NicId(0), f);
            ctx.set_timer(SimDuration::from_micros(self.period_us), TimerToken(0));
        }
    }

    fn build(seed: u64, n: usize, periods: &[u64], loss: f64) -> World {
        let mut w = World::new(seed);
        let switch = w.add_switch(n);
        for i in 0..n {
            let me = MacAddr::unicast(i as u32 + 1);
            let peer = MacAddr::unicast(((i + 1) % n) as u32 + 1);
            let id = w.add_node(
                &format!("n{i}"),
                Box::new(Pulser {
                    me,
                    peer,
                    period_us: periods[i % periods.len()],
                    received: 0,
                }),
            );
            let nic = w.add_nic(id, me);
            let l = w.connect_to_switch(id, nic, switch, i, LinkParams::lan());
            w.link_mut(l).set_loss(simnet::link::LinkDir::AtoB, loss);
        }
        w.start();
        w
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn same_seed_same_world_history(
            seed: u64,
            n in 2usize..6,
            periods in vec(100u64..5_000, 1..4),
            loss in 0.0f64..0.4,
        ) {
            let run = |seed| {
                let mut w = build(seed, n, &periods, loss);
                w.run_until(SimTime::from_millis(50));
                w.events_processed()
            };
            prop_assert_eq!(run(seed), run(seed));
        }

        #[test]
        fn events_never_decrease_clock(
            seed: u64,
            periods in vec(100u64..2_000, 1..3),
        ) {
            let mut w = build(seed, 3, &periods, 0.1);
            let mut last = SimTime::ZERO;
            for _ in 0..500 {
                if !w.step() {
                    break;
                }
                prop_assert!(w.now() >= last);
                last = w.now();
            }
        }
    }
}
