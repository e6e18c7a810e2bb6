//! A minimal host IP layer: static ARP, encapsulation, and ping.
//!
//! Every host in the ST-TCP topology uses the same static configuration
//! style as the paper's setup (§5): no dynamic ARP, just a table mapping
//! IP addresses to MAC addresses. The crucial entry is on the *client*:
//! `serviceIP → multiEA` (a multicast MAC), which makes the switch deliver
//! client frames to both servers. The servers themselves bind the service
//! IP as an alias (the paper's "virtual NIC" via IP aliasing).

use bytes::Bytes;
use std::net::Ipv4Addr;

use crate::frame::{EtherType, EthernetFrame};
use crate::hash::AddrMap;
use crate::ip::{IcmpMessage, IpProto, Ipv4Packet};
use crate::mac::MacAddr;
use crate::node::{NicId, NodeCtx};

/// Per-NIC IP configuration and helpers.
///
/// # Examples
///
/// ```
/// use simnet::iplayer::IpInterface;
/// use simnet::mac::MacAddr;
/// use simnet::node::NicId;
///
/// let mut iface = IpInterface::new(NicId(0), MacAddr::unicast(1), "10.0.0.1".parse()?);
/// iface.add_alias("10.0.0.100".parse()?); // serviceIP alias
/// iface.add_arp("10.0.0.9".parse()?, MacAddr::unicast(9));
/// assert!(iface.accepts("10.0.0.100".parse()?));
/// # Ok::<(), std::net::AddrParseError>(())
/// ```
#[derive(Debug, Clone)]
pub struct IpInterface {
    /// The NIC this interface runs on.
    pub nic: NicId,
    /// The NIC's MAC address (used as the source of all frames).
    pub mac: MacAddr,
    /// Addresses this interface owns (first is the primary address).
    addrs: Vec<Ipv4Addr>,
    /// Static ARP table.
    arp: AddrMap<Ipv4Addr, MacAddr>,
}

impl IpInterface {
    /// Creates an interface with a single owned address.
    pub fn new(nic: NicId, mac: MacAddr, addr: Ipv4Addr) -> IpInterface {
        IpInterface {
            nic,
            mac,
            addrs: vec![addr],
            arp: AddrMap::default(),
        }
    }

    /// The interface's primary address.
    #[inline]
    pub fn addr(&self) -> Ipv4Addr {
        self.addrs[0]
    }

    /// All owned addresses, primary first.
    pub fn addrs(&self) -> &[Ipv4Addr] {
        &self.addrs
    }

    /// Adds an alias address (IP aliasing, the paper's virtual NIC).
    pub fn add_alias(&mut self, addr: Ipv4Addr) {
        if !self.addrs.contains(&addr) {
            self.addrs.push(addr);
        }
    }

    /// Removes an alias; the primary address cannot be removed.
    pub fn remove_alias(&mut self, addr: Ipv4Addr) {
        let primary = self.addrs[0];
        self.addrs.retain(|&a| a != addr || a == primary);
    }

    /// Installs a static ARP entry.
    pub fn add_arp(&mut self, addr: Ipv4Addr, mac: MacAddr) {
        self.arp.insert(addr, mac);
    }

    /// Looks up the MAC for a destination IP.
    #[inline]
    pub fn arp_lookup(&self, addr: Ipv4Addr) -> Option<MacAddr> {
        self.arp.get(&addr).copied()
    }

    /// True if this interface owns `dst` (primary or alias).
    #[inline]
    pub fn accepts(&self, dst: Ipv4Addr) -> bool {
        self.addrs.contains(&dst)
    }

    /// Wraps an IP packet in an Ethernet frame addressed per the ARP
    /// table.
    ///
    /// Returns `None` when there is no ARP entry for the destination —
    /// with static ARP that is a configuration bug, and callers surface it
    /// — or when the packet is longer than its 16-bit total length can say
    /// (no fragmentation; a wrapped length decodes as a valid, shorter packet).
    #[inline]
    pub fn encap(&self, packet: &Ipv4Packet) -> Option<EthernetFrame> {
        if packet.wire_len() > usize::from(u16::MAX) {
            return None;
        }
        let dst_mac = self.arp_lookup(packet.dst)?;
        Some(EthernetFrame::new(
            self.mac,
            dst_mac,
            EtherType::Ipv4,
            packet.encode(),
        ))
    }

    /// Unwraps an IPv4 packet from a frame, without address filtering.
    ///
    /// Returns `None` for non-IPv4 frames and undecodable packets. Address
    /// acceptance is a separate concern ([`IpInterface::accepts`]) because
    /// the ST-TCP backup deliberately processes packets addressed to the
    /// service IP it shares with the primary.
    #[inline]
    pub fn decap(frame: &EthernetFrame) -> Option<Ipv4Packet> {
        if frame.ethertype != EtherType::Ipv4 {
            return None;
        }
        Ipv4Packet::decode(&frame.payload).ok()
    }

    /// Builds and sends an ICMP echo request from this interface.
    ///
    /// Returns `false` when the destination has no ARP entry.
    pub fn send_ping(&self, ctx: &mut NodeCtx<'_>, dst: Ipv4Addr, id: u16, seq: u16) -> bool {
        let msg = IcmpMessage::EchoRequest { id, seq };
        let pkt = Ipv4Packet::new(self.addr(), dst, IpProto::Icmp, msg.encode());
        match self.encap(&pkt) {
            Some(frame) => {
                ctx.send_frame(self.nic, frame);
                true
            }
            None => false,
        }
    }

    /// Handles an inbound ICMP packet: replies to echo requests addressed
    /// to us, and returns `Some((id, seq))` for echo replies addressed to
    /// us (so the caller's ping tracker can mark success).
    pub fn handle_icmp(&self, ctx: &mut NodeCtx<'_>, packet: &Ipv4Packet) -> Option<(u16, u16)> {
        if packet.proto != IpProto::Icmp || !self.accepts(packet.dst) {
            return None;
        }
        match IcmpMessage::decode(&packet.payload) {
            Ok(msg @ IcmpMessage::EchoRequest { .. }) => {
                let reply = msg.reply().expect("request always has a reply");
                let pkt = Ipv4Packet::new(packet.dst, packet.src, IpProto::Icmp, reply.encode());
                if let Some(frame) = self.encap(&pkt) {
                    ctx.send_frame(self.nic, frame);
                }
                None
            }
            Ok(IcmpMessage::EchoReply { id, seq }) => Some((id, seq)),
            Err(_) => None,
        }
    }

    /// Builds a frame carrying `payload` as the given IP protocol to `dst`,
    /// from this interface's primary address.
    ///
    /// Returns `None` when the destination has no ARP entry.
    pub fn frame_to(&self, dst: Ipv4Addr, proto: IpProto, payload: Bytes) -> Option<EthernetFrame> {
        self.frame_from_to(self.addr(), dst, proto, payload)
    }

    /// Like [`IpInterface::frame_to`] but with an explicit source address
    /// (the ST-TCP servers send from the shared service IP).
    pub fn frame_from_to(
        &self,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        proto: IpProto,
        payload: Bytes,
    ) -> Option<EthernetFrame> {
        let pkt = Ipv4Packet::new(src, dst, proto, payload);
        self.encap(&pkt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeId;
    use crate::rng::SimRng;
    use crate::time::SimTime;

    fn iface() -> IpInterface {
        let mut i = IpInterface::new(NicId(0), MacAddr::unicast(1), Ipv4Addr::new(10, 0, 0, 1));
        i.add_arp(Ipv4Addr::new(10, 0, 0, 9), MacAddr::unicast(9));
        i
    }

    #[test]
    fn alias_management() {
        let mut i = iface();
        let svc = Ipv4Addr::new(10, 0, 0, 100);
        assert!(!i.accepts(svc));
        i.add_alias(svc);
        assert!(i.accepts(svc));
        assert_eq!(i.addrs().len(), 2);
        i.add_alias(svc); // idempotent
        assert_eq!(i.addrs().len(), 2);
        i.remove_alias(svc);
        assert!(!i.accepts(svc));
        // Primary can't be removed.
        i.remove_alias(i.addr());
        assert!(i.accepts(Ipv4Addr::new(10, 0, 0, 1)));
    }

    #[test]
    fn encap_uses_arp() {
        let i = iface();
        let pkt = Ipv4Packet::new(
            i.addr(),
            Ipv4Addr::new(10, 0, 0, 9),
            IpProto::Tcp,
            Bytes::from_static(b"x"),
        );
        let frame = i.encap(&pkt).unwrap();
        assert_eq!(frame.dst, MacAddr::unicast(9));
        assert_eq!(frame.src, MacAddr::unicast(1));
        assert_eq!(IpInterface::decap(&frame).unwrap(), pkt);
    }

    #[test]
    fn encap_without_arp_entry_fails() {
        let i = iface();
        let pkt = Ipv4Packet::new(
            i.addr(),
            Ipv4Addr::new(10, 0, 0, 77),
            IpProto::Tcp,
            Bytes::new(),
        );
        assert!(i.encap(&pkt).is_none());
        assert!(i
            .frame_to(Ipv4Addr::new(10, 0, 0, 77), IpProto::Tcp, Bytes::new())
            .is_none());
    }

    #[test]
    fn encap_refuses_a_packet_too_long_for_its_length_field() {
        let i = iface();
        let to = Ipv4Addr::new(10, 0, 0, 9);
        let max = usize::from(u16::MAX) - crate::ip::IPV4_HEADER_LEN;
        let fits = i
            .frame_to(to, IpProto::Heartbeat, Bytes::from(vec![7u8; max]))
            .expect("65 535 bytes on the wire is the largest packet");
        assert_eq!(IpInterface::decap(&fits).unwrap().payload.len(), max);
        // One byte more and the 16-bit total length would wrap: refused
        // here, not delivered as a valid packet with a shorter payload.
        assert!(i
            .frame_to(to, IpProto::Heartbeat, Bytes::from(vec![7u8; max + 1]))
            .is_none());
    }

    #[test]
    fn decap_rejects_non_ip() {
        let f = EthernetFrame::new(
            MacAddr::unicast(1),
            MacAddr::unicast(2),
            EtherType::Experimental,
            Bytes::from_static(b"raw"),
        );
        assert!(IpInterface::decap(&f).is_none());
    }

    fn with_ctx<R>(f: impl FnOnce(&mut NodeCtx<'_>) -> R) -> (R, Vec<crate::node::Effect>) {
        let mut rng = SimRng::seed_from(1);
        let mut effects = Vec::new();
        let mut flight = crate::flight::FlightRecorder::new();
        let mut profiler = crate::profile::Profiler::new();
        let r = {
            let mut ctx = NodeCtx {
                now: SimTime::ZERO,
                node: NodeId(0),
                rng: &mut rng,
                effects: &mut effects,
                flight: &mut flight,
                profiler: &mut profiler,
            };
            f(&mut ctx)
        };
        (r, effects)
    }

    #[test]
    fn ping_request_emits_frame() {
        let i = iface();
        let (ok, effects) = with_ctx(|ctx| i.send_ping(ctx, Ipv4Addr::new(10, 0, 0, 9), 7, 1));
        assert!(ok);
        assert_eq!(effects.len(), 1);
    }

    #[test]
    fn ping_to_unknown_host_fails_cleanly() {
        let i = iface();
        let (ok, effects) = with_ctx(|ctx| i.send_ping(ctx, Ipv4Addr::new(1, 2, 3, 4), 7, 1));
        assert!(!ok);
        assert!(effects.is_empty());
    }

    #[test]
    fn echo_request_gets_replied() {
        let mut i = iface();
        i.add_arp(Ipv4Addr::new(10, 0, 0, 5), MacAddr::unicast(5));
        let req = Ipv4Packet::new(
            Ipv4Addr::new(10, 0, 0, 5),
            i.addr(),
            IpProto::Icmp,
            IcmpMessage::EchoRequest { id: 3, seq: 4 }.encode(),
        );
        let (ret, effects) = with_ctx(|ctx| i.handle_icmp(ctx, &req));
        assert_eq!(ret, None);
        assert_eq!(effects.len(), 1, "reply frame queued");
    }

    #[test]
    fn echo_reply_is_reported() {
        let i = iface();
        let rep = Ipv4Packet::new(
            Ipv4Addr::new(10, 0, 0, 9),
            i.addr(),
            IpProto::Icmp,
            IcmpMessage::EchoReply { id: 3, seq: 4 }.encode(),
        );
        let (ret, effects) = with_ctx(|ctx| i.handle_icmp(ctx, &rep));
        assert_eq!(ret, Some((3, 4)));
        assert!(effects.is_empty());
    }

    #[test]
    fn icmp_for_other_hosts_ignored() {
        let i = iface();
        let req = Ipv4Packet::new(
            Ipv4Addr::new(10, 0, 0, 9),
            Ipv4Addr::new(10, 0, 0, 77),
            IpProto::Icmp,
            IcmpMessage::EchoRequest { id: 1, seq: 1 }.encode(),
        );
        let (ret, effects) = with_ctx(|ctx| i.handle_icmp(ctx, &req));
        assert_eq!(ret, None);
        assert!(effects.is_empty());
    }

    #[test]
    fn frame_from_to_uses_explicit_source() {
        let i = iface();
        let svc = Ipv4Addr::new(10, 0, 0, 100);
        let f = i
            .frame_from_to(svc, Ipv4Addr::new(10, 0, 0, 9), IpProto::Tcp, Bytes::new())
            .unwrap();
        let pkt = IpInterface::decap(&f).unwrap();
        assert_eq!(pkt.src, svc);
    }
}
