//! A learning Ethernet switch with multicast flooding.
//!
//! The switch is the heart of ST-TCP's tap: the gateway maps the service
//! IP to a *multicast* Ethernet address, so the switch floods every client
//! frame to all ports — delivering it to both the primary and the backup
//! simultaneously (paper §5, Figure 2). Unicast traffic (e.g. the
//! primary's responses toward the client) is learned and forwarded to a
//! single port, which is exactly why the backup does **not** see
//! primary→client traffic in the enhanced design (§3).

use crate::frame::EthernetFrame;
use crate::hash::AddrMap;
use crate::link::LinkId;
use crate::mac::MacAddr;

/// The simulator-internal state of one switch.
#[derive(Debug)]
pub struct SwitchState {
    /// `ports[i]` is the link attached to port `i`, if any.
    ports: Vec<Option<LinkId>>,
    /// MAC learning table: source address → port last seen on.
    table: AddrMap<MacAddr, usize>,
    /// Static multicast membership (IGMP-snooping style): when a
    /// multicast destination has a registered group, the frame is
    /// delivered only to its member ports instead of flooding. Keeps a
    /// many-client tap O(servers) per frame instead of O(ports).
    groups: AddrMap<MacAddr, Vec<usize>>,
}

impl SwitchState {
    pub(crate) fn new(port_count: usize) -> SwitchState {
        SwitchState {
            ports: vec![None; port_count],
            table: AddrMap::default(),
            groups: AddrMap::default(),
        }
    }

    /// Number of ports.
    pub fn port_count(&self) -> usize {
        self.ports.len()
    }

    /// The link attached to `port`, if any.
    pub fn link_at(&self, port: usize) -> Option<LinkId> {
        self.ports.get(port).copied().flatten()
    }

    /// Attaches `link` to `port`.
    ///
    /// # Panics
    ///
    /// Panics if the port index is out of range or already attached —
    /// both are topology construction bugs.
    pub(crate) fn attach(&mut self, port: usize, link: LinkId) {
        let slot = self
            .ports
            .get_mut(port)
            .unwrap_or_else(|| panic!("switch has no port {port}"));
        assert!(slot.is_none(), "switch port {port} already attached");
        *slot = Some(link);
    }

    /// The port a given MAC was learned on, if any.
    pub fn learned_port(&self, mac: MacAddr) -> Option<usize> {
        self.table.get(&mac).copied()
    }

    /// Registers `port` as a member of the multicast group `mac`.
    /// Frames addressed to a registered group go only to its members;
    /// unregistered multicast destinations still flood.
    ///
    /// # Panics
    ///
    /// Panics if `mac` is not a multicast address.
    pub fn join_group(&mut self, mac: MacAddr, port: usize) {
        assert!(mac.is_multicast(), "{mac:?} is not a multicast address");
        let members = self.groups.entry(mac).or_default();
        if !members.contains(&port) {
            members.push(port);
        }
    }

    /// Processes a frame arriving on `in_port`, appending to `out` the
    /// links the frame must be transmitted on (the caller owns the
    /// buffer, so forwarding allocates nothing per frame).
    ///
    /// Learning: the source MAC (if unicast) is bound to `in_port`.
    /// Forwarding: multicast/broadcast destinations flood to every attached
    /// port except the ingress; known unicast goes to its learned port;
    /// unknown unicast floods.
    pub fn forward(&mut self, in_port: usize, frame: &EthernetFrame, out: &mut Vec<LinkId>) {
        if frame.src.is_unicast() && self.table.get(&frame.src) != Some(&in_port) {
            self.table.insert(frame.src, in_port);
        }
        if frame.dst.is_multicast() {
            match self.groups.get(&frame.dst) {
                Some(members) => out.extend(
                    members
                        .iter()
                        .filter(|&&p| p != in_port)
                        .filter_map(|&p| self.link_at(p)),
                ),
                None => self.flood(in_port, out),
            }
            return;
        }
        match self.table.get(&frame.dst) {
            Some(&port) if port == in_port => {} // hairpin: drop
            Some(&port) => out.extend(self.link_at(port)),
            None => self.flood(in_port, out),
        }
    }

    fn flood(&self, in_port: usize, out: &mut Vec<LinkId>) {
        let others = self.ports.iter().enumerate().filter(|&(i, _)| i != in_port);
        out.extend(others.filter_map(|(_, &link)| link));
    }

    /// Clears the learning table (used by tests to force flooding).
    pub fn flush_table(&mut self) {
        self.table.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::EtherType;
    use bytes::Bytes;

    fn frame(src: MacAddr, dst: MacAddr) -> EthernetFrame {
        EthernetFrame::new(src, dst, EtherType::Ipv4, Bytes::from_static(b"x"))
    }

    /// [`SwitchState::forward`] into a fresh buffer.
    fn forward(s: &mut SwitchState, in_port: usize, frame: &EthernetFrame) -> Vec<LinkId> {
        let mut out = Vec::new();
        s.forward(in_port, frame, &mut out);
        out
    }

    fn switch3() -> SwitchState {
        let mut s = SwitchState::new(4);
        s.attach(0, LinkId(10));
        s.attach(1, LinkId(11));
        s.attach(2, LinkId(12));
        // port 3 left unattached
        s
    }

    #[test]
    fn unknown_unicast_floods_except_ingress() {
        let mut s = switch3();
        let out = forward(&mut s, 0, &frame(MacAddr::unicast(1), MacAddr::unicast(2)));
        assert_eq!(out, vec![LinkId(11), LinkId(12)]);
    }

    #[test]
    fn learning_directs_unicast() {
        let mut s = switch3();
        // Host with mac 2 talks from port 1 → learned.
        let _ = forward(&mut s, 1, &frame(MacAddr::unicast(2), MacAddr::unicast(1)));
        assert_eq!(s.learned_port(MacAddr::unicast(2)), Some(1));
        // Now traffic to mac 2 goes only out port 1.
        let out = forward(&mut s, 0, &frame(MacAddr::unicast(1), MacAddr::unicast(2)));
        assert_eq!(out, vec![LinkId(11)]);
    }

    #[test]
    fn multicast_always_floods_even_after_learning() {
        let mut s = switch3();
        let multi = MacAddr::multicast(5);
        // Even if somebody claims to source from a multicast address, the
        // destination being multicast floods, and multicast sources are not
        // learned.
        let _ = forward(&mut s, 1, &frame(MacAddr::unicast(2), multi));
        let out = forward(&mut s, 0, &frame(MacAddr::unicast(1), multi));
        assert_eq!(out, vec![LinkId(11), LinkId(12)]);
        assert_eq!(s.learned_port(multi), None);
    }

    #[test]
    fn broadcast_floods() {
        let mut s = switch3();
        let out = forward(&mut s, 2, &frame(MacAddr::unicast(9), MacAddr::BROADCAST));
        assert_eq!(out, vec![LinkId(10), LinkId(11)]);
    }

    #[test]
    fn hairpin_to_ingress_port_is_dropped() {
        let mut s = switch3();
        let _ = forward(&mut s, 1, &frame(MacAddr::unicast(2), MacAddr::unicast(9)));
        // Destination learned on the same port the frame came in on.
        let out = forward(&mut s, 1, &frame(MacAddr::unicast(3), MacAddr::unicast(2)));
        assert!(out.is_empty());
    }

    #[test]
    fn relearning_follows_station_moves() {
        let mut s = switch3();
        let _ = forward(&mut s, 0, &frame(MacAddr::unicast(7), MacAddr::BROADCAST));
        assert_eq!(s.learned_port(MacAddr::unicast(7)), Some(0));
        let _ = forward(&mut s, 2, &frame(MacAddr::unicast(7), MacAddr::BROADCAST));
        assert_eq!(s.learned_port(MacAddr::unicast(7)), Some(2));
    }

    #[test]
    fn flush_table_forces_flooding_again() {
        let mut s = switch3();
        let _ = forward(&mut s, 1, &frame(MacAddr::unicast(2), MacAddr::unicast(1)));
        s.flush_table();
        let out = forward(&mut s, 0, &frame(MacAddr::unicast(1), MacAddr::unicast(2)));
        assert_eq!(out, vec![LinkId(11), LinkId(12)]);
    }

    #[test]
    fn registered_group_delivers_only_to_members() {
        let mut s = switch3();
        let multi = MacAddr::multicast(5);
        s.join_group(multi, 1);
        // Duplicate joins are idempotent.
        s.join_group(multi, 1);
        let out = forward(&mut s, 0, &frame(MacAddr::unicast(1), multi));
        assert_eq!(out, vec![LinkId(11)]);
        // Ingress membership is excluded, like flooding.
        let out = forward(&mut s, 1, &frame(MacAddr::unicast(2), multi));
        assert!(out.is_empty());
        // Other multicast groups still flood.
        let out = forward(
            &mut s,
            0,
            &frame(MacAddr::unicast(1), MacAddr::multicast(6)),
        );
        assert_eq!(out, vec![LinkId(11), LinkId(12)]);
    }

    #[test]
    #[should_panic(expected = "not a multicast address")]
    fn join_group_rejects_unicast() {
        let mut s = switch3();
        s.join_group(MacAddr::unicast(1), 0);
    }

    #[test]
    #[should_panic(expected = "already attached")]
    fn double_attach_panics() {
        let mut s = SwitchState::new(1);
        s.attach(0, LinkId(1));
        s.attach(0, LinkId(2));
    }

    #[test]
    fn accessors() {
        let s = switch3();
        assert_eq!(s.port_count(), 4);
        assert_eq!(s.link_at(0), Some(LinkId(10)));
        assert_eq!(s.link_at(3), None);
        assert_eq!(s.link_at(99), None);
    }
}
