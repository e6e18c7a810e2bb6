//! Ethernet frames.
//!
//! Frames are the unit of delivery on simulated links and through the
//! switch. They carry a real binary encoding (14-byte Ethernet II header)
//! so that parsing and emission costs are measurable and so property tests
//! can exercise wire-format round-trips.

use bytes::{BufMut, Bytes, BytesMut};
use core::fmt;

use crate::mac::MacAddr;

/// The EtherType of a frame's payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EtherType {
    /// IPv4 (0x0800). Carries [`crate::ip::Ipv4Packet`]s.
    Ipv4,
    /// Simulation-private heartbeat channel (0x88b5, an IEEE "local
    /// experimental" EtherType). The ST-TCP heartbeat's *IP-link* copy is
    /// carried over IPv4/UDP-lite; this type exists for raw L2 tooling and
    /// tests.
    Experimental,
    /// Any other EtherType, preserved verbatim.
    Other(u16),
}

impl EtherType {
    /// The 16-bit wire value.
    pub fn to_u16(self) -> u16 {
        match self {
            EtherType::Ipv4 => 0x0800,
            EtherType::Experimental => 0x88b5,
            EtherType::Other(v) => v,
        }
    }

    /// Decodes a 16-bit wire value.
    pub fn from_u16(v: u16) -> EtherType {
        match v {
            0x0800 => EtherType::Ipv4,
            0x88b5 => EtherType::Experimental,
            other => EtherType::Other(other),
        }
    }
}

impl fmt::Display for EtherType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EtherType::Ipv4 => write!(f, "ipv4"),
            EtherType::Experimental => write!(f, "exp"),
            EtherType::Other(v) => write!(f, "0x{v:04x}"),
        }
    }
}

/// An Ethernet II frame.
///
/// # Examples
///
/// ```
/// use simnet::frame::{EthernetFrame, EtherType};
/// use simnet::mac::MacAddr;
/// use bytes::Bytes;
///
/// let f = EthernetFrame::new(
///     MacAddr::unicast(1),
///     MacAddr::multicast(9),
///     EtherType::Ipv4,
///     Bytes::from_static(b"payload"),
/// );
/// let wire = f.encode();
/// let back = EthernetFrame::decode(&wire)?;
/// assert_eq!(back, f);
/// # Ok::<(), simnet::frame::FrameDecodeError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EthernetFrame {
    /// Source MAC address.
    pub src: MacAddr,
    /// Destination MAC address (may be multicast/broadcast).
    pub dst: MacAddr,
    /// Payload type.
    pub ethertype: EtherType,
    /// Payload bytes (not including the 14-byte header).
    pub payload: Bytes,
}

/// Error returned when decoding a frame from wire bytes fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameDecodeError {
    /// Fewer than 14 bytes of input.
    Truncated,
}

impl fmt::Display for FrameDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameDecodeError::Truncated => write!(f, "frame shorter than ethernet header"),
        }
    }
}

impl std::error::Error for FrameDecodeError {}

/// Length of the Ethernet II header in bytes.
pub const ETHERNET_HEADER_LEN: usize = 14;

impl EthernetFrame {
    /// Creates a frame.
    #[inline]
    pub fn new(src: MacAddr, dst: MacAddr, ethertype: EtherType, payload: Bytes) -> Self {
        EthernetFrame {
            src,
            dst,
            ethertype,
            payload,
        }
    }

    /// Total on-wire length: header plus payload.
    pub fn wire_len(&self) -> usize {
        ETHERNET_HEADER_LEN + self.payload.len()
    }

    /// Serializes the frame to wire bytes.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.wire_len());
        buf.put_slice(&self.dst.octets());
        buf.put_slice(&self.src.octets());
        buf.put_u16(self.ethertype.to_u16());
        buf.put_slice(&self.payload);
        buf.freeze()
    }

    /// Parses a frame from wire bytes.
    ///
    /// # Errors
    ///
    /// Returns [`FrameDecodeError::Truncated`] if `wire` is shorter than the
    /// 14-byte Ethernet header.
    pub fn decode(wire: &[u8]) -> Result<EthernetFrame, FrameDecodeError> {
        if wire.len() < ETHERNET_HEADER_LEN {
            return Err(FrameDecodeError::Truncated);
        }
        let mut dst = [0u8; 6];
        let mut src = [0u8; 6];
        dst.copy_from_slice(&wire[0..6]);
        src.copy_from_slice(&wire[6..12]);
        let ethertype = EtherType::from_u16(u16::from_be_bytes([wire[12], wire[13]]));
        Ok(EthernetFrame {
            src: MacAddr(src),
            dst: MacAddr(dst),
            ethertype,
            payload: Bytes::copy_from_slice(&wire[ETHERNET_HEADER_LEN..]),
        })
    }
}

impl fmt::Display for EthernetFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{} -> {} {} {}B]",
            self.src,
            self.dst,
            self.ethertype,
            self.payload.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EthernetFrame {
        EthernetFrame::new(
            MacAddr::unicast(3),
            MacAddr::multicast(1),
            EtherType::Ipv4,
            Bytes::from_static(b"hello world"),
        )
    }

    #[test]
    fn encode_decode_roundtrip() {
        let f = sample();
        assert_eq!(EthernetFrame::decode(&f.encode()).unwrap(), f);
    }

    #[test]
    fn empty_payload_roundtrip() {
        let f = EthernetFrame::new(
            MacAddr::unicast(1),
            MacAddr::unicast(2),
            EtherType::Experimental,
            Bytes::new(),
        );
        let wire = f.encode();
        assert_eq!(wire.len(), ETHERNET_HEADER_LEN);
        assert_eq!(EthernetFrame::decode(&wire).unwrap(), f);
    }

    #[test]
    fn decode_truncated_fails() {
        assert_eq!(
            EthernetFrame::decode(&[0u8; 13]),
            Err(FrameDecodeError::Truncated)
        );
        assert!(EthernetFrame::decode(&[0u8; 14]).is_ok());
    }

    #[test]
    fn wire_len_matches_encode() {
        let f = sample();
        assert_eq!(f.wire_len(), f.encode().len());
    }

    #[test]
    fn ethertype_wire_values() {
        assert_eq!(EtherType::Ipv4.to_u16(), 0x0800);
        assert_eq!(EtherType::from_u16(0x0800), EtherType::Ipv4);
        assert_eq!(EtherType::from_u16(0x88b5), EtherType::Experimental);
        assert_eq!(EtherType::from_u16(0x1234), EtherType::Other(0x1234));
        assert_eq!(EtherType::Other(0x1234).to_u16(), 0x1234);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!sample().to_string().is_empty());
        assert_eq!(EtherType::Ipv4.to_string(), "ipv4");
        assert_eq!(EtherType::Other(0xbeef).to_string(), "0xbeef");
    }
}
