//! TCP segment representation and wire format.
//!
//! Segments use the real 20-byte TCP header (no options — the MSS is
//! configured out of band, window scaling is unnecessary at simulated LAN
//! bandwidth-delay products) and the standard pseudo-header checksum.

use bytes::Bytes;
use core::fmt;
use std::net::Ipv4Addr;

use simnet::flight::SegmentHeader;
use simnet::ip::ChecksumAccumulator;

use crate::seq::SeqNum;

/// Length of the (option-less) TCP header in bytes.
pub const TCP_HEADER_LEN: usize = 20;

/// TCP header flags.
///
/// Only the five flags the protocol logic uses are modelled; the
/// representation is still the real wire bit layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TcpFlags {
    /// Synchronize sequence numbers (connection open).
    pub syn: bool,
    /// Acknowledgment field is valid.
    pub ack: bool,
    /// Sender has finished sending (graceful close).
    pub fin: bool,
    /// Reset the connection (abort).
    pub rst: bool,
    /// Push: deliver promptly (informational only here).
    pub psh: bool,
}

impl TcpFlags {
    /// A pure-ACK flag set.
    pub const ACK: TcpFlags = TcpFlags {
        syn: false,
        ack: true,
        fin: false,
        rst: false,
        psh: false,
    };

    /// A SYN flag set (active open).
    pub const SYN: TcpFlags = TcpFlags {
        syn: true,
        ack: false,
        fin: false,
        rst: false,
        psh: false,
    };

    /// A SYN+ACK flag set (passive-open reply).
    pub const SYN_ACK: TcpFlags = TcpFlags {
        syn: true,
        ack: true,
        fin: false,
        rst: false,
        psh: false,
    };

    /// A FIN+ACK flag set (graceful close).
    pub const FIN_ACK: TcpFlags = TcpFlags {
        syn: false,
        ack: true,
        fin: true,
        rst: false,
        psh: false,
    };

    /// An RST flag set (abort).
    pub const RST: TcpFlags = TcpFlags {
        syn: false,
        ack: false,
        fin: false,
        rst: true,
        psh: false,
    };

    /// Encodes to the low byte of the header's flags field.
    pub fn to_bits(self) -> u8 {
        (self.fin as u8)
            | (self.syn as u8) << 1
            | (self.rst as u8) << 2
            | (self.psh as u8) << 3
            | (self.ack as u8) << 4
    }

    /// Decodes from the low byte of the header's flags field.
    pub fn from_bits(bits: u8) -> TcpFlags {
        TcpFlags {
            fin: bits & 0x01 != 0,
            syn: bits & 0x02 != 0,
            rst: bits & 0x04 != 0,
            psh: bits & 0x08 != 0,
            ack: bits & 0x10 != 0,
        }
    }
}

impl fmt::Display for TcpFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut any = false;
        for (set, c) in [
            (self.syn, 'S'),
            (self.ack, 'A'),
            (self.fin, 'F'),
            (self.rst, 'R'),
            (self.psh, 'P'),
        ] {
            if set {
                write!(f, "{c}")?;
                any = true;
            }
        }
        if !any {
            write!(f, "-")?;
        }
        Ok(())
    }
}

/// Peeks an encoded segment's header — the fields the flight recorder
/// keeps for every send and delivery — without touching the payload or
/// verifying the checksum: a full [`TcpSegment::decode`] would sum the
/// whole payload, wasted work for observability. Returns `None` on
/// truncation or a bad data offset; corrupt-but-well-formed input is
/// the checksum's job at the real decode site, not the observer's.
#[inline]
pub fn peek_segment(wire: &[u8]) -> Option<SegmentHeader> {
    if wire.len() < TCP_HEADER_LEN {
        return None;
    }
    let doff = (wire[12] >> 4) as usize * 4;
    if doff < TCP_HEADER_LEN || wire.len() < doff {
        return None;
    }
    Some(SegmentHeader {
        src_port: u16::from_be_bytes([wire[0], wire[1]]),
        dst_port: u16::from_be_bytes([wire[2], wire[3]]),
        seq: u32::from_be_bytes([wire[4], wire[5], wire[6], wire[7]]),
        ack: u32::from_be_bytes([wire[8], wire[9], wire[10], wire[11]]),
        flags: wire[13],
        len: (wire.len() - doff) as u32,
    })
}

/// A TCP segment: header fields plus payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpSegment {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number of the first payload byte (or of the SYN/FIN).
    pub seq: SeqNum,
    /// Acknowledgment number (valid when `flags.ack`).
    pub ack: SeqNum,
    /// Header flags.
    pub flags: TcpFlags,
    /// Advertised receive window.
    pub window: u16,
    /// Payload bytes.
    pub payload: Bytes,
}

/// Error returned when decoding a TCP segment fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SegmentDecodeError {
    /// Input shorter than the header, or than the declared data offset.
    Truncated,
    /// Data offset field below 5 words.
    BadDataOffset,
    /// Pseudo-header checksum mismatch.
    BadChecksum,
}

impl fmt::Display for SegmentDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SegmentDecodeError::Truncated => write!(f, "segment shorter than header"),
            SegmentDecodeError::BadDataOffset => write!(f, "invalid data offset"),
            SegmentDecodeError::BadChecksum => write!(f, "tcp checksum mismatch"),
        }
    }
}

impl std::error::Error for SegmentDecodeError {}

/// The 12-byte TCP pseudo-header, on the stack.
fn pseudo_header(src: Ipv4Addr, dst: Ipv4Addr, tcp_len: usize) -> [u8; 12] {
    let mut ph = [0u8; 12];
    ph[0..4].copy_from_slice(&src.octets());
    ph[4..8].copy_from_slice(&dst.octets());
    ph[9] = 6; // protocol = TCP
    ph[10..12].copy_from_slice(&(tcp_len as u16).to_be_bytes());
    ph
}

impl TcpSegment {
    /// The number of sequence numbers this segment occupies: payload bytes
    /// plus one for SYN and one for FIN.
    pub fn seq_len(&self) -> u32 {
        self.payload.len() as u32 + self.flags.syn as u32 + self.flags.fin as u32
    }

    /// Total TCP length on the wire (header + payload).
    pub fn wire_len(&self) -> usize {
        TCP_HEADER_LEN + self.payload.len()
    }

    /// Serializes the segment, computing the pseudo-header checksum over
    /// the given IP endpoints.
    pub fn encode(&self, src_ip: Ipv4Addr, dst_ip: Ipv4Addr) -> Bytes {
        let mut out = Vec::with_capacity(self.wire_len());
        self.encode_into(&mut out, src_ip, dst_ip);
        Bytes::from(out)
    }

    /// Appends the wire form (header, then payload) to `out` — the one
    /// place a data segment's payload is copied on its way to a frame.
    /// Lets a caller that owns the packet buffer (see
    /// [`simnet::ip::Ipv4Packet::build`]) have the segment written
    /// directly behind the IP header's headroom.
    #[inline]
    pub fn encode_into(&self, out: &mut Vec<u8>, src_ip: Ipv4Addr, dst_ip: Ipv4Addr) {
        let mut hdr = [0u8; TCP_HEADER_LEN];
        hdr[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        hdr[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        hdr[4..8].copy_from_slice(&self.seq.0.to_be_bytes());
        hdr[8..12].copy_from_slice(&self.ack.0.to_be_bytes());
        hdr[12] = 5 << 4; // data offset = 5 words
        hdr[13] = self.flags.to_bits();
        hdr[14..16].copy_from_slice(&self.window.to_be_bytes());

        // Stream the checksum over pseudo-header + header + payload —
        // no concatenated temporary (this runs once per segment).
        let mut acc = ChecksumAccumulator::new();
        acc.push(&pseudo_header(src_ip, dst_ip, self.wire_len()));
        acc.push(&hdr);
        acc.push(&self.payload);
        let csum = acc.finish();
        hdr[16..18].copy_from_slice(&csum.to_be_bytes());

        out.extend_from_slice(&hdr);
        out.extend_from_slice(&self.payload);
    }

    /// Parses a segment, verifying the pseudo-header checksum. The
    /// payload is a shared view of `wire`, not a copy.
    ///
    /// # Errors
    ///
    /// Returns a [`SegmentDecodeError`] on truncation, a bad data offset,
    /// or checksum mismatch.
    #[inline]
    pub fn decode(
        wire: &Bytes,
        src_ip: Ipv4Addr,
        dst_ip: Ipv4Addr,
    ) -> Result<TcpSegment, SegmentDecodeError> {
        if wire.len() < TCP_HEADER_LEN {
            return Err(SegmentDecodeError::Truncated);
        }
        let doff = (wire[12] >> 4) as usize * 4;
        if doff < TCP_HEADER_LEN {
            return Err(SegmentDecodeError::BadDataOffset);
        }
        if wire.len() < doff {
            return Err(SegmentDecodeError::Truncated);
        }
        let mut acc = ChecksumAccumulator::new();
        acc.push(&pseudo_header(src_ip, dst_ip, wire.len()));
        acc.push(wire);
        if acc.finish() != 0 {
            return Err(SegmentDecodeError::BadChecksum);
        }
        Ok(TcpSegment {
            src_port: u16::from_be_bytes([wire[0], wire[1]]),
            dst_port: u16::from_be_bytes([wire[2], wire[3]]),
            seq: SeqNum(u32::from_be_bytes([wire[4], wire[5], wire[6], wire[7]])),
            ack: SeqNum(u32::from_be_bytes([wire[8], wire[9], wire[10], wire[11]])),
            flags: TcpFlags::from_bits(wire[13]),
            window: u16::from_be_bytes([wire[14], wire[15]]),
            payload: wire.slice(doff..),
        })
    }
}

impl fmt::Display for TcpSegment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}->{} [{}] seq={} ack={} win={} len={}",
            self.src_port,
            self.dst_port,
            self.flags,
            self.seq,
            self.ack,
            self.window,
            self.payload.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, last)
    }

    fn sample() -> TcpSegment {
        TcpSegment {
            src_port: 4321,
            dst_port: 80,
            seq: SeqNum(0xdead_beef),
            ack: SeqNum(0x1234_5678),
            flags: TcpFlags {
                ack: true,
                psh: true,
                ..Default::default()
            },
            window: 65_000,
            payload: Bytes::from_static(b"GET / HTTP/1.0\r\n"),
        }
    }

    #[test]
    fn roundtrip() {
        let s = sample();
        let wire = s.encode(ip(1), ip(2));
        assert_eq!(TcpSegment::decode(&wire, ip(1), ip(2)).unwrap(), s);
    }

    #[test]
    fn empty_payload_roundtrip() {
        let s = TcpSegment {
            payload: Bytes::new(),
            flags: TcpFlags::SYN,
            ..sample()
        };
        let wire = s.encode(ip(1), ip(2));
        assert_eq!(wire.len(), TCP_HEADER_LEN);
        assert_eq!(TcpSegment::decode(&wire, ip(1), ip(2)).unwrap(), s);
    }

    #[test]
    fn checksum_covers_ip_endpoints() {
        // The same bytes verified against different IPs must fail: this is
        // what the pseudo-header is for.
        let s = sample();
        let wire = s.encode(ip(1), ip(2));
        assert_eq!(
            TcpSegment::decode(&wire, ip(1), ip(3)),
            Err(SegmentDecodeError::BadChecksum)
        );
    }

    #[test]
    fn corrupted_payload_rejected() {
        let s = sample();
        let mut wire = s.encode(ip(1), ip(2)).to_vec();
        let last = wire.len() - 1;
        wire[last] ^= 0x01;
        assert_eq!(
            TcpSegment::decode(&Bytes::from(wire), ip(1), ip(2)),
            Err(SegmentDecodeError::BadChecksum)
        );
    }

    #[test]
    fn truncated_rejected() {
        let wire = sample().encode(ip(1), ip(2));
        assert_eq!(
            TcpSegment::decode(&wire.slice(..10), ip(1), ip(2)),
            Err(SegmentDecodeError::Truncated)
        );
    }

    #[test]
    fn bad_data_offset_rejected() {
        let mut wire = sample().encode(ip(1), ip(2)).to_vec();
        wire[12] = 2 << 4;
        assert_eq!(
            TcpSegment::decode(&Bytes::from(wire), ip(1), ip(2)),
            Err(SegmentDecodeError::BadDataOffset)
        );
    }

    #[test]
    fn decoded_payload_points_into_the_wire_buffer() {
        let wire = sample().encode(ip(1), ip(2));
        let seg = TcpSegment::decode(&wire, ip(1), ip(2)).unwrap();
        assert_eq!(seg.payload.as_ptr(), wire[TCP_HEADER_LEN..].as_ptr());
    }

    #[test]
    fn encode_into_appends_exactly_the_wire_form() {
        let s = sample();
        let mut out = vec![0xEE; 20]; // a lower layer's headroom
        s.encode_into(&mut out, ip(1), ip(2));
        assert_eq!(&out[..20], &[0xEE; 20]);
        assert_eq!(&out[20..], s.encode(ip(1), ip(2)).as_ref());
    }

    #[test]
    fn flags_bit_layout_matches_rfc() {
        // FIN=0x01, SYN=0x02, RST=0x04, PSH=0x08, ACK=0x10.
        assert_eq!(TcpFlags::SYN.to_bits(), 0x02);
        assert_eq!(TcpFlags::SYN_ACK.to_bits(), 0x12);
        assert_eq!(TcpFlags::ACK.to_bits(), 0x10);
        assert_eq!(TcpFlags::FIN_ACK.to_bits(), 0x11);
        assert_eq!(TcpFlags::RST.to_bits(), 0x04);
        for bits in 0..32u8 {
            assert_eq!(TcpFlags::from_bits(bits).to_bits(), bits & 0x1f);
        }
    }

    #[test]
    fn peek_matches_full_decode() {
        let s = sample();
        let wire = s.encode(ip(1), ip(2));
        let h = peek_segment(&wire).unwrap();
        assert_eq!(h.src_port, s.src_port);
        assert_eq!(h.dst_port, s.dst_port);
        assert_eq!(h.seq, s.seq.0);
        assert_eq!(h.ack, s.ack.0);
        assert_eq!(h.flags, s.flags.to_bits());
        assert_eq!(h.len as usize, s.payload.len());
        assert!(!h.is_pure_ack(), "carries payload");
        assert!(peek_segment(&wire[..10]).is_none());
    }

    #[test]
    fn peek_conn_tag_is_direction_independent() {
        let fwd = sample().encode(ip(1), ip(2));
        let mut rev = sample();
        std::mem::swap(&mut rev.src_port, &mut rev.dst_port);
        rev.payload = Bytes::new();
        let rev = rev.encode(ip(2), ip(1));
        let f = peek_segment(&fwd).unwrap();
        let r = peek_segment(&rev).unwrap();
        assert_eq!(f.conn_tag(), r.conn_tag());
        assert!(r.is_pure_ack(), "no payload, ACK set, no SYN/FIN/RST");
    }

    #[test]
    fn seq_len_counts_syn_and_fin() {
        let mut s = sample();
        assert_eq!(s.seq_len(), 16);
        s.flags.syn = true;
        assert_eq!(s.seq_len(), 17);
        s.flags.fin = true;
        assert_eq!(s.seq_len(), 18);
        s.payload = Bytes::new();
        assert_eq!(s.seq_len(), 2);
    }

    #[test]
    fn display_shows_flags() {
        let s = sample();
        let txt = s.to_string();
        assert!(txt.contains("AP"), "{txt}");
        assert_eq!(TcpFlags::default().to_string(), "-");
        assert_eq!(TcpFlags::SYN_ACK.to_string(), "SA");
    }
}
