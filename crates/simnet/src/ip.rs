//! IPv4-lite: packet format, internet checksum, and ICMP echo.
//!
//! This is a deliberately small IPv4: 20-byte header with no options, no
//! fragmentation (the simulator delivers whole frames), and a fixed
//! protocol set. It is enough to carry TCP, ICMP echo (the gateway-ping
//! failure detector of paper §4.3), and the ST-TCP heartbeat, while still
//! having a real wire encoding with a verified checksum.

use bytes::Bytes;
use core::fmt;
use std::net::Ipv4Addr;

/// Length of the (option-less) IPv4 header in bytes.
pub const IPV4_HEADER_LEN: usize = 20;

/// The transport protocol carried by an [`Ipv4Packet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IpProto {
    /// ICMP (protocol 1) — echo request/reply for the gateway-ping detector.
    Icmp,
    /// TCP (protocol 6).
    Tcp,
    /// ST-TCP heartbeat (protocol 253, the RFC 3692 experimental number).
    ///
    /// The real system carries the IP-link heartbeat over UDP; we give it
    /// its own protocol number instead of modelling a full UDP layer, which
    /// preserves the property that matters: the heartbeat shares fate with
    /// the IP link.
    Heartbeat,
    /// Any other protocol number, preserved verbatim.
    Other(u8),
}

impl IpProto {
    /// The 8-bit wire value.
    pub fn to_u8(self) -> u8 {
        match self {
            IpProto::Icmp => 1,
            IpProto::Tcp => 6,
            IpProto::Heartbeat => 253,
            IpProto::Other(v) => v,
        }
    }

    /// Decodes an 8-bit wire value.
    pub fn from_u8(v: u8) -> IpProto {
        match v {
            1 => IpProto::Icmp,
            6 => IpProto::Tcp,
            253 => IpProto::Heartbeat,
            other => IpProto::Other(other),
        }
    }
}

impl fmt::Display for IpProto {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IpProto::Icmp => write!(f, "icmp"),
            IpProto::Tcp => write!(f, "tcp"),
            IpProto::Heartbeat => write!(f, "hb"),
            IpProto::Other(v) => write!(f, "proto{v}"),
        }
    }
}

/// An IPv4 packet (header fields + payload).
///
/// # Examples
///
/// ```
/// use simnet::ip::{Ipv4Packet, IpProto};
/// use bytes::Bytes;
///
/// let p = Ipv4Packet::new(
///     "10.0.0.1".parse()?,
///     "10.0.0.9".parse()?,
///     IpProto::Tcp,
///     Bytes::from_static(b"segment"),
/// );
/// let wire = p.encode();
/// assert_eq!(Ipv4Packet::decode(&wire)?, p);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ipv4Packet {
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Transport protocol of the payload.
    pub proto: IpProto,
    /// Time to live.
    pub ttl: u8,
    /// Transport payload.
    pub payload: Bytes,
}

/// Error returned when decoding an IPv4 packet fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IpDecodeError {
    /// Input shorter than the fixed header, or shorter than the header's
    /// declared total length.
    Truncated,
    /// Version field is not 4 or IHL is not 5 (options unsupported).
    BadHeader,
    /// Header checksum mismatch.
    BadChecksum,
}

impl fmt::Display for IpDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IpDecodeError::Truncated => write!(f, "packet shorter than declared length"),
            IpDecodeError::BadHeader => write!(f, "unsupported ip version or header length"),
            IpDecodeError::BadChecksum => write!(f, "ip header checksum mismatch"),
        }
    }
}

impl std::error::Error for IpDecodeError {}

/// Computes the RFC 1071 internet checksum over `data`.
///
/// Used by the IPv4 header, ICMP, and the TCP layer in `simtcp`.
#[inline]
pub fn internet_checksum(data: &[u8]) -> u16 {
    let mut acc = ChecksumAccumulator::new();
    acc.push(data);
    acc.finish()
}

/// An incremental RFC 1071 internet checksum.
///
/// Folds the one's-complement sum over any number of [`push`]ed slices
/// — pseudo-header, TCP header, payload — without concatenating them
/// into a temporary buffer. Byte parity is carried across slices, so
/// splitting the input at any offset (even mid-word) yields the same
/// checksum as one contiguous pass.
///
/// [`push`]: ChecksumAccumulator::push
#[derive(Debug, Default, Clone)]
pub struct ChecksumAccumulator {
    /// The one's-complement sum so far, over native-endian words: the
    /// sum is byte-order independent (RFC 1071 §2(B)), so nothing is
    /// swapped per word and [`ChecksumAccumulator::finish`] swaps once.
    sum: u64,
    /// True when an odd number of bytes has been pushed so far: the next
    /// byte is the second half of the word straddling the slice boundary.
    odd: bool,
}

/// The sum of a word's two 32-bit halves: 2^32 ≡ 1 mod 0xffff, so they
/// contribute what the word's four 16-bit groups do — and what a sum of
/// such sums does, so this also brings an accumulator back under 2^33.
#[inline(always)]
fn fold32(w: u64) -> u64 {
    (w >> 32) + (w & 0xffff_ffff)
}

/// An 8-byte chunk, folded. A `u64` holds 2^31 of these before it could
/// overflow: no packet gets near.
#[inline(always)]
fn word(chunk: &[u8]) -> u64 {
    fold32(u64::from_ne_bytes(
        chunk.try_into().expect("an 8-byte chunk"),
    ))
}

impl ChecksumAccumulator {
    /// An empty accumulator.
    #[inline]
    pub fn new() -> ChecksumAccumulator {
        ChecksumAccumulator::default()
    }

    /// Folds `data` into the running sum.
    ///
    /// Payload-sized input goes 32 bytes an iteration into four
    /// independent lanes (one dependency chain each); what is left, and
    /// the 12- and 20-byte header pushes, which skip the lanes
    /// altogether, go a word, then a pair, then a byte at a time.
    /// Byte-identical to the scalar two-byte walk, pinned by a
    /// differential proptest.
    #[inline]
    pub fn push(&mut self, data: &[u8]) {
        let mut data = data;
        let mut sum = self.sum;
        if self.odd {
            let Some((&first, rest)) = data.split_first() else {
                return;
            };
            sum += u64::from(u16::from_ne_bytes([0, first]));
            self.odd = false;
            data = rest;
        }
        if data.len() >= 32 {
            let mut lanes = [0u64; 4];
            let mut wide = data.chunks_exact(32);
            for chunk in &mut wide {
                for (lane, chunk) in lanes.iter_mut().zip(chunk.chunks_exact(8)) {
                    *lane += word(chunk);
                }
            }
            data = wide.remainder();
            sum += lanes.into_iter().map(fold32).sum::<u64>();
        }
        let mut words = data.chunks_exact(8);
        for chunk in &mut words {
            sum += word(chunk);
        }
        let mut pairs = words.remainder().chunks_exact(2);
        for pair in &mut pairs {
            sum += u64::from(u16::from_ne_bytes([pair[0], pair[1]]));
        }
        if let [last] = pairs.remainder() {
            sum += u64::from(u16::from_ne_bytes([*last, 0]));
            self.odd = true;
        }
        // Back under 2^33, so no number of pushes can overflow.
        self.sum = fold32(sum);
    }

    /// The final checksum (one's complement of the folded sum).
    #[inline]
    pub fn finish(self) -> u16 {
        let mut sum = self.sum;
        while sum >> 16 != 0 {
            sum = (sum & 0xffff) + (sum >> 16);
        }
        !u16::from_be(sum as u16)
    }
}

impl Ipv4Packet {
    /// Default TTL for locally generated packets.
    pub const DEFAULT_TTL: u8 = 64;

    /// Creates a packet with the default TTL.
    #[inline]
    pub fn new(src: Ipv4Addr, dst: Ipv4Addr, proto: IpProto, payload: Bytes) -> Self {
        Ipv4Packet {
            src,
            dst,
            proto,
            ttl: Self::DEFAULT_TTL,
            payload,
        }
    }

    /// Total on-wire length: header plus payload.
    #[inline]
    pub fn wire_len(&self) -> usize {
        IPV4_HEADER_LEN + self.payload.len()
    }

    /// Builds a packet whose transport payload is written straight into
    /// the buffer the wire form will use: `write` appends the payload to a
    /// buffer that already has [`IPV4_HEADER_LEN`] bytes of headroom in
    /// front, the IP header is filled into that headroom, and the packet's
    /// `payload` is the view past it. [`Ipv4Packet::encode`] then finds
    /// its own header in front of the payload and returns the whole
    /// buffer — one payload copy, into a recycled [`Bytes::build`] store
    /// (lwIP's `pbuf_header` idiom). `payload_len` sizes the store; the
    /// packet is correct whatever `write` appends.
    pub fn build(
        src: Ipv4Addr,
        dst: Ipv4Addr,
        proto: IpProto,
        payload_len: usize,
        write: impl FnOnce(&mut Vec<u8>),
    ) -> Ipv4Packet {
        let mut pkt = Ipv4Packet::new(src, dst, proto, Bytes::new());
        let wire = Bytes::build(IPV4_HEADER_LEN + payload_len, |buf| {
            buf.resize(IPV4_HEADER_LEN, 0);
            write(buf);
            let header = pkt.header(buf.len());
            buf[..IPV4_HEADER_LEN].copy_from_slice(&header);
        });
        pkt.payload = wire.slice(IPV4_HEADER_LEN..);
        pkt
    }

    /// The 20-byte header, checksummed, for a packet of `total_len` bytes.
    #[inline]
    fn header(&self, total_len: usize) -> [u8; IPV4_HEADER_LEN] {
        let mut hdr = [0u8; IPV4_HEADER_LEN];
        hdr[0] = 0x45; // version 4, IHL 5
        hdr[2..4].copy_from_slice(&(total_len as u16).to_be_bytes());
        hdr[8] = self.ttl;
        hdr[9] = self.proto.to_u8();
        hdr[12..16].copy_from_slice(&self.src.octets());
        hdr[16..20].copy_from_slice(&self.dst.octets());
        let csum = internet_checksum(&hdr);
        hdr[10..12].copy_from_slice(&csum.to_be_bytes());
        hdr
    }

    /// Serializes the packet, computing the header checksum.
    ///
    /// A payload that already sits behind this packet's header in its
    /// allocation (see [`Ipv4Packet::build`]) is returned widened, without
    /// copying; any other payload is copied behind a fresh header. Which
    /// of the two happens depends only on the bytes in front of the
    /// payload, so editing a field after `build` is safe: the header no
    /// longer matches and a fresh buffer is built. The total length is 16
    /// bits: [`crate::iplayer::IpInterface::encap`] refuses a longer packet.
    #[inline]
    pub fn encode(&self) -> Bytes {
        debug_assert!(self.wire_len() <= usize::from(u16::MAX));
        let hdr = self.header(self.wire_len());
        if let Some(wire) = self.payload.with_headroom(IPV4_HEADER_LEN) {
            if wire[..IPV4_HEADER_LEN] == hdr {
                return wire;
            }
        }
        Bytes::build(self.wire_len(), |buf| {
            buf.extend_from_slice(&hdr);
            buf.extend_from_slice(&self.payload);
        })
    }

    /// Parses a packet from wire bytes, verifying the header checksum.
    /// The payload is a shared view of `wire`, not a copy.
    ///
    /// # Errors
    ///
    /// Returns an [`IpDecodeError`] on truncation, unsupported header
    /// layout, or checksum mismatch.
    #[inline]
    pub fn decode(wire: &Bytes) -> Result<Ipv4Packet, IpDecodeError> {
        if wire.len() < IPV4_HEADER_LEN {
            return Err(IpDecodeError::Truncated);
        }
        if wire[0] != 0x45 {
            return Err(IpDecodeError::BadHeader);
        }
        if internet_checksum(&wire[..IPV4_HEADER_LEN]) != 0 {
            return Err(IpDecodeError::BadChecksum);
        }
        let total_len = u16::from_be_bytes([wire[2], wire[3]]) as usize;
        if total_len < IPV4_HEADER_LEN || wire.len() < total_len {
            return Err(IpDecodeError::Truncated);
        }
        let mut src = [0u8; 4];
        let mut dst = [0u8; 4];
        src.copy_from_slice(&wire[12..16]);
        dst.copy_from_slice(&wire[16..20]);
        Ok(Ipv4Packet {
            src: Ipv4Addr::from(src),
            dst: Ipv4Addr::from(dst),
            proto: IpProto::from_u8(wire[9]),
            ttl: wire[8],
            payload: wire.slice(IPV4_HEADER_LEN..total_len),
        })
    }
}

impl fmt::Display for Ipv4Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{} -> {} {} {}B]",
            self.src,
            self.dst,
            self.proto,
            self.payload.len()
        )
    }
}

/// An ICMP echo message (the only ICMP types the simulator needs).
///
/// Used by the ST-TCP local-network-failure detector: when the IP-link
/// heartbeat dies but the serial heartbeat survives, both servers ping the
/// gateway and exchange the results over the serial link (paper §4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IcmpMessage {
    /// Echo request with an identifier and sequence number.
    EchoRequest {
        /// Identifier grouping requests from one pinger.
        id: u16,
        /// Sequence number within the identifier.
        seq: u16,
    },
    /// Echo reply mirroring the request's identifier and sequence.
    EchoReply {
        /// Identifier copied from the request.
        id: u16,
        /// Sequence copied from the request.
        seq: u16,
    },
}

/// Error returned when decoding an ICMP message fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IcmpDecodeError {
    /// Fewer than 8 bytes of input.
    Truncated,
    /// Not an echo request/reply.
    UnsupportedType,
    /// Checksum mismatch.
    BadChecksum,
}

impl fmt::Display for IcmpDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IcmpDecodeError::Truncated => write!(f, "icmp message shorter than header"),
            IcmpDecodeError::UnsupportedType => write!(f, "unsupported icmp type"),
            IcmpDecodeError::BadChecksum => write!(f, "icmp checksum mismatch"),
        }
    }
}

impl std::error::Error for IcmpDecodeError {}

impl IcmpMessage {
    /// Serializes the message (8-byte ICMP header, no payload).
    pub fn encode(&self) -> Bytes {
        let (ty, id, seq) = match *self {
            IcmpMessage::EchoRequest { id, seq } => (8u8, id, seq),
            IcmpMessage::EchoReply { id, seq } => (0u8, id, seq),
        };
        let mut buf = [0u8; 8];
        buf[0] = ty;
        buf[4..6].copy_from_slice(&id.to_be_bytes());
        buf[6..8].copy_from_slice(&seq.to_be_bytes());
        let csum = internet_checksum(&buf);
        buf[2..4].copy_from_slice(&csum.to_be_bytes());
        Bytes::copy_from_slice(&buf)
    }

    /// Parses a message, verifying the checksum.
    ///
    /// # Errors
    ///
    /// Returns an [`IcmpDecodeError`] on truncation, non-echo type, or
    /// checksum mismatch.
    pub fn decode(wire: &[u8]) -> Result<IcmpMessage, IcmpDecodeError> {
        if wire.len() < 8 {
            return Err(IcmpDecodeError::Truncated);
        }
        if internet_checksum(&wire[..8]) != 0 {
            return Err(IcmpDecodeError::BadChecksum);
        }
        let id = u16::from_be_bytes([wire[4], wire[5]]);
        let seq = u16::from_be_bytes([wire[6], wire[7]]);
        match wire[0] {
            8 => Ok(IcmpMessage::EchoRequest { id, seq }),
            0 => Ok(IcmpMessage::EchoReply { id, seq }),
            _ => Err(IcmpDecodeError::UnsupportedType),
        }
    }

    /// The reply corresponding to this request.
    ///
    /// Returns `None` when `self` is already a reply.
    pub fn reply(&self) -> Option<IcmpMessage> {
        match *self {
            IcmpMessage::EchoRequest { id, seq } => Some(IcmpMessage::EchoReply { id, seq }),
            IcmpMessage::EchoReply { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, last)
    }

    fn sample() -> Ipv4Packet {
        Ipv4Packet::new(addr(1), addr(9), IpProto::Tcp, Bytes::from_static(b"abc"))
    }

    #[test]
    fn checksum_known_vector() {
        // Example from RFC 1071 discussions: verify the complement property
        // rather than a magic constant — appending the checksum makes the
        // total sum verify to zero.
        let data = [0x45u8, 0x00, 0x00, 0x73, 0x00, 0x00, 0x40, 0x00, 0x40, 0x11];
        let csum = internet_checksum(&data);
        let mut with = data.to_vec();
        with.extend_from_slice(&csum.to_be_bytes());
        assert_eq!(internet_checksum(&with), 0);
    }

    #[test]
    fn checksum_published_vectors() {
        // RFC 1071 §3's worked example: the words sum to 0xddf2.
        let rfc = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(internet_checksum(&rfc), !0xddf2);
        // The IPv4 header every textbook checks (192.168.0.1 →
        // 192.168.0.199, UDP, length 115): checksum 0xb861.
        let mut hdr = [
            0x45u8, 0x00, 0x00, 0x73, 0x00, 0x00, 0x40, 0x00, 0x40, 0x11, 0x00, 0x00, 0xc0, 0xa8,
            0x00, 0x01, 0xc0, 0xa8, 0x00, 0xc7,
        ];
        assert_eq!(internet_checksum(&hdr), 0xb861);
        hdr[10..12].copy_from_slice(&0xb861u16.to_be_bytes());
        assert_eq!(internet_checksum(&hdr), 0);
        // Both spellings of zero: nothing summed, and all-ones summed.
        assert_eq!(internet_checksum(&[]), 0xffff);
        assert_eq!(internet_checksum(&[0xff; 64]), 0);
    }

    #[test]
    fn checksum_odd_length() {
        let data = [1u8, 2, 3];
        let csum = internet_checksum(&data);
        let mut with = data.to_vec();
        // Odd-length data is padded with zero for the sum, so to verify we
        // pad first, then append.
        with.push(0);
        with.extend_from_slice(&csum.to_be_bytes());
        assert_eq!(internet_checksum(&with), 0);
    }

    #[test]
    fn ip_roundtrip() {
        let p = sample();
        assert_eq!(Ipv4Packet::decode(&p.encode()).unwrap(), p);
    }

    #[test]
    fn ip_empty_payload_roundtrip() {
        let p = Ipv4Packet::new(addr(2), addr(3), IpProto::Heartbeat, Bytes::new());
        assert_eq!(Ipv4Packet::decode(&p.encode()).unwrap(), p);
    }

    #[test]
    fn ip_corrupted_checksum_rejected() {
        let mut wire = sample().encode().to_vec();
        wire[15] ^= 0xff; // flip a src-address byte
        assert_eq!(
            Ipv4Packet::decode(&Bytes::from(wire)),
            Err(IpDecodeError::BadChecksum)
        );
    }

    #[test]
    fn ip_truncated_rejected() {
        let wire = sample().encode();
        assert_eq!(
            Ipv4Packet::decode(&wire.slice(..10)),
            Err(IpDecodeError::Truncated)
        );
        // Truncated below declared total length.
        assert_eq!(
            Ipv4Packet::decode(&wire.slice(..wire.len() - 1)),
            Err(IpDecodeError::Truncated)
        );
    }

    #[test]
    fn ip_bad_version_rejected() {
        let mut wire = sample().encode().to_vec();
        wire[0] = 0x65; // version 6
        assert_eq!(
            Ipv4Packet::decode(&Bytes::from(wire)),
            Err(IpDecodeError::BadHeader)
        );
    }

    #[test]
    fn ip_trailing_padding_ignored() {
        // Ethernet can pad short frames; decode must honor total_len.
        let p = sample();
        let mut wire = p.encode().to_vec();
        wire.extend_from_slice(&[0u8; 7]);
        assert_eq!(Ipv4Packet::decode(&Bytes::from(wire)).unwrap(), p);
    }

    #[test]
    fn decoded_payload_points_into_the_wire_buffer() {
        let wire = sample().encode();
        let p = Ipv4Packet::decode(&wire).unwrap();
        assert_eq!(p.payload.as_ptr(), wire[IPV4_HEADER_LEN..].as_ptr());
    }

    #[test]
    fn built_packet_encodes_in_place_and_matches_the_copying_path() {
        let body = b"transport bytes";
        let built = Ipv4Packet::build(addr(1), addr(9), IpProto::Tcp, body.len(), |buf| {
            buf.extend_from_slice(body)
        });
        let plain = Ipv4Packet::new(addr(1), addr(9), IpProto::Tcp, Bytes::from_static(body));
        assert_eq!(built, plain);
        let wire = built.encode();
        assert_eq!(wire, plain.encode(), "same bytes on the wire");
        assert_eq!(
            wire[IPV4_HEADER_LEN..].as_ptr(),
            built.payload.as_ptr(),
            "the headroom was filled in place: no second buffer"
        );
        assert_ne!(
            plain.encode()[IPV4_HEADER_LEN..].as_ptr(),
            plain.payload.as_ptr()
        );
        // The size hint only sizes the allocation.
        let short = Ipv4Packet::build(addr(1), addr(9), IpProto::Tcp, 0, |buf| {
            buf.extend_from_slice(body)
        });
        assert_eq!(short.encode(), wire);
    }

    #[test]
    fn edited_built_packet_falls_back_to_a_fresh_correct_header() {
        let mut p = Ipv4Packet::build(addr(1), addr(9), IpProto::Tcp, 3, |buf| {
            buf.extend_from_slice(b"abc")
        });
        p.ttl = 3;
        let wire = p.encode();
        assert_ne!(wire[IPV4_HEADER_LEN..].as_ptr(), p.payload.as_ptr());
        assert_eq!(Ipv4Packet::decode(&wire).unwrap(), p);
        // A payload that merely follows 20 unrelated bytes is not mistaken
        // for a built packet.
        let buf = Bytes::from(vec![0x45u8; 64]);
        let q = Ipv4Packet::new(addr(2), addr(3), IpProto::Tcp, buf.slice(20..));
        assert_eq!(Ipv4Packet::decode(&q.encode()).unwrap(), q);
    }

    #[test]
    fn proto_wire_values() {
        assert_eq!(IpProto::Tcp.to_u8(), 6);
        assert_eq!(IpProto::from_u8(1), IpProto::Icmp);
        assert_eq!(IpProto::from_u8(253), IpProto::Heartbeat);
        assert_eq!(IpProto::from_u8(17), IpProto::Other(17));
    }

    #[test]
    fn icmp_roundtrip() {
        for msg in [
            IcmpMessage::EchoRequest { id: 7, seq: 1 },
            IcmpMessage::EchoReply { id: 7, seq: 1 },
            IcmpMessage::EchoRequest { id: 0, seq: 0xffff },
        ] {
            assert_eq!(IcmpMessage::decode(&msg.encode()).unwrap(), msg);
        }
    }

    #[test]
    fn icmp_reply_pairs_request() {
        let req = IcmpMessage::EchoRequest { id: 3, seq: 9 };
        assert_eq!(req.reply(), Some(IcmpMessage::EchoReply { id: 3, seq: 9 }));
        assert_eq!(req.reply().unwrap().reply(), None);
    }

    #[test]
    fn icmp_corruption_rejected() {
        let mut wire = IcmpMessage::EchoRequest { id: 1, seq: 2 }.encode().to_vec();
        wire[5] ^= 1;
        assert_eq!(
            IcmpMessage::decode(&wire),
            Err(IcmpDecodeError::BadChecksum)
        );
        assert_eq!(
            IcmpMessage::decode(&wire[..4]),
            Err(IcmpDecodeError::Truncated)
        );
    }

    #[test]
    fn icmp_unsupported_type_rejected() {
        let mut wire = [0u8; 8];
        wire[0] = 3; // destination unreachable
        let csum = internet_checksum(&wire);
        wire[2..4].copy_from_slice(&csum.to_be_bytes());
        assert_eq!(
            IcmpMessage::decode(&wire),
            Err(IcmpDecodeError::UnsupportedType)
        );
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!sample().to_string().is_empty());
        assert_eq!(IpProto::Heartbeat.to_string(), "hb");
    }

    #[test]
    fn accumulator_matches_contiguous_checksum_at_every_split() {
        let data: Vec<u8> = (0u16..313)
            .map(|i| (i.wrapping_mul(31) >> 3) as u8)
            .collect();
        let whole = internet_checksum(&data);
        for split in 0..=data.len() {
            let mut acc = ChecksumAccumulator::new();
            acc.push(&data[..split]);
            acc.push(&data[split..]);
            assert_eq!(acc.finish(), whole, "split at {split}");
        }
    }

    #[test]
    fn accumulator_handles_odd_slices_and_empty_pushes() {
        // Three odd-length slices + empty pushes: parity carries across.
        let (a, b, c) = (
            &[0x01u8, 0x02, 0x03][..],
            &[0x04u8][..],
            &[0x05u8, 0x06, 0x07][..],
        );
        let mut joined = Vec::new();
        joined.extend_from_slice(a);
        joined.extend_from_slice(b);
        joined.extend_from_slice(c);
        let mut acc = ChecksumAccumulator::new();
        acc.push(a);
        acc.push(&[]);
        acc.push(b);
        acc.push(c);
        acc.push(&[]);
        assert_eq!(acc.finish(), internet_checksum(&joined));
    }
}
