//! The ST-TCP heartbeat: wire format and per-link bookkeeping.
//!
//! Each server sends a heartbeat every `hb_period` on **both** links (IP
//! and serial). The payload carries, per TCP connection, exactly the four
//! fields the paper enumerates in §3 — `LastByteReceived`,
//! `LastAckReceived`, `LastAppByteWritten`, `LastAppByteRead` — plus
//! FIN/RST generation notices, and (while the IP heartbeat is down) the
//! gateway-ping results of §4.3.
//!
//! The wire format packs each connection into 21 bytes (the paper claims
//! "<20 bytes per TCP connection"; experiment E-S1 measures ours). The
//! byte counters travel as wrapping `u32`s and are unwrapped at the
//! receiver against its last-known 64-bit values, the same trick TCP
//! itself uses for sequence numbers.

use bytes::{BufMut, Bytes, BytesMut};
use core::fmt;

use simtcp::socket::FourTuple;

use crate::config::Role;

/// A compact, stable identifier for a connection shared by both servers.
///
/// Both servers observe the same client four-tuple (the backup taps the
/// same SYN), so a keyed hash of it names the connection consistently on
/// both sides without coordination.
pub fn conn_key(tuple: FourTuple) -> u32 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |b: u8| {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for b in tuple.local.0.octets() {
        eat(b);
    }
    for b in tuple.local.1.to_be_bytes() {
        eat(b);
    }
    for b in tuple.remote.0.octets() {
        eat(b);
    }
    for b in tuple.remote.1.to_be_bytes() {
        eat(b);
    }
    (h ^ (h >> 32)) as u32
}

/// Unwraps a 32-bit wire counter to 64 bits near a last-known value.
///
/// Exact as long as the true value lies within ±2³¹ of `near` — heartbeat
/// counters advance by at most a few megabytes between heartbeats, so this
/// holds with enormous margin.
pub fn unwrap_u32_near(wire: u32, near: u64) -> u64 {
    let delta = wire.wrapping_sub(near as u32) as i32 as i64;
    (near as i64 + delta).max(0) as u64
}

/// Per-connection heartbeat record (§3's field list).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConnHb {
    /// Connection identifier ([`conn_key`]).
    pub key: u32,
    /// Contiguous client bytes received by TCP (`LastByteReceived`).
    pub last_byte_received: u64,
    /// Highest client ACK seen (`LastAckReceived`).
    pub last_ack_received: u64,
    /// Bytes the application has written to the TCP send buffer
    /// (`LastAppByteWritten`).
    pub last_app_byte_written: u64,
    /// Bytes the application has read from the TCP receive buffer
    /// (`LastAppByteRead`).
    pub last_app_byte_read: u64,
    /// This server's TCP has generated a FIN for the connection.
    pub fin_generated: bool,
    /// This server's TCP has generated an RST for the connection.
    pub rst_generated: bool,
    /// This server's *own* watchdog suspects its application replica has
    /// failed (the §4.2.2 extension) — a self-report the peer acts on.
    pub app_suspected: bool,
}

/// Gateway-ping results carried while the IP heartbeat is down (§4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PingReport {
    /// Consecutive gateway pings that went unanswered.
    pub consecutive_failures: u32,
    /// Total pings attempted since the campaign began.
    pub attempts: u32,
}

/// One heartbeat message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HbPayload {
    /// Sender's heartbeat sequence number (wrapping).
    pub seqno: u32,
    /// Sender's current role.
    pub role: Role,
    /// Sender's replica-pool rank (0 in pair mode). Ranks order takeover
    /// candidacy in an N-replica pool and change when a rebooted node
    /// rejoins, so every heartbeat announces the sender's current one.
    pub rank: u8,
    /// Per-connection records.
    pub conns: Vec<ConnHb>,
    /// Ping report, present only during an IP-heartbeat outage.
    pub ping: Option<PingReport>,
}

/// Error returned when decoding a heartbeat fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HbDecodeError;

impl fmt::Display for HbDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed heartbeat payload")
    }
}

impl std::error::Error for HbDecodeError {}

/// Fixed header length of the heartbeat wire format (includes the
/// CRC-32 at bytes 9..13).
pub const HB_HEADER_LEN: usize = 13;
/// Wire length of one per-connection record.
pub const HB_CONN_LEN: usize = 21;
/// Wire length of the optional ping report.
pub const HB_PING_LEN: usize = 8;

/// A total big-endian `u32` read: out of range is a decode error.
#[inline]
fn rd32(wire: &[u8], at: usize) -> Result<u32, HbDecodeError> {
    crate::wire::read_u32_at(wire, at).ok_or(HbDecodeError)
}

/// Appends what every heartbeat format ends with: the 21-byte
/// per-connection records (`key:4 lbr:4 lar:4 labw:4 labr:4 flags:1`)
/// and the optional ping trailer (`fails:4 attempts:4`).
#[inline(always)]
fn put_records(b: &mut BytesMut, conns: &[ConnHb], ping: Option<PingReport>) {
    for c in conns {
        b.put_u32(c.key);
        b.put_u32(c.last_byte_received as u32);
        b.put_u32(c.last_ack_received as u32);
        b.put_u32(c.last_app_byte_written as u32);
        b.put_u32(c.last_app_byte_read as u32);
        b.put_u8(
            (c.fin_generated as u8) | (c.rst_generated as u8) << 1 | (c.app_suspected as u8) << 2,
        );
    }
    if let Some(p) = ping {
        b.put_u32(p.consecutive_failures);
        b.put_u32(p.attempts);
    }
}

/// Reads `n` records and, when `has_ping`, the ping trailer from `at` —
/// [`put_records`]' inverse. The caller has checked the exact length;
/// every read is total anyway.
#[inline(always)]
fn read_records(
    wire: &[u8],
    mut at: usize,
    n: usize,
    has_ping: bool,
) -> Result<(Vec<ConnHb>, Option<PingReport>), HbDecodeError> {
    let mut conns = Vec::with_capacity(n);
    for _ in 0..n {
        let flags = wire.get(at + 20).copied().ok_or(HbDecodeError)?;
        conns.push(ConnHb {
            key: rd32(wire, at)?,
            last_byte_received: rd32(wire, at + 4)? as u64,
            last_ack_received: rd32(wire, at + 8)? as u64,
            last_app_byte_written: rd32(wire, at + 12)? as u64,
            last_app_byte_read: rd32(wire, at + 16)? as u64,
            fin_generated: flags & 1 != 0,
            rst_generated: flags & 2 != 0,
            app_suspected: flags & 4 != 0,
        });
        at += HB_CONN_LEN;
    }
    let ping = match has_ping {
        true => Some(PingReport {
            consecutive_failures: rd32(wire, at)?,
            attempts: rd32(wire, at + 4)?,
        }),
        false => None,
    };
    Ok((conns, ping))
}

impl HbPayload {
    /// Serializes the heartbeat.
    ///
    /// Layout: `seqno:4 | role:1 | rank:1 | flags:1 | conn_count:2 | crc:4 |
    /// [key:4 lbr:4 lar:4 labw:4 labr:4 flags:1]* | [fails:4 attempts:4]?`
    ///
    /// The CRC-32 covers the whole message with the CRC field itself
    /// zeroed; both heartbeat links can corrupt frames in flight and a
    /// heartbeat acted on corruptly could trigger a spurious failover.
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(self.wire_len());
        b.put_u32(self.seqno);
        b.put_u8(match self.role {
            Role::Primary => 0,
            Role::Backup => 1,
        });
        b.put_u8(self.rank);
        b.put_u8(self.ping.is_some() as u8);
        b.put_u16(self.conns.len() as u16);
        b.put_u32(0); // CRC placeholder, patched below.
        put_records(&mut b, &self.conns, self.ping);
        let crc = crate::wire::crc32(&b);
        b[9..13].copy_from_slice(&crc.to_be_bytes());
        b.freeze()
    }

    /// The encoded size in bytes.
    pub fn wire_len(&self) -> usize {
        HB_HEADER_LEN
            + self.conns.len() * HB_CONN_LEN
            + if self.ping.is_some() { HB_PING_LEN } else { 0 }
    }

    /// Parses a heartbeat. Counters come back as raw `u32`s widened to
    /// `u64`; callers unwrap them against known state with
    /// [`unwrap_u32_near`].
    ///
    /// # Errors
    ///
    /// Returns [`HbDecodeError`] on truncation, trailing garbage, a bad
    /// role byte, or a CRC mismatch. Total: never panics, any input.
    pub fn decode(wire: &[u8]) -> Result<HbPayload, HbDecodeError> {
        if wire.len() < HB_HEADER_LEN {
            return Err(HbDecodeError);
        }
        let seqno = u32::from_be_bytes([wire[0], wire[1], wire[2], wire[3]]);
        let role = match wire[4] {
            0 => Role::Primary,
            1 => Role::Backup,
            _ => return Err(HbDecodeError),
        };
        let rank = wire[5];
        let has_ping = match wire[6] {
            0 => false,
            1 => true,
            _ => return Err(HbDecodeError),
        };
        let n = u16::from_be_bytes([wire[7], wire[8]]) as usize;
        let need = HB_HEADER_LEN + n * HB_CONN_LEN + if has_ping { HB_PING_LEN } else { 0 };
        // Exact length: a message is one datagram, so trailing bytes mean
        // corruption (a mangled conn_count would otherwise mis-frame).
        if wire.len() != need {
            return Err(HbDecodeError);
        }
        // All remaining reads go through the total helpers in
        // `crate::wire` (`rd32`), so a wrong length precondition degrades
        // into a decode error instead of a panic.
        let stored_crc = rd32(wire, 9)?;
        // Stream the CRC with the on-wire CRC field treated as zero —
        // no zeroed copy of the frame.
        let mut crc = crate::wire::Crc32::new();
        crc.update(&wire[..9]);
        crc.update(&[0u8; 4]);
        crc.update(&wire[13..]);
        if crc.finish() != stored_crc {
            return Err(HbDecodeError);
        }
        let (conns, ping) = read_records(wire, HB_HEADER_LEN, n, has_ping)?;
        Ok(HbPayload {
            seqno,
            role,
            rank,
            conns,
            ping,
        })
    }
}

/// Fixed header length of the v2 (delta-capable) heartbeat wire format,
/// excluding the per-link ack array.
pub const HB_V2_HEADER_LEN: usize = 25;
/// Version byte that opens every v2 frame.
pub const HB_V2_VERSION: u8 = 2;
/// Fixed header length of the v3 (batched) heartbeat wire format: the
/// v2 header plus `part:2 parts:2` inserted before the CRC.
pub const HB_V3_HEADER_LEN: usize = 29;
/// Version byte that opens every v3 (multi-part batch) frame.
pub const HB_V3_VERSION: u8 = 3;

/// What a v2 frame's connection list means.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HbFrameKind {
    /// Full-state resync: every live connection is present. Sent until the
    /// peer's ack epoch matches ours, and again after takeover/join/reboot.
    Full,
    /// Delta: only connections whose counters changed since the last
    /// heartbeat the peer acknowledged (dirty-until-acked).
    Delta,
}

/// A v2/v3 heartbeat frame: the v1 payload plus the delta-protocol
/// envelope, optionally split into a multi-part batch.
///
/// v2 (single) layout: `ver:1 kind:1 role:1 rank:1 flags:1 | seqno:4
/// epoch:4 | link:1 nlinks:1 conn_count:2 | ack_epoch:4 | crc:4 |
/// [ack:4]*nlinks | conn records | ping?`. The CRC-32 covers the whole
/// message with the CRC field zeroed, exactly like v1.
///
/// v3 (batch) layout is identical except the version byte is 3 and
/// `part:2 parts:2` sits between `ack_epoch` and the CRC. A round whose
/// record list exceeds the configured batch size is coalesced into
/// ⌈records/batch⌉ parts sharing one `seqno`; every part repeats the
/// envelope (CRC-framed independently, so one corrupt part costs one
/// part). Encoding is canonical: `parts <= 1` always emits v2 bytes,
/// multi-part frames always emit v3, and the decoder rejects a v3 frame
/// claiming `parts < 2` — one frame, one valid encoding.
///
/// `epoch` identifies the sender's boot incarnation; acks from a previous
/// incarnation are ignored, which forces full-state frames after any
/// reboot, takeover, or join until the peer has echoed the new epoch.
/// `acks[i]` is the highest seqno this sender has *applied* from the
/// peer on link `i` (0 = IP, `1+i` = serial link `i`; 0 means nothing
/// received), and `ack_epoch` is the peer epoch those acks refer to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HbFrame {
    /// Full resync or delta.
    pub kind: HbFrameKind,
    /// Sender's boot incarnation.
    pub epoch: u32,
    /// Which link this frame was built for (0 = IP, 1+i = serial i).
    /// Serial deltas carry only their conn shard; the link id lets the
    /// receiver account acks per link.
    pub link: u8,
    /// Epoch of the *peer* that `acks` refers to.
    pub ack_epoch: u32,
    /// Batch part index, 0-based. Single-frame rounds are `part: 0,
    /// parts: 1`.
    pub part: u16,
    /// Total parts in this round's batch on this link (>= 1). The
    /// receiver acks the round's `seqno` only once all parts arrived.
    pub parts: u16,
    /// Per-link cumulative acks of the peer's frames (index 0 = IP).
    pub acks: Vec<u32>,
    /// The embedded v1-shaped payload (seqno, role, rank, conns, ping).
    pub hb: HbPayload,
}

/// Result of decoding a heartbeat of either wire version.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnyHb {
    /// Legacy full-state frame.
    V1(HbPayload),
    /// Delta-capable v2 (single) or v3 (batch) frame.
    V2(HbFrame),
}

/// Decodes a heartbeat of any version. v2/v3 are tried first (their
/// leading version byte plus independent CRC placement keeps the
/// formats from colliding), then v1.
///
/// # Errors
///
/// Returns [`HbDecodeError`] if the input parses as no version.
pub fn decode_any(wire: &[u8]) -> Result<AnyHb, HbDecodeError> {
    if wire.first() == Some(&HB_V2_VERSION) || wire.first() == Some(&HB_V3_VERSION) {
        if let Ok(f) = HbFrame::decode(wire) {
            return Ok(AnyHb::V2(f));
        }
    }
    HbPayload::decode(wire).map(AnyHb::V1)
}

impl HbFrame {
    /// Serializes the frame. See the type docs for the layout. Emits v2
    /// bytes for a single-part frame (`parts <= 1`) and v3 bytes for a
    /// multi-part one — the canonical encoding the decoder enforces.
    pub fn encode(&self) -> Bytes {
        let batched = self.parts > 1;
        let mut b = BytesMut::with_capacity(self.wire_len());
        b.put_u8(if batched {
            HB_V3_VERSION
        } else {
            HB_V2_VERSION
        });
        b.put_u8(match self.kind {
            HbFrameKind::Full => 0,
            HbFrameKind::Delta => 1,
        });
        b.put_u8(match self.hb.role {
            Role::Primary => 0,
            Role::Backup => 1,
        });
        b.put_u8(self.hb.rank);
        b.put_u8(self.hb.ping.is_some() as u8);
        b.put_u32(self.hb.seqno);
        b.put_u32(self.epoch);
        b.put_u8(self.link);
        b.put_u8(self.acks.len() as u8);
        b.put_u16(self.hb.conns.len() as u16);
        b.put_u32(self.ack_epoch);
        if batched {
            b.put_u16(self.part);
            b.put_u16(self.parts);
        }
        let crc_at = b.len();
        b.put_u32(0); // CRC placeholder, patched below.
        for &a in &self.acks {
            b.put_u32(a);
        }
        put_records(&mut b, &self.hb.conns, self.hb.ping);
        let crc = crate::wire::crc32(&b);
        b[crc_at..crc_at + 4].copy_from_slice(&crc.to_be_bytes());
        b.freeze()
    }

    /// The encoded size in bytes.
    pub fn wire_len(&self) -> usize {
        let header = if self.parts > 1 {
            HB_V3_HEADER_LEN
        } else {
            HB_V2_HEADER_LEN
        };
        header
            + self.acks.len() * 4
            + self.hb.conns.len() * HB_CONN_LEN
            + if self.hb.ping.is_some() {
                HB_PING_LEN
            } else {
                0
            }
    }

    /// Parses a v2 or v3 frame (dispatching on the version byte).
    ///
    /// # Errors
    ///
    /// Returns [`HbDecodeError`] on a wrong version byte, truncation,
    /// trailing garbage, bad enum bytes, a non-canonical batch header
    /// (`parts < 2` or `part >= parts` in a v3 frame), or a CRC
    /// mismatch. Total: never panics, any input.
    pub fn decode(wire: &[u8]) -> Result<HbFrame, HbDecodeError> {
        let header_len = match wire.first() {
            Some(&HB_V2_VERSION) => HB_V2_HEADER_LEN,
            Some(&HB_V3_VERSION) => HB_V3_HEADER_LEN,
            _ => return Err(HbDecodeError),
        };
        if wire.len() < header_len {
            return Err(HbDecodeError);
        }
        let kind = match wire[1] {
            0 => HbFrameKind::Full,
            1 => HbFrameKind::Delta,
            _ => return Err(HbDecodeError),
        };
        let role = match wire[2] {
            0 => Role::Primary,
            1 => Role::Backup,
            _ => return Err(HbDecodeError),
        };
        let rank = wire[3];
        let has_ping = match wire[4] {
            0 => false,
            1 => true,
            _ => return Err(HbDecodeError),
        };
        let seqno = rd32(wire, 5)?;
        let epoch = rd32(wire, 9)?;
        let link = wire[13];
        let nlinks = wire[14] as usize;
        let n = u16::from_be_bytes([wire[15], wire[16]]) as usize;
        let ack_epoch = rd32(wire, 17)?;
        let (part, parts) = if header_len == HB_V3_HEADER_LEN {
            let part = u16::from_be_bytes([wire[21], wire[22]]);
            let parts = u16::from_be_bytes([wire[23], wire[24]]);
            // Canonical encoding: a one-part round must be v2 bytes, and
            // a part index past the count is nonsense.
            if parts < 2 || part >= parts {
                return Err(HbDecodeError);
            }
            (part, parts)
        } else {
            (0, 1)
        };
        let need =
            header_len + nlinks * 4 + n * HB_CONN_LEN + if has_ping { HB_PING_LEN } else { 0 };
        // Exact length, like v1: trailing bytes mean corruption.
        if wire.len() != need {
            return Err(HbDecodeError);
        }
        let crc_at = header_len - 4;
        let stored_crc = rd32(wire, crc_at)?;
        let mut crc = crate::wire::Crc32::new();
        crc.update(&wire[..crc_at]);
        crc.update(&[0u8; 4]);
        crc.update(&wire[header_len..]);
        if crc.finish() != stored_crc {
            return Err(HbDecodeError);
        }
        let mut at = header_len;
        let mut acks = Vec::with_capacity(nlinks);
        for _ in 0..nlinks {
            acks.push(rd32(wire, at)?);
            at += 4;
        }
        let (conns, ping) = read_records(wire, at, n, has_ping)?;
        Ok(HbFrame {
            kind,
            epoch,
            link,
            ack_epoch,
            part,
            parts,
            acks,
            hb: HbPayload {
                seqno,
                role,
                rank,
                conns,
                ping,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn tuple(port: u16) -> FourTuple {
        FourTuple {
            local: (Ipv4Addr::new(10, 0, 0, 100), 80),
            remote: (Ipv4Addr::new(10, 0, 0, 1), port),
        }
    }

    fn sample() -> HbPayload {
        HbPayload {
            seqno: 77,
            role: Role::Backup,
            rank: 2,
            conns: vec![
                ConnHb {
                    key: conn_key(tuple(40_000)),
                    last_byte_received: 123_456,
                    last_ack_received: 120_000,
                    last_app_byte_written: 99_999,
                    last_app_byte_read: 123_000,
                    fin_generated: true,
                    rst_generated: false,
                    app_suspected: true,
                },
                ConnHb {
                    key: conn_key(tuple(40_001)),
                    rst_generated: true,
                    ..Default::default()
                },
            ],
            ping: Some(PingReport {
                consecutive_failures: 2,
                attempts: 9,
            }),
        }
    }

    #[test]
    fn roundtrip() {
        let hb = sample();
        let decoded = HbPayload::decode(&hb.encode()).unwrap();
        assert_eq!(decoded, hb);
    }

    #[test]
    fn roundtrip_without_ping_or_conns() {
        let hb = HbPayload {
            seqno: 1,
            role: Role::Primary,
            rank: 0,
            conns: vec![],
            ping: None,
        };
        assert_eq!(HbPayload::decode(&hb.encode()).unwrap(), hb);
        assert_eq!(hb.wire_len(), HB_HEADER_LEN);
    }

    #[test]
    fn per_connection_cost_is_about_twenty_bytes() {
        // The paper's §3 capacity arithmetic assumes <20 B per connection;
        // ours is 21 and E-S1 reports the resulting capacity honestly.
        assert_eq!(HB_CONN_LEN, 21);
        let one = HbPayload {
            seqno: 0,
            role: Role::Primary,
            rank: 0,
            conns: vec![ConnHb::default()],
            ping: None,
        };
        assert_eq!(one.encode().len(), HB_HEADER_LEN + 21);
    }

    #[test]
    fn truncation_rejected() {
        let wire = sample().encode();
        assert_eq!(HbPayload::decode(&wire[..4]), Err(HbDecodeError));
        assert_eq!(
            HbPayload::decode(&wire[..wire.len() - 1]),
            Err(HbDecodeError)
        );
    }

    #[test]
    fn bad_role_rejected() {
        let mut wire = sample().encode().to_vec();
        wire[4] = 9;
        assert_eq!(HbPayload::decode(&wire), Err(HbDecodeError));
    }

    #[test]
    fn every_single_bit_flip_rejected() {
        // The chaos engine flips one payload bit in flight; no such
        // corruption may survive decoding as a valid heartbeat.
        let wire = sample().encode().to_vec();
        for bit in 0..wire.len() * 8 {
            let mut flipped = wire.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_eq!(
                HbPayload::decode(&flipped),
                Err(HbDecodeError),
                "flipping bit {bit} went undetected"
            );
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut wire = sample().encode().to_vec();
        wire.push(0);
        assert_eq!(HbPayload::decode(&wire), Err(HbDecodeError));
    }

    #[test]
    fn counters_wrap_but_unwrap_correctly() {
        // A counter at 6 GiB truncates on the wire; unwrapping near the
        // receiver's previous value (a little behind) recovers it.
        let true_val: u64 = 6 * 1024 * 1024 * 1024 + 12_345;
        let wire = true_val as u32;
        let near = true_val - 70_000; // receiver last knew this
        assert_eq!(unwrap_u32_near(wire, near), true_val);
        // Slightly ahead also works (stale heartbeat reordering).
        assert_eq!(unwrap_u32_near(wire, true_val + 50_000), true_val);
    }

    #[test]
    fn unwrap_never_goes_negative() {
        assert_eq!(unwrap_u32_near(5, 0), 5);
        // A wire value "behind" zero clamps to zero rather than underflowing.
        assert_eq!(unwrap_u32_near(u32::MAX, 0), 0);
    }

    #[test]
    fn conn_key_is_stable_and_discriminating() {
        assert_eq!(conn_key(tuple(1)), conn_key(tuple(1)));
        assert_ne!(conn_key(tuple(1)), conn_key(tuple(2)));
        // Both servers compute the same key for the same client tuple.
        let on_primary = conn_key(tuple(40_000));
        let on_backup = conn_key(tuple(40_000));
        assert_eq!(on_primary, on_backup);
    }

    fn sample_v2(kind: HbFrameKind) -> HbFrame {
        HbFrame {
            kind,
            epoch: 0xdead_beef,
            link: 2,
            ack_epoch: 0x0bad_cafe,
            part: 0,
            parts: 1,
            acks: vec![41, 40, 39],
            hb: sample(),
        }
    }

    fn sample_v3(kind: HbFrameKind) -> HbFrame {
        HbFrame {
            part: 1,
            parts: 3,
            ..sample_v2(kind)
        }
    }

    #[test]
    fn v2_roundtrip() {
        for kind in [HbFrameKind::Full, HbFrameKind::Delta] {
            let f = sample_v2(kind);
            assert_eq!(HbFrame::decode(&f.encode()).unwrap(), f);
            assert_eq!(f.encode().len(), f.wire_len());
        }
    }

    #[test]
    fn v2_roundtrip_empty() {
        // A steady-state delta with nothing dirty: header + acks only.
        let f = HbFrame {
            kind: HbFrameKind::Delta,
            epoch: 1,
            link: 0,
            ack_epoch: 0,
            part: 0,
            parts: 1,
            acks: vec![0, 0],
            hb: HbPayload {
                seqno: 1,
                role: Role::Primary,
                rank: 0,
                conns: vec![],
                ping: None,
            },
        };
        assert_eq!(HbFrame::decode(&f.encode()).unwrap(), f);
        assert_eq!(f.wire_len(), HB_V2_HEADER_LEN + 8);
    }

    #[test]
    fn v2_truncation_rejected() {
        let wire = sample_v2(HbFrameKind::Delta).encode();
        assert_eq!(HbFrame::decode(&wire[..4]), Err(HbDecodeError));
        assert_eq!(HbFrame::decode(&wire[..wire.len() - 1]), Err(HbDecodeError));
    }

    #[test]
    fn v2_trailing_garbage_rejected() {
        let mut wire = sample_v2(HbFrameKind::Full).encode().to_vec();
        wire.push(0);
        assert_eq!(HbFrame::decode(&wire), Err(HbDecodeError));
    }

    #[test]
    fn v2_every_single_bit_flip_rejected() {
        let wire = sample_v2(HbFrameKind::Delta).encode().to_vec();
        for bit in 0..wire.len() * 8 {
            let mut flipped = wire.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_eq!(
                HbFrame::decode(&flipped),
                Err(HbDecodeError),
                "flipping bit {bit} went undetected"
            );
            // Nor may corruption smuggle a v2 frame through the dual
            // decoder as a valid v1 heartbeat (or anything else).
            assert_eq!(
                decode_any(&flipped),
                Err(HbDecodeError),
                "flipping bit {bit} survived decode_any"
            );
        }
    }

    #[test]
    fn decode_any_distinguishes_versions() {
        let v1 = sample();
        let v2 = sample_v2(HbFrameKind::Delta);
        let v3 = sample_v3(HbFrameKind::Delta);
        assert_eq!(decode_any(&v1.encode()).unwrap(), AnyHb::V1(v1));
        assert_eq!(decode_any(&v2.encode()).unwrap(), AnyHb::V2(v2));
        assert_eq!(decode_any(&v3.encode()).unwrap(), AnyHb::V2(v3));
    }

    #[test]
    fn v3_roundtrip() {
        for kind in [HbFrameKind::Full, HbFrameKind::Delta] {
            let f = sample_v3(kind);
            let wire = f.encode();
            assert_eq!(wire[0], HB_V3_VERSION);
            assert_eq!(HbFrame::decode(&wire).unwrap(), f);
            assert_eq!(wire.len(), f.wire_len());
        }
    }

    #[test]
    fn single_part_frames_keep_the_v2_encoding() {
        // The interop guarantee: a sender whose batch knob is off (or
        // whose round fits one frame) emits bytes a pre-batch receiver
        // accepts — `parts: 1` and the v2 wire format are the same
        // thing, not merely compatible.
        let f = sample_v2(HbFrameKind::Delta);
        let wire = f.encode();
        assert_eq!(wire[0], HB_V2_VERSION);
        assert_eq!(
            wire.len(),
            HB_V2_HEADER_LEN + 3 * 4 + 2 * HB_CONN_LEN + HB_PING_LEN
        );
        let back = HbFrame::decode(&wire).unwrap();
        assert_eq!((back.part, back.parts), (0, 1));
        assert_eq!(back, f);
    }

    #[test]
    fn v3_truncation_and_trailing_garbage_rejected() {
        let wire = sample_v3(HbFrameKind::Delta).encode();
        assert_eq!(HbFrame::decode(&wire[..4]), Err(HbDecodeError));
        assert_eq!(HbFrame::decode(&wire[..wire.len() - 1]), Err(HbDecodeError));
        let mut extended = wire.to_vec();
        extended.push(0);
        assert_eq!(HbFrame::decode(&extended), Err(HbDecodeError));
    }

    #[test]
    fn v3_non_canonical_batch_headers_rejected() {
        // Re-CRC a v3 frame with out-of-bounds part fields: the frame is
        // otherwise pristine, so only the canonical-batch check can
        // reject it.
        let good = sample_v3(HbFrameKind::Delta).encode().to_vec();
        for (part, parts) in [(3u16, 3u16), (7, 3), (0, 1), (0, 0), (1, 1)] {
            let mut wire = good.clone();
            wire[21..23].copy_from_slice(&part.to_be_bytes());
            wire[23..25].copy_from_slice(&parts.to_be_bytes());
            wire[25..29].copy_from_slice(&[0; 4]);
            let crc = crate::wire::crc32(&wire);
            wire[25..29].copy_from_slice(&crc.to_be_bytes());
            assert_eq!(
                HbFrame::decode(&wire),
                Err(HbDecodeError),
                "part {part}/{parts} accepted"
            );
        }
    }

    #[test]
    fn v3_every_single_bit_flip_rejected() {
        let wire = sample_v3(HbFrameKind::Delta).encode().to_vec();
        for bit in 0..wire.len() * 8 {
            let mut flipped = wire.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_eq!(
                HbFrame::decode(&flipped),
                Err(HbDecodeError),
                "flipping bit {bit} went undetected"
            );
            assert_eq!(
                decode_any(&flipped),
                Err(HbDecodeError),
                "flipping bit {bit} survived decode_any"
            );
        }
    }

    #[test]
    fn serial_capacity_arithmetic_matches_paper_scale() {
        // §3: at a 200 ms period, one connection costs ~0.8-1 kbit/s; the
        // 115.2 kbps serial line should fit on the order of 100
        // connections. With our 21-byte records + 8-byte header:
        let per_conn_bits_per_sec = (HB_CONN_LEN as f64 * 10.0) / 0.2; // 8N1 framing
        let capacity = 115_200.0 / per_conn_bits_per_sec;
        assert!(
            capacity > 80.0 && capacity < 130.0,
            "capacity estimate {capacity}"
        );
    }
}
