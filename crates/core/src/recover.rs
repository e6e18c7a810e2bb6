//! Missed-byte recovery between backup and primary (§4.3, Table 1 row 5).
//!
//! A temporary network failure (NIC buffer overflow, switch loss) can
//! drop client segments on the *tap* path to the backup even though the
//! primary received and acknowledged them. The client will never
//! retransmit those bytes, so the backup fetches them from the primary's
//! extended receive buffer over the server-to-server IP channel.
//!
//! The wire format here is the control protocol those fetches ride on.
//! If the primary crashes while bytes are still missing, the backup has
//! no source for them and the failure is unrecoverable (the paper's
//! output-commit caveat; a logger would be needed — out of scope, as in
//! the paper).

use bytes::{BufMut, Bytes, BytesMut};
use core::fmt;
use std::net::Ipv4Addr;

use simtcp::conn::TcpSnapshot;
use simtcp::seq::SeqNum;
use simtcp::socket::FourTuple;

/// A control message on the server-to-server channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CtrlMsg {
    /// Backup → primary: "send me stream bytes of connection `conn`
    /// starting at `from`, at most `max`".
    FetchRequest {
        /// Connection key ([`crate::heartbeat::conn_key`]).
        conn: u32,
        /// First missing stream offset.
        from: u64,
        /// Maximum bytes wanted.
        max: u32,
    },
    /// Primary → backup: the requested bytes (possibly fewer than asked,
    /// empty if the range is not retained).
    FetchReply {
        /// Connection key.
        conn: u32,
        /// Stream offset of the first byte in `data`.
        from: u64,
        /// The recovered bytes.
        data: Bytes,
    },
    /// Joiner → active: "I booted next to you; send me snapshots of
    /// every live connection so I can become your backup." `session` is
    /// a joiner-chosen nonce that stamps the whole join exchange, so a
    /// stale snapshot from an earlier aborted join is ignored. Re-sent
    /// every heartbeat period until [`CtrlMsg::JoinDone`] arrives.
    JoinRequest {
        /// Join-session nonce (non-zero).
        session: u32,
    },
    /// Active → joiner: the full re-integration state of one live
    /// connection.
    ConnSnapshot(ConnSnapshotMsg),
    /// Active → joiner: every snapshot for this join session has been
    /// sent; `conns` says how many to expect (idempotent re-sends
    /// included).
    JoinDone {
        /// Join-session nonce.
        session: u32,
        /// Number of live connections snapshotted.
        conns: u32,
        /// Pool rank assigned to the joiner for this membership epoch
        /// (0 in pair mode, where ranks are unused).
        new_rank: u8,
    },
    /// Joiner → active: all snapshots installed and the tap has caught
    /// up — resume fault-tolerant lockstep.
    JoinComplete {
        /// Join-session nonce.
        session: u32,
    },
    /// Pool candidate → surviving members: "I observe `target_rank` dead
    /// on both heartbeat links; vote to fence it so I may act". Re-sent
    /// every check period until quorum or abandonment.
    FenceRequest {
        /// Fence-round number, monotone per initiator.
        epoch: u32,
        /// Rank of the member to fence.
        target_rank: u8,
        /// Rank of the requesting candidate.
        candidate_rank: u8,
    },
    /// Pool member → candidate: vote on a fence request. `granted` is
    /// false when the voter still hears the target or knows a
    /// better-ranked candidate.
    FenceAck {
        /// Fence-round number being answered.
        epoch: u32,
        /// Rank of the member to fence.
        target_rank: u8,
        /// Rank of the voting member.
        voter_rank: u8,
        /// True if the voter confirms the target dead and the candidate
        /// best-ranked.
        granted: bool,
    },
    /// Candidate → surviving members after quorum: `target_rank` is now
    /// fenced; drop it from quorum arithmetic and abandon any fence
    /// round of your own against it.
    FenceCommit {
        /// Fence-round number that reached quorum.
        epoch: u32,
        /// Rank of the fenced member.
        target_rank: u8,
    },
}

/// Body of [`CtrlMsg::ConnSnapshot`]: everything a joiner needs to
/// resume one live connection as a tapping-but-suppressed replica.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConnSnapshotMsg {
    /// Join-session nonce this snapshot answers.
    pub session: u32,
    /// Connection key ([`crate::heartbeat::conn_key`]).
    pub conn: u32,
    /// The connection's transport state. Only the client end of its tuple
    /// rides the wire — both servers are configured with the same service
    /// address — so a decoded one's local end is unspecified until the
    /// joiner writes its service end in.
    pub snap: TcpSnapshot,
    /// The active side's application state digest at snapshot time; the
    /// joiner verifies its restored replica digests identically.
    pub app_digest: u64,
    /// Opaque serialized application state
    /// ([`crate::app::Application::snapshot`]).
    pub app_state: Bytes,
}

impl ConnSnapshotMsg {
    /// True when each byte section fits the control channel's cap: only
    /// such a snapshot is sent (its connection stays unreplicated).
    pub(crate) fn fits(&self) -> bool {
        let t = &self.snap;
        let lens = [t.unacked.len(), t.pending.len(), self.app_state.len()];
        lens.iter().all(|&n| n <= MAX_FETCH_DATA)
    }
}

/// Upper bound on `FetchReply.data` accepted on the wire.
///
/// A fetch reply answers one request for missed bytes, bounded by the
/// extended receive buffer (64 KiB default). Without this cap a
/// corrupted length field could make a receiver buffer arbitrarily much.
pub const MAX_FETCH_DATA: usize = 256 * 1024;

/// Wire length of a `FetchRequest`: `type:1 conn:4 from:8 max:4 crc:4`.
pub const FETCH_REQUEST_LEN: usize = 21;
/// Wire length of a `FetchReply` before its data: `type:1 conn:4 from:8
/// len:4` (the CRC-32 trails the data).
pub const FETCH_REPLY_HEADER_LEN: usize = 17;
/// Wire length of the trailing CRC-32 on every control message.
pub const CTRL_CRC_LEN: usize = 4;
/// Wire length of a `JoinRequest` / `JoinComplete`: `type:1 session:4
/// crc:4`.
pub const JOIN_SHORT_LEN: usize = 9;
/// Wire length of a `JoinDone`: `type:1 session:4 conns:4 new_rank:1
/// crc:4`.
pub const JOIN_DONE_LEN: usize = 14;
/// Wire length of a `FenceRequest`: `type:1 epoch:4 target_rank:1
/// candidate_rank:1 crc:4`.
pub const FENCE_REQUEST_LEN: usize = 11;
/// Wire length of a `FenceAck`: `type:1 epoch:4 target_rank:1
/// voter_rank:1 granted:1 crc:4`.
pub const FENCE_ACK_LEN: usize = 12;
/// Wire length of a `FenceCommit`: `type:1 epoch:4 target_rank:1 crc:4`.
pub const FENCE_COMMIT_LEN: usize = 10;
/// Wire length of a `ConnSnapshot` before its three byte fields:
/// `type:1 session:4 conn:4 ip:4 port:2 iss:4 peer_isn:4 snd_una:8
/// rcv_start:8 fin_off:8 digest:8 flags:1 unacked_len:4 pending_len:4
/// app_len:4` (the CRC-32 trails the data).
pub const SNAPSHOT_HEADER_LEN: usize = 68;

const SNAP_FLAG_LOCAL_FIN: u8 = 1 << 0;
const SNAP_FLAG_PEER_FIN_CONSUMED: u8 = 1 << 1;
const SNAP_FLAG_HAS_FIN: u8 = 1 << 2;

/// Error returned when decoding a control message fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CtrlDecodeError;

impl fmt::Display for CtrlDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed recovery control message")
    }
}

impl std::error::Error for CtrlDecodeError {}

impl CtrlMsg {
    /// True for the pool's fence votes, the only control messages that
    /// also ride the serial cables: a quorum must survive an IP partition
    /// as heartbeats do, and each vote is a few bytes. Everything else
    /// rides IP only — an 8 KiB fetch reply would hold a 115.2 kbps cable
    /// longer than the heartbeat timeout.
    pub fn rides_cables(&self) -> bool {
        self.fence_round().is_some()
    }

    /// The fence round a fence message belongs to, `(epoch, target_rank)`:
    /// what every member derives the round's flight span from. `None` for
    /// every other message.
    pub fn fence_round(&self) -> Option<(u32, u8)> {
        match *self {
            CtrlMsg::FenceRequest {
                epoch, target_rank, ..
            }
            | CtrlMsg::FenceAck {
                epoch, target_rank, ..
            }
            | CtrlMsg::FenceCommit { epoch, target_rank } => Some((epoch, target_rank)),
            _ => None,
        }
    }

    /// Serializes the message. Every message carries a trailing CRC-32
    /// over the preceding bytes; the reply carries an explicit data
    /// length so corruption cannot silently re-frame the payload.
    ///
    /// # Panics
    ///
    /// If a `FetchReply` carries more than [`MAX_FETCH_DATA`] bytes, or
    /// any `ConnSnapshot` byte field does — such a message could never
    /// be decoded, so it is a sender bug.
    pub fn encode(&self) -> Bytes {
        let mut b = match self {
            CtrlMsg::FetchRequest { conn, from, max } => {
                let mut b = BytesMut::with_capacity(FETCH_REQUEST_LEN);
                b.put_u8(1);
                b.put_u32(*conn);
                b.put_u64(*from);
                b.put_u32(*max);
                b
            }
            CtrlMsg::FetchReply { conn, from, data } => {
                assert!(
                    data.len() <= MAX_FETCH_DATA,
                    "FetchReply data {} exceeds MAX_FETCH_DATA",
                    data.len()
                );
                let mut b =
                    BytesMut::with_capacity(FETCH_REPLY_HEADER_LEN + data.len() + CTRL_CRC_LEN);
                b.put_u8(2);
                b.put_u32(*conn);
                b.put_u64(*from);
                b.put_u32(data.len() as u32);
                b.put_slice(data);
                b
            }
            CtrlMsg::JoinRequest { session } => {
                let mut b = BytesMut::with_capacity(JOIN_SHORT_LEN);
                b.put_u8(3);
                b.put_u32(*session);
                b
            }
            CtrlMsg::ConnSnapshot(s) => {
                let t = &s.snap;
                assert!(s.fits(), "ConnSnapshot exceeds MAX_FETCH_DATA");
                let data_len = t.unacked.len() + t.pending.len() + s.app_state.len();
                let mut b = BytesMut::with_capacity(SNAPSHOT_HEADER_LEN + data_len + CTRL_CRC_LEN);
                b.put_u8(4);
                b.put_u32(s.session);
                b.put_u32(s.conn);
                b.put_u32(u32::from(t.tuple.remote.0));
                b.put_u16(t.tuple.remote.1);
                b.put_u32(t.iss.0);
                b.put_u32(t.peer_isn.0);
                b.put_u64(t.snd_una);
                b.put_u64(t.rcv_start);
                b.put_u64(t.fin_offset.unwrap_or(0));
                b.put_u64(s.app_digest);
                let mut flags = 0u8;
                if t.local_fin {
                    flags |= SNAP_FLAG_LOCAL_FIN;
                }
                if t.peer_fin_consumed {
                    flags |= SNAP_FLAG_PEER_FIN_CONSUMED;
                }
                if t.fin_offset.is_some() {
                    flags |= SNAP_FLAG_HAS_FIN;
                }
                b.put_u8(flags);
                b.put_u32(t.unacked.len() as u32);
                b.put_u32(t.pending.len() as u32);
                b.put_u32(s.app_state.len() as u32);
                b.put_slice(&t.unacked);
                b.put_slice(&t.pending);
                b.put_slice(&s.app_state);
                b
            }
            CtrlMsg::JoinDone {
                session,
                conns,
                new_rank,
            } => {
                let mut b = BytesMut::with_capacity(JOIN_DONE_LEN);
                b.put_u8(5);
                b.put_u32(*session);
                b.put_u32(*conns);
                b.put_u8(*new_rank);
                b
            }
            CtrlMsg::JoinComplete { session } => {
                let mut b = BytesMut::with_capacity(JOIN_SHORT_LEN);
                b.put_u8(6);
                b.put_u32(*session);
                b
            }
            CtrlMsg::FenceRequest {
                epoch,
                target_rank,
                candidate_rank,
            } => {
                let mut b = BytesMut::with_capacity(FENCE_REQUEST_LEN);
                b.put_u8(7);
                b.put_u32(*epoch);
                b.put_u8(*target_rank);
                b.put_u8(*candidate_rank);
                b
            }
            CtrlMsg::FenceAck {
                epoch,
                target_rank,
                voter_rank,
                granted,
            } => {
                let mut b = BytesMut::with_capacity(FENCE_ACK_LEN);
                b.put_u8(8);
                b.put_u32(*epoch);
                b.put_u8(*target_rank);
                b.put_u8(*voter_rank);
                b.put_u8(u8::from(*granted));
                b
            }
            CtrlMsg::FenceCommit { epoch, target_rank } => {
                let mut b = BytesMut::with_capacity(FENCE_COMMIT_LEN);
                b.put_u8(9);
                b.put_u32(*epoch);
                b.put_u8(*target_rank);
                b
            }
        };
        let crc = crate::wire::crc32(&b);
        b.put_u32(crc);
        b.freeze()
    }

    /// Parses a message.
    ///
    /// # Errors
    ///
    /// Returns [`CtrlDecodeError`] on truncation, trailing garbage, an
    /// unknown type byte, an oversized reply length, or a CRC mismatch.
    /// Total: never panics, any input.
    pub fn decode(wire: &[u8]) -> Result<CtrlMsg, CtrlDecodeError> {
        // Every read below goes through the total helpers in
        // `crate::wire`: a wrong or missing length precondition degrades
        // into a decode error, never a panic — the control channel
        // carries whatever the chaos engine mangles it into.
        let body = crate::wire::checked_crc_frame(wire, 1).ok_or(CtrlDecodeError)?;
        let rd8 = |p: usize| body.get(p).copied().ok_or(CtrlDecodeError);
        let rd32 = |p: usize| crate::wire::read_u32_at(body, p).ok_or(CtrlDecodeError);
        let rd64 = |p: usize| crate::wire::read_u64_at(body, p).ok_or(CtrlDecodeError);
        match rd8(0)? {
            1 => {
                if body.len() != FETCH_REQUEST_LEN - CTRL_CRC_LEN {
                    return Err(CtrlDecodeError);
                }
                Ok(CtrlMsg::FetchRequest {
                    conn: rd32(1)?,
                    from: rd64(5)?,
                    max: rd32(13)?,
                })
            }
            2 => {
                if body.len() < FETCH_REPLY_HEADER_LEN {
                    return Err(CtrlDecodeError);
                }
                let len = rd32(13)? as usize;
                if len > MAX_FETCH_DATA || body.len() != FETCH_REPLY_HEADER_LEN + len {
                    return Err(CtrlDecodeError);
                }
                Ok(CtrlMsg::FetchReply {
                    conn: rd32(1)?,
                    from: rd64(5)?,
                    data: Bytes::copy_from_slice(&body[FETCH_REPLY_HEADER_LEN..]),
                })
            }
            tag @ (3 | 6) => {
                if body.len() != JOIN_SHORT_LEN - CTRL_CRC_LEN {
                    return Err(CtrlDecodeError);
                }
                let session = rd32(1)?;
                Ok(match tag {
                    3 => CtrlMsg::JoinRequest { session },
                    _ => CtrlMsg::JoinComplete { session },
                })
            }
            4 => {
                if body.len() < SNAPSHOT_HEADER_LEN {
                    return Err(CtrlDecodeError);
                }
                let flags = rd8(55)?;
                if flags & !(SNAP_FLAG_LOCAL_FIN | SNAP_FLAG_PEER_FIN_CONSUMED | SNAP_FLAG_HAS_FIN)
                    != 0
                {
                    return Err(CtrlDecodeError);
                }
                let has_fin = flags & SNAP_FLAG_HAS_FIN != 0;
                let fin_field = rd64(39)?;
                if !has_fin && fin_field != 0 {
                    return Err(CtrlDecodeError);
                }
                let unacked_len = rd32(56)? as usize;
                let pending_len = rd32(60)? as usize;
                let app_len = rd32(64)? as usize;
                if unacked_len > MAX_FETCH_DATA
                    || pending_len > MAX_FETCH_DATA
                    || app_len > MAX_FETCH_DATA
                    || body.len() != SNAPSHOT_HEADER_LEN + unacked_len + pending_len + app_len
                {
                    return Err(CtrlDecodeError);
                }
                let u0 = SNAPSHOT_HEADER_LEN;
                let p0 = u0 + unacked_len;
                let a0 = p0 + pending_len;
                let client = (
                    Ipv4Addr::from(rd32(9)?),
                    u16::from_be_bytes([rd8(13)?, rd8(14)?]),
                );
                let snap = TcpSnapshot {
                    tuple: FourTuple {
                        local: (Ipv4Addr::UNSPECIFIED, 0),
                        remote: client,
                    },
                    iss: SeqNum(rd32(15)?),
                    peer_isn: SeqNum(rd32(19)?),
                    snd_una: rd64(23)?,
                    unacked: Bytes::copy_from_slice(body.get(u0..p0).ok_or(CtrlDecodeError)?),
                    local_fin: flags & SNAP_FLAG_LOCAL_FIN != 0,
                    rcv_start: rd64(31)?,
                    pending: Bytes::copy_from_slice(body.get(p0..a0).ok_or(CtrlDecodeError)?),
                    fin_offset: has_fin.then_some(fin_field),
                    peer_fin_consumed: flags & SNAP_FLAG_PEER_FIN_CONSUMED != 0,
                };
                Ok(CtrlMsg::ConnSnapshot(ConnSnapshotMsg {
                    session: rd32(1)?,
                    conn: rd32(5)?,
                    snap,
                    app_digest: rd64(47)?,
                    app_state: Bytes::copy_from_slice(body.get(a0..).ok_or(CtrlDecodeError)?),
                }))
            }
            5 => {
                if body.len() != JOIN_DONE_LEN - CTRL_CRC_LEN {
                    return Err(CtrlDecodeError);
                }
                Ok(CtrlMsg::JoinDone {
                    session: rd32(1)?,
                    conns: rd32(5)?,
                    new_rank: rd8(9)?,
                })
            }
            7 => {
                if body.len() != FENCE_REQUEST_LEN - CTRL_CRC_LEN {
                    return Err(CtrlDecodeError);
                }
                Ok(CtrlMsg::FenceRequest {
                    epoch: rd32(1)?,
                    target_rank: rd8(5)?,
                    candidate_rank: rd8(6)?,
                })
            }
            8 => {
                if body.len() != FENCE_ACK_LEN - CTRL_CRC_LEN || rd8(7)? > 1 {
                    return Err(CtrlDecodeError);
                }
                Ok(CtrlMsg::FenceAck {
                    epoch: rd32(1)?,
                    target_rank: rd8(5)?,
                    voter_rank: rd8(6)?,
                    granted: rd8(7)? == 1,
                })
            }
            9 => {
                if body.len() != FENCE_COMMIT_LEN - CTRL_CRC_LEN {
                    return Err(CtrlDecodeError);
                }
                Ok(CtrlMsg::FenceCommit {
                    epoch: rd32(1)?,
                    target_rank: rd8(5)?,
                })
            }
            _ => Err(CtrlDecodeError),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let m = CtrlMsg::FetchRequest {
            conn: 0xdead_beef,
            from: 123_456_789_012,
            max: 8_192,
        };
        assert_eq!(CtrlMsg::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn reply_roundtrip() {
        let m = CtrlMsg::FetchReply {
            conn: 7,
            from: 42,
            data: Bytes::from_static(b"recovered bytes"),
        };
        assert_eq!(CtrlMsg::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn empty_reply_roundtrip() {
        let m = CtrlMsg::FetchReply {
            conn: 7,
            from: 42,
            data: Bytes::new(),
        };
        assert_eq!(CtrlMsg::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn garbage_rejected() {
        assert_eq!(CtrlMsg::decode(&[]), Err(CtrlDecodeError));
        assert_eq!(CtrlMsg::decode(&[9, 0, 0]), Err(CtrlDecodeError));
        assert_eq!(CtrlMsg::decode(&[1, 0, 0, 0]), Err(CtrlDecodeError));
        assert_eq!(CtrlMsg::decode(&[2, 0]), Err(CtrlDecodeError));
    }

    #[test]
    fn every_single_bit_flip_rejected() {
        let m = CtrlMsg::FetchReply {
            conn: 7,
            from: 42,
            data: Bytes::from_static(b"recovered bytes"),
        };
        let wire = m.encode().to_vec();
        for bit in 0..wire.len() * 8 {
            let mut flipped = wire.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_eq!(
                CtrlMsg::decode(&flipped),
                Err(CtrlDecodeError),
                "flipping bit {bit} went undetected"
            );
        }
    }

    #[test]
    fn oversized_reply_length_rejected() {
        // Forge a reply whose length field claims more than the cap, with
        // a valid CRC — the explicit bound must still reject it.
        let mut b = vec![2u8];
        b.extend_from_slice(&7u32.to_be_bytes());
        b.extend_from_slice(&42u64.to_be_bytes());
        b.extend_from_slice(&((MAX_FETCH_DATA as u32) + 1).to_be_bytes());
        b.extend_from_slice(&[0u8; 32]); // far less data than claimed
        let crc = crate::wire::crc32(&b);
        b.extend_from_slice(&crc.to_be_bytes());
        assert_eq!(CtrlMsg::decode(&b), Err(CtrlDecodeError));
    }

    fn sample_snapshot() -> CtrlMsg {
        CtrlMsg::ConnSnapshot(ConnSnapshotMsg {
            session: 0x1234_5678,
            conn: 0xfeed_f00d,
            snap: TcpSnapshot {
                tuple: FourTuple {
                    local: (Ipv4Addr::UNSPECIFIED, 0),
                    remote: (Ipv4Addr::new(10, 0, 0, 3), 40_001),
                },
                iss: SeqNum(0x8000_0001),
                peer_isn: SeqNum(7),
                snd_una: 123_456,
                unacked: Bytes::from_static(b"server bytes in flight"),
                local_fin: true,
                rcv_start: 654_321,
                pending: Bytes::from_static(b"client bytes unread"),
                fin_offset: Some(654_400),
                peer_fin_consumed: false,
            },
            app_digest: 0xdead_beef_cafe_f00d,
            app_state: Bytes::from_static(b"\x01\x02\x03"),
        })
    }

    #[test]
    fn join_messages_roundtrip() {
        for m in [
            CtrlMsg::JoinRequest {
                session: 0xabcd_0001,
            },
            sample_snapshot(),
            CtrlMsg::JoinDone {
                session: 0xabcd_0001,
                conns: 3,
                new_rank: 4,
            },
            CtrlMsg::JoinComplete {
                session: 0xabcd_0001,
            },
        ] {
            assert_eq!(CtrlMsg::decode(&m.encode()).unwrap(), m);
        }
    }

    #[test]
    fn fence_messages_roundtrip() {
        for m in [
            CtrlMsg::FenceRequest {
                epoch: 7,
                target_rank: 0,
                candidate_rank: 1,
            },
            CtrlMsg::FenceAck {
                epoch: 7,
                target_rank: 0,
                voter_rank: 2,
                granted: true,
            },
            CtrlMsg::FenceAck {
                epoch: 8,
                target_rank: 1,
                voter_rank: 0,
                granted: false,
            },
            CtrlMsg::FenceCommit {
                epoch: 7,
                target_rank: 0,
            },
        ] {
            assert_eq!(CtrlMsg::decode(&m.encode()).unwrap(), m);
        }
    }

    #[test]
    fn fence_every_single_bit_flip_rejected() {
        let wire = CtrlMsg::FenceAck {
            epoch: 0x0102_0304,
            target_rank: 3,
            voter_rank: 1,
            granted: true,
        }
        .encode()
        .to_vec();
        for bit in 0..wire.len() * 8 {
            let mut flipped = wire.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_eq!(
                CtrlMsg::decode(&flipped),
                Err(CtrlDecodeError),
                "flipping bit {bit} went undetected"
            );
        }
    }

    #[test]
    fn fence_ack_nonboolean_granted_rejected() {
        // Forge an ack whose granted byte is 2, with a valid CRC — the
        // explicit range check must still reject it.
        let mut b = vec![8u8];
        b.extend_from_slice(&7u32.to_be_bytes());
        b.extend_from_slice(&[0, 2, 2]);
        let crc = crate::wire::crc32(&b);
        b.extend_from_slice(&crc.to_be_bytes());
        assert_eq!(CtrlMsg::decode(&b), Err(CtrlDecodeError));
    }

    #[test]
    fn snapshot_without_fin_and_empty_fields_roundtrips() {
        let m = CtrlMsg::ConnSnapshot(ConnSnapshotMsg {
            session: 1,
            conn: 2,
            snap: TcpSnapshot {
                tuple: FourTuple {
                    local: (Ipv4Addr::UNSPECIFIED, 0),
                    remote: (Ipv4Addr::UNSPECIFIED, 0),
                },
                iss: SeqNum(0),
                peer_isn: SeqNum(0),
                snd_una: 0,
                unacked: Bytes::new(),
                local_fin: false,
                rcv_start: 0,
                pending: Bytes::new(),
                fin_offset: None,
                peer_fin_consumed: true,
            },
            app_digest: 0,
            app_state: Bytes::new(),
        });
        assert_eq!(CtrlMsg::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn snapshot_every_single_bit_flip_rejected() {
        let wire = sample_snapshot().encode().to_vec();
        for bit in 0..wire.len() * 8 {
            let mut flipped = wire.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_eq!(
                CtrlMsg::decode(&flipped),
                Err(CtrlDecodeError),
                "flipping bit {bit} went undetected"
            );
        }
    }

    #[test]
    fn snapshot_truncations_rejected() {
        let wire = sample_snapshot().encode().to_vec();
        for len in 0..wire.len() {
            assert_eq!(
                CtrlMsg::decode(&wire[..len]),
                Err(CtrlDecodeError),
                "truncation to {len} bytes went undetected"
            );
        }
    }

    #[test]
    fn snapshot_unknown_flag_rejected_even_with_valid_crc() {
        let wire = sample_snapshot().encode();
        let mut body = wire[..wire.len() - CTRL_CRC_LEN].to_vec();
        body[55] |= 1 << 6; // unknown flag bit
        let crc = crate::wire::crc32(&body);
        body.extend_from_slice(&crc.to_be_bytes());
        assert_eq!(CtrlMsg::decode(&body), Err(CtrlDecodeError));
    }

    #[test]
    fn snapshot_nonzero_fin_field_without_flag_rejected() {
        let CtrlMsg::ConnSnapshot(mut s) = sample_snapshot() else {
            unreachable!()
        };
        s.snap.fin_offset = None;
        let wire = CtrlMsg::ConnSnapshot(s).encode();
        let mut body = wire[..wire.len() - CTRL_CRC_LEN].to_vec();
        body[39..47].copy_from_slice(&77u64.to_be_bytes()); // fin field set, flag clear
        let crc = crate::wire::crc32(&body);
        body.extend_from_slice(&crc.to_be_bytes());
        assert_eq!(CtrlMsg::decode(&body), Err(CtrlDecodeError));
    }

    #[test]
    fn snapshot_oversized_field_length_rejected() {
        // Forge a snapshot whose unacked length claims more than the
        // cap, with a valid CRC — the explicit bound must reject it.
        let wire = sample_snapshot().encode();
        let mut body = wire[..wire.len() - CTRL_CRC_LEN].to_vec();
        body[56..60].copy_from_slice(&((MAX_FETCH_DATA as u32) + 1).to_be_bytes());
        let crc = crate::wire::crc32(&body);
        body.extend_from_slice(&crc.to_be_bytes());
        assert_eq!(CtrlMsg::decode(&body), Err(CtrlDecodeError));
    }

    #[test]
    fn trailing_garbage_rejected() {
        let m = CtrlMsg::FetchRequest {
            conn: 1,
            from: 2,
            max: 3,
        };
        let mut wire = m.encode().to_vec();
        wire.push(0);
        assert_eq!(CtrlMsg::decode(&wire), Err(CtrlDecodeError));
    }
}
