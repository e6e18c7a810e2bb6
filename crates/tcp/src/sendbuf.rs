//! The TCP send stream: its bytes and every position of their sequence
//! space, in 64-bit *stream offsets* (offset 0 = first payload byte; the
//! connection converts to 32-bit wire sequence numbers at the edges).
//!
//! Every byte from the lowest unacknowledged offset to the write position
//! is kept, as the queue of [`Bytes`] chunks the application wrote: a
//! write shares (or copies once into) one chunk, a segment is a shared
//! view of a chunk unless it straddles two, and an acknowledgment drops
//! whole chunks and re-slices the front one.
//!
//! A timeout, a released FIN gate and an ST-TCP takeover all rewind: the
//! cursor returns to `una` and the output path resends, FIN included, as
//! the windows allow (after a timeout in slow start, as Linux
//! `tcp_enter_loss`; RFC 6298 §5.4). Only fast retransmit resends the head
//! alone. The high mark (a sent FIN counts as one byte) bounds the ACKs
//! taken, tells resends from first sends, and times no resend (Karn).

use std::num::NonZeroU64;

use bytes::Bytes;
use simnet::time::{SimDuration, SimTime};

use crate::chunks::ChunkQueue;

/// The send stream: `una`, the cursor, the high mark, `written` (which
/// ST-TCP reads as the paper's `LastAppByteWritten`), the FIN and Karn's
/// RTT probe.
#[derive(Debug, Clone)]
pub struct SendBuffer {
    /// The written chunks covering stream offsets `[una, written)`.
    data: ChunkQueue,
    capacity: usize,
    cursor: u64,
    /// One past the highest offset ever sent, a sent FIN counting as one.
    max: u64,
    fin: Fin,
    /// The offset whose ACK completes the RTT sample, and its send time.
    pub(crate) probe: Option<(NonZeroU64, SimTime)>,
}

/// Our FIN: `Open → Queued → Sent → Acked`, and a rewind takes `Sent`
/// back to `Queued`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fin {
    /// The application may still write.
    Open,
    /// The sending side is closed; the FIN waits for the output.
    Queued,
    /// Handed to the output since the last rewind.
    Sent,
    /// Acknowledged.
    Acked,
}

/// One segment's share of the stream; [`SendBuffer::slice`] has its bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The offset of the first byte (of the FIN, if there are none).
    pub off: u64,
    /// How many bytes.
    pub len: usize,
    /// The FIN follows the bytes.
    pub fin: bool,
    /// Bytes below the high mark: sent before.
    pub resent: u64,
}

/// What one acknowledgment took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Acked {
    /// Newly acknowledged bytes.
    pub bytes: u64,
    /// It newly acknowledged our FIN.
    pub fin: bool,
    /// The round trip it completed by reaching the probe.
    pub rtt: Option<SimDuration>,
}

impl SendBuffer {
    /// An empty stream that holds up to `capacity` unacknowledged bytes.
    pub fn new(capacity: usize) -> SendBuffer {
        SendBuffer::resume(capacity, 0, &[], false)
    }

    /// A stream resumed from a re-integration snapshot, nothing sent:
    /// offsets below `una` were acknowledged before the snapshot, and
    /// `unacked` covers `[una, una + unacked.len())`. The capacity widens
    /// to the carried region, so the stream is never born overfull.
    pub fn resume(capacity: usize, una: u64, unacked: &[u8], fin_queued: bool) -> SendBuffer {
        let mut data = ChunkQueue::starting_at(una);
        if !unacked.is_empty() {
            data.push(Bytes::copy_from_slice(unacked));
        }
        SendBuffer {
            data,
            capacity: capacity.max(unacked.len()),
            cursor: una,
            max: una,
            fin: if fin_queued { Fin::Queued } else { Fin::Open },
            probe: None,
        }
    }

    /// The lowest unacknowledged offset.
    pub fn una(&self) -> u64 {
        self.data.low()
    }

    /// The application's write position (total bytes ever written).
    pub fn written(&self) -> u64 {
        self.data.end()
    }

    /// The next offset to transmit.
    pub(crate) fn cursor(&self) -> u64 {
        self.cursor
    }

    /// One past the highest offset sent (RFC 9293 SND.NXT): never below
    /// the cursor, and past a FIN once sent.
    pub(crate) fn high(&self) -> u64 {
        self.max.max(self.cursor)
    }

    /// Bytes sent since the cursor last went back, and not acknowledged.
    pub(crate) fn flight(&self) -> u64 {
        self.cursor - self.una()
    }

    /// Written bytes at or past the cursor.
    pub(crate) fn unsent(&self) -> u64 {
        self.written() - self.cursor
    }

    /// Anything (bytes or the FIN) sent and not acknowledged?
    pub(crate) fn outstanding(&self) -> bool {
        self.flight() > 0 || (self.max > self.written() && self.fin != Fin::Acked)
    }

    /// Where our FIN stands.
    pub(crate) fn fin(&self) -> Fin {
        self.fin
    }

    /// Bytes written and not yet acknowledged.
    pub fn buffered(&self) -> usize {
        (self.written() - self.una()) as usize
    }

    /// Free space for application writes.
    pub fn free_space(&self) -> usize {
        self.capacity - self.buffered()
    }

    /// Appends as much of `buf` as fits, copied once into a chunk of its
    /// own; returns how much (0 once the sending side is closed).
    pub fn write(&mut self, buf: &[u8]) -> usize {
        let n = self.accepts(buf.len());
        if n > 0 {
            self.data.push(Bytes::copy_from_slice(&buf[..n]));
        }
        n
    }

    /// [`SendBuffer::write`] for bytes the caller holds as [`Bytes`]: the
    /// accepted prefix is shared, not copied.
    pub fn write_bytes(&mut self, buf: &Bytes) -> usize {
        let n = self.accepts(buf.len());
        self.data.push(buf.slice(..n));
        n
    }

    fn accepts(&self, len: usize) -> usize {
        match self.fin {
            Fin::Open => len.min(self.free_space()),
            _ => 0,
        }
    }

    /// Closes the sending side: the FIN takes the offset just past the
    /// last written byte. Idempotent.
    pub fn queue_fin(&mut self) {
        if self.fin == Fin::Open {
            self.fin = Fin::Queued;
        }
    }

    /// The `min(max, written - off)` bytes at offset `off` (none at or
    /// past `written`): a shared view of the written chunk when one holds
    /// them, a gathered copy when they straddle chunks.
    ///
    /// # Panics
    ///
    /// If `off` is below `una`: those bytes are acked and gone.
    pub fn slice(&self, off: u64, max: usize) -> Bytes {
        assert!(off >= self.una(), "offset {off} below una {}", self.una());
        if off >= self.written() {
            return Bytes::new();
        }
        let len = ((self.written() - off) as usize).min(max);
        self.data.view(off, len)
    }

    /// The span to send next, at the cursor: up to `room` and `mss`
    /// bytes, and the FIN if they end the stream (a bare FIN needs no
    /// room). `None` when nothing fits or nothing is left.
    #[inline]
    pub fn next(&self, room: u64, mss: u32) -> Option<Span> {
        let n = room.min(self.unsent()).min(u64::from(mss));
        let end = self.cursor + n;
        let fin = end == self.written() && self.fin == Fin::Queued;
        (n > 0 || fin).then_some(Span {
            off: self.cursor,
            len: n as usize,
            fin,
            resent: self.max.clamp(self.cursor, end) - self.cursor,
        })
    }

    /// Records `span`, from [`SendBuffer::next`], as sent at `now`: the
    /// cursor passes it, and bytes ending past the high mark start the
    /// RTT probe unless one runs (Karn; a bare FIN never does).
    pub fn sent(&mut self, span: Span, now: SimTime) {
        let end = span.off + span.len as u64;
        if self.probe.is_none() && end > self.high() {
            self.probe = NonZeroU64::new(end).map(|off| (off, now));
        }
        self.cursor = end;
        self.max = self.max.max(end + u64::from(span.fin));
        if span.fin {
            self.fin = Fin::Sent;
        }
    }

    /// The head of the unacknowledged bytes alone, up to `mss`, for a
    /// fast retransmit: the cursor stays, and the probe goes (Karn).
    pub(crate) fn head(&mut self, mss: u32) -> Span {
        self.probe = None;
        let len = self.buffered().min(mss as usize);
        Span {
            off: self.una(),
            len,
            fin: self.fin == Fin::Sent && len == self.buffered(),
            resent: len as u64,
        }
    }

    /// Takes a cumulative ACK of everything below `off` at `now`; `None`
    /// past the high mark. Written bytes never sent may be acked: a
    /// backup's replica sees the ACKs its primary drew.
    #[inline]
    pub fn ack(&mut self, off: u64, now: SimTime) -> Option<Acked> {
        if off > self.written().max(self.max) {
            return None;
        }
        let fin = self.fin != Fin::Acked && off > self.written();
        if fin {
            self.fin = Fin::Acked;
        }
        let bytes = self.ack_to(off);
        let una = self.una();
        self.cursor = self.cursor.max(una);
        let probe = self.probe.take_if(|(end, _)| una >= end.get());
        let rtt = probe.map(|(_, at)| now.saturating_since(at));
        Some(Acked { bytes, fin, rtt })
    }

    /// Goes back to `una`: everything unacknowledged, an unacked FIN
    /// included, is offered again, and nothing resent is timed.
    pub(crate) fn rewind(&mut self) {
        self.probe = None;
        self.cursor = self.una();
        if self.fin == Fin::Sent {
            self.fin = Fin::Queued;
        }
    }

    /// Drops and counts the bytes below `upto` (clamped to the buffer).
    fn ack_to(&mut self, upto: u64) -> u64 {
        let una = self.una();
        self.data.discard_below(upto);
        self.una() - una
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sends everything written, FIN included, as one window would allow.
    fn send_all(b: &mut SendBuffer) {
        while let Some(span) = b.next(u64::MAX, 1460) {
            b.sent(span, SimTime::ZERO);
        }
    }

    #[test]
    fn write_and_slice() {
        let mut b = SendBuffer::new(100);
        assert_eq!(b.write(b"hello world"), 11);
        assert_eq!(b.written(), 11);
        assert_eq!(b.slice(0, 5).as_ref(), b"hello");
        assert_eq!(b.slice(6, 100).as_ref(), b"world");
        assert_eq!(b.slice(11, 10).len(), 0);
    }

    #[test]
    fn capacity_limits_writes() {
        let mut b = SendBuffer::new(8);
        assert_eq!(b.write(b"0123456789"), 8);
        assert_eq!(b.free_space(), 0);
        assert_eq!(b.write(b"x"), 0);
        let _ = b.ack_to(4);
        assert_eq!(b.free_space(), 4);
        assert_eq!(b.write(b"abcdef"), 4);
        assert_eq!(b.slice(8, 10).as_ref(), b"abcd");
    }

    #[test]
    fn ack_trims_and_counts() {
        let mut b = SendBuffer::new(100);
        let _ = b.write(b"abcdefgh");
        assert_eq!(b.ack_to(3), 3);
        assert_eq!(b.una(), 3);
        assert_eq!(b.buffered(), 5);
        // Duplicate / old ack is a no-op.
        assert_eq!(b.ack_to(2), 0);
        assert_eq!(b.una(), 3);
        // Ack beyond written clamps.
        assert_eq!(b.ack_to(100), 5);
        assert_eq!(b.buffered(), 0);
    }

    #[test]
    fn retransmission_slice_after_partial_ack() {
        let mut b = SendBuffer::new(100);
        let _ = b.write(b"abcdefgh");
        let _ = b.ack_to(2);
        assert_eq!(b.slice(2, 3).as_ref(), b"cde");
        assert_eq!(b.slice(5, 100).as_ref(), b"fgh");
    }

    #[test]
    #[should_panic(expected = "below una")]
    fn slicing_acked_bytes_panics() {
        let mut b = SendBuffer::new(100);
        let _ = b.write(b"abcd");
        let _ = b.ack_to(2);
        let _ = b.slice(1, 1);
    }

    #[test]
    fn fin_blocks_further_writes() {
        let mut b = SendBuffer::new(100);
        let _ = b.write(b"done");
        assert_eq!(b.fin(), Fin::Open);
        b.queue_fin();
        assert_eq!(b.fin(), Fin::Queued);
        assert_eq!(b.write(b"more"), 0);
        assert_eq!(b.written(), 4);
        send_all(&mut b);
        b.queue_fin(); // idempotent
        assert_eq!(b.fin(), Fin::Sent);
    }

    #[test]
    fn available_from_cursor() {
        let mut b = SendBuffer::new(100);
        let _ = b.write(b"0123456789");
        assert_eq!(b.unsent(), 10);
        let span = b.next(7, 1460).unwrap();
        b.sent(span, SimTime::ZERO);
        assert_eq!((b.cursor(), b.unsent(), b.flight()), (7, 3, 7));
        send_all(&mut b);
        assert_eq!(b.unsent(), 0);
    }

    #[test]
    fn resume_mid_stream() {
        let b = SendBuffer::resume(100, 1_000, b"abcd", false);
        assert_eq!(b.una(), 1_000);
        assert_eq!(b.written(), 1_004);
        assert_eq!(b.slice(1_000, 10).as_ref(), b"abcd");
        assert_eq!(b.slice(1_002, 10).as_ref(), b"cd");
        assert_eq!(b.fin(), Fin::Open);
        assert_eq!((b.cursor(), b.high(), b.unsent()), (1_000, 1_000, 4));
    }

    #[test]
    fn resume_with_fin_and_acks() {
        let mut b = SendBuffer::resume(100, 50, b"xyz", true);
        assert_eq!(b.fin(), Fin::Queued);
        assert_eq!(b.written(), 53);
        assert_eq!(b.write(b"more"), 0, "closed side refuses writes");
        assert_eq!(b.ack_to(52), 2);
        assert_eq!(b.slice(52, 10).as_ref(), b"z");
        assert_eq!(b.ack_to(53), 1);
        assert_eq!(b.buffered(), 0);
    }

    #[test]
    fn resume_widens_capacity_for_carried_region() {
        let b = SendBuffer::resume(2, 0, b"abcdef", false);
        assert_eq!(b.buffered(), 6);
        assert_eq!(b.free_space(), 0);
    }

    #[test]
    fn large_stream_offsets() {
        let mut b = SendBuffer::new(1 << 16);
        let chunk = vec![0xAB; 1 << 14];
        let mut total = 0u64;
        for _ in 0..1000 {
            let n = b.write(&chunk);
            total += n as u64;
            send_all(&mut b);
            let _ = b.ack(b.written(), SimTime::ZERO);
        }
        assert_eq!(b.una(), total);
        assert!(!b.outstanding());
    }

    #[test]
    fn a_fin_is_one_byte_past_the_data_and_a_rewind_re_offers_it() {
        let mut b = SendBuffer::new(100);
        let _ = b.write(b"tail");
        b.queue_fin();
        let span = b.next(2, 1460).unwrap();
        assert!(!span.fin, "the FIN waits for the last byte");
        b.sent(span, SimTime::ZERO);
        let span = b.next(0, 1460);
        assert_eq!(span, None, "bytes need room");
        let span = b.next(2, 1460).unwrap();
        assert!(span.fin);
        b.sent(span, SimTime::ZERO);
        assert_eq!((b.fin(), b.high()), (Fin::Sent, 5));
        assert_eq!(b.ack(6, SimTime::ZERO), None, "past the FIN");
        b.rewind();
        assert_eq!((b.fin(), b.cursor(), b.high()), (Fin::Queued, 0, 5));
        let acked = b.ack(4, SimTime::ZERO).unwrap();
        assert_eq!((acked.bytes, acked.fin), (4, false));
        // All data acked: the FIN alone needs no room.
        let span = b.next(0, 1460).unwrap();
        assert_eq!((span.off, span.len, span.fin), (4, 0, true));
        let acked = b.ack(5, SimTime::ZERO).unwrap();
        assert_eq!((acked.bytes, acked.fin), (0, true));
        b.rewind();
        assert_eq!(b.fin(), Fin::Acked, "a rewind never un-acks the FIN");
        assert!(!b.outstanding());
        assert_eq!(b.next(100, 1460), None);
    }

    #[test]
    fn slice_inside_one_written_chunk_points_into_that_chunk() {
        // The copy budget's send-side hop: of the 45 segments a 64 KiB
        // write becomes, only one that straddles two writes may copy.
        let app = Bytes::from(vec![0x5Au8; 64 * 1024]);
        let mut b = SendBuffer::new(256 * 1024);
        assert_eq!(b.write_bytes(&app), app.len());
        assert_eq!(b.write_bytes(&app), app.len());
        let seg = b.slice(1460 * 3, 1460);
        assert_eq!(seg.as_ptr(), app[1460 * 3..].as_ptr(), "shared, not copied");
        let _ = b.ack_to(1460 * 2 + 7);
        let seg = b.slice(1460 * 3, 1460);
        assert_eq!(
            seg.as_ptr(),
            app[1460 * 3..].as_ptr(),
            "ack re-slices in place"
        );
        // The one straddling segment is gathered.
        let off = 64 * 1024 - 100;
        let seg = b.slice(off, 1460);
        assert_eq!(seg.len(), 1460);
        assert_ne!(seg.as_ptr(), app[off as usize..].as_ptr());
        // `write` copies once into a chunk and then shares the same way.
        let mut b = SendBuffer::new(1 << 16);
        let _ = b.write(&[1u8; 4000]);
        assert_eq!(
            b.slice(0, 4000).as_ptr().wrapping_add(1460),
            b.slice(1460, 1460).as_ptr()
        );
    }

    /// The `VecDeque<u8>` ring this buffer replaced, kept verbatim as the
    /// differential oracle for the chunked implementation.
    mod model {
        use std::collections::VecDeque;

        #[derive(Clone)]
        pub struct RingSendBuffer {
            data: VecDeque<u8>,
            pub una: u64,
            pub written: u64,
            capacity: usize,
            pub fin_queued: bool,
        }

        impl RingSendBuffer {
            pub fn new(capacity: usize) -> Self {
                RingSendBuffer {
                    data: VecDeque::new(),
                    una: 0,
                    written: 0,
                    capacity,
                    fin_queued: false,
                }
            }

            pub fn resume(capacity: usize, una: u64, unacked: &[u8], fin_queued: bool) -> Self {
                RingSendBuffer {
                    data: unacked.iter().copied().collect(),
                    una,
                    written: una + unacked.len() as u64,
                    capacity: capacity.max(unacked.len()),
                    fin_queued,
                }
            }

            pub fn buffered(&self) -> usize {
                self.data.len()
            }

            pub fn free_space(&self) -> usize {
                self.capacity - self.data.len()
            }

            pub fn write(&mut self, buf: &[u8]) -> usize {
                if self.fin_queued {
                    return 0;
                }
                let n = buf.len().min(self.free_space());
                self.data.extend(&buf[..n]);
                self.written += n as u64;
                n
            }

            pub fn slice(&self, off: u64, max: usize) -> Vec<u8> {
                assert!(off >= self.una);
                if off >= self.written {
                    return Vec::new();
                }
                let start = (off - self.una) as usize;
                let len = ((self.written - off) as usize).min(max);
                (start..start + len).map(|i| self.data[i]).collect()
            }

            pub fn ack_to(&mut self, upto: u64) -> u64 {
                let upto = upto.clamp(self.una, self.written);
                let n = upto - self.una;
                self.data.drain(..n as usize);
                self.una = upto;
                n
            }
        }
    }

    /// The send side as the connection kept it before the stream owned
    /// its sequence space: the byte ring plus five connection fields, the
    /// FIN's byte worked out at each use. Each method is the old code it
    /// stands for, kept as the stream's differential oracle.
    mod connection_model {
        use super::model::RingSendBuffer;
        use simnet::time::{SimDuration, SimTime};
        use std::num::NonZeroU64;

        #[derive(Clone)]
        pub struct FiveFields {
            pub buf: RingSendBuffer,
            pub cursor: u64,
            /// One past the highest offset ever sent, a sent FIN as one.
            pub high: u64,
            /// Our FIN was handed to the output since the last rewind.
            pub sent_fin: bool,
            pub acked_fin: bool,
            pub probe: Option<(NonZeroU64, SimTime)>,
        }

        /// `(off, payload, fin, resent)`.
        pub type Seg = (u64, Vec<u8>, bool, u64);

        impl FiveFields {
            /// `TcpConn::raw` and, for a resumed buffer, `TcpConn::resume`.
            pub fn new(buf: RingSendBuffer) -> Self {
                FiveFields {
                    cursor: buf.una,
                    buf,
                    high: 0,
                    sent_fin: false,
                    acked_fin: false,
                    probe: None,
                }
            }

            /// One pass of `fill_output`'s data loop, or its data-less
            /// FIN branch once the loop found nothing.
            pub fn fill_step(&mut self, room: u64, mss: u32, now: SimTime) -> Option<Seg> {
                let n = room.min(self.buf.written - self.cursor).min(mss as u64);
                if n == 0 {
                    if self.buf.fin_queued
                        && !(self.sent_fin || self.acked_fin)
                        && self.cursor == self.buf.written
                    {
                        self.high = self.cursor + 1;
                        self.sent_fin = true;
                        return Some((self.cursor, Vec::new(), true, 0));
                    }
                    return None;
                }
                let payload = self.buf.slice(self.cursor, n as usize);
                let fin_here = self.cursor + n == self.buf.written && self.buf.fin_queued;
                let (off, end) = (self.cursor, self.cursor + n);
                let resent = self.high.clamp(off, end) - off;
                if self.probe.is_none() && end > self.high {
                    self.probe = NonZeroU64::new(end).map(|off| (off, now));
                }
                self.cursor = end;
                self.high = self.high.max(end + u64::from(fin_here));
                self.sent_fin |= fin_here;
                Some((off, payload, fin_here, resent))
            }

            /// `process_ack` from its range check to its cursor bump:
            /// newly acked bytes, FIN newly acked, RTT sample.
            pub fn ack(
                &mut self,
                ack_off: u64,
                now: SimTime,
            ) -> Option<(u64, bool, Option<SimDuration>)> {
                if ack_off > self.buf.written.max(self.high) {
                    return None;
                }
                let fin_newly_acked = !self.acked_fin && ack_off > self.buf.written;
                self.acked_fin |= fin_newly_acked;
                let newly_acked = self.buf.ack_to(ack_off.min(self.buf.written));
                let mut rtt = None;
                if newly_acked > 0 || fin_newly_acked {
                    if let Some((probe_off, sent_at)) = self.probe {
                        if self.buf.una >= probe_off.get() {
                            rtt = Some(now.saturating_since(sent_at));
                            self.probe = None;
                        }
                    }
                    self.cursor = self.cursor.max(self.buf.una);
                }
                Some((newly_acked, fin_newly_acked, rtt))
            }

            pub fn rewind(&mut self) {
                self.probe = None;
                self.cursor = self.buf.una;
                self.sent_fin = self.acked_fin;
            }

            /// Fast retransmit: the probe cleared, then `retransmit_head`.
            pub fn head(&mut self, mss: u32) -> Seg {
                self.probe = None;
                let una = self.buf.una;
                let payload = self.buf.slice(una, mss as usize);
                let n = payload.len() as u64;
                let fin = self.sent_fin && una + n == self.buf.written;
                (una, payload, fin, n)
            }

            pub fn flight(&self) -> u64 {
                self.cursor - self.buf.una
            }

            /// `has_unacked` past the handshake.
            pub fn outstanding(&self) -> bool {
                self.flight() > 0 || (self.high > self.buf.written && !self.acked_fin)
            }

            pub fn fin(&self) -> super::Fin {
                use super::Fin::*;
                match (self.buf.fin_queued, self.acked_fin, self.sent_fin) {
                    (false, _, _) => Open,
                    (true, true, _) => Acked,
                    (true, false, true) => Sent,
                    (true, false, false) => Queued,
                }
            }
        }
    }

    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Op {
        /// Write `len` bytes, as a slice or as shared `Bytes`.
        Write {
            len: usize,
            shared: bool,
        },
        /// `slice(una + at·buffered/255, max)` (so `at` reaches past
        /// `written` only at 255 with an extra `+1`).
        Slice {
            at: u8,
            max: usize,
        },
        QueueFin,
        /// `next` at `room` and `mss`, then `sent` unless only peeked.
        Next {
            room: u64,
            mss: u32,
            send: bool,
        },
        /// An ACK chosen relative to the stream: below `una`, inside
        /// `[una, written]`, at `written`, at the FIN's byte, at the high
        /// mark, or past it.
        Ack(u8),
        Rewind,
        /// A fast retransmit's head, taken only with bytes in flight.
        Head(u32),
        /// Rebuild both from the unacked region, as a re-integration does.
        Resume {
            capacity: usize,
        },
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        let len = prop_oneof![0usize..=70_000, 0usize..=3_000, Just(0usize)];
        let room = prop_oneof![Just(0u64), 0u64..=4_000, Just(u64::MAX)];
        let mss = prop_oneof![Just(1460u32), 1u32..=600];
        prop_oneof![
            (len, any::<bool>()).prop_map(|(len, shared)| Op::Write { len, shared }),
            (any::<u8>(), prop_oneof![Just(1460usize), 0usize..=70_000])
                .prop_map(|(at, max)| Op::Slice { at, max }),
            Just(Op::QueueFin),
            (room, mss, any::<u8>()).prop_map(|(room, mss, peek)| Op::Next {
                room,
                mss,
                send: peek >= 32,
            }),
            (0u64..=4_000, 1u32..=1460).prop_map(|(room, mss)| Op::Next {
                room,
                mss,
                send: true
            }),
            any::<u8>().prop_map(Op::Ack),
            any::<u8>().prop_map(Op::Ack),
            prop_oneof![Just(Op::Rewind), (1u32..=1460).prop_map(Op::Head)],
            prop_oneof![Just(2usize), Just(100_000usize)]
                .prop_map(|capacity| Op::Resume { capacity }),
        ]
    }

    /// A position-dependent byte, so a chunk served from the wrong offset
    /// cannot compare equal by accident.
    fn stream_byte(p: u64) -> u8 {
        (p.wrapping_mul(31) ^ (p >> 8)) as u8
    }

    fn seg_of(b: &SendBuffer, span: Span) -> connection_model::Seg {
        let payload = b.slice(span.off, span.len);
        assert_eq!(payload.len(), span.len);
        (span.off, payload.to_vec(), span.fin, span.resent)
    }

    proptest! {
        /// Differential test: the chunked stream, and the byte ring plus
        /// the five connection fields it replaced, driven by the same
        /// writes, slices, sends, peeks, ACKs, rewinds, fast retransmits
        /// and resumes, return the same values, hand out the same spans
        /// and RTT samples, and agree on every position, the FIN, the
        /// probe and the buffered bytes after every step.
        #[test]
        fn the_stream_matches_the_byte_ring_and_the_five_connection_fields(
            capacity in prop_oneof![Just(8usize), Just(5_000usize), Just(256 * 1024usize)],
            ops in proptest::collection::vec(op_strategy(), 0..48),
        ) {
            let mut new = SendBuffer::new(capacity);
            let mut old = connection_model::FiveFields::new(model::RingSendBuffer::new(capacity));
            for (step, op) in ops.into_iter().enumerate() {
                let now = SimTime::from_millis(step as u64);
                let (una, written) = (old.buf.una, old.buf.written);
                match op {
                    Op::Write { len, shared } => {
                        let data: Vec<u8> = (0..len as u64).map(|i| stream_byte(written + i)).collect();
                        let want = old.buf.write(&data);
                        let got = match shared {
                            true => new.write_bytes(&Bytes::from(data)),
                            false => new.write(&data),
                        };
                        prop_assert_eq!(got, want);
                    }
                    Op::Slice { at, max } => {
                        let off = una + (written - una) * at as u64 / 255 + (at == 255) as u64;
                        let (got, want) = (new.slice(off, max), old.buf.slice(off, max));
                        prop_assert_eq!(got.as_ref(), &want[..]);
                    }
                    Op::QueueFin => {
                        new.queue_fin();
                        old.buf.fin_queued = true;
                    }
                    Op::Next { room, mss, send } => {
                        let got = new.next(room, mss);
                        let want = match send {
                            true => old.fill_step(room, mss, now),
                            false => old.clone().fill_step(room, mss, now),
                        };
                        if let (Some(span), true) = (got, send) {
                            new.sent(span, now);
                        }
                        prop_assert_eq!(got.map(|span| seg_of(&new, span)), want);
                    }
                    Op::Ack(at) => {
                        let off = match at {
                            0..=19 => una.saturating_sub(at as u64), // duplicate / old
                            20..=179 => una + (written - una) * (at as u64 - 20) / 159,
                            180..=199 => written,
                            200..=219 => written + 1,
                            220..=239 => new.high(),
                            _ => new.high() + 1 + (at as u64 & 3),
                        };
                        let got = new.ack(off, now).map(|a| (a.bytes, a.fin, a.rtt));
                        prop_assert_eq!(got, old.ack(off, now));
                    }
                    Op::Rewind => {
                        new.rewind();
                        old.rewind();
                    }
                    Op::Head(mss) if old.flight() > 0 => {
                        let head = new.head(mss);
                        prop_assert_eq!(seg_of(&new, head), old.head(mss));
                    }
                    Op::Head(_) => {}
                    Op::Resume { capacity } => {
                        let unacked = old.buf.slice(una, old.buf.buffered());
                        let got = new.slice(new.una(), new.buffered());
                        prop_assert_eq!(got.as_ref(), &unacked[..]);
                        let fin = old.buf.fin_queued;
                        new = SendBuffer::resume(capacity, una, &unacked, fin);
                        let ring = model::RingSendBuffer::resume(capacity, una, &unacked, fin);
                        old = connection_model::FiveFields::new(ring);
                    }
                }
                prop_assert_eq!(new.fin(), old.fin());
                prop_assert_eq!(new.una(), old.buf.una);
                prop_assert_eq!(new.written(), old.buf.written);
                prop_assert_eq!(new.cursor(), old.cursor);
                // The old connection sent its RST at the cursor; the high
                // mark is never below it.
                prop_assert_eq!(new.high(), old.high.max(old.cursor));
                prop_assert_eq!(new.flight(), old.flight());
                prop_assert_eq!(new.unsent(), old.buf.written - old.cursor);
                prop_assert_eq!(new.outstanding(), old.outstanding());
                prop_assert_eq!(new.probe, old.probe);
                prop_assert_eq!(new.buffered(), old.buf.buffered());
                prop_assert_eq!(new.free_space(), old.buf.free_space());
                let (got, want) = (new.slice(new.una(), usize::MAX), old.buf.slice(old.buf.una, usize::MAX));
                prop_assert_eq!(got.as_ref(), &want[..]);
            }
        }
    }
}
