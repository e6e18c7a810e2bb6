//! The TCP send buffer.
//!
//! Operates in 64-bit *stream offset* space (offset 0 = first payload
//! byte); the connection layer converts to and from 32-bit wire sequence
//! numbers. The buffer retains every byte from the lowest unacknowledged
//! offset to the application's write position, serving both first
//! transmissions and retransmissions.
//!
//! The bytes are kept as the queue of [`Bytes`] chunks the application
//! wrote, not as a flat ring: a write shares (or copies once into) one
//! chunk, a segment is a shared view of a chunk unless it straddles two,
//! and an acknowledgment drops whole chunks and re-slices the front one.

use bytes::Bytes;

use crate::chunks::ChunkQueue;

/// A byte-stream send buffer with retransmission support.
///
/// Tracks three positions: `una` (lowest unacknowledged), the caller's
/// transmission cursor (kept by the connection), and `written` (the
/// application's write position). `ST-TCP` reads `written` as the paper's
/// `LastAppByteWritten` heartbeat field.
#[derive(Debug, Clone)]
pub struct SendBuffer {
    /// The written chunks covering stream offsets `[una, written)`.
    data: ChunkQueue,
    capacity: usize,
    fin_queued: bool,
}

impl SendBuffer {
    /// Creates an empty buffer that accepts up to `capacity` un-acked
    /// bytes.
    pub fn new(capacity: usize) -> SendBuffer {
        SendBuffer {
            data: ChunkQueue::starting_at(0),
            capacity,
            fin_queued: false,
        }
    }

    /// Reconstructs a buffer mid-stream from a re-integration snapshot.
    ///
    /// Offsets below `una` were acknowledged by the peer before the
    /// snapshot was taken and are gone forever; `unacked` covers
    /// `[una, una + unacked.len())` — exactly the bytes a retransmission
    /// may still need. The capacity is widened if the carried region
    /// alone would overflow it, so the resumed buffer is never born full
    /// beyond its own contents.
    pub fn resume(capacity: usize, una: u64, unacked: &[u8], fin_queued: bool) -> SendBuffer {
        let mut data = ChunkQueue::starting_at(una);
        data.push(Bytes::copy_from_slice(unacked));
        SendBuffer {
            data,
            capacity: capacity.max(unacked.len()),
            fin_queued,
        }
    }

    /// The lowest unacknowledged stream offset.
    pub fn una(&self) -> u64 {
        self.data.low()
    }

    /// The application's write position (total bytes ever written). This
    /// is the paper's `LastAppByteWritten`.
    pub fn written(&self) -> u64 {
        self.data.end()
    }

    /// Bytes currently buffered (written but not yet acked).
    pub fn buffered(&self) -> usize {
        (self.written() - self.una()) as usize
    }

    /// Free space for application writes.
    pub fn free_space(&self) -> usize {
        self.capacity - self.buffered()
    }

    /// True once the application has closed its sending side.
    pub fn fin_queued(&self) -> bool {
        self.fin_queued
    }

    /// Appends application data, limited by free space: the accepted
    /// prefix is copied once into a chunk of its own. Returns the number
    /// of bytes accepted (0 after the sending side is closed).
    pub fn write(&mut self, buf: &[u8]) -> usize {
        let n = self.accepts(buf.len());
        if n > 0 {
            self.data.push(Bytes::copy_from_slice(&buf[..n]));
        }
        n
    }

    /// Appends application data the caller already holds as [`Bytes`],
    /// limited by free space: the accepted prefix is shared, not copied.
    /// Returns the number of bytes accepted (0 after the sending side is
    /// closed).
    pub fn write_bytes(&mut self, buf: &Bytes) -> usize {
        let n = self.accepts(buf.len());
        self.data.push(buf.slice(..n));
        n
    }

    /// How many of `len` offered bytes a write may take.
    fn accepts(&self, len: usize) -> usize {
        if self.fin_queued {
            return 0;
        }
        len.min(self.free_space())
    }

    /// Closes the sending side: no further writes are accepted and a FIN
    /// occupies the offset just past the last written byte. Idempotent.
    pub fn queue_fin(&mut self) {
        self.fin_queued = true;
    }

    /// Bytes available at or beyond `from` (i.e. not yet transmitted when
    /// `from` is the send cursor).
    pub fn available_from(&self, from: u64) -> usize {
        debug_assert!(from >= self.una() && from <= self.written());
        (self.written() - from) as usize
    }

    /// Up to `max` bytes starting at stream offset `off`: a shared view of
    /// the written chunk when the range lies inside one, a gathered copy
    /// when it straddles chunks. The length is exactly
    /// `min(max, written - off)` either way.
    ///
    /// Used for both first transmission and retransmission; returns an
    /// empty value when `off` is at or past the write position.
    ///
    /// # Panics
    ///
    /// Panics if `off` is below `una` (those bytes have been acked and
    /// discarded — asking for them is a connection-layer bug).
    pub fn slice(&self, off: u64, max: usize) -> Bytes {
        assert!(off >= self.una(), "offset {off} below una {}", self.una());
        if off >= self.written() {
            return Bytes::new();
        }
        let len = ((self.written() - off) as usize).min(max);
        self.data.view(off, len)
    }

    /// Acknowledges everything below stream offset `upto`, discarding it.
    /// Returns the number of newly acknowledged bytes. Offsets at or below
    /// the current `una`, or beyond `written`, are clamped.
    pub fn ack_to(&mut self, upto: u64) -> u64 {
        let una = self.una();
        self.data.discard_below(upto);
        self.una() - una
    }

    /// True when every written byte has been acknowledged (FIN sequencing
    /// is tracked by the connection, not here).
    pub fn all_acked(&self) -> bool {
        self.una() == self.written()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(b.all_acked());
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
        assert!(!b.fin_queued());
        b.queue_fin();
        assert!(b.fin_queued());
        assert_eq!(b.write(b"more"), 0);
        assert_eq!(b.written(), 4);
        b.queue_fin(); // idempotent
        assert!(b.fin_queued());
    }

    #[test]
    fn available_from_cursor() {
        let mut b = SendBuffer::new(100);
        let _ = b.write(b"0123456789");
        assert_eq!(b.available_from(0), 10);
        assert_eq!(b.available_from(7), 3);
        assert_eq!(b.available_from(10), 0);
    }

    #[test]
    fn resume_mid_stream() {
        let b = SendBuffer::resume(100, 1_000, b"abcd", false);
        assert_eq!(b.una(), 1_000);
        assert_eq!(b.written(), 1_004);
        assert_eq!(b.slice(1_000, 10).as_ref(), b"abcd");
        assert_eq!(b.slice(1_002, 10).as_ref(), b"cd");
        assert!(!b.fin_queued());
    }

    #[test]
    fn resume_with_fin_and_acks() {
        let mut b = SendBuffer::resume(100, 50, b"xyz", true);
        assert!(b.fin_queued());
        assert_eq!(b.written(), 53);
        assert_eq!(b.write(b"more"), 0, "closed side refuses writes");
        assert_eq!(b.ack_to(52), 2);
        assert_eq!(b.slice(52, 10).as_ref(), b"z");
        assert_eq!(b.ack_to(53), 1);
        assert!(b.all_acked());
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
            let _ = b.ack_to(b.written());
        }
        assert_eq!(b.una(), total);
        assert!(b.all_acked());
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
        /// `ack_to` a point chosen relative to `[una, written]`:
        /// below `una`, inside, exactly `written`, or beyond it.
        Ack {
            at: u8,
        },
        QueueFin,
        /// Snapshot the unacked region and rebuild both buffers from it.
        Resume {
            capacity: usize,
        },
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (
                prop_oneof![0usize..=70_000, 0usize..=3_000, Just(0usize)],
                any::<bool>()
            )
                .prop_map(|(len, shared)| Op::Write { len, shared }),
            (
                prop_oneof![0usize..=70_000, 0usize..=3_000, Just(0usize)],
                any::<bool>()
            )
                .prop_map(|(len, shared)| Op::Write { len, shared }),
            (any::<u8>(), prop_oneof![Just(1460usize), 0usize..=70_000])
                .prop_map(|(at, max)| Op::Slice { at, max }),
            (any::<u8>(), prop_oneof![Just(1460usize), 0usize..=70_000])
                .prop_map(|(at, max)| Op::Slice { at, max }),
            any::<u8>().prop_map(|at| Op::Ack { at }),
            any::<u8>().prop_map(|at| Op::Ack { at }),
            Just(Op::QueueFin),
            prop_oneof![Just(2usize), Just(100_000usize)]
                .prop_map(|capacity| Op::Resume { capacity }),
        ]
    }

    /// A position-dependent byte, so a chunk served from the wrong offset
    /// cannot compare equal by accident.
    fn stream_byte(p: u64) -> u8 {
        (p.wrapping_mul(31) ^ (p >> 8)) as u8
    }

    proptest! {
        /// Differential test: the chunked buffer and the byte ring it
        /// replaced, driven by the same op stream, agree on every return
        /// value, every accessor and the buffered bytes after every step.
        #[test]
        fn chunked_buffer_matches_the_byte_ring(
            capacity in prop_oneof![Just(8usize), Just(5_000usize), Just(256 * 1024usize)],
            ops in proptest::collection::vec(op_strategy(), 0..40),
        ) {
            let mut new = SendBuffer::new(capacity);
            let mut old = model::RingSendBuffer::new(capacity);
            for op in ops {
                match op {
                    Op::Write { len, shared } => {
                        let data: Vec<u8> =
                            (0..len as u64).map(|i| stream_byte(old.written + i)).collect();
                        let want = old.write(&data);
                        let got = if shared {
                            new.write_bytes(&Bytes::from(data))
                        } else {
                            new.write(&data)
                        };
                        prop_assert_eq!(got, want);
                    }
                    Op::Slice { at, max } => {
                        let span = old.written - old.una;
                        let off = old.una + span * at as u64 / 255 + (at == 255) as u64;
                        let (got, want) = (new.slice(off, max), old.slice(off, max));
                        prop_assert_eq!(got.as_ref(), &want[..]);
                    }
                    Op::Ack { at } => {
                        let span = old.written - old.una;
                        let upto = match at {
                            0..=19 => old.una.saturating_sub(at as u64), // duplicate / old
                            20..=219 => old.una + span * (at as u64 - 20) / 199,
                            220..=239 => old.written,
                            _ => old.written + at as u64, // beyond written
                        };
                        prop_assert_eq!(new.ack_to(upto), old.ack_to(upto));
                    }
                    Op::QueueFin => {
                        new.queue_fin();
                        old.fin_queued = true;
                    }
                    Op::Resume { capacity } => {
                        let unacked = old.slice(old.una, old.buffered());
                        let got = new.slice(new.una(), new.buffered());
                        prop_assert_eq!(got.as_ref(), &unacked[..]);
                        new = SendBuffer::resume(capacity, old.una, &unacked, old.fin_queued);
                        old = model::RingSendBuffer::resume(capacity, old.una, &unacked, old.fin_queued);
                    }
                }
                prop_assert_eq!(new.una(), old.una);
                prop_assert_eq!(new.written(), old.written);
                prop_assert_eq!(new.buffered(), old.buffered());
                prop_assert_eq!(new.free_space(), old.free_space());
                prop_assert_eq!(new.fin_queued(), old.fin_queued);
                prop_assert_eq!(new.all_acked(), old.una == old.written);
                let (got, want) = (new.slice(new.una(), usize::MAX), old.slice(old.una, usize::MAX));
                prop_assert_eq!(got.as_ref(), &want[..]);
            }
        }
    }
}
