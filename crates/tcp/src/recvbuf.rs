//! The TCP receive buffer, with out-of-order reassembly and the ST-TCP
//! *receive hold* extension.
//!
//! Plain TCP may discard a byte as soon as the application has read it.
//! ST-TCP's primary may not: it must keep every in-order byte until the
//! backup confirms receipt (via the heartbeat's `LastByteReceived`), so it
//! can re-supply bytes the backup missed (paper §4.3, Table 1 row 5). The
//! buffer therefore tracks two consumption cursors — the application's
//! `read_pos` and ST-TCP's `release_pos` — and only discards below both.
//! When the hold region exceeds its capacity, ST-TCP is informed (the
//! paper's "additional receive buffer space fills up ⇒ backup considered
//! failed"); flow control toward the client is *not* affected, matching
//! the paper's use of extra buffer space rather than window shrinkage.
//!
//! In-order bytes are kept as the segment payloads they arrived in
//! (shared [`Bytes`] views of the received frames), not copied into a
//! flat ring: the hold region *is* the retained chunks, a read or fetch
//! that one segment serves is a shared view of it, and only a range
//! straddling segments is gathered into a copy.

use bytes::Bytes;
use std::collections::BTreeMap;

use crate::chunks::ChunkQueue;

/// Outcome of offering segment payload to the receive buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReceiveOutcome {
    /// Bytes newly added in-order (advanced `nxt` by this much).
    pub newly_in_order: u64,
    /// True if any part of the payload was stored (in-order or not); false
    /// means the segment was entirely duplicate or outside the window.
    pub accepted: bool,
}

/// A reassembling receive buffer with an optional hold region.
#[derive(Debug, Clone)]
pub struct RecvBuffer {
    /// Contiguous received payloads covering stream offsets `[low, nxt)`,
    /// where `low` is `min(read_pos, release_pos)` and `nxt` is the next
    /// expected in-order offset (receive-next).
    store: ChunkQueue,
    /// Application read cursor.
    read_pos: u64,
    /// ST-TCP hold-release cursor (`== nxt` when the hold is disabled).
    release_pos: u64,
    /// Out-of-order segments keyed by their start offset.
    ooo: BTreeMap<u64, Bytes>,
    /// Application receive-buffer capacity (drives the advertised window).
    app_capacity: usize,
    /// Hold capacity; `None` disables the hold (plain TCP).
    hold_capacity: Option<usize>,
    /// Stream offset of the peer's FIN, once seen.
    fin_offset: Option<u64>,
}

impl RecvBuffer {
    /// Creates a buffer with the given application capacity and optional
    /// ST-TCP hold capacity.
    pub fn new(app_capacity: usize, hold_capacity: Option<usize>) -> RecvBuffer {
        RecvBuffer::resume(app_capacity, hold_capacity, 0, None)
    }

    /// Reconstructs an empty buffer positioned mid-stream from a
    /// re-integration snapshot: every cursor starts at `start` (bytes
    /// below it live on in the transferred application state), and the
    /// peer's FIN position is carried over if it was already known.
    pub fn resume(
        app_capacity: usize,
        hold_capacity: Option<usize>,
        start: u64,
        fin_offset: Option<u64>,
    ) -> RecvBuffer {
        RecvBuffer {
            store: ChunkQueue::starting_at(start),
            read_pos: start,
            release_pos: start,
            ooo: BTreeMap::new(),
            app_capacity,
            hold_capacity,
            fin_offset,
        }
    }

    /// Turns the hold region on (or re-arms it) from the current
    /// receive-next position: everything already contiguous is considered
    /// released, and every byte from here on is retained until
    /// [`RecvBuffer::release_until`] confirms it. The ST-TCP active
    /// server calls this when a replacement backup starts re-integrating.
    pub fn enable_hold(&mut self, capacity: usize) {
        self.hold_capacity = Some(capacity);
        self.release_pos = self.nxt();
        self.compact();
    }

    /// Turns the hold region off: everything held is released at once,
    /// and from here on bytes are kept only until the application reads
    /// them (plain TCP). The ST-TCP active server calls this once it has
    /// no backup left to feed.
    pub fn disable_hold(&mut self) {
        self.hold_capacity = None;
        self.release_pos = self.nxt();
        self.compact();
    }

    /// True while the hold region is on.
    pub fn holds(&self) -> bool {
        self.hold_capacity.is_some()
    }

    /// Next expected in-order stream offset. This is the paper's
    /// `LastByteReceived` heartbeat field (as a count of contiguous bytes).
    pub fn nxt(&self) -> u64 {
        self.store.end()
    }

    /// The application's read cursor — the paper's `LastAppByteRead`.
    pub fn read_pos(&self) -> u64 {
        self.read_pos
    }

    /// The hold-release cursor.
    pub fn release_pos(&self) -> u64 {
        self.release_pos
    }

    /// Bytes ready for the application to read.
    pub fn readable(&self) -> usize {
        (self.nxt() - self.read_pos) as usize
    }

    /// The advertised receive window: application capacity minus unread
    /// in-order bytes. The hold region does not shrink the window.
    pub fn window(&self) -> usize {
        self.app_capacity.saturating_sub(self.readable())
    }

    /// Bytes currently held for the backup (acked to the peer but not yet
    /// released by ST-TCP). Zero when the hold is disabled.
    pub fn hold_used(&self) -> usize {
        (self.nxt() - self.release_pos) as usize
    }

    /// True when the hold region has exceeded its capacity — the signal
    /// that makes the primary declare the backup failed.
    pub fn hold_overflow(&self) -> bool {
        match self.hold_capacity {
            Some(cap) => self.hold_used() > cap,
            None => false,
        }
    }

    /// Bytes currently parked out-of-order (data beyond a receive hole).
    /// Overlapping segments may be double-counted; callers use this as a
    /// boolean-ish "is there data stranded behind a hole" signal.
    pub fn ooo_bytes(&self) -> usize {
        self.ooo.values().map(|b| b.len()).sum()
    }

    /// The stream offset of the peer's FIN, if one has been received.
    pub fn fin_offset(&self) -> Option<u64> {
        self.fin_offset
    }

    /// True once all data up to the peer's FIN has been received in order.
    pub fn fin_reached(&self) -> bool {
        self.fin_offset == Some(self.nxt())
    }

    /// Offers segment payload starting at signed stream offset `off`
    /// (negative offsets arise from old retransmissions reaching back
    /// before the current window; the overlap is trimmed). `fin` marks a
    /// FIN occupying the offset just past the payload.
    ///
    /// Takes the payload as [`Bytes`] so the accepted part is kept — in
    /// order or parked behind a hole — as a shared slice of the received
    /// buffer, never copied.
    pub fn receive(&mut self, off: i64, data: &Bytes, fin: bool) -> ReceiveOutcome {
        let mut outcome = ReceiveOutcome::default();

        // The FIN occupies the offset just past the payload as originally
        // sent, independent of any trimming below.
        if fin {
            let fin_pos = (off + data.len() as i64).max(0) as u64;
            match self.fin_offset {
                None => self.fin_offset = Some(fin_pos),
                Some(existing) => debug_assert_eq!(existing, fin_pos, "peer moved its FIN"),
            }
        }

        // Trim the part that precedes data we already have.
        let nxt = self.nxt();
        let (start, lo) = if off < nxt as i64 {
            let skip = ((nxt as i64 - off) as usize).min(data.len());
            (nxt, skip)
        } else {
            (off as u64, 0)
        };

        // Enforce the receive window: never buffer beyond what we
        // advertised (in-order capacity above read_pos).
        let window_end = self.read_pos + self.app_capacity as u64;
        let hi = if start >= window_end {
            lo
        } else {
            let room = (window_end - start) as usize;
            lo + (data.len() - lo).min(room)
        };

        if lo < hi {
            if start == nxt {
                self.store.push(data.slice(lo..hi));
                outcome.newly_in_order += (hi - lo) as u64;
                outcome.accepted = true;
                self.drain_ooo(&mut outcome);
            } else {
                // Out of order: keep it (possibly overlapping; trimmed when
                // drained) as a shared slice of the incoming buffer.
                outcome.accepted = true;
                self.ooo.entry(start).or_insert_with(|| data.slice(lo..hi));
            }
        }

        if self.hold_capacity.is_none() {
            self.release_pos = self.nxt();
        }
        self.compact();
        outcome
    }

    fn drain_ooo(&mut self, outcome: &mut ReceiveOutcome) {
        while let Some((&start, _)) = self.ooo.range(..=self.nxt()).next() {
            let seg = self.ooo.remove(&start).expect("key just observed");
            let end = start + seg.len() as u64;
            if end > self.nxt() {
                let tail = seg.slice((self.nxt() - start) as usize..);
                outcome.newly_in_order += tail.len() as u64;
                self.store.push(tail);
            }
            // Fully-duplicate entries are simply dropped.
        }
    }

    /// Reads up to `max` bytes for the application — exactly
    /// `min(max, readable)` of them: a shared view of the received
    /// segment when one segment serves the read, a gathered copy when it
    /// spans several.
    pub fn read(&mut self, max: usize) -> Bytes {
        let n = self.readable().min(max);
        let data = self.store.view(self.read_pos, n);
        self.read_pos += n as u64;
        self.compact();
        data
    }

    /// Releases held bytes below `upto` (the backup has confirmed them).
    /// Clamped to `[release_pos, nxt]`. No-op when the hold is disabled.
    /// True iff the release point moved.
    pub fn release_until(&mut self, upto: u64) -> bool {
        let upto = upto.clamp(self.release_pos, self.nxt());
        if self.hold_capacity.is_none() || upto == self.release_pos {
            return false;
        }
        self.release_pos = upto;
        self.compact();
        true
    }

    /// Up to `max` held/stored bytes starting at offset `off` (shared or
    /// gathered like [`RecvBuffer::read`]), for re-supplying a backup
    /// that missed them.
    ///
    /// Returns `None` if `off` is below the retained range (already
    /// discarded — the paper's unrecoverable case) or beyond `nxt`.
    pub fn fetch(&self, off: u64, max: usize) -> Option<Bytes> {
        if off < self.store.low() || off >= self.nxt() {
            return None;
        }
        let len = ((self.nxt() - off) as usize).min(max);
        Some(self.store.view(off, len))
    }

    /// Drops what neither the application nor the hold still needs.
    fn compact(&mut self) {
        self.store
            .discard_below(self.read_pos.min(self.release_pos));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plain() -> RecvBuffer {
        RecvBuffer::new(1024, None)
    }

    fn holding(cap: usize) -> RecvBuffer {
        RecvBuffer::new(1024, Some(cap))
    }

    fn bs(data: &'static [u8]) -> Bytes {
        Bytes::from_static(data)
    }

    #[test]
    fn in_order_delivery() {
        let mut b = plain();
        let o = b.receive(0, &bs(b"hello"), false);
        assert_eq!(o.newly_in_order, 5);
        assert!(o.accepted);
        assert_eq!(b.nxt(), 5);
        assert_eq!(b.read(100).as_ref(), b"hello");
        assert_eq!(b.readable(), 0);
    }

    #[test]
    fn out_of_order_reassembly() {
        let mut b = plain();
        let o = b.receive(5, &bs(b"world"), false);
        assert_eq!(o.newly_in_order, 0);
        assert!(o.accepted);
        assert_eq!(b.nxt(), 0);
        let o = b.receive(0, &bs(b"hello"), false);
        assert_eq!(o.newly_in_order, 10);
        assert_eq!(b.read(100).as_ref(), b"helloworld");
    }

    #[test]
    fn overlapping_retransmission_trimmed() {
        let mut b = plain();
        let _ = b.receive(0, &bs(b"abcde"), false);
        // Retransmission covering [2, 8).
        let o = b.receive(2, &bs(b"cdefgh"), false);
        assert_eq!(o.newly_in_order, 3);
        assert_eq!(b.read(100).as_ref(), b"abcdefgh");
    }

    #[test]
    fn fully_duplicate_segment_rejected() {
        let mut b = plain();
        let _ = b.receive(0, &bs(b"abcde"), false);
        let o = b.receive(0, &bs(b"abc"), false);
        assert_eq!(o.newly_in_order, 0);
        assert!(!o.accepted);
    }

    #[test]
    fn negative_offset_old_data() {
        let mut b = plain();
        let _ = b.receive(0, &bs(b"abcde"), false);
        let _ = b.read(100);
        // A very old retransmission stretching before offset 0 cannot
        // happen in real TCP, but the API must be robust to off < nxt.
        let o = b.receive(3, &bs(b"defgh"), false);
        assert_eq!(o.newly_in_order, 3);
        assert_eq!(b.read(100).as_ref(), b"fgh");
    }

    #[test]
    fn window_shrinks_with_unread_data() {
        let mut b = RecvBuffer::new(10, None);
        assert_eq!(b.window(), 10);
        let _ = b.receive(0, &bs(b"abcdef"), false);
        assert_eq!(b.window(), 4);
        let _ = b.read(3);
        assert_eq!(b.window(), 7);
    }

    #[test]
    fn data_beyond_window_is_clamped() {
        let mut b = RecvBuffer::new(4, None);
        let o = b.receive(0, &bs(b"abcdefgh"), false);
        assert_eq!(o.newly_in_order, 4);
        assert_eq!(b.nxt(), 4);
        // Entirely outside the window: nothing stored.
        let o = b.receive(100, &bs(b"zz"), false);
        assert!(!o.accepted);
    }

    #[test]
    fn fin_position_tracked_and_reached() {
        let mut b = plain();
        let _ = b.receive(0, &bs(b"abc"), true);
        assert_eq!(b.fin_offset(), Some(3));
        assert!(b.fin_reached());
    }

    #[test]
    fn fin_with_missing_data_not_reached() {
        let mut b = plain();
        let _ = b.receive(3, &bs(b"def"), true);
        assert_eq!(b.fin_offset(), Some(6));
        assert!(!b.fin_reached());
        let _ = b.receive(0, &bs(b"abc"), false);
        assert!(b.fin_reached());
    }

    #[test]
    fn bare_fin_after_data() {
        let mut b = plain();
        let _ = b.receive(0, &bs(b"abc"), false);
        let _ = b.receive(3, &bs(b""), true);
        assert_eq!(b.fin_offset(), Some(3));
        assert!(b.fin_reached());
    }

    #[test]
    fn hold_retains_read_bytes() {
        let mut b = holding(100);
        let _ = b.receive(0, &bs(b"abcdefgh"), false);
        let _ = b.read(8);
        // App has read everything, but the hold still has it.
        assert_eq!(b.hold_used(), 8);
        assert_eq!(b.fetch(0, 100).unwrap().as_ref(), b"abcdefgh");
        assert_eq!(b.fetch(4, 2).unwrap().as_ref(), b"ef");
        b.release_until(5);
        assert_eq!(b.hold_used(), 3);
        assert!(b.fetch(0, 10).is_none(), "released bytes are gone");
        assert_eq!(b.fetch(5, 10).unwrap().as_ref(), b"fgh");
    }

    #[test]
    fn plain_buffer_has_no_hold() {
        let mut b = plain();
        let _ = b.receive(0, &bs(b"abcdefgh"), false);
        let _ = b.read(8);
        assert_eq!(b.hold_used(), 0);
        assert!(!b.hold_overflow());
        assert!(b.fetch(0, 8).is_none(), "bytes discarded after read");
    }

    #[test]
    fn hold_overflow_signals() {
        let mut b = holding(4);
        let _ = b.receive(0, &bs(b"abcdefgh"), false);
        assert_eq!(b.hold_used(), 8);
        assert!(b.hold_overflow());
        b.release_until(6);
        assert!(!b.hold_overflow());
    }

    #[test]
    fn hold_does_not_shrink_window() {
        let mut b = RecvBuffer::new(10, Some(100));
        let _ = b.receive(0, &bs(b"abcdef"), false);
        let _ = b.read(6);
        // 6 bytes held, but the app buffer is empty ⇒ full window.
        assert_eq!(b.hold_used(), 6);
        assert_eq!(b.window(), 10);
    }

    #[test]
    fn release_clamps() {
        let mut b = holding(100);
        let _ = b.receive(0, &bs(b"abcd"), false);
        b.release_until(100);
        assert_eq!(b.release_pos(), 4);
        b.release_until(2); // going backwards is ignored
        assert_eq!(b.release_pos(), 4);
    }

    #[test]
    fn fetch_bounds() {
        let mut b = holding(100);
        let _ = b.receive(0, &bs(b"abcd"), false);
        assert!(b.fetch(4, 1).is_none(), "at nxt");
        assert!(b.fetch(100, 1).is_none(), "beyond nxt");
        assert_eq!(b.fetch(3, 100).unwrap().as_ref(), b"d");
    }

    #[test]
    fn unread_bytes_survive_release() {
        // Bytes released by ST-TCP but not yet read by the app must stay.
        let mut b = holding(100);
        let _ = b.receive(0, &bs(b"abcdefgh"), false);
        b.release_until(8);
        assert_eq!(b.read(100).as_ref(), b"abcdefgh");
    }

    #[test]
    fn resume_mid_stream_receives_from_start() {
        let mut b = RecvBuffer::resume(1024, None, 500, None);
        assert_eq!(b.nxt(), 500);
        assert_eq!(b.read_pos(), 500);
        let o = b.receive(500, &bs(b"abc"), false);
        assert_eq!(o.newly_in_order, 3);
        assert_eq!(b.read(100).as_ref(), b"abc");
        // Data from before the resume point is entirely stale.
        let o = b.receive(100, &bs(b"old"), false);
        assert_eq!(o.newly_in_order, 0);
    }

    #[test]
    fn resume_carries_fin_position() {
        let mut b = RecvBuffer::resume(1024, None, 4, Some(7));
        assert!(!b.fin_reached());
        let _ = b.receive(4, &bs(b"xyz"), false);
        assert!(b.fin_reached());
    }

    #[test]
    fn enable_hold_retains_only_new_bytes() {
        let mut b = plain();
        let _ = b.receive(0, &bs(b"abcd"), false);
        let _ = b.read(4);
        assert!(b.fetch(0, 4).is_none(), "plain buffer discards read bytes");
        b.enable_hold(100);
        assert_eq!(b.hold_used(), 0);
        let _ = b.receive(4, &bs(b"efgh"), false);
        let _ = b.read(4);
        assert_eq!(b.hold_used(), 4);
        assert_eq!(b.fetch(4, 100).unwrap().as_ref(), b"efgh");
        b.release_until(8);
        assert_eq!(b.hold_used(), 0);
    }

    #[test]
    fn enable_hold_rearms_and_discards_stale_hold() {
        let mut b = holding(100);
        let _ = b.receive(0, &bs(b"abcdefgh"), false);
        let _ = b.read(8);
        assert_eq!(b.hold_used(), 8);
        // Re-arming treats everything contiguous as already released.
        b.enable_hold(100);
        assert_eq!(b.hold_used(), 0);
        assert!(b.fetch(0, 8).is_none());
    }

    #[test]
    fn disable_hold_releases_everything_and_holds_nothing_after() {
        let mut b = holding(4);
        let _ = b.receive(0, &bs(b"abcdefgh"), false);
        let _ = b.read(6);
        assert!(b.holds() && b.hold_overflow());
        b.disable_hold();
        assert!(!b.holds());
        assert_eq!((b.hold_used(), b.hold_overflow()), (0, false));
        assert!(b.fetch(0, 8).is_none(), "released bytes are gone");
        // Unread bytes stay for the application; later bytes are not held.
        let _ = b.receive(8, &bs(b"ijkl"), false);
        assert_eq!(b.hold_used(), 0);
        assert_eq!(b.read(100).as_ref(), b"ghijkl");
    }

    #[test]
    fn interleaved_read_release_discard() {
        let mut b = holding(100);
        let _ = b.receive(0, &bs(b"0123456789"), false);
        let _ = b.read(4); // read_pos = 4
        b.release_until(7); // release_pos = 7, low = 4
        assert_eq!(b.fetch(7, 100).unwrap().as_ref(), b"789");
        assert_eq!(b.read(100).as_ref(), b"456789"); // read_pos = 10
        b.release_until(10);
        assert_eq!(b.hold_used(), 0);
        assert!(b.fetch(9, 1).is_none());
    }

    #[test]
    fn read_of_one_received_segment_points_into_that_segment() {
        // The copy budget's receive-side hop: a read (or fetch) served by
        // one segment is that segment's buffer, not a copy of it.
        let seg = Bytes::from(vec![7u8; 1460]);
        let mut b = RecvBuffer::new(64 * 1024, Some(1 << 20));
        let _ = b.receive(0, &seg, false);
        let got = b.read(64 * 1024);
        assert_eq!(got.len(), 1460);
        assert_eq!(got.as_ptr(), seg.as_ptr());
        // The hold region is the retained chunk itself.
        assert_eq!(b.fetch(100, 50).unwrap().as_ptr(), seg[100..].as_ptr());
        // A retransmission overlapping what is already held shares its tail.
        let rtx = Bytes::from(vec![7u8; 1460]);
        let _ = b.receive(1000, &rtx, false);
        assert_eq!(b.read(64 * 1024).as_ptr(), rtx[460..].as_ptr());
        // Two segments read at once are gathered, with the exact length.
        let _ = b.receive(2460, &seg, false);
        let _ = b.receive(3920, &seg, false);
        let both = b.read(64 * 1024);
        assert_eq!(both.len(), 2920);
        assert_ne!(both.as_ptr(), seg.as_ptr());
    }

    /// The `VecDeque<u8>` ring this buffer replaced, kept verbatim as the
    /// differential oracle for the chunked implementation.
    mod model {
        use super::super::ReceiveOutcome;
        use bytes::Bytes;
        use std::collections::{BTreeMap, VecDeque};

        pub struct RingRecvBuffer {
            store: VecDeque<u8>,
            pub low: u64,
            pub read_pos: u64,
            pub release_pos: u64,
            pub nxt: u64,
            ooo: BTreeMap<u64, Bytes>,
            app_capacity: usize,
            hold_capacity: Option<usize>,
            pub fin_offset: Option<u64>,
        }

        impl RingRecvBuffer {
            pub fn resume(
                app_capacity: usize,
                hold_capacity: Option<usize>,
                start: u64,
                fin_offset: Option<u64>,
            ) -> Self {
                RingRecvBuffer {
                    store: VecDeque::new(),
                    low: start,
                    read_pos: start,
                    release_pos: start,
                    nxt: start,
                    ooo: BTreeMap::new(),
                    app_capacity,
                    hold_capacity,
                    fin_offset,
                }
            }

            pub fn enable_hold(&mut self, capacity: usize) {
                self.hold_capacity = Some(capacity);
                self.release_pos = self.nxt;
                self.compact();
            }

            pub fn disable_hold(&mut self) {
                self.hold_capacity = None;
                self.release_pos = self.nxt;
                self.compact();
            }

            pub fn readable(&self) -> usize {
                (self.nxt - self.read_pos) as usize
            }

            pub fn window(&self) -> usize {
                self.app_capacity.saturating_sub(self.readable())
            }

            pub fn hold_used(&self) -> usize {
                (self.nxt - self.release_pos) as usize
            }

            pub fn hold_overflow(&self) -> bool {
                self.hold_capacity.is_some_and(|cap| self.hold_used() > cap)
            }

            pub fn ooo_bytes(&self) -> usize {
                self.ooo.values().map(|b| b.len()).sum()
            }

            pub fn receive(&mut self, off: i64, data: &Bytes, fin: bool) -> ReceiveOutcome {
                let mut outcome = ReceiveOutcome::default();
                if fin {
                    let fin_pos = (off + data.len() as i64).max(0) as u64;
                    self.fin_offset.get_or_insert(fin_pos);
                }
                let (start, lo) = if off < self.nxt as i64 {
                    let skip = ((self.nxt as i64 - off) as usize).min(data.len());
                    (self.nxt, skip)
                } else {
                    (off as u64, 0)
                };
                let window_end = self.read_pos + self.app_capacity as u64;
                let hi = if start >= window_end {
                    lo
                } else {
                    let room = (window_end - start) as usize;
                    lo + (data.len() - lo).min(room)
                };
                if lo < hi {
                    if start == self.nxt {
                        self.store.extend(&data[lo..hi]);
                        self.nxt += (hi - lo) as u64;
                        outcome.newly_in_order += (hi - lo) as u64;
                        outcome.accepted = true;
                        self.drain_ooo(&mut outcome);
                    } else {
                        outcome.accepted = true;
                        self.ooo.entry(start).or_insert_with(|| data.slice(lo..hi));
                    }
                }
                if self.hold_capacity.is_none() {
                    self.release_pos = self.nxt;
                }
                self.compact();
                outcome
            }

            fn drain_ooo(&mut self, outcome: &mut ReceiveOutcome) {
                while let Some((&start, _)) = self.ooo.range(..=self.nxt).next() {
                    let seg = self.ooo.remove(&start).expect("key just observed");
                    let end = start + seg.len() as u64;
                    if end > self.nxt {
                        let skip = (self.nxt - start) as usize;
                        let tail = &seg[skip..];
                        self.store.extend(tail);
                        self.nxt += tail.len() as u64;
                        outcome.newly_in_order += tail.len() as u64;
                    }
                }
            }

            fn copy_range(&self, start: usize, len: usize) -> Vec<u8> {
                self.store.range(start..start + len).copied().collect()
            }

            pub fn read(&mut self, max: usize) -> Vec<u8> {
                let n = self.readable().min(max);
                let start = (self.read_pos - self.low) as usize;
                let v = self.copy_range(start, n);
                self.read_pos += n as u64;
                self.compact();
                v
            }

            pub fn release_until(&mut self, upto: u64) {
                if self.hold_capacity.is_none() {
                    return;
                }
                let upto = upto.clamp(self.release_pos, self.nxt);
                self.release_pos = upto;
                self.compact();
            }

            pub fn fetch(&self, off: u64, max: usize) -> Option<Vec<u8>> {
                if off < self.low || off >= self.nxt {
                    return None;
                }
                let start = (off - self.low) as usize;
                let len = ((self.nxt - off) as usize).min(max);
                Some(self.copy_range(start, len))
            }

            fn compact(&mut self) {
                let new_low = self.read_pos.min(self.release_pos);
                let drop = (new_low - self.low) as usize;
                if drop > 0 {
                    self.store.drain(..drop);
                    self.low = new_low;
                }
            }
        }
    }

    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Op {
        /// A segment at `nxt + rel` (negative: old retransmission;
        /// positive: behind a hole, up to beyond the window).
        Receive {
            rel: i64,
            len: usize,
            fin: bool,
        },
        Read {
            max: usize,
        },
        /// `release_until(low + at·span/200)`: below, inside and (past
        /// 200) beyond `nxt`.
        Release {
            at: u8,
        },
        /// `fetch(low + at·span/200 - 1, max)`: from just below the
        /// retained range to beyond `nxt`.
        Fetch {
            at: u8,
            max: usize,
        },
        EnableHold {
            capacity: usize,
        },
        DisableHold,
        /// Snapshot (read cursor, unread bytes, FIN) and rebuild both
        /// buffers the way `TcpConn::resume` does.
        Resume,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        let receive = || {
            (
                prop_oneof![Just(0i64), -3_000i64..=0, 0i64..=3_000, -70_000i64..=70_000],
                prop_oneof![Just(1460usize), 0usize..=3_000, 0usize..=70_000],
                (0u8..8).prop_map(|f| f == 0),
            )
                .prop_map(|(rel, len, fin)| Op::Receive { rel, len, fin })
        };
        let max = || prop_oneof![Just(64 * 1024usize), 0usize..=4_000];
        prop_oneof![
            receive(),
            receive(),
            receive(),
            max().prop_map(|max| Op::Read { max }),
            max().prop_map(|max| Op::Read { max }),
            any::<u8>().prop_map(|at| Op::Release { at }),
            (any::<u8>(), max()).prop_map(|(at, max)| Op::Fetch { at, max }),
            prop_oneof![Just(0usize), Just(2_000usize), Just(1usize << 20)]
                .prop_map(|capacity| Op::EnableHold { capacity }),
            Just(Op::DisableHold),
            Just(Op::Resume),
        ]
    }

    /// A position-dependent byte, so bytes served from the wrong offset
    /// cannot compare equal by accident.
    fn stream_byte(p: i64) -> u8 {
        (p.wrapping_mul(31) ^ (p >> 8)) as u8
    }

    proptest! {
        /// Differential test: the chunked buffer and the byte ring it
        /// replaced, driven by the same op stream, agree on every return
        /// value, every accessor and the retained bytes after every step.
        #[test]
        fn chunked_buffer_matches_the_byte_ring(
            app_capacity in prop_oneof![Just(10usize), Just(4_000usize), Just(64 * 1024usize)],
            hold in prop_oneof![Just(None), Just(Some(3_000usize)), Just(Some(1usize << 20))],
            ops in proptest::collection::vec(op_strategy(), 0..60),
        ) {
            let mut new = RecvBuffer::new(app_capacity, hold);
            let mut old = model::RingRecvBuffer::resume(app_capacity, hold, 0, None);
            let mut hold = hold;
            for op in ops {
                match op {
                    Op::Receive { rel, len, fin } => {
                        // A peer never moves its FIN: later FIN segments
                        // end where the first one did.
                        let off = match (fin, old.fin_offset) {
                            (true, Some(f)) => f as i64 - len as i64,
                            _ => old.nxt as i64 + rel,
                        };
                        let data: Bytes =
                            (0..len as i64).map(|i| stream_byte(off + i)).collect::<Vec<u8>>().into();
                        prop_assert_eq!(new.receive(off, &data, fin), old.receive(off, &data, fin));
                    }
                    Op::Read { max } => {
                        let (got, want) = (new.read(max), old.read(max));
                        prop_assert_eq!(got.as_ref(), &want[..]);
                    }
                    Op::Release { at } => {
                        let upto = old.low + (old.nxt - old.low) * at as u64 / 200;
                        new.release_until(upto);
                        old.release_until(upto);
                    }
                    Op::Fetch { at, max } => {
                        let off = (old.low + (old.nxt - old.low) * at as u64 / 200).saturating_sub(1);
                        let (got, want) = (new.fetch(off, max), old.fetch(off, max));
                        prop_assert_eq!(got.as_ref().map(|b| b.as_ref()), want.as_deref());
                    }
                    Op::EnableHold { capacity } => {
                        hold = Some(capacity);
                        new.enable_hold(capacity);
                        old.enable_hold(capacity);
                    }
                    Op::DisableHold => {
                        hold = None;
                        new.disable_hold();
                        old.disable_hold();
                    }
                    Op::Resume => {
                        let start = old.read_pos;
                        let pending = Bytes::from(
                            old.fetch(start, usize::MAX).unwrap_or_default(),
                        );
                        let fin = old.fin_offset;
                        new = RecvBuffer::resume(app_capacity, hold, start, fin);
                        old = model::RingRecvBuffer::resume(app_capacity, hold, start, fin);
                        prop_assert_eq!(
                            new.receive(start as i64, &pending, false),
                            old.receive(start as i64, &pending, false)
                        );
                    }
                }
                prop_assert_eq!(new.nxt(), old.nxt);
                prop_assert_eq!(new.read_pos(), old.read_pos);
                prop_assert_eq!(new.release_pos(), old.release_pos);
                prop_assert_eq!(new.readable(), old.readable());
                prop_assert_eq!(new.window(), old.window());
                prop_assert_eq!(new.hold_used(), old.hold_used());
                prop_assert_eq!(new.hold_overflow(), old.hold_overflow());
                prop_assert_eq!(new.holds(), hold.is_some());
                prop_assert_eq!(new.ooo_bytes(), old.ooo_bytes());
                prop_assert_eq!(new.fin_offset(), old.fin_offset);
                prop_assert_eq!(new.fin_reached(), old.fin_offset == Some(old.nxt));
                // The retained range and its bytes.
                let (got, want) = (new.fetch(old.low, usize::MAX), old.fetch(old.low, usize::MAX));
                prop_assert_eq!(got.as_ref().map(|b| b.as_ref()), want.as_deref());
                if old.low > 0 {
                    prop_assert!(new.fetch(old.low - 1, 1).is_none());
                }
            }
        }
    }
}
