//! TCP sequence-number arithmetic (RFC 793 modulo-2³² comparisons).
//!
//! ST-TCP leans on sequence numbers harder than ordinary TCP: the backup
//! must mirror the primary's numbering exactly so it can take over the
//! connection mid-stream. All comparisons here are the standard wrapping
//! ones; [`SeqTracker`] additionally unwraps 32-bit wire numbers into
//! monotone 64-bit stream offsets, which the buffer layers use internally
//! so that multi-gigabyte transfers cannot be bitten by wraparound.

use core::fmt;
use core::ops::{Add, Sub};

/// A TCP sequence number: a position on the modulo-2³² sequence circle.
///
/// # Examples
///
/// ```
/// use simtcp::seq::SeqNum;
///
/// let a = SeqNum(0xffff_fff0);
/// let b = a + 0x20; // wraps
/// assert!(a.lt(b));
/// assert_eq!(b - a, 0x20);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SeqNum(pub u32);

impl SeqNum {
    /// The signed circular distance from `other` to `self`.
    ///
    /// Positive when `self` is ahead of `other` on the circle (within the
    /// 2³¹ window the comparison is meaningful for).
    pub fn diff(self, other: SeqNum) -> i32 {
        self.0.wrapping_sub(other.0) as i32
    }

    /// Circular `self < other`.
    pub fn lt(self, other: SeqNum) -> bool {
        self.diff(other) < 0
    }

    /// Circular `self <= other`.
    pub fn le(self, other: SeqNum) -> bool {
        self.diff(other) <= 0
    }

    /// Circular `self >= other`.
    pub fn ge(self, other: SeqNum) -> bool {
        self.diff(other) >= 0
    }

    /// True if `self` lies in the half-open window `[start, start + len)`.
    pub fn in_window(self, start: SeqNum, len: u32) -> bool {
        let off = self.0.wrapping_sub(start.0);
        off < len
    }
}

impl Add<u32> for SeqNum {
    type Output = SeqNum;
    fn add(self, rhs: u32) -> SeqNum {
        SeqNum(self.0.wrapping_add(rhs))
    }
}

impl Sub<u32> for SeqNum {
    type Output = SeqNum;
    fn sub(self, rhs: u32) -> SeqNum {
        SeqNum(self.0.wrapping_sub(rhs))
    }
}

impl Sub<SeqNum> for SeqNum {
    type Output = u32;
    /// The forward distance from `rhs` to `self` on the circle.
    fn sub(self, rhs: SeqNum) -> u32 {
        self.0.wrapping_sub(rhs.0)
    }
}

impl fmt::Display for SeqNum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Maps 32-bit wire sequence numbers to monotone 64-bit stream offsets.
///
/// Anchored at an initial sequence number that corresponds to stream
/// offset 0 (i.e. ISN+1 maps to offset 0: the SYN consumes one sequence
/// number but carries no stream byte). Unwrapping is relative to a
/// caller-maintained "expected" offset, and is exact as long as the wire
/// number lies within ±2³¹ of the expectation — true for any real TCP
/// window.
///
/// # Examples
///
/// ```
/// use simtcp::seq::{SeqNum, SeqTracker};
///
/// let t = SeqTracker::new(SeqNum(0xffff_fff0));
/// // First data byte is ISN+1.
/// assert_eq!(t.to_offset(SeqNum(0xffff_fff1), 0), 0);
/// // 0x20 bytes later we've wrapped past zero.
/// assert_eq!(t.to_offset(SeqNum(0x11), 0), 0x20);
/// assert_eq!(t.to_seq(0x20), SeqNum(0x11));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeqTracker {
    isn: SeqNum,
}

impl SeqTracker {
    /// Creates a tracker anchored at `isn` (the SYN's sequence number).
    pub fn new(isn: SeqNum) -> SeqTracker {
        SeqTracker { isn }
    }

    /// The initial sequence number this tracker is anchored at.
    pub fn isn(&self) -> SeqNum {
        self.isn
    }

    /// The wire sequence number of stream offset `off`.
    pub fn to_seq(&self, off: u64) -> SeqNum {
        self.isn + 1 + (off as u32)
    }

    /// The stream offset of wire number `seq`, unwrapped near
    /// `expected_off`.
    pub fn to_offset(&self, seq: SeqNum, expected_off: u64) -> i64 {
        let expected_seq = self.to_seq(expected_off);
        let delta = seq.diff(expected_seq) as i64;
        expected_off as i64 + delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_comparisons() {
        let a = SeqNum(100);
        let b = SeqNum(200);
        assert!(a.lt(b));
        assert!(a.le(b));
        assert!(!b.le(a));
        assert!(b.ge(a));
        assert!(a.le(a));
        assert!(a.ge(a));
        assert!(!a.lt(a));
    }

    #[test]
    fn comparisons_across_wrap() {
        let a = SeqNum(0xffff_ff00);
        let b = SeqNum(0x0000_0100);
        assert!(a.lt(b), "b is 512 ahead of a across the wrap");
        assert!(!b.le(a));
        assert_eq!(b - a, 512);
        assert_eq!(a + 512, b);
        assert_eq!(b - 512, a);
    }

    #[test]
    fn diff_signs() {
        assert_eq!(SeqNum(10).diff(SeqNum(4)), 6);
        assert_eq!(SeqNum(4).diff(SeqNum(10)), -6);
        assert_eq!(SeqNum(0).diff(SeqNum(0xffff_ffff)), 1);
    }

    #[test]
    fn window_membership() {
        let start = SeqNum(0xffff_fffe);
        assert!(start.in_window(start, 1));
        assert!((start + 3).in_window(start, 10), "wrapping window");
        assert!(!(start + 10).in_window(start, 10), "end exclusive");
        assert!(!(start - 1).in_window(start, 10), "before start");
        assert!(!start.in_window(start, 0), "empty window");
    }

    #[test]
    fn tracker_roundtrip() {
        let t = SeqTracker::new(SeqNum(1000));
        for off in [0u64, 1, 100, 0xffff_ffff, 0x1_0000_0000, 0x2_5000_0123] {
            let seq = t.to_seq(off);
            // Unwrap near the true offset.
            assert_eq!(t.to_offset(seq, off), off as i64);
            // And near slightly-off expectations.
            assert_eq!(t.to_offset(seq, off + 1000), off as i64);
            assert_eq!(t.to_offset(seq, off.saturating_sub(1000)), off as i64);
        }
    }

    #[test]
    fn tracker_negative_offsets_for_old_segments() {
        let t = SeqTracker::new(SeqNum(1000));
        // A retransmission of already-consumed data: seq below expectation.
        let old_seq = t.to_seq(50);
        assert_eq!(t.to_offset(old_seq, 500), 50);
        // Data from "before the beginning" (the SYN itself).
        assert_eq!(t.to_offset(SeqNum(1000), 0), -1);
    }

    #[test]
    fn display() {
        assert_eq!(SeqNum(42).to_string(), "42");
    }
}
