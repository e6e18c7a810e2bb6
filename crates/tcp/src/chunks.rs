//! A span of a byte stream held as the [`Bytes`] chunks it arrived in.
//!
//! Both stream buffers keep their bytes this way instead of in a flat
//! ring: appending shares the caller's buffer, reading a range that one
//! chunk holds is a shared view of that chunk (only a range straddling
//! chunks is gathered into a copy), and discarding from the front drops
//! whole chunks and re-slices the one the cut falls in. Nothing here
//! walks individual bytes.

use bytes::Bytes;
use std::collections::VecDeque;

/// Contiguous stream offsets `[low, end)` as a queue of chunks.
#[derive(Debug, Clone)]
pub(crate) struct ChunkQueue {
    /// Non-empty chunks in stream order, each keyed by the offset of its
    /// first byte; the front key is `low` and they tile `[low, end)`.
    chunks: VecDeque<(u64, Bytes)>,
    low: u64,
    end: u64,
}

impl ChunkQueue {
    /// An empty span positioned at stream offset `at`.
    pub(crate) fn starting_at(at: u64) -> ChunkQueue {
        ChunkQueue {
            chunks: VecDeque::new(),
            low: at,
            end: at,
        }
    }

    /// The lowest retained offset.
    pub(crate) fn low(&self) -> u64 {
        self.low
    }

    /// One past the highest held offset.
    pub(crate) fn end(&self) -> u64 {
        self.end
    }

    /// Appends `chunk` at `end` (sharing it, not copying).
    pub(crate) fn push(&mut self, chunk: Bytes) {
        if chunk.is_empty() {
            return;
        }
        let start = self.end;
        self.end += chunk.len() as u64;
        self.chunks.push_back((start, chunk));
    }

    /// The `len` bytes at stream offset `off`: a shared view when one
    /// chunk holds them all, one gathered copy otherwise.
    ///
    /// # Panics
    ///
    /// Panics unless `low <= off` and `off + len <= end`.
    pub(crate) fn view(&self, off: u64, len: usize) -> Bytes {
        assert!(
            self.low <= off && off + len as u64 <= self.end,
            "range [{off}, +{len}) outside held span [{}, {})",
            self.low,
            self.end
        );
        if len == 0 {
            return Bytes::new();
        }
        let first = self.chunks.partition_point(|&(start, _)| start <= off) - 1;
        let (start, chunk) = &self.chunks[first];
        let skip = (off - start) as usize;
        if skip + len <= chunk.len() {
            return chunk.slice(skip..skip + len);
        }
        Bytes::build(len, |v| {
            v.extend_from_slice(&chunk[skip..]);
            for (_, chunk) in self.chunks.range(first + 1..) {
                let take = chunk.len().min(len - v.len());
                v.extend_from_slice(&chunk[..take]);
                if v.len() == len {
                    break;
                }
            }
        })
    }

    /// Discards everything below stream offset `upto` (clamped to the
    /// held span): whole chunks are dropped, the one `upto` falls in is
    /// re-sliced.
    pub(crate) fn discard_below(&mut self, upto: u64) {
        let upto = upto.clamp(self.low, self.end);
        while let Some((start, chunk)) = self.chunks.front_mut() {
            if *start + chunk.len() as u64 <= upto {
                self.chunks.pop_front();
                continue;
            }
            if *start < upto {
                *chunk = chunk.slice((upto - *start) as usize..);
                *start = upto;
            }
            break;
        }
        self.low = upto;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled() -> (ChunkQueue, Bytes, Bytes) {
        let a = Bytes::from(b"hello ".to_vec());
        let b = Bytes::from(b"world".to_vec());
        let mut q = ChunkQueue::starting_at(100);
        q.push(a.clone());
        q.push(Bytes::new());
        q.push(b.clone());
        (q, a, b)
    }

    #[test]
    fn view_inside_one_chunk_is_shared_and_across_chunks_is_gathered() {
        let (q, a, b) = filled();
        assert_eq!((q.low(), q.end()), (100, 111));
        let v = q.view(101, 4);
        assert_eq!(v.as_ref(), b"ello");
        assert_eq!(v.as_ptr(), a[1..].as_ptr());
        let v = q.view(106, 5);
        assert_eq!(v.as_ptr(), b.as_ptr());
        let v = q.view(104, 4);
        assert_eq!(v.as_ref(), b"o wo");
        assert!(q.view(111, 0).is_empty());
    }

    #[test]
    fn discard_drops_whole_chunks_and_reslices_the_cut_one() {
        let (mut q, _, b) = filled();
        q.discard_below(108);
        assert_eq!(q.low(), 108);
        let v = q.view(108, 3);
        assert_eq!(v.as_ref(), b"rld");
        assert_eq!(v.as_ptr(), b[2..].as_ptr());
        q.discard_below(50); // below low: no-op
        assert_eq!(q.low(), 108);
        q.discard_below(1_000); // beyond end: clamps
        assert_eq!((q.low(), q.end()), (111, 111));
        q.push(Bytes::from_static(b"!"));
        assert_eq!(q.view(111, 1).as_ref(), b"!");
    }

    #[test]
    #[should_panic(expected = "outside held span")]
    fn view_below_low_panics() {
        let (mut q, _, _) = filled();
        q.discard_below(103);
        let _ = q.view(102, 1);
    }
}
