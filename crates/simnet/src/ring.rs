//! The bounded ring behind the flight recorder
//! ([`crate::flight::FlightRecorder`]): an append-only log that keeps
//! the *newest* records and counts what it evicted. A ring starts with
//! no storage and grows (by doubling) with what it actually holds; a
//! push at capacity pops the oldest record before appending, so the
//! backing buffer stops growing once it holds its bound and a full
//! ring's push never allocates. A world of mostly idle hosts therefore
//! pays for the events recorded, not for `hosts × bound`.

use std::collections::VecDeque;

/// A bounded append-only ring that keeps the newest items and counts
/// evictions.
#[derive(Debug, Clone)]
pub struct Ring<T> {
    items: VecDeque<T>,
    /// Maximum items kept.
    capacity: usize,
    /// Items evicted to honour the capacity.
    dropped: u64,
}

impl<T> Ring<T> {
    /// Creates an empty ring bounded to `capacity` items. Nothing is
    /// reserved: storage grows with the contents, up to the bound.
    pub fn bounded(capacity: usize) -> Ring<T> {
        Ring {
            items: VecDeque::new(),
            capacity,
            dropped: 0,
        }
    }

    /// Changes the bound; excess oldest items are evicted immediately
    /// and storage beyond the new bound is released.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
        while self.items.len() > capacity {
            self.items.pop_front();
            self.dropped += 1;
        }
        self.items.shrink_to(capacity);
    }

    /// Items evicted so far to honour the bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Appends an item, evicting the oldest first when at capacity.
    /// A ring holding its bound performs no allocation here.
    pub fn push(&mut self, item: T) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.items.len() == self.capacity {
            self.items.pop_front();
            self.dropped += 1;
        }
        self.items.push_back(item);
    }

    /// The retained items, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        self.items.iter()
    }

    /// Number of retained items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if no items are retained.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Discards every retained item (the eviction counter is kept).
    pub fn clear(&mut self) {
        self.items.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraparound_at_capacity_keeps_newest_and_counts() {
        let mut r = Ring::bounded(3);
        for i in 0..10u32 {
            r.push(i);
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 7);
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), vec![7, 8, 9]);
    }

    #[test]
    fn empty_bounded_ring_holds_no_storage() {
        let r: Ring<u64> = Ring::bounded(1024);
        assert_eq!(r.items.capacity(), 0);
        let mut r: Ring<u64> = Ring::bounded(4);
        r.set_capacity(1024);
        assert_eq!(r.items.capacity(), 0, "set_capacity reserved");
    }

    #[test]
    fn bounded_ring_never_grows_its_buffer() {
        // Past its bound, that is: storage follows the contents up to the
        // bound (rounded up by the deque's doubling) and stops there.
        for bound in [8usize, 100, 1024] {
            let mut r = Ring::bounded(bound);
            for i in 0..10 * bound {
                r.push(i);
                assert!(
                    r.items.capacity() <= bound.next_power_of_two(),
                    "bound {bound}: storage for {} items after {i} pushes",
                    r.items.capacity()
                );
            }
            let full = r.items.capacity();
            r.push(0);
            assert_eq!(r.items.capacity(), full, "push reallocated at capacity");
            assert_eq!(r.len(), bound);
            assert_eq!(r.dropped(), 9 * bound as u64 + 1);
        }
    }

    #[test]
    fn lowering_the_bound_releases_the_old_buffer() {
        let mut r = Ring::bounded(1024);
        for i in 0..1024u32 {
            r.push(i);
        }
        r.set_capacity(64);
        assert!(r.items.capacity() <= 64, "kept {}", r.items.capacity());
        assert_eq!(r.dropped(), 960);
        assert_eq!(r.iter().copied().next(), Some(960));
        assert_eq!(r.len(), 64);
    }

    #[test]
    fn zero_capacity_drops_everything() {
        let mut r = Ring::bounded(0);
        r.push(1u32);
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 1);
    }

    #[test]
    fn clear_keeps_the_eviction_counter() {
        let mut r = Ring::bounded(2);
        for i in 0..4u32 {
            r.push(i);
        }
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 2);
    }
}
