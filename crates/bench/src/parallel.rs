//! Deterministic parallel fan-out for independent simulation runs.
//!
//! Every `World` is single-threaded and deterministic, so a sweep over
//! seeds is embarrassingly parallel: each worker owns its worlds
//! outright and only the *folding* of results has to happen in seed
//! order. [`parallel_map_indexed`] runs a closure over a work list on a
//! scoped `std::thread` pool and returns the results **in input
//! order**, which makes any order-dependent fold over them (counters,
//! histograms, violation lists) bit-identical to a sequential run — the
//! property the `--threads` determinism regression test pins. A world
//! is built inside the worker that runs it and never crosses threads:
//! `World` is not `Send`, and neither is `bytes::Bytes`, whose count is
//! non-atomic for exactly that reason (a `compile_fail` doctest on each).
//!
//! No work-stealing, no channels: workers claim indices from a shared
//! atomic cursor, accumulate `(index, result)` pairs locally, and the
//! caller reassembles the output vector after the scope joins. This
//! keeps the pool dependency-free (std only) and free of `unsafe`.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `f(index, &item)` over every item, on up to `threads` worker
/// threads, returning results in input order.
///
/// With `threads <= 1` (or a single-item list) the closure runs inline
/// on the caller's thread — no pool is spun up, so `f` may rely on
/// running sequentially in that configuration.
///
/// # Panics
///
/// Propagates a panic from `f` (the scope join panics), and panics if a
/// worker died before producing its claimed result — both indicate a
/// bug in `f`, not in the pool.
pub fn parallel_map_indexed<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, it)| f(i, it)).collect();
    }
    let workers = threads.min(items.len());
    let cursor = AtomicUsize::new(0);
    let mut collected: Vec<Vec<(usize, R)>> = Vec::with_capacity(workers);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            handles.push(scope.spawn(|| {
                let mut local: Vec<(usize, R)> = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    local.push((i, f(i, &items[i])));
                }
                local
            }));
        }
        for h in handles {
            collected.push(h.join().expect("parallel worker panicked"));
        }
    });
    let mut out: Vec<Option<R>> = Vec::with_capacity(items.len());
    out.resize_with(items.len(), || None);
    for (i, r) in collected.into_iter().flatten() {
        out[i] = Some(r);
    }
    out.into_iter()
        .map(|r| r.expect("parallel worker dropped a result"))
        .collect()
}

/// Maps `f` over a contiguous seed range `start..start + count`, in up
/// to `threads` workers, returning results in seed order.
pub fn parallel_seeds<R, F>(threads: usize, start: u64, count: u64, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(u64) -> R + Sync,
{
    let seeds: Vec<u64> = (start..start + count).collect();
    parallel_map_indexed(threads, &seeds, |_, &seed| f(seed))
}

/// The host's available parallelism, for binaries defaulting
/// `--threads` to "all cores".
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_input_order() {
        let items: Vec<u64> = (0..257).collect();
        for threads in [1, 2, 4, 7] {
            let out = parallel_map_indexed(threads, &items, |i, &x| {
                assert_eq!(i as u64, x);
                x * 3 + 1
            });
            assert_eq!(out.len(), items.len());
            for (i, r) in out.iter().enumerate() {
                assert_eq!(*r, i as u64 * 3 + 1);
            }
        }
    }

    #[test]
    fn parallel_matches_sequential_fold() {
        let seq = parallel_seeds(1, 10, 100, |s| s.wrapping_mul(0x9E37_79B9));
        let par = parallel_seeds(4, 10, 100, |s| s.wrapping_mul(0x9E37_79B9));
        assert_eq!(seq, par);
    }

    #[test]
    fn empty_and_single_item_lists() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map_indexed(4, &empty, |_, x| *x).is_empty());
        assert_eq!(parallel_map_indexed(4, &[9u32], |_, x| *x + 1), vec![10]);
    }

    #[test]
    fn more_threads_than_items() {
        let out = parallel_map_indexed(16, &[1u32, 2, 3], |_, x| x * 2);
        assert_eq!(out, vec![2, 4, 6]);
    }
}
