//! Live-heap census of the scale ramp, by call site: which allocations a
//! (client host, connection) still holds once it is established and
//! idle. The tool behind DESIGN §16's tables.
//!
//! Every block allocated while the census is on is keyed by its size and
//! the first four frames of its backtrace that are not `std` / `core` /
//! `alloc`; freed blocks leave. Two phases are reported per connection:
//! what `scale_scenario(N)` builds, and what running it through its ramp
//! adds. A backtrace is taken per allocation: the default 2 000 takes two
//! seconds, the benchmark's 20 000 about twenty. Fixed world costs show
//! up as rows of a few bytes per connection.
//!
//! Run with: `cargo run --release -p sttcp-bench --example heap_census -- [N]`

use std::alloc::{GlobalAlloc, Layout, System};
use std::backtrace::Backtrace;
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};

use sttcp_bench::experiments::{scale_ramp_end, scale_scenario};

thread_local! {
    /// Set while the census is off or is itself allocating.
    static BUSY: Cell<bool> = const { Cell::new(true) };
    /// Live blocks: address → (size, call site).
    static LIVE: RefCell<Option<HashMap<usize, (usize, String)>>> = const { RefCell::new(None) };
}

struct Census;

/// The first four frames that belong to this repository.
fn call_site() -> String {
    let trace = Backtrace::force_capture().to_string();
    let frames = trace.lines().filter_map(|l| {
        let name = l.trim_start().split_once(": ")?;
        name.0.parse::<u32>().ok()?;
        let name = name
            .1
            .rsplit_once("::h")
            .map_or(name.1, |(path, _hash)| path);
        let foreign = [
            "std::",
            "core::",
            "alloc::",
            "hashbrown::",
            "__r",
            "heap_census::",
        ];
        let path = name.trim_start_matches('<');
        (!foreign.iter().any(|f| path.starts_with(f))).then_some(name)
    });
    frames.take(4).collect::<Vec<_>>().join(" < ")
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract (`realloc` is the default:
// `alloc`, copy, `dealloc`). The bookkeeping runs only with `BUSY` set,
// so what it allocates itself is never recorded and never re-enters.
unsafe impl GlobalAlloc for Census {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are passed through.
        let ptr = unsafe { System.alloc(layout) };
        if !BUSY.replace(true) {
            let entry = (layout.size(), call_site());
            LIVE.with_borrow_mut(|live| live.get_or_insert_default().insert(ptr as usize, entry));
            BUSY.set(false);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if !BUSY.replace(true) {
            LIVE.with_borrow_mut(|live| live.as_mut().and_then(|l| l.remove(&(ptr as usize))));
            BUSY.set(false);
        }
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Census = Census;

/// Prints what is live by (size, call site), per connection, and forgets
/// it so the next phase starts from nothing.
fn report(phase: &str, conns: u64) {
    BUSY.set(true);
    let live = LIVE.take().unwrap_or_default();
    let mut rows: BTreeMap<(usize, String), u64> = BTreeMap::new();
    for (size, site) in live.into_values() {
        *rows.entry((size, site)).or_default() += 1;
    }
    let mut rows: Vec<_> = rows.into_iter().collect();
    rows.sort_by_key(|((size, _), blocks)| std::cmp::Reverse(*size as u64 * blocks));
    let (bytes, blocks) = rows.iter().fold((0, 0), |(by, bl), ((size, _), n)| {
        (by + *size as u64 * n, bl + n)
    });
    let per = |x: u64| x as f64 / conns as f64;
    println!(
        "== {phase}: {:.0} B and {:.1} blocks per connection",
        per(bytes),
        per(blocks)
    );
    println!("{:>9} {:>8} {:>7}  call site", "B/conn", "blk/conn", "size");
    for ((size, site), n) in rows
        .iter()
        .filter(|((size, _), n)| per(*size as u64 * n) >= 1.0)
    {
        println!(
            "{:>9.1} {:>8.2} {size:>7}  {site}",
            per(*size as u64 * n),
            per(*n)
        );
    }
    BUSY.set(false);
}

fn main() {
    let conns = std::env::args()
        .nth(1)
        .map_or(2_000, |n| n.parse().expect("N: a connection count"));
    BUSY.set(false);
    let mut s = scale_scenario(conns, 1);
    report("build", conns);
    s.world.run_until(scale_ramp_end(conns));
    report("ramp", conns);
    BUSY.set(true);
    assert_eq!(s.server(s.primary).conn_keys().len() as u64, conns);
}
