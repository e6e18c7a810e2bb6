//! Regenerates **Demo 3**: insignificant overhead during failure-free
//! operation.
//!
//! Transfers a large file (100 MB by default, pass a byte count to
//! override) with ST-TCP enabled (primary + active backup, heartbeats,
//! hold buffer) and disabled (plain TCP server), and compares completion
//! times and frame counts.
//!
//! Run with: `cargo run -p sttcp-bench --bin demo3_overhead --release [bytes]`

use sttcp_bench::experiments::run_overhead;
use sttcp_bench::report::{pct, Table};

fn main() {
    let total: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(100 * 1024 * 1024);

    println!(
        "Demo 3 — failure-free overhead ({:.1} MB transfer)\n",
        total as f64 / 1e6
    );
    let r = run_overhead(3, total);

    let mut t = Table::new(vec!["metric", "ST-TCP enabled", "ST-TCP disabled"]);
    t.row(vec![
        "virtual transfer time".to_string(),
        r.sttcp_time.to_string(),
        r.plain_time.to_string(),
    ]);
    t.row(vec![
        "frames delivered to client".to_string(),
        r.sttcp_client_frames.to_string(),
        r.plain_client_frames.to_string(),
    ]);
    t.row(vec![
        "serial heartbeat bytes".to_string(),
        r.hb_serial_bytes.to_string(),
        "-".to_string(),
    ]);
    println!("{t}");
    println!("relative time overhead: {}", pct(r.overhead));
    println!(
        "\nthe protocol-level overhead is {}; per-segment CPU overhead is\n\
         measured separately by `benchmark/run.sh` (`bulk_download` vs `plain.*`).",
        if r.overhead.abs() < 0.02 {
            "negligible, matching the paper"
        } else {
            "larger than expected — investigate"
        }
    );
}
