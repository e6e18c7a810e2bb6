//! Demo 1 as an example: the "pie chart" progress view.
//!
//! Streams a file to the client while the primary is crashed mid-way, and
//! renders the client's progress series as an ASCII timeline — the
//! headless equivalent of the paper's GUI pie chart. A second run shows
//! the plain-TCP baseline, where the same crash forces the client to time
//! out, reconnect to a standby, and start over.
//!
//! Run with: `cargo run --example file_transfer_failover`

use std::rc::Rc;

use simnet::time::{SimDuration, SimTime};
use sttcp_apps::apps::StreamApp;
use sttcp_apps::client::{ClientLog, ClientWorkload, ReconnectPolicy};
use sttcp_apps::scenario::{build_baseline, ScenarioBuilder};

const TOTAL: u64 = 2 * 1024 * 1024;
const CRASH_AT_MS: u64 = 1_500;

/// Renders progress as one row per 500 ms: percentage plus a bar.
fn render(log: &ClientLog, until: SimTime) {
    let mut samples = log.progress.iter().peekable();
    let mut pos = 0u64;
    let mut t = SimTime::ZERO;
    while t <= until {
        while let Some(&&(st, p)) = samples.peek() {
            if st <= t {
                pos = p;
                samples.next();
            } else {
                break;
            }
        }
        let pct = pos * 100 / TOTAL;
        let bar = "#".repeat((pct / 4) as usize);
        println!("  t={:>6}ms {:>3}% |{:<25}|", t.as_millis(), pct, bar);
        t += SimDuration::from_millis(500);
    }
}

fn main() {
    let app = || Rc::new(|| Box::new(StreamApp::new(8 * 1024, false)) as _);

    println!("=== ST-TCP: primary crashes at t={CRASH_AT_MS}ms ===");
    let mut s = ScenarioBuilder::new(app(), ClientWorkload::Download { total: TOTAL })
        .seed(1)
        .build();
    s.crash_primary_at(SimTime::from_millis(CRASH_AT_MS));
    s.world.run_until(SimTime::from_secs(30));
    let st_log = s.client_log().clone();
    render(
        &st_log,
        st_log.finished_at.unwrap_or(SimTime::from_secs(12)),
    );
    println!(
        "  -> finished={} connects={} resets={} worst stall={}\n",
        s.client_finished(),
        st_log.connects.len(),
        st_log.resets,
        st_log.longest_stall(
            SimTime::from_millis(CRASH_AT_MS - 100),
            st_log.finished_at.unwrap()
        )
    );

    println!("=== plain TCP + hot standby: same crash ===");
    let policy = ReconnectPolicy {
        stall_timeout: SimDuration::from_secs(3),
        targets: vec![("10.0.0.4".parse().unwrap(), 80)],
        reconnect_delay: SimDuration::from_millis(200),
    };
    let mut b = build_baseline(
        1,
        app(),
        ClientWorkload::Download { total: TOTAL },
        simtcp::conn::TcpConfig::default(),
        Some(policy),
    );
    b.crash_primary_at(SimTime::from_millis(CRASH_AT_MS));
    b.world.run_until(SimTime::from_secs(60));
    let base_log = b.client_log().clone();
    render(
        &base_log,
        base_log.finished_at.unwrap_or(SimTime::from_secs(20)),
    );
    println!(
        "  -> finished={} connects={} reconnects={} worst stall={}",
        b.client_finished(),
        base_log.connects.len(),
        base_log.reconnects,
        base_log.longest_stall(
            SimTime::from_millis(CRASH_AT_MS - 100),
            base_log.finished_at.unwrap_or(SimTime::from_secs(60))
        )
    );
    println!("\nnote how the baseline restarts from 0% after the stall-out,");
    println!("while ST-TCP's progress only pauses for the detection window.");
}
