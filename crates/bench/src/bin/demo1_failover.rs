//! Regenerates **Demo 1**: client-transparent, seamless failover.
//!
//! Streams a 4 MiB "pie chart" feed to the client, crashes the primary at
//! half-way, and renders the client's progress curve. A second run shows
//! the paper's contrast: plain TCP with a hot standby, where the client
//! must time out, reconnect, and restart.
//!
//! Run with: `cargo run -p sttcp-bench --bin demo1_failover --release`
//!
//! `--json <path>` additionally writes the run's full `MetricsReport`
//! (simnet/tcp/core/client/phases sections) to `path`.

use std::process::exit;

use simnet::time::SimDuration;
use sttcp_bench::cli::parse_cli;
use sttcp_bench::experiments::{run_baseline_failover, run_failover};
use sttcp_bench::flight::{dumps_to_json, flight_dir_for, write_flight_dump};
use sttcp_bench::report::{render_series, Table};

fn main() {
    const TOTAL: u64 = 4 * 1024 * 1024;
    const CRASH_MS: u64 = 4_000;
    let json_path = parse_cli("usage: demo1_failover [--json <path>]").json;

    println!("Demo 1 — client-transparent seamless failover\n");
    let mut r = run_failover(1, 200, TOTAL, CRASH_MS);
    println!("ST-TCP client progress (x: time, y: bytes; primary crashed at t={CRASH_MS}ms):\n");
    print!("{}", render_series(&r.progress, 72, 12));
    println!();

    let (base_stall, base_reconnects, base_finished) =
        run_baseline_failover(1, TOTAL, CRASH_MS, SimDuration::from_secs(3));

    let mut t = Table::new(vec!["metric", "ST-TCP", "plain TCP + hot standby"]);
    t.row(vec![
        "transfer completed".to_string(),
        r.transparent.to_string(),
        base_finished.to_string(),
    ]);
    t.row(vec![
        "connections needed".to_string(),
        "1 (transparent)".to_string(),
        format!("{} (reconnect + restart)", 1 + base_reconnects),
    ]);
    t.row(vec![
        "worst client stall".to_string(),
        r.client_stall.to_string(),
        base_stall.to_string(),
    ]);
    t.row(vec![
        "failure detection".to_string(),
        r.detection.map(|d| d.to_string()).unwrap_or_default(),
        "client-side timeout".to_string(),
    ]);
    t.row(vec![
        "stream integrity violations".to_string(),
        r.violations.to_string(),
        "0 (but restarted from zero)".to_string(),
    ]);
    println!("{t}");

    if let Some(b) = &r.breakdown {
        println!("failover phase breakdown (partitions the client stall):\n");
        let mut pt = Table::new(vec!["phase", "duration"]);
        for (p, d) in obs::timeline::Phase::ALL.iter().zip(b.durations.iter()) {
            pt.row(vec![p.name().to_string(), d.to_string()]);
        }
        pt.row(vec!["total".to_string(), b.total.to_string()]);
        println!("{pt}");
        // The identity the report is built on: the phase durations sum to
        // the client-observed stall measured from the transcript.
        let sum: SimDuration = b.durations.iter().fold(SimDuration::ZERO, |a, &d| a + d);
        let tick = SimDuration::from_micros(1);
        assert!(
            sum <= r.client_stall + tick && r.client_stall <= sum + tick,
            "phase sum {sum} != client stall {}",
            r.client_stall
        );
    }

    println!(
        "the ST-TCP failover appears to the user as a {} glitch;\n\
         the baseline loses the connection outright and replays the whole transfer.",
        r.client_stall
    );

    if let Some(path) = json_path {
        // Ship the causal trace of the failover alongside the report:
        // crash → heartbeat silence → verdict → STONITH → takeover.
        match write_flight_dump(&flight_dir_for(Some(&path)), "demo1", &r.flight) {
            Ok(w) => {
                println!(
                    "\nflight dump: {} ({} events; open {} in ui.perfetto.dev)",
                    w.dump.display(),
                    w.events,
                    w.trace.display()
                );
                r.report.set("flight_dumps", dumps_to_json(&[w]));
            }
            Err(e) => eprintln!("failed to write flight dump: {e}"),
        }
        if let Err(e) = r.report.write_to(&path) {
            eprintln!("failed to write {}: {e}", path.display());
            exit(1);
        }
        println!("\nmetrics report written to {}", path.display());
    }
}
