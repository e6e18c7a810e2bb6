//! Regenerates **Demo 5**: NIC failures.
//!
//! Part 1 fails the primary's NIC, part 2 the backup's; each part runs
//! with a chatty client (byte/ack-lag detection over the serial
//! heartbeat) and with a silent client (gateway-ping detection).
//!
//! Run with: `cargo run -p sttcp-bench --bin demo5_nic_failure --release`

use simnet::time::{SimDuration, SimTime};
use sttcp::config::StTcpConfig;
use sttcp_apps::client::ClientWorkload;
use sttcp_bench::experiments::{chat, victim_and_detector, Recovery, Trial};
use sttcp_bench::report::Table;

fn main() {
    println!("Demo 5 — NIC failure detection and recovery\n");
    let mut t = Table::new(vec![
        "failed NIC",
        "client traffic",
        "symptom",
        "recovery",
        "detect",
        "client stream",
    ]);
    for (i, (fail_primary, quiet)) in [(true, false), (true, true), (false, false), (false, true)]
        .iter()
        .enumerate()
    {
        let workload = if *quiet {
            ClientWorkload::Idle
        } else {
            chat(300)
        };
        let sttcp = StTcpConfig {
            app_max_lag_time: SimDuration::from_secs(1),
            ..Default::default()
        };
        let run = Trial {
            at: SimTime::from_secs(3),
            horizon: SimTime::from_secs(60),
            ..Trial::echo(50 + i as u64, sttcp, workload)
        }
        .run(|s, at| s.fail_nic_at(victim_and_detector(s, *fail_primary).0, at));
        let detector = victim_and_detector(&run.s, *fail_primary).1;
        let (symptom, det) = run
            .verdict(detector)
            .map_or(("none".into(), SimDuration::ZERO), |(r, d)| {
                (r.to_string(), d)
            });
        let recovery = match run.recovery() {
            Recovery::Takeover => "backup took over",
            _ => "primary non-FT",
        };
        let stream = if *quiet {
            "idle"
        } else if run.client_intact() {
            "intact"
        } else {
            "DISRUPTED"
        };
        t.row(vec![
            if *fail_primary { "primary" } else { "backup" }.to_string(),
            if *quiet {
                "silent (ping path)"
            } else {
                "chatty (lag path)"
            }
            .to_string(),
            symptom,
            recovery.to_string(),
            det.to_string(),
            stream.to_string(),
        ]);
    }
    println!("{t}");
    println!(
        "the serial heartbeat keeps the servers talking through the IP outage;\n\
         lag comparison handles chatty clients and the gateway-ping exchange\n\
         assigns blame when the client is silent — per paper §4.3."
    );
}
