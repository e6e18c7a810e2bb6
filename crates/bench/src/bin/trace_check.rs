//! Flight-recorder dump validation: check schema-versioned dumps (and
//! their Chrome trace-event exports) on disk, or run the built-in
//! self-test that exercises the whole capture → dump → validate →
//! round-trip pipeline on a seeded chaos case.
//!
//! Run with: `cargo run -p sttcp-bench --bin trace_check -- --selftest`
//! or `cargo run -p sttcp-bench --bin trace_check -- DUMP...`
//!
//! * `--selftest`  run a seeded crash case with the flight recorder
//!   forced on, write the dump pair to a temp directory, and verify:
//!   schema validation, parse round-trip, causal linkage
//!   (fault → heartbeat → verdict → stonith → takeover), and that a
//!   replay produces a byte-identical dump.
//! * `DUMP...`     validate files: `*.flight.json` against the flight
//!   schema, `*.trace.json` as parseable Chrome trace JSON.
//!
//! Exit status is 1 on any validation failure.

use std::path::Path;
use std::process::ExitCode;

use obs::flightdump::{from_json, snapshot_to_json, validate};
use obs::json::Json;
use simnet::flight::FlightKind;
use sttcp_apps::chaos::{run_chaos_case, ChaosOptions, FaultSchedule};
use sttcp_apps::scenario::Topology;
use sttcp_bench::flight::write_flight_dump;

fn validate_file(path: &Path) -> Result<String, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("{}: read: {e}", path.display()))?;
    let json =
        Json::parse(&text).map_err(|e| format!("{}: not valid JSON: {e}", path.display()))?;
    if path.to_string_lossy().ends_with(".trace.json") {
        // Chrome trace-event export: parseable and shaped like one.
        match json.get("traceEvents") {
            Some(Json::Arr(evs)) => Ok(format!(
                "{}: ok ({} trace records)",
                path.display(),
                evs.len()
            )),
            _ => Err(format!("{}: no traceEvents array", path.display())),
        }
    } else {
        validate(&json).map_err(|e| format!("{}: {e}", path.display()))?;
        let (events, hosts) =
            from_json(&json).map_err(|e| format!("{}: round-trip: {e}", path.display()))?;
        Ok(format!(
            "{}: ok ({} events across {} hosts)",
            path.display(),
            events.len(),
            hosts.len()
        ))
    }
}

fn selftest() -> Result<(), String> {
    // A crash with the recorder forced on: the tail holds the whole
    // fault → detection → takeover story even though no invariant is
    // violated.
    let schedule: FaultSchedule = "@1000 crash primary"
        .parse()
        .map_err(|e| format!("schedule: {e}"))?;
    let opts = ChaosOptions {
        flight_always: true,
        ..ChaosOptions::quick()
    };
    let report = run_chaos_case(Topology::Pair, 7, &schedule, &opts);
    let snap = report
        .flight
        .as_ref()
        .ok_or("flight_always run produced no snapshot")?;
    if snap.events.is_empty() {
        return Err("flight snapshot is empty".into());
    }

    // Schema + round-trip.
    let dump = snapshot_to_json(snap);
    validate(&dump).map_err(|e| format!("validate: {e}"))?;
    let (events, hosts) = from_json(&dump).map_err(|e| format!("from_json: {e}"))?;
    if events != snap.events || hosts != snap.hosts {
        return Err("round-trip did not reproduce the snapshot".into());
    }

    // Causal linkage: a fault was recorded, and the backup's verdict is
    // parented to the span of a heartbeat it received — the chain a
    // post-mortem walks from symptom back to cause.
    if !snap
        .events
        .iter()
        .any(|e| matches!(e.kind, FlightKind::Fault { .. }))
    {
        return Err("no fault event in the tail".into());
    }
    let verdict = snap
        .events
        .iter()
        .find(|e| matches!(e.kind, FlightKind::Verdict { .. }))
        .ok_or("no verdict event in the tail")?;
    let linked = snap
        .events
        .iter()
        .any(|e| matches!(e.kind, FlightKind::HbRecv { .. }) && e.span == verdict.parent);
    if !linked {
        return Err("verdict is not parented to a received heartbeat span".into());
    }
    if !snap
        .events
        .iter()
        .any(|e| matches!(e.kind, FlightKind::Takeover { .. }) && e.parent == verdict.parent)
    {
        return Err("takeover does not join the verdict's causal chain".into());
    }

    // Determinism: an identical replay dumps identical bytes.
    let replay = run_chaos_case(Topology::Pair, 7, &schedule, &opts);
    let again = replay.flight.ok_or("replay produced no snapshot")?;
    if snapshot_to_json(&again).to_string() != dump.to_string() {
        return Err("replay dump is not byte-identical".into());
    }

    // Disk round-trip through the CLI writer.
    let dir = std::env::temp_dir().join("trace_check_selftest");
    let w = write_flight_dump(&dir, "selftest", snap).map_err(|e| format!("write: {e}"))?;
    let msg = validate_file(&w.dump)?;
    println!("{msg}");
    let msg = validate_file(&w.trace)?;
    println!("{msg}");
    let _ = std::fs::remove_dir_all(&dir);

    println!(
        "selftest ok: {} events, verdict causally linked fault -> heartbeat -> takeover, \
         replay byte-identical",
        snap.events.len()
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("usage: trace_check --selftest | trace_check DUMP...");
        return ExitCode::from(2);
    }
    if args.iter().any(|a| a == "--selftest") {
        return match selftest() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("selftest FAILED: {e}");
                ExitCode::from(1)
            }
        };
    }
    let mut failed = false;
    for a in &args {
        match validate_file(Path::new(a)) {
            Ok(msg) => println!("{msg}"),
            Err(e) => {
                eprintln!("INVALID: {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
