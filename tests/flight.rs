//! Flight-recorder integration tests: schema round-trips, causal
//! linkage of the failover chain, byte-identical dumps regardless of
//! `--threads`, ring wraparound at capacity, and the capture knobs on
//! the chaos harness.
//!
//! The recorder is always on, so every scenario here simply runs a
//! seeded failover and inspects the tail it left behind.

use std::rc::Rc;

use simnet::flight::{FlightKind, FlightSnapshot, SpanId};
use simnet::time::{SimDuration, SimTime};

use sttcp_apps::apps::StreamApp;
use sttcp_apps::chaos::{run_chaos_case, ChaosOptions, FaultSchedule};
use sttcp_apps::client::ClientWorkload;
use sttcp_apps::scenario::{AppMaker, Scenario, ScenarioBuilder, Topology::Pair};

use sttcp_bench::parallel::parallel_map_indexed;

fn t(ms: u64) -> SimTime {
    SimTime::from_millis(ms)
}

fn stream_app() -> AppMaker {
    Rc::new(|| Box::new(StreamApp::new(4096, false)) as _)
}

/// A seeded mid-transfer primary crash; the returned scenario has
/// completed failover and the recorder holds the whole causal story.
fn crashed_scenario(seed: u64) -> Scenario {
    let mut s = ScenarioBuilder::new(stream_app(), ClientWorkload::Download { total: 256 * 1024 })
        .seed(seed)
        .build();
    s.crash_primary_at(t(1_000));
    s.world.run_until(t(12_000));
    s
}

fn crash_snapshot(seed: u64) -> FlightSnapshot {
    crashed_scenario(seed).world.flight_snapshot(None)
}

#[test]
fn dump_validates_and_round_trips() {
    let snap = crash_snapshot(3);
    assert!(!snap.events.is_empty(), "recorder captured nothing");
    let dump = obs::flightdump::snapshot_to_json(&snap);
    obs::flightdump::validate(&dump).expect("dump fails its own schema");
    let (events, hosts) = obs::flightdump::from_json(&dump).expect("round-trip");
    assert_eq!(events, snap.events);
    assert_eq!(hosts, snap.hosts);
    // The serialized text reparses to the same value.
    let text = dump.to_string();
    let reparsed = obs::json::Json::parse(&text).expect("reparse");
    assert_eq!(reparsed, dump);
}

#[test]
fn failover_chain_is_causally_linked() {
    let snap = crash_snapshot(3);

    // The injected fault is in the world ring (no node attribution).
    let fault = snap
        .events
        .iter()
        .find(|e| matches!(e.kind, FlightKind::Fault { .. }))
        .expect("no fault event recorded");
    assert_eq!(fault.node, None, "fault events belong to the world ring");

    // The backup's verdict is parented to a heartbeat it received:
    // the last evidence of life before the silence that convicted.
    let verdict = snap
        .events
        .iter()
        .find(|e| matches!(e.kind, FlightKind::Verdict { .. }))
        .expect("no verdict event recorded");
    assert_ne!(verdict.span, SpanId::NONE);
    assert!(
        snap.events
            .iter()
            .any(|e| matches!(e.kind, FlightKind::HbRecv { .. }) && e.span == verdict.parent),
        "verdict parent {} is not a received heartbeat span",
        verdict.parent
    );

    // STONITH and takeover continue the verdict's span.
    let stonith = snap
        .events
        .iter()
        .find(|e| matches!(e.kind, FlightKind::Stonith { .. }))
        .expect("no stonith event recorded");
    assert_eq!(stonith.span, verdict.span);
    let takeover = snap
        .events
        .iter()
        .find(|e| matches!(e.kind, FlightKind::Takeover { .. }))
        .expect("no takeover event recorded");
    assert_eq!(takeover.span, verdict.span);
    assert_eq!(takeover.parent, verdict.parent);

    // And the story reads in order: fault, then verdict, then takeover.
    assert!(fault.seq < verdict.seq && verdict.seq < takeover.seq);
}

#[test]
fn dumps_are_byte_identical_across_thread_counts() {
    // `--threads` only parallelizes across seeds; each world is
    // single-threaded and deterministic, so the dump a seed produces
    // must not depend on how many workers ran the sweep.
    let seeds = [3u64, 4, 5, 6];
    let dump_all = |threads: usize| -> Vec<String> {
        parallel_map_indexed(threads, &seeds, |_, &seed| {
            obs::flightdump::snapshot_to_json(&crash_snapshot(seed)).to_string()
        })
    };
    let one = dump_all(1);
    let four = dump_all(4);
    assert_eq!(one, four, "dumps differ between 1 and 4 threads");
    assert!(one.iter().all(|d| !d.is_empty()));
}

#[test]
fn ring_wraparound_keeps_newest_events() {
    // Shrink the rings so a full failover overflows them, then check
    // the recorder kept the *newest* events per host and never lied
    // about order.
    const CAP: usize = 64;
    let mut s = ScenarioBuilder::new(stream_app(), ClientWorkload::Download { total: 256 * 1024 })
        .seed(3)
        .build();
    s.world.set_flight_capacity(CAP);
    s.crash_primary_at(t(1_000));
    s.world.run_until(t(12_000));
    let snap = s.world.flight_snapshot(None);

    let hosts = snap.hosts.len();
    let mut per_host = vec![0usize; hosts + 1];
    let mut last_seq = 0u64;
    let mut max_seq_overall = 0u64;
    for e in &snap.events {
        assert!(e.seq > last_seq, "snapshot seqs not strictly increasing");
        last_seq = e.seq;
        max_seq_overall = max_seq_overall.max(e.seq);
        match e.node {
            Some(n) => {
                assert!(n.0 < hosts, "node id out of host range");
                per_host[n.0 + 1] += 1;
            }
            None => per_host[0] += 1,
        }
    }
    for (i, &count) in per_host.iter().enumerate() {
        assert!(count <= CAP, "ring {i} retained {count} > capacity {CAP}");
    }
    // The run recorded far more events than the rings hold, so the
    // retained tail must be the newest slice of the stream.
    assert!(
        max_seq_overall > (snap.events.len() as u64),
        "no wraparound happened; raise traffic or lower capacity"
    );
    // The failover verdict happened late, so it must have survived.
    assert!(
        snap.events
            .iter()
            .any(|e| matches!(e.kind, FlightKind::Verdict { .. })),
        "wraparound evicted the verdict"
    );
}

#[test]
fn window_limits_snapshot_to_recent_tail() {
    let s = crashed_scenario(3);
    let full = s.world.flight_snapshot(None);
    let tail = s.world.flight_snapshot(Some(SimDuration::from_millis(50)));
    assert!(tail.events.len() < full.events.len());
    assert_eq!(tail.window_ms, Some(50));
    let newest = full.events.last().expect("full snapshot empty").time;
    let cutoff = SimDuration::from_millis(50);
    assert!(
        tail.events.iter().all(|e| e.time + cutoff >= newest),
        "windowed snapshot kept an event older than the window"
    );
}

#[test]
fn chaos_capture_is_off_on_clean_runs_and_forced_by_flight_always() {
    let schedule: FaultSchedule = "@1000 crash primary".parse().expect("schedule");
    let quiet = run_chaos_case(Pair, 7, &schedule, &ChaosOptions::quick());
    assert!(
        quiet.flight.is_none(),
        "clean run captured a flight snapshot without flight_always"
    );
    let forced = run_chaos_case(
        Pair,
        7,
        &schedule,
        &ChaosOptions {
            flight_always: true,
            ..ChaosOptions::quick()
        },
    );
    let snap = forced.flight.expect("flight_always captured nothing");
    assert!(snap
        .events
        .iter()
        .any(|e| matches!(e.kind, FlightKind::Fault { .. })));
}
