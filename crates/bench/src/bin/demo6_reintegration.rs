//! Regenerates **Demo 6**: backup re-integration after failover.
//!
//! Streams a 4 MiB download, crashes the primary mid-transfer, lets the
//! backup take over, then warm-reboots the crashed machine, which
//! rejoins as every rebooted server does: it requests per-connection state
//! snapshots over the heartbeat links, replays them into a suppressed
//! replica, and rejoins lockstep on the *live* connection. With
//! redundancy restored, the demo crashes the surviving server too — the
//! re-integrated node must detect the failure, fence, take over, and
//! finish the verified transfer on the same client connection.
//!
//! Run with: `cargo run -p sttcp-bench --bin demo6_reintegration --release`
//!
//! `--json <path>` additionally writes the run's full `MetricsReport`
//! (simnet/tcp/core/client sections, milestones, and the phase timeline
//! of both failovers, including the new `reintegration` phase) to `path`.

use std::path::PathBuf;
use std::process::exit;
use std::rc::Rc;

use obs::json::Json;
use simnet::time::{SimDuration, SimTime};
use sttcp::events::StTcpEvent;
use sttcp_apps::apps::StreamApp;
use sttcp_apps::client::ClientWorkload;
use sttcp_apps::scenario::ScenarioBuilder;
use sttcp_bench::experiments::scenario_report;
use sttcp_bench::phases::failover_timeline;
use sttcp_bench::report::{render_series, Table};

fn parse_args() -> Option<PathBuf> {
    let mut json = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => match args.next() {
                Some(p) => json = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--json requires a path");
                    exit(2);
                }
            },
            "--help" | "-h" => {
                eprintln!("usage: demo6_reintegration [--json <path>]");
                exit(0);
            }
            other => {
                eprintln!("unknown argument: {other}");
                exit(2);
            }
        }
    }
    json
}

fn t(ms: u64) -> SimTime {
    SimTime::from_millis(ms)
}

fn event_at(events: &[StTcpEvent], f: impl Fn(&StTcpEvent) -> Option<SimTime>) -> Option<SimTime> {
    events.iter().find_map(f)
}

fn main() {
    const TOTAL: u64 = 4 * 1024 * 1024;
    const CRASH1_MS: u64 = 1_000;
    const REBOOT_MS: u64 = 2_500;
    const CRASH2_MS: u64 = 5_000;
    let json_path = parse_args();

    println!("Demo 6 — backup re-integration after failover\n");
    println!(
        "schedule: crash primary @{CRASH1_MS}ms, warm-reboot it @{REBOOT_MS}ms, \
         crash backup @{CRASH2_MS}ms"
    );

    let mut s = ScenarioBuilder::new(
        Rc::new(|| Box::new(StreamApp::new(4096, false)) as _),
        ClientWorkload::Download { total: TOTAL },
    )
    .seed(6)
    .build();
    s.crash_primary_at(t(CRASH1_MS));
    let rebooted = s.primary;
    s.world.schedule(t(REBOOT_MS), move |w| {
        if !w.is_powered(rebooted) {
            w.restore_node(rebooted);
        }
    });
    s.crash_backup_at(t(CRASH2_MS));

    // Pause just before the second crash: at this point the pair must be
    // fault-tolerant again, with both replicas in digest lockstep on the
    // live connection — the property the snapshot protocol exists for.
    s.world
        .run_until(t(CRASH2_MS) - SimDuration::from_micros(1));
    let rejoined_at = s
        .server(s.primary)
        .reintegrated_at()
        .expect("rebooted primary never completed re-integration");
    let key = s.first_conn_key();
    let digest_rejoined = s.server(s.primary).app_digest(key);
    let digest_active = s.server(s.backup).app_digest(key);
    assert!(
        digest_rejoined.is_some() && digest_rejoined == digest_active,
        "replica digests diverged after re-integration: {digest_rejoined:?} vs {digest_active:?}"
    );
    println!(
        "\nat t={CRASH2_MS}ms (before the second crash): redundancy restored at {rejoined_at}, \
         app digests in lockstep ({:#018x})",
        digest_rejoined.unwrap()
    );

    let horizon = t(60_000);
    let step = SimDuration::from_millis(500);
    while !s.client_finished() && s.world.now() < horizon {
        let next = s.world.now() + step;
        s.world.run_until(next.min(horizon));
    }

    let log = s.client_log().clone();
    assert!(
        s.client_finished(),
        "client did not finish: {} / {TOTAL} bytes",
        log.total_received
    );
    assert_eq!(log.integrity_violations, 0, "stream integrity violated");
    let end = log.finished_at.unwrap_or(s.world.now());

    // The first failover is the backup's story, the second the rebooted
    // primary's; re-integration milestones live on the joiner's log.
    let backup_events = s.server(s.backup).events().to_vec();
    let primary_events = s.server(s.primary).events().to_vec();
    let verdict1 = event_at(&backup_events, |e| match e {
        StTcpEvent::PeerDeclaredFailed { at, .. } => Some(*at),
        _ => None,
    });
    let takeover1 = event_at(&backup_events, |e| match e {
        StTcpEvent::TookOver { at } => Some(*at),
        _ => None,
    });
    let join_started = event_at(&primary_events, |e| match e {
        StTcpEvent::ReintegrationStarted { at } => Some(*at),
        _ => None,
    });
    let verdict2 = event_at(&primary_events, |e| match e {
        StTcpEvent::PeerDeclaredFailed { at, .. } => Some(*at),
        _ => None,
    });
    let takeover2 = event_at(&primary_events, |e| match e {
        StTcpEvent::TookOver { at } => Some(*at),
        _ => None,
    });
    assert!(
        takeover2.is_some_and(|at| at > rejoined_at),
        "the re-integrated primary must perform the second takeover"
    );

    println!("\nclient progress (x: time, y: bytes; both servers crashed once):\n");
    print!(
        "{}",
        render_series(
            &log.progress
                .iter()
                .map(|&(at, b)| (at.as_micros() as f64 / 1_000.0, b as f64))
                .collect::<Vec<_>>(),
            72,
            12,
        )
    );

    let fmt = |at: Option<SimTime>| at.map(|a| a.to_string()).unwrap_or_default();
    let mut mt = Table::new(vec!["milestone", "time"]);
    mt.row(vec!["primary crashed".into(), t(CRASH1_MS).to_string()]);
    mt.row(vec!["backup verdict".into(), fmt(verdict1)]);
    mt.row(vec!["backup takeover".into(), fmt(takeover1)]);
    mt.row(vec!["primary warm reboot".into(), t(REBOOT_MS).to_string()]);
    mt.row(vec!["re-integration started".into(), fmt(join_started)]);
    mt.row(vec!["redundancy restored".into(), rejoined_at.to_string()]);
    mt.row(vec!["backup crashed".into(), t(CRASH2_MS).to_string()]);
    mt.row(vec!["primary verdict".into(), fmt(verdict2)]);
    mt.row(vec!["primary takeover".into(), fmt(takeover2)]);
    mt.row(vec!["transfer complete".into(), end.to_string()]);
    println!("\n{mt}");

    let join_duration = join_started.map(|from| rejoined_at.saturating_since(from));
    println!(
        "re-integration took {} from reboot to lockstep; the client saw none of it.",
        join_duration
            .map(|d| d.to_string())
            .unwrap_or_else(|| "?".into())
    );

    // Phase timelines for both failovers, each anchored to the client
    // stall it caused. The second one is served by the re-integrated
    // node — proof the snapshot protocol rebuilt a working backup.
    let mut phase_json = Vec::new();
    for (label, crash_ms, events) in [
        (
            "first failover (backup takes over)",
            CRASH1_MS,
            &backup_events,
        ),
        (
            "second failover (re-integrated primary takes over)",
            CRASH2_MS,
            &primary_events,
        ),
    ] {
        let from = t(crash_ms) - SimDuration::from_millis(100);
        let to = t(crash_ms + 10_000).min(end);
        let Some((ws, we)) = log.longest_stall_window(from, to) else {
            continue;
        };
        // Only marks from this failover: a later milestone (e.g. the
        // re-integration that follows the first takeover) would clamp to
        // the window end and misattribute the stall tail.
        let in_window: Vec<StTcpEvent> = events.iter().filter(|e| e.at() <= we).cloned().collect();
        let Some(b) = failover_timeline(ws, we, Some(t(crash_ms)), &in_window).breakdown() else {
            continue;
        };
        println!("{label} — phase breakdown (stall {}):\n", b.total);
        let mut pt = Table::new(vec!["phase", "duration"]);
        for (p, d) in obs::timeline::Phase::ALL.iter().zip(b.durations.iter()) {
            pt.row(vec![p.name().to_string(), d.to_string()]);
        }
        println!("{pt}");
        phase_json.push((label, b));
    }

    if let Some(path) = json_path {
        let mut report = scenario_report("demo6_reintegration", &s);
        let mut config = Json::obj();
        config.set("seed", Json::U64(6));
        config.set("total_bytes", Json::U64(TOTAL));
        config.set("crash_primary_us", Json::U64(t(CRASH1_MS).as_micros()));
        config.set("reboot_primary_us", Json::U64(t(REBOOT_MS).as_micros()));
        config.set("crash_backup_us", Json::U64(t(CRASH2_MS).as_micros()));
        report.set("config", config);

        let mut ms = Json::obj();
        let set_at = |o: &mut Json, k: &str, at: Option<SimTime>| {
            if let Some(at) = at {
                o.set(k, Json::U64(at.as_micros()));
            }
        };
        set_at(&mut ms, "backup_verdict_us", verdict1);
        set_at(&mut ms, "backup_takeover_us", takeover1);
        set_at(&mut ms, "reintegration_started_us", join_started);
        ms.set("redundancy_restored_us", Json::U64(rejoined_at.as_micros()));
        if let Some(d) = join_duration {
            ms.set("reintegration_us", Json::U64(d.as_micros()));
        }
        set_at(&mut ms, "primary_verdict_us", verdict2);
        set_at(&mut ms, "primary_takeover_us", takeover2);
        ms.set("finished_us", Json::U64(end.as_micros()));
        report.set("milestones", ms);

        let mut client = Json::obj();
        client.set("bytes_received", Json::U64(log.total_received));
        client.set("integrity_violations", Json::U64(log.integrity_violations));
        client.set("resets", Json::U64(u64::from(log.resets)));
        client.set(
            "transparent",
            Json::Bool(log.connects.len() == 1 && log.resets == 0),
        );
        report.set("client", client);

        let mut phases = Json::obj();
        for (i, (_, b)) in phase_json.iter().enumerate() {
            phases.set(
                if i == 0 {
                    "first_failover"
                } else {
                    "second_failover"
                },
                b.to_json(),
            );
        }
        report.set("phases", phases);

        if let Err(e) = report.write_to(&path) {
            eprintln!("failed to write {}: {e}", path.display());
            exit(1);
        }
        println!("metrics report written to {}", path.display());
    }

    println!(
        "\nthe pair survived two failures: a crash, a rebuilt backup joined on the live\n\
         connection, and a second crash — one client connection, zero integrity violations."
    );
}
