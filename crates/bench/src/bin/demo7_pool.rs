//! Regenerates **Demo 7**: the N-replica standby pool.
//!
//! Streams a 4 MiB download to a client served by a three-member pool
//! (one active, two tapping standbys on a pairwise heartbeat mesh).
//! The demo kills the active mid-transfer: the rank-1 standby may take
//! over only after a quorum of surviving members confirms the peer dead
//! (quorum-checked fencing, replacing the pair's single-shot STONITH).
//! The fenced machine then warm-reboots and re-integrates — rejoining
//! as a fresh backup under a new rank at the back of the order. Finally
//! the second active is killed too: the rank-2 standby fences it with
//! the rejoiner's vote and finishes the verified transfer on the same
//! client connection.
//!
//! Run with: `cargo run -p sttcp-bench --bin demo7_pool --release`
//!
//! `--json <path>` additionally writes the run's `MetricsReport`
//! (config, milestones, pool-strength samples, client verdicts, and the
//! per-takeover phase breakdowns) to `path`.

use std::process::exit;
use std::rc::Rc;

use obs::json::Json;
use obs::report::MetricsReport;
use simnet::time::{SimDuration, SimTime};
use sttcp::events::StTcpEvent;
use sttcp_apps::apps::StreamApp;
use sttcp_apps::client::ClientWorkload;
use sttcp_apps::scenario::ScenarioBuilder;
use sttcp_bench::cli::parse_cli;
use sttcp_bench::flight::{dumps_to_json, flight_dir_for, write_flight_dump};
use sttcp_bench::phases::failover_timeline;
use sttcp_bench::report::{render_series, Table};

fn main() {
    const REPLICAS: usize = 3;
    const TOTAL: u64 = 4 * 1024 * 1024;
    const CRASH1: SimTime = SimTime::from_millis(1_000);
    const REBOOT: SimTime = SimTime::from_millis(2_500);
    const CRASH2: SimTime = SimTime::from_millis(5_000);
    let json_path = parse_cli("usage: demo7_pool [--json <path>]").json;

    println!("Demo 7 — N-replica standby pool ({REPLICAS} members)\n");
    println!(
        "schedule: crash rank-0 (active) @{}ms, warm-reboot it @{}ms, \
         crash rank-1 (new active) @{}ms",
        CRASH1.as_millis(),
        REBOOT.as_millis(),
        CRASH2.as_millis()
    );

    let mut s = ScenarioBuilder::new(
        Rc::new(|| Box::new(StreamApp::new(4096, false)) as _),
        ClientWorkload::Download { total: TOTAL },
    )
    .seed(7)
    .pool(REPLICAS)
    .build();
    let rank = s.servers.clone();
    s.crash_at(rank[0], CRASH1);
    s.reboot_at(rank[0], REBOOT);
    s.crash_at(rank[1], CRASH2);

    // Sample the pool-strength gauge (live, unfenced members as the
    // current active counts them) alongside the run.
    let horizon = SimTime::from_secs(60);
    let step = SimDuration::from_millis(250);
    let mut strength: Vec<(SimTime, u64)> = Vec::new();
    loop {
        let now = s.world.now();
        if let Some(active) = rank.iter().find(|&&n| s.server(n).is_active()) {
            if let Some(v) = s.server(*active).pool_strength() {
                match strength.last() {
                    Some(&(_, last)) if last == v => {}
                    _ => strength.push((now, v)),
                }
            }
        }
        if s.client_finished() || now >= horizon {
            break;
        }
        s.world.run_until((now + step).min(horizon));
    }

    let log = s.client_log().clone();
    assert!(
        s.client_finished(),
        "client did not finish: {} / {TOTAL} bytes",
        log.total_received
    );
    assert_eq!(log.integrity_violations, 0, "stream integrity violated");
    assert_eq!(log.resets, 0, "client saw a connection reset");
    assert_eq!(log.connects.len(), 1, "client had to reconnect");
    let end = log.finished_at.unwrap_or(s.world.now());

    // First takeover is rank-1's story, the second rank-2's; the
    // re-integration milestones live on the rebooted rank-0's log.
    let member_events: Vec<Vec<StTcpEvent>> = (rank.iter())
        .map(|&n| s.server(n).events().to_vec())
        .collect();
    let quorum1 = member_events[1].iter().find_map(|e| match e {
        StTcpEvent::FenceQuorumReached { at, .. } => Some(*at),
        _ => None,
    });
    let takeover1 = member_events[1].iter().find_map(|e| match e {
        StTcpEvent::TookOver { at } => Some(*at),
        _ => None,
    });
    let rejoined_at = s
        .server(rank[0])
        .reintegrated_at()
        .expect("rebooted ex-active never completed re-integration");
    let new_rank = s.server(rank[0]).pool_rank();
    assert!(
        new_rank >= REPLICAS as u8,
        "rejoiner kept rank {new_rank} instead of moving to the back"
    );
    let quorum2 = member_events[2].iter().find_map(|e| match e {
        StTcpEvent::FenceQuorumReached { at, .. } => Some(*at),
        _ => None,
    });
    let takeover2 = member_events[2].iter().find_map(|e| match e {
        StTcpEvent::TookOver { at } => Some(*at),
        _ => None,
    });
    assert!(
        s.server(rank[2]).is_active(),
        "rank-2 must hold the service at end of run"
    );
    for (i, tk, q) in [(1usize, takeover1, quorum1), (2, takeover2, quorum2)] {
        let tk = tk.unwrap_or_else(|| panic!("rank-{i} never took over"));
        let q = q.unwrap_or_else(|| panic!("rank-{i} took over without a fence quorum"));
        assert!(q <= tk, "rank-{i}: quorum at {q} after takeover at {tk}");
    }

    println!("\nclient progress (x: time, y: bytes; two actives crashed):\n");
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
    mt.row(vec!["rank-0 (active) crashed".into(), CRASH1.to_string()]);
    mt.row(vec!["rank-1 fence quorum (2 votes)".into(), fmt(quorum1)]);
    mt.row(vec!["rank-1 takeover".into(), fmt(takeover1)]);
    mt.row(vec!["rank-0 warm reboot".into(), REBOOT.to_string()]);
    mt.row(vec![
        format!("rank-0 rejoined as rank-{new_rank}"),
        rejoined_at.to_string(),
    ]);
    mt.row(vec!["rank-1 (active) crashed".into(), CRASH2.to_string()]);
    mt.row(vec!["rank-2 fence quorum".into(), fmt(quorum2)]);
    mt.row(vec!["rank-2 takeover".into(), fmt(takeover2)]);
    mt.row(vec!["transfer complete".into(), end.to_string()]);
    println!("\n{mt}");

    println!("pool strength as seen by the current active:\n");
    let mut st = Table::new(vec!["time", "live members"]);
    for (at, v) in &strength {
        st.row(vec![at.to_string(), v.to_string()]);
    }
    println!("{st}");

    // Per-takeover phase breakdowns, each anchored to the client stall
    // it caused and restricted to its own failover epoch.
    let mut phase_json = Vec::new();
    for (label, crash, events) in [
        (
            "first takeover (rank-1, quorum-fenced)",
            CRASH1,
            &member_events[1],
        ),
        (
            "second takeover (rank-2, rejoiner votes)",
            CRASH2,
            &member_events[2],
        ),
    ] {
        let from = crash - SimDuration::from_millis(100);
        let to = (crash + SimDuration::from_secs(10)).min(end);
        let Some((ws, we)) = log.longest_stall_window(from, to) else {
            continue;
        };
        let in_window: Vec<StTcpEvent> = events
            .iter()
            .filter(|e| e.at() <= we && e.at() >= crash)
            .cloned()
            .collect();
        let Some(b) = failover_timeline(ws, we, Some(crash), &in_window).breakdown() else {
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
        let mut report = MetricsReport::new("demo7_pool");
        let mut config = Json::obj();
        config.set("seed", Json::U64(7));
        config.set("replicas", Json::U64(REPLICAS as u64));
        config.set("total_bytes", Json::U64(TOTAL));
        config.set("crash_rank0_us", Json::U64(CRASH1.as_micros()));
        config.set("reboot_rank0_us", Json::U64(REBOOT.as_micros()));
        config.set("crash_rank1_us", Json::U64(CRASH2.as_micros()));
        report.set("config", config);

        let mut ms = Json::obj();
        let set_at = |o: &mut Json, k: &str, at: Option<SimTime>| {
            if let Some(at) = at {
                o.set(k, Json::U64(at.as_micros()));
            }
        };
        set_at(&mut ms, "rank1_quorum_us", quorum1);
        set_at(&mut ms, "rank1_takeover_us", takeover1);
        ms.set("rank0_rejoined_us", Json::U64(rejoined_at.as_micros()));
        ms.set("rank0_new_rank", Json::U64(u64::from(new_rank)));
        set_at(&mut ms, "rank2_quorum_us", quorum2);
        set_at(&mut ms, "rank2_takeover_us", takeover2);
        ms.set("finished_us", Json::U64(end.as_micros()));
        report.set("milestones", ms);

        let gauge = Json::Arr(
            strength
                .iter()
                .map(|&(at, v)| {
                    let mut o = Json::obj();
                    o.set("at_us", Json::U64(at.as_micros()));
                    o.set("live", Json::U64(v));
                    o
                })
                .collect(),
        );
        report.set("pool_strength", gauge);

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
                    "first_takeover"
                } else {
                    "second_takeover"
                },
                b.to_json(),
            );
        }
        report.set("phases", phases);

        // Both quorum-fenced takeovers, as a causal trace: heartbeat
        // silence → fence request/acks → commit → verdict → takeover.
        match write_flight_dump(
            &flight_dir_for(Some(&path)),
            "demo7",
            &s.world.flight_snapshot(None),
        ) {
            Ok(w) => {
                println!(
                    "flight dump: {} ({} events; open {} in ui.perfetto.dev)",
                    w.dump.display(),
                    w.events,
                    w.trace.display()
                );
                report.set("flight_dumps", dumps_to_json(&[w]));
            }
            Err(e) => eprintln!("failed to write flight dump: {e}"),
        }

        if let Err(e) = report.write_to(&path) {
            eprintln!("failed to write {}: {e}", path.display());
            exit(1);
        }
        println!("metrics report written to {}", path.display());
    }

    println!(
        "\nthe pool survived two active failures: each takeover waited for a quorum of\n\
         survivors to confirm the death, the fenced machine rejoined at the back of the\n\
         rank order, and the client kept one connection with zero integrity violations."
    );
}
