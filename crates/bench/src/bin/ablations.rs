//! Ablations of ST-TCP's design choices.
//!
//! 1. **Dual heartbeat links (§3).** The paper's motivating incident: with
//!    a single (IP-only) heartbeat, a backup NIC failure makes the backup
//!    conclude the *primary* died — it shoots the healthy primary and
//!    takes over with a dead NIC. We reproduce exactly that by cutting
//!    the serial cable first, then failing the backup NIC, and compare
//!    with the dual-link configuration.
//! 2. **Heartbeat timeout multiplier.** Detection latency vs robustness
//!    to heartbeat loss on a lossy IP link.
//! 3. **Hold-buffer capacity.** Which tap-loss bursts are recoverable
//!    before the primary declares the backup failed.
//!
//! Run with: `cargo run -p sttcp-bench --bin ablations --release`
//!
//! `--threads <n>` fans each ablation's independent grid cells out over
//! a worker pool; every cell derives its seed from its grid coordinates
//! alone, so the tables are identical to a single-threaded run.

use std::rc::Rc;

use simnet::link::LinkDir;
use simnet::time::{SimDuration, SimTime};

use sttcp::app::EchoApp;
use sttcp::config::StTcpConfig;
use sttcp::events::StTcpEvent;

use sttcp_apps::client::ClientWorkload;
use sttcp_apps::scenario::{AppMaker, ScenarioBuilder};
use sttcp_bench::parallel::parallel_map_indexed;
use sttcp_bench::report::Table;

fn t(ms: u64) -> SimTime {
    SimTime::from_millis(ms)
}

fn echo_app() -> AppMaker {
    Rc::new(|| Box::new(EchoApp::default()) as _)
}

fn chat() -> ClientWorkload {
    ClientWorkload::EchoChat {
        chunk: 1024,
        period: SimDuration::from_millis(50),
        count: 300,
    }
}

fn cfg() -> StTcpConfig {
    StTcpConfig {
        app_max_lag_time: SimDuration::from_secs(1),
        ..Default::default()
    }
}

fn dual_link_ablation(threads: usize) {
    println!("--- ablation 1: dual vs single heartbeat link (backup NIC fails) ---\n");
    let mut table = Table::new(vec![
        "HB links",
        "who was condemned",
        "client outcome",
        "servers left powered",
    ]);
    let cases = [false, true];
    let rows = parallel_map_indexed(threads, &cases, |_, &single_link| {
        let mut s = ScenarioBuilder::new(echo_app(), chat())
            .seed(301)
            .sttcp(cfg())
            .build();
        if single_link {
            // No serial cable: the IP heartbeat is the only one.
            s.fail_serial_at(t(0));
        }
        let b = s.backup;
        s.fail_nic_at(b, t(2_000));
        s.world.run_until(t(60_000));

        let condemned_by = |node| {
            s.server(node)
                .events()
                .iter()
                .any(|e| matches!(e, StTcpEvent::PeerDeclaredFailed { .. }))
        };
        let who = match (condemned_by(s.primary), condemned_by(s.backup)) {
            (true, false) => "backup (correct)",
            (false, true) => "primary (WRONG)",
            (true, true) => "both (mutual shoot-out)",
            (false, false) => "nobody",
        };
        let log = s.client_log();
        let outcome = if s.client_finished() && log.resets == 0 {
            "served".to_string()
        } else {
            format!(
                "DISRUPTED (resets={}, finished={})",
                log.resets,
                s.client_finished()
            )
        };
        let powered = [s.primary, s.backup]
            .iter()
            .filter(|&&n| s.world.is_powered(n))
            .count();
        vec![
            if single_link {
                "IP only"
            } else {
                "IP + serial"
            }
            .to_string(),
            who.to_string(),
            outcome,
            powered.to_string(),
        ]
    });
    for row in rows {
        table.row(row);
    }
    println!("{table}");
    println!(
        "with a single heartbeat link, the server that *lost its NIC* sees the\n\
         heartbeat die and condemns its healthy peer — the paper's motivation\n\
         for the serial cable (§3). The dual-link run localizes the failure.\n"
    );
}

fn hb_timeout_ablation(threads: usize) {
    println!("--- ablation 2: heartbeat timeout multiplier on a lossy IP link ---\n");
    let mut table = Table::new(vec![
        "timeout (periods)",
        "IP HB loss",
        "verdict under loss (healthy pair)",
        "crash detection",
    ]);
    let mut cases: Vec<(u32, f64)> = Vec::new();
    for periods in [2u32, 3, 5] {
        for loss in [0.0f64, 0.3] {
            cases.push((periods, loss));
        }
    }
    let rows = parallel_map_indexed(threads, &cases, |_, &(periods, loss)| {
        // Phase 1: lossy but healthy — must not produce a verdict.
        let mut s = ScenarioBuilder::new(echo_app(), chat())
            .seed(310 + periods as u64)
            .sttcp(StTcpConfig {
                hb_timeout_periods: periods,
                ..cfg()
            })
            .build();
        if loss > 0.0 {
            // Loss on both directions of both server links: heartbeats
            // and data both suffer.
            for link in [s.link_primary, s.link_backup] {
                s.world.set_link_loss(link, LinkDir::AtoB, loss);
                s.world.set_link_loss(link, LinkDir::BtoA, loss);
            }
        }
        s.world.run_until(t(15_000));
        let false_verdict = [s.primary, s.backup].iter().find_map(|&n| {
            s.server(n).events().iter().find_map(|e| match e {
                StTcpEvent::PeerDeclaredFailed { reason, .. } => Some(reason.to_string()),
                _ => None,
            })
        });

        // Phase 2 (clean link): real crash detection latency.
        let mut s2 = ScenarioBuilder::new(echo_app(), chat())
            .seed(320 + periods as u64)
            .sttcp(StTcpConfig {
                hb_timeout_periods: periods,
                ..cfg()
            })
            .build();
        s2.crash_primary_at(t(2_000));
        s2.world.run_until(t(30_000));
        let det = s2.server(s2.backup).events().iter().find_map(|e| match e {
            StTcpEvent::PeerDeclaredFailed { at, .. } => Some(at.saturating_since(t(2_000))),
            _ => None,
        });
        vec![
            periods.to_string(),
            format!("{:.0}%", loss * 100.0),
            false_verdict.unwrap_or_else(|| "no".into()),
            det.map(|d| d.to_string()).unwrap_or_else(|| "-".into()),
        ]
    });
    for row in rows {
        table.row(row);
    }
    println!("{table}");
    println!(
        "crash-detection latency is linear in the timeout multiplier, while\n\
         the loss-free serial link shields heartbeat liveness from even 30%\n\
         IP loss at every multiplier. The one verdict that does appear under\n\
         loss is an application-lag call (the recovery path itself runs over\n\
         the lossy link and falls behind the aggressive 1 s threshold) —\n\
         which the paper explicitly sanctions: degradation severe enough to\n\
         meet the criteria \"is considered severe enough to warrant a\n\
         failover\" (§4.2.1).\n"
    );
}

fn hold_buffer_ablation(threads: usize) {
    println!("--- ablation 3: hold-buffer capacity vs recoverable burst size ---\n");
    let mut table = Table::new(vec![
        "hold buffer",
        "tap-loss burst",
        "recovered",
        "backup condemned",
        "client",
    ]);
    let mut cases: Vec<(usize, u64)> = Vec::new();
    for hold in [4 * 1024usize, 64 * 1024, 1024 * 1024] {
        for burst in [10u64, 100] {
            cases.push((hold, burst));
        }
    }
    let rows = parallel_map_indexed(threads, &cases, |_, &(hold, burst)| {
        let mut s = ScenarioBuilder::new(echo_app(), chat())
            .seed(330 + burst)
            .sttcp(StTcpConfig {
                hold_buf: hold,
                // Slow the fetch path so the hold buffer actually fills
                // for large bursts.
                recovery_interval: SimDuration::from_millis(400),
                recovery_chunk: 2 * 1024,
                ..cfg()
            })
            .build();
        s.drop_tap_at(s.link_backup, t(2_000), burst);
        s.world.run_until(t(60_000));
        let backup_condemned = s
            .server(s.primary)
            .events()
            .iter()
            .any(|e| matches!(e, StTcpEvent::PeerDeclaredFailed { .. }));
        let recovered = s
            .server(s.backup)
            .events()
            .iter()
            .any(|e| matches!(e, StTcpEvent::RecoveryCompleted { .. }));
        let log = s.client_log();
        vec![
            format!("{} KiB", hold / 1024),
            burst.to_string(),
            recovered.to_string(),
            backup_condemned.to_string(),
            if s.client_finished() && log.resets == 0 {
                "served"
            } else {
                "DISRUPTED"
            }
            .to_string(),
        ]
    });
    for row in rows {
        table.row(row);
    }
    println!("{table}");
    println!(
        "small hold buffers turn large-but-transient tap losses into\n\
         backup-failure verdicts (primary continues alone, client still\n\
         served); a generous buffer rides out the same burst."
    );
}

fn parse_threads() -> usize {
    let mut threads = 1usize;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--threads" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => threads = n,
                None => {
                    eprintln!("--threads requires a number");
                    std::process::exit(2);
                }
            },
            "--help" | "-h" => {
                eprintln!("usage: ablations [--threads <n>]");
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    threads
}

fn main() {
    let threads = parse_threads();
    println!("ST-TCP design ablations\n");
    dual_link_ablation(threads);
    hb_timeout_ablation(threads);
    hold_buffer_ablation(threads);
}
