//! Regenerates the paper's **Table 1**: all ten single-failure scenarios
//! (five failure classes × {primary, backup}), reporting the observed
//! symptom, the recovery action taken, the detection latency (checked
//! against the configured worst-case bound for that detector), and
//! whether the client's stream survived untouched.
//!
//! Run with: `cargo run -p sttcp-bench --bin table1_matrix --release`
//!
//! `--json <path>` additionally writes the matrix as a `MetricsReport`.
//! `--threads <n>` fans the ten independent scenarios out over a worker
//! pool; the output is identical to a single-threaded run.
//!
//! Exit status is 1 if any client stream was disrupted or any detection
//! latency exceeded its configured bound.

use std::process::ExitCode;

use obs::json::Json;
use obs::report::MetricsReport;
use sttcp_apps::scenario::Topology;
use sttcp_bench::cli::parse_cli;
use sttcp_bench::experiments::run_table1;
use sttcp_bench::report::Table;

fn main() -> ExitCode {
    let cli = parse_cli("usage: table1_matrix [--json <path>] [--threads <n>]");
    println!("ST-TCP Table 1 — single failure scenarios (reproduced)\n");
    let rows = run_table1(Topology::Pair, 1_000, cli.threads);
    let mut table = Table::new(vec![
        "row",
        "location",
        "failure injected",
        "symptom observed",
        "recovery action",
        "detect",
        "bound",
        "client",
    ]);
    for r in &rows {
        table.row(vec![
            r.row.to_string(),
            r.location.to_string(),
            r.failure.clone(),
            r.symptom.clone(),
            r.recovery.label().to_string(),
            r.detection
                .map(|d| d.to_string())
                .unwrap_or_else(|| "-".into()),
            r.bound.map(|b| b.to_string()).unwrap_or_else(|| "-".into()),
            if r.client_ok { "intact" } else { "DISRUPTED" }.to_string(),
        ]);
    }
    println!("{table}");

    let all_ok = rows.iter().all(|r| r.client_ok);
    println!(
        "client stream intact in {}/{} scenarios{}",
        rows.iter().filter(|r| r.client_ok).count(),
        rows.len(),
        if all_ok {
            " — all single failures masked"
        } else {
            ""
        }
    );

    let mut bound_failures = 0u32;
    for r in &rows {
        if r.bound_violated() {
            bound_failures += 1;
            println!(
                "BOUND VIOLATED: row {} ({}) detected in {} > configured bound {}",
                r.row,
                r.location,
                r.detection.unwrap(),
                r.bound.unwrap(),
            );
        }
    }
    if bound_failures == 0 {
        println!("all detection latencies within their configured bounds");
    }

    if let Some(path) = cli.json {
        let mut report = MetricsReport::new("table1_matrix");
        let json_rows: Vec<Json> = rows
            .iter()
            .map(|r| {
                let mut o = Json::obj();
                o.set("row", Json::U64(u64::from(r.row)));
                o.set("location", Json::from(r.location));
                o.set("failure", Json::from(r.failure.as_str()));
                o.set("symptom", Json::from(r.symptom.as_str()));
                o.set("recovery", Json::from(r.recovery.label()));
                o.set(
                    "detect_us",
                    r.detection
                        .map(|d| Json::U64(d.as_micros()))
                        .unwrap_or(Json::Null),
                );
                o.set(
                    "bound_us",
                    r.bound
                        .map(|b| Json::U64(b.as_micros()))
                        .unwrap_or(Json::Null),
                );
                o.set(
                    "reason",
                    r.reason.map(|x| Json::from(x.key())).unwrap_or(Json::Null),
                );
                o.set("bound_violated", Json::Bool(r.bound_violated()));
                o.set("client_ok", Json::Bool(r.client_ok));
                o
            })
            .collect();
        report.set("rows", Json::Arr(json_rows));
        let mut summary = Json::obj();
        summary.set(
            "client_intact",
            Json::U64(rows.iter().filter(|r| r.client_ok).count() as u64),
        );
        summary.set("scenarios", Json::U64(rows.len() as u64));
        summary.set("bound_violations", Json::U64(u64::from(bound_failures)));
        report.set("summary", summary);
        if let Err(e) = report.write_to(&path) {
            eprintln!("failed to write {}: {e}", path.display());
            return ExitCode::from(1);
        }
        println!("metrics report written to {}", path.display());
    }

    if all_ok && bound_failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
