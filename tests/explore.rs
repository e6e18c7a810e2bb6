//! Integration tier for the bounded-exhaustive explorer
//! (`sttcp_apps::explore` + `sttcp_bench::explore`):
//!
//! * the enumerated lattice clears the 10k-point floor on the standard
//!   pair topology,
//! * the coverage report is byte-identical at any thread count, and
//! * with the `inject_held_rst` mutation compiled in, a PR-CI-budget
//!   slice of the lattice rediscovers the PR-1 held-RST bug and
//!   shrinks it to a two-fault reproducer. The mirror test pins the
//!   same slice clean when the mutation is compiled out, so a
//!   rediscovery is attributable to the mutation alone.

use sttcp_apps::chaos::{ChaosOptions, ChaosWorkload};
use sttcp_apps::explore::{build_lattice, probe_milestones};
use sttcp_bench::explore::{run_explore, ExploreConfig};

fn cfg(threads: usize, budget: Option<usize>) -> ExploreConfig {
    ExploreConfig {
        seed: 0,
        workload: ChaosWorkload::Download,
        threads,
        budget,
    }
}

/// The deterministic stride slice both rediscovery tests run:
/// large enough that the stride provably crosses the post-repair-crash
/// points (verified by the mutation test), small enough for a PR-CI
/// job.
const CI_BUDGET: usize = 3000;

#[test]
fn full_lattice_clears_ten_thousand_points() {
    let opts = ChaosOptions::quick();
    let (milestones, probe) = probe_milestones(0, &opts);
    assert!(
        probe.violations.is_empty(),
        "fault-free probe must be clean"
    );
    let lat = build_lattice(&milestones, &opts.sttcp);
    assert!(
        lat.schedules.len() >= 10_000,
        "lattice too small: {} points",
        lat.schedules.len()
    );
    assert!(lat.single_points > 0 && lat.pair_points > 0);
    // The pruning accounting must close: every raw pair is either
    // enumerated or attributed to a pruning rule.
    let g = 22;
    assert_eq!(
        lat.pair_points + lat.mirrored_pruned + lat.vacuous_pruned,
        lat.pair_time_pairs * g * g
    );
}

#[test]
fn explore_report_is_byte_identical_across_threads() {
    let opts = ChaosOptions::quick();
    let one = run_explore(&cfg(1, Some(24)), &opts, |_| {});
    let four = run_explore(&cfg(4, Some(24)), &opts, |_| {});
    assert_eq!(one.summary.points, 24);
    assert_eq!(
        one.to_report(&cfg(1, Some(24))).to_json(),
        four.to_report(&cfg(4, Some(24))).to_json(),
        "coverage report must not depend on thread count"
    );
}

/// Counts the *faults* in a schedule: repair actions (the second half
/// of a flap composite) ride along with the outage they close and are
/// not counted.
#[cfg(feature = "inject_held_rst")]
fn fault_count(s: &sttcp_apps::chaos::FaultSchedule) -> usize {
    s.actions
        .iter()
        .filter(|t| {
            !matches!(
                t.action.kind(),
                "nic-up" | "restore" | "serial-restore" | "loss-end" | "jitter-end"
            )
        })
        .count()
}

/// The rediscovery gate: the explorer, given only the lattice and the
/// invariant oracle, must re-find the re-introduced PR-1 held-RST bug
/// within a PR-CI budget and shrink it to a minimal reproducer of at
/// most two faults (a transient outage composite plus the application
/// crash whose RST the gate swallows).
#[cfg(feature = "inject_held_rst")]
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-only: runs a 3000-point lattice slice"
)]
fn explorer_rediscovers_the_held_rst_bug() {
    let opts = ChaosOptions::quick();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let run = run_explore(&cfg(threads, Some(CI_BUDGET)), &opts, |_| {});
    assert!(
        !run.summary.violations.is_empty(),
        "explorer failed to rediscover the injected held-RST bug in {} points",
        run.summary.points
    );
    let v = &run.summary.violations[0];
    assert!(
        v.invariants.contains(&"no-silent-failure"),
        "unexpected violation class {:?} for {}",
        v.invariants,
        v.schedule
    );
    assert!(
        fault_count(&v.shrunk) <= 2,
        "shrunk reproducer {} still has {} faults after {} shrink runs",
        v.shrunk,
        fault_count(&v.shrunk),
        v.shrink_runs
    );
    // The shrunk schedule must still involve the application crash —
    // the action whose RST the mutation swallows.
    assert!(
        v.shrunk
            .actions
            .iter()
            .any(|t| t.action.kind() == "app-crash"),
        "shrunk reproducer {} lost the app crash",
        v.shrunk
    );
    // The shrunk reproducer ships with its flight-recorder trace: the
    // tail of the minimal schedule's violating replay, ready to dump.
    let flight = v
        .flight
        .as_ref()
        .expect("violation carries no flight snapshot");
    assert!(
        !flight.events.is_empty(),
        "shrunk reproducer's flight snapshot is empty"
    );
}

/// Mirror of the rediscovery gate: the identical lattice slice is
/// clean when the mutation is compiled out, so the rediscovery test's
/// signal comes from the re-introduced bug and nothing else.
#[cfg(not(feature = "inject_held_rst"))]
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-only: runs a 3000-point lattice slice"
)]
fn budgeted_explore_is_clean_without_the_mutation() {
    let opts = ChaosOptions::quick();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let run = run_explore(&cfg(threads, Some(CI_BUDGET)), &opts, |_| {});
    assert_eq!(run.summary.points, CI_BUDGET);
    assert!(
        run.summary.violations.is_empty(),
        "unmutated build must explore clean; first class: {:?}",
        run.summary
            .violations
            .first()
            .map(|v| v.schedule.to_string())
    );
}
