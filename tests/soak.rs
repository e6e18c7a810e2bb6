//! Seeded soak tiers: generated fault schedules run through the full
//! topology and judged by the first-class invariant checker
//! (`sttcp::invariant`). Each case derives its own expectation from the
//! schedule — what a correct system may legitimately do under those
//! faults — so every assertion here is "no invariant violation", never
//! a hand-written per-case oracle.
//!
//! Three tiers, in increasing nastiness:
//!
//! * **single** — one fault per run (the seed repo's original tier),
//! * **multi**  — 1–4 composed faults, including handshake/FIN-window
//!   timing,
//! * **double** — a second fault injected while the system is still
//!   absorbing the first (failure during repair).
//!
//! Every run is an independent deterministic world, so each tier fans
//! its seeds out over the host's cores and then judges the reports in
//! seed order — the first failing seed reported is the same one a
//! sequential loop would have hit.
//!
//! When a case fails, the panic message contains a paste-able
//! reproducer command line; `chaos_hunt` shrinks it further.

use sttcp::invariant::Outcome;
use sttcp_apps::chaos::{run_chaos_case, shrink_schedule, ChaosOptions, FaultSchedule};
use sttcp_apps::scenario::Topology::Pair;
use sttcp_bench::parallel::{default_threads, parallel_seeds};

/// Runs `seeds` schedules in parallel and panics — with a shrunk,
/// paste-able reproducer — on the lowest-seed invariant violation, if
/// any. Shrinking reruns the case many times, so it happens
/// sequentially and only for the seed actually reported.
fn soak_tier(seeds: u64, make: fn(u64) -> FaultSchedule, opts: &ChaosOptions) {
    let reports = parallel_seeds(default_threads(), 0, seeds, |seed| {
        let schedule = make(seed);
        let report = run_chaos_case(Pair, seed, &schedule, opts);
        (schedule, report)
    });
    for (seed, (schedule, report)) in reports.into_iter().enumerate() {
        let seed = seed as u64;
        if report.outcome != Outcome::Violation {
            continue;
        }
        let shrunk = shrink_schedule(Pair, seed, &schedule, opts);
        panic!(
            "seed {seed}: {schedule}\n  violations: {:?}\n  client: {:?}\n  \
             minimal reproducer:\n    cargo run -p sttcp-bench --bin chaos_hunt -- \
             --seed {seed} --schedule \"{}\"",
            report.violations, report.client, shrunk.schedule
        );
    }
}

/// Tier 1: one fault per run.
#[test]
fn soak_single_fault() {
    soak_tier(60, FaultSchedule::generate_single, &ChaosOptions::quick());
}

/// Tier 2: composed multi-fault schedules (1–4 actions).
#[test]
fn soak_multi_fault() {
    soak_tier(60, FaultSchedule::generate, &ChaosOptions::quick());
}

/// Tier 3: double faults — the second lands while the system is still
/// recovering from the first (the window the paper's single-failure
/// assumption leaves open; we demand detection, never silence).
#[test]
fn soak_double_fault() {
    soak_tier(64, FaultSchedule::generate_double, &ChaosOptions::quick());
}

/// The full-size workload tier: fewer seeds, real download size and
/// horizon, both generators. Catches anything the quick profile's
/// shorter horizon hides.
#[test]
fn soak_full_horizon() {
    let opts = ChaosOptions::default();
    soak_tier(12, FaultSchedule::generate, &opts);
    soak_tier(12, FaultSchedule::generate_double, &opts);
}
