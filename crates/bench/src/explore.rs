//! The bounded-exhaustive explorer as a library: probe, enumerate the
//! milestone lattice, fan case execution out over a worker pool, and
//! fold **in lattice order** — the summary and the coverage
//! [`MetricsReport`] built from it are bit-identical at any `--threads`
//! setting, which `tests/explore.rs` pins as a regression test.
//!
//! The lattice itself (grammar, anchors, canonicalization, pruning)
//! lives in [`sttcp_apps::explore`]; this module adds the parallel
//! driver and the schema-versioned coverage report the `state_explore`
//! binary writes for CI.

use obs::json::Json;
use obs::report::MetricsReport;
use sttcp_apps::chaos::{ChaosOptions, ChaosWorkload, FaultSchedule};
use sttcp_apps::explore::{
    budget_indices, build_lattice, explore_case, probe_milestones, shrink_point, AnchorKind,
    ExploreSummary, Lattice, ViolationCase, EXPLORE_SCHEMA_VERSION,
};

use crate::parallel::parallel_map_indexed;

/// What to explore: the replay seed, the workload, worker threads, and
/// an optional point budget (a deterministic stride subset spanning the
/// lattice — the PR-CI smoke; `None` runs the full lattice).
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Seed for the probe run and every lattice point.
    pub seed: u64,
    /// Which application/traffic pair to explore.
    pub workload: ChaosWorkload,
    /// Worker threads for case execution (`<= 1` runs inline).
    pub threads: usize,
    /// Maximum lattice points to execute, evenly strided; `None` = all.
    pub budget: Option<usize>,
}

/// Everything one exploration produced.
pub struct ExploreRun {
    /// The enumerated lattice (including points a budget skipped).
    pub lattice: Lattice,
    /// Indices into [`Lattice::schedules`] that actually ran.
    pub run_indices: Vec<usize>,
    /// The lattice-order fold.
    pub summary: ExploreSummary,
}

/// Probes, enumerates, executes, and folds. `on_violation` fires once
/// per *new* violation class, after its representative has been shrunk
/// — the CLI hooks printing there; pass `|_| {}` when only the summary
/// matters.
pub fn run_explore(
    cfg: &ExploreConfig,
    opts: &ChaosOptions,
    mut on_violation: impl FnMut(&ViolationCase),
) -> ExploreRun {
    let mut opts = opts.clone();
    opts.workload = cfg.workload;

    let (milestones, _probe) = probe_milestones(cfg.seed, &opts);
    let lattice = build_lattice(&milestones, &opts.sttcp);
    let run_indices = match cfg.budget {
        Some(b) => budget_indices(lattice.schedules.len(), b),
        None => (0..lattice.schedules.len()).collect(),
    };

    let results = parallel_map_indexed(cfg.threads, &run_indices, |_, &i| {
        explore_case(cfg.seed, &lattice.schedules[i], &opts)
    });

    let mut summary = ExploreSummary::default();
    let mut shrink = |s: &FaultSchedule| shrink_point(cfg.seed, &opts, s);
    for (k, case) in results.iter().enumerate() {
        let idx = run_indices[k];
        let classes_before = summary.violations.len();
        summary.add(idx, &lattice.schedules[idx], case, &mut shrink);
        if summary.violations.len() > classes_before {
            on_violation(summary.violations.last().expect("just pushed"));
        }
    }

    ExploreRun {
        lattice,
        run_indices,
        summary,
    }
}

impl ExploreRun {
    /// Builds the schema-versioned coverage report. Deliberately
    /// excludes anything execution-environment-dependent (thread count,
    /// wall time): two runs of the same `(config, lattice)` must write
    /// byte-identical JSON.
    pub fn to_report(&self, cfg: &ExploreConfig) -> MetricsReport {
        let mut report = MetricsReport::new("state_explore");
        report.set(
            "schema_version",
            Json::U64(u64::from(EXPLORE_SCHEMA_VERSION)),
        );

        let mut cfg_j = Json::obj();
        cfg_j.set("seed", Json::U64(cfg.seed));
        cfg_j.set("workload", Json::Str(cfg.workload.key().to_string()));
        cfg_j.set(
            "budget",
            match cfg.budget {
                Some(b) => Json::U64(b as u64),
                None => Json::Null,
            },
        );
        report.set("config", cfg_j);

        let lat = &self.lattice;
        let mut lat_j = Json::obj();
        lat_j.set(
            "milestones",
            Json::Arr(
                lat.milestones
                    .iter()
                    .map(|m| {
                        let mut o = Json::obj();
                        o.set("kind", Json::Str(m.kind.to_string()));
                        o.set("at_ms", Json::U64(m.at.as_millis()));
                        o
                    })
                    .collect(),
            ),
        );
        let mut anchors_j = Json::obj();
        for kind in [
            AnchorKind::Before,
            AnchorKind::At,
            AnchorKind::After,
            AnchorKind::Between,
        ] {
            let n = lat.anchors.iter().filter(|a| a.kind == kind).count();
            anchors_j.set(kind.key(), Json::U64(n as u64));
        }
        anchors_j.set("total", Json::U64(lat.anchors.len() as u64));
        lat_j.set("anchors", anchors_j);
        lat_j.set(
            "pair_offsets_ms",
            Json::Arr(lat.offsets.iter().map(|&d| Json::U64(d)).collect()),
        );
        lat_j.set("single_points", Json::U64(lat.single_points as u64));
        lat_j.set("pair_time_pairs", Json::U64(lat.pair_time_pairs as u64));
        lat_j.set("pair_points", Json::U64(lat.pair_points as u64));
        let mut pruned = Json::obj();
        pruned.set("mirrored", Json::U64(lat.mirrored_pruned as u64));
        pruned.set("vacuous", Json::U64(lat.vacuous_pruned as u64));
        lat_j.set("pruned", pruned);
        lat_j.set("points_total", Json::U64(lat.schedules.len() as u64));
        report.set("lattice", lat_j);

        report.set("points_run", Json::U64(self.summary.points as u64));

        let mut outcomes = Json::obj();
        for (k, n) in &self.summary.outcomes {
            outcomes.set(k, Json::U64(*n));
        }
        report.set("outcomes", outcomes);
        report.set(
            "distinct_outcomes",
            Json::U64(self.summary.fingerprints.len() as u64),
        );

        let mut cells = Json::obj();
        for (k, n) in &self.summary.verdict_cells {
            cells.set(k, Json::U64(*n));
        }
        report.set("verdict_cells", cells);

        report.set(
            "violation_points",
            Json::U64(self.summary.violation_points as u64),
        );
        report.set(
            "violations",
            Json::Arr(
                self.summary
                    .violations
                    .iter()
                    .map(|v| {
                        let mut o = Json::obj();
                        o.set("index", Json::U64(v.index as u64));
                        o.set("schedule", Json::Str(v.schedule.to_string()));
                        o.set(
                            "invariants",
                            Json::Arr(
                                v.invariants
                                    .iter()
                                    .map(|i| Json::Str((*i).to_string()))
                                    .collect(),
                            ),
                        );
                        o.set("shrunk", Json::Str(v.shrunk.to_string()));
                        o.set("shrunk_len", Json::U64(v.shrunk.len() as u64));
                        o.set("shrink_runs", Json::U64(v.shrink_runs as u64));
                        o
                    })
                    .collect(),
            ),
        );
        report
    }
}
