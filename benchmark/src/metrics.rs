//! The metric catalogue and the arithmetic that turns one repetition's
//! observations ([`Unit`]) into named values. No repo imports: the
//! adapter fills a `Unit`, everything here is plain numbers.

use std::collections::BTreeMap;

use crate::stats::{nearest_rank_percentile, tail_percentile, Percentile};

/// Names of the profiler's nine components, in its report order. The
/// first is the simulation kernel (`simnet`); `tcp`, `tcp_wheel` and
/// `tcp_poll` are simtcp; `sttcp`, `hb_encode` and `pool` are sttcp;
/// `app` is sttcp-apps.
pub const COMPONENTS: [&str; 9] = [
    "simnet",
    "tcp",
    "sttcp",
    "pool",
    "app",
    "tcp_wheel",
    "tcp_poll",
    "hb_encode",
    "other",
];

/// The seven `obs::timeline` phases of a failover stall, in order.
pub const PHASES: [&str; 7] = [
    "pre_fault",
    "symptom",
    "diagnosis",
    "fencing",
    "takeover",
    "reintegration",
    "restart",
];

/// How a metric is measured, which decides how repetitions combine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Host time (at reference speed, for the end-to-end ones) or
    /// memory: the best of the repetitions.
    Host,
    /// Simulated time, bytes or an exact count: identical across the
    /// repetitions of one seed, or the run fails its determinism check.
    Sim,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// One end-to-end metric of the catalogue.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub kind: Kind,
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    kind: Kind,
    better: Better,
    bound: f64,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        kind,
        better,
        bound,
    }
}

/// The end-to-end metrics, as `BENCHMARK.json` lists them. Every
/// workload reports every one (see the README for what each means away
/// from its home workload).
pub const END_TO_END: [EndToEnd; 14] = [
    e2e("setup_s", "s", Kind::Host, Better::Lower, 0.25),
    e2e("payload_mb_per_s", "MB/s", Kind::Host, Better::Higher, 0.25),
    e2e("echoes_per_s", "1/s", Kind::Host, Better::Higher, 0.25),
    e2e("conns_per_s", "1/s", Kind::Host, Better::Higher, 0.25),
    e2e("failovers_per_s", "1/s", Kind::Host, Better::Higher, 0.25),
    e2e(
        "sim_goodput_mbps",
        "Mbit/s",
        Kind::Sim,
        Better::Higher,
        0.01,
    ),
    e2e("ft_goodput_ratio", "ratio", Kind::Sim, Better::Higher, 0.01),
    e2e("echo_rtt_us_p50", "us", Kind::Sim, Better::Lower, 0.02),
    e2e("echo_rtt_us_p99", "us", Kind::Sim, Better::Lower, 0.02),
    e2e("stall_ms_p50", "ms", Kind::Sim, Better::Lower, 0.01),
    e2e("stall_ms_p99", "ms", Kind::Sim, Better::Lower, 0.01),
    e2e("ramp_stall_ms", "ms", Kind::Sim, Better::Lower, 0.01),
    e2e(
        "hb_serial_bytes_per_conn",
        "B",
        Kind::Sim,
        Better::Lower,
        0.01,
    ),
    e2e("peak_rss_mb", "MB", Kind::Host, Better::Lower, 0.15),
];

/// True for names the benchmark contract accepts.
#[cfg(test)]
pub fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// Exact counts read off the layers' public accessors after a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LayerCounts {
    pub events: u64,
    pub frames_offered: u64,
    pub frames_delivered: u64,
    pub frames_dropped: u64,
    pub serial_bytes: u64,
    pub segs_out: u64,
    pub segs_in: u64,
    pub bytes_retransmitted: u64,
    pub rto_fires: u64,
    pub fast_retransmits: u64,
    pub suppressed_segs: u64,
    pub hb_rounds: u64,
    pub hb_frames: u64,
    pub hb_payload_bytes: u64,
    pub hb_framing_bytes: u64,
    pub hb_conn_entries: u64,
    pub hold_high_water_bytes: u64,
    pub fetch_bytes_served: u64,
    pub replay_bytes: u64,
}

impl LayerCounts {
    /// `(metric name, value)` for every count, in catalogue order.
    pub fn named(&self) -> [(&'static str, u64); 19] {
        [
            ("simnet.events", self.events),
            ("simnet.frames_offered", self.frames_offered),
            ("simnet.frames_delivered", self.frames_delivered),
            ("simnet.frames_dropped", self.frames_dropped),
            ("simnet.serial_bytes", self.serial_bytes),
            ("simtcp.segs_out", self.segs_out),
            ("simtcp.segs_in", self.segs_in),
            ("simtcp.bytes_retransmitted", self.bytes_retransmitted),
            ("simtcp.rto_fires", self.rto_fires),
            ("simtcp.fast_retransmits", self.fast_retransmits),
            ("simtcp.suppressed_segs", self.suppressed_segs),
            ("sttcp.hb_rounds", self.hb_rounds),
            ("sttcp.hb_frames", self.hb_frames),
            ("sttcp.hb_payload_bytes", self.hb_payload_bytes),
            ("sttcp.hb_framing_bytes", self.hb_framing_bytes),
            ("sttcp.hb_conn_entries", self.hb_conn_entries),
            ("sttcp.hold_high_water_bytes", self.hold_high_water_bytes),
            ("sttcp.fetch_bytes_served", self.fetch_bytes_served),
            ("sttcp.replay_bytes", self.replay_bytes),
        ]
    }
}

/// Simulated goodput of one transfer: payload bits over the simulated
/// time they took.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Goodput {
    pub bits: u64,
    pub span_us: u64,
}

impl Goodput {
    pub fn mbps(self) -> f64 {
        // bits per µs is Mbit/s.
        self.bits as f64 / self.span_us.max(1) as f64
    }

    pub fn add(&mut self, other: Goodput) {
        self.bits += other.bits;
        self.span_us += other.span_us;
    }
}

/// One failover's seven phase durations (µs) and the marks within it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FailoverPhases {
    pub phase_us: [u64; 7],
    /// Fault → verdict.
    pub detect_us: u64,
}

/// Everything one repetition of one workload observed. Filled by the
/// adapter; all times are host seconds or simulated microseconds.
#[derive(Debug, Clone, Default)]
pub struct Unit {
    /// Scenario build + `world.start`, summed over the worlds of the
    /// timed region, at reference speed.
    pub setup_s: f64,
    /// The timed region, in host seconds as they passed.
    pub timed_wall_s: f64,
    /// The timed region at reference speed (`speed.rs`): what the host
    /// rates divide by.
    pub timed_ref_s: f64,
    /// The timed region plus whatever led to the takeovers counted in
    /// `takeovers` (the tail crash; conn_ramp's steady window and
    /// failover), at reference speed: what `failovers_per_s` divides by.
    pub failover_ref_s: f64,
    /// Sum of every `World::run_until` slice of the timed region.
    pub run_wall_s: f64,
    /// The whole repetition, build and failover tail included.
    pub unit_wall_s: f64,

    /// Client-verified payload bytes of the timed region.
    pub payload_bytes: u64,
    /// Verified request→response round trips of the timed region: echo
    /// round trips, plus one per completed download.
    pub ops: u64,
    /// Client connections established in the timed region.
    pub conns: u64,
    /// Takeovers completed in the repetition.
    pub takeovers: u64,
    /// The workload's own unit of work, which the per-unit figures divide
    /// by: MiB for bulk_download, echoes for the echo workloads, conns
    /// for conn_ramp, worlds for failover_storm.
    pub work_units: u64,

    /// Payload bits over (last finish − first connect), summed over the
    /// worlds of the timed region.
    pub goodput: Goodput,
    /// One client of this workload's traffic, fault-free, through ST-TCP …
    pub pair_sttcp: Goodput,
    /// … and through a plain TCP server (paper Demo 3).
    pub pair_plain: Goodput,
    /// Host seconds and payload bytes of that plain-TCP run.
    pub plain_wall_s: f64,
    pub plain_bytes: u64,

    /// Per operation: completion − due time, simulated µs.
    pub op_latency_us: Vec<u64>,
    /// Per client with progress: its longest gap between progress
    /// samples from connect to finish, simulated µs.
    pub stall_us: Vec<u64>,
    /// Per takeover: crash → `took_over_at`, simulated µs.
    pub takeover_us: Vec<u64>,

    /// Primary→backup `SerialStats.bytes_delivered` over the steady
    /// window, the heartbeat rounds in it, and the conns live in it.
    pub hb_serial_bytes: u64,
    pub hb_rounds: u64,
    pub hb_conns: u64,

    /// Operations attempted and failed, and what failed.
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,

    pub layer: LayerCounts,
    /// One entry per failover whose client stall was decomposed.
    pub phases: Vec<FailoverPhases>,
    /// Per world of the storm: host µs to build it and to run it.
    pub build_us: Vec<u64>,
    pub run_us: Vec<u64>,
    /// conn_ramp's three stages, host seconds.
    pub ramp_wall_s: f64,
    pub steady_wall_s: f64,
    pub failover_wall_s: f64,
    /// Profiler `(self_ns, scopes)` per component, summed over worlds
    /// (all zero unless the repetition was traced).
    pub prof: [(u64, u64); 9],
}

impl Unit {
    /// Records a failed check.
    pub fn fail(&mut self, what: String) {
        self.fail_n(1, what);
    }

    /// Records `n` failed operations under one message (the list of
    /// messages is capped; the count is not).
    pub fn fail_n(&mut self, n: u64, what: String) {
        self.failed += n;
        if self.errors.len() < 20 {
            self.errors.push(what);
        }
    }
}

/// One per-layer metric of the catalogue.
pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub kind: Kind,
    pub better: Better,
}

/// The direct probes, with their units (all host time, lower is better).
pub const PROBES: [(&str, &str); 15] = [
    ("probe.simnet.frame_codec_ns_1460", "ns"),
    ("probe.simtcp.seg_codec_ns_1460", "ns"),
    ("probe.simtcp.pair_ns_per_seg_1460", "ns"),
    ("probe.simtcp.hold_cycle_ns", "ns"),
    ("probe.simtcp.seg_codec_ns_0", "ns"),
    ("probe.simtcp.pair_ns_per_seg_64", "ns"),
    ("probe.sttcp.hb_full_codec_ns_per_conn", "ns"),
    ("probe.obs.histogram_observe_ns", "ns"),
    ("probe.simnet.timer_event_ns", "ns"),
    ("probe.simtcp.handshake_ns", "ns"),
    ("probe.simtcp.endpoint_deadline_ns_10k", "ns"),
    ("probe.sttcp.hb_delta_codec_ns_per_conn", "ns"),
    ("probe.apps.scenario_build_us", "us"),
    ("probe.sttcp.ctrl_codec_ns_8k", "ns"),
    ("probe.obs.report_json_us", "us"),
];

/// The per-layer metrics, as `BENCHMARK.json` lists them. Counts and
/// simulated times come from an untraced repetition and are exact;
/// `prof.*`, `span.*` and `alloc.*` come from the traced one; `probe.*`
/// are direct timings.
pub fn per_layer() -> Vec<PerLayer> {
    use Better::{Higher, Lower};
    use Kind::{Host, Sim};
    let mut out = Vec::new();
    let mut add = |name: &str, unit: &'static str, kind: Kind, better: Better| {
        out.push(PerLayer {
            name: name.to_string(),
            unit,
            kind,
            better,
        });
    };
    add("work.units", "count", Sim, Higher);
    add("failed_share", "ratio", Sim, Lower);
    add("host.wall_s", "s", Host, Lower);
    add("host.ref_s", "s", Host, Lower);
    add("host.slowdown", "ratio", Host, Lower);
    add("host.cpu_s", "s", Host, Lower);
    add("host.cpu_share", "ratio", Host, Higher);
    add("host.events_per_s", "1/s", Host, Higher);
    add("host.ns_per_event", "ns", Host, Lower);
    add("simnet.events_per_unit", "count", Sim, Lower);
    for (name, _) in LayerCounts::default().named() {
        let unit = if name.contains("bytes") { "B" } else { "count" };
        add(name, unit, Sim, Lower);
    }
    for c in COMPONENTS {
        add(&format!("prof.{c}.self_ms"), "ms", Host, Lower);
        add(&format!("prof.{c}.scopes"), "count", Host, Lower);
    }
    add("prof.unattributed_ms", "ms", Host, Lower);
    for stage in ["setup", "run", "report", "ramp", "steady", "failover"] {
        add(&format!("span.{stage}_ms"), "ms", Host, Lower);
    }
    add("span.build_us_p50", "us", Host, Lower);
    add("span.run_us_p50", "us", Host, Lower);
    add("alloc.count", "count", Host, Lower);
    add("alloc.bytes", "B", Host, Lower);
    add("alloc.count_per_event", "count", Host, Lower);
    add("alloc.peak_live_mb", "MB", Host, Lower);
    add("trace.overhead_pct", "%", Host, Lower);
    for phase in PHASES {
        add(&format!("sttcp.phase.{phase}_ms_p50"), "ms", Sim, Lower);
        add(&format!("sttcp.phase.{phase}_ms_p99"), "ms", Sim, Lower);
    }
    add("sttcp.detect_ms_p50", "ms", Sim, Lower);
    add("sttcp.takeover_ms_p50", "ms", Sim, Lower);
    add("plain.payload_mb_per_s", "MB/s", Host, Higher);
    for (name, unit) in PROBES {
        add(name, unit, Host, Lower);
    }
    out
}

/// The per-layer metrics that follow from one repetition alone: exact
/// counts, failover phases, the plain-TCP baseline rate and, when the
/// repetition was traced, the profiler's split. A metric that does not
/// apply to the workload (a failover phase of a fault-free one) reads 0.
pub fn layer_values(u: &Unit) -> BTreeMap<String, f64> {
    let mut m = BTreeMap::new();
    m.insert("work.units".to_string(), u.work_units as f64);
    m.insert(
        "failed_share".to_string(),
        u.failed as f64 / u.attempted.max(1) as f64,
    );
    m.insert("host.wall_s".to_string(), u.timed_wall_s);
    m.insert("host.ref_s".to_string(), u.timed_ref_s);
    m.insert(
        "host.slowdown".to_string(),
        u.timed_wall_s / u.timed_ref_s.max(1e-9),
    );
    m.insert(
        "host.events_per_s".to_string(),
        per_s(u.layer.events, u.run_wall_s),
    );
    m.insert(
        "host.ns_per_event".to_string(),
        u.run_wall_s * 1e9 / u.layer.events.max(1) as f64,
    );
    m.insert(
        "simnet.events_per_unit".to_string(),
        u.layer.events as f64 / u.work_units.max(1) as f64,
    );
    for (name, v) in u.layer.named() {
        m.insert(name.to_string(), v as f64);
    }
    for (c, (self_ns, scopes)) in COMPONENTS.iter().zip(u.prof) {
        m.insert(format!("prof.{c}.self_ms"), self_ns as f64 / 1e6);
        m.insert(format!("prof.{c}.scopes"), scopes as f64);
    }
    for (i, phase) in PHASES.iter().enumerate() {
        let samples: Vec<u64> = u.phases.iter().map(|p| p.phase_us[i]).collect();
        m.insert(
            format!("sttcp.phase.{phase}_ms_p50"),
            rank_pct(&samples, 50.0, 1e3),
        );
        m.insert(
            format!("sttcp.phase.{phase}_ms_p99"),
            rank_pct(&samples, 99.0, 1e3),
        );
    }
    let detect: Vec<u64> = u.phases.iter().map(|p| p.detect_us).collect();
    m.insert(
        "sttcp.detect_ms_p50".to_string(),
        rank_pct(&detect, 50.0, 1e3),
    );
    m.insert(
        "sttcp.takeover_ms_p50".to_string(),
        rank_pct(&u.takeover_us, 50.0, 1e3),
    );
    m.insert(
        "span.build_us_p50".to_string(),
        rank_pct(&u.build_us, 50.0, 1.0),
    );
    m.insert(
        "span.run_us_p50".to_string(),
        rank_pct(&u.run_us, 50.0, 1.0),
    );
    m.insert(
        "plain.payload_mb_per_s".to_string(),
        u.plain_bytes as f64 / 1e6 / u.plain_wall_s.max(1e-9),
    );
    m
}

/// Per-slab echo latencies of one client, in µs: slab `i` was **due** at
/// `connect + (i+1)·period` (the open-loop schedule, so a slab the
/// client had to hold back still counts its wait) and is complete at the
/// first progress sample whose byte count covers it. Slabs never
/// covered are left out; the caller counts them as failed.
pub fn echo_latencies_us(
    progress: &[(u64, u64)],
    connect_us: u64,
    chunk: u64,
    period_us: u64,
    count: u64,
) -> Vec<u64> {
    let mut out = Vec::with_capacity(count as usize);
    let mut samples = progress.iter().copied().peekable();
    for i in 0..count {
        let need = (i + 1) * chunk;
        while samples.peek().is_some_and(|&(_, bytes)| bytes < need) {
            samples.next();
        }
        let Some(&(at, _)) = samples.peek() else {
            break;
        };
        let due = connect_us + (i + 1) * period_us;
        out.push(at.saturating_sub(due));
    }
    out
}

/// A percentile of `samples` divided by `per`; 0 for an empty sample.
fn scaled(percentile: fn(&[u64], f64) -> Percentile, samples: &[u64], want: f64, per: f64) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        percentile(samples, want).value / per
    }
}

/// Refined percentile: what the end-to-end metrics report.
fn pct(samples: &[u64], want: f64, per: f64) -> f64 {
    scaled(tail_percentile, samples, want, per)
}

/// Nearest-rank percentile: phases and per-world spans.
fn rank_pct(samples: &[u64], want: f64, per: f64) -> f64 {
    scaled(nearest_rank_percentile, samples, want, per)
}

fn per_s(count: u64, wall_s: f64) -> f64 {
    count as f64 / wall_s.max(1e-9)
}

/// The end-to-end metrics of one repetition, by name. `peak_rss_mb` is
/// the caller's to add: it belongs to the process, not to the unit.
pub fn end_to_end(u: &Unit) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    m.insert("setup_s", u.setup_s);
    m.insert(
        "payload_mb_per_s",
        u.payload_bytes as f64 / 1e6 / u.timed_ref_s.max(1e-9),
    );
    m.insert("echoes_per_s", per_s(u.ops, u.timed_ref_s));
    m.insert("conns_per_s", per_s(u.conns, u.timed_ref_s));
    m.insert("failovers_per_s", per_s(u.takeovers, u.failover_ref_s));
    m.insert("sim_goodput_mbps", u.goodput.mbps());
    m.insert(
        "ft_goodput_ratio",
        u.pair_sttcp.mbps() / u.pair_plain.mbps().max(1e-12),
    );
    m.insert("echo_rtt_us_p50", pct(&u.op_latency_us, 50.0, 1.0));
    m.insert("echo_rtt_us_p99", pct(&u.op_latency_us, 99.0, 1.0));
    m.insert("stall_ms_p50", pct(&u.stall_us, 50.0, 1e3));
    m.insert("stall_ms_p99", pct(&u.stall_us, 99.0, 1e3));
    m.insert("ramp_stall_ms", pct(&u.takeover_us, 50.0, 1e3));
    m.insert(
        "hb_serial_bytes_per_conn",
        u.hb_serial_bytes as f64 / u.hb_rounds.max(1) as f64 / u.hb_conns.max(1) as f64,
    );
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn echo_latency_is_cover_time_minus_due_time() {
        // 100-byte slabs due every 5 ms after a connect at t = 1 ms.
        // Slab 0 is covered by the 2nd sample, slabs 1 and 2 by the 3rd
        // (one burst), slab 3 never.
        let progress = [(6_200, 60), (6_400, 100), (16_900, 300), (21_000, 350)];
        let got = echo_latencies_us(&progress, 1_000, 100, 5_000, 4);
        assert_eq!(got, vec![6_400 - 6_000, 16_900 - 11_000, 16_900 - 16_000]);
    }

    #[test]
    fn echo_latency_of_an_empty_log_is_empty() {
        assert!(echo_latencies_us(&[], 0, 64, 5_000, 10).is_empty());
    }

    #[test]
    fn end_to_end_names_are_the_catalogue_minus_rss() {
        let got = end_to_end(&Unit::default());
        let want: Vec<&str> = END_TO_END
            .iter()
            .map(|d| d.name)
            .filter(|&n| n != "peak_rss_mb")
            .collect();
        let mut sorted = want.clone();
        sorted.sort_unstable();
        assert_eq!(got.keys().copied().collect::<Vec<_>>(), sorted);
        for d in &END_TO_END {
            assert!(name_ok(d.name), "{}", d.name);
            assert!(d.bound <= 0.25);
        }
    }

    #[test]
    fn rates_follow_their_definitions() {
        let u = Unit {
            timed_wall_s: 3.0,
            timed_ref_s: 2.0,
            failover_ref_s: 4.0,
            payload_bytes: 10_000_000,
            ops: 500,
            conns: 20,
            takeovers: 2,
            goodput: Goodput {
                bits: 80_000_000,
                span_us: 4_000_000,
            },
            pair_sttcp: Goodput {
                bits: 1_000,
                span_us: 100,
            },
            pair_plain: Goodput {
                bits: 1_000,
                span_us: 80,
            },
            takeover_us: vec![661_000],
            hb_serial_bytes: 4_000,
            hb_rounds: 10,
            hb_conns: 20,
            ..Unit::default()
        };
        let m = end_to_end(&u);
        assert_eq!(m["payload_mb_per_s"], 5.0);
        assert_eq!(m["echoes_per_s"], 250.0);
        assert_eq!(m["conns_per_s"], 10.0);
        assert_eq!(m["failovers_per_s"], 0.5);
        assert_eq!(m["sim_goodput_mbps"], 20.0);
        assert_eq!(m["ft_goodput_ratio"], 0.8);
        assert_eq!(m["ramp_stall_ms"], 661.0);
        assert_eq!(m["hb_serial_bytes_per_conn"], 20.0);
    }
}
