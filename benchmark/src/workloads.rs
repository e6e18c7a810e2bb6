//! The five workloads: what each one is, why it exists, and how its
//! inputs follow from `--seed`. No repo imports — the adapter turns a
//! [`Spec`] into scenarios.
//!
//! Sizes are fixed (a run repeats a workload, it never stretches one), so
//! simulated-time metrics are comparable between runs of the same seed.
//! The seed feeds every scenario's world seed and, beyond that, nudges
//! the inputs by amounts far below any metric's bound (a few KiB on a
//! download, a few µs on a period, under a millisecond on a crash time):
//! enough that two seeds are two inputs, not enough to be two workloads.

/// A workload's name and the reason it is in the benchmark.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "bulk_download",
        why: "One 384 MiB server-to-client stream (paper Demo 1/3): MSS-sized segments, simtcp send path and simnet frames do the work; heartbeat, wheel and demux do almost none.",
    },
    Workload {
        name: "bulk_echo",
        why: "One client echoing 16 KiB slabs: client bytes cross the tap, sit in the hold buffer and are released on backup confirmation - the paper's core mechanism, idle in bulk_download.",
    },
    Workload {
        name: "fanin_echo",
        why: "64 clients echoing 64-byte slabs: smallest segments, per-packet cost dominates; every conn is dirty every heartbeat round, so full-frame encode/decode is real work.",
    },
    Workload {
        name: "conn_ramp",
        why: "The published scale point: 20000 mostly idle conns, delta+batched heartbeats on 4 serial links, then a crash. Control plane only: handshake, demux, timer wheel, O(active) sets.",
    },
    Workload {
        name: "failover_storm",
        why: "1100 independent small downloads, each with a primary crash swept across the heartbeat period: the client-visible stall distribution the paper demos, plus world build/teardown cost.",
    },
];

/// One echo workload's traffic (bulk_echo and fanin_echo differ only here).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EchoSpec {
    pub clients: usize,
    pub chunk: usize,
    pub period_us: u64,
    pub count: u32,
}

/// A workload with every size and seed-derived input filled in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Spec {
    BulkDownload {
        /// Bytes of the timed download.
        total: u64,
        /// Bytes of each side of the untimed ST-TCP / plain-TCP pair.
        pair_total: u64,
    },
    Echo(EchoSpec),
    ConnRamp {
        conns: u64,
        /// Crash this long after the steady window closes.
        crash_after_us: u64,
    },
    FailoverStorm {
        total: u64,
        /// Crash time of each world (one world per entry), µs after start.
        crash_at_us: Vec<u64>,
    },
}

/// SplitMix64: the benchmark's only randomness, a pure function of the
/// seed and a per-use salt.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(salt.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(0x94d0_49bb_1331_11eb);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

pub const MIB: u64 = 1024 * 1024;

/// The spec of workload `name` for `seed`, at `1/div` of full size
/// (`div` = 1 for every number anyone may quote; 20 for `--quick`).
pub fn spec(name: &str, seed: u64, div: u64) -> Option<Spec> {
    let div = div.max(1);
    Some(match name {
        "bulk_download" => Spec::BulkDownload {
            total: 384 * MIB / div + mix(seed, 1) % 4096,
            pair_total: 64 * MIB / div + mix(seed, 2) % 4096,
        },
        "bulk_echo" => Spec::Echo(EchoSpec {
            clients: 1,
            chunk: 16384,
            period_us: 5_000,
            count: (16_000 / div) as u32,
        }),
        "fanin_echo" => Spec::Echo(EchoSpec {
            clients: 64,
            chunk: 64,
            period_us: 5_000,
            count: (6_000 / div) as u32,
        }),
        "conn_ramp" => Spec::ConnRamp {
            conns: 20_000 / div,
            crash_after_us: 10_000 + mix(seed, 3) % 1_000,
        },
        "failover_storm" => {
            let worlds = 1_100 / div;
            // The crash sweeps 500 ms - two and a half heartbeat periods - in
            // 7 ms strides, so every phase against the heartbeat and the
            // client's RTO is hit. Stalls fall on a 10 ms lattice (the app
            // tick); a sweep of whole periods would fill every lattice cell
            // equally and leave the median on the edge between two cells,
            // flipping by 10 ms from seed to seed. The extra half period
            // weights one half of the phases and puts the median inside a
            // cell. The seed rotates the sweep and adds sub-millisecond grain.
            let rot = mix(seed, 4) % 500;
            let crash_at_us = (0..worlds)
                .map(|i| (700 + (7 * i + rot) % 500) * 1_000 + mix(seed, 100 + i) % 1_000)
                .collect();
            Spec::FailoverStorm {
                total: 512 * 1024,
                crash_at_us,
            }
        }
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_another_seed_other_inputs() {
        for w in &WORKLOADS {
            assert_eq!(spec(w.name, 5, 1), spec(w.name, 5, 1), "{}", w.name);
        }
        assert_ne!(spec("bulk_download", 1, 1), spec("bulk_download", 2, 1));
        assert_ne!(spec("failover_storm", 1, 1), spec("failover_storm", 2, 1));
        assert!(spec("no_such_workload", 1, 1).is_none());
    }

    #[test]
    fn workload_names_are_well_formed_and_whys_fit_on_a_line() {
        for w in &WORKLOADS {
            assert!(crate::metrics::name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    #[test]
    fn storm_crashes_stay_inside_the_sweep() {
        let Some(Spec::FailoverStorm { crash_at_us, .. }) = spec("failover_storm", 9, 1) else {
            panic!("storm spec");
        };
        assert_eq!(crash_at_us.len(), 1100);
        assert!(crash_at_us
            .iter()
            .all(|&t| (700_000..1_200_000).contains(&t)));
    }
}
