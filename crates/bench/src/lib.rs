//! # sttcp-bench — the experiment harness
//!
//! Regenerates every table and demo from *"A System Demonstration of
//! ST-TCP"* (DSN 2005) against the simulated reproduction:
//!
//! | Binary | Paper element |
//! |---|---|
//! | `table1_matrix` | Table 1 — all ten single-failure scenarios |
//! | `demo1_failover` | Demo 1 — client-transparent seamless failover |
//! | `demo2_hb_sweep` | Demo 2 — failover time vs heartbeat frequency |
//! | `demo3_overhead` | Demo 3 — failure-free overhead |
//! | `demo4_app_crash` | Demo 4 — application crash failures |
//! | `demo5_nic_failure` | Demo 5 — NIC failures |
//! | `serial_capacity` | §3 — serial heartbeat-link capacity |
//! | `temp_netfail` | §4.3 / Table 1 row 5 — temporary network failures |
//! | `demo6_reintegration` | beyond the paper — backup re-integration after failover |
//! | `demo7_pool` | beyond the paper — N-replica pool, quorum-fenced rank takeover |
//! | `state_explore` | beyond the paper — bounded-exhaustive fault-timing lattice |
//!
//! Run any of them with `cargo run -p sttcp-bench --bin <name>`; the
//! CPU costs the virtual clock cannot see are measured by the repo
//! benchmark (`benchmark/run.sh`, declared in `BENCHMARK.json`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod explore;
pub mod flight;
pub mod hunt;
pub mod parallel;
pub mod phases;
pub mod report;
