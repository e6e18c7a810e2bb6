//! The N-replica standby pool as an example: a takeover chain down the
//! rank order, with quorum-checked fencing and rank reassignment.
//!
//! Three replicas serve one client. The active (rank 0) is crashed:
//! rank 1 may take over only after a majority of surviving pool members
//! confirms the death over the heartbeat mesh. The fenced machine then
//! warm-reboots and re-integrates — rejoining at the *back* of the rank
//! order — before rank 1 is crashed too, handing the service to rank 2
//! with the rejoiner as its quorum witness.
//!
//! Run with: `cargo run --example pool_takeover_chain`

use std::rc::Rc;

use simnet::time::SimTime;
use sttcp_apps::apps::StreamApp;
use sttcp_apps::client::ClientWorkload;
use sttcp_apps::scenario::ScenarioBuilder;

fn t(ms: u64) -> SimTime {
    SimTime::from_millis(ms)
}

fn main() {
    const REPLICAS: usize = 3;
    println!("ST-TCP standby pool: rank-ordered takeover chain\n");

    let mut s = ScenarioBuilder::new(
        Rc::new(|| Box::new(StreamApp::new(4096, false)) as _),
        ClientWorkload::Download {
            total: 2 * 1024 * 1024,
        },
    )
    .seed(7)
    .pool(REPLICAS)
    .build();

    let rank = s.servers.clone();
    s.crash_at(rank[0], t(1_000)); // kill the active
    s.reboot_at(rank[0], t(2_500)); // warm-reboot it: rejoins as a fresh backup
    s.crash_at(rank[1], t(5_000)); // kill the new active too

    s.world.run_until(SimTime::from_secs(40));

    for &node in &rank {
        let name = s.world.node_name(node).to_string();
        for ev in s.server(node).events() {
            println!("  [{name}] {ev}");
        }
    }

    let log = s.client_log();
    println!(
        "\nclient: finished={} bytes={} connects={} resets={}",
        s.client_finished(),
        log.total_received,
        log.connects.len(),
        log.resets
    );
    assert!(s.client_finished());
    assert_eq!(log.integrity_violations, 0);
    assert_eq!(log.resets, 0);
    assert!(
        s.server(rank[2]).is_active(),
        "rank 2 must hold the service"
    );
    let new_rank = s.server(rank[0]).pool_rank();
    assert!(new_rank >= REPLICAS as u8, "rejoiner must move to the back");

    println!(
        "two actives died; each successor was fenced by a survivor quorum before \
         taking over,\nand the rebooted machine rejoined as rank {new_rank} — one \
         client connection throughout."
    );
}
