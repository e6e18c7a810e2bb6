//! Event-queue churn microbenchmarks, driven through the public `World`
//! scheduling API (the queue itself is crate-private to `simnet`).
//!
//! Every simulated packet, timer, and fault is one push and one pop on
//! the event queue, so its per-event cost is a floor under everything
//! the harness measures. The workload here is a fleet of
//! self-rescheduling timers whose deltas are drawn from a deterministic
//! LCG, shaped to exercise the timing wheel's interesting regimes:
//!
//! * `near` — deltas under ~65 ms, the regime real protocol timers
//!   (RTO, delayed ACK, heartbeat) live in: the wheel's lowest levels.
//! * `mixed_horizon` — deltas spanning microseconds to days, forcing
//!   cascades through the upper levels and the far-future overflow
//!   heap.
//! * `superseded_far` — the shape an eagerly moved deadline timer gave
//!   the queue under a bulk transfer (the nodes' TCP timer is lazy now,
//!   `NodeCtx::rearm_timer`, and no longer does this): on a fast tick a
//!   node arms a fresh timer 200–260 ms out and lets the previous one
//!   fire unheeded, so nearly every event parks in level 3, is
//!   cascaded down and pops as a no-op, with only a few thousand live
//!   at once.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use simnet::frame::EthernetFrame;
use simnet::node::{NicId, Node, NodeCtx, TimerToken};
use simnet::time::{SimDuration, SimTime};
use simnet::world::World;

/// Advances the per-timer LCG and returns the next raw 64-bit draw.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state
}

/// One self-rescheduling timer: draws its next delta from its own LCG
/// stream and schedules itself again, forever. `shape` maps the raw
/// draw to a delta in microseconds.
fn tick(w: &mut World, mut state: u64, shape: fn(u64) -> u64) {
    let delta = shape(lcg(&mut state));
    w.schedule_in(SimDuration::from_micros(delta), move |w| {
        tick(w, state, shape)
    });
}

/// Deltas in 1..=65_536 µs: lowest wheel levels only.
fn shape_near(raw: u64) -> u64 {
    (raw >> 33) % 65_536 + 1
}

/// Deltas from 1 µs to ~2.8 days, log-uniform-ish across wheel levels
/// and (past ~19 h) the overflow heap.
fn shape_mixed(raw: u64) -> u64 {
    let exp = (raw >> 59) % 32; // 0..32 bits of magnitude
    let mantissa = (raw >> 21) & ((1 << exp) | ((1 << exp) - 1));
    mantissa.max(1)
}

/// Builds a world with `timers` independent timer streams and runs it
/// until `horizon`, returning the number of events processed.
fn churn(timers: u64, horizon: SimTime, shape: fn(u64) -> u64) -> u64 {
    let mut w = World::new(0x5eed);
    w.start();
    for id in 0..timers {
        tick(&mut w, id.wrapping_mul(0x9E37_79B9_7F4A_7C15), shape);
    }
    w.run_until(horizon);
    w.events_processed()
}

const TOKEN_TICK: TimerToken = TimerToken(0);
const TOKEN_FAR: TimerToken = TimerToken(1);

/// A node that, every 50–500 µs, arms a far timer 200–260 ms out and
/// heeds none of them.
struct FarRearmer {
    state: u64,
}

impl Node for FarRearmer {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        self.on_timer(ctx, TOKEN_TICK);
    }

    fn on_frame(&mut self, _: &mut NodeCtx<'_>, _: NicId, _: EthernetFrame) {}

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: TimerToken) {
        if token == TOKEN_FAR {
            return;
        }
        let raw = lcg(&mut self.state);
        ctx.set_timer(
            SimDuration::from_micros(200_000 + (raw >> 40) % 60_000),
            TOKEN_FAR,
        );
        ctx.set_timer(SimDuration::from_micros(50 + (raw >> 20) % 451), TOKEN_TICK);
    }
}

/// Runs one [`FarRearmer`] until `horizon`, returning the number of
/// events processed.
fn churn_superseded_far(horizon: SimTime) -> u64 {
    let mut w = World::new(0x5eed);
    w.add_node(
        "rearmer",
        Box::new(FarRearmer {
            state: 0x9E37_79B9_7F4A_7C15,
        }),
    );
    w.start();
    w.run_until(horizon);
    w.events_processed()
}

fn bench_event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue");

    // The workload is deterministic, so a dry run gives the exact
    // per-iteration event count for throughput reporting.
    let horizon = SimTime::from_millis(200);
    let near_events = churn(64, horizon, shape_near);
    g.throughput(Throughput::Elements(near_events));
    g.bench_function("timer_churn_near", |b| {
        b.iter(|| churn(64, horizon, shape_near))
    });

    let mixed_events = churn(64, horizon, shape_mixed);
    g.throughput(Throughput::Elements(mixed_events));
    g.bench_function("timer_churn_mixed_horizon", |b| {
        b.iter(|| churn(64, horizon, shape_mixed))
    });

    // Long enough for the far timers to come round and be popped.
    let far_horizon = SimTime::from_secs(2);
    g.throughput(Throughput::Elements(churn_superseded_far(far_horizon)));
    g.bench_function("timer_churn_superseded_far", |b| {
        b.iter(|| churn_superseded_far(far_horizon))
    });

    g.finish();
}

criterion_group!(benches, bench_event_queue);
criterion_main!(benches);
