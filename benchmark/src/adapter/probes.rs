//! Direct timings of public APIs: the per-operation cost of one layer
//! with nothing else running. Each probe is the fastest of five batches of
//! at least 50 ms (interference only ever slows a batch down). They use no `World` unless the API under
//! test is the world's own.

use std::hint::black_box;
use std::net::Ipv4Addr;
use std::rc::Rc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use obs::metrics::Histogram;
use obs::report::MetricsReport;
use simnet::frame::{EtherType, EthernetFrame};
use simnet::mac::MacAddr;
use simnet::time::{SimDuration, SimTime};
use simnet::world::World;
use simtcp::conn::{TcpConfig, TcpConn};
use simtcp::endpoint::{EndpointConfig, ListenConfig, TcpEndpoint};
use simtcp::recvbuf::RecvBuffer;
use simtcp::segment::{TcpFlags, TcpSegment};
use simtcp::seq::SeqNum;
use simtcp::socket::FourTuple;
use sttcp::app::Application;
use sttcp::config::Role;
use sttcp::heartbeat::{ConnHb, HbFrame, HbFrameKind, HbPayload};
use sttcp::metrics::ServerMetrics;
use sttcp::recover::CtrlMsg;
use sttcp_apps::apps::StreamApp;
use sttcp_apps::client::ClientWorkload;
use sttcp_apps::scenario::ScenarioBuilder;

const BATCH: Duration = Duration::from_millis(50);
const BATCHES: usize = 5;

/// Nanoseconds per operation: `batch(n)` performs `n` operations; `n` is
/// doubled until a batch lasts 50 ms, then five batches are timed and
/// the fastest kept.
fn per_op_ns(mut batch: impl FnMut(u64)) -> f64 {
    let mut n = 1u64;
    loop {
        let t = Instant::now();
        batch(n);
        if t.elapsed() >= BATCH {
            break;
        }
        n *= 2;
    }
    (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            batch(n);
            t.elapsed().as_nanos() as f64 / n as f64
        })
        .fold(f64::INFINITY, f64::min)
}

fn ip(last: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, last)
}

fn tuple() -> FourTuple {
    FourTuple {
        local: (ip(1), 40_000),
        remote: (ip(100), 80),
    }
}

fn frame_codec(len: usize) -> f64 {
    let frame = EthernetFrame::new(
        MacAddr::unicast(1),
        MacAddr::multicast(100),
        EtherType::Ipv4,
        Bytes::from(vec![7u8; len]),
    );
    per_op_ns(|n| {
        for _ in 0..n {
            let wire = black_box(&frame).encode();
            black_box(EthernetFrame::decode(&wire).expect("own encoding"));
        }
    })
}

fn seg_codec(len: usize) -> f64 {
    let seg = TcpSegment {
        src_port: 80,
        dst_port: 40_000,
        seq: SeqNum(0x1234_5678),
        ack: SeqNum(0x8765_4321),
        flags: TcpFlags::ACK,
        window: 65_000,
        payload: Bytes::from(vec![0xAB; len]),
    };
    per_op_ns(|n| {
        for _ in 0..n {
            let wire = black_box(&seg).encode(ip(100), ip(1));
            black_box(TcpSegment::decode(&wire, ip(100), ip(1)).expect("own encoding"));
        }
    })
}

/// A connected `TcpConn` pair: the three-way handshake, hand-delivered.
fn established() -> (TcpConn, TcpConn) {
    let now = SimTime::ZERO;
    let mut client = TcpConn::client(TcpConfig::default(), tuple(), SeqNum(1_000), now);
    let syn = client.poll_segment().expect("SYN");
    let mut server = TcpConn::server_from_syn(
        TcpConfig::default(),
        tuple().flipped(),
        SeqNum(2_000_000),
        &syn,
        now,
    );
    let synack = server.poll_segment().expect("SYN-ACK");
    client.on_segment(now, &synack);
    while let Some(s) = client.poll_segment() {
        server.on_segment(now, &s);
    }
    (client, server)
}

/// Delivers both directions until quiet; returns segments moved.
fn pump(a: &mut TcpConn, b: &mut TcpConn, now: SimTime) -> u64 {
    let mut moved = 0;
    loop {
        let before = moved;
        while let Some(s) = a.poll_segment() {
            b.on_segment(now, &s);
            moved += 1;
        }
        while let Some(s) = b.poll_segment() {
            a.on_segment(now, &s);
            moved += 1;
        }
        if moved == before {
            return moved;
        }
    }
}

/// Nanoseconds per data segment through a `TcpConn` pair, no `World`:
/// the client writes `chunk`-byte slabs, the server reads them.
fn pair_per_seg(chunk: usize) -> f64 {
    let slab = vec![0x5Au8; chunk];
    let (mut client, mut server) = established();
    let now = SimTime::from_millis(1);
    per_op_ns(|n| {
        for _ in 0..n {
            let mut sent = 0;
            while sent < slab.len() {
                sent += client.send(now, &slab[sent..]);
                pump(&mut client, &mut server, now);
                black_box(server.recv(1 << 20));
                // Reading reopened the window; let both sides react.
                server.fill_output(now);
                pump(&mut client, &mut server, now);
                client.fill_output(now);
            }
        }
    })
}

fn hold_cycle() -> f64 {
    let seg = Bytes::from(vec![1u8; 1460]);
    let mut rb = RecvBuffer::new(256 * 1024, Some(1024 * 1024));
    let mut off = 0i64;
    per_op_ns(|n| {
        for _ in 0..n {
            black_box(rb.receive(off, &seg, false));
            off += 1460;
            black_box(rb.read(1460));
            rb.release_until(off as u64);
        }
    })
}

fn hb_payload(conns: usize) -> HbPayload {
    HbPayload {
        seqno: 42,
        role: Role::Primary,
        rank: 0,
        conns: (0..conns)
            .map(|i| ConnHb {
                key: i as u32,
                last_byte_received: 1_000_000 + i as u64,
                last_ack_received: 999_000,
                last_app_byte_written: 500_000,
                last_app_byte_read: 998_000,
                ..ConnHb::default()
            })
            .collect(),
        ping: None,
    }
}

/// v1 full-state heartbeat, 100 entries: ns per entry, encode + decode.
fn hb_full_codec() -> f64 {
    let hb = hb_payload(100);
    per_op_ns(|n| {
        for _ in 0..n {
            let wire = black_box(&hb).encode();
            black_box(HbPayload::decode(&wire).expect("own encoding"));
        }
    }) / 100.0
}

/// v2 delta frame, 100 dirty entries on one of four serial links: ns per
/// entry, encode + decode.
fn hb_delta_codec() -> f64 {
    let frame = HbFrame {
        kind: HbFrameKind::Delta,
        epoch: 7,
        link: 1,
        ack_epoch: 7,
        part: 0,
        parts: 1,
        acks: vec![41; 5],
        hb: hb_payload(100),
    };
    per_op_ns(|n| {
        for _ in 0..n {
            let wire = black_box(&frame).encode();
            black_box(HbFrame::decode(&wire).expect("own encoding"));
        }
    }) / 100.0
}

fn ctrl_codec_8k() -> f64 {
    let reply = CtrlMsg::FetchReply {
        conn: 7,
        from: 123_456,
        data: Bytes::from(vec![5u8; 8 * 1024]),
    };
    per_op_ns(|n| {
        for _ in 0..n {
            let wire = black_box(&reply).encode();
            black_box(CtrlMsg::decode(&wire).expect("own encoding"));
        }
    })
}

fn histogram_observe() -> f64 {
    let mut h = Histogram::latency_us();
    let mut x = 0x9e37_79b9u64;
    per_op_ns(|n| {
        for _ in 0..n {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            h.observe(x >> 44);
        }
        black_box(h.count());
    })
}

/// A server-metrics slice through `MetricsReport::to_json`, µs per report.
fn report_json_us() -> f64 {
    let metrics = ServerMetrics::new();
    per_op_ns(|n| {
        for _ in 0..n {
            let mut report = MetricsReport::new("probe");
            report.set("core", black_box(&metrics).to_json());
            black_box(report.to_json());
        }
    }) / 1e3
}

/// One self-rescheduling timer: the event queue's push + pop, through
/// the public scheduling API, deltas under 65 ms (where protocol timers
/// live).
fn tick(w: &mut World, mut state: u64) {
    state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    let delta = (state >> 33) % 65_536 + 1;
    w.schedule_in(SimDuration::from_micros(delta), move |w| tick(w, state));
}

fn timer_event() -> f64 {
    let mut w = World::new(0x5eed);
    w.start();
    for id in 0..64u64 {
        tick(&mut w, id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    }
    let mut until = SimTime::ZERO;
    per_op_ns(|n| {
        let want = w.events_processed() + n;
        while w.events_processed() < want {
            until += SimDuration::from_millis(1);
            w.run_until(until);
        }
    })
}

fn handshake() -> f64 {
    per_op_ns(|n| {
        for _ in 0..n {
            black_box(established());
        }
    })
}

/// A listening endpoint with 10 000 established, idle connections:
/// `on_time` + `next_deadline`, the pair every node callback ends with.
fn endpoint_deadline_10k() -> f64 {
    let mut client = TcpEndpoint::new(EndpointConfig::default());
    let mut server = TcpEndpoint::new(EndpointConfig {
        seed: 1,
        ..EndpointConfig::default()
    });
    server.listen(80, ListenConfig::default());
    let mut now = SimTime::from_millis(1);
    for i in 0..10_000u32 {
        let local = (
            Ipv4Addr::new(10, 1, (i / 250) as u8, (i % 250) as u8),
            40_000,
        );
        client.connect(now, local, (ip(100), 80));
    }
    loop {
        let to_server = client.poll_packets(now);
        let to_client = server.poll_packets(now);
        if to_server.is_empty() && to_client.is_empty() {
            break;
        }
        for p in &to_server {
            server.on_packet(now, p);
        }
        for p in &to_client {
            client.on_packet(now, p);
        }
    }
    assert_eq!(server.sockets().len(), 10_000, "handshakes completed");
    per_op_ns(|n| {
        for _ in 0..n {
            now += SimDuration::from_millis(1);
            server.on_time(now);
            black_box(server.next_deadline());
        }
    })
}

/// The standard three-node scenario, built and started: µs per build.
fn scenario_build_us() -> f64 {
    per_op_ns(|n| {
        for _ in 0..n {
            let app = Rc::new(|| Box::new(StreamApp::new(4096, false)) as Box<dyn Application>);
            let s = ScenarioBuilder::new(app, ClientWorkload::Download { total: 512 * 1024 })
                .seed(1)
                .build();
            black_box(s.world.node_count());
        }
    }) / 1e3
}

/// Every probe, by metric name.
pub fn run_all() -> Vec<(&'static str, f64)> {
    vec![
        ("probe.simnet.frame_codec_ns_1460", frame_codec(1460)),
        ("probe.simtcp.seg_codec_ns_1460", seg_codec(1460)),
        ("probe.simtcp.pair_ns_per_seg_1460", pair_per_seg(1460)),
        ("probe.simtcp.hold_cycle_ns", hold_cycle()),
        ("probe.simtcp.seg_codec_ns_0", seg_codec(0)),
        ("probe.simtcp.pair_ns_per_seg_64", pair_per_seg(64)),
        ("probe.sttcp.hb_full_codec_ns_per_conn", hb_full_codec()),
        ("probe.obs.histogram_observe_ns", histogram_observe()),
        ("probe.simnet.timer_event_ns", timer_event()),
        ("probe.simtcp.handshake_ns", handshake()),
        (
            "probe.simtcp.endpoint_deadline_ns_10k",
            endpoint_deadline_10k(),
        ),
        ("probe.sttcp.hb_delta_codec_ns_per_conn", hb_delta_codec()),
        ("probe.apps.scenario_build_us", scenario_build_us()),
        ("probe.sttcp.ctrl_codec_ns_8k", ctrl_codec_8k()),
        ("probe.obs.report_json_us", report_json_us()),
    ]
}
