//! Per-server runtime metrics.
//!
//! A [`ServerMetrics`] rides inside each [`crate::server::StTcpServer`]
//! and is fed from the protocol hot paths: heartbeat arrival, the
//! periodic check timer, recovery fetch/replay, and failure verdicts.
//! Everything is a fixed-size counter, gauge, or fixed-bucket histogram
//! from the `obs` crate, so recording never allocates; serialization to
//! the [`obs::report::MetricsReport`] `core` section happens only when a
//! harness asks for it.

use obs::json::Json;
use obs::metrics::{Counter, Gauge, Histogram};
use simnet::time::SimTime;

use crate::events::{FailureReason, HbLink};
use crate::heartbeat::HB_CONN_LEN;

/// Metrics for one heartbeat link.
#[derive(Debug, Clone)]
struct HbLinkMetrics {
    /// Inter-arrival times of heartbeats on this link, in microseconds.
    inter_arrival: Histogram,
    /// Heartbeats received.
    received: Counter,
    last_rx: Option<SimTime>,
}

impl HbLinkMetrics {
    fn new() -> HbLinkMetrics {
        HbLinkMetrics {
            inter_arrival: Histogram::latency_us(),
            received: Counter::new(),
            last_rx: None,
        }
    }

    fn on_heartbeat(&mut self, now: SimTime) {
        self.received.inc();
        if let Some(prev) = self.last_rx {
            self.inter_arrival
                .observe_duration(now.saturating_since(prev));
        }
        self.last_rx = Some(now);
    }

    fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("received", Json::U64(self.received.get()));
        o.set("inter_arrival_us", self.inter_arrival.to_json());
        o
    }
}

/// Heartbeat bandwidth totals: what the primary's state announcements
/// cost on the wire, split into per-connection payload and framing
/// (header + optional ping trailer) overhead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HbBandwidth {
    /// Emit rounds (one per heartbeat timer tick that sent state).
    pub rounds: u64,
    /// Heartbeat frames sent (rounds × destinations × links).
    pub frames: u64,
    /// Per-connection entry bytes summed over every frame.
    pub payload_bytes: u64,
    /// Header and ping-trailer bytes summed over every frame.
    pub framing_bytes: u64,
    /// Connection entries summed over every frame.
    pub conn_entries: u64,
}

impl HbBandwidth {
    /// Counts one frame of `conns` connection records, `bytes` long on
    /// the wire: the records are payload, the rest is framing.
    pub fn add_frame(&mut self, conns: u64, bytes: u64) {
        let payload = conns * HB_CONN_LEN as u64;
        self.frames += 1;
        self.conn_entries += conns;
        self.payload_bytes += payload;
        self.framing_bytes += bytes.saturating_sub(payload);
    }

    /// Total bytes on the wire (payload + framing).
    pub fn total_bytes(&self) -> u64 {
        self.payload_bytes + self.framing_bytes
    }

    /// Average wire bytes per emit round (integer, 0 when idle).
    pub fn bytes_per_round(&self) -> u64 {
        self.total_bytes().checked_div(self.rounds).unwrap_or(0)
    }

    /// Average payload bytes per announced connection entry (integer,
    /// 0 when no entries were sent).
    pub fn bytes_per_conn(&self) -> u64 {
        self.payload_bytes
            .checked_div(self.conn_entries)
            .unwrap_or(0)
    }

    /// This accounting as a JSON object (nested under
    /// `heartbeat.bandwidth` in the server's metrics slice).
    pub fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("rounds", Json::U64(self.rounds));
        o.set("frames", Json::U64(self.frames));
        o.set("payload_bytes", Json::U64(self.payload_bytes));
        o.set("framing_bytes", Json::U64(self.framing_bytes));
        o.set("total_bytes", Json::U64(self.total_bytes()));
        o.set("conn_entries", Json::U64(self.conn_entries));
        o.set("bytes_per_round", Json::U64(self.bytes_per_round()));
        o.set("bytes_per_conn", Json::U64(self.bytes_per_conn()));
        o
    }
}

/// Counters, gauges, and histograms fed from the ST-TCP hot paths.
#[derive(Debug, Clone)]
pub struct ServerMetrics {
    hb_ip: HbLinkMetrics,
    hb_serial: HbLinkMetrics,
    /// Outbound heartbeat bandwidth accounting.
    hb_bandwidth: HbBandwidth,
    /// Hold-buffer (extended receive buffer) occupancy high-water mark.
    hold: Gauge,
    /// Bytes this primary served to the backup's fetch requests.
    fetch_bytes_served: Counter,
    /// Bytes this backup replayed into its stream from fetch replies.
    replay_bytes: Counter,
    /// Failure verdicts, indexed like [`FailureReason::ALL`].
    verdicts: [Counter; FailureReason::ALL.len()],
    /// Congestion-window samples across connections, in bytes.
    cwnd: Histogram,
    /// Send-buffer occupancy (unacked bytes), summed across connections.
    send_occupancy: Gauge,
    /// Receive-side occupancy (readable + out-of-order), summed across
    /// connections.
    recv_occupancy: Gauge,
    /// Semantically corrupt heartbeat payloads rejected by the sanity
    /// check (CRC-valid but with impossible counter regressions).
    byzantine_rejected: Counter,
    /// Pool strength: this member plus every live, non-fenced peer.
    /// Stays 0 in pair mode.
    pool_strength: Gauge,
    /// Accepted or installed connections whose 32-bit `conn_key` was
    /// already bound to a different four-tuple: the older socket drops
    /// out of heartbeats, detectors and sampling.
    conn_key_collisions: Counter,
    /// Connection visits made by the periodic timers (check tick,
    /// recovery, heartbeat record selection, hole check, app tick). A
    /// sim-time-normalised, host-independent scale gate: per tick it
    /// must track the *active* connection count, not the resident one.
    timer_conn_visits: Counter,
}

impl Default for ServerMetrics {
    fn default() -> ServerMetrics {
        ServerMetrics::new()
    }
}

impl ServerMetrics {
    /// Creates zeroed metrics.
    pub fn new() -> ServerMetrics {
        ServerMetrics {
            hb_ip: HbLinkMetrics::new(),
            hb_serial: HbLinkMetrics::new(),
            hb_bandwidth: HbBandwidth::default(),
            hold: Gauge::new(),
            fetch_bytes_served: Counter::new(),
            replay_bytes: Counter::new(),
            verdicts: [Counter::new(); FailureReason::ALL.len()],
            cwnd: Histogram::bytes(),
            send_occupancy: Gauge::new(),
            recv_occupancy: Gauge::new(),
            byzantine_rejected: Counter::new(),
            pool_strength: Gauge::new(),
            conn_key_collisions: Counter::new(),
            timer_conn_visits: Counter::new(),
        }
    }

    /// Records a `conn_key` collision between two live four-tuples.
    pub fn on_conn_key_collision(&mut self) {
        self.conn_key_collisions.inc();
    }

    /// `conn_key` collisions so far.
    pub fn conn_key_collisions(&self) -> u64 {
        self.conn_key_collisions.get()
    }

    /// Records `n` connections visited by a periodic timer path.
    pub fn on_timer_visits(&mut self, n: usize) {
        self.timer_conn_visits.add(n as u64);
    }

    /// Connections visited by periodic timer paths so far.
    pub fn timer_conn_visits(&self) -> u64 {
        self.timer_conn_visits.get()
    }

    /// Records a heartbeat payload rejected as semantically corrupt.
    pub fn on_byzantine_rejected(&mut self) {
        self.byzantine_rejected.inc();
    }

    /// Heartbeat payloads rejected as semantically corrupt so far.
    pub fn byzantine_rejected(&self) -> u64 {
        self.byzantine_rejected.get()
    }

    /// Samples the pool strength (called per check period in pool mode).
    pub fn sample_pool_strength(&mut self, members: u64) {
        self.pool_strength.set(members);
    }

    /// The most recent pool-strength sample (0 in pair mode).
    pub fn pool_strength(&self) -> u64 {
        self.pool_strength.get()
    }

    /// Records one emit round of outbound heartbeat state: the frames
    /// counted into `round`.
    pub fn on_hb_round(&mut self, round: HbBandwidth) {
        let bw = &mut self.hb_bandwidth;
        bw.rounds += 1;
        bw.frames += round.frames;
        bw.conn_entries += round.conn_entries;
        bw.payload_bytes += round.payload_bytes;
        bw.framing_bytes += round.framing_bytes;
    }

    /// The outbound heartbeat bandwidth accounting so far.
    pub fn hb_bandwidth(&self) -> HbBandwidth {
        self.hb_bandwidth
    }

    /// Records a heartbeat arriving on `link`.
    pub fn on_heartbeat(&mut self, link: HbLink, now: SimTime) {
        match link {
            HbLink::Ip => self.hb_ip.on_heartbeat(now),
            HbLink::Serial => self.hb_serial.on_heartbeat(now),
        }
    }

    /// Records a failure verdict.
    pub fn on_verdict(&mut self, reason: FailureReason) {
        let i = FailureReason::ALL
            .iter()
            .position(|&r| r == reason)
            .unwrap();
        self.verdicts[i].inc();
    }

    /// How many times `reason` fired.
    pub fn verdict_count(&self, reason: FailureReason) -> u64 {
        let i = FailureReason::ALL
            .iter()
            .position(|&r| r == reason)
            .unwrap();
        self.verdicts[i].get()
    }

    /// Samples the hold-buffer occupancy (called per check period).
    pub fn sample_hold(&mut self, used: u64) {
        self.hold.set(used);
    }

    /// The hold-buffer high-water mark.
    pub fn hold_high_water(&self) -> u64 {
        self.hold.high_water()
    }

    /// Records bytes served to a backup fetch request.
    pub fn on_fetch_served(&mut self, bytes: u64) {
        self.fetch_bytes_served.add(bytes);
    }

    /// Records bytes replayed into the local stream from a fetch reply.
    pub fn on_replay(&mut self, bytes: u64) {
        self.replay_bytes.add(bytes);
    }

    /// Bytes served to fetch requests so far.
    pub fn fetch_bytes_served(&self) -> u64 {
        self.fetch_bytes_served.get()
    }

    /// Bytes replayed from fetch replies so far.
    pub fn replay_bytes(&self) -> u64 {
        self.replay_bytes.get()
    }

    /// Samples per-connection TCP state, summed across live connections
    /// (called per check period).
    pub fn sample_tcp(&mut self, cwnd_sum: u64, send_occupancy: u64, recv_occupancy: u64) {
        self.cwnd.observe(cwnd_sum);
        self.send_occupancy.set(send_occupancy);
        self.recv_occupancy.set(recv_occupancy);
    }

    /// Heartbeats received on `link`.
    pub fn hb_received(&self, link: HbLink) -> u64 {
        match link {
            HbLink::Ip => self.hb_ip.received.get(),
            HbLink::Serial => self.hb_serial.received.get(),
        }
    }

    /// The heartbeat inter-arrival histogram for `link` (microseconds).
    pub fn hb_inter_arrival(&self, link: HbLink) -> &Histogram {
        match link {
            HbLink::Ip => &self.hb_ip.inter_arrival,
            HbLink::Serial => &self.hb_serial.inter_arrival,
        }
    }

    /// The full metrics as a JSON object (one server's slice of the
    /// report's `core` section).
    pub fn to_json(&self) -> Json {
        let mut o = Json::obj();
        let mut hb = Json::obj();
        hb.set("ip", self.hb_ip.to_json());
        hb.set("serial", self.hb_serial.to_json());
        hb.set("bandwidth", self.hb_bandwidth.to_json());
        o.set("heartbeat", hb);
        o.set("hold_high_water_bytes", Json::U64(self.hold.high_water()));
        o.set(
            "fetch_bytes_served",
            Json::U64(self.fetch_bytes_served.get()),
        );
        o.set("replay_bytes", Json::U64(self.replay_bytes.get()));
        let mut v = Json::obj();
        for (reason, c) in FailureReason::ALL.iter().zip(self.verdicts.iter()) {
            if c.get() > 0 {
                v.set(reason.key(), Json::U64(c.get()));
            }
        }
        o.set("verdicts", v);
        o.set("cwnd_bytes", self.cwnd.to_json());
        o.set(
            "send_occupancy_high_water",
            Json::U64(self.send_occupancy.high_water()),
        );
        o.set(
            "recv_occupancy_high_water",
            Json::U64(self.recv_occupancy.high_water()),
        );
        o.set(
            "byzantine_rejected",
            Json::U64(self.byzantine_rejected.get()),
        );
        o.set("pool_strength", self.pool_strength.to_json());
        // Like verdicts, reported only once it moves: a report from a
        // collision-free run is unchanged.
        if self.conn_key_collisions.get() > 0 {
            o.set(
                "conn_key_collisions",
                Json::U64(self.conn_key_collisions.get()),
            );
        }
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::time::SimDuration;

    #[test]
    fn heartbeat_interarrival_is_tracked_per_link() {
        let mut m = ServerMetrics::new();
        for i in 0..5 {
            m.on_heartbeat(
                HbLink::Ip,
                SimTime::ZERO + SimDuration::from_millis(100) * i,
            );
        }
        m.on_heartbeat(HbLink::Serial, SimTime::from_millis(500));
        assert_eq!(m.hb_received(HbLink::Ip), 5);
        assert_eq!(m.hb_received(HbLink::Serial), 1);
        // 5 arrivals ⇒ 4 gaps of 100ms each.
        let h = m.hb_inter_arrival(HbLink::Ip);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 4 * 100_000);
        assert_eq!(m.hb_inter_arrival(HbLink::Serial).count(), 0);
    }

    #[test]
    fn verdicts_count_per_reason() {
        let mut m = ServerMetrics::new();
        m.on_verdict(FailureReason::HbBothLinksDown);
        m.on_verdict(FailureReason::HbBothLinksDown);
        m.on_verdict(FailureReason::HoldOverflow);
        assert_eq!(m.verdict_count(FailureReason::HbBothLinksDown), 2);
        assert_eq!(m.verdict_count(FailureReason::HoldOverflow), 1);
        assert_eq!(m.verdict_count(FailureReason::AppLagTime), 0);
        let j = m.to_json().to_string();
        assert!(j.contains("\"hb_both_links_down\":2"));
        assert!(!j.contains("app_lag_time"), "zero verdicts are omitted");
    }

    #[test]
    fn gauges_keep_high_water_marks() {
        let mut m = ServerMetrics::new();
        m.sample_hold(100);
        m.sample_hold(4096);
        m.sample_hold(10);
        assert_eq!(m.hold_high_water(), 4096);
        m.sample_tcp(1460, 2920, 512);
        m.sample_tcp(2920, 100, 4096);
        let j = m.to_json().to_string();
        assert!(j.contains("\"send_occupancy_high_water\":2920"));
        assert!(j.contains("\"recv_occupancy_high_water\":4096"));
    }

    #[test]
    fn hb_bandwidth_accumulates_and_averages() {
        let mut m = ServerMetrics::new();
        assert_eq!(m.hb_bandwidth(), HbBandwidth::default());
        // Two rounds, two frames each (IP + serial), one conn of 21B
        // payload behind 13B of header per frame.
        let mut round = HbBandwidth::default();
        round.add_frame(1, 34);
        round.add_frame(1, 34);
        m.on_hb_round(round);
        m.on_hb_round(round);
        let bw = m.hb_bandwidth();
        assert_eq!(bw.rounds, 2);
        assert_eq!(bw.frames, 4);
        assert_eq!(bw.total_bytes(), 136);
        assert_eq!(bw.bytes_per_round(), 68);
        assert_eq!(bw.bytes_per_conn(), 21);
        let j = m.to_json().to_string();
        assert!(j.contains("\"bandwidth\":{\"rounds\":2"));
        assert!(j.contains("\"bytes_per_conn\":21"));
    }

    #[test]
    fn byte_counters_accumulate() {
        let mut m = ServerMetrics::new();
        m.on_fetch_served(1000);
        m.on_fetch_served(500);
        m.on_replay(1460);
        assert_eq!(m.fetch_bytes_served(), 1500);
        assert_eq!(m.replay_bytes(), 1460);
    }
}
