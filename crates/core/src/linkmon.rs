//! Per-link heartbeat liveness monitoring.
//!
//! One [`LinkMonitor`] per heartbeat link (IP and serial). A link is
//! *alive* while heartbeats keep arriving within the timeout; the
//! combination of the two monitors drives the paper's failure taxonomy:
//! both dead ⇒ peer crashed (Table 1 row 1); IP dead + serial alive ⇒
//! local network failure (row 4); both alive ⇒ use the heartbeat contents
//! (rows 2, 3, 5).
//!
//! **Silence is timed, not polled.** A monitor knows the instant it will
//! fall silent — [`LinkMonitor::deadline`] plus its
//! [`guard`](LinkMonitor::guard) — and the server keeps one timer on the
//! earliest such instant over all its monitors ([`next_silence`]), so a
//! liveness verdict is taken when the silence is complete and not on the
//! next check tick after it. The guard is the margin a poll used to
//! supply by accident of phase (up to one `check_period`), measured
//! instead: four times the smoothed deviation of this link's arrivals
//! from the sender's period grid (Jacobson's RTTVAR recurrence), never
//! under 1 µs — a heartbeat landing on the very instant of the deadline
//! still counts, although the timer was queued first — and never over
//! `check_period`, so no verdict is later than the latest a poll could
//! have made it. With `hb_timeout` an exact multiple of `hb_period`, the
//! heartbeat that ends a two-round loss is due *on* the deadline; the
//! guard is what keeps its microseconds of link jitter from deciding a
//! takeover.

use simnet::time::{SimDuration, SimTime};

use crate::config::{Role, StTcpConfig};
use crate::events::{HbLink, StTcpEvent};
use crate::heartbeat::{HbPayload, PingReport};
use crate::metrics::ServerMetrics;

/// The guard's floor: one tick of virtual time.
const MIN_GUARD: SimDuration = SimDuration::from_micros(1);

/// Liveness tracker for one heartbeat link.
#[derive(Debug, Clone)]
pub struct LinkMonitor {
    timeout: SimDuration,
    /// The sender's heartbeat period: the grid arrivals are held against.
    period: SimDuration,
    /// The guard's ceiling (`check_period`).
    max_guard: SimDuration,
    last_rx: Option<SimTime>,
    started_at: SimTime,
    /// Four times the smoothed mean deviation of arrivals from the
    /// period grid, in microseconds.
    jitter4: u64,
}

impl LinkMonitor {
    /// Creates a monitor for a link heartbeating under `cfg`. Until the
    /// first heartbeat arrives, the link is given the timeout of grace
    /// from `started_at`.
    pub fn new(cfg: &StTcpConfig, started_at: SimTime) -> LinkMonitor {
        LinkMonitor {
            timeout: cfg.hb_timeout(),
            period: cfg.hb_period,
            max_guard: cfg.check_period,
            last_rx: None,
            started_at,
            jitter4: 0,
        }
    }

    /// The same monitor for a fresh incarnation of the sender at `now`:
    /// nothing heard, nothing measured, the grace period running again.
    pub fn restarted(&self, now: SimTime) -> LinkMonitor {
        LinkMonitor {
            last_rx: None,
            started_at: now,
            jitter4: 0,
            ..*self
        }
    }

    /// Records a heartbeat arrival. The gap since the previous one is a
    /// whole number of periods (rounds may be lost) plus this arrival's
    /// jitter; the jitter feeds the guard.
    pub fn on_heartbeat(&mut self, now: SimTime) {
        if let Some(prev) = self.last_rx {
            let period = self.period.as_micros().max(1);
            let off = now.saturating_since(prev).as_micros() % period;
            let err = off.min(period - off);
            self.jitter4 = self.jitter4 - self.jitter4 / 4 + err;
        }
        self.last_rx = Some(now);
    }

    /// The last heartbeat arrival, if any.
    pub fn last_rx(&self) -> Option<SimTime> {
        self.last_rx
    }

    /// True while the link is considered alive at `now`: the nominal
    /// timeout, no guard — what a fence vote and the pool's strength
    /// count go by.
    pub fn is_alive(&self, now: SimTime) -> bool {
        let anchor = self.last_rx.unwrap_or(self.started_at);
        now.saturating_since(anchor) < self.timeout
    }

    /// When the link will be declared dead if no further heartbeat
    /// arrives — nominally; the verdict waits for [`LinkMonitor::guard`]
    /// on top.
    pub fn deadline(&self) -> SimTime {
        let anchor = self.last_rx.unwrap_or(self.started_at);
        anchor + self.timeout
    }

    /// The measured arrival-jitter allowance on top of the deadline.
    pub fn guard(&self) -> SimDuration {
        // Mutation seam (`RUSTFLAGS="--cfg mutate_no_hb_guard"`): the
        // liveness timer then ties with a heartbeat due on the deadline
        // and, queued first, wins. tests/chaos.rs must notice.
        #[cfg(mutate_no_hb_guard)]
        return SimDuration::ZERO;
        #[cfg(not(mutate_no_hb_guard))]
        SimDuration::from_micros(self.jitter4)
            .min(self.max_guard)
            .max(MIN_GUARD)
    }

    /// True once the link's silence is a verdict at `now`: the deadline
    /// and the guard have both passed. This, not `!is_alive`, is what
    /// the failure detectors act on.
    pub fn is_silent(&self, now: SimTime) -> bool {
        now >= self.silent_at()
    }

    fn silent_at(&self) -> SimTime {
        self.deadline() + self.guard()
    }
}

/// Everything a receiver tracks about one heartbeat *source* — the pair's
/// single peer, or one pool member: a monitor per link and the check's
/// last reading of each, the stream's sequence state that decides whether
/// a frame may refresh them, the ping report it last carried, and the
/// resurrection rule. No live incarnation ever demotes itself, so a
/// source seen serving that heartbeats as a `Backup` restarted faster
/// than the liveness timeout: it is `defunct`, condemnable although
/// heard — by the pair's row 1 and the pool's fence alike.
#[derive(Debug)]
pub(crate) struct HbSource {
    /// IP heartbeat liveness.
    pub(crate) ip_mon: LinkMonitor,
    /// Serial heartbeat liveness.
    pub(crate) serial_mon: LinkMonitor,
    /// The links as the last check read them ([`HbSource::read_links`]).
    pub(crate) ip_up: bool,
    pub(crate) serial_up: bool,
    /// Highest heartbeat seqno the source's stream advanced to, on any
    /// link.
    pub(crate) last_seqno: Option<u32>,
    /// When `last_seqno` last advanced. A frame that does not advance the
    /// stream proves liveness only within one heartbeat timeout of this
    /// point — a seqno frozen for longer is a replayed or insane stream
    /// and must starve the link monitors instead of refreshing them.
    pub(crate) seqno_advanced_at: SimTime,
    /// The gateway-ping report on the stream's newest frame (Table 1
    /// row 4's evidence about the source's own network).
    pub(crate) ping: Option<PingReport>,
    /// A byzantine heartbeat from this source was already logged (sticky,
    /// to keep the event log bounded).
    pub(crate) byzantine_reported: bool,
    /// The role the source last announced on an advancing frame;
    /// `Backup` until it is heard serving.
    pub(crate) role: Role,
    /// Seen serving, now speaking as a backup. Sticky until the stream
    /// advances on a `Primary` frame or the incarnation is forgotten.
    pub(crate) defunct: bool,
}

impl HbSource {
    /// A source first expected at `now`: nothing heard, grace running.
    pub(crate) fn new(cfg: &StTcpConfig, now: SimTime) -> HbSource {
        HbSource {
            ip_mon: LinkMonitor::new(cfg, now),
            serial_mon: LinkMonitor::new(cfg, now),
            ip_up: true,
            serial_up: true,
            last_seqno: None,
            seqno_advanced_at: now,
            ping: None,
            byzantine_reported: false,
            role: Role::Backup,
            defunct: false,
        }
    }

    /// The rule's first step, on every frame before the staleness filter
    /// (a fresh boot restarts its seqnos): a `Primary` → `Backup`
    /// demotion marks the source defunct. The event to log, once.
    pub(crate) fn note_demotion(&mut self, hb: &HbPayload, now: SimTime) -> Option<StTcpEvent> {
        let demoted = self.role == Role::Primary && hb.role == Role::Backup && !self.defunct;
        self.defunct |= demoted;
        let (rank, at) = (hb.rank, now);
        demoted.then_some(StTcpEvent::DefunctActiveDetected { rank, at })
    }

    /// A frame heard on `link` credits that link's monitor and arrival
    /// metrics — one that does not advance the stream (a round's second
    /// copy, a straggler, a frozen sender) only within the timeout of
    /// the stream's last advance.
    pub(crate) fn credit(&mut self, link: HbLink, now: SimTime, metrics: &mut ServerMetrics) {
        if now.saturating_since(self.seqno_advanced_at) > self.ip_mon.timeout {
            return;
        }
        match link {
            HbLink::Ip => self.ip_mon.on_heartbeat(now),
            HbLink::Serial => self.serial_mon.on_heartbeat(now),
        }
        metrics.on_heartbeat(link, now);
    }

    /// The check's reading of both links at `now`: each is up until its
    /// silence is a verdict. The links whose reading changed since the
    /// last, IP first, each with its new reading.
    pub(crate) fn read_links(&mut self, now: SimTime) -> [Option<(HbLink, bool)>; 2] {
        let (ip, serial) = (!self.ip_mon.is_silent(now), !self.serial_mon.is_silent(now));
        let edge = |link, up, was| (up != was).then_some((link, up));
        let edges = [
            edge(HbLink::Ip, ip, self.ip_up),
            edge(HbLink::Serial, serial, self.serial_up),
        ];
        (self.ip_up, self.serial_up) = (ip, serial);
        edges
    }

    /// The latest arrival on either link, if anything was heard yet.
    pub(crate) fn last_rx(&self) -> Option<SimTime> {
        self.ip_mon.last_rx().max(self.serial_mon.last_rx())
    }

    /// The stream advanced to `hb` at `now`: its ping report is the
    /// latest; the rule's second step records its role, and a `Primary`
    /// (serving again, or a reordered frame from its serving days)
    /// withdraws the defunct mark.
    pub(crate) fn advance(&mut self, hb: &HbPayload, now: SimTime) {
        self.last_seqno = Some(hb.seqno);
        self.seqno_advanced_at = now;
        self.ping = hb.ping;
        if hb.role == Role::Primary {
            self.defunct = false;
        }
        self.role = hb.role;
    }

    /// Latches the byzantine report; true the first time only.
    pub(crate) fn first_byzantine_report(&mut self) -> bool {
        !std::mem::replace(&mut self.byzantine_reported, true)
    }

    /// A fresh incarnation of the source speaks from `now`, as a backup:
    /// its stream restarts, and nothing its predecessor was caught at
    /// carries over. The link monitors are the caller's call.
    pub(crate) fn forget_incarnation(&mut self, now: SimTime) {
        self.last_seqno = None;
        self.seqno_advanced_at = now;
        self.byzantine_reported = false;
        self.role = Role::Backup;
        self.defunct = false;
    }
}

/// The earliest instant after `now` at which one of `mons` falls silent
/// if nothing more arrives — what the server's one liveness timer is
/// kept on, in pair and in pool mode alike.
pub fn next_silence<'a>(
    mons: impl IntoIterator<Item = &'a LinkMonitor>,
    now: SimTime,
) -> Option<SimTime> {
    mons.into_iter()
        .map(LinkMonitor::silent_at)
        .filter(|&at| at > now)
        .min()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn alive_within_timeout() {
        let mut m = LinkMonitor::new(&StTcpConfig::default(), t(0));
        m.on_heartbeat(t(100));
        assert!(m.is_alive(t(100)));
        assert!(m.is_alive(t(699)));
        assert!(!m.is_alive(t(700)));
    }

    #[test]
    fn grace_period_before_first_heartbeat() {
        let m = LinkMonitor::new(&StTcpConfig::default(), t(1_000));
        assert!(m.is_alive(t(1_000)));
        assert!(m.is_alive(t(1_599)));
        assert!(!m.is_alive(t(1_600)));
        assert_eq!(m.last_rx(), None);
    }

    #[test]
    fn recovery_after_outage() {
        let mut m = LinkMonitor::new(&StTcpConfig::default(), t(0));
        m.on_heartbeat(t(100));
        assert!(!m.is_alive(t(800)));
        m.on_heartbeat(t(900));
        assert!(m.is_alive(t(1_000)));
    }

    #[test]
    fn deadline_tracks_last_rx() {
        let mut m = LinkMonitor::new(&StTcpConfig::default(), t(0));
        assert_eq!(m.deadline(), t(600));
        m.on_heartbeat(t(250));
        assert_eq!(m.deadline(), t(850));
    }

    const US: SimDuration = SimDuration::from_micros(1);

    #[test]
    fn silence_waits_out_the_guard_and_a_heartbeat_on_the_deadline_counts() {
        let mut m = LinkMonitor::new(&StTcpConfig::default(), t(0));
        m.on_heartbeat(t(100));
        // Nothing measured yet: the guard is its floor.
        assert_eq!(m.guard(), US);
        assert!(!m.is_alive(t(700)) && !m.is_silent(t(700)));
        assert!(m.is_silent(t(700) + US));
        assert_eq!(next_silence([&m], t(100)), Some(t(700) + US));
        assert_eq!(next_silence([&m], t(700)), Some(t(700) + US));
        assert_eq!(next_silence([&m], t(700) + US), None);
        // Two rounds lost, the third lands on the very deadline.
        m.on_heartbeat(t(700));
        assert!(!m.is_silent(t(700) + US));
        assert_eq!(m.guard(), US, "a gap of whole periods is not jitter");
    }

    #[test]
    fn guard_follows_the_measured_jitter_between_its_floor_and_cap() {
        let cfg = StTcpConfig::default();
        let mut m = LinkMonitor::new(&cfg, t(0));
        let us = SimTime::from_micros;
        m.on_heartbeat(us(100));
        // 300 µs late against the grid, then back on it, then a lost round.
        m.on_heartbeat(us(200_400));
        assert_eq!(m.guard(), SimDuration::from_micros(300));
        m.on_heartbeat(us(400_100));
        assert_eq!(m.guard(), SimDuration::from_micros(225 + 300));
        m.on_heartbeat(us(800_100));
        assert_eq!(m.guard(), SimDuration::from_micros(394));
        // A sender that restarts on another phase: capped, then decaying.
        m.on_heartbeat(us(1_100_100));
        assert_eq!(m.guard(), cfg.check_period);
        for k in 1..=20 {
            m.on_heartbeat(us(1_100_100 + k * 200_000));
        }
        assert!(m.guard() < SimDuration::from_millis(1), "{:?}", m.guard());
        // A fresh incarnation starts over.
        let r = m.restarted(t(9_000));
        assert_eq!((r.guard(), r.last_rx(), r.deadline()), (US, None, t(9_600)));
    }

    #[test]
    fn the_timer_is_kept_on_the_earliest_silence_still_ahead() {
        let cfg = StTcpConfig::default();
        let (mut ip, mut serial) = (LinkMonitor::new(&cfg, t(0)), LinkMonitor::new(&cfg, t(0)));
        ip.on_heartbeat(t(200));
        serial.on_heartbeat(t(203));
        assert_eq!(next_silence([&ip, &serial], t(250)), Some(t(800) + US));
        assert_eq!(next_silence([&ip, &serial], t(801)), Some(t(803) + US));
        assert_eq!(next_silence([&ip, &serial], t(804)), None);
        assert_eq!(next_silence(std::iter::empty(), t(0)), None);
    }

    mod props {
        use super::*;
        use proptest::collection::vec;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// The differential oracle for the liveness timer. Rounds
            /// leave on the sender's period grid; each is lost or arrives
            /// after the link's latency plus its own jitter (small, LAN
            /// sized, or a whole phase jump). After every arrival, were
            /// it the last: the instant the timer is kept on is exactly
            /// the first instant a microsecond-by-microsecond poll finds
            /// the link silent; it is later than `last_rx + hb_timeout`
            /// (a heartbeat on the deadline counts) and never later than
            /// `check_period` past it — the latest the tick's poll of
            /// `!is_alive` could have noticed, whatever its phase.
            #[test]
            fn timed_silence_is_what_a_microsecond_poll_would_see(
                rounds in vec(
                    (any::<bool>(), prop_oneof![0u64..200, 0u64..3_000, 0u64..100_000]),
                    1..16,
                ),
                latency in 0u64..5_000,
            ) {
                let cfg = StTcpConfig::default();
                let (timeout, tick) = (cfg.hb_timeout(), cfg.check_period);
                let mut m = LinkMonitor::new(&cfg, SimTime::ZERO);
                for (k, &(lost, jitter)) in rounds.iter().enumerate() {
                    if lost {
                        continue;
                    }
                    let sent = cfg.hb_period.saturating_mul(k as u64);
                    let at = SimTime::ZERO + sent + SimDuration::from_micros(latency + jitter);
                    m.on_heartbeat(at);
                    let nominal = at + timeout;
                    prop_assert_eq!(m.deadline(), nominal);
                    prop_assert!(!m.is_alive(nominal) && !m.is_silent(nominal));

                    let mut polled = nominal;
                    while !m.is_silent(polled) {
                        polled += US;
                    }
                    let timed = next_silence([&m], at);
                    prop_assert_eq!(timed, Some(polled));
                    prop_assert_eq!(next_silence([&m], polled), None);
                    prop_assert!(polled > nominal && polled <= nominal + tick);
                }
            }
        }
    }
}
