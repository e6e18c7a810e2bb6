//! The application-lag failure detector (§4.2.1): all of Table 1 row 2.
//!
//! Detects application crashes that leave the socket open (no FIN/RST):
//! the failed replica stops reading from its TCP receive buffer and stops
//! writing to its TCP send buffer, while its healthy twin keeps going.
//! The detector compares the local application's read/write positions
//! with the peer's (from the heartbeat) and condemns the peer when it
//! lags by more than `AppMaxLagBytes`, or by *any* amount for longer than
//! `AppMaxLagTime`. One [`AppLagDetector`] per server judges every
//! connection's [`AppLag`] history.
//!
//! The paper's caveat is preserved: if there is no connection activity,
//! neither side makes progress, no lag accrues, and detection waits for
//! the next activity.

use simnet::time::{SimDuration, SimTime};

use crate::config::StTcpConfig;
use crate::events::FailureReason;

/// What a [`LagTrack`] is judged by: the byte and time thresholds, the
/// byte criterion's confirmation window and its owner's check period.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LagLimits {
    pub(crate) bytes: u64,
    pub(crate) time: SimDuration,
    pub(crate) confirm: SimDuration,
    pub(crate) check_period: SimDuration,
}

impl LagLimits {
    /// `bytes` and `time` with `cfg`'s confirmation window and check period.
    pub(crate) fn new(bytes: u64, time: SimDuration, cfg: &StTcpConfig) -> LagLimits {
        LagLimits {
            bytes,
            time,
            confirm: cfg.effective_lag_confirm(),
            check_period: cfg.check_period,
        }
    }
}

/// Lag state for one direction of comparison: read or write positions
/// on one connection here, or (in [`crate::netdetect`], Table 1 row 4)
/// summed `LastByteReceived` / `LastAckReceived` across connections.
///
/// Three subtleties make this more than a subtraction:
///
/// * **Heartbeat staleness.** The peer's positions are known only as of
///   its last heartbeat, so at high throughput a perfectly healthy peer
///   appears to "lag" by `rate × staleness` at *every* check — at 5 MB/s
///   that is hundreds of kilobytes. No instantaneous comparison can be
///   trusted. The byte criterion therefore fires only when the peer is
///   behind by `AppMaxLagBytes` **and its reported position has stopped
///   advancing** for a confirmation window spanning several heartbeats —
///   the paper's "lags … for a short duration of time" (§4.2.1). A
///   healthy peer advances in every heartbeat, no matter the data rate; a
///   crashed application's positions freeze.
/// * **Per-byte aging.** The time criterion is the paper's "a particular
///   byte read/written by the primary application lags the corresponding
///   one at the backup by AppMaxLagTime" — the age of the *oldest*
///   position the peer has not yet matched, not "any lag sustained"
///   (which would also trip on staleness). We sample `(position, when I
///   reached it)` watermarks and age the oldest un-matched one.
/// * **Sparse visits.** An owner skips a check tick only where nothing
///   moved and the peer was level, so a peer found behind after a level
///   visit stalls from the tick before at the earliest: the visits judge
///   as visiting every tick would.
#[derive(Debug, Clone, Default)]
pub(crate) struct LagTrack {
    /// Last position the peer reported.
    peer_last: u64,
    /// When the peer's reported position last advanced (or was first
    /// observed, or last level).
    peer_progress_at: Option<SimTime>,
    /// `(position, time this side reached it)` samples not yet matched by
    /// the peer: empty exactly when the last visit found it level.
    /// Bounded by `max_time / check_period` entries.
    watermarks: std::collections::VecDeque<(u64, SimTime)>,
}

impl LagTrack {
    /// Feeds one observation of this side's position and the peer's last
    /// reported one; returns [`FailureReason::AppLagBytes`] or
    /// [`FailureReason::AppLagTime`] for whichever criterion condemned
    /// the peer.
    pub(crate) fn update(
        &mut self,
        now: SimTime,
        mine: u64,
        peers: u64,
        lim: &LagLimits,
    ) -> Option<FailureReason> {
        // Track peer progress. A peer that is not behind has nothing to
        // catch up with, so the stall clock runs only while it lags: an
        // idle stretch (both sides parked on the same position) must not
        // count as a confirmation window already served when this side
        // then bursts ahead of the peer's last heartbeat.
        let was_level = self.watermarks.is_empty();
        if peers > self.peer_last || peers >= mine || self.peer_progress_at.is_none() {
            self.peer_last = self.peer_last.max(peers);
            self.peer_progress_at = Some(now);
        } else if let Some(at) = self.peer_progress_at.filter(|_| was_level) {
            // Level at every tick skipped since, the one before included.
            self.peer_progress_at = Some(now - lim.check_period.min(now.saturating_since(at)));
        }
        // Record a watermark whenever this side has advanced.
        match self.watermarks.back() {
            Some(&(pos, _)) if pos >= mine => {}
            _ if mine > peers => self.watermarks.push_back((mine, now)),
            _ => {}
        }
        // Drop watermarks the peer has caught up with.
        while self
            .watermarks
            .front()
            .is_some_and(|&(pos, _)| peers >= pos)
        {
            self.watermarks.pop_front();
        }

        if peers >= mine {
            return None;
        }
        let lag = mine - peers;
        let peer_stalled = self
            .peer_progress_at
            .is_some_and(|at| now.saturating_since(at) >= lim.confirm);
        if lag >= lim.bytes && peer_stalled {
            return Some(FailureReason::AppLagBytes);
        }
        if let Some(&(_, when)) = self.watermarks.front() {
            if now.saturating_since(when) >= lim.time {
                return Some(FailureReason::AppLagTime);
            }
        }
        None
    }
}

/// One connection's application-lag history; void by default.
#[derive(Debug, Clone, Default)]
pub struct AppLag {
    read: LagTrack,
    write: LagTrack,
}

impl AppLag {
    /// True while periodic re-checks can change the verdict with no new
    /// position movement: some watermark is aging, i.e. the peer was
    /// behind at the last check. Otherwise only movement can.
    pub fn needs_check(&self) -> bool {
        !self.read.watermarks.is_empty() || !self.write.watermarks.is_empty()
    }
}

/// Whether row 2 judges, as the last reading handed over says.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engagement {
    /// The IP heartbeat is down (lag is then the network fault's
    /// symptom, row 4's to blame), or there is no member to judge.
    Off,
    /// IP up, but the last heartbeat is stale: a dead host's frozen
    /// positions are row 1's. Connections wait unjudged.
    Waiting,
    /// Fresh positions over a healthy network.
    Judging,
}

/// The application-lag detector: one per server.
#[derive(Debug, Clone)]
pub struct AppLagDetector {
    limits: LagLimits,
    /// The oldest heartbeat whose positions count: one heartbeat period
    /// plus two check periods.
    fresh_for: SimDuration,
    state: Engagement,
}

impl AppLagDetector {
    /// The detector of a server configured by `cfg`: off until handed a
    /// reading.
    pub fn new(cfg: &StTcpConfig) -> AppLagDetector {
        AppLagDetector {
            limits: LagLimits::new(cfg.app_max_lag_bytes, cfg.app_max_lag_time, cfg),
            fresh_for: cfg.hb_period + cfg.check_period * 2,
            state: Engagement::Off,
        }
    }

    /// Hands over the peer's reading at `now`: its IP heartbeat's state
    /// and its last arrival on either link. The edge the server walks
    /// every connection on: `Some(false)` into off (every history is
    /// void), `Some(true)` out of it (every connection looks once).
    pub fn engage(&mut self, now: SimTime, ip_up: bool, last_rx: Option<SimTime>) -> Option<bool> {
        let fresh = last_rx.is_some_and(|at| now.saturating_since(at) <= self.fresh_for);
        let state = match (ip_up, fresh) {
            (false, _) => Engagement::Off,
            (true, false) => Engagement::Waiting,
            (true, true) => Engagement::Judging,
        };
        let was_off = std::mem::replace(&mut self.state, state) == Engagement::Off;
        (was_off != (state == Engagement::Off)).then_some(was_off)
    }

    /// The engagement, as last handed over.
    pub fn state(&self) -> Engagement {
        self.state
    }

    /// Judges one connection's history, if judging, on the local
    /// application's `(read, written)` positions and the peer's last
    /// reported ones.
    pub fn check(
        &self,
        lag: &mut AppLag,
        now: SimTime,
        mine: (u64, u64),
        peers: (u64, u64),
    ) -> Option<FailureReason> {
        if self.state != Engagement::Judging {
            return None;
        }
        let r = lag.read.update(now, mine.0, peers.0, &self.limits);
        r.or(lag.write.update(now, mine.1, peers.1, &self.limits))
    }

    /// Whether a connection must stay in the check set for this row:
    /// every one while waiting, else one whose lag ages.
    pub fn keeps(&self, lag: &AppLag) -> bool {
        self.state == Engagement::Waiting || lag.needs_check()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    /// The default config's detector (a heartbeat older than 300 ms is
    /// stale) on a member just booted: IP presumed up, nothing heard.
    fn detector() -> AppLagDetector {
        let mut d = AppLagDetector::new(&StTcpConfig::default());
        d.engage(t(0), true, None);
        d
    }

    /// A judging detector with small thresholds, and one connection's
    /// history.
    struct Conn {
        det: AppLagDetector,
        lag: AppLag,
    }

    impl Conn {
        fn check(
            &mut self,
            now: SimTime,
            r: u64,
            w: u64,
            pr: u64,
            pw: u64,
        ) -> Option<FailureReason> {
            self.det.check(&mut self.lag, now, (r, w), (pr, pw))
        }
    }

    fn det() -> Conn {
        let limits = LagLimits {
            bytes: 1_000,
            time: SimDuration::from_millis(500),
            confirm: SimDuration::from_millis(200),
            check_period: SimDuration::from_millis(50),
        };
        let mut det = AppLagDetector {
            limits,
            ..detector()
        };
        det.engage(t(0), true, Some(t(0)));
        let lag = AppLag::default();
        Conn { det, lag }
    }

    #[test]
    fn the_reading_decides_the_engagement() {
        let mut d = AppLagDetector::new(&StTcpConfig::default());
        assert_eq!(d.state(), Engagement::Off, "no reading, nobody judged");
        assert_eq!(d.engage(t(0), false, None), None, "none reads as IP down");
        assert_eq!(d.state(), Engagement::Off);
        assert_eq!(d.engage(t(0), true, None), Some(true));
        assert_eq!(
            d.state(),
            Engagement::Waiting,
            "a fresh member boots waiting"
        );
        let now = t(1_000);
        assert_eq!(d.engage(now, true, None), None);
        assert_eq!(d.state(), Engagement::Waiting, "nothing heard");
        // Fresh up to one heartbeat period plus two check periods.
        assert_eq!(d.engage(now, true, Some(t(700))), None);
        assert_eq!(d.state(), Engagement::Judging);
        let later = now + SimDuration::from_micros(1);
        assert_eq!(d.engage(later, true, Some(t(700))), None);
        assert_eq!(d.state(), Engagement::Waiting);
        assert_eq!(d.engage(later, false, Some(later)), Some(false));
        assert_eq!(d.state(), Engagement::Off, "IP down, however fresh");
    }

    #[test]
    fn each_edge_is_reported_once() {
        let mut d = detector();
        let fresh = |ms| (t(ms), Some(t(ms)));
        let (now, rx) = fresh(100);
        assert_eq!(d.engage(now, true, rx), None, "waiting to judging");
        assert_eq!(d.engage(now, false, rx), Some(false));
        assert_eq!(d.engage(t(150), false, rx), None);
        assert_eq!(d.engage(t(900), true, rx), Some(true), "off to waiting");
        assert_eq!(d.engage(t(900), true, rx), None);
        assert_eq!(d.engage(t(950), false, rx), Some(false));
        let (now, rx) = fresh(1_000);
        assert_eq!(d.engage(now, true, rx), Some(true), "off to judging");
        assert_eq!(d.engage(now, true, rx), None);
    }

    #[test]
    fn a_waiting_detector_neither_judges_nor_releases_a_connection() {
        let mut d = det();
        assert_eq!(d.check(t(0), 0, 2_000, 0, 0), None);
        d.det.engage(t(400), true, Some(t(0)));
        assert_eq!(d.det.state(), Engagement::Waiting);
        assert_eq!(d.check(t(500), 0, 2_000, 0, 0), None, "a stale peer");
        assert!(d.det.keeps(&d.lag) && d.det.keeps(&AppLag::default()));
        // Fresh evidence again: the history aged meanwhile.
        d.det.engage(t(550), true, Some(t(550)));
        assert!(!d.det.keeps(&AppLag::default()));
        assert_eq!(
            d.check(t(550), 0, 2_000, 0, 0),
            Some(FailureReason::AppLagBytes)
        );
    }

    #[test]
    fn an_off_edge_voids_a_history() {
        let mut d = det();
        assert_eq!(d.check(t(0), 100, 0, 50, 0), None);
        assert!(d.det.keeps(&d.lag));
        // The server voids every history on the edge.
        assert_eq!(d.det.engage(t(100), false, Some(t(100))), Some(false));
        d.lag = AppLag::default();
        assert!(!d.det.keeps(&d.lag));
        assert_eq!(d.check(t(600), 100, 0, 50, 0), None, "off judges nothing");
        assert_eq!(d.det.engage(t(700), true, Some(t(700))), Some(true));
        // The clock restarted at the first judged visit.
        assert_eq!(d.check(t(700), 100, 0, 50, 0), None);
        assert_eq!(d.check(t(1_199), 100, 0, 50, 0), None);
        assert_eq!(
            d.check(t(1_200), 100, 0, 50, 0),
            Some(FailureReason::AppLagTime)
        );
    }

    #[test]
    fn a_level_peer_unvisited_for_seconds_stalls_from_the_tick_before() {
        // Visited level at 0 ms, then skipped (nothing moved) until a
        // burst at 3 000 ms: the peer was level at 2 950 ms too.
        let mut d = det();
        assert_eq!(d.check(t(0), 0, 0, 0, 0), None);
        assert_eq!(d.check(t(3_000), 0, 5_000, 0, 0), None);
        assert_eq!(d.check(t(3_149), 0, 5_000, 0, 0), None);
        assert_eq!(
            d.check(t(3_150), 0, 5_000, 0, 0),
            Some(FailureReason::AppLagBytes)
        );
    }

    #[test]
    fn no_lag_no_verdict() {
        let mut d = det();
        assert_eq!(d.check(t(0), 100, 100, 100, 100), None);
        assert_eq!(d.check(t(1_000), 500, 500, 500, 500), None);
    }

    #[test]
    fn peer_ahead_is_fine() {
        // The primary lagging *behind* the backup in our observation is the
        // peer being ahead — never a failure of the peer.
        let mut d = det();
        assert_eq!(d.check(t(0), 100, 100, 900, 900), None);
    }

    #[test]
    fn byte_threshold_fires_after_confirmation() {
        let mut d = det();
        assert_eq!(d.check(t(0), 2_000, 0, 0, 0), None);
        assert_eq!(d.check(t(199), 2_000, 0, 0, 0), None);
        assert_eq!(
            d.check(t(200), 2_000, 0, 0, 0),
            Some(FailureReason::AppLagBytes)
        );
    }

    #[test]
    fn write_lag_also_fires() {
        let mut d = det();
        assert_eq!(d.check(t(0), 0, 2_000, 0, 0), None);
        assert_eq!(
            d.check(t(200), 0, 2_000, 0, 0),
            Some(FailureReason::AppLagBytes)
        );
    }

    #[test]
    fn heartbeat_sawtooth_never_fires() {
        // A healthy fast transfer: between heartbeats the peer appears to
        // lag by more than the byte threshold, but every heartbeat arrival
        // snaps it (nearly) current. The confirmation window must absorb
        // this.
        let mut d = det();
        let mut my_written = 0u64;
        let mut peer_written = 0u64;
        for ms in (0..3_000u64).step_by(50) {
            my_written += 100_000; // huge rate
            if ms % 150 == 0 {
                peer_written = my_written; // heartbeat refresh
            }
            assert_eq!(
                d.check(t(ms), 0, my_written, 0, peer_written),
                None,
                "false positive at {ms}ms"
            );
        }
    }

    #[test]
    fn small_lag_needs_time() {
        let mut d = det();
        assert_eq!(d.check(t(0), 100, 0, 50, 0), None);
        assert_eq!(d.check(t(400), 100, 0, 50, 0), None);
        assert_eq!(
            d.check(t(500), 100, 0, 50, 0),
            Some(FailureReason::AppLagTime)
        );
    }

    #[test]
    fn catching_up_clears_the_clock() {
        let mut d = det();
        assert_eq!(d.check(t(0), 100, 0, 50, 0), None);
        // Peer catches up at t=300.
        assert_eq!(d.check(t(300), 100, 0, 100, 0), None);
        // Falls behind again; the timer restarts.
        assert_eq!(d.check(t(400), 200, 0, 150, 0), None);
        assert_eq!(d.check(t(800), 200, 0, 150, 0), None);
        assert_eq!(
            d.check(t(900), 200, 0, 150, 0),
            Some(FailureReason::AppLagTime)
        );
    }

    #[test]
    fn idle_connection_never_fires() {
        // No activity: both sides stuck at the same positions forever.
        let mut d = det();
        for ms in (0..10_000).step_by(100) {
            assert_eq!(d.check(t(ms), 42, 42, 42, 42), None);
        }
    }

    #[test]
    fn idle_time_is_not_a_confirmation_window_already_served() {
        // Both sides parked on the same position for seconds, then this
        // side bursts past the byte threshold before the peer's next
        // heartbeat can say it did the same: the peer's position "has
        // not advanced" for a long time, but it only started lagging now.
        let mut d = det();
        for ms in (0..3_000).step_by(50) {
            assert_eq!(d.check(t(ms), 0, 0, 0, 0), None);
        }
        assert_eq!(d.check(t(3_000), 0, 5_000, 0, 0), None);
        assert_eq!(d.check(t(3_100), 0, 9_000, 0, 0), None);
        // The heartbeat arrives: healthy after all.
        assert_eq!(d.check(t(3_150), 0, 9_500, 0, 9_000), None);
        // A peer that really froze is still condemned one window later.
        assert_eq!(d.check(t(3_349), 0, 20_000, 0, 9_000), None);
        assert_eq!(
            d.check(t(3_350), 0, 20_000, 0, 9_000),
            Some(FailureReason::AppLagBytes)
        );
    }

    #[test]
    fn reset_clears_history() {
        let mut d = det();
        let _ = d.check(t(0), 100, 0, 50, 0);
        d.lag = AppLag::default();
        assert_eq!(d.check(t(499), 100, 0, 50, 0), None);
        // Timer restarted at 499, so 500 total elapsed is not enough.
        assert_eq!(d.check(t(998), 100, 0, 50, 0), None);
        assert_eq!(
            d.check(t(999), 100, 0, 50, 0),
            Some(FailureReason::AppLagTime)
        );
    }

    #[test]
    fn read_and_write_tracks_are_independent() {
        let mut d = det();
        // Read side lags a little (timer running), write side healthy.
        assert_eq!(d.check(t(0), 100, 500, 50, 500), None);
        // Write side catches read side's timer should not be affected:
        assert_eq!(
            d.check(t(500), 100, 500, 50, 500),
            Some(FailureReason::AppLagTime)
        );
    }
}
