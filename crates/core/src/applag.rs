//! The application-lag failure detector (§4.2.1).
//!
//! Detects application crashes that leave the socket open (no FIN/RST):
//! the failed replica stops reading from its TCP receive buffer and stops
//! writing to its TCP send buffer, while its healthy twin keeps going.
//! The detector compares the local application's read/write positions
//! with the peer's (from the heartbeat) and condemns the peer when it
//! lags by more than `AppMaxLagBytes`, or by *any* amount for longer than
//! `AppMaxLagTime`.
//!
//! The paper's caveat is preserved: if there is no connection activity,
//! neither side makes progress, no lag accrues, and detection waits for
//! the next activity.

use simnet::time::{SimDuration, SimTime};

use crate::events::FailureReason;

/// Lag state for one direction of comparison: read or write positions
/// on one connection here, or (in [`crate::netdetect`], Table 1 row 4)
/// summed `LastByteReceived` / `LastAckReceived` across connections.
///
/// Two subtleties make this more than a subtraction:
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
#[derive(Debug, Clone, Default)]
pub(crate) struct LagTrack {
    /// Last position the peer reported.
    peer_last: u64,
    /// When the peer's reported position last advanced (or was first
    /// observed).
    peer_progress_at: Option<SimTime>,
    /// `(position, time this side reached it)` samples not yet matched by
    /// the peer. Bounded by `max_time / check_period` entries.
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
        max_bytes: u64,
        max_time: SimDuration,
        confirm: SimDuration,
    ) -> Option<FailureReason> {
        // Track peer progress. A peer that is not behind has nothing to
        // catch up with, so the stall clock runs only while it lags: an
        // idle stretch (both sides parked on the same position) must not
        // count as a confirmation window already served when this side
        // then bursts ahead of the peer's last heartbeat.
        if peers > self.peer_last || peers >= mine || self.peer_progress_at.is_none() {
            self.peer_last = self.peer_last.max(peers);
            self.peer_progress_at = Some(now);
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
            .is_some_and(|at| now.saturating_since(at) >= confirm);
        if lag >= max_bytes && peer_stalled {
            return Some(FailureReason::AppLagBytes);
        }
        if let Some(&(_, when)) = self.watermarks.front() {
            if now.saturating_since(when) >= max_time {
                return Some(FailureReason::AppLagTime);
            }
        }
        None
    }
}

/// Application-lag detector for one connection.
#[derive(Debug, Clone)]
pub struct AppLagDetector {
    max_bytes: u64,
    max_time: SimDuration,
    confirm: SimDuration,
    read: LagTrack,
    write: LagTrack,
}

impl AppLagDetector {
    /// Creates a detector with the `AppMaxLagBytes` / `AppMaxLagTime`
    /// thresholds and the byte-threshold confirmation window (which must
    /// exceed the heartbeat period to absorb heartbeat staleness).
    pub fn new(max_bytes: u64, max_time: SimDuration, confirm: SimDuration) -> AppLagDetector {
        AppLagDetector {
            max_bytes,
            max_time,
            confirm,
            read: LagTrack::default(),
            write: LagTrack::default(),
        }
    }

    /// Feeds one observation and returns a failure verdict if the peer's
    /// application is now condemned.
    ///
    /// `my_read`/`my_written` are the local application's positions
    /// (`LastAppByteRead`/`LastAppByteWritten`); the `peer_*` values come
    /// from the most recent heartbeat.
    pub fn check(
        &mut self,
        now: SimTime,
        my_read: u64,
        my_written: u64,
        peer_read: u64,
        peer_written: u64,
    ) -> Option<FailureReason> {
        let r = self.read.update(
            now,
            my_read,
            peer_read,
            self.max_bytes,
            self.max_time,
            self.confirm,
        );
        let w = self.write.update(
            now,
            my_written,
            peer_written,
            self.max_bytes,
            self.max_time,
            self.confirm,
        );
        r.or(w)
    }

    /// Clears any accrued lag history (used after role changes).
    pub fn reset(&mut self) {
        self.read = LagTrack::default();
        self.write = LagTrack::default();
    }

    /// True while periodic re-checks can change the verdict with no new
    /// position movement: some watermark is aging, i.e. the peer was
    /// behind at the last check. A detector with no outstanding lag only
    /// reacts to position changes, so the server may skip its checks
    /// until local or peer positions move again.
    pub fn needs_check(&self) -> bool {
        !self.read.watermarks.is_empty() || !self.write.watermarks.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn det() -> AppLagDetector {
        AppLagDetector::new(
            1_000,
            SimDuration::from_millis(500),
            SimDuration::from_millis(200),
        )
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
        d.reset();
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
