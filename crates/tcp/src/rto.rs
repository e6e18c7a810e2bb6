//! Retransmission timeout estimation and exponential backoff (RFC 6298).
//!
//! The RTO schedule matters directly to the paper's Demo 2: after the
//! primary crashes, both the client and the (not-yet-active) backup keep
//! retransmitting with exponentially growing intervals, and the post-
//! detection component of the failover time is "the delay until the next
//! client or backup retransmission" — i.e. a function of how far the
//! backoff has progressed during failure detection.

use simnet::time::SimDuration;

/// Smoothed RTT estimation and retransmission-timeout computation.
///
/// Implements the RFC 6298 estimator: `SRTT`/`RTTVAR` with the standard
/// gains, Karn's rule enforced by the caller (no samples from
/// retransmitted data), and binary exponential backoff bounded by
/// [`RtoConfig::max_rto`]. The tunables are not kept here: they live in
/// the connection's shared config and are passed to the two calls that
/// read them.
#[derive(Debug, Clone)]
pub struct RtoEstimator {
    /// Smoothed RTT in microseconds; `None` until the first sample.
    srtt: Option<f64>,
    rttvar: f64,
    /// Base RTO (before backoff) in microseconds.
    rto: f64,
    /// Current backoff exponent (0 = no backoff).
    backoff: u32,
}

/// Tunables for [`RtoEstimator`].
#[derive(Debug, Clone, Copy)]
pub struct RtoConfig {
    /// RTO used before any RTT sample exists.
    pub initial_rto: SimDuration,
    /// Lower clamp for the computed RTO.
    pub min_rto: SimDuration,
    /// Upper clamp for the backed-off RTO.
    pub max_rto: SimDuration,
}

impl Default for RtoConfig {
    fn default() -> Self {
        // Linux-flavored defaults scaled for a LAN: a 200 ms floor keeps
        // retransmission behaviour visible at simulation time scales while
        // preserving the standard doubling schedule.
        RtoConfig {
            initial_rto: SimDuration::from_millis(1_000),
            min_rto: SimDuration::from_millis(200),
            max_rto: SimDuration::from_secs(60),
        }
    }
}

impl RtoEstimator {
    /// Creates an estimator starting from `cfg`'s initial RTO.
    pub fn new(cfg: &RtoConfig) -> RtoEstimator {
        RtoEstimator {
            srtt: None,
            rttvar: 0.0,
            rto: cfg.initial_rto.as_micros() as f64,
            backoff: 0,
        }
    }

    /// Records an RTT sample from a non-retransmitted segment (Karn's
    /// rule is the caller's responsibility) and recomputes the RTO.
    pub fn on_sample(&mut self, rtt: SimDuration) {
        let r = rtt.as_micros() as f64;
        match self.srtt {
            None => {
                self.srtt = Some(r);
                self.rttvar = r / 2.0;
            }
            Some(srtt) => {
                // RFC 6298: alpha = 1/8, beta = 1/4.
                self.rttvar = 0.75 * self.rttvar + 0.25 * (srtt - r).abs();
                self.srtt = Some(0.875 * srtt + 0.125 * r);
            }
        }
        let srtt = self.srtt.unwrap();
        self.rto = srtt + (4.0 * self.rttvar).max(1.0);
        // A successful sample also clears backoff.
        self.backoff = 0;
    }

    /// Doubles the backoff after a retransmission timeout fires.
    pub fn on_timeout(&mut self) {
        self.backoff = (self.backoff + 1).min(16);
    }

    /// Clears backoff (e.g. when new data is acked).
    pub fn reset_backoff(&mut self) {
        self.backoff = 0;
    }

    /// The current retransmission timeout, with backoff and `cfg`'s
    /// clamps applied.
    pub fn current_rto(&self, cfg: &RtoConfig) -> SimDuration {
        let base = self
            .rto
            .max(cfg.min_rto.as_micros() as f64)
            .min(cfg.max_rto.as_micros() as f64);
        let factor = 1u64 << self.backoff.min(32);
        let backed = SimDuration::from_micros(base as u64).saturating_mul(factor);
        backed.min(cfg.max_rto)
    }

    /// The smoothed RTT, if at least one sample has been taken.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.srtt.map(|s| SimDuration::from_micros(s as u64))
    }

    /// The current backoff exponent.
    pub fn backoff(&self) -> u32 {
        self.backoff
    }
}

impl Default for RtoEstimator {
    fn default() -> Self {
        RtoEstimator::new(&RtoConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The timeout under the default tunables.
    fn rto(e: &RtoEstimator) -> SimDuration {
        e.current_rto(&RtoConfig::default())
    }

    #[test]
    fn initial_rto_before_samples() {
        let e = RtoEstimator::default();
        assert_eq!(rto(&e), SimDuration::from_millis(1_000));
        assert_eq!(e.srtt(), None);
    }

    #[test]
    fn first_sample_sets_srtt() {
        let mut e = RtoEstimator::default();
        e.on_sample(SimDuration::from_millis(10));
        assert_eq!(e.srtt(), Some(SimDuration::from_millis(10)));
        // RTO = srtt + 4*rttvar = 10 + 20 = 30ms, clamped up to min 200ms.
        assert_eq!(rto(&e), SimDuration::from_millis(200));
    }

    #[test]
    fn smoothing_converges() {
        let mut e = RtoEstimator::default();
        for _ in 0..100 {
            e.on_sample(SimDuration::from_millis(50));
        }
        let srtt = e.srtt().unwrap();
        assert!(
            srtt >= SimDuration::from_millis(49) && srtt <= SimDuration::from_millis(51),
            "srtt = {srtt}"
        );
    }

    #[test]
    fn backoff_doubles_and_clamps() {
        let mut e = RtoEstimator::default();
        e.on_sample(SimDuration::from_millis(10)); // rto floor 200ms
        let base = rto(&e);
        e.on_timeout();
        assert_eq!(rto(&e), base * 2);
        e.on_timeout();
        assert_eq!(rto(&e), base * 4);
        for _ in 0..20 {
            e.on_timeout();
        }
        assert_eq!(rto(&e), SimDuration::from_secs(60), "max clamp");
    }

    #[test]
    fn sample_resets_backoff() {
        let mut e = RtoEstimator::default();
        e.on_sample(SimDuration::from_millis(10));
        e.on_timeout();
        e.on_timeout();
        assert_eq!(e.backoff(), 2);
        e.on_sample(SimDuration::from_millis(10));
        assert_eq!(e.backoff(), 0);
        let mut e2 = RtoEstimator::default();
        e2.on_sample(SimDuration::from_millis(10));
        assert_eq!(rto(&e), rto(&e2));
    }

    #[test]
    fn reset_backoff_explicit() {
        let mut e = RtoEstimator::default();
        e.on_timeout();
        assert_eq!(e.backoff(), 1);
        e.reset_backoff();
        assert_eq!(e.backoff(), 0);
    }

    #[test]
    fn large_rtt_raises_rto_above_floor() {
        let mut e = RtoEstimator::default();
        e.on_sample(SimDuration::from_millis(500));
        // srtt 500ms + 4*250ms = 1.5s > floor.
        assert!(rto(&e) >= SimDuration::from_millis(1_400));
    }

    #[test]
    fn custom_config_respected() {
        let cfg = RtoConfig {
            initial_rto: SimDuration::from_millis(100),
            min_rto: SimDuration::from_millis(50),
            max_rto: SimDuration::from_secs(2),
        };
        let mut e = RtoEstimator::new(&cfg);
        assert_eq!(e.current_rto(&cfg), SimDuration::from_millis(100));
        e.on_sample(SimDuration::from_micros(100));
        assert_eq!(e.current_rto(&cfg), SimDuration::from_millis(50));
        for _ in 0..10 {
            e.on_timeout();
        }
        assert_eq!(e.current_rto(&cfg), SimDuration::from_secs(2));
    }
}
