//! Order statistics for the benchmark's own numbers. No repo imports.

/// Median of the values (mean of the two middle ones for an even count).
/// Panics on an empty slice: every caller has at least one repetition.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `(max - min) / median`: the run-to-run spread reported beside every
/// host metric.
pub fn spread(values: &[f64]) -> f64 {
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (hi - lo) / m.abs()
    }
}

/// A percentile together with what the sample could support.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The percentile actually taken (≤ the one asked for).
    pub p: f64,
    /// Its value, in the samples' unit.
    pub value: f64,
    /// The sample count.
    pub n: usize,
}

/// Percentiles worth reporting, in per mille so the rank is integer math.
const LADDER: [u64; 6] = [999, 990, 950, 900, 750, 500];

/// The highest percentile of the ladder 99.9/99/95/90/75/50 that is no
/// higher than `want` and still has at least ten samples beyond it; the
/// median when the sample is too small for any of them. A tail figure
/// resting on fewer than ten samples is noise, so a small sample
/// reports a lower percentile and says so through `p` and `n`.
///
/// Samples are whole simulated microseconds, and thousands of them share
/// one value, so the nearest-rank value `v` is refined the way a median
/// of grouped data is: `v` stands for the interval `[v - ½, v + ½)` and
/// the percentile sits in it as far along as its rank sits among the
/// samples equal to `v`. A lone sample, or a rank in the middle of its
/// group, reads `v` exactly.
pub fn tail_percentile(samples: &[u64], want: f64) -> Percentile {
    percentile(samples, want, true)
}

/// [`tail_percentile`] without the refinement: the nearest-rank sample
/// itself, for figures that are read against a lattice (failover phases
/// are sums of configured timeouts) rather than compared across runs.
pub fn nearest_rank_percentile(samples: &[u64], want: f64) -> Percentile {
    percentile(samples, want, false)
}

fn percentile(samples: &[u64], want: f64, refine: bool) -> Percentile {
    assert!(!samples.is_empty(), "percentile of nothing");
    let mut v = samples.to_vec();
    v.sort_unstable();
    let n = v.len() as u64;
    let rank = |pm: u64| (n * pm).div_ceil(1000).clamp(1, n);
    let pm = LADDER
        .iter()
        .copied()
        .find(|&pm| pm as f64 <= want * 10.0 && n - rank(pm) >= 10)
        .unwrap_or(500);
    let at = v[rank(pm) as usize - 1];
    let below = v.partition_point(|&x| x < at) as f64;
    let equal = v.partition_point(|&x| x <= at) as f64 - below;
    let position = (n * pm) as f64 / 1000.0;
    let within = if refine {
        (position - below) / equal - 0.5
    } else {
        0.0
    };
    Percentile {
        p: pm as f64 / 10.0,
        value: at as f64 + within,
        n: n as usize,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let v: Vec<u64> = (1..=1100).collect();
        let p = tail_percentile(&v, 99.0);
        assert_eq!((p.p, p.n), (99.0, 1100));
        assert_eq!(p.value, 1089.5); // 11 samples lie beyond it

        // 999 samples leave nine beyond p99: fall back to p95.
        let v: Vec<u64> = (1..=999).collect();
        assert_eq!(tail_percentile(&v, 99.0).p, 95.0);

        // 40 samples: exactly ten beyond p75.
        let v: Vec<u64> = (1..=40).collect();
        let p = tail_percentile(&v, 99.0);
        assert_eq!((p.p, p.value), (75.0, 30.5));

        // Too few for any tail: the median, and n says why.
        let p = tail_percentile(&[7, 9, 8], 99.0);
        assert_eq!((p.p, p.value, p.n), (50.0, 8.0, 3));
        let p = tail_percentile(&[42], 99.0);
        assert_eq!((p.p, p.value, p.n), (50.0, 42.0, 1));

        // Exactly ten beyond p90 of 100, with no float rounding to lose it.
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(tail_percentile(&v, 99.0).p, 90.0);
    }

    #[test]
    fn tail_percentile_interpolates_inside_a_group_of_equal_samples() {
        // 335 µs three times in four: the median is a third of the way
        // into the 335 group, the group standing for [334.5, 335.5).
        let v = [300, 335, 335, 335];
        let p = tail_percentile(&v, 50.0);
        assert!((p.value - (334.5 + 1.0 / 3.0)).abs() < 1e-9, "{}", p.value);
        // All equal: the middle of the group is the value itself.
        assert_eq!(tail_percentile(&[9; 8], 50.0).value, 9.0);
        // Unrefined, the sample at the rank.
        assert_eq!(nearest_rank_percentile(&v, 50.0).value, 335.0);
    }

    #[test]
    fn tail_percentile_never_exceeds_the_one_asked_for() {
        let v: Vec<u64> = (1..=100_000).collect();
        assert_eq!(tail_percentile(&v, 50.0).p, 50.0);
        assert_eq!(tail_percentile(&v, 99.0).p, 99.0);
    }

    #[test]
    fn spread_is_range_over_median() {
        assert_eq!(spread(&[9.0, 10.0, 11.0]), 0.2);
    }
}
