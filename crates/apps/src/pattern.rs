//! The deterministic byte pattern used by workloads and verified by
//! clients.
//!
//! Every server-push workload emits the byte at stream position `p` as
//! [`pattern_byte`]`(p)`; the verifying client checks each received byte
//! against its cumulative position. Any duplication, loss, reordering, or
//! corruption across a failover therefore shows up as an integrity
//! violation at an exact offset — this is what makes Demo 1's
//! "seamless" claim checkable rather than eyeballed.

/// The expected byte at stream position `p`.
///
/// Modulo a prime (251) so that block-aligned mistakes (off-by-one-MSS,
/// swapped 256-byte pages) cannot alias back onto the correct pattern.
///
/// # Examples
///
/// ```
/// use sttcp_apps::pattern::pattern_byte;
///
/// assert_eq!(pattern_byte(0), 0);
/// assert_eq!(pattern_byte(250), 250);
/// assert_eq!(pattern_byte(251), 0);
/// ```
pub fn pattern_byte(p: u64) -> u8 {
    (p % 251) as u8
}

/// The pattern's period: [`pattern_byte`] repeats every 251 positions.
const PERIOD: usize = 251;

/// A few whole periods of the pattern, so bulk fill and verify move and
/// compare runs of bytes instead of computing a 64-bit modulo per byte.
/// The length is a multiple of [`PERIOD`]: a run that reaches the end of
/// the table ends on a period boundary, so the next run starts at phase 0.
static TABLE: [u8; PERIOD * 8] = {
    let mut t = [0u8; PERIOD * 8];
    let mut i = 0;
    while i < t.len() {
        t[i] = (i % PERIOD) as u8;
        i += 1;
    }
    t
};

/// Splits `len` bytes starting at stream position `start` into runs that
/// are contiguous in [`TABLE`]: yields `(offset into the data, table
/// slice)` pairs covering `0..len` in order.
fn table_runs(start: u64, len: usize) -> impl Iterator<Item = (usize, &'static [u8])> {
    let mut phase = (start % PERIOD as u64) as usize;
    let mut done = 0;
    std::iter::from_fn(move || {
        if done == len {
            return None;
        }
        let n = (len - done).min(TABLE.len() - phase);
        let run = (done, &TABLE[phase..phase + n]);
        done += n;
        phase = 0;
        Some(run)
    })
}

/// Fills `buf` with the pattern for positions `start..start + buf.len()`.
pub fn fill_pattern(start: u64, buf: &mut [u8]) {
    for (at, run) in table_runs(start, buf.len()) {
        buf[at..at + run.len()].copy_from_slice(run);
    }
}

/// Produces a pattern chunk for positions `start..start + len`.
pub fn pattern_chunk(start: u64, len: usize) -> bytes::Bytes {
    let mut v = vec![0u8; len];
    fill_pattern(start, &mut v);
    bytes::Bytes::from(v)
}

/// Verifies that `data` matches the pattern starting at `start`.
///
/// Returns the position of the first mismatch, or `None` if all bytes
/// match.
pub fn verify_pattern(start: u64, data: &[u8]) -> Option<u64> {
    // Every byte is compared, a run at a time; only the first run that
    // differs is walked to name the exact position.
    table_runs(start, data.len()).find_map(|(at, run)| {
        let got = &data[at..at + run.len()];
        if got == run {
            return None;
        }
        let i = got.iter().zip(run).position(|(a, b)| a != b)?;
        Some(start + (at + i) as u64)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_is_deterministic_and_period_251() {
        for p in 0..1_000u64 {
            assert_eq!(pattern_byte(p), pattern_byte(p + 251));
            assert!(pattern_byte(p) < 251);
        }
    }

    #[test]
    fn chunk_and_verify_agree() {
        let c = pattern_chunk(1_000, 5_000);
        assert_eq!(verify_pattern(1_000, &c), None);
        // A wrong offset is detected immediately (except where the pattern
        // happens to coincide).
        assert!(verify_pattern(1_001, &c).is_some());
    }

    #[test]
    fn corruption_is_located_exactly() {
        let mut v = pattern_chunk(0, 100).to_vec();
        v[42] ^= 0xff;
        assert_eq!(verify_pattern(0, &v), Some(42));
    }

    #[test]
    fn fill_matches_chunk() {
        let mut buf = [0u8; 64];
        fill_pattern(777, &mut buf);
        assert_eq!(&buf[..], pattern_chunk(777, 64).as_ref());
    }

    /// The per-byte definition, as the oracle for the table-driven paths.
    fn oracle(start: u64, len: usize) -> Vec<u8> {
        (0..len as u64).map(|i| pattern_byte(start + i)).collect()
    }

    #[test]
    fn fill_and_verify_match_the_definition_at_every_phase_and_length() {
        let max = 3 * TABLE.len();
        // Far-from-zero starts too: the phase is all that may matter.
        for base in [0u64, 251 * 1_000_003, u64::MAX - 251 - max as u64] {
            for phase in 0..PERIOD as u64 {
                let start = base - base % PERIOD as u64 + phase;
                let want = oracle(start, max);
                let mut buf = vec![0xEEu8; max + 1];
                for len in 0..=max {
                    buf[..len].fill(0xEE);
                    fill_pattern(start, &mut buf[..len]);
                    assert_eq!(&buf[..len], &want[..len], "start {start} len {len}");
                    assert_eq!(buf[len], 0xEE, "wrote past the slice");
                    assert_eq!(verify_pattern(start, &want[..len]), None);
                }
            }
        }
    }

    #[test]
    fn a_single_flipped_byte_is_located_exactly_at_any_position() {
        let len = 3 * TABLE.len();
        // Every position at a few phases, and every phase at the
        // positions where runs begin and end.
        for phase in [0u64, 1, 125, 250] {
            let mut v = oracle(phase, len);
            for pos in 0..len {
                v[pos] ^= 0x80;
                assert_eq!(verify_pattern(phase, &v), Some(phase + pos as u64));
                v[pos] ^= 0x80;
            }
        }
        for phase in 0..PERIOD {
            let start = 7 * PERIOD as u64 + phase as u64;
            let mut v = oracle(start, len);
            let first_run = TABLE.len() - phase;
            for pos in [
                0,
                first_run - 1,
                first_run,
                first_run + TABLE.len() - 1,
                len - 1,
            ] {
                v[pos] ^= 0x01;
                assert_eq!(verify_pattern(start, &v), Some(start + pos as u64));
                v[pos] ^= 0x01;
            }
            // With two bytes wrong, the lower position wins.
            v[first_run] ^= 1;
            v[len - 1] ^= 1;
            assert_eq!(verify_pattern(start, &v), Some(start + first_run as u64));
        }
    }

    #[test]
    fn chunks_compose_seamlessly() {
        let a = pattern_chunk(0, 100);
        let b = pattern_chunk(100, 100);
        let joined: Vec<u8> = a.iter().chain(b.iter()).copied().collect();
        assert_eq!(verify_pattern(0, &joined), None);
    }
}
