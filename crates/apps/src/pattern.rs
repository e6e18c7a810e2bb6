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

/// Whole periods of the pattern, enough for a server's 64 KiB write to
/// start at any phase: [`pattern_chunk`] hands out views of it, and
/// verify compares runs of bytes against it instead of computing a 64-bit
/// modulo per byte. The length is a multiple of [`PERIOD`]: a run that
/// reaches the end of the table ends on a period boundary, so the next
/// run starts at phase 0.
static TABLE: [u8; PERIOD * (64 * 1024 / PERIOD + 2)] = {
    let mut t = [0u8; PERIOD * (64 * 1024 / PERIOD + 2)];
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

/// The pattern for positions `start..start + len`: up to 64 KiB a view
/// of [`TABLE`] (no allocation, no fill), longer copied from it.
pub fn pattern_chunk(start: u64, len: usize) -> bytes::Bytes {
    let phase = (start % PERIOD as u64) as usize;
    match TABLE.get(phase..phase + len) {
        Some(view) => bytes::Bytes::from_static(view),
        None => bytes::Bytes::build(len, |v| {
            table_runs(start, len).for_each(|(_, run)| v.extend_from_slice(run))
        }),
    }
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
        // The copying path (longer than the table holds) and the view.
        let filled = pattern_chunk(777, TABLE.len());
        assert_eq!(&filled[..64], pattern_chunk(777, 64).as_ref());
    }

    /// The per-byte definition, as the oracle for the table-driven paths.
    fn oracle(start: u64, len: usize) -> Vec<u8> {
        (0..len as u64).map(|i| pattern_byte(start + i)).collect()
    }

    /// Every length up to this is checked exhaustively; lengths that
    /// reach past the end of the table are checked at its boundaries.
    const SHORT: usize = 24 * PERIOD;
    const CHUNK_MAX: usize = 64 * 1024;

    #[test]
    fn fill_and_verify_match_the_definition_at_every_phase_and_length() {
        let max = 2 * TABLE.len() + SHORT;
        // Far-from-zero starts too: the phase is all that may matter.
        for base in [0u64, 251 * 1_000_003, u64::MAX - 251 - max as u64] {
            for phase in 0..PERIOD as u64 {
                let start = base - base % PERIOD as u64 + phase;
                let want = oracle(start, max);
                let first_run = TABLE.len() - phase as usize;
                let wraps = [first_run - 1, first_run, first_run + 1];
                let ends = [first_run + TABLE.len(), max];
                for len in (0..=SHORT).chain(wraps).chain(ends) {
                    let chunk = pattern_chunk(start, len);
                    assert_eq!(&chunk[..], &want[..len], "start {start} len {len}");
                    assert_eq!(verify_pattern(start, &want[..len]), None);
                }
            }
        }
    }

    #[test]
    fn a_chunk_up_to_64_kib_is_a_view_of_the_table_at_every_phase() {
        let short = [0, 1, 2, PERIOD - 1, PERIOD, 1_460, 40_000];
        for phase in 0..PERIOD {
            let start = 1_000 * PERIOD as u64 + phase as u64;
            let want = oracle(start, CHUNK_MAX);
            let written = bytes::written();
            let long = [CHUNK_MAX - 1, CHUNK_MAX, phase * 7_919 % (CHUNK_MAX + 1)];
            for len in short.into_iter().chain(long) {
                let chunk = pattern_chunk(start, len);
                assert_eq!(chunk.as_ptr(), TABLE[phase..].as_ptr(), "len {len}");
                assert_eq!(&chunk[..], &want[..len], "phase {phase} len {len}");
            }
            assert_eq!(bytes::written(), written, "a view writes no buffer");
        }
        // Longer than the table holds from the phase on: a buffer of its own.
        let long = [
            (0, TABLE.len() + 1),
            (250, CHUNK_MAX + PERIOD),
            (7, 3 * TABLE.len()),
        ];
        for (phase, len) in long {
            let chunk = pattern_chunk(phase, len);
            assert!(!TABLE.as_ptr_range().contains(&chunk.as_ptr()));
            assert_eq!(&chunk[..], &oracle(phase, len)[..]);
        }
    }

    #[test]
    fn a_single_flipped_byte_is_located_exactly_at_any_position() {
        // Every position at a few phases, and every phase at the
        // positions where runs begin and end.
        for phase in [0u64, 1, 125, 250] {
            let mut v = oracle(phase, SHORT);
            for pos in 0..SHORT {
                v[pos] ^= 0x80;
                assert_eq!(verify_pattern(phase, &v), Some(phase + pos as u64));
                v[pos] ^= 0x80;
            }
        }
        let len = 3 * TABLE.len();
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
