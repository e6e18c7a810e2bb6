//! The reference clock: host time restated at a reference machine speed.
//! No repo imports.
//!
//! The machines this benchmark runs on share their cores' caches and
//! execution units with other tenants, and the same binary on the same
//! inputs takes 1× to 2.4× as long from one minute to the next, for
//! minutes at a time (README, "Reference speed"). No estimator inside a
//! run — best of, median of, longer — outlasts such an episode, and there
//! is no PMU to count instructions with. What does work is to measure the
//! machine beside the program: every ~10 ms of a timed region the clock
//! runs a small fixed kernel (a *burst*, ~0.25 ms), and each stretch of
//! host time is divided by how much slower than [`NOMINAL_NS`] the bursts
//! on either side of it ran. The sum is the region's duration *at
//! reference speed*; every host rate of the benchmark divides by it.
//!
//! The kernel is a miniature of what the simulator does per packet — pop
//! and push on a binary heap of timers, look a connection up in a hash
//! map, allocate a buffer, copy a payload into it, checksum it, queue it,
//! free an older one — at the two packet sizes of the workloads (1460 and
//! 64 bytes). It was picked by measurement: over 30 interleaved
//! repetitions of each workload during a noisy spell, pure-ALU chains
//! moved 2–4 % while the workloads moved 60–110 %, pointer chases and
//! streaming copies tracked poorly (r² 0.0–0.6), and these two tracked
//! with r² 0.6–0.95 and slope 0.85–1.5. It lives here, in the
//! benchmark's own files, so a change to the program cannot move it.
//!
//! A burst runs the kernel twice and times the second pass. The first
//! pass pulls the kernel's ~0.6 MB back into the cache after whatever the
//! workload did to it: timed cold, the kernel read 138 µs beside
//! bulk_download and 208 µs beside conn_ramp (which leaves nothing of it
//! cached); timed warm, 121 and 129 µs, so the reference is the same
//! machine for every workload, and it tracked no worse (quartile spread of
//! ten runs' best repetition, noisy spell: 3.7–6.1 % warm, 4.4–14.5 % cold).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::time::{Duration, Instant};

/// What the timed pass of a burst takes on the 2-core build VM when nobody
/// else is on its core: the speed at which the benchmark's host figures
/// are stated. A constant, not a calibration, so figures from different
/// days and machines are stated at the same speed.
const NOMINAL_NS: f64 = 120_000.0;

/// A burst older than this is not trusted for the stretch now ending.
const FRESH: Duration = Duration::from_millis(10);

const SRC_BYTES: usize = 256 * 1024;
const TIMERS: u32 = 1_000;
const MSS: usize = 1460;
const MSS_IN_FLIGHT: usize = 200;
const MSS_PACKETS: usize = 300;
const SMALL: usize = 64;
const SMALL_IN_FLIGHT: usize = 500;
const SMALL_PACKETS: usize = 600;

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// The reference kernel's state. Fixed size, fixed work per pass.
struct Kernel {
    src: Vec<u8>,
    timers: BinaryHeap<Reverse<(u64, u32)>>,
    conns: HashMap<u64, u64>,
    mss_flight: VecDeque<Vec<u8>>,
    small_flight: VecDeque<Vec<u8>>,
    x: u64,
}

impl Kernel {
    fn new() -> Self {
        let mut x = 0x1234_5678_9abc_def1;
        let timers = (0..TIMERS)
            .map(|id| {
                x = xorshift(x);
                Reverse((x >> 40, id))
            })
            .collect();
        Kernel {
            src: vec![7; SRC_BYTES],
            timers,
            conns: HashMap::new(),
            mss_flight: (0..MSS_IN_FLIGHT).map(|_| vec![1; MSS + 1]).collect(),
            small_flight: (0..SMALL_IN_FLIGHT).map(|_| vec![1; SMALL + 1]).collect(),
            x,
        }
    }

    /// One "packet": a timer fires and is re-armed, its connection is
    /// looked up, a `len`-byte payload is copied into a fresh buffer and
    /// checksummed, the buffer is queued and the oldest one freed.
    fn packet(&mut self, len: usize, small: bool) {
        let Reverse((at, id)) = self.timers.pop().expect("the heap never empties");
        self.x = xorshift(self.x);
        self.timers.push(Reverse((at + (self.x >> 50), id)));
        let seen = self.conns.entry(self.x >> 58).or_insert(0);
        *seen = seen.wrapping_add(at);
        let from = (self.x as usize >> 10) % (SRC_BYTES - MSS);
        let mut buf = Vec::with_capacity(len + 1);
        buf.extend_from_slice(&self.src[from..from + len]);
        let sum = buf.chunks_exact(2).fold(0u32, |s, p| {
            s.wrapping_add(u32::from(u16::from_be_bytes([p[0], p[1]])))
        });
        buf.push(sum as u8);
        let flight = if small {
            &mut self.small_flight
        } else {
            &mut self.mss_flight
        };
        flight.push_back(buf);
        let old = flight.pop_front().expect("the queue never empties");
        self.x ^= u64::from(old[len]);
        self.x |= 1;
    }

    fn pass(&mut self) {
        for _ in 0..MSS_PACKETS {
            self.packet(MSS, false);
        }
        for _ in 0..SMALL_PACKETS {
            self.packet(SMALL, true);
        }
        std::hint::black_box(self.x);
    }
}

/// A stopwatch that reads both ways: host seconds as they passed, and the
/// same stretch restated at reference speed.
pub struct RefClock {
    kernel: Kernel,
    /// The latest burst: how many times [`NOMINAL_NS`] it took, and when
    /// it ended.
    factor: f64,
    sampled: Instant,
    /// Where the stretch being timed began.
    from: Instant,
    raw_s: f64,
    ref_s: f64,
}

impl RefClock {
    pub fn new() -> Self {
        let now = Instant::now();
        let mut clock = RefClock {
            kernel: Kernel::new(),
            factor: 1.0,
            sampled: now,
            from: now,
            raw_s: 0.0,
            ref_s: 0.0,
        };
        clock.sample();
        clock.restart();
        clock
    }

    /// Runs one burst now — a pass to warm the kernel's memory, then a
    /// timed pass — and returns the machine's slowdown factor.
    pub fn sample(&mut self) -> f64 {
        self.kernel.pass();
        let t = Instant::now();
        self.kernel.pass();
        self.sampled = Instant::now();
        self.factor = (self.sampled - t).as_nanos() as f64 / NOMINAL_NS;
        self.factor
    }

    /// The slowdown factor of the latest burst.
    pub fn factor(&self) -> f64 {
        self.factor
    }

    /// Starts a stretch here: what passed since the last lap is not timed.
    pub fn restart(&mut self) {
        self.from = Instant::now();
    }

    /// Ends the stretch that began at the last `restart` or `lap` and
    /// starts the next. The stretch is restated at the mean slowdown of
    /// the burst before it and one taken now — the old one again if it
    /// is fresh, so a run of short stretches costs one burst per
    /// [`FRESH`], under 3 % of the time, whatever its slicing. Bursts are
    /// outside every stretch.
    pub fn lap(&mut self) {
        let now = Instant::now();
        let took = (now - self.from).as_secs_f64();
        let before = self.factor;
        if now - self.sampled >= FRESH {
            self.sample();
        }
        self.raw_s += took;
        self.ref_s += took / ((before + self.factor) / 2.0);
        self.from = Instant::now();
    }

    /// Host seconds of every stretch so far.
    pub fn raw_s(&self) -> f64 {
        self.raw_s
    }

    /// The same stretches at reference speed.
    pub fn ref_s(&self) -> f64 {
        self.ref_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pass_does_fixed_work_and_keeps_its_state_bounded() {
        let mut k = Kernel::new();
        for _ in 0..3 {
            k.pass();
        }
        assert_eq!(k.timers.len(), TIMERS as usize);
        assert_eq!(k.mss_flight.len(), MSS_IN_FLIGHT);
        assert_eq!(k.small_flight.len(), SMALL_IN_FLIGHT);
        assert!(k.conns.len() <= 64);
    }

    #[test]
    fn laps_add_up_and_a_restart_leaves_a_gap_out() {
        let mut c = RefClock::new();
        assert_eq!((c.raw_s(), c.ref_s()), (0.0, 0.0));
        std::thread::sleep(Duration::from_millis(12));
        c.lap();
        let first = c.raw_s();
        assert!(first >= 0.012);
        // At a slowdown of f the stretch counts for 1/f of its length.
        assert!(c.ref_s() > 0.0 && c.factor() > 0.0);
        std::thread::sleep(Duration::from_millis(5));
        c.restart();
        c.lap();
        assert!(c.raw_s() - first < 0.005, "the 5 ms before restart are out");
    }
}
