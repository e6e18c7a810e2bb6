//! Per-component wall-clock attribution of simulation work.
//!
//! Every event-loop dispatch is attributed to a fixed component bucket
//! — the kernel (queue + effect plumbing), the TCP stack, the ST-TCP
//! server layer, the standby pool, or the application — via an
//! enter/exit scope stack. Exits subtract child time from the parent,
//! so each bucket's `self_ns` is *exclusive* time and the buckets sum
//! to the run's total measured time.
//!
//! Measurement is observational only: [`Profiler::enter`] /
//! [`Profiler::exit`] read the host clock but never feed anything back
//! into simulation state, so enabling the profiler cannot perturb
//! virtual-time determinism. It is disabled by default; when disabled,
//! enter/exit are branch-only no-ops.

use std::time::Instant;

/// The fixed attribution buckets. `Kernel` is everything inside the
/// world's event loop that is not inside a node callback; the rest are
/// set per node (and refined by in-callback sub-scopes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Component {
    /// The simulation kernel: queue, links, switches, effect plumbing.
    Kernel,
    /// The TCP endpoint work inside a node callback.
    Tcp,
    /// The ST-TCP server layer (heartbeats, hold buffer, failover).
    Sttcp,
    /// The standby-pool layer (membership, fencing, rank logic).
    Pool,
    /// Application logic (clients, echo/download apps).
    App,
    /// TCP deadline scheduling: deadline-queue maintenance (deadline
    /// sync + next-deadline queries) and due-socket timer dispatch.
    TcpWheel,
    /// TCP egress polling: draining pending segments from endpoints.
    TcpPoll,
    /// Heartbeat frame construction and encoding.
    HbEncode,
    /// Anything not otherwise attributed.
    Other,
}

impl Component {
    /// Every bucket, in report order.
    pub const ALL: [Component; 9] = [
        Component::Kernel,
        Component::Tcp,
        Component::Sttcp,
        Component::Pool,
        Component::App,
        Component::TcpWheel,
        Component::TcpPoll,
        Component::HbEncode,
        Component::Other,
    ];

    /// Stable report key.
    pub fn key(self) -> &'static str {
        match self {
            Component::Kernel => "simnet",
            Component::Tcp => "tcp",
            Component::Sttcp => "sttcp",
            Component::Pool => "pool",
            Component::App => "app",
            Component::TcpWheel => "tcp_wheel",
            Component::TcpPoll => "tcp_poll",
            Component::HbEncode => "hb_encode",
            Component::Other => "other",
        }
    }

    fn index(self) -> usize {
        match self {
            Component::Kernel => 0,
            Component::Tcp => 1,
            Component::Sttcp => 2,
            Component::Pool => 3,
            Component::App => 4,
            Component::TcpWheel => 5,
            Component::TcpPoll => 6,
            Component::HbEncode => 7,
            Component::Other => 8,
        }
    }
}

/// Accumulated measurements for one bucket.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ComponentStats {
    /// Scopes entered (event dispatches, or sub-scopes).
    pub scopes: u64,
    /// Exclusive wall-clock nanoseconds (child scopes subtracted).
    pub self_ns: u64,
    /// Inclusive wall-clock nanoseconds.
    pub total_ns: u64,
}

#[derive(Debug)]
struct Frame {
    comp: Component,
    start: Instant,
    child_ns: u64,
}

/// The scope-stack profiler. See the [module docs](self).
#[derive(Debug, Default)]
pub struct Profiler {
    enabled: bool,
    stats: [ComponentStats; 9],
    stack: Vec<Frame>,
}

impl Profiler {
    /// Creates a disabled profiler.
    pub fn new() -> Profiler {
        Profiler::default()
    }

    /// Enables or disables measurement. Toggle only between runs — a
    /// mid-scope toggle orphans the open scopes (harmless, but their
    /// time is lost).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
        if !on {
            self.stack.clear();
        }
    }

    /// Whether measurement is active.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a scope attributed to `comp`. No-op when disabled.
    #[inline]
    pub fn enter(&mut self, comp: Component) {
        if self.enabled {
            self.stack.push(Frame {
                comp,
                start: Instant::now(),
                child_ns: 0,
            });
        }
    }

    /// Closes the innermost open scope, charging its exclusive time to
    /// its bucket and its inclusive time to the parent's child total.
    /// No-op when disabled or when no scope is open.
    #[inline]
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let Some(frame) = self.stack.pop() else {
            return;
        };
        let elapsed = frame.start.elapsed().as_nanos() as u64;
        let s = &mut self.stats[frame.comp.index()];
        s.scopes += 1;
        s.total_ns += elapsed;
        s.self_ns += elapsed.saturating_sub(frame.child_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += elapsed;
        }
    }

    /// The accumulated measurements for one bucket.
    pub fn stats(&self, comp: Component) -> ComponentStats {
        self.stats[comp.index()]
    }

    /// Sum of exclusive time across every bucket — the run's total
    /// measured wall-clock time.
    pub fn total_self_ns(&self) -> u64 {
        self.stats.iter().map(|s| s.self_ns).sum()
    }

    /// Clears every measurement (the enabled flag is kept).
    pub fn reset(&mut self) {
        self.stats = [ComponentStats::default(); 9];
        self.stack.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_records_nothing() {
        let mut p = Profiler::new();
        p.enter(Component::Kernel);
        p.exit();
        assert_eq!(p.stats(Component::Kernel).scopes, 0);
        assert_eq!(p.total_self_ns(), 0);
    }

    #[test]
    fn nested_scopes_charge_exclusive_time_to_each_bucket() {
        let mut p = Profiler::new();
        p.set_enabled(true);
        p.enter(Component::Kernel);
        p.enter(Component::Tcp);
        // Burn a little measurable time inside the child scope.
        let mut x = 0u64;
        for i in 0..10_000u64 {
            x = x.wrapping_add(i * i);
        }
        assert!(x > 0);
        p.exit();
        p.exit();
        let kernel = p.stats(Component::Kernel);
        let tcp = p.stats(Component::Tcp);
        assert_eq!(kernel.scopes, 1);
        assert_eq!(tcp.scopes, 1);
        assert!(kernel.total_ns >= tcp.total_ns, "parent includes child");
        assert!(
            kernel.self_ns <= kernel.total_ns,
            "exclusive never exceeds inclusive"
        );
        // Exclusive times sum to the outermost inclusive time (within
        // measurement noise they are exactly complementary by
        // construction: self = total - children).
        assert_eq!(p.total_self_ns(), kernel.self_ns + tcp.self_ns);
    }

    #[test]
    fn unbalanced_exit_is_a_no_op() {
        let mut p = Profiler::new();
        p.set_enabled(true);
        p.exit();
        assert_eq!(p.total_self_ns(), 0);
    }

    #[test]
    fn reset_clears_stats_and_keeps_enabled() {
        let mut p = Profiler::new();
        p.set_enabled(true);
        p.enter(Component::App);
        p.exit();
        assert_eq!(p.stats(Component::App).scopes, 1);
        p.reset();
        assert_eq!(p.stats(Component::App).scopes, 0);
        assert!(p.enabled());
    }

    #[test]
    fn component_keys_are_stable_and_distinct() {
        let keys: Vec<&str> = Component::ALL.iter().map(|c| c.key()).collect();
        assert_eq!(
            keys,
            vec![
                "simnet",
                "tcp",
                "sttcp",
                "pool",
                "app",
                "tcp_wheel",
                "tcp_poll",
                "hb_encode",
                "other"
            ]
        );
        for (i, c) in Component::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }
}
