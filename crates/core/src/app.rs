//! The deterministic application interface.
//!
//! ST-TCP's core assumption (§2) is that the server application is
//! deterministic: fed the same input TCP stream, the primary's application
//! and the backup's replica go through the same states and produce the
//! same bytes. This trait makes that contract explicit: an
//! [`Application`]'s *output byte stream* must be a pure function of its
//! *input byte stream* (and its own deterministic internals). Tick
//! callbacks may pace output differently on the two servers, but the byte
//! sequence must be identical — [`Application::state_digest`] lets tests
//! verify replicas are in lockstep.

use bytes::Bytes;
use simnet::time::SimTime;

/// An action an application asks the server to perform on its connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AppAction {
    /// Write bytes to the connection.
    Write(Bytes),
    /// Close the connection gracefully (generates a FIN, subject to
    /// ST-TCP arbitration).
    Close,
    /// Abort the connection (generates an RST, subject to arbitration).
    Abort,
}

/// A per-connection deterministic application instance.
///
/// All methods return the actions to apply, in order.
pub trait Application: 'static {
    /// Called when the connection is established.
    fn on_open(&mut self) -> Vec<AppAction> {
        Vec::new()
    }

    /// Called with newly received in-order client bytes: a shared view
    /// of the received segments, so an application that passes them on
    /// ([`EchoApp`]) clones the handle, not the bytes.
    fn on_data(&mut self, data: &Bytes) -> Vec<AppAction>;

    /// Called every [`crate::config::APP_TICK`]; used by paced
    /// streaming applications. Output *content* must remain a
    /// deterministic function of the input stream.
    fn on_tick(&mut self, now: SimTime) -> Vec<AppAction> {
        let _ = now;
        Vec::new()
    }

    /// True while this application needs periodic [`Application::on_tick`]
    /// callbacks. The server skips ticking applications that return
    /// `false`, so idle connections cost nothing per tick — the contract
    /// is that `on_tick` must be a no-op whenever this returns `false`.
    /// Re-evaluated after every callback into the application, so state
    /// changed by `on_open`/`on_data`/`on_peer_close` (or a previous tick)
    /// can switch ticking on or off. Defaults to `true` (always ticked).
    fn wants_tick(&self) -> bool {
        true
    }

    /// Called when the client closes its sending side.
    fn on_peer_close(&mut self) -> Vec<AppAction> {
        Vec::new()
    }

    /// A digest of the application's logical state, used by tests to
    /// assert primary/backup lockstep. Must depend only on the consumed
    /// input and emitted output, never on timing.
    fn state_digest(&self) -> u64 {
        0
    }

    /// Serializes the application's logical state for re-integration:
    /// a rejoining backup restores its replica from this blob instead of
    /// replaying the whole input stream. Must be deterministic (same
    /// state ⇒ same bytes) and round-trip through [`Application::restore`]
    /// to an instance with an identical [`Application::state_digest`].
    /// `None` (the default) means the application cannot be snapshotted
    /// and a joiner must start its replica from a fresh instance.
    fn snapshot(&self) -> Option<Vec<u8>> {
        None
    }

    /// Restores logical state serialized by [`Application::snapshot`] on
    /// the active peer. The blob is CRC-protected in transit but
    /// otherwise opaque; implementations should tolerate (ignore) a blob
    /// they cannot parse rather than panic.
    fn restore(&mut self, state: &[u8]) {
        let _ = state;
    }
}

/// Creates per-connection [`Application`] instances for a server.
pub trait AppFactory: 'static {
    /// Creates the application instance for a newly accepted connection.
    fn create(&mut self) -> Box<dyn Application>;
}

impl<F> AppFactory for F
where
    F: FnMut() -> Box<dyn Application> + 'static,
{
    fn create(&mut self) -> Box<dyn Application> {
        self()
    }
}

/// A trivial echo application: returns every byte it receives.
///
/// Useful as a default workload and in doctests.
///
/// # Examples
///
/// ```
/// use sttcp::app::{Application, AppAction, EchoApp};
///
/// let mut app = EchoApp::default();
/// let hi = bytes::Bytes::from_static(b"hi");
/// assert_eq!(app.on_data(&hi), vec![AppAction::Write(hi.clone())]);
/// ```
#[derive(Debug, Default, Clone)]
pub struct EchoApp {
    bytes_seen: u64,
}

impl Application for EchoApp {
    fn on_data(&mut self, data: &Bytes) -> Vec<AppAction> {
        self.bytes_seen += data.len() as u64;
        vec![AppAction::Write(data.clone())]
    }

    /// Echoing is purely reactive; ticks are never needed.
    fn wants_tick(&self) -> bool {
        false
    }

    fn on_peer_close(&mut self) -> Vec<AppAction> {
        vec![AppAction::Close]
    }

    fn state_digest(&self) -> u64 {
        self.bytes_seen
    }

    fn snapshot(&self) -> Option<Vec<u8>> {
        Some(self.bytes_seen.to_le_bytes().to_vec())
    }

    fn restore(&mut self, state: &[u8]) {
        if let Ok(bytes) = state.try_into() {
            self.bytes_seen = u64::from_le_bytes(bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn echo_echoes() {
        let mut app = EchoApp::default();
        assert_eq!(
            app.on_data(&Bytes::from_static(b"abc")),
            vec![AppAction::Write(Bytes::from_static(b"abc"))]
        );
        assert_eq!(app.state_digest(), 3);
        assert_eq!(app.on_peer_close(), vec![AppAction::Close]);
    }

    #[test]
    fn echo_shares_the_received_allocation() {
        let received = Bytes::from(vec![7u8; 1460]).slice(20..);
        let actions = EchoApp::default().on_data(&received);
        let [AppAction::Write(echoed)] = actions.as_slice() else {
            panic!("one write, got {actions:?}");
        };
        assert_eq!(echoed.as_ptr(), received.as_ptr(), "echoed by handle");
    }

    #[test]
    fn closure_factory_works() {
        let mut factory: Box<dyn AppFactory> =
            Box::new(|| Box::new(EchoApp::default()) as Box<dyn Application>);
        let mut a = factory.create();
        let mut b = factory.create();
        // Independent instances.
        let _ = a.on_data(&Bytes::from_static(b"xx"));
        assert_eq!(a.state_digest(), 2);
        assert_eq!(b.state_digest(), 0);
        let _ = b.on_open();
        assert_eq!(b.on_tick(SimTime::ZERO), Vec::new());
    }

    #[test]
    fn snapshot_restore_roundtrips_digest() {
        let mut a = EchoApp::default();
        let _ = a.on_data(&Bytes::from_static(b"some traffic"));
        let blob = a.snapshot().expect("echo app snapshots");
        let mut b = EchoApp::default();
        b.restore(&blob);
        assert_eq!(a.state_digest(), b.state_digest());
        // A garbage blob is ignored, not a panic.
        let mut c = EchoApp::default();
        c.restore(b"bad");
        assert_eq!(c.state_digest(), 0);
    }

    #[test]
    fn replicas_in_lockstep_given_same_input() {
        let mut p = EchoApp::default();
        let mut b = EchoApp::default();
        for chunk in [b"one".as_ref(), b"two", b"three"].map(Bytes::from_static) {
            let ap = p.on_data(&chunk);
            let ab = b.on_data(&chunk);
            assert_eq!(ap, ab);
        }
        assert_eq!(p.state_digest(), b.state_digest());
    }
}
