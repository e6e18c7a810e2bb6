//! Socket-level types shared between connections and the endpoint.

use core::cmp::Ordering;
use core::fmt;
use std::net::Ipv4Addr;

/// The four-tuple identifying a TCP connection, from the local endpoint's
/// point of view. Ordered by [`FourTuple::packed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FourTuple {
    /// Local (address, port).
    pub local: (Ipv4Addr, u16),
    /// Remote (address, port).
    pub remote: (Ipv4Addr, u16),
}

impl FourTuple {
    /// The same connection as seen from the other end.
    pub fn flipped(self) -> FourTuple {
        FourTuple {
            local: self.remote,
            remote: self.local,
        }
    }

    /// The tuple as one integer, in field order from the top (its low 12
    /// big-endian bytes are the wire's): ordering by it is ordering field
    /// by field, at one integer compare per demux tree node.
    #[inline]
    pub fn packed(self) -> u128 {
        u128::from(u32::from(self.local.0)) << 64
            | u128::from(self.local.1) << 48
            | u128::from(u32::from(self.remote.0)) << 16
            | u128::from(self.remote.1)
    }
}

impl Ord for FourTuple {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.packed().cmp(&other.packed())
    }
}

impl PartialOrd for FourTuple {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for FourTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}<->{}:{}",
            self.local.0, self.local.1, self.remote.0, self.remote.1
        )
    }
}

/// Identifies a socket within one [`crate::endpoint::TcpEndpoint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SocketId(pub u64);

impl fmt::Display for SocketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Events delivered to the application by the endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SocketEvent {
    /// A listener accepted a new connection (the event's socket id is the
    /// new connection's).
    Accepted,
    /// The handshake completed on a socket this endpoint opened.
    Connected,
    /// New in-order data is available to read.
    DataReadable,
    /// The peer closed its sending side.
    PeerFin,
    /// The connection was reset.
    Reset,
    /// The connection is fully closed.
    Closed,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn flip_roundtrips() {
        let t = FourTuple {
            local: (Ipv4Addr::new(10, 0, 0, 1), 1234),
            remote: (Ipv4Addr::new(10, 0, 0, 2), 80),
        };
        assert_eq!(t.flipped().flipped(), t);
        assert_eq!(t.flipped().local, t.remote);
    }

    /// An address or port drawn from its whole range, with both ends of
    /// it as likely as any other value.
    fn addr() -> impl Strategy<Value = Ipv4Addr> {
        prop_oneof![Just(0), Just(u32::MAX), any::<u32>()].prop_map(Ipv4Addr::from)
    }

    fn port() -> impl Strategy<Value = u16> {
        prop_oneof![Just(0), Just(u16::MAX), any::<u16>()]
    }

    fn tuple() -> impl Strategy<Value = FourTuple> {
        (addr(), port(), addr(), port()).prop_map(|(la, lp, ra, rp)| FourTuple {
            local: (la, lp),
            remote: (ra, rp),
        })
    }

    proptest! {
        /// The packed order is the field-by-field order the derived
        /// `Ord` had, and `Equal` holds exactly when `==` does.
        #[test]
        fn packed_order_is_the_field_order(a in tuple(), b in tuple()) {
            let fields = |t: FourTuple| (t.local.0.octets(), t.local.1, t.remote.0.octets(), t.remote.1);
            for (x, y) in [(a, b), (b, a), (a, a), (a, a.flipped())] {
                prop_assert_eq!(x.cmp(&y), fields(x).cmp(&fields(y)));
                prop_assert_eq!(x.cmp(&y) == Ordering::Equal, x == y);
            }
        }
    }

    #[test]
    fn display_formats() {
        let t = FourTuple {
            local: (Ipv4Addr::new(10, 0, 0, 1), 1234),
            remote: (Ipv4Addr::new(10, 0, 0, 2), 80),
        };
        assert_eq!(t.to_string(), "10.0.0.1:1234<->10.0.0.2:80");
        assert_eq!(SocketId(3).to_string(), "s3");
    }
}
