//! A multiplicative hasher for the address-keyed maps every frame goes
//! through (the switch's MAC table and groups, a host's ARP table).
//!
//! std's SipHash is keyed against adversarial collisions; these keys are
//! MAC and IPv4 addresses the scenario itself assigns, and hashing them
//! twice per hop was ~3 % of a bulk transfer. Do not use it for keys
//! that come from outside the program.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` under [`AddrHasher`]. Like any `HashMap`, nothing may
/// depend on its iteration order.
pub type AddrMap<K, V> = HashMap<K, V, BuildHasherDefault<AddrHasher>>;

/// Rotate, xor, multiply by an odd constant, one 8-byte word at a time.
#[derive(Debug, Default, Clone, Copy)]
pub struct AddrHasher(u64);

impl Hasher for AddrHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.0 = (self.0.rotate_left(5) ^ u64::from_le_bytes(word))
                .wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        // A product's low bits see only the key's low bits (constant in
        // `02:00:…` addresses) and the table indexes by them: fold the
        // well-mixed high half down.
        self.0 ^ (self.0 >> 32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mac::MacAddr;
    use std::collections::HashSet;
    use std::hash::BuildHasher;
    use std::net::Ipv4Addr;

    #[test]
    fn sequential_addresses_spread_over_both_ends_of_the_hash() {
        let build = BuildHasherDefault::<AddrHasher>::default();
        let macs = (0..20_000).map(|n| build.hash_one(MacAddr::unicast(n)));
        let ips = (0..20_000u32).map(|n| build.hash_one(Ipv4Addr::from(0x0a01_0000 + n)));
        for hashes in [macs.collect::<Vec<u64>>(), ips.collect()] {
            // hashbrown picks the bucket from the low bits and the
            // in-group tag from the top seven.
            let low: HashSet<u64> = hashes.iter().map(|h| h & 0x7fff).collect();
            let top: HashSet<u64> = hashes.iter().map(|h| h >> 57).collect();
            // 20 000 balls into 32 768 bins fill ~15 000 at random.
            assert!(low.len() > 12_000, "{} distinct low-15 values", low.len());
            assert_eq!(top.len(), 128);
        }
    }
}
