//! A multiplicative hasher for the maps a frame or a heartbeat record is
//! looked up in. Four users: the switch's MAC table, its multicast
//! groups, a host's ARP table, and `sttcp`'s `conn_key` index.
//!
//! std's SipHash is keyed against adversarial collisions; hashing
//! addresses twice per hop was ~3 % of a bulk transfer, and the ordered
//! map the key index was before cost the scale ramp a tenth. **The
//! rule:** every key here is assigned by the scenario (MAC and IPv4
//! addresses) or folded from what it assigns (`conn_key` is an FNV fold
//! of the four-tuple). Do not use it for keys that come from outside the
//! program — a chaos mode that forges addresses or keys is the day these
//! maps take a keyed hasher.

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
        // The scale ramp's `conn_key`s — `sttcp` folds each four-tuple
        // (one service address, one client port, 20 000 client hosts)
        // with FNV-1a to 32 bits; restated, since it sits above this crate.
        let key = |n: u32| {
            let [a, b, c, d] = [10, 0, 1 + (n / 240) as u8, 10 + (n % 240) as u8];
            let fnv = |h: u64, &x: &u8| (h ^ u64::from(x)).wrapping_mul(0x0000_0100_0000_01b3);
            let h = [10, 0, 0, 100, 0, 80, a, b, c, d, 0x9c, 0x40]
                .iter()
                .fold(0xcbf2_9ce4_8422_2325, fnv);
            (h ^ (h >> 32)) as u32
        };
        let hashed = |h: &dyn Fn(u32) -> u64| (0..20_000).map(h).collect::<Vec<u64>>();
        for hashes in [
            hashed(&|n| build.hash_one(MacAddr::unicast(n))),
            hashed(&|n| build.hash_one(Ipv4Addr::from(0x0a01_0000 + n))),
            hashed(&|n| build.hash_one(key(n))),
        ] {
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
