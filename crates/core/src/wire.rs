//! Shared wire-format helpers for the ST-TCP control protocols.
//!
//! Both heartbeats and recovery control messages travel over channels the
//! chaos engine can corrupt in flight (a flipped bit on a flaky switch
//! port or serial cable). TCP segments are already protected by the
//! internet checksum; the ST-TCP control formats carry their own CRC-32
//! so a corrupted message is *dropped like a lost one* rather than acted
//! on — acting on a corrupted heartbeat could trigger a spurious
//! failover or, worse, a spurious STONITH.

/// The CRC-32 lookup tables, built at compile time: `[0]` advances the
/// CRC by one byte, `[k]` by one byte followed by `k` zero bytes, so
/// eight lookups — independent of each other — advance it by eight
/// (slice-by-8; 8 KiB of read-only data).
///
/// Heartbeats are encoded and decoded on every period for every
/// connection, so the CRC sits on the simulator's hot path; one lookup
/// per byte is a dependent chain as long as the frame.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// One lookup per byte: the tail of every [`Crc32::update`], and the
/// reference the tests hold the eight-byte step to.
fn crc32_bytewise(mut crc: u32, data: &[u8]) -> u32 {
    for &byte in data {
        crc = (crc >> 8) ^ CRC32_TABLES[0][((crc ^ byte as u32) & 0xff) as usize];
    }
    crc
}

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(data);
    crc.finish()
}

/// An incremental CRC-32, for checksumming a message in pieces (e.g.
/// verifying a heartbeat with its on-wire CRC field treated as zero,
/// without copying the frame into a scratch buffer first).
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Crc32 {
        Crc32::new()
    }
}

impl Crc32 {
    /// A fresh CRC state.
    pub fn new() -> Crc32 {
        Crc32 { state: !0 }
    }

    /// Folds `data` into the CRC, eight bytes a step.
    pub fn update(&mut self, data: &[u8]) {
        let t = &CRC32_TABLES;
        let mut crc = self.state;
        let mut chunks = data.chunks_exact(8);
        for c in &mut chunks {
            let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
            let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
            crc = t[7][(lo & 0xff) as usize]
                ^ t[6][(lo >> 8 & 0xff) as usize]
                ^ t[5][(lo >> 16 & 0xff) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xff) as usize]
                ^ t[2][(hi >> 8 & 0xff) as usize]
                ^ t[1][(hi >> 16 & 0xff) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        self.state = crc32_bytewise(crc, chunks.remainder());
    }

    /// The final CRC value.
    pub fn finish(self) -> u32 {
        !self.state
    }
}

/// Reads a big-endian `u32` at `pos`, or `None` when fewer than four
/// bytes remain. Total: never panics, any input, any position.
///
/// Decoders use this instead of direct indexing so a missing or wrong
/// length precondition degrades into a decode error instead of a panic —
/// the control channels carry attacker-grade garbage under chaos, and a
/// panic in a decoder turns bit rot into a crashed server.
pub fn read_u32_at(wire: &[u8], pos: usize) -> Option<u32> {
    let bytes = wire.get(pos..pos.checked_add(4)?)?;
    Some(u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]))
}

/// Reads a big-endian `u64` at `pos`, or `None` when fewer than eight
/// bytes remain. Total like [`read_u32_at`].
pub fn read_u64_at(wire: &[u8], pos: usize) -> Option<u64> {
    let bytes = wire.get(pos..pos.checked_add(8)?)?;
    let mut buf = [0u8; 8];
    buf.copy_from_slice(bytes);
    Some(u64::from_be_bytes(buf))
}

/// Splits a message framed as `body ‖ crc32(body):4` into
/// `(body, stored_crc)`, or `None` when the frame cannot even hold the
/// CRC tail plus `min_body` bytes of payload. Total: never panics.
pub fn split_crc_tail(wire: &[u8], min_body: usize) -> Option<(&[u8], u32)> {
    let body_len = wire.len().checked_sub(4)?;
    if body_len < min_body {
        return None;
    }
    let (body, tail) = wire.split_at(body_len);
    let mut crc_bytes = [0u8; 4];
    crc_bytes.copy_from_slice(tail);
    Some((body, u32::from_be_bytes(crc_bytes)))
}

/// [`split_crc_tail`] plus the CRC check: returns the body only when the
/// stored tail matches `crc32(body)`.
pub fn checked_crc_frame(wire: &[u8], min_body: usize) -> Option<&[u8]> {
    let (body, stored) = split_crc_tail(wire, min_body)?;
    (crc32(body) == stored).then_some(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    proptest! {
        /// The eight-byte step against one lookup per byte: arbitrary
        /// bytes cut into arbitrary `update` calls. Short inputs put every
        /// body and tail length at every offset; the long ones run
        /// hundreds of whole steps.
        #[test]
        fn crc_matches_the_bytewise_reference_at_any_split(
            data in prop_oneof![vec(any::<u8>(), 0..65), vec(any::<u8>(), 4096..4200)],
            cuts in vec(any::<usize>(), 0..6),
        ) {
            let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (data.len() + 1)).collect();
            cuts.sort_unstable();
            let (mut crc, mut from) = (Crc32::new(), 0);
            for cut in cuts.into_iter().chain([data.len()]) {
                crc.update(&data[from..cut]);
                from = cut;
            }
            prop_assert_eq!(crc.finish(), !crc32_bytewise(!0, &data));
        }
    }

    #[test]
    fn known_vectors() {
        // Standard check value for the IEEE CRC-32.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn streaming_matches_one_shot_at_every_split() {
        let data: Vec<u8> = (0u16..97)
            .map(|i| (i.wrapping_mul(131) >> 2) as u8)
            .collect();
        let whole = crc32(&data);
        for split in 0..=data.len() {
            let mut crc = Crc32::new();
            crc.update(&data[..split]);
            crc.update(&data[split..]);
            assert_eq!(crc.finish(), whole, "split at {split}");
        }
    }

    #[test]
    fn reads_are_total_at_every_position() {
        let data: Vec<u8> = (0u8..32).collect();
        for pos in 0..=data.len() + 8 {
            let r32 = read_u32_at(&data, pos);
            let r64 = read_u64_at(&data, pos);
            assert_eq!(r32.is_some(), pos + 4 <= data.len(), "u32 at {pos}");
            assert_eq!(r64.is_some(), pos + 8 <= data.len(), "u64 at {pos}");
        }
        assert_eq!(read_u32_at(&data, usize::MAX), None);
        assert_eq!(read_u64_at(&data, usize::MAX - 4), None);
        assert_eq!(read_u32_at(&data, 0), Some(0x00010203));
    }

    #[test]
    fn crc_tail_framing_roundtrips_and_rejects_short_frames() {
        let body = b"fetch-reply body".to_vec();
        let mut framed = body.clone();
        framed.extend_from_slice(&crc32(&body).to_be_bytes());
        assert_eq!(split_crc_tail(&framed, 1), Some((&body[..], crc32(&body))));
        assert_eq!(checked_crc_frame(&framed, 1), Some(&body[..]));
        // A frame shorter than min_body + 4 is rejected, down to empty.
        for cut in 1..=framed.len() {
            let short = &framed[..framed.len() - cut];
            if short.len() < 1 + 4 {
                assert_eq!(split_crc_tail(short, 1), None);
            }
            assert_eq!(checked_crc_frame(short, 1), None, "cut {cut}");
        }
        // A corrupted tail or body fails the checked variant.
        let mut bad = framed.clone();
        *bad.last_mut().unwrap() ^= 1;
        assert_eq!(checked_crc_frame(&bad, 1), None);
        let mut bad = framed;
        bad[0] ^= 1;
        assert_eq!(checked_crc_frame(&bad, 1), None);
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let base = b"heartbeat payload bytes".to_vec();
        let want = crc32(&base);
        for i in 0..base.len() * 8 {
            let mut flipped = base.clone();
            flipped[i / 8] ^= 1 << (i % 8);
            assert_ne!(crc32(&flipped), want, "bit {i} not detected");
        }
    }
}
