//! Fx-style hashing.
//!
//! The standard library's default SipHash is robust against HashDoS but slow
//! for the short integer keys (interned symbols, atom ids) that dominate this
//! workspace. All inputs here are trusted (no attacker-controlled keys reach
//! long-lived tables), so we use the Fx mixing function popularized by the
//! Rust compiler: `state = (state.rotate_left(5) ^ word) * K`.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant from the Firefox/rustc Fx hash (64-bit variant).
const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast, non-cryptographic hasher for trusted keys.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    state: u64,
}

impl FxHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // The Fx multiply pushes entropy toward the high bits and leaves
        // the low bits — exactly the ones an open-addressing table masks —
        // barely mixed for structured keys ("s0", "s1", …, or sequential
        // ids). Folding the high half back down costs one shift+xor and
        // turns those near-sequential states into well-spread slot
        // indexes; without it a million-constant bulk load collapses into
        // a handful of probe clusters and interning goes quadratic.
        self.state ^ (self.state >> 32)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            // `chunks_exact(8)` yields 8-byte slices only, so the
            // conversion always succeeds and the branch folds away.
            if let Ok(word) = c.try_into() {
                self.mix(u64::from_le_bytes(word));
            }
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            // Mix in the remainder length so that e.g. "a" and "a\0" differ.
            self.mix(u64::from_le_bytes(buf) ^ (rest.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.mix(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.mix(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }

    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.mix(n as u64);
        self.mix((n >> 64) as u64);
    }
}

/// Slice-by-16 CRC-32 tables, built at compile time (16 KiB of rodata).
/// `CRC_TABLES[0]` is the classic byte-indexed table; `CRC_TABLES[k]`
/// advances a byte through `k` further zero bytes, which lets the hot
/// loop fold sixteen input bytes per iteration across two independent
/// dependency chains (the second eight bytes don't touch the running
/// crc until the final XOR, so the lookups pipeline).
const CRC_TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
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
    let mut t = 1;
    while t < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) over `bytes`.
///
/// Used for integrity checks on durable artifacts — the serve tenant
/// journal and the multi-megabyte binary data snapshots — where a
/// well-known, externally verifiable checksum matters more than raw
/// speed. Slice-by-16 (sixteen table lookups fold sixteen bytes, two
/// independent eight-byte chains per iteration) so checksumming a
/// million-atom snapshot payload stays a small fraction of its load
/// time.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    let mut chunks = bytes.chunks_exact(16);
    for c in chunks.by_ref() {
        let a = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let b = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        let d = u32::from_le_bytes([c[8], c[9], c[10], c[11]]);
        let e = u32::from_le_bytes([c[12], c[13], c[14], c[15]]);
        crc = CRC_TABLES[15][(a & 0xFF) as usize]
            ^ CRC_TABLES[14][((a >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[13][((a >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[12][(a >> 24) as usize]
            ^ CRC_TABLES[11][(b & 0xFF) as usize]
            ^ CRC_TABLES[10][((b >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[9][((b >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[8][(b >> 24) as usize]
            ^ CRC_TABLES[7][(d & 0xFF) as usize]
            ^ CRC_TABLES[6][((d >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((d >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][(d >> 24) as usize]
            ^ CRC_TABLES[3][(e & 0xFF) as usize]
            ^ CRC_TABLES[2][((e >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[1][((e >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[0][(e >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// `BuildHasher` producing [`FxHasher`]s.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with the fast Fx hash.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with the fast Fx hash.
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(value: &T) -> u64 {
        FxBuildHasher::default().hash_one(value)
    }

    #[test]
    fn deterministic_across_hasher_instances() {
        assert_eq!(hash_of(&42u32), hash_of(&42u32));
        assert_eq!(hash_of(&"border"), hash_of(&"border"));
    }

    #[test]
    fn distinguishes_close_integers() {
        assert_ne!(hash_of(&0u64), hash_of(&1u64));
        assert_ne!(hash_of(&1u64), hash_of(&2u64));
    }

    #[test]
    fn distinguishes_prefix_strings() {
        assert_ne!(hash_of(&"a"), hash_of(&"ab"));
        assert_ne!(hash_of(&"abcdefgh"), hash_of(&"abcdefgh\0"));
    }

    #[test]
    fn empty_input_hashes_to_initial_state() {
        let mut h = FxHasher::default();
        h.write(&[]);
        assert_eq!(h.finish(), 0);
    }

    #[test]
    fn map_and_set_aliases_work() {
        let mut m: FxHashMap<&str, u32> = FxHashMap::default();
        m.insert("radius", 2);
        assert_eq!(m.get("radius"), Some(&2));
        let mut s: FxHashSet<u64> = FxHashSet::default();
        assert!(s.insert(7));
        assert!(!s.insert(7));
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn crc32_detects_single_bit_flips() {
        let base = crc32(b"tenantA\t/some/dir");
        assert_ne!(base, crc32(b"tenantB\t/some/dir"));
        assert_ne!(base, crc32(b"tenantA\t/some/dis"));
    }

    #[test]
    fn long_inputs_use_all_bytes() {
        let a: Vec<u8> = (0..64).collect();
        let mut b = a.clone();
        b[63] ^= 1;
        let mut ha = FxHasher::default();
        ha.write(&a);
        let mut hb = FxHasher::default();
        hb.write(&b);
        assert_ne!(ha.finish(), hb.finish());
    }
}
