//! 64-bit FNV-1a: the one hash step behind every published identity in the
//! workspace — prepacked-weight fingerprints, network fingerprints and the
//! concurrency certificate digest.

/// A running 64-bit FNV-1a hash; `Fnv1a::default()` starts at the offset
/// basis and `.0` is the digest so far.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Fnv1a(pub u64);

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// One FNV-1a step per byte of `bytes`.
    #[inline]
    pub fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// `v` as its eight little-endian bytes, so a word hashes the same on
    /// every host.
    #[inline]
    pub fn eat_word(&mut self, v: usize) {
        self.eat(&(v as u64).to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_fnv1a_vectors() {
        assert_eq!(Fnv1a::default().0, 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv1a::default();
        h.eat(b"a");
        assert_eq!(h.0, 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv1a::default();
        h.eat(b"foobar");
        assert_eq!(h.0, 0x8594_4171_f739_67e8);
    }
}
