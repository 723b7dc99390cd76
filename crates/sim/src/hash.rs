//! The workspace's one FNV-1a hasher and its one seed derivation.
//!
//! Every fingerprint (sweep, telemetry, flowscope, chaos, matchup) folds
//! through [`Fnv64`], and every per-cell, per-chaos-event and per-ECMP-route
//! RNG seed comes from [`derive_seed`]. Both are pure functions of their
//! input bytes, which is what makes serial and parallel runs agree.

use std::fmt::{self, Write as _};

use crate::rng::splitmix64;

/// 64-bit FNV-1a over a byte stream.
///
/// Callers choose their own field delimiting (a length word, a sentinel,
/// or none) by what they [`write_u64`](Fnv64::write_u64) between fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// The FNV-1a 64-bit offset basis: the hash of the empty input.
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01B3;

    /// A hasher in the empty-input state.
    pub const fn new() -> Self {
        Fnv64(Self::OFFSET_BASIS)
    }

    /// Fold raw bytes.
    #[inline]
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Self::PRIME);
        }
    }

    /// Fold a word as its eight little-endian bytes.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// The hash of everything written so far.
    pub const fn finish(self) -> u64 {
        self.0
    }
}

/// Fold formatted text as its UTF-8 bytes, so a key can be hashed as it
/// is formatted, without building the string.
impl fmt::Write for Fnv64 {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.write_bytes(s.as_bytes());
        Ok(())
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

/// Derive an RNG seed from a base seed and a canonical key (a sweep cell's
/// parameter key, a chaos event key, an ECMP route key).
///
/// The key is hashed with FNV-1a and mixed into the base seed through two
/// SplitMix64 finalizer rounds, so:
///
/// * the seed is a pure function of `(base, key)`: no global state, so
///   serial and parallel execution trivially agree;
/// * it depends on the key's *content*, not on an index: adding values to
///   a sweep axis never changes the seeds of pre-existing cells;
/// * distinct keys get independent, well-mixed seeds.
///
/// The empty key is the identity: a one-cell grid with no axes runs the
/// base scenario with its own seed, bit-identical to a plain single run.
///
/// The key is hashed as it is formatted (pass `format_args!` to hash a
/// composed key without allocating it): the seed is that of the key's
/// text.
pub fn derive_seed(base: u64, key: impl fmt::Display) -> u64 {
    /// The key's hash, and whether the key had any bytes.
    struct Key(Fnv64, bool);
    impl fmt::Write for Key {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            self.1 |= !s.is_empty();
            self.0.write_str(s)
        }
    }
    let mut k = Key(Fnv64::new(), false);
    write!(k, "{key}").expect("a key formats without error");
    if !k.1 {
        return base;
    }
    let mut z = base ^ k.0.finish();
    for _ in 0..2 {
        z = splitmix64(&mut z);
    }
    z
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_pinned_vectors() {
        assert_eq!(Fnv64::new().finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv64::new();
        h.write_bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn write_u64_is_little_endian_bytes() {
        for v in [0, 1, 0x1f, u64::MAX, 0x0123_4567_89ab_cdef] {
            let mut a = Fnv64::new();
            a.write_u64(v);
            let mut b = Fnv64::new();
            b.write_bytes(&v.to_le_bytes());
            assert_eq!(a, b, "{v:#x}");
        }
    }

    #[test]
    fn derive_seed_empty_key_is_identity() {
        for base in [0, 1, 42, u64::MAX] {
            assert_eq!(derive_seed(base, ""), base);
        }
        assert_ne!(derive_seed(1, "x"), derive_seed(2, "x"));
        assert_ne!(derive_seed(1, "x"), derive_seed(1, "y"));
    }
}
