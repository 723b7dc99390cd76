//! The workspace's one FNV-1a hasher and its one seed derivation.
//!
//! Every fingerprint (sweep, telemetry, flowscope, chaos, matchup) folds
//! through [`Fnv64`], and every per-cell, per-chaos-event and per-ECMP-route
//! RNG seed comes from [`derive_seed`] or its byte feed [`SeedKey`], which
//! share one finaliser. All are pure functions of their input bytes, which
//! is what makes serial and parallel runs agree.

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
/// text. A caller that derives many seeds from keys sharing a prefix can
/// feed a [`SeedKey`] instead; both end in the same finaliser.
pub fn derive_seed(base: u64, key: impl fmt::Display) -> u64 {
    let mut k = SeedKey::new();
    write!(k, "{key}").expect("a key formats without error");
    k.seed(base)
}

/// A [`derive_seed`] key fed piece by piece: the FNV-1a state of the
/// bytes so far, and whether there were any. It is `Copy`, so the state
/// after a constant prefix can be kept and extended once per key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedKey {
    hash: Fnv64,
    empty: bool,
}

impl SeedKey {
    /// The empty key.
    pub const fn new() -> Self {
        SeedKey {
            hash: Fnv64::new(),
            empty: true,
        }
    }

    /// Append text.
    #[inline]
    pub fn push_str(&mut self, s: &str) {
        self.empty &= s.is_empty();
        self.hash.write_bytes(s.as_bytes());
    }

    /// Append `v` in decimal, as `{v}` formats it.
    #[inline]
    pub fn push_decimal(&mut self, mut v: u64) {
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        loop {
            at -= 1;
            digits[at] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        self.empty = false;
        self.hash.write_bytes(&digits[at..]);
    }

    /// The seed this key derives from `base`: the key's hash mixed into
    /// `base` through two SplitMix64 finalizer rounds, or `base` itself
    /// when the key is empty.
    pub fn seed(self, base: u64) -> u64 {
        if self.empty {
            return base;
        }
        let mut z = base ^ self.hash.finish();
        for _ in 0..2 {
            z = splitmix64(&mut z);
        }
        z
    }
}

impl Default for SeedKey {
    fn default() -> Self {
        SeedKey::new()
    }
}

impl fmt::Write for SeedKey {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.push_str(s);
        Ok(())
    }
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
        assert_eq!(SeedKey::new().seed(7), 7);
        let mut k = SeedKey::new();
        k.push_str("");
        assert_eq!(k.seed(7), 7);
    }

    #[test]
    fn pieces_derive_the_seed_of_their_text() {
        for v in [0, 1, 9, 10, 99, 100, 12345, u64::from(u32::MAX), u64::MAX] {
            let mut k = SeedKey::new();
            k.push_str("flow");
            k.push_decimal(v);
            assert_eq!(k.seed(3), derive_seed(3, format_args!("flow{v}")), "{v}");
            let mut k = SeedKey::new();
            k.push_decimal(v);
            assert_eq!(k.seed(3), derive_seed(3, v), "{v}");
        }
    }
}
