//! Structural state fingerprints.

use std::hash::{Hash, Hasher};

/// A 64-bit fingerprint of `value`'s derived [`Hash`]: the Fx hash (the
/// word-at-a-time rotate-xor-multiply hash of `rustc-hash`'s `FxHasher`),
/// computed with no allocation.
///
/// The process traits of the two substrates (`MpProcess`, `SmProcess`)
/// require a fingerprint of each process's local state, and every
/// implementor in the workspace states it as `fingerprint_of(self)` over a
/// `#[derive(Hash)]` state. Equal states always get equal fingerprints;
/// distinct states collide only by accident of the 64-bit hash, which the
/// analyzer's collision audit (`crates/analyzer/tests/hash_audit.rs`)
/// checks on every registered target.
///
/// # Examples
///
/// ```
/// use session_types::fingerprint_of;
///
/// #[derive(Hash)]
/// struct Counter {
///     steps: u64,
/// }
///
/// assert_eq!(fingerprint_of(&Counter { steps: 3 }), fingerprint_of(&Counter { steps: 3 }));
/// assert_ne!(fingerprint_of(&Counter { steps: 3 }), fingerprint_of(&Counter { steps: 4 }));
/// ```
pub fn fingerprint_of<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut hasher = Fx(0);
    value.hash(&mut hasher);
    hasher.0
}

/// The Fx hash state. Kept here rather than taken from `rustc-hash` so
/// this vocabulary crate stays free of dependencies; the analyzer's tests
/// check the two agree.
struct Fx(u64);

/// `rustc-hash`'s multiplicative constant.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Fx {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for Fx {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            // Fold the byte count in so "ab" + "" and "a" + "b" differ.
            self.add(u64::from_le_bytes(word) ^ tail.len() as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add(i as u64);
        self.add((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}
