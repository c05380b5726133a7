//! A std-only hasher for the dense integer keys the workspace computes
//! itself: link indices ([`Hypercube::dir_edge_index`]) and schedule
//! steps.
//!
//! [`Hypercube::dir_edge_index`]: crate::Hypercube::dir_edge_index

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A std-only multiply-rotate hasher for link ids and steps. The keys are
/// dense indices the program computes itself, never untrusted input, so
/// SipHash's flood resistance buys nothing here and one multiply per word
/// is enough.
#[derive(Debug, Clone, Copy, Default)]
pub struct LinkHasher(u64);

impl Hasher for LinkHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }
}

/// The [`BuildHasher`](std::hash::BuildHasher) of [`LinkHasher`].
pub type LinkBuildHasher = BuildHasherDefault<LinkHasher>;

/// A map keyed by link id.
pub type LinkMap<V> = HashMap<u64, V, LinkBuildHasher>;

/// A set of link ids.
pub type LinkSet = HashSet<u64, LinkBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    /// The hash of a `u64` key is one multiply of the key: the tenant
    /// ledger's probe sequence depends on this exact function.
    #[test]
    fn u64_keys_hash_with_one_multiply() {
        let b = LinkBuildHasher::default();
        for x in [0u64, 1, 7, 0xdead_beef, u64::MAX] {
            assert_eq!(b.hash_one(x), x.wrapping_mul(0x51_7c_c1_b7_27_22_0a_95));
        }
    }

    /// `usize` words hash like the `u64` of the same value, not byte by
    /// byte.
    #[test]
    fn usize_words_hash_like_u64() {
        let b = LinkBuildHasher::default();
        assert_eq!(b.hash_one((3u64, 41usize)), b.hash_one((3u64, 41u64)));
    }
}
