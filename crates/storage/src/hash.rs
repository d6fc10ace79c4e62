//! A small deterministic hasher for maps keyed by ids the cluster itself
//! generates (`ObjectId`, request ids, transaction tokens, timer tokens).
//!
//! `std`'s default SipHash defends against keys an adversary chose; these
//! keys are counters and bit-tagged integers minted by our own code, and
//! hashing them showed up on every message handler. Rules for using
//! [`IdHashMap`] and [`IdHashSet`]:
//!
//! * only for keys the program generates — names arriving from outside
//!   keep the default hasher;
//! * never let iteration order reach an output: sort, or be
//!   order-insensitive, exactly as with the default hasher.
//!
//! It lives in this crate because `ObjectId` does and both `wv-txn` and
//! `wv-core` already depend on it.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` using [`IdHasher`]; build one with `IdHashMap::default()`.
pub type IdHashMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` using [`IdHasher`], under the same rules as [`IdHashMap`].
pub type IdHashSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

/// Odd 64-bit constant (2^64 / golden ratio), the classic multiplicative
/// hashing multiplier.
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// Multiply-rotate hasher: each word is mixed in with one rotate, one xor
/// and one multiply.
///
/// A multiply only carries entropy upward, so ids that differ in their
/// high bits alone (`ObjectId(i << 32)`, config-tagged ids) leave the low
/// half of the state constant. `HashMap` picks its bucket from the *low*
/// bits, hence [`finish`](Hasher::finish) folds the high half down — an
/// un-folded multiply puts all such keys in one probe chain.
#[derive(Clone, Copy, Debug, Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    /// The general path (and, through the trait's defaults, the one for
    /// integers narrower than a word); every key in use is `u64`s.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(26) ^ n).wrapping_mul(K);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::ObjectId;
    use std::hash::{BuildHasher, Hash};

    /// Same field layout as `wv_txn::TxToken` (which sits above this
    /// crate): two `u64`s hashed in order.
    #[derive(Hash)]
    struct Token {
        ts: u64,
        id: u64,
    }

    const KEYS: u64 = 4096;

    /// Largest bucket when `KEYS` keys are binned by the low `bits` bits of
    /// their hash, as a multiple of the mean bucket size.
    fn worst_bucket<T: Hash>(key: impl Fn(u64) -> T, bits: u32) -> f64 {
        let build = BuildHasherDefault::<IdHasher>::default();
        let mut buckets = vec![0u64; 1 << bits];
        for i in 0..KEYS {
            buckets[(build.hash_one(key(i)) & ((1 << bits) - 1)) as usize] += 1;
        }
        let max = *buckets.iter().max().expect("non-empty");
        max as f64 * buckets.len() as f64 / KEYS as f64
    }

    /// The table index comes from the low bits of the hash. Every key
    /// shape the cluster uses must spread over them — the shapes that vary
    /// only in high bits are the ones a bare multiply collapses into one
    /// bucket (128x / 4096x the mean here).
    ///
    /// Bound: 4x the mean over the low 7 bits (mean 32). Over the low 12
    /// bits the mean is 1 and even an ideal random function fills its
    /// fullest bucket with ~7 of 4096 keys, so the bound there is 8.
    #[test]
    fn generated_key_shapes_spread_over_the_low_bits() {
        const CONFIG_TAG: u64 = 1 << 63;
        type Shape = fn(u64) -> u64;
        let shapes: [(&str, Shape); 5] = [
            ("suite ids 1..=n", |i| i + 1),
            ("suite ids in the high half", |i| i << 32),
            ("config-tagged high-half ids", |i| (i << 32) | CONFIG_TAG),
            ("config-tagged ids", |i| (i + 1) | CONFIG_TAG),
            // `ReqId::new(counter, site)`: one client's requests.
            ("request ids of one site", |i| (i << 16) | 5),
        ];
        for (bits, bound) in [(7, 4.0), (12, 8.0)] {
            for (name, shape) in shapes {
                let worst = worst_bucket(|i| ObjectId(shape(i)), bits);
                assert!(worst <= bound, "{name}: low {bits} bits, worst {worst}x");
            }
            // Tokens: birth timestamp = the request id, id = a counter.
            let token = |i: u64| Token {
                ts: (i << 16) | 5,
                id: i,
            };
            let worst = worst_bucket(token, bits);
            assert!(worst <= bound, "tx tokens: low {bits} bits, worst {worst}x");
            let worst = worst_bucket(|i: u64| Token { ts: i, id: i }, bits);
            assert!(worst <= bound, "equal-field tokens: {bits} bits, {worst}x");
        }
    }

    #[test]
    fn byte_slices_hash_by_content() {
        let build = BuildHasherDefault::<IdHasher>::default();
        assert_eq!(build.hash_one("ab"), build.hash_one("ab"));
        assert_ne!(build.hash_one("ab"), build.hash_one("ba"));
        assert_ne!(build.hash_one([1u8; 9]), build.hash_one([1u8; 10]));
    }
}
