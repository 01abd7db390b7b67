//! Rolling k-gram hashing.
//!
//! Winnowing needs a hash of every k-gram of the (normalized) document. A
//! polynomial rolling hash (Karp–Rabin style) computes all of them in a
//! single pass; the hash is then finalized with a 64-bit mixer so that the
//! "minimum hash in window" selection is not biased by the last character.

/// Base of the polynomial rolling hash. A largish odd constant; the exact
/// value only needs to spread bytes well before the final mix.
pub(crate) const BASE: u64 = 1_000_003;

/// Finalizer: splitmix64, a cheap full-avalanche 64-bit mixer.
#[inline]
#[must_use]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Hashes of every `k`-gram of `bytes`, computed with a rolling hash and
/// finalized with [`mix64`].
///
/// Returns an empty vector when `bytes.len() < k`.
///
/// # Panics
///
/// Panics if `k == 0`.
#[must_use]
pub fn rolling_hashes(bytes: &[u8], k: usize) -> Vec<u64> {
    assert!(k > 0, "k-gram size must be positive");
    if bytes.len() < k {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(bytes.len() - k + 1);

    // base^(k-1), used to remove the outgoing byte.
    let mut top = 1u64;
    for _ in 0..k - 1 {
        top = top.wrapping_mul(BASE);
    }

    let mut h = 0u64;
    for &b in &bytes[..k] {
        h = h.wrapping_mul(BASE).wrapping_add(u64::from(b) + 1);
    }
    out.push(mix64(h));

    for i in k..bytes.len() {
        let outgoing = u64::from(bytes[i - k]) + 1;
        h = h.wrapping_sub(outgoing.wrapping_mul(top));
        h = h.wrapping_mul(BASE).wrapping_add(u64::from(bytes[i]) + 1);
        out.push(mix64(h));
    }
    out
}

/// Hashes of every `k`-gram, computed naively (no rolling). Used by tests to
/// cross-check [`rolling_hashes`] and exposed for callers that hash short
/// strings where the rolling setup cost dominates.
///
/// # Panics
///
/// Panics if `k == 0`.
#[must_use]
pub fn kgram_hashes(bytes: &[u8], k: usize) -> Vec<u64> {
    assert!(k > 0, "k-gram size must be positive");
    if bytes.len() < k {
        return Vec::new();
    }
    bytes
        .windows(k)
        .map(|w| {
            let mut h = 0u64;
            for &b in w {
                h = h.wrapping_mul(BASE).wrapping_add(u64::from(b) + 1);
            }
            mix64(h)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rolling_matches_naive() {
        let data = b"the quick brown fox jumps over the lazy dog";
        for k in [1, 2, 3, 5, 8, 13] {
            assert_eq!(rolling_hashes(data, k), kgram_hashes(data, k), "k={k}");
        }
    }

    #[test]
    fn short_input_yields_empty() {
        assert!(rolling_hashes(b"ab", 3).is_empty());
        assert!(kgram_hashes(b"", 1).is_empty());
    }

    #[test]
    fn count_is_len_minus_k_plus_one() {
        let data = b"abcdefghij";
        assert_eq!(rolling_hashes(data, 4).len(), 7);
    }

    #[test]
    #[should_panic(expected = "k-gram size must be positive")]
    fn zero_k_panics() {
        let _ = rolling_hashes(b"abc", 0);
    }

    #[test]
    fn equal_kgrams_hash_equal_and_position_independent() {
        let hashes = rolling_hashes(b"abcXabc", 3);
        // "abc" at position 0 and position 4 must hash identically.
        assert_eq!(hashes[0], hashes[4]);
    }

    #[test]
    fn different_kgrams_usually_differ() {
        let hashes = rolling_hashes(b"abcdefgh", 3);
        let unique: std::collections::HashSet<_> = hashes.iter().collect();
        assert_eq!(unique.len(), hashes.len());
    }

    #[test]
    fn mixer_is_not_identity() {
        assert_ne!(mix64(0), 0);
        assert_ne!(mix64(1), 1);
    }
}
