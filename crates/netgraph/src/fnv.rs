//! FNV-1a (64-bit), the workspace's order-sensitive checksum. Index
//! trailers, answer-stream checksums, curve fingerprints and plan
//! digests all fold with these two functions, so a value pinned in one
//! place can be recomputed anywhere else.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte stream.
///
/// ```
/// assert_eq!(netgraph::fnv1a(*b"a"), 0xaf63_dc4c_8601_ec8c);
/// ```
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
        .fold(OFFSET, |h, b| (h ^ u64::from(b)).wrapping_mul(PRIME))
}

/// FNV-1a over a stream of words, each fed as its little-endian bytes.
pub fn fnv1a_words(words: impl IntoIterator<Item = u64>) -> u64 {
    fnv1a(words.into_iter().flat_map(u64::to_le_bytes))
}
