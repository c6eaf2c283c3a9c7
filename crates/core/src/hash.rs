//! The stack's one byte-wise hash.

/// 64-bit FNV-1a over a byte stream (offset basis `0xcbf29ce484222325`,
/// prime `0x100000001b3`). Shards the tuner's on-disk cache and tags the
/// apps' `eval_key`s, so its values are load-bearing: changing it moves
/// cache entries between shard directories.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    // `fold`, not `for`: adapters like `flat_map` (word keys hashed byte by
    // byte) only compile down to plain nested loops under internal iteration.
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::fnv1a;

    #[test]
    fn fnv1a_known_answers() {
        assert_eq!(fnv1a("".bytes()), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a("a".bytes()), 0xaf63_dc4c_8601_ec8c);
    }
}
