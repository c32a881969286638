//! FNV-1a 64: the workspace's one deterministic, seed-free hash.
//!
//! Replay digests, rendezvous shard ownership and metrics shard
//! assignment all have to come out identical on every run and every
//! machine, so none of them may use a randomized hasher. The offset
//! basis and prime are frozen: archived digests in `experiments/`
//! compare against this loop byte for byte.

/// Streaming FNV-1a 64 hasher.
///
/// ```
/// use bf_model::Fnv1a;
///
/// let mut h = Fnv1a::new();
/// h.write(b"foo");
/// h.write(b"bar");
/// assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A hasher at the FNV offset basis.
    #[inline]
    pub const fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Feeds `bytes`, in order.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash of everything fed so far.
    #[inline]
    pub const fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash(s: &str) -> u64 {
        let mut h = Fnv1a::new();
        h.write(s.as_bytes());
        h.finish()
    }

    #[test]
    fn matches_the_standard_vectors() {
        assert_eq!(hash(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash("foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn split_writes_hash_like_one_write() {
        let mut split = Fnv1a::new();
        split.write(b"foo");
        split.write(b"");
        split.write(b"bar");
        assert_eq!(split.finish(), hash("foobar"));
    }
}
