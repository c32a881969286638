//! FNV-1a 64 trace digest — the byte-identical replay certificate shared
//! by the scale and federation harnesses. The algorithm (offset basis,
//! prime, little-endian u64 feeding) is frozen: archived digests in
//! `experiments/` compare against it byte for byte.

use bf_model::Fnv1a;

/// FNV-1a 64 over an event stream fed as `u64` words.
pub(crate) struct Digest(Fnv1a);

impl Digest {
    pub(crate) fn new() -> Digest {
        Digest(Fnv1a::new())
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.0.write(&v.to_le_bytes());
    }

    /// Feeds a string by length + bytes (length first so `("ab","c")`
    /// and `("a","bc")` digest differently).
    pub(crate) fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.0.write(s.as_bytes());
    }

    pub(crate) fn hex(&self) -> String {
        format!("{:016x}", self.0.finish())
    }
}
