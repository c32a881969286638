//! FNV-1a 64 trace digest — the production day's byte-identical replay
//! certificate. The algorithm (offset basis,
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

    pub(crate) fn hex(&self) -> String {
        format!("{:016x}", self.0.finish())
    }
}
