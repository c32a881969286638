//! The refcounted payload buffer threaded through the datapath.
//!
//! [`Payload`] wraps [`bytes::Bytes`]: an immutable, cheaply sliceable
//! view into a refcounted buffer. Every hop of the datapath — codec
//! decode, shared-memory staging, session dispatch, device adoption —
//! passes a `Payload` by reference count instead of copying the bytes,
//! so the only real memcpys left are the one serialization per wire
//! direction and the copy-on-write a kernel performs when it actually
//! mutates a device bank.
//!
//! Inside datapath modules, take new references with [`Payload::share`]
//! rather than `.clone()`: the explicit name keeps refcount bumps
//! visually distinct from byte copies (and keeps the `payload_copy` lint
//! rule silent). Copies that *are* unavoidable go through
//! [`Payload::into_vec`] / `From<&[u8]>`, which report to
//! [`bf_metrics::record_memcpy`].

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::codec::{get_varint, put_varint, CodecError, WireDecode, WireEncode};

/// An immutable, refcounted byte buffer.
///
/// Cloning (or, preferred in datapath code, [`Payload::share`]) is a
/// reference-count bump; the bytes are copied only on serialization, on
/// [`Payload::into_vec`] when the buffer is still shared, or on
/// construction from a borrowed slice.
///
/// The wire encoding is identical to the old `Vec<u8>` field encoding
/// (varint length prefix followed by the raw bytes), and decoding is
/// zero-copy: the decoded payload is a slice of the received frame.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Payload(Bytes);

impl Payload {
    /// An empty payload.
    pub fn new() -> Self {
        Payload(Bytes::new())
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the payload is zero bytes.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Takes another reference to the same bytes (a refcount bump, never
    /// a copy). Use this instead of `.clone()` in datapath code.
    pub fn share(&self) -> Payload {
        Payload(self.0.clone())
    }

    /// Borrows the bytes.
    pub fn as_slice(&self) -> &[u8] {
        self.0.as_ref()
    }

    /// Unwraps into the underlying [`Bytes`] view.
    pub fn into_bytes(self) -> Bytes {
        self.0
    }

    /// Converts into an owned `Vec<u8>`.
    ///
    /// When this payload is the sole reference to a full buffer the
    /// `Vec` is recovered in place; otherwise the bytes are copied (and
    /// the copy reported to [`bf_metrics::record_memcpy`]).
    pub fn into_vec(self) -> Vec<u8> {
        match self.0.try_into_unique_vec() {
            Ok(vec) => vec,
            Err(shared) => {
                bf_metrics::record_memcpy(shared.len() as u64);
                shared.to_vec()
            }
        }
    }
}

impl From<Vec<u8>> for Payload {
    /// Adopts the vector without copying.
    fn from(v: Vec<u8>) -> Self {
        Payload(Bytes::from(v))
    }
}

impl From<Bytes> for Payload {
    fn from(b: Bytes) -> Self {
        Payload(b)
    }
}

impl From<&[u8]> for Payload {
    /// Copies the borrowed slice (reported to copy accounting).
    fn from(d: &[u8]) -> Self {
        bf_metrics::record_memcpy(d.len() as u64);
        Payload(Bytes::from(d))
    }
}

impl<const N: usize> From<[u8; N]> for Payload {
    fn from(d: [u8; N]) -> Self {
        Payload::from(d.to_vec())
    }
}

impl std::ops::Deref for Payload {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.0.as_ref()
    }
}

impl AsRef<[u8]> for Payload {
    fn as_ref(&self) -> &[u8] {
        self.0.as_ref()
    }
}

impl PartialEq<[u8]> for Payload {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for Payload {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for Payload {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Payload {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}

impl WireEncode for Payload {
    fn encode(&self, buf: &mut BytesMut) {
        put_varint(buf, self.len() as u64);
        bf_metrics::record_memcpy(self.len() as u64);
        buf.put_slice(self.as_slice());
    }
}

impl WireDecode for Payload {
    fn decode(buf: &mut Bytes) -> Result<Self, CodecError> {
        let len = get_varint(buf)? as usize;
        if buf.remaining() < len {
            return Err(CodecError::UnexpectedEof);
        }
        // Zero-copy: the payload is a refcounted slice of the frame.
        // bf-taint: sanitized(the remaining() guard above proves the declared len fits the received buffer)
        Ok(Payload(buf.split_to(len)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_encoding_is_a_varint_length_then_the_bytes() {
        for data in [vec![], vec![7u8], vec![0xA5; 4096]] {
            let mut frame = BytesMut::new();
            put_varint(&mut frame, data.len() as u64);
            frame.put_slice(&data);
            assert_eq!(Payload::from(data).to_bytes(), frame.freeze());
        }
    }

    #[test]
    fn decode_is_a_zero_copy_frame_slice() {
        let payload: Payload = vec![1u8, 2, 3, 4].into();
        let frame = payload.to_bytes();
        let before = bf_metrics::copy_counters();
        let back = Payload::from_bytes(frame).expect("decode");
        let delta = bf_metrics::copy_counters().since(before);
        assert_eq!(back, payload);
        assert_eq!(delta.bytes, 0, "decode must not copy payload bytes");
    }

    #[test]
    fn share_aliases_and_into_vec_recovers_unique_buffers() {
        let payload: Payload = vec![9u8; 64].into();
        let alias = payload.share();
        assert_eq!(alias, payload);
        drop(alias);
        // Sole reference to the full buffer: recovered without copying.
        let before = bf_metrics::copy_counters();
        let vec = payload.into_vec();
        let delta = bf_metrics::copy_counters().since(before);
        assert_eq!(vec, vec![9u8; 64]);
        assert_eq!(delta.bytes, 0);
    }

    #[test]
    fn into_vec_copies_when_shared() {
        let payload: Payload = vec![3u8; 32].into();
        let alias = payload.share();
        let before = bf_metrics::copy_counters();
        let vec = payload.into_vec();
        let delta = bf_metrics::copy_counters().since(before);
        assert_eq!(vec, vec![3u8; 32]);
        assert_eq!(delta.bytes, 32, "shared buffer must be copied out");
        assert_eq!(alias, vec);
    }
}
