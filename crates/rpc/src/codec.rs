//! A compact binary wire codec — the stand-in for protobuf.
//!
//! Messages are encoded into real bytes so that the serialization cost
//! model can be driven by actual encoded sizes, and so codec bugs surface
//! as decode failures rather than silent divergence. The format is a
//! simple tag-free positional encoding with varint-style length prefixes
//! for variable-size fields.

use std::error::Error;
use std::fmt;

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Decode failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the field was complete.
    UnexpectedEof,
    /// A discriminant byte did not match any variant.
    BadDiscriminant {
        /// Type being decoded.
        what: &'static str,
        /// The offending byte.
        value: u8,
    },
    /// A string field held invalid UTF-8.
    BadUtf8,
    /// Trailing garbage followed a complete message.
    TrailingBytes(usize),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "unexpected end of input"),
            CodecError::BadDiscriminant { what, value } => {
                write!(f, "invalid discriminant {value} while decoding {what}")
            }
            CodecError::BadUtf8 => write!(f, "string field held invalid UTF-8"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
        }
    }
}

impl Error for CodecError {}

/// Serializes a value into the wire format.
pub trait WireEncode {
    /// Appends the encoding of `self` to `buf`.
    fn encode(&self, buf: &mut BytesMut);

    /// Encodes into a fresh buffer.
    fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::new();
        self.encode(&mut buf);
        buf.freeze()
    }

    /// Length of the encoding in bytes.
    fn encoded_len(&self) -> u64 {
        let mut buf = BytesMut::new();
        self.encode(&mut buf);
        buf.len() as u64
    }
}

/// Deserializes a value from the wire format.
pub trait WireDecode: Sized {
    /// Consumes the encoding of `Self` from the front of `buf`.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on malformed input.
    fn decode(buf: &mut Bytes) -> Result<Self, CodecError>;

    /// Decodes a complete message, rejecting trailing bytes.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on malformed input or trailing garbage.
    fn from_bytes(mut bytes: Bytes) -> Result<Self, CodecError> {
        let v = Self::decode(&mut bytes)?;
        if !bytes.is_empty() {
            return Err(CodecError::TrailingBytes(bytes.len()));
        }
        Ok(v)
    }
}

// ---- primitive helpers -------------------------------------------------

pub(crate) fn put_varint(buf: &mut BytesMut, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

// bf-taint: source(wire)
pub(crate) fn get_varint(buf: &mut Bytes) -> Result<u64, CodecError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        if buf.remaining() == 0 {
            return Err(CodecError::UnexpectedEof);
        }
        let byte = buf.get_u8();
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift >= 64 {
            return Err(CodecError::BadDiscriminant {
                what: "varint",
                value: byte,
            });
        }
    }
}

impl WireEncode for u64 {
    fn encode(&self, buf: &mut BytesMut) {
        put_varint(buf, *self);
    }
}

impl WireDecode for u64 {
    fn decode(buf: &mut Bytes) -> Result<Self, CodecError> {
        get_varint(buf)
    }
}

/// Appends a fixed-width 16-byte big-endian `u128` (content digests —
/// the full width always travels, so varint framing would only cost).
pub(crate) fn put_u128_be(buf: &mut BytesMut, v: u128) {
    buf.put_u64((v >> 64) as u64);
    buf.put_u64(v as u64);
}

/// Consumes a fixed-width 16-byte big-endian `u128`.
// bf-taint: source(wire)
pub(crate) fn get_u128_be(buf: &mut Bytes) -> Result<u128, CodecError> {
    if buf.remaining() < 16 {
        return Err(CodecError::UnexpectedEof);
    }
    let hi = buf.get_u64();
    let lo = buf.get_u64();
    Ok((u128::from(hi) << 64) | u128::from(lo))
}

impl WireEncode for u32 {
    fn encode(&self, buf: &mut BytesMut) {
        put_varint(buf, u64::from(*self));
    }
}

impl WireDecode for u32 {
    fn decode(buf: &mut Bytes) -> Result<Self, CodecError> {
        Ok(get_varint(buf)? as u32)
    }
}

impl WireEncode for i32 {
    fn encode(&self, buf: &mut BytesMut) {
        // zigzag
        put_varint(buf, ((*self << 1) ^ (*self >> 31)) as u32 as u64);
    }
}

impl WireDecode for i32 {
    fn decode(buf: &mut Bytes) -> Result<Self, CodecError> {
        let raw = get_varint(buf)? as u32;
        Ok(((raw >> 1) as i32) ^ -((raw & 1) as i32))
    }
}

impl WireEncode for f32 {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_f32_le(*self);
    }
}

impl WireDecode for f32 {
    fn decode(buf: &mut Bytes) -> Result<Self, CodecError> {
        if buf.remaining() < 4 {
            return Err(CodecError::UnexpectedEof);
        }
        Ok(buf.get_f32_le())
    }
}

impl WireEncode for bool {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(u8::from(*self));
    }
}

impl WireDecode for bool {
    fn decode(buf: &mut Bytes) -> Result<Self, CodecError> {
        if buf.remaining() == 0 {
            return Err(CodecError::UnexpectedEof);
        }
        match buf.get_u8() {
            0 => Ok(false),
            1 => Ok(true),
            value => Err(CodecError::BadDiscriminant {
                what: "bool",
                value,
            }),
        }
    }
}

impl WireEncode for String {
    fn encode(&self, buf: &mut BytesMut) {
        put_varint(buf, self.len() as u64);
        buf.put_slice(self.as_bytes());
    }
}

impl WireDecode for String {
    fn decode(buf: &mut Bytes) -> Result<Self, CodecError> {
        let len = get_varint(buf)? as usize;
        if buf.remaining() < len {
            return Err(CodecError::UnexpectedEof);
        }
        // bf-taint: sanitized(the remaining() guard above proves the declared len fits the received buffer)
        let raw = buf.split_to(len);
        // Validate on the borrowed slice first so invalid UTF-8 never
        // pays for an intermediate Vec.
        match std::str::from_utf8(raw.as_ref()) {
            Ok(s) => Ok(s.to_owned()),
            Err(_) => Err(CodecError::BadUtf8),
        }
    }
}

impl<T: WireEncode> WireEncode for Option<T> {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            None => buf.put_u8(0),
            Some(v) => {
                buf.put_u8(1);
                v.encode(buf);
            }
        }
    }
}

impl<T: WireDecode> WireDecode for Option<T> {
    fn decode(buf: &mut Bytes) -> Result<Self, CodecError> {
        if buf.remaining() == 0 {
            return Err(CodecError::UnexpectedEof);
        }
        match buf.get_u8() {
            0 => Ok(None),
            1 => Ok(Some(T::decode(buf)?)),
            value => Err(CodecError::BadDiscriminant {
                what: "option",
                value,
            }),
        }
    }
}

impl WireEncode for [u64; 3] {
    fn encode(&self, buf: &mut BytesMut) {
        for v in self {
            put_varint(buf, *v);
        }
    }
}

impl WireDecode for [u64; 3] {
    fn decode(buf: &mut Bytes) -> Result<Self, CodecError> {
        Ok([get_varint(buf)?, get_varint(buf)?, get_varint(buf)?])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: WireEncode + WireDecode + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_bytes();
        let back = T::from_bytes(bytes).expect("decode");
        assert_eq!(back, v);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u64);
        round_trip(u64::MAX);
        round_trip(300u32);
        round_trip(-12345i32);
        round_trip(i32::MIN);
        round_trip(3.5f32);
        round_trip(true);
        round_trip("héllo wörld".to_string());
        round_trip(Some("x".to_string()));
        round_trip(Option::<u64>::None);
        round_trip([1u64, 2, 3]);
    }

    #[test]
    fn varint_is_compact_for_small_values() {
        assert_eq!(5u64.encoded_len(), 1);
        assert_eq!(300u64.encoded_len(), 2);
        assert_eq!(u64::MAX.encoded_len(), 10);
    }

    #[test]
    fn truncated_input_is_an_eof() {
        let bytes = "a long string".to_string().to_bytes();
        let truncated = bytes.slice(0..bytes.len() - 2);
        assert_eq!(
            String::from_bytes(truncated),
            Err(CodecError::UnexpectedEof)
        );
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut buf = BytesMut::new();
        7u64.encode(&mut buf);
        buf.put_u8(9);
        assert_eq!(
            u64::from_bytes(buf.freeze()),
            Err(CodecError::TrailingBytes(1))
        );
    }

    #[test]
    fn bad_bool_discriminant() {
        let bytes = Bytes::from_static(&[7]);
        assert!(matches!(
            bool::from_bytes(bytes),
            Err(CodecError::BadDiscriminant { .. })
        ));
    }
}
