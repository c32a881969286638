#![forbid(unsafe_code)]

//! # bf-rpc — the API-remoting transport substrate
//!
//! BlastFunction remotes the OpenCL host API over gRPC for control and
//! either gRPC or POSIX shared memory for bulk data. This crate is the
//! from-scratch stand-in for that plumbing:
//!
//! * [`codec`] — a protobuf-like binary wire format ([`WireEncode`] /
//!   [`WireDecode`]); every message really is encoded to bytes so encoded
//!   sizes drive the serialization cost model;
//! * the protocol module — the Device Manager service messages: tagged
//!   [`RequestEnvelope`] / [`ResponseEnvelope`] pairs covering every
//!   remoted OpenCL call, with the paper's split between synchronous
//!   *context & information methods* and asynchronous *command-queue
//!   methods*;
//! * [`ShmSegment`] — the shared-memory data path (single retained copy);
//! * [`duplex`] — an in-process connection whose response stream is the
//!   Remote Library's completion queue (Fig. 2). Both directions are
//!   bounded ([`duplex_with_depth`]): a full queue yields
//!   [`TransportError::Backpressure`] on the non-blocking path;
//! * [`Poller`] — a readiness selector over connection streams, letting a
//!   single dispatcher thread multiplex N clients with round-robin
//!   fairness (the Device Manager event loop and the Remote Library
//!   reactor are both built on it).
//!
//! ```
//! use bf_model::VirtualTime;
//! use bf_rpc::{duplex, ClientId, Request, RequestEnvelope};
//!
//! # fn main() -> Result<(), bf_rpc::TransportError> {
//! let (client, server) = duplex();
//! client.send(&RequestEnvelope {
//!     tag: 1,
//!     client: ClientId(7),
//!     sent_at: VirtualTime::ZERO,
//!     body: Request::GetDeviceInfo,
//! })?;
//! let seen = server.recv()?;
//! assert_eq!(seen.body, Request::GetDeviceInfo);
//! # Ok(())
//! # }
//! ```

pub mod codec;
mod costs;
mod payload;
mod poller;
mod proto;
mod shm;
mod transport;

/// The bf-sync facade (re-exported from `bf-race`): every lock, condvar,
/// atomic and monotonic deadline in this crate goes through it, so the
/// whole transport can run under the deterministic model scheduler
/// (`bf-race` with `--features model`) without code changes.
pub use bf_race::sync;

pub use codec::{CodecError, WireDecode, WireEncode};
pub use costs::PathCosts;
pub use payload::Payload;
pub use poller::{PollEvent, Poller, PollerStats, Token, Waker};
pub use proto::{
    ClientId, DataRef, ErrorCode, Request, RequestEnvelope, Response, ResponseEnvelope, WireArg,
};
pub use shm::{ShmError, ShmSegment};
pub use transport::{
    duplex, duplex_with_depth, ClientChannel, FrameRx, ServerChannel, TransportError, DEFAULT_DEPTH,
};

#[cfg(test)]
mod proptests {
    use bf_model::VirtualTime;
    use proptest::prelude::*;

    use super::*;
    use crate::codec::{WireDecode, WireEncode};

    /// Payload lengths spanning empty, tiny, and well past any inline/shm
    /// threshold, without the cost of generating every byte independently.
    fn arb_payload() -> impl Strategy<Value = Vec<u8>> {
        let len = prop_oneof![
            Just(0usize),
            Just(1usize),
            Just(63usize),
            Just(4096usize),
            Just(70_000usize),
        ];
        (len, any::<u8>()).prop_map(|(len, fill)| vec![fill; len])
    }

    fn arb_dataref() -> impl Strategy<Value = DataRef> {
        prop_oneof![
            arb_payload().prop_map(|v| DataRef::Inline(v.into())),
            (any::<u64>(), any::<u64>()).prop_map(|(offset, len)| DataRef::Shm { offset, len }),
            any::<u64>().prop_map(DataRef::Synthetic),
            // Full-width 128-bit digests, composed from two u64 draws.
            (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(hi, lo, len)| {
                DataRef::Digest {
                    digest: (u128::from(hi) << 64) | u128::from(lo),
                    len,
                }
            }),
        ]
    }

    /// Finite-only f32s: the wire format round-trips NaN bit patterns, but
    /// `PartialEq` cannot compare them.
    fn arb_wirearg() -> impl Strategy<Value = WireArg> {
        prop_oneof![
            any::<u64>().prop_map(WireArg::Buffer),
            any::<u32>().prop_map(WireArg::U32),
            any::<i32>().prop_map(WireArg::I32),
            any::<u64>().prop_map(WireArg::U64),
            any::<i16>().prop_map(|v| WireArg::F32(f32::from(v))),
        ]
    }

    /// Every `Request` variant, weighted uniformly.
    fn arb_request() -> impl Strategy<Value = Request> {
        prop_oneof![
            (".*", any::<bool>())
                .prop_map(|(client_name, shm)| Request::Hello { client_name, shm }),
            Just(Request::GetDeviceInfo),
            Just(Request::CreateContext),
            ".*".prop_map(|bitstream| Request::BuildProgram { bitstream }),
            (any::<u64>(), ".*")
                .prop_map(|(program, name)| Request::CreateKernel { program, name }),
            (any::<u64>(), any::<u32>(), arb_wirearg())
                .prop_map(|(kernel, index, arg)| Request::SetKernelArg { kernel, index, arg }),
            (any::<u64>(), any::<u64>())
                .prop_map(|(context, len)| Request::CreateBuffer { context, len }),
            any::<u64>().prop_map(|buffer| Request::ReleaseBuffer { buffer }),
            any::<u64>().prop_map(|context| Request::CreateQueue { context }),
            (any::<u64>(), any::<u64>(), any::<u64>(), arb_dataref()).prop_map(
                |(queue, buffer, offset, data)| Request::EnqueueWrite {
                    queue,
                    buffer,
                    offset,
                    data
                }
            ),
            (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
                |(queue, buffer, offset, len)| Request::EnqueueRead {
                    queue,
                    buffer,
                    offset,
                    len
                }
            ),
            (any::<u64>(), any::<u64>(), any::<[u64; 3]>()).prop_map(|(queue, kernel, work)| {
                Request::EnqueueKernel {
                    queue,
                    kernel,
                    work,
                }
            }),
            (
                any::<u64>(),
                any::<u64>(),
                any::<u64>(),
                any::<u64>(),
                any::<u64>(),
                any::<u64>()
            )
                .prop_map(|(queue, src, dst, src_offset, dst_offset, len)| {
                    Request::EnqueueCopy {
                        queue,
                        src,
                        dst,
                        src_offset,
                        dst_offset,
                        len,
                    }
                }),
            any::<u64>().prop_map(|queue| Request::Flush { queue }),
            any::<u64>().prop_map(|queue| Request::Finish { queue }),
            ".*".prop_map(|bitstream| Request::Reconfigure { bitstream }),
            Just(Request::Disconnect),
        ]
    }

    fn arb_option<T: std::fmt::Debug + Clone + 'static>(
        inner: impl Strategy<Value = T> + 'static,
    ) -> impl Strategy<Value = Option<T>> {
        prop_oneof![Just(None), inner.prop_map(Some)]
    }

    fn arb_error_code() -> impl Strategy<Value = ErrorCode> {
        prop_oneof![
            Just(ErrorCode::InvalidHandle),
            Just(ErrorCode::AccessDenied),
            Just(ErrorCode::OutOfResources),
            Just(ErrorCode::OutOfBounds),
            Just(ErrorCode::BuildFailure),
            Just(ErrorCode::InvalidLaunch),
            Just(ErrorCode::ReconfigurationRefused),
            Just(ErrorCode::Internal),
            Just(ErrorCode::CacheMiss),
        ]
    }

    /// Every `Response` variant.
    fn arb_response() -> impl Strategy<Value = Response> {
        prop_oneof![
            Just(Response::Ack),
            any::<u64>().prop_map(|id| Response::Handle { id }),
            (".*", ".*", ".*", any::<u64>(), ".*", arb_option(".*")).prop_map(
                |(name, vendor, platform, memory_bytes, node, bitstream)| Response::DeviceInfo {
                    name,
                    vendor,
                    platform,
                    memory_bytes,
                    node,
                    bitstream,
                }
            ),
            Just(Response::Enqueued),
            (any::<u64>(), any::<u64>(), arb_option(arb_dataref())).prop_map(
                |(started_at, ended_at, data)| Response::Completed {
                    started_at: VirtualTime::from_nanos(started_at),
                    ended_at: VirtualTime::from_nanos(ended_at),
                    data,
                }
            ),
            (arb_error_code(), ".*").prop_map(|(code, message)| Response::Error { code, message }),
        ]
    }

    proptest! {
        /// Every request envelope decodes back to itself.
        #[test]
        fn request_envelopes_round_trip(
            tag in any::<u64>(),
            client in any::<u64>(),
            at in any::<u64>(),
            body in arb_request(),
        ) {
            let env = RequestEnvelope {
                tag,
                client: ClientId(client),
                sent_at: VirtualTime::from_nanos(at),
                body,
            };
            let decoded = RequestEnvelope::from_bytes(env.to_bytes()).expect("decode");
            prop_assert_eq!(decoded, env);
        }

        /// Every response envelope decodes back to itself.
        #[test]
        fn response_envelopes_round_trip(
            tag in any::<u64>(),
            at in any::<u64>(),
            body in arb_response(),
        ) {
            let env = ResponseEnvelope {
                tag,
                sent_at: VirtualTime::from_nanos(at),
                body,
            };
            let decoded = ResponseEnvelope::from_bytes(env.to_bytes()).expect("decode");
            prop_assert_eq!(decoded, env);
        }

        /// The refcounted `Payload` wire format is the released byte-string
        /// frame (varint length, then the bytes) and decodes back to the
        /// same bytes, for every payload shape.
        #[test]
        fn payload_wire_encoding_matches_the_vec_path(
            data in proptest::collection::vec(any::<u8>(), 0..2048),
        ) {
            use bytes::BufMut;
            use crate::codec::put_varint;
            let mut legacy = bytes::BytesMut::new();
            put_varint(&mut legacy, data.len() as u64);
            legacy.put_slice(&data);
            let frame = Payload::from(data.clone()).to_bytes();
            prop_assert_eq!(&frame, &legacy.freeze());
            let via_payload = Payload::from_bytes(frame).expect("payload decode");
            prop_assert_eq!(via_payload, data);
        }

        /// Inline `DataRef` frames carry the exact bytes the pre-refcount
        /// encoding produced: discriminant 0, varint length, then the bytes.
        #[test]
        fn inline_dataref_matches_the_legacy_frame_layout(
            data in proptest::collection::vec(any::<u8>(), 0..1024),
        ) {
            use bytes::BufMut;
            use crate::codec::put_varint;
            let mut legacy = bytes::BytesMut::new();
            legacy.put_u8(0);
            put_varint(&mut legacy, data.len() as u64);
            legacy.put_slice(&data);
            let frame = DataRef::Inline(data.into()).to_bytes();
            prop_assert_eq!(frame, legacy.freeze());
        }

        /// The `DataRef::Digest` wire extension is purely additive: every
        /// pre-extension `DataRef` form still encodes to the exact frame
        /// bytes the pre-cache codec produced (discriminants 0/1/2 with
        /// unchanged field layouts), so old frames decode byte-identically.
        #[test]
        fn pre_digest_dataref_frames_are_byte_identical(
            data in proptest::collection::vec(any::<u8>(), 0..512),
            offset in any::<u64>(),
            len in any::<u64>(),
        ) {
            use bytes::BufMut;
            use crate::codec::put_varint;
            let mut legacy_inline = bytes::BytesMut::new();
            legacy_inline.put_u8(0);
            put_varint(&mut legacy_inline, data.len() as u64);
            legacy_inline.put_slice(&data);
            prop_assert_eq!(
                DataRef::Inline(data.into()).to_bytes(),
                legacy_inline.freeze()
            );
            let mut legacy_shm = bytes::BytesMut::new();
            legacy_shm.put_u8(1);
            put_varint(&mut legacy_shm, offset);
            put_varint(&mut legacy_shm, len);
            prop_assert_eq!(
                DataRef::Shm { offset, len }.to_bytes(),
                legacy_shm.freeze()
            );
            let mut legacy_synth = bytes::BytesMut::new();
            legacy_synth.put_u8(2);
            put_varint(&mut legacy_synth, len);
            prop_assert_eq!(DataRef::Synthetic(len).to_bytes(), legacy_synth.freeze());
        }

        /// Decoding arbitrary garbage never panics.
        #[test]
        fn decoder_is_total(garbage in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = RequestEnvelope::from_bytes(bytes::Bytes::from(garbage.clone()));
            let _ = ResponseEnvelope::from_bytes(bytes::Bytes::from(garbage));
        }

        /// Shm allocation never hands out overlapping regions.
        #[test]
        fn shm_regions_never_overlap(sizes in proptest::collection::vec(1u64..512, 1..32)) {
            let shm = ShmSegment::new(1 << 16);
            let mut regions: Vec<(u64, u64)> = Vec::new();
            for len in sizes {
                if let Ok(offset) = shm.alloc(len) {
                    for (o, l) in &regions {
                        let disjoint = offset + len <= *o || o + l <= offset;
                        prop_assert!(disjoint, "[{offset},+{len}) overlaps [{o},+{l})");
                    }
                    regions.push((offset, len));
                }
            }
        }
    }
}
