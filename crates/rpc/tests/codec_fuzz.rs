//! Deterministic codec battery over every protocol variant.
//!
//! The in-crate proptests sample the space; this battery is exhaustive
//! where exhaustiveness is cheap: a corpus holding **every**
//! `Request`/`Response` variant (every `DataRef` form, every `WireArg`
//! form, payload sizes 0 / 1 / large) is round-tripped, truncated at
//! every strict prefix length (the decoder must return `CodecError`,
//! never panic and never accept a short read), and corrupted one bit at
//! a time (the decoder must stay total).

use bf_model::VirtualTime;
use bf_rpc::{
    ClientId, DataRef, ErrorCode, Payload, Request, RequestEnvelope, Response, ResponseEnvelope,
    WireArg, WireDecode, WireEncode,
};
use bytes::Bytes;

/// Larger than any inline/shm switch-over threshold in the cost model.
const LARGE: usize = 70_000;

fn request_corpus() -> Vec<RequestEnvelope> {
    let bodies = vec![
        Request::Hello {
            client_name: "sobel-1".to_string(),
            shm: true,
        },
        Request::Hello {
            client_name: String::new(),
            shm: false,
        },
        Request::GetDeviceInfo,
        Request::CreateContext,
        Request::BuildProgram {
            bitstream: "incr".to_string(),
        },
        Request::CreateKernel {
            program: 3,
            name: "incr".to_string(),
        },
        Request::SetKernelArg {
            kernel: 4,
            index: 0,
            arg: WireArg::Buffer(9),
        },
        Request::SetKernelArg {
            kernel: 4,
            index: 1,
            arg: WireArg::U32(u32::MAX),
        },
        Request::SetKernelArg {
            kernel: 4,
            index: 2,
            arg: WireArg::I32(-1),
        },
        Request::SetKernelArg {
            kernel: 4,
            index: 3,
            arg: WireArg::U64(u64::MAX),
        },
        Request::SetKernelArg {
            kernel: 4,
            index: 4,
            arg: WireArg::F32(-2.5),
        },
        Request::CreateBuffer {
            context: 1,
            len: 1 << 20,
        },
        Request::ReleaseBuffer { buffer: 9 },
        Request::CreateQueue { context: 1 },
        Request::EnqueueWrite {
            queue: 5,
            buffer: 9,
            offset: 0,
            data: DataRef::Inline(Payload::new()),
        },
        Request::EnqueueWrite {
            queue: 5,
            buffer: 9,
            offset: 7,
            data: DataRef::Inline(vec![0xAB].into()),
        },
        Request::EnqueueWrite {
            queue: 5,
            buffer: 9,
            offset: 0,
            data: DataRef::Shm {
                offset: 4096,
                len: LARGE as u64,
            },
        },
        Request::EnqueueWrite {
            queue: 5,
            buffer: 9,
            offset: 0,
            data: DataRef::Synthetic(u64::MAX),
        },
        Request::EnqueueWrite {
            queue: 5,
            buffer: 9,
            offset: 0,
            data: DataRef::Digest {
                digest: u128::MAX,
                len: LARGE as u64,
            },
        },
        Request::EnqueueRead {
            queue: 5,
            buffer: 9,
            offset: 64,
            len: 128,
        },
        Request::EnqueueKernel {
            queue: 5,
            kernel: 4,
            work: [1024, 16, 1],
        },
        Request::EnqueueCopy {
            queue: 5,
            src: 9,
            dst: 10,
            src_offset: 0,
            dst_offset: 32,
            len: 64,
        },
        Request::Flush { queue: 5 },
        Request::Finish { queue: 5 },
        Request::Reconfigure {
            bitstream: "other".to_string(),
        },
        Request::Disconnect,
    ];
    bodies
        .into_iter()
        .enumerate()
        .map(|(i, body)| RequestEnvelope {
            tag: i as u64,
            client: ClientId(i as u64 + 1),
            sent_at: VirtualTime::from_nanos(i as u64 * 1000),
            body,
        })
        .collect()
}

fn response_corpus() -> Vec<ResponseEnvelope> {
    let codes = [
        ErrorCode::InvalidHandle,
        ErrorCode::AccessDenied,
        ErrorCode::OutOfResources,
        ErrorCode::OutOfBounds,
        ErrorCode::BuildFailure,
        ErrorCode::InvalidLaunch,
        ErrorCode::ReconfigurationRefused,
        ErrorCode::Internal,
        ErrorCode::CacheMiss,
    ];
    let mut bodies = vec![
        Response::Ack,
        Response::Handle { id: u64::MAX },
        Response::DeviceInfo {
            name: "DE5a-Net".to_string(),
            vendor: "Intel".to_string(),
            platform: "BlastFunction".to_string(),
            memory_bytes: 8 << 30,
            node: "node-b".to_string(),
            bitstream: Some("incr".to_string()),
        },
        Response::DeviceInfo {
            name: String::new(),
            vendor: String::new(),
            platform: String::new(),
            memory_bytes: 0,
            node: String::new(),
            bitstream: None,
        },
        Response::Enqueued,
        Response::Completed {
            started_at: VirtualTime::from_nanos(10),
            ended_at: VirtualTime::from_nanos(20),
            data: None,
        },
        Response::Completed {
            started_at: VirtualTime::ZERO,
            ended_at: VirtualTime::ZERO,
            data: Some(DataRef::Inline(vec![0x5A; 64].into())),
        },
        Response::Completed {
            started_at: VirtualTime::from_nanos(1),
            ended_at: VirtualTime::from_nanos(2),
            data: Some(DataRef::Shm { offset: 0, len: 0 }),
        },
        Response::Completed {
            started_at: VirtualTime::from_nanos(1),
            ended_at: VirtualTime::from_nanos(2),
            data: Some(DataRef::Synthetic(1 << 40)),
        },
    ];
    bodies.extend(codes.into_iter().map(|code| Response::Error {
        code,
        message: "boom".to_string(),
    }));
    bodies
        .into_iter()
        .enumerate()
        .map(|(i, body)| ResponseEnvelope {
            tag: i as u64,
            sent_at: VirtualTime::from_nanos(i as u64),
            body,
        })
        .collect()
}

/// Every strict prefix must be rejected with an error, not a panic and
/// not a silently-shortened message: all fields are mandatory and
/// sequential, so a cut either lands mid-varint (continuation bit set),
/// mid-payload (length prefix unsatisfied) or before a missing field.
fn assert_truncation_total(wire: &Bytes, what: &str, decode: impl Fn(Bytes) -> bool) {
    for cut in 0..wire.len() {
        let ok = decode(wire.slice(..cut));
        assert!(!ok, "{what}: {cut}-byte prefix of {} decoded", wire.len());
    }
}

/// Flipping any single bit must never panic the decoder. (It may still
/// decode — a flipped payload byte is a different valid message.)
fn assert_bitflips_total(wire: &Bytes, decode: impl Fn(Bytes)) {
    for pos in 0..wire.len() {
        for bit in 0..8 {
            let mut bytes = wire.to_vec();
            bytes[pos] ^= 1 << bit;
            decode(Bytes::from(bytes));
        }
    }
}

#[test]
fn every_request_variant_round_trips() {
    for env in request_corpus() {
        let wire = env.to_bytes();
        let back = RequestEnvelope::from_bytes(wire).expect("decode");
        assert_eq!(back, env);
    }
}

#[test]
fn every_response_variant_round_trips() {
    for env in response_corpus() {
        let wire = env.to_bytes();
        let back = ResponseEnvelope::from_bytes(wire).expect("decode");
        assert_eq!(back, env);
    }
}

#[test]
fn truncated_requests_error_at_every_prefix_length() {
    for env in request_corpus() {
        assert_truncation_total(&env.to_bytes(), "request", |b| {
            RequestEnvelope::from_bytes(b).is_ok()
        });
    }
}

#[test]
fn truncated_responses_error_at_every_prefix_length() {
    for env in response_corpus() {
        assert_truncation_total(&env.to_bytes(), "response", |b| {
            ResponseEnvelope::from_bytes(b).is_ok()
        });
    }
}

#[test]
fn corrupted_requests_never_panic_the_decoder() {
    for env in request_corpus() {
        assert_bitflips_total(&env.to_bytes(), |b| {
            let _ = RequestEnvelope::from_bytes(b);
        });
    }
}

#[test]
fn corrupted_responses_never_panic_the_decoder() {
    for env in response_corpus() {
        assert_bitflips_total(&env.to_bytes(), |b| {
            let _ = ResponseEnvelope::from_bytes(b);
        });
    }
}

#[test]
fn oversized_inline_payloads_survive_the_wire() {
    let payload: Vec<u8> = (0..LARGE).map(|i| (i % 251) as u8).collect();
    let env = RequestEnvelope {
        tag: 42,
        client: ClientId(7),
        sent_at: VirtualTime::from_nanos(1),
        body: Request::EnqueueWrite {
            queue: 5,
            buffer: 9,
            offset: 0,
            data: DataRef::Inline(payload.clone().into()),
        },
    };
    let wire = env.to_bytes();
    assert!(wire.len() > LARGE, "payload travels inline");
    let back = RequestEnvelope::from_bytes(wire.clone()).expect("decode");
    match back.body {
        Request::EnqueueWrite {
            data: DataRef::Inline(got),
            ..
        } => assert_eq!(got, payload),
        other => panic!("wrong body after round trip: {other:?}"),
    }
    // Exhaustive truncation is O(len²) here; probe the structural region
    // (header + length prefix) densely and the payload sparsely.
    for cut in (0..64).chain((64..wire.len()).step_by(997)) {
        assert!(
            RequestEnvelope::from_bytes(wire.slice(..cut)).is_err(),
            "oversized frame: {cut}-byte prefix decoded"
        );
    }
}

#[test]
fn trailing_garbage_is_rejected() {
    for env in request_corpus() {
        let mut bytes = env.to_bytes().to_vec();
        bytes.push(0);
        assert!(
            RequestEnvelope::from_bytes(Bytes::from(bytes)).is_err(),
            "trailing byte accepted after {:?}",
            env.body
        );
    }
}

// ---- adversarial declared lengths ---------------------------------------
//
// Every variable-size field travels as a varint length prefix that the
// decoder reads off the wire and trusts only after proving it fits the
// received frame (`buf.remaining() < len` → `UnexpectedEof`). These
// attacks declare lengths up to `u64::MAX` over tiny frames: the decoder
// must return the typed error WITHOUT allocating or copying anything
// proportional to the claim — asserted through the process-wide
// bf_metrics copy counters, which the decode paths report into.

use bf_rpc::CodecError;
use bytes::{BufMut, BytesMut};

/// A frame claiming `declared` bytes of content but carrying `actual`.
fn declared_len_frame(declared: u64, actual: &[u8]) -> Bytes {
    let mut buf = BytesMut::new();
    declared.encode(&mut buf);
    buf.put_slice(actual);
    buf.freeze()
}

/// Lengths an attacker would pick: just past the frame, huge, and the
/// `as usize` edge cases.
const EVIL_LENGTHS: [u64; 5] = [16, u32::MAX as u64, 1 << 40, u64::MAX - 1, u64::MAX];

#[test]
fn declared_length_attacks_error_without_proportional_work() {
    let before = bf_metrics::copy_counters();
    for declared in EVIL_LENGTHS {
        let frame = declared_len_frame(declared, b"tiny");
        assert_eq!(
            String::decode(&mut frame.clone()),
            Err(CodecError::UnexpectedEof),
            "string declaring {declared} bytes"
        );
        assert_eq!(
            Payload::decode(&mut frame.clone()),
            Err(CodecError::UnexpectedEof),
            "payload declaring {declared} bytes"
        );
    }
    // 10 rejected decodes declared ~4 EiB in total. Concurrent tests in
    // this binary legitimately copy a few hundred KB; anything remotely
    // proportional to the declared lengths would blow past this bound.
    let delta = bf_metrics::copy_counters().since(before);
    assert!(
        delta.bytes < 1 << 30,
        "rejected decodes copied {} bytes",
        delta.bytes
    );
}

#[test]
fn envelope_with_inflated_payload_length_is_rejected() {
    let marker: &[u8] = &[0x05, 0xA1, 0xA2, 0xA3, 0xA4, 0xA5];
    let env = RequestEnvelope {
        tag: 9,
        client: ClientId(3),
        sent_at: VirtualTime::from_nanos(7),
        body: Request::EnqueueWrite {
            queue: 5,
            buffer: 9,
            offset: 0,
            data: DataRef::Inline(vec![0xA1, 0xA2, 0xA3, 0xA4, 0xA5].into()),
        },
    };
    let wire = env.to_bytes().to_vec();
    let pos = wire
        .windows(marker.len())
        .position(|w| w == marker)
        .expect("inline payload length prefix present in the frame");
    // Splice a 10-byte varint of u64::MAX where the 1-byte length `5` sat:
    // the envelope now claims an 16-EiB payload backed by 5 bytes.
    let mut evil = wire[..pos].to_vec();
    let mut prefix = BytesMut::new();
    u64::MAX.encode(&mut prefix);
    evil.extend_from_slice(&prefix);
    evil.extend_from_slice(&wire[pos + 1..]);
    let before = bf_metrics::copy_counters();
    assert_eq!(
        RequestEnvelope::from_bytes(Bytes::from(evil)),
        Err(CodecError::UnexpectedEof),
        "inflated inline payload length must be a typed decode error"
    );
    let delta = bf_metrics::copy_counters().since(before);
    assert!(
        delta.bytes < 1 << 30,
        "rejected envelope copied {} bytes",
        delta.bytes
    );
}
