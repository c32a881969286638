//! Control-plane and serialization cost models for the API-remoting layer.
//!
//! The Remote OpenCL Library talks to Device Managers over a gRPC-like
//! protocol. Section IV-A of the paper attributes the remote data path's
//! overhead to (a) protobuf serialization, (b) extra buffer copies, and (c)
//! a roughly constant ~2 ms of control-signal round trips per OpenCL
//! operation pair. These models charge exactly those costs.

use serde::{Deserialize, Serialize};

use crate::link::MemcpyModel;
use crate::time::VirtualDuration;

/// Protobuf-like encode/decode cost: a fixed per-message cost plus a
/// per-byte cost for the payload.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SerializationModel {
    per_message: VirtualDuration,
    per_byte_ns: f64,
}

impl SerializationModel {
    /// Paper-calibrated protobuf cost: 20 µs per message plus ~0.16 ns per
    /// payload byte (~6 GB/s packed bytes-field encoding) — fitted so the
    /// full gRPC data path lands at Fig. 4(a)'s ~4x-native RTT at 2 GB.
    pub fn paper() -> Self {
        SerializationModel {
            per_message: VirtualDuration::from_micros(20),
            per_byte_ns: 0.16,
        }
    }

    /// Time to encode a message with a payload of `bytes` bytes.
    pub fn encode_time(&self, bytes: u64) -> VirtualDuration {
        self.per_message + VirtualDuration::from_nanos((bytes as f64 * self.per_byte_ns) as u64)
    }

    /// Time to decode a message with a payload of `bytes` bytes; decoding is
    /// charged the same as encoding.
    pub fn decode_time(&self, bytes: u64) -> VirtualDuration {
        self.encode_time(bytes)
    }
}

impl Default for SerializationModel {
    fn default() -> Self {
        Self::paper()
    }
}

/// The gRPC control-plane latency between the Remote Library and a Device
/// Manager (request/response excluding bulk payload movement).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ControlPlaneModel {
    one_way: VirtualDuration,
}

impl ControlPlaneModel {
    /// The paper observes "~2 ms given by the gRPC control signals" per
    /// operation pair, i.e. ~1 ms each way (HTTP/2 framing, loopback or
    /// local-network stack, gRPC dispatch).
    pub fn paper() -> Self {
        ControlPlaneModel {
            one_way: VirtualDuration::from_micros(500),
        }
    }

    /// One-way control message latency.
    pub fn one_way(&self) -> VirtualDuration {
        self.one_way
    }
}

impl Default for ControlPlaneModel {
    fn default() -> Self {
        Self::paper()
    }
}

/// Which bulk-data path the Remote OpenCL Library uses to move buffer
/// contents to/from a Device Manager (paper §III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataPathKind {
    /// Everything over gRPC: protobuf encode/decode plus three extra buffer
    /// copies relative to native (client marshal, server unmarshal, staging
    /// into the runtime's pinned buffer).
    Grpc,
    /// POSIX shared memory: the single copy retained for full OpenCL
    /// compatibility ("from four to one", §III-B).
    SharedMemory,
}

/// Aggregated cost model for one leg of a remote bulk-data movement.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DataPathModel {
    kind: DataPathKind,
    serialization: SerializationModel,
    memcpy: MemcpyModel,
    /// Extra copies on the gRPC path relative to native execution.
    grpc_extra_copies: u32,
}

impl DataPathModel {
    /// Paper-calibrated gRPC data path (3 extra copies + protobuf).
    pub fn grpc() -> Self {
        DataPathModel {
            kind: DataPathKind::Grpc,
            serialization: SerializationModel::paper(),
            memcpy: MemcpyModel::paper(),
            grpc_extra_copies: 3,
        }
    }

    /// Paper-calibrated shared-memory data path (exactly one copy).
    pub fn shared_memory() -> Self {
        DataPathModel {
            kind: DataPathKind::SharedMemory,
            serialization: SerializationModel::paper(),
            memcpy: MemcpyModel::paper(),
            grpc_extra_copies: 3,
        }
    }

    /// The data path variant.
    pub fn kind(&self) -> DataPathKind {
        self.kind
    }

    /// Host-side cost of moving `bytes` payload bytes one way between the
    /// client function and the device manager (excluding the PCIe DMA that
    /// both native and remote execution pay, and excluding control-plane
    /// latency).
    pub fn payload_cost(&self, bytes: u64) -> VirtualDuration {
        match self.kind {
            DataPathKind::Grpc => {
                self.serialization.encode_time(bytes)
                    + self.serialization.decode_time(bytes)
                    + self.memcpy.copies_time(bytes, self.grpc_extra_copies)
            }
            DataPathKind::SharedMemory => self.memcpy.copy_time(bytes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_control_rtt_is_about_one_ms() {
        let c = ControlPlaneModel::paper();
        assert!(((c.one_way() * 2).as_millis_f64() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn grpc_payload_cost_exceeds_shm() {
        let grpc = DataPathModel::grpc();
        let shm = DataPathModel::shared_memory();
        for bytes in [1u64 << 10, 1 << 20, 1 << 30] {
            assert!(
                grpc.payload_cost(bytes) > shm.payload_cost(bytes),
                "at {bytes} bytes"
            );
        }
    }

    #[test]
    fn shm_cost_is_a_single_copy() {
        let shm = DataPathModel::shared_memory();
        let copy = MemcpyModel::paper().copy_time(1 << 20);
        assert_eq!(shm.payload_cost(1 << 20), copy);
    }

    #[test]
    fn encode_and_decode_are_symmetric() {
        let s = SerializationModel::paper();
        assert_eq!(s.encode_time(12345), s.decode_time(12345));
    }

    #[test]
    fn serialization_grows_with_payload() {
        let s = SerializationModel::paper();
        assert!(s.encode_time(1 << 30) > s.encode_time(1 << 10));
    }
}
