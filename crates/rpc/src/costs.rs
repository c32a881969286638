//! Aggregated remoting costs for one client ↔ Device Manager path.
//!
//! Combines the control-plane, serialization/copy and (for non-co-located
//! clients) network models into the three quantities the Remote Library and
//! Device Manager actually charge:
//!
//! * a **control hop** per message (gRPC dispatch + stack traversal);
//! * an **outbound payload cost** for `EnqueueWrite` data (client side);
//! * an **inbound payload cost** for `EnqueueRead` results (client side).
//!
//! PCIe DMA time is *not* included here — both native and remote execution
//! pay it at the board, which is exactly why the paper reports remote
//! overhead relative to native.

use bf_model::{ControlPlaneModel, DataPathKind, DataPathModel, EthernetModel, VirtualDuration};

/// The cost profile of one client connection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathCosts {
    control: ControlPlaneModel,
    data: DataPathModel,
    /// `Some` when the client is on a different node than the manager; bulk
    /// payloads then also cross the cluster fabric.
    remote_network: Option<EthernetModel>,
}

impl PathCosts {
    /// Co-located client using the pure-gRPC data path ("BlastFunction" in
    /// Fig. 4).
    pub fn local_grpc() -> Self {
        PathCosts {
            control: ControlPlaneModel::paper(),
            data: DataPathModel::grpc(),
            remote_network: None,
        }
    }

    /// Co-located client using the shared-memory data path
    /// ("BlastFunction shm" in Fig. 4).
    pub fn local_shm() -> Self {
        PathCosts {
            control: ControlPlaneModel::paper(),
            data: DataPathModel::shared_memory(),
            remote_network: None,
        }
    }

    /// Client on a different node: gRPC only (shared memory is impossible
    /// across nodes, §III-B), payloads ride the 1 Gb/s fabric.
    pub fn remote_grpc() -> Self {
        PathCosts {
            control: ControlPlaneModel::paper(),
            data: DataPathModel::grpc(),
            remote_network: Some(EthernetModel::paper()),
        }
    }

    /// Which bulk data path this connection uses.
    pub fn data_path(&self) -> DataPathKind {
        self.data.kind()
    }

    /// Whether the client sits on another node.
    pub fn is_cross_node(&self) -> bool {
        self.remote_network.is_some()
    }

    /// One-way latency of a control message.
    pub fn control_hop(&self) -> VirtualDuration {
        match &self.remote_network {
            Some(net) => self.control.one_way() + net.one_way_latency(),
            None => self.control.one_way(),
        }
    }

    /// Client-side cost of shipping `bytes` of write payload to the
    /// manager (serialization + copies, or the single shm copy, plus wire
    /// time when cross-node).
    pub fn outbound_payload_cost(&self, bytes: u64) -> VirtualDuration {
        self.data.payload_cost(bytes) + self.wire_time(bytes)
    }

    /// Client-side cost of receiving `bytes` of read payload from the
    /// manager.
    pub fn inbound_payload_cost(&self, bytes: u64) -> VirtualDuration {
        self.data.payload_cost(bytes) + self.wire_time(bytes)
    }

    fn wire_time(&self, bytes: u64) -> VirtualDuration {
        match &self.remote_network {
            // The one-way latency is already charged per control hop; only
            // the bandwidth component applies to the payload.
            Some(net) => net
                .transfer_time(bytes)
                .saturating_sub(net.one_way_latency()),
            None => VirtualDuration::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shm_beats_grpc_on_payload() {
        let shm = PathCosts::local_shm();
        let grpc = PathCosts::local_grpc();
        assert!(shm.outbound_payload_cost(1 << 20) < grpc.outbound_payload_cost(1 << 20));
        assert_eq!(
            shm.control_hop(),
            grpc.control_hop(),
            "control plane is identical"
        );
    }

    #[test]
    fn cross_node_adds_fabric_time() {
        let local = PathCosts::local_grpc();
        let remote = PathCosts::remote_grpc();
        assert!(remote.control_hop() > local.control_hop());
        assert!(remote.outbound_payload_cost(1 << 24) > local.outbound_payload_cost(1 << 24));
    }

    #[test]
    fn control_round_trip_is_about_two_ms_for_an_op_pair() {
        // Fig. 4(a): a synchronous write+read pair costs ~2 ms of control
        // signalling: 4 hops (2 requests + 2 completions).
        let costs = PathCosts::local_shm();
        let pair = costs.control_hop() * 4;
        assert!((pair.as_millis_f64() - 2.0).abs() < 0.5, "got {pair}");
    }
}
