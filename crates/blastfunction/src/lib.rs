#![forbid(unsafe_code)]

//! # BlastFunction — FPGA-as-a-Service for accelerated serverless computing
//!
//! A from-scratch Rust reproduction of *"BlastFunction: an FPGA-as-a-Service
//! system for Accelerated Serverless Computing"* (Bacis, Brondolin,
//! Santambrogio — DATE 2020): a distributed FPGA **time-sharing** system
//! that lets microservices and serverless functions execute OpenCL kernels
//! on shared boards *without changing their host code*.
//!
//! This facade crate re-exports the whole system; each subsystem also
//! stands alone:
//!
//! | Module | Paper component |
//! |---|---|
//! | [`model`] | virtual time + calibrated cost models (PCIe, memcpy, gRPC, network) |
//! | [`fpga`] | the simulated Terasic DE5a-Net board (functional + timing) |
//! | [`ocl`] | the OpenCL-style host API with pluggable backends |
//! | [`rpc`] | wire codec, device-manager protocol, shm segments, completion queues |
//! | [`devmgr`] | the Device Manager (§III-B): sessions, tasks, central FIFO queue |
//! | [`remote`] | the Remote OpenCL Library (§III-A): router, event state machines |
//! | [`registry`] | the Accelerators Registry (§III-C): Algorithm 1, reconfiguration |
//! | [`cluster`] | the Kubernetes substrate: admission, watches, migration |
//! | [`serverless`] | the OpenFaaS gateway + `hey`-style load generation |
//! | [`workloads`] | Spector Sobel, Spector MM, PipeCNN/AlexNet |
//! | [`simkit`] / [`sim`] | deterministic DES engine + the Tables I–IV cluster scenarios |
//! | [`metrics`] | Prometheus substrate + FPGA time-utilization accounting |
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use blastfunction::prelude::*;
//! use parking_lot::Mutex;
//!
//! # fn main() -> Result<(), ClError> {
//! // A board on worker node B with the Sobel bitstream available.
//! let mut catalog = BitstreamCatalog::new();
//! catalog.register(blastfunction::workloads::sobel::bitstream());
//! let board = Arc::new(Mutex::new(Board::new(
//!     BoardSpec::de5a_net(),
//!     *node_b().pcie(),
//! )));
//!
//! // Share it through a Device Manager and connect transparently.
//! let manager = DeviceManager::new(
//!     DeviceManagerConfig::standalone("fpga-b"),
//!     node_b(),
//!     board,
//!     catalog,
//! );
//! let mut router = Router::new();
//! router.add_manager(manager);
//! let device = router.connect(0, "sobel-fn", PathCosts::local_shm(), VirtualClock::new())?;
//!
//! // Ordinary OpenCL host code, unchanged:
//! let ctx = device.create_context()?;
//! let program = ctx.build_program(blastfunction::workloads::sobel::SOBEL_BITSTREAM)?;
//! let kernel = program.create_kernel(blastfunction::workloads::sobel::SOBEL_KERNEL)?;
//! # let _ = (program, kernel);
//! # Ok(())
//! # }
//! ```

pub use bf_cache as cache;
pub use bf_cluster as cluster;
pub use bf_devmgr as devmgr;
pub use bf_fpga as fpga;
pub use bf_metrics as metrics;
pub use bf_model as model;
pub use bf_ocl as ocl;
pub use bf_registry as registry;
pub use bf_remote as remote;
pub use bf_rpc as rpc;
pub use bf_serverless as serverless;
pub use bf_sim as sim;
pub use bf_simkit as simkit;
pub use bf_workloads as workloads;

/// The names most programs need, importable in one line.
pub mod prelude {
    pub use bf_cluster::{Cluster, InstanceTemplate};
    pub use bf_devmgr::{DeviceManager, DeviceManagerConfig, ReconfigPolicy};
    pub use bf_fpga::{Board, BoardSpec, Payload};
    pub use bf_model::{
        node_a, node_b, node_c, paper_cluster, DataPathKind, NodeId, VirtualClock, VirtualDuration,
        VirtualTime,
    };
    pub use bf_ocl::{
        ArgValue, Backend, BitstreamCatalog, ClError, ClResult, Device, EventStatus, NativeBackend,
        NdRange,
    };
    pub use bf_registry::{
        attach_placement, AllocationPolicy, DeviceQuery, PlacementService, ShardedRegistry,
    };
    pub use bf_remote::{RemoteBackend, Router};
    pub use bf_rpc::PathCosts;
    pub use bf_serverless::{
        BatchHandler, Batcher, ClosedLoopPacer, Completion, Gateway, HandlerError, Invocation,
        OpenLoopPacer, SingleRequest,
    };
    pub use bf_sim::{run_scenario, Deployment, ScenarioConfig};
    pub use bf_workloads::{table1_rates, LoadLevel, UseCase};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_is_importable() {
        use crate::prelude::*;
        let _clock = VirtualClock::new();
        let _nodes = paper_cluster();
        let _policy = AllocationPolicy::paper();
    }
}
