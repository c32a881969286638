//! The control-plane workload: Algorithm 1 behind `dyn PlacementService`,
//! with no data plane at all.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use bf_model::{MemcpyModel, NodeId, NodeSpec, PcieGeneration, PcieLink, VirtualDuration};
use bf_registry::{
    AllocationPolicy, DeviceQuery, PlacementService, RegistryDevice, ShardedRegistry, StaticDevice,
};

use crate::gen::ZipfStream;
use crate::trace::Tracer;

/// Devices registered, one node each.
pub const DEVICES: usize = 1000;
/// Functions registered.
pub const FUNCTIONS: usize = 1000;
/// Distinct accelerators; device `i` starts configured with `i % 8`.
pub const ACCELERATORS: usize = 8;
/// Instances kept placed: each request releases the one placed this many
/// requests earlier, so the tables stay at a steady size.
pub const LIVE_INSTANCES: usize = 300;
/// Shards of the workload's registry.
pub const SHARDS: usize = 16;

/// Name of the accelerator device or function `i` uses.
pub fn accelerator(i: usize) -> String {
    format!("acc-{}", i % ACCELERATORS)
}

/// Name of function `i`.
pub fn function(i: usize) -> String {
    format!("fn-{i:04}")
}

/// A federation of `shards` registries loaded with the devices and
/// functions, plus the request stream state.
pub struct PlacementRig {
    service: Arc<dyn PlacementService>,
    devices: HashMap<String, Arc<dyn RegistryDevice>>,
    stream: ZipfStream,
    live: VecDeque<String>,
    placed: u64,
}

impl PlacementRig {
    /// Registers every device and function (part of set-up time).
    pub fn deploy(seed: u64, shards: usize) -> PlacementRig {
        let service: Arc<dyn PlacementService> =
            Arc::new(ShardedRegistry::new(AllocationPolicy::paper(), shards));
        let mut devices = HashMap::with_capacity(DEVICES);
        for i in 0..DEVICES {
            let node = NodeSpec::new(
                NodeId::new(format!("n{i:04}")),
                PcieLink::new(PcieGeneration::Gen3, 8),
                MemcpyModel::paper(),
                1.0,
                VirtualDuration::from_millis_f64(3.5),
            );
            let id = format!("fpga-{i:04}");
            let device = StaticDevice::new(id.clone(), node, Some(&accelerator(i))).handle();
            service.register_device_handle(device.clone());
            devices.insert(id, device);
        }
        for i in 0..FUNCTIONS {
            service.register_function(&function(i), DeviceQuery::for_accelerator(accelerator(i)));
        }
        PlacementRig {
            service,
            devices,
            stream: ZipfStream::new(seed, 0, FUNCTIONS),
            live: VecDeque::with_capacity(LIVE_INSTANCES + 1),
            placed: 0,
        }
    }

    /// The service under test.
    pub fn service(&self) -> &Arc<dyn PlacementService> {
        &self.service
    }

    /// One request: place an instance of a Zipf-drawn function, check the
    /// binding and the board's bitstream, release the oldest instance
    /// beyond [`LIVE_INSTANCES`]. `Ok` carries the checks performed.
    pub fn request(&mut self, t: &mut Tracer) -> Result<u64, String> {
        let rank = self.stream.next_rank();
        let instance = format!("inst-{}", self.placed);
        self.placed += 1;
        let service = &self.service;
        let allocation = t
            .call("registry.place", || {
                service.place_instance(&instance, &function(rank))
            })
            .map_err(|e| e.to_string())?;
        let bound = t.call("registry.binding", || service.binding(&instance));
        if bound.as_deref() != Some(allocation.device_id.as_str()) {
            return Err(format!(
                "mis-verified placement: {instance} bound to {bound:?}, allocated {}",
                allocation.device_id
            ));
        }
        let configured = self
            .devices
            .get(&allocation.device_id)
            .and_then(|d| d.board_state().configured);
        if configured.as_deref() != Some(accelerator(rank).as_str()) {
            return Err(format!(
                "mis-verified placement: {} carries {configured:?}, {instance} needs {}",
                allocation.device_id,
                accelerator(rank)
            ));
        }
        self.live.push_back(instance);
        if self.live.len() > LIVE_INSTANCES {
            if let Some(oldest) = self.live.pop_front() {
                t.call("registry.release", || service.release_instance(&oldest));
            }
        }
        Ok(2)
    }
}
