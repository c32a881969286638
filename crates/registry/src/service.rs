//! The typed placement API: the trait boundary between callers (cluster
//! admission, the DES harnesses, the benchmarks) and whatever allocates
//! devices behind it.
//!
//! [`PlacementService`] is the registry's whole surface — place /
//! release / reconfigure / failure / views — as a trait, so callers hold
//! a `dyn PlacementService` and a test or harness can stand a fake in
//! for [`ShardedRegistry`](crate::ShardedRegistry), its one implementor.
//! Cross-shard routing reads one [`RouteKey`] per shard: counts and the
//! shard's warmth for the placement's accelerator. A federated router
//! never sees per-device state, mirroring funcX's endpoint federation,
//! and the warmth keeps Cloudburst style locality (and the warm
//! bitstream cache's wins) across the shard boundary. [`ShardLoadSummary`] is the fuller
//! aggregate, for diagnostics.

use std::collections::BTreeSet;
use std::sync::Arc;

use bf_cluster::{AdmissionHook, Cluster, WatchEvent};
use bf_devmgr::{DeviceManager, ReconfigRequest};

use crate::allocation::{Allocation, DeviceView, Warmth};
use crate::device::RegistryDevice;
use crate::query::DeviceQuery;
use crate::registry::{
    ContentionStats, FunctionRecord, RegistryError, ENV_DEVICE_MANAGER, SHM_VOLUME_PREFIX,
};

/// The aggregate load of one shard, for diagnostics: counts, a mean, and
/// two bitstream hint sets. No device ids, no bindings, no per-instance
/// state. Its [`route_key`](Self::route_key) is what the federated router
/// ranks, and a shard computes that key directly, without the sets.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardLoadSummary {
    /// Shard index in the federation.
    pub shard: usize,
    /// Registered devices.
    pub devices: usize,
    /// Live instance bindings.
    pub bindings: usize,
    /// Devices mid-reconfiguration.
    pub pending_reconfigurations: usize,
    /// Mean scraped utilization across the shard's devices.
    pub mean_utilization: f64,
    /// Bitstreams configured on at least one board (including pending
    /// reconfigurations — the board's imminent state).
    pub configured: BTreeSet<String>,
    /// Bitstreams staged warm in at least one board's cache.
    pub warm: BTreeSet<String>,
}

impl ShardLoadSummary {
    /// Mean bindings per device (see [`RouteKey::load`]).
    pub fn load(&self) -> f64 {
        self.route_key(None).load()
    }

    /// Routing warmth of this shard for `accelerator`: configured when
    /// some board is configured with it, warm when it is staged warm
    /// somewhere, else cold.
    pub fn warmth_for(&self, accelerator: Option<&str>) -> Warmth {
        Warmth::of(
            accelerator,
            |acc| self.configured.contains(acc),
            |acc| self.warm.contains(acc),
        )
    }

    /// What the federated router reads of this summary for a placement
    /// of `accelerator`.
    pub fn route_key(&self, accelerator: Option<&str>) -> RouteKey {
        RouteKey {
            shard: self.shard,
            devices: self.devices,
            bindings: self.bindings,
            warmth: self.warmth_for(accelerator),
        }
    }
}

/// What the federated router reads of one shard for one placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteKey {
    /// Shard index in the federation.
    pub shard: usize,
    /// Registered devices.
    pub devices: usize,
    /// Live instance bindings.
    pub bindings: usize,
    /// The shard's warmth for the placement's accelerator: configured
    /// when some board is configured with it or has it pending, warm when
    /// some board has it staged, else cold.
    pub warmth: Warmth,
}

impl RouteKey {
    /// Mean bindings per device — the load metric the federated router
    /// breaks warmth ties with. A shard with no devices is infinitely
    /// loaded.
    pub fn load(&self) -> f64 {
        if self.devices == 0 {
            f64::INFINITY
        } else {
            self.bindings as f64 / self.devices as f64
        }
    }
}

/// Placement outcome totals (the `bf_registry_placements_total` counter
/// read back by outcome label).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlacementOutcomes {
    /// Placements that landed on an already-configured board.
    pub configured: u64,
    /// Placements satisfied from a board's warm bitstream cache.
    pub warm: u64,
    /// Placements that forced a cold reprogram.
    pub cold: u64,
}

impl PlacementOutcomes {
    /// Total placements across all outcomes.
    pub fn total(&self) -> u64 {
        self.configured + self.warm + self.cold
    }
}

/// Per-shard lock-contention report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ContentionReport {
    /// Shard index.
    pub shard: usize,
    /// The shard's registry-lock accounting.
    pub stats: ContentionStats,
}

/// The typed placement API the rest of the system programs against.
///
/// [`ShardedRegistry`](crate::ShardedRegistry) implements it by routing
/// on per-shard [`RouteKey`]s and running the paper's
/// Algorithm 1 inside the chosen shard; with one shard that is the
/// paper's single Accelerators Registry. Callers take
/// `&dyn PlacementService` (or an `Arc<dyn PlacementService>`).
pub trait PlacementService: Send + Sync {
    /// Registers a device (Devices Service): a live
    /// [`DeviceManager`] or any lighter [`RegistryDevice`] stand-in.
    fn register_device_handle(&self, device: Arc<dyn RegistryDevice>);

    /// Registers a function and its device query (Functions Service).
    fn register_function(&self, name: &str, query: DeviceQuery);

    /// Fetches a function record (instances aggregated across shards).
    fn function(&self, name: &str) -> Option<FunctionRecord>;

    /// The live manager fronting a device id, when one exists (see
    /// [`RegistryDevice::manager`]).
    fn manager(&self, device_id: &str) -> Option<DeviceManager>;

    /// All registered device ids.
    fn device_ids(&self) -> Vec<String>;

    /// Snapshot of the allocator's device views (diagnostics, tests).
    fn device_views(&self) -> Vec<DeviceView>;

    /// The device an instance is bound to.
    fn binding(&self, instance: &str) -> Option<String>;

    /// Runs placement for a new instance of `function`.
    ///
    /// # Errors
    ///
    /// Fails when the function is unknown, no device survives the
    /// allocation, or reprogramming/migration fails.
    fn place_instance(&self, instance: &str, function: &str) -> Result<Allocation, RegistryError>;

    /// Removes an instance's binding.
    fn release_instance(&self, instance: &str);

    /// Migrates a device's tenants away and reprograms it.
    ///
    /// # Errors
    ///
    /// Fails on unknown devices or when reprogramming fails.
    fn reconfigure_device(&self, device_id: &str, bitstream: &str) -> Result<(), RegistryError>;

    /// Deregisters a failed device and migrates its tenants.
    ///
    /// # Errors
    ///
    /// Fails on unknown devices or when a tenant cannot be rehomed.
    fn handle_device_failure(&self, device_id: &str) -> Result<Vec<String>, RegistryError>;

    /// Refreshes the utilization metrics the allocator orders by.
    fn gather_metrics(&self);

    /// Placement outcome totals summed across shards.
    fn placement_outcomes(&self) -> PlacementOutcomes;

    /// Per-shard lock-contention reports.
    fn contention(&self) -> Vec<ContentionReport>;

    /// Stores the cluster handle used for displaced-tenant migration.
    /// Callers normally go through [`attach_placement`], which also
    /// installs [`admission_hook`] and the deletion watcher.
    fn bind_cluster(&self, cluster: &Cluster);
}

/// The validator Device Managers consult for client-initiated
/// reconfiguration requests: approved only when the requesting instance
/// is actually allocated to that device.
pub fn reconfig_validator(
    service: Arc<dyn PlacementService>,
) -> Arc<dyn Fn(&ReconfigRequest) -> bool + Send + Sync> {
    Arc::new(move |req: &ReconfigRequest| {
        service.binding(&req.client_name).as_deref() == Some(req.device_id.as_str())
    })
}

/// The admission hook that places every instance a cluster creates:
/// runs Algorithm 1 through `service`, injects `DEVICE_MANAGER_ADDRESS`
/// and the shm volume, and forces the host. A refused placement denies
/// the instance.
pub fn admission_hook(service: Arc<dyn PlacementService>) -> AdmissionHook {
    Arc::new(move |spec| {
        let instance = spec.id.to_string();
        let placement = service
            .place_instance(&instance, &spec.function)
            .map_err(|e| e.to_string())?;
        spec.env
            .insert(ENV_DEVICE_MANAGER.to_string(), placement.device_id.clone());
        spec.volumes
            .push(format!("{SHM_VOLUME_PREFIX}{}", placement.device_id));
        spec.node = Some(placement.node.clone());
        Ok(())
    })
}

/// Wires a placement service into a cluster: binds it for migration,
/// installs [`admission_hook`], and spawns a watcher that releases
/// bindings on pod deletion.
pub fn attach_placement(cluster: &Cluster, service: Arc<dyn PlacementService>) {
    service.bind_cluster(cluster);
    cluster.set_admission_hook(admission_hook(service.clone()));
    let mut watch = cluster.watch();
    std::thread::Builder::new()
        .name("bf-registry-watch".to_string())
        .spawn(move || {
            while let Some(event) = watch.next_blocking() {
                if let WatchEvent::Deleted(id) = event {
                    service.release_instance(&id.to_string());
                }
            }
        })
        // bf-lint: allow(panic): thread-spawn failure is OS resource
        // exhaustion at registry startup — no caller can recover.
        .expect("spawn registry watch thread");
}
