//! One shard of the Accelerators Registry (paper §III-C): the device,
//! function and binding tables behind one lock, the Metrics Gatherer and
//! Algorithm 1 over them. Crate-private — the public registry is
//! [`ShardedRegistry`](crate::ShardedRegistry), which owns one or more
//! of these and does everything that leaves the shard (routing, cluster
//! migration, board programming).

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

use bf_devmgr::DeviceManager;
use bf_metrics::MetricsRegistry;
use bf_race::sync::Mutex;

use crate::allocation::{
    allocate, AllocateError, Allocation, AllocationPolicy, DeviceView, Warmth,
};
use crate::device::RegistryDevice;
use crate::gatherer::{gauge_for_device, parse_scrape};
use crate::query::DeviceQuery;
use crate::service::{ContentionReport, PlacementOutcomes, ShardLoadSummary};

/// Environment variable the registry injects with the allocated manager's
/// address.
pub const ENV_DEVICE_MANAGER: &str = "DEVICE_MANAGER_ADDRESS";
/// Volume name injected for the shared-memory data path.
pub const SHM_VOLUME_PREFIX: &str = "/dev/shm/blastfunction-";

/// A function known to the Functions Service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionRecord {
    /// Function (deployment) name.
    pub name: String,
    /// Its device requirements.
    pub query: DeviceQuery,
    /// Live instance names.
    pub instances: Vec<String>,
}

struct ManagedDevice {
    /// The handle the allocator reads board state from and programs
    /// through — a [`DeviceManager`] in production, a lightweight
    /// stand-in in simulation harnesses.
    device: Arc<dyn RegistryDevice>,
    utilization: f64,
    mean_op_latency_ms: f64,
    pending_reconfiguration: Option<String>,
}

/// Work performed under single acquisitions of the registry lock.
///
/// `span` is the number of device/binding entries walked while the lock
/// was held — the unit the federated ladder compares across shard counts
/// ("max per-lock contention").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ContentionStats {
    /// Lock acquisitions recorded.
    pub acquisitions: u64,
    /// Largest single-acquisition span.
    pub max_span: u64,
    /// Sum of all spans.
    pub total_span: u64,
}

impl ContentionStats {
    fn note(&mut self, span: u64) {
        self.acquisitions += 1;
        self.total_span += span;
        if span > self.max_span {
            self.max_span = span;
        }
    }
}

struct RegistryInner {
    devices: BTreeMap<String, ManagedDevice>,
    functions: BTreeMap<String, FunctionRecord>,
    /// instance name → (function name, device id)
    bindings: BTreeMap<String, (String, String)>,
    policy: AllocationPolicy,
    contention: ContentionStats,
}

impl RegistryInner {
    /// Records one lock acquisition spanning the whole device + binding
    /// tables (the view-materialization paths).
    fn note_full_span(&mut self) {
        let span = (self.devices.len() + self.bindings.len()) as u64;
        self.contention.note(span);
    }

    /// Drops `instance`'s binding and prunes it from its function's
    /// record. Returns the function it belonged to.
    fn unbind(&mut self, instance: &str) -> Option<String> {
        let (function, _) = self.bindings.remove(instance)?;
        if let Some(rec) = self.functions.get_mut(&function) {
            rec.instances.retain(|i| i != instance);
        }
        Some(function)
    }

    /// Unbinds every instance bound to `device_id`; returns them as
    /// `(instance, function)` pairs in instance order.
    fn take_tenants(&mut self, device_id: &str) -> Vec<(String, String)> {
        let tenants: Vec<String> = self
            .bindings
            .iter()
            .filter(|(_, (_, d))| d == device_id)
            .map(|(i, _)| i.clone())
            .collect();
        let mut taken = Vec::with_capacity(tenants.len());
        for instance in tenants {
            if let Some(function) = self.unbind(&instance) {
                taken.push((instance, function));
            }
        }
        taken
    }
}

/// A device's bindings detached for a shard-map rebalance: everything the
/// receiving shard needs to re-home the device without re-placement.
pub(crate) struct DeviceExport {
    managed: ManagedDevice,
    /// `(instance, function)` bindings that move with the device.
    pub(crate) bindings: Vec<(String, String)>,
}

/// Errors surfaced by registry operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// The function was never registered.
    UnknownFunction(String),
    /// The device was never registered.
    UnknownDevice(String),
    /// Allocation failed.
    Allocate(AllocateError),
    /// A cluster operation failed during migration.
    Cluster(String),
    /// Reprogramming failed (bitstream missing from the catalog).
    Program(String),
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::UnknownFunction(n) => write!(f, "function {n:?} is not registered"),
            RegistryError::UnknownDevice(d) => write!(f, "device {d:?} is not registered"),
            RegistryError::Allocate(e) => write!(f, "{e}"),
            RegistryError::Cluster(m) => write!(f, "cluster operation failed: {m}"),
            RegistryError::Program(m) => write!(f, "reprogramming failed: {m}"),
        }
    }
}

impl Error for RegistryError {}

impl From<AllocateError> for RegistryError {
    fn from(e: AllocateError) -> Self {
        RegistryError::Allocate(e)
    }
}

/// One shard: its tables behind the `registry` lock, plus the placement
/// outcome counters. The lock is never held across `program`, `scrape`
/// or a cluster call — programming and migration belong to the owning
/// [`ShardedRegistry`](crate::ShardedRegistry).
pub(crate) struct Shard {
    registry: Mutex<RegistryInner>,
    metrics: MetricsRegistry,
}

impl Shard {
    /// An empty shard with the given allocation policy.
    pub(crate) fn new(policy: AllocationPolicy) -> Self {
        Shard {
            registry: Mutex::new(RegistryInner {
                devices: BTreeMap::new(),
                functions: BTreeMap::new(),
                bindings: BTreeMap::new(),
                policy,
                contention: ContentionStats::default(),
            }),
            metrics: MetricsRegistry::default(),
        }
    }

    /// Registers a device (Devices Service).
    pub(crate) fn register_device_handle(&self, device: Arc<dyn RegistryDevice>) {
        let id = device.device_id().to_string();
        self.registry.lock().devices.insert(
            id,
            ManagedDevice {
                device,
                utilization: 0.0,
                mean_op_latency_ms: 0.0,
                pending_reconfiguration: None,
            },
        );
    }

    /// Registers a function and its device query (Functions Service).
    pub(crate) fn register_function(&self, name: &str, query: DeviceQuery) {
        self.registry.lock().functions.insert(
            name.to_string(),
            FunctionRecord {
                name: name.to_string(),
                query,
                instances: Vec::new(),
            },
        );
    }

    /// Fetches a function record.
    pub(crate) fn function(&self, name: &str) -> Option<FunctionRecord> {
        self.registry.lock().functions.get(name).cloned()
    }

    /// The manager fronting a device id (what a function instance dials
    /// after reading `DEVICE_MANAGER_ADDRESS`). `None` for unknown ids
    /// and for devices no live manager fronts.
    pub(crate) fn manager(&self, device_id: &str) -> Option<DeviceManager> {
        let device = self
            .registry
            .lock()
            .devices
            .get(device_id)
            .map(|d| d.device.clone())?;
        device.manager()
    }

    /// All registered device ids, pre-sized off the device table.
    pub(crate) fn device_ids(&self) -> Vec<String> {
        let inner = self.registry.lock();
        let mut ids = Vec::with_capacity(inner.devices.len());
        ids.extend(inner.devices.keys().cloned());
        ids
    }

    /// The device an instance is bound to.
    pub(crate) fn binding(&self, instance: &str) -> Option<String> {
        self.registry
            .lock()
            .bindings
            .get(instance)
            .map(|(_, d)| d.clone())
    }

    /// Pre-sized snapshot of `(device id, handle)` pairs — the only thing
    /// the gather path reads under the registry lock. Scrapes happen
    /// against the returned handles with no registry lock held.
    // bf-flow: entry(gatherer)
    fn device_handles(&self) -> Vec<(String, Arc<dyn RegistryDevice>)> {
        let mut inner = self.registry.lock();
        let span = inner.devices.len() as u64;
        inner.contention.note(span);
        let mut handles = Vec::with_capacity(inner.devices.len());
        for (id, d) in &inner.devices {
            handles.push((id.clone(), d.device.clone()));
        }
        handles
    }

    /// Metrics Gatherer: scrapes every manager's Prometheus text and
    /// refreshes the utilization the allocator orders by.
    ///
    /// Scrapes run outside the registry lock (they take each manager's
    /// own locks): the lock is held twice for pre-sized point work — the
    /// handle snapshot and the gauge write-back — never across a device
    /// round-trip.
    pub(crate) fn gather_metrics(&self) {
        let handles = self.device_handles();
        let mut scrapes = Vec::with_capacity(handles.len());
        for (id, device) in handles {
            scrapes.push((id, device.scrape()));
        }
        let mut inner = self.registry.lock();
        for (id, text) in scrapes {
            let samples = parse_scrape(&text);
            if let Some(util) = gauge_for_device(&samples, "bf_fpga_utilization", &id) {
                if let Some(dev) = inner.devices.get_mut(&id) {
                    dev.utilization = util;
                }
            }
            // Mean op latency from the histogram's _sum/_count pair.
            let sum = gauge_for_device(&samples, "bf_manager_op_latency_ms_sum", &id);
            let count = gauge_for_device(&samples, "bf_manager_op_latency_ms_count", &id);
            if let (Some(sum), Some(count)) = (sum, count) {
                if count > 0.0 {
                    if let Some(dev) = inner.devices.get_mut(&id) {
                        dev.mean_op_latency_ms = sum / count;
                    }
                }
            }
        }
    }

    /// Materializes the allocator's device views in one pass over the
    /// binding table and one over the devices — O(devices + bindings),
    /// where the old per-device binding scan was O(devices × bindings)
    /// and dominated every placement at federated-ladder scale.
    fn views(inner: &RegistryInner) -> Vec<DeviceView> {
        let mut connected: BTreeMap<&str, HashMap<String, Option<String>>> = BTreeMap::new();
        for (instance, (function, device)) in &inner.bindings {
            let needs = inner
                .functions
                .get(function)
                .and_then(|f| f.query.accelerator.clone());
            connected
                .entry(device.as_str())
                .or_default()
                .insert(instance.clone(), needs);
        }
        let mut views = Vec::with_capacity(inner.devices.len());
        for (id, d) in &inner.devices {
            let state = d.device.board_state();
            let pending = d.pending_reconfiguration.is_some();
            let effective_bitstream = d.pending_reconfiguration.clone().or(state.configured);
            views.push(DeviceView {
                id: id.clone(),
                node: d.device.node().id().clone(),
                vendor: "Intel".to_string(),
                platform: "Intel(R) FPGA SDK for OpenCL(TM)".to_string(),
                bitstream: effective_bitstream,
                warm_bitstreams: state.warm,
                connected: connected.remove(id.as_str()).unwrap_or_default(),
                utilization: d.utilization,
                mean_op_latency_ms: d.mean_op_latency_ms,
                pending_reconfiguration: pending,
            });
        }
        views
    }

    /// Runs Algorithm 1 for a new instance of `function` and records the
    /// decision: binds the instance, unbinds the displaced tenants and —
    /// when the chosen device needs a different bitstream — marks the
    /// reconfiguration pending so concurrent allocations see the
    /// device's future bitstream.
    ///
    /// Returns the allocation and the chosen device's handle. When
    /// `reconfigure` is set the caller migrates the displaced tenants,
    /// programs the handle and calls
    /// [`finish_reconfiguration`](Self::finish_reconfiguration).
    ///
    /// # Errors
    ///
    /// Fails when the function is unknown or no device survives
    /// Algorithm 1.
    pub(crate) fn place_instance(
        &self,
        instance: &str,
        function: &str,
    ) -> Result<(Allocation, Arc<dyn RegistryDevice>), RegistryError> {
        let mut inner = self.registry.lock();
        inner.note_full_span();
        let query = inner
            .functions
            .get(function)
            .ok_or_else(|| RegistryError::UnknownFunction(function.to_string()))?
            .query
            .clone();
        let decision = allocate(&query, &Self::views(&inner), &inner.policy)?;
        self.metrics
            .counter(
                "bf_registry_placements_total",
                &[("outcome", decision.warmth.label())],
            )
            .inc();
        inner.bindings.insert(
            instance.to_string(),
            (function.to_string(), decision.device_id.clone()),
        );
        if let Some(rec) = inner.functions.get_mut(function) {
            rec.instances.push(instance.to_string());
        }
        for displaced in &decision.displaced {
            inner.unbind(displaced);
        }
        if let Some(bitstream) = &decision.reconfigure {
            if let Some(dev) = inner.devices.get_mut(&decision.device_id) {
                dev.pending_reconfiguration = Some(bitstream.clone());
            }
        }
        // bf-taint: sanitized(decision.device_id was selected by the allocator from this very map's views under the same lock)
        let device = inner.devices[&decision.device_id].device.clone();
        Ok((decision, device))
    }

    /// Removes an instance's binding (called when its pod is deleted).
    pub(crate) fn release_instance(&self, instance: &str) {
        self.registry.lock().unbind(instance);
    }

    /// First half of a registry-driven reconfiguration of a whole
    /// device: marks `bitstream` pending and unbinds every tenant.
    /// Returns the device's handle and the tenants to migrate away
    /// before it is programmed.
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError::UnknownDevice`] for unregistered ids.
    pub(crate) fn begin_reconfiguration(
        &self,
        device_id: &str,
        bitstream: &str,
    ) -> Result<(Arc<dyn RegistryDevice>, Vec<String>), RegistryError> {
        let mut inner = self.registry.lock();
        let dev = inner
            .devices
            .get_mut(device_id)
            .ok_or_else(|| RegistryError::UnknownDevice(device_id.to_string()))?;
        dev.pending_reconfiguration = Some(bitstream.to_string());
        let device = dev.device.clone();
        let tenants = inner.take_tenants(device_id);
        Ok((device, tenants.into_iter().map(|(i, _)| i).collect()))
    }

    /// The board now carries the bitstream that was pending.
    pub(crate) fn finish_reconfiguration(&self, device_id: &str) {
        if let Some(device) = self.registry.lock().devices.get_mut(device_id) {
            device.pending_reconfiguration = None;
        }
    }

    /// Deregisters a failed device (node crash, board fault) and unbinds
    /// its tenants. Returns the tenants' instance names.
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError::UnknownDevice`] for unregistered ids.
    pub(crate) fn remove_failed_device(
        &self,
        device_id: &str,
    ) -> Result<Vec<String>, RegistryError> {
        let mut inner = self.registry.lock();
        if inner.devices.remove(device_id).is_none() {
            return Err(RegistryError::UnknownDevice(device_id.to_string()));
        }
        let tenants = inner.take_tenants(device_id);
        Ok(tenants.into_iter().map(|(i, _)| i).collect())
    }

    /// Snapshot of the allocator's device views (diagnostics, tests).
    pub(crate) fn device_views(&self) -> Vec<DeviceView> {
        let mut inner = self.registry.lock();
        inner.note_full_span();
        Self::views(&inner)
    }

    /// The aggregate load summary the federated router sees for this
    /// shard: counts, mean utilization, and the configured/warm bitstream
    /// hint sets — never per-device state.
    pub(crate) fn load_summary(&self, shard: usize) -> ShardLoadSummary {
        let mut inner = self.registry.lock();
        inner.note_full_span();
        let mut configured = BTreeSet::new();
        let mut warm = BTreeSet::new();
        let mut pending = 0usize;
        let mut utilization_sum = 0.0f64;
        for d in inner.devices.values() {
            let state = d.device.board_state();
            if let Some(b) = state.configured {
                configured.insert(b);
            }
            for w in state.warm {
                warm.insert(w);
            }
            if let Some(p) = &d.pending_reconfiguration {
                // The device's future bitstream counts as configured for
                // routing purposes — concurrent placements should chase it.
                configured.insert(p.clone());
                pending += 1;
            }
            utilization_sum += d.utilization;
        }
        let devices = inner.devices.len();
        ShardLoadSummary {
            shard,
            devices,
            bindings: inner.bindings.len(),
            pending_reconfigurations: pending,
            mean_utilization: if devices == 0 {
                0.0
            } else {
                utilization_sum / devices as f64
            },
            configured,
            warm,
        }
    }

    /// Placement outcome totals from this shard's metrics.
    pub(crate) fn placement_outcomes(&self) -> PlacementOutcomes {
        let read = |warmth: Warmth| {
            self.metrics
                .counter_value(
                    "bf_registry_placements_total",
                    &[("outcome", warmth.label())],
                )
                .unwrap_or(0.0) as u64
        };
        PlacementOutcomes {
            configured: read(Warmth::Configured),
            warm: read(Warmth::Warm),
            cold: read(Warmth::Cold),
        }
    }

    /// Lock-contention accounting for this shard's lock.
    pub(crate) fn contention(&self, shard: usize) -> ContentionReport {
        let stats = self.registry.lock().contention;
        ContentionReport { shard, stats }
    }

    /// Detaches `device_id` and its bindings for a shard-map rebalance.
    /// Unlike [`remove_failed_device`](Self::remove_failed_device) the
    /// bindings survive — the importing shard re-homes them unchanged.
    pub(crate) fn export_device(&self, device_id: &str) -> Option<DeviceExport> {
        let mut inner = self.registry.lock();
        let managed = inner.devices.remove(device_id)?;
        let bindings = inner.take_tenants(device_id);
        Some(DeviceExport { managed, bindings })
    }

    /// Re-homes a device exported from another shard, bindings included.
    pub(crate) fn import_device(&self, export: DeviceExport) {
        let mut inner = self.registry.lock();
        let id = export.managed.device.device_id().to_string();
        for (instance, function) in export.bindings {
            if let Some(rec) = inner.functions.get_mut(&function) {
                rec.instances.push(instance.clone());
            }
            inner.bindings.insert(instance, (function, id.clone()));
        }
        inner.devices.insert(id, export.managed);
    }
}
