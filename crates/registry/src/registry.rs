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
use bf_metrics::{Counter, MetricsRegistry};
use bf_race::sync::Mutex;

use crate::allocation::{
    allocate, AllocateError, Allocation, AllocationPolicy, DeviceView, Warmth,
};
use crate::device::RegistryDevice;
use crate::gatherer::{gauge_for_device, parse_scrape};
use crate::query::DeviceQuery;
use crate::service::{ContentionReport, PlacementOutcomes, RouteKey, ShardLoadSummary};

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
    /// Device handles, sorted by id and position-aligned with `views`.
    devices: Vec<Arc<dyn RegistryDevice>>,
    /// Algorithm 1's input, kept rather than rebuilt per placement: one
    /// view per device, updated by the events that change it — a bind or
    /// unbind (`connected`), a reconfiguration (`pending_reconfiguration`
    /// and the `bitstream` it promises) and a gather (`utilization`,
    /// `mean_op_latency_ms`). Only the board fields are re-read, at each
    /// use: a session can program its board without the registry.
    views: Vec<DeviceView>,
    functions: BTreeMap<String, FunctionRecord>,
    /// instance name → (function name, device id)
    bindings: BTreeMap<String, (String, String)>,
    policy: AllocationPolicy,
    contention: ContentionStats,
}

impl RegistryInner {
    /// Records one lock acquisition spanning the whole device + binding
    /// tables: a placement reads every view, and the views carry every
    /// binding in their `connected` maps.
    fn note_full_span(&mut self) {
        let span = (self.devices.len() + self.bindings.len()) as u64;
        self.contention.note(span);
    }

    /// Where `device_id` sits (or would sit) in `devices` / `views`.
    fn slot(&self, device_id: &str) -> Result<usize, usize> {
        self.views
            .binary_search_by(|v| v.id.as_str().cmp(device_id))
    }

    fn view_mut(&mut self, device_id: &str) -> Option<&mut DeviceView> {
        let at = self.slot(device_id).ok()?;
        self.views.get_mut(at)
    }

    /// Binds `instance` of `function` to the device at `at`.
    fn bind(&mut self, instance: &str, function: &str, at: usize) {
        let needs = self
            .functions
            .get(function)
            .and_then(|f| f.query.accelerator.clone());
        let Some(view) = self.views.get_mut(at) else {
            return;
        };
        // bf-flow: allow(hot_alloc): one entry per live instance, removed
        // by `unbind` — bounded by the instances the cluster runs
        view.connected.insert(instance.to_string(), needs);
        // bf-flow: allow(hot_alloc): same bound as above
        let rebound = self.bindings.insert(
            instance.to_string(),
            (function.to_string(), view.id.clone()),
        );
        // An instance bound again leaves the device it was bound to.
        if let Some((_, old)) = rebound {
            if self.views.get(at).is_some_and(|v| v.id != old) {
                if let Some(view) = self.view_mut(&old) {
                    view.connected.remove(instance);
                }
            }
        }
        if let Some(rec) = self.functions.get_mut(function) {
            // bf-flow: allow(hot_alloc): same bound as above
            rec.instances.push(instance.to_string());
        }
    }

    /// Drops `instance`'s binding and prunes it from its device's view
    /// and its function's record. Returns the function it belonged to.
    fn unbind(&mut self, instance: &str) -> Option<String> {
        let (function, device) = self.bindings.remove(instance)?;
        if let Some(view) = self.view_mut(&device) {
            view.connected.remove(instance);
        }
        if let Some(rec) = self.functions.get_mut(&function) {
            rec.instances.retain(|i| i != instance);
        }
        Some(function)
    }

    /// Unbinds every instance bound to the device at `at` — walking that
    /// device's tenants only — and returns them as `(instance, function)`
    /// pairs in instance order.
    fn take_tenants(&mut self, at: usize) -> Vec<(String, String)> {
        let mut tenants: Vec<String> = match self.views.get(at) {
            Some(view) => view.connected.keys().cloned().collect(),
            None => Vec::new(),
        };
        tenants.sort_unstable();
        tenants
            .into_iter()
            .filter_map(|instance| {
                let function = self.unbind(&instance)?;
                Some((instance, function))
            })
            .collect()
    }

    /// Unbinds the device at `at`'s tenants and removes it from the
    /// tables; returns its handle, its view and the tenants.
    fn detach(
        &mut self,
        at: usize,
    ) -> (Arc<dyn RegistryDevice>, DeviceView, Vec<(String, String)>) {
        let tenants = self.take_tenants(at);
        let device = self.devices.remove(at);
        let view = self.views.remove(at);
        (device, view, tenants)
    }

    /// Inserts (or replaces) a device and its view at their sorted slot.
    fn attach(&mut self, device: Arc<dyn RegistryDevice>, mut view: DeviceView) -> usize {
        match self.slot(&view.id) {
            Ok(at) => {
                // A re-registered id keeps the bindings it already has.
                if let (Some(slot), Some(kept)) = (self.devices.get_mut(at), self.views.get_mut(at))
                {
                    view.connected = std::mem::take(&mut kept.connected);
                    *slot = device;
                    *kept = view;
                }
                at
            }
            Err(at) => {
                self.devices.insert(at, device);
                self.views.insert(at, view);
                at
            }
        }
    }

    /// Re-reads every view's board fields: the configured bitstream
    /// (unless a reconfiguration the registry started is pending — the
    /// view then shows the future image) and the warm cache.
    fn refresh_boards(devices: &[Arc<dyn RegistryDevice>], views: &mut [DeviceView]) {
        for (device, view) in devices.iter().zip(views) {
            let state = device.board_state();
            if !view.pending_reconfiguration {
                view.bitstream = state.configured;
            }
            view.warm_bitstreams = state.warm;
        }
    }
}

/// A device detached for a shard-map rebalance: everything the receiving
/// shard needs to re-home the device without re-placement.
pub(crate) struct DeviceExport {
    device: Arc<dyn RegistryDevice>,
    view: DeviceView,
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

/// The `bf_registry_placements_total{outcome}` series, resolved once.
struct PlacementCounters {
    configured: Counter,
    warm: Counter,
    cold: Counter,
}

impl PlacementCounters {
    fn new(metrics: &MetricsRegistry) -> Self {
        let counter = |warmth: Warmth| {
            metrics.counter(
                "bf_registry_placements_total",
                &[("outcome", warmth.label())],
            )
        };
        PlacementCounters {
            configured: counter(Warmth::Configured),
            warm: counter(Warmth::Warm),
            cold: counter(Warmth::Cold),
        }
    }

    fn of(&self, warmth: Warmth) -> &Counter {
        match warmth {
            Warmth::Configured => &self.configured,
            Warmth::Warm => &self.warm,
            Warmth::Cold => &self.cold,
        }
    }
}

/// A view with the registration-time fields set; the board fields are
/// filled in by [`RegistryInner::refresh_boards`] before any use.
fn registered_view(device: &dyn RegistryDevice) -> DeviceView {
    DeviceView {
        id: device.device_id().to_string(),
        node: device.node().id().clone(),
        vendor: "Intel".to_string(),
        platform: "Intel(R) FPGA SDK for OpenCL(TM)".to_string(),
        bitstream: None,
        warm_bitstreams: Vec::new(),
        connected: HashMap::new(),
        utilization: 0.0,
        mean_op_latency_ms: 0.0,
        pending_reconfiguration: false,
    }
}

/// One shard: its tables behind the `registry` lock, plus the placement
/// outcome counters. The lock is never held across `program`, `scrape`
/// or a cluster call — programming and migration belong to the owning
/// [`ShardedRegistry`](crate::ShardedRegistry).
pub(crate) struct Shard {
    registry: Mutex<RegistryInner>,
    metrics: MetricsRegistry,
    placements: PlacementCounters,
}

impl Shard {
    /// An empty shard with the given allocation policy.
    pub(crate) fn new(policy: AllocationPolicy) -> Self {
        let metrics = MetricsRegistry::default();
        Shard {
            registry: Mutex::new(RegistryInner {
                devices: Vec::new(),
                views: Vec::new(),
                functions: BTreeMap::new(),
                bindings: BTreeMap::new(),
                policy,
                contention: ContentionStats::default(),
            }),
            placements: PlacementCounters::new(&metrics),
            metrics,
        }
    }

    /// Registers a device (Devices Service).
    pub(crate) fn register_device_handle(&self, device: Arc<dyn RegistryDevice>) {
        let view = registered_view(&*device);
        self.registry.lock().attach(device, view);
    }

    /// Registers a function and its device query (Functions Service).
    pub(crate) fn register_function(&self, name: &str, query: DeviceQuery) {
        let mut guard = self.registry.lock();
        let inner = &mut *guard;
        let replaced = inner.functions.insert(
            name.to_string(),
            FunctionRecord {
                name: name.to_string(),
                query,
                instances: Vec::new(),
            },
        );
        // A re-registration that changes the accelerator changes what
        // every bound instance of the function needs.
        let Some(old) = replaced else {
            return;
        };
        if let Some(needs) = inner.functions.get(name).map(|f| &f.query.accelerator) {
            if old.query.accelerator == *needs {
                return;
            }
            let RegistryInner {
                views, bindings, ..
            } = inner;
            for (instance, (function, device)) in bindings.iter() {
                if function != name {
                    continue;
                }
                let at = views.binary_search_by(|v| v.id.as_str().cmp(device));
                if let Some(view) = at.ok().and_then(|at| views.get_mut(at)) {
                    view.connected.insert(instance.clone(), needs.clone());
                }
            }
        }
    }

    /// Fetches a function record.
    pub(crate) fn function(&self, name: &str) -> Option<FunctionRecord> {
        self.registry.lock().functions.get(name).cloned()
    }

    /// The manager fronting a device id (what a function instance dials
    /// after reading `DEVICE_MANAGER_ADDRESS`). `None` for unknown ids
    /// and for devices no live manager fronts.
    pub(crate) fn manager(&self, device_id: &str) -> Option<DeviceManager> {
        let device = {
            let inner = self.registry.lock();
            let at = inner.slot(device_id).ok()?;
            inner.devices.get(at)?.clone()
        };
        device.manager()
    }

    /// All registered device ids, pre-sized off the device table.
    pub(crate) fn device_ids(&self) -> Vec<String> {
        let inner = self.registry.lock();
        let mut ids = Vec::with_capacity(inner.views.len());
        ids.extend(inner.views.iter().map(|v| v.id.clone()));
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
        for (view, device) in inner.views.iter().zip(&inner.devices) {
            handles.push((view.id.clone(), device.clone()));
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
            let util = gauge_for_device(&samples, "bf_fpga_utilization", &id);
            // Mean op latency from the histogram's _sum/_count pair.
            let sum = gauge_for_device(&samples, "bf_manager_op_latency_ms_sum", &id);
            let count = gauge_for_device(&samples, "bf_manager_op_latency_ms_count", &id);
            let latency = match (sum, count) {
                (Some(sum), Some(count)) if count > 0.0 => Some(sum / count),
                _ => None,
            };
            if util.is_none() && latency.is_none() {
                continue;
            }
            if let Some(view) = inner.view_mut(&id) {
                view.utilization = util.unwrap_or(view.utilization);
                view.mean_op_latency_ms = latency.unwrap_or(view.mean_op_latency_ms);
            }
        }
    }

    /// Runs Algorithm 1 for a new instance of `function` over the kept
    /// views and records the decision: binds the instance, unbinds the
    /// displaced tenants and — when the chosen device needs a different
    /// bitstream — marks the reconfiguration pending so concurrent
    /// allocations see the device's future bitstream.
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
        let mut guard = self.registry.lock();
        let inner = &mut *guard;
        inner.note_full_span();
        let query = &inner
            .functions
            .get(function)
            .ok_or_else(|| RegistryError::UnknownFunction(function.to_string()))?
            .query;
        RegistryInner::refresh_boards(&inner.devices, &mut inner.views);
        let decision = allocate(query, &inner.views, &inner.policy)?;
        self.placements.of(decision.warmth).inc();
        let at = inner
            .slot(&decision.device_id)
            .map_err(|_| RegistryError::UnknownDevice(decision.device_id.clone()))?;
        inner.bind(instance, function, at);
        for displaced in &decision.displaced {
            inner.unbind(displaced);
        }
        if let (Some(bitstream), Some(view)) = (&decision.reconfigure, inner.views.get_mut(at)) {
            view.pending_reconfiguration = true;
            view.bitstream = Some(bitstream.clone());
        }
        let device = inner
            .devices
            .get(at)
            .cloned()
            .ok_or_else(|| RegistryError::UnknownDevice(decision.device_id.clone()))?;
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
        let unknown = || RegistryError::UnknownDevice(device_id.to_string());
        let at = inner.slot(device_id).map_err(|_| unknown())?;
        let device = inner.devices.get(at).cloned().ok_or_else(unknown)?;
        if let Some(view) = inner.views.get_mut(at) {
            view.pending_reconfiguration = true;
            view.bitstream = Some(bitstream.to_string());
        }
        let tenants = inner.take_tenants(at);
        Ok((device, tenants.into_iter().map(|(i, _)| i).collect()))
    }

    /// The board now carries the bitstream that was pending.
    pub(crate) fn finish_reconfiguration(&self, device_id: &str) {
        if let Some(view) = self.registry.lock().view_mut(device_id) {
            view.pending_reconfiguration = false;
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
        let at = inner
            .slot(device_id)
            .map_err(|_| RegistryError::UnknownDevice(device_id.to_string()))?;
        let (_, _, tenants) = inner.detach(at);
        Ok(tenants.into_iter().map(|(i, _)| i).collect())
    }

    /// Snapshot of the allocator's device views (diagnostics, tests).
    pub(crate) fn device_views(&self) -> Vec<DeviceView> {
        let mut guard = self.registry.lock();
        let inner = &mut *guard;
        inner.note_full_span();
        RegistryInner::refresh_boards(&inner.devices, &mut inner.views);
        inner.views.clone()
    }

    /// What the federated router reads of this shard for a placement of
    /// `accelerator`: its size, its load and its warmth. The board walk
    /// stops at the first device configured with the accelerator (or
    /// with it pending), so a shard that serves it answers after a few
    /// boards; only the devices walked count towards the lock span.
    pub(crate) fn route_key(&self, shard: usize, accelerator: Option<&str>) -> RouteKey {
        let mut inner = self.registry.lock();
        let (mut walked, mut configured, mut staged) = (0u64, false, false);
        if let Some(acc) = accelerator {
            for (device, view) in inner.devices.iter().zip(&inner.views) {
                walked += 1;
                if view.pending_reconfiguration && view.bitstream.as_deref() == Some(acc) {
                    configured = true;
                    break;
                }
                let state = device.board_state();
                if state.configured.as_deref() == Some(acc) {
                    configured = true;
                    break;
                }
                staged |= state.warm.iter().any(|w| w == acc);
            }
        }
        let warmth = Warmth::of(accelerator, |_| configured, |_| staged);
        inner.contention.note(walked);
        RouteKey {
            shard,
            devices: inner.devices.len(),
            bindings: inner.bindings.len(),
            warmth,
        }
    }

    /// The aggregate load summary of this shard (diagnostics): counts,
    /// mean utilization, and the configured/warm bitstream hint sets —
    /// never per-device state.
    pub(crate) fn load_summary(&self, shard: usize) -> ShardLoadSummary {
        let mut inner = self.registry.lock();
        inner.note_full_span();
        let mut configured = BTreeSet::new();
        let mut warm = BTreeSet::new();
        let mut pending = 0usize;
        let mut utilization_sum = 0.0f64;
        for (device, view) in inner.devices.iter().zip(&inner.views) {
            let state = device.board_state();
            if let Some(b) = state.configured {
                configured.insert(b);
            }
            for w in state.warm {
                warm.insert(w);
            }
            if view.pending_reconfiguration {
                // The device's future bitstream counts as configured for
                // routing purposes — concurrent placements should chase it.
                configured.extend(view.bitstream.clone());
                pending += 1;
            }
            utilization_sum += view.utilization;
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
        let at = inner.slot(device_id).ok()?;
        let (device, view, bindings) = inner.detach(at);
        Some(DeviceExport {
            device,
            view,
            bindings,
        })
    }

    /// Re-homes a device exported from another shard, bindings included.
    pub(crate) fn import_device(&self, export: DeviceExport) {
        let mut inner = self.registry.lock();
        let at = inner.attach(export.device, export.view);
        for (instance, function) in export.bindings {
            inner.bind(&instance, &function, at);
        }
    }
}

#[cfg(test)]
impl Shard {
    /// The kept views beside the oracle's, rebuilt from the tables:
    /// `connected` from the binding table, board fields from the boards.
    pub(crate) fn kept_and_rebuilt_views(&self) -> (Vec<DeviceView>, Vec<DeviceView>) {
        let mut guard = self.registry.lock();
        let inner = &mut *guard;
        RegistryInner::refresh_boards(&inner.devices, &mut inner.views);
        (inner.views.clone(), Self::views(inner))
    }

    /// The oracle: materializes the views in one pass over the binding
    /// table and one over the devices. Utilization, op latency and the
    /// pending image have no other record, so they come from the kept
    /// view.
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
        for (device, kept) in inner.devices.iter().zip(&inner.views) {
            let id = device.device_id();
            let state = device.board_state();
            let pending = kept
                .pending_reconfiguration
                .then(|| kept.bitstream.clone())
                .flatten();
            views.push(DeviceView {
                id: id.to_string(),
                node: device.node().id().clone(),
                vendor: "Intel".to_string(),
                platform: "Intel(R) FPGA SDK for OpenCL(TM)".to_string(),
                pending_reconfiguration: pending.is_some(),
                bitstream: pending.or(state.configured),
                warm_bitstreams: state.warm,
                connected: connected.remove(id).unwrap_or_default(),
                utilization: kept.utilization,
                mean_op_latency_ms: kept.mean_op_latency_ms,
            });
        }
        views
    }
}
