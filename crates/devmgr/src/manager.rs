//! The Device Manager service (paper §III-B, Fig. 3).

use std::sync::Arc;

use bf_cache::{CacheStats, PayloadCache};
use bf_fpga::Board;
use bf_metrics::MetricsRegistry;
use bf_model::{NodeId, NodeSpec, VirtualTime};
use bf_ocl::BitstreamCatalog;
use bf_rpc::{duplex_with_depth, ClientChannel, ClientId, PathCosts, Poller, ShmSegment, Waker};
// bf-lint: allow(raw_sync): control-plane channel between manager handles and the event loop; drained via the modeled waker, never blocked on
use crossbeam::channel::{bounded, Sender};
// bf-lint: allow(raw_sync): the board lock is shared with non-instrumented crates (bf-ocl, bf-registry) and serialized by the single event-loop thread
use parking_lot::Mutex;

use crate::sync::atomic::{AtomicU64, Ordering};

use crate::event_loop::{run_event_loop, Control};
use crate::lock_order;
use crate::session::SessionSeed;

/// Who may trigger a board reconfiguration through this manager.
///
/// In a full BlastFunction deployment the Accelerators Registry validates
/// reconfiguration requests (§III-C); standalone managers can simply allow
/// or deny them.
#[derive(Clone)]
pub enum ReconfigPolicy {
    /// Any client may reconfigure (standalone/dev deployments).
    Allow,
    /// Nobody may reconfigure through the client API (the registry drives
    /// reconfiguration out-of-band via [`DeviceManager::program`]).
    Deny,
    /// Ask a validator (the registry hook).
    Validate(Arc<dyn Fn(&ReconfigRequest) -> bool + Send + Sync>),
}

impl std::fmt::Debug for ReconfigPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReconfigPolicy::Allow => write!(f, "ReconfigPolicy::Allow"),
            ReconfigPolicy::Deny => write!(f, "ReconfigPolicy::Deny"),
            ReconfigPolicy::Validate(_) => write!(f, "ReconfigPolicy::Validate(..)"),
        }
    }
}

/// A reconfiguration attempt submitted to the policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReconfigRequest {
    /// Requesting client (function instance) name.
    pub client_name: String,
    /// Bitstream the client wants configured.
    pub bitstream: String,
    /// The device being reconfigured.
    pub device_id: String,
}

/// Configuration of one Device Manager.
#[derive(Debug, Clone)]
pub struct DeviceManagerConfig {
    /// Cluster-unique device id (e.g. `"fpga-b"`).
    pub device_id: String,
    /// Capacity of each client's shared-memory segment.
    pub shm_capacity: u64,
    /// Reconfiguration policy.
    pub reconfig_policy: ReconfigPolicy,
    /// Per-direction frame depth of each session's bounded channel.
    pub channel_depth: usize,
    /// Responses the event loop will park for one session whose completion
    /// stream is full before force-disconnecting it as a slow consumer.
    pub max_pending_responses: usize,
    /// Operations one session may stage on a single command queue before
    /// flushing; further enqueues fail with `OutOfResources`.
    pub max_queued_ops: usize,
    /// Host-tier budget of the content-addressed payload cache, in bytes.
    /// `0` (the default) disables caching entirely: sessions accept no
    /// `DataRef::Digest` references and admit nothing, keeping the
    /// archived timing/copy benchmarks byte-identical.
    pub payload_cache_capacity: u64,
}

impl DeviceManagerConfig {
    /// A standalone manager: 512 MiB shm segments, reconfiguration allowed,
    /// default channel depth and slow-consumer limit.
    pub fn standalone(device_id: impl Into<String>) -> Self {
        DeviceManagerConfig {
            device_id: device_id.into(),
            shm_capacity: 512 << 20,
            reconfig_policy: ReconfigPolicy::Allow,
            channel_depth: bf_rpc::DEFAULT_DEPTH,
            max_pending_responses: 1024,
            max_queued_ops: 4096,
            payload_cache_capacity: 0,
        }
    }

    /// Overrides the reconfiguration policy.
    pub fn with_policy(mut self, policy: ReconfigPolicy) -> Self {
        self.reconfig_policy = policy;
        self
    }

    /// Overrides the shared-memory segment capacity.
    pub fn with_shm_capacity(mut self, capacity: u64) -> Self {
        self.shm_capacity = capacity;
        self
    }

    /// Overrides the per-session channel depth (clamped to ≥ 1).
    pub fn with_channel_depth(mut self, depth: usize) -> Self {
        self.channel_depth = depth.max(1);
        self
    }

    /// Overrides the slow-consumer response limit.
    pub fn with_max_pending_responses(mut self, limit: usize) -> Self {
        self.max_pending_responses = limit;
        self
    }

    /// Overrides the per-queue staged-operation cap (clamped to ≥ 1).
    pub fn with_max_queued_ops(mut self, limit: usize) -> Self {
        self.max_queued_ops = limit.max(1);
        self
    }

    /// Enables the content-addressed payload cache with a host-tier
    /// budget of `capacity` bytes (`0` disables it).
    pub fn with_payload_cache(mut self, capacity: u64) -> Self {
        self.payload_cache_capacity = capacity;
        self
    }
}

pub(crate) struct Shared {
    pub config: DeviceManagerConfig,
    pub node: NodeSpec,
    pub board: Arc<Mutex<Board>>,
    pub catalog: BitstreamCatalog,
    pub metrics: MetricsRegistry,
    pub connected: AtomicU64,
    /// Content-addressed payload cache; `None` when disabled. Storage is
    /// shared by every session of this manager, but sessions only get
    /// hits on digests they themselves shipped inline (each session
    /// keeps its own admission tracker), so the shared store is not a
    /// cross-tenant disclosure channel.
    pub cache: Option<PayloadCache>,
}

/// What [`DeviceManager::connect`] hands to a client: everything the
/// Remote OpenCL Library needs to talk to this manager.
#[derive(Debug, Clone)]
pub struct ManagerEndpoint {
    /// The manager's device id.
    pub device_id: String,
    /// Node hosting the device.
    pub node: NodeId,
    /// Session id assigned to this client.
    pub client: ClientId,
    /// The gRPC-like connection (requests out, completion stream in).
    pub channel: ClientChannel,
    /// Shared-memory segment, when the shm data path is in use.
    pub shm: Option<ShmSegment>,
    /// The connection's cost profile.
    pub costs: PathCosts,
    /// Host-tier byte budget of the manager's payload cache, 0 when it
    /// runs none: the client may send `DataRef::Digest` references for
    /// content it has already shipped, and need not hash a payload larger
    /// than this — the manager cannot admit it, so a reference to it
    /// could only ever NACK. Only content this very session shipped can
    /// hit — references to anything else NACK as `CacheMiss` exactly like
    /// a miss.
    pub payload_cache_capacity: u64,
}

/// A Device Manager: fronts one FPGA board, multiplexing isolated client
/// sessions onto it through multi-operation tasks and a central FIFO
/// queue, all driven by a single event-loop thread polling every session's
/// bounded channel.
///
/// Cloning yields another handle to the same manager.
#[derive(Clone)]
pub struct DeviceManager {
    shared: Arc<Shared>,
    control_tx: Sender<Control>,
    waker: Waker,
    next_client: Arc<AtomicU64>,
}

impl DeviceManager {
    /// Starts a manager for `board` on `node`, spawning the event-loop
    /// thread that serves every session.
    pub fn new(
        config: DeviceManagerConfig,
        node: NodeSpec,
        board: Arc<Mutex<Board>>,
        catalog: BitstreamCatalog,
    ) -> Self {
        let (manager, event_loop) = Self::new_detached(config, node, board, catalog);
        std::thread::Builder::new()
            .name("bf-devmgr-events".to_string())
            .spawn(event_loop)
            // bf-lint: allow(panic): thread-spawn failure is OS resource
            // exhaustion at manager startup — no caller can recover.
            .expect("spawn device-manager event loop");
        manager
    }

    /// Like [`DeviceManager::new`], but hands the event loop back to the
    /// caller instead of spawning it. The manager is inert until the
    /// returned closure runs (on a thread of the caller's choosing); this
    /// is how `bf-race` model tests drive the loop on a model thread so
    /// every interleaving with client sessions is explored.
    pub fn new_detached(
        config: DeviceManagerConfig,
        node: NodeSpec,
        board: Arc<Mutex<Board>>,
        catalog: BitstreamCatalog,
    ) -> (Self, impl FnOnce() + Send + 'static) {
        let cache = (config.payload_cache_capacity > 0)
            .then(|| PayloadCache::new(config.payload_cache_capacity));
        let shared = Arc::new(Shared {
            config,
            node,
            board,
            catalog,
            metrics: MetricsRegistry::new(),
            connected: AtomicU64::new(0),
            cache,
        });
        let mut poller = Poller::new();
        let (wake_token, waker) = poller.add_waker();
        let (control_tx, control_rx) = bounded(64);
        let loop_shared = shared.clone();
        let event_loop = move || run_event_loop(loop_shared, control_rx, poller, wake_token);
        let manager = DeviceManager {
            shared,
            control_tx,
            waker,
            next_client: Arc::new(AtomicU64::new(1)),
        };
        (manager, event_loop)
    }

    /// The manager's device id.
    pub fn device_id(&self) -> &str {
        &self.shared.config.device_id
    }

    /// The node hosting the device.
    pub fn node(&self) -> &NodeSpec {
        &self.shared.node
    }

    /// The board behind the manager.
    pub fn board(&self) -> &Arc<Mutex<Board>> {
        &self.shared.board
    }

    /// The manager's metrics registry (what Prometheus would scrape).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.shared.metrics
    }

    /// Prometheus text scrape of the manager's metrics.
    pub fn scrape(&self) -> String {
        self.refresh_gauges();
        self.shared.metrics.scrape()
    }

    /// Currently configured bitstream id.
    pub fn bitstream_id(&self) -> Option<String> {
        lock_order::tracked(&self.shared.board, "board")
            .bitstream_id()
            .map(str::to_string)
    }

    /// Number of connected client sessions.
    pub fn connected_clients(&self) -> u64 {
        self.shared.connected.load(Ordering::SeqCst)
    }

    /// FPGA time utilization since the start of the run: busy time over the
    /// board's current virtual horizon.
    pub fn utilization(&self) -> f64 {
        let board = lock_order::tracked(&self.shared.board, "board");
        let horizon = board.available_at();
        board.busy_tracker().utilization(VirtualTime::ZERO, horizon)
    }

    /// Utilization attributed to one function over `[from, to)`.
    pub fn utilization_of(&self, from: VirtualTime, to: VirtualTime, owner: &str) -> f64 {
        lock_order::tracked(&self.shared.board, "board")
            .busy_tracker()
            .utilization_of(from, to, owner)
    }

    /// Directly (re)programs the board — the registry-driven path, which
    /// bypasses the client-facing policy.
    ///
    /// # Errors
    ///
    /// Returns the unknown bitstream id when it is absent from the catalog.
    pub fn program(&self, bitstream: &str) -> Result<(), String> {
        let image = self
            .shared
            .catalog
            .get(bitstream)
            .ok_or_else(|| format!("unknown bitstream {bitstream:?}"))?;
        let mut board = lock_order::tracked(&self.shared.board, "board");
        if board.bitstream_id() != Some(bitstream) {
            let now = board.available_at();
            board.program(image, now, "registry");
            // Reprogramming wipes on-board DDR: forget the device tier.
            if let Some(cache) = &self.shared.cache {
                cache.invalidate_device();
            }
        }
        Ok(())
    }

    /// Counters of the content-addressed payload cache, when enabled.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.shared.cache.as_ref().map(PayloadCache::stats)
    }

    /// Drops every payload-cache entry in both tiers — the node-death /
    /// migration invalidation hook. Outstanding zero-copy snapshots held
    /// by in-flight operations remain valid. A no-op when caching is
    /// disabled.
    pub fn invalidate_payload_cache(&self) {
        if let Some(cache) = &self.shared.cache {
            cache.invalidate_all();
        }
    }

    /// Opens a client session, registering it with the event loop, and
    /// returns the endpoint the Remote OpenCL Library connects with.
    ///
    /// The shared-memory data path is granted only when `costs` asks for it
    /// and the client is co-located (not cross-node), mirroring §III-B.
    pub fn connect(&self, client_name: &str, costs: PathCosts) -> ManagerEndpoint {
        let client = ClientId(self.next_client.fetch_add(1, Ordering::SeqCst));
        let (client_chan, server_chan) = duplex_with_depth(self.shared.config.channel_depth);
        let use_shm =
            costs.data_path() == bf_model::DataPathKind::SharedMemory && !costs.is_cross_node();
        let shm = use_shm.then(|| ShmSegment::new(self.shared.config.shm_capacity));
        self.shared.connected.fetch_add(1, Ordering::SeqCst);
        let seed = SessionSeed {
            server: server_chan,
            client,
            name: client_name.to_string(),
            costs,
            shm: shm.clone(),
        };
        if self
            .control_tx
            .send(Control::Register(Box::new(seed)))
            .is_err()
        {
            // The event loop is gone (should not happen while a manager
            // handle exists); the endpoint will observe Closed.
            self.shared.connected.fetch_sub(1, Ordering::SeqCst);
        } else {
            self.waker.wake();
        }
        ManagerEndpoint {
            device_id: self.shared.config.device_id.clone(),
            node: self.shared.node.id().clone(),
            client,
            channel: client_chan,
            shm,
            costs,
            payload_cache_capacity: self
                .shared
                .cache
                .as_ref()
                .map_or(0, PayloadCache::capacity_bytes),
        }
    }

    fn refresh_gauges(&self) {
        let device = self.shared.config.device_id.clone();
        let util = self.utilization();
        self.shared
            .metrics
            .gauge("bf_fpga_utilization", &[("device", device.as_str())])
            .set(util);
        self.shared
            .metrics
            .gauge(
                "bf_manager_connected_clients",
                &[("device", device.as_str())],
            )
            .set(self.connected_clients() as f64);
        let board = lock_order::tracked(&self.shared.board, "board");
        self.shared
            .metrics
            .gauge("bf_fpga_busy_seconds", &[("device", device.as_str())])
            .set(board.busy_tracker().total_busy().as_secs_f64());
        self.shared
            .metrics
            .gauge("bf_fpga_reconfigurations", &[("device", device.as_str())])
            .set(board.reconfigurations() as f64);
        drop(board);
        if let Some(cache) = &self.shared.cache {
            cache.export_metrics(&self.shared.metrics, device.as_str());
        }
    }
}

impl std::fmt::Debug for DeviceManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeviceManager")
            .field("device_id", &self.shared.config.device_id)
            .field("node", self.shared.node.id())
            .field("connected", &self.connected_clients())
            .finish()
    }
}
