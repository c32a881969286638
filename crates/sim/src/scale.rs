//! The "production day" scale scenario: open-loop diurnal traffic with
//! Zipf function popularity over thousands of functions and 1000+
//! simulated nodes, driven entirely by simkit virtual time.
//!
//! Unlike the Table I–IV scenarios (three nodes, closed-loop `hey`
//! clients), this harness exercises the *control plane* at the scale the
//! ROADMAP north-star requires: a real [`bf_cluster::Cluster`] whose
//! admission hook is the registry's own [`admission_hook`], so every
//! instance is placed by the paper's Algorithm 1 in a real
//! [`ShardedRegistry`] over one [`SimFpgaDevice`] per node; real
//! [`bf_metrics::MetricsRegistry`] series per function and node; and a
//! real [`bf_rpc::Poller`] with one waker per client session. The
//! Metrics Gatherer scrapes each device's measured utilization every
//! gather period, so Algorithm 1 ranks on the load it is placing.
//! The data plane is abstracted to per-node serial servers with bounded
//! queues so runs with hundreds of thousands of requests finish in
//! seconds.
//!
//! A seeded fault-injection layer rides on top: node loss (the registry
//! re-places the board's tenants through `replace_instance`, in-flight
//! work fails), slow consumers (session backlog growth up to forced
//! disconnect), restarts (release-and-replace churn), a shed storm (an
//! offered-rate multiplier window), delayed watch-event consumption
//! (which delays binding releases too) and a rebalance (a registry shard
//! joins and later leaves). Every random stream is split from the
//! scenario seed with [`SimRng::split`], so the fault injector draws from
//! its own streams and cannot perturb the traffic trace — and every run
//! replays byte-identically from its seed, which
//! [`ScaleResult::trace_digest`] certifies.

use std::collections::{HashMap, VecDeque};
use std::f64::consts::PI;
use std::sync::Arc;
use std::time::Duration;

use bf_cluster::{Cluster, InstanceId, InstanceTemplate, WatchEvent, WatchStream};
use bf_metrics::MetricsRegistry;
use bf_model::{
    MemcpyModel, NodeId, NodeSpec, PcieGeneration, PcieLink, VirtualDuration, VirtualTime,
};
use bf_race::sync::Mutex;
use bf_registry::{
    admission_hook, AllocationPolicy, BoardState, DeviceQuery, PlacementService, RegistryDevice,
    ShardedRegistry,
};
use bf_rpc::{PollEvent, Poller, Token, Waker};
use bf_simkit::{Engine, Samples, SimRng, ZipfSampler};
use bf_workloads::{mm::MM_BITSTREAM, pipecnn::PIPECNN_BITSTREAM, sobel::SOBEL_BITSTREAM};
use serde::Serialize;

use crate::digest::Digest;

/// Stream-split keys: one sub-stream per subsystem, so adding draws to
/// one cannot perturb another (see the `simkit::rng` proptests).
const STREAM_TRAFFIC: u64 = 1;
const STREAM_SERVICE: u64 = 2;
const STREAM_FAULTS: u64 = 3;
const STREAM_ACCEL: u64 = 4;

/// A session whose backlog exceeds this is forcibly disconnected (the
/// Device Manager's slow-consumer policy, abstracted).
const SLOW_BACKLOG_LIMIT: u32 = 32;

/// Abstracted per-node payload-cache capacity, in distinct function
/// payloads. Mirrors the Device Manager's content-addressed cache: the
/// Zipf head stays resident, the tail churns through the slots.
const NODE_CACHE_SLOTS: usize = 256;

/// Zipf exponent of function popularity, and of accelerator popularity
/// over [`ACCELERATORS`].
const ZIPF_EXPONENT: f64 = 1.2;

/// The bitstream catalog: the paper's three accelerators, most popular
/// first. Each function needs one.
const ACCELERATORS: [&str; 3] = [SOBEL_BITSTREAM, MM_BITSTREAM, PIPECNN_BITSTREAM];

/// Per-node in-system cap; arrivals beyond it are shed.
const QUEUE_CAPACITY: u32 = 64;

/// Reactor cadence: watch streams and the poller are drained at this
/// virtual period.
const REACTOR_TICK: VirtualDuration = VirtualDuration::from_millis(10);

/// Watch-delivery coalescing window. It amortizes per-watcher sends
/// across the deploy-storm and migration bursts; the harness flushes
/// every reactor tick, so consumers still see events within one tick.
const WATCH_COALESCE: usize = 64;

/// Warm bitstream-cache slots per simulated board.
const WARM_SLOTS: usize = 4;

/// Metrics Gatherer cadence: every device's utilization over the last
/// period is scraped into the registry at this virtual period.
const GATHER_PERIOD: VirtualDuration = VirtualDuration::from_millis(100);

/// A stretch of the day, as fractions of its length.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    /// Start, as a fraction of the day.
    pub start_frac: f64,
    /// Length, as a fraction of the day.
    pub len_frac: f64,
}

impl Window {
    fn contains(&self, x: f64) -> bool {
        x >= self.start_frac && x < self.start_frac + self.len_frac
    }
}

/// An offered-rate multiplier window (a flash crowd) that drives node
/// queues past capacity and exercises shedding under overload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShedStorm {
    /// When the crowd arrives.
    pub window: Window,
    /// Offered-rate multiplier inside the window.
    pub factor: f64,
}

/// The seeded fault-injection plan. All schedule and victim draws come
/// from the fault stream, independent of the traffic stream.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Node-death events spread across the day. The registry re-places
    /// each victim's tenants (create-before-delete) and the victim's
    /// in-flight requests fail as typed losses.
    pub node_losses: u32,
    /// Slow-consumer episodes: the afflicted session drains one
    /// completion per reactor tick instead of all, until its backlog
    /// forces a disconnect or the episode ends.
    pub slow_consumers: u32,
    /// Release-and-replace churn: a random function's instance is
    /// replaced through the registry, its old binding released when the
    /// watchers see the deletion.
    pub restarts: u32,
    /// Optional flash crowd.
    pub shed_storm: Option<ShedStorm>,
    /// Optional stalled-watcher window: watch events (and so binding
    /// releases) back up and drain in one burst.
    pub watch_delay: Option<Window>,
    /// Optional rebalance: a registry shard joins at the window's start
    /// and leaves at its end, its devices' bindings riding along.
    pub rebalance: Option<Window>,
}

impl FaultPlan {
    /// No injected faults.
    pub fn none() -> FaultPlan {
        FaultPlan {
            node_losses: 0,
            slow_consumers: 0,
            restarts: 0,
            shed_storm: None,
            watch_delay: None,
            rebalance: None,
        }
    }

    /// The full fault battery, scaled for the production-day sweep.
    pub fn production() -> FaultPlan {
        FaultPlan {
            node_losses: 20,
            slow_consumers: 50,
            restarts: 200,
            shed_storm: Some(ShedStorm {
                window: Window {
                    start_frac: 0.45,
                    len_frac: 0.10,
                },
                factor: 3.0,
            }),
            watch_delay: Some(Window {
                start_frac: 0.70,
                len_frac: 0.05,
            }),
            rebalance: Some(Window {
                start_frac: 0.30,
                len_frac: 0.30,
            }),
        }
    }
}

/// Configuration of one production-day run. Every field participates in
/// determinism: same config + same seed → byte-identical trace.
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    /// Root seed; all streams are split from it.
    pub seed: u64,
    /// Registry shards; 1 is the paper's single Accelerators Registry.
    pub shards: usize,
    /// Cluster size (one FPGA device, one serial server per node).
    pub nodes: usize,
    /// Function catalog size (one instance each, Zipf-popular).
    pub functions: usize,
    /// Client sessions (one poller waker each); function `f` belongs to
    /// session `f % sessions`.
    pub sessions: usize,
    /// Compressed virtual day length.
    pub day: VirtualDuration,
    /// Trough aggregate arrival rate (rq/s).
    pub base_rps: f64,
    /// Peak-to-trough ratio of the diurnal curve.
    pub peak_factor: f64,
    /// Record the full event trace (for the replay regression test);
    /// the digest is always computed.
    pub record_trace: bool,
    /// Injected faults.
    pub faults: FaultPlan,
}

impl ScaleConfig {
    /// The CI smoke point around `seed`: 100 nodes / 1k functions / 1k
    /// sessions over a 12 s compressed day, one registry shard, full
    /// fault battery.
    pub fn smoke(seed: u64) -> ScaleConfig {
        ScaleConfig {
            seed,
            shards: 1,
            nodes: 100,
            functions: 1_000,
            sessions: 1_000,
            day: VirtualDuration::from_secs(12),
            base_rps: 150.0,
            peak_factor: 5.0,
            record_trace: false,
            faults: FaultPlan::production(),
        }
    }

    /// The archived sweep's headline point: 1000 nodes / 10k functions /
    /// 10k sessions over a 60 s compressed day (~170k arrivals), full
    /// fault battery.
    pub fn production_day(seed: u64) -> ScaleConfig {
        ScaleConfig {
            nodes: 1_000,
            functions: 10_000,
            sessions: 10_000,
            day: VirtualDuration::from_secs(60),
            base_rps: 800.0,
            peak_factor: 6.0,
            ..ScaleConfig::smoke(seed)
        }
    }

    /// Position of `t` in the day, as a fraction of its length.
    fn frac(&self, t: VirtualTime) -> f64 {
        t.as_secs_f64() / self.day.as_secs_f64()
    }

    /// The instant a fraction `x` into the day.
    fn at(&self, x: f64) -> VirtualTime {
        VirtualTime::from_secs_f64(x * self.day.as_secs_f64())
    }

    /// Aggregate offered rate at virtual time `t`: a diurnal sinusoid
    /// from `base_rps` at the trough to `base_rps * peak_factor` at
    /// midday, times any active storm multiplier.
    fn rate_at(&self, t: VirtualTime) -> f64 {
        let x = self.frac(t);
        let diurnal = 1.0 + (self.peak_factor - 1.0) * 0.5 * (1.0 - (2.0 * PI * x).cos());
        let storm = match &self.faults.shed_storm {
            Some(s) if s.window.contains(x) => s.factor,
            _ => 1.0,
        };
        self.base_rps * diurnal * storm
    }

    fn day_end(&self) -> VirtualTime {
        VirtualTime::ZERO + self.day
    }
}

/// Summary of one production-day run. Every field is deterministic:
/// same seed + config → identical struct, the JSON of which is archived
/// and CI-compared.
#[derive(Debug, Clone, Default, Serialize, PartialEq)]
pub struct ScaleResult {
    /// Registry shards the day started with.
    pub shards: u64,
    /// Cluster size.
    pub nodes: u64,
    /// Function catalog size.
    pub functions: u64,
    /// Client sessions (poller wakers).
    pub sessions: u64,
    /// Requests that arrived inside the day.
    pub arrivals: u64,
    /// Requests completed successfully.
    pub processed: u64,
    /// Requests shed at a full node queue, or with no live instance to
    /// route to.
    pub shed: u64,
    /// Requests lost in flight to a node death.
    pub failed_inflight: u64,
    /// Node-death events executed.
    pub node_losses: u64,
    /// Instances the registry re-placed while failing over dead nodes.
    pub rerouted: u64,
    /// Sessions forcibly disconnected for slow consumption.
    pub force_disconnects: u64,
    /// Instances placed (every pod the cluster admitted).
    pub placed: u64,
    /// Placements refused: a deploy, restart or re-deploy Algorithm 1
    /// found no device for, or a tenant a failover left homeless.
    pub refused: u64,
    /// Placements that landed on an already-configured board.
    pub configured: u64,
    /// Placements satisfied from a warm bitstream cache.
    pub warm: u64,
    /// Placements that forced a cold reprogram.
    pub cold: u64,
    /// Board reprogram operations across all devices.
    pub reconfigurations: u64,
    /// Reprograms satisfied from a board's warm cache.
    pub warm_reprograms: u64,
    /// Devices moved by the rebalance's join and leave.
    pub rebalance_moves: u64,
    /// Max devices+bindings walked under a single registry-lock
    /// acquisition, across all shards — the contention headline.
    pub max_lock_span: u64,
    /// Registry-lock acquisitions recorded across all shards.
    pub lock_acquisitions: u64,
    /// Mean end-to-end latency (ms) over completed requests.
    pub latency_mean_ms: f64,
    /// Median latency (ms).
    pub latency_p50_ms: f64,
    /// 95th-percentile latency (ms).
    pub latency_p95_ms: f64,
    /// 99th-percentile latency (ms).
    pub latency_p99_ms: f64,
    /// Completed `Poller::poll` calls.
    pub poller_polls: u64,
    /// Slots examined across all poller scans (the hot-path work the
    /// ready-list change removes).
    pub poller_slots_scanned: u64,
    /// Ready events the poller delivered.
    pub poller_ready_events: u64,
    /// Watch events generated by the cluster.
    pub watch_events: u64,
    /// Watch channel deliveries performed (the work coalescing
    /// amortizes across events).
    pub watch_deliveries: u64,
    /// Admitted requests whose input payload was already resident in the
    /// target node's abstracted payload cache (no wire transfer needed).
    pub cache_hits: u64,
    /// Admitted requests that had to move their payload (and populated
    /// the node's cache for later hits).
    pub cache_misses: u64,
    /// Payload-cache hit ratio over admitted requests (0 when none).
    pub cache_hit_ratio: f64,
    /// Wire bytes the payload cache elided across the day.
    pub cache_bytes_saved: u64,
    /// Watch events the harness consumed.
    pub watch_seen: u64,
    /// Largest single-tick watch drain (the delayed-watch burst).
    pub max_watch_drain: u64,
    /// Metric series registered.
    pub metrics_series: u64,
    /// Metrics-registry shards.
    pub metrics_shards: u64,
    /// Series behind the most loaded registry shard's lock (the
    /// critical-section footprint sharding shrinks).
    pub metrics_max_shard: u64,
    /// Simulation events executed (arrivals + completions + ticks +
    /// gathers + faults).
    pub events_executed: u64,
    /// FNV-1a 64 digest over the full event trace: the byte-identical
    /// replay certificate.
    pub trace_digest: String,
    /// The full event trace when [`ScaleConfig::record_trace`] was set.
    #[serde(skip)]
    pub trace: Vec<String>,
}

/// A simulated FPGA device behind the registry: a board with an LRU warm
/// bitstream cache and the utilization the day last measured for it —
/// no manager event loop, no transport.
pub struct SimFpgaDevice {
    id: String,
    node: NodeSpec,
    // Ranked as `board` in the lock hierarchy: taken below the shard's
    // registry lock on the view path, with nothing else held otherwise.
    board: Mutex<SimBoard>,
}

#[derive(Default)]
struct SimBoard {
    configured: Option<String>,
    warm: VecDeque<String>,
    programs: u64,
    warm_hits: u64,
    utilization: f64,
}

impl SimFpgaDevice {
    /// A blank, idle board on `node`.
    pub fn new(id: impl Into<String>, node: NodeSpec) -> Arc<SimFpgaDevice> {
        Arc::new(SimFpgaDevice {
            id: id.into(),
            node,
            board: Mutex::new(SimBoard::default()),
        })
    }

    /// `(reprograms, warm-cache hits)` this board served.
    pub fn program_counts(&self) -> (u64, u64) {
        let board = self.board.lock();
        (board.programs, board.warm_hits)
    }

    /// Sets the busy fraction the next scrape reports.
    pub fn set_utilization(&self, utilization: f64) {
        self.board.lock().utilization = utilization;
    }
}

impl RegistryDevice for SimFpgaDevice {
    fn device_id(&self) -> &str {
        &self.id
    }

    fn node(&self) -> &NodeSpec {
        &self.node
    }

    fn board_state(&self) -> BoardState {
        let board = self.board.lock();
        BoardState {
            configured: board.configured.clone(),
            warm: board.warm.iter().cloned().collect(),
        }
    }

    fn program(&self, bitstream: &str) -> Result<(), String> {
        let mut board = self.board.lock();
        if board.configured.as_deref() == Some(bitstream) {
            return Ok(());
        }
        board.programs += 1;
        if let Some(pos) = board.warm.iter().position(|w| w == bitstream) {
            board.warm.remove(pos);
            board.warm_hits += 1;
        }
        if let Some(old) = board.configured.take() {
            board.warm.push_front(old);
            board.warm.truncate(WARM_SLOTS);
        }
        board.configured = Some(bitstream.to_string());
        Ok(())
    }

    fn scrape(&self) -> String {
        let utilization = self.board.lock().utilization;
        format!(
            "bf_fpga_utilization{{device=\"{}\"}} {utilization}\n",
            self.id
        )
    }
}

struct Session {
    waker: Waker,
    token: Token,
    /// Completions delivered but not yet consumed by the session.
    backlog: u32,
    /// Slow-consumer episode horizon; while `now < slow_until` the
    /// session drains one completion per tick.
    slow_until: VirtualTime,
}

struct ScaleWorld {
    cfg: ScaleConfig,
    cluster: Cluster,
    registry: ShardedRegistry,
    devices: Vec<Arc<SimFpgaDevice>>,
    metrics: MetricsRegistry,
    poller: Poller,
    sessions: Vec<Session>,
    token_session: HashMap<Token, usize>,
    /// The two delayed watch consumers; they release bindings.
    watches: Vec<WatchStream>,
    /// The gateway's endpoint view, synced after every control-plane
    /// call: function → its live instance and node.
    endpoints: WatchStream,
    /// `None` while a function has no live instance (homeless).
    fn_home: Vec<Option<(InstanceId, usize)>>,
    fn_labels: Vec<String>,
    node_labels: Vec<String>,
    alive: Vec<bool>,
    /// Per-node serial-server state.
    busy_until: Vec<VirtualTime>,
    in_system: Vec<u32>,
    /// Per-node service time completed since the last gather.
    busy: Vec<VirtualDuration>,
    /// Abstracted per-node payload cache: function indices whose input
    /// payload is resident, FIFO-bounded at [`NODE_CACHE_SLOTS`].
    node_cache: Vec<VecDeque<usize>>,
    /// Split randomness: one stream per subsystem.
    traffic: SimRng,
    service: SimRng,
    faults: SimRng,
    zipf: ZipfSampler,
    /// Measurement: the counters accumulate in the result itself.
    latencies: Samples,
    digest: Digest,
    res: ScaleResult,
    /// [`ScaleWorld::registry_counters`] of shards that left the
    /// registry, taking their own with them.
    banked: [u64; 5],
}

impl ScaleWorld {
    fn record(&mut self, t: VirtualTime, kind: &'static str, tag: u64, a: u64, b: u64) {
        self.digest.u64(t.as_nanos());
        self.digest.u64(tag);
        self.digest.u64(a);
        self.digest.u64(b);
        if self.cfg.record_trace {
            self.res
                .trace
                .push(format!("{} {kind} {a} {b}", t.as_nanos()));
        }
    }

    /// Function service-time tiers: 1.5–3.5 ms across the catalog.
    fn service_base(&self, f: usize) -> VirtualDuration {
        VirtualDuration::from_micros(1_500 + 500 * (f % 5) as u64)
    }

    fn session_of(&self, f: usize) -> usize {
        f % self.sessions.len()
    }

    /// Deterministic input-payload size for function `f`: what one
    /// request moves over the wire when the cache misses.
    fn payload_bytes(f: usize) -> u64 {
        4_096 + 1_024 * (f % 13) as u64
    }

    /// The abstracted per-node payload-cache lookup, run once per
    /// admitted request. Pure bookkeeping over already-drawn state — no
    /// RNG draws and no digest records — so the trace digest is
    /// invariant under this accounting.
    fn note_cache_lookup(&mut self, n: usize, f: usize) {
        let cache = &mut self.node_cache[n];
        if cache.contains(&f) {
            self.res.cache_hits += 1;
            self.res.cache_bytes_saved += Self::payload_bytes(f);
            return;
        }
        self.res.cache_misses += 1;
        if cache.len() >= NODE_CACHE_SLOTS {
            cache.pop_front();
        }
        cache.push_back(f);
    }

    /// Deploys function `f`'s instance; the admission hook places it.
    fn deploy(&mut self, f: usize) {
        let template = InstanceTemplate::new(self.fn_labels[f].clone());
        if self.cluster.create_instance(template).is_err() {
            self.res.refused += 1;
        }
    }

    /// Applies the endpoint watcher's events to the routing table —
    /// each created instance becomes its function's home, including the
    /// replacements the registry makes for displaced or failed-over
    /// tenants — and returns how many placements it saw.
    fn sync_endpoints(&mut self, now: VirtualTime) -> u64 {
        self.cluster.flush_watch();
        let mut placed = 0;
        while let Some(event) = self.endpoints.try_next() {
            let WatchEvent::Created(spec) = event else {
                continue;
            };
            let node = spec.node.as_ref().map(NodeId::as_str);
            let (Some(f), Some(n)) = (index(&spec.function), node.and_then(index)) else {
                continue;
            };
            self.fn_home[f] = Some((spec.id, n));
            placed += 1;
            self.record(now, "place", 10, f as u64, n as u64);
        }
        self.res.placed += placed;
        placed
    }

    /// Drains both watch streams (unless inside the stalled-watcher
    /// window) after asking the cluster to flush any coalesced-pending
    /// events, so the events a tick observes are independent of the
    /// coalescing window. Each deletion releases the pod's binding
    /// (idempotent, so both streams may release it).
    fn drain_watches(&mut self, now: VirtualTime) {
        let x = self.cfg.frac(now);
        if self.cfg.faults.watch_delay.is_some_and(|w| w.contains(x)) {
            return;
        }
        self.cluster.flush_watch();
        for w_idx in 0..self.watches.len() {
            let mut drained = 0u64;
            while let Some(event) = self.watches[w_idx].try_next() {
                drained += 1;
                // Fold the event kind into the digest so reordered or
                // dropped deliveries are caught, not just miscounts.
                let kind = match event {
                    WatchEvent::Created(_) => 1,
                    WatchEvent::Patched(_) => 2,
                    WatchEvent::Deleted(id) => {
                        self.registry.release_instance(&id.to_string());
                        3
                    }
                };
                self.digest.u64(kind);
            }
            if drained > 0 {
                self.res.watch_seen += drained;
                self.res.max_watch_drain = self.res.max_watch_drain.max(drained);
                self.record(now, "watch_drain", 6, w_idx as u64, drained);
            }
        }
    }

    /// Drains the poller with a zero timeout: every ready session
    /// consumes its backlog (one completion per tick when slow). Slow
    /// sessions with residual backlog are re-armed only after the loop,
    /// so one tick services each ready session exactly once.
    fn drain_poller(&mut self, now: VirtualTime) {
        let mut rearm: Vec<usize> = Vec::new();
        while let PollEvent::Ready(token) = self.poller.poll(Some(Duration::ZERO)) {
            self.res.poller_ready_events += 1;
            let Some(&s) = self.token_session.get(&token) else {
                // Unreachable by construction: every registered
                // waker has a session entry.
                continue;
            };
            let slow = now < self.sessions[s].slow_until;
            let consumed = if slow {
                let backlog = {
                    let sess = &mut self.sessions[s];
                    sess.backlog = sess.backlog.saturating_sub(1);
                    sess.backlog
                };
                if backlog > SLOW_BACKLOG_LIMIT {
                    self.force_disconnect(now, s);
                } else if backlog > 0 {
                    rearm.push(s);
                }
                1
            } else {
                let sess = &mut self.sessions[s];
                let n = sess.backlog;
                sess.backlog = 0;
                n
            };
            self.record(now, "ack", 7, s as u64, u64::from(consumed));
        }
        for s in rearm {
            self.sessions[s].waker.wake();
        }
    }

    /// The slow-consumer policy: tear the session down, drop its
    /// backlog, and reconnect with a fresh waker (exercising poller
    /// deregister/claim-slot reuse at scale).
    fn force_disconnect(&mut self, now: VirtualTime, s: usize) {
        self.res.force_disconnects += 1;
        let old = self.sessions[s].token;
        self.token_session.remove(&old);
        self.poller.deregister(old);
        let (token, waker) = self.poller.add_waker();
        self.token_session.insert(token, s);
        let sess = &mut self.sessions[s];
        sess.token = token;
        sess.waker = waker;
        sess.backlog = 0;
        sess.slow_until = VirtualTime::ZERO;
        self.record(now, "force_disconnect", 8, s as u64, 0);
    }

    /// One rebalance step (a shard joined or left) that moved `moves`
    /// devices.
    fn rebalance(&mut self, now: VirtualTime, moves: u64) {
        self.res.events_executed += 1;
        self.res.rebalance_moves += moves;
        let shards = self.registry.shard_count() as u64;
        self.record(now, "rebalance", 12, moves, shards);
    }

    /// The registry's placement outcomes (configured, warm, cold), lock
    /// acquisitions, and max lock span.
    fn registry_counters(&self) -> [u64; 5] {
        let o = self.registry.placement_outcomes();
        let locks = self.registry.contention();
        let acquisitions = locks.iter().map(|c| c.stats.acquisitions).sum();
        let max_span = locks.iter().map(|c| c.stats.max_span).max().unwrap_or(0);
        [o.configured, o.warm, o.cold, acquisitions, max_span]
    }

    /// Folds the registry's and the boards' counters into the result.
    fn finish(mut self) -> ScaleResult {
        let [configured, warm, cold, acquisitions, max_span] = self.registry_counters();
        let [b_configured, b_warm, b_cold, b_acquisitions, b_max_span] = self.banked;
        let poll_stats = self.poller.stats();
        let watch_stats = self.cluster.watch_stats();
        let r = &mut self.res;
        (r.configured, r.warm, r.cold) = (b_configured + configured, b_warm + warm, b_cold + cold);
        r.lock_acquisitions = b_acquisitions + acquisitions;
        r.max_lock_span = b_max_span.max(max_span);
        for device in &self.devices {
            let (programs, warm_hits) = device.program_counts();
            r.reconfigurations += programs;
            r.warm_reprograms += warm_hits;
        }
        r.latency_mean_ms = self.latencies.mean().unwrap_or(0.0);
        r.latency_p50_ms = self.latencies.quantile(0.50).unwrap_or(0.0);
        r.latency_p95_ms = self.latencies.quantile(0.95).unwrap_or(0.0);
        r.latency_p99_ms = self.latencies.quantile(0.99).unwrap_or(0.0);
        let admitted = r.cache_hits + r.cache_misses;
        if admitted > 0 {
            r.cache_hit_ratio = r.cache_hits as f64 / admitted as f64;
        }
        r.poller_polls = poll_stats.polls;
        r.poller_slots_scanned = poll_stats.slots_scanned;
        r.watch_events = watch_stats.events;
        r.watch_deliveries = watch_stats.deliveries;
        r.metrics_series = self.metrics.series_count() as u64;
        r.metrics_shards = self.metrics.shard_count() as u64;
        r.metrics_max_shard = self.metrics.max_shard_len() as u64;
        r.trace_digest = self.digest.hex();
        self.res
    }
}

/// The index in a one-letter-prefixed name: `f12` → 12, `n0042` → 42.
fn index(name: &str) -> Option<usize> {
    name.get(1..)?.parse().ok()
}

fn device_name(i: usize) -> String {
    format!("fpga-{i:04}")
}

fn synthetic_nodes(n: usize) -> Vec<NodeSpec> {
    (0..n)
        .map(|i| {
            NodeSpec::new(
                NodeId::new(format!("n{i:04}")),
                PcieLink::new(PcieGeneration::Gen3, 8),
                MemcpyModel::paper(),
                1.0,
                VirtualDuration::from_millis_f64(3.5),
            )
        })
        .collect()
}

/// Runs one production day and returns its deterministic summary.
///
/// # Panics
///
/// Panics if the config is degenerate (zero nodes, functions or
/// sessions) — a harness bug, never a runtime condition.
pub fn run_scale(cfg: &ScaleConfig) -> ScaleResult {
    simulate(cfg).finish()
}

/// Runs the day and hands back its final world.
fn simulate(cfg: &ScaleConfig) -> ScaleWorld {
    assert!(
        cfg.nodes > 0 && cfg.functions > 0 && cfg.sessions > 0,
        "degenerate scale config"
    );
    let root = SimRng::seed_from_u64(cfg.seed);
    let mut faults = root.split(STREAM_FAULTS);
    let mut digest = Digest::new();

    // The paper's Accelerators Registry over one board per node, wired
    // into the cluster the way `attach_placement` does it — minus its
    // wall-clock watcher thread: the day's own watch drain releases
    // bindings, in virtual time.
    let nodes = synthetic_nodes(cfg.nodes);
    let node_labels: Vec<String> = nodes.iter().map(|n| n.id().to_string()).collect();
    let registry = ShardedRegistry::new(AllocationPolicy::paper(), cfg.shards);
    let devices: Vec<Arc<SimFpgaDevice>> = nodes
        .iter()
        .enumerate()
        .map(|(i, node)| SimFpgaDevice::new(device_name(i), node.clone()))
        .collect();
    for device in &devices {
        registry.register_device_handle(device.clone());
    }
    let cluster = Cluster::new(nodes).with_watch_coalescing(WATCH_COALESCE);
    registry.bind_cluster(&cluster);
    cluster.set_admission_hook(admission_hook(Arc::new(registry.clone())));

    // Functions: each needs one accelerator, Zipf-popular.
    let mut accel = root.split(STREAM_ACCEL);
    let popularity = ZipfSampler::new(ACCELERATORS.len(), ZIPF_EXPONENT);
    let fn_labels: Vec<String> = (0..cfg.functions).map(|f| format!("f{f}")).collect();
    for name in &fn_labels {
        let a = popularity.sample(&mut accel);
        registry.register_function(name, DeviceQuery::for_accelerator(ACCELERATORS[a]));
        digest.u64(a as u64);
    }

    // Watch consumers connect before the deploy storm, so delivering
    // the storm itself is part of what the harness measures.
    let watches = vec![cluster.watch(), cluster.watch()];
    let endpoints = cluster.watch();

    let mut poller = Poller::new();
    let mut token_session = HashMap::new();
    let sessions: Vec<Session> = (0..cfg.sessions)
        .map(|s| {
            let (token, waker) = poller.add_waker();
            token_session.insert(token, s);
            Session {
                waker,
                token,
                backlog: 0,
                slow_until: VirtualTime::ZERO,
            }
        })
        .collect();

    // Fault schedule: every time and duration pre-drawn from the fault
    // stream in a fixed order; fire-time victim picks continue the same
    // stream inside the world.
    let mut engine: Engine<ScaleWorld> = Engine::new();
    for _ in 0..cfg.faults.node_losses {
        let at = cfg.at(faults.uniform(0.05, 0.95));
        engine.schedule_at(at, node_loss);
    }
    for _ in 0..cfg.faults.slow_consumers {
        let at = cfg.at(faults.uniform(0.05, 0.90));
        let dur =
            VirtualDuration::from_secs_f64(faults.uniform(0.02, 0.08) * cfg.day.as_secs_f64());
        engine.schedule_at(at, move |w: &mut ScaleWorld, e: &mut Engine<ScaleWorld>| {
            slow_episode(w, e, dur);
        });
    }
    for _ in 0..cfg.faults.restarts {
        let at = cfg.at(faults.uniform(0.05, 0.95));
        engine.schedule_at(at, restart);
    }
    if let Some(window) = cfg.faults.rebalance {
        let leave = cfg.at(window.start_frac + window.len_frac);
        engine.schedule_at(cfg.at(window.start_frac), move |w, e| {
            let (joined, moves) = w.registry.add_shard();
            w.rebalance(e.now(), moves);
            e.schedule_at(leave, move |w, e| {
                // The leaving shard takes its counters with it: bank them.
                let before = w.registry_counters();
                let moves = w.registry.remove_shard(&joined).unwrap_or(0);
                let after = w.registry_counters();
                for (banked, (b, a)) in w.banked[..4].iter_mut().zip(before.iter().zip(&after)) {
                    *banked += b - a;
                }
                w.banked[4] = w.banked[4].max(before[4]);
                w.rebalance(e.now(), moves);
            });
        });
    }

    // Reactor ticks across the day plus a drain tail for late
    // completions and their acks; gathers across the day.
    let tail = VirtualDuration::from_secs(2);
    let end = cfg.day_end() + tail;
    let mut t = VirtualTime::ZERO;
    while t <= end {
        engine.schedule_at(t, |w: &mut ScaleWorld, e: &mut Engine<ScaleWorld>| {
            w.res.events_executed += 1;
            let now = e.now();
            w.drain_watches(now);
            w.drain_poller(now);
        });
        t += REACTOR_TICK;
    }
    let mut t = VirtualTime::ZERO + GATHER_PERIOD;
    while t < cfg.day_end() {
        engine.schedule_at(t, gather);
        t += GATHER_PERIOD;
    }

    // First arrival opens the open-loop chain.
    engine.schedule_at(VirtualTime::ZERO, next_arrival);

    let mut world = ScaleWorld {
        cluster,
        registry,
        devices,
        metrics: MetricsRegistry::new(),
        poller,
        sessions,
        token_session,
        watches,
        endpoints,
        fn_home: vec![None; cfg.functions],
        fn_labels,
        node_labels,
        alive: vec![true; cfg.nodes],
        busy_until: vec![VirtualTime::ZERO; cfg.nodes],
        in_system: vec![0; cfg.nodes],
        busy: vec![VirtualDuration::ZERO; cfg.nodes],
        node_cache: vec![VecDeque::new(); cfg.nodes],
        traffic: root.split(STREAM_TRAFFIC),
        service: root.split(STREAM_SERVICE),
        faults,
        zipf: ZipfSampler::new(cfg.functions, ZIPF_EXPONENT),
        latencies: Samples::new(),
        digest,
        res: ScaleResult {
            shards: cfg.shards as u64,
            nodes: cfg.nodes as u64,
            functions: cfg.functions as u64,
            sessions: cfg.sessions as u64,
            ..ScaleResult::default()
        },
        banked: [0; 5],
        cfg: cfg.clone(),
    };

    // Deploy storm: one instance per function, each placed by
    // Algorithm 1 through the admission hook.
    for f in 0..cfg.functions {
        world.deploy(f);
    }
    world.sync_endpoints(VirtualTime::ZERO);

    engine.run(&mut world);

    // Final flush: anything completed after the last tick.
    world.drain_watches(end);
    world.drain_poller(end);
    world
}

fn next_arrival(world: &mut ScaleWorld, engine: &mut Engine<ScaleWorld>) {
    let now = engine.now();
    if now >= world.cfg.day_end() {
        return;
    }
    world.res.events_executed += 1;
    // Traffic stream only: function pick, then inter-arrival gap. The
    // fault and service streams never interleave here, so the arrival
    // trace is invariant under fault-plan changes.
    let f = world.zipf.sample(&mut world.traffic);
    let rate = world.cfg.rate_at(now);
    let gap = VirtualDuration::from_secs_f64(world.traffic.exponential(rate));
    engine.schedule_at(now + gap, next_arrival);

    world.res.arrivals += 1;
    let home = world.fn_home[f].map(|(_, n)| n);
    world.record(
        now,
        "arrival",
        1,
        f as u64,
        home.map_or(u64::MAX, |n| n as u64),
    );
    // A full node queue sheds; so does a function with no live instance.
    let Some(n) = home.filter(|&n| world.in_system[n] < QUEUE_CAPACITY) else {
        world.res.shed += 1;
        let node = home.map_or("none", |n| world.node_labels[n].as_str());
        world
            .metrics
            .counter("bf_scale_shed_total", &[("node", node)])
            .inc();
        world.record(
            now,
            "shed",
            2,
            f as u64,
            home.map_or(u64::MAX, |n| n as u64),
        );
        return;
    };
    world.in_system[n] += 1;
    world.note_cache_lookup(n, f);
    // Service stream: one jitter draw per admitted request.
    let svc = world.service_base(f).mul_f64(world.service.jitter(0.3));
    let start = now.max(world.busy_until[n]);
    let done = start + svc;
    world.busy_until[n] = done;
    engine.schedule_at(done, move |w, e| complete(w, e, f, n, now, svc));
}

fn complete(
    world: &mut ScaleWorld,
    engine: &mut Engine<ScaleWorld>,
    f: usize,
    n: usize,
    issued: VirtualTime,
    svc: VirtualDuration,
) {
    world.res.events_executed += 1;
    let now = engine.now();
    world.in_system[n] = world.in_system[n].saturating_sub(1);
    if !world.alive[n] {
        // The node died while this request was in flight: a typed
        // failure, never a silent loss.
        world.res.failed_inflight += 1;
        world.record(now, "failed_inflight", 4, f as u64, n as u64);
        return;
    }
    world.res.processed += 1;
    world.busy[n] += svc;
    let latency_ms = (now - issued).as_millis_f64();
    world.latencies.record(latency_ms);
    // Real registry lookups on the completion hot path: one counter per
    // function (10k series at full scale), a histogram, and one gauge
    // per node — the workload that motivates registry sharding.
    world
        .metrics
        .counter(
            "bf_scale_completions_total",
            &[("function", world.fn_labels[f].as_str())],
        )
        .inc();
    world
        .metrics
        .histogram("bf_scale_latency_ms", &[])
        .observe(latency_ms);
    world
        .metrics
        .gauge(
            "bf_scale_inflight",
            &[("node", world.node_labels[n].as_str())],
        )
        .set(f64::from(world.in_system[n]));
    let s = world.session_of(f);
    world.sessions[s].backlog += 1;
    world.sessions[s].waker.wake();
    world.record(now, "complete", 3, f as u64, n as u64);
}

/// The Metrics Gatherer's period: each board reports its busy fraction
/// since the last gather, the registry scrapes them all, and homeless
/// functions are re-deployed against the fresh ranking.
fn gather(world: &mut ScaleWorld, engine: &mut Engine<ScaleWorld>) {
    world.res.events_executed += 1;
    for (device, busy) in world.devices.iter().zip(&mut world.busy) {
        let busy = std::mem::take(busy).as_secs_f64();
        device.set_utilization((busy / GATHER_PERIOD.as_secs_f64()).min(1.0));
    }
    world.registry.gather_metrics();
    for f in 0..world.fn_home.len() {
        if world.fn_home[f].is_none() {
            world.deploy(f);
        }
    }
    world.sync_endpoints(engine.now());
}

fn node_loss(world: &mut ScaleWorld, engine: &mut Engine<ScaleWorld>) {
    world.res.events_executed += 1;
    let now = engine.now();
    let alive_nodes: Vec<usize> = (0..world.alive.len()).filter(|&i| world.alive[i]).collect();
    // Never kill the last two nodes: placement must stay possible.
    if alive_nodes.len() <= 2 {
        return;
    }
    // Losses prefer nodes with in-flight work (the interesting case: a
    // busy node dying strands typed in-flight failures, not just empty
    // slots), falling back to any alive node when the cluster is idle.
    let busy: Vec<usize> = alive_nodes
        .iter()
        .copied()
        .filter(|&i| world.in_system[i] > 0)
        .collect();
    let pool = if busy.is_empty() { &alive_nodes } else { &busy };
    let victim = pool[world.faults.index(pool.len())];
    world.alive[victim] = false;
    // The node's manager dies with it: its payload cache is gone, so a
    // replacement serving the same functions starts cold.
    world.node_cache[victim].clear();
    world.res.node_losses += 1;
    world.record(now, "node_loss", 5, victim as u64, 0);
    // The registry deregisters the board and re-places its tenants
    // through the cluster, create-before-delete. An error is a refused
    // re-placement, which stops the failover; the tenants it left on
    // the dead node lose their pods with it and wait, homeless, for the
    // next gather to re-deploy them.
    let failover = world.registry.handle_device_failure(&device_name(victim));
    world.res.rerouted += world.sync_endpoints(now);
    if failover.is_err() {
        for f in 0..world.fn_home.len() {
            if let Some((id, n)) = world.fn_home[f] {
                if n == victim && world.cluster.delete_instance(id).is_ok() {
                    world.fn_home[f] = None;
                    world.res.refused += 1;
                }
            }
        }
    }
}

fn slow_episode(world: &mut ScaleWorld, engine: &mut Engine<ScaleWorld>, dur: VirtualDuration) {
    world.res.events_executed += 1;
    let now = engine.now();
    let s = world.faults.index(world.sessions.len());
    world.sessions[s].slow_until = now + dur;
    world.record(now, "slow_episode", 9, s as u64, dur.as_nanos());
}

/// Release-and-replace churn: a random function's instance is replaced
/// create-before-delete. The replacement's placement runs now; the old
/// binding is released when the watchers see the deletion.
fn restart(world: &mut ScaleWorld, engine: &mut Engine<ScaleWorld>) {
    world.res.events_executed += 1;
    let now = engine.now();
    let f = world.faults.index(world.fn_home.len());
    world.record(now, "restart", 11, f as u64, 0);
    if let Some((id, _)) = world.fn_home[f] {
        if world.cluster.replace_instance(id).is_err() {
            world.res.refused += 1;
        }
        world.sync_endpoints(now);
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};

    use super::*;

    fn tiny(seed: u64) -> ScaleConfig {
        ScaleConfig {
            nodes: 20,
            functions: 200,
            sessions: 200,
            day: VirtualDuration::from_secs(4),
            base_rps: 80.0,
            peak_factor: 5.0,
            faults: FaultPlan {
                node_losses: 4,
                slow_consumers: 10,
                restarts: 40,
                ..FaultPlan::production()
            },
            ..ScaleConfig::smoke(seed)
        }
    }

    fn sharded(shards: usize, seed: u64) -> ScaleConfig {
        ScaleConfig {
            shards,
            ..tiny(seed)
        }
    }

    #[test]
    fn conservation_holds_with_faults() {
        let r = run_scale(&tiny(7));
        assert_eq!(
            r.arrivals,
            r.processed + r.shed + r.failed_inflight,
            "{r:?}"
        );
        assert!(r.arrivals > 100, "{r:?}");
    }

    #[test]
    fn same_seed_same_result() {
        let a = run_scale(&tiny(11));
        let b = run_scale(&tiny(11));
        assert_eq!(a.trace_digest, b.trace_digest);
        assert_eq!(a, b);
    }

    #[test]
    fn same_seed_same_digest() {
        let a = run_scale(&sharded(4, 7));
        let b = run_scale(&sharded(4, 7));
        assert_eq!(a, b);
        assert_eq!(a.trace_digest, b.trace_digest);
    }

    #[test]
    fn different_seeds_diverge() {
        let a = run_scale(&tiny(1));
        let b = run_scale(&tiny(2));
        assert_ne!(a.trace_digest, b.trace_digest);
    }

    #[test]
    fn storm_places_every_function() {
        for shards in [1, 4] {
            let r = run_scale(&sharded(shards, 7));
            assert!(
                r.placed >= r.functions,
                "storm should place all functions: {r:?}"
            );
            assert_eq!(r.configured + r.warm + r.cold, r.placed, "{r:?}");
        }
    }

    #[test]
    fn sharding_cuts_the_max_lock_span() {
        let one = run_scale(&sharded(1, 7));
        let four = run_scale(&sharded(4, 7));
        assert!(
            four.max_lock_span * 2 <= one.max_lock_span,
            "4 shards should at least halve the span: {} vs {}",
            four.max_lock_span,
            one.max_lock_span
        );
    }

    #[test]
    fn registry_and_cluster_agree_at_day_end() {
        // Node losses, restarts and a rebalance all ran, with releases
        // riding the (sometimes stalled) watch drain.
        let world = simulate(&sharded(4, 7));
        let r = &world.res;
        assert!(
            r.node_losses > 0 && r.rerouted > 0 && r.rebalance_moves > 0,
            "{r:?}"
        );
        let live: BTreeSet<String> = world
            .cluster
            .instances()
            .iter()
            .map(|i| i.id.to_string())
            .collect();
        let registered: BTreeSet<String> = world.registry.device_ids().into_iter().collect();
        let mut bindings: BTreeMap<String, usize> = BTreeMap::new();
        for view in world.registry.device_views() {
            for instance in view.connected.keys() {
                *bindings.entry(instance.clone()).or_default() += 1;
            }
        }
        for instance in &live {
            assert_eq!(
                bindings.get(instance),
                Some(&1),
                "{instance}: not bound once"
            );
            let device = world.registry.binding(instance);
            assert!(
                device.as_ref().is_some_and(|d| registered.contains(d)),
                "{instance} bound to {device:?}, which is not registered"
            );
        }
        for instance in bindings.keys() {
            assert!(
                live.contains(instance),
                "{instance}: binding outlived its pod"
            );
        }
    }

    #[test]
    fn node_loss_reroutes_instances() {
        let r = run_scale(&tiny(5));
        assert!(r.node_losses > 0, "{r:?}");
        assert!(r.rerouted > 0, "{r:?}");
    }

    #[test]
    fn watch_streams_see_the_deploy_storm() {
        let r = run_scale(&tiny(3));
        // Two watchers, ≥ one Created per function each.
        assert!(r.watch_seen >= 2 * r.functions, "{r:?}");
        assert!(r.watch_events >= r.functions, "{r:?}");
    }

    #[test]
    fn no_faults_means_no_failures() {
        let r = run_scale(&ScaleConfig {
            faults: FaultPlan::none(),
            ..tiny(9)
        });
        assert_eq!(r.failed_inflight, 0);
        assert_eq!(r.node_losses, 0);
        assert_eq!(r.force_disconnects, 0);
        assert_eq!(r.arrivals, r.processed + r.shed);
    }

    #[test]
    fn fault_plan_does_not_perturb_the_arrival_count() {
        // The traffic stream is split from the fault stream, so the
        // arrival process (count included) is invariant under fault-plan
        // changes that do not alter the offered rate.
        let with_faults = run_scale(&ScaleConfig {
            faults: FaultPlan {
                shed_storm: None,
                ..FaultPlan::production()
            },
            ..tiny(21)
        });
        let without = run_scale(&ScaleConfig {
            faults: FaultPlan::none(),
            ..tiny(21)
        });
        assert_eq!(with_faults.arrivals, without.arrivals);
    }

    #[test]
    fn cache_counters_cover_every_admitted_request() {
        let r = run_scale(&tiny(23));
        // Every admitted request (processed or lost in flight) did
        // exactly one cache lookup; sheds never reach the cache.
        assert_eq!(
            r.cache_hits + r.cache_misses,
            r.processed + r.failed_inflight,
            "{r:?}"
        );
        // Zipf(1.2) reuse over a 200-function catalog keeps the head
        // resident: the day must be hit-dominated.
        assert!(r.cache_hits > r.cache_misses, "{r:?}");
        assert!(r.cache_hit_ratio > 0.5 && r.cache_hit_ratio <= 1.0, "{r:?}");
        assert!(r.cache_bytes_saved > 0, "{r:?}");
    }

    #[test]
    fn cache_accounting_never_perturbs_the_trace() {
        // The cache counters are derived bookkeeping: disabling faults
        // changes which nodes lose their caches, but the traffic trace
        // (and hence the digest) only depends on the split RNG streams.
        // Two identical runs agree on counters and digest alike.
        let a = run_scale(&tiny(29));
        let b = run_scale(&tiny(29));
        assert_eq!(a.cache_hits, b.cache_hits);
        assert_eq!(a.cache_bytes_saved, b.cache_bytes_saved);
        assert_eq!(a.trace_digest, b.trace_digest);
    }

    #[test]
    fn metrics_series_scale_with_catalog() {
        let r = run_scale(&tiny(13));
        // Function counters + node gauges/shed counters + histogram.
        assert!(r.metrics_series > r.functions / 2, "{r:?}");
        assert!(r.metrics_max_shard <= r.metrics_series);
    }

    #[test]
    fn diurnal_peak_outweighs_trough() {
        // Compare arrivals in the first sixth (trough) against the
        // midday sixth via the recorded trace.
        let r = run_scale(&ScaleConfig {
            record_trace: true,
            ..tiny(17)
        });
        let day_ns = VirtualDuration::from_secs(4).as_nanos();
        let (mut trough, mut peak) = (0u64, 0u64);
        for line in &r.trace {
            let mut parts = line.split(' ');
            let (Some(t), Some(kind)) = (parts.next(), parts.next()) else {
                continue;
            };
            if kind != "arrival" {
                continue;
            }
            let t: u64 = t.parse().expect("trace timestamp");
            if t < day_ns / 6 {
                trough += 1;
            } else if t >= day_ns * 5 / 12 && t < day_ns * 7 / 12 {
                peak += 1;
            }
        }
        assert!(peak > 2 * trough, "peak {peak} vs trough {trough}");
    }

    #[test]
    fn zipf_head_dominates_completions() {
        let r = run_scale(&ScaleConfig {
            record_trace: true,
            ..tiny(19)
        });
        let mut counts = vec![0u64; 200];
        for line in &r.trace {
            let parts: Vec<&str> = line.split(' ').collect();
            if parts.get(1) == Some(&"arrival") {
                let f: usize = parts[2].parse().expect("fn index");
                counts[f] += 1;
            }
        }
        let head: u64 = counts[..20].iter().sum();
        let total: u64 = counts.iter().sum();
        assert!(head * 2 > total, "head {head} of {total}");
    }
}
