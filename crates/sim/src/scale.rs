//! The "production day" scale scenario: open-loop diurnal traffic with
//! Zipf function popularity over thousands of functions and 1000+
//! simulated nodes, driven entirely by simkit virtual time.
//!
//! Unlike the Table I–IV scenarios (three nodes, closed-loop `hey`
//! clients), this harness exercises the *control plane* at the scale the
//! ROADMAP north-star requires: a real [`bf_cluster::Cluster`] with an
//! admission hook placing one instance per function, real
//! [`bf_metrics::MetricsRegistry`] series per function and node, and a
//! real [`bf_rpc::Poller`] with one waker per client session. The data
//! plane is abstracted to per-node serial servers with bounded queues so
//! runs with hundreds of thousands of requests finish in seconds.
//!
//! A seeded fault-injection layer rides on top: node loss (instances
//! migrate via `replace_instance`, in-flight work fails), slow consumers
//! (session backlog growth up to forced disconnect), shed storms (an
//! offered-rate multiplier window) and delayed watch-event consumption.
//! Every random stream is split from the scenario seed with
//! [`SimRng::split`], so the fault injector draws from its own streams
//! and cannot perturb the traffic trace — and every run replays
//! byte-identically from its seed, which [`ScaleResult::trace_digest`]
//! certifies.

use std::collections::{HashMap, VecDeque};
use std::f64::consts::PI;
use std::sync::Arc;
use std::time::Duration;

use bf_cluster::{Cluster, InstanceId, InstanceTemplate, WatchEvent, WatchStream};
use bf_metrics::MetricsRegistry;
use bf_model::{
    MemcpyModel, NodeId, NodeSpec, PcieGeneration, PcieLink, VirtualDuration, VirtualTime,
};
use bf_rpc::{PollEvent, Poller, Token, Waker};
use bf_simkit::{Engine, Samples, SimRng, ZipfSampler};
use parking_lot::Mutex;
use serde::Serialize;

use crate::digest::Digest;

/// Stream-split keys: one sub-stream per subsystem, so adding draws to
/// one cannot perturb another (see the `simkit::rng` proptests).
const STREAM_TRAFFIC: u64 = 1;
const STREAM_SERVICE: u64 = 2;
const STREAM_FAULTS: u64 = 3;

/// A session whose backlog exceeds this is forcibly disconnected (the
/// Device Manager's slow-consumer policy, abstracted).
const SLOW_BACKLOG_LIMIT: u32 = 32;

/// Abstracted per-node payload-cache capacity, in distinct function
/// payloads. Mirrors the Device Manager's content-addressed cache: the
/// Zipf head stays resident, the tail churns through the slots.
const NODE_CACHE_SLOTS: usize = 256;

/// An offered-rate multiplier window (a flash crowd) that drives node
/// queues past capacity and exercises shedding under overload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShedStorm {
    /// Window start, as a fraction of the day.
    pub start_frac: f64,
    /// Window length, as a fraction of the day.
    pub len_frac: f64,
    /// Offered-rate multiplier inside the window.
    pub factor: f64,
}

/// A window during which the harness stops consuming watch events (a
/// stalled watcher), so delivery backs up and drains in one burst.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WatchDelay {
    /// Window start, as a fraction of the day.
    pub start_frac: f64,
    /// Window length, as a fraction of the day.
    pub len_frac: f64,
}

/// The seeded fault-injection plan. All schedule and victim draws come
/// from the fault stream, independent of the traffic stream.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Node-death events spread across the day. Each victim's instances
    /// migrate via `replace_instance` (create-before-delete) and its
    /// in-flight requests fail as typed losses.
    pub node_losses: u32,
    /// Slow-consumer episodes: the afflicted session drains one
    /// completion per reactor tick instead of all, until its backlog
    /// forces a disconnect or the episode ends.
    pub slow_consumers: u32,
    /// Optional flash-crowd window.
    pub shed_storm: Option<ShedStorm>,
    /// Optional stalled-watcher window.
    pub watch_delay: Option<WatchDelay>,
}

impl FaultPlan {
    /// No injected faults.
    pub fn none() -> FaultPlan {
        FaultPlan {
            node_losses: 0,
            slow_consumers: 0,
            shed_storm: None,
            watch_delay: None,
        }
    }

    /// The full fault battery, scaled for the production-day sweep.
    pub fn production() -> FaultPlan {
        FaultPlan {
            node_losses: 20,
            slow_consumers: 50,
            shed_storm: Some(ShedStorm {
                start_frac: 0.45,
                len_frac: 0.10,
                factor: 3.0,
            }),
            watch_delay: Some(WatchDelay {
                start_frac: 0.70,
                len_frac: 0.05,
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
    /// Cluster size (one serial accelerator server per node).
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
    /// Zipf popularity exponent over the function catalog.
    pub zipf_exponent: f64,
    /// Per-node in-system cap; arrivals beyond it are shed.
    pub queue_capacity: usize,
    /// Reactor cadence: watch streams and the poller are drained at
    /// this virtual period.
    pub reactor_tick: VirtualDuration,
    /// Watch-delivery coalescing window applied to the cluster; 1 keeps
    /// per-event delivery semantics.
    pub watch_coalesce: usize,
    /// Record the full event trace (for the replay regression test);
    /// the digest is always computed.
    pub record_trace: bool,
    /// Injected faults.
    pub faults: FaultPlan,
}

impl ScaleConfig {
    /// The CI smoke point around `seed`: 100 nodes / 1k functions / 1k
    /// sessions over a 12 s compressed day, full fault battery.
    pub fn smoke(seed: u64) -> ScaleConfig {
        ScaleConfig {
            seed,
            nodes: 100,
            functions: 1_000,
            sessions: 1_000,
            day: VirtualDuration::from_secs(12),
            base_rps: 150.0,
            peak_factor: 5.0,
            zipf_exponent: 1.2,
            queue_capacity: 64,
            reactor_tick: VirtualDuration::from_millis(10),
            // Delivery coalescing amortizes per-watcher sends across the
            // deploy-storm and migration bursts; the harness flushes every
            // reactor tick, so consumers still see events within one tick.
            watch_coalesce: 64,
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

    /// Builder: cluster size.
    pub fn with_nodes(mut self, nodes: usize) -> Self {
        self.nodes = nodes;
        self
    }

    /// Builder: function catalog size.
    pub fn with_functions(mut self, functions: usize) -> Self {
        self.functions = functions;
        self
    }

    /// Builder: session count.
    pub fn with_sessions(mut self, sessions: usize) -> Self {
        self.sessions = sessions;
        self
    }

    /// Builder: day length.
    pub fn with_day(mut self, day: VirtualDuration) -> Self {
        self.day = day;
        self
    }

    /// Builder: trough arrival rate.
    pub fn with_base_rps(mut self, base_rps: f64) -> Self {
        self.base_rps = base_rps;
        self
    }

    /// Builder: fault plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Builder: record the full event trace.
    pub fn with_trace(mut self) -> Self {
        self.record_trace = true;
        self
    }

    /// Aggregate offered rate at virtual time `t`: a diurnal sinusoid
    /// from `base_rps` at the trough to `base_rps * peak_factor` at
    /// midday, times any active storm multiplier.
    fn rate_at(&self, t: VirtualTime) -> f64 {
        let x = t.as_secs_f64() / self.day.as_secs_f64();
        let diurnal = 1.0 + (self.peak_factor - 1.0) * 0.5 * (1.0 - (2.0 * PI * x).cos());
        let storm = match &self.faults.shed_storm {
            Some(s) if x >= s.start_frac && x < s.start_frac + s.len_frac => s.factor,
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
#[derive(Debug, Clone, Serialize, PartialEq)]
pub struct ScaleResult {
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
    /// Requests shed at a full node queue.
    pub shed: u64,
    /// Requests lost in flight to a node death.
    pub failed_inflight: u64,
    /// Node-death events executed.
    pub node_losses: u64,
    /// Instances migrated off dead nodes.
    pub rerouted: u64,
    /// Sessions forcibly disconnected for slow consumption.
    pub force_disconnects: u64,
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
    /// Registry shards.
    pub metrics_shards: u64,
    /// Series behind the most loaded registry shard's lock (the
    /// critical-section footprint sharding shrinks).
    pub metrics_max_shard: u64,
    /// Simulation events executed (arrivals + completions + ticks +
    /// faults).
    pub events_executed: u64,
    /// FNV-1a 64 digest over the full event trace: the byte-identical
    /// replay certificate.
    pub trace_digest: String,
    /// The full event trace when [`ScaleConfig::record_trace`] was set.
    #[serde(skip)]
    pub trace: Vec<String>,
}

/// Shared placement state between the harness and the cluster's
/// admission hook. The hook runs without the cluster lock held (see
/// `Cluster::create_instance`), so locking this inside it is safe — and
/// the DES is single-threaded besides.
struct Placement {
    alive: Vec<bool>,
    round_robin: usize,
    /// Function index → current node index.
    fn_node: Vec<usize>,
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
    placement: Arc<Mutex<Placement>>,
    registry: MetricsRegistry,
    poller: Poller,
    sessions: Vec<Session>,
    token_session: HashMap<Token, usize>,
    watches: Vec<WatchStream>,
    fn_instance: Vec<InstanceId>,
    fn_epoch: Vec<u64>,
    fn_labels: Vec<String>,
    node_labels: Vec<String>,
    /// Per-node serial-server state.
    busy_until: Vec<VirtualTime>,
    in_system: Vec<u32>,
    /// Abstracted per-node payload cache: function indices whose input
    /// payload is resident, FIFO-bounded at [`NODE_CACHE_SLOTS`].
    node_cache: Vec<VecDeque<usize>>,
    /// Split randomness: one stream per subsystem.
    traffic: SimRng,
    service: SimRng,
    faults: SimRng,
    zipf: ZipfSampler,
    /// Measurement.
    latencies: Samples,
    digest: Digest,
    trace: Vec<String>,
    arrivals: u64,
    processed: u64,
    shed: u64,
    failed_inflight: u64,
    node_losses: u64,
    rerouted: u64,
    force_disconnects: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_bytes_saved: u64,
    poller_ready_events: u64,
    watch_seen: u64,
    max_watch_drain: u64,
    events_executed: u64,
}

impl ScaleWorld {
    fn record(&mut self, t: VirtualTime, kind: &'static str, tag: u64, a: u64, b: u64) {
        self.digest.u64(t.as_nanos());
        self.digest.u64(tag);
        self.digest.u64(a);
        self.digest.u64(b);
        if self.cfg.record_trace {
            self.trace.push(format!("{} {kind} {a} {b}", t.as_nanos()));
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
            self.cache_hits += 1;
            self.cache_bytes_saved += Self::payload_bytes(f);
            return;
        }
        self.cache_misses += 1;
        if cache.len() >= NODE_CACHE_SLOTS {
            cache.pop_front();
        }
        cache.push_back(f);
    }

    /// Drains both watch streams (unless inside the stalled-watcher
    /// window) after asking the cluster to flush any coalesced-pending
    /// events, so the events a tick observes are independent of the
    /// coalescing window.
    fn drain_watches(&mut self, now: VirtualTime) {
        if let Some(d) = &self.cfg.faults.watch_delay {
            let x = now.as_secs_f64() / self.cfg.day.as_secs_f64();
            if x >= d.start_frac && x < d.start_frac + d.len_frac {
                return;
            }
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
                    WatchEvent::Deleted(_) => 3,
                };
                self.digest.u64(kind);
            }
            if drained > 0 {
                self.watch_seen += drained;
                self.max_watch_drain = self.max_watch_drain.max(drained);
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
        loop {
            match self.poller.poll(Some(Duration::ZERO)) {
                PollEvent::Ready(token) => {
                    self.poller_ready_events += 1;
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
                PollEvent::TimedOut => break,
            }
        }
        for s in rearm {
            self.sessions[s].waker.wake();
        }
    }

    /// The slow-consumer policy: tear the session down, drop its
    /// backlog, and reconnect with a fresh waker (exercising poller
    /// deregister/claim-slot reuse at scale).
    fn force_disconnect(&mut self, now: VirtualTime, s: usize) {
        self.force_disconnects += 1;
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
}

fn node_name(i: usize) -> String {
    format!("n{i:04}")
}

fn synthetic_nodes(n: usize) -> Vec<NodeSpec> {
    (0..n)
        .map(|i| {
            NodeSpec::new(
                NodeId::new(node_name(i)),
                PcieLink::new(PcieGeneration::Gen3, 8),
                MemcpyModel::paper(),
                1.0,
                VirtualDuration::from_millis_f64(3.5),
            )
        })
        .collect()
}

/// Installs the admission hook: forced placement on the next alive node
/// round-robin, with the device-manager env injected the way the real
/// registry hook does it.
fn install_admission(cluster: &Cluster, placement: &Arc<Mutex<Placement>>, node_ids: &[NodeId]) {
    let placement = placement.clone();
    let node_ids: Vec<NodeId> = node_ids.to_vec();
    cluster.set_admission_hook(Arc::new(move |spec| {
        let f: usize = spec
            .function
            .strip_prefix('f')
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("unparseable function name {:?}", spec.function))?;
        let mut p = placement.lock();
        let n = p.alive.len();
        let mut placed = None;
        for step in 0..n {
            let cand = (p.round_robin + step) % n;
            if p.alive[cand] {
                placed = Some(cand);
                p.round_robin = cand + 1;
                break;
            }
        }
        let idx = placed.ok_or_else(|| "no alive node to place on".to_string())?;
        p.fn_node[f] = idx;
        drop(p);
        spec.node = Some(node_ids[idx].clone());
        spec.env.insert(
            "DEVICE_MANAGER_ADDRESS".to_string(),
            node_ids[idx].to_string(),
        );
        Ok(())
    }));
}

/// Runs one production day and returns its deterministic summary.
///
/// # Panics
///
/// Panics if the config is degenerate (zero nodes, functions or
/// sessions) or the initial deployment fails — both are harness bugs,
/// never runtime conditions.
pub fn run_scale(cfg: &ScaleConfig) -> ScaleResult {
    assert!(
        cfg.nodes > 0 && cfg.functions > 0 && cfg.sessions > 0,
        "degenerate scale config"
    );
    let root = SimRng::seed_from_u64(cfg.seed);
    let traffic = root.split(STREAM_TRAFFIC);
    let service = root.split(STREAM_SERVICE);
    let mut faults = root.split(STREAM_FAULTS);

    let nodes = synthetic_nodes(cfg.nodes);
    let node_ids: Vec<NodeId> = nodes.iter().map(|n| n.id().clone()).collect();
    let node_labels: Vec<String> = node_ids.iter().map(|n| n.to_string()).collect();
    let cluster = Cluster::new(nodes).with_watch_coalescing(cfg.watch_coalesce);
    let placement = Arc::new(Mutex::new(Placement {
        alive: vec![true; cfg.nodes],
        round_robin: 0,
        fn_node: vec![0; cfg.functions],
    }));
    install_admission(&cluster, &placement, &node_ids);

    // Watch consumers connect before the deploy storm, so delivering
    // the storm itself is part of what the harness measures.
    let watches = vec![cluster.watch(), cluster.watch()];

    // Deploy storm: one instance per function, placed by the hook.
    let mut fn_instance = Vec::with_capacity(cfg.functions);
    let mut fn_labels = Vec::with_capacity(cfg.functions);
    for f in 0..cfg.functions {
        let name = format!("f{f}");
        let spec = cluster
            .create_instance(InstanceTemplate::new(name.clone()))
            // bf-lint: allow(panic): deployment against an all-alive
            // cluster cannot be denied; failure is a harness bug.
            .unwrap_or_else(|e| panic!("deploy {name}: {e}"));
        fn_instance.push(spec.id);
        fn_labels.push(name);
    }

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
        let at = VirtualTime::from_secs_f64(faults.uniform(0.05, 0.95) * cfg.day.as_secs_f64());
        engine.schedule_at(at, move |w: &mut ScaleWorld, e: &mut Engine<ScaleWorld>| {
            node_loss(w, e);
        });
    }
    for _ in 0..cfg.faults.slow_consumers {
        let at = VirtualTime::from_secs_f64(faults.uniform(0.05, 0.90) * cfg.day.as_secs_f64());
        let dur =
            VirtualDuration::from_secs_f64(faults.uniform(0.02, 0.08) * cfg.day.as_secs_f64());
        engine.schedule_at(at, move |w: &mut ScaleWorld, e: &mut Engine<ScaleWorld>| {
            slow_episode(w, e, dur);
        });
    }

    // Reactor ticks across the day plus a drain tail for late
    // completions and their acks.
    let tail = VirtualDuration::from_secs(2);
    let end = cfg.day_end() + tail;
    let mut t = VirtualTime::ZERO;
    while t <= end {
        engine.schedule_at(t, |w: &mut ScaleWorld, e: &mut Engine<ScaleWorld>| {
            w.events_executed += 1;
            let now = e.now();
            w.drain_watches(now);
            w.drain_poller(now);
        });
        t += cfg.reactor_tick;
    }

    // First arrival opens the open-loop chain.
    engine.schedule_at(VirtualTime::ZERO, |w, e| next_arrival(w, e));

    let mut world = ScaleWorld {
        cluster,
        placement,
        registry: MetricsRegistry::new(),
        poller,
        sessions,
        token_session,
        watches,
        fn_instance,
        fn_epoch: vec![0; cfg.functions],
        fn_labels,
        node_labels,
        busy_until: vec![VirtualTime::ZERO; cfg.nodes],
        in_system: vec![0; cfg.nodes],
        node_cache: vec![VecDeque::new(); cfg.nodes],
        traffic,
        service,
        faults,
        zipf: ZipfSampler::new(cfg.functions, cfg.zipf_exponent),
        latencies: Samples::new(),
        digest: Digest::new(),
        trace: Vec::new(),
        arrivals: 0,
        processed: 0,
        shed: 0,
        failed_inflight: 0,
        node_losses: 0,
        rerouted: 0,
        force_disconnects: 0,
        cache_hits: 0,
        cache_misses: 0,
        cache_bytes_saved: 0,
        poller_ready_events: 0,
        watch_seen: 0,
        max_watch_drain: 0,
        events_executed: 0,
        cfg: cfg.clone(),
    };

    engine.run(&mut world);

    // Final flush: anything completed after the last tick.
    world.drain_watches(end);
    world.drain_poller(end);

    let poll_stats = world.poller.stats();
    let watch_stats = world.cluster.watch_stats();
    ScaleResult {
        nodes: cfg.nodes as u64,
        functions: cfg.functions as u64,
        sessions: cfg.sessions as u64,
        arrivals: world.arrivals,
        processed: world.processed,
        shed: world.shed,
        failed_inflight: world.failed_inflight,
        node_losses: world.node_losses,
        rerouted: world.rerouted,
        force_disconnects: world.force_disconnects,
        latency_mean_ms: world.latencies.mean().unwrap_or(0.0),
        latency_p50_ms: world.latencies.quantile(0.50).unwrap_or(0.0),
        latency_p95_ms: world.latencies.quantile(0.95).unwrap_or(0.0),
        latency_p99_ms: world.latencies.quantile(0.99).unwrap_or(0.0),
        cache_hits: world.cache_hits,
        cache_misses: world.cache_misses,
        cache_hit_ratio: {
            let total = world.cache_hits + world.cache_misses;
            if total == 0 {
                0.0
            } else {
                world.cache_hits as f64 / total as f64
            }
        },
        cache_bytes_saved: world.cache_bytes_saved,
        poller_polls: poll_stats.polls,
        poller_slots_scanned: poll_stats.slots_scanned,
        poller_ready_events: world.poller_ready_events,
        watch_events: watch_stats.events,
        watch_deliveries: watch_stats.deliveries,
        watch_seen: world.watch_seen,
        max_watch_drain: world.max_watch_drain,
        metrics_series: world.registry.series_count() as u64,
        metrics_shards: world.registry.shard_count() as u64,
        metrics_max_shard: world.registry.max_shard_len() as u64,
        events_executed: world.events_executed,
        trace_digest: world.digest.hex(),
        trace: world.trace,
    }
}

fn next_arrival(world: &mut ScaleWorld, engine: &mut Engine<ScaleWorld>) {
    let now = engine.now();
    if now >= world.cfg.day_end() {
        return;
    }
    world.events_executed += 1;
    // Traffic stream only: function pick, then inter-arrival gap. The
    // fault and service streams never interleave here, so the arrival
    // trace is invariant under fault-plan changes.
    let f = world.zipf.sample(&mut world.traffic);
    let rate = world.cfg.rate_at(now);
    let gap = VirtualDuration::from_secs_f64(world.traffic.exponential(rate));
    engine.schedule_at(now + gap, |w, e| next_arrival(w, e));

    world.arrivals += 1;
    let n = world.placement.lock().fn_node[f];
    world.record(now, "arrival", 1, f as u64, n as u64);
    if world.in_system[n] as usize >= world.cfg.queue_capacity {
        world.shed += 1;
        world
            .registry
            .counter(
                "bf_scale_shed_total",
                &[("node", world.node_labels[n].as_str())],
            )
            .inc();
        world.record(now, "shed", 2, f as u64, n as u64);
        return;
    }
    world.in_system[n] += 1;
    world.note_cache_lookup(n, f);
    // Service stream: one jitter draw per admitted request.
    let svc = world.service_base(f).mul_f64(world.service.jitter(0.3));
    let start = now.max(world.busy_until[n]);
    let done = start + svc;
    world.busy_until[n] = done;
    let epoch = world.fn_epoch[f];
    let issued = now;
    engine.schedule_at(done, move |w, e| complete(w, e, f, n, epoch, issued));
}

fn complete(
    world: &mut ScaleWorld,
    engine: &mut Engine<ScaleWorld>,
    f: usize,
    n: usize,
    epoch: u64,
    issued: VirtualTime,
) {
    world.events_executed += 1;
    let now = engine.now();
    world.in_system[n] = world.in_system[n].saturating_sub(1);
    if world.fn_epoch[f] != epoch {
        // The node died while this request was in flight: a typed
        // failure, never a silent loss.
        world.failed_inflight += 1;
        world.record(now, "failed_inflight", 4, f as u64, n as u64);
        return;
    }
    world.processed += 1;
    let latency_ms = (now - issued).as_millis_f64();
    world.latencies.record(latency_ms);
    // Real registry lookups on the completion hot path: one counter per
    // function (10k series at full scale), a histogram, and one gauge
    // per node — the workload that motivates registry sharding.
    world
        .registry
        .counter(
            "bf_scale_completions_total",
            &[("function", world.fn_labels[f].as_str())],
        )
        .inc();
    world
        .registry
        .histogram("bf_scale_latency_ms", &[])
        .observe(latency_ms);
    world
        .registry
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

fn node_loss(world: &mut ScaleWorld, engine: &mut Engine<ScaleWorld>) {
    world.events_executed += 1;
    let now = engine.now();
    let alive_nodes: Vec<usize> = {
        let p = world.placement.lock();
        (0..p.alive.len()).filter(|&i| p.alive[i]).collect()
    };
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
    world.placement.lock().alive[victim] = false;
    // The node's manager dies with it: its payload cache is gone, so a
    // replacement serving the same functions starts cold.
    world.node_cache[victim].clear();
    world.node_losses += 1;
    world.record(now, "node_loss", 5, victim as u64, 0);
    // Every instance on the victim migrates (create-before-delete);
    // in-flight work on the victim is invalidated via the epoch.
    let moved: Vec<usize> = {
        let p = world.placement.lock();
        (0..p.fn_node.len())
            .filter(|&f| p.fn_node[f] == victim)
            .collect()
    };
    for f in moved {
        world.fn_epoch[f] += 1;
        let replacement = world
            .cluster
            .replace_instance(world.fn_instance[f])
            // bf-lint: allow(panic): replacement against a cluster with
            // alive nodes cannot fail; failure is a harness bug.
            .unwrap_or_else(|e| panic!("replace f{f}: {e}"));
        world.fn_instance[f] = replacement.id;
        world.rerouted += 1;
    }
}

fn slow_episode(world: &mut ScaleWorld, engine: &mut Engine<ScaleWorld>, dur: VirtualDuration) {
    world.events_executed += 1;
    let now = engine.now();
    let s = world.faults.index(world.sessions.len());
    world.sessions[s].slow_until = now + dur;
    world.record(now, "slow_episode", 9, s as u64, dur.as_nanos());
}

#[cfg(test)]
mod tests {
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
                ..FaultPlan::production()
            },
            ..ScaleConfig::smoke(seed)
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
    fn different_seeds_diverge() {
        let a = run_scale(&tiny(1));
        let b = run_scale(&tiny(2));
        assert_ne!(a.trace_digest, b.trace_digest);
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
        let cfg = tiny(9).with_faults(FaultPlan::none());
        let r = run_scale(&cfg);
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
        let with_faults = run_scale(&tiny(21).with_faults(FaultPlan {
            shed_storm: None,
            ..FaultPlan::production()
        }));
        let without = run_scale(&tiny(21).with_faults(FaultPlan::none()));
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
        let r = run_scale(&tiny(17).with_trace());
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
        let r = run_scale(&tiny(19).with_trace());
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
