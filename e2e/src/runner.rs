//! One repetition: deploy a workload in this process, warm it up, measure a
//! window, verify everything it returned. The parent runs each repetition
//! in a fresh child process, so thread placement and `HashMap` seeds are
//! drawn anew every time and no repetition inherits another's heap.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bf_devmgr::DeviceManager;
use bf_fpga::Payload;
use bf_ocl::EventStatus;
use parking_lot::Mutex;
use serde_json::{json, Value};

use crate::clock::{self, Stamp};
use crate::gen;
use crate::placement::{self, PlacementRig};
use crate::rig;
use crate::script::{self, Expect, Inputs, OclRung, Rung, Script, Step};
use crate::stats;
use crate::trace::{self, Span, Tracer};
use crate::workloads::{self, Direct, Kind};

/// Times the deployment is set up in one repetition. `setup_s` is the
/// median (the first two or three are cold and slower); the last
/// deployment is the one measured.
pub const SETUPS: usize = 10;

/// Segments a window is cut into. Each runs on freshly spawned generator
/// threads: where the scheduler puts a thread moves throughput by ±10 % on
/// the 2-vCPU reference box and stays put for the thread's life, so a
/// window on one thread measures one placement. Segments sample several.
pub const SEGMENTS: u32 = 8;

/// Requests in the placement workload's fixed pass.
const PLACEMENT_FIXED_REQUESTS: u64 = 1000;

/// What the parent asks one child to do.
#[derive(Debug, Clone)]
pub struct RepConfig {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Unmeasured lead-in.
    pub warmup: Duration,
    /// Measured window.
    pub window: Duration,
    /// Record spans.
    pub traced: bool,
    /// Where a traced repetition writes its Chrome trace.
    pub trace_out: Option<std::path::PathBuf>,
}

/// What one repetition measured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Rep {
    /// Deployment build → … → first verified request, seconds: the
    /// median of [`SETUPS`] set-ups.
    pub setup_s: f64,
    /// Requests issued (or due, in an open loop) in the window.
    pub attempted: u64,
    /// Typed errors + refused + mis-verified, in the window.
    pub failed: u64,
    /// Output checks performed, set-up requests included.
    pub checks: u64,
    /// Verified requests completed per second of window.
    pub throughput_rps: f64,
    /// Latency quantiles over the window's successful requests, µs.
    pub latency_p50_us: f64,
    /// See `latency_p50_us`.
    pub latency_p95_us: f64,
    /// See `latency_p50_us`.
    pub latency_p99_us: f64,
    /// Latency samples behind the quantiles.
    pub samples: u64,
    /// Process CPU over the window per successful request, ms.
    pub cpu_ms_per_req: f64,
    /// `VmHWM` after set-up and the fixed pass, MB. Read there and not at
    /// the end, so that it covers the same work on every build: the
    /// window runs more requests on a faster one.
    pub peak_rss_mb: f64,
    /// Least over most requests completed by a tenant.
    pub tenant_fairness: f64,
    /// How late the open-loop generator issued, 95th percentile, µs.
    pub sched_lag_p95_us: f64,
    /// Median duration per span name, µs (traced only).
    pub spans: BTreeMap<String, f64>,
    /// Per-request counts from the fixed pass; exact for a seed.
    pub counters: BTreeMap<String, f64>,
}

impl Rep {
    /// The line a child prints for its parent.
    pub fn to_json(&self) -> Value {
        json!({
            "setup_s": self.setup_s,
            "attempted": self.attempted,
            "failed": self.failed,
            "checks": self.checks,
            "throughput_rps": self.throughput_rps,
            "latency_p50_us": self.latency_p50_us,
            "latency_p95_us": self.latency_p95_us,
            "latency_p99_us": self.latency_p99_us,
            "samples": self.samples,
            "cpu_ms_per_req": self.cpu_ms_per_req,
            "peak_rss_mb": self.peak_rss_mb,
            "tenant_fairness": self.tenant_fairness,
            "sched_lag_p95_us": self.sched_lag_p95_us,
            "spans": self.spans,
            "counters": self.counters,
        })
    }

    /// Parses a child's line; `None` if a field is missing.
    pub fn from_json(v: &Value) -> Option<Rep> {
        let f = |key: &str| v.get(key)?.as_f64();
        let u = |key: &str| v.get(key)?.as_u64();
        let map = |key: &str| -> Option<BTreeMap<String, f64>> {
            v.get(key)?
                .as_object()?
                .iter()
                .map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect()
        };
        Some(Rep {
            setup_s: f("setup_s")?,
            attempted: u("attempted")?,
            failed: u("failed")?,
            checks: u("checks")?,
            throughput_rps: f("throughput_rps")?,
            latency_p50_us: f("latency_p50_us")?,
            latency_p95_us: f("latency_p95_us")?,
            latency_p99_us: f("latency_p99_us")?,
            samples: u("samples")?,
            cpu_ms_per_req: f("cpu_ms_per_req")?,
            peak_rss_mb: f("peak_rss_mb")?,
            tenant_fairness: f("tenant_fairness")?,
            sched_lag_p95_us: f("sched_lag_p95_us")?,
            spans: map("spans")?,
            counters: map("counters")?,
        })
    }
}

/// One generator thread's client: a deployed workload it can ask for the
/// next request, and the spans of the requests it ran.
struct Lane<'a> {
    kind: LaneKind<'a>,
    steps: Vec<Step>,
    next: u64,
    tracer: Tracer,
}

enum LaneKind<'a> {
    Direct {
        rung: OclRung,
        script: Script,
        inputs: &'a Inputs,
    },
    Placement(Box<PlacementRig>),
}

impl Lane<'_> {
    /// Runs the next request to completion. `Ok` carries its checks.
    fn request(&mut self) -> Result<u64, String> {
        let request = self.next;
        self.next += 1;
        match &mut self.kind {
            LaneKind::Direct {
                rung,
                script,
                inputs,
            } => {
                self.steps.clear();
                script(request, 0, &mut self.steps);
                self.tracer
                    .request(request, |t| rung.run(&self.steps, inputs, t))
            }
            LaneKind::Placement(rig) => self.tracer.request(request, |t| rig.request(t)),
        }
    }

    /// Payload writes in the last request and the bytes they offered.
    fn last_writes(&self) -> (u64, u64) {
        let LaneKind::Direct { inputs, .. } = &self.kind else {
            return (0, 0);
        };
        self.steps
            .iter()
            .fold((0, 0), |(n, bytes), step| match step {
                Step::Write { data, .. } => (n + 1, bytes + inputs.payloads[*data as usize].len()),
                _ => (n, bytes),
            })
    }
}

/// What the window loops hand back.
#[derive(Default)]
struct Window {
    latencies_us: Vec<f64>,
    attempted: u64,
    failed: u64,
    checks: u64,
    per_tenant: Vec<u64>,
    window_s: f64,
    cpu_ms: f64,
    lag_us: Vec<f64>,
    first_error: Option<String>,
}

/// Runs every lane on a fresh thread until `length` has passed, each lane
/// sending its next request when the previous one has completed. With
/// `into`, requests are timed and counted there.
fn segment(lanes: &mut [Lane<'_>], length: Duration, into: Option<&mut Window>) {
    let start = clock::now();
    let end = start.plus(length);
    let timed = into.is_some();
    let outcomes: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .iter_mut()
            .map(|lane| {
                scope.spawn(move || {
                    let mut w = Window::default();
                    while !end.passed() {
                        let start = clock::now();
                        match lane.request() {
                            Ok(checks) if timed => {
                                w.latencies_us.push(clock::micros(start.elapsed()));
                                w.checks += checks;
                            }
                            Ok(_) => {}
                            Err(e) => {
                                w.failed += 1;
                                w.first_error.get_or_insert(e);
                            }
                        }
                    }
                    w
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let Some(total) = into else {
        return;
    };
    total.window_s += start.elapsed().as_secs_f64();
    total.per_tenant.resize(lanes.len(), 0);
    for (tenant, outcome) in outcomes.into_iter().enumerate() {
        match outcome {
            Ok(w) => {
                total.per_tenant[tenant] += w.latencies_us.len() as u64;
                total.attempted += w.latencies_us.len() as u64 + w.failed;
                total.failed += w.failed;
                total.checks += w.checks;
                total.latencies_us.extend(w.latencies_us);
                if total.first_error.is_none() {
                    total.first_error = w.first_error;
                }
            }
            Err(_) => {
                total.failed += 1;
                total
                    .first_error
                    .get_or_insert_with(|| "a generator thread panicked".to_string());
            }
        }
    }
}

/// Closed loop: `warmup` unmeasured, then `window` measured in
/// [`SEGMENTS`] segments.
fn closed_loop(lanes: &mut [Lane<'_>], cfg: &RepConfig) -> Window {
    segment(lanes, cfg.warmup, None);
    for lane in lanes.iter_mut() {
        lane.tracer.clear();
    }
    let mut w = Window::default();
    let cpu_start = clock::process_cpu_ms().unwrap_or(0.0);
    for _ in 0..SEGMENTS {
        segment(lanes, cfg.window / SEGMENTS, Some(&mut w));
    }
    w.cpu_ms = clock::process_cpu_ms().unwrap_or(0.0) - cpu_start;
    w
}

/// One completed (or failed) open-loop request, as stamped by the
/// completion callback on the reactor thread.
struct Done {
    latency_us: f64,
    measured: bool,
    ok: bool,
    keep: Option<(Expect, Payload)>,
}

struct OpenShared {
    free: Vec<AtomicBool>,
    done: Mutex<Vec<Done>>,
}

/// How long past the end of the window the open loop keeps waiting for a
/// free slot before it refuses what is still due.
const OPEN_GRACE: Duration = Duration::from_secs(2);
/// How long the open loop sleeps between looks for a free slot.
const SLOT_POLL: Duration = Duration::from_micros(50);

/// Open loop: requests are issued on a seeded schedule whether or not
/// earlier ones have completed, up to `d.slots` in flight; latency counts
/// from the due time.
fn open_loop(lane: &mut Lane<'_>, d: &Direct, rate: f64, cfg: &RepConfig) -> Window {
    let LaneKind::Direct {
        rung,
        script,
        inputs,
    } = &mut lane.kind
    else {
        return Window::default();
    };
    let inputs: &Inputs = inputs;
    let tracer = &mut lane.tracer;
    let total = cfg.warmup + cfg.window;
    let schedule = gen::arrival_offsets(cfg.seed, rate, total.as_secs_f64());
    let shared = Arc::new(OpenShared {
        free: (0..d.slots).map(|_| AtomicBool::new(true)).collect(),
        done: Mutex::new(Vec::with_capacity(schedule.len())),
    });
    let mut w = Window::default();
    let mut steps = Vec::with_capacity(8);
    let mut cpu_start = None;
    let start = clock::now();
    for offset in schedule {
        let offset = Duration::from_secs_f64(offset);
        if offset >= total {
            break;
        }
        let due = start.plus(offset);
        clock::sleep_until(due);
        let measured = offset >= cfg.warmup;
        if measured {
            if cpu_start.is_none() {
                cpu_start = clock::process_cpu_ms();
                tracer.clear();
            }
            w.attempted += 1;
            w.lag_us.push(clock::micros(clock::now().since(due)));
        }
        let request = lane.next;
        lane.next += 1;
        // With every slot in flight the arrival waits for one, and the wait
        // is in its latency (and in every later arrival's, through the
        // lag). A stall of the host therefore shows as tail latency, not
        // as a failed run; only a backlog that outlives the window by
        // `OPEN_GRACE` is refused.
        let give_up = start.plus(total + OPEN_GRACE);
        let slot = loop {
            let free = shared
                .free
                .iter()
                .position(|f| f.swap(false, Ordering::Acquire));
            if free.is_some() || give_up.passed() {
                break free;
            }
            std::thread::sleep(SLOT_POLL);
        };
        let Some(slot) = slot else {
            w.first_error
                .get_or_insert_with(|| "refused: no free slot".to_string());
            continue;
        };
        steps.clear();
        script(request, slot, &mut steps);
        match tracer.request(request, |t| rung.issue(&steps, inputs, t)) {
            Ok((_, pending)) => {
                for (event, expect) in pending {
                    let shared = shared.clone();
                    let carrier = event.clone();
                    event.on_complete(move |status| {
                        let ok = status == EventStatus::Complete;
                        let keep = (ok && expect != Expect::Nothing)
                            .then(|| carrier.take_payload().ok())
                            .flatten()
                            .map(|payload| (expect, payload));
                        shared.done.lock().push(Done {
                            latency_us: clock::micros(clock::now().since(due)),
                            measured,
                            ok,
                            keep,
                        });
                        shared.free[slot].store(true, Ordering::Release);
                    });
                }
            }
            Err(e) => {
                shared.free[slot].store(true, Ordering::Release);
                w.first_error.get_or_insert(e);
            }
        }
    }
    // Drain: everything issued completes (or the drain gives up, and what
    // is still out counts as failed through the missing completions).
    let give_up = clock::now().plus(Duration::from_secs(10));
    while !give_up.passed() && shared.free.iter().any(|f| !f.load(Ordering::Acquire)) {
        std::thread::sleep(Duration::from_millis(1));
    }
    w.cpu_ms = clock::process_cpu_ms().unwrap_or(0.0) - cpu_start.unwrap_or(0.0);
    w.window_s = cfg.window.as_secs_f64();
    for done in shared.done.lock().drain(..) {
        let verified = match &done.keep {
            Some((expect, payload)) => {
                script::verify(payload.as_data().unwrap_or_default(), *expect, inputs)
            }
            None => Ok(0),
        };
        match verified {
            Ok(checks) if done.ok => {
                w.checks += checks;
                if done.measured {
                    w.latencies_us.push(done.latency_us);
                }
            }
            Ok(_) => {
                w.first_error
                    .get_or_insert_with(|| "an operation completed in error".to_string());
            }
            Err(e) => {
                w.first_error.get_or_insert(e);
            }
        }
    }
    // Whatever was due in the window and did not end as a verified
    // completion failed: refused, errored, mis-verified or never back.
    w.failed = w.attempted - w.latencies_us.len() as u64;
    if w.failed > 0 {
        w.first_error
            .get_or_insert_with(|| "requests never completed".to_string());
    }
    w.per_tenant.push(w.latencies_us.len() as u64);
    w
}

/// Counter readings taken around the fixed pass.
struct Snapshot {
    copies: bf_metrics::CopyCounters,
    ops: f64,
    tasks: f64,
    busy_ms: f64,
    cache: bf_cache::CacheStats,
}

fn snapshot(manager: &DeviceManager) -> Snapshot {
    let (ops, tasks) = rig::manager_counts(manager);
    Snapshot {
        copies: bf_metrics::copy_counters(),
        ops,
        tasks,
        busy_ms: rig::virtual_busy_ms(manager),
        cache: manager.cache_stats().unwrap_or_default(),
    }
}

/// The fixed pass: `requests` requests one at a time, tenants in turn,
/// from the state set-up left. The public counters' movement divided by
/// the count is sequential and seeded, so it repeats exactly; and the
/// memory high-water mark read after it covers the same work on any build.
fn direct_fixed_pass(
    lanes: &mut [Lane<'_>],
    manager: &DeviceManager,
    requests: u64,
) -> Result<BTreeMap<String, f64>, String> {
    let before = snapshot(manager);
    let (mut writes, mut offered) = (0u64, 0u64);
    for i in 0..requests {
        let lane = &mut lanes[i as usize % lanes.len()];
        lane.request()?;
        let (n, bytes) = lane.last_writes();
        writes += n;
        offered += bytes;
    }
    let after = snapshot(manager);
    let n = requests as f64;
    let copies = after.copies.since(before.copies);
    let mut out = BTreeMap::new();
    let mut put = |name: &str, value: f64| {
        out.insert(name.to_string(), value);
    };
    put("metrics.copied_bytes_per_req", copies.bytes as f64 / n);
    put("metrics.copy_ops_per_req", copies.ops as f64 / n);
    put("devmgr.ops_per_req", (after.ops - before.ops) / n);
    put("devmgr.tasks_per_req", (after.tasks - before.tasks) / n);
    put(
        "fpga.virtual_busy_ms_per_req",
        (after.busy_ms - before.busy_ms) / n,
    );
    if manager.cache_stats().is_some() {
        let moved =
            |f: fn(&bf_cache::CacheStats) -> u64| (f(&after.cache) - f(&before.cache)) as f64;
        put("cache.hit_ratio", moved(|c| c.hits) / writes.max(1) as f64);
        put(
            "cache.evictions_per_kreq",
            moved(|c| c.evictions) * 1000.0 / n,
        );
        put(
            "cache.nack_resends_per_kreq",
            moved(|c| c.misses) * 1000.0 / n,
        );
        put(
            "cache.wire_bytes_per_req",
            (offered as f64 - moved(|c| c.bytes_saved)) / n,
        );
    }
    Ok(out)
}

fn placement_fixed_pass(lane: &mut Lane<'_>) -> Result<BTreeMap<String, f64>, String> {
    let LaneKind::Placement(rig) = &lane.kind else {
        return Ok(BTreeMap::new());
    };
    let service = rig.service().clone();
    let locks = || {
        let reports = service.contention();
        let acquisitions: u64 = reports.iter().map(|r| r.stats.acquisitions).sum();
        let max_span = reports.iter().map(|r| r.stats.max_span).max().unwrap_or(0);
        (acquisitions, max_span)
    };
    let (acquired_before, _) = locks();
    let outcomes_before = service.placement_outcomes();
    for _ in 0..PLACEMENT_FIXED_REQUESTS {
        lane.request()?;
    }
    let (acquired, max_span) = locks();
    let outcomes = service.placement_outcomes();
    let placed = (outcomes.total() - outcomes_before.total()).max(1) as f64;
    Ok(BTreeMap::from([
        (
            "registry.lock_acquisitions_per_place".to_string(),
            (acquired - acquired_before) as f64 / placed,
        ),
        ("registry.max_lock_span".to_string(), max_span as f64),
        (
            "registry.configured_hit_ratio".to_string(),
            (outcomes.configured - outcomes_before.configured) as f64 / placed,
        ),
    ]))
}

/// Manager start → connect → context/program/buffers → first verified
/// request, for every tenant.
fn deploy_direct<'a>(
    d: &Direct,
    cfg: &RepConfig,
    inputs: &'a Inputs,
    origin: Stamp,
) -> Result<(DeviceManager, Vec<Lane<'a>>, u64), String> {
    let manager = rig::manager(d.cache_bytes);
    let mut lanes = Vec::with_capacity(d.tenants);
    let mut checks = 0;
    for tenant in 0..d.tenants {
        let devices = d
            .conns
            .iter()
            .map(|c| rig::connect(&manager, &format!("tenant-{tenant}"), c.path))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        let rung = OclRung::deploy(&devices, &d.conns).map_err(|e| e.to_string())?;
        let mut lane = Lane {
            kind: LaneKind::Direct {
                rung,
                script: (d.script)(cfg.seed, tenant),
                inputs,
            },
            steps: Vec::with_capacity(64),
            next: 0,
            tracer: Tracer::new(cfg.traced, origin),
        };
        let verified = lane.request()?;
        if verified == 0 {
            return Err("the set-up request verified nothing".to_string());
        }
        checks += verified;
        lanes.push(lane);
    }
    Ok((manager, lanes, checks))
}

/// Device and function registration → first verified request.
fn deploy_placement(cfg: &RepConfig, origin: Stamp) -> Result<(Lane<'static>, u64), String> {
    let mut lane = Lane {
        kind: LaneKind::Placement(Box::new(PlacementRig::deploy(cfg.seed, placement::SHARDS))),
        steps: Vec::new(),
        next: 0,
        tracer: Tracer::new(cfg.traced, origin),
    };
    let checks = lane.request()?;
    Ok((lane, checks))
}

/// Sets up [`SETUPS`] times, keeping the last deployment; returns it with
/// the median set-up time in seconds.
fn set_up<T>(mut deploy: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for _ in 0..SETUPS {
        let start = clock::now();
        // The previous deployment goes away as the next one replaces it,
        // outside the timed part.
        let deployed = deploy()?;
        times.push(start.elapsed().as_secs_f64());
        kept = Some(deployed);
    }
    let median = stats::median(&times).unwrap_or(0.0);
    kept.map(|k| (k, median))
        .ok_or_else(|| "no set-up ran".to_string())
}

/// Runs one repetition in this process.
pub fn run(cfg: &RepConfig) -> Result<Rep, String> {
    let kind = workloads::kind(&cfg.workload)
        .ok_or_else(|| format!("unknown workload {:?}", cfg.workload))?;
    let origin = clock::now();
    let mut rep = Rep::default();
    match kind {
        Kind::Direct(d) => {
            // Input generation is not part of set-up.
            let inputs = (d.inputs)(cfg.seed);
            let ((manager, mut lanes, checks), setup_s) =
                set_up(|| deploy_direct(&d, cfg, &inputs, origin))?;
            rep.setup_s = setup_s;
            rep.checks = checks;
            rep.counters = direct_fixed_pass(&mut lanes, &manager, d.counter_requests)?;
            rep.peak_rss_mb = clock::peak_rss_mb().unwrap_or(0.0);
            let window = match d.open_rate {
                Some(rate) => open_loop(&mut lanes[0], &d, rate, cfg),
                None => closed_loop(&mut lanes, cfg),
            };
            let spans: Vec<&[Span]> = lanes.iter().map(|l| l.tracer.spans()).collect();
            finish(rep, window, &spans, cfg)
        }
        Kind::Placement => {
            let ((mut lane, checks), setup_s) = set_up(|| deploy_placement(cfg, origin))?;
            rep.setup_s = setup_s;
            rep.checks = checks;
            rep.counters = placement_fixed_pass(&mut lane)?;
            rep.peak_rss_mb = clock::peak_rss_mb().unwrap_or(0.0);
            let window = closed_loop(std::slice::from_mut(&mut lane), cfg);
            finish(rep, window, &[lane.tracer.spans()], cfg)
        }
    }
}

fn finish(mut rep: Rep, mut w: Window, spans: &[&[Span]], cfg: &RepConfig) -> Result<Rep, String> {
    if let Some(e) = &w.first_error {
        eprintln!("{}: first failure: {e}", cfg.workload);
    }
    let completed = w.latencies_us.len() as u64;
    if completed == 0 {
        return Err(format!(
            "no request completed in the window ({} attempted, {} failed)",
            w.attempted, w.failed
        ));
    }
    stats::sort(&mut w.latencies_us);
    stats::sort(&mut w.lag_us);
    let q = |v: &[f64], q| stats::quantile(v, q).unwrap_or(0.0);
    rep.attempted = w.attempted;
    rep.failed = w.failed;
    rep.checks += w.checks;
    rep.samples = completed;
    rep.throughput_rps = completed as f64 / w.window_s;
    rep.latency_p50_us = q(&w.latencies_us, 0.50);
    rep.latency_p95_us = q(&w.latencies_us, 0.95);
    rep.latency_p99_us = q(&w.latencies_us, 0.99);
    rep.cpu_ms_per_req = w.cpu_ms / completed as f64;
    rep.sched_lag_p95_us = q(&w.lag_us, 0.95);
    let per_tenant: Vec<f64> = w.per_tenant.iter().map(|&n| n as f64).collect();
    rep.tenant_fairness = match stats::min_max(&per_tenant) {
        Some((least, most)) if most > 0.0 => least / most,
        _ => 0.0,
    };
    if cfg.traced {
        rep.spans = trace::medians_by_name(spans);
        if let Some(path) = &cfg.trace_out {
            let counters: Vec<(f64, &str, f64)> = rep
                .counters
                .iter()
                .map(|(name, value)| (0.0, name.as_str(), *value))
                .collect();
            let doc = trace::chrome_trace(spans, &counters);
            let text = serde_json::to_string(&doc).map_err(|e| e.to_string())?;
            std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_repetition_survives_the_pipe_to_its_parent() {
        let rep = Rep {
            setup_s: 0.0042,
            attempted: 1234,
            failed: 1,
            checks: 99,
            throughput_rps: 4321.5,
            latency_p50_us: 210.25,
            latency_p95_us: 333.0,
            latency_p99_us: 1000.0,
            samples: 1233,
            cpu_ms_per_req: 0.31,
            peak_rss_mb: 5.5,
            tenant_fairness: 1.0,
            sched_lag_p95_us: 0.0,
            spans: BTreeMap::from([("ocl.launch".to_string(), 2.5)]),
            counters: BTreeMap::from([("devmgr.ops_per_req".to_string(), 32.0)]),
        };
        let line = serde_json::to_string(&rep.to_json()).expect("render");
        let back = serde_json::from_str(&line).expect("parse");
        assert_eq!(Rep::from_json(&back), Some(rep));
        assert_eq!(Rep::from_json(&json!({ "setup_s": 1.0 })), None);
    }

    #[test]
    fn set_up_keeps_the_last_deployment_and_stops_at_the_first_error() {
        let mut built = 0;
        let (kept, _) = set_up(|| {
            built += 1;
            Ok(built)
        })
        .expect("deploys");
        assert_eq!((kept, built), (SETUPS, SETUPS));
        let mut tried = 0;
        let failed: Result<((), f64), String> = set_up(|| {
            tried += 1;
            Err("no board".to_string())
        });
        assert_eq!((failed, tried), (Err("no board".to_string()), 1));
    }
}
