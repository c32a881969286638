#![forbid(unsafe_code)]

//! # bf-bench — the experiment harness
//!
//! One function per paper figure/table, each returning structured rows
//! that the `src/bin/*` binaries print in the paper's layout and dump as
//! JSON artifacts under `target/experiments/`.
//!
//! | Paper artifact | Harness | Binary |
//! |---|---|---|
//! | Fig. 4(a) R/W RTT sweep | [`fig4a_rows`] | `fig4a` |
//! | Fig. 4(b) Sobel latency sweep | [`fig4b_rows`] | `fig4b` |
//! | Fig. 4(c) MM latency sweep | [`fig4c_rows`] | `fig4c` |
//! | Table I load matrix | [`table1_rows`] | `table1` |
//! | Table II Sobel per-function | [`table2_results`] | `table2` |
//! | Table III MM aggregates | [`table3_results`] | `table3` |
//! | Table IV AlexNet aggregates | [`table4_results`] | `table4` |
//! | Allocation-policy ablation | [`ablation_alloc`] | `ablation_alloc` |
//! | Data-path ablation | [`ablation_transport`] | `ablation_transport` |
//! | Task-granularity ablation | [`ablation_taskgrain`] | `ablation_taskgrain` |

mod cache;
mod datapath;
mod federation;
mod gate;
mod gateway;
mod scale;

pub use crate::cache::{
    cache_point, cache_rows, check_cache_invariants, render_cache, CacheBenchRow, CachePoint,
    CACHE_GATE, CACHE_LADDER, CACHE_SEED, CACHE_SMOKE, CACHE_ZIPF_EXPONENT,
};
pub use crate::datapath::{
    baseline_copied_bytes, datapath_rows, render_datapath, DatapathRow, DATAPATH_GATE, LADDER,
    SMOKE,
};
pub use crate::federation::{
    check_federation_invariants, federation_config, federation_rows, render_federation,
    FederationBenchRow, FEDERATION_GATE, FEDERATION_LADDER, FEDERATION_QUALITY_FLOOR,
    FEDERATION_SMOKE, FEDERATION_SPAN_DROP, FEDERATION_SPAN_RATIO,
};
pub use crate::gate::{ArchiveGate, Labelled};
pub use crate::gateway::{
    check_batching_wins, gateway_duration, gateway_rows, peak_throughput, render_gateway,
    GatewayMode, GatewayRow, GATEWAY_GATE, GATEWAY_LADDER, GATEWAY_SMOKE,
};
pub use crate::scale::{
    check_scale_invariants, render_scale, scale_config, scale_rows, ScaleBenchRow, SCALE_GATE,
    SCALE_LADDER, SCALE_SEED, SCALE_SMOKE,
};

use std::path::PathBuf;
use std::sync::Arc;

use bf_devmgr::{DeviceManager, DeviceManagerConfig};
use bf_fpga::{Board, BoardSpec, Payload};
use bf_model::{node_b, DataPathKind, VirtualClock, VirtualDuration};
use bf_ocl::{ArgValue, BitstreamCatalog, ClResult, Device, NativeBackend, NdRange};
use bf_remote::Router;
use bf_rpc::PathCosts;
use bf_serverless::{table1_rates, LoadLevel, UseCase};
use bf_sim::{run_scenario, Deployment, ScenarioConfig, ScenarioResult};
use bf_workloads::{mm, sobel, CnnNetwork};
use parking_lot::Mutex;
use serde::Serialize;

/// The three systems of Fig. 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    /// Direct PCIe access.
    Native,
    /// BlastFunction over the pure-gRPC data path.
    BlastFunction,
    /// BlastFunction over the shared-memory data path.
    BlastFunctionShm,
}

impl System {
    /// The legend label used in the figure.
    pub fn label(self) -> &'static str {
        match self {
            System::Native => "Native",
            System::BlastFunction => "BlastFunction",
            System::BlastFunctionShm => "BlastFunction shm",
        }
    }

    /// All three systems in the paper's legend order.
    pub fn all() -> [System; 3] {
        [
            System::Native,
            System::BlastFunction,
            System::BlastFunctionShm,
        ]
    }
}

fn catalog() -> BitstreamCatalog {
    let mut catalog = BitstreamCatalog::new();
    catalog.register(sobel::bitstream());
    catalog.register(mm::bitstream());
    catalog
}

/// Builds a single-node deployment of `system` (the Fig. 4 testbed: one
/// worker node, one board, the function co-located).
pub fn fig4_device(system: System) -> (Device, VirtualClock) {
    let board = Arc::new(Mutex::new(Board::new(
        BoardSpec::de5a_net(),
        *node_b().pcie(),
    )));
    let clock = VirtualClock::new();
    match system {
        System::Native => (
            Device::new(Arc::new(NativeBackend::new(
                node_b(),
                board,
                catalog(),
                clock.clone(),
                "fig4",
            ))),
            clock,
        ),
        System::BlastFunction | System::BlastFunctionShm => {
            let manager = DeviceManager::new(
                DeviceManagerConfig::standalone("fpga-b"),
                node_b(),
                board,
                catalog(),
            );
            let mut router = Router::new();
            router.add_manager(manager);
            let costs = if system == System::BlastFunctionShm {
                PathCosts::local_shm()
            } else {
                PathCosts::local_grpc()
            };
            let device = router
                .connect(0, "fig4-fn", costs, clock.clone())
                // bf-lint: allow(panic): the router was just built with exactly
                // one manager at index 0 — connect cannot fail on this topology.
                .expect("connect");
            (device, clock)
        }
    }
}

/// A reusable single-node deployment of one system. Reuse across repeated
/// measurements (e.g. Criterion iterations) so threads and sessions are
/// not respawned per sample.
pub struct Fig4Rig {
    device: Device,
    clock: VirtualClock,
}

impl Fig4Rig {
    /// Deploys the rig for `system`.
    pub fn new(system: System) -> Self {
        let (device, clock) = fig4_device(system);
        Fig4Rig { device, clock }
    }

    /// Fig. 4(a)'s measured operation: synchronous write of `total/2`
    /// bytes followed by a synchronous read of `total/2` bytes.
    pub fn write_read_rtt(&self, total_bytes: u64) -> VirtualDuration {
        // bf-lint: allow(panic): the rig drives a fixed known-good deployment;
        // an OpenCL error here is a harness bug, never a runtime condition.
        self.try_write_read_rtt(total_bytes)
            .expect("fig4a op on known-good rig")
    }

    fn try_write_read_rtt(&self, total_bytes: u64) -> ClResult<VirtualDuration> {
        let half = (total_bytes / 2).max(1);
        let ctx = self.device.create_context()?;
        let buf = ctx.create_buffer(half)?;
        let queue = ctx.create_queue()?;
        let t0 = self.clock.now();
        queue.write(&buf, Payload::Synthetic(half))?;
        let _ = queue.read_payload(&buf)?;
        Ok(self.clock.now() - t0)
    }

    /// Fig. 4(b)'s measured operation (setup excluded from the RTT).
    pub fn sobel_rtt(&self, w: u32, h: u32) -> VirtualDuration {
        // bf-lint: allow(panic): the rig drives a fixed known-good deployment;
        // an OpenCL error here is a harness bug, never a runtime condition.
        self.try_sobel_rtt(w, h)
            .expect("fig4b op on known-good rig")
    }

    fn try_sobel_rtt(&self, w: u32, h: u32) -> ClResult<VirtualDuration> {
        let ctx = self.device.create_context()?;
        let program = ctx.build_program(sobel::SOBEL_BITSTREAM)?;
        let kernel = program.create_kernel(sobel::SOBEL_KERNEL)?;
        let bytes = sobel::frame_bytes(w, h);
        let input = ctx.create_buffer(bytes)?;
        let output = ctx.create_buffer(bytes)?;
        let queue = ctx.create_queue()?;
        kernel.set_arg_buffer(0, &input)?;
        kernel.set_arg_buffer(1, &output)?;
        kernel.set_arg(2, ArgValue::U32(w))?;
        kernel.set_arg(3, ArgValue::U32(h))?;
        let t0 = self.clock.now();
        queue.write_async(&input, 0, Payload::Synthetic(bytes))?;
        queue.launch(&kernel, NdRange::d2(w.into(), h.into()))?;
        let _ = queue.read_payload(&output)?;
        Ok(self.clock.now() - t0)
    }

    /// Fig. 4(c)'s measured operation (setup excluded from the RTT).
    pub fn mm_rtt(&self, n: u32) -> VirtualDuration {
        // bf-lint: allow(panic): the rig drives a fixed known-good deployment;
        // an OpenCL error here is a harness bug, never a runtime condition.
        self.try_mm_rtt(n).expect("fig4c op on known-good rig")
    }

    fn try_mm_rtt(&self, n: u32) -> ClResult<VirtualDuration> {
        let ctx = self.device.create_context()?;
        let program = ctx.build_program(mm::MM_BITSTREAM)?;
        let kernel = program.create_kernel(mm::MM_KERNEL)?;
        let bytes = mm::matrix_bytes(n);
        let a = ctx.create_buffer(bytes)?;
        let b = ctx.create_buffer(bytes)?;
        let c = ctx.create_buffer(bytes)?;
        let queue = ctx.create_queue()?;
        kernel.set_arg_buffer(0, &a)?;
        kernel.set_arg_buffer(1, &b)?;
        kernel.set_arg_buffer(2, &c)?;
        kernel.set_arg(3, ArgValue::U32(n))?;
        let t0 = self.clock.now();
        queue.write_async(&a, 0, Payload::Synthetic(bytes))?;
        queue.write_async(&b, 0, Payload::Synthetic(bytes))?;
        queue.launch(&kernel, NdRange::d2(n.into(), n.into()))?;
        let _ = queue.read_payload(&c)?;
        Ok(self.clock.now() - t0)
    }
}

/// Fig. 4(a)'s measured operation on a fresh deployment (one-shot; for
/// repeated sampling build a [`Fig4Rig`] instead).
pub fn write_read_rtt(system: System, total_bytes: u64) -> VirtualDuration {
    Fig4Rig::new(system).write_read_rtt(total_bytes)
}

/// Fig. 4(b)'s measured operation on a fresh deployment: one Sobel
/// request (pipelined write/kernel, synchronous read) on a `w × h` frame.
pub fn sobel_rtt(system: System, w: u32, h: u32) -> VirtualDuration {
    Fig4Rig::new(system).sobel_rtt(w, h)
}

/// Fig. 4(c)'s measured operation on a fresh deployment: one `n × n` MM
/// request.
pub fn mm_rtt(system: System, n: u32) -> VirtualDuration {
    Fig4Rig::new(system).mm_rtt(n)
}

/// One sweep point of a Fig. 4 series.
#[derive(Debug, Clone, Serialize)]
pub struct SweepRow {
    /// Sweep parameter (total bytes, pixels, or matrix dimension).
    pub x: u64,
    /// Human-readable sweep label.
    pub label: String,
    /// Native RTT (ms).
    pub native_ms: f64,
    /// BlastFunction (gRPC) RTT (ms).
    pub grpc_ms: f64,
    /// BlastFunction shm RTT (ms).
    pub shm_ms: f64,
}

impl SweepRow {
    /// gRPC slowdown over native.
    pub fn grpc_ratio(&self) -> f64 {
        self.grpc_ms / self.native_ms
    }

    /// shm overhead over native (ms).
    pub fn shm_overhead_ms(&self) -> f64 {
        self.shm_ms - self.native_ms
    }
}

/// Fig. 4(a): total transfer sizes from 1 KB to 2 GB.
pub fn fig4a_rows() -> Vec<SweepRow> {
    let sizes: Vec<u64> = vec![
        1 << 10,
        16 << 10,
        256 << 10,
        1 << 20,
        16 << 20,
        128 << 20,
        512 << 20,
        1 << 30,
        2 << 30,
    ];
    sizes
        .into_iter()
        .map(|total| SweepRow {
            x: total,
            label: human_bytes(total),
            native_ms: write_read_rtt(System::Native, total).as_millis_f64(),
            grpc_ms: write_read_rtt(System::BlastFunction, total).as_millis_f64(),
            shm_ms: write_read_rtt(System::BlastFunctionShm, total).as_millis_f64(),
        })
        .collect()
}

/// Fig. 4(b): image sizes from 10×10 to 1920×1080.
pub fn fig4b_rows() -> Vec<SweepRow> {
    let sizes: Vec<(u32, u32)> = vec![
        (10, 10),
        (100, 100),
        (320, 240),
        (640, 480),
        (800, 600),
        (1280, 720),
        (1600, 900),
        (1920, 1080),
    ];
    sizes
        .into_iter()
        .map(|(w, h)| SweepRow {
            x: u64::from(w) * u64::from(h),
            label: format!("{w}x{h}"),
            native_ms: sobel_rtt(System::Native, w, h).as_millis_f64(),
            grpc_ms: sobel_rtt(System::BlastFunction, w, h).as_millis_f64(),
            shm_ms: sobel_rtt(System::BlastFunctionShm, w, h).as_millis_f64(),
        })
        .collect()
}

/// Fig. 4(c): matrix dimensions from 16 to 4096.
pub fn fig4c_rows() -> Vec<SweepRow> {
    [16u32, 32, 64, 128, 256, 512, 1024, 2048, 4096]
        .into_iter()
        .map(|n| SweepRow {
            x: u64::from(n),
            label: format!("{n}x{n}"),
            native_ms: mm_rtt(System::Native, n).as_millis_f64(),
            grpc_ms: mm_rtt(System::BlastFunction, n).as_millis_f64(),
            shm_ms: mm_rtt(System::BlastFunctionShm, n).as_millis_f64(),
        })
        .collect()
}

/// Renders a Fig. 4 series as an aligned text table.
pub fn render_sweep(title: &str, rows: &[SweepRow]) -> String {
    let mut out = format!("{title}\n");
    out.push_str(&format!(
        "{:<12} {:>14} {:>18} {:>18} {:>8} {:>12}\n",
        "size", "Native", "BlastFunction", "BlastFunction shm", "grpc/x", "shm ovh"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<12} {:>12.3}ms {:>16.3}ms {:>16.3}ms {:>7.2}x {:>10.3}ms\n",
            r.label,
            r.native_ms,
            r.grpc_ms,
            r.shm_ms,
            r.grpc_ratio(),
            r.shm_overhead_ms()
        ));
    }
    out
}

/// One Table I row.
#[derive(Debug, Clone, Serialize)]
pub struct Table1Row {
    /// Use case label.
    pub use_case: String,
    /// Configuration label.
    pub configuration: String,
    /// Target rq/s per function (five entries).
    pub rates: [f64; 5],
}

/// Table I: the test-configuration matrix.
pub fn table1_rows() -> Vec<Table1Row> {
    let mut rows = Vec::new();
    for use_case in [UseCase::Sobel, UseCase::Mm, UseCase::AlexNet] {
        for level in [LoadLevel::Low, LoadLevel::Medium, LoadLevel::High] {
            if let Some(rates) = table1_rates(use_case, level) {
                rows.push(Table1Row {
                    use_case: use_case.to_string(),
                    configuration: level.to_string(),
                    rates,
                });
            }
        }
    }
    rows
}

/// The default measurement duration for the table experiments.
pub fn table_duration() -> VirtualDuration {
    VirtualDuration::from_secs(60)
}

fn scenario(use_case: UseCase, level: LoadLevel, deployment: Deployment) -> ScenarioResult {
    run_scenario(&ScenarioConfig::new(use_case, level, deployment).with_duration(table_duration()))
}

/// Table II: Sobel per-function rows, BlastFunction (shm) then Native,
/// low/medium/high.
pub fn table2_results() -> Vec<ScenarioResult> {
    let mut out = Vec::new();
    for deployment in [
        Deployment::BlastFunction {
            data_path: DataPathKind::SharedMemory,
        },
        Deployment::Native,
    ] {
        for level in [LoadLevel::Low, LoadLevel::Medium, LoadLevel::High] {
            out.push(scenario(UseCase::Sobel, level, deployment));
        }
    }
    out
}

/// Table III: MM aggregates.
pub fn table3_results() -> Vec<ScenarioResult> {
    let mut out = Vec::new();
    for deployment in [
        Deployment::BlastFunction {
            data_path: DataPathKind::SharedMemory,
        },
        Deployment::Native,
    ] {
        for level in [LoadLevel::Low, LoadLevel::Medium, LoadLevel::High] {
            out.push(scenario(UseCase::Mm, level, deployment));
        }
    }
    out
}

/// Table IV: AlexNet aggregates (medium and high only, as in the paper).
pub fn table4_results() -> Vec<ScenarioResult> {
    let mut out = Vec::new();
    for deployment in [
        Deployment::BlastFunction {
            data_path: DataPathKind::SharedMemory,
        },
        Deployment::Native,
    ] {
        for level in [LoadLevel::Medium, LoadLevel::High] {
            out.push(scenario(UseCase::AlexNet, level, deployment));
        }
    }
    out
}

/// One ablation variant's aggregate outcome.
#[derive(Debug, Clone, Serialize)]
pub struct AblationRow {
    /// Variant label.
    pub variant: String,
    /// Aggregate utilization (%, max 300).
    pub utilization_pct: f64,
    /// Mean latency (ms).
    pub mean_latency_ms: f64,
    /// Processed rq/s.
    pub processed_rps: f64,
    /// Target rq/s.
    pub target_rps: f64,
}

impl From<(&str, &ScenarioResult)> for AblationRow {
    fn from((variant, r): (&str, &ScenarioResult)) -> Self {
        AblationRow {
            variant: variant.to_string(),
            utilization_pct: r.aggregate.utilization_pct,
            mean_latency_ms: r.aggregate.mean_latency_ms,
            processed_rps: r.aggregate.processed_rps,
            target_rps: r.aggregate.target_rps,
        }
    }
}

/// Allocation-policy ablation (Sobel, high load): the registry's
/// balanced placement vs a worst-case pile-up on the slow master node vs
/// round-robin that ignores node speed.
pub fn ablation_alloc() -> Vec<AblationRow> {
    let base = ScenarioConfig::new(
        UseCase::Sobel,
        LoadLevel::High,
        Deployment::BlastFunction {
            data_path: DataPathKind::SharedMemory,
        },
    )
    .with_duration(table_duration());
    let variants: Vec<(&str, Vec<usize>)> = vec![
        // 0 = node A, 1 = B, 2 = C.
        ("registry (Algorithm 1)", vec![]),
        ("round-robin A,B,C", vec![0, 1, 2, 0, 1]),
        ("pile-up on node A", vec![0, 0, 0, 0, 0]),
        ("workers only (B,C)", vec![1, 2, 1, 2, 1]),
    ];
    variants
        .into_iter()
        .map(|(label, placement)| {
            let cfg = if placement.is_empty() {
                base.clone()
            } else {
                base.clone().with_placement(placement)
            };
            let result = run_scenario(&cfg);
            AblationRow::from((label, &result))
        })
        .collect()
}

/// Data-path ablation: shm vs gRPC for every use case at medium load.
pub fn ablation_transport() -> Vec<AblationRow> {
    let mut rows = Vec::new();
    for use_case in [UseCase::Sobel, UseCase::Mm, UseCase::AlexNet] {
        for (label, data_path) in [
            ("shm", DataPathKind::SharedMemory),
            ("grpc", DataPathKind::Grpc),
        ] {
            let result = scenario(
                use_case,
                LoadLevel::Medium,
                Deployment::BlastFunction { data_path },
            );
            rows.push(AblationRow::from((
                format!("{use_case} / {label}").as_str(),
                &result,
            )));
        }
    }
    rows
}

/// Task-granularity ablation: AlexNet with PipeCNN's per-layer syncs vs a
/// hypothetical single batched task per inference.
pub fn ablation_taskgrain() -> Vec<AblationRow> {
    let net = CnnNetwork::alexnet();
    let base = ScenarioConfig::new(
        UseCase::AlexNet,
        LoadLevel::Medium,
        Deployment::BlastFunction {
            data_path: DataPathKind::SharedMemory,
        },
    )
    .with_duration(table_duration());
    let layered = run_scenario(&base);
    let batched = run_scenario(&base.clone().with_profile(net.request_profile_batched()));
    let native = run_scenario(
        &ScenarioConfig::new(UseCase::AlexNet, LoadLevel::Medium, Deployment::Native)
            .with_duration(table_duration()),
    );
    vec![
        AblationRow::from(("per-layer syncs (PipeCNN)", &layered)),
        AblationRow::from(("single batched task", &batched)),
        AblationRow::from(("native", &native)),
    ]
}

/// Space-sharing ablation (the paper's future work): AlexNet at high
/// load with 1 region (pure time-sharing), 2 regions (kernels 1.6× slower
/// each) and 4 regions (2.6× slower): does splitting the board into
/// smaller parallel accelerators beat pure time-multiplexing?
pub fn ablation_spacesharing() -> Vec<AblationRow> {
    let base = ScenarioConfig::new(
        UseCase::AlexNet,
        LoadLevel::High,
        Deployment::BlastFunction {
            data_path: DataPathKind::SharedMemory,
        },
    )
    .with_duration(table_duration());
    [
        ("time-sharing (1 region)", 1u32, 1.0f64),
        ("space-sharing 2 regions", 2, 1.6),
        ("space-sharing 4 regions", 4, 2.6),
    ]
    .into_iter()
    .map(|(label, slots, slowdown)| {
        let result = run_scenario(&base.clone().with_space_sharing(slots, slowdown));
        AblationRow::from((label, &result))
    })
    .collect()
}

/// Renders ablation rows.
pub fn render_ablation(title: &str, rows: &[AblationRow]) -> String {
    let mut out = format!("{title}\n");
    out.push_str(&format!(
        "{:<28} {:>12} {:>12} {:>12} {:>10}\n",
        "variant", "util (%)", "latency", "processed", "target"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<28} {:>11.2}% {:>10.2}ms {:>7.2} rq/s {:>6.1} rq/s\n",
            r.variant, r.utilization_pct, r.mean_latency_ms, r.processed_rps, r.target_rps
        ));
    }
    out
}

/// Writes a JSON artifact under `target/experiments/<name>.json` so runs
/// are diffable; returns the path.
///
/// # Panics
///
/// Panics if the artifact cannot be written (CI environments should fail
/// loudly).
pub fn save_json<T: Serialize>(name: &str, value: &T) -> PathBuf {
    let dir = PathBuf::from("target").join("experiments");
    // bf-lint: allow(panic): artifact writing is best-effort CI plumbing; a
    // full disk or unwritable target/ must abort the run loudly, not silently
    // drop the experiment record.
    std::fs::create_dir_all(&dir).expect("create target/experiments");
    let path = dir.join(format!("{name}.json"));
    // bf-lint: allow(panic): serializing an in-memory row set is infallible.
    let json = serde_json::to_string_pretty(value).expect("serialize experiment");
    // bf-lint: allow(panic): same rationale as the directory creation above.
    std::fs::write(&path, json).expect("write experiment artifact");
    path
}

fn human_bytes(bytes: u64) -> String {
    if bytes >= 1 << 30 {
        format!("{}GB", bytes >> 30)
    } else if bytes >= 1 << 20 {
        format!("{}MB", bytes >> 20)
    } else if bytes >= 1 << 10 {
        format!("{}KB", bytes >> 10)
    } else {
        format!("{bytes}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_row_derivations() {
        let r = SweepRow {
            x: 1,
            label: "x".into(),
            native_ms: 2.0,
            grpc_ms: 8.0,
            shm_ms: 3.0,
        };
        assert_eq!(r.grpc_ratio(), 4.0);
        assert_eq!(r.shm_overhead_ms(), 1.0);
    }

    #[test]
    fn human_bytes_units() {
        assert_eq!(human_bytes(512), "512B");
        assert_eq!(human_bytes(2 << 10), "2KB");
        assert_eq!(human_bytes(3 << 20), "3MB");
        assert_eq!(human_bytes(2 << 30), "2GB");
    }

    #[test]
    fn table1_has_eight_configurations() {
        assert_eq!(table1_rows().len(), 8);
    }
}
