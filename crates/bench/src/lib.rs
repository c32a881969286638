#![forbid(unsafe_code)]

//! # bf-bench — the experiment harness
//!
//! One binary, `bf-bench <artifact> [--smoke] [--check <archived.json>]`,
//! runs one entry of [`ARTIFACTS`], the one list of what it produces;
//! `bf-bench` alone prints the names. A paper artifact — Fig. 4(a–c),
//! Tables I–IV, the four ablations, and `trace`'s Perfetto timeline of
//! one Table II scenario — takes no flags, prints its table in the
//! paper's layout and writes its rows as JSON under
//! `target/experiments/`; `bf-bench all` runs every one. The four
//! archive-gated ladders (`datapath`, `gateway`, `scale`, `cache`) also
//! take `--smoke` and `--check`.

mod cache;
mod datapath;
mod gate;
mod gateway;
mod scale;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use bf_devmgr::{DeviceManager, DeviceManagerConfig};
use bf_fpga::{Board, BoardSpec, Payload};
use bf_model::{node_b, DataPathKind, VirtualClock, VirtualDuration};
use bf_ocl::{ArgValue, BitstreamCatalog, ClResult, Device, NativeBackend, NdRange};
use bf_remote::Router;
use bf_rpc::PathCosts;
use bf_sim::{run_scenario, Deployment, ScenarioConfig, ScenarioResult};
use bf_workloads::{mm, sobel, table1_rates, CnnNetwork, LoadLevel, UseCase};
use parking_lot::Mutex;
use serde::Serialize;

use crate::datapath::DATAPATH_GATE;
use crate::gateway::GATEWAY_GATE;
use crate::scale::SCALE_GATE;
use Runner::{Gated, Paper};

/// How `bf-bench` runs one artifact.
#[derive(Clone, Copy)]
pub enum Runner {
    /// A paper figure, table, ablation or trace: takes no arguments,
    /// writes its JSON artifact and returns what it prints.
    Paper(fn() -> String),
    /// An archive-gated ladder: `ArchiveGate::run` on the arguments that
    /// follow its name.
    Gated(fn(&[String]) -> ExitCode),
}

/// Every artifact `bf-bench` produces, by name; `bf-bench all` runs the
/// paper ones in this order.
pub const ARTIFACTS: [(&str, Runner); 16] = [
    ("fig4a", Paper(fig4a)),
    ("fig4b", Paper(fig4b)),
    ("fig4c", Paper(fig4c)),
    ("table1", Paper(table1)),
    ("table2", Paper(table2)),
    ("table3", Paper(table3)),
    ("table4", Paper(table4)),
    ("ablation_alloc", Paper(ablation_alloc)),
    ("ablation_transport", Paper(ablation_transport)),
    ("ablation_taskgrain", Paper(ablation_taskgrain)),
    ("ablation_spacesharing", Paper(ablation_spacesharing)),
    ("trace", Paper(trace)),
    ("datapath", Gated(|args| DATAPATH_GATE.run(args))),
    ("gateway", Gated(|args| GATEWAY_GATE.run(args))),
    ("scale", Gated(|args| SCALE_GATE.run(args))),
    ("cache", Gated(cache::run)),
];

/// `bf-bench`'s `main`: the artifact name, then the arguments for it
/// (program name already dropped). Exits 2 on a usage error.
pub fn run(mut args: impl Iterator<Item = String>) -> ExitCode {
    let name = args.next().unwrap_or_default();
    let rest: Vec<String> = args.collect();
    let selected = match select(&name, &rest) {
        Ok(selected) => selected,
        Err(msg) => {
            let names: Vec<&str> = ARTIFACTS.iter().map(|(name, _)| *name).collect();
            eprintln!(
                "bf-bench: {msg}\nusage: bf-bench <artifact> [--smoke] [--check <archived.json>]\n\
                 artifacts: all {}",
                names.join(" ")
            );
            return ExitCode::from(2);
        }
    };
    for (artifact, runner) in selected {
        match runner {
            Gated(gate) => return gate(&rest),
            Paper(paper) => {
                if name == "all" {
                    println!("=== {artifact} ===");
                }
                print!("{}", paper());
            }
        }
    }
    ExitCode::SUCCESS
}

/// The artifacts a command line names: `all` is every paper artifact.
/// An unknown name, and any argument to a paper artifact or to `all`, is
/// a usage error — an ignored flag would let a CI step pass having
/// checked nothing.
fn select(name: &str, args: &[String]) -> Result<Vec<(&'static str, Runner)>, String> {
    let selected: Vec<(&str, Runner)> = ARTIFACTS
        .into_iter()
        .filter(|(artifact, runner)| {
            *artifact == name || (name == "all" && matches!(runner, Paper(_)))
        })
        .collect();
    match (selected.as_slice(), args) {
        ([], _) if name.is_empty() => Err("no artifact named".to_string()),
        ([], _) => Err(format!("unknown artifact {name:?}")),
        ([(_, Gated(_))], _) | (_, []) => Ok(selected),
        (_, [arg, ..]) => Err(format!("{name} takes no arguments, got {arg:?}")),
    }
}

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

fn catalog() -> BitstreamCatalog {
    let mut catalog = BitstreamCatalog::new();
    catalog.register(sobel::bitstream());
    catalog.register(mm::bitstream());
    catalog
}

fn fig4_board() -> Arc<Mutex<Board>> {
    Arc::new(Mutex::new(Board::new(
        BoardSpec::de5a_net(),
        *node_b().pcie(),
    )))
}

/// Starts a Device Manager configured by `config` on the Fig. 4 board
/// (a DE5a-Net on node B) and connects one co-located function to it over
/// `costs`: the function's device, its clock, and the manager.
fn managed_device(
    config: DeviceManagerConfig,
    costs: PathCosts,
) -> (Device, VirtualClock, DeviceManager) {
    let manager = DeviceManager::new(config, node_b(), fig4_board(), catalog());
    let mut router = Router::new();
    router.add_manager(manager.clone());
    let clock = VirtualClock::new();
    let device = router
        .connect(0, "fig4-fn", costs, clock.clone())
        // bf-lint: allow(panic): the router was just built with exactly
        // one manager at index 0 — connect cannot fail on this topology.
        .expect("connect");
    (device, clock, manager)
}

/// Builds a single-node deployment of `system` (the Fig. 4 testbed: one
/// worker node, one board, the function co-located).
pub fn fig4_device(system: System) -> (Device, VirtualClock) {
    let costs = match system {
        System::Native => {
            let clock = VirtualClock::new();
            let backend =
                NativeBackend::new(node_b(), fig4_board(), catalog(), clock.clone(), "fig4");
            return (Device::new(Arc::new(backend)), clock);
        }
        System::BlastFunction => PathCosts::local_grpc(),
        System::BlastFunctionShm => PathCosts::local_shm(),
    };
    let (device, clock, _) = managed_device(DeviceManagerConfig::standalone("fpga-b"), costs);
    (device, clock)
}

/// Runs `op` on a fresh deployment of `system`; `op` sets up its objects
/// and returns the virtual time its measured part took.
fn measure(
    system: System,
    op: impl FnOnce(&Device, &VirtualClock) -> ClResult<VirtualDuration>,
) -> VirtualDuration {
    let (device, clock) = fig4_device(system);
    // bf-lint: allow(panic): the rig drives a fixed known-good deployment;
    // an OpenCL error here is a harness bug, never a runtime condition.
    op(&device, &clock).expect("Fig. 4 op on a known-good deployment")
}

/// Fig. 4(a)'s measured operation: synchronous write of `total/2` bytes
/// followed by a synchronous read of `total/2` bytes.
pub fn write_read_rtt(system: System, total_bytes: u64) -> VirtualDuration {
    measure(system, |device, clock| {
        let half = (total_bytes / 2).max(1);
        let ctx = device.create_context()?;
        let buf = ctx.create_buffer(half)?;
        let queue = ctx.create_queue()?;
        let t0 = clock.now();
        queue.write(&buf, Payload::Synthetic(half))?;
        let _ = queue.read_payload(&buf)?;
        Ok(clock.now() - t0)
    })
}

/// Fig. 4(b)'s measured operation: one Sobel request (pipelined
/// write/kernel, synchronous read) on a `w × h` frame, setup excluded.
pub fn sobel_rtt(system: System, w: u32, h: u32) -> VirtualDuration {
    measure(system, |device, clock| {
        let ctx = device.create_context()?;
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
        let t0 = clock.now();
        queue.write_async(&input, 0, Payload::Synthetic(bytes))?;
        queue.launch(&kernel, NdRange::d2(w.into(), h.into()))?;
        let _ = queue.read_payload(&output)?;
        Ok(clock.now() - t0)
    })
}

/// Fig. 4(c)'s measured operation: one `n × n` MM request, setup
/// excluded.
pub fn mm_rtt(system: System, n: u32) -> VirtualDuration {
    measure(system, |device, clock| {
        let ctx = device.create_context()?;
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
        let t0 = clock.now();
        queue.write_async(&a, 0, Payload::Synthetic(bytes))?;
        queue.write_async(&b, 0, Payload::Synthetic(bytes))?;
        queue.launch(&kernel, NdRange::d2(n.into(), n.into()))?;
        let _ = queue.read_payload(&c)?;
        Ok(clock.now() - t0)
    })
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
    /// Measures one sweep point on all three systems.
    fn measure(x: u64, label: String, rtt: impl Fn(System) -> VirtualDuration) -> Self {
        let ms = |system| rtt(system).as_millis_f64();
        SweepRow {
            x,
            label,
            native_ms: ms(System::Native),
            grpc_ms: ms(System::BlastFunction),
            shm_ms: ms(System::BlastFunctionShm),
        }
    }

    /// gRPC slowdown over native.
    pub fn grpc_ratio(&self) -> f64 {
        self.grpc_ms / self.native_ms
    }

    /// shm overhead over native (ms).
    pub fn shm_overhead_ms(&self) -> f64 {
        self.shm_ms - self.native_ms
    }
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

/// A Fig. 4 sweep, with a note on its largest point measured against
/// the paper's number.
fn sweep(name: &str, title: &str, rows: Vec<SweepRow>, note: fn(&SweepRow) -> String) -> String {
    let mut text = render_sweep(title, &rows);
    if let Some(last) = rows.last() {
        text += &format!("\n{}\n", note(last));
    }
    publish(name, text, &rows)
}

/// Fig. 4(a): write+read RTT over total transfer sizes from 1 KB to 2 GB.
fn fig4a() -> String {
    let sizes = [
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
    let rows = sizes
        .map(|total| SweepRow::measure(total, human_bytes(total), |s| write_read_rtt(s, total)));
    let title = "Fig. 4(a) — synchronous write+read RTT vs total size";
    sweep("fig4a", title, rows.into(), |last| {
        format!(
            "At 2 GB: gRPC is {:.1}x native (paper: ~4x); shm overhead {:.0} ms (paper: 155 ms).",
            last.grpc_ratio(),
            last.shm_overhead_ms()
        )
    })
}

/// Fig. 4(b): Sobel latency over image sizes from 10×10 to 1920×1080.
fn fig4b() -> String {
    let sizes = [
        (10, 10),
        (100, 100),
        (320, 240),
        (640, 480),
        (800, 600),
        (1280, 720),
        (1600, 900),
        (1920, 1080),
    ];
    let rows = sizes.map(|(w, h): (u32, u32)| {
        SweepRow::measure(u64::from(w) * u64::from(h), format!("{w}x{h}"), |s| {
            sobel_rtt(s, w, h)
        })
    });
    let title = "Fig. 4(b) — Sobel latency vs image size";
    sweep("fig4b", title, rows.into(), |last| {
        format!(
            "At 1920x1080: native {:.2} ms (paper: 14.53 ms); shm overhead {:.2} ms (paper: ~2 ms).",
            last.native_ms,
            last.shm_overhead_ms()
        )
    })
}

/// Fig. 4(c): MM latency over matrix dimensions from 16 to 4096.
fn fig4c() -> String {
    let dims: [u32; 9] = [16, 32, 64, 128, 256, 512, 1024, 2048, 4096];
    let rows = dims.map(|n| SweepRow::measure(n.into(), format!("{n}x{n}"), |s| mm_rtt(s, n)));
    let title = "Fig. 4(c) — MM latency vs matrix size";
    sweep("fig4c", title, rows.into(), |last| {
        format!(
            "At 4096: native {:.3} s (paper: 3.571 s); shm overhead {:.1} ms (paper: 17 ms, 0.27%).",
            last.native_ms / 1e3,
            last.shm_overhead_ms()
        )
    })
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
    for use_case in UseCase::ALL {
        for level in LoadLevel::ALL {
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

fn table1() -> String {
    let mut text = format!(
        "Table I — requests per second sent to each function\n\n\
         {:<10} {:<14} {:>8} {:>8} {:>8} {:>8} {:>8}\n",
        "Use-Case", "Configuration", "1st", "2nd", "3rd", "4th", "5th"
    );
    let rows = table1_rows();
    for row in &rows {
        let [r1, r2, r3, r4, r5] = row.rates;
        text += &format!(
            "{:<10} {:<14} {r1:>5} rq/s {r2:>4} rq/s {r3:>4} rq/s {r4:>4} rq/s {r5:>4} rq/s\n",
            row.use_case, row.configuration,
        );
    }
    text += "\n(The Native scenario uses only the first 3 columns.)\n";
    publish("table1", text, &rows)
}

/// BlastFunction over the shared-memory data path, as Tables II–IV and
/// the ablations deploy it.
const BF_SHM: Deployment = Deployment::BlastFunction {
    data_path: DataPathKind::SharedMemory,
};

/// The default measurement duration for the table experiments.
pub fn table_duration() -> VirtualDuration {
    VirtualDuration::from_secs(60)
}

fn scenario(use_case: UseCase, level: LoadLevel, deployment: Deployment) -> ScenarioResult {
    run_scenario(&ScenarioConfig::new(use_case, level, deployment).with_duration(table_duration()))
}

/// The rows of Tables II–IV: BlastFunction (shm) then Native, at each
/// load level Table I defines for `use_case`.
fn scenarios(use_case: UseCase) -> Vec<ScenarioResult> {
    let at_levels = |deployment| {
        use_case
            .levels()
            .map(move |level| scenario(use_case, level, deployment))
    };
    [BF_SHM, Deployment::Native]
        .into_iter()
        .flat_map(at_levels)
        .collect()
}

/// Table II: Sobel per-function rows.
fn table2() -> String {
    let mut text =
        "Table II — Sobel multi-function results (utilization max 300% overall)\n\n".to_string();
    let results = scenarios(UseCase::Sobel);
    for result in &results {
        let a = &result.aggregate;
        text += &result.render_per_function();
        text += &format!(
            "  -> aggregate: {:.2}% util, {:.2} ms, {:.2}/{:.0} rq/s (miss {:.2}%)\n\n",
            a.utilization_pct,
            a.mean_latency_ms,
            a.processed_rps,
            a.target_rps,
            a.target_miss_pct()
        );
    }
    publish("table2", text, &results)
}

/// Table III or IV: one aggregate row per scenario, then `note`.
fn aggregates(name: &str, title: &str, results: Vec<ScenarioResult>, note: &str) -> String {
    let mut text = format!(
        "{title}\n\n{:<16} {:<12} {:>12} {:>11} {:>12} {:>12}\n",
        "Type", "Config", "Utilization", "Latency", "Processed", "Target"
    );
    for result in &results {
        text += &result.render_aggregate();
    }
    publish(name, format!("{text}\n{note}"), &results)
}

/// Table III: MM aggregates.
fn table3() -> String {
    let title = "Table III — MM aggregates (utilization max 300%)";
    aggregates("table3", title, scenarios(UseCase::Mm), "")
}

/// Table IV: AlexNet aggregates (medium and high only, as in the paper).
fn table4() -> String {
    let title = "Table IV — PipeCNN/AlexNet aggregates (utilization max 300%)";
    let results = scenarios(UseCase::AlexNet);
    let note = "The BlastFunction latency gap is the per-layer control RTTs of\n\
                PipeCNN's host loop (~30 synchronized kernel invocations/inference).\n";
    aggregates("table4", title, results, note)
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

/// An ablation's table, then `note`.
fn ablation(name: &str, title: &str, rows: Vec<AblationRow>, note: &str) -> String {
    publish(
        name,
        format!("{}\n{note}", render_ablation(title, &rows)),
        &rows,
    )
}

/// The ablations' base scenario: BlastFunction over shm at `level`.
fn shm_scenario(use_case: UseCase, level: LoadLevel) -> ScenarioConfig {
    ScenarioConfig::new(use_case, level, BF_SHM).with_duration(table_duration())
}

/// Allocation-policy ablation (Sobel, high load): the registry's
/// balanced placement vs a worst-case pile-up on the slow master node vs
/// round-robin that ignores node speed.
fn ablation_alloc() -> String {
    let base = shm_scenario(UseCase::Sobel, LoadLevel::High);
    let variants: Vec<(&str, Vec<usize>)> = vec![
        // 0 = node A, 1 = B, 2 = C.
        ("registry (Algorithm 1)", vec![]),
        ("round-robin A,B,C", vec![0, 1, 2, 0, 1]),
        ("pile-up on node A", vec![0, 0, 0, 0, 0]),
        ("workers only (B,C)", vec![1, 2, 1, 2, 1]),
    ];
    let row = |(label, placement): (&str, Vec<usize>)| {
        let cfg = if placement.is_empty() {
            base.clone()
        } else {
            base.clone().with_placement(placement)
        };
        AblationRow::from((label, &run_scenario(&cfg)))
    };
    let title = "Allocation-policy ablation — Sobel, high load, BlastFunction shm";
    ablation(
        "ablation_alloc",
        title,
        variants.into_iter().map(row).collect(),
        "",
    )
}

/// Data-path ablation: shm vs gRPC for every use case at medium load.
fn ablation_transport() -> String {
    let mut rows = Vec::new();
    for use_case in UseCase::ALL {
        for (label, data_path) in [
            ("shm", DataPathKind::SharedMemory),
            ("grpc", DataPathKind::Grpc),
        ] {
            let deployment = Deployment::BlastFunction { data_path };
            let result = scenario(use_case, LoadLevel::Medium, deployment);
            rows.push(AblationRow::from((
                format!("{use_case} / {label}").as_str(),
                &result,
            )));
        }
    }
    let title = "Data-path ablation — medium load, per use case";
    ablation("ablation_transport", title, rows, "")
}

/// Task-granularity ablation: AlexNet with PipeCNN's per-layer syncs vs a
/// hypothetical single batched task per inference.
fn ablation_taskgrain() -> String {
    let base = shm_scenario(UseCase::AlexNet, LoadLevel::Medium);
    let batched = base
        .clone()
        .with_profile(CnnNetwork::alexnet().request_profile_batched());
    let rows = vec![
        AblationRow::from(("per-layer syncs (PipeCNN)", &run_scenario(&base))),
        AblationRow::from(("single batched task", &run_scenario(&batched))),
        AblationRow::from((
            "native",
            &scenario(UseCase::AlexNet, LoadLevel::Medium, Deployment::Native),
        )),
    ];
    let title = "Task-granularity ablation — AlexNet, medium load";
    let note = "Batching the layer launches into one task removes the per-layer\n\
                control RTTs — the future-work direction Table IV motivates.\n";
    ablation("ablation_taskgrain", title, rows, note)
}

/// Space-sharing ablation (the paper's future work): AlexNet at high
/// load with 1 region (pure time-sharing), 2 regions (kernels 1.6× slower
/// each) and 4 regions (2.6× slower): does splitting the board into
/// smaller parallel accelerators beat pure time-multiplexing?
fn ablation_spacesharing() -> String {
    let base = shm_scenario(UseCase::AlexNet, LoadLevel::High);
    let variants = [
        ("time-sharing (1 region)", 1u32, 1.0f64),
        ("space-sharing 2 regions", 2, 1.6),
        ("space-sharing 4 regions", 4, 2.6),
    ];
    let rows = variants.map(|(label, slots, slowdown)| {
        let result = run_scenario(&base.clone().with_space_sharing(slots, slowdown));
        AblationRow::from((label, &result))
    });
    let title = "Space-sharing ablation — AlexNet, high load, BlastFunction shm";
    let note = "Smaller parallel regions trade per-request latency (slower kernels)\n\
                for parallel capacity; whether that wins depends on how much the\n\
                workload queues — exactly the trade-off the paper defers to future work.\n";
    ablation("ablation_spacesharing", title, rows.into(), note)
}

/// A Chrome-trace (Perfetto) timeline of one multi-tenant scenario: every
/// task every tenant ran on every board, on the virtual timeline. Open it
/// in `chrome://tracing` or <https://ui.perfetto.dev>.
fn trace() -> String {
    let cfg =
        shm_scenario(UseCase::Sobel, LoadLevel::High).with_duration(VirtualDuration::from_secs(10));
    let result = run_scenario(&cfg);
    let path = write_experiment("trace_sobel_high_bf", &result.to_chrome_trace());
    format!(
        "Wrote {} spans across {} devices to {}\nOpen it in chrome://tracing or https://ui.perfetto.dev\n",
        result.timeline.len(),
        result.device_utilization.len(),
        path.display()
    )
}

/// The one way a paper artifact is archived: saves `rows` as
/// `target/experiments/<name>.json` and returns `text` followed by the
/// line naming that file.
fn publish<T: Serialize>(name: &str, text: String, rows: &T) -> String {
    format!("{text}JSON artifact: {}\n", save_json(name, rows).display())
}

/// Writes a JSON artifact under `target/experiments/<name>.json` so runs
/// are diffable; returns the path.
///
/// # Panics
///
/// Panics if the artifact cannot be written (CI environments should fail
/// loudly).
pub fn save_json<T: Serialize>(name: &str, value: &T) -> PathBuf {
    // bf-lint: allow(panic): serializing an in-memory row set is infallible.
    let json = serde_json::to_string_pretty(value).expect("serialize experiment");
    write_experiment(name, &json)
}

fn write_experiment(name: &str, json: &str) -> PathBuf {
    let dir = PathBuf::from("target").join("experiments");
    // bf-lint: allow(panic): artifact writing is best-effort CI plumbing; a
    // full disk or unwritable target/ must abort the run loudly, not silently
    // drop the experiment record.
    std::fs::create_dir_all(&dir).expect("create target/experiments");
    let path = dir.join(format!("{name}.json"));
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

/// The registry-shard sweep — once its own federation ladder, now the
/// `-N` points of [`SCALE_GATE`] — and its contention gate.
#[cfg(test)]
mod federation {
    mod tests {
        use bf_sim::ScaleConfig;

        use crate::gate::Named;
        use crate::scale::{
            check_scale_invariants, scale_rows, SCALE_GATE, SCALE_QUALITY_FLOOR, SCALE_SPAN_DROP,
            SCALE_SPAN_RATIO,
        };

        /// Whether two configurations run the same day, shard count aside.
        fn same_day(a: &ScaleConfig, b: &ScaleConfig) -> bool {
            a.seed == b.seed
                && a.nodes == b.nodes
                && a.functions == b.functions
                && a.sessions == b.sessions
                && a.day == b.day
                && a.base_rps == b.base_rps
                && a.peak_factor == b.peak_factor
                && a.record_trace == b.record_trace
                && a.faults == b.faults
        }

        /// The label of the 1-shard point that runs `cfg`'s day, if any.
        fn single_registry_twin(
            points: &[Named<ScaleConfig>],
            cfg: &ScaleConfig,
        ) -> Option<&'static str> {
            points
                .iter()
                .find(|(_, base)| {
                    let base = base();
                    base.shards == 1 && same_day(&base, cfg)
                })
                .map(|&(label, _)| label)
        }

        #[test]
        fn smoke_labels_are_a_subset_of_the_ladder() {
            SCALE_GATE.assert_smoke_is_a_proper_subset();
            // The smoke subset still compares 1 shard against
            // SCALE_SPAN_RATIO x the shards, so CI runs the contention gate.
            let smoke = SCALE_GATE.points(true);
            let wide = smoke
                .iter()
                .find(|(_, config)| config().shards as u64 == SCALE_SPAN_RATIO)
                .expect("a sharded smoke point");
            assert!(
                single_registry_twin(&smoke, &(wide.1)()).is_some(),
                "{}",
                wide.0
            );
        }

        #[test]
        fn every_ladder_label_resolves() {
            let points = SCALE_GATE.points(false);
            for &(label, config) in &points {
                let cfg = config();
                assert!(cfg.shards > 0 && cfg.nodes > 0, "{label}");
                if cfg.shards > 1 {
                    assert!(
                        single_registry_twin(&points, &cfg).is_some(),
                        "{label}: no 1-shard point runs the same day"
                    );
                }
            }
        }

        #[test]
        fn smoke_rows_satisfy_the_invariants() {
            let rows = scale_rows(&SCALE_GATE.points(true));
            assert!(check_scale_invariants(&rows).is_ok(), "{rows:?}");
            for row in &rows {
                let r = &row.result;
                assert_eq!(r.configured + r.warm + r.cold, r.placed, "{}", row.label);
                let quality = (r.configured + r.warm) as f64 / r.placed as f64;
                assert!(quality >= SCALE_QUALITY_FLOOR, "{}: {quality}", row.label);
            }
            let base = rows
                .iter()
                .find(|row| row.result.shards == 1)
                .expect("1-shard row");
            let wide = rows
                .iter()
                .find(|row| row.result.shards == SCALE_SPAN_RATIO)
                .expect("sharded row");
            assert!(
                wide.result.max_lock_span * SCALE_SPAN_DROP <= base.result.max_lock_span,
                "{} -> {}: max lock span {} -> {}",
                base.label,
                wide.label,
                base.result.max_lock_span,
                wide.result.max_lock_span
            );
            SCALE_GATE.assert_names_are_fields_of(wide);
        }
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

    #[test]
    fn the_artifact_table_is_what_bf_bench_dispatches_over() {
        let names = |selected: &[(&'static str, Runner)]| -> Vec<&'static str> {
            selected.iter().map(|(name, _)| *name).collect()
        };
        let mut unique = names(&ARTIFACTS);
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), ARTIFACTS.len(), "artifact names are unique");
        assert!(!unique.contains(&"all"));

        // `all` is every paper artifact, in table order, and no gated ladder.
        let gated = ["datapath", "gateway", "scale", "cache"];
        let papers: Vec<&str> = names(&ARTIFACTS)
            .into_iter()
            .filter(|name| !gated.contains(name))
            .collect();
        assert_eq!(papers.len(), 12);
        assert_eq!(select("all", &[]).map(|s| names(&s)), Ok(papers));
        for name in gated {
            let selected = select(name, &[]).expect(name);
            assert!(matches!(selected[..], [(_, Gated(_))]), "{name}");
        }

        // Usage errors: a missing or unknown name, and any argument to a
        // paper artifact or to `all`; a gated ladder gets its arguments.
        let smoke = ["--smoke".to_string()];
        assert!(select("", &[]).is_err());
        assert!(select("run_all", &[]).is_err());
        assert!(select("federation", &[]).is_err());
        assert!(select("fig4a", &smoke).is_err());
        assert!(select("all", &smoke).is_err());
        assert!(select("scale", &smoke).is_ok());
    }
}
