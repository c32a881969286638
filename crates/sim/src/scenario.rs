//! Scenario assembly and execution.

use bf_model::{paper_cluster, DataPathKind, VirtualDuration, VirtualTime};
use bf_registry::{AllocationPolicy, DeviceQuery, PlacementService, ShardedRegistry, StaticDevice};
use bf_rpc::PathCosts;
use bf_serverless::ClosedLoopPacer;
use bf_simkit::{Engine, Samples, SimRng};
use bf_workloads::table1_rates;

use crate::config::{Deployment, ScenarioConfig};
use crate::result::{Aggregate, FunctionResult, ScenarioResult};
use crate::world::{schedule_request, PathMode, SimDevice, SimFunction, World};

/// The paper's three boards, one per node of [`paper_cluster`]
/// (`fpga-a` on node A, `fpga-b` on B, `fpga-c` on C), each split into
/// `slots` accelerator regions.
fn paper_devices(slots: u32, kernel_slowdown: f64) -> Vec<SimDevice> {
    paper_cluster()
        .into_iter()
        .map(|node| {
            let id = format!("fpga-{}", node.id().as_str().to_ascii_lowercase());
            SimDevice::with_slots(id, node, slots, kernel_slowdown)
        })
        .collect()
}

/// Places the BlastFunction functions onto the three devices by running
/// the registry's Algorithm 1 (paper policy) as each function is created,
/// through the same typed [`PlacementService`] surface the cluster uses —
/// so the scenario exercises the production admission path, not a replay
/// of it. Returns indices into `devices` per function.
fn blastfunction_placement(devices: &[SimDevice], bitstream: &str, count: usize) -> Vec<usize> {
    // One shard: the paper's single Accelerators Registry.
    let registry = ShardedRegistry::new(AllocationPolicy::paper(), 1);
    let placement_service: &dyn PlacementService = &registry;
    for device in devices {
        // Each board starts with the use case's bitstream configured, as
        // the hand-rolled views did before: placement never reprograms.
        let board = StaticDevice::new(device.id.as_str(), device.node.clone(), Some(bitstream));
        placement_service.register_device_handle(board.handle());
    }
    let mut placement = Vec::with_capacity(count);
    for i in 0..count {
        let function = format!("fn-{i}");
        placement_service.register_function(&function, DeviceQuery::for_accelerator(bitstream));
        // bf-lint: allow(panic): the scenario's fixed three-device topology
        // always has capacity for the requested placements by construction.
        let allocation = placement_service
            .place_instance(&function, &function)
            .expect("three devices always suffice");
        assert!(
            allocation.reconfigure.is_none(),
            "pre-configured boards never reprogram"
        );
        // bf-lint: allow(panic): `allocation.device_id` is drawn from `devices`.
        let idx = devices
            .iter()
            .position(|device| device.id == allocation.device_id)
            .expect("known id");
        placement.push(idx);
    }
    placement
}

/// Runs one multi-tenant scenario and returns its table rows.
///
/// # Panics
///
/// Panics for configurations the paper does not define (AlexNet low load).
pub fn run_scenario(config: &ScenarioConfig) -> ScenarioResult {
    let rates = table1_rates(config.use_case, config.level).unwrap_or_else(|| {
        panic!(
            "{} {} is not a paper configuration",
            config.use_case, config.level
        )
    });
    let devices = paper_devices(config.space_slots, config.space_kernel_slowdown);

    let profile = config
        .profile_override
        .clone()
        .unwrap_or_else(|| config.use_case.request_profile());
    let prefix = config.use_case.function_prefix();
    let count = config.deployment.function_count();

    let (placement, path): (Vec<usize>, PathMode) = match config.deployment {
        Deployment::Native => ((0..count).collect(), PathMode::Native),
        Deployment::BlastFunction { data_path } => {
            let costs = match data_path {
                DataPathKind::SharedMemory => PathCosts::local_shm(),
                DataPathKind::Grpc => PathCosts::local_grpc(),
            };
            (
                blastfunction_placement(&devices, config.use_case.bitstream_id(), count),
                PathMode::Remote(costs),
            )
        }
    };
    let placement = match &config.placement_override {
        Some(explicit) => {
            assert_eq!(
                explicit.len(),
                count,
                "placement override must cover every function"
            );
            assert!(
                explicit.iter().all(|d| *d < devices.len()),
                "device indices index the paper's three boards"
            );
            explicit.clone()
        }
        None => placement,
    };

    let mut rng = SimRng::seed_from_u64(config.seed);
    let functions: Vec<SimFunction> = (0..count)
        .map(|i| {
            // Stagger connection start-up the way independent hey processes
            // start: a few milliseconds apart.
            let start = VirtualTime::from_secs_f64(rng.uniform(0.0, 0.25));
            SimFunction {
                name: format!("{prefix}-{}", i + 1),
                device: placement[i],
                target: rates[i],
                pacer: ClosedLoopPacer::new(rates[i], start),
                profile: profile.clone(),
                path,
                latencies: Samples::new(),
                processed: 0,
            }
        })
        .collect();

    let window_start = VirtualTime::ZERO + config.warmup;
    let horizon = window_start + config.duration;
    let mut world = World {
        devices,
        functions,
        rng,
        jitter: config.jitter,
        gateway_forward: VirtualDuration::from_micros(300),
        response_overhead: VirtualDuration::from_micros(500),
        window_start,
        horizon,
    };

    let mut engine: Engine<World> = Engine::new();
    for f_idx in 0..count {
        let first = world.functions[f_idx].pacer.first_issue();
        schedule_request(&mut engine, f_idx, first);
    }
    engine.run(&mut world);

    collect(config, world)
}

fn collect(config: &ScenarioConfig, world: World) -> ScenarioResult {
    let window = world.horizon - world.window_start;
    let window_secs = window.as_secs_f64();

    let functions: Vec<FunctionResult> = world
        .functions
        .iter()
        .map(|f| {
            let device = &world.devices[f.device];
            FunctionResult {
                function: f.name.clone(),
                node: device.node.id().to_string(),
                device: device.id.clone(),
                utilization: device.busy_of_in(world.window_start, world.horizon, &f.name),
                mean_latency_ms: f.latencies.mean().unwrap_or(0.0),
                p95_latency_ms: f.latencies.quantile(0.95).unwrap_or(0.0),
                processed_rps: f.processed as f64 / window_secs,
                target_rps: f.target,
            }
        })
        .collect();

    let device_utilization: Vec<(String, f64)> = world
        .devices
        .iter()
        .map(|d| {
            (
                d.id.clone(),
                d.utilization_in(world.window_start, world.horizon),
            )
        })
        .collect();

    let timeline: Vec<crate::trace::TraceSpan> = world
        .devices
        .iter()
        .flat_map(|d| {
            d.slot_busy
                .iter()
                .enumerate()
                .flat_map(move |(slot, tracker)| {
                    tracker
                        .intervals()
                        .iter()
                        .map(move |iv| crate::trace::TraceSpan {
                            device: d.id.clone(),
                            slot: slot as u32,
                            owner: iv.owner.clone(),
                            start_ms: iv.start.as_millis_f64(),
                            end_ms: iv.end.as_millis_f64(),
                        })
                })
        })
        .collect();

    let total_processed: f64 = functions.iter().map(|f| f.processed_rps).sum();
    let total_target: f64 = functions.iter().map(|f| f.target_rps).sum();
    let pooled: Samples = world
        .functions
        .iter()
        .flat_map(|f| f.latencies.values().iter().copied())
        .collect();

    ScenarioResult {
        deployment: config.deployment.label().to_string(),
        use_case: config.use_case.to_string(),
        level: config.level.to_string(),
        window,
        functions,
        device_utilization: device_utilization.clone(),
        aggregate: Aggregate {
            utilization_pct: device_utilization.iter().map(|(_, u)| u * 100.0).sum(),
            mean_latency_ms: pooled.mean().unwrap_or(0.0),
            processed_rps: total_processed,
            target_rps: total_target,
        },
        timeline,
    }
}

#[cfg(test)]
mod tests {
    use bf_workloads::{LoadLevel, UseCase};

    use super::*;

    #[test]
    fn bf_placement_balances_two_two_one() {
        let p = blastfunction_placement(&paper_devices(1, 1.0), UseCase::Sobel.bitstream_id(), 5);
        let count = |d: usize| p.iter().filter(|x| **x == d).count();
        assert_eq!(count(1), 2, "two on B: {p:?}");
        assert_eq!(count(0), 2, "two on A: {p:?}");
        assert_eq!(count(2), 1, "one on C: {p:?}");
    }

    #[test]
    fn native_uses_one_device_per_function() {
        let cfg = ScenarioConfig::new(UseCase::Sobel, LoadLevel::Low, Deployment::Native);
        let result = run_scenario(&cfg);
        assert_eq!(result.functions.len(), 3);
        let devices: std::collections::HashSet<_> =
            result.functions.iter().map(|f| f.device.clone()).collect();
        assert_eq!(devices.len(), 3);
    }
}
