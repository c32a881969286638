//! Scenario assembly and execution.

use bf_model::{node_a, node_b, node_c, DataPathKind, VirtualDuration, VirtualTime};
use bf_registry::{AllocationPolicy, DeviceQuery, PlacementService, ShardedRegistry, StaticDevice};
use bf_rpc::PathCosts;
use bf_serverless::{table1_rates, ClosedLoopPacer, UseCase};
use bf_simkit::{Engine, Samples, SimRng};
use bf_workloads::{mm, sobel, CnnNetwork, RequestProfile};

use crate::config::{Deployment, ScenarioConfig};
use crate::result::{Aggregate, FunctionResult, ScenarioResult};
use crate::world::{schedule_request, PathMode, SimDevice, SimFunction, World};

/// The workload parameters the paper's Tables II–IV run with.
///
/// * Sobel: 1920×1080 frames (the largest Fig. 4(b) point);
/// * MM: 448×448 matrices (service times consistent with Table III);
/// * AlexNet: the standard 227×227×3 network.
pub fn request_profile(use_case: UseCase) -> RequestProfile {
    match use_case {
        UseCase::Sobel => sobel::request_profile(1920, 1080),
        UseCase::Mm => mm::request_profile(448),
        UseCase::AlexNet => CnnNetwork::alexnet().request_profile(),
    }
}

fn function_prefix(use_case: UseCase) -> &'static str {
    match use_case {
        UseCase::Sobel => "sobel",
        UseCase::Mm => "mm",
        UseCase::AlexNet => "alexnet",
    }
}

fn accelerator_id(use_case: UseCase) -> &'static str {
    match use_case {
        UseCase::Sobel => sobel::SOBEL_BITSTREAM,
        UseCase::Mm => mm::MM_BITSTREAM,
        UseCase::AlexNet => "pipecnn-alexnet",
    }
}

/// Places the BlastFunction functions onto the three devices by running
/// the registry's Algorithm 1 (paper policy) as each function is created,
/// through the same typed [`PlacementService`] surface the cluster uses —
/// so the scenario exercises the production admission path, not a replay
/// of it. Returns device indices (0 = A, 1 = B, 2 = C) per function.
fn blastfunction_placement(use_case: UseCase, count: usize) -> Vec<usize> {
    let bitstream = accelerator_id(use_case);
    let ids = ["fpga-a", "fpga-b", "fpga-c"];
    let nodes = [node_a(), node_b(), node_c()];
    // One shard: the paper's single Accelerators Registry.
    let registry = ShardedRegistry::new(AllocationPolicy::paper(), 1);
    let placement_service: &dyn PlacementService = &registry;
    for (id, node) in ids.iter().zip(nodes) {
        // Each board starts with the use case's bitstream configured, as
        // the hand-rolled views did before: placement never reprograms.
        placement_service
            .register_device_handle(StaticDevice::new(*id, node, Some(bitstream)).handle());
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
        // bf-lint: allow(panic): `allocation.device_id` is drawn from `ids`.
        let idx = ids
            .iter()
            .position(|id| *id == allocation.device_id)
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
    let nodes = [node_a(), node_b(), node_c()];
    let ids = ["fpga-a", "fpga-b", "fpga-c"];
    let devices: Vec<SimDevice> = ids
        .iter()
        .zip(nodes.iter())
        .map(|(id, node)| {
            SimDevice::with_slots(
                *id,
                node.clone(),
                config.space_slots,
                config.space_kernel_slowdown,
            )
        })
        .collect();

    let profile = config
        .profile_override
        .clone()
        .unwrap_or_else(|| request_profile(config.use_case));
    let prefix = function_prefix(config.use_case);
    let count = config.deployment.function_count();

    let (placement, path): (Vec<usize>, PathMode) = match config.deployment {
        Deployment::Native => ((0..count).collect(), PathMode::Native),
        Deployment::BlastFunction { data_path } => {
            let costs = match data_path {
                DataPathKind::SharedMemory => PathCosts::local_shm(),
                DataPathKind::Grpc => PathCosts::local_grpc(),
            };
            (
                blastfunction_placement(config.use_case, count),
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
            assert!(explicit.iter().all(|d| *d < 3), "device indices are 0..3");
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
    use bf_serverless::LoadLevel;

    use super::*;

    #[test]
    fn bf_placement_balances_two_two_one() {
        let p = blastfunction_placement(UseCase::Sobel, 5);
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
