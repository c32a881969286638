//! The full BlastFunction stack: cluster, registry, device managers,
//! allocation, and the multi-tenant cluster simulation.
//!
//! Part 1 wires the control plane together the way the paper's Fig. 1
//! shows: three nodes with one Device Manager each, the Accelerators
//! Registry intercepting Kubernetes pod creation to run Algorithm 1, patch
//! the pod (device address, shm volume, forced host) and keep bindings.
//!
//! Part 2 replays Table II's medium-load Sobel experiment in the
//! discrete-event cluster simulation and prints the paper-style table.
//!
//! Run with: `cargo run --example serverless_cluster`

use std::error::Error;
use std::sync::Arc;

use blastfunction::prelude::*;
use blastfunction::workloads::sobel;
use parking_lot::Mutex;

fn main() -> Result<(), Box<dyn Error>> {
    // ---- Part 1: control plane -----------------------------------------
    println!("== Part 1: allocation through the Accelerators Registry ==\n");

    let mut catalog = BitstreamCatalog::new();
    catalog.register(sobel::bitstream());

    let cluster = Cluster::new(paper_cluster());
    // One shard is the paper's single Accelerators Registry.
    let registry: Arc<dyn PlacementService> =
        Arc::new(ShardedRegistry::new(AllocationPolicy::paper(), 1));
    for node in paper_cluster() {
        let device_id = format!("fpga-{}", node.id().as_str().to_lowercase());
        let board = Arc::new(Mutex::new(Board::new(BoardSpec::de5a_net(), *node.pcie())));
        let manager = DeviceManager::new(
            DeviceManagerConfig::standalone(&device_id),
            node,
            board,
            catalog.clone(),
        );
        registry.register_device_handle(Arc::new(manager));
    }
    // Wire the cluster through the typed placement API: the admission
    // hook and deletion watcher see only `dyn PlacementService`, so a
    // larger shard count changes nothing below this line.
    attach_placement(&cluster, registry.clone());

    // Deploy five Sobel functions; the admission hook runs Algorithm 1.
    for i in 1..=5 {
        let name = format!("sobel-{i}");
        registry.register_function(&name, DeviceQuery::for_accelerator(sobel::SOBEL_BITSTREAM));
        let instance = cluster.create_instance(InstanceTemplate::new(&name))?;
        println!(
            "  {name}: pod {} -> device {} on node {} (volumes: {:?})",
            instance.id,
            instance.env["DEVICE_MANAGER_ADDRESS"],
            instance.node.as_ref().map(|n| n.as_str()).unwrap_or("?"),
            instance.volumes,
        );
    }

    // Each instance now dials its manager and issues one real request.
    println!("\n  Driving one warm-up request through each placed instance:");
    for instance in cluster.instances() {
        let device_id = instance.env["DEVICE_MANAGER_ADDRESS"].clone();
        let manager = registry.manager(&device_id).expect("bound manager exists");
        let mut router = Router::new();
        router.add_manager(manager);
        let clock = VirtualClock::new();
        let device = router.connect(
            0,
            &instance.id.to_string(),
            PathCosts::local_shm(),
            clock.clone(),
        )?;
        let ctx = device.create_context()?;
        let program = ctx.build_program(sobel::SOBEL_BITSTREAM)?;
        let kernel = program.create_kernel(sobel::SOBEL_KERNEL)?;
        let (w, h) = (32u32, 32u32);
        let input = ctx.create_buffer(sobel::frame_bytes(w, h))?;
        let output = ctx.create_buffer(sobel::frame_bytes(w, h))?;
        let queue = ctx.create_queue()?;
        let frame = vec![0xff80_8080u32; (w * h) as usize];
        let t0 = clock.now();
        queue.write(&input, sobel::pack_pixels(&frame))?;
        kernel.set_arg_buffer(0, &input)?;
        kernel.set_arg_buffer(1, &output)?;
        kernel.set_arg(2, ArgValue::U32(w))?;
        kernel.set_arg(3, ArgValue::U32(h))?;
        queue.launch(&kernel, NdRange::d2(w.into(), h.into()))?;
        queue.finish()?;
        let _edges = queue.read_vec(&output)?;
        println!(
            "    {} on {device_id}: request served in {}",
            instance.id,
            clock.now() - t0
        );
    }

    // ---- Part 2: Table II medium load, simulated ------------------------
    println!("\n== Part 2: Table II (Sobel, medium load) via the cluster DES ==\n");
    for deployment in [
        Deployment::BlastFunction {
            data_path: DataPathKind::SharedMemory,
        },
        Deployment::Native,
    ] {
        let result = run_scenario(&ScenarioConfig::new(
            UseCase::Sobel,
            LoadLevel::Medium,
            deployment,
        ));
        print!("{}", result.render_per_function());
        println!(
            "  aggregate: {:.2}% utilization (max 300%), {:.2} ms mean latency\n",
            result.aggregate.utilization_pct, result.aggregate.mean_latency_ms
        );
    }
    println!("BlastFunction runs five functions on three boards; Native only three.");
    Ok(())
}
