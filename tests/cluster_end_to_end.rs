//! Integration: the full control plane — cluster, registry, device
//! managers, allocation, reconfiguration and migration — driving real
//! (virtual-time) OpenCL traffic end to end.

use std::sync::Arc;

use blastfunction::prelude::*;
use blastfunction::registry::ENV_DEVICE_MANAGER;
use blastfunction::workloads::{mm, sobel};
use parking_lot::Mutex;

fn catalog() -> BitstreamCatalog {
    let mut catalog = BitstreamCatalog::new();
    catalog.register(sobel::bitstream());
    catalog.register(mm::bitstream());
    catalog
}

fn manager_for(node: bf_model::NodeSpec) -> DeviceManager {
    let device_id = format!("fpga-{}", node.id().as_str().to_lowercase());
    let board = Arc::new(Mutex::new(Board::new(BoardSpec::de5a_net(), *node.pcie())));
    DeviceManager::new(
        DeviceManagerConfig::standalone(&device_id).with_policy(ReconfigPolicy::Deny),
        node,
        board,
        catalog(),
    )
}

/// The paper's stack: one registry shard over the three-node testbed,
/// wired into the cluster through the typed placement API.
fn build_stack() -> (Cluster, Arc<dyn PlacementService>) {
    let cluster = Cluster::new(paper_cluster());
    let registry: Arc<dyn PlacementService> =
        Arc::new(ShardedRegistry::new(AllocationPolicy::paper(), 1));
    for node in paper_cluster() {
        registry.register_device_handle(Arc::new(manager_for(node)));
    }
    attach_placement(&cluster, registry.clone());
    (cluster, registry)
}

#[test]
fn five_functions_place_like_table_ii_and_serve_traffic() {
    let (cluster, registry) = build_stack();
    for i in 1..=5 {
        registry.register_function(
            &format!("sobel-{i}"),
            DeviceQuery::for_accelerator(sobel::SOBEL_BITSTREAM),
        );
    }
    let mut instances = Vec::new();
    for i in 1..=5 {
        instances.push(
            cluster
                .create_instance(InstanceTemplate::new(format!("sobel-{i}")))
                .expect("admission + scheduling"),
        );
    }

    // Placement distribution from Table II: 2 on B, 2 on A, 1 on C.
    let on = |node: &str| {
        instances
            .iter()
            .filter(|i| i.node.as_ref().map(NodeId::as_str) == Some(node))
            .count()
    };
    assert_eq!(on("B"), 2);
    assert_eq!(on("A"), 2);
    assert_eq!(on("C"), 1);

    // Co-location invariant: every pod runs on its device's node.
    for inst in &instances {
        let device = &inst.env[ENV_DEVICE_MANAGER];
        let manager = registry.manager(device).expect("manager");
        assert_eq!(inst.node.as_ref(), Some(manager.node().id()));
    }

    // Each placed instance drives a real request through its manager.
    let (w, h) = (32u32, 24u32);
    let frame = vec![0xffa0_50f0u32; (w * h) as usize];
    let expected = sobel::reference(&frame, w, h);
    for inst in &instances {
        let device_id = inst.env[ENV_DEVICE_MANAGER].clone();
        let manager = registry.manager(&device_id).expect("manager");
        let mut router = Router::new();
        router.add_manager(manager);
        let device = router
            .connect(
                0,
                &inst.id.to_string(),
                PathCosts::local_shm(),
                VirtualClock::new(),
            )
            .expect("connect");
        let ctx = device.create_context().expect("ctx");
        let program = ctx.build_program(sobel::SOBEL_BITSTREAM).expect("program");
        let kernel = program.create_kernel(sobel::SOBEL_KERNEL).expect("kernel");
        let input = ctx.create_buffer(sobel::frame_bytes(w, h)).expect("in");
        let output = ctx.create_buffer(sobel::frame_bytes(w, h)).expect("out");
        let queue = ctx.create_queue().expect("queue");
        queue
            .write(&input, sobel::pack_pixels(&frame))
            .expect("write");
        kernel.set_arg_buffer(0, &input).expect("a0");
        kernel.set_arg_buffer(1, &output).expect("a1");
        kernel.set_arg(2, ArgValue::U32(w)).expect("a2");
        kernel.set_arg(3, ArgValue::U32(h)).expect("a3");
        queue
            .launch(&kernel, NdRange::d2(w.into(), h.into()))
            .expect("launch");
        queue.finish().expect("finish");
        let got = sobel::unpack_pixels(&queue.read_vec(&output).expect("read"));
        assert_eq!(got, expected, "instance {} computed a wrong frame", inst.id);
    }

    // All five instances stay visible to the allocator.
    registry.gather_metrics();
    let views = registry.device_views();
    let total_connected: usize = views.iter().map(|v| v.connected.len()).sum();
    assert_eq!(total_connected, 5);
}

#[test]
fn wrong_bitstream_triggers_validated_reconfiguration_and_migration() {
    let (cluster, registry) = build_stack();
    // Fill all three boards with mm tenants first.
    for i in 1..=3 {
        registry.register_function(
            &format!("mm-{i}"),
            DeviceQuery::for_accelerator(mm::MM_BITSTREAM),
        );
        cluster
            .create_instance(InstanceTemplate::new(format!("mm-{i}")))
            .expect("mm instance");
    }
    for id in registry.device_ids() {
        assert_eq!(
            registry
                .manager(&id)
                .expect("manager")
                .bitstream_id()
                .as_deref(),
            Some(mm::MM_BITSTREAM)
        );
    }

    // A sobel function arrives: no compatible board, but mm tenants can be
    // redistributed, so Algorithm 1 flags a reconfiguration + migration.
    registry.register_function(
        "sobel-1",
        DeviceQuery::for_accelerator(sobel::SOBEL_BITSTREAM),
    );
    let inst = cluster
        .create_instance(InstanceTemplate::new("sobel-1"))
        .expect("sobel instance");
    let sobel_device = inst.env[ENV_DEVICE_MANAGER].clone();
    assert_eq!(
        registry
            .manager(&sobel_device)
            .expect("manager")
            .bitstream_id()
            .as_deref(),
        Some(sobel::SOBEL_BITSTREAM),
        "the chosen board was reprogrammed"
    );

    // The displaced mm tenants survived elsewhere (create-before-delete).
    let mm_instances: Vec<_> = cluster
        .instances()
        .into_iter()
        .filter(|i| i.function.starts_with("mm-"))
        .collect();
    assert_eq!(mm_instances.len(), 3, "no mm tenant was lost");
    for mm_inst in &mm_instances {
        let dev = registry.binding(&mm_inst.id.to_string()).expect("bound");
        assert_ne!(
            dev, sobel_device,
            "mm tenants moved off the reprogrammed board"
        );
    }
}

#[test]
fn autoscaler_replicas_pass_admission_and_spread_over_devices() {
    use blastfunction::serverless::{AutoscalePolicy, Autoscaler, LoadSignal};

    let (cluster, registry) = build_stack();
    registry.register_function(
        "sobel-1",
        DeviceQuery::for_accelerator(sobel::SOBEL_BITSTREAM),
    );

    let scaler = Autoscaler::new(cluster.clone());
    scaler.set_policy(
        "sobel-1",
        AutoscalePolicy::new()
            .with_target_rps_per_replica(20.0)
            .with_bounds(1, 3),
    );

    // 55 rq/s observed -> 3 replicas, each admitted by the registry and
    // therefore bound to a device and pinned to its node.
    let action = scaler
        .reconcile("sobel-1", &LoadSignal::from_rps(55.0))
        .expect("scale up");
    assert_eq!(action.created.len(), 3);
    let devices: std::collections::HashSet<String> = cluster
        .instances()
        .iter()
        .map(|i| i.env[ENV_DEVICE_MANAGER].clone())
        .collect();
    assert_eq!(
        devices.len(),
        3,
        "Algorithm 1 spread the replicas over all boards"
    );

    // Load drops: scale back down; bindings of deleted replicas are
    // released so the allocator sees the freed capacity.
    let action = scaler
        .reconcile("sobel-1", &LoadSignal::from_rps(5.0))
        .expect("scale down");
    assert_eq!(action.deleted.len(), 2);
    for _ in 0..100 {
        let views = registry.device_views();
        let connected: usize = views.iter().map(|v| v.connected.len()).sum();
        if connected == 1 {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    panic!("bindings of deleted replicas were not released");
}

#[test]
fn client_initiated_reconfiguration_respects_the_validator() {
    let cluster = Cluster::new(paper_cluster());
    let registry: Arc<dyn PlacementService> =
        Arc::new(ShardedRegistry::new(AllocationPolicy::paper(), 1));
    let node = node_b();
    let board = Arc::new(Mutex::new(Board::new(BoardSpec::de5a_net(), *node.pcie())));
    // The manager consults the registry's validator for client-initiated
    // reconfiguration requests.
    let manager = DeviceManager::new(
        DeviceManagerConfig::standalone("fpga-b").with_policy(ReconfigPolicy::Validate(
            blastfunction::registry::reconfig_validator(registry.clone()),
        )),
        node,
        board,
        catalog(),
    );
    registry.register_device_handle(Arc::new(manager.clone()));
    attach_placement(&cluster, registry.clone());
    registry.register_function("mm-1", DeviceQuery::for_accelerator(mm::MM_BITSTREAM));
    let inst = cluster
        .create_instance(InstanceTemplate::new("mm-1"))
        .expect("instance");

    // The bound instance may reconfigure its own device…
    let endpoint = manager.connect(&inst.id.to_string(), PathCosts::local_shm());
    let backend = RemoteBackend::connect(endpoint, VirtualClock::new()).expect("connect");
    backend
        .reconfigure(sobel::SOBEL_BITSTREAM)
        .expect("validated reconfiguration");
    assert_eq!(
        manager.bitstream_id().as_deref(),
        Some(sobel::SOBEL_BITSTREAM)
    );

    // …while an unbound impostor is refused.
    let endpoint = manager.connect("impostor", PathCosts::local_shm());
    let impostor = RemoteBackend::connect(endpoint, VirtualClock::new()).expect("connect");
    let err = impostor
        .reconfigure(mm::MM_BITSTREAM)
        .expect_err("must be refused");
    assert!(matches!(err, ClError::AccessDenied(_)), "got {err:?}");
    assert_eq!(
        manager.bitstream_id().as_deref(),
        Some(sobel::SOBEL_BITSTREAM)
    );
}

#[test]
fn sharded_registry_drives_the_same_cluster_admission_path() {
    // The same end-to-end stack over two shards — through the identical
    // attach_placement call. Admission, device injection, node pinning
    // and the manager a pod dials must be indistinguishable from the
    // one-shard stack.
    let cluster = Cluster::new(paper_cluster());
    let sharded = ShardedRegistry::new(AllocationPolicy::paper(), 2);
    for node in paper_cluster() {
        sharded.register_device_handle(Arc::new(manager_for(node)));
    }
    attach_placement(&cluster, Arc::new(sharded.clone()));

    for i in 1..=5 {
        sharded.register_function(
            &format!("sobel-{i}"),
            DeviceQuery::for_accelerator(sobel::SOBEL_BITSTREAM),
        );
    }
    let mut instances = Vec::new();
    for i in 1..=5 {
        instances.push(
            cluster
                .create_instance(InstanceTemplate::new(format!("sobel-{i}")))
                .expect("admission through the federation"),
        );
    }

    // Every pod's DEVICE_MANAGER_ADDRESS resolves to the live manager of
    // its board, and a Remote OpenCL Library backend connects through it.
    let pods_reach_their_managers = |when: &str| {
        for inst in &instances {
            let device = &inst.env[ENV_DEVICE_MANAGER];
            let manager = sharded
                .manager(device)
                .unwrap_or_else(|| panic!("{when}: no manager behind {device}"));
            assert_eq!(manager.device_id(), device);
            let endpoint = manager.connect(&inst.id.to_string(), PathCosts::local_shm());
            RemoteBackend::connect(endpoint, VirtualClock::new())
                .unwrap_or_else(|e| panic!("{when}: {} cannot dial {device}: {e:?}", inst.id));
        }
    };
    pods_reach_their_managers("after admission");

    // Every pod got a device and was pinned to that device's node.
    for inst in &instances {
        let device = &inst.env[ENV_DEVICE_MANAGER];
        let bound = sharded.binding(&inst.id.to_string());
        assert_eq!(bound.as_deref(), Some(device.as_str()));
        let view_nodes: std::collections::HashMap<String, NodeId> = sharded
            .device_views()
            .into_iter()
            .map(|v| (v.id, v.node))
            .collect();
        assert_eq!(inst.node.as_ref(), view_nodes.get(device.as_str()));
    }

    // All five instances are visible across the federation, and a
    // deterministic join/leave rebalance preserves every binding and
    // every manager.
    let connected: usize = sharded
        .device_views()
        .iter()
        .map(|v| v.connected.len())
        .sum();
    assert_eq!(connected, 5);
    let (joined, _) = sharded.add_shard();
    pods_reach_their_managers("after add_shard");
    sharded.remove_shard(&joined);
    pods_reach_their_managers("after remove_shard");
    for inst in &instances {
        assert!(
            sharded.binding(&inst.id.to_string()).is_some(),
            "rebalance must not strand {}",
            inst.id
        );
    }
}
