#![forbid(unsafe_code)]

//! # bf-registry — the BlastFunction Accelerators Registry
//!
//! The master component of the system (paper §III-C), reached through
//! the typed [`PlacementService`] trait and implemented by one type,
//! [`ShardedRegistry`] — `ShardedRegistry::new(policy, 1)` is the
//! paper's single registry, a larger count the same code federated over
//! rendezvous-hashed shards:
//!
//! * the **Devices Service** and **Functions Service** register boards and
//!   serverless functions;
//! * the **Metrics Gatherer** scrapes each Device Manager's
//!   Prometheus-format metrics and feeds FPGA time utilization into
//!   allocation;
//! * the **online allocation algorithm** (Algorithm 1 — [`allocate`])
//!   filters devices by compatibility and metrics, orders them by the
//!   SLA-chosen metric priority and accelerator compatibility, and falls
//!   back to reconfiguration when the required accelerator is missing but
//!   the displaced workloads can be redistributed;
//! * **reconfiguration + migration**: tenants are moved with Kubernetes'
//!   create-before-delete semantics before the board is reprogrammed.
//!
//! ```
//! use bf_registry::{AllocationPolicy, DeviceQuery, PlacementService, ShardedRegistry};
//!
//! let registry = ShardedRegistry::new(AllocationPolicy::paper(), 1);
//! registry.register_function("sobel-1", DeviceQuery::for_accelerator("spector-sobel"));
//! assert!(registry.function("sobel-1").is_some());
//! ```

mod allocation;
mod device;
mod gatherer;
mod query;
mod registry;
mod service;
mod shard;

pub use allocation::{
    allocate, AllocateError, Allocation, AllocationPolicy, DeviceView, MetricFilter, MetricKey,
    Warmth,
};
pub use device::{BoardState, RegistryDevice, StaticDevice};
pub use gatherer::{gauge_for_device, parse_scrape, ScrapeSample};
pub use query::DeviceQuery;
pub use registry::{
    ContentionStats, FunctionRecord, RegistryError, ENV_DEVICE_MANAGER, SHM_VOLUME_PREFIX,
};
pub use service::{
    admission_hook, attach_placement, reconfig_validator, ContentionReport, PlacementOutcomes,
    PlacementService, ShardLoadSummary,
};
pub use shard::{hrw_owner, FederatedAllocator, ShardedRegistry};

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use bf_cluster::{Cluster, InstanceTemplate};
    use bf_devmgr::{DeviceManager, DeviceManagerConfig, ReconfigPolicy};
    use bf_fpga::{Bitstream, Board, BoardSpec};
    use bf_model::{node_a, node_b, node_c, paper_cluster, NodeSpec};
    use bf_ocl::BitstreamCatalog;
    use parking_lot::Mutex;

    use super::*;

    fn catalog() -> BitstreamCatalog {
        let mut cat = BitstreamCatalog::new();
        cat.register(Arc::new(Bitstream::new("sobel", vec![])));
        cat.register(Arc::new(Bitstream::new("mm", vec![])));
        cat
    }

    fn manager(id: &str, node: NodeSpec) -> DeviceManager {
        let board = Arc::new(Mutex::new(Board::new(BoardSpec::de5a_net(), *node.pcie())));
        DeviceManager::new(
            DeviceManagerConfig::standalone(id).with_policy(ReconfigPolicy::Deny),
            node,
            board,
            catalog(),
        )
    }

    /// Every behaviour test runs at both: the paper's single registry
    /// and a federation with as many shards as devices.
    const SHARD_COUNTS: [usize; 2] = [1, 3];

    fn registry_with_devices(shards: usize, devices: &[(&str, NodeSpec)]) -> ShardedRegistry {
        let registry = ShardedRegistry::new(AllocationPolicy::paper(), shards);
        for (id, node) in devices {
            registry.register_device_handle(Arc::new(manager(id, node.clone())));
        }
        registry
    }

    fn registry_with_three_devices(shards: usize) -> ShardedRegistry {
        registry_with_devices(
            shards,
            &[
                ("fpga-a", node_a()),
                ("fpga-b", node_b()),
                ("fpga-c", node_c()),
            ],
        )
    }

    fn attach(cluster: &Cluster, registry: &ShardedRegistry) {
        attach_placement(cluster, Arc::new(registry.clone()));
    }

    #[test]
    fn placement_balances_and_programs_blank_boards() {
        // One shard is the paper's registry and reproduces Table II's
        // distribution (two on A, two on B, one on C). Three shards put
        // each board in its own shard, and the federated router keeps
        // later replicas on shards already configured with sobel while
        // they are within the load bound — board A is never needed.
        for (shards, expected) in [(1, [2, 2, 1]), (3, [0, 2, 3])] {
            let registry = registry_with_three_devices(shards);
            for i in 1..=5 {
                registry.register_function(
                    &format!("sobel-{i}"),
                    DeviceQuery::for_accelerator("sobel"),
                );
            }
            let mut nodes = Vec::new();
            for i in 1..=5 {
                let placement = registry
                    .place_instance(&format!("inst-{i}"), &format!("sobel-{i}"))
                    .expect("placement");
                nodes.push(placement.node.as_str().to_string());
            }
            let count = |n: &str| nodes.iter().filter(|x| x.as_str() == n).count();
            assert_eq!(
                [count("A"), count("B"), count("C")],
                expected,
                "{shards} shards placed {nodes:?}"
            );
            // Exactly the boards that took a tenant were programmed, on
            // demand, with the sobel bitstream.
            for view in registry.device_views() {
                let mgr = registry.manager(&view.id).expect("manager");
                let programmed = (!view.connected.is_empty()).then_some("sobel");
                assert_eq!(mgr.bitstream_id().as_deref(), programmed, "{}", view.id);
            }
        }
    }

    #[test]
    fn unknown_function_is_rejected() {
        for shards in SHARD_COUNTS {
            let registry = registry_with_three_devices(shards);
            assert!(matches!(
                registry.place_instance("inst-1", "ghost"),
                Err(RegistryError::UnknownFunction(_))
            ));
        }
    }

    #[test]
    fn gather_metrics_updates_views() {
        for shards in SHARD_COUNTS {
            let registry = registry_with_three_devices(shards);
            registry.gather_metrics();
            let views = registry.device_views();
            assert_eq!(views.len(), 3);
            assert!(views.iter().all(|v| v.utilization == 0.0), "idle boards");
        }
    }

    /// Drives one 1 MiB write through `manager` so its op-latency
    /// histogram has a sample.
    fn drive_one_write(manager: &DeviceManager) {
        use bf_rpc::{DataRef, PathCosts, Request, RequestEnvelope, Response};

        let endpoint = manager.connect("latency-probe", PathCosts::local_grpc());
        let send = |tag, body| {
            endpoint
                .channel
                .send(&RequestEnvelope {
                    tag,
                    client: endpoint.client,
                    sent_at: bf_model::VirtualTime::ZERO,
                    body,
                })
                .expect("send");
        };
        let response_to = |tag| loop {
            let resp = endpoint
                .channel
                .recv_timeout(std::time::Duration::from_secs(5))
                .expect("resp");
            if resp.tag == tag {
                break resp.body;
            }
        };
        let handle_for = |tag| match response_to(tag) {
            Response::Handle { id } => id,
            other => panic!("expected a handle, got {other:?}"),
        };
        send(1, Request::CreateContext);
        let ctx = handle_for(1);
        send(
            2,
            Request::CreateBuffer {
                context: ctx,
                len: 1 << 20,
            },
        );
        let buf = handle_for(2);
        send(3, Request::CreateQueue { context: ctx });
        let queue = handle_for(3);
        send(
            4,
            Request::EnqueueWrite {
                queue,
                buffer: buf,
                offset: 0,
                data: DataRef::Synthetic(1 << 20),
            },
        );
        send(5, Request::Finish { queue });
        while !matches!(response_to(5), Response::Completed { .. }) {}
    }

    #[test]
    fn gatherer_extracts_op_latency_from_the_histogram() {
        for shards in SHARD_COUNTS {
            let registry = registry_with_three_devices(shards);
            let manager = registry.manager("fpga-b").expect("manager");
            manager.program("sobel").expect("program");
            drive_one_write(&manager);
            registry.gather_metrics();
            let view = registry
                .device_views()
                .into_iter()
                .find(|v| v.id == "fpga-b")
                .expect("fpga-b view");
            assert!(
                view.mean_op_latency_ms > 0.0,
                "mean op latency should be gathered, got {}",
                view.mean_op_latency_ms
            );
        }
    }

    #[test]
    fn validator_approves_only_bound_instances() {
        for shards in SHARD_COUNTS {
            let registry = registry_with_three_devices(shards);
            registry.register_function("sobel-1", DeviceQuery::for_accelerator("sobel"));
            let placement = registry.place_instance("inst-1", "sobel-1").expect("place");
            let validator = reconfig_validator(Arc::new(registry.clone()));
            let ok = bf_devmgr::ReconfigRequest {
                client_name: "inst-1".to_string(),
                bitstream: "mm".to_string(),
                device_id: placement.device_id.clone(),
            };
            assert!(validator(&ok));
            let spoofed = bf_devmgr::ReconfigRequest {
                client_name: "someone-else".to_string(),
                bitstream: "mm".to_string(),
                device_id: placement.device_id,
            };
            assert!(!validator(&spoofed));
        }
    }

    #[test]
    fn cluster_admission_patches_instances() {
        for shards in SHARD_COUNTS {
            let cluster = Cluster::new(paper_cluster());
            let registry = registry_with_three_devices(shards);
            attach(&cluster, &registry);
            registry.register_function("sobel-1", DeviceQuery::for_accelerator("sobel"));
            let inst = cluster
                .create_instance(InstanceTemplate::new("sobel-1"))
                .expect("create");
            let device = inst.env.get(ENV_DEVICE_MANAGER).expect("device injected");
            assert!(device.starts_with("fpga-"));
            assert!(inst
                .volumes
                .iter()
                .any(|v| v.starts_with(SHM_VOLUME_PREFIX)));
            let bound = registry.binding(&inst.id.to_string()).expect("bound");
            assert_eq!(&bound, device);
            // Forced co-location with the device's node:
            let mgr = registry.manager(device).expect("manager");
            assert_eq!(inst.node.as_ref(), Some(mgr.node().id()));
        }
    }

    #[test]
    fn deletion_releases_the_binding() {
        for shards in SHARD_COUNTS {
            let cluster = Cluster::new(paper_cluster());
            let registry = registry_with_three_devices(shards);
            attach(&cluster, &registry);
            registry.register_function("sobel-1", DeviceQuery::for_accelerator("sobel"));
            let inst = cluster
                .create_instance(InstanceTemplate::new("sobel-1"))
                .expect("create");
            let name = inst.id.to_string();
            assert!(registry.binding(&name).is_some());
            cluster.delete_instance(inst.id).expect("delete");
            let released = (0..100).any(|_| {
                std::thread::sleep(std::time::Duration::from_millis(5));
                registry.binding(&name).is_none()
            });
            assert!(released, "binding not released after deletion");
        }
    }

    #[test]
    fn reconfiguration_migrates_tenants_before_programming() {
        for shards in SHARD_COUNTS {
            let cluster = Cluster::new(paper_cluster());
            // Two devices so the displaced mm tenant has somewhere to go.
            let registry =
                registry_with_devices(shards, &[("fpga-b", node_b()), ("fpga-c", node_c())]);
            attach(&cluster, &registry);
            registry.register_function("mm-1", DeviceQuery::for_accelerator("mm"));

            let inst = cluster
                .create_instance(InstanceTemplate::new("mm-1"))
                .expect("create mm");
            let mm_device = registry.binding(&inst.id.to_string()).expect("bound");

            registry
                .reconfigure_device(&mm_device, "sobel")
                .expect("reconfigure");
            let mgr = registry.manager(&mm_device).expect("manager");
            assert_eq!(mgr.bitstream_id().as_deref(), Some("sobel"));

            // The mm tenant survived as a replacement pod bound elsewhere.
            let instances = cluster.instances();
            assert_eq!(instances.len(), 1);
            let replacement = &instances[0];
            assert_ne!(
                replacement.id, inst.id,
                "create-before-delete produced a new pod"
            );
            let new_device = registry
                .binding(&replacement.id.to_string())
                .expect("rebound");
            assert_ne!(
                new_device, mm_device,
                "the tenant moved off the reconfigured board"
            );
        }
    }

    #[test]
    fn device_failure_migrates_tenants_to_survivors() {
        for shards in SHARD_COUNTS {
            let cluster = Cluster::new(paper_cluster());
            let registry = registry_with_three_devices(shards);
            attach(&cluster, &registry);
            for i in 1..=3 {
                registry.register_function(
                    &format!("sobel-{i}"),
                    DeviceQuery::for_accelerator("sobel"),
                );
                cluster
                    .create_instance(InstanceTemplate::new(format!("sobel-{i}")))
                    .expect("create");
            }
            // Pick the device of sobel-1's pod and fail it.
            let victim_pod = cluster.instances()[0].clone();
            let failed_device = registry.binding(&victim_pod.id.to_string()).expect("bound");
            let co_tenants = registry
                .device_views()
                .into_iter()
                .find(|v| v.id == failed_device)
                .expect("victim's board is registered")
                .connected
                .len();
            let migrated = registry
                .handle_device_failure(&failed_device)
                .expect("failure handled");
            assert!(
                migrated.contains(&victim_pod.id.to_string()),
                "{migrated:?}"
            );
            assert_eq!(migrated.len(), co_tenants, "exactly the board's tenants");
            // The device is gone from the service…
            assert!(registry.manager(&failed_device).is_none());
            assert_eq!(registry.device_ids().len(), 2);
            // …and the tenant survived on another device.
            let replacement = cluster
                .instances()
                .into_iter()
                .find(|i| i.function == victim_pod.function)
                .expect("replacement pod exists");
            assert_ne!(replacement.id, victim_pod.id, "create-before-delete");
            let new_device = registry
                .binding(&replacement.id.to_string())
                .expect("rebound");
            assert_ne!(new_device, failed_device);
            // Failing an unknown device errors.
            assert!(matches!(
                registry.handle_device_failure("fpga-ghost"),
                Err(RegistryError::UnknownDevice(_))
            ));
        }
    }

    #[test]
    fn failover_skips_a_tenant_whose_pod_is_already_gone() {
        for shards in SHARD_COUNTS {
            // Admission without the deletion watcher: a deleted pod keeps
            // its binding until someone releases it, as while a watcher
            // is stalled.
            let cluster = Cluster::new(paper_cluster());
            let registry =
                registry_with_devices(shards, &[("fpga-b", node_b()), ("fpga-c", node_c())]);
            registry.bind_cluster(&cluster);
            cluster.set_admission_hook(admission_hook(Arc::new(registry.clone())));
            registry.register_function("sobel", DeviceQuery::for_accelerator("sobel"));
            let pods: Vec<_> = (0..3)
                .map(|_| {
                    cluster
                        .create_instance(InstanceTemplate::new("sobel"))
                        .expect("create")
                })
                .collect();
            let device = |pod: &bf_cluster::InstanceSpec| registry.binding(&pod.id.to_string());
            let shared = device(&pods[0]).expect("bound");
            let live: Vec<_> = pods[1..]
                .iter()
                .filter(|p| device(p).as_ref() == Some(&shared))
                .collect();
            assert!(!live.is_empty(), "pods share {shared}");
            cluster.delete_instance(pods[0].id).expect("delete");

            let tenants = registry.handle_device_failure(&shared).expect("failover");
            assert_eq!(tenants.len(), 1 + live.len(), "{tenants:?}");
            for pod in live {
                assert!(cluster.instance(pod.id).is_none(), "live tenant replaced");
            }
            for pod in cluster.instances() {
                let bound = registry.binding(&pod.id.to_string());
                assert!(bound.is_some_and(|d| d != shared), "{pod:?}");
            }
        }
    }

    #[test]
    fn scale_out_registers_new_devices_at_runtime() {
        // The paper's future work: nodes autoscaling. The Devices Service
        // already supports it — a board registered mid-run immediately
        // participates in allocation. In one shard the empty newcomer
        // wins the next placement under the connected-functions
        // ordering; across shards the router keeps the replica on the
        // shard already configured with sobel, still within the load
        // bound.
        for (shards, second_device, second_node) in [(1, "fpga-c", "C"), (3, "fpga-b", "B")] {
            let cluster = Cluster::new(paper_cluster());
            let registry = registry_with_devices(shards, &[("fpga-b", node_b())]);
            attach(&cluster, &registry);
            for i in 1..=2 {
                registry.register_function(
                    &format!("sobel-{i}"),
                    DeviceQuery::for_accelerator("sobel"),
                );
            }
            let first = cluster
                .create_instance(InstanceTemplate::new("sobel-1"))
                .expect("create");
            assert_eq!(first.env[ENV_DEVICE_MANAGER], "fpga-b");

            // A new node joins the cluster with a fresh board.
            registry.register_device_handle(Arc::new(manager("fpga-c", node_c())));
            let second = cluster
                .create_instance(InstanceTemplate::new("sobel-2"))
                .expect("create");
            assert_eq!(second.env[ENV_DEVICE_MANAGER], second_device);
            assert_eq!(second.node, Some(bf_model::NodeId::new(second_node)));
            assert_eq!(registry.device_ids(), ["fpga-b", "fpga-c"]);
        }
    }

    #[test]
    fn admission_failure_propagates_to_create() {
        for shards in SHARD_COUNTS {
            let cluster = Cluster::new(paper_cluster());
            let registry = registry_with_devices(shards, &[]); // no devices registered
            attach(&cluster, &registry);
            registry.register_function("sobel-1", DeviceQuery::for_accelerator("sobel"));
            let err = cluster
                .create_instance(InstanceTemplate::new("sobel-1"))
                .expect_err("no devices");
            assert!(matches!(err, bf_cluster::ClusterError::AdmissionDenied(_)));
        }
    }
}
