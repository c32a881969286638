//! Autoscaling: the Gateway responsibility the paper delegates to OpenFaaS
//! ("forwards the requests to the functions and handles autoscaling"),
//! closed over the Accelerators Registry.
//!
//! A Sobel function starts with one replica. As observed load rises, the
//! autoscaler creates replicas through the cluster — each one passes the
//! registry's admission hook, so each replica gets its own device
//! allocation (Algorithm 1) and lands co-located with its board. When load
//! falls, replicas are removed (with hysteresis) and their bindings are
//! released.
//!
//! Run with: `cargo run --example autoscaling`

use std::error::Error;
use std::sync::Arc;

use blastfunction::prelude::*;
use blastfunction::registry::ENV_DEVICE_MANAGER;
use blastfunction::serverless::{AutoscalePolicy, Autoscaler, LoadSignal};
use blastfunction::workloads::sobel;
use parking_lot::Mutex;

fn main() -> Result<(), Box<dyn Error>> {
    // Control plane: three boards, registry wired into the cluster.
    let mut catalog = BitstreamCatalog::new();
    catalog.register(sobel::bitstream());
    let cluster = Cluster::new(paper_cluster());
    // One shard is the paper's single Accelerators Registry.
    let registry: Arc<dyn PlacementService> =
        Arc::new(ShardedRegistry::new(AllocationPolicy::paper(), 1));
    for node in paper_cluster() {
        let device_id = format!("fpga-{}", node.id().as_str().to_lowercase());
        let board = Arc::new(Mutex::new(Board::new(BoardSpec::de5a_net(), *node.pcie())));
        registry.register_device_handle(Arc::new(DeviceManager::new(
            DeviceManagerConfig::standalone(&device_id),
            node,
            board,
            catalog.clone(),
        )));
    }
    // The typed placement API: admission and release go through
    // `dyn PlacementService`, whatever the shard count behind it.
    attach_placement(&cluster, registry.clone());
    registry.register_function(
        "sobel",
        DeviceQuery::for_accelerator(sobel::SOBEL_BITSTREAM),
    );

    // One replica can absorb ~25 rq/s of 1080p Sobel (Table II's shape).
    let scaler = Autoscaler::new(cluster.clone());
    scaler.set_policy(
        "sobel",
        AutoscalePolicy::new()
            .with_target_rps_per_replica(25.0)
            .with_bounds(1, 3),
    );

    println!("Autoscaling a Sobel function against a rising and falling load:\n");
    println!(
        "{:>12} {:>9} {:>9}  placements",
        "load (rq/s)", "replicas", "change"
    );
    for observed in [5.0, 20.0, 40.0, 70.0, 70.0, 30.0, 12.0, 4.0] {
        let action = scaler.reconcile("sobel", &LoadSignal::from_rps(observed))?;
        let placements: Vec<String> = cluster
            .instances()
            .iter()
            .map(|i| {
                format!(
                    "{}@{}",
                    i.env
                        .get(ENV_DEVICE_MANAGER)
                        .map(String::as_str)
                        .unwrap_or("?"),
                    i.node.as_ref().map(NodeId::as_str).unwrap_or("?")
                )
            })
            .collect();
        let change = if action.created.is_empty() && action.deleted.is_empty() {
            "steady".to_string()
        } else if !action.created.is_empty() {
            format!("+{}", action.created.len())
        } else {
            format!("-{}", action.deleted.len())
        };
        println!(
            "{observed:>12.0} {:>9} {:>9}  {}",
            scaler.replicas("sobel"),
            change,
            placements.join(", ")
        );
    }

    println!("\nEvery replica passed the registry's admission: it was bound to a");
    println!("device by Algorithm 1 and pinned to that device's node (shared");
    println!("memory requires co-location). Scale-down kept one replica (min)");
    println!("and released the other bindings for future allocations.");
    Ok(())
}
