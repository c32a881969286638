//! Pins the placement-warmth rule — configured > warm-staged > cold — as
//! the registry reports it: which `placement_outcomes()` counter a
//! placement grows, and the order the federated router ranks shards in.
//!
//! The boards are real Device Managers on boards with a warm bitstream
//! cache, so "warm" means what the board's LRU says it means.

use std::sync::Arc;

use blastfunction::prelude::*;
use blastfunction::registry::{FederatedAllocator, PlacementOutcomes, ShardLoadSummary};
use blastfunction::workloads::{mm, sobel};
use parking_lot::Mutex;

fn catalog() -> BitstreamCatalog {
    let mut catalog = BitstreamCatalog::new();
    catalog.register(sobel::bitstream());
    catalog.register(mm::bitstream());
    catalog
}

/// A manager whose board stages two images warm, pre-programmed with
/// `history` in order (the last one ends up configured).
fn board_after(id: &str, history: &[&str]) -> DeviceManager {
    let spec = BoardSpec::de5a_net().with_bitstream_cache(2, VirtualDuration::from_millis(5));
    let board = Arc::new(Mutex::new(Board::new(spec, *node_b().pcie())));
    let manager = DeviceManager::new(
        DeviceManagerConfig::standalone(id).with_policy(ReconfigPolicy::Deny),
        node_b(),
        board,
        catalog(),
    );
    for bitstream in history {
        manager.program(bitstream).expect("catalog bitstream");
    }
    manager
}

/// A one-shard registry over `boards`, with one function per query.
fn registry(boards: Vec<DeviceManager>) -> ShardedRegistry {
    let registry = ShardedRegistry::new(AllocationPolicy::paper(), 1);
    for board in boards {
        registry.register_device_handle(Arc::new(board));
    }
    registry.register_function(
        "sobel",
        DeviceQuery::for_accelerator(sobel::SOBEL_BITSTREAM),
    );
    registry.register_function("mm", DeviceQuery::for_accelerator(mm::MM_BITSTREAM));
    registry.register_function("any", DeviceQuery::any());
    registry.register_function("ghost", DeviceQuery::for_accelerator("ghost"));
    registry
}

/// The outcome counters grown by one placement.
fn grown(before: PlacementOutcomes, after: PlacementOutcomes) -> (u64, u64, u64) {
    (
        after.configured - before.configured,
        after.warm - before.warm,
        after.cold - before.cold,
    )
}

/// Places `instance` of `function` and returns which counter grew.
fn place(registry: &ShardedRegistry, instance: &str, function: &str) -> (u64, u64, u64) {
    let before = registry.placement_outcomes();
    registry
        .place_instance(instance, function)
        .expect("placement succeeds");
    grown(before, registry.placement_outcomes())
}

#[test]
fn a_configured_board_counts_as_configured() {
    let registry = registry(vec![board_after("fpga-0", &[sobel::SOBEL_BITSTREAM])]);
    assert_eq!(place(&registry, "i-0", "sobel"), (1, 0, 0));
}

#[test]
fn a_warm_staged_board_counts_as_warm() {
    // sobel then mm: mm is configured, sobel is only staged warm.
    let registry = registry(vec![board_after(
        "fpga-0",
        &[sobel::SOBEL_BITSTREAM, mm::MM_BITSTREAM],
    )]);
    let views = registry.device_views();
    assert_eq!(views[0].bitstream.as_deref(), Some(mm::MM_BITSTREAM));
    assert!(views[0]
        .warm_bitstreams
        .iter()
        .any(|w| w == sobel::SOBEL_BITSTREAM));
    assert_eq!(place(&registry, "i-0", "sobel"), (0, 1, 0));
    assert_eq!(
        registry.device_views()[0].bitstream.as_deref(),
        Some(sobel::SOBEL_BITSTREAM),
        "the warm image was programmed"
    );
}

#[test]
fn a_cold_board_counts_as_cold() {
    let registry = registry(vec![board_after("fpga-0", &[mm::MM_BITSTREAM])]);
    assert_eq!(place(&registry, "i-0", "sobel"), (0, 0, 1));
    // The image is now configured, so the next replica is configured.
    assert_eq!(place(&registry, "i-1", "sobel"), (1, 0, 0));
}

#[test]
fn a_query_with_no_accelerator_counts_as_configured() {
    let registry = registry(vec![
        board_after("fpga-0", &[]),
        board_after("fpga-1", &[mm::MM_BITSTREAM]),
    ]);
    assert_eq!(place(&registry, "i-0", "any"), (1, 0, 0));
    assert_eq!(place(&registry, "i-1", "any"), (1, 0, 0));
}

#[test]
fn a_pending_reconfiguration_counts_as_its_future_image() {
    // "ghost" is not in the catalog, so programming it fails after the
    // registry has recorded the decision: the reconfiguration stays
    // pending, and the board's future image is "ghost".
    let registry = registry(vec![board_after("fpga-0", &[mm::MM_BITSTREAM])]);
    let before = registry.placement_outcomes();
    assert!(registry.place_instance("i-0", "ghost").is_err());
    assert_eq!(grown(before, registry.placement_outcomes()), (0, 0, 1));
    assert!(registry.device_views()[0].pending_reconfiguration);

    // A second replica chases the pending image: configured.
    assert_eq!(place(&registry, "i-1", "ghost"), (1, 0, 0));

    // Another accelerator cannot flip a pending board: nothing is placed
    // and no counter moves.
    let before = registry.placement_outcomes();
    assert!(registry.place_instance("i-2", "mm").is_err());
    assert_eq!(registry.placement_outcomes(), before);
    assert_eq!(registry.placement_outcomes().total(), 2);
}

#[test]
fn federated_routing_ranks_configured_then_warm_then_cold_shards() {
    let shard = |shard: usize, bindings: usize| ShardLoadSummary {
        shard,
        devices: 4,
        bindings,
        ..ShardLoadSummary::default()
    };
    let cold = shard(0, 0);
    let mut warm = shard(1, 1);
    warm.warm.insert("sobel".to_string());
    let mut configured = shard(2, 2);
    configured.configured.insert("sobel".to_string());
    let summaries = [cold, warm, configured];

    assert_eq!(
        FederatedAllocator::route(Some("sobel"), &summaries),
        vec![2, 1, 0]
    );
    // With no accelerator every shard ties on warmth: least load first.
    assert_eq!(FederatedAllocator::route(None, &summaries), vec![0, 1, 2]);
    // An accelerator no shard knows is the same tie.
    assert_eq!(
        FederatedAllocator::route(Some("mm"), &summaries),
        vec![0, 1, 2]
    );
}
