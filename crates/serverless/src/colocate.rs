//! Batch co-location: route a drained batch to the board that serves its
//! accelerator most cheaply.
//!
//! A batch is homogeneous — every invocation in it targets the same
//! function, hence the same accelerator — so the whole batch should land
//! on *one* board, and preferably one that needs no reconfiguration. The
//! router prefers a board already **configured** with the accelerator,
//! then one with the image merely **staged warm** (cheap reprogram from
//! the board's bitstream cache), then a **cold** board; within a tier the
//! shortest queue wins, with the device id as the deterministic tie-break.
//!
//! The types here mirror the registry's allocator view: the gateway
//! sits in front of the registry in the deployment diagram and sees
//! board state only through gathered snapshots. [`board_snapshots`]
//! produces them from any [`PlacementService`] — a single registry or a
//! sharded federation — so the batch router needs no registry type.

use bf_registry::PlacementService;

/// A gathered snapshot of one board as the batch router sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoardSnapshot {
    /// Device id (what `DEVICE_MANAGER_ADDRESS` points at).
    pub device_id: String,
    /// The currently configured bitstream, if any.
    pub configured: Option<String>,
    /// Bitstream images staged in the board's warm cache.
    pub warm_bitstreams: Vec<String>,
    /// Invocations already queued on this board (load signal).
    pub queued: usize,
}

/// How cheaply a board can serve an accelerator; higher is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum BoardWarmth {
    /// Full bitstream transfer and reprogram needed.
    Cold = 0,
    /// Image staged in the warm cache: cheap reprogram.
    Warm = 1,
    /// Already configured: zero reconfiguration cost.
    Configured = 2,
}

impl BoardSnapshot {
    /// This board's warmth for `accelerator`.
    pub fn warmth(&self, accelerator: &str) -> BoardWarmth {
        if self.configured.as_deref() == Some(accelerator) {
            BoardWarmth::Configured
        } else if self.warm_bitstreams.iter().any(|w| w == accelerator) {
            BoardWarmth::Warm
        } else {
            BoardWarmth::Cold
        }
    }
}

/// Picks the board a batch for `accelerator` should be co-located on:
/// warmest tier first, then shortest queue, then lowest device id.
/// Returns `None` when no boards are known.
pub fn route_batch<'a>(
    accelerator: &str,
    boards: &'a [BoardSnapshot],
) -> Option<&'a BoardSnapshot> {
    boards.iter().min_by(|a, b| {
        b.warmth(accelerator)
            .cmp(&a.warmth(accelerator))
            .then_with(|| a.queued.cmp(&b.queued))
            .then_with(|| a.device_id.cmp(&b.device_id))
    })
}

/// Snapshots every board known to `placement`, in device-id order: the
/// bridge between the typed placement API and [`route_batch`]. Queue
/// depth is the instance count bound to the device — the same
/// connected-functions signal the registry's allocator orders by.
pub fn board_snapshots(placement: &dyn PlacementService) -> Vec<BoardSnapshot> {
    let views = placement.device_views();
    let mut snapshots = Vec::with_capacity(views.len());
    for view in views {
        snapshots.push(BoardSnapshot {
            device_id: view.id,
            configured: view.bitstream,
            warm_bitstreams: view.warm_bitstreams,
            queued: view.connected.len(),
        });
    }
    snapshots
}

#[cfg(test)]
mod tests {
    use super::*;

    fn board(id: &str, configured: Option<&str>, warm: &[&str], queued: usize) -> BoardSnapshot {
        BoardSnapshot {
            device_id: id.to_string(),
            configured: configured.map(str::to_string),
            warm_bitstreams: warm.iter().map(|s| s.to_string()).collect(),
            queued,
        }
    }

    #[test]
    fn configured_board_wins_even_with_a_longer_queue() {
        let boards = [
            board("fpga-a", Some("sobel"), &[], 5),
            board("fpga-b", None, &["sobel"], 0),
            board("fpga-c", None, &[], 0),
        ];
        let got = route_batch("sobel", &boards).expect("boards exist");
        assert_eq!(got.device_id, "fpga-a");
    }

    #[test]
    fn warm_staged_board_beats_cold_within_queue_ties() {
        let boards = [
            board("fpga-a", Some("mm"), &[], 0),
            board("fpga-b", Some("mm"), &["sobel"], 0),
        ];
        let got = route_batch("sobel", &boards).expect("boards exist");
        assert_eq!(got.device_id, "fpga-b");
        assert_eq!(got.warmth("sobel"), BoardWarmth::Warm);
    }

    #[test]
    fn shortest_queue_breaks_warmth_ties_then_device_id() {
        let boards = [
            board("fpga-b", Some("sobel"), &[], 3),
            board("fpga-a", Some("sobel"), &[], 1),
        ];
        assert_eq!(
            route_batch("sobel", &boards).map(|b| b.device_id.as_str()),
            Some("fpga-a")
        );
        let tied = [
            board("fpga-b", Some("sobel"), &[], 1),
            board("fpga-a", Some("sobel"), &[], 1),
        ];
        assert_eq!(
            route_batch("sobel", &tied).map(|b| b.device_id.as_str()),
            Some("fpga-a"),
            "deterministic id tie-break"
        );
    }

    #[test]
    fn empty_board_list_routes_nowhere() {
        assert_eq!(route_batch("sobel", &[]), None);
    }

    #[test]
    fn snapshots_bridge_any_placement_service() {
        use bf_model::node_a;
        use bf_registry::{AllocationPolicy, DeviceQuery, ShardedRegistry, StaticDevice};

        let registry = ShardedRegistry::new(AllocationPolicy::paper(), 1);
        registry
            .register_device_handle(StaticDevice::new("fpga-a", node_a(), Some("sobel")).handle());
        registry.register_function("f", DeviceQuery::for_accelerator("sobel"));
        registry.place_instance("inst-0", "f").expect("one device");
        let boards = board_snapshots(&registry);
        assert_eq!(boards.len(), 1);
        assert_eq!(boards[0].queued, 1);
        assert_eq!(
            route_batch("sobel", &boards).map(|b| b.device_id.as_str()),
            Some("fpga-a")
        );
    }
}
