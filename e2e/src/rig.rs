//! The deployment every data-plane workload runs against: one DE5a-Net
//! board on node B behind one Device Manager, as in the paper's testbed.

use std::sync::Arc;

use bf_devmgr::{DeviceManager, DeviceManagerConfig};
use bf_fpga::{Board, BoardSpec};
use bf_model::{node_b, VirtualClock};
use bf_ocl::{BitstreamCatalog, ClResult, Device, NativeBackend};
use bf_remote::RemoteBackend;
use bf_workloads::sobel;
use parking_lot::Mutex;

use crate::script::Path;

/// Device id of the one manager.
pub const DEVICE_ID: &str = "fpga-b";

/// A board not yet behind anything.
pub fn bare_board() -> Board {
    Board::new(BoardSpec::de5a_net(), *node_b().pcie())
}

fn catalog() -> BitstreamCatalog {
    let mut catalog = BitstreamCatalog::new();
    catalog.register(sobel::bitstream());
    catalog
}

/// Starts a manager (and its event-loop thread) over a fresh board, with
/// a payload cache of `cache_bytes` when that is not zero.
pub fn manager(cache_bytes: u64) -> DeviceManager {
    let config = DeviceManagerConfig::standalone(DEVICE_ID).with_payload_cache(cache_bytes);
    DeviceManager::new(
        config,
        node_b(),
        Arc::new(Mutex::new(bare_board())),
        catalog(),
    )
}

/// Connects a client through the Remote OpenCL Library.
pub fn connect(manager: &DeviceManager, name: &str, path: Path) -> ClResult<Device> {
    let endpoint = manager.connect(name, path.costs());
    let backend = RemoteBackend::connect(endpoint, VirtualClock::new())?;
    Ok(Device::new(Arc::new(backend)))
}

/// The paper's baseline: the same API on a directly attached board.
pub fn native_device() -> Device {
    Device::new(Arc::new(NativeBackend::new(
        node_b(),
        Arc::new(Mutex::new(bare_board())),
        catalog(),
        VirtualClock::new(),
        "e2e-native",
    )))
}

/// Ops and tasks the manager has executed, from its public counters.
pub fn manager_counts(manager: &DeviceManager) -> (f64, f64) {
    let labels = [("device", DEVICE_ID)];
    let read = |name| {
        manager
            .metrics()
            .counter_value(name, &labels)
            .unwrap_or(0.0)
    };
    (read("bf_manager_ops_total"), read("bf_manager_tasks_total"))
}

/// Modelled board busy time so far, in virtual milliseconds.
pub fn virtual_busy_ms(manager: &DeviceManager) -> f64 {
    manager
        .board()
        .lock()
        .busy_tracker()
        .total_busy()
        .as_millis_f64()
}
