//! The device handle the registry manages: a narrow trait over whatever
//! actually fronts the board.
//!
//! The concrete [`DeviceManager`] spawns an event-loop thread and owns a
//! live transport — exactly right for production, far too heavy for a
//! 1000-device DES ladder or a bf-race model schedule. The registry
//! therefore stores devices as [`RegistryDevice`] trait objects: the
//! manager implements it, and simulation/model harnesses register
//! lightweight stand-ins through the same
//! [`PlacementService::register_device_handle`](crate::PlacementService::register_device_handle).

use std::sync::Arc;

use bf_devmgr::DeviceManager;
use bf_model::NodeSpec;

/// What the allocator needs to know about a board right now.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BoardState {
    /// The bitstream currently configured on the fabric, if any.
    pub configured: Option<String>,
    /// Bitstreams staged warm in the board's reconfiguration cache.
    pub warm: Vec<String>,
}

/// A device as seen by the Accelerators Registry.
///
/// Implementations must be cheap to clone behind an `Arc` and safe to
/// call from multiple threads; the registry never holds its own lock
/// while calling [`program`](Self::program) or [`scrape`](Self::scrape).
pub trait RegistryDevice: Send + Sync {
    /// Stable device identifier (the allocation key).
    fn device_id(&self) -> &str;

    /// The node hosting the device.
    fn node(&self) -> &NodeSpec;

    /// Snapshot of the board's configured bitstream and warm cache.
    fn board_state(&self) -> BoardState;

    /// Programs `bitstream` onto the board.
    ///
    /// # Errors
    ///
    /// Returns the backend's message when the bitstream cannot be
    /// configured (e.g. missing from the catalog).
    fn program(&self, bitstream: &str) -> Result<(), String>;

    /// Prometheus text exposition for the Metrics Gatherer.
    fn scrape(&self) -> String;

    /// The live manager function instances dial after reading
    /// `DEVICE_MANAGER_ADDRESS`; `None` for stand-ins that front no
    /// manager event loop.
    fn manager(&self) -> Option<DeviceManager> {
        None
    }
}

impl RegistryDevice for DeviceManager {
    fn device_id(&self) -> &str {
        DeviceManager::device_id(self)
    }

    fn node(&self) -> &NodeSpec {
        DeviceManager::node(self)
    }

    fn board_state(&self) -> BoardState {
        let board = self.board().lock();
        BoardState {
            configured: board.bitstream_id().map(str::to_string),
            warm: board.warm_bitstreams().to_vec(),
        }
    }

    fn program(&self, bitstream: &str) -> Result<(), String> {
        DeviceManager::program(self, bitstream)
    }

    fn scrape(&self) -> String {
        DeviceManager::scrape(self)
    }

    fn manager(&self) -> Option<DeviceManager> {
        Some(self.clone())
    }
}

/// A fixed-topology device handle for tests and harnesses that don't
/// need a live manager: reports a constant board state and accepts any
/// program request by updating it.
pub struct StaticDevice {
    id: String,
    node: NodeSpec,
    // Ranked as `board` in the lock hierarchy: it stands in for the FPGA
    // board behind a manager and is only taken below the registry lock.
    board: bf_race::sync::Mutex<BoardState>,
}

impl StaticDevice {
    /// A device on `node`, optionally pre-configured with `bitstream`.
    pub fn new(id: impl Into<String>, node: NodeSpec, bitstream: Option<&str>) -> Self {
        StaticDevice {
            id: id.into(),
            node,
            board: bf_race::sync::Mutex::new(BoardState {
                configured: bitstream.map(str::to_string),
                warm: Vec::new(),
            }),
        }
    }

    /// The handle boxed for registration.
    pub fn handle(self) -> Arc<dyn RegistryDevice> {
        Arc::new(self)
    }
}

impl RegistryDevice for StaticDevice {
    fn device_id(&self) -> &str {
        &self.id
    }

    fn node(&self) -> &NodeSpec {
        &self.node
    }

    fn board_state(&self) -> BoardState {
        self.board.lock().clone()
    }

    fn program(&self, bitstream: &str) -> Result<(), String> {
        self.board.lock().configured = Some(bitstream.to_string());
        Ok(())
    }

    fn scrape(&self) -> String {
        String::new()
    }
}
