//! Handle ids, launch descriptors and device information.

use std::collections::HashMap;
use std::sync::Arc;

use bf_fpga::{Bitstream, Board};
use bf_model::NodeId;

macro_rules! handle_id {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u64);

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }
    };
}

handle_id!(
    /// Backend-scoped context handle.
    ContextId
);
handle_id!(
    /// Backend-scoped program handle.
    ProgramId
);
handle_id!(
    /// Backend-scoped kernel handle.
    KernelId
);
handle_id!(
    /// Backend-scoped buffer handle (distinct from the board's internal
    /// buffer ids).
    MemId
);
handle_id!(
    /// Backend-scoped command-queue handle.
    QueueId
);

/// A kernel launch argument as passed through `clSetKernelArg`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArgValue {
    /// A device buffer.
    Buffer(MemId),
    /// 32-bit unsigned scalar.
    U32(u32),
    /// 32-bit signed scalar.
    I32(i32),
    /// 64-bit unsigned scalar.
    U64(u64),
    /// 32-bit float scalar.
    F32(f32),
}

/// An OpenCL NDRange (up to three dimensions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NdRange(pub [u64; 3]);

impl NdRange {
    /// One-dimensional range.
    pub fn d1(x: u64) -> Self {
        NdRange([x, 1, 1])
    }

    /// Two-dimensional range.
    pub fn d2(x: u64, y: u64) -> Self {
        NdRange([x, y, 1])
    }

    /// Three-dimensional range.
    pub fn d3(x: u64, y: u64, z: u64) -> Self {
        NdRange([x, y, z])
    }

    /// Total work items.
    pub fn items(&self) -> u64 {
        self.0.iter().product()
    }
}

/// Information about the device behind a backend (`clGetDeviceInfo`).
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceInfo {
    /// Device (board) name.
    pub name: String,
    /// Vendor string.
    pub vendor: String,
    /// Platform string (e.g. "Intel(R) FPGA SDK for OpenCL(TM)").
    pub platform: String,
    /// On-board memory in bytes.
    pub memory_bytes: u64,
    /// The cluster node hosting the device.
    pub node: NodeId,
    /// Currently configured bitstream id, if any.
    pub bitstream: Option<String>,
}

impl DeviceInfo {
    /// What `clGetDeviceInfo` reports for `board` on `node`, whichever
    /// executor fronts it.
    pub fn of_board(board: &Board, node: &NodeId) -> Self {
        DeviceInfo {
            name: board.spec().model.clone(),
            vendor: "Intel".to_string(),
            platform: "Intel(R) FPGA SDK for OpenCL(TM)".to_string(),
            memory_bytes: board.spec().memory_bytes,
            node: node.clone(),
            bitstream: board.bitstream_id().map(str::to_string),
        }
    }
}

/// The set of synthesized bitstream binaries available to host code — the
/// stand-in for the `.aocx` files `clCreateProgramWithBinary` loads.
#[derive(Debug, Clone, Default)]
pub struct BitstreamCatalog {
    images: HashMap<String, Arc<Bitstream>>,
}

impl BitstreamCatalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a bitstream under its own id.
    pub fn register(&mut self, bitstream: Arc<Bitstream>) -> &mut Self {
        self.images.insert(bitstream.id().to_string(), bitstream);
        self
    }

    /// Looks a bitstream up by id.
    pub fn get(&self, id: &str) -> Option<Arc<Bitstream>> {
        self.images.get(id).cloned()
    }

    /// Ids of all registered bitstreams.
    pub fn ids(&self) -> impl Iterator<Item = &str> {
        self.images.keys().map(String::as_str)
    }

    /// Number of registered bitstreams.
    pub fn len(&self) -> usize {
        self.images.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.images.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ndrange_items_multiply() {
        assert_eq!(NdRange::d1(5).items(), 5);
        assert_eq!(NdRange::d2(4, 3).items(), 12);
        assert_eq!(NdRange::d3(2, 3, 4).items(), 24);
    }

    #[test]
    fn handle_ids_display() {
        assert_eq!(MemId(7).to_string(), "MemId(7)");
        assert_eq!(QueueId(1).to_string(), "QueueId(1)");
    }

    #[test]
    fn catalog_round_trip() {
        let mut cat = BitstreamCatalog::new();
        assert!(cat.is_empty());
        cat.register(Arc::new(Bitstream::new("sobel", vec![])));
        assert_eq!(cat.len(), 1);
        assert_eq!(
            cat.get("sobel").map(|b| b.id().to_string()),
            Some("sobel".to_string())
        );
        assert!(cat.get("missing").is_none());
    }
}
