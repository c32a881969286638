//! Data-movement cost models: PCI Express links, host memory copies and the
//! cluster Ethernet fabric.
//!
//! The constants are calibrated from the paper's own single-node
//! measurements (Section IV-A); see `DESIGN.md` for the derivation.

use serde::{Deserialize, Serialize};

use crate::time::VirtualDuration;

/// PCI Express generation of a board's host connector.
///
/// The paper's master node (node A) hosts its Terasic DE5a-Net behind a
/// gen2 x8 connector, the workers (B, C) behind gen3 x8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PcieGeneration {
    /// PCIe 2.0: 500 MB/s raw per lane.
    Gen2,
    /// PCIe 3.0: ~985 MB/s raw per lane.
    Gen3,
}

impl PcieGeneration {
    /// Raw per-lane throughput in bytes/second.
    pub fn raw_lane_bytes_per_sec(self) -> f64 {
        match self {
            PcieGeneration::Gen2 => 500.0e6,
            PcieGeneration::Gen3 => 985.0e6,
        }
    }
}

/// A PCIe link between host memory and the FPGA board.
///
/// ```
/// use bf_model::{PcieGeneration, PcieLink};
///
/// let link = PcieLink::new(PcieGeneration::Gen3, 8);
/// let t = link.transfer_time(8 << 20); // 8 MiB DMA
/// assert!(t.as_millis_f64() > 1.0 && t.as_millis_f64() < 3.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PcieLink {
    generation: PcieGeneration,
    lanes: u8,
    /// Fraction of raw bandwidth achievable by the DMA engine (protocol
    /// overhead, TLP headers, alignment).
    efficiency: f64,
    /// Fixed DMA setup / doorbell cost per transfer.
    setup: VirtualDuration,
}

impl PcieLink {
    /// Creates a link with the default efficiency (76%) and DMA setup cost
    /// (100 µs) used throughout the reproduction.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    pub fn new(generation: PcieGeneration, lanes: u8) -> Self {
        assert!(lanes > 0, "a PCIe link needs at least one lane");
        PcieLink {
            generation,
            lanes,
            efficiency: 0.76,
            setup: VirtualDuration::from_micros(100),
        }
    }

    /// Overrides the fixed per-transfer setup cost.
    pub fn with_setup(mut self, setup: VirtualDuration) -> Self {
        self.setup = setup;
        self
    }

    /// The link generation.
    pub fn generation(&self) -> PcieGeneration {
        self.generation
    }

    /// The number of lanes.
    pub fn lanes(&self) -> u8 {
        self.lanes
    }

    /// Effective achievable bandwidth in bytes/second.
    pub fn effective_bandwidth(&self) -> f64 {
        self.generation.raw_lane_bytes_per_sec() * f64::from(self.lanes) * self.efficiency
    }

    /// Time for one DMA of `bytes` bytes across the link.
    pub fn transfer_time(&self, bytes: u64) -> VirtualDuration {
        self.setup + VirtualDuration::from_secs_f64(bytes as f64 / self.effective_bandwidth())
    }
}

/// Host DRAM copy model (used for the single retained copy of the
/// shared-memory data path and for gRPC's extra buffer copies).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemcpyModel {
    bytes_per_sec: f64,
}

impl MemcpyModel {
    /// The paper's shm overhead of 155 ms for a 2 GB transfer implies a
    /// ~13 GB/s single-threaded copy.
    pub const PAPER_BYTES_PER_SEC: f64 = 13.0e9;

    /// Creates a copy model with the paper-calibrated bandwidth.
    pub fn paper() -> Self {
        MemcpyModel {
            bytes_per_sec: Self::PAPER_BYTES_PER_SEC,
        }
    }

    /// Creates a copy model with an explicit bandwidth in bytes/second.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_sec` is not strictly positive.
    pub fn new(bytes_per_sec: f64) -> Self {
        assert!(bytes_per_sec > 0.0, "memcpy bandwidth must be positive");
        MemcpyModel { bytes_per_sec }
    }

    /// Time to copy `bytes` bytes once.
    pub fn copy_time(&self, bytes: u64) -> VirtualDuration {
        VirtualDuration::from_secs_f64(bytes as f64 / self.bytes_per_sec)
    }

    /// Time to copy `bytes` bytes `copies` times.
    pub fn copies_time(&self, bytes: u64, copies: u32) -> VirtualDuration {
        self.copy_time(bytes) * u64::from(copies)
    }
}

impl Default for MemcpyModel {
    fn default() -> Self {
        Self::paper()
    }
}

/// The 1 Gb/s Ethernet fabric connecting the paper's three nodes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EthernetModel {
    bytes_per_sec: f64,
    one_way_latency: VirtualDuration,
}

impl EthernetModel {
    /// 1 Gb/s with a 150 µs one-way latency (switch + kernel stack), as in
    /// the paper's local network.
    pub fn paper() -> Self {
        EthernetModel {
            bytes_per_sec: 125.0e6,
            one_way_latency: VirtualDuration::from_micros(150),
        }
    }

    /// One-way message latency excluding payload serialization time.
    pub fn one_way_latency(&self) -> VirtualDuration {
        self.one_way_latency
    }

    /// Time for a one-way transfer of `bytes` payload bytes.
    pub fn transfer_time(&self, bytes: u64) -> VirtualDuration {
        self.one_way_latency + VirtualDuration::from_secs_f64(bytes as f64 / self.bytes_per_sec)
    }
}

impl Default for EthernetModel {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gen3_is_about_twice_gen2() {
        let g2 = PcieLink::new(PcieGeneration::Gen2, 8);
        let g3 = PcieLink::new(PcieGeneration::Gen3, 8);
        let ratio = g3.effective_bandwidth() / g2.effective_bandwidth();
        assert!((ratio - 1.97).abs() < 0.05, "ratio was {ratio}");
    }

    #[test]
    fn transfer_time_is_monotonic_in_size() {
        let link = PcieLink::new(PcieGeneration::Gen3, 8);
        let mut prev = VirtualDuration::ZERO;
        for bytes in [0u64, 1 << 10, 1 << 20, 1 << 30] {
            let t = link.transfer_time(bytes);
            assert!(t >= prev);
            prev = t;
        }
    }

    #[test]
    fn small_transfers_are_dominated_by_setup() {
        let link = PcieLink::new(PcieGeneration::Gen3, 8);
        let t = link.transfer_time(1 << 10);
        assert!((t.as_millis_f64() - 0.1).abs() < 0.01, "got {t}");
    }

    #[test]
    fn memcpy_paper_calibration_matches_155ms_for_2gb() {
        let m = MemcpyModel::paper();
        let t = m.copy_time(2 << 30);
        assert!((t.as_millis_f64() - 165.0).abs() < 15.0, "got {t}");
    }

    #[test]
    fn memcpy_multiple_copies_scale_linearly() {
        let m = MemcpyModel::new(1e9);
        assert_eq!(m.copies_time(1_000, 3), m.copy_time(1_000) * 3);
    }

    #[test]
    fn ethernet_large_payload_bound_by_bandwidth() {
        let net = EthernetModel::paper();
        let t = net.transfer_time(125_000_000);
        assert!((t.as_secs_f64() - 1.0).abs() < 0.01, "got {t}");
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn zero_lane_link_is_rejected() {
        let _ = PcieLink::new(PcieGeneration::Gen3, 0);
    }
}
