//! Host-side datapath benchmark: bytes memcpy'd and wall-clock time per
//! EnqueueWrite → Read round trip.
//!
//! Unlike the Fig. 4 sweeps (virtual-time, `Payload::Synthetic`), this
//! benchmark pushes *real* bytes through the full client → codec →
//! transport → session → device → response chain and reports two numbers
//! per (size, transport) point:
//!
//! * `copied_bytes_per_rtt` — the deterministic sum of every host-side
//!   payload memcpy, reported by [`bf_metrics::copy_counters`]. This is
//!   the quantity the zero-copy payload path is meant to shrink, and it
//!   is stable across machines, so CI diffs it.
//! * `wall_ms_per_rtt` — host wall-clock per round trip. Noisy; recorded
//!   for the archived full-ladder run but excluded from CI comparison.
//!
//! The embedded [`baseline_copied_bytes`] table pins the pre-refactor
//! (`Vec<u8>`-everywhere) copy costs so every run shows its reduction
//! factor against the old datapath.

use serde::Serialize;

use crate::gate::ArchiveGate;
use crate::gate::Rung::{self, Full, Smoke};
use crate::{fig4_device, human_bytes, System};
use bf_fpga::Payload;
use bf_ocl::ClResult;

/// The full 1 KB → 2 GB ladder (the Fig. 4(a) transfer sizes). CI's
/// smoke subset is the sizes ≤ 1 MB, so the step stays cheap.
pub const LADDER: [Rung<u64>; 9] = [
    Smoke(1 << 10),
    Smoke(16 << 10),
    Smoke(256 << 10),
    Smoke(1 << 20),
    Full(16 << 20),
    Full(128 << 20),
    Full(512 << 20),
    Full(1 << 30),
    Full(2 << 30),
];

/// One measured (size, transport) point.
#[derive(Debug, Clone, Serialize)]
pub struct DatapathRow {
    /// Payload size in bytes (written once, read back once).
    pub bytes: u64,
    /// Human-readable size label.
    pub label: String,
    /// Transport: `"grpc"` or `"shm"`.
    pub system: String,
    /// Round trips averaged over.
    pub iterations: u32,
    /// Host bytes memcpy'd per round trip (deterministic).
    pub copied_bytes_per_rtt: u64,
    /// Individual memcpy operations per round trip (deterministic).
    pub copy_ops_per_rtt: u64,
    /// Pre-refactor copied bytes per round trip, if the size is in the
    /// embedded baseline table.
    pub baseline_copied_bytes_per_rtt: Option<u64>,
    /// `baseline / current` copy-volume reduction factor.
    pub copy_reduction: Option<f64>,
    /// Host wall-clock milliseconds per round trip (noisy; not CI-diffed).
    pub wall_ms_per_rtt: f64,
}

/// Pre-refactor (`Vec<u8>` payloads end-to-end) copied bytes per round
/// trip, captured on the instrumented old datapath before the zero-copy
/// change landed. `None` for sizes outside the measured ladder.
pub fn baseline_copied_bytes(bytes: u64, system: &str) -> Option<u64> {
    // (size, grpc, shm) — each entry is bytes memcpy'd per
    // EnqueueWrite(N) → Read(N) round trip on the old datapath: 7 copies
    // per byte over gRPC, 6 over shm. At ≥ 1 GB the payload exceeds the
    // shm segment and the connection falls back to inline staging, so the
    // shm column matches gRPC there.
    const BASELINE: [(u64, u64, u64); 9] = [
        (1 << 10, 7 << 10, 6 << 10),
        (16 << 10, 7 * (16 << 10), 6 * (16 << 10)),
        (256 << 10, 7 * (256 << 10), 6 * (256 << 10)),
        (1 << 20, 7 << 20, 6 << 20),
        (16 << 20, 7 * (16 << 20), 6 * (16 << 20)),
        (128 << 20, 7 * (128 << 20), 6 * (128 << 20)),
        (512 << 20, 7 * (512 << 20), 6 * (512 << 20)),
        (1 << 30, 7 << 30, 7 << 30),
        (2 << 30, 7 * (2 << 30), 7 * (2 << 30)),
    ];
    let row = BASELINE.iter().find(|(b, _, _)| *b == bytes)?;
    match system {
        "grpc" => Some(row.1),
        "shm" => Some(row.2),
        _ => None,
    }
}

fn system_tag(system: System) -> &'static str {
    match system {
        System::BlastFunction => "grpc",
        System::BlastFunctionShm => "shm",
        System::Native => "native",
    }
}

fn measure_one(system: System, bytes: u64) -> ClResult<DatapathRow> {
    let (device, _clock) = fig4_device(system);
    let ctx = device.create_context()?;
    let buf = ctx.create_buffer(bytes)?;
    let queue = ctx.create_queue()?;
    let iterations: u32 = if bytes <= 1 << 20 { 8 } else { 1 };
    let payload: Payload = vec![0xA5u8; bytes as usize].into();

    // Warm-up round trip: materializes the device buffer and spins up the
    // session so steady-state iterations measure only the datapath.
    queue.write(&buf, payload.clone())?;
    let _ = queue.read_vec(&buf)?;

    let before = bf_metrics::copy_counters();
    // bf-lint: allow(wall_clock): this benchmark measures real host time
    // spent moving payload bytes; the virtual clock models device/network
    // latency, not host memcpy throughput.
    let t0 = std::time::Instant::now();
    for _ in 0..iterations {
        queue.write(&buf, payload.clone())?;
        let _ = queue.read_vec(&buf)?;
    }
    let wall = t0.elapsed();
    let delta = bf_metrics::copy_counters().since(before);

    let copied = delta.bytes / u64::from(iterations);
    let tag = system_tag(system);
    let baseline = baseline_copied_bytes(bytes, tag);
    Ok(DatapathRow {
        bytes,
        label: human_bytes(bytes),
        system: tag.to_string(),
        iterations,
        copied_bytes_per_rtt: copied,
        copy_ops_per_rtt: delta.ops / u64::from(iterations),
        baseline_copied_bytes_per_rtt: baseline,
        copy_reduction: baseline
            .filter(|_| copied > 0)
            .map(|b| b as f64 / copied as f64),
        wall_ms_per_rtt: wall.as_secs_f64() * 1e3 / f64::from(iterations),
    })
}

/// Runs the write→read ladder over both BlastFunction transports.
pub fn datapath_rows(sizes: &[u64]) -> Vec<DatapathRow> {
    let mut rows = Vec::new();
    for &bytes in sizes {
        for system in [System::BlastFunction, System::BlastFunctionShm] {
            // bf-lint: allow(panic): the rig drives a fixed known-good
            // deployment; an OpenCL error here is a harness bug.
            rows.push(measure_one(system, bytes).expect("datapath op on known-good rig"));
        }
    }
    rows
}

/// Renders the ladder as an aligned text table.
pub fn render_datapath(title: &str, rows: &[DatapathRow]) -> String {
    let mut out = format!("{title}\n");
    out.push_str(&format!(
        "{:<8} {:>6} {:>16} {:>8} {:>16} {:>10} {:>12}\n",
        "size", "path", "copied/rtt", "ops", "baseline", "reduction", "wall/rtt"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<8} {:>6} {:>16} {:>8} {:>16} {:>10} {:>10.3}ms\n",
            r.label,
            r.system,
            r.copied_bytes_per_rtt,
            r.copy_ops_per_rtt,
            r.baseline_copied_bytes_per_rtt
                .map_or_else(|| "-".to_string(), |b| b.to_string()),
            r.copy_reduction
                .map_or_else(|| "-".to_string(), |f| format!("{f:.2}x")),
            r.wall_ms_per_rtt,
        ));
    }
    out
}

/// `bf-bench datapath`: this harness behind the shared archive gate.
pub const DATAPATH_GATE: ArchiveGate<u64, DatapathRow> = ArchiveGate {
    name: "datapath",
    title: "Datapath — host bytes memcpy'd and wall-clock per write+read round trip",
    ladder: &LADDER,
    rows: datapath_rows,
    render: render_datapath,
    invariants: None,
    violated: "",
    key: &["bytes", "system"],
    // Host wall-clock is noisy: archived as a trajectory, never compared.
    informational: &["wall_ms_per_rtt"],
    what: "copy accounting",
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_table_covers_the_ladder() {
        for bytes in DATAPATH_GATE.points(false) {
            assert!(baseline_copied_bytes(bytes, "grpc").is_some());
            assert!(baseline_copied_bytes(bytes, "shm").is_some());
        }
        assert_eq!(baseline_copied_bytes(12345, "grpc"), None);
        assert_eq!(baseline_copied_bytes(1 << 10, "native"), None);
    }

    #[test]
    fn key_and_informational_names_are_row_fields() {
        DATAPATH_GATE.assert_names_are_fields_of(&datapath_rows(&[1 << 10])[0]);
    }
}
