//! Measures host-side copy volume and wall-clock per EnqueueWrite→Read
//! round trip over both BlastFunction transports.
//!
//! Usage:
//!
//! * `datapath` — full 1 KB → 2 GB ladder, writes
//!   `target/experiments/BENCH_datapath.json`.
//! * `datapath --smoke` — CI subset (sizes ≤ 1 MB).
//! * `datapath [--smoke] --check <archived.json>` — additionally compares
//!   every field of every row except the wall-clock one against the
//!   archived run and exits non-zero on drift.

use std::process::ExitCode;

fn main() -> ExitCode {
    bf_bench::DATAPATH_GATE.run()
}
