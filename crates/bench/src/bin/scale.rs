//! The production-day scale sweep: diurnal open-loop traffic with Zipf
//! function popularity over a 1000-node cluster, full fault battery,
//! everything in virtual time and fully deterministic.
//!
//! Usage:
//!
//! * `scale` — full ladder (small/medium/large), writes
//!   `target/experiments/BENCH_scale.json`.
//! * `scale --smoke` — CI subset (the small point; its row is directly
//!   comparable to the archive).
//! * `scale [--smoke] --check <archived.json>` — additionally compares
//!   every field of every row against the archived run and exits
//!   non-zero on drift.

use std::process::ExitCode;

fn main() -> ExitCode {
    bf_bench::SCALE_GATE.run()
}
