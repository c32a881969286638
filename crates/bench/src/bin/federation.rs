//! The federated control-plane ladder: the production-day placement
//! workload at 1, 4 and 16 registry shards, fully deterministic.
//!
//! Usage:
//!
//! * `federation` — full ladder (smoke points plus 1/4/16-shard
//!   production days), writes `target/experiments/BENCH_federation.json`.
//! * `federation --smoke` — CI subset (both 100-node points, so the
//!   1-vs-16-shard contention gate still runs).
//! * `federation [--smoke] --check <archived.json>` — additionally
//!   compares every field of every row against the archived run and
//!   exits non-zero on drift.

use std::process::ExitCode;

fn main() -> ExitCode {
    bf_bench::FEDERATION_GATE.run()
}
