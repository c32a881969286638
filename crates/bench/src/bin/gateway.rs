//! Open-loop arrival-rate sweep of the gateway's batched vs unbatched
//! invocation queues (virtual time; fully deterministic).
//!
//! Usage:
//!
//! * `gateway` — full rate ladder, writes
//!   `target/experiments/BENCH_gateway.json`.
//! * `gateway --smoke` — CI subset (same virtual duration, so rows are
//!   directly comparable to the archive).
//! * `gateway [--smoke] --check <archived.json>` — additionally compares
//!   every field of every row against the archived run and exits
//!   non-zero on drift. Every run also asserts that batched peak
//!   throughput strictly beats unbatched.

use std::process::ExitCode;

fn main() -> ExitCode {
    bf_bench::GATEWAY_GATE.run()
}
