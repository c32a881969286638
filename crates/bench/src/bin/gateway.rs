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
//!   every deterministic field against an archived run, re-asserts that
//!   batched peak throughput strictly beats unbatched, and exits
//!   non-zero on drift.

use std::process::ExitCode;

use bf_bench::{
    check_batching_wins, check_gateway_archive, gateway_rows, parse_gateway_archive,
    render_gateway, ArchiveGate, GATEWAY_LADDER, GATEWAY_SMOKE,
};

fn main() -> ExitCode {
    ArchiveGate {
        name: "gateway",
        title: "Gateway — open-loop Sobel sweep, batched vs unbatched invocation queues",
        ladder: &GATEWAY_LADDER,
        smoke: &GATEWAY_SMOKE,
        rows: gateway_rows,
        render: render_gateway,
        invariants: Some(check_batching_wins),
        violated: "batching regression",
        parse: parse_gateway_archive,
        check: check_gateway_archive,
        drifted: "gateway sweep",
        matched: "gateway sweep",
    }
    .run()
}
