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
//!   compares every deterministic field — trace digest included —
//!   against an archived run and exits non-zero on drift.

use std::process::ExitCode;

use bf_bench::{
    check_federation_archive, check_federation_invariants, federation_rows,
    parse_federation_archive, render_federation, ArchiveGate, FEDERATION_LADDER, FEDERATION_SMOKE,
};

fn main() -> ExitCode {
    ArchiveGate {
        name: "federation",
        title: "Federation — sharded control plane (placement storm, churn, failures, rebalance)",
        ladder: &FEDERATION_LADDER,
        smoke: &FEDERATION_SMOKE,
        rows: federation_rows,
        render: render_federation,
        invariants: Some(check_federation_invariants),
        violated: "federation invariant violated",
        parse: parse_federation_archive,
        check: check_federation_archive,
        drifted: "federation ladder",
        matched: "federation ladder",
    }
    .run()
}
