//! Content-addressed payload-cache sweep: wire bytes per request with
//! and without the Device Manager's cache under Zipf(1.2) payload reuse.
//!
//! Usage:
//!
//! * `cache` — full ladder (hot/churn/big), writes
//!   `target/experiments/BENCH_cache.json`.
//! * `cache --smoke` — CI subset (hot + churn; their rows are directly
//!   comparable to the archive).
//! * `cache [--smoke] --check <archived.json>` — additionally compares
//!   every deterministic field against an archived run and exits
//!   non-zero on drift.

use std::process::ExitCode;

use bf_bench::{
    cache_rows, check_cache_archive, check_cache_invariants, parse_cache_archive, render_cache,
    ArchiveGate, CACHE_LADDER, CACHE_SMOKE,
};

fn main() -> ExitCode {
    // On stderr, not in the archive: the archived fields are counters and
    // virtual times, identical on either kernel; the wall time of a run
    // is not, and this line says which kernel it was spent on.
    eprintln!(
        "cache: content digest kernel = {}",
        bf_cache::digest_kernel()
    );
    ArchiveGate {
        name: "cache",
        title: "Cache — content-addressed payload cache (Zipf(1.2) reuse, gRPC path)",
        ladder: &CACHE_LADDER,
        smoke: &CACHE_SMOKE,
        rows: cache_rows,
        render: render_cache,
        invariants: Some(check_cache_invariants),
        violated: "cache invariant violated",
        parse: parse_cache_archive,
        check: check_cache_archive,
        drifted: "cache sweep",
        matched: "cache sweep",
    }
    .run()
}
