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
//!   every field of every row against the archived run and exits
//!   non-zero on drift.

use std::process::ExitCode;

fn main() -> ExitCode {
    // On stderr, not in the archive: the archived fields are counters and
    // virtual times, identical on either kernel; the wall time of a run
    // is not, and this line says which kernel it was spent on.
    eprintln!(
        "cache: content digest kernel = {}",
        bf_cache::digest_kernel()
    );
    bf_bench::CACHE_GATE.run()
}
