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
//!   every deterministic field — trace digest included — against an
//!   archived run and exits non-zero on drift.

use std::process::ExitCode;

use bf_bench::{
    check_scale_archive, check_scale_invariants, parse_scale_archive, render_scale, scale_rows,
    ArchiveGate, SCALE_LADDER, SCALE_SMOKE,
};

fn main() -> ExitCode {
    ArchiveGate {
        name: "scale",
        title: "Scale — production-day sweep (diurnal Zipf traffic, full fault battery)",
        ladder: &SCALE_LADDER,
        smoke: &SCALE_SMOKE,
        rows: scale_rows,
        render: render_scale,
        invariants: Some(check_scale_invariants),
        violated: "scale invariant violated",
        parse: parse_scale_archive,
        check: check_scale_archive,
        drifted: "scale sweep",
        matched: "scale sweep",
    }
    .run()
}
