//! Measures host-side copy volume and wall-clock per EnqueueWrite→Read
//! round trip over both BlastFunction transports.
//!
//! Usage:
//!
//! * `datapath` — full 1 KB → 2 GB ladder, writes
//!   `target/experiments/BENCH_datapath.json`.
//! * `datapath --smoke` — CI subset (sizes ≤ 1 MB).
//! * `datapath [--smoke] --check <archived.json>` — additionally compares
//!   the deterministic copy-accounting fields against an archived run and
//!   exits non-zero on drift.

use std::process::ExitCode;

use bf_bench::{
    check_against_archive, datapath_rows, parse_archive, render_datapath, ArchiveGate, LADDER,
    SMOKE,
};

fn main() -> ExitCode {
    ArchiveGate {
        name: "datapath",
        title: "Datapath — host bytes memcpy'd and wall-clock per write+read round trip",
        ladder: &LADDER,
        smoke: &SMOKE,
        rows: datapath_rows,
        render: render_datapath,
        invariants: None,
        violated: "",
        parse: parse_archive,
        check: check_against_archive,
        drifted: "datapath copy accounting",
        matched: "copy accounting",
    }
    .run()
}
