//! `bf-bench <artifact> [--smoke] [--check <archived.json>]`: regenerates
//! one paper figure, table, ablation or archive-gated ladder. Run it with
//! no arguments for the list of artifacts.

use std::process::ExitCode;

fn main() -> ExitCode {
    bf_bench::run(std::env::args().skip(1))
}
