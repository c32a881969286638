//! The one `main` behind the archive-gated harness binaries
//! (`datapath`, `gateway`, `scale`, `cache`, `federation`): `--smoke` /
//! `--check` parsing, render, JSON artifact, invariants, and the
//! read → parse → compare → print-mismatches archive check.

use std::process::ExitCode;

use serde::Serialize;

use crate::save_json;

/// One harness, described by its own functions: `P` is a ladder point,
/// `R` a measured row, `A` an archived row.
pub struct ArchiveGate<P: 'static, R, A> {
    /// Harness name; the artifact is `target/experiments/BENCH_<name>.json`.
    pub name: &'static str,
    /// Heading of the rendered table.
    pub title: &'static str,
    /// The full ladder.
    pub ladder: &'static [P],
    /// The `--smoke` subset CI runs.
    pub smoke: &'static [P],
    /// Runs the given ladder points.
    pub rows: fn(&[P]) -> Vec<R>,
    /// Renders the rows under a heading.
    pub render: fn(&str, &[R]) -> String,
    /// The archive-independent gate on the fresh rows, if the harness
    /// has one …
    pub invariants: Option<fn(&[R]) -> Result<(), String>>,
    /// … and the prefix its failure is reported under.
    pub violated: &'static str,
    /// Extracts the deterministic fields of an archived run.
    pub parse: fn(&serde_json::Value) -> Option<Vec<A>>,
    /// Lists every deterministic field that differs from the archive.
    pub check: fn(&[R], &[A]) -> Vec<String>,
    /// What `--check` compares, as named when it drifted …
    pub drifted: &'static str,
    /// … and when it matches.
    pub matched: &'static str,
}

impl<P, R: Serialize, A> ArchiveGate<P, R, A> {
    /// Runs the harness as the process's `main`:
    ///
    /// * no flags — full ladder, writes the JSON artifact;
    /// * `--smoke` — the CI subset, no artifact;
    /// * `[--smoke] --check <archived.json>` — additionally compares the
    ///   deterministic fields against an archived run and fails on drift.
    ///
    /// # Panics
    ///
    /// Panics when the archive named by `--check` is missing or
    /// malformed: that must fail the CI step loudly.
    pub fn run(&self) -> ExitCode {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let smoke = args.iter().any(|a| a == "--smoke");
        let check_path = args
            .iter()
            .position(|a| a == "--check")
            .and_then(|i| args.get(i + 1));
        let name = self.name;

        let rows = (self.rows)(if smoke { self.smoke } else { self.ladder });
        print!("{}", (self.render)(self.title, &rows));

        if !smoke {
            let path = save_json(&format!("BENCH_{name}"), &rows);
            println!("\nJSON artifact: {}", path.display());
        }

        if let Some(Err(msg)) = self.invariants.map(|check| check(&rows)) {
            eprintln!("{}: {msg}", self.violated);
            return ExitCode::FAILURE;
        }

        if let Some(path) = check_path {
            // bf-lint: allow(panic): a missing or malformed archive must
            // fail the CI step loudly (all three panics below).
            let raw = std::fs::read_to_string(path)
                .unwrap_or_else(|e| panic!("read archived {name} JSON: {e:?}"));
            let doc: serde_json::Value = serde_json::from_str(&raw)
                .unwrap_or_else(|e| panic!("parse archived {name} JSON: {e:?}"));
            let archived =
                (self.parse)(&doc).unwrap_or_else(|| panic!("archived {name} JSON shape"));
            let mismatches = (self.check)(&rows, &archived);
            if !mismatches.is_empty() {
                eprintln!("{} drifted from {path}:", self.drifted);
                for m in &mismatches {
                    eprintln!("  {m}");
                }
                return ExitCode::FAILURE;
            }
            println!("{} matches {path}", self.matched);
        }
        ExitCode::SUCCESS
    }
}
