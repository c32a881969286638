#![forbid(unsafe_code)]

//! # bf-lint — project-wide static conformance engine
//!
//! A lightweight line/token scanner (no rustc plumbing, no external
//! parsers) enforcing the workspace's concurrency and robustness
//! conventions over `crates/` and `tests/`:
//!
//! | rule | meaning |
//! |---|---|
//! | `panic` | no `.unwrap()` / `.expect()` in non-test library code |
//! | `lock_order` | acquisitions must follow the declared lock hierarchy |
//! | `lock_graph` | whole-program: every lock ranked, no static acquisition cycle, hierarchy fully covered |
//! | `raw_sync` | instrumented crates use the bf-sync facade, not raw parking_lot/std primitives |
//! | `wildcard_match` | `match`es over status enums must not use `_` arms |
//! | `payload_copy` | no unjustified payload byte copies in datapath modules |
//!
//! `std::sync` locks, wall-clock reads and unbounded channels are
//! `clippy.toml` bans, enforced by `cargo clippy` instead.
//!
//! On top of the per-file rules, the [`flow`] module runs **bf-flow**:
//! a workspace-wide call graph with reachability passes (`hot_blocking`,
//! `hot_alloc`, `hot_panic`, `error_drop`) seeded from
//! `// bf-flow: entry(<class>)` annotations on hot-path roots. Findings
//! carry call-chain witnesses and are gated against a checked-in
//! [`baseline`] (`lint-baseline.json`): pre-existing findings warn,
//! **new** findings fail.
//!
//! A third layer, [`taint`] (**bf-taint**), reuses the bf-flow call
//! graph for trust-boundary dataflow: values produced by the wire
//! decode surface (`// bf-taint: source(wire)` annotations plus
//! auto-seeded `decode`/`from_bytes` fns in `bf-rpc`) are tracked
//! through assignments, pattern bindings, and call edges into sensitive
//! sinks — allocation sizes, slice indexing and `split_to`-style buffer
//! math, loop bounds, and cache-admission / digest-authorization calls
//! (`taint_alloc`, `taint_index`, `taint_loop`, `taint_auth`).
//! Sanitizers (`.min(cap)` / `.clamp(..)`, server-side
//! `content_digest` recomputation, or a justified
//! `// bf-taint: sanitized(<why>)`) clear taint. The [`wire_schema`]
//! rule additionally pins the wire enums' released tag numbers against
//! the checked-in `wire-schema.json` snapshot (append-only evolution).
//!
//! Individual sites opt out with a justified directive comment:
//!
//! ```text
//! // bf-lint: allow(panic): poisoning is impossible — single writer
//! // bf-flow: allow(hot_alloc): bounded by max_pending_responses
//! // bf-taint: allow(taint_auth): the digest check IS the authorization
//! // bf-taint: sanitized(len is clamped to the shm segment cap)
//! ```
//!
//! The engine is exposed three ways: the `bf-lint` binary
//! (`cargo run -p bf-lint`, `--json` for machine-readable output,
//! `--explain <rule>` for rule docs), the `tests/lint_conformance.rs`
//! integration test (keeps `cargo test` the single gate), and this
//! library API.
//!
//! Each source file is parsed **once** into a [`rules::Unit`] (masked
//! line model + every annotation, read by one reader) shared by every
//! per-file rule and the lock-graph pass. The program model — functions,
//! per-function facts and every call site's resolved targets — is built
//! **once** per run by [`flow::build_model`] and shared by bf-flow and
//! bf-taint. The rule registry ([`explain`]) is the one list of rule ids
//! and directive families. The `--json` summary reports the wall time of
//! the whole scan.
//!
//! The lock hierarchy is imported from [`bf_devmgr::lock_order`], the same
//! table the runtime held-lock tracker enforces in debug builds — one
//! source of truth for both enforcement layers.

use std::fs;
use std::path::{Path, PathBuf};

pub mod baseline;
pub mod explain;
pub mod flow;
pub mod rules;
pub mod scan;
pub mod taint;
pub mod wire_schema;

pub use explain::Family;
pub use flow::{build_model, EntryPoint, Model, ENTRY_CLASSES, FLOW_RULES};
pub use rules::{Diagnostic, Hop, Unit, RULES, STATUS_ENUMS};
pub use taint::TAINT_RULES;
pub use wire_schema::WIRE_SCHEMA_RULE;

/// The declared lock-acquisition hierarchy (re-exported from the runtime
/// tracker so the two layers can never drift apart).
pub use bf_devmgr::lock_order::HIERARCHY as LOCK_HIERARCHY;

/// Outcome of a whole-tree scan.
#[derive(Debug)]
pub struct Report {
    /// Findings across all scanned files, in path order.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Wall time of the scan (parse + all rules + all flow passes).
    pub wall_ms: f64,
    /// Resolved `bf-flow: entry(..)` annotations, in path order.
    pub entries: Vec<EntryPoint>,
}

impl Report {
    /// Machine-readable form with baseline gating applied, stable for CI
    /// consumption: `ok` reflects only **new** findings, and the document
    /// carries the gated split.
    pub fn to_json_gated(&self, gated: &baseline::Gated) -> serde_json::Value {
        serde_json::json!({
            "ok": gated.new.is_empty(),
            "files_scanned": self.files_scanned,
            "lint_wall_ms": (self.wall_ms * 100.0).round() / 100.0,
            "entries": self
                .entries
                .iter()
                .map(|e| {
                    serde_json::json!({
                        "class": e.class,
                        "function": e.function,
                        "file": e.file,
                        "line": e.line,
                    })
                })
                .collect::<Vec<_>>(),
            "violations": self
                .diagnostics
                .iter()
                .map(diagnostic_json)
                .collect::<Vec<_>>(),
            "new_violations": gated.new.iter().map(diagnostic_json).collect::<Vec<_>>(),
            "suppressed": gated.suppressed,
            "stale_baseline": gated.stale.clone(),
        })
    }
}

/// One diagnostic in the stable JSON shape (also used for baseline-gated
/// subsets).
fn diagnostic_json(d: &Diagnostic) -> serde_json::Value {
    serde_json::json!({
        "rule": d.rule,
        "file": d.file,
        "line": d.line,
        "column": d.column,
        "message": d.message,
        "key": d.baseline_key(),
        "witness": d
            .witness
            .iter()
            .map(|h| {
                serde_json::json!({
                    "function": h.function,
                    "file": h.file,
                    "line": h.line,
                })
            })
            .collect::<Vec<_>>(),
    })
}

/// Scans one in-memory source file (used by rule unit tests and by tools
/// embedding the engine). Per-file rules only — bf-flow needs the whole
/// workspace.
pub fn check_source(path: &str, text: &str) -> Vec<Diagnostic> {
    let file = scan::parse(path, text, is_test_path(path));
    let mut out = Vec::new();
    let unit = rules::Unit::analyze(file, &mut out);
    rules::check_file(&unit, LOCK_HIERARCHY, &mut out);
    out
}

/// Scans the workspace rooted at `root` (`crates/` and `tests/`): per-file
/// rules, the whole-program lock-graph pass, the four bf-flow passes and
/// the bf-taint pass over one parse and one program model, then the
/// wire-schema gate.
///
/// # Errors
///
/// Returns an I/O description when the tree cannot be read.
pub fn run(root: &Path) -> Result<Report, String> {
    #[expect(
        clippy::disallowed_methods,
        reason = "lint tooling self-timing, not simulation state"
    )]
    let started = std::time::Instant::now();
    let mut diagnostics = Vec::new();
    let units = parse_tree(root, &mut diagnostics)?;
    if units.is_empty() {
        // A wrong --root must not read as a clean workspace.
        return Err(format!(
            "no Rust sources found under {} — is this a workspace root?",
            root.display()
        ));
    }
    for unit in &units {
        rules::check_file(unit, LOCK_HIERARCHY, &mut diagnostics);
    }
    // The whole-program passes need every file at once: unranked-lock
    // declarations, cross-crate acquisition cycles, hierarchy coverage —
    // then bf-flow and bf-taint over the one model; the wire-schema gate
    // diffs the decode surface against the snapshot.
    rules::check_program(&units, LOCK_HIERARCHY, &mut diagnostics);
    let model = flow::build_model(&units);
    let entries = flow::check(&units, &model, LOCK_HIERARCHY, &mut diagnostics);
    taint::check(&units, &model, &mut diagnostics);
    wire_schema::check(&units, &root.join("wire-schema.json"), &mut diagnostics);
    Ok(Report {
        diagnostics,
        files_scanned: units.len(),
        wall_ms: started.elapsed().as_secs_f64() * 1000.0,
        entries,
    })
}

/// Regenerates `<root>/wire-schema.json` from the decode surface.
/// Returns the number of wire enums captured.
///
/// # Errors
///
/// Returns an I/O description when the tree cannot be read, no wire
/// enums are found, or the snapshot cannot be written.
pub fn write_wire_schema(root: &Path) -> Result<usize, String> {
    let schema = wire_schema::extract(&parse_tree(root, &mut Vec::new())?);
    if schema.is_empty() {
        return Err(format!(
            "no wire enums found under {} — is this a workspace root?",
            root.display()
        ));
    }
    let out = root.join("wire-schema.json");
    std::fs::write(&out, wire_schema::render(&schema))
        .map_err(|e| format!("write {}: {e}", out.display()))?;
    Ok(schema.len())
}

/// Reads and parses every `.rs` file under `<root>/crates` and
/// `<root>/tests`, in path order, into units; annotation diagnostics go to
/// `out`.
fn parse_tree(root: &Path, out: &mut Vec<Diagnostic>) -> Result<Vec<Unit>, String> {
    let mut files = Vec::new();
    for top in ["crates", "tests"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rust_files(&dir, &mut files)?;
        }
    }
    files.sort();
    let mut units = Vec::with_capacity(files.len());
    for path in files {
        let text =
            fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let file = scan::parse(&rel, &text, is_test_path(&rel));
        units.push(Unit::analyze(file, out));
    }
    Ok(units)
}

/// Whether every line of the file counts as test code (integration tests
/// and benches may panic freely).
pub(crate) fn is_test_path(path: &str) -> bool {
    path.starts_with("tests/") || path.contains("/tests/") || path.contains("/benches/")
}

/// Recursively collects `.rs` files, skipping build output and VCS state.
fn collect_rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" || name == "vendor" {
                continue;
            }
            collect_rust_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Locates the workspace root: the nearest ancestor of `start` holding
/// both a `Cargo.toml` and a `crates/` directory.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        if d.join("Cargo.toml").is_file() && d.join("crates").is_dir() {
            return Some(d.to_path_buf());
        }
        dir = d.parent();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_paths_are_exempt_from_panic_rule() {
        assert!(check_source("tests/smoke.rs", "fn f() { x().unwrap(); }\n").is_empty());
        assert!(
            check_source("crates/bench/benches/fig4.rs", "fn f() { x().unwrap(); }\n").is_empty()
        );
        assert_eq!(
            check_source("crates/rpc/src/codec.rs", "fn f() { x().unwrap(); }\n").len(),
            1
        );
    }

    #[test]
    fn hierarchy_is_shared_with_the_runtime_tracker() {
        assert!(LOCK_HIERARCHY.contains(&"board"));
        assert!(LOCK_HIERARCHY.contains(&"shards"));
    }

    #[test]
    fn json_report_shape_is_stable() {
        let mut diag =
            Diagnostic::new("panic", "crates/x/src/lib.rs", 3, "m".to_string()).at_column(9);
        diag.witness = vec![Hop {
            function: "X::f".to_string(),
            file: "crates/x/src/lib.rs".to_string(),
            line: 1,
        }];
        let report = Report {
            diagnostics: vec![diag],
            files_scanned: 7,
            wall_ms: 12.345,
            entries: vec![EntryPoint {
                class: "poller".to_string(),
                function: "Poller::poll".to_string(),
                file: "crates/rpc/src/poller.rs".to_string(),
                line: 40,
            }],
        };
        let v = report.to_json_gated(&baseline::gate(&report.diagnostics, &[]));
        assert_eq!(v["ok"], false);
        assert_eq!(v["files_scanned"], 7u64);
        assert_eq!(v["lint_wall_ms"], 12.35);
        assert_eq!(v["entries"][0]["class"], "poller");
        assert_eq!(v["violations"][0]["rule"], "panic");
        assert_eq!(v["violations"][0]["line"], 3u64);
        assert_eq!(v["violations"][0]["column"], 9u64);
        assert_eq!(v["violations"][0]["key"], "panic|crates/x/src/lib.rs|3");
        assert_eq!(v["violations"][0]["witness"][0]["function"], "X::f");
    }
}
