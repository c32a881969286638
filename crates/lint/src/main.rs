//! The `bf-lint` binary: scans the workspace and reports conformance
//! violations.
//!
//! ```text
//! cargo run -p bf-lint                      # human-readable diagnostics
//! cargo run -p bf-lint -- --json            # machine-readable report
//! cargo run -p bf-lint -- --root /path/to/workspace
//! cargo run -p bf-lint -- --explain hot_blocking
//! cargo run -p bf-lint -- --baseline lint-baseline.json
//! cargo run -p bf-lint -- --write-baseline  # refresh accepted findings
//! cargo run -p bf-lint -- --write-wire-schema  # snapshot wire enum tags
//! ```
//!
//! Rule families: per-file rules (`panic`, `raw_sync`, …), the bf-flow
//! reachability passes (`hot_blocking`, `hot_alloc`, `hot_panic`,
//! `error_drop`), the bf-taint trust-boundary dataflow passes
//! (`taint_alloc`, `taint_index`, `taint_loop`, `taint_auth`), and the
//! `wire_schema` drift gate. `--explain <rule>` documents each.
//!
//! When `<root>/lint-baseline.json` exists it is applied automatically:
//! findings listed there are suppressed (reported as `suppressed` in the
//! JSON summary), stale entries that no longer fire are warned about, and
//! only **new** findings fail the run.
//!
//! Exit codes: `0` clean, `1` violations found, `2` usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use bf_lint::explain::explain;

fn main() -> ExitCode {
    let mut json = false;
    let mut root: Option<PathBuf> = None;
    let mut baseline_path: Option<PathBuf> = None;
    let mut write_baseline = false;
    let mut write_wire_schema = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--root" => match args.next() {
                Some(path) => root = Some(PathBuf::from(path)),
                None => {
                    eprintln!("bf-lint: --root requires a path");
                    return ExitCode::from(2);
                }
            },
            "--baseline" => match args.next() {
                Some(path) => baseline_path = Some(PathBuf::from(path)),
                None => {
                    eprintln!("bf-lint: --baseline requires a path");
                    return ExitCode::from(2);
                }
            },
            "--write-baseline" => write_baseline = true,
            "--write-wire-schema" => write_wire_schema = true,
            "--explain" => {
                let rule = args.next();
                if let (Some(rule), Some(text)) = (&rule, rule.as_deref().and_then(explain)) {
                    println!("{rule}\n{}\n\n{text}", "-".repeat(rule.len()));
                    return ExitCode::SUCCESS;
                }
                let what = rule.map_or("--explain requires a rule name".to_string(), |r| {
                    format!("unknown rule {r:?}")
                });
                let known = bf_lint::explain::rules().join(", ");
                eprintln!("bf-lint: {what}; known rules: {known}");
                return ExitCode::from(2);
            }
            "--help" | "-h" => {
                println!(
                    "usage: bf-lint [--json] [--root <workspace>] [--baseline <file>]\n\
                     \u{20}              [--write-baseline] [--write-wire-schema]\n\
                     \u{20}              [--explain <rule>]\n\
                     \n\
                     passes: per-file rules, lock-graph, bf-flow reachability,\n\
                     bf-taint trust-boundary dataflow (taint_alloc/taint_index/\n\
                     taint_loop/taint_auth), wire-schema drift gate"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("bf-lint: unknown argument {other:?}");
                return ExitCode::from(2);
            }
        }
    }

    let root = match root {
        Some(r) => r,
        None => {
            let cwd = match std::env::current_dir() {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("bf-lint: cannot determine working directory: {e}");
                    return ExitCode::from(2);
                }
            };
            match bf_lint::find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!("bf-lint: no workspace root found above {}", cwd.display());
                    return ExitCode::from(2);
                }
            }
        }
    };

    if write_wire_schema {
        return match bf_lint::write_wire_schema(&root) {
            Ok(n) => {
                println!(
                    "bf-lint: wrote {n} wire enum(s) to {}",
                    root.join("wire-schema.json").display()
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("bf-lint: {e}");
                ExitCode::from(2)
            }
        };
    }

    let report = match bf_lint::run(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bf-lint: {e}");
            return ExitCode::from(2);
        }
    };

    // The default baseline is <root>/lint-baseline.json when present;
    // --baseline overrides, --write-baseline refreshes it.
    let baseline_path = baseline_path.unwrap_or_else(|| root.join("lint-baseline.json"));
    if write_baseline {
        let text = bf_lint::baseline::render(&report.diagnostics);
        if let Err(e) = std::fs::write(&baseline_path, text) {
            eprintln!("bf-lint: write {}: {e}", baseline_path.display());
            return ExitCode::from(2);
        }
        println!(
            "bf-lint: wrote {} accepted finding(s) to {}",
            report.diagnostics.len(),
            baseline_path.display()
        );
        return ExitCode::SUCCESS;
    }
    let keys = match bf_lint::baseline::load(&baseline_path) {
        Ok(k) => k,
        Err(e) => {
            eprintln!("bf-lint: {e}");
            return ExitCode::from(2);
        }
    };
    let gated = bf_lint::baseline::gate(&report.diagnostics, &keys);

    let mut out = String::new();
    use std::fmt::Write as _;
    if json {
        let value = report.to_json_gated(&gated);
        match serde_json::to_string_pretty(&value) {
            Ok(text) => {
                out.push_str(&text);
                out.push('\n');
            }
            Err(e) => {
                eprintln!("bf-lint: cannot render JSON report: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        for diag in &gated.new {
            let _ = writeln!(out, "{diag}");
        }
        for key in &gated.stale {
            let _ = writeln!(
                out,
                "bf-lint: warning: stale baseline entry no longer fires: {key}"
            );
        }
        let _ = writeln!(
            out,
            "bf-lint: {} file(s) scanned in {:.1} ms, {} new violation(s), \
             {} suppressed by baseline, {} stale baseline entr(ies)",
            report.files_scanned,
            report.wall_ms,
            gated.new.len(),
            gated.suppressed,
            gated.stale.len()
        );
    }
    // A closed pipe (`bf-lint | head`) must not turn into a panic; the
    // exit code still carries the verdict.
    use std::io::Write as _;
    let _ = std::io::stdout().write_all(out.as_bytes());
    if gated.new.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
