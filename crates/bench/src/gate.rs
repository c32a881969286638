//! What `bf-bench` runs for each archive-gated ladder (`datapath`,
//! `gateway`, `scale`, `cache`): `--smoke` / `--check`
//! parsing, render, JSON artifact, invariants, and the one archive
//! check. The serialized row is the only schema: a harness names the
//! fields that identify a row and the fields that are informational, and
//! every other field of every row is compared.

use std::collections::BTreeSet;
use std::process::ExitCode;

use serde::{Serialize, Serializer};
use serde_json::{Number, Value};

use crate::save_json;

/// One ladder point as data — a size, a rate, or a label and its
/// configuration — marked with the runs that measure it.
#[derive(Debug, Clone, Copy)]
pub enum Rung<P> {
    /// Measured by the full ladder and by the `--smoke` subset CI runs.
    Smoke(P),
    /// Measured by the full ladder only.
    Full(P),
}

/// A ladder point that is a label and the configuration it names.
pub type Named<C> = (&'static str, fn() -> C);

/// One harness, described by its own functions: `P` is a ladder point,
/// `R` a measured row.
pub struct ArchiveGate<P: 'static, R> {
    /// Harness name; the artifact is `target/experiments/BENCH_<name>.json`.
    pub name: &'static str,
    /// Heading of the rendered table.
    pub title: &'static str,
    /// The full ladder, which also says which points `--smoke` runs.
    pub ladder: &'static [Rung<P>],
    /// Runs the given ladder points.
    pub rows: fn(&[P]) -> Vec<R>,
    /// Renders the rows under a heading.
    pub render: fn(&str, &[R]) -> String,
    /// The archive-independent gate on the fresh rows, if the harness
    /// has one …
    pub invariants: Option<fn(&[R]) -> Result<(), String>>,
    /// … and the prefix its failure is reported under.
    pub violated: &'static str,
    /// The fields that identify a row: a fresh row is compared against
    /// the archived row that agrees with it on all of them.
    pub key: &'static [&'static str],
    /// Fields archived as a trajectory and never compared (wall-clock
    /// numbers). Every other field of a row is compared.
    pub informational: &'static [&'static str],
    /// What `--check` compares, as named in its verdict line.
    pub what: &'static str,
}

impl<P: Copy, R: Serialize> ArchiveGate<P, R> {
    /// The points a full (`smoke` false) or `--smoke` run measures.
    pub fn points(&self, smoke: bool) -> Vec<P> {
        let point = |rung: &Rung<P>| match *rung {
            Rung::Smoke(point) => Some(point),
            Rung::Full(point) => (!smoke).then_some(point),
        };
        self.ladder.iter().filter_map(point).collect()
    }

    /// Runs the harness on the arguments that follow its name:
    ///
    /// * no flags — full ladder, writes the JSON artifact;
    /// * `--smoke` — the CI subset, no artifact;
    /// * `[--smoke] --check <archived.json>` — additionally compares
    ///   every field that is not informational against the archived row
    ///   of the same key and fails on drift; a full run also fails on an
    ///   archived row it did not produce.
    ///
    /// Anything else on the command line is a usage error (exit 2)
    /// reported before any ladder point runs.
    ///
    /// # Panics
    ///
    /// Panics when the archive named by `--check` is missing or
    /// malformed: that must fail the CI step loudly.
    pub fn run(&self, args: &[String]) -> ExitCode {
        let name = self.name;
        let args = match parse_args(args.iter().cloned()) {
            Ok(args) => args,
            Err(msg) => {
                eprintln!(
                    "{name}: {msg}\nusage: bf-bench {name} [--smoke] [--check <archived.json>]"
                );
                return ExitCode::from(2);
            }
        };

        let rows = (self.rows)(&self.points(args.smoke));
        print!("{}", (self.render)(self.title, &rows));

        if !args.smoke {
            let path = save_json(&format!("BENCH_{name}"), &rows);
            println!("\nJSON artifact: {}", path.display());
        }

        if let Some(Err(msg)) = self.invariants.map(|check| check(&rows)) {
            eprintln!("{}: {msg}", self.violated);
            return ExitCode::FAILURE;
        }

        if let Some(path) = &args.check {
            // bf-lint: allow(panic): a missing or malformed archive must
            // fail the CI step loudly (all three panics below).
            let raw = std::fs::read_to_string(path)
                .unwrap_or_else(|e| panic!("read archived {name} JSON: {e:?}"));
            let doc: Value = serde_json::from_str(&raw)
                .unwrap_or_else(|e| panic!("parse archived {name} JSON: {e:?}"));
            let fresh: Vec<Value> = rows.iter().map(serde_json::to_value).collect();
            let mismatches =
                archive_mismatches(&fresh, &doc, self.key, self.informational, args.smoke)
                    .unwrap_or_else(|| panic!("archived {name} JSON shape"));
            if !mismatches.is_empty() {
                eprintln!("{} drifted from {path}:", self.what);
                for m in &mismatches {
                    eprintln!("  {m}");
                }
                return ExitCode::FAILURE;
            }
            println!("{} matches {path}", self.what);
        }
        ExitCode::SUCCESS
    }
}

/// What one invocation of a gated ladder asks for.
#[derive(Debug, Default, PartialEq, Eq)]
struct GateArgs {
    smoke: bool,
    check: Option<String>,
}

/// Parses the arguments that follow a gated ladder's name. A `--check`
/// with no path after it and any argument that is not a flag of the gate
/// are errors: either would let a CI step pass having compared nothing.
fn parse_args(mut args: impl Iterator<Item = String>) -> Result<GateArgs, String> {
    let mut parsed = GateArgs::default();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => parsed.smoke = true,
            "--check" => match args.next() {
                Some(path) if !path.starts_with("--") => parsed.check = Some(path),
                _ => return Err("--check needs the path of an archived run".to_string()),
            },
            other => return Err(format!("unrecognised argument {other:?}")),
        }
    }
    Ok(parsed)
}

/// Tolerance on non-integer numbers: absorbs a decimal round trip, far
/// below anything a virtual-time quantity moves by.
const EPS: f64 = 1e-6;

/// Whether a fresh and an archived field agree: both present, integers
/// and everything that is not a number exactly equal, other numbers
/// within [`EPS`].
fn agree(got: Option<&Value>, want: Option<&Value>) -> bool {
    match (got, want) {
        (Some(Value::Number(g)), Some(Value::Number(w))) => match (g, w) {
            (Number::Float(_), _) | (_, Number::Float(_)) => (g.as_f64() - w.as_f64()).abs() <= EPS,
            _ => g.as_u64() == w.as_u64() && g.as_i64() == w.as_i64(),
        },
        (Some(got), Some(want)) => got == want,
        _ => false,
    }
}

/// A value as it appears in a mismatch line: strings bare, a field one
/// side does not have as `<absent>`, the rest as JSON.
fn show(value: Option<&Value>) -> String {
    match value {
        None => "<absent>".to_string(),
        Some(Value::String(s)) => s.clone(),
        Some(v) => serde_json::to_string(v).unwrap_or_default(),
    }
}

/// Compares each fresh row, whole, against the archived row with the
/// same `key` fields and lists every field outside `informational` whose
/// value differs in either direction — a field only one side has counts —
/// as `"<key values>: <field> <got> != archived <want>"`. A fresh row
/// with no archived counterpart is a mismatch. An archived row the run
/// did not produce is one too, unless the run was a `smoke` subset
/// checked against a full-ladder archive. Returns `None` when `archive`
/// is not an array of objects that each carry every key field.
fn archive_mismatches(
    fresh: &[Value],
    archive: &Value,
    key: &[&str],
    informational: &[&str],
    smoke: bool,
) -> Option<Vec<String>> {
    let archived = archive.as_array()?;
    let keyed = |row: &Value| {
        row.as_object()
            .is_some_and(|r| key.iter().all(|k| r.contains_key(*k)))
    };
    if !archived.iter().all(keyed) {
        return None;
    }
    let id = |row: &Value| {
        key.iter()
            .map(|k| show(row.get(k)))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let same_key = |a: &Value, b: &Value| key.iter().all(|k| agree(a.get(k), b.get(k)));
    let mut mismatches = Vec::new();
    for row in fresh {
        let id = id(row);
        let counterpart = archived.iter().find(|a| same_key(row, a));
        let (Some(got), Some(want)) = (row.as_object(), counterpart.and_then(Value::as_object))
        else {
            mismatches.push(format!("{id}: no archived row"));
            continue;
        };
        let fields: BTreeSet<&String> = got.keys().chain(want.keys()).collect();
        for field in fields {
            if informational.contains(&field.as_str()) {
                continue;
            }
            let (got, want) = (got.get(field), want.get(field));
            if !agree(got, want) {
                mismatches.push(format!(
                    "{id}: {field} {} != archived {}",
                    show(got),
                    show(want)
                ));
            }
        }
    }
    if !smoke {
        for row in archived {
            if !fresh.iter().any(|f| same_key(f, row)) {
                mismatches.push(format!("{}: archived row not produced", id(row)));
            }
        }
    }
    Some(mismatches)
}

/// A ladder point's simulation result under its ladder label. Serializes
/// as the result's own fields plus `"label"`, so the result struct is
/// the row schema and no harness copies it field by field.
#[derive(Debug, Clone)]
pub struct Labelled<T> {
    /// Ladder label.
    pub label: String,
    /// What the simulation reported for the point.
    pub result: T,
}

impl<T: Serialize> Serialize for Labelled<T> {
    fn serialize(&self, s: &mut dyn Serializer) {
        let mut row = serde_json::to_value(&self.result);
        if let Value::Object(fields) = &mut row {
            fields.insert("label".to_string(), Value::String(self.label.clone()));
        }
        row.serialize(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    impl<P: Copy, R: Serialize> ArchiveGate<P, R> {
        /// For each harness's own test: a misspelt `key` or
        /// `informational` name must fail a test, not change what the
        /// gate compares.
        pub(crate) fn assert_names_are_fields_of(&self, row: &R) {
            let row = serde_json::to_value(row);
            for name in self.key.iter().chain(self.informational) {
                assert!(row.get(name).is_some(), "{name} is not a field of {row:?}");
            }
        }

        /// For each harness's own test: `--smoke` measures some of the
        /// ladder, never none of it (that would check nothing) and never
        /// all of it.
        pub(crate) fn assert_smoke_is_a_proper_subset(&self) {
            let (smoke, full) = (self.points(true).len(), self.points(false).len());
            assert!(
                0 < smoke && smoke < full,
                "{}: {smoke} of {full} points in --smoke",
                self.name
            );
        }
    }

    fn args(list: &[&str]) -> Result<GateArgs, String> {
        parse_args(list.iter().map(ToString::to_string))
    }

    #[test]
    fn command_line_is_parsed_strictly() {
        assert_eq!(args(&[]), Ok(GateArgs::default()));
        assert_eq!(
            args(&["--smoke"]),
            Ok(GateArgs {
                smoke: true,
                check: None
            })
        );
        let both = GateArgs {
            smoke: true,
            check: Some("a.json".to_string()),
        };
        assert_eq!(args(&["--smoke", "--check", "a.json"]).as_ref(), Ok(&both));
        assert_eq!(args(&["--check", "a.json", "--smoke"]).as_ref(), Ok(&both));
        // The path dropped, in either order.
        assert!(args(&["--smoke", "--check"]).is_err());
        assert!(args(&["--check", "--smoke"]).is_err());
        // A misspelt flag, and the path that then follows it.
        assert!(args(&["--smoke", "--chekc", "a.json"]).is_err());
        assert!(args(&["a.json"]).is_err());
    }

    /// One table row: `fresh`, as a `--smoke` subset, checked against
    /// `archived` must yield exactly the `expected` mismatch lines.
    #[track_caller]
    fn case(
        name: &str,
        fresh: Value,
        archived: Vec<Value>,
        key: &[&str],
        informational: &[&str],
        expected: &[&str],
    ) {
        let got = archive_mismatches(&[fresh], &Value::Array(archived), key, informational, true);
        let expected: Vec<String> = expected.iter().map(ToString::to_string).collect();
        assert_eq!(got, Some(expected), "{name}");
    }

    #[test]
    fn comparator_reports_every_differing_field_in_either_direction() {
        let row = json!({
            "label": "hot", "system": "cache", "hits": 7, "ratio": 0.5,
            "digest": "3207b856de115761", "reduction": null, "wall_ms": 1.25
        });
        let with = |field: &str, value: Value| {
            let mut changed = row.clone();
            if let Value::Object(fields) = &mut changed {
                fields.insert(field.to_string(), value);
            }
            changed
        };
        let without = |field: &str| {
            let mut shrunk = row.clone();
            if let Value::Object(fields) = &mut shrunk {
                fields.remove(field);
            }
            shrunk
        };
        let row = || row.clone();
        let other = json!({ "label": "big", "system": "cache", "hits": 1 });
        let label: &[&str] = &["label"];

        case("equal rows", row(), vec![row()], label, &[], &[]);
        case(
            "drifted integer",
            row(),
            vec![with("hits", json!(8))],
            label,
            &[],
            &["hot: hits 7 != archived 8"],
        );
        case(
            "integers past 2^53 are compared exactly",
            with("hits", json!(9_007_199_254_740_993_u64)),
            vec![with("hits", json!(9_007_199_254_740_992_u64))],
            label,
            &[],
            &["hot: hits 9007199254740993 != archived 9007199254740992"],
        );
        case(
            "drifted float beyond the tolerance",
            row(),
            vec![with("ratio", json!(0.50001))],
            label,
            &[],
            &["hot: ratio 0.5 != archived 0.50001"],
        );
        case(
            "drifted float within the tolerance",
            row(),
            vec![with("ratio", json!(0.500_000_000_1))],
            label,
            &[],
            &[],
        );
        case(
            "drifted string digest",
            row(),
            vec![with("digest", json!("0000000000000000"))],
            label,
            &[],
            &["hot: digest 3207b856de115761 != archived 0000000000000000"],
        );
        case(
            "null against a number",
            row(),
            vec![with("reduction", json!(25.0))],
            label,
            &[],
            &["hot: reduction null != archived 25.0"],
        );
        case(
            "field only in the fresh row",
            row(),
            vec![without("hits")],
            label,
            &[],
            &["hot: hits 7 != archived <absent>"],
        );
        case(
            "field only in the archive",
            without("hits"),
            vec![row()],
            label,
            &[],
            &["hot: hits <absent> != archived 7"],
        );
        case(
            "informational field differs",
            row(),
            vec![with("wall_ms", json!(99.0))],
            label,
            &["wall_ms"],
            &[],
        );
        case(
            "the same difference without the exemption",
            row(),
            vec![with("wall_ms", json!(99.0))],
            label,
            &[],
            &["hot: wall_ms 1.25 != archived 99.0"],
        );
        case(
            "fresh row without an archived row",
            row(),
            vec![other.clone()],
            label,
            &[],
            &["hot: no archived row"],
        );
        case(
            "archived row without a fresh row",
            row(),
            vec![other, row()],
            label,
            &[],
            &[],
        );
        case(
            "two-field key picks the row that agrees on both",
            row(),
            vec![with("system", json!("nocache")), with("hits", json!(9))],
            &["label", "system"],
            &[],
            &["hot cache: hits 7 != archived 9"],
        );
        case(
            "two-field key with only one field agreeing",
            row(),
            vec![with("system", json!("nocache"))],
            &["label", "system"],
            &[],
            &["hot cache: no archived row"],
        );
        case(
            "a float key field matches within the tolerance",
            with("ratio", json!(0.500_000_000_1)),
            vec![with("hits", json!(9))],
            &["system", "ratio"],
            &[],
            &["cache 0.5000000001: hits 7 != archived 9"],
        );
    }

    #[test]
    fn a_full_ladder_check_fails_on_an_archived_row_it_did_not_produce() {
        let hot = json!({ "label": "hot", "hits": 7 });
        let big = json!({ "label": "big", "hits": 1 });
        let archive = Value::Array(vec![big, hot.clone()]);
        let check = |smoke| {
            archive_mismatches(std::slice::from_ref(&hot), &archive, &["label"], &[], smoke)
        };
        assert_eq!(check(true), Some(vec![]), "a smoke subset");
        assert_eq!(
            check(false),
            Some(vec!["big: archived row not produced".to_string()]),
            "a full ladder"
        );
    }

    #[test]
    fn an_archive_of_the_wrong_shape_is_not_a_clean_check() {
        let fresh = [json!({ "label": "hot", "hits": 7 })];
        for (case, archive) in [
            ("not an array", json!({ "label": "hot" })),
            ("a row that is not an object", json!([7])),
            ("a row without the key field", json!([{ "hits": 7 }])),
        ] {
            assert_eq!(
                archive_mismatches(&fresh, &archive, &["label"], &[], false),
                None,
                "{case}"
            );
        }
    }

    #[test]
    fn labelled_result_serializes_as_the_result_plus_its_label() {
        #[derive(Serialize)]
        struct Result {
            placed: u64,
            trace_digest: String,
        }
        let row = Labelled {
            label: "smoke-1".to_string(),
            result: Result {
                placed: 3,
                trace_digest: "ab".to_string(),
            },
        };
        assert_eq!(
            serde_json::to_value(&row),
            json!({ "label": "smoke-1", "placed": 3, "trace_digest": "ab" })
        );
    }
}
