//! The per-file conformance rules, the lock-graph pass, and the one
//! annotation reader every pass shares.
//!
//! Each rule walks the masked view produced by [`crate::scan`] and emits
//! [`Diagnostic`]s. Sites can be exempted with a justified directive:
//!
//! ```text
//! // bf-lint: allow(panic): board invariant — id was just allocated
//! ```
//!
//! The directive exempts its own line, or the following statement (the
//! next code line plus any method-chain continuation lines) when it
//! stands alone on a comment-only line. A directive without a
//! justification is itself a violation.

use std::collections::{BTreeMap, HashMap, HashSet};

use crate::explain::Family;
use crate::flow::FLOW_RULES;
use crate::scan::{closing, depths, find_all, find_keyword, ident_before, Line, SourceFile};
use crate::taint::TAINT_RULES;

/// Rules a `bf-lint: allow(..)` directive may name: the per-file rules,
/// `lock_graph` and `directive` (see [`crate::explain`]).
pub const RULES: Family = Family("bf-lint");

/// Crates whose synchronization is instrumented through the bf-sync facade
/// (`bf_race::sync`): constructing raw primitives here bypasses the model
/// scheduler, so the `raw_sync` rule flags direct imports.
pub const INSTRUMENTED_CRATES: &[&str] = &[
    "crates/rpc/",
    "crates/devmgr/",
    "crates/remote/",
    "crates/fpga/",
    "crates/serverless/",
    "crates/cache/",
    "crates/registry/",
];

/// Where the lock hierarchy table lives; whole-program coverage findings
/// anchor here when no concrete site exists.
pub const LOCK_TABLE_MODULE: &str = "crates/devmgr/src/lock_order.rs";

/// Status enums whose `match`es must stay wildcard-free, so that adding a
/// state forces every consumer to take a position.
pub const STATUS_ENUMS: &[&str] = &["EventStatus"];

/// The one file allowed to read the host's clocks.
pub const CLOCK_MODULE: &str = "crates/model/src/clock.rs";

/// Datapath modules where payload bytes are refcounted `Bytes` end-to-end:
/// any byte copy here must be deliberate and justified.
pub const DATAPATH_MODULES: &[&str] = &[
    "crates/rpc/src/codec.rs",
    "crates/rpc/src/shm.rs",
    "crates/devmgr/src/session.rs",
    "crates/devmgr/src/task.rs",
    "crates/devmgr/src/worker.rs",
    "crates/fpga/src/memory.rs",
];

/// Receiver identifiers that hold payload bytes by workspace convention.
const PAYLOAD_IDENTS: &[&str] = &["payload", "data", "bytes", "body", "raw", "frame"];

/// One hop of an interprocedural call-chain witness (see [`crate::flow`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hop {
    /// Qualified function name (`Type::method` or a free `function`).
    pub function: String,
    /// Workspace-relative path of the hop.
    pub file: String,
    /// 1-based line (the function's signature, or the offending call for
    /// the final hop).
    pub line: usize,
}

/// One finding, pointing at a workspace-relative file and 1-based line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which rule fired: a stable id from the rule registry
    /// ([`crate::explain`]), as written in directives, JSON output, and
    /// baseline keys.
    pub rule: &'static str,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// 1-based column of the offending token; 0 when unknown.
    pub column: usize,
    /// Human-readable explanation.
    pub message: String,
    /// Call-chain witness (entry → … → offending call) for interprocedural
    /// findings; empty for per-file rules.
    pub witness: Vec<Hop>,
    /// Line-number-free identity used for baseline matching; empty means
    /// "derive from rule/file/line".
    pub key: String,
}

impl Diagnostic {
    /// A finding with no column, witness, or baseline key (yet).
    pub fn new(rule: &'static str, file: &str, line: usize, message: String) -> Diagnostic {
        Diagnostic {
            rule,
            file: file.to_string(),
            line,
            column: 0,
            message,
            witness: Vec::new(),
            key: String::new(),
        }
    }

    /// Sets the 1-based column (builder style).
    pub fn at_column(mut self, column: usize) -> Diagnostic {
        self.column = column;
        self
    }

    /// The identity used when matching against a baseline: the explicit
    /// [`key`](Self::key) when one was assigned (interprocedural findings
    /// key on rule/file/function/token, so line drift cannot invalidate a
    /// baseline), else `rule|file|line`.
    pub fn baseline_key(&self) -> String {
        if self.key.is_empty() {
            format!("{}|{}|{}", self.rule, self.file, self.line)
        } else {
            self.key.clone()
        }
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.column > 0 {
            write!(
                f,
                "{}:{}:{}: [{}] {}",
                self.file, self.line, self.column, self.rule, self.message
            )?;
        } else {
            write!(
                f,
                "{}:{}: [{}] {}",
                self.file, self.line, self.rule, self.message
            )?;
        }
        for (i, hop) in self.witness.iter().enumerate() {
            let role = if i == 0 { "entry" } else { "via" };
            write!(
                f,
                "\n    {role} {} at {}:{}",
                hop.function, hop.file, hop.line
            )?;
        }
        Ok(())
    }
}

/// A `bf-flow: entry(..)` or `bf-taint: source(wire)` annotation, bound to
/// the `fn` below it once the program model exists.
pub(crate) struct Anchor {
    /// 1-based line of the annotation.
    pub(crate) line: usize,
    /// 1-based column of the marker.
    pub(crate) column: usize,
    /// The trimmed text inside the parentheses; `None` when the `)` is
    /// missing.
    pub(crate) arg: Option<String>,
}

/// Every annotation of one file, read once by [`Unit::analyze`] and shared
/// by the per-file rules, the lock-graph pass, bf-flow and bf-taint.
#[derive(Default)]
pub(crate) struct Directives {
    /// Justified allow exemptions of all three families: line → rules
    /// (rule names are unique across families).
    allows: HashMap<usize, Vec<&'static str>>,
    /// Lines covered by a justified `bf-taint: sanitized(<why>)` marker:
    /// bindings there are trusted and sinks there do not fire.
    pub(crate) sanitized: HashSet<usize>,
    /// `bf-flow: entry(<class>)` annotations, in line order.
    pub(crate) entries: Vec<Anchor>,
    /// `bf-taint: source(wire)` annotations, in line order.
    pub(crate) sources: Vec<Anchor>,
}

/// One parsed file plus its annotations: the unit every pass consumes.
/// Built once per file by [`Unit::analyze`]; the whole-program passes
/// share one [`crate::flow::Model`] built over all units.
pub struct Unit {
    /// The masked source model.
    pub file: SourceFile,
    pub(crate) dirs: Directives,
}

impl Unit {
    /// Reads every annotation, emitting `directive` diagnostics for
    /// malformed, unknown-rule, or unjustified allow/sanitized forms
    /// (entry and source annotations are judged when they are bound).
    pub fn analyze(file: SourceFile, out: &mut Vec<Diagnostic>) -> Unit {
        let dirs = read_annotations(&file, out);
        Unit { file, dirs }
    }

    /// Whether a justified allow directive exempts `rule` on 1-based `line`.
    pub(crate) fn permits(&self, line: usize, rule: &str) -> bool {
        self.dirs
            .allows
            .get(&line)
            .is_some_and(|rules| rules.contains(&rule))
    }
}

/// The annotation kinds behind each comment marker.
enum Marker {
    Allow(Family),
    Sanitized,
    Entry,
    Source,
}

/// Every annotation marker, in the order its diagnostics are reported.
const MARKERS: [(&str, Marker); 6] = [
    ("bf-lint: allow(", Marker::Allow(RULES)),
    ("bf-flow: allow(", Marker::Allow(FLOW_RULES)),
    ("bf-taint: allow(", Marker::Allow(TAINT_RULES)),
    ("bf-taint: sanitized(", Marker::Sanitized),
    ("bf-flow: entry(", Marker::Entry),
    ("bf-taint: source(wire)", Marker::Source),
];

/// The one annotation reader. Markers live in comments only (the comment
/// view blanks string literals), and backtick-quoted mentions are prose.
/// Diagnostics about a directive anchor at the directive's own file:line
/// and column — never at the site it would have exempted.
fn read_annotations(file: &SourceFile, out: &mut Vec<Diagnostic>) -> Directives {
    let mut dirs = Directives::default();
    for (marker, kind) in &MARKERS {
        for (idx, line) in file.lines.iter().enumerate() {
            let Some(pos) = line.comment.find(marker) else {
                continue;
            };
            if pos > 0 && line.comment.as_bytes()[pos - 1] == b'`' {
                continue;
            }
            let rest = &line.comment[pos + marker.len()..];
            let mut directive = |message: String| {
                out.push(
                    Diagnostic::new("directive", &file.path, idx + 1, message).at_column(pos + 1),
                );
            };
            let anchor = |arg: Option<String>| Anchor {
                line: idx + 1,
                column: pos + 1,
                arg,
            };
            match kind {
                Marker::Allow(known) => {
                    let family = known.0;
                    let Some(close) = rest.find(')') else {
                        directive(format!("malformed {family} directive: missing `)`"));
                        continue;
                    };
                    // A directive may name several rules: `allow(panic,
                    // wall_clock)`. Unknown names are reported individually;
                    // the known ones still take effect so one typo cannot
                    // silently unguard its neighbours.
                    let mut rules = Vec::new();
                    for rule in rest[..close].split(',').map(str::trim) {
                        match known.find(rule) {
                            Some(name) => rules.push(name),
                            None => {
                                directive(format!("unknown rule {rule:?} in {family} directive"))
                            }
                        }
                    }
                    if rules.is_empty() {
                        continue;
                    }
                    let why = rest[close + 1..].trim_start_matches([':', '-', '—', ' ']);
                    if why.trim().is_empty() {
                        let listed = rules.join(", ");
                        directive(format!(
                            "{family}: allow({listed}) needs a justification, e.g. \
                             `// {family}: allow({listed}): why this site is safe`"
                        ));
                        continue;
                    }
                    for covered in bound_lines(file, idx) {
                        dirs.allows.entry(covered).or_default().extend(&rules);
                    }
                }
                // The justification lives *inside* the parentheses; an
                // unjustified marker must not clear taint.
                Marker::Sanitized => match rest.rfind(')') {
                    None => {
                        directive("malformed bf-taint sanitized directive: missing `)`".to_string())
                    }
                    Some(close) if rest[..close].trim().is_empty() => directive(
                        "bf-taint: sanitized(..) needs a justification inside the parentheses, \
                         e.g. `// bf-taint: sanitized(len is clamped to the shm segment cap)`"
                            .to_string(),
                    ),
                    Some(_) => dirs.sanitized.extend(bound_lines(file, idx)),
                },
                Marker::Entry => dirs.entries.push(anchor(
                    rest.find(')').map(|close| rest[..close].trim().to_string()),
                )),
                Marker::Source => dirs.sources.push(anchor(None)),
            }
        }
    }
    dirs
}

/// The 1-based lines a directive on (0-based) line `idx` covers.
///
/// A comment-only directive exempts the next *statement*: the first code
/// line after the directive (the justification may span further
/// comment-only lines) plus its method-chain continuation lines, so
/// rustfmt splitting `x.expect(..)` across lines cannot detach the
/// exemption. A trailing directive exempts its own line. A dangling
/// directive at EOF covers nothing.
fn bound_lines(file: &SourceFile, idx: usize) -> Vec<usize> {
    let line = &file.lines[idx];
    if !line.code.trim().is_empty() {
        return vec![idx + 1];
    }
    let Some(offset) = file.lines[idx + 1..]
        .iter()
        .position(|l| !l.code.trim().is_empty())
    else {
        return Vec::new();
    };
    let first = idx + 1 + offset;
    let mut out = vec![first + 1];
    for (l, cont) in file.lines.iter().enumerate().skip(first + 1) {
        let code = cont.code.trim_start();
        if !(code.starts_with('.') || code.starts_with('?')) {
            break;
        }
        out.push(l + 1);
    }
    out
}

/// How a per-file rule inspects a file.
enum Check {
    /// A line-pattern rule: the first hit on each line fires.
    Line {
        /// Whether the rule looks at a file (by path) at all.
        scope: fn(&str) -> bool,
        /// Whether `#[cfg(test)]` lines (and test targets) are exempt.
        skip_tests: bool,
        /// The line's first offending token as `(what, byte offset)`; the
        /// flag carries state across lines (`std_sync`'s open `use` group).
        hit: fn(&str, &mut bool) -> Option<(&'static str, usize)>,
        /// The finding's message, given the `what` of the hit.
        message: fn(&str) -> String,
    },
    /// A rule that needs more than one line at a time.
    File(fn(&Unit, &[&str], &mut Vec<Diagnostic>)),
}

/// The per-file rules, in report order.
const PER_FILE: [(&str, Check); 8] = [
    (
        "panic",
        Check::Line {
            scope: |_| true,
            skip_tests: true,
            hit: |code, _| match code.find(".unwrap()") {
                Some(p) => Some((".unwrap()", p)),
                None => code.find(".expect(").map(|p| (".expect(..)", p)),
            },
            message: |what| {
                format!(
                    "{what} in library code: propagate the error or justify with \
                     `// bf-lint: allow(panic): ...`"
                )
            },
        },
    ),
    // `parking_lot` only: no poisoning to unwrap, const `new`. The flag
    // tracks a multi-line `use std::sync::{ ... };` group.
    (
        "std_sync",
        Check::Line {
            scope: |_| true,
            skip_tests: false,
            hit: |code, in_use| {
                let relevant = code.contains("std::sync::") || *in_use;
                if code.contains("use std::sync::") && !code.contains(';') {
                    *in_use = true;
                } else if *in_use && code.contains(';') {
                    *in_use = false;
                }
                let pos = find_keyword(code, "Mutex")
                    .into_iter()
                    .chain(find_keyword(code, "RwLock"))
                    .min();
                pos.filter(|_| relevant).map(|p| ("", p))
            },
            message: |_| {
                "std::sync lock detected: use parking_lot::{Mutex, RwLock} instead".to_string()
            },
        },
    ),
    // The host's clocks only tick inside the virtual-clock module.
    (
        "wall_clock",
        Check::Line {
            scope: |path| path != CLOCK_MODULE,
            skip_tests: false,
            hit: |code, _| match code.find("Instant::now") {
                Some(p) => Some(("Instant::now()", p)),
                None => code
                    .find("SystemTime::now")
                    .map(|p| ("SystemTime::now()", p)),
            },
            message: |what| {
                format!("{what} outside {CLOCK_MODULE}: simulated code must use VirtualClock")
            },
        },
    ),
    ("lock_order", Check::File(rule_lock_order)),
    // Inside the instrumented crates every lock, condvar, atomic and
    // channel goes through the bf-sync facade, so the whole crate runs
    // under the model scheduler; the import line is the gateway.
    (
        "raw_sync",
        Check::Line {
            scope: |path| INSTRUMENTED_CRATES.iter().any(|p| path.starts_with(p)),
            skip_tests: true,
            hit: |code, _| {
                if code.contains("use parking_lot") || code.contains("parking_lot::") {
                    code.find("parking_lot")
                        .map(|p| ("parking_lot primitive", p))
                } else {
                    code.find("std::sync::atomic")
                        .map(|p| ("std::sync atomic", p))
                }
            },
            message: |what| {
                format!(
                    "{what} in an instrumented crate: route synchronization \
                     through the bf-sync facade (`crate::sync`) so the model \
                     scheduler sees it, or justify with \
                     `// bf-lint: allow(raw_sync): ...`"
                )
            },
        },
    ),
    ("wildcard_match", Check::File(rule_wildcard_match)),
    // Every hot-path queue is bounded so overload surfaces as explicit
    // backpressure; imports are fine, only constructions fire.
    (
        "unbounded_channel",
        Check::Line {
            scope: |_| true,
            skip_tests: true,
            hit: |code, _| {
                find_keyword(code, "unbounded")
                    .into_iter()
                    .find(|&pos| {
                        let after = code[pos + "unbounded".len()..].trim_start();
                        after.starts_with('(') || after.starts_with("::<")
                    })
                    .map(|p| ("", p))
            },
            message: |_| {
                "unbounded channel constructed in library code: use \
                 `bounded(depth)` so overload surfaces as backpressure, or \
                 justify with `// bf-lint: allow(unbounded_channel): ...`"
                    .to_string()
            },
        },
    ),
    // Datapath payloads travel as refcounted `Bytes`: `.to_vec()` and
    // `.clone()` on a payload-named receiver are conscious copies, counted
    // with `bf_metrics::record_memcpy` and justified.
    (
        "payload_copy",
        Check::Line {
            scope: |path| DATAPATH_MODULES.contains(&path),
            skip_tests: true,
            hit: |code, _| match code.find(".to_vec()") {
                Some(p) => Some((".to_vec()", p)),
                None => find_all(code, ".clone()")
                    .into_iter()
                    .find(|&pos| {
                        ident_before(code, pos).is_some_and(|id| PAYLOAD_IDENTS.contains(&id))
                    })
                    .map(|p| (".clone() on a payload value", p)),
            },
            message: |what| {
                format!(
                    "{what} in a datapath module: pass `Bytes`/`Payload` slices or \
                     `share()` the buffer; a deliberate copy must call \
                     `bf_metrics::record_memcpy` and justify with \
                     `// bf-lint: allow(payload_copy): ...`"
                )
            },
        },
    ),
];

/// Runs every per-file rule over a parsed unit, appending findings to
/// `out`. Directive diagnostics were already emitted by [`Unit::analyze`].
pub fn check_file(unit: &Unit, lock_hierarchy: &[&str], out: &mut Vec<Diagnostic>) {
    let file = &unit.file;
    for (rule, check) in &PER_FILE {
        match check {
            Check::File(run) => run(unit, lock_hierarchy, out),
            Check::Line { scope, .. } if !scope(&file.path) => {}
            Check::Line {
                skip_tests,
                hit,
                message,
                ..
            } => {
                let mut state = false;
                for (idx, line) in file.lines.iter().enumerate() {
                    if *skip_tests && line.in_test {
                        continue;
                    }
                    let Some((what, pos)) = hit(&line.code, &mut state) else {
                        continue;
                    };
                    if !unit.permits(idx + 1, rule) {
                        out.push(
                            Diagnostic::new(rule, &file.path, idx + 1, message(what))
                                .at_column(pos + 1),
                        );
                    }
                }
            }
        }
    }
}

/// Every lock acquisition on one line, in order: each `<name>.lock()`
/// receiver (at its `.`), then a `tracked(&…, "name")` call (at
/// `tracked(`), whose name is read from the raw line — masking blanks
/// string contents — and canonicalised against `hierarchy`. The one
/// reader behind `lock_order`, `lock_graph` and bf-flow's lock ranks.
pub(crate) fn lock_acquisitions<'a>(
    line: &'a Line,
    hierarchy: &[&'a str],
) -> Vec<(&'a str, usize)> {
    let code = &line.code;
    let mut out: Vec<(&str, usize)> = find_all(code, ".lock()")
        .into_iter()
        .filter_map(|pos| Some((ident_before(code, pos)?, pos)))
        .collect();
    if let Some(pos) = code.find("tracked(") {
        let tracked = (|| {
            let rest = &line.raw[line.raw.find("tracked(")?..];
            let after = &rest[rest.find('"')? + 1..];
            let name = &after[..after.find('"')?];
            hierarchy.iter().find(|&&h| h == name).copied()
        })();
        out.extend(tracked.map(|name| (name, pos)));
    }
    out
}

/// The whole-program lock-graph pass (`lock_graph` rule): run once over
/// every parsed file, after the per-file rules.
///
/// Three checks:
///
/// 1. **No unranked locks** — every `Mutex`/`RwLock` field or parameter
///    declaration must use a name ranked in the hierarchy (or carry a
///    justified `allow(lock_graph)`), so a new lock cannot enter the
///    program without taking a position in the global order.
/// 2. **No static cycles** — `let`-bound acquisitions build a whole-program
///    lock-acquisition graph (`held → acquired` edges, by lock name,
///    across crates); any cycle is reported with its full path. This
///    catches opposite-order acquisitions split across files, which the
///    per-file `lock_order` rule cannot see for unranked locks.
/// 3. **Coverage** — every hierarchy entry must be observed as a declared
///    or acquired lock somewhere in the program, so the table cannot
///    accumulate stale names that the runtime tracker would still accept.
pub fn check_program(units: &[Unit], hierarchy: &[&str], out: &mut Vec<Diagnostic>) {
    let mut seen: Vec<String> = Vec::new();
    // (from, to) → first site, kept ordered for deterministic reports.
    let mut edges: BTreeMap<(String, String), (String, usize)> = BTreeMap::new();

    for unit in units {
        let file = &unit.file;
        let mut held: Vec<(String, i64)> = Vec::new();
        let mut depth: i64 = 0;
        for (idx, line) in file.lines.iter().enumerate() {
            let code = &line.code;
            if !line.in_test {
                // Check 1: declarations.
                if let Some(name) = declared_lock_name(code) {
                    if !seen.iter().any(|s| s == name) {
                        seen.push(name.to_string());
                    }
                    if !hierarchy.contains(&name) && !unit.permits(idx + 1, "lock_graph") {
                        out.push(Diagnostic::new(
                            "lock_graph",
                            &file.path,
                            idx + 1,
                            format!(
                                "lock `{name}` is not ranked in the lock hierarchy: add it \
                                 to bf_devmgr::lock_order::HIERARCHY (or justify with \
                                 `// bf-lint: allow(lock_graph): ...`)"
                            ),
                        ));
                    }
                }

                // Check 2: acquisition edges.
                let is_binding = code.trim_start().starts_with("let ");
                for (name, _) in lock_acquisitions(line, hierarchy) {
                    if !seen.iter().any(|s| s == name) {
                        seen.push(name.to_string());
                    }
                    if !unit.permits(idx + 1, "lock_graph") {
                        for (h, _) in held.iter().filter(|(h, _)| h != name) {
                            edges
                                .entry((h.clone(), name.to_string()))
                                .or_insert_with(|| (file.path.clone(), idx + 1));
                        }
                    }
                    if is_binding {
                        held.push((name.to_string(), depth));
                    }
                }
            }
            depth += line.brace_delta();
            held.retain(|&(_, d)| d <= depth);
        }
    }

    // Check 2: cycle detection over the name graph.
    for cycle in find_cycles(&edges) {
        let (file, line) = edges
            .get(&(cycle[0].clone(), cycle[1].clone()))
            .cloned()
            .unwrap_or_else(|| (LOCK_TABLE_MODULE.to_string(), 1));
        out.push(Diagnostic::new(
            "lock_graph",
            &file,
            line,
            format!(
                "static lock cycle across the program: {} — no single \
                 acquisition order can satisfy these sites",
                cycle.join(" -> "),
            ),
        ));
    }

    // Check 3: hierarchy coverage.
    for name in hierarchy {
        if !seen.iter().any(|s| s == name) {
            out.push(Diagnostic::new(
                "lock_graph",
                LOCK_TABLE_MODULE,
                1,
                format!(
                    "hierarchy entry `{name}` matches no declared or acquired lock \
                     in the program: remove the stale rank or fix the lock's name"
                ),
            ));
        }
    }
}

/// The field/parameter name of a `Mutex`/`RwLock` declaration on `code`,
/// if the line declares one: `name: ..Mutex<..` outside `let` bindings,
/// `use` imports, and single-line `fn` signatures.
fn declared_lock_name(code: &str) -> Option<&str> {
    let lock_pos = match (code.find("Mutex<"), code.find("RwLock<")) {
        (Some(a), Some(b)) => a.min(b),
        (a, b) => a.or(b)?,
    };
    let trimmed = code.trim_start();
    if ["let ", "use ", "impl", "trait ", "pub trait "]
        .iter()
        .any(|p| trimmed.starts_with(p))
        || code.contains("fn ")
    {
        return None;
    }
    // `name:` must precede the lock type, with `::` path separators skipped.
    let head = &code[..lock_pos];
    let colon = head
        .char_indices()
        .filter(|&(i, c)| {
            c == ':'
                && head.as_bytes().get(i + 1) != Some(&b':')
                && (i == 0 || head.as_bytes()[i - 1] != b':')
        })
        .map(|(i, _)| i)
        .next()?;
    ident_before(code, colon)
}

/// Every distinct cycle in the acquisition graph, as name paths ending at
/// their starting node (`a -> b -> a`). Deterministic: nodes are explored
/// in sorted order and each cycle is reported from its smallest node.
fn find_cycles(edges: &BTreeMap<(String, String), (String, usize)>) -> Vec<Vec<String>> {
    let mut graph: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (from, to) in edges.keys() {
        graph.entry(from).or_default().push(to);
    }
    let mut cycles: Vec<Vec<String>> = Vec::new();
    let mut done: HashSet<&str> = HashSet::new();
    for &start in graph.keys() {
        if done.contains(start) {
            continue;
        }
        // Iterative DFS from `start` carrying the path, recording any edge
        // back into the current path as a cycle.
        let mut stack: Vec<(&str, usize)> = vec![(start, 0)];
        let mut path: Vec<&str> = vec![start];
        while let Some((node, next)) = stack.pop() {
            let succs = graph.get(node).map(Vec::as_slice).unwrap_or(&[]);
            if next < succs.len() {
                stack.push((node, next + 1));
                let succ = succs[next];
                if let Some(at) = path.iter().position(|&n| n == succ) {
                    let mut cycle: Vec<String> = path[at..].iter().map(|s| s.to_string()).collect();
                    // Canonicalize: rotate so the smallest name leads.
                    let min = cycle
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, n)| n.as_str())
                        .map(|(i, _)| i)
                        .unwrap_or(0);
                    cycle.rotate_left(min);
                    cycle.push(cycle[0].clone());
                    if !cycles.contains(&cycle) {
                        cycles.push(cycle);
                    }
                } else if !done.contains(succ) {
                    path.push(succ);
                    stack.push((succ, 0));
                }
            } else {
                path.pop();
                done.insert(node);
            }
        }
    }
    cycles
}

/// Rule `lock_order`: within a function, a lock may only be acquired while
/// every held lock ranks strictly *earlier* in the declared hierarchy.
///
/// The scan is a heuristic: `let`-bound guards are assumed held until their
/// enclosing block closes; acquisitions without a `let` binding are treated
/// as statement-scoped temporaries. Cross-function nesting is covered by
/// the runtime tracker in `bf-devmgr::lock_order`.
fn rule_lock_order(unit: &Unit, hierarchy: &[&str], out: &mut Vec<Diagnostic>) {
    // (rank, depth the guard binding lives at)
    let mut held: Vec<(usize, i64)> = Vec::new();
    let mut depth: i64 = 0;
    for (idx, line) in unit.file.lines.iter().enumerate() {
        let is_binding = line.code.trim_start().starts_with("let ");
        for (name, pos) in lock_acquisitions(line, hierarchy) {
            let Some(rank) = hierarchy.iter().position(|&h| h == name) else {
                continue;
            };
            // Receivers report at the name, `tracked(` at the call.
            let column = if line.code.as_bytes()[pos] == b'.' {
                pos - name.len()
            } else {
                pos
            };
            if let Some(&(top_rank, _)) = held.iter().max_by_key(|&&(r, _)| r) {
                if rank <= top_rank && !unit.permits(idx + 1, "lock_order") {
                    out.push(
                        Diagnostic::new(
                            "lock_order",
                            &unit.file.path,
                            idx + 1,
                            format!(
                                "acquiring lock `{name}` (rank {rank}) while `{}` (rank \
                                 {top_rank}) is held; declared order is {hierarchy:?}",
                                hierarchy[top_rank],
                            ),
                        )
                        .at_column(column + 1),
                    );
                }
            }
            if is_binding {
                held.push((rank, depth));
            }
        }
        depth += line.brace_delta();
        held.retain(|&(_, d)| d <= depth);
    }
}

/// Rule `wildcard_match`: `match`es over the status enums in
/// [`STATUS_ENUMS`] must list every variant — a `_` arm would silently
/// swallow states added later.
fn rule_wildcard_match(unit: &Unit, _: &[&str], out: &mut Vec<Diagnostic>) {
    let file = &unit.file;
    // Work over the full masked text with a line-number map.
    let mut text = String::new();
    let mut line_starts = Vec::with_capacity(file.lines.len());
    for line in &file.lines {
        line_starts.push(text.len());
        text.push_str(&line.code);
        text.push('\n');
    }
    let line_of = |offset: usize| match line_starts.binary_search(&offset) {
        Ok(i) => i + 1,
        Err(i) => i,
    };

    for match_pos in find_keyword(&text, "match") {
        let Some(open) = text[match_pos..].find('{').map(|p| match_pos + p) else {
            continue;
        };
        let Some(close) = closing(&text, open, b"{", b"}") else {
            continue;
        };
        let block = &text[open + 1..close];
        // Only depth-≤1 text counts as *this* match's patterns and inline
        // arms; nested blocks are scanned as their own matches.
        let surface: String = depths(block, b"{", b"}")
            .map(|(_, b, d)| {
                if d > 0 && !b"{}\n".contains(&b) {
                    ' '
                } else {
                    char::from(b)
                }
            })
            .collect();
        if !STATUS_ENUMS
            .iter()
            .any(|e| surface.contains(&format!("{e}::")))
        {
            continue;
        }
        for arm_offset in wildcard_arms(block) {
            let offset = open + 1 + arm_offset;
            let line = line_of(offset);
            if unit.permits(line, "wildcard_match") {
                continue;
            }
            let column = offset - line_starts.get(line - 1).copied().unwrap_or(offset) + 1;
            out.push(
                Diagnostic::new(
                    "wildcard_match",
                    &file.path,
                    line,
                    "wildcard `_` arm in a match over a status enum: list every \
                     variant so new states cannot be silently ignored"
                        .to_string(),
                )
                .at_column(column),
            );
        }
    }
}

/// Byte offsets (within `block`) of arms whose pattern is a bare `_`.
fn wildcard_arms(block: &str) -> Vec<usize> {
    let bytes = block.as_bytes();
    let mut out = Vec::new();
    // Start of block counts as an arm boundary; so does a `,` or a
    // block-bodied arm's closing `}` back at arm level.
    let mut at_arm_start = true;
    for (i, b, d) in depths(block, b"{([", b"})]") {
        if d == 0 && (b == b',' || b == b'}') {
            at_arm_start = true;
        } else if at_arm_start && !b.is_ascii_whitespace() {
            at_arm_start = false;
            let after = bytes.get(i + 1);
            if b == b'_' && !after.is_some_and(|&a| a.is_ascii_alphanumeric() || a == b'_') {
                out.push(i);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::parse;

    fn check_at(path: &str, src: &str, hierarchy: &[&str]) -> Vec<Diagnostic> {
        let file = parse(path, src, false);
        let mut out = Vec::new();
        let unit = Unit::analyze(file, &mut out);
        check_file(&unit, hierarchy, &mut out);
        out
    }

    fn check(src: &str) -> Vec<Diagnostic> {
        check_at("crates/x/src/lib.rs", src, &["outer", "inner"])
    }

    #[test]
    fn flags_unwrap_in_library_code() {
        let out = check("fn f() { x().unwrap(); }\n");
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "panic");
        assert_eq!(out[0].line, 1);
    }

    #[test]
    fn ignores_unwrap_in_tests_and_comments() {
        let src = "// x.unwrap()\n#[cfg(test)]\nmod tests {\n fn t() { x().unwrap(); }\n}\n";
        assert!(check(src).is_empty());
    }

    #[test]
    fn unwrap_or_variants_do_not_fire() {
        let src = "fn f() { a.unwrap_or(0); b.unwrap_or_else(|| 0); c.unwrap_or_default(); }\n";
        assert!(check(src).is_empty());
    }

    #[test]
    fn justified_allow_exempts_next_line() {
        let src = "// bf-lint: allow(panic): checked two lines up\nfn f() { x().unwrap(); }\n";
        assert!(check(src).is_empty());
    }

    #[test]
    fn standalone_allow_covers_a_rustfmt_split_chain() {
        // rustfmt may break `x.expect(..)` onto a continuation line; the
        // directive must keep covering the whole statement.
        let src = "fn f() {\n // bf-lint: allow(panic): harness invariant\n // spanning two comment lines.\n let v = build()\n .step()\n .expect(\"ok\");\n}\n";
        assert!(check(src).is_empty(), "{:?}", check(src));
    }

    #[test]
    fn allow_does_not_leak_past_the_statement() {
        let src = "fn f() {\n // bf-lint: allow(panic): first only\n a().expect(\"ok\");\n b().expect(\"not covered\");\n}\n";
        let out = check(src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "panic");
        assert_eq!(out[0].line, 4);
    }

    #[test]
    fn unjustified_allow_is_a_violation() {
        let src = "fn f() { x().unwrap() } // bf-lint: allow(panic)\n";
        let out = check(src);
        // The malformed directive is reported AND does not exempt the site.
        assert_eq!(out.len(), 2, "{out:?}");
        assert_eq!(out[0].rule, "directive");
        assert_eq!(out[1].rule, "panic");
    }

    #[test]
    fn flags_std_sync_locks_but_not_arc() {
        let out = check("use std::sync::{Arc, Mutex};\n");
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "std_sync");
        assert!(check("use std::sync::Arc;\nuse std::sync::atomic::AtomicU64;\n").is_empty());
    }

    #[test]
    fn flags_std_sync_locks_inside_a_multi_line_use_group() {
        let out = check("use std::sync::{\n    Arc,\n    Mutex,\n};\nfn f() {}\n");
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "std_sync");
        assert_eq!(out[0].line, 3);
    }

    #[test]
    fn flags_wall_clock_outside_clock_module() {
        let out = check("fn f() { let t = std::time::Instant::now(); }\n");
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "wall_clock");
        let ok = check_at(
            CLOCK_MODULE,
            "fn f() { let t = std::time::Instant::now(); }\n",
            &[],
        );
        assert!(ok.is_empty());
    }

    #[test]
    fn flags_inverted_lock_acquisition() {
        let src = "fn f() {\n let a = inner.lock();\n let b = outer.lock();\n}\n";
        let out = check(src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "lock_order");
        assert_eq!(out[0].line, 3);
    }

    #[test]
    fn in_order_and_sequential_acquisitions_pass() {
        let ordered = "fn f() {\n let a = outer.lock();\n let b = inner.lock();\n}\n";
        assert!(check(ordered).is_empty());
        let sequential = "fn f() {\n { let a = inner.lock(); }\n { let b = outer.lock(); }\n}\n";
        assert!(check(sequential).is_empty());
    }

    #[test]
    fn tracked_acquisitions_are_rank_checked() {
        let src = "fn f() {\n let a = inner.lock();\n let b = tracked(&m.outer, \"outer\");\n}\n";
        let out = check(src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "lock_order");
    }

    #[test]
    fn flags_wildcard_match_on_status_enum() {
        let src = "fn f(s: EventStatus) -> u8 {\n match s {\n  EventStatus::Queued => 0,\n  _ => 1,\n }\n}\n";
        let out = check(src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "wildcard_match");
        assert_eq!(out[0].line, 4);
    }

    #[test]
    fn wildcard_on_other_enums_is_fine() {
        let src = "fn f(x: u8) -> u8 {\n match x {\n  0 => 0,\n  _ => 1,\n }\n}\n";
        assert!(check(src).is_empty());
    }

    #[test]
    fn nested_match_does_not_taint_outer() {
        let src = "fn f(x: u8, s: EventStatus) -> u8 {\n match x {\n  0 => { match s { EventStatus::Queued => 0, EventStatus::Submitted => 1, EventStatus::Running => 2, EventStatus::Complete => 3, EventStatus::Failed => 4 } }\n  _ => 1,\n }\n}\n";
        assert!(check(src).is_empty(), "{:?}", check(src));
    }

    #[test]
    fn flags_unbounded_channel_construction() {
        let out = check("fn f() { let (tx, rx) = unbounded(); }\n");
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "unbounded_channel");
        assert_eq!(out[0].line, 1);
        let turbofish = check("fn f() { let (tx, rx) = unbounded::<u64>(); }\n");
        assert_eq!(turbofish.len(), 1, "{turbofish:?}");
        assert_eq!(turbofish[0].rule, "unbounded_channel");
        let qualified = check("fn f() { let p = bf_race::sync::channel::unbounded(); }\n");
        assert_eq!(qualified.len(), 1, "{qualified:?}");
    }

    #[test]
    fn bounded_channels_and_imports_do_not_fire() {
        assert!(check("fn f() { let (tx, rx) = bounded(64); }\n").is_empty());
        // The import alone is not a construction site.
        assert!(check("use bf_race::sync::channel::{unbounded, Sender};\n").is_empty());
        // Identifiers merely containing the word are untouched.
        assert!(check("fn f() { unbounded_growth(); let x = my_unbounded(); }\n").is_empty());
    }

    #[test]
    fn unbounded_channels_are_allowed_in_tests_and_with_directives() {
        let in_test = "#[cfg(test)]\nmod tests {\n fn t() { let (tx, rx) = unbounded(); }\n}\n";
        assert!(check(in_test).is_empty(), "{:?}", check(in_test));
        let allowed = "fn f() {\n // bf-lint: allow(unbounded_channel): cold control path\n let (tx, rx) = unbounded();\n}\n";
        assert!(check(allowed).is_empty(), "{:?}", check(allowed));
    }

    fn check_datapath(src: &str) -> Vec<Diagnostic> {
        check_at("crates/rpc/src/shm.rs", src, &["outer", "inner"])
    }

    #[test]
    fn flags_to_vec_in_datapath_modules_only() {
        let src = "fn f(raw: &[u8]) -> Vec<u8> { raw.to_vec() }\n";
        let out = check_datapath(src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "payload_copy");
        assert_eq!(out[0].line, 1);
        // The same code outside the datapath module list is fine.
        assert!(check(src).is_empty());
    }

    #[test]
    fn flags_clone_on_payload_named_receivers_only() {
        let out = check_datapath("fn f() { queue_op(data.clone()); }\n");
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "payload_copy");
        // Non-payload receivers (e.g. a metadata string) are untouched.
        assert!(check_datapath("fn f() { let n = name.clone(); }\n").is_empty());
    }

    #[test]
    fn payload_copies_are_allowed_in_tests_and_with_directives() {
        let in_test = "#[cfg(test)]\nmod tests {\n fn t() { let v = bytes.to_vec(); }\n}\n";
        assert!(
            check_datapath(in_test).is_empty(),
            "{:?}",
            check_datapath(in_test)
        );
        let allowed = "fn f() {\n // bf-lint: allow(payload_copy): CoW materialization, counted\n let v = bytes.to_vec();\n}\n";
        assert!(
            check_datapath(allowed).is_empty(),
            "{:?}",
            check_datapath(allowed)
        );
    }

    // --- directive parsing edge cases ---

    #[test]
    fn multi_rule_allow_lists_exempt_every_named_rule() {
        let src = "fn f() {\n // bf-lint: allow(panic, wall_clock): harness probe\n let t = Instant::now(); t.elapsed().unwrap();\n}\n";
        assert!(check(src).is_empty(), "{:?}", check(src));
    }

    #[test]
    fn unknown_rule_in_a_list_is_reported_but_known_ones_still_apply() {
        let src = "fn f() {\n // bf-lint: allow(panic, no_such_rule): reason\n x().unwrap();\n}\n";
        let out = check(src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "directive");
        assert!(out[0].message.contains("no_such_rule"), "{out:?}");
    }

    #[test]
    fn unknown_rule_alone_is_reported_and_exempts_nothing() {
        let src = "fn f() {\n // bf-lint: allow(panics): typo\n x().unwrap();\n}\n";
        let out = check(src);
        assert_eq!(out.len(), 2, "{out:?}");
        assert_eq!(out[0].rule, "directive");
        assert_eq!(out[1].rule, "panic");
    }

    #[test]
    fn directive_on_the_last_line_of_a_file_is_harmless() {
        // Dangling directive at EOF: nothing to exempt, nothing to report.
        let src = "fn f() {}\n// bf-lint: allow(panic): trailing note\n";
        assert!(check(src).is_empty(), "{:?}", check(src));
    }

    // --- raw_sync ---

    fn check_instrumented(src: &str) -> Vec<Diagnostic> {
        check_at("crates/rpc/src/transport.rs", src, &["outer", "inner"])
    }

    #[test]
    fn raw_sync_flags_primitive_imports_in_instrumented_crates() {
        for (src, what) in [
            ("use parking_lot::Mutex;\n", "parking_lot"),
            ("use std::sync::atomic::AtomicU64;\n", "std::sync atomic"),
        ] {
            let out = check_instrumented(src);
            assert_eq!(out.len(), 1, "{what}: {out:?}");
            assert_eq!(out[0].rule, "raw_sync");
        }
    }

    #[test]
    fn raw_sync_ignores_uninstrumented_crates_tests_and_allowed_sites() {
        // Same import outside the instrumented set: untouched.
        assert!(check("use parking_lot::Mutex;\n").is_empty());
        let in_test = "#[cfg(test)]\nmod tests {\n use parking_lot::Mutex;\n}\n";
        assert!(check_instrumented(in_test).is_empty());
        let allowed = "// bf-lint: allow(raw_sync): shared with uninstrumented crates\nuse parking_lot::Mutex;\n";
        assert!(check_instrumented(allowed).is_empty());
        // The facade itself is the sanctioned path.
        assert!(check_instrumented("use crate::sync::{Condvar, Mutex};\n").is_empty());
    }

    // --- lock_graph (whole-program) ---

    fn check_whole_program(sources: &[(&str, &str)], hierarchy: &[&str]) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        let units: Vec<_> = sources
            .iter()
            .map(|(path, src)| Unit::analyze(parse(path, src, false), &mut Vec::new()))
            .collect();
        check_program(&units, hierarchy, &mut out);
        out
    }

    #[test]
    fn lock_graph_rejects_an_unranked_lock_declaration() {
        let src = "struct S {\n outer: Mutex<u32>,\n rogue: Mutex<u32>,\n}\nfn f(s: &S) { let a = s.outer.lock(); let b = s.inner.lock(); }\n";
        let out = check_whole_program(&[("crates/x/src/lib.rs", src)], &["outer", "inner"]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "lock_graph");
        assert_eq!(out[0].line, 3);
        assert!(out[0].message.contains("`rogue`"), "{out:?}");
    }

    #[test]
    fn lock_graph_accepts_an_allowed_unranked_lock() {
        let src = "struct S {\n outer: Mutex<u32>,\n // bf-lint: allow(lock_graph): scheduler-internal slot\n scratch: Mutex<u32>,\n}\nfn f(s: &S) { let a = s.outer.lock(); let b = s.inner.lock(); }\n";
        let out = check_whole_program(&[("crates/x/src/lib.rs", src)], &["outer", "inner"]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn lock_graph_rejects_a_two_lock_static_cycle_across_files() {
        // File A takes outer then inner; file B takes inner then outer.
        // Neither file alone violates anything the per-file heuristic can
        // rank (the locks are unranked but allowed); the program-wide
        // acquisition graph still has the a→b→a cycle.
        let a = "struct S {\n // bf-lint: allow(lock_graph): fixture\n a: Mutex<u32>,\n // bf-lint: allow(lock_graph): fixture\n b: Mutex<u32>,\n}\nfn f(s: &S) {\n let g = s.a.lock();\n let h = s.b.lock();\n}\n";
        let b = "fn g(s: &S) {\n let h = s.b.lock();\n let g = s.a.lock();\n}\n";
        let out = check_whole_program(&[("crates/x/src/a.rs", a), ("crates/x/src/b.rs", b)], &[]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "lock_graph");
        assert!(out[0].message.contains("a -> b -> a"), "{out:?}");
    }

    #[test]
    fn lock_graph_consistent_cross_file_order_is_clean() {
        let a = "fn f(s: &S) {\n let g = s.outer.lock();\n let h = s.inner.lock();\n}\n";
        let b = "fn g(s: &S) {\n let g = s.outer.lock();\n let h = s.inner.lock();\n}\nstruct S {\n outer: Mutex<u32>,\n inner: Mutex<u32>,\n}\n";
        let out = check_whole_program(
            &[("crates/x/src/a.rs", a), ("crates/x/src/b.rs", b)],
            &["outer", "inner"],
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn lock_graph_reports_stale_hierarchy_entries() {
        let src = "struct S {\n outer: Mutex<u32>,\n}\nfn f(s: &S) { let a = s.outer.lock(); }\n";
        let out = check_whole_program(&[("crates/x/src/lib.rs", src)], &["outer", "ghost_lock"]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "lock_graph");
        assert!(out[0].message.contains("`ghost_lock`"), "{out:?}");
        assert_eq!(out[0].file, LOCK_TABLE_MODULE);
    }

    #[test]
    fn raw_sync_covers_the_serverless_crate() {
        // The batching pipeline's queue lock + condvar live in
        // crates/serverless; a raw primitive import there bypasses the
        // model scheduler exactly like it would in the transport.
        let out = check_at(
            "crates/serverless/src/batch.rs",
            "use parking_lot::Condvar;\n",
            &[],
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "raw_sync");
    }

    #[test]
    fn lock_graph_accepts_a_ranked_condvar_queue() {
        // The batcher shape: a ranked queue lock whose guard is passed to
        // a condvar wait in a loop. The wait must not register as an
        // acquisition edge (no `.lock()` receiver), so re-locking the map
        // lock elsewhere stays cycle-free.
        let batcher = "struct Batcher {\n batch_state: Mutex<Q>,\n ready: Condvar,\n}\nfn next(b: &Batcher) {\n let mut state = b.batch_state.lock();\n loop {\n  b.ready.wait(&mut state);\n }\n}\n";
        let gateway = "fn drain(g: &G, b: &Batcher) {\n let functions = g.functions.lock();\n drop(functions);\n let s = b.batch_state.lock();\n}\nstruct G {\n functions: Mutex<u32>,\n}\n";
        let out = check_whole_program(
            &[
                ("crates/x/src/batch.rs", batcher),
                ("crates/x/src/gateway.rs", gateway),
            ],
            &["functions", "batch_state"],
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn lock_graph_ignores_declarations_in_test_code() {
        let src = "#[cfg(test)]\nmod tests {\n struct T {\n  rogue: Mutex<u32>,\n }\n}\n";
        let out = check_whole_program(&[("crates/x/src/lib.rs", src)], &[]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn binding_patterns_starting_with_underscore_are_not_wildcards() {
        let src = "fn f(s: EventStatus) -> u8 {\n match s {\n  EventStatus::Queued => 0,\n  _other @ EventStatus::Submitted => 1,\n  EventStatus::Running => 2,\n  EventStatus::Complete => 3,\n  EventStatus::Failed => 4,\n }\n}\n";
        assert!(check(src).is_empty(), "{:?}", check(src));
    }
}
