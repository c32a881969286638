//! bf-taint: interprocedural trust-boundary dataflow over the wire surface.
//!
//! The third analysis layer beside the per-file rules and bf-flow. Every
//! value a client puts on the wire — lengths, offsets, digests, handles,
//! kernel indices — is attacker-controlled, and PR 8's review proved the
//! bug class is live: the payload cache initially trusted client-claimed
//! digests, a cross-tenant dedup side-channel only a human caught. This
//! pass automates that review.
//!
//! **Sources.** Wire-decode outputs are untrusted:
//! * fns annotated `// bf-taint: source(wire)` (the codec decode surface
//!   in bf-rpc: `get_varint`, `get_u128_be`, the `WireDecode` trait) —
//!   their *return value* is tainted;
//! * auto-seeded `Decode`-style fns (`decode` / `from_bytes`) defined
//!   under `crates/rpc/` — same effect, so a new impl is covered without
//!   an annotation;
//! * structurally, any parameter whose base type is a wire message type
//!   ([`WIRE_PARAM_TYPES`]) — a `RequestEnvelope` or `DataRef` reaching a
//!   trust-boundary function is hostile by construction, even when the
//!   decode call sits behind a transport the call graph cannot see
//!   through.
//!
//! **Propagation** rides the shared bf-flow [`Model`], whose call sites
//! are resolved once before the fixpoint starts: `let` bindings whose
//! RHS mentions a tainted value (or calls a tainted-return fn), pattern
//! bindings in `match`/`if let`/`for` over a tainted scrutinee (field
//! projections arrive this way: destructuring a tainted envelope taints
//! the bound fields), and call arguments into callee parameters. The
//! widening is bounded: a (function, variable) pair is tainted at most
//! once (first provenance wins), witness chains cap at [`MAX_CHAIN`]
//! hops, and per-function reprocessing caps at [`MAX_VISITS`] — so the
//! fixpoint terminates on recursive call graphs.
//!
//! **Sanitizers** clear taint: `.min(..)`/`.clamp(..)` against a named
//! cap, validated constructors ([`SANITIZER_CALLS`] — the server-side
//! `content_digest` recomputation from PR 8 is the canonical one), and an
//! explicit `// bf-taint: sanitized(<why>)` whose justification is
//! mandatory (an empty one is a `directive` error and does *not* clear
//! taint). Rebinding a name from a clean RHS is a strong update: the old
//! taint is gone.
//!
//! **Sinks** are where untrusted data becomes resource exhaustion or an
//! authorization decision: allocation sizes (`with_capacity` / `reserve`
//! / `resize`), slice indexing and `split_to`-style buffer math, loop
//! bounds (ranges and `while` conditions), and the cache-admission /
//! digest-authorization surface in bf-cache/bf-devmgr (`holds`,
//! `note_sent`, `cache.get/insert`, residency notes — lock-scoped work
//! keyed by an untrusted id). Every finding carries a multi-hop
//! source→sink witness like bf-flow's and a line-drift-tolerant baseline
//! key (`rule|file|qualified_fn|token`), so the existing
//! `lint-baseline.json` machinery gates CI on *new* flows only.
//!
//! Known approximations, chosen over rustc plumbing like the rest of the
//! linter: taint does not survive storage round-trips through collections
//! (insert tainted, read back later), receiver taint does not flow into
//! callee bodies through `self`, and a skipped unparseable parameter can
//! shift argument positions. The kernel-arg index cap in
//! `bf-devmgr::session` exists precisely because the first blind spot is
//! real — see ARCHITECTURE.md §14.

use std::collections::{BTreeMap, HashSet, VecDeque};

use crate::explain::Family;
use crate::flow::{is_keyword, CallSite, FnDef, FnFacts, Model, BIND_WINDOW, EXCLUDED_PREFIXES};
use crate::rules::{Diagnostic, Hop, Unit};
use crate::scan::{
    closing, delimited, depths, find_all, find_keyword, index_sites, split_top_level,
};

/// Rules of the taint pass, accepted by `bf-taint: allow(..)` directives.
pub const TAINT_RULES: Family = Family("bf-taint");

/// Witness chains stop extending past this many hops (bounded widening).
const MAX_CHAIN: usize = 8;
/// A function is re-analyzed at most this many times in the fixpoint.
const MAX_VISITS: usize = 32;
/// Intra-function passes: two suffice for use-before-def in straight-line
/// bodies without chasing loops.
const BODY_PASSES: usize = 2;

/// Wire message types: a parameter of one of these is untrusted input.
const WIRE_PARAM_TYPES: &[&str] = &[
    "RequestEnvelope",
    "ResponseEnvelope",
    "Request",
    "Response",
    "DataRef",
    "WireArg",
];
/// Decode-style fn names auto-seeded as sources when defined in bf-rpc.
const DECODE_NAMES: &[&str] = &["decode", "from_bytes"];
const DECODE_CRATE_PREFIX: &str = "crates/rpc/";

/// Validated constructors: calling one yields a *trusted* value (the
/// server recomputes instead of believing the client).
const SANITIZER_CALLS: &[&str] = &["content_digest"];
/// Capping combinators: an expression passing through one is bounded.
const SANITIZER_METHODS: &[&str] = &[".min(", ".clamp("];

/// Allocation sinks: the argument sizes a buffer.
const ALLOC_SINKS: &[&str] = &["with_capacity(", ".reserve(", ".resize(", ".resize_with("];
/// Buffer-math sinks: the argument moves a cursor or splits a buffer.
const BUFFER_MATH_SINKS: &[&str] = &[".split_to(", ".split_off(", ".truncate(", ".advance("];
/// Digest-authorization / admission methods: tainted arguments here are
/// authorization decisions keyed by untrusted input, wherever they live.
const AUTH_METHODS: &[&str] = &[
    "holds",
    "holds_digest",
    "note_sent",
    "forget",
    "device_resident",
    "note_device_resident",
];
/// Generic map methods that become admission decisions when the receiver
/// is a payload cache (`*cache*` in the receiver chain).
const CACHE_METHODS: &[&str] = &["get", "insert", "invalidate_buffer"];

/// Interprocedural taint state: per function, which parameters are
/// tainted (with the provenance chain that tainted them) and whether the
/// return value is tainted.
struct TaintState {
    params: Vec<BTreeMap<String, Vec<Hop>>>,
    ret: Vec<Option<Vec<Hop>>>,
}

/// One `match` region over a tainted scrutinee, tracked by brace depth.
struct MatchCtx {
    depth: i64,
    prov: Vec<Hop>,
    /// Whether the scanner currently sits in an arm's *pattern* (between
    /// the previous arm's end and this arm's `=>`).
    pattern: bool,
}

fn skip_unit(path: &str) -> bool {
    crate::is_test_path(path) || EXCLUDED_PREFIXES.iter().any(|p| path.starts_with(p))
}

/// Word-boundary mention of `ident` in `text`.
fn mentions(text: &str, ident: &str) -> bool {
    let bytes = text.as_bytes();
    let word = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    find_all(text, ident).into_iter().any(|pos| {
        let after = pos + ident.len();
        // `foo.ident` is a field projection of `foo`, not a use of the
        // local `ident`; `path::ident` likewise names something else.
        let projected = pos > 0 && bytes[pos - 1] == b'.';
        let pathed = pos >= 2 && bytes[pos - 1] == b':' && bytes[pos - 2] == b':';
        (pos == 0 || !word(bytes[pos - 1]))
            && (after >= bytes.len() || !word(bytes[after]))
            && !projected
            && !pathed
    })
}

/// Extends a provenance chain by one hop, respecting the widening cap.
fn extend(prov: &[Hop], hop: Hop) -> Vec<Hop> {
    let mut out = prov.to_vec();
    if out.len() < MAX_CHAIN {
        out.push(hop);
    }
    out
}

/// First tainted variable mentioned in `text`, in name order
/// (deterministic because `vars` is a BTreeMap).
fn first_tainted<'a>(
    text: &str,
    vars: &'a BTreeMap<String, Vec<Hop>>,
) -> Option<(&'a str, &'a Vec<Hop>)> {
    vars.iter()
        .find(|(name, _)| mentions(text, name))
        .map(|(name, prov)| (name.as_str(), prov))
}

/// Whether `text` passes through a sanitizer (capping combinator or
/// validated constructor): the resulting value is trusted.
fn sanitized_expr(text: &str) -> bool {
    SANITIZER_METHODS.iter().any(|m| text.contains(m))
        || SANITIZER_CALLS.iter().any(|f| {
            find_all(text, &format!("{f}(")).iter().any(|&p| {
                p == 0 || {
                    let b = text.as_bytes()[p - 1];
                    !(b.is_ascii_alphanumeric() || b == b'_')
                }
            })
        })
}

/// Lowercase identifiers bound by a pattern fragment (`Some(x)`,
/// `DataRef::Digest { digest, len }`, `(a, b)`): everything that is not a
/// keyword, a type path segment, a struct-pattern field key, or `_`.
fn pattern_idents(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let bytes = text.as_bytes();
    let mut depth = 0i64; // `{..}` nesting: field keys only exist inside
    let mut i = 0usize;
    while i < bytes.len() {
        let b = bytes[i];
        if b == b'{' {
            depth += 1;
            i += 1;
        } else if b == b'}' {
            depth -= 1;
            i += 1;
        } else if b.is_ascii_alphabetic() || b == b'_' {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            let word = &text[start..i];
            let followed_colon = bytes.get(i) == Some(&b':');
            let double_colon = followed_colon && bytes.get(i + 1) == Some(&b':');
            let preceded_path = start >= 2 && bytes[start - 1] == b':' && bytes[start - 2] == b':';
            // `Foo::Bar` segments never bind; `field: sub` inside braces
            // binds `sub`, not `field`.
            let skip = double_colon || preceded_path || (followed_colon && depth > 0);
            if !skip
                && word != "_"
                && !is_keyword(word)
                && word.chars().next().is_some_and(char::is_lowercase)
            {
                out.push(word.to_string());
            }
        } else {
            i += 1;
        }
    }
    out
}

/// The first top-level (outside `()`/`[]`/`{}`) byte of `text` that
/// `hit(text bytes, offset)` accepts.
fn top_level_find(text: &str, hit: impl Fn(&[u8], usize) -> bool) -> Option<usize> {
    depths(text, b"([{", b")]}")
        .find(|&(i, _, d)| d == 0 && hit(text.as_bytes(), i))
        .map(|(i, _, _)| i)
}

/// A top-level type-ascription `:` in a `let` pattern (`let n: usize`),
/// ignoring `::` paths and anything nested in `()`/`[]`/`{}`.
fn top_level_colon(text: &str) -> Option<usize> {
    top_level_find(text, |b, i| {
        b[i] == b':' && b.get(i + 1) != Some(&b':') && (i == 0 || b[i - 1] != b':')
    })
}

/// Finds a top-level `=` that is an assignment (not `==`, `=>`, `<=`,
/// `>=`, `!=`, `+=` …).
fn find_assign(text: &str) -> Option<usize> {
    top_level_find(text, |b, i| {
        let prev = if i > 0 { b[i - 1] } else { b' ' };
        let next = b.get(i + 1).copied().unwrap_or(b' ');
        b[i] == b'='
            && !matches!(
                prev,
                b'=' | b'!' | b'<' | b'>' | b'+' | b'-' | b'*' | b'/' | b'%'
            )
            && !matches!(next, b'=' | b'>')
    })
}

/// Concatenated masked code of the statement starting at `lineno`
/// (1-based): the line plus continuation lines until one ends the
/// statement with `;`, `{` or the span cap.
fn statement_text(unit: &Unit, lineno: usize, last: usize) -> String {
    let mut text = String::new();
    for l in lineno..=last.min(lineno + 7).min(unit.file.lines.len()) {
        let code = &unit.file.lines[l - 1].code;
        text.push_str(code);
        text.push(' ');
        let trimmed = code.trim_end();
        if trimmed.ends_with(';') || trimmed.ends_with('{') {
            break;
        }
    }
    text
}

/// The argument texts of one call site, balanced across up to 16 lines
/// from the call's opening `(`.
fn call_args(unit: &Unit, call: &CallSite) -> Vec<String> {
    let open = call.column - 1 + call.name.len();
    if unit.file.lines[call.line - 1].code.as_bytes().get(open) != Some(&b'(') {
        return Vec::new();
    }
    let inner = delimited(&unit.file.lines, call.line, open, 16);
    split_top_level(&inner)
        .into_iter()
        .map(|s| s.trim().to_string())
        .collect()
}

/// One function under analysis: everything the line-based dataflow reads.
struct FnCtx<'a> {
    unit: &'a Unit,
    def: &'a FnDef,
    facts: &'a FnFacts,
    model: &'a Model,
    state: &'a TaintState,
    idx: usize,
}

/// Result of one intra-function analysis.
struct FnAnalysis {
    ret: Option<Vec<Hop>>,
    /// (callee fn idx, param name, provenance) taint proposals.
    props: Vec<(usize, String, Vec<Hop>)>,
    /// Sink findings, collected flow-sensitively on the final pass (the
    /// taint state *at the sink's line* decides — a later clean rebinding
    /// of the same name must not retroactively bless an earlier sink).
    sinks: Vec<Sink>,
}

impl<'a> FnCtx<'a> {
    fn new(units: &'a [Unit], model: &'a Model, state: &'a TaintState, idx: usize) -> Self {
        let def = &model.fns[idx];
        FnCtx {
            unit: &units[def.unit_idx],
            def,
            facts: &model.facts[idx],
            model,
            state,
            idx,
        }
    }

    /// A provenance hop at `line` of this function.
    fn hop(&self, line: usize) -> Hop {
        Hop {
            function: self.def.qualified.clone(),
            file: self.unit.file.path.clone(),
            line,
        }
    }

    /// Taint carried by an expression: a mentioned tainted variable, or a
    /// call into a tainted-return function on the statement's lines.
    fn expr_taint(
        &self,
        text: &str,
        lines: (usize, usize),
        vars: &BTreeMap<String, Vec<Hop>>,
    ) -> Option<Vec<Hop>> {
        if sanitized_expr(text) {
            return None;
        }
        if let Some((_, prov)) = first_tainted(text, vars) {
            return Some(prov.clone());
        }
        // Method names hide behind a `.`, so word-boundary `mentions` would
        // miss them: match `name(` instead.
        let calls = self.facts.calls.iter().filter(|call| {
            call.line >= lines.0
                && call.line <= lines.1
                && text.contains(&format!("{}(", call.name))
        });
        calls
            .flat_map(|call| call.targets.iter().map(move |&t| (call, t)))
            .find_map(|(call, t)| Some(extend(self.state.ret[t].as_ref()?, self.hop(call.line))))
    }

    /// Runs the line-based dataflow over the body: seeds from the
    /// interprocedural state, propagates through bindings/patterns, and
    /// collects call-argument taint proposals plus the return-value verdict.
    fn analyze(&self, want_sinks: bool) -> FnAnalysis {
        let (unit, def) = (self.unit, self.def);
        let mut vars = self.state.params[self.idx].clone();
        let mut ret = None;
        let mut sinks = Vec::new();
        let Some((start, end)) = def.body else {
            return FnAnalysis {
                ret,
                props: Vec::new(),
                sinks,
            };
        };
        for pass in 0..BODY_PASSES {
            let mut depth = 0i64;
            let mut match_stack: Vec<MatchCtx> = Vec::new();
            for lineno in start..=end.min(unit.file.lines.len()) {
                let line = &unit.file.lines[lineno - 1];
                let depth_before = depth;
                depth += line.brace_delta();
                if line.in_test {
                    continue;
                }
                let code = &line.code;
                let trimmed = code.trim_start();
                let clean_line = unit.dirs.sanitized.contains(&lineno);
                let one = (lineno, lineno);

                while match_stack.last().is_some_and(|m| depth_before <= m.depth) {
                    match_stack.pop();
                }
                if let Some(m) = match_stack.last_mut() {
                    if depth_before == m.depth + 1 {
                        m.pattern = true;
                    }
                    if m.pattern && !clean_line {
                        let prov = m.prov.clone();
                        let pat_text = match code.find("=>") {
                            Some(arrow) => {
                                m.pattern = false;
                                &code[..arrow]
                            }
                            None => code.as_str(),
                        };
                        for name in pattern_idents(pat_text) {
                            vars.insert(name, prov.clone());
                        }
                    }
                }

                // Sinks see the taint state *at this line* (pattern bindings
                // above included, this line's own rebindings not yet applied).
                if want_sinks && pass == BODY_PASSES - 1 && !clean_line {
                    scan_line_sinks(unit, self.facts, lineno, code, &vars, &mut sinks);
                }

                // `let` bindings, including `if let` / `while let` / `else`.
                let mut head = trimmed;
                for prefix in ["else ", "if ", "while "] {
                    if let Some(r) = head.strip_prefix(prefix) {
                        head = r.trim_start();
                    }
                }
                if head.starts_with("let ") {
                    let span = statement_text(unit, lineno, end);
                    let let_pos = span.find("let ").unwrap_or(0);
                    let after_let = &span[let_pos + 4..];
                    if let Some(eq) = find_assign(after_let) {
                        let pat = &after_let[..eq];
                        // `let n: usize = ..`: the ascribed type is not a
                        // binding — cut the pattern at the ascription colon.
                        let pat = &pat[..top_level_colon(pat).unwrap_or(pat.len())];
                        let rhs = &after_let[eq + 1..];
                        let lines = (lineno, (lineno + 7).min(end));
                        match (!clean_line)
                            .then(|| self.expr_taint(rhs, lines, &vars))
                            .flatten()
                        {
                            Some(prov) => {
                                for name in pattern_idents(pat) {
                                    vars.insert(name, prov.clone());
                                }
                            }
                            // Strong update: a rebinding from a clean RHS
                            // clears the old taint.
                            None => {
                                for name in pattern_idents(pat) {
                                    vars.remove(&name);
                                }
                            }
                        }
                    }
                } else if let Some(r) = trimmed.strip_prefix("for ") {
                    if let Some(in_pos) = r.find(" in ") {
                        let iter = r[in_pos + 4..].trim_end().trim_end_matches('{');
                        if let Some(prov) = (!clean_line)
                            .then(|| self.expr_taint(iter, one, &vars))
                            .flatten()
                        {
                            for name in pattern_idents(&r[..in_pos]) {
                                vars.insert(name, prov.clone());
                            }
                        }
                    }
                }
                if clean_line {
                    continue;
                }

                // Tainted scrutinee: the arms' pattern bindings inherit it.
                if let Some(&mpos) = find_keyword(code, "match").first() {
                    let expr = code[mpos + 5..].trim_end().trim_end_matches('{');
                    if let Some(prov) = self.expr_taint(expr, one, &vars) {
                        match_stack.push(MatchCtx {
                            depth: depth_before,
                            prov,
                            pattern: false,
                        });
                    }
                }

                // Return-value taint: explicit `return`s plus the tail line.
                if !def.ret.is_empty() {
                    if let Some(&rpos) = find_keyword(code, "return").first() {
                        if let Some(prov) = self.expr_taint(&code[rpos + 6..], one, &vars) {
                            ret.get_or_insert(prov);
                        }
                    }
                }
            }
        }

        // Tail-expression heuristic: the last code line before the closing
        // braces carries the fn's value in expression position.
        if ret.is_none() && !def.ret.is_empty() {
            let tail = (start..=end.min(unit.file.lines.len())).rev().find(|&l| {
                let code = unit.file.lines[l - 1].code.trim();
                !code.is_empty() && !code.chars().all(|c| "}));,".contains(c))
            });
            if let Some(lineno) = tail {
                let line = &unit.file.lines[lineno - 1];
                if !line.in_test && !unit.dirs.sanitized.contains(&lineno) {
                    ret = self.expr_taint(line.code.trim(), (lineno, lineno), &vars);
                }
            }
        }

        // Call-argument propagation into callee parameters.
        let mut props = Vec::new();
        for call in &self.facts.calls {
            if call.targets.is_empty()
                || unit.file.lines[call.line - 1].in_test
                || unit.dirs.sanitized.contains(&call.line)
            {
                continue;
            }
            for (i, arg) in call_args(unit, call).iter().enumerate() {
                if sanitized_expr(arg) {
                    continue;
                }
                let Some((_, prov)) = first_tainted(arg, &vars) else {
                    continue;
                };
                let prov = extend(prov, self.hop(call.line));
                for &t in &call.targets {
                    if let Some((pname, _)) = self.model.fns[t].params.get(i) {
                        props.push((t, pname.clone(), prov.clone()));
                    }
                }
            }
        }
        FnAnalysis { ret, props, sinks }
    }
}

/// Seeds the interprocedural state: auto-seeded decode fns, wire-typed
/// parameters, and explicit source annotations.
fn seed(units: &[Unit], model: &Model, state: &mut TaintState, out: &mut Vec<Diagnostic>) {
    let source_hop = |def: &FnDef| Hop {
        function: def.qualified.clone(),
        file: units[def.unit_idx].file.path.clone(),
        line: def.line,
    };
    for (idx, def) in model.fns.iter().enumerate() {
        let path = &units[def.unit_idx].file.path;
        if DECODE_NAMES.contains(&def.name.as_str()) && path.starts_with(DECODE_CRATE_PREFIX) {
            state.ret[idx].get_or_insert_with(|| vec![source_hop(def)]);
        }
        if skip_unit(path) {
            continue;
        }
        for (pname, ptype) in &def.params {
            if WIRE_PARAM_TYPES.contains(&ptype.as_str()) {
                state.params[idx]
                    .entry(pname.clone())
                    .or_insert_with(|| vec![source_hop(def)]);
            }
        }
    }
    // Explicit annotations bind like bf-flow entries; a dangling one would
    // silently unprotect its surface, so it errors.
    for (uidx, unit) in units.iter().enumerate() {
        if skip_unit(&unit.file.path) {
            continue;
        }
        for anchor in &unit.dirs.sources {
            match model.fn_after(uidx, anchor.line) {
                Some(idx) => {
                    state.ret[idx].get_or_insert_with(|| vec![source_hop(&model.fns[idx])]);
                }
                None => out.push(
                    Diagnostic::new(
                        "directive",
                        &unit.file.path,
                        anchor.line,
                        format!(
                            "dangling `bf-taint: source(wire))` annotation: no fn follows \
                             within {BIND_WINDOW} lines"
                        ),
                    )
                    .at_column(anchor.column),
                ),
            }
        }
    }
}

/// One sink finding before diagnostics assembly.
struct Sink {
    rule: &'static str,
    line: usize,
    column: usize,
    token: String,
    message: String,
    prov: Vec<Hop>,
}

/// Scans one line for sinks fed by variables tainted *at that line*.
fn scan_line_sinks(
    unit: &Unit,
    facts: &FnFacts,
    lineno: usize,
    code: &str,
    vars: &BTreeMap<String, Vec<Hop>>,
    sinks: &mut Vec<Sink>,
) {
    if vars.is_empty() {
        return;
    }
    let mut sink = |rule, column, token, message, prov: &Vec<Hop>| {
        let (line, prov) = (lineno, prov.clone());
        sinks.push(Sink {
            rule,
            line,
            column,
            token,
            message,
            prov,
        });
    };

    // Allocation + buffer-math sinks share the paren-arg shape.
    for (rule, patterns, what) in [
        ("taint_alloc", ALLOC_SINKS, "allocation sized"),
        ("taint_index", BUFFER_MATH_SINKS, "buffer cursor moved"),
    ] {
        for pat in patterns {
            for pos in find_all(code, pat) {
                let arg = delimited(&unit.file.lines, lineno, pos + pat.len() - 1, 8);
                if sanitized_expr(&arg) {
                    continue;
                }
                let Some((name, prov)) = first_tainted(&arg, vars) else {
                    continue;
                };
                let op = pat.trim_matches(['.', '(']);
                sink(
                    rule,
                    pos + 1,
                    format!("{op}:{name}"),
                    format!(
                        "{what} by wire-tainted `{name}` in `{op}(..)`: cap it \
                         against a named bound (`.min(CAP)`) or justify with \
                         `// bf-taint: sanitized(<why>)`",
                    ),
                    prov,
                );
            }
        }
    }

    // Slice/array indexing: `ident[..tainted..]`.
    for i in index_sites(code) {
        let inner = match closing(code, i, b"[(", b"])") {
            Some(close) => &code[i + 1..close],
            None => &code[i + 1..],
        };
        if sanitized_expr(inner) {
            continue;
        }
        if let Some((name, prov)) = first_tainted(inner, vars) {
            sink(
                "taint_index",
                i + 1,
                format!("index:{name}"),
                format!(
                    "slice indexed by wire-tainted `{name}`: bounds-check \
                     or clamp before indexing, or justify with \
                     `// bf-taint: sanitized(<why>)`",
                ),
                prov,
            );
        }
    }

    // Loop bounds: ranges in `for`, conditions in `while`.
    let trimmed = code.trim_start();
    let indent = code.len() - trimmed.len() + 1;
    let for_range = trimmed.strip_prefix("for ").and_then(|r| {
        let iter = r[r.find(" in ")? + 4..].trim_end().trim_end_matches('{');
        iter.contains("..").then_some(iter)
    });
    let while_cond = trimmed
        .strip_prefix("while ")
        .filter(|r| !r.trim_start().starts_with("let "))
        .map(|r| r.trim_end().trim_end_matches('{'));
    if let Some(iter) = for_range.filter(|iter| !sanitized_expr(iter)) {
        if let Some((name, prov)) = first_tainted(iter, vars) {
            sink(
                "taint_loop",
                indent,
                format!("for:{name}"),
                format!(
                    "loop range bounded by wire-tainted `{name}`: a \
                     client-chosen bound is a CPU-exhaustion lever — \
                     cap it or justify with \
                     `// bf-taint: sanitized(<why>)`",
                ),
                prov,
            );
        }
    } else if let Some(cond) = while_cond.filter(|cond| !sanitized_expr(cond)) {
        if let Some((name, prov)) = first_tainted(cond, vars) {
            sink(
                "taint_loop",
                indent,
                format!("while:{name}"),
                format!(
                    "`while` condition reads wire-tainted `{name}`: a \
                     client-steered loop bound is a CPU-exhaustion \
                     lever — cap it or justify with \
                     `// bf-taint: sanitized(<why>)`",
                ),
                prov,
            );
        }
    }

    // Authorization sinks ride the extracted call sites on this line.
    for call in facts.calls.iter().filter(|call| call.line == lineno) {
        let name = call.name.as_str();
        let cache_recv = call
            .chain
            .last()
            .is_some_and(|seg| seg.contains("cache") || seg.contains("admitted"));
        if !(AUTH_METHODS.contains(&name) || (cache_recv && CACHE_METHODS.contains(&name))) {
            continue;
        }
        let args = call_args(unit, call);
        let hit = args
            .iter()
            .filter(|a| !sanitized_expr(a))
            .find_map(|a| first_tainted(a, vars));
        if let Some((var, prov)) = hit {
            let recv = call.chain.join(".");
            sink(
                "taint_auth",
                call.column,
                format!("auth:{name}:{var}"),
                format!(
                    "admission/authorization call `{recv}.{name}(..)` keyed by \
                     wire-tainted `{var}`: an untrusted value is deciding a \
                     cache or residency outcome — recompute server-side \
                     (`content_digest`) or justify with \
                     `// bf-taint: allow(taint_auth): <why>`",
                ),
                prov,
            );
        }
    }
}

/// Runs the taint pass over the parsed workspace and its shared model,
/// appending findings.
pub fn check(units: &[Unit], model: &Model, out: &mut Vec<Diagnostic>) {
    let n = model.fns.len();
    let mut state = TaintState {
        params: vec![BTreeMap::new(); n],
        ret: vec![None; n],
    };
    seed(units, model, &mut state, out);

    // Fixpoint: every fn once, then chase changes. The call graph is the
    // model's, so callers are known up front.
    let mut callers: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (idx, facts) in model.facts.iter().enumerate() {
        for &t in &facts.callees {
            callers[t].push(idx);
        }
    }
    let mut visits = vec![0usize; n];
    let mut queue: VecDeque<usize> = (0..n).collect();
    let mut queued: Vec<bool> = vec![true; n];
    while let Some(idx) = queue.pop_front() {
        queued[idx] = false;
        if visits[idx] >= MAX_VISITS {
            continue; // widening cap: stop chasing this fn
        }
        visits[idx] += 1;
        let analysis = FnCtx::new(units, model, &state, idx).analyze(false);
        let mut dirty: Vec<usize> = Vec::new();
        for (t, pname, prov) in analysis.props {
            if let std::collections::btree_map::Entry::Vacant(e) = state.params[t].entry(pname) {
                e.insert(prov);
                dirty.push(t);
            }
        }
        if state.ret[idx].is_none() {
            if let Some(prov) = analysis.ret {
                state.ret[idx] = Some(prov);
                // A newly tainted return invalidates every caller.
                dirty.extend(callers[idx].iter().copied());
            }
        }
        for t in dirty {
            if !queued[t] {
                queued[t] = true;
                queue.push_back(t);
            }
        }
    }

    // Final sink sweep with the converged state, in deterministic order.
    let mut seen: HashSet<String> = HashSet::new();
    let mut fn_order: Vec<usize> = (0..n).collect();
    fn_order.sort_by_key(|&i| (model.fns[i].unit_idx, model.fns[i].line));
    for idx in fn_order {
        let ctx = FnCtx::new(units, model, &state, idx);
        let (unit, def) = (ctx.unit, ctx.def);
        let path = &unit.file.path;
        if skip_unit(path) {
            continue;
        }
        for sink in ctx.analyze(true).sinks {
            if unit.permits(sink.line, sink.rule) {
                continue;
            }
            let key = format!("{}|{path}|{}|{}", sink.rule, def.qualified, sink.token);
            if !seen.insert(key.clone()) {
                continue;
            }
            let mut witness = sink.prov;
            witness.push(Hop {
                function: format!("{} [{}]", def.qualified, sink.token),
                file: path.clone(),
                line: sink.line,
            });
            let mut diag =
                Diagnostic::new(sink.rule, path, sink.line, sink.message).at_column(sink.column);
            diag.witness = witness;
            diag.key = key;
            out.push(diag);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::parse;

    #[test]
    fn mentions_respects_word_boundaries_and_projections() {
        assert!(mentions("alloc(len)", "len"));
        assert!(mentions("len as usize", "len"));
        assert!(!mentions("length", "len"));
        assert!(!mentions("slot.len", "len"), "field projection of slot");
        assert!(!mentions("path::len", "len"), "path segment");
        assert!(mentions("buf.split_to(len)", "len"));
    }

    #[test]
    fn pattern_idents_skip_paths_keywords_and_field_keys() {
        assert_eq!(pattern_idents("Some(x)"), vec!["x"]);
        assert_eq!(
            pattern_idents("DataRef::Digest { digest, len }"),
            vec!["digest", "len"]
        );
        assert_eq!(pattern_idents("(a, _, b)"), vec!["a", "b"]);
        // `field: sub` inside braces binds `sub`, not the field key.
        assert_eq!(pattern_idents("Foo { field: sub }"), vec!["sub"]);
        assert!(pattern_idents("ErrorCode::CacheMiss").is_empty());
    }

    #[test]
    fn top_level_colon_ignores_paths_and_nesting() {
        assert_eq!(top_level_colon("n: usize"), Some(1));
        assert_eq!(top_level_colon("n::m"), None);
        assert_eq!(top_level_colon("(a: u8)"), None, "nested ascription");
        assert_eq!(top_level_colon("x"), None);
    }

    #[test]
    fn find_assign_skips_comparisons_and_arrows() {
        assert_eq!(find_assign("x = y"), Some(2));
        assert_eq!(find_assign("x == y"), None);
        assert_eq!(find_assign("x => y"), None);
        assert_eq!(find_assign("x += y"), None);
        assert_eq!(find_assign("if (a == b) { c } = d"), Some(18));
    }

    #[test]
    fn sanitized_expr_matches_caps_and_validated_constructors() {
        assert!(sanitized_expr("declared.min(limit)"));
        assert!(sanitized_expr("v.clamp(0, 16)"));
        assert!(sanitized_expr("content_digest(&bytes)"));
        assert!(!sanitized_expr("incontent_digest(&bytes)"), "word boundary");
        assert!(!sanitized_expr("declared + limit"));
    }

    fn run(files: &[(&str, &str)]) -> Vec<Diagnostic> {
        let units: Vec<Unit> = files
            .iter()
            .map(|(path, src)| Unit::analyze(parse(path, src, false), &mut Vec::new()))
            .collect();
        let mut out = Vec::new();
        check(&units, &crate::flow::build_model(&units), &mut out);
        out
    }

    const WIRE_SRC: &str = "
// bf-taint: source(wire)
pub fn read_len(buf: &mut Bytes) -> u64 {
    0
}
";

    #[test]
    fn source_flows_through_calls_to_alloc_sink_with_witness() {
        let diags = run(&[
            ("crates/demo/src/wire.rs", WIRE_SRC),
            (
                "crates/demo/src/lib.rs",
                "
pub fn entry(buf: &mut Bytes) {
    let declared = read_len(buf);
    mid(declared);
}

fn mid(count: u64) {
    grow(count);
}

fn grow(count: u64) {
    let v: Vec<u8> = Vec::with_capacity(count as usize);
    drop(v);
}
",
            ),
        ]);
        let allocs: Vec<_> = diags.iter().filter(|d| d.rule == "taint_alloc").collect();
        assert_eq!(allocs.len(), 1, "{diags:?}");
        let diag = allocs[0];
        assert!(
            diag.key.ends_with("|grow|with_capacity:count"),
            "{}",
            diag.key
        );
        assert!(
            diag.witness.len() >= 3,
            "multi-hop witness expected: {:?}",
            diag.witness
        );
        assert!(
            diag.witness
                .last()
                .unwrap()
                .function
                .contains("with_capacity"),
            "{:?}",
            diag.witness
        );
    }

    #[test]
    fn capping_sanitizer_clears_the_flow() {
        let diags = run(&[
            ("crates/demo/src/wire.rs", WIRE_SRC),
            (
                "crates/demo/src/lib.rs",
                "
pub fn entry(buf: &mut Bytes) {
    let declared = read_len(buf).min(4096);
    let v: Vec<u8> = Vec::with_capacity(declared as usize);
    drop(v);
}
",
            ),
        ]);
        assert!(
            diags.iter().all(|d| !d.rule.starts_with("taint_")),
            "{diags:?}"
        );
    }

    #[test]
    fn slice_indexing_and_buffer_math_are_index_sinks() {
        let diags = run(&[
            ("crates/demo/src/wire.rs", WIRE_SRC),
            (
                "crates/demo/src/lib.rs",
                "
pub fn entry(buf: &mut Bytes, table: &[u8]) {
    let off = read_len(buf) as usize;
    let b = table[off];
    let len = read_len(buf) as usize;
    let head = buf.split_to(len);
    drop((b, head));
}
",
            ),
        ]);
        let keys: Vec<&str> = diags
            .iter()
            .filter(|d| d.rule == "taint_index")
            .map(|d| d.key.as_str())
            .collect();
        assert!(
            keys.iter().any(|k| k.ends_with("|entry|index:off")),
            "{diags:?}"
        );
        assert!(
            keys.iter().any(|k| k.ends_with("|entry|split_to:len")),
            "{diags:?}"
        );
    }

    #[test]
    fn range_and_while_bounds_are_loop_sinks() {
        let diags = run(&[
            ("crates/demo/src/wire.rs", WIRE_SRC),
            (
                "crates/demo/src/lib.rs",
                "
pub fn entry(buf: &mut Bytes) {
    let n = read_len(buf);
    for _ in 0..=n {
        work();
    }
    let mut i = 0;
    while i < n {
        i += 1;
    }
}
",
            ),
        ]);
        let keys: Vec<&str> = diags
            .iter()
            .filter(|d| d.rule == "taint_loop")
            .map(|d| d.key.as_str())
            .collect();
        assert!(
            keys.iter().any(|k| k.ends_with("|entry|for:n")),
            "{diags:?}"
        );
        assert!(
            keys.iter().any(|k| k.ends_with("|entry|while:n")),
            "{diags:?}"
        );
    }

    #[test]
    fn dangling_source_annotation_is_a_directive_error() {
        let diags = run(&[(
            "crates/demo/src/wire.rs",
            "pub fn f() {}\n// bf-taint: source(wire)\n",
        )]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "directive");
        assert_eq!(diags[0].line, 2);
    }

    #[test]
    fn test_paths_never_report_sinks() {
        let diags = run(&[
            ("crates/demo/src/wire.rs", WIRE_SRC),
            (
                "crates/demo/tests/e2e.rs",
                "
pub fn entry(buf: &mut Bytes) {
    let declared = read_len(buf);
    let v: Vec<u8> = Vec::with_capacity(declared as usize);
    drop(v);
}
",
            ),
        ]);
        assert!(
            diags.iter().all(|d| !d.rule.starts_with("taint_")),
            "{diags:?}"
        );
    }
}
