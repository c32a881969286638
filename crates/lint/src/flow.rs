//! bf-flow: workspace symbol table, approximate call graph, and
//! reachability-based interprocedural hot-path passes.
//!
//! The per-file rules in [`crate::rules`] cannot see a blocking lock, an
//! unbounded allocation, or a panic path *three calls deep* behind an
//! event loop. bf-flow closes that gap without any rustc plumbing: it
//! extracts every function, impl block, trait, and struct-field type from
//! the masked source model, resolves call sites with name/receiver
//! heuristics (field types, parameter types, `let`-binding types,
//! trait-impl fan-out as may-call edges), and walks the resulting graph
//! from annotated hot-path roots:
//!
//! ```text
//! // bf-flow: entry(poller)
//! pub fn poll(&mut self, timeout: Option<Duration>) -> PollEvent {
//! ```
//!
//! Four passes run over everything reachable from an entry:
//!
//! | rule | meaning |
//! |---|---|
//! | `hot_blocking` | no condvar wait / sleep / blocking recv / syscall, and no lock ranked *outside* the entry class's floor |
//! | `hot_alloc` | no unbounded `push`/`insert`/`extend`/`to_vec`/`resize` without a justified bound |
//! | `hot_panic` | no `panic!`-family macro, `unwrap`/`expect`, or indexing-without-`get` (supersedes the per-file `panic` rule on these paths) |
//! | `error_drop` | no discarded `Result` whose error type carries `Backpressure`/`Overloaded`/`HandlerError` |
//!
//! Every finding carries a call-chain **witness** (entry → … → offending
//! call, file:line per hop) so a CI failure is a reproduction recipe, not
//! a guess. Sites opt out with a justified `bf-flow` allow directive;
//! for `hot_alloc` the justification must state the bound.
//!
//! The program [`Model`] — functions, per-function facts, and every call
//! site's resolved targets — is built once per run by [`build_model`] and
//! shared with [`crate::taint`].
//!
//! Known approximation classes (documented in ARCHITECTURE.md §11):
//! resolution is name-based, so calls through trait objects fan out to
//! *every* impl (may-call over-approximation), while calls whose receiver
//! type cannot be inferred fall back to unique-method-name matching and
//! are dropped when ambiguous (false negatives). The bf-race sync facade
//! (`crates/race`) is excluded from the model: primitive operations
//! (`.lock()`, `.wait()`) are treated as leaves at the *call site*, where
//! the lock name and rank are visible.

use std::collections::{HashMap, HashSet, VecDeque};

use crate::explain::Family;
use crate::rules::{lock_acquisitions, Diagnostic, Hop, Unit};
use crate::scan::{closing, depths, find_all, find_keyword, ident_before, index_sites};

/// Interprocedural rules, accepted by `bf-flow: allow(..)` directives.
pub const FLOW_RULES: Family = Family("bf-flow");

/// Entry classes and their lock-rank floor: paths from an entry of a given
/// class may only acquire locks ranked at or inside (≥) the named lock.
/// The floor is the outermost lock the loop legitimately owns.
pub const ENTRY_CLASSES: &[(&str, &str)] = &[
    ("poller", "queue"),
    ("devmgr_events", "board"),
    ("remote_reactor", "pending"),
    ("batcher", "functions"),
    ("shm", "segment"),
    ("gatherer", "registry"),
    ("placement", "shard_map"),
];

/// Crates excluded from the call-graph model: the bf-race facade *is* the
/// synchronization layer (its internals are the primitives the passes
/// treat as leaves at the call site), and the linter itself is tooling.
pub(crate) const EXCLUDED_PREFIXES: &[&str] = &["crates/race/", "crates/lint/"];

/// An `entry(..)` or `source(wire)` annotation binds to the next `fn`
/// defined at most this many lines below it.
pub(crate) const BIND_WINDOW: usize = 8;

/// One resolved `// bf-flow: entry(<class>)` annotation.
#[derive(Debug, Clone)]
pub struct EntryPoint {
    /// The entry class (a name from [`ENTRY_CLASSES`]).
    pub class: String,
    /// Qualified name of the annotated function (`Type::method` or free).
    pub function: String,
    /// Workspace-relative path of the annotation.
    pub file: String,
    /// 1-based line of the annotated function's signature.
    pub line: usize,
}

// ---------------------------------------------------------------------------
// Symbol model
// ---------------------------------------------------------------------------

#[derive(Debug)]
pub(crate) struct FnDef {
    pub(crate) name: String,
    pub(crate) qualified: String,
    pub(crate) owner: Option<String>,
    pub(crate) krate: String,
    pub(crate) unit_idx: usize,
    /// 1-based line of the `fn` keyword.
    pub(crate) line: usize,
    /// 1-based inclusive line range of the signature + body; `None` for
    /// bodyless trait declarations.
    pub(crate) body: Option<(usize, usize)>,
    pub(crate) params: Vec<(String, String)>,
    pub(crate) ret: String,
}

/// One struct's field table: (defining crate, field name → base type).
type FieldTable = (String, HashMap<String, String>);

/// Parsed signature parts: (name, params as (name, base type), return type).
type ParsedSignature = (String, Vec<(String, String)>, String);

/// The whole-program model shared by bf-flow and bf-taint: every function,
/// its body facts with each call site already resolved, and the symbol
/// tables resolution used.
#[derive(Default)]
pub struct Model {
    pub(crate) fns: Vec<FnDef>,
    /// Per-function facts, parallel to `fns`.
    pub(crate) facts: Vec<FnFacts>,
    /// (type, method) → defining fns (same name can exist per crate).
    methods: HashMap<(String, String), Vec<usize>>,
    /// method name → defining fns across all types.
    methods_by_name: HashMap<String, Vec<usize>>,
    /// free function name → defining fns.
    free_fns: HashMap<String, Vec<usize>>,
    /// type name → (crate, field → base type).
    fields: HashMap<String, Vec<FieldTable>>,
    traits: HashSet<String>,
    /// trait → implementing types.
    impls_of: HashMap<String, Vec<String>>,
    /// trait → declared method names.
    trait_methods: HashMap<String, HashSet<String>>,
    type_names: HashSet<String>,
}

fn crate_of(path: &str) -> String {
    path.strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("workspace")
        .to_string()
}

/// Words that look like calls but are control flow or definitions.
pub(crate) fn is_keyword(word: &str) -> bool {
    matches!(
        word,
        "if" | "while"
            | "for"
            | "match"
            | "return"
            | "fn"
            | "loop"
            | "else"
            | "in"
            | "as"
            | "move"
            | "let"
            | "ref"
            | "mut"
            | "pub"
            | "use"
            | "impl"
            | "where"
            | "struct"
            | "enum"
            | "trait"
            | "type"
            | "const"
            | "static"
            | "crate"
            | "super"
            | "dyn"
            | "box"
            | "unsafe"
            | "break"
            | "continue"
    )
}

/// Strips reference/smart-pointer/cell wrappers down to the base type
/// ident: `&Arc<Mutex<Vec<u8>>>` → `Vec`, `&'a dyn BatchHandler` →
/// `BatchHandler`, `Option<ShmSegment>` → `ShmSegment`.
pub(crate) fn base_type(raw: &str) -> Option<String> {
    let mut t = raw.trim();
    loop {
        let before = t;
        t = t.trim_start_matches('&').trim();
        for prefix in ["mut ", "dyn "] {
            if let Some(rest) = t.strip_prefix(prefix) {
                t = rest.trim();
            }
        }
        if t.starts_with('\'') {
            // Lifetime: skip the token.
            t = t.split_once(' ').map(|(_, rest)| rest).unwrap_or("").trim();
        }
        let mut unwrapped = false;
        for wrapper in [
            "Arc<", "Box<", "Rc<", "Weak<", "Option<", "Mutex<", "RwLock<",
        ] {
            if let Some(rest) = t.strip_prefix(wrapper) {
                t = rest.trim_end().trim_end_matches('>').trim();
                unwrapped = true;
                break;
            }
        }
        if !unwrapped && t == before {
            break;
        }
    }
    let t = t.split('<').next().unwrap_or(t);
    let t = t.split('(').next().unwrap_or(t);
    let t = t.rsplit("::").next().unwrap_or(t).trim();
    let ident: String = t
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    (!ident.is_empty()).then_some(ident)
}

/// `text` past a leading generics list (`<..>`, tolerating `->` inside
/// `Fn(..) -> ..` bounds); `None` when the list does not close.
fn skip_generics(text: &str) -> Option<&str> {
    if !text.starts_with('<') {
        return Some(text);
    }
    closing(text, 0, b"<", b">").map(|end| &text[end + 1..])
}

/// Parses an accumulated `fn` signature into (name, params, return type).
fn parse_signature(sig: &str) -> Option<ParsedSignature> {
    let fn_pos = find_keyword(sig, "fn").into_iter().next()?;
    let after = sig[fn_pos + 2..].trim_start();
    let name: String = after
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if name.is_empty() {
        return None;
    }
    let rest = skip_generics(after[name.len()..].trim_start())?;
    let open = rest.find('(')?;
    let close = closing(rest, open, b"(", b")")?;
    let mut params = Vec::new();
    for part in crate::scan::split_top_level(&rest[open + 1..close]) {
        let part = part.trim();
        if part.is_empty() || part.ends_with("self") || part.contains("self,") {
            continue;
        }
        let Some(colon) = part.find(':') else {
            continue;
        };
        let name = part[..colon].trim().trim_start_matches("mut ").trim();
        if name.is_empty() || !name.chars().all(|c| c.is_alphanumeric() || c == '_') {
            continue; // pattern parameters: not resolvable by name
        }
        if let Some(ty) = base_type(&part[colon + 1..]) {
            params.push((name.to_string(), ty));
        }
    }
    let tail = &rest[close + 1..];
    let ret = match tail.find("->") {
        Some(arrow) => {
            let r = &tail[arrow + 2..];
            let stop = find_keyword(r, "where").first().copied().unwrap_or(r.len());
            r[..stop].trim().to_string()
        }
        None => String::new(),
    };
    Some((name, params, ret))
}

/// Parses the type (and optional trait) out of an `impl` header.
fn parse_impl_header(sig: &str) -> (Option<String>, Option<String>) {
    let Some(pos) = find_keyword(sig, "impl").into_iter().next() else {
        return (None, None);
    };
    let rest = sig[pos + 4..].trim_start();
    let rest = skip_generics(rest).unwrap_or(rest).trim_start();
    let stop = rest
        .find('{')
        .min(find_keyword(rest, "where").first().copied())
        .unwrap_or(rest.len());
    let head = &rest[..stop];
    if let Some(for_pos) = find_keyword(head, "for").into_iter().next() {
        let trait_ty = base_type(&head[..for_pos]);
        let self_ty = base_type(&head[for_pos + 3..]);
        (self_ty, trait_ty)
    } else {
        (base_type(head), None)
    }
}

/// The identifier following `keyword` on `code`, if any.
fn ident_after_keyword(code: &str, keyword: &str) -> Option<String> {
    let pos = find_keyword(code, keyword).into_iter().next()?;
    let rest = code[pos + keyword.len()..].trim_start();
    let ident: String = rest
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    (!ident.is_empty()).then_some(ident)
}

enum CtxKind {
    Impl { ty: String },
    Trait { name: String },
    Struct { ty: String },
    Fn { idx: usize },
}

struct Ctx {
    kind: CtxKind,
    enter_depth: i64,
}

enum PendingKind {
    Fn,
    Impl,
    Trait,
    Struct,
}

struct Pending {
    kind: PendingKind,
    sig: String,
    line: usize,
}

/// Builds the program model over every unit: the symbol tables, each
/// function's facts, and every call site's resolution. Run once per scan.
pub fn build_model(units: &[Unit]) -> Model {
    let mut model = Model::default();
    for (unit_idx, unit) in units.iter().enumerate() {
        let file = &unit.file;
        if EXCLUDED_PREFIXES.iter().any(|p| file.path.starts_with(p)) {
            continue;
        }
        let krate = crate_of(&file.path);
        let mut stack: Vec<Ctx> = Vec::new();
        let mut depth: i64 = 0;
        let mut pending: Option<Pending> = None;

        for (idx, line) in file.lines.iter().enumerate() {
            let code = &line.code;
            let lineno = idx + 1;

            if let Some(p) = pending.as_mut() {
                p.sig.push(' ');
                p.sig.push_str(code);
            } else if !line.in_test {
                // Detect the earliest item header on the line. Struct-field
                // lines are handled below and never contain these keywords.
                let header = [
                    ("impl", PendingKind::Impl),
                    ("trait", PendingKind::Trait),
                    ("struct", PendingKind::Struct),
                    ("fn", PendingKind::Fn),
                ]
                .into_iter()
                .filter_map(|(kw, kind)| {
                    find_keyword(code, kw)
                        .into_iter()
                        .next()
                        .map(|pos| (pos, kw, kind))
                })
                .min_by_key(|&(pos, _, _)| pos);
                if let Some((pos, kw, kind)) = header {
                    // `fn(` is a function-pointer type, not a definition;
                    // require an identifier after `fn`/`struct`/`trait`.
                    let named = match kind {
                        PendingKind::Impl => true,
                        _ => ident_after_keyword(&code[pos..], kw).is_some(),
                    };
                    if named {
                        pending = Some(Pending {
                            kind,
                            sig: code[pos..].to_string(),
                            line: lineno,
                        });
                    }
                }
                // Struct-field declarations at the top level of a struct
                // block feed the receiver-type resolution table.
                if pending.is_none() {
                    if let Some(Ctx {
                        kind: CtxKind::Struct { ty },
                        enter_depth,
                    }) = stack.last()
                    {
                        if depth == enter_depth + 1 {
                            record_field(&mut model, &krate, ty, code);
                        }
                    }
                }
            }

            // A complete pending header either opens a block on this line
            // or terminates bodyless with `;` (trait method declarations).
            // The terminator is the first `{` or `;` outside `()`/`[]`: a
            // `;` inside an array type (`[u64; 3]`) must not end it early.
            if let Some(p) = pending.take() {
                let terminator = depths(&p.sig, b"([", b")]")
                    .find(|&(_, b, d)| d <= 0 && (b == b'{' || b == b';'));
                match terminator {
                    Some((_, b'{', _)) => {
                        // Opens a block: the `{` lives on the current line.
                        let brace_col = code.find('{').unwrap_or(0);
                        let closes = code[..brace_col].matches('}').count() as i64;
                        if let Some(kind) = open_item(&mut model, &krate, unit_idx, &p, &stack) {
                            stack.push(Ctx {
                                kind,
                                enter_depth: depth - closes,
                            });
                        }
                    }
                    // Bodyless: record trait method declarations so the
                    // fan-out heuristic knows the trait's surface.
                    Some(_) => {
                        if let PendingKind::Fn = p.kind {
                            declare_fn(&mut model, &krate, unit_idx, &p, &stack, None);
                        }
                    }
                    None => pending = Some(p), // still accumulating
                }
            }

            depth += line.brace_delta();
            while let Some(ctx) = stack.last() {
                if depth > ctx.enter_depth {
                    break;
                }
                if let CtxKind::Fn { idx } = ctx.kind {
                    if let Some((start, _)) = model.fns[idx].body {
                        model.fns[idx].body = Some((start, lineno));
                    }
                }
                stack.pop();
            }
        }
    }

    // Facts per function, then every call site resolved once: the
    // reachability passes and the taint fixpoint only read the result.
    let extracted: Vec<FnFacts> = model
        .fns
        .iter()
        .map(|def| extract_fn_facts(&units[def.unit_idx], def))
        .collect();
    for (idx, mut facts) in extracted.into_iter().enumerate() {
        let def = &model.fns[idx];
        let resolved: Vec<_> = facts
            .calls
            .iter()
            .map(|call| model.resolve(def, &facts, call))
            .collect();
        for (call, (targets, offense)) in facts.calls.iter_mut().zip(resolved) {
            for &t in &targets {
                if t != idx && !facts.callees.contains(&t) {
                    facts.callees.push(t);
                }
            }
            call.targets = targets;
            call.offense = call.offense.take().or(offense);
        }
        model.facts.push(facts);
    }
    model
}

impl Model {
    /// The function an annotation on 1-based `line` of unit `unit_idx`
    /// binds to: the next `fn` defined in the same file, at most
    /// [`BIND_WINDOW`] lines below.
    pub(crate) fn fn_after(&self, unit_idx: usize, line: usize) -> Option<usize> {
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.unit_idx == unit_idx && f.line > line)
            .min_by_key(|(_, f)| f.line)
            .filter(|(_, f)| f.line <= line + BIND_WINDOW)
            .map(|(idx, _)| idx)
    }
}

fn record_field(model: &mut Model, krate: &str, ty: &str, code: &str) {
    let trimmed = code.trim();
    let trimmed = trimmed.strip_prefix("pub").map_or(trimmed, |rest| {
        rest.trim_start_matches(|c: char| c == '(' || c == ')' || c.is_alphanumeric())
            .trim_start()
    });
    let Some(colon) = trimmed.find(':') else {
        return;
    };
    if trimmed.as_bytes().get(colon + 1) == Some(&b':') {
        return;
    }
    let name = trimmed[..colon].trim();
    if name.is_empty() || !name.chars().all(|c| c.is_alphanumeric() || c == '_') {
        return;
    }
    let ty_text = trimmed[colon + 1..].trim().trim_end_matches(',');
    let Some(field_ty) = base_type(ty_text) else {
        return;
    };
    let entry = model.fields.entry(ty.to_string()).or_default();
    match entry.iter_mut().find(|(k, _)| k == krate) {
        Some((_, map)) => {
            map.insert(name.to_string(), field_ty);
        }
        None => entry.push((
            krate.to_string(),
            HashMap::from([(name.to_string(), field_ty)]),
        )),
    }
}

fn open_item(
    model: &mut Model,
    krate: &str,
    unit_idx: usize,
    p: &Pending,
    stack: &[Ctx],
) -> Option<CtxKind> {
    match p.kind {
        PendingKind::Impl => {
            let (ty, trait_name) = parse_impl_header(&p.sig);
            let ty = ty?;
            model.type_names.insert(ty.clone());
            if let Some(t) = trait_name {
                model.impls_of.entry(t).or_default().push(ty.clone());
            }
            Some(CtxKind::Impl { ty })
        }
        PendingKind::Trait => {
            let name = ident_after_keyword(&p.sig, "trait")?;
            model.traits.insert(name.clone());
            model.type_names.insert(name.clone());
            Some(CtxKind::Trait { name })
        }
        PendingKind::Struct => {
            let ty = ident_after_keyword(&p.sig, "struct")?;
            model.type_names.insert(ty.clone());
            Some(CtxKind::Struct { ty })
        }
        PendingKind::Fn => {
            let body = Some((p.line, p.line));
            let idx = declare_fn(model, krate, unit_idx, p, stack, body)?;
            Some(CtxKind::Fn { idx })
        }
    }
}

/// Registers the `fn` of a complete header (`body` is `None` for bodyless
/// trait declarations), recording trait methods so the fan-out heuristic
/// knows each trait's surface.
fn declare_fn(
    model: &mut Model,
    krate: &str,
    unit_idx: usize,
    p: &Pending,
    stack: &[Ctx],
    body: Option<(usize, usize)>,
) -> Option<usize> {
    let (name, params, ret) = parse_signature(&p.sig)?;
    if let Some(Ctx {
        kind: CtxKind::Trait { name: t },
        ..
    }) = stack.last()
    {
        model
            .trait_methods
            .entry(t.clone())
            .or_default()
            .insert(name.clone());
    }
    let owner = stack.iter().rev().find_map(|ctx| match &ctx.kind {
        CtxKind::Impl { ty } => Some(ty.clone()),
        CtxKind::Trait { name } => Some(name.clone()),
        _ => None,
    });
    let idx = model.fns.len();
    let qualified = match &owner {
        Some(o) => {
            let key = (o.clone(), name.clone());
            model.methods.entry(key).or_default().push(idx);
            let by_name = model.methods_by_name.entry(name.clone()).or_default();
            by_name.push(idx);
            format!("{o}::{name}")
        }
        None => {
            model.free_fns.entry(name.clone()).or_default().push(idx);
            name.clone()
        }
    };
    model.fns.push(FnDef {
        name,
        qualified,
        owner,
        krate: krate.to_string(),
        unit_idx,
        line: p.line,
        body,
        params,
        ret,
    });
    Some(idx)
}

// ---------------------------------------------------------------------------
// Call extraction and resolution
// ---------------------------------------------------------------------------

const WAIT_METHODS: &[&str] = &["wait", "wait_for", "wait_while", "wait_until"];
const RECV_METHODS: &[&str] = &["recv", "recv_timeout"];
const ALLOC_METHODS: &[&str] = &[
    "push",
    "push_back",
    "push_front",
    "insert",
    "extend",
    "extend_from_slice",
    "append",
    "to_vec",
    "resize",
];
const PANIC_METHODS: &[&str] = &["unwrap", "expect"];
const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];
/// Error types whose variants carry backpressure / overload / handler
/// failures: discarding a `Result` with one of these is an `error_drop`.
const RISKY_ERRORS: &[&str] = &[
    "TransportError",
    "GatewayError",
    "SubmitError",
    "HandlerError",
];
/// Methods on the bounded transport that report `Backpressure` even when
/// their receiver type cannot be resolved.
const RISKY_METHOD_FALLBACK: &[&str] = &["try_send"];

/// Method names that are always primitive leaves, never call-graph edges.
fn is_primitive_method(name: &str) -> bool {
    name == "lock"
        || WAIT_METHODS.contains(&name)
        || RECV_METHODS.contains(&name)
        || ALLOC_METHODS.contains(&name)
        || PANIC_METHODS.contains(&name)
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) enum OffenseKind {
    /// Acquiring the named ranked lock.
    Lock {
        name: String,
        rank: usize,
    },
    CondvarWait,
    BlockingRecv,
    Sleep,
    Syscall {
        what: String,
    },
    Alloc {
        method: String,
    },
    Panic {
        what: String,
    },
    Indexing,
    /// Discarding a risky `Result` (callee, error type).
    DropResult {
        callee: String,
        error: String,
    },
}

impl OffenseKind {
    /// Line-stable token for baseline keys.
    fn token(&self) -> String {
        match self {
            OffenseKind::Lock { name, .. } => format!("lock:{name}"),
            OffenseKind::CondvarWait => "wait".to_string(),
            OffenseKind::BlockingRecv => "recv".to_string(),
            OffenseKind::Sleep => "sleep".to_string(),
            OffenseKind::Syscall { what } => format!("syscall:{what}"),
            OffenseKind::Alloc { method } => format!(".{method}("),
            OffenseKind::Panic { what } => what.clone(),
            OffenseKind::Indexing => "index".to_string(),
            OffenseKind::DropResult { .. } => "let _ =".to_string(),
        }
    }

    /// The rule and message this offense earns on a path from an entry of
    /// `class`; `None` when the class may do it (a lock at/inside its floor).
    fn verdict(&self, class: &str, hierarchy: &[&str]) -> Option<(&'static str, String)> {
        Some(match self {
            OffenseKind::Lock { name, rank } => {
                let floor = ENTRY_CLASSES
                    .iter()
                    .find(|(c, _)| *c == class)
                    .and_then(|(_, lock)| hierarchy.iter().position(|h| h == lock))
                    .unwrap_or(0);
                if *rank >= floor {
                    return None;
                }
                (
                    "hot_blocking",
                    format!(
                        "lock `{name}` (rank {rank}) acquired on hot path `{class}`: paths \
                         from this entry may only take locks ranked ≥ {floor} (`{}`) — move \
                         the acquisition off the hot path or justify with \
                         `// bf-flow: allow(hot_blocking): ...`",
                        hierarchy.get(floor).copied().unwrap_or("?"),
                    ),
                )
            }
            OffenseKind::CondvarWait => (
                "hot_blocking",
                format!(
                    "condvar wait reachable from hot entry `{class}`: the only sanctioned \
                     park point is the poller's notify hub — justify a designed park with \
                     `// bf-flow: allow(hot_blocking): ...`"
                ),
            ),
            OffenseKind::BlockingRecv => (
                "hot_blocking",
                format!(
                    "blocking recv reachable from hot entry `{class}`: use try_recv + \
                     poller readiness instead"
                ),
            ),
            OffenseKind::Sleep => (
                "hot_blocking",
                format!(
                    "thread sleep reachable from hot entry `{class}`: hot loops park on \
                     the poller, never on the scheduler clock"
                ),
            ),
            OffenseKind::Syscall { what } => (
                "hot_blocking",
                format!(
                    "syscall `{what}` reachable from hot entry `{class}`: I/O belongs off \
                     the event loop"
                ),
            ),
            OffenseKind::Alloc { method } => (
                "hot_alloc",
                format!(
                    "unbounded `.{method}(..)` on hot path `{class}`: pre-size with \
                     `with_capacity`, enforce an explicit cap, or state the bound with \
                     `// bf-flow: allow(hot_alloc): <bound>`"
                ),
            ),
            OffenseKind::Panic { what } => (
                "hot_panic",
                format!(
                    "{what} reachable from hot entry `{class}`: a panic here takes down \
                     the shared event loop — return a typed error instead"
                ),
            ),
            OffenseKind::Indexing => (
                "hot_panic",
                format!(
                    "indexing without `get` reachable from hot entry `{class}`: an \
                     out-of-range index panics the shared event loop — use `.get(..)` or \
                     justify the invariant with `// bf-flow: allow(hot_panic): ...`"
                ),
            ),
            OffenseKind::DropResult { callee, error } => (
                "error_drop",
                format!(
                    "discarded Result from `{callee}` (error type `{error}`) on hot path \
                     `{class}`: backpressure and overload must be handled or propagated, \
                     never silently dropped"
                ),
            ),
        })
    }
}

#[derive(Debug, Clone)]
pub(crate) struct Offense {
    pub(crate) kind: OffenseKind,
    pub(crate) line: usize,
    pub(crate) column: usize,
}

#[derive(Debug)]
pub(crate) struct CallSite {
    pub(crate) name: String,
    /// Receiver chain for method calls (`self.shared.board.program(..)` →
    /// `["self", "shared", "board"]`); empty when unknown.
    pub(crate) chain: Vec<String>,
    /// Path segments for `a::B::call(..)` forms (without the call name).
    pub(crate) path: Vec<String>,
    pub(crate) kind: CallKind,
    pub(crate) line: usize,
    pub(crate) column: usize,
    /// Whether the result is discarded via `let _ =` or a terminal `.ok()`.
    pub(crate) discarded: bool,
    /// Resolved target functions (indices into [`Model::fns`]).
    pub(crate) targets: Vec<usize>,
    /// The primitive offense this call is, if any.
    pub(crate) offense: Option<OffenseKind>,
}

#[derive(Debug, PartialEq)]
pub(crate) enum CallKind {
    Method,
    Path,
    Free,
}

/// Per-function facts extracted in one pass over the body.
#[derive(Default)]
pub(crate) struct FnFacts {
    pub(crate) calls: Vec<CallSite>,
    /// Offenses visible without resolution (tracked locks, indexing,
    /// panic macros), in line order.
    pub(crate) offenses: Vec<Offense>,
    /// `let`-bound locals with inferable types.
    pub(crate) locals: HashMap<String, String>,
    /// Locals bound from `with_capacity(..)`: pushes into them are
    /// pre-sized, not unbounded growth.
    pub(crate) bounded_locals: HashSet<String>,
    /// Distinct resolved callees other than the function itself, in call
    /// order.
    pub(crate) callees: Vec<usize>,
}

fn receiver_chain(code: &str, mut end: usize) -> Vec<String> {
    // `end` points at the `.` before the method name; walk segments back.
    let mut chain = Vec::new();
    let bytes = code.as_bytes();
    loop {
        let Some(ident) = ident_before(code, end) else {
            return Vec::new(); // `)`/`]`/`?` receiver: unknown root
        };
        chain.push(ident.to_string());
        let start = end - ident.len();
        if start > 0 && bytes[start - 1] == b'.' {
            end = start - 1;
        } else {
            chain.reverse();
            return chain;
        }
    }
}

fn path_segments(code: &str, mut end: usize) -> Vec<String> {
    let mut segs = Vec::new();
    let bytes = code.as_bytes();
    while let Some(ident) = ident_before(code, end) {
        segs.push(ident.to_string());
        let start = end - ident.len();
        if start >= 2 && bytes[start - 1] == b':' && bytes[start - 2] == b':' {
            end = start - 2;
        } else {
            break;
        }
    }
    segs.reverse();
    segs
}

fn extract_fn_facts(unit: &Unit, def: &FnDef) -> FnFacts {
    let mut facts = FnFacts::default();
    let Some((start, end)) = def.body else {
        return facts;
    };
    for lineno in start..=end.min(unit.file.lines.len()) {
        let line = &unit.file.lines[lineno - 1];
        if line.in_test {
            continue;
        }
        let code = &line.code;
        let trimmed = code.trim_start();
        let discarded = trimmed.starts_with("let _ =") || code.trim_end().ends_with(".ok();");

        // Local type bindings and pre-sized containers.
        if let Some(rest) = trimmed.strip_prefix("let ") {
            let rest = rest.strip_prefix("mut ").unwrap_or(rest);
            let name: String = rest
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if !name.is_empty() {
                let after = rest[name.len()..].trim_start();
                if let Some(ty_text) = after.strip_prefix(':') {
                    let stop = ty_text.find('=').unwrap_or(ty_text.len());
                    if let Some(ty) = base_type(&ty_text[..stop]) {
                        facts.locals.insert(name.clone(), ty);
                    }
                } else if let Some(rhs) = after.strip_prefix('=') {
                    // `let x = Type::...` — the first uppercase path
                    // segment is the binding's type.
                    let rhs = rhs.trim_start();
                    if let Some(sep) = rhs.find("::") {
                        let seg = &rhs[..sep];
                        if seg.chars().next().is_some_and(char::is_uppercase)
                            && seg.chars().all(|c| c.is_alphanumeric() || c == '_')
                        {
                            facts.locals.insert(name.clone(), seg.to_string());
                        }
                    }
                }
                if code.contains("with_capacity(") {
                    facts.bounded_locals.insert(name.clone());
                }
            }
        }

        // An explicit `x.reserve(n)` bounds later pushes into `x` the same
        // way a `with_capacity` binding does.
        for pos in find_all(code, ".reserve(") {
            if let Some(recv) = ident_before(code, pos) {
                facts.bounded_locals.insert(recv.to_string());
            }
        }

        // Ranked acquisitions: `tracked(..)` calls are offenses here; a
        // `.lock()` receiver becomes its call site's offense below.
        let locks: Vec<(OffenseKind, usize)> = lock_acquisitions(line, crate::LOCK_HIERARCHY)
            .into_iter()
            .filter_map(|(name, pos)| {
                let rank = crate::LOCK_HIERARCHY.iter().position(|&h| h == name)?;
                let name = name.to_string();
                Some((OffenseKind::Lock { name, rank }, pos))
            })
            .collect();
        for (kind, pos) in &locks {
            if code.as_bytes()[*pos] != b'.' {
                facts.offenses.push(Offense {
                    kind: kind.clone(),
                    line: lineno,
                    column: pos + 1,
                });
            }
        }

        // Indexing without `get` can panic (slicing included).
        for i in index_sites(code) {
            facts.offenses.push(Offense {
                kind: OffenseKind::Indexing,
                line: lineno,
                column: i + 1,
            });
        }

        // Call sites: every `ident(` with its receiver/path context, and
        // every `Type::method` passed as a value (followed by `,` or `)`),
        // since whoever receives it calls it.
        let values = find_all(code, ",").into_iter().chain(find_all(code, ")"));
        let opens = find_all(code, "(").into_iter().map(|pos| (pos, false));
        for (pos, value) in opens.chain(values.map(|pos| (pos, true))) {
            // Macro invocations: the `!` sits between the name and `(`.
            if !value && pos >= 1 && code.as_bytes()[pos - 1] == b'!' {
                if let Some(name) = ident_before(code, pos - 1) {
                    if PANIC_MACROS.contains(&name) {
                        facts.offenses.push(Offense {
                            kind: OffenseKind::Panic {
                                what: format!("{name}!"),
                            },
                            line: lineno,
                            column: pos - name.len(),
                        });
                    }
                }
                continue;
            }
            let Some(name) = ident_before(code, pos) else {
                continue;
            };
            if is_keyword(name) {
                continue;
            }
            let start_pos = pos - name.len();
            let before = &code[..start_pos];
            if before.trim_end().ends_with("fn") {
                continue; // the function's own definition
            }
            let (kind, chain, path) = match before.bytes().last() {
                Some(b'.') => (
                    CallKind::Method,
                    receiver_chain(code, start_pos - 1),
                    vec![],
                ),
                Some(b':') if start_pos >= 2 && code.as_bytes()[start_pos - 2] == b':' => {
                    (CallKind::Path, vec![], path_segments(code, start_pos - 2))
                }
                _ if name.chars().next().is_some_and(char::is_lowercase) => {
                    (CallKind::Free, vec![], vec![])
                }
                _ => continue,
            };
            let is_type = |seg: &String| seg.starts_with(char::is_uppercase);
            if value
                && !(kind == CallKind::Path
                    && name.starts_with(char::is_lowercase)
                    && path.last().is_some_and(is_type))
            {
                continue;
            }
            // Like every receiver, a lock's is only known with its chain.
            let offense = match kind {
                CallKind::Method if name == "lock" && !chain.is_empty() => locks
                    .iter()
                    .find(|(_, dot)| dot + 1 == start_pos)
                    .map(|(kind, _)| kind.clone()),
                _ => None,
            };
            facts.calls.push(CallSite {
                name: name.to_string(),
                chain,
                path,
                kind,
                line: lineno,
                column: start_pos + 1,
                discarded: discarded && !value,
                targets: Vec::new(),
                offense,
            });
        }
    }
    facts
}

impl Model {
    /// Resolves a receiver chain to a type name, if the heuristics can.
    fn chain_type(&self, def: &FnDef, facts: &FnFacts, chain: &[String]) -> Option<String> {
        let root = chain.first()?;
        let mut ty = if root == "self" {
            def.owner.clone()?
        } else if let Some((_, t)) = def.params.iter().find(|(n, _)| n == root) {
            t.clone()
        } else if let Some(t) = facts.locals.get(root) {
            t.clone()
        } else {
            // Receiver-name heuristic: `session` → `Session`, `board` →
            // `Board` — accepted only when the match is unique.
            let lowered = root.trim_matches('_').to_lowercase();
            let mut matches = self
                .type_names
                .iter()
                .filter(|t| t.to_lowercase() == lowered);
            let first = matches.next()?.clone();
            if matches.next().is_some() {
                return None;
            }
            first
        };
        for seg in &chain[1..] {
            ty = self.field_type(&def.krate, &ty, seg)?;
        }
        Some(ty)
    }

    fn field_type(&self, krate: &str, ty: &str, field: &str) -> Option<String> {
        let entries = self.fields.get(ty)?;
        entries
            .iter()
            .find(|(k, _)| k == krate)
            .or_else(|| entries.first())
            .and_then(|(_, map)| map.get(field))
            .cloned()
    }

    /// Picks the best definition among candidates: same crate first; an
    /// ambiguous pick drops the edge (documented).
    fn pick(&self, krate: &str, candidates: Option<&Vec<usize>>) -> Vec<usize> {
        match candidates.map(Vec::as_slice).unwrap_or_default() {
            [] => Vec::new(),
            [one] => vec![*one],
            many => {
                let mut same = many.iter().filter(|&&i| self.fns[i].krate == krate);
                match (same.next(), same.next()) {
                    (Some(&one), None) => vec![one],
                    _ => Vec::new(),
                }
            }
        }
    }

    /// Resolves a type's method, fanning out across trait impls.
    fn resolve_on_type(&self, krate: &str, ty: &str, method: &str) -> Vec<usize> {
        let on = |t: &str| self.methods.get(&(t.to_string(), method.to_string()));
        if self.traits.contains(ty) {
            // May-call over-approximation: a call through the trait can
            // land in any impl, plus a default-bodied trait method.
            let mut out: Vec<usize> = self
                .impls_of
                .get(ty)
                .into_iter()
                .flatten()
                .filter_map(|impl_ty| on(impl_ty))
                .flatten()
                .copied()
                .collect();
            out.extend(
                on(ty)
                    .into_iter()
                    .flatten()
                    .filter(|&&i| self.fns[i].body.is_some()),
            );
            out.sort_unstable();
            out.dedup();
            return out;
        }
        match on(ty) {
            Some(c) => match self.pick(krate, Some(c)).as_slice() {
                [] => c.clone(),
                picked => picked.to_vec(),
            },
            None => Vec::new(),
        }
    }

    /// Resolves one call site to zero or more target functions, or to a
    /// primitive offense.
    fn resolve(
        &self,
        def: &FnDef,
        facts: &FnFacts,
        call: &CallSite,
    ) -> (Vec<usize>, Option<OffenseKind>) {
        match call.kind {
            CallKind::Method => {
                let m = call.name.as_str();
                // Primitive leaves: classified at the call site, where the
                // receiver (lock name, container) is visible.
                if is_primitive_method(m) {
                    return (Vec::new(), primitive_offense(facts, call));
                }
                let ty = self.chain_type(def, facts, &call.chain);
                if let Some(ty) = &ty {
                    let targets = self.resolve_on_type(&def.krate, ty, m);
                    // A known workspace type without this method would be a
                    // compile error — the receiver is external (std, Bytes,
                    // iterators): no edge, nothing to flag.
                    if !targets.is_empty() || self.type_names.contains(ty) {
                        return (targets, None);
                    }
                }
                // Unknown receiver: trait-surface fan-out, then the
                // unique-method-name fallback.
                for (t, methods) in &self.trait_methods {
                    if methods.contains(m) {
                        let targets = self.resolve_on_type(&def.krate, t, m);
                        if !targets.is_empty() {
                            return (targets, None);
                        }
                    }
                }
                (self.pick(&def.krate, self.methods_by_name.get(m)), None)
            }
            CallKind::Path => {
                let joined = call.path.join("::");
                if joined.ends_with("thread") && call.name == "sleep" {
                    return (Vec::new(), Some(OffenseKind::Sleep));
                }
                if (joined.contains("fs") && !joined.contains("fsm"))
                    || call.path.last().is_some_and(|s| s == "File")
                    || joined.contains("net")
                    || joined.contains("process")
                {
                    let what = format!("{joined}::{}", call.name);
                    return (Vec::new(), Some(OffenseKind::Syscall { what }));
                }
                let ty = match call.path.last().map(String::as_str) {
                    Some("Self") => def.owner.clone(),
                    Some(seg) if seg.chars().next().is_some_and(char::is_uppercase) => {
                        Some(seg.to_string())
                    }
                    _ => None,
                };
                match ty {
                    Some(ty) if self.type_names.contains(&ty) => {
                        (self.resolve_on_type(&def.krate, &ty, &call.name), None)
                    }
                    Some(_) => (Vec::new(), None), // external type (Vec, Bytes…)
                    // `module::free_fn(..)`.
                    None => (self.pick(&def.krate, self.free_fns.get(&call.name)), None),
                }
            }
            CallKind::Free if call.name == "sleep" => (Vec::new(), Some(OffenseKind::Sleep)),
            CallKind::Free => (self.pick(&def.krate, self.free_fns.get(&call.name)), None),
        }
    }
}

/// The offense a primitive method call is (`.lock()` carries its own, read
/// with the line's lock acquisitions).
fn primitive_offense(facts: &FnFacts, call: &CallSite) -> Option<OffenseKind> {
    let m = call.name.as_str();
    if WAIT_METHODS.contains(&m) {
        return Some(OffenseKind::CondvarWait);
    }
    if RECV_METHODS.contains(&m) {
        return Some(OffenseKind::BlockingRecv);
    }
    if ALLOC_METHODS.contains(&m) {
        if call.chain.len() == 1 && facts.bounded_locals.contains(&call.chain[0]) {
            return None; // pre-sized with with_capacity in this fn
        }
        return Some(OffenseKind::Alloc {
            method: m.to_string(),
        });
    }
    if PANIC_METHODS.contains(&m) {
        return Some(OffenseKind::Panic {
            what: format!(".{m}()"),
        });
    }
    None
}

// ---------------------------------------------------------------------------
// Entry annotations and the reachability passes
// ---------------------------------------------------------------------------

/// Binds every `bf-flow: entry(<class>)` annotation to its function,
/// reporting malformed, unknown-class and dangling ones.
fn bind_entries(
    units: &[Unit],
    model: &Model,
    out: &mut Vec<Diagnostic>,
) -> Vec<(EntryPoint, usize)> {
    let mut entries = Vec::new();
    for (unit_idx, unit) in units.iter().enumerate() {
        let path = &unit.file.path;
        if EXCLUDED_PREFIXES.iter().any(|p| path.starts_with(p)) {
            continue; // tooling hosts no hot paths — and its docs quote the syntax
        }
        for anchor in &unit.dirs.entries {
            let mut directive = |message: String| {
                out.push(
                    Diagnostic::new("directive", path, anchor.line, message)
                        .at_column(anchor.column),
                );
            };
            let Some(class) = anchor.arg.clone() else {
                directive("malformed bf-flow entry annotation: missing `)`".to_string());
                continue;
            };
            if !ENTRY_CLASSES.iter().any(|(c, _)| *c == class) {
                let known: Vec<&str> = ENTRY_CLASSES.iter().map(|(c, _)| *c).collect();
                directive(format!(
                    "unknown bf-flow entry class {class:?}; known classes: {known:?}"
                ));
                continue;
            }
            match model.fn_after(unit_idx, anchor.line) {
                Some(fn_idx) => {
                    let f = &model.fns[fn_idx];
                    let function = f.qualified.clone();
                    let (file, line) = (path.clone(), f.line);
                    entries.push((
                        EntryPoint {
                            class,
                            function,
                            file,
                            line,
                        },
                        fn_idx,
                    ));
                }
                None => directive(format!(
                    "bf-flow entry({class}) does not resolve to a function: \
                     the annotation must immediately precede a `fn` definition"
                )),
            }
        }
    }
    entries
}

/// Breadth-first reachability from `start`, returning parent links for
/// witness reconstruction.
fn reachable_from(start: usize, model: &Model) -> HashMap<usize, usize> {
    let mut parent = HashMap::from([(start, start)]);
    let mut queue = VecDeque::from([start]);
    while let Some(node) = queue.pop_front() {
        for &next in &model.facts[node].callees {
            if let std::collections::hash_map::Entry::Vacant(e) = parent.entry(next) {
                e.insert(node);
                queue.push_back(next);
            }
        }
    }
    parent
}

/// Every offense of one function, in report order: those visible in the
/// body, then each call's own offense and discarded risky `Result`.
fn offenses_of(model: &Model, idx: usize) -> Vec<Offense> {
    let facts = &model.facts[idx];
    let mut out = facts.offenses.clone();
    for call in &facts.calls {
        let at = |kind| Offense {
            kind,
            line: call.line,
            column: call.column,
        };
        out.extend(call.offense.clone().map(at));
        // Discarded risky Results: signature-resolved error types, with a
        // textual fallback for the bounded-transport methods.
        if call.discarded {
            let risky = call
                .targets
                .iter()
                .find_map(|&t| {
                    let f = &model.fns[t];
                    let error = RISKY_ERRORS.iter().find(|e| f.ret.contains(*e))?;
                    Some((f.qualified.clone(), error.to_string()))
                })
                .or_else(|| {
                    RISKY_METHOD_FALLBACK
                        .contains(&call.name.as_str())
                        .then(|| (call.name.clone(), "TransportError".to_string()))
                });
            if let Some((callee, error)) = risky {
                out.push(at(OffenseKind::DropResult { callee, error }));
            }
        }
    }
    out
}

/// Runs the bf-flow analysis over the workspace's shared model: binds
/// entry annotations and evaluates the four passes on every function
/// reachable from an entry. Returns the resolved entry points.
pub fn check(
    units: &[Unit],
    model: &Model,
    hierarchy: &[&str],
    out: &mut Vec<Diagnostic>,
) -> Vec<EntryPoint> {
    let entries = bind_entries(units, model, out);
    // Reachability per entry, in annotation order (deterministic: units
    // are path-sorted).
    let reach: Vec<HashMap<usize, usize>> = entries
        .iter()
        .map(|&(_, fn_idx)| reachable_from(fn_idx, model))
        .collect();

    // Evaluate offenses, deduplicated by site, in function order.
    let mut seen: HashSet<(&str, String, usize, String)> = HashSet::new();
    let mut fn_order: Vec<usize> = (0..model.fns.len()).collect();
    fn_order.sort_by_key(|&i| (model.fns[i].unit_idx, model.fns[i].line));
    for fn_idx in fn_order {
        let def = &model.fns[fn_idx];
        let unit = &units[def.unit_idx];
        let path = &unit.file.path;
        for offense in offenses_of(model, fn_idx) {
            // Which entry convicts this offense (first in annotation order)?
            let conviction = entries
                .iter()
                .enumerate()
                .filter(|(e, _)| reach[*e].contains_key(&fn_idx))
                .find_map(|(e, (entry, _))| {
                    Some((e, offense.kind.verdict(&entry.class, hierarchy)?))
                });
            let Some((entry_idx, (rule, message))) = conviction else {
                continue;
            };
            // Allow directives: bf-flow always; the per-file `panic`
            // exemptions keep covering unwrap/expect on these paths (the
            // justification already argues the panic is impossible).
            let panic_equivalent = matches!(
                &offense.kind,
                OffenseKind::Panic { what } if what.starts_with('.')
            );
            if unit.permits(offense.line, rule)
                || (panic_equivalent && unit.permits(offense.line, "panic"))
            {
                continue;
            }
            let token = offense.kind.token();
            if !seen.insert((rule, path.clone(), offense.line, token.clone())) {
                continue;
            }
            // Witness: entry → … → this function, then the offending call.
            let parents = &reach[entry_idx];
            let (mut chain, mut node) = (vec![fn_idx], fn_idx);
            while parents[&node] != node {
                node = parents[&node];
                chain.push(node);
            }
            let mut witness: Vec<Hop> = chain
                .into_iter()
                .rev()
                .map(|i| {
                    let f = &model.fns[i];
                    let file = units[f.unit_idx].file.path.clone();
                    Hop {
                        function: f.qualified.clone(),
                        file,
                        line: f.line,
                    }
                })
                .collect();
            witness.push(Hop {
                function: format!("{} [{token}]", def.qualified),
                file: path.clone(),
                line: offense.line,
            });
            let mut diag =
                Diagnostic::new(rule, path, offense.line, message).at_column(offense.column);
            diag.witness = witness;
            diag.key = format!("{rule}|{path}|{}|{token}", def.qualified);
            out.push(diag);
        }
    }

    entries.into_iter().map(|(e, _)| e).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::parse;

    fn units_of(sources: &[(&str, &str)]) -> Vec<Unit> {
        sources
            .iter()
            .map(|(path, src)| Unit::analyze(parse(path, src, false), &mut Vec::new()))
            .collect()
    }

    fn flow_check(sources: &[(&str, &str)]) -> (Vec<Diagnostic>, Vec<EntryPoint>) {
        let units = units_of(sources);
        let mut out = Vec::new();
        let entries = check(
            &units,
            &build_model(&units),
            crate::LOCK_HIERARCHY,
            &mut out,
        );
        (out, entries)
    }

    /// Qualified names of every function the model extracted.
    fn functions(units: &[Unit]) -> Vec<String> {
        let model = build_model(units);
        model.fns.iter().map(|f| f.qualified.clone()).collect()
    }

    /// The resolved call graph as sorted, distinct `caller -> callee` lines.
    fn call_graph(units: &[Unit]) -> Vec<String> {
        let model = build_model(units);
        let mut edges: Vec<String> = model
            .fns
            .iter()
            .zip(&model.facts)
            .flat_map(|(def, facts)| {
                facts
                    .calls
                    .iter()
                    .flat_map(|c| &c.targets)
                    .map(move |&t| (def, t))
            })
            .filter(|(def, t)| model.fns[*t].qualified != def.qualified)
            .map(|(def, t)| format!("{} -> {}", def.qualified, model.fns[t].qualified))
            .collect();
        edges.sort();
        edges.dedup();
        edges
    }

    // -- call graph golden test over a small multi-crate fixture --

    #[test]
    fn call_graph_golden_multi_crate_fixture() {
        let rpc = "pub struct Hub { gen: u64 }\n\
                   impl Hub {\n\
                       pub fn bump(&self) { self.note(); }\n\
                       fn note(&self) {}\n\
                   }\n\
                   pub fn free_helper() {}\n";
        let devmgr = "use bf_rpc::Hub;\n\
                      pub trait Handler {\n\
                          fn handle(&self);\n\
                      }\n\
                      pub struct Loop { hub: Hub }\n\
                      impl Loop {\n\
                          pub fn run(&self, h: &dyn Handler) {\n\
                              self.hub.bump();\n\
                              h.handle();\n\
                              free_helper();\n\
                          }\n\
                      }\n\
                      pub struct Echo;\n\
                      impl Handler for Echo {\n\
                          fn handle(&self) { helper_local(); }\n\
                      }\n\
                      fn helper_local() {}\n";
        let units = units_of(&[
            ("crates/rpc/src/lib.rs", rpc),
            ("crates/devmgr/src/lib.rs", devmgr),
        ]);
        let rendered = call_graph(&units);
        assert_eq!(
            rendered,
            vec![
                "Echo::handle -> helper_local",
                "Hub::bump -> Hub::note",
                "Loop::run -> Echo::handle", // trait fan-out: may-call edge
                "Loop::run -> Hub::bump",    // field-type receiver resolution
                "Loop::run -> free_helper",  // cross-crate free fn
            ],
            "golden call graph drifted: {rendered:#?}"
        );
    }

    // -- hot_blocking --

    #[test]
    fn hot_blocking_flags_a_cross_file_lock_with_a_witness_chain() {
        // The reactor (floor: `pending`, rank 7) reaches a `functions`
        // (rank 0) lock two calls deep, across files.
        let reactor = "pub struct Reactor { helper: Helper }\n\
                       impl Reactor {\n\
                           // bf-flow: entry(remote_reactor)\n\
                           pub fn reactor_thread(&self) {\n\
                               self.helper.step();\n\
                           }\n\
                       }\n";
        let helper = "pub struct Helper { registry: Registry }\n\
                      impl Helper {\n\
                          pub fn step(&self) { self.registry.update(); }\n\
                      }\n\
                      pub struct Registry { functions: Mutex<u32> }\n\
                      impl Registry {\n\
                          pub fn update(&self) {\n\
                              let g = self.functions.lock();\n\
                          }\n\
                      }\n";
        let (out, entries) = flow_check(&[
            ("crates/remote/src/reactor.rs", reactor),
            ("crates/remote/src/helper.rs", helper),
        ]);
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].class, "remote_reactor");
        assert_eq!(entries[0].function, "Reactor::reactor_thread");
        let hits: Vec<_> = out.iter().filter(|d| d.rule == "hot_blocking").collect();
        assert_eq!(hits.len(), 1, "{out:#?}");
        let d = hits[0];
        assert_eq!(d.file, "crates/remote/src/helper.rs");
        assert!(d.message.contains("`functions`"), "{}", d.message);
        // entry → step → update → the lock: a multi-hop witness.
        assert!(d.witness.len() >= 4, "{:#?}", d.witness);
        assert_eq!(d.witness[0].function, "Reactor::reactor_thread");
        assert_eq!(d.witness[1].function, "Helper::step");
        assert_eq!(d.witness[2].function, "Registry::update");
    }

    #[test]
    fn hot_blocking_respects_the_rank_floor_and_allows() {
        // `queue` is at/inside the poller floor: clean.
        let ok = "pub struct P { queue: Mutex<u32> }\n\
                  impl P {\n\
                      // bf-flow: entry(poller)\n\
                      pub fn poll(&self) { let g = self.queue.lock(); }\n\
                  }\n";
        let (out, _) = flow_check(&[("crates/rpc/src/poller.rs", ok)]);
        assert!(out.iter().all(|d| d.rule != "hot_blocking"), "{out:#?}");
        // A condvar wait on the hot path fires — unless justified.
        let wait = "pub struct P { cv: Condvar }\n\
                    impl P {\n\
                        // bf-flow: entry(poller)\n\
                        pub fn poll(&self) { self.cv.wait(1); }\n\
                    }\n";
        let (out, _) = flow_check(&[("crates/rpc/src/poller.rs", wait)]);
        assert_eq!(
            out.iter().filter(|d| d.rule == "hot_blocking").count(),
            1,
            "{out:#?}"
        );
        let allowed = "pub struct P { cv: Condvar }\n\
                       impl P {\n\
                           // bf-flow: entry(poller)\n\
                           pub fn poll(&self) {\n\
                               // bf-flow: allow(hot_blocking): designated park point\n\
                               self.cv.wait(1);\n\
                           }\n\
                       }\n";
        let (out, _) = flow_check(&[("crates/rpc/src/poller.rs", allowed)]);
        assert!(out.is_empty(), "{out:#?}");
    }

    #[test]
    fn hot_blocking_flags_sleep_blocking_recv_and_file_io() {
        let src = "pub struct P { rx: Receiver<u32> }\n\
                   impl P {\n\
                       // bf-flow: entry(poller)\n\
                       pub fn poll(&self) {\n\
                           std::thread::sleep(d);\n\
                           let v = self.rx.recv();\n\
                           let t = std::fs::read_to_string(p);\n\
                       }\n\
                   }\n";
        let (out, _) = flow_check(&[("crates/rpc/src/poller.rs", src)]);
        let keys: Vec<&str> = out
            .iter()
            .filter(|d| d.rule == "hot_blocking")
            .map(|d| d.key.as_str())
            .collect();
        assert_eq!(
            keys,
            vec![
                "hot_blocking|crates/rpc/src/poller.rs|P::poll|sleep",
                "hot_blocking|crates/rpc/src/poller.rs|P::poll|recv",
                "hot_blocking|crates/rpc/src/poller.rs|P::poll|syscall:std::fs::read_to_string",
            ],
            "{out:#?}"
        );
    }

    // -- hot_alloc --

    #[test]
    fn hot_alloc_flags_unbounded_growth_but_not_presized_buffers() {
        let src = "pub struct L { q: Vec<u32> }\n\
                   impl L {\n\
                       // bf-flow: entry(devmgr_events)\n\
                       pub fn run_event_loop(&mut self) {\n\
                           self.collect_dead();\n\
                       }\n\
                       fn collect_dead(&mut self) {\n\
                           let mut dead = Vec::new();\n\
                           dead.push(1);\n\
                           let mut sized = Vec::with_capacity(4);\n\
                           sized.push(1);\n\
                       }\n\
                   }\n";
        let (out, _) = flow_check(&[("crates/devmgr/src/event_loop.rs", src)]);
        let hits: Vec<_> = out.iter().filter(|d| d.rule == "hot_alloc").collect();
        assert_eq!(hits.len(), 1, "{out:#?}");
        assert_eq!(hits[0].line, 9, "only the unsized push fires");
        assert!(hits[0].witness.len() >= 2, "cross-function witness");
        // A justified bound silences the site. (`\n\` continuations strip
        // leading whitespace, so the fixture lines have no indentation.)
        let allowed = src.replace(
            "dead.push(1);\n",
            "// bf-flow: allow(hot_alloc): bounded by registered sessions\n\
             dead.push(1);\n",
        );
        assert_ne!(allowed, src, "replacement must take effect");
        let (out, _) = flow_check(&[("crates/devmgr/src/event_loop.rs", &allowed)]);
        assert!(out.iter().all(|d| d.rule != "hot_alloc"), "{out:#?}");
    }

    #[test]
    fn functions_unreachable_from_entries_are_not_flagged() {
        let src = "pub struct L;\n\
                   impl L {\n\
                       // bf-flow: entry(devmgr_events)\n\
                       pub fn run_event_loop(&self) {}\n\
                       pub fn cold_admin(&self, v: &mut Vec<u32>) { v.push(1); }\n\
                   }\n";
        let (out, _) = flow_check(&[("crates/devmgr/src/event_loop.rs", src)]);
        assert!(out.is_empty(), "{out:#?}");
    }

    // -- hot_panic --

    #[test]
    fn hot_panic_flags_unwrap_indexing_and_macros_interprocedurally() {
        let a = "pub struct S { t: Helper }\n\
                 impl S {\n\
                     // bf-flow: entry(devmgr_events)\n\
                     pub fn run_event_loop(&self) { self.t.deep(3); }\n\
                 }\n";
        let b = "pub struct Helper { names: Vec<String> }\n\
                 impl Helper {\n\
                     pub fn deep(&self, k: usize) {\n\
                         let n = self.names[k].clone();\n\
                         self.decode().unwrap();\n\
                         panic!();\n\
                     }\n\
                     fn decode(&self) -> Option<u32> { None }\n\
                 }\n";
        let (out, _) = flow_check(&[
            ("crates/devmgr/src/event_loop.rs", a),
            ("crates/devmgr/src/helper.rs", b),
        ]);
        let rules: Vec<&str> = out
            .iter()
            .filter(|d| d.rule == "hot_panic")
            .map(|d| d.witness.last().unwrap().function.as_str())
            .collect();
        assert_eq!(
            out.iter().filter(|d| d.rule == "hot_panic").count(),
            3,
            "{out:#?} {rules:?}"
        );
        // Cross-file witnesses all route through the entry.
        for d in out.iter().filter(|d| d.rule == "hot_panic") {
            assert_eq!(d.witness[0].function, "S::run_event_loop", "{d:#?}");
        }
    }

    #[test]
    fn hot_panic_follows_a_method_passed_as_a_value() {
        let src = "pub struct S { m: MetricsRegistry }\n\
                   impl S {\n\
                       // bf-flow: entry(devmgr_events)\n\
                       pub fn run_event_loop(&self) { series(&self.m, MetricsRegistry::counter); }\n\
                   }\n\
                   pub struct MetricsRegistry;\n\
                   impl MetricsRegistry {\n\
                       pub fn counter(&self) -> u64 { panic!(\"another kind\") }\n\
                   }\n";
        let (out, _) = flow_check(&[("crates/devmgr/src/event_loop.rs", src)]);
        let hops: Vec<&str> = out
            .iter()
            .filter(|d| d.rule == "hot_panic")
            .flat_map(|d| &d.witness)
            .map(|h| h.function.as_str())
            .collect();
        let via = [
            "S::run_event_loop",
            "MetricsRegistry::counter",
            "MetricsRegistry::counter [panic!]",
        ];
        assert_eq!(hops, via, "{out:#?}");
    }

    #[test]
    fn hot_panic_honours_existing_panic_allow_directives() {
        let src = "pub struct S;\n\
                   impl S {\n\
                       // bf-flow: entry(devmgr_events)\n\
                       pub fn run_event_loop(&self) {\n\
                           // bf-lint: allow(panic): freshly inserted above\n\
                           self.find().unwrap();\n\
                       }\n\
                       fn find(&self) -> Option<u32> { Some(1) }\n\
                   }\n";
        let (out, _) = flow_check(&[("crates/devmgr/src/event_loop.rs", src)]);
        assert!(out.iter().all(|d| d.rule != "hot_panic"), "{out:#?}");
    }

    // -- error_drop --

    #[test]
    fn error_drop_flags_discarded_backpressure_results() {
        let src = "pub struct Tx;\n\
                   impl Tx {\n\
                       pub fn try_send(&self, v: u32) -> Result<(), TransportError> { Ok(()) }\n\
                   }\n\
                   pub struct Pump { tx: Tx }\n\
                   impl Pump {\n\
                       // bf-flow: entry(batcher)\n\
                       pub fn pump(&self) {\n\
                           let _ = self.tx.try_send(1);\n\
                       }\n\
                       pub fn pump_checked(&self) -> Result<(), TransportError> {\n\
                           self.tx.try_send(2)\n\
                       }\n\
                   }\n";
        let (out, _) = flow_check(&[("crates/serverless/src/gateway.rs", src)]);
        let hits: Vec<_> = out.iter().filter(|d| d.rule == "error_drop").collect();
        assert_eq!(hits.len(), 1, "{out:#?}");
        assert_eq!(hits[0].line, 9, "only the discarded call fires");
        // Justified coalescing is the sanctioned form.
        let allowed = src.replace(
            "let _ = self.tx.try_send(1);\n",
            "// bf-flow: allow(error_drop): wake coalescing, Full is fine\n\
             let _ = self.tx.try_send(1);\n",
        );
        assert_ne!(allowed, src, "replacement must take effect");
        let (out, _) = flow_check(&[("crates/serverless/src/gateway.rs", &allowed)]);
        assert!(out.is_empty(), "{out:#?}");
    }

    // -- entry annotation handling --

    #[test]
    fn unknown_entry_class_reports_the_annotation_site() {
        let src = "// bf-flow: entry(warp_core)\npub fn f() {}\n";
        let (out, entries) = flow_check(&[("crates/rpc/src/lib.rs", src)]);
        assert!(entries.is_empty());
        assert_eq!(out.len(), 1, "{out:#?}");
        assert_eq!(out[0].rule, "directive");
        assert_eq!(out[0].line, 1, "reported at the annotation, not the fn");
        assert!(out[0].message.contains("warp_core"));
    }

    #[test]
    fn dangling_entry_annotation_is_reported() {
        let src = "pub fn f() {}\n// bf-flow: entry(poller)\n";
        let (out, entries) = flow_check(&[("crates/rpc/src/lib.rs", src)]);
        assert!(entries.is_empty());
        assert_eq!(out.len(), 1, "{out:#?}");
        assert!(out[0].message.contains("does not resolve"), "{out:#?}");
    }

    #[test]
    fn entry_annotation_binds_only_within_eight_lines() {
        let gap = |n: usize| {
            format!(
                "// bf-flow: entry(poller)\n{}pub fn poll() {{}}\n",
                "// note\n".repeat(n)
            )
        };
        let (out, entries) = flow_check(&[("crates/rpc/src/lib.rs", &gap(7))]);
        assert_eq!(entries.len(), 1, "8 lines below binds: {out:#?}");
        assert_eq!(entries[0].line, 9);
        let (out, entries) = flow_check(&[("crates/rpc/src/lib.rs", &gap(8))]);
        assert!(entries.is_empty(), "9 lines below does not bind");
        assert_eq!(out.len(), 1, "{out:#?}");
        assert!(out[0].message.contains("does not resolve"), "{out:#?}");
    }

    #[test]
    fn array_types_in_signatures_do_not_truncate_the_model() {
        // `[u64; 3]` holds a `;` — the header scanner must not read it as
        // a bodyless-declaration terminator and drop the function.
        let src = "pub struct S { v: u32 }\n\
                   impl S {\n\
                       // bf-flow: entry(devmgr_events)\n\
                       pub fn run_event_loop(&self) { dispatch(&self.v, [0u64; 3]); }\n\
                   }\n\
                   fn dispatch(\n\
                       v: &u32,\n\
                       work: [u64; 3],\n\
                   ) -> u32 {\n\
                       let mut out = Vec::new();\n\
                       out.push(1);\n\
                       work[0] as u32\n\
                   }\n";
        let units = units_of(&[("crates/devmgr/src/event_loop.rs", src)]);
        let fns = functions(&units);
        assert!(fns.contains(&"dispatch".to_string()), "{fns:?}");
        let (out, _) = flow_check(&[("crates/devmgr/src/event_loop.rs", src)]);
        assert_eq!(
            out.iter().filter(|d| d.rule == "hot_alloc").count(),
            1,
            "dispatch is reachable: {out:#?}"
        );
        assert_eq!(
            out.iter().filter(|d| d.rule == "hot_panic").count(),
            1,
            "the work[0] indexing fires: {out:#?}"
        );
    }

    #[test]
    fn entry_classes_all_map_to_hierarchy_locks() {
        for (class, lock) in ENTRY_CLASSES {
            assert!(
                crate::LOCK_HIERARCHY.contains(lock),
                "entry class {class} floor {lock} is not a ranked lock"
            );
        }
    }
}
