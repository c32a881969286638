//! Tier-1 conformance gate: the whole workspace must pass `bf-lint`.
//!
//! This runs the same engine as `cargo run -p bf-lint` in-process, so a
//! plain `cargo test` fails with file:line diagnostics whenever a crate
//! reintroduces a panic site, a lock-order inversion, a wildcard arm on a
//! protocol enum, or an unjustified payload byte copy in a datapath
//! module — plus the interprocedural `bf-flow` passes, gated on the
//! checked-in `lint-baseline.json` exactly as CI gates them. (`std::sync`
//! locks, wall-clock reads and unbounded channels are `clippy.toml` bans,
//! checked by the clippy stages of `ci.sh`.)

use bf_lint::{baseline, check_source, run, ENTRY_CLASSES, FLOW_RULES, LOCK_HIERARCHY, RULES};

/// The workspace root above the test binary's cwd, found the way the
/// `bf-lint` binary finds it.
fn workspace_root() -> std::path::PathBuf {
    let cwd = std::env::current_dir().expect("cwd");
    bf_lint::find_workspace_root(&cwd).expect("no workspace root above the test cwd")
}

#[test]
fn workspace_passes_bf_lint() {
    let root = workspace_root();
    let report = run(&root).expect("bf-lint scan");
    assert!(
        report.files_scanned > 50,
        "scan looks truncated: {} files",
        report.files_scanned
    );
    // Pre-existing accepted findings live in the baseline; only NEW
    // findings fail — the same contract ci.sh enforces.
    let accepted = baseline::load(&root.join("lint-baseline.json")).expect("baseline parses");
    let gated = baseline::gate(&report.diagnostics, &accepted);
    assert!(
        gated.new.is_empty(),
        "bf-lint found {} NEW violation(s):\n{}",
        gated.new.len(),
        gated
            .new
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        gated.stale.is_empty(),
        "stale baseline entries (refresh with --write-baseline): {:?}",
        gated.stale
    );
}

/// Every hot-path entry annotation in the tree must bind to a real
/// function the flow analysis resolved — a dangling annotation would
/// silently un-protect that entire subsystem.
#[test]
fn every_flow_entry_annotation_resolves() {
    let report = run(&workspace_root()).expect("bf-lint scan");
    let classes: Vec<&str> = report.entries.iter().map(|e| e.class.as_str()).collect();
    for (class, _) in ENTRY_CLASSES {
        assert!(
            classes.contains(class),
            "entry class {class:?} has no resolved root; got {classes:?}"
        );
    }
    assert!(
        report.entries.len() >= 6,
        "expected the six production entry roots, got {:?}",
        report.entries
    );
    for entry in &report.entries {
        assert!(
            ENTRY_CLASSES.iter().any(|(c, _)| *c == entry.class),
            "resolved entry with unknown class: {entry:?}"
        );
        assert!(entry.line > 0 && !entry.function.is_empty());
    }
}

/// Fixture battery for the `payload_copy` rule: copies on the zero-copy
/// datapath must be deliberate, counted, and justified.
#[test]
fn payload_copy_rule_fires_in_datapath_modules() {
    assert!(RULES.contains(&"payload_copy"));
    let fixture = "pub fn stage(payload: &Payload) -> Vec<u8> {\n    \
                   payload.to_vec()\n}\n";
    let out = check_source("crates/rpc/src/codec.rs", fixture);
    assert_eq!(out.len(), 1, "{out:?}");
    assert_eq!(out[0].rule, "payload_copy");
    assert_eq!(out[0].line, 2);
    // Clones of payload-named values fire too — a hidden deep copy before
    // the buffers became refcounted.
    let clone = "pub fn enqueue(data: &DataRef) {\n    push(data.clone());\n}\n";
    let out = check_source("crates/devmgr/src/session.rs", clone);
    assert_eq!(out.len(), 1, "{out:?}");
    assert_eq!(out[0].rule, "payload_copy");
}

#[test]
fn payload_copy_rule_scopes_and_allowlist() {
    // The same code outside the datapath module list is untouched.
    let fixture = "pub fn stage(payload: &Payload) -> Vec<u8> {\n    \
                   payload.to_vec()\n}\n";
    assert!(check_source("crates/x/src/lib.rs", fixture).is_empty());
    // A justified directive exempts a deliberate, counted copy.
    let justified = "pub fn cow(bytes: &Bytes) -> Vec<u8> {\n    \
                     // bf-lint: allow(payload_copy): copy-on-write, counted\n    \
                     bytes.to_vec()\n}\n";
    assert!(check_source("crates/fpga/src/memory.rs", justified).is_empty());
    // Refcount bumps are the sanctioned alias form.
    let shared = "pub fn enqueue(data: &DataRef) {\n    push(data.share());\n}\n";
    assert!(check_source("crates/devmgr/src/session.rs", shared).is_empty());
}

/// Runs the interprocedural flow passes over an in-memory multi-file
/// fixture, exactly as `run` does for the real tree.
fn flow_check(sources: &[(&str, &str)]) -> Vec<bf_lint::Diagnostic> {
    let mut out = Vec::new();
    let units: Vec<bf_lint::Unit> = sources
        .iter()
        .map(|(path, src)| bf_lint::Unit::analyze(bf_lint::scan::parse(path, src, false), &mut out))
        .collect();
    let model = bf_lint::build_model(&units);
    bf_lint::flow::check(&units, &model, LOCK_HIERARCHY, &mut out);
    out
}

/// The acceptance scenario for the whole subsystem: a blocking lock
/// acquisition smuggled two calls deep into a reactor-style loop must be
/// caught, with the full entry → helper → offense chain in the witness.
#[test]
fn blocking_lock_in_a_reactor_loop_fails_with_a_multi_hop_witness() {
    assert!(FLOW_RULES.contains(&"hot_blocking"));
    let reactor = "use crate::dispatch::route;\n\
                   // bf-flow: entry(remote_reactor)\n\
                   pub fn reactor_thread(rx: u32) {\n\
                       route(rx);\n\
                   }\n";
    let dispatch = "pub fn route(rx: u32) {\n\
                        settle(rx);\n\
                    }\n\
                    fn settle(rx: u32) {\n\
                        let board = lock_order::tracked(&shared.board, \"board\");\n\
                    }\n";
    let out = flow_check(&[
        ("crates/remote/src/reactor.rs", reactor),
        ("crates/remote/src/dispatch.rs", dispatch),
    ]);
    let hit = out
        .iter()
        .find(|d| d.rule == "hot_blocking")
        .unwrap_or_else(|| panic!("blocking lock not caught: {out:?}"));
    // `board` outranks the remote reactor's floor (`pending`), so the
    // acquisition is a blocking hazard inside the loop.
    assert_eq!(hit.file, "crates/remote/src/dispatch.rs");
    assert!(
        hit.witness.len() >= 3,
        "expected a multi-hop chain, got {:?}",
        hit.witness
    );
    assert!(hit.witness[0].function.contains("reactor_thread"));
    assert!(hit.witness.last().unwrap().file.ends_with("dispatch.rs"));
}

/// hot_alloc: an unbounded push three frames below the event loop fires;
/// the same push behind a justified allow directive does not.
#[test]
fn hot_alloc_crosses_files_and_respects_allows() {
    let entry = "// bf-flow: entry(devmgr_events)\n\
                 pub fn run_event_loop(n: u32) { crate::exec::execute_task(n); }\n";
    let exec = "pub fn execute_task(n: u32) {\n\
                    let mut log = Vec::new();\n\
                    log.push(n);\n\
                }\n";
    let out = flow_check(&[
        ("crates/devmgr/src/event_loop.rs", entry),
        ("crates/devmgr/src/exec.rs", exec),
    ]);
    assert_eq!(
        out.iter().filter(|d| d.rule == "hot_alloc").count(),
        1,
        "{out:?}"
    );
    let allowed = exec.replace(
        "let mut log = Vec::new();",
        "// bf-flow: allow(hot_alloc): bounded by the op cap\nlet mut log = Vec::new();",
    );
    let allowed = allowed.replace("log.push(n);", "log.reserve(1);\nlog.push(n);");
    let out = flow_check(&[
        ("crates/devmgr/src/event_loop.rs", entry),
        ("crates/devmgr/src/exec.rs", &allowed),
    ]);
    assert!(
        out.iter().all(|d| d.rule != "hot_alloc"),
        "reserve bounds the push: {out:?}"
    );
}

/// hot_panic: unwrap on the hot path fires and names the offending frame.
#[test]
fn hot_panic_flags_unwrap_reachable_from_an_entry() {
    let src = "// bf-flow: entry(batcher)\n\
               pub fn pump(x: Option<u32>) -> u32 {\n\
                   x.unwrap()\n\
               }\n";
    let out = flow_check(&[("crates/serverless/src/gateway.rs", src)]);
    assert_eq!(out.len(), 1, "{out:?}");
    assert_eq!(out[0].rule, "hot_panic");
    assert_eq!(out[0].line, 3);
}

/// error_drop: discarding a risky transport result on the hot path fires.
#[test]
fn error_drop_flags_discarded_transport_errors() {
    let tx = "pub struct Tx { q: u32 }\n\
              impl Tx {\n\
                  pub fn try_send(&self) -> Result<(), TransportError> { Ok(()) }\n\
              }\n";
    let entry = "// bf-flow: entry(poller)\n\
                 pub fn poll(tx: &crate::tx::Tx) {\n\
                     let _ = tx.try_send();\n\
                 }\n";
    let out = flow_check(&[
        ("crates/rpc/src/tx.rs", tx),
        ("crates/rpc/src/poller.rs", entry),
    ]);
    assert_eq!(
        out.iter().filter(|d| d.rule == "error_drop").count(),
        1,
        "{out:?}"
    );
}

#[test]
fn lock_hierarchy_is_declared() {
    // The static rule and the runtime tracker consume the same table; an
    // accidentally emptied hierarchy would silently disable both.
    assert!(
        LOCK_HIERARCHY.len() >= 4,
        "lock hierarchy suspiciously small: {LOCK_HIERARCHY:?}"
    );
    assert!(LOCK_HIERARCHY.contains(&"board"));
}

// ---- bf-taint conformance -----------------------------------------------

/// Runs the trust-boundary taint pass over an in-memory multi-file
/// fixture, exactly as `run` does for the real tree.
fn taint_check(sources: &[(&str, &str)]) -> Vec<bf_lint::Diagnostic> {
    let mut out = Vec::new();
    let units: Vec<bf_lint::Unit> = sources
        .iter()
        .map(|(path, src)| bf_lint::Unit::analyze(bf_lint::scan::parse(path, src, false), &mut out))
        .collect();
    bf_lint::taint::check(&units, &bf_lint::build_model(&units), &mut out);
    out
}

/// The wire side of every taint fixture: an annotated decode primitive,
/// the same shape as `codec::get_u128_be`.
const WIRE_DECODE: &str = "// bf-taint: source(wire)\n\
    pub fn get_u128_be(buf: &mut Bytes) -> Result<u128, CodecError> {\n\
        Ok(0)\n\
    }\n";

/// The acceptance scenario for the subsystem: the PR-8 digest-trust bug.
/// A client-claimed digest decoded off the wire reaches the cache-hit
/// authorization decision (`admitted.holds` / `cache.get`) without the
/// server recomputing it from the arrived bytes — the exact shape the
/// payload cache shipped with before the server-side recomputation fix.
#[test]
fn pr8_digest_trust_bug_fails_taint_with_a_multi_hop_witness() {
    assert!(bf_lint::TAINT_RULES.contains(&"taint_auth"));
    let session = "pub fn handle_request(buf: &mut Bytes) {\n\
                       let digest = get_u128_be(buf).unwrap();\n\
                       resolve_payload(digest);\n\
                   }\n\
                   fn resolve_payload(digest: u128) {\n\
                       if !admitted.holds(digest) {\n\
                           return;\n\
                       }\n\
                       match cache.get(digest) {\n\
                           _ => {}\n\
                       }\n\
                   }\n";
    let out = taint_check(&[
        ("crates/rpc/src/codec.rs", WIRE_DECODE),
        ("crates/devmgr/src/session.rs", session),
    ]);
    let holds = out
        .iter()
        .find(|d| d.rule == "taint_auth" && d.key.contains("holds"))
        .unwrap_or_else(|| panic!("client-claimed digest authorization not caught: {out:?}"));
    assert_eq!(holds.file, "crates/devmgr/src/session.rs");
    assert!(
        holds.witness.len() >= 3,
        "expected a source → call → sink chain, got {:?}",
        holds.witness
    );
    assert!(
        holds.witness[0].function.contains("get_u128_be"),
        "witness must start at the wire source: {:?}",
        holds.witness
    );
    assert!(
        holds
            .witness
            .iter()
            .any(|h| h.function.contains("handle_request")),
        "witness must pass through the request entry: {:?}",
        holds.witness
    );
    assert!(
        holds.witness.last().unwrap().function.contains("holds"),
        "witness must end at the authorization sink: {:?}",
        holds.witness
    );
    // The cache-admission lookup keyed by the same claimed digest fires too.
    assert!(
        out.iter()
            .any(|d| d.rule == "taint_auth" && d.key.contains("get")),
        "{out:?}"
    );
}

/// The PR-8 fix: recomputing the digest from the arrived bytes is a
/// validated constructor — the result is content identity, not a claim,
/// and the taint clears.
#[test]
fn server_side_digest_recomputation_sanitizes_the_flow() {
    let session = "pub fn handle_request(buf: &mut Bytes) {\n\
                       let digest = get_u128_be(buf).unwrap();\n\
                       resolve_payload(digest, buf);\n\
                   }\n\
                   fn resolve_payload(digest: u128, bytes: &Bytes) {\n\
                       let digest = content_digest(bytes);\n\
                       if !admitted.holds(digest) {\n\
                           return;\n\
                       }\n\
                       match cache.get(digest) {\n\
                           _ => {}\n\
                       }\n\
                   }\n";
    let out = taint_check(&[
        ("crates/rpc/src/codec.rs", WIRE_DECODE),
        ("crates/devmgr/src/session.rs", session),
    ]);
    assert!(
        out.iter().all(|d| !d.rule.starts_with("taint_")),
        "recomputed digest is trusted: {out:?}"
    );
}

/// `bf-taint: sanitized()` without a justification is itself an error,
/// and the underlying finding still fires — an empty excuse exempts
/// nothing.
#[test]
fn sanitized_without_justification_is_an_error_and_does_not_exempt() {
    let src = "pub fn handle(buf: &mut Bytes) {\n\
                   let len = get_u128_be(buf).unwrap();\n\
                   // bf-taint: sanitized()\n\
                   let v: Vec<u8> = Vec::with_capacity(len as usize);\n\
                   drop(v);\n\
               }\n";
    let out = taint_check(&[
        ("crates/rpc/src/codec.rs", WIRE_DECODE),
        ("crates/devmgr/src/worker.rs", src),
    ]);
    assert!(
        out.iter()
            .any(|d| d.rule == "directive" && d.message.contains("justification")),
        "{out:?}"
    );
    assert!(
        out.iter().any(|d| d.rule == "taint_alloc"),
        "empty sanitized(..) must not clear the flow: {out:?}"
    );
}

/// One `bf-taint: allow(a, b)` directive may name several taint rules;
/// each listed rule is exempted at the covered site.
#[test]
fn multi_rule_allow_covers_taint_rules() {
    let src = "pub fn handle(buf: &mut Bytes) {\n\
                   let len = get_u128_be(buf).unwrap();\n\
                   // bf-taint: allow(taint_alloc, taint_auth): fixture for multi-rule coverage\n\
                   let v: Vec<u8> = Vec::with_capacity(len as usize);\n\
                   drop(v);\n\
                   // bf-taint: allow(taint_auth, taint_alloc): fixture for multi-rule coverage\n\
                   if admitted.holds(len) {}\n\
               }\n";
    let out = taint_check(&[
        ("crates/rpc/src/codec.rs", WIRE_DECODE),
        ("crates/devmgr/src/worker.rs", src),
    ]);
    assert!(
        out.iter().all(|d| !d.rule.starts_with("taint_")),
        "both rules at both sites are exempt: {out:?}"
    );
    assert!(
        out.iter().all(|d| d.rule != "directive"),
        "the directives themselves are well-formed: {out:?}"
    );
}

/// A baselined taint finding that stops firing (the flow was fixed) is
/// reported stale, so the baseline shrinks in the same PR as the fix.
#[test]
fn fixed_taint_finding_makes_its_baseline_entry_stale() {
    let stale_key =
        "taint_auth|crates/devmgr/src/session.rs|resolve_payload|auth:holds:digest".to_string();
    let gated = baseline::gate(&[], std::slice::from_ref(&stale_key));
    assert_eq!(gated.stale, vec![stale_key]);
    assert_eq!(gated.suppressed, 0);
}
