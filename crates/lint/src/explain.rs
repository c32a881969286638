//! The rule registry: every rule's id, the directive family whose
//! `allow(..)` may name it, and the `bf-lint --explain <rule>` text (what
//! it means, why it exists, and how to satisfy or justify it).

/// A directive family: the rules one `// <family>: allow(..)` comment may
/// name, read from the registry.
#[derive(Clone, Copy, Debug)]
pub struct Family(pub(crate) &'static str);

impl Family {
    /// Whether `rule` belongs to this family.
    pub fn contains(&self, rule: &&str) -> bool {
        self.find(rule).is_some()
    }

    /// The registry's name for `rule`, if it belongs to this family.
    pub fn find(&self, rule: &str) -> Option<&'static str> {
        REGISTRY
            .iter()
            .find(|(name, family, _)| *family == self.0 && *name == rule)
            .map(|(name, _, _)| *name)
    }
}

/// Returns the explanation text for `rule`, if it names a known rule.
pub fn explain(rule: &str) -> Option<&'static str> {
    REGISTRY
        .iter()
        .find(|(name, _, _)| *name == rule)
        .map(|(_, _, text)| *text)
}

/// All explainable rule names, in display order.
pub fn rules() -> Vec<&'static str> {
    REGISTRY.iter().map(|(name, _, _)| *name).collect()
}

const LINT: &str = "bf-lint";
const FLOW: &str = "bf-flow";
const TAINT: &str = "bf-taint";
/// No directive names `wire_schema`: drift is regenerated, never allowed.
const NONE: &str = "";

/// (rule, directive family, explanation), in display order.
const REGISTRY: &[(&str, &str, &str)] = &[
    (
        "panic",
        LINT,
        "No `.unwrap()` / `.expect()` in non-test library code.\n\
         \n\
         The device manager multiplexes many sessions onto shared event\n\
         loops; a panic in one request's handling tears down every tenant\n\
         on the process. Return typed errors and let the session FSM fail\n\
         the one invocation.\n\
         \n\
         Justify a provably-infallible site with\n\
         `// bf-lint: allow(panic): <why the Err/None case is impossible>`.",
    ),
    (
        "lock_order",
        LINT,
        "Within one function, locks must be acquired in declared-hierarchy\n\
         order (see `bf_devmgr::lock_order::HIERARCHY`). Out-of-order\n\
         acquisition is how the poller/devmgr deadlocks of ISSUE 4 were\n\
         born. The runtime tracker enforces the same table in debug builds.",
    ),
    (
        "lock_graph",
        LINT,
        "Whole-program lock discipline: every `Mutex`/`RwLock` field must\n\
         carry a rank from the hierarchy, the static acquisition graph must\n\
         be acyclic, and every hierarchy entry must correspond to a real\n\
         lock (no dead ranks).",
    ),
    (
        "raw_sync",
        LINT,
        "Instrumented crates must use the `bf_race::sync` facade rather than\n\
         raw `parking_lot` / `std::sync::atomic` primitives,\n\
         so the deterministic model checker can interpose on every\n\
         synchronization action.",
    ),
    (
        "wildcard_match",
        LINT,
        "`match`es over protocol status enums must not use `_` arms. A new\n\
         enum variant must be a compile error at every consumer, not a\n\
         silently-absorbed default — that is how protocol drift between the\n\
         gateway and the device manager stays visible.",
    ),
    (
        "payload_copy",
        LINT,
        "Datapath modules must not copy payload bytes (`to_vec`, `clone` of\n\
         payload-typed values). The zero-copy path (ISSUE 3) carries\n\
         refcounted `Bytes` end-to-end; justified copies must be counted\n\
         via the copy-accounting API and annotated\n\
         `// bf-lint: allow(payload_copy): <why>`.",
    ),
    (
        "directive",
        LINT,
        "Allow-directives must themselves be well-formed: a justification\n\
         after the colon, a rule name the engine knows, and (for bf-flow\n\
         entries) a class from the declared entry-class table. Reported at\n\
         the directive's own file:line.",
    ),
    (
        "hot_blocking",
        FLOW,
        "[bf-flow] Nothing blocking may be reachable from a hot-path entry:\n\
         no condvar wait, no blocking `recv`, no `sleep`, no file/net\n\
         syscalls, and no lock ranked *outside* the entry class's floor\n\
         (e.g. the poller may take `queue` and inner locks, never\n\
         `registry`). Findings carry a call-chain witness: entry → … →\n\
         offending call, file:line per hop.\n\
         \n\
         Designed park points (the poller's notify hub) are justified with\n\
         `// bf-flow: allow(hot_blocking): <why this wait is the design>`.",
    ),
    (
        "hot_alloc",
        FLOW,
        "[bf-flow] No unbounded container growth (`push`, `insert`,\n\
         `extend`, `to_vec`, `resize`, …) reachable from a hot-path entry.\n\
         Under 10k-session load an unbounded `Vec` on the event loop is a\n\
         latency spike generator. Pre-size with `with_capacity` (detected\n\
         automatically for same-function locals), enforce an explicit cap,\n\
         or state the bound: `// bf-flow: allow(hot_alloc): bounded by\n\
         max_pending_responses`.",
    ),
    (
        "hot_panic",
        FLOW,
        "[bf-flow] No panic reachable from a hot-path entry —\n\
         interprocedurally. Covers `panic!`-family macros, `.unwrap()` /\n\
         `.expect()`, and indexing without `.get(..)`. This supersedes the\n\
         per-file `panic` rule on hot paths: a panic three calls deep still\n\
         takes down the shared event loop. Existing justified\n\
         `bf-lint: allow(panic)` sites remain honored for unwrap/expect;\n\
         indexing invariants are justified with\n\
         `// bf-flow: allow(hot_panic): <the invariant>`.",
    ),
    (
        "error_drop",
        FLOW,
        "[bf-flow] Discarding a `Result` whose error type carries\n\
         backpressure or overload information (`TransportError`,\n\
         `GatewayError`, `SubmitError`, `HandlerError`) via `let _ = …` or\n\
         a terminal `.ok()`. Swallowed backpressure is how admission\n\
         control silently stops working. Handle it, propagate it, or\n\
         justify a deliberate coalescing drop with\n\
         `// bf-flow: allow(error_drop): <why dropping is correct>`.",
    ),
    (
        "taint_alloc",
        TAINT,
        "[bf-taint] A wire-derived (attacker-controlled) value reaches an\n\
         allocation size: `with_capacity`, `reserve`, `resize`,\n\
         `resize_with`. A declared length of 2^32 must not become a 4 GiB\n\
         allocation before any bound check — that is a one-frame OOM on a\n\
         shared device manager. Sanitize with `.min(CAP)` / `.clamp(..)`\n\
         against a named cap before allocating, or justify with\n\
         `// bf-taint: sanitized(<why the value is already bounded>)`.\n\
         Findings carry a source→sink witness chain.",
    ),
    (
        "taint_index",
        TAINT,
        "[bf-taint] A wire-derived value reaches slice/array indexing or\n\
         `split_to`-style buffer math (`split_to`, `split_off`,\n\
         `truncate`, `advance`). Unchecked indexing by an\n\
         attacker-controlled offset is a panic (tears down every tenant on\n\
         the event loop) or a logic corruption. Use `.get(..)`, bound the\n\
         value first, or annotate the guard:\n\
         `// bf-taint: sanitized(guarded by buf.remaining() check above)`.",
    ),
    (
        "taint_loop",
        TAINT,
        "[bf-taint] A wire-derived value bounds a loop (`for _ in 0..n`,\n\
         `while i < n`). A client-claimed count drives server-side work\n\
         directly — u32::MAX iterations is a CPU DoS no allocation cap\n\
         catches. Cap the trip count against a server-side constant before\n\
         looping, or justify with `// bf-taint: sanitized(<the bound>)`.",
    ),
    (
        "taint_auth",
        TAINT,
        "[bf-taint] A wire-derived identifier flows into a cache-admission\n\
         or digest-authorization decision (`holds`, `note_sent`,\n\
         `device_resident`, cache `get`/`insert`/`invalidate`, …). This is\n\
         the PR-8 bug class: a client-claimed digest used as a cache key\n\
         lets one tenant probe or poison another tenant's entries. Derive\n\
         the identifier server-side (`content_digest` over the actual\n\
         bytes clears taint) or scope the decision per-session and justify:\n\
         `// bf-taint: allow(taint_auth): <why this check is the\n\
         authorization, not a bypass of it>`.",
    ),
    (
        "wire_schema",
        NONE,
        "Wire enum tags are append-only. The decode-surface tag tables\n\
         (`DataRef`, `WireArg`, `Request`, `Response`, `ErrorCode`) are\n\
         snapshotted in `wire-schema.json`; renumbering or reusing a\n\
         released tag, or removing one, fails CI because deployed peers\n\
         still speak the released mapping. Adding a variant is fine —\n\
         regenerate the snapshot in the same PR with\n\
         `bf-lint --write-wire-schema` so the protocol extension is\n\
         explicit in review.",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_rules_return_none() {
        assert!(explain("warp_core").is_none());
    }
}
