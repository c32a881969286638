#!/usr/bin/env bash
# Tier-1 gate: formatting, release build, full test suite, conformance.
# CI runs exactly this script; run it locally before pushing.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

# One `unsafe` block in the whole tree: the call from bf-cache's digest
# dispatcher into its `#[target_feature]` SHA-NI kernel. Every other crate
# says `#![forbid(unsafe_code)]`; bf-cache can only say `deny` + one
# `allow`, so the keyword itself is counted here — as a block, fn, impl,
# trait or extern, in code (not after `//`, not the `unsafe_code` lint
# name, not the string in bf-lint's keyword table).
echo "==> unsafe budget (exactly one, in crates/cache/src/sha256.rs)"
unsafe_sites=$(grep -rnE --include='*.rs' \
  '^[^/]*\bunsafe[[:space:]]*(\{|fn|impl|trait|extern)' crates tests examples e2e/src || true)
if [ "$(printf '%s' "$unsafe_sites" | grep -c .)" -ne 1 ] ||
  ! printf '%s' "$unsafe_sites" | grep -q '^crates/cache/src/sha256\.rs:'; then
  echo "expected exactly one unsafe site, in crates/cache/src/sha256.rs; found:"
  printf '%s\n' "$unsafe_sites"
  exit 1
fi

# Workspace lints are deny-level for clippy::unwrap_used (tests exempt via
# clippy.toml); the full-target pass keeps benches and examples honest too.
echo "==> cargo clippy"
cargo clippy -q --workspace --all-targets

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test -q --workspace

# Transport/event-loop crates again, serialized: surfaces ordering and
# shutdown races that only reproduce without inter-test parallelism.
echo "==> cargo test (transport crates, single-threaded)"
cargo test -q -p bf-rpc -p bf-devmgr -p bf-remote -- --test-threads=1

# Conformance + interprocedural flow + trust-boundary taint passes plus
# the wire-schema drift gate, all gated on the checked-in baseline:
# pre-existing accepted findings don't block, NEW findings fail (exit 1)
# with call-chain witnesses (for taint: the wire-source → sink flow);
# stale baseline entries only warn. A renumbered/removed wire tag, or a
# new tag without a regenerated wire-schema.json, fails here too. The
# JSON report is kept as a CI artifact.
echo "==> bf-lint (baseline-gated, report at target/lint-report.json)"
mkdir -p target
cargo run -q --release -p bf-lint -- --json | tee target/lint-report.json

# Deterministic schedule exploration: the bounded transport, poller,
# device-manager event loop, shm, and device-memory cores under the bf-race
# model scheduler. --nocapture surfaces the explored-schedule count per
# model so CI logs show the interleaving coverage each run bought.
echo "==> bf-race model suite (deterministic schedule exploration)"
cargo test -q -p bf-race --features model -- --nocapture

# Archive gates: each harness reruns its --smoke ladder subset and must
# reproduce the deterministic fields of its archived
# experiments/BENCH_<name>.json exactly, then hold its own invariants.
#   datapath    per-round-trip copy counts (wall-clock is informational).
#   gateway     open-loop sweep rows; batched peak throughput strictly above unbatched.
#   scale       100-node production day: counters and the FNV-1a trace digest, the replay certificate for the control-plane hot paths.
#   cache       hot + churn wire-byte/hit/miss/eviction accounting; hot-set wire-bytes-per-request reduction at or above the 5x floor.
#   federation  1- and 16-shard placement/outcome/contention counters and digests; quality floor; 16-shard max lock span at least 4x below one shard.
for harness in datapath gateway scale cache federation; do
  echo "==> $harness bench (smoke + archive check)"
  cargo run -q --release -p bf-bench --bin "$harness" -- --smoke --check "experiments/BENCH_$harness.json"
done

# Virtual-time conformance: the data-path refactor must never move the
# paper's Fig. 4(a) numbers — regenerate and require byte-identical JSON.
echo "==> fig4a virtual-time check"
cargo run -q --release -p bf-bench --bin fig4a > /dev/null
cmp target/experiments/fig4a.json experiments/fig4a.json

echo "ci.sh: all gates passed"
