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

# Layering: as in the paper, only the Accelerators Registry knows about
# boards. The serverless substrate (gateway, batcher, autoscaler) reaches
# them through the cluster's admission hook, never by linking the
# registry, the Device Manager, the board model or the accelerators.
echo "==> layering (bf-serverless links no bf-registry, bf-devmgr, bf-fpga or bf-workloads)"
layering=$(cargo tree --offline -q -p bf-serverless -e normal |
  grep -E ' bf-(registry|devmgr|fpga|workloads) ' || true)
if [ -n "$layering" ]; then
  echo "bf-serverless must not depend on boards or accelerators; found:"
  printf '%s\n' "$layering"
  exit 1
fi

# Workspace lints deny clippy::unwrap_used (tests exempt) and the
# clippy.toml bans: std::sync locks, wall-clock reads, unbounded channels.
# -D warnings also fails a stale #[expect(..)] exemption. The second pass
# compiles bf-race's `model` feature, which no other pass sees. A
# clippy.toml path that stops resolving only warns, and -D warnings does
# not escalate that warning, so it is caught here: it would lift its ban.
mkdir -p target
for pass in "--workspace" "-p bf-race --features model"; do
  echo "==> cargo clippy $pass"
  cargo clippy -q $pass --all-targets -- -D warnings 2>&1 | tee target/clippy.log
  if grep -q 'does not refer to a reachable' target/clippy.log; then
    echo "clippy.toml names a path that no longer resolves; its ban is lifted"
    exit 1
  fi
done

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test -q --workspace

# Transport/event-loop crates again, serialized: surfaces ordering and
# shutdown races that only reproduce without inter-test parallelism.
echo "==> cargo test (transport crates, single-threaded)"
cargo test -q -p bf-rpc -p bf-devmgr -p bf-remote -- --test-threads=1

# The five examples, run (not just compiled) in debug: they drive the
# Remote OpenCL Library → Device Manager → board stack end to end with the
# debug-only `bf_devmgr::lock_order` tracker armed, so a lock inversion or
# a failed call on that path panics here.
for example in quickstart shared_fpga_service serverless_cluster cnn_inference autoscaling; do
  echo "==> example $example (debug)"
  cargo run -q --example "$example" > /dev/null
done

# The repo benchmark (BENCHMARK.json → e2e/) is its own workspace, so the
# stages above never compile it: build it and run its unit tests, so a
# change to any crate it pulls in cannot break the benchmark unseen.
echo "==> e2e benchmark (release build + unit tests)"
cargo build --release --offline --manifest-path e2e/Cargo.toml --bin e2e
cargo test -q --offline --manifest-path e2e/Cargo.toml

# Conformance + interprocedural flow + trust-boundary taint passes plus
# the wire-schema drift gate, all gated on the checked-in baseline:
# pre-existing accepted findings don't block, NEW findings fail (exit 1)
# with call-chain witnesses (for taint: the wire-source → sink flow);
# stale baseline entries only warn. A renumbered/removed wire tag, or a
# new tag without a regenerated wire-schema.json, fails here too. The
# JSON report is kept as a CI artifact.
echo "==> bf-lint (baseline-gated, report at target/lint-report.json)"
cargo run -q --release -p bf-lint -- --json | tee target/lint-report.json

# Deterministic schedule exploration: the bounded transport, poller,
# device-manager event loop, shm, and device-memory cores under the bf-race
# model scheduler. --nocapture surfaces the explored-schedule count per
# model so CI logs show the interleaving coverage each run bought.
echo "==> bf-race model suite (deterministic schedule exploration)"
cargo test -q -p bf-race --features model -- --nocapture

# Archive gates: each harness reruns its --smoke ladder subset, holds its
# own invariants, and must reproduce every field of the matching rows of
# its archived experiments/BENCH_<name>.json (EXPERIMENTS.md, "How an
# archive is gated and refreshed"); a smoke row the archive lacks fails.
#   datapath    copy accounting per round trip (wall_ms_per_rtt is its one informational field).
#   gateway     open-loop sweep rows; batched peak throughput strictly above unbatched.
#   scale       100-node production day at 1 and 16 registry shards down to the FNV-1a trace digests; placement quality floor; 16-shard max lock span at least 4x below one shard.
#   cache       hot + churn accounting; hot-set wire-bytes-per-request reduction at or above the 5x floor.
for harness in datapath gateway scale cache; do
  echo "==> $harness bench (smoke + archive check)"
  cargo run -q --release -p bf-bench -- "$harness" --smoke --check "experiments/BENCH_$harness.json"
done

# Virtual-time conformance: no refactor may move the paper's Fig. 4,
# Table I–IV or ablation numbers — regenerate each artifact and require
# byte-identical JSON.
for artifact in fig4a fig4b fig4c table1 table2 table3 table4 \
  ablation_alloc ablation_transport ablation_taskgrain ablation_spacesharing; do
  echo "==> $artifact virtual-time check"
  cargo run -q --release -p bf-bench -- "$artifact" > /dev/null
  cmp "target/experiments/$artifact.json" "experiments/$artifact.json"
done

echo "ci.sh: all gates passed"
