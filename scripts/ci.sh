#!/usr/bin/env bash
# The CI gate, runnable locally: `scripts/ci.sh`.
#
# Mirrors .github/workflows/ci.yml exactly — if this script exits 0, CI
# passes. Everything runs offline: all third-party crates are vendored
# under vendor/ as path dependencies, so no registry access is needed.

set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true
export CARGO_TERM_COLOR="${CARGO_TERM_COLOR:-always}"

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (workspace, all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (workspace, rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> lockcheck structural lint (no raw parking_lot, no locking in sink bodies)"
mkdir -p target/lint
rustc --edition 2021 -O scripts/lint.rs -o target/lint/lockcheck-lint
./target/lint/lockcheck-lint .

echo "==> cargo test (workspace)"
cargo test --workspace -q

echo "==> cargo test (workspace, lockcheck instrumentation on)"
# Same suite with every lock wrapped: lock-order graph, two-level meta/shard
# protocol, ascending-shard order, sink re-entrancy, and the §5.7 visibility
# DAG re-validated after every topology mutation. Any violation panics.
cargo test --workspace -q --features lockcheck

echo "==> perfbench (the repository benchmark must build and pass its self-tests)"
# perfbench/ is its own Cargo workspace with path deps on the crates, so
# the workspace steps above never build it.
cargo build --release --offline --manifest-path perfbench/Cargo.toml
cargo test --offline -q --manifest-path perfbench/Cargo.toml

echo "==> shard stress (multi-threaded coordinator tests under parallel harness)"
# The sharded-coordinator stress and oracle tests spawn their own threads;
# running the harness itself multi-threaded adds cross-test interleaving
# on top. Release mode so the contention window is realistic.
RUST_TEST_THREADS=4 cargo test --release -p actorspace-core \
  --test shard_stress --test shard_wakeup --test differential_oracle -q

echo "==> E14 quick (one coordinator, per-space shards vs one global mutex around it)"
E14_QUICK=1 cargo run --release -p actorspace-bench --bin experiments e14

echo "==> E15 quick (obs delta streaming: views must converge; overhead report)"
E15_QUICK=1 cargo run --release -p actorspace-bench --bin experiments e15

echo "==> cargo bench --no-run (benches must keep compiling)"
cargo bench --workspace --no-run

echo "==> obs smoke (observe example under churn must self-check)"
# The example asserts a non-empty metric snapshot and at least one
# complete traced lifecycle, then prints the marker we grep for.
OBSERVE_MS=1500 cargo run --release --example observe | tee /tmp/observe.out
grep -q "OBS SMOKE OK" /tmp/observe.out

echo "==> cluster view smoke (remote observer under churn must self-check)"
# The example's merged ClusterView must track >=2 publishers, converge on
# the nodes' true delivery totals, carry nonzero lock.wait.* timing, and
# see node 2's kill/restart as stale -> rejoined, then print the marker.
CLUSTER_OBSERVE_MS=1500 cargo run --release --example cluster_observe | tee /tmp/cluster_observe.out
grep -q "CLUSTER OBS OK" /tmp/cluster_observe.out

echo "==> line count (non-test lines per crate; a report, not a gate)"
scripts/loc.sh || echo "line count failed (not a gate)"

echo "CI gate passed."
