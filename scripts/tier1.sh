#!/usr/bin/env sh
# Tier-1 verification gate: everything a PR must keep green.
#
#   sh scripts/tier1.sh
#
# Fully offline: the workspace vendors shims for all external crates
# (see Cargo.toml [workspace.dependencies]), so no network is needed.
set -eu
cd "$(dirname "$0")/.."

echo "== cargo build --release --offline"
cargo build --release --offline

echo "== cargo test -q --offline"
cargo test -q --offline

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo build --release --offline --locked (benchmark/)"
# The performance ledger is a detached package pinned to this
# workspace's public API (benchmark/src/sut.rs:1-27) and its own
# lockfile; an API move or a dependency change fails here instead of at
# benchmark time.
cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml

echo "== cargo test -q --release --offline scale_stress"
# The contention-sensitive suites (scale stress, per-resource lease
# races) only exercise real interleavings at release-mode speed.
cargo test -q --release --offline --test scale_stress
cargo test -q --release --offline --test concurrency

echo "== cargo test -q --release --offline wirepath"
# The wire-path suites pin byte-for-byte serializer equivalence, the
# per-transport render budgets, and the inbound parse/DOM budgets
# (zero body DOMs per WS-RP read); release mode keeps the proptest
# cases and the real-socket exchanges fast.
cargo test -q --release --offline --test wirepath
cargo test -q --release --offline --test wirepath_renders
cargo test -q --release --offline --test wirepath_inbound
cargo test -q --release --offline -p wsrf-xml --test proptest_roundtrip

echo "== cargo test -q --release --offline durability + failover_chaos"
# The durability suite replays proptest-corrupted WALs and the chaos
# suite kills the primary scheduler at every Figure 3 step; release
# mode keeps the 48-case corruption sweep and the ten kill-point
# recovery cycles fast.
cargo test -q --release --offline --test durability
cargo test -q --release --offline --test failover_chaos

echo "== cargo test -q --release --offline history_independence"
# Sixty Figure 3 sets through call-counting ES stores: per-set store
# loads, the scheduler's listener and terminal-resource lifetimes must
# not depend on how many sets came before.
cargo test -q --release --offline --test history_independence

echo "== cargo test -q --release --offline broker_fanout + E13 smoke"
# The broker suite races subscription lifecycle ops against concurrent
# publishes (release mode for real interleavings); the E13 smoke row
# drives the sharded fan-out open-loop at 1k subscriptions.
cargo test -q --release --offline --test broker_fanout
cargo run -q --release --offline -p bench --bin harness -- e13-smoke >/dev/null

echo "== cargo test -q --release --offline monitoring_plane + monitor smoke"
# The monitoring-plane suite round-trips the exposition endpoints over
# real sockets and aggregates two authorities; the smoke run then boots
# a monitored container standalone and scrapes /metrics and /healthz.
cargo test -q --release --offline --test monitoring_plane
cargo run -q --release --offline -p bench --bin harness -- monitor-smoke >/dev/null

echo "== metrics + tracing regression gate"
# The `metrics` harness run boots the dump grid with tracing enabled
# (the tracing ablation configuration), so BENCH_metrics.json carries
# the trace.* counters and the gate pins them against the baseline
# alongside every other metric.
cargo run -q --release --offline -p bench --bin harness -- metrics >/dev/null
cargo run -q --release --offline -p bench --bin gate

echo "tier-1: OK"
