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

echo "== source gates"
# A dispatch is lent the store's own snapshot of its resource
# (`ResourceStore::share`): nothing borrows a row under the shard lock
# any more, and the container and the standard port types copy a
# document only when a handler edits it. (Chains are joined first:
# rustfmt splits `.store` from `.load(`.)
if grep -rn "with_doc" crates tests src examples; then
    echo "tier-1: with_doc is back" >&2
    exit 1
fi
for f in container porttypes; do
    if sed '/^#\[cfg(test)\]/,$d' "crates/wsrf-core/src/$f.rs" | tr -d ' \n' | grep -q 'store\.load('; then
        echo "tier-1: $f.rs loads a copy outside its tests; use share" >&2
        exit 1
    fi
done

# A brokered delivery crosses one thread hand-over: the delivery fabric
# reaches the network only through `deliver_oneway` (which runs the
# consumer on the fabric's own worker), and the network has one body
# doing the one-way accounting for both entry points.
if sed '/^#\[cfg(test)\]/,$d' crates/ws-notification/src/broker.rs |
    sed -n '/^impl DeliveryFabric {/,/^}/p' | grep -n 'send_oneway('; then
    echo "tier-1: DeliveryFabric hands deliveries to the network's one-way pool; use deliver_oneway" >&2
    exit 1
fi
accountings=$(sed '/^#\[cfg(test)\]/,$d' crates/wsrf-transport/src/inproc.rs | grep -c 'record_oneway(')
if [ "$accountings" -ne 1 ]; then
    echo "tier-1: inproc.rs accounts for a one-way message in $accountings places; keep one" >&2
    exit 1
fi

# One path out: every outbound exchange is assembled, routed and failed
# by `wsrf_core::proxy::Outbound`. Outside tests nothing else addresses
# a request, maps a transport error onto a fault, or throws a one-way's
# result away before it has left an event.
outbound_src="crates/uvacg/src crates/ws-notification/src crates/wsrf-core/src"
for f in $(find $outbound_src -name '*.rs'); do
    if [ "$f" != crates/wsrf-core/src/proxy.rs ] &&
        sed '/^#\[cfg(test)\]/,$d' "$f" | grep -n 'MessageInfo::request('; then
        echo "tier-1: $f addresses a request by hand; build it with Outbound" >&2
        exit 1
    fi
    if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -n 'let _ = .*send_oneway('; then
        echo "tier-1: $f drops a one-way's result unseen; send it with Outbound::send" >&2
        exit 1
    fi
done
mappings=$(for f in $(find $outbound_src -name '*.rs'); do
    sed '/^#\[cfg(test)\]/,$d' "$f" | tr -d ' \n' | grep -o '\.call([^;]*)\.map_err(|e|[a-z_:]*SoapFault::server(e\.to_string()))' || true
done | wc -l)
if [ "$mappings" -ne 1 ]; then
    echo "tier-1: a transport error becomes a fault in $mappings places; keep the one in Outbound::call" >&2
    exit 1
fi

# One job-set state machine: the primary and the standby keep the same
# `RunState`, changed only by the pure transitions in
# `scheduler/run.rs`, which decode a job event in exactly one place and
# reach no network, container or broker.
if grep -rn 'struct Shadow' crates/uvacg/src; then
    echo "tier-1: a second job-set table is back; the standby keeps RunState" >&2
    exit 1
fi
run_rs=crates/uvacg/src/scheduler/run.rs
if [ ! -f "$run_rs" ] ||
    grep -nE 'InProcNetwork|ServiceCore|broker::|es::run|Outbound' "$run_rs"; then
    echo "tier-1: $run_rs is missing or does I/O; keep the job-set transitions pure" >&2
    exit 1
fi
exit_arms=$(for f in $(find crates/uvacg/src/scheduler -name '*.rs' 2>/dev/null); do
    sed '/^#\[cfg(test)\]/,$d' "$f" | grep -c '"exit" =>' || true
done | awk '{ n += $1 } END { print n + 0 }')
if [ "$exit_arms" -ne 1 ]; then
    echo "tier-1: a job's exit event is decoded in $exit_arms places under scheduler/; keep JobEvent's one" >&2
    exit 1
fi

# One measurement format: the flat metrics JSON has one writer and one
# reader, both in wsrf-obs (`MetricsSnapshot::{to_json, from_json}`).
# Outside it no non-test code spells the format's type tags, so nothing
# else hand-renders or hand-parses a dump or a `/metrics.json` scrape.
for f in $(find crates -name '*.rs' -not -path 'crates/wsrf-obs/src/*' -not -path 'crates/*/tests/*'); do
    if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -nF -e '\"counter\"' -e '\"histogram\"'; then
        echo "tier-1: $f spells a flat-JSON metric type tag; read metrics with MetricsSnapshot::from_json" >&2
        exit 1
    fi
done

echo "== cargo build --release --offline --locked (benchmark/)"
# The performance ledger is a detached package pinned to this
# workspace's public API (benchmark/src/sut.rs:1-27) and its own
# lockfile; an API move or a dependency change fails here instead of at
# benchmark time.
cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml

echo "== benchmark selftest"
# Building the ledger pins the API; running it pins the behaviour. The
# selftest drives every workload for a moment, checks a Figure 3 set's
# 36 exchanges / 38 messages and every output check, and compares
# BENCHMARK.json with the program, so a drift fails here instead of at
# benchmark time.
cargo run -q --release --offline --locked --manifest-path benchmark/Cargo.toml -- selftest

echo "== cargo test -q --release --offline --workspace"
# `cargo test` above builds only the root package (the suites under
# tests/); this step also runs every crate's own unit and integration
# tests (crates/*/src, crates/*/tests). Release mode, because the root
# suites it re-runs need release-mode speed: scale_stress, concurrency
# and broker_fanout only reach real interleavings, the wirepath*
# suites and wsrf-xml's proptest_roundtrip pin serializer bytes and
# render/parse/DOM budgets over many proptest cases and real sockets,
# durability and failover_chaos replay 48 corrupted WALs and ten
# kill-point recoveries, and history_independence drives sixty
# Figure 3 sets through call-counting stores.
cargo test -q --release --offline --workspace

echo "== monitor smoke"
# Boots a monitored container standalone and scrapes /metrics and
# /healthz.
cargo run -q --release --offline -p bench --bin harness -- monitor-smoke >/dev/null

echo "== metrics + tracing regression gate"
# The `metrics` harness run boots the dump grid with tracing enabled
# (the tracing ablation configuration), so BENCH_metrics.json carries
# the trace.* counters and the gate pins them against the baseline
# alongside every other metric.
cargo run -q --release --offline -p bench --bin harness -- metrics >/dev/null
cargo run -q --release --offline -p bench --bin gate

echo "tier-1: OK"
