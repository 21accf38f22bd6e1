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

# One write path: outside a dispatch a resource changes only through
# `ServiceCore::edit`, under the lease a dispatch takes, so nothing
# outside the container and the stores saves a document, or loads a
# copy of one to read (`share` lends the stored one).
for f in $(find crates/uvacg/src crates/ws-notification/src crates/wsrf-core/src -name '*.rs'); do
    case "$f" in
    */wsrf-core/src/container.rs | */wsrf-core/src/store.rs | */wsrf-core/src/wal.rs) continue ;;
    esac
    if sed '/^#\[cfg(test)\]/,$d' "$f" | tr -d ' \n' | grep -qE '\.store\.(save|load)\(|save_detached\('; then
        echo "tier-1: $f writes a resource by hand or copies one to read it; use ServiceCore::edit or share" >&2
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
# One build per publish: every delivery splices the publish's one shared
# `NotificationMessage` fragment (`shared_notify`), so the fabric never
# builds, copies or renders a message per consumer.
if sed '/^#\[cfg(test)\]/,$d' crates/ws-notification/src/broker.rs |
    sed -n '/^impl DeliveryFabric {/,/^}/p' |
    grep -nE '\.outbound\(|\bto_envelope\(|\bto_element\('; then
    echo "tier-1: DeliveryFabric builds a message per delivery; splice the publish's fragment with shared_notify" >&2
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

# One way to take over a crashed Scheduler: a replicating scheduler
# built over the dead primary's store reads each unfinished set's
# submission record and its job-set resource, and nothing else. Outside
# tests no replication stream, standby-side table or replicated
# placement intent exists, and no standby object or promotion step
# stands beside `scheduler_service`.
for f in $(find crates/uvacg/src -name '*.rs'); do
    if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -nE 'schedrepl|struct Replica|note_intent|uncertain'; then
        echo "tier-1: $f keeps a second copy of the scheduler's failover state; the successor reads the store" >&2
        exit 1
    fi
    if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -nE 'struct Standby|standby_scheduler|fn promote|spawn_standby'; then
        echo "tier-1: $f keeps a second take-over path; build a replicating scheduler over the store" >&2
        exit 1
    fi
done
# One job-set state machine: `RunState` changes only through the pure
# transitions in `scheduler/run.rs` (restoring one from the store
# included), which reach no network, container or broker.
run_rs=crates/uvacg/src/scheduler/run.rs
if [ ! -f "$run_rs" ] ||
    grep -nE 'InProcNetwork|ServiceCore|broker::|es::run|Outbound' "$run_rs"; then
    echo "tier-1: $run_rs is missing or does I/O; keep the job-set transitions pure" >&2
    exit 1
fi

# One job lifecycle: the ES, the Scheduler and the client share the pure
# `job` module. It alone spells the job-event format — a job's
# `<topic>/job/<name>/<leaf>` and a set's `<topic>/completed|failed` —
# and decodes a job's exit in exactly one place, and every change of an
# ES job's `Status` is one `JobLife::apply` under the ES's one
# `ServiceCore::edit`.
job_rs=crates/uvacg/src/job.rs
if [ ! -f "$job_rs" ] ||
    grep -nE 'InProcNetwork|ServiceCore|Outbound|Clock|broker::' "$job_rs"; then
    echo "tier-1: $job_rs is missing or does I/O; keep the job lifecycle pure" >&2
    exit 1
fi
exit_arms=$(for f in $(find crates/uvacg/src -name '*.rs'); do
    sed '/^#\[cfg(test)\]/,$d' "$f" | grep -c '"exit" =>' || true
done | awk '{ n += $1 } END { print n + 0 }')
if [ "$exit_arms" -ne 1 ]; then
    echo "tier-1: a job's exit event is decoded in $exit_arms places under crates/uvacg/src; keep SetEvent::decode's one" >&2
    exit 1
fi
# (A directory name prefix that happens to read "dir" is not a topic.)
for f in $(find crates/uvacg/src -name '*.rs'); do
    if [ "$f" != "$job_rs" ] &&
        sed '/^#\[cfg(test)\]/,$d' "$f" | grep -v '^ *//' |
        grep -nE '[/"](dir|started|exit|failed|completed)"' | grep -v 'create_unique_dir('; then
        echo "tier-1: $f spells a job-event topic; name it through the job module" >&2
        exit 1
    fi
done
es_edits=$(sed '/^#\[cfg(test)\]/,$d' crates/uvacg/src/es.rs | grep -c '\.edit(' || true)
if [ "$es_edits" -ne 1 ]; then
    echo "tier-1: es.rs changes a job in $es_edits places; step it with EsRuntime::advance" >&2
    exit 1
fi

# One holder of ES job state: the ES keeps nothing between calls. A
# staging job's spawn inputs (executable, credentials as they arrived,
# trace) are its staging record in the ES's store, so an ES restarted
# over that store finishes the jobs it accepted; outside tests es.rs
# keeps no side table of jobs.
if sed '/^#\[cfg(test)\]/,$d' crates/uvacg/src/es.rs | grep -nE 'PendingJob|HashMap'; then
    echo "tier-1: es.rs keeps job state outside its store; put it in the staging record" >&2
    exit 1
fi

# One subscription lifecycle: a subscription's mode, failure streak and
# deliveries in flight change only through the pure table in
# `ws-notification/src/life.rs`, under the entry's own lock, and a
# `Destroy` waits for deliveries on a condition variable: the broker
# keeps no lifecycle atomics and spins on nothing.
life_rs=crates/ws-notification/src/life.rs
if [ ! -f "$life_rs" ] ||
    sed '/^#\[cfg(test)\]/,$d' "$life_rs" |
    grep -nE 'InProcNetwork|ServiceCore|Outbound|Clock|Atomic|thread'; then
    echo "tier-1: $life_rs is missing or does I/O; keep the subscription lifecycle pure" >&2
    exit 1
fi
if sed '/^#\[cfg(test)\]/,$d' crates/ws-notification/src/broker.rs | grep -nE 'Atomic|SeqCst|yield_now'; then
    echo "tier-1: broker.rs keeps subscription state outside SubLife, or spins; step it with SubLife::apply" >&2
    exit 1
fi

# One record of a lease: a resource's lease is its stored
# `wsrl:TerminationTime`, written into the document its writer saves
# anyway, and a timer that fires only re-reads it. The container keeps
# no per-resource timer table beside it to cancel or to lose on restart.
if sed '/^#\[cfg(test)\]/,$d' crates/wsrf-core/src/container.rs |
    grep -nE 'TimerId|\blifetime\b *:|\.lifetime\b'; then
    echo "tier-1: container.rs keeps leases outside the stored TerminationTime; store the lease and arm_lease it" >&2
    exit 1
fi

# One copy per write, and no lease keeps a service alive: the save
# stage and `ServiceCore::edit` hand the store the edited `Arc`
# (`ResourceStore::save_shared`), never a borrow for it to copy again,
# and a lease timer holds its service weakly (`arm_lease`), so a dropped
# deployment with leases pending frees what it made.
container_src=$(sed '/^#\[cfg(test)\]/,$d' crates/wsrf-core/src/container.rs)
if echo "$container_src" | tr -d ' \n' | grep -q '\.save(' ||
    ! echo "$container_src" | tr -d ' \n' | grep -q '\.save_shared('; then
    echo "tier-1: container.rs saves a borrowed document; hand the store the Arc with save_shared" >&2
    exit 1
fi
if ! echo "$container_src" | sed -n '/pub fn arm_lease/,/^    }$/p' | grep -q 'Arc::downgrade(self)'; then
    echo "tier-1: arm_lease's timer keeps its service alive; capture Arc::downgrade(self)" >&2
    exit 1
fi

# One build per received envelope: `Envelope::parse` builds each header
# block and the body element where it stands on the pull stream, under
# the rules it shares with `LazyEnvelope::scan`. No wrapper tree is built
# to copy them out of, and the envelope has no tree form to convert to
# or from.
if sed '/^#\[cfg(test)\]/,$d' crates/wsrf-soap/src/envelope.rs |
    grep -nE '\.cloned\(\)|from_element|to_element'; then
    echo "tier-1: envelope.rs copies an envelope through a tree; build its parts off the pull stream" >&2
    exit 1
fi

# A panic is caught in two places only: a pool worker outlives the task
# that panicked, and a delivery worker's drain outlives the consumer
# that did. Anywhere else a panic is a defect that must reach its
# caller. (The vendored stand-ins for external crates are not ours.)
for f in $(find src crates -name '*.rs' -path '*src/*' \
    -not -path 'crates/bytes/*' -not -path 'crates/crossbeam/*' \
    -not -path 'crates/parking_lot/*' -not -path 'crates/proptest/*' \
    -not -path 'crates/rand/*'); do
    case "$f" in
    crates/wsrf-transport/src/pool.rs | crates/ws-notification/src/broker.rs) continue ;;
    esac
    if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -n 'catch_unwind'; then
        echo "tier-1: $f catches a panic; only the pool's workers and the broker's drain may" >&2
        exit 1
    fi
done

# Errors are dropped only with a reason: outside tests under
# crates/{uvacg,ws-notification,wsrf-core}/src, every `let _ =` has a
# `//` comment on the line directly above it saying why nobody is told.
dropped=$(for f in $(find $outbound_src -name '*.rs'); do
    sed '/^#\[cfg(test)\]/,$d' "$f" |
        awk -v f="$f" '/let _ =/ && prev !~ /^[ \t]*\/\// { print f ":" NR ": " $0 } { prev = $0 }'
done)
if [ -n "$dropped" ]; then
    echo "$dropped"
    echo "tier-1: a result is dropped without a reason; say why in a // comment on the line above" >&2
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

# One regression system: wall-clock numbers belong to the `benchmark/`
# ledger, and deterministic ones are exact `cargo test` assertions
# (tests/paper_claims.rs, tests/expected_metrics.json). No code, script,
# manifest or user document names the deleted experiment crate, its
# baseline or its dump, except a "recorded result — `harness …` at
# <sha>" line. (The patterns are bracketed so this script does not
# match itself.)
if git ls-files -z -- '*.rs' '*.sh' '*.toml' '*.json' .gitignore .claude \
    README.md DESIGN.md EXPERIMENTS.md benchmark/README.md |
    xargs -0 grep -nE -e '-p[ ]bench\b|bench[_]baseline|BENCH[_]metrics' |
    grep -vE 'ecorded result — `harness [^`]*` at [0-9a-f]{7}'; then
    echo "tier-1: the second regression system is back; pin exact values in cargo test, time in benchmark/" >&2
    exit 1
fi

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

echo "tier-1: OK"
