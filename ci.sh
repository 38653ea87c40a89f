#!/usr/bin/env bash
# Local CI gate: formatting, clippy, the repo-specific lint rules and the
# full test suite. Fails fast; run before pushing.
#
# The clippy step carries the rules that lint configuration can check by
# type (clippy.toml bans, the product library roots' denies, workspace
# rustc lints); xtask checks the rest. DESIGN.md §6b has the rule table.
set -euo pipefail
cd "$(dirname "$0")"

run() {
    echo "==> $*"
    "$@"
}

# Print the port that a brokerd started in the background ($2, logging to
# $1) announces. Readiness is sleep-free: brokerd announces its port
# immediately after bind (before it builds or loads the index), and the
# attach client's handshake blocks on the HELLO reply, which arrives
# exactly when the daemon starts serving. The loop only scrapes the port
# number out of the log; it never waits out the index.
brokerd_port() {
    local log=$1 pid=$2 port="" i
    for i in $(seq 1 200); do
        port=$(sed -n 's/^brokerd: listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' "$log")
        [ -n "$port" ] && break
        kill -0 "$pid" 2>/dev/null || { cat "$log" >&2; return 1; }
        # The port line lands within milliseconds of process start; back
        # off only if the scheduler is starving us.
        [ "$i" -gt 20 ] && sleep 0.1
    done
    if [ -z "$port" ]; then
        echo "==> brokerd never reported a listening port:" >&2
        cat "$log" >&2
        kill "$pid" 2>/dev/null || true
        return 1
    fi
    echo "$port"
}

# Required: a missing rustfmt fails the gate instead of leaving the tree's
# formatting unchecked.
run cargo fmt --check

# Required: clippy carries R1, R3, R4, R6-R8, R13 and R14, so a missing
# clippy fails the gate instead of leaving those rules unchecked.
run cargo clippy --offline --workspace --all-targets -- -D warnings

# The repo lint: the rules clippy and rustc cannot check by type.
run cargo run --offline -q -p xtask -- lint

# Warning gate: a clean `cargo build` of the whole workspace.
echo "==> cargo build --workspace (deny warnings)"
build_log="$(mktemp)"
cargo build --offline --workspace 2>"$build_log" || {
    cat "$build_log" >&2
    rm -f "$build_log"
    exit 1
}
if grep -E "^warning" "$build_log" >/dev/null; then
    echo "==> build warnings:" >&2
    cat "$build_log" >&2
    rm -f "$build_log"
    exit 1
fi
rm -f "$build_log"

# Determinism gate: every parallel entry point (netgraph's msbfs fan-out
# through the executor; brokerset's l-hop curves, chaos and failure
# traces, index builds and invalidation) must give identical bits at
# every thread count tested (1, 2, 4, 7 and auto), and plan construction
# must be repeatable. Run explicitly (they are also part of the
# workspace suite) so a violation is named, not buried.
run cargo test --offline -q -p netgraph --test determinism
run cargo test --offline -q -p brokerset --test determinism

# MaxSG oracle gate: the incremental MaxSubGraph-Greedy must pick in the
# same order as the paper's rescan-every-candidate loop on random ER,
# BA and two-disjoint-copy graphs (property-tested), live against the
# rescan at tiny and quarter scale, and by pinned checksum at full scale.
run cargo test --offline -q -p brokerset --test maxsg_oracle

# msbfs equivalence gate: every lane of the 64-source kernel must match
# the per-source engine on every view type (property-tested), and on
# the directed valley-free state graph where pull is forbidden.
run cargo test --offline -q -p netgraph --test msbfs_props
run cargo test --offline -q -p routing --test msbfs_valleyfree

# Fault-injection gate: traversal through an epoch's MaskedView must
# equal BFS on an explicitly rebuilt surviving subgraph at every epoch
# of a random schedule, schedules must survive JSON round trips
# semantically, and chaos traces must stay bit-identical across thread
# counts and a schedule save/load (the last in the brokerset
# determinism gate above).
run cargo test --offline -q -p netgraph --test fault_props

# Churn gate: delta application must equal an explicit rebuild (view and
# CSR), and the incrementally maintained broker set must match a full
# recompute on every prefix of arbitrary delta sequences (exactly under
# forced rebuilds, within the pinned coverage-gap bound under forced
# patching).
run cargo test --offline -q -p netgraph --test delta_props
run cargo test --offline -q -p brokerset --test incremental_diff

# Query-plane gate: the reachability index must answer exactly like the
# independent BFS oracle on random graphs under random fault schedules
# (property-tested), and the brokerd wire protocol must survive
# malformed frames with clean error replies.
run cargo test --offline -q -p brokerset --test index_props
run cargo test --offline -q -p broker-net --test proto_server

# Planner gate: every reconfiguration plan must be certificate-clean —
# acyclic, step set equal to the config diff, and every topological cut
# state Validate-clean (differential proptests). The ext_plan golden
# (DAG shape + trace checksum on the recorded epoch stream) rides in the
# `bins golden` line below.
run cargo test --offline -q -p routing --test plan_props

# Observability gates: the obs contract suite (bucket math,
# thread-count-invariant snapshots, pinned per-vertex work counters),
# the economics axioms, and the golden result snapshots (table3, fig2a,
# ext_chaos, ext_evolve). The counters are always on, so the goldens
# and the checksum below show they only observe.
run cargo test --offline -q -p netgraph --test obs
run cargo test --offline -q -p economics --test axioms
run cargo test --offline -q -p bench --test bins golden

run cargo test --offline -q --workspace

# Examples: each runs once end to end through the public API; no test
# target executes them.
for example in examples/*.rs; do
    run cargo run --offline -q --release --example "$(basename "$example" .rs)"
done

# Perf smoke gate: the quarter-scale (13k-node) engine bench.
# engine_bench hard-asserts thread-count bit-identity (and, at full
# scale, its selection floor); here we additionally pin
# its exact-curve checksum to the committed BENCH_engine.json quarter
# entry. It runs in a scratch directory so the tracked BENCH_engine.json
# is not rewritten.
cargo build --offline --release -q -p bench --bins
expected=$(sed -n '/^      "scale": "quarter"/,/^      "scale": /s/^      "curve_checksum": "\([0-9a-f]\{16\}\)".*/\1/p' BENCH_engine.json)
smoke_dir="$(mktemp -d)"
echo "==> engine_bench quarter (in $smoke_dir)" >&2
engine_bench="$PWD/target/release/engine_bench"
checksum=$(cd "$smoke_dir" && "$engine_bench" quarter --threads 0 \
    | sed -n 's/^  curve_checksum: \([0-9a-f]\{16\}\).*/\1/p')
rm -rf "$smoke_dir"
if [ -z "$expected" ] || [ "$checksum" != "$expected" ]; then
    echo "==> quarter-scale curve checksum $checksum, committed BENCH_engine.json says $expected" >&2
    exit 1
fi
echo "==> quarter-scale perf smoke passed (checksum $checksum)"

# Index bytes gate: the quarter-scale BRI2 blob (247 brokers, so the
# query scan crosses several 32-position chunks, where tiny's 21 do not
# fill one) must hash to the committed BENCH_serve.json quarter
# index_digest. serve_bench also checks a prefix of its answers against
# the exact oracle. It runs in a scratch directory so the tracked
# BENCH_serve.json is not rewritten.
expected=$(sed -n '/^      "scale": "quarter"/,/^      "scale": /s/^        "index_digest": "\([0-9a-f]\{16\}\)".*/\1/p' BENCH_serve.json)
serve_dir="$(mktemp -d)"
echo "==> serve_bench quarter 2014 --queries 10000 (in $serve_dir)" >&2
serve_bench="$PWD/target/release/serve_bench"
(cd "$serve_dir" && "$serve_bench" quarter 2014 --queries 10000 >/dev/null)
digest=$(sed -n 's/^        "index_digest": "\([0-9a-f]\{16\}\)".*/\1/p' "$serve_dir/BENCH_serve.json")
rm -rf "$serve_dir"
if [ -z "$expected" ] || [ "$digest" != "$expected" ]; then
    echo "==> quarter-scale index digest $digest, committed BENCH_serve.json says $expected" >&2
    exit 1
fi
echo "==> quarter-scale index bytes pinned (digest $digest)"

# Saved-index gate: the quarter topology goes through its JSON snapshot,
# broker_cli builds and saves the index from the loaded snapshot, and a
# brokerd serving that blob answers serve_bench in attach mode, which
# checks every answer against its own exact (BFS-oracle) evaluation. The
# digest broker_cli prints must equal the same committed index_digest, so
# the snapshot's JSON round trip is pinned along with the index bytes.
saved_dir="$(mktemp -d)"
echo "==> saved quarter index: snapshot, index build, brokerd --index (in $saved_dir)" >&2
cargo build --offline --release -q -p broker-net --bin broker_cli
run ./target/release/broker_cli generate quarter 2014 "$saved_dir/snap.json"
built=$(./target/release/broker_cli index build "$saved_dir/snap.json" maxsg 247 "$saved_dir/q.bri")
echo "$built"
digest=$(echo "$built" | sed -n 's/.*, digest \([0-9a-f]\{16\}\)$/\1/p')
if [ -z "$expected" ] || [ "$digest" != "$expected" ]; then
    echo "==> saved quarter index digest $digest, committed BENCH_serve.json says $expected" >&2
    exit 1
fi
./target/release/brokerd --index "$saved_dir/q.bri" --port 0 >"$saved_dir/brokerd.log" 2>&1 &
brokerd_pid=$!
port=$(brokerd_port "$saved_dir/brokerd.log" "$brokerd_pid")
run ./target/release/serve_bench quarter 2014 --queries 2000 --attach "$port"
wait "$brokerd_pid"
rm -rf "$saved_dir"
echo "==> saved quarter index served (digest $digest, port $port)"

# Benchmark gate: the reference benchmark's own tests (perfbench/, its
# own cargo package). brokerd is built into the same target directory,
# where the tests look for it. They rebuild the pinned seed-2014
# quarter query-stream checksum from a 247-broker index, fail on one
# mutated answer, and drive all four workloads at tiny size.
run env CARGO_TARGET_DIR=.bench_build cargo build --offline --release -q -p bench --bin brokerd
run env CARGO_TARGET_DIR=.bench_build cargo test --offline --release -q \
    --manifest-path perfbench/Cargo.toml

# Serve smoke gate: a real brokerd on an ephemeral port, driven by the
# serve_bench client in attach mode — 10k queries over TCP whose answer
# checksum must equal the client's own exact (BFS-oracle) evaluation.
echo "==> serve smoke: brokerd + serve_bench --attach" >&2
brokerd_log="$(mktemp)"
./target/release/brokerd tiny 7 --port 0 >"$brokerd_log" 2>&1 &
brokerd_pid=$!
port=$(brokerd_port "$brokerd_log" "$brokerd_pid")
run ./target/release/serve_bench tiny 7 --queries 10000 --attach "$port"
wait "$brokerd_pid"
rm -f "$brokerd_log"
echo "==> serve smoke passed (port $port)"

echo "==> CI gate passed"
