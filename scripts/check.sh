#!/usr/bin/env bash
# Local mirror of the CI gate: formatting, lints, build, tests, audit.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all -- --check
cargo clippy --workspace --all-targets -- -D warnings
cargo build --release
cargo test -q
# Source audit. Manifest scan keeping the fault-injection feature out
# of default features and release dependency graphs; AST rules over the
# parsed workspace: panic-freedom ratchet against audit-baseline.toml,
# blocking calls reachable from the poll loop, lock-order cycles,
# restricted teardown APIs, crate lint headers, no catch-all arm in the
# server's Message dispatch.
cargo run -q -p cosoft-audit
# The two walks of the state grammar — the decoder that builds a tree
# and the one that only checks and slices an `EncodedState` off the
# frame — must accept, refuse and consume alike; nothing but this suite
# holds them together.
cargo test -q -p cosoft-wire --test encoded_state
# Failure-handling suites, run explicitly so a filtered `cargo test`
# invocation can't silently skip them.
cargo test -q -p cosoft-server --test server_core
cargo test -q -p cosoft-server --test store_props no_leaks_after_all_instances_deregister
cargo test -q -p cosoft-core --test reconnect_sim
cargo test -q --test tcp_reconnect
# Schedule-exploring checker: every interleaving of 3 clients over
# overlapping couple groups — and, since the shard refactor, the same
# explorer driving merge/split/disconnect schedules across 2 shards —
# with invariants checked at every step.
cargo test -q -p cosoft-server --test lock_model
# Shard handoff failure modes (requester death mid-merge, mutation
# during freeze, idempotent re-merge) plus the sharded end-to-end sim.
cargo test -q -p cosoft-server --test shard_handoff
cargo test -q -p cosoft-core --test shard_sim
# Fan-out throughput smoke: the encode-once broadcast bench must run
# and emit every group-size series into target/bench/BENCH_fanout.json
# (smoke runs never write the repo-root BENCH_*.json of a full run).
cargo run -q --release -p cosoft-bench --bin fanout -- --smoke
# Shard-scaling smoke: every shard-count series into
# target/bench/BENCH_shard.json.
cargo run -q --release -p cosoft-bench --bin shard -- --smoke
# Connection scale: the readiness-driven host must carry ≥1k concurrent
# sockets on its fixed poll pool (gate), and the scaling bench must emit
# every conn-count series into target/bench/BENCH_connscale.json
# (smoke). Both want
# ~2 fds per connection, so raise the soft nofile limit if we can.
ulimit -n 16384 2>/dev/null || true
cargo test -q --release --test tcp_connscale
cargo run -q --release -p cosoft-bench --bin connscale -- --smoke
# Chaos suite: scripted peer-side faults (torn/garbage/oversized
# frames, handshake stalls) plus, with the fault-injection feature,
# deterministic injected partial writes / short reads / WouldBlock
# storms and a seeded randomized soak. Every fault must end clean:
# exactly one Disconnected per torn connection, no poll-thread death.
cargo test -q --test tcp_chaos
cargo test -q --features fault-injection --test tcp_chaos
# Overload-control smoke: well-behaved goodput must hold within 90% of
# baseline against a 16x flooder (shed, told Busy, then evicted) —
# asserted by the bench's own unit tests, series into
# target/bench/BENCH_overload.json.
cargo test -q -p cosoft-bench --lib overload
cargo run -q --release -p cosoft-bench --bin overload -- --smoke
# Delta-sync smoke: a single-attribute change in a depth-6 tree must
# travel in ≤25% of the full-snapshot bytes (gated by the bench's own
# unit tests), every depth series into target/bench/BENCH_deltasync.json.
cargo test -q -p cosoft-bench --lib deltasync
cargo run -q --release -p cosoft-bench --bin deltasync -- --smoke
# Benchmark of record: `benchmark/` is a package of its own, so nothing
# above compiles it. Builds it against this checkout and runs its own
# tests (a smoke window per workload, BENCHMARK.json byte-equality);
# idle_herd wants the nofile limit raised above.
bash benchmark/run.sh test
