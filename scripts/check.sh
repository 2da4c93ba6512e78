#!/usr/bin/env bash
# Local mirror of the CI gate: formatting, lints, build, tests.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all -- --check
# The clippy line carries four guarantees no test does (DESIGN.md §7.1):
# no unwrap / expect / panic! / unreachable! / todo! / unimplemented! /
# direct indexing in the non-test code of cosoft-net, -server, -wire and
# the facade's dispatch thread (a `deny` at the head of each lib.rs,
# read off the plain lib target that --all-targets includes; each
# exception is an `#[allow(.., reason)]` on its site); no
# `std::thread::sleep` in cosoft-net but the client's reconnect
# back-off (crates/net/clippy.toml); no catch-all arm in the four
# matches that dispatch on Message (wildcard_enum_match_arm denied on
# those functions); and `unsafe_code = "forbid"`, `missing_docs =
# "deny"` in every target of every crate ([workspace.lints]). The test
# line below carries the rest: lock ranks asserted at every acquisition
# of a debug build, a receiver type with no blocking recv and the
# shard-only core methods held by compile_fail doctests, and the
# facade's doctest that fault-injection is off unless asked for.
cargo clippy --locked --workspace --all-targets -- -D warnings
cargo build --locked --release
cargo test --locked -q
# The two walks of the state grammar — the decoder that builds a tree
# and the one that only checks and slices an `EncodedState` off the
# frame — must accept, refuse and consume alike; nothing but this suite
# holds them together.
cargo test --locked -q -p cosoft-wire --test encoded_state
# Failure-handling suites, run explicitly so a filtered `cargo test`
# invocation can't silently skip them. server_core also holds the delta
# wire-size gate (at depth 6 a single-attribute delta, the undo of it
# and the copy after the undo are each ≤ 25% of the snapshot frame, the
# first a smaller share than at depth 2; each is acknowledged by
# reference in ≤ 12 B at either depth, and four viewers' by-reference
# history entries are one buffer), its push half (at depth 6 the second
# push of an object is a CopyDelta ≤ 25% of the CopyTo frame, a smaller
# share than at depth 2, and delivers what the CopyTo would have; one the
# server cannot rebuild costs its sender a StateRequest and nothing
# else) and the replies that must change nothing: a failed apply's, a
# reference to no base, and anybody's but the instance that was asked.
cargo test --locked -q -p cosoft-server --test server_core
cargo test --locked -q -p cosoft-server --test store_props no_leaks_after_all_instances_deregister
# The same gate over real sessions (undo leg and the copy after it stay
# deltas, the first StateApplied reply is no larger than its CopyTo, the
# steady-state ones ≤ 12 B; from the second copy on the request is a
# copy-delta, and request, leg and acknowledgement together ≤ 200 B at
# depth 6), a merge that destroys a coupled child decouples it, and
# sync bases and acknowledgement by reference against a plain model
# over 240 seeded scripts (pushes both ways, pulls, a presenter that
# re-registers, a push shed as Busy); then the record of what an apply
# overwrote against the full snapshot it replaced, 2 000 seeded cases
# per copy mode.
cargo test --locked -q -p cosoft-core --test coupling
cargo test --locked -q -p cosoft-core --test compat_record
cargo test --locked -q -p cosoft-core --test reconnect_sim
cargo test --locked -q --test tcp_reconnect
# Schedule-exploring checker: every interleaving of 3 clients over
# overlapping couple groups — and, since the shard refactor, the same
# explorer driving merge/split/disconnect schedules across 2 shards —
# with invariants checked at every step.
cargo test --locked -q -p cosoft-server --test lock_model
# Shard handoff failure modes (requester death mid-merge, mutation
# during freeze, idempotent re-merge) and two delivery gates (the same
# deliveries on 1/2/4 shards; a polite group's deliveries unchanged by a
# 1x/4x/16x flooder that is shed, told Busy, then evicted), plus the
# sharded end-to-end sim.
cargo test --locked -q -p cosoft-server --test shard_handoff
cargo test --locked -q -p cosoft-core --test shard_sim
# Connection scale: the readiness-driven host must carry ≥1k concurrent
# sockets on its fixed poll pool (gate). Wants ~2 fds per connection, so
# raise the soft nofile limit if we can.
ulimit -n 16384 2>/dev/null || true
cargo test --locked -q --release --test tcp_connscale
# Chaos suite: scripted peer-side faults (torn/garbage/oversized
# frames, handshake stalls) plus, with the fault-injection feature,
# deterministic injected partial writes / short reads / WouldBlock
# storms and a seeded randomized soak. Every fault must end clean:
# exactly one Disconnected per torn connection, no poll-thread death.
cargo test --locked -q --test tcp_chaos
cargo test --locked -q --features fault-injection --test tcp_chaos
# The facade's doctest builds only with the feature, as `cargo test`
# above saw it fail to build without.
cargo test --locked -q --features fault-injection --doc -p cosoft
# Benchmark of record: `benchmark/` is a package of its own, so nothing
# above compiles it. Builds it against this checkout and runs its own
# tests (a smoke window per workload, BENCHMARK.json byte-equality);
# idle_herd wants the nofile limit raised above.
bash benchmark/run.sh test
