#!/usr/bin/env bash
# The gate, locally and in CI (the `check` job runs this file once, with
# an empty CARGO_HOME): formatting, lints, tier-1, then what tier-1 does
# not run. The workspace has no third-party crate, so every cargo command
# runs offline.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all -- --check
# Gating, and more than style: the panic lints denied at the head of
# cosoft-net / -server / -wire / the facade, `std::thread::sleep`
# disallowed in cosoft-net, the catch-all-arm lint on the matches that
# dispatch on Message and the [workspace.lints] headers all fail here
# (DESIGN.md §7.1 is the table of what each holds).
cargo clippy --offline --locked --workspace --all-targets -- -D warnings
# The API docs: a broken intra-doc link, or a public doc that links a
# private item, fails here.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --locked --no-deps --workspace
# Tier-1. The root's default-members is the whole workspace, so this one
# unfiltered run is every suite of every crate, doctests included; what
# each gate among them holds is written at the head of its test file.
cargo build --offline --locked --release
cargo test --offline --locked -q
# Connection scale in the build it is a gate for: ≥ 1k concurrent sockets
# on the fixed poll pool (tests/tcp_connscale.rs). Wants ~2 fds per
# connection, so raise the soft nofile limit if we can.
ulimit -n 16384 2>/dev/null || true
cargo test --offline --locked -q --release --test tcp_connscale
# The half of the chaos suite tier-1 cannot build: injected partial
# writes / short reads / WouldBlock storms and the seeded soak
# (tests/tcp_chaos.rs), and the facade's doctest that the feature
# reaches cosoft-net when asked for (tier-1 saw it fail to build without).
cargo test --offline --locked -q --features fault-injection --test tcp_chaos
cargo test --offline --locked -q --features fault-injection --doc -p cosoft
# Benchmark of record: `benchmark/` is a package of its own, so nothing
# above compiles it. Builds it against this checkout and runs its own
# tests (a smoke window per workload, BENCHMARK.json byte-equality);
# idle_herd wants the nofile limit raised above.
CARGO_NET_OFFLINE=true bash benchmark/run.sh test
