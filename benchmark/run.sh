#!/usr/bin/env bash
# Builds the benchmark and runs it.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one workload; the last line of standard output is the result
#       object (this is the `command` of BENCHMARK.json)
#   benchmark/run.sh run <workload>|all [--traced] [--smoke] [--seed <n>]
#   benchmark/run.sh repeat <n> [--seed <n>]
#   benchmark/run.sh manifest
#       passed through to the binary (see README.md)
#   benchmark/run.sh record
#       the run of record: `run all`, then `run all --traced`, and the
#       `untraced` and `traced` blocks of benchmark/RESULTS.json rewritten
#   benchmark/run.sh test
#       the harness's own tests (`cargo test`)
#
# Nothing is written outside the build's target directory, except
# Cargo.lock beside the manifest and RESULTS.json in the `record` form.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
manifest="$here/Cargo.toml"

# idle_herd holds about 3 000 descriptors (client socket, host socket and
# the host's control duplicate for each of 1 002 connections). Raise the
# soft limit as far as the hard one allows; the binary checks
# /proc/self/limits and fails loudly if that is still too low.
ulimit -n "$(ulimit -Hn)" 2>/dev/null || true

# Where bytes, crossbeam, parking_lot and rand come from: the registry, as
# in the repository's own build, or - where none can be reached, as in the
# sandbox - the std-only stand-ins under stubs/. COSOFT_BENCH_DEPS forces
# one or the other; the binary records which it was built with.
deps="${COSOFT_BENCH_DEPS:-auto}"
if [ "$deps" = auto ]; then
    if CARGO_NET_RETRY=0 CARGO_HTTP_TIMEOUT=10 \
        cargo fetch --quiet --manifest-path "$manifest" 2>/dev/null; then
        deps=registry
    else
        deps=stubs
    fi
fi
flags=(--offline --manifest-path "$manifest")
case "$deps" in
    registry) ;;
    stubs)
        for crate in bytes crossbeam parking_lot rand; do
            flags+=(--config "patch.crates-io.$crate.path=\"$here/stubs/$crate\"")
        done
        ;;
    *)
        echo "COSOFT_BENCH_DEPS must be auto, registry or stubs, not $deps" >&2
        exit 2
        ;;
esac
export COSOFT_BENCH_DEPS="$deps"

if [ "${1:-}" = test ]; then
    shift
    exec cargo test "${flags[@]}" "$@"
fi

# CARGO_TARGET_DIR is honoured if set.
cargo build --release --quiet "${flags[@]}" >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/cosoft-benchmark" "$@"
