//! Connection-scaling benchmark runner: drives the group fan-out
//! workload over 100/1 000/5 000 concurrent TCP connections on a fixed
//! 2-thread host poll pool and writes `BENCH_connscale.json` into the
//! working directory.
//!
//! `cargo run --release -p cosoft-bench --bin connscale` for the full
//! measurement; pass `--smoke` (as CI does) for a seconds-scale run
//! that still produces every series, written under `target/bench/`
//! instead. Needs ~2 fds per connection — the
//! 5 000-conn series wants `ulimit -n` ≥ 10 512 and is skipped (loudly)
//! when the limit is lower.

use cosoft_bench::connscale::{self, CONN_COUNTS};
use cosoft_bench::report::{print_table, write_report};

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let rounds: u64 = if smoke { 2 } else { 16 };

    let fd_limit = connscale::max_open_files();
    let counts: Vec<usize> = CONN_COUNTS
        .iter()
        .copied()
        .filter(|&conns| match fd_limit {
            Some(limit) if connscale::fd_budget(conns) > limit => {
                eprintln!(
                    "skipping {conns}-connection series: needs ~{} fds, `ulimit -n` is {limit}",
                    connscale::fd_budget(conns)
                );
                false
            }
            _ => true,
        })
        .collect();

    let samples = connscale::run(&counts, rounds);

    let rows: Vec<Vec<String>> = samples
        .iter()
        .map(|s| {
            vec![
                s.conns.to_string(),
                s.groups.to_string(),
                s.io_threads.to_string(),
                s.rounds.to_string(),
                s.deliveries.to_string(),
                format!("{:.0}", s.deliveries_per_sec),
                s.p50_us.to_string(),
                s.p99_us.to_string(),
            ]
        })
        .collect();
    print_table(
        "Connection scaling: group fan-out on a fixed 2-thread poll pool",
        &["conns", "groups", "io thr", "rounds", "deliveries", "del/sec", "p50 µs", "p99 µs"],
        &rows,
    );

    let json = connscale::to_json(&samples, smoke);
    write_report("connscale", &json, samples.len(), smoke);
}
