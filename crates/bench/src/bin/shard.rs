//! Shard-scaling benchmark runner: drives the fixed disjoint-group
//! command workload over 1/2/4/8 shard cores (one thread per shard)
//! and writes `BENCH_shard.json` into the working directory.
//!
//! `cargo run --release -p cosoft-bench --bin shard` for the full
//! measurement; pass `--smoke` (as CI does) for a seconds-scale run
//! that still produces every series, written under `target/bench/`
//! instead.

use cosoft_bench::report::{print_table, write_report};
use cosoft_bench::shard::{self, SHARD_COUNTS};

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let rounds: u64 = if smoke { 32 } else { 2048 };
    let payload_len = 1024;

    let samples = shard::run(&SHARD_COUNTS, rounds, payload_len);

    let base = samples[0].messages_per_sec.max(1e-9);
    let rows: Vec<Vec<String>> = samples
        .iter()
        .map(|s| {
            vec![
                s.shards.to_string(),
                s.groups.to_string(),
                s.rounds.to_string(),
                s.deliveries.to_string(),
                format!("{:.0}", s.messages_per_sec),
                format!("{:.2}x", s.messages_per_sec / base),
            ]
        })
        .collect();
    print_table(
        "Shard scaling: aggregate delivery throughput, disjoint groups",
        &["shards", "groups", "rounds", "deliveries", "msgs/sec", "vs 1 shard"],
        &rows,
    );

    let json = shard::to_json(&samples, smoke, payload_len);
    write_report("shard", &json, samples.len(), smoke);
}
