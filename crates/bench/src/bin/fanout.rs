//! Fan-out throughput benchmark runner: drives the encode-once
//! broadcast path at group sizes 2/8/32/128 and writes
//! `BENCH_fanout.json` next to the working directory.
//!
//! `cargo run --release -p cosoft-bench --bin fanout` for the full
//! measurement; pass `--smoke` (as CI does) for a seconds-scale run
//! that still produces every series, written under `target/bench/`
//! instead.

use cosoft_bench::fanout::{self, GROUP_SIZES};
use cosoft_bench::report::{print_table, write_report};

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let rounds: u64 = if smoke { 64 } else { 4096 };
    let payload_len = 4 * 1024;

    let samples = fanout::run(&GROUP_SIZES, rounds, payload_len);

    let rows: Vec<Vec<String>> = samples
        .iter()
        .map(|s| {
            vec![
                s.group.to_string(),
                s.rounds.to_string(),
                format!("{:.0}", s.messages_per_sec),
                s.bytes_encoded.to_string(),
                s.bytes_delivered.to_string(),
                s.allocations_saved.to_string(),
            ]
        })
        .collect();
    print_table(
        "Fan-out throughput: encode-once shared-frame broadcast",
        &["group", "rounds", "msgs/sec", "bytes encoded", "bytes delivered", "allocs saved"],
        &rows,
    );

    let json = fanout::to_json(&samples, smoke, payload_len);
    write_report("fanout", &json, samples.len(), smoke);
}
