//! Delta state-sync benchmark runner: measures bytes-on-wire and
//! transfer latency of attribute-level deltas against full snapshots at
//! tree depths 2/4/6/8 and writes `BENCH_deltasync.json` next to the
//! working directory.
//!
//! `cargo run --release -p cosoft-bench --bin deltasync` for the full
//! measurement; pass `--smoke` (as CI does) for a seconds-scale run
//! that still produces every series, written under `target/bench/`
//! instead.

use cosoft_bench::deltasync::{self, DEPTHS};
use cosoft_bench::report::{print_table, write_report};

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let rounds: u64 = if smoke { 32 } else { 1024 };

    let samples = deltasync::run(&DEPTHS, rounds);

    let rows: Vec<Vec<String>> = samples
        .iter()
        .map(|s| {
            vec![
                s.depth.to_string(),
                s.tree_nodes.to_string(),
                s.snapshot_bytes.to_string(),
                s.delta_bytes.to_string(),
                format!("{:.1}%", 100.0 * s.delta_ratio),
                format!("{:.1}", s.snapshot_us),
                format!("{:.1}", s.delta_us),
            ]
        })
        .collect();
    print_table(
        "Delta state sync: bytes-on-wire and latency vs full snapshots",
        &["depth", "nodes", "snap bytes", "delta bytes", "ratio", "snap us", "delta us"],
        &rows,
    );

    let json = deltasync::to_json(&samples, smoke);
    write_report("deltasync", &json, samples.len(), smoke);
}
