//! Overload-control benchmark runner: fixed well-behaved workload
//! against a 1×/4×/16× flooder under `OverloadConfig` admission, on the
//! virtual clock. Writes `BENCH_overload.json` into the working
//! directory.
//!
//! `cargo run --release -p cosoft-bench --bin overload` for the full
//! measurement; pass `--smoke` (as CI does) for a shorter run that
//! still produces every series, written under `target/bench/`
//! instead. The workload is deterministic — no
//! sockets, no threads — so smoke and full runs differ only in window
//! count.

use cosoft_bench::overload::{self, MULTIPLIERS};
use cosoft_bench::report::{print_table, write_report};

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let windows: u64 = if smoke { 20 } else { 200 };

    let samples = overload::run(&MULTIPLIERS, windows);

    let rows: Vec<Vec<String>> = samples
        .iter()
        .map(|s| {
            vec![
                format!("{}x", s.multiplier),
                s.windows.to_string(),
                s.offered_flood.to_string(),
                s.deliveries.to_string(),
                format!("{:.0}", s.deliveries_per_vsec),
                format!("{:.2}", s.shed_rate),
                s.busy_replies.to_string(),
                s.evictions.to_string(),
                s.busy_before_evict().to_string(),
            ]
        })
        .collect();
    print_table(
        "Overload control: well-behaved goodput vs flooder offered load",
        &[
            "flood",
            "windows",
            "offered",
            "deliveries",
            "del/vsec",
            "shed rate",
            "busy",
            "evict",
            "busy<evict",
        ],
        &rows,
    );

    let json = overload::to_json(&samples, smoke);
    write_report("overload", &json, samples.len(), smoke);
}
