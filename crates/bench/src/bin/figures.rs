//! Prints every figure-style series of the reproduction in one go.
//! `cargo run -p cosoft-bench --bin figures`.

use cosoft_bench::figures::*;
use cosoft_bench::report::print_table;

fn main() {
    print_table("Figure 1: multiplex architecture vs population", &FIG1_HEADERS, &fig1_rows());
    print_table(
        "Figure 2/3: semantic-action blocking (UI-replicated vs fully replicated)",
        &FIG23_HEADERS,
        &fig23_rows(),
    );
    print_table(
        "Figure 4: COSOFT coupling-layer costs (live protocol)",
        &FIG4_HEADERS,
        &fig4_rows(),
    );
    print_table("L1: indirect vs direct coupling of dependent displays", &L1_HEADERS, &l1_rows());
    print_table("L2: state copy vs action replay after decoupling", &L2_HEADERS, &l2_rows());
    print_table("L3: multiple evaluation vs evaluate-once-and-share", &L3_HEADERS, &l3_rows());
    print_table("L4: per-commit vs per-keystroke floor control", &L4_HEADERS, &l4_rows());
    print_table("L5: compatibility machinery vs form size (wall clock)", &L5_HEADERS, &l5_rows());
    print_table(
        "Observability: server-core counters (coupling workload, 8 instances)",
        &STATS_HEADERS,
        &server_stats_rows(),
    );
    print_table(
        "Observability: TCP transport counters (live loopback round)",
        &STATS_HEADERS,
        &transport_stats_rows(),
    );
}
