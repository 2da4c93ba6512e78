//! `cosoft-bench` — regenerates every figure and table of the paper
//! (DESIGN.md §3 maps experiment ids to modules).
//!
//! * [`figures`] computes the paper-style series (virtual-time latencies,
//!   wire bytes, rejection counts) the printer binaries show, plus the
//!   two live counter tables;
//! * [`report`] renders plain-text tables.
//!
//! Run `cargo run -p cosoft-bench --bin figures` for everything, or
//! `--bin table1` for just Table 1. Nothing here times the system — L5,
//! the one wall-clock table, times three library calls and asserts
//! nothing: the end-to-end benchmark of record is the `benchmark/`
//! package.

pub mod figures;
pub mod report;
