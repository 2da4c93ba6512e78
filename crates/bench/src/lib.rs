//! `cosoft-bench` — regenerates every figure and table of the paper
//! (DESIGN.md §3 maps experiment ids to modules).
//!
//! * [`figures`] computes the paper-style series (virtual-time latencies,
//!   wire bytes, rejection counts) shared by the criterion benches and
//!   the printer binaries, plus the two live counter tables;
//! * [`report`] renders plain-text tables.
//!
//! Run `cargo bench --workspace` for everything, or
//! `cargo run -p cosoft-bench --bin table1` / `--bin figures` for just
//! the paper-style reports. Nothing here times the system: the
//! end-to-end benchmark of record is the `benchmark/` package.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod figures;
pub mod report;
