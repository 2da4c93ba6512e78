//! `cosoft-benchmark`: the end-to-end benchmark of record for the
//! coupled-event journey, with a per-layer latency budget.
//!
//! One generator thread drives real `Session`s over raw loopback sockets
//! against the real `TcpServer` in closed loops, checks the paper's
//! convergence criterion, and reports end-to-end metrics (tracing off)
//! and per-layer metrics (counters, spans recorded from outside the
//! program, probes). See `README.md` for the glossary and the rules for
//! comparing two commits.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod driver;
pub mod host;
pub mod json;
pub mod metrics;
pub mod report;
pub mod rng;
pub mod stats;
pub mod suite;
pub mod sut;
pub mod trace;
pub mod workload;
