//! `cosoft-baselines` — the comparator architectures of §2.1 (Figures
//! 1–3) and the timestamp-ordering alternative, all runnable against the
//! same scripted workloads as the COSOFT system itself.
//!
//! * [`arch::run_multiplex`] — Figure 1, single-instance / SharedX style;
//! * [`arch::run_ui_replicated`] — Figure 2, Suite/Rendezvous style;
//! * [`arch::run_fully_replicated`] — Figure 3/4, the COSOFT model with
//!   partial coupling (analytic);
//! * [`cosoft_live::run_cosoft_live`] — the same architecture driven
//!   through the real protocol stack for cross-validation;
//! * [`timestamp::run_timestamp`] — GROVE-style optimistic
//!   dependency-detection ordering, the paper's cited alternative to
//!   centralized floor control.
//!
//! The benchmark harness (`cosoft-bench`) uses these runners to
//! regenerate the paper's architecture figures and comparison table.

pub mod arch;
pub mod cosoft_live;
pub mod stats;
pub mod timestamp;
pub mod workload;

pub use arch::{run_fully_replicated, run_multiplex, run_ui_replicated, ArchConfig};
pub use cosoft_live::run_cosoft_live;
pub use stats::{ActionKind, ActionSample, RunStats};
pub use timestamp::{run_timestamp, TimestampStats};
pub use workload::{editing_workload, mixed_workload, sketch_workload, WorkAction, Workload};
