//! COSOFT — flexible communication in heterogeneous multi-user environments.
//!
//! Facade crate re-exporting the whole workspace. See the README for the
//! architecture overview and `examples/` for runnable scenarios.

// No panic in what a socket can reach: clippy refuses these in the
// crate's non-test code, and each exception is an `#[expect]` on the
// site with the invariant that makes it infallible (DESIGN.md §7.1).
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing,
        clippy::allow_attributes_without_reason
    )
)]

pub mod runtime;

pub use cosoft_apps as apps;
pub use cosoft_baselines as baselines;
pub use cosoft_core as core;
pub use cosoft_net as net;
pub use cosoft_retrieval as retrieval;
pub use cosoft_server as server;
pub use cosoft_uikit as uikit;
pub use cosoft_wire as wire;
