//! COSOFT — flexible communication in heterogeneous multi-user environments.
//!
//! Facade crate re-exporting the whole workspace. See the README for the
//! architecture overview and `examples/` for runnable scenarios.
//!
//! # Fault injection stays out of a build that did not ask for it
//!
//! The chaos tests instrument a host's sockets through
//! `cosoft::net::FaultInjector`, which exists only under the
//! `fault-injection` feature. This names it, and builds exactly when the
//! feature was asked for on the command line — so `cargo test` fails if
//! a default feature of this crate or of `cosoft-net`, or a dependency
//! declaration anywhere in the build, turns the feature on by itself,
//! and `cargo test --features fault-injection` fails if the feature no
//! longer reaches `cosoft-net`:
//!
#![cfg_attr(feature = "fault-injection", doc = "```")]
#![cfg_attr(not(feature = "fault-injection"), doc = "```compile_fail")]
//! use cosoft::net::FaultInjector;
//! ```

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
