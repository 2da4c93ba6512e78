//! `cosoft-server` — the COSOFT central communication server (§2.2,
//! Figure 4 of Zhao & Hoppe, ICDCS 1994).
//!
//! "A central controller (the server) coordinates the communication and
//! access control. A centralized database residing on the server consists
//! of four categories of data: the access permissions, the registration
//! records, the historical UI states, and the lock table."
//!
//! The state machine ([`ServerCore`]) is sans-I/O and generic over the
//! endpoint key, so the same core runs on the deterministic simulated
//! network and over real TCP (see `cosoft-net`).

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
// An order that reaches an output must come from a source, not from a
// hash map's random keys; a loop whose order provably does not leak says
// why on the site (DESIGN.md §7.1).
#![deny(clippy::iter_over_hash_type)]

mod access;
mod couple;
mod history;
mod locks;
mod overload;
mod registry;
mod server;
mod shard;

pub use cosoft_wire::MessageClass;
pub use couple::CoupleDirectory;
pub use history::HistoryStore;
pub use locks::{ExecId, LockTable};
pub use overload::{approx_cost, OverloadConfig, Verdict};
pub use registry::Registry;
pub use server::{ComponentSlice, Delivery, LivenessConfig, Outgoing, ServerCore, ServerStats};
pub use shard::{RouterStats, ShardRouter};
