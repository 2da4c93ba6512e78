//! `cosoft-net` — network substrates for the COSOFT reproduction.
//!
//! Two carriers for the same [`cosoft_wire::Message`] protocol:
//!
//! * [`sim`] — a deterministic discrete-event simulated network with a
//!   virtual microsecond clock that delivers what a TCP connection does:
//!   FIFO links with seeded jitter, outages and connection resets. The
//!   figures and most tests run here, replacing the paper's 1994 LAN
//!   with a reproducible substrate.
//! * [`tcp`] — real sockets (`std::net`, the crate's own [`queue`]) so the same
//!   server and client logic also runs end-to-end over TCP. The host is
//!   readiness-driven: a fixed pool of poll threads owns every accepted
//!   socket (the internal `poll` module), so connection count adds
//!   state, not threads.
//!
//! The server and client cores are written sans-I/O (they map an incoming
//! message to outgoing messages) so both carriers drive identical logic.

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

/// Deterministic fault injection for the TCP transport (scripted and
/// seeded-random partial writes, short reads, `WouldBlock` storms,
/// injected socket errors). The module is always compiled so the poll
/// pool needs no `cfg` plumbing, but its constructors — and
/// [`tcp::TcpHost::bind_with_faults`] — only exist behind the
/// non-default `fault-injection` cargo feature: a release build has no
/// way to instrument a host.
#[cfg(feature = "fault-injection")]
pub mod fault;
#[cfg(not(feature = "fault-injection"))]
pub(crate) mod fault;
pub(crate) mod lock;
pub(crate) mod poll;
pub mod queue;
pub mod sim;
pub mod tcp;

#[cfg(feature = "fault-injection")]
pub use fault::{FaultInjector, ReadFault, WriteFault};
pub use sim::{Delivery, FaultPlan, NetStats, NodeId, SimNet};
pub use tcp::{
    ConnId, NetEvent, RecvError, TcpClient, TcpHost, TcpHostConfig, TcpStats, TcpStatsHandle,
};
