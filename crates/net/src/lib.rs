//! `cosoft-net` — network substrates for the COSOFT reproduction.
//!
//! Two carriers for the same [`cosoft_wire::Message`] protocol:
//!
//! * [`sim`] — a deterministic discrete-event simulated network with a
//!   virtual microsecond clock that delivers what a TCP connection does:
//!   FIFO links with seeded jitter, outages and connection resets. The
//!   figures and most tests run here, replacing the paper's 1994 LAN
//!   with a reproducible substrate.
//! * [`tcp`] — real sockets (`std::net`) so the same server and client
//!   logic also runs end-to-end over TCP. A fixed pool of poll threads
//!   owns every socket of a host (the internal `poll` module), so
//!   connection count adds state, not threads; a host given a turn (the
//!   server's dispatch step) runs it on its first poll thread. A client
//!   starts no thread, and each of its calls does its I/O on the calling
//!   thread.
//!   What one thread tells another goes through the crate's one
//!   mailbox, [`tcp::Inbox`]: a poll thread's commands, a host's
//!   connection events and a reconnecting client's lifecycle events.
//!
//! The server and client cores are written sans-I/O (they map an incoming
//! message to outgoing messages) so both carriers drive identical logic.
//! The TCP byte path is too, at its two ends: a connection's outbox
//! writes into any `io::Write` and its frame reader takes bytes in any
//! chunks, so the `poll` module's unit tests cut writes, refuse them
//! with `WouldBlock` and split reads at every offset with no socket.

// No panic in what a socket can reach: clippy refuses these in the
// crate's non-test code, and each exception is an `#[expect]` on the
// site with the invariant that makes it infallible. Nor does an order
// that reaches an output come from a hash map's keys (DESIGN.md §7.1).
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
#![deny(clippy::iter_over_hash_type)]

pub(crate) mod lock;
pub(crate) mod poll;
pub mod sim;
pub mod tcp;

pub use sim::{Delivery, FaultPlan, NetStats, NodeId, SimNet};
pub use tcp::{
    ConnId, NetEvent, RecvError, TcpClient, TcpHost, TcpHostConfig, TcpStats, TcpStatsHandle,
};
