//! Wire protocol for the COSOFT flexible UI-coupling system.
//!
//! This crate defines the *vocabulary* shared by every component of the
//! reproduction of Zhao & Hoppe, "Supporting Flexible Communication in
//! Heterogeneous Multi-User Environments" (ICDCS 1994):
//!
//! * identifiers — [`InstanceId`], [`UserId`], [`ObjectPath`] and the
//!   globally unique [`GlobalObjectId`] `<instance-id, pathname>` of §3,
//! * typed attribute values ([`Value`]) and attribute names ([`AttrName`]),
//! * UI-state snapshots ([`StateNode`]) used by synchronization-by-state,
//! * high-level callback events ([`UiEvent`]) used by
//!   synchronization-by-action (multiple execution),
//! * the client↔server [`Message`] set, and
//! * a deterministic binary codec ([`codec`]) with one entry per type,
//!   [`Wire`].
//!
//! The leaves of the codec (varints, strings, blobs, lists, frames) are
//! written by hand, mirroring the era of the paper and keeping the
//! protocol inspectable. Everything above them is declared once, as a
//! table with a row per variant — tag byte and/or canonical name, typed
//! fields in wire order — from which the type itself, its encoder,
//! decoder and checking walk, its name functions and an `ALL` list are
//! derived (`table.rs`); a message kind is a row of the protocol table in
//! `message.rs` in the same way. No tag or name is written twice, the
//! golden vectors (`tests/golden.rs`) pin every row, and
//! `encode ∘ decode = id` is enforced by property tests.
//!
//! # Example
//!
//! ```
//! use cosoft_wire::{Message, ObjectPath, GlobalObjectId, InstanceId, codec};
//!
//! # fn main() -> Result<(), cosoft_wire::WireError> {
//! let msg = Message::Couple {
//!     src: GlobalObjectId::new(InstanceId(1), ObjectPath::parse("root.panel.field")?),
//!     dst: GlobalObjectId::new(InstanceId(2), ObjectPath::parse("root.entry")?),
//! };
//! let bytes = codec::encode_message(&msg);
//! let back = codec::decode_message(&bytes)?;
//! assert_eq!(msg, back);
//! # Ok(())
//! # }
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

#[macro_use]
mod table;

mod bytes;
pub mod codec;
pub mod delta;
mod error;
mod event;
mod id;
mod message;
mod state;
mod value;

pub use bytes::{Bytes, BytesMut};
pub use codec::{EncodedState, SharedFrame, Wire};
pub use delta::{DeltaError, EditOp, NodeEdit, NodePatch, StateDelta};
pub use error::WireError;
pub use event::{EventKind, UiEvent};
pub use id::{GlobalObjectId, InstanceId, ObjectPath, UserId};
pub use message::{
    AccessRight, CopyMode, InstanceInfo, Message, MessageClass, MessageKind, Overwritten, Target,
};
pub use state::{AttrMap, StateNode};
pub use value::{AttrName, Value, WidgetKind};
