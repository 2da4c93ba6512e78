//! `cosoft-core` — the paper's primary contribution: flexible coupling of
//! arbitrary UI objects between heterogeneous application instances
//! (Zhao & Hoppe, ICDCS 1994).
//!
//! * [`compat`] — direct compatibility, declared correspondences,
//!   s-compatibility, destructive merging and flexible matching (§3.3);
//! * [`semantic`] — application store/load hooks carrying semantic state
//!   along with UI state (§3.1);
//! * [`session`] — the client runtime: event interception and multiple
//!   execution (§3.2), state transfers (`CopyFrom` / `CopyTo` /
//!   `RemoteCopy`, §3.1), locally replicated coupling information,
//!   `RemoteCouple`/`RemoteDecouple` (§3.3) and the `CoSendCommand`
//!   protocol extension (§3.4);
//! * [`harness`] — a deterministic simulation harness wiring sessions and
//!   the server onto `cosoft-net`'s virtual-time network.
//!
//! # Example: coupling two text fields across instances
//!
//! ```
//! use cosoft_core::harness::SimHarness;
//! use cosoft_core::session::Session;
//! use cosoft_uikit::{spec, Toolkit};
//! use cosoft_wire::{AttrName, EventKind, ObjectPath, UiEvent, UserId, Value};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut h = SimHarness::new(1);
//! let spec_src = r#"form f { textfield t text="" }"#;
//! let a = h.add_session(Session::new(
//!     Toolkit::from_tree(spec::build_tree(spec_src)?), UserId(1), "ws1", "demo"));
//! let b = h.add_session(Session::new(
//!     Toolkit::from_tree(spec::build_tree(spec_src)?), UserId(2), "ws2", "demo"));
//! h.settle(); // both register
//!
//! // Couple a's field to b's field, then type into a.
//! let path = ObjectPath::parse("f.t")?;
//! let remote = h.session(b).gid(&path)?;
//! h.session_mut(a).couple(&path, remote)?;
//! h.settle();
//! h.session_mut(a).user_event(UiEvent::new(
//!     path.clone(), EventKind::TextCommitted, vec![Value::Text("hello".into())]))?;
//! h.settle();
//!
//! // The event was re-executed in b.
//! let tree = h.session(b).toolkit().tree();
//! let id = tree.resolve(&path).unwrap();
//! assert_eq!(tree.attr(id, &AttrName::Text)?, &Value::Text("hello".into()));
//! # Ok(())
//! # }
//! ```

// An order that reaches an output must come from a source, not from a
// hash map's random keys (DESIGN.md §7.1).
#![deny(clippy::iter_over_hash_type)]

pub mod compat;
pub mod harness;
pub mod semantic;
pub mod session;

pub use compat::{
    apply_destructive, apply_flexible, apply_recorded, apply_strict, check_s_compatible, Applied,
    ApplyReport, CompatError, CorrespondenceTable,
};
pub use harness::{SimHarness, SERVER_NODE};
pub use semantic::{LoadFn, SemanticHooks, StoreFn};
pub use session::{CommandHandler, Session, SessionError, SessionEvent};
