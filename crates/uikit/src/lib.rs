//! `cosoft-uikit` — a headless UI toolkit standing in for the CENTER/Motif
//! toolbox the paper extends.
//!
//! The coupling model of Zhao & Hoppe (ICDCS 1994) operates entirely on the
//! toolkit's *event-callback* and *attribute* layers; pixels are
//! irrelevant to it. This crate therefore provides:
//!
//! * a typed widget tree ([`WidgetTree`]) addressed by hierarchical
//!   pathnames, with per-kind attribute [`schema`]s that declare the
//!   *relevant* (couplable) attributes of §3.1,
//! * high-level callback events with separately undoable *syntactic
//!   feedback* ([`feedback`]) — the hook the paper's floor-control
//!   rollback needs,
//! * a callback registry and phased event delivery ([`Toolkit`]),
//! * a declarative UI-spec language ([`spec`]) standing in for CENTER's
//!   interactive builder, and
//! * a headless text renderer ([`render`]).
//!
//! # Example
//!
//! ```
//! use cosoft_uikit::{spec, Toolkit};
//! use cosoft_wire::{AttrName, EventKind, ObjectPath, UiEvent, Value};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let tree = spec::build_tree(r#"
//!     form root title="Demo" {
//!       textfield name text=""
//!     }
//! "#)?;
//! let mut tk = Toolkit::from_tree(tree);
//! let path = ObjectPath::parse("root.name")?;
//! tk.deliver(&UiEvent::new(
//!     path.clone(),
//!     EventKind::TextCommitted,
//!     vec![Value::Text("Hoppe".into())],
//! ))?;
//! let id = tk.tree().resolve(&path).unwrap();
//! assert_eq!(tk.tree().attr(id, &AttrName::Text)?, &Value::Text("Hoppe".into()));
//! # Ok(())
//! # }
//! ```

mod error;
pub mod feedback;
pub mod render;
pub mod schema;
pub mod spec;
mod toolkit;
mod tree;

pub use error::UiError;
pub use feedback::FeedbackUndo;
pub use schema::{builtin_schema, AttrSpec, SchemaRegistry, WidgetSchema};
pub use toolkit::{Callback, Toolkit};
pub use tree::{Widget, WidgetId, WidgetTree};
