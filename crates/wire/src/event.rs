use std::fmt;

use crate::{ObjectPath, Value};

named! {
    /// Kind of a high-level callback event.
    ///
    /// The paper's synchronization unit is the *high-level callback event* of a
    /// UI object ("pressing of push button object, entering and deleting of
    /// characters", §3.4) — not raw X events. Each kind corresponds to one
    /// callback slot of the toolkit.
    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    pub enum EventKind: "EventKind" {
        /// A button was activated (pressed and released).
        Activate = 0, "activate",
        /// A ranged widget's numeric value changed; param 0 is the new value.
        ValueChanged = 1, "value-changed",
        /// A text widget's content was committed (focus-out / Enter);
        /// param 0 is the full new text.
        TextCommitted = 2, "text-committed",
        /// A single edit inside a text widget (fine-grained mode); params are
        /// the caret position and the inserted text (empty = deletion of one
        /// character at the position).
        TextEdited = 3, "text-edited",
        /// A list/menu selection changed; param 0 is the new selected index.
        SelectionChanged = 4, "selection-changed",
        /// A toggle button flipped; param 0 is the new boolean state.
        Toggled = 5, "toggled",
        /// A stroke was added to a canvas; param 0 is the stroke.
        StrokeAdded = 6, "stroke-added",
        /// A canvas was cleared.
        CanvasCleared = 7, "canvas-cleared",
        /// A table row was activated; param 0 is the row index.
        RowActivated = 8, "row-activated";
        /// Application-defined callback.
        Custom(String) = 255,
    }
}

record! {
    /// A high-level callback event on one UI object.
    ///
    /// "Whenever an event occurs on one of the coupled objects, this event
    /// packed with some parameters is sent to the server. Then the server
    /// broadcasts this message to the application instances where it is
    /// unpacked and re-executed." (§3.2)
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct UiEvent {
        /// Path of the object the event occurred on, within its instance.
        pub path: ObjectPath,
        /// The callback kind.
        pub kind: EventKind,
        /// Packed event parameters (new value, stroke, index, ...).
        pub params: Vec<Value>,
    }
}

impl UiEvent {
    /// Creates an event with parameters.
    pub fn new(path: ObjectPath, kind: EventKind, params: Vec<Value>) -> Self {
        UiEvent { path, kind, params }
    }

    /// Creates a parameterless event.
    pub fn simple(path: ObjectPath, kind: EventKind) -> Self {
        UiEvent { path, kind, params: Vec::new() }
    }

    /// Returns the event re-targeted at another object path.
    ///
    /// Used during multiple execution: an event that occurred on object
    /// `o` is re-executed on every member of `CO(o)`, whose pathnames
    /// differ per instance.
    pub fn retarget(&self, path: ObjectPath) -> UiEvent {
        UiEvent { path, kind: self.kind.clone(), params: self.params.clone() }
    }
}

impl fmt::Display for UiEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.kind, self.path)?;
        if !self.params.is_empty() {
            write!(f, "(")?;
            for (i, p) in self.params.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{p}")?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retarget_preserves_kind_and_params() {
        let e = UiEvent::new(
            ObjectPath::parse("a.b").unwrap(),
            EventKind::ValueChanged,
            vec![Value::Int(5)],
        );
        let r = e.retarget(ObjectPath::parse("x.y").unwrap());
        assert_eq!(r.kind, EventKind::ValueChanged);
        assert_eq!(r.params, e.params);
        assert_eq!(r.path.to_string(), "x.y");
    }

    #[test]
    fn display_includes_params() {
        let e = UiEvent::new(
            ObjectPath::parse("f.s").unwrap(),
            EventKind::ValueChanged,
            vec![Value::Int(5), Value::Bool(true)],
        );
        assert_eq!(e.to_string(), "value-changed@f.s(5, true)");
        let s = UiEvent::simple(ObjectPath::parse("f.b").unwrap(), EventKind::Activate);
        assert_eq!(s.to_string(), "activate@f.b");
    }

    #[test]
    fn kind_str_forms_are_distinct() {
        use std::collections::HashSet;
        let kinds = [
            EventKind::Activate,
            EventKind::ValueChanged,
            EventKind::TextCommitted,
            EventKind::TextEdited,
            EventKind::SelectionChanged,
            EventKind::Toggled,
            EventKind::StrokeAdded,
            EventKind::CanvasCleared,
            EventKind::RowActivated,
        ];
        let set: HashSet<&str> = kinds.iter().map(|k| k.as_str()).collect();
        assert_eq!(set.len(), kinds.len());
    }
}
