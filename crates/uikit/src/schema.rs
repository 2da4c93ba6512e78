//! Per-widget-kind attribute schemas.
//!
//! Each widget kind declares its attribute set with default values, the
//! subset of *relevant* attributes ("those that have to be shared (i.e.
//! made identical) when instances of these types are coupled", §3.1), and
//! the callback events the kind emits. Application-defined widget classes
//! register their own schemas in a [`SchemaRegistry`].

use std::collections::HashMap;
use std::sync::OnceLock;

use cosoft_wire::{AttrName, EventKind, Value, WidgetKind};

use crate::UiError;

/// Declared type of one attribute with its default value.
#[derive(Debug, Clone, PartialEq)]
pub struct AttrSpec {
    /// The attribute name.
    pub name: AttrName,
    /// Default value; its variant also fixes the attribute's type.
    pub default: Value,
    /// Whether the attribute must be made identical between coupled
    /// objects of this kind.
    pub relevant: bool,
}

impl AttrSpec {
    fn new(name: AttrName, default: Value, relevant: bool) -> Self {
        AttrSpec { name, default, relevant }
    }
}

/// Schema of one widget kind.
#[derive(Debug, Clone, PartialEq)]
pub struct WidgetSchema {
    /// The widget kind this schema describes.
    pub kind: WidgetKind,
    /// All attributes with defaults, in declaration order.
    pub attrs: Vec<AttrSpec>,
    /// Callback events this kind emits.
    pub events: Vec<EventKind>,
    /// Whether widgets of this kind accept children.
    pub container: bool,
}

impl WidgetSchema {
    /// Looks up an attribute spec by name.
    pub fn attr(&self, name: &AttrName) -> Option<&AttrSpec> {
        self.attrs.iter().find(|a| &a.name == name)
    }

    /// Names of the relevant (couplable) attributes.
    pub fn relevant_attrs(&self) -> impl Iterator<Item = &AttrName> {
        self.attrs.iter().filter(|a| a.relevant).map(|a| &a.name)
    }

    /// Whether the widget kind emits `event`.
    pub fn emits(&self, event: &EventKind) -> bool {
        matches!(event, EventKind::Custom(_)) || self.events.contains(event)
    }

    /// Validates that `value` matches the declared type of `name`.
    ///
    /// # Errors
    ///
    /// [`UiError::InvalidAttr`] if the attribute is not declared,
    /// [`UiError::TypeMismatch`] if the value has the wrong variant.
    pub fn validate(&self, name: &AttrName, value: &Value) -> Result<(), UiError> {
        let spec = self
            .attr(name)
            .ok_or_else(|| UiError::InvalidAttr { kind: self.kind.clone(), attr: name.clone() })?;
        if !spec.default.same_type(value) {
            return Err(UiError::TypeMismatch {
                attr: name.clone(),
                expected: spec.default.type_name(),
                actual: value.type_name(),
            });
        }
        Ok(())
    }
}

fn geometry() -> Vec<AttrSpec> {
    vec![
        AttrSpec::new(AttrName::X, Value::Int(0), false),
        AttrSpec::new(AttrName::Y, Value::Int(0), false),
        AttrSpec::new(AttrName::Width, Value::Int(10), false),
        AttrSpec::new(AttrName::Height, Value::Int(1), false),
        AttrSpec::new(AttrName::Enabled, Value::Bool(true), false),
        AttrSpec::new(AttrName::Visible, Value::Bool(true), false),
        AttrSpec::new(AttrName::Foreground, Value::Color(0, 0, 0), false),
        AttrSpec::new(AttrName::Background, Value::Color(255, 255, 255), false),
        AttrSpec::new(AttrName::Font, Value::Text("fixed".into()), false),
    ]
}

fn with_geometry(mut extra: Vec<AttrSpec>) -> Vec<AttrSpec> {
    let mut v = geometry();
    v.append(&mut extra);
    v
}

/// The builtin schema for `kind`, or `None` for custom kinds. The table
/// is built once, on first use.
pub fn builtin_schema(kind: &WidgetKind) -> Option<&'static WidgetSchema> {
    static TABLE: OnceLock<Vec<WidgetSchema>> = OnceLock::new();
    TABLE.get_or_init(builtin_table).iter().find(|s| &s.kind == kind)
}

/// Every builtin kind's schema.
fn builtin_table() -> Vec<WidgetSchema> {
    vec![
        WidgetSchema {
            kind: WidgetKind::Form,
            attrs: with_geometry(vec![AttrSpec::new(
                AttrName::Title,
                Value::Text(String::new()),
                true,
            )]),
            events: vec![],
            container: true,
        },
        WidgetSchema {
            kind: WidgetKind::Panel,
            attrs: with_geometry(vec![AttrSpec::new(
                AttrName::Title,
                Value::Text(String::new()),
                false,
            )]),
            events: vec![],
            container: true,
        },
        WidgetSchema {
            kind: WidgetKind::Button,
            attrs: with_geometry(vec![AttrSpec::new(
                AttrName::Title,
                Value::Text(String::new()),
                false,
            )]),
            events: vec![EventKind::Activate],
            container: false,
        },
        WidgetSchema {
            kind: WidgetKind::ToggleButton,
            attrs: with_geometry(vec![
                AttrSpec::new(AttrName::Title, Value::Text(String::new()), false),
                AttrSpec::new(AttrName::Checked, Value::Bool(false), true),
            ]),
            events: vec![EventKind::Toggled],
            container: false,
        },
        WidgetSchema {
            kind: WidgetKind::Menu,
            attrs: with_geometry(vec![
                AttrSpec::new(AttrName::Items, Value::TextList(Vec::new()), true),
                AttrSpec::new(AttrName::Selected, Value::Int(-1), true),
            ]),
            events: vec![EventKind::SelectionChanged],
            container: false,
        },
        WidgetSchema {
            kind: WidgetKind::TextField,
            attrs: with_geometry(vec![AttrSpec::new(
                AttrName::Text,
                Value::Text(String::new()),
                true,
            )]),
            events: vec![EventKind::TextCommitted, EventKind::TextEdited],
            container: false,
        },
        WidgetSchema {
            kind: WidgetKind::TextArea,
            attrs: with_geometry(vec![AttrSpec::new(
                AttrName::Text,
                Value::Text(String::new()),
                true,
            )]),
            events: vec![EventKind::TextCommitted, EventKind::TextEdited],
            container: false,
        },
        WidgetSchema {
            kind: WidgetKind::Label,
            attrs: with_geometry(vec![AttrSpec::new(
                AttrName::Text,
                Value::Text(String::new()),
                true,
            )]),
            events: vec![],
            container: false,
        },
        WidgetSchema {
            kind: WidgetKind::List,
            attrs: with_geometry(vec![
                AttrSpec::new(AttrName::Items, Value::TextList(Vec::new()), true),
                AttrSpec::new(AttrName::Selected, Value::Int(-1), true),
            ]),
            events: vec![EventKind::SelectionChanged, EventKind::RowActivated],
            container: false,
        },
        WidgetSchema {
            kind: WidgetKind::Slider,
            attrs: with_geometry(vec![
                AttrSpec::new(AttrName::ValueNum, Value::Float(0.0), true),
                AttrSpec::new(AttrName::Min, Value::Float(0.0), false),
                AttrSpec::new(AttrName::Max, Value::Float(1.0), false),
            ]),
            events: vec![EventKind::ValueChanged],
            container: false,
        },
        WidgetSchema {
            kind: WidgetKind::Canvas,
            attrs: with_geometry(vec![AttrSpec::new(
                AttrName::Strokes,
                Value::StrokeList(Vec::new()),
                true,
            )]),
            events: vec![EventKind::StrokeAdded, EventKind::CanvasCleared],
            container: false,
        },
        WidgetSchema {
            kind: WidgetKind::Table,
            attrs: with_geometry(vec![
                AttrSpec::new(AttrName::custom("columns"), Value::TextList(Vec::new()), true),
                AttrSpec::new(AttrName::custom("rows"), Value::TextList(Vec::new()), true),
                AttrSpec::new(AttrName::Selected, Value::Int(-1), true),
            ]),
            events: vec![EventKind::RowActivated, EventKind::SelectionChanged],
            container: false,
        },
    ]
}

/// Registry resolving widget kinds to schemas, with support for
/// application-defined custom widget classes.
#[derive(Debug, Clone, Default)]
pub struct SchemaRegistry {
    custom: HashMap<String, WidgetSchema>,
}

impl SchemaRegistry {
    /// Creates a registry containing only the builtin schemas.
    pub fn new() -> Self {
        SchemaRegistry::default()
    }

    /// Registers (or replaces) the schema of a custom widget class.
    pub fn register(&mut self, schema: WidgetSchema) {
        if let WidgetKind::Custom(name) = &schema.kind {
            self.custom.insert(name.clone(), schema);
        }
    }

    /// The registered schema of a custom kind; `None` for a builtin kind
    /// (see [`SchemaRegistry::resolve`]) and for an unregistered custom
    /// one, which the widget tree then treats permissively: any attribute
    /// is accepted and relevant, and its containment is
    /// [`WidgetKind::is_container`]'s.
    pub fn schema(&self, kind: &WidgetKind) -> Option<&WidgetSchema> {
        match kind {
            WidgetKind::Custom(name) => self.custom.get(name),
            _ => None,
        }
    }

    /// Resolves a schema, falling back to the builtin table.
    pub fn resolve(&self, kind: &WidgetKind) -> Option<&WidgetSchema> {
        self.schema(kind).or_else(|| builtin_schema(kind))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_builtin_kind_has_schema() {
        for kind in [
            WidgetKind::Form,
            WidgetKind::Panel,
            WidgetKind::Button,
            WidgetKind::ToggleButton,
            WidgetKind::Menu,
            WidgetKind::TextField,
            WidgetKind::TextArea,
            WidgetKind::Label,
            WidgetKind::List,
            WidgetKind::Slider,
            WidgetKind::Canvas,
            WidgetKind::Table,
        ] {
            let s = builtin_schema(&kind).unwrap_or_else(|| panic!("{kind} missing"));
            assert_eq!(s.kind, kind);
            assert!(!s.attrs.is_empty());
        }
    }

    #[test]
    fn relevant_attrs_match_paper_examples() {
        // "two text input fields may have different size and fonts, but
        // just share the same content" (§3.1)
        let tf = builtin_schema(&WidgetKind::TextField).unwrap();
        let relevant: Vec<_> = tf.relevant_attrs().collect();
        assert_eq!(relevant, vec![&AttrName::Text]);
        assert!(!tf.attr(&AttrName::Width).unwrap().relevant);
        assert!(!tf.attr(&AttrName::Font).unwrap().relevant);
    }

    #[test]
    fn validate_accepts_correct_type() {
        let s = builtin_schema(&WidgetKind::Slider).unwrap();
        assert!(s.validate(&AttrName::ValueNum, &Value::Float(0.4)).is_ok());
    }

    #[test]
    fn validate_rejects_wrong_type() {
        let s = builtin_schema(&WidgetKind::Slider).unwrap();
        let err = s.validate(&AttrName::ValueNum, &Value::Int(1)).unwrap_err();
        assert!(matches!(err, UiError::TypeMismatch { .. }));
    }

    #[test]
    fn validate_rejects_undeclared_attr() {
        let s = builtin_schema(&WidgetKind::Button).unwrap();
        let err = s.validate(&AttrName::Checked, &Value::Bool(true)).unwrap_err();
        assert!(matches!(err, UiError::InvalidAttr { .. }));
    }

    #[test]
    fn custom_events_always_allowed() {
        let s = builtin_schema(&WidgetKind::Label).unwrap();
        assert!(s.emits(&EventKind::Custom("poke".into())));
        assert!(!s.emits(&EventKind::Activate));
    }

    #[test]
    fn registry_resolves_custom_kinds() {
        let mut reg = SchemaRegistry::new();
        let kind = WidgetKind::Custom("simview".into());
        reg.register(WidgetSchema {
            kind: kind.clone(),
            attrs: vec![AttrSpec::new(AttrName::custom("speed"), Value::Float(1.0), true)],
            events: vec![EventKind::ValueChanged],
            container: false,
        });
        let s = reg.resolve(&kind).unwrap();
        assert_eq!(s.attrs.len(), 1);
        assert!(reg.resolve(&WidgetKind::Custom("unknown".into())).is_none());
        // Builtins still resolve through the registry.
        assert!(reg.resolve(&WidgetKind::Button).is_some());
    }
}
