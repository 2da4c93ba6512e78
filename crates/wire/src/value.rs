use std::fmt;

tagged! {
    /// Typed value of a UI-object attribute.
    ///
    /// Every attribute in the toolkit carries one of these variants; the wire
    /// codec encodes them as a tagged union. `Float` values compare by IEEE-754
    /// bit pattern so that `Value` can implement `Eq`/`Hash` (NaN payloads are
    /// preserved end-to-end by the codec).
    #[derive(Debug, Clone)]
    pub enum Value: "Value" {
        /// Boolean attribute (e.g. `enabled`, `checked`).
        Bool = 0 (b: bool),
        /// Integer attribute (e.g. geometry, selection index).
        Int = 1 (i: i64),
        /// Floating-point attribute (e.g. a slider position).
        Float = 2 (x: f64),
        /// Text attribute (e.g. a text field's content).
        Text = 3 (s: String),
        /// List of strings (e.g. menu items).
        TextList = 4 (items: Vec<String>),
        /// List of integers (e.g. multi-selection indices).
        IntList = 5 (items: Vec<i64>),
        /// A 2-D point, used by canvas strokes and geometry.
        Point = 6 (x: i32, y: i32),
        /// An RGB colour.
        Color = 7 (r: u8, g: u8, b: u8),
        /// Opaque bytes (semantic payloads travelling with UI state).
        Bytes = 8 (blob: Vec<u8>),
        /// A polyline stroke on a canvas: flattened `(x, y)` pairs.
        Stroke = 9 (points: Vec<(i32, i32)>),
        /// The full stroke set of a canvas widget.
        StrokeList = 10 (strokes: Vec<Vec<(i32, i32)>>),
    }
}

impl Value {
    /// Returns the contained boolean, if this is `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the contained integer, if this is `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the contained float, if this is `Float`.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// Returns the contained text, if this is `Text`.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the contained string list, if this is `TextList`.
    pub fn as_text_list(&self) -> Option<&[String]> {
        match self {
            Value::TextList(v) => Some(v),
            _ => None,
        }
    }

    /// Returns the contained integer list, if this is `IntList`.
    pub fn as_int_list(&self) -> Option<&[i64]> {
        match self {
            Value::IntList(v) => Some(v),
            _ => None,
        }
    }

    /// Returns the contained bytes, if this is `Bytes`.
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Value::Bytes(b) => Some(b),
            _ => None,
        }
    }

    /// A short name for the variant, used in type-mismatch diagnostics.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Text(_) => "text",
            Value::TextList(_) => "text-list",
            Value::IntList(_) => "int-list",
            Value::Point(_, _) => "point",
            Value::Color(_, _, _) => "color",
            Value::Bytes(_) => "bytes",
            Value::Stroke(_) => "stroke",
            Value::StrokeList(_) => "stroke-list",
        }
    }

    /// Returns `true` if `self` and `other` are the same variant.
    pub fn same_type(&self, other: &Value) -> bool {
        self.type_name() == other.type_name()
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        use Value::*;
        match (self, other) {
            (Bool(a), Bool(b)) => a == b,
            (Int(a), Int(b)) => a == b,
            // Bit-pattern equality: keeps Eq lawful and NaN round-trippable.
            (Float(a), Float(b)) => a.to_bits() == b.to_bits(),
            (Text(a), Text(b)) => a == b,
            (TextList(a), TextList(b)) => a == b,
            (IntList(a), IntList(b)) => a == b,
            (Point(ax, ay), Point(bx, by)) => ax == bx && ay == by,
            (Color(ar, ag, ab), Color(br, bg, bb)) => ar == br && ag == bg && ab == bb,
            (Bytes(a), Bytes(b)) => a == b,
            (Stroke(a), Stroke(b)) => a == b,
            (StrokeList(a), StrokeList(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        use Value::*;
        std::mem::discriminant(self).hash(state);
        match self {
            Bool(b) => b.hash(state),
            Int(i) => i.hash(state),
            Float(x) => x.to_bits().hash(state),
            Text(s) => s.hash(state),
            TextList(v) => v.hash(state),
            IntList(v) => v.hash(state),
            Point(x, y) => {
                x.hash(state);
                y.hash(state);
            }
            Color(r, g, b) => {
                r.hash(state);
                g.hash(state);
                b.hash(state);
            }
            Bytes(b) => b.hash(state),
            Stroke(v) => v.hash(state),
            StrokeList(v) => v.hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Text(s) => write!(f, "{s:?}"),
            Value::TextList(v) => write!(f, "{v:?}"),
            Value::IntList(v) => write!(f, "{v:?}"),
            Value::Point(x, y) => write!(f, "({x}, {y})"),
            Value::Color(r, g, b) => write!(f, "#{r:02x}{g:02x}{b:02x}"),
            Value::Bytes(b) => write!(f, "<{} bytes>", b.len()),
            Value::Stroke(v) => write!(f, "<stroke of {} points>", v.len()),
            Value::StrokeList(v) => write!(f, "<{} strokes>", v.len()),
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Float(x)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Text(s.to_owned())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Text(s)
    }
}
impl From<Vec<String>> for Value {
    fn from(v: Vec<String>) -> Self {
        Value::TextList(v)
    }
}

named! {
    /// Name of a UI-object attribute.
    ///
    /// The common toolkit attributes are first-class variants (cheap to
    /// compare); application-specific attributes use [`AttrName::Custom`].
    /// On the wire a name is its canonical string.
    #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
    pub enum AttrName {
        /// Window/form title or widget caption.
        Title = "title",
        /// Textual content (text fields, labels).
        Text = "text",
        /// Generic numeric value (sliders, spinners).
        ValueNum = "value",
        /// Items of a list or menu.
        Items = "items",
        /// Index of the selected item (-1 for none).
        Selected = "selected",
        /// Whether the widget accepts input.
        Enabled = "enabled",
        /// Whether the widget is drawn.
        Visible = "visible",
        /// X position within the parent.
        X = "x",
        /// Y position within the parent.
        Y = "y",
        /// Widget width.
        Width = "width",
        /// Widget height.
        Height = "height",
        /// Foreground colour.
        Foreground = "foreground",
        /// Background colour.
        Background = "background",
        /// Font name.
        Font = "font",
        /// Toggle state of check/toggle buttons.
        Checked = "checked",
        /// Minimum of a ranged widget.
        Min = "min",
        /// Maximum of a ranged widget.
        Max = "max",
        /// Strokes of a canvas (count stored as Int; stroke data in per-stroke
        /// attributes is modelled as `Value::Stroke` entries of `Items`-like
        /// custom attributes by the toolkit).
        Strokes = "strokes";
        /// Application-specific attribute.
        ///
        /// The wire form of an attribute name is its canonical string, so a
        /// `Custom` name equal to a builtin's canonical form (e.g. `"text"`)
        /// decodes as the builtin variant. Construct through
        /// [`AttrName::custom`] / [`AttrName::from_str_lossy`] to normalize.
        Custom(String),
    }
}

impl AttrName {
    /// Creates an attribute name from an application-specific string,
    /// normalizing names that collide with builtin attributes.
    pub fn custom(name: &str) -> Self {
        AttrName::from_str_lossy(name)
    }
}

named! {
    /// Type of a primitive UI object (§3: "form, button, menu, etc.").
    ///
    /// The set mirrors the CENTER/Motif widget classes the paper names plus the
    /// widgets its applications need (canvas for GroupDesign-style sketches,
    /// table for TORI result forms). `Custom` covers application-defined
    /// widget classes. On the wire a kind is its canonical string.
    #[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
    pub enum WidgetKind {
        /// Container form; the usual complex-object root.
        #[default]
        Form = "form",
        /// Horizontal/vertical grouping container.
        Panel = "panel",
        /// Momentary push button.
        Button = "button",
        /// Two-state toggle button.
        ToggleButton = "toggle",
        /// Option menu (drop-down of items).
        Menu = "menu",
        /// Single-line text input field.
        TextField = "textfield",
        /// Multi-line text area.
        TextArea = "textarea",
        /// Static text label.
        Label = "label",
        /// Scrollable list of items.
        List = "list",
        /// Ranged slider / scale.
        Slider = "slider",
        /// Free-form drawing canvas.
        Canvas = "canvas",
        /// Row/column table of textual cells.
        Table = "table";
        /// Application-defined widget class.
        Custom(String),
    }
}

impl WidgetKind {
    /// Returns `true` if widgets of this kind may have children.
    pub fn is_container(&self) -> bool {
        matches!(self, WidgetKind::Form | WidgetKind::Panel | WidgetKind::Custom(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_eq_is_bitwise() {
        assert_eq!(Value::Float(f64::NAN), Value::Float(f64::NAN));
        assert_ne!(Value::Float(0.0), Value::Float(-0.0));
        assert_eq!(Value::Float(1.5), Value::Float(1.5));
    }

    #[test]
    fn accessors_return_none_on_mismatch() {
        let v = Value::Int(3);
        assert_eq!(v.as_int(), Some(3));
        assert_eq!(v.as_bool(), None);
        assert_eq!(v.as_text(), None);
        assert!(Value::Text("x".into()).as_text().is_some());
        assert!(Value::Bytes(vec![1]).as_bytes().is_some());
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::Float(2.0).as_float(), Some(2.0));
    }

    #[test]
    fn same_type_discriminates() {
        assert!(Value::Int(1).same_type(&Value::Int(9)));
        assert!(!Value::Int(1).same_type(&Value::Float(1.0)));
    }

    #[test]
    fn attr_name_round_trips_via_str() {
        for n in AttrName::ALL.iter().chain([&AttrName::custom("sim_speed")]) {
            assert_eq!(&AttrName::from_str_lossy(n.as_str()), n);
        }
    }

    #[test]
    fn widget_kind_round_trips_via_str() {
        for k in WidgetKind::ALL.iter().chain([&WidgetKind::Custom("simview".into())]) {
            assert_eq!(&WidgetKind::from_str_lossy(k.as_str()), k);
        }
    }

    #[test]
    fn container_classification() {
        assert!(WidgetKind::Form.is_container());
        assert!(WidgetKind::Panel.is_container());
        assert!(!WidgetKind::Button.is_container());
        assert!(!WidgetKind::TextField.is_container());
    }

    #[test]
    fn value_from_conversions() {
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from(4i64), Value::Int(4));
        assert_eq!(Value::from("hi"), Value::Text("hi".into()));
        assert_eq!(Value::from(2.5f64), Value::Float(2.5));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Color(255, 0, 16).to_string(), "#ff0010");
        assert_eq!(Value::Point(3, -4).to_string(), "(3, -4)");
        assert_eq!(Value::Text("a".into()).to_string(), "\"a\"");
    }
}
