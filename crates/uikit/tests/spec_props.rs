//! Properties of the UI-spec parser: generated specs for random
//! widget trees parse back to the same structure and attribute values,
//! and the parser never panics on arbitrary input.

use cosoft_rng::{forall, Rng};
use cosoft_uikit::spec::build_tree;
use cosoft_uikit::WidgetTree;
use cosoft_wire::{AttrName, Value, WidgetKind};

#[derive(Debug, Clone)]
struct SpecWidget {
    kind: WidgetKind,
    name: String,
    attrs: Vec<(AttrName, Value)>,
    children: Vec<SpecWidget>,
}

const LOWER: &str = "abcdefghijklmnopqrstuvwxyz";
const LETTERS: &str = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ";

fn arb_leaf(r: &mut Rng) -> SpecWidget {
    let kind = r
        .pick(&[
            WidgetKind::TextField,
            WidgetKind::Label,
            WidgetKind::Slider,
            WidgetKind::ToggleButton,
            WidgetKind::Menu,
            WidgetKind::Button,
        ])
        .clone();
    let name = format!("w{}", r.range(0..10_000));
    let attrs = match kind {
        WidgetKind::TextField | WidgetKind::Label => {
            let text = r.string(&format!("{LETTERS}0123456789 _:,."), 0..=20);
            vec![(AttrName::Text, Value::Text(text))]
        }
        WidgetKind::Slider => {
            vec![(AttrName::ValueNum, Value::Float(r.range(0..1_000) as f64 / 1_000.0))]
        }
        WidgetKind::ToggleButton => vec![(AttrName::Checked, Value::Bool(r.bool(0.5)))],
        WidgetKind::Menu => vec![
            (AttrName::Items, Value::TextList(r.vec(0..4, |r| r.string(LOWER, 1..=6)))),
            (AttrName::Selected, Value::Int(r.range(-1..4))),
        ],
        _ => vec![(AttrName::Title, Value::Text(r.string(&format!("{LETTERS} "), 0..=12)))],
    };
    SpecWidget { kind, name, attrs, children: Vec::new() }
}

/// Panels up to three deep, sibling names unique.
fn arb_widget(r: &mut Rng) -> SpecWidget {
    fn within(r: &mut Rng, levels_below: usize) -> SpecWidget {
        if levels_below == 0 || r.range(0..3) == 0 {
            return arb_leaf(r);
        }
        let name = format!("p{}", r.range(0..10_000));
        let mut children = r.vec(0..4, |r| within(r, levels_below - 1));
        let mut seen = std::collections::BTreeSet::new();
        children.retain(|c| seen.insert(c.name.clone()));
        SpecWidget { kind: WidgetKind::Panel, name, attrs: Vec::new(), children }
    }
    within(r, 3)
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn value_literal(v: &Value) -> String {
    match v {
        Value::Text(s) => format!("\"{}\"", escape(s)),
        Value::Int(i) => i.to_string(),
        Value::Float(x) => {
            // Ensure a '.' so the lexer reads a float.
            let s = format!("{x}");
            if s.contains('.') {
                s
            } else {
                format!("{s}.0")
            }
        }
        Value::Bool(b) => b.to_string(),
        Value::TextList(items) => {
            let inner: Vec<String> = items.iter().map(|s| format!("\"{}\"", escape(s))).collect();
            format!("[{}]", inner.join(", "))
        }
        other => panic!("generator produced unsupported value {other:?}"),
    }
}

fn emit(widget: &SpecWidget, out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
    out.push_str(widget.kind.as_str());
    out.push(' ');
    out.push_str(&widget.name);
    for (attr, value) in &widget.attrs {
        out.push(' ');
        out.push_str(attr.as_str());
        out.push('=');
        out.push_str(&value_literal(value));
    }
    if !widget.children.is_empty() {
        out.push_str(" {\n");
        for c in &widget.children {
            emit(c, out, depth + 1);
        }
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push('}');
    }
    out.push('\n');
}

fn check(tree: &WidgetTree, id: cosoft_uikit::WidgetId, spec: &SpecWidget) {
    let w = tree.widget(id).expect("live widget");
    assert_eq!(w.kind(), &spec.kind);
    assert_eq!(w.name(), spec.name.as_str());
    for (attr, value) in &spec.attrs {
        assert_eq!(w.attrs().get(attr), Some(value), "attr {} differs", attr);
    }
    assert_eq!(w.children().len(), spec.children.len());
    for (child_id, child_spec) in w.children().iter().zip(&spec.children) {
        check(tree, *child_id, child_spec);
    }
}

#[test]
fn generated_specs_round_trip() {
    forall(0..96, arb_widget, |widget| {
        let mut src = String::new();
        emit(&widget, &mut src, 0);
        let tree = build_tree(&src).unwrap_or_else(|e| panic!("spec failed: {e}\n{src}"));
        check(&tree, tree.root().expect("root exists"), &widget);
    });
}

/// Any printable text: ASCII, accented and wide characters, emoji.
#[test]
fn parser_never_panics_on_garbage() {
    let printable = |r: &mut Rng| {
        let c = match r.range(0..4) {
            0 => r.range(0x20..0x7f),
            1 => r.range(0xa1..0x250),
            2 => r.range(0x4e00..0x9fff),
            _ => r.range(0x1f300..0x1f650),
        };
        char::from_u32(c).expect("no surrogates in these blocks")
    };
    let gen = |r: &mut Rng| r.vec(0..201, printable).into_iter().collect();
    forall(0..96, gen, |src: String| {
        let _ = build_tree(&src);
    });
}

#[test]
fn parser_never_panics_on_speclike_garbage() {
    let token = |r: &mut Rng| match r.range(0..10) {
        0 => r.string(LOWER, 1..=5),
        i => ["form", "{", "}", "=", "\"x", "[", "]", "-", "3.5"][i - 1].to_owned(),
    };
    let gen = |r: &mut Rng| r.vec(0..40, token);
    forall(0..96, gen, |tokens| {
        let _ = build_tree(&tokens.join(" "));
    });
}
