//! What must hold of the record a state application returns
//! (`Applied::overwritten`), checked against the record of before this
//! was built — the full `snapshot(dst, false)` taken ahead of the apply.
//! Shared by `compat_record.rs` (seeded cases, std only) and
//! `compat_props.rs` (proptest).

use cosoft_core::{apply_destructive, apply_recorded, CorrespondenceTable};
use cosoft_uikit::{WidgetId, WidgetTree};
use cosoft_wire::{CopyMode, ObjectPath, StateNode, Value};

/// Leads every value [`mark`] hands out; no destination value starts so.
const MARK: char = '\u{1}';

/// Replaces every attribute value of `snapshot` by a text found nowhere
/// else: after the apply, an attribute of a surviving widget was written
/// by it if and only if it holds a marked value.
pub fn mark(snapshot: &mut StateNode) {
    fn rec(node: &mut StateNode, next: &mut u64) {
        for value in node.attrs.values_mut() {
            *value = Value::Text(format!("{MARK}{next}"));
            *next += 1;
        }
        node.children.iter_mut().for_each(|c| rec(c, next));
    }
    rec(snapshot, &mut 0);
}

fn is_marked(value: &Value) -> bool {
    value.as_text().is_some_and(|t| t.starts_with(MARK))
}

fn ensure(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

/// Applies the [`mark`]ed `snapshot` to a clone of `tree` at `root` in
/// `mode` and checks the record. `Ok(true)`: applied and everything
/// holds; `Ok(false)`: the apply was refused (a strict one must then
/// have left the tree as it was); `Err`: what does not hold.
pub fn check_record(
    tree: &WidgetTree,
    root: WidgetId,
    snapshot: &StateNode,
    mode: CopyMode,
    corr: &CorrespondenceTable,
) -> Result<bool, String> {
    let full = |t: &WidgetTree| t.snapshot(root, false).map_err(|e| e.to_string());
    let before = full(tree)?;
    let mut old_way = tree.clone();
    let Ok(applied) = apply_recorded(&mut old_way, root, snapshot, mode, corr) else {
        ensure(mode != CopyMode::Strict || full(&old_way)? == before, || {
            "a refused strict apply modified the tree".into()
        })?;
        return Ok(false);
    };
    let after = full(&old_way)?;
    ensure(applied.report.destroyed == applied.destroyed.len(), || {
        format!("{} destroyed, {} paths", applied.report.destroyed, applied.destroyed.len())
    })?;
    let path = ObjectPath::from_segments([before.name.as_str()]).map_err(|e| e.to_string())?;
    check_node(&applied.overwritten, &before, &after, &path, &applied.destroyed)?;

    // The differential: undoing with the new record gives the tree that
    // undoing with the full snapshot gives.
    let mut new_way = old_way.clone();
    let by_full = apply_destructive(&mut old_way, root, &before, corr);
    let by_record = apply_destructive(&mut new_way, root, &applied.overwritten, corr);
    match (by_full, by_record) {
        (Ok(a), Ok(b)) => {
            ensure((a.created, a.destroyed) == (b.created, b.destroyed), || {
                format!("undo by full snapshot: {a:?}, by record: {b:?}")
            })?;
        }
        (a, b) => ensure(a.is_err() && b.is_err(), || {
            format!("undo by full snapshot: {a:?}, by record: {b:?}")
        })?,
    }
    let (by_full, by_record) = (full(&old_way)?, full(&new_way)?);
    ensure(by_full == by_record, || {
        format!("undo by full snapshot gives {by_full:#?}\nundo by record gives {by_record:#?}")
    })?;
    Ok(true)
}

/// `rec` is the record of the widget that was `before` and, unless the
/// apply destroyed it, is `after`.
fn check_node(
    rec: &StateNode,
    before: &StateNode,
    after: &StateNode,
    path: &ObjectPath,
    destroyed: &[ObjectPath],
) -> Result<(), String> {
    ensure((&rec.kind, &rec.name) == (&before.kind, &before.name), || {
        format!("{path}: recorded as {} {}", rec.kind, rec.name)
    })?;
    ensure(rec.semantic.is_empty(), || format!("{path}: record carries a semantic payload"))?;
    // Written attributes hold their old value; nothing else is held.
    let written: cosoft_wire::AttrMap = after
        .attrs
        .iter()
        .filter(|(_, v)| is_marked(v))
        .filter_map(|(k, _)| Some((k.clone(), before.attrs.get(k)?.clone())))
        .collect();
    ensure(rec.attrs == written, || {
        format!("{path}: record holds {:?}, the apply overwrote {written:?}", rec.attrs)
    })?;
    // Destination-shaped: every child of before, in order, none created.
    ensure(rec.children.len() == before.children.len(), || {
        format!("{path}: {} children recorded of {}", rec.children.len(), before.children.len())
    })?;
    for (rec_child, before_child) in rec.children.iter().zip(&before.children) {
        let child_path = path.child(&before_child.name).map_err(|e| e.to_string())?;
        if destroyed.contains(&child_path) {
            ensure(rec_child == before_child, || {
                format!("{child_path}: destroyed, not kept whole")
            })?;
        } else {
            let after_child = after
                .child(&before_child.name)
                .ok_or_else(|| format!("{child_path}: gone, but not reported destroyed"))?;
            check_node(rec_child, before_child, after_child, &child_path, destroyed)?;
        }
    }
    Ok(())
}
