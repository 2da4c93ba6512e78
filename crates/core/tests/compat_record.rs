//! Differential test of the record a state application returns
//! (`Applied::overwritten`), over seeded random destination trees and
//! snapshots: what must hold of it, checked against the record of before
//! it was built — the full `snapshot(dst, false)` taken ahead of the
//! apply. 2 000 seeded cases per copy mode: the record undoes like the
//! full snapshot did.

use cosoft_core::{apply_destructive, apply_recorded, CorrespondenceTable};
use cosoft_rng::Rng;
use cosoft_uikit::{WidgetId, WidgetTree};
use cosoft_wire::{AttrName, CopyMode, ObjectPath, StateNode, Value, WidgetKind};

/// Applies that must succeed, and hold, per mode.
const CASES: usize = 2_000;

fn chance(rng: &mut Rng, percent: usize) -> bool {
    rng.range(0..100) < percent
}

const LEAVES: [WidgetKind; 6] = [
    WidgetKind::TextField,
    WidgetKind::Label,
    WidgetKind::Slider,
    WidgetKind::Menu,
    WidgetKind::ToggleButton,
    WidgetKind::Canvas,
];
const NAMES: [&str; 8] = ["a", "b", "c", "d", "e", "f", "g", "h"];

/// Correspondences that reach every translation case: a plain pair, two
/// source attributes onto one, and one onto an attribute the destination
/// kind does not have.
fn correspondences() -> CorrespondenceTable {
    let mut corr = CorrespondenceTable::new();
    corr.declare_symmetric(
        WidgetKind::TextField,
        WidgetKind::Label,
        vec![(AttrName::Text, AttrName::Text)],
    );
    corr.declare(
        WidgetKind::Slider,
        WidgetKind::TextField,
        vec![(AttrName::ValueNum, AttrName::Text), (AttrName::Max, AttrName::Text)],
    );
    corr.declare(
        WidgetKind::Menu,
        WidgetKind::Slider,
        vec![(AttrName::Selected, AttrName::custom("label"))],
    );
    corr
}

/// Another value of the same type, where the type has an obvious one.
fn another(rng: &mut Rng, value: &Value) -> Value {
    match value {
        Value::Bool(_) => Value::Bool(chance(rng, 50)),
        Value::Int(_) => Value::Int(rng.range(0..1000) as i64),
        Value::Float(_) => Value::Float(rng.range(0..1000) as f64 / 8.0),
        Value::Text(_) => Value::Text(format!("text-{}", rng.range(0..1000))),
        other => other.clone(),
    }
}

/// Grows a random subtree under `parent`, away from the schema defaults.
fn grow(rng: &mut Rng, tree: &mut WidgetTree, parent: WidgetId, depth: usize) {
    for _ in 0..rng.range(0..5) {
        let container = depth < 3 && chance(rng, 30);
        let kind = if container { WidgetKind::Panel } else { rng.pick(&LEAVES).clone() };
        let name = *rng.pick(&NAMES);
        // A name already taken among the siblings: one child fewer.
        let Ok(id) = tree.create(parent, kind, name) else { continue };
        let attrs = tree.widget(id).unwrap().attrs().clone();
        for (name, value) in attrs {
            if chance(rng, 50) {
                tree.set_attr_unchecked(id, name, another(rng, &value)).unwrap();
            }
        }
        if container {
            grow(rng, tree, id, depth + 1);
        }
    }
}

/// Turns a snapshot of the destination into a source for it: other
/// attribute sets, corresponding and unrelated kinds, renamed and
/// reordered children and, if `structural`, missing and extra ones.
fn mutate(rng: &mut Rng, node: &mut StateNode, structural: bool, root: bool) {
    if chance(rng, 20) && !node.attrs.is_empty() {
        let gone = node.attrs.keys().nth(rng.range(0..node.attrs.len())).cloned();
        gone.and_then(|k| node.attrs.remove(&k));
    }
    if chance(rng, 15) {
        node.attrs.insert(AttrName::custom("extra"), Value::Int(0));
    }
    if !root && node.children.is_empty() && chance(rng, if structural { 30 } else { 10 }) {
        // Mostly a kind the table declares for the destination's.
        node.kind = match &node.kind {
            WidgetKind::TextField if chance(rng, 50) => WidgetKind::Label,
            WidgetKind::TextField => WidgetKind::Slider,
            WidgetKind::Label => WidgetKind::TextField,
            WidgetKind::Slider if chance(rng, 50) => WidgetKind::Menu,
            _ => rng.pick(&LEAVES).clone(),
        };
        // What a source of that kind would carry for the table above.
        match node.kind {
            WidgetKind::Slider => {
                node.attrs.insert(AttrName::ValueNum, Value::Float(0.5));
                node.attrs.insert(AttrName::Max, Value::Float(2.0));
            }
            WidgetKind::Menu => {
                node.attrs.insert(AttrName::Selected, Value::Int(1));
            }
            _ => {}
        }
    }
    let free_name = |rng: &mut Rng, siblings: &[StateNode]| {
        let name = *rng.pick(&NAMES);
        // Now and then a name a sibling holds: a clash for the merge.
        (chance(rng, 10) || siblings.iter().all(|c| c.name != name)).then(|| name.to_owned())
    };
    if chance(rng, 20) && !node.children.is_empty() {
        if let Some(name) = free_name(rng, &node.children) {
            let i = rng.range(0..node.children.len());
            node.children[i].name = name;
        }
    }
    if chance(rng, 20) && node.children.len() > 1 {
        let (i, j) = (rng.range(0..node.children.len()), rng.range(0..node.children.len()));
        node.children.swap(i, j);
    }
    if structural && chance(rng, 25) && !node.children.is_empty() {
        node.children.remove(rng.range(0..node.children.len()));
    }
    if structural && chance(rng, 25) && (root || node.kind == WidgetKind::Panel) {
        if let Some(name) = free_name(rng, &node.children) {
            let mut extra = StateNode::new(rng.pick(&LEAVES).clone(), &name)
                .with_attr(AttrName::Text, Value::Text(String::new()));
            if chance(rng, 30) {
                extra.kind = WidgetKind::Panel;
                extra.children.push(StateNode::new(WidgetKind::Label, "inner"));
            }
            let at = rng.range(0..node.children.len() + 1);
            node.children.insert(at, extra);
        }
    }
    for child in &mut node.children {
        mutate(rng, child, structural, false);
    }
}

// ---- what must hold of the record ----------------------------------------

/// Leads every value [`mark`] hands out; no destination value starts so.
const MARK: char = '\u{1}';

/// Replaces every attribute value of `snapshot` by a text found nowhere
/// else: after the apply, an attribute of a surviving widget was written
/// by it if and only if it holds a marked value.
fn mark(snapshot: &mut StateNode) {
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
fn check_record(
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

// ---- the seeded cases ------------------------------------------------------

/// One seeded case: `Ok(true)` if the apply went through and the record
/// held, `Ok(false)` if the apply was refused.
fn case(seed: u64, mode: CopyMode) -> Result<bool, String> {
    let rng = &mut Rng::new(seed);
    let mut tree = WidgetTree::new();
    let root = tree.create_root(WidgetKind::Form, "root").unwrap();
    grow(rng, &mut tree, root, 0);
    // Relevant-only or full, as the two vocabularies a record can meet.
    let mut snapshot = tree.snapshot(root, chance(rng, 50)).unwrap();
    // Half the strict cases stay s-compatible by construction.
    let structural = mode != CopyMode::Strict || chance(rng, 30);
    mutate(rng, &mut snapshot, structural, true);
    mark(&mut snapshot);
    let corr = if chance(rng, 50) { correspondences() } else { CorrespondenceTable::new() };
    check_record(&tree, root, &snapshot, mode, &corr)
}

fn run(mode: CopyMode) {
    let (mut applied, mut refused) = (0, 0u64);
    for seed in 0.. {
        match case(seed, mode) {
            Ok(true) => applied += 1,
            Ok(false) => refused += 1,
            Err(why) => panic!("seed {seed}, {mode:?}: {why}"),
        }
        if applied == CASES {
            break;
        }
        assert!(seed < 50 * CASES as u64, "{mode:?}: only {applied} applies in {seed} seeds");
    }
    // The refusals are cases too (a strict one must leave the tree be),
    // and a generator that never produced one would not test that.
    assert!(mode != CopyMode::Strict || refused > 100, "{refused} strict applies refused");
}

#[test]
fn strict_record_undoes_like_the_full_snapshot() {
    run(CopyMode::Strict);
}

#[test]
fn destructive_record_undoes_like_the_full_snapshot() {
    run(CopyMode::DestructiveMerge);
}

#[test]
fn flexible_record_undoes_like_the_full_snapshot() {
    run(CopyMode::FlexibleMatch);
}
