//! Properties of the §3.3 compatibility machinery over random
//! widget-tree snapshots. (What the record of an apply must satisfy is
//! `compat_record.rs`.)

use cosoft_core::{
    apply_destructive, apply_flexible, apply_strict, check_s_compatible, CorrespondenceTable,
};
use cosoft_rng::{forall, Rng};
use cosoft_uikit::WidgetTree;
use cosoft_wire::{AttrName, StateNode, Value, WidgetKind};

const LEAVES: [WidgetKind; 6] = [
    WidgetKind::TextField,
    WidgetKind::Label,
    WidgetKind::Slider,
    WidgetKind::Menu,
    WidgetKind::ToggleButton,
    WidgetKind::Canvas,
];

fn arb_attr(r: &mut Rng) -> (AttrName, Value) {
    match r.range(0..4) {
        0 => (AttrName::Text, Value::Text(r.string("abcdefghijklmnopqrstuvwxyz", 1..=10))),
        1 => (AttrName::Selected, Value::Int(r.range(..))),
        2 => (AttrName::Checked, Value::Bool(r.bool(0.5))),
        _ => (AttrName::ValueNum, Value::Float(f64::from_bits(r.next_u64()))),
    }
}

/// Random snapshot trees, panels up to three deep under the root form,
/// with unique child names per level (the toolkit enforces sibling-name
/// uniqueness).
fn arb_snapshot(r: &mut Rng) -> StateNode {
    fn within(r: &mut Rng, levels_below: usize) -> StateNode {
        let n: u32 = r.range(0..1000);
        if levels_below == 0 || r.range(0..3) == 0 {
            let mut node = StateNode::new(r.pick(&LEAVES).clone(), &format!("w{n}"));
            node.attrs.extend(r.vec(0..3, arb_attr));
            return node;
        }
        let mut node = StateNode::new(WidgetKind::Panel, &format!("p{n}"));
        node.children = r.vec(0..5, |r| within(r, levels_below - 1));
        let mut seen = std::collections::BTreeSet::new();
        node.children.retain(|c| seen.insert(c.name.clone()));
        node
    }
    let mut root = within(r, 3);
    root.kind = WidgetKind::Form;
    root.name = "root".to_owned();
    root
}

fn fresh_target() -> (WidgetTree, cosoft_uikit::WidgetId) {
    let mut tree = WidgetTree::new();
    let root = tree.create_root(WidgetKind::Form, "root").expect("fresh tree");
    (tree, root)
}

/// Destructive merging always makes the target s-compatible with the
/// source (§3.3: the structure is copied).
#[test]
fn destructive_merge_establishes_s_compatibility() {
    forall(0..64, arb_snapshot, |snap| {
        let corr = CorrespondenceTable::new();
        let (mut tree, root) = fresh_target();
        apply_destructive(&mut tree, root, &snap, &corr).expect("merge");
        let result = tree.snapshot(root, false).expect("snapshot");
        check_s_compatible(&snap, &result, &corr).expect("target must be s-compatible");
    });
}

/// Destructive merging is idempotent: a second application changes
/// nothing and creates/destroys nothing.
#[test]
fn destructive_merge_is_idempotent() {
    forall(0..64, arb_snapshot, |snap| {
        let corr = CorrespondenceTable::new();
        let (mut tree, root) = fresh_target();
        apply_destructive(&mut tree, root, &snap, &corr).expect("first merge");
        let first = tree.snapshot(root, false).expect("snapshot");
        let report = apply_destructive(&mut tree, root, &snap, &corr).expect("second merge");
        assert_eq!(report.created, 0);
        assert_eq!(report.destroyed, 0);
        assert_eq!(tree.snapshot(root, false).expect("snapshot"), first);
    });
}

/// After a destructive merge, a strict apply of the same snapshot
/// succeeds (the structures now match exactly).
#[test]
fn strict_apply_succeeds_after_merge() {
    forall(0..64, arb_snapshot, |snap| {
        let corr = CorrespondenceTable::new();
        let (mut tree, root) = fresh_target();
        apply_destructive(&mut tree, root, &snap, &corr).expect("merge");
        apply_strict(&mut tree, root, &snap, &corr).expect("strict apply on merged target");
    });
}

/// Flexible matching never destroys destination-only children.
#[test]
fn flexible_match_conserves_target_children() {
    let gen = |r: &mut Rng| (arb_snapshot(r), r.range(1..5));
    forall(0..64, gen, |(snap, extra): (StateNode, usize)| {
        let corr = CorrespondenceTable::new();
        let (mut tree, root) = fresh_target();
        // Give the target some private children first.
        let mut names = Vec::new();
        for i in 0..extra {
            let name = format!("private_{i}");
            tree.create(root, WidgetKind::Canvas, &name).expect("create");
            names.push(name);
        }
        let report = apply_flexible(&mut tree, root, &snap, &corr).expect("match");
        assert_eq!(report.destroyed, 0, "flexible matching conserves");
        for name in names {
            let path = cosoft_wire::ObjectPath::parse(&format!("root.{name}")).expect("valid");
            assert!(tree.resolve(&path).is_some(), "conserved child {} vanished", path);
        }
    });
}

/// s-compatibility is reflexive on any snapshot.
#[test]
fn s_compatibility_is_reflexive() {
    forall(0..64, arb_snapshot, |snap| {
        let corr = CorrespondenceTable::new();
        check_s_compatible(&snap, &snap, &corr).expect("reflexive");
    });
}

/// s-compatibility as implemented (greedy name-first matching) is
/// symmetric for same-kind pairs: if a maps onto b, b maps onto a.
#[test]
fn s_compatibility_symmetric_same_kinds() {
    let gen = |r: &mut Rng| (arb_snapshot(r), arb_snapshot(r));
    forall(0..64, gen, |(a, b)| {
        let corr = CorrespondenceTable::new();
        let ab = check_s_compatible(&a, &b, &corr).is_ok();
        let ba = check_s_compatible(&b, &a, &corr).is_ok();
        assert_eq!(ab, ba);
    });
}
