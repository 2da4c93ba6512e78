//! Property-based tests of the §3.3 compatibility machinery over random
//! widget-tree snapshots.

mod record_oracle;

use proptest::prelude::*;

use cosoft_core::{
    apply_destructive, apply_flexible, apply_strict, check_s_compatible, CorrespondenceTable,
};
use cosoft_uikit::WidgetTree;
use cosoft_wire::{AttrName, CopyMode, StateNode, Value, WidgetKind};

fn arb_leaf_kind() -> impl Strategy<Value = WidgetKind> {
    prop_oneof![
        Just(WidgetKind::TextField),
        Just(WidgetKind::Label),
        Just(WidgetKind::Slider),
        Just(WidgetKind::Menu),
        Just(WidgetKind::ToggleButton),
        Just(WidgetKind::Canvas),
    ]
}

fn arb_attr() -> impl Strategy<Value = (AttrName, Value)> {
    prop_oneof![
        "[a-z]{1,10}".prop_map(|s| (AttrName::Text, Value::Text(s))),
        any::<i64>().prop_map(|i| (AttrName::Selected, Value::Int(i))),
        any::<bool>().prop_map(|b| (AttrName::Checked, Value::Bool(b))),
        any::<f64>().prop_map(|x| (AttrName::ValueNum, Value::Float(x))),
    ]
}

/// Random snapshot trees with unique child names per level (the toolkit
/// enforces sibling-name uniqueness).
fn arb_snapshot() -> impl Strategy<Value = StateNode> {
    let leaf = (arb_leaf_kind(), 0..1000u32, prop::collection::vec(arb_attr(), 0..3)).prop_map(
        |(kind, n, attrs)| {
            let mut node = StateNode::new(kind, &format!("w{n}"));
            for (k, v) in attrs {
                node.attrs.insert(k, v);
            }
            node
        },
    );
    leaf.prop_recursive(3, 30, 5, |inner| {
        (0..1000u32, prop::collection::vec(inner, 0..5)).prop_map(|(n, mut children)| {
            // Deduplicate sibling names.
            let mut node = StateNode::new(WidgetKind::Panel, &format!("p{n}"));
            let mut seen = std::collections::BTreeSet::new();
            children.retain(|c| seen.insert(c.name.clone()));
            node.children = children;
            node
        })
    })
    .prop_map(|mut root| {
        root.kind = WidgetKind::Form;
        root.name = "root".to_owned();
        root
    })
}

fn fresh_target() -> (WidgetTree, cosoft_uikit::WidgetId) {
    let mut tree = WidgetTree::new();
    let root = tree.create_root(WidgetKind::Form, "root").expect("fresh tree");
    (tree, root)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Destructive merging always makes the target s-compatible with the
    /// source (§3.3: the structure is copied).
    #[test]
    fn destructive_merge_establishes_s_compatibility(snap in arb_snapshot()) {
        let corr = CorrespondenceTable::new();
        let (mut tree, root) = fresh_target();
        apply_destructive(&mut tree, root, &snap, &corr).expect("merge");
        let result = tree.snapshot(root, false).expect("snapshot");
        check_s_compatible(&snap, &result, &corr).expect("target must be s-compatible");
    }

    /// Destructive merging is idempotent: a second application changes
    /// nothing and creates/destroys nothing.
    #[test]
    fn destructive_merge_is_idempotent(snap in arb_snapshot()) {
        let corr = CorrespondenceTable::new();
        let (mut tree, root) = fresh_target();
        apply_destructive(&mut tree, root, &snap, &corr).expect("first merge");
        let first = tree.snapshot(root, false).expect("snapshot");
        let report = apply_destructive(&mut tree, root, &snap, &corr).expect("second merge");
        prop_assert_eq!(report.created, 0);
        prop_assert_eq!(report.destroyed, 0);
        prop_assert_eq!(tree.snapshot(root, false).expect("snapshot"), first);
    }

    /// After a destructive merge, a strict apply of the same snapshot
    /// succeeds (the structures now match exactly).
    #[test]
    fn strict_apply_succeeds_after_merge(snap in arb_snapshot()) {
        let corr = CorrespondenceTable::new();
        let (mut tree, root) = fresh_target();
        apply_destructive(&mut tree, root, &snap, &corr).expect("merge");
        apply_strict(&mut tree, root, &snap, &corr).expect("strict apply on merged target");
    }

    /// Flexible matching never destroys destination-only children.
    #[test]
    fn flexible_match_conserves_target_children(
        snap in arb_snapshot(),
        extra in 1..5usize,
    ) {
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
        prop_assert_eq!(report.destroyed, 0, "flexible matching conserves");
        for name in names {
            let path = cosoft_wire::ObjectPath::parse(&format!("root.{name}")).expect("valid");
            prop_assert!(tree.resolve(&path).is_some(), "conserved child {} vanished", path);
        }
    }

    /// The record an apply returns undoes it like the full snapshot of
    /// before did, and holds only what the apply wrote (the properties
    /// are `record_oracle`'s; `compat_record.rs` runs them on seeded
    /// cases where proptest is not to be had).
    #[test]
    fn record_undoes_like_the_full_snapshot(
        dst in arb_snapshot(),
        src in arb_snapshot(),
        own in any::<bool>(),
        mode in prop_oneof![
            Just(CopyMode::Strict),
            Just(CopyMode::DestructiveMerge),
            Just(CopyMode::FlexibleMatch),
        ],
    ) {
        let corr = CorrespondenceTable::new();
        let (mut tree, root) = fresh_target();
        apply_destructive(&mut tree, root, &dst, &corr).expect("build the destination");
        // Two random trees are rarely s-compatible: half the sources are
        // the destination's own relevant state, which a strict apply takes.
        let mut src = if own { tree.snapshot(root, true).expect("snapshot") } else { src };
        record_oracle::mark(&mut src);
        let held = record_oracle::check_record(&tree, root, &src, mode, &corr);
        prop_assert!(held.is_ok(), "{}", held.unwrap_err());
    }

    /// s-compatibility is reflexive on any snapshot.
    #[test]
    fn s_compatibility_is_reflexive(snap in arb_snapshot()) {
        let corr = CorrespondenceTable::new();
        check_s_compatible(&snap, &snap, &corr).expect("reflexive");
    }

    /// s-compatibility as implemented (greedy name-first matching) is
    /// symmetric for same-kind pairs: if a maps onto b, b maps onto a.
    #[test]
    fn s_compatibility_symmetric_same_kinds(a in arb_snapshot(), b in arb_snapshot()) {
        let corr = CorrespondenceTable::new();
        let ab = check_s_compatible(&a, &b, &corr).is_ok();
        let ba = check_s_compatible(&b, &a, &corr).is_ok();
        prop_assert_eq!(ab, ba);
    }
}
