//! Differential test of the record a state application returns, over
//! seeded random destination trees and snapshots (SplitMix64, std only,
//! so it runs offline; `compat_props.rs` mirrors it under proptest). The
//! properties themselves are in `record_oracle`.

mod record_oracle;

use cosoft_core::CorrespondenceTable;
use cosoft_uikit::{WidgetId, WidgetTree};
use cosoft_wire::{AttrName, CopyMode, StateNode, Value, WidgetKind};

/// Applies that must succeed, and hold, per mode.
const CASES: usize = 2_000;

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }

    fn pick<'a, T>(&mut self, from: &'a [T]) -> &'a T {
        &from[self.below(from.len())]
    }
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
fn another(rng: &mut SplitMix64, value: &Value) -> Value {
    match value {
        Value::Bool(_) => Value::Bool(rng.chance(50)),
        Value::Int(_) => Value::Int(rng.below(1000) as i64),
        Value::Float(_) => Value::Float(rng.below(1000) as f64 / 8.0),
        Value::Text(_) => Value::Text(format!("text-{}", rng.below(1000))),
        other => other.clone(),
    }
}

/// Grows a random subtree under `parent`, away from the schema defaults.
fn grow(rng: &mut SplitMix64, tree: &mut WidgetTree, parent: WidgetId, depth: usize) {
    for _ in 0..rng.below(5) {
        let container = depth < 3 && rng.chance(30);
        let kind = if container { WidgetKind::Panel } else { rng.pick(&LEAVES).clone() };
        let name = *rng.pick(&NAMES);
        // A name already taken among the siblings: one child fewer.
        let Ok(id) = tree.create(parent, kind, name) else { continue };
        let attrs = tree.widget(id).unwrap().attrs().clone();
        for (name, value) in attrs {
            if rng.chance(50) {
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
fn mutate(rng: &mut SplitMix64, node: &mut StateNode, structural: bool, root: bool) {
    if rng.chance(20) && !node.attrs.is_empty() {
        let gone = node.attrs.keys().nth(rng.below(node.attrs.len())).cloned();
        gone.and_then(|k| node.attrs.remove(&k));
    }
    if rng.chance(15) {
        node.attrs.insert(AttrName::custom("extra"), Value::Int(0));
    }
    if !root && node.children.is_empty() && rng.chance(if structural { 30 } else { 10 }) {
        // Mostly a kind the table declares for the destination's.
        node.kind = match &node.kind {
            WidgetKind::TextField if rng.chance(50) => WidgetKind::Label,
            WidgetKind::TextField => WidgetKind::Slider,
            WidgetKind::Label => WidgetKind::TextField,
            WidgetKind::Slider if rng.chance(50) => WidgetKind::Menu,
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
    let free_name = |rng: &mut SplitMix64, siblings: &[StateNode]| {
        let name = *rng.pick(&NAMES);
        // Now and then a name a sibling holds: a clash for the merge.
        (rng.chance(10) || siblings.iter().all(|c| c.name != name)).then(|| name.to_owned())
    };
    if rng.chance(20) && !node.children.is_empty() {
        if let Some(name) = free_name(rng, &node.children) {
            let i = rng.below(node.children.len());
            node.children[i].name = name;
        }
    }
    if rng.chance(20) && node.children.len() > 1 {
        let (i, j) = (rng.below(node.children.len()), rng.below(node.children.len()));
        node.children.swap(i, j);
    }
    if structural && rng.chance(25) && !node.children.is_empty() {
        node.children.remove(rng.below(node.children.len()));
    }
    if structural && rng.chance(25) && (root || node.kind == WidgetKind::Panel) {
        if let Some(name) = free_name(rng, &node.children) {
            let mut extra = StateNode::new(rng.pick(&LEAVES).clone(), &name)
                .with_attr(AttrName::Text, Value::Text(String::new()));
            if rng.chance(30) {
                extra.kind = WidgetKind::Panel;
                extra.children.push(StateNode::new(WidgetKind::Label, "inner"));
            }
            let at = rng.below(node.children.len() + 1);
            node.children.insert(at, extra);
        }
    }
    for child in &mut node.children {
        mutate(rng, child, structural, false);
    }
}

/// One seeded case: `Ok(true)` if the apply went through and the record
/// held, `Ok(false)` if the apply was refused.
fn case(seed: u64, mode: CopyMode) -> Result<bool, String> {
    let mut rng = SplitMix64(seed);
    let mut tree = WidgetTree::new();
    let root = tree.create_root(WidgetKind::Form, "root").unwrap();
    grow(&mut rng, &mut tree, root, 0);
    // Relevant-only or full, as the two vocabularies a record can meet.
    let mut snapshot = tree.snapshot(root, rng.chance(50)).unwrap();
    // Half the strict cases stay s-compatible by construction.
    let structural = mode != CopyMode::Strict || rng.chance(30);
    mutate(&mut rng, &mut snapshot, structural, true);
    record_oracle::mark(&mut snapshot);
    let corr = if rng.chance(50) { correspondences() } else { CorrespondenceTable::new() };
    record_oracle::check_record(&tree, root, &snapshot, mode, &corr)
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
