//! Attribute-level deltas between UI-state snapshots (§3.1).
//!
//! The paper's per-type *relevant attributes* schema makes attribute-level
//! diffs well-posed: two snapshots of the same object expose the same
//! attribute vocabulary, so the difference between them is a small set of
//! attribute upserts/removals plus child add/remove/reorder operations.
//! [`diff`] computes such a [`StateDelta`]; [`apply`] replays it on the
//! base snapshot and reconstructs the target byte-identically (the codec
//! is deterministic because [`AttrMap`] is a `BTreeMap`).
//!
//! Deltas are keyed to a *base version* — a content fingerprint of the
//! snapshot they apply to ([`state_version`], a Merkle hash). A receiver
//! whose current sync base carries a different version must refuse the
//! delta, which makes the server fall back to a full snapshot
//! (`ApplyState`). A [`VersionedState`] keeps the hash of every node
//! beside a base, so replaying a delta on it rehashes only what the delta
//! edits.

use crate::{visits, AttrMap, AttrName, StateNode, WidgetKind};
use std::collections::HashSet;
use std::fmt;

mod version;

pub use version::{state_version, version_of_encoded, VersionedState};

record! {
    /// A deterministic, attribute-level difference between two [`StateNode`]
    /// trees. Applying the edits in order to the base tree yields the target
    /// tree exactly.
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    pub struct StateDelta {
        /// Node edits in pre-order of the base tree.
        pub edits: Vec<NodeEdit>,
    }
}

impl StateDelta {
    /// Whether the delta changes nothing.
    pub fn is_empty(&self) -> bool {
        self.edits.is_empty()
    }

    /// Rough in-memory size, mirroring [`StateNode::approx_size`]; used by
    /// admission control to price `ApplyDelta` messages.
    pub fn approx_size(&self) -> usize {
        self.edits
            .iter()
            .map(|e| {
                let path: usize = e.path.iter().map(|s| 8 + s.len()).sum();
                let op = match &e.op {
                    EditOp::Patch(p) => {
                        16 + 16 * p.upserts.len()
                            + 8 * p.removals.len()
                            + p.semantic.as_ref().map(Vec::len).unwrap_or(0)
                    }
                    EditOp::Replace(s) => s.approx_size(),
                    EditOp::Restructure { order, inserts } => {
                        order.iter().map(|s| 8 + s.len()).sum::<usize>()
                            + inserts.iter().map(StateNode::approx_size).sum::<usize>()
                    }
                };
                16 + path + op
            })
            .sum()
    }
}

record! {
    /// One edit addressed at a single node of the base tree.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct NodeEdit {
        /// Path from the root to the edited node, as child-name segments
        /// (empty = the root itself). Kept children keep their names, so the
        /// same path resolves in both the base and the target tree.
        pub path: Vec<String>,
        /// The operation to perform at that node.
        pub op: EditOp,
    }
}

tagged! {
    /// The operation of a [`NodeEdit`].
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum EditOp: "EditOp" {
        /// In-place update of the node's own fields (kind, attributes,
        /// semantic payload); children are untouched.
        Patch = 0 (patch: NodePatch),
        /// Wholesale replacement of the node's subtree. Emitted when
        /// name-keyed child matching is ill-posed (duplicate child names) or
        /// when the root itself was renamed.
        Replace = 1 (subtree: StateNode),
        /// Rebuild the node's child list: `order` names the new child
        /// sequence; names already present among the current children keep
        /// their (recursively patched) subtrees, names that are not are taken
        /// from `inserts`. Children absent from `order` are dropped.
        Restructure = 2 {
            /// Final child order, by name.
            order: Vec<String>,
            /// Full subtrees for the names in `order` that are not existing
            /// children of the base node.
            inserts: Vec<StateNode>,
        },
    }
}

record! {
    /// Attribute/semantic/kind changes applied to a single node.
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    pub struct NodePatch {
        /// Replacement widget kind, when it changed.
        pub kind: Option<WidgetKind>,
        /// Attributes to insert or overwrite. A `BTreeMap` keeps the wire
        /// encoding deterministic.
        pub upserts: AttrMap,
        /// Attribute names to remove, in the base map's sorted order.
        pub removals: Vec<AttrName>,
        /// Replacement semantic payload, when it changed.
        pub semantic: Option<Vec<u8>>,
    }
}

impl NodePatch {
    /// Whether the patch changes nothing.
    pub fn is_empty(&self) -> bool {
        self.kind.is_none()
            && self.upserts.is_empty()
            && self.removals.is_empty()
            && self.semantic.is_none()
    }
}

/// Why a delta could not be applied to a base tree — the receiver's state
/// diverged from the version the delta was computed against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// An edit path did not resolve in the (partially rebuilt) base tree.
    MissingNode {
        /// The dotted path that failed to resolve.
        path: String,
    },
    /// A `Restructure` order named a child that is neither an existing
    /// child nor carried in `inserts`.
    MissingChild {
        /// The unresolved child name.
        name: String,
    },
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::MissingNode { path } => {
                write!(f, "delta path '{path}' does not resolve in the base tree")
            }
            DeltaError::MissingChild { name } => {
                write!(f, "delta restructure names unknown child '{name}'")
            }
        }
    }
}

impl std::error::Error for DeltaError {}

/// Computes the delta that turns `base` into `target`.
///
/// The result is deterministic: attribute maps iterate in `BTreeMap`
/// order and edits are emitted in pre-order of the tree. `diff` followed
/// by [`apply`] reconstructs `target` exactly (and therefore re-encodes
/// byte-identically); this round trip is pinned by property tests.
pub fn diff(base: &StateNode, target: &StateNode) -> StateDelta {
    let mut edits = Vec::new();
    if base.name != target.name {
        // The root was renamed; name-keyed addressing has no anchor.
        if base != target {
            edits.push(NodeEdit { path: Vec::new(), op: EditOp::Replace(target.clone()) });
        }
        return StateDelta { edits };
    }
    let mut path = Vec::new();
    diff_rec(base, target, &mut path, &mut edits);
    StateDelta { edits }
}

fn has_duplicate_names(children: &[StateNode]) -> bool {
    let mut seen = HashSet::with_capacity(children.len());
    children.iter().any(|c| !seen.insert(c.name.as_str()))
}

fn diff_rec(
    base: &StateNode,
    target: &StateNode,
    path: &mut Vec<String>,
    edits: &mut Vec<NodeEdit>,
) {
    visits::add(1);
    if base == target {
        return;
    }
    if has_duplicate_names(&base.children) || has_duplicate_names(&target.children) {
        // Name-keyed child matching is ambiguous here; replace wholesale.
        edits.push(NodeEdit { path: path.clone(), op: EditOp::Replace(target.clone()) });
        return;
    }

    let mut patch = NodePatch::default();
    if base.kind != target.kind {
        patch.kind = Some(target.kind.clone());
    }
    for (k, v) in &target.attrs {
        if base.attrs.get(k) != Some(v) {
            patch.upserts.insert(k.clone(), v.clone());
        }
    }
    for k in base.attrs.keys() {
        if !target.attrs.contains_key(k) {
            patch.removals.push(k.clone());
        }
    }
    if base.semantic != target.semantic {
        patch.semantic = Some(target.semantic.clone());
    }
    if !patch.is_empty() {
        edits.push(NodeEdit { path: path.clone(), op: EditOp::Patch(patch) });
    }

    let base_names: Vec<&str> = base.children.iter().map(|c| c.name.as_str()).collect();
    let target_names: Vec<&str> = target.children.iter().map(|c| c.name.as_str()).collect();
    if base_names != target_names {
        let base_set: HashSet<&str> = base_names.iter().copied().collect();
        let inserts: Vec<StateNode> = target
            .children
            .iter()
            .filter(|c| !base_set.contains(c.name.as_str()))
            .cloned()
            .collect();
        edits.push(NodeEdit {
            path: path.clone(),
            op: EditOp::Restructure {
                order: target_names.iter().map(|s| (*s).to_owned()).collect(),
                inserts,
            },
        });
    }

    // Recurse into children kept (by name) on both sides. Freshly
    // inserted subtrees already arrived whole via `Restructure`.
    for tc in &target.children {
        if let Some(bc) = base.child(&tc.name) {
            path.push(tc.name.clone());
            diff_rec(bc, tc, path, edits);
            path.pop();
        }
    }
}

/// Applies `delta` to `base`, reconstructing the target tree.
///
/// # Errors
///
/// Returns a [`DeltaError`] when the delta does not fit the base tree —
/// i.e. the receiver's state diverged from the base version the sender
/// diffed against. Callers treat that as the signal to request a full
/// snapshot instead.
pub fn apply(base: &StateNode, delta: &StateDelta) -> Result<StateNode, DeltaError> {
    let mut out = base.clone();
    delta.edits.iter().try_for_each(|edit| apply_edit(&mut out, edit))?;
    Ok(out)
}

fn apply_edit(root: &mut StateNode, edit: &NodeEdit) -> Result<(), DeltaError> {
    let mut node: &mut StateNode = root;
    for seg in &edit.path {
        node = node
            .children
            .iter_mut()
            .find(|c| {
                visits::add(1);
                &c.name == seg
            })
            .ok_or_else(|| DeltaError::MissingNode { path: edit.path.join(".") })?;
    }
    apply_op(node, &edit.op)
}

/// Performs `op` on the node it addresses.
fn apply_op(node: &mut StateNode, op: &EditOp) -> Result<(), DeltaError> {
    visits::add(1);
    match op {
        EditOp::Patch(p) => {
            if let Some(kind) = &p.kind {
                node.kind = kind.clone();
            }
            for (k, v) in &p.upserts {
                node.attrs.insert(k.clone(), v.clone());
            }
            for k in &p.removals {
                node.attrs.remove(k);
            }
            if let Some(semantic) = &p.semantic {
                node.semantic = semantic.clone();
            }
        }
        EditOp::Replace(replacement) => {
            *node = replacement.clone();
        }
        EditOp::Restructure { order, inserts } => {
            let mut existing: Vec<StateNode> = std::mem::take(&mut node.children);
            let mut rebuilt = Vec::with_capacity(order.len());
            for name in order {
                if let Some(pos) = existing.iter().position(|c| &c.name == name) {
                    rebuilt.push(existing.remove(pos));
                } else if let Some(ins) = inserts.iter().find(|c| &c.name == name) {
                    rebuilt.push(ins.clone());
                } else {
                    return Err(DeltaError::MissingChild { name: name.clone() });
                }
            }
            node.children = rebuilt;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AttrName, Value, WidgetKind};

    fn sample() -> StateNode {
        StateNode::new(WidgetKind::Form, "root")
            .with_attr(AttrName::Title, Value::Text("Query".into()))
            .with_child(
                StateNode::new(WidgetKind::TextField, "author")
                    .with_attr(AttrName::Text, Value::Text("Hoppe".into())),
            )
            .with_child(
                StateNode::new(WidgetKind::Menu, "operator")
                    .with_attr(AttrName::Selected, Value::Int(1)),
            )
    }

    #[test]
    fn identical_trees_diff_to_empty() {
        let s = sample();
        let d = diff(&s, &s);
        assert!(d.is_empty());
        assert_eq!(apply(&s, &d).unwrap(), s);
    }

    #[test]
    fn single_attr_change_is_one_patch() {
        let a = sample();
        let mut b = a.clone();
        b.children[0].attrs.insert(AttrName::Text, Value::Text("Zhao".into()));
        let d = diff(&a, &b);
        assert_eq!(d.edits.len(), 1);
        assert_eq!(d.edits[0].path, vec!["author".to_owned()]);
        assert!(matches!(d.edits[0].op, EditOp::Patch(_)));
        assert_eq!(apply(&a, &d).unwrap(), b);
    }

    #[test]
    fn attr_removal_round_trips() {
        let a = sample();
        let mut b = a.clone();
        b.attrs.remove(&AttrName::Title);
        let d = diff(&a, &b);
        assert_eq!(apply(&a, &d).unwrap(), b);
    }

    #[test]
    fn semantic_change_round_trips() {
        let a = sample();
        let mut b = a.clone();
        b.children[1].semantic = vec![42, 43];
        let d = diff(&a, &b);
        assert_eq!(apply(&a, &d).unwrap(), b);
    }

    #[test]
    fn kind_change_round_trips() {
        let a = sample();
        let mut b = a.clone();
        b.children[1].kind = WidgetKind::List;
        let d = diff(&a, &b);
        assert_eq!(apply(&a, &d).unwrap(), b);
    }

    #[test]
    fn child_reorder_round_trips() {
        let a = sample();
        let mut b = a.clone();
        b.children.reverse();
        let d = diff(&a, &b);
        assert_eq!(d.edits.len(), 1);
        assert!(matches!(d.edits[0].op, EditOp::Restructure { .. }));
        assert_eq!(apply(&a, &d).unwrap(), b);
    }

    #[test]
    fn child_add_and_remove_round_trips() {
        let a = sample();
        let mut b = a.clone();
        b.children.remove(0);
        b.children.push(StateNode::new(WidgetKind::Button, "go"));
        let d = diff(&a, &b);
        assert_eq!(apply(&a, &d).unwrap(), b);
    }

    #[test]
    fn duplicate_child_names_fall_back_to_replace() {
        let mut a = sample();
        a.children.push(StateNode::new(WidgetKind::Label, "author"));
        let mut b = a.clone();
        b.attrs.insert(AttrName::Title, Value::Text("new".into()));
        let d = diff(&a, &b);
        assert!(d.edits.iter().any(|e| matches!(e.op, EditOp::Replace(_))));
        assert_eq!(apply(&a, &d).unwrap(), b);
    }

    #[test]
    fn root_rename_replaces_whole_tree() {
        let a = sample();
        let mut b = a.clone();
        b.name = "other".into();
        let d = diff(&a, &b);
        assert_eq!(d.edits.len(), 1);
        assert!(d.edits[0].path.is_empty());
        assert!(matches!(d.edits[0].op, EditOp::Replace(_)));
        assert_eq!(apply(&a, &d).unwrap(), b);
    }

    #[test]
    fn diverged_base_is_rejected() {
        let a = sample();
        let mut b = a.clone();
        b.children[0].attrs.insert(AttrName::Text, Value::Text("Zhao".into()));
        let d = diff(&a, &b);
        // A base missing the edited child cannot absorb the delta.
        let mut diverged = a.clone();
        diverged.children.remove(0);
        assert!(matches!(apply(&diverged, &d), Err(DeltaError::MissingNode { .. })));
    }

    #[test]
    fn versions_track_content() {
        let a = sample();
        let mut b = a.clone();
        b.children[0].attrs.insert(AttrName::Text, Value::Text("Zhao".into()));
        assert_eq!(state_version(&a), state_version(&a.clone()));
        assert_ne!(state_version(&a), state_version(&b));
        assert_eq!(state_version(&a), version_of_encoded(&crate::codec::encode_state_shared(&a)));
    }

    #[test]
    fn a_node_of_many_children_finds_them_by_name_through_renames() {
        // Twelve children, past the size that gets a name map; two share
        // the name "c5", and the first of them is the one a path names.
        let mut wide = StateNode::new(WidgetKind::Form, "root");
        for i in 0..12 {
            let name = if i == 9 { "c5".to_owned() } else { format!("c{i}") };
            let child = StateNode::new(WidgetKind::TextField, &name)
                .with_attr(AttrName::Text, Value::Text(format!("{i}")));
            wide.children.push(child);
        }
        let mut versioned = VersionedState::new(wide.clone());
        let at = |v: &VersionedState, name: &str| v.locate(&[name.to_owned()]).map(|(at, _)| at);
        assert_eq!(at(&versioned, "c5"), Some(vec![5]));
        assert_eq!(at(&versioned, "c11"), Some(vec![11]));
        assert_eq!(at(&versioned, "nope"), None);
        // A `Replace` that renames the first "c5": the second one is the
        // namesake now, and the new name resolves.
        let renamed = StateNode::new(WidgetKind::Label, "moved");
        let d = StateDelta {
            edits: vec![NodeEdit { path: vec!["c5".into()], op: EditOp::Replace(renamed.clone()) }],
        };
        versioned.apply(&d).unwrap();
        wide.children[5] = renamed;
        assert_eq!(versioned, VersionedState::new(wide.clone()));
        assert_eq!(at(&versioned, "moved"), Some(vec![5]));
        assert_eq!(at(&versioned, "c5"), Some(vec![9]));
        assert_eq!(versioned.version(), state_version(&wide));
    }

    #[test]
    fn bytes_that_are_no_state_hash_flat() {
        let encoded = crate::codec::encode_state_shared(&sample());
        let cut = crate::Bytes::from(encoded[..encoded.len() - 1].to_vec());
        let padded = crate::Bytes::from([&encoded[..], &[0]].concat());
        assert_ne!(version_of_encoded(&cut), version_of_encoded(&encoded));
        assert_ne!(version_of_encoded(&padded), version_of_encoded(&encoded));
    }

    #[test]
    fn delta_error_display() {
        let missing = DeltaError::MissingNode { path: "a.b".into() };
        assert!(missing.to_string().contains("a.b"));
        let child = DeltaError::MissingChild { name: "x".into() };
        assert!(child.to_string().contains('x'));
    }
}
