//! Historical UI states (§2.2): "the historical UI states backup the UI
//! states which have been overwritten when synchronizing by state was
//! applied, and provide the possibility of undoing/redoing user's
//! actions".
//!
//! What a viewer reports in `StateApplied` is the attributes the apply
//! overwrote, with the values they had, in the destination's own shape —
//! the vocabulary of the state it was sent, not every attribute of the
//! object. It is kept in its wire encoding, as an [`EncodedState`]: the
//! slice of the frame it arrived in, or the server's own encoding of the
//! base when the viewer's reply names that base instead of repeating it
//! (one buffer then serves every viewer of the group). Either is pushed
//! as is and decoded back into a [`StateNode`] only when an undo or redo
//! pops it. A stack is a deque of those buffers: depth-cap eviction drops
//! the front, and a ~60-node form costs about 2 KB per entry where the
//! tree itself costs tens of KB (DESIGN.md §11.3). Cloning a store (the
//! model checker forks [`crate::ServerCore`] at every branching point)
//! only bumps reference counts — the buffers themselves are shared
//! between the forks.

use std::collections::{HashMap, HashSet, VecDeque};

use cosoft_wire::{EncodedState, GlobalObjectId, InstanceId, StateNode};

/// States kept per object and stack; recording one more drops the oldest.
const MAX_DEPTH: usize = 64;

/// One object's undo (or redo) stack: encoded states, oldest first
/// (depth-cap eviction pops the *front* in O(1)). Opaque outside the
/// store; it only exists as a named type so extracted stacks can travel
/// in a shard-migration slice ([`HistoryStore::extract_instances`] /
/// [`HistoryStore::adopt`]).
#[derive(Debug, Clone, Default)]
pub struct HistoryStack {
    entries: VecDeque<EncodedState>,
}

impl HistoryStack {
    fn depth(&self) -> usize {
        self.entries.len()
    }

    fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn push(&mut self, state: EncodedState) {
        self.entries.push_back(state);
        if self.entries.len() > MAX_DEPTH {
            self.entries.pop_front();
        }
    }

    /// Pops and decodes the newest state — the only place the store
    /// builds a tree. An entry the codec refuses — only a tree recorded
    /// in-process nested past [`cosoft_wire::codec::MAX_STATE_DEPTH`],
    /// which no frame can carry — is dropped and reads as no state.
    fn pop(&mut self) -> Option<StateNode> {
        self.entries.pop_back()?.decode().ok()
    }

    /// Whether `other` is a clone sharing this stack's allocations: same
    /// entries, each backed by the *same* buffer (pointer equality).
    fn shares_storage_with(&self, other: &HistoryStack) -> bool {
        self.entries.len() == other.entries.len()
            && self
                .entries
                .iter()
                .zip(&other.entries)
                .all(|(a, b)| a.as_slice().as_ptr() == b.as_slice().as_ptr())
    }
}

/// Per-object undo/redo stacks of overwritten UI states.
#[derive(Debug, Clone, Default)]
pub struct HistoryStore {
    undo: HashMap<GlobalObjectId, HistoryStack>,
    redo: HashMap<GlobalObjectId, HistoryStack>,
}

impl HistoryStore {
    /// Creates an empty store; each stack keeps at most 64 states.
    pub fn new() -> Self {
        HistoryStore::default()
    }

    /// Records a state overwritten by synchronization-by-state: the
    /// [`EncodedState`] of a `StateApplied` reply as it is, or a
    /// [`StateNode`], which is encoded here.
    ///
    /// A fresh overwrite invalidates the redo stack (standard linear
    /// history semantics).
    pub fn record_overwrite(
        &mut self,
        object: GlobalObjectId,
        overwritten: impl Into<EncodedState>,
    ) {
        self.redo.remove(&object);
        self.undo.entry(object).or_default().push(overwritten.into());
    }

    /// Pops the most recent overwritten state for undo. The caller applies
    /// it and then feeds the state it displaced into
    /// [`HistoryStore::record_undone`].
    pub fn pop_undo(&mut self, object: &GlobalObjectId) -> Option<StateNode> {
        self.undo.get_mut(object)?.pop()
    }

    /// Records the state displaced by an undo, making it redoable.
    pub fn record_undone(&mut self, object: GlobalObjectId, displaced: impl Into<EncodedState>) {
        self.redo.entry(object).or_default().push(displaced.into());
    }

    /// Pops the most recent undone state for redo. The caller applies it
    /// and feeds the displaced state back through
    /// [`HistoryStore::record_redone`].
    pub fn pop_redo(&mut self, object: &GlobalObjectId) -> Option<StateNode> {
        self.redo.get_mut(object)?.pop()
    }

    /// Records the state displaced by a redo back onto the undo stack
    /// (without clearing redo, unlike a fresh overwrite).
    pub fn record_redone(&mut self, object: GlobalObjectId, displaced: impl Into<EncodedState>) {
        self.undo.entry(object).or_default().push(displaced.into());
    }

    /// The newest entry of `object`'s undo stack — what the next undo
    /// restores — as it is stored.
    pub fn newest_undo(&self, object: &GlobalObjectId) -> Option<&EncodedState> {
        self.undo.get(object)?.entries.back()
    }

    /// Depth of the undo stack for `object`.
    pub fn undo_depth(&self, object: &GlobalObjectId) -> usize {
        self.undo.get(object).map(HistoryStack::depth).unwrap_or(0)
    }

    /// Depth of the redo stack for `object`.
    pub fn redo_depth(&self, object: &GlobalObjectId) -> usize {
        self.redo.get(object).map(HistoryStack::depth).unwrap_or(0)
    }

    /// Whether no object has a stack at all, not even a drained one.
    pub fn is_empty(&self) -> bool {
        self.undo.is_empty() && self.redo.is_empty()
    }

    /// Drops all history of `object` (e.g. when it is destroyed). Returns
    /// whether any entries were actually held.
    pub fn forget(&mut self, object: &GlobalObjectId) -> bool {
        let had_undo = self.undo.remove(object).is_some();
        let had_redo = self.redo.remove(object).is_some();
        had_undo || had_redo
    }

    /// Drops the history of every object owned by `instance` (the single
    /// teardown path: deregistration after quarantine expiry, eviction,
    /// or a graceful leave). Returns how many objects had entries purged.
    pub fn purge_instance(&mut self, instance: InstanceId) -> usize {
        let mut purged: HashSet<GlobalObjectId> = HashSet::new();
        self.undo.retain(|o, _| {
            let keep = o.instance != instance;
            if !keep {
                purged.insert(o.clone());
            }
            keep
        });
        self.redo.retain(|o, _| {
            let keep = o.instance != instance;
            if !keep {
                purged.insert(o.clone());
            }
            keep
        });
        purged.len()
    }

    /// Whether `other` (typically a fork of the owning
    /// [`crate::ServerCore`]) physically shares this store's
    /// allocations: identical stacks whose entries are pointer-equal
    /// buffers, i.e. the clone cost was reference-count bumps, not
    /// copies.
    pub fn storage_is_shared_with(&self, other: &HistoryStore) -> bool {
        fn maps_share(
            a: &HashMap<GlobalObjectId, HistoryStack>,
            b: &HashMap<GlobalObjectId, HistoryStack>,
        ) -> bool {
            a.len() == b.len()
                && a.iter().all(|(o, s)| b.get(o).is_some_and(|t| s.shares_storage_with(t)))
        }
        maps_share(&self.undo, &other.undo) && maps_share(&self.redo, &other.redo)
    }

    /// Removes and returns the undo/redo stacks of every object owned by
    /// an instance in `members`, for migration to another shard.
    pub fn extract_instances(
        &mut self,
        members: &HashSet<InstanceId>,
    ) -> Vec<(GlobalObjectId, HistoryStack, HistoryStack)> {
        let mut objects: Vec<GlobalObjectId> = self
            .undo
            .keys()
            .chain(self.redo.keys())
            .filter(|o| members.contains(&o.instance))
            .cloned()
            .collect();
        objects.sort();
        objects.dedup();
        objects
            .into_iter()
            .map(|o| {
                let undo = self.undo.remove(&o).unwrap_or_default();
                let redo = self.redo.remove(&o).unwrap_or_default();
                (o, undo, redo)
            })
            .collect()
    }

    /// Re-installs stacks extracted from another shard's store.
    pub fn adopt(&mut self, entries: Vec<(GlobalObjectId, HistoryStack, HistoryStack)>) {
        for (object, undo, redo) in entries {
            if !undo.is_empty() {
                self.undo.insert(object.clone(), undo);
            }
            if !redo.is_empty() {
                self.redo.insert(object, redo);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosoft_wire::{
        codec, AttrName, InstanceId, Message, ObjectPath, Overwritten, Value, WidgetKind,
    };

    fn gid(p: &str) -> GlobalObjectId {
        GlobalObjectId::new(InstanceId(1), ObjectPath::parse(p).unwrap())
    }

    fn state(text: &str) -> StateNode {
        StateNode::new(WidgetKind::TextField, "f")
            .with_attr(AttrName::Text, Value::Text(text.into()))
    }

    /// A complete binary tree of the given depth (depth 1 = a leaf).
    fn deep_tree(depth: usize, label: &str) -> StateNode {
        fn build(depth: usize, name: &str, label: &str) -> StateNode {
            let mut n = StateNode::new(WidgetKind::Panel, name)
                .with_attr(AttrName::Title, Value::Text(label.into()));
            if depth > 1 {
                n = n.with_child(build(depth - 1, "l", label)).with_child(build(
                    depth - 1,
                    "r",
                    label,
                ));
            }
            n
        }
        build(depth, "root", label)
    }

    #[test]
    fn undo_redo_round_trip() {
        let mut h = HistoryStore::new();
        let o = gid("a.f");
        // Current state "v2" overwrote "v1".
        h.record_overwrite(o.clone(), state("v1"));
        assert_eq!(h.undo_depth(&o), 1);

        // Undo: restore v1; the displaced current state v2 becomes redoable.
        let restored = h.pop_undo(&o).unwrap();
        assert_eq!(restored, state("v1"));
        h.record_undone(o.clone(), state("v2"));
        assert_eq!(h.redo_depth(&o), 1);

        // Redo: restore v2; displaced v1 goes back to undo.
        let redone = h.pop_redo(&o).unwrap();
        assert_eq!(redone, state("v2"));
        h.record_redone(o.clone(), state("v1"));
        assert_eq!(h.undo_depth(&o), 1);
        assert_eq!(h.redo_depth(&o), 0);
    }

    #[test]
    fn fresh_overwrite_clears_redo() {
        let mut h = HistoryStore::new();
        let o = gid("a.f");
        h.record_overwrite(o.clone(), state("v1"));
        h.pop_undo(&o).unwrap();
        h.record_undone(o.clone(), state("v2"));
        assert_eq!(h.redo_depth(&o), 1);
        h.record_overwrite(o.clone(), state("v3"));
        assert_eq!(h.redo_depth(&o), 0);
    }

    #[test]
    fn depth_cap_drops_oldest() {
        let mut h = HistoryStore::new();
        let o = gid("a.f");
        for i in 0..MAX_DEPTH + 2 {
            h.record_overwrite(o.clone(), state(&format!("v{i}")));
        }
        assert_eq!(h.undo_depth(&o), MAX_DEPTH);
        for i in (2..MAX_DEPTH + 2).rev() {
            assert_eq!(h.pop_undo(&o).unwrap(), state(&format!("v{i}")));
        }
        assert!(h.pop_undo(&o).is_none());
    }

    #[test]
    fn objects_are_independent() {
        let mut h = HistoryStore::new();
        h.record_overwrite(gid("a"), state("x"));
        assert_eq!(h.undo_depth(&gid("b")), 0);
        assert!(h.pop_undo(&gid("b")).is_none());
    }

    #[test]
    fn forget_clears_both_stacks() {
        let mut h = HistoryStore::new();
        let o = gid("a");
        h.record_overwrite(o.clone(), state("x"));
        h.record_undone(o.clone(), state("y"));
        assert!(h.forget(&o));
        assert!(!h.forget(&o));
        assert_eq!(h.undo_depth(&o), 0);
        assert_eq!(h.redo_depth(&o), 0);
    }

    #[test]
    fn purge_instance_drops_all_objects_of_that_instance() {
        let mut h = HistoryStore::new();
        let mine_a = gid("a");
        let mine_b = gid("b");
        let foreign = GlobalObjectId::new(InstanceId(2), ObjectPath::parse("a").unwrap());
        h.record_overwrite(mine_a.clone(), state("x"));
        h.record_undone(mine_a.clone(), state("y"));
        h.record_overwrite(mine_b.clone(), state("x"));
        h.record_overwrite(foreign.clone(), state("x"));
        // Two distinct objects purged (a counted once despite both stacks).
        assert_eq!(h.purge_instance(InstanceId(1)), 2);
        assert_eq!(h.undo_depth(&mine_a), 0);
        assert_eq!(h.redo_depth(&mine_a), 0);
        assert_eq!(h.undo_depth(&mine_b), 0);
        assert_eq!(h.undo_depth(&foreign), 1);
        assert_eq!(h.purge_instance(InstanceId(1)), 0);
    }

    #[test]
    fn deep_trees_replay_exactly_across_the_cap() {
        // More pushes than the cap: pops must replay every surviving
        // state exactly, newest first, after front eviction.
        let mut h = HistoryStore::new();
        let o = gid("a.f");
        let pushes = MAX_DEPTH + 20;
        for i in 0..pushes {
            h.record_overwrite(o.clone(), deep_tree(5, &format!("leaf{i}")));
        }
        assert_eq!(h.undo_depth(&o), MAX_DEPTH);
        for i in (20..pushes).rev() {
            assert_eq!(h.pop_undo(&o).unwrap(), deep_tree(5, &format!("leaf{i}")));
        }
        assert!(h.pop_undo(&o).is_none());
    }

    #[test]
    fn duplicate_child_names_still_replay_exactly() {
        // Siblings are stored by position, not looked up by name, so
        // duplicate names must come back in order.
        let mut twins = StateNode::new(WidgetKind::Panel, "root");
        twins.children.push(state("first"));
        twins.children.push(state("second"));
        let mut twins2 = twins.clone();
        twins2.children[1] = state("changed");
        let mut h = HistoryStore::new();
        let o = gid("a");
        h.record_overwrite(o.clone(), twins.clone());
        h.record_overwrite(o.clone(), twins2.clone());
        assert_eq!(h.pop_undo(&o).unwrap(), twins2);
        assert_eq!(h.pop_undo(&o).unwrap(), twins);
    }

    #[test]
    fn history_returns_exactly_what_was_recorded() {
        // Everything a state can carry: each `Value` variant (floats
        // compare by bit pattern, so NaN and -0.0 must survive), a
        // semantic payload, custom attribute and widget names, and
        // duplicate sibling names.
        let values = [
            Value::Bool(true),
            Value::Int(i64::MIN),
            Value::Float(f64::NAN),
            Value::Float(-0.0),
            Value::Text("héllo".into()),
            Value::TextList(Vec::new()),
            Value::IntList(Vec::new()),
            Value::Point(-3, 7),
            Value::Color(0, 128, 255),
            Value::Bytes(vec![0, 255, 7]),
            Value::Stroke(vec![(0, 0), (-5, 9)]),
            Value::StrokeList(vec![Vec::new(), vec![(1, 2)]]),
        ];
        let mut node = StateNode::new(WidgetKind::Custom("simview".into()), "twin");
        for (i, v) in values.into_iter().enumerate() {
            node.attrs.insert(AttrName::Custom(format!("attr{i}")), v);
        }
        node.semantic = vec![0xde, 0xad, 0x00, 0xbe, 0xef];
        let full = StateNode::new(WidgetKind::Form, "root")
            .with_attr(AttrName::Title, Value::Text("everything".into()))
            .with_child(node.clone())
            .with_child(node.with_attr(AttrName::Text, Value::Text("second twin".into())));

        let mut h = HistoryStore::new();
        let o = gid("a");
        h.record_overwrite(o.clone(), full.clone());
        assert_eq!(h.pop_undo(&o).unwrap(), full);
        h.record_undone(o.clone(), full.clone());
        assert_eq!(h.pop_redo(&o).unwrap(), full);

        // Entries fed the way the server feeds them — the `overwritten`
        // slice of a decoded `StateApplied` frame — pop as the tree the
        // same bytes decode to. The second frame is not canonical:
        // attribute names out of order, one of them twice (the later
        // value wins), so it is stored as bytes `StateNode::put` never writes.
        let odd: &[u8] =
            b"\x05label\x01l\x03\x05width\x01\x02\x04text\x03\x02v1\x05width\x01\x06\x00\x00";
        let odd_tree = StateNode::new(WidgetKind::Label, "l")
            .with_attr(AttrName::Text, Value::Text("v1".into()))
            .with_attr(AttrName::Width, Value::Int(3));
        assert_ne!(EncodedState::of(&odd_tree).as_slice(), odd);
        for (encoded, tree) in [(EncodedState::of(&full).as_slice(), &full), (odd, &odd_tree)] {
            let frame = [&[24, 9, 1], encoded, &[0]].concat(); // StateApplied 9, Some, no error
            let Ok(Message::StateApplied {
                overwritten: Some(Overwritten::State(from_socket)),
                ..
            }) = codec::decode_message(&frame)
            else {
                panic!("legal frame");
            };
            assert_eq!(from_socket.as_slice(), encoded);
            h.record_overwrite(o.clone(), from_socket.clone());
            assert_eq!(h.pop_undo(&o).as_ref(), Some(tree));
            h.record_undone(o.clone(), from_socket.clone());
            assert_eq!(h.pop_redo(&o).as_ref(), Some(tree));
            h.record_redone(o.clone(), from_socket);
            assert_eq!(h.pop_undo(&o).as_ref(), Some(tree));
        }

        // A tree the codec refuses to decode can only be recorded
        // in-process (no frame carries it); it pops as no state.
        let mut too_deep = StateNode::new(WidgetKind::Panel, "leaf");
        for _ in 0..codec::MAX_STATE_DEPTH {
            too_deep = StateNode::new(WidgetKind::Panel, "p").with_child(too_deep);
        }
        h.record_overwrite(o.clone(), state("below"));
        h.record_overwrite(o.clone(), too_deep);
        assert_eq!(h.undo_depth(&o), 2);
        assert!(h.pop_undo(&o).is_none());
        assert_eq!(h.pop_undo(&o).unwrap(), state("below"));
    }

    #[test]
    fn clones_share_chain_storage() {
        let mut h = HistoryStore::new();
        let o = gid("a");
        for i in 0..MAX_DEPTH + 6 {
            h.record_overwrite(o.clone(), deep_tree(6, &format!("v{i}")));
        }
        h.record_undone(o.clone(), state("displaced"));
        let fork = h.clone();
        assert!(fork.storage_is_shared_with(&h));
        // Divergence after the fork breaks sharing for the touched stack.
        let mut fork2 = h.clone();
        fork2.record_overwrite(o.clone(), state("new"));
        assert!(!fork2.storage_is_shared_with(&h));
    }

    #[test]
    fn extract_and_adopt_preserve_chains() {
        let mut h = HistoryStore::new();
        let o = gid("a");
        for i in 0..10 {
            h.record_overwrite(o.clone(), deep_tree(4, &format!("v{i}")));
        }
        let members: HashSet<InstanceId> = [InstanceId(1)].into_iter().collect();
        let extracted = h.extract_instances(&members);
        assert_eq!(h.undo_depth(&o), 0);
        let mut other = HistoryStore::new();
        other.adopt(extracted);
        for i in (0..10).rev() {
            assert_eq!(other.pop_undo(&o).unwrap(), deep_tree(4, &format!("v{i}")));
        }
    }
}
