//! Semantic-state hooks (§3.1 "synchronizing semantic state").
//!
//! "To keep UI and semantic states consistent, application programmers
//! have to define two functions for each semantic data structure to store
//! and load application data. They are automatically invoked in the
//! dominating and dominated application instances respectively when the
//! state of a UI object is copied."

use std::collections::HashMap;
use std::fmt;

use cosoft_uikit::WidgetTree;
use cosoft_wire::{ObjectPath, StateNode};

/// Serializes the semantic data attached to one UI object.
pub type StoreFn = Box<dyn FnMut(&WidgetTree) -> Vec<u8> + Send>;
/// Deserializes semantic data into the application after a state copy.
pub type LoadFn = Box<dyn FnMut(&mut WidgetTree, &[u8]) + Send>;

/// Registry of per-object store/load hooks.
#[derive(Default)]
pub struct SemanticHooks {
    hooks: HashMap<ObjectPath, (StoreFn, LoadFn)>,
}

impl fmt::Debug for SemanticHooks {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SemanticHooks").field("registered", &self.hooks.len()).finish()
    }
}

impl SemanticHooks {
    /// Creates an empty registry.
    pub fn new() -> Self {
        SemanticHooks::default()
    }

    /// Registers the store/load pair for the object at `path`, replacing
    /// any previous pair.
    pub fn register<S, L>(&mut self, path: ObjectPath, store: S, load: L)
    where
        S: FnMut(&WidgetTree) -> Vec<u8> + Send + 'static,
        L: FnMut(&mut WidgetTree, &[u8]) + Send + 'static,
    {
        self.hooks.insert(path, (Box::new(store), Box::new(load)));
    }

    /// Removes the hooks for `path`, returning whether a pair existed.
    pub fn unregister(&mut self, path: &ObjectPath) -> bool {
        self.hooks.remove(path).is_some()
    }

    /// Number of registered hook pairs.
    pub fn len(&self) -> usize {
        self.hooks.len()
    }

    /// Whether no hooks are registered.
    pub fn is_empty(&self) -> bool {
        self.hooks.is_empty()
    }

    /// Whether a hook is registered at `base` or below it: whether a
    /// snapshot of the object at `base` may carry a semantic payload.
    pub fn covers(&self, base: &ObjectPath) -> bool {
        self.hooks.keys().any(|p| base.is_prefix_of(p))
    }

    /// Fills the `semantic` payloads of a snapshot taken at `base`: for
    /// every node with registered hooks, the store function runs and its
    /// bytes are attached (invoked "in the dominating instance").
    pub fn fill_snapshot(
        &mut self,
        tree: &WidgetTree,
        base: &ObjectPath,
        snapshot: &mut StateNode,
    ) {
        for (path, at) in self.placements(base, snapshot) {
            let node = at.iter().try_fold(&mut *snapshot, |n, &i| n.children.get_mut(i));
            if let (Some(node), Some((store, _))) = (node, self.hooks.get_mut(&path)) {
                node.semantic = store(tree);
            }
        }
    }

    /// Delivers the `semantic` payloads of an applied snapshot to the
    /// load hooks under `base` (invoked "in the dominated instance").
    /// Returns how many payloads were delivered.
    pub fn deliver_snapshot(
        &mut self,
        tree: &mut WidgetTree,
        base: &ObjectPath,
        snapshot: &StateNode,
    ) -> usize {
        let mut delivered = 0;
        for (path, at) in self.placements(base, snapshot) {
            let node = at.iter().try_fold(snapshot, |n, &i| n.children.get(i));
            let Some(node) = node.filter(|n| !n.semantic.is_empty()) else { continue };
            if let Some((_, load)) = self.hooks.get_mut(&path) {
                load(tree, &node.semantic);
                delivered += 1;
            }
        }
        delivered
    }

    /// Where the hooks registered at or below `base` sit in `snapshot`, a
    /// state of the object at `base`: each hook's path with the child
    /// indices that lead to its node, in pre-order. Only the nodes on the
    /// way to a hook are visited, none when no hook lies below `base`;
    /// a name two siblings share leads to both.
    fn placements(&self, base: &ObjectPath, snapshot: &StateNode) -> Vec<(ObjectPath, Vec<usize>)> {
        fn place(
            targets: &[&ObjectPath],
            depth: usize,
            node: &StateNode,
            at: &mut Vec<usize>,
            out: &mut Vec<(ObjectPath, Vec<usize>)>,
        ) {
            if let Some(here) = targets.iter().find(|t| t.depth() == depth) {
                out.push(((*here).clone(), at.clone()));
            }
            for (i, child) in node.children.iter().enumerate() {
                let below: Vec<&ObjectPath> = targets
                    .iter()
                    .copied()
                    .filter(|t| t.segments().get(depth) == Some(&child.name))
                    .collect();
                if !below.is_empty() {
                    at.push(i);
                    place(&below, depth + 1, child, at, out);
                    at.pop();
                }
            }
        }
        let targets: Vec<&ObjectPath> =
            self.hooks.keys().filter(|p| base.is_prefix_of(p)).collect();
        let mut out = Vec::new();
        if !targets.is_empty() {
            place(&targets, base.depth(), snapshot, &mut Vec::new(), &mut out);
        }
        out
    }
}

/// A standard semantic-payload codec, the kind of "standard extension for
/// typical applications" the paper's conclusion calls for: a string
/// key–value map with a deterministic, length-prefixed binary encoding.
///
/// Applications whose internal data fits a flat map can use
/// [`kv::encode`]/[`kv::decode`] as their store/load functions without
/// writing codecs of their own.
pub mod kv {
    use std::collections::BTreeMap;

    /// Encodes a key–value map (deterministic: `BTreeMap` ordering).
    pub fn encode(map: &BTreeMap<String, String>) -> Vec<u8> {
        let mut out = Vec::new();
        push_len(&mut out, map.len());
        for (k, v) in map {
            push_str(&mut out, k);
            push_str(&mut out, v);
        }
        out
    }

    /// Decodes a key–value map; returns `None` on malformed input.
    pub fn decode(bytes: &[u8]) -> Option<BTreeMap<String, String>> {
        let mut cursor = 0usize;
        let n = read_len(bytes, &mut cursor)?;
        let mut map = BTreeMap::new();
        for _ in 0..n {
            let k = read_str(bytes, &mut cursor)?;
            let v = read_str(bytes, &mut cursor)?;
            map.insert(k, v);
        }
        if cursor == bytes.len() {
            Some(map)
        } else {
            None
        }
    }

    fn push_len(out: &mut Vec<u8>, mut n: usize) {
        loop {
            let byte = (n & 0x7f) as u8;
            n >>= 7;
            if n == 0 {
                out.push(byte);
                return;
            }
            out.push(byte | 0x80);
        }
    }

    fn push_str(out: &mut Vec<u8>, s: &str) {
        push_len(out, s.len());
        out.extend_from_slice(s.as_bytes());
    }

    fn read_len(bytes: &[u8], cursor: &mut usize) -> Option<usize> {
        let mut shift = 0u32;
        let mut out = 0usize;
        loop {
            let byte = *bytes.get(*cursor)?;
            *cursor += 1;
            if shift >= usize::BITS {
                return None;
            }
            out |= usize::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Some(out);
            }
            shift += 7;
        }
    }

    fn read_str(bytes: &[u8], cursor: &mut usize) -> Option<String> {
        let n = read_len(bytes, cursor)?;
        let end = cursor.checked_add(n)?;
        let slice = bytes.get(*cursor..end)?;
        *cursor = end;
        String::from_utf8(slice.to_vec()).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosoft_uikit::spec::build_tree;
    use cosoft_wire::WidgetKind;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn store_fills_and_load_delivers() {
        let tree = build_tree(r#"form f { textfield x text="q" }"#).unwrap();
        let mut hooks = SemanticHooks::new();
        let path = ObjectPath::parse("f.x").unwrap();
        let loaded = Arc::new(AtomicU64::new(0));
        let loaded2 = loaded.clone();
        hooks.register(
            path.clone(),
            |_tree| vec![7, 7, 7],
            move |_tree, bytes| {
                loaded2.store(bytes.len() as u64, Ordering::SeqCst);
            },
        );

        let base = ObjectPath::parse("f").unwrap();
        let mut snap = tree.snapshot(tree.root().unwrap(), true).unwrap();
        hooks.fill_snapshot(&tree, &base, &mut snap);
        assert_eq!(snap.children[0].semantic, vec![7, 7, 7]);
        assert!(snap.semantic.is_empty(), "no hook on the form itself");

        let mut tree2 = build_tree(r#"form f { textfield x text="" }"#).unwrap();
        let n = hooks.deliver_snapshot(&mut tree2, &base, &snap);
        assert_eq!(n, 1);
        assert_eq!(loaded.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn empty_payloads_skip_load() {
        let mut hooks = SemanticHooks::new();
        let calls = Arc::new(AtomicU64::new(0));
        let calls2 = calls.clone();
        hooks.register(
            ObjectPath::parse("f").unwrap(),
            |_| Vec::new(),
            move |_, _| {
                calls2.fetch_add(1, Ordering::SeqCst);
            },
        );
        let mut tree = build_tree("form f").unwrap();
        let snap = StateNode::new(WidgetKind::Form, "f");
        let n = hooks.deliver_snapshot(&mut tree, &ObjectPath::parse("f").unwrap(), &snap);
        assert_eq!(n, 0);
        assert_eq!(calls.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn unregister_removes_hooks() {
        let mut hooks = SemanticHooks::new();
        let p = ObjectPath::parse("a").unwrap();
        hooks.register(p.clone(), |_| vec![1], |_, _| {});
        assert_eq!(hooks.len(), 1);
        assert!(hooks.unregister(&p));
        assert!(!hooks.unregister(&p));
        assert!(hooks.is_empty());
    }

    /// The walk keeps the order and the namesake behaviour of a visit of
    /// every node: hooks run in pre-order, a hook's path reaches every
    /// sibling of that name, and a hook outside the object never runs.
    #[test]
    fn hooks_run_in_pre_order_on_every_namesake() {
        use std::sync::Mutex;
        let snapshot = || {
            StateNode::new(WidgetKind::Form, "f")
                .with_child(
                    StateNode::new(WidgetKind::Panel, "x")
                        .with_child(StateNode::new(WidgetKind::Label, "y")),
                )
                .with_child(StateNode::new(WidgetKind::Label, "x"))
                .with_child(StateNode::new(WidgetKind::Label, "z"))
        };
        let ran = Arc::new(Mutex::new(Vec::new()));
        let mut hooks = SemanticHooks::new();
        for at in ["f", "f.x", "f.x.y", "g", "g.x"] {
            let (stored, loaded) = (ran.clone(), ran.clone());
            hooks.register(
                ObjectPath::parse(at).unwrap(),
                move |_| {
                    stored.lock().unwrap().push(at);
                    at.as_bytes().to_vec()
                },
                move |_, _| loaded.lock().unwrap().push(at),
            );
        }
        let base = ObjectPath::parse("f").unwrap();
        let mut tree = build_tree("form f").unwrap();
        let mut snap = snapshot();
        hooks.fill_snapshot(&tree, &base, &mut snap);
        let payloads: Vec<&[u8]> = [&snap, &snap.children[0], &snap.children[0].children[0]]
            .into_iter()
            .chain(&snap.children[1..])
            .map(|n| n.semantic.as_slice())
            .collect();
        assert_eq!(payloads, [&b"f"[..], b"f.x", b"f.x.y", b"f.x", b""]);
        let visits = ["f", "f.x", "f.x.y", "f.x"];
        assert_eq!(std::mem::take(&mut *ran.lock().unwrap()), visits);
        assert_eq!(hooks.deliver_snapshot(&mut tree, &base, &snap), 4);
        assert_eq!(*ran.lock().unwrap(), visits);
        // No hook at or below the object: nothing is visited.
        let mut other = snapshot();
        hooks.fill_snapshot(&tree, &ObjectPath::parse("h").unwrap(), &mut other);
        assert_eq!(other, snapshot());
    }

    #[test]
    fn kv_codec_round_trips() {
        use std::collections::BTreeMap;
        let mut map = BTreeMap::new();
        map.insert("attempts".to_owned(), "3".to_owned());
        map.insert("solution".to_owned(), "x = 2.0".to_owned());
        map.insert("".to_owned(), "empty key ok".to_owned());
        let bytes = kv::encode(&map);
        assert_eq!(kv::decode(&bytes), Some(map));
        assert_eq!(kv::decode(&kv::encode(&BTreeMap::new())), Some(BTreeMap::new()));
    }

    #[test]
    fn kv_codec_rejects_garbage() {
        assert_eq!(kv::decode(&[0xff, 0xff, 0xff]), None);
        assert_eq!(kv::decode(&[2, 1, b'a']), None, "truncated");
        // Trailing bytes rejected.
        let mut bytes = kv::encode(&std::collections::BTreeMap::new());
        bytes.push(0);
        assert_eq!(kv::decode(&bytes), None);
    }

    #[test]
    fn kv_as_store_load_hooks() {
        use std::collections::BTreeMap;
        use std::sync::{Arc, Mutex};
        let model = Arc::new(Mutex::new(BTreeMap::from([("score".to_owned(), "42".to_owned())])));
        let mut hooks = SemanticHooks::new();
        let store_model = model.clone();
        let load_model = model.clone();
        hooks.register(
            ObjectPath::parse("f").unwrap(),
            move |_| kv::encode(&store_model.lock().unwrap()),
            move |_, bytes| {
                if let Some(m) = kv::decode(bytes) {
                    *load_model.lock().unwrap() = m;
                }
            },
        );
        let tree = build_tree("form f").unwrap();
        let mut snap = tree.snapshot(tree.root().unwrap(), true).unwrap();
        hooks.fill_snapshot(&tree, &ObjectPath::parse("f").unwrap(), &mut snap);
        model.lock().unwrap().clear();
        let mut tree2 = build_tree("form f").unwrap();
        hooks.deliver_snapshot(&mut tree2, &ObjectPath::parse("f").unwrap(), &snap);
        assert_eq!(model.lock().unwrap().get("score"), Some(&"42".to_owned()));
    }

    #[test]
    fn hooks_on_nested_objects() {
        let tree = build_tree(r#"form f { panel p { canvas c } }"#).unwrap();
        let mut hooks = SemanticHooks::new();
        hooks.register(ObjectPath::parse("f.p.c").unwrap(), |_| vec![1, 2], |_, _| {});
        let mut snap = tree.snapshot(tree.root().unwrap(), true).unwrap();
        hooks.fill_snapshot(&tree, &ObjectPath::parse("f").unwrap(), &mut snap);
        assert_eq!(snap.children[0].children[0].semantic, vec![1, 2]);
    }
}
