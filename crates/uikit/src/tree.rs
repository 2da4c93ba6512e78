//! The widget tree: an arena of UI objects organized along the
//! parent/child relationship, addressed by hierarchical pathnames (§3).

use std::sync::atomic::{AtomicU64, Ordering};

use cosoft_wire::{visits, AttrMap, AttrName, ObjectPath, StateNode, Value, WidgetKind};

use crate::schema::{SchemaRegistry, WidgetSchema};
use crate::UiError;

/// Index of a widget within a [`WidgetTree`] arena.
///
/// Ids are not reused within the lifetime of a tree, so a stale id held
/// across a destroy is detected rather than silently aliased.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WidgetId(usize);

/// One UI object.
#[derive(Debug, Clone)]
pub struct Widget {
    kind: WidgetKind,
    name: String,
    attrs: AttrMap,
    parent: Option<WidgetId>,
    children: Vec<WidgetId>,
    lock_disabled: bool,
    alive: bool,
    /// The tree's mutation count at this widget's last change: an
    /// attribute written, or a child created or destroyed (its own
    /// creation included).
    stamp: u64,
    /// The newest `stamp` in the widget's live subtree, its own included:
    /// raised along the ancestors at every change, so a subtree that did
    /// not change is known as such without entering it.
    subtree: u64,
}

impl Widget {
    /// The widget's class.
    pub fn kind(&self) -> &WidgetKind {
        &self.kind
    }

    /// The widget's own name (last pathname segment).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The widget's current attribute map.
    pub fn attrs(&self) -> &AttrMap {
        &self.attrs
    }

    /// Child widget ids in creation order.
    pub fn children(&self) -> &[WidgetId] {
        &self.children
    }

    /// Parent widget id, `None` for the root.
    pub fn parent(&self) -> Option<WidgetId> {
        self.parent
    }

    /// Whether floor control has disabled this widget (§3.2 "disable
    /// object").
    pub fn is_lock_disabled(&self) -> bool {
        self.lock_disabled
    }

    /// Whether the widget currently accepts user events: it must be
    /// `enabled` and not disabled by floor control.
    pub fn is_interactable(&self) -> bool {
        !self.lock_disabled
            && self.attrs.get(&AttrName::Enabled).and_then(Value::as_bool).unwrap_or(true)
    }
}

/// A point in one tree's history of mutations, taken by
/// [`WidgetTree::stamp`] and compared by [`WidgetTree::unchanged_since`].
/// It names the tree value it was taken of: a stamp of one tree, or of a
/// clone, says nothing about another.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeStamp {
    lineage: u64,
    count: u64,
}

/// Hands out a lineage per tree value, so that a [`TreeStamp`] never
/// compares across trees.
fn fresh_lineage() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Arena of widgets forming one application instance's UI-object tree.
#[derive(Debug)]
pub struct WidgetTree {
    nodes: Vec<Widget>,
    root: Option<WidgetId>,
    registry: SchemaRegistry,
    /// Mutations so far; every widget is stamped with the count of its
    /// last change.
    mutations: u64,
    /// Which tree value the counts belong to: fresh for a new tree and
    /// for every clone.
    lineage: u64,
}

impl Default for WidgetTree {
    fn default() -> Self {
        WidgetTree::with_registry(SchemaRegistry::default())
    }
}

/// A clone is another tree: equal content, its own [`TreeStamp`]s.
impl Clone for WidgetTree {
    fn clone(&self) -> Self {
        WidgetTree {
            nodes: self.nodes.clone(),
            root: self.root,
            registry: self.registry.clone(),
            mutations: self.mutations,
            lineage: fresh_lineage(),
        }
    }
}

impl WidgetTree {
    /// Creates an empty tree with the builtin schemas.
    pub fn new() -> Self {
        WidgetTree::default()
    }

    /// Creates an empty tree with a custom schema registry.
    pub fn with_registry(registry: SchemaRegistry) -> Self {
        WidgetTree {
            nodes: Vec::new(),
            root: None,
            registry,
            mutations: 0,
            lineage: fresh_lineage(),
        }
    }

    /// How many mutations the tree has seen: attributes written, widgets
    /// created and destroyed, one each.
    pub fn mutations(&self) -> u64 {
        self.mutations
    }

    /// The tree's present point in its history of mutations.
    pub fn stamp(&self) -> TreeStamp {
        TreeStamp { lineage: self.lineage, count: self.mutations }
    }

    /// Whether no widget of the live subtree under `id` has changed since
    /// `since` was taken of this tree. `false` for a dead id and for a
    /// stamp of another tree. Reads one widget.
    pub fn unchanged_since(&self, id: WidgetId, since: TreeStamp) -> bool {
        visits::add(1);
        since.lineage == self.lineage && self.widget(id).is_ok_and(|w| w.subtree <= since.count)
    }

    /// The live widgets under `id`, itself included, that changed since
    /// `since` — an attribute written, a child created or destroyed, or
    /// created themselves — in pre-order, each with the child indices
    /// that lead to it from `id`. Walks down from `id` on the subtree
    /// stamps: it reads the widgets on the way to a change and their
    /// children, and enters no subtree in which nothing changed, so a
    /// change costs its depth times the fanout. `None` for a dead id and
    /// for a stamp of another tree.
    pub fn changed_since(
        &self,
        id: WidgetId,
        since: TreeStamp,
    ) -> Option<Vec<(Vec<usize>, WidgetId)>> {
        fn rec(
            tree: &WidgetTree,
            id: WidgetId,
            count: u64,
            at: &mut Vec<usize>,
            out: &mut Vec<(Vec<usize>, WidgetId)>,
        ) {
            let w = &tree.nodes[id.0];
            if w.stamp > count {
                out.push((at.clone(), id));
            }
            for (i, &c) in w.children.iter().enumerate() {
                visits::add(1);
                if tree.nodes[c.0].subtree > count {
                    at.push(i);
                    rec(tree, c, count, at, out);
                    at.pop();
                }
            }
        }
        if since.lineage != self.lineage || self.widget(id).is_err() {
            return None;
        }
        visits::add(1);
        let mut out = Vec::new();
        if self.nodes[id.0].subtree > since.count {
            rec(self, id, since.count, &mut Vec::new(), &mut out);
        }
        Some(out)
    }

    /// Counts one mutation and stamps `id` with it.
    fn touch(&mut self, id: WidgetId) {
        self.mutations += 1;
        self.stamp_with(id);
    }

    /// Stamps `id` with the present mutation count and raises its
    /// ancestors' subtree stamps.
    fn stamp_with(&mut self, id: WidgetId) {
        self.nodes[id.0].stamp = self.mutations;
        self.raise(id);
    }

    /// Raises the subtree stamp of `id` and of its ancestors to the
    /// present mutation count: O(depth).
    fn raise(&mut self, id: WidgetId) {
        let mut at = Some(id);
        while let Some(id) = at {
            let w = &mut self.nodes[id.0];
            w.subtree = self.mutations;
            at = w.parent;
        }
    }

    /// Mutable access to the schema registry, for registering custom
    /// widget classes after construction. What a snapshot keeps of a
    /// widget may change with it, so every stamp taken before is then one
    /// of another tree.
    pub fn registry_mut(&mut self) -> &mut SchemaRegistry {
        self.lineage = fresh_lineage();
        &mut self.registry
    }

    /// Resolves the schema for a kind through the tree's registry.
    pub fn schema_of(&self, kind: &WidgetKind) -> Option<&WidgetSchema> {
        self.registry.resolve(kind)
    }

    /// The root widget id, if a root was created.
    pub fn root(&self) -> Option<WidgetId> {
        self.root
    }

    /// Number of live widgets.
    pub fn len(&self) -> usize {
        self.nodes.iter().filter(|w| w.alive).count()
    }

    /// Whether the tree has no live widgets.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn default_attrs(&self, kind: &WidgetKind) -> AttrMap {
        match self.registry.resolve(kind) {
            Some(schema) => {
                schema.attrs.iter().map(|a| (a.name.clone(), a.default.clone())).collect()
            }
            None => AttrMap::new(),
        }
    }

    /// Creates the root widget.
    ///
    /// # Errors
    ///
    /// [`UiError::RootExists`] if a root was already created.
    pub fn create_root(&mut self, kind: WidgetKind, name: &str) -> Result<WidgetId, UiError> {
        if self.root.is_some() {
            return Err(UiError::RootExists);
        }
        let attrs = self.default_attrs(&kind);
        let id = WidgetId(self.nodes.len());
        self.nodes.push(Widget {
            kind,
            name: name.to_owned(),
            attrs,
            parent: None,
            children: Vec::new(),
            lock_disabled: false,
            alive: true,
            stamp: 0,
            subtree: 0,
        });
        self.touch(id);
        self.root = Some(id);
        Ok(id)
    }

    /// Creates a child widget under `parent`.
    ///
    /// # Errors
    ///
    /// [`UiError::UnknownPath`] for a dead parent id,
    /// [`UiError::NotContainer`] if the parent kind cannot hold children,
    /// [`UiError::DuplicateName`] if a sibling already uses `name`.
    pub fn create(
        &mut self,
        parent: WidgetId,
        kind: WidgetKind,
        name: &str,
    ) -> Result<WidgetId, UiError> {
        let parent_widget = self.widget(parent)?;
        let parent_kind = parent_widget.kind.clone();
        let container = self
            .registry
            .resolve(&parent_kind)
            .map(|s| s.container)
            .unwrap_or_else(|| parent_kind.is_container());
        if !container {
            return Err(UiError::NotContainer { kind: parent_kind });
        }
        if parent_widget
            .children
            .iter()
            .any(|&c| self.nodes[c.0].alive && self.nodes[c.0].name == name)
        {
            return Err(UiError::DuplicateName {
                parent: self.path_of(parent).expect("live parent has path"),
                name: name.to_owned(),
            });
        }
        let attrs = self.default_attrs(&kind);
        let id = WidgetId(self.nodes.len());
        self.nodes.push(Widget {
            kind,
            name: name.to_owned(),
            attrs,
            parent: Some(parent),
            children: Vec::new(),
            lock_disabled: false,
            alive: true,
            stamp: 0,
            subtree: 0,
        });
        self.nodes[parent.0].children.push(id);
        self.touch(id);
        self.stamp_with(parent);
        Ok(id)
    }

    /// Destroys a widget and its whole subtree, returning the pathnames of
    /// every destroyed widget (the coupling layer decouples them, §3.2:
    /// "the decoupling algorithm is applied automatically when a UI object
    /// is destroyed").
    ///
    /// # Errors
    ///
    /// [`UiError::UnknownPath`] for a dead or unknown id.
    pub fn destroy(&mut self, id: WidgetId) -> Result<Vec<ObjectPath>, UiError> {
        self.widget(id)?;
        let mut destroyed = Vec::new();
        self.collect_paths(id, &mut destroyed);
        self.kill(id);
        self.mutations += 1;
        if let Some(parent) = self.nodes[id.0].parent {
            self.nodes[parent.0].children.retain(|&c| c != id);
            self.stamp_with(parent);
        }
        if self.root == Some(id) {
            self.root = None;
        }
        Ok(destroyed)
    }

    fn collect_paths(&self, id: WidgetId, out: &mut Vec<ObjectPath>) {
        if let Some(p) = self.path_of(id) {
            out.push(p);
        }
        for &c in &self.nodes[id.0].children {
            if self.nodes[c.0].alive {
                self.collect_paths(c, out);
            }
        }
    }

    fn kill(&mut self, id: WidgetId) {
        let children = self.nodes[id.0].children.clone();
        for c in children {
            self.kill(c);
        }
        self.nodes[id.0].alive = false;
        self.nodes[id.0].children.clear();
    }

    /// Immutable access to a widget.
    ///
    /// # Errors
    ///
    /// [`UiError::UnknownPath`] if the id is dead or out of range.
    pub fn widget(&self, id: WidgetId) -> Result<&Widget, UiError> {
        self.nodes
            .get(id.0)
            .filter(|w| w.alive)
            .ok_or_else(|| UiError::UnknownPath { path: ObjectPath::root() })
    }

    /// Resolves a pathname to a widget id.
    ///
    /// The first segment names the root widget; subsequent segments name
    /// the chain of children. The empty (root) path resolves to the root
    /// widget.
    pub fn resolve(&self, path: &ObjectPath) -> Option<WidgetId> {
        let root = self.root?;
        let segs = path.segments();
        if segs.is_empty() {
            return Some(root);
        }
        if self.nodes[root.0].name != segs[0] {
            return None;
        }
        let mut cur = root;
        for seg in &segs[1..] {
            cur = *self.nodes[cur.0]
                .children
                .iter()
                .find(|&&c| self.nodes[c.0].alive && self.nodes[c.0].name == *seg)?;
        }
        Some(cur)
    }

    /// Resolves a pathname, returning an error for diagnostics.
    ///
    /// # Errors
    ///
    /// [`UiError::UnknownPath`] if no widget lives at `path`.
    pub fn resolve_required(&self, path: &ObjectPath) -> Result<WidgetId, UiError> {
        self.resolve(path).ok_or_else(|| UiError::UnknownPath { path: path.clone() })
    }

    /// Computes the pathname of a live widget (root name included).
    pub fn path_of(&self, id: WidgetId) -> Option<ObjectPath> {
        let w = self.nodes.get(id.0).filter(|w| w.alive)?;
        let mut segs = vec![w.name.clone()];
        let mut cur = w.parent;
        while let Some(p) = cur {
            segs.push(self.nodes[p.0].name.clone());
            cur = self.nodes[p.0].parent;
        }
        segs.reverse();
        ObjectPath::from_segments(segs).ok()
    }

    /// Reads an attribute value.
    ///
    /// # Errors
    ///
    /// [`UiError::UnknownPath`] for a dead id; [`UiError::InvalidAttr`] if
    /// the attribute is not present.
    pub fn attr(&self, id: WidgetId, name: &AttrName) -> Result<&Value, UiError> {
        let w = self.widget(id)?;
        w.attrs
            .get(name)
            .ok_or_else(|| UiError::InvalidAttr { kind: w.kind.clone(), attr: name.clone() })
    }

    /// Sets an attribute after schema validation, returning the previous
    /// value (exposing the intermediate result, C-INTERMEDIATE).
    ///
    /// Widgets of unregistered custom kinds accept any attribute.
    ///
    /// # Errors
    ///
    /// [`UiError::UnknownPath`], [`UiError::InvalidAttr`] or
    /// [`UiError::TypeMismatch`].
    pub fn set_attr(
        &mut self,
        id: WidgetId,
        name: AttrName,
        value: Value,
    ) -> Result<Option<Value>, UiError> {
        if let Some(schema) = self.registry.resolve(&self.widget(id)?.kind) {
            schema.validate(&name, &value)?;
        }
        self.touch(id);
        Ok(self.nodes[id.0].attrs.insert(name, value))
    }

    /// Sets an attribute without schema validation.
    ///
    /// Used by state application paths that must reproduce a remote state
    /// byte-for-byte (the remote side already validated).
    ///
    /// # Errors
    ///
    /// [`UiError::UnknownPath`] for a dead id.
    pub fn set_attr_unchecked(
        &mut self,
        id: WidgetId,
        name: AttrName,
        value: Value,
    ) -> Result<Option<Value>, UiError> {
        self.widget(id)?;
        self.touch(id);
        Ok(self.nodes[id.0].attrs.insert(name, value))
    }

    /// Marks a widget (and subtree) as disabled/enabled by floor control.
    ///
    /// # Errors
    ///
    /// [`UiError::UnknownPath`] for a dead id.
    pub fn set_lock_disabled(&mut self, id: WidgetId, disabled: bool) -> Result<(), UiError> {
        self.widget(id)?;
        self.nodes[id.0].lock_disabled = disabled;
        Ok(())
    }

    /// Takes a snapshot of the subtree rooted at `id`.
    ///
    /// With `relevant_only`, attributes are filtered to the kind's relevant
    /// set (the coupling payload of §3.1); otherwise the full state is
    /// captured (used for the historical-UI-state store).
    ///
    /// The `semantic` payloads are left empty; the coupling layer fills
    /// them through the application's `store` hooks.
    ///
    /// # Errors
    ///
    /// [`UiError::UnknownPath`] for a dead id.
    pub fn snapshot(&self, id: WidgetId, relevant_only: bool) -> Result<StateNode, UiError> {
        let w = self.widget(id)?;
        let mut node = self.own_state(w, relevant_only);
        for &c in &w.children {
            if self.nodes[c.0].alive {
                node.children.push(self.snapshot(c, relevant_only)?);
            }
        }
        Ok(node)
    }

    /// The widget alone, as [`WidgetTree::snapshot`] takes it: kind, name
    /// and (relevant) attributes, no children.
    ///
    /// # Errors
    ///
    /// [`UiError::UnknownPath`] for a dead id.
    pub fn snapshot_node(&self, id: WidgetId, relevant_only: bool) -> Result<StateNode, UiError> {
        Ok(self.own_state(self.widget(id)?, relevant_only))
    }

    /// A widget's kind, name and (relevant) attributes; one visit.
    fn own_state(&self, w: &Widget, relevant_only: bool) -> StateNode {
        visits::add(1);
        let mut node = StateNode::new(w.kind.clone(), &w.name);
        let schema = self.registry.resolve(&w.kind);
        for (k, v) in &w.attrs {
            let include = if relevant_only {
                match schema {
                    Some(s) => s.attr(k).map(|a| a.relevant).unwrap_or(false),
                    // Unregistered custom kinds: everything is relevant.
                    None => true,
                }
            } else {
                true
            };
            if include {
                node.attrs.insert(k.clone(), v.clone());
            }
        }
        node
    }

    /// Walks the live subtree under `id` in pre-order.
    pub fn walk(&self, id: WidgetId) -> Vec<WidgetId> {
        let mut out = Vec::new();
        if self.widget(id).is_ok() {
            self.walk_rec(id, &mut out);
        }
        out
    }

    fn walk_rec(&self, id: WidgetId, out: &mut Vec<WidgetId>) {
        out.push(id);
        for &c in &self.nodes[id.0].children {
            if self.nodes[c.0].alive {
                self.walk_rec(c, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree_with_form() -> (WidgetTree, WidgetId) {
        let mut t = WidgetTree::new();
        let root = t.create_root(WidgetKind::Form, "root").unwrap();
        (t, root)
    }

    #[test]
    fn create_and_resolve() {
        let (mut t, root) = tree_with_form();
        let panel = t.create(root, WidgetKind::Panel, "panel").unwrap();
        let btn = t.create(panel, WidgetKind::Button, "ok").unwrap();
        assert_eq!(t.resolve(&ObjectPath::parse("root.panel.ok").unwrap()), Some(btn));
        assert_eq!(t.resolve(&ObjectPath::parse("root.panel").unwrap()), Some(panel));
        assert_eq!(t.resolve(&ObjectPath::parse("root").unwrap()), Some(root));
        assert_eq!(t.resolve(&ObjectPath::root()), Some(root));
        assert_eq!(t.resolve(&ObjectPath::parse("root.missing").unwrap()), None);
        assert_eq!(t.resolve(&ObjectPath::parse("other").unwrap()), None);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn path_of_round_trips() {
        let (mut t, root) = tree_with_form();
        let panel = t.create(root, WidgetKind::Panel, "p").unwrap();
        let field = t.create(panel, WidgetKind::TextField, "f").unwrap();
        let p = t.path_of(field).unwrap();
        assert_eq!(p.to_string(), "root.p.f");
        assert_eq!(t.resolve(&p), Some(field));
    }

    #[test]
    fn duplicate_sibling_names_rejected() {
        let (mut t, root) = tree_with_form();
        t.create(root, WidgetKind::Button, "b").unwrap();
        let err = t.create(root, WidgetKind::Button, "b").unwrap_err();
        assert!(matches!(err, UiError::DuplicateName { .. }));
    }

    #[test]
    fn non_container_rejects_children() {
        let (mut t, root) = tree_with_form();
        let btn = t.create(root, WidgetKind::Button, "b").unwrap();
        let err = t.create(btn, WidgetKind::Label, "l").unwrap_err();
        assert!(matches!(err, UiError::NotContainer { kind: WidgetKind::Button }));
    }

    #[test]
    fn second_root_rejected() {
        let (mut t, _) = tree_with_form();
        assert!(matches!(t.create_root(WidgetKind::Form, "again"), Err(UiError::RootExists)));
    }

    #[test]
    fn destroy_removes_subtree_and_reports_paths() {
        let (mut t, root) = tree_with_form();
        let panel = t.create(root, WidgetKind::Panel, "p").unwrap();
        let f1 = t.create(panel, WidgetKind::TextField, "f1").unwrap();
        t.create(panel, WidgetKind::TextField, "f2").unwrap();
        let destroyed = t.destroy(panel).unwrap();
        let paths: Vec<String> = destroyed.iter().map(|p| p.to_string()).collect();
        assert_eq!(paths, vec!["root.p", "root.p.f1", "root.p.f2"]);
        assert!(t.widget(panel).is_err());
        assert!(t.widget(f1).is_err());
        assert_eq!(t.len(), 1);
        // The name is free again.
        assert!(t.create(root, WidgetKind::Panel, "p").is_ok());
    }

    #[test]
    fn attrs_initialized_from_schema_defaults() {
        let (mut t, root) = tree_with_form();
        let slider = t.create(root, WidgetKind::Slider, "s").unwrap();
        assert_eq!(t.attr(slider, &AttrName::ValueNum).unwrap(), &Value::Float(0.0));
        assert_eq!(t.attr(slider, &AttrName::Max).unwrap(), &Value::Float(1.0));
    }

    #[test]
    fn set_attr_validates_and_returns_previous() {
        let (mut t, root) = tree_with_form();
        let field = t.create(root, WidgetKind::TextField, "f").unwrap();
        let prev = t.set_attr(field, AttrName::Text, Value::Text("hi".into())).unwrap();
        assert_eq!(prev, Some(Value::Text(String::new())));
        assert!(matches!(
            t.set_attr(field, AttrName::Text, Value::Int(3)),
            Err(UiError::TypeMismatch { .. })
        ));
        assert!(matches!(
            t.set_attr(field, AttrName::Checked, Value::Bool(true)),
            Err(UiError::InvalidAttr { .. })
        ));
    }

    #[test]
    fn lock_disable_affects_interactability() {
        let (mut t, root) = tree_with_form();
        let btn = t.create(root, WidgetKind::Button, "b").unwrap();
        assert!(t.widget(btn).unwrap().is_interactable());
        t.set_lock_disabled(btn, true).unwrap();
        assert!(!t.widget(btn).unwrap().is_interactable());
        t.set_lock_disabled(btn, false).unwrap();
        t.set_attr(btn, AttrName::Enabled, Value::Bool(false)).unwrap();
        assert!(!t.widget(btn).unwrap().is_interactable());
    }

    #[test]
    fn snapshot_relevant_only_filters_geometry() {
        let (mut t, root) = tree_with_form();
        let field = t.create(root, WidgetKind::TextField, "f").unwrap();
        t.set_attr(field, AttrName::Text, Value::Text("q".into())).unwrap();
        let snap = t.snapshot(field, true).unwrap();
        assert_eq!(snap.attrs.len(), 1);
        assert_eq!(snap.attrs.get(&AttrName::Text), Some(&Value::Text("q".into())));
        let full = t.snapshot(field, false).unwrap();
        assert!(full.attrs.len() > 1);
        assert!(full.attrs.contains_key(&AttrName::Width));
    }

    #[test]
    fn snapshot_captures_subtree() {
        let (mut t, root) = tree_with_form();
        let panel = t.create(root, WidgetKind::Panel, "p").unwrap();
        t.create(panel, WidgetKind::Label, "l").unwrap();
        let snap = t.snapshot(root, true).unwrap();
        assert_eq!(snap.node_count(), 3);
        assert_eq!(snap.children[0].name, "p");
        assert_eq!(snap.children[0].children[0].name, "l");
    }

    #[test]
    fn walk_is_preorder() {
        let (mut t, root) = tree_with_form();
        let p1 = t.create(root, WidgetKind::Panel, "p1").unwrap();
        t.create(p1, WidgetKind::Label, "l1").unwrap();
        t.create(root, WidgetKind::Panel, "p2").unwrap();
        let names: Vec<&str> =
            t.walk(root).into_iter().map(|id| t.widget(id).unwrap().name()).collect();
        assert_eq!(names, vec!["root", "p1", "l1", "p2"]);
    }

    #[test]
    fn custom_kind_accepts_any_attr() {
        let mut t = WidgetTree::new();
        let root = t.create_root(WidgetKind::Custom("simview".into()), "sim").unwrap();
        t.set_attr(root, AttrName::custom("speed"), Value::Float(2.0)).unwrap();
        assert_eq!(t.attr(root, &AttrName::custom("speed")).unwrap(), &Value::Float(2.0));
        // Everything is relevant for unregistered custom kinds.
        let snap = t.snapshot(root, true).unwrap();
        assert!(snap.attrs.contains_key(&AttrName::custom("speed")));
    }

    #[test]
    fn changed_since_enters_only_the_subtrees_that_changed() {
        let (mut t, root) = tree_with_form();
        let p1 = t.create(root, WidgetKind::Panel, "p1").unwrap();
        let l1 = t.create(p1, WidgetKind::Label, "l1").unwrap();
        let p2 = t.create(root, WidgetKind::Panel, "p2").unwrap();
        let l2 = t.create(p2, WidgetKind::Label, "l2").unwrap();
        let since = t.stamp();
        let found = |t: &WidgetTree, id| t.changed_since(id, since).unwrap();
        assert_eq!(found(&t, root), vec![]);
        t.set_attr(l2, AttrName::Text, Value::Text("x".into())).unwrap();
        assert!(t.unchanged_since(p1, since) && !t.unchanged_since(root, since));
        assert_eq!(found(&t, root), vec![(vec![1, 0], l2)]);
        let before = visits::total();
        t.changed_since(root, since);
        // The root, its two children, and p2's one child: p1 is not entered.
        assert_eq!(visits::total() - before, 4);
        t.destroy(l1).unwrap();
        assert_eq!(found(&t, root), vec![(vec![0], p1), (vec![1, 0], l2)]);
        let l3 = t.create(p2, WidgetKind::Label, "l3").unwrap();
        assert_eq!(found(&t, p2), vec![(vec![], p2), (vec![0], l2), (vec![1], l3)]);
        t.destroy(l2).unwrap();
        assert_eq!(found(&t, p2), vec![(vec![], p2), (vec![0], l3)]);
        assert_eq!(found(&t, p1), vec![(vec![], p1)]);
        // A widget created after its parent's later siblings comes first
        // all the same: pre-order, not creation order.
        let l4 = t.create(p1, WidgetKind::Label, "l4").unwrap();
        t.set_attr(l3, AttrName::Text, Value::Text("y".into())).unwrap();
        assert_eq!(
            found(&t, root),
            vec![(vec![0], p1), (vec![0, 0], l4), (vec![1], p2), (vec![1, 0], l3)]
        );
    }

    #[test]
    fn a_stamp_vouches_for_its_own_tree_and_registry_only() {
        let (mut t, root) = tree_with_form();
        let since = t.stamp();
        assert!(t.unchanged_since(root, since));
        assert!(!t.clone().unchanged_since(root, since));
        assert_eq!(t.clone().changed_since(root, since), None);
        t.registry_mut();
        assert!(!t.unchanged_since(root, since));
        assert_eq!(t.changed_since(root, since), None);
    }
}
