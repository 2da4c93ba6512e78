//! Compatibility between UI objects (§3.3).
//!
//! * **Directly compatible** primitives: same type, or a declared
//!   [`CorrespondenceTable`] entry mapping each relevant attribute of the
//!   source to an attribute of the destination.
//! * **s-compatible** complex objects: a one-to-one mapping between direct
//!   components such that each pair is directly compatible (primitives) or
//!   s-compatible (complex), recursively. Matching uses a (kind, name)
//!   heuristic — name-equal children first, then same-kind children in
//!   order — "sometimes it can be pre-defined, or certain heuristics have
//!   to be used to avoid combinatorial explosion".
//! * **Destructive merging**: copy attribute values *and structure*,
//!   destroying conflicting destination children and creating missing
//!   ones.
//! * **Flexible matching**: synchronize the identical substructure;
//!   differing substructures are conserved (extra destination children
//!   survive) and merged (missing source children are created).

use std::collections::HashMap;
use std::fmt;

use cosoft_uikit::{UiError, WidgetId, WidgetTree};
use cosoft_wire::{AttrName, CopyMode, ObjectPath, StateNode, WidgetKind};

/// Error produced by state application and compatibility checks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompatError {
    /// The two primitive object types are not directly compatible.
    NotDirectlyCompatible {
        /// Source widget kind.
        src: WidgetKind,
        /// Destination widget kind.
        dst: WidgetKind,
    },
    /// No one-to-one structural mapping exists.
    NotStructurallyCompatible {
        /// Human-readable reason naming the first mismatch.
        reason: String,
    },
    /// An underlying toolkit operation failed.
    Ui(UiError),
}

impl fmt::Display for CompatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompatError::NotDirectlyCompatible { src, dst } => {
                write!(f, "{src} and {dst} are not directly compatible")
            }
            CompatError::NotStructurallyCompatible { reason } => {
                write!(f, "not structurally compatible: {reason}")
            }
            CompatError::Ui(e) => write!(f, "toolkit error: {e}"),
        }
    }
}

impl std::error::Error for CompatError {}

impl From<UiError> for CompatError {
    fn from(e: UiError) -> Self {
        CompatError::Ui(e)
    }
}

/// Declared correspondence relations between widget kinds (§3.3:
/// "a correspondence relation is declared for their relevant attributes").
#[derive(Debug, Clone, Default)]
pub struct CorrespondenceTable {
    map: HashMap<(WidgetKind, WidgetKind), Vec<(AttrName, AttrName)>>,
}

impl CorrespondenceTable {
    /// Creates an empty table (only same-kind objects are compatible).
    pub fn new() -> Self {
        CorrespondenceTable::default()
    }

    /// Declares that `src` objects can be copied/coupled onto `dst`
    /// objects, mapping each source attribute to a destination attribute.
    pub fn declare(&mut self, src: WidgetKind, dst: WidgetKind, pairs: Vec<(AttrName, AttrName)>) {
        self.map.insert((src, dst), pairs);
    }

    /// Declares a correspondence in both directions with the attribute
    /// pairs reversed for the way back.
    pub fn declare_symmetric(
        &mut self,
        a: WidgetKind,
        b: WidgetKind,
        pairs: Vec<(AttrName, AttrName)>,
    ) {
        let reversed = pairs.iter().map(|(x, y)| (y.clone(), x.clone())).collect();
        self.declare(a.clone(), b.clone(), pairs);
        self.declare(b, a, reversed);
    }

    /// The declared attribute mapping from `src` to `dst`, if any.
    pub fn mapping(&self, src: &WidgetKind, dst: &WidgetKind) -> Option<&[(AttrName, AttrName)]> {
        self.map.get(&(src.clone(), dst.clone())).map(Vec::as_slice)
    }

    /// Whether `src` is directly compatible with `dst`: same kind, or a
    /// declared correspondence.
    pub fn directly_compatible(&self, src: &WidgetKind, dst: &WidgetKind) -> bool {
        src == dst || self.mapping(src, dst).is_some()
    }

    /// Translates a source attribute name for the destination kind.
    /// Same-kind pairs translate identically; corresponding kinds go
    /// through the declared pairs; unmapped attributes return `None`.
    pub fn translate(
        &self,
        src: &WidgetKind,
        dst: &WidgetKind,
        attr: &AttrName,
    ) -> Option<AttrName> {
        if src == dst {
            return Some(attr.clone());
        }
        self.mapping(src, dst)?.iter().find(|(s, _)| s == attr).map(|(_, d)| d.clone())
    }
}

/// Checks s-compatibility between a source snapshot and a destination
/// snapshot (§3.3's definition, used for coupling-time checks and the L5
/// benchmark). Only kinds, names and structure are read: the destination
/// may be a bare shape with no attributes.
///
/// Returns `Ok(())` or the first structural mismatch.
///
/// # Errors
///
/// [`CompatError::NotDirectlyCompatible`] or
/// [`CompatError::NotStructurallyCompatible`].
pub fn check_s_compatible(
    src: &StateNode,
    dst: &StateNode,
    corr: &CorrespondenceTable,
) -> Result<(), CompatError> {
    if !corr.directly_compatible(&src.kind, &dst.kind) {
        return Err(CompatError::NotDirectlyCompatible {
            src: src.kind.clone(),
            dst: dst.kind.clone(),
        });
    }
    if src.children.len() != dst.children.len() {
        return Err(CompatError::NotStructurallyCompatible {
            reason: format!(
                "{} has {} components, {} has {}",
                src.name,
                src.children.len(),
                dst.name,
                dst.children.len()
            ),
        });
    }
    let src_of = match_children(&src.children, &dst.children, corr);
    for (d, si) in dst.children.iter().zip(&src_of) {
        if let Some(s) = si.and_then(|si| src.children.get(si)) {
            check_s_compatible(s, d, corr)?;
        }
    }
    if let Some(c) = unmatched(&src.children, &src_of).next() {
        return Err(CompatError::NotStructurallyCompatible {
            reason: format!("no counterpart for component {}", c.name),
        });
    }
    Ok(())
}

/// Greedy one-to-one matching between source and destination children,
/// by kind and name only: exact-name compatible matches first, then
/// first-fit by kind compatibility in order. Returns, for each
/// destination child, the index of the source child matched to it.
fn match_children(
    src: &[StateNode],
    dst: &[StateNode],
    corr: &CorrespondenceTable,
) -> Vec<Option<usize>> {
    let mut src_of = vec![None; dst.len()];
    let mut src_matched = vec![false; src.len()];
    // Pass 1: same name + compatible kind. Pass 2: first unmatched
    // compatible kind, in order.
    for by_name in [true, false] {
        for ((si, s), matched) in src.iter().enumerate().zip(&mut src_matched) {
            if *matched {
                continue;
            }
            let free = dst.iter().zip(&mut src_of).find(|(d, taken)| {
                taken.is_none()
                    && (!by_name || d.name == s.name)
                    && corr.directly_compatible(&s.kind, &d.kind)
            });
            if let Some((_, slot)) = free {
                *slot = Some(si);
                *matched = true;
            }
        }
    }
    src_of
}

/// The source children [`match_children`] left without a counterpart.
fn unmatched<'a>(
    src: &'a [StateNode],
    src_of: &'a [Option<usize>],
) -> impl Iterator<Item = &'a StateNode> {
    src.iter().enumerate().filter(|(si, _)| !src_of.contains(&Some(*si))).map(|(_, c)| c)
}

/// Statistics about one state application.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ApplyReport {
    /// Attribute values written.
    pub attrs_written: usize,
    /// Widgets created (destructive merge / flexible match only).
    pub created: usize,
    /// Widgets destroyed (destructive merge only).
    pub destroyed: usize,
    /// Semantic payloads delivered to `load` hooks (filled by the caller).
    pub semantic_loaded: usize,
}

/// What one state application did, and the record of what it overwrote:
/// the historical UI state of §2.2, built while the apply writes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Applied {
    /// Counts of what was written, created and destroyed.
    pub report: ApplyReport,
    /// The destination as it was, restricted to what the apply changed,
    /// in the destination's own kinds, names and child order: a widget
    /// the apply wrote holds the *old* value of each attribute written
    /// (an attribute the widget did not have before holds none), a
    /// conserved child the apply did not visit holds no attribute, a
    /// child it destroyed holds its full `snapshot(child, false)`, and a
    /// child it created is absent. Destructively merged back onto the
    /// destination, it undoes the apply.
    pub overwritten: StateNode,
    /// Pathnames of every widget the apply destroyed; the coupling layer
    /// decouples them (§3.2).
    pub destroyed: Vec<ObjectPath>,
}

/// Applies `snapshot` to the widget at `dst` requiring strict structural
/// compatibility (§3.1 "copying UI state").
///
/// # Errors
///
/// Fails without modifying the tree if the source and destination are not
/// s-compatible.
pub fn apply_strict(
    tree: &mut WidgetTree,
    dst: WidgetId,
    snapshot: &StateNode,
    corr: &CorrespondenceTable,
) -> Result<ApplyReport, CompatError> {
    apply_recorded(tree, dst, snapshot, CopyMode::Strict, corr).map(|a| a.report)
}

/// Applies `snapshot` with **destructive merging** (§3.3): the
/// destination's structure is forced to match the source — conflicting
/// destination children are destroyed, missing ones created.
///
/// # Errors
///
/// Only on toolkit failures; structure differences are resolved, not
/// reported.
pub fn apply_destructive(
    tree: &mut WidgetTree,
    dst: WidgetId,
    snapshot: &StateNode,
    corr: &CorrespondenceTable,
) -> Result<ApplyReport, CompatError> {
    apply_recorded(tree, dst, snapshot, CopyMode::DestructiveMerge, corr).map(|a| a.report)
}

/// Applies `snapshot` with **flexible matching** (§3.3): the identical
/// substructure is synchronized; destination-only children are conserved
/// and source-only children are merged in.
///
/// # Errors
///
/// Only on toolkit failures.
pub fn apply_flexible(
    tree: &mut WidgetTree,
    dst: WidgetId,
    snapshot: &StateNode,
    corr: &CorrespondenceTable,
) -> Result<ApplyReport, CompatError> {
    apply_recorded(tree, dst, snapshot, CopyMode::FlexibleMatch, corr).map(|a| a.report)
}

/// Applies `snapshot` to the widget at `dst` in `mode` and returns, with
/// the report, the record of what the apply overwrote ([`Applied`]).
///
/// # Errors
///
/// [`CopyMode::Strict`] fails without modifying the tree (and yields no
/// record) if the source and destination are not s-compatible; the
/// merging modes fail only on toolkit failures.
pub fn apply_recorded(
    tree: &mut WidgetTree,
    dst: WidgetId,
    snapshot: &StateNode,
    mode: CopyMode,
    corr: &CorrespondenceTable,
) -> Result<Applied, CompatError> {
    let mut overwritten = shape(tree, dst)?;
    if mode == CopyMode::Strict {
        // Validate first so failure leaves the tree untouched. What is
        // left for the walk is the flexible match of a source that has a
        // counterpart for every component: nothing to conserve or create.
        check_s_compatible(snapshot, &overwritten, corr)?;
    }
    let mut walk = Walk {
        tree,
        corr,
        destructive: mode == CopyMode::DestructiveMerge,
        report: ApplyReport::default(),
        destroyed: Vec::new(),
    };
    walk.node(dst, snapshot, &mut overwritten)?;
    Ok(Applied { report: walk.report, overwritten, destroyed: walk.destroyed })
}

/// The subtree at `id` as kinds, names and structure, with no attribute:
/// what the compatibility check reads of a destination, and the record
/// of an apply before it has written anything.
fn shape(tree: &WidgetTree, id: WidgetId) -> Result<StateNode, UiError> {
    let w = tree.widget(id)?;
    let mut node = StateNode::new(w.kind().clone(), w.name());
    for &c in w.children() {
        node.children.push(shape(tree, c)?);
    }
    Ok(node)
}

/// One state application in progress: the single walk that both writes
/// the destination and records what it overwrites.
struct Walk<'a> {
    tree: &'a mut WidgetTree,
    corr: &'a CorrespondenceTable,
    destructive: bool,
    report: ApplyReport,
    destroyed: Vec<ObjectPath>,
}

impl Walk<'_> {
    /// Writes the (translated) attributes of `snap` onto `dst`, matches
    /// and recurses over the children, destroys (destructive only) the
    /// unmatched destination children and creates the missing source
    /// ones. `rec` is the record node of `dst`: it comes in as `dst`'s
    /// [`shape`], so its children line up with the widget's one to one.
    fn node(
        &mut self,
        dst: WidgetId,
        snap: &StateNode,
        rec: &mut StateNode,
    ) -> Result<(), CompatError> {
        if self.corr.directly_compatible(&snap.kind, &rec.kind) {
            for (attr, value) in &snap.attrs {
                if let Some(translated) = self.corr.translate(&snap.kind, &rec.kind, attr) {
                    let old =
                        self.tree.set_attr_unchecked(dst, translated.clone(), value.clone())?;
                    self.report.attrs_written += 1;
                    // Two source attributes may translate to one: the
                    // state overwritten is the value before the first.
                    if let Some(old) = old {
                        rec.attrs.entry(translated).or_insert(old);
                    }
                }
            }
        }
        let children = self.tree.widget(dst)?.children().to_vec();
        let src_of = match_children(&snap.children, &rec.children, self.corr);
        for ((&child, rec_child), si) in children.iter().zip(&mut rec.children).zip(&src_of) {
            match si.and_then(|si| snap.children.get(si)) {
                Some(src_child) => self.node(child, src_child, rec_child)?,
                // A conflicting destination child is destroyed; the
                // record keeps all of it, so an undo re-creates it.
                None if self.destructive => {
                    *rec_child = self.tree.snapshot(child, false)?;
                    let paths = self.tree.destroy(child)?;
                    self.report.destroyed += paths.len();
                    self.destroyed.extend(paths);
                }
                // Flexible matching conserves it, untouched.
                None => {}
            }
        }
        // Missing source children are created (both modes; flexible
        // matching "conserves differing substructures by merging"). They
        // stay out of the record, so an undo removes them.
        for child in unmatched(&snap.children, &src_of) {
            // A name clash with a conserved (incompatible) child would
            // reject creation; disambiguate like a user renaming on merge.
            let name_taken =
                self.tree.widget(dst)?.children().iter().any(|&c| {
                    self.tree.widget(c).is_ok_and(|sibling| sibling.name() == child.name)
                });
            if name_taken {
                let mut renamed = child.clone();
                renamed.name = format!("{}_merged", child.name);
                self.instantiate(dst, &renamed)?;
            } else {
                self.instantiate(dst, child)?;
            }
        }
        Ok(())
    }

    /// Instantiates a snapshot subtree as fresh widgets under `parent`.
    fn instantiate(&mut self, parent: WidgetId, snap: &StateNode) -> Result<(), CompatError> {
        let id = self.tree.create(parent, snap.kind.clone(), &snap.name)?;
        self.report.created += 1;
        for (attr, value) in &snap.attrs {
            self.tree.set_attr_unchecked(id, attr.clone(), value.clone())?;
            self.report.attrs_written += 1;
        }
        snap.children.iter().try_for_each(|child| self.instantiate(id, child))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosoft_uikit::spec::build_tree;
    use cosoft_wire::Value;

    fn corr() -> CorrespondenceTable {
        CorrespondenceTable::new()
    }

    fn snap_of(spec: &str) -> StateNode {
        let tree = build_tree(spec).unwrap();
        tree.snapshot(tree.root().unwrap(), true).unwrap()
    }

    #[test]
    fn same_kind_is_directly_compatible() {
        let c = corr();
        assert!(c.directly_compatible(&WidgetKind::TextField, &WidgetKind::TextField));
        assert!(!c.directly_compatible(&WidgetKind::TextField, &WidgetKind::Label));
    }

    #[test]
    fn correspondence_enables_cross_kind_compat() {
        let mut c = corr();
        c.declare_symmetric(
            WidgetKind::TextField,
            WidgetKind::Label,
            vec![(AttrName::Text, AttrName::Text)],
        );
        assert!(c.directly_compatible(&WidgetKind::TextField, &WidgetKind::Label));
        assert!(c.directly_compatible(&WidgetKind::Label, &WidgetKind::TextField));
        assert_eq!(
            c.translate(&WidgetKind::TextField, &WidgetKind::Label, &AttrName::Text),
            Some(AttrName::Text)
        );
        assert_eq!(
            c.translate(&WidgetKind::TextField, &WidgetKind::Label, &AttrName::Width),
            None,
            "unmapped attributes are skipped"
        );
    }

    #[test]
    fn identical_structures_are_s_compatible() {
        let a = snap_of(r#"form f { textfield x text="1" menu m selected=0 }"#);
        let b = snap_of(r#"form g { textfield x text="2" menu m selected=1 }"#);
        check_s_compatible(&a, &b, &corr()).unwrap();
    }

    #[test]
    fn name_differences_still_match_by_kind() {
        let a = snap_of(r#"form f { textfield author text="" }"#);
        let b = snap_of(r#"form g { textfield verfasser text="" }"#);
        check_s_compatible(&a, &b, &corr()).unwrap();
    }

    #[test]
    fn component_count_mismatch_is_incompatible() {
        let a = snap_of(r#"form f { textfield x text="" textfield y text="" }"#);
        let b = snap_of(r#"form g { textfield x text="" }"#);
        let err = check_s_compatible(&a, &b, &corr()).unwrap_err();
        assert!(matches!(err, CompatError::NotStructurallyCompatible { .. }));
    }

    #[test]
    fn kind_mismatch_without_correspondence_is_incompatible() {
        let a = snap_of(r#"form f { textfield x text="" }"#);
        let b = snap_of(r#"form g { slider x value=0.0 }"#);
        assert!(check_s_compatible(&a, &b, &corr()).is_err());
        // With a declared correspondence the same pair passes.
        let mut c = corr();
        c.declare(
            WidgetKind::TextField,
            WidgetKind::Slider,
            vec![(AttrName::Text, AttrName::custom("label"))],
        );
        check_s_compatible(&a, &b, &c).unwrap();
    }

    #[test]
    fn apply_strict_writes_relevant_attrs() {
        let snap = snap_of(r#"form f title="Src" { textfield x text="copied" }"#);
        let mut tree = build_tree(r#"form g title="Dst" { textfield x text="old" }"#).unwrap();
        let root = tree.root().unwrap();
        let report = apply_strict(&mut tree, root, &snap, &corr()).unwrap();
        assert!(report.attrs_written >= 2);
        let x = tree.resolve(&ObjectPath::parse("g.x").unwrap()).unwrap();
        assert_eq!(tree.attr(x, &AttrName::Text).unwrap(), &Value::Text("copied".into()));
        let g = tree.resolve(&ObjectPath::parse("g").unwrap()).unwrap();
        assert_eq!(tree.attr(g, &AttrName::Title).unwrap(), &Value::Text("Src".into()));
    }

    #[test]
    fn apply_strict_fails_atomically_on_mismatch() {
        let snap = snap_of(r#"form f title="Src" { textfield x text="new" slider s value=0.9 }"#);
        let mut tree = build_tree(r#"form g title="Dst" { textfield x text="old" }"#).unwrap();
        let root = tree.root().unwrap();
        assert!(apply_strict(&mut tree, root, &snap, &corr()).is_err());
        // Nothing was modified.
        let x = tree.resolve(&ObjectPath::parse("g.x").unwrap()).unwrap();
        assert_eq!(tree.attr(x, &AttrName::Text).unwrap(), &Value::Text("old".into()));
    }

    #[test]
    fn destructive_merge_copies_structure() {
        let snap = snap_of(
            r#"form f title="Src" {
                 textfield keep text="synced"
                 slider extra value=0.7
               }"#,
        );
        let mut tree = build_tree(
            r#"form g title="Dst" {
                 textfield keep text="old"
                 canvas conflicting
               }"#,
        )
        .unwrap();
        let root = tree.root().unwrap();
        let report = apply_destructive(&mut tree, root, &snap, &corr()).unwrap();
        assert_eq!(report.destroyed, 1, "conflicting canvas destroyed");
        assert_eq!(report.created, 1, "missing slider created");
        assert!(tree.resolve(&ObjectPath::parse("g.extra").unwrap()).is_some());
        assert!(tree.resolve(&ObjectPath::parse("g.conflicting").unwrap()).is_none());
        let keep = tree.resolve(&ObjectPath::parse("g.keep").unwrap()).unwrap();
        assert_eq!(tree.attr(keep, &AttrName::Text).unwrap(), &Value::Text("synced".into()));
    }

    #[test]
    fn flexible_match_conserves_extra_children() {
        let snap = snap_of(
            r#"form f title="Src" {
                 textfield shared text="synced"
                 slider newbie value=0.3
               }"#,
        );
        let mut tree = build_tree(
            r#"form g title="Dst" {
                 textfield shared text="old"
                 canvas private
               }"#,
        )
        .unwrap();
        let root = tree.root().unwrap();
        let report = apply_flexible(&mut tree, root, &snap, &corr()).unwrap();
        assert_eq!(report.destroyed, 0);
        assert_eq!(report.created, 1);
        // The private canvas survives; the new slider is merged in.
        assert!(tree.resolve(&ObjectPath::parse("g.private").unwrap()).is_some());
        assert!(tree.resolve(&ObjectPath::parse("g.newbie").unwrap()).is_some());
        let shared = tree.resolve(&ObjectPath::parse("g.shared").unwrap()).unwrap();
        assert_eq!(tree.attr(shared, &AttrName::Text).unwrap(), &Value::Text("synced".into()));
    }

    #[test]
    fn flexible_match_renames_on_name_clash() {
        // Destination has an *incompatible* child with the same name.
        let snap = snap_of(r#"form f { slider same value=0.5 }"#);
        let mut tree = build_tree(r#"form g { canvas same }"#).unwrap();
        let root = tree.root().unwrap();
        apply_flexible(&mut tree, root, &snap, &corr()).unwrap();
        assert!(tree.resolve(&ObjectPath::parse("g.same").unwrap()).is_some());
        assert!(tree.resolve(&ObjectPath::parse("g.same_merged").unwrap()).is_some());
    }

    #[test]
    fn destructive_merge_is_idempotent() {
        let snap = snap_of(r#"form f { textfield a text="x" slider b value=0.1 }"#);
        let mut tree = build_tree(r#"form g { canvas z }"#).unwrap();
        let root = tree.root().unwrap();
        apply_destructive(&mut tree, root, &snap, &corr()).unwrap();
        let after_first = tree.snapshot(root, true).unwrap();
        let report = apply_destructive(&mut tree, root, &snap, &corr()).unwrap();
        assert_eq!(report.created, 0);
        assert_eq!(report.destroyed, 0);
        assert_eq!(tree.snapshot(root, true).unwrap(), after_first);
    }

    #[test]
    fn destructive_merge_makes_target_s_compatible() {
        let snap = snap_of(r#"form f { panel p { textfield deep text="v" } slider s value=0.2 }"#);
        let mut tree = build_tree(r#"form g { label odd text="?" }"#).unwrap();
        let root = tree.root().unwrap();
        apply_destructive(&mut tree, root, &snap, &corr()).unwrap();
        let result = tree.snapshot(root, true).unwrap();
        check_s_compatible(&snap, &result, &corr()).unwrap();
    }

    #[test]
    fn cross_kind_apply_through_correspondence() {
        // TORI-style: couple a result label onto a query text field.
        let mut c = corr();
        c.declare(WidgetKind::TextField, WidgetKind::Label, vec![(AttrName::Text, AttrName::Text)]);
        let snap = snap_of(r#"textfield src text="result-42""#);
        let mut tree = build_tree(r#"label dst text="""#).unwrap();
        let root = tree.root().unwrap();
        apply_strict(&mut tree, root, &snap, &c).unwrap();
        assert_eq!(tree.attr(root, &AttrName::Text).unwrap(), &Value::Text("result-42".into()));
    }
}
