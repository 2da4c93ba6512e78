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
use cosoft_wire::{AttrName, StateNode, WidgetKind};

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
/// benchmark).
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
    let pairs = match_children(
        &src.children.iter().collect::<Vec<_>>(),
        &dst.children.iter().map(|c| (c.kind.clone(), c.name.clone())).collect::<Vec<_>>(),
        corr,
    );
    let mut matched_dst = vec![false; dst.children.len()];
    for (si, di) in &pairs {
        matched_dst[*di] = true;
        check_s_compatible(&src.children[*si], &dst.children[*di], corr)?;
    }
    if pairs.len() != src.children.len() {
        let unmatched = src
            .children
            .iter()
            .enumerate()
            .find(|(i, _)| !pairs.iter().any(|(si, _)| si == i))
            .map(|(_, c)| c.name.clone())
            .unwrap_or_default();
        return Err(CompatError::NotStructurallyCompatible {
            reason: format!("no counterpart for component {unmatched}"),
        });
    }
    Ok(())
}

/// Greedy one-to-one matching between source children and destination
/// `(kind, name)` descriptors: exact-name compatible matches first, then
/// first-fit by kind compatibility in order.
fn match_children(
    src: &[&StateNode],
    dst: &[(WidgetKind, String)],
    corr: &CorrespondenceTable,
) -> Vec<(usize, usize)> {
    let mut pairs = Vec::new();
    let mut dst_taken = vec![false; dst.len()];
    let mut src_matched = vec![false; src.len()];
    // Pass 1: same name + compatible kind.
    for (si, s) in src.iter().enumerate() {
        for (di, (dkind, dname)) in dst.iter().enumerate() {
            if !dst_taken[di] && *dname == s.name && corr.directly_compatible(&s.kind, dkind) {
                pairs.push((si, di));
                dst_taken[di] = true;
                src_matched[si] = true;
                break;
            }
        }
    }
    // Pass 2: first unmatched compatible kind, in order.
    for (si, s) in src.iter().enumerate() {
        if src_matched[si] {
            continue;
        }
        for (di, (dkind, _)) in dst.iter().enumerate() {
            if !dst_taken[di] && corr.directly_compatible(&s.kind, dkind) {
                pairs.push((si, di));
                dst_taken[di] = true;
                src_matched[si] = true;
                break;
            }
        }
    }
    pairs.sort();
    pairs
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
    let dst_snapshot = tree.snapshot(dst, false)?;
    apply_strict_over(tree, dst, &dst_snapshot, snapshot, corr)
}

/// [`apply_strict`] for a caller that already holds `dst_snapshot`, the
/// current `tree.snapshot(dst, false)`: the session takes it as the
/// state the apply overwrites, and a second walk of the widget tree
/// would only produce the same value.
pub(crate) fn apply_strict_over(
    tree: &mut WidgetTree,
    dst: WidgetId,
    dst_snapshot: &StateNode,
    snapshot: &StateNode,
    corr: &CorrespondenceTable,
) -> Result<ApplyReport, CompatError> {
    // Validate first so failure leaves the tree untouched.
    check_s_compatible(snapshot, dst_snapshot, corr)?;
    let mut report = ApplyReport::default();
    apply_matched(tree, dst, snapshot, corr, &mut report)?;
    Ok(report)
}

/// Writes the (translated) attributes of `snap` onto `dst` and recurses
/// over the already-validated child matching.
fn apply_matched(
    tree: &mut WidgetTree,
    dst: WidgetId,
    snap: &StateNode,
    corr: &CorrespondenceTable,
    report: &mut ApplyReport,
) -> Result<(), CompatError> {
    let dst_kind = tree.widget(dst)?.kind().clone();
    for (attr, value) in &snap.attrs {
        if let Some(translated) = corr.translate(&snap.kind, &dst_kind, attr) {
            tree.set_attr_unchecked(dst, translated, value.clone())?;
            report.attrs_written += 1;
        }
    }
    let dst_children: Vec<(WidgetKind, String, WidgetId)> = tree
        .widget(dst)?
        .children()
        .iter()
        .map(|&c| {
            let w = tree.widget(c).expect("live child");
            (w.kind().clone(), w.name().to_owned(), c)
        })
        .collect();
    let descriptors: Vec<(WidgetKind, String)> =
        dst_children.iter().map(|(k, n, _)| (k.clone(), n.clone())).collect();
    let pairs = match_children(&snap.children.iter().collect::<Vec<_>>(), &descriptors, corr);
    for (si, di) in pairs {
        apply_matched(tree, dst_children[di].2, &snap.children[si], corr, report)?;
    }
    Ok(())
}

/// Instantiates a snapshot subtree as fresh widgets under `parent`.
fn instantiate(
    tree: &mut WidgetTree,
    parent: WidgetId,
    snap: &StateNode,
    report: &mut ApplyReport,
) -> Result<WidgetId, CompatError> {
    let id = tree.create(parent, snap.kind.clone(), &snap.name)?;
    report.created += 1;
    for (attr, value) in &snap.attrs {
        tree.set_attr_unchecked(id, attr.clone(), value.clone())?;
        report.attrs_written += 1;
    }
    for child in &snap.children {
        instantiate(tree, id, child, report)?;
    }
    Ok(id)
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
    let mut report = ApplyReport::default();
    merge_node(tree, dst, snapshot, corr, true, &mut report)?;
    Ok(report)
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
    let mut report = ApplyReport::default();
    merge_node(tree, dst, snapshot, corr, false, &mut report)?;
    Ok(report)
}

fn merge_node(
    tree: &mut WidgetTree,
    dst: WidgetId,
    snap: &StateNode,
    corr: &CorrespondenceTable,
    destructive: bool,
    report: &mut ApplyReport,
) -> Result<(), CompatError> {
    // Attributes of this node.
    let dst_kind = tree.widget(dst)?.kind().clone();
    if corr.directly_compatible(&snap.kind, &dst_kind) {
        for (attr, value) in &snap.attrs {
            if let Some(translated) = corr.translate(&snap.kind, &dst_kind, attr) {
                tree.set_attr_unchecked(dst, translated, value.clone())?;
                report.attrs_written += 1;
            }
        }
    }
    // Children.
    let dst_children: Vec<(WidgetKind, String, WidgetId)> = tree
        .widget(dst)?
        .children()
        .iter()
        .map(|&c| {
            let w = tree.widget(c).expect("live child");
            (w.kind().clone(), w.name().to_owned(), c)
        })
        .collect();
    let descriptors: Vec<(WidgetKind, String)> =
        dst_children.iter().map(|(k, n, _)| (k.clone(), n.clone())).collect();
    let pairs = match_children(&snap.children.iter().collect::<Vec<_>>(), &descriptors, corr);
    let mut dst_matched = vec![false; dst_children.len()];
    let mut src_matched = vec![false; snap.children.len()];
    for (si, di) in &pairs {
        dst_matched[*di] = true;
        src_matched[*si] = true;
        merge_node(tree, dst_children[*di].2, &snap.children[*si], corr, destructive, report)?;
    }
    if destructive {
        // Conflicting destination children are destroyed.
        for (di, (_, _, id)) in dst_children.iter().enumerate() {
            if !dst_matched[di] {
                report.destroyed += tree.destroy(*id)?.len();
            }
        }
    }
    // Missing source children are created (both modes; flexible matching
    // "conserves differing substructures by merging").
    for (si, child) in snap.children.iter().enumerate() {
        if !src_matched[si] {
            // A name clash with a conserved (incompatible) child would
            // reject creation; disambiguate like a user renaming on merge.
            let name_taken = {
                let w = tree.widget(dst)?;
                w.children()
                    .iter()
                    .any(|&c| tree.widget(c).map(|cw| cw.name() == child.name).unwrap_or(false))
            };
            if name_taken {
                let mut renamed = child.clone();
                renamed.name = format!("{}_merged", child.name);
                instantiate(tree, dst, &renamed, report)?;
            } else {
                instantiate(tree, dst, child, report)?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosoft_uikit::spec::build_tree;
    use cosoft_wire::{ObjectPath, Value};

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
