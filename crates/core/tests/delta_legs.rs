//! Differential test of how a viewer answers transfer legs: one `Session`
//! over a random form is fed first-contact `ApplyState`s, patch-only and
//! structural `ApplyDelta`s in every copy mode and legs against a stale
//! or missing base, with local edits inside and outside the synced object
//! and load hooks registered between legs. Every leg is also run by an
//! oracle built from public functions on a clone of the tree as it was
//! before the leg: `delta::apply`, `compat::apply_recorded`, the load
//! hooks, and the rule that the reply names the base when what the apply
//! overwrote fingerprints to it. After every leg the two trees' full
//! snapshots, the two `StateApplied`s, the two next sync bases and the
//! two sets of hook deliveries are equal.
//!
//! The count gate: a leg whose edits only rewrite attributes the base
//! carries, onto widgets that still mirror the base, writes exactly those
//! attributes (one mutation for a one-attribute leg); any other leg
//! writes what the full apply writes. An edit inside the object ends the
//! mirror, an edit outside it does not. 256 seeded scripts.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use cosoft_core::semantic::SemanticHooks;
use cosoft_core::session::Session;
use cosoft_core::{apply_recorded, CorrespondenceTable};
use cosoft_rng::{forall, Rng};
use cosoft_uikit::{Toolkit, WidgetId, WidgetTree};
use cosoft_wire::{
    delta, AttrName, CopyMode, EditOp, EncodedState, Message, ObjectPath, Overwritten, StateDelta,
    StateNode, UserId, Value, WidgetKind,
};

const SCRIPTS: u64 = 256;

/// One-attribute legs that took the mirror, over all scripts.
static ONE_ATTRIBUTE_MIRRORED: AtomicU64 = AtomicU64::new(0);
/// Legs sent down the full apply by an edit inside the object.
static ENDED_BY_INSIDE_EDIT: AtomicU64 = AtomicU64::new(0);
/// Mirrored legs after an edit outside the object.
static KEPT_AFTER_OUTSIDE_EDIT: AtomicU64 = AtomicU64::new(0);

const LEAVES: [WidgetKind; 4] =
    [WidgetKind::TextField, WidgetKind::Label, WidgetKind::Slider, WidgetKind::Menu];
const NAMES: [&str; 6] = ["a", "b", "c", "d", "e", "f"];
const MODES: [CopyMode; 3] =
    [CopyMode::Strict, CopyMode::DestructiveMerge, CopyMode::FlexibleMatch];

fn path(s: &str) -> ObjectPath {
    ObjectPath::parse(s).unwrap()
}

fn board() -> ObjectPath {
    path("app.board")
}

fn chance(rng: &mut Rng, percent: usize) -> bool {
    rng.range(0..100) < percent
}

fn correspondences() -> CorrespondenceTable {
    let mut corr = CorrespondenceTable::new();
    corr.declare_symmetric(
        WidgetKind::TextField,
        WidgetKind::Label,
        vec![(AttrName::Text, AttrName::Text)],
    );
    corr
}

/// Another value of the same type.
fn another(rng: &mut Rng, value: &Value) -> Value {
    match value {
        Value::Bool(b) => Value::Bool(!b),
        Value::Int(_) => Value::Int(rng.range(0..1000) as i64),
        Value::Float(_) => Value::Float(rng.range(0..1000) as f64 / 8.0),
        Value::Text(_) => Value::Text(format!("text-{}", rng.range(0..1000))),
        Value::TextList(_) => Value::TextList(vec![format!("item-{}", rng.range(0..1000))]),
        other => other.clone(),
    }
}

/// Grows a random subtree under `parent`.
fn grow(rng: &mut Rng, tree: &mut WidgetTree, parent: WidgetId, depth: usize) {
    for _ in 0..rng.range(1..5) {
        let container = depth < 2 && chance(rng, 30);
        let kind = if container { WidgetKind::Panel } else { rng.pick(&LEAVES).clone() };
        let name = *rng.pick(&NAMES);
        let Ok(id) = tree.create(parent, kind, name) else { continue };
        if container {
            grow(rng, tree, id, depth + 1);
        }
    }
}

/// Node `n` of a state, counting in pre-order from 0.
fn nth_mut<'a>(node: &'a mut StateNode, n: &mut usize) -> Option<&'a mut StateNode> {
    if *n == 0 {
        return Some(node);
    }
    *n -= 1;
    for child in &mut node.children {
        if let Some(found) = nth_mut(child, n) {
            return Some(found);
        }
    }
    None
}

fn any_node<'a>(rng: &mut Rng, state: &'a mut StateNode) -> &'a mut StateNode {
    let mut n = rng.range(0..state.node_count());
    let at = n;
    nth_mut(state, &mut n).unwrap_or_else(|| panic!("node {at} of a state of that many"))
}

/// Rewrites the value of one attribute a node of `state` carries.
fn rewrite_attr(rng: &mut Rng, state: &mut StateNode) {
    let node = any_node(rng, state);
    if node.attrs.is_empty() {
        return;
    }
    let (name, value) = node.attrs.iter().nth(rng.range(0..node.attrs.len())).unwrap();
    let (name, value) = (name.clone(), another(rng, value));
    node.attrs.insert(name, value);
}

/// One change of shape, kind or attribute set somewhere in `state`.
fn restructure(rng: &mut Rng, state: &mut StateNode) {
    let root_kind = state.kind.clone();
    let node = any_node(rng, state);
    match rng.range(0..5) {
        0 if !node.children.is_empty() => {
            node.children.remove(rng.range(0..node.children.len()));
        }
        1 if node.kind == WidgetKind::Panel || node.kind == root_kind => {
            let name = format!("new{}", rng.range(0..1000));
            let leaf = StateNode::new(rng.pick(&LEAVES).clone(), &name)
                .with_attr(AttrName::Text, Value::Text("fresh".into()));
            node.children.insert(rng.range(0..node.children.len() + 1), leaf);
        }
        2 if node.children.is_empty() => {
            node.kind = match node.kind {
                WidgetKind::TextField => WidgetKind::Label,
                WidgetKind::Label => WidgetKind::TextField,
                _ => rng.pick(&LEAVES).clone(),
            };
        }
        3 if !node.attrs.is_empty() => {
            let gone = node.attrs.keys().nth(rng.range(0..node.attrs.len())).cloned().unwrap();
            node.attrs.remove(&gone);
        }
        _ if node.children.len() > 1 => node.children.swap(0, 1),
        _ => {
            node.attrs.insert(AttrName::custom("extra"), Value::Int(1));
        }
    }
}

/// A payload on the root or another node of `state`.
fn attach_payload(rng: &mut Rng, state: &mut StateNode) {
    let payload = vec![rng.range(1..=255u8); rng.range(1..4)];
    if chance(rng, 50) {
        state.semantic = payload;
    } else {
        any_node(rng, state).semantic = payload;
    }
}

/// The attributes a leg of `d` onto `base` writes when the widgets mirror
/// `base`: `Some` when every edit is a patch that only rewrites
/// attributes its node of `base` carries.
fn mirror_writes(base: &StateNode, d: &StateDelta) -> Option<usize> {
    let mut writes = 0;
    for edit in &d.edits {
        let EditOp::Patch(p) = &edit.op else { return None };
        if p.kind.is_some() || !p.removals.is_empty() || p.semantic.is_some() {
            return None;
        }
        let node = edit.path.iter().try_fold(base, |n, seg| n.child(seg))?;
        if !p.upserts.keys().all(|k| node.attrs.contains_key(k)) {
            return None;
        }
        writes += p.upserts.len();
    }
    Some(writes)
}

/// Whether every edit is a patch with no kind, removal or payload.
fn patches_only(d: &StateDelta) -> bool {
    d.edits.iter().all(|edit| {
        matches!(&edit.op, EditOp::Patch(p)
            if p.kind.is_none() && p.removals.is_empty() && p.semantic.is_none())
    })
}

// ---- the oracle --------------------------------------------------------------

fn state_applied(req_id: u64, reply: Result<Overwritten, String>) -> Message {
    match reply {
        Ok(prev) => Message::StateApplied { req_id, overwritten: Some(prev), error: None },
        Err(e) => Message::StateApplied { req_id, overwritten: None, error: Some(e) },
    }
}

/// The full apply: what it overwrote, after the destroyed widgets' hooks
/// went and the load hooks ran.
fn apply_full(
    tree: &mut WidgetTree,
    hooks: &mut SemanticHooks,
    corr: &CorrespondenceTable,
    at: &ObjectPath,
    state: &StateNode,
    mode: CopyMode,
) -> Result<StateNode, String> {
    let id = tree.resolve(at).expect("the synced object is never destroyed");
    let applied = apply_recorded(tree, id, state, mode, corr).map_err(|e| e.to_string())?;
    for gone in &applied.destroyed {
        hooks.unregister(gone);
    }
    hooks.deliver_snapshot(tree, at, state);
    Ok(applied.overwritten)
}

/// What a viewer holding `base` answers to `leg`, applying it to `tree`,
/// and the base it holds after.
fn oracle(
    tree: &mut WidgetTree,
    hooks: &mut SemanticHooks,
    corr: &CorrespondenceTable,
    base: Option<(u64, StateNode)>,
    leg: &Message,
) -> (Message, Option<(u64, StateNode)>) {
    match leg {
        Message::ApplyState { req_id, path, snapshot, mode } => {
            match apply_full(tree, hooks, corr, path, snapshot, *mode) {
                Ok(prev) => (
                    state_applied(*req_id, Ok(Overwritten::State(EncodedState::of(&prev)))),
                    Some((delta::state_version(snapshot), snapshot.clone())),
                ),
                Err(e) => (state_applied(*req_id, Err(e)), base),
            }
        }
        Message::ApplyDelta { req_id, path, base_version, new_version, delta: d, mode } => {
            let leg = || {
                let (have, base) = base.ok_or("delta base version mismatch: no base cached")?;
                if have != *base_version {
                    return Err(format!(
                        "delta base version mismatch: have {have}, server assumed {base_version}"
                    ));
                }
                let next =
                    delta::apply(&base, d).map_err(|e| format!("delta base diverged: {e}"))?;
                if delta::state_version(&next) != *new_version {
                    return Err("delta base diverged: reconstructed state version mismatch".into());
                }
                let prev = EncodedState::of(&apply_full(tree, hooks, corr, path, &next, *mode)?);
                let reply = if prev.version() == *base_version {
                    Overwritten::Base
                } else {
                    Overwritten::State(prev)
                };
                Ok((reply, next))
            };
            match leg() {
                Ok((reply, next)) => {
                    (state_applied(*req_id, Ok(reply)), Some((*new_version, next)))
                }
                Err(e) => (state_applied(*req_id, Err(e)), None),
            }
        }
        other => panic!("not a leg: {other:?}"),
    }
}

// ---- the scripts -------------------------------------------------------------

/// What a leg's state changes against the base.
#[derive(Debug, Clone, Copy)]
enum Change {
    /// Rewrites of this many attribute values.
    Attrs(usize),
    /// An attribute the base node does not carry.
    NewAttr,
    /// A change of shape, kind or attribute set.
    Structure,
    /// A semantic payload.
    Payload,
    /// None: the state goes in full, as to a first contact.
    InFull,
}

#[derive(Debug, Clone, Copy)]
enum Step {
    /// A leg in the mode of that index; a delta one needs a base (without
    /// one it goes in full).
    Leg(Change, usize),
    /// A delta leg against a base the session does not hold.
    Stale,
    /// A local attribute write inside the object (`true`) or outside.
    Edit(bool),
    /// A local widget created inside the object.
    Create,
    /// A local widget inside the object destroyed.
    Destroy,
    /// Load hooks registered on the object and on a child of it.
    Hooks,
}

fn step(rng: &mut Rng) -> Step {
    let mode = rng.range(0..MODES.len());
    match rng.range(0..100) {
        0..=29 => Step::Leg(Change::Attrs(1), mode),
        30..=39 => Step::Leg(Change::Attrs(rng.range(2..4)), mode),
        40..=44 => Step::Leg(Change::NewAttr, mode),
        45..=54 => Step::Leg(Change::Structure, mode),
        55..=59 => Step::Leg(Change::Payload, mode),
        60..=64 => Step::Leg(Change::InFull, mode),
        65..=69 => Step::Stale,
        70..=79 => Step::Edit(true),
        80..=89 => Step::Edit(false),
        90..=92 => Step::Create,
        93..=95 => Step::Destroy,
        _ => Step::Hooks,
    }
}

type Deliveries = Arc<Mutex<Vec<(ObjectPath, Vec<u8>)>>>;

/// A load hook that records what it got and writes its object's board.
fn register_hook(hooks: &mut SemanticHooks, at: ObjectPath, log: &Deliveries) {
    let (log, here) = (log.clone(), at.clone());
    hooks.register(
        at,
        |_| Vec::new(),
        move |tree, bytes| {
            log.lock().unwrap().push((here.clone(), bytes.to_vec()));
            let id = tree.resolve(&board()).unwrap();
            tree.set_attr_unchecked(id, AttrName::Title, Value::Text(format!("{bytes:?}")))
                .unwrap();
        },
    );
}

struct Script {
    rng: Rng,
    session: Session,
    /// The oracle's hooks: the session's, registered alike.
    hooks: SemanticHooks,
    corr: CorrespondenceTable,
    delivered: Deliveries,
    oracle_delivered: Deliveries,
    /// The base the session holds, by the oracle's account.
    base: Option<(u64, StateNode)>,
    /// Whether the object's widgets mirror `base`, by the rule.
    mirrored: bool,
    /// What happened since the last leg: an edit inside that ended the
    /// mirror, an edit outside.
    edited: (bool, bool),
    /// Where hooks were registered.
    hooked: Vec<ObjectPath>,
    req_id: u64,
}

impl Script {
    fn new(seed: u64) -> Script {
        let mut rng = Rng::new(seed);
        let mut tree = WidgetTree::new();
        let app = tree.create_root(WidgetKind::Form, "app").unwrap();
        let object = tree.create(app, WidgetKind::Panel, "board").unwrap();
        grow(&mut rng, &mut tree, object, 0);
        tree.create(app, WidgetKind::TextField, "side").unwrap();
        let mut session = Session::new(Toolkit::from_tree(tree), UserId(1), "ws", "app");
        session.drain_outbox();
        *session.correspondences_mut() = correspondences();
        Script {
            rng,
            session,
            hooks: SemanticHooks::new(),
            corr: correspondences(),
            delivered: Deliveries::default(),
            oracle_delivered: Deliveries::default(),
            base: None,
            mirrored: false,
            edited: (false, false),
            hooked: Vec::new(),
            req_id: 0,
        }
    }

    fn tree(&self) -> &WidgetTree {
        self.session.toolkit().tree()
    }

    fn run(&mut self, step: Step) {
        let rng = &mut self.rng;
        match step {
            Step::Leg(change, mode) => self.leg(change, MODES[mode], false),
            Step::Stale => self.leg(Change::Attrs(1), CopyMode::Strict, true),
            Step::Edit(inside) => {
                let tree = self.session.toolkit_mut().tree_mut();
                let id = if inside {
                    let ids = tree.walk(tree.resolve(&board()).unwrap());
                    *rng.pick(&ids)
                } else {
                    tree.resolve(&path("app.side")).unwrap()
                };
                let attrs: Vec<_> = tree.widget(id).unwrap().attrs().clone().into_iter().collect();
                let (name, value) = rng.pick(&attrs);
                tree.set_attr_unchecked(id, name.clone(), another(rng, value)).unwrap();
                if inside {
                    self.edited.0 |= self.mirrored;
                    self.mirrored = false;
                } else {
                    self.edited.1 = true;
                }
            }
            Step::Create => {
                let tree = self.session.toolkit_mut().tree_mut();
                let parent = tree.resolve(&board()).unwrap();
                let name = format!("local{}", rng.range(0..1000));
                if tree.create(parent, WidgetKind::Label, &name).is_ok() {
                    self.edited.0 |= self.mirrored;
                    self.mirrored = false;
                }
            }
            Step::Destroy => {
                let tree = self.session.toolkit().tree();
                let ids = tree.walk(tree.resolve(&board()).unwrap());
                if ids.len() > 1 {
                    let gone = tree.path_of(ids[rng.range(1..ids.len())]).unwrap();
                    self.session.destroy(&gone).unwrap();
                    for hooked in self.hooked.iter().filter(|p| gone.is_prefix_of(p)) {
                        self.hooks.unregister(hooked);
                    }
                    self.edited.0 |= self.mirrored;
                    self.mirrored = false;
                }
            }
            Step::Hooks => {
                let tree = self.session.toolkit().tree();
                let children = tree.widget(tree.resolve(&board()).unwrap()).unwrap().children();
                let mut at = vec![board()];
                if let Some(&child) = children.get(rng.range(0..children.len().max(1))) {
                    at.push(tree.path_of(child).unwrap());
                }
                self.hooked.extend(at.iter().cloned());
                for p in at {
                    register_hook(self.session.hooks_mut(), p.clone(), &self.delivered);
                    register_hook(&mut self.hooks, p, &self.oracle_delivered);
                }
            }
        }
    }

    /// The leg `change` makes, against the base the session holds — or,
    /// `stale`, one it does not.
    fn next_leg(&mut self, change: Change, mode: CopyMode, stale: bool) -> Message {
        let rng = &mut self.rng;
        self.req_id += 1;
        let req_id = self.req_id;
        let Some((version, base)) =
            self.base.as_ref().filter(|_| !matches!(change, Change::InFull))
        else {
            if stale {
                let (base_version, new_version) = (rng.next_u64(), rng.next_u64());
                let d = StateDelta::default();
                return Message::ApplyDelta {
                    req_id,
                    path: board(),
                    base_version,
                    new_version,
                    delta: d,
                    mode,
                };
            }
            let tree = self.session.toolkit().tree();
            let mut snapshot = tree.snapshot(tree.resolve(&board()).unwrap(), true).unwrap();
            if chance(rng, 30) {
                restructure(rng, &mut snapshot);
            }
            if chance(rng, 30) {
                attach_payload(rng, &mut snapshot);
            }
            return Message::ApplyState { req_id, path: board(), snapshot, mode };
        };
        let mut target = base.clone();
        match change {
            Change::Attrs(n) => (0..n).for_each(|_| rewrite_attr(rng, &mut target)),
            Change::NewAttr => {
                any_node(rng, &mut target)
                    .attrs
                    .insert(AttrName::Width, Value::Int(rng.range(0..100) as i64));
            }
            Change::Structure => restructure(rng, &mut target),
            Change::Payload => attach_payload(rng, &mut target),
            Change::InFull => unreachable!("sent in full above"),
        }
        Message::ApplyDelta {
            req_id,
            path: board(),
            base_version: if stale { version ^ 1 } else { *version },
            new_version: delta::state_version(&target),
            delta: delta::diff(base, &target),
            mode,
        }
    }

    fn leg(&mut self, change: Change, mode: CopyMode, stale: bool) {
        let leg = self.next_leg(change, mode, stale);
        let before = self.tree().clone();
        let mut oracle_tree = before.clone();
        let (expected, next_base) =
            oracle(&mut oracle_tree, &mut self.hooks, &self.corr, self.base.take(), &leg);
        // The mirror answers, by the rule, when the widgets mirror the base
        // and the edits only rewrite attributes it carries.
        let eligible = match (&leg, &next_base) {
            (Message::ApplyDelta { delta: d, .. }, Some(_)) => {
                let (_, base) = self.session.sync_base(&board()).expect("the leg succeeds");
                mirror_writes(base, d)
            }
            _ => None,
        };
        let mirror = eligible.filter(|_| self.mirrored);

        self.session.on_message(leg.clone());
        let replies = self.session.drain_outbox();
        assert_eq!(replies, std::slice::from_ref(&expected), "the reply to {leg:?}");
        let full = |tree: &WidgetTree| tree.snapshot(tree.root().unwrap(), false).unwrap();
        assert_eq!(full(self.tree()), full(&oracle_tree), "the tree after {leg:?}");
        assert_eq!(
            self.session.sync_base(&board()),
            next_base.as_ref().map(|(v, s)| (*v, s)),
            "the next base after {leg:?}"
        );
        let delivered = std::mem::take(&mut *self.delivered.lock().unwrap());
        let oracle_delivered = std::mem::take(&mut *self.oracle_delivered.lock().unwrap());
        assert_eq!(delivered, oracle_delivered, "the deliveries of {leg:?}");

        // The count gate.
        let written = self.tree().mutations() - before.mutations();
        match mirror {
            Some(writes) => {
                assert_eq!(written, writes as u64, "mirrored leg {leg:?}");
                if writes == 1 {
                    ONE_ATTRIBUTE_MIRRORED.fetch_add(1, Ordering::Relaxed);
                }
                if self.edited.1 {
                    KEPT_AFTER_OUTSIDE_EDIT.fetch_add(1, Ordering::Relaxed);
                }
            }
            None => {
                let full_apply = oracle_tree.mutations() - before.mutations();
                assert_eq!(written, full_apply, "leg down the full apply {leg:?}");
                if self.edited.0 && eligible.is_some() {
                    ENDED_BY_INSIDE_EDIT.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        self.mirrored = match (&leg, &expected) {
            (
                Message::ApplyDelta { delta: d, .. },
                Message::StateApplied { overwritten: Some(Overwritten::Base), .. },
            ) => patches_only(d),
            _ => false,
        };
        self.edited = (false, false);
        self.base = next_base;
    }
}

#[derive(Debug)]
struct Case {
    seed: u64,
    steps: Vec<Step>,
}

#[test]
fn mirrored_legs_answer_what_the_full_apply_would() {
    forall(
        0..SCRIPTS,
        |rng| Case { seed: rng.next_u64(), steps: rng.vec(10..40, step) },
        |case| {
            let mut script = Script::new(case.seed);
            for step in case.steps {
                script.run(step);
            }
        },
    );
    let reached = [&ONE_ATTRIBUTE_MIRRORED, &ENDED_BY_INSIDE_EDIT, &KEPT_AFTER_OUTSIDE_EDIT]
        .map(|count| count.load(Ordering::Relaxed));
    assert!(
        reached.iter().all(|&n| n >= 20),
        "one-attribute mirrored legs, legs an inside edit ended the mirror of, mirrored legs \
         after an outside edit: {reached:?}"
    );
}
