//! A steady state push costs the edit, at every hop.
//!
//! The count gate: a presenter edits one attribute of a form and pushes
//! it (`copy_to`) onto four coupled viewers, over the simulated network
//! and the deployed server turn. Across forms of 60, 600 and 6 000 nodes,
//! the nodes a steady copy round visits — `cosoft_wire::visits`, which
//! counts each node a snapshot, diff, version hash, delta apply or walk
//! for changed widgets enters, at the presenter, at the server and at
//! every viewer — grow at most 2× while the form grows 100×. The forms
//! are complete trees of ten children a panel, so the depth of the edited
//! field grows from 2 to 4. Pushed with a semantic hook in place, which
//! sends the presenter down the snapshot-and-diff path, the same round
//! grows with the form; that shows the count sees whole-object work.
//!
//! The presenter's fast path is also checked against what it replaces:
//! over 96 seeded scripts of edits on random forms — attribute writes in
//! and outside the object, writes of a value it already held, created and
//! destroyed children, a custom widget growing an attribute, semantic
//! hooks, transfer legs and state requests answered, a base under another
//! root name, a cloned tree and a registry change — every push is the
//! message `diff(base, snapshot)` makes (or the `CopyTo` a first push
//! is). A push whose diff a leg's fast apply could not take (not all
//! patches of attributes the base carries), or made with a hook in place
//! or after the tree was replaced or its registry changed, went by
//! snapshot: `Session::pushes_from_changes` did not move.

use std::sync::atomic::{AtomicU64, Ordering};

use cosoft_core::harness::SimHarness;
use cosoft_core::session::Session;
use cosoft_rng::{forall, Rng};
use cosoft_uikit::{spec, Toolkit, WidgetId, WidgetTree};
use cosoft_wire::{
    delta, visits, AttrName, CopyMode, EditOp, GlobalObjectId, InstanceId, Message, ObjectPath,
    StateNode, UserId, Value, WidgetKind,
};

const VIEWERS: usize = 4;
const FANOUT: usize = 10;

fn path(s: &str) -> ObjectPath {
    ObjectPath::parse(s).unwrap()
}

/// A complete tree of `nodes` widgets under the form `f`, ten children a
/// panel, filled in breadth-first order; node `k`'s children are nodes
/// `10k + 1 ..= 10k + 10`. Returns the spec and the paths of its fields.
fn form(nodes: usize) -> (String, Vec<String>) {
    fn node(k: usize, nodes: usize, at: &str, out: &mut String, fields: &mut Vec<String>) {
        let children: Vec<usize> =
            (FANOUT * k + 1..=FANOUT * k + FANOUT).filter(|&c| c < nodes).collect();
        if k > 0 && children.is_empty() {
            out.push_str(&format!("textfield n{k} text=\"field {k}\"\n"));
            fields.push(format!("{at}.n{k}"));
            return;
        }
        let (kind, name) =
            if k == 0 { ("form", "f".to_owned()) } else { ("panel", format!("n{k}")) };
        let here = if k == 0 { name.clone() } else { format!("{at}.{name}") };
        out.push_str(&format!("{kind} {name} title=\"panel {k}\" {{\n"));
        for c in children {
            node(c, nodes, &here, out, fields);
        }
        out.push_str("}\n");
    }
    let (mut spec_src, mut fields) = (String::new(), Vec::new());
    node(0, nodes, "", &mut spec_src, &mut fields);
    (spec_src, fields)
}

fn session(spec_src: &str, user: u64) -> Session {
    let tree = spec::build_tree(spec_src).unwrap();
    Session::new(Toolkit::from_tree(tree), UserId(user), &format!("ws{user}"), "app")
}

fn write_text(s: &mut Session, at: &str, text: String) {
    let tree = s.toolkit_mut().tree_mut();
    let id = tree.resolve(&path(at)).unwrap();
    tree.set_attr(id, AttrName::Text, Value::Text(text)).unwrap();
}

/// Nodes visited per steady copy round on a form of `nodes` widgets, as
/// the mean of six rounds after three warm-up ones; with `hooked`, the
/// presenter has a semantic hook on the form.
fn visits_per_round(nodes: usize, hooked: bool) -> u64 {
    let (spec_src, fields) = form(nodes);
    let mut h = SimHarness::new(1);
    let presenter = h.add_session(session(&spec_src, 1));
    let viewers: Vec<_> =
        (0..VIEWERS).map(|v| h.add_session(session(&spec_src, 2 + v as u64))).collect();
    h.settle();
    let f = path("f");
    let first = viewers[0];
    for &v in &viewers[1..] {
        let member = h.session(v).gid(&f).unwrap();
        h.session_mut(first).couple(&f, member).unwrap();
    }
    h.settle();
    if hooked {
        h.session_mut(presenter).hooks_mut().register(f.clone(), |_| Vec::new(), |_, _| {});
    }
    let target = h.session(first).gid(&f).unwrap();
    let (warm_up, measured) = (3, 6);
    let mut counted = 0;
    for round in 0..warm_up + measured {
        let field = &fields[(round * 7919) % fields.len()];
        write_text(h.session_mut(presenter), field, format!("round {round}"));
        let fast = h.session(presenter).pushes_from_changes();
        let before = visits::total();
        h.session_mut(presenter).copy_to(&f, target.clone(), CopyMode::Strict).unwrap();
        h.settle();
        if round >= warm_up {
            counted += visits::total() - before;
            let fast_now = h.session(presenter).pushes_from_changes();
            assert_eq!(fast_now, fast + u64::from(!hooked), "round {round} of {nodes} nodes");
        }
        for &v in &viewers {
            let tree = h.session(v).toolkit().tree();
            let id = tree.resolve(&path(field)).unwrap();
            assert_eq!(
                tree.attr(id, &AttrName::Text).unwrap(),
                &Value::Text(format!("round {round}"))
            );
        }
    }
    let stats = h.server.stats();
    assert_eq!((stats.push_fallbacks, stats.delta_fallbacks), (0, 0));
    counted / measured as u64
}

#[test]
fn a_steady_round_visits_what_the_edit_touches() {
    let sizes = [60, 600, 6_000];
    let fast: Vec<u64> = sizes.iter().map(|&n| visits_per_round(n, false)).collect();
    let slow = [visits_per_round(sizes[0], true), visits_per_round(sizes[2], true)];
    eprintln!("nodes visited per steady copy round at {sizes:?} nodes: {fast:?}");
    eprintln!("with the presenter hooked, at {} and {}: {slow:?}", sizes[0], sizes[2]);
    assert!(fast.iter().all(|&v| v <= 2 * fast[0]), "visits grew {fast:?} over {sizes:?} nodes");
    assert!(slow[1] >= 40 * slow[0], "the snapshot-and-diff path grew only {slow:?}");
}

// ---- the fast path against snapshot and diff ---------------------------------

const SCRIPTS: u64 = 96;

/// Pushes built from the changed widgets, over all scripts.
static FROM_CHANGES: AtomicU64 = AtomicU64::new(0);
/// Pushes that went down snapshot and diff, over all scripts.
static FROM_SNAPSHOTS: AtomicU64 = AtomicU64::new(0);

const LEAVES: [WidgetKind; 4] =
    [WidgetKind::TextField, WidgetKind::Label, WidgetKind::Slider, WidgetKind::Menu];
const NAMES: [&str; 6] = ["a", "b", "c", "d", "e", "f"];

fn board() -> ObjectPath {
    path("app.board")
}

fn chance(rng: &mut Rng, percent: usize) -> bool {
    rng.range(0..100) < percent
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

/// Grows a random subtree under `parent`: panels, builtin leaves and now
/// and then a widget of an unregistered kind, which takes any attribute.
fn grow(rng: &mut Rng, tree: &mut WidgetTree, parent: WidgetId, depth: usize) {
    for _ in 0..rng.range(1..5) {
        let container = depth < 2 && chance(rng, 30);
        let kind = match () {
            () if container => WidgetKind::Panel,
            () if chance(rng, 10) => WidgetKind::Custom("gauge".into()),
            () => rng.pick(&LEAVES).clone(),
        };
        let name = *rng.pick(&NAMES);
        let Ok(id) = tree.create(parent, kind, name) else { continue };
        if container {
            grow(rng, tree, id, depth + 1);
        }
    }
}

/// Rewrites one attribute a node of `state` carries, or, `new`, gives
/// one node an attribute it lacks.
fn edit_state(rng: &mut Rng, state: &mut StateNode, new: bool) {
    let count = state.node_count();
    let mut n = rng.range(0..count);
    let node = nth(state, &mut n).expect("a node of a state of that many");
    if new {
        node.attrs.insert(AttrName::custom("extra"), Value::Int(rng.range(0..100) as i64));
    } else if !node.attrs.is_empty() {
        let (name, value) = node.attrs.iter().nth(rng.range(0..node.attrs.len())).unwrap();
        let (name, value) = (name.clone(), another(rng, value));
        node.attrs.insert(name, value);
    }
}

/// Whether every edit of `d` is a patch that only rewrites attributes
/// its node of `base` carries: what a leg's fast apply takes.
fn carried_patches(base: Option<&StateNode>, d: &delta::StateDelta) -> bool {
    let Some(base) = base else { return false };
    d.edits.iter().all(|edit| {
        let EditOp::Patch(p) = &edit.op else { return false };
        let node = edit.path.iter().try_fold(base, |n, seg| n.child(seg));
        p.kind.is_none()
            && p.removals.is_empty()
            && p.semantic.is_none()
            && node.is_some_and(|n| p.upserts.keys().all(|k| n.attrs.contains_key(k)))
    })
}

/// Node `n` of a state, counting in pre-order from 0.
fn nth<'a>(node: &'a mut StateNode, n: &mut usize) -> Option<&'a mut StateNode> {
    if *n == 0 {
        return Some(node);
    }
    *n -= 1;
    node.children.iter_mut().find_map(|child| nth(child, n))
}

struct Script {
    rng: Rng,
    session: Session,
    req_id: u64,
    /// The tree was replaced or its registry changed since the last push:
    /// no stamp vouches for it, and the next push must go by snapshot.
    stale: bool,
    /// Hooks lie at or below the object: every push goes by snapshot.
    hooked: bool,
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
        session.on_message(Message::Welcome { instance: InstanceId(1) });
        session.drain_outbox();
        Script { rng, session, req_id: 0, stale: false, hooked: false }
    }

    /// A widget inside the object, the object itself included.
    fn inside(&mut self) -> WidgetId {
        let tree = self.session.toolkit().tree();
        let ids = tree.walk(tree.resolve(&board()).unwrap());
        *self.rng.pick(&ids)
    }

    fn step(&mut self) {
        let roll = self.rng.range(0..100);
        match roll {
            0..=34 => self.push(),
            35..=49 => {
                let id = self.inside();
                let rng = &mut self.rng;
                let tree = self.session.toolkit_mut().tree_mut();
                let attrs: Vec<_> = tree.widget(id).unwrap().attrs().clone().into_iter().collect();
                if let Some((name, value)) = (!attrs.is_empty()).then(|| rng.pick(&attrs).clone()) {
                    let value = if chance(rng, 20) { value } else { another(rng, &value) };
                    tree.set_attr_unchecked(id, name, value).unwrap();
                }
            }
            50..=54 => {
                let rng = &mut self.rng;
                let tree = self.session.toolkit_mut().tree_mut();
                let side = tree.resolve(&path("app.side")).unwrap();
                let text = Value::Text(format!("side-{}", rng.range(0..1000)));
                tree.set_attr(side, AttrName::Text, text).unwrap();
            }
            55..=57 => {
                let rng = &mut self.rng;
                let tree = self.session.toolkit_mut().tree_mut();
                let parent = tree.resolve(&board()).unwrap();
                let name = format!("new{}", rng.range(0..1000));
                tree.create(parent, rng.pick(&LEAVES).clone(), &name).ok();
            }
            58..=62 => {
                let id = self.inside();
                let tree = self.session.toolkit().tree();
                if tree.widget(id).unwrap().parent() != tree.resolve(&path("app")) {
                    let gone = tree.path_of(id).unwrap();
                    if chance(&mut self.rng, 50) {
                        self.session.destroy(&gone).unwrap();
                    } else {
                        // Behind the session's back: its base stays.
                        self.session.toolkit_mut().tree_mut().destroy(id).unwrap();
                    }
                }
            }
            63..=65 => {
                let rng = &mut self.rng;
                let tree = self.session.toolkit_mut().tree_mut();
                let ids = tree.walk(tree.resolve(&board()).unwrap());
                let gauges: Vec<WidgetId> = ids
                    .into_iter()
                    .filter(|&id| matches!(tree.widget(id).unwrap().kind(), WidgetKind::Custom(_)))
                    .collect();
                if let Some(&gauge) = gauges.first() {
                    let name = AttrName::custom(&format!("grown{}", rng.range(0..4)));
                    tree.set_attr(gauge, name, Value::Int(1)).unwrap();
                }
            }
            66..=67 => {
                let rng = &mut self.rng;
                let payload = vec![rng.range(1..=255u8); rng.range(0..3)];
                let at = if chance(rng, 50) { board() } else { path("app.board.a") };
                self.session.hooks_mut().register(at, move |_| payload.clone(), |_, _| {});
                self.hooked = true;
            }
            68..=69 => {
                self.session.hooks_mut().unregister(&board());
                self.session.hooks_mut().unregister(&path("app.board.a"));
                self.hooked = false;
            }
            70..=77 => self.leg(),
            78..=80 => {
                let tree = self.session.toolkit().tree();
                let mut snapshot = tree.snapshot(tree.resolve(&board()).unwrap(), true).unwrap();
                snapshot.name = "elsewhere".into();
                self.req_id += 1;
                let (req_id, mode) = (self.req_id, CopyMode::FlexibleMatch);
                self.session.on_message(Message::ApplyState {
                    req_id,
                    path: board(),
                    snapshot,
                    mode,
                });
            }
            81..=85 => {
                self.req_id += 1;
                self.session
                    .on_message(Message::StateRequest { req_id: self.req_id, path: board() });
                // The reply is the object's base as it stands.
                self.stale = false;
            }
            86..=87 => {
                let copy = self.session.toolkit().tree().clone();
                *self.session.toolkit_mut().tree_mut() = copy;
                self.stale = true;
            }
            88 => {
                self.session.toolkit_mut().tree_mut().registry_mut();
                self.stale = true;
            }
            _ => self.push(),
        }
        self.session.drain_outbox();
    }

    /// A transfer leg onto the object: a delta against the base the
    /// session holds (an attribute rewritten, or one added), or the
    /// object's own state in full when it holds none.
    fn leg(&mut self) {
        self.req_id += 1;
        let (req_id, mode) = (self.req_id, CopyMode::Strict);
        let leg = match self.session.sync_base(&board()) {
            Some((base_version, base)) => {
                let mut target = base.clone();
                let new = chance(&mut self.rng, 20);
                edit_state(&mut self.rng, &mut target, new);
                Message::ApplyDelta {
                    req_id,
                    path: board(),
                    base_version,
                    new_version: delta::state_version(&target),
                    delta: delta::diff(base, &target),
                    mode,
                }
            }
            None => {
                let tree = self.session.toolkit().tree();
                let snapshot = tree.snapshot(tree.resolve(&board()).unwrap(), true).unwrap();
                Message::ApplyState { req_id, path: board(), snapshot, mode }
            }
        };
        self.session.on_message(leg);
    }

    /// One push, checked against the message snapshot and diff make.
    fn push(&mut self) {
        let base = self.session.sync_base(&board()).map(|(v, s)| (v, s.clone()));
        let base_tree = base.as_ref().map(|(_, s)| s.clone());
        let tree = self.session.toolkit().tree().clone();
        let mut snapshot = tree.snapshot(tree.resolve(&board()).unwrap(), true).unwrap();
        self.session.hooks_mut().fill_snapshot(&tree, &board(), &mut snapshot);
        let (src, dst) =
            (self.session.gid(&board()).unwrap(), GlobalObjectId::new(InstanceId(2), path("x.y")));
        let mode = CopyMode::Strict;
        let built = self.session.pushes_from_changes();
        let req_id = self.session.copy_to(&board(), dst.clone(), mode).unwrap();
        let sent = self.session.drain_outbox();
        let new_version = delta::state_version(&snapshot);
        let expected = match base {
            Some((base_version, base)) => Message::CopyDelta {
                src,
                dst,
                base_version,
                new_version,
                delta: delta::diff(&base, &snapshot),
                mode,
                req_id,
            },
            None => Message::CopyTo { src, dst, snapshot: snapshot.clone(), mode, req_id },
        };
        assert_eq!(sent, vec![expected]);
        assert_eq!(self.session.sync_base(&board()), Some((new_version, &snapshot)));
        let from_changes = self.session.pushes_from_changes() - built;
        // Where a leg's fast apply gives up, so does the push.
        let patches = matches!(&sent[..], [Message::CopyDelta { delta, .. }] if carried_patches(base_tree.as_ref(), delta));
        if self.stale || self.hooked || !patches {
            assert_eq!(from_changes, 0, "this push must go by snapshot and diff");
        }
        self.stale = false;
        FROM_CHANGES.fetch_add(from_changes, Ordering::Relaxed);
        FROM_SNAPSHOTS.fetch_add(1 - from_changes, Ordering::Relaxed);
    }
}

#[test]
fn a_push_from_the_changed_widgets_is_the_push_snapshot_and_diff_make() {
    forall(
        0..SCRIPTS,
        |r: &mut Rng| r.next_u64(),
        |seed| {
            let mut script = Script::new(seed);
            for _ in 0..60 {
                script.step();
            }
        },
    );
    let (fast, slow) =
        (FROM_CHANGES.load(Ordering::Relaxed), FROM_SNAPSHOTS.load(Ordering::Relaxed));
    eprintln!("pushes built from the changed widgets: {fast}; by snapshot and diff: {slow}");
    assert!(fast >= 500 && slow >= 300, "{fast} pushes from changes, {slow} by snapshot");
}
