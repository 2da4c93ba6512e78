//! End-to-end tests of the coupling runtime over the simulated network:
//! every §3 mechanism exercised through the real protocol.

use cosoft_core::harness::SimHarness;
use cosoft_core::session::{Session, SessionEvent};
use cosoft_net::sim::NodeId;
use cosoft_uikit::{spec, Toolkit};
use cosoft_wire::{
    codec, AccessRight, AttrName, CopyMode, EventKind, GlobalObjectId, InstanceId, Message,
    ObjectPath, Overwritten, StateNode, Target, UiEvent, UserId, Value, WidgetKind,
};

fn path(s: &str) -> ObjectPath {
    ObjectPath::parse(s).unwrap()
}

fn session(spec_src: &str, user: u64) -> Session {
    Session::new(
        Toolkit::from_tree(spec::build_tree(spec_src).unwrap()),
        UserId(user),
        &format!("ws{user}"),
        "test-app",
    )
}

fn text_of(h: &SimHarness, node: NodeId, p: &str) -> String {
    let tree = h.session(node).toolkit().tree();
    let id = tree.resolve(&path(p)).unwrap();
    tree.attr(id, &AttrName::Text).unwrap().as_text().unwrap().to_owned()
}

fn type_text(h: &mut SimHarness, node: NodeId, p: &str, text: &str) {
    h.session_mut(node)
        .user_event(UiEvent::new(path(p), EventKind::TextCommitted, vec![Value::Text(text.into())]))
        .unwrap();
}

const FIELD_FORM: &str = r#"form f { textfield t text="" }"#;

#[test]
fn events_propagate_through_couple_chain() {
    let mut h = SimHarness::new(1);
    let a = h.add_session(session(FIELD_FORM, 1));
    let b = h.add_session(session(FIELD_FORM, 2));
    let c = h.add_session(session(FIELD_FORM, 3));
    h.settle();

    // a→b and b→c: the closure couples a with c too.
    let gb = h.session(b).gid(&path("f.t")).unwrap();
    let gc = h.session(c).gid(&path("f.t")).unwrap();
    h.session_mut(a).couple(&path("f.t"), gb).unwrap();
    h.settle();
    h.session_mut(b).couple(&path("f.t"), gc).unwrap();
    h.settle();

    type_text(&mut h, a, "f.t", "closure");
    h.settle();
    for node in [a, b, c] {
        assert_eq!(text_of(&h, node, "f.t"), "closure");
    }
    assert_eq!(h.session(b).remote_executions(), 1);
    assert_eq!(h.session(c).remote_executions(), 1);
    // Locks fully released after the round.
    assert!(h.server.locks().is_empty());
}

#[test]
fn uncoupled_events_stay_local() {
    let mut h = SimHarness::new(1);
    let a = h.add_session(session(FIELD_FORM, 1));
    let b = h.add_session(session(FIELD_FORM, 2));
    h.settle();
    h.net.reset_stats();

    type_text(&mut h, a, "f.t", "private");
    h.settle();
    assert_eq!(text_of(&h, a, "f.t"), "private");
    assert_eq!(text_of(&h, b, "f.t"), "");
    assert_eq!(h.net.stats().messages_sent, 0, "no network traffic for local events");
}

#[test]
fn decoupled_objects_do_not_cease_to_exist() {
    // "these will not cease to exist when being decoupled so that coupling
    // can be used to transfer information between environments" (§2.2).
    let mut h = SimHarness::new(1);
    let a = h.add_session(session(FIELD_FORM, 1));
    let b = h.add_session(session(FIELD_FORM, 2));
    h.settle();
    let gb = h.session(b).gid(&path("f.t")).unwrap();
    h.session_mut(a).couple(&path("f.t"), gb.clone()).unwrap();
    h.settle();
    type_text(&mut h, a, "f.t", "shared");
    h.settle();
    assert_eq!(text_of(&h, b, "f.t"), "shared");

    h.session_mut(a).decouple(&path("f.t"), gb).unwrap();
    h.settle();
    assert!(!h.session(a).is_coupled(&path("f.t")));
    assert!(!h.session(b).is_coupled(&path("f.t")));

    // Both keep the transferred information and diverge independently.
    type_text(&mut h, a, "f.t", "a-alone");
    type_text(&mut h, b, "f.t", "b-alone");
    h.settle();
    assert_eq!(text_of(&h, a, "f.t"), "a-alone");
    assert_eq!(text_of(&h, b, "f.t"), "b-alone");
}

#[test]
fn floor_control_rejects_concurrent_events_and_rolls_back_feedback() {
    let mut h = SimHarness::with_latency(7, 1_000);
    let a = h.add_session(session(FIELD_FORM, 1));
    let b = h.add_session(session(FIELD_FORM, 2));
    h.settle();
    let gb = h.session(b).gid(&path("f.t")).unwrap();
    h.session_mut(a).couple(&path("f.t"), gb).unwrap();
    h.settle();

    // Both users type *before* any message is pumped: a's event reaches
    // the server first (FIFO on equal latency), locks the group, and b's
    // event is rejected.
    type_text(&mut h, a, "f.t", "from-a");
    type_text(&mut h, b, "f.t", "from-b");
    // Local echoes are visible immediately (syntactic feedback).
    assert_eq!(text_of(&h, a, "f.t"), "from-a");
    assert_eq!(text_of(&h, b, "f.t"), "from-b");
    h.settle();

    // a's event won; b's echo was rolled back and overwritten by the
    // re-execution of a's event.
    assert_eq!(text_of(&h, a, "f.t"), "from-a");
    assert_eq!(text_of(&h, b, "f.t"), "from-a");
    assert_eq!(h.server.rejected_events(), 1);
    let rejected: Vec<_> = h
        .session_mut(b)
        .take_events()
        .into_iter()
        .filter(|e| matches!(e, SessionEvent::EventRejected { .. }))
        .collect();
    assert_eq!(rejected.len(), 1);
    assert!(h.server.locks().is_empty());
}

#[test]
fn objects_are_disabled_while_group_is_locked() {
    let mut h = SimHarness::new(3);
    let a = h.add_session(session(FIELD_FORM, 1));
    let b = h.add_session(session(FIELD_FORM, 2));
    h.settle();
    let gb = h.session(b).gid(&path("f.t")).unwrap();
    h.session_mut(a).couple(&path("f.t"), gb).unwrap();
    h.settle();

    type_text(&mut h, a, "f.t", "locking");
    // Drive the simulation only partially: deliver the Event to the
    // server and the resulting grant/execute, but stop before the dones.
    for session in [a, b] {
        let msgs = h.session_mut(session).drain_outbox();
        for m in msgs {
            h.net.send(session, cosoft_core::SERVER_NODE, m);
        }
    }
    // Event reaches server; grant+execute go out.
    while let Some(d) = h.net.step() {
        if d.dst == cosoft_core::SERVER_NODE {
            let out = h.server.handle(d.src, d.msg).into_messages();
            for (dst, msg) in out {
                h.net.send(cosoft_core::SERVER_NODE, dst, msg);
            }
        } else {
            let dst = d.dst;
            h.session_mut(dst).on_message(d.msg);
            // Do NOT drain outboxes: ExecuteDone stays queued.
        }
    }
    // Mid-execution: both local objects are disabled.
    for node in [a, b] {
        let tree = h.session(node).toolkit().tree();
        let id = tree.resolve(&path("f.t")).unwrap();
        assert!(!tree.widget(id).unwrap().is_interactable(), "locked during execution");
    }
    // User input on a locked object fails loudly.
    let err = h
        .session_mut(b)
        .user_event(UiEvent::new(
            path("f.t"),
            EventKind::TextCommitted,
            vec![Value::Text("x".into())],
        ))
        .unwrap_err();
    assert!(matches!(err, cosoft_core::SessionError::Ui(cosoft_uikit::UiError::Disabled { .. })));

    // Finish the round: dones flow, unlock re-enables everything.
    h.settle();
    for node in [a, b] {
        let tree = h.session(node).toolkit().tree();
        let id = tree.resolve(&path("f.t")).unwrap();
        assert!(tree.widget(id).unwrap().is_interactable());
    }
}

#[test]
fn coupling_a_form_synchronizes_its_components() {
    let spec_src = r#"form f { textfield a text="" textfield b text="" }"#;
    let mut h = SimHarness::new(1);
    let a = h.add_session(session(spec_src, 1));
    let b = h.add_session(session(spec_src, 2));
    h.settle();

    // Couple the whole forms, not the fields.
    let gb = h.session(b).gid(&path("f")).unwrap();
    h.session_mut(a).couple(&path("f"), gb).unwrap();
    h.settle();

    // An event *inside* the coupled form routes through the form's links.
    type_text(&mut h, a, "f.a", "component-sync");
    h.settle();
    assert_eq!(text_of(&h, b, "f.a"), "component-sync");
    assert_eq!(text_of(&h, b, "f.b"), "", "sibling untouched");
}

#[test]
fn components_reenable_after_event_inside_coupled_form() {
    // Regression: the event executes on `f.a` (a component of the coupled
    // form `f`); the unlock notice must re-enable `f.a`, not just `f`.
    let spec_src = r#"form f { textfield a text="" }"#;
    let mut h = SimHarness::new(6);
    let a = h.add_session(session(spec_src, 1));
    let b = h.add_session(session(spec_src, 2));
    h.settle();
    let gb = h.session(b).gid(&path("f")).unwrap();
    h.session_mut(a).couple(&path("f"), gb).unwrap();
    h.settle();

    type_text(&mut h, a, "f.a", "first");
    h.settle();
    for node in [a, b] {
        let tree = h.session(node).toolkit().tree();
        let id = tree.resolve(&path("f.a")).unwrap();
        assert!(tree.widget(id).unwrap().is_interactable(), "field re-enabled after round");
    }
    // A second event must succeed (would fail with Disabled before the fix).
    type_text(&mut h, a, "f.a", "second");
    h.settle();
    assert_eq!(text_of(&h, b, "f.a"), "second");
}

#[test]
fn heterogeneous_coupling_via_correspondence() {
    // The teacher's display is a label; students edit text fields.
    let mut h = SimHarness::new(1);
    let teacher = h.add_session(session(r#"form f { label view text="" }"#, 1));
    let student = h.add_session(session(r#"form f { textfield answer text="" }"#, 2));
    h.settle();

    // The teacher declares that student text fields may drive its label.
    h.session_mut(teacher).correspondences_mut().declare(
        WidgetKind::TextField,
        WidgetKind::Label,
        vec![(AttrName::Text, AttrName::Text)],
    );
    let view = h.session(teacher).gid(&path("f.view")).unwrap();
    h.session_mut(student).couple(&path("f.answer"), view.clone()).unwrap();
    h.settle();

    // State copy across kinds (strict: structures are both leaves).
    h.session_mut(student).copy_to(&path("f.answer"), view, CopyMode::Strict).unwrap();
    h.settle();
    // First set some content, then push.
    type_text(&mut h, student, "f.answer", "42");
    h.settle();

    // The event was re-executed on the label: TextCommitted feedback sets
    // its text attribute.
    assert_eq!(text_of(&h, teacher, "f.view"), "42");
}

#[test]
fn copy_from_pulls_remote_state_with_semantics() {
    let mut h = SimHarness::new(1);
    let a = h.add_session(session(FIELD_FORM, 1));
    let b = h.add_session(session(FIELD_FORM, 2));
    h.settle();

    // b has content and a semantic payload behind its form.
    type_text(&mut h, b, "f.t", "late-join-me");
    h.settle();
    h.session_mut(b).hooks_mut().register(path("f"), |_| b"semantic-blob".to_vec(), |_, _| {});
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    let loaded = Arc::new(AtomicBool::new(false));
    let loaded2 = loaded.clone();
    h.session_mut(a).hooks_mut().register(
        path("f"),
        |_| Vec::new(),
        move |_, bytes| {
            assert_eq!(bytes, b"semantic-blob");
            loaded2.store(true, Ordering::SeqCst);
        },
    );

    // Late join: a pulls b's form state.
    let src = h.session(b).gid(&path("f")).unwrap();
    let req = h.session_mut(a).copy_from(src, &path("f"), CopyMode::Strict).unwrap();
    h.settle();

    assert_eq!(text_of(&h, a, "f.t"), "late-join-me");
    assert!(loaded.load(Ordering::SeqCst), "load hook ran in the dominated instance");
    let completed: Vec<_> = h
        .session_mut(a)
        .take_events()
        .into_iter()
        .filter(|e| matches!(e, SessionEvent::CopyCompleted { req_id } if *req_id == req))
        .collect();
    assert_eq!(completed.len(), 1);
}

#[test]
fn remote_copy_three_party_flow() {
    let mut h = SimHarness::new(1);
    let teacher = h.add_session(session(FIELD_FORM, 1));
    let s1 = h.add_session(session(FIELD_FORM, 2));
    let s2 = h.add_session(session(FIELD_FORM, 3));
    h.settle();

    type_text(&mut h, s1, "f.t", "model-solution");
    h.settle();

    // The teacher copies student 1's work to student 2 without touching
    // either directly.
    let src = h.session(s1).gid(&path("f.t")).unwrap();
    let dst = h.session(s2).gid(&path("f.t")).unwrap();
    h.session_mut(teacher).remote_copy(src, dst, CopyMode::Strict);
    h.settle();
    assert_eq!(text_of(&h, s2, "f.t"), "model-solution");
}

#[test]
fn destructive_merge_over_the_wire_reshapes_target() {
    let mut h = SimHarness::new(1);
    let a = h.add_session(session(
        r#"form f title="Rich" { textfield x text="payload" slider s value=0.5 }"#,
        1,
    ));
    let b = h.add_session(session(r#"form f title="Poor" { canvas odd }"#, 2));
    h.settle();

    let dst = h.session(b).gid(&path("f")).unwrap();
    h.session_mut(a).copy_to(&path("f"), dst, CopyMode::DestructiveMerge).unwrap();
    h.settle();

    let tree = h.session(b).toolkit().tree();
    assert!(tree.resolve(&path("f.x")).is_some(), "missing child created");
    assert!(tree.resolve(&path("f.s")).is_some());
    assert!(tree.resolve(&path("f.odd")).is_none(), "conflicting child destroyed");
    assert_eq!(text_of(&h, b, "f.x"), "payload");
}

#[test]
fn strict_copy_incompatibility_reports_error() {
    let mut h = SimHarness::new(1);
    let a = h.add_session(session(r#"form f { textfield x text="v" slider s value=0.1 }"#, 1));
    let b = h.add_session(session(r#"form f { canvas different }"#, 2));
    h.settle();

    let dst = h.session(b).gid(&path("f")).unwrap();
    h.session_mut(a).copy_to(&path("f"), dst, CopyMode::Strict).unwrap();
    h.settle();
    let errors: Vec<_> = h
        .session_mut(a)
        .take_events()
        .into_iter()
        .filter(|e| matches!(e, SessionEvent::Error { .. }))
        .collect();
    assert_eq!(errors.len(), 1);
    // b unchanged.
    assert!(h.session(b).toolkit().tree().resolve(&path("f.different")).is_some());
}

#[test]
fn undo_redo_round_trip_over_the_wire() {
    let mut h = SimHarness::new(1);
    let a = h.add_session(session(FIELD_FORM, 1));
    let b = h.add_session(session(FIELD_FORM, 2));
    h.settle();

    type_text(&mut h, b, "f.t", "original");
    h.settle();

    // a pushes new state onto b (overwriting "original").
    type_text(&mut h, a, "f.t", "overwritten");
    h.settle();
    let dst = h.session(b).gid(&path("f.t")).unwrap();
    h.session_mut(a).copy_to(&path("f.t"), dst.clone(), CopyMode::Strict).unwrap();
    h.settle();
    assert_eq!(text_of(&h, b, "f.t"), "overwritten");

    // b's user resizes the field after the copy. The width is not a
    // relevant attribute: the copy did not write it, so the historical
    // state does not hold it and neither undo nor redo may reset it.
    let width_of = |h: &SimHarness| {
        let tree = h.session(b).toolkit().tree();
        tree.attr(tree.resolve(&path("f.t")).unwrap(), &AttrName::Width).unwrap().clone()
    };
    assert_ne!(width_of(&h), Value::Int(77));
    let tree = h.session_mut(b).toolkit_mut().tree_mut();
    let t = tree.resolve(&path("f.t")).unwrap();
    tree.set_attr(t, AttrName::Width, Value::Int(77)).unwrap();

    // Undo restores the original.
    h.session_mut(b).undo(dst.clone());
    h.settle();
    assert_eq!(text_of(&h, b, "f.t"), "original");
    assert_eq!(width_of(&h), Value::Int(77), "undo leaves what the copy did not write");

    // Redo re-applies the copy.
    h.session_mut(b).redo(dst);
    h.settle();
    assert_eq!(text_of(&h, b, "f.t"), "overwritten");
    assert_eq!(width_of(&h), Value::Int(77), "and so does redo");
}

/// A depth-`depth` form in the shape of `server_core.rs`'s `deep_tree`:
/// a caption and a button at every level, one text field at the bottom.
fn deep_form(depth: usize) -> String {
    let mut spec = r#"textfield leaf text="v0""#.to_owned();
    for level in (0..depth).rev() {
        let kind = if level == 0 { "form" } else { "panel" };
        spec = format!(
            r#"{kind} lvl{level} title="panel {level}" {{
                 label caption text="caption {level}" button ok title="ok" {spec} }}"#
        );
    }
    spec
}

/// Runs sessions and server to quiescence by hand and returns every
/// message exchanged, with the session that sent it (none: the server).
fn settle_logged(h: &mut SimHarness, nodes: &[NodeId]) -> Vec<(Option<NodeId>, Message)> {
    let mut log = Vec::new();
    loop {
        let before = log.len();
        for &node in nodes {
            for msg in h.session_mut(node).drain_outbox() {
                log.push((Some(node), msg.clone()));
                for (dst, reply) in h.server.handle(node, msg).into_messages() {
                    log.push((None, reply.clone()));
                    h.session_mut(dst).on_message(reply);
                }
            }
        }
        if log.len() == before {
            return log;
        }
    }
}

/// The wire-size gate of `server_core.rs`
/// (`second_transfer_to_acknowledged_destination_is_a_delta`) with a real
/// viewer answering: what `Session::apply_state` reports as overwritten
/// is what the copy wrote, so the first reply is no larger than the
/// request, and the history hands back a state in the transfers'
/// vocabulary, so the undo leg and the copy after it stay deltas a
/// quarter of the snapshot. From the second copy on, what each apply
/// overwrote is the base its delta named: the viewer says so, and the
/// reply is a dozen bytes whatever the depth of the form.
#[test]
fn overwritten_state_keeps_replies_and_undo_legs_small() {
    for depth in [2, 6] {
        let mut h = SimHarness::new(1);
        let a = h.add_session(session(&deep_form(depth), 1));
        let b = h.add_session(session(&deep_form(depth), 2));
        h.settle();
        let leaf =
            format!("{}.leaf", (0..depth).map(|l| format!("lvl{l}")).collect::<Vec<_>>().join("."));
        let board = h.session(b).gid(&path("lvl0")).unwrap();
        // One copy (of the typed text) or undo; returns the frame sizes
        // of the leg to the viewer and of the viewer's reply.
        let round = |h: &mut SimHarness, text: Option<&str>| {
            match text {
                Some(text) => {
                    type_text(h, a, &leaf, text);
                    h.session_mut(a)
                        .copy_to(&path("lvl0"), board.clone(), CopyMode::Strict)
                        .unwrap();
                }
                None => h.session_mut(a).undo(board.clone()),
            }
            let log = settle_logged(h, &[a, b]);
            assert_eq!(text_of(h, b, &leaf), text.unwrap_or("v1"));
            let size = |from: Option<NodeId>, kind: &str| {
                log.iter()
                    .find(|(f, m)| (*f, m.kind_name()) == (from, kind))
                    .map(|(_, m)| codec::frame_message(m).len())
            };
            let leg = size(None, "apply-state").or(size(None, "apply-delta")).unwrap();
            (leg, size(Some(b), "state-applied").unwrap(), size(Some(a), "copy-to"))
        };
        let (snapshot, reply, request) = round(&mut h, Some("v1"));
        assert!(
            reply <= request.unwrap(),
            "first StateApplied is {reply} B for a CopyTo of {request:?} B"
        );
        let legs = [("copy", Some("v2")), ("undo", None), ("copy after undo", Some("v3"))];
        for (what, text) in legs {
            let (leg, reply, _) = round(&mut h, text);
            assert!(reply <= 12, "depth {depth}: the {what} leg's StateApplied is {reply} B");
            if depth == 6 {
                assert!(4 * leg <= snapshot, "{what} leg is {leg} B, the ApplyState {snapshot} B");
            }
        }
        let stats = h.server.stats();
        assert_eq!(
            (stats.delta_legs_sent, stats.delta_fallbacks, stats.acks_by_reference),
            (3, 0, 3)
        );
    }
}

// ---- acknowledgement by reference, against a model -------------------------

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
}

/// The presenter's board and the two like viewers'; the unlike viewer
/// shows the middle field as a label, under a correspondence table.
const BOARD: &str = r#"form board title="" {
    textfield f0 text="" textfield f1 text="" textfield f2 text="" }"#;
const UNLIKE_BOARD: &str = r#"form board title="" {
    textfield f0 text="" label f1 text="" textfield f2 text="" }"#;

/// Everything a transfer writes on a board: its title and three texts.
#[derive(Debug, Clone, PartialEq, Default)]
struct BoardState {
    title: String,
    fields: [String; 3],
}

impl BoardState {
    /// The relevant snapshot of a board holding this.
    fn snapshot(&self, unlike: bool) -> StateNode {
        let title = Value::Text(self.title.clone());
        let mut form = StateNode::new(WidgetKind::Form, "board").with_attr(AttrName::Title, title);
        for (i, text) in self.fields.iter().enumerate() {
            let kind = if unlike && i == 1 { WidgetKind::Label } else { WidgetKind::TextField };
            let text = Value::Text(text.clone());
            form.children
                .push(StateNode::new(kind, &format!("f{i}")).with_attr(AttrName::Text, text));
        }
        form
    }
}

/// How a historical state got onto its stack.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Filed {
    /// Carried by the reply to a first-contact `ApplyState` leg.
    FirstContact,
    /// Carried by the reply to a delta leg: the viewer no longer held the
    /// base (or holds it in other kinds).
    InFull,
    /// Named by the reply to a delta leg and filed from the server's copy.
    ByReference,
}

/// A viewer as plain stacks of the states *it* held — what the server's
/// history must amount to however the states reached it.
struct ModelViewer {
    node: NodeId,
    unlike: bool,
    held: BoardState,
    /// The state it last acknowledged, as transmitted: what the server
    /// diffs the next leg against, and what "by reference" refers to.
    base: Option<BoardState>,
    undo: Vec<(BoardState, Filed)>,
    redo: Vec<(BoardState, Filed)>,
}

impl ModelViewer {
    /// Applies a transmitted state and returns what that overwrote. It is
    /// acknowledged by reference exactly when the leg is a delta and the
    /// board held that delta's base, kind for kind and value for value
    /// (every transmitted state here is in the like boards' kinds).
    fn apply(&mut self, sent: &BoardState) -> (BoardState, Filed) {
        let filed = match &self.base {
            None => Filed::FirstContact,
            Some(base) if !self.unlike && *base == self.held => Filed::ByReference,
            Some(_) => Filed::InFull,
        };
        self.base = Some(sent.clone());
        (std::mem::replace(&mut self.held, sent.clone()), filed)
    }
}

#[derive(Debug)]
enum Step {
    /// The presenter edits its board and copies it onto the viewers'.
    Copy(CopyMode),
    /// Undo / redo on like viewer `0` or `1`'s board.
    Undo(usize),
    Redo(usize),
    /// Viewer `.0` sets field `.1` behind the coupling's back.
    LocalEdit(usize, usize),
    /// Viewer `.0` types into field `.1`; its group re-executes.
    CoupledEvent(usize, usize),
}

/// Differential test of acknowledgement by reference, over seeded scripts
/// (SplitMix64, std only): real sessions and a real server against
/// [`ModelViewer`], compared at every quiescence. The model knows nothing
/// of deltas, encodings or references — only which states each viewer
/// held — so a history entry filed from the server's copy of a base must
/// be indistinguishable from the record the viewer would have sent.
#[test]
fn acknowledgement_by_reference_matches_plain_history_stacks() {
    const SCRIPTS: u64 = 240;
    const STEPS: usize = 28;
    // (acknowledgements, entries popped by undo/redo) per way of filing.
    let mut seen = [(0u64, 0u64); 3];
    let mut unlike_delta_legs = 0;
    for seed in 0..SCRIPTS {
        let mut rng = SplitMix64(seed);
        let mut h = SimHarness::new(seed);
        let presenter = h.add_session(session(BOARD, 1));
        let mut viewers: Vec<ModelViewer> = [BOARD, BOARD, UNLIKE_BOARD]
            .iter()
            .zip(2..)
            .map(|(spec, user)| ModelViewer {
                node: h.add_session(session(spec, user)),
                unlike: *spec == UNLIKE_BOARD,
                held: BoardState::default(),
                base: None,
                undo: Vec::new(),
                redo: Vec::new(),
            })
            .collect();
        h.settle();
        h.session_mut(viewers[2].node).correspondences_mut().declare(
            WidgetKind::TextField,
            WidgetKind::Label,
            vec![(AttrName::Text, AttrName::Text)],
        );
        let board_of = |h: &SimHarness, node| h.session(node).gid(&path("board")).unwrap();
        for pair in [(0, 1), (1, 2)] {
            let dst = board_of(&h, viewers[pair.1].node);
            h.session_mut(viewers[pair.0].node).couple(&path("board"), dst).unwrap();
            h.settle();
        }
        let nodes: Vec<NodeId> =
            std::iter::once(presenter).chain(viewers.iter().map(|v| v.node)).collect();
        let set_text = |h: &mut SimHarness, node, field: usize, text: &str| {
            let tree = h.session_mut(node).toolkit_mut().tree_mut();
            let id = tree.resolve(&path(&format!("board.f{field}"))).unwrap();
            tree.set_attr(id, AttrName::Text, Value::Text(text.into())).unwrap();
        };

        let mut presented = BoardState::default();
        let mut acks_by_reference = 0;
        for n in 0..STEPS {
            let fresh = format!("s{seed}n{n}");
            let step = match rng.below(100) {
                0..=39 => Step::Copy(
                    [CopyMode::Strict, CopyMode::FlexibleMatch, CopyMode::DestructiveMerge]
                        [rng.below(3)],
                ),
                40..=54 => Step::Undo(rng.below(2)),
                55..=64 => Step::Redo(rng.below(2)),
                65..=84 => Step::LocalEdit(rng.below(3), rng.below(3)),
                _ => Step::CoupledEvent(rng.below(3), 2 * rng.below(2)),
            };
            let ctx = format!("seed {seed}, step {n} ({step:?})");

            // The step, on the model; `applied` is what each viewer
            // overwrote if the step transferred a state.
            let mut applied: Vec<(BoardState, Filed)> = Vec::new();
            match step {
                Step::Copy(mode) => {
                    for field in 0..3 {
                        if rng.below(3) == 0 {
                            presented.fields[field] = format!("{fresh}f{field}");
                            set_text(&mut h, presenter, field, &presented.fields[field]);
                        }
                    }
                    if rng.below(4) == 0 {
                        presented.title = fresh.clone();
                        let tree = h.session_mut(presenter).toolkit_mut().tree_mut();
                        let id = tree.resolve(&path("board")).unwrap();
                        tree.set_attr(id, AttrName::Title, Value::Text(fresh.clone())).unwrap();
                    }
                    let dst = board_of(&h, viewers[0].node);
                    h.session_mut(presenter).copy_to(&path("board"), dst, mode).unwrap();
                    for v in &mut viewers {
                        let overwritten = v.apply(&presented);
                        v.undo.push(overwritten.clone());
                        v.redo.clear();
                        applied.push(overwritten);
                    }
                }
                Step::Undo(k) | Step::Redo(k) => {
                    let object = board_of(&h, viewers[k].node);
                    let undo = matches!(step, Step::Undo(_));
                    let popped = if undo {
                        h.session_mut(presenter).undo(object);
                        viewers[k].undo.pop()
                    } else {
                        h.session_mut(presenter).redo(object);
                        viewers[k].redo.pop()
                    };
                    if let Some((restored, filed)) = popped {
                        seen[filed as usize].1 += 1;
                        for v in &mut viewers {
                            let overwritten = v.apply(&restored);
                            if undo { &mut v.redo } else { &mut v.undo }.push(overwritten.clone());
                            applied.push(overwritten);
                        }
                    }
                }
                Step::LocalEdit(i, field) => {
                    // Now and then back to what the base says: the board
                    // then holds the base again, and may say so.
                    let text = match &viewers[i].base {
                        Some(base) if rng.below(3) == 0 => base.fields[field].clone(),
                        _ => fresh,
                    };
                    set_text(&mut h, viewers[i].node, field, &text);
                    viewers[i].held.fields[field] = text;
                }
                Step::CoupledEvent(i, field) => {
                    type_text(&mut h, viewers[i].node, &format!("board.f{field}"), &fresh);
                    for v in &mut viewers {
                        v.held.fields[field] = fresh.clone();
                    }
                }
            }

            // The same step, for real.
            let log = settle_logged(&mut h, &nodes);
            let mut by_reference: Vec<NodeId> = log
                .iter()
                .filter_map(|(from, m)| match m {
                    Message::StateApplied { overwritten: Some(Overwritten::Base), .. } => *from,
                    _ => None,
                })
                .collect();
            by_reference.sort();
            let expected: Vec<NodeId> = viewers
                .iter()
                .zip(&applied)
                .filter(|(_, (_, filed))| *filed == Filed::ByReference)
                .map(|(v, _)| v.node)
                .collect();
            for v in &viewers {
                let tree = h.session(v.node).toolkit().tree();
                let shown = tree.snapshot(tree.resolve(&path("board")).unwrap(), true).unwrap();
                assert_eq!(shown, v.held.snapshot(v.unlike), "{ctx}: viewer {:?}", v.node);
            }
            assert_eq!(by_reference, expected, "{ctx}: who acknowledged by reference");
            acks_by_reference += expected.len() as u64;
            let stats = h.server.stats();
            assert_eq!(
                (stats.acks_by_reference, stats.delta_fallbacks),
                (acks_by_reference, 0),
                "{ctx}"
            );
            h.server.check_invariants().unwrap_or_else(|e| panic!("{ctx}: {e}"));
            for (v, (_, filed)) in viewers.iter().zip(&applied) {
                seen[*filed as usize].0 += 1;
                unlike_delta_legs += u64::from(v.unlike && *filed == Filed::InFull);
            }
        }
    }
    // Every path ran, and every kind of entry was restored from.
    let [first_contact, in_full, by_reference] = seen;
    assert!(first_contact.0 >= 3 * SCRIPTS / 2, "first-contact legs: {first_contact:?}");
    assert!(in_full.0 > unlike_delta_legs && in_full.1 > 100, "diverged like viewers: {in_full:?}");
    assert!(unlike_delta_legs > 1_000, "delta legs to the unlike viewer: {unlike_delta_legs}");
    assert!(by_reference.0 > 1_000 && by_reference.1 > 100, "by reference: {by_reference:?}");
}

/// §3.2: "the decoupling algorithm is applied automatically when a UI
/// object is destroyed" — also when a destructive merge (every undo is
/// one) is what destroyed it.
#[test]
fn merge_that_destroys_a_coupled_child_decouples_it() {
    let mut h = SimHarness::new(1);
    let a = h.add_session(session(r#"form f { slider s value=0.5 }"#, 1));
    let b = h.add_session(session(r#"form f { textfield odd text="" }"#, 2));
    let c = h.add_session(session(FIELD_FORM, 3));
    h.settle();
    let b_odd = h.session(b).gid(&path("f.odd")).unwrap();
    h.session_mut(c).couple(&path("f.t"), b_odd).unwrap();
    h.settle();
    assert!(h.session(b).is_coupled(&path("f.odd")));

    // a's form has no text field: merging it onto b's destroys `odd`.
    let b_form = h.session(b).gid(&path("f")).unwrap();
    h.session_mut(a).copy_to(&path("f"), b_form, CopyMode::DestructiveMerge).unwrap();
    h.settle();
    assert!(h.session(b).toolkit().tree().resolve(&path("f.odd")).is_none());
    assert!(h.session(b).group_of(&path("f.odd")).is_none(), "b forgot the dead object's group");
    assert!(!h.session(c).is_coupled(&path("f.t")), "c heard that its partner is gone");
    assert!(h.server.couples().is_empty(), "the server dropped the link");
    h.server.check_invariants().unwrap();
    // c's field is free again: an event on it neither locks nor
    // addresses the dead object.
    type_text(&mut h, c, "f.t", "alone");
    h.settle();
    assert_eq!(text_of(&h, c, "f.t"), "alone");
    h.server.check_invariants().unwrap();

    // The same on one session, message by message: the notification
    // leaves with the reply to the leg that destroyed the object.
    let mut s = session(r#"form f { textfield odd text="" }"#, 9);
    s.on_message(Message::Welcome { instance: InstanceId(4) });
    let odd = s.gid(&path("f.odd")).unwrap();
    let partner = GlobalObjectId::new(InstanceId(5), path("f.t"));
    s.on_message(Message::CoupleUpdate { group: vec![odd.clone(), partner] });
    s.drain_outbox();
    s.on_message(Message::ApplyState {
        req_id: 1,
        path: path("f"),
        snapshot: StateNode::new(WidgetKind::Form, "f"),
        mode: CopyMode::DestructiveMerge,
    });
    match &s.drain_outbox()[..] {
        [Message::ObjectDestroyed { object }, Message::StateApplied { req_id: 1, error: None, .. }] =>
        {
            assert_eq!(*object, odd)
        }
        other => panic!("expected ObjectDestroyed then StateApplied, got {other:?}"),
    }
}

#[test]
fn co_send_command_rpc_with_handler() {
    let mut h = SimHarness::new(1);
    let a = h.add_session(session(FIELD_FORM, 1));
    let b = h.add_session(session(FIELD_FORM, 2));
    h.settle();

    // b registers an application-defined command that writes its field.
    h.session_mut(b).on_command("set-status", |toolkit, _from, payload| {
        let text = String::from_utf8_lossy(payload).into_owned();
        let id = toolkit.tree().resolve(&ObjectPath::parse("f.t").unwrap()).unwrap();
        toolkit.tree_mut().set_attr(id, AttrName::Text, Value::Text(text)).unwrap();
    });

    let b_instance = h.instance_of(b).unwrap();
    h.session_mut(a).send_command(
        Target::Instance(b_instance),
        "set-status",
        b"rpc-payload".to_vec(),
    );
    h.settle();
    assert_eq!(text_of(&h, b, "f.t"), "rpc-payload");

    // Unhandled commands surface as events.
    h.session_mut(a).send_command(Target::Broadcast, "unknown-cmd", vec![1, 2]);
    h.settle();
    let received: Vec<_> = h
        .session_mut(b)
        .take_events()
        .into_iter()
        .filter(|e| matches!(e, SessionEvent::CommandReceived { command, .. } if command == "unknown-cmd"))
        .collect();
    assert_eq!(received.len(), 1);
}

#[test]
fn crash_auto_decouples_and_releases_group() {
    let mut h = SimHarness::new(1);
    let a = h.add_session(session(FIELD_FORM, 1));
    let b = h.add_session(session(FIELD_FORM, 2));
    let c = h.add_session(session(FIELD_FORM, 3));
    h.settle();

    let gb = h.session(b).gid(&path("f.t")).unwrap();
    let gc = h.session(c).gid(&path("f.t")).unwrap();
    h.session_mut(a).couple(&path("f.t"), gb.clone()).unwrap();
    h.settle();
    h.session_mut(b).couple(&path("f.t"), gc).unwrap();
    h.settle();
    assert_eq!(h.session(a).group_of(&path("f.t")).unwrap().len(), 3);

    // b crashes; the server auto-decouples its objects.
    h.crash(b);
    h.settle();

    // a and c remain coupled with each other (they were joined through b's
    // object, but the closure re-forms only over surviving links — a and c
    // had no direct link, so they decouple).
    assert!(!h.session(a).is_coupled(&path("f.t")));
    assert!(!h.session(c).is_coupled(&path("f.t")));

    // Typing in a stays local now.
    type_text(&mut h, a, "f.t", "after-crash");
    h.settle();
    assert_eq!(text_of(&h, a, "f.t"), "after-crash");
    assert_eq!(text_of(&h, c, "f.t"), "");
}

#[test]
fn destroy_decouples_the_destroyed_object() {
    let mut h = SimHarness::new(1);
    let a = h.add_session(session(FIELD_FORM, 1));
    let b = h.add_session(session(FIELD_FORM, 2));
    h.settle();
    let gb = h.session(b).gid(&path("f.t")).unwrap();
    h.session_mut(a).couple(&path("f.t"), gb).unwrap();
    h.settle();
    assert!(h.session(b).is_coupled(&path("f.t")));

    h.session_mut(a).destroy(&path("f.t")).unwrap();
    h.settle();
    assert!(!h.session(b).is_coupled(&path("f.t")));
    assert!(h.server.couples().is_empty());
}

#[test]
fn permissions_gate_coupling() {
    let mut h = SimHarness::new(1);
    let a = h.add_session(session(FIELD_FORM, 1));
    let b = h.add_session(session(FIELD_FORM, 2));
    h.settle();

    // b locks down its field for user 1.
    h.session_mut(b).set_permission(UserId(1), &path("f.t"), AccessRight::Denied).unwrap();
    h.settle();

    let gb = h.session(b).gid(&path("f.t")).unwrap();
    h.session_mut(a).couple(&path("f.t"), gb.clone()).unwrap();
    h.settle();
    let denied: Vec<_> = h
        .session_mut(a)
        .take_events()
        .into_iter()
        .filter(|e| matches!(e, SessionEvent::PermissionDenied { .. }))
        .collect();
    assert_eq!(denied.len(), 1);
    assert!(!h.session(a).is_coupled(&path("f.t")));

    // Granting write makes the same couple succeed.
    h.session_mut(b).set_permission(UserId(1), &path("f.t"), AccessRight::Write).unwrap();
    h.settle();
    h.session_mut(a).couple(&path("f.t"), gb).unwrap();
    h.settle();
    assert!(h.session(a).is_coupled(&path("f.t")));
}

#[test]
fn query_instances_supports_join_ui() {
    let mut h = SimHarness::new(1);
    let a = h.add_session(session(FIELD_FORM, 1));
    let _b = h.add_session(session(FIELD_FORM, 2));
    let _c = h.add_session(session(FIELD_FORM, 3));
    h.settle();

    h.session_mut(a).query_instances();
    h.settle();
    let lists: Vec<_> = h
        .session_mut(a)
        .take_events()
        .into_iter()
        .filter_map(|e| match e {
            SessionEvent::InstanceList(entries) => Some(entries),
            _ => None,
        })
        .collect();
    assert_eq!(lists.len(), 1);
    assert_eq!(lists[0].len(), 3);
}

#[test]
fn same_instance_coupling_mirrors_two_widgets() {
    // "including the case of two objects coupled within the same
    // application instance" (§3.3).
    let mut h = SimHarness::new(1);
    let a =
        h.add_session(session(r#"form f { textfield left text="" textfield right text="" }"#, 1));
    h.settle();
    let right = h.session(a).gid(&path("f.right")).unwrap();
    h.session_mut(a).couple(&path("f.left"), right).unwrap();
    h.settle();

    type_text(&mut h, a, "f.left", "mirrored");
    h.settle();
    assert_eq!(text_of(&h, a, "f.right"), "mirrored");
}

#[test]
fn join_copies_then_couples() {
    let mut h = SimHarness::new(12);
    let a = h.add_session(session(FIELD_FORM, 1));
    let b = h.add_session(session(FIELD_FORM, 2));
    h.settle();
    type_text(&mut h, b, "f.t", "existing-work");
    h.settle();

    let remote = h.session(b).gid(&path("f.t")).unwrap();
    h.session_mut(a).join(remote, &path("f.t"), CopyMode::Strict).unwrap();
    h.settle();
    // Initial state arrived AND live coupling works.
    assert_eq!(text_of(&h, a, "f.t"), "existing-work");
    type_text(&mut h, b, "f.t", "live-update");
    h.settle();
    assert_eq!(text_of(&h, a, "f.t"), "live-update");
}

#[test]
fn leave_group_detaches_from_every_peer() {
    let mut h = SimHarness::new(13);
    let a = h.add_session(session(FIELD_FORM, 1));
    let b = h.add_session(session(FIELD_FORM, 2));
    let c = h.add_session(session(FIELD_FORM, 3));
    h.settle();
    let gb = h.session(b).gid(&path("f.t")).unwrap();
    let gc = h.session(c).gid(&path("f.t")).unwrap();
    // a links directly to BOTH b and c (a star centred on a).
    h.session_mut(a).couple(&path("f.t"), gb).unwrap();
    h.settle();
    h.session_mut(a).couple(&path("f.t"), gc).unwrap();
    h.settle();
    assert_eq!(h.session(a).group_of(&path("f.t")).unwrap().len(), 3);

    let n = h.session_mut(a).leave_group(&path("f.t")).unwrap();
    assert_eq!(n, 2);
    h.settle();
    assert!(!h.session(a).is_coupled(&path("f.t")));
    // b and c were only connected through a, so they decouple too.
    assert!(!h.session(b).is_coupled(&path("f.t")));
    assert!(!h.session(c).is_coupled(&path("f.t")));

    // Leaving when uncoupled is a no-op.
    assert_eq!(h.session_mut(a).leave_group(&path("f.t")).unwrap(), 0);
}

#[test]
fn deterministic_replay_same_seed_same_bytes() {
    let run = |seed: u64| -> (u64, u64) {
        let mut h = SimHarness::with_latency(seed, 1_500);
        let a = h.add_session(session(FIELD_FORM, 1));
        let b = h.add_session(session(FIELD_FORM, 2));
        h.settle();
        let gb = h.session(b).gid(&path("f.t")).unwrap();
        h.session_mut(a).couple(&path("f.t"), gb).unwrap();
        h.settle();
        for i in 0..10 {
            type_text(&mut h, a, "f.t", &format!("v{i}"));
            h.settle();
        }
        (h.net.stats().bytes_sent, h.net.now_us())
    };
    assert_eq!(run(11), run(11));
}
