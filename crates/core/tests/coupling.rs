//! End-to-end tests of the coupling runtime over the simulated network:
//! every §3 mechanism exercised through the real protocol.
//!
//! The delta wire-size gate of `cosoft-server`'s `server_core.rs` is held
//! here over real sessions: the undo leg and the copy after it stay
//! deltas, the first `StateApplied` reply is no larger than its `CopyTo`,
//! the steady-state ones ≤ 12 B; from the second copy on the request is a
//! `copy-delta`, and request, leg and acknowledgement together ≤ 200 B at
//! depth 6. A merge that destroys a coupled child decouples it. Sync
//! bases and acknowledgement by reference are checked against a plain
//! model of boards, bases and history stacks over 240 seeded scripts
//! (pushes both ways, pulls, viewer-side edits, undo / redo, a presenter
//! that re-registers, a push shed as `Busy`).

use std::cell::Cell;

use cosoft_core::harness::SimHarness;
use cosoft_core::session::{Session, SessionEvent};
use cosoft_net::sim::NodeId;
use cosoft_rng::{forall, Rng};
use cosoft_server::{LivenessConfig, OverloadConfig, ShardRouter};
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
    assert_eq!(h.server.stats().held_locks, 0);
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

/// The race the locking algorithm exists for (§3.2): both users type
/// before either event reaches the server. Links race under jitter, so
/// which event arrives first varies with the seed: the server grants one,
/// rejects the other, and the loser's echo is rolled back and overwritten
/// by the winner's re-execution. Across the sweep each user wins some
/// race.
#[test]
fn floor_control_rejects_concurrent_events_and_rolls_back_feedback() {
    let wins = [Cell::new(0u32), Cell::new(0u32)];
    forall(
        0..64,
        |r| r.next_u64(),
        |seed| {
            let mut h = SimHarness::new(seed);
            h.net.set_latency(1_000, 800);
            let a = h.add_session(session(FIELD_FORM, 1));
            let b = h.add_session(session(FIELD_FORM, 2));
            h.settle();
            let gb = h.session(b).gid(&path("f.t")).unwrap();
            h.session_mut(a).couple(&path("f.t"), gb).unwrap();
            h.settle();

            type_text(&mut h, a, "f.t", "from-a");
            type_text(&mut h, b, "f.t", "from-b");
            // Local echoes are visible immediately (syntactic feedback).
            assert_eq!(text_of(&h, a, "f.t"), "from-a");
            assert_eq!(text_of(&h, b, "f.t"), "from-b");
            h.settle();

            let winner = text_of(&h, a, "f.t");
            let loser = match winner.as_str() {
                "from-a" => b,
                "from-b" => a,
                other => panic!("neither event won: {other:?}"),
            };
            let won = &wins[usize::from(loser == a)];
            won.set(won.get() + 1);
            assert_eq!(text_of(&h, b, "f.t"), winner, "the loser's echo is rolled back");
            assert_eq!(h.server.stats().events_rejected, 1);
            let rejected = h
                .session_mut(loser)
                .take_events()
                .into_iter()
                .filter(|e| matches!(e, SessionEvent::EventRejected { .. }))
                .count();
            assert_eq!(rejected, 1);
            assert_eq!(h.server.stats().held_locks, 0);
        },
    );
    let [a, b] = wins.map(Cell::into_inner);
    assert!(a > 0 && b > 0, "a won {a} races and b {b}: the links never raced");
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
    // Drive the simulation only partially: the Event reaches the server,
    // the grant and the execute go out, and the round stops as soon as
    // both sessions hold the group locked, before the unlock.
    let interactable = |h: &SimHarness, node| {
        let tree = h.session(node).toolkit().tree();
        let id = tree.resolve(&path("f.t")).unwrap();
        tree.widget(id).unwrap().is_interactable()
    };
    h.flush();
    while interactable(&h, a) || interactable(&h, b) {
        h.step().expect("the round locks both sides before it ends");
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
    assert!(interactable(&h, a) && interactable(&h, b));
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

/// Semantic payloads ride delta pushes and delta legs. The presenter
/// stores a payload behind its form and one behind the field in it. A
/// push whose only change is the form's payload is a `CopyDelta` of one
/// semantic patch, each viewer's leg is the same patch, and every leg —
/// the first-contact `ApplyState` and each delta after it — reaches both
/// of each viewer's load hooks, with the payloads the presenter stored.
#[test]
fn semantic_payloads_ride_delta_pushes_and_legs() {
    use std::sync::{Arc, Mutex};
    let mut h = SimHarness::new(1);
    let presenter = h.add_session(session(FIELD_FORM, 1));
    let viewers: Vec<NodeId> = (2..=4).map(|u| h.add_session(session(FIELD_FORM, u))).collect();
    h.settle();
    let board = h.session(viewers[0]).gid(&path("f")).unwrap();
    for &v in &viewers[1..] {
        h.session_mut(v).couple(&path("f"), board.clone()).unwrap();
    }
    h.settle();

    let stored = Arc::new(Mutex::new(Vec::new()));
    let store = stored.clone();
    let hooks = h.session_mut(presenter).hooks_mut();
    hooks.register(path("f"), move |_| store.lock().unwrap().clone(), |_, _| {});
    hooks.register(path("f.t"), |_| b"field".to_vec(), |_, _| {});
    type Loads = Vec<(NodeId, String, Vec<u8>)>;
    let loaded: Arc<Mutex<Loads>> = Arc::default();
    for &v in &viewers {
        for at in ["f", "f.t"] {
            let log = loaded.clone();
            let load = move |_: &mut _, bytes: &[u8]| {
                log.lock().unwrap().push((v, at.to_owned(), bytes.to_vec()));
            };
            h.session_mut(v).hooks_mut().register(path(at), |_| Vec::new(), load);
        }
    }

    for (round, payload) in [&b"one"[..], b"two", b"three"].into_iter().enumerate() {
        *stored.lock().unwrap() = payload.to_vec();
        h.session_mut(presenter).copy_to(&path("f"), board.clone(), CopyMode::Strict).unwrap();
        let log = settle_logged(&mut h);
        let semantic_patch = |d: &cosoft_wire::StateDelta| {
            matches!(&d.edits[..], [edit] if edit.path.is_empty() && matches!(&edit.op,
                cosoft_wire::EditOp::Patch(p) if p.semantic.as_deref() == Some(payload)
                    && p.upserts.is_empty() && p.removals.is_empty() && p.kind.is_none()))
        };
        let kinds: Vec<&str> = log.iter().map(|(_, m)| m.kind_name()).collect();
        for (from, m) in &log {
            match m {
                Message::CopyTo { .. } => assert_eq!(round, 0, "{kinds:?}"),
                Message::CopyDelta { delta, .. } => assert!(semantic_patch(delta), "{delta:?}"),
                Message::ApplyState { .. } => assert_eq!(round, 0, "{kinds:?}"),
                Message::ApplyDelta { delta, .. } => assert!(semantic_patch(delta), "{delta:?}"),
                Message::StateApplied { error, .. } => assert_eq!(*error, None, "from {from:?}"),
                _ => {}
            }
        }
        let legs = kinds.iter().filter(|k| k.starts_with("apply-")).count();
        assert_eq!(legs, viewers.len(), "{kinds:?}");
        let mut expected: Loads = viewers
            .iter()
            .flat_map(|&v| {
                [(v, "f".into(), payload.to_vec()), (v, "f.t".into(), b"field".to_vec())]
            })
            .collect();
        let mut got = std::mem::take(&mut *loaded.lock().unwrap());
        expected.sort();
        got.sort();
        assert_eq!(got, expected, "round {round}");
    }
    h.server.check_invariants().unwrap();
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

/// Runs sessions and server to quiescence and returns every message
/// delivered, with the session that sent it (none: the server).
fn settle_logged(h: &mut SimHarness) -> Vec<(Option<NodeId>, Message)> {
    h.flush();
    std::iter::from_fn(|| h.step())
        .map(|d| ((d.src != cosoft_core::SERVER_NODE).then_some(d.src), d.msg))
        .collect()
}

/// The wire-size gate of `server_core.rs`
/// (`second_transfer_to_acknowledged_destination_is_a_delta`) with a real
/// viewer answering: what `Session::apply_state` reports as overwritten
/// is what the copy wrote, so the first reply is no larger than the
/// request, and the history hands back a state in the transfers'
/// vocabulary, so the undo leg and the copy after it stay deltas a
/// quarter of the snapshot. From the second copy on, what each apply
/// overwrote is the base its delta named: the viewer says so, and the
/// reply is a dozen bytes whatever the depth of the form. The request
/// shrinks the same way: from the second copy on the presenter holds the
/// snapshot it shipped last and sends a `copy-delta`, so that at depth 6
/// request, leg and acknowledgement together fit in 200 bytes.
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
            let log = settle_logged(h);
            assert_eq!(text_of(h, b, &leaf), text.unwrap_or("v1"));
            let size = |from: Option<NodeId>, kind: &str| {
                log.iter()
                    .find(|(f, m)| (*f, m.kind_name()) == (from, kind))
                    .map(|(_, m)| codec::frame_message(m).len())
            };
            let leg = size(None, "apply-state").or(size(None, "apply-delta")).unwrap();
            let request = [size(Some(a), "copy-to"), size(Some(a), "copy-delta")];
            (leg, size(Some(b), "state-applied").unwrap(), request)
        };
        let (snapshot, reply, request) = round(&mut h, Some("v1"));
        let [Some(copy_to), None] = request else {
            panic!("first contact travels in full, got {request:?}");
        };
        assert!(reply <= copy_to, "first StateApplied is {reply} B for a CopyTo of {copy_to} B");
        let legs = [("copy", Some("v2")), ("undo", None), ("copy after undo", Some("v3"))];
        for (what, text) in legs {
            let (leg, reply, request) = round(&mut h, text);
            assert!(reply <= 12, "depth {depth}: the {what} leg's StateApplied is {reply} B");
            if depth == 6 {
                assert!(4 * leg <= snapshot, "{what} leg is {leg} B, the ApplyState {snapshot} B");
            }
            if text.is_some() {
                let [None, Some(copy_delta)] = request else {
                    panic!("the {what} is requested by delta, got {request:?}");
                };
                assert!(
                    depth != 6 || copy_delta + leg + reply <= 200,
                    "{what}: {copy_delta} B up, {leg} B down, {reply} B back"
                );
            }
        }
        let stats = h.server.stats();
        assert_eq!(
            (stats.delta_legs_sent, stats.delta_fallbacks, stats.acks_by_reference),
            (3, 0, 3)
        );
        assert_eq!((stats.pushes_by_delta, stats.push_fallbacks), (2, 0));
    }
}

/// A member that pushes onto its own couple group is a destination of
/// its own push. What it pushed is its sync base before the fan-out
/// starts, so its own leg is an empty delta, acknowledged by reference,
/// where the whole snapshot used to be echoed back to it.
#[test]
fn push_onto_own_group_echoes_an_empty_delta() {
    let mut h = SimHarness::new(1);
    let a = h.add_session(session(&deep_form(6), 1));
    let b = h.add_session(session(&deep_form(6), 2));
    h.settle();
    let board = h.session(b).gid(&path("lvl0")).unwrap();
    h.session_mut(a).couple(&path("lvl0"), board.clone()).unwrap();
    h.settle();
    let tree = h.session_mut(a).toolkit_mut().tree_mut();
    let leaf = tree.resolve(&path("lvl0.lvl1.lvl2.lvl3.lvl4.lvl5.leaf")).unwrap();
    tree.set_attr(leaf, AttrName::Text, Value::Text("v1".into())).unwrap();

    h.session_mut(a).copy_to(&path("lvl0"), board, CopyMode::Strict).unwrap();
    let log = settle_logged(&mut h);
    // (frame bytes, whether an empty delta) of the two legs, smaller first.
    let mut legs: Vec<(usize, bool)> = log
        .iter()
        .filter_map(|(from, m)| match (from, m) {
            (None, Message::ApplyState { .. }) => Some((codec::frame_message(m).len(), false)),
            (None, Message::ApplyDelta { delta, .. }) => {
                Some((codec::frame_message(m).len(), delta.is_empty()))
            }
            _ => None,
        })
        .collect();
    legs.sort();
    let [(echo, true), (first_contact, false)] = legs[..] else {
        panic!("expected an empty delta and a snapshot, got {legs:?}");
    };
    assert!(echo <= 40 && first_contact > 400, "{echo} B to the pusher, {first_contact} B on");
    let acks = |node| {
        log.iter()
            .filter_map(|(from, m)| match m {
                Message::StateApplied { overwritten, .. } if *from == Some(node) => {
                    Some(overwritten.clone())
                }
                _ => None,
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(acks(a), [Some(Overwritten::Base)]);
    assert!(matches!(acks(b)[..], [Some(Overwritten::State(_))]));
    assert_eq!(text_of(&h, b, "lvl0.lvl1.lvl2.lvl3.lvl4.lvl5.leaf"), "v1");
    h.server.check_invariants().unwrap();
}

// ---- acknowledgement by reference, against a model -------------------------

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
    /// Carried by the reply to a delta leg: the board no longer held the
    /// base (or holds it in other kinds).
    InFull,
    /// Named by the reply to a delta leg and filed from the server's copy.
    ByReference,
    /// Carried by the reply to the `ApplyState` a refused delta leg fell
    /// back to: the session's base was not the one the server diffed
    /// against.
    AfterRefusal,
}

/// How a push travelled.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Pushed {
    /// `CopyTo`: the session held no base for the board.
    InFull,
    /// `CopyDelta`, rebuilt by the server from its copy of the base.
    ByDelta,
    /// `CopyDelta` the server could not rebuild, and pulled instead.
    Pulled,
    /// Shed by admission control, whatever it was.
    Shed,
}

/// A board as plain values: what it shows, the two copies of its sync
/// base, and stacks of the states it held — what the server's history
/// must amount to however the states reached it.
struct ModelBoard {
    node: NodeId,
    unlike: bool,
    held: BoardState,
    /// The last state of the board that crossed its connection, in either
    /// direction and as transmitted, as the session has it and as the
    /// server does. Each end sends the other the edits since; they part
    /// when a push is shed or the server forgets the instance.
    session_base: Option<BoardState>,
    server_base: Option<BoardState>,
    undo: Vec<(BoardState, Filed)>,
    redo: Vec<(BoardState, Filed)>,
}

impl ModelBoard {
    fn new(node: NodeId, unlike: bool) -> ModelBoard {
        ModelBoard {
            node,
            unlike,
            held: BoardState::default(),
            session_base: None,
            server_base: None,
            undo: Vec::new(),
            redo: Vec::new(),
        }
    }

    /// Applies a transmitted state and returns what that overwrote. The
    /// leg is a delta when the server holds a base, refused unless the
    /// session holds the same, and acknowledged by reference exactly when
    /// the board held that base, kind for kind and value for value (every
    /// transmitted state here is in the like boards' kinds).
    fn apply(&mut self, sent: &BoardState) -> (BoardState, Filed) {
        let filed = match &self.server_base {
            None => Filed::FirstContact,
            Some(base) if self.session_base.as_ref() != Some(base) => Filed::AfterRefusal,
            Some(base) if !self.unlike && *base == self.held => Filed::ByReference,
            Some(_) => Filed::InFull,
        };
        self.session_base = Some(sent.clone());
        self.server_base = Some(sent.clone());
        (std::mem::replace(&mut self.held, sent.clone()), filed)
    }

    /// Pushes what the board holds; returns whether the push leaves as a
    /// delta — exactly when the session holds a base — and how it fares.
    /// Pulled instead when the server does not hold the same base; either
    /// way both ends hold the pushed state afterwards, unless the push
    /// was shed, which only the session knows of.
    fn push(&mut self, shed: bool) -> (bool, Pushed) {
        let pushed = match &self.session_base {
            _ if shed => Pushed::Shed,
            None => Pushed::InFull,
            Some(base) if self.server_base.as_ref() == Some(base) => Pushed::ByDelta,
            Some(_) => Pushed::Pulled,
        };
        let as_delta = self.session_base.is_some();
        self.session_base = Some(self.held.clone());
        if !shed {
            self.server_base = Some(self.held.clone());
        }
        (as_delta, pushed)
    }
}

#[derive(Debug)]
enum Step {
    /// The presenter edits its board and copies it onto the viewers';
    /// with `shed`, into a server that sheds the push as `Busy`.
    Copy {
        mode: CopyMode,
        shed: bool,
    },
    /// Undo / redo on like viewer `0` or `1`'s board.
    Undo(usize),
    Redo(usize),
    /// Viewer `.0` sets field `.1` behind the coupling's back.
    LocalEdit(usize, usize),
    /// Viewer `.0` types into field `.1`; its group re-executes.
    CoupledEvent(usize, usize),
    /// Like viewer `.0` copies its board back onto the presenter's, whose
    /// base is then written from the other direction.
    PushBack(usize, CopyMode),
    /// The bystander pulls the presenter's board: the `StateReply` is the
    /// presenter's base at both ends.
    BystanderPull(CopyMode),
    /// The presenter's connection is severed and it registers anew (the
    /// server keeps no resume token): its session keeps its base, the
    /// server forgets the instance.
    Reconnect,
}

/// Differential test of the sync base and of acknowledgement by
/// reference, over seeded scripts (seeded): real sessions
/// and a real server against [`ModelBoard`], compared at every
/// quiescence. The model knows nothing of deltas, encodings or
/// references — only which states each board held and which crossed its
/// connection last — so a history entry filed from the server's copy of a
/// base must be indistinguishable from the record the viewer would have
/// sent, and a push rebuilt from the server's copy of a base from the
/// snapshot the presenter would have sent.
#[test]
fn acknowledgement_by_reference_matches_plain_history_stacks() {
    const SCRIPTS: u64 = 240;
    const STEPS: usize = 32;
    const MODES: [CopyMode; 3] =
        [CopyMode::Strict, CopyMode::FlexibleMatch, CopyMode::DestructiveMerge];
    // (acknowledgements, entries popped by undo/redo) per way of filing,
    // and pushes per way of travelling.
    let mut seen = [(0u64, 0u64); 4];
    let mut pushes = [0u64; 4];
    let mut unlike_delta_legs = 0;
    for seed in 0..SCRIPTS {
        let mut rng = Rng::new(seed);
        let mut h = SimHarness::new(seed);
        let mut presenter = ModelBoard::new(h.add_session(session(BOARD, 1)), false);
        let mut viewers: Vec<ModelBoard> = [BOARD, BOARD, UNLIKE_BOARD]
            .iter()
            .zip(2..)
            .map(|(spec, user)| {
                ModelBoard::new(h.add_session(session(spec, user)), *spec == UNLIKE_BOARD)
            })
            .collect();
        let mut bystander = ModelBoard::new(h.add_session(session(BOARD, 5)), false);
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
        let set_text = |h: &mut SimHarness, node, field: usize, text: &str| {
            let tree = h.session_mut(node).toolkit_mut().tree_mut();
            let id = tree.resolve(&path(&format!("board.f{field}"))).unwrap();
            tree.set_attr(id, AttrName::Text, Value::Text(text.into())).unwrap();
        };

        // What the server's four counters must read, from the model.
        let (mut acks_by_reference, mut legs_refused) = (0, 0);
        let (mut pushes_by_delta, mut pushes_pulled) = (0, 0);
        for n in 0..STEPS {
            let fresh = format!("s{seed}n{n}");
            let step = match rng.range(0..100) {
                0..=29 => Step::Copy { mode: MODES[rng.range(0..3)], shed: false },
                30..=35 => Step::Copy { mode: MODES[rng.range(0..3)], shed: true },
                36..=47 => Step::Undo(rng.range(0..2)),
                48..=55 => Step::Redo(rng.range(0..2)),
                56..=69 => Step::LocalEdit(rng.range(0..3), rng.range(0..3)),
                70..=79 => Step::CoupledEvent(rng.range(0..3), 2 * rng.range(0..2)),
                80..=88 => Step::PushBack(rng.range(0..2), MODES[rng.range(0..3)]),
                89..=94 => Step::BystanderPull(MODES[rng.range(0..3)]),
                _ => Step::Reconnect,
            };
            let ctx = format!("seed {seed}, step {n} ({step:?})");

            // The step, on the model; `applied` is what each board that
            // was sent a state overwrote, `pushed` who pushed and how.
            let mut applied: Vec<(NodeId, bool, Filed)> = Vec::new();
            let mut pushed: Option<(NodeId, (bool, Pushed))> = None;
            let mut apply = |board: &mut ModelBoard, sent: &BoardState| {
                let (overwritten, filed) = board.apply(sent);
                applied.push((board.node, board.unlike, filed));
                (overwritten, filed)
            };
            match step {
                Step::Copy { mode, shed } => {
                    for field in 0..3 {
                        if rng.range(0..3) == 0 {
                            presenter.held.fields[field] = format!("{fresh}f{field}");
                            set_text(&mut h, presenter.node, field, &presenter.held.fields[field]);
                        }
                    }
                    if rng.range(0..4) == 0 {
                        presenter.held.title = fresh.clone();
                        let tree = h.session_mut(presenter.node).toolkit_mut().tree_mut();
                        let id = tree.resolve(&path("board")).unwrap();
                        tree.set_attr(id, AttrName::Title, Value::Text(fresh.clone())).unwrap();
                    }
                    if shed {
                        // One byte a window: whatever arrives is shed.
                        h.server.set_overload(OverloadConfig {
                            window_us: 1,
                            max_window_bytes: 1,
                            ..OverloadConfig::default()
                        });
                    }
                    let dst = board_of(&h, viewers[0].node);
                    h.session_mut(presenter.node).copy_to(&path("board"), dst, mode).unwrap();
                    pushed = Some((presenter.node, presenter.push(shed)));
                    if !shed {
                        for v in &mut viewers {
                            let overwritten = apply(v, &presenter.held);
                            v.undo.push(overwritten);
                            v.redo.clear();
                        }
                    }
                }
                Step::Undo(k) | Step::Redo(k) => {
                    let object = board_of(&h, viewers[k].node);
                    let undo = matches!(step, Step::Undo(_));
                    let popped = if undo {
                        h.session_mut(presenter.node).undo(object);
                        viewers[k].undo.pop()
                    } else {
                        h.session_mut(presenter.node).redo(object);
                        viewers[k].redo.pop()
                    };
                    if let Some((restored, filed)) = popped {
                        seen[filed as usize].1 += 1;
                        for v in &mut viewers {
                            let overwritten = apply(v, &restored);
                            if undo { &mut v.redo } else { &mut v.undo }.push(overwritten);
                        }
                    }
                }
                Step::LocalEdit(i, field) => {
                    // Now and then back to what the base says: the board
                    // then holds the base again, and may say so.
                    let text = match &viewers[i].session_base {
                        Some(base) if rng.range(0..3) == 0 => base.fields[field].clone(),
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
                Step::PushBack(k, mode) => {
                    let dst = board_of(&h, presenter.node);
                    h.session_mut(viewers[k].node).copy_to(&path("board"), dst, mode).unwrap();
                    pushed = Some((viewers[k].node, viewers[k].push(false)));
                    apply(&mut presenter, &viewers[k].held);
                }
                Step::BystanderPull(mode) => {
                    let src = board_of(&h, presenter.node);
                    h.session_mut(bystander.node).copy_from(src, &path("board"), mode).unwrap();
                    presenter.session_base = Some(presenter.held.clone());
                    presenter.server_base = Some(presenter.held.clone());
                    apply(&mut bystander, &presenter.held);
                }
                Step::Reconnect => {
                    h.disconnect(presenter.node);
                    h.reconnect(presenter.node);
                    presenter.server_base = None;
                }
            }

            // The same step, for real.
            let log = settle_logged(&mut h);
            h.server.set_overload(OverloadConfig::default());
            for board in viewers.iter().chain([&presenter, &bystander]) {
                let tree = h.session(board.node).toolkit().tree();
                let shown = tree.snapshot(tree.resolve(&path("board")).unwrap(), true).unwrap();
                assert_eq!(shown, board.held.snapshot(board.unlike), "{ctx}: {:?}", board.node);
            }
            let sent_by = |node: NodeId, kind: &str| {
                log.iter().filter(|(from, m)| (*from, m.kind_name()) == (Some(node), kind)).count()
            };
            if let Some((node, (as_delta, how))) = pushed {
                assert_eq!(
                    (sent_by(node, "copy-to"), sent_by(node, "copy-delta")),
                    (usize::from(!as_delta), usize::from(as_delta)),
                    "{ctx}: pushed {how:?}"
                );
                assert_eq!(
                    sent_by(node, "state-reply"),
                    usize::from(how == Pushed::Pulled),
                    "{ctx}"
                );
                pushes[how as usize] += 1;
                pushes_by_delta += u64::from(how == Pushed::ByDelta);
                pushes_pulled += u64::from(how == Pushed::Pulled);
            }
            let mut by_reference: Vec<NodeId> = log
                .iter()
                .filter_map(|(from, m)| match m {
                    Message::StateApplied { overwritten: Some(Overwritten::Base), .. } => *from,
                    _ => None,
                })
                .collect();
            by_reference.sort();
            let mut named: Vec<NodeId> = applied
                .iter()
                .filter(|(_, _, filed)| *filed == Filed::ByReference)
                .map(|(node, ..)| *node)
                .collect();
            named.sort();
            assert_eq!(by_reference, named, "{ctx}: who acknowledged by reference");
            for (_, unlike, filed) in &applied {
                seen[*filed as usize].0 += 1;
                unlike_delta_legs += u64::from(*unlike && *filed == Filed::InFull);
                acks_by_reference += u64::from(*filed == Filed::ByReference);
                legs_refused += u64::from(*filed == Filed::AfterRefusal);
            }
            let stats = h.server.stats();
            assert_eq!(
                (
                    stats.acks_by_reference,
                    stats.delta_fallbacks,
                    stats.pushes_by_delta,
                    stats.push_fallbacks
                ),
                (acks_by_reference, legs_refused, pushes_by_delta, pushes_pulled),
                "{ctx}"
            );
            h.server.check_invariants().unwrap_or_else(|e| panic!("{ctx}: {e}"));
        }
    }
    // Every path ran, and every kind of entry was restored from.
    let [first_contact, in_full, by_reference, after_refusal] = seen;
    assert!(first_contact.0 >= 3 * SCRIPTS / 2, "first-contact legs: {first_contact:?}");
    assert!(in_full.0 > unlike_delta_legs && in_full.1 > 100, "diverged like viewers: {in_full:?}");
    assert!(unlike_delta_legs > 1_000, "delta legs to the unlike viewer: {unlike_delta_legs}");
    assert!(by_reference.0 > 1_000 && by_reference.1 > 100, "by reference: {by_reference:?}");
    assert!(after_refusal.0 > 20, "refused delta legs: {after_refusal:?}");
    let [in_full, by_delta, pulled, shed] = pushes;
    assert!(in_full > 150 && by_delta > 1_000, "pushes: {pushes:?}");
    assert!(pulled > 200 && shed > 200, "pushes: {pushes:?}");
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
    assert!(h.server.shard(0).couples().is_empty(), "the server dropped the link");
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
    assert!(h.server.shard(0).couples().is_empty());
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

/// A seed names one run: two runs of it in one process deliver the same
/// messages, byte for byte, at the same times, between the same nodes,
/// at 1 and at 3 shards. Under jitter, four coupled sessions race for
/// the floor every round, so rounds are granted and rejected and each
/// granted round unlocks the group. Between rounds one member copies to
/// an uncoupled viewer, which undoes it; one member is reset and rejoins
/// within its grace; the group's component migrates to another shard;
/// and one member crashes. Every `HashMap` in a process has its own
/// random keys, so an order that reaches the wire from one shows here
/// as two logs that differ.
#[test]
fn deterministic_replay_same_seed_same_bytes() {
    type Log = Vec<(u64, NodeId, NodeId, Vec<u8>)>;
    fn pump(h: &mut SimHarness, log: &mut Log) {
        h.flush();
        while let Some(d) = h.step() {
            log.push((d.at_us, d.src, d.dst, codec::encode_message(&d.msg)));
        }
    }
    fn race(h: &mut SimHarness, log: &mut Log, nodes: &[NodeId], round: usize) {
        for (i, node) in nodes.iter().enumerate() {
            type_text(h, *node, "f.t", &format!("r{round}-{i}"));
        }
        pump(h, log);
    }
    fn run(seed: u64, shards: usize) -> Log {
        let mut h = SimHarness::new(seed);
        let liveness = LivenessConfig { grace_us: 60_000_000, ..LivenessConfig::default() };
        h.server = ShardRouter::with_liveness(shards, liveness);
        h.net.set_latency(1_500, 1_000);
        let mut log = Log::new();
        let nodes: Vec<NodeId> = (1..=4).map(|u| h.add_session(session(FIELD_FORM, u))).collect();
        let viewer = h.add_session(session(FIELD_FORM, 5));
        pump(&mut h, &mut log);
        for pair in nodes.windows(2) {
            let dst = h.session(pair[1]).gid(&path("f.t")).unwrap();
            h.session_mut(pair[0]).couple(&path("f.t"), dst).unwrap();
            pump(&mut h, &mut log);
        }
        race(&mut h, &mut log, &nodes, 0);

        let board = h.session(viewer).gid(&path("f.t")).unwrap();
        h.session_mut(nodes[0]).copy_to(&path("f.t"), board.clone(), CopyMode::Strict).unwrap();
        race(&mut h, &mut log, &nodes, 1);
        h.session_mut(viewer).undo(board);
        race(&mut h, &mut log, &nodes, 2);

        h.disconnect(nodes[1]);
        race(&mut h, &mut log, &[nodes[0], nodes[2], nodes[3]], 3);
        h.reconnect(nodes[1]);
        race(&mut h, &mut log, &nodes, 4);

        let seed_instance = h.instance_of(nodes[0]).unwrap();
        let home = h.server.shard_of_instance(seed_instance).unwrap();
        let settle = h.server.migrate(seed_instance, (home + 1) % shards);
        for (dst, msg) in settle.into_messages() {
            h.net.send(cosoft_core::SERVER_NODE, dst, msg);
        }
        race(&mut h, &mut log, &nodes, 5);

        h.crash(nodes[3]);
        race(&mut h, &mut log, &nodes[..3], 6);

        let stats = h.server.stats();
        assert!(stats.events_granted >= 7 && stats.lock_conflicts > 0, "{stats:?}");
        assert_eq!(stats.resumes, 1, "{stats:?}");
        let handoffs = h.server.router_stats().handoffs_completed;
        assert_eq!(handoffs > 0, shards > 1, "seed {seed} at {shards} shards");
        log
    }
    forall(
        0..32,
        |r| r.next_u64(),
        |seed| {
            for shards in [1, 3] {
                assert!(run(seed, shards) == run(seed, shards), "seed {seed} at {shards} shards");
            }
        },
    );
}

/// An `Event` names no instance: the server takes its object from the
/// sender's connection. A third instance that writes a raw `Event` for
/// the path a coupled pair uses executes it on its own object alone;
/// neither member of the pair re-executes it, and the pair stays equal.
#[test]
fn a_raw_event_executes_only_on_its_senders_object() {
    let mut h = SimHarness::with_latency(3, 1_000);
    let a = h.add_session(session(FIELD_FORM, 1));
    let b = h.add_session(session(FIELD_FORM, 2));
    let c = h.add_session(session(FIELD_FORM, 3));
    h.settle();
    let gc = h.session(c).gid(&path("f.t")).unwrap();
    h.session_mut(a).couple(&path("f.t"), gc).unwrap();
    h.settle();
    type_text(&mut h, a, "f.t", "shared");
    h.settle();
    let granted = h.server.stats().events_granted;

    let forged =
        UiEvent::new(path("f.t"), EventKind::TextCommitted, vec![Value::Text("forged".into())]);
    h.net.send(b, cosoft_core::SERVER_NODE, Message::Event { event: forged, seq: 99 });
    let mut to_b = Vec::new();
    while let Some(d) = h.step() {
        assert!(d.dst == b || d.dst == cosoft_core::SERVER_NODE, "{d:?} reached the pair");
        if let Message::EventGranted { exec_id, .. } = d.msg {
            h.net.send(b, cosoft_core::SERVER_NODE, Message::ExecuteDone { exec_id });
        }
        if d.dst == b {
            to_b.push(d.msg.kind_name());
        }
    }
    assert_eq!(to_b, ["event-granted", "group-unlocked"]);
    assert_eq!(h.server.stats().events_granted, granted + 1, "granted on b's object alone");
    assert_eq!(h.server.stats().held_locks, 0);
    assert_eq!(text_of(&h, a, "f.t"), "shared");
    assert_eq!(text_of(&h, c, "f.t"), "shared");
    assert_eq!(h.session(c).remote_executions(), 1);
}
