//! Session edge-path tests: pre-registration errors, event queries,
//! outbox/event draining semantics, and misdirected server messages.

use cosoft_core::harness::SimHarness;
use cosoft_core::session::{Session, SessionError, SessionEvent};
use cosoft_uikit::{spec, Toolkit};
use cosoft_wire::{
    AccessRight, CopyMode, EventKind, GlobalObjectId, InstanceId, Message, ObjectPath, Overwritten,
    UiEvent, UserId,
};

const FORM: &str = r#"form f { textfield t text="" }"#;

fn path(p: &str) -> ObjectPath {
    ObjectPath::parse(p).expect("valid")
}

fn fresh() -> Session {
    Session::new(
        Toolkit::from_tree(spec::build_tree(FORM).expect("static")),
        UserId(1),
        "h",
        "unit",
    )
}

#[test]
fn new_session_queues_registration() {
    let mut s = fresh();
    let out = s.drain_outbox();
    assert_eq!(out.len(), 1);
    assert!(matches!(out[0], Message::Register { .. }));
    assert!(s.drain_outbox().is_empty(), "drained");
    assert!(s.instance().is_none());
}

#[test]
fn operations_before_welcome_fail_cleanly() {
    let mut s = fresh();
    let remote = GlobalObjectId::new(InstanceId(9), path("x"));
    assert_eq!(s.gid(&path("f.t")).unwrap_err(), SessionError::NotRegistered);
    assert_eq!(s.couple(&path("f.t"), remote.clone()).unwrap_err(), SessionError::NotRegistered);
    assert_eq!(
        s.copy_from(remote.clone(), &path("f.t"), CopyMode::Strict).unwrap_err(),
        SessionError::NotRegistered
    );
    assert_eq!(
        s.copy_to(&path("f.t"), remote.clone(), CopyMode::Strict).unwrap_err(),
        SessionError::NotRegistered
    );
    assert_eq!(
        s.set_permission(UserId(2), &path("f.t"), AccessRight::Read).unwrap_err(),
        SessionError::NotRegistered
    );
}

#[test]
fn welcome_sets_instance_and_emits_event() {
    let mut s = fresh();
    s.on_message(Message::Welcome { instance: InstanceId(5) });
    assert_eq!(s.instance(), Some(InstanceId(5)));
    let events = s.take_events();
    assert!(matches!(events[0], SessionEvent::Registered(InstanceId(5))));
    assert!(s.take_events().is_empty(), "events drained");
}

#[test]
fn uncoupled_event_on_unknown_widget_errors() {
    let mut s = fresh();
    s.on_message(Message::Welcome { instance: InstanceId(1) });
    let err = s.user_event(UiEvent::simple(path("f.missing"), EventKind::Activate)).unwrap_err();
    assert!(matches!(err, SessionError::Ui(cosoft_uikit::UiError::UnknownPath { .. })));
}

#[test]
fn copy_to_missing_source_errors() {
    let mut s = fresh();
    s.on_message(Message::Welcome { instance: InstanceId(1) });
    let remote = GlobalObjectId::new(InstanceId(2), path("x"));
    let err = s.copy_to(&path("f.missing"), remote, CopyMode::Strict).unwrap_err();
    assert!(matches!(err, SessionError::Ui(cosoft_uikit::UiError::UnknownPath { .. })));
}

#[test]
fn state_request_for_missing_object_replies_none() {
    let mut s = fresh();
    s.on_message(Message::Welcome { instance: InstanceId(1) });
    s.drain_outbox();
    s.on_message(Message::StateRequest { req_id: 7, path: path("f.gone") });
    let out = s.drain_outbox();
    assert_eq!(out.len(), 1);
    assert!(matches!(out[0], Message::StateReply { req_id: 7, snapshot: None }));
}

#[test]
fn apply_state_to_missing_object_reports_error() {
    let mut s = fresh();
    s.on_message(Message::Welcome { instance: InstanceId(1) });
    s.drain_outbox();
    let snapshot = cosoft_wire::StateNode::new(cosoft_wire::WidgetKind::Label, "x");
    s.on_message(Message::ApplyState {
        req_id: 9,
        path: path("f.gone"),
        snapshot,
        mode: CopyMode::Strict,
    });
    let out = s.drain_outbox();
    assert_eq!(out.len(), 1);
    match &out[0] {
        Message::StateApplied { req_id: 9, overwritten: None, error: Some(_) } => {}
        other => panic!("expected failed StateApplied, got {other:?}"),
    }
}

#[test]
fn strict_apply_that_fails_compatibility_changes_nothing() {
    use cosoft_wire::{AttrName, StateNode, Value, WidgetKind};
    let mut s = fresh();
    s.on_message(Message::Welcome { instance: InstanceId(1) });
    s.drain_outbox();
    let before = {
        let tree = s.toolkit().tree();
        tree.snapshot(tree.resolve(&path("f")).unwrap(), false).unwrap()
    };
    let field = StateNode::new(WidgetKind::TextField, "t")
        .with_attr(AttrName::Text, Value::Text("copied".into()));
    let fits = StateNode::new(WidgetKind::Form, "f").with_child(field);

    // One component too many: not s-compatible, so the strict apply is
    // refused before anything is written and reports no overwritten state.
    let too_wide = fits.clone().with_child(StateNode::new(WidgetKind::Slider, "s"));
    s.on_message(Message::ApplyState {
        req_id: 4,
        path: path("f"),
        snapshot: too_wide,
        mode: CopyMode::Strict,
    });
    match &s.drain_outbox()[..] {
        [Message::StateApplied { req_id: 4, overwritten: None, error: Some(e) }] => {
            assert!(e.contains("not structurally compatible"), "{e}");
        }
        other => panic!("expected refused StateApplied, got {other:?}"),
    }
    let tree = s.toolkit().tree();
    assert_eq!(tree.snapshot(tree.resolve(&path("f")).unwrap(), false).unwrap(), before);

    // The compatible one applies, and what it reports as overwritten is
    // what it wrote, as it was before: the text field's old text and no
    // attribute the snapshot did not carry.
    s.on_message(Message::ApplyState {
        req_id: 5,
        path: path("f"),
        snapshot: fits,
        mode: CopyMode::Strict,
    });
    match &s.drain_outbox()[..] {
        [Message::StateApplied {
            req_id: 5,
            overwritten: Some(Overwritten::State(prev)),
            error: None,
        }] => {
            let old_text = StateNode::new(WidgetKind::TextField, "t")
                .with_attr(AttrName::Text, Value::Text(String::new()));
            assert_eq!(
                prev.decode().unwrap(),
                StateNode::new(WidgetKind::Form, "f").with_child(old_text)
            );
        }
        other => panic!("expected successful StateApplied, got {other:?}"),
    }
    let tree = s.toolkit().tree();
    let t = tree.resolve(&path("f.t")).unwrap();
    assert_eq!(tree.attr(t, &AttrName::Text).unwrap(), &Value::Text("copied".into()));
}

#[test]
fn execute_event_for_missing_target_still_reports_done() {
    // The group must never stall because one replica lost the widget.
    let mut s = fresh();
    s.on_message(Message::Welcome { instance: InstanceId(1) });
    s.drain_outbox();
    s.on_message(Message::ExecuteEvent {
        exec_id: 4,
        target: path("f.gone"),
        event: UiEvent::simple(path("f.gone"), EventKind::Activate),
    });
    let out = s.drain_outbox();
    assert!(out.iter().any(|m| matches!(m, Message::ExecuteDone { exec_id: 4 })));
    assert_eq!(s.remote_executions(), 0);
}

#[test]
fn spurious_server_messages_are_ignored() {
    let mut s = fresh();
    s.on_message(Message::Welcome { instance: InstanceId(1) });
    s.drain_outbox();
    s.take_events(); // drop the Registered notification
                     // Replies for unknown seq/exec ids must be no-ops.
    s.on_message(Message::EventGranted { seq: 99, exec_id: 5 });
    s.on_message(Message::EventRejected { seq: 98 });
    s.on_message(Message::GroupUnlocked { exec_id: 1, objects: vec![path("f.gone")] });
    // Client-originated kinds arriving at a client are ignored.
    s.on_message(Message::Deregister);
    assert!(s.drain_outbox().is_empty());
    assert!(s.take_events().is_empty());
}

#[test]
fn list_coupled_surfaces_as_event() {
    let mut h = SimHarness::new(9);
    let a = h.add_session(fresh());
    let b = h.add_session(Session::new(
        Toolkit::from_tree(spec::build_tree(FORM).expect("static")),
        UserId(2),
        "h2",
        "unit",
    ));
    h.settle();
    let gb = h.session(b).gid(&path("f.t")).expect("registered");
    h.session_mut(a).couple(&path("f.t"), gb.clone()).expect("registered");
    h.settle();
    let ga = h.session(a).gid(&path("f.t")).expect("registered");
    h.session_mut(a).list_coupled(ga);
    h.settle();
    let sets: Vec<_> = h
        .session_mut(a)
        .take_events()
        .into_iter()
        .filter_map(|e| match e {
            SessionEvent::CoupledSet { coupled, .. } => Some(coupled),
            _ => None,
        })
        .collect();
    assert_eq!(sets.len(), 1);
    assert_eq!(sets[0], vec![gb]);
}

#[test]
fn leave_queues_deregister() {
    let mut s = fresh();
    s.on_message(Message::Welcome { instance: InstanceId(1) });
    s.drain_outbox();
    s.leave();
    let out = s.drain_outbox();
    assert!(matches!(out[0], Message::Deregister));
}

// ---- delta transfers -------------------------------------------------------

fn textfield(text: &str) -> cosoft_wire::StateNode {
    cosoft_wire::StateNode::new(cosoft_wire::WidgetKind::TextField, "t")
        .with_attr(cosoft_wire::AttrName::Text, cosoft_wire::Value::Text(text.into()))
}

/// A snapshot transfer primes the delta base; a subsequent `ApplyDelta`
/// against it reconstructs and applies the new state. What that apply
/// overwrote is the base itself, which the server holds: the reply names
/// it. Once the user has changed the field, what the next apply overwrites
/// is no longer the base, and the reply carries it.
#[test]
fn apply_delta_reconstructs_against_cached_base() {
    let mut s = fresh();
    s.on_message(Message::Welcome { instance: InstanceId(1) });
    s.drain_outbox();

    let (v1, v2, v3) = (textfield("v1"), textfield("v2"), textfield("v3"));
    s.on_message(Message::ApplyState {
        req_id: 1,
        path: path("f.t"),
        snapshot: v1.clone(),
        mode: CopyMode::Strict,
    });
    let out = s.drain_outbox();
    assert!(
        matches!(
            &out[0],
            Message::StateApplied { overwritten: Some(Overwritten::State(_)), error: None, .. }
        ),
        "a first-contact leg has no base to refer to: {out:?}"
    );

    let delta_leg = |s: &mut Session, req_id: u64, base: &cosoft_wire::StateNode, new| {
        s.on_message(Message::ApplyDelta {
            req_id,
            path: path("f.t"),
            base_version: cosoft_wire::delta::state_version(base),
            new_version: cosoft_wire::delta::state_version(new),
            delta: cosoft_wire::delta::diff(base, new),
            mode: CopyMode::Strict,
        });
        match s.drain_outbox().remove(0) {
            Message::StateApplied { req_id: r, overwritten: Some(prev), error: None }
                if r == req_id =>
            {
                prev
            }
            other => panic!("expected successful StateApplied, got {other:?}"),
        }
    };
    let text = |s: &Session| {
        let tree = s.toolkit().tree();
        let id = tree.resolve(&path("f.t")).unwrap();
        tree.attr(id, &cosoft_wire::AttrName::Text).unwrap().as_text().unwrap().to_owned()
    };

    assert_eq!(delta_leg(&mut s, 2, &v1, &v2), Overwritten::Base);
    assert_eq!(text(&s), "v2");

    let tree = s.toolkit_mut().tree_mut();
    let id = tree.resolve(&path("f.t")).unwrap();
    tree.set_attr(id, cosoft_wire::AttrName::Text, cosoft_wire::Value::Text("mine".into()))
        .unwrap();
    assert_eq!(delta_leg(&mut s, 3, &v2, &v3), Overwritten::State(textfield("mine").into()));
    assert_eq!(text(&s), "v3");
}

/// A delta against a missing or stale base must be rejected with an error
/// reply (the server's cue to fall back to a full snapshot), leaving the
/// widget untouched.
#[test]
fn apply_delta_without_matching_base_is_rejected() {
    let mut s = fresh();
    s.on_message(Message::Welcome { instance: InstanceId(1) });
    s.drain_outbox();

    let v1 = textfield("v1");
    let v2 = textfield("v2");

    // No base cached at all.
    s.on_message(Message::ApplyDelta {
        req_id: 3,
        path: path("f.t"),
        base_version: cosoft_wire::delta::state_version(&v1),
        new_version: cosoft_wire::delta::state_version(&v2),
        delta: cosoft_wire::delta::diff(&v1, &v2),
        mode: CopyMode::Strict,
    });
    let out = s.drain_outbox();
    match &out[0] {
        Message::StateApplied { req_id: 3, overwritten: None, error: Some(e) } => {
            assert!(e.contains("base"), "error names the base mismatch: {e}");
        }
        other => panic!("expected rejected StateApplied, got {other:?}"),
    }

    // Prime with v1, then claim a delta against a *different* base version.
    s.on_message(Message::ApplyState {
        req_id: 4,
        path: path("f.t"),
        snapshot: v1.clone(),
        mode: CopyMode::Strict,
    });
    s.drain_outbox();
    s.on_message(Message::ApplyDelta {
        req_id: 5,
        path: path("f.t"),
        base_version: cosoft_wire::delta::state_version(&v2),
        new_version: cosoft_wire::delta::state_version(&v1),
        delta: cosoft_wire::delta::diff(&v2, &v1),
        mode: CopyMode::Strict,
    });
    let out = s.drain_outbox();
    assert!(
        matches!(&out[0], Message::StateApplied { req_id: 5, overwritten: None, error: Some(_) }),
        "stale base must be rejected, got {out:?}"
    );
    // The widget keeps the v1 text from the priming snapshot.
    let tree = s.toolkit().tree();
    let id = tree.resolve(&path("f.t")).unwrap();
    let snap = tree.snapshot(id, false).unwrap();
    assert_eq!(snap.attrs.get(&cosoft_wire::AttrName::Text).unwrap().as_text(), Some("v1"));
}

/// A delta that does not fit the cached base — or reconstructs a state
/// of another version — is refused in today's words with the widget
/// untouched, and costs the session that base: the edits ran on it in
/// place. The `ApplyState` the server falls back to seeds a new one, and
/// delta legs work again.
#[test]
fn diverged_delta_base_is_dropped_and_reseeded_by_the_fallback_snapshot() {
    use cosoft_wire::delta::{self, EditOp, NodeEdit, NodePatch, StateDelta};
    let mut s = fresh();
    s.on_message(Message::Welcome { instance: InstanceId(1) });
    s.drain_outbox();
    let (v1, v2, v3) = (textfield("v1"), textfield("v2"), textfield("v3"));
    let prime = |s: &mut Session, req_id: u64, snapshot: &cosoft_wire::StateNode| {
        s.on_message(Message::ApplyState {
            req_id,
            path: path("f.t"),
            snapshot: snapshot.clone(),
            mode: CopyMode::Strict,
        });
        let out = s.drain_outbox();
        assert!(matches!(&out[0], Message::StateApplied { error: None, .. }), "prime: {out:?}");
    };
    let delta_leg = |s: &mut Session, req_id: u64, base: u64, new: u64, delta: StateDelta| {
        s.on_message(Message::ApplyDelta {
            req_id,
            path: path("f.t"),
            base_version: base,
            new_version: new,
            delta,
            mode: CopyMode::Strict,
        });
        match s.drain_outbox().remove(0) {
            Message::StateApplied { req_id: r, overwritten, error } if r == req_id => {
                assert_eq!(overwritten.is_none(), error.is_some());
                error
            }
            other => panic!("expected StateApplied, got {other:?}"),
        }
    };
    let text = |s: &Session| {
        let tree = s.toolkit().tree();
        let id = tree.resolve(&path("f.t")).unwrap();
        tree.attr(id, &cosoft_wire::AttrName::Text).unwrap().as_text().unwrap().to_owned()
    };
    let (ver1, ver2, ver3) =
        (delta::state_version(&v1), delta::state_version(&v2), delta::state_version(&v3));

    // An edit addressed at a child the base does not have.
    prime(&mut s, 1, &v1);
    let misfit = StateDelta {
        edits: vec![NodeEdit {
            path: vec!["gone".into()],
            op: EditOp::Patch(NodePatch::default()),
        }],
    };
    assert_eq!(
        delta_leg(&mut s, 2, ver1, ver2, misfit).as_deref(),
        Some("delta base diverged: delta path 'gone' does not resolve in the base tree")
    );
    assert_eq!(text(&s), "v1");
    // The base went with the failed leg: a well-formed delta against v1
    // finds none (the server forgot its copy on the error reply too).
    assert_eq!(
        delta_leg(&mut s, 3, ver1, ver2, delta::diff(&v1, &v2)).as_deref(),
        Some("delta base version mismatch: no base cached")
    );

    // Edits that fit but rebuild something other than what was promised.
    prime(&mut s, 4, &v1);
    assert_eq!(
        delta_leg(&mut s, 5, ver1, ver3, delta::diff(&v1, &v2)).as_deref(),
        Some("delta base diverged: reconstructed state version mismatch")
    );
    // A base of another version than the server assumed.
    prime(&mut s, 6, &v1);
    assert_eq!(
        delta_leg(&mut s, 7, ver2, ver3, delta::diff(&v2, &v3)),
        Some(format!("delta base version mismatch: have {ver1}, server assumed {ver2}"))
    );
    assert_eq!(text(&s), "v1");

    // The fallback snapshot re-seeds the base; deltas ride on it again,
    // each on the state the one before left.
    prime(&mut s, 8, &v2);
    assert_eq!(delta_leg(&mut s, 9, ver2, ver3, delta::diff(&v2, &v3)), None);
    assert_eq!(text(&s), "v3");
    assert_eq!(delta_leg(&mut s, 10, ver3, ver1, delta::diff(&v3, &v1)), None);
    assert_eq!(text(&s), "v1");
}

/// The one rule of `copy_to`, message by message: a `CopyDelta` exactly
/// when the session holds a base for the source, diffed against that
/// base — and the base is whatever state of the object crossed the
/// connection last, in either direction: the push before, the answer to
/// a `StateRequest`, a leg applied.
#[test]
fn copy_to_sends_the_edits_since_the_last_state_that_crossed() {
    use cosoft_wire::delta;
    let mut s = fresh();
    s.on_message(Message::Welcome { instance: InstanceId(1) });
    s.drain_outbox();
    let remote = GlobalObjectId::new(InstanceId(2), path("f.t"));
    let set_text = |s: &mut Session, text: &str| {
        let tree = s.toolkit_mut().tree_mut();
        let id = tree.resolve(&path("f.t")).unwrap();
        tree.set_attr(id, cosoft_wire::AttrName::Text, cosoft_wire::Value::Text(text.into()))
            .unwrap();
    };
    // Pushes the field, which must leave as the edits `base` → `now`.
    let push_delta = |s: &mut Session, base: &cosoft_wire::StateNode, now: &str| {
        set_text(s, now);
        let req = s.copy_to(&path("f.t"), remote.clone(), CopyMode::Strict).unwrap();
        match s.drain_outbox().remove(0) {
            Message::CopyDelta { src, base_version, new_version, delta: d, req_id, .. } => {
                assert_eq!((src, req_id), (s.gid(&path("f.t")).unwrap(), req));
                assert_eq!(base_version, delta::state_version(base));
                assert_eq!(new_version, delta::state_version(&textfield(now)));
                assert_eq!(delta::apply(base, &d).unwrap(), textfield(now));
            }
            other => panic!("expected a CopyDelta against {base:?}, got {other:?}"),
        }
    };

    // No base: in full.
    set_text(&mut s, "v1");
    s.copy_to(&path("f.t"), remote.clone(), CopyMode::Strict).unwrap();
    match s.drain_outbox().remove(0) {
        Message::CopyTo { snapshot, .. } => assert_eq!(snapshot, textfield("v1")),
        other => panic!("expected a CopyTo, got {other:?}"),
    }
    // Against the push before — an unchanged field is an empty delta.
    push_delta(&mut s, &textfield("v1"), "v2");
    push_delta(&mut s, &textfield("v2"), "v2");

    // Against the answer to a `StateRequest`, which travels in full.
    set_text(&mut s, "v3");
    s.on_message(Message::StateRequest { req_id: 7, path: path("f.t") });
    match s.drain_outbox().remove(0) {
        Message::StateReply { req_id: 7, snapshot } => assert_eq!(snapshot, Some(textfield("v3"))),
        other => panic!("expected a StateReply, got {other:?}"),
    }
    push_delta(&mut s, &textfield("v3"), "v4");

    // Against a leg applied here, as transmitted.
    s.on_message(Message::ApplyState {
        req_id: 8,
        path: path("f.t"),
        snapshot: textfield("theirs"),
        mode: CopyMode::Strict,
    });
    s.drain_outbox();
    push_delta(&mut s, &textfield("theirs"), "v5");

    // A refused delta leg costs the base; the next push is in full again.
    s.on_message(Message::ApplyDelta {
        req_id: 9,
        path: path("f.t"),
        base_version: 0,
        new_version: 0,
        delta: delta::StateDelta::default(),
        mode: CopyMode::Strict,
    });
    s.drain_outbox();
    s.copy_to(&path("f.t"), remote.clone(), CopyMode::Strict).unwrap();
    assert!(matches!(s.drain_outbox().remove(0), Message::CopyTo { .. }));
}
