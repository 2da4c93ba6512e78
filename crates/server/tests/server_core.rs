//! State-machine tests of `ServerCore` driven directly (no transport):
//! each test feeds messages in and asserts on the outgoing message sets,
//! exercising the protocol flows of §3.1–§3.4.
//!
//! Three gates live here, asserted on `Outgoing` and `ServerStats` with
//! no wall clock. *The delta wire-size gate:* at depth 6 a
//! single-attribute delta, the undo of it and the copy after the undo are
//! each ≤ 25 % of the snapshot frame, the first a smaller share than at
//! depth 2; each is acknowledged by reference in ≤ 12 B at either depth,
//! and four viewers' by-reference history entries are one buffer. *Its
//! push half:* at depth 6 the second push of an object is a `CopyDelta`
//! ≤ 25 % of the `CopyTo` frame, a smaller share than at depth 2, and
//! delivers what the `CopyTo` would have; one the server cannot rebuild
//! costs its sender a `StateRequest` and nothing else. *The replies that
//! must change nothing:* a failed apply's, a reference to no base, and
//! anybody's but the instance that was asked. `churn_leaves_nothing_behind`
//! (320 seeded scripts on a 2-shard router) is the teardown gate.

use cosoft_rng::Rng;
use cosoft_server::{LivenessConfig, Outgoing, ServerCore, ShardRouter};
use cosoft_wire::{
    codec, delta, AccessRight, AttrName, CopyMode, EventKind, GlobalObjectId, InstanceId, Message,
    ObjectPath, Overwritten, StateDelta, StateNode, Target, UiEvent, UserId, Value, WidgetKind,
};

type Endpoint = u64;

fn register(server: &mut ServerCore<Endpoint>, endpoint: Endpoint, user: u64) -> InstanceId {
    let out = server
        .handle(
            endpoint,
            Message::Register {
                user: UserId(user),
                host: format!("ws{endpoint}"),
                app_name: "app".into(),
            },
        )
        .into_messages();
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].0, endpoint);
    match &out[0].1 {
        Message::Welcome { instance } => *instance,
        other => panic!("expected Welcome, got {other:?}"),
    }
}

fn gid(i: InstanceId, p: &str) -> GlobalObjectId {
    GlobalObjectId::new(i, ObjectPath::parse(p).unwrap())
}

fn find<'a>(out: &'a [(Endpoint, Message)], endpoint: Endpoint, kind: &str) -> &'a Message {
    out.iter()
        .find(|(e, m)| *e == endpoint && m.kind_name() == kind)
        .map(|(_, m)| m)
        .unwrap_or_else(|| panic!("no {kind} sent to endpoint {endpoint}; got {out:?}"))
}

fn count_kind(out: &[(Endpoint, Message)], kind: &str) -> usize {
    out.iter().filter(|(_, m)| m.kind_name() == kind).count()
}

#[test]
fn register_assigns_distinct_instances() {
    let mut s: ServerCore<Endpoint> = ServerCore::new();
    let a = register(&mut s, 10, 1);
    let b = register(&mut s, 11, 2);
    assert_ne!(a, b);

    let out = s.handle(10, Message::QueryInstances).into_messages();
    match find(&out, 10, "instance-list") {
        Message::InstanceList { entries } => assert_eq!(entries.len(), 2),
        _ => unreachable!(),
    }
}

#[test]
fn unregistered_endpoint_is_rejected() {
    let mut s: ServerCore<Endpoint> = ServerCore::new();
    let out = s.handle(99, Message::QueryInstances).into_messages();
    assert_eq!(out.len(), 1);
    assert!(matches!(out[0].1, Message::ErrorReply { .. }));
}

#[test]
fn couple_broadcasts_full_closure_to_all_member_instances() {
    let mut s: ServerCore<Endpoint> = ServerCore::new();
    let a = register(&mut s, 1, 1);
    let b = register(&mut s, 2, 2);
    let c = register(&mut s, 3, 3);

    let out = s.handle(1, Message::Couple { src: gid(a, "x"), dst: gid(b, "y") }).into_messages();
    assert_eq!(count_kind(&out, "couple-update"), 2);
    match find(&out, 2, "couple-update") {
        Message::CoupleUpdate { group } => assert_eq!(group.len(), 2),
        _ => unreachable!(),
    }

    // Extending the group updates all three instances with the closure.
    let out = s.handle(3, Message::Couple { src: gid(c, "z"), dst: gid(b, "y") }).into_messages();
    assert_eq!(count_kind(&out, "couple-update"), 3);
    match find(&out, 1, "couple-update") {
        Message::CoupleUpdate { group } => assert_eq!(group.len(), 3),
        _ => unreachable!(),
    }
}

#[test]
fn remote_couple_by_third_party() {
    let mut s: ServerCore<Endpoint> = ServerCore::new();
    let a = register(&mut s, 1, 1);
    let b = register(&mut s, 2, 2);
    let _teacher = register(&mut s, 3, 9);

    // The teacher (instance 3) couples objects living in instances 1 and 2.
    let out = s.handle(3, Message::RemoteCouple { a: gid(a, "x"), b: gid(b, "y") }).into_messages();
    assert_eq!(count_kind(&out, "couple-update"), 2);
    assert!(s.couples().is_coupled(&gid(a, "x")));
}

#[test]
fn decouple_splits_and_notifies_both_halves() {
    let mut s: ServerCore<Endpoint> = ServerCore::new();
    let a = register(&mut s, 1, 1);
    let b = register(&mut s, 2, 2);
    let c = register(&mut s, 3, 3);
    s.handle(1, Message::Couple { src: gid(a, "x"), dst: gid(b, "y") }).into_messages();
    s.handle(1, Message::Couple { src: gid(b, "y"), dst: gid(c, "z") }).into_messages();

    let out = s.handle(1, Message::Decouple { src: gid(a, "x"), dst: gid(b, "y") }).into_messages();
    // Instance a learns it is now a singleton; b and c learn their group.
    match find(&out, 1, "couple-update") {
        Message::CoupleUpdate { group } => assert_eq!(group.len(), 1),
        _ => unreachable!(),
    }
    match find(&out, 3, "couple-update") {
        Message::CoupleUpdate { group } => assert_eq!(group.len(), 2),
        _ => unreachable!(),
    }
}

#[test]
fn event_flow_grant_execute_done_unlock() {
    let mut s: ServerCore<Endpoint> = ServerCore::new();
    let a = register(&mut s, 1, 1);
    let b = register(&mut s, 2, 2);
    s.handle(1, Message::Couple { src: gid(a, "f.t"), dst: gid(b, "g.t") }).into_messages();

    let event = UiEvent::new(
        ObjectPath::parse("f.t").unwrap(),
        EventKind::TextCommitted,
        vec![Value::Text("hi".into())],
    );
    let out = s.handle(1, Message::Event { origin: gid(a, "f.t"), event, seq: 5 }).into_messages();
    let exec_id = match find(&out, 1, "event-granted") {
        Message::EventGranted { seq, exec_id } => {
            assert_eq!(*seq, 5);
            *exec_id
        }
        _ => unreachable!(),
    };
    match find(&out, 2, "execute-event") {
        Message::ExecuteEvent { target, event, .. } => {
            assert_eq!(target.to_string(), "g.t");
            assert_eq!(event.kind, EventKind::TextCommitted);
        }
        _ => unreachable!(),
    }
    assert!(s.locks().is_locked(&gid(a, "f.t")));
    assert!(s.locks().is_locked(&gid(b, "g.t")));

    // While locked, another event on the same group is rejected.
    let out2 = s
        .handle(
            2,
            Message::Event {
                origin: gid(b, "g.t"),
                event: UiEvent::simple(ObjectPath::parse("g.t").unwrap(), EventKind::TextCommitted),
                seq: 9,
            },
        )
        .into_messages();
    assert!(matches!(find(&out2, 2, "event-rejected"), Message::EventRejected { seq: 9 }));
    assert_eq!(s.rejected_events(), 1);

    // Both instances report done; the unlock notices flow.
    let out3 = s.handle(1, Message::ExecuteDone { exec_id }).into_messages();
    assert!(out3.is_empty(), "still waiting on instance 2");
    let out4 = s.handle(2, Message::ExecuteDone { exec_id }).into_messages();
    assert_eq!(count_kind(&out4, "group-unlocked"), 2);
    assert!(!s.locks().is_locked(&gid(a, "f.t")));
    assert_eq!(s.granted_events(), 1);
}

#[test]
fn event_on_uncoupled_object_completes_alone() {
    let mut s: ServerCore<Endpoint> = ServerCore::new();
    let a = register(&mut s, 1, 1);
    let out = s
        .handle(
            1,
            Message::Event {
                origin: gid(a, "solo"),
                event: UiEvent::simple(ObjectPath::parse("solo").unwrap(), EventKind::Activate),
                seq: 1,
            },
        )
        .into_messages();
    let exec_id = match find(&out, 1, "event-granted") {
        Message::EventGranted { exec_id, .. } => *exec_id,
        _ => unreachable!(),
    };
    assert_eq!(count_kind(&out, "execute-event"), 0);
    let out = s.handle(1, Message::ExecuteDone { exec_id }).into_messages();
    assert_eq!(count_kind(&out, "group-unlocked"), 1);
}

#[test]
fn copy_from_pulls_state_and_records_history() {
    let mut s: ServerCore<Endpoint> = ServerCore::new();
    let a = register(&mut s, 1, 1);
    let b = register(&mut s, 2, 2);

    // Instance a pulls the state of b's query form into its own form.
    let out = s
        .handle(
            1,
            Message::CopyFrom {
                src: gid(b, "q"),
                dst: gid(a, "q"),
                mode: CopyMode::Strict,
                req_id: 77,
            },
        )
        .into_messages();
    let req_id = match find(&out, 2, "state-request") {
        Message::StateRequest { req_id, path } => {
            assert_eq!(path.to_string(), "q");
            *req_id
        }
        _ => unreachable!(),
    };

    // b replies with its snapshot; the server forwards an ApplyState to a.
    let snapshot = StateNode::new(WidgetKind::Form, "q")
        .with_attr(AttrName::Title, Value::Text("Query".into()));
    let out = s
        .handle(2, Message::StateReply { req_id, snapshot: Some(snapshot.clone()) })
        .into_messages();
    let apply_req = match find(&out, 1, "apply-state") {
        Message::ApplyState { req_id, snapshot: snap, mode, .. } => {
            assert_eq!(snap, &snapshot);
            assert_eq!(*mode, CopyMode::Strict);
            *req_id
        }
        _ => unreachable!(),
    };

    // a applies it and reports the overwritten previous state.
    let prev = StateNode::new(WidgetKind::Form, "q");
    let out = s
        .handle(
            1,
            Message::StateApplied {
                req_id: apply_req,
                overwritten: Some(prev.into()),
                error: None,
            },
        )
        .into_messages();
    match find(&out, 1, "state-applied") {
        Message::StateApplied { req_id, .. } => assert_eq!(*req_id, 77),
        _ => unreachable!(),
    }
    assert_eq!(s.history().undo_depth(&gid(a, "q")), 1);
}

#[test]
fn copy_to_pushes_snapshot_directly() {
    let mut s: ServerCore<Endpoint> = ServerCore::new();
    let a = register(&mut s, 1, 1);
    let b = register(&mut s, 2, 2);
    let snapshot = StateNode::new(WidgetKind::Label, "l")
        .with_attr(AttrName::Text, Value::Text("shared".into()));
    let out = s
        .handle(
            1,
            Message::CopyTo {
                src: gid(a, "l"),
                dst: gid(b, "l"),
                snapshot: snapshot.clone(),
                mode: CopyMode::FlexibleMatch,
                req_id: 3,
            },
        )
        .into_messages();
    match find(&out, 2, "apply-state") {
        Message::ApplyState { snapshot: snap, .. } => assert_eq!(snap, &snapshot),
        _ => unreachable!(),
    }
}

/// Transfer ids are sequential, so any instance can name another's leg.
/// Its word on that leg counts for nothing: the leg stays outstanding,
/// nothing is filed (an undo would fan the forged state out to the whole
/// couple group), no sync base is installed for a state the destination
/// never applied, and the real destination's answer then completes it.
#[test]
fn state_applied_from_a_bystander_is_refused() {
    let mut s: ServerCore<Endpoint> = ServerCore::new();
    let a = register(&mut s, 1, 1);
    let b = register(&mut s, 2, 2);
    let _c = register(&mut s, 3, 3);
    let label = |text: &str| {
        StateNode::new(WidgetKind::Label, "f").with_attr(AttrName::Text, Value::Text(text.into()))
    };
    let push = |s: &mut ServerCore<Endpoint>, text: &str, req_id| {
        let (src, dst, snapshot) = (gid(a, "f"), gid(b, "f"), label(text));
        s.handle(1, Message::CopyTo { src, dst, snapshot, mode: CopyMode::Strict, req_id })
            .into_messages()
    };
    let leg_of = |out: &[(Endpoint, Message)]| match find(out, 2, "apply-state") {
        Message::ApplyState { req_id, .. } => *req_id,
        _ => unreachable!(),
    };
    let leg = leg_of(&push(&mut s, "v1", 1));

    let forged = Message::StateApplied {
        req_id: leg,
        overwritten: Some(label("forged").into()),
        error: None,
    };
    let out = s.handle(3, forged).into_messages();
    assert_eq!(s.history().undo_depth(&gid(b, "f")), 0, "a bystander's state was filed");
    assert!(matches!(find(&out, 3, "permission-denied"), Message::PermissionDenied { .. }));
    assert_eq!(out.len(), 1, "the requester was told: {out:?}");
    assert_eq!(s.stats().live_transfer_legs, 1, "b's leg is still b's to answer");
    // b holds no base yet: the next push travels in full too.
    let second = leg_of(&push(&mut s, "v2", 2));

    for (req_id, client_req, held) in [(leg, 1, "v0"), (second, 2, "v1")] {
        let reply =
            Message::StateApplied { req_id, overwritten: Some(label(held).into()), error: None };
        let out = s.handle(2, reply).into_messages();
        match find(&out, 1, "state-applied") {
            Message::StateApplied { req_id, error: None, .. } => assert_eq!(*req_id, client_req),
            other => panic!("expected the copy to complete, got {other:?}"),
        }
        let filed = s.history().newest_undo(&gid(b, "f")).expect("filed");
        assert_eq!(filed.decode().unwrap(), label(held));
    }
    assert_eq!(s.stats().live_transfer_legs, 0);
    s.check_invariants().unwrap();
}

/// The same for the other half of a transfer: a `StateReply` from anyone
/// but the instance that was asked feeds no fan-out, and the pull waits
/// for its source.
#[test]
fn state_reply_from_a_bystander_is_refused() {
    let mut s: ServerCore<Endpoint> = ServerCore::new();
    let a = register(&mut s, 1, 1);
    let b = register(&mut s, 2, 2);
    let _c = register(&mut s, 3, 3);
    let pull =
        Message::CopyFrom { src: gid(b, "q"), dst: gid(a, "q"), mode: CopyMode::Strict, req_id: 5 };
    let out = s.handle(1, pull).into_messages();
    let req_id = match find(&out, 2, "state-request") {
        Message::StateRequest { req_id, .. } => *req_id,
        _ => unreachable!(),
    };
    let form = |title: &str| {
        StateNode::new(WidgetKind::Form, "q").with_attr(AttrName::Title, Value::Text(title.into()))
    };

    let out =
        s.handle(3, Message::StateReply { req_id, snapshot: Some(form("forged")) }).into_messages();
    assert_eq!(count_kind(&out, "apply-state"), 0, "a bystander's state was fanned out");
    assert!(matches!(find(&out, 3, "permission-denied"), Message::PermissionDenied { .. }));
    assert_eq!(s.stats().live_pending_pulls, 1, "the pull still waits for b");

    let out =
        s.handle(2, Message::StateReply { req_id, snapshot: Some(form("Query")) }).into_messages();
    match find(&out, 1, "apply-state") {
        Message::ApplyState { snapshot, .. } => assert_eq!(*snapshot, form("Query")),
        _ => unreachable!(),
    }
    assert_eq!(s.stats().live_pending_pulls, 0);
    s.check_invariants().unwrap();
}

#[test]
fn missing_source_fails_the_copy() {
    let mut s: ServerCore<Endpoint> = ServerCore::new();
    let a = register(&mut s, 1, 1);
    let b = register(&mut s, 2, 2);
    let out = s
        .handle(
            1,
            Message::CopyFrom {
                src: gid(b, "nope"),
                dst: gid(a, "q"),
                mode: CopyMode::Strict,
                req_id: 1,
            },
        )
        .into_messages();
    let req_id = match find(&out, 2, "state-request") {
        Message::StateRequest { req_id, .. } => *req_id,
        _ => unreachable!(),
    };
    let out = s.handle(2, Message::StateReply { req_id, snapshot: None }).into_messages();
    assert!(matches!(find(&out, 1, "error-reply"), Message::ErrorReply { .. }));
}

#[test]
fn undo_restores_and_redo_reapplies() {
    let mut s: ServerCore<Endpoint> = ServerCore::new();
    let a = register(&mut s, 1, 1);
    let b = register(&mut s, 2, 2);

    let v1 =
        StateNode::new(WidgetKind::Label, "l").with_attr(AttrName::Text, Value::Text("v1".into()));
    let v2 =
        StateNode::new(WidgetKind::Label, "l").with_attr(AttrName::Text, Value::Text("v2".into()));

    // Push v2 onto b, overwriting v1.
    let out = s
        .handle(
            1,
            Message::CopyTo {
                src: gid(a, "l"),
                dst: gid(b, "l"),
                snapshot: v2.clone(),
                mode: CopyMode::Strict,
                req_id: 1,
            },
        )
        .into_messages();
    let req_id = match find(&out, 2, "apply-state") {
        Message::ApplyState { req_id, .. } => *req_id,
        _ => unreachable!(),
    };
    s.handle(
        2,
        Message::StateApplied { req_id, overwritten: Some(v1.clone().into()), error: None },
    )
    .into_messages();
    assert_eq!(s.history().undo_depth(&gid(b, "l")), 1);

    // Undo: the server pushes v1 back to b. The first transfer cached a
    // v2 sync base for b, so the undo travels as a delta against it.
    let out = s.handle(2, Message::UndoState { object: gid(b, "l") }).into_messages();
    let req_id = match find(&out, 2, "apply-delta") {
        Message::ApplyDelta { req_id, base_version, delta: d, mode, .. } => {
            assert_eq!(*base_version, delta::state_version(&v2));
            assert_eq!(delta::apply(&v2, d).unwrap(), v1);
            assert_eq!(*mode, CopyMode::DestructiveMerge);
            *req_id
        }
        _ => unreachable!(),
    };
    // The displaced v2 becomes redoable.
    s.handle(
        2,
        Message::StateApplied { req_id, overwritten: Some(v2.clone().into()), error: None },
    )
    .into_messages();
    assert_eq!(s.history().redo_depth(&gid(b, "l")), 1);

    // Redo: the server pushes v2 again, as a delta against v1.
    let out = s.handle(2, Message::RedoState { object: gid(b, "l") }).into_messages();
    match find(&out, 2, "apply-delta") {
        Message::ApplyDelta { delta: d, .. } => assert_eq!(delta::apply(&v1, d).unwrap(), v2),
        _ => unreachable!(),
    }

    // Undo with empty history errors.
    let out = s.handle(1, Message::UndoState { object: gid(a, "x") }).into_messages();
    assert!(matches!(find(&out, 1, "error-reply"), Message::ErrorReply { .. }));
}

/// The viewer's `StateApplied` goes through the real codec: the server
/// files the `overwritten` bytes of the decoded frame as they came — here
/// in an encoding `StateNode::put` never produces, attribute names out of
/// order and one of them twice — and the undo's delta rebuilds exactly
/// the tree those bytes decode to.
#[test]
fn undo_restores_the_state_the_reply_frame_carried() {
    let mut s: ServerCore<Endpoint> = ServerCore::new();
    let a = register(&mut s, 1, 1);
    let b = register(&mut s, 2, 2);
    let v2 =
        StateNode::new(WidgetKind::Label, "l").with_attr(AttrName::Text, Value::Text("v2".into()));
    let out = s
        .handle(
            1,
            Message::CopyTo {
                src: gid(a, "l"),
                dst: gid(b, "l"),
                snapshot: v2.clone(),
                mode: CopyMode::Strict,
                req_id: 1,
            },
        )
        .into_messages();
    let req_id = match find(&out, 2, "apply-state") {
        Message::ApplyState { req_id, .. } => *req_id,
        _ => unreachable!(),
    };

    // label "l" { width = 1, text = "v1", width = 3 }, no semantic
    // payload, no children.
    let state: &[u8] =
        b"\x05label\x01l\x03\x05width\x01\x02\x04text\x03\x02v1\x05width\x01\x06\x00\x00";
    let prev = StateNode::new(WidgetKind::Label, "l")
        .with_attr(AttrName::Text, Value::Text("v1".into()))
        .with_attr(AttrName::Width, Value::Int(3));
    let mut body = vec![24]; // StateApplied
    body.push(u8::try_from(req_id).expect("small id"));
    body.push(1); // overwritten: Some
    body.extend(state);
    body.push(0); // error: None
    let reply = codec::decode_message(&body).expect("legal frame");
    match &reply {
        Message::StateApplied { overwritten: Some(Overwritten::State(o)), .. } => {
            assert_eq!(o.as_slice(), state)
        }
        other => panic!("expected StateApplied, got {other:?}"),
    }
    s.handle(2, reply).into_messages();
    assert_eq!(s.history().undo_depth(&gid(b, "l")), 1);

    let out = s.handle(2, Message::UndoState { object: gid(b, "l") });
    let frames = out.into_frames();
    assert_eq!(frames.len(), 1, "{frames:?}");
    match frames[0].1.decode().expect("server frame") {
        Message::ApplyDelta { delta: d, new_version, .. } => {
            assert_eq!(delta::apply(&v2, &d).unwrap(), prev);
            assert_eq!(new_version, delta::state_version(&prev));
        }
        other => panic!("expected ApplyDelta, got {other:?}"),
    }
}

#[test]
fn permissions_deny_copy_and_couple() {
    let mut s: ServerCore<Endpoint> = ServerCore::with_default_right(AccessRight::Denied);
    let a = register(&mut s, 1, 1);
    let b = register(&mut s, 2, 2);

    // User 1 may not read b's objects under a Denied default.
    let out = s
        .handle(
            1,
            Message::CopyFrom {
                src: gid(b, "q"),
                dst: gid(a, "q"),
                mode: CopyMode::Strict,
                req_id: 1,
            },
        )
        .into_messages();
    assert!(matches!(find(&out, 1, "permission-denied"), Message::PermissionDenied { .. }));

    let out = s.handle(1, Message::Couple { src: gid(a, "x"), dst: gid(b, "y") }).into_messages();
    assert!(matches!(find(&out, 1, "permission-denied"), Message::PermissionDenied { .. }));

    // b grants read on its form; copy then passes permission checks.
    s.handle(
        2,
        Message::SetPermission { user: UserId(1), object: gid(b, "q"), right: AccessRight::Read },
    )
    .into_messages();
    let out = s
        .handle(
            1,
            Message::CopyFrom {
                src: gid(b, "q"),
                dst: gid(a, "q"),
                mode: CopyMode::Strict,
                req_id: 2,
            },
        )
        .into_messages();
    assert_eq!(count_kind(&out, "state-request"), 1);

    // Owners always have write on their own objects: coupling two of a's
    // own objects is allowed even under a Denied default.
    let out = s.handle(1, Message::Couple { src: gid(a, "x"), dst: gid(a, "y") }).into_messages();
    assert_eq!(count_kind(&out, "couple-update"), 1);
}

#[test]
fn only_owner_may_set_permissions() {
    let mut s: ServerCore<Endpoint> = ServerCore::new();
    let a = register(&mut s, 1, 1);
    let _b = register(&mut s, 2, 2);
    let out = s
        .handle(
            2,
            Message::SetPermission {
                user: UserId(2),
                object: gid(a, "x"),
                right: AccessRight::Write,
            },
        )
        .into_messages();
    assert!(matches!(find(&out, 2, "permission-denied"), Message::PermissionDenied { .. }));
}

#[test]
fn co_send_command_routes_by_target() {
    let mut s: ServerCore<Endpoint> = ServerCore::new();
    let a = register(&mut s, 1, 1);
    let b = register(&mut s, 2, 2);
    let c = register(&mut s, 3, 3);

    // Direct.
    let out = s
        .handle(
            1,
            Message::CoSendCommand {
                to: Target::Instance(b),
                command: "ping".into(),
                payload: vec![1],
            },
        )
        .into_messages();
    match find(&out, 2, "command-delivery") {
        Message::CommandDelivery { from, command, payload } => {
            assert_eq!(*from, a);
            assert_eq!(command, "ping");
            assert_eq!(payload, &vec![1]);
        }
        _ => unreachable!(),
    }

    // Broadcast excludes the sender.
    let out = s
        .handle(
            1,
            Message::CoSendCommand { to: Target::Broadcast, command: "x".into(), payload: vec![] },
        )
        .into_messages();
    assert_eq!(count_kind(&out, "command-delivery"), 2);
    assert!(out.iter().all(|(e, _)| *e != 1));

    // Group target follows the couple closure.
    s.handle(1, Message::Couple { src: gid(a, "o"), dst: gid(c, "p") }).into_messages();
    let out = s
        .handle(
            1,
            Message::CoSendCommand {
                to: Target::Group(gid(a, "o")),
                command: "g".into(),
                payload: vec![],
            },
        )
        .into_messages();
    assert_eq!(count_kind(&out, "command-delivery"), 1);
    assert_eq!(out.iter().find(|(_, m)| m.kind_name() == "command-delivery").unwrap().0, 3);

    // Unknown target instance errors.
    let out = s
        .handle(
            1,
            Message::CoSendCommand {
                to: Target::Instance(InstanceId(99)),
                command: "x".into(),
                payload: vec![],
            },
        )
        .into_messages();
    assert!(matches!(find(&out, 1, "error-reply"), Message::ErrorReply { .. }));
}

#[test]
fn deregister_auto_decouples_and_notifies_survivors() {
    let mut s: ServerCore<Endpoint> = ServerCore::new();
    let a = register(&mut s, 1, 1);
    let b = register(&mut s, 2, 2);
    let c = register(&mut s, 3, 3);
    s.handle(1, Message::Couple { src: gid(a, "x"), dst: gid(b, "y") }).into_messages();
    s.handle(2, Message::Couple { src: gid(b, "y"), dst: gid(c, "z") }).into_messages();

    let out = s.handle(2, Message::Deregister).into_messages();
    // a and c each learn their group shrank.
    assert!(count_kind(&out, "couple-update") >= 2);
    assert!(
        !s.couples().is_coupled(&gid(a, "x"))
            || s.couples().coupled_with(&gid(a, "x")).iter().all(|g| g.instance != b)
    );
    assert!(s.registry().info(b).is_none());
}

#[test]
fn disconnect_mid_execution_releases_locks() {
    let mut s: ServerCore<Endpoint> = ServerCore::new();
    let a = register(&mut s, 1, 1);
    let b = register(&mut s, 2, 2);
    s.handle(1, Message::Couple { src: gid(a, "x"), dst: gid(b, "y") }).into_messages();

    let out = s
        .handle(
            1,
            Message::Event {
                origin: gid(a, "x"),
                event: UiEvent::simple(ObjectPath::parse("x").unwrap(), EventKind::Activate),
                seq: 1,
            },
        )
        .into_messages();
    let exec_id = match find(&out, 1, "event-granted") {
        Message::EventGranted { exec_id, .. } => *exec_id,
        _ => unreachable!(),
    };
    // a finishes, but b crashes before replying.
    s.handle(1, Message::ExecuteDone { exec_id }).into_messages();
    assert!(s.locks().is_locked(&gid(a, "x")));
    let out = s.disconnect(2).into_messages();
    // The execution settles and a's object unlocks.
    assert!(count_kind(&out, "group-unlocked") >= 1);
    assert!(!s.locks().is_locked(&gid(a, "x")));
}

#[test]
fn list_coupled_reports_closure() {
    let mut s: ServerCore<Endpoint> = ServerCore::new();
    let a = register(&mut s, 1, 1);
    let b = register(&mut s, 2, 2);
    s.handle(1, Message::Couple { src: gid(a, "x"), dst: gid(b, "y") }).into_messages();
    let out = s.handle(1, Message::ListCoupled { object: gid(a, "x") }).into_messages();
    match find(&out, 1, "coupled-set") {
        Message::CoupledSet { coupled, .. } => assert_eq!(coupled, &vec![gid(b, "y")]),
        _ => unreachable!(),
    }
}

#[test]
fn server_to_client_kinds_are_rejected_as_misuse() {
    let mut s: ServerCore<Endpoint> = ServerCore::new();
    let _a = register(&mut s, 1, 1);
    let out = s.handle(1, Message::Welcome { instance: InstanceId(9) }).into_messages();
    assert!(matches!(find(&out, 1, "error-reply"), Message::ErrorReply { .. }));
}

/// Liveness regression: a `CopyFrom` whose *source* dies before sending
/// its `StateReply` must fail the transfer back to the requester instead
/// of leaving the transfer group outstanding forever.
#[test]
fn copy_from_source_death_fails_transfer() {
    let mut s: ServerCore<Endpoint> = ServerCore::new();
    let a = register(&mut s, 1, 1);
    let b = register(&mut s, 2, 2);

    // a pulls state from b's object; the server asks b for a snapshot.
    let out = s
        .handle(
            1,
            Message::CopyFrom {
                src: gid(b, "q"),
                dst: gid(a, "q"),
                mode: CopyMode::Strict,
                req_id: 9,
            },
        )
        .into_messages();
    assert!(matches!(find(&out, 2, "state-request"), Message::StateRequest { .. }));
    assert_eq!(s.stats().live_transfer_groups, 1);

    // b (the source) dies before replying.
    let out = s.disconnect(2).into_messages();
    match find(&out, 1, "error-reply") {
        Message::ErrorReply { context, reason } => {
            assert_eq!(context, "copy");
            assert!(reason.contains("source"), "reason should name the source: {reason}");
        }
        _ => unreachable!(),
    }
    // The transfer group is settled, not leaked.
    assert_eq!(s.stats().live_transfer_groups, 0);
    assert_eq!(s.stats().transfers_failed, 1);
}

/// Same flow via `RemoteCopy` issued by a third party: the requester is
/// neither source nor destination, and still gets the failure.
#[test]
fn remote_copy_source_death_fails_transfer_to_third_party() {
    let mut s: ServerCore<Endpoint> = ServerCore::new();
    let _a = register(&mut s, 1, 1);
    let b = register(&mut s, 2, 2);
    let c = register(&mut s, 3, 3);

    let out = s
        .handle(
            1,
            Message::RemoteCopy {
                src: gid(b, "src"),
                dst: gid(c, "dst"),
                mode: CopyMode::Strict,
                req_id: 4,
            },
        )
        .into_messages();
    assert!(matches!(find(&out, 2, "state-request"), Message::StateRequest { .. }));

    let out = s.disconnect(2).into_messages();
    assert!(matches!(find(&out, 1, "error-reply"), Message::ErrorReply { .. }));
    assert_eq!(s.stats().live_transfer_groups, 0);
}

#[test]
fn stats_track_floor_control_and_fanout() {
    let mut s: ServerCore<Endpoint> = ServerCore::new();
    let a = register(&mut s, 1, 1);
    let b = register(&mut s, 2, 2);
    s.handle(1, Message::Couple { src: gid(a, "x"), dst: gid(b, "x") }).into_messages();

    let event = UiEvent::new(
        ObjectPath::parse("x").unwrap(),
        EventKind::TextCommitted,
        vec![Value::Text("v".into())],
    );
    s.handle(1, Message::Event { origin: gid(a, "x"), event: event.clone(), seq: 1 })
        .into_messages();
    // A second event on the locked group is a lock-conflict rejection.
    s.handle(2, Message::Event { origin: gid(b, "x"), event, seq: 2 }).into_messages();

    let stats = s.stats();
    assert_eq!(stats.events_granted, 1);
    assert_eq!(stats.events_rejected, 1);
    assert_eq!(stats.lock_conflicts, 1);
    assert_eq!(stats.registered_instances, 2);
    assert!(stats.held_locks >= 1);
    // Couple broadcast reached both instances in one turn.
    assert!(stats.max_fanout >= 2);
    assert!(stats.messages_out >= 6);
}

// ---- failure handling & liveness (disconnect, quarantine, rejoin) --------

fn register_with_token(
    server: &mut ServerCore<Endpoint>,
    endpoint: Endpoint,
    user: u64,
) -> (InstanceId, u64) {
    let out = server
        .handle(
            endpoint,
            Message::Register {
                user: UserId(user),
                host: format!("ws{endpoint}"),
                app_name: "app".into(),
            },
        )
        .into_messages();
    let instance = match find(&out, endpoint, "welcome") {
        Message::Welcome { instance } => *instance,
        _ => unreachable!(),
    };
    let token = match find(&out, endpoint, "session-token") {
        Message::SessionToken { resume_token } => *resume_token,
        _ => unreachable!(),
    };
    (instance, token)
}

#[test]
fn late_state_reply_after_requester_death_is_harmless() {
    // Regression: a CopyFrom requester dying before the source's
    // StateReply used to leave a pull leg whose transfer group was
    // dropped, and the late reply panicked in the fan-out.
    let mut s: ServerCore<Endpoint> = ServerCore::new();
    let a = register(&mut s, 1, 1);
    let b = register(&mut s, 2, 2);

    let out = s
        .handle(
            1,
            Message::CopyFrom {
                src: gid(b, "q"),
                dst: gid(a, "q"),
                mode: CopyMode::Strict,
                req_id: 9,
            },
        )
        .into_messages();
    let req_id = match find(&out, 2, "state-request") {
        Message::StateRequest { req_id, .. } => *req_id,
        _ => unreachable!(),
    };

    // The requester's connection dies before b replies.
    s.disconnect(1).into_messages();
    let stats = s.stats();
    assert_eq!(stats.transfers_failed, 1);
    assert_eq!(stats.live_transfer_groups, 0);
    assert_eq!(stats.live_pending_pulls, 0);

    // The late reply finds nothing to act on — and nobody to tell.
    let snapshot = StateNode::new(WidgetKind::Form, "q");
    let out = s.handle(2, Message::StateReply { req_id, snapshot: Some(snapshot) }).into_messages();
    assert!(out.is_empty(), "late StateReply must be ignored, got {out:?}");
    assert_eq!(s.stats().live_transfer_legs, 0);
}

#[test]
fn remote_copy_requester_death_purges_orphaned_legs() {
    // Third-party variant: the requester is neither source nor
    // destination, so its death reaps the group by requester alone —
    // the group's pull leg must go with it.
    let mut s: ServerCore<Endpoint> = ServerCore::new();
    let _a = register(&mut s, 1, 1);
    let b = register(&mut s, 2, 2);
    let c = register(&mut s, 3, 3);

    let out = s
        .handle(
            1,
            Message::RemoteCopy {
                src: gid(b, "q"),
                dst: gid(c, "q"),
                mode: CopyMode::Strict,
                req_id: 5,
            },
        )
        .into_messages();
    let req_id = match find(&out, 2, "state-request") {
        Message::StateRequest { req_id, .. } => *req_id,
        _ => unreachable!(),
    };

    s.disconnect(1).into_messages();
    let stats = s.stats();
    assert_eq!(stats.transfers_failed, 1);
    assert_eq!(stats.live_transfer_groups, 0);
    assert_eq!(stats.live_pending_pulls, 0, "orphaned pull leg must be purged");

    let snapshot = StateNode::new(WidgetKind::Form, "q");
    let out = s.handle(2, Message::StateReply { req_id, snapshot: Some(snapshot) }).into_messages();
    assert!(out.is_empty(), "no ApplyState may be fanned out for a dead requester, got {out:?}");
    assert_eq!(s.stats().live_transfer_legs, 0);
}

#[test]
fn ping_is_answered_with_pong() {
    let mut s: ServerCore<Endpoint> = ServerCore::new();
    register(&mut s, 1, 1);
    let out = s.handle(1, Message::Ping { nonce: 42 }).into_messages();
    match find(&out, 1, "pong") {
        Message::Pong { nonce } => assert_eq!(*nonce, 42),
        _ => unreachable!(),
    }
    assert_eq!(s.stats().pings, 1);
}

#[test]
fn disconnect_with_grace_quarantines_and_rejoin_resumes() {
    let mut s: ServerCore<Endpoint> = ServerCore::with_liveness(cosoft_server::LivenessConfig {
        grace_us: 1_000,
        idle_timeout_us: 0,
        max_quarantined: 0,
    });
    let (a, token_a) = register_with_token(&mut s, 1, 1);
    let (b, _) = register_with_token(&mut s, 2, 2);
    s.handle(1, Message::Couple { src: gid(a, "x"), dst: gid(b, "y") }).into_messages();

    // The connection drops silently: quarantined, not deregistered.
    let out = s.disconnect(1).into_messages();
    assert_eq!(count_kind(&out, "couple-update"), 0, "couples must survive quarantine");
    let stats = s.stats();
    assert_eq!(stats.quarantines, 1);
    assert_eq!(stats.quarantined_instances, 1);
    assert_eq!(stats.registered_instances, 2);
    assert!(s.couples().is_coupled(&gid(a, "x")));

    // Rejoining from a fresh endpoint reclaims the same instance id and
    // rotates the resume token.
    let out = s.handle(7, Message::Rejoin { resume_token: token_a }).into_messages();
    match find(&out, 7, "welcome") {
        Message::Welcome { instance } => assert_eq!(*instance, a),
        _ => unreachable!(),
    }
    let fresh = match find(&out, 7, "session-token") {
        Message::SessionToken { resume_token } => *resume_token,
        _ => unreachable!(),
    };
    assert_ne!(fresh, token_a, "resume tokens are single-use");
    let stats = s.stats();
    assert_eq!(stats.resumes, 1);
    assert_eq!(stats.quarantined_instances, 0);
    assert!(s.couples().is_coupled(&gid(a, "x")));

    // The spent token no longer resolves.
    let out = s.handle(8, Message::Rejoin { resume_token: token_a }).into_messages();
    assert!(matches!(find(&out, 8, "error-reply"), Message::ErrorReply { .. }));
    assert_eq!(s.stats().rejoins_rejected, 1);
}

#[test]
fn grace_expiry_deregisters_and_decouples() {
    let mut s: ServerCore<Endpoint> = ServerCore::with_liveness(cosoft_server::LivenessConfig {
        grace_us: 1_000,
        idle_timeout_us: 0,
        max_quarantined: 0,
    });
    let (a, token_a) = register_with_token(&mut s, 1, 1);
    let (b, _) = register_with_token(&mut s, 2, 2);
    s.handle(1, Message::Couple { src: gid(a, "x"), dst: gid(b, "y") }).into_messages();

    s.disconnect(1).into_messages();
    // Mid-grace: nothing happens yet.
    let out = s.tick(500).into_messages();
    assert!(out.is_empty());
    assert_eq!(s.stats().quarantined_instances, 1);

    // Past the deadline: full deregistration with auto-decoupling.
    let out = s.tick(1_600).into_messages();
    match find(&out, 2, "couple-update") {
        Message::CoupleUpdate { group } => assert_eq!(group.len(), 1),
        _ => unreachable!(),
    }
    let stats = s.stats();
    assert_eq!(stats.quarantine_expiries, 1);
    assert_eq!(stats.quarantined_instances, 0);
    assert_eq!(stats.registered_instances, 1);

    // The token died with the quarantine.
    let out = s.handle(7, Message::Rejoin { resume_token: token_a }).into_messages();
    assert!(matches!(find(&out, 7, "error-reply"), Message::ErrorReply { .. }));
}

#[test]
fn copies_touching_a_quarantined_instance_fail_fast() {
    let mut s: ServerCore<Endpoint> = ServerCore::with_liveness(cosoft_server::LivenessConfig {
        grace_us: 60_000_000,
        idle_timeout_us: 0,
        max_quarantined: 0,
    });
    let (a, _) = register_with_token(&mut s, 1, 1);
    let (b, _) = register_with_token(&mut s, 2, 2);
    s.disconnect(2).into_messages();

    // Pulling from a quarantined source fails immediately instead of
    // waiting out the grace period.
    let out = s
        .handle(
            1,
            Message::CopyFrom {
                src: gid(b, "q"),
                dst: gid(a, "q"),
                mode: CopyMode::Strict,
                req_id: 4,
            },
        )
        .into_messages();
    assert!(matches!(find(&out, 1, "error-reply"), Message::ErrorReply { .. }));

    // Pushing onto a quarantined destination likewise.
    let out = s
        .handle(
            1,
            Message::CopyTo {
                src: gid(a, "l"),
                dst: gid(b, "l"),
                snapshot: StateNode::new(WidgetKind::Label, "l"),
                mode: CopyMode::Strict,
                req_id: 5,
            },
        )
        .into_messages();
    assert!(matches!(find(&out, 1, "error-reply"), Message::ErrorReply { .. }));
    let stats = s.stats();
    assert_eq!(stats.live_transfer_groups, 0);
    assert_eq!(stats.live_pending_pulls, 0);
    assert_eq!(stats.live_transfer_legs, 0);
}

/// A refused undo/redo must not consume the historical state: when no
/// member of `CO(object)` can receive it, both stacks stay as they were
/// and the request works once a member is back.
#[test]
fn undo_on_unreachable_group_keeps_the_entry() {
    let mut s: ServerCore<Endpoint> = ServerCore::with_liveness(cosoft_server::LivenessConfig {
        grace_us: 60_000_000,
        idle_timeout_us: 0,
        max_quarantined: 0,
    });
    let (a, _) = register_with_token(&mut s, 1, 1);
    let (b, token_b) = register_with_token(&mut s, 2, 2);
    let o = gid(b, "l");
    let label = |text: &str| {
        StateNode::new(WidgetKind::Label, "l").with_attr(AttrName::Text, Value::Text(text.into()))
    };
    // The id of the apply leg sent to `endpoint`, snapshot or delta.
    let leg_to = |out: &[(Endpoint, Message)], endpoint: Endpoint| {
        out.iter()
            .find_map(|(e, m)| match m {
                Message::ApplyState { req_id, .. } | Message::ApplyDelta { req_id, .. }
                    if *e == endpoint =>
                {
                    Some(*req_id)
                }
                _ => None,
            })
            .unwrap_or_else(|| panic!("no apply leg sent to endpoint {endpoint}; got {out:?}"))
    };

    // v2 overwrites v1, v3 overwrites v2, then b undoes once:
    // undo = [v1], redo = [v3], b shows v2.
    for (req, new, prev) in [(1, "v2", "v1"), (2, "v3", "v2")] {
        let out = push_to(&mut s, o.clone(), gid(a, "l"), label(new), req);
        let req_id = leg_to(&out, 2);
        s.handle(
            2,
            Message::StateApplied { req_id, overwritten: Some(label(prev).into()), error: None },
        )
        .into_messages();
    }
    let out = s.handle(2, Message::UndoState { object: o.clone() }).into_messages();
    let req_id = leg_to(&out, 2);
    s.handle(
        2,
        Message::StateApplied { req_id, overwritten: Some(label("v3").into()), error: None },
    )
    .into_messages();
    assert_eq!((s.history().undo_depth(&o), s.history().redo_depth(&o)), (1, 1));

    // b's whole couple group (just b) is quarantined: both requests are
    // refused and neither stack loses its entry.
    s.disconnect(2).into_messages();
    for request in
        [Message::UndoState { object: o.clone() }, Message::RedoState { object: o.clone() }]
    {
        let out = s.handle(1, request).into_messages();
        assert!(matches!(find(&out, 1, "error-reply"), Message::ErrorReply { .. }));
        assert_eq!((s.history().undo_depth(&o), s.history().redo_depth(&o)), (1, 1));
    }
    let stats = s.stats();
    assert_eq!(stats.live_transfer_groups, 0);
    assert_eq!(stats.live_transfer_legs, 0);

    // After the rejoin the same undo goes through and restores v1.
    s.handle(7, Message::Rejoin { resume_token: token_b }).into_messages();
    let out = s.handle(1, Message::UndoState { object: o.clone() }).into_messages();
    let req_id = match find(&out, 7, "apply-delta") {
        Message::ApplyDelta { req_id, delta: d, .. } => {
            assert_eq!(delta::apply(&label("v2"), d).unwrap(), label("v1"));
            *req_id
        }
        _ => unreachable!(),
    };
    s.handle(
        7,
        Message::StateApplied { req_id, overwritten: Some(label("v2").into()), error: None },
    )
    .into_messages();
    assert_eq!((s.history().undo_depth(&o), s.history().redo_depth(&o)), (0, 2));
}

#[test]
fn events_skip_quarantined_group_members() {
    let mut s: ServerCore<Endpoint> = ServerCore::with_liveness(cosoft_server::LivenessConfig {
        grace_us: 60_000_000,
        idle_timeout_us: 0,
        max_quarantined: 0,
    });
    let (a, _) = register_with_token(&mut s, 1, 1);
    let (b, _) = register_with_token(&mut s, 2, 2);
    s.handle(1, Message::Couple { src: gid(a, "x"), dst: gid(b, "x") }).into_messages();
    s.disconnect(2).into_messages();

    let event = UiEvent::new(
        ObjectPath::parse("x").unwrap(),
        EventKind::TextCommitted,
        vec![Value::Text("v".into())],
    );
    let out = s.handle(1, Message::Event { origin: gid(a, "x"), event, seq: 1 }).into_messages();
    assert_eq!(count_kind(&out, "execute-event"), 0, "no ExecuteEvent to a dead connection");
    let exec_id = match find(&out, 1, "event-granted") {
        Message::EventGranted { exec_id, .. } => *exec_id,
        _ => unreachable!(),
    };
    // The origin's own done finishes the execution — it does not hang on
    // the quarantined member.
    let out = s.handle(1, Message::ExecuteDone { exec_id }).into_messages();
    assert_eq!(count_kind(&out, "group-unlocked"), 1);
    assert_eq!(s.stats().live_execs, 0);
}

#[test]
fn idle_timeout_quarantines_silent_instances() {
    let mut s: ServerCore<Endpoint> = ServerCore::with_liveness(cosoft_server::LivenessConfig {
        grace_us: 10_000,
        idle_timeout_us: 1_000,
        max_quarantined: 0,
    });
    let (_a, _) = register_with_token(&mut s, 1, 1);
    let (b, token_b) = register_with_token(&mut s, 2, 2);

    // Advance the clock, then only a is heard from.
    s.tick(500).into_messages();
    s.handle(1, Message::Ping { nonce: 1 }).into_messages();

    // At t=1400, b (last seen at 0) is past the idle cutoff; a (seen at
    // 500) is not.
    s.tick(1_400).into_messages();
    let stats = s.stats();
    assert_eq!(stats.quarantines, 1);
    assert_eq!(stats.quarantined_instances, 1);

    // The silent client reconnects and resumes.
    let out = s.handle(9, Message::Rejoin { resume_token: token_b }).into_messages();
    match find(&out, 9, "welcome") {
        Message::Welcome { instance } => assert_eq!(*instance, b),
        _ => unreachable!(),
    }
    assert_eq!(s.stats().resumes, 1);
}

#[test]
fn teardown_leaves_no_inflight_work() {
    // Deterministic counterpart of the `no_leaks_after_all_instances_deregister`
    // property: a mixed workload with partially answered requests is torn
    // down by disconnecting everyone; nothing in-flight may survive.
    let mut s: ServerCore<Endpoint> = ServerCore::new();
    let a = register(&mut s, 1, 1);
    let b = register(&mut s, 2, 2);
    let c = register(&mut s, 3, 3);
    s.handle(1, Message::Couple { src: gid(a, "x"), dst: gid(b, "x") }).into_messages();
    s.handle(3, Message::Couple { src: gid(c, "x"), dst: gid(b, "x") }).into_messages();

    // An event whose ExecuteDones never all arrive.
    let event = UiEvent::new(
        ObjectPath::parse("x").unwrap(),
        EventKind::TextCommitted,
        vec![Value::Text("v".into())],
    );
    let out = s.handle(1, Message::Event { origin: gid(a, "x"), event, seq: 1 }).into_messages();
    let exec_id = match find(&out, 1, "event-granted") {
        Message::EventGranted { exec_id, .. } => *exec_id,
        _ => unreachable!(),
    };
    s.handle(1, Message::ExecuteDone { exec_id }).into_messages();

    // A pull that is never answered, a push that is half-answered, and a
    // third-party copy left dangling.
    s.handle(
        1,
        Message::CopyFrom { src: gid(b, "x"), dst: gid(a, "x"), mode: CopyMode::Strict, req_id: 1 },
    )
    .into_messages();
    let out = s
        .handle(
            1,
            Message::CopyTo {
                src: gid(a, "x"),
                dst: gid(b, "x"),
                snapshot: StateNode::new(WidgetKind::Label, "x"),
                mode: CopyMode::Strict,
                req_id: 2,
            },
        )
        .into_messages();
    if let Message::ApplyState { req_id, .. } = find(&out, 2, "apply-state") {
        s.handle(2, Message::StateApplied { req_id: *req_id, overwritten: None, error: None })
            .into_messages();
    }
    s.handle(
        3,
        Message::RemoteCopy {
            src: gid(a, "x"),
            dst: gid(b, "x"),
            mode: CopyMode::Strict,
            req_id: 3,
        },
    )
    .into_messages();

    for endpoint in [1, 2, 3] {
        s.disconnect(endpoint).into_messages();
    }
    let stats = s.stats();
    assert_eq!(stats.registered_instances, 0);
    assert_eq!(stats.live_transfer_groups, 0);
    assert_eq!(stats.live_transfer_legs, 0);
    assert_eq!(stats.live_pending_pulls, 0);
    assert_eq!(stats.live_execs, 0);
    assert_eq!(stats.held_locks, 0);
}

/// Acceptance for the encode-once delivery path: a broadcast to N
/// peers produces exactly one shared frame (one encode) listing all N
/// endpoints, and the stats counters account the saved bytes.
#[test]
fn broadcast_fan_out_encodes_exactly_once() {
    let mut s: ServerCore<Endpoint> = ServerCore::new();
    for e in 1..=5 {
        register(&mut s, e, e);
    }
    let before = s.stats();
    let out = s.handle(
        1,
        Message::CoSendCommand {
            to: Target::Broadcast,
            command: "go".into(),
            payload: vec![0xAB; 512],
        },
    );
    let shared: Vec<_> = out
        .items()
        .iter()
        .filter_map(|d| match d {
            cosoft_server::Delivery::Shared(endpoints, frame) => Some((endpoints, frame)),
            cosoft_server::Delivery::Unicast(..) => None,
        })
        .collect();
    assert_eq!(shared.len(), 1, "broadcast must produce one shared frame, got {out:?}");
    let (endpoints, frame) = &shared[0];
    assert_eq!(endpoints.len(), 4, "all peers of the sender share the frame");
    assert_eq!(frame.kind_name(), Some("command-delivery"));

    let after = s.stats();
    assert_eq!(after.shared_frames_encoded - before.shared_frames_encoded, 1);
    assert_eq!(after.shared_deliveries - before.shared_deliveries, 4);
    let encoded = after.shared_bytes_encoded - before.shared_bytes_encoded;
    let delivered = after.shared_bytes_delivered - before.shared_bytes_delivered;
    assert_eq!(encoded, frame.len() as u64);
    assert_eq!(delivered, 4 * encoded, "four deliveries out of one encode");
}

/// The event fan-out serializes the (potentially large) event body once
/// and splices it into every per-member `ExecuteEvent` frame.
#[test]
fn event_fan_out_encodes_payload_once() {
    let mut s: ServerCore<Endpoint> = ServerCore::new();
    let a = register(&mut s, 1, 1);
    let b = register(&mut s, 2, 2);
    let c = register(&mut s, 3, 3);
    s.handle(1, Message::Couple { src: gid(a, "x"), dst: gid(b, "x") }).into_messages();
    s.handle(1, Message::Couple { src: gid(b, "x"), dst: gid(c, "x") }).into_messages();

    let before = s.stats();
    let event = UiEvent::simple(ObjectPath::parse("x").unwrap(), EventKind::Activate);
    let out = s.handle(1, Message::Event { origin: gid(a, "x"), event, seq: 1 }).into_messages();
    let legs = count_kind(&out, "execute-event");
    assert!(legs >= 2, "expected a multi-member fan-out, got {out:?}");
    let after = s.stats();
    assert_eq!(after.payload_encodes - before.payload_encodes, 1);
    assert_eq!(after.payload_reuses - before.payload_reuses, legs as u64 - 1);
}

/// A rewinding wall clock (NTP step, suspend/resume, a misbehaving
/// caller) is clamped and counted, and must not re-arm or shorten grace
/// periods measured against the pre-rewind clock.
#[test]
fn backwards_tick_is_clamped_and_counted() {
    let mut s: ServerCore<Endpoint> = ServerCore::with_liveness(cosoft_server::LivenessConfig {
        grace_us: 1_000,
        idle_timeout_us: 0,
        max_quarantined: 0,
    });
    // With liveness on, Register yields Welcome + SessionToken.
    let out = s
        .handle(
            1,
            Message::Register { user: UserId(1), host: "ws1".into(), app_name: "app".into() },
        )
        .into_messages();
    let a = match find(&out, 1, "welcome") {
        Message::Welcome { instance } => *instance,
        _ => unreachable!(),
    };
    s.tick(5_000).into_messages();
    assert_eq!(s.stats().clock_regressions, 0);

    // The clock rewinds hard. The regression is counted but the virtual
    // clock holds at 5_000 — the next disconnect quarantines relative
    // to the clamped time, not the rewound one.
    s.tick(0).into_messages();
    assert_eq!(s.stats().clock_regressions, 1);
    s.disconnect(1).into_messages();

    // Had the rewind taken, the grace deadline would be 1_000 and this
    // tick would already expire the quarantine. Clamped, it is 6_000.
    s.tick(5_999).into_messages();
    assert!(s.registry().contains(a), "rewind must not shorten the grace period");
    s.tick(6_000).into_messages();
    assert!(!s.registry().contains(a), "grace still runs out on the clamped clock");
    assert_eq!(s.stats().clock_regressions, 1, "forward ticks are not regressions");
}

// ---- overload control (admission, shedding, escalation) -------------------

fn overloaded(
    grace_us: u64,
    control_budget: u32,
    bulk_budget: u32,
    strikes: u32,
) -> ServerCore<Endpoint> {
    let mut s: ServerCore<Endpoint> = ServerCore::with_liveness(cosoft_server::LivenessConfig {
        grace_us,
        idle_timeout_us: 0,
        max_quarantined: 0,
    });
    s.set_overload(cosoft_server::OverloadConfig {
        window_us: 1_000,
        control_budget,
        bulk_budget,
        max_window_bytes: 0,
        retry_after_ms: 75,
        strikes_before_evict: strikes,
    });
    s
}

#[test]
fn bulk_is_shed_with_one_busy_while_control_and_liveness_flow() {
    let mut s = overloaded(0, 0, 1, 0);
    let a = register(&mut s, 1, 1);
    let b = register(&mut s, 2, 2);

    // First bulk request is admitted (and fails on its merits — the
    // source object doesn't matter here, only that it was processed).
    let first = s
        .handle(
            1,
            Message::CopyFrom {
                src: gid(b, "x"),
                dst: gid(a, "y"),
                mode: CopyMode::Strict,
                req_id: 1,
            },
        )
        .into_messages();
    assert_eq!(count_kind(&first, "busy"), 0);

    // The rest of the window's bulk traffic is shed: exactly one Busy
    // carrying the configured advice, no matter how many messages flood in.
    let mut busies = 0;
    for i in 0..40 {
        let out = s
            .handle(
                1,
                Message::CopyFrom {
                    src: gid(b, "x"),
                    dst: gid(a, "y"),
                    mode: CopyMode::Strict,
                    req_id: 2 + i,
                },
            )
            .into_messages();
        for (e, m) in &out {
            if let Message::Busy { retry_after_ms } = m {
                assert_eq!(*e, 1);
                assert_eq!(*retry_after_ms, 75);
                busies += 1;
            }
        }
    }
    assert_eq!(busies, 1, "one advisory Busy per endpoint per window");
    assert_eq!(s.stats().overload_sheds_bulk, 40);
    assert_eq!(s.stats().busy_replies, 1);

    // Control and liveness classes keep flowing on their own budgets.
    let out = s.handle(1, Message::QueryInstances).into_messages();
    assert_eq!(count_kind(&out, "instance-list"), 1);
    let out = s.handle(1, Message::Ping { nonce: 9 }).into_messages();
    assert_eq!(count_kind(&out, "pong"), 1);
    assert_eq!(s.stats().overload_evictions, 0, "shedding alone never evicts");
}

#[test]
fn sustained_abuse_escalates_to_auto_decoupling_eviction() {
    // Couple first with admission off, then arm the tight budget — the
    // setup traffic must not eat the window under test.
    let mut s: ServerCore<Endpoint> = ServerCore::new();
    let a = register(&mut s, 1, 1);
    let b = register(&mut s, 2, 2);
    s.handle(1, Message::Couple { src: gid(a, "x"), dst: gid(b, "y") }).into_messages();
    s.set_overload(cosoft_server::OverloadConfig {
        window_us: 1_000,
        control_budget: 1,
        bulk_budget: 0,
        max_window_bytes: 0,
        retry_after_ms: 75,
        strikes_before_evict: 2,
    });

    // Three consecutive windows of flooding; the flooder receives Busy
    // (in each window) strictly before the eviction fires.
    let mut saw_busy_before_eviction = false;
    let mut evicted_out: Vec<(Endpoint, Message)> = Vec::new();
    'outer: for window in 0u64..3 {
        s.tick(window * 1_000).into_messages();
        for _ in 0..5 {
            let out = s.handle(1, Message::QueryInstances).into_messages();
            if count_kind(&out, "busy") > 0 && s.stats().overload_evictions == 0 {
                saw_busy_before_eviction = true;
            }
            if s.stats().overload_evictions > 0 {
                evicted_out = out;
                break 'outer;
            }
        }
    }
    assert!(saw_busy_before_eviction, "flooder must be told Busy before being evicted");
    assert_eq!(s.stats().overload_evictions, 1);
    assert!(!s.registry().contains(a), "zero grace: eviction deregisters the flooder");
    assert!(s.registry().contains(b));
    // §3.2 auto-decoupling: the surviving peer learns the new grouping.
    assert!(count_kind(&evicted_out, "couple-update") >= 1, "{evicted_out:?}");
    assert!(s.stats().overload_sheds_control >= 3);

    // A fresh connection on the same endpoint starts with clean budgets.
    s.tick(10_000).into_messages();
    let c = register(&mut s, 1, 3);
    assert!(s.registry().contains(c));
}

#[test]
fn eviction_respects_grace_and_quarantines() {
    let mut s = overloaded(1_000_000, 1, 0, 1);
    let (a, _) = register_with_token(&mut s, 1, 1);
    for window in 0u64..2 {
        s.tick(window * 1_000).into_messages();
        for _ in 0..4 {
            s.handle(1, Message::QueryInstances).into_messages();
        }
    }
    assert_eq!(s.stats().overload_evictions, 1);
    assert!(s.registry().contains(a), "grace > 0: evicted instance is quarantined, not dropped");
    assert_eq!(s.stats().quarantined_instances, 1);
}

#[test]
fn register_floods_are_shed_before_registration() {
    let mut s = overloaded(0, 1, 0, 0);
    let reg = || Message::Register { user: UserId(7), host: "ws".into(), app_name: "app".into() };
    let out = s.handle(1, reg()).into_messages();
    assert_eq!(count_kind(&out, "welcome"), 1);
    for _ in 0..10 {
        let out = s.handle(1, reg()).into_messages();
        assert_eq!(count_kind(&out, "welcome"), 0, "flooded Register must not register");
    }
    assert_eq!(s.registry().all().len(), 1);
    assert!(s.stats().overload_sheds_control >= 10);
}

/// Connect / flood / disconnect churn by endpoints that never register
/// leaves no budget window behind: a disconnect drops the endpoint's
/// window whether or not an instance was bound to it, and a window that
/// shed ages out of `tick` at the same two-window horizon as a clean one.
#[test]
fn budget_windows_of_unregistered_endpoints_are_dropped() {
    let mut s = overloaded(0, 1, 0, 0);
    let flood = |s: &mut ServerCore<Endpoint>, endpoints: std::ops::Range<u64>| {
        for e in endpoints {
            for _ in 0..3 {
                s.handle(e, Message::QueryInstances);
            }
        }
    };
    flood(&mut s, 0..100);
    assert_eq!(s.stats().overload_sheds_control, 200, "one admitted, two shed, per endpoint");
    assert_eq!(s.stats().overload_tracked_endpoints, 100);
    for e in 0..100 {
        s.disconnect(e);
    }
    assert_eq!(s.stats().overload_tracked_endpoints, 0, "a closed connection keeps no window");

    // The same flood from connections that stay open and fall silent.
    flood(&mut s, 100..200);
    s.tick(1_000);
    assert_eq!(s.stats().overload_tracked_endpoints, 100, "one window old: still tracked");
    s.tick(2_000);
    assert_eq!(s.stats().overload_tracked_endpoints, 0, "two windows silent: aged out");
}

/// One connection, one instance: a second `Register` on an endpoint that
/// already carries one is refused, and the first record stays the one the
/// endpoint speaks for.
#[test]
fn second_register_on_a_connection_is_refused() {
    let mut s: ServerCore<Endpoint> = ServerCore::new();
    let a = register(&mut s, 1, 1);
    let reg = Message::Register { user: UserId(2), host: "ws".into(), app_name: "app".into() };
    let out = s.handle(1, reg).into_messages();
    assert_eq!((out.len(), count_kind(&out, "error-reply")), (1, 1));
    assert_eq!(s.registry().ids(), vec![a]);
    assert_eq!(s.registry().instance_at(1), Some(a));
    s.check_invariants().unwrap();
    s.disconnect(1);
    assert!(s.registry().is_empty());
}

#[test]
fn busy_inbound_is_server_to_client_only() {
    let mut s: ServerCore<Endpoint> = ServerCore::new();
    register(&mut s, 1, 1);
    let out = s.handle(1, Message::Busy { retry_after_ms: 5 }).into_messages();
    assert_eq!(count_kind(&out, "error-reply"), 1);
    assert_eq!(s.stats().unexpected_messages, 1);
}

#[test]
fn quarantine_store_cap_evicts_oldest_deadline_first() {
    let mut s: ServerCore<Endpoint> = ServerCore::with_liveness(cosoft_server::LivenessConfig {
        grace_us: 1_000_000,
        idle_timeout_us: 0,
        max_quarantined: 2,
    });
    let (a, _) = register_with_token(&mut s, 1, 1);
    let (b, _) = register_with_token(&mut s, 2, 2);
    let (c, _) = register_with_token(&mut s, 3, 3);
    // Stagger the deadlines: a's quarantine is oldest.
    s.disconnect(1).into_messages();
    s.tick(10).into_messages();
    s.disconnect(2).into_messages();
    s.tick(20).into_messages();
    assert_eq!(s.stats().quarantined_instances, 2);

    // The third quarantine exceeds the cap: a (oldest deadline) is
    // expired early through the full deregistration path.
    s.disconnect(3).into_messages();
    assert_eq!(s.stats().quarantined_instances, 2);
    assert_eq!(s.stats().quarantine_store_evictions, 1);
    assert!(!s.registry().contains(a), "oldest quarantine evicted");
    assert!(s.registry().contains(b));
    assert!(s.registry().contains(c));

    // Evicted early means its token is dead: rejoin is refused.
    // (b and c remain resumable.)
    s.tick(30).into_messages();
    assert_eq!(s.stats().quarantine_expiries, 0, "cap evictions are counted separately");
}

#[test]
fn quarantine_cap_zero_is_unbounded() {
    let mut s: ServerCore<Endpoint> = ServerCore::with_liveness(cosoft_server::LivenessConfig {
        grace_us: 1_000_000,
        idle_timeout_us: 0,
        max_quarantined: 0,
    });
    for e in 1..=20u64 {
        register_with_token(&mut s, e, e);
        s.disconnect(e).into_messages();
    }
    assert_eq!(s.stats().quarantined_instances, 20);
    assert_eq!(s.stats().quarantine_store_evictions, 0);
}

// ---- delta state sync (attribute-level transfers) --------------------------

/// A chain of forms, each level carrying a caption and a button so the
/// snapshot has realistic width, whose single varying leaf attribute
/// makes for a tiny delta against a large snapshot.
fn deep_tree(depth: usize, text: &str) -> StateNode {
    let mut node = StateNode::new(WidgetKind::Label, "leaf")
        .with_attr(AttrName::Text, Value::Text(text.into()));
    for level in (0..depth).rev() {
        node = StateNode::new(WidgetKind::Form, &format!("lvl{level}"))
            .with_attr(AttrName::Title, Value::Text(format!("panel {level}")))
            .with_child(
                StateNode::new(WidgetKind::Label, "caption")
                    .with_attr(AttrName::Text, Value::Text(format!("caption {level}"))),
            )
            .with_child(
                StateNode::new(WidgetKind::Button, "ok")
                    .with_attr(AttrName::Text, Value::Text("ok".into())),
            )
            .with_child(node);
    }
    node
}

/// Pushes `snapshot` from endpoint 1 to `dst` and returns the outgoing
/// batch addressed to the destination.
fn push_to(
    s: &mut ServerCore<Endpoint>,
    dst: GlobalObjectId,
    src: GlobalObjectId,
    snapshot: StateNode,
    req_id: u64,
) -> Vec<(Endpoint, Message)> {
    s.handle(1, Message::CopyTo { src, dst, snapshot, mode: CopyMode::Strict, req_id })
        .into_messages()
}

/// First contact travels as a full snapshot; once the destination has
/// acknowledged a base, subsequent transfers ride attribute-level deltas
/// that reconstruct the transmitted state exactly — in a quarter of the
/// snapshot's bytes at depth 6, and a smaller share the deeper the tree.
/// So do the undo of such a transfer and the first copy after the undo:
/// the viewer's record of what an apply overwrote is in the vocabulary of
/// the state it was sent, so the popped state diffs against the sync base
/// like any other (`coupling.rs` holds the same gate over real sessions).
/// And what each of those three applies overwrote is the base its delta
/// named, so the acknowledgement is a reference to it: a dozen bytes
/// however deep the tree, filed as the server's own encoding.
#[test]
fn second_transfer_to_acknowledged_destination_is_a_delta() {
    let (shallow, deep) = (delta_shares_of_snapshot(2), delta_shares_of_snapshot(6));
    assert!(deep.copy <= 0.25, "depth-6 single-attribute delta is {deep:.2?} of its snapshot");
    assert!(
        deep.copy < shallow.copy,
        "deeper trees must widen the gap: {deep:.2?} vs {shallow:.2?}"
    );
    assert!(deep.undo <= 0.25, "depth-6 undo leg is {deep:.2?} of the snapshot");
    assert!(
        deep.copy_after_undo <= 0.25,
        "depth-6 copy after an undo is {deep:.2?} of the snapshot"
    );
    assert!(
        shallow.largest_ack <= 12 && deep.largest_ack <= 12,
        "steady-state StateApplied frames: {shallow:?} at depth 2, {deep:?} at depth 6"
    );
}

/// Frame sizes of three delta legs as shares of the `ApplyState` frame
/// that seeded the destination's base, and the largest `StateApplied`
/// frame that answered one of them, in bytes.
#[derive(Debug)]
struct DeltaShares {
    copy: f64,
    undo: f64,
    copy_after_undo: f64,
    largest_ack: usize,
}

/// Pushes a `depth`-deep tree twice, one leaf attribute apart, undoes the
/// second push and pushes a third state; the viewer at endpoint 2 answers
/// each leg as a real one does: the first with the state it held, the
/// delta legs — each overwrote exactly its base — by reference.
fn delta_shares_of_snapshot(depth: usize) -> DeltaShares {
    let mut s: ServerCore<Endpoint> = ServerCore::new();
    let a = register(&mut s, 1, 1);
    let b = register(&mut s, 2, 2);

    let v0 = deep_tree(depth, "v0");
    let v1 = deep_tree(depth, "v1");
    let v2 = deep_tree(depth, "v2");
    let v3 = deep_tree(depth, "v3");

    // First push: no base cached, full snapshot; the reply carries the
    // state in full and is still no larger than the `CopyTo`.
    let copy_to = Message::CopyTo {
        src: gid(a, "f"),
        dst: gid(b, "f"),
        snapshot: v1.clone(),
        mode: CopyMode::Strict,
        req_id: 1,
    };
    let copy_to_bytes = codec::frame_message(&copy_to).len();
    let out = s.handle(1, copy_to).into_messages();
    let snapshot_bytes = codec::frame_message(find(&out, 2, "apply-state")).len();
    let req_id = match find(&out, 2, "apply-state") {
        Message::ApplyState { req_id, .. } => *req_id,
        _ => unreachable!(),
    };
    assert_eq!(s.stats().delta_legs_sent, 0);
    let first_reply = Message::StateApplied { req_id, overwritten: Some(v0.into()), error: None };
    assert!(codec::frame_message(&first_reply).len() <= copy_to_bytes);
    s.handle(2, first_reply).into_messages();
    assert_eq!(s.history().undo_depth(&gid(b, "f")), 1);

    // A leg that must be the delta `base` → `target`: its share of the
    // snapshot frame and its request id.
    let delta_leg = |out: &[(Endpoint, Message)], base: &StateNode, target: &StateNode| {
        let leg = find(out, 2, "apply-delta");
        match leg {
            Message::ApplyDelta { req_id, base_version, new_version, delta: d, .. } => {
                assert_eq!(*base_version, delta::state_version(base));
                assert_eq!(*new_version, delta::state_version(target));
                assert_eq!(&delta::apply(base, d).unwrap(), target);
                (codec::frame_message(leg).len() as f64 / snapshot_bytes as f64, *req_id)
            }
            _ => unreachable!(),
        }
    };
    let mut largest_ack = 0;
    let mut ack_by_reference = |s: &mut ServerCore<Endpoint>, req_id: u64| {
        let reply =
            Message::StateApplied { req_id, overwritten: Some(Overwritten::Base), error: None };
        largest_ack = largest_ack.max(codec::frame_message(&reply).len());
        s.handle(2, reply).into_messages()
    };

    // Second push: the acknowledged v1 base turns it into a delta.
    let out = push_to(&mut s, gid(b, "f"), gid(a, "f"), v2.clone(), 2);
    let (copy, req_id) = delta_leg(&out, &v1, &v2);
    let stats = s.stats();
    assert_eq!(stats.delta_legs_sent, 1);
    assert_eq!(stats.delta_fallbacks, 0);
    let out = ack_by_reference(&mut s, req_id);
    match find(&out, 1, "state-applied") {
        Message::StateApplied { req_id, .. } => assert_eq!(*req_id, 2),
        _ => unreachable!(),
    }
    assert_eq!(s.history().undo_depth(&gid(b, "f")), 2);

    // Undo: the entry filed by reference is v1, and goes out as a delta
    // against the v2 base.
    let out = s.handle(1, Message::UndoState { object: gid(b, "f") }).into_messages();
    let (undo, req_id) = delta_leg(&out, &v2, &v1);
    ack_by_reference(&mut s, req_id);
    assert_eq!(s.history().redo_depth(&gid(b, "f")), 1);

    // And the copy after it as one against the v1 the undo left.
    let out = push_to(&mut s, gid(b, "f"), gid(a, "f"), v3.clone(), 3);
    let (copy_after_undo, req_id) = delta_leg(&out, &v1, &v3);
    ack_by_reference(&mut s, req_id);
    let stats = s.stats();
    assert_eq!((stats.delta_legs_sent, stats.delta_fallbacks, stats.acks_by_reference), (3, 0, 3));
    DeltaShares { copy, undo, copy_after_undo, largest_ack }
}

/// One copy onto four coupled viewers, each of which overwrote the state
/// the copy before it installed: four acknowledgements by reference, and
/// the four history entries they file are the one buffer the server
/// encoded that state into — not a frame each.
#[test]
fn viewers_acknowledging_by_reference_share_one_history_buffer() {
    let mut s: ServerCore<Endpoint> = ServerCore::new();
    let presenter = register(&mut s, 1, 1);
    let viewers: Vec<(Endpoint, InstanceId)> =
        (2..=5).map(|e| (e, register(&mut s, e, e))).collect();
    for pair in viewers.windows(2) {
        let (src, dst) = (gid(pair[0].1, "f"), gid(pair[1].1, "f"));
        s.handle(pair[0].0, Message::Couple { src, dst }).into_messages();
    }
    let board = gid(viewers[0].1, "f");
    let legs = |out: &[(Endpoint, Message)]| -> Vec<(Endpoint, u64)> {
        out.iter()
            .filter_map(|(e, m)| match m {
                Message::ApplyState { req_id, .. } | Message::ApplyDelta { req_id, .. } => {
                    Some((*e, *req_id))
                }
                _ => None,
            })
            .collect()
    };

    let (v1, v2) = (deep_tree(4, "v1"), deep_tree(4, "v2"));
    let out = push_to(&mut s, board.clone(), gid(presenter, "f"), v1.clone(), 1);
    assert_eq!(count_kind(&out, "apply-state"), 4);
    for (endpoint, req_id) in legs(&out) {
        let own = deep_tree(4, &format!("viewer {endpoint}"));
        s.handle(
            endpoint,
            Message::StateApplied { req_id, overwritten: Some(own.into()), error: None },
        )
        .into_messages();
    }
    assert_eq!(s.stats().acks_by_reference, 0, "first contact is acknowledged in full");

    let out = push_to(&mut s, board, gid(presenter, "f"), v2, 2);
    assert_eq!(count_kind(&out, "apply-delta"), 4);
    for (endpoint, req_id) in legs(&out) {
        s.handle(
            endpoint,
            Message::StateApplied { req_id, overwritten: Some(Overwritten::Base), error: None },
        )
        .into_messages();
    }
    assert_eq!(s.stats().acks_by_reference, 4);

    let newest: Vec<_> = viewers
        .iter()
        .map(|(_, v)| s.history().newest_undo(&gid(*v, "f")).expect("filed").clone())
        .collect();
    for entry in &newest {
        assert_eq!(entry.decode().unwrap(), v1);
        assert_eq!(entry.as_slice().as_ptr(), newest[0].as_slice().as_ptr());
    }
    s.check_invariants().unwrap();
}

/// A reply that reports a failed apply files nothing, whatever else it
/// carries: the debris of a failed apply is no historical UI state, and
/// an undo would fan it out to the whole couple group.
#[test]
fn failed_apply_files_no_overwritten_state() {
    let mut s: ServerCore<Endpoint> = ServerCore::new();
    let a = register(&mut s, 1, 1);
    let b = register(&mut s, 2, 2);
    let (v1, v2) = (deep_tree(2, "v1"), deep_tree(2, "v2"));

    let out = push_to(&mut s, gid(b, "f"), gid(a, "f"), v1.clone(), 1);
    let req_id = match find(&out, 2, "apply-state") {
        Message::ApplyState { req_id, .. } => *req_id,
        _ => unreachable!(),
    };
    let out = s
        .handle(
            2,
            Message::StateApplied {
                req_id,
                overwritten: Some(v2.into()),
                error: Some("half applied".into()),
            },
        )
        .into_messages();
    match find(&out, 1, "error-reply") {
        Message::ErrorReply { reason, .. } => assert_eq!(reason, "half applied"),
        _ => unreachable!(),
    }
    assert_eq!(s.history().undo_depth(&gid(b, "f")), 0, "nothing recorded");
    let out = s.handle(1, Message::UndoState { object: gid(b, "f") }).into_messages();
    assert_eq!(count_kind(&out, "apply-state") + count_kind(&out, "apply-delta"), 0);
    assert!(matches!(find(&out, 1, "error-reply"), Message::ErrorReply { .. }));
    s.check_invariants().unwrap();
}

/// Acknowledgements by reference that refer to nothing. Only a delta leg
/// carries a base: in answer to a first-contact `ApplyState`, or to the
/// `ApplyState` a refused delta fell back to, the reference fails the leg
/// by name — nothing filed, no sync base installed, the requester told —
/// and together with an error it is the error that counts.
#[test]
fn stray_acknowledgement_by_reference_fails_the_leg() {
    let mut s: ServerCore<Endpoint> = ServerCore::new();
    let a = register(&mut s, 1, 1);
    let b = register(&mut s, 2, 2);
    let (v1, v2, v3) = (deep_tree(2, "v1"), deep_tree(2, "v2"), deep_tree(2, "v3"));
    let by_reference = |req_id: u64, error: Option<&str>| Message::StateApplied {
        req_id,
        overwritten: Some(Overwritten::Base),
        error: error.map(str::to_owned),
    };
    let leg = |out: &[(Endpoint, Message)], kind: &str| match find(out, 2, kind) {
        Message::ApplyState { req_id, .. } | Message::ApplyDelta { req_id, .. } => *req_id,
        _ => unreachable!(),
    };
    let refused = |out: &[(Endpoint, Message)]| match find(out, 1, "error-reply") {
        Message::ErrorReply { context, reason } => {
            assert_eq!(context, "copy");
            assert_eq!(reason, "acknowledged by reference to a base the leg did not carry");
        }
        _ => unreachable!(),
    };

    // To nobody's leg: ignored, as any unknown transfer id is.
    assert!(s.handle(2, by_reference(99, None)).is_empty());

    // To a first-contact leg.
    let out = push_to(&mut s, gid(b, "f"), gid(a, "f"), v1.clone(), 1);
    let req_id = leg(&out, "apply-state");
    refused(&s.handle(2, by_reference(req_id, None)).into_messages());
    assert_eq!(s.history().undo_depth(&gid(b, "f")), 0);
    // No base was installed: the next push is a full snapshot again.
    let out = push_to(&mut s, gid(b, "f"), gid(a, "f"), v1.clone(), 2);
    let req_id = leg(&out, "apply-state");
    s.handle(2, Message::StateApplied { req_id, overwritten: None, error: None }).into_messages();

    // With an error, to a delta leg: the error decides, and the leg falls
    // back to the full snapshot like any refused delta.
    let out = push_to(&mut s, gid(b, "f"), gid(a, "f"), v2.clone(), 3);
    let req_id = leg(&out, "apply-delta");
    let out = s.handle(2, by_reference(req_id, Some("no base cached"))).into_messages();
    assert_eq!(s.stats().delta_fallbacks, 1);
    let fallback = leg(&out, "apply-state");
    assert_eq!(count_kind(&out, "error-reply") + count_kind(&out, "state-applied"), 0);

    // To that fallback leg: it carried the snapshot, not a base.
    refused(&s.handle(2, by_reference(fallback, None)).into_messages());
    assert_eq!(s.history().undo_depth(&gid(b, "f")), 0);
    let out = push_to(&mut s, gid(b, "f"), gid(a, "f"), v3, 4);
    leg(&out, "apply-state");

    let stats = s.stats();
    assert_eq!((stats.acks_by_reference, stats.transfers_failed), (0, 2));
    s.check_invariants().unwrap();
}

/// A destination that rejects a delta (diverged or missing base) gets the
/// same state re-sent as a full snapshot, the transfer group still
/// completes, and the fallback re-primes the base so the next transfer is
/// a delta again.
#[test]
fn rejected_delta_falls_back_to_full_snapshot_and_converges() {
    let mut s: ServerCore<Endpoint> = ServerCore::new();
    let a = register(&mut s, 1, 1);
    let b = register(&mut s, 2, 2);

    let v1 = deep_tree(4, "v1");
    let v2 = deep_tree(4, "v2");
    let v3 = deep_tree(4, "v3");

    let out = push_to(&mut s, gid(b, "f"), gid(a, "f"), v1, 1);
    let req_id = match find(&out, 2, "apply-state") {
        Message::ApplyState { req_id, .. } => *req_id,
        _ => unreachable!(),
    };
    s.handle(2, Message::StateApplied { req_id, overwritten: None, error: None }).into_messages();

    // The client lost its base (say, it re-created the widget). It must
    // reject the delta; the server resends the full snapshot under a
    // fresh request id without failing the transfer group.
    let out = push_to(&mut s, gid(b, "f"), gid(a, "f"), v2.clone(), 2);
    let req_id = match find(&out, 2, "apply-delta") {
        Message::ApplyDelta { req_id, .. } => *req_id,
        _ => unreachable!(),
    };
    let out = s
        .handle(
            2,
            Message::StateApplied {
                req_id,
                overwritten: None,
                error: Some("delta base version mismatch: no base cached".into()),
            },
        )
        .into_messages();
    assert_eq!(s.stats().delta_fallbacks, 1);
    let fallback_req = match find(&out, 2, "apply-state") {
        Message::ApplyState { req_id: r, snapshot, .. } => {
            assert_eq!(snapshot, &v2, "fallback must carry the full target state");
            assert_ne!(*r, req_id, "fallback is a fresh request");
            *r
        }
        _ => unreachable!(),
    };
    // The requester has not been answered yet: the group is still open.
    assert!(!out.iter().any(|(e, m)| *e == 1 && m.kind_name() == "state-applied"));

    let out = s
        .handle(2, Message::StateApplied { req_id: fallback_req, overwritten: None, error: None })
        .into_messages();
    match find(&out, 1, "state-applied") {
        Message::StateApplied { req_id, error, .. } => {
            assert_eq!(*req_id, 2);
            assert!(error.is_none(), "group completes cleanly after the fallback");
        }
        _ => unreachable!(),
    }

    // The fallback re-primed the base: the next push is a delta again.
    let out = push_to(&mut s, gid(b, "f"), gid(a, "f"), v3.clone(), 3);
    match find(&out, 2, "apply-delta") {
        Message::ApplyDelta { base_version, delta: d, .. } => {
            assert_eq!(*base_version, delta::state_version(&v2));
            assert_eq!(delta::apply(&v2, d).unwrap(), v3);
        }
        _ => unreachable!(),
    }
}

// ---- delta pushes (`CopyDelta`) ---------------------------------------------

/// What `Session::copy_to` sends from its second push on: the edits from
/// `base`, the snapshot it shipped last, to `next`.
fn copy_delta(
    src: GlobalObjectId,
    dst: GlobalObjectId,
    base: &StateNode,
    next: &StateNode,
    req_id: u64,
) -> Message {
    Message::CopyDelta {
        src,
        dst,
        base_version: delta::state_version(base),
        new_version: delta::state_version(next),
        delta: delta::diff(base, next),
        mode: CopyMode::Strict,
        req_id,
    }
}

/// Answers the leg `out` carries to `endpoint`, from that endpoint, as
/// applied; returns what the server sends in turn.
fn acknowledge(
    s: &mut ServerCore<Endpoint>,
    out: &[(Endpoint, Message)],
    endpoint: Endpoint,
) -> Vec<(Endpoint, Message)> {
    let req_id = out
        .iter()
        .find_map(|(e, m)| match m {
            Message::ApplyState { req_id, .. } | Message::ApplyDelta { req_id, .. }
                if *e == endpoint =>
            {
                Some(*req_id)
            }
            _ => None,
        })
        .unwrap_or_else(|| panic!("no leg to endpoint {endpoint} in {out:?}"));
    s.handle(endpoint, Message::StateApplied { req_id, overwritten: None, error: None })
        .into_messages()
}

/// The legs of a fan-out without their transfer ids, which differ by one
/// between a push and the pull it degrades to.
fn legs_sans_ids(out: &[(Endpoint, Message)]) -> Vec<(Endpoint, Message)> {
    out.iter()
        .filter_map(|(e, m)| match m.clone() {
            Message::ApplyState { path, snapshot, mode, .. } => {
                Some((*e, Message::ApplyState { req_id: 0, path, snapshot, mode }))
            }
            Message::ApplyDelta { path, base_version, new_version, delta, mode, .. } => Some((
                *e,
                Message::ApplyDelta { req_id: 0, path, base_version, new_version, delta, mode },
            )),
            _ => None,
        })
        .collect()
}

/// The push half of the wire-size gate. The first push of an object
/// travels in full and is its sync base at both ends; every push after it
/// is the edits since — a quarter of the `CopyTo` frame at depth 6, a
/// smaller share the deeper the tree — and causes exactly the deliveries
/// the `CopyTo` of the same state would have.
#[test]
fn second_push_of_an_object_is_a_delta() {
    let share_at = |depth: usize| {
        let mut s: ServerCore<Endpoint> = ServerCore::new();
        let a = register(&mut s, 1, 1);
        let b = register(&mut s, 2, 2);
        let (v1, v2) = (deep_tree(depth, "v1"), deep_tree(depth, "v2"));
        let out = push_to(&mut s, gid(b, "f"), gid(a, "f"), v1.clone(), 1);
        acknowledge(&mut s, &out, 2);

        let in_full = Message::CopyTo {
            src: gid(a, "f"),
            dst: gid(b, "f"),
            snapshot: v2.clone(),
            mode: CopyMode::Strict,
            req_id: 2,
        };
        let push = copy_delta(gid(a, "f"), gid(b, "f"), &v1, &v2, 2);
        let share =
            codec::frame_message(&push).len() as f64 / codec::frame_message(&in_full).len() as f64;
        let expected = s.clone().handle(1, in_full).into_messages();
        let out = s.handle(1, push).into_messages();
        assert_eq!(out, expected, "depth {depth}: a delta push and a full one deliver alike");
        assert_eq!(count_kind(&out, "apply-delta"), 1);
        let stats = s.stats();
        assert_eq!((stats.pushes_by_delta, stats.push_fallbacks), (1, 0));
        s.check_invariants().unwrap();
        share
    };
    let (shallow, deep) = (share_at(2), share_at(6));
    assert!(deep <= 0.25, "depth-6 single-attribute CopyDelta is {deep:.2} of its CopyTo");
    assert!(deep < shallow, "deeper trees must widen the gap: {deep:.2} vs {shallow:.2}");
}

/// Only the owner of an object may push edits of it: the base the edits
/// name is the owner's connection's. Refused, and nothing installed.
/// A `CopyTo` naming a foreign source — the sender vouches for a whole
/// state, not for edits — still works, and installs no base either.
#[test]
fn pushes_naming_a_foreign_source() {
    let mut s: ServerCore<Endpoint> = ServerCore::new();
    let a = register(&mut s, 1, 1);
    let b = register(&mut s, 2, 2);
    let c = register(&mut s, 3, 3);
    let (v1, v2, v3) = (deep_tree(2, "v1"), deep_tree(2, "v2"), deep_tree(2, "v3"));
    // a's own push seeds a's base.
    let out = push_to(&mut s, gid(b, "f"), gid(a, "f"), v1.clone(), 1);
    acknowledge(&mut s, &out, 2);

    // c pushes edits "of a's object".
    let out = s.handle(3, copy_delta(gid(a, "f"), gid(b, "f"), &v1, &v2, 1)).into_messages();
    assert!(matches!(find(&out, 3, "permission-denied"), Message::PermissionDenied { .. }));
    assert_eq!(out.len(), 1, "{out:?}");
    let stats = s.stats();
    assert_eq!((stats.pushes_by_delta, stats.push_fallbacks, stats.transfers_started), (0, 0, 1));

    // c pushes a whole state in a's name onto its own object: delivered…
    let out = s
        .handle(
            3,
            Message::CopyTo {
                src: gid(a, "f"),
                dst: gid(c, "f"),
                snapshot: v3.clone(),
                mode: CopyMode::Strict,
                req_id: 2,
            },
        )
        .into_messages();
    match find(&out, 3, "apply-state") {
        Message::ApplyState { snapshot, .. } => assert_eq!(*snapshot, v3),
        _ => unreachable!(),
    }
    // …and a's base is still the v1 a pushed: a's next delta is accepted.
    let out = s.handle(1, copy_delta(gid(a, "f"), gid(b, "f"), &v1, &v2, 2)).into_messages();
    assert_eq!(count_kind(&out, "apply-delta"), 1);
    let stats = s.stats();
    assert_eq!((stats.pushes_by_delta, stats.push_fallbacks), (1, 0));
    s.check_invariants().unwrap();
}

/// Every way a `CopyDelta` can disagree with the server's copy of the
/// base costs its sender one round trip and nothing else: the server
/// drops its base, asks the sender for the state in full, and the reply
/// — which seeds the base anew — causes the deliveries a `CopyTo` of that
/// state would have. The push after it is a delta again.
#[test]
fn unusable_copy_delta_degrades_to_a_pull() {
    let (v1, v2, v3) = (deep_tree(3, "v1"), deep_tree(3, "v2"), deep_tree(3, "v3"));
    type Spoil = fn(&mut u64, &mut u64, &mut StateDelta);
    let cases: [(&str, bool, Spoil); 4] = [
        ("no base", false, |_, _, _| {}),
        ("stale base version", true, |base_version, _, _| *base_version ^= 1),
        ("wrong new version", true, |_, new_version, _| *new_version ^= 1),
        ("edit path that does not resolve", true, |_, _, delta| {
            delta.edits[0].path = vec!["nowhere".into()];
        }),
    ];
    for (what, seeded, spoil) in cases {
        let mut s: ServerCore<Endpoint> = ServerCore::new();
        let a = register(&mut s, 1, 1);
        let b = register(&mut s, 2, 2);
        if seeded {
            let out = push_to(&mut s, gid(b, "f"), gid(a, "f"), v1.clone(), 1);
            acknowledge(&mut s, &out, 2);
        }

        let mut push = copy_delta(gid(a, "f"), gid(b, "f"), &v1, &v2, 2);
        if let Message::CopyDelta { base_version, new_version, delta, .. } = &mut push {
            spoil(base_version, new_version, delta);
        }
        let in_full = Message::CopyTo {
            src: gid(a, "f"),
            dst: gid(b, "f"),
            snapshot: v2.clone(),
            mode: CopyMode::Strict,
            req_id: 2,
        };
        let expected = s.clone().handle(1, in_full).into_messages();

        let out = s.handle(1, push).into_messages();
        let req_id = match &out[..] {
            [(1, Message::StateRequest { req_id, path })] => {
                assert_eq!(path.to_string(), "f", "{what}");
                *req_id
            }
            other => panic!("{what}: expected one StateRequest to the sender, got {other:?}"),
        };
        let stats = s.stats();
        assert_eq!((stats.pushes_by_delta, stats.push_fallbacks), (0, 1), "{what}");
        let out =
            s.handle(1, Message::StateReply { req_id, snapshot: Some(v2.clone()) }).into_messages();
        assert_eq!(legs_sans_ids(&out), legs_sans_ids(&expected), "{what}");
        match find(&acknowledge(&mut s, &out, 2), 1, "state-applied") {
            Message::StateApplied { req_id: 2, error: None, .. } => {}
            other => panic!("{what}: expected the copy to complete, got {other:?}"),
        }

        // The reply seeded the base: the next push is accepted as a delta.
        let out = s.handle(1, copy_delta(gid(a, "f"), gid(b, "f"), &v2, &v3, 3)).into_messages();
        assert_eq!(count_kind(&out, "apply-delta"), 1, "{what}");
        let stats = s.stats();
        assert_eq!((stats.pushes_by_delta, stats.push_fallbacks), (1, 1), "{what}");
        s.check_invariants().unwrap();
    }
}

/// A push records the source's base before the permission checks: the
/// session has recorded it already, and a refused copy must not leave the
/// two ends a version apart.
#[test]
fn refused_push_still_moves_the_base() {
    let mut s: ServerCore<Endpoint> = ServerCore::with_default_right(AccessRight::Read);
    let a = register(&mut s, 1, 1);
    let b = register(&mut s, 2, 2);
    let (v1, v2) = (deep_tree(2, "v1"), deep_tree(2, "v2"));
    let out = push_to(&mut s, gid(b, "f"), gid(a, "f"), v1.clone(), 1);
    assert!(matches!(find(&out, 1, "permission-denied"), Message::PermissionDenied { .. }));
    // Refused again, as a delta — not as a fallback.
    let out = s.handle(1, copy_delta(gid(a, "f"), gid(b, "f"), &v1, &v2, 2)).into_messages();
    assert!(matches!(find(&out, 1, "permission-denied"), Message::PermissionDenied { .. }));
    assert_eq!(out.len(), 1, "{out:?}");
    let stats = s.stats();
    assert_eq!((stats.pushes_by_delta, stats.push_fallbacks), (1, 0));
    s.check_invariants().unwrap();
}

/// Deregistration and object destruction purge history chains and delta
/// bases for the departed objects, and the purges are counted. Without
/// this, the history and sync-base maps grow without bound under
/// register/leave churn.
#[test]
fn teardown_purges_history_and_sync_bases() {
    let mut s: ServerCore<Endpoint> = ServerCore::new();
    let a = register(&mut s, 1, 1);
    let b = register(&mut s, 2, 2);

    for (req, text) in [(1, "v1"), (2, "v2"), (3, "v3")] {
        let out = push_to(&mut s, gid(b, "f"), gid(a, "f"), deep_tree(3, text), req);
        let req_id = out
            .iter()
            .find_map(|(e, m)| match m {
                Message::ApplyState { req_id, .. } | Message::ApplyDelta { req_id, .. }
                    if *e == 2 =>
                {
                    Some(*req_id)
                }
                _ => None,
            })
            .unwrap();
        s.handle(
            2,
            Message::StateApplied {
                req_id,
                overwritten: Some(deep_tree(3, "prev").into()),
                error: None,
            },
        )
        .into_messages();
    }
    assert!(s.history().undo_depth(&gid(b, "f")) >= 2);
    assert_eq!(s.stats().history_purges, 0);

    s.handle(2, Message::Deregister).into_messages();
    let stats = s.stats();
    assert_eq!(stats.history_purges, 1, "one object's chains purged with its instance");
    assert_eq!(s.history().undo_depth(&gid(b, "f")), 0);
}

/// Satellite for the explorer/model-checker: forking the server with
/// `clone()` must share history storage via `Arc`, not deep-copy every
/// recorded snapshot — forking cost must not scale with history depth.
#[test]
fn forked_core_shares_history_storage() {
    let mut s: ServerCore<Endpoint> = ServerCore::new();
    let a = register(&mut s, 1, 1);
    let b = register(&mut s, 2, 2);

    for req in 1..=32u64 {
        let out = push_to(&mut s, gid(b, "f"), gid(a, "f"), deep_tree(6, &format!("v{req}")), req);
        let req_id = out
            .iter()
            .find_map(|(e, m)| match m {
                Message::ApplyState { req_id, .. } | Message::ApplyDelta { req_id, .. }
                    if *e == 2 =>
                {
                    Some(*req_id)
                }
                _ => None,
            })
            .unwrap();
        s.handle(
            2,
            Message::StateApplied {
                req_id,
                overwritten: Some(deep_tree(6, &format!("v{}", req - 1)).into()),
                error: None,
            },
        )
        .into_messages();
    }
    assert!(s.history().undo_depth(&gid(b, "f")) >= 16);

    let fork = s.clone();
    assert!(
        fork.history().storage_is_shared_with(s.history()),
        "cloned history must share its chain storage entry-for-entry"
    );
}

// ---- churn: the folded database leaks nothing ------------------------------

/// Names the seed of the script that is running when a panic unwinds
/// through it — the test's own or a debug-build invariant check inside
/// the server.
struct NameSeedOnPanic(u64);

impl Drop for NameSeedOnPanic {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("churn script failed: seed {}", self.0);
        }
    }
}

/// Something the server asked of a client, which the script may answer
/// late, answer wrongly, or never answer.
#[derive(Clone, Copy)]
enum Owed {
    Reply { req_id: u64 },
    Ack { req_id: u64, delta: bool },
    Done { exec_id: u64 },
}

struct ChurnClient {
    /// `None` while its connection is dropped.
    endpoint: Option<Endpoint>,
    instance: InstanceId,
    token: u64,
    owed: Vec<Owed>,
}

const CHURN_GRACE_US: u64 = 10_000;

struct Churn {
    router: ShardRouter<Endpoint>,
    rng: Rng,
    clients: Vec<ChurnClient>,
    /// Every resume token the server ever issued.
    tokens: Vec<u64>,
    next_endpoint: Endpoint,
    now_us: u64,
}

impl Churn {
    /// Files what the server sent: each client's new token, and what it
    /// now owes an answer to.
    fn deliver(&mut self, out: Outgoing<Endpoint>) {
        for (endpoint, msg) in out.into_messages() {
            let Some(client) = self.clients.iter_mut().find(|c| c.endpoint == Some(endpoint))
            else {
                continue;
            };
            match msg {
                Message::SessionToken { resume_token } => {
                    client.token = resume_token;
                    self.tokens.push(resume_token);
                }
                Message::StateRequest { req_id, .. } => client.owed.push(Owed::Reply { req_id }),
                Message::ApplyState { req_id, .. } => {
                    client.owed.push(Owed::Ack { req_id, delta: false });
                }
                Message::ApplyDelta { req_id, .. } => {
                    client.owed.push(Owed::Ack { req_id, delta: true });
                }
                Message::EventGranted { exec_id, .. } | Message::ExecuteEvent { exec_id, .. } => {
                    client.owed.push(Owed::Done { exec_id });
                }
                _ => {}
            }
        }
    }

    fn send(&mut self, endpoint: Endpoint, msg: Message) {
        let out = self.router.handle(endpoint, msg);
        self.deliver(out);
    }

    /// Opens a connection and registers on it or, with a token, rejoins;
    /// whether the server welcomed it.
    fn connect(&mut self, rejoin: Option<u64>) -> bool {
        let endpoint = self.next_endpoint;
        self.next_endpoint += 1;
        let hello = match rejoin {
            Some(resume_token) => Message::Rejoin { resume_token },
            None => Message::Register { user: UserId(1), host: "ws".into(), app_name: "c".into() },
        };
        let out = self.router.handle(endpoint, hello);
        let welcome = out.clone().into_messages().into_iter().find_map(|(_, m)| match m {
            Message::Welcome { instance } => Some(instance),
            _ => None,
        });
        let Some(instance) = welcome else {
            self.router.disconnect(endpoint);
            return false;
        };
        match self.clients.iter_mut().find(|c| c.instance == instance) {
            Some(client) => client.endpoint = Some(endpoint),
            None => self.clients.push(ChurnClient {
                endpoint: Some(endpoint),
                instance,
                token: 0,
                owed: Vec::new(),
            }),
        }
        self.deliver(out);
        true
    }

    fn state(&mut self) -> StateNode {
        deep_tree(1, &format!("v{}", self.rng.range(0..3)))
    }

    /// Answers one thing `client` owes — rightly, with a refusal, or with
    /// a reference to a base the leg may not have.
    fn answer(&mut self, client: usize, endpoint: Endpoint) {
        if self.clients[client].owed.is_empty() {
            return;
        }
        let which = self.rng.range(0..self.clients[client].owed.len());
        let msg = match self.clients[client].owed.swap_remove(which) {
            Owed::Done { exec_id } => Message::ExecuteDone { exec_id },
            Owed::Reply { req_id } => {
                let snapshot = (self.rng.range(0..100) < 85).then(|| self.state());
                Message::StateReply { req_id, snapshot }
            }
            Owed::Ack { req_id, delta } => {
                let (overwritten, error) = match self.rng.range(0..10) {
                    // A refused delta leg falls back to a full one.
                    0..=2 if delta => (None, Some("base diverged".to_owned())),
                    0 => (None, Some("no such object".to_owned())),
                    1..=4 => (Some(Overwritten::Base), None),
                    _ => (Some(self.state().into()), None),
                };
                Message::StateApplied { req_id, overwritten, error }
            }
        };
        self.send(endpoint, msg);
    }

    /// One step: a connected client acts on its own object and that of
    /// some client, connected or not — or a new client registers.
    fn step(&mut self) -> &'static str {
        let roll = self.rng.range(0..100);
        let connected: Vec<usize> =
            (0..self.clients.len()).filter(|i| self.clients[*i].endpoint.is_some()).collect();
        if roll < 10 || connected.is_empty() {
            if self.clients.len() < 7 {
                self.connect(None);
            }
            return "register";
        }
        let actor = connected[self.rng.range(0..connected.len())];
        let Some(endpoint) = self.clients[actor].endpoint else { return "nothing" };
        let own = gid(self.clients[actor].instance, "o");
        let other = gid(self.clients[self.rng.range(0..self.clients.len())].instance, "o");
        let (mode, req_id) = (CopyMode::DestructiveMerge, self.rng.next_u64());
        match roll {
            10..=21 => {
                self.send(endpoint, Message::Couple { src: own, dst: other });
                "couple"
            }
            22..=25 => {
                self.send(endpoint, Message::Decouple { src: own, dst: other });
                "decouple"
            }
            26..=33 => {
                let event =
                    UiEvent::simple(ObjectPath::parse("o").unwrap(), EventKind::TextCommitted);
                self.send(endpoint, Message::Event { origin: own, event, seq: req_id });
                "event"
            }
            34..=45 => {
                let snapshot = self.state();
                self.send(
                    endpoint,
                    Message::CopyTo { src: own, dst: other, snapshot, mode, req_id },
                );
                "copy-to"
            }
            46..=53 => {
                self.send(endpoint, Message::CopyFrom { src: other, dst: own, mode, req_id });
                "copy-from"
            }
            54..=57 => {
                self.send(endpoint, Message::UndoState { object: other });
                "undo"
            }
            58..=77 => {
                self.answer(actor, endpoint);
                "answer"
            }
            78..=84 => {
                let out = self.router.disconnect(endpoint);
                self.clients[actor].endpoint = None;
                self.deliver(out);
                "disconnect"
            }
            85..=91 => {
                // Whoever has been gone longest comes back, if its grace
                // has not run out or its place in quarantine been taken.
                if let Some(gone) = self.clients.iter().position(|c| c.endpoint.is_none()) {
                    if !self.connect(Some(self.clients[gone].token)) {
                        self.clients.remove(gone);
                    }
                }
                "rejoin"
            }
            92..=93 => {
                self.send(endpoint, Message::Deregister);
                self.clients.remove(actor);
                "deregister"
            }
            _ => {
                let past_grace = self.rng.range(0..100) < 30;
                self.now_us += if past_grace { CHURN_GRACE_US + 1 } else { CHURN_GRACE_US / 20 };
                let out = self.router.tick(self.now_us);
                self.deliver(out);
                "tick"
            }
        }
    }
}

/// Whatever order registrations, couples across the two shards, events,
/// pushes, pulls whose reply is withheld, acknowledgements right and
/// wrong, delta fallbacks, disconnects, rejoins and grace expiries come
/// in — components migrating mid-transfer and mid-quarantine — every
/// table agrees with every index after every step, and once everyone has
/// left and the grace has run out nothing is left: no gauge above zero,
/// no history, no sync base, no token that still resumes anything.
#[test]
fn churn_leaves_nothing_behind() {
    let liveness = LivenessConfig {
        grace_us: CHURN_GRACE_US,
        idle_timeout_us: 4 * CHURN_GRACE_US,
        max_quarantined: 3,
    };
    for seed in 0..320 {
        let _seed = NameSeedOnPanic(seed);
        let mut churn = Churn {
            router: ShardRouter::with_liveness(2, liveness),
            rng: Rng::new(seed),
            clients: Vec::new(),
            tokens: Vec::new(),
            next_endpoint: 0,
            now_us: 0,
        };
        for step in 0..160 {
            let what = churn.step();
            if let Err(e) = churn.router.check_invariants() {
                panic!("step {step} ({what}): {e}");
            }
        }
        // Everyone leaves, by closing the connection or by saying so first.
        let connected: Vec<Endpoint> = churn.clients.iter().filter_map(|c| c.endpoint).collect();
        for endpoint in connected {
            if churn.rng.range(0..2) == 0 {
                churn.router.handle(endpoint, Message::Deregister);
            }
            churn.router.disconnect(endpoint);
            churn.router.check_invariants().unwrap();
        }
        churn.router.tick(churn.now_us + CHURN_GRACE_US);
        churn.router.check_invariants().unwrap();
        let stats = churn.router.stats();
        let gauges = [
            stats.registered_instances,
            stats.quarantined_instances,
            stats.live_transfer_groups,
            stats.live_transfer_legs,
            stats.live_pending_pulls,
            stats.live_execs,
            stats.held_locks,
            stats.overload_tracked_endpoints,
        ];
        assert_eq!(gauges, [0; 8], "{stats:?}");
        assert_eq!(
            stats.transfers_started,
            stats.transfers_completed + stats.transfers_failed,
            "every transfer group was answered or counted lost"
        );
        for shard in 0..churn.router.shard_count() {
            let core = churn.router.shard(shard);
            assert!(core.history().is_empty() && core.couples().is_empty());
            assert_eq!(core.token_count(), 0);
        }
        for token in std::mem::take(&mut churn.tokens) {
            assert!(!churn.connect(Some(token)), "token {token:#x} still resumes");
        }
    }
}
