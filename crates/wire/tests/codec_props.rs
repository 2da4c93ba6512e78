//! Property-based tests for the wire codec: `decode(encode(m)) == m` for
//! arbitrary protocol values, and decoder robustness on arbitrary bytes.

use proptest::prelude::*;

use cosoft_wire::{codec, delta};
use cosoft_wire::{
    AccessRight, AttrName, CopyMode, EventKind, GlobalObjectId, InstanceId, Message, ObjectPath,
    Overwritten, StateNode, Target, UiEvent, UserId, Value, WidgetKind,
};

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Float),
        "[a-zA-Z0-9 _\\-\u{e4}\u{f6}]{0,24}".prop_map(Value::Text),
        prop::collection::vec("[a-z]{0,8}", 0..5).prop_map(Value::TextList),
        prop::collection::vec(any::<i64>(), 0..6).prop_map(Value::IntList),
        (any::<i32>(), any::<i32>()).prop_map(|(x, y)| Value::Point(x, y)),
        (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(r, g, b)| Value::Color(r, g, b)),
        prop::collection::vec(any::<u8>(), 0..32).prop_map(Value::Bytes),
        prop::collection::vec((any::<i32>(), any::<i32>()), 0..16).prop_map(Value::Stroke),
        prop::collection::vec(prop::collection::vec((any::<i32>(), any::<i32>()), 0..6), 0..5)
            .prop_map(Value::StrokeList),
    ]
}

fn arb_attr_name() -> impl Strategy<Value = AttrName> {
    prop_oneof![
        Just(AttrName::Title),
        Just(AttrName::Text),
        Just(AttrName::ValueNum),
        Just(AttrName::Selected),
        Just(AttrName::Enabled),
        Just(AttrName::Checked),
        // Map through the canonical parser so generated custom names never
        // collide with builtin names (the wire form is the canonical string).
        "[a-z][a-z0-9_]{0,10}".prop_map(|s| AttrName::from_str_lossy(&s)),
    ]
}

fn arb_kind() -> impl Strategy<Value = WidgetKind> {
    prop_oneof![
        Just(WidgetKind::Form),
        Just(WidgetKind::Panel),
        Just(WidgetKind::Button),
        Just(WidgetKind::Menu),
        Just(WidgetKind::TextField),
        Just(WidgetKind::Label),
        Just(WidgetKind::List),
        Just(WidgetKind::Slider),
        Just(WidgetKind::Canvas),
        "[a-z][a-z0-9_]{0,8}".prop_map(|s| WidgetKind::from_str_lossy(&s)),
    ]
}

fn arb_path() -> impl Strategy<Value = ObjectPath> {
    prop::collection::vec("[a-zA-Z][a-zA-Z0-9_]{0,8}", 0..5)
        .prop_map(|segs| ObjectPath::from_segments(segs).expect("valid segments"))
}

fn arb_gid() -> impl Strategy<Value = GlobalObjectId> {
    (any::<u64>(), arb_path()).prop_map(|(i, p)| GlobalObjectId::new(InstanceId(i), p))
}

fn arb_event_kind() -> impl Strategy<Value = EventKind> {
    prop_oneof![
        Just(EventKind::Activate),
        Just(EventKind::ValueChanged),
        Just(EventKind::TextCommitted),
        Just(EventKind::TextEdited),
        Just(EventKind::SelectionChanged),
        Just(EventKind::Toggled),
        Just(EventKind::StrokeAdded),
        Just(EventKind::CanvasCleared),
        Just(EventKind::RowActivated),
        "[a-z][a-z\\-]{0,10}".prop_map(EventKind::Custom),
    ]
}

fn arb_event() -> impl Strategy<Value = UiEvent> {
    (arb_path(), arb_event_kind(), prop::collection::vec(arb_value(), 0..4))
        .prop_map(|(p, k, params)| UiEvent::new(p, k, params))
}

fn arb_state() -> impl Strategy<Value = StateNode> {
    let leaf = (
        arb_kind(),
        "[a-z][a-z0-9]{0,6}",
        prop::collection::btree_map(arb_attr_name(), arb_value(), 0..4),
        prop::collection::vec(any::<u8>(), 0..16),
    )
        .prop_map(|(kind, name, attrs, semantic)| {
            let mut n = StateNode::new(kind, &name);
            n.attrs = attrs;
            n.semantic = semantic;
            n
        });
    leaf.prop_recursive(3, 24, 4, |inner| {
        (
            arb_kind(),
            "[a-z][a-z0-9]{0,6}",
            prop::collection::btree_map(arb_attr_name(), arb_value(), 0..3),
            prop::collection::vec(inner, 0..4),
        )
            .prop_map(|(kind, name, attrs, children)| {
                let mut n = StateNode::new(kind, &name);
                n.attrs = attrs;
                n.children = children;
                n
            })
    })
}

fn arb_copy_mode() -> impl Strategy<Value = CopyMode> {
    prop_oneof![
        Just(CopyMode::Strict),
        Just(CopyMode::DestructiveMerge),
        Just(CopyMode::FlexibleMatch)
    ]
}

fn arb_target() -> impl Strategy<Value = Target> {
    prop_oneof![
        any::<u64>().prop_map(|i| Target::Instance(InstanceId(i))),
        Just(Target::Broadcast),
        arb_gid().prop_map(Target::Group),
    ]
}

fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        (any::<u64>(), "[a-z0-9]{0,10}", "[a-z0-9\\-]{0,12}").prop_map(|(u, host, app)| {
            Message::Register { user: UserId(u), host, app_name: app }
        }),
        Just(Message::Deregister),
        Just(Message::QueryInstances),
        any::<u64>().prop_map(|i| Message::Welcome { instance: InstanceId(i) }),
        (arb_gid(), arb_gid()).prop_map(|(src, dst)| Message::Couple { src, dst }),
        (arb_gid(), arb_gid()).prop_map(|(src, dst)| Message::Decouple { src, dst }),
        (arb_gid(), arb_gid()).prop_map(|(a, b)| Message::RemoteCouple { a, b }),
        prop::collection::vec(arb_gid(), 0..5).prop_map(|group| Message::CoupleUpdate { group }),
        (arb_gid(), arb_event(), any::<u64>()).prop_map(|(origin, event, seq)| Message::Event {
            origin,
            event,
            seq
        }),
        (any::<u64>(), any::<u64>())
            .prop_map(|(seq, exec_id)| Message::EventGranted { seq, exec_id }),
        (any::<u64>(), arb_path(), arb_event())
            .prop_map(|(exec_id, target, event)| Message::ExecuteEvent { exec_id, target, event }),
        (any::<u64>(), prop::collection::vec(arb_path(), 0..4))
            .prop_map(|(exec_id, objects)| Message::GroupUnlocked { exec_id, objects }),
        (arb_gid(), arb_gid(), arb_copy_mode(), any::<u64>())
            .prop_map(|(src, dst, mode, req_id)| Message::CopyFrom { src, dst, mode, req_id }),
        (arb_gid(), arb_gid(), arb_state(), arb_copy_mode(), any::<u64>()).prop_map(
            |(src, dst, snapshot, mode, req_id)| Message::CopyTo {
                src,
                dst,
                snapshot,
                mode,
                req_id
            }
        ),
        // The edits between two arbitrary trees: patches, restructures
        // and (roots named apart) whole replacements.
        (
            (arb_gid(), arb_gid(), arb_copy_mode()),
            (any::<u64>(), any::<u64>(), any::<u64>()),
            (arb_state(), arb_state())
        )
            .prop_map(
                |((src, dst, mode), (base_version, new_version, req_id), (base, next))| {
                    Message::CopyDelta {
                        src,
                        dst,
                        base_version,
                        new_version,
                        delta: delta::diff(&base, &next),
                        mode,
                        req_id,
                    }
                }
            ),
        (any::<u64>(), prop::option::of(arb_state()))
            .prop_map(|(req_id, snapshot)| Message::StateReply { req_id, snapshot }),
        (any::<u64>(), arb_path(), arb_state(), arb_copy_mode()).prop_map(
            |(req_id, path, snapshot, mode)| Message::ApplyState { req_id, path, snapshot, mode }
        ),
        (
            any::<u64>(),
            prop_oneof![
                Just(None::<Overwritten>),
                Just(Some(Overwritten::Base)),
                arb_state().prop_map(|state| Some(Overwritten::from(state))),
            ],
            prop::option::of("[a-z ]{0,20}")
        )
            .prop_map(|(req_id, overwritten, error)| Message::StateApplied {
                req_id,
                overwritten,
                error
            }),
        (
            any::<u64>(),
            arb_gid(),
            prop_oneof![
                Just(AccessRight::Denied),
                Just(AccessRight::Read),
                Just(AccessRight::Write)
            ]
        )
            .prop_map(|(u, object, right)| Message::SetPermission {
                user: UserId(u),
                object,
                right
            }),
        (arb_target(), "[a-z\\-]{1,12}", prop::collection::vec(any::<u8>(), 0..64))
            .prop_map(|(to, command, payload)| Message::CoSendCommand { to, command, payload }),
        ("[a-z ]{0,16}", "[a-z ]{0,24}")
            .prop_map(|(context, reason)| Message::ErrorReply { context, reason }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn message_round_trip(m in arb_message()) {
        let bytes = codec::encode_message(&m);
        let back = codec::decode_message(&bytes).unwrap();
        prop_assert_eq!(m, back);
    }

    #[test]
    fn value_round_trip(v in arb_value()) {
        let mut buf = bytes::BytesMut::new();
        codec::put_value(&mut buf, &v);
        let mut r = buf.freeze();
        prop_assert_eq!(codec::get_value(&mut r).unwrap(), v);
        prop_assert!(r.iter().next().is_none(), "no trailing bytes");
    }

    #[test]
    fn state_round_trip(s in arb_state()) {
        let mut buf = bytes::BytesMut::new();
        codec::put_state(&mut buf, &s);
        let mut r = buf.freeze();
        prop_assert_eq!(codec::get_state(&mut r).unwrap(), s);
    }

    #[test]
    fn shared_frame_matches_owned_framing(m in arb_message()) {
        let frame = codec::frame_message_shared(&m);
        prop_assert_eq!(frame.as_slice(), codec::frame_message(&m).as_slice());
        prop_assert_eq!(frame.decode().unwrap(), m);
    }

    #[test]
    fn spliced_execute_event_matches_whole_message(
        exec_id in any::<u64>(),
        target in arb_path(),
        event in arb_event(),
    ) {
        // The fan-out path encodes the event payload once and splices it
        // into per-target frames; the result must be indistinguishable
        // from framing the whole ExecuteEvent message.
        let payload = codec::encode_event_shared(&event);
        let frame = codec::frame_execute_event(exec_id, &target, &payload);
        let msg = Message::ExecuteEvent { exec_id, target, event };
        prop_assert_eq!(frame.as_slice(), codec::frame_message(&msg).as_slice());
        prop_assert_eq!(frame.decode().unwrap(), msg);
    }

    #[test]
    fn spliced_apply_state_matches_whole_message(
        req_id in any::<u64>(),
        path in arb_path(),
        snapshot in arb_state(),
        mode in arb_copy_mode(),
    ) {
        let payload = codec::encode_state_shared(&snapshot);
        let frame = codec::frame_apply_state(req_id, &path, &payload, mode);
        let msg = Message::ApplyState { req_id, path, snapshot, mode };
        prop_assert_eq!(frame.as_slice(), codec::frame_message(&msg).as_slice());
        prop_assert_eq!(frame.decode().unwrap(), msg);
    }

    #[test]
    fn decoder_never_panics_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        // Must return Ok or Err, never panic or hang.
        let _ = codec::decode_message(&bytes);
    }

    #[test]
    fn framing_round_trip(msgs in prop::collection::vec(arb_message(), 0..8)) {
        let mut stream = Vec::new();
        for m in &msgs {
            codec::write_frame(&mut stream, m).unwrap();
        }
        let mut cursor = std::io::Cursor::new(stream);
        for m in &msgs {
            let got = codec::read_frame(&mut cursor).unwrap().expect("frame");
            prop_assert_eq!(&got, m);
        }
        prop_assert!(codec::read_frame(&mut cursor).unwrap().is_none());
    }
}
