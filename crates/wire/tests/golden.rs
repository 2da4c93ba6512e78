//! Golden test vectors: exact wire bytes for every message kind, and for
//! every row of every table a message is made of.
//! These pin the protocol encoding — any codec change that breaks
//! cross-version compatibility fails here, loudly and on purpose.
//!
//! The table in [`golden_table`] carries one entry per [`Message`]
//! variant; [`golden_table_is_complete`] asserts it against
//! [`Message::ALL_KINDS`], which is generated from the same protocol
//! table as the enum and the codec. The two can therefore never drift: a
//! new variant without a golden vector fails this suite. Beneath it, the
//! `*_rows()` lists carry one entry per row of `Value`, `EventKind`,
//! `EditOp`, `CopyMode`, `AccessRight`, `Target`, `Option<Overwritten>`,
//! `AttrName` and `WidgetKind`, each held to its table's generated `ALL`
//! in the same way. A round-trip test cannot see a tag swapped on both
//! sides of the codec; a literal byte can.

use std::collections::BTreeSet;

use cosoft_wire::{
    codec, AccessRight, AttrName, Bytes, BytesMut, CopyMode, EditOp, EventKind, GlobalObjectId,
    InstanceId, InstanceInfo, Message, NodeEdit, NodePatch, ObjectPath, Overwritten, SharedFrame,
    StateDelta, StateNode, Target, UiEvent, UserId, Value, WidgetKind, Wire, WireError,
};

fn gid(i: u64, p: &str) -> GlobalObjectId {
    GlobalObjectId::new(InstanceId(i), ObjectPath::parse(p).expect("valid"))
}

fn path(p: &str) -> ObjectPath {
    ObjectPath::parse(p).expect("valid")
}

/// The snapshot used by every state-carrying entry: one label with one
/// text attribute, encoded as
/// `kind "label" ‖ name "l" ‖ 1 attr ("text" → Text "hi") ‖ 0 semantic ‖ 0 children`.
fn snap() -> StateNode {
    StateNode::new(WidgetKind::Label, "l").with_attr(AttrName::Text, Value::Text("hi".into()))
}

/// One golden vector per protocol message kind, in wire-tag order of the
/// session-management block first, then the declaration order of the
/// remaining groups. The byte vectors are literal on purpose: they are
/// the cross-version compatibility contract.
fn golden_table() -> Vec<(Message, Vec<u8>)> {
    use Message as M;
    vec![
        (
            M::Register { user: UserId(7), host: "ws1".into(), app_name: "tori".into() },
            vec![0x00, 0x07, 0x03, 0x77, 0x73, 0x31, 0x04, 0x74, 0x6f, 0x72, 0x69],
        ),
        (M::Deregister, vec![0x01]),
        // 300 = LEB128 0xAC 0x02.
        (M::Rejoin { resume_token: 300 }, vec![0x21, 0xac, 0x02]),
        (M::Ping { nonce: 5 }, vec![0x22, 0x05]),
        (M::Pong { nonce: 5 }, vec![0x23, 0x05]),
        (M::QueryInstances, vec![0x02]),
        (M::Welcome { instance: InstanceId(300) }, vec![0x03, 0xac, 0x02]),
        (
            M::InstanceList {
                entries: vec![InstanceInfo {
                    instance: InstanceId(1),
                    user: UserId(2),
                    host: "ws1".into(),
                    app_name: "t".into(),
                }],
            },
            vec![0x04, 0x01, 0x01, 0x02, 0x03, 0x77, 0x73, 0x31, 0x01, 0x74],
        ),
        (M::SessionToken { resume_token: 300 }, vec![0x24, 0xac, 0x02]),
        (
            M::Couple { src: gid(1, "f.t"), dst: gid(2, "g") },
            vec![0x05, 0x01, 0x02, 0x01, 0x66, 0x01, 0x74, 0x02, 0x01, 0x01, 0x67],
        ),
        (
            M::Decouple { src: gid(1, "f.t"), dst: gid(2, "g") },
            vec![0x06, 0x01, 0x02, 0x01, 0x66, 0x01, 0x74, 0x02, 0x01, 0x01, 0x67],
        ),
        (
            M::RemoteCouple { a: gid(3, "x"), b: gid(4, "y") },
            vec![0x07, 0x03, 0x01, 0x01, 0x78, 0x04, 0x01, 0x01, 0x79],
        ),
        (
            M::RemoteDecouple { a: gid(3, "x"), b: gid(4, "y") },
            vec![0x08, 0x03, 0x01, 0x01, 0x78, 0x04, 0x01, 0x01, 0x79],
        ),
        (
            M::CoupleUpdate { group: vec![gid(1, "a"), gid(2, "b")] },
            vec![0x09, 0x02, 0x01, 0x01, 0x01, 0x61, 0x02, 0x01, 0x01, 0x62],
        ),
        (M::ListCoupled { object: gid(1, "a") }, vec![0x0a, 0x01, 0x01, 0x01, 0x61]),
        (M::ObjectDestroyed { object: gid(1, "a") }, vec![0x20, 0x01, 0x01, 0x01, 0x61]),
        (
            M::CoupledSet { object: gid(1, "a"), coupled: vec![gid(2, "b")] },
            vec![0x0b, 0x01, 0x01, 0x01, 0x61, 0x01, 0x02, 0x01, 0x01, 0x62],
        ),
        (
            M::Event {
                origin: gid(1, "f"),
                event: UiEvent::new(
                    path("f"),
                    EventKind::ValueChanged,
                    vec![Value::Int(-3), Value::Bool(true)],
                ),
                seq: 9,
            },
            // tag ‖ origin ‖ event path ‖ kind=1 ‖ 2 params:
            // Int zigzag(-3)=5, Bool true ‖ seq.
            vec![
                0x0c, 0x01, 0x01, 0x01, 0x66, 0x01, 0x01, 0x66, 0x01, 0x02, 0x01, 0x05, 0x00, 0x01,
                0x09,
            ],
        ),
        (M::EventGranted { seq: 9, exec_id: 7 }, vec![0x0d, 0x09, 0x07]),
        (M::EventRejected { seq: 9 }, vec![0x0e, 0x09]),
        (
            M::ExecuteEvent {
                exec_id: 7,
                target: path("g"),
                event: UiEvent::simple(path("f"), EventKind::Activate),
            },
            vec![0x0f, 0x07, 0x01, 0x01, 0x67, 0x01, 0x01, 0x66, 0x00, 0x00],
        ),
        (M::ExecuteDone { exec_id: 7 }, vec![0x10, 0x07]),
        (
            M::GroupUnlocked { exec_id: 7, objects: vec![path("g")] },
            vec![0x11, 0x07, 0x01, 0x01, 0x01, 0x67],
        ),
        (
            M::CopyFrom { src: gid(1, "a"), dst: gid(2, "b"), mode: CopyMode::Strict, req_id: 1 },
            vec![0x12, 0x01, 0x01, 0x01, 0x61, 0x02, 0x01, 0x01, 0x62, 0x00, 0x01],
        ),
        (
            M::CopyTo {
                src: gid(1, "a"),
                dst: gid(2, "b"),
                snapshot: snap(),
                mode: CopyMode::DestructiveMerge,
                req_id: 2,
            },
            vec![
                0x13, 0x01, 0x01, 0x01, 0x61, 0x02, 0x01, 0x01, 0x62, 0x05, 0x6c, 0x61, 0x62, 0x65,
                0x6c, 0x01, 0x6c, 0x01, 0x04, 0x74, 0x65, 0x78, 0x74, 0x03, 0x02, 0x68, 0x69, 0x00,
                0x00, 0x01, 0x02,
            ],
        ),
        (
            M::RemoteCopy {
                src: gid(1, "a"),
                dst: gid(2, "b"),
                mode: CopyMode::FlexibleMatch,
                req_id: 3,
            },
            vec![0x14, 0x01, 0x01, 0x01, 0x61, 0x02, 0x01, 0x01, 0x62, 0x02, 0x03],
        ),
        (M::StateRequest { req_id: 3, path: path("a") }, vec![0x15, 0x03, 0x01, 0x01, 0x61]),
        (
            M::StateReply { req_id: 3, snapshot: Some(snap()) },
            vec![
                0x16, 0x03, 0x01, 0x05, 0x6c, 0x61, 0x62, 0x65, 0x6c, 0x01, 0x6c, 0x01, 0x04, 0x74,
                0x65, 0x78, 0x74, 0x03, 0x02, 0x68, 0x69, 0x00, 0x00,
            ],
        ),
        (
            M::ApplyState {
                req_id: 4,
                path: path("f.l"),
                snapshot: snap(),
                mode: CopyMode::FlexibleMatch,
            },
            vec![
                0x17, 0x04, 0x02, 0x01, 0x66, 0x01, 0x6c, 0x05, 0x6c, 0x61, 0x62, 0x65, 0x6c, 0x01,
                0x6c, 0x01, 0x04, 0x74, 0x65, 0x78, 0x74, 0x03, 0x02, 0x68, 0x69, 0x00, 0x00, 0x02,
            ],
        ),
        (
            M::StateApplied { req_id: 3, overwritten: None, error: Some("bad".into()) },
            vec![0x18, 0x03, 0x00, 0x01, 0x03, 0x62, 0x61, 0x64],
        ),
        (M::UndoState { object: gid(2, "b") }, vec![0x19, 0x02, 0x01, 0x01, 0x62]),
        (M::RedoState { object: gid(2, "b") }, vec![0x1a, 0x02, 0x01, 0x01, 0x62]),
        (
            M::SetPermission { user: UserId(2), object: gid(1, "f"), right: AccessRight::Read },
            vec![0x1b, 0x02, 0x01, 0x01, 0x01, 0x66, 0x01],
        ),
        (M::PermissionDenied { what: "no".into() }, vec![0x1c, 0x02, 0x6e, 0x6f]),
        (
            M::CoSendCommand {
                to: Target::Group(gid(3, "q")),
                command: "rpc".into(),
                payload: vec![0xde, 0xad],
            },
            vec![0x1d, 0x02, 0x03, 0x01, 0x01, 0x71, 0x03, 0x72, 0x70, 0x63, 0x02, 0xde, 0xad],
        ),
        (
            M::CommandDelivery { from: InstanceId(1), command: "rpc".into(), payload: vec![0xde] },
            vec![0x1e, 0x01, 0x03, 0x72, 0x70, 0x63, 0x01, 0xde],
        ),
        (
            M::ErrorReply { context: "couple".into(), reason: "bad".into() },
            vec![0x1f, 0x06, 0x63, 0x6f, 0x75, 0x70, 0x6c, 0x65, 0x03, 0x62, 0x61, 0x64],
        ),
        (M::Busy { retry_after_ms: 300 }, vec![0x25, 0xac, 0x02]),
        (
            M::ApplyDelta {
                req_id: 5,
                path: path("f.l"),
                base_version: 9,
                new_version: 300,
                delta: StateDelta {
                    edits: vec![NodeEdit {
                        path: vec![],
                        op: EditOp::Patch(NodePatch {
                            kind: None,
                            upserts: [(AttrName::Text, Value::Text("hi".into()))]
                                .into_iter()
                                .collect(),
                            removals: vec![],
                            semantic: None,
                        }),
                    }],
                },
                mode: CopyMode::FlexibleMatch,
            },
            // tag ‖ req_id ‖ path "f.l" ‖ base 9 ‖ new 300 (LEB128 0xAC
            // 0x02) ‖ 1 edit: empty path, Patch (no kind, 1 upsert
            // "text" → Text "hi", 0 removals, no semantic) ‖ mode.
            vec![
                0x26, 0x05, 0x02, 0x01, 0x66, 0x01, 0x6c, 0x09, 0xac, 0x02, 0x01, 0x00, 0x00, 0x00,
                0x01, 0x04, 0x74, 0x65, 0x78, 0x74, 0x03, 0x02, 0x68, 0x69, 0x00, 0x00, 0x02,
            ],
        ),
        (
            M::CopyDelta {
                src: gid(1, "a"),
                dst: gid(2, "b"),
                base_version: 9,
                new_version: 300,
                delta: StateDelta {
                    edits: vec![NodeEdit {
                        path: vec!["l".into()],
                        op: EditOp::Patch(NodePatch {
                            kind: None,
                            upserts: [(AttrName::Text, Value::Text("hi".into()))]
                                .into_iter()
                                .collect(),
                            removals: vec![],
                            semantic: None,
                        }),
                    }],
                },
                mode: CopyMode::DestructiveMerge,
                req_id: 6,
            },
            // tag 39 ‖ src 1:"a" ‖ dst 2:"b" ‖ base 9 ‖ new 300 (LEB128
            // 0xAC 0x02) ‖ 1 edit: path ["l"], Patch (no kind, 1 upsert
            // "text" → Text "hi", 0 removals, no semantic) ‖ mode ‖ req_id:
            // `CopyTo`'s fields with `ApplyDelta`'s three in the
            // snapshot's place.
            vec![
                0x27, 0x01, 0x01, 0x01, 0x61, 0x02, 0x01, 0x01, 0x62, 0x09, 0xac, 0x02, 0x01, 0x01,
                0x01, 0x6c, 0x00, 0x00, 0x01, 0x04, 0x74, 0x65, 0x78, 0x74, 0x03, 0x02, 0x68, 0x69,
                0x00, 0x00, 0x01, 0x06,
            ],
        ),
    ]
}

// ---- the rows beneath the messages ---------------------------------------
//
// A message vector pins the tag of its kind and of whatever values it
// happens to carry. These pin every row of every tagged union and name
// table a message is made of, one literal vector (or canonical string)
// per row: the bytes are the value's own, with nothing around them.

/// `snap()` on the wire (the same 20 bytes every state-carrying message
/// vector above embeds).
const SNAP: [u8; 20] = [
    0x05, 0x6c, 0x61, 0x62, 0x65, 0x6c, 0x01, 0x6c, 0x01, 0x04, 0x74, 0x65, 0x78, 0x74, 0x03, 0x02,
    0x68, 0x69, 0x00, 0x00,
];

fn with_snap(before: &[u8]) -> Vec<u8> {
    [before, &SNAP].concat()
}

fn value_rows() -> Vec<(Value, Vec<u8>)> {
    vec![
        (Value::Bool(true), vec![0, 1]),
        (Value::Int(-3), vec![1, 5]), // zigzag(-3) = 5
        (Value::Float(1.0), vec![2, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f]),
        (Value::Text("hi".into()), vec![3, 2, b'h', b'i']),
        (Value::TextList(vec!["a".into(), String::new()]), vec![4, 2, 1, b'a', 0]),
        // zigzag(-1) = 1; zigzag(300) = 600 = LEB128 0xD8 0x04.
        (Value::IntList(vec![-1, 300]), vec![5, 2, 1, 0xd8, 0x04]),
        (Value::Point(3, -4), vec![6, 6, 7]),
        (Value::Color(255, 0, 16), vec![7, 0xff, 0x00, 0x10]),
        (Value::Bytes(vec![0xde, 0xad]), vec![8, 2, 0xde, 0xad]),
        (Value::Stroke(vec![(1, -1), (0, 2)]), vec![9, 2, 2, 1, 0, 4]),
        (Value::StrokeList(vec![vec![(1, -1)], vec![]]), vec![10, 2, 1, 2, 1, 0]),
    ]
}

fn event_kind_rows() -> Vec<(EventKind, Vec<u8>)> {
    vec![
        (EventKind::Activate, vec![0]),
        (EventKind::ValueChanged, vec![1]),
        (EventKind::TextCommitted, vec![2]),
        (EventKind::TextEdited, vec![3]),
        (EventKind::SelectionChanged, vec![4]),
        (EventKind::Toggled, vec![5]),
        (EventKind::StrokeAdded, vec![6]),
        (EventKind::CanvasCleared, vec![7]),
        (EventKind::RowActivated, vec![8]),
        (EventKind::Custom("zap".into()), vec![255, 3, b'z', b'a', b'p']),
    ]
}

fn edit_op_rows() -> Vec<(EditOp, Vec<u8>)> {
    vec![
        (
            EditOp::Patch(NodePatch {
                kind: Some(WidgetKind::Slider),
                upserts: Default::default(),
                removals: vec![AttrName::Text],
                semantic: Some(vec![7]),
            }),
            // tag ‖ some kind "slider" ‖ 0 upserts ‖ 1 removal "text" ‖
            // some semantic, 1 byte.
            vec![
                0, 1, 6, b's', b'l', b'i', b'd', b'e', b'r', 0, 1, 4, b't', b'e', b'x', b't', 1, 1,
                7,
            ],
        ),
        (EditOp::Replace(snap()), with_snap(&[1])),
        (
            EditOp::Restructure { order: vec!["a".into(), "b".into()], inserts: vec![snap()] },
            with_snap(&[2, 2, 1, b'a', 1, b'b', 1]),
        ),
    ]
}

fn copy_mode_rows() -> Vec<(CopyMode, Vec<u8>)> {
    vec![
        (CopyMode::Strict, vec![0]),
        (CopyMode::DestructiveMerge, vec![1]),
        (CopyMode::FlexibleMatch, vec![2]),
    ]
}

fn access_right_rows() -> Vec<(AccessRight, Vec<u8>)> {
    vec![
        (AccessRight::Denied, vec![0]),
        (AccessRight::Read, vec![1]),
        (AccessRight::Write, vec![2]),
    ]
}

fn target_rows() -> Vec<(Target, Vec<u8>)> {
    vec![
        (Target::Instance(InstanceId(5)), vec![0, 5]),
        (Target::Broadcast, vec![1]),
        (Target::Group(gid(3, "q")), vec![2, 3, 1, 1, b'q']),
    ]
}

fn overwritten_rows() -> Vec<(Option<Overwritten>, Vec<u8>)> {
    vec![
        (None, vec![0]),
        (Some(snap().into()), with_snap(&[1])),
        (Some(Overwritten::Base), vec![2]),
    ]
}

/// The canonical string of every builtin attribute name: what travels in
/// a state, and what the UI-spec language spells.
fn attr_name_rows() -> Vec<(AttrName, &'static str)> {
    vec![
        (AttrName::Title, "title"),
        (AttrName::Text, "text"),
        (AttrName::ValueNum, "value"),
        (AttrName::Items, "items"),
        (AttrName::Selected, "selected"),
        (AttrName::Enabled, "enabled"),
        (AttrName::Visible, "visible"),
        (AttrName::X, "x"),
        (AttrName::Y, "y"),
        (AttrName::Width, "width"),
        (AttrName::Height, "height"),
        (AttrName::Foreground, "foreground"),
        (AttrName::Background, "background"),
        (AttrName::Font, "font"),
        (AttrName::Checked, "checked"),
        (AttrName::Min, "min"),
        (AttrName::Max, "max"),
        (AttrName::Strokes, "strokes"),
    ]
}

/// The canonical string of every builtin widget kind.
fn widget_kind_rows() -> Vec<(WidgetKind, &'static str)> {
    vec![
        (WidgetKind::Form, "form"),
        (WidgetKind::Panel, "panel"),
        (WidgetKind::Button, "button"),
        (WidgetKind::ToggleButton, "toggle"),
        (WidgetKind::Menu, "menu"),
        (WidgetKind::TextField, "textfield"),
        (WidgetKind::TextArea, "textarea"),
        (WidgetKind::Label, "label"),
        (WidgetKind::List, "list"),
        (WidgetKind::Slider, "slider"),
        (WidgetKind::Canvas, "canvas"),
        (WidgetKind::Table, "table"),
    ]
}

/// Checks one tagged table against its vectors: the vectors cover exactly
/// the table's rows (`all`, generated from the same table as the codec,
/// so a new row without a vector fails here), `put` writes exactly the
/// pinned bytes of each row, `get` reads them back to the row's value with
/// nothing left over, and `skip` steps over the same bytes.
fn check_rows<T: Wire + PartialEq + std::fmt::Debug>(
    what: &str,
    all: &[(&str, u8)],
    rows: Vec<(T, Vec<u8>)>,
) {
    let pinned: BTreeSet<u8> = rows.iter().map(|(_, bytes)| bytes[0]).collect();
    let declared: BTreeSet<u8> = all.iter().map(|(_, tag)| *tag).collect();
    assert_eq!(declared.len(), all.len(), "{what}: a tag is declared twice");
    assert_eq!(pinned.len(), rows.len(), "{what}: a tag has two vectors");
    assert_eq!(pinned, declared, "{what}: the vectors drifted from the table {all:?}");
    for (value, bytes) in rows {
        let mut buf = BytesMut::new();
        value.put(&mut buf);
        assert_eq!(buf.to_vec(), bytes, "wire encoding of {what} {value:?} changed");
        let mut read = Bytes::from(bytes.clone());
        assert_eq!(T::get(&mut read), Ok(value), "golden bytes of a {what} read back differently");
        assert!(read.is_empty());
        let mut skipped = Bytes::from(bytes);
        assert_eq!(T::skip(&mut skipped), Ok(()));
        assert!(skipped.is_empty());
    }
}

#[test]
fn golden_value_rows() {
    check_rows("Value", Value::ALL, value_rows());
}

#[test]
fn golden_event_kind_rows() {
    check_rows("EventKind", EventKind::ALL, event_kind_rows());
}

#[test]
fn golden_edit_op_rows() {
    check_rows("EditOp", EditOp::ALL, edit_op_rows());
}

#[test]
fn golden_copy_mode_rows() {
    check_rows("CopyMode", CopyMode::ALL, copy_mode_rows());
}

#[test]
fn golden_access_right_rows() {
    check_rows("AccessRight", AccessRight::ALL, access_right_rows());
}

#[test]
fn golden_target_rows() {
    check_rows("Target", Target::ALL, target_rows());
}

/// `StateApplied.overwritten` is optional, and none shares the tag byte
/// with the table's two rows.
#[test]
fn golden_overwritten_rows() {
    let all = [&[("None", 0)], Overwritten::ALL].concat();
    check_rows("Option<Overwritten>", &all, overwritten_rows());
}

fn around(prefix: &[u8], bytes: &[u8], suffix: &[u8]) -> Vec<u8> {
    [prefix, bytes, suffix].concat()
}

/// A name travels as its canonical string, length first; the string
/// parses back to the builtin, and a state that names it carries exactly
/// those bytes.
#[test]
fn golden_name_rows() {
    let (attrs, kinds) = (attr_name_rows(), widget_kind_rows());
    assert!(attrs.iter().map(|(name, _)| name).eq(AttrName::ALL), "a builtin needs a row");
    assert!(kinds.iter().map(|(kind, _)| kind).eq(WidgetKind::ALL), "a builtin needs a row");
    let on_the_wire = |text: &str| around(&[text.len() as u8], text.as_bytes(), &[]);
    for (name, text) in attrs {
        assert_eq!(name.as_str(), text);
        assert_eq!(name.to_string(), text);
        assert_eq!(AttrName::from_str_lossy(text), name);
        // A form "n" with this one attribute set to Bool false.
        let state = StateNode::new(WidgetKind::Form, "n").with_attr(name, Value::Bool(false));
        let bytes = around(&[4, b'f', b'o', b'r', b'm', 1, b'n', 1], &on_the_wire(text), &[0; 4]);
        assert_eq!(codec::encode_state_shared(&state).to_vec(), bytes);
        assert_eq!(codec::get_state(&mut Bytes::from(bytes)), Ok(state));
    }
    for (kind, text) in kinds {
        assert_eq!(kind.as_str(), text);
        assert_eq!(kind.to_string(), text);
        assert_eq!(WidgetKind::from_str_lossy(text), kind);
        // A bare node "n" of this kind.
        let state = StateNode::new(kind, "n");
        let bytes = around(&[], &on_the_wire(text), &[1, b'n', 0, 0, 0]);
        assert_eq!(codec::encode_state_shared(&state).to_vec(), bytes);
        assert_eq!(codec::get_state(&mut Bytes::from(bytes)), Ok(state));
    }
}

/// The completeness contract: the golden table covers exactly the
/// protocol's variant list, with no kind missing, duplicated, or stale.
#[test]
fn golden_table_is_complete() {
    let table = golden_table();
    let covered: Vec<&str> = table.iter().map(|(m, _)| m.kind_name()).collect();
    let covered_set: BTreeSet<&str> = covered.iter().copied().collect();
    assert_eq!(covered.len(), covered_set.len(), "duplicate kind in golden table");

    let expected: BTreeSet<&str> = Message::ALL_KINDS.iter().copied().collect();
    assert_eq!(expected.len(), Message::ALL_KINDS.len(), "Message::ALL_KINDS contains duplicates");
    assert_eq!(expected.len(), 40, "a new kind needs a golden vector, then this count");
    let missing: Vec<&&str> = expected.difference(&covered_set).collect();
    let stale: Vec<&&str> = covered_set.difference(&expected).collect();
    assert!(
        missing.is_empty() && stale.is_empty(),
        "golden table drifted from Message::ALL_KINDS — missing {missing:?}, stale {stale:?}"
    );
}

/// Every table entry encodes to exactly its pinned bytes.
#[test]
fn golden_vectors_encode_exactly() {
    for (m, bytes) in golden_table() {
        assert_eq!(
            codec::encode_message(&m),
            bytes,
            "wire encoding of {} changed — this breaks cross-version compatibility",
            m.kind_name()
        );
    }
}

/// Every pinned byte vector decodes back to its message (the vectors are
/// valid wire traffic, not just encoder output).
#[test]
fn golden_vectors_decode_back() {
    for (m, bytes) in golden_table() {
        let back = codec::decode_message(&bytes)
            .unwrap_or_else(|e| panic!("golden bytes of {} failed to decode: {e}", m.kind_name()));
        assert_eq!(back, m, "round trip through golden bytes diverged for {}", m.kind_name());
    }
}

/// A frame cut short is an error, never a panic: the buffer answers a
/// read past its end with `None`, the codec with `UnexpectedEof`. Every
/// cut of every vector, then one spelled out per read primitive of
/// `Bytes` (`advance`, the fourth, is only the checking walk's:
/// `encoded_state.rs` holds it to the building walk at every cut).
#[test]
fn golden_vectors_cut_anywhere_are_refused() {
    for (msg, bytes) in golden_table() {
        for cut in 0..bytes.len() {
            let refused = codec::decode_message(&bytes[..cut]);
            assert!(
                matches!(refused, Err(WireError::UnexpectedEof { .. })),
                "{} cut at {cut}: {refused:?}",
                msg.kind_name()
            );
        }
    }
    let eof = |expected| WireError::UnexpectedEof { expected };
    // get_u8: Deregister without its tag; Welcome inside its varint.
    assert_eq!(codec::decode_message(&[]), Err(eof("message tag")));
    assert_eq!(codec::decode_message(&[0x03, 0xac]), Err(eof("varint")));
    // split_to: Register inside the host string "ws1".
    assert_eq!(codec::decode_message(&[0x00, 0x07, 0x03, 0x77, 0x73]), Err(eof("string body")));
    // get_u64_le: the float of `golden_float_bits`, one byte short.
    let mut short = Bytes::from(vec![2, 0, 0, 0, 0, 0, 0, 0xf0]);
    assert_eq!(Value::get(&mut short), Err(eof("f64")));
}

/// The other half of "no byte sequence from a socket takes a thread
/// down": every vector with every byte set to every value decodes or is
/// refused, never panics, and whatever the decoder accepts re-encodes
/// to a fixed point (the bytes a mutant decodes from may be
/// non-canonical; the bytes it encodes to decode to themselves). The
/// vectors come from [`golden_table`], so a new kind is covered by the
/// row [`golden_table_is_complete`] demands of it.
#[test]
fn golden_vectors_with_any_byte_changed_decode_or_are_refused() {
    let (mut accepted, mut refused) = (0u32, 0u32);
    for (msg, bytes) in golden_table() {
        let mut mutant = bytes.clone();
        for at in 0..bytes.len() {
            for value in 0..=u8::MAX {
                mutant[at] = value;
                let Ok(decoded) = codec::decode_message(&mutant) else {
                    refused += 1;
                    continue;
                };
                accepted += 1;
                let canonical = codec::encode_message(&decoded);
                let again = codec::decode_message(&canonical).map(|m| codec::encode_message(&m));
                assert_eq!(
                    again.as_ref(),
                    Ok(&canonical),
                    "{} with byte {at} set to {value:#04x} is accepted as {decoded:?}, \
                     which does not survive its own encoding",
                    msg.kind_name()
                );
            }
            mutant[at] = bytes[at];
        }
    }
    // Both outcomes occur, or the loop above tested nothing.
    assert!(accepted > 1_000 && refused > 1_000, "{accepted} accepted, {refused} refused");
}

/// For every protocol kind, the shared (encode-once) framing is
/// byte-identical to the owned framing: a peer cannot tell whether the
/// server unicast-encoded its frame or fanned one shared encode out to
/// the whole group.
#[test]
fn golden_shared_frames_are_byte_identical() {
    for (m, bytes) in golden_table() {
        let frame = SharedFrame::from_message(&m);
        assert_eq!(
            frame.as_slice(),
            codec::frame_message(&m).as_slice(),
            "shared and owned framings of {} diverged",
            m.kind_name()
        );
        assert_eq!(frame.body(), &bytes[..], "shared frame body of {} drifted", m.kind_name());
        assert_eq!(frame.tag(), Some(bytes[0]), "shared frame tag of {}", m.kind_name());
        assert_eq!(
            frame.decode().expect("shared frame decodes"),
            m,
            "shared frame of {} decoded to a different message",
            m.kind_name()
        );
    }
}

/// `SharedFrame::kind_name` (looked up from the frame's tag byte)
/// agrees with `Message::kind_name` for every kind.
#[test]
fn golden_shared_frame_kind_names_match() {
    for (m, _) in golden_table() {
        let frame = SharedFrame::from_message(&m);
        assert_eq!(frame.kind_name(), Some(m.kind_name()));
    }
}

/// Wire tags are unique: no two table entries share a first byte.
#[test]
fn golden_wire_tags_are_unique() {
    let mut seen: BTreeSet<u8> = BTreeSet::new();
    for (m, bytes) in golden_table() {
        let tag = bytes[0];
        assert!(seen.insert(tag), "wire tag {tag} reused by {}", m.kind_name());
    }
}

// ---- hand-annotated spot checks (kept from the original suite) ----------

#[test]
fn golden_couple_annotated() {
    let m = Message::Couple { src: gid(1, "f.t"), dst: gid(2, "g") };
    assert_eq!(
        codec::encode_message(&m),
        vec![
            5, // tag Couple
            1, // src instance
            2, 1, b'f', 1, b't', // src path: 2 segments "f" "t"
            2,    // dst instance
            1, 1, b'g', // dst path: 1 segment "g"
        ]
    );
}

/// `StateApplied.overwritten` has three values on three option tags: the
/// table pins *none*, `encoded_state.rs` pins the state, this is the
/// one-byte reference to the base; every other tag byte is refused.
#[test]
fn golden_state_applied_by_reference_annotated() {
    let m = Message::StateApplied { req_id: 3, overwritten: Some(Overwritten::Base), error: None };
    let bytes = vec![
        24, // tag StateApplied
        3,  // req_id
        2,  // overwritten: the base of the ApplyDelta being answered
        0,  // error: none
    ];
    assert_eq!(codec::encode_message(&m), bytes);
    assert_eq!(codec::decode_message(&bytes), Ok(m));
    for tag in 3..=u8::MAX {
        assert_eq!(
            codec::decode_message(&[24, 3, tag, 0]),
            Err(WireError::InvalidTag { kind: "Option<Overwritten>", tag })
        );
    }
}

#[test]
fn golden_frame_layout() {
    let m = Message::Deregister;
    // Frame = u32-le length (1) + body (tag 1).
    assert_eq!(codec::frame_message(&m), vec![1, 0, 0, 0, 1]);
}

#[test]
fn golden_float_bits() {
    let mut buf = BytesMut::new();
    Value::Float(1.0).put(&mut buf);
    // Tag 2 + IEEE-754 little-endian bits of 1.0.
    assert_eq!(buf.to_vec(), vec![2, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f]);
}

#[test]
fn golden_stroke_list() {
    let mut buf = BytesMut::new();
    Value::StrokeList(vec![vec![(1, -1)], vec![]]).put(&mut buf);
    assert_eq!(
        buf.to_vec(),
        vec![
            10, // StrokeList tag
            2,  // 2 strokes
            1, 2, 1, // stroke 0: 1 point, zigzag(1)=2, zigzag(-1)=1
            0, // stroke 1: 0 points
        ]
    );
}
