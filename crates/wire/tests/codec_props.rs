//! Properties of the wire codec: `decode(encode(m)) == m` for arbitrary
//! protocol values, and decoder robustness on arbitrary bytes.

use cosoft_rng::{forall, Rng};
use cosoft_wire::{codec, delta};
use cosoft_wire::{
    AccessRight, AttrName, BytesMut, CopyMode, EventKind, GlobalObjectId, InstanceId, Message,
    ObjectPath, Overwritten, SharedFrame, StateNode, Target, UiEvent, UserId, Value, WidgetKind,
    Wire,
};

const LOWER: &str = "abcdefghijklmnopqrstuvwxyz";
const LOWER_DIGIT: &str = "abcdefghijklmnopqrstuvwxyz0123456789";
const WORD: &str = "abcdefghijklmnopqrstuvwxyz0123456789_";
const LETTER: &str = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ";
const MIXED_WORD: &str = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_";
const TEXT: &str = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 _-\u{e4}\u{f6}";

/// One character of `first`, then up to `more` of `rest`.
fn ident(r: &mut Rng, first: &str, rest: &str, more: usize) -> String {
    r.string(first, 1..=1) + &r.string(rest, 0..=more)
}

fn arb_point(r: &mut Rng) -> (i32, i32) {
    (r.range(..), r.range(..))
}

fn arb_value(r: &mut Rng) -> Value {
    match r.range(0..11) {
        0 => Value::Bool(r.bool(0.5)),
        1 => Value::Int(r.range(..)),
        2 => Value::Float(f64::from_bits(r.next_u64())),
        3 => Value::Text(r.string(TEXT, 0..=24)),
        4 => Value::TextList(r.vec(0..5, |r| r.string(LOWER, 0..=8))),
        5 => Value::IntList(r.vec(0..6, |r| r.range(..))),
        6 => Value::Point(r.range(..), r.range(..)),
        7 => Value::Color(r.range(..), r.range(..), r.range(..)),
        8 => Value::Bytes(r.vec(0..32, |r| r.range(..))),
        9 => Value::Stroke(r.vec(0..16, arb_point)),
        _ => Value::StrokeList(r.vec(0..5, |r| r.vec(0..6, arb_point))),
    }
}

fn arb_attr_name(r: &mut Rng) -> AttrName {
    let builtin = [
        AttrName::Title,
        AttrName::Text,
        AttrName::ValueNum,
        AttrName::Selected,
        AttrName::Enabled,
        AttrName::Checked,
    ];
    match r.range(0..=builtin.len()) {
        // Through the canonical parser, so a generated custom name never
        // collides with a builtin one (the wire form is the canonical string).
        0 => AttrName::from_str_lossy(&ident(r, LOWER, WORD, 10)),
        i => builtin[i - 1].clone(),
    }
}

fn arb_kind(r: &mut Rng) -> WidgetKind {
    let builtin = [
        WidgetKind::Form,
        WidgetKind::Panel,
        WidgetKind::Button,
        WidgetKind::Menu,
        WidgetKind::TextField,
        WidgetKind::Label,
        WidgetKind::List,
        WidgetKind::Slider,
        WidgetKind::Canvas,
    ];
    match r.range(0..=builtin.len()) {
        i if i == builtin.len() => WidgetKind::from_str_lossy(&ident(r, LOWER, WORD, 8)),
        i => builtin[i].clone(),
    }
}

fn arb_path(r: &mut Rng) -> ObjectPath {
    ObjectPath::from_segments(r.vec(0..5, |r| ident(r, LETTER, MIXED_WORD, 8)))
        .expect("valid segments")
}

fn arb_gid(r: &mut Rng) -> GlobalObjectId {
    GlobalObjectId::new(InstanceId(r.range(..)), arb_path(r))
}

fn arb_event_kind(r: &mut Rng) -> EventKind {
    let builtin = [
        EventKind::Activate,
        EventKind::ValueChanged,
        EventKind::TextCommitted,
        EventKind::TextEdited,
        EventKind::SelectionChanged,
        EventKind::Toggled,
        EventKind::StrokeAdded,
        EventKind::CanvasCleared,
        EventKind::RowActivated,
    ];
    match r.range(0..=builtin.len()) {
        i if i == builtin.len() => {
            EventKind::Custom(ident(r, LOWER, "abcdefghijklmnopqrstuvwxyz-", 10))
        }
        i => builtin[i].clone(),
    }
}

fn arb_event(r: &mut Rng) -> UiEvent {
    UiEvent::new(arb_path(r), arb_event_kind(r), r.vec(0..4, arb_value))
}

/// Trees up to four levels deep: leaves carry a semantic payload, inner
/// nodes up to three children.
fn arb_state(r: &mut Rng) -> StateNode {
    fn within(r: &mut Rng, levels_below: usize) -> StateNode {
        let mut n = StateNode::new(arb_kind(r), &ident(r, LOWER, LOWER_DIGIT, 6));
        let leaf = levels_below == 0 || r.range(0..3) == 0;
        n.attrs = r.vec(0..4, |r| (arb_attr_name(r), arb_value(r))).into_iter().collect();
        if leaf {
            n.semantic = r.vec(0..16, |r| r.range(..));
        } else {
            n.children = r.vec(0..4, |r| within(r, levels_below - 1));
        }
        n
    }
    within(r, 3)
}

fn arb_copy_mode(r: &mut Rng) -> CopyMode {
    *r.pick(&[CopyMode::Strict, CopyMode::DestructiveMerge, CopyMode::FlexibleMatch])
}

fn arb_message(r: &mut Rng) -> Message {
    match r.range(0..21) {
        0 => Message::Register {
            user: UserId(r.range(..)),
            host: r.string(LOWER_DIGIT, 0..=10),
            app_name: r.string("abcdefghijklmnopqrstuvwxyz0123456789-", 0..=12),
        },
        1 => Message::Deregister,
        2 => Message::QueryInstances,
        3 => Message::Welcome { instance: InstanceId(r.range(..)) },
        4 => Message::Couple { src: arb_gid(r), dst: arb_gid(r) },
        5 => Message::Decouple { src: arb_gid(r), dst: arb_gid(r) },
        6 => Message::RemoteCouple { a: arb_gid(r), b: arb_gid(r) },
        7 => Message::CoupleUpdate { group: r.vec(0..5, arb_gid) },
        8 => Message::Event { event: arb_event(r), seq: r.range(..) },
        9 => Message::EventGranted { seq: r.range(..), exec_id: r.range(..) },
        10 => Message::ExecuteEvent { exec_id: r.range(..), event: arb_event(r) },
        11 => Message::GroupUnlocked { exec_id: r.range(..) },
        12 => Message::CopyFrom {
            src: arb_gid(r),
            dst: arb_gid(r),
            mode: arb_copy_mode(r),
            req_id: r.range(..),
        },
        13 => Message::CopyTo {
            src: arb_gid(r),
            dst: arb_gid(r),
            snapshot: arb_state(r),
            mode: arb_copy_mode(r),
            req_id: r.range(..),
        },
        // The edits between two arbitrary trees: patches, restructures
        // and (roots named apart) whole replacements.
        14 => Message::CopyDelta {
            src: arb_gid(r),
            dst: arb_gid(r),
            base_version: r.range(..),
            new_version: r.range(..),
            delta: delta::diff(&arb_state(r), &arb_state(r)),
            mode: arb_copy_mode(r),
            req_id: r.range(..),
        },
        15 => Message::StateReply {
            req_id: r.range(..),
            snapshot: (r.range(0..2) == 1).then(|| arb_state(r)),
        },
        16 => Message::ApplyState {
            req_id: r.range(..),
            path: arb_path(r),
            snapshot: arb_state(r),
            mode: arb_copy_mode(r),
        },
        17 => Message::StateApplied {
            req_id: r.range(..),
            overwritten: match r.range(0..3) {
                0 => None,
                1 => Some(Overwritten::Base),
                _ => Some(Overwritten::from(arb_state(r))),
            },
            error: (r.range(0..2) == 1).then(|| r.string("abcdefghijklmnopqrstuvwxyz ", 0..=20)),
        },
        18 => Message::SetPermission {
            user: UserId(r.range(..)),
            object: arb_gid(r),
            right: *r.pick(&[AccessRight::Denied, AccessRight::Read, AccessRight::Write]),
        },
        19 => Message::CoSendCommand {
            to: match r.range(0..3) {
                0 => Target::Instance(InstanceId(r.range(..))),
                1 => Target::Broadcast,
                _ => Target::Group(arb_gid(r)),
            },
            command: r.string("abcdefghijklmnopqrstuvwxyz-", 1..=12),
            payload: r.vec(0..64, |r| r.range(..)),
        },
        _ => Message::ErrorReply {
            context: r.string("abcdefghijklmnopqrstuvwxyz ", 0..=16),
            reason: r.string("abcdefghijklmnopqrstuvwxyz ", 0..=24),
        },
    }
}

// What is sent and what comes back are two arguments for the recorded
// cases at the end; everywhere else they are the same value.

fn message_comes_back(sent: &Message, back: &Message) {
    assert_eq!(&codec::decode_message(&codec::encode_message(sent)).unwrap(), back);
}

fn state_comes_back(sent: &StateNode, back: &StateNode) {
    let mut buf = BytesMut::new();
    sent.put(&mut buf);
    assert_eq!(&codec::get_state(&mut buf.freeze()).unwrap(), back);
}

fn frames_come_back(sent: &[Message], back: &[Message]) {
    let mut stream = Vec::new();
    for m in sent {
        stream.extend(codec::frame_message(m));
    }
    let mut cursor = std::io::Cursor::new(stream);
    for m in back {
        assert_eq!(&codec::read_frame(&mut cursor).unwrap().expect("frame"), m);
    }
    assert!(codec::read_frame(&mut cursor).unwrap().is_none());
}

#[test]
fn message_round_trip() {
    forall(0..512, arb_message, |m| message_comes_back(&m, &m));
}

#[test]
fn value_round_trip() {
    forall(0..512, arb_value, |v| {
        let mut buf = BytesMut::new();
        v.put(&mut buf);
        let mut r = buf.freeze();
        assert_eq!(Value::get(&mut r).unwrap(), v);
        assert!(r.is_empty(), "no trailing bytes");
    });
}

#[test]
fn state_round_trip() {
    forall(0..512, arb_state, |s| state_comes_back(&s, &s));
}

#[test]
fn shared_frame_matches_owned_framing() {
    forall(0..512, arb_message, |m| {
        let frame = SharedFrame::from_message(&m);
        assert_eq!(frame.as_slice(), codec::frame_message(&m).as_slice());
        assert_eq!(frame.decode().unwrap(), m);
    });
}

/// The fan-out path encodes the event's kind and parameters once and
/// splices them behind per-target paths; the result must be
/// indistinguishable from framing the whole ExecuteEvent message with the
/// target as the event's path.
#[test]
fn spliced_execute_event_matches_whole_message() {
    let gen = |r: &mut Rng| (r.range(..), arb_path(r), arb_event(r));
    forall(0..512, gen, |(exec_id, target, event)| {
        let payload = codec::encode_event_shared(&event);
        let frame = codec::frame_execute_event(exec_id, &target, &payload);
        let msg = Message::ExecuteEvent { exec_id, event: event.retarget(target) };
        assert_eq!(frame.as_slice(), codec::frame_message(&msg).as_slice());
        assert_eq!(frame.decode().unwrap(), msg);
    });
}

#[test]
fn spliced_apply_state_matches_whole_message() {
    let gen = |r: &mut Rng| (r.range(..), arb_path(r), arb_state(r), arb_copy_mode(r));
    forall(0..512, gen, |(req_id, path, snapshot, mode)| {
        let payload = codec::encode_state_shared(&snapshot);
        let frame = codec::frame_apply_state(req_id, &path, &payload, mode);
        let msg = Message::ApplyState { req_id, path, snapshot, mode };
        assert_eq!(frame.as_slice(), codec::frame_message(&msg).as_slice());
        assert_eq!(frame.decode().unwrap(), msg);
    });
}

/// Must return Ok or Err, never panic or hang.
#[test]
fn decoder_never_panics_on_garbage() {
    let gen = |r: &mut Rng| r.vec(0..256, |r| r.range(..));
    forall(0..512, gen, |bytes: Vec<u8>| {
        let _ = codec::decode_message(&bytes);
    });
}

#[test]
fn framing_round_trip() {
    forall(0..512, |r| r.vec(0..8, arb_message), |msgs| frames_come_back(&msgs, &msgs));
}

// ---- the cases proptest's regression file recorded ------------------------

/// All three carried `Custom("x")`, here under `levels` forms named "a":
/// a custom attribute name spelled like a builtin's wire form, which comes
/// back as the builtin (see `AttrName::Custom`; the generator has gone
/// through the canonical parser since). What is sent, and what comes back.
fn recorded(levels: usize) -> (StateNode, StateNode) {
    let form = || StateNode::new(WidgetKind::Form, "a");
    let under =
        |x| (0..levels).fold(form().with_attr(x, Value::Bool(false)), |c, _| form().with_child(c));
    (under(AttrName::Custom("x".into())), under(AttrName::X))
}

fn copy_to_root(snapshot: StateNode) -> Message {
    let root = || GlobalObjectId::new(InstanceId(0), ObjectPath::root());
    Message::CopyTo { src: root(), dst: root(), snapshot, mode: CopyMode::Strict, req_id: 0 }
}

#[test]
fn state_with_a_custom_attribute_named_x_comes_back_normalized() {
    let (sent, back) = recorded(0);
    state_comes_back(&sent, &back);
}

#[test]
fn copy_to_with_a_nested_custom_attribute_named_x_comes_back_normalized() {
    let (sent, back) = recorded(1);
    message_comes_back(&copy_to_root(sent), &copy_to_root(back));
}

#[test]
fn framed_copy_to_with_a_custom_attribute_named_x_three_levels_down_comes_back_normalized() {
    let (sent, back) = recorded(3);
    frames_come_back(&[copy_to_root(sent)], &[copy_to_root(back)]);
}
