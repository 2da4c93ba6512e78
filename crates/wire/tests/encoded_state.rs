//! The proof that folding the state grammar into one table changed
//! nothing.
//!
//! [`codec::get_state`] builds a [`StateNode`]; reading an
//! [`EncodedState`] checks the same bytes without building anything
//! ([`Wire::skip`]) and slices them off the frame. Both walks are derived
//! row by row from the same tables (`Value`'s, the name tables', the
//! leaves' own `get` and `skip`); this corpus was written when they were
//! two hand-written functions and nothing else held them together, and
//! it still demands what it demanded then: on every input the two accept
//! together, fail with the same error, and on success consume the same
//! bytes and describe the same tree. It runs with the rest of the
//! workspace's tests, and again under the scheduled `miri` job.

use cosoft_rng::Rng;
use cosoft_wire::codec::{self, MAX_LEN, MAX_STATE_DEPTH};
use cosoft_wire::{
    AttrName, Bytes, EncodedState, Message, Overwritten, StateNode, Value, WidgetKind, Wire,
    WireError,
};

/// The state of every state-carrying golden vector (`golden.rs`, `snap()`)
/// and its committed bytes.
fn golden_snap() -> StateNode {
    StateNode::new(WidgetKind::Label, "l").with_attr(AttrName::Text, Value::Text("hi".into()))
}
const GOLDEN_SNAP: [u8; 20] = [
    0x05, 0x6c, 0x61, 0x62, 0x65, 0x6c, 0x01, 0x6c, 0x01, 0x04, 0x74, 0x65, 0x78, 0x74, 0x03, 0x02,
    0x68, 0x69, 0x00, 0x00,
];

/// A state using every `Value` variant, custom kind and attribute names,
/// a semantic payload, duplicate sibling names and three levels.
fn rich_state() -> StateNode {
    let values = [
        Value::Bool(true),
        Value::Int(i64::MIN),
        Value::Float(f64::NAN),
        Value::Text("héllo".into()),
        Value::TextList(vec!["a".into(), String::new()]),
        Value::IntList(vec![-1, 300]),
        Value::Point(i32::MIN, i32::MAX),
        Value::Color(0, 128, 255),
        Value::Bytes(vec![0, 255, 7]),
        Value::Stroke(vec![(0, 0), (-5, 9)]),
        Value::StrokeList(vec![Vec::new(), vec![(1, 2)]]),
    ];
    let mut twin = StateNode::new(WidgetKind::Custom("simview".into()), "twin");
    for (i, v) in values.into_iter().enumerate() {
        twin.attrs.insert(AttrName::Custom(format!("attr{i}")), v);
    }
    twin.semantic = vec![0xde, 0xad, 0x00, 0xbe, 0xef];
    StateNode::new(WidgetKind::Form, "root")
        .with_attr(AttrName::Title, Value::Text("everything".into()))
        .with_child(twin.clone().with_child(golden_snap()))
        .with_child(twin)
}

// ---- hand-written encodings (lengths below 128 are one byte) -------------

fn text(s: &str) -> Vec<u8> {
    let mut out = vec![u8::try_from(s.len()).expect("short")];
    out.extend_from_slice(s.as_bytes());
    out
}

/// One node: `kind ‖ name ‖ attrs ‖ semantic ‖ children`, every part
/// already encoded.
fn node(kind: &[u8], attrs: &[(&str, &[u8])], children: &[Vec<u8>]) -> Vec<u8> {
    let mut out = kind.to_vec();
    out.extend(text("n"));
    out.push(u8::try_from(attrs.len()).expect("few"));
    for (name, value) in attrs {
        out.extend(text(name));
        out.extend_from_slice(value);
    }
    out.push(0); // semantic
    out.push(u8::try_from(children.len()).expect("few"));
    for c in children {
        out.extend_from_slice(c);
    }
    out
}

/// `depth` nested single-child nodes, written without recursion.
fn nested(depth: usize) -> Vec<u8> {
    let mut out = Vec::new();
    for level in 0..depth {
        out.extend([1, b'p', 1, b'n', 0, 0, u8::from(level + 1 < depth)]);
    }
    out
}

fn uvarint(mut v: u64) -> Vec<u8> {
    let mut out = Vec::new();
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
    out
}

/// Attribute names out of order and one name twice: legal on the wire
/// (the decoder's map sorts and the later value wins), never produced by
/// `StateNode::put`.
fn non_canonical() -> Vec<u8> {
    let (one, two, three) = ([1, 2], [1, 4], [1, 6]); // Int 1, 2, 3
    node(&text("label"), &[("width", &one), ("text", &two), ("width", &three)], &[])
}

/// Valid encodings, canonical and not.
fn valid_inputs() -> Vec<Vec<u8>> {
    vec![
        GOLDEN_SNAP.to_vec(),
        codec::encode_state_shared(&rich_state()).to_vec(),
        non_canonical(),
        // A length written in two bytes where one would do.
        node(&[0x81, 0x00, b'p'], &[], &[]),
        nested(MAX_STATE_DEPTH),
    ]
}

/// Runs both walks over `input` and asserts they agree; returns what they
/// agreed on.
fn agree(input: &[u8]) -> Result<StateNode, WireError> {
    let mut built_from = Bytes::from(input.to_vec());
    let mut sliced_from = built_from.clone();
    let built = codec::get_state(&mut built_from);
    let sliced = EncodedState::get(&mut sliced_from);
    match (&built, &sliced) {
        (Ok(tree), Ok(encoded)) => {
            assert_eq!(sliced_from.len(), built_from.len(), "bytes consumed, {input:02x?}");
            assert_eq!(encoded.as_slice(), &input[..input.len() - built_from.len()]);
            assert_eq!(encoded.decode().as_ref(), Ok(tree), "{input:02x?}");
        }
        (Err(a), Err(b)) => assert_eq!(a, b, "{input:02x?}"),
        _ => panic!("one walk accepts, one refuses {input:02x?}: {built:?} / {sliced:?}"),
    }
    built
}

#[test]
fn valid_encodings_slice_to_the_tree_get_state_builds() {
    assert_eq!(EncodedState::of(&golden_snap()).as_slice(), GOLDEN_SNAP);
    assert_eq!(agree(&GOLDEN_SNAP), Ok(golden_snap()));
    assert_eq!(agree(&non_canonical()).expect("legal").attrs.len(), 2);
    for mut input in valid_inputs() {
        let tree = agree(&input).expect("valid");
        // Whatever follows the state stays in the buffer.
        input.extend([0x00, 0xff, 0x80]);
        assert_eq!(agree(&input), Ok(tree));
    }
}

#[test]
fn every_truncation_fails_the_same_way() {
    for input in valid_inputs() {
        for cut in 0..input.len() {
            assert!(agree(&input[..cut]).is_err(), "cut at {cut} of {input:02x?}");
        }
    }
}

#[test]
fn seeded_mutations_never_split_the_walks() {
    // Seeded, so a failure replays.
    let mut rng = Rng::new(0x5eed_0014);
    let mut next = move || rng.next_u64();
    let rounds = if cfg!(miri) { 100 } else { 5_000 };
    let (mut accepted, mut refused) = (0u32, 0u32);
    for input in valid_inputs() {
        for _ in 0..rounds {
            let mut mutated = input.clone();
            for _ in 0..=next() % 3 {
                let at = (next() % mutated.len() as u64) as usize;
                // Half the time a small value: those are the bytes that
                // read as lengths, counts and tags.
                mutated[at] = if next() % 2 == 0 { (next() % 12) as u8 } else { next() as u8 };
            }
            match agree(&mutated) {
                Ok(_) => accepted += 1,
                Err(_) => refused += 1,
            }
        }
    }
    assert!(accepted > 100 && refused > 100, "one-sided corpus: {accepted} / {refused}");
}

#[test]
fn limits_are_enforced_alike() {
    let label = text("label");
    let cases: Vec<(Vec<u8>, WireError)> = vec![
        // A varint that does not end within 64 bits.
        (vec![0xff; 11], WireError::VarintOverflow),
        // A declared length past MAX_LEN: a kind, an attribute count.
        (uvarint(MAX_LEN + 1), WireError::LengthOverflow { declared: MAX_LEN + 1, max: MAX_LEN }),
        (
            [label.clone(), text("n"), uvarint(u64::MAX)].concat(),
            WireError::LengthOverflow { declared: u64::MAX, max: MAX_LEN },
        ),
        // Not UTF-8, in a kind and in a text value.
        (vec![1, 0xff], WireError::InvalidUtf8),
        (node(&label, &[("text", &[3, 2, 0xc3, 0x28])], &[]), WireError::InvalidUtf8),
        // No such value tag.
        (node(&label, &[("x", &[11])], &[]), WireError::InvalidTag { kind: "Value", tag: 11 }),
        // A point coordinate of i32::MAX + 1 (zigzag 2^32).
        (
            node(&label, &[("at", &[[6].as_slice(), &uvarint(1 << 32), &[0]].concat())], &[]),
            WireError::LengthOverflow { declared: 1 << 31, max: i32::MAX as u64 },
        ),
        // The same in the second stroke of a stroke list.
        (
            node(
                &label,
                &[("ink", &[[10, 2, 0, 1, 0].as_slice(), &uvarint((1 << 32) + 1)].concat())],
                &[],
            ),
            WireError::LengthOverflow { declared: (1 << 31) + 1, max: i32::MAX as u64 },
        ),
        // One level too many, alone and under a sibling that is fine.
        (nested(MAX_STATE_DEPTH + 1), WireError::DepthExceeded { max: MAX_STATE_DEPTH }),
        (
            node(&label, &[], &[nested(2), nested(MAX_STATE_DEPTH)]),
            WireError::DepthExceeded { max: MAX_STATE_DEPTH },
        ),
    ];
    for (input, expected) in cases {
        assert_eq!(agree(&input), Err(expected), "{input:02x?}");
    }
}

#[test]
fn state_applied_carries_the_bytes_through() {
    // Canonical: the committed golden bytes, both ways.
    let m =
        Message::StateApplied { req_id: 3, overwritten: Some(golden_snap().into()), error: None };
    let golden = [[0x18, 0x03, 0x01].as_slice(), &GOLDEN_SNAP, &[0x00]].concat();
    assert_eq!(codec::encode_message(&m), golden);
    assert_eq!(codec::decode_message(&golden), Ok(m));

    // Not canonical: the field is the sender's bytes, not a re-encoding,
    // and the message goes back out as it came in.
    let odd = non_canonical();
    let frame = [[0x18, 0x03, 0x01].as_slice(), &odd, &[0x01, 0x01, b'e']].concat();
    let back = codec::decode_message(&frame).expect("legal frame");
    match &back {
        Message::StateApplied {
            req_id: 3,
            overwritten: Some(Overwritten::State(state)),
            error: Some(e),
        } => {
            assert_eq!(state.as_slice(), odd);
            assert_ne!(*state, EncodedState::of(&state.decode().expect("checked")));
            assert_eq!(e, "e");
        }
        other => panic!("expected StateApplied, got {other:?}"),
    }
    assert_eq!(codec::encode_message(&back), frame);

    // A state the walk refuses fails the whole message with its error.
    let bad = [[0x18, 0x03, 0x01].as_slice(), &nested(MAX_STATE_DEPTH + 1), &[0x00]].concat();
    assert_eq!(codec::decode_message(&bad), Err(WireError::DepthExceeded { max: MAX_STATE_DEPTH }));
}
