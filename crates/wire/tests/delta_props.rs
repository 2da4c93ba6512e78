//! Properties of attribute-level state deltas: for arbitrary
//! `StateNode` trees (including semantic payloads, child reorders,
//! renames and duplicate child names) `apply(a, diff(a, b))` must
//! reconstruct `b` exactly — and therefore re-encode byte-identically —
//! and the delta codec must round-trip.

use cosoft_rng::{forall, Rng};
use cosoft_wire::delta::{apply, diff, state_version, version_of_encoded};
use cosoft_wire::{
    codec, AttrName, BytesMut, CopyMode, Message, ObjectPath, StateDelta, StateNode, Value,
    WidgetKind, Wire,
};

const LOWER: &str = "abcdefghijklmnopqrstuvwxyz";
const WORD: &str = "abcdefghijklmnopqrstuvwxyz0123456789_";

fn arb_value(r: &mut Rng) -> Value {
    match r.range(0..6) {
        0 => Value::Bool(r.bool(0.5)),
        1 => Value::Int(r.range(..)),
        2 => Value::Float(f64::from_bits(r.next_u64())),
        3 => Value::Text(
            r.string("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 _-", 0..=16),
        ),
        4 => Value::Bytes(r.vec(0..16, |r| r.range(..))),
        _ => Value::Point(r.range(..), r.range(..)),
    }
}

fn arb_attr_name(r: &mut Rng) -> AttrName {
    let builtin = [AttrName::Title, AttrName::Text, AttrName::ValueNum, AttrName::Selected];
    match r.range(0..=builtin.len()) {
        i if i == builtin.len() => {
            AttrName::from_str_lossy(&(r.string(LOWER, 1..=1) + &r.string(WORD, 0..=8)))
        }
        i => builtin[i].clone(),
    }
}

fn arb_kind(r: &mut Rng) -> WidgetKind {
    let builtin = [WidgetKind::Form, WidgetKind::Panel, WidgetKind::Label, WidgetKind::TextField];
    match r.range(0..=builtin.len()) {
        i if i == builtin.len() => {
            WidgetKind::from_str_lossy(&(r.string(LOWER, 1..=1) + &r.string(WORD, 0..=6)))
        }
        i => builtin[i].clone(),
    }
}

/// Arbitrary snapshot trees, up to four levels. Child names are drawn
/// from a small pool on purpose so that independently generated trees
/// overlap (exercising the recursive-match path) and duplicates occur
/// (exercising the wholesale replace fallback).
fn arb_state(r: &mut Rng) -> StateNode {
    fn within(r: &mut Rng, levels_below: usize) -> StateNode {
        let name = r.string("abcde", 1..=1) + &r.string("012", 0..=2);
        let mut n = StateNode::new(arb_kind(r), &name);
        let leaf = levels_below == 0 || r.range(0..3) == 0;
        n.attrs = r.vec(0..4, |r| (arb_attr_name(r), arb_value(r))).into_iter().collect();
        if leaf {
            n.semantic = r.vec(0..12, |r| r.range(..));
        } else {
            n.children = r.vec(0..4, |r| within(r, levels_below - 1));
        }
        n
    }
    within(r, 3)
}

fn arb_pair(r: &mut Rng) -> (StateNode, StateNode) {
    (arb_state(r), arb_state(r))
}

/// One random edit applied to a tree, producing correlated (base, target)
/// pairs: attr upsert, attr removal, semantic change, child reorder,
/// child removal, child insertion — chosen by an opaque seed.
fn mutate(mut s: StateNode, seed: u64, attr: AttrName, value: Value) -> StateNode {
    // Walk to a pseudo-random node.
    let mut node = &mut s;
    let mut cursor = seed;
    while !node.children.is_empty() && cursor & 1 == 1 {
        let idx = ((cursor >> 1) as usize) % node.children.len();
        node = &mut node.children[idx];
        cursor >>= 3;
    }
    match (seed >> 32) % 6 {
        0 => {
            node.attrs.insert(attr, value);
        }
        1 => {
            let key = node.attrs.keys().next().cloned();
            if let Some(key) = key {
                node.attrs.remove(&key);
            }
        }
        2 => {
            node.semantic.push((seed >> 8) as u8);
        }
        3 => {
            node.children.reverse();
        }
        4 => {
            if !node.children.is_empty() {
                let idx = ((seed >> 16) as usize) % node.children.len();
                node.children.remove(idx);
            }
        }
        _ => {
            node.children.push(
                StateNode::new(WidgetKind::Button, &format!("n{}", seed % 97))
                    .with_attr(attr, value),
            );
        }
    }
    s
}

/// The core contract: diff then apply reconstructs the target for
/// arbitrary, independently generated tree pairs.
#[test]
fn diff_apply_reconstructs_arbitrary_pairs() {
    forall(0..256, arb_pair, |(a, b)| {
        let d = diff(&a, &b);
        let rebuilt = apply(&a, &d).expect("delta of (a, b) must apply to a");
        assert_eq!(&rebuilt, &b);
        // Byte-identical round trip: the reconstruction re-encodes to
        // exactly the target's canonical encoding.
        assert_eq!(codec::encode_state_shared(&rebuilt), codec::encode_state_shared(&b));
        assert_eq!(state_version(&rebuilt), state_version(&b));
    });
}

/// Correlated pairs: a chain of small mutations (attr upserts and
/// removals, semantic edits, child reorder/remove/insert) stays
/// reconstructible at every step.
#[test]
fn diff_apply_tracks_mutation_chains() {
    let gen =
        |r: &mut Rng| (arb_state(r), r.vec(1..6, |r| r.next_u64()), arb_attr_name(r), arb_value(r));
    forall(0..256, gen, |(base, seeds, attr, value)| {
        let mut prev = base;
        for seed in seeds {
            let next = mutate(prev.clone(), seed, attr.clone(), value.clone());
            let d = diff(&prev, &next);
            let rebuilt = apply(&prev, &d).expect("mutation delta must apply");
            assert_eq!(&rebuilt, &next);
            assert_eq!(codec::encode_state_shared(&rebuilt), codec::encode_state_shared(&next));
            prev = next;
        }
    });
}

/// Self-diff is empty and applies as the identity.
#[test]
fn self_diff_is_empty() {
    forall(0..256, arb_state, |a| {
        let d = diff(&a, &a);
        assert!(d.is_empty());
        assert_eq!(apply(&a, &d).expect("empty delta applies"), a);
    });
}

/// The delta codec round-trips and leaves no trailing bytes.
#[test]
fn delta_codec_round_trips() {
    forall(0..256, arb_pair, |(a, b)| {
        let d = diff(&a, &b);
        let mut buf = BytesMut::new();
        d.put(&mut buf);
        let mut r = buf.freeze();
        assert_eq!(StateDelta::get(&mut r).expect("delta decodes"), d);
        assert_eq!(r.len(), 0);
    });
}

/// ApplyDelta messages round-trip through the message codec, and the
/// spliced (encode-once) framing is byte-identical to whole-message
/// framing — the fan-out path is indistinguishable on the wire.
#[test]
fn spliced_apply_delta_matches_whole_message() {
    let gen = |r: &mut Rng| (arb_pair(r), r.next_u64(), r.next_u64());
    forall(0..256, gen, |((a, b), req_id, base_version)| {
        let delta = diff(&a, &b);
        let new_version = state_version(&b);
        let path = ObjectPath::parse("root.panel").expect("valid");
        let mode = CopyMode::FlexibleMatch;
        let msg = Message::ApplyDelta {
            req_id,
            path: path.clone(),
            base_version,
            new_version,
            delta: delta.clone(),
            mode,
        };
        let bytes = codec::encode_message(&msg);
        assert_eq!(codec::decode_message(&bytes).expect("decodes"), msg);

        let payload = codec::encode_delta_shared(&delta);
        let frame =
            codec::frame_apply_delta(req_id, &path, base_version, new_version, &payload, mode);
        assert_eq!(frame.as_slice(), codec::frame_message(&msg).as_slice());
    });
}

/// Versions are content-derived: equal trees agree, and the
/// encoded-bytes fast path agrees with the tree-level fingerprint.
#[test]
fn versions_are_content_derived() {
    forall(0..256, arb_state, |a| {
        assert_eq!(state_version(&a), state_version(&a.clone()));
        assert_eq!(state_version(&a), version_of_encoded(&codec::encode_state_shared(&a)));
    });
}

/// The client-side acceptance rule for a delta leg, mirrored from
/// `Session::apply_delta`: base version must match, the delta must
/// apply, and the reconstruction must hash to the advertised version.
fn client_accepts(
    client_base: &StateNode,
    assumed_base_version: u64,
    new_version: u64,
    d: &cosoft_wire::StateDelta,
) -> Result<StateNode, ()> {
    if state_version(client_base) != assumed_base_version {
        return Err(());
    }
    let next = apply(client_base, d).map_err(|_| ())?;
    if state_version(&next) != new_version {
        return Err(());
    }
    Ok(next)
}

/// Divergence safety: a client holding *any* base — matching, stale, or
/// unrelated — either reconstructs the target exactly or rejects the
/// delta; after a rejection, the full-snapshot fallback converges and
/// re-primes a base that supports deltas again.
#[test]
fn divergent_base_falls_back_and_converges() {
    let gen = |r: &mut Rng| (arb_state(r), arb_state(r), arb_state(r));
    forall(0..256, gen, |(server_base, client_base, target)| {
        let d = diff(&server_base, &target);
        let new_version = state_version(&target);
        match client_accepts(&client_base, state_version(&server_base), new_version, &d) {
            Ok(next) => {
                // Acceptance implies byte-exact convergence — the
                // version check never lets a wrong state through.
                assert_eq!(codec::encode_state_shared(&next), codec::encode_state_shared(&target));
            }
            Err(()) => {
                // Fallback: the server re-sends `target` in full. The
                // snapshot converges by construction; the interesting
                // claim is that the re-primed base chain works — the
                // *next* delta (target → server_base, say) applies.
                let reprimed = target.clone();
                let d2 = diff(&reprimed, &server_base);
                let rebuilt = client_accepts(
                    &reprimed,
                    state_version(&reprimed),
                    state_version(&server_base),
                    &d2,
                );
                assert_eq!(rebuilt, Ok(server_base.clone()));
            }
        }
        // A matching base always accepts: divergence is the only
        // reason a delta leg can fail.
        let matching = client_accepts(&server_base, state_version(&server_base), new_version, &d);
        assert_eq!(matching, Ok(target));
    });
}
