//! State versions: Merkle hashes of [`StateNode`] trees.
//!
//! A node's hash combines the digest of its *own* encoded fields — FNV-1a
//! 64 over kind, name, attributes, semantic payload and the count of its
//! children, exactly the bytes a `StateNode` writes before its first
//! child — with its children's hashes, each mixed with its position:
//!
//! ```text
//! hash(n) = fin(own(n) + Σᵢ fin(hash(cᵢ) + (i + 1)·φ))     (mod 2⁶⁴)
//! ```
//!
//! where `fin` is SplitMix64's finaliser and `φ` the golden-ratio
//! constant. A state's version is its root's hash. Own fields and child
//! hashes in order together determine the encoding, so two states get
//! equal versions iff their canonical encodings are equal (up to 64-bit
//! collisions). The sum makes a node's hash follow one child's change in
//! O(1): take the child's old term out and put its new one in.
//!
//! There is one definition and it takes one pass either way: over a tree
//! ([`state_version`], [`VersionedState::new`]), where each node's own
//! fields are encoded into one scratch buffer, or over an encoding
//! ([`version_of_encoded`]), where they are a slice of it. A
//! [`VersionedState`] keeps every node's hashes beside the tree, so a
//! delta replayed on it rehashes only the nodes it edits and their
//! ancestors.

use std::collections::HashMap;

use super::{apply_op, DeltaError, EditOp, StateDelta};
use crate::codec::{self, Wire};
use crate::{visits, AttrMap, Bytes, BytesMut, StateNode, WidgetKind};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// SplitMix64's finaliser: every input bit reaches every output bit, so
/// neither a sum of terms nor a near neighbour cancels.
fn finish(mut h: u64) -> u64 {
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// The term child `index` with hash `hash` adds to its parent's sum.
fn term(index: usize, hash: u64) -> u64 {
    finish(hash.wrapping_add((index as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)))
}

/// The sum of the terms of children with these hashes, in order.
fn sum_of(children: impl Iterator<Item = u64>) -> u64 {
    children.enumerate().fold(0, |sum, (i, h)| sum.wrapping_add(term(i, h)))
}

/// A node's hash from its own digest and its children's sum.
fn combine(own: u64, sum: u64) -> u64 {
    finish(own.wrapping_add(sum))
}

/// FNV-1a over a node's own fields as they encode: what [`combine`]
/// starts from. Each node hashed counts as a visit.
fn own_digest(node: &StateNode, scratch: &mut BytesMut) -> u64 {
    visits::add(1);
    scratch.clear();
    node.kind.put(scratch);
    node.name.put(scratch);
    node.attrs.put(scratch);
    node.semantic.put(scratch);
    (node.children.len() as u64).put(scratch);
    fnv(FNV_OFFSET, scratch)
}

fn hash_tree(node: &StateNode, scratch: &mut BytesMut) -> u64 {
    let own = own_digest(node, scratch);
    combine(own, sum_of(node.children.iter().map(|c| hash_tree(c, scratch))))
}

/// Content-derived version of a snapshot: the Merkle hash of its tree
/// (module docs). Two snapshots carry the same version iff they are
/// structurally equal (modulo hash collisions), so version agreement
/// between sender and receiver means their sync bases match and a delta
/// against that base is safe to apply.
pub fn state_version(s: &StateNode) -> u64 {
    hash_tree(s, &mut BytesMut::with_capacity(64))
}

/// The same version as [`state_version`], computed in one pass over a
/// state's encoding without decoding it. Bytes that are not one encoded
/// state hash flat, as one blob, which no state's version equals but by
/// collision.
pub fn version_of_encoded(bytes: &Bytes) -> u64 {
    merkle_of_encoded(bytes).unwrap_or_else(|_| finish(fnv(!FNV_OFFSET, bytes)))
}

/// Each node's own fields are the slice its four field skips and its
/// child count walk over; its children follow it. `open` holds each node
/// whose children are still being read: its own digest, the sum of the
/// terms of the children read so far, how many that is and how many
/// there are.
fn merkle_of_encoded(bytes: &Bytes) -> Result<u64, crate::WireError> {
    struct Open {
        own: u64,
        sum: u64,
        read: usize,
        children: usize,
    }
    let mut buf = bytes.clone();
    let mut open: Vec<Open> = Vec::new();
    loop {
        let start = buf.clone();
        WidgetKind::skip(&mut buf)?;
        String::skip(&mut buf)?;
        AttrMap::skip(&mut buf)?;
        Vec::<u8>::skip(&mut buf)?;
        let children = codec::get_len(&mut buf)?;
        let own = start.get(..start.len() - buf.len()).unwrap_or_default();
        visits::add(1);
        let own = fnv(FNV_OFFSET, own);
        if children > 0 {
            open.push(Open { own, sum: 0, read: 0, children });
            continue;
        }
        let mut hash = combine(own, 0);
        loop {
            let Some(parent) = open.last_mut() else {
                return if buf.is_empty() {
                    Ok(hash)
                } else {
                    Err(crate::WireError::TrailingBytes { remaining: buf.len() })
                };
            };
            parent.sum = parent.sum.wrapping_add(term(parent.read, hash));
            parent.read += 1;
            if parent.read < parent.children {
                break;
            }
            hash = combine(parent.own, parent.sum);
            open.pop();
        }
    }
}

/// A node with more children than this finds one by name through a map;
/// a smaller one compares names in order.
const INDEXED: usize = 8;

/// The hashes of one node and of everything below it, shaped as the
/// node: `own` is the digest of its own fields, `sum` its children's sum
/// of terms, `hash` its Merkle hash. A node of many children also keeps
/// the index of the first child of each name.
#[derive(Debug, Clone, PartialEq, Eq)]
struct NodeHashes {
    own: u64,
    sum: u64,
    hash: u64,
    children: Vec<NodeHashes>,
    by_name: Option<HashMap<String, usize>>,
}

impl NodeHashes {
    fn of(node: &StateNode, scratch: &mut BytesMut) -> NodeHashes {
        let own = own_digest(node, scratch);
        let children: Vec<NodeHashes> =
            node.children.iter().map(|c| NodeHashes::of(c, scratch)).collect();
        let sum = sum_of(children.iter().map(|c| c.hash));
        NodeHashes { own, sum, hash: combine(own, sum), children, by_name: by_name(node) }
    }

    /// The index of the first child of `node` (which these are the hashes
    /// of) named `name`: one visit through the map, or a visit for each
    /// child compared.
    fn find(&self, node: &StateNode, name: &str) -> Option<usize> {
        match &self.by_name {
            Some(map) => {
                visits::add(1);
                map.get(name).copied()
            }
            None => node.children.iter().position(|c| {
                visits::add(1);
                c.name == name
            }),
        }
    }
}

/// The name map of a node of many children.
fn by_name(node: &StateNode) -> Option<HashMap<String, usize>> {
    (node.children.len() > INDEXED).then(|| {
        let mut map = HashMap::with_capacity(node.children.len());
        for (i, c) in node.children.iter().enumerate() {
            map.entry(c.name.clone()).or_insert(i);
        }
        map
    })
}

/// A state with the hash of every node kept beside it: its version is
/// read, not computed, and [`VersionedState::apply`] rehashes what the
/// edits touch — the node each edit addresses (its whole subtree for a
/// `Replace` or `Restructure`) and that node's ancestors — and nothing
/// else. A sync base is one of these at every end of a connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionedState {
    state: StateNode,
    hashes: NodeHashes,
}

impl VersionedState {
    /// Hashes `state`, every node once.
    pub fn new(state: StateNode) -> VersionedState {
        let hashes = NodeHashes::of(&state, &mut BytesMut::with_capacity(64));
        VersionedState { state, hashes }
    }

    /// The version: [`state_version`] of the state.
    pub fn version(&self) -> u64 {
        self.hashes.hash
    }

    /// The state.
    pub fn state(&self) -> &StateNode {
        &self.state
    }

    /// Replays `delta` on the state in place, as [`super::apply`] does on
    /// a copy, and rehashes the nodes it edited and their ancestors.
    ///
    /// # Errors
    ///
    /// As [`super::apply`]; the state is then left part-edited and must
    /// be discarded.
    pub fn apply(&mut self, delta: &StateDelta) -> Result<(), DeltaError> {
        delta.edits.iter().try_for_each(|edit| {
            let missing = || DeltaError::MissingNode { path: edit.path.join(".") };
            let (at, _) = self.locate(&edit.path).ok_or_else(missing)?;
            self.edit(&at, &edit.op)
        })
    }

    /// The node a path of child names leads to, as [`VersionedState::apply`]
    /// resolves it (the first child of each name), with the child
    /// indices of the way there: a step costs one visit at a node of many
    /// children, and one for each child whose name is compared at
    /// another.
    pub fn locate(&self, path: &[String]) -> Option<(Vec<usize>, &StateNode)> {
        let mut at = Vec::with_capacity(path.len());
        let (mut node, mut hashes) = (&self.state, &self.hashes);
        for seg in path {
            let i = hashes.find(node, seg)?;
            at.push(i);
            node = node.children.get(i)?;
            hashes = hashes.children.get(i)?;
        }
        Some((at, node))
    }

    /// Performs `op` on the node the child indices `at` lead to, and
    /// rehashes it and its ancestors: each ancestor swaps the term of the
    /// one child that changed, so a patch costs the depth.
    ///
    /// # Errors
    ///
    /// [`DeltaError::MissingNode`] when `at` leads nowhere (its path, as
    /// indices), or the op's error; the state is then left part-edited
    /// and must be discarded.
    pub fn edit(&mut self, at: &[usize], op: &EditOp) -> Result<(), DeltaError> {
        let mut scratch = BytesMut::with_capacity(64);
        edit_at(&mut self.state, &mut self.hashes, at, op, &mut scratch).ok_or_else(|| {
            let path: Vec<String> = at.iter().map(|i| format!("#{i}")).collect();
            DeltaError::MissingNode { path: path.join(".") }
        })?
    }
}

/// Walks `at` down from `node` with its hashes in step, performs `op` at
/// the end and rehashes on the way back up. `None` when `at` leads
/// nowhere; otherwise the op's result.
fn edit_at(
    node: &mut StateNode,
    hashes: &mut NodeHashes,
    at: &[usize],
    op: &EditOp,
    scratch: &mut BytesMut,
) -> Option<Result<(), DeltaError>> {
    let done = match at.split_first() {
        None => {
            let done = apply_op(node, op);
            match op {
                EditOp::Patch(_) => hashes.own = own_digest(node, scratch),
                EditOp::Replace(_) | EditOp::Restructure { .. } => {
                    *hashes = NodeHashes::of(node, scratch);
                }
            }
            done
        }
        Some((&index, below)) => {
            visits::add(1);
            let child = node.children.get_mut(index)?;
            let child_hashes = hashes.children.get_mut(index)?;
            let before = term(index, child_hashes.hash);
            let done = edit_at(child, child_hashes, below, op, scratch)?;
            let after = term(index, child_hashes.hash);
            hashes.sum = hashes.sum.wrapping_sub(before).wrapping_add(after);
            if below.is_empty() && matches!(op, EditOp::Replace(_)) {
                // The child may be named otherwise now.
                hashes.by_name = by_name(node);
            }
            done
        }
    };
    hashes.hash = combine(hashes.own, hashes.sum);
    Some(done)
}
