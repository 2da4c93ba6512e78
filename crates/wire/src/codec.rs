//! Hand-rolled binary codec for the COSOFT protocol.
//!
//! Layout conventions:
//!
//! * unsigned integers are LEB128 varints; signed integers are zigzag-coded
//!   varints; `f64` travels as its 8 little-endian IEEE-754 bytes,
//! * strings and byte blobs are varint-length-prefixed, and so is every
//!   list and map: a count, then the items,
//! * tagged unions use a single tag byte,
//! * a complete message on a stream transport is framed as
//!   `u32-le length ‖ body` (see [`frame_message`] / [`read_frame`]).
//!
//! [`Wire`] is the one codec entry per type. This file implements it for
//! the leaves above and the containers built from them; the unions and
//! records of the vocabulary derive it from their row tables (`table.rs`),
//! so nothing here names a tag. Every decoder enforces [`MAX_LEN`] on
//! declared lengths so a corrupt or hostile frame cannot trigger huge
//! allocations.

use std::collections::BTreeMap;

use crate::{
    Bytes, BytesMut, CopyMode, InstanceId, Message, MessageKind, ObjectPath, StateDelta, StateNode,
    UiEvent, UserId, WidgetKind, WireError,
};

/// Maximum accepted declared length for any collection, string or frame.
pub const MAX_LEN: u64 = 64 * 1024 * 1024;

type Result<T> = std::result::Result<T, WireError>;

/// A type with a wire form: how it is written, read, and checked without
/// being read.
pub trait Wire: Sized {
    /// Appends the value.
    fn put(&self, buf: &mut BytesMut);

    /// Decodes one value off the front of `buf`.
    ///
    /// # Errors
    ///
    /// A [`WireError`] on malformed input: truncation, a tag outside the
    /// type's table, invalid UTF-8, a declared length over [`MAX_LEN`].
    fn get(buf: &mut Bytes) -> Result<Self>;

    /// Steps over one value: accepts exactly what [`Wire::get`] accepts,
    /// fails with the same error on the rest, consumes the same bytes —
    /// and builds nothing. The default decodes and drops; only what
    /// allocates (strings, blobs) and what contains it says otherwise.
    ///
    /// # Errors
    ///
    /// As [`Wire::get`].
    fn skip(buf: &mut Bytes) -> Result<()> {
        Self::get(buf).map(drop)
    }

    /// Appends a list of these: the count, then the items.
    fn put_list(items: &[Self], buf: &mut BytesMut) {
        (items.len() as u64).put(buf);
        for item in items {
            item.put(buf);
        }
    }

    /// Decodes a list. `u8` overrides the three `*_list` methods to move
    /// a blob whole instead of byte by byte; the bytes on the wire are the
    /// same.
    ///
    /// # Errors
    ///
    /// As [`Wire::get`].
    fn get_list(buf: &mut Bytes) -> Result<Vec<Self>> {
        let n = get_len(buf)?;
        let mut items = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            items.push(Self::get(buf)?);
        }
        Ok(items)
    }

    /// Steps over a list.
    ///
    /// # Errors
    ///
    /// As [`Wire::get`].
    fn skip_list(buf: &mut Bytes) -> Result<()> {
        (0..get_len(buf)?).try_for_each(|_| Self::skip(buf))
    }
}

// --------------------------------------------------------------------------
// leaves
// --------------------------------------------------------------------------
//
// Each is `#[inline]`: the tables that call them expand in other modules,
// and a plain function is not inlined across codegen units without it
// (state encode read 2× slower before).

#[inline]
pub(crate) fn get_u8(buf: &mut Bytes, what: &'static str) -> Result<u8> {
    buf.get_u8().ok_or(WireError::UnexpectedEof { expected: what })
}

#[inline]
pub(crate) fn get_len(buf: &mut Bytes) -> Result<usize> {
    let n = u64::get(buf)?;
    if n > MAX_LEN {
        return Err(WireError::LengthOverflow { declared: n, max: MAX_LEN });
    }
    Ok(n as usize)
}

#[inline]
pub(crate) fn put_str(buf: &mut BytesMut, s: &str) {
    u8::put_list(s.as_bytes(), buf);
}

/// An unsigned LEB128 varint.
impl Wire for u64 {
    #[inline]
    fn put(&self, buf: &mut BytesMut) {
        let mut v = *self;
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                buf.put_u8(byte);
                return;
            }
            buf.put_u8(byte | 0x80);
        }
    }

    #[inline]
    fn get(buf: &mut Bytes) -> Result<Self> {
        let mut shift = 0u32;
        let mut out = 0u64;
        loop {
            let byte = get_u8(buf, "varint")?;
            if shift >= 64 {
                return Err(WireError::VarintOverflow);
            }
            out |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(out);
            }
            shift += 7;
        }
    }
}

/// A zigzag-coded signed varint.
impl Wire for i64 {
    #[inline]
    fn put(&self, buf: &mut BytesMut) {
        (((self << 1) ^ (self >> 63)) as u64).put(buf);
    }

    #[inline]
    fn get(buf: &mut Bytes) -> Result<Self> {
        let u = u64::get(buf)?;
        Ok(((u >> 1) as i64) ^ -((u & 1) as i64))
    }
}

/// A coordinate: an `i64` on the wire, refused outside `i32`.
impl Wire for i32 {
    #[inline]
    fn put(&self, buf: &mut BytesMut) {
        i64::from(*self).put(buf);
    }

    #[inline]
    fn get(buf: &mut Bytes) -> Result<Self> {
        let v = i64::get(buf)?;
        i32::try_from(v).map_err(|_| WireError::LengthOverflow {
            declared: v.unsigned_abs(),
            max: i32::MAX as u64,
        })
    }
}

impl Wire for bool {
    #[inline]
    fn put(&self, buf: &mut BytesMut) {
        buf.put_u8(u8::from(*self));
    }

    #[inline]
    fn get(buf: &mut Bytes) -> Result<Self> {
        Ok(get_u8(buf, "bool")? != 0)
    }
}

impl Wire for f64 {
    #[inline]
    fn put(&self, buf: &mut BytesMut) {
        buf.put_u64_le(self.to_bits());
    }

    #[inline]
    fn get(buf: &mut Bytes) -> Result<Self> {
        let bits = buf.get_u64_le().ok_or(WireError::UnexpectedEof { expected: "f64" })?;
        Ok(f64::from_bits(bits))
    }
}

/// One byte; a list of them is a blob, copied in bulk.
impl Wire for u8 {
    #[inline]
    fn put(&self, buf: &mut BytesMut) {
        buf.put_u8(*self);
    }

    #[inline]
    fn get(buf: &mut Bytes) -> Result<Self> {
        get_u8(buf, "byte")
    }

    #[inline]
    fn put_list(items: &[Self], buf: &mut BytesMut) {
        (items.len() as u64).put(buf);
        buf.put_slice(items);
    }

    #[inline]
    fn get_list(buf: &mut Bytes) -> Result<Vec<Self>> {
        let n = get_len(buf)?;
        let raw = buf.split_to(n).ok_or(WireError::UnexpectedEof { expected: "byte blob" })?;
        Ok(raw.to_vec())
    }

    #[inline]
    fn skip_list(buf: &mut Bytes) -> Result<()> {
        let n = get_len(buf)?;
        buf.advance(n).ok_or(WireError::UnexpectedEof { expected: "byte blob" })
    }
}

impl Wire for String {
    #[inline]
    fn put(&self, buf: &mut BytesMut) {
        put_str(buf, self);
    }

    #[inline]
    fn get(buf: &mut Bytes) -> Result<Self> {
        let n = get_len(buf)?;
        let raw = buf.split_to(n).ok_or(WireError::UnexpectedEof { expected: "string body" })?;
        String::from_utf8(raw.to_vec()).map_err(|_| WireError::InvalidUtf8)
    }

    #[inline]
    fn skip(buf: &mut Bytes) -> Result<()> {
        const EOF: WireError = WireError::UnexpectedEof { expected: "string body" };
        let n = get_len(buf)?;
        std::str::from_utf8(buf.get(..n).ok_or(EOF)?).map_err(|_| WireError::InvalidUtf8)?;
        buf.advance(n).ok_or(EOF)
    }
}

impl Wire for UserId {
    #[inline]
    fn put(&self, buf: &mut BytesMut) {
        self.0.put(buf);
    }

    #[inline]
    fn get(buf: &mut Bytes) -> Result<Self> {
        u64::get(buf).map(UserId)
    }
}

impl Wire for InstanceId {
    #[inline]
    fn put(&self, buf: &mut BytesMut) {
        self.0.put(buf);
    }

    #[inline]
    fn get(buf: &mut Bytes) -> Result<Self> {
        u64::get(buf).map(InstanceId)
    }
}

/// The segments, as a list of strings; a segment no path may have is
/// refused.
impl Wire for ObjectPath {
    #[inline]
    fn put(&self, buf: &mut BytesMut) {
        String::put_list(self.segments(), buf);
    }

    #[inline]
    fn get(buf: &mut Bytes) -> Result<Self> {
        ObjectPath::from_segments(String::get_list(buf)?)
    }
}

// --------------------------------------------------------------------------
// containers
// --------------------------------------------------------------------------

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, buf: &mut BytesMut) {
        T::put_list(self, buf);
    }

    fn get(buf: &mut Bytes) -> Result<Self> {
        T::get_list(buf)
    }

    fn skip(buf: &mut Bytes) -> Result<()> {
        T::skip_list(buf)
    }
}

/// A pair (a point of a stroke), one after the other.
impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, buf: &mut BytesMut) {
        self.0.put(buf);
        self.1.put(buf);
    }

    fn get(buf: &mut Bytes) -> Result<Self> {
        Ok((A::get(buf)?, B::get(buf)?))
    }

    fn skip(buf: &mut Bytes) -> Result<()> {
        A::skip(buf)?;
        B::skip(buf)
    }
}

/// A map (an object's attributes): the count, then key and value of each
/// entry in the sender's order. A key sent twice keeps its later value.
impl<K: Wire + Ord, V: Wire> Wire for BTreeMap<K, V> {
    fn put(&self, buf: &mut BytesMut) {
        (self.len() as u64).put(buf);
        for (key, value) in self {
            key.put(buf);
            value.put(buf);
        }
    }

    fn get(buf: &mut Bytes) -> Result<Self> {
        let mut map = BTreeMap::new();
        for _ in 0..get_len(buf)? {
            map.insert(K::get(buf)?, V::get(buf)?);
        }
        Ok(map)
    }

    fn skip(buf: &mut Bytes) -> Result<()> {
        <(K, V)>::skip_list(buf)
    }
}

/// `Option<T>` for each `T` that occurs optionally: one byte, 0 for none
/// or 1 for some, then the value. The name beside the type is what a byte
/// that is neither is refused under.
macro_rules! optional {
    ($($ty:ty: $kind:literal),+ $(,)?) => {$(
        impl Wire for Option<$ty> {
            fn put(&self, buf: &mut BytesMut) {
                buf.put_u8(u8::from(self.is_some()));
                if let Some(some) = self {
                    some.put(buf);
                }
            }

            fn get(buf: &mut Bytes) -> Result<Self> {
                some_follows(buf, $kind)?.then(|| <$ty>::get(buf)).transpose()
            }

            fn skip(buf: &mut Bytes) -> Result<()> {
                if some_follows(buf, $kind)? {
                    <$ty>::skip(buf)?;
                }
                Ok(())
            }
        }
    )+};
}

optional! {
    StateNode: "Option",
    String: "Option",
    WidgetKind: "Option<WidgetKind>",
    Vec<u8>: "Option<Vec<u8>>",
}

fn some_follows(buf: &mut Bytes, kind: &'static str) -> Result<bool> {
    match get_u8(buf, "option tag")? {
        0 => Ok(false),
        1 => Ok(true),
        tag => Err(WireError::InvalidTag { kind, tag }),
    }
}

// --------------------------------------------------------------------------
// state snapshots
// --------------------------------------------------------------------------

/// Deepest [`StateNode`] nesting [`get_state`] accepts (a lone node is
/// depth 1). The decoder recurses once per level, so without the bound a
/// small frame of single-child nodes would overflow the decoding thread's
/// stack.
pub const MAX_STATE_DEPTH: usize = 128;

/// Decodes a [`StateNode`] snapshot tree: its [`Wire::get`], as a function.
///
/// # Errors
///
/// Besides malformed input, a tree nested deeper than [`MAX_STATE_DEPTH`]
/// is rejected with [`WireError::DepthExceeded`].
pub fn get_state(buf: &mut Bytes) -> Result<StateNode> {
    StateNode::get(buf)
}

/// Kind, name, attributes, semantic payload, children. Written by hand
/// because the two reading walks count levels on the way down, which a
/// `record!` has nowhere to carry; each field still goes through its own
/// type's `Wire`.
impl Wire for StateNode {
    fn put(&self, buf: &mut BytesMut) {
        self.kind.put(buf);
        self.name.put(buf);
        self.attrs.put(buf);
        self.semantic.put(buf);
        self.children.put(buf);
    }

    fn get(buf: &mut Bytes) -> Result<Self> {
        get_state_within(buf, MAX_STATE_DEPTH)
    }

    fn skip(buf: &mut Bytes) -> Result<()> {
        skip_state_within(buf, MAX_STATE_DEPTH)
    }
}

fn levels_below(levels: usize) -> Result<usize> {
    levels.checked_sub(1).ok_or(WireError::DepthExceeded { max: MAX_STATE_DEPTH })
}

fn get_state_within(buf: &mut Bytes, levels: usize) -> Result<StateNode> {
    let below = levels_below(levels)?;
    let mut node = StateNode {
        kind: Wire::get(buf)?,
        name: Wire::get(buf)?,
        attrs: Wire::get(buf)?,
        semantic: Wire::get(buf)?,
        children: Vec::new(),
    };
    for _ in 0..get_len(buf)? {
        node.children.push(get_state_within(buf, below)?);
    }
    Ok(node)
}

fn skip_state_within(buf: &mut Bytes, levels: usize) -> Result<()> {
    let below = levels_below(levels)?;
    WidgetKind::skip(buf)?;
    String::skip(buf)?;
    crate::AttrMap::skip(buf)?;
    Vec::<u8>::skip(buf)?;
    (0..get_len(buf)?).try_for_each(|_| skip_state_within(buf, below))
}

// --------------------------------------------------------------------------
// encoded states
// --------------------------------------------------------------------------

/// A [`StateNode`] snapshot kept in its wire encoding.
///
/// A state that is only stored and forwarded — the `overwritten` state a
/// destination reports in [`Message::StateApplied`], which the server
/// files as a historical UI state (§2.2) and reads again only at undo —
/// travels as this type, so nobody builds the tree in between.
///
/// A value decoded from a frame ([`Wire::get`]) holds bytes that
/// [`get_state`] accepts: same grammar, same limits ([`MAX_LEN`], UTF-8,
/// value tags, `i32` coordinates, [`MAX_STATE_DEPTH`]), checked by
/// [`Wire::skip`], which allocates nothing, and the value is a refcounted
/// slice of the frame itself. The encoding need not be canonical
/// (attribute order and duplicates are the sender's), so equality is
/// equality of bytes, which is finer than equality of the decoded trees.
/// [`EncodedState::of`] encodes whatever tree it is given; one nested past
/// [`MAX_STATE_DEPTH`] can only be built in-process and is the one case
/// where [`EncodedState::decode`] fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedState(Bytes);

impl EncodedState {
    /// Encodes `state` once.
    pub fn of(state: &StateNode) -> EncodedState {
        EncodedState(encode_state_shared(state))
    }

    /// Decodes the tree.
    ///
    /// # Errors
    ///
    /// [`WireError::DepthExceeded`] for a value built by
    /// [`EncodedState::of`] from a tree nested past [`MAX_STATE_DEPTH`];
    /// never for a value that came out of a frame.
    pub fn decode(&self) -> Result<StateNode> {
        get_state(&mut self.0.clone())
    }

    /// The encoding: exactly the bytes a [`StateNode`] writes for a
    /// canonical value, exactly the bytes the frame carried otherwise.
    pub fn as_slice(&self) -> &[u8] {
        &self.0
    }

    /// [`crate::delta::version_of_encoded`] of the encoding: the decoded
    /// tree's version when the encoding is canonical.
    pub fn version(&self) -> u64 {
        crate::delta::version_of_encoded(&self.0)
    }
}

impl From<StateNode> for EncodedState {
    fn from(state: StateNode) -> EncodedState {
        EncodedState::of(&state)
    }
}

/// Reading one splits an encoded [`StateNode`] off the front of the
/// buffer without decoding it: [`Wire::skip`] of a `StateNode` finds
/// where it ends, having checked it on the way
/// (`crates/wire/tests/encoded_state.rs` is the proof that it accepts,
/// refuses and consumes as [`get_state`] does).
impl Wire for EncodedState {
    fn put(&self, buf: &mut BytesMut) {
        buf.put_slice(&self.0);
    }

    fn get(buf: &mut Bytes) -> Result<Self> {
        let mut rest = buf.clone();
        StateNode::skip(&mut rest)?;
        // `rest` is a suffix of `buf`, so the split is always in range.
        let walked = buf.len() - rest.len();
        buf.split_to(walked).map(EncodedState).ok_or(WireError::UnexpectedEof { expected: "state" })
    }
}

// --------------------------------------------------------------------------
// messages
// --------------------------------------------------------------------------

/// Encodes a complete [`Message`] body (without stream framing).
pub fn encode_message(m: &Message) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(64);
    put_message(&mut buf, m);
    buf.to_vec()
}

/// Appends a [`Message`] body to `buf`: the kind's tag byte, then its
/// fields in the order the protocol table declares them.
fn put_message(buf: &mut BytesMut, m: &Message) {
    buf.put_u8(m.kind() as u8);
    m.put_fields(buf);
}

/// Decodes a complete [`Message`] body, rejecting trailing bytes.
///
/// # Errors
///
/// Returns a [`WireError`] on malformed input (truncation, bad tags,
/// invalid UTF-8, over-long declared lengths, trailing bytes).
pub fn decode_message(bytes: &[u8]) -> Result<Message> {
    let mut buf = Bytes::from(bytes.to_vec());
    let tag = get_u8(&mut buf, "message tag")?;
    let kind = MessageKind::from_tag(tag).ok_or(WireError::InvalidTag { kind: "Message", tag })?;
    let m = Message::get_fields(kind, &mut buf)?;
    if !buf.is_empty() {
        return Err(WireError::TrailingBytes { remaining: buf.len() });
    }
    Ok(m)
}

// --------------------------------------------------------------------------
// stream framing
// --------------------------------------------------------------------------

/// Frames a message for a stream transport: `u32-le length ‖ body`.
pub fn frame_message(m: &Message) -> Vec<u8> {
    let body = encode_message(m);
    let mut out = Vec::with_capacity(body.len() + 4);
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&body);
    out
}

/// The body length a frame header declares.
///
/// # Errors
///
/// [`WireError::LengthOverflow`] for a length over [`MAX_LEN`]: the one
/// check every reader of the stream makes before it buffers a body.
pub fn frame_body_len(header: [u8; 4]) -> Result<usize> {
    let len = u64::from(u32::from_le_bytes(header));
    if len > MAX_LEN {
        return Err(WireError::LengthOverflow { declared: len, max: MAX_LEN });
    }
    Ok(len as usize)
}

// --------------------------------------------------------------------------
// shared frames (encode once, deliver everywhere)
// --------------------------------------------------------------------------

/// A complete, already-framed wire message (`u32-le length ‖ body`)
/// behind a refcounted [`Bytes`] buffer.
///
/// Cloning a `SharedFrame` copies a pointer and bumps a refcount, so a
/// broadcast to N recipients encodes (and allocates) the frame exactly
/// once and fans the same bytes out N times — the encode-once delivery
/// path. The frame bytes are identical to [`frame_message`] output; the
/// golden-vector suite pins that equivalence for every message kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharedFrame {
    bytes: Bytes,
}

impl SharedFrame {
    /// Encodes and frames a message once; clones of the result share the
    /// underlying buffer.
    pub fn from_message(m: &Message) -> SharedFrame {
        let mut buf = BytesMut::with_capacity(96);
        buf.put_u32_le(0);
        put_message(&mut buf, m);
        seal_frame(buf)
    }

    /// The complete frame (`u32-le length ‖ body`) as a byte slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.bytes
    }

    /// The complete frame as a shared [`Bytes`] handle.
    pub fn bytes(&self) -> &Bytes {
        &self.bytes
    }

    /// Consumes the frame, returning the shared buffer.
    pub fn into_bytes(self) -> Bytes {
        self.bytes
    }

    /// Total frame size in bytes, including the 4-byte length header.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the frame is empty (never true for a framed message; kept
    /// for the `len`/`is_empty` convention).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// The message body (frame minus the length header). Frames built
    /// by [`SharedFrame::from_message`] always carry the 4-byte header;
    /// a shorter buffer yields an empty body rather than a panic.
    pub fn body(&self) -> &[u8] {
        self.bytes.get(4..).unwrap_or(&[])
    }

    /// The message tag byte, if the frame has a body.
    pub fn tag(&self) -> Option<u8> {
        self.body().first().copied()
    }

    /// The kind name of the framed message, if its tag byte is one the
    /// protocol table declares.
    pub fn kind_name(&self) -> Option<&'static str> {
        MessageKind::from_tag(self.tag()?).map(MessageKind::name)
    }

    /// Decodes the framed message back into an owned [`Message`].
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] if the body is malformed (cannot happen
    /// for frames built by this module's constructors).
    pub fn decode(&self) -> Result<Message> {
        decode_message(self.body())
    }
}

/// Patches the length header of a frame built with a 4-byte placeholder
/// and freezes it into a [`SharedFrame`].
fn seal_frame(mut buf: BytesMut) -> SharedFrame {
    let len = (buf.len() - 4) as u32;
    #[expect(
        clippy::indexing_slicing,
        reason = "callers seed the buffer with a 4-byte length placeholder"
    )]
    buf[..4].copy_from_slice(&len.to_le_bytes());
    SharedFrame { bytes: buf.freeze() }
}

/// Encodes what a [`UiEvent`] carries after its path — its kind and
/// parameters — once, into a shared payload that [`frame_execute_event`]
/// can splice behind many per-target paths.
pub fn encode_event_shared(e: &UiEvent) -> Bytes {
    let mut buf = BytesMut::with_capacity(64);
    e.kind.put(&mut buf);
    e.params.put(&mut buf);
    buf.freeze()
}

/// Builds an `ExecuteEvent` frame that re-executes an event on `target`
/// from its already-encoded kind and parameters
/// ([`encode_event_shared`]). The parameters — the heavy part of a
/// multiple-execution fan-out — are encoded once per broadcast instead
/// of once per group member; the resulting bytes are identical to
/// framing `Message::ExecuteEvent` whole with `target` as the event's
/// path.
pub fn frame_execute_event(exec_id: u64, target: &ObjectPath, body: &Bytes) -> SharedFrame {
    let mut buf = BytesMut::with_capacity(body.len() + 32);
    buf.put_u32_le(0);
    buf.put_u8(MessageKind::ExecuteEvent as u8);
    exec_id.put(&mut buf);
    target.put(&mut buf);
    buf.put_slice(body);
    seal_frame(buf)
}

/// Encodes a [`StateNode`] snapshot once into a shared payload that
/// [`frame_apply_state`] can splice into many per-leg frames.
pub fn encode_state_shared(s: &StateNode) -> Bytes {
    let mut buf = BytesMut::with_capacity(256);
    s.put(&mut buf);
    buf.freeze()
}

/// Builds an `ApplyState` frame around an already-encoded snapshot
/// ([`encode_state_shared`], [`EncodedState::as_slice`]). A transfer fanning out to a coupling group
/// encodes the snapshot once instead of deep-cloning and re-encoding it
/// per leg; the resulting bytes are identical to framing
/// `Message::ApplyState` whole.
pub fn frame_apply_state(
    req_id: u64,
    path: &ObjectPath,
    snapshot: &[u8],
    mode: CopyMode,
) -> SharedFrame {
    let mut buf = BytesMut::with_capacity(snapshot.len() + 32);
    buf.put_u32_le(0);
    buf.put_u8(MessageKind::ApplyState as u8);
    req_id.put(&mut buf);
    path.put(&mut buf);
    buf.put_slice(snapshot);
    mode.put(&mut buf);
    seal_frame(buf)
}

/// Encodes a [`StateDelta`] once into a shared payload that
/// [`frame_apply_delta`] can splice into many per-leg frames.
pub fn encode_delta_shared(d: &StateDelta) -> Bytes {
    let mut buf = BytesMut::with_capacity(128);
    d.put(&mut buf);
    buf.freeze()
}

/// Builds an `ApplyDelta` frame around an already-encoded delta
/// ([`encode_delta_shared`]). A transfer fanning out to a coupling group
/// whose members share a sync base encodes the delta once instead of
/// re-encoding it per leg; the resulting bytes are identical to framing
/// `Message::ApplyDelta` whole.
pub fn frame_apply_delta(
    req_id: u64,
    path: &ObjectPath,
    base_version: u64,
    new_version: u64,
    delta: &Bytes,
    mode: CopyMode,
) -> SharedFrame {
    let mut buf = BytesMut::with_capacity(delta.len() + 48);
    buf.put_u32_le(0);
    buf.put_u8(MessageKind::ApplyDelta as u8);
    req_id.put(&mut buf);
    path.put(&mut buf);
    base_version.put(&mut buf);
    new_version.put(&mut buf);
    buf.put_slice(delta);
    mode.put(&mut buf);
    seal_frame(buf)
}

/// Reads one framed message from a `Read` stream.
///
/// Returns `Ok(None)` on clean EOF at a frame boundary.
///
/// # Errors
///
/// Returns an `io::Error` on transport failure, truncated frames, frames
/// larger than [`MAX_LEN`], or a malformed body (wrapped [`WireError`]).
pub fn read_frame<R: std::io::Read>(r: &mut R) -> std::io::Result<Option<Message>> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let invalid = |e| std::io::Error::new(std::io::ErrorKind::InvalidData, e);
    let mut body = vec![0u8; frame_body_len(len_buf).map_err(invalid)?];
    r.read_exact(&mut body)?;
    decode_message(&body).map(Some).map_err(invalid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::InstanceInfo;
    use crate::{
        AccessRight, AttrName, EditOp, EventKind, GlobalObjectId, Overwritten, Target, Value,
    };

    fn path(s: &str) -> ObjectPath {
        ObjectPath::parse(s).unwrap()
    }

    fn gid(i: u64, p: &str) -> GlobalObjectId {
        GlobalObjectId::new(InstanceId(i), path(p))
    }

    fn sample_state() -> StateNode {
        let mut root = StateNode::new(WidgetKind::Form, "root");
        root.attrs.insert(AttrName::Title, Value::Text("T".into()));
        root.semantic = vec![1, 2, 3];
        root.children.push(
            StateNode::new(WidgetKind::Slider, "s")
                .with_attr(AttrName::ValueNum, Value::Float(0.5))
                .with_attr(AttrName::Min, Value::Float(0.0)),
        );
        root
    }

    fn sample_messages() -> Vec<Message> {
        vec![
            Message::Register {
                user: UserId(9),
                host: "liveboard".into(),
                app_name: "cosoft-teacher".into(),
            },
            Message::Deregister,
            Message::QueryInstances,
            Message::Welcome { instance: InstanceId(4) },
            Message::InstanceList {
                entries: vec![InstanceInfo {
                    instance: InstanceId(1),
                    user: UserId(2),
                    host: "ws1".into(),
                    app_name: "student".into(),
                }],
            },
            Message::Couple { src: gid(1, "a.b"), dst: gid(2, "c") },
            Message::Decouple { src: gid(1, "a.b"), dst: gid(2, "c") },
            Message::RemoteCouple { a: gid(3, "x"), b: gid(4, "y.z") },
            Message::RemoteDecouple { a: gid(3, "x"), b: gid(4, "y.z") },
            Message::CoupleUpdate { group: vec![gid(1, "a"), gid(2, "b")] },
            Message::ListCoupled { object: gid(1, "a") },
            Message::CoupledSet { object: gid(1, "a"), coupled: vec![gid(2, "b")] },
            Message::Event {
                event: UiEvent::new(
                    path("f.slider"),
                    EventKind::ValueChanged,
                    vec![Value::Float(0.7)],
                ),
                seq: 42,
            },
            Message::EventGranted { seq: 42, exec_id: 7 },
            Message::EventRejected { seq: 42 },
            Message::ExecuteEvent {
                exec_id: 7,
                event: UiEvent::simple(path("g.s2"), EventKind::Activate),
            },
            Message::ExecuteDone { exec_id: 7 },
            Message::GroupUnlocked { exec_id: 7 },
            Message::CopyFrom {
                src: gid(1, "a"),
                dst: gid(2, "b"),
                mode: CopyMode::Strict,
                req_id: 1,
            },
            Message::CopyTo {
                src: gid(1, "a"),
                dst: gid(2, "b"),
                snapshot: sample_state(),
                mode: CopyMode::DestructiveMerge,
                req_id: 2,
            },
            Message::RemoteCopy {
                src: gid(1, "a"),
                dst: gid(2, "b"),
                mode: CopyMode::FlexibleMatch,
                req_id: 3,
            },
            Message::StateRequest { req_id: 3, path: path("a") },
            Message::StateReply { req_id: 3, snapshot: Some(sample_state()) },
            Message::StateReply { req_id: 4, snapshot: None },
            Message::ApplyState {
                req_id: 3,
                path: path("b"),
                snapshot: sample_state(),
                mode: CopyMode::Strict,
            },
            Message::StateApplied {
                req_id: 3,
                overwritten: Some(sample_state().into()),
                error: None,
            },
            Message::StateApplied { req_id: 3, overwritten: Some(Overwritten::Base), error: None },
            Message::StateApplied {
                req_id: 3,
                overwritten: None,
                error: Some("incompatible".into()),
            },
            Message::UndoState { object: gid(2, "b") },
            Message::RedoState { object: gid(2, "b") },
            Message::SetPermission {
                user: UserId(2),
                object: gid(1, "a"),
                right: AccessRight::Read,
            },
            Message::PermissionDenied { what: "copy-from <inst#1, a>".into() },
            Message::CoSendCommand {
                to: Target::Broadcast,
                command: "refresh".into(),
                payload: vec![9, 8],
            },
            Message::CoSendCommand {
                to: Target::Instance(InstanceId(5)),
                command: "x".into(),
                payload: vec![],
            },
            Message::CoSendCommand {
                to: Target::Group(gid(1, "a")),
                command: "y".into(),
                payload: vec![1],
            },
            Message::CommandDelivery {
                from: InstanceId(1),
                command: "refresh".into(),
                payload: vec![9, 8],
            },
            Message::ErrorReply { context: "couple".into(), reason: "unknown instance".into() },
            Message::Rejoin { resume_token: 0xdead_beef },
            Message::Ping { nonce: 17 },
            Message::Pong { nonce: 17 },
            Message::SessionToken { resume_token: u64::MAX },
            Message::Busy { retry_after_ms: 250 },
            Message::ApplyDelta {
                req_id: 6,
                path: path("b"),
                base_version: 11,
                new_version: 12,
                delta: sample_delta(),
                mode: CopyMode::FlexibleMatch,
            },
            Message::ApplyDelta {
                req_id: 7,
                path: path("b.c"),
                base_version: 0,
                new_version: u64::MAX,
                delta: crate::delta::StateDelta::default(),
                mode: CopyMode::Strict,
            },
            Message::CopyDelta {
                src: gid(1, "a"),
                dst: gid(2, "b"),
                base_version: 12,
                new_version: u64::MAX,
                delta: sample_delta(),
                mode: CopyMode::DestructiveMerge,
                req_id: 8,
            },
        ]
    }

    fn sample_delta() -> crate::delta::StateDelta {
        let base = sample_state();
        let mut target = base.clone();
        target.attrs.insert(AttrName::Title, Value::Text("T2".into()));
        target.children.push(StateNode::new(WidgetKind::Button, "go"));
        target.semantic = vec![4, 5];
        crate::delta::diff(&base, &target)
    }

    #[test]
    fn every_message_round_trips() {
        for m in sample_messages() {
            let bytes = encode_message(&m);
            let back = decode_message(&bytes).unwrap_or_else(|e| panic!("{m:?}: {e}"));
            assert_eq!(m, back, "round trip failed for {}", m.kind_name());
        }
    }

    #[test]
    fn framing_round_trips_multiple_messages() {
        let msgs = sample_messages();
        let mut stream = Vec::new();
        for m in &msgs {
            stream.extend(frame_message(m));
        }
        let mut cursor = std::io::Cursor::new(stream);
        for m in &msgs {
            let got = read_frame(&mut cursor).unwrap().expect("frame expected");
            assert_eq!(&got, m);
        }
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF expected");
    }

    #[test]
    fn truncated_body_errors() {
        let m = Message::Welcome { instance: InstanceId(300) };
        let bytes = encode_message(&m);
        for cut in 0..bytes.len() {
            let r = decode_message(&bytes[..cut]);
            assert!(r.is_err(), "truncation at {cut} must fail");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode_message(&Message::Deregister);
        bytes.push(0);
        assert!(matches!(decode_message(&bytes), Err(WireError::TrailingBytes { remaining: 1 })));
    }

    /// Every tagged table refuses the tag one past its last row and tag
    /// 254 (255 is `EventKind::Custom`), under the table's own name — and
    /// so does the protocol table.
    #[test]
    fn bad_tags_rejected() {
        fn refuses<T: Wire + std::fmt::Debug>(kind: &'static str, all: &[(&str, u8)]) {
            let past = all.iter().map(|(_, tag)| *tag).filter(|tag| *tag < 254).max().unwrap() + 1;
            assert!(all.iter().all(|(_, tag)| *tag != past));
            for tag in [past, 254] {
                let refused = Err(WireError::InvalidTag { kind, tag });
                assert_eq!(T::get(&mut Bytes::from(vec![tag, 0, 0])).map(drop), refused);
                assert_eq!(T::skip(&mut Bytes::from(vec![tag, 0, 0])), refused);
            }
        }
        refuses::<Value>("Value", Value::ALL);
        refuses::<EventKind>("EventKind", EventKind::ALL);
        refuses::<CopyMode>("CopyMode", CopyMode::ALL);
        refuses::<AccessRight>("AccessRight", AccessRight::ALL);
        refuses::<Target>("Target", Target::ALL);
        refuses::<EditOp>("EditOp", EditOp::ALL);
        refuses::<Option<Overwritten>>("Option<Overwritten>", Overwritten::ALL);
        for tag in [MessageKind::ALL.iter().map(|k| *k as u8).max().unwrap() + 1, 254] {
            assert_eq!(decode_message(&[tag]), Err(WireError::InvalidTag { kind: "Message", tag }));
        }
        fn refuses_option<T: Wire>(kind: &'static str)
        where
            Option<T>: Wire,
        {
            let got = Option::<T>::get(&mut Bytes::from(vec![2])).map(drop);
            assert_eq!(got, Err(WireError::InvalidTag { kind, tag: 2 }));
        }
        refuses_option::<WidgetKind>("Option<WidgetKind>");
        refuses_option::<Vec<u8>>("Option<Vec<u8>>");
        refuses_option::<String>("Option");
        refuses_option::<StateNode>("Option");
    }

    #[test]
    fn varint_boundaries() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX] {
            let mut b = BytesMut::new();
            v.put(&mut b);
            let mut r = b.freeze();
            assert_eq!(u64::get(&mut r).unwrap(), v);
        }
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -300, 300] {
            let mut b = BytesMut::new();
            v.put(&mut b);
            let mut r = b.freeze();
            assert_eq!(i64::get(&mut r).unwrap(), v);
        }
    }

    #[test]
    fn varint_overflow_rejected() {
        // 10 continuation bytes with high bits set → more than 64 bits.
        let mut b = Bytes::from(vec![0xffu8; 11]);
        assert!(matches!(u64::get(&mut b), Err(WireError::VarintOverflow)));
    }

    #[test]
    fn nan_floats_round_trip_bitwise() {
        let weird = f64::from_bits(0x7ff8_dead_beef_0001);
        let mut b = BytesMut::new();
        Value::Float(weird).put(&mut b);
        let mut r = b.freeze();
        match Value::get(&mut r).unwrap() {
            Value::Float(x) => assert_eq!(x.to_bits(), weird.to_bits()),
            other => panic!("expected float, got {other:?}"),
        }
    }

    #[test]
    fn oversized_length_rejected() {
        // Value::Bytes with a declared length beyond MAX_LEN.
        let mut b = BytesMut::new();
        b.put_u8(8); // Bytes tag
        (MAX_LEN + 1).put(&mut b);
        let mut r = b.freeze();
        assert!(matches!(Value::get(&mut r), Err(WireError::LengthOverflow { .. })));
    }

    #[test]
    fn deep_state_round_trips() {
        let mut node = StateNode::new(WidgetKind::Label, "leaf");
        for i in 0..50 {
            node = StateNode::new(WidgetKind::Panel, &format!("p{i}")).with_child(node);
        }
        let mut b = BytesMut::new();
        node.put(&mut b);
        let mut r = b.freeze();
        assert_eq!(get_state(&mut r).unwrap(), node);
    }

    #[test]
    fn shared_frames_are_byte_identical_to_owned_frames() {
        for m in sample_messages() {
            let shared = SharedFrame::from_message(&m);
            let owned = frame_message(&m);
            assert_eq!(shared.as_slice(), &owned[..], "frame mismatch for {}", m.kind_name());
            assert_eq!(shared.decode().unwrap(), m);
            assert_eq!(shared.kind_name(), Some(m.kind_name()));
            let clone = shared.clone();
            assert_eq!(clone.bytes().as_ptr(), shared.bytes().as_ptr(), "clone must share");
        }
    }

    #[test]
    fn spliced_execute_event_frame_matches_whole_message() {
        let event =
            UiEvent::new(path("f.slider"), EventKind::ValueChanged, vec![Value::Float(0.7)]);
        let payload = encode_event_shared(&event);
        for exec_id in [0u64, 7, u64::MAX] {
            let target = path("g.s2");
            let spliced = frame_execute_event(exec_id, &target, &payload);
            let whole = frame_message(&Message::ExecuteEvent {
                exec_id,
                event: event.retarget(target.clone()),
            });
            assert_eq!(spliced.as_slice(), &whole[..], "exec_id={exec_id}");
        }
    }

    #[test]
    fn spliced_apply_state_frame_matches_whole_message() {
        let snapshot = sample_state();
        let payload = encode_state_shared(&snapshot);
        for (req_id, mode) in [
            (0u64, CopyMode::Strict),
            (3, CopyMode::FlexibleMatch),
            (u64::MAX, CopyMode::DestructiveMerge),
        ] {
            let p = path("b.c");
            let spliced = frame_apply_state(req_id, &p, &payload, mode);
            let whole = frame_message(&Message::ApplyState {
                req_id,
                path: p.clone(),
                snapshot: snapshot.clone(),
                mode,
            });
            assert_eq!(spliced.as_slice(), &whole[..], "req_id={req_id} mode={mode:?}");
        }
    }

    #[test]
    fn spliced_apply_delta_frame_matches_whole_message() {
        let delta = sample_delta();
        let payload = encode_delta_shared(&delta);
        for (req_id, base_version, new_version, mode) in [
            (0u64, 0u64, 1u64, CopyMode::Strict),
            (3, 11, 12, CopyMode::FlexibleMatch),
            (u64::MAX, u64::MAX, 0, CopyMode::DestructiveMerge),
        ] {
            let p = path("b.c");
            let spliced = frame_apply_delta(req_id, &p, base_version, new_version, &payload, mode);
            let whole = frame_message(&Message::ApplyDelta {
                req_id,
                path: p.clone(),
                base_version,
                new_version,
                delta: delta.clone(),
                mode,
            });
            assert_eq!(spliced.as_slice(), &whole[..], "req_id={req_id} mode={mode:?}");
        }
    }

    #[test]
    fn delta_codec_round_trips() {
        let delta = sample_delta();
        let mut b = BytesMut::new();
        delta.put(&mut b);
        let mut r = b.freeze();
        assert_eq!(StateDelta::get(&mut r).unwrap(), delta);
        assert!(r.is_empty());
    }

    /// The generated table agrees with itself: tags round-trip through
    /// the kind enum, frames report the name their message reports, and
    /// every tag byte outside the table is rejected.
    #[test]
    fn protocol_table_is_consistent() {
        assert_eq!(MessageKind::ALL.len(), Message::ALL_KINDS.len());
        for (kind, name) in MessageKind::ALL.iter().zip(Message::ALL_KINDS) {
            assert_eq!(MessageKind::from_tag(*kind as u8), Some(*kind));
            assert_eq!(kind.name(), *name);
        }
        for m in sample_messages() {
            let shared = SharedFrame::from_message(&m);
            assert_eq!(shared.tag(), Some(m.kind() as u8));
            assert_eq!(shared.kind_name(), Some(m.kind_name()));
        }
        for tag in 0..=u8::MAX {
            if MessageKind::ALL.iter().all(|k| *k as u8 != tag) {
                assert_eq!(MessageKind::from_tag(tag), None);
                assert!(
                    matches!(
                        decode_message(&[tag]),
                        Err(WireError::InvalidTag { kind: "Message", tag: t }) if t == tag
                    ),
                    "tag {tag} is not in the table and must not decode"
                );
            }
        }
    }

    /// The bytes of `depth` nested single-child nodes, written without
    /// recursion so the hostile depths never exist as a tree.
    fn nested_state_bytes(depth: usize) -> Bytes {
        let mut b = BytesMut::new();
        for level in 0..depth {
            put_str(&mut b, "p"); // kind
            put_str(&mut b, "n"); // name
            0u64.put(&mut b); // attrs
            0u64.put(&mut b); // semantic
            u64::from(level + 1 < depth).put(&mut b); // children
        }
        b.freeze()
    }

    #[test]
    fn state_depth_is_bounded() {
        let at_limit = nested_state_bytes(MAX_STATE_DEPTH);
        let node = get_state(&mut at_limit.clone()).expect("depth = limit decodes");
        let mut again = BytesMut::new();
        node.put(&mut again);
        assert_eq!(again.freeze(), at_limit, "depth = limit round-trips");

        let mut over = nested_state_bytes(MAX_STATE_DEPTH + 1);
        assert_eq!(get_state(&mut over), Err(WireError::DepthExceeded { max: MAX_STATE_DEPTH }));
    }

    /// A sub-megabyte frame of 100 000 nested nodes is an error, not a
    /// stack overflow — as a snapshot, an optional snapshot, an encoded
    /// state and a delta subtree (bare, and in the one delta a client
    /// sends) alike.
    #[test]
    fn hostile_nesting_is_rejected_not_overflowed() {
        let nested = nested_state_bytes(100_000);
        assert!(nested.len() < 1024 * 1024);
        let too_deep = Err(WireError::DepthExceeded { max: MAX_STATE_DEPTH });

        let mut apply = BytesMut::new();
        apply.put_u8(MessageKind::ApplyState as u8);
        1u64.put(&mut apply);
        path("a").put(&mut apply);
        apply.put_slice(&nested);
        assert_eq!(decode_message(&apply), too_deep);

        let mut reply = BytesMut::new();
        reply.put_u8(MessageKind::StateReply as u8);
        1u64.put(&mut reply);
        reply.put_u8(1); // Some
        reply.put_slice(&nested);
        assert_eq!(decode_message(&reply), too_deep);

        let mut applied = BytesMut::new();
        applied.put_u8(MessageKind::StateApplied as u8);
        1u64.put(&mut applied);
        applied.put_u8(1); // Some: the non-building walk recurses too
        applied.put_slice(&nested);
        assert_eq!(decode_message(&applied), too_deep);

        let mut delta = BytesMut::new();
        1u64.put(&mut delta); // edits
        0u64.put(&mut delta); // path segments
        delta.put_u8(1); // EditOp::Replace
        delta.put_slice(&nested);
        assert_eq!(
            StateDelta::get(&mut delta.clone().freeze()).map(|_| ()),
            Err(WireError::DepthExceeded { max: MAX_STATE_DEPTH })
        );

        let mut push = BytesMut::new();
        push.put_u8(MessageKind::CopyDelta as u8);
        gid(1, "a").put(&mut push);
        gid(2, "b").put(&mut push);
        1u64.put(&mut push); // base version
        2u64.put(&mut push); // new version
        push.put_slice(&delta);
        assert_eq!(decode_message(&push), too_deep);
    }
}
