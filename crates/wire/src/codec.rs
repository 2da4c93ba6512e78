//! Hand-rolled binary codec for the COSOFT protocol.
//!
//! Layout conventions:
//!
//! * unsigned integers are LEB128 varints; signed integers are zigzag-coded
//!   varints; `f64` travels as its 8 little-endian IEEE-754 bytes,
//! * strings and byte blobs are varint-length-prefixed,
//! * tagged unions use a single tag byte,
//! * a complete message on a stream transport is framed as
//!   `u32-le length ‖ body` (see [`write_frame`] / [`read_frame`]).
//!
//! Every decoder enforces [`MAX_LEN`] on declared lengths so a corrupt or
//! hostile frame cannot trigger huge allocations.

use crate::delta::{EditOp, NodeEdit, NodePatch};
use crate::message::{InstanceInfo, MessageKind, Overwritten};
use crate::{
    AccessRight, AttrName, Bytes, BytesMut, CopyMode, EventKind, GlobalObjectId, InstanceId,
    Message, ObjectPath, StateDelta, StateNode, Target, UiEvent, UserId, Value, WidgetKind,
    WireError,
};

/// Maximum accepted declared length for any collection, string or frame.
pub const MAX_LEN: u64 = 64 * 1024 * 1024;

type Result<T> = std::result::Result<T, WireError>;

// --------------------------------------------------------------------------
// primitive writers
// --------------------------------------------------------------------------

/// Appends an unsigned LEB128 varint.
pub fn put_uvarint(buf: &mut BytesMut, mut v: u64) {
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

/// Appends a zigzag-coded signed varint.
pub fn put_ivarint(buf: &mut BytesMut, v: i64) {
    put_uvarint(buf, ((v << 1) ^ (v >> 63)) as u64);
}

fn put_str(buf: &mut BytesMut, s: &str) {
    put_uvarint(buf, s.len() as u64);
    buf.put_slice(s.as_bytes());
}

fn put_bytes(buf: &mut BytesMut, b: &[u8]) {
    put_uvarint(buf, b.len() as u64);
    buf.put_slice(b);
}

fn put_bool(buf: &mut BytesMut, b: bool) {
    buf.put_u8(u8::from(b));
}

// --------------------------------------------------------------------------
// primitive readers
// --------------------------------------------------------------------------

/// Reads an unsigned LEB128 varint.
pub fn get_uvarint(buf: &mut Bytes) -> Result<u64> {
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

/// Reads a zigzag-coded signed varint.
pub fn get_ivarint(buf: &mut Bytes) -> Result<i64> {
    let u = get_uvarint(buf)?;
    Ok(((u >> 1) as i64) ^ -((u & 1) as i64))
}

fn get_len(buf: &mut Bytes) -> Result<usize> {
    let n = get_uvarint(buf)?;
    if n > MAX_LEN {
        return Err(WireError::LengthOverflow { declared: n, max: MAX_LEN });
    }
    Ok(n as usize)
}

fn get_str(buf: &mut Bytes) -> Result<String> {
    let n = get_len(buf)?;
    let raw = buf.split_to(n).ok_or(WireError::UnexpectedEof { expected: "string body" })?;
    String::from_utf8(raw.to_vec()).map_err(|_| WireError::InvalidUtf8)
}

fn get_blob(buf: &mut Bytes) -> Result<Vec<u8>> {
    let n = get_len(buf)?;
    let raw = buf.split_to(n).ok_or(WireError::UnexpectedEof { expected: "byte blob" })?;
    Ok(raw.to_vec())
}

fn get_bool(buf: &mut Bytes) -> Result<bool> {
    Ok(get_u8(buf, "bool")? != 0)
}

fn get_u8(buf: &mut Bytes, what: &'static str) -> Result<u8> {
    buf.get_u8().ok_or(WireError::UnexpectedEof { expected: what })
}

fn get_f64(buf: &mut Bytes) -> Result<f64> {
    let bits = buf.get_u64_le().ok_or(WireError::UnexpectedEof { expected: "f64" })?;
    Ok(f64::from_bits(bits))
}

// --------------------------------------------------------------------------
// Value
// --------------------------------------------------------------------------

/// Encodes one attribute [`Value`].
pub fn put_value(buf: &mut BytesMut, v: &Value) {
    match v {
        Value::Bool(b) => {
            buf.put_u8(0);
            put_bool(buf, *b);
        }
        Value::Int(i) => {
            buf.put_u8(1);
            put_ivarint(buf, *i);
        }
        Value::Float(x) => {
            buf.put_u8(2);
            buf.put_u64_le(x.to_bits());
        }
        Value::Text(s) => {
            buf.put_u8(3);
            put_str(buf, s);
        }
        Value::TextList(v) => {
            buf.put_u8(4);
            put_uvarint(buf, v.len() as u64);
            for s in v {
                put_str(buf, s);
            }
        }
        Value::IntList(v) => {
            buf.put_u8(5);
            put_uvarint(buf, v.len() as u64);
            for i in v {
                put_ivarint(buf, *i);
            }
        }
        Value::Point(x, y) => {
            buf.put_u8(6);
            put_ivarint(buf, i64::from(*x));
            put_ivarint(buf, i64::from(*y));
        }
        Value::Color(r, g, b) => {
            buf.put_u8(7);
            buf.put_u8(*r);
            buf.put_u8(*g);
            buf.put_u8(*b);
        }
        Value::Bytes(b) => {
            buf.put_u8(8);
            put_bytes(buf, b);
        }
        Value::Stroke(pts) => {
            buf.put_u8(9);
            put_uvarint(buf, pts.len() as u64);
            for (x, y) in pts {
                put_ivarint(buf, i64::from(*x));
                put_ivarint(buf, i64::from(*y));
            }
        }
        Value::StrokeList(strokes) => {
            buf.put_u8(10);
            put_uvarint(buf, strokes.len() as u64);
            for pts in strokes {
                put_uvarint(buf, pts.len() as u64);
                for (x, y) in pts {
                    put_ivarint(buf, i64::from(*x));
                    put_ivarint(buf, i64::from(*y));
                }
            }
        }
    }
}

/// Decodes one attribute [`Value`].
pub fn get_value(buf: &mut Bytes) -> Result<Value> {
    let tag = get_u8(buf, "value tag")?;
    Ok(match tag {
        0 => Value::Bool(get_bool(buf)?),
        1 => Value::Int(get_ivarint(buf)?),
        2 => Value::Float(get_f64(buf)?),
        3 => Value::Text(get_str(buf)?),
        4 => {
            let n = get_len(buf)?;
            let mut v = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                v.push(get_str(buf)?);
            }
            Value::TextList(v)
        }
        5 => {
            let n = get_len(buf)?;
            let mut v = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                v.push(get_ivarint(buf)?);
            }
            Value::IntList(v)
        }
        6 => Value::Point(get_i32(buf)?, get_i32(buf)?),
        7 => {
            Value::Color(get_u8(buf, "color r")?, get_u8(buf, "color g")?, get_u8(buf, "color b")?)
        }
        8 => Value::Bytes(get_blob(buf)?),
        9 => {
            let n = get_len(buf)?;
            let mut v = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                v.push((get_i32(buf)?, get_i32(buf)?));
            }
            Value::Stroke(v)
        }
        10 => {
            let n = get_len(buf)?;
            let mut strokes = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                let m = get_len(buf)?;
                let mut v = Vec::with_capacity(m.min(4096));
                for _ in 0..m {
                    v.push((get_i32(buf)?, get_i32(buf)?));
                }
                strokes.push(v);
            }
            Value::StrokeList(strokes)
        }
        other => return Err(WireError::InvalidTag { kind: "Value", tag: other }),
    })
}

fn get_i32(buf: &mut Bytes) -> Result<i32> {
    let v = get_ivarint(buf)?;
    i32::try_from(v)
        .map_err(|_| WireError::LengthOverflow { declared: v.unsigned_abs(), max: i32::MAX as u64 })
}

// --------------------------------------------------------------------------
// names, paths, ids
// --------------------------------------------------------------------------

fn put_attr_name(buf: &mut BytesMut, n: &AttrName) {
    put_str(buf, n.as_str());
}

fn get_attr_name(buf: &mut Bytes) -> Result<AttrName> {
    Ok(AttrName::from_str_lossy(&get_str(buf)?))
}

fn put_kind(buf: &mut BytesMut, k: &WidgetKind) {
    put_str(buf, k.as_str());
}

fn get_kind(buf: &mut Bytes) -> Result<WidgetKind> {
    Ok(WidgetKind::from_str_lossy(&get_str(buf)?))
}

/// Encodes an [`ObjectPath`].
pub fn put_path(buf: &mut BytesMut, p: &ObjectPath) {
    put_uvarint(buf, p.segments().len() as u64);
    for s in p.segments() {
        put_str(buf, s);
    }
}

/// Decodes an [`ObjectPath`].
pub fn get_path(buf: &mut Bytes) -> Result<ObjectPath> {
    let n = get_len(buf)?;
    let mut segs = Vec::with_capacity(n.min(64));
    for _ in 0..n {
        segs.push(get_str(buf)?);
    }
    ObjectPath::from_segments(segs)
}

fn put_gid(buf: &mut BytesMut, g: &GlobalObjectId) {
    put_uvarint(buf, g.instance.0);
    put_path(buf, &g.path);
}

fn get_gid(buf: &mut Bytes) -> Result<GlobalObjectId> {
    let inst = InstanceId(get_uvarint(buf)?);
    let path = get_path(buf)?;
    Ok(GlobalObjectId::new(inst, path))
}

// --------------------------------------------------------------------------
// state snapshots
// --------------------------------------------------------------------------

/// Encodes a [`StateNode`] snapshot tree.
pub fn put_state(buf: &mut BytesMut, s: &StateNode) {
    put_kind(buf, &s.kind);
    put_str(buf, &s.name);
    put_uvarint(buf, s.attrs.len() as u64);
    for (k, v) in &s.attrs {
        put_attr_name(buf, k);
        put_value(buf, v);
    }
    put_bytes(buf, &s.semantic);
    put_uvarint(buf, s.children.len() as u64);
    for c in &s.children {
        put_state(buf, c);
    }
}

/// Deepest [`StateNode`] nesting [`get_state`] accepts (a lone node is
/// depth 1). The decoder recurses once per level, so without the bound a
/// small frame of single-child nodes would overflow the decoding thread's
/// stack.
pub const MAX_STATE_DEPTH: usize = 128;

/// Decodes a [`StateNode`] snapshot tree.
///
/// # Errors
///
/// Besides malformed input, a tree nested deeper than [`MAX_STATE_DEPTH`]
/// is rejected with [`WireError::DepthExceeded`].
pub fn get_state(buf: &mut Bytes) -> Result<StateNode> {
    get_state_within(buf, MAX_STATE_DEPTH)
}

fn get_state_within(buf: &mut Bytes, levels: usize) -> Result<StateNode> {
    let Some(levels_below) = levels.checked_sub(1) else {
        return Err(WireError::DepthExceeded { max: MAX_STATE_DEPTH });
    };
    let kind = get_kind(buf)?;
    let name = get_str(buf)?;
    let n_attrs = get_len(buf)?;
    let mut node = StateNode::new(kind, &name);
    for _ in 0..n_attrs {
        let k = get_attr_name(buf)?;
        let v = get_value(buf)?;
        node.attrs.insert(k, v);
    }
    node.semantic = get_blob(buf)?;
    let n_children = get_len(buf)?;
    for _ in 0..n_children {
        node.children.push(get_state_within(buf, levels_below)?);
    }
    Ok(node)
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
/// A value decoded from a frame ([`get_encoded_state`]) holds bytes that
/// [`get_state`] accepts: same grammar, same limits ([`MAX_LEN`], UTF-8,
/// value tags, `i32` coordinates, [`MAX_STATE_DEPTH`]), checked by a walk
/// that allocates nothing, and the value is a refcounted slice of the
/// frame itself. The encoding need not be canonical (attribute order and
/// duplicates are the sender's), so equality is equality of bytes, which
/// is finer than equality of the decoded trees. [`EncodedState::of`]
/// encodes whatever tree it is given; one nested past [`MAX_STATE_DEPTH`]
/// can only be built in-process and is the one case where
/// [`EncodedState::decode`] fails.
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

    /// The encoding: exactly the bytes [`put_state`] writes for a
    /// canonical value, exactly the bytes the frame carried otherwise.
    pub fn as_slice(&self) -> &[u8] {
        &self.0
    }
}

impl From<StateNode> for EncodedState {
    fn from(state: StateNode) -> EncodedState {
        EncodedState::of(&state)
    }
}

/// Splits one encoded [`StateNode`] off the front of `buf` without
/// decoding it. Accepts exactly the inputs [`get_state`] accepts, fails
/// with the same error on the others, and on success leaves `buf` where
/// [`get_state`] would (`crates/wire/tests/encoded_state.rs` holds the
/// two walks together).
///
/// # Errors
///
/// As [`get_state`].
pub fn get_encoded_state(buf: &mut Bytes) -> Result<EncodedState> {
    let mut rest = buf.clone();
    skip_state(&mut rest, MAX_STATE_DEPTH)?;
    // `rest` is a suffix of `buf`, so the split is always in range.
    let walked = buf.len() - rest.len();
    buf.split_to(walked).map(EncodedState).ok_or(WireError::UnexpectedEof { expected: "state" })
}

// The skip_* functions mirror get_str, get_blob, get_value and
// get_state_within check for check and in the same order, so both report
// the same first error; they build nothing.

fn skip_str(buf: &mut Bytes) -> Result<()> {
    const EOF: WireError = WireError::UnexpectedEof { expected: "string body" };
    let n = get_len(buf)?;
    std::str::from_utf8(buf.get(..n).ok_or(EOF)?).map_err(|_| WireError::InvalidUtf8)?;
    buf.advance(n).ok_or(EOF)
}

fn skip_blob(buf: &mut Bytes) -> Result<()> {
    let n = get_len(buf)?;
    buf.advance(n).ok_or(WireError::UnexpectedEof { expected: "byte blob" })
}

fn skip_points(buf: &mut Bytes) -> Result<()> {
    for _ in 0..get_len(buf)? {
        get_i32(buf)?;
        get_i32(buf)?;
    }
    Ok(())
}

fn skip_value(buf: &mut Bytes) -> Result<()> {
    match get_u8(buf, "value tag")? {
        0 => get_bool(buf).map(drop)?,
        1 => get_ivarint(buf).map(drop)?,
        2 => get_f64(buf).map(drop)?,
        3 => skip_str(buf)?,
        4 => {
            for _ in 0..get_len(buf)? {
                skip_str(buf)?;
            }
        }
        5 => {
            for _ in 0..get_len(buf)? {
                get_ivarint(buf)?;
            }
        }
        6 => {
            get_i32(buf)?;
            get_i32(buf)?;
        }
        7 => {
            get_u8(buf, "color r")?;
            get_u8(buf, "color g")?;
            get_u8(buf, "color b")?;
        }
        8 => skip_blob(buf)?,
        9 => skip_points(buf)?,
        10 => {
            for _ in 0..get_len(buf)? {
                skip_points(buf)?;
            }
        }
        other => return Err(WireError::InvalidTag { kind: "Value", tag: other }),
    }
    Ok(())
}

fn skip_state(buf: &mut Bytes, levels: usize) -> Result<()> {
    let Some(levels_below) = levels.checked_sub(1) else {
        return Err(WireError::DepthExceeded { max: MAX_STATE_DEPTH });
    };
    skip_str(buf)?; // kind
    skip_str(buf)?; // name
    for _ in 0..get_len(buf)? {
        skip_str(buf)?; // attribute name
        skip_value(buf)?;
    }
    skip_blob(buf)?; // semantic payload
    for _ in 0..get_len(buf)? {
        skip_state(buf, levels_below)?;
    }
    Ok(())
}

// --------------------------------------------------------------------------
// state deltas
// --------------------------------------------------------------------------

/// Encodes a [`StateDelta`].
pub fn put_delta(buf: &mut BytesMut, d: &StateDelta) {
    put_uvarint(buf, d.edits.len() as u64);
    for e in &d.edits {
        put_uvarint(buf, e.path.len() as u64);
        for seg in &e.path {
            put_str(buf, seg);
        }
        match &e.op {
            EditOp::Patch(p) => {
                buf.put_u8(0);
                match &p.kind {
                    None => buf.put_u8(0),
                    Some(k) => {
                        buf.put_u8(1);
                        put_kind(buf, k);
                    }
                }
                put_uvarint(buf, p.upserts.len() as u64);
                for (k, v) in &p.upserts {
                    put_attr_name(buf, k);
                    put_value(buf, v);
                }
                put_uvarint(buf, p.removals.len() as u64);
                for k in &p.removals {
                    put_attr_name(buf, k);
                }
                match &p.semantic {
                    None => buf.put_u8(0),
                    Some(b) => {
                        buf.put_u8(1);
                        put_bytes(buf, b);
                    }
                }
            }
            EditOp::Replace(s) => {
                buf.put_u8(1);
                put_state(buf, s);
            }
            EditOp::Restructure { order, inserts } => {
                buf.put_u8(2);
                put_uvarint(buf, order.len() as u64);
                for n in order {
                    put_str(buf, n);
                }
                put_uvarint(buf, inserts.len() as u64);
                for s in inserts {
                    put_state(buf, s);
                }
            }
        }
    }
}

/// Decodes a [`StateDelta`].
pub fn get_delta(buf: &mut Bytes) -> Result<StateDelta> {
    let n_edits = get_len(buf)?;
    let mut edits = Vec::with_capacity(n_edits.min(1024));
    for _ in 0..n_edits {
        let n_segs = get_len(buf)?;
        let mut path = Vec::with_capacity(n_segs.min(64));
        for _ in 0..n_segs {
            path.push(get_str(buf)?);
        }
        let op = match get_u8(buf, "edit op tag")? {
            0 => {
                let mut patch = NodePatch::default();
                match get_u8(buf, "option tag")? {
                    0 => {}
                    1 => patch.kind = Some(get_kind(buf)?),
                    other => {
                        return Err(WireError::InvalidTag {
                            kind: "Option<WidgetKind>",
                            tag: other,
                        })
                    }
                }
                let n_ups = get_len(buf)?;
                for _ in 0..n_ups {
                    let k = get_attr_name(buf)?;
                    let v = get_value(buf)?;
                    patch.upserts.insert(k, v);
                }
                let n_rm = get_len(buf)?;
                for _ in 0..n_rm {
                    patch.removals.push(get_attr_name(buf)?);
                }
                match get_u8(buf, "option tag")? {
                    0 => {}
                    1 => patch.semantic = Some(get_blob(buf)?),
                    other => {
                        return Err(WireError::InvalidTag { kind: "Option<Vec<u8>>", tag: other })
                    }
                }
                EditOp::Patch(patch)
            }
            1 => EditOp::Replace(get_state(buf)?),
            2 => {
                let n_order = get_len(buf)?;
                let mut order = Vec::with_capacity(n_order.min(1024));
                for _ in 0..n_order {
                    order.push(get_str(buf)?);
                }
                let n_ins = get_len(buf)?;
                let mut inserts = Vec::with_capacity(n_ins.min(1024));
                for _ in 0..n_ins {
                    inserts.push(get_state(buf)?);
                }
                EditOp::Restructure { order, inserts }
            }
            other => return Err(WireError::InvalidTag { kind: "EditOp", tag: other }),
        };
        edits.push(NodeEdit { path, op });
    }
    Ok(StateDelta { edits })
}

// --------------------------------------------------------------------------
// events
// --------------------------------------------------------------------------

fn put_event_kind(buf: &mut BytesMut, k: &EventKind) {
    let (tag, custom): (u8, Option<&str>) = match k {
        EventKind::Activate => (0, None),
        EventKind::ValueChanged => (1, None),
        EventKind::TextCommitted => (2, None),
        EventKind::TextEdited => (3, None),
        EventKind::SelectionChanged => (4, None),
        EventKind::Toggled => (5, None),
        EventKind::StrokeAdded => (6, None),
        EventKind::CanvasCleared => (7, None),
        EventKind::RowActivated => (8, None),
        EventKind::Custom(s) => (255, Some(s)),
    };
    buf.put_u8(tag);
    if let Some(s) = custom {
        put_str(buf, s);
    }
}

fn get_event_kind(buf: &mut Bytes) -> Result<EventKind> {
    let tag = get_u8(buf, "event kind tag")?;
    Ok(match tag {
        0 => EventKind::Activate,
        1 => EventKind::ValueChanged,
        2 => EventKind::TextCommitted,
        3 => EventKind::TextEdited,
        4 => EventKind::SelectionChanged,
        5 => EventKind::Toggled,
        6 => EventKind::StrokeAdded,
        7 => EventKind::CanvasCleared,
        8 => EventKind::RowActivated,
        255 => EventKind::Custom(get_str(buf)?),
        other => return Err(WireError::InvalidTag { kind: "EventKind", tag: other }),
    })
}

/// Encodes a [`UiEvent`].
pub fn put_event(buf: &mut BytesMut, e: &UiEvent) {
    put_path(buf, &e.path);
    put_event_kind(buf, &e.kind);
    put_uvarint(buf, e.params.len() as u64);
    for p in &e.params {
        put_value(buf, p);
    }
}

/// Decodes a [`UiEvent`].
pub fn get_event(buf: &mut Bytes) -> Result<UiEvent> {
    let path = get_path(buf)?;
    let kind = get_event_kind(buf)?;
    let n = get_len(buf)?;
    let mut params = Vec::with_capacity(n.min(64));
    for _ in 0..n {
        params.push(get_value(buf)?);
    }
    Ok(UiEvent::new(path, kind, params))
}

// --------------------------------------------------------------------------
// message fields
// --------------------------------------------------------------------------

/// A type that can be a field of a [`Message`]: the protocol table in
/// `message.rs` encodes and decodes every field through this trait.
pub(crate) trait Wire: Sized {
    /// Appends the value.
    fn put(&self, buf: &mut BytesMut);
    /// Decodes one value.
    fn get(buf: &mut Bytes) -> Result<Self>;
}

impl Wire for u64 {
    fn put(&self, buf: &mut BytesMut) {
        put_uvarint(buf, *self);
    }
    fn get(buf: &mut Bytes) -> Result<Self> {
        get_uvarint(buf)
    }
}

impl Wire for UserId {
    fn put(&self, buf: &mut BytesMut) {
        put_uvarint(buf, self.0);
    }
    fn get(buf: &mut Bytes) -> Result<Self> {
        Ok(UserId(get_uvarint(buf)?))
    }
}

impl Wire for InstanceId {
    fn put(&self, buf: &mut BytesMut) {
        put_uvarint(buf, self.0);
    }
    fn get(buf: &mut Bytes) -> Result<Self> {
        Ok(InstanceId(get_uvarint(buf)?))
    }
}

impl Wire for String {
    fn put(&self, buf: &mut BytesMut) {
        put_str(buf, self);
    }
    fn get(buf: &mut Bytes) -> Result<Self> {
        get_str(buf)
    }
}

/// The byte blob, copied in bulk (not element by element like other
/// lists).
impl Wire for Vec<u8> {
    fn put(&self, buf: &mut BytesMut) {
        put_bytes(buf, self);
    }
    fn get(buf: &mut Bytes) -> Result<Self> {
        get_blob(buf)
    }
}

impl Wire for ObjectPath {
    fn put(&self, buf: &mut BytesMut) {
        put_path(buf, self);
    }
    fn get(buf: &mut Bytes) -> Result<Self> {
        get_path(buf)
    }
}

impl Wire for GlobalObjectId {
    fn put(&self, buf: &mut BytesMut) {
        put_gid(buf, self);
    }
    fn get(buf: &mut Bytes) -> Result<Self> {
        get_gid(buf)
    }
}

impl Wire for UiEvent {
    fn put(&self, buf: &mut BytesMut) {
        put_event(buf, self);
    }
    fn get(buf: &mut Bytes) -> Result<Self> {
        get_event(buf)
    }
}

impl Wire for StateNode {
    fn put(&self, buf: &mut BytesMut) {
        put_state(buf, self);
    }
    fn get(buf: &mut Bytes) -> Result<Self> {
        get_state(buf)
    }
}

impl Wire for EncodedState {
    fn put(&self, buf: &mut BytesMut) {
        buf.put_slice(&self.0);
    }
    fn get(buf: &mut Bytes) -> Result<Self> {
        get_encoded_state(buf)
    }
}

impl Wire for StateDelta {
    fn put(&self, buf: &mut BytesMut) {
        put_delta(buf, self);
    }
    fn get(buf: &mut Bytes) -> Result<Self> {
        get_delta(buf)
    }
}

impl Wire for CopyMode {
    fn put(&self, buf: &mut BytesMut) {
        buf.put_u8(match self {
            CopyMode::Strict => 0,
            CopyMode::DestructiveMerge => 1,
            CopyMode::FlexibleMatch => 2,
        });
    }
    fn get(buf: &mut Bytes) -> Result<Self> {
        match get_u8(buf, "copy mode")? {
            0 => Ok(CopyMode::Strict),
            1 => Ok(CopyMode::DestructiveMerge),
            2 => Ok(CopyMode::FlexibleMatch),
            other => Err(WireError::InvalidTag { kind: "CopyMode", tag: other }),
        }
    }
}

impl Wire for AccessRight {
    fn put(&self, buf: &mut BytesMut) {
        buf.put_u8(match self {
            AccessRight::Denied => 0,
            AccessRight::Read => 1,
            AccessRight::Write => 2,
        });
    }
    fn get(buf: &mut Bytes) -> Result<Self> {
        match get_u8(buf, "access right")? {
            0 => Ok(AccessRight::Denied),
            1 => Ok(AccessRight::Read),
            2 => Ok(AccessRight::Write),
            other => Err(WireError::InvalidTag { kind: "AccessRight", tag: other }),
        }
    }
}

impl Wire for Target {
    fn put(&self, buf: &mut BytesMut) {
        match self {
            Target::Instance(i) => {
                buf.put_u8(0);
                i.put(buf);
            }
            Target::Broadcast => buf.put_u8(1),
            Target::Group(g) => {
                buf.put_u8(2);
                g.put(buf);
            }
        }
    }
    fn get(buf: &mut Bytes) -> Result<Self> {
        match get_u8(buf, "target tag")? {
            0 => Ok(Target::Instance(Wire::get(buf)?)),
            1 => Ok(Target::Broadcast),
            2 => Ok(Target::Group(Wire::get(buf)?)),
            other => Err(WireError::InvalidTag { kind: "Target", tag: other }),
        }
    }
}

impl Wire for InstanceInfo {
    fn put(&self, buf: &mut BytesMut) {
        self.instance.put(buf);
        self.user.put(buf);
        self.host.put(buf);
        self.app_name.put(buf);
    }
    fn get(buf: &mut Bytes) -> Result<Self> {
        Ok(InstanceInfo {
            instance: Wire::get(buf)?,
            user: Wire::get(buf)?,
            host: Wire::get(buf)?,
            app_name: Wire::get(buf)?,
        })
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, buf: &mut BytesMut) {
        put_uvarint(buf, self.len() as u64);
        for item in self {
            item.put(buf);
        }
    }
    fn get(buf: &mut Bytes) -> Result<Self> {
        let n = get_len(buf)?;
        let mut items = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            items.push(T::get(buf)?);
        }
        Ok(items)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, buf: &mut BytesMut) {
        match self {
            None => buf.put_u8(0),
            Some(v) => {
                buf.put_u8(1);
                v.put(buf);
            }
        }
    }
    fn get(buf: &mut Bytes) -> Result<Self> {
        match get_u8(buf, "option tag")? {
            0 => Ok(None),
            1 => Ok(Some(T::get(buf)?)),
            other => Err(WireError::InvalidTag { kind: "Option", tag: other }),
        }
    }
}

/// `StateApplied.overwritten`: none and the state keep the tags and
/// bytes of the `Option<EncodedState>` the field was; the reference to the
/// base is a third tag with no payload.
impl Wire for Option<Overwritten> {
    fn put(&self, buf: &mut BytesMut) {
        match self {
            None => buf.put_u8(0),
            Some(Overwritten::State(state)) => {
                buf.put_u8(1);
                state.put(buf);
            }
            Some(Overwritten::Base) => buf.put_u8(2),
        }
    }
    fn get(buf: &mut Bytes) -> Result<Self> {
        match get_u8(buf, "option tag")? {
            0 => Ok(None),
            1 => Ok(Some(Overwritten::State(Wire::get(buf)?))),
            2 => Ok(Some(Overwritten::Base)),
            other => Err(WireError::InvalidTag { kind: "Option<Overwritten>", tag: other }),
        }
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
pub fn put_message(buf: &mut BytesMut, m: &Message) {
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
    let m = get_message(&mut buf)?;
    if !buf.is_empty() {
        return Err(WireError::TrailingBytes { remaining: buf.len() });
    }
    Ok(m)
}

/// Decodes one [`Message`] from `buf`, leaving any following bytes.
pub fn get_message(buf: &mut Bytes) -> Result<Message> {
    let tag = get_u8(buf, "message tag")?;
    let kind = MessageKind::from_tag(tag).ok_or(WireError::InvalidTag { kind: "Message", tag })?;
    Message::get_fields(kind, buf)
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

/// Frames a message into a cheaply-clonable [`SharedFrame`]; the bytes
/// are identical to [`frame_message`].
pub fn frame_message_shared(m: &Message) -> SharedFrame {
    SharedFrame::from_message(m)
}

/// Encodes a [`UiEvent`] once into a shared payload that
/// [`frame_execute_event`] can splice into many per-target frames.
pub fn encode_event_shared(e: &UiEvent) -> Bytes {
    let mut buf = BytesMut::with_capacity(64);
    put_event(&mut buf, e);
    buf.freeze()
}

/// Builds an `ExecuteEvent` frame around an already-encoded event
/// payload ([`encode_event_shared`]). The event — the heavy part of a
/// multiple-execution fan-out — is encoded once per broadcast instead of
/// once per group member; the resulting bytes are identical to framing
/// `Message::ExecuteEvent` whole.
pub fn frame_execute_event(exec_id: u64, target: &ObjectPath, event: &Bytes) -> SharedFrame {
    let mut buf = BytesMut::with_capacity(event.len() + 32);
    buf.put_u32_le(0);
    buf.put_u8(MessageKind::ExecuteEvent as u8);
    put_uvarint(&mut buf, exec_id);
    put_path(&mut buf, target);
    buf.put_slice(event);
    seal_frame(buf)
}

/// Encodes a [`StateNode`] snapshot once into a shared payload that
/// [`frame_apply_state`] can splice into many per-leg frames.
pub fn encode_state_shared(s: &StateNode) -> Bytes {
    let mut buf = BytesMut::with_capacity(256);
    put_state(&mut buf, s);
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
    put_uvarint(&mut buf, req_id);
    put_path(&mut buf, path);
    buf.put_slice(snapshot);
    mode.put(&mut buf);
    seal_frame(buf)
}

/// Encodes a [`StateDelta`] once into a shared payload that
/// [`frame_apply_delta`] can splice into many per-leg frames.
pub fn encode_delta_shared(d: &StateDelta) -> Bytes {
    let mut buf = BytesMut::with_capacity(128);
    put_delta(&mut buf, d);
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
    put_uvarint(&mut buf, req_id);
    put_path(&mut buf, path);
    put_uvarint(&mut buf, base_version);
    put_uvarint(&mut buf, new_version);
    buf.put_slice(delta);
    mode.put(&mut buf);
    seal_frame(buf)
}

/// Writes a framed message to a `Write` stream.
///
/// # Errors
///
/// Propagates I/O errors from the underlying writer.
pub fn write_frame<W: std::io::Write>(w: &mut W, m: &Message) -> std::io::Result<()> {
    w.write_all(&frame_message(m))
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
    let len = u32::from_le_bytes(len_buf) as u64;
    if len > MAX_LEN {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            WireError::LengthOverflow { declared: len, max: MAX_LEN },
        ));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    decode_message(&body)
        .map(Some)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::InstanceInfo;

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
                origin: gid(1, "f.slider"),
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
                target: path("g.s2"),
                event: UiEvent::simple(path("f.slider"), EventKind::Activate),
            },
            Message::ExecuteDone { exec_id: 7 },
            Message::GroupUnlocked { exec_id: 7, objects: vec![path("g.s2"), path("f.slider")] },
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
            write_frame(&mut stream, m).unwrap();
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

    #[test]
    fn bad_tags_rejected() {
        assert!(matches!(
            decode_message(&[250]),
            Err(WireError::InvalidTag { kind: "Message", .. })
        ));
    }

    #[test]
    fn varint_boundaries() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX] {
            let mut b = BytesMut::new();
            put_uvarint(&mut b, v);
            let mut r = b.freeze();
            assert_eq!(get_uvarint(&mut r).unwrap(), v);
        }
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -300, 300] {
            let mut b = BytesMut::new();
            put_ivarint(&mut b, v);
            let mut r = b.freeze();
            assert_eq!(get_ivarint(&mut r).unwrap(), v);
        }
    }

    #[test]
    fn varint_overflow_rejected() {
        // 10 continuation bytes with high bits set → more than 64 bits.
        let mut b = Bytes::from(vec![0xffu8; 11]);
        assert!(matches!(get_uvarint(&mut b), Err(WireError::VarintOverflow)));
    }

    #[test]
    fn nan_floats_round_trip_bitwise() {
        let weird = f64::from_bits(0x7ff8_dead_beef_0001);
        let mut b = BytesMut::new();
        put_value(&mut b, &Value::Float(weird));
        let mut r = b.freeze();
        match get_value(&mut r).unwrap() {
            Value::Float(x) => assert_eq!(x.to_bits(), weird.to_bits()),
            other => panic!("expected float, got {other:?}"),
        }
    }

    #[test]
    fn oversized_length_rejected() {
        // Value::Bytes with a declared length beyond MAX_LEN.
        let mut b = BytesMut::new();
        b.put_u8(8); // Bytes tag
        put_uvarint(&mut b, MAX_LEN + 1);
        let mut r = b.freeze();
        assert!(matches!(get_value(&mut r), Err(WireError::LengthOverflow { .. })));
    }

    #[test]
    fn deep_state_round_trips() {
        let mut node = StateNode::new(WidgetKind::Label, "leaf");
        for i in 0..50 {
            node = StateNode::new(WidgetKind::Panel, &format!("p{i}")).with_child(node);
        }
        let mut b = BytesMut::new();
        put_state(&mut b, &node);
        let mut r = b.freeze();
        assert_eq!(get_state(&mut r).unwrap(), node);
    }

    #[test]
    fn shared_frames_are_byte_identical_to_owned_frames() {
        for m in sample_messages() {
            let shared = frame_message_shared(&m);
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
                target: target.clone(),
                event: event.clone(),
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
        put_delta(&mut b, &delta);
        let mut r = b.freeze();
        assert_eq!(get_delta(&mut r).unwrap(), delta);
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
            let shared = frame_message_shared(&m);
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
            put_uvarint(&mut b, 0); // attrs
            put_uvarint(&mut b, 0); // semantic
            put_uvarint(&mut b, u64::from(level + 1 < depth)); // children
        }
        b.freeze()
    }

    #[test]
    fn state_depth_is_bounded() {
        let at_limit = nested_state_bytes(MAX_STATE_DEPTH);
        let node = get_state(&mut at_limit.clone()).expect("depth = limit decodes");
        let mut again = BytesMut::new();
        put_state(&mut again, &node);
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
        put_uvarint(&mut apply, 1);
        put_path(&mut apply, &path("a"));
        apply.put_slice(&nested);
        assert_eq!(decode_message(&apply), too_deep);

        let mut reply = BytesMut::new();
        reply.put_u8(MessageKind::StateReply as u8);
        put_uvarint(&mut reply, 1);
        reply.put_u8(1); // Some
        reply.put_slice(&nested);
        assert_eq!(decode_message(&reply), too_deep);

        let mut applied = BytesMut::new();
        applied.put_u8(MessageKind::StateApplied as u8);
        put_uvarint(&mut applied, 1);
        applied.put_u8(1); // Some: the non-building walk recurses too
        applied.put_slice(&nested);
        assert_eq!(decode_message(&applied), too_deep);

        let mut delta = BytesMut::new();
        put_uvarint(&mut delta, 1); // edits
        put_uvarint(&mut delta, 0); // path segments
        delta.put_u8(1); // EditOp::Replace
        delta.put_slice(&nested);
        assert_eq!(
            get_delta(&mut delta.clone().freeze()).map(|_| ()),
            Err(WireError::DepthExceeded { max: MAX_STATE_DEPTH })
        );

        let mut push = BytesMut::new();
        push.put_u8(MessageKind::CopyDelta as u8);
        put_gid(&mut push, &gid(1, "a"));
        put_gid(&mut push, &gid(2, "b"));
        put_uvarint(&mut push, 1); // base version
        put_uvarint(&mut push, 2); // new version
        push.put_slice(&delta);
        assert_eq!(decode_message(&push), too_deep);
    }
}
