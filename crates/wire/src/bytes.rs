//! The two buffers every frame lives in: [`BytesMut`], a `Vec` the
//! codec appends to, and [`Bytes`], a refcounted slice of a frozen one
//! that the decoder reads from the front. Clones and [`Bytes::split_to`]
//! share the allocation, which is what lets one encoded frame fan out to
//! a whole group and a stored state stay a slice of the frame it came in.
//!
//! A read returns `None` when the buffer is too short for it and leaves
//! the buffer as it was; the codec turns that into
//! [`WireError::UnexpectedEof`](crate::WireError::UnexpectedEof).

use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// Cheaply clonable view of an immutable byte buffer, read from the front.
#[derive(Clone, Default)]
pub struct Bytes {
    /// `None` for the empty buffer, which needs no allocation.
    data: Option<Arc<Vec<u8>>>,
    // start <= end <= data.len(): only the reads move them, each checked.
    start: usize,
    end: usize,
}

impl Bytes {
    /// Splits off the first `at` bytes; `self` keeps the rest.
    pub fn split_to(&mut self, at: usize) -> Option<Bytes> {
        if at > self.len() {
            return None;
        }
        let head = Bytes { data: self.data.clone(), start: self.start, end: self.start + at };
        self.start += at;
        Some(head)
    }

    /// Skips `cnt` bytes.
    pub fn advance(&mut self, cnt: usize) -> Option<()> {
        if cnt > self.len() {
            return None;
        }
        self.start += cnt;
        Some(())
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Option<u8> {
        let byte = *self.first()?;
        self.start += 1;
        Some(byte)
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64_le(&mut self) -> Option<u64> {
        let raw: [u8; 8] = self.get(..8)?.try_into().ok()?;
        self.start += 8;
        Some(u64::from_le_bytes(raw))
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        let end = v.len();
        Bytes { data: Some(Arc::new(v)), start: 0, end }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match &self.data {
            #[expect(
                clippy::indexing_slicing,
                reason = "start <= end <= data.len(), see the fields"
            )]
            Some(data) => &data[self.start..self.end],
            None => &[],
        }
    }
}

/// By content, wherever the bytes are kept.
impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        **self == **other
    }
}

impl Eq for Bytes {}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&**self, f)
    }
}

/// Growable byte buffer the codec appends to.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> BytesMut {
        BytesMut::default()
    }

    /// An empty buffer with room for `cap` bytes.
    pub fn with_capacity(cap: usize) -> BytesMut {
        BytesMut { buf: Vec::with_capacity(cap) }
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, b: u8) {
        self.buf.push(b);
    }

    /// Appends `src`.
    pub fn put_slice(&mut self, src: &[u8]) {
        self.buf.extend_from_slice(src);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// The same bytes, immutable and shareable; nothing is copied.
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_and_splits_share_one_allocation() {
        let mut buf = BytesMut::with_capacity(8);
        buf.put_slice(b"head");
        buf.put_u32_le(0x6c69_6174); // "tail"
        let whole = buf.freeze();
        let base = whole.as_ptr();
        let mut rest = whole.clone();
        let head = rest.split_to(4).expect("4 of 8");
        assert_eq!((&*head, &*rest), (&b"head"[..], &b"tail"[..]));
        assert_eq!(head.as_ptr(), base);
        assert_eq!(rest.as_ptr(), base.wrapping_add(4));
        assert_eq!(Arc::strong_count(whole.data.as_ref().expect("allocated")), 3);
        // Splitting everything off leaves the empty buffer.
        let tail = rest.split_to(rest.len()).expect("all of it");
        assert!(rest.is_empty() && &*tail == b"tail");
        assert_eq!(rest.split_to(0).as_deref(), Some(&[][..]));
    }

    #[test]
    fn equality_is_by_content() {
        let mut long = Bytes::from(b"xxabc".to_vec());
        long.advance(2).expect("2 of 5");
        assert_eq!(long, Bytes::from(b"abc".to_vec()));
        assert_ne!(long, Bytes::from(b"abd".to_vec()));
        assert_eq!(Bytes::default(), Bytes::from(Vec::new()));
    }

    #[test]
    fn a_short_buffer_refuses_the_read_and_keeps_its_place() {
        let mut b = Bytes::from(vec![1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(b.get_u64_le(), None);
        assert_eq!(b.split_to(8), None);
        assert_eq!(b.advance(8), None);
        assert_eq!(b.len(), 7);
        assert_eq!(b.get_u8(), Some(1));
        assert_eq!(b.advance(6), Some(()));
        assert_eq!(b.get_u8(), None);
        assert_eq!(Bytes::default().get_u8(), None);
        let mut eight = Bytes::from(7u64.to_le_bytes().to_vec());
        assert_eq!((eight.get_u64_le(), eight.len()), (Some(7), 0));
    }
}
