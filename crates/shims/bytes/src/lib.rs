//! Minimal offline stand-in for the `bytes` crate.
//!
//! The workspace builds without network access, so instead of the real
//! crate this shim provides just the API surface `mutcon-http` and
//! `mutcon-live` use: an immutable, cheaply-cloneable [`Bytes`] and a
//! growable read buffer [`BytesMut`]. Semantics match the real crate for
//! that subset; swap in the real dependency by deleting this shim and
//! pointing Cargo at crates.io.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// An immutable, reference-counted byte buffer. Cloning is O(1).
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct Bytes(Arc<[u8]>);

impl Bytes {
    /// An empty buffer. `Arc<[u8]>::default()` is std's shared empty
    /// slice, so this allocates nothing (`Arc::from(&[][..])` would).
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Copies `data` into a new buffer; an empty `data` shares the
    /// empty buffer, as in the real crate.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        if data.is_empty() {
            return Bytes::new();
        }
        Bytes(Arc::from(data))
    }

    /// Creates a buffer from a static slice (copies, unlike the real
    /// crate, which is fine for the small literals used here).
    pub fn from_static(data: &'static [u8]) -> Self {
        Bytes::copy_from_slice(data)
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.0.iter() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl From<&[u8]> for Bytes {
    fn from(data: &[u8]) -> Self {
        Bytes::copy_from_slice(data)
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(data: Vec<u8>) -> Self {
        Bytes(Arc::from(data))
    }
}

impl From<&str> for Bytes {
    fn from(data: &str) -> Self {
        Bytes::copy_from_slice(data.as_bytes())
    }
}

impl From<String> for Bytes {
    fn from(data: String) -> Self {
        Bytes::from(data.into_bytes())
    }
}

impl From<BytesMut> for Bytes {
    fn from(data: BytesMut) -> Self {
        data.freeze()
    }
}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        &self.0[..] == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        &self.0[..] == *other
    }
}

/// A growable byte buffer used for socket reads.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct BytesMut(Vec<u8>);

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> Self {
        BytesMut(Vec::new())
    }

    /// An empty buffer with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut(Vec::with_capacity(cap))
    }

    /// Appends `data` to the buffer.
    pub fn extend_from_slice(&mut self, data: &[u8]) {
        self.0.extend_from_slice(data);
    }

    /// Removes and returns the first `at` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `at > len`.
    pub fn split_to(&mut self, at: usize) -> BytesMut {
        assert!(at <= self.0.len(), "split_to out of bounds");
        let rest = self.0.split_off(at);
        BytesMut(std::mem::replace(&mut self.0, rest))
    }

    /// Discards the first `cnt` bytes in place.
    ///
    /// Unlike [`BytesMut::split_to`], which carves the prefix into a new
    /// allocation, this just shifts the tail down — the buffer's capacity
    /// is retained, so hot parse loops can consume without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `cnt > len`.
    pub fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.0.len(), "advance out of bounds");
        self.0.drain(..cnt);
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Clears the buffer.
    pub fn clear(&mut self) {
        self.0.clear();
    }

    /// Converts into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.0)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_round_trip() {
        let b = Bytes::copy_from_slice(b"hello");
        assert_eq!(b.len(), 5);
        assert_eq!(&b[..], b"hello");
        let c = b.clone();
        assert_eq!(c, b);
        assert_eq!(Bytes::new().len(), 0);
        assert!(Bytes::new().is_empty());
        assert_eq!(Bytes::from("hi"), Bytes::from(vec![b'h', b'i']));
        assert!(format!("{:?}", Bytes::from("a\n")).contains("\\n"));
    }

    #[test]
    fn bytes_mut_split_to() {
        let mut buf = BytesMut::new();
        buf.extend_from_slice(b"abcdef");
        let head = buf.split_to(4);
        assert_eq!(&head[..], b"abcd");
        assert_eq!(&buf[..], b"ef");
        assert_eq!(buf.split_to(0).len(), 0);
        assert_eq!(&buf.freeze()[..], b"ef");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn split_to_rejects_overrun() {
        let mut buf = BytesMut::new();
        buf.extend_from_slice(b"ab");
        let _ = buf.split_to(3);
    }

    #[test]
    fn advance_consumes_in_place() {
        let mut buf = BytesMut::with_capacity(64);
        buf.extend_from_slice(b"abcdef");
        let cap = buf.0.capacity();
        buf.advance(4);
        assert_eq!(&buf[..], b"ef");
        assert_eq!(buf.0.capacity(), cap, "advance must not reallocate");
        buf.advance(2);
        assert!(buf.is_empty());
        buf.advance(0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn advance_rejects_overrun() {
        let mut buf = BytesMut::new();
        buf.extend_from_slice(b"ab");
        buf.advance(3);
    }
}
