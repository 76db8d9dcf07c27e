//! In-workspace stand-in for the `bytes` crate (offline build environment).
//!
//! Provides the subset the wire format uses: [`BytesMut`] as an append
//! buffer with little-endian put methods, [`Bytes`] as a cheaply cloneable
//! shared view with cursor-style little-endian reads, and the [`Buf`] /
//! [`BufMut`] traits those methods live on.

#![forbid(unsafe_code)]

use std::ops::Deref;
use std::sync::Arc;

/// Cursor-style reads over a byte buffer. Each `get_*` consumes from the
/// front.
pub trait Buf {
    /// Remaining bytes.
    fn remaining(&self) -> usize;
    /// Consumes and returns the next `n` bytes.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `n` bytes remain.
    fn take_bytes(&mut self, n: usize) -> Vec<u8>;

    /// Reads a little-endian `u32`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than 4 bytes remain.
    fn get_u32_le(&mut self) -> u32 {
        u32::from_le_bytes(self.take_bytes(4).try_into().expect("4 bytes"))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than 8 bytes remain.
    fn get_u64_le(&mut self) -> u64 {
        u64::from_le_bytes(self.take_bytes(8).try_into().expect("8 bytes"))
    }

    /// Reads a little-endian `f64`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than 8 bytes remain.
    fn get_f64_le(&mut self) -> f64 {
        f64::from_bits(self.get_u64_le())
    }
}

/// Append-style writes onto a growable byte buffer.
pub trait BufMut {
    /// Appends raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `f64`.
    fn put_f64_le(&mut self, v: f64) {
        self.put_u64_le(v.to_bits());
    }

    /// Appends `cnt` copies of the byte `val`.
    fn put_bytes(&mut self, val: u8, cnt: usize);
}

/// A cheaply cloneable, shared, immutable byte buffer with a read cursor.
#[derive(Debug, Clone)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// Wraps a static byte slice.
    pub fn from_static(bytes: &'static [u8]) -> Bytes {
        Bytes::from(bytes.to_vec())
    }

    /// Number of readable bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether no bytes remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A sub-view of this buffer (shares the underlying allocation).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice(&self, range: impl std::ops::RangeBounds<usize>) -> Bytes {
        let len = self.len();
        let lo = match range.start_bound() {
            std::ops::Bound::Included(&i) => i,
            std::ops::Bound::Excluded(&i) => i + 1,
            std::ops::Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            std::ops::Bound::Included(&i) => i + 1,
            std::ops::Bound::Excluded(&i) => i,
            std::ops::Bound::Unbounded => len,
        };
        assert!(lo <= hi && hi <= len, "slice {lo}..{hi} out of range {len}");
        Bytes {
            data: self.data.clone(),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    /// Copies the readable bytes into a fresh `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self[..].to_vec()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(data: Vec<u8>) -> Bytes {
        let end = data.len();
        Bytes {
            data: data.into(),
            start: 0,
            end,
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn take_bytes(&mut self, n: usize) -> Vec<u8> {
        assert!(n <= self.len(), "buffer underflow: {n} > {}", self.len());
        let out = self.data[self.start..self.start + n].to_vec();
        self.start += n;
        out
    }
}

/// A growable byte buffer for building frames.
#[derive(Debug, Clone, Default)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// Creates an empty buffer with the given capacity.
    pub fn with_capacity(capacity: usize) -> BytesMut {
        BytesMut {
            data: Vec::with_capacity(capacity),
        }
    }

    /// Number of written bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Freezes into an immutable, shareable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }

    /// Reserves room for at least `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.data.reserve(additional);
    }

    /// Clears the buffer, keeping its allocation — the frame-arena
    /// recycling primitive: a cleared `BytesMut` re-encodes the next
    /// frame into the same storage.
    pub fn clear(&mut self) {
        self.data.clear();
    }
}

impl Deref for BytesMut {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl std::ops::DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }

    fn put_bytes(&mut self, val: u8, cnt: usize) {
        self.data.resize(self.data.len() + cnt, val);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_le_fields() {
        let mut buf = BytesMut::with_capacity(32);
        buf.put_u32_le(7);
        buf.put_f64_le(-2.5);
        buf.put_u64_le(u64::MAX);
        let mut frozen = buf.freeze();
        assert_eq!(frozen.len(), 20);
        assert_eq!(frozen.get_u32_le(), 7);
        assert_eq!(frozen.get_f64_le(), -2.5);
        assert_eq!(frozen.get_u64_le(), u64::MAX);
        assert!(frozen.is_empty());
    }

    #[test]
    fn put_bytes_appends_a_fill() {
        let mut buf = BytesMut::default();
        buf.put_slice(&[9]);
        buf.put_bytes(0xab, 3);
        buf.put_bytes(0, 0);
        assert_eq!(&buf[..], &[9, 0xab, 0xab, 0xab]);
    }

    #[test]
    fn slices_share_and_narrow() {
        let b = Bytes::from(vec![1, 2, 3, 4, 5]);
        let s = b.slice(1..4);
        assert_eq!(&s[..], &[2, 3, 4]);
        let tail = s.slice(1..);
        assert_eq!(&tail[..], &[3, 4]);
        assert_eq!(b.slice(..2).to_vec(), vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "buffer underflow")]
    fn underflow_panics() {
        let mut b = Bytes::from(vec![1]);
        let _ = b.get_u32_le();
    }
}
