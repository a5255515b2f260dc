//! Offline stand-in for `bytes`: a reference-counted immutable byte
//! buffer, a growable builder, and the little-endian cursor methods the
//! workspace's codecs use. Cloning and slicing share one allocation,
//! like the published crate.

use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// Cheaply cloneable, sliceable view of shared bytes.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    pub fn new() -> Bytes {
        Bytes::default()
    }

    pub fn from_static(bytes: &'static [u8]) -> Bytes {
        Bytes { data: Arc::from(bytes), start: 0, end: bytes.len() }
    }

    pub fn len(&self) -> usize {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(lo <= hi && hi <= self.len(), "slice {lo}..{hi} out of range for {}", self.len());
        Bytes { data: Arc::clone(&self.data), start: self.start + lo, end: self.start + hi }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        let end = v.len();
        Bytes { data: Arc::from(v), start: 0, end }
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        **self == **other
    }
}

impl Eq for Bytes {}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bytes({} bytes)", self.len())
    }
}

/// Growable byte builder; [`BytesMut::freeze`] turns it into [`Bytes`].
#[derive(Clone, Default, Debug, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    pub fn with_capacity(capacity: usize) -> BytesMut {
        BytesMut { data: Vec::with_capacity(capacity) }
    }

    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }
}

macro_rules! buf_get {
    ($($name:ident -> $ty:ty),* $(,)?) => {$(
        fn $name(&mut self) -> $ty {
            let mut raw = [0u8; std::mem::size_of::<$ty>()];
            self.copy_to_slice(&mut raw);
            <$ty>::from_le_bytes(raw)
        }
    )*};
}

/// Read cursor over a byte buffer.
pub trait Buf {
    fn remaining(&self) -> usize;
    fn chunk(&self) -> &[u8];
    fn advance(&mut self, n: usize);

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.remaining() >= dst.len(), "buffer underflow");
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }

    buf_get! {
        get_u16_le -> u16, get_u32_le -> u32, get_u64_le -> u64,
        get_f32_le -> f32, get_f64_le -> f64,
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self
    }

    fn advance(&mut self, n: usize) {
        assert!(n <= self.len(), "advance past the end");
        self.start += n;
    }
}

macro_rules! buf_put {
    ($($name:ident($ty:ty)),* $(,)?) => {$(
        fn $name(&mut self, v: $ty) {
            self.put_slice(&v.to_le_bytes());
        }
    )*};
}

/// Append cursor over a growable buffer.
pub trait BufMut {
    fn put_slice(&mut self, src: &[u8]);

    buf_put! {
        put_u16_le(u16), put_u32_le(u32), put_u64_le(u64),
        put_f32_le(f32), put_f64_le(f64),
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

