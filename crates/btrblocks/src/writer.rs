//! Little-endian byte reading/writing helpers for the block format.
//!
//! [`Reader`] is public because the per-scheme `decompress` entry points take
//! it; typical users go through [`crate::decompress`] instead.

use crate::scheme::fixed::Value;
use crate::{Error, Result};

/// Appends primitives to a byte buffer.
pub trait WriteLe {
    fn put_u8(&mut self, v: u8);
    fn put_u16(&mut self, v: u16);
    fn put_u32(&mut self, v: u32);
    fn put_u64(&mut self, v: u64);
    fn put_i32(&mut self, v: i32);
    fn put_f64(&mut self, v: f64);
    fn put_u32_slice(&mut self, v: &[u32]);
    fn put_i32_slice(&mut self, v: &[i32]);
    fn put_f64_slice(&mut self, v: &[f64]);
}

impl WriteLe for Vec<u8> {
    #[inline]
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }

    #[inline]
    fn put_u16(&mut self, v: u16) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    fn put_u32(&mut self, v: u32) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    fn put_u64(&mut self, v: u64) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    fn put_i32(&mut self, v: i32) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    fn put_f64(&mut self, v: f64) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    fn put_u32_slice(&mut self, v: &[u32]) {
        self.reserve(v.len() * 4);
        for &x in v {
            self.extend_from_slice(&x.to_le_bytes());
        }
    }

    fn put_i32_slice(&mut self, v: &[i32]) {
        self.reserve(v.len() * 4);
        for &x in v {
            self.extend_from_slice(&x.to_le_bytes());
        }
    }

    fn put_f64_slice(&mut self, v: &[f64]) {
        self.reserve(v.len() * 8);
        for &x in v {
            self.extend_from_slice(&x.to_le_bytes());
        }
    }
}

/// A cursor over encoded bytes with bounds-checked reads.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        // Checked add: a hostile length close to usize::MAX must not wrap
        // around and alias an in-bounds range.
        let end = self.pos.checked_add(n).ok_or(Error::UnexpectedEnd)?;
        if end > self.buf.len() {
            return Err(Error::UnexpectedEnd);
        }
        // lint: allow(indexing) end was bounds-checked against buf.len() above
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Reads a fixed-size array; length mismatch is impossible after `take`.
    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        self.take(N)?.try_into().map_err(|_| Error::UnexpectedEnd)
    }

    /// Bytes left between the cursor and the end of the buffer.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub fn u8(&mut self) -> Result<u8> {
        Ok(u8::from_le_bytes(self.array::<1>()?))
    }

    pub fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.array::<2>()?))
    }

    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.array::<4>()?))
    }

    pub fn i32(&mut self) -> Result<i32> {
        Ok(i32::from_le_bytes(self.array::<4>()?))
    }

    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.array::<8>()?))
    }

    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads `count` little-endian u32s into `out`, clearing it first.
    /// Reuses `out`'s existing capacity — the zero-allocation decode path's
    /// primitive reader. `out` is left empty on error.
    pub fn u32_vec_into(&mut self, count: usize, out: &mut Vec<u32>) -> Result<()> {
        out.clear();
        let bytes = count.checked_mul(4).ok_or(Error::UnexpectedEnd)?;
        let raw = self.take(bytes)?;
        out.reserve(count);
        out.extend(
            raw.chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().unwrap_or_default())),
        );
        Ok(())
    }

    /// Reads one little-endian `i32` or `f64`.
    pub fn value<V: Value>(&mut self) -> Result<V> {
        Ok(V::from_le(self.take(V::SIZE)?))
    }

    /// Reads `count` little-endian `i32`s or `f64`s into `out`; see
    /// [`Self::u32_vec_into`].
    pub fn vec_into<V: Value>(&mut self, count: usize, out: &mut Vec<V>) -> Result<()> {
        out.clear();
        let bytes = count.checked_mul(V::SIZE).ok_or(Error::UnexpectedEnd)?;
        let raw = self.take(bytes)?;
        out.reserve(count);
        out.extend(raw.chunks_exact(V::SIZE).map(V::from_le));
        Ok(())
    }

    /// Remaining unread bytes.
    pub fn rest(&self) -> &'a [u8] {
        // lint: allow(indexing) pos never exceeds buf.len() (see take)
        &self.buf[self.pos..]
    }

    /// Current read position.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Advances the cursor by `n` bytes.
    pub fn skip(&mut self, n: usize) -> Result<()> {
        self.take(n).map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_roundtrip() {
        let mut buf = Vec::new();
        buf.put_u8(7);
        buf.put_u16(513);
        buf.put_u32(123_456);
        buf.put_u64(u64::MAX - 1);
        buf.put_i32(-99);
        buf.put_f64(2.5);
        buf.put_i32_slice(&[1, -2, 3]);
        buf.put_f64_slice(&[0.5, -0.5]);
        buf.put_u32_slice(&[10, 20]);
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 513);
        assert_eq!(r.u32().unwrap(), 123_456);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.value::<i32>().unwrap(), -99);
        assert_eq!(r.value::<f64>().unwrap(), 2.5);
        let (mut ints, mut doubles) = (vec![9], vec![9.0]);
        r.vec_into(3, &mut ints).unwrap();
        assert_eq!(ints, vec![1, -2, 3]);
        r.vec_into(2, &mut doubles).unwrap();
        assert_eq!(doubles, vec![0.5, -0.5]);
        let mut codes = vec![77; 3]; // dirty: `_into` must clear, not append
        r.u32_vec_into(2, &mut codes).unwrap();
        assert_eq!(codes, vec![10, 20]);
        assert!(r.rest().is_empty());
    }

    #[test]
    fn vec_into_clears_dirty_buffers() {
        let mut buf = Vec::new();
        buf.put_i32_slice(&[4, 5]);
        let mut out = vec![9, 9, 9, 9];
        let mut r = Reader::new(&buf);
        r.vec_into(2, &mut out).unwrap();
        assert_eq!(out, vec![4, 5]);
        // Error paths leave the buffer empty, never with stale garbage.
        let mut r = Reader::new(&buf);
        let mut out = vec![9, 9];
        assert!(r.vec_into(3, &mut out).is_err());
        assert!(out.is_empty());
    }

    #[test]
    fn reads_past_end_error() {
        let mut r = Reader::new(&[1, 2]);
        assert!(r.u32().is_err());
        assert_eq!(r.u8().unwrap(), 1);
        assert!(r.vec_into::<i32>(1, &mut Vec::new()).is_err());
        assert_eq!(r.value::<f64>(), Err(Error::UnexpectedEnd));
    }
}
