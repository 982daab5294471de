//! The one bounds-checked byte cursor every untrusted-byte surface
//! parses with: layer images and their codec streams here, the `.eie`
//! container in `eie-core` and the wire frames in `eie-serve`.
//!
//! The cursor knows which layout section it is in, so a truncation
//! names the field group that ran dry. Every read is checked against
//! [`ByteCursor::remaining`] (never `pos + n`, which can overflow on a
//! hostile length), and [`Truncated`] converts by `From` into each
//! surface's own typed error.

/// The cursor's one error: the bytes ended before a read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Truncated {
    /// Byte offset at which data ran out.
    pub offset: usize,
    /// Which layout section was being read.
    pub section: &'static str,
}

/// A little-endian cursor over a byte slice with section attribution.
#[derive(Debug)]
pub struct ByteCursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    section: &'static str,
}

impl<'a> ByteCursor<'a> {
    /// A cursor at the start of `bytes`, reading `section`.
    #[inline]
    pub fn new(bytes: &'a [u8], section: &'static str) -> Self {
        Self {
            bytes,
            pos: 0,
            section,
        }
    }

    /// Marks the start of a layout section for error attribution.
    #[inline]
    pub fn enter(&mut self, section: &'static str) {
        self.section = section;
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Takes the next `n` bytes.
    ///
    /// # Errors
    ///
    /// [`Truncated`] at the current offset and section if fewer than `n`
    /// bytes remain; nothing is consumed.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], Truncated> {
        if n > self.remaining() {
            return Err(Truncated {
                offset: self.pos,
                section: self.section,
            });
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Takes `count` fixed-size `N`-byte records as one bounds-checked
    /// block, borrowed in place. A count the remaining bytes cannot hold
    /// — counts come straight from untrusted header fields — is a
    /// truncation error here, before the caller reserves anything for
    /// the records.
    ///
    /// # Errors
    ///
    /// [`Truncated`] if the block does not fit (however large `count`).
    #[inline]
    pub fn records<const N: usize>(&mut self, count: usize) -> Result<&'a [[u8; N]], Truncated> {
        Ok(self.take(count.saturating_mul(N))?.as_chunks().0)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], Truncated> {
        Ok(self.take(N)?.try_into().expect("take(N) yields N bytes"))
    }

    /// Reads a `u8`.
    ///
    /// # Errors
    ///
    /// [`Truncated`] if no byte remains.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, Truncated> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// [`Truncated`] if fewer than 2 bytes remain.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, Truncated> {
        self.array().map(u16::from_le_bytes)
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`Truncated`] if fewer than 4 bytes remain.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, Truncated> {
        self.array().map(u32::from_le_bytes)
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`Truncated`] if fewer than 8 bytes remain.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, Truncated> {
        self.array().map(u64::from_le_bytes)
    }

    /// Reads a little-endian `i16`.
    ///
    /// # Errors
    ///
    /// [`Truncated`] if fewer than 2 bytes remain.
    #[inline]
    pub fn i16(&mut self) -> Result<i16, Truncated> {
        self.array().map(i16::from_le_bytes)
    }

    /// Reads a little-endian `f32`.
    ///
    /// # Errors
    ///
    /// [`Truncated`] if fewer than 4 bytes remain.
    #[inline]
    pub fn f32(&mut self) -> Result<f32, Truncated> {
        self.array().map(f32::from_le_bytes)
    }

    /// Reads a little-endian `f64`.
    ///
    /// # Errors
    ///
    /// [`Truncated`] if fewer than 8 bytes remain.
    #[inline]
    pub fn f64(&mut self) -> Result<f64, Truncated> {
        self.array().map(f64::from_le_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hostile_lengths_are_typed_truncations_not_overflows() {
        let bytes = [1u8, 2, 3, 4, 5, 6];
        let mut r = ByteCursor::new(&bytes, "head");
        assert_eq!(r.u16(), Ok(0x0201));
        r.enter("body");
        let at = Truncated {
            offset: 2,
            section: "body",
        };
        // Neither `pos + n` nor `count * size` may wrap into a short
        // read; the cursor must not move on failure.
        assert_eq!(r.take(usize::MAX), Err(at));
        assert_eq!(r.records::<4>(usize::MAX).err(), Some(at));
        assert_eq!(r.records::<2>(usize::MAX / 2 + 1).err(), Some(at));
        assert_eq!(r.remaining(), 4);
        assert_eq!(r.u32(), Ok(0x0605_0403));
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn sections_attribute_across_enter_and_remaining_counts_down() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&7u8.to_le_bytes());
        bytes.extend_from_slice(&(-2i16).to_le_bytes());
        bytes.extend_from_slice(&1.5f32.to_le_bytes());
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        bytes.extend_from_slice(&(-0.25f64).to_le_bytes());
        bytes.extend_from_slice(&[9, 0, 8, 0, 7]);
        let mut r = ByteCursor::new(&bytes, "a");
        assert_eq!(r.remaining(), bytes.len());
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.i16(), Ok(-2));
        r.enter("b");
        assert_eq!(r.f32(), Ok(1.5));
        assert_eq!(r.u64(), Ok(u64::MAX));
        assert_eq!(r.f64(), Ok(-0.25));
        assert_eq!(r.remaining(), 5);
        r.enter("pairs");
        let pairs: Vec<_> = r.records::<2>(2).unwrap().iter().map(|p| p[0]).collect();
        assert_eq!(pairs, [9, 8]);
        assert_eq!(r.remaining(), 1);
        // A partial field fails where it starts, in the section entered
        // last, and leaves the byte for a narrower read.
        r.enter("tail");
        let at = Truncated {
            offset: bytes.len() - 1,
            section: "tail",
        };
        assert_eq!(r.u16(), Err(at));
        assert_eq!(r.records::<2>(1).err(), Some(at));
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(
            r.u8(),
            Err(Truncated {
                offset: bytes.len(),
                ..at
            })
        );
        assert_eq!(r.take(0), Ok(&[][..]));
    }
}
