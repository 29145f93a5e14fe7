//! Minimal little-endian byte encoding helpers shared by the workspace's
//! wire formats (sketch wire, binary traces, detector checkpoints).
//!
//! Every decoder in this workspace must treat its input as hostile: a
//! truncated or bit-flipped file must produce a typed error, never a panic
//! or an out-of-bounds slice. [`Cursor`] packages the bounds checks once so
//! each format's decoder reads fields with `?` and cannot forget a check.
//! This lives in `scd-hash` because it is the root crate of the workspace
//! dependency graph.

/// Appends a `u8`.
#[inline]
pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

/// Appends a `u32` little-endian.
#[inline]
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64` little-endian.
#[inline]
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64` as its little-endian IEEE-754 bit pattern (exact:
/// encode/decode round-trips every value bit-for-bit, including NaNs).
#[inline]
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64` as unsigned LEB128: seven value bits per byte, low
/// group first, the high bit set on every byte but the last. Always the
/// shortest form, so a value has exactly one encoding.
#[inline]
pub fn put_uleb128(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push(v as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Maps a signed integer onto the unsigned ones so small magnitudes of
/// either sign get short LEB128 forms: 0, −1, 1, −2, … ↦ 0, 1, 2, 3, …
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(u: u64) -> i64 {
    (u >> 1) as i64 ^ -((u & 1) as i64)
}

/// Error returned when a [`Cursor`] runs out of bytes mid-field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShortInput;

impl std::fmt::Display for ShortInput {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "input truncated mid-field")
    }
}

impl std::error::Error for ShortInput {}

/// A bounds-checked forward reader over a byte slice.
#[derive(Debug, Clone, Copy)]
pub struct Cursor<'a> {
    data: &'a [u8],
}

impl<'a> Cursor<'a> {
    /// Wraps a slice for reading.
    pub fn new(data: &'a [u8]) -> Self {
        Cursor { data }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.data.len()
    }

    /// Consumes and returns the next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], ShortInput> {
        if self.data.len() < n {
            return Err(ShortInput);
        }
        let (head, tail) = self.data.split_at(n);
        self.data = tail;
        Ok(head)
    }

    /// Reads a `u8`.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, ShortInput> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, ShortInput> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("length checked")))
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, ShortInput> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("length checked")))
    }

    /// Reads a little-endian `f64` bit pattern.
    #[inline]
    pub fn f64(&mut self) -> Result<f64, ShortInput> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads an unsigned LEB128 `u64` written by [`put_uleb128`]. Only
    /// that shortest form is accepted: a value running past 64 bits or
    /// padded with a trailing zero group is `Ok(None)`, an input ending
    /// inside the value is [`ShortInput`]. Either way nothing is consumed.
    #[inline]
    pub fn uleb128(&mut self) -> Result<Option<u64>, ShortInput> {
        let mut v = 0u64;
        for (i, &byte) in self.data.iter().take(10).enumerate() {
            let group = u64::from(byte & 0x7F);
            v |= group << (7 * i);
            if byte & 0x80 == 0 {
                // A zero last group is padding; the tenth holds bit 63 alone.
                if (byte == 0 && i > 0) || (i == 9 && group > 1) {
                    return Ok(None);
                }
                self.data = &self.data[i + 1..];
                return Ok(Some(v));
            }
        }
        if self.data.len() < 10 {
            return Err(ShortInput);
        }
        Ok(None) // ten continuation bytes: longer than any `u64`
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_width() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 0xAB);
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, 0x0123_4567_89AB_CDEF);
        put_f64(&mut buf, -1234.5678);
        let mut c = Cursor::new(&buf);
        assert_eq!(c.u8().unwrap(), 0xAB);
        assert_eq!(c.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(c.u64().unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(c.f64().unwrap(), -1234.5678);
        assert_eq!(c.remaining(), 0);
    }

    #[test]
    fn f64_round_trip_is_bit_exact() {
        for v in [0.0, -0.0, f64::INFINITY, f64::NAN, 1e-308, f64::MAX] {
            let mut buf = Vec::new();
            put_f64(&mut buf, v);
            let got = Cursor::new(&buf).f64().unwrap();
            assert_eq!(got.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn uleb128_round_trips_in_its_shortest_form_only() {
        for v in [0, 1, 127, 128, 300, 1 << 53, u64::MAX - 1, u64::MAX] {
            let mut buf = Vec::new();
            put_uleb128(&mut buf, v);
            assert_eq!(buf.len(), (64 - v.leading_zeros() as usize).div_ceil(7).max(1));
            let mut c = Cursor::new(&buf);
            assert_eq!(c.uleb128(), Ok(Some(v)));
            assert_eq!(c.remaining(), 0);
            // Cut anywhere inside the value: short, and nothing consumed.
            for keep in 0..buf.len() {
                let mut c = Cursor::new(&buf[..keep]);
                assert_eq!(c.uleb128(), Err(ShortInput));
                assert_eq!(c.remaining(), keep);
            }
        }
        // Padded (0x80 0x00 is a two-byte zero), too long, and past 64 bits.
        let eleven = [0x80u8; 11];
        let past_64 = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02];
        for bad in [&[0x80, 0x00][..], &[0xFF, 0x80, 0x00], &eleven, &past_64] {
            let mut c = Cursor::new(bad);
            assert_eq!(c.uleb128(), Ok(None), "{bad:02x?}");
            assert_eq!(c.remaining(), bad.len());
        }
    }

    #[test]
    fn zigzag_orders_by_magnitude_and_inverts() {
        assert_eq!([0, -1, 1, -2, 2].map(zigzag), [0, 1, 2, 3, 4]);
        for v in [0, 1, -1, 1 << 53, -(1 << 53), i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn short_reads_error_instead_of_panicking() {
        let buf = [1u8, 2, 3];
        let mut c = Cursor::new(&buf);
        assert_eq!(c.u8().unwrap(), 1);
        assert_eq!(c.u8().unwrap(), 2);
        assert_eq!(c.u64(), Err(ShortInput));
        // The failed read consumes nothing; the last byte is still there.
        assert_eq!(c.u8().unwrap(), 3);
        assert_eq!(c.u8(), Err(ShortInput));
    }
}
