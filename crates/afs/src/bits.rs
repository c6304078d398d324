//! Minimal bit-level I/O used by the sparse-representation codec.

/// Append-only bit buffer.
#[derive(Debug, Default)]
pub(crate) struct BitWriter {
    bits: Vec<bool>,
}

impl BitWriter {
    /// An empty buffer.
    #[must_use]
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Appends a single bit.
    pub(crate) fn push_bit(&mut self, bit: bool) {
        self.bits.push(bit);
    }

    /// Appends the low `width` bits of `value`, most significant first.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64` or `value` does not fit in `width` bits.
    pub(crate) fn push_uint(&mut self, value: u64, width: usize) {
        assert!(width <= 64, "width {width} exceeds u64");
        assert!(
            width == 64 || value < (1u64 << width),
            "value {value} does not fit in {width} bits"
        );
        for i in (0..width).rev() {
            self.bits.push((value >> i) & 1 == 1);
        }
    }

    /// Consumes the writer, returning the bit vector.
    #[must_use]
    pub(crate) fn into_bits(self) -> Vec<bool> {
        self.bits
    }
}

/// Sequential reader over an encoded bit vector.
#[derive(Debug)]
pub(crate) struct BitReader<'a> {
    bits: &'a [bool],
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Starts reading at the first bit.
    #[must_use]
    pub(crate) fn new(bits: &'a [bool]) -> Self {
        Self { bits, pos: 0 }
    }

    /// Reads one bit.
    ///
    /// # Panics
    ///
    /// Panics on exhausted input.
    pub(crate) fn read_bit(&mut self) -> bool {
        assert!(self.pos < self.bits.len(), "bit stream exhausted");
        let b = self.bits[self.pos];
        self.pos += 1;
        b
    }

    /// Reads a `width`-bit unsigned integer (most significant first).
    ///
    /// # Panics
    ///
    /// Panics on exhausted input or `width > 64`.
    pub(crate) fn read_uint(&mut self, width: usize) -> u64 {
        assert!(width <= 64, "width {width} exceeds u64");
        let mut v = 0u64;
        for _ in 0..width {
            v = (v << 1) | u64::from(self.read_bit());
        }
        v
    }
}

/// Number of bits needed to represent values in `[0, n)` (at least 1).
#[must_use]
pub(crate) fn index_width(n: usize) -> usize {
    if n <= 1 {
        1
    } else {
        (usize::BITS - (n - 1).leading_zeros()) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_roundtrip() {
        let mut w = BitWriter::new();
        w.push_bit(true);
        w.push_bit(false);
        w.push_bit(true);
        let bits = w.into_bits();
        let mut r = BitReader::new(&bits);
        assert!(r.read_bit());
        assert!(!r.read_bit());
        assert!(r.read_bit());
        assert_eq!(bits.len(), 3);
    }

    #[test]
    fn uint_roundtrip() {
        let mut w = BitWriter::new();
        w.push_uint(0b1011, 4);
        w.push_uint(7, 3);
        w.push_uint(0, 1);
        let bits = w.into_bits();
        assert_eq!(bits.len(), 8);
        let mut r = BitReader::new(&bits);
        assert_eq!(r.read_uint(4), 0b1011);
        assert_eq!(r.read_uint(3), 7);
        assert_eq!(r.read_uint(1), 0);
    }

    #[test]
    fn index_width_values() {
        assert_eq!(index_width(0), 1);
        assert_eq!(index_width(1), 1);
        assert_eq!(index_width(2), 1);
        assert_eq!(index_width(3), 2);
        assert_eq!(index_width(4), 2);
        assert_eq!(index_width(5), 3);
        assert_eq!(index_width(256), 8);
        assert_eq!(index_width(257), 9);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn push_uint_checks_width() {
        let mut w = BitWriter::new();
        w.push_uint(8, 3);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn reader_panics_past_end() {
        let bits = [true];
        let mut r = BitReader::new(&bits);
        let _ = r.read_bit();
        let _ = r.read_bit();
    }
}
