//! Word-packed bit vectors — the hot-path representation of syndromes.
//!
//! Every per-cycle structure in the decode pipeline (raw rounds, the
//! sticky filter, detection-event diffs) is a dense bit vector over a
//! few hundred ancillas at most. Storing them as `Vec<bool>` costs one
//! byte per bit and forces bit-at-a-time loops; packing them into `u64`
//! words makes XOR/AND/OR, zero tests, and weight counts word-parallel
//! (64 ancillas per instruction, with hardware `popcnt`/`tzcnt` doing
//! the counting), which is what lets the Monte Carlo engines push
//! billions of cycles through the filter.
//!
//! Invariant: bits at positions `>= len` inside the last word are always
//! zero, so whole-word operations need no per-call masking.

use std::fmt;

/// A fixed-length bit vector packed 64 bits per word.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct PackedBits {
    len: usize,
    words: Vec<u64>,
}

#[inline]
const fn words_for(len: usize) -> usize {
    len.div_ceil(64)
}

impl PackedBits {
    /// An all-zero vector of `len` bits.
    #[must_use]
    pub fn new(len: usize) -> Self {
        Self { len, words: vec![0; words_for(len)] }
    }

    /// Packs a bool slice.
    #[must_use]
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut out = Self::new(bits.len());
        out.fill_from_bools(bits);
        out
    }

    /// Unpacks `len` bits from their little-endian byte image: bit `i`
    /// is bit `i % 8` of byte `i / 8` — the off-chip frame's payload
    /// lane, and the inverse of [`PackedBits::extend_le_bytes`]. Whole
    /// words move at once; padding bits at positions `>= len` in the
    /// last byte are masked off, so bytes from outside the program
    /// cannot break the zero-tail invariant.
    ///
    /// # Panics
    ///
    /// Panics if `bytes.len() != len.div_ceil(8)`.
    #[must_use]
    pub fn from_le_bytes(len: usize, bytes: &[u8]) -> Self {
        assert_eq!(bytes.len(), len.div_ceil(8), "byte length mismatch");
        let mut words: Vec<u64> = bytes
            .chunks(8)
            .map(|chunk| {
                let mut le = [0u8; 8];
                le[..chunk.len()].copy_from_slice(chunk);
                u64::from_le_bytes(le)
            })
            .collect();
        if let Some(last) = words.last_mut() {
            *last &= u64::MAX >> ((64 - len % 64) % 64);
        }
        Self { len, words }
    }

    /// Appends the little-endian byte image (`len().div_ceil(8)` bytes,
    /// padding bits zero) to `out`; see [`PackedBits::from_le_bytes`].
    pub fn extend_le_bytes(&self, out: &mut Vec<u8>) {
        let mut remaining = self.len.div_ceil(8);
        for w in &self.words {
            let n = remaining.min(8);
            out.extend_from_slice(&w.to_le_bytes()[..n]);
            remaining -= n;
        }
    }

    /// Number of bits.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector covers zero bits.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The backing words (tail bits beyond `len` are zero).
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Mutable word access for same-crate transpose kernels; callers
    /// must keep tail bits beyond `len` zero.
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    #[must_use]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range for {} bits", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Sets bit `i` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit index {i} out of range for {} bits", self.len);
        let mask = 1u64 << (i % 64);
        if value {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Flips bit `i`, returning its new value.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn toggle(&mut self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range for {} bits", self.len);
        let mask = 1u64 << (i % 64);
        self.words[i / 64] ^= mask;
        self.words[i / 64] & mask != 0
    }

    /// Clears all bits (length unchanged).
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Overwrites this vector from a bool slice of the same length,
    /// without reallocating.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len() != len()`.
    pub fn fill_from_bools(&mut self, bits: &[bool]) {
        assert_eq!(bits.len(), self.len, "bit length mismatch");
        for (w, chunk) in self.words.iter_mut().zip(bits.chunks(64)) {
            let mut word = 0u64;
            for (j, &b) in chunk.iter().enumerate() {
                word |= u64::from(b) << j;
            }
            *w = word;
        }
    }

    /// Copies another vector of the same length into this one without
    /// reallocating.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn copy_from(&mut self, other: &PackedBits) {
        assert_eq!(self.len, other.len, "bit length mismatch");
        self.words.copy_from_slice(&other.words);
    }

    /// Word-parallel XOR of `other` into `self`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn xor_with(&mut self, other: &PackedBits) {
        assert_eq!(self.len, other.len, "bit length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a ^= b;
        }
    }

    /// Word-parallel AND of `other` into `self`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn and_with(&mut self, other: &PackedBits) {
        assert_eq!(self.len, other.len, "bit length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// Word-parallel OR of `other` into `self`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn or_with(&mut self, other: &PackedBits) {
        assert_eq!(self.len, other.len, "bit length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Weight of `self XOR other` in a single fused pass: per word one
    /// XOR feeding straight into a hardware popcount, with no temporary
    /// buffer and no second traversal. This is the detection-event
    /// count between two adjacent rounds.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    #[must_use]
    pub fn xor_weight(&self, other: &PackedBits) -> usize {
        assert_eq!(self.len, other.len, "bit length mismatch");
        self.words.iter().zip(&other.words).map(|(&a, &b)| (a ^ b).count_ones() as usize).sum()
    }

    /// Whether every bit is zero (word scan, no per-bit work).
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Number of set bits (hardware popcount per word).
    #[must_use]
    pub fn weight(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Indices of the set bits, ascending (trailing-zeros scan: cost is
    /// O(words + set bits), not O(len)).
    #[must_use]
    pub fn iter_set(&self) -> SetBits<'_> {
        SetBits {
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Unpacks to a bool vector (cold paths and tests only).
    #[must_use]
    pub fn to_bools(&self) -> Vec<bool> {
        (0..self.len).map(|i| self.get(i)).collect()
    }
}

/// Iterator over set-bit indices; see [`PackedBits::iter_set`].
#[derive(Debug, Clone)]
pub struct SetBits<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for SetBits<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1; // clear lowest set bit
        Some(self.word_idx * 64 + bit)
    }
}

impl FromIterator<bool> for PackedBits {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let bits: Vec<bool> = iter.into_iter().collect();
        Self::from_bools(&bits)
    }
}

impl fmt::Display for PackedBits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.len {
            write!(f, "{}", u8::from(self.get(i)))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference model: the same ops on a `Vec<bool>`.
    fn reference_xor(a: &[bool], b: &[bool]) -> Vec<bool> {
        a.iter().zip(b).map(|(&x, &y)| x ^ y).collect()
    }

    #[test]
    fn new_is_zero_across_word_boundaries() {
        for len in [0usize, 1, 63, 64, 65, 127, 128, 129, 300] {
            let p = PackedBits::new(len);
            assert_eq!(p.len(), len);
            assert!(p.is_zero());
            assert_eq!(p.weight(), 0);
            assert_eq!(p.iter_set().count(), 0);
        }
    }

    #[test]
    fn set_get_toggle_roundtrip() {
        let mut p = PackedBits::new(130);
        for i in [0usize, 63, 64, 65, 128, 129] {
            assert!(!p.get(i));
            p.set(i, true);
            assert!(p.get(i));
        }
        assert_eq!(p.weight(), 6);
        assert!(!p.toggle(63));
        assert!(p.toggle(63));
        assert_eq!(p.weight(), 6);
        p.set(63, false);
        assert_eq!(p.weight(), 5);
    }

    #[test]
    fn word_ops_match_boolean_reference() {
        // Deterministic pseudo-random patterns across odd lengths.
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for len in [1usize, 5, 64, 65, 100, 129, 255] {
            let a_bits: Vec<bool> = (0..len).map(|_| next() & 1 == 1).collect();
            let b_bits: Vec<bool> = (0..len).map(|_| next() & 1 == 1).collect();
            let mut a = PackedBits::from_bools(&a_bits);
            let b = PackedBits::from_bools(&b_bits);
            assert_eq!(a.weight(), a_bits.iter().filter(|&&x| x).count());
            let set: Vec<usize> = a.iter_set().collect();
            let expect: Vec<usize> =
                a_bits.iter().enumerate().filter_map(|(i, &x)| x.then_some(i)).collect();
            assert_eq!(set, expect, "len {len}");
            assert_eq!(
                a.xor_weight(&b),
                reference_xor(&a_bits, &b_bits).iter().filter(|&&x| x).count(),
                "len {len}: fused xor_weight must equal xor-then-count"
            );
            a.xor_with(&b);
            assert_eq!(a.to_bools(), reference_xor(&a_bits, &b_bits), "len {len}");
            assert_eq!(a.xor_weight(&a), 0, "xor_weight with self is zero");
            a.xor_with(&b);
            assert_eq!(a.to_bools(), a_bits, "xor is an involution");
            let mut o = PackedBits::from_bools(&a_bits);
            o.or_with(&b);
            let mut n = PackedBits::from_bools(&a_bits);
            n.and_with(&b);
            for i in 0..len {
                assert_eq!(o.get(i), a_bits[i] | b_bits[i]);
                assert_eq!(n.get(i), a_bits[i] & b_bits[i]);
            }
        }
    }

    #[test]
    fn tail_bits_stay_clear() {
        let mut p = PackedBits::new(65);
        p.set(64, true);
        assert_eq!(p.words()[1], 1);
        let mut q = PackedBits::new(65);
        q.set(0, true);
        p.xor_with(&q);
        p.or_with(&q);
        p.and_with(&q);
        assert!(p.words().iter().all(|&w| w.leading_zeros() >= 63 || w == 1));
        assert_eq!(PackedBits::from_bools(&[true; 65]).weight(), 65);
    }

    #[test]
    fn copy_and_fill_reuse_without_realloc() {
        let mut dst = PackedBits::new(70);
        let src: PackedBits = (0..70).map(|i| i % 3 == 0).collect();
        dst.copy_from(&src);
        assert_eq!(dst, src);
        dst.clear();
        assert!(dst.is_zero());
        dst.fill_from_bools(&src.to_bools());
        assert_eq!(dst, src);
    }

    #[test]
    fn le_bytes_roundtrip_and_mask_padding() {
        for len in [1usize, 7, 8, 9, 12, 60, 64, 65, 84, 128, 130] {
            let p: PackedBits = (0..len).map(|i| i % 3 == 0 || i % 7 == 2).collect();
            let mut bytes = Vec::new();
            p.extend_le_bytes(&mut bytes);
            assert_eq!(bytes.len(), len.div_ceil(8), "len {len}");
            for (i, bit) in p.to_bools().into_iter().enumerate() {
                assert_eq!((bytes[i / 8] >> (i % 8)) & 1 == 1, bit, "len {len}, bit {i}");
            }
            assert_eq!(PackedBits::from_le_bytes(len, &bytes), p, "len {len}");
            // Set padding bits in the last byte must not survive.
            if len % 8 != 0 {
                *bytes.last_mut().unwrap() |= 0xFFu8 << (len % 8);
            }
            let hostile = PackedBits::from_le_bytes(len, &bytes);
            assert_eq!(hostile, p, "len {len}: padding bits must be masked");
            assert_eq!(hostile.weight(), p.weight());
        }
    }

    #[test]
    #[should_panic(expected = "byte length mismatch")]
    fn from_le_bytes_rejects_wrong_length() {
        let _ = PackedBits::from_le_bytes(9, &[0xFF]);
    }

    #[test]
    fn display_is_bitstring() {
        let p: PackedBits = [true, false, true].into_iter().collect();
        assert_eq!(p.to_string(), "101");
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn xor_rejects_length_mismatch() {
        let mut a = PackedBits::new(3);
        a.xor_with(&PackedBits::new(4));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn xor_weight_rejects_length_mismatch() {
        let _ = PackedBits::new(3).xor_weight(&PackedBits::new(4));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_rejects_out_of_range() {
        let _ = PackedBits::new(64).get(64);
    }
}
