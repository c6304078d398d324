//! AFS *Sparse Representation*, the scheme Fig. 13 compares against.

use btwc_syndrome::Syndrome;

use crate::bits::{index_width, BitReader, BitWriter};

/// AFS *Sparse Representation*: a flag bit, then (if non-zero) a count
/// field and one `⌈log₂N⌉`-bit index per lit ancilla.
///
/// This is the scheme the paper quotes as AFS's most effective
/// (`1 + O(k·log N)` bits) and the one Fig. 13 compares against. It is
/// lossless: `decode(encode(s)) == s` for any syndrome of the
/// configured width, which the property tests enforce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SparseRepr {
    width: usize,
}

impl SparseRepr {
    /// Codec for `width`-bit syndromes.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    #[must_use]
    pub fn new(width: usize) -> Self {
        assert!(width > 0, "syndrome width must be positive");
        Self { width }
    }

    /// Syndrome width this codec was configured for.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Encodes one syndrome into a bit stream.
    ///
    /// # Panics
    ///
    /// Panics if the syndrome's width differs from the codec's.
    #[must_use]
    pub fn encode(&self, syndrome: &Syndrome) -> Vec<bool> {
        assert_eq!(syndrome.len(), self.width, "syndrome width mismatch");
        let mut w = BitWriter::new();
        if syndrome.is_zero() {
            w.push_bit(false);
            return w.into_bits();
        }
        w.push_bit(true);
        let iw = index_width(self.width);
        let cw = index_width(self.width + 1);
        w.push_uint(syndrome.weight() as u64, cw);
        for i in syndrome.iter_set() {
            w.push_uint(i as u64, iw);
        }
        w.into_bits()
    }

    /// Decodes a bit stream produced by [`SparseRepr::encode`].
    ///
    /// # Panics
    ///
    /// Panics if the stream ends early.
    #[must_use]
    pub fn decode(&self, bits: &[bool]) -> Syndrome {
        let mut r = BitReader::new(bits);
        let mut s = Syndrome::new(self.width);
        if !r.read_bit() {
            return s;
        }
        let cw = index_width(self.width + 1);
        let iw = index_width(self.width);
        let k = r.read_uint(cw) as usize;
        for _ in 0..k {
            let i = r.read_uint(iw) as usize;
            s.set(i, true);
        }
        s
    }

    /// Encoded size of `syndrome` in bits.
    ///
    /// # Panics
    ///
    /// Panics if the syndrome's width differs from the codec's.
    #[must_use]
    pub fn encoded_len(&self, syndrome: &Syndrome) -> usize {
        self.encode(syndrome).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btwc_noise::SimRng;

    fn random_syndrome(rng: &mut SimRng, n: usize, p: f64) -> Syndrome {
        (0..n).map(|_| rng.bernoulli(p)).collect()
    }

    fn roundtrip(codec: &SparseRepr, s: &Syndrome) {
        let bits = codec.encode(s);
        assert_eq!(&codec.decode(&bits), s, "lossless roundtrip violated");
    }

    #[test]
    fn sparse_all_zero_is_one_bit() {
        let codec = SparseRepr::new(40);
        let s = Syndrome::new(40);
        assert_eq!(codec.encoded_len(&s), 1);
        roundtrip(&codec, &s);
    }

    #[test]
    fn sparse_cost_grows_with_k() {
        let codec = SparseRepr::new(64);
        let mut prev = 0;
        for k in 1..6 {
            let mut s = Syndrome::new(64);
            for i in 0..k {
                s.set(i * 7, true);
            }
            let len = codec.encoded_len(&s);
            assert!(len > prev, "cost must grow with weight");
            prev = len;
            roundtrip(&codec, &s);
        }
        // k lit bits cost 1 + count + k*log2(64).
        let mut s = Syndrome::new(64);
        s.set(5, true);
        s.set(9, true);
        assert_eq!(codec.encoded_len(&s), 1 + 7 + 2 * 6);
    }

    #[test]
    fn sparse_dense_syndrome_expands_beyond_raw() {
        // The paper's point: AFS compression backfires on dense signatures.
        let codec = SparseRepr::new(32);
        let s: Syndrome = (0..32).map(|i| i % 2 == 0).collect();
        assert!(codec.encoded_len(&s) > 32);
        roundtrip(&codec, &s);
    }

    #[test]
    fn all_codecs_roundtrip_random_syndromes() {
        let n = 60;
        let sparse = SparseRepr::new(n);
        let mut rng = SimRng::from_seed(31337);
        for _ in 0..500 {
            let p = rng.uniform();
            let s = random_syndrome(&mut rng, n, p);
            roundtrip(&sparse, &s);
        }
    }

    #[test]
    #[should_panic(expected = "width must be positive")]
    fn zero_width_rejected() {
        let _ = SparseRepr::new(0);
    }
}
