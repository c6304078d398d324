//! The three AFS compression schemes and the dynamic selector.

use btwc_syndrome::{PackedBits, Syndrome};

use crate::bits::{index_width, BitReader, BitWriter};

/// A lossless per-cycle syndrome compressor.
///
/// Every implementation must satisfy `decode(encode(s)) == s` for any
/// syndrome of the configured width; the property tests enforce this.
pub trait Compressor {
    /// Syndrome width this codec was configured for.
    fn width(&self) -> usize;

    /// Encodes one syndrome into a bit stream.
    fn encode(&self, syndrome: &Syndrome) -> Vec<bool>;

    /// Decodes a bit stream produced by [`Compressor::encode`].
    fn decode(&self, bits: &[bool]) -> Syndrome;

    /// Convenience: encoded size in bits.
    fn encoded_len(&self, syndrome: &Syndrome) -> usize {
        self.encode(syndrome).len()
    }
}

/// AFS *Sparse Representation*: a flag bit, then (if non-zero) a count
/// field and one `⌈log₂N⌉`-bit index per lit ancilla.
///
/// This is the scheme the paper quotes as AFS's most effective
/// (`1 + O(k·log N)` bits) and the one Fig. 13 compares against.
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
}

impl Compressor for SparseRepr {
    fn width(&self) -> usize {
        self.width
    }

    fn encode(&self, syndrome: &Syndrome) -> Vec<bool> {
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

    fn decode(&self, bits: &[bool]) -> Syndrome {
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
}

/// Run-length scheme: the syndrome is serialized as alternating run
/// lengths of zeros and ones, each a fixed-width counter; degenerates
/// gracefully on dense syndromes, wins on long quiet stretches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunLength {
    width: usize,
}

impl RunLength {
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
}

impl Compressor for RunLength {
    fn width(&self) -> usize {
        self.width
    }

    fn encode(&self, syndrome: &Syndrome) -> Vec<bool> {
        assert_eq!(syndrome.len(), self.width, "syndrome width mismatch");
        // Runs always start with the zero symbol; a leading one-run is a
        // zero-length zero-run.
        let rw = index_width(self.width + 1);
        let mut w = BitWriter::new();
        let mut current = false;
        let mut run = 0u64;
        for i in 0..self.width {
            if syndrome.get(i) == current {
                run += 1;
            } else {
                w.push_uint(run, rw);
                current = !current;
                run = 1;
            }
        }
        w.push_uint(run, rw);
        w.into_bits()
    }

    fn decode(&self, bits: &[bool]) -> Syndrome {
        let rw = index_width(self.width + 1);
        let mut r = BitReader::new(bits);
        let mut s = Syndrome::new(self.width);
        let mut pos = 0usize;
        let mut symbol = false;
        while pos < self.width {
            let run = r.read_uint(rw) as usize;
            if symbol {
                for i in pos..pos + run {
                    s.set(i, true);
                }
            }
            pos += run;
            symbol = !symbol;
        }
        s
    }
}

/// The identity scheme: ship the syndrome verbatim (`N` bits). The
/// fallback AFS uses when compression would expand the data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawRepr {
    width: usize,
}

impl RawRepr {
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
}

impl Compressor for RawRepr {
    fn width(&self) -> usize {
        self.width
    }

    fn encode(&self, syndrome: &Syndrome) -> Vec<bool> {
        assert_eq!(syndrome.len(), self.width, "syndrome width mismatch");
        syndrome.to_bools()
    }

    fn decode(&self, bits: &[bool]) -> Syndrome {
        assert_eq!(bits.len(), self.width, "raw stream width mismatch");
        PackedBits::from_bools(bits)
    }
}

/// AFS's dynamic selection: encode with all three schemes, ship the
/// shortest, prefixed by a 2-bit scheme tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DynamicCompressor {
    sparse: SparseRepr,
    rle: RunLength,
    raw: RawRepr,
}

impl DynamicCompressor {
    /// Codec for `width`-bit syndromes.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    #[must_use]
    pub fn new(width: usize) -> Self {
        Self {
            sparse: SparseRepr::new(width),
            rle: RunLength::new(width),
            raw: RawRepr::new(width),
        }
    }
}

impl Compressor for DynamicCompressor {
    fn width(&self) -> usize {
        self.raw.width()
    }

    fn encode(&self, syndrome: &Syndrome) -> Vec<bool> {
        let candidates = [
            (0u64, self.sparse.encode(syndrome)),
            (1u64, self.rle.encode(syndrome)),
            (2u64, self.raw.encode(syndrome)),
        ];
        let (tag, best) =
            candidates.into_iter().min_by_key(|(_, bits)| bits.len()).expect("three candidates");
        let mut w = BitWriter::new();
        w.push_uint(tag, 2);
        let mut out = w.into_bits();
        out.extend(best);
        out
    }

    fn decode(&self, bits: &[bool]) -> Syndrome {
        let mut r = BitReader::new(bits);
        let tag = r.read_uint(2);
        let rest = &bits[2..];
        match tag {
            0 => self.sparse.decode(rest),
            1 => self.rle.decode(rest),
            2 => self.raw.decode(rest),
            other => panic!("unknown scheme tag {other}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btwc_noise::SimRng;

    fn random_syndrome(rng: &mut SimRng, n: usize, p: f64) -> Syndrome {
        (0..n).map(|_| rng.bernoulli(p)).collect()
    }

    fn roundtrip<C: Compressor>(codec: &C, s: &Syndrome) {
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
    fn rle_roundtrips_edge_patterns() {
        let codec = RunLength::new(16);
        for pattern in [
            vec![false; 16],
            vec![true; 16],
            (0..16).map(|i| i % 2 == 0).collect::<Vec<_>>(),
            (0..16).map(|i| i < 8).collect::<Vec<_>>(),
            (0..16).map(|i| i == 15).collect::<Vec<_>>(),
            (0..16).map(|i| i == 0).collect::<Vec<_>>(),
        ] {
            roundtrip(&codec, &PackedBits::from_bools(&pattern));
        }
    }

    #[test]
    fn raw_is_identity_width() {
        let codec = RawRepr::new(24);
        let mut rng = SimRng::from_seed(5);
        let s = random_syndrome(&mut rng, 24, 0.3);
        assert_eq!(codec.encoded_len(&s), 24);
        roundtrip(&codec, &s);
    }

    #[test]
    fn dynamic_never_worse_than_raw_plus_tag() {
        let codec = DynamicCompressor::new(48);
        let mut rng = SimRng::from_seed(77);
        for p in [0.0, 0.01, 0.1, 0.5, 0.9] {
            for _ in 0..200 {
                let s = random_syndrome(&mut rng, 48, p);
                let len = codec.encoded_len(&s);
                assert!(len <= 48 + 2, "dynamic len {len} worse than raw");
                roundtrip(&codec, &s);
            }
        }
    }

    #[test]
    fn all_codecs_roundtrip_random_syndromes() {
        let n = 60;
        let sparse = SparseRepr::new(n);
        let rle = RunLength::new(n);
        let raw = RawRepr::new(n);
        let dynamic = DynamicCompressor::new(n);
        let mut rng = SimRng::from_seed(31337);
        for _ in 0..500 {
            let p = rng.uniform();
            let s = random_syndrome(&mut rng, n, p);
            roundtrip(&sparse, &s);
            roundtrip(&rle, &s);
            roundtrip(&raw, &s);
            roundtrip(&dynamic, &s);
        }
    }

    #[test]
    #[should_panic(expected = "width must be positive")]
    fn zero_width_rejected() {
        let _ = SparseRepr::new(0);
    }
}
