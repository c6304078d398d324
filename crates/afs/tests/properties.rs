//! Property-based tests: every codec is lossless on arbitrary syndromes
//! and the dynamic selector is never beaten by its own candidates.

use btwc_afs::{Compressor, DynamicCompressor, RawRepr, RunLength, SparseRepr};
use btwc_syndrome::{PackedBits, Syndrome};
use proptest::prelude::*;

fn syndrome_strategy() -> impl Strategy<Value = Syndrome> {
    (1usize..80).prop_flat_map(|n| {
        proptest::collection::vec(any::<bool>(), n).prop_map(|bits| PackedBits::from_bools(&bits))
    })
}

proptest! {
    #[test]
    fn sparse_roundtrips(s in syndrome_strategy()) {
        let codec = SparseRepr::new(s.len());
        prop_assert_eq!(codec.decode(&codec.encode(&s)), s);
    }

    #[test]
    fn rle_roundtrips(s in syndrome_strategy()) {
        let codec = RunLength::new(s.len());
        prop_assert_eq!(codec.decode(&codec.encode(&s)), s);
    }

    #[test]
    fn raw_roundtrips(s in syndrome_strategy()) {
        let codec = RawRepr::new(s.len());
        prop_assert_eq!(codec.decode(&codec.encode(&s)), s);
    }

    #[test]
    fn dynamic_roundtrips_and_wins(s in syndrome_strategy()) {
        let n = s.len();
        let dynamic = DynamicCompressor::new(n);
        let bits = dynamic.encode(&s);
        prop_assert_eq!(dynamic.decode(&bits), s.clone());
        // The dynamic pick is the best candidate plus the 2-bit tag.
        let best = [
            SparseRepr::new(n).encoded_len(&s),
            RunLength::new(n).encoded_len(&s),
            RawRepr::new(n).encoded_len(&s),
        ]
        .into_iter()
        .min()
        .unwrap();
        prop_assert_eq!(bits.len(), best + 2);
    }

    /// AFS's structural weakness from the paper: sparse-representation
    /// cost is monotone in syndrome weight for fixed width.
    #[test]
    fn sparse_cost_is_monotone_in_weight(n in 4usize..64, w in 0usize..16) {
        let w = w.min(n - 1);
        let codec = SparseRepr::new(n);
        let mut light = Syndrome::new(n);
        let mut heavy = Syndrome::new(n);
        for i in 0..w {
            light.set(i, true);
            heavy.set(i, true);
        }
        heavy.set(w, true);
        prop_assert!(codec.encoded_len(&heavy) > codec.encoded_len(&light));
    }
}
