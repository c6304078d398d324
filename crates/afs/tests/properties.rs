//! Property-based tests: the sparse-representation codec is lossless on
//! arbitrary syndromes and its cost is monotone in syndrome weight.

use btwc_afs::SparseRepr;
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
