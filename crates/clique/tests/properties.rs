#![allow(clippy::needless_range_loop)]

//! Property-based tests of the Clique decision logic.

use btwc_clique::{CliqueDecision, CliqueDecoder};
use btwc_lattice::{StabilizerType, SurfaceCode};
use btwc_syndrome::{PackedBits, Syndrome};
use proptest::prelude::*;

proptest! {
    /// Whenever Clique declares a syndrome trivial, its correction must
    /// exactly reproduce that syndrome — for *any* bit pattern, not just
    /// realizable ones. This is the Fig. 5 pseudocode's soundness.
    #[test]
    fn trivial_corrections_explain_the_syndrome(
        d in prop_oneof![Just(3u16), Just(5), Just(7)],
        seed in proptest::collection::vec(proptest::bool::weighted(0.15), 60),
    ) {
        let code = SurfaceCode::new(d);
        let decoder = CliqueDecoder::new(&code, StabilizerType::X);
        let n = decoder.num_cliques();
        let syndrome = PackedBits::from_bools(&seed[..n]);
        if let CliqueDecision::Trivial(c) = decoder.decode(&syndrome) {
            let mut errors = vec![false; code.num_data_qubits()];
            c.apply_to(&mut errors);
            let produced = code.syndrome_of(StabilizerType::X, &errors);
            for i in 0..n {
                prop_assert_eq!(produced[i], syndrome.get(i), "ancilla {}", i);
            }
        }
    }

    /// The decision is a pure function (same syndrome, same answer) and
    /// the per-clique gate flags agree with it.
    #[test]
    fn decision_is_pure_and_matches_gate_flags(
        d in prop_oneof![Just(3u16), Just(5)],
        bits in proptest::collection::vec(any::<bool>(), 60),
    ) {
        let code = SurfaceCode::new(d);
        let decoder = CliqueDecoder::new(&code, StabilizerType::X);
        let n = decoder.num_cliques();
        let syndrome = PackedBits::from_bools(&bits[..n]);
        let first = decoder.decode(&syndrome);
        prop_assert_eq!(&decoder.decode(&syndrome), &first);
        let any_flag = (0..n).any(|a| decoder.complex_flag(a, &syndrome));
        prop_assert_eq!(any_flag, matches!(first, CliqueDecision::Complex));
    }

    /// Monotone extension: clearing a lit ancilla from an AllZeros-or-
    /// Trivial syndrome never produces Complex out of nothing when the
    /// syndrome becomes empty.
    #[test]
    fn empty_is_always_all_zeros(d in prop_oneof![Just(3u16), Just(5), Just(7)]) {
        let code = SurfaceCode::new(d);
        let decoder = CliqueDecoder::new(&code, StabilizerType::X);
        let syndrome = Syndrome::new(decoder.num_cliques());
        prop_assert_eq!(decoder.decode(&syndrome), CliqueDecision::AllZeros);
    }
}
