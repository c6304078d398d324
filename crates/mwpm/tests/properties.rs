//! Property-based cross-validation of the matcher and decoder.

use btwc_lattice::{StabilizerType, SurfaceCode};
use btwc_mwpm::blossom::minimum_weight_perfect_matching;
use btwc_mwpm::brute::brute_force_min_weight;
use btwc_mwpm::MwpmDecoder;
use btwc_syndrome::RoundHistory;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Blossom equals brute force on arbitrary (possibly sparse) graphs.
    #[test]
    fn blossom_is_optimal(
        n in prop_oneof![Just(4usize), Just(6), Just(8), Just(10)],
        weights in proptest::collection::vec(proptest::option::weighted(0.7, 0i64..40), 45),
    ) {
        let w = |u: usize, v: usize| -> Option<i64> {
            let (a, b) = (u.min(v), u.max(v));
            let idx = b * (b - 1) / 2 + a;
            weights[idx % weights.len()]
        };
        let blossom = minimum_weight_perfect_matching(n, w);
        let brute = brute_force_min_weight(n, w);
        match (blossom, brute) {
            (None, None) => {}
            (Some(m), Some(opt)) => prop_assert_eq!(m.total_weight(), opt),
            (b, r) => prop_assert!(false, "feasibility disagreement: {:?} vs {:?}",
                                   b.map(|m| m.total_weight()), r),
        }
    }

    /// The decoder's corrections cancel the syndrome of any accumulated
    /// data-error pattern observed over a closed window.
    #[test]
    fn corrections_cancel_arbitrary_patterns(
        d in prop_oneof![Just(3u16), Just(5), Just(7)],
        flips in proptest::collection::vec(0usize..49, 0..10),
    ) {
        let code = SurfaceCode::new(d);
        let n = code.num_data_qubits();
        let mut decoder = MwpmDecoder::new(&code, StabilizerType::X);
        let mut errors = vec![false; n];
        for &q in &flips {
            errors[q % n] ^= true;
        }
        let round = code.syndrome_of(StabilizerType::X, &errors);
        let mut window = RoundHistory::new(round.len(), 2);
        window.push(&round);
        window.push(&round);
        let c = decoder.decode_window_mut(&window);
        let mut residual = errors;
        c.apply_to(&mut residual);
        let s = code.syndrome_of(StabilizerType::X, &residual);
        prop_assert!(s.iter().all(|&b| !b));
    }
}
