//! Property-based hardware/software equivalence: the synthesized SFQ
//! netlist computes exactly the behavioral Clique function on arbitrary
//! syndrome bit patterns.

use btwc_clique::{CliqueDecision, CliqueDecoder};
use btwc_lattice::{StabilizerType, SurfaceCode};
use btwc_sfq::{synthesize_clique, NetlistState};
use btwc_syndrome::PackedBits;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn netlist_equals_behavioral_decoder(
        d in prop_oneof![Just(3u16), Just(5)],
        bits in proptest::collection::vec(proptest::bool::weighted(0.2), 60),
    ) {
        let code = SurfaceCode::new(d);
        let synth = synthesize_clique(&code, StabilizerType::X, 1);
        let decoder = CliqueDecoder::new(&code, StabilizerType::X);
        let n = synth.num_ancillas();
        let inputs: Vec<bool> = bits[..n].to_vec();
        let nl = synth.netlist();
        let depth = *nl.net_depths().iter().max().unwrap();
        let mut st = NetlistState::new(nl);
        let outs = st.settle(nl, &inputs, depth + 2);
        let syndrome = PackedBits::from_bools(&inputs);
        match decoder.decode(&syndrome) {
            CliqueDecision::Complex => {
                prop_assert!(outs[synth.complex_output_index()]);
            }
            CliqueDecision::AllZeros => {
                prop_assert!(!outs[synth.complex_output_index()]);
                for &(_, po) in synth.correction_outputs() {
                    prop_assert!(!outs[po]);
                }
            }
            CliqueDecision::Trivial(c) => {
                prop_assert!(!outs[synth.complex_output_index()]);
                for &(q, po) in synth.correction_outputs() {
                    prop_assert_eq!(outs[po], c.qubits().contains(&q), "qubit {}", q);
                }
            }
        }
    }

    /// Structural invariants survive synthesis for any filter depth.
    #[test]
    fn synthesis_invariants_hold(k in 1usize..4) {
        let code = SurfaceCode::new(5);
        let synth = synthesize_clique(&code, StabilizerType::X, k);
        let nl = synth.netlist();
        prop_assert!(nl.is_single_fanout());
        prop_assert!(nl.is_path_balanced_after(synth.filter_gate_count()));
        prop_assert!(nl.jj_count() > 0);
        prop_assert!(nl.critical_path_ps() > 0.0);
    }
}
