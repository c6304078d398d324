//! Synthesis of the Clique decoder into the ERSFQ cell library.

use btwc_lattice::{StabilizerType, SurfaceCode};

use crate::cells::CellKind;
use crate::netlist::{NetId, Netlist};

/// A synthesized Clique decoder netlist plus its I/O map.
///
/// Primary inputs are the raw per-ancilla syndrome bits (one per
/// ancilla, in [`SurfaceCode::ancillas`] order). Primary outputs are the
/// global COMPLEX flag followed by one correction signal per covered
/// data qubit.
#[derive(Debug, Clone)]
pub struct CliqueSynthesis {
    netlist: Netlist,
    rounds: usize,
    num_ancillas: usize,
    complex_po: usize,
    correction_pos: Vec<(usize, usize)>,
    filter_gates: usize,
}

impl CliqueSynthesis {
    /// The synthesized netlist (splitters inserted, paths balanced).
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Sticky-filter depth `k` baked into the hardware.
    #[must_use]
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Number of ancilla inputs.
    #[must_use]
    pub fn num_ancillas(&self) -> usize {
        self.num_ancillas
    }

    /// Index of the COMPLEX flag within the primary outputs.
    #[must_use]
    pub fn complex_output_index(&self) -> usize {
        self.complex_po
    }

    /// `(data qubit, primary output index)` pairs for the correction
    /// signals, sorted by data qubit.
    #[must_use]
    pub fn correction_outputs(&self) -> &[(usize, usize)] {
        &self.correction_pos
    }

    /// Number of leading gates forming the (deliberately unbalanced)
    /// sticky-filter stage; path balance holds for everything after.
    #[must_use]
    pub fn filter_gate_count(&self) -> usize {
        self.filter_gates
    }
}

/// Synthesizes the Clique decoder for one stabilizer type of `code`
/// with a `rounds`-deep sticky measurement filter (paper Figs. 5–7),
/// then runs the SFQ legalization passes (splitter trees, full path
/// balancing).
///
/// # Panics
///
/// Panics if `rounds == 0`.
#[must_use]
pub fn synthesize_clique(code: &SurfaceCode, ty: StabilizerType, rounds: usize) -> CliqueSynthesis {
    assert!(rounds >= 1, "sticky filter needs at least one round");
    let graph = code.detector_graph(ty);
    let n = graph.num_nodes();
    let mut nl = Netlist::new();

    // 1. Raw syndrome inputs, then the Fig. 7 sticky filter:
    //    filtered = AND(m, DFF(m), DFF(DFF(m)), ...).
    let raw: Vec<NetId> = (0..n).map(|_| nl.add_input()).collect();
    let filtered: Vec<NetId> = raw
        .iter()
        .map(|&m| {
            let mut taps = vec![m];
            let mut prev = m;
            for _ in 1..rounds {
                prev = nl.add_gate1(CellKind::Dff, prev);
                taps.push(prev);
            }
            reduce_tree(&mut nl, CellKind::And2, &taps)
        })
        .collect();
    // Gates so far implement the intentionally skewed temporal filter;
    // they are frozen during path balancing (their skew IS the function).
    let filter_gates = nl.num_gates();

    // 2. Per-clique decision logic (Fig. 6): parity of the same-type
    //    neighborhood, the NOT, and the active-AND; boundary cliques get
    //    the private-qubit escape (only lit neighbors force complexity).
    let mut complex_flags = Vec::with_capacity(n);
    let mut any_neighbor: Vec<Option<NetId>> = vec![None; n];
    for a in 0..n {
        let neighbors: Vec<NetId> =
            graph.ancilla_neighbors(a).iter().map(|&(b, _)| filtered[b]).collect();
        let parity = reduce_tree(&mut nl, CellKind::Xor2, &neighbors);
        let even = nl.add_gate1(CellKind::Not, parity);
        let base = nl.add_gate2(CellKind::And2, filtered[a], even);
        let has_private = !graph.private_qubits(a).is_empty();
        let flag = if has_private {
            let any = reduce_tree(&mut nl, CellKind::Or2, &neighbors);
            any_neighbor[a] = Some(any);
            nl.add_gate2(CellKind::And2, base, any)
        } else {
            base
        };
        complex_flags.push(flag);
    }
    let complex = reduce_tree(&mut nl, CellKind::Or2, &complex_flags);
    nl.mark_output(complex);
    let complex_po = 0;

    // 3. Correction cones (Fig. 5 pseudocode): one AND per shared data
    //    qubit; for boundary ancillas one AND(a, NOR(neighbors)) on the
    //    designated private qubit.
    let mut correction_pos = Vec::new();
    let mut edges: Vec<(usize, usize, usize)> = graph
        .edges()
        .iter()
        .filter_map(|e| match e.b {
            btwc_lattice::NodeRef::Ancilla(b) => Some((e.qubit, e.a, b)),
            btwc_lattice::NodeRef::Boundary => None,
        })
        .collect();
    edges.sort_unstable();
    for (qubit, a, b) in edges {
        let corr = nl.add_gate2(CellKind::And2, filtered[a], filtered[b]);
        correction_pos.push((qubit, nl.primary_outputs().len()));
        nl.mark_output(corr);
    }
    for a in 0..n {
        let Some(&qubit) = graph.private_qubits(a).iter().min() else {
            continue;
        };
        let any = any_neighbor[a].expect("private cliques computed their OR above");
        let none = nl.add_gate1(CellKind::Not, any);
        let corr = nl.add_gate2(CellKind::And2, filtered[a], none);
        correction_pos.push((qubit, nl.primary_outputs().len()));
        nl.mark_output(corr);
    }
    correction_pos.sort_unstable();

    // 4. SFQ legalization: splitter trees everywhere, path balancing on
    //    the decision cone (the filter's deliberate skew is preserved).
    nl.insert_splitters();
    nl.balance_paths_after(filter_gates);
    debug_assert!(nl.is_single_fanout());
    debug_assert!(nl.is_path_balanced_after(filter_gates));

    CliqueSynthesis {
        netlist: nl,
        rounds,
        num_ancillas: n,
        complex_po,
        correction_pos,
        filter_gates,
    }
}

/// Balanced binary reduction over `nets` with two-input `kind` cells.
fn reduce_tree(nl: &mut Netlist, kind: CellKind, nets: &[NetId]) -> NetId {
    assert!(!nets.is_empty(), "cannot reduce an empty net list");
    let mut layer: Vec<NetId> = nets.to_vec();
    while layer.len() > 1 {
        let mut next = Vec::with_capacity(layer.len().div_ceil(2));
        for pair in layer.chunks(2) {
            match *pair {
                [a, b] => next.push(nl.add_gate2(kind, a, b)),
                [a] => next.push(a),
                _ => unreachable!("chunks(2) yields 1..=2 items"),
            }
        }
        layer = next;
    }
    layer[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::NetlistState;
    use btwc_clique::{CliqueDecision, CliqueDecoder};
    use btwc_noise::SimRng;
    use btwc_syndrome::PackedBits;

    fn settle_outputs(synth: &CliqueSynthesis, inputs: &[bool]) -> Vec<bool> {
        let nl = synth.netlist();
        let depth = *nl.net_depths().iter().max().unwrap();
        let mut st = NetlistState::new(nl);
        st.settle(nl, inputs, depth + synth.rounds() + 2)
    }

    #[test]
    fn synthesis_has_expected_io() {
        let code = SurfaceCode::new(5);
        let synth = synthesize_clique(&code, StabilizerType::X, 2);
        assert_eq!(synth.num_ancillas(), 12);
        assert_eq!(synth.rounds(), 2);
        assert_eq!(synth.netlist().primary_inputs().len(), 12);
        // COMPLEX + one output per covered data qubit correction cone.
        assert!(synth.netlist().primary_outputs().len() > 12);
        assert!(synth.netlist().is_single_fanout());
        assert!(synth.netlist().is_path_balanced_after(synth.filter_gate_count()));
    }

    #[test]
    fn netlist_matches_behavioral_decoder_on_random_syndromes() {
        // The load-bearing hardware/software equivalence check (k = 1:
        // pure decision logic, no temporal filter).
        let code = SurfaceCode::new(5);
        let synth = synthesize_clique(&code, StabilizerType::X, 1);
        let decoder = CliqueDecoder::new(&code, StabilizerType::X);
        let n = synth.num_ancillas();
        let mut rng = SimRng::from_seed(0x5F0);
        for trial in 0..400 {
            let bits: Vec<bool> = (0..n).map(|_| rng.bernoulli(0.15)).collect();
            let syndrome = PackedBits::from_bools(&bits);
            let outs = settle_outputs(&synth, &bits);
            let hw_complex = outs[synth.complex_output_index()];
            match decoder.decode(&syndrome) {
                CliqueDecision::Complex => {
                    assert!(hw_complex, "trial {trial}: hw missed complex on {syndrome}");
                }
                CliqueDecision::AllZeros => {
                    assert!(!hw_complex);
                    for &(q, po) in synth.correction_outputs() {
                        assert!(!outs[po], "trial {trial}: spurious correction on {q}");
                    }
                }
                CliqueDecision::Trivial(c) => {
                    assert!(!hw_complex, "trial {trial}: hw false complex on {syndrome}");
                    for &(q, po) in synth.correction_outputs() {
                        assert_eq!(
                            outs[po],
                            c.qubits().contains(&q),
                            "trial {trial}: correction mismatch on qubit {q} for {syndrome}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn sticky_filter_suppresses_one_round_flip_in_hardware() {
        let code = SurfaceCode::new(5);
        let synth = synthesize_clique(&code, StabilizerType::X, 2);
        let nl = synth.netlist();
        let n = synth.num_ancillas();
        // Find an interior ancilla: lone lit interior ancilla => complex.
        let graph = code.detector_graph(StabilizerType::X);
        let interior = (0..n).find(|&a| graph.private_qubits(a).is_empty()).unwrap();
        let mut lit = vec![false; n];
        lit[interior] = true;
        let quiet = vec![false; n];
        let window = *nl.net_depths().iter().max().unwrap() + 4;

        // One-round flip: no COMPLEX pulse anywhere in the window.
        let mut st = NetlistState::new(nl);
        let mut saw_complex = false;
        st.step(nl, &quiet);
        st.step(nl, &lit);
        for _ in 0..window {
            let outs = st.step(nl, &quiet);
            saw_complex |= outs[synth.complex_output_index()];
        }
        assert!(!saw_complex, "single-round measurement flip must be filtered");

        // Two-round flip: the COMPLEX flag must fire.
        let mut st = NetlistState::new(nl);
        let mut saw_complex = false;
        st.step(nl, &quiet);
        st.step(nl, &lit);
        st.step(nl, &lit);
        for _ in 0..window {
            let outs = st.step(nl, &quiet);
            saw_complex |= outs[synth.complex_output_index()];
        }
        assert!(saw_complex, "two-round sticky flip must reach the complex flag");
    }

    #[test]
    fn gate_count_grows_quadratically_with_distance() {
        let jj3 =
            synthesize_clique(&SurfaceCode::new(3), StabilizerType::X, 2).netlist().jj_count();
        let jj9 =
            synthesize_clique(&SurfaceCode::new(9), StabilizerType::X, 2).netlist().jj_count();
        // Cliques scale with d^2; ratio (81-1)/(9-1) = 10x, modulo trees.
        let ratio = jj9 as f64 / jj3 as f64;
        assert!((5.0..25.0).contains(&ratio), "jj ratio {ratio}");
    }

    #[test]
    fn more_rounds_cost_more_hardware() {
        let code = SurfaceCode::new(5);
        let k2 = synthesize_clique(&code, StabilizerType::X, 2).netlist().jj_count();
        let k3 = synthesize_clique(&code, StabilizerType::X, 3).netlist().jj_count();
        assert!(k3 > k2, "additional measurement rounds add DFF/AND cost");
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn zero_rounds_rejected() {
        let _ = synthesize_clique(&SurfaceCode::new(3), StabilizerType::X, 0);
    }
}
