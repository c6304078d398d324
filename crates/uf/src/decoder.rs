//! Cluster growth and peeling.

use btwc_lattice::{DetectorGraph, StabilizerType, SurfaceCode};
use btwc_syndrome::ComplexDecoder;
use btwc_syndrome::{Correction, DetectionEvent, RoundHistory};

use crate::dsu::ClusterSet;
use crate::graph::SpaceTimeGraph;

/// The Union-Find decoder for one stabilizer type of one code.
///
/// Drop-in alternative to the exact MWPM matcher: almost-linear-time
/// decoding at a small accuracy cost, the natural middle tier of the
/// paper's proposed decoder hierarchy (Sec. 8.1). Implements
/// [`btwc_syndrome::ComplexDecoder`]; `BtwcDecoder::builder(...)
/// .backend(DecoderBackend::UnionFind)` puts it behind Clique.
#[derive(Debug, Clone)]
pub struct UnionFindDecoder {
    ty: StabilizerType,
    graph: DetectorGraph,
}

impl UnionFindDecoder {
    /// Builds the decoder for stabilizer type `ty` of `code`.
    #[must_use]
    pub fn new(code: &SurfaceCode, ty: StabilizerType) -> Self {
        Self { ty, graph: code.detector_graph(ty).clone() }
    }

    /// The stabilizer type served.
    #[must_use]
    pub fn stabilizer_type(&self) -> StabilizerType {
        self.ty
    }

    /// Decodes detection events observed over a `rounds`-round window.
    ///
    /// # Panics
    ///
    /// Panics if any event lies outside the window or references an
    /// unknown ancilla.
    #[must_use]
    pub fn decode_events(&self, events: &[DetectionEvent], rounds: usize) -> Correction {
        if events.is_empty() {
            return Correction::new();
        }
        let st = SpaceTimeGraph::new(&self.graph, rounds.max(1));
        let boundary = st.boundary();
        let mut clusters = ClusterSet::new(st.num_vertices());
        let mut is_defect = vec![false; st.num_vertices()];
        for ev in events {
            let v = st.vertex(ev.ancilla, ev.round);
            is_defect[v] = true;
            clusters.add_defect(v);
        }

        // --- Growth ---------------------------------------------------
        // support[e] in {0, 1, 2}; an edge joins the erasure at 2.
        let mut support = vec![0u8; st.edges().len()];
        loop {
            // An endpoint grows its edges iff its cluster is unsatisfied.
            let mut grew = false;
            let mut to_merge = Vec::new();
            for (ei, edge) in st.edges().iter().enumerate() {
                if support[ei] >= 2 {
                    continue;
                }
                let mut inc = 0u8;
                for v in [edge.u, edge.v] {
                    if v != boundary && !clusters.is_satisfied(v) {
                        inc += 1;
                    }
                }
                if inc == 0 {
                    continue;
                }
                grew = true;
                support[ei] = (support[ei] + inc).min(2);
                if support[ei] >= 2 {
                    to_merge.push(ei);
                }
            }
            for ei in to_merge {
                let edge = st.edges()[ei];
                if edge.v == boundary {
                    clusters.touch_boundary(edge.u);
                } else if edge.u == boundary {
                    clusters.touch_boundary(edge.v);
                } else {
                    clusters.union(edge.u, edge.v);
                }
            }
            if !grew {
                break;
            }
            // Terminate once every defect's cluster is satisfied.
            let all_done = events.iter().all(|ev| {
                let v = st.vertex(ev.ancilla, ev.round);
                clusters.is_satisfied(v)
            });
            if all_done {
                break;
            }
        }

        // --- Peeling ----------------------------------------------------
        // Spanning forest over the erasure (support == 2), rooted at the
        // boundary first so boundary-connected clusters drain into it.
        let n_v = st.num_vertices();
        let mut visited = vec![false; n_v];
        let mut parent_edge: Vec<Option<usize>> = vec![None; n_v];
        let mut order = Vec::new();
        let mut queue = std::collections::VecDeque::new();
        let mut seeds: Vec<usize> = Vec::with_capacity(n_v);
        seeds.push(boundary);
        seeds.extend(0..n_v - 1);
        for seed in seeds {
            if visited[seed] {
                continue;
            }
            visited[seed] = true;
            queue.push_back(seed);
            while let Some(v) = queue.pop_front() {
                order.push(v);
                for &ei in st.incident(v) {
                    if support[ei] < 2 {
                        continue;
                    }
                    let edge = st.edges()[ei];
                    let w = if edge.u == v { edge.v } else { edge.u };
                    if !visited[w] {
                        visited[w] = true;
                        parent_edge[w] = Some(ei);
                        queue.push_back(w);
                    }
                }
            }
        }
        // Peel leaves inward (reverse BFS order).
        let mut flips = Vec::new();
        for &v in order.iter().rev() {
            if !is_defect[v] {
                continue;
            }
            let Some(ei) = parent_edge[v] else {
                // Root of a tree: parity must already be even here.
                debug_assert!(false, "unresolved defect at a forest root — growth incomplete");
                continue;
            };
            let edge = st.edges()[ei];
            let parent = if edge.u == v { edge.v } else { edge.u };
            if let Some(q) = edge.qubit {
                flips.push(q);
            }
            is_defect[v] = false;
            if parent != boundary {
                is_defect[parent] ^= true;
            }
        }
        Correction::from_flips(flips)
    }

    /// Decodes a window of raw measurement rounds.
    #[must_use]
    pub fn decode_window(&self, window: &RoundHistory) -> Correction {
        self.decode_events(&window.detection_events(), window.len())
    }
}

impl ComplexDecoder for UnionFindDecoder {
    fn decode_window_mut(&mut self, window: &RoundHistory) -> Correction {
        UnionFindDecoder::decode_window(self, window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btwc_noise::{PhenomenologicalNoise, SimRng};

    fn window_for(code: &SurfaceCode, errors: &[bool], rounds: usize) -> RoundHistory {
        let round = code.syndrome_of(StabilizerType::X, errors);
        let mut h = RoundHistory::new(round.len(), rounds.max(2));
        for _ in 0..rounds {
            h.push(&round);
        }
        h
    }

    #[test]
    fn empty_window_is_a_noop() {
        let code = SurfaceCode::new(5);
        let dec = UnionFindDecoder::new(&code, StabilizerType::X);
        let errors = vec![false; code.num_data_qubits()];
        assert!(dec.decode_window(&window_for(&code, &errors, 2)).is_empty());
    }

    #[test]
    fn every_single_error_is_corrected_equivalently() {
        for d in [3u16, 5, 7] {
            let code = SurfaceCode::new(d);
            let dec = UnionFindDecoder::new(&code, StabilizerType::X);
            for q in 0..code.num_data_qubits() {
                let mut errors = vec![false; code.num_data_qubits()];
                errors[q] = true;
                let c = dec.decode_window(&window_for(&code, &errors, 2));
                let mut residual = errors.clone();
                c.apply_to(&mut residual);
                assert!(
                    code.syndrome_of(StabilizerType::X, &residual).iter().all(|&s| !s),
                    "d={d} q={q}: residual syndrome"
                );
                assert!(
                    !code.is_logical_error(StabilizerType::X, &residual),
                    "d={d} q={q}: logical injected"
                );
            }
        }
    }

    #[test]
    fn measurement_error_produces_no_data_correction() {
        let code = SurfaceCode::new(5);
        let dec = UnionFindDecoder::new(&code, StabilizerType::X);
        let n_anc = code.num_ancillas(StabilizerType::X);
        let mut h = RoundHistory::new(n_anc, 8);
        let quiet = vec![false; n_anc];
        let mut flipped = quiet.clone();
        // Use an interior ancilla: its time-like pair should cost less
        // than two boundary exits.
        let g = code.detector_graph(StabilizerType::X);
        let interior = (0..n_anc).find(|&a| g.private_qubits(a).is_empty()).unwrap();
        flipped[interior] = true;
        h.push(&quiet);
        h.push(&flipped);
        h.push(&quiet);
        assert!(dec.decode_window(&h).is_empty());
    }

    #[test]
    fn chain_is_resolved_without_residual_syndrome() {
        let code = SurfaceCode::new(9);
        let dec = UnionFindDecoder::new(&code, StabilizerType::X);
        let mut errors = vec![false; code.num_data_qubits()];
        for row in 2..6u16 {
            errors[usize::from(row) * 9 + 4] = true;
        }
        let c = dec.decode_window(&window_for(&code, &errors, 2));
        let mut residual = errors.clone();
        c.apply_to(&mut residual);
        assert!(code.syndrome_of(StabilizerType::X, &residual).iter().all(|&s| !s));
    }

    #[test]
    fn corrections_always_cancel_the_syndrome_under_noise() {
        // The decoder's structural guarantee: whatever it returns must
        // explain the detection events (zero residual syndrome after a
        // closed window).
        let code = SurfaceCode::new(7);
        let ty = StabilizerType::X;
        let dec = UnionFindDecoder::new(&code, ty);
        let noise = PhenomenologicalNoise::uniform(1e-2);
        let mut rng = SimRng::from_seed(0xDF);
        let n_anc = code.num_ancillas(ty);
        for _ in 0..150 {
            let mut errors = vec![false; code.num_data_qubits()];
            let mut meas = vec![false; n_anc];
            let mut h = RoundHistory::new(n_anc, 8);
            for _ in 0..7 {
                noise.sample_data_into(&mut rng, &mut errors);
                noise.sample_measurement_into(&mut rng, &mut meas);
                let mut round = code.syndrome_of(ty, &errors);
                for (r, &m) in round.iter_mut().zip(&meas) {
                    *r ^= m;
                }
                h.push(&round);
            }
            h.push(&code.syndrome_of(ty, &errors)); // perfect readout
            let c = dec.decode_window(&h);
            let mut residual = errors.clone();
            c.apply_to(&mut residual);
            assert!(
                code.syndrome_of(ty, &residual).iter().all(|&s| !s),
                "residual syndrome after UF decode"
            );
        }
    }

    #[test]
    fn low_weight_errors_never_cause_logical_failure() {
        // Delfosse–Nickerson guarantee: weight <= (d-1)/2 is corrected.
        for d in [3u16, 5, 7] {
            let code = SurfaceCode::new(d);
            let dec = UnionFindDecoder::new(&code, StabilizerType::X);
            let t = usize::from((d - 1) / 2);
            let mut rng = SimRng::from_seed(0xFACE + u64::from(d));
            for _ in 0..300 {
                let mut errors = vec![false; code.num_data_qubits()];
                for _ in 0..t {
                    errors[rng.below(code.num_data_qubits())] = true;
                }
                let c = dec.decode_window(&window_for(&code, &errors, 2));
                let mut residual = errors.clone();
                c.apply_to(&mut residual);
                assert!(code.syndrome_of(StabilizerType::X, &residual).iter().all(|&s| !s));
                assert!(
                    !code.is_logical_error(StabilizerType::X, &residual),
                    "d={d}: low-weight error mis-decoded: {errors:?}"
                );
            }
        }
    }

    #[test]
    fn plugs_into_the_btwc_pipeline() {
        use btwc_core::{BtwcDecoder, BtwcOutcome, DecoderBackend};
        let code = SurfaceCode::new(7);
        let mut dec = BtwcDecoder::builder(&code, StabilizerType::X)
            .backend(DecoderBackend::UnionFind)
            .build();
        let mut errors = vec![false; code.num_data_qubits()];
        errors[3 * 7 + 3] = true;
        errors[4 * 7 + 3] = true; // interior chain -> complex
        let round = code.syndrome_of(StabilizerType::X, &errors);
        let _ = dec.process_round(&round);
        let out = dec.process_round(&round);
        assert!(matches!(out, BtwcOutcome::OffChip(_)));
        let c = out.correction().unwrap();
        let mut residual = errors.clone();
        c.apply_to(&mut residual);
        assert!(code.syndrome_of(StabilizerType::X, &residual).iter().all(|&s| !s));
    }
}
