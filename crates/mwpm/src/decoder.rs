//! Space-time MWPM decoding of detection-event windows.

use btwc_lattice::{DetectorGraph, StabilizerType, SurfaceCode};
use btwc_syndrome::{ComplexDecoder, Correction, DetectionEvent, RoundHistory};

use crate::blossom::{minimum_weight_perfect_matching_with, MatchingScratch};
use crate::project::project_pairs;

/// The heavyweight off-chip decoder: exact minimum-weight perfect
/// matching over space-time detection events.
///
/// Construction (standard Dennis-et-al. decoding graph):
///
/// * one node per detection event `(ancilla, round)`;
/// * real–real edge weight = detector-graph distance + round separation
///   (unit weights per elementary fault, which is exact for the paper's
///   phenomenological model where data and measurement errors share the
///   same rate `p`);
/// * one *virtual boundary twin* per event, connected only to its own
///   event at that event's boundary distance; twins are pairwise free,
///   which lets any subset of events exit through the boundary while the
///   matching stays perfect.
///
/// Matched pairs are projected back onto data qubits: space-like pairs
/// flip the qubits along a shortest detector-graph path, time-like pairs
/// (measurement errors) flip nothing, boundary pairs flip a shortest
/// path out of the lattice.
#[derive(Debug)]
pub struct MwpmDecoder {
    ty: StabilizerType,
    graph: DetectorGraph,
    /// Reusable decode state (the event buffer and the blossom
    /// solver's dense tables), so the dominant per-decode costs
    /// allocate nothing once warmed up; only the returned
    /// `Correction`'s own storage (and the small `Matching`) is
    /// allocated per call. Every decode takes `&mut self`, so it is a
    /// plain field.
    scratch: DecodeScratch,
}

#[derive(Debug, Default)]
struct DecodeScratch {
    matching: MatchingScratch,
    events: Vec<DetectionEvent>,
}

impl Clone for MwpmDecoder {
    fn clone(&self) -> Self {
        Self { ty: self.ty, graph: self.graph.clone(), scratch: DecodeScratch::default() }
    }
}

impl MwpmDecoder {
    /// Builds the decoder for stabilizer type `ty` of `code`.
    #[must_use]
    pub fn new(code: &SurfaceCode, ty: StabilizerType) -> Self {
        Self { ty, graph: code.detector_graph(ty).clone(), scratch: DecodeScratch::default() }
    }

    /// The stabilizer type this decoder serves.
    #[must_use]
    pub fn stabilizer_type(&self) -> StabilizerType {
        self.ty
    }

    /// Decodes an explicit set of detection events into a correction.
    ///
    /// # Panics
    ///
    /// Panics if any event references an out-of-range ancilla.
    #[must_use]
    pub fn decode_events_mut(&mut self, events: &[DetectionEvent]) -> Correction {
        self.decode_events_weighted(events).0
    }

    /// [`MwpmDecoder::decode_events_mut`] also reporting the total
    /// space-time weight of the matching it committed to — the quantity
    /// the sparse decoder's exactness is validated against.
    ///
    /// # Panics
    ///
    /// Panics if any event references an out-of-range ancilla.
    #[must_use]
    pub fn decode_events_weighted(&mut self, events: &[DetectionEvent]) -> (Correction, i64) {
        Self::decode_events_with(&self.graph, events, &mut self.scratch.matching)
    }

    /// The decode kernel, reusing caller-provided scratch: the
    /// complemented event-weight matrix and the blossom solver's dense
    /// work arrays — the O(n²) per-decode costs — persist across calls
    /// (regrown monotonically, reset in place). The flip list is a
    /// plain local: its storage leaves in the returned `Correction`
    /// anyway, so caching it would buy nothing.
    fn decode_events_with(
        graph: &DetectorGraph,
        events: &[DetectionEvent],
        matching_scratch: &mut MatchingScratch,
    ) -> (Correction, i64) {
        let n = events.len();
        if n == 0 {
            return (Correction::new(), 0);
        }
        for ev in events {
            assert!(ev.ancilla < graph.num_nodes(), "event ancilla {} out of range", ev.ancilla);
        }
        // Nodes 0..n are events, n..2n their boundary twins. The
        // detector-graph distances behind `weight` are precomputed by
        // the lattice, so each query is an O(1) lookup.
        let weight = |u: usize, v: usize| -> Option<i64> {
            match (u < n, v < n) {
                (true, true) => {
                    let (a, b) = (&events[u], &events[v]);
                    let spatial = graph.distance(a.ancilla, b.ancilla);
                    let temporal = a.round.abs_diff(b.round);
                    Some(i64::from(spatial) + temporal as i64)
                }
                (true, false) => {
                    (v - n == u).then(|| i64::from(graph.boundary_distance(events[u].ancilla)))
                }
                (false, true) => {
                    (u - n == v).then(|| i64::from(graph.boundary_distance(events[v].ancilla)))
                }
                (false, false) => Some(0),
            }
        };
        let matching = minimum_weight_perfect_matching_with(matching_scratch, 2 * n, weight)
            .expect("event graph with boundary twins always has a perfect matching");
        let mut flips = Vec::new();
        project_pairs(graph, events, matching.pairs(), &mut flips);
        (Correction::from_flips(flips), matching.total_weight())
    }

    /// Decodes a whole window of measurement rounds (the off-chip path
    /// of the paper's Fig. 2: raw syndromes are shipped out and matched
    /// in space-time). The detection-event diff lands in a reused
    /// buffer — no per-decode allocation — and windows with no events
    /// at all are dismissed by the window's O(1) event counter.
    #[must_use]
    pub fn decode_window_mut(&mut self, history: &RoundHistory) -> Correction {
        self.decode_window_weighted(history).0
    }

    /// [`MwpmDecoder::decode_window_mut`] also reporting the committed
    /// matching's total space-time weight.
    #[must_use]
    pub fn decode_window_weighted(&mut self, history: &RoundHistory) -> (Correction, i64) {
        if history.detection_event_count() == 0 {
            return (Correction::new(), 0);
        }
        let DecodeScratch { matching, events } = &mut self.scratch;
        history.detection_events_into(events);
        Self::decode_events_with(&self.graph, events, matching)
    }
}

impl ComplexDecoder for MwpmDecoder {
    fn decode_window_mut(&mut self, window: &RoundHistory) -> Correction {
        MwpmDecoder::decode_window_mut(self, window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btwc_lattice::DataQubit;
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
    fn empty_window_decodes_to_nothing() {
        let code = SurfaceCode::new(5);
        let mut decoder = MwpmDecoder::new(&code, StabilizerType::X);
        let errors = vec![false; code.num_data_qubits()];
        let c = decoder.decode_window_mut(&window_for(&code, &errors, 3));
        assert!(c.is_empty());
    }

    #[test]
    fn single_interior_error_is_exactly_corrected() {
        let code = SurfaceCode::new(5);
        let mut decoder = MwpmDecoder::new(&code, StabilizerType::X);
        let q = DataQubit::new(2, 2).index(5);
        let mut errors = vec![false; code.num_data_qubits()];
        errors[q] = true;
        let c = decoder.decode_window_mut(&window_for(&code, &errors, 2));
        assert_eq!(c.qubits(), &[q]);
    }

    #[test]
    fn every_single_error_is_corrected_equivalently() {
        for d in [3u16, 5, 7] {
            let code = SurfaceCode::new(d);
            let mut decoder = MwpmDecoder::new(&code, StabilizerType::X);
            for q in 0..code.num_data_qubits() {
                let mut errors = vec![false; code.num_data_qubits()];
                errors[q] = true;
                let c = decoder.decode_window_mut(&window_for(&code, &errors, 2));
                let mut residual = errors.clone();
                c.apply_to(&mut residual);
                assert!(
                    code.syndrome_of(StabilizerType::X, &residual).iter().all(|&s| !s),
                    "d={d} q={q}: residual syndrome"
                );
                assert!(
                    !code.is_logical_error(StabilizerType::X, &residual),
                    "d={d} q={q}: logical error introduced"
                );
            }
        }
    }

    #[test]
    fn chain_of_errors_is_corrected_equivalently() {
        // The Fig. 8c scenario Clique must hand off — MWPM resolves it.
        let code = SurfaceCode::new(9);
        let mut decoder = MwpmDecoder::new(&code, StabilizerType::X);
        let mut errors = vec![false; code.num_data_qubits()];
        for row in 2..6u16 {
            errors[DataQubit::new(row, 4).index(9)] = true;
        }
        let c = decoder.decode_window_mut(&window_for(&code, &errors, 2));
        let mut residual = errors.clone();
        c.apply_to(&mut residual);
        assert!(code.syndrome_of(StabilizerType::X, &residual).iter().all(|&s| !s));
        assert!(!code.is_logical_error(StabilizerType::X, &residual));
    }

    #[test]
    fn measurement_error_produces_no_correction() {
        // Fig. 8d: a transient flip makes a time-like event pair, which
        // projects to no data correction at all.
        let code = SurfaceCode::new(5);
        let mut decoder = MwpmDecoder::new(&code, StabilizerType::X);
        let n_anc = code.num_ancillas(StabilizerType::X);
        let mut h = RoundHistory::new(n_anc, 8);
        let quiet = vec![false; n_anc];
        let mut flipped = quiet.clone();
        flipped[2] = true;
        h.push(&quiet);
        h.push(&flipped); // transient flip...
        h.push(&quiet); // ...and back
        let c = decoder.decode_window_mut(&h);
        assert!(c.is_empty(), "time-like pair must not touch data qubits");
    }

    #[test]
    fn below_half_distance_errors_never_cause_logical_failure() {
        // MWPM's defining guarantee with perfect measurements: any error
        // of weight <= (d-1)/2 is corrected up to stabilizers.
        for d in [3u16, 5, 7] {
            let code = SurfaceCode::new(d);
            let mut decoder = MwpmDecoder::new(&code, StabilizerType::X);
            let t = usize::from((d - 1) / 2);
            let mut rng = SimRng::from_seed(0xFEED + u64::from(d));
            for _ in 0..400 {
                let mut errors = vec![false; code.num_data_qubits()];
                for _ in 0..t {
                    let q = rng.below(code.num_data_qubits());
                    errors[q] = true; // duplicates allowed; weight <= t
                }
                let c = decoder.decode_window_mut(&window_for(&code, &errors, 2));
                let mut residual = errors.clone();
                c.apply_to(&mut residual);
                assert!(
                    code.syndrome_of(StabilizerType::X, &residual).iter().all(|&s| !s),
                    "d={d}: residual syndrome for {errors:?}"
                );
                assert!(
                    !code.is_logical_error(StabilizerType::X, &residual),
                    "d={d}: weight<=t error mis-decoded: {errors:?}"
                );
            }
        }
    }

    // The name predates the removal of the locked `&self` entry points;
    // the test pins that a reused `&mut` decoder's window, event and
    // weighted paths agree.
    #[test]
    fn mut_path_matches_locked_path() {
        let code = SurfaceCode::new(7);
        let mut decoder = MwpmDecoder::new(&code, StabilizerType::X);
        let mut rng = SimRng::from_seed(0xBEEF);
        for _ in 0..50 {
            let mut errors = vec![false; code.num_data_qubits()];
            for _ in 0..4 {
                errors[rng.below(code.num_data_qubits())] ^= true;
            }
            let window = window_for(&code, &errors, 3);
            let (c, w) = decoder.decode_window_weighted(&window);
            assert_eq!(c, decoder.decode_window_mut(&window));
            let events = window.detection_events();
            assert_eq!(c, decoder.decode_events_mut(&events));
            assert_eq!((c, w), decoder.decode_events_weighted(&events));
            assert!(w >= 0);
        }
    }

    #[test]
    fn noisy_rounds_with_final_perfect_round_clear_the_syndrome() {
        // Shot protocol: T noisy rounds + one perfect round; after the
        // decode, the accumulated error plus correction must commute with
        // every stabilizer (zero residual syndrome).
        let d = 7u16;
        let code = SurfaceCode::new(d);
        let ty = StabilizerType::X;
        let mut decoder = MwpmDecoder::new(&code, ty);
        let noise = PhenomenologicalNoise::uniform(0.01);
        let mut rng = SimRng::from_seed(0xABCD);
        let n_anc = code.num_ancillas(ty);
        for _ in 0..100 {
            let mut errors = vec![false; code.num_data_qubits()];
            let mut meas = vec![false; n_anc];
            let mut h = RoundHistory::new(n_anc, usize::from(d) + 1);
            for _ in 0..usize::from(d) {
                noise.sample_data_into(&mut rng, &mut errors);
                noise.sample_measurement_into(&mut rng, &mut meas);
                let mut round = code.syndrome_of(ty, &errors);
                for (r, &m) in round.iter_mut().zip(&meas) {
                    *r ^= m;
                }
                h.push(&round);
            }
            // Final perfect round.
            h.push(&code.syndrome_of(ty, &errors));
            let c = decoder.decode_window_mut(&h);
            let mut residual = errors.clone();
            c.apply_to(&mut residual);
            assert!(
                code.syndrome_of(ty, &residual).iter().all(|&s| !s),
                "decode must explain the final-round syndrome"
            );
        }
    }
}
