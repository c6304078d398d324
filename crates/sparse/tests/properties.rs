//! Property-based validation of the sparse matcher.
//!
//! The contract under test is *exactness*: the sparse region-growth
//! decoder commits to matchings of the same total space-time weight as
//! the exponential brute-force reference (small instances) and the
//! dense blossom decoder (realistic windows), boundary twins included.
//! Among those, it takes one with the most pairs: where pairing two
//! events ties with sending both to the boundary, they pair.

use btwc_lattice::{StabilizerType, SurfaceCode};
use btwc_mwpm::brute::brute_force_min_weight;
use btwc_mwpm::MwpmDecoder;
use btwc_sparse::SparseDecoder;
use btwc_syndrome::{DetectionEvent, RoundHistory};
use proptest::prelude::*;

/// Deduplicated, decode-order-normalized event set.
fn normalize(mut events: Vec<DetectionEvent>) -> Vec<DetectionEvent> {
    events.sort_unstable_by_key(|e| (e.round, e.ancilla));
    events.dedup();
    events
}

/// The ancillas within detector-graph distance 2 of `center` — a tight
/// neighborhood whose events are guaranteed to chain into one cluster
/// when they sit in nearby rounds.
fn neighborhood(code: &SurfaceCode, ty: StabilizerType, center: usize) -> Vec<usize> {
    let graph = code.detector_graph(ty);
    let mut ball: Vec<usize> = vec![center];
    for &n1 in graph.neighbors(center) {
        ball.push(n1 as usize);
        for &n2 in graph.neighbors(n1 as usize) {
            ball.push(n2 as usize);
        }
    }
    ball.sort_unstable();
    ball.dedup();
    ball
}

/// The exact optimum for an event set, via the brute-force matcher on
/// the dense event + boundary-twin construction (nodes `0..n` events,
/// `n..2n` twins; twin–twin edges free).
fn brute_optimum(code: &SurfaceCode, ty: StabilizerType, events: &[DetectionEvent]) -> i64 {
    let graph = code.detector_graph(ty);
    let n = events.len();
    let weight = |u: usize, v: usize| -> Option<i64> {
        match (u < n, v < n) {
            (true, true) => {
                let (a, b) = (&events[u], &events[v]);
                let spatial = graph.distance(a.ancilla, b.ancilla);
                Some(i64::from(spatial) + a.round.abs_diff(b.round) as i64)
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
    brute_force_min_weight(2 * n, weight).expect("twin construction always matches")
}

/// Every `(weight, pairs, logical class)` a matching of `events` can
/// reach: each event either exits through the boundary or pairs with a
/// later one, flipping the same shortest paths the decoder flips.
fn matching_outcomes(
    code: &SurfaceCode,
    ty: StabilizerType,
    events: &[DetectionEvent],
) -> Vec<(i64, usize, bool)> {
    struct Walk<'a> {
        code: &'a SurfaceCode,
        ty: StabilizerType,
        events: &'a [DetectionEvent],
        used: Vec<bool>,
        flips: Vec<bool>,
        out: Vec<(i64, usize, bool)>,
    }
    impl Walk<'_> {
        fn toggle(&mut self, path: &[usize]) {
            for &q in path {
                self.flips[q] ^= true;
            }
        }

        fn walk(&mut self, weight: i64, pairs: usize) {
            let graph = self.code.detector_graph(self.ty);
            let Some(i) = self.used.iter().position(|&u| !u) else {
                let class = self.code.is_logical_error(self.ty, &self.flips);
                self.out.push((weight, pairs, class));
                return;
            };
            let a = self.events[i];
            self.used[i] = true;
            let exit = graph.path_to_boundary(a.ancilla);
            self.toggle(&exit);
            self.walk(weight + i64::from(graph.boundary_distance(a.ancilla)), pairs);
            self.toggle(&exit);
            for j in i + 1..self.events.len() {
                if self.used[j] {
                    continue;
                }
                let b = self.events[j];
                let path = graph.path(a.ancilla, b.ancilla);
                let d = i64::from(graph.distance(a.ancilla, b.ancilla))
                    + a.round.abs_diff(b.round) as i64;
                self.used[j] = true;
                self.toggle(&path);
                self.walk(weight + d, pairs + 1);
                self.toggle(&path);
                self.used[j] = false;
            }
            self.used[i] = false;
        }
    }
    let mut walk = Walk {
        code,
        ty,
        events,
        used: vec![false; events.len()],
        flips: vec![false; code.num_data_qubits()],
        out: Vec::new(),
    };
    walk.walk(0, 0);
    walk.out
}

/// Deduplicated events drawn from an (ancilla, round) grid.
fn events_from_cells(
    code: &SurfaceCode,
    ty: StabilizerType,
    rounds: usize,
    cells: &[usize],
) -> Vec<DetectionEvent> {
    let n_anc = code.num_ancillas(ty);
    let mut events: Vec<DetectionEvent> = cells
        .iter()
        .map(|&c| {
            let c = c % (n_anc * rounds);
            DetectionEvent { ancilla: c % n_anc, round: c / n_anc }
        })
        .collect();
    events.sort_unstable_by_key(|e| (e.round, e.ancilla));
    events.dedup();
    events
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Sparse equals brute force on arbitrary small event sets — odd
    /// and even counts, forcing odd numbers of boundary exits.
    #[test]
    fn sparse_is_optimal_vs_brute(
        d in prop_oneof![Just(3u16), Just(5), Just(7)],
        cells in proptest::collection::vec(0usize..100_000, 0..9),
    ) {
        let code = SurfaceCode::new(d);
        let ty = StabilizerType::X;
        let events = events_from_cells(&code, ty, 6, &cells);
        let mut sparse = SparseDecoder::new(&code, ty);
        let (_, w) = sparse.decode_events_weighted(&events);
        prop_assert_eq!(w, brute_optimum(&code, ty, &events), "events {:?}", events);
    }

    /// Sparse equals the dense blossom on windows whose ancilla count
    /// straddles the 64-bit word boundary (d = 13 → 84 ancillas), on
    /// both stabilizer types.
    #[test]
    fn sparse_matches_dense_across_word_boundary(
        use_z in any::<bool>(),
        cells in proptest::collection::vec(0usize..1_000_000, 1..24),
    ) {
        let code = SurfaceCode::new(13);
        let ty = if use_z { StabilizerType::Z } else { StabilizerType::X };
        let events = events_from_cells(&code, ty, 10, &cells);
        let mut sparse = SparseDecoder::new(&code, ty);
        let mut dense = MwpmDecoder::new(&code, ty);
        let (_, w_sparse) = sparse.decode_events_weighted(&events);
        let (_, w_dense) = dense.decode_events_weighted(&events);
        prop_assert_eq!(w_sparse, w_dense, "events {:?}", events);
    }

    /// The sparse corrections cancel the syndrome of any accumulated
    /// data-error pattern observed over a closed window (the same
    /// contract the dense decoder's suite pins).
    #[test]
    fn corrections_cancel_arbitrary_patterns(
        d in prop_oneof![Just(3u16), Just(5), Just(7)],
        flips in proptest::collection::vec(0usize..49, 0..10),
    ) {
        let code = SurfaceCode::new(d);
        let n = code.num_data_qubits();
        let mut decoder = SparseDecoder::new(&code, StabilizerType::X);
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

    /// Odd clusters of 5–7 events packed into one tight neighborhood:
    /// the regime where the in-solver blossom must form and shrink odd
    /// cycles (an odd event count forces at least one boundary exit, and
    /// the mutual collisions create odd alternating cycles). Exhaustive
    /// enumeration over the boundary-twin construction is the oracle.
    #[test]
    fn odd_clusters_force_blossoms_and_stay_optimal(
        d in prop_oneof![Just(7u16), Just(13)],
        center in 0usize..1_000,
        picks in proptest::collection::vec((0usize..64, 0usize..3), 5..8),
    ) {
        let code = SurfaceCode::new(d);
        let ty = StabilizerType::X;
        let graph = code.detector_graph(ty);
        let ball = neighborhood(&code, ty, center % graph.num_nodes());
        let events = normalize(
            picks
                .iter()
                .map(|&(i, t)| DetectionEvent { ancilla: ball[i % ball.len()], round: t })
                .collect(),
        );
        let mut sparse = SparseDecoder::new(&code, ty);
        let (c, w) = sparse.decode_events_weighted(&events);
        prop_assert_eq!(w, brute_optimum(&code, ty, &events), "events {:?}", events);
        // The correction must cancel exactly the even-parity part of the
        // event set per ancilla column (weight optimality is the deep
        // contract; this guards the projection).
        let syndrome_flips = c.qubits().len();
        prop_assert!(syndrome_flips <= events.len() * usize::from(d), "runaway correction");
    }

    /// Boundary twins: events pinned near the open boundary must decode
    /// to exits whose weight the brute construction confirms (the exit
    /// cost is the ancilla's boundary distance, twins pair freely).
    #[test]
    fn boundary_heavy_sets_stay_optimal(
        d in prop_oneof![Just(5u16), Just(7)],
        picks in proptest::collection::vec((0usize..64, 0usize..4), 1..7),
    ) {
        let code = SurfaceCode::new(d);
        let ty = StabilizerType::X;
        let graph = code.detector_graph(ty);
        let near: Vec<usize> =
            (0..graph.num_nodes()).filter(|&a| graph.boundary_distance(a) == 1).collect();
        let mut events: Vec<DetectionEvent> = picks
            .iter()
            .map(|&(i, t)| DetectionEvent { ancilla: near[i % near.len()], round: t })
            .collect();
        events.sort_unstable_by_key(|e| (e.round, e.ancilla));
        events.dedup();
        let mut sparse = SparseDecoder::new(&code, ty);
        let (_, w) = sparse.decode_events_weighted(&events);
        prop_assert_eq!(w, brute_optimum(&code, ty, &events), "events {:?}", events);
        // Every event is one step from the boundary, so the optimum can
        // never exceed all-exits.
        prop_assert!(w <= events.len() as i64);
    }

    /// Ties pair: the decoder's correction is in the logical class of a
    /// minimum-weight matching with the most pairs any minimum-weight
    /// matching has. Events sit within two rounds near the boundary,
    /// where pairing and two exits often weigh the same and the two
    /// choices are often a logical operator apart.
    #[test]
    fn ties_pair_into_the_logical_class_of_a_most_paired_optimum(
        d in prop_oneof![Just(3u16), Just(5)],
        cells in proptest::collection::vec(0usize..100_000, 2..8),
    ) {
        let code = SurfaceCode::new(d);
        let ty = StabilizerType::X;
        let events = events_from_cells(&code, ty, 3, &cells);
        let mut sparse = SparseDecoder::new(&code, ty);
        let (c, w) = sparse.decode_events_weighted(&events);
        let mut flips = vec![false; code.num_data_qubits()];
        c.apply_to(&mut flips);
        let class = code.is_logical_error(ty, &flips);
        let outcomes = matching_outcomes(&code, ty, &events);
        let best = outcomes.iter().map(|o| o.0).min().expect("at least one matching");
        prop_assert_eq!(w, best, "events {:?}", events);
        let most = outcomes.iter().filter(|o| o.0 == best).map(|o| o.1).max().unwrap();
        prop_assert!(
            outcomes.contains(&(best, most, class)),
            "events {:?}: class {} is not that of a {}-pair optimum", events, class, most
        );
    }
}

/// Deterministic blossom-forcing constructions: the named shapes the
/// chained-cluster issue calls out, each cross-checked against the
/// exhaustive matcher (and the dense decoder where the set fits a
/// realistic window).
mod forced_blossoms {
    use super::*;

    /// Five events stacked on one ancilla in consecutive rounds: a pure
    /// time-like chain with an odd count, so two zero-ancilla-distance
    /// pairs match and one event must exit through the boundary.
    #[test]
    fn time_like_chain_of_five() {
        let code = SurfaceCode::new(9);
        let ty = StabilizerType::X;
        let graph = code.detector_graph(ty);
        let a = (0..graph.num_nodes()).max_by_key(|&a| graph.boundary_distance(a)).unwrap();
        let events: Vec<DetectionEvent> =
            (0..5).map(|t| DetectionEvent { ancilla: a, round: t }).collect();
        let mut sparse = SparseDecoder::new(&code, ty);
        let (_, w) = sparse.decode_events_weighted(&events);
        assert_eq!(w, brute_optimum(&code, ty, &events));
        // Two unit time-like pairs plus one boundary exit.
        assert_eq!(w, 2 + i64::from(graph.boundary_distance(a)));
    }

    /// Seven events hugging the open boundary: every exit is cheap, so
    /// the optimum mixes direct pairs with boundary exits — the solver
    /// has to leave the right events unmatched.
    #[test]
    fn boundary_twin_heavy_cluster_of_seven() {
        let code = SurfaceCode::new(13);
        let ty = StabilizerType::X;
        let graph = code.detector_graph(ty);
        let near: Vec<usize> =
            (0..graph.num_nodes()).filter(|&a| graph.boundary_distance(a) == 1).collect();
        assert!(near.len() >= 4);
        let mut events = Vec::new();
        for (i, &a) in near.iter().take(4).enumerate() {
            events.push(DetectionEvent { ancilla: a, round: i % 2 });
        }
        for &a in near.iter().take(3) {
            events.push(DetectionEvent { ancilla: a, round: 2 });
        }
        let events = normalize(events);
        assert_eq!(events.len(), 7);
        let mut sparse = SparseDecoder::new(&code, ty);
        let (_, w) = sparse.decode_events_weighted(&events);
        assert_eq!(w, brute_optimum(&code, ty, &events));
        assert!(w <= 7, "boundary-hugging events never pay more than all-exits");
    }

    /// A 7-event chained cluster on ancillas past the first 64-bit word
    /// at d = 13 (84 X ancillas): cross-word positions must behave
    /// identically, pinned against both oracles.
    #[test]
    fn cross_word_chained_cluster_of_seven() {
        let code = SurfaceCode::new(13);
        let ty = StabilizerType::X;
        let graph = code.detector_graph(ty);
        assert!(graph.num_nodes() > 64, "d=13 must cross the word boundary");
        // A tight neighborhood around a high-index ancilla: positions
        // past (or straddling) the first 64-bit word, every pair within
        // collision range.
        let ball = neighborhood(&code, ty, 70);
        let chain: Vec<usize> = ball.iter().copied().take(4).collect();
        assert_eq!(chain.len(), 4);
        let mut events = Vec::new();
        for (i, &a) in chain.iter().enumerate() {
            events.push(DetectionEvent { ancilla: a, round: i / 2 });
        }
        for &a in chain.iter().take(3) {
            events.push(DetectionEvent { ancilla: a, round: 3 });
        }
        let events = normalize(events);
        assert_eq!(events.len(), 7);
        assert!(events.iter().any(|e| e.ancilla >= 64), "cluster must reach past word 0");
        let mut sparse = SparseDecoder::new(&code, ty);
        let mut dense = MwpmDecoder::new(&code, ty);
        let (_, w_sparse) = sparse.decode_events_weighted(&events);
        let (_, w_dense) = dense.decode_events_weighted(&events);
        assert_eq!(w_sparse, brute_optimum(&code, ty, &events));
        assert_eq!(w_sparse, w_dense);
    }

    /// An odd ring of five mutually chained bulk events in one round:
    /// odd alternating cycles are unavoidable, so the solver must form
    /// and shrink at least one blossom to reach the optimum.
    #[test]
    fn five_event_ring_in_the_bulk() {
        let code = SurfaceCode::new(13);
        let ty = StabilizerType::X;
        let graph = code.detector_graph(ty);
        let center = (0..graph.num_nodes()).max_by_key(|&a| graph.boundary_distance(a)).unwrap();
        let ball = neighborhood(&code, ty, center);
        assert!(ball.len() >= 5, "bulk neighborhood too small: {ball:?}");
        let events = normalize(
            ball.iter().take(5).map(|&a| DetectionEvent { ancilla: a, round: 1 }).collect(),
        );
        assert_eq!(events.len(), 5);
        let mut sparse = SparseDecoder::new(&code, ty);
        let mut dense = MwpmDecoder::new(&code, ty);
        let (_, w_sparse) = sparse.decode_events_weighted(&events);
        let (_, w_dense) = dense.decode_events_weighted(&events);
        assert_eq!(w_sparse, brute_optimum(&code, ty, &events));
        assert_eq!(w_sparse, w_dense);
    }
}
