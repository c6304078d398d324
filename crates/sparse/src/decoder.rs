//! The sparse space-time decoder: cluster formation + exact per-cluster
//! matching, entirely on the sparse graph.

use btwc_lattice::{DetectorGraph, StabilizerType, SurfaceCode};
use btwc_syndrome::{ComplexDecoder, Correction, DetectionEvent, RoundHistory};
use btwc_telemetry::{Counter, Domain, Histogram, MetricsRegistry};

use crate::blossom::ClusterEdge;
use crate::regions::merge_colliding_regions;
use crate::scratch::{ClusterScratch, SparseScratch};

/// Sparse-blossom off-chip decoder: minimum-weight perfect matching of
/// space-time detection events without ever materializing the dense
/// all-pairs event-weight matrix.
///
/// The decode is a two-phase sparse computation over the detector
/// graph:
///
/// 1. **Region collision** (see `crate::regions`): every event owns a
///    region of the space-time graph whose radius is capped at its own
///    boundary distance (the boundary is always there as an exit at
///    that price). Colliding regions merge into clusters; any matching
///    edge that could ever beat two boundary exits is provably
///    intra-cluster. Collisions are detected in round order with the
///    lattice's O(1) precomputed distances, so discovery is
///    output-sensitive instead of all-pairs-matrix-shaped.
/// 2. **Per-cluster exact solve**: singletons exit through the boundary
///    (weight = boundary distance), pairs take the cheaper of the direct
///    edge and two exits, and larger clusters run the in-crate sparse
///    blossom ([`crate::blossom`]) on the cluster's *gain graph*: one
///    vertex per event, one edge per collision weighted by what the
///    pairing saves over two boundary exits. A maximum-weight matching
///    of it pairs the events worth pairing and leaves the rest to exit
///    — alternating trees with blossom shrinking directly on the sparse
///    graph, never a dense all-pairs table and never a boundary-twin
///    vertex.
///
/// The total matching weight therefore *equals* the dense
/// `btwc_mwpm::MwpmDecoder`'s on every input — this is a faster exact
/// decoder, not an approximation (the property suite cross-checks both
/// against the exponential reference matcher). What changes is the
/// cost model: the dense path pays O(n²) matrix fill + O(n³) blossom
/// over *all* events per decode, while this path pays a pruned
/// collision scan plus per-cluster matchings sized by how entangled the
/// events actually are — near-linear in the event count for the sparse
/// windows the BTWC hierarchy actually ships off-chip.
///
/// Every window is decoded from scratch (see the crate docs for why),
/// one cluster after another in cluster order.
#[derive(Debug)]
pub struct SparseDecoder {
    ty: StabilizerType,
    graph: DetectorGraph,
    /// Reusable decode state: every decode takes `&mut self`, so it is
    /// a plain field.
    scratch: SparseScratch,
    /// Optional metric handles (see [`SparseDecoder::attach_telemetry`]).
    telemetry: Option<SparseTelemetry>,
}

/// Cycle-domain metric handles for the sparse decode. Every update is
/// driven by deterministic per-cluster decisions, so the recorded
/// values depend only on the decoded windows.
#[derive(Debug, Clone)]
pub(crate) struct SparseTelemetry {
    /// Clusters solved (any size) and the event count of each.
    clusters_solved: Counter,
    cluster_size: Histogram,
    /// ≥3-event clusters — the ones the blossom solver ran on — and,
    /// per solve, how many stages it took, how many pairs the jump
    /// start matched before the first, and how many vertices a type-1
    /// dual step retired.
    blossom_solves: Counter,
    solve_stages: Histogram,
    jump_matched: Counter,
    retired_vertices: Counter,
}

impl SparseTelemetry {
    fn register(registry: &MetricsRegistry) -> Self {
        let c = |name: &str| registry.counter(name, Domain::Cycles);
        Self {
            clusters_solved: c("sparse.clusters_solved"),
            cluster_size: registry.histogram("sparse.cluster_solve_size", Domain::Cycles),
            // The name predates the jump start (every blossom solve
            // is cold now); `benchmarks/e2e` reads it.
            blossom_solves: c("sparse.warm.cold_solves"),
            solve_stages: registry.histogram("sparse.solve_stages", Domain::Cycles),
            jump_matched: c("sparse.jump_matched"),
            retired_vertices: c("sparse.retired_vertices"),
        }
    }
}

impl Clone for SparseDecoder {
    fn clone(&self) -> Self {
        Self {
            ty: self.ty,
            graph: self.graph.clone(),
            scratch: SparseScratch::new(),
            // Shared handles: a clone records into the same metrics.
            telemetry: self.telemetry.clone(),
        }
    }
}

impl SparseDecoder {
    /// Builds the decoder for stabilizer type `ty` of `code`.
    #[must_use]
    pub fn new(code: &SurfaceCode, ty: StabilizerType) -> Self {
        Self {
            ty,
            graph: code.detector_graph(ty).clone(),
            scratch: SparseScratch::new(),
            telemetry: None,
        }
    }

    /// The stabilizer type this decoder serves.
    #[must_use]
    pub fn stabilizer_type(&self) -> StabilizerType {
        self.ty
    }

    /// Attach a metrics registry: from here on every decode records
    /// solved-cluster counts, per-cluster solve sizes, and the blossom
    /// solver's stage, jump-start and retirement counts under the
    /// `sparse.` prefix. All sparse metrics are cycle-domain: the
    /// per-cluster decisions driving them are deterministic.
    pub fn attach_telemetry(&mut self, registry: &MetricsRegistry) {
        self.telemetry = Some(SparseTelemetry::register(registry));
    }

    /// Builder form of [`SparseDecoder::attach_telemetry`].
    #[must_use]
    pub fn with_telemetry(mut self, registry: &MetricsRegistry) -> Self {
        self.attach_telemetry(registry);
        self
    }

    /// Decodes an explicit set of detection events into a correction.
    ///
    /// # Panics
    ///
    /// Panics if any event references an out-of-range ancilla, or a
    /// round beyond `u32::MAX`.
    #[must_use]
    pub fn decode_events_mut(&mut self, events: &[DetectionEvent]) -> Correction {
        self.decode_events_weighted(events).0
    }

    /// [`SparseDecoder::decode_events_mut`] also reporting the total
    /// space-time weight of the matching — the exactness witness the
    /// test suite compares against the dense decoder and the brute-force
    /// reference.
    ///
    /// # Panics
    ///
    /// Panics if any event references an out-of-range ancilla, or a
    /// round beyond `u32::MAX`.
    #[must_use]
    pub fn decode_events_weighted(&mut self, events: &[DetectionEvent]) -> (Correction, i64) {
        Self::decode_events_with(&self.graph, events, &mut self.scratch, self.telemetry.as_ref())
    }

    /// Decodes a whole window of measurement rounds. Windows without
    /// detection events are dismissed by the window's O(1) event
    /// counter; otherwise the event diff lands in a reused buffer.
    #[must_use]
    pub fn decode_window_mut(&mut self, history: &RoundHistory) -> Correction {
        self.decode_window_weighted(history).0
    }

    /// [`SparseDecoder::decode_window_mut`] also reporting the committed
    /// matching's total space-time weight.
    #[must_use]
    pub fn decode_window_weighted(&mut self, history: &RoundHistory) -> (Correction, i64) {
        if history.detection_event_count() == 0 {
            return (Correction::new(), 0);
        }
        let mut events = std::mem::take(&mut self.scratch.events);
        history.detection_events_into(&mut events);
        let out = Self::decode_events_with(
            &self.graph,
            &events,
            &mut self.scratch,
            self.telemetry.as_ref(),
        );
        self.scratch.events = events;
        out
    }

    /// The decode kernel: merge colliding regions, then solve each
    /// cluster exactly, in cluster order.
    fn decode_events_with(
        graph: &DetectorGraph,
        events: &[DetectionEvent],
        scratch: &mut SparseScratch,
        telemetry: Option<&SparseTelemetry>,
    ) -> (Correction, i64) {
        let n = events.len();
        if n == 0 {
            return (Correction::new(), 0);
        }
        for ev in events {
            assert!(ev.ancilla < graph.num_nodes(), "event ancilla {} out of range", ev.ancilla);
            assert!(u32::try_from(ev.round).is_ok(), "event round {} out of range", ev.round);
        }
        scratch.prepare(n);
        merge_colliding_regions(graph, events, scratch);

        // Resolve each event's cluster root, then sort event indices by
        // root so every cluster is a contiguous run (in-place sort of a
        // recycled index buffer — no per-decode allocation).
        for i in 0..n as u32 {
            let r = scratch.find(i);
            scratch.root.push(r);
        }
        let SparseScratch { root, order, collisions, cluster, flips, .. } = scratch;
        order.sort_unstable_by_key(|&i| root[i as usize]);
        // Group the collision edges the same way: every edge is
        // intra-cluster by construction, so sorting by one endpoint's
        // root makes each cluster's edges one contiguous run, consumed
        // in step with the cluster walk below.
        collisions.sort_unstable_by_key(|e| root[e.u as usize]);
        let (order, collisions, root) = (&*order, &*collisions, &*root);

        let mut total = 0i64;
        let mut start = 0usize;
        let mut edge_at = 0usize;
        while start < n {
            let cluster_root = root[order[start] as usize];
            let mut end = start + 1;
            while end < n && root[order[end] as usize] == cluster_root {
                end += 1;
            }
            let mut edge_end = edge_at;
            while edge_end < collisions.len()
                && root[collisions[edge_end].u as usize] == cluster_root
            {
                edge_end += 1;
            }
            total += solve_cluster(
                graph,
                events,
                &order[start..end],
                &collisions[edge_at..edge_end],
                cluster,
                flips,
                telemetry,
            );
            edge_at = edge_end;
            start = end;
        }
        (Correction::from_flip_buffer(flips), total)
    }
}

/// Solves one cluster exactly, appending its data-qubit flips to
/// `flips` and returning its matching weight. `members` are indices
/// into `events` (the cluster's events, in walk order); `collisions`
/// its collision edges (global event indices, space-time distances).
fn solve_cluster(
    graph: &DetectorGraph,
    events: &[DetectionEvent],
    members: &[u32],
    collisions: &[ClusterEdge],
    scratch: &mut ClusterScratch,
    flips: &mut Vec<usize>,
    telemetry: Option<&SparseTelemetry>,
) -> i64 {
    if let Some(tel) = telemetry {
        tel.clusters_solved.inc();
        tel.cluster_size.record(members.len() as u64);
    }
    let ancilla = |local: usize| events[members[local] as usize].ancilla;
    match members.len() {
        0 => 0,
        // A lone defect: its region met nobody within its own
        // boundary distance, so the boundary exit is optimal.
        1 => {
            graph.extend_path_to_boundary(ancilla(0), flips);
            i64::from(graph.boundary_distance(ancilla(0)))
        }
        // A pair: the direct edge against two boundary exits.
        2 => {
            let (u, v) = (&events[members[0] as usize], &events[members[1] as usize]);
            let direct =
                i64::from(graph.distance(u.ancilla, v.ancilla)) + u.round.abs_diff(v.round) as i64;
            let exits = i64::from(graph.boundary_distance(u.ancilla))
                + i64::from(graph.boundary_distance(v.ancilla));
            if direct <= exits {
                graph.extend_path(u.ancilla, v.ancilla, flips);
                direct
            } else {
                graph.extend_path_to_boundary(u.ancilla, flips);
                graph.extend_path_to_boundary(v.ancilla, flips);
                exits
            }
        }
        // A bigger knot: the in-solver sparse blossom on the cluster's
        // gain graph. Start from every event exiting through the
        // boundary (`Σ bd`); pairing `u` with `v` instead saves
        // `bd(u) + bd(v) − d(u, v)`, which is positive exactly on the
        // collision edges, so the cheapest decode is a maximum-weight
        // matching over them and whoever it leaves unmatched exits.
        k => {
            let ClusterScratch { local_id, cluster_edges, pairs, matched, arena } = scratch;
            if local_id.len() < events.len() {
                local_id.resize(events.len(), 0);
            }
            for (li, &gi) in members.iter().enumerate() {
                local_id[gi as usize] = li as u32;
            }
            let bd = |local: usize| i64::from(graph.boundary_distance(ancilla(local)));
            cluster_edges.clear();
            cluster_edges.extend(collisions.iter().map(|e| {
                let (lu, lv) = (local_id[e.u as usize], local_id[e.v as usize]);
                ClusterEdge::new(lu, lv, bd(lu as usize) + bd(lv as usize) - e.weight)
            }));
            let gain = arena.solve(k, cluster_edges, pairs);
            if let Some(tel) = telemetry {
                let st = arena.stats();
                tel.blossom_solves.inc();
                tel.solve_stages.record(u64::from(st.stages));
                tel.jump_matched.add(u64::from(st.jump_matched));
                tel.retired_vertices.add(u64::from(st.retired));
            }
            matched.clear();
            matched.resize(k, false);
            for &(u, v) in pairs.iter() {
                graph.extend_path(ancilla(u), ancilla(v), flips);
                matched[u] = true;
                matched[v] = true;
            }
            let mut exits = 0i64;
            for (local, &paired) in matched.iter().enumerate() {
                exits += bd(local);
                if !paired {
                    graph.extend_path_to_boundary(ancilla(local), flips);
                }
            }
            exits - gain
        }
    }
}

impl ComplexDecoder for SparseDecoder {
    fn decode_window_mut(&mut self, window: &RoundHistory) -> Correction {
        SparseDecoder::decode_window_mut(self, window)
    }

    fn attach_telemetry(&mut self, registry: &MetricsRegistry) {
        SparseDecoder::attach_telemetry(self, registry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btwc_lattice::DataQubit;
    use btwc_noise::SimRng;

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
        let mut decoder = SparseDecoder::new(&code, StabilizerType::X);
        let errors = vec![false; code.num_data_qubits()];
        let c = decoder.decode_window_mut(&window_for(&code, &errors, 3));
        assert!(c.is_empty());
        assert_eq!(decoder.stabilizer_type(), StabilizerType::X);
    }

    #[test]
    fn single_interior_error_is_exactly_corrected() {
        let code = SurfaceCode::new(5);
        let mut decoder = SparseDecoder::new(&code, StabilizerType::X);
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
            let mut decoder = SparseDecoder::new(&code, StabilizerType::X);
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
    fn measurement_error_produces_no_correction() {
        let code = SurfaceCode::new(5);
        let mut decoder = SparseDecoder::new(&code, StabilizerType::X);
        let n_anc = code.num_ancillas(StabilizerType::X);
        let mut h = RoundHistory::new(n_anc, 8);
        let quiet = vec![false; n_anc];
        let mut flipped = quiet.clone();
        flipped[2] = true;
        h.push(&quiet);
        h.push(&flipped);
        h.push(&quiet);
        let c = decoder.decode_window_mut(&h);
        assert!(c.is_empty(), "time-like pair must not touch data qubits");
    }

    #[test]
    fn below_half_distance_errors_never_cause_logical_failure() {
        for d in [3u16, 5, 7] {
            let code = SurfaceCode::new(d);
            let mut decoder = SparseDecoder::new(&code, StabilizerType::X);
            let t = usize::from((d - 1) / 2);
            let mut rng = SimRng::from_seed(0xFEED + u64::from(d));
            for _ in 0..400 {
                let mut errors = vec![false; code.num_data_qubits()];
                for _ in 0..t {
                    errors[rng.below(code.num_data_qubits())] = true;
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

    // The exactness contract (sparse weight == dense weight on noisy
    // windows) is pinned by the 1000-window sweep in
    // tests/sparse_vs_dense.rs and the brute-force property suite.

    // The name predates the removal of the locked `&self` entry points;
    // the test pins that a reused `&mut` decoder's window, event and
    // weighted paths agree.
    #[test]
    fn locked_and_mut_paths_agree() {
        let code = SurfaceCode::new(7);
        let mut decoder = SparseDecoder::new(&code, StabilizerType::X);
        let mut rng = SimRng::from_seed(7);
        for _ in 0..30 {
            let mut errors = vec![false; code.num_data_qubits()];
            for _ in 0..3 {
                errors[rng.below(code.num_data_qubits())] ^= true;
            }
            let window = window_for(&code, &errors, 3);
            let (c, w) = decoder.decode_window_weighted(&window);
            assert_eq!(c, decoder.decode_window_mut(&window));
            let events = window.detection_events();
            assert_eq!((c, w), decoder.decode_events_weighted(&events));
        }
    }

    #[test]
    fn clone_decodes_identically() {
        let code = SurfaceCode::new(5);
        let mut decoder = SparseDecoder::new(&code, StabilizerType::X);
        let mut errors = vec![false; code.num_data_qubits()];
        errors[7] = true;
        errors[12] = true;
        let w = window_for(&code, &errors, 2);
        let mut clone = decoder.clone();
        assert_eq!(decoder.decode_window_mut(&w), clone.decode_window_mut(&w));
    }

    #[test]
    fn telemetry_counts_clusters_and_blossom_solves() {
        // What a decode classifies: every cluster by size, and every
        // ≥3-event one as a blossom solve.
        let code = SurfaceCode::new(7);
        let registry = btwc_telemetry::MetricsRegistry::new();
        let mut dec = SparseDecoder::new(&code, StabilizerType::X).with_telemetry(&registry);
        let n_anc = code.num_ancillas(StabilizerType::X);
        let mut rng = SimRng::from_seed(0x7E1E);
        let mut window = RoundHistory::new(n_anc, 6);
        for _ in 0..30 {
            let bits: Vec<bool> = (0..n_anc).map(|_| rng.bernoulli(0.05)).collect();
            window.push(&bits);
            let _ = dec.decode_window_weighted(&window);
        }
        let snap = registry.snapshot();
        assert!(snap.get_counter("sparse.clusters_solved").unwrap() > 0);
        let histogram_count = |name: &str| match snap.get(name).unwrap() {
            btwc_telemetry::MetricValue::Histogram { count, .. } => *count,
            other => panic!("unexpected metric value {other:?}"),
        };
        assert_eq!(
            histogram_count("sparse.cluster_solve_size"),
            snap.get_counter("sparse.clusters_solved").unwrap()
        );
        // Every ≥3-event cluster is one cold blossom solve with one
        // stage-count sample.
        let blossom_solves = snap.get_counter("sparse.warm.cold_solves").unwrap();
        assert!(blossom_solves > 0, "no cluster reached the blossom solver");
        assert_eq!(histogram_count("sparse.solve_stages"), blossom_solves);
        assert!(snap.get_counter("sparse.jump_matched").unwrap() > 0);
        assert!(snap.get_counter("sparse.retired_vertices").is_some());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_event_rejected() {
        let code = SurfaceCode::new(3);
        let mut decoder = SparseDecoder::new(&code, StabilizerType::X);
        let _ = decoder.decode_events_mut(&[DetectionEvent { ancilla: 999, round: 0 }]);
    }
}
