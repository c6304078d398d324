//! The detector graph: one node per ancilla, one edge per data qubit.
//!
//! This single structure backs both decoders in the workspace:
//!
//! * the **Clique** decoder's "clique" around ancilla `a` is exactly `a`
//!   plus its [`DetectorGraph::ancilla_neighbors`], and its boundary
//!   special cases (paper Fig. 5) are exactly the ancillas with
//!   [`DetectorGraph::private_qubits`];
//! * the **MWPM** decoder's spatial metric is the shortest-path distance
//!   on this graph, with [`DetectorGraph::boundary_distance`] giving the
//!   cost of terminating an error chain on the open boundary.

use crate::code::Ancilla;

/// Endpoint of a detector-graph edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeRef {
    /// A stabilizer ancilla, by index into [`crate::SurfaceCode::ancillas`].
    Ancilla(usize),
    /// The open boundary where error chains of this species terminate.
    Boundary,
}

/// One detector-graph edge; crossing it corresponds to an error on
/// exactly one data qubit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphEdge {
    /// First endpoint (always an ancilla).
    pub a: usize,
    /// Second endpoint (an ancilla or the boundary).
    pub b: NodeRef,
    /// Linear index of the data qubit whose error flips both endpoints.
    pub qubit: usize,
}

/// Detector graph over the ancillas of one stabilizer type.
#[derive(Debug, Clone)]
pub struct DetectorGraph {
    num_nodes: usize,
    edges: Vec<GraphEdge>,
    /// adjacency[a] = (neighbor, qubit) pairs, boundary included.
    adjacency: Vec<Vec<(NodeRef, usize)>>,
    /// dist[a * n + b] = shortest path length (in data-qubit errors).
    dist: Vec<u32>,
    /// parent[src * n + node] = (previous node, qubit crossed) on the
    /// shortest path from src, encoded as u32 pairs (u32::MAX = none).
    parent: Vec<(u32, u32)>,
    /// Shortest distance from each node to the boundary.
    boundary_dist: Vec<u32>,
    /// First hop of a shortest path toward the boundary:
    /// either directly out (the private qubit) or to a neighbor ancilla.
    boundary_parent: Vec<(NodeRef, usize)>,
    /// CSR ancilla-ancilla adjacency (boundary edges excluded):
    /// neighbors of `a` are `nbr_data[nbr_idx[a]..nbr_idx[a + 1]]`.
    /// Flat and allocation-free to query — the decoders' graph-walk
    /// hot paths (sparse region growth in particular) iterate it per
    /// visited node.
    nbr_idx: Vec<u32>,
    nbr_data: Vec<u32>,
    /// `max(boundary_dist)` — the radius bound sparse region growth uses.
    max_boundary_dist: u32,
}

impl DetectorGraph {
    /// Builds the detector graph from the ancilla incidence lists.
    ///
    /// # Panics
    ///
    /// Panics if any data qubit is checked by zero or more than two
    /// ancillas of this type — that would violate the surface-code
    /// structure this crate is built for.
    #[must_use]
    pub(crate) fn build(ancillas: &[Ancilla], num_data: usize) -> Self {
        let num_nodes = ancillas.len();
        let mut owners: Vec<Vec<usize>> = vec![Vec::new(); num_data];
        for (i, a) in ancillas.iter().enumerate() {
            for &q in a.data_qubits() {
                owners[q].push(i);
            }
        }
        let mut edges = Vec::new();
        let mut adjacency = vec![Vec::new(); num_nodes];
        for (q, own) in owners.iter().enumerate() {
            match own.as_slice() {
                [a] => {
                    edges.push(GraphEdge { a: *a, b: NodeRef::Boundary, qubit: q });
                    adjacency[*a].push((NodeRef::Boundary, q));
                }
                [a, b] => {
                    edges.push(GraphEdge { a: *a, b: NodeRef::Ancilla(*b), qubit: q });
                    adjacency[*a].push((NodeRef::Ancilla(*b), q));
                    adjacency[*b].push((NodeRef::Ancilla(*a), q));
                }
                other => panic!(
                    "data qubit {q} checked by {} ancillas of one type; expected 1 or 2",
                    other.len()
                ),
            }
        }

        // All-pairs BFS (unit edge weights), stored flat so large codes
        // (the paper's d=81 scenario has ~3.3k nodes per type) stay
        // memory-friendly.
        let mut dist = vec![u32::MAX; num_nodes * num_nodes];
        let mut parent = vec![(u32::MAX, u32::MAX); num_nodes * num_nodes];
        for src in 0..num_nodes {
            let (d, p) = bfs_from(src, &adjacency, num_nodes);
            dist[src * num_nodes..(src + 1) * num_nodes].copy_from_slice(&d);
            for (i, entry) in p.into_iter().enumerate() {
                if let Some((prev, q)) = entry {
                    parent[src * num_nodes + i] = (prev as u32, q as u32);
                }
            }
        }

        // Multi-source BFS from the boundary.
        let (boundary_dist, boundary_parent) = bfs_from_boundary(&adjacency, num_nodes);

        // Flatten the ancilla-ancilla adjacency into CSR form.
        let mut nbr_idx = Vec::with_capacity(num_nodes + 1);
        let mut nbr_data = Vec::new();
        nbr_idx.push(0);
        for adj in &adjacency {
            for &(n, _) in adj {
                if let NodeRef::Ancilla(b) = n {
                    nbr_data.push(b as u32);
                }
            }
            nbr_idx.push(nbr_data.len() as u32);
        }
        let max_boundary_dist = boundary_dist.iter().copied().max().unwrap_or(0);

        Self {
            num_nodes,
            edges,
            adjacency,
            dist,
            parent,
            boundary_dist,
            boundary_parent,
            nbr_idx,
            nbr_data,
            max_boundary_dist,
        }
    }

    /// Number of ancilla nodes.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// All edges (one per covered data qubit).
    #[must_use]
    pub fn edges(&self) -> &[GraphEdge] {
        &self.edges
    }

    /// The same-type ancilla neighbors of `a` — the "p, q, r, s" of the
    /// paper's Fig. 5 clique — as `(neighbor, shared data qubit)` pairs.
    #[must_use]
    pub fn ancilla_neighbors(&self, a: usize) -> Vec<(usize, usize)> {
        self.adjacency[a]
            .iter()
            .filter_map(|&(n, q)| match n {
                NodeRef::Ancilla(b) => Some((b, q)),
                NodeRef::Boundary => None,
            })
            .collect()
    }

    /// The same-type ancilla neighbors of `a` as a flat slice —
    /// the allocation-free form of [`DetectorGraph::ancilla_neighbors`]
    /// (without the shared-qubit labels) for graph-walk hot paths.
    #[inline]
    #[must_use]
    pub fn neighbors(&self, a: usize) -> &[u32] {
        &self.nbr_data[self.nbr_idx[a] as usize..self.nbr_idx[a + 1] as usize]
    }

    /// The largest boundary distance over all ancillas — the worst-case
    /// cost of absorbing a lone defect, and the radius bound for region
    /// growth in the sparse matcher.
    #[must_use]
    pub fn max_boundary_distance(&self) -> u32 {
        self.max_boundary_dist
    }

    /// Data qubits checked *only* by ancilla `a` (boundary edges).
    ///
    /// A single error on such a qubit lights `a` alone — the paper's
    /// corner/edge special cases that are trivial despite even
    /// neighborhood parity.
    #[must_use]
    pub fn private_qubits(&self, a: usize) -> Vec<usize> {
        self.adjacency[a]
            .iter()
            .filter_map(|&(n, q)| match n {
                NodeRef::Boundary => Some(q),
                NodeRef::Ancilla(_) => None,
            })
            .collect()
    }

    /// Shortest-path distance between two ancillas, in number of data
    /// qubit errors.
    #[must_use]
    pub fn distance(&self, a: usize, b: usize) -> u32 {
        self.dist[a * self.num_nodes + b]
    }

    /// Distances from ancilla `a` to every ancilla, indexed by ancilla:
    /// `distance_row(a)[b] == distance(a, b)`. One contiguous row of the
    /// precomputed table, for scans that probe many partners of `a`.
    #[inline]
    #[must_use]
    pub fn distance_row(&self, a: usize) -> &[u32] {
        &self.dist[a * self.num_nodes..(a + 1) * self.num_nodes]
    }

    /// Shortest distance from ancilla `a` to the open boundary.
    #[must_use]
    pub fn boundary_distance(&self, a: usize) -> u32 {
        self.boundary_dist[a]
    }

    /// Data qubits along one shortest path between ancillas `a` and `b`.
    /// Flipping exactly these qubits moves the defect from `a` to `b`.
    #[must_use]
    pub fn path(&self, a: usize, b: usize) -> Vec<usize> {
        let mut qubits = Vec::new();
        self.extend_path(a, b, &mut qubits);
        qubits
    }

    /// Appends [`DetectorGraph::path`]`(a, b)` to `out` — the
    /// allocation-free form for decoders that gather many paths into one
    /// recycled buffer.
    pub fn extend_path(&self, a: usize, b: usize, out: &mut Vec<usize>) {
        let row = &self.parent[a * self.num_nodes..(a + 1) * self.num_nodes];
        let mut node = b;
        while node != a {
            let (prev, q) = row[node];
            assert_ne!(prev, u32::MAX, "detector graph is connected");
            out.push(q as usize);
            node = prev as usize;
        }
    }

    /// Data qubits along one shortest path from ancilla `a` out to the
    /// boundary. Flipping exactly these qubits absorbs the defect at `a`
    /// into the boundary.
    #[must_use]
    pub fn path_to_boundary(&self, a: usize) -> Vec<usize> {
        let mut qubits = Vec::new();
        self.extend_path_to_boundary(a, &mut qubits);
        qubits
    }

    /// Appends [`DetectorGraph::path_to_boundary`]`(a)` to `out` (the
    /// allocation-free form).
    pub fn extend_path_to_boundary(&self, a: usize, out: &mut Vec<usize>) {
        let mut node = a;
        loop {
            let (next, q) = self.boundary_parent[node];
            out.push(q);
            match next {
                NodeRef::Boundary => return,
                NodeRef::Ancilla(b) => node = b,
            }
        }
    }
}

fn bfs_from(
    src: usize,
    adjacency: &[Vec<(NodeRef, usize)>],
    num_nodes: usize,
) -> (Vec<u32>, Vec<Option<(usize, usize)>>) {
    let mut dist = vec![u32::MAX; num_nodes];
    let mut parent = vec![None; num_nodes];
    let mut queue = std::collections::VecDeque::new();
    dist[src] = 0;
    queue.push_back(src);
    while let Some(u) = queue.pop_front() {
        for &(n, q) in &adjacency[u] {
            if let NodeRef::Ancilla(v) = n {
                if dist[v] == u32::MAX {
                    dist[v] = dist[u] + 1;
                    parent[v] = Some((u, q));
                    queue.push_back(v);
                }
            }
        }
    }
    (dist, parent)
}

fn bfs_from_boundary(
    adjacency: &[Vec<(NodeRef, usize)>],
    num_nodes: usize,
) -> (Vec<u32>, Vec<(NodeRef, usize)>) {
    let mut dist = vec![u32::MAX; num_nodes];
    let mut parent: Vec<(NodeRef, usize)> = vec![(NodeRef::Boundary, usize::MAX); num_nodes];
    let mut queue = std::collections::VecDeque::new();
    // Seed: every node with a boundary edge is at distance 1, leaving via
    // its private qubit.
    for (a, adj) in adjacency.iter().enumerate() {
        for &(n, q) in adj {
            if n == NodeRef::Boundary && dist[a] == u32::MAX {
                dist[a] = 1;
                parent[a] = (NodeRef::Boundary, q);
                queue.push_back(a);
            }
        }
    }
    while let Some(u) = queue.pop_front() {
        for &(n, q) in &adjacency[u] {
            if let NodeRef::Ancilla(v) = n {
                if dist[v] == u32::MAX {
                    dist[v] = dist[u] + 1;
                    parent[v] = (NodeRef::Ancilla(u), q);
                    queue.push_back(v);
                }
            }
        }
    }
    (dist, parent)
}

#[cfg(test)]
mod tests {
    use crate::{StabilizerType, SurfaceCode};

    #[test]
    fn interior_ancillas_have_up_to_four_neighbors() {
        let code = SurfaceCode::new(7);
        let g = code.detector_graph(StabilizerType::X);
        for a in 0..g.num_nodes() {
            let n = g.ancilla_neighbors(a).len();
            assert!((1..=4).contains(&n), "ancilla {a} has {n} neighbors");
        }
    }

    #[test]
    fn edge_count_equals_covered_data_qubits() {
        for d in [3u16, 5, 7] {
            let code = SurfaceCode::new(d);
            for ty in StabilizerType::both() {
                let g = code.detector_graph(ty);
                // Every data qubit is covered by 1 or 2 ancillas of each
                // type, so there is exactly one edge per data qubit.
                assert_eq!(g.edges().len(), code.num_data_qubits(), "d={d} ty={ty}");
            }
        }
    }

    #[test]
    fn graph_is_connected() {
        let code = SurfaceCode::new(9);
        for ty in StabilizerType::both() {
            let g = code.detector_graph(ty);
            for a in 0..g.num_nodes() {
                for b in 0..g.num_nodes() {
                    assert_ne!(g.distance(a, b), u32::MAX);
                }
            }
        }
    }

    #[test]
    fn distances_are_symmetric_and_triangle() {
        let code = SurfaceCode::new(7);
        let g = code.detector_graph(StabilizerType::X);
        let n = g.num_nodes();
        for a in 0..n {
            assert_eq!(g.distance(a, a), 0);
            for b in 0..n {
                assert_eq!(g.distance(a, b), g.distance(b, a));
                for c in 0..n {
                    assert!(g.distance(a, c) <= g.distance(a, b) + g.distance(b, c));
                }
            }
        }
    }

    #[test]
    fn path_length_matches_distance_and_moves_defect() {
        let code = SurfaceCode::new(7);
        let ty = StabilizerType::X;
        let g = code.detector_graph(ty);
        let n = g.num_nodes();
        for a in 0..n {
            for b in 0..n {
                let path = g.path(a, b);
                assert_eq!(path.len() as u32, g.distance(a, b));
                // Flipping the path qubits produces syndrome {a, b} (or
                // empty when a == b).
                let mut errors = vec![false; code.num_data_qubits()];
                for &q in &path {
                    errors[q] ^= true;
                }
                let syndrome = code.syndrome_of(ty, &errors);
                for (i, &s) in syndrome.iter().enumerate() {
                    let expect = (i == a) ^ (i == b);
                    assert_eq!(s, expect, "a={a} b={b} ancilla {i}");
                }
            }
        }
    }

    #[test]
    fn rows_and_appended_paths_match_the_pairwise_queries() {
        let code = SurfaceCode::new(7);
        let g = code.detector_graph(StabilizerType::Z);
        let mut out = vec![usize::MAX];
        for a in 0..g.num_nodes() {
            let row = g.distance_row(a);
            assert_eq!(row.len(), g.num_nodes());
            for (b, &d) in row.iter().enumerate() {
                assert_eq!(d, g.distance(a, b), "a={a} b={b}");
                out.truncate(1);
                g.extend_path(a, b, &mut out);
                assert_eq!(out[1..], g.path(a, b), "a={a} b={b}");
            }
            out.truncate(1);
            g.extend_path_to_boundary(a, &mut out);
            assert_eq!(out[1..], g.path_to_boundary(a), "a={a}");
            assert_eq!(out[0], usize::MAX, "appending must keep what was there");
        }
    }

    #[test]
    fn boundary_path_absorbs_defect() {
        let code = SurfaceCode::new(7);
        let ty = StabilizerType::X;
        let g = code.detector_graph(ty);
        for a in 0..g.num_nodes() {
            let path = g.path_to_boundary(a);
            assert_eq!(path.len() as u32, g.boundary_distance(a));
            let mut errors = vec![false; code.num_data_qubits()];
            for &q in &path {
                errors[q] ^= true;
            }
            let syndrome = code.syndrome_of(ty, &errors);
            for (i, &s) in syndrome.iter().enumerate() {
                assert_eq!(s, i == a, "a={a} ancilla {i}");
            }
        }
    }

    #[test]
    fn boundary_distance_at_most_half_distance_plus_one() {
        // On a distance-d code every ancilla can reach the boundary within
        // ceil(d/2) steps.
        let d = 9u16;
        let code = SurfaceCode::new(d);
        for ty in StabilizerType::both() {
            let g = code.detector_graph(ty);
            for a in 0..g.num_nodes() {
                assert!(g.boundary_distance(a) <= u32::from(d / 2 + 1));
                assert!(g.boundary_distance(a) >= 1);
            }
        }
    }

    #[test]
    fn private_qubits_exist_only_near_boundary() {
        let code = SurfaceCode::new(5);
        let g = code.detector_graph(StabilizerType::X);
        let mut total_private = 0;
        for a in 0..g.num_nodes() {
            total_private += g.private_qubits(a).len();
        }
        // Top and bottom data rows are private to X ancillas: 2*d qubits.
        assert_eq!(total_private, 10);
    }

    #[test]
    fn neighbor_relation_is_symmetric() {
        let code = SurfaceCode::new(7);
        let g = code.detector_graph(StabilizerType::Z);
        for a in 0..g.num_nodes() {
            for (b, q) in g.ancilla_neighbors(a) {
                assert!(
                    g.ancilla_neighbors(b).contains(&(a, q)),
                    "neighbor relation must be symmetric"
                );
            }
        }
    }

    #[test]
    fn csr_neighbors_match_ancilla_neighbors() {
        let code = SurfaceCode::new(7);
        for ty in StabilizerType::both() {
            let g = code.detector_graph(ty);
            for a in 0..g.num_nodes() {
                let mut from_pairs: Vec<u32> =
                    g.ancilla_neighbors(a).iter().map(|&(b, _)| b as u32).collect();
                let mut from_csr = g.neighbors(a).to_vec();
                from_pairs.sort_unstable();
                from_csr.sort_unstable();
                assert_eq!(from_csr, from_pairs, "ancilla {a}");
            }
        }
    }

    #[test]
    fn max_boundary_distance_is_the_max() {
        for d in [3u16, 5, 9] {
            let code = SurfaceCode::new(d);
            let g = code.detector_graph(StabilizerType::X);
            let max = (0..g.num_nodes()).map(|a| g.boundary_distance(a)).max().unwrap();
            assert_eq!(g.max_boundary_distance(), max);
        }
    }

    #[test]
    fn shortest_logical_chain_has_length_d() {
        // The shortest boundary-to-boundary chain through the lattice has
        // length d: min over ancillas of (bdist via top + bdist via bottom)
        // is d. We verify a weaker form: a straight column has length d and
        // zero syndrome (tested in code.rs), and no ancilla pair plus
        // boundary exits beats d... here we just sanity-check distances
        // scale with d.
        for d in [3u16, 5, 7] {
            let code = SurfaceCode::new(d);
            let g = code.detector_graph(StabilizerType::X);
            let max_b = (0..g.num_nodes()).map(|a| g.boundary_distance(a)).max().unwrap();
            assert!(max_b >= u32::from(d / 2));
        }
    }
}
