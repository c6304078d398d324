//! In-solver sparse blossom matching: exact maximum-weight matching
//! over an explicit *edge list* instead of a dense all-pairs matrix.
//!
//! This is the solver behind [`crate::SparseDecoder`]'s per-cluster
//! matching. The decoder hands it the cluster's **gain graph**: one
//! vertex per detection event and one edge per region collision
//! (`crate::regions`), weighted by what pairing the two events saves
//! over sending both out through the boundary,
//! `g = bd(u) + bd(v) − d(u, v)` (strictly positive — that is the
//! collision inequality). A maximum-weight, *not necessarily perfect*,
//! matching of that graph is the minimum-weight decode of the cluster:
//! matched events pair up, every unmatched event exits through the
//! boundary, and the cluster's weight is `Σ bd − Σ matched g`. There
//! are no boundary-twin vertices and no mirrored zero-weight edges: a
//! cluster of k events is a k-vertex problem.
//!
//! The solver runs Edmonds' primal–dual blossom algorithm directly on
//! the edge list: grow alternating trees from the exposed vertices,
//! adjust dual variables (each vertex dual is the dynamic radius of
//! that event's matching region — it shrinks while the vertex is an
//! outer tree node and grows while it is inner), *shrink* every odd
//! alternating cycle into a blossom node, and lazily expand blossoms
//! whose dual reaches zero. The implementation follows the van Rantwijk
//! formulation of Galil's exposition — the standard edge-list
//! O(V·E)-per-stage structure — so the cost of matching a cluster
//! scales with how many region collisions it actually contains, not
//! with the square of its event count. Two rules are specific to this
//! crate:
//!
//! * **The retire rule** (imperfect matching from any dual-feasible
//!   start). A vertex may stay unmatched only at dual zero, and the
//!   vertices whose duals fall are the S-vertices, so the type-1 dual
//!   step is bounded by the smallest dual of *any* S-vertex, not just a
//!   root's. When one reaches zero its even alternating path to the
//!   tree root is flipped (the same rotation an augmentation uses,
//!   `augment_blossom` included when the vertex sits
//!   inside a blossom): the root becomes matched and the zero-dual
//!   vertex takes over as the exposed one. It is then **retired** — an
//!   exposed vertex at dual zero is never a root again — and a tight
//!   edge from an S-vertex into a retired vertex (or into any vertex of
//!   a blossom whose base is retired) is an augmenting path that ends
//!   there. Every stage ends in an augmentation or a retirement, each
//!   of which removes an exposed vertex of positive dual, so there are
//!   at most `n` stages.
//! * **The jump start.** Because the retire rule is exact from any
//!   dual-feasible start, the duals do not begin at the uniform maximum
//!   and descend one stage per pair. Each vertex starts at its largest
//!   incident weight (feasible: `y(u) + y(v) ≥ 2·w(u, v)` edge by edge).
//!   Then each vertex in turn, if still exposed, drops its dual as far
//!   as feasibility allows — not at all when an edge of its is already
//!   tight, as between mutually-best partners — which either retires
//!   it on the spot or leaves it a tight edge, and it matches along
//!   that edge when the far end is exposed too. Most clusters are
//!   solved by this pass alone; the stages only run for what it leaves.
//!
//! **A solve builds only the graph until a stage needs more.** `prepare`
//! makes one pass over the edge list: it stores the doubled weights and
//! the endpoints (`endpoint[2k]`, `endpoint[2k + 1]` *are* the edge
//! list), counts degrees for the CSR adjacency, and sets each vertex's
//! jump-start dual to its largest incident weight on the way. The jump
//! start needs nothing else. The stage tables — labels, blossom lists,
//! best and allowed edges, free blossom slots, blossom duals — are
//! built only when an exposed vertex with positive dual survives it;
//! a zero-stage solve (about half of the decoder's solves on
//! `escalation_heavy`) reads its pairs off the jump start and returns.
//!
//! Weights are doubled on entry, which makes every starting dual even
//! (a maximum of doubled weights, or a doubled weight minus an even
//! dual); all roots then fall in lockstep and every tree vertex hangs
//! off its root by tight edges, so S-vertices always share one parity
//! and the half-slack of an S–S edge stays integral.
//!
//! All solver state lives in a caller-owned [`BlossomArena`] that
//! regrows monotonically and is reset — never reallocated — per solve:
//! once warm, a solve makes zero heap allocations (the decoder around
//! it makes one per decode, the returned correction).
//!
//! **Dual adjustment is slack-ordered**: instead of re-scanning every
//! vertex and blossom per substage for the smallest dual step, the
//! solver keeps a lazy priority queue of candidate steps. Each entry is
//! keyed by `delta-at-push + T`, where `T` is the total dual adjustment
//! applied so far this stage — a normalization that makes keys
//! *invariant* under later adjustments (a free-vertex edge's slack and
//! a T-blossom's dual both shrink at exactly the rate `T` grows, and an
//! S–S edge's half-slack likewise). Entries go stale only through
//! structural changes (labels, blossom membership, better best-edges),
//! all of which push fresh entries, so popped entries are validated
//! against current structure and discarded or key-corrected; the first
//! entry that validates exactly is the true minimum. The type-1
//! candidate needs no heap entry: S-vertices stay S for the rest of
//! their stage and all fall at the rate `T` grows, so the smallest
//! `dual + T` seen when a vertex turns S is a running minimum. Debug
//! builds cross-check every chosen delta against the reference linear
//! scan.
//!
//! Correctness is pinned four ways: the in-module exhaustive check of
//! every small graph against the exponential reference matcher, the
//! seeded random sweep beside it, the brute-force cluster suite in
//! `tests/properties.rs`, and the chained-cluster differential fuzz
//! sweep against the dense blossom in `tests/sparse_vs_dense.rs`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

const NONE: i32 = -1;

/// One undirected weighted edge between two events of a decode.
///
/// The region scan emits these over global event indices with the
/// pair's space-time distance as `weight`; the graph handed to
/// [`BlossomArena::solve`] uses cluster-local indices and the pair's
/// gain (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterEdge {
    /// First endpoint (vertex index).
    pub u: u32,
    /// Second endpoint (vertex index, `!= u`).
    pub v: u32,
    /// Non-negative weight of pairing `u` with `v`.
    pub weight: i64,
}

impl ClusterEdge {
    /// Convenience constructor.
    #[must_use]
    pub fn new(u: u32, v: u32, weight: i64) -> Self {
        Self { u, v, weight }
    }
}

/// What the last [`BlossomArena::solve`] did, for telemetry and for the
/// tests' vacuity guards. Deterministic per graph.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SolveStats {
    /// Stages run; each ended in an augmentation or a retirement.
    pub stages: u32,
    /// Pairs the jump start matched before stage one.
    pub jump_matched: u32,
    /// Odd alternating cycles shrunk into blossoms.
    pub shrunk: u32,
    /// Vertices retired by a type-1 dual step.
    pub retired: u32,
    /// Of `retired`, those that sat inside a blossom (the retirement
    /// rotated the blossom's base onto them).
    pub retired_in_blossom: u32,
    /// Augmentations that ended in a retired vertex or blossom.
    pub retired_augments: u32,
}

/// Recycled working state for the sparse blossom solver: alternating
/// tree labels, blossom child/endpoint lists, dual variables, and the
/// per-solve edge-list graph. Grows monotonically to the largest
/// cluster seen and is never shrunk; [`BlossomArena::solve`] resets it
/// in place.
#[derive(Debug, Default)]
pub struct BlossomArena {
    /// Number of real vertices of the current solve.
    n: usize,
    /// Number of edges of the current solve.
    m: usize,
    // --- the graph (edge list + CSR adjacency) ---
    /// Doubled edge weights (see the module docs on parity).
    wt: Vec<i64>,
    /// `endpoint[2k] = u`, `endpoint[2k + 1] = v` of edge `k` — the
    /// edge list itself.
    endpoint: Vec<u32>,
    /// CSR offsets into `nb`, length `n + 1`.
    nb_off: Vec<u32>,
    /// Remote endpoints of the edges incident to each vertex.
    nb: Vec<u32>,
    // --- the jump start's state (vertex-indexed, length n) ---
    /// `mate[v]` = remote endpoint of v's matched edge, or -1.
    mate: Vec<i32>,
    /// Dual variables: vertex radii, then (from the first stage on)
    /// blossom duals.
    dualvar: Vec<i64>,
    // --- stage tables (vertex- or blossom-indexed, length 2n), built
    // only when a root survives the jump start ---
    /// 0 free, 1 S (outer), 2 T (inner), 5 = S + breadcrumb, -1 unused.
    label: Vec<i8>,
    /// Remote endpoint of the edge through which the label was claimed.
    labelend: Vec<i32>,
    /// Top-level blossom containing each vertex.
    inblossom: Vec<u32>,
    blossomparent: Vec<i32>,
    /// Base vertex of each blossom (-1 for unused blossom slots).
    blossombase: Vec<i32>,
    /// Ordered sub-blossoms and their connecting edge endpoints.
    blossomchilds: Vec<Vec<u32>>,
    blossomendps: Vec<Vec<u32>>,
    /// Least-slack edge to each neighboring S-blossom, and the cached
    /// per-blossom candidate lists.
    bestedge: Vec<i32>,
    blossombest: Vec<Vec<u32>>,
    has_best: Vec<bool>,
    /// Edges known to have zero slack.
    allowedge: Vec<bool>,
    queue: Vec<u32>,
    unused: Vec<u32>,
    // --- recycled temporaries ---
    leaves: Vec<u32>,
    leaves2: Vec<u32>,
    scan_path: Vec<u32>,
    cand: Vec<u32>,
    bestedgeto: Vec<i32>,
    // --- lazy dual-step queue (see module docs) ---
    /// Min-heap of `(delta-at-push + t_now-at-push, kind, id)` where
    /// kind 2 = free vertex `id` with a best edge to an S-blossom,
    /// kind 3 = top-level S-blossom `id` with a best edge to another
    /// S-blossom, kind 4 = top-level T-blossom `id` awaiting expansion.
    /// The tuple order also reproduces the reference scan's tie-break
    /// (type 2 before 3 before 4, then lowest index).
    delta_heap: BinaryHeap<Reverse<(i64, u8, u32)>>,
    /// Total dual adjustment applied so far this stage; normalizes heap
    /// keys so they stay comparable as duals move.
    t_now: i64,
    /// The type-1 candidate: smallest `dual + t_now` over the vertices
    /// that turned S this stage (`i64::MAX` before the first), and the
    /// first vertex that attained it.
    s_min_key: i64,
    s_min_vertex: u32,
    stats: SolveStats,
}

impl BlossomArena {
    /// An empty arena; it sizes itself on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// What the last solve did (see [`SolveStats`]).
    #[must_use]
    pub fn stats(&self) -> SolveStats {
        self.stats
    }

    /// Computes a maximum-weight matching of `num_vertices` vertices
    /// over the given edge list — any vertex may stay unmatched —
    /// appending the matched pairs (each `(u, v)` with `u < v`) into
    /// `pairs` and returning their total weight.
    ///
    /// # Panics
    ///
    /// Panics if an edge is out of range or a weight is negative.
    pub fn solve(
        &mut self,
        num_vertices: usize,
        edges: &[ClusterEdge],
        pairs: &mut Vec<(usize, usize)>,
    ) -> i64 {
        pairs.clear();
        self.stats = SolveStats::default();
        if num_vertices == 0 {
            return 0;
        }
        self.prepare(num_vertices, edges);
        self.jump_start();
        // A zero-stage solve — every exposed vertex already at dual
        // zero — reads its pairs straight off the jump start, without
        // building a single stage table.
        if (0..self.n).any(|v| self.mate[v] == NONE && self.dualvar[v] > 0) {
            self.run_stages();
        }

        #[cfg(debug_assertions)]
        self.assert_optimal();
        let mut total = 0i64;
        for v in 0..self.n {
            let p = self.mate[v];
            if p >= 0 {
                let u = self.endpoint[p as usize] as usize;
                if v < u {
                    pairs.push((v, u));
                    total += self.wt[p as usize / 2] / 2;
                }
            }
        }
        total
    }

    /// Runs stages until no root is left, after building the stage
    /// tables the jump start did not need. Every stage ends in an
    /// augmentation or a retirement.
    fn run_stages(&mut self) {
        self.prepare_stages();
        let (n, two_n) = (self.n, 2 * self.n);
        loop {
            // Stage reset: forget labels, best edges, and allowed
            // (zero-slack) markers; duals, mates, and the blossom
            // structure persist across stages.
            self.label[..two_n].fill(0);
            self.labelend[..two_n].fill(NONE);
            self.bestedge[..two_n].fill(NONE);
            for b in n..two_n {
                self.blossombest[b].clear();
                self.has_best[b] = false;
            }
            self.allowedge[..self.m].fill(false);
            self.queue.clear();
            self.delta_heap.clear();
            self.t_now = 0;
            self.s_min_key = i64::MAX;
            // Roots: every exposed vertex that still has dual to give
            // up. An exposed vertex at dual zero is retired.
            for v in 0..n {
                if self.mate[v] == NONE
                    && self.dualvar[v] > 0
                    && self.label[self.inblossom[v] as usize] == 0
                {
                    self.assign_label(v, 1, NONE);
                }
            }
            if self.queue.is_empty() {
                // No root left: every unmatched vertex sits at dual
                // zero, which certifies the optimum.
                break;
            }
            self.stats.stages += 1;

            // A stage ends in an augmentation or a retirement.
            let mut stage_over = false;
            loop {
                // Substage: scan S-vertices until an augmenting path is
                // found or the queue drains.
                'scan: while !stage_over {
                    let Some(v) = self.queue.pop() else { break };
                    let v = v as usize;
                    debug_assert_eq!(self.label[self.inblossom[v] as usize], 1);
                    for pi in self.nb_off[v] as usize..self.nb_off[v + 1] as usize {
                        let p = self.nb[pi] as usize;
                        let k = p / 2;
                        let w = self.endpoint[p] as usize;
                        if self.inblossom[v] == self.inblossom[w] {
                            continue;
                        }
                        let mut kslack = 0;
                        if !self.allowedge[k] {
                            kslack = self.slack(k);
                            if kslack <= 0 {
                                self.allowedge[k] = true;
                            }
                        }
                        let bw = self.inblossom[w] as usize;
                        if self.allowedge[k] {
                            if self.label[bw] == 0 {
                                if self.mate[self.blossombase[bw] as usize] == NONE {
                                    // (C0) w's blossom is retired: the
                                    // path from v's root ends there.
                                    self.stats.retired_augments += 1;
                                    self.augment_matching(k);
                                    stage_over = true;
                                    continue 'scan;
                                }
                                // (C1) w is free: grow the tree.
                                self.assign_label(w, 2, (p ^ 1) as i32);
                            } else if self.label[bw] == 1 {
                                // (C2) two S-blossoms meet: either an
                                // odd cycle to shrink or an augmenting
                                // path.
                                let base = self.scan_blossom(v as i32, w as i32);
                                if base >= 0 {
                                    self.add_blossom(base as usize, k);
                                } else {
                                    self.augment_matching(k);
                                    stage_over = true;
                                    continue 'scan;
                                }
                            } else if self.label[w] == 0 {
                                // w is inside a T-blossom but unlabeled:
                                // remember how it was reached.
                                debug_assert_eq!(self.label[bw], 2);
                                self.label[w] = 2;
                                self.labelend[w] = (p ^ 1) as i32;
                            }
                        } else if self.label[bw] == 1 {
                            // Track least-slack edges for the dual step.
                            let b = self.inblossom[v] as usize;
                            if self.bestedge[b] == NONE
                                || kslack < self.slack(self.bestedge[b] as usize)
                            {
                                self.bestedge[b] = k as i32;
                                self.push_delta3(b, k);
                            }
                        } else if self.label[w] == 0
                            && (self.bestedge[w] == NONE
                                || kslack < self.slack(self.bestedge[w] as usize))
                        {
                            self.bestedge[w] = k as i32;
                            self.push_delta2(w, k);
                        }
                    }
                }
                if stage_over {
                    break;
                }

                // Dual adjustment: the cheapest move that creates a new
                // tight edge, frees a blossom for expansion, or brings
                // an S-vertex to dual zero. The first two kinds are
                // found by draining the lazy heap instead of rescanning
                // every vertex and blossom. Popped entries are validated
                // against current structure: structurally dead ones are
                // discarded, live ones whose true delta moved since the
                // push are re-inserted with the corrected key, and the
                // first exact match is the minimum (see module docs).
                let mut deltatype = -1;
                let mut delta = 0i64;
                let mut deltaedge = NONE;
                let mut deltablossom = NONE;
                while let Some(Reverse((key, kind, id))) = self.delta_heap.pop() {
                    let id = id as usize;
                    let claimed = key - self.t_now;
                    let current = match kind {
                        2 => {
                            if self.label[self.inblossom[id] as usize] == 0
                                && self.bestedge[id] != NONE
                            {
                                Some(self.slack(self.bestedge[id] as usize))
                            } else {
                                None
                            }
                        }
                        3 => {
                            if self.blossomparent[id] == NONE
                                && self.label[id] == 1
                                && self.bestedge[id] != NONE
                            {
                                let kslack = self.slack(self.bestedge[id] as usize);
                                debug_assert_eq!(kslack % 2, 0, "doubled weights keep slacks even");
                                Some(kslack / 2)
                            } else {
                                None
                            }
                        }
                        _ => {
                            if id >= n
                                && self.blossombase[id] >= 0
                                && self.blossomparent[id] == NONE
                                && self.label[id] == 2
                            {
                                Some(self.dualvar[id])
                            } else {
                                None
                            }
                        }
                    };
                    match current {
                        None => {}
                        Some(d) if d != claimed => {
                            self.delta_heap.push(Reverse((d + self.t_now, kind, id as u32)));
                        }
                        Some(d) => {
                            delta = d;
                            deltatype = i32::from(kind);
                            if kind == 4 {
                                deltablossom = id as i32;
                            } else {
                                deltaedge = self.bestedge[id];
                            }
                            break;
                        }
                    }
                }
                // The type-1 candidate: the first S-vertex to run out
                // of dual. Ties go to the structural steps — growing on
                // can still find this stage an augmentation, which
                // clears two exposed vertices where a retirement clears
                // one.
                let delta1 = self.s_min_key - self.t_now;
                if deltatype == -1 || delta1 < delta {
                    deltatype = 1;
                    delta = delta1;
                }
                #[cfg(debug_assertions)]
                {
                    let (ref_type, ref_delta) = self.reference_delta();
                    debug_assert_eq!(
                        delta, ref_delta,
                        "lazy heap delta diverged from linear scan \
                         (heap type {deltatype}, scan type {ref_type})"
                    );
                    debug_assert_eq!(
                        deltatype == 1,
                        ref_type == 1,
                        "heap and scan disagree on the type-1 step"
                    );
                }

                for v in 0..n {
                    match self.label[self.inblossom[v] as usize] {
                        1 => self.dualvar[v] -= delta,
                        2 => self.dualvar[v] += delta,
                        _ => {}
                    }
                }
                for b in n..two_n {
                    if self.blossombase[b] >= 0 && self.blossomparent[b] == NONE {
                        match self.label[b] {
                            1 => self.dualvar[b] += delta,
                            2 => self.dualvar[b] -= delta,
                            _ => {}
                        }
                    }
                }
                // Keys already in the heap were normalized with the old
                // total; advancing it keeps `key - t_now` equal to each
                // candidate's remaining delta.
                self.t_now += delta;

                match deltatype {
                    1 => {
                        self.retire(self.s_min_vertex as usize);
                        break;
                    }
                    2 => {
                        let k = deltaedge as usize;
                        self.allowedge[k] = true;
                        let (mut i, j) = (self.endpoint[2 * k], self.endpoint[2 * k + 1]);
                        if self.label[self.inblossom[i as usize] as usize] == 0 {
                            i = j;
                        }
                        debug_assert_eq!(self.label[self.inblossom[i as usize] as usize], 1);
                        self.queue.push(i);
                    }
                    3 => {
                        let k = deltaedge as usize;
                        self.allowedge[k] = true;
                        debug_assert_eq!(
                            self.label[self.inblossom[self.endpoint[2 * k] as usize] as usize],
                            1
                        );
                        self.queue.push(self.endpoint[2 * k]);
                    }
                    _ => self.expand_blossom(deltablossom as usize, false),
                }
            }

            // End of stage: expand S-blossoms whose dual hit zero.
            for b in n..two_n {
                if self.blossomparent[b] == NONE
                    && self.blossombase[b] >= 0
                    && self.label[b] == 1
                    && self.dualvar[b] == 0
                {
                    self.expand_blossom(b, true);
                }
            }
        }
    }

    /// Loads the graph for a solve over `n` vertices in one pass over
    /// the edges — doubled weights, endpoints, vertex degrees, and each
    /// vertex's jump-start dual (its largest incident weight) — then
    /// the CSR adjacency and an all-exposed matching. Nothing else is
    /// reset here: the stage tables wait for [`Self::prepare_stages`].
    /// No allocation once grown.
    fn prepare(&mut self, n: usize, edges: &[ClusterEdge]) {
        let m = edges.len();
        self.n = n;
        self.m = m;

        self.wt.clear();
        self.endpoint.clear();
        self.nb_off.clear();
        self.nb_off.resize(n + 1, 0);
        self.dualvar.clear();
        self.dualvar.resize(n, 0);
        for e in edges {
            assert!(
                (e.u as usize) < n && (e.v as usize) < n && e.u != e.v,
                "edge ({}, {}) out of range for {n} vertices",
                e.u,
                e.v
            );
            assert!(e.weight >= 0, "negative weight {} on edge ({}, {})", e.weight, e.u, e.v);
            let (u, v, w) = (e.u as usize, e.v as usize, 2 * e.weight);
            self.wt.push(w);
            self.endpoint.push(e.u);
            self.endpoint.push(e.v);
            self.nb_off[u + 1] += 1;
            self.nb_off[v + 1] += 1;
            self.dualvar[u] = self.dualvar[u].max(w);
            self.dualvar[v] = self.dualvar[v].max(w);
        }

        // CSR adjacency of remote endpoints.
        for i in 0..n {
            self.nb_off[i + 1] += self.nb_off[i];
        }
        self.nb.clear();
        self.nb.resize(2 * m, 0);
        let mut cursor = std::mem::take(&mut self.leaves);
        cursor.clear();
        cursor.extend_from_slice(&self.nb_off[..n]);
        for (k, e) in edges.iter().enumerate() {
            self.nb[cursor[e.u as usize] as usize] = (2 * k + 1) as u32;
            cursor[e.u as usize] += 1;
            self.nb[cursor[e.v as usize] as usize] = (2 * k) as u32;
            cursor[e.v as usize] += 1;
        }
        self.leaves = cursor;

        self.mate.clear();
        self.mate.resize(n, NONE);
    }

    /// Sizes and resets the stage tables — labels, blossom structure,
    /// best edges, allowed edges, free blossom slots — and the blossom
    /// half of the duals, for the stages about to run (no allocation
    /// once grown).
    fn prepare_stages(&mut self) {
        let (n, m, two_n) = (self.n, self.m, 2 * self.n);
        self.dualvar.resize(two_n, 0);
        self.label.clear();
        self.label.resize(two_n, 0);
        self.labelend.clear();
        self.labelend.resize(two_n, NONE);
        self.inblossom.clear();
        self.inblossom.extend(0..n as u32);
        self.blossomparent.clear();
        self.blossomparent.resize(two_n, NONE);
        self.blossombase.clear();
        self.blossombase.extend(0..n as i32);
        self.blossombase.resize(two_n, NONE);
        self.bestedge.clear();
        self.bestedge.resize(two_n, NONE);
        if self.blossomchilds.len() < two_n {
            self.blossomchilds.resize_with(two_n, Vec::new);
            self.blossomendps.resize_with(two_n, Vec::new);
            self.blossombest.resize_with(two_n, Vec::new);
        }
        for b in 0..two_n {
            self.blossomchilds[b].clear();
            self.blossomendps[b].clear();
            self.blossombest[b].clear();
        }
        self.has_best.clear();
        self.has_best.resize(two_n, false);
        self.allowedge.clear();
        self.allowedge.resize(m, false);
        self.queue.clear();
        self.unused.clear();
        self.unused.extend(n as u32..two_n as u32);
    }

    /// The jump start (see the module docs): every vertex dual starts
    /// at the vertex's largest incident weight (set by
    /// [`Self::prepare`]), and a reduction pass in vertex order
    /// tightens, matches or retires each vertex that is still exposed
    /// when its turn comes. An isolated vertex starts — and stays —
    /// retired at dual zero.
    fn jump_start(&mut self) {
        // Reduction: an exposed vertex gives up all the dual
        // feasibility lets it (down to `floor`, the largest shortfall
        // `2·w − y(v)` over its edges), which leaves it a tight edge or
        // retires it on the spot at dual zero; a tight edge that ends
        // in another exposed vertex matches the two.
        for u in 0..self.n {
            if self.mate[u] != NONE {
                continue;
            }
            let (mut floor, mut partner) = (0i64, NONE);
            for pi in self.nb_off[u] as usize..self.nb_off[u + 1] as usize {
                let p = self.nb[pi] as usize;
                let v = self.endpoint[p] as usize;
                let need = 2 * self.wt[p / 2] - self.dualvar[v];
                if need > floor {
                    (floor, partner) = (need, NONE);
                }
                if need == floor && partner == NONE && self.mate[v] == NONE {
                    partner = p as i32;
                }
            }
            self.dualvar[u] = floor;
            if partner != NONE {
                self.mate[u] = partner;
                self.mate[self.endpoint[partner as usize] as usize] = partner ^ 1;
                self.stats.jump_matched += 1;
            }
        }
    }

    /// Slack of edge `k` under the current duals (doubled weights keep
    /// every slack integral; zero slack means the edge is tight).
    #[inline]
    fn slack(&self, k: usize) -> i64 {
        self.dualvar[self.endpoint[2 * k] as usize]
            + self.dualvar[self.endpoint[2 * k + 1] as usize]
            - 2 * self.wt[k]
    }

    /// Arms free vertex `v` (best edge `k` to an S-blossom) as a type-2
    /// dual-step candidate: its slack shrinks one-for-one with the
    /// stage total, so `slack + t_now` is invariant.
    #[inline]
    fn push_delta2(&mut self, v: usize, k: usize) {
        self.delta_heap.push(Reverse((self.slack(k) + self.t_now, 2, v as u32)));
    }

    /// Arms top-level S-blossom `b` (best edge `k` to another
    /// S-blossom) as a type-3 candidate: both endpoints shrink, so the
    /// half-slack loses one per unit of stage total.
    #[inline]
    fn push_delta3(&mut self, b: usize, k: usize) {
        self.delta_heap.push(Reverse((self.slack(k) / 2 + self.t_now, 3, b as u32)));
    }

    /// Arms top-level T-blossom `b` as a type-4 (expansion) candidate:
    /// its dual shrinks one-for-one with the stage total.
    #[inline]
    fn push_delta4(&mut self, b: usize) {
        self.delta_heap.push(Reverse((self.dualvar[b] + self.t_now, 4, b as u32)));
    }

    /// The reference linear-scan dual step (the pre-heap algorithm,
    /// with the same type-1 tie rule as the solve loop), kept as the
    /// debug-build cross-check of every heap decision.
    /// Returns `(deltatype, delta)`; on ties the chosen *candidate* may
    /// differ from the heap's, but the delta value is what downstream
    /// correctness depends on.
    #[cfg(debug_assertions)]
    fn reference_delta(&self) -> (i32, i64) {
        let (n, two_n) = (self.n, 2 * self.n);
        let mut deltatype = -1;
        let mut delta = 0i64;
        for v in 0..n {
            if self.label[self.inblossom[v] as usize] == 0 && self.bestedge[v] != NONE {
                let d = self.slack(self.bestedge[v] as usize);
                if deltatype == -1 || d < delta {
                    delta = d;
                    deltatype = 2;
                }
            }
        }
        for b in 0..two_n {
            if self.blossomparent[b] == NONE && self.label[b] == 1 && self.bestedge[b] != NONE {
                let d = self.slack(self.bestedge[b] as usize) / 2;
                if deltatype == -1 || d < delta {
                    delta = d;
                    deltatype = 3;
                }
            }
        }
        for b in n..two_n {
            if self.blossombase[b] >= 0
                && self.blossomparent[b] == NONE
                && self.label[b] == 2
                && (deltatype == -1 || self.dualvar[b] < delta)
            {
                delta = self.dualvar[b];
                deltatype = 4;
            }
        }
        // `i64::MAX` with no S-vertex, like the solve loop's running
        // minimum (a running stage always has its root).
        let delta1 = (0..n)
            .filter(|&v| self.label[self.inblossom[v] as usize] == 1)
            .map(|v| self.dualvar[v])
            .fold(i64::MAX, i64::min);
        if deltatype == -1 || delta1 < delta {
            (1, delta1)
        } else {
            (deltatype, delta)
        }
    }

    /// The optimality certificate, checked after every debug-build
    /// solve: the duals are feasible (`y ≥ 0`, `z ≥ 0`, no edge over
    /// covered), every matched edge is tight, and every unmatched
    /// vertex sits at dual zero — complementary slackness for
    /// maximum-weight matching, so the matching is a maximum. A
    /// zero-stage solve built no stage table and has no blossom, so
    /// only the vertex duals are read then.
    #[cfg(debug_assertions)]
    fn assert_optimal(&self) {
        let n = self.n;
        let staged = self.stats.stages > 0;
        for v in 0..n {
            assert!(self.dualvar[v] >= 0, "vertex {v} has negative dual");
            assert!(
                self.mate[v] >= 0 || self.dualvar[v] == 0,
                "vertex {v} is unmatched at dual {}",
                self.dualvar[v]
            );
        }
        if staged {
            for b in n..2 * n {
                assert!(
                    self.blossombase[b] < 0 || self.dualvar[b] >= 0,
                    "blossom {b} has negative dual"
                );
            }
        }
        // The blossoms containing `v`, innermost first.
        let chain = |v: usize| {
            let up = |b: i32| Some(self.blossomparent[b as usize]).filter(|&p| p != NONE);
            std::iter::successors(up(v as i32), move |&b| up(b))
        };
        for k in 0..self.m {
            let (u, v) = (self.endpoint[2 * k] as usize, self.endpoint[2 * k + 1] as usize);
            // Blossom duals cover the edges inside them.
            let z: i64 = if staged {
                chain(u)
                    .filter(|&b| chain(v).any(|c| c == b))
                    .map(|b| self.dualvar[b as usize])
                    .sum()
            } else {
                0
            };
            let s = self.slack(k) + 2 * z;
            assert!(s >= 0, "edge ({u}, {v}) is over-covered by {s}");
            if self.mate[u] >= 0 && self.mate[u] as usize / 2 == k {
                assert_eq!(s, 0, "matched edge ({u}, {v}) is not tight");
            }
        }
    }

    /// Folds vertex `v`, which just turned S, into the running type-1
    /// candidate: its dual falls one-for-one with the stage total from
    /// here on, so `dual + t_now` is invariant.
    #[inline]
    fn note_s_vertex(&mut self, v: usize) {
        let key = self.dualvar[v] + self.t_now;
        if key < self.s_min_key {
            self.s_min_key = key;
            self.s_min_vertex = v as u32;
        }
    }

    /// Appends every real vertex inside blossom `b` to `out`.
    fn collect_leaves(&self, b: usize, out: &mut Vec<u32>) {
        if b < self.n {
            out.push(b as u32);
        } else {
            for &t in &self.blossomchilds[b] {
                self.collect_leaves(t as usize, out);
            }
        }
    }

    /// Labels vertex `w` (and its top-level blossom) with `t`, reached
    /// through remote endpoint `p`. An S label enqueues the blossom's
    /// vertices for scanning; a T label immediately pulls the base's
    /// mate into the tree as S.
    fn assign_label(&mut self, w: usize, t: i8, p: i32) {
        let b = self.inblossom[w] as usize;
        debug_assert!(self.label[w] == 0 && self.label[b] == 0);
        self.label[w] = t;
        self.label[b] = t;
        self.labelend[w] = p;
        self.labelend[b] = p;
        self.bestedge[w] = NONE;
        self.bestedge[b] = NONE;
        if t == 2 && b >= self.n {
            // A top-level blossom turned T: it is now an expansion
            // candidate for the dual step.
            self.push_delta4(b);
        }
        if t == 1 {
            let mut leaves = std::mem::take(&mut self.leaves);
            leaves.clear();
            self.collect_leaves(b, &mut leaves);
            for &v in &leaves {
                self.note_s_vertex(v as usize);
            }
            self.queue.extend_from_slice(&leaves);
            self.leaves = leaves;
        } else {
            let base = self.blossombase[b] as usize;
            let mate_base = self.mate[base];
            debug_assert!(mate_base >= 0);
            let next = self.endpoint[mate_base as usize] as usize;
            self.assign_label(next, 1, mate_base ^ 1);
        }
    }

    /// Traces back from the S-vertices `v` and `w` simultaneously.
    /// Returns the base vertex of the first common ancestor blossom, or
    /// -1 if the paths reach two different roots (an augmenting path).
    fn scan_blossom(&mut self, mut v: i32, mut w: i32) -> i32 {
        let mut path = std::mem::take(&mut self.scan_path);
        path.clear();
        let mut base = NONE;
        while v != NONE || w != NONE {
            let mut b = self.inblossom[v as usize] as usize;
            if self.label[b] & 4 != 0 {
                base = self.blossombase[b];
                break;
            }
            debug_assert_eq!(self.label[b], 1);
            path.push(b as u32);
            self.label[b] = 5; // breadcrumb
            debug_assert_eq!(self.labelend[b], self.mate[self.blossombase[b] as usize]);
            if self.labelend[b] == NONE {
                v = NONE; // reached a root
            } else {
                v = self.endpoint[self.labelend[b] as usize] as i32;
                b = self.inblossom[v as usize] as usize;
                debug_assert_eq!(self.label[b], 2);
                debug_assert!(self.labelend[b] >= 0);
                v = self.endpoint[self.labelend[b] as usize] as i32;
            }
            if w != NONE {
                std::mem::swap(&mut v, &mut w);
            }
        }
        for &b in &path {
            self.label[b as usize] = 1;
        }
        self.scan_path = path;
        base
    }

    /// Shrinks the odd alternating cycle through edge `k` with common
    /// ancestor base `base` into a new blossom node.
    fn add_blossom(&mut self, base: usize, k: usize) {
        let (mut v, mut w) = (self.endpoint[2 * k] as usize, self.endpoint[2 * k + 1] as usize);
        let bb = self.inblossom[base] as usize;
        let mut bv = self.inblossom[v] as usize;
        let mut bw = self.inblossom[w] as usize;
        // btwc-allow(PANIC-HOT): arena invariant — `unused` is sized to
        // one blossom slot per event, so a pop only fails on internal
        // corruption, not on any decodable input.
        let b = self.unused.pop().expect("a cluster of n events needs at most n blossoms") as usize;
        self.stats.shrunk += 1;
        self.blossombase[b] = base as i32;
        self.blossomparent[b] = NONE;
        self.blossomparent[bb] = b as i32;

        // Collect the cycle's sub-blossoms and connecting endpoints:
        // walk both tree paths down to the base.
        let mut path = std::mem::take(&mut self.blossomchilds[b]);
        let mut endps = std::mem::take(&mut self.blossomendps[b]);
        path.clear();
        endps.clear();
        while bv != bb {
            self.blossomparent[bv] = b as i32;
            path.push(bv as u32);
            endps.push(self.labelend[bv] as u32);
            debug_assert!(self.labelend[bv] >= 0);
            v = self.endpoint[self.labelend[bv] as usize] as usize;
            bv = self.inblossom[v] as usize;
        }
        path.push(bb as u32);
        path.reverse();
        endps.reverse();
        endps.push((2 * k) as u32);
        while bw != bb {
            self.blossomparent[bw] = b as i32;
            path.push(bw as u32);
            endps.push((self.labelend[bw] ^ 1) as u32);
            debug_assert!(self.labelend[bw] >= 0);
            w = self.endpoint[self.labelend[bw] as usize] as usize;
            bw = self.inblossom[w] as usize;
        }
        debug_assert_eq!(self.label[bb], 1);
        self.label[b] = 1;
        self.labelend[b] = self.labelend[bb];
        self.dualvar[b] = 0;
        self.blossomchilds[b] = path;
        self.blossomendps[b] = endps;

        // Former T-vertices become S-vertices of the new blossom.
        let mut leaves = std::mem::take(&mut self.leaves);
        leaves.clear();
        self.collect_leaves(b, &mut leaves);
        for &vx in &leaves {
            let vx = vx as usize;
            if self.label[self.inblossom[vx] as usize] == 2 {
                self.note_s_vertex(vx);
                self.queue.push(vx as u32);
            }
            self.inblossom[vx] = b as u32;
        }
        self.leaves = leaves;

        // Merge the sub-blossoms' least-slack edge lists.
        let two_n = 2 * self.n;
        let mut bestedgeto = std::mem::take(&mut self.bestedgeto);
        bestedgeto.clear();
        bestedgeto.resize(two_n, NONE);
        let mut cand = std::mem::take(&mut self.cand);
        for ci in 0..self.blossomchilds[b].len() {
            let bvx = self.blossomchilds[b][ci] as usize;
            cand.clear();
            if self.has_best[bvx] {
                cand.extend_from_slice(&self.blossombest[bvx]);
            } else {
                let mut lvs = std::mem::take(&mut self.leaves2);
                lvs.clear();
                self.collect_leaves(bvx, &mut lvs);
                for &lf in &lvs {
                    let lf = lf as usize;
                    for pi in self.nb_off[lf] as usize..self.nb_off[lf + 1] as usize {
                        cand.push(self.nb[pi] / 2);
                    }
                }
                self.leaves2 = lvs;
            }
            for &kk in &cand {
                let kk = kk as usize;
                let (mut i, mut j) =
                    (self.endpoint[2 * kk] as usize, self.endpoint[2 * kk + 1] as usize);
                if self.inblossom[j] as usize == b {
                    std::mem::swap(&mut i, &mut j);
                }
                let bj = self.inblossom[j] as usize;
                if bj != b
                    && self.label[bj] == 1
                    && (bestedgeto[bj] == NONE
                        || self.slack(kk) < self.slack(bestedgeto[bj] as usize))
                {
                    bestedgeto[bj] = kk as i32;
                }
            }
            self.blossombest[bvx].clear();
            self.has_best[bvx] = false;
            self.bestedge[bvx] = NONE;
        }
        self.cand = cand;
        let mut best = std::mem::take(&mut self.blossombest[b]);
        best.clear();
        let mut bk = NONE;
        for &e in bestedgeto.iter() {
            if e != NONE {
                best.push(e as u32);
                if bk == NONE || self.slack(e as usize) < self.slack(bk as usize) {
                    bk = e;
                }
            }
        }
        self.bestedgeto = bestedgeto;
        self.blossombest[b] = best;
        self.has_best[b] = true;
        self.bestedge[b] = bk;
        if bk != NONE {
            // The merged S-blossom inherits a least-slack edge; its
            // buried children's candidates die at validation.
            self.push_delta3(b, bk as usize);
        }
    }

    /// Expands blossom `b`, promoting its children to top level. During
    /// a stage (`endstage == false`, dual hit zero on a T-blossom) the
    /// children along the alternating path through the blossom are
    /// relabeled; at stage end the structure is simply dissolved.
    fn expand_blossom(&mut self, b: usize, endstage: bool) {
        // Take `b`'s lists for the duration of the call (returned
        // cleared below, so the capacity is recycled, not reallocated):
        // nothing below reads `blossomchilds[b]`/`blossomendps[b]`
        // through `self` — recursion and leaf collection only touch
        // sub-blossoms, whose vertices were re-pointed away from `b`
        // first.
        let childs = std::mem::take(&mut self.blossomchilds[b]);
        let endps = std::mem::take(&mut self.blossomendps[b]);
        for &s in &childs {
            let s = s as usize;
            self.blossomparent[s] = NONE;
            if s < self.n {
                self.inblossom[s] = s as u32;
            } else if endstage && self.dualvar[s] == 0 {
                self.expand_blossom(s, endstage);
            } else {
                let mut lvs = std::mem::take(&mut self.leaves2);
                lvs.clear();
                self.collect_leaves(s, &mut lvs);
                for &v in &lvs {
                    self.inblossom[v as usize] = s as u32;
                }
                self.leaves2 = lvs;
            }
        }
        if !endstage && self.label[b] == 2 {
            let len = childs.len() as isize;
            let idx = |j: isize| -> usize { j.rem_euclid(len) as usize };
            debug_assert!(self.labelend[b] >= 0);
            let entrychild =
                self.inblossom[self.endpoint[(self.labelend[b] ^ 1) as usize] as usize] as usize;
            let mut j = childs
                .iter()
                .position(|&c| c as usize == entrychild)
                // btwc-allow(PANIC-HOT): blossom invariant — the entry
                // endpoint's enclosing sub-blossom is a child of `b` by
                // the `inblossom` relation maintained in add_blossom.
                .expect("entry child must be a sub-blossom") as isize;
            let (jstep, endptrick): (isize, u32) = if j & 1 != 0 {
                j -= len;
                (1, 0)
            } else {
                (-1, 1)
            };
            // Walk from the entry child to the base, alternately
            // relabeling T- and stepping over S-sub-blossoms.
            let mut p = self.labelend[b] as u32;
            while j != 0 {
                let ep1 = self.endpoint[(p ^ 1) as usize] as usize;
                self.label[ep1] = 0;
                let q = endps[idx(j - endptrick as isize)] ^ endptrick ^ 1;
                self.label[self.endpoint[q as usize] as usize] = 0;
                self.assign_label(ep1, 2, p as i32);
                self.allowedge[(endps[idx(j - endptrick as isize)] / 2) as usize] = true;
                j += jstep;
                p = endps[idx(j - endptrick as isize)] ^ endptrick;
                self.allowedge[(p / 2) as usize] = true;
                j += jstep;
            }
            // Relabel the base sub-blossom without stepping to its mate.
            let bv = childs[idx(j)] as usize;
            let ep1 = self.endpoint[(p ^ 1) as usize] as usize;
            self.label[ep1] = 2;
            self.label[bv] = 2;
            self.labelend[ep1] = p as i32;
            self.labelend[bv] = p as i32;
            self.bestedge[bv] = NONE;
            if bv >= self.n {
                // Direct T relabel (bypasses `assign_label`): arm the
                // freshly exposed sub-blossom for expansion.
                self.push_delta4(bv);
            }
            // The remaining children leave the tree unless a vertex of
            // theirs was reached from outside the expanding blossom.
            j += jstep;
            while childs[idx(j)] as usize != entrychild {
                let bv = childs[idx(j)] as usize;
                if self.label[bv] == 1 {
                    j += jstep;
                    continue;
                }
                let mut lvs = std::mem::take(&mut self.leaves2);
                lvs.clear();
                self.collect_leaves(bv, &mut lvs);
                let labeled =
                    lvs.iter().copied().find(|&v| self.label[v as usize] != 0).map(|v| v as usize);
                if let Some(v) = labeled {
                    self.leaves2 = lvs;
                    debug_assert_eq!(self.label[v], 2);
                    debug_assert_eq!(self.inblossom[v] as usize, bv);
                    self.label[v] = 0;
                    let base = self.blossombase[bv] as usize;
                    self.label[self.endpoint[self.mate[base] as usize] as usize] = 0;
                    let le = self.labelend[v];
                    self.assign_label(v, 2, le);
                } else {
                    // The child leaves the tree free: vertices that
                    // tracked a best edge while buried become live
                    // type-2 candidates again, so re-arm them (their
                    // slacks were frozen inside the T-blossom, leaving
                    // any old heap entries as harmless underestimates).
                    for &u in &lvs {
                        let u = u as usize;
                        if self.bestedge[u] != NONE {
                            let k = self.bestedge[u] as usize;
                            self.push_delta2(u, k);
                        }
                    }
                    self.leaves2 = lvs;
                }
                j += jstep;
            }
        }
        // Recycle the slot (and the taken lists' capacity).
        let (mut childs, mut endps) = (childs, endps);
        childs.clear();
        endps.clear();
        self.blossomchilds[b] = childs;
        self.blossomendps[b] = endps;
        self.label[b] = -1;
        self.labelend[b] = NONE;
        self.blossombase[b] = NONE;
        self.blossombest[b].clear();
        self.has_best[b] = false;
        self.bestedge[b] = NONE;
        self.unused.push(b as u32);
    }

    /// Swaps matched and unmatched edges around blossom `b` so that
    /// vertex `v` becomes its base (recursing into sub-blossoms).
    fn augment_blossom(&mut self, b: usize, v: usize) {
        let mut t = v;
        while self.blossomparent[t] != b as i32 {
            t = self.blossomparent[t] as usize;
        }
        if t >= self.n {
            self.augment_blossom(t, v);
        }
        // Take `b`'s lists for the walk (restored rotated below):
        // recursive augments only ever reference sub-blossoms of `b`.
        let mut childs = std::mem::take(&mut self.blossomchilds[b]);
        let mut endps = std::mem::take(&mut self.blossomendps[b]);
        let len = childs.len() as isize;
        let idx = |j: isize| -> usize { j.rem_euclid(len) as usize };
        // btwc-allow(PANIC-HOT): blossom invariant — `t` comes from the
        // caller walking `blossomchilds[b]`, so membership holds by
        // construction; hostile input cannot reach this.
        let i = childs.iter().position(|&c| c as usize == t).expect("t is a child of b") as isize;
        let mut j = i;
        let (jstep, endptrick): (isize, u32) = if i & 1 != 0 {
            j -= len;
            (1, 0)
        } else {
            (-1, 1)
        };
        while j != 0 {
            j += jstep;
            let t1 = childs[idx(j)] as usize;
            let p = endps[idx(j - endptrick as isize)] ^ endptrick;
            if t1 >= self.n {
                self.augment_blossom(t1, self.endpoint[p as usize] as usize);
            }
            j += jstep;
            let t2 = childs[idx(j)] as usize;
            if t2 >= self.n {
                self.augment_blossom(t2, self.endpoint[(p ^ 1) as usize] as usize);
            }
            self.mate[self.endpoint[p as usize] as usize] = (p ^ 1) as i32;
            self.mate[self.endpoint[(p ^ 1) as usize] as usize] = p as i32;
        }
        childs.rotate_left(i as usize);
        endps.rotate_left(i as usize);
        self.blossombase[b] = self.blossombase[childs[0] as usize];
        self.blossomchilds[b] = childs;
        self.blossomendps[b] = endps;
    }

    /// Augments the matching along the path through tight edge `k`,
    /// flipping matched/unmatched edges back from each endpoint: to its
    /// tree root, or no further than the endpoint itself when that is a
    /// retired vertex or blossom.
    fn augment_matching(&mut self, k: usize) {
        self.flip_to_root(self.endpoint[2 * k] as usize, (2 * k + 1) as i32);
        self.flip_to_root(self.endpoint[2 * k + 1] as usize, (2 * k) as i32);
    }

    /// Retires S-vertex `v`, whose dual a type-1 step just brought to
    /// zero: flipping its even alternating path to the root (through
    /// [`BlossomArena::augment_blossom`] rotations wherever the path
    /// crosses a blossom) matches the root and leaves `v` the exposed
    /// one, at the only dual an unmatched vertex may keep.
    fn retire(&mut self, v: usize) {
        debug_assert_eq!(self.dualvar[v], 0, "only a zero-dual vertex retires");
        self.stats.retired += 1;
        self.stats.retired_in_blossom += u32::from(self.inblossom[v] as usize >= self.n);
        self.flip_to_root(v, NONE);
    }

    /// Flips matched/unmatched edges along the alternating tree path
    /// from vertex `s` to its root, leaving `s` matched through remote
    /// endpoint `p` (`NONE` to leave it exposed — a retirement).
    fn flip_to_root(&mut self, mut s: usize, mut p: i32) {
        loop {
            let bs = self.inblossom[s] as usize;
            // The path runs through S-blossoms; only an augmentation's
            // far end may be unlabeled, and then it is retired.
            debug_assert!(
                self.label[bs] == 1
                    || (self.label[bs] == 0 && {
                        let base = self.blossombase[bs] as usize;
                        self.mate[base] == NONE && self.dualvar[base] == 0
                    }),
                "flip through blossom {bs} labeled {}",
                self.label[bs]
            );
            debug_assert_eq!(self.labelend[bs], self.mate[self.blossombase[bs] as usize]);
            if bs >= self.n {
                self.augment_blossom(bs, s);
            }
            self.mate[s] = p;
            if self.labelend[bs] == NONE {
                break; // reached the tree root (or the retired end)
            }
            let t = self.endpoint[self.labelend[bs] as usize] as usize;
            let bt = self.inblossom[t] as usize;
            debug_assert_eq!(self.label[bt], 2);
            debug_assert!(self.labelend[bt] >= 0);
            s = self.endpoint[self.labelend[bt] as usize] as usize;
            let j = self.endpoint[(self.labelend[bt] ^ 1) as usize] as usize;
            debug_assert_eq!(self.blossombase[bt] as usize, t);
            if bt >= self.n {
                self.augment_blossom(bt, j);
            }
            self.mate[j] = self.labelend[bt];
            p = self.labelend[bt] ^ 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btwc_noise::SimRng;
    use btwc_testutil::fuzz_window_budget;

    fn solve_fresh(n: usize, edges: &[ClusterEdge]) -> (Vec<(usize, usize)>, i64) {
        let mut arena = BlossomArena::new();
        let mut pairs = Vec::new();
        let total = arena.solve(n, edges, &mut pairs);
        (pairs, total)
    }

    /// The exponential reference: the maximum total weight of any
    /// matching, perfect or not, by recursion on the lowest vertex of
    /// the remaining set (it stays unmatched, or takes any partner).
    fn brute_max_weight(n: usize, edges: &[ClusterEdge]) -> i64 {
        fn best(mask: u32, w: &[Vec<Option<i64>>], memo: &mut [Option<i64>]) -> i64 {
            if mask == 0 {
                return 0;
            }
            if let Some(b) = memo[mask as usize] {
                return b;
            }
            let i = mask.trailing_zeros() as usize;
            let rest = mask & (mask - 1);
            let mut b = best(rest, w, memo);
            for (j, wij) in w[i].iter().enumerate() {
                if let (true, Some(wij)) = (rest >> j & 1 == 1, wij) {
                    b = b.max(wij + best(rest & !(1 << j), w, memo));
                }
            }
            memo[mask as usize] = Some(b);
            b
        }
        let mut w = vec![vec![None; n]; n];
        for e in edges {
            let (u, v) = (e.u as usize, e.v as usize);
            let heavier = w[u][v].map_or(e.weight, |old: i64| old.max(e.weight));
            w[u][v] = Some(heavier);
            w[v][u] = Some(heavier);
        }
        best((1u32 << n) - 1, &w, &mut vec![None; 1 << n])
    }

    /// Solves with `arena` and checks the answer three ways: the pairs
    /// are a matching over real edges, their weights add up to the
    /// returned total, and the total is the exponential reference's.
    fn check(arena: &mut BlossomArena, n: usize, edges: &[ClusterEdge]) {
        let mut pairs = Vec::new();
        let total = arena.solve(n, edges, &mut pairs);
        let mut seen = vec![false; n];
        let mut sum = 0;
        for &(u, v) in &pairs {
            assert!(u < v && !seen[u] && !seen[v], "n={n} edges={edges:?}: bad pairs {pairs:?}");
            seen[u] = true;
            seen[v] = true;
            sum += edges
                .iter()
                .filter(|e| (e.u as usize, e.v as usize) == (u, v))
                .map(|e| e.weight)
                .max()
                .unwrap_or_else(|| panic!("n={n} edges={edges:?}: ({u}, {v}) is not an edge"));
        }
        assert_eq!(sum, total, "n={n} edges={edges:?}: pairs {pairs:?} do not add up");
        assert_eq!(total, brute_max_weight(n, edges), "n={n} edges={edges:?}: pairs {pairs:?}");
    }

    #[test]
    fn empty_graph_is_trivially_matched() {
        let (pairs, total) = solve_fresh(0, &[]);
        assert!(pairs.is_empty());
        assert_eq!(total, 0);
    }

    #[test]
    fn isolated_vertices_stay_unmatched() {
        let (pairs, total) = solve_fresh(3, &[]);
        assert!(pairs.is_empty());
        assert_eq!(total, 0);
    }

    #[test]
    fn two_vertices_single_edge() {
        let (pairs, total) = solve_fresh(2, &[ClusterEdge::new(0, 1, 7)]);
        assert_eq!(pairs, vec![(0, 1)]);
        assert_eq!(total, 7);
    }

    #[test]
    fn path_prefers_the_heavy_middle_edge() {
        // 0 -1- 1 -5- 2 -1- 3: matching the middle edge alone (5) beats
        // the perfect matching of the two outer ones (2).
        let edges =
            [ClusterEdge::new(0, 1, 1), ClusterEdge::new(1, 2, 5), ClusterEdge::new(2, 3, 1)];
        let (pairs, total) = solve_fresh(4, &edges);
        assert_eq!(pairs, vec![(1, 2)]);
        assert_eq!(total, 5);
    }

    #[test]
    fn path_prefers_two_light_outer_edges() {
        // 0 -3- 1 -5- 2 -3- 3: now the outer pair (6) wins.
        let edges =
            [ClusterEdge::new(0, 1, 3), ClusterEdge::new(1, 2, 5), ClusterEdge::new(2, 3, 3)];
        let (pairs, total) = solve_fresh(4, &edges);
        assert_eq!(pairs, vec![(0, 1), (2, 3)]);
        assert_eq!(total, 6);
    }

    #[test]
    fn odd_cycle_leaves_one_vertex_out() {
        let edges =
            [ClusterEdge::new(0, 1, 4), ClusterEdge::new(1, 2, 4), ClusterEdge::new(0, 2, 4)];
        let (pairs, total) = solve_fresh(3, &edges);
        assert_eq!(pairs.len(), 1);
        assert_eq!(total, 4);
    }

    #[test]
    fn star_graph_matches_its_heaviest_edge() {
        // All edges share vertex 0, so only one can be matched; the
        // other two leaves stay out.
        let edges =
            [ClusterEdge::new(0, 1, 2), ClusterEdge::new(0, 2, 3), ClusterEdge::new(0, 3, 1)];
        let (pairs, total) = solve_fresh(4, &edges);
        assert_eq!(pairs, vec![(0, 2)]);
        assert_eq!(total, 3);
    }

    #[test]
    fn triangles_joined_by_bridge_force_blossoms() {
        // Two odd cycles joined by one heavy bridge: the solver must
        // shrink both triangles to route the matching through the
        // bridge and still pair off the four other corners.
        let edges = [
            ClusterEdge::new(0, 1, 6),
            ClusterEdge::new(1, 2, 6),
            ClusterEdge::new(0, 2, 6),
            ClusterEdge::new(3, 4, 6),
            ClusterEdge::new(4, 5, 6),
            ClusterEdge::new(3, 5, 6),
            ClusterEdge::new(2, 3, 7),
        ];
        let (pairs, total) = solve_fresh(6, &edges);
        assert_eq!(total, 19);
        assert_eq!(pairs, vec![(0, 1), (2, 3), (4, 5)]);
    }

    #[test]
    fn zero_weight_edges_are_allowed() {
        let edges = [
            ClusterEdge::new(0, 1, 0),
            ClusterEdge::new(2, 3, 0),
            ClusterEdge::new(0, 2, 5),
            ClusterEdge::new(1, 3, 5),
        ];
        let (_, total) = solve_fresh(4, &edges);
        assert_eq!(total, 10);
    }

    #[test]
    #[should_panic(expected = "negative weight")]
    fn negative_weight_rejected() {
        let _ = solve_fresh(2, &[ClusterEdge::new(0, 1, -3)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_rejected() {
        let _ = solve_fresh(2, &[ClusterEdge::new(0, 2, 1)]);
    }

    /// Every graph on `n` vertices whose edges each take a weight from
    /// `weights` or are absent, against the exponential reference, on
    /// one reused arena. Returns the graph count and how many of the
    /// solves returned early, with zero stages.
    fn exhaust(arena: &mut BlossomArena, n: usize, weights: &[i64]) -> (u64, u64) {
        let slots: Vec<(u32, u32)> =
            (0..n as u32).flat_map(|u| (u + 1..n as u32).map(move |v| (u, v))).collect();
        let base = weights.len() as u64 + 1;
        let graphs = base.pow(slots.len() as u32);
        let mut edges = Vec::new();
        let mut early = 0;
        for code in 0..graphs {
            edges.clear();
            let mut c = code;
            for &(u, v) in &slots {
                let choice = (c % base) as usize;
                c /= base;
                if choice > 0 {
                    edges.push(ClusterEdge::new(u, v, weights[choice - 1]));
                }
            }
            check(arena, n, &edges);
            early += u64::from(arena.stats().stages == 0);
        }
        (graphs, early)
    }

    #[test]
    fn every_small_graph_matches_the_exponential_reference() {
        // Checked to a bound, not sampled: all graphs on up to five
        // vertices with edge weights in {absent, 1, 2}, and all
        // unit-weight graphs on six — odd vertex counts, isolated
        // vertices and disconnected graphs included. The certificate
        // runs after every solve in debug builds, the early zero-stage
        // returns included.
        let mut arena = BlossomArena::new();
        let (mut graphs, mut early) = (0, 0);
        for n in 1..=6 {
            let weights: &[i64] = if n < 6 { &[1, 2] } else { &[1] };
            let (g, e) = exhaust(&mut arena, n, weights);
            graphs += g;
            early += e;
        }
        assert_eq!(graphs, 1 + 3 + 27 + 729 + 59_049 + 32_768);
        // Vacuity guard: both the early return and the stages ran.
        assert!(early > 0 && early < graphs, "{early} of {graphs} solves returned early");
    }

    #[test]
    fn matches_brute_force_on_random_sparse_graphs() {
        // The seeded sweep beyond the exhaustive bound: n up to 12 on
        // one arena reused across sizes, weights from a small range so
        // that ties — simultaneous dual steps — are the rule, at
        // densities from near-forest to near-complete. The default
        // budget keeps `cargo test -q` fast; CI's slow-fuzz job raises
        // it through `BTWC_FUZZ_WINDOWS`.
        let cases = fuzz_window_budget(1000) * 3;
        let mut rng = SimRng::from_seed(0xB10550);
        let mut arena = BlossomArena::new();
        let mut seen = SolveStats::default();
        let mut early = 0;
        for _case in 0..cases {
            let n = 1 + rng.below(12);
            let density = [0.15, 0.3, 0.5, 0.8][rng.below(4)];
            let top = [2, 3, 6, 16][rng.below(4)];
            let mut edges = Vec::new();
            for u in 0..n as u32 {
                for v in (u + 1)..n as u32 {
                    if rng.bernoulli(density) {
                        edges.push(ClusterEdge::new(u, v, 1 + rng.below(top) as i64));
                    }
                }
            }
            check(&mut arena, n, &edges);
            let st = arena.stats();
            early += u32::from(st.stages == 0);
            seen.stages += st.stages;
            seen.jump_matched += st.jump_matched;
            seen.shrunk += st.shrunk;
            seen.retired += st.retired;
            seen.retired_in_blossom += st.retired_in_blossom;
            seen.retired_augments += st.retired_augments;
        }
        // Vacuity guard: the jump start must not have solved
        // everything on its own, and the sweep must have driven every
        // path the imperfect-matching rules add, not only the classic
        // ones.
        assert!(seen.jump_matched > 0 && seen.stages > 0 && seen.shrunk > 0, "{seen:?}");
        assert!(early > 0, "no solve returned early with zero stages: {seen:?}");
        assert!(seen.retired > seen.retired_in_blossom, "no plain-vertex retirement: {seen:?}");
        assert!(seen.retired_in_blossom > 0, "no retirement inside a blossom: {seen:?}");
        assert!(seen.retired_augments > 0, "no augmentation into a retired vertex: {seen:?}");
    }

    #[test]
    fn arena_reuse_across_sizes_matches_fresh_runs() {
        let mut arena = BlossomArena::new();
        let mut rng = SimRng::from_seed(0xA2E4A);
        for _case in 0..150 {
            let n = 1 + rng.below(12);
            let mut edges = Vec::new();
            for u in 0..n as u32 {
                for v in (u + 1)..n as u32 {
                    if rng.bernoulli(0.6) {
                        edges.push(ClusterEdge::new(u, v, (rng.next_u64() % 9) as i64));
                    }
                }
            }
            let mut reused = Vec::new();
            let total_reused = arena.solve(n, &edges, &mut reused);
            let (fresh, total_fresh) = solve_fresh(n, &edges);
            assert_eq!(total_reused, total_fresh, "n={n} edges={edges:?}");
            assert_eq!(reused, fresh, "reused arena must not change the matching");
        }
    }
}
