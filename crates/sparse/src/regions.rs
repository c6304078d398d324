//! Region collision: which detection events can possibly be matched
//! together.
//!
//! Conceptually, every detection event grows a region on the space-time
//! detector graph (spatial hops along detector-graph edges, temporal
//! hops between adjacent rounds, all unit weight — exactly the metric
//! the dense decoder's `distance + |Δround|` closure encodes). The
//! region's radius is capped at the event's own boundary distance: the
//! boundary is always there as an exit at that price, so an event never
//! bids more than it for a partner. Two regions collide iff
//!
//! ```text
//! d(u, v) = distance(aᵤ, aᵥ) + |tᵤ − tᵥ|  ≤  bd(u) + bd(v)
//! ```
//!
//! that is, iff pairing the two costs no more than two boundary exits.
//! Merging colliding regions with a union-find therefore yields
//! clusters with the decomposition property the decoder builds on:
//!
//! > no minimum-weight matching pairs events across clusters — every
//! > cross-cluster pair is strictly beaten by two boundary exits.
//!
//! **Ties pair.** Including the equality case lets the decoder pair
//! wherever pairing and two exits weigh the same (the per-cluster solve
//! maximizes the pair count among minimum-weight matchings, see
//! `crate::decoder`). Both are exact decodes, but they are not equally
//! likely explanations once Clique has acted: a sticky-filter
//! correction of a qubit next to the boundary lights the
//! same ancilla at rounds `t` and `t + k`, and at `k = 2·bd` that
//! time-like pair ties with two exits. It is the data error and its
//! correction, so pairing it is right. Over the full-scale Fig. 14
//! grid, exiting ties would give the Clique column 2 830 failures
//! against 2 234 with ties paired (2 347 under the dense oracle's
//! tie-breaks; `EXPERIMENTS.md`).
//!
//! **The scan.** Events are walked in round order, so the time term
//! alone prunes far-apart pairs wholesale: once
//! `Δt > bd(u) + max_boundary_distance`, no later event can collide
//! with `u` and the inner loop breaks. Each event's `(round, ancilla,
//! bd)` is copied once, in that order, into a flat recycled buffer, and
//! each `u` reads its partners' distances from one contiguous row of
//! the lattice's once-per-code table ([`DetectorGraph::distance_row`]).
//! The inner loop has no data-dependent branch besides the horizon
//! break: every probe writes its candidate edge and advances the output
//! cursor by `(d ≤ bid) as usize`, so misses cost a store that the next
//! probe overwrites. A `Δt > bid` shortcut would only add a branch:
//! `d ≥ Δt`, so `d ≤ bid` already rules those pairs out. Unions run
//! over the finished edge list afterwards, in list order, which is the
//! order the pairs were found: roots, cluster order and the solver's
//! edge-order tie-breaks are those of a scan that unions as it goes.
//!
//! **Why not buckets.** An output-sensitive alternative — per-round
//! ancilla buckets plus a per-code list of the ancillas within
//! collision range of each ancilla — probes *more*, not less, at the
//! distances this decoder serves: at d = 13 an event's collision ball
//! covers most of the 84-ancilla lattice for up to 13 rounds, 192
//! cells per event on `escalation_heavy` windows (148 once clipped to
//! the window's rounds), against the 20.4 pair probes per event this
//! scan makes there to find 6.0 collisions per event. The scan is
//! already within 3.4× of its output; what it needed was cheaper
//! probes.
//!
//! No per-decode event matrix is ever materialized — edge weights only
//! come into existence inside the small clusters the per-cluster solver
//! actually matches.

use btwc_lattice::DetectorGraph;
use btwc_syndrome::DetectionEvent;

use crate::blossom::ClusterEdge;
use crate::scratch::SparseScratch;

/// One event as the collision scan reads it: copied once, in scan
/// order, so the inner loop walks one flat array.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ScanEvent {
    round: u32,
    ancilla: u32,
    /// Boundary distance of the ancilla: the event's bid for a partner.
    bd: u32,
    /// Index of the event in the decode's event list.
    event: u32,
}

/// Merges every colliding pair of regions.
///
/// On return, `scratch`'s union-find partitions `0..events.len()` into
/// the matching clusters, `scratch.order` holds the event indices
/// sorted by round (the scan order, reused by the caller for cluster
/// grouping), and `scratch.collisions` holds every colliding pair with
/// its space-time weight, in scan order — the sparse edge set the
/// in-solver blossom matches on (the decoder's matching only ever
/// pairs events across a collision edge; any other pair is strictly
/// beaten by two boundary exits). `scratch.prepare` must already have been
/// called, and every round must fit in a `u32`.
pub(crate) fn merge_colliding_regions(
    graph: &DetectorGraph,
    events: &[DetectionEvent],
    scratch: &mut SparseScratch,
) {
    let n = events.len();
    let SparseScratch { order, scan, hits, collisions, .. } = &mut *scratch;
    order.extend(0..n as u32);
    // Detection events arrive round-major from `RoundHistory`, making
    // this a no-op pass; explicit events from callers may not be
    // sorted, and the pruning below needs time order.
    order.sort_unstable_by_key(|&i| events[i as usize].round);
    scan.clear();
    scan.extend(order.iter().map(|&i| {
        let e = &events[i as usize];
        ScanEvent {
            round: e.round as u32,
            ancilla: e.ancilla as u32,
            bd: graph.boundary_distance(e.ancilla),
            event: i,
        }
    }));
    // One slot per possible partner of any `u`: the branch-free writes
    // below never run past `n`.
    if hits.len() < n {
        hits.resize(n, ClusterEdge::new(0, 0, 0));
    }
    let horizon = graph.max_boundary_distance();
    for (i, u) in scan.iter().enumerate() {
        let row = graph.distance_row(u.ancilla as usize);
        // Beyond this round gap, even the closest possible partner
        // would rather exit through the boundary.
        let cutoff = u.bd + horizon;
        let mut found = 0;
        for v in &scan[i + 1..] {
            let dt = v.round - u.round;
            if dt > cutoff {
                break;
            }
            let d = row[v.ancilla as usize] + dt;
            hits[found] = ClusterEdge::new(u.event, v.event, i64::from(d));
            found += usize::from(d <= u.bd + v.bd);
        }
        collisions.extend_from_slice(&hits[..found]);
    }
    for k in 0..scratch.collisions.len() {
        let e = scratch.collisions[k];
        scratch.union(e.u, e.v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btwc_lattice::{StabilizerType, SurfaceCode};
    use btwc_noise::SimRng;
    use btwc_testutil::{fuzz_window_budget, noisy_window};

    fn clusters_of(code: &SurfaceCode, events: &[DetectionEvent]) -> Vec<u32> {
        let graph = code.detector_graph(StabilizerType::X);
        let mut scratch = SparseScratch::new();
        scratch.prepare(events.len());
        merge_colliding_regions(graph, events, &mut scratch);
        (0..events.len() as u32).map(|i| scratch.find(i)).collect()
    }

    #[test]
    fn adjacent_events_share_a_cluster() {
        let code = SurfaceCode::new(9);
        let graph = code.detector_graph(StabilizerType::X);
        let a = (0..graph.num_nodes()).find(|&a| !graph.neighbors(a).is_empty()).unwrap();
        let b = graph.neighbors(a)[0] as usize;
        let roots = clusters_of(
            &code,
            &[DetectionEvent { ancilla: a, round: 0 }, DetectionEvent { ancilla: b, round: 0 }],
        );
        assert_eq!(roots[0], roots[1]);
    }

    #[test]
    fn time_like_pair_shares_a_cluster() {
        let code = SurfaceCode::new(9);
        let roots = clusters_of(
            &code,
            &[DetectionEvent { ancilla: 20, round: 3 }, DetectionEvent { ancilla: 20, round: 4 }],
        );
        assert_eq!(roots[0], roots[1]);
    }

    #[test]
    fn far_events_stay_separate() {
        // Two boundary-adjacent ancillas on opposite sides of a d=13
        // code: each bids only 1 for a partner, so they cannot collide
        // across the lattice.
        let code = SurfaceCode::new(13);
        let graph = code.detector_graph(StabilizerType::X);
        let near: Vec<usize> =
            (0..graph.num_nodes()).filter(|&a| graph.boundary_distance(a) == 1).collect();
        let (u, v) = (near[0], *near.last().unwrap());
        assert!(graph.distance(u, v) > 2, "endpoints must be far apart");
        let roots = clusters_of(
            &code,
            &[DetectionEvent { ancilla: u, round: 0 }, DetectionEvent { ancilla: v, round: 0 }],
        );
        assert_ne!(roots[0], roots[1]);
    }

    #[test]
    fn far_in_time_events_stay_separate() {
        // Same ancilla, but further apart in rounds than twice its
        // boundary distance: both exit instead of pairing.
        let code = SurfaceCode::new(9);
        let graph = code.detector_graph(StabilizerType::X);
        let a = (0..graph.num_nodes())
            .max_by_key(|&a| graph.boundary_distance(a))
            .expect("nonempty graph");
        let gap = 2 * graph.boundary_distance(a) as usize + 1;
        let roots = clusters_of(
            &code,
            &[DetectionEvent { ancilla: a, round: 0 }, DetectionEvent { ancilla: a, round: gap }],
        );
        assert_ne!(roots[0], roots[1]);
    }

    #[test]
    fn exactly_all_colliding_pairs_are_clustered() {
        // Exhaustive over same-round pairs at d=7: the union-find must
        // connect a pair iff the collision inequality holds (no other
        // events are present to merge them transitively).
        let code = SurfaceCode::new(7);
        let graph = code.detector_graph(StabilizerType::X);
        for u in 0..graph.num_nodes() {
            for v in (u + 1)..graph.num_nodes() {
                let d = graph.distance(u, v);
                let bid = graph.boundary_distance(u) + graph.boundary_distance(v);
                let roots = clusters_of(
                    &code,
                    &[
                        DetectionEvent { ancilla: u, round: 0 },
                        DetectionEvent { ancilla: v, round: 0 },
                    ],
                );
                assert_eq!(roots[0] == roots[1], d <= bid, "pair ({u},{v}) d={d} bid={bid}");
            }
        }
    }

    #[test]
    fn chains_cluster_transitively() {
        // Three events in a row: the middle one collides with both ends,
        // so all three land in one cluster even if the outer two are too
        // far apart to collide directly.
        let code = SurfaceCode::new(13);
        let graph = code.detector_graph(StabilizerType::X);
        let a = (0..graph.num_nodes())
            .max_by_key(|&a| graph.boundary_distance(a))
            .expect("nonempty graph");
        let b = graph.neighbors(a)[0] as usize;
        let c = *graph.neighbors(b).iter().find(|&&x| x as usize != a).unwrap() as usize;
        let roots = clusters_of(
            &code,
            &[
                DetectionEvent { ancilla: a, round: 0 },
                DetectionEvent { ancilla: b, round: 0 },
                DetectionEvent { ancilla: c, round: 0 },
            ],
        );
        assert!(roots.iter().all(|&r| r == roots[0]), "roots {roots:?}");
    }

    #[test]
    fn unsorted_event_order_is_handled() {
        // Explicit event lists may arrive in any order; the round sort
        // inside the scan must make pruning safe regardless.
        let code = SurfaceCode::new(9);
        let roots = clusters_of(
            &code,
            &[
                DetectionEvent { ancilla: 20, round: 9 },
                DetectionEvent { ancilla: 20, round: 8 },
                DetectionEvent { ancilla: 5, round: 0 },
            ],
        );
        assert_eq!(roots[0], roots[1]);
        assert_ne!(roots[0], roots[2]);
    }

    /// The quadratic scan the flat one replaced, kept as its oracle:
    /// round-ordered pairs with the time-horizon break, a `Δt > bid`
    /// shortcut, one table lookup per remaining pair, and a union as
    /// soon as a pair collides.
    fn quadratic_oracle(
        graph: &DetectorGraph,
        events: &[DetectionEvent],
        scratch: &mut SparseScratch,
    ) {
        let n = events.len();
        scratch.order.extend(0..n as u32);
        scratch.order.sort_unstable_by_key(|&i| events[i as usize].round);
        let horizon = graph.max_boundary_distance();
        for i in 0..n {
            let u = scratch.order[i] as usize;
            let eu = &events[u];
            let bd_u = graph.boundary_distance(eu.ancilla);
            let cutoff = (bd_u + horizon) as usize;
            for j in (i + 1)..n {
                let v = scratch.order[j] as usize;
                let ev = &events[v];
                let dt = ev.round - eu.round;
                if dt > cutoff {
                    break;
                }
                let bid = bd_u + graph.boundary_distance(ev.ancilla);
                if dt as u32 > bid {
                    continue;
                }
                let d = graph.distance(eu.ancilla, ev.ancilla) + dt as u32;
                if d <= bid {
                    scratch.union(u as u32, v as u32);
                    scratch.collisions.push(ClusterEdge::new(u as u32, v as u32, i64::from(d)));
                }
            }
        }
    }

    /// Runs the flat scan and the oracle on `events` and asserts the
    /// same scan order, the same collision list element by element, and
    /// the same union-find state. Returns the collision count.
    fn assert_scan_matches_oracle(graph: &DetectorGraph, events: &[DetectionEvent]) -> usize {
        let n = events.len();
        let (mut flat, mut oracle) = (SparseScratch::new(), SparseScratch::new());
        flat.prepare(n);
        oracle.prepare(n);
        merge_colliding_regions(graph, events, &mut flat);
        quadratic_oracle(graph, events, &mut oracle);
        assert_eq!(flat.order, oracle.order, "scan order diverged on {events:?}");
        assert_eq!(flat.collisions.len(), oracle.collisions.len(), "collision count on {events:?}");
        for (k, (a, b)) in flat.collisions.iter().zip(&oracle.collisions).enumerate() {
            assert_eq!(a, b, "collision {k} diverged on {events:?}");
        }
        assert_eq!(flat.uf_parent, oracle.uf_parent, "union sequence diverged on {events:?}");
        for i in 0..n as u32 {
            assert_eq!(flat.find(i), oracle.find(i), "root of event {i} on {events:?}");
        }
        flat.collisions.len()
    }

    #[test]
    fn flat_scan_matches_the_quadratic_oracle_on_fuzz_windows() {
        // The chained-cluster fuzz distribution at d ∈ {5, 13, 21}: each
        // window as the decoder receives it (round-major), and the same
        // events shuffled out of round order.
        let per_cell = (fuzz_window_budget(600) / 6).max(1);
        let ty = StabilizerType::X;
        let (mut max_events, mut collisions) = (0, 0);
        for d in [5u16, 13, 21] {
            let code = SurfaceCode::new(d);
            let graph = code.detector_graph(ty);
            for p in [5e-3, 1e-2] {
                let base = 0x5CA4_0AC1u64 ^ (u64::from(d) << 40) ^ f64::to_bits(p);
                for i in 0..per_cell {
                    let mut rng = SimRng::from_seed(base ^ i);
                    let (window, _) = noisy_window(&code, ty, p, usize::from(d), &mut rng);
                    let mut events = window.detection_events();
                    max_events = max_events.max(events.len());
                    collisions += assert_scan_matches_oracle(graph, &events);
                    for k in (1..events.len()).rev() {
                        events.swap(k, rng.below(k + 1));
                    }
                    assert_scan_matches_oracle(graph, &events);
                }
            }
        }
        // Vacuity guard: windows past one 64-bit word of events, and
        // real collisions to compare.
        assert!(max_events > 64, "largest window had only {max_events} events");
        assert!(collisions > 0, "no window collided");
    }

    #[test]
    fn flat_scan_matches_the_quadratic_oracle_on_same_round_pairs() {
        // Every same-round pair at d = 7 on its own, then every ancilla
        // lit at once in one round, and in three rounds (> 64 events,
        // every time gap inside the horizon).
        let code = SurfaceCode::new(7);
        let graph = code.detector_graph(StabilizerType::X);
        let n = graph.num_nodes();
        for u in 0..n {
            for v in (u + 1)..n {
                let pair = [
                    DetectionEvent { ancilla: u, round: 2 },
                    DetectionEvent { ancilla: v, round: 2 },
                ];
                assert_scan_matches_oracle(graph, &pair);
            }
        }
        let code = SurfaceCode::new(9);
        let graph = code.detector_graph(StabilizerType::X);
        let lit = |rounds: usize| -> Vec<DetectionEvent> {
            (0..rounds)
                .flat_map(|round| {
                    (0..graph.num_nodes()).map(move |ancilla| DetectionEvent { ancilla, round })
                })
                .collect()
        };
        assert!(assert_scan_matches_oracle(graph, &lit(1)) > 0);
        let three = lit(3);
        assert!(three.len() > 64);
        assert!(assert_scan_matches_oracle(graph, &three) > 0);
    }

    #[test]
    fn flat_scan_matches_the_quadratic_oracle_on_unsorted_rounds() {
        // Descending rounds, interleaved far and near gaps, and a round
        // far past the horizon.
        let code = SurfaceCode::new(13);
        let graph = code.detector_graph(StabilizerType::X);
        let mut rng = SimRng::from_seed(0x0A5C);
        for _ in 0..200 {
            let n = 1 + rng.below(90);
            let events: Vec<DetectionEvent> = (0..n)
                .map(|_| DetectionEvent {
                    ancilla: rng.below(graph.num_nodes()),
                    round: if rng.bernoulli(0.05) { 1_000 + rng.below(4) } else { rng.below(12) },
                })
                .collect();
            assert_scan_matches_oracle(graph, &events);
        }
    }
}
