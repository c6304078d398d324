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
//! d(u, v) = distance(aᵤ, aᵥ) + |tᵤ − tᵥ|  <  bd(u) + bd(v)
//! ```
//!
//! and any matching edge a minimum-weight perfect matching can strictly
//! prefer over a pair of boundary exits satisfies exactly that
//! inequality. Merging colliding regions with a union-find therefore
//! yields clusters with the decomposition property the decoder builds
//! on:
//!
//! > an optimal matching exists that never pairs events across
//! > clusters — every cross-cluster pair is (weakly) beaten by two
//! > boundary exits.
//!
//! Collisions are *detected* with the lattice's precomputed
//! detector-graph distances (each check is one O(1) table lookup — the
//! tables are built once per code, not per decode), walking events in
//! round order so the time term alone prunes far-apart pairs wholesale:
//! once `|Δt| ≥ bd(u) + max_boundary_distance`, no later event can
//! collide with `u` and the inner scan breaks. No per-decode event
//! matrix is ever materialized — edge weights only come into existence
//! inside the small clusters the per-cluster solver actually matches.

use btwc_lattice::DetectorGraph;
use btwc_syndrome::DetectionEvent;

use crate::blossom::ClusterEdge;
use crate::scratch::SparseScratch;

/// Merges every colliding pair of regions.
///
/// On return, `scratch`'s union-find partitions `0..events.len()` into
/// the matching clusters, `scratch.order` holds the event indices
/// sorted by round (the scan order, reused by the caller for cluster
/// grouping), and `scratch.collisions` holds every colliding pair with
/// its space-time weight — the sparse edge set the in-solver blossom
/// matches on (an optimal matching only ever pairs events across a
/// collision edge; any other pair is weakly beaten by two boundary
/// exits). `scratch.prepare` must already have been called.
pub(crate) fn merge_colliding_regions(
    graph: &DetectorGraph,
    events: &[DetectionEvent],
    scratch: &mut SparseScratch,
) {
    let n = events.len();
    scratch.order.extend(0..n as u32);
    // Detection events arrive round-major from `RoundHistory`, making
    // this a no-op pass; explicit events from callers may not be
    // sorted, and the pruning below needs time order.
    scratch.order.sort_unstable_by_key(|&i| events[i as usize].round);
    let horizon = graph.max_boundary_distance();
    for i in 0..n {
        let u = scratch.order[i] as usize;
        let eu = &events[u];
        let bd_u = graph.boundary_distance(eu.ancilla);
        // Beyond this round gap, even the closest possible partner
        // would rather exit through the boundary.
        let cutoff = (bd_u + horizon) as usize;
        for j in (i + 1)..n {
            let v = scratch.order[j] as usize;
            let ev = &events[v];
            let dt = ev.round - eu.round;
            if dt >= cutoff {
                break;
            }
            let bid = bd_u + graph.boundary_distance(ev.ancilla);
            if dt as u32 >= bid {
                continue;
            }
            let d = graph.distance(eu.ancilla, ev.ancilla) + dt as u32;
            if d < bid {
                scratch.union(u as u32, v as u32);
                scratch.collisions.push(ClusterEdge::new(u as u32, v as u32, i64::from(d)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btwc_lattice::{StabilizerType, SurfaceCode};

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
        let gap = 2 * graph.boundary_distance(a) as usize;
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
                assert_eq!(roots[0] == roots[1], d < bid, "pair ({u},{v}) d={d} bid={bid}");
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
}
