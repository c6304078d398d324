//! Reusable per-decoder working state.
//!
//! Every array the sparse decode kernel touches lives here and is
//! recycled across decodes (cleared, never reallocated once grown to
//! the largest event count seen): the union-find over events, the
//! collision edge list the region scan discovers, and a
//! [`ClusterScratch`] — the cluster's local gain graph, the matching
//! the solver returns, and the [`BlossomArena`] holding the sparse
//! blossom solver's alternating-tree and blossom tables, reused by
//! every cluster of a window in turn. The data-qubit flips of every
//! path are gathered in one recycled buffer. The decoder owns its
//! scratch as a plain field (every decode takes `&mut self`).
//! Warmed up, a decode makes exactly one heap allocation, the
//! returned `Correction`'s qubit list, for 3 events or 200
//! (`tests/allocations.rs` pins the count).

use btwc_syndrome::DetectionEvent;

use crate::blossom::{BlossomArena, ClusterEdge};
use crate::regions::ScanEvent;

/// Everything one ≥3-event cluster solve works in; the decode keeps one
/// inside its [`SparseScratch`] and solves every cluster in it.
#[derive(Debug, Default)]
pub(crate) struct ClusterScratch {
    /// Local index (position within the cluster being solved) of each
    /// of its events, indexed by global event index. Only read for
    /// events of the current cluster, which always writes first.
    pub(crate) local_id: Vec<u32>,
    /// The cluster's gain graph over local indices, and the matched
    /// pairs the solver returns.
    pub(crate) cluster_edges: Vec<ClusterEdge>,
    pub(crate) pairs: Vec<(usize, usize)>,
    /// Which local events the matching paired; the rest exit through
    /// the boundary.
    pub(crate) matched: Vec<bool>,
    /// Recycled alternating-tree / blossom tables of the sparse
    /// blossom solver (sized by the largest cluster seen).
    pub(crate) arena: BlossomArena,
}

/// Scratch for [`crate::SparseDecoder`]; grows monotonically to the
/// largest decode seen and is never shrunk.
#[derive(Debug, Default)]
pub struct SparseScratch {
    /// Union-find over events (parent pointers + subtree sizes).
    pub(crate) uf_parent: Vec<u32>,
    pub(crate) uf_size: Vec<u32>,
    /// Resolved cluster root per event, and event indices sorted first
    /// by round (the collision-scan order) and then by root (so each
    /// cluster is one contiguous run).
    pub(crate) root: Vec<u32>,
    pub(crate) order: Vec<u32>,
    /// The events in scan order as the collision scan reads them, and
    /// its per-event output slots (see `crate::regions`).
    pub(crate) scan: Vec<ScanEvent>,
    pub(crate) hits: Vec<ClusterEdge>,
    /// Every colliding event pair found by the region scan, with its
    /// space-time weight — the sparse edge set the in-solver blossom
    /// matches on (global event indices; sorted by cluster root before
    /// the per-cluster solves).
    pub(crate) collisions: Vec<ClusterEdge>,
    /// Working state of the cluster currently being solved.
    pub(crate) cluster: ClusterScratch,
    /// Data-qubit flips of the cluster solves, gathered before
    /// they are folded into the returned correction.
    pub(crate) flips: Vec<usize>,
    /// Detection events of the window being decoded (filled by
    /// `decode_window_mut`).
    pub(crate) events: Vec<DetectionEvent>,
}

impl SparseScratch {
    /// An empty scratch; it sizes itself on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Readies the scratch for a decode over `num_events` events:
    /// resets the union-find to singletons and clears the index and
    /// edge buffers, all in place.
    pub(crate) fn prepare(&mut self, num_events: usize) {
        self.uf_parent.clear();
        self.uf_parent.extend(0..num_events as u32);
        self.uf_size.clear();
        self.uf_size.resize(num_events, 1);
        self.root.clear();
        self.order.clear();
        self.collisions.clear();
        self.flips.clear();
    }

    /// Union-find root of event `x`, with path halving.
    pub(crate) fn find(&mut self, mut x: u32) -> u32 {
        while self.uf_parent[x as usize] != x {
            let grand = self.uf_parent[self.uf_parent[x as usize] as usize];
            self.uf_parent[x as usize] = grand;
            x = grand;
        }
        x
    }

    /// Merges the clusters of events `a` and `b` (union by size).
    pub(crate) fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        let (big, small) = if self.uf_size[ra as usize] >= self.uf_size[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.uf_parent[small as usize] = big;
        self.uf_size[big as usize] += self.uf_size[small as usize];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepare_resets_union_find() {
        let mut s = SparseScratch::new();
        s.prepare(4);
        s.union(0, 2);
        s.union(1, 2);
        assert_eq!(s.find(0), s.find(1));
        assert_ne!(s.find(0), s.find(3));
        s.prepare(4);
        assert_ne!(s.find(0), s.find(2), "prepare must forget old unions");
    }

    #[test]
    fn prepare_shrinks_and_regrows() {
        let mut s = SparseScratch::new();
        s.prepare(8);
        s.union(6, 7);
        s.prepare(2);
        assert_eq!(s.uf_parent.len(), 2);
        s.prepare(8);
        assert_ne!(s.find(6), s.find(7), "regrown state must be pristine");
    }

    #[test]
    fn union_by_size_builds_one_cluster() {
        let mut s = SparseScratch::new();
        s.prepare(6);
        for i in 1..6 {
            s.union(0, i);
        }
        let root = s.find(0);
        assert!((0..6).all(|i| s.find(i) == root));
        assert_eq!(s.uf_size[root as usize], 6);
    }

    #[test]
    fn prepare_clears_collision_edges() {
        let mut s = SparseScratch::new();
        s.prepare(4);
        s.collisions.push(ClusterEdge::new(0, 1, 3));
        s.prepare(4);
        assert!(s.collisions.is_empty());
    }
}
