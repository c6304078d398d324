//! Incremental error / syndrome bookkeeping.
//!
//! The naive per-cycle recomputation of all `(d²-1)/2` stabilizers makes
//! billion-cycle Monte Carlo intractable. [`ErrorTracker`] maintains the
//! accumulated error state and its syndrome *incrementally*: flipping a
//! data qubit touches only its (≤ 2) adjacent ancillas, so a cycle costs
//! O(#flips), not O(d²). This mirrors how the paper's own "lifetime
//! simulation over a billion cycles" is feasible at all.
//!
//! The syndrome is held word-packed ([`PackedBits`]) so downstream
//! consumers (round ingestion, the sticky filter, detection-event
//! diffs) copy and combine it with word operations; the qubit→ancilla
//! adjacency is a flat CSR layout to keep the flip path free of pointer
//! chasing.

use btwc_lattice::{StabilizerType, SurfaceCode};
use btwc_syndrome::PackedBits;

/// Accumulated data-error state for one error species of one code, with
/// an incrementally maintained packed syndrome.
#[derive(Debug, Clone)]
pub struct ErrorTracker {
    ty: StabilizerType,
    errors: Vec<bool>,
    syndrome: PackedBits,
    syndrome_weight: usize,
    /// CSR adjacency: ancillas of qubit `q` are
    /// `adj_data[adj_idx[q]..adj_idx[q + 1]]` (1 or 2 entries).
    adj_idx: Vec<u32>,
    adj_data: Vec<u32>,
}

impl ErrorTracker {
    /// Fresh, error-free tracker for stabilizer type `ty` of `code`.
    #[must_use]
    pub fn new(code: &SurfaceCode, ty: StabilizerType) -> Self {
        let mut adjacency = vec![Vec::new(); code.num_data_qubits()];
        for (i, a) in code.ancillas(ty).iter().enumerate() {
            for &q in a.data_qubits() {
                adjacency[q].push(i as u32);
            }
        }
        let mut adj_idx = Vec::with_capacity(adjacency.len() + 1);
        let mut adj_data = Vec::new();
        adj_idx.push(0);
        for ancillas in &adjacency {
            adj_data.extend_from_slice(ancillas);
            adj_idx.push(adj_data.len() as u32);
        }
        Self {
            ty,
            errors: vec![false; code.num_data_qubits()],
            syndrome: PackedBits::new(code.num_ancillas(ty)),
            syndrome_weight: 0,
            adj_idx,
            adj_data,
        }
    }

    /// The stabilizer type tracked.
    #[must_use]
    pub fn stabilizer_type(&self) -> StabilizerType {
        self.ty
    }

    /// Flips one data qubit, updating the syndrome in O(1).
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    #[inline]
    pub fn flip(&mut self, q: usize) {
        self.errors[q] ^= true;
        let (lo, hi) = (self.adj_idx[q] as usize, self.adj_idx[q + 1] as usize);
        for &a in &self.adj_data[lo..hi] {
            let now = self.syndrome.toggle(a as usize);
            self.syndrome_weight =
                if now { self.syndrome_weight + 1 } else { self.syndrome_weight - 1 };
        }
    }

    /// Applies a whole correction (a set of flips).
    pub fn apply(&mut self, qubits: &[usize]) {
        for &q in qubits {
            self.flip(q);
        }
    }

    /// Current accumulated error pattern.
    #[must_use]
    pub fn errors(&self) -> &[bool] {
        &self.errors
    }

    /// Current (noise-free) syndrome, word-packed.
    #[must_use]
    pub fn syndrome(&self) -> &PackedBits {
        &self.syndrome
    }

    /// Number of lit ancillas.
    #[must_use]
    pub fn syndrome_weight(&self) -> usize {
        self.syndrome_weight
    }

    /// Whether the error state commutes with every stabilizer.
    #[must_use]
    pub fn is_quiet(&self) -> bool {
        self.syndrome_weight == 0
    }

    /// Clears all state.
    pub fn reset(&mut self) {
        self.errors.fill(false);
        self.syndrome.clear();
        self.syndrome_weight = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incremental_matches_batch_syndrome() {
        let code = SurfaceCode::new(7);
        let mut tracker = ErrorTracker::new(&code, StabilizerType::X);
        let flips = [3usize, 11, 17, 3, 40, 11, 25];
        for &q in &flips {
            tracker.flip(q);
        }
        let batch = code.syndrome_of(StabilizerType::X, tracker.errors());
        assert_eq!(tracker.syndrome().to_bools(), batch);
        assert_eq!(tracker.syndrome_weight(), batch.iter().filter(|&&s| s).count());
        assert_eq!(tracker.syndrome().weight(), tracker.syndrome_weight());
    }

    #[test]
    fn double_flip_cancels() {
        let code = SurfaceCode::new(5);
        let mut tracker = ErrorTracker::new(&code, StabilizerType::X);
        tracker.flip(7);
        tracker.flip(7);
        assert!(tracker.is_quiet());
        assert!(tracker.errors().iter().all(|&e| !e));
    }

    #[test]
    fn apply_equals_sequence_of_flips() {
        let code = SurfaceCode::new(5);
        let mut a = ErrorTracker::new(&code, StabilizerType::X);
        let mut b = ErrorTracker::new(&code, StabilizerType::X);
        a.apply(&[1, 5, 9]);
        for q in [1, 5, 9] {
            b.flip(q);
        }
        assert_eq!(a.errors(), b.errors());
        assert_eq!(a.syndrome(), b.syndrome());
    }

    #[test]
    fn reset_clears_everything() {
        let code = SurfaceCode::new(5);
        let mut tracker = ErrorTracker::new(&code, StabilizerType::X);
        tracker.apply(&[0, 12, 24]);
        tracker.reset();
        assert!(tracker.is_quiet());
        assert!(tracker.errors().iter().all(|&e| !e));
    }

    #[test]
    fn works_for_z_type_too() {
        let code = SurfaceCode::new(5);
        let mut tracker = ErrorTracker::new(&code, StabilizerType::Z);
        tracker.flip(12);
        let batch = code.syndrome_of(StabilizerType::Z, tracker.errors());
        assert_eq!(tracker.syndrome().to_bools(), batch);
        assert_eq!(tracker.stabilizer_type(), StabilizerType::Z);
    }
}
