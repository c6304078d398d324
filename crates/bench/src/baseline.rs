//! Reference implementation kept as a comparison baseline — the seed's
//! `Vec<bool>` byte-per-bit syndrome path, for the packed-bitset
//! benchmark — and the shared workload generators of
//! `benches/decoders.rs`.

use std::collections::VecDeque;

use btwc_lattice::{StabilizerType, SurfaceCode};
use btwc_noise::{PhenomenologicalNoise, SimRng};
use btwc_syndrome::RoundHistory;

/// A deterministic stream of raw syndrome rounds (accumulating data
/// errors plus per-round transient measurement flips) — the shared
/// workload of the `sticky_filter` benchmarks.
#[must_use]
pub fn sample_noisy_rounds(code: &SurfaceCode, count: usize, p: f64, seed: u64) -> Vec<Vec<bool>> {
    let n_anc = code.num_ancillas(StabilizerType::X);
    let noise = PhenomenologicalNoise::uniform(p);
    let mut rng = SimRng::from_seed(seed);
    let mut errors = vec![false; code.num_data_qubits()];
    let mut meas = vec![false; n_anc];
    (0..count)
        .map(|_| {
            noise.sample_data_into(&mut rng, &mut errors);
            noise.sample_measurement_into(&mut rng, &mut meas);
            let mut round = code.syndrome_of(StabilizerType::X, &errors);
            for (r, &m) in round.iter_mut().zip(&meas) {
                *r ^= m;
            }
            round
        })
        .collect()
}

/// One shot-protocol decode window: `rounds` rounds of accumulating
/// data errors with independent transient measurement flips, closed by
/// a perfect readout round — the workload of the `sparse_vs_dense` and
/// `chained_cluster` decode benchmarks. Delegates to the shared
/// [`btwc_testutil`] generator, so the benchmarks measure the *same*
/// window distribution the differential fuzz suites verify exactness
/// on.
#[must_use]
pub fn sample_noisy_window(
    code: &SurfaceCode,
    ty: StabilizerType,
    p: f64,
    rounds: usize,
    rng: &mut SimRng,
) -> RoundHistory {
    btwc_testutil::noisy_window(code, ty, p, rounds, rng).0
}

/// The pre-packing round window: one heap-allocated `Vec<bool>` per
/// round, bit-at-a-time sticky filtering — byte loads, no word
/// parallelism, one allocation per pushed round.
#[derive(Debug, Clone)]
pub struct BoolVecHistory {
    num_ancillas: usize,
    capacity: usize,
    rounds: VecDeque<Vec<bool>>,
}

impl BoolVecHistory {
    /// A window over `num_ancillas` ancillas retaining `capacity` rounds.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn new(num_ancillas: usize, capacity: usize) -> Self {
        assert!(capacity > 0, "round history needs capacity >= 1");
        Self { num_ancillas, capacity, rounds: VecDeque::with_capacity(capacity + 1) }
    }

    /// Appends a round (allocating, as the seed did).
    ///
    /// # Panics
    ///
    /// Panics if the width mismatches.
    pub fn push(&mut self, round: &[bool]) {
        assert_eq!(round.len(), self.num_ancillas, "round width mismatch");
        self.rounds.push_back(round.to_vec());
        if self.rounds.len() > self.capacity {
            self.rounds.pop_front();
        }
    }

    /// Bit-at-a-time `k`-round sticky filter (the seed's inner loop).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `k > capacity`.
    #[must_use]
    pub fn sticky(&self, k: usize) -> Vec<bool> {
        assert!(k >= 1 && k <= self.capacity, "sticky window {k} out of range");
        let mut out = vec![false; self.num_ancillas];
        if self.rounds.len() < k {
            return out;
        }
        let start = self.rounds.len() - k;
        for (i, o) in out.iter_mut().enumerate() {
            *o = (start..self.rounds.len()).all(|r| self.rounds[r][i]);
        }
        out
    }

    /// Forgets all retained rounds.
    pub fn reset(&mut self) {
        self.rounds.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btwc_syndrome::RoundHistory;

    #[test]
    fn baseline_agrees_with_packed_history() {
        // The baseline is only a fair comparison if it computes the
        // same function as the packed implementation.
        let (n, cap) = (70usize, 4usize);
        let mut baseline = BoolVecHistory::new(n, cap);
        let mut packed = RoundHistory::new(n, cap);
        let mut state = 0xD1CEu64;
        for _ in 0..16 {
            let round: Vec<bool> = (0..n)
                .map(|_| {
                    state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    (state >> 33) & 1 == 1
                })
                .collect();
            baseline.push(&round);
            packed.push(&round);
            for k in 1..=cap {
                assert_eq!(baseline.sticky(k), packed.sticky(k).to_bools(), "k={k}");
            }
        }
    }
}
