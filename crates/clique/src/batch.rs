//! The machine-wide on-chip unit: one sticky filter pass for *all*
//! logical qubits, word-parallel across qubits.
//!
//! [`BatchFrontend`] is the batched counterpart of [`CliqueFrontend`]:
//! instead of `num_qubits` independent per-qubit filters (each paying
//! its own ring-buffer push and word-AND per cycle), it keeps the
//! machine's raw rounds transposed ([`SyndromeBatch`]: one contiguous
//! word matrix, one qubit-indexed plane per ancilla) and runs the
//! `k`-round sticky filter as one flat word-AND per retained round —
//! 64 logical qubits per instruction. The
//! per-qubit Clique decision then runs only for the rare qubits whose
//! filtered syndrome is non-zero (found with a word-OR over the sticky
//! planes), so the >90%-quiet common case costs no per-qubit work at
//! all.
//!
//! Decisions are bit-identical to feeding each qubit's stream through
//! its own [`CliqueFrontend`] (pinned by this module's tests).

use btwc_lattice::{StabilizerType, SurfaceCode};
use btwc_syndrome::{BatchHistory, PackedBits, Syndrome, SyndromeBatch};

use crate::decision::CliqueDecision;
use crate::decoder::CliqueDecoder;

/// The Clique decoder with a machine-wide `k`-round measurement filter:
/// the batched on-chip tier for `num_qubits` logical qubits.
#[derive(Debug, Clone)]
pub struct BatchFrontend {
    decoder: CliqueDecoder,
    rounds: usize,
    num_qubits: usize,
    history: BatchHistory,
    /// Reused sticky-filter output planes (no per-cycle allocation).
    sticky: SyndromeBatch,
    /// Reused "which qubits have a non-zero filtered syndrome" mask.
    active: PackedBits,
    /// Reused per-qubit filtered syndrome (gathered only for active
    /// qubits).
    filtered: Syndrome,
}

impl BatchFrontend {
    /// Frontend for `num_qubits` logical qubits with the paper's
    /// default two measurement rounds.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits == 0`.
    #[must_use]
    pub fn new(code: &SurfaceCode, ty: StabilizerType, num_qubits: usize) -> Self {
        Self::with_rounds(code, ty, num_qubits, 2)
    }

    /// Frontend with a custom sticky window `rounds >= 1`.
    ///
    /// # Panics
    ///
    /// Panics if `rounds == 0` or `num_qubits == 0`.
    #[must_use]
    pub fn with_rounds(
        code: &SurfaceCode,
        ty: StabilizerType,
        num_qubits: usize,
        rounds: usize,
    ) -> Self {
        assert!(rounds >= 1, "sticky filter needs at least one round");
        let decoder = CliqueDecoder::new(code, ty);
        let n_anc = decoder.num_cliques();
        Self {
            rounds,
            num_qubits,
            history: BatchHistory::new(num_qubits, n_anc, rounds),
            sticky: SyndromeBatch::new(num_qubits, n_anc),
            active: PackedBits::new(num_qubits),
            filtered: Syndrome::new(n_anc),
            decoder,
        }
    }

    /// The sticky window length `k`.
    #[must_use]
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Number of logical qubits served.
    #[must_use]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The underlying combinational decoder (shared by all qubits —
    /// Clique is pure geometry, so one instance serves the machine).
    #[must_use]
    pub fn decoder(&self) -> &CliqueDecoder {
        &self.decoder
    }

    /// Ingests one machine round and calls
    /// `visit(qubit, decision, filtered)` for every qubit whose
    /// sticky-filtered syndrome is **non-zero**, in ascending qubit
    /// order — `filtered` is that qubit's sticky-filtered syndrome, so
    /// escalation paths (and their degradation fallbacks) can act on it
    /// without a second gather. Unvisited qubits decided
    /// [`CliqueDecision::AllZeros`] — the whole-machine common case that
    /// the batched filter dismisses with word ops alone.
    ///
    /// # Panics
    ///
    /// Panics if the batch dimensions mismatch the frontend's.
    pub fn push_batch(
        &mut self,
        batch: &SyndromeBatch,
        mut visit: impl FnMut(usize, CliqueDecision, &Syndrome),
    ) {
        self.history.push(batch);
        self.history.sticky_into(self.rounds, &mut self.sticky);
        self.sticky.active_qubits_into(&mut self.active);
        for q in self.active.iter_set() {
            self.sticky.qubit_round_into(q, &mut self.filtered);
            visit(q, self.decoder.decode(&self.filtered), &self.filtered);
        }
    }

    /// Clears the filter pipeline (all qubits).
    pub fn reset(&mut self) {
        self.history.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::CliqueFrontend;

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// The equivalence pin: the batched frontend must reproduce every
    /// per-qubit frontend's decision stream bit-for-bit.
    #[test]
    fn batch_decisions_match_per_qubit_frontends() {
        for k in [2usize, 3] {
            let code = SurfaceCode::new(5);
            let ty = StabilizerType::X;
            let q = 70usize; // crosses a qubit-plane word boundary
            let n_anc = code.num_ancillas(ty);
            let mut batched = BatchFrontend::with_rounds(&code, ty, q, k);
            let mut singles: Vec<CliqueFrontend> =
                (0..q).map(|_| CliqueFrontend::with_rounds(&code, ty, k)).collect();
            let mut state = 0xC11C0E + k as u64;
            let mut batch = SyndromeBatch::new(q, n_anc);
            for _ in 0..60 {
                let mut expected: Vec<CliqueDecision> = Vec::with_capacity(q);
                for (qi, fe) in singles.iter_mut().enumerate() {
                    // Mixed stream: mostly quiet, some persistent, some
                    // transient bits.
                    let round: Vec<bool> =
                        (0..n_anc).map(|_| xorshift(&mut state).is_multiple_of(5)).collect();
                    batch.set_qubit_round_bools(qi, &round);
                    expected.push(fe.push_round(&round));
                }
                let mut got: Vec<CliqueDecision> = vec![CliqueDecision::AllZeros; q];
                let mut last = None;
                batched.push_batch(&batch, |qi, decision, _| {
                    assert!(last.is_none_or(|p| p < qi), "visits must ascend");
                    last = Some(qi);
                    got[qi] = decision;
                });
                assert_eq!(got, expected);
            }
        }
    }

    #[test]
    fn quiet_machine_visits_nobody() {
        let code = SurfaceCode::new(3);
        let ty = StabilizerType::X;
        let q = 8;
        let mut fe = BatchFrontend::new(&code, ty, q);
        let batch = SyndromeBatch::new(q, code.num_ancillas(ty));
        for _ in 0..10 {
            fe.push_batch(&batch, |qi, _, _| panic!("quiet machine visited qubit {qi}"));
        }
    }

    #[test]
    fn reset_refills_the_filter() {
        let code = SurfaceCode::new(5);
        let ty = StabilizerType::X;
        let n_anc = code.num_ancillas(ty);
        let mut fe = BatchFrontend::new(&code, ty, 4);
        let mut errors = vec![false; code.num_data_qubits()];
        errors[12] = true;
        let round = code.syndrome_of(ty, &errors);
        let mut batch = SyndromeBatch::new(4, n_anc);
        batch.set_qubit_round_bools(2, &round);
        fe.push_batch(&batch, |_, _, _| {});
        fe.reset();
        // After reset the filter must refill before acting.
        fe.push_batch(&batch, |qi, _, _| panic!("filter must be empty, visited {qi}"));
        let mut visited = Vec::new();
        fe.push_batch(&batch, |qi, d, _| {
            assert!(matches!(d, CliqueDecision::Trivial(_)));
            visited.push(qi);
        });
        assert_eq!(visited, vec![2]);
    }
}
