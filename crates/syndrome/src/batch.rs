//! Machine-wide syndrome rounds, stored transposed ("structure of
//! planes") for word-parallel filtering across logical qubits.
//!
//! A [`SyndromeBatch`] holds one measurement round for *every* logical
//! qubit of a machine as one contiguous plane-major word matrix: plane
//! `a` (one per ancilla index) is `words_per_plane = ceil(num_qubits /
//! 64)` consecutive words, and bit `q % 64` of word
//! `a * words_per_plane + q / 64` is qubit `q`'s raw value for ancilla
//! `a`. In this layout the two-round sticky filter is one flat word-AND
//! over the whole matrix — 64 logical qubits per instruction, no plane
//! pointers to chase — and "which qubits need any decoding at all this
//! cycle" is a word-OR over the planes, so the mostly-quiet common case
//! (>90% of cycles at practical rates) costs
//! `O(num_ancillas × num_qubits / 64)` word operations for the whole
//! machine instead of a per-qubit loop. One qubit's round is a *column*
//! of the matrix (stride `words_per_plane`, contiguous when the machine
//! has at most 64 qubits): writing it is one mask sweep that clears the
//! column plus a scatter of only the lit ancillas.
//!
//! Invariant: bits at positions `>= num_qubits` inside each plane's last
//! word are always zero, so whole-matrix operations need no masking and
//! never report a phantom active qubit.
//!
//! [`BatchHistory`] is the machine-wide counterpart of
//! [`RoundHistory`](crate::RoundHistory): a recycled ring of the most
//! recent batches with a word-parallel `k`-round sticky filter.

use std::collections::VecDeque;

use crate::history::RoundHistory;
use crate::packed::PackedBits;

/// One syndrome measurement round for every logical qubit of a
/// machine, stored as one contiguous plane-major word matrix (one
/// qubit-indexed plane per ancilla; see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyndromeBatch {
    num_qubits: usize,
    num_ancillas: usize,
    /// `ceil(num_qubits / 64)`.
    words_per_plane: usize,
    /// `words[a * words_per_plane + q / 64]` bit `q % 64` = qubit `q`'s
    /// raw syndrome for ancilla `a`.
    words: Vec<u64>,
}

impl SyndromeBatch {
    /// An all-zero batch for `num_qubits` logical qubits of
    /// `num_ancillas` ancillas each.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits == 0` or `num_ancillas == 0`.
    #[must_use]
    pub fn new(num_qubits: usize, num_ancillas: usize) -> Self {
        assert!(num_qubits > 0, "batch needs at least one qubit");
        assert!(num_ancillas > 0, "batch needs at least one ancilla");
        let words_per_plane = num_qubits.div_ceil(64);
        Self {
            num_qubits,
            num_ancillas,
            words_per_plane,
            words: vec![0; num_ancillas * words_per_plane],
        }
    }

    /// Number of logical qubits per round.
    #[must_use]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of ancillas per qubit.
    #[must_use]
    pub fn num_ancillas(&self) -> usize {
        self.num_ancillas
    }

    /// The qubit-indexed words of ancilla `a`'s plane (tail bits beyond
    /// `num_qubits()` are zero).
    ///
    /// # Panics
    ///
    /// Panics if `a >= num_ancillas()`.
    #[must_use]
    pub fn plane_words(&self, a: usize) -> &[u64] {
        &self.words[a * self.words_per_plane..(a + 1) * self.words_per_plane]
    }

    /// Word offset (within a plane) and bit mask of column `qubit`.
    #[inline]
    fn column(&self, qubit: usize) -> (usize, u64) {
        assert!(
            qubit < self.num_qubits,
            "bit index {qubit} out of range for {} bits",
            self.num_qubits
        );
        (qubit / 64, 1u64 << (qubit % 64))
    }

    /// Index of the word holding `(qubit, ancilla)` and the bit's mask
    /// (an out-of-range `ancilla` indexes past the matrix).
    #[inline]
    fn locate(&self, qubit: usize, ancilla: usize) -> (usize, u64) {
        let (col, mask) = self.column(qubit);
        (ancilla * self.words_per_plane + col, mask)
    }

    /// Qubit `q`'s raw value for ancilla `a`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[must_use]
    pub fn get(&self, qubit: usize, ancilla: usize) -> bool {
        let (word, mask) = self.locate(qubit, ancilla);
        self.words[word] & mask != 0
    }

    /// Sets qubit `q`'s raw value for ancilla `a`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn set(&mut self, qubit: usize, ancilla: usize, value: bool) {
        let (word, mask) = self.locate(qubit, ancilla);
        if value {
            self.words[word] |= mask;
        } else {
            self.words[word] &= !mask;
        }
    }

    /// Clears every plane (dimensions unchanged).
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Copies another batch of the same dimensions into this one
    /// without reallocating.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn copy_from(&mut self, other: &SyndromeBatch) {
        assert_eq!(self.num_qubits, other.num_qubits, "qubit count mismatch");
        assert_eq!(self.num_ancillas, other.num_ancillas, "ancilla count mismatch");
        self.words.copy_from_slice(&other.words);
    }

    /// Scatters one qubit's packed round (ancilla-indexed, as consumed
    /// by the per-qubit pipelines) into this batch's column `qubit`:
    /// one mask sweep clears the column (a contiguous, vectorisable
    /// loop when the machine has at most 64 qubits, strided otherwise),
    /// then a trailing-zeros scan sets only the lit ancillas — cost
    /// `O(ancillas / SIMD width + lit bits)`.
    ///
    /// # Panics
    ///
    /// Panics if `round.len() != num_ancillas()` or `qubit` is out of
    /// range.
    pub fn set_qubit_round(&mut self, qubit: usize, round: &PackedBits) {
        assert_eq!(round.len(), self.num_ancillas, "round width mismatch");
        let (col, mask) = self.column(qubit);
        let stride = self.words_per_plane;
        if stride == 1 {
            for w in &mut self.words {
                *w &= !mask;
            }
        } else {
            for w in self.words[col..].iter_mut().step_by(stride) {
                *w &= !mask;
            }
        }
        for a in round.iter_set() {
            self.words[a * stride + col] |= mask;
        }
    }

    /// [`SyndromeBatch::set_qubit_round`] from a bool slice (cold
    /// paths: one read-modify-write per ancilla).
    ///
    /// # Panics
    ///
    /// Panics if `round.len() != num_ancillas()` or `qubit` is out of
    /// range.
    pub fn set_qubit_round_bools(&mut self, qubit: usize, round: &[bool]) {
        assert_eq!(round.len(), self.num_ancillas, "round width mismatch");
        let (col, mask) = self.column(qubit);
        let shift = qubit % 64;
        for (w, &bit) in self.words[col..].iter_mut().step_by(self.words_per_plane).zip(round) {
            *w = (*w & !mask) | (u64::from(bit) << shift);
        }
    }

    /// Gathers column `qubit` back into an ancilla-indexed round
    /// (every bit of `out` is overwritten). This is the transpose read
    /// the machine performs only for the rare non-quiet qubits.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != num_ancillas()` or `qubit` is out of
    /// range.
    pub fn qubit_round_into(&self, qubit: usize, out: &mut PackedBits) {
        assert_eq!(out.len(), self.num_ancillas, "round width mismatch");
        assert!(qubit < self.num_qubits, "qubit {qubit} out of range");
        // The source column and shift are fixed by the qubit, so each
        // output word is up to 64 single-bit extracts down one strided
        // column, with no per-bit bounds checks.
        let shift = qubit % 64;
        let mut column = self.words[qubit / 64..].iter().step_by(self.words_per_plane);
        for word in out.words_mut() {
            let mut acc = 0u64;
            for (j, &w) in column.by_ref().take(64).enumerate() {
                acc |= ((w >> shift) & 1) << j;
            }
            *word = acc;
        }
    }

    /// Word-ORs every plane into `out`: bit `q` is set iff qubit `q`
    /// has *any* lit ancilla this round — the machine-wide "who is not
    /// all-zero" mask, computed without visiting qubits individually.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != num_qubits()`.
    pub fn active_qubits_into(&self, out: &mut PackedBits) {
        assert_eq!(out.len(), self.num_qubits, "qubit mask width mismatch");
        let mask = out.words_mut();
        if let [only] = mask {
            // One word per plane: the matrix is one contiguous column.
            *only = self.words.iter().fold(0, |acc, &w| acc | w);
        } else {
            for (col, m) in mask.iter_mut().enumerate() {
                let column = self.words[col..].iter().step_by(self.words_per_plane);
                *m = column.fold(0, |acc, &w| acc | w);
            }
        }
    }
}

/// Ring buffer of the most recent machine-wide measurement rounds with
/// a word-parallel sticky filter — the batched counterpart of
/// [`RoundHistory`](crate::RoundHistory) for the Clique filter tier.
///
/// Evicted batches are recycled, so a long-running machine performs no
/// per-cycle heap allocation in steady state.
#[derive(Debug, Clone)]
pub struct BatchHistory {
    num_qubits: usize,
    num_ancillas: usize,
    capacity: usize,
    rounds: VecDeque<SyndromeBatch>,
    spare: Vec<SyndromeBatch>,
}

impl BatchHistory {
    /// A window retaining the most recent `capacity` machine rounds.
    ///
    /// # Panics
    ///
    /// Panics if any argument is zero.
    #[must_use]
    pub fn new(num_qubits: usize, num_ancillas: usize, capacity: usize) -> Self {
        assert!(capacity > 0, "batch history needs capacity >= 1");
        assert!(num_qubits > 0, "batch history needs at least one qubit");
        assert!(num_ancillas > 0, "batch history needs at least one ancilla");
        Self {
            num_qubits,
            num_ancillas,
            capacity,
            rounds: VecDeque::with_capacity(capacity + 1),
            spare: Vec::with_capacity(capacity + 1),
        }
    }

    /// Number of logical qubits per round.
    #[must_use]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of ancillas per qubit.
    #[must_use]
    pub fn num_ancillas(&self) -> usize {
        self.num_ancillas
    }

    /// Maximum number of retained rounds.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of rounds currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// Whether no rounds have been recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }

    /// Appends a machine round (one flat word copy into a recycled
    /// batch), evicting the oldest round if full.
    ///
    /// # Panics
    ///
    /// Panics if the batch dimensions mismatch.
    pub fn push(&mut self, batch: &SyndromeBatch) {
        assert_eq!(batch.num_qubits, self.num_qubits, "qubit count mismatch");
        assert_eq!(batch.num_ancillas, self.num_ancillas, "ancilla count mismatch");
        let mut buf = self
            .spare
            .pop()
            .unwrap_or_else(|| SyndromeBatch::new(self.num_qubits, self.num_ancillas));
        buf.copy_from(batch);
        self.rounds.push_back(buf);
        if self.rounds.len() > self.capacity {
            let evicted = self.rounds.pop_front().expect("non-empty after push");
            self.spare.push(evicted);
        }
    }

    /// The machine-wide `k`-round sticky filter: bit `q` of `out`'s
    /// plane `a` is accepted iff qubit `q`'s ancilla `a` was lit in
    /// each of the last `k` rounds — one flat word-AND per retained
    /// round over the whole matrix, 64 qubits per instruction.
    ///
    /// `out` is all-zeros while fewer than `k` rounds have been
    /// recorded (the filter pipeline still filling), exactly matching
    /// the per-qubit [`RoundHistory::sticky`](crate::RoundHistory)
    /// semantics.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, `k > capacity()`, or `out` has the wrong
    /// dimensions.
    pub fn sticky_into(&self, k: usize, out: &mut SyndromeBatch) {
        assert!(k >= 1 && k <= self.capacity, "sticky window {k} out of range");
        assert_eq!(out.num_qubits, self.num_qubits, "qubit count mismatch");
        assert_eq!(out.num_ancillas, self.num_ancillas, "ancilla count mismatch");
        if self.rounds.len() < k {
            out.clear();
            return;
        }
        let start = self.rounds.len() - k;
        out.copy_from(&self.rounds[start]);
        for r in (start + 1)..self.rounds.len() {
            for (dst, &src) in out.words.iter_mut().zip(&self.rounds[r].words) {
                *dst &= src;
            }
        }
    }

    /// Materializes one qubit's decode window out of the machine-wide
    /// ring: gathers qubit `qubit`'s most recent `len` rounds into
    /// `out` (reset first), oldest first. The machine tier pays this
    /// transpose read only when a window is actually consumed (an
    /// off-chip escalation), never on the per-cycle hot path.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds the retained rounds, `out` has the
    /// wrong width, or `out.capacity() < len`.
    pub fn gather_qubit_window(&self, qubit: usize, len: usize, out: &mut RoundHistory) {
        assert!(len <= self.rounds.len(), "window length {len} exceeds retained rounds");
        assert!(len <= out.capacity(), "window capacity too small");
        out.reset();
        let start = self.rounds.len() - len;
        for r in start..self.rounds.len() {
            out.push_from_batch(&self.rounds[r], qubit);
        }
    }

    /// Forgets all retained rounds (buffers are recycled).
    pub fn reset(&mut self) {
        self.spare.extend(self.rounds.drain(..));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::RoundHistory;
    use crate::repr::Syndrome;

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    fn random_round(state: &mut u64, n: usize, density: u64) -> Vec<bool> {
        (0..n).map(|_| xorshift(state).is_multiple_of(density)).collect()
    }

    #[test]
    fn transpose_roundtrips() {
        let mut state = 0xBA7C4u64;
        let (q, a) = (70, 13); // qubit planes cross a word boundary
        let mut batch = SyndromeBatch::new(q, a);
        let rounds: Vec<Vec<bool>> = (0..q).map(|_| random_round(&mut state, a, 3)).collect();
        for (qi, round) in rounds.iter().enumerate() {
            batch.set_qubit_round_bools(qi, round);
        }
        let mut out = PackedBits::new(a);
        for (qi, round) in rounds.iter().enumerate() {
            batch.qubit_round_into(qi, &mut out);
            assert_eq!(out.to_bools(), *round, "qubit {qi}");
            for (ai, &bit) in round.iter().enumerate() {
                assert_eq!(batch.get(qi, ai), bit);
            }
        }
    }

    #[test]
    fn packed_scatter_matches_bool_scatter() {
        let mut state = 0x5EEDu64;
        let mut a_batch = SyndromeBatch::new(9, 21);
        let mut b_batch = SyndromeBatch::new(9, 21);
        for qi in 0..9 {
            let round = random_round(&mut state, 21, 2);
            a_batch.set_qubit_round_bools(qi, &round);
            b_batch.set_qubit_round(qi, &PackedBits::from_bools(&round));
        }
        assert_eq!(a_batch, b_batch);
    }

    #[test]
    fn scatter_overwrites_stale_column() {
        let mut batch = SyndromeBatch::new(3, 4);
        batch.set_qubit_round_bools(1, &[true; 4]);
        batch.set_qubit_round_bools(1, &[false, true, false, false]);
        let mut out = PackedBits::new(4);
        batch.qubit_round_into(1, &mut out);
        assert_eq!(out.to_bools(), vec![false, true, false, false]);
    }

    #[test]
    fn active_mask_is_or_of_planes() {
        let mut batch = SyndromeBatch::new(130, 5);
        batch.set(0, 0, true);
        batch.set(64, 3, true);
        batch.set(129, 4, true);
        let mut mask = PackedBits::new(130);
        batch.active_qubits_into(&mut mask);
        assert_eq!(mask.iter_set().collect::<Vec<_>>(), vec![0, 64, 129]);
        // Stale bits must be cleared.
        batch.set(64, 3, false);
        batch.active_qubits_into(&mut mask);
        assert_eq!(mask.iter_set().collect::<Vec<_>>(), vec![0, 129]);
    }

    #[test]
    fn batch_sticky_matches_per_qubit_sticky() {
        // The machine-wide filter must agree bit-for-bit with each
        // qubit's own RoundHistory filter on an identical stream.
        let (q, a, k, cycles) = (67usize, 12usize, 2usize, 40usize);
        let mut state = 0xF117E4u64;
        let mut history = BatchHistory::new(q, a, k);
        let mut per_qubit: Vec<RoundHistory> = (0..q).map(|_| RoundHistory::new(a, k)).collect();
        let mut batch = SyndromeBatch::new(q, a);
        let mut sticky = SyndromeBatch::new(q, a);
        let mut expect = Syndrome::new(a);
        let mut got = PackedBits::new(a);
        for t in 0..cycles {
            for (qi, h) in per_qubit.iter_mut().enumerate() {
                let round = random_round(&mut state, a, 4);
                batch.set_qubit_round_bools(qi, &round);
                h.push(&round);
            }
            history.push(&batch);
            history.sticky_into(k, &mut sticky);
            for (qi, h) in per_qubit.iter().enumerate() {
                h.sticky_into(k, &mut expect);
                sticky.qubit_round_into(qi, &mut got);
                assert_eq!(got.to_bools(), expect.to_bools(), "cycle {t}, qubit {qi}");
            }
        }
    }

    #[test]
    fn sticky_is_zero_while_filling_and_after_reset() {
        let mut history = BatchHistory::new(4, 3, 2);
        let mut batch = SyndromeBatch::new(4, 3);
        batch.set(2, 1, true);
        let mut sticky = SyndromeBatch::new(4, 3);
        history.push(&batch);
        history.sticky_into(2, &mut sticky);
        assert!(sticky.plane_words(1).iter().all(|&w| w == 0), "one round cannot satisfy k=2");
        history.push(&batch);
        history.sticky_into(2, &mut sticky);
        assert!(sticky.get(2, 1));
        history.reset();
        assert!(history.is_empty());
        history.push(&batch);
        history.sticky_into(2, &mut sticky);
        assert!(sticky.plane_words(1).iter().all(|&w| w == 0), "reset must refill the pipeline");
        // Recycled buffers must come back fully overwritten.
        let quiet = SyndromeBatch::new(4, 3);
        history.push(&quiet);
        history.push(&quiet);
        history.sticky_into(2, &mut sticky);
        assert!(sticky.plane_words(1).iter().all(|&w| w == 0));
    }

    #[test]
    fn eviction_keeps_window_bounded() {
        let mut history = BatchHistory::new(2, 2, 2);
        let mut lit = SyndromeBatch::new(2, 2);
        lit.set(0, 0, true);
        let quiet = SyndromeBatch::new(2, 2);
        history.push(&lit);
        history.push(&lit);
        history.push(&quiet);
        assert_eq!(history.len(), 2);
        let mut sticky = SyndromeBatch::new(2, 2);
        history.sticky_into(2, &mut sticky);
        assert!(!sticky.get(0, 0), "the quiet round must break the streak");
    }

    #[test]
    #[should_panic(expected = "round width mismatch")]
    fn scatter_rejects_wrong_width() {
        let mut batch = SyndromeBatch::new(2, 3);
        batch.set_qubit_round_bools(0, &[true; 4]);
    }

    #[test]
    #[should_panic(expected = "at least one qubit")]
    fn zero_qubits_rejected() {
        let _ = SyndromeBatch::new(0, 3);
    }
}
