//! Sliding window of measurement rounds.

use std::collections::VecDeque;

use crate::packed::PackedBits;
use crate::repr::Syndrome;

/// A detection event: ancilla `ancilla` changed value at round `round`
/// of the current window (round indices are window-relative, oldest = 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DetectionEvent {
    /// Ancilla index within its stabilizer type.
    pub ancilla: usize,
    /// Window-relative round index.
    pub round: usize,
}

/// Ring buffer of the most recent syndrome measurement rounds, stored
/// word-packed.
///
/// Two consumers read this window:
///
/// * the Clique decoder's **sticky filter** ([`RoundHistory::sticky`]),
///   which accepts an ancilla only when its raw syndrome has been lit for
///   `k` consecutive rounds (paper Fig. 7, default `k = 2`) — this is
///   what suppresses single-round measurement flips. Packed, the filter
///   is a word-parallel AND over the last `k` rounds;
/// * the MWPM decoder's **space-time matching**, which consumes
///   [`RoundHistory::detection_events`] — the round-to-round differences
///   that mark where error chains start and end in time. Packed, the
///   diff is a word-parallel XOR plus a trailing-zeros scan.
///
/// Evicted round buffers are recycled, so a long-running window performs
/// no per-round heap allocation in steady state.
#[derive(Debug, Clone)]
pub struct RoundHistory {
    num_ancillas: usize,
    capacity: usize,
    rounds: VecDeque<PackedBits>,
    /// Recycled buffers from evicted/reset rounds.
    spare: Vec<PackedBits>,
    /// Detection events contributed by each retained round under the
    /// current window basis: entry 0 is the front round's weight (the
    /// all-zero-baseline diff), entry `t > 0` the XOR weight against
    /// round `t - 1`.
    event_counts: VecDeque<u32>,
    /// Running sum of `event_counts` — O(1) `detection_event_count`.
    event_total: usize,
}

impl RoundHistory {
    /// A window over `num_ancillas` ancillas retaining the most recent
    /// `capacity` rounds.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn new(num_ancillas: usize, capacity: usize) -> Self {
        assert!(capacity > 0, "round history needs capacity >= 1");
        Self {
            num_ancillas,
            capacity,
            rounds: VecDeque::with_capacity(capacity + 1),
            spare: Vec::with_capacity(capacity + 1),
            event_counts: VecDeque::with_capacity(capacity + 1),
            event_total: 0,
        }
    }

    /// Number of ancillas per round.
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

    /// Takes a recycled (or fresh) buffer of the right width.
    fn take_buffer(&mut self) -> PackedBits {
        self.spare.pop().unwrap_or_else(|| PackedBits::new(self.num_ancillas))
    }

    /// Appends a filled buffer, evicting (and recycling) the oldest
    /// round if full — the new front round's detection events then
    /// re-base against the all-zero baseline.
    fn push_buffer(&mut self, buf: PackedBits) {
        let count = match self.rounds.back() {
            Some(prev) => buf.xor_weight(prev),
            None => buf.weight(),
        };
        self.rounds.push_back(buf);
        self.event_counts.push_back(count as u32);
        self.event_total += count;
        if self.rounds.len() > self.capacity {
            self.evict_front();
        }
    }

    /// Drops the oldest round (recycling its buffer) and re-bases the
    /// new front round's event count against the all-zero baseline.
    fn evict_front(&mut self) {
        let evicted = self.rounds.pop_front().expect("evicted round must exist");
        self.spare.push(evicted);
        let dropped = self.event_counts.pop_front().expect("counts track rounds");
        self.event_total -= dropped as usize;
        if let Some(front) = self.rounds.front() {
            // The new front round now diffs against the all-zero
            // baseline instead of its (dropped) predecessor.
            let rebased = front.weight();
            let old = self.event_counts[0] as usize;
            self.event_counts[0] = rebased as u32;
            self.event_total = self.event_total - old + rebased;
        }
    }

    /// Appends a measurement round given as a bool slice.
    ///
    /// # Panics
    ///
    /// Panics if `round.len() != num_ancillas()`.
    pub fn push(&mut self, round: &[bool]) {
        assert_eq!(round.len(), self.num_ancillas, "round width mismatch");
        let mut buf = self.take_buffer();
        buf.fill_from_bools(round);
        self.push_buffer(buf);
    }

    /// Appends an already-packed measurement round (the hot path —
    /// a word copy into a recycled buffer, no allocation).
    ///
    /// # Panics
    ///
    /// Panics if `round.len() != num_ancillas()`.
    pub fn push_packed(&mut self, round: &PackedBits) {
        assert_eq!(round.len(), self.num_ancillas, "round width mismatch");
        let mut buf = self.take_buffer();
        buf.copy_from(round);
        self.push_buffer(buf);
    }

    /// Appends qubit `qubit`'s round gathered straight out of a
    /// machine-wide [`SyndromeBatch`](crate::SyndromeBatch) — the batch
    /// entry point: the transpose read lands directly in a recycled
    /// buffer, with no intermediate per-qubit round materialized.
    ///
    /// # Panics
    ///
    /// Panics if `batch.num_ancillas() != num_ancillas()` or `qubit`
    /// is out of range.
    pub fn push_from_batch(&mut self, batch: &crate::SyndromeBatch, qubit: usize) {
        assert_eq!(batch.num_ancillas(), self.num_ancillas, "round width mismatch");
        let mut buf = self.take_buffer();
        batch.qubit_round_into(qubit, &mut buf);
        self.push_buffer(buf);
    }

    /// The `i`-th retained round (0 = oldest).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[must_use]
    pub fn round(&self, i: usize) -> &PackedBits {
        &self.rounds[i]
    }

    /// The most recent round, if any.
    #[must_use]
    pub fn latest(&self) -> Option<&PackedBits> {
        self.rounds.back()
    }

    /// The `k`-round sticky syndrome: ancilla `i` is accepted iff its raw
    /// syndrome was lit in each of the last `k` rounds — a word-parallel
    /// AND across those rounds.
    ///
    /// Returns all-zeros while fewer than `k` rounds have been recorded —
    /// the hardware equivalent is the DFF pipeline still filling up.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `k > capacity()`.
    #[must_use]
    pub fn sticky(&self, k: usize) -> Syndrome {
        let mut out = Syndrome::new(self.num_ancillas);
        self.sticky_into(k, &mut out);
        out
    }

    /// [`RoundHistory::sticky`] into a caller-owned buffer (the
    /// allocation-free hot path).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, `k > capacity()`, or `out` has the wrong width.
    pub fn sticky_into(&self, k: usize, out: &mut Syndrome) {
        assert!(k >= 1 && k <= self.capacity, "sticky window {k} out of range");
        assert_eq!(out.len(), self.num_ancillas, "sticky output width mismatch");
        if self.rounds.len() < k {
            out.clear();
            return;
        }
        let start = self.rounds.len() - k;
        let packed = out.as_packed_mut();
        packed.copy_from(&self.rounds[start]);
        for r in (start + 1)..self.rounds.len() {
            packed.and_with(&self.rounds[r]);
        }
    }

    /// Detection events over the retained window: an event at round `t`
    /// wherever the raw value differs from round `t-1` (round 0 is
    /// compared against an all-zero baseline, i.e. the state right after
    /// the window was last [`RoundHistory::reset`]).
    #[must_use]
    pub fn detection_events(&self) -> Vec<DetectionEvent> {
        let mut events = Vec::new();
        self.detection_events_into(&mut events);
        events
    }

    /// [`RoundHistory::detection_events`] into a caller-owned buffer
    /// (cleared first). The diff of consecutive rounds is a word XOR;
    /// events are then enumerated with a trailing-zeros scan, so quiet
    /// windows cost one word-scan per round and nothing more.
    pub fn detection_events_into(&self, events: &mut Vec<DetectionEvent>) {
        events.clear();
        for t in 0..self.rounds.len() {
            let now = self.rounds[t].words();
            if t == 0 {
                for ancilla in self.rounds[0].iter_set() {
                    events.push(DetectionEvent { ancilla, round: 0 });
                }
                continue;
            }
            let before = self.rounds[t - 1].words();
            for (w, (&a, &b)) in now.iter().zip(before).enumerate() {
                let mut diff = a ^ b;
                while diff != 0 {
                    let bit = diff.trailing_zeros() as usize;
                    diff &= diff - 1;
                    events.push(DetectionEvent { ancilla: w * 64 + bit, round: t });
                }
            }
        }
    }

    /// Number of detection events in the retained window, without
    /// materializing them — O(1): per-round event counters are
    /// maintained as rounds are pushed (one fused XOR+popcount per
    /// push) and re-based as rounds are evicted from the front.
    /// Decoders use this to skip the event enumeration (and any scratch
    /// locking) on windows with nothing to match.
    #[must_use]
    pub fn detection_event_count(&self) -> usize {
        self.event_total
    }

    /// Forgets all retained rounds (used after a decoder resolves the
    /// window and resets the reference frame). Buffers are recycled.
    pub fn reset(&mut self) {
        self.spare.extend(self.rounds.drain(..));
        self.event_counts.clear();
        self.event_total = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(bits: &[u8]) -> Vec<bool> {
        bits.iter().map(|&b| b != 0).collect()
    }

    #[test]
    fn sticky_needs_k_rounds() {
        let mut h = RoundHistory::new(3, 4);
        h.push(&round(&[1, 1, 1]));
        assert!(h.sticky(2).is_zero(), "one round cannot satisfy k=2");
        h.push(&round(&[1, 0, 1]));
        let s = h.sticky(2);
        assert!(s.get(0) && !s.get(1) && s.get(2));
    }

    #[test]
    fn sticky_suppresses_single_round_flip() {
        // A measurement error lights an ancilla for exactly one round.
        let mut h = RoundHistory::new(1, 4);
        h.push(&round(&[0]));
        h.push(&round(&[1])); // transient flip
        assert!(h.sticky(2).is_zero());
        h.push(&round(&[0]));
        assert!(h.sticky(2).is_zero());
    }

    #[test]
    fn sticky_accepts_persistent_data_error() {
        let mut h = RoundHistory::new(1, 4);
        h.push(&round(&[0]));
        h.push(&round(&[1])); // data error appears...
        h.push(&round(&[1])); // ...and sticks
        assert!(h.sticky(2).get(0));
    }

    #[test]
    fn sticky_three_rounds_is_stricter() {
        let mut h = RoundHistory::new(1, 4);
        h.push(&round(&[1]));
        h.push(&round(&[1]));
        assert!(h.sticky(2).get(0));
        assert!(h.sticky(3).is_zero(), "needs three consecutive rounds");
        h.push(&round(&[1]));
        assert!(h.sticky(3).get(0));
    }

    #[test]
    fn sticky_into_reuses_buffer() {
        let mut h = RoundHistory::new(5, 4);
        h.push(&round(&[1, 0, 1, 1, 0]));
        h.push(&round(&[1, 1, 0, 1, 0]));
        let mut out = Syndrome::new(5);
        h.sticky_into(2, &mut out);
        assert_eq!(out, h.sticky(2));
        // A stale buffer must be fully overwritten.
        let mut stale: Syndrome = [true; 5].into_iter().collect();
        h.sticky_into(2, &mut stale);
        assert_eq!(stale, h.sticky(2));
    }

    #[test]
    fn eviction_keeps_window_bounded() {
        let mut h = RoundHistory::new(1, 2);
        h.push(&round(&[1]));
        h.push(&round(&[0]));
        h.push(&round(&[0]));
        assert_eq!(h.len(), 2);
        // The old lit round fell out of the window.
        assert!(h.round(0).is_zero());
    }

    #[test]
    fn push_packed_matches_push() {
        let mut a = RoundHistory::new(9, 4);
        let mut b = RoundHistory::new(9, 4);
        let bits = round(&[1, 0, 0, 1, 1, 0, 1, 0, 1]);
        let packed = PackedBits::from_bools(&bits);
        a.push(&bits);
        b.push_packed(&packed);
        assert_eq!(a.round(0), b.round(0));
        assert_eq!(a.detection_events(), b.detection_events());
    }

    #[test]
    fn detection_events_mark_changes() {
        let mut h = RoundHistory::new(2, 8);
        h.push(&round(&[0, 1])); // event: ancilla 1 @ round 0
        h.push(&round(&[1, 1])); // event: ancilla 0 @ round 1
        h.push(&round(&[1, 0])); // event: ancilla 1 @ round 2
        let ev = h.detection_events();
        assert_eq!(
            ev,
            vec![
                DetectionEvent { ancilla: 1, round: 0 },
                DetectionEvent { ancilla: 0, round: 1 },
                DetectionEvent { ancilla: 1, round: 2 },
            ]
        );
    }

    #[test]
    fn measurement_error_makes_time_like_event_pair() {
        let mut h = RoundHistory::new(1, 8);
        h.push(&round(&[0]));
        h.push(&round(&[1]));
        h.push(&round(&[0]));
        let ev = h.detection_events();
        assert_eq!(ev.len(), 2, "transient flip yields an event pair in time");
        assert_eq!(ev[0].ancilla, ev[1].ancilla);
        assert_eq!(ev[1].round - ev[0].round, 1);
    }

    #[test]
    fn detection_event_count_matches_enumeration() {
        let mut h = RoundHistory::new(130, 8);
        assert_eq!(h.detection_event_count(), 0);
        let mut state = 0x5EEDu64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state
        };
        for _ in 0..6 {
            let bits: Vec<bool> = (0..130).map(|_| next() % 7 == 0).collect();
            h.push(&bits);
            assert_eq!(h.detection_event_count(), h.detection_events().len());
        }
    }

    #[test]
    fn reset_clears_window_and_recycles() {
        let mut h = RoundHistory::new(2, 4);
        h.push(&round(&[1, 1]));
        h.reset();
        assert!(h.is_empty());
        assert!(h.latest().is_none());
        assert!(h.detection_events().is_empty());
        // Recycled buffers must come back zeroed-or-overwritten: a fresh
        // push after reset must show exactly the new bits.
        h.push(&round(&[0, 1]));
        assert!(!h.round(0).get(0));
        assert!(h.round(0).get(1));
    }

    #[test]
    fn slide_rebases_events_like_a_fresh_window() {
        // The window slides by eviction: pushing past capacity drops
        // the oldest rounds and the new front round's events re-base.
        let mut h = RoundHistory::new(3, 2);
        h.push(&round(&[1, 0, 0]));
        h.push(&round(&[1, 1, 0]));
        h.push(&round(&[0, 1, 1]));
        h.push(&round(&[0, 1, 1]));
        let mut fresh = RoundHistory::new(3, 2);
        fresh.push(&round(&[0, 1, 1]));
        fresh.push(&round(&[0, 1, 1]));
        assert_eq!(h.detection_events(), fresh.detection_events());
        assert_eq!(h.detection_event_count(), fresh.detection_event_count());
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn per_round_event_counts_match_enumeration() {
        let mut h = RoundHistory::new(70, 6);
        let mut state = 0xC0FFEEu64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state
        };
        for _ in 0..9 {
            let bits: Vec<bool> = (0..70).map(|_| next() % 5 == 0).collect();
            h.push(&bits);
            let events = h.detection_events();
            assert_eq!(h.detection_event_count(), events.len());
            for t in 0..h.len() {
                let expect = events.iter().filter(|e| e.round == t).count();
                assert_eq!(h.event_counts[t] as usize, expect, "round {t}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn push_rejects_wrong_width() {
        let mut h = RoundHistory::new(2, 4);
        h.push(&round(&[1]));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn sticky_rejects_zero_k() {
        let h = RoundHistory::new(2, 4);
        let _ = h.sticky(0);
    }
}
