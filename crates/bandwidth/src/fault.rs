//! Deterministic fault injection for the off-chip serial link.
//!
//! Real cryo/room-temperature links flip bits, lose frames, and jitter.
//! [`FaultyLink`] models that as a per-frame fault draw driven by the
//! workspace [`SimRng`]: every transmitted frame rolls, in a fixed
//! order, for **drop → bit flip → truncation → duplication →
//! reordering** — the *first* fault drawn applies (at most one
//! integrity fault per frame), plus an independent delay-jitter roll.
//! One-fault-per-frame keeps injected and observed counts in exact
//! 1:1 correspondence: a receiver classifying each delivery as
//! dropped / corrupt / duplicate / reordered sees precisely the counts
//! the link reports in [`LinkFaultStats`], which the telemetry
//! acceptance pins rely on.
//!
//! Determinism: the link owns its own forked RNG stream and is driven
//! serially by the machine tier (one `transmit` per escalation attempt
//! in qubit order), so the injected fault pattern is bit-reproducible
//! for any seed and any `BTWC_WORKERS` — worker threads live inside
//! the decoder backends, never inside the link. A model with all
//! probabilities zero ([`LinkFaultModel::none`]) draws nothing at all,
//! so a zero-fault link is bit-identical to no link model whatsoever,
//! regardless of its seed.

use btwc_noise::SimRng;

/// Per-frame fault probabilities of a [`FaultyLink`].
///
/// Each field is the probability that the corresponding fault is
/// *rolled* for a frame; integrity faults (everything except `delay`)
/// are mutually exclusive per frame — see the module docs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFaultModel {
    /// Frame lost entirely: nothing is delivered.
    pub drop: f64,
    /// One uniformly-chosen bit of the frame is inverted.
    pub bit_flip: f64,
    /// The frame is cut at a uniformly-chosen byte boundary.
    pub truncate: f64,
    /// The frame is delivered twice (the copy is identical).
    pub duplicate: f64,
    /// The frame arrives outside the receiver's reorder window and is
    /// classified stale (sequence-number reordering).
    pub reorder: f64,
    /// An extra delivery-delay jitter roll (independent of the above).
    pub delay: f64,
    /// Jitter magnitude: a delayed frame waits `1..=max_delay_cycles`
    /// extra cycles.
    pub max_delay_cycles: u64,
}

impl LinkFaultModel {
    /// The perfect link: every probability zero. A [`FaultyLink`] with
    /// this model draws no randomness and injects nothing.
    #[must_use]
    pub fn none() -> Self {
        Self {
            drop: 0.0,
            bit_flip: 0.0,
            truncate: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            delay: 0.0,
            max_delay_cycles: 0,
        }
    }

    /// A uniform model: every fault class (including delay, with a
    /// 4-cycle jitter cap) at probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    #[must_use]
    pub fn uniform(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability {p} out of [0,1]");
        Self {
            drop: p,
            bit_flip: p,
            truncate: p,
            duplicate: p,
            reorder: p,
            delay: p,
            max_delay_cycles: 4,
        }
    }

    /// Whether every probability is exactly zero (the fast path that
    /// draws no randomness).
    #[must_use]
    pub fn is_none(&self) -> bool {
        self.drop == 0.0
            && self.bit_flip == 0.0
            && self.truncate == 0.0
            && self.duplicate == 0.0
            && self.reorder == 0.0
            && self.delay == 0.0
    }
}

impl Default for LinkFaultModel {
    fn default() -> Self {
        Self::none()
    }
}

/// Injection totals of a [`FaultyLink`] — link-side truth to check
/// receiver-side observations against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkFaultStats {
    /// Frames handed to [`FaultyLink::transmit`].
    pub frames_sent: u64,
    /// Frames dropped (no delivery).
    pub dropped: u64,
    /// Frames with one bit inverted.
    pub bit_flipped: u64,
    /// Frames cut short.
    pub truncated: u64,
    /// Frames delivered twice.
    pub duplicated: u64,
    /// Frames delivered stale (reordered).
    pub reordered: u64,
    /// Frames hit by delay jitter.
    pub delayed: u64,
}

impl LinkFaultStats {
    /// Frames whose *bytes* were damaged (bit flips + truncations) —
    /// what a CRC-checking receiver counts as corrupt.
    #[must_use]
    pub fn corrupted(&self) -> u64 {
        self.bit_flipped + self.truncated
    }
}

/// One frame as it comes off the link.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// The delivered bytes (possibly corrupted or truncated).
    pub bytes: Vec<u8>,
    /// Whether the frame arrived outside the receiver's reorder
    /// window: a sequence-stale delivery the receiver must discard.
    pub stale: bool,
}

/// Everything one [`FaultyLink::transmit`] produced.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Transmission {
    /// Deliveries in arrival order: empty when the frame was dropped,
    /// two entries when it was duplicated.
    pub deliveries: Vec<Delivery>,
    /// Extra cycles of delay jitter this frame suffered.
    pub delay_cycles: u64,
}

/// A serial link that deterministically injects [`LinkFaultModel`]
/// faults into transmitted frames.
#[derive(Debug, Clone)]
pub struct FaultyLink {
    model: LinkFaultModel,
    rng: SimRng,
    stats: LinkFaultStats,
}

impl FaultyLink {
    /// A link injecting `model` faults from its own RNG stream seeded
    /// by `seed`.
    #[must_use]
    pub fn new(model: LinkFaultModel, seed: u64) -> Self {
        Self { model, rng: SimRng::from_seed(seed), stats: LinkFaultStats::default() }
    }

    /// A perfect link (zero-probability model; the seed is irrelevant
    /// because nothing is ever drawn).
    #[must_use]
    pub fn perfect() -> Self {
        Self::new(LinkFaultModel::none(), 0)
    }

    /// The configured fault model.
    #[must_use]
    pub fn model(&self) -> &LinkFaultModel {
        &self.model
    }

    /// Injection totals so far.
    #[must_use]
    pub fn stats(&self) -> LinkFaultStats {
        self.stats
    }

    /// Sends one frame across the link, rolling the fault model, and
    /// returns what the receiver sees.
    ///
    /// Zero-probability faults are never rolled (no RNG draw), so a
    /// [`LinkFaultModel::none`] link consumes no randomness at all and
    /// always delivers the frame verbatim.
    pub fn transmit(&mut self, frame: &[u8]) -> Transmission {
        self.stats.frames_sent += 1;
        let mut tx = Transmission::default();
        // Independent delay-jitter roll (does not damage the bytes).
        if self.roll(self.model.delay) && self.model.max_delay_cycles > 0 {
            self.stats.delayed += 1;
            tx.delay_cycles = 1 + self.rng.next_u64() % self.model.max_delay_cycles;
        }
        // First integrity fault drawn wins (at most one per frame).
        if self.roll(self.model.drop) {
            self.stats.dropped += 1;
            return tx;
        }
        let mut bytes = frame.to_vec();
        let mut stale = false;
        let mut duplicate = false;
        if self.roll(self.model.bit_flip) && !bytes.is_empty() {
            self.stats.bit_flipped += 1;
            let bit = self.rng.below(bytes.len() * 8);
            bytes[bit / 8] ^= 1 << (bit % 8);
        } else if self.roll(self.model.truncate) && !bytes.is_empty() {
            self.stats.truncated += 1;
            bytes.truncate(self.rng.below(bytes.len()));
        } else if self.roll(self.model.duplicate) {
            self.stats.duplicated += 1;
            duplicate = true;
        } else if self.roll(self.model.reorder) {
            self.stats.reordered += 1;
            stale = true;
        }
        // Only a duplicated frame is cloned. Its two deliveries are the
        // clean frame, and `stale` is false (the faults are exclusive).
        if duplicate {
            tx.deliveries.push(Delivery { bytes: bytes.clone(), stale: false });
        }
        tx.deliveries.push(Delivery { bytes, stale });
        tx
    }

    /// Bernoulli roll that skips the RNG entirely at probability zero,
    /// so zero-probability models are draw-free (and therefore
    /// seed-independent).
    fn roll(&mut self, p: f64) -> bool {
        p > 0.0 && self.rng.bernoulli(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame() -> Vec<u8> {
        (0u8..64).collect()
    }

    #[test]
    fn perfect_link_is_transparent_and_draws_nothing() {
        let mut a = FaultyLink::perfect();
        let mut b = FaultyLink::new(LinkFaultModel::none(), 0xDEAD_BEEF);
        for _ in 0..100 {
            let ta = a.transmit(&frame());
            let tb = b.transmit(&frame());
            assert_eq!(ta, tb, "zero-fault links must be seed-independent");
            assert_eq!(ta.deliveries.len(), 1);
            assert_eq!(ta.deliveries[0].bytes, frame());
            assert!(!ta.deliveries[0].stale);
            assert_eq!(ta.delay_cycles, 0);
        }
        assert_eq!(a.stats(), LinkFaultStats { frames_sent: 100, ..Default::default() });
    }

    #[test]
    fn same_seed_reproduces_fault_pattern() {
        let model = LinkFaultModel::uniform(0.2);
        let mut a = FaultyLink::new(model, 7);
        let mut b = FaultyLink::new(model, 7);
        for _ in 0..500 {
            assert_eq!(a.transmit(&frame()), b.transmit(&frame()));
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn at_most_one_integrity_fault_per_frame() {
        let model = LinkFaultModel::uniform(0.5);
        let mut link = FaultyLink::new(model, 21);
        let mut sent = 0u64;
        for _ in 0..2000 {
            let tx = link.transmit(&frame());
            sent += 1;
            // Dropped: nothing; duplicated: two identical deliveries;
            // otherwise exactly one delivery.
            assert!(tx.deliveries.len() <= 2);
            if tx.deliveries.len() == 2 {
                assert_eq!(tx.deliveries[0].bytes, frame(), "duplicates are of clean frames");
                assert_eq!(tx.deliveries[0].bytes, tx.deliveries[1].bytes);
            }
        }
        let s = link.stats();
        assert_eq!(s.frames_sent, sent);
        // Exclusivity: the per-class injections sum to at most one per frame.
        assert!(s.dropped + s.bit_flipped + s.truncated + s.duplicated + s.reordered <= sent);
        // At p=0.5 per class every class fires often.
        for (name, n) in [
            ("dropped", s.dropped),
            ("bit_flipped", s.bit_flipped),
            ("truncated", s.truncated),
            ("duplicated", s.duplicated),
            ("reordered", s.reordered),
            ("delayed", s.delayed),
        ] {
            assert!(n > 0, "{name} never fired in 2000 frames");
        }
    }

    #[test]
    fn bit_flip_changes_exactly_one_bit() {
        let model = LinkFaultModel { bit_flip: 1.0, ..LinkFaultModel::none() };
        let mut link = FaultyLink::new(model, 3);
        for _ in 0..100 {
            let tx = link.transmit(&frame());
            let delivered = &tx.deliveries[0].bytes;
            let diff: u32 = delivered.iter().zip(frame()).map(|(a, b)| (a ^ b).count_ones()).sum();
            assert_eq!(diff, 1);
        }
    }

    #[test]
    fn truncation_shortens_the_frame() {
        let model = LinkFaultModel { truncate: 1.0, ..LinkFaultModel::none() };
        let mut link = FaultyLink::new(model, 5);
        for _ in 0..100 {
            let tx = link.transmit(&frame());
            assert!(tx.deliveries[0].bytes.len() < frame().len());
        }
    }

    #[test]
    fn delay_jitter_is_bounded() {
        let model = LinkFaultModel { delay: 1.0, max_delay_cycles: 7, ..LinkFaultModel::none() };
        let mut link = FaultyLink::new(model, 9);
        for _ in 0..200 {
            let d = link.transmit(&frame()).delay_cycles;
            assert!((1..=7).contains(&d));
        }
        assert_eq!(link.stats().delayed, 200);
    }

    #[test]
    #[should_panic(expected = "out of [0,1]")]
    fn uniform_rejects_bad_probability() {
        let _ = LinkFaultModel::uniform(1.2);
    }
}
