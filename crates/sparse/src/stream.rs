//! Persistent state for incremental sliding-window decoding.
//!
//! A [`crate::SparseDecoder`] decoding a **stream** — successive calls
//! on the same [`RoundHistory`] as it slides forward — keeps everything
//! the previous decode discovered in a [`StreamState`] and only redoes
//! the work the slide invalidated:
//!
//! * **events** are stored at *absolute* stream rounds, so surviving
//!   events need no rewriting at all when the window slides: retiring
//!   rounds drop a sorted prefix, the re-based front round replaces its
//!   events with the round's lit bits (the new all-zero-baseline diff),
//!   and appended rounds push a sorted suffix. Both the replaced prefix
//!   and the appended suffix are **dirty**; everything between is
//!   untouched.
//! * **collision edges** survive verbatim when both endpoints survive:
//!   rounds shift uniformly, so round gaps, boundary distances, and
//!   therefore the collision inequality and edge weights are all
//!   invariant. Dropped endpoints take their edges with them (a
//!   `retain` + uniform index remap); only dirty events are re-scanned
//!   ([`crate::regions::scan_dirty_collisions`]).
//! * **cluster matchings** are memoized per cluster in a slab of
//!   [`CachedSolution`]s: a cluster whose members all carry the same
//!   solution slot, with a matching member count, is provably the same
//!   subproblem it was last time (same members, same edges, weights
//!   shift-invariant, flips purely spatial) and its committed matching
//!   is replayed without solving. A cluster that misses is solved
//!   again from its events and edges alone — the solver's jump start
//!   ([`crate::blossom`]) recovers the undisturbed part of the old
//!   matching in two linear passes, so a slot holds only the result
//!   (weight and flips), never solver state. Slots not referenced by
//!   the current window are reclaimed by a mark-and-sweep keyed on a
//!   decode epoch.
//!
//! A **quiet slide** — every retired round carried zero events and
//! every appended round adds none — changes nothing at all (an all-zero
//! retired prefix means the re-base is a no-op), so the previous
//! decode's result is returned verbatim from a one-clone fast path.
//!
//! The state recognises a reusable call by the window's
//! `(stream_id, start_round, len)` coverage: within one stream id
//! retained rounds are immutable and only ever slide forward, so any
//! other shape (fresh window, clone, [`RoundHistory::reset`] jump,
//! backwards movement) falls back to the batch kernel — which also
//! (re)fills this state, priming the next slide.

use btwc_syndrome::{Correction, DetectionEvent, RoundHistory};

use crate::blossom::ClusterEdge;

/// Sentinel for "event has no cached cluster solution".
pub(crate) const NO_SOL: u32 = u32::MAX;

/// One committed per-cluster matching, replayable while its cluster
/// survives unchanged.
#[derive(Debug, Default)]
pub(crate) struct CachedSolution {
    /// Number of events the solved cluster had (a hit requires the
    /// current cluster to match — a shrunk cluster that lost members to
    /// retirement keeps the slot id but fails this check).
    pub(crate) size: u32,
    /// Committed matching weight of the cluster.
    pub(crate) weight: i64,
    /// Committed data-qubit flips (spatial only — invariant under the
    /// uniform round shift of a slide).
    pub(crate) flips: Vec<usize>,
    /// Decode epoch that last referenced this slot (mark for the
    /// sweep); dead slots are recycled through the free list.
    pub(crate) last_seen: u64,
    /// Whether the slot is currently on the free list.
    pub(crate) free: bool,
}

/// How a window relates to the previously decoded stream position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Slide {
    /// Not a forward slide of the last-decoded window: decode from
    /// scratch (and re-prime the stream state).
    Rebuild,
    /// A forward slide that changes no detection events: the previous
    /// result stands.
    Quiet,
    /// A forward slide retiring `retired` rounds off the back; events,
    /// edges, and cluster solutions carry over incrementally.
    Incremental { retired: usize },
}

/// Everything a [`crate::SparseDecoder`] persists between stream
/// decodes. `Default` is the invalid (never-decoded) state.
#[derive(Debug, Default)]
pub(crate) struct StreamState {
    /// Whether the coverage below describes a completed decode.
    valid: bool,
    stream_id: u64,
    start: u64,
    len: usize,
    /// Detection events of the covered window at **absolute** stream
    /// rounds, sorted by round (ancilla-ascending within a round) —
    /// exactly the window's enumeration order shifted by `start`.
    pub(crate) events: Vec<DetectionEvent>,
    /// Collision edges over `events` indices (every colliding pair,
    /// with its space-time weight).
    pub(crate) edges: Vec<ClusterEdge>,
    /// Cached-solution slot of each event's cluster (`NO_SOL` for
    /// events whose cluster has not been solved under this membership).
    pub(crate) sol_of: Vec<u32>,
    /// Slab of per-cluster solutions (`free_slots` holds recyclable
    /// entries).
    pub(crate) solutions: Vec<CachedSolution>,
    pub(crate) free_slots: Vec<u32>,
    /// Monotone decode counter — the mark for solution sweeping.
    pub(crate) epoch: u64,
    /// Per-round event counts of the covered window (the retired-side
    /// half of the quiet-slide test; the appended side reads the
    /// window's own counters).
    counts: Vec<u32>,
    /// Result of the last decode, replayed verbatim on quiet slides.
    pub(crate) cached: Correction,
    pub(crate) cached_weight: i64,
    /// Recycled buffer for the re-based front events of a slide.
    front_buf: Vec<DetectionEvent>,
}

impl StreamState {
    /// Classifies `window` against the last-decoded coverage.
    pub(crate) fn classify(&self, window: &RoundHistory) -> Slide {
        if !self.valid || window.stream_id() != self.stream_id {
            return Slide::Rebuild;
        }
        let new_start = window.start_round();
        if new_start < self.start {
            return Slide::Rebuild;
        }
        let retired = (new_start - self.start) as usize;
        if retired >= self.len {
            // No retained round overlaps (a reset jumps here too).
            return Slide::Rebuild;
        }
        let overlap = self.len - retired;
        if window.len() < overlap {
            // Rounds vanished from the back: not a forward slide.
            return Slide::Rebuild;
        }
        // Quiet iff every retired round carried no events (which forces
        // the retired prefix all-zero, making the front re-base a
        // no-op) and every appended round adds none.
        if self.counts[..retired].iter().all(|&c| c == 0)
            && (overlap..window.len()).all(|t| window.round_event_count(t) == 0)
        {
            Slide::Quiet
        } else {
            Slide::Incremental { retired }
        }
    }

    /// Advances the coverage over a quiet slide; all other state is
    /// untouched (and still exact, per the [`Slide::Quiet`] contract).
    pub(crate) fn note_quiet(&mut self, window: &RoundHistory) {
        self.start = window.start_round();
        self.len = window.len();
        self.refresh_counts(window);
    }

    /// Resets the state for a from-scratch decode of `window` — events
    /// are (re)filled from the window at absolute rounds; the caller
    /// runs the batch kernel and records cluster solutions through
    /// [`StreamState::record`].
    pub(crate) fn begin_rebuild(&mut self, window: &RoundHistory) {
        self.valid = true;
        self.stream_id = window.stream_id();
        self.start = window.start_round();
        self.len = window.len();
        self.refresh_counts(window);
        window.detection_events_into(&mut self.events);
        let shift = self.start as usize;
        if shift != 0 {
            for e in &mut self.events {
                e.round += shift;
            }
        }
        self.edges.clear();
        self.sol_of.clear();
        self.sol_of.resize(self.events.len(), NO_SOL);
        self.solutions.clear();
        self.free_slots.clear();
        self.epoch += 1;
    }

    /// Applies an incremental slide: drops retired events, re-bases the
    /// front round, appends the new rounds' events, and carries the
    /// surviving collision edges over (retaining + remapping indices).
    /// Dirty events (replaced front, appended tail) enter with
    /// `sol_of == NO_SOL`, which is what spoils their clusters' cache
    /// hits; their collisions are re-discovered by the caller via
    /// [`crate::regions::scan_dirty_collisions`] with the returned
    /// `(front_dirty, tail_start)` bounds.
    pub(crate) fn apply_slide(&mut self, window: &RoundHistory, retired: usize) -> (usize, usize) {
        let new_start = window.start_round() as usize;
        let overlap = self.len - retired;

        // Retired events fall off; if any round retired, the surviving
        // front round changes basis (its events become its lit bits),
        // so its old events go too.
        let dropped =
            if retired == 0 { 0 } else { self.events.partition_point(|e| e.round <= new_start) };
        self.front_buf.clear();
        if retired > 0 {
            for ancilla in window.round(0).iter_set() {
                self.front_buf.push(DetectionEvent { ancilla, round: new_start });
            }
        }
        let front_dirty = self.front_buf.len();
        self.events.splice(0..dropped, self.front_buf.drain(..));
        self.sol_of.splice(0..dropped, std::iter::repeat_n(NO_SOL, front_dirty));

        // Surviving edges keep their weights (rounds shift uniformly);
        // only their endpoint indices move, all by the same offset.
        let dropped32 = dropped as u32;
        let front32 = front_dirty as u32;
        self.edges.retain_mut(|e| {
            if e.u < dropped32 || e.v < dropped32 {
                return false;
            }
            e.u = e.u - dropped32 + front32;
            e.v = e.v - dropped32 + front32;
            true
        });

        // Appended rounds: enumerate each new round's diff against its
        // predecessor (present for every appended round — overlap >= 1
        // is part of the Incremental contract).
        let tail_start = self.events.len();
        for t in overlap..window.len() {
            let now = window.round(t).words();
            let before = window.round(t - 1).words();
            for (w, (&a, &b)) in now.iter().zip(before).enumerate() {
                let mut diff = a ^ b;
                while diff != 0 {
                    let bit = diff.trailing_zeros() as usize;
                    diff &= diff - 1;
                    self.events
                        .push(DetectionEvent { ancilla: w * 64 + bit, round: new_start + t });
                    self.sol_of.push(NO_SOL);
                }
            }
        }

        self.stream_id = window.stream_id();
        self.start = window.start_round();
        self.len = window.len();
        self.refresh_counts(window);
        self.epoch += 1;

        #[cfg(debug_assertions)]
        {
            // The maintained event list must be indistinguishable from
            // a fresh enumeration of the slid window.
            let mut fresh = window.detection_events();
            for e in &mut fresh {
                e.round += new_start;
            }
            debug_assert_eq!(self.events, fresh, "slide maintenance diverged from fresh events");
        }

        (front_dirty, tail_start)
    }

    /// Sweeps solution slots not referenced this epoch back onto the
    /// free list (their clusters changed shape or slid away).
    pub(crate) fn sweep(&mut self) {
        for (i, sol) in self.solutions.iter_mut().enumerate() {
            if !sol.free && sol.last_seen != self.epoch {
                sol.free = true;
                sol.flips.clear();
                self.free_slots.push(i as u32);
            }
        }
    }

    /// Caches the finished decode's result for quiet-slide replay.
    pub(crate) fn commit(&mut self, correction: &Correction, weight: i64) {
        self.cached = correction.clone();
        self.cached_weight = weight;
    }

    fn refresh_counts(&mut self, window: &RoundHistory) {
        self.counts.clear();
        self.counts.extend((0..window.len()).map(|t| window.round_event_count(t) as u32));
    }
}

/// Stores a solved cluster's matching in the slab and points its
/// members at the slot. A free function over the split-out slab fields
/// so the decode walk can record while the event and edge arrays are
/// immutably borrowed.
pub(crate) fn record_solution(
    solutions: &mut Vec<CachedSolution>,
    free_slots: &mut Vec<u32>,
    sol_of: &mut [u32],
    epoch: u64,
    members: &[u32],
    weight: i64,
    flips: &[usize],
) {
    let slot = match free_slots.pop() {
        Some(s) => s,
        None => {
            solutions.push(CachedSolution::default());
            (solutions.len() - 1) as u32
        }
    };
    let sol = &mut solutions[slot as usize];
    sol.size = members.len() as u32;
    sol.weight = weight;
    sol.flips.clear();
    sol.flips.extend_from_slice(flips);
    sol.last_seen = epoch;
    sol.free = false;
    for &m in members {
        sol_of[m as usize] = slot;
    }
}
