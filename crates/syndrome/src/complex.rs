//! The off-chip decoder interface.
//!
//! Lives here — next to [`RoundHistory`] and [`Correction`], the types
//! it consumes and produces — so that every heavyweight decoder crate
//! (`btwc-mwpm`, `btwc-sparse`, `btwc-uf`, `btwc-lut`, or anything
//! external) can implement it without depending on the assembled
//! pipeline in `btwc-core`, and `btwc-core` in turn can depend on all
//! of them to offer a unified backend registry.

use crate::correction::Correction;
use crate::history::RoundHistory;

/// An off-chip decoder that resolves a window of measurement rounds.
///
/// Implemented by `btwc_mwpm::MwpmDecoder` (the dense default),
/// `btwc_sparse::SparseDecoder` (the sparse-blossom backend),
/// `btwc_uf::UnionFindDecoder`, and `btwc_lut::LutDecoder`; custom
/// implementations let experiments swap in other heavyweight decoders
/// (neural, belief propagation, …) behind the same BTWC front end.
pub trait ComplexDecoder {
    /// Decodes the detection events of `window` into a data correction.
    fn decode_window(&self, window: &RoundHistory) -> Correction;

    /// [`ComplexDecoder::decode_window`] with exclusive access. The
    /// pipeline owns its decoder mutably, so implementations with
    /// internal locking (both built-in matchers guard a reusable
    /// scratch) override this to skip the lock; the default just
    /// forwards to the shared path.
    fn decode_window_mut(&mut self, window: &RoundHistory) -> Correction {
        self.decode_window(window)
    }

    /// Forwards to [`ComplexDecoder::decode_window_mut`]; no decoder
    /// overrides it. Kept only because `benchmarks/e2e` calls it.
    fn decode_stream_mut(&mut self, window: &RoundHistory) -> Correction {
        self.decode_window_mut(window)
    }

    /// Decodes `k` independent windows in one backend call, returning
    /// corrections in submission order.
    ///
    /// This is the decode farm's batching seam: simultaneous
    /// escalations for the same backend/distance are grouped into one
    /// call so an implementation can amortize per-call setup (or, for
    /// hardware backends, a single DMA round trip). The contract is
    /// **bit-identical to `k` individual
    /// [`ComplexDecoder::decode_window_mut`] calls in the same order**
    /// — flips, weights, and decoder statistics must not depend on the
    /// grouping (pinned by the `btwc-farm` batching proptest, including
    /// the `k = 1` fast path). The default simply loops, so every
    /// existing decoder participates unchanged.
    fn decode_batch_mut(&mut self, windows: &[&RoundHistory]) -> Vec<Correction> {
        windows.iter().map(|w| self.decode_window_mut(w)).collect()
    }

    /// Attach a metrics registry: from here on the decoder records its
    /// internals (solver stage counts, cluster sizes, …) into
    /// `registry`. The default is a no-op so stateless or uninstrumented
    /// decoders participate unchanged; implementations register their
    /// metrics under a stable `<backend>.` name prefix.
    fn attach_telemetry(&mut self, registry: &btwc_telemetry::MetricsRegistry) {
        let _ = registry;
    }
}
