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
/// Implemented by `btwc_sparse::SparseDecoder` (the sparse-blossom
/// default), `btwc_mwpm::MwpmDecoder` (the dense test oracle),
/// `btwc_uf::UnionFindDecoder`, and `btwc_lut::LutDecoder`; custom
/// implementations let experiments swap in other heavyweight decoders
/// (neural, belief propagation, …) behind the same BTWC front end.
pub trait ComplexDecoder {
    /// Decodes the detection events of `window` into a data correction.
    ///
    /// The one required method. Every caller owns its decoder
    /// exclusively (a pipeline, a machine, a simulation shard, a farm
    /// slot), so implementations keep their reusable scratch as plain
    /// fields. The result depends only on `window`: a decoder reused
    /// across windows decodes each one exactly as a fresh decoder
    /// would, which is what lets the decode farm share one decoder
    /// between tenants.
    fn decode_window_mut(&mut self, window: &RoundHistory) -> Correction;

    /// Forwards to [`ComplexDecoder::decode_window_mut`]; no decoder
    /// overrides it. Kept only because `benchmarks/e2e` calls it.
    fn decode_stream_mut(&mut self, window: &RoundHistory) -> Correction {
        self.decode_window_mut(window)
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
