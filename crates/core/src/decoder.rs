//! The per-logical-qubit BTWC pipeline.

use btwc_clique::{CliqueDecision, CliqueFrontend};
use btwc_lattice::{StabilizerType, SurfaceCode};
use btwc_lut::LutDecoder;
use btwc_mwpm::MwpmDecoder;
use btwc_sparse::SparseDecoder;
use btwc_syndrome::{Correction, PackedBits, RoundHistory};
use btwc_uf::UnionFindDecoder;

pub use btwc_syndrome::ComplexDecoder;

/// Constructor signature of a [`DecoderBackend::Custom`] backend: each
/// pipeline, machine, and simulation shard builds its *own* decoder
/// instance (the Monte Carlo engines run one decoder per worker), so a
/// custom backend registers a factory rather than a single boxed
/// instance.
pub type BackendFactory = fn(&SurfaceCode, StabilizerType) -> Box<dyn ComplexDecoder + Send + Sync>;

/// Which off-chip decoder resolves complex windows — the *single*
/// backend selector of the workspace, consumed uniformly by
/// [`BtwcBuilder::backend`], [`crate::MachineBuilder::backend`], and
/// (via re-export) the sim configs' `with_backend`.
///
/// [`DecoderBackend::DenseMwpm`] and [`DecoderBackend::SparseBlossom`]
/// are *exact* minimum-weight perfect matchers — weight-equal on every
/// input — so choosing between them is purely a cost-model decision
/// (sparse wins from d ≳ 13 at operational rates).
/// [`DecoderBackend::UnionFind`] trades a small accuracy loss for
/// almost-linear decoding; [`DecoderBackend::Lut`] is the
/// LILLIPUT-style O(1) table for small distances.
#[derive(Clone, Copy, Default)]
pub enum DecoderBackend {
    /// The dense O(n³) blossom over all event pairs ([`MwpmDecoder`]) —
    /// the paper-faithful baseline.
    #[default]
    DenseMwpm,
    /// Sparse-blossom region growth + per-cluster matching
    /// ([`SparseDecoder`]).
    SparseBlossom,
    /// Almost-linear cluster growth and peeling ([`UnionFindDecoder`],
    /// the Sec. 8.1 hierarchy tier).
    UnionFind,
    /// Exhaustive single-round lookup table ([`LutDecoder`]).
    /// Construction panics beyond `btwc_lut::MAX_LUT_BITS` ancillas
    /// (d ≤ 7), exactly the impracticality the paper argues.
    Lut,
    /// A caller-registered decoder factory. The `name` identifies the
    /// backend in `Debug`/`PartialEq` (two customs compare equal iff
    /// their names match; a custom never equals a built-in, even with
    /// a colliding name); `build` is invoked once per pipeline.
    Custom {
        /// Short identifier for logs, stats, and equality.
        name: &'static str,
        /// Constructor invoked for every pipeline/machine/shard.
        build: BackendFactory,
    },
}

impl DecoderBackend {
    /// Constructs the chosen decoder for `code` / `ty`, boxed for the
    /// pipeline.
    ///
    /// # Panics
    ///
    /// Panics if the backend cannot serve this code (today only
    /// [`DecoderBackend::Lut`] beyond `btwc_lut::MAX_LUT_BITS`
    /// ancillas).
    #[must_use]
    pub fn build(
        self,
        code: &SurfaceCode,
        ty: StabilizerType,
    ) -> Box<dyn ComplexDecoder + Send + Sync> {
        match self {
            DecoderBackend::DenseMwpm => Box::new(MwpmDecoder::new(code, ty)),
            DecoderBackend::SparseBlossom => Box::new(SparseDecoder::new(code, ty)),
            DecoderBackend::UnionFind => Box::new(UnionFindDecoder::new(code, ty)),
            DecoderBackend::Lut => Box::new(LutDecoder::build(code, ty)),
            DecoderBackend::Custom { build, .. } => build(code, ty),
        }
    }

    /// Short identifier of this backend.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            DecoderBackend::DenseMwpm => "dense-mwpm",
            DecoderBackend::SparseBlossom => "sparse-blossom",
            DecoderBackend::UnionFind => "union-find",
            DecoderBackend::Lut => "lut",
            DecoderBackend::Custom { name, .. } => name,
        }
    }
}

impl std::fmt::Debug for DecoderBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // One stable token per backend (custom factories print their
        // registered name, not a function pointer).
        write!(f, "DecoderBackend({})", self.name())
    }
}

impl PartialEq for DecoderBackend {
    fn eq(&self, other: &Self) -> bool {
        // Compare variant identity plus registered name, never the
        // factory address: function pointer comparisons are unreliable
        // across codegen units. The discriminant check keeps a Custom
        // backend that reuses a built-in token (e.g. "dense-mwpm")
        // from comparing equal to the built-in itself.
        std::mem::discriminant(self) == std::mem::discriminant(other) && self.name() == other.name()
    }
}

impl Eq for DecoderBackend {}

/// What one cycle of the pipeline did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BtwcOutcome {
    /// Nothing to correct this cycle.
    Quiet,
    /// Clique corrected the signature on-chip.
    OnChip(Correction),
    /// The signature went off-chip; the complex decoder's correction.
    OffChip(Correction),
    /// Off-chip transport failed past its retry/deadline budget; the
    /// carried correction is the best-effort *on-chip emergency* result
    /// (see `CliqueDecoder::emergency_correction`) applied so the
    /// machine keeps making forward progress instead of stalling
    /// forever. Only [`crate::BtwcMachine`] with a faulty link emits
    /// this.
    Degraded(Correction),
}

impl BtwcOutcome {
    /// The correction carried by this outcome, if any.
    #[must_use]
    pub fn correction(&self) -> Option<&Correction> {
        match self {
            BtwcOutcome::Quiet => None,
            BtwcOutcome::OnChip(c) | BtwcOutcome::OffChip(c) | BtwcOutcome::Degraded(c) => Some(c),
        }
    }

    /// Whether the cycle needed off-chip bandwidth. Degraded cycles
    /// *attempted* off-chip transport but were resolved on-chip, so
    /// they report `false`.
    #[must_use]
    pub fn went_offchip(&self) -> bool {
        matches!(self, BtwcOutcome::OffChip(_))
    }

    /// Whether off-chip transport was abandoned and the emergency
    /// on-chip correction applied instead.
    #[must_use]
    pub fn was_degraded(&self) -> bool {
        matches!(self, BtwcOutcome::Degraded(_))
    }
}

/// Lifetime counters of a [`BtwcDecoder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DecoderStats {
    /// Rounds processed.
    pub cycles: u64,
    /// Quiet cycles (all-zero filtered signature).
    pub quiet: u64,
    /// Cycles corrected on-chip.
    pub onchip: u64,
    /// Cycles sent off-chip.
    pub offchip: u64,
}

impl DecoderStats {
    /// Fraction of decodes kept on-chip.
    #[must_use]
    pub fn coverage(&self) -> f64 {
        if self.cycles == 0 {
            return 1.0;
        }
        (self.quiet + self.onchip) as f64 / self.cycles as f64
    }
}

/// Off-chip decode-window capacity in rounds for `code`: `4 · max(d, 4)`.
/// The one sizing rule of every tier that keeps a decode window — the
/// per-qubit pipeline, the machine, the lifetime simulation (through
/// [`BtwcDecoder`]) and the decode farm's receive windows.
#[must_use]
pub fn window_rounds(code: &SurfaceCode) -> usize {
    usize::from(code.distance()).max(4) * 4
}

/// Builder for [`BtwcDecoder`] (filter depth, complex decoder choice).
/// The decode window holds [`window_rounds`] rounds.
pub struct BtwcBuilder<'a> {
    code: &'a SurfaceCode,
    ty: StabilizerType,
    clique_rounds: usize,
    backend: DecoderBackend,
}

impl std::fmt::Debug for BtwcBuilder<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BtwcBuilder")
            .field("ty", &self.ty)
            .field("clique_rounds", &self.clique_rounds)
            .field("backend", &self.backend)
            .finish()
    }
}

impl<'a> BtwcBuilder<'a> {
    fn new(code: &'a SurfaceCode, ty: StabilizerType) -> Self {
        Self { code, ty, clique_rounds: 2, backend: DecoderBackend::default() }
    }

    /// Sets the Clique sticky-filter depth (default 2).
    ///
    /// # Panics
    ///
    /// Panics if `rounds == 0`.
    #[must_use]
    pub fn clique_rounds(mut self, rounds: usize) -> Self {
        assert!(rounds >= 1, "sticky filter needs at least one round");
        self.clique_rounds = rounds;
        self
    }

    /// Selects the off-chip decoder backend (default: the dense MWPM
    /// baseline) — the one knob shared by every tier of the workspace;
    /// see [`DecoderBackend`].
    #[must_use]
    pub fn backend(mut self, backend: DecoderBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Builds the pipeline.
    #[must_use]
    pub fn build(self) -> BtwcDecoder {
        let frontend = CliqueFrontend::with_rounds(self.code, self.ty, self.clique_rounds);
        let n_anc = self.code.num_ancillas(self.ty);
        BtwcDecoder {
            frontend,
            complex: self.backend.build(self.code, self.ty),
            window: RoundHistory::new(n_anc, window_rounds(self.code)),
            stats: DecoderStats::default(),
            scratch: PackedBits::new(n_anc),
        }
    }
}

/// The complete BTWC pipeline for one logical qubit (paper Fig. 2):
/// sticky filter → Clique decision → on-chip correction or off-chip
/// complex decode.
pub struct BtwcDecoder {
    frontend: CliqueFrontend,
    complex: Box<dyn ComplexDecoder + Send + Sync>,
    window: RoundHistory,
    stats: DecoderStats,
    /// Reused packed buffer for bool-slice ingestion.
    scratch: PackedBits,
}

impl std::fmt::Debug for BtwcDecoder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BtwcDecoder")
            .field("frontend", &self.frontend)
            .field("window_len", &self.window.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl BtwcDecoder {
    /// Starts configuring a pipeline for `code` / `ty`.
    #[must_use]
    pub fn builder(code: &SurfaceCode, ty: StabilizerType) -> BtwcBuilder<'_> {
        BtwcBuilder::new(code, ty)
    }

    /// Ingests one raw measurement round (bool-slice convenience form:
    /// packs into a reused buffer, then runs the packed pipeline) and
    /// returns the cycle outcome. Corrections returned must be applied
    /// to the tracked error state (or the Pauli frame) by the caller.
    ///
    /// # Panics
    ///
    /// Panics if `raw.len()` does not match the ancilla count.
    pub fn process_round(&mut self, raw: &[bool]) -> BtwcOutcome {
        self.scratch.fill_from_bools(raw);
        let round = std::mem::take(&mut self.scratch);
        let outcome = self.process_round_packed(&round);
        self.scratch = round;
        outcome
    }

    /// Ingests one already-packed raw measurement round — the hot path:
    /// the window push is a recycled word copy, the sticky filter a
    /// word-AND, and the all-zero common case touches no per-bit state.
    ///
    /// Window bookkeeping, and what it retains:
    ///
    /// * While the window is **empty**, all-zero rounds are not pushed
    ///   at all. They carry no detection events and only shift event
    ///   times uniformly, so the space-time matching of a later complex
    ///   decode is unchanged — this removes the seed implementation's
    ///   per-cycle round copy in the >90% quiet case.
    /// * When the window **fills**, it **slides**: pushing onto a full
    ///   [`RoundHistory`] evicts the oldest round and re-bases the
    ///   surviving detection events, so the window always holds the
    ///   most recent non-trivial history.
    /// * A complex decode consumes the window and resets it, so every
    ///   off-chip window is decoded once, from scratch.
    ///
    /// # Panics
    ///
    /// Panics if `raw.len()` does not match the ancilla count.
    pub fn process_round_packed(&mut self, raw: &PackedBits) -> BtwcOutcome {
        if !(self.window.is_empty() && raw.is_zero()) {
            self.window.push_packed(raw);
        }
        self.stats.cycles += 1;
        match self.frontend.push_round_packed(raw) {
            CliqueDecision::AllZeros => {
                self.stats.quiet += 1;
                BtwcOutcome::Quiet
            }
            CliqueDecision::Trivial(c) => {
                self.stats.onchip += 1;
                BtwcOutcome::OnChip(c)
            }
            CliqueDecision::Complex => {
                self.stats.offchip += 1;
                let c = self.complex.decode_window_mut(&self.window);
                // Window consumed; the sticky filter clears itself once
                // the correction lands, so no pipeline reset is needed.
                self.window.reset();
                BtwcOutcome::OffChip(c)
            }
        }
    }

    /// Lifetime counters.
    #[must_use]
    pub fn stats(&self) -> DecoderStats {
        self.stats
    }

    /// Clears the filter pipeline and window (not the counters).
    pub fn reset(&mut self) {
        self.frontend.reset();
        self.window.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_for(code: &SurfaceCode, errors: &[bool]) -> Vec<bool> {
        code.syndrome_of(StabilizerType::X, errors)
    }

    #[test]
    fn quiet_stream_stays_quiet() {
        let code = SurfaceCode::new(3);
        let mut dec = BtwcDecoder::builder(&code, StabilizerType::X).build();
        let quiet = vec![false; code.num_ancillas(StabilizerType::X)];
        for _ in 0..10 {
            assert_eq!(dec.process_round(&quiet), BtwcOutcome::Quiet);
        }
        assert_eq!(dec.stats().quiet, 10);
        assert!((dec.stats().coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn persistent_error_corrected_onchip_after_filter_delay() {
        let code = SurfaceCode::new(5);
        for ty in [StabilizerType::X, StabilizerType::Z] {
            let mut dec = BtwcDecoder::builder(&code, ty).build();
            let mut errors = vec![false; code.num_data_qubits()];
            errors[12] = true;
            let round = code.syndrome_of(ty, &errors);
            assert_eq!(dec.process_round(&round), BtwcOutcome::Quiet);
            let out = dec.process_round(&round);
            assert_eq!(out.correction().map(Correction::qubits), Some(&[12usize][..]), "{ty:?}");
            assert!(!out.went_offchip());
            assert_eq!(dec.stats().onchip, 1);
        }
    }

    #[test]
    fn chain_goes_offchip_and_is_resolved() {
        let code = SurfaceCode::new(7);
        // A chain of 2 in the interior, complex for Clique: vertical for
        // the X plane, horizontal for the Z plane.
        for (ty, chain) in [
            (StabilizerType::X, [3 * 7 + 3, 4 * 7 + 3]),
            (StabilizerType::Z, [3 * 7 + 3, 3 * 7 + 4]),
        ] {
            let mut dec = BtwcDecoder::builder(&code, ty).build();
            let mut errors = vec![false; code.num_data_qubits()];
            for q in chain {
                errors[q] = true;
            }
            let round = code.syndrome_of(ty, &errors);
            assert_eq!(dec.process_round(&round), BtwcOutcome::Quiet);
            let out = dec.process_round(&round);
            assert!(out.went_offchip(), "{ty:?}: chain must be shipped off-chip");
            let c = out.correction().unwrap();
            // The MWPM correction must cancel the syndrome equivalently.
            let mut residual = errors.clone();
            c.apply_to(&mut residual);
            assert!(code.syndrome_of(ty, &residual).iter().all(|&s| !s));
            assert!(!code.is_logical_error(ty, &residual));
            assert_eq!(dec.stats().offchip, 1);
        }
    }

    /// A custom backend whose every decode flips data qubit 99.
    fn null_backend() -> DecoderBackend {
        struct NullDecoder;
        impl ComplexDecoder for NullDecoder {
            fn decode_window_mut(&mut self, _w: &RoundHistory) -> Correction {
                Correction::from_flips(vec![99])
            }
        }
        DecoderBackend::Custom { name: "null", build: |_, _| Box::new(NullDecoder) }
    }

    #[test]
    fn custom_complex_decoder_is_used() {
        let code = SurfaceCode::new(7);
        let mut dec =
            BtwcDecoder::builder(&code, StabilizerType::X).backend(null_backend()).build();
        let mut errors = vec![false; code.num_data_qubits()];
        errors[3 * 7 + 3] = true;
        errors[4 * 7 + 3] = true;
        let round = round_for(&code, &errors);
        let _ = dec.process_round(&round);
        let out = dec.process_round(&round);
        assert_eq!(out.correction().map(Correction::qubits), Some(&[99usize][..]));
    }

    #[test]
    fn sparse_backend_resolves_complex_windows_like_dense() {
        let code = SurfaceCode::new(7);
        let mut dense = BtwcDecoder::builder(&code, StabilizerType::X).build();
        let mut sparse = BtwcDecoder::builder(&code, StabilizerType::X)
            .backend(DecoderBackend::SparseBlossom)
            .build();
        let mut errors = vec![false; code.num_data_qubits()];
        errors[3 * 7 + 3] = true;
        errors[4 * 7 + 3] = true;
        let round = round_for(&code, &errors);
        for dec in [&mut dense, &mut sparse] {
            let _ = dec.process_round(&round);
            let out = dec.process_round(&round);
            assert!(out.went_offchip());
            let mut residual = errors.clone();
            out.correction().unwrap().apply_to(&mut residual);
            assert!(code.syndrome_of(StabilizerType::X, &residual).iter().all(|&s| !s));
            assert!(!code.is_logical_error(StabilizerType::X, &residual));
        }
    }

    #[test]
    fn backend_is_ignored_when_custom_decoder_installed() {
        // One selector: the last `backend` call wins outright.
        let code = SurfaceCode::new(7);
        let mut dec = BtwcDecoder::builder(&code, StabilizerType::X)
            .backend(DecoderBackend::SparseBlossom)
            .backend(null_backend())
            .build();
        let mut errors = vec![false; code.num_data_qubits()];
        errors[3 * 7 + 3] = true;
        errors[4 * 7 + 3] = true;
        let round = round_for(&code, &errors);
        let _ = dec.process_round(&round);
        let out = dec.process_round(&round);
        assert_eq!(out.correction().map(Correction::qubits), Some(&[99usize][..]));
    }

    #[test]
    fn backend_equality_is_variant_and_name_aware() {
        fn null_factory(
            code: &SurfaceCode,
            ty: StabilizerType,
        ) -> Box<dyn ComplexDecoder + Send + Sync> {
            DecoderBackend::DenseMwpm.build(code, ty)
        }
        let custom = DecoderBackend::Custom { name: "mine", build: null_factory };
        assert_eq!(custom, DecoderBackend::Custom { name: "mine", build: null_factory });
        assert_ne!(custom, DecoderBackend::Custom { name: "other", build: null_factory });
        // A custom reusing a built-in token must not impersonate it.
        let imposter = DecoderBackend::Custom { name: "dense-mwpm", build: null_factory };
        assert_ne!(imposter, DecoderBackend::DenseMwpm);
        assert_eq!(DecoderBackend::SparseBlossom, DecoderBackend::SparseBlossom);
        assert_ne!(DecoderBackend::SparseBlossom, DecoderBackend::UnionFind);
    }

    #[test]
    fn builder_knobs_are_respected() {
        let code = SurfaceCode::new(5);
        let mut dec = BtwcDecoder::builder(&code, StabilizerType::X).clique_rounds(3).build();
        let mut errors = vec![false; code.num_data_qubits()];
        errors[12] = true;
        let round = round_for(&code, &errors);
        // k=3: two quiet cycles before the on-chip correction.
        assert_eq!(dec.process_round(&round), BtwcOutcome::Quiet);
        assert_eq!(dec.process_round(&round), BtwcOutcome::Quiet);
        assert!(matches!(dec.process_round(&round), BtwcOutcome::OnChip(_)));
    }

    #[test]
    fn reset_refills_filter() {
        let code = SurfaceCode::new(5);
        let mut dec = BtwcDecoder::builder(&code, StabilizerType::X).build();
        let mut errors = vec![false; code.num_data_qubits()];
        errors[12] = true;
        let round = round_for(&code, &errors);
        let _ = dec.process_round(&round);
        dec.reset();
        assert_eq!(dec.process_round(&round), BtwcOutcome::Quiet);
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn zero_clique_rounds_rejected() {
        let code = SurfaceCode::new(3);
        let _ = BtwcDecoder::builder(&code, StabilizerType::X).clique_rounds(0);
    }
}
