//! The Better-Than-Worst-Case decoding system — the paper's Fig. 2 as a
//! public API.
//!
//! [`BtwcDecoder`] is the per-logical-qubit pipeline: every cycle's raw
//! syndrome round flows through the on-chip Clique frontend (sticky
//! measurement filter + clique decision logic); trivial signatures are
//! corrected on the spot, complex ones are shipped to a pluggable
//! [`ComplexDecoder`] (by default the exact space-time MWPM decoder).
//!
//! [`BtwcMachine`] scales that to many logical qubits: one batched
//! packed [`SyndromeBatch`] per cycle runs the sticky filter
//! word-parallel across the whole machine, escalations cross the
//! off-chip link as real [`btwc_bandwidth::DecodeRequest`] frames, and
//! per-cycle complex decodes beyond the provisioned bandwidth trigger
//! stall cycles (idle-gate insertion), exactly the Sec. 5 mechanism.
//! Off-chip decoding everywhere is selected by the single
//! [`DecoderBackend`] registry.
//!
//! # Example
//!
//! ```
//! use btwc_core::{BtwcDecoder, BtwcOutcome};
//! use btwc_lattice::{StabilizerType, SurfaceCode};
//!
//! let code = SurfaceCode::new(5);
//! let mut decoder = BtwcDecoder::builder(&code, StabilizerType::X).build();
//!
//! // A persistent single error is corrected on-chip within the
//! // two-round filter latency:
//! let mut errors = vec![false; code.num_data_qubits()];
//! errors[12] = true;
//! let round = code.syndrome_of(StabilizerType::X, &errors);
//! assert_eq!(decoder.process_round(&round), BtwcOutcome::Quiet);
//! match decoder.process_round(&round) {
//!     BtwcOutcome::OnChip(c) => assert_eq!(c.qubits(), &[12]),
//!     other => panic!("expected on-chip correction, got {other:?}"),
//! }
//! ```

mod decoder;
mod machine;
mod service;

pub use decoder::{
    window_rounds, BackendFactory, BtwcBuilder, BtwcDecoder, BtwcOutcome, ComplexDecoder,
    DecoderBackend, DecoderStats,
};
pub use machine::{BtwcMachine, MachineBuilder, MachineCycle, MachineStats, TransportStats};
pub use service::{EscalationJob, PendingCycle, RejectReason, ServiceResponse};

// Re-export the vocabulary types users need to drive the system.
pub use btwc_bandwidth::{FaultyLink, LinkFaultModel, LinkFaultStats};
pub use btwc_clique::{BatchFrontend, CliqueDecision, CliqueDecoder, CliqueFrontend};
pub use btwc_lattice::{StabilizerType, SurfaceCode};
pub use btwc_lut::LutDecoder;
pub use btwc_mwpm::MwpmDecoder;
pub use btwc_sparse::SparseDecoder;
pub use btwc_syndrome::{BatchHistory, Correction, RoundHistory, Syndrome, SyndromeBatch};
pub use btwc_uf::UnionFindDecoder;
