//! Syndrome extraction, multi-round history, and signature taxonomy.
//!
//! Sits between the lattice ([`btwc_lattice`]) and the decoders: it turns
//! error configurations into per-cycle syndrome bit vectors, maintains
//! the sliding window of measurement rounds that both the Clique
//! decoder's sticky filter (paper Fig. 7) and the MWPM decoder's
//! space-time matching consume, and classifies signatures into the
//! paper's Fig. 4 taxonomy (All-0s / Local-1s / Complex).
//!
//! Syndromes are stored word-packed ([`PackedBits`]): XOR/AND/OR, zero
//! tests, and weight counts are word-parallel, and the sticky filter /
//! detection-event diffs are word ops — the representation the Monte
//! Carlo engines push billions of cycles through.
//!
//! # Example
//!
//! ```
//! use btwc_lattice::{StabilizerType, SurfaceCode};
//! use btwc_syndrome::{PackedBits, RoundHistory};
//!
//! let code = SurfaceCode::new(3);
//! let mut errors = vec![false; code.num_data_qubits()];
//! errors[4] = true; // a single error on the central data qubit
//! let syndrome = PackedBits::from_bools(&code.syndrome_of(StabilizerType::X, &errors));
//! assert_eq!(syndrome.weight(), 2);
//!
//! let mut history = RoundHistory::new(syndrome.len(), 4);
//! history.push_packed(&syndrome);
//! history.push_packed(&syndrome);
//! // The two-round sticky filter accepts errors that persist:
//! assert_eq!(history.sticky(2).weight(), 2);
//! ```

mod batch;
mod classify;
mod complex;
mod correction;
mod history;
mod packed;
mod repr;

pub use batch::{BatchHistory, SyndromeBatch};
pub use classify::{classify_true, SignatureClass};
pub use complex::ComplexDecoder;
pub use correction::Correction;
pub use history::{DetectionEvent, RoundHistory};
pub use packed::{PackedBits, SetBits};
pub use repr::Syndrome;
