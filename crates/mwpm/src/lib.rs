//! Minimum-Weight Perfect Matching — the heavyweight off-chip decoder.
//!
//! This crate is the workspace's from-scratch port of the state-of-the-art
//! decoder the paper uses as its complex/off-chip baseline (Dennis et al.,
//! "Topological quantum memory"). It has four layers:
//!
//! 1. [`blossom`] — an exact O(n³) maximum-weight general-graph matching
//!    (Galil-style primal-dual with blossom shrinking), wrapped into
//!    minimum-weight *perfect* matching via weight complementation;
//! 2. [`brute`] — an exponential but obviously-correct reference matcher
//!    used by the property-test suite to validate the blossom code;
//! 3. [`project`] — the projection of matched event/boundary-twin pairs
//!    onto data-qubit flips;
//! 4. [`MwpmDecoder`] — the space-time decoder: detection events from a
//!    window of measurement rounds become nodes, weights are detector-
//!    graph distance plus time separation, every event may also match to
//!    the open boundary, and matched pairs are projected back to data-
//!    qubit corrections along shortest paths. Every decode takes
//!    `&mut self` and reuses the decoder's own scratch; the `_weighted`
//!    variants also report the committed matching's total weight.
//!
//! # Example
//!
//! ```
//! use btwc_lattice::{StabilizerType, SurfaceCode};
//! use btwc_mwpm::MwpmDecoder;
//! use btwc_syndrome::RoundHistory;
//!
//! let code = SurfaceCode::new(5);
//! let mut decoder = MwpmDecoder::new(&code, StabilizerType::X);
//!
//! // A single data error seen over two rounds:
//! let mut errors = vec![false; code.num_data_qubits()];
//! errors[12] = true;
//! let round = code.syndrome_of(StabilizerType::X, &errors);
//! let mut history = RoundHistory::new(round.len(), 8);
//! history.push(&round);
//! history.push(&round);
//! let correction = decoder.decode_window_mut(&history);
//! assert_eq!(correction.qubits(), &[12]);
//! ```

pub mod blossom;
pub mod brute;
mod decoder;
pub mod project;

pub use decoder::MwpmDecoder;
