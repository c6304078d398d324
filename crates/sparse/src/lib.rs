//! Sparse-blossom off-chip decoding — exact MWPM without the dense
//! all-pairs event matrix.
//!
//! The BTWC hierarchy keeps Clique on-chip and ships only rare complex
//! windows to the off-chip matcher. The dense blossom
//! (`btwc_mwpm::MwpmDecoder`, now only the test oracle) solves them
//! with an O(n³) matching over *every* event pair; this crate uses the
//! sparse-blossom structure (à la PyMatching v2): work directly on the
//! space-time detector graph, give each detection event a region whose
//! radius is its boundary-exit bid (the boundary is always there as an
//! exit at that price), discover matchable edges lazily by detecting
//! region collisions in round order — each check one O(1) lookup in the
//! lattice's once-per-code distance tables, with a time-horizon prune
//! ending every scan early — and match the resulting clusters with the
//! in-crate sparse blossom solver ([`blossom`]) on each cluster's
//! **gain graph**: the cluster's k events are the vertices, its
//! collisions the edges, and an edge weighs what pairing its two events
//! saves over two boundary exits, `bd(u) + bd(v) − d(u, v)` —
//! non-negative exactly when the regions collide. A maximum-weight
//! matching of that graph, in which any vertex may stay unmatched, is
//! the minimum-weight decode: unmatched events exit through the
//! boundary and the cluster weighs `Σ bd − Σ matched gain`. Where
//! pairing and exiting weigh the same, the decoder pairs: the Clique
//! tier's corrections make such ties common, and pairing them is the
//! better guess (see `regions`, "Ties pair"). Alternating trees, dual
//! adjustments (dynamic region radii) and blossom shrinking run
//! directly on the discovered collision edges, so a cluster of any size — even a
//! chained cluster spanning most of a window — is matched without a
//! dense all-pairs table and without boundary-twin vertices. The solver
//! is exact from any dual-feasible start (an event whose dual runs out
//! is *retired* to its boundary exit), which is what lets every solve
//! **jump-start**: duals begin at each event's best incident gain, and
//! each event in turn, if still exposed, drops its dual until an edge
//! is tight (matching along it if it can — mutually-best partners are
//! tight from the start) or it retires — most clusters are solved
//! before the first stage, instead of descending from a uniform maximum
//! one stage per pair.
//!
//! The result is exact — identical total matching weight to the dense
//! blossom on every input, which the property suite verifies against
//! both the dense decoder and the exponential reference matcher — while
//! the per-decode cost drops from "cubic in all events" to "a pruned
//! collision scan plus per-cluster matchings sized by how entangled the
//! events actually are". All working state lives in a reusable
//! [`SparseScratch`], so a warmed-up decode makes exactly one heap
//! allocation, the returned correction's qubit list, whatever
//! the window's size (`tests/allocations.rs` counts it).
//!
//! Every window is decoded from scratch. The hierarchy *consumes* a
//! window on each complex decode (the tiers reset it once the
//! correction is applied), so two successive off-chip requests of one
//! qubit share no rounds and there is nothing for an incremental decode
//! to reuse; see README, "Why there is no incremental decode".
//!
//! [`SparseDecoder`] mirrors the dense decoder's API (`decode_window_mut`,
//! `decode_events_mut` and weight-reporting `_weighted` variants, all
//! through `&mut self`, so the scratch is a plain field with no lock)
//! and plugs into the hierarchy as the default `ComplexDecoder`
//! backend, `btwc_core::DecoderBackend::SparseBlossom`.
//!
//! # Example
//!
//! ```
//! use btwc_lattice::{StabilizerType, SurfaceCode};
//! use btwc_sparse::SparseDecoder;
//! use btwc_syndrome::RoundHistory;
//!
//! let code = SurfaceCode::new(5);
//! let mut decoder = SparseDecoder::new(&code, StabilizerType::X);
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
mod decoder;
mod regions;
mod scratch;

pub use blossom::{BlossomArena, ClusterEdge, SolveStats};
pub use decoder::SparseDecoder;
pub use scratch::SparseScratch;
