//! Union-Find decoding — the paper's "deeper decoder hierarchy"
//! extension (Sec. 8.1, future work 2).
//!
//! The paper proposes exploring a hierarchy of decoders between the
//! on-chip Clique predecoder and the exact off-chip MWPM matcher. The
//! natural middle tier is the Union-Find decoder (Delfosse–Nickerson):
//! almost-linear-time cluster growth plus peeling, markedly cheaper than
//! blossom matching at a modest accuracy cost. This crate implements it
//! from scratch on the same space-time detector graph the MWPM decoder
//! uses, and plugs it into the BTWC pipeline via
//! [`btwc_syndrome::ComplexDecoder::decode_window_mut`], the one entry
//! point every off-chip decoder implements. The decoder keeps no
//! scratch between decodes, so its inherent
//! [`UnionFindDecoder::decode_window`] takes `&self`.
//!
//! Algorithm (standard):
//!
//! 1. every detection event seeds a cluster;
//! 2. clusters of **odd** defect parity that do not touch the open
//!    boundary grow by half an edge in every direction each step;
//!    fully-grown edges merge clusters (weighted union-find);
//! 3. once every cluster is even or boundary-connected, the grown edge
//!    set is treated as an erasure and **peeled**: a spanning forest is
//!    built and leaf edges are consumed inward, emitting a data-qubit
//!    flip whenever a leaf vertex holds a defect;
//! 4. temporal edges flip nothing (measurement errors), spatial edges
//!    flip their data qubit.
//!
//! # Example
//!
//! ```
//! use btwc_lattice::{StabilizerType, SurfaceCode};
//! use btwc_syndrome::{ComplexDecoder, RoundHistory};
//! use btwc_uf::UnionFindDecoder;
//!
//! let code = SurfaceCode::new(5);
//! let mut decoder = UnionFindDecoder::new(&code, StabilizerType::X);
//! let mut errors = vec![false; code.num_data_qubits()];
//! errors[12] = true;
//! let round = code.syndrome_of(StabilizerType::X, &errors);
//! let mut window = RoundHistory::new(round.len(), 4);
//! window.push(&round);
//! window.push(&round);
//! assert_eq!(decoder.decode_window_mut(&window).qubits(), &[12]);
//! ```

mod decoder;
mod dsu;
mod graph;

pub use decoder::UnionFindDecoder;
pub use dsu::ClusterSet;
pub use graph::SpaceTimeGraph;
