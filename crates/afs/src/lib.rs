//! AFS-style syndrome compression — the off-chip-bandwidth baseline.
//!
//! AFS (Das et al., HPCA 2022) reduces decode I/O by compressing each
//! cycle's syndrome before it crosses the refrigerator boundary. The
//! paper compares Clique against AFS's most effective scheme, *Sparse
//! Representation* (Sec. 7.2 / Fig. 13): one flag bit for the all-zero
//! case, otherwise explicit indices for every non-zero bit, which costs
//! `1 + O(k·log N)` bits and degrades quickly as the error rate or code
//! distance grows.
//!
//! This crate implements that one scheme as a real bit-level encoder /
//! decoder, [`SparseRepr`]; `btwc_sim::afs_comparison` prices every
//! syndrome weight of Fig. 13 through it.
//!
//! # Example
//!
//! ```
//! use btwc_afs::SparseRepr;
//! use btwc_syndrome::Syndrome;
//!
//! let mut syndrome = Syndrome::new(24);
//! syndrome.set(5, true);
//! let codec = SparseRepr::new(24);
//! let bits = codec.encode(&syndrome);
//! assert!(bits.len() < 24, "one lit bit compresses well");
//! assert_eq!(codec.decode(&bits), syndrome);
//! ```

mod bits;
mod codec;

pub use codec::SparseRepr;
