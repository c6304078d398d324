//! # BTWC — Better Than Worst-Case decoding for quantum error correction
//!
//! A from-scratch Rust reproduction of *"Better Than Worst-Case Decoding
//! for Quantum Error Correction"* (ASPLOS 2023): a lightweight on-chip
//! **Clique** predecoder for surface codes that resolves the trivial,
//! over-90%-common-case error signatures at the cryogenic stage, statistical
//! provisioning of the off-chip decode link, and decode-overflow
//! execution stalling — together with every substrate the paper's
//! evaluation depends on (rotated surface codes, phenomenological noise,
//! an exact space-time MWPM baseline, AFS syndrome compression, and an
//! ERSFQ synthesis/cost flow).
//!
//! ## Crate map
//!
//! | Module | Contents |
//! |---|---|
//! | [`lattice`] | Rotated surface code geometry, detector graphs, logical operators |
//! | [`noise`] | Phenomenological noise model, deterministic forkable RNG |
//! | [`syndrome`] | Word-packed syndrome rounds ([`syndrome::PackedBits`]), machine-wide transposed batches ([`syndrome::SyndromeBatch`]), sticky filtering, detection events, corrections |
//! | [`clique`] | The Clique decoder (paper contribution 1) |
//! | [`mwpm`] | Exact blossom matching (reusable decode scratch) + space-time MWPM baseline |
//! | [`sparse`] | Sparse-blossom off-chip decoder: region growth + per-cluster exact matching |
//! | [`afs`] | AFS sparse syndrome compression baseline |
//! | [`sfq`] | ERSFQ cell library, netlist synthesis, power/area/latency |
//! | [`bandwidth`] | Statistical link provisioning + overflow stalling (contributions 2–3) |
//! | [`sim`] | Allocation-free Monte Carlo lifetime / logical-error-rate engines |
//! | [`pool`] | Thread pool (parked workers, one injector queue) with deterministic sharded map/reduce |
//! | [`core`] | The assembled BTWC pipeline and machine tier (`BtwcDecoder`, `BtwcMachine`, the `DecoderBackend` registry) |
//! | [`telemetry`] | Zero-cost-when-disabled metrics: deterministic cycle-domain counters/histograms/span timers, JSON snapshots |
//! | [`uf`] | Union-find decoder (the Sec. 8.1 hierarchical-decoding extension) |
//! | [`lut`] | Lookup-table decoder for small distances (LILLIPUT-style baseline) |
//!
//! ## Quickstart
//!
//! ```
//! use btwc::core::{BtwcDecoder, BtwcOutcome, StabilizerType, SurfaceCode};
//!
//! let code = SurfaceCode::new(5);
//! let mut decoder = BtwcDecoder::builder(&code, StabilizerType::X).build();
//! let mut errors = vec![false; code.num_data_qubits()];
//! errors[12] = true; // a single Z error on the central data qubit
//!
//! // Feed raw syndrome rounds; the two-round filter confirms, then
//! // Clique corrects on-chip without touching the off-chip link:
//! let round = code.syndrome_of(StabilizerType::X, &errors);
//! assert_eq!(decoder.process_round(&round), BtwcOutcome::Quiet);
//! match decoder.process_round(&round) {
//!     BtwcOutcome::OnChip(c) => c.apply_to(&mut errors),
//!     other => panic!("expected on-chip fix, got {other:?}"),
//! }
//! assert!(errors.iter().all(|&e| !e));
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and `crates/bench`
//! for the harness that regenerates every table and figure of the paper.

pub use btwc_afs as afs;
pub use btwc_bandwidth as bandwidth;
pub use btwc_clique as clique;
pub use btwc_core as core;
pub use btwc_lattice as lattice;
pub use btwc_lut as lut;
pub use btwc_mwpm as mwpm;
pub use btwc_noise as noise;
pub use btwc_pool as pool;
pub use btwc_sfq as sfq;
pub use btwc_sim as sim;
pub use btwc_sparse as sparse;
pub use btwc_syndrome as syndrome;
pub use btwc_telemetry as telemetry;
pub use btwc_uf as uf;
