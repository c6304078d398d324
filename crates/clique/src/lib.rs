//! The Clique decoder — the paper's lightweight on-chip predecoder.
//!
//! Clique (Sec. 4) inspects, for every *active* ancilla (one whose
//! sticky-filtered syndrome bit is lit), only the local "clique" of
//! same-type neighbor ancillas:
//!
//! * **odd** neighborhood parity → the signature is trivial; each lit
//!   neighbor pair identifies the shared data qubit to correct;
//! * **even** parity with **zero** lit neighbors *and* a private
//!   boundary data qubit → still trivial (the Fig. 5 corner/edge special
//!   cases); flip that private qubit;
//! * anything else → **complex**; raise the flag and ship the syndrome
//!   off-chip to the heavyweight decoder.
//!
//! Measurement errors are suppressed before Clique ever sees a syndrome
//! by the `k`-round sticky filter (Fig. 7, `k = 2` by default) provided
//! by [`btwc_syndrome::RoundHistory::sticky`]; [`CliqueFrontend`] bundles
//! the filter and the decoder into the complete on-chip unit.
//!
//! # Example
//!
//! ```
//! use btwc_clique::{CliqueDecoder, CliqueDecision};
//! use btwc_lattice::{StabilizerType, SurfaceCode};
//! use btwc_syndrome::PackedBits;
//!
//! let code = SurfaceCode::new(5);
//! let decoder = CliqueDecoder::new(&code, StabilizerType::X);
//!
//! // A single error on the central data qubit lights two ancillas that
//! // are clique neighbors — trivially decodable on-chip:
//! let mut errors = vec![false; code.num_data_qubits()];
//! errors[12] = true;
//! let syndrome = PackedBits::from_bools(&code.syndrome_of(StabilizerType::X, &errors));
//! match decoder.decode(&syndrome) {
//!     CliqueDecision::Trivial(correction) => assert_eq!(correction.qubits(), &[12]),
//!     other => panic!("expected trivial, got {other:?}"),
//! }
//! ```

mod batch;
mod decision;
mod decoder;
mod frontend;

pub use batch::BatchFrontend;
pub use decision::{CliqueDecision, Correction};
pub use decoder::CliqueDecoder;
pub use frontend::CliqueFrontend;
