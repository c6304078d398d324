//! Stochastic error injection for surface-code lifetime simulation.
//!
//! Implements the paper's phenomenological noise model (Sec. 6.1): each
//! cycle independently flips every data qubit with probability `p` and
//! every syndrome measurement with the same probability `p`. Independent
//! data/measurement rates are available for ablations (a zero
//! measurement rate is the code-capacity model).
//!
//! The model samples through [`SparseFlips`], a geometric-skip sampler
//! that draws once per flipped site plus once, instead of once per site.
//! At the low error rates the paper sweeps (5e-4 … 5e-3) most calls flip
//! nothing and end after that one draw without a logarithm, which is what
//! makes billion-cycle-scale Monte Carlo tractable.
//!
//! # Example
//!
//! ```
//! use btwc_noise::{PhenomenologicalNoise, SimRng};
//!
//! let noise = PhenomenologicalNoise::uniform(1e-3);
//! let mut rng = SimRng::from_seed(7);
//! let mut data = vec![false; 49];
//! noise.sample_data_into(&mut rng, &mut data);
//! assert!(data.iter().filter(|&&e| e).count() <= 49);
//! ```

mod model;
mod rng;
mod sparse;

pub use model::PhenomenologicalNoise;
pub use rng::SimRng;
pub use sparse::SparseFlips;
