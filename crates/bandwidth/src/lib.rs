//! Statistical off-chip bandwidth allocation and decode-overflow
//! stalling — the paper's second and third contributions (Sec. 5).
//!
//! The Clique predecoder leaves a rare stream of complex decodes that
//! must cross the refrigerator boundary. Provisioning that link for the
//! *average* complex-decode rate diverges: the stall cycles themselves
//! generate new errors, so the backlog compounds (Fig. 9, top).
//! Provisioning at a high percentile of the per-cycle demand
//! distribution keeps stalls rare and the backlog bounded (Fig. 9,
//! bottom); sweeping the percentile trades bandwidth against execution
//! time (Fig. 16).
//!
//! # Example
//!
//! ```
//! use btwc_bandwidth::{ArrivalModel, QueueSim};
//! use btwc_noise::SimRng;
//!
//! // 1000 logical qubits, each needing off-chip decode 5% of cycles.
//! let arrivals = ArrivalModel::bernoulli(1000, 0.05);
//! let mut rng = SimRng::from_seed(1);
//! // Provision at the 99th percentile of per-cycle demand:
//! let bw = arrivals.bandwidth_at_percentile(&mut rng, 0.99, 10_000);
//! let mut sim = QueueSim::new(bw);
//! let outcome = sim.run(&arrivals, &mut rng, 10_000);
//! assert!(outcome.execution_time_increase() < 0.05);
//! ```

mod arrivals;
mod fault;
mod io;
mod queue;
mod tradeoff;
mod transport;

pub use arrivals::ArrivalModel;
pub use fault::{Delivery, FaultyLink, LinkFaultModel, LinkFaultStats, Transmission};
pub use io::IoModel;
pub use queue::{CycleRecord, QueueSim, RunOutcome};
pub use tradeoff::{sweep_tradeoff, TradeoffPoint};
pub use transport::{
    crc32, DecodeRequest, ParseFrameError, SeqStatus, SequenceTracker, FRAME_MAGIC,
    FRAME_V2_HEADER, FRAME_V2_TRAILER, FRAME_VERSION_V2,
};
