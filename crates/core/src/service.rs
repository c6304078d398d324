//! The machine ⇄ decode-service contract.
//!
//! [`BtwcMachine::step`] historically resolved every escalation inline:
//! transport, then an immediate blocking `decode_window_mut` on the
//! machine's own backend. The decode-farm tier splits that cycle into
//! two halves so many machines can share one decode service:
//!
//! 1. [`BtwcMachine::step_deferred`] runs the whole cycle *except* the
//!    off-chip solves — triage, sticky filter, transport (retries,
//!    deadline, degradation on transport failure), queue accounting —
//!    and returns a [`PendingCycle`] carrying one [`EscalationJob`] per
//!    escalation whose frame survived transport.
//! 2. A decode service (the in-process reference is
//!    `btwc_farm::DecodeFarm`) resolves each job into a
//!    [`ServiceResponse`], and [`BtwcMachine::complete`] folds the
//!    responses back into the cycle's outcomes, telemetry, and
//!    degradation counters.
//!
//! The split is **bit-identical** to the inline loop: `step` is now
//! literally `step_deferred` + an inline decode of every job +
//! `complete`, and the farm conformance harness pins the farm path to
//! it per tenant, backend, and worker count. The key property making a
//! *shared* service safe is that decoders carry no state from one
//! window to the next — so a decode's flips, weights, and stats depend
//! only on the window contents, never on which decoder instance ran it
//! or what that instance decoded before.
//!
//! [`BtwcMachine::step`]: crate::BtwcMachine::step
//! [`BtwcMachine::step_deferred`]: crate::BtwcMachine::step_deferred
//! [`BtwcMachine::complete`]: crate::BtwcMachine::complete

use btwc_bandwidth::DecodeRequest;
use btwc_syndrome::{Correction, Syndrome};

use crate::decoder::BtwcOutcome;

/// Why a decode service refused an [`EscalationJob`].
///
/// Either way the machine degrades the escalation to its on-chip
/// emergency correction ([`BtwcOutcome::Degraded`]) — the reasons are
/// distinguished for the service's rejection counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The service's bounded queue was full at admission.
    QueueFull,
    /// The modeled service delay would land the correction past the
    /// job's remaining cycle-deadline budget.
    DeadlineExceeded,
}

/// A decode service's verdict on one [`EscalationJob`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceResponse {
    /// The window was decoded; `queue_delay_cycles` is the modeled
    /// cycles the job spent waiting in the service queue (0 for the
    /// inline path), charged onto the escalation-latency histogram.
    Decoded {
        /// The off-chip correction for the job's window.
        correction: Correction,
        /// Modeled service queueing delay in cycles.
        queue_delay_cycles: u64,
    },
    /// The service refused the job; the machine falls back to the
    /// on-chip emergency correction.
    Rejected(RejectReason),
}

/// One escalation that survived transport and awaits an off-chip
/// decode.
///
/// Produced by [`BtwcMachine::step_deferred`], consumed by a decode
/// service, resolved by [`BtwcMachine::complete`] (in submission
/// order).
///
/// [`BtwcMachine::step_deferred`]: crate::BtwcMachine::step_deferred
/// [`BtwcMachine::complete`]: crate::BtwcMachine::complete
#[derive(Debug, Clone)]
pub struct EscalationJob {
    /// Logical qubit the escalation belongs to.
    pub(crate) qubit: u32,
    /// The transport-accepted request (the receiver-side parse, exactly
    /// what the inline loop would replay and decode).
    pub(crate) request: DecodeRequest,
    /// The sticky-filtered syndrome at escalation time — the emergency
    /// fallback input if the service rejects the job.
    pub(crate) filtered: Syndrome,
    /// On-chip wait + link queue delay + transport wait, in cycles: the
    /// latency the inline path would record. A service adds its own
    /// modeled queue delay on top.
    pub(crate) latency_base: u64,
    /// Cycles left of the escalation's deadline after transport — the
    /// service budget an admission decision checks against.
    pub(crate) deadline_budget: u64,
}

impl EscalationJob {
    /// Logical qubit the escalation belongs to.
    #[must_use]
    pub fn qubit(&self) -> u32 {
        self.qubit
    }

    /// The transport-accepted decode request.
    #[must_use]
    pub fn request(&self) -> &DecodeRequest {
        &self.request
    }

    /// Cycles left of the deadline after transport: a service whose
    /// modeled delay exceeds this must reject with
    /// [`RejectReason::DeadlineExceeded`].
    #[must_use]
    pub fn deadline_budget(&self) -> u64 {
        self.deadline_budget
    }

    /// The latency, in cycles, the inline path would have recorded for
    /// this escalation (on-chip wait + link queue delay + transport
    /// wait). A service adds its modeled queue delay on top when it
    /// records end-to-end latency.
    #[must_use]
    pub fn latency_base(&self) -> u64 {
        self.latency_base
    }
}

/// A machine cycle with its off-chip decodes still outstanding.
///
/// Everything except the escalation outcomes is final: stall and queue
/// accounting, transport counters, and the per-qubit window bookkeeping
/// already happened in [`BtwcMachine::step_deferred`]. Pass this to
/// [`BtwcMachine::complete`] with one [`ServiceResponse`] per job (in
/// [`PendingCycle::jobs`] order) to finish the cycle.
///
/// [`BtwcMachine::step_deferred`]: crate::BtwcMachine::step_deferred
/// [`BtwcMachine::complete`]: crate::BtwcMachine::complete
#[derive(Debug)]
pub struct PendingCycle {
    pub(crate) outcomes: Vec<BtwcOutcome>,
    pub(crate) offchip_requests: usize,
    pub(crate) frame_bytes: usize,
    pub(crate) stalled: bool,
    pub(crate) jobs: Vec<EscalationJob>,
}

impl PendingCycle {
    /// Escalations awaiting an off-chip decode, in submission order.
    #[must_use]
    pub fn jobs(&self) -> &[EscalationJob] {
        &self.jobs
    }

    /// Off-chip decode requests issued this cycle (includes escalations
    /// that already degraded in transport and so carry no job).
    #[must_use]
    pub fn offchip_requests(&self) -> usize {
        self.offchip_requests
    }

    /// Whether this cycle was a stall.
    #[must_use]
    pub fn stalled(&self) -> bool {
        self.stalled
    }
}
