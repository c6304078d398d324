//! Batching on a shared decoder slot. The farm decodes a cycle's batch
//! of `k` same-slot escalations as `k` successive
//! [`ComplexDecoder::decode_window_mut`] calls on one reused decoder, so
//! for every builtin backend:
//!
//! * each call must be bit-identical to a decode on a brand-new decoder
//!   (property-tested: no decoder carries state from one window to the
//!   next), and
//! * each job's farm response must be exactly that fresh decode of its
//!   replayed request, including when the request is wider than the
//!   slot's receive window.
//!
//! [`ComplexDecoder::decode_window_mut`]: btwc_core::ComplexDecoder::decode_window_mut

use btwc_core::{
    BtwcMachine, DecoderBackend, ServiceResponse, StabilizerType, SurfaceCode, SyndromeBatch,
};
use btwc_farm::{DecodeFarm, FarmConfig, TenantSubmission};
use btwc_noise::{SimRng, SparseFlips};
use btwc_pool::Pool;
use btwc_syndrome::RoundHistory;
use btwc_telemetry::MetricsRegistry;
use proptest::prelude::*;

const BACKENDS: [DecoderBackend; 3] =
    [DecoderBackend::SparseBlossom, DecoderBackend::UnionFind, DecoderBackend::Lut];

const WINDOW_CAPACITY: usize = 8;

/// `k` windows (1..=5) of 1..=WINDOW_CAPACITY rounds over the d=3
/// X-ancilla count (4) — small enough for the Lut backend, arbitrary
/// enough to hit empty, odd-parity, and dense defect sets.
fn windows_strategy() -> impl Strategy<Value = Vec<Vec<Vec<bool>>>> {
    proptest::collection::vec(
        proptest::collection::vec(
            proptest::collection::vec(any::<bool>(), 4),
            1..(WINDOW_CAPACITY + 1),
        ),
        1..6,
    )
}

fn histories(windows: &[Vec<Vec<bool>>], num_ancillas: usize) -> Vec<RoundHistory> {
    windows
        .iter()
        .map(|rounds| {
            let mut h = RoundHistory::new(num_ancillas, WINDOW_CAPACITY);
            for round in rounds {
                h.push(round);
            }
            h
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn batching_leaks_no_state_between_windows(windows in windows_strategy()) {
        // Each window of the batch must decode as if it were the
        // decoder's only input ever: compare against a brand-new
        // decoder per window.
        let ty = StabilizerType::X;
        let code = SurfaceCode::new(3);
        let hists = histories(&windows, code.num_ancillas(ty));
        for backend in BACKENDS {
            let mut reused = backend.build(&code, ty);
            for (k, w) in hists.iter().enumerate() {
                let got = reused.decode_window_mut(w);
                let fresh = backend.build(&code, ty).decode_window_mut(w);
                prop_assert_eq!(
                    got.qubits(),
                    fresh.qubits(),
                    "{} window {k}: batch position changed the result",
                    backend.name()
                );
                prop_assert_eq!(got.weight(), fresh.weight(), "{} window {k}", backend.name());
            }
        }
    }
}

/// Drives one open-loop noisy machine (corrections are never applied,
/// so escalations keep coming) through a farm whose slot was registered
/// one round wide: every job widens the receive window before its
/// replay, and every response must equal a fresh decoder's decode of
/// the job's request.
#[test]
fn batched_decode_is_bit_identical_to_individual_calls() {
    const QUBITS: usize = 8;
    let ty = StabilizerType::X;
    let code = SurfaceCode::new(3);
    let (n_data, n_anc) = (code.num_data_qubits(), code.num_ancillas(ty));
    for backend in BACKENDS {
        let mut machine = BtwcMachine::builder(&code, ty, QUBITS, QUBITS).backend(backend).build();
        let mut farm = DecodeFarm::new(Pool::new(1), FarmConfig::generous());
        let tenant = farm.register_tenant("t", &code, ty, &backend, 1, &MetricsRegistry::new());
        let mut rng = SimRng::from_seed(0xBA7C);
        let mut errors = vec![vec![false; n_data]; QUBITS];
        let mut batch = SyndromeBatch::new(QUBITS, n_anc);
        let mut multi_job_cycles = 0;
        for _ in 0..200 {
            for (q, errors) in errors.iter_mut().enumerate() {
                for flip in SparseFlips::new(&mut rng, n_data, 2e-2) {
                    errors[flip] ^= true;
                }
                batch.set_qubit_round_bools(q, &code.syndrome_of(ty, errors));
            }
            let pending = machine.step_deferred(&batch);
            let jobs = pending.jobs();
            multi_job_cycles += usize::from(jobs.len() > 1);
            let responses = farm.service_cycle(&[TenantSubmission { tenant, jobs }]).remove(0);
            for (job, response) in jobs.iter().zip(&responses) {
                let request = job.request();
                let mut window = RoundHistory::new(n_anc, request.rounds.len());
                request.replay_into(&mut window);
                let want = backend.build(&code, ty).decode_window_mut(&window);
                match response {
                    ServiceResponse::Decoded { correction, .. } => {
                        assert_eq!(correction, &want, "{}: farm decode differs", backend.name());
                    }
                    other => panic!("{}: generous farm rejected a job: {other:?}", backend.name()),
                }
            }
            let _ = machine.complete(pending, responses);
        }
        assert!(multi_job_cycles > 0, "{}: no cycle batched two jobs", backend.name());
    }
}
