//! Pool property suite: parallel map equals serial map on arbitrary
//! inputs, results are independent of the worker count, and task panics
//! propagate to the caller.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

use btwc_pool::Pool;
use proptest::prelude::*;

/// A deterministic but index-sensitive mixing function — any scheduling
/// bug that reorders or drops results scrambles it.
fn mix(i: usize, x: u64) -> u64 {
    let mut z = x ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 31)
}

proptest! {
    #[test]
    fn parallel_map_equals_serial_map(
        items in proptest::collection::vec(any::<u64>(), 0..200),
        workers in 1usize..9,
    ) {
        let serial: Vec<u64> = items.iter().enumerate().map(|(i, &x)| mix(i, x)).collect();
        let pooled = Pool::new(workers).map(&items, |i, &x| mix(i, x));
        prop_assert_eq!(pooled, serial);
    }

    #[test]
    fn map_reduce_is_worker_count_independent(
        items in proptest::collection::vec(any::<u64>(), 1..100),
    ) {
        // Fold with a non-commutative merge (shift-and-xor): only an
        // exact in-shard-order reduction reproduces it for every
        // worker count.
        let reduce = |pool: &Pool| {
            pool.map_reduce(
                items.len(),
                |i| mix(i, items[i]),
                0u64,
                |acc, r| acc.rotate_left(7) ^ r,
            )
        };
        let one = reduce(&Pool::new(1));
        for workers in [2, 3, 8] {
            prop_assert_eq!(reduce(&Pool::new(workers)), one, "workers={}", workers);
        }
    }
}

#[test]
fn worker_panic_propagates_payload() {
    let pool = Pool::new(4);
    let result = catch_unwind(AssertUnwindSafe(|| {
        pool.scope(|s| {
            for i in 0..16 {
                s.spawn(move || {
                    if i == 11 {
                        panic!("shard {i} exploded");
                    }
                });
            }
        });
    }));
    let payload = result.expect_err("a task panic must propagate");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
        .expect("panic payload should be a message");
    assert_eq!(msg, "shard 11 exploded");
}

#[test]
fn worker_panic_propagates_from_map() {
    let pool = Pool::new(2);
    let items: Vec<u64> = (0..32).collect();
    let result = catch_unwind(AssertUnwindSafe(|| {
        pool.map(&items, |_, &x| {
            assert!(x != 20, "poisoned item");
            x
        })
    }));
    assert!(result.is_err(), "map must re-raise task panics");
}

#[test]
fn panic_aborts_remaining_tasks() {
    // After the first panic the pool abandons queued work — with one
    // worker and a poisoned first task, no later task may run.
    let ran_after = Mutex::new(0u32);
    let result = catch_unwind(AssertUnwindSafe(|| {
        Pool::new(1).scope(|s| {
            s.spawn(|| panic!("first task dies"));
            for _ in 0..8 {
                let ran_after = &ran_after;
                s.spawn(move || *ran_after.lock().expect("counter") += 1);
            }
        });
    }));
    assert!(result.is_err());
    assert_eq!(*ran_after.lock().expect("counter"), 0, "no task may run after a panic");
}

#[test]
fn one_slow_task_does_not_block_the_queue() {
    // One task (the first) is vastly heavier than the rest; the
    // remaining tasks must still all complete (popped by the other
    // workers while the first is busy) and land in their own slots.
    let pool = Pool::new(8);
    let out = pool.map_indices(64, |i| {
        if i == 0 {
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        i as u64
    });
    assert_eq!(out, (0..64).collect::<Vec<u64>>());
}
