//! The pool and its scoped-spawn surface.

use std::panic::resume_unwind;
use std::sync::{Arc, Mutex, OnceLock};

use btwc_telemetry::{Counter, CounterFamily, Domain, MetricsRegistry};

use crate::persistent::PersistentWorkers;

/// One unit of work scheduled onto the pool. Tasks may borrow from the
/// submitting stack frame (`'env`): the pool joins every task before
/// [`Pool::scope`] returns, so the borrows never outlive their owners.
type Task<'env> = Box<dyn FnOnce() + Send + 'env>;

/// Environment variable overriding every requested worker count.
///
/// Results are bit-identical for any worker count by construction, so
/// forcing `BTWC_WORKERS=1` across a test run is a pure scheduling
/// change — CI uses it to catch accidental worker-count dependence.
pub const WORKERS_ENV: &str = "BTWC_WORKERS";

fn env_workers() -> Option<usize> {
    std::env::var(WORKERS_ENV).ok()?.parse::<usize>().ok().filter(|&w| w > 0)
}

/// A thread pool over scoped tasks.
///
/// One set of worker threads, spawned lazily at the first threaded run
/// and joined when the last pool clone drops, parks next to a shared
/// FIFO injector queue; a [`Pool::scope`] / [`Pool::map`] call pushes
/// its whole task set and blocks until every task has finished (so
/// tasks may borrow). Submitting the whole workload of a sweep as one
/// task set is what keeps every core busy — the shared queue balances
/// cheap tasks against expensive ones with no barrier in between.
#[derive(Debug, Clone)]
pub struct Pool {
    workers: usize,
    telemetry: Option<PoolTelemetry>,
    /// Lazily-spawned parked workers, shared across pool clones
    /// (clones schedule onto the same threads).
    persistent: Arc<OnceLock<PersistentWorkers>>,
}

/// Scheduling-domain metric handles recorded around each task. All of
/// these depend on thread timing (which worker pops what), so they live
/// in [`Domain::Scheduling`] and are excluded from determinism
/// snapshots.
#[derive(Debug, Clone)]
struct PoolTelemetry {
    /// Tasks a worker thread popped from the injector queue.
    tasks_local: Counter,
    /// Tasks executed inline on the caller (single-worker or tiny runs).
    tasks_inline: Counter,
    /// Tasks executed per worker index — the per-shard imbalance view.
    worker_tasks: CounterFamily,
}

impl Pool {
    /// A pool with `workers` workers, unless the [`WORKERS_ENV`]
    /// environment variable overrides the count.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    #[must_use]
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "need at least one worker");
        Self {
            workers: env_workers().unwrap_or(workers),
            telemetry: None,
            persistent: Arc::new(OnceLock::new()),
        }
    }

    /// A pool sized to the machine: [`WORKERS_ENV`] if set, otherwise
    /// the available parallelism (capped at 16 — the sweep engines'
    /// shards are coarse enough that wider pools only add queue
    /// traffic).
    #[must_use]
    pub fn auto() -> Self {
        let fallback = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(4)
            .min(16);
        Self {
            workers: env_workers().unwrap_or(fallback),
            telemetry: None,
            persistent: Arc::new(OnceLock::new()),
        }
    }

    /// The worker count this pool schedules onto.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Attach a metrics registry: the pool records tasks executed on
    /// its worker threads vs. inline on the caller, plus a per-worker task-count
    /// family (`pool.worker_tasks`) exposing shard imbalance. All pool
    /// metrics are scheduling-domain — real but not reproducible across
    /// runs. Call before sharing the pool (e.g. before wrapping in
    /// `Arc`); cloned pools share the same counters.
    pub fn attach_telemetry(&mut self, registry: &MetricsRegistry) {
        self.telemetry = Some(PoolTelemetry {
            tasks_local: registry.counter("pool.tasks_local", Domain::Scheduling),
            tasks_inline: registry.counter("pool.tasks_inline", Domain::Scheduling),
            worker_tasks: registry.counter_family(
                "pool.worker_tasks",
                Domain::Scheduling,
                self.workers,
            ),
        });
    }

    /// Builder form of [`Pool::attach_telemetry`].
    #[must_use]
    pub fn with_telemetry(mut self, registry: &MetricsRegistry) -> Self {
        self.attach_telemetry(registry);
        self
    }

    /// Collects tasks from `build`, then runs them all to completion.
    ///
    /// Tasks may borrow anything alive across the `scope` call (the
    /// pool joins them before returning). Execution order is
    /// unspecified — tasks communicate results through the locations
    /// they capture, keyed by something fixed at spawn time (an index,
    /// a slot), never through completion order.
    ///
    /// # Panics
    ///
    /// If a task panics, the remaining queued tasks are abandoned and
    /// the first panic payload is resumed on the caller once every
    /// in-flight task has finished.
    pub fn scope<'env>(&self, build: impl FnOnce(&mut Scope<'env>)) {
        let mut scope = Scope { tasks: Vec::new() };
        build(&mut scope);
        self.run(scope.tasks);
    }

    /// Applies `f` to every item, in parallel, returning results in
    /// item order — bit-identical for any worker count (the pool only
    /// decides *where* each call runs; `f(i, &items[i])` itself must be
    /// deterministic in `i`, which the sim engines guarantee by forking
    /// RNG streams keyed by shard index).
    pub fn map<T, R>(&self, items: &[T], f: impl Fn(usize, &T) -> R + Sync) -> Vec<R>
    where
        T: Sync,
        R: Send,
    {
        self.map_indices(items.len(), |i| f(i, &items[i]))
    }

    /// [`Pool::map`] over the index range `0..n`.
    pub fn map_indices<R: Send>(&self, n: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
        if self.workers == 1 || n <= 1 {
            // Inline on the caller: no threads, no boxing — the
            // `BTWC_WORKERS=1` CI pass and tiny task sets take this
            // path, and produce the same results by construction.
            if let Some(t) = &self.telemetry {
                t.tasks_inline.add(n as u64);
            }
            return (0..n).map(f).collect();
        }
        let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        self.scope(|s| {
            for (i, slot) in slots.iter().enumerate() {
                let f = &f;
                s.spawn(move || {
                    let r = f(i);
                    *slot.lock().expect("result slot") = Some(r);
                });
            }
        });
        slots
            .into_iter()
            .map(|m| m.into_inner().expect("result slot").expect("every task ran"))
            .collect()
    }

    /// Chunked reduce: runs `f(shard)` for `0..shards` in parallel and
    /// folds the results **in shard order** — deterministic even for
    /// non-commutative `merge`.
    pub fn map_reduce<R, A>(
        &self,
        shards: usize,
        f: impl Fn(usize) -> R + Sync,
        init: A,
        merge: impl FnMut(A, R) -> A,
    ) -> A
    where
        R: Send,
    {
        self.map_indices(shards, f).into_iter().fold(init, merge)
    }

    /// Executes a task set: inline when one worker suffices, otherwise
    /// on the long-lived parked workers (spawned on first use).
    fn run(&self, tasks: Vec<Task<'_>>) {
        let n = tasks.len();
        if n == 0 {
            return;
        }
        if self.workers.min(n) == 1 {
            if let Some(t) = &self.telemetry {
                t.tasks_inline.add(n as u64);
            }
            for task in tasks {
                task();
            }
            return;
        }
        let workers = self.persistent.get_or_init(|| PersistentWorkers::spawn(self.workers));
        let tasks: Vec<Task<'_>> = match &self.telemetry {
            None => tasks,
            Some(t) => tasks
                .into_iter()
                .map(|task| {
                    let t = t.clone();
                    let wrapped: Task<'_> = Box::new(move || {
                        // Every injector pop counts as "local"; the
                        // per-worker family exposes imbalance via the
                        // executing thread's index.
                        t.tasks_local.inc();
                        if let Some(w) = crate::persistent::current_worker_index() {
                            t.worker_tasks.inc(w);
                        }
                        task();
                    });
                    wrapped
                })
                .collect(),
        };
        if let Some(payload) = workers.run_batch(tasks) {
            resume_unwind(payload);
        }
    }
}

/// Collects tasks for one [`Pool::scope`] run.
///
/// Spawns are *deferred*: tasks queue here while the build closure
/// runs and start executing once it returns. Tasks may
/// borrow anything outliving the `scope` call; they cannot themselves
/// spawn further tasks.
pub struct Scope<'env> {
    tasks: Vec<Task<'env>>,
}

impl<'env> Scope<'env> {
    /// Queues a task for this scope's run.
    pub fn spawn(&mut self, f: impl FnOnce() + Send + 'env) {
        self.tasks.push(Box::new(f));
    }

    /// Number of tasks queued so far.
    #[must_use]
    pub fn spawned(&self) -> usize {
        self.tasks.len()
    }
}

impl std::fmt::Debug for Scope<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scope").field("tasks", &self.tasks.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order() {
        let pool = Pool::new(4);
        let items: Vec<u64> = (0..100).collect();
        let out = pool.map(&items, |i, &x| x * 2 + i as u64);
        let expected: Vec<u64> = (0..100).map(|x| x * 3).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn map_handles_empty_and_single() {
        let pool = Pool::new(8);
        assert_eq!(pool.map(&[] as &[u64], |_, &x| x), Vec::<u64>::new());
        assert_eq!(pool.map(&[7u64], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn map_reduce_folds_in_shard_order() {
        let pool = Pool::new(4);
        // String concatenation is non-commutative: any out-of-order
        // merge would scramble the digits.
        let s = pool.map_reduce(10, |i| i.to_string(), String::new(), |acc, d| acc + &d);
        assert_eq!(s, "0123456789");
    }

    #[test]
    fn scope_tasks_borrow_caller_state() {
        let pool = Pool::new(4);
        let totals = Mutex::new(vec![0u64; 8]);
        pool.scope(|s| {
            for i in 0..8 {
                let totals = &totals;
                s.spawn(move || totals.lock().expect("totals")[i] += i as u64);
            }
        });
        assert_eq!(totals.into_inner().expect("totals"), (0..8).collect::<Vec<u64>>());
    }

    #[test]
    fn oversubscribed_pool_completes() {
        // More workers than tasks: the surplus workers stay parked.
        let pool = Pool::new(16);
        let out = pool.map_indices(3, |i| i * i);
        assert_eq!(out, vec![0, 1, 4]);
    }

    #[test]
    #[should_panic(expected = "need at least one worker")]
    fn zero_workers_rejected() {
        let _ = Pool::new(0);
    }

    #[test]
    fn persistent_workers_survive_many_batches() {
        // The whole point of parked workers: one spawn, many runs.
        let pool = Pool::new(4);
        for round in 0..100u64 {
            let out = pool.map_indices(8, |i| round * 8 + i as u64);
            assert_eq!(out, (round * 8..round * 8 + 8).collect::<Vec<u64>>());
        }
    }

    #[test]
    fn persistent_clones_share_workers() {
        let pool = Pool::new(4);
        let warm = pool.map_indices(16, |i| i);
        assert_eq!(warm.len(), 16);
        let clone = pool.clone();
        assert!(Arc::ptr_eq(&pool.persistent, &clone.persistent));
        assert_eq!(clone.map_indices(4, |i| i * 2), vec![0, 2, 4, 6]);
    }

    #[test]
    fn persistent_panic_propagates_payload() {
        let pool = Pool::new(4);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.map_indices(32, |i| {
                if i == 13 {
                    panic!("persistent task 13 failed");
                }
                i
            })
        }));
        let payload = caught.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "persistent task 13 failed");
        // The pool stays usable after a panicked batch.
        assert_eq!(pool.map_indices(3, |i| i + 1), vec![1, 2, 3]);
    }

    #[test]
    fn persistent_scope_tasks_borrow_caller_state() {
        // The lifetime-erasure safety argument in practice: already
        // parked workers run tasks borrowing a stack frame that is gone
        // by the next batch, and the latch joins them before each
        // `scope` returns.
        let pool = Pool::new(4);
        for round in 0..3u64 {
            let totals = Mutex::new(vec![0u64; 8]);
            pool.scope(|s| {
                for i in 0..8 {
                    let totals = &totals;
                    s.spawn(move || totals.lock().expect("totals")[i] += round + i as u64);
                }
            });
            let expected: Vec<u64> = (0..8).map(|i| round + i).collect();
            assert_eq!(totals.into_inner().expect("totals"), expected);
        }
    }

    #[test]
    fn telemetry_accounts_for_every_task_persistent() {
        // Every injector pop counts as "local"; with the inline share
        // that is every task, and the per-worker family must sum to the
        // threaded share.
        let registry = MetricsRegistry::new();
        let pool = Pool::new(4).with_telemetry(&registry);
        let n = 64u64;
        let out = pool.map_indices(n as usize, |i| i as u64);
        assert_eq!(out.iter().sum::<u64>(), n * (n - 1) / 2);
        let snap = registry.snapshot();
        let local = snap.get_counter("pool.tasks_local").unwrap();
        let inline = snap.get_counter("pool.tasks_inline").unwrap();
        assert_eq!(local + inline, n);
        match snap.get("pool.worker_tasks").unwrap() {
            btwc_telemetry::MetricValue::Values(per_worker) => {
                assert_eq!(per_worker.iter().sum::<u64>(), local);
            }
            other => panic!("unexpected metric value {other:?}"),
        }
    }
}
