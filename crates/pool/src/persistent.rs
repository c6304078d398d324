//! The long-lived parked worker threads every [`Pool`] runs on.
//!
//! One set of worker threads lives as long as the pool: workers park on
//! a [`Condvar`] next to a shared injector queue, a batch submission
//! pushes its tasks and wakes them, and the submitting thread blocks on
//! a per-batch completion latch. Nothing is spawned or joined per call,
//! which is what lets the decode farm dispatch one small batch of
//! escalations per machine cycle.
//!
//! The injector only decides *where* a task runs, never *what* it
//! computes, and `run_batch` returns only after every task of the batch
//! has finished — so scoped borrows stay sound and `map`/`map_reduce`
//! results are bit-identical for any worker count.
//!
//! [`Pool`]: crate::Pool

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

/// A pool task erased to `'static`.
///
/// Tasks submitted through [`PersistentWorkers::run_batch`] may borrow
/// from the submitting stack frame; the lifetime is erased so they can
/// cross into long-lived worker threads. Soundness rests on the batch
/// latch: `run_batch` does not return until every task of the batch has
/// executed (or been abandoned after a panic), so the borrows never
/// outlive their owners.
type StaticTask = Box<dyn FnOnce() + Send + 'static>;

/// Completion state for one submitted batch.
struct BatchState {
    /// Tasks of this batch not yet finished (executed or abandoned).
    remaining: Mutex<usize>,
    /// Signalled when `remaining` reaches zero.
    done: Condvar,
    /// First panic payload observed in this batch, if any.
    first_panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Once set, the batch's still-queued tasks are abandoned.
    abort: AtomicBool,
}

/// Queue state guarded by the injector mutex.
struct Injector {
    /// FIFO of `(batch, task)` pairs awaiting a worker.
    queue: VecDeque<(Arc<BatchState>, StaticTask)>,
    /// Set by `Drop`: workers drain the queue and exit.
    shutdown: bool,
}

/// State shared between the submitting thread and the workers.
struct Shared {
    injector: Mutex<Injector>,
    /// Workers park here when the injector is empty.
    work: Condvar,
}

/// A set of long-lived worker threads serving a shared injector queue.
///
/// Dropping the last handle signals shutdown and joins every worker.
pub(crate) struct PersistentWorkers {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for PersistentWorkers {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PersistentWorkers").field("workers", &self.handles.len()).finish()
    }
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

thread_local! {
    /// Index of the persistent worker running on this thread, if any —
    /// lets the scheduling-domain telemetry wrapper attribute a task to
    /// the thread that executed it.
    static WORKER_INDEX: std::cell::Cell<Option<usize>> =
        const { std::cell::Cell::new(None) };
}

/// The persistent-worker index of the current thread (`None` off the
/// pool's worker threads).
pub(crate) fn current_worker_index() -> Option<usize> {
    WORKER_INDEX.with(std::cell::Cell::get)
}

impl PersistentWorkers {
    /// Spawns `workers` parked threads serving one injector queue.
    pub(crate) fn spawn(workers: usize) -> Self {
        let shared = Arc::new(Shared {
            injector: Mutex::new(Injector { queue: VecDeque::new(), shutdown: false }),
            work: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("btwc-pool-{w}"))
                    .spawn(move || {
                        WORKER_INDEX.with(|idx| idx.set(Some(w)));
                        worker_loop(&shared);
                    })
                    .expect("spawn persistent pool worker")
            })
            .collect();
        Self { shared, handles }
    }

    /// Runs one batch of tasks to completion on the parked workers.
    ///
    /// Blocks until every task has executed (or been abandoned after a
    /// panic); returns the first panic payload, if any, for the caller
    /// to resume. The submitting thread does not execute tasks itself —
    /// tasks must not submit to the same pool.
    pub(crate) fn run_batch<'env>(
        &self,
        tasks: Vec<Box<dyn FnOnce() + Send + 'env>>,
    ) -> Option<Box<dyn Any + Send>> {
        let batch = Arc::new(BatchState {
            remaining: Mutex::new(tasks.len()),
            done: Condvar::new(),
            first_panic: Mutex::new(None),
            abort: AtomicBool::new(false),
        });
        {
            let mut inj = lock(&self.shared.injector);
            for task in tasks {
                // SAFETY: erasing `'env` to `'static` is sound because
                // this function blocks on the batch latch below — every
                // task has finished (or been dropped unexecuted on the
                // abandon path) before `run_batch` returns, so no task
                // outlives the `'env` borrows it captures.
                let task: StaticTask = unsafe {
                    std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, StaticTask>(task)
                };
                inj.queue.push_back((Arc::clone(&batch), task));
            }
        }
        self.shared.work.notify_all();
        let mut remaining = lock(&batch.remaining);
        while *remaining > 0 {
            remaining = batch.done.wait(remaining).unwrap_or_else(PoisonError::into_inner);
        }
        drop(remaining);
        let mut first_panic = lock(&batch.first_panic);
        first_panic.take()
    }
}

impl Drop for PersistentWorkers {
    fn drop(&mut self) {
        lock(&self.shared.injector).shutdown = true;
        self.shared.work.notify_all();
        for handle in self.handles.drain(..) {
            // A worker thread panicking outside a task would poison
            // nothing here — task panics are caught below, so join only
            // fails on catastrophic runtime errors; ignore to keep Drop
            // non-panicking.
            let _ = handle.join();
        }
    }
}

/// Park on the injector, execute tasks, signal batch latches.
fn worker_loop(shared: &Shared) {
    loop {
        let next = {
            let mut inj = lock(&shared.injector);
            loop {
                if let Some(pair) = inj.queue.pop_front() {
                    break Some(pair);
                }
                if inj.shutdown {
                    break None;
                }
                inj = shared.work.wait(inj).unwrap_or_else(PoisonError::into_inner);
            }
        };
        let Some((batch, task)) = next else { return };
        // det: abort only matters on the panic path, which abandons the
        // batch — no result depends on which task observes the flag.
        if batch.abort.load(Ordering::Relaxed) {
            // Abandoned batch: drop the task (and anything it captured)
            // *before* releasing the latch, so `run_batch` never returns
            // while a task body or destructor is still live.
            drop(task);
        } else if let Err(payload) = catch_unwind(AssertUnwindSafe(task)) {
            lock(&batch.first_panic).get_or_insert(payload);
            // det: sticky flag on the propagate-panic path; the batch
            // produces no result, so ordering cannot reach one.
            batch.abort.store(true, Ordering::Relaxed);
        }
        let mut remaining = lock(&batch.remaining);
        *remaining = remaining.saturating_sub(1);
        if *remaining == 0 {
            batch.done.notify_all();
        }
    }
}
