//! The persistent worker pool behind the native backend.
//!
//! The pre-plan `NativeCpu` spawned fresh `std::thread::scope` workers
//! for every layer of every request — cheap next to a cold kernel, but
//! pure overhead once the kernel itself is a linear scan over a
//! [`LayerPlan`](eie_compress::LayerPlan). This pool inverts that:
//! workers are spawned **once** (lazily, on the backend's first
//! parallel run) and then parked on a condvar, each owning a reusable
//! [`WorkerScratch`](super::native::WorkerScratch) so the steady state
//! neither spawns threads nor allocates.
//!
//! The protocol is deliberately channel-free: a `Mutex<Slot>` +
//! `Condvar` pair per worker is a fixed-size mailbox (no queue-node
//! allocation per send, unlike `mpsc`), and a shared [`Latch`] counts
//! the in-flight tasks of one run back to zero. The backend holds
//! its session lock for the whole run, so at most one task is ever
//! pending per worker — the mailbox can never overflow.
//!
//! Lifecycle: the owning backend distributes one [`Task`] per busy
//! worker, runs its own share of the plan blocks inline, waits on the
//! latch, then harvests each worker's scratch under an uncontended
//! lock. Dropping the pool (dropping its backend) parks a
//! shutdown marker in every mailbox and joins the threads.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use super::native::{Task, WorkerScratch};

/// Locks a mutex, recovering from poisoning. Pool state is safe to
/// reuse after a worker panic: scratch buffers are fully overwritten by
/// the next task, and the latch's failure flag (not the mutex) carries
/// the panic to the session holder.
fn lock_recovering<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One worker's mailbox state.
enum Slot {
    /// Nothing to do; the worker is parked on the condvar.
    Idle,
    /// One task, claimed by the worker on wake-up.
    Pending(Task),
    /// The pool is being dropped; the worker exits.
    Shutdown,
}

/// The state shared between one pool thread and the owning backend.
struct WorkerShared {
    slot: Mutex<Slot>,
    cv: Condvar,
    /// The worker's persistent buffers. The worker holds this lock only
    /// while executing a task; the backend locks it (uncontended) after
    /// the latch releases, to gather the task's outputs.
    scratch: Mutex<WorkerScratch>,
}

/// Counts one layer run's outstanding tasks down to zero, carrying a
/// failure flag so a panicking task surfaces at the session holder
/// instead of deadlocking it (the guarantee `std::thread::scope` gave
/// the pre-pool kernel).
#[derive(Debug)]
pub(super) struct Latch {
    remaining: Mutex<usize>,
    cv: Condvar,
    failed: AtomicBool,
}

impl Latch {
    pub(super) fn new() -> Self {
        Self {
            remaining: Mutex::new(0),
            cv: Condvar::new(),
            failed: AtomicBool::new(false),
        }
    }

    /// Arms the latch for `n` tasks. Only the session holder calls
    /// this, strictly between runs.
    pub(super) fn reset(&self, n: usize) {
        self.failed.store(false, Ordering::Relaxed);
        *lock_recovering(&self.remaining) = n;
    }

    /// Signals one task complete (successfully or not — a failed task
    /// calls [`Latch::mark_failed`] first, then still counts down).
    pub(super) fn count_down(&self) {
        let mut remaining = lock_recovering(&self.remaining);
        *remaining -= 1;
        if *remaining == 0 {
            self.cv.notify_all();
        }
    }

    /// Records that a task panicked instead of completing.
    pub(super) fn mark_failed(&self) {
        self.failed.store(true, Ordering::Relaxed);
    }

    /// Blocks until every armed task has counted down; returns `true`
    /// if any of them panicked (the caller must not trust the run's
    /// outputs and should propagate the failure).
    pub(super) fn wait(&self) -> bool {
        let mut remaining = lock_recovering(&self.remaining);
        while *remaining > 0 {
            remaining = self
                .cv
                .wait(remaining)
                .unwrap_or_else(PoisonError::into_inner);
        }
        self.failed.load(Ordering::Relaxed)
    }
}

/// A fixed set of parked worker threads, spawned once per backend.
pub(super) struct WorkerPool {
    workers: Vec<Arc<WorkerShared>>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl WorkerPool {
    /// Spawns `workers` parked threads (named `eie-native-<i>`).
    ///
    /// # Panics
    ///
    /// Panics if a thread cannot be spawned.
    pub(super) fn new(workers: usize) -> Self {
        let shared: Vec<Arc<WorkerShared>> = (0..workers)
            .map(|_| {
                Arc::new(WorkerShared {
                    slot: Mutex::new(Slot::Idle),
                    cv: Condvar::new(),
                    scratch: Mutex::new(WorkerScratch::default()),
                })
            })
            .collect();
        let handles = shared
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let s = Arc::clone(s);
                std::thread::Builder::new()
                    .name(format!("eie-native-{i}"))
                    .spawn(move || worker_loop(&s))
                    .expect("spawn native kernel worker")
            })
            .collect();
        Self {
            workers: shared,
            handles,
        }
    }

    /// Hands `task` to worker `i`'s mailbox and wakes it.
    ///
    /// The caller must hold the backend session (so the previous run's
    /// task has been claimed) and must have armed the task's latch.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or the mailbox is unexpectedly
    /// occupied (a session-discipline violation).
    pub(super) fn submit(&self, i: usize, task: Task) {
        let worker = &self.workers[i];
        let mut slot = lock_recovering(&worker.slot);
        match *slot {
            Slot::Idle => *slot = Slot::Pending(task),
            _ => unreachable!("worker mailbox occupied: session discipline violated"),
        }
        worker.cv.notify_one();
    }

    /// Runs `f` over worker `i`'s scratch — valid (and uncontended)
    /// only after the run's latch released.
    pub(super) fn with_scratch<R>(&self, i: usize, f: impl FnOnce(&mut WorkerScratch) -> R) -> R {
        let mut scratch = lock_recovering(&self.workers[i].scratch);
        f(&mut scratch)
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        for worker in &self.workers {
            let mut slot = lock_recovering(&worker.slot);
            *slot = Slot::Shutdown;
            worker.cv.notify_one();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Park → claim → execute → count down, until shutdown.
///
/// A panic inside a task must not strand the session holder on the
/// latch (the thread would die before counting down and every later
/// run on the engine would hang), so execution is unwind-caught: the
/// latch is marked failed, counted down, and the worker survives to
/// serve the next run — the session holder re-raises the panic at its
/// call site, which is exactly where `std::thread::scope` used to
/// surface it.
fn worker_loop(shared: &WorkerShared) {
    loop {
        let task = {
            let mut slot = lock_recovering(&shared.slot);
            loop {
                match std::mem::replace(&mut *slot, Slot::Idle) {
                    Slot::Pending(task) => break task,
                    Slot::Shutdown => return,
                    Slot::Idle => {
                        slot = shared.cv.wait(slot).unwrap_or_else(PoisonError::into_inner)
                    }
                }
            }
        };
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut scratch = lock_recovering(&shared.scratch);
            task.run(&mut scratch);
        }));
        // Drop the task's Arc'd inputs *before* releasing the latch, so
        // the session holder regains unique ownership of its reusable
        // schedule buffers the moment `wait` returns.
        let latch = Arc::clone(task.latch());
        drop(task);
        if outcome.is_err() {
            latch.mark_failed();
        }
        latch.count_down();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latch_counts_down_and_carries_failure() {
        let latch = Latch::new();
        latch.reset(2);
        latch.mark_failed();
        latch.count_down();
        latch.count_down();
        assert!(latch.wait(), "failure flag must survive until wait");
        // Re-arming clears the flag: one run's panic must not poison
        // the next run's verdict.
        latch.reset(0);
        assert!(!latch.wait());
    }
}
