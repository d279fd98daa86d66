//! The engine-lifetime worker pool.
//!
//! Every pipeline instance, source pump and fault watchdog of a pipelined
//! execution runs as a job on this process-wide pool, not on a fresh OS
//! thread. Like the standard library's scoped threads, jobs may borrow the
//! caller's stack: [`scope`] returns only after every job has finished and
//! dropped its captures, also when a job or the scope body panics.
//!
//! There is **no size bound and no queue**: every job gets a thread at once,
//! a parked cached one or a new one that is kept, because pipelined workers
//! block on each other and a job left waiting for a thread could deadlock
//! the push graph (see DESIGN.md §4.5).

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, LazyLock, Mutex, MutexGuard};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// One unit of work plus its scope's latch count. Fields drop in order: a
/// task dropped anywhere drops the job's borrows before the latch moves.
struct Task {
    job: Job,
    done: JobDone,
}

/// One cached thread's hand-off slot: the task it runs next.
struct Worker {
    task: Mutex<Option<Task>>,
    cv: Condvar,
}

/// Parked threads, first parked first: jobs spawn in the order they tend to
/// finish, so FIFO gives each role the thread (and malloc arena) it had in
/// the previous query. LIFO cost `scan_cpu` about 10% host throughput.
static IDLE: LazyLock<Mutex<VecDeque<Arc<Worker>>>> = LazyLock::new(|| Mutex::new(VecDeque::new()));

static SPAWNED: AtomicUsize = AtomicUsize::new(0);

/// OS threads the pool has created so far (they are never torn down).
pub fn threads_spawned() -> usize {
    SPAWNED.load(Ordering::Relaxed)
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Run `task` on a parked cached thread, or on a new one that joins the cache.
fn dispatch(task: Task) {
    let parked = lock(&IDLE).pop_front();
    let worker = parked.unwrap_or_else(|| {
        let worker = Arc::new(Worker { task: Mutex::new(None), cv: Condvar::new() });
        let id = SPAWNED.fetch_add(1, Ordering::Relaxed);
        let own = Arc::clone(&worker);
        // On failure the panic drops `task`, releasing its latch count.
        std::thread::Builder::new()
            .name(format!("hetex-pool-{id}"))
            .spawn(move || worker_loop(&own))
            .expect("failed to spawn a pool thread");
        worker
    });
    *lock(&worker.task) = Some(task);
    worker.cv.notify_one();
}

fn worker_loop(worker: &Arc<Worker>) {
    loop {
        let slot = worker.cv.wait_while(lock(&worker.task), |t| t.is_none());
        let task = slot.unwrap_or_else(|e| e.into_inner()).take();
        let Task { job, done } = task.expect("woken with a task");
        if catch_unwind(AssertUnwindSafe(job)).is_err() {
            done.0.panicked.store(true, Ordering::Relaxed);
        }
        // Re-park before the scope may observe completion, so the next
        // scope's spawns find this thread cached instead of creating one.
        lock(&IDLE).push_back(Arc::clone(worker));
        drop(done);
    }
}

/// Counts a scope's running jobs; `JoinOnDrop` waits for zero.
#[derive(Default)]
struct Latch {
    running: Mutex<usize>,
    cv: Condvar,
    panicked: AtomicBool,
}

/// Decrements the latch when dropped: after the job and its borrows are gone.
struct JobDone(Arc<Latch>);

impl Drop for JobDone {
    fn drop(&mut self) {
        let mut running = lock(&self.0.running);
        *running -= 1;
        if *running == 0 {
            self.0.cv.notify_all();
        }
    }
}

/// Waits for every spawned job when the scope body returns *or* unwinds.
struct JoinOnDrop<'a>(&'a Latch);

impl Drop for JoinOnDrop<'_> {
    fn drop(&mut self) {
        drop(self.0.cv.wait_while(lock(&self.0.running), |running| *running > 0));
    }
}

/// A spawning handle for jobs that may borrow anything outliving `'env`.
pub struct Scope<'env> {
    latch: Arc<Latch>,
    /// Invariant in `'env`, as in `std::thread::Scope`.
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'env> Scope<'env> {
    /// Run `f` on a pool thread; the enclosing [`scope`] joins it.
    pub fn spawn<F: FnOnce() + Send + 'env>(&self, f: F) {
        *lock(&self.latch.running) += 1;
        let done = JobDone(Arc::clone(&self.latch));
        let job: Box<dyn FnOnce() + Send + 'env> = Box::new(f);
        // SAFETY: the job borrows only data outliving `'env`, which outlives
        // the `scope` call that made `self`. That call returns (or resumes
        // unwinding) only once the latch reads zero, and `JobDone` moves the
        // latch only after the job and its captures were dropped — the
        // argument the standard library's scoped threads make for theirs.
        #[allow(unsafe_code)]
        let job: Job = unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Job>(job) };
        dispatch(Task { job, done });
    }
}

/// Run `f` with a [`Scope`] whose jobs run on the engine-lifetime pool, and
/// return once every job has finished. Panics after the join when a job
/// panicked (callers that must not panic catch inside their jobs).
///
/// Jobs may not borrow locals of the scope body, which are gone before the
/// join:
///
/// ```compile_fail
/// hetex_engine::pool::scope(|s| {
///     let local = vec![1, 2, 3];
///     let borrowed = &local;
///     s.spawn(move || drop(borrowed.len()));
/// });
/// ```
pub fn scope<'env, R>(f: impl FnOnce(&Scope<'env>) -> R) -> R {
    let scope = Scope { latch: Arc::new(Latch::default()), _env: PhantomData };
    let out = {
        let _join = JoinOnDrop(&scope.latch);
        f(&scope)
    };
    assert!(!scope.latch.panicked.load(Ordering::Relaxed), "a pool job panicked");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::{mpsc, Barrier};

    #[test]
    fn every_job_gets_a_thread_with_no_bound() {
        // 64 jobs that can only finish together: a bounded or queueing pool
        // on a small box would never release the barrier.
        let barrier = Barrier::new(64);
        let passed = AtomicUsize::new(0);
        scope(|s| {
            for _ in 0..64 {
                s.spawn(|| {
                    barrier.wait();
                    passed.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(passed.load(Ordering::Relaxed), 64);
    }

    /// Sends on drop — i.e. while the panic that drops it unwinds.
    struct SendOnUnwind(mpsc::Sender<()>);

    impl Drop for SendOnUnwind {
        fn drop(&mut self) {
            let _ = self.0.send(());
        }
    }

    #[test]
    fn a_panicking_job_is_joined_with_its_siblings_and_reported() {
        // The borrowing jobs finish only after the panicking job unwinds.
        let slots: Vec<AtomicU64> = (0..8).map(|_| AtomicU64::new(0)).collect();
        let (tx, rx) = mpsc::channel();
        let released = Mutex::new(rx);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            scope(|s| {
                for slot in &slots {
                    let released = &released;
                    s.spawn(move || {
                        let _ = lock(released).recv();
                        slot.store(7, Ordering::Relaxed);
                    });
                }
                s.spawn(move || {
                    let _signal: Vec<SendOnUnwind> =
                        (0..8).map(|_| SendOnUnwind(tx.clone())).collect();
                    panic!("injected job panic");
                });
            })
        }));
        assert!(outcome.is_err(), "scope must report the job panic");
        assert!(slots.iter().all(|s| s.load(Ordering::Relaxed) == 7));
    }

    #[test]
    fn a_panicking_scope_body_still_joins_its_jobs() {
        // The job finishes only after the scope body started unwinding.
        let done = AtomicBool::new(false);
        let (tx, rx) = mpsc::channel();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            scope(|s| {
                let done = &done;
                s.spawn(move || {
                    let _ = rx.recv();
                    done.store(true, Ordering::Relaxed);
                });
                let _signal = SendOnUnwind(tx);
                panic!("injected body panic");
            })
        }));
        assert!(outcome.is_err());
        assert!(done.load(Ordering::Relaxed));
    }
}
