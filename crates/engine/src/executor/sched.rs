//! The scheduler of one execution (DESIGN.md §4.5): the calling thread plus
//! `available_parallelism() − 1` scoped threads run every task's steps from
//! one FIFO ready queue. A step never blocks: a task that cannot proceed
//! registers its waker where it waits and returns [`Step::Waiting`], and
//! the event that ends the wait re-queues it. Events come only from threads
//! inside a step or a fault check, so no task queued, no thread running and
//! tasks outstanding is exact: nothing can wake anything any more — a stall.
//!
//! A re-queue wakes an idle thread only for surplus work: when the queue
//! then holds more tasks than there are threads inside a step or a fault
//! check or already notified. Each of those takes the queue's head when it
//! returns, so a task queued within their number is run without another
//! notification.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::task::{Wake, Waker};
use std::time::Duration;

/// What one step of a task did.
pub(super) enum Step {
    /// Made progress: run again after the tasks queued meanwhile.
    Ran,
    /// Registered its waker; the event it waits for re-queues it.
    Waiting,
    Done,
}

#[derive(Clone, Copy, PartialEq)]
enum State {
    Idle,
    Queued,
    Running,
    /// Woken while running: queued again when the step ends.
    Notified,
    Done,
}

/// The tasks' steps and what happens when nothing is queued or running.
pub(super) trait TaskSet: Sync {
    fn step(&self, id: usize) -> Step;
    /// Nothing is queued or running: run any periodic checks, and say
    /// whether a stall may be declared (nothing they could do would wake a
    /// task).
    fn idle(&self) -> bool;
    /// The run stalled: nothing can run any more although tasks are
    /// outstanding.
    fn stalled(&self);
}

pub(super) struct Scheduler {
    ready: Mutex<Ready>,
    /// Idle threads wait here for a queued task or the end of the run.
    work: Condvar,
    /// Threads that run the tasks, the calling thread included.
    threads: usize,
}

struct Ready {
    queue: VecDeque<usize>,
    states: Vec<State>,
    /// Threads inside a step or a fault check.
    running: usize,
    outstanding: usize,
    idle: usize,
    /// Idle threads notified that have not yet returned from their wait:
    /// each takes the queue's head when it does.
    notified: usize,
    halted: bool,
    /// Idle threads notified for surplus work, and idle waits begun.
    wakes: u64,
    parks: u64,
    /// Waits begun (a `Waiting` step, or not being queued at the start) and
    /// waits a wake ended by re-queuing the task.
    #[cfg(test)]
    waits: (usize, usize),
}

impl Ready {
    #[cfg(test)]
    fn count(&mut self, begun: usize, ended: usize) {
        self.waits = (self.waits.0 + begun, self.waits.1 + ended);
    }

    #[cfg(not(test))]
    fn count(&mut self, _: usize, _: usize) {}
}

struct TaskWaker(Arc<Scheduler>, usize);

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.0.wake(self.1);
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.0.wake(self.1);
    }
}

/// Threads that run one execution's tasks, the calling thread included.
fn parallelism() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

impl Scheduler {
    pub(super) fn new(tasks: usize) -> Arc<Self> {
        Self::on_threads(tasks, parallelism())
    }

    fn on_threads(tasks: usize, threads: usize) -> Arc<Self> {
        Arc::new(Self {
            ready: Mutex::new(Ready {
                queue: VecDeque::with_capacity(tasks),
                states: vec![State::Idle; tasks],
                running: 0,
                outstanding: tasks,
                idle: 0,
                notified: 0,
                halted: false,
                wakes: 0,
                parks: 0,
                #[cfg(test)]
                waits: (0, 0),
            }),
            work: Condvar::new(),
            threads,
        })
    }

    pub(super) fn waker(self: &Arc<Self>, id: usize) -> Waker {
        Waker::from(Arc::new(TaskWaker(Arc::clone(self), id)))
    }

    fn lock(&self) -> MutexGuard<'_, Ready> {
        self.ready.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn wake(&self, id: usize) {
        let mut ready = self.lock();
        match ready.states[id] {
            // A waker inside a step or a fault check is one of `running`,
            // and each of them takes the queue's head when it returns.
            State::Idle => {
                let takers = ready.running;
                self.requeue(&mut ready, id, takers);
            }
            State::Running => ready.states[id] = State::Notified,
            _ => {}
        }
    }

    /// Task `id`'s wait ended: queue it. `takers` threads take the queue's
    /// head without a notification (each when its step or check returns),
    /// and so does every idle thread already notified, so another idle
    /// thread is woken only when the queue holds more tasks than all of
    /// them: surplus work. A task within their number is never left behind.
    fn requeue(&self, ready: &mut Ready, id: usize, takers: usize) {
        ready.count(0, 1);
        ready.states[id] = State::Queued;
        ready.queue.push_back(id);
        let takers = takers + ready.notified;
        if ready.idle > ready.notified && ready.queue.len() > takers {
            ready.notified += 1;
            ready.wakes += 1;
            self.work.notify_one();
        }
    }

    /// `(idle threads notified, idle waits begun)` so far.
    pub(super) fn wakes_and_parks(&self) -> (u64, u64) {
        let ready = self.lock();
        (ready.wakes, ready.parks)
    }

    /// `(waits begun, waits ended by a re-queue)` so far.
    #[cfg(test)]
    pub(super) fn wait_counts(&self) -> (usize, usize) {
        self.lock().waits
    }

    /// Run every task to its end (or to a stall): `initial` are queued in
    /// order, every other task waits for its first wake. An idle thread
    /// waits at most `idle_wait` before it asks `tasks` again.
    pub(super) fn run(
        &self,
        initial: Vec<usize>,
        idle_wait: Option<Duration>,
        tasks: &impl TaskSet,
    ) {
        let mut ready = self.lock();
        let unqueued = ready.states.len() - initial.len();
        ready.count(unqueued, 0);
        for id in initial {
            ready.states[id] = State::Queued;
            ready.queue.push_back(id);
        }
        drop(ready);
        std::thread::scope(|scope| {
            for _ in 1..self.threads {
                scope.spawn(|| self.serve(idle_wait, tasks));
            }
            self.serve(idle_wait, tasks);
        });
    }

    fn serve(&self, idle_wait: Option<Duration>, tasks: &impl TaskSet) {
        let mut ready = self.lock();
        loop {
            if let Some(id) = ready.queue.pop_front() {
                ready.states[id] = State::Running;
                ready.running += 1;
                drop(ready);
                let step = tasks.step(id);
                ready = self.lock();
                ready.running -= 1;
                match step {
                    // This thread takes the queue's next task itself.
                    Step::Ran => {
                        ready.states[id] = State::Queued;
                        ready.queue.push_back(id);
                    }
                    Step::Waiting => {
                        ready.count(1, 0);
                        if ready.states[id] == State::Notified {
                            // This thread takes the queue's next task too.
                            let takers = ready.running + 1;
                            self.requeue(&mut ready, id, takers);
                        } else {
                            ready.states[id] = State::Idle;
                        }
                    }
                    Step::Done => {
                        ready.states[id] = State::Done;
                        ready.outstanding -= 1;
                    }
                }
                continue;
            }
            if ready.outstanding == 0 || ready.halted {
                self.work.notify_all();
                return;
            }
            if ready.running == 0 {
                // The idle checks may wake tasks: count them as running.
                ready.running += 1;
                drop(ready);
                let stall = tasks.idle();
                ready = self.lock();
                ready.running -= 1;
                // Another thread may have run (even finished) everything
                // the checks woke meanwhile.
                if !ready.queue.is_empty() || ready.outstanding == 0 || ready.halted {
                    continue;
                }
                if stall && ready.running == 0 {
                    ready.halted = true;
                    self.work.notify_all();
                    drop(ready);
                    return tasks.stalled();
                }
            }
            ready.idle += 1;
            ready.parks += 1;
            ready = match idle_wait {
                None => self.work.wait(ready).expect("never poisoned"),
                Some(period) => self.work.wait_timeout(ready, period).expect("never poisoned").0,
            };
            ready.idle -= 1;
            // A timeout or a spurious return may take a notified thread's
            // place here: the count only errs low, so it costs at most an
            // extra notification.
            ready.notified = ready.notified.saturating_sub(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::time::Instant;

    const DEADLINE: Duration = Duration::from_secs(5);

    /// Tasks whose steps run `step(id, wakers)`; a stall is recorded, not
    /// declared silently.
    struct Scripted<F> {
        wakers: Vec<Waker>,
        step: F,
        stalled: AtomicBool,
    }

    impl<F: Fn(usize, &[Waker]) -> Step + Sync> Scripted<F> {
        fn run(sched: &Arc<Scheduler>, tasks: usize, initial: Vec<usize>, step: F) -> Self {
            let set = Self {
                wakers: (0..tasks).map(|id| sched.waker(id)).collect(),
                step,
                stalled: AtomicBool::new(false),
            };
            sched.run(initial, None, &set);
            set
        }
    }

    impl<F: Fn(usize, &[Waker]) -> Step + Sync> TaskSet for Scripted<F> {
        fn step(&self, id: usize) -> Step {
            (self.step)(id, &self.wakers)
        }

        fn idle(&self) -> bool {
            true
        }

        fn stalled(&self) {
            self.stalled.store(true, Ordering::SeqCst);
        }
    }

    /// Spin until `done` holds; `false` at the deadline.
    fn spin_until(done: impl Fn() -> bool) -> bool {
        let deadline = Instant::now() + DEADLINE;
        while !done() {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::yield_now();
        }
        true
    }

    #[test]
    fn two_tasks_waking_each_other_notify_no_idle_thread() {
        // Each step wakes the other task and waits: the queue never holds
        // more than the one task the stepping thread takes next, so the idle
        // thread is never notified.
        const ROUNDS: usize = 10_000;
        let sched = Scheduler::on_threads(2, 2);
        let rounds = AtomicUsize::new(0);
        let set = Scripted::run(&sched, 2, vec![0], |id, wakers: &[Waker]| {
            wakers[1 - id].wake_by_ref();
            if rounds.fetch_add(1, Ordering::SeqCst) < ROUNDS {
                Step::Waiting
            } else {
                Step::Done
            }
        });
        assert!(!set.stalled.load(Ordering::SeqCst));
        assert_eq!(rounds.load(Ordering::SeqCst), ROUNDS + 2);
        assert_eq!(sched.wakes_and_parks().0, 0, "no idle thread is notified");
        assert_eq!(sched.lock().waits, (ROUNDS + 1, ROUNDS + 1));
    }

    #[test]
    fn a_step_that_wakes_two_tasks_gets_an_idle_thread_running() {
        // Task 0 waits until the other thread is idle, then wakes tasks 1
        // and 2 and keeps its thread until one of them has started: only
        // the idle thread can start it, so it must have been notified.
        let sched = Scheduler::on_threads(3, 2);
        let started = AtomicBool::new(false);
        let (idle_seen, helped) = (AtomicBool::new(false), AtomicBool::new(false));
        let set = Scripted::run(&sched, 3, vec![0], |id, wakers: &[Waker]| {
            if id == 0 {
                idle_seen.store(spin_until(|| sched.lock().idle == 1), Ordering::SeqCst);
                wakers[1].wake_by_ref();
                wakers[2].wake_by_ref();
                helped.store(spin_until(|| started.load(Ordering::SeqCst)), Ordering::SeqCst);
            } else {
                started.store(true, Ordering::SeqCst);
            }
            Step::Done
        });
        assert!(!set.stalled.load(Ordering::SeqCst));
        assert!(idle_seen.load(Ordering::SeqCst), "the other thread never went idle");
        assert!(helped.load(Ordering::SeqCst), "the idle thread was left idle");
        assert_eq!(sched.wakes_and_parks().0, 1, "one notification, for the second task");
    }

    #[test]
    fn a_chain_of_wakes_finishes_without_a_stall() {
        // Each task runs a few steps, wakes the next and finishes; only the
        // first is queued at the start. A lost wake is a stall.
        const TASKS: usize = 64;
        for _ in 0..100 {
            let sched = Scheduler::on_threads(TASKS, 2);
            let steps: Vec<AtomicUsize> = (0..TASKS).map(|_| AtomicUsize::new(0)).collect();
            let set = Scripted::run(&sched, TASKS, vec![0], |id, wakers: &[Waker]| {
                if steps[id].fetch_add(1, Ordering::SeqCst) < id % 3 {
                    return Step::Ran;
                }
                if let Some(next) = wakers.get(id + 1) {
                    next.wake_by_ref();
                }
                Step::Done
            });
            assert!(!set.stalled.load(Ordering::SeqCst), "a wake was lost");
            assert_eq!(sched.lock().outstanding, 0);
            let ran: Vec<usize> = steps.iter().map(|s| s.load(Ordering::SeqCst)).collect();
            assert_eq!(ran, (0..TASKS).map(|id| id % 3 + 1).collect::<Vec<_>>());
        }
    }
}
