//! The scheduler of one execution (DESIGN.md §4.5): the calling thread plus
//! `available_parallelism() − 1` scoped threads run every task's steps from
//! one FIFO ready queue. A step never blocks: a task that cannot proceed
//! registers its waker where it waits and returns [`Step::Waiting`], and
//! the event that ends the wait re-queues it. Events come only from threads
//! inside a step or a fault check, so no task queued, no thread running and
//! tasks outstanding is exact: nothing can wake anything any more — a stall.

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
}

struct Ready {
    queue: VecDeque<usize>,
    states: Vec<State>,
    /// Threads inside a step or a fault check.
    running: usize,
    outstanding: usize,
    idle: usize,
    halted: bool,
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
        Arc::new(Self {
            ready: Mutex::new(Ready {
                queue: VecDeque::with_capacity(tasks),
                states: vec![State::Idle; tasks],
                running: 0,
                outstanding: tasks,
                idle: 0,
                halted: false,
                #[cfg(test)]
                waits: (0, 0),
            }),
            work: Condvar::new(),
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
            State::Idle => self.requeue(&mut ready, id),
            State::Running => ready.states[id] = State::Notified,
            _ => {}
        }
    }

    /// Task `id`'s wait ended: queue it.
    fn requeue(&self, ready: &mut Ready, id: usize) {
        ready.count(0, 1);
        ready.states[id] = State::Queued;
        ready.queue.push_back(id);
        if ready.idle > 0 {
            self.work.notify_one();
        }
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
            for _ in 1..parallelism() {
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
                            self.requeue(&mut ready, id);
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
            ready = match idle_wait {
                None => self.work.wait(ready).expect("never poisoned"),
                Some(period) => self.work.wait_timeout(ready, period).expect("never poisoned").0,
            };
            ready.idle -= 1;
        }
    }
}
