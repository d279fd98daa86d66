//! Dependency gates (hash build before probe), each stage's block ledger,
//! and the stage-completion protocol that opens the gates.

use super::routing::Outbox;
use super::{QueryRun, StageTimeline};
use hetex_common::wait::{register, take, Wakeups};
use hetex_core::queue::ProducerGuard;
use hetex_topology::SimTime;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::task::Waker;

/// A dependency gate: the lanes of a stage start only once every build
/// stage the pipeline probes has signalled completion, and inherit the
/// largest simulated completion time as their scheduling floor. Holds the
/// dependencies still running, the floor so far and the waiting lanes.
pub(super) struct Gate(Mutex<(usize, SimTime, Vec<Waker>)>);

impl Gate {
    pub(super) fn new(dependencies: usize) -> Self {
        Self(Mutex::new((dependencies, SimTime::ZERO, Vec::new())))
    }

    /// One dependency completed at simulated time `at`; the last one wakes
    /// the waiting lanes.
    fn open(&self, at: SimTime) {
        let mut state = self.0.lock();
        state.0 = state.0.saturating_sub(1);
        state.1 = state.1.max(at);
        let waiters = if state.0 == 0 { take(&mut state.2) } else { Wakeups::default() };
        drop(state);
        waiters.wake();
    }

    /// The floor once every dependency completed; until then `None`, with
    /// `waker` registered for the opening.
    pub(super) fn poll(&self, waker: &Waker) -> Option<SimTime> {
        let mut state = self.0.lock();
        if state.0 > 0 {
            register(&mut state.2, waker);
            return None;
        }
        Some(state.1)
    }

    /// The gate's partial floor so far, in nanoseconds: the largest completion
    /// time among the dependencies that already opened (0 while none did),
    /// and whether every dependency has completed.
    fn partial_floor_ns(&self) -> (u64, bool) {
        let state = self.0.lock();
        (state.1.as_nanos(), state.0 == 0)
    }
}

/// Completion bookkeeping of one pipelined stage.
pub(super) struct StageProgress {
    /// Workers still running.
    pub(super) remaining: AtomicUsize,
    /// Largest simulated completion time observed so far.
    pub(super) completion: Mutex<SimTime>,
    /// The stage's block ledger: one for its source (its pump, or the stage
    /// feeding it) until the source is done, plus one for every block routed
    /// into the stage that no lane has started on a live device yet. A
    /// re-routed block keeps its entry. Whoever takes the ledger to zero
    /// drops `registrations`, which ends the stage's queues: no block can
    /// then be on its way into one. Zero at the end of every run that
    /// succeeds (checked by `Executor::finish`).
    pub(super) ledger: AtomicUsize,
    /// The ledger's producer registration on each of the stage's queues.
    pub(super) registrations: Mutex<Vec<ProducerGuard>>,
    /// Wall-clock ns of the first processed block (`u64::MAX` = none yet).
    first_block_wall: AtomicU64,
    /// Wall-clock ns when the stage finished.
    finished_wall: AtomicU64,
    /// Blocks this stage's lanes re-routed off an observed straggler.
    pub(super) blocks_stolen: AtomicU64,
    /// Physical rows that entered this stage's pipelines (summed across
    /// instances) — the numerator of the stage's actual selectivity.
    pub(super) rows_in: AtomicU64,
    /// Physical rows this stage's pipelines emitted (block outputs plus
    /// finalize flushes).
    pub(super) rows_out: AtomicU64,
}

impl StageProgress {
    pub(super) fn new(workers: usize) -> Self {
        Self {
            remaining: AtomicUsize::new(workers),
            completion: Mutex::new(SimTime::ZERO),
            ledger: AtomicUsize::new(1),
            registrations: Mutex::new(Vec::new()),
            first_block_wall: AtomicU64::new(u64::MAX),
            finished_wall: AtomicU64::new(0),
            blocks_stolen: AtomicU64::new(0),
            rows_in: AtomicU64::new(0),
            rows_out: AtomicU64::new(0),
        }
    }

    pub(super) fn record_first_block(&self, wall_ns: u64) {
        let _ = self.first_block_wall.fetch_min(wall_ns, Ordering::Relaxed);
    }

    pub(super) fn timeline(&self) -> StageTimeline {
        let first = self.first_block_wall.load(Ordering::Relaxed);
        StageTimeline {
            first_block_wall_ns: (first != u64::MAX).then_some(first),
            finished_wall_ns: self.finished_wall.load(Ordering::Relaxed),
        }
    }
}

impl QueryRun<'_> {
    /// A fresh block is routed into `stage`: it enters the ledger.
    pub(super) fn ledger_enter(&self, stage: usize) {
        self.progress[stage].ledger.fetch_add(1, Ordering::AcqRel);
    }

    /// An entry leaves `stage`'s ledger: a lane starts running a block on a
    /// live device, or the stage's source has routed its last block into
    /// it. The last one ends the stage's queues.
    pub(super) fn ledger_leave(&self, stage: usize) {
        let progress = &self.progress[stage];
        if progress.ledger.fetch_sub(1, Ordering::AcqRel) == 1 {
            progress.registrations.lock().clear();
        }
    }

    /// Estimated opening time of `stage`'s dependency gate and whether it is
    /// still closed, consulted on every routing decision into the stage: the
    /// partial floor of already-completed builds combined with the cost
    /// model's estimate over the still-running builds — with the
    /// critical-path term on, a build's estimate extends over its whole
    /// transitive feed chain (the slowest feed's committed load), not only
    /// its own committed device load. `(0, false)` for ungated stages, so
    /// their routing is unchanged.
    pub(super) fn gate_estimate(&self, stage: usize) -> (u64, bool) {
        let deps = &self.graph.stages[stage].depends_on;
        if deps.is_empty() {
            return (0, false);
        }
        let (floor, open) = self.gates[stage].partial_floor_ns();
        if open {
            return (floor, false);
        }
        let ns = self.cost.gate_estimate_ns(
            deps,
            floor,
            &|s| self.routing.get(s).map(|r| r.est.max_load()).unwrap_or(0),
            &self.graph.wiring.feeds,
        );
        (ns, true)
    }

    /// The completion protocol for one worker of `stage` that got as far as
    /// `last_end`. The last worker queues the stage's terminal results into
    /// its `outbox` and gets the stage's completion back: once the outbox is
    /// delivered, [`Self::stage_finished`] closes the stage.
    pub(super) fn worker_finished(
        &self,
        stage: usize,
        last_end: SimTime,
        outbox: &mut Outbox,
    ) -> Option<SimTime> {
        let progress = &self.progress[stage];
        {
            let mut done = progress.completion.lock();
            *done = done.max(last_end);
        }
        if progress.remaining.fetch_sub(1, Ordering::AcqRel) != 1 {
            return None;
        }
        let completion = *progress.completion.lock();
        if !self.failed() {
            match self.emit_stage_results(stage, completion) {
                Ok((rows, blocks)) => {
                    if !rows.is_empty() {
                        *self.result_rows.lock() = rows;
                    }
                    if let Some(consumer) = self.graph.wiring.feeds[stage] {
                        blocks.into_iter().for_each(|b| outbox.push(consumer, b));
                    }
                }
                Err(e) => self.record_error(e),
            }
        }
        Some(completion)
    }

    /// Close `stage` after its terminal emission was delivered: the stage
    /// it feeds has its source done, and dependent gates open.
    pub(super) fn stage_finished(&self, stage: usize, completion: SimTime) {
        let progress = &self.progress[stage];
        progress
            .finished_wall
            .store(self.wall_start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        if let Some(consumer) = self.graph.wiring.feeds[stage] {
            self.ledger_leave(consumer);
        }
        for &dependent in &self.graph.wiring.unlocks[stage] {
            self.gates[dependent].open(completion);
        }
    }
}
