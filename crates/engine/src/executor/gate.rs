//! Dependency gates (hash build before probe) and the stage-completion
//! protocol that opens them.

use super::{QueryRun, StageTimeline};
use hetex_core::queue::ProducerGuard;
use hetex_topology::SimTime;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex as StdMutex};

/// A dependency gate: consumer workers of a stage block here until every
/// build stage the pipeline probes has signalled completion, and inherit the
/// largest simulated completion time as their scheduling floor.
pub(super) struct Gate {
    state: StdMutex<(usize, SimTime)>,
    cv: Condvar,
}

impl Gate {
    pub(super) fn new(dependencies: usize) -> Self {
        Self { state: StdMutex::new((dependencies, SimTime::ZERO)), cv: Condvar::new() }
    }

    /// One dependency completed at simulated time `at`.
    fn open(&self, at: SimTime) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.0 = state.0.saturating_sub(1);
        state.1 = state.1.max(at);
        if state.0 == 0 {
            self.cv.notify_all();
        }
    }

    /// Block until every dependency completed; returns the simulated floor.
    pub(super) fn wait(&self) -> SimTime {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        while state.0 > 0 {
            state = self.cv.wait(state).unwrap_or_else(|e| e.into_inner());
        }
        state.1
    }

    /// The gate's partial floor so far, in nanoseconds: the largest completion
    /// time among the dependencies that already opened (0 while none did),
    /// and whether every dependency has completed.
    fn partial_floor_ns(&self) -> (u64, bool) {
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        (state.1.as_nanos(), state.0 == 0)
    }
}

/// Completion bookkeeping of one pipelined stage.
pub(super) struct StageProgress {
    /// Workers still running.
    pub(super) remaining: AtomicUsize,
    /// Largest simulated completion time observed so far.
    pub(super) completion: Mutex<SimTime>,
    /// This stage's producer registrations on its consumer's queues, dropped
    /// (→ `producer_done`) by the last finishing worker after the terminal
    /// emission was pushed.
    pub(super) downstream_guards: Mutex<Vec<ProducerGuard>>,
    /// Wall-clock ns of the first processed block (`u64::MAX` = none yet).
    first_block_wall: AtomicU64,
    /// Wall-clock ns when the stage finished.
    finished_wall: AtomicU64,
    /// Blocks this stage's workers stole from overloaded siblings.
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
            downstream_guards: Mutex::new(Vec::new()),
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
    /// `last_end`. The last worker emits the stage's terminal results,
    /// pushes them downstream, releases the producer registrations and
    /// opens dependent gates.
    pub(super) fn worker_finished(&self, stage: usize, last_end: SimTime) {
        let progress = &self.progress[stage];
        {
            let mut done = progress.completion.lock();
            *done = done.max(last_end);
        }
        if progress.remaining.fetch_sub(1, Ordering::AcqRel) != 1 {
            return;
        }
        let completion = *progress.completion.lock();
        if !self.failed() {
            let emitted = self.emit_stage_results(stage, completion).and_then(|(rows, blocks)| {
                if self.graph.stages[stage].is_result && !rows.is_empty() {
                    *self.result_rows.lock() = rows;
                }
                match self.graph.wiring.feeds[stage] {
                    Some(consumer) => {
                        blocks.into_iter().try_for_each(|b| self.push_downstream(consumer, b))
                    }
                    None => Ok(()),
                }
            });
            if let Err(e) = emitted {
                self.record_error(e);
            }
        }
        progress
            .finished_wall
            .store(self.wall_start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        // Terminate downstream consumers (producer_done via guard drop).
        progress.downstream_guards.lock().clear();
        for &dependent in &self.graph.wiring.unlocks[stage] {
            self.gates[dependent].open(completion);
        }
    }
}
