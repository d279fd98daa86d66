//! Pipeline instances at work: a [`Lane`] is one instance of a stage's
//! pipeline bound to a device — building its execution context is the
//! device crossing, its finalize flush the pack — and a worker drives one
//! lane through claim → fault check → run → steal or park. Source pumps
//! feed the first stages.

use super::fault::FaultState;
use super::routing::StealOutcome;
use super::{DeviceKindStats, QueryRun};
use hetex_common::{BlockHandle, HetError, Result};
use hetex_core::queue::{BlockQueue, PopNext, ProducerGuard};
use hetex_jit::{CompiledPipeline, ExecCtx, PipelineOutput};
use hetex_topology::{DeviceId, DeviceKind, DeviceProfile, ResourceClock, SimTime};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::time::Duration;

/// How long a straggling worker sleeps per claim-yield (see
/// [`Worker::should_yield`]), leaving its backlog to idle siblings.
/// Wall-clock only: the simulation charges no cost for the yield.
const CLAIM_YIELD: Duration = Duration::from_micros(500);

/// Most consecutive claim-yields a straggling worker may take before it
/// processes a block regardless. Bounds the wall-clock stall and guarantees
/// progress even when no sibling ever finds the backlog profitable.
const MAX_CLAIM_YIELDS: usize = 64;

/// One pipeline instance of a stage bound to a device: its compiled
/// pipeline, execution context, clock and profile. Charges are made at the
/// instance's routing `slot`, so a lane that takes over a lost sibling's
/// stream feeds the straggler detector as its own slot.
pub(super) struct Lane<'r> {
    run: &'r QueryRun<'r>,
    pub(super) stage: usize,
    pub(super) slot: usize,
    pub(super) device: DeviceId,
    kind: DeviceKind,
    profile: DeviceProfile,
    pub(super) clock: ResourceClock,
    /// The lane's own copy of the stage template, read on every block. It
    /// lives with this job's allocations, not beside the query's shared
    /// state: borrowing the graph's template cost `scan_cpu` about 6% of
    /// its host throughput on a 2-vCPU host.
    pipeline: CompiledPipeline,
    ctx: ExecCtx,
    stats: DeviceKindStats,
    /// Simulated completion of the lane's latest work.
    pub(super) last_end: SimTime,
}

impl<'r> Lane<'r> {
    pub(super) fn new(
        run: &'r QueryRun<'r>,
        stage: usize,
        slot: usize,
        last_end: SimTime,
    ) -> Result<Self> {
        let routing = &run.routing[stage];
        let device = routing.instance_devices[slot];
        let kind = routing.stage.consumers[slot].kind;
        let ctx = match kind {
            DeviceKind::Gpu => match run.exec.gpus.get(&device) {
                Some(gpu) => ExecCtx::gpu(gpu.clone(), run.config.block_capacity),
                None => {
                    return Err(HetError::Execution(format!(
                        "stage {stage}: GPU instance without a device"
                    )))
                }
            },
            DeviceKind::CpuCore => {
                ExecCtx::cpu(routing.instance_nodes[slot], run.config.block_capacity)
            }
        };
        Ok(Self {
            run,
            stage,
            slot,
            device,
            kind,
            profile: run.exec.topology.device(device)?.clone(),
            clock: run.device_clocks.get(&device).expect("device clock exists").clone(),
            pipeline: routing.stage.template(kind).clone(),
            ctx,
            stats: DeviceKindStats::default(),
            last_end,
        })
    }

    /// Run one block no earlier than `not_before`: process, charge, observe,
    /// count rows, release the input, emit. Returns the busy time charged.
    pub(super) fn step(&mut self, block: BlockHandle, not_before: SimTime) -> Result<u64> {
        let run = self.run;
        let ready = SimTime::from_nanos(block.meta().ready_at_ns).max(not_before);
        let out = self.pipeline.process_block(&block, &run.graph.state, &mut self.ctx)?;
        let (end, busy) = run.exec.charge(&self.clock, &self.profile, &out.work, ready);
        self.last_end = self.last_end.max(end);
        // Feed the straggler detector: what this block actually cost vs
        // what the nominal model prices for the same work. The same
        // observation feeds the shared per-device slowdown EWMA that
        // routing projections consume (the calibration loop).
        let nominal_ns = run.exec.work_cost.time_ns(&out.work, &self.profile);
        run.cost.observe(self.device.index(), busy, nominal_ns);
        let routing = &run.routing[self.stage];
        routing.charged_busy[self.slot].fetch_add(busy, Ordering::Relaxed);
        routing.nominal_busy[self.slot].fetch_add(nominal_ns, Ordering::Relaxed);
        routing.processed[self.slot].fetch_add(1, Ordering::Relaxed);
        if let Some(fault) = &run.fault {
            fault.note_progress(self.device);
        }
        self.stats.busy_ns += busy;
        self.stats.blocks += 1;
        self.stats.bytes_scanned += out.work.bytes_scanned;
        let progress = &run.progress[self.stage];
        progress.rows_in.fetch_add(out.counters.rows_in, Ordering::Relaxed);
        progress.rows_out.fetch_add(out.counters.rows_emitted, Ordering::Relaxed);
        // Lease-ordering rule: release the input block's staging charge
        // before acquiring charges for its outputs. The data this lane still
        // needs has been copied into its packed output buffers, so the
        // consumed block's staging bytes are free the moment processing
        // ends — and a lane that holds no lease while it parks on a
        // downstream acquisition cannot be part of a hold-and-wait cycle.
        drop(block);
        self.emit(out.blocks, end)?;
        Ok(busy)
    }

    fn emit(&self, blocks: Vec<BlockHandle>, ready: SimTime) -> Result<()> {
        let Some(consumer) = self.run.graph.wiring.feeds[self.stage] else { return Ok(()) };
        for mut produced in blocks {
            produced.meta_mut().ready_at_ns = ready.as_nanos();
            self.run.push_downstream(consumer, produced)?;
        }
        Ok(())
    }

    /// The lane's partially filled packed outputs, taken out of its context.
    pub(super) fn take_packed(&mut self) -> Result<PipelineOutput> {
        self.pipeline.finalize_instance(&mut self.ctx)
    }

    /// Charge a finalize pass's work to this lane after its latest work and
    /// emit its blocks. Its rows count toward the stage's emitted rows;
    /// nothing *entered* during finalize.
    pub(super) fn flush(&mut self, out: PipelineOutput) -> Result<()> {
        if !out.work.is_empty() {
            let (end, busy) =
                self.run.exec.charge(&self.clock, &self.profile, &out.work, self.last_end);
            self.last_end = self.last_end.max(end);
            self.stats.busy_ns += busy;
        }
        self.run.progress[self.stage]
            .rows_out
            .fetch_add(out.counters.rows_emitted, Ordering::Relaxed);
        self.emit(out.blocks, self.last_end)
    }

    /// Flush the lane's own packed outputs, then bank its statistics.
    pub(super) fn finalize(&mut self) -> Result<()> {
        let out = self.take_packed()?;
        self.flush(out)?;
        if self.run.trace {
            eprintln!(
                "[trace] stage {} dev {:?} blocks {} busy {:.1}ms last_end {} clock {}",
                self.stage,
                self.device,
                self.stats.blocks,
                self.stats.busy_ns as f64 / 1e6,
                self.last_end,
                self.clock.now()
            );
        }
        self.bank();
        Ok(())
    }

    /// Add the lane's statistics to the run's per-kind totals (once).
    pub(super) fn bank(&mut self) {
        let stats = std::mem::take(&mut self.stats);
        let mut kinds = self.run.per_kind.lock();
        let entry = kinds.entry(self.kind).or_default();
        entry.blocks += stats.blocks;
        entry.busy_ns += stats.busy_ns;
        entry.bytes_scanned += stats.bytes_scanned;
    }
}

/// What one claim attempt yielded.
enum Claim {
    Block(BlockHandle),
    /// Nothing to run yet: look again (after a yield or a park).
    Again,
    /// The stream is over and nothing is left to steal.
    Finished,
}

/// The consumer worker of one pipeline instance: its lane, its queue, and
/// the claim-pacing and fault state the loop carries between blocks.
struct Worker<'w, 'r> {
    lane: &'w mut Lane<'r>,
    queue: &'w BlockQueue,
    /// Simulated floor inherited from the stage's dependency gate.
    gate_floor: SimTime,
    /// Whether the stage may steal (anonymous routing, stealing enabled).
    steals: bool,
    /// The fault state, when an injected plan targets this worker's device;
    /// onsets are judged against the device's simulated clock.
    fault: Option<&'w FaultState>,
    /// A wedge is only observable (and survivable) through the watchdog;
    /// with the watchdog off the fault is not injected at all, so no
    /// configuration can turn it into a hang.
    wedge_at: Option<SimTime>,
    last_busy: u64,
    claim_yields: usize,
    processed_any: bool,
}

impl Worker<'_, '_> {
    /// claim → fault check → run, until the stream is over (then flush) or
    /// the device is quarantined (then the rest of the stream is taken over
    /// by a surviving sibling).
    fn run(&mut self) -> Result<()> {
        let in_hand = loop {
            if self.quarantined_before_claim()? {
                break None;
            }
            let block = match self.claim()? {
                Claim::Block(block) => block,
                Claim::Again => continue,
                Claim::Finished => return self.lane.finalize(),
            };
            if !self.processed_any {
                self.processed_any = true;
                let run = self.lane.run;
                run.progress[self.lane.stage]
                    .record_first_block(run.wall_start.elapsed().as_nanos() as u64);
            }
            let retry = self.lane.run.config.fault.transient_retry;
            if self.fault.is_some_and(|f| f.invocation_lost(self.lane, retry)) {
                break Some(block);
            }
            self.last_busy = self.lane.step(block, self.gate_floor)?;
            self.claim_yields = 0;
            if self.steals && self.straggling() {
                self.wake_siblings();
            }
        };
        self.wake_siblings();
        let fault = self.fault.expect("only a fault plan quarantines");
        self.lane.run.take_over(fault, self.lane, self.queue, in_hand)
    }

    /// Fault ladder, pre-claim: a wedged device parks without claiming
    /// anything until the watchdog quarantines it; a quarantined one claims
    /// nothing. A run that fails elsewhere releases a wedged worker through
    /// the error cascade with a structured diagnosis.
    fn quarantined_before_claim(&self) -> Result<bool> {
        let Some(fault) = self.fault else { return Ok(false) };
        let device = self.lane.device;
        if self.wedge_at.is_some_and(|at| self.lane.clock.now() >= at) {
            loop {
                // Read before the flag, so a wake-up between the two still
                // ends the park.
                let seen = self.queue.events();
                if fault.is_quarantined(device) {
                    break;
                }
                if self.queue.is_closed() || self.lane.run.failed() {
                    return Err(HetError::Wedged { stage: self.lane.stage, slot: self.lane.slot });
                }
                self.queue.park(seen);
            }
        }
        Ok(fault.is_quarantined(device))
    }

    /// Sim-paced claiming (steal-enabled stages only). Functional execution
    /// runs at wall speed, so a device that is slow on the *simulated* clock
    /// would still drain its queue as fast as any sibling — wall-time
    /// claiming hides exactly the backlog that adaptive re-routing exists to
    /// absorb. A worker whose observed slowdown marks it a straggler
    /// therefore yields (bounded by [`MAX_CLAIM_YIELDS`]) instead of
    /// claiming the next block, leaving it where a healthy thief can
    /// profitably take it.
    fn should_yield(&self) -> bool {
        self.last_busy > 0 && self.claim_yields < MAX_CLAIM_YIELDS && self.straggling()
    }

    fn straggling(&self) -> bool {
        let routing = &self.lane.run.routing[self.lane.stage];
        self.lane.run.cost.is_straggler(routing.observed_slowdown(self.lane.slot))
    }

    fn yield_claim(&mut self) -> Claim {
        self.claim_yields += 1;
        self.wake_siblings();
        std::thread::sleep(CLAIM_YIELD);
        Claim::Again
    }

    /// Idle siblings park until an event may change their steal verdict;
    /// this worker's straggling, claim-yield and quarantine are such events,
    /// and so is its backlog dropping below the steal depth while a thief
    /// lingers on it.
    fn wake_siblings(&self) {
        if !self.steals {
            return;
        }
        #[cfg(test)]
        super::tests::record_wakeup(self.lane.run, super::tests::Wakeup::FanOut);
        let queues = &self.lane.run.queues[self.lane.stage];
        for (slot, queue) in queues.iter().enumerate() {
            if slot != self.lane.slot {
                queue.wake();
            }
        }
    }

    /// Claim the next block: from the own queue, or — late binding — an
    /// idle worker (empty queue, or its stream already over) rescues the
    /// tail of an overloaded sibling's backlog instead of parking or exiting
    /// while a straggler holds blocks hostage. With nothing to take it parks
    /// until an event: its own queue's push, completion or close, or a
    /// sibling's wake-up.
    fn claim(&mut self) -> Result<Claim> {
        if !self.steals {
            return Ok(self.queue.pop().map_or(Claim::Finished, Claim::Block));
        }
        // Claim pacing, part one: with backlog already visible, a sim-behind
        // worker sleeps *without touching the queue* — the blocks keep their
        // order and stay stealable.
        if self.should_yield() && !self.queue.is_empty() {
            return Ok(self.yield_claim());
        }
        let (run, stage, slot) = (self.lane.run, self.lane.stage, self.lane.slot);
        let seen = self.queue.events();
        let stream_over = match self.queue.try_pop() {
            PopNext::Block(block) => {
                // Claim pacing, part two: a block that arrived after part one
                // looked was claimed before it could see it — un-claim it
                // (back to the queue tail, where thieves look) and yield. A
                // refused give-back means the queue closed: drop the block
                // like close()'s sweep.
                if self.should_yield() {
                    let _ = self.queue.give_back(block);
                    return Ok(self.yield_claim());
                }
                if run.release_lingering(stage, self.queue) {
                    #[cfg(test)]
                    super::tests::record_wakeup(run, super::tests::Wakeup::Release);
                    self.wake_siblings();
                }
                return Ok(Claim::Block(block));
            }
            PopNext::Empty => false,
            PopNext::Finished => true,
        };
        // Raised before the scan, lowered after the park (the guard drops
        // on return): see `QueryRun::release_lingering`.
        let _lingering = stream_over.then(|| run.routing[stage].linger());
        // A live stream parks on its own queue's events whatever a scan
        // finds, unless a sibling is a victim worth stealing from; such a
        // sibling's straggling or quarantine wakes this lane.
        if stream_over || run.has_steal_victim(stage, slot) {
            match run.steal_for(stage, slot, &self.lane.clock)? {
                StealOutcome::Stolen(block) => {
                    run.progress[stage].blocks_stolen.fetch_add(1, Ordering::Relaxed);
                    return Ok(Claim::Block(block));
                }
                StealOutcome::Nothing if stream_over => return Ok(Claim::Finished),
                // A sibling backlog may turn profitable as the victim's clock
                // advances, and more work may arrive: wait for the event that
                // says so.
                StealOutcome::Unprofitable | StealOutcome::Nothing => {}
            }
        }
        let _expired = self.queue.park(seen);
        #[cfg(test)]
        if _expired {
            super::tests::record_backstop(run, stage, slot, seen, stream_over);
        }
        Ok(Claim::Again)
    }
}

impl QueryRun<'_> {
    /// Source pump of a table-scan `stage`: segment the table and route each
    /// block the moment it exists, so transfers to (e.g.) GPU memory are
    /// scheduled immediately and overlap whatever the gated consumer still
    /// waits for — the paper's transfer/compute overlap. `guards` register
    /// the pump as a producer on every queue of the stage; dropping them
    /// signals the stream's end.
    pub(super) fn pump(
        &self,
        stage: usize,
        table: &str,
        projection: &[String],
        guards: Vec<ProducerGuard>,
    ) {
        let pump = || -> Result<()> {
            #[cfg(test)]
            if table == super::tests::PANICKING_TABLE {
                panic!("injected source pump panic");
            }
            for handle in self.table_segments(table, projection)? {
                self.push_downstream(stage, handle)?;
            }
            Ok(())
        };
        match catch_unwind(AssertUnwindSafe(pump)) {
            Ok(Ok(())) => {}
            Ok(Err(e)) => self.record_error(e),
            Err(_) => self
                .record_error(HetError::Execution(format!("stage {stage} source pump panicked"))),
        }
        drop(guards);
    }

    /// The consumer job of `slot` of `stage`. Whatever happens — an error or
    /// a panic — it runs the completion protocol: without it the stage's
    /// remaining-count never reaches zero, dependent gates never open, and
    /// the whole query deadlocks instead of reporting the failure. A failed
    /// worker closes its queue, unblocking the producers pushing into it
    /// and cascading the shutdown upstream.
    pub(super) fn work(&self, stage: usize, slot: usize) {
        let queue = &self.queues[stage][slot];
        let mut lane = match Lane::new(self, stage, slot, SimTime::ZERO) {
            Ok(lane) => lane,
            Err(e) => {
                self.record_error(e);
                queue.close();
                self.worker_finished(stage, SimTime::ZERO);
                return;
            }
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            // Gate: a probe worker starts pulling only after its build
            // stages signalled completion.
            let gate_floor = self.gates[stage].wait();
            lane.last_end = gate_floor;
            #[cfg(test)]
            super::tests::record_probed_tables(&self.graph.state, &lane.pipeline);
            let fault = self.fault.as_ref().filter(|f| f.plan.targets_device(lane.device));
            let wedge_at = fault
                .filter(|_| self.config.fault.watchdog)
                .and_then(|f| f.plan.wedge_at(lane.device));
            Worker {
                lane: &mut lane,
                queue,
                gate_floor,
                steals: self.config.steal_policy.is_enabled() && self.routing[stage].rehomeable(),
                fault,
                wedge_at,
                last_busy: 0,
                claim_yields: 0,
                processed_any: false,
            }
            .run()
        }));
        let error = match outcome {
            Ok(result) => result.err(),
            Err(_) => Some(HetError::Execution(format!("stage {stage} worker panicked"))),
        };
        if let Some(e) = error {
            self.record_error(e);
            queue.close();
        }
        self.worker_finished(stage, lane.last_end);
    }
}
