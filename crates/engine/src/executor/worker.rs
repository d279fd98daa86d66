//! Pipeline instances at work: a [`Lane`] is one instance of a stage's
//! pipeline bound to a device — building its execution context is the
//! device crossing, its finalize flush the pack. A [`Task`] is a source
//! pump or a lane's worker, stepped by the scheduler: a worker claims,
//! checks the fault ladder and runs one block per step, stealing or
//! waiting when its queue has nothing for it.

use super::fault::{Drain, FaultState};
use super::movement::Claimed;
use super::routing::{Lingering, Outbox, StealOutcome};
use super::sched::Step;
use super::{DeviceKindStats, QueryRun};
use hetex_common::{BlockHandle, HetError, MemoryNodeId, Result};
use hetex_core::queue::{BlockQueue, PopNext, ProducerGuard};
use hetex_jit::{CompiledPipeline, ExecCtx, PipelineOutput};
use hetex_topology::{DeviceId, DeviceKind, DeviceProfile, ResourceClock, SimTime};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::task::Waker;

/// Most consecutive claim-yields a straggling worker may take before it
/// processes a block regardless: progress even when the sibling it yields
/// to cannot run. A yield is one scheduler step, and a sibling's block
/// takes a few hundred of them on another thread, so the bound is wide.
const MAX_CLAIM_YIELDS: usize = 4096;

/// What a waiting task waits on, as the stall report names it.
#[derive(Clone, Copy)]
pub(super) enum Wait {
    Gate,
    /// Its own queue: a block, a completion or the close.
    Queue,
    /// Its stream is over; a sibling's backlog may turn profitable or drop
    /// below the steal depth.
    Lingering,
    Quarantine,
    Lease(MemoryNodeId),
    Admission {
        stage: usize,
        slot: usize,
    },
    Push {
        stage: usize,
        slot: usize,
    },
}

impl std::fmt::Display for Wait {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Wait::Gate => write!(f, "its gate"),
            Wait::Queue => write!(f, "its queue"),
            Wait::Lingering => write!(f, "a sibling's backlog"),
            Wait::Quarantine => write!(f, "its quarantine"),
            Wait::Lease(node) => write!(f, "a staging lease on {node}"),
            Wait::Admission { stage, slot } => {
                write!(f, "admission into stage {stage} slot {slot}")
            }
            Wait::Push { stage, slot } => write!(f, "room in stage {stage} slot {slot}"),
        }
    }
}

/// One pipeline instance of a stage bound to a device: its compiled
/// pipeline, execution context, clock and profile. Charges are made at the
/// instance's routing `slot`, so a lane that takes over a lost sibling's
/// stream feeds the straggler detector as its own slot.
pub(super) struct Lane<'r> {
    pub(super) run: &'r QueryRun<'r>,
    pub(super) stage: usize,
    pub(super) slot: usize,
    pub(super) device: DeviceId,
    kind: DeviceKind,
    profile: DeviceProfile,
    pub(super) clock: ResourceClock,
    /// The lane's own copy of the stage template, read on every block. It
    /// lives with the task's allocations, not beside the query's shared
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
            ctx: ctx.with_arena(run.graph.state.arena()),
            stats: DeviceKindStats::default(),
            last_end,
        })
    }

    /// Run one block no earlier than `not_before`: process, charge, observe,
    /// count rows, release the input, emit into `outbox`. Returns the busy
    /// time charged.
    pub(super) fn step(
        &mut self,
        block: BlockHandle,
        not_before: SimTime,
        outbox: &mut Outbox,
    ) -> Result<u64> {
        let run = self.run;
        let ready = SimTime::from_nanos(block.meta().ready_at_ns).max(not_before);
        let out = self.pipeline.process_block(&block, &run.graph.state, &mut self.ctx)?;
        let (end, busy) = run.exec.charge(&self.clock, &self.profile, &out.work, ready);
        self.last_end = self.last_end.max(end);
        // Feed the straggler estimator: what this block actually cost vs
        // what the nominal model prices for the same work, folded into the
        // device's shared slowdown EWMA.
        let nominal_ns = run.exec.work_cost.time_ns(&out.work, &self.profile);
        run.cost.observe(self.device.index(), busy, nominal_ns);
        let routing = &run.routing[self.stage];
        routing.charged_busy[self.slot].fetch_add(busy, Ordering::Relaxed);
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
        // ends — and a lane that holds no lease while it waits on a
        // downstream acquisition cannot be part of a hold-and-wait cycle.
        // Its buffers go back to the state arena for the next pack.
        run.graph.state.arena().recycle(block);
        self.emit(out.blocks, end, outbox);
        Ok(busy)
    }

    fn emit(&self, blocks: Vec<BlockHandle>, ready: SimTime, outbox: &mut Outbox) {
        let Some(consumer) = self.run.graph.wiring.feeds[self.stage] else { return };
        for mut produced in blocks {
            produced.meta_mut().ready_at_ns = ready.as_nanos();
            outbox.push(consumer, produced);
        }
    }

    /// The lane's partially filled packed outputs, taken out of its context,
    /// and its group-by partials, merged into the shared table: once per
    /// lane, whether the lane finishes or is taken over.
    pub(super) fn take_packed(&mut self) -> Result<PipelineOutput> {
        self.pipeline.finalize_instance(&self.run.graph.state, &mut self.ctx)
    }

    /// Charge a finalize pass's work to this lane after its latest work and
    /// emit its blocks. Its rows count toward the stage's emitted rows;
    /// nothing *entered* during finalize.
    pub(super) fn flush(&mut self, out: PipelineOutput, outbox: &mut Outbox) {
        if !out.work.is_empty() {
            let (end, busy) =
                self.run.exec.charge(&self.clock, &self.profile, &out.work, self.last_end);
            self.last_end = self.last_end.max(end);
            self.stats.busy_ns += busy;
        }
        self.run.progress[self.stage]
            .rows_out
            .fetch_add(out.counters.rows_emitted, Ordering::Relaxed);
        self.emit(out.blocks, self.last_end, outbox);
    }

    /// Flush the lane's own packed outputs, then bank its statistics.
    pub(super) fn finalize(&mut self, outbox: &mut Outbox) -> Result<()> {
        let out = self.take_packed()?;
        self.flush(out, outbox);
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

/// One task of an execution: a source pump or a pipeline instance's worker,
/// with the outbox its emitted blocks wait in.
pub(super) struct Task<'r> {
    run: &'r QueryRun<'r>,
    stage: usize,
    kind: Kind<'r>,
    outbox: Outbox,
    wait: Wait,
}

enum Kind<'r> {
    /// A table scan's source: a cursor over the table's segments, each
    /// routed the moment it exists, so transfers to (e.g.) GPU memory
    /// overlap whatever the gated consumer still waits for — the paper's
    /// transfer/compute overlap. The guards register the pump on every queue
    /// of the stage and end the stream when the task is dropped.
    Pump {
        table: &'r str,
        projection: &'r [String],
        segments: Option<std::vec::IntoIter<BlockHandle>>,
        _guards: Vec<ProducerGuard>,
    },
    /// The worker of pipeline instance `slot`.
    Worker { slot: usize, phase: Phase<'r> },
}

enum Phase<'r> {
    /// Waiting for the dependency gate; the lane is built when it opens.
    Gated,
    Claiming(Box<Claimer<'r>>),
    /// The device was quarantined: a survivor runs the rest of the stream.
    Draining(Box<Drain<'r>>),
    /// The lane finalized at this simulated time; the stage learns it once
    /// the lane's last blocks are delivered.
    Finalized(SimTime),
    /// The stage's last worker, delivering the terminal emission of the
    /// stage that completed at this simulated time.
    Finishing(SimTime),
}

/// What one step of a running lane came to.
pub(super) enum Progress {
    Ran,
    Wait(Wait),
    /// The device was lost; the claimed block, if any, leads the re-homed
    /// stream.
    TakeOver(Option<Claimed>),
    /// The stream is over; the lane finalized at this simulated time.
    Finished(SimTime),
}

impl<'r> Task<'r> {
    pub(super) fn pump(
        run: &'r QueryRun<'r>,
        stage: usize,
        table: &'r str,
        projection: &'r [String],
    ) -> Self {
        let _guards = run.queues[stage].iter().map(BlockQueue::register_producer).collect();
        let kind = Kind::Pump { table, projection, segments: None, _guards };
        Self { run, stage, kind, outbox: Outbox::default(), wait: Wait::Queue }
    }

    pub(super) fn worker(run: &'r QueryRun<'r>, stage: usize, slot: usize) -> Self {
        let kind = Kind::Worker { slot, phase: Phase::Gated };
        Self { run, stage, kind, outbox: Outbox::default(), wait: Wait::Gate }
    }

    /// The task and what it waits on, for the stall report.
    pub(super) fn describe(&self) -> String {
        match &self.kind {
            Kind::Pump { .. } => format!("stage {} source pump waits on {}", self.stage, self.wait),
            Kind::Worker { slot, .. } => {
                format!("stage {} slot {slot} waits on {}", self.stage, self.wait)
            }
        }
    }

    /// One step. Whatever happens — an error or a panic — a worker runs the
    /// completion protocol: without it the stage's remaining-count never
    /// reaches zero, dependent gates never open, and the query stalls
    /// instead of reporting the failure. A failed worker closes its queue,
    /// releasing the producers pushing into it and cascading the shutdown
    /// upstream.
    pub(super) fn step(&mut self, waker: &Waker) -> Step {
        let (run, stage) = (self.run, self.stage);
        let error = match catch_unwind(AssertUnwindSafe(|| self.advance(waker))) {
            Ok(Ok(step)) => return step,
            Ok(Err(e)) => e,
            Err(_) => HetError::Execution(match self.kind {
                Kind::Pump { .. } => format!("stage {stage} source pump panicked"),
                Kind::Worker { .. } => format!("stage {stage} worker panicked"),
            }),
        };
        run.record_error(error);
        self.outbox = Outbox::default();
        let Kind::Worker { slot, phase } = &self.kind else { return Step::Done };
        run.queues[stage][*slot].close();
        let last_end = match phase {
            Phase::Gated => SimTime::ZERO,
            Phase::Claiming(claimer) => claimer.lane.last_end,
            Phase::Draining(drain) => drain.floor,
            Phase::Finalized(last_end) => *last_end,
            Phase::Finishing(completion) => {
                run.stage_finished(stage, *completion);
                return Step::Done;
            }
        };
        if let Some(completion) = run.worker_finished(stage, last_end, &mut self.outbox) {
            run.stage_finished(stage, completion);
        }
        Step::Done
    }

    /// Deliver the outbox, take one step, deliver what it emitted.
    fn advance(&mut self, waker: &Waker) -> Result<Step> {
        if !self.delivered(waker)? {
            return Ok(Step::Waiting);
        }
        let step = match &mut self.kind {
            Kind::Pump { table, projection, segments, .. } => {
                if segments.is_none() {
                    #[cfg(test)]
                    if *table == super::tests::PANICKING_TABLE {
                        panic!("injected source pump panic");
                    }
                    *segments = Some(self.run.table_segments(table, projection)?.into_iter());
                }
                match segments.as_mut().and_then(Iterator::next) {
                    Some(segment) => {
                        self.outbox.push(self.stage, segment);
                        Step::Ran
                    }
                    None => Step::Done,
                }
            }
            Kind::Worker { slot, phase } => {
                let (run, stage, slot) = (self.run, self.stage, *slot);
                let progress = match phase {
                    Phase::Gated => match run.gates[stage].poll(waker) {
                        Some(floor) => {
                            *phase =
                                Phase::Claiming(Box::new(Claimer::new(run, stage, slot, floor)?));
                            Progress::Ran
                        }
                        None => Progress::Wait(Wait::Gate),
                    },
                    Phase::Claiming(claimer) => claimer.step(&mut self.outbox, waker)?,
                    Phase::Draining(drain) => drain.step(&mut self.outbox, waker)?,
                    Phase::Finalized(last_end) => {
                        match run.worker_finished(stage, *last_end, &mut self.outbox) {
                            Some(completion) => *phase = Phase::Finishing(completion),
                            None => return Ok(Step::Done),
                        }
                        Progress::Ran
                    }
                    Phase::Finishing(completion) => {
                        run.stage_finished(stage, *completion);
                        return Ok(Step::Done);
                    }
                };
                match progress {
                    Progress::Ran => Step::Ran,
                    Progress::Wait(wait) => {
                        self.wait = wait;
                        return Ok(Step::Waiting);
                    }
                    Progress::TakeOver(in_hand) => {
                        let Phase::Claiming(claimer) = phase else { unreachable!("claiming") };
                        claimer.wake_siblings();
                        let fault = claimer.fault.expect("only a fault plan quarantines");
                        let drain =
                            run.take_over(fault, &mut claimer.lane, in_hand, &mut self.outbox)?;
                        *phase = Phase::Draining(Box::new(drain));
                        Step::Ran
                    }
                    Progress::Finished(last_end) => {
                        *phase = Phase::Finalized(last_end);
                        Step::Ran
                    }
                }
            }
        };
        Ok(if self.delivered(waker)? { step } else { Step::Waiting })
    }

    /// Deliver the outbox; `false` (waker registered) while its head is
    /// held back.
    fn delivered(&mut self, waker: &Waker) -> Result<bool> {
        match self.run.deliver(&mut self.outbox, waker)? {
            Some(wait) => {
                self.wait = wait;
                Ok(false)
            }
            None => Ok(true),
        }
    }
}

/// A lane claiming and running blocks, with the claim-pacing and fault state
/// it carries between steps.
struct Claimer<'r> {
    lane: Lane<'r>,
    /// Simulated floor inherited from the stage's dependency gate.
    gate_floor: SimTime,
    /// Whether the stage may steal (anonymous routing over siblings, see
    /// `StageRouting::rehomeable`).
    steals: bool,
    /// The fault state, when an injected plan targets this worker's device;
    /// onsets are judged against the device's simulated clock.
    fault: Option<&'r FaultState>,
    /// When the device wedges: the watchdog, which runs whenever a fault
    /// plan is attached, quarantines it.
    wedge_at: Option<SimTime>,
    /// A claimed block whose lease is still owed.
    in_hand: Option<Claimed>,
    /// Raised while the lane lingers (see `QueryRun::release_lingering`).
    lingering: Option<Lingering<'r>>,
    last_busy: u64,
    claim_yields: usize,
    processed_any: bool,
}

impl<'r> Claimer<'r> {
    fn new(run: &'r QueryRun<'r>, stage: usize, slot: usize, gate_floor: SimTime) -> Result<Self> {
        let lane = Lane::new(run, stage, slot, gate_floor)?;
        #[cfg(test)]
        super::tests::record_probed_tables(&run.graph.state, &lane.pipeline);
        let fault = run.fault.as_ref().filter(|f| f.plan.targets_device(lane.device));
        let wedge_at = fault.and_then(|f| f.plan.wedge_at(lane.device));
        Ok(Self {
            steals: run.routing[stage].rehomeable(),
            lane,
            gate_floor,
            fault,
            wedge_at,
            in_hand: None,
            lingering: None,
            last_busy: 0,
            claim_yields: 0,
            processed_any: false,
        })
    }

    fn queue(&self) -> &'r BlockQueue {
        &self.lane.run.queues[self.lane.stage][self.lane.slot]
    }

    /// Fault check → claim → run one block.
    fn step(&mut self, outbox: &mut Outbox, waker: &Waker) -> Result<Progress> {
        let run = self.lane.run;
        self.lingering = None;
        if let Some(progress) = self.fault_before_claim()? {
            return Ok(progress);
        }
        let mut claimed = match self.in_hand.take() {
            Some(claimed) => claimed,
            None => match self.claim(waker)? {
                Ok(claimed) => claimed,
                Err(Progress::Finished(_)) => {
                    self.lane.finalize(outbox)?;
                    return Ok(Progress::Finished(self.lane.last_end));
                }
                Err(progress) => return Ok(progress),
            },
        };
        if !run.poll_lease(&mut claimed, waker)? {
            self.in_hand = Some(claimed);
            let node = run.routing[self.lane.stage].instance_nodes[self.lane.slot];
            return Ok(Progress::Wait(Wait::Lease(node)));
        }
        if !self.processed_any {
            self.processed_any = true;
            run.progress[self.lane.stage]
                .record_first_block(run.wall_start.elapsed().as_nanos() as u64);
        }
        if self.fault.is_some_and(|f| f.invocation_lost(&mut self.lane)) {
            return Ok(Progress::TakeOver(Some(claimed)));
        }
        self.last_busy = self.lane.step(claimed.block, self.gate_floor, outbox)?;
        self.claim_yields = 0;
        if self.steals && self.straggling() {
            self.wake_siblings();
        }
        Ok(Progress::Ran)
    }

    /// Fault ladder, pre-claim: a wedged device waits, claiming nothing,
    /// until the watchdog quarantines it; a quarantined one hands its stream
    /// to a survivor. A run that fails elsewhere releases a wedged worker;
    /// its `Wedged` stays behind the run's first error.
    fn fault_before_claim(&mut self) -> Result<Option<Progress>> {
        let Some(fault) = self.fault else { return Ok(None) };
        if fault.is_quarantined(self.lane.device) {
            return Ok(Some(Progress::TakeOver(self.in_hand.take())));
        }
        if self.wedge_at.is_some_and(|at| self.lane.clock.now() >= at) {
            if self.lane.run.failed() {
                return Err(HetError::Wedged { stage: self.lane.stage, slot: self.lane.slot });
            }
            return Ok(Some(Progress::Wait(Wait::Quarantine)));
        }
        Ok(None)
    }

    /// Sim-paced claiming (stealing stages only). Functional execution
    /// runs at wall speed, so a device that is slow on the *simulated* clock
    /// would still drain its queue as fast as any sibling — wall-time
    /// claiming hides exactly the backlog that adaptive re-routing exists to
    /// absorb. A worker whose observed slowdown marks it a straggler
    /// therefore yields (bounded by [`MAX_CLAIM_YIELDS`]) instead of
    /// claiming the next block while a sibling that claims first on the
    /// simulated clock has not: it wakes its siblings and runs again behind
    /// them, leaving the block where a healthy thief can profitably take it.
    fn should_yield(&self) -> bool {
        self.last_busy > 0
            && self.claim_yields < MAX_CLAIM_YIELDS
            && self.straggling()
            && self.sibling_claims_first()
    }

    /// Whether a sibling with blocks of its own queued is behind this lane
    /// on the simulated clock: it claims before this lane's next claim, and
    /// prices this lane's backlog for a steal when it does.
    fn sibling_claims_first(&self) -> bool {
        let (run, stage) = (self.lane.run, self.lane.stage);
        let now = self.lane.clock.now();
        run.routing[stage].instance_devices.iter().enumerate().any(|(slot, device)| {
            slot != self.lane.slot
                && !run.queues[stage][slot].is_empty()
                && !run.fault.as_ref().is_some_and(|f| f.is_quarantined(*device))
                && run.device_clocks[device].now() < now
        })
    }

    fn straggling(&self) -> bool {
        self.lane.run.cost.is_straggler(self.lane.device.index())
    }

    fn yield_claim(&mut self) -> std::result::Result<Claimed, Progress> {
        self.claim_yields += 1;
        self.wake_siblings();
        Err(Progress::Ran)
    }

    /// Idle siblings wait until an event may change their steal verdict;
    /// this worker's straggling, claim-yield and quarantine are such events,
    /// and so is its backlog dropping below the steal depth while a thief
    /// lingers on it.
    fn wake_siblings(&self) {
        if !self.steals {
            return;
        }
        let (run, stage) = (self.lane.run, self.lane.stage);
        #[cfg(test)]
        super::tests::record_wakeup(run, super::tests::Wakeup::FanOut);
        for slot in (0..run.queues[stage].len()).filter(|&slot| slot != self.lane.slot) {
            run.lane_waker(stage, slot).wake_by_ref();
        }
    }

    /// Claim the next block: from the own queue, or — late binding — the
    /// tail of an overloaded sibling's backlog, rescued instead of waiting
    /// (or finishing) while a straggler holds blocks hostage. A lane with
    /// blocks of its own steals only from an observed straggler whose
    /// backlog would end after its own. Otherwise the claim comes to a
    /// yield, a wait (for its own queue's push, completion or close, or a
    /// sibling's wake-up) or the stream's end.
    fn claim(&mut self, waker: &Waker) -> Result<std::result::Result<Claimed, Progress>> {
        let queue = self.queue();
        let finished = Progress::Finished(SimTime::ZERO);
        if !self.steals {
            return Ok(match queue.poll_pop(waker) {
                PopNext::Block(block) => Ok(block.into()),
                PopNext::Empty => Err(Progress::Wait(Wait::Queue)),
                PopNext::Finished => Err(finished),
            });
        }
        // Claim pacing, part one: with backlog already visible, a sim-behind
        // worker yields *without touching the queue* — the blocks keep their
        // order and stay stealable.
        if self.should_yield() && !queue.is_empty() {
            return Ok(self.yield_claim());
        }
        let (run, stage, slot) = (self.lane.run, self.lane.stage, self.lane.slot);
        // The straggler's backlog is priced against this lane's before the
        // lane takes its own next block: how much of it a sibling rescues
        // then follows the two projected ends, not whether the straggler
        // drained it in wall time before the sibling's queue ran dry.
        if run.has_steal_victim(stage, slot) && !queue.is_empty() {
            if let StealOutcome::Stolen(claimed) = run.steal_for(stage, slot, &self.lane.clock)? {
                run.progress[stage].blocks_stolen.fetch_add(1, Ordering::Relaxed);
                return Ok(Ok(claimed));
            }
        }
        let stream_over = match queue.poll_pop(waker) {
            PopNext::Block(block) => {
                // Claim pacing, part two: a block that arrived after part one
                // looked was claimed before it could see it — un-claim it
                // (back to the queue tail, where thieves look) and yield. A
                // refused give-back means the queue closed: drop the block
                // like close()'s sweep.
                if self.should_yield() {
                    let _ = queue.give_back(block);
                    return Ok(self.yield_claim());
                }
                if run.release_lingering(stage, queue) {
                    #[cfg(test)]
                    super::tests::record_wakeup(run, super::tests::Wakeup::Release);
                    self.wake_siblings();
                }
                return Ok(Ok(block.into()));
            }
            PopNext::Empty => false,
            PopNext::Finished => true,
        };
        // Raised before the scan, lowered when the lane next runs: see
        // `QueryRun::release_lingering`.
        if stream_over {
            self.lingering = Some(run.routing[stage].linger());
        }
        // A live stream waits on its own queue whatever a scan finds, unless
        // a sibling is a victim worth stealing from; such a sibling's
        // straggling or quarantine wakes this lane.
        if stream_over || run.has_steal_victim(stage, slot) {
            match run.steal_for(stage, slot, &self.lane.clock)? {
                StealOutcome::Stolen(claimed) => {
                    self.lingering = None;
                    run.progress[stage].blocks_stolen.fetch_add(1, Ordering::Relaxed);
                    return Ok(Ok(claimed));
                }
                StealOutcome::Nothing if stream_over => {
                    self.lingering = None;
                    return Ok(Err(finished));
                }
                // A sibling backlog may turn profitable as the victim's clock
                // advances, and more work may arrive: wait for the event that
                // says so.
                StealOutcome::Unprofitable | StealOutcome::Nothing => {}
            }
        }
        Ok(Err(Progress::Wait(if stream_over { Wait::Lingering } else { Wait::Queue })))
    }
}
