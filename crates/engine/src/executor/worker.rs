//! Pipeline instances at work: a [`Lane`] is one instance of a stage's
//! pipeline bound to a device — building its execution context is the
//! device crossing, its finalize flush the pack. A [`Task`] is a source
//! pump or a lane's worker, stepped by the scheduler: a worker checks the
//! fault ladder, claims and runs one block per step, or re-routes one its
//! device should not run, and waits when its queue has nothing for it.

use super::fault::FaultState;
use super::routing::Outbox;
use super::sched::Step;
use super::{DeviceKindStats, QueryRun};
use hetex_common::{BlockHandle, HetError, MemoryNodeId, Result};
use hetex_core::queue::PopNext;
use hetex_jit::{CompiledPipeline, ExecCtx, PipelineOutput};
use hetex_topology::{DeviceId, DeviceKind, DeviceProfile, ResourceClock, SimTime};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::task::Waker;

/// What a waiting task waits on, as the stall report names it.
#[derive(Clone, Copy)]
pub(super) enum Wait {
    Gate,
    /// Its own queue: a block, a completion or the close.
    Queue,
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
/// instance's routing `slot`.
pub(super) struct Lane<'r> {
    pub(super) run: &'r QueryRun<'r>,
    pub(super) stage: usize,
    pub(super) slot: usize,
    pub(super) device: DeviceId,
    kind: DeviceKind,
    profile: DeviceProfile,
    pub(super) clock: ResourceClock,
    /// The stage's pipeline, run through `ctx`: the context built for the
    /// lane's device is its device provider.
    pipeline: &'r CompiledPipeline,
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
            pipeline: &routing.stage.pipeline,
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
    /// lane, whether its device finishes them or a live sibling's does.
    pub(super) fn take_packed(&mut self) -> Result<PipelineOutput> {
        self.pipeline.finalize_instance(&self.run.graph.state, &mut self.ctx)
    }

    /// Flush packed outputs `out`: charge the finalize pass's work to this
    /// lane after its latest work and emit its blocks (its rows count toward
    /// the stage's emitted rows; nothing *entered* during finalize), then
    /// bank the lane's statistics.
    pub(super) fn finalize(&mut self, out: PipelineOutput, outbox: &mut Outbox) {
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
    /// transfer/compute overlap. Its end is the source's end in the stage's
    /// ledger.
    Pump {
        table: &'r str,
        projection: &'r [String],
        segments: Option<std::vec::IntoIter<BlockHandle>>,
    },
    /// The worker of pipeline instance `slot`.
    Worker { slot: usize, phase: Phase<'r> },
}

enum Phase<'r> {
    /// Waiting for the dependency gate; the lane is built when it opens.
    Gated,
    Claiming(Box<Claimer<'r>>),
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
        let kind = Kind::Pump { table, projection, segments: None };
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
    /// instead of reporting the failure. A pump's end, whatever it is, ends
    /// its source in the stage's ledger. The first error closes every
    /// queue (see `QueryRun::record_error`).
    pub(super) fn step(&mut self, waker: &Waker) -> Step {
        let (run, stage) = (self.run, self.stage);
        let error = match catch_unwind(AssertUnwindSafe(|| self.advance(waker))) {
            Ok(Ok(step)) => {
                if let (Step::Done, Kind::Pump { .. }) = (&step, &self.kind) {
                    run.ledger_leave(stage);
                }
                return step;
            }
            Ok(Err(e)) => e,
            Err(_) => HetError::Execution(match self.kind {
                Kind::Pump { .. } => format!("stage {stage} source pump panicked"),
                Kind::Worker { .. } => format!("stage {stage} worker panicked"),
            }),
        };
        run.record_error(error);
        self.outbox = Outbox::default();
        let Kind::Worker { phase, .. } = &self.kind else {
            run.ledger_leave(stage);
            return Step::Done;
        };
        let last_end = match phase {
            Phase::Gated => SimTime::ZERO,
            Phase::Claiming(claimer) => claimer.lane.last_end,
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

impl Drop for Task<'_> {
    /// Bank the task's routing counts in the run's (once, as it ends).
    fn drop(&mut self) {
        let counts = std::mem::take(&mut self.outbox.counts);
        let mut total = self.run.route_counts.lock();
        total.evals += counts.evals;
        total.blocks += counts.blocks;
    }
}

/// A lane claiming and running blocks, with the fault state it carries
/// between steps.
struct Claimer<'r> {
    lane: Lane<'r>,
    /// Simulated floor inherited from the stage's dependency gate.
    gate_floor: SimTime,
    /// Whether the stage's blocks may be re-routed (anonymous routing over
    /// siblings, see `StageRouting::reroutable`).
    reroutes: bool,
    /// The fault state, when an injected plan targets this worker's device;
    /// onsets are judged against the device's simulated clock.
    fault: Option<&'r FaultState>,
    /// When the device wedges: the watchdog, which runs whenever a fault
    /// plan is attached, quarantines it.
    wedge_at: Option<SimTime>,
    processed_any: bool,
}

impl<'r> Claimer<'r> {
    fn new(run: &'r QueryRun<'r>, stage: usize, slot: usize, gate_floor: SimTime) -> Result<Self> {
        let lane = Lane::new(run, stage, slot, gate_floor)?;
        #[cfg(test)]
        super::tests::record_probed_tables(&run.graph.state, lane.pipeline);
        let fault = run.fault.as_ref().filter(|f| f.plan.targets_device(lane.device));
        let wedge_at = fault.and_then(|f| f.plan.wedge_at(lane.device));
        Ok(Self {
            reroutes: run.routing[stage].reroutable(),
            lane,
            gate_floor,
            fault,
            wedge_at,
            processed_any: false,
        })
    }

    /// Fault check → claim → run one block, or re-route one the device
    /// should not run. A wedged device waits, claiming nothing, until the
    /// watchdog quarantines it; a run that fails elsewhere releases it
    /// through the error path.
    fn step(&mut self, outbox: &mut Outbox, waker: &Waker) -> Result<Progress> {
        let (run, stage, slot) = (self.lane.run, self.lane.stage, self.lane.slot);
        if let Some(fault) = self.fault {
            if fault.is_quarantined(self.lane.device) {
                return self.evacuate(fault, outbox, waker);
            }
            if self.wedge_at.is_some_and(|at| self.lane.clock.now() >= at) {
                if run.failed() {
                    return Err(HetError::Execution(format!("stage {stage} slot {slot} wedged")));
                }
                return Ok(Progress::Wait(Wait::Quarantine));
            }
        }
        let block = match self.claim(outbox, waker) {
            Ok(block) => block,
            Err(Progress::Finished(_)) => {
                let out = self.lane.take_packed()?;
                self.lane.finalize(out, outbox);
                return Ok(Progress::Finished(self.lane.last_end));
            }
            Err(progress) => return Ok(progress),
        };
        if !self.processed_any {
            self.processed_any = true;
            run.progress[stage].record_first_block(run.wall_start.elapsed().as_nanos() as u64);
        }
        if let Some(fault) = self.fault.filter(|f| f.invocation_lost(&mut self.lane)) {
            run.reroute(stage, slot, block, outbox);
            fault.recovered.fetch_add(1, Ordering::Relaxed);
            return Ok(Progress::Ran);
        }
        run.ledger_leave(stage);
        self.lane.step(block, self.gate_floor, outbox)?;
        Ok(Progress::Ran)
    }

    /// Claim the next block of the lane's own queue. A lane on an observed
    /// straggler first withdraws its queue's tail and prices it on routing's
    /// projections: when a live sibling that does not straggle would end it
    /// earlier, the tail is re-routed (`Err(Progress::Ran)`), one block a
    /// step, so each verdict sees the last re-route's commit; the first tail
    /// no sibling wins is the claim. Otherwise the claim comes to a wait
    /// (for a push, the ledger's end or the close) or the stream's end.
    fn claim(
        &mut self,
        outbox: &mut Outbox,
        waker: &Waker,
    ) -> std::result::Result<BlockHandle, Progress> {
        let (run, stage, slot) = (self.lane.run, self.lane.stage, self.lane.slot);
        let queue = &run.queues[stage][slot];
        if self.reroutes && run.cost.is_straggler(self.lane.device.index()) {
            if let Some(tail) = queue.steal() {
                if !run.sibling_ends_earlier(stage, slot, &tail, &mut outbox.counts) {
                    return Ok(tail);
                }
                run.reroute(stage, slot, tail, outbox);
                run.progress[stage].blocks_stolen.fetch_add(1, Ordering::Relaxed);
                return Err(Progress::Ran);
            }
        }
        match queue.poll_pop(waker) {
            PopNext::Block(block) => Ok(block),
            PopNext::Empty => Err(Progress::Wait(Wait::Queue)),
            PopNext::Finished => Err(Progress::Finished(SimTime::ZERO)),
        }
    }

    /// The device is quarantined: re-route every block the lane's queue
    /// holds, in queue order, and every block it receives later, until the
    /// stage's ledger ends the queue; then flush the lane's packed outputs
    /// on the live sibling with the earliest clock, which is charged for the
    /// flush.
    fn evacuate(
        &mut self,
        fault: &FaultState,
        outbox: &mut Outbox,
        waker: &Waker,
    ) -> Result<Progress> {
        let (run, stage, slot) = (self.lane.run, self.lane.stage, self.lane.slot);
        let queue = &run.queues[stage][slot];
        let mut withdrawn: Vec<BlockHandle> = std::iter::from_fn(|| queue.steal()).collect();
        if withdrawn.is_empty() {
            match queue.poll_pop(waker) {
                PopNext::Block(block) => withdrawn.push(block),
                PopNext::Empty => return Ok(Progress::Wait(Wait::Queue)),
                PopNext::Finished => {
                    let out = self.lane.take_packed()?;
                    self.lane.bank();
                    let lost =
                        HetError::DeviceLost { device: self.lane.device.index(), stage, block: 0 };
                    let survivor = run.flush_survivor(fault, stage, slot).ok_or(lost)?;
                    let mut lane = Lane::new(run, stage, survivor, self.lane.last_end)?;
                    lane.finalize(out, outbox);
                    return Ok(Progress::Finished(lane.last_end));
                }
            }
        }
        fault.recovered.fetch_add(withdrawn.len() as u64, Ordering::Relaxed);
        for block in withdrawn.into_iter().rev() {
            run.reroute(stage, slot, block, outbox);
        }
        Ok(Progress::Ran)
    }
}
