//! The stage executor.
//!
//! Executes a [`StageGraph`] on the (simulated) server. Functional execution
//! is real — every pipeline instance is a task processing real blocks, and
//! the tasks run concurrently on `available_parallelism()` host threads, so
//! results are exact and device-shared state is genuinely updated
//! concurrently — while *performance* is accounted on the simulated
//! resource clocks: each device (CPU core or GPU) owns a clock, each DRAM
//! node and each PCIe link owns a clock, and the reported query time is the
//! largest completion timestamp observed (see `DESIGN.md` §4).
//!
//! Scheduling is pipelined: all stages' pipeline-instance tasks exist up
//! front and are connected through bounded [`BlockQueue`]s, one per
//! consumer slot. Producers route, localize (mem-move) and push each block
//! handle the moment it is produced, so transfers, CPU work and GPU work
//! genuinely overlap; dependency edges (hash build before probe) are gates
//! a consumer waits on, not materialization barriers. This is the paper's
//! §3.1 architecture: routers connecting pipeline instances through
//! asynchronous queues of block handles. The independent row oracle the
//! tests compare against is [`crate::reference_execute`].
//!
//! One module per paper operator, plus the engine's own parts:
//!
//! * [`routing`] — the router: projections, routing plus mem-move, and the
//!   re-route of a block a lane withdraws, the one placement decision;
//! * [`movement`] — staging charges and the quota re-split;
//! * [`worker`] — a pipeline instance bound to a device (`Lane`: the device
//!   crossing is its execution context, the pack its finalize flush), the
//!   worker task's step fault check → claim (or re-route) → run or wait, and
//!   the source pumps;
//! * [`fault`] — fault state, the watchdog and the per-invocation ladder;
//! * [`gate`] — dependency gates, the per-stage block ledger and the
//!   stage-completion protocol;
//! * [`sched`] — the threads, the ready queue and the stall detector.

mod fault;
mod gate;
mod movement;
mod routing;
mod sched;
mod worker;

use crate::codegen::{StageGraph, StageSource};
use fault::FaultState;
use gate::{Gate, StageProgress};
use hetex_common::{BlockHandle, ColumnRef, EngineConfig, HetError, MemoryNodeId, Result};
use hetex_core::cost::{CostModel, SlowdownObserver};
use hetex_core::mem_move::MemMove;
use hetex_core::queue::BlockQueue;
use hetex_gpu_sim::GpuDevice;
use hetex_jit::{ExecCtx, SharedState, TerminalStep};
use hetex_storage::{Catalog, Segmenter};
use hetex_topology::probe::CalibratedConstants;
use hetex_topology::{
    CostModel as WorkCost, DeviceId, DeviceKind, DmaEngine, ResourceClock, ServerTopology, SimTime,
    WorkProfile,
};
use movement::Staging;
use parking_lot::Mutex;
use routing::{RouteCounts, StageRouting};
use sched::{Scheduler, Step, TaskSet};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::task::Waker;
use std::time::Instant;
use worker::Task;

/// Router initialization and thread pinning overhead (§6.4: ~10 ms, visible
/// only for very small inputs).
pub const ROUTER_INIT_OVERHEAD: SimTime = SimTime::from_millis(10);

/// Per-device-kind execution statistics of one query.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeviceKindStats {
    /// Blocks processed by instances of this device kind.
    pub blocks: u64,
    /// Simulated busy nanoseconds accumulated by this device kind.
    pub busy_ns: u64,
    /// Modeled bytes scanned by this device kind.
    pub bytes_scanned: f64,
}

/// Host work one execution did, counted where it happens: each task counts
/// its own routing and the run adds the counts up as tasks end; the
/// scheduler counts its notifications and parks under its lock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostCounts {
    /// Pricing-class evaluations (`class_cost` calls): one per pricing
    /// class of the block's stage for every routed block, and for every
    /// queue tail an observed straggler prices before it claims.
    pub route_evals: u64,
    /// Blocks routed into a stage (re-routes included).
    pub routed_blocks: u64,
    /// Idle threads notified to take queued work. Depends on thread
    /// interleaving: reported, not bounded.
    pub wakes: u64,
    /// Waits an idle thread began for work. Interleaving-dependent too.
    pub parks: u64,
}

/// Wall-clock milestones of one stage, used to observe genuine pipelining:
/// a consumer stage processes its first block while its producer stage is
/// still running.
#[derive(Debug, Clone, Default)]
pub struct StageTimeline {
    /// Wall-clock nanoseconds (since query start) when the stage's workers
    /// processed their first block; `None` if the stage saw no blocks.
    pub first_block_wall_ns: Option<u64>,
    /// Wall-clock nanoseconds when the stage finished.
    pub finished_wall_ns: u64,
}

/// The raw outcome of running a stage graph.
#[derive(Debug)]
pub struct ExecutionResult {
    /// Result rows (keys then aggregates, sorted by key for group-bys).
    pub rows: Vec<Vec<i64>>,
    /// Simulated end-to-end execution time.
    pub sim_time: SimTime,
    /// Wall-clock time of the functional execution (not the reported metric).
    pub wall_time: std::time::Duration,
    /// Per device kind statistics.
    pub per_kind: HashMap<DeviceKind, DeviceKindStats>,
    /// Bytes moved over interconnects (weighted).
    pub bytes_transferred: f64,
    /// Wall-clock milestones per stage (pipelining observability).
    pub stage_timeline: Vec<StageTimeline>,
    /// Simulated completion time of each stage.
    pub stage_completion: Vec<SimTime>,
    /// Peak leased staging bytes per memory node.
    pub staging_peaks: Vec<(MemoryNodeId, u64)>,
    /// Blocks re-routed off an observed straggler's queue per stage; all
    /// zeros unless a device was observed straggling.
    pub blocks_stolen: Vec<u64>,
    /// Cross-node control-plane traffic: block handles pushed into a queue
    /// on a memory node other than the block's (a remote queue mutex
    /// acquisition each), the traffic routing prices at the topology's
    /// control-plane round trip.
    pub remote_control_acquisitions: u64,
    /// Observed-slowdown EWMA per device slot (charged vs nominal busy
    /// time, 1.0 = healthy), indexed like the topology's device list: the
    /// straggler estimator routing and the straggler's re-route test read.
    pub observed_slowdowns: Vec<f64>,
    /// Transient kernel failures absorbed by bounded in-place retry (zero
    /// without an injected fault plan).
    pub transient_retries: u64,
    /// Blocks re-routed off a quarantined device onto the live consumers
    /// of their stage (zero without an injected fault plan).
    pub recovered_blocks: u64,
    /// Staging bytes still leased when the execution finished, measured
    /// after remote caches were flushed back to their home arenas. Zero on
    /// every clean run — the fault-invariant suite's leak check.
    pub staging_leaked_bytes: u64,
    /// Observed (rows_in, rows_out) per stage: physical rows entering each
    /// stage's pipelines across all instances and rows the stage emitted —
    /// the *actual* per-stage selectivities, as opposed to the structural
    /// estimates routing plans with. Every block is counted once, on the
    /// lane that completed it, so a run that re-routed blocks reports the
    /// same rows as a healthy run.
    pub stage_rows: Vec<(u64, u64)>,
    /// Host work counts of the execution.
    pub host_counts: HostCounts,
}

/// Executes stage graphs on a topology.
pub struct Executor {
    topology: Arc<ServerTopology>,
    gpus: HashMap<DeviceId, Arc<GpuDevice>>,
    /// Work pricing only (toggle-independent `time_ns`). Deliberately the
    /// bare topology model, *not* a [`CostModel`]: the estimation terms must
    /// always come from the per-execution model built from the run's
    /// `EngineConfig`, and this type makes calling them on the field
    /// unrepresentable.
    work_cost: WorkCost,
    /// An externally owned slowdown observer shared across executions (the
    /// serving layer's server-lifetime EWMAs: one query's observed straggler
    /// informs the next query's routing). `None` — the default — makes every
    /// execution create its own fresh observer, the single-query behaviour.
    shared_observer: Option<Arc<SlowdownObserver>>,
    /// Simulated time the most recent *failed* execution had reached when its
    /// error surfaced — the progress a degraded restart throws away. The
    /// engine takes (and clears) this when accounting a failed attempt.
    failed_sim_time: Mutex<Option<SimTime>>,
}

impl Executor {
    /// An executor for the given topology, creating one simulated GPU per GPU
    /// device in the topology.
    pub fn new(topology: Arc<ServerTopology>) -> Self {
        let gpus = topology
            .gpus()
            .into_iter()
            .map(|id| {
                let profile = topology.device(id).expect("gpu device exists").clone();
                (id, Arc::new(GpuDevice::new(id, profile)))
            })
            .collect();
        Self {
            topology,
            gpus,
            work_cost: WorkCost::new(),
            shared_observer: None,
            failed_sim_time: Mutex::new(None),
        }
    }

    /// Benchmark-only: [`Self::new`]; `topology` carries its derived link
    /// constants, so `_constants` is unused (ROADMAP item 1(a)).
    pub fn with_constants(
        topology: Arc<ServerTopology>,
        _constants: Arc<CalibratedConstants>,
    ) -> Self {
        Self::new(topology)
    }

    /// Attach a server-lifetime slowdown observer shared across executions:
    /// runs record into (and read from) it instead of a fresh per-run
    /// observer, so observed stragglers carry over between queries.
    pub fn with_shared_observer(mut self, observer: Arc<SlowdownObserver>) -> Self {
        self.shared_observer = Some(observer);
        self
    }

    /// The simulated time the last failed execution had reached when its
    /// error surfaced, clearing the record. `None` when nothing failed since
    /// the last take (or the failure happened before any work was simulated).
    pub fn take_failed_sim_time(&self) -> Option<SimTime> {
        self.failed_sim_time.lock().take()
    }

    /// Execute a stage graph.
    ///
    /// Error contract: every `Err` return leaves [`Self::take_failed_sim_time`]
    /// holding `Some` — the simulated time this execution burned before its
    /// error surfaced ([`SimTime::ZERO`] for failures preceding any simulated
    /// work). The record is cleared at entry, so a take after an error is
    /// unambiguously *this* execution's, never a stale one.
    pub fn execute(
        &self,
        graph: &StageGraph,
        catalog: &Catalog,
        config: &EngineConfig,
    ) -> Result<ExecutionResult> {
        *self.failed_sim_time.lock() = None;
        let wall_start = Instant::now();
        self.topology.reset_clocks();
        // A setup failure precedes any simulated work: the attempt burned
        // exactly zero, recorded explicitly so the engine's attempt
        // accounting never has to guess.
        let run = QueryRun::new(self, graph, catalog, config, wall_start).inspect_err(|_| {
            *self.failed_sim_time.lock() = Some(SimTime::ZERO);
        })?;
        let run = &run;
        let (tasks, initial) = Tasks::new(run);
        // With a fault plan, the watchdog's checks run between steps and an
        // idle thread waits at most one of their periods.
        let idle_wait = run.fault.as_ref().map(|_| fault::WATCHDOG_POLL);
        run.sched.run(initial, idle_wait, &tasks);
        drop(tasks);
        #[cfg(test)]
        tests::record_waits(run);
        if let Some(fault) = &run.fault {
            // A burst never outlives the run.
            fault.watch.lock().bursts.clear();
        }
        self.finish(run)
    }

    /// Fold a finished run into its result, or record how far a failed one
    /// got (the same completion fold the success path reports, so a
    /// degraded restart can report honest all-attempt simulated time).
    fn finish(&self, run: &QueryRun<'_>) -> Result<ExecutionResult> {
        let mut sim_time =
            run.progress.iter().map(|p| *p.completion.lock()).fold(SimTime::ZERO, SimTime::max);
        if run.graph.stages.iter().any(|s| s.has_router) {
            sim_time = sim_time.add_nanos(ROUTER_INIT_OVERHEAD.as_nanos());
        }
        if let Some(err) = run.first_error.lock().take().or_else(|| run.ledger_error()) {
            *self.failed_sim_time.lock() = Some(sim_time);
            return Err(err);
        }
        let (staging_peaks, staging_leaked_bytes) = run.staging.peaks_and_leaks();
        let fault_count = |count: fn(&FaultState) -> &AtomicU64| {
            run.fault.as_ref().map_or(0, |f| count(f).load(Ordering::Relaxed))
        };
        Ok(ExecutionResult {
            rows: std::mem::take(&mut *run.result_rows.lock()),
            sim_time,
            wall_time: run.wall_start.elapsed(),
            per_kind: std::mem::take(&mut *run.per_kind.lock()),
            bytes_transferred: run.mem_move.dma().stats().bytes_moved,
            stage_timeline: run.progress.iter().map(StageProgress::timeline).collect(),
            stage_completion: run.progress.iter().map(|p| *p.completion.lock()).collect(),
            staging_peaks,
            blocks_stolen: run
                .progress
                .iter()
                .map(|p| p.blocks_stolen.load(Ordering::Relaxed))
                .collect(),
            remote_control_acquisitions: run.remote_ctl.load(Ordering::Relaxed),
            observed_slowdowns: run.observer.snapshot(),
            transient_retries: fault_count(|f| &f.retries),
            recovered_blocks: fault_count(|f| &f.recovered),
            staging_leaked_bytes,
            stage_rows: run
                .progress
                .iter()
                .map(|p| (p.rows_in.load(Ordering::Relaxed), p.rows_out.load(Ordering::Relaxed)))
                .collect(),
            host_counts: run.host_counts(),
        })
    }

    /// Charge modeled work to a device clock and its local memory node's
    /// bandwidth clock. The memory-node clock is a *utilization accumulator*:
    /// every block advances it by bytes / node_bandwidth, and a block cannot
    /// complete before the node has had enough cumulative capacity to serve
    /// it. This is what makes a socket's cores stop scaling once they
    /// saturate its DRAM (§6.4: the sum query plateaus at ~16 cores).
    fn charge(
        &self,
        clock: &ResourceClock,
        device_profile: &hetex_topology::DeviceProfile,
        work: &WorkProfile,
        not_before: SimTime,
    ) -> (SimTime, u64) {
        // The straggler multiplier applies at charge time only: routing-time
        // estimates keep pricing the nominal profile, exactly the blind spot
        // adaptive re-routing exists to absorb.
        let busy = (self.work_cost.time_ns(work, device_profile) as f64
            * device_profile.exec_slowdown) as u64;
        let (_, end) = clock.reserve(not_before, busy);
        let mut final_end = end;
        if work.memory_node_bytes() > 0.0 {
            if let (Ok(node), Ok(mem_clock)) = (
                self.topology.memory_node(device_profile.local_memory),
                self.topology.memory_clock(device_profile.local_memory),
            ) {
                let mem_ns = (work.memory_node_bytes() / (node.bandwidth_gbps * 1e9) * 1e9) as u64;
                let (_, mem_end) = mem_clock.reserve(SimTime::ZERO, mem_ns);
                // The device keeps issuing (out-of-order cores / latency-
                // hiding GPUs overlap DRAM stalls), so the node's backlog
                // delays this block's completion without serializing the
                // device clock behind the whole node. Keeping the two clocks
                // decoupled also makes the simulated time insensitive to the
                // wall-clock interleaving of concurrent workers.
                final_end = end.max(mem_end);
            }
        }
        (final_end, busy)
    }
}

/// Everything one execution shares between its tasks: the graph and config
/// it runs, the per-query cost model, routing state, queues, staging arenas,
/// gates, fault state and the scheduler, and the collected outcome. Built
/// once by [`Executor::execute`] and borrowed by every task for the run's
/// lifetime.
struct QueryRun<'a> {
    exec: &'a Executor,
    graph: &'a StageGraph,
    catalog: &'a Catalog,
    config: &'a EngineConfig,
    wall_start: Instant,
    /// `HETEX_TRACE_EXEC` is set: every lane prints a `[trace]` line.
    trace: bool,
    /// The run's unified cost model: every estimation term the router path
    /// and the queue-admission path consult (§5 of DESIGN.md) and the
    /// straggler estimator (§6), `observer`.
    cost: CostModel,
    /// The run's slowdown observer (one EWMA slot per device): lanes record
    /// every completed block's charged-vs-nominal ratio into it; routing
    /// and the straggler's re-route test read it back. A serving layer
    /// substitutes its server-lifetime observer so one query's straggler
    /// observation informs the next.
    observer: Arc<SlowdownObserver>,
    mem_move: MemMove,
    gpu_nodes: Vec<MemoryNodeId>,
    /// One persistent clock per device: a core used by several stages cannot
    /// do their work at the same simulated time.
    device_clocks: HashMap<DeviceId, ResourceClock>,
    routing: Vec<StageRouting<'a>>,
    /// One queue per consumer slot, placed on the consumer's memory node.
    queues: Vec<Vec<BlockQueue>>,
    /// Byte governance (§4.2).
    staging: Staging,
    gates: Vec<Gate>,
    progress: Vec<StageProgress>,
    /// `Some` only when the topology carries a non-empty injected fault
    /// plan; `None` short-circuits every fault checkpoint, so healthy runs
    /// execute the exact pre-fault code path.
    fault: Option<FaultState>,
    per_kind: Mutex<HashMap<DeviceKind, DeviceKindStats>>,
    result_rows: Mutex<Vec<Vec<i64>>>,
    first_error: Mutex<Option<HetError>>,
    /// Cross-node control-plane traffic gauge (remote queue mutex
    /// acquisitions), reported in the execution result.
    remote_ctl: AtomicU64,
    /// The routing counts of the tasks that ended so far.
    route_counts: Mutex<RouteCounts>,
    sched: Arc<Scheduler>,
    /// One waker per task: the lanes of each stage in slot order, stage by
    /// stage, then the source pumps.
    wakers: Vec<Waker>,
    /// Task id of each stage's first lane, plus the end of the lanes.
    lane_base: Vec<usize>,
}

impl<'a> QueryRun<'a> {
    fn new(
        exec: &'a Executor,
        graph: &'a StageGraph,
        catalog: &'a Catalog,
        config: &'a EngineConfig,
        wall_start: Instant,
    ) -> Result<Self> {
        let topology = &exec.topology;
        let observer = exec
            .shared_observer
            .clone()
            .unwrap_or_else(|| Arc::new(SlowdownObserver::new(topology.devices().len())));
        let cost = CostModel::from_config(config).with_observer(Arc::clone(&observer));
        let routing = graph
            .stages
            .iter()
            .map(|s| StageRouting::new(topology, s))
            .collect::<Result<Vec<_>>>()?;
        let staging = Staging::new(topology, config, &routing);
        let queues = movement::placed_queues(config, &routing);
        // Each stage's ledger is its queues' one producer: blocks flow in
        // from its source and from re-routes at any time, and the
        // registrations are released when the ledger reaches zero.
        let progress: Vec<StageProgress> = (graph.stages.iter().zip(&queues))
            .map(|(s, queues)| {
                let progress = StageProgress::new(s.consumers.len());
                *progress.registrations.lock() =
                    queues.iter().map(BlockQueue::register_producer).collect();
                progress
            })
            .collect();
        let lane_base: Vec<usize> = std::iter::once(0)
            .chain(graph.stages.iter().scan(0, |end, s| {
                *end += s.consumers.len();
                Some(*end)
            }))
            .collect();
        let pumps =
            graph.stages.iter().filter(|s| matches!(s.source, StageSource::Table { .. })).count();
        let sched = Scheduler::new(lane_base[graph.stages.len()] + pumps);
        let wakers = (0..lane_base[graph.stages.len()] + pumps).map(|id| sched.waker(id)).collect();
        Ok(Self {
            exec,
            graph,
            catalog,
            config,
            wall_start,
            trace: std::env::var("HETEX_TRACE_EXEC").is_ok(),
            cost,
            observer,
            mem_move: MemMove::new(DmaEngine::new(Arc::clone(topology))),
            gpu_nodes: topology.gpu_memory_nodes(),
            device_clocks: (0..topology.devices().len())
                .map(|idx| (DeviceId::new(idx), ResourceClock::new(format!("dev{idx}"))))
                .collect(),
            routing,
            queues,
            staging,
            gates: (0..graph.stages.len())
                .map(|stage| {
                    let dependencies = graph.stages[stage].depends_on.len();
                    #[cfg(test)]
                    let dependencies = dependencies + tests::unopened_gates(&graph.state, stage);
                    Gate::new(dependencies)
                })
                .collect(),
            progress,
            fault: topology
                .fault_plan()
                .filter(|p| !p.is_empty())
                .map(|p| FaultState::new(Arc::clone(p), topology.devices().len())),
            per_kind: Mutex::new(HashMap::new()),
            result_rows: Mutex::new(Vec::new()),
            first_error: Mutex::new(None),
            remote_ctl: AtomicU64::new(0),
            route_counts: Mutex::new(RouteCounts::default()),
            sched,
            wakers,
            lane_base,
        })
    }

    /// The waker of the task running `slot` of `stage`.
    fn lane_waker(&self, stage: usize, slot: usize) -> &Waker {
        &self.wakers[self.lane_base[stage] + slot]
    }

    /// Keep the first error; later ones are consequences of the cascade.
    /// The first one closes every queue, which ends every lane's stream and
    /// fails every push: a failed run winds down without waiting for any
    /// ledger to settle.
    fn record_error(&self, e: HetError) {
        let first = {
            let mut slot = self.first_error.lock();
            let first = slot.is_none();
            slot.get_or_insert(e);
            first
        };
        if first {
            self.queues.iter().flatten().for_each(BlockQueue::close);
        }
    }

    /// The ledger law of a finished run: every stage's source is done and
    /// its lanes started exactly the blocks routed into it, so its ledger
    /// reads zero.
    fn ledger_error(&self) -> Option<HetError> {
        self.progress.iter().enumerate().find_map(|(stage, p)| {
            let open = p.ledger.load(Ordering::Acquire);
            (open != 0).then(|| {
                HetError::Execution(format!("stage {stage} ended with a ledger of {open}, not 0"))
            })
        })
    }

    /// The host work counts, once every task has ended.
    fn host_counts(&self) -> HostCounts {
        let routing = self.route_counts.lock();
        let (wakes, parks) = self.sched.wakes_and_parks();
        HostCounts { route_evals: routing.evals, routed_blocks: routing.blocks, wakes, parks }
    }

    fn failed(&self) -> bool {
        self.first_error.lock().is_some()
    }

    /// The input segments of a table-scan stage.
    fn table_segments(&self, table: &str, projection: &[String]) -> Result<Vec<BlockHandle>> {
        let weight = self.config.weight_for(table);
        let table = self.catalog.get(table)?;
        let projection: Vec<&str> = projection.iter().map(String::as_str).collect();
        Segmenter::new(table, &projection, self.config.block_capacity)
            .with_weight(weight)
            .segments()
    }

    /// Finish a stage's shared state exactly once, on a CPU context: run the
    /// final gather of a reduce/group-by stage (the paper's final
    /// single-instance gather pipeline), or seal a hash-join build's table
    /// before the gates of its probes open. Returns `(result rows, blocks)`;
    /// only the result stage's rows are built.
    fn emit_stage_results(
        &self,
        stage: usize,
        completion: SimTime,
    ) -> Result<(Vec<Vec<i64>>, Vec<BlockHandle>)> {
        let template = self.graph.stages[stage].template(DeviceKind::CpuCore);
        if matches!(template.terminal(), TerminalStep::Pack { .. }) {
            return Ok((Vec::new(), Vec::new()));
        }
        let node = self.exec.topology.cpu_memory_nodes()[0];
        let mut ctx = ExecCtx::cpu(node, self.config.block_capacity);
        let state: &SharedState = &self.graph.state;
        let emitted = template.emit_state_results(state, &mut ctx)?;
        let mut blocks = emitted.blocks;
        let mut rows = Vec::new();
        if self.graph.stages[stage].is_result {
            rows = rows_of(&blocks);
        }
        if self.graph.wiring.feeds[stage].is_none() {
            blocks.drain(..).for_each(|b| state.arena().recycle(b));
        }
        for b in &mut blocks {
            b.meta_mut().ready_at_ns = completion.as_nanos();
        }
        Ok((rows, blocks))
    }
}

/// The rows of state result `blocks` (`Int64` columns), in order, built
/// column by column with each row allocated once, at its width.
fn rows_of(blocks: &[BlockHandle]) -> Vec<Vec<i64>> {
    let mut rows: Vec<Vec<i64>> = Vec::with_capacity(blocks.iter().map(BlockHandle::rows).sum());
    for block in blocks.iter().map(BlockHandle::block) {
        let start = rows.len();
        rows.resize_with(start + block.rows(), || Vec::with_capacity(block.width()));
        for column in block.columns() {
            let ColumnRef::Int64(values) = column else { unreachable!("state results are i64") };
            rows[start..].iter_mut().zip(values).for_each(|(row, &v)| row.push(v));
        }
    }
    rows
}

/// The tasks of one execution, indexed like `QueryRun::wakers`; a finished
/// task is dropped.
struct Tasks<'r> {
    run: &'r QueryRun<'r>,
    tasks: Vec<Mutex<Option<Task<'r>>>>,
}

impl<'r> Tasks<'r> {
    /// Every task, and the ones to queue first: the pumps, then every lane
    /// whose gate is already open (a gated lane is first queued by the
    /// gate's opening).
    fn new(run: &'r QueryRun<'r>) -> (Self, Vec<usize>) {
        let stages = &run.graph.stages;
        let lanes = stages.iter().enumerate().flat_map(|(stage, s)| {
            (0..s.consumers.len()).map(move |slot| Task::worker(run, stage, slot))
        });
        let pumps = stages.iter().enumerate().filter_map(|(stage, s)| match &s.source {
            StageSource::Table { table, projection } => {
                Some(Task::pump(run, stage, table, projection))
            }
            _ => None,
        });
        let tasks: Vec<_> = lanes.chain(pumps).map(|task| Mutex::new(Some(task))).collect();
        let open = (0..stages.len()).flat_map(|stage| {
            let lanes = run.lane_base[stage]..run.lane_base[stage + 1];
            lanes.filter(move |&id| run.gates[stage].poll(&run.wakers[id]).is_some())
        });
        let initial = (run.lane_base[stages.len()]..tasks.len()).chain(open).collect();
        (Self { run, tasks }, initial)
    }

    /// The watchdog's checks (see `QueryRun::watch`): `None` when not due.
    fn watch(&self) -> Option<bool> {
        catch_unwind(AssertUnwindSafe(|| self.run.watch())).unwrap_or_else(|_| {
            self.run.record_error(HetError::Execution("fault watchdog panicked".into()));
            Some(false)
        })
    }
}

impl TaskSet for Tasks<'_> {
    fn step(&self, id: usize) -> Step {
        let mut slot = self.tasks[id].lock();
        let Some(task) = slot.as_mut() else { return Step::Done };
        let step = task.step(&self.run.wakers[id]);
        if let Step::Done = step {
            *slot = None;
        }
        drop(slot);
        self.watch();
        step
    }

    fn idle(&self) -> bool {
        self.run.fault.is_none() || self.watch() == Some(false)
    }

    fn stalled(&self) {
        let waits: Vec<String> =
            self.tasks.iter().filter_map(|t| t.lock().as_ref().map(Task::describe)).collect();
        self.run.record_error(HetError::Execution(format!(
            "execution stalled, every task waiting: {}; staging held by {}",
            waits.join(", "),
            self.run.staging.arenas.holders()
        )));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::compile;
    use hetex_common::{ColumnData, DataType};
    use hetex_core::{parallelize, RelNode};
    use hetex_jit::{AggSpec, CompiledPipeline, Expr, Step};
    use hetex_storage::TableBuilder;
    use hetex_topology::FaultPlan;
    use std::sync::Mutex as StdMutex;

    fn catalog_with_data(topology: &ServerTopology, rows: usize) -> Catalog {
        catalog_with_key_stride(topology, rows, 1)
    }

    /// `fact` joins `dim` on keys `0, stride, 2 × stride, …` (100 of them).
    fn catalog_with_key_stride(topology: &ServerTopology, rows: usize, stride: i32) -> Catalog {
        let catalog = Catalog::new();
        let nodes = topology.cpu_memory_nodes();
        let fact = TableBuilder::new("fact")
            .column(
                "key",
                DataType::Int32,
                ColumnData::Int32((0..rows as i32).map(|i| i % 100 * stride).collect()),
            )
            .column("value", DataType::Int64, ColumnData::Int64((0..rows as i64).collect()))
            .build(&nodes, 4096)
            .unwrap();
        let dim = TableBuilder::new("dim")
            .column("k", DataType::Int32, ColumnData::Int32((0..100).map(|k| k * stride).collect()))
            .column("attr", DataType::Int32, ColumnData::Int32((0..100).map(|i| i % 7).collect()))
            .build(&nodes, 4096)
            .unwrap();
        catalog.register(fact);
        catalog.register(dim);
        catalog
    }

    fn join_sum_plan() -> RelNode {
        // SELECT SUM(value) FROM fact JOIN dim ON key = k WHERE attr < 3
        let dim = RelNode::scan("dim", &["k", "attr"]).filter(Expr::col(1).lt_lit(3));
        RelNode::scan("fact", &["key", "value"])
            .hash_join(dim, 0, 0, &[1])
            .reduce(vec![AggSpec::sum(Expr::col(1)), AggSpec::count()], &["sum_v", "cnt"])
    }

    fn expected(rows: usize) -> (i64, i64) {
        let mut sum = 0i64;
        let mut cnt = 0i64;
        for i in 0..rows as i64 {
            let key = i % 100;
            if key % 7 < 3 {
                sum += i;
                cnt += 1;
            }
        }
        (sum, cnt)
    }

    fn run(config: &EngineConfig, rows: usize) -> ExecutionResult {
        run_on(&ServerTopology::paper_server(), config, rows)
    }

    /// One fresh compile and execution of the join+sum plan over `rows`
    /// fact rows on `topology`: the compiled graph owns the query's shared
    /// state (hash tables, accumulators), which a run populates.
    fn run_on(
        topology: &Arc<ServerTopology>,
        config: &EngineConfig,
        rows: usize,
    ) -> ExecutionResult {
        let catalog = catalog_with_data(topology, rows);
        let het = parallelize(&join_sum_plan(), config).unwrap();
        let graph = compile(&het, config, topology).unwrap();
        Executor::new(Arc::clone(topology)).execute(&graph, &catalog, config).unwrap()
    }

    /// Scanning a table of this name panics inside its source pump.
    pub(super) const PANICKING_TABLE: &str = "panicking_source";

    /// `(state address, slot, sealed direct)` of every table a pipeline
    /// instance probes, as it stood when the instance's gate opened.
    static PROBED_AT_GATE: StdMutex<Vec<(usize, usize, bool)>> = StdMutex::new(Vec::new());

    pub(super) fn record_probed_tables(state: &SharedState, pipeline: &CompiledPipeline) {
        for step in pipeline.steps() {
            if let Step::HashJoinProbe { slot, .. } = step {
                let direct = state.hash_table(*slot).unwrap().is_direct();
                let at = state as *const SharedState as usize;
                PROBED_AT_GATE.lock().unwrap().push((at, slot.index(), direct));
            }
        }
    }

    /// `(state address, (waits, re-queues))` of every finished execution.
    static WAITS: StdMutex<Vec<(usize, (usize, usize))>> = StdMutex::new(Vec::new());

    pub(super) fn record_waits(run: &QueryRun<'_>) {
        let at = &run.graph.state as *const SharedState as usize;
        WAITS.lock().unwrap().push((at, run.sched.wait_counts()));
    }

    /// `(state address, stage)`: give the stage of the graph owning that
    /// state one more gate dependency, which nothing opens.
    static UNOPENED: StdMutex<Vec<(usize, usize)>> = StdMutex::new(Vec::new());

    pub(super) fn unopened_gates(state: &SharedState, stage: usize) -> usize {
        let at = state as *const SharedState as usize;
        UNOPENED.lock().unwrap().iter().filter(|&&seen| seen == (at, stage)).count()
    }

    #[test]
    fn a_healthy_join_wakes_only_lanes_that_wait() {
        // Re-routing is always on and nothing straggles, so no lane
        // re-routes a block, no lane wakes a sibling (nothing does any
        // more), and every re-queue ends exactly one wait: no task is
        // queued twice.
        let config = EngineConfig::hybrid(24, 2);
        let topology = ServerTopology::paper_server();
        let catalog = catalog_with_data(&topology, 400_000);
        let het = parallelize(&join_sum_plan(), &config).unwrap();
        let graph = compile(&het, &config, &topology).unwrap();
        let at = &graph.state as *const SharedState as usize;
        let result = Executor::new(topology).execute(&graph, &catalog, &config).unwrap();
        let (sum, cnt) = expected(400_000);
        assert_eq!(result.rows, vec![vec![sum, cnt]]);
        assert!(result.blocks_stolen.iter().all(|&n| n == 0), "{:?}", result.blocks_stolen);
        let (waits, requeues) =
            WAITS.lock().unwrap().iter().rev().find(|seen| seen.0 == at).unwrap().1;
        assert!(waits > 0, "a pipelined join waits somewhere");
        assert_eq!(requeues, waits, "every wait is ended by exactly one re-queue");
    }

    #[test]
    fn a_stage_that_started_fewer_blocks_than_were_routed_into_it_fails() {
        // The ledger law: every block routed into a stage is started by one
        // of its lanes. A block entered in the ledger and never started
        // fails the run in release builds too.
        let config = EngineConfig::hybrid(4, 2);
        let topology = ServerTopology::paper_server();
        let catalog = catalog_with_data(&topology, 1_000);
        let graph =
            compile(&parallelize(&join_sum_plan(), &config).unwrap(), &config, &topology).unwrap();
        let exec = Executor::new(topology);
        let run = QueryRun::new(&exec, &graph, &catalog, &config, Instant::now()).unwrap();
        // Every stage's source is done…
        (0..graph.stages.len()).for_each(|stage| run.ledger_leave(stage));
        assert!(run.ledger_error().is_none());
        // …and one block routed into stage 1 was never started.
        run.ledger_enter(1);
        match run.ledger_error() {
            Some(HetError::Execution(msg)) => {
                assert_eq!(msg, "stage 1 ended with a ledger of 1, not 0")
            }
            other => panic!("expected the ledger's execution error, got {other:?}"),
        }
    }

    #[test]
    fn a_dense_build_is_sealed_direct_before_its_probe_gate_opens() {
        let plan = join_sum_plan();
        // 100 keys in a span of 100 are indexed directly; at a stride of
        // 1,000 their span is past both the floor and four times the slots.
        for (stride, direct) in [(1, true), (1_000, false)] {
            for config in
                [EngineConfig::cpu_only(4), EngineConfig::gpu_only(2), EngineConfig::hybrid(4, 2)]
            {
                let topology = ServerTopology::paper_server();
                let catalog = catalog_with_key_stride(&topology, 20_000, stride);
                let het = parallelize(&plan, &config).unwrap();
                let graph = compile(&het, &config, &topology).unwrap();
                let at = &graph.state as *const SharedState as usize;
                PROBED_AT_GATE.lock().unwrap().retain(|seen| seen.0 != at);
                let result = Executor::new(topology).execute(&graph, &catalog, &config).unwrap();
                assert_eq!(result.rows, crate::reference_execute(&plan, &catalog).unwrap());
                let seen: Vec<bool> = PROBED_AT_GATE
                    .lock()
                    .unwrap()
                    .iter()
                    .filter(|seen| seen.0 == at)
                    .map(|seen| seen.2)
                    .collect();
                assert!(!seen.is_empty(), "no probe instance ran");
                assert!(
                    seen.iter().all(|&d| d == direct),
                    "stride {stride}: probe gates opened on {seen:?}, expected direct = {direct}"
                );
            }
        }
    }

    #[test]
    fn a_panicking_source_pump_is_a_structured_error_not_a_panic() {
        let topology = ServerTopology::paper_server();
        let catalog = catalog_with_data(&topology, 10_000);
        let table = TableBuilder::new(PANICKING_TABLE)
            .column("v", DataType::Int64, ColumnData::Int64((0..100).collect()))
            .build(&topology.cpu_memory_nodes(), 4096)
            .unwrap();
        catalog.register(table);
        let plan = RelNode::scan(PANICKING_TABLE, &["v"])
            .reduce(vec![AggSpec::sum(Expr::col(0))], &["sum_v"]);
        let config = EngineConfig::hybrid(4, 2);
        let graph = compile(&parallelize(&plan, &config).unwrap(), &config, &topology).unwrap();
        let executor = Executor::new(Arc::clone(&topology));
        match executor.execute(&graph, &catalog, &config) {
            Err(HetError::Execution(msg)) => {
                assert_eq!(msg, "stage 0 source pump panicked", "unexpected message: {msg}")
            }
            other => panic!("expected a structured execution error, got {other:?}"),
        }
        // The executor is unharmed: the next query on it runs.
        let het = parallelize(&join_sum_plan(), &config).unwrap();
        let graph = compile(&het, &config, &topology).unwrap();
        let (sum, cnt) = expected(10_000);
        assert_eq!(executor.execute(&graph, &catalog, &config).unwrap().rows, vec![vec![sum, cnt]]);
    }

    #[test]
    fn a_gate_nothing_opens_is_a_stall_error_not_a_hang() {
        // The probe stage of a hybrid join gets a gate dependency nothing
        // opens: its producers fill its queues, every task ends up waiting
        // and the run reports who waits on what instead of hanging.
        let config = EngineConfig::hybrid(4, 2);
        let topology = ServerTopology::paper_server();
        let catalog = catalog_with_data(&topology, 50_000);
        let graph =
            compile(&parallelize(&join_sum_plan(), &config).unwrap(), &config, &topology).unwrap();
        let probe = graph.stages.iter().position(|s| !s.depends_on.is_empty()).unwrap();
        let at = &graph.state as *const SharedState as usize;
        UNOPENED.lock().unwrap().push((at, probe));
        let start = Instant::now();
        let outcome = Executor::new(topology).execute(&graph, &catalog, &config);
        let elapsed = start.elapsed();
        UNOPENED.lock().unwrap().retain(|seen| seen.0 != at);
        match outcome {
            Err(HetError::Execution(msg)) => {
                assert!(msg.starts_with("execution stalled"), "{msg}");
                assert!(msg.contains(&format!("stage {probe} slot 0 waits on its gate")), "{msg}");
            }
            other => panic!("expected a stall error, got {other:?}"),
        }
        assert!(
            elapsed < std::time::Duration::from_secs(1),
            "the stall took {elapsed:?} to report"
        );
    }

    #[test]
    fn cpu_only_execution_is_correct() {
        let result = run(&EngineConfig::cpu_only(4), 50_000);
        let (sum, cnt) = expected(50_000);
        assert_eq!(result.rows, vec![vec![sum, cnt]]);
        assert!(result.sim_time > SimTime::ZERO);
        assert!(result.per_kind.contains_key(&DeviceKind::CpuCore));
        assert!(!result.per_kind.contains_key(&DeviceKind::Gpu));
    }

    #[test]
    fn gpu_only_execution_matches_cpu_results() {
        let gpu = run(&EngineConfig::gpu_only(2), 50_000);
        let cpu = run(&EngineConfig::cpu_only(4), 50_000);
        assert_eq!(gpu.rows, cpu.rows);
        assert!(gpu.per_kind.contains_key(&DeviceKind::Gpu));
        // Data started CPU-resident, so bytes had to cross PCIe.
        assert!(gpu.bytes_transferred > 0.0);
    }

    #[test]
    fn hybrid_execution_uses_both_device_kinds() {
        let result = run(&EngineConfig::hybrid(8, 2), 200_000);
        let (sum, cnt) = expected(200_000);
        assert_eq!(result.rows, vec![vec![sum, cnt]]);
        let cpu_blocks = result.per_kind.get(&DeviceKind::CpuCore).map_or(0, |s| s.blocks);
        let gpu_blocks = result.per_kind.get(&DeviceKind::Gpu).map_or(0, |s| s.blocks);
        assert!(cpu_blocks > 0, "CPU should receive some blocks");
        assert!(gpu_blocks > 0, "GPUs should receive some blocks");
    }

    #[test]
    fn more_cpu_cores_reduce_simulated_time() {
        let one = run(&EngineConfig::cpu_only(1), 200_000);
        let eight = run(&EngineConfig::cpu_only(8), 200_000);
        assert!(
            eight.sim_time < one.sim_time,
            "8 cores ({}) should beat 1 core ({})",
            eight.sim_time,
            one.sim_time
        );
    }

    #[test]
    fn router_overhead_is_charged_once() {
        let mut without = EngineConfig::cpu_only(1);
        without.hetexchange_enabled = false;
        let seq = run(&without, 20_000);
        let with = run(&EngineConfig::cpu_only(1), 20_000);
        let diff = with.sim_time.as_nanos() as i64 - seq.sim_time.as_nanos() as i64;
        assert!(
            diff >= ROUTER_INIT_OVERHEAD.as_nanos() as i64 / 2,
            "router overhead missing: {diff}"
        );
        assert_eq!(seq.rows, with.rows);
    }

    #[test]
    fn governed_pipelined_respects_the_staging_budget() {
        // Hybrid so blocks cross to GPU memory nodes (lease transfer across a
        // device crossing) with a deliberately modest budget.
        let mut config = EngineConfig::hybrid(4, 2);
        config.block_capacity = 1024;
        let budget = config.min_staging_bytes() * 4;
        config.staging_bytes = budget;
        let governed = run(&config, 100_000);
        let (sum, cnt) = expected(100_000);
        assert_eq!(governed.rows, vec![vec![sum, cnt]]);
        assert!(!governed.staging_peaks.is_empty(), "every run reports per-node peaks");
        for (node, peak) in &governed.staging_peaks {
            assert!(peak <= &budget, "node {node} peaked at {peak} > budget {budget}");
        }
        assert!(
            governed.staging_peaks.iter().any(|(_, peak)| *peak > 0),
            "pipelined blocks must be backed by leases: no node ever staged bytes"
        );
    }

    #[test]
    fn a_block_wider_than_the_arena_still_flows() {
        // The budget floor is validated against an *estimated* tuple width;
        // real blocks can be wider. A budget smaller than a single block must
        // serialize the pipeline (each block charged the full arena), not
        // kill it with a can-never-fit error.
        let topology = ServerTopology::paper_server();
        let catalog = catalog_with_data(&topology, 50_000);
        let plan = RelNode::scan("fact", &["key", "value"])
            .reduce(vec![AggSpec::sum(Expr::col(1)), AggSpec::count()], &["sum_v", "cnt"]);
        let mut config = EngineConfig::cpu_only(2);
        config.block_capacity = 1024;
        let het = parallelize(&plan, &config).unwrap();
        let graph = compile(&het, &config, &topology).unwrap();
        // Shrink the budget below one block's ~12 KiB only for execution:
        // validation (rightly) rejects it, but the executor must still
        // degrade to serialized flow rather than a can-never-fit error.
        config.staging_bytes = 1024;
        let executor = Executor::new(topology);
        let result = executor.execute(&graph, &catalog, &config).unwrap();
        let sum: i64 = (0..50_000i64).sum();
        assert_eq!(result.rows, vec![vec![sum, 50_000]]);
        for (node, peak) in &result.staging_peaks {
            assert!(*peak <= 1024, "node {node} peaked at {peak} > clamped budget 1024");
        }
    }

    /// The paper server with its second GPU a hidden 8x straggler: work
    /// charged to it takes that much longer while routing estimates keep
    /// pricing its nominal profile.
    fn skewed_server() -> (Arc<ServerTopology>, DeviceId) {
        let topology = ServerTopology::paper_server();
        let slow_gpu = topology.gpus()[1];
        (topology.with_device_slowdown(slow_gpu, 8.0).unwrap(), slow_gpu)
    }

    #[test]
    fn rerouting_rescues_a_straggler_and_preserves_rows() {
        // The straggler re-routes the tail of its backlog ("steals" from
        // itself) in every run, and the rows are exact. The dimension's
        // weight is there to create that backlog: its build gates the probe
        // long enough that the router queues probe blocks behind the
        // straggler before its first observation lands. The straggler must
        // stay a net gain: the median of three runs beats the same server
        // without it.
        let (skewed, _) = skewed_server();
        let mut config = EngineConfig::hybrid(8, 2).with_table_weight("dim", 300_000.0);
        config.scale_weight = 20_000.0;
        config.block_capacity = 2048;
        let (sum, cnt) = expected(200_000);
        let mut times = Vec::new();
        for _ in 0..3 {
            let result = run_on(&skewed, &config, 200_000);
            assert_eq!(result.rows, vec![vec![sum, cnt]]);
            let rerouted = result.blocks_stolen.iter().sum::<u64>();
            assert!(rerouted > 0, "the straggler re-routed nothing");
            assert_eq!(result.staging_leaked_bytes, 0);
            times.push(result.sim_time);
        }
        times.sort();
        let one_gpu = run_on(&skewed, &EngineConfig { gpu_dop: 1, ..config }, 200_000);
        assert!(
            times[1] < one_gpu.sim_time,
            "the straggler (median {}) lost to leaving it out ({})",
            times[1],
            one_gpu.sim_time
        );
    }

    #[test]
    fn feedback_routing_diverts_new_blocks_from_a_hidden_straggler() {
        // The straggler's EWMA grows past the detector threshold, every
        // healthy device reads exactly nominal, and the GPUs take fewer
        // blocks than on the healthy server: the straggler's share went
        // elsewhere. Rows are exact.
        let (skewed, slow_gpu) = skewed_server();
        let mut config = EngineConfig::hybrid(8, 2);
        config.scale_weight = 20_000.0;
        let result = run_on(&skewed, &config, 200_000);
        let healthy = run_on(&ServerTopology::paper_server(), &config, 200_000);
        let (sum, cnt) = expected(200_000);
        assert_eq!(result.rows, vec![vec![sum, cnt]]);
        assert_eq!(healthy.rows, result.rows);
        let observed = result.observed_slowdowns[slow_gpu.index()];
        assert!(observed > 1.5, "straggler EWMA {observed} never rose");
        for (idx, &ewma) in result.observed_slowdowns.iter().enumerate() {
            if DeviceId::new(idx) != slow_gpu {
                assert_eq!(ewma, 1.0, "device {idx} falsely observed as slow");
            }
        }
        let gpu_blocks = |r: &ExecutionResult| r.per_kind[&DeviceKind::Gpu].blocks;
        assert!(
            gpu_blocks(&result) < gpu_blocks(&healthy),
            "the GPUs took {} blocks with a straggler, {} without",
            gpu_blocks(&result),
            gpu_blocks(&healthy)
        );
    }

    #[test]
    fn straggler_estimator_preserves_rows_and_control_plane_traffic_is_measured() {
        // The straggler estimator only moves blocks between equivalent
        // consumers: with it engaged (a hidden straggler) or idle (a healthy
        // server), the rows are the same.
        let config = EngineConfig::hybrid(4, 2);
        let healthy = run(&config, 100_000);
        // A hybrid run pushes blocks across nodes (CPU DRAM to GPU consumers
        // at least), so control-plane traffic must be measured.
        assert!(
            healthy.remote_control_acquisitions > 0,
            "hybrid run saw no remote queue acquisitions"
        );
        let skewed = run_on(&skewed_server().0, &config, 100_000);
        assert_eq!(healthy.rows, skewed.rows);
        assert!(skewed.remote_control_acquisitions > 0);
        let (sum, cnt) = expected(100_000);
        assert_eq!(healthy.rows, vec![vec![sum, cnt]]);
        // Every run surfaces the per-device EWMAs, exactly nominal when
        // healthy.
        assert!(!healthy.observed_slowdowns.is_empty());
        assert!(healthy.observed_slowdowns.iter().all(|&s| s == 1.0));
        assert!(skewed.observed_slowdowns.iter().any(|&s| s > 1.0));
    }

    #[test]
    fn pipelined_mode_overlaps_producer_and_consumer_stages() {
        // Stage 1 (hash build) consumes the blocks stage 0 (dimension scan +
        // pack) produces. The build processes its first block while the
        // scan stage is still running (observed on the wall clock, so the
        // check retries a few times — the overlap is a capability, not a
        // guarantee of any single thread interleaving).
        let topology = ServerTopology::paper_server();
        let fact_rows = 200_000usize;
        let dim_rows = 400_000usize;
        let catalog = {
            let catalog = Catalog::new();
            let nodes = topology.cpu_memory_nodes();
            let fact = TableBuilder::new("fact")
                .column(
                    "key",
                    DataType::Int32,
                    ColumnData::Int32((0..fact_rows as i32).map(|i| i % dim_rows as i32).collect()),
                )
                .column(
                    "value",
                    DataType::Int64,
                    ColumnData::Int64((0..fact_rows as i64).collect()),
                )
                .build(&nodes, 256)
                .unwrap();
            let dim = TableBuilder::new("dim")
                .column("k", DataType::Int32, ColumnData::Int32((0..dim_rows as i32).collect()))
                .column(
                    "attr",
                    DataType::Int32,
                    ColumnData::Int32((0..dim_rows as i32).map(|i| i % 7).collect()),
                )
                .build(&nodes, 256)
                .unwrap();
            catalog.register(fact);
            catalog.register(dim);
            catalog
        };
        let mut config = EngineConfig::cpu_only(4);
        config.block_capacity = 256;
        let het = parallelize(&join_sum_plan(), &config).unwrap();
        let graph = compile(&het, &config, &topology).unwrap();
        let executor = Executor::new(Arc::clone(&topology));

        let mut pipelined = executor.execute(&graph, &catalog, &config).unwrap();
        let mut overlapped = false;
        for _ in 0..5 {
            let build_first = pipelined.stage_timeline[1]
                .first_block_wall_ns
                .expect("build stage processed blocks");
            let scan_finished = pipelined.stage_timeline[0].finished_wall_ns;
            if build_first < scan_finished {
                overlapped = true;
                break;
            }
            pipelined = executor.execute(&graph, &catalog, &config).unwrap();
        }
        assert!(
            overlapped,
            "the build stage never processed a block before the scan stage finished"
        );
        let oracle = crate::reference_execute(&join_sum_plan(), &catalog).unwrap();
        assert_eq!(pipelined.rows, oracle);
    }

    /// `SELECT SUM(value), COUNT(*) FROM fact` — one anonymous routed stage,
    /// so every consumer is interchangeable and a quarantined worker's
    /// backlog can always be re-routed to a sibling.
    fn scan_sum_plan() -> RelNode {
        RelNode::scan("fact", &["key", "value"])
            .reduce(vec![AggSpec::sum(Expr::col(1)), AggSpec::count()], &["sum_v", "cnt"])
    }

    fn run_faulted(
        topology: &Arc<ServerTopology>,
        plan: &FaultPlan,
        config: &EngineConfig,
        rel: &RelNode,
        rows: usize,
    ) -> Result<ExecutionResult> {
        let faulted = topology.with_fault_plan(plan.clone()).unwrap();
        let catalog = catalog_with_data(&faulted, rows);
        let het = parallelize(rel, config).unwrap();
        let graph = compile(&het, config, &faulted).unwrap();
        Executor::new(faulted).execute(&graph, &catalog, config)
    }

    #[test]
    fn an_aborted_worker_is_quarantined_and_its_backlog_drained_on_a_sibling() {
        let topology = ServerTopology::paper_server();
        let dead = topology.gpus()[1];
        // Abort after the first block: the worker's clock crosses 1ns as soon
        // as it has processed anything, so the next block it claims — and the
        // rest of its stream — is re-routed to the surviving GPU.
        let plan = FaultPlan::new().abort_device(dead, SimTime::from_nanos(1));
        let config = EngineConfig::gpu_only(2);
        let faulted = run_faulted(&topology, &plan, &config, &scan_sum_plan(), 50_000).unwrap();
        let healthy =
            run_faulted(&topology, &FaultPlan::new(), &config, &scan_sum_plan(), 50_000).unwrap();
        let sum: i64 = (0..50_000i64).sum();
        assert_eq!(faulted.rows, vec![vec![sum, 50_000]]);
        assert_eq!(faulted.rows, healthy.rows, "recovery must be byte-identical");
        assert!(
            faulted.recovered_blocks > 0,
            "the dead core's backlog should have been re-executed on the survivor"
        );
        assert_eq!(faulted.staging_leaked_bytes, 0, "recovery must not leak leases");
        assert_eq!(healthy.recovered_blocks, 0);
        assert_eq!(healthy.transient_retries, 0);
    }

    #[test]
    fn a_lost_gpus_rerouted_rows_count_once() {
        // The same one-GPU abort: the blocks re-routed to the survivor, and
        // the lost lane's packed rows it flushes, count toward the stage's
        // observed rows exactly as they would in a healthy run.
        let topology = ServerTopology::paper_server();
        let plan = FaultPlan::new().abort_device(topology.gpus()[1], SimTime::from_nanos(1));
        let config = EngineConfig::gpu_only(2);
        let faulted = run_faulted(&topology, &plan, &config, &scan_sum_plan(), 50_000).unwrap();
        let healthy =
            run_faulted(&topology, &FaultPlan::new(), &config, &scan_sum_plan(), 50_000).unwrap();
        assert!(faulted.recovered_blocks > 0, "nothing was re-routed");
        assert_eq!(healthy.stage_rows, vec![(50_000, 0)]);
        assert_eq!(faulted.stage_rows, healthy.stage_rows);
    }

    #[test]
    fn a_lost_gpu_mid_group_by_merges_its_partials_once() {
        // The lost lane folds its first block into its group partials before
        // the abort; its finalize merges them into the shared table once,
        // beside the survivor's, so every group counts each row once.
        let topology = ServerTopology::paper_server();
        let plan = FaultPlan::new().abort_device(topology.gpus()[1], SimTime::from_nanos(1));
        let config = EngineConfig::gpu_only(2);
        let aggs = vec![AggSpec::sum(Expr::col(1)), AggSpec::count()];
        let rel = RelNode::scan("fact", &["key", "value"]).group_by(&[0], aggs, &["s", "n"]);
        let faulted = run_faulted(&topology, &plan, &config, &rel, 50_000).unwrap();
        let healthy = run_faulted(&topology, &FaultPlan::new(), &config, &rel, 50_000).unwrap();
        assert!(faulted.recovered_blocks > 0, "nothing was re-routed");
        assert_eq!(faulted.staging_leaked_bytes, 0);
        let group = |k: i64| (0..50_000).filter(|i| i % 100 == k).collect::<Vec<i64>>();
        let expected: Vec<Vec<i64>> =
            (0..100).map(|k| vec![k, group(k).iter().sum(), group(k).len() as i64]).collect();
        assert_eq!(healthy.rows, expected);
        assert_eq!(faulted.rows, healthy.rows, "recovery must be byte-identical");
    }

    #[test]
    fn transient_kernel_failures_retry_in_place_and_preserve_rows() {
        let topology = ServerTopology::paper_server();
        let flaky = topology.cpu_cores()[0];
        // Every kernel invocation on the flaky core fails with p=0.5 for the
        // whole run; the retry budget absorbs almost all of them, and the
        // rare streak that exhausts it escalates to a quarantine and the
        // core's stream is re-routed — rows are exact either way.
        let window = |p: f64| {
            let run_long = SimTime::from_millis(60_000);
            FaultPlan::new().transient_window(flaky, SimTime::ZERO, run_long, p, 42)
        };
        let config = EngineConfig::cpu_only(2);
        let faulted =
            run_faulted(&topology, &window(0.5), &config, &scan_sum_plan(), 200_000).unwrap();
        let sum: i64 = (0..200_000i64).sum();
        assert_eq!(faulted.rows, vec![vec![sum, 200_000]]);
        assert!(faulted.transient_retries > 0, "p=0.5 over ~50 blocks must hit at least once");
        assert_eq!(faulted.staging_leaked_bytes, 0);

        // At p=1.0 every invocation fails: the first block exhausts the
        // retry budget, the core is quarantined, and re-routing still saves
        // the rows.
        let escalated =
            run_faulted(&topology, &window(1.0), &config, &scan_sum_plan(), 200_000).unwrap();
        assert_eq!(escalated.rows, faulted.rows);
        assert_eq!(escalated.transient_retries, u64::from(fault::TRANSIENT_RETRY_BUDGET));
        assert!(escalated.recovered_blocks > 0, "the quarantined core's stream was not re-routed");
        assert_eq!(escalated.staging_leaked_bytes, 0);
    }

    #[test]
    fn a_wedged_worker_is_detected_by_the_watchdog_and_drained() {
        let topology = ServerTopology::paper_server();
        let stuck = topology.gpus()[1];
        let plan = FaultPlan::new().wedge_worker(stuck, SimTime::from_nanos(1));
        let config = EngineConfig::gpu_only(2);
        let recovered = run_faulted(&topology, &plan, &config, &scan_sum_plan(), 50_000).unwrap();
        let sum: i64 = (0..50_000i64).sum();
        assert_eq!(recovered.rows, vec![vec![sum, 50_000]]);
        assert!(recovered.recovered_blocks > 0, "the wedged GPU's backlog was not re-routed");
        assert_eq!(recovered.staging_leaked_bytes, 0);
    }

    #[test]
    fn device_loss_with_no_surviving_sibling_is_a_structured_error() {
        // Both GPUs of a GPU-only stage are dead: the quarantine has no
        // sibling to re-route to, so the executor fails with `DeviceLost`
        // (the engine's degraded restart takes it from there).
        let topology = ServerTopology::paper_server();
        let gpus = topology.gpus();
        let plan = FaultPlan::new()
            .abort_device(gpus[0], SimTime::ZERO)
            .abort_device(gpus[1], SimTime::ZERO);
        let config = EngineConfig::gpu_only(2);
        let err = run_faulted(&topology, &plan, &config, &scan_sum_plan(), 50_000).unwrap_err();
        match err {
            HetError::DeviceLost { device, .. } => {
                assert!(gpus.contains(&DeviceId::new(device)), "lost {device}")
            }
            other => panic!("expected DeviceLost, got: {other}"),
        }
    }

    #[test]
    fn gpu_loss_mid_join_recovers_on_the_surviving_devices() {
        let topology = ServerTopology::paper_server();
        let dead = topology.gpus()[1];
        let plan = FaultPlan::new().abort_device(dead, SimTime::from_nanos(1));
        let mut config = EngineConfig::hybrid(8, 2);
        config.scale_weight = 20_000.0;
        let faulted = run_faulted(&topology, &plan, &config, &join_sum_plan(), 200_000).unwrap();
        let (sum, cnt) = expected(200_000);
        assert_eq!(faulted.rows, vec![vec![sum, cnt]]);
        assert_eq!(faulted.staging_leaked_bytes, 0);
    }

    #[test]
    fn an_arena_burst_squeezes_staging_without_corrupting_rows() {
        let topology = ServerTopology::paper_server();
        let node = topology.cpu_memory_nodes()[0];
        let mut config = EngineConfig::hybrid(4, 2);
        config.block_capacity = 1024;
        let budget = config.min_staging_bytes() * 4;
        config.staging_bytes = budget;
        // The burst grabs up to half the arena for the first simulated 50ms;
        // producers wait, the clocks advance past the window, the watchdog
        // releases the hostage lease and the pipeline drains normally.
        let plan =
            FaultPlan::new().arena_burst(node, budget / 2, SimTime::ZERO, SimTime::from_millis(50));
        let squeezed = run_faulted(&topology, &plan, &config, &join_sum_plan(), 100_000).unwrap();
        let (sum, cnt) = expected(100_000);
        assert_eq!(squeezed.rows, vec![vec![sum, cnt]]);
        assert_eq!(squeezed.staging_leaked_bytes, 0, "the burst lease must be released");
        for (n, peak) in &squeezed.staging_peaks {
            assert!(peak <= &budget, "node {n} peaked at {peak} > budget {budget}");
        }
    }
}
