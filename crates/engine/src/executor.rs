//! The stage executor.
//!
//! Executes a [`StageGraph`] on the (simulated) server. Functional execution
//! is real — every pipeline instance is a job on the engine-lifetime
//! [`pool`], processing real blocks on its own host thread, so results are
//! exact and device-shared state is genuinely updated concurrently — while
//! *performance* is accounted on the simulated resource clocks: each device
//! (CPU core or GPU) owns a clock, each DRAM node and each PCIe link owns a
//! clock, and the reported query time is the largest completion timestamp
//! observed (see `DESIGN.md` §4).
//!
//! Scheduling is pipelined: all stages' pipeline-instance workers are
//! spawned up front (as pool jobs) and connected through bounded
//! [`BlockQueue`]s, one per consumer slot. Producers route, localize
//! (mem-move) and push each block handle the moment it is produced, so
//! transfers, CPU work and GPU work genuinely overlap; dependency edges
//! (hash build before probe) are gates a consumer waits on, not
//! materialization barriers. This is the paper's §3.1 architecture: routers
//! connecting pipeline instances through asynchronous queues of block
//! handles. The independent row oracle the tests compare
//! against is [`crate::reference_execute`].

use crate::codegen::{MemMoveMode, Stage, StageGraph, StageSource};
use crate::pool;
use hetex_common::{BlockHandle, EngineConfig, HetError, MemoryNodeId, Result};
use hetex_core::cost::{CostModel, DemandSplitter, SlowdownObserver, StealQuery};
use hetex_core::mem_move::MemMove;
use hetex_core::plan::RouterPolicy;
use hetex_core::queue::{BlockQueue, PopNext, ProducerGuard, QueueSlot};
use hetex_core::router::{LoadEstimator, Router};
use hetex_gpu_sim::GpuDevice;
use hetex_jit::{CompiledPipeline, ExecCtx, SharedState, TerminalStep};
use hetex_storage::{BlockLease, BlockManagerSet, Catalog, ExhaustionPolicy, Segmenter};
use hetex_topology::{
    CalibratedConstants, CostModel as WorkCost, DeviceId, DeviceKind, DmaEngine, FaultPlan,
    ResourceClock, ServerTopology, SimTime, WorkProfile,
};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::time::{Duration, Instant};

/// Router initialization and thread pinning overhead (§6.4: ~10 ms, visible
/// only for very small inputs).
pub const ROUTER_INIT_OVERHEAD: SimTime = SimTime::from_millis(10);

/// Filter selectivity the router assumes when estimating a block's cost for
/// load balancing (it cannot know real selectivities up front).
const ASSUMED_SELECTIVITY: f64 = 0.3;

/// How long a producer may park waiting for staging bytes (arena lease or
/// queue quota) before the acquisition fails. Long enough that real
/// back-pressure only slows the query; finite so a wedged pipeline reports a
/// `HetError::Memory` instead of hanging the process.
const STAGING_PARK_TIMEOUT: Duration = Duration::from_secs(5);

/// Minimum backlog depth a sibling queue must hold before it can be stolen
/// from. Two is the smallest depth where theft is guaranteed progress: the
/// victim keeps its head block (the one it pops next anyway) and the thief
/// takes work that would otherwise wait behind it — a depth-1 queue would
/// only invite ping-pong.
const STEAL_MIN_DEPTH: usize = 2;

/// How long a straggling worker sleeps per claim-yield (see the claim-pacing
/// comment in the worker loop), leaving its backlog to idle siblings.
/// Wall-clock only: the simulation charges no cost for the yield.
const CLAIM_YIELD: Duration = Duration::from_micros(500);

/// Most consecutive claim-yields a straggling worker may take before it
/// processes a block regardless (see the claim-pacing comment in the worker
/// loop). Bounds the wall-clock stall and guarantees progress even when no
/// sibling ever finds the backlog profitable.
const MAX_CLAIM_YIELDS: usize = 64;

/// Base simulated backoff charged before re-running a transiently failed
/// kernel invocation; doubles with every consecutive retry of the same block.
const TRANSIENT_RETRY_BASE_NS: u64 = 50_000;

/// Consecutive transient failures of one block before the in-place retry
/// gives up and the device is declared lost (quarantined or, with recovery
/// off, surfaced as a structured `DeviceLost`).
const TRANSIENT_RETRY_BUDGET: u32 = 3;

/// Wall-clock cadence of the fault watchdog thread, and of a wedged worker's
/// quarantine recheck. Wall-clock only — the stall-detection *cost* is
/// charged in simulated time separately (see `WATCHDOG_DETECT_NS`).
const WATCHDOG_POLL: Duration = Duration::from_millis(5);

/// Consecutive watchdog polls a wedge-scripted device must show zero block
/// progress past its scripted onset before it is declared wedged. Multiple
/// polls distinguish "wedged" from "momentarily between blocks".
const WATCHDOG_STALL_POLLS: u32 = 3;

/// Floor of the simulated detection budget the watchdog charges a wedged
/// device before quarantining it. The actual budget is the larger of this
/// floor and two observed average block costs of the device — a watchdog
/// cannot call a device wedged faster than it could tell silence from one
/// slow block.
const WATCHDOG_DETECT_NS: u64 = 1_000_000;

/// Outcome of one steal attempt (see `Executor::steal_for`).
enum StealOutcome {
    /// A block was stolen and is ready for the thief to process.
    Stolen(BlockHandle),
    /// A sibling has stealable backlog, but moving its tail to this thief
    /// would finish later than leaving it — worth re-checking once the
    /// victim's clock has advanced.
    Unprofitable,
    /// No sibling holds enough backlog to steal from.
    Nothing,
}

/// The staging charge backing one queued block under byte governance:
/// the byte admission into the consumer's queue plus the arena lease on the
/// consumer's memory node. Attached to the handle as its staging token; the
/// consumer's drop of the handle releases both, waking parked producers.
#[derive(Debug)]
struct StagingCharge {
    _slot: Option<QueueSlot>,
    _lease: BlockLease,
}

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
    /// Peak leased staging bytes per memory node (empty when byte
    /// governance is off).
    pub staging_peaks: Vec<(MemoryNodeId, u64)>,
    /// Blocks adaptively re-routed (stolen from an overloaded sibling's
    /// queue) per stage; all zeros when stealing is disabled.
    pub blocks_stolen: Vec<u64>,
    /// Cross-node control-plane traffic: block handles pushed into a queue
    /// on a memory node other than the block's (a remote queue mutex
    /// acquisition each). Measured in every run; *priced* into routing only
    /// when the cost model's control-plane term is on.
    pub remote_control_acquisitions: u64,
    /// Observed-slowdown EWMA per device slot (charged vs nominal busy
    /// time, 1.0 = healthy), indexed like the topology's device list.
    /// Measured in every run; *priced* into routing projections only when
    /// `CalibrationConfig::slowdown_feedback` is on.
    pub observed_slowdowns: Vec<f64>,
    /// The constants the engine-construction topology micro-probe measured
    /// (control-plane round trip, per-link effective bandwidth), whether or
    /// not `CalibrationConfig::measured_constants` let routing consume them.
    pub probed_constants: Arc<CalibratedConstants>,
    /// Transient kernel failures absorbed by bounded in-place retry (zero
    /// without an injected fault plan).
    pub transient_retries: u64,
    /// Blocks re-executed on a surviving sibling after a device quarantine
    /// (zero without an injected fault plan).
    pub recovered_blocks: u64,
    /// Staging bytes still leased when the execution finished, measured
    /// after remote caches were flushed back to their home arenas. Zero on
    /// every clean run — the fault-invariant suite's leak check.
    pub staging_leaked_bytes: u64,
    /// Observed (rows_in, rows_out) per stage: physical rows entering each
    /// stage's pipelines across all instances and rows the stage emitted —
    /// the *actual* per-stage selectivities, as opposed to the structural
    /// estimates routing plans with. Best-effort under fault recovery
    /// (re-executed blocks may be counted on both the failed and the
    /// surviving instance).
    pub stage_rows: Vec<(u64, u64)>,
}

/// Per-execution fault-recovery state, created only when the topology
/// carries a [`FaultPlan`]. Healthy runs carry `None` and skip every check
/// — the recovery machinery costs them nothing, simulated or wall-clock.
struct FaultState {
    plan: Arc<FaultPlan>,
    /// One quarantine flag per device (topology device order). Set once and
    /// never cleared: a quarantined device takes no further work this run.
    quarantined: Vec<AtomicBool>,
    /// Kernel-invocation counter per device — the index of the fault plan's
    /// deterministic transient-failure draw.
    invocations: Vec<AtomicU64>,
    /// Blocks completed per device — the progress signal the watchdog's
    /// stall detector compares across polls.
    progressed: Vec<AtomicU64>,
    /// Blocks re-executed on a survivor after a quarantine (observability).
    recovered: AtomicU64,
    /// Transient failures absorbed by in-place retry (observability).
    retries: AtomicU64,
}

impl FaultState {
    fn new(plan: Arc<FaultPlan>, devices: usize) -> Self {
        Self {
            plan,
            quarantined: (0..devices).map(|_| AtomicBool::new(false)).collect(),
            invocations: (0..devices).map(|_| AtomicU64::new(0)).collect(),
            progressed: (0..devices).map(|_| AtomicU64::new(0)).collect(),
            recovered: AtomicU64::new(0),
            retries: AtomicU64::new(0),
        }
    }

    fn is_quarantined(&self, device: DeviceId) -> bool {
        self.quarantined[device.index()].load(Ordering::Acquire)
    }

    /// Quarantine `device` (idempotent): routing stops projecting onto it,
    /// siblings may steal its backlog at any depth, and its own worker
    /// re-homes its remaining stream the next time it looks at the flag.
    fn quarantine(&self, device: DeviceId) {
        self.quarantined[device.index()].store(true, Ordering::Release);
    }

    fn next_invocation(&self, device: DeviceId) -> u64 {
        self.invocations[device.index()].fetch_add(1, Ordering::Relaxed)
    }

    fn note_progress(&self, device: DeviceId) {
        self.progressed[device.index()].fetch_add(1, Ordering::Relaxed);
    }
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
    /// Constants the topology micro-probe measured at construction
    /// (`hetex_topology::probe`): the control-plane round trip and each
    /// link's effective bandwidth. Attached to every execution's cost
    /// model; whether routing *consumes* them is the run's
    /// `CalibrationConfig::measured_constants` toggle.
    probed_constants: Arc<CalibratedConstants>,
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

/// Routing state of one stage, shared by every producer pushing into it:
/// the router, the per-consumer devices/memory nodes, and the lock-free load
/// estimates driving the least-loaded policy.
struct StageRouting<'a> {
    stage: &'a Stage,
    router: Router<'a>,
    instance_devices: Vec<DeviceId>,
    instance_nodes: Vec<MemoryNodeId>,
    /// Dense index of each consumer's memory node into `node_load`.
    node_index: Vec<usize>,
    /// Per-consumer load estimates (device time committed per routed block).
    est: LoadEstimator,
    /// Per-memory-node load estimates: a socket's cores share its DRAM
    /// bandwidth, so a block's projected completion on a consumer is the max
    /// of its device backlog and its memory node's backlog — mirroring the
    /// device-clock / node-clock split the executor charges at run time.
    node_load: Vec<AtomicU64>,
    /// Assumed fraction of tuples surviving the stage's fused steps
    /// (stage-constant; precomputed off the per-block routing path).
    est_selectivity: f64,
    /// Assumed hash probes per input tuple across the fused probe steps.
    est_probes_per_row: f64,
    /// Per-consumer nanoseconds actually charged to the device clock — the
    /// feedback half of the straggler detector. Together with
    /// `nominal_busy`, the ratio `charged/nominal` is a consumer's observed
    /// slowdown: 1.0 for a healthy device, larger when reality (an
    /// unforeseen `exec_slowdown`, contention) costs more than the model
    /// predicted. The steal profitability check scales the victim's backlog
    /// by this ratio, so hidden stragglers are priced by what they *did*,
    /// not what the estimates promised.
    charged_busy: Vec<AtomicU64>,
    /// Per-consumer nanoseconds the nominal cost model prices for the same
    /// processed work (denominator of the observed-slowdown ratio).
    nominal_busy: Vec<AtomicU64>,
    /// Per-consumer count of processed blocks; `charged_busy / processed` is
    /// a consumer's observed average block cost, the basis of the steal
    /// profitability pre-check (which must run *before* a block leaves the
    /// victim's queue — see `Executor::steal_for`).
    processed: Vec<AtomicU64>,
}

impl StageRouting<'_> {
    /// Observed slowdown of consumer `slot`: charged over nominal busy time,
    /// 1.0 until the consumer has processed anything.
    fn observed_slowdown(&self, slot: usize) -> f64 {
        let nominal = self.nominal_busy[slot].load(Ordering::Relaxed);
        if nominal == 0 {
            return 1.0;
        }
        (self.charged_busy[slot].load(Ordering::Relaxed) as f64 / nominal as f64).max(1.0)
    }

    /// Observed average charged cost per block of consumer `slot`, or `None`
    /// until it has processed anything.
    fn observed_avg_cost(&self, slot: usize) -> Option<u64> {
        let blocks = self.processed[slot].load(Ordering::Relaxed);
        if blocks == 0 {
            return None;
        }
        Some(self.charged_busy[slot].load(Ordering::Relaxed) / blocks)
    }
}

/// A dependency gate: consumer workers of a stage block here until every
/// build stage the pipeline probes has signalled completion, and inherit the
/// largest simulated completion time as their scheduling floor.
struct Gate {
    state: StdMutex<(usize, SimTime)>,
    cv: Condvar,
}

impl Gate {
    fn new(dependencies: usize) -> Self {
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
    fn wait(&self) -> SimTime {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        while state.0 > 0 {
            state = self.cv.wait(state).unwrap_or_else(|e| e.into_inner());
        }
        state.1
    }

    /// The gate's partial floor so far, in nanoseconds: the largest completion
    /// time among the dependencies that already opened (0 while none did).
    /// Routing combines this with the load-estimator projections of the still
    /// running dependencies into its gate-time estimate.
    fn floor_ns(&self) -> u64 {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).1.as_nanos()
    }

    /// True once every dependency has completed (consumers no longer wait).
    fn is_open(&self) -> bool {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).0 == 0
    }
}

/// Completion bookkeeping of one pipelined stage.
struct StageProgress {
    /// Workers still running.
    remaining: AtomicUsize,
    /// Largest simulated completion time observed so far.
    completion: Mutex<SimTime>,
    /// This stage's producer registrations on its consumer's queues, dropped
    /// (→ `producer_done`) by the last finishing worker after the terminal
    /// emission was pushed.
    downstream_guards: Mutex<Vec<ProducerGuard>>,
    /// Wall-clock ns of the first processed block (`u64::MAX` = none yet).
    first_block_wall: AtomicU64,
    /// Wall-clock ns when the stage finished.
    finished_wall: AtomicU64,
    /// Blocks this stage's workers stole from overloaded siblings.
    blocks_stolen: AtomicU64,
    /// Physical rows that entered this stage's pipelines (summed across
    /// instances) — the numerator of the stage's actual selectivity.
    rows_in: AtomicU64,
    /// Physical rows this stage's pipelines emitted (block outputs plus
    /// finalize flushes).
    rows_out: AtomicU64,
}

impl StageProgress {
    fn new(workers: usize) -> Self {
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

    fn record_first_block(&self, wall_ns: u64) {
        let _ = self.first_block_wall.fetch_min(wall_ns, Ordering::Relaxed);
    }

    fn timeline(&self) -> StageTimeline {
        let first = self.first_block_wall.load(Ordering::Relaxed);
        StageTimeline {
            first_block_wall_ns: (first != u64::MAX).then_some(first),
            finished_wall_ns: self.finished_wall.load(Ordering::Relaxed),
        }
    }
}

impl Executor {
    /// An executor for the given topology, creating one simulated GPU per GPU
    /// device in the topology.
    pub fn new(topology: Arc<ServerTopology>) -> Self {
        // The topology micro-probe runs once per executor, against scratch
        // clocks (it never perturbs the topology's own clocks): a handful of
        // reservations measuring the cross-socket round trip and each
        // link's effective bandwidth.
        let probed_constants = Arc::new(hetex_topology::probe::probe(&topology));
        Self::with_constants(topology, probed_constants)
    }

    /// An executor reusing already-probed constants instead of re-running the
    /// topology micro-probe. The engine probes once at construction and hands
    /// the same `Arc` to every per-query (and per-degraded-attempt) executor:
    /// exclusion never changes links or sockets, so the measured constants
    /// stay valid for the whole engine lifetime.
    pub fn with_constants(
        topology: Arc<ServerTopology>,
        probed_constants: Arc<CalibratedConstants>,
    ) -> Self {
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
            probed_constants,
            shared_observer: None,
            failed_sim_time: Mutex::new(None),
        }
    }

    /// Attach a server-lifetime slowdown observer shared across executions:
    /// runs record into (and read from) it instead of a fresh per-run
    /// observer, so observed stragglers carry over between queries.
    pub fn with_shared_observer(mut self, observer: Arc<SlowdownObserver>) -> Self {
        self.shared_observer = Some(observer);
        self
    }

    /// The constants the construction-time topology micro-probe measured.
    pub fn probed_constants(&self) -> &Arc<CalibratedConstants> {
        &self.probed_constants
    }

    /// The simulated time the last failed execution had reached when its
    /// error surfaced, clearing the record. `None` when nothing failed since
    /// the last take (or the failure happened before any work was simulated).
    pub fn take_failed_sim_time(&self) -> Option<SimTime> {
        self.failed_sim_time.lock().take()
    }

    /// The simulated GPUs, keyed by device id.
    pub fn gpus(&self) -> &HashMap<DeviceId, Arc<GpuDevice>> {
        &self.gpus
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
        self.execute_pipelined(graph, catalog, config)
    }

    // ------------------------------------------------------------------
    // Shared machinery
    // ------------------------------------------------------------------

    fn device_clocks(&self) -> HashMap<DeviceId, ResourceClock> {
        // One persistent clock per device: a core used by several stages
        // cannot do their work at the same simulated time.
        self.topology
            .devices()
            .iter()
            .enumerate()
            .map(|(idx, _)| (DeviceId::new(idx), ResourceClock::new(format!("dev{idx}"))))
            .collect()
    }

    fn stage_routing<'a>(&self, stage: &'a Stage) -> Result<StageRouting<'a>> {
        let router = Router::new(stage.policy, &stage.consumers)?;
        let instance_devices: Vec<DeviceId> = stage
            .consumers
            .iter()
            .map(|slot| {
                slot.affinity.for_kind(slot.kind).ok_or_else(|| {
                    HetError::Execution("consumer slot without a device affinity".into())
                })
            })
            .collect::<Result<Vec<_>>>()?;
        let instance_nodes: Vec<MemoryNodeId> = instance_devices
            .iter()
            .map(|&d| self.topology.local_memory_of(d))
            .collect::<Result<Vec<_>>>()?;
        let mut distinct_nodes: Vec<MemoryNodeId> = Vec::new();
        let node_index: Vec<usize> = instance_nodes
            .iter()
            .map(|node| {
                distinct_nodes.iter().position(|n| n == node).unwrap_or_else(|| {
                    distinct_nodes.push(*node);
                    distinct_nodes.len() - 1
                })
            })
            .collect();
        let est = LoadEstimator::new(stage.consumers.len());
        let node_load = (0..distinct_nodes.len()).map(|_| AtomicU64::new(0)).collect();
        // Walk the fused steps once with a running selectivity: every probe
        // step touches its hash table once per tuple *surviving the steps
        // before it* (a fact scan with no preceding filter probes every
        // row), and each filter or probe thins the stream by the assumed
        // selectivity. Pricing probes structurally matters because random
        // accesses are the CPU's scarce resource — a flat estimate
        // under-prices CPU consumers and the least-loaded policy then
        // overloads them.
        let mut est_selectivity = 1.0f64;
        let mut est_probes_per_row = 0.0f64;
        for step in stage.template(DeviceKind::CpuCore).steps() {
            match step {
                hetex_jit::Step::Filter { .. } => est_selectivity *= ASSUMED_SELECTIVITY,
                hetex_jit::Step::HashJoinProbe { .. } => {
                    est_probes_per_row += est_selectivity;
                    est_selectivity *= ASSUMED_SELECTIVITY;
                }
                hetex_jit::Step::Map { .. } => {}
            }
        }
        let charged_busy = (0..stage.consumers.len()).map(|_| AtomicU64::new(0)).collect();
        let nominal_busy = (0..stage.consumers.len()).map(|_| AtomicU64::new(0)).collect();
        let processed = (0..stage.consumers.len()).map(|_| AtomicU64::new(0)).collect();
        Ok(StageRouting {
            stage,
            router,
            instance_devices,
            instance_nodes,
            node_index,
            est,
            node_load,
            est_selectivity,
            est_probes_per_row,
            charged_busy,
            nominal_busy,
            processed,
        })
    }

    /// A DMA copy is only required when the consumer cannot address the block
    /// directly: GPU consumers need device-resident data, and no CPU core can
    /// address GPU device memory. CPU consumers read remote NUMA DRAM
    /// directly (at a penalty already captured by the socket DRAM clocks).
    fn requires_dma(
        &self,
        routing: &StageRouting<'_>,
        instance: usize,
        location: MemoryNodeId,
    ) -> bool {
        if location == routing.instance_nodes[instance] {
            return false;
        }
        let consumer_is_gpu = routing.stage.consumers[instance].kind == DeviceKind::Gpu;
        let block_on_gpu =
            self.topology.memory_node(location).map(|m| m.is_gpu_memory()).unwrap_or(false);
        consumer_is_gpu || block_on_gpu
    }

    /// Estimated cost of `handle` on each consumer of the stage: the same
    /// work/cost model the executor charges, evaluated with an assumed filter
    /// selectivity, throttled to PCIe speed when the data would have to move.
    /// Returns `(device_ns, memory_node_ns)` per consumer — the two backlogs
    /// the least-loaded policy balances.
    ///
    /// `pending_gate_ns` is `Some(estimated gate opening)` for a block routed
    /// into a stage whose dependency gate has not opened yet: mem-move
    /// schedules the DMA immediately at routing time, so the part of the
    /// transfer that completes *while the gate is still closed* is hidden by
    /// it and no longer delays the consumer's device — only the spill past
    /// the gate does. Each consumer can hide at most `gate_ns` of cumulative
    /// transfer (tracked on its node backlog axis), so a link that saturates
    /// long before the builds finish is still priced honestly. The hidden
    /// portion is not free either: it occupies the path to the consumer's
    /// memory, so it moves to the *node* axis of the projection (the two
    /// axes are maxed, modeling parallel streams). Pricing the full transfer
    /// on the device axis made compute-bound consumers look relatively cheap
    /// and handed them pre-gate blocks they could not start anyway (the
    /// over-prefetch of ROADMAP item 3); hiding it entirely would erase both
    /// data affinity and link saturation. The split keeps all three signals.
    fn block_costs(
        &self,
        routing: &StageRouting<'_>,
        handle: &BlockHandle,
        pending_gate_ns: Option<u64>,
        cost: &CostModel,
    ) -> (Vec<u64>, Vec<u64>) {
        let rows = handle.rows() as u64;
        let bytes = handle.byte_size() as u64;
        let counters = hetex_jit::BlockCounters {
            rows_in: rows,
            rows_terminal: (rows as f64 * routing.est_selectivity) as u64,
            probes: (rows as f64 * routing.est_probes_per_row) as u64,
            probe_matches: (rows as f64 * routing.est_probes_per_row * ASSUMED_SELECTIVITY) as u64,
            bytes_in: bytes,
            ..Default::default()
        };
        // Estimate each consumer kind at the kernel shape it is charged: CPU
        // consumers dispatch per chunk, GPU consumers per thread. Pricing
        // both kinds with one shape would skew the device comparison — the
        // chunked estimate under-prices GPUs, steering blocks onto them that
        // cost more than projected.
        let template = routing.stage.template(DeviceKind::CpuCore);
        let [est_cpu_work, est_gpu_work] = [DeviceKind::CpuCore, DeviceKind::Gpu]
            .map(|kind| template.work_profile_on(kind, &counters, handle.meta().weight));
        let mut device_ns = Vec::with_capacity(routing.stage.consumers.len());
        let mut node_ns = Vec::with_capacity(routing.stage.consumers.len());
        for i in 0..routing.stage.consumers.len() {
            let device = match self.topology.device(routing.instance_devices[i]) {
                Ok(d) => d,
                Err(_) => {
                    device_ns.push(u64::MAX);
                    node_ns.push(0);
                    continue;
                }
            };
            let est_work = match routing.stage.consumers[i].kind {
                DeviceKind::CpuCore => &est_cpu_work,
                DeviceKind::Gpu => &est_gpu_work,
            };
            let mut block_ns = self.work_cost.time_ns(est_work, device) as f64;
            let mut transfer_axis_ns = 0u64;
            if self.requires_dma(routing, i, handle.meta().location)
                && routing.stage.mem_move != MemMoveMode::None
            {
                // Price the DMA at the bottleneck link of the actual route
                // (successive blocks pipeline across hops, so the sustained
                // rate is the slowest link's, not the hop-latency sum). This
                // respects per-link bandwidth overrides in the topology, and
                // — with measured constants on — uses each link's *probed*
                // effective rate instead of its declared width.
                let transfer_ns = self
                    .topology
                    .route(handle.meta().location, routing.instance_nodes[i])
                    .map(|links| {
                        links
                            .iter()
                            .filter_map(|&l| self.topology.link(l).ok())
                            .map(|link| cost.link_transfer_ns(link, handle.weighted_bytes()))
                            .max()
                            .unwrap_or(0)
                    })
                    .unwrap_or(0);
                match pending_gate_ns {
                    Some(gate_ns) => {
                        // How much of this transfer still fits before the
                        // gate opens, given the transfer backlog already
                        // accumulated toward this consumer's node.
                        let node_backlog =
                            routing.node_load[routing.node_index[i]].load(Ordering::Relaxed);
                        let (spill, node_axis) =
                            cost.gated_transfer_split(transfer_ns, gate_ns, node_backlog);
                        block_ns = block_ns.max(spill as f64);
                        transfer_axis_ns = node_axis;
                    }
                    None => block_ns = block_ns.max(transfer_ns as f64),
                }
            }
            device_ns.push(block_ns as u64);
            let mem = self
                .topology
                .memory_node(routing.instance_nodes[i])
                .map(|node| {
                    (est_work.memory_node_bytes() / (node.bandwidth_gbps * 1e9) * 1e9) as u64
                })
                .unwrap_or(0);
            // Pushing to an off-node consumer acquires its queue mutex
            // across the interconnect — control-plane traffic the cost
            // model prices on the node axis (zero when the term is off).
            let control_ns =
                cost.control_plane_ns(routing.instance_nodes[i] != handle.meta().location);
            node_ns.push(mem.saturating_add(transfer_axis_ns).saturating_add(control_ns));
        }
        (device_ns, node_ns)
    }

    /// Route one block to a consumer of `routing`'s stage and localize it via
    /// mem-move; the block's readiness is not floored, so transfers overlap
    /// upstream compute. When `staging` is present (byte governance on),
    /// each consumer node's arena occupancy is priced into the projection so
    /// routing steers away from memory-starved nodes, and ties prefer
    /// consumers already local to the block (NUMA-aware placement).
    ///
    /// `gate_ns` is the estimated opening time of the consumer stage's
    /// dependency gate (0 when ungated) and `gate_pending` whether that gate
    /// is still closed at routing time. Together they make the projection
    /// gate-aware: the gate shifts every consumer's projection to an absolute
    /// completion estimate, and a still-closed gate discounts the DMA of
    /// transfer-bound consumers (the transfer is scheduled now and hidden by
    /// the gate — see [`Self::block_costs`]), so compute-bound consumers of
    /// gated probe stages stop collecting pre-gate blocks they cannot start
    /// anyway.
    ///
    /// With a [`FaultState`] present, quarantined consumers are poisoned out
    /// of the projection and a pick that still lands on one (round-robin
    /// ignores projections) is redirected to the cheapest surviving sibling
    /// — when the stage routes anonymously. A bound stage (hash-partitioned
    /// or broadcast-target blocks) whose consumer died cannot re-home the
    /// block, so routing surfaces a structured [`HetError::DeviceLost`] and
    /// the engine's degraded-restart ladder takes over.
    ///
    /// Returns `(consumer index, localized handle)`.
    #[allow(clippy::too_many_arguments)]
    fn route_and_localize(
        &self,
        routing: &StageRouting<'_>,
        mem_move: &MemMove,
        gpu_nodes: &[MemoryNodeId],
        handle: BlockHandle,
        staging: Option<&BlockManagerSet>,
        gate_ns: u64,
        gate_pending: bool,
        cost: &CostModel,
        stage_idx: usize,
        fault: Option<&FaultState>,
    ) -> Result<(usize, BlockHandle)> {
        let (device_ns, node_ns) =
            self.block_costs(routing, &handle, gate_pending.then_some(gate_ns), cost);
        // Price each consumer node's staging-arena occupancy: a block routed
        // to a starved node would park its producer on a lease, so its
        // projected cost grows with the leased fraction of the arena (the
        // cost model keeps the penalty disengaged below half occupancy —
        // below that the arena cannot park anyone).
        let penalties: Vec<u64> = routing
            .instance_nodes
            .iter()
            .enumerate()
            .map(|(i, node)| match staging.and_then(|s| s.manager(*node).ok()) {
                Some(manager) => cost.occupancy_penalty_ns(device_ns[i], manager.occupancy()),
                None => 0,
            })
            .collect();
        let source = handle.meta().location;
        // Observed-slowdown feedback (the calibration loop's routing half):
        // each consumer's device-axis term is multiplied by its device's
        // observed charged-vs-nominal EWMA, so a consumer whose device has
        // been seen straggling projects honestly expensive and stops
        // receiving new blocks — exactly 1.0 (and bit-identical integer
        // math) for healthy devices. With the toggle off the empty slice
        // skips even the per-block allocation on this hot path.
        let slowdowns: Vec<f64> = if cost.calibration().slowdown_feedback {
            routing
                .instance_devices
                .iter()
                .map(|device| cost.observed_device_slowdown(device.index()))
                .collect()
        } else {
            Vec::new()
        };
        // Project each consumer's completion from its two backlogs (device
        // and memory node — the same two clocks the executor charges); the
        // composition, including the strictly-increasing device tie-breaker
        // and the governed-mode NUMA nudge toward the block's current node,
        // lives in the cost model.
        let numa_tiebreak = staging.is_some();
        let mut projected: Vec<u64> = routing
            .est
            .projected_with_feedback(&device_ns, &penalties, gate_ns, &slowdowns)
            .into_iter()
            .enumerate()
            .map(|(i, dev)| {
                let node = routing.node_load[routing.node_index[i]]
                    .load(Ordering::Relaxed)
                    .saturating_add(node_ns[i]);
                cost.compose_projection(
                    dev,
                    node,
                    routing.instance_nodes[i] == source,
                    numa_tiebreak,
                )
            })
            .collect();
        // Quarantined consumers project as unusable — the load estimator's
        // u64::MAX convention for devices routing must steer around.
        if let Some(fault) = fault {
            for (i, p) in projected.iter_mut().enumerate() {
                if fault.is_quarantined(routing.instance_devices[i]) {
                    *p = u64::MAX;
                }
            }
        }
        let mut pick = routing.router.route(handle.meta(), &projected)?;
        if let Some(fault) = fault {
            if fault.is_quarantined(routing.instance_devices[pick]) {
                // Round-robin ignores projections entirely, and even the
                // least-loaded policy must pick *something* when every
                // consumer is poisoned. An anonymously routed block is
                // redirected to the cheapest surviving consumer; a bound
                // block (hash partition, broadcast target, union lane) has
                // nowhere sound to go.
                let anonymous = matches!(
                    routing.stage.policy,
                    RouterPolicy::RoundRobin | RouterPolicy::LeastLoaded
                );
                pick = anonymous
                    .then(|| {
                        projected
                            .iter()
                            .enumerate()
                            .filter(|&(_, &p)| p != u64::MAX)
                            .min_by_key(|&(_, &p)| p)
                            .map(|(i, _)| i)
                    })
                    .flatten()
                    .ok_or(HetError::DeviceLost {
                        device: routing.instance_devices[pick].index(),
                        stage: stage_idx,
                        block: 0,
                    })?;
            }
        }
        routing.est.commit(pick, device_ns[pick]);
        routing.node_load[routing.node_index[pick]].fetch_add(node_ns[pick], Ordering::Relaxed);

        let localized = match routing.stage.mem_move {
            MemMoveMode::None => handle,
            MemMoveMode::ToInstance => {
                if self.requires_dma(routing, pick, handle.meta().location) {
                    mem_move.relocate(&handle, routing.instance_nodes[pick])?
                } else {
                    handle
                }
            }
            MemMoveMode::Broadcast => {
                // Broadcast the dimension data to every GPU memory node (so
                // probes on GPUs read local data), and hand the local copy to
                // the building instance.
                if !gpu_nodes.is_empty() {
                    mem_move.broadcast(&handle, gpu_nodes)?;
                }
                if self.requires_dma(routing, pick, handle.meta().location) {
                    mem_move.relocate(&handle, routing.instance_nodes[pick])?
                } else {
                    handle
                }
            }
        };
        Ok((pick, localized))
    }

    /// Adaptive re-routing: try to steal one block for the idle worker at
    /// slot `thief` from the most-loaded sibling of the same stage whose
    /// backlog holds at least [`STEAL_MIN_DEPTH`] blocks. Returns the block
    /// ready for the thief to process, or `None` when nothing is stealable
    /// (or nothing is *profitably* stealable).
    ///
    /// Profitability is judged on the **device clocks** and **observed
    /// average block costs**, not the routing estimator: both carry every
    /// nanosecond actually charged, so they are the only place an unforeseen
    /// straggler (a slowdown the cost model did not price) is visible — the
    /// paper's feedback signal. The stolen tail block would complete on the
    /// victim no earlier than `victim_clock + backlog × victim_avg_cost`,
    /// and on the thief at `thief_clock + thief_avg_cost` (doubled as
    /// hysteresis: near equilibrium a steal only duplicates what
    /// least-loaded routing already achieves while paying an extra
    /// relocation). Without this check an idle-but-expensive consumer (a CPU
    /// core eyeing a GPU-bound backlog) would "rescue" blocks into a slower
    /// home than the straggler itself.
    ///
    /// The check runs *before* anything leaves the victim's queue, and a
    /// consummated steal is always processed by the thief: a block briefly
    /// removed and returned could strand forever in a queue whose consumer
    /// observed termination in between — the exactly-once guarantee admits
    /// no "changed my mind" path. Consumers that have not processed any
    /// block yet have no observed cost, so nothing is stolen from or by
    /// them (a straggler is only detectable after it has straggled).
    ///
    /// A consummated steal de-commits the routing-time decision: the
    /// estimated cost moves from the victim's load accumulators (device and
    /// memory node) to the thief's, so subsequent routing sees the
    /// re-balanced world. The block's staging charge follows the
    /// lease-ordering rule of DESIGN.md §4.2 extended across nodes — the
    /// victim-side charge (queue byte slot plus the lease on the victim's
    /// node) is released *before* the thief localizes the block and
    /// re-charges its own node, so a thief parked on a full arena holds
    /// nothing.
    #[allow(clippy::too_many_arguments)]
    fn steal_for(
        &self,
        routing: &StageRouting<'_>,
        queues: &[BlockQueue],
        thief: usize,
        thief_clock: &ResourceClock,
        device_clocks: &HashMap<DeviceId, ResourceClock>,
        mem_move: &MemMove,
        staging: Option<&BlockManagerSet>,
        staging_budget: u64,
        cost: &CostModel,
        fault: Option<&FaultState>,
    ) -> Result<StealOutcome> {
        let dead =
            |slot: usize| fault.is_some_and(|f| f.is_quarantined(routing.instance_devices[slot]));
        let mut best: Option<(usize, usize)> = None;
        for (slot, queue) in queues.iter().enumerate() {
            if slot == thief {
                continue;
            }
            // A quarantined sibling's backlog would never complete on its
            // own, so any depth is stealable from it — even the head block
            // its consumer would otherwise pop next.
            let min_depth = if dead(slot) { 1 } else { STEAL_MIN_DEPTH };
            let depth = queue.len();
            if depth >= min_depth && best.is_none_or(|(_, d)| depth > d) {
                best = Some((slot, depth));
            }
        }
        let Some((victim, depth)) = best else { return Ok(StealOutcome::Nothing) };

        // Rescuing a dead sibling is unconditionally profitable: the victim
        // will never process the block, so every comparison against its
        // clock is moot. Everything below prices live stragglers only.
        if !dead(victim) {
            // Only observed stragglers are worth stealing from. A backlog on
            // a healthy consumer is ordinary routing imbalance: rescuing it
            // wins a thin per-block margin but pays an un-modeled shared
            // cost (the relocation's link bandwidth), which measurably loses
            // on healthy workloads — and injects wall-clock-dependent noise
            // into otherwise deterministic simulated times.
            if !cost.is_straggler(routing.observed_slowdown(victim)) {
                return Ok(StealOutcome::Unprofitable);
            }

            // Feedback-driven profitability pre-check (see the doc comment),
            // evaluated while the block is still safely queued. The rescue's
            // relocation would queue behind any outstanding DMA on the route
            // from where the block's data actually lives (the peeked tail's
            // location — advisory, the tail can change before the steal, but
            // a mis-peek only perturbs an estimate) to the thief's node; the
            // cost model's link-congestion term prices that backlog into the
            // thief's side (zero when the thief can address the data in
            // place).
            let (Some(victim_avg), Some(thief_avg)) =
                (routing.observed_avg_cost(victim), routing.observed_avg_cost(thief))
            else {
                return Ok(StealOutcome::Unprofitable);
            };
            // Fold the shared slowdown EWMA into the victim's price (the
            // calibration loop's steal half, `steal_feedback`): a victim
            // whose *device* has been observed straggling in other stages
            // too is priced by that history, not only this stage's average.
            let victim_nominal_avg = routing.nominal_busy[victim]
                .load(Ordering::Relaxed)
                .checked_div(routing.processed[victim].load(Ordering::Relaxed))
                .unwrap_or(0);
            let victim_avg = cost.steal_victim_avg_ns(
                victim_avg,
                victim_nominal_avg,
                routing.instance_devices[victim].index(),
            );
            let thief_clock_ns = thief_clock.now().as_nanos();
            let data_location =
                queues[victim].tail_location().unwrap_or(routing.instance_nodes[victim]);
            let congestion_ns = if routing.stage.mem_move != MemMoveMode::None
                && self.requires_dma(routing, thief, data_location)
            {
                cost.link_congestion_ns(
                    &self.topology,
                    data_location,
                    routing.instance_nodes[thief],
                    thief_clock_ns,
                )
            } else {
                0
            };
            let query = StealQuery {
                victim_clock_ns: device_clocks
                    .get(&routing.instance_devices[victim])
                    .map(|c| c.now().as_nanos())
                    .unwrap_or(0),
                victim_avg_ns: victim_avg,
                backlog_depth: depth as u64,
                thief_clock_ns,
                thief_avg_ns: thief_avg,
                congestion_ns,
            };
            let profitable = cost.steal_profitable(&query);
            if std::env::var("HETEX_TRACE_STEAL").is_ok() {
                eprintln!(
                    "[steal] thief {thief} victim {victim} {query:?} outstanding {:.0}B \
                     slowdown {:.2} -> {}",
                    cost.outstanding_link_bytes(
                        &self.topology,
                        data_location,
                        routing.instance_nodes[thief],
                        thief_clock_ns,
                    ),
                    routing.observed_slowdown(victim),
                    if profitable { "steal" } else { "unprofitable" }
                );
            }
            if !profitable {
                return Ok(StealOutcome::Unprofitable);
            }
        }

        // The victim may have drained (or been closed) since the scan; a
        // failed steal is simply "nothing to do", never an error.
        let Some(mut block) = queues[victim].steal() else { return Ok(StealOutcome::Nothing) };

        // Steal-time cost estimates for the de-commit; these can differ
        // slightly from the routing-time commit (the block was localized in
        // between), and decommit saturates, so drift only perturbs the
        // balancing heuristic.
        let (device_ns, node_ns) = self.block_costs(routing, &block, None, cost);
        routing.est.decommit(victim, device_ns[victim]);
        routing.est.commit(thief, device_ns[thief]);
        let _ = routing.node_load[routing.node_index[victim]].fetch_update(
            Ordering::Relaxed,
            Ordering::Relaxed,
            |v| Some(v.saturating_sub(node_ns[victim])),
        );
        routing.node_load[routing.node_index[thief]].fetch_add(node_ns[thief], Ordering::Relaxed);

        // Release the victim-side staging charge before acquiring anything.
        let victim_node = routing.instance_nodes[victim];
        block.take_staging();

        // Localize for the thief when it cannot address the block where the
        // victim's mem-move left it (e.g. a CPU thief rescuing a block
        // already copied into a straggler GPU's device memory).
        if routing.stage.mem_move != MemMoveMode::None
            && self.requires_dma(routing, thief, block.meta().location)
        {
            block = mem_move.relocate(&block, routing.instance_nodes[thief])?;
        }

        // Re-charge on the thief's node (governed mode only). No queue-quota
        // admission: the block goes straight into processing, never into the
        // thief's buffer, but its bytes now live on the thief's node and must
        // be backed by that arena until the thief drops the handle.
        if let Some(staging) = staging {
            let bytes = (block.byte_size() as u64).min(staging_budget);
            if bytes > 0 {
                let lease = staging.acquire(
                    victim_node,
                    routing.instance_nodes[thief],
                    bytes,
                    ExhaustionPolicy::Park(STAGING_PARK_TIMEOUT),
                )?;
                block.attach_staging(Arc::new(StagingCharge { _slot: None, _lease: lease }));
            }
        }
        Ok(StealOutcome::Stolen(block))
    }

    /// Graceful degradation after a device quarantine: the lost worker's
    /// remaining stream — the block it may already hold plus everything its
    /// queue still buffers or receives — is re-executed on the least-loaded
    /// surviving sibling of the same stage, charged to the survivor's clock
    /// and profile. Crucially the lost worker *keeps consuming its own
    /// queue* (it merely executes on borrowed silicon), so the stage's
    /// exactly-once termination protocol — producer counts, finished
    /// sweeps, the completion fan-in — is untouched; pushing the backlog
    /// into sibling queues instead could race a sibling that already
    /// observed termination and silently drop rows. Each re-homed block
    /// follows the §4.2 lease-ordering rule across the device crossing:
    /// release the charge on the lost node, relocate, then acquire on the
    /// survivor's node.
    ///
    /// Only anonymously routed streams can be re-homed. Bound streams
    /// (hash-partitioned or broadcast-target blocks, union lanes) and
    /// stages with no surviving sibling escalate with a structured
    /// [`HetError::DeviceLost`]; the engine's degraded-restart rung then
    /// replans the query on the surviving devices.
    #[allow(clippy::too_many_arguments)]
    fn drain_on_survivor(
        &self,
        fault: &FaultState,
        routing: &StageRouting<'_>,
        stage_idx: usize,
        lost_slot: usize,
        anonymous: bool,
        in_hand: Option<BlockHandle>,
        lost_pipeline: &CompiledPipeline,
        lost_ctx: &mut ExecCtx,
        queue: &BlockQueue,
        device_clocks: &HashMap<DeviceId, ResourceClock>,
        mem_move: &MemMove,
        staging: Option<&BlockManagerSet>,
        staging_budget: u64,
        cost: &CostModel,
        config: &EngineConfig,
        state: &SharedState,
        per_kind: &Mutex<HashMap<DeviceKind, DeviceKindStats>>,
        feeds: Option<usize>,
        push: &dyn Fn(usize, BlockHandle) -> Result<()>,
        floor: SimTime,
    ) -> Result<SimTime> {
        let lost_device = routing.instance_devices[lost_slot];
        let lost_node = routing.instance_nodes[lost_slot];
        let stranded = queue.len() + usize::from(in_hand.is_some());
        let lost = || HetError::DeviceLost {
            device: lost_device.index(),
            stage: stage_idx,
            block: stranded,
        };
        if !config.fault.quarantine || !anonymous {
            return Err(lost());
        }
        // The least-loaded surviving sibling (by simulated clock) takes
        // over. None surviving → the whole stage is dead, escalate.
        let survivor = (0..routing.instance_devices.len())
            .filter(|&s| s != lost_slot && !fault.is_quarantined(routing.instance_devices[s]))
            .min_by_key(|&s| {
                device_clocks
                    .get(&routing.instance_devices[s])
                    .map(|c| c.now().as_nanos())
                    .unwrap_or(u64::MAX)
            })
            .ok_or_else(lost)?;
        let s_device = routing.instance_devices[survivor];
        let s_kind = routing.stage.consumers[survivor].kind;
        let s_node = routing.instance_nodes[survivor];
        let s_profile = self.topology.device(s_device)?.clone();
        let s_clock = device_clocks.get(&s_device).ok_or_else(lost)?.clone();
        let s_pipeline = routing.stage.template(s_kind).clone();
        let mut s_ctx = match s_kind {
            DeviceKind::Gpu => {
                let gpu = self.gpus.get(&s_device).cloned().ok_or_else(lost)?;
                ExecCtx::gpu(gpu, config.block_capacity)
            }
            DeviceKind::CpuCore => ExecCtx::cpu(s_node, config.block_capacity),
        };

        let mut last_end = floor;
        let mut stats = DeviceKindStats::default();
        let flush = |out: hetex_jit::PipelineOutput,
                     last_end: &mut SimTime,
                     stats: &mut DeviceKindStats|
         -> Result<()> {
            if !out.work.is_empty() {
                let (end, busy) = self.charge(&s_clock, &s_profile, &out.work, *last_end);
                *last_end = (*last_end).max(end);
                stats.busy_ns += busy;
            }
            for mut produced in out.blocks {
                produced.meta_mut().ready_at_ns = last_end.as_nanos();
                if let Some(consumer) = feeds {
                    push(consumer, produced)?;
                }
            }
            Ok(())
        };

        // First, flush the lost lane's partially packed outputs. Completed
        // work lives in managed host-visible staging in this fault model
        // (kernels are transactional at block granularity and their packed
        // outputs survive the device), so only the flush itself is charged
        // — to the survivor, the device actually doing it.
        let out = lost_pipeline.finalize_instance(lost_ctx)?;
        flush(out, &mut last_end, &mut stats)?;

        // Then drain: the claimed block first, then the queue to exhaustion
        // (the producers still push into it and terminate it normally).
        let mut next = in_hand;
        loop {
            let mut block = match next.take() {
                Some(block) => block,
                None => match queue.pop() {
                    Some(block) => block,
                    None => break,
                },
            };
            if fault.is_quarantined(s_device) {
                // The survivor died while we were draining onto it. The
                // ladder still holds — escalate and let the restart rung
                // replan on whatever is left.
                return Err(HetError::DeviceLost {
                    device: s_device.index(),
                    stage: stage_idx,
                    block: queue.len() + 1,
                });
            }
            // Steal-style hand-off bookkeeping: the routing-time commit
            // moves from the lost slot to the survivor so subsequent
            // routing sees the re-balanced world, and the staging charge is
            // released on the lost node before the survivor's is acquired.
            let (device_ns, node_ns) = self.block_costs(routing, &block, None, cost);
            routing.est.decommit(lost_slot, device_ns[lost_slot]);
            routing.est.commit(survivor, device_ns[survivor]);
            let _ = routing.node_load[routing.node_index[lost_slot]].fetch_update(
                Ordering::Relaxed,
                Ordering::Relaxed,
                |v| Some(v.saturating_sub(node_ns[lost_slot])),
            );
            routing.node_load[routing.node_index[survivor]]
                .fetch_add(node_ns[survivor], Ordering::Relaxed);
            block.take_staging();
            if routing.stage.mem_move != MemMoveMode::None
                && self.requires_dma(routing, survivor, block.meta().location)
            {
                block = mem_move.relocate(&block, s_node)?;
            }
            if let Some(staging) = staging {
                let bytes = (block.byte_size() as u64).min(staging_budget);
                if bytes > 0 {
                    let lease = staging.acquire(
                        lost_node,
                        s_node,
                        bytes,
                        ExhaustionPolicy::Park(STAGING_PARK_TIMEOUT),
                    )?;
                    block.attach_staging(Arc::new(StagingCharge { _slot: None, _lease: lease }));
                }
            }
            let ready = SimTime::from_nanos(block.meta().ready_at_ns).max(floor);
            let out = s_pipeline.process_block(&block, state, &mut s_ctx)?;
            let (end, busy) = self.charge(&s_clock, &s_profile, &out.work, ready);
            last_end = last_end.max(end);
            let nominal_ns = self.work_cost.time_ns(&out.work, &s_profile);
            cost.observe(s_device.index(), busy, nominal_ns);
            routing.charged_busy[survivor].fetch_add(busy, Ordering::Relaxed);
            routing.nominal_busy[survivor].fetch_add(nominal_ns, Ordering::Relaxed);
            routing.processed[survivor].fetch_add(1, Ordering::Relaxed);
            fault.note_progress(s_device);
            fault.recovered.fetch_add(1, Ordering::Relaxed);
            stats.busy_ns += busy;
            stats.blocks += 1;
            stats.bytes_scanned += out.work.bytes_scanned;
            // Lease-ordering rule: release the input's staging before
            // acquiring charges for its outputs (see the worker loop).
            drop(block);
            for mut produced in out.blocks {
                produced.meta_mut().ready_at_ns = end.as_nanos();
                if let Some(consumer) = feeds {
                    push(consumer, produced)?;
                }
            }
        }

        // Flush the survivor lane too: it packed the re-homed rows.
        let out = s_pipeline.finalize_instance(&mut s_ctx)?;
        flush(out, &mut last_end, &mut stats)?;

        let mut kinds = per_kind.lock();
        let entry = kinds.entry(s_kind).or_default();
        entry.blocks += stats.blocks;
        entry.busy_ns += stats.busy_ns;
        entry.bytes_scanned += stats.bytes_scanned;
        Ok(last_end)
    }

    /// The input segments of a table-scan stage.
    fn table_segments(
        &self,
        table: &str,
        projection: &[String],
        catalog: &Catalog,
        config: &EngineConfig,
    ) -> Result<Vec<BlockHandle>> {
        let weight = config.weight_for(table);
        let table = catalog.get(table)?;
        let projection: Vec<&str> = projection.iter().map(String::as_str).collect();
        Segmenter::new(table, &projection, config.block_capacity).with_weight(weight).segments()
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

    /// Finish a stage's shared state exactly once, on a CPU context: run the
    /// final gather of a reduce/group-by stage (the paper's final
    /// single-instance gather pipeline), or seal a hash-join build's table
    /// before the gates of its probes open. Returns `(result rows, blocks)`.
    fn emit_stage_results(
        &self,
        stage: &Stage,
        state: &SharedState,
        completion: SimTime,
        config: &EngineConfig,
    ) -> Result<(Vec<Vec<i64>>, Vec<BlockHandle>)> {
        if matches!(stage.template(DeviceKind::CpuCore).terminal(), TerminalStep::Pack { .. }) {
            return Ok((Vec::new(), Vec::new()));
        }
        let node = self.topology.cpu_memory_nodes()[0];
        let mut ctx = ExecCtx::cpu(node, config.block_capacity);
        let emitted = stage.template(DeviceKind::CpuCore).emit_state_results(state, &mut ctx)?;
        let mut rows = Vec::new();
        for handle in &emitted.blocks {
            let block = handle.block();
            for row in 0..block.rows() {
                rows.push(block.columns().map(|c| c.get_i64(row).unwrap_or(0)).collect());
            }
        }
        let mut blocks = emitted.blocks;
        for b in &mut blocks {
            b.meta_mut().ready_at_ns = completion.as_nanos();
        }
        Ok((rows, blocks))
    }

    // ------------------------------------------------------------------
    // Pipelined executor (default)
    // ------------------------------------------------------------------

    fn execute_pipelined(
        &self,
        graph: &StageGraph,
        catalog: &Catalog,
        config: &EngineConfig,
    ) -> Result<ExecutionResult> {
        let wall_start = Instant::now();
        self.topology.reset_clocks();
        let dma = DmaEngine::new(Arc::clone(&self.topology));
        let mem_move = MemMove::new(dma);
        let device_clocks = self.device_clocks();
        let gpu_nodes = self.topology.gpu_memory_nodes();
        let trace = std::env::var("HETEX_TRACE_EXEC").is_ok();

        // The run's shared slowdown observer (one EWMA slot per device):
        // workers record every completed block's charged-vs-nominal ratio
        // into it, routing reads it back. Always measured; priced into
        // projections only when the calibration's feedback toggle is on.
        // A serving layer substitutes its server-lifetime observer here so
        // one query's straggler observation informs the next query.
        let observer = self
            .shared_observer
            .clone()
            .unwrap_or_else(|| Arc::new(SlowdownObserver::new(self.topology.devices().len())));

        // The run's unified cost model: every estimation term the router
        // path, the queue-admission path and the steal path consult, with
        // the per-term toggles this execution's config selects (§5 of
        // DESIGN.md) and the calibration inputs (§6): the construction-time
        // probe's measured constants and the observer above.
        let cost = CostModel::from_config(config)
            .with_constants(Arc::clone(&self.probed_constants))
            .with_observer(Arc::clone(&observer));

        let routing: Vec<StageRouting<'_>> =
            match graph.stages.iter().map(|s| self.stage_routing(s)).collect::<Result<Vec<_>>>() {
                Ok(routing) => routing,
                Err(e) => {
                    // Setup failure before any simulated work: the attempt
                    // burned exactly zero, recorded explicitly so the engine's
                    // attempt accounting never has to guess.
                    *self.failed_sim_time.lock() = Some(SimTime::ZERO);
                    return Err(e);
                }
            };

        // Fault-recovery state: `Some` only when the topology carries a
        // non-empty injected fault plan. `None` short-circuits every
        // checkpoint below, so healthy runs execute the exact pre-fault
        // code path — zero overhead, simulated or wall-clock.
        let fault_state = self
            .topology
            .fault_plan()
            .filter(|p| !p.is_empty())
            .map(|p| FaultState::new(Arc::clone(p), self.topology.devices().len()));

        // Staging governance (§4.3): one byte-denominated arena per memory
        // node, sized by the configured per-node budget, created per
        // execution so peaks are per-query observables. `None` reproduces
        // the ungoverned PR 1 behaviour (handle-count bounds only).
        let staging: Option<BlockManagerSet> = config.staging_bytes.map(|budget| {
            let nodes: Vec<MemoryNodeId> =
                self.topology.memory_nodes().iter().map(|m| m.id).collect();
            BlockManagerSet::new(&nodes, budget)
        });

        // Every stage runs concurrently, so a node's staging budget is shared
        // by every consumer instance placed on it (across all stages). Each
        // queue gets an even byte share as its admission quota; the shares
        // sum to at most the node budget, so one stage's flood can never
        // starve another stage's consumers out of their reserved staging —
        // the key step of the deadlock-freedom argument in DESIGN.md.
        let mut consumers_per_node: HashMap<MemoryNodeId, u64> = HashMap::new();
        for r in &routing {
            for node in &r.instance_nodes {
                *consumers_per_node.entry(*node).or_default() += 1;
            }
        }

        // One queue per consumer slot, placed on the consumer's memory node
        // (NUMA-aware placement: the queue and the handles it buffers live
        // where the consumer reads them); producers register via the guards
        // below and terminate the consumer through `producer_done` (RAII).
        let queues: Vec<Vec<BlockQueue>> = graph
            .stages
            .iter()
            .enumerate()
            .map(|(stage_idx, stage)| {
                (0..stage.consumers.len())
                    .map(|slot| {
                        let node = routing[stage_idx].instance_nodes[slot];
                        let mut queue = match config.queue_capacity {
                            Some(cap) => BlockQueue::bounded(0, cap),
                            None => BlockQueue::new(0),
                        }
                        .on_node(node);
                        if let Some(budget) = config.staging_bytes {
                            let share =
                                budget / consumers_per_node.get(&node).copied().unwrap_or(1).max(1);
                            queue = queue.with_byte_quota(share);
                        }
                        queue
                    })
                    .collect()
            })
            .collect();

        // Demand-weighted quota re-split state (cost-model term 1): one
        // splitter per memory node over the queues placed on it. The initial
        // quotas above are the even PR 2 split (exactly what the cost model
        // returns before any demand was observed); every
        // `QUOTA_RESPLIT_CADENCE` admissions on a node, the splitter folds
        // each queue's newly admitted bytes into its EWMA and the shares are
        // re-applied — floored at one estimated maximum-size block so no
        // active queue ever starves below a single block.
        let mut quota_groups: Vec<(MemoryNodeId, Vec<(usize, usize)>)> = Vec::new();
        if config.staging_bytes.is_some() && cost.config().demand_weighted_quotas {
            for (stage_idx, r) in routing.iter().enumerate() {
                for (slot_idx, node) in r.instance_nodes.iter().enumerate() {
                    match quota_groups.iter_mut().find(|(n, _)| n == node) {
                        Some((_, members)) => members.push((stage_idx, slot_idx)),
                        None => quota_groups.push((*node, vec![(stage_idx, slot_idx)])),
                    }
                }
            }
        }
        let splitters: Vec<Mutex<DemandSplitter>> = quota_groups
            .iter()
            .map(|(_, members)| Mutex::new(DemandSplitter::new(members.len())))
            .collect();
        let quota_floor = config.est_max_block_bytes();

        let gates: Vec<Gate> = graph.stages.iter().map(|s| Gate::new(s.depends_on.len())).collect();
        let progress: Vec<StageProgress> =
            graph.stages.iter().map(|s| StageProgress::new(s.consumers.len())).collect();

        // Steal eligibility per stage: stealing re-binds a block to a sibling,
        // which is only sound when routing was anonymous to begin with.
        // Hash-partitioned and broadcast-target blocks are semantically bound
        // to their consumer (partitioned state, explicit copies) and a union
        // stage has no sibling to steal from.
        let stage_steals: Vec<bool> = graph
            .stages
            .iter()
            .map(|s| {
                config.steal_policy.is_enabled()
                    && s.consumers.len() > 1
                    && matches!(s.policy, RouterPolicy::RoundRobin | RouterPolicy::LeastLoaded)
            })
            .collect();

        // Recovery eligibility per stage — the same anonymity condition as
        // stealing but independent of the steal toggle: a quarantined
        // worker may re-home its stream exactly when any sibling could have
        // been routed the same blocks.
        let stage_anonymous: Vec<bool> = graph
            .stages
            .iter()
            .map(|s| {
                s.consumers.len() > 1
                    && matches!(s.policy, RouterPolicy::RoundRobin | RouterPolicy::LeastLoaded)
            })
            .collect();

        // Register each producing stage as ONE logical producer on each of
        // its consumer's queues: blocks flow from any worker at any time, and
        // the registration is released when the stage completes (after the
        // terminal emission was pushed).
        for (idx, feeds) in graph.wiring.feeds.iter().enumerate() {
            if let Some(consumer) = feeds {
                let guards: Vec<ProducerGuard> =
                    queues[*consumer].iter().map(|q| q.register_producer()).collect();
                *progress[idx].downstream_guards.lock() = guards;
            }
        }

        let per_kind: Mutex<HashMap<DeviceKind, DeviceKindStats>> = Mutex::new(HashMap::new());
        let result_rows: Mutex<Vec<Vec<i64>>> = Mutex::new(Vec::new());
        let first_error: Mutex<Option<HetError>> = Mutex::new(None);

        // Everything below borrows; worker threads are scoped.
        let first_error = &first_error;
        let record_error = move |e: HetError| {
            let mut slot = first_error.lock();
            if slot.is_none() {
                *slot = Some(e);
            }
        };
        let routing = &routing;
        let queues = &queues;
        let gates = &gates;
        let progress = &progress;
        let stage_steals = &stage_steals;
        let stage_anonymous = &stage_anonymous;
        let fault_ref = fault_state.as_ref();
        let per_kind = &per_kind;
        let result_rows = &result_rows;
        let record_error = &record_error;
        let mem_move = &mem_move;
        let gpu_nodes = &gpu_nodes;
        let graph_ref = graph;
        let staging_ref = staging.as_ref();
        let device_clocks = &device_clocks;
        let cost = &cost;
        let quota_groups = &quota_groups;
        let splitters = &splitters;
        // Cross-node control-plane traffic gauge (remote queue mutex
        // acquisitions), reported in the execution result.
        let remote_ctl = AtomicU64::new(0);
        let remote_ctl = &remote_ctl;

        // Route one produced block to `consumer`'s stage and enqueue it for
        // the chosen instance — the single downstream hand-off path shared by
        // source pumps, workers, finalize flushes and terminal emissions. In
        // governed mode the block is backed by a staging charge before it is
        // pushed: a byte admission into the chosen queue plus a `BlockLease`
        // on the consumer's memory node (acquired through the producer node's
        // remote cache when the two differ). The lease-ordering rule: any
        // charge the handle still carries is released *before* the new one is
        // acquired — a handle never holds staging on two nodes, so a device
        // crossing is release-on-source then acquire-on-destination, and a
        // full arena can only park a producer that holds nothing.
        let staging_budget = config.staging_bytes.unwrap_or(u64::MAX);
        let stage_charge = move |consumer: usize,
                                 pick: usize,
                                 source: MemoryNodeId,
                                 handle: &mut BlockHandle|
              -> Result<()> {
            let node = routing[consumer].instance_nodes[pick];
            if node != source {
                remote_ctl.fetch_add(1, Ordering::Relaxed);
            }
            let Some(staging) = staging_ref else { return Ok(()) };
            handle.take_staging();
            // A block wider than the whole arena (possible: the budget floor
            // is validated against an estimated tuple width, the arena
            // charges exact bytes) is charged the full arena instead of
            // erroring — it parks until the arena is completely free, then
            // flows alone, preserving the slow-but-alive contract for any
            // validated budget.
            let bytes = (handle.byte_size() as u64).min(staging_budget);
            if bytes == 0 {
                return Ok(());
            }
            let slot = queues[consumer][pick].admit(bytes)?;
            let lease = staging.acquire(
                source,
                node,
                bytes,
                ExhaustionPolicy::Park(STAGING_PARK_TIMEOUT),
            )?;
            handle.attach_staging(Arc::new(StagingCharge { _slot: slot, _lease: lease }));
            // Demand-weighted quota re-split (cost-model term 1): on the
            // node's cadence boundary, fold the freshly admitted bytes into
            // the per-queue demand EWMA and apply the new shares.
            if let Some(group) = quota_groups.iter().position(|(n, _)| *n == node) {
                let members = &quota_groups[group].1;
                let shares = splitters[group].lock().on_admission(
                    |i| {
                        let (s, q) = members[i];
                        queues[s][q].admitted_bytes_total()
                    },
                    staging_budget,
                    quota_floor,
                    cost,
                );
                if let Some(shares) = shares {
                    for (&(s, q), &share) in members.iter().zip(&shares) {
                        queues[s][q].set_byte_quota(share);
                    }
                }
            }
            Ok(())
        };
        let stage_charge = &stage_charge;

        // Estimated opening time of a stage's dependency gate (plus whether
        // it is still closed), consulted on every routing decision into that
        // stage: the partial floor of already-completed builds combined with
        // the cost model's estimate over the still-running builds — with
        // the critical-path term on, a build's estimate extends over its
        // whole transitive feed chain (the slowest feed's committed load),
        // not only its own committed device load. `(0, false)` for ungated
        // stages, so their routing is unchanged.
        let gate_estimate = move |consumer: usize| -> (u64, bool) {
            let deps = &graph_ref.stages[consumer].depends_on;
            if deps.is_empty() {
                return (0, false);
            }
            if gates[consumer].is_open() {
                return (gates[consumer].floor_ns(), false);
            }
            let ns = cost.gate_estimate_ns(
                deps,
                gates[consumer].floor_ns(),
                &|stage| routing.get(stage).map(|r| r.est.max_load()).unwrap_or(0),
                &graph_ref.wiring.feeds,
            );
            (ns, true)
        };
        let gate_estimate = &gate_estimate;
        let push_downstream = move |consumer: usize, block: BlockHandle| -> Result<()> {
            let source = block.meta().location;
            let (gate_ns, gate_pending) = gate_estimate(consumer);
            let (pick, mut localized) = self.route_and_localize(
                &routing[consumer],
                mem_move,
                gpu_nodes,
                block,
                staging_ref,
                gate_ns,
                gate_pending,
                cost,
                consumer,
                fault_ref,
            )?;
            stage_charge(consumer, pick, source, &mut localized)?;
            queues[consumer][pick].push(localized)
        };
        let push_downstream = &push_downstream;

        // Runs the completion protocol for a worker of `stage_idx`; the last
        // worker emits terminal results, pushes them downstream, releases the
        // producer registrations and opens dependent gates.
        let worker_finished = move |stage_idx: usize, last_end: SimTime| {
            let stage = &graph_ref.stages[stage_idx];
            {
                let mut done = progress[stage_idx].completion.lock();
                *done = done.max(last_end);
            }
            if progress[stage_idx].remaining.fetch_sub(1, Ordering::AcqRel) != 1 {
                return;
            }
            // Last worker: finish the stage.
            let completion = *progress[stage_idx].completion.lock();
            let had_error = first_error.lock().is_some();
            if !had_error {
                match self.emit_stage_results(stage, &graph_ref.state, completion, config) {
                    Ok((rows, blocks)) => {
                        if stage.is_result && !rows.is_empty() {
                            *result_rows.lock() = rows;
                        }
                        if let Some(consumer) = graph_ref.wiring.feeds[stage_idx] {
                            for block in blocks {
                                if let Err(e) = push_downstream(consumer, block) {
                                    record_error(e);
                                    break;
                                }
                            }
                        }
                    }
                    Err(e) => record_error(e),
                }
            }
            progress[stage_idx]
                .finished_wall
                .store(wall_start.elapsed().as_nanos() as u64, Ordering::Relaxed);
            // Terminate downstream consumers (producer_done via guard drop).
            progress[stage_idx].downstream_guards.lock().clear();
            // Open the gates of every stage waiting on this one.
            for &dependent in &graph_ref.wiring.unlocks[stage_idx] {
                gates[dependent].open(completion);
            }
        };
        let worker_finished = &worker_finished;

        pool::scope(|scope| {
            // Fault watchdog: spawned only when a plan is injected (healthy
            // runs pay nothing). Two jobs: (a) convert a wedged worker —
            // scripted onset passed, zero block progress across several
            // polls — into a quarantine after charging a simulated
            // detection budget, or into a structured `Wedged` error when
            // quarantine is disabled; (b) drive scripted arena bursts, the
            // co-tenant suddenly leasing staging out from under the query.
            if let Some(f) = fault_ref {
                scope.spawn(move || {
                    let watchdog = || {
                        let mut stall: HashMap<usize, (u64, u32)> = HashMap::new();
                        let mut bursts: Vec<(usize, BlockLease)> = Vec::new();
                        while !progress.iter().all(|p| p.remaining.load(Ordering::Acquire) == 0) {
                            let frontier = device_clocks
                                .values()
                                .map(|c| c.now())
                                .fold(SimTime::ZERO, SimTime::max);
                            if config.fault.watchdog {
                                for dev_idx in 0..f.quarantined.len() {
                                    let device = DeviceId::new(dev_idx);
                                    let Some(at) = f.plan.wedge_at(device) else { continue };
                                    if f.is_quarantined(device) {
                                        continue;
                                    }
                                    let Some(clock) = device_clocks.get(&device) else { continue };
                                    if clock.now() < at {
                                        stall.remove(&dev_idx);
                                        continue;
                                    }
                                    let progressed = f.progressed[dev_idx].load(Ordering::Relaxed);
                                    let entry = stall.entry(dev_idx).or_insert((progressed, 0));
                                    if entry.0 == progressed {
                                        entry.1 += 1;
                                    } else {
                                        *entry = (progressed, 0);
                                    }
                                    if entry.1 < WATCHDOG_STALL_POLLS {
                                        continue;
                                    }
                                    // Stalled past the onset long enough to
                                    // call it wedged. Charge the detection
                                    // budget in simulated time — a watchdog
                                    // cannot tell silence from one slow block
                                    // faster than two observed block costs —
                                    // then quarantine (recovery) or surface the
                                    // structured error (diagnosis only).
                                    let avg = routing
                                        .iter()
                                        .flat_map(|r| {
                                            r.instance_devices.iter().enumerate().filter_map(
                                                |(s, d)| {
                                                    (*d == device)
                                                        .then(|| r.observed_avg_cost(s))
                                                        .flatten()
                                                },
                                            )
                                        })
                                        .max()
                                        .unwrap_or(0);
                                    let budget = WATCHDOG_DETECT_NS.max(2 * avg);
                                    clock.reserve(at.add_nanos(budget), 0);
                                    if config.fault.quarantine {
                                        f.quarantine(device);
                                    } else {
                                        let mut reported = false;
                                        for (si, r) in routing.iter().enumerate() {
                                            for (sl, d) in r.instance_devices.iter().enumerate() {
                                                if *d != device {
                                                    continue;
                                                }
                                                if !reported {
                                                    reported = true;
                                                    record_error(HetError::Wedged {
                                                        stage: si,
                                                        slot: sl,
                                                    });
                                                }
                                                // Cascade: closing the wedged
                                                // slots' queues releases parked
                                                // producers and the spinning
                                                // worker itself.
                                                queues[si][sl].close();
                                            }
                                        }
                                    }
                                }
                            }
                            if let Some(staging) = staging_ref {
                                for (i, burst) in f.plan.arena_bursts().iter().enumerate() {
                                    let active = bursts.iter().any(|(b, _)| *b == i);
                                    if !active && frontier >= burst.from && frontier < burst.until {
                                        if let Ok(manager) = staging.manager(burst.node) {
                                            // A burst takes what the arena has,
                                            // up to its scripted size: the
                                            // co-tenant competes for staging,
                                            // it does not deadlock the arena.
                                            let free = manager
                                                .capacity_bytes()
                                                .saturating_sub(manager.leased_bytes());
                                            let take = burst.bytes.min(free);
                                            if take > 0 {
                                                if let Ok(lease) = manager.acquire_local_labeled(
                                                    take,
                                                    ExhaustionPolicy::Error,
                                                    "fault:burst",
                                                ) {
                                                    bursts.push((i, lease));
                                                }
                                            }
                                        }
                                    }
                                }
                                bursts.retain(|(i, _)| frontier < f.plan.arena_bursts()[*i].until);
                            }
                            std::thread::sleep(WATCHDOG_POLL);
                        }
                        // Leases drop here: a burst never outlives the run.
                        drop(bursts);
                    };
                    if catch_unwind(AssertUnwindSafe(watchdog)).is_err() {
                        record_error(HetError::Execution("fault watchdog panicked".into()));
                    }
                });
            }

            // Source pumps: segment each scanned table and route its blocks
            // inline, the moment they exist. Transfers to (e.g.) GPU memory
            // are scheduled immediately, so they overlap whatever the gated
            // consumer is still waiting for — the paper's transfer/compute
            // overlap.
            for (idx, stage) in graph.stages.iter().enumerate() {
                let StageSource::Table { table, projection } = &stage.source else {
                    continue;
                };
                let pump_guards: Vec<ProducerGuard> =
                    queues[idx].iter().map(|q| q.register_producer()).collect();
                scope.spawn(move || {
                    let pump = || -> Result<()> {
                        #[cfg(test)]
                        if table.as_str() == tests::PANICKING_TABLE {
                            panic!("injected source pump panic");
                        }
                        let segments = self.table_segments(table, projection, catalog, config)?;
                        for handle in segments {
                            let source = handle.meta().location;
                            let (gate_ns, gate_pending) = gate_estimate(idx);
                            let (pick, mut localized) = self.route_and_localize(
                                &routing[idx],
                                mem_move,
                                gpu_nodes,
                                handle,
                                staging_ref,
                                gate_ns,
                                gate_pending,
                                cost,
                                idx,
                                fault_ref,
                            )?;
                            // Byte-budget admission (parks on a full arena)
                            // and the bounded queue both exert back-pressure
                            // here.
                            stage_charge(idx, pick, source, &mut localized)?;
                            pump_guards[pick].push(localized)?;
                        }
                        Ok(())
                    };
                    match catch_unwind(AssertUnwindSafe(pump)) {
                        Ok(Ok(())) => {}
                        Ok(Err(e)) => record_error(e),
                        Err(_) => record_error(HetError::Execution(format!(
                            "stage {idx} source pump panicked"
                        ))),
                    }
                    // Guards drop → producer_done on every queue.
                });
            }

            // Consumer workers: one per pipeline instance of every stage, all
            // spawned up front.
            for (idx, stage) in graph.stages.iter().enumerate() {
                for (slot_idx, slot) in stage.consumers.iter().enumerate() {
                    let device_id = routing[idx].instance_devices[slot_idx];
                    let device_profile = match self.topology.device(device_id) {
                        Ok(p) => p.clone(),
                        Err(e) => {
                            record_error(e);
                            worker_finished(idx, SimTime::ZERO);
                            continue;
                        }
                    };
                    let clock = device_clocks.get(&device_id).expect("device clock exists").clone();
                    let pipeline = stage.template(slot.kind).clone();
                    let gpu = self.gpus.get(&device_id).cloned();
                    let kind = slot.kind;
                    let out_node = routing[idx].instance_nodes[slot_idx];
                    let queue = queues[idx][slot_idx].clone();
                    let state = &graph.state;

                    scope.spawn(move || {
                        let mut last_end = SimTime::ZERO;
                        let run = || -> Result<()> {
                            // Gate: a probe worker starts pulling only after
                            // its build stages signalled completion.
                            let gate_floor = gates[idx].wait();
                            last_end = gate_floor;
                            #[cfg(test)]
                            tests::record_probed_tables(state, &pipeline);

                            let mut ctx = match kind {
                                DeviceKind::Gpu => match gpu {
                                    Some(gpu) => ExecCtx::gpu(gpu, config.block_capacity),
                                    None => {
                                        return Err(HetError::Execution(format!(
                                            "stage {idx}: GPU instance without a device"
                                        )))
                                    }
                                },
                                DeviceKind::CpuCore => {
                                    ExecCtx::cpu(out_node, config.block_capacity)
                                }
                            };

                            let mut local_stats = DeviceKindStats::default();
                            let mut processed_any = false;
                            let steal_here = stage_steals[idx];
                            // Fault checkpoints engage only when an injected
                            // plan targets this worker's device; onsets are
                            // judged against the device's simulated clock.
                            let fault_here =
                                fault_ref.filter(|f| f.plan.targets_device(device_id));
                            let abort_at = fault_here.and_then(|f| f.plan.abort_at(device_id));
                            // A wedge is only observable (and survivable)
                            // through the watchdog; with the watchdog off
                            // the fault is not injected at all, so no
                            // configuration can turn it into a hang.
                            let wedge_at = fault_here
                                .filter(|_| config.fault.watchdog)
                                .and_then(|f| f.plan.wedge_at(device_id));
                            // Sim-paced claiming (steal-enabled stages only).
                            // Functional execution runs at wall speed, so a
                            // device that is slow on the *simulated* clock
                            // would still drain its queue as fast as any
                            // sibling — wall-time claiming hides exactly the
                            // backlog that adaptive re-routing exists to
                            // absorb. A worker whose observed slowdown
                            // (charged vs nominal busy, the straggler
                            // detector) exceeds STRAGGLER_RATIO therefore
                            // yields (bounded by MAX_CLAIM_YIELDS) instead of
                            // claiming the next block, leaving it in the
                            // queue where a healthy thief can profitably
                            // take it.
                            let mut last_busy: u64 = 0;
                            let mut claim_yields: usize = 0;
                            let straggling =
                                || cost.is_straggler(routing[idx].observed_slowdown(slot_idx));
                            // Idle siblings park until an event may change
                            // their steal verdict; this worker's straggling,
                            // quarantine and finished stream are such events.
                            let wake_siblings = || {
                                if steal_here {
                                    for (s, q) in queues[idx].iter().enumerate() {
                                        if s != slot_idx {
                                            q.wake();
                                        }
                                    }
                                }
                            };
                            loop {
                                // Fault ladder, pre-claim: a wedged or
                                // already quarantined device claims nothing.
                                if let Some(f) = fault_here {
                                    if !f.is_quarantined(device_id)
                                        && wedge_at.is_some_and(|at| clock.now() >= at)
                                    {
                                        // Wedged: silently stop making
                                        // progress. Only the watchdog's
                                        // stall detector quarantines us out
                                        // of this spin; a run that fails
                                        // elsewhere releases the worker
                                        // through the error cascade with a
                                        // structured diagnosis.
                                        while !f.is_quarantined(device_id) {
                                            if queue.is_closed()
                                                || first_error.lock().is_some()
                                            {
                                                return Err(HetError::Wedged {
                                                    stage: idx,
                                                    slot: slot_idx,
                                                });
                                            }
                                            std::thread::sleep(WATCHDOG_POLL);
                                        }
                                    }
                                    if f.is_quarantined(device_id) {
                                        wake_siblings();
                                        // Bank what this device completed,
                                        // then re-home the rest of its
                                        // stream on a surviving sibling (or
                                        // escalate to a degraded restart).
                                        {
                                            let mut kinds = per_kind.lock();
                                            let entry = kinds.entry(kind).or_default();
                                            entry.blocks += local_stats.blocks;
                                            entry.busy_ns += local_stats.busy_ns;
                                            entry.bytes_scanned += local_stats.bytes_scanned;
                                        }
                                        last_end = self.drain_on_survivor(
                                            f,
                                            &routing[idx],
                                            idx,
                                            slot_idx,
                                            stage_anonymous[idx],
                                            None,
                                            &pipeline,
                                            &mut ctx,
                                            &queue,
                                            device_clocks,
                                            mem_move,
                                            staging_ref,
                                            staging_budget,
                                            cost,
                                            config,
                                            state,
                                            per_kind,
                                            graph_ref.wiring.feeds[idx],
                                            &|c, b| push_downstream(c, b),
                                            last_end,
                                        )?;
                                        return Ok(());
                                    }
                                }
                                // Claim pacing, part one: with backlog
                                // already visible, a sim-behind worker
                                // sleeps *without touching the queue* — the
                                // blocks keep their order and stay stealable.
                                if steal_here
                                    && last_busy > 0
                                    && claim_yields < MAX_CLAIM_YIELDS
                                    && !queue.is_empty()
                                    && straggling()
                                {
                                    claim_yields += 1;
                                    wake_siblings();
                                    std::thread::sleep(CLAIM_YIELD);
                                    continue;
                                }
                                // Late binding: an idle worker (empty queue,
                                // or its stream already over) rescues the
                                // tail of an overloaded sibling's backlog
                                // instead of parking/exiting while a
                                // straggler holds blocks hostage. With
                                // nothing to take it parks until an event:
                                // its own queue's push, completion or close,
                                // or a sibling's wake-up (straggling,
                                // quarantined, stream finished).
                                let block = if steal_here {
                                    let seen = queue.events();
                                    match queue.try_pop() {
                                        PopNext::Block(block) => {
                                            // Claim pacing, part two: a block
                                            // that arrived after part one
                                            // looked was claimed before it
                                            // could see it — if the device
                                            // is sim-behind its siblings,
                                            // un-claim it (back to the queue
                                            // tail, where thieves look) and
                                            // yield, bounded by
                                            // MAX_CLAIM_YIELDS so progress
                                            // never stalls when no sibling
                                            // finds the backlog profitable.
                                            if last_busy > 0
                                                && claim_yields < MAX_CLAIM_YIELDS
                                                && straggling()
                                            {
                                                // A refused give-back means
                                                // the queue closed: drop the
                                                // block like close()'s sweep.
                                                let _ = queue.give_back(block);
                                                claim_yields += 1;
                                                wake_siblings();
                                                std::thread::sleep(CLAIM_YIELD);
                                                continue;
                                            }
                                            block
                                        }
                                        next @ (PopNext::Empty | PopNext::Finished) => {
                                            let own_finished =
                                                matches!(next, PopNext::Finished);
                                            match self.steal_for(
                                                &routing[idx],
                                                &queues[idx],
                                                slot_idx,
                                                &clock,
                                                device_clocks,
                                                mem_move,
                                                staging_ref,
                                                staging_budget,
                                                cost,
                                                fault_ref,
                                            )? {
                                                StealOutcome::Stolen(block) => {
                                                    progress[idx]
                                                        .blocks_stolen
                                                        .fetch_add(1, Ordering::Relaxed);
                                                    block
                                                }
                                                StealOutcome::Nothing if own_finished => {
                                                    wake_siblings();
                                                    break;
                                                }
                                                // A sibling backlog may turn
                                                // profitable as the victim's
                                                // clock advances, and more
                                                // work may arrive: wait for
                                                // the event that says so.
                                                StealOutcome::Unprofitable
                                                | StealOutcome::Nothing => {
                                                    queue.park(seen);
                                                    continue;
                                                }
                                            }
                                        }
                                    }
                                } else {
                                    match queue.pop() {
                                        Some(block) => block,
                                        None => break,
                                    }
                                };
                                if !processed_any {
                                    processed_any = true;
                                    progress[idx].record_first_block(
                                        wall_start.elapsed().as_nanos() as u64,
                                    );
                                }
                                let ready =
                                    SimTime::from_nanos(block.meta().ready_at_ns).max(gate_floor);
                                // Fault ladder, per-invocation, *before*
                                // the kernel runs — kernels are
                                // transactional at block granularity, so a
                                // lost invocation left no partial state.
                                // Permanent abort: a device whose clock has
                                // crossed the scripted onset dies on the
                                // next block it claims, and that block leads
                                // the re-homed stream. (Judged before the
                                // claim, a device that had already drained
                                // its queue would quarantine itself with
                                // nothing in hand to re-home.) Transient
                                // failures draw deterministically from the
                                // plan and the block simply re-runs; each
                                // retry charges a doubling slice of
                                // simulated backoff, and past the budget the
                                // device is declared lost the same way.
                                if let Some(f) = fault_here {
                                    if abort_at.is_some_and(|at| clock.now() >= at) {
                                        f.quarantine(device_id);
                                    }
                                    let mut attempt = 0u32;
                                    while !f.is_quarantined(device_id) {
                                        let invocation = f.next_invocation(device_id);
                                        if !f.plan.transient_failure(
                                            device_id,
                                            clock.now(),
                                            invocation,
                                        ) {
                                            break;
                                        }
                                        if !config.fault.transient_retry
                                            || attempt >= TRANSIENT_RETRY_BUDGET
                                        {
                                            f.quarantine(device_id);
                                            break;
                                        }
                                        f.retries.fetch_add(1, Ordering::Relaxed);
                                        let backoff = TRANSIENT_RETRY_BASE_NS << attempt;
                                        let (_, end) = clock.reserve(SimTime::ZERO, backoff);
                                        last_end = last_end.max(end);
                                        attempt += 1;
                                    }
                                    if f.is_quarantined(device_id) {
                                        wake_siblings();
                                        {
                                            let mut kinds = per_kind.lock();
                                            let entry = kinds.entry(kind).or_default();
                                            entry.blocks += local_stats.blocks;
                                            entry.busy_ns += local_stats.busy_ns;
                                            entry.bytes_scanned += local_stats.bytes_scanned;
                                        }
                                        last_end = self.drain_on_survivor(
                                            f,
                                            &routing[idx],
                                            idx,
                                            slot_idx,
                                            stage_anonymous[idx],
                                            Some(block),
                                            &pipeline,
                                            &mut ctx,
                                            &queue,
                                            device_clocks,
                                            mem_move,
                                            staging_ref,
                                            staging_budget,
                                            cost,
                                            config,
                                            state,
                                            per_kind,
                                            graph_ref.wiring.feeds[idx],
                                            &|c, b| push_downstream(c, b),
                                            last_end,
                                        )?;
                                        return Ok(());
                                    }
                                }
                                let out = pipeline.process_block(&block, state, &mut ctx)?;
                                let (end, busy) =
                                    self.charge(&clock, &device_profile, &out.work, ready);
                                last_end = last_end.max(end);
                                last_busy = busy;
                                claim_yields = 0;
                                // Feed the straggler detector: what this
                                // block actually cost vs what the nominal
                                // model prices for the same work. The same
                                // observation feeds the shared per-device
                                // slowdown EWMA that routing projections
                                // consume (the calibration loop).
                                let nominal_ns =
                                    self.work_cost.time_ns(&out.work, &device_profile);
                                cost.observe(device_id.index(), busy, nominal_ns);
                                routing[idx].charged_busy[slot_idx]
                                    .fetch_add(busy, Ordering::Relaxed);
                                routing[idx].nominal_busy[slot_idx]
                                    .fetch_add(nominal_ns, Ordering::Relaxed);
                                routing[idx].processed[slot_idx].fetch_add(1, Ordering::Relaxed);
                                if steal_here && straggling() {
                                    wake_siblings();
                                }
                                if let Some(f) = fault_here {
                                    // The watchdog's stall detector reads
                                    // this: a wedged device stops ticking.
                                    f.note_progress(device_id);
                                }
                                local_stats.busy_ns += busy;
                                local_stats.blocks += 1;
                                local_stats.bytes_scanned += out.work.bytes_scanned;
                                // Actual per-stage selectivity observability:
                                // physical rows in and out of this stage.
                                progress[idx]
                                    .rows_in
                                    .fetch_add(out.counters.rows_in, Ordering::Relaxed);
                                progress[idx]
                                    .rows_out
                                    .fetch_add(out.counters.rows_emitted, Ordering::Relaxed);
                                // Lease-ordering rule: release the input
                                // block's staging charge before acquiring
                                // charges for its outputs. The data this
                                // worker still needs has been copied into its
                                // packed output buffers, so the consumed
                                // block's staging bytes are free the moment
                                // processing ends — and a worker that holds
                                // no lease while it parks on a downstream
                                // acquisition cannot be part of a hold-and-
                                // wait cycle.
                                drop(block);
                                for mut produced in out.blocks {
                                    produced.meta_mut().ready_at_ns = end.as_nanos();
                                    if let Some(consumer) = graph_ref.wiring.feeds[idx] {
                                        push_downstream(consumer, produced)?;
                                    }
                                }
                            }

                            // Flush partially filled packed outputs.
                            let out = pipeline.finalize_instance(&mut ctx)?;
                            if !out.work.is_empty() {
                                let (end, busy) =
                                    self.charge(&clock, &device_profile, &out.work, last_end);
                                last_end = last_end.max(end);
                                local_stats.busy_ns += busy;
                            }
                            // Rows flushed by the finalize pass (terminal
                            // emissions, partially filled packed outputs)
                            // count toward the stage's emitted rows; nothing
                            // *entered* during finalize.
                            progress[idx]
                                .rows_out
                                .fetch_add(out.counters.rows_emitted, Ordering::Relaxed);
                            for mut produced in out.blocks {
                                produced.meta_mut().ready_at_ns = last_end.as_nanos();
                                if let Some(consumer) = graph_ref.wiring.feeds[idx] {
                                    push_downstream(consumer, produced)?;
                                }
                            }

                            if trace {
                                eprintln!(
                                    "[trace] stage {idx} dev {device_id:?} blocks {} busy {:.1}ms last_end {} clock {}",
                                    local_stats.blocks,
                                    local_stats.busy_ns as f64 / 1e6,
                                    last_end,
                                    clock.now()
                                );
                            }
                            {
                                let mut kinds = per_kind.lock();
                                let entry = kinds.entry(kind).or_default();
                                entry.blocks += local_stats.blocks;
                                entry.busy_ns += local_stats.busy_ns;
                                entry.bytes_scanned += local_stats.bytes_scanned;
                            }
                            Ok(())
                        };
                        // A panic must not skip the completion protocol:
                        // without the worker_finished call the stage's
                        // remaining-count never reaches zero, dependent gates
                        // never open, and the whole query deadlocks instead
                        // of reporting the failure.
                        match catch_unwind(AssertUnwindSafe(run)) {
                            Ok(Ok(())) => {}
                            Ok(Err(e)) => {
                                record_error(e);
                                // Unblock the producer pushing into this
                                // worker and cascade shutdown upstream.
                                queue.close();
                            }
                            Err(_) => {
                                record_error(HetError::Execution(format!(
                                    "stage {idx} worker panicked"
                                )));
                                queue.close();
                            }
                        }
                        worker_finished(idx, last_end);
                    });
                }
            }
        });

        if let Some(err) = first_error.lock().take() {
            // Account the progress this attempt burned before failing — the
            // same completion fold the success path reports — so a degraded
            // restart can report honest all-attempt simulated time.
            let mut reached =
                progress.iter().map(|p| *p.completion.lock()).fold(SimTime::ZERO, SimTime::max);
            if graph.stages.iter().any(|s| s.has_router) {
                reached = reached.add_nanos(ROUTER_INIT_OVERHEAD.as_nanos());
            }
            *self.failed_sim_time.lock() = Some(reached);
            return Err(err);
        }

        let any_router = graph.stages.iter().any(|s| s.has_router);
        let mut sim_time =
            progress.iter().map(|p| *p.completion.lock()).fold(SimTime::ZERO, SimTime::max);
        if any_router {
            sim_time = sim_time.add_nanos(ROUTER_INIT_OVERHEAD.as_nanos());
        }

        let rows = std::mem::take(&mut *result_rows.lock());
        let per_kind = std::mem::take(&mut *per_kind.lock());
        // Return prefetched remote leases to their home arenas, then read the
        // per-node high-water marks for the staging-invariant tests.
        let staging_peaks = staging
            .as_ref()
            .map(|s| {
                s.flush_remote_caches();
                s.peaks()
            })
            .unwrap_or_default();
        // Leak check (after the flush): every handle was dropped and every
        // cached lease went home, so any byte still leased was stranded by
        // a recovery path — the chaos suite asserts this stays zero.
        let staging_leaked_bytes = staging.as_ref().map(|s| s.leased_bytes_total()).unwrap_or(0);
        Ok(ExecutionResult {
            rows,
            sim_time,
            wall_time: wall_start.elapsed(),
            per_kind,
            bytes_transferred: mem_move.dma().stats().bytes_moved,
            stage_timeline: progress.iter().map(StageProgress::timeline).collect(),
            stage_completion: progress.iter().map(|p| *p.completion.lock()).collect(),
            staging_peaks,
            blocks_stolen: progress
                .iter()
                .map(|p| p.blocks_stolen.load(Ordering::Relaxed))
                .collect(),
            remote_control_acquisitions: remote_ctl.load(Ordering::Relaxed),
            observed_slowdowns: observer.snapshot(),
            probed_constants: Arc::clone(&self.probed_constants),
            transient_retries: fault_state
                .as_ref()
                .map(|f| f.retries.load(Ordering::Relaxed))
                .unwrap_or(0),
            recovered_blocks: fault_state
                .as_ref()
                .map(|f| f.recovered.load(Ordering::Relaxed))
                .unwrap_or(0),
            staging_leaked_bytes,
            stage_rows: progress
                .iter()
                .map(|p| (p.rows_in.load(Ordering::Relaxed), p.rows_out.load(Ordering::Relaxed)))
                .collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::compile;
    use hetex_common::{ColumnData, DataType};
    use hetex_core::{parallelize, RelNode};
    use hetex_jit::{AggSpec, Expr, Step};
    use hetex_storage::TableBuilder;

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
        let topology = ServerTopology::paper_server();
        let catalog = catalog_with_data(&topology, rows);
        let het = parallelize(&join_sum_plan(), config).unwrap();
        let graph = compile(&het, config, &topology).unwrap();
        let executor = Executor::new(topology);
        executor.execute(&graph, &catalog, config).unwrap()
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
        // The pool is unharmed: the next query on the same executor runs.
        let het = parallelize(&join_sum_plan(), &config).unwrap();
        let graph = compile(&het, &config, &topology).unwrap();
        let (sum, cnt) = expected(10_000);
        assert_eq!(executor.execute(&graph, &catalog, &config).unwrap().rows, vec![vec![sum, cnt]]);
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
        config.staging_bytes = Some(budget);
        let governed = run(&config, 100_000);
        let (sum, cnt) = expected(100_000);
        assert_eq!(governed.rows, vec![vec![sum, cnt]]);
        assert!(!governed.staging_peaks.is_empty(), "governed mode reports per-node peaks");
        for (node, peak) in &governed.staging_peaks {
            assert!(peak <= &budget, "node {node} peaked at {peak} > budget {budget}");
        }
        assert!(
            governed.staging_peaks.iter().any(|(_, peak)| *peak > 0),
            "pipelined blocks must be backed by leases: no node ever staged bytes"
        );

        // Ungoverned mode (PR 1 behaviour) reports no peaks and agrees on rows.
        let ungoverned = run(&config.clone().with_staging_bytes(None), 100_000);
        assert!(ungoverned.staging_peaks.is_empty());
        assert_eq!(governed.rows, ungoverned.rows);
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
        config.staging_bytes = Some(1024);
        let executor = Executor::new(topology);
        let result = executor.execute(&graph, &catalog, &config).unwrap();
        let sum: i64 = (0..50_000i64).sum();
        assert_eq!(result.rows, vec![vec![sum, 50_000]]);
        for (node, peak) in &result.staging_peaks {
            assert!(*peak <= 1024, "node {node} peaked at {peak} > clamped budget 1024");
        }
    }

    #[test]
    fn stealing_rescues_a_straggler_and_preserves_rows() {
        // One GPU is a hidden 8x straggler: the router keeps pricing its
        // nominal profile, so its queue backs up. With stealing, siblings
        // drain the backlog; the rows must be identical either way and the
        // skewed run must get faster, not slower. Slowdown feedback is off so
        // that the backlog is structural: with it on, how much the router
        // queues behind the straggler before its first 8x observation lands
        // depends on how fast the host ran that first kernel, and a fast one
        // leaves nothing to steal.
        let topology = ServerTopology::paper_server();
        let slow_gpu = topology.gpus()[1];
        let skewed = topology.with_device_slowdown(slow_gpu, 8.0).unwrap();
        let catalog = catalog_with_data(&skewed, 200_000);
        let mut config = EngineConfig::hybrid(8, 2).with_calibration(
            hetex_common::CalibrationConfig::default().with_slowdown_feedback(false),
        );
        config.scale_weight = 20_000.0;
        let het = parallelize(&join_sum_plan(), &config).unwrap();
        let executor = Executor::new(Arc::clone(&skewed));

        // One freshly compiled graph per execution: the compiled graph owns
        // the query's shared state (hash tables, accumulators), which is
        // populated by a run. The end-to-end comparison uses the median of
        // three measurements per side — when stealing engages is wall-clock
        // sensitive (observed-slowdown EWMAs), so a single run under CPU
        // contention can land in a scheduler tail (the reopt/calib A/B bins
        // gate their acceptance bars the same way).
        let disabled_cfg = config.clone().with_steal_policy(hetex_common::StealPolicy::Disabled);
        let (sum, cnt) = expected(200_000);
        let mut stealing_times = Vec::new();
        let mut bound_times = Vec::new();
        for _ in 0..3 {
            let graph = compile(&het, &config, &skewed).unwrap();
            let stealing = executor.execute(&graph, &catalog, &config).unwrap();
            let graph = compile(&het, &disabled_cfg, &skewed).unwrap();
            let bound = executor.execute(&graph, &catalog, &disabled_cfg).unwrap();

            assert_eq!(stealing.rows, vec![vec![sum, cnt]]);
            assert_eq!(bound.rows, stealing.rows);
            assert!(bound.blocks_stolen.iter().all(|&s| s == 0), "disabled policy must not steal");
            assert!(
                stealing.blocks_stolen.iter().sum::<u64>() > 0,
                "idle siblings should have stolen from the straggler's backlog"
            );
            stealing_times.push(stealing.sim_time);
            bound_times.push(bound.sim_time);
        }
        stealing_times.sort_by(|a, b| a.partial_cmp(b).unwrap());
        bound_times.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(
            stealing_times[1] <= bound_times[1],
            "stealing (median {}) must not lose to binding (median {}) on a skewed topology",
            stealing_times[1],
            bound_times[1]
        );
    }

    #[test]
    fn feedback_routing_diverts_new_blocks_from_a_hidden_straggler() {
        use hetex_common::CalibrationConfig;
        // One GPU is a hidden 8x straggler and stealing is disabled, so the
        // only defence is the calibration loop: the straggler's observed
        // slowdown must grow past the detector threshold, and feedback
        // routing must beat nominal routing end-to-end with identical rows.
        let topology = ServerTopology::paper_server();
        let slow_gpu = topology.gpus()[1];
        let skewed = topology.with_device_slowdown(slow_gpu, 8.0).unwrap();
        let catalog = catalog_with_data(&skewed, 200_000);
        let mut config = EngineConfig::hybrid(8, 2);
        config.scale_weight = 20_000.0;
        config.steal_policy = hetex_common::StealPolicy::Disabled;
        let het = parallelize(&join_sum_plan(), &config).unwrap();
        let executor = Executor::new(Arc::clone(&skewed));

        let graph = compile(&het, &config, &skewed).unwrap();
        let calibrated = executor.execute(&graph, &catalog, &config).unwrap();
        let nominal_cfg = config.clone().with_calibration(CalibrationConfig::disabled());
        let graph = compile(&het, &nominal_cfg, &skewed).unwrap();
        let nominal = executor.execute(&graph, &catalog, &nominal_cfg).unwrap();

        let (sum, cnt) = expected(200_000);
        assert_eq!(calibrated.rows, vec![vec![sum, cnt]]);
        assert_eq!(nominal.rows, calibrated.rows);
        assert!(
            calibrated.sim_time < nominal.sim_time,
            "feedback routing ({}) must beat nominal routing ({}) on a skewed topology",
            calibrated.sim_time,
            nominal.sim_time
        );
        // The straggler's EWMA is observed in both runs (measurement is
        // always on; only the pricing is toggled).
        for result in [&calibrated, &nominal] {
            let observed = result.observed_slowdowns[slow_gpu.index()];
            assert!(observed > 1.5, "straggler EWMA {observed} never rose");
        }
        // Every healthy device reads exactly nominal.
        for (idx, &ewma) in calibrated.observed_slowdowns.iter().enumerate() {
            if DeviceId::new(idx) != slow_gpu {
                assert_eq!(ewma, 1.0, "device {idx} falsely observed as slow");
            }
        }
        // Every run surfaces the probe's constants; on the two-socket paper
        // server the measured round trip is non-zero.
        assert!(calibrated.probed_constants.control_plane_ns > 0);
    }

    #[test]
    fn cost_model_toggles_preserve_rows_and_measure_control_plane_traffic() {
        use hetex_common::CostModelConfig;
        let config = EngineConfig::hybrid(4, 2);
        let all_on = run(&config, 100_000);
        // A hybrid run pushes blocks across nodes (CPU DRAM to GPU consumers
        // at least), so control-plane traffic must be measured.
        assert!(
            all_on.remote_control_acquisitions > 0,
            "hybrid run saw no remote queue acquisitions"
        );
        // Rows are invariant under the estimation toggles: the cost model
        // only moves blocks between equivalent consumers.
        let all_off = run(&config.with_cost_model(CostModelConfig::disabled()), 100_000);
        assert_eq!(all_on.rows, all_off.rows);
        let (sum, cnt) = expected(100_000);
        assert_eq!(all_on.rows, vec![vec![sum, cnt]]);
        // Every run surfaces the per-device EWMAs (healthy here).
        assert!(!all_on.observed_slowdowns.is_empty());
        assert!(all_on.observed_slowdowns.iter().all(|&s| s >= 1.0));
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
    /// backlog can always be drained on a sibling.
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
        // rest of its stream — is re-executed on the surviving GPU. Stealing
        // is disabled so the takeover drain is the only rescue path.
        let plan = FaultPlan::new().abort_device(dead, SimTime::from_nanos(1));
        let config =
            EngineConfig::gpu_only(2).with_steal_policy(hetex_common::StealPolicy::Disabled);
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
    fn transient_kernel_failures_retry_in_place_and_preserve_rows() {
        let topology = ServerTopology::paper_server();
        let flaky = topology.cpu_cores()[0];
        // Every kernel invocation on the flaky core fails with p=0.5 for the
        // whole run; the retry budget absorbs almost all of them, and the
        // rare streak that exhausts it escalates to quarantine + drain — rows
        // are exact either way.
        let plan = FaultPlan::new().transient_window(
            flaky,
            SimTime::ZERO,
            SimTime::from_millis(60_000),
            0.5,
            42,
        );
        let config = EngineConfig::cpu_only(2);
        let faulted = run_faulted(&topology, &plan, &config, &scan_sum_plan(), 200_000).unwrap();
        let sum: i64 = (0..200_000i64).sum();
        assert_eq!(faulted.rows, vec![vec![sum, 200_000]]);
        assert!(faulted.transient_retries > 0, "p=0.5 over ~50 blocks must hit at least once");
        assert_eq!(faulted.staging_leaked_bytes, 0);

        // With in-place retry switched off, the first transient failure
        // escalates straight to quarantine; the drain still saves the rows.
        let no_retry_cfg = config
            .clone()
            .with_fault(hetex_common::FaultConfig::default().with_transient_retry(false));
        let escalated =
            run_faulted(&topology, &plan, &no_retry_cfg, &scan_sum_plan(), 200_000).unwrap();
        assert_eq!(escalated.rows, faulted.rows);
        assert_eq!(escalated.transient_retries, 0);
    }

    #[test]
    fn a_wedged_worker_is_detected_by_the_watchdog_and_drained() {
        let topology = ServerTopology::paper_server();
        let stuck = topology.gpus()[1];
        let plan = FaultPlan::new().wedge_worker(stuck, SimTime::from_nanos(1));
        let config =
            EngineConfig::gpu_only(2).with_steal_policy(hetex_common::StealPolicy::Disabled);
        let recovered = run_faulted(&topology, &plan, &config, &scan_sum_plan(), 50_000).unwrap();
        let sum: i64 = (0..50_000i64).sum();
        assert_eq!(recovered.rows, vec![vec![sum, 50_000]]);
        assert_eq!(recovered.staging_leaked_bytes, 0);

        // Same wedge with quarantine off: the watchdog can only convert the
        // hang into a structured `Wedged` failure.
        let no_quarantine = config.clone().with_fault(
            hetex_common::FaultConfig::default()
                .with_quarantine(false)
                .with_degraded_restart(false),
        );
        let err =
            run_faulted(&topology, &plan, &no_quarantine, &scan_sum_plan(), 50_000).unwrap_err();
        assert_eq!(err.category(), "wedged", "got: {err}");

        // With the watchdog disabled the wedge is never injected at all: no
        // configuration of the fault ladder may turn into an untestable hang.
        let no_watchdog =
            config.clone().with_fault(hetex_common::FaultConfig::default().with_watchdog(false));
        let untouched =
            run_faulted(&topology, &plan, &no_watchdog, &scan_sum_plan(), 50_000).unwrap();
        assert_eq!(untouched.rows, recovered.rows);
    }

    #[test]
    fn device_loss_without_quarantine_is_a_structured_error() {
        let topology = ServerTopology::paper_server();
        let dead = topology.gpus()[1];
        let plan = FaultPlan::new().abort_device(dead, SimTime::ZERO);
        let config = EngineConfig::gpu_only(2).with_fault(hetex_common::FaultConfig::disabled());
        let err = run_faulted(&topology, &plan, &config, &scan_sum_plan(), 50_000).unwrap_err();
        match err {
            HetError::DeviceLost { device, .. } => assert_eq!(device, dead.index()),
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
        config.staging_bytes = Some(budget);
        // The burst grabs up to half the arena for the first simulated 50ms;
        // producers park, the clocks advance past the window, the watchdog
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
