//! The router (§3.1): per-stage routing state, block cost projections,
//! routing plus mem-move localization, the single downstream hand-off every
//! producer uses, and adaptive re-routing (work stealing).

use super::movement::{Claimed, Routed};
use super::worker::Wait;
use super::QueryRun;
use crate::codegen::{MemMoveMode, Stage};
use hetex_common::{BlockHandle, HetError, MemoryNodeId, Result};
use hetex_core::cost::StealQuery;
use hetex_core::plan::RouterPolicy;
use hetex_core::queue::BlockQueue;
use hetex_core::router::{LoadEstimator, Router};
use hetex_topology::{
    DeviceId, DeviceKind, DeviceProfile, LinkId, MemoryNodeSpec, ResourceClock, ServerTopology,
    WorkProfile,
};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::task::Waker;

/// Filter selectivity the router assumes when estimating a block's cost for
/// load balancing (it cannot know real selectivities up front).
const ASSUMED_SELECTIVITY: f64 = 0.3;

/// Minimum backlog depth a sibling queue must hold before it can be stolen
/// from. Two is the smallest depth where theft is guaranteed progress: the
/// victim keeps its head block (the one it pops next anyway) and the thief
/// takes work that would otherwise wait behind it — a depth-1 queue would
/// only invite ping-pong.
pub(super) const STEAL_MIN_DEPTH: usize = 2;

thread_local! {
    /// The per-consumer costs and projections of every block a thread routes.
    static PROJECTION: RefCell<Projection> = RefCell::default();
}

#[derive(Default)]
struct Projection {
    /// `(device_ns, node_ns)` per consumer (see [`QueryRun::consumer_cost`]).
    costs: Vec<(u64, u64)>,
    projected: Vec<u64>,
}

/// What routing prices one block by on every consumer, computed once per
/// block: the block's estimated work at each kernel shape, and where its
/// data lives.
pub(super) struct BlockEstimate {
    cpu_work: WorkProfile,
    gpu_work: WorkProfile,
    location: MemoryNodeId,
    weighted_bytes: f64,
}

/// A task's emitted blocks on their way downstream (see
/// [`QueryRun::deliver`]). Blocks are routed one at a time, in order; the
/// routed head keeps its pick, its localized copy and the part of its
/// staging charge acquired so far, so a head held back is retried without
/// being routed or moved a second time.
#[derive(Default)]
pub(super) struct Outbox {
    queued: VecDeque<(usize, BlockHandle)>,
    head: Option<Routed>,
}

impl Outbox {
    /// Queue `block` for delivery to stage `consumer`.
    pub(super) fn push(&mut self, consumer: usize, block: BlockHandle) {
        self.queued.push_back((consumer, block));
    }
}

/// Outcome of one steal attempt (see [`QueryRun::steal_for`]).
pub(super) enum StealOutcome {
    /// A block was stolen and handed to the thief.
    Stolen(Claimed),
    /// A sibling has stealable backlog, but moving its tail to this thief
    /// would finish later than leaving it — worth re-checking once the
    /// victim's clock has advanced.
    Unprofitable,
    /// No sibling holds enough backlog to steal from.
    Nothing,
}

/// Routing state of one stage, shared by every producer pushing into it:
/// the router, the per-consumer devices/memory nodes, and the lock-free load
/// estimates driving the least-loaded policy.
pub(super) struct StageRouting<'a> {
    pub(super) stage: &'a Stage,
    router: Router<'a>,
    pub(super) instance_devices: Vec<DeviceId>,
    pub(super) instance_nodes: Vec<MemoryNodeId>,
    /// The static pricing terms of each consumer, looked up once per query
    /// instead of once per block: its device profile, its memory node's
    /// bandwidth, and the route to its node from each source memory node.
    profiles: Vec<&'a DeviceProfile>,
    node_bandwidth_gbps: Vec<f64>,
    routes: Vec<Vec<&'a [LinkId]>>,
    /// Lanes lingering on an unprofitable backlog (see
    /// [`QueryRun::release_lingering`]).
    lingering: AtomicUsize,
    /// Dense index of each consumer's memory node into `node_load`.
    node_index: Vec<usize>,
    /// Per-consumer load estimates (device time committed per routed block).
    pub(super) est: LoadEstimator,
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
    /// Per-consumer nanoseconds actually charged to the device clock, and
    /// the count of blocks they were charged for: `charged_busy / processed`
    /// is a consumer's observed average block cost, which the steal
    /// profitability pre-check (run *before* a block leaves the victim's
    /// queue — see [`QueryRun::steal_for`]) and the watchdog budget price
    /// with, so a hidden straggler is priced by what it *did*, not what the
    /// estimates promised.
    pub(super) charged_busy: Vec<AtomicU64>,
    pub(super) processed: Vec<AtomicU64>,
}

impl<'a> StageRouting<'a> {
    pub(super) fn new(topology: &'a ServerTopology, stage: &'a Stage) -> Result<Self> {
        let router = Router::new(stage.policy, &stage.consumers)?;
        let instance_devices: Vec<DeviceId> = router
            .consumer_devices()
            .into_iter()
            .map(|device| {
                device.ok_or_else(|| {
                    HetError::Execution("consumer slot without a device affinity".into())
                })
            })
            .collect::<Result<Vec<_>>>()?;
        let instance_nodes: Vec<MemoryNodeId> = instance_devices
            .iter()
            .map(|&d| topology.local_memory_of(d))
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
        let profiles =
            instance_devices.iter().map(|&d| topology.device(d)).collect::<Result<Vec<_>>>()?;
        let node_bandwidth_gbps = instance_nodes
            .iter()
            .map(|&node| topology.memory_node(node).map(|m| m.bandwidth_gbps))
            .collect::<Result<Vec<_>>>()?;
        let routes = instance_nodes
            .iter()
            .map(|&to| {
                let route = |from: &MemoryNodeSpec| topology.route(from.id, to).unwrap_or(&[]);
                topology.memory_nodes().iter().map(route).collect()
            })
            .collect();
        let counters = || (0..stage.consumers.len()).map(|_| AtomicU64::new(0)).collect();
        Ok(StageRouting {
            stage,
            router,
            instance_devices,
            instance_nodes,
            profiles,
            node_bandwidth_gbps,
            routes,
            lingering: AtomicUsize::new(0),
            node_index,
            est: LoadEstimator::new(stage.consumers.len()),
            node_load: (0..distinct_nodes.len()).map(|_| AtomicU64::new(0)).collect(),
            est_selectivity,
            est_probes_per_row,
            charged_busy: counters(),
            processed: counters(),
        })
    }

    /// Whether a block may move between this stage's consumers after routing
    /// (a steal or a takeover): only when routing was anonymous to begin
    /// with. Broadcast-target blocks are bound to their consumer (explicit
    /// copies), and a single-consumer stage has no sibling to move to.
    pub(super) fn rehomeable(&self) -> bool {
        self.stage.consumers.len() > 1
            && matches!(self.stage.policy, RouterPolicy::RoundRobin | RouterPolicy::LeastLoaded)
    }

    /// Observed average charged cost per block of consumer `slot`, or `None`
    /// until it has processed anything.
    pub(super) fn observed_avg_cost(&self, slot: usize) -> Option<u64> {
        let blocks = self.processed[slot].load(Ordering::Relaxed);
        if blocks == 0 {
            return None;
        }
        Some(self.charged_busy[slot].load(Ordering::Relaxed) / blocks)
    }

    /// Move `from`'s `(device_ns, node_ns)` of committed load to `to`'s.
    pub(super) fn move_commit(
        &self,
        (from, from_cost): (usize, (u64, u64)),
        (to, to_cost): (usize, (u64, u64)),
    ) {
        self.est.decommit(from, from_cost.0);
        self.est.commit(to, to_cost.0);
        let _ = self.node_load[self.node_index[from]].fetch_update(
            Ordering::Relaxed,
            Ordering::Relaxed,
            |v| Some(v.saturating_sub(from_cost.1)),
        );
        self.node_load[self.node_index[to]].fetch_add(to_cost.1, Ordering::Relaxed);
    }

    /// Count the calling lane as lingering until the guard drops.
    pub(super) fn linger(&self) -> Lingering<'_> {
        self.lingering.fetch_add(1, Ordering::SeqCst);
        Lingering(&self.lingering)
    }
}

/// A lane's membership in its stage's lingering count.
pub(super) struct Lingering<'r>(&'r AtomicUsize);

impl Drop for Lingering<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

impl QueryRun<'_> {
    /// Whether mem-move must copy a block at `location` for consumer `slot`
    /// of `stage`: only when the stage moves data at all and the consumer
    /// cannot address the block directly. GPU consumers need device-resident
    /// data, and no CPU core can address GPU device memory; CPU consumers
    /// read remote NUMA DRAM directly (at a penalty already captured by the
    /// socket DRAM clocks).
    pub(super) fn needs_move(&self, stage: usize, slot: usize, location: MemoryNodeId) -> bool {
        let routing = &self.routing[stage];
        if routing.stage.mem_move == MemMoveMode::None || location == routing.instance_nodes[slot] {
            return false;
        }
        let consumer_is_gpu = routing.stage.consumers[slot].kind == DeviceKind::Gpu;
        let block_on_gpu =
            self.exec.topology.memory_node(location).map(|m| m.is_gpu_memory()).unwrap_or(false);
        consumer_is_gpu || block_on_gpu
    }

    /// The consumer-independent half of a block's routing estimate: its
    /// work under an assumed filter selectivity (see
    /// [`Self::consumer_cost`]), at both kernel shapes, and its location.
    pub(super) fn block_estimate(&self, stage: usize, handle: &BlockHandle) -> BlockEstimate {
        let routing = &self.routing[stage];
        let rows = handle.rows() as u64;
        let counters = hetex_jit::BlockCounters {
            rows_in: rows,
            rows_terminal: (rows as f64 * routing.est_selectivity) as u64,
            probes: (rows as f64 * routing.est_probes_per_row) as u64,
            probe_matches: (rows as f64 * routing.est_probes_per_row * ASSUMED_SELECTIVITY) as u64,
            bytes_in: handle.byte_size() as u64,
            ..Default::default()
        };
        // Estimate each consumer kind at the kernel shape it is charged: CPU
        // consumers dispatch per chunk, GPU consumers per thread. Pricing
        // both kinds with one shape would skew the device comparison — the
        // chunked estimate under-prices GPUs, steering blocks onto them that
        // cost more than projected.
        let template = routing.stage.template(DeviceKind::CpuCore);
        let [cpu_work, gpu_work] = [DeviceKind::CpuCore, DeviceKind::Gpu]
            .map(|kind| template.work_profile_on(kind, &counters, handle.meta().weight));
        BlockEstimate {
            cpu_work,
            gpu_work,
            location: handle.meta().location,
            weighted_bytes: handle.weighted_bytes(),
        }
    }

    /// Estimated cost of a block on consumer `i` of `stage`: the same
    /// work/cost model the executor charges, evaluated with an assumed filter
    /// selectivity, throttled to PCIe speed when the data would have to move.
    /// Returns `(device_ns, memory_node_ns)` — the two backlogs the
    /// least-loaded policy balances.
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
    /// and handed them pre-gate blocks they could not start anyway; hiding
    /// it entirely would erase both data affinity and link saturation. The
    /// split keeps all three signals.
    pub(super) fn consumer_cost(
        &self,
        stage: usize,
        i: usize,
        block: &BlockEstimate,
        pending_gate_ns: Option<u64>,
    ) -> (u64, u64) {
        let (routing, topology, cost) = (&self.routing[stage], &self.exec.topology, &self.cost);
        let est_work = match routing.stage.consumers[i].kind {
            DeviceKind::CpuCore => &block.cpu_work,
            DeviceKind::Gpu => &block.gpu_work,
        };
        let mut block_ns = self.exec.work_cost.time_ns(est_work, routing.profiles[i]) as f64;
        let mut transfer_axis_ns = 0u64;
        if self.needs_move(stage, i, block.location) {
            // Price the DMA at the bottleneck link of the actual route
            // (successive blocks pipeline across hops, so the sustained
            // rate is the slowest link's, not the hop-latency sum). This
            // respects per-link bandwidth overrides in the topology, and
            // uses each link's effective rate, which the topology derived
            // from its declared width and latency when it was built.
            let transfer_ns = routing.routes[i]
                .get(block.location.index())
                .copied()
                .unwrap_or_default()
                .iter()
                .map(|&l| topology.transfer_estimate_ns(l, block.weighted_bytes))
                .max()
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
        let mem =
            (est_work.memory_node_bytes() / (routing.node_bandwidth_gbps[i] * 1e9) * 1e9) as u64;
        // Pushing to an off-node consumer acquires its queue mutex
        // across the interconnect — control-plane traffic priced on the
        // node axis.
        let remote = routing.instance_nodes[i] != block.location;
        let control_ns = if remote { topology.control_plane_ns() } else { 0 };
        (block_ns as u64, mem.saturating_add(transfer_axis_ns).saturating_add(control_ns))
    }

    /// Route one block to a consumer of `stage` and localize it via
    /// mem-move; the block's readiness is not floored, so transfers overlap
    /// upstream compute. Each consumer node's arena occupancy is priced
    /// into the projection so routing steers away from memory-starved
    /// nodes, and ties prefer consumers already local to the block
    /// (NUMA-aware placement).
    ///
    /// The projection is gate-aware (see [`Self::gate_estimate`]): the
    /// estimated gate opening shifts every consumer's projection to an
    /// absolute completion estimate, and a still-closed gate discounts the
    /// DMA of transfer-bound consumers (the transfer is scheduled now and
    /// hidden by the gate — see [`Self::consumer_cost`]), so compute-bound
    /// consumers of gated probe stages stop collecting pre-gate blocks they
    /// cannot start anyway.
    ///
    /// Under a fault plan, quarantined consumers are poisoned out of the
    /// projection and a pick that still lands on one (round-robin ignores
    /// projections) is redirected to the cheapest surviving sibling — when
    /// the stage routes anonymously. A bound stage whose consumer died
    /// cannot re-home the block, so routing surfaces a structured
    /// [`HetError::DeviceLost`] and the engine's degraded-restart ladder
    /// takes over.
    ///
    /// Returns `(consumer index, localized handle)`.
    fn route_and_localize(
        &self,
        stage: usize,
        handle: BlockHandle,
    ) -> Result<(usize, BlockHandle)> {
        let (routing, cost) = (&self.routing[stage], &self.cost);
        let (gate_ns, gate_pending) = self.gate_estimate(stage);
        let block = self.block_estimate(stage, &handle);
        let dead = |i: usize| {
            self.fault.as_ref().is_some_and(|f| f.is_quarantined(routing.instance_devices[i]))
        };
        let (pick, (device_ns, node_ns)) = PROJECTION.with(|projection| {
            let Projection { costs, projected } = &mut *projection.borrow_mut();
            costs.clear();
            projected.clear();
            for (i, &node) in routing.instance_nodes.iter().enumerate() {
                let (device_ns, node_ns) =
                    self.consumer_cost(stage, i, &block, gate_pending.then_some(gate_ns));
                costs.push((device_ns, node_ns));
                // Quarantined consumers project as unusable (u64::MAX).
                if dead(i) {
                    projected.push(u64::MAX);
                    continue;
                }
                // A block routed to a starved node would hold its producer
                // back on a lease: price the node arena's occupancy.
                let penalty = self
                    .staging
                    .occupancy(node)
                    .map_or(0, |o| cost.occupancy_penalty_ns(device_ns, o));
                // Observed-slowdown feedback: a device seen straggling
                // projects expensive; exactly 1.0 for healthy devices.
                let slowdown = cost.observed_device_slowdown(routing.instance_devices[i].index());
                let dev = routing.est.project(i, device_ns, penalty, gate_ns, slowdown);
                // The completion from the two backlogs the executor charges
                // (device and memory node), composed by the cost model.
                let node_backlog = routing.node_load[routing.node_index[i]].load(Ordering::Relaxed);
                projected.push(cost.compose_projection(
                    dev,
                    node_backlog.saturating_add(node_ns),
                    node == block.location,
                    true,
                ));
            }
            let mut pick = routing.router.route(handle.meta(), projected)?;
            if dead(pick) {
                // Round-robin ignores projections, and least-loaded must
                // pick something when every consumer is poisoned: an
                // anonymous block goes to the cheapest survivor, a bound one
                // has nowhere sound to go.
                pick = routing
                    .rehomeable()
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
                        stage,
                        block: 0,
                    })?;
            }
            Ok::<_, HetError>((pick, costs[pick]))
        })?;
        routing.est.commit(pick, device_ns);
        routing.node_load[routing.node_index[pick]].fetch_add(node_ns, Ordering::Relaxed);

        // Broadcast the dimension data to every GPU memory node (so probes
        // on GPUs read local data), and hand the local copy to the building
        // instance.
        if routing.stage.mem_move == MemMoveMode::Broadcast && !self.gpu_nodes.is_empty() {
            self.mem_move.broadcast(&handle, &self.gpu_nodes)?;
        }
        let localized = if self.needs_move(stage, pick, handle.meta().location) {
            self.mem_move.relocate(&handle, routing.instance_nodes[pick])?
        } else {
            handle
        };
        Ok((pick, localized))
    }

    /// Deliver `outbox` in order — the single downstream hand-off shared by
    /// source pumps, lanes, finalize flushes and terminal emissions. Each
    /// block is routed and localized once, then backed by a staging charge
    /// and pushed (see [`Self::advance`]): the bounded queue, the byte quota
    /// and a dry arena all exert back-pressure here. `Ok(None)` once the
    /// outbox is empty; otherwise what holds its head back, with `waker`
    /// registered there.
    pub(super) fn deliver(&self, outbox: &mut Outbox, waker: &Waker) -> Result<Option<Wait>> {
        loop {
            let routed = match outbox.head.take() {
                Some(routed) => routed,
                None => {
                    let Some((consumer, block)) = outbox.queued.pop_front() else {
                        return Ok(None);
                    };
                    let source = block.meta().location;
                    let (pick, localized) = self.route_and_localize(consumer, block)?;
                    self.routed(consumer, pick, source, localized)
                }
            };
            if let Some((held, wait)) = self.advance(routed, waker)? {
                outbox.head = Some(held);
                return Ok(Some(wait));
            }
        }
    }

    /// Adaptive re-routing: try to steal one block for the worker at slot
    /// `thief` of `stage` from the most-loaded sibling whose backlog holds
    /// at least [`STEAL_MIN_DEPTH`] blocks. A thief with a backlog of its
    /// own prices the stolen block behind it, and leaves a quarantined
    /// sibling's backlog to idle lanes and the takeover drain.
    ///
    /// Profitability is judged on the **device clocks** and **observed
    /// average block costs**, not the routing estimator: both carry every
    /// nanosecond actually charged, so they are the only place an unforeseen
    /// straggler (a slowdown the cost model did not price) is visible — the
    /// paper's feedback signal. The stolen tail block would complete on the
    /// victim no earlier than `victim_clock + backlog × victim_avg_cost`,
    /// and on the thief once the thief's own backlog and the block are
    /// done, at `thief_clock + (own backlog + 1) × thief_avg_cost` (one block
    /// more as hysteresis: near equilibrium a steal only duplicates what
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
    /// them (a straggler is only detectable after it has straggled). A
    /// consummated steal hands the block over with [`Self::rehome`].
    pub(super) fn steal_for(
        &self,
        stage: usize,
        thief: usize,
        thief_clock: &ResourceClock,
    ) -> Result<StealOutcome> {
        let (routing, queues, cost) = (&self.routing[stage], &self.queues[stage], &self.cost);
        let dead = |slot: usize| {
            self.fault.as_ref().is_some_and(|f| f.is_quarantined(routing.instance_devices[slot]))
        };
        let own_backlog = queues[thief].len();
        let mut best: Option<(usize, usize)> = None;
        for (slot, queue) in queues.iter().enumerate() {
            if slot == thief || (own_backlog > 0 && dead(slot)) {
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
            if !cost.is_straggler(routing.instance_devices[victim].index()) {
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
            let thief_clock_ns = thief_clock.now().as_nanos();
            let data_location =
                queues[victim].tail_location().unwrap_or(routing.instance_nodes[victim]);
            let thief_node = routing.instance_nodes[thief];
            let topology = &self.exec.topology;
            let congestion_ns = if self.needs_move(stage, thief, data_location) {
                cost.link_congestion_ns(topology, data_location, thief_node, thief_clock_ns)
            } else {
                0
            };
            let query = StealQuery {
                victim_clock_ns: self
                    .device_clocks
                    .get(&routing.instance_devices[victim])
                    .map(|c| c.now().as_nanos())
                    .unwrap_or(0),
                victim_avg_ns: victim_avg,
                backlog_depth: depth as u64,
                thief_clock_ns,
                thief_avg_ns: thief_avg,
                thief_backlog: own_backlog as u64,
                congestion_ns,
            };
            let profitable = cost.steal_profitable(&query);
            if self.trace_steal {
                eprintln!(
                    "[steal] thief {thief} victim {victim} {query:?} outstanding {:.0}B \
                     slowdown {:.2} -> {}",
                    cost.outstanding_link_bytes(
                        topology,
                        data_location,
                        thief_node,
                        thief_clock_ns
                    ),
                    cost.observed_device_slowdown(routing.instance_devices[victim].index()),
                    if profitable { "steal" } else { "unprofitable" }
                );
            }
            if !profitable {
                return Ok(StealOutcome::Unprofitable);
            }
        }

        // The victim may have drained (or been closed) since the scan; a
        // failed steal is simply "nothing to do", never an error.
        let Some(block) = queues[victim].steal() else { return Ok(StealOutcome::Nothing) };
        Ok(StealOutcome::Stolen(self.rehome(stage, victim, thief, block)?))
    }

    /// Whether a sibling of `thief` is an observed straggler or quarantined:
    /// the only victims [`Self::steal_for`] takes a block from.
    pub(super) fn has_steal_victim(&self, stage: usize, thief: usize) -> bool {
        let routing = &self.routing[stage];
        (0..routing.instance_devices.len()).any(|slot| {
            slot != thief
                && (self.cost.is_straggler(routing.instance_devices[slot].index())
                    || self
                        .fault
                        .as_ref()
                        .is_some_and(|f| f.is_quarantined(routing.instance_devices[slot])))
        })
    }

    /// Whether `queue` of `stage`, having just popped, must wake its
    /// siblings: a lane whose stream is over may linger on its backlog,
    /// judged unprofitable, and below [`STEAL_MIN_DEPTH`] that verdict
    /// turns to `Nothing`, on which the lane finishes. The lane raises the
    /// count before its scan, which reads each depth under the queue's
    /// mutex, so a pop its scan missed sees the count (DESIGN.md §4.3).
    pub(super) fn release_lingering(&self, stage: usize, queue: &BlockQueue) -> bool {
        self.routing[stage].lingering.load(Ordering::SeqCst) > 0 && queue.len() < STEAL_MIN_DEPTH
    }
}

#[cfg(test)]
mod tests {
    use super::super::Executor;
    use super::*;
    use crate::codegen::{compile, StageGraph};
    use hetex_common::{Block, BlockId, BlockMeta, ColumnData, EngineConfig};
    use hetex_core::{parallelize, RelNode};
    use hetex_jit::{AggSpec, Expr};
    use hetex_storage::Catalog;
    use hetex_topology::TopologyBuilder;
    use std::sync::Arc;
    use std::time::Instant;

    /// Consumer `i`'s price from direct topology lookups, once per block —
    /// what routing paid before the static terms were precomputed.
    fn priced_by_lookup(
        run: &QueryRun<'_>,
        stage: usize,
        i: usize,
        block: &BlockEstimate,
        pending_gate_ns: Option<u64>,
    ) -> (u64, u64) {
        let (routing, topology, cost) = (&run.routing[stage], &run.exec.topology, &run.cost);
        let node = routing.instance_nodes[i];
        let work = match routing.stage.consumers[i].kind {
            DeviceKind::CpuCore => &block.cpu_work,
            DeviceKind::Gpu => &block.gpu_work,
        };
        let device = topology.device(routing.instance_devices[i]).unwrap();
        let mut device_ns = run.exec.work_cost.time_ns(work, device);
        let mut transfer_axis_ns = 0;
        if run.needs_move(stage, i, block.location) {
            let transfer_ns = topology
                .route(block.location, node)
                .unwrap()
                .iter()
                .map(|&l| topology.transfer_estimate_ns(l, block.weighted_bytes))
                .max()
                .unwrap_or(0);
            let spill = match pending_gate_ns {
                Some(gate_ns) => {
                    let backlog = routing.node_load[routing.node_index[i]].load(Ordering::Relaxed);
                    let (spill, node_axis) =
                        cost.gated_transfer_split(transfer_ns, gate_ns, backlog);
                    transfer_axis_ns = node_axis;
                    spill
                }
                None => transfer_ns,
            };
            device_ns = device_ns.max(spill);
        }
        let gbps = topology.memory_node(node).unwrap().bandwidth_gbps;
        let mem_ns = (work.memory_node_bytes() / (gbps * 1e9) * 1e9) as u64;
        let control_ns = if node == block.location { 0 } else { topology.control_plane_ns() };
        (device_ns, mem_ns + transfer_axis_ns + control_ns)
    }

    /// A hybrid join over every core and GPU of `topology`, compiled.
    fn hybrid_join(topology: &Arc<ServerTopology>) -> (EngineConfig, StageGraph) {
        let config = EngineConfig::hybrid(topology.cpu_cores().len(), topology.gpus().len());
        let dim = RelNode::scan("dim", &["k", "attr"]).filter(Expr::col(1).lt_lit(3));
        let plan = RelNode::scan("fact", &["key", "value"])
            .hash_join(dim, 0, 0, &[1])
            .reduce(vec![AggSpec::sum(Expr::col(1))], &["sum_v"]);
        let graph = compile(&parallelize(&plan, &config).unwrap(), &config, topology).unwrap();
        (config, graph)
    }

    fn block_at(source: MemoryNodeId, rows: usize) -> BlockHandle {
        let block = Block::new(vec![ColumnData::Int64(vec![7; rows])], rows).unwrap();
        BlockHandle::new(block, BlockMeta::new(BlockId::new(0), source))
    }

    /// Every (source node, consumer) pair of every stage of a hybrid join,
    /// at several block sizes, with and without a pending gate.
    fn assert_terms_match_lookups(topology: Arc<ServerTopology>) {
        let (config, graph) = hybrid_join(&topology);
        let exec = Executor::new(Arc::clone(&topology));
        let catalog = Catalog::new();
        let run = QueryRun::new(&exec, &graph, &catalog, &config, Instant::now()).unwrap();
        let mut priced = 0;
        for stage in 0..graph.stages.len() {
            for source in topology.memory_nodes().iter().map(|m| m.id) {
                for rows in [1, 700, 4096] {
                    let estimate = run.block_estimate(stage, &block_at(source, rows));
                    for i in 0..run.routing[stage].instance_nodes.len() {
                        for gate in [None, Some(0), Some(2_000_000)] {
                            assert_eq!(
                                run.consumer_cost(stage, i, &estimate, gate),
                                priced_by_lookup(&run, stage, i, &estimate, gate),
                                "stage {stage} consumer {i} from {source}, {rows} rows, gate {gate:?}"
                            );
                            priced += 1;
                        }
                    }
                }
            }
        }
        assert!(priced > 0);
    }

    #[test]
    fn precomputed_routing_terms_price_like_direct_lookups() {
        assert_terms_match_lookups(ServerTopology::paper_server());
        // Random multi-socket, multi-GPU servers whose PCIe links run
        // slower than the 30 GB/s inter-socket link in some cases and
        // faster in others, so each link kind is a route's bottleneck
        // somewhere.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |bound: u64| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % bound
        };
        for _ in 0..4 {
            let sockets = 2 + next(3) as usize;
            let mut builder = TopologyBuilder::new();
            for _ in 0..sockets {
                builder.add_socket(1 + next(3) as usize);
            }
            for gpu in 0..2 + next(3) as usize {
                builder.add_gpu((gpu + next(2) as usize) % sockets);
            }
            builder.pcie_bandwidth_gbps(1.0 + next(120) as f64 / 2.0);
            assert_terms_match_lookups(Arc::new(builder.build().unwrap()));
        }
    }

    #[test]
    fn control_plane_term_prices_remote_pushes_only() {
        // One CPU consumer, the same block from its own node and from every
        // other: only the off-node pushes pay the topology's round trip,
        // on the node axis.
        for topology in [ServerTopology::paper_server(), ServerTopology::custom_server(1, 4, 1)] {
            let (config, graph) = hybrid_join(&topology);
            let exec = Executor::new(Arc::clone(&topology));
            let catalog = Catalog::new();
            let run = QueryRun::new(&exec, &graph, &catalog, &config, Instant::now()).unwrap();
            let stage = graph.stages.len() - 1;
            let routing = &run.routing[stage];
            let i = routing.stage.consumers.iter().position(|c| c.kind == DeviceKind::CpuCore);
            let i = i.unwrap();
            let own = routing.instance_nodes[i];
            let node_ns = |source| {
                let estimate = run.block_estimate(stage, &block_at(source, 700));
                run.consumer_cost(stage, i, &estimate, None).1
            };
            for source in topology.cpu_memory_nodes() {
                let expected = if source == own { 0 } else { topology.control_plane_ns() };
                assert_eq!(node_ns(source) - node_ns(own), expected, "from {source} to {own}");
            }
        }
        // The paper server's remote pushes pay a non-zero round trip, so
        // the loop above tells them apart from local ones.
        assert_eq!(ServerTopology::paper_server().control_plane_ns(), 1_004);
    }
}
