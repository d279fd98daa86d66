//! The router (§3.1): per-stage routing state, block cost projections,
//! routing plus mem-move localization, and the single downstream hand-off
//! every producer uses — also for a block re-routed off a straggler or a
//! quarantined device, so routing is the one placement decision.

use super::movement::{withdraw, Routed};
use super::worker::Wait;
use super::QueryRun;
use crate::codegen::{MemMoveMode, Stage};
use hetex_common::{BlockHandle, BlockMeta, HetError, MemoryNodeId, Result};
use hetex_core::plan::RouterPolicy;
use hetex_core::router::{LoadEstimator, Router};
use hetex_topology::{
    DeviceId, DeviceKind, DeviceProfile, LinkId, MemoryNodeSpec, ServerTopology, WorkProfile,
};
use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::task::Waker;

/// Filter selectivity the router assumes when estimating a block's cost for
/// load balancing (it cannot know real selectivities up front).
const ASSUMED_SELECTIVITY: f64 = 0.3;

thread_local! {
    /// The per-class prices and per-consumer projections of every block a
    /// thread routes.
    static PROJECTION: RefCell<Projection> = RefCell::default();
}

#[derive(Default)]
struct Projection {
    /// One price per pricing class (see [`QueryRun::price_classes`]).
    prices: Vec<Price>,
    projected: Vec<u64>,
}

/// What one block costs every consumer of a pricing class: `(device_ns,
/// node_ns)` (see [`QueryRun::class_cost`]), the class node's arena
/// occupancy penalty on the device axis, the node axis of the projection
/// (the node's backlog plus `node_ns`), and whether the block is on the
/// class's node already.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Price {
    cost: (u64, u64),
    penalty: u64,
    node_axis: u64,
    local: bool,
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

/// Host routing work counted by one task: blocks routed and class prices
/// evaluated. Merged into the run's [`HostCounts`](super::HostCounts) when
/// the task ends.
#[derive(Default)]
pub(super) struct RouteCounts {
    pub(super) evals: u64,
    pub(super) blocks: u64,
}

/// A task's emitted and re-routed blocks on their way into a stage (see
/// [`QueryRun::deliver`]), each with the consumer slot it was withdrawn
/// from when it is a re-route. Blocks are routed one at a time, in order;
/// the routed head keeps its pick, its localized copy and the part of its
/// staging charge acquired so far, so a head held back is retried without
/// being routed or moved a second time.
#[derive(Default)]
pub(super) struct Outbox {
    queued: VecDeque<(usize, Option<usize>, BlockHandle)>,
    head: Option<Routed>,
    pub(super) counts: RouteCounts,
}

impl Outbox {
    /// Queue `block` for delivery to stage `consumer`.
    pub(super) fn push(&mut self, consumer: usize, block: BlockHandle) {
        self.queued.push_back((consumer, None, block));
    }
}

/// Consumers of a stage that routing prices alike: every static input of
/// [`QueryRun::class_cost`] — the device kind, the device profile and the
/// memory node — is the same, so one block costs each of them the same.
/// The per-query lookups that price a block are kept once per class: the
/// node's bandwidth and the route to it from each source memory node.
struct PricingClass<'a> {
    kind: DeviceKind,
    profile: &'a DeviceProfile,
    node: MemoryNodeId,
    /// Dense index of `node` into `node_load`.
    node_index: usize,
    node_bandwidth_gbps: f64,
    routes: Vec<&'a [LinkId]>,
}

/// Routing state of one stage, shared by every producer pushing into it:
/// the router, the per-consumer devices/memory nodes, and the lock-free load
/// estimates driving the least-loaded policy.
pub(super) struct StageRouting<'a> {
    pub(super) stage: &'a Stage,
    router: Router<'a>,
    pub(super) instance_devices: Vec<DeviceId>,
    pub(super) instance_nodes: Vec<MemoryNodeId>,
    /// The stage's pricing classes, and each consumer's class.
    classes: Vec<PricingClass<'a>>,
    class_of: Vec<usize>,
    /// Per-consumer load estimates (device time committed per routed block).
    pub(super) est: LoadEstimator,
    /// Held from a block's projections to its commit, so that concurrent
    /// producers place blocks one after another, each on the loads the last
    /// one left: two projections priced at once would both see the same
    /// idle consumer, and a thread preempted mid-projection would place its
    /// block on loads long gone.
    placing: Mutex<()>,
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
    /// is a consumer's observed average block cost, which the watchdog's
    /// detection budget prices with, so a hidden straggler is priced by what
    /// it *did*, not what the estimates promised.
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
        let mut classes: Vec<PricingClass<'a>> = Vec::new();
        let mut class_of = Vec::with_capacity(instance_devices.len());
        for ((&device, &node), slot) in
            instance_devices.iter().zip(&instance_nodes).zip(&stage.consumers)
        {
            let profile = topology.device(device)?;
            let same = |c: &PricingClass<'_>| {
                c.kind == slot.kind && c.node == node && c.profile == profile
            };
            if let Some(class) = classes.iter().position(same) {
                class_of.push(class);
                continue;
            }
            let node_index = distinct_nodes.iter().position(|n| *n == node).unwrap_or_else(|| {
                distinct_nodes.push(node);
                distinct_nodes.len() - 1
            });
            let route = |from: &MemoryNodeSpec| topology.route(from.id, node).unwrap_or(&[]);
            class_of.push(classes.len());
            classes.push(PricingClass {
                kind: slot.kind,
                profile,
                node,
                node_index,
                node_bandwidth_gbps: topology.memory_node(node)?.bandwidth_gbps,
                routes: topology.memory_nodes().iter().map(route).collect(),
            });
        }
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
        let counters = || (0..stage.consumers.len()).map(|_| AtomicU64::new(0)).collect();
        Ok(StageRouting {
            stage,
            router,
            instance_devices,
            instance_nodes,
            classes,
            class_of,
            est: LoadEstimator::new(stage.consumers.len()),
            placing: Mutex::new(()),
            node_load: (0..distinct_nodes.len()).map(|_| AtomicU64::new(0)).collect(),
            est_selectivity,
            est_probes_per_row,
            charged_busy: counters(),
            processed: counters(),
        })
    }

    /// Whether a block may move between this stage's consumers after routing
    /// (a re-route): only when routing was anonymous to begin with.
    /// Broadcast-target blocks are bound to their consumer (explicit
    /// copies), and a single-consumer stage has no sibling to move to.
    pub(super) fn reroutable(&self) -> bool {
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

    /// The memory-node backlog of consumer `slot`.
    fn node_load(&self, slot: usize) -> &AtomicU64 {
        &self.node_load[self.classes[self.class_of[slot]].node_index]
    }

    /// Take `(device_ns, node_ns)` of committed load off consumer `slot`.
    fn decommit(&self, slot: usize, (device_ns, node_ns): (u64, u64)) {
        self.est.decommit(slot, device_ns);
        let _ = self.node_load(slot).fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
            Some(v.saturating_sub(node_ns))
        });
    }
}

impl QueryRun<'_> {
    /// Whether mem-move must copy a block at `location` for a `kind`
    /// consumer on `node` of `stage`: only when the stage moves data at all
    /// and the consumer cannot address the block directly. GPU consumers
    /// need device-resident data, and no CPU core can address GPU device
    /// memory; CPU consumers read remote NUMA DRAM directly (at a penalty
    /// already captured by the socket DRAM clocks).
    fn needs_move(
        &self,
        stage: usize,
        (kind, node): (DeviceKind, MemoryNodeId),
        location: MemoryNodeId,
    ) -> bool {
        if self.routing[stage].stage.mem_move == MemMoveMode::None || location == node {
            return false;
        }
        let block_on_gpu =
            self.exec.topology.memory_node(location).map(|m| m.is_gpu_memory()).unwrap_or(false);
        kind == DeviceKind::Gpu || block_on_gpu
    }

    /// The consumer-independent half of a block's routing estimate: its
    /// work under an assumed filter selectivity (see
    /// [`Self::class_cost`]), at both kernel shapes, and its location.
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

    /// Estimated cost of a block on every consumer of class `class` of
    /// `stage`: the same work/cost model the executor charges, evaluated
    /// with an assumed filter selectivity, throttled to PCIe speed when the
    /// data would have to move. Returns `(device_ns, memory_node_ns)` — the
    /// two backlogs the least-loaded policy balances.
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
    fn class_cost(
        &self,
        stage: usize,
        class: usize,
        block: &BlockEstimate,
        pending_gate_ns: Option<u64>,
    ) -> (u64, u64) {
        let (routing, topology, cost) = (&self.routing[stage], &self.exec.topology, &self.cost);
        let class = &routing.classes[class];
        let est_work = match class.kind {
            DeviceKind::CpuCore => &block.cpu_work,
            DeviceKind::Gpu => &block.gpu_work,
        };
        let mut block_ns = self.exec.work_cost.time_ns(est_work, class.profile) as f64;
        let mut transfer_axis_ns = 0u64;
        if self.needs_move(stage, (class.kind, class.node), block.location) {
            // Price the DMA at the bottleneck link of the actual route
            // (successive blocks pipeline across hops, so the sustained
            // rate is the slowest link's, not the hop-latency sum). This
            // respects per-link bandwidth overrides in the topology, and
            // uses each link's effective rate, which the topology derived
            // from its declared width and latency when it was built.
            let transfer_ns = class
                .routes
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
                    // accumulated toward this class's node.
                    let node_backlog = routing.node_load[class.node_index].load(Ordering::Relaxed);
                    let (spill, node_axis) =
                        cost.gated_transfer_split(transfer_ns, gate_ns, node_backlog);
                    block_ns = block_ns.max(spill as f64);
                    transfer_axis_ns = node_axis;
                }
                None => block_ns = block_ns.max(transfer_ns as f64),
            }
        }
        let mem = (est_work.memory_node_bytes() / (class.node_bandwidth_gbps * 1e9) * 1e9) as u64;
        // Pushing to an off-node consumer acquires its queue mutex
        // across the interconnect — control-plane traffic priced on the
        // node axis.
        let remote = class.node != block.location;
        let control_ns = if remote { topology.control_plane_ns() } else { 0 };
        (block_ns as u64, mem.saturating_add(transfer_axis_ns).saturating_add(control_ns))
    }

    /// Price `block` once per pricing class of `stage` into `prices` (see
    /// [`Self::class_cost`]), each with its node arena's occupancy penalty
    /// (a starved node would hold its producer back on a lease) and its
    /// node's backlog, and count the evaluations.
    fn price_classes(
        &self,
        stage: usize,
        block: &BlockEstimate,
        (gate_ns, gate_pending): (u64, bool),
        prices: &mut Vec<Price>,
        counts: &mut RouteCounts,
    ) {
        let routing = &self.routing[stage];
        prices.clear();
        prices.extend(routing.classes.iter().enumerate().map(|(index, class)| {
            let cost = self.class_cost(stage, index, block, gate_pending.then_some(gate_ns));
            let penalty = self
                .staging
                .occupancy(class.node)
                .map_or(0, |o| self.cost.occupancy_penalty_ns(cost.0, o));
            let backlog = routing.node_load[class.node_index].load(Ordering::Relaxed);
            let (node_axis, local) = (backlog.saturating_add(cost.1), class.node == block.location);
            Price { cost, penalty, node_axis, local }
        }));
        counts.evals += routing.classes.len() as u64;
    }

    /// Consumer `i`'s projected completion of a block priced `price` on its
    /// class, on top of what is committed to it: the device backlog (scaled
    /// by the device's observed slowdown, plus the occupancy penalty and the
    /// gate estimate) against its memory node's backlog, composed by the
    /// cost model. A device seen straggling projects expensive (exactly 1.0
    /// for healthy ones).
    fn projection(&self, stage: usize, i: usize, price: &Price, gate_ns: u64) -> u64 {
        let (routing, cost) = (&self.routing[stage], &self.cost);
        let slowdown = cost.observed_device_slowdown(routing.instance_devices[i].index());
        let dev = routing.est.project(i, price.cost.0, price.penalty, gate_ns, slowdown);
        cost.compose_projection(dev, price.node_axis, price.local, true)
    }

    fn quarantined(&self, stage: usize, i: usize) -> bool {
        let device = self.routing[stage].instance_devices[i];
        self.fault.as_ref().is_some_and(|f| f.is_quarantined(device))
    }

    fn straggles(&self, stage: usize, i: usize) -> bool {
        self.cost.is_straggler(self.routing[stage].instance_devices[i].index())
    }

    /// Price `block` per class and project it on every consumer of `stage`
    /// into `projection`. Quarantined consumers project as unusable
    /// (`u64::MAX`), and so does `off`, the slot a re-routed block was
    /// withdrawn from, and — off a straggler, while any consumer that
    /// neither straggles nor is quarantined is live — every straggler.
    fn project(
        &self,
        stage: usize,
        off: Option<usize>,
        block: &BlockEstimate,
        gate: (u64, bool),
        Projection { prices, projected }: &mut Projection,
        counts: &mut RouteCounts,
    ) {
        let routing = &self.routing[stage];
        self.price_classes(stage, block, gate, prices, counts);
        projected.clear();
        projected.extend(routing.class_of.iter().enumerate().map(|(i, &class)| {
            if self.quarantined(stage, i) {
                u64::MAX
            } else {
                self.projection(stage, i, &prices[class], gate.0)
            }
        }));
        if let Some(from) = off {
            projected[from] = u64::MAX;
            let steady = |i: usize| projected[i] != u64::MAX && !self.straggles(stage, i);
            if !self.quarantined(stage, from) && (0..projected.len()).any(steady) {
                for i in (0..projected.len()).filter(|&i| self.straggles(stage, i)) {
                    projected[i] = u64::MAX;
                }
            }
        }
    }

    /// The consumer of `stage` routing's policy picks on `projected`. A
    /// pick that lands on a barred consumer (round-robin ignores
    /// projections, and least-loaded must pick something when every
    /// consumer is barred) goes to the cheapest allowed consumer when the
    /// block is anonymous; a bound one has nowhere sound to go.
    fn pick(
        &self,
        stage: usize,
        off: Option<usize>,
        meta: &BlockMeta,
        projected: &[u64],
    ) -> Result<usize> {
        let routing = &self.routing[stage];
        let pick = routing.router.route(meta, projected)?;
        if projected[pick] != u64::MAX {
            return Ok(pick);
        }
        routing
            .reroutable()
            .then(|| {
                projected
                    .iter()
                    .enumerate()
                    .filter(|&(_, &p)| p != u64::MAX)
                    .min_by_key(|&(_, &p)| p)
                    .map(|(i, _)| i)
            })
            .flatten()
            .ok_or_else(|| HetError::DeviceLost {
                device: routing.instance_devices[off.unwrap_or(pick)].index(),
                stage,
                block: off.map_or(0, |from| self.queues[stage][from].len() + 1),
            })
    }

    /// Route one block to a consumer of `stage` and localize it via
    /// mem-move; the block's readiness is not floored, so transfers overlap
    /// upstream compute. The block is priced once per pricing class and
    /// projected per consumer (see [`Self::project`]); each class node's
    /// arena occupancy is priced in so routing steers away from
    /// memory-starved nodes, and ties prefer consumers already local to the
    /// block (NUMA-aware placement).
    ///
    /// The projection is gate-aware (see [`Self::gate_estimate`]): the
    /// estimated gate opening shifts every consumer's projection to an
    /// absolute completion estimate, and a still-closed gate discounts the
    /// DMA of transfer-bound consumers (the transfer is scheduled now and
    /// hidden by the gate — see [`Self::class_cost`]), so compute-bound
    /// consumers of gated probe stages stop collecting pre-gate blocks they
    /// cannot start anyway.
    ///
    /// `off` is the slot a re-routed block was withdrawn from. The block
    /// never goes back there, and it was broadcast when it was first routed,
    /// so it is not broadcast again. Off a straggler it goes only to
    /// consumers that neither straggle nor are quarantined, while any is
    /// live; off a quarantined device, to any live consumer. A straggler
    /// therefore never pushes into a queue whose lane pushes back into its
    /// own, and the §4.2 no-hold-and-wait argument holds.
    ///
    /// Under a fault plan, quarantined consumers are poisoned out of the
    /// projection and a pick that still lands on a barred consumer is
    /// redirected (see [`Self::pick`]). A bound stage whose consumer died
    /// cannot re-home the block, so routing surfaces a structured
    /// [`HetError::DeviceLost`] and the engine's degraded-restart ladder
    /// takes over.
    ///
    /// Returns the consumer index, the `(device_ns, node_ns)` committed to
    /// it, and the localized handle.
    fn route_and_localize(
        &self,
        stage: usize,
        off: Option<usize>,
        handle: BlockHandle,
        counts: &mut RouteCounts,
    ) -> Result<(usize, (u64, u64), BlockHandle)> {
        let routing = &self.routing[stage];
        let gate = self.gate_estimate(stage);
        let block = self.block_estimate(stage, &handle);
        let placing = routing.placing.lock();
        let (pick, committed) = PROJECTION.with(|projection| {
            let projection = &mut *projection.borrow_mut();
            self.project(stage, off, &block, gate, projection, counts);
            let pick = self.pick(stage, off, handle.meta(), &projection.projected)?;
            Ok::<_, HetError>((pick, projection.prices[routing.class_of[pick]].cost))
        })?;
        routing.est.commit(pick, committed.0);
        routing.node_load(pick).fetch_add(committed.1, Ordering::Relaxed);
        drop(placing);
        counts.blocks += 1;

        // Broadcast the dimension data to every GPU memory node (so probes
        // on GPUs read local data), and hand the local copy to the building
        // instance.
        if off.is_none()
            && routing.stage.mem_move == MemMoveMode::Broadcast
            && !self.gpu_nodes.is_empty()
        {
            self.mem_move.broadcast(&handle, &self.gpu_nodes)?;
        }
        let consumer = (routing.stage.consumers[pick].kind, routing.instance_nodes[pick]);
        let localized = if self.needs_move(stage, consumer, handle.meta().location) {
            self.mem_move.relocate(&handle, routing.instance_nodes[pick])?
        } else {
            handle
        };
        Ok((pick, committed, localized))
    }

    /// Deliver `outbox` in order — the single hand-off into a stage shared
    /// by source pumps, lanes, finalize flushes, terminal emissions and
    /// re-routes. Each block is routed and localized once (a fresh one is
    /// entered in its stage's ledger first), then backed by a staging charge
    /// and pushed (see [`Self::advance`]): the bounded queue, the byte quota
    /// and a dry arena all exert back-pressure here. `Ok(None)` once the
    /// outbox is empty; otherwise what holds its head back, with `waker`
    /// registered there.
    pub(super) fn deliver(&self, outbox: &mut Outbox, waker: &Waker) -> Result<Option<Wait>> {
        loop {
            let routed = match outbox.head.take() {
                Some(routed) => routed,
                None => {
                    let Some((consumer, off, block)) = outbox.queued.pop_front() else {
                        return Ok(None);
                    };
                    if off.is_none() {
                        self.ledger_enter(consumer);
                    }
                    let source = (block.meta().location, block.meta().ready_at_ns);
                    let (pick, committed, localized) =
                        self.route_and_localize(consumer, off, block, &mut outbox.counts)?;
                    self.routed(consumer, pick, source, committed, localized)
                }
            };
            if let Some((held, wait)) = self.advance(routed, waker)? {
                outbox.head = Some(held);
                return Ok(Some(wait));
            }
        }
    }

    /// Re-route `block`, withdrawn from slot `from` of `stage`: undo its
    /// placement (see [`withdraw`]), take what routing committed for it off
    /// `from`'s load, and queue it in `outbox`, whose delivery routes it
    /// like any new block (see [`Self::route_and_localize`]). Its ledger
    /// entry stays open until a live lane starts it.
    pub(super) fn reroute(
        &self,
        stage: usize,
        from: usize,
        mut block: BlockHandle,
        outbox: &mut Outbox,
    ) {
        self.routing[stage].decommit(from, withdraw(&mut block));
        outbox.queued.push_back((stage, Some(from), block));
    }

    /// Whether a live sibling of `owner` that does not straggle would end
    /// `block`, the tail of `owner`'s queue, earlier than `owner`: a
    /// straggler's re-route test, priced once per class on routing's
    /// projections. The block is still committed to `owner`, so `owner`'s
    /// projection adds nothing for it.
    pub(super) fn sibling_ends_earlier(
        &self,
        stage: usize,
        owner: usize,
        block: &BlockHandle,
        counts: &mut RouteCounts,
    ) -> bool {
        let routing = &self.routing[stage];
        let gate = self.gate_estimate(stage);
        let estimate = self.block_estimate(stage, block);
        PROJECTION.with(|projection| {
            let prices = &mut projection.borrow_mut().prices;
            self.price_classes(stage, &estimate, gate, prices, counts);
            let backlog = routing.node_load(owner).load(Ordering::Relaxed);
            let local = prices[routing.class_of[owner]].local;
            let unpriced = Price { cost: (0, 0), penalty: 0, node_axis: backlog, local };
            let own = self.projection(stage, owner, &unpriced, gate.0);
            (0..routing.class_of.len())
                .filter(|&i| i != owner && !self.quarantined(stage, i) && !self.straggles(stage, i))
                .any(|i| self.projection(stage, i, &prices[routing.class_of[i]], gate.0) < own)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::Executor;
    use super::*;
    use crate::codegen::{compile, StageGraph};
    use hetex_common::{Block, BlockId, ColumnData, EngineConfig};
    use hetex_core::{parallelize, RelNode, SlowdownObserver};
    use hetex_jit::{AggSpec, Expr};
    use hetex_storage::{Catalog, ExhaustionPolicy};
    use hetex_topology::{FaultPlan, SimTime, TopologyBuilder};
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
        let kind = routing.stage.consumers[i].kind;
        let work = match kind {
            DeviceKind::CpuCore => &block.cpu_work,
            DeviceKind::Gpu => &block.gpu_work,
        };
        let device = topology.device(routing.instance_devices[i]).unwrap();
        let mut device_ns = run.exec.work_cost.time_ns(work, device);
        let mut transfer_axis_ns = 0;
        if run.needs_move(stage, (kind, node), block.location) {
            let transfer_ns = topology
                .route(block.location, node)
                .unwrap()
                .iter()
                .map(|&l| topology.transfer_estimate_ns(l, block.weighted_bytes))
                .max()
                .unwrap_or(0);
            let spill = match pending_gate_ns {
                Some(gate_ns) => {
                    let backlog = routing.node_load(i).load(Ordering::Relaxed);
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

    /// How routing placed a block before pricing classes: every consumer
    /// priced from direct lookups and projected on its own, with its own
    /// node arena's occupancy penalty, then picked by the stage's router.
    /// Returns each consumer's cost, the projections and the pick.
    fn routed_per_consumer(
        run: &QueryRun<'_>,
        stage: usize,
        off: Option<usize>,
        block: &BlockEstimate,
        meta: &BlockMeta,
        (gate_ns, gate_pending): (u64, bool),
    ) -> (Vec<(u64, u64)>, Vec<u64>, Option<usize>) {
        let (routing, cost) = (&run.routing[stage], &run.cost);
        let consumers = 0..routing.instance_nodes.len();
        let pending = gate_pending.then_some(gate_ns);
        let costs: Vec<(u64, u64)> =
            consumers.clone().map(|i| priced_by_lookup(run, stage, i, block, pending)).collect();
        let mut projected: Vec<u64> = consumers
            .map(|i| {
                if run.quarantined(stage, i) {
                    return u64::MAX;
                }
                let ((device_ns, node_ns), node) = (costs[i], routing.instance_nodes[i]);
                let penalty = run
                    .staging
                    .occupancy(node)
                    .map_or(0, |o| cost.occupancy_penalty_ns(device_ns, o));
                let slowdown = cost.observed_device_slowdown(routing.instance_devices[i].index());
                let dev = routing.est.project(i, device_ns, penalty, gate_ns, slowdown);
                let backlog = routing.node_load(i).load(Ordering::Relaxed);
                cost.compose_projection(dev, backlog + node_ns, node == block.location, true)
            })
            .collect();
        if let Some(from) = off {
            projected[from] = u64::MAX;
            let steady = |i: usize| projected[i] != u64::MAX && !run.straggles(stage, i);
            if !run.quarantined(stage, from) && (0..projected.len()).any(steady) {
                for i in (0..projected.len()).filter(|&i| run.straggles(stage, i)) {
                    projected[i] = u64::MAX;
                }
            }
        }
        let mut pick = routing.router.route(meta, &projected).ok();
        if pick.is_some_and(|p| projected[p] == u64::MAX) {
            pick = routing
                .reroutable()
                .then(|| (0..projected.len()).filter(|&i| projected[i] != u64::MAX))
                .and_then(|allowed| allowed.min_by_key(|&i| projected[i]));
        }
        (costs, projected, pick)
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

    /// A splitmix64 stream: `next(bound)` draws from `0..bound`.
    fn splitmix(mut state: u64) -> impl FnMut(u64) -> u64 {
        move |bound: u64| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % bound
        }
    }

    /// The paper server, then `count` random multi-socket, multi-GPU
    /// servers whose PCIe links run slower than the 30 GB/s inter-socket
    /// link in some cases and faster in others, so each link kind is a
    /// route's bottleneck somewhere.
    fn servers(count: usize) -> Vec<Arc<ServerTopology>> {
        let mut next = splitmix(0x9E37_79B9_7F4A_7C15);
        let random = (0..count).map(|_| {
            let sockets = 2 + next(3) as usize;
            let mut builder = TopologyBuilder::new();
            for _ in 0..sockets {
                builder.add_socket(1 + next(3) as usize);
            }
            for gpu in 0..2 + next(3) as usize {
                builder.add_gpu((gpu + next(2) as usize) % sockets);
            }
            builder.pcie_bandwidth_gbps(1.0 + next(120) as f64 / 2.0);
            Arc::new(builder.build().unwrap())
        });
        std::iter::once(ServerTopology::paper_server()).chain(random).collect()
    }

    /// Every (source node, consumer) pair of every stage of a hybrid join,
    /// at several block sizes, with and without a pending gate: the class
    /// price of each consumer equals its price from direct lookups.
    fn assert_terms_match_lookups(topology: Arc<ServerTopology>) {
        let (config, graph) = hybrid_join(&topology);
        let exec = Executor::new(Arc::clone(&topology));
        let catalog = Catalog::new();
        let run = QueryRun::new(&exec, &graph, &catalog, &config, Instant::now()).unwrap();
        let mut priced = 0;
        for stage in 0..graph.stages.len() {
            let class_of = &run.routing[stage].class_of;
            for source in topology.memory_nodes().iter().map(|m| m.id) {
                for rows in [1, 700, 4096] {
                    let estimate = run.block_estimate(stage, &block_at(source, rows));
                    for (i, &class) in class_of.iter().enumerate() {
                        for gate in [None, Some(0), Some(2_000_000)] {
                            assert_eq!(
                                run.class_cost(stage, class, &estimate, gate),
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
        servers(4).into_iter().for_each(assert_terms_match_lookups);
    }

    #[test]
    fn per_class_pricing_routes_like_per_consumer_pricing() {
        // Two runs of one hybrid join share every input of a placement:
        // committed loads, node backlogs, arena leases, quarantines and
        // observed slowdowns (one shared observer). One places each block
        // the way routing does, priced per class; the other prices and
        // projects every consumer on its own, as routing did before pricing
        // classes. Their routers advance in step, so their costs,
        // projections and picks must be equal, block after block.
        let mut next = splitmix(0xC1A5_5E5D);
        // Cases that priced an occupancy penalty, barred a consumer, hid a
        // transfer behind a pending gate, and found no consumer to pick.
        let mut seen = [0usize; 4];
        for (server, topology) in servers(6).into_iter().enumerate() {
            let devices = topology.devices().len();
            let opens = SimTime::from_millis(3_600_000);
            let idle = FaultPlan::new().transient_window(
                DeviceId::new(0),
                opens,
                opens.add_nanos(1),
                1.0,
                7,
            );
            let topology = topology.with_fault_plan(idle).unwrap();
            let (config, graph) = hybrid_join(&topology);
            let observer = Arc::new(SlowdownObserver::new(devices));
            let exec = Executor::new(Arc::clone(&topology)).with_shared_observer(observer.clone());
            let catalog = Catalog::new();
            let runs = [0, 1]
                .map(|_| QueryRun::new(&exec, &graph, &catalog, &config, Instant::now()).unwrap());
            let nodes: Vec<MemoryNodeId> = topology.memory_nodes().iter().map(|m| m.id).collect();
            let mut leases = Vec::new();
            let mut projection = Projection::default();
            for case in 0..60 {
                // Shared inputs drift between blocks: loads, a lease,
                // a quarantine or a slowdown observation.
                let stage = next(graph.stages.len() as u64) as usize;
                let consumers = graph.stages[stage].consumers.len();
                match next(4) {
                    0 => {
                        let (slot, ns) = (next(consumers as u64) as usize, next(50_000_000));
                        let index = next(runs[0].routing[stage].node_load.len() as u64) as usize;
                        let backlog = next(20_000_000);
                        for run in &runs {
                            run.routing[stage].est.commit(slot, ns);
                            run.routing[stage].node_load[index]
                                .fetch_add(backlog, Ordering::Relaxed);
                        }
                    }
                    1 => {
                        let node = nodes[next(nodes.len() as u64) as usize];
                        let bytes = config.staging_bytes / (2 + next(6));
                        for run in &runs {
                            let arena = run.staging.arenas.manager(node).unwrap();
                            if let Ok(lease) = arena.acquire_local(bytes, ExhaustionPolicy::Error) {
                                leases.push(lease);
                            }
                        }
                    }
                    2 => {
                        let device = DeviceId::new(next(devices as u64) as usize);
                        runs.iter().for_each(|run| run.fault.as_ref().unwrap().quarantine(device));
                    }
                    _ => {
                        let device = next(devices as u64) as usize;
                        observer.record(device, 1_000 + next(3_000), 1_000);
                    }
                }
                let off = (next(3) == 0).then(|| next(consumers as u64) as usize);
                let gate = (next(40_000_000), next(2) == 0);
                let source = nodes[next(nodes.len() as u64) as usize];
                let handle = block_at(source, 1 + next(4096) as usize);
                let estimate = runs[0].block_estimate(stage, &handle);

                let (run, routing) = (&runs[0], &runs[0].routing[stage]);
                let mut counts = RouteCounts::default();
                run.project(stage, off, &estimate, gate, &mut projection, &mut counts);
                let pick = run.pick(stage, off, handle.meta(), &projection.projected).ok();
                let (costs, projected, expected) =
                    routed_per_consumer(&runs[1], stage, off, &estimate, handle.meta(), gate);
                for (i, &class) in routing.class_of.iter().enumerate() {
                    let context = format!("server {server} case {case} stage {stage} slot {i}");
                    assert_eq!(projection.prices[class].cost, costs[i], "{context}");
                }
                let context = format!("server {server} case {case} stage {stage} off {off:?}");
                assert_eq!(projection.projected, projected, "{context}");
                assert_eq!(pick, expected, "{context}");
                assert_eq!(counts.evals, routing.classes.len() as u64);
                seen[0] += projection.prices.iter().any(|p| p.penalty > 0) as usize;
                seen[1] += projected.contains(&u64::MAX) as usize;
                seen[2] += (gate.1 && costs.iter().any(|c| c.1 > 0)) as usize;
                seen[3] += pick.is_none() as usize;
                if let Some(pick) = pick {
                    let (device_ns, node_ns) = costs[pick];
                    for run in &runs {
                        run.routing[stage].est.commit(pick, device_ns);
                        run.routing[stage].node_load(pick).fetch_add(node_ns, Ordering::Relaxed);
                    }
                }
            }
        }
        eprintln!("penalised, barred, gated, unplaceable cases: {seen:?}");
        assert!(seen.iter().all(|&n| n > 0), "a path went unexercised: {seen:?}");
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
                run.class_cost(stage, routing.class_of[i], &estimate, None).1
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
