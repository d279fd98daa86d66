//! The router (§3.1): per-stage routing state, block cost projections,
//! routing plus mem-move localization, the single downstream hand-off every
//! producer uses, and adaptive re-routing (work stealing).

use super::QueryRun;
use crate::codegen::{MemMoveMode, Stage};
use hetex_common::{BlockHandle, HetError, MemoryNodeId, Result};
use hetex_core::cost::StealQuery;
use hetex_core::plan::RouterPolicy;
use hetex_core::router::{LoadEstimator, Router};
use hetex_topology::{DeviceId, DeviceKind, ResourceClock, ServerTopology};
use std::sync::atomic::{AtomicU64, Ordering};

/// Filter selectivity the router assumes when estimating a block's cost for
/// load balancing (it cannot know real selectivities up front).
const ASSUMED_SELECTIVITY: f64 = 0.3;

/// Minimum backlog depth a sibling queue must hold before it can be stolen
/// from. Two is the smallest depth where theft is guaranteed progress: the
/// victim keeps its head block (the one it pops next anyway) and the thief
/// takes work that would otherwise wait behind it — a depth-1 queue would
/// only invite ping-pong.
const STEAL_MIN_DEPTH: usize = 2;

/// Outcome of one steal attempt (see [`QueryRun::steal_for`]).
pub(super) enum StealOutcome {
    /// A block was stolen and is ready for the thief to process.
    Stolen(BlockHandle),
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
    /// Per-consumer nanoseconds actually charged to the device clock — the
    /// feedback half of the straggler detector. Together with
    /// `nominal_busy`, the ratio `charged/nominal` is a consumer's observed
    /// slowdown: 1.0 for a healthy device, larger when reality (an
    /// unforeseen `exec_slowdown`, contention) costs more than the model
    /// predicted. The steal profitability check scales the victim's backlog
    /// by this ratio, so hidden stragglers are priced by what they *did*,
    /// not what the estimates promised.
    pub(super) charged_busy: Vec<AtomicU64>,
    /// Per-consumer nanoseconds the nominal cost model prices for the same
    /// processed work (denominator of the observed-slowdown ratio).
    pub(super) nominal_busy: Vec<AtomicU64>,
    /// Per-consumer count of processed blocks; `charged_busy / processed` is
    /// a consumer's observed average block cost, the basis of the steal
    /// profitability pre-check (which must run *before* a block leaves the
    /// victim's queue — see [`QueryRun::steal_for`]).
    pub(super) processed: Vec<AtomicU64>,
}

impl<'a> StageRouting<'a> {
    pub(super) fn new(topology: &ServerTopology, stage: &'a Stage) -> Result<Self> {
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
        let counters = || (0..stage.consumers.len()).map(|_| AtomicU64::new(0)).collect();
        Ok(StageRouting {
            stage,
            router,
            instance_devices,
            instance_nodes,
            node_index,
            est: LoadEstimator::new(stage.consumers.len()),
            node_load: (0..distinct_nodes.len()).map(|_| AtomicU64::new(0)).collect(),
            est_selectivity,
            est_probes_per_row,
            charged_busy: counters(),
            nominal_busy: counters(),
            processed: counters(),
        })
    }

    /// Whether a block may move between this stage's consumers after routing
    /// (a steal or a takeover): only when routing was anonymous to begin
    /// with. Hash-partitioned and broadcast-target blocks are bound to their
    /// consumer (partitioned state, explicit copies), and a single-consumer
    /// stage has no sibling to move to.
    pub(super) fn rehomeable(&self) -> bool {
        self.stage.consumers.len() > 1
            && matches!(self.stage.policy, RouterPolicy::RoundRobin | RouterPolicy::LeastLoaded)
    }

    /// Observed slowdown of consumer `slot`: charged over nominal busy time,
    /// 1.0 until the consumer has processed anything.
    pub(super) fn observed_slowdown(&self, slot: usize) -> f64 {
        let nominal = self.nominal_busy[slot].load(Ordering::Relaxed);
        if nominal == 0 {
            return 1.0;
        }
        (self.charged_busy[slot].load(Ordering::Relaxed) as f64 / nominal as f64).max(1.0)
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

    /// Move `device_ns[from]` / `node_ns[from]` of committed load to `to`.
    pub(super) fn move_commit(&self, from: usize, to: usize, device_ns: &[u64], node_ns: &[u64]) {
        self.est.decommit(from, device_ns[from]);
        self.est.commit(to, device_ns[to]);
        let _ = self.node_load[self.node_index[from]].fetch_update(
            Ordering::Relaxed,
            Ordering::Relaxed,
            |v| Some(v.saturating_sub(node_ns[from])),
        );
        self.node_load[self.node_index[to]].fetch_add(node_ns[to], Ordering::Relaxed);
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

    /// Estimated cost of `handle` on each consumer of `stage`: the same
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
    /// and handed them pre-gate blocks they could not start anyway; hiding
    /// it entirely would erase both data affinity and link saturation. The
    /// split keeps all three signals.
    pub(super) fn block_costs(
        &self,
        stage: usize,
        handle: &BlockHandle,
        pending_gate_ns: Option<u64>,
    ) -> (Vec<u64>, Vec<u64>) {
        let (routing, topology, cost) = (&self.routing[stage], &self.exec.topology, &self.cost);
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
        let [est_cpu_work, est_gpu_work] = [DeviceKind::CpuCore, DeviceKind::Gpu]
            .map(|kind| template.work_profile_on(kind, &counters, handle.meta().weight));
        let consumers = routing.stage.consumers.len();
        let mut device_ns = Vec::with_capacity(consumers);
        let mut node_ns = Vec::with_capacity(consumers);
        for i in 0..consumers {
            let Ok(device) = topology.device(routing.instance_devices[i]) else {
                device_ns.push(u64::MAX);
                node_ns.push(0);
                continue;
            };
            let est_work = match routing.stage.consumers[i].kind {
                DeviceKind::CpuCore => &est_cpu_work,
                DeviceKind::Gpu => &est_gpu_work,
            };
            let mut block_ns = self.exec.work_cost.time_ns(est_work, device) as f64;
            let mut transfer_axis_ns = 0u64;
            if self.needs_move(stage, i, handle.meta().location) {
                // Price the DMA at the bottleneck link of the actual route
                // (successive blocks pipeline across hops, so the sustained
                // rate is the slowest link's, not the hop-latency sum). This
                // respects per-link bandwidth overrides in the topology, and
                // uses each link's *probed* effective rate instead of its
                // declared width.
                let transfer_ns = topology
                    .route(handle.meta().location, routing.instance_nodes[i])
                    .map(|links| {
                        links
                            .iter()
                            .filter_map(|&l| topology.link(l).ok())
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
            let mem = topology
                .memory_node(routing.instance_nodes[i])
                .map(|node| {
                    (est_work.memory_node_bytes() / (node.bandwidth_gbps * 1e9) * 1e9) as u64
                })
                .unwrap_or(0);
            // Pushing to an off-node consumer acquires its queue mutex
            // across the interconnect — control-plane traffic the cost
            // model prices on the node axis.
            let control_ns =
                cost.control_plane_ns(routing.instance_nodes[i] != handle.meta().location);
            node_ns.push(mem.saturating_add(transfer_axis_ns).saturating_add(control_ns));
        }
        (device_ns, node_ns)
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
    /// hidden by the gate — see [`Self::block_costs`]), so compute-bound
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
        let (device_ns, node_ns) =
            self.block_costs(stage, &handle, gate_pending.then_some(gate_ns));
        // Price each consumer node's staging-arena occupancy: a block routed
        // to a starved node would park its producer on a lease, so its
        // projected cost grows with the leased fraction of the arena (the
        // cost model keeps the penalty disengaged below half occupancy —
        // below that the arena cannot park anyone).
        let penalties: Vec<u64> = routing
            .instance_nodes
            .iter()
            .enumerate()
            .map(|(i, node)| {
                self.staging
                    .occupancy(*node)
                    .map_or(0, |o| cost.occupancy_penalty_ns(device_ns[i], o))
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
        // and the NUMA nudge toward the block's current node, lives in the
        // cost model. Quarantined consumers project as unusable — the load
        // estimator's u64::MAX convention for devices routing must steer
        // around.
        let dead = |i: usize| {
            self.fault.as_ref().is_some_and(|f| f.is_quarantined(routing.instance_devices[i]))
        };
        let projected: Vec<u64> = routing
            .est
            .projected_with_feedback(&device_ns, &penalties, gate_ns, &slowdowns)
            .into_iter()
            .enumerate()
            .map(|(i, dev)| {
                if dead(i) {
                    return u64::MAX;
                }
                let node = routing.node_load[routing.node_index[i]]
                    .load(Ordering::Relaxed)
                    .saturating_add(node_ns[i]);
                cost.compose_projection(dev, node, routing.instance_nodes[i] == source, true)
            })
            .collect();
        let mut pick = routing.router.route(handle.meta(), &projected)?;
        if dead(pick) {
            // Round-robin ignores projections entirely, and even the
            // least-loaded policy must pick *something* when every consumer
            // is poisoned. An anonymously routed block is redirected to the
            // cheapest surviving consumer; a bound block (hash partition,
            // broadcast target, union lane) has nowhere sound to go.
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
        routing.est.commit(pick, device_ns[pick]);
        routing.node_load[routing.node_index[pick]].fetch_add(node_ns[pick], Ordering::Relaxed);

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

    /// Route one produced block to `consumer`'s stage and enqueue it for the
    /// chosen instance — the single downstream hand-off shared by source
    /// pumps, lanes, finalize flushes and terminal emissions. The block is
    /// backed by a staging charge before it is pushed (see
    /// [`Self::charge_staging`]); the bounded queue and a full arena both
    /// exert back-pressure here.
    pub(super) fn push_downstream(&self, consumer: usize, block: BlockHandle) -> Result<()> {
        let source = block.meta().location;
        let (pick, mut localized) = self.route_and_localize(consumer, block)?;
        self.charge_staging(consumer, pick, source, &mut localized)?;
        self.queues[consumer][pick].push(localized)
    }

    /// Adaptive re-routing: try to steal one block for the idle worker at
    /// slot `thief` of `stage` from the most-loaded sibling whose backlog
    /// holds at least [`STEAL_MIN_DEPTH`] blocks.
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
                congestion_ns,
            };
            let profitable = cost.steal_profitable(&query);
            if std::env::var("HETEX_TRACE_STEAL").is_ok() {
                eprintln!(
                    "[steal] thief {thief} victim {victim} {query:?} outstanding {:.0}B \
                     slowdown {:.2} -> {}",
                    cost.outstanding_link_bytes(
                        topology,
                        data_location,
                        thief_node,
                        thief_clock_ns
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
        let Some(block) = queues[victim].steal() else { return Ok(StealOutcome::Nothing) };
        Ok(StealOutcome::Stolen(self.rehome(stage, victim, thief, block)?))
    }
}
