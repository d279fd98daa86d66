//! Mem-move's staging side (§4.2): queue placement and byte quotas, the
//! staging charge backing every queued block, and the demand-weighted quota
//! re-split.

use super::routing::StageRouting;
use super::worker::Wait;
use super::QueryRun;
use hetex_common::config::DEFAULT_QUEUE_CAPACITY;
use hetex_common::{BlockHandle, EngineConfig, MemoryNodeId, Result};
use hetex_core::cost::DemandSplitter;
use hetex_core::queue::{BlockQueue, QueueSlot};
use hetex_storage::{BlockLease, BlockManagerSet};
use hetex_topology::ServerTopology;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::task::{Poll, Waker};

/// The staging charge backing one queued block: the byte admission into
/// the consumer's queue plus the arena lease on the consumer's memory node.
/// It also records what routing did to the block: the `(device_ns,
/// node_ns)` it committed to the consumer, and the block's `(location,
/// ready_at_ns)` before mem-move localized it. Attached to the handle as
/// its staging token; the consumer's drop of the handle releases both,
/// waking waiting producers.
#[derive(Debug)]
struct StagingCharge {
    _slot: Option<QueueSlot>,
    _lease: BlockLease,
    committed: (u64, u64),
    source: (MemoryNodeId, u64),
}

/// Undo routing's placement of a block withdrawn from its queue: release
/// its staging charge, put the block back where it was before mem-move
/// localized it (a copy leaves its source intact, and a dead device's
/// memory is not read), and return the load routing committed for it. A
/// block whose bytes were never charged has nothing to undo.
pub(super) fn withdraw(block: &mut BlockHandle) -> (u64, u64) {
    let token = block.take_staging();
    let Some(charge) = token.as_ref().and_then(|t| t.downcast_ref::<StagingCharge>()) else {
        return (0, 0);
    };
    let meta = block.meta_mut();
    (meta.location, meta.ready_at_ns) = charge.source;
    charge.committed
}

/// One memory node's demand-weighted quota re-split (cost-model term 1):
/// the `(stage, slot)` queues placed on the node and their demand splitter.
struct QuotaGroup {
    node: MemoryNodeId,
    members: Vec<(usize, usize)>,
    splitter: Mutex<DemandSplitter>,
}

/// Byte governance of one execution (DESIGN.md §4.2): one arena per memory
/// node, sized by the configured per-node budget and created per execution
/// so peaks are per-query observables.
pub(super) struct Staging {
    pub(super) arenas: BlockManagerSet,
    budget: u64,
    quota_groups: Vec<QuotaGroup>,
    /// Quota floor of the re-split: one estimated maximum-size block, so no
    /// active queue ever starves below a single block.
    quota_floor: u64,
}

/// One queue per consumer slot, bounded at [`DEFAULT_QUEUE_CAPACITY`]
/// handles and placed on the consumer's memory node (NUMA-aware placement:
/// the queue and the handles it buffers live where the consumer reads
/// them). Every stage runs concurrently, so a node's staging budget is
/// shared by every consumer placed on it: each queue starts with an even
/// byte share as its admission quota. The shares sum to at most the node
/// budget, so one stage's flood can never starve another stage's consumers
/// out of their reserved staging — the key step of the deadlock-freedom
/// argument in DESIGN.md.
pub(super) fn placed_queues(
    config: &EngineConfig,
    routing: &[StageRouting<'_>],
) -> Vec<Vec<BlockQueue>> {
    let mut per_node: HashMap<MemoryNodeId, u64> = HashMap::new();
    for node in routing.iter().flat_map(|r| &r.instance_nodes) {
        *per_node.entry(*node).or_default() += 1;
    }
    routing
        .iter()
        .map(|r| {
            r.instance_nodes
                .iter()
                .map(|node| {
                    BlockQueue::bounded(0, DEFAULT_QUEUE_CAPACITY).on_node(*node).with_byte_quota(
                        config.staging_bytes / per_node.get(node).copied().unwrap_or(1).max(1),
                    )
                })
                .collect()
        })
        .collect()
}

impl Staging {
    pub(super) fn new(
        topology: &ServerTopology,
        config: &EngineConfig,
        routing: &[StageRouting<'_>],
    ) -> Self {
        let nodes: Vec<MemoryNodeId> = topology.memory_nodes().iter().map(|m| m.id).collect();
        // The initial quotas are the even split of `placed_queues` (exactly
        // what the cost model returns before any demand was observed).
        let mut groups: Vec<(MemoryNodeId, Vec<(usize, usize)>)> = Vec::new();
        for (stage, r) in routing.iter().enumerate() {
            for (slot, node) in r.instance_nodes.iter().enumerate() {
                match groups.iter_mut().find(|(n, _)| n == node) {
                    Some((_, members)) => members.push((stage, slot)),
                    None => groups.push((*node, vec![(stage, slot)])),
                }
            }
        }
        let quota_groups = groups
            .into_iter()
            .map(|(node, members)| QuotaGroup {
                node,
                splitter: Mutex::new(DemandSplitter::new(members.len())),
                members,
            })
            .collect();
        Self {
            arenas: BlockManagerSet::new(&nodes, config.staging_bytes),
            budget: config.staging_bytes,
            quota_groups,
            quota_floor: config.est_max_block_bytes(),
        }
    }

    /// Leased fraction of `node`'s arena.
    pub(super) fn occupancy(&self, node: MemoryNodeId) -> Option<f64> {
        self.arenas.manager(node).ok().map(|m| m.occupancy())
    }

    /// Lease `bytes` on `to` for a block coming from `from`; `Pending`, with
    /// `waker` registered on the arena, while it is dry.
    fn lease(
        &self,
        from: MemoryNodeId,
        to: MemoryNodeId,
        bytes: u64,
        waker: &Waker,
    ) -> Poll<Result<BlockLease>> {
        self.arenas.poll_acquire(from, to, bytes, waker)
    }

    /// Bytes a block is charged: a block wider than the whole arena
    /// (possible: the budget floor is validated against an estimated tuple
    /// width, the arena charges exact bytes) is charged the full arena
    /// instead of erroring — it waits until the arena is completely free,
    /// then flows alone, preserving the slow-but-alive contract for any
    /// validated budget.
    fn bytes_of(&self, handle: &BlockHandle) -> u64 {
        (handle.byte_size() as u64).min(self.budget)
    }

    /// Per-node peaks and the bytes still leased, read after remote caches
    /// returned their prefetched leases home: every handle was dropped, so
    /// any byte still leased was stranded by a recovery path — the chaos
    /// suite asserts this stays zero.
    pub(super) fn peaks_and_leaks(&self) -> (Vec<(MemoryNodeId, u64)>, u64) {
        self.arenas.flush_remote_caches();
        (self.arenas.peaks(), self.arenas.leased_bytes_total())
    }
}

/// A block routed to slot `pick` of `consumer` and localized there, on its
/// way into the chosen queue: first a byte admission into the queue, then a
/// `BlockLease` on the consumer's memory node (through the producer node's
/// remote cache when the two differ), then the push. The lease-ordering
/// rule: the charge the handle carried was released when it was routed — a
/// handle never holds staging on two nodes, so a device crossing is
/// release-on-source then acquire-on-destination, and a dry arena can only
/// hold back a producer that holds nothing but this block's admission.
pub(super) struct Routed {
    pub(super) consumer: usize,
    pub(super) pick: usize,
    /// The block's `(location, ready_at_ns)` before it was localized.
    pub(super) source: (MemoryNodeId, u64),
    committed: (u64, u64),
    pub(super) block: BlockHandle,
    bytes: u64,
    charge: Charge,
}

/// How far a [`Routed`] block got.
enum Charge {
    Admit,
    Lease(Option<QueueSlot>),
    Push,
}

impl QueryRun<'_> {
    /// A freshly routed block, with the load routing `committed` to `pick`
    /// for it; its old staging charge is released here.
    pub(super) fn routed(
        &self,
        consumer: usize,
        pick: usize,
        source: (MemoryNodeId, u64),
        committed: (u64, u64),
        mut block: BlockHandle,
    ) -> Routed {
        if self.routing[consumer].instance_nodes[pick] != source.0 {
            self.remote_ctl.fetch_add(1, Ordering::Relaxed);
        }
        block.take_staging();
        let bytes = self.staging.bytes_of(&block);
        let charge = if bytes == 0 { Charge::Push } else { Charge::Admit };
        Routed { consumer, pick, source, committed, block, bytes, charge }
    }

    /// Take `routed` as far as it goes: `Ok(None)` once it is in its queue,
    /// or the block back with what holds it (the waker is registered there).
    pub(super) fn advance(
        &self,
        mut routed: Routed,
        waker: &Waker,
    ) -> Result<Option<(Routed, Wait)>> {
        let (stage, slot) = (routed.consumer, routed.pick);
        let queue = &self.queues[stage][slot];
        if let Charge::Admit = routed.charge {
            match queue.poll_admit(routed.bytes, waker) {
                Poll::Ready(admitted) => routed.charge = Charge::Lease(admitted?),
                Poll::Pending => return Ok(Some((routed, Wait::Admission { stage, slot }))),
            }
        }
        if let Charge::Lease(admitted) = &mut routed.charge {
            let node = self.routing[stage].instance_nodes[slot];
            match self.staging.lease(routed.source.0, node, routed.bytes, waker) {
                Poll::Ready(lease) => {
                    let charge = StagingCharge {
                        _slot: admitted.take(),
                        _lease: lease?,
                        committed: routed.committed,
                        source: routed.source,
                    };
                    routed.block.attach_staging(Arc::new(charge));
                    routed.charge = Charge::Push;
                    self.resplit_quotas(node);
                }
                Poll::Pending => return Ok(Some((routed, Wait::Lease(node)))),
            }
        }
        Ok(queue
            .poll_push(routed.block, waker)?
            .map(|block| (Routed { block, ..routed }, Wait::Push { stage, slot })))
    }

    /// Demand-weighted quota re-split (cost-model term 1): every
    /// `QUOTA_RESPLIT_CADENCE` admissions on `node`, fold each of its
    /// queues' freshly admitted bytes into their demand EWMA and apply the
    /// new shares.
    fn resplit_quotas(&self, node: MemoryNodeId) {
        let staging = &self.staging;
        let Some(group) = staging.quota_groups.iter().find(|g| g.node == node) else { return };
        let shares = group.splitter.lock().on_admission(
            |i| {
                let (s, q) = group.members[i];
                self.queues[s][q].admitted_bytes_total()
            },
            staging.budget,
            staging.quota_floor,
            &self.cost,
        );
        for (&(s, q), &share) in group.members.iter().zip(shares.iter().flatten()) {
            self.queues[s][q].set_byte_quota(share);
        }
    }
}
