//! The router operator: parallelism encapsulation on the control plane.
//!
//! §3.1: the router "only operates on the control plane. A task refers to the
//! target input data via a block handle. The router transfers the block handle
//! from the producer to the consumer but not the actual data." It decides the
//! degree of parallelism, instantiates its consumers, pins them to devices
//! (affinity), and routes handles according to a pluggable policy. Policies
//! never look at tuples: broadcast routing uses the target tag stamped by a
//! multicasting mem-move.

use crate::plan::{DeviceTarget, RouterPolicy};
use hetex_common::{BlockMeta, HetError, Result};
use hetex_topology::{Affinity, DeviceId, DeviceKind, ServerTopology};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// One consumer instance the router fans out to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConsumerSlot {
    /// Device type of the instance.
    pub kind: DeviceKind,
    /// CPU-core / GPU affinity pair assigned by the router (§4.2).
    pub affinity: Affinity,
}

/// The runtime router. Borrows its consumer slots (the slot plan lives in the
/// compiled stage graph); routing itself is lock-free.
#[derive(Debug)]
pub struct Router<'a> {
    policy: RouterPolicy,
    consumers: &'a [ConsumerSlot],
    cursor: AtomicUsize,
}

impl<'a> Router<'a> {
    /// A router with the given policy and consumer instances.
    pub fn new(policy: RouterPolicy, consumers: &'a [ConsumerSlot]) -> Result<Self> {
        if consumers.is_empty() {
            return Err(HetError::Plan("router needs at least one consumer".into()));
        }
        if policy == RouterPolicy::Union && consumers.len() != 1 {
            return Err(HetError::Plan(
                "a union router merges producers into exactly one consumer".into(),
            ));
        }
        Ok(Self { policy, consumers, cursor: AtomicUsize::new(0) })
    }

    /// Instantiate consumer slots for the given targets on a topology,
    /// pinning CPU instances to interleaved cores and GPU instances to GPUs —
    /// the affinity assignment of §4.2. Every slot gets *both* a CPU and a GPU
    /// affinity (inherited by the pipelines it instantiates); only the one
    /// matching the slot's device kind is used by the slot itself.
    pub fn plan_consumers(
        targets: &[DeviceTarget],
        topology: &ServerTopology,
    ) -> Result<Vec<ConsumerSlot>> {
        Self::plan_consumers_offset(targets, topology, 0)
    }

    /// Like [`Self::plan_consumers`], but rotating the interleaved core list
    /// by `offset` cores. The pipelined executor runs stages concurrently, so
    /// the planner staggers each stage's CPU instances across the topology —
    /// concurrent pipelines land on disjoint cores when enough exist instead
    /// of oversubscribing the same few.
    pub fn plan_consumers_offset(
        targets: &[DeviceTarget],
        topology: &ServerTopology,
        offset: usize,
    ) -> Result<Vec<ConsumerSlot>> {
        let cores = topology.cpu_cores_interleaved();
        let gpus = topology.gpus();
        let mut slots = Vec::new();
        for target in targets {
            match target.kind {
                DeviceKind::CpuCore => {
                    if target.dop > cores.len() {
                        return Err(HetError::Config(format!(
                            "requested {} CPU instances, topology has {} cores",
                            target.dop,
                            cores.len()
                        )));
                    }
                    for i in 0..target.dop {
                        let core = cores[(offset + i) % cores.len()];
                        let gpu = gpus.get(i % gpus.len().max(1)).copied();
                        slots.push(ConsumerSlot {
                            kind: DeviceKind::CpuCore,
                            affinity: Affinity::new(Some(core), gpu),
                        });
                    }
                }
                DeviceKind::Gpu => {
                    if target.dop > gpus.len() {
                        return Err(HetError::Config(format!(
                            "requested {} GPU instances, topology has {} GPUs",
                            target.dop,
                            gpus.len()
                        )));
                    }
                    for i in 0..target.dop {
                        let gpu = gpus[i % gpus.len()];
                        // The CPU half of the affinity hosts the instance's
                        // CPU-side work (kernel launches, transfers). It must
                        // honour the same stagger `offset` as the CPU slots:
                        // without it, every concurrent stage's GPU instances
                        // collided on host cores 0, 1, … while the CPU slots
                        // were carefully spread apart.
                        let core = cores.get((offset + i) % cores.len().max(1)).copied();
                        slots.push(ConsumerSlot {
                            kind: DeviceKind::Gpu,
                            affinity: Affinity::new(core, Some(gpu)),
                        });
                    }
                }
            }
        }
        Ok(slots)
    }

    /// The routing policy.
    pub fn policy(&self) -> RouterPolicy {
        self.policy
    }

    /// The consumer instances.
    pub fn consumers(&self) -> &[ConsumerSlot] {
        self.consumers
    }

    /// Degree of parallelism this router establishes.
    pub fn dop(&self) -> usize {
        self.consumers.len()
    }

    /// Route one block handle (by its metadata) to a consumer index.
    ///
    /// `loads` is the current load of each consumer (e.g. its simulated clock
    /// in nanoseconds); it is only consulted by the least-loaded policy and
    /// may be empty for the others.
    pub fn route(&self, meta: &BlockMeta, loads: &[u64]) -> Result<usize> {
        let n = self.consumers.len();
        match self.policy {
            RouterPolicy::Union => Ok(0),
            RouterPolicy::RoundRobin => Ok(self.cursor.fetch_add(1, Ordering::Relaxed) % n),
            RouterPolicy::LeastLoaded => {
                if loads.len() == n {
                    // Rotate the scan origin so ties break round-robin:
                    // concurrent producers routing against momentarily equal
                    // (or stale) load estimates must not stampede the same
                    // consumer index.
                    let start = self.cursor.fetch_add(1, Ordering::Relaxed) % n;
                    let best =
                        (0..n).map(|off| (start + off) % n).min_by_key(|&i| loads[i]).unwrap_or(0);
                    Ok(best)
                } else if loads.is_empty() {
                    // An empty vector is a legitimate "no load information"
                    // signal: degrade to round-robin.
                    Ok(self.cursor.fetch_add(1, Ordering::Relaxed) % n)
                } else {
                    // A non-empty vector of the wrong length is a caller bug
                    // (estimates indexed against some other consumer set);
                    // routing on garbage silently misbalances the query, so
                    // fail loudly instead.
                    Err(HetError::Plan(format!(
                        "least-loaded routing got {} load estimates for {n} consumers",
                        loads.len()
                    )))
                }
            }
            RouterPolicy::Target => {
                let target = meta.broadcast_target.ok_or_else(|| {
                    HetError::Plan(
                        "target routing requires mem-move to tag blocks with a broadcast target"
                            .into(),
                    )
                })?;
                if target >= n {
                    return Err(HetError::Plan(format!(
                        "broadcast target {target} out of range for {n} consumers"
                    )));
                }
                Ok(target)
            }
        }
    }

    /// Devices (by id) that the consumers of this router execute on, in slot
    /// order — the executor binds one worker per slot to these.
    pub fn consumer_devices(&self) -> Vec<Option<DeviceId>> {
        self.consumers.iter().map(|slot| slot.affinity.for_kind(slot.kind)).collect()
    }
}

/// Incremental, lock-free load estimates for a router's consumers.
///
/// The pipelined executor routes blocks from many producer workers
/// concurrently, so the least-loaded policy's per-consumer load accumulator
/// cannot be a serial pre-pass vector any more: it is a vector of atomics.
/// Each producer projects `load[i] + cost[i]` for every consumer, lets the
/// router pick, and commits the winner's cost with a single `fetch_add`.
/// Races between concurrent routing decisions can momentarily over- or
/// under-estimate a consumer's load; that only perturbs the greedy balancing
/// heuristic (exactly like the paper's feedback-driven router, whose load
/// signals are also slightly stale), never correctness.
#[derive(Debug)]
pub struct LoadEstimator {
    loads: Vec<AtomicU64>,
}

impl LoadEstimator {
    /// An estimator with one zeroed accumulator per consumer.
    pub fn new(consumers: usize) -> Self {
        Self { loads: (0..consumers).map(|_| AtomicU64::new(0)).collect() }
    }

    /// Number of consumers tracked.
    pub fn len(&self) -> usize {
        self.loads.len()
    }

    /// True when tracking no consumers.
    pub fn is_empty(&self) -> bool {
        self.loads.is_empty()
    }

    /// Projected completion time per consumer if the block were assigned to
    /// it: current load plus the block's estimated `costs[i]` on consumer `i`.
    pub fn projected(&self, costs: &[u64]) -> Vec<u64> {
        self.loads
            .iter()
            .zip(costs)
            .map(|(load, &cost)| load.load(Ordering::Relaxed).saturating_add(cost))
            .collect()
    }

    /// Like [`Self::projected`], with three more terms, all priced by the
    /// unified cost model (`crate::cost`); this is only the mechanism.
    ///
    /// - `penalties[i]`: an additive per-consumer term, the staging-arena
    ///   occupancy of the consumer's node, so the least-loaded policy steers
    ///   blocks away from memory-starved nodes before their producers park.
    /// - `gate_ns`: the estimated opening time of the consumer stage's
    ///   dependency gate (0 for ungated stages). No gated backlog can start
    ///   before it, so each projection is the absolute completion estimate
    ///   `gate + load + cost + penalty`. The gate is shared by every consumer
    ///   and never changes the ranking by itself.
    /// - `slowdowns[i]`: the consumer's observed-slowdown EWMA (see
    ///   `crate::cost::SlowdownObserver`), multiplying its device-axis term
    ///   (committed backlog plus this block's cost). Committed loads keep
    ///   pricing the nominal profile, so a hidden 8× straggler's projections
    ///   grow 8× and it stops receiving new blocks. The gate and the penalty
    ///   stay un-scaled.
    ///
    /// An empty `slowdowns` (or a slowdown of exactly 1.0 — healthy devices
    /// and toggled-off feedback both read exactly 1.0) keeps the projection
    /// in the integer domain, bit-identical to the pre-calibration math.
    pub fn projected_with_feedback(
        &self,
        costs: &[u64],
        penalties: &[u64],
        gate_ns: u64,
        slowdowns: &[f64],
    ) -> Vec<u64> {
        (0..self.loads.len().min(costs.len()).min(penalties.len()))
            .map(|i| {
                let slowdown = slowdowns.get(i).copied().unwrap_or(1.0);
                self.project(i, costs[i], penalties[i], gate_ns, slowdown)
            })
            .collect()
    }

    /// Consumer `idx`'s term of [`Self::projected_with_feedback`]: the
    /// in-place form the executor's router calls once per consumer, so a
    /// routed block allocates no projection vectors.
    pub fn project(&self, idx: usize, cost: u64, penalty: u64, gate_ns: u64, slowdown: f64) -> u64 {
        let device_ns = self.loads[idx].load(Ordering::Relaxed).saturating_add(cost);
        let device_ns =
            if slowdown == 1.0 { device_ns } else { (device_ns as f64 * slowdown.max(1.0)) as u64 };
        gate_ns.saturating_add(device_ns).saturating_add(penalty)
    }

    /// Commit `cost` to consumer `idx`'s load (after routing a block to it).
    pub fn commit(&self, idx: usize, cost: u64) {
        if let Some(load) = self.loads.get(idx) {
            load.fetch_add(cost, Ordering::Relaxed);
        }
    }

    /// Remove `cost` from consumer `idx`'s load — the inverse of
    /// [`Self::commit`], used when adaptive re-routing withdraws a block
    /// from the consumer it was committed to. Saturating: the estimator must
    /// never underflow into a "negative" (huge) load.
    pub fn decommit(&self, idx: usize, cost: u64) {
        if let Some(load) = self.loads.get(idx) {
            let _ = load.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(cost))
            });
        }
    }

    /// The largest per-consumer load tracked — an estimate of the stage's
    /// completion time, which downstream gated stages use as their gate-time
    /// estimate while the build is still running.
    pub fn max_load(&self) -> u64 {
        self.loads.iter().map(|l| l.load(Ordering::Relaxed)).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetex_common::{BlockId, MemoryNodeId};

    fn meta() -> BlockMeta {
        BlockMeta::new(BlockId::new(0), MemoryNodeId::new(0))
    }

    fn slots(n: usize) -> Vec<ConsumerSlot> {
        (0..n)
            .map(|i| ConsumerSlot {
                kind: DeviceKind::CpuCore,
                affinity: Affinity::cpu(DeviceId::new(i)),
            })
            .collect()
    }

    #[test]
    fn round_robin_cycles_through_consumers() {
        let slots = slots(3);
        let router = Router::new(RouterPolicy::RoundRobin, &slots).unwrap();
        let picks: Vec<usize> = (0..6).map(|_| router.route(&meta(), &[]).unwrap()).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
        assert_eq!(router.dop(), 3);
    }

    #[test]
    fn least_loaded_picks_the_idle_consumer() {
        let slots = slots(3);
        let router = Router::new(RouterPolicy::LeastLoaded, &slots).unwrap();
        assert_eq!(router.route(&meta(), &[500, 100, 900]).unwrap(), 1);
        assert_eq!(router.route(&meta(), &[100, 100, 50]).unwrap(), 2);
        // Missing load information degrades to round-robin rather than failing.
        let a = router.route(&meta(), &[]).unwrap();
        let b = router.route(&meta(), &[]).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn least_loaded_rejects_wrong_length_load_vectors() {
        // Regression test: a non-empty loads vector of the wrong length is a
        // caller bug (estimates for some other consumer set) and used to be
        // silently routed round-robin — now it fails the plan.
        let slots = slots(3);
        let router = Router::new(RouterPolicy::LeastLoaded, &slots).unwrap();
        let err = router.route(&meta(), &[100, 200]).unwrap_err();
        assert_eq!(err.category(), "plan");
        assert!(err.to_string().contains("2 load estimates for 3 consumers"), "{err}");
        assert!(router.route(&meta(), &[1, 2, 3, 4]).is_err());
        // The empty "no info" signal still degrades gracefully.
        assert!(router.route(&meta(), &[]).is_ok());
    }

    #[test]
    fn target_routing_follows_broadcast_tags() {
        let slots = slots(2);
        let router = Router::new(RouterPolicy::Target, &slots).unwrap();
        let mut m = meta();
        m.broadcast_target = Some(1);
        assert_eq!(router.route(&m, &[]).unwrap(), 1);
        m.broadcast_target = Some(5);
        assert!(router.route(&m, &[]).is_err());
        assert!(router.route(&meta(), &[]).is_err());
    }

    #[test]
    fn union_router_requires_single_consumer() {
        let two = slots(2);
        assert!(Router::new(RouterPolicy::Union, &two).is_err());
        let one = slots(1);
        let router = Router::new(RouterPolicy::Union, &one).unwrap();
        assert_eq!(router.route(&meta(), &[]).unwrap(), 0);
        assert!(Router::new(RouterPolicy::RoundRobin, &[]).is_err());
    }

    #[test]
    fn plan_consumers_assigns_both_affinities() {
        let topology = ServerTopology::paper_server();
        let slots =
            Router::plan_consumers(&[DeviceTarget::cpu(4), DeviceTarget::gpu(2)], &topology)
                .unwrap();
        assert_eq!(slots.len(), 6);
        let cpu_slots: Vec<_> = slots.iter().filter(|s| s.kind == DeviceKind::CpuCore).collect();
        let gpu_slots: Vec<_> = slots.iter().filter(|s| s.kind == DeviceKind::Gpu).collect();
        assert_eq!(cpu_slots.len(), 4);
        assert_eq!(gpu_slots.len(), 2);
        // Every slot carries both affinities (§4.2) …
        assert!(slots.iter().all(|s| s.affinity.cpu_core.is_some()));
        assert!(slots.iter().all(|s| s.affinity.gpu.is_some()));
        // … and GPU slots are pinned to distinct GPUs.
        assert_ne!(gpu_slots[0].affinity.gpu, gpu_slots[1].affinity.gpu);
        // CPU instances are interleaved across sockets.
        let c0 = cpu_slots[0].affinity.cpu_core.unwrap();
        let c1 = cpu_slots[1].affinity.cpu_core.unwrap();
        assert_ne!(topology.device(c0).unwrap().socket, topology.device(c1).unwrap().socket);
    }

    #[test]
    fn load_estimator_projects_and_commits_concurrently() {
        let est = LoadEstimator::new(3);
        assert_eq!(est.len(), 3);
        assert!(!est.is_empty());
        assert_eq!(est.projected(&[5, 10, 15]), vec![5, 10, 15]);
        est.commit(1, 100);
        assert_eq!(est.projected(&[5, 10, 15]), vec![5, 110, 15]);
        // Concurrent commits accumulate without loss.
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        est.commit(0, 1);
                    }
                });
            }
        });
        assert_eq!(est.projected(&[0, 0, 0])[0], 4000);
        // Out-of-range commits are ignored rather than panicking.
        est.commit(7, 1);
    }

    #[test]
    fn occupancy_penalties_shift_the_projection() {
        let est = LoadEstimator::new(3);
        est.commit(0, 100);
        // Without penalties consumer 0 is the most loaded…
        assert_eq!(est.projected(&[10, 10, 10]), vec![110, 10, 10]);
        // …and a starved-arena penalty on consumer 1 re-ranks it below 2.
        assert_eq!(
            est.projected_with_feedback(&[10, 10, 10], &[0, 500, 0], 0, &[]),
            vec![110, 510, 10]
        );
    }

    #[test]
    fn gate_term_shifts_projections_to_absolute_completions() {
        let est = LoadEstimator::new(3);
        est.commit(0, 400);
        assert_eq!(
            est.projected_with_feedback(&[10, 300, 300], &[0, 0, 0], 0, &[]),
            vec![410, 300, 300]
        );
        // The gate is a shared offset: projections become absolute
        // completion estimates (gate + queued work + this block)…
        assert_eq!(
            est.projected_with_feedback(&[10, 300, 300], &[0, 0, 0], 500, &[]),
            vec![910, 800, 800]
        );
        // …and in particular queued backlog is never forgotten under the
        // gate (an earlier floor-based formulation dropped it, flooding the
        // cheapest consumer with every pre-gate block).
        assert!(
            est.projected_with_feedback(&[10, 300, 300], &[0, 0, 0], 500, &[])[0]
                > est.projected_with_feedback(&[10, 300, 300], &[0, 0, 0], 500, &[])[1]
        );
    }

    #[test]
    fn feedback_scales_the_device_axis_only() {
        let est = LoadEstimator::new(3);
        est.commit(0, 400);
        est.commit(1, 400);
        // Unit slowdowns (and an empty vector) are bit-identical to the
        // penalty projection.
        assert_eq!(
            est.projected_with_feedback(&[100, 100, 100], &[0, 7, 0], 50, &[1.0, 1.0, 1.0]),
            est.projected_with_feedback(&[100, 100, 100], &[0, 7, 0], 50, &[])
        );
        // An observed 8x straggler's backlog-plus-block term scales by 8,
        // while the gate floor and the occupancy penalty stay un-scaled.
        let projected =
            est.projected_with_feedback(&[100, 100, 100], &[0, 7, 0], 50, &[8.0, 1.0, 1.0]);
        assert_eq!(projected, vec![50 + 500 * 8, 50 + 500 + 7, 50 + 100]);
        // Sub-nominal slowdowns are clamped: feedback never makes a device
        // look faster than its profile.
        assert_eq!(
            est.projected_with_feedback(&[100, 100, 100], &[0, 0, 0], 0, &[0.5, 1.0, 1.0])[0],
            500
        );
    }

    #[test]
    fn decommit_moves_load_and_saturates() {
        let est = LoadEstimator::new(2);
        est.commit(0, 100);
        est.commit(1, 40);
        assert_eq!(est.max_load(), 100);
        // A re-route moves the cost from one consumer to another.
        est.decommit(0, 60);
        est.commit(1, 60);
        assert_eq!(est.projected(&[0, 0]), vec![40, 100]);
        assert_eq!(est.max_load(), 100);
        // Over-decommit saturates at zero instead of wrapping.
        est.decommit(0, 10_000);
        assert_eq!(est.projected(&[0, 0])[0], 0);
        // Out-of-range decommits are ignored rather than panicking.
        est.decommit(9, 1);
    }

    #[test]
    fn stagger_offset_moves_gpu_host_cores_too() {
        // Regression test: the stagger offset used to apply only to CPU
        // slots, so every concurrent stage's GPU instances hosted their
        // CPU-side work on the same first cores of the interleaved list.
        let topology = ServerTopology::paper_server();
        let targets = [DeviceTarget::cpu(2), DeviceTarget::gpu(2)];
        let base = Router::plan_consumers_offset(&targets, &topology, 0).unwrap();
        let shifted = Router::plan_consumers_offset(&targets, &topology, 4).unwrap();
        for (b, s) in base.iter().zip(&shifted) {
            assert_ne!(
                b.affinity.cpu_core, s.affinity.cpu_core,
                "offset must move the host core of every slot kind, got {b:?} vs {s:?}"
            );
        }
        // GPU pinning itself is unaffected by the stagger.
        assert_eq!(base[2].affinity.gpu, shifted[2].affinity.gpu);
        assert_eq!(base[3].affinity.gpu, shifted[3].affinity.gpu);
    }

    #[test]
    fn plan_consumers_rejects_oversubscription() {
        let topology = ServerTopology::paper_server();
        assert!(Router::plan_consumers(&[DeviceTarget::gpu(3)], &topology).is_err());
        assert!(Router::plan_consumers(&[DeviceTarget::cpu(25)], &topology).is_err());
    }

    #[test]
    fn consumer_devices_match_slot_kinds() {
        let topology = ServerTopology::paper_server();
        let slots =
            Router::plan_consumers(&[DeviceTarget::cpu(2), DeviceTarget::gpu(1)], &topology)
                .unwrap();
        let router = Router::new(RouterPolicy::LeastLoaded, &slots).unwrap();
        let devices = router.consumer_devices();
        assert_eq!(devices.len(), 3);
        assert!(devices.iter().all(Option::is_some));
        let gpu_dev = devices[2].unwrap();
        assert!(topology.device(gpu_dev).unwrap().is_gpu());
    }
}
