//! The unified routing/admission cost model (CostModel v2).
//!
//! Every estimation term the executor's router path and queue-admission
//! path consult lives behind one calibrated interface — those paths contain
//! no penalty arithmetic of their own, they *ask* the [`CostModel`]. Beyond
//! the shared mechanism (occupancy penalty, projection composition,
//! gate-hiding transfer split, straggler check) it prices three terms:
//!
//! 1. **Demand-weighted staging quotas** ([`CostModel::split_node_budget`],
//!    [`DemandSplitter`]) — per-queue byte shares follow an EWMA of
//!    observed admitted bytes, re-split on a cadence, floored at one
//!    maximum-size block per active queue.
//! 2. **Cross-node control-plane term** — every push into a remote
//!    consumer's queue is a mutex acquisition bouncing the queue's cache
//!    line across the interconnect. Its price is the topology's derived
//!    round trip ([`hetex_topology::ServerTopology::control_plane_ns`]), which routing
//!    charges on the consumer's node axis.
//! 3. **Critical-path gate estimate** ([`CostModel::gate_estimate_ns`]) —
//!    a gated stage cannot open before its dependency's slowest transitive
//!    *feed* clears, not merely before the dependency's own committed load.
//!
//! On top of the terms sits the one straggler estimator,
//! [`SlowdownObserver`]: a shared, lock-free EWMA of each device's
//! charged-vs-nominal busy ratio, updated at block completion. Every defence
//! against an unequal server reads it ([`CostModel::observed_device_slowdown`],
//! [`CostModel::is_straggler`]): routing multiplies it into the device-axis
//! term of the projection, so a hidden 8× straggler stops *receiving* new
//! blocks, and a lane on a device it marks as a straggler re-routes the
//! tail of its queue wherever routing's projections end it earlier.
//!
//! Link transfer estimates are not priced here either: they are the
//! topology's [`hetex_topology::ServerTopology::transfer_estimate_ns`], at each link's
//! effective rate, derived from its declared width and latency when the
//! topology is built.
//!
//! Work pricing itself (a `WorkProfile` on a `DeviceProfile`) stays in
//! `hetex-topology`'s `CostModel`, deliberately *outside* this type: the
//! executor keeps a bare work-pricing model for charging and builds one of
//! these per execution for estimation, so the two concerns cannot be mixed
//! up.

use hetex_common::{EngineConfig, Priority};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Observed-slowdown EWMA (charged vs nominal busy time) above which a
/// device is treated as a straggler: only lanes on observed stragglers
/// re-route their queued blocks. Healthy devices price out at exactly 1.0
/// in this simulation; the threshold leaves room for estimator drift
/// without letting ordinary imbalance trigger a re-route.
pub const STRAGGLER_RATIO: f64 = 1.5;

/// Arena occupancy below which the staging-pressure penalty stays disengaged:
/// a half-empty arena cannot park anyone, and pricing it would only add
/// wall-clock-dependent noise to otherwise stable routing decisions.
pub const OCCUPANCY_ENGAGE: f64 = 0.5;

/// How many byte admissions on a memory node pass between staging-quota
/// re-splits. Long enough that the EWMA sees a meaningful demand delta,
/// short enough that a workload shift re-balances within a few dozen blocks.
pub const QUOTA_RESPLIT_CADENCE: u64 = 32;

/// EWMA smoothing factor of the per-queue demand signal (weight of the most
/// recent re-split interval).
pub const DEMAND_EWMA_ALPHA: f64 = 0.5;

/// EWMA smoothing factor of the per-device observed-slowdown signal (weight
/// of the most recent block). A quarter keeps one noisy block from whipping
/// the routing multiplier around, while a genuine straggler still converges
/// within a handful of completions — early enough that most of the stream is
/// still unrouted when the feedback engages.
pub const SLOWDOWN_EWMA_ALPHA: f64 = 0.25;

/// The straggler estimator of one execution (or, when serving, of one
/// server): a lock-free EWMA per device slot of the charged-vs-nominal busy
/// ratio, updated by every worker at block completion. It is keyed by
/// device, not by stage: a device that straggles in one stage straggles in
/// all of them, so routing diverts *new* blocks everywhere and every
/// stage's lane on it re-routes.
///
/// Lock-free: each slot is one `AtomicU64` holding the EWMA's `f64` bits
/// (zero bits encode "no observation yet" — a real EWMA is always ≥ 1.0,
/// whose bits are non-zero — and read as a nominal 1.0). Updates CAS-loop;
/// a lost race folds in one sample late, which only delays the estimate by
/// one block.
#[derive(Debug)]
pub struct SlowdownObserver {
    ewma_bits: Vec<AtomicU64>,
}

impl SlowdownObserver {
    /// An observer over `slots` device slots with no observations yet
    /// (every slot reads as a nominal 1.0).
    pub fn new(slots: usize) -> Self {
        Self { ewma_bits: (0..slots).map(|_| AtomicU64::new(0)).collect() }
    }

    /// Fold one completed block into `slot`'s EWMA: `charged_ns` is what the
    /// device clock was actually charged, `nominal_ns` what the nominal cost
    /// model prices for the same work. The per-block sample is floored at
    /// 1.0 — healthy devices price out at exactly nominal in this
    /// simulation, and a below-nominal fluke must not make a device look
    /// *faster* than its profile (the estimates stay conservative). The
    /// first observation seeds the EWMA at the sample itself, so a hidden
    /// straggler engages the feedback after its very first block.
    pub fn record(&self, slot: usize, charged_ns: u64, nominal_ns: u64) {
        if nominal_ns == 0 {
            return;
        }
        let Some(bits) = self.ewma_bits.get(slot) else { return };
        let sample = (charged_ns as f64 / nominal_ns as f64).max(1.0);
        let _ = bits.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |old_bits| {
            let next = if old_bits == 0 {
                sample
            } else {
                SLOWDOWN_EWMA_ALPHA * sample
                    + (1.0 - SLOWDOWN_EWMA_ALPHA) * f64::from_bits(old_bits)
            };
            Some(next.to_bits())
        });
    }

    /// `slot`'s current observed-slowdown EWMA (1.0 until observed).
    pub fn slowdown(&self, slot: usize) -> f64 {
        match self.ewma_bits.get(slot).map(|b| b.load(Ordering::Relaxed)).unwrap_or(0) {
            0 => 1.0,
            bits => f64::from_bits(bits),
        }
    }

    /// Every slot's current EWMA (1.0 for never-observed slots) — the
    /// per-slot observability surface `ExecutionResult` reports.
    pub fn snapshot(&self) -> Vec<f64> {
        (0..self.ewma_bits.len()).map(|i| self.slowdown(i)).collect()
    }
}

/// The unified cost model. Cheap to construct (per execution) and immutable;
/// the mutable demand state lives in [`DemandSplitter`]s owned by the
/// executor, and the mutable feedback state in the shared
/// [`SlowdownObserver`] this model reads.
#[derive(Debug, Clone, Default)]
pub struct CostModel {
    observer: Option<Arc<SlowdownObserver>>,
}

impl CostModel {
    /// The cost model an engine configuration selects. No configuration
    /// knob reaches the model: the observer the executor attaches via
    /// [`Self::with_observer`] is its only input, and until it is attached
    /// the model prices nominal profiles.
    pub fn from_config(_config: &EngineConfig) -> Self {
        Self::default()
    }

    /// Attach the execution's shared slowdown observer.
    pub fn with_observer(mut self, observer: Arc<SlowdownObserver>) -> Self {
        self.observer = Some(observer);
        self
    }

    // ------------------------------------------------------------------
    // The straggler estimator
    // ------------------------------------------------------------------

    /// Record one completed block into the attached observer (no-op when
    /// none is attached).
    pub fn observe(&self, device_slot: usize, charged_ns: u64, nominal_ns: u64) {
        if let Some(observer) = &self.observer {
            observer.record(device_slot, charged_ns, nominal_ns);
        }
    }

    /// `device_slot`'s observed slowdown: the observer's EWMA, exactly 1.0
    /// with no observer attached or before the device's first block. Routing
    /// multiplies it into the device-axis term of a projection.
    pub fn observed_device_slowdown(&self, device_slot: usize) -> f64 {
        self.observer.as_ref().map_or(1.0, |observer| observer.slowdown(device_slot))
    }

    /// True when `device_slot` is an observed straggler (its EWMA is above
    /// [`STRAGGLER_RATIO`]): lanes on it re-route their queue's tail when a
    /// sibling would end it earlier, and no re-route off a straggler goes
    /// to another one.
    pub fn is_straggler(&self, device_slot: usize) -> bool {
        self.observed_device_slowdown(device_slot) > STRAGGLER_RATIO
    }

    /// Serving-layer fairness weight of a running query session: the
    /// priority class's base weight scaled by the estimated remaining
    /// simulated cost (in seconds, to keep the magnitudes tame). Weighted
    /// max-min sharing under these weights balances *completion*: a query
    /// with more work left draws a proportionally larger rate, so co-runners
    /// of one class converge on finishing together instead of the
    /// nearly-done query hoarding devices it barely needs — while the
    /// priority classes keep their configured base ratios throughout.
    pub fn fairness_weight(&self, priority: Priority, remaining_ns: u64) -> f64 {
        priority.weight() * (remaining_ns.max(1) as f64 / 1e9)
    }

    // ------------------------------------------------------------------
    // Router-path terms
    // ------------------------------------------------------------------

    /// Staging-pressure penalty of routing a `device_ns`-sized block to a
    /// consumer whose node arena is at `occupancy` (0.0–1.0): a block routed
    /// to a starved node would park its producer on a lease, so its
    /// projected cost grows with the leased fraction past
    /// [`OCCUPANCY_ENGAGE`].
    pub fn occupancy_penalty_ns(&self, device_ns: u64, occupancy: f64) -> u64 {
        let pressure = (occupancy - OCCUPANCY_ENGAGE).max(0.0) * 2.0;
        (device_ns as f64 * pressure) as u64
    }

    /// Compose one consumer's projection from its two backlogs: the later of
    /// its device projection and its memory node's backlog (the same two
    /// clocks the executor charges; summing would double-count), plus a
    /// small device tie-breaker keeping the projection strictly increasing
    /// in the consumer's own backlog, plus — with `numa_tiebreak` — a +1 ns
    /// nudge on non-local consumers so exact ties keep control-plane traffic
    /// on-socket. The executor always asks for the nudge.
    pub fn compose_projection(
        &self,
        device_projection_ns: u64,
        node_backlog_ns: u64,
        local: bool,
        numa_tiebreak: bool,
    ) -> u64 {
        let base =
            device_projection_ns.max(node_backlog_ns).saturating_add(device_projection_ns >> 7);
        if numa_tiebreak && !local {
            base.saturating_add(1)
        } else {
            base
        }
    }

    /// Split a gated consumer's transfer between the two projection axes.
    /// Only the spill of `transfer_ns` past the gate's remaining hiding
    /// capacity (`gate_ns` minus the transfer backlog `node_backlog_ns`
    /// already accumulated toward the consumer's node) delays the
    /// consumer's *device*; the **whole** transfer — hidden part and spill
    /// alike — is carried on the *node* axis, because it occupies the path
    /// to the consumer's memory regardless of the gate. The two axes are
    /// maxed by [`Self::compose_projection`], never summed, so the spill
    /// appearing on both does not double-count. Returns
    /// `(device_axis_ns, node_axis_ns)` — i.e. `(spill, transfer_ns)`.
    pub fn gated_transfer_split(
        &self,
        transfer_ns: u64,
        gate_ns: u64,
        node_backlog_ns: u64,
    ) -> (u64, u64) {
        let spill = transfer_ns.saturating_sub(gate_ns.saturating_sub(node_backlog_ns));
        (spill, transfer_ns)
    }

    // ------------------------------------------------------------------
    // Gate estimation (term 3)
    // ------------------------------------------------------------------

    /// Estimated opening time of a stage's dependency gate: the partial
    /// floor of already-completed dependencies (`floor_ns`) combined with
    /// each still-running dependency's estimate, the maximum committed load
    /// over its whole transitive *feed chain* (`feeds[p] == Some(s)` meaning
    /// stage `p` produces into stage `s`): a build fed by a slow scan
    /// cannot complete before that scan's backlog clears, no matter how
    /// little work the build itself has committed yet.
    ///
    /// `load_of(stage)` is a lookup (not a pre-built slice): this runs on
    /// the per-block routing hot path, and only the stages on a feed chain
    /// are ever read.
    pub fn gate_estimate_ns(
        &self,
        deps: &[usize],
        floor_ns: u64,
        load_of: &dyn Fn(usize) -> u64,
        feeds: &[Option<usize>],
    ) -> u64 {
        deps.iter()
            .map(|&dep| Self::critical_path_ns(dep, load_of, feeds, 0))
            .fold(floor_ns, u64::max)
    }

    /// The slowest committed load along `stage`'s transitive feed chain
    /// (including `stage` itself). The stage graph is a DAG; the depth guard
    /// only protects against malformed wiring.
    fn critical_path_ns(
        stage: usize,
        load_of: &dyn Fn(usize) -> u64,
        feeds: &[Option<usize>],
        depth: usize,
    ) -> u64 {
        let own = load_of(stage);
        if depth > feeds.len() {
            return own;
        }
        let mut best = own;
        for (producer, fed) in feeds.iter().enumerate() {
            if *fed == Some(stage) {
                best = best.max(Self::critical_path_ns(producer, load_of, feeds, depth + 1));
            }
        }
        best
    }

    // ------------------------------------------------------------------
    // Staging quota shares (term 1)
    // ------------------------------------------------------------------

    /// Split a node's staging `budget` across its queues by observed
    /// `demands`, flooring every queue at `floor` bytes (one maximum-size
    /// block — an active queue must never starve below a single block, rule
    /// 3 of the §4.2 lease-ordering argument). The shares sum to exactly
    /// the budget: the proportional remainder after floors goes to demand,
    /// and rounding dust lands on the hungriest queue. When the floors
    /// alone exceed the budget (more queues than validation's per-device
    /// floor anticipated), or no demand was observed yet, the split
    /// degrades to the even split.
    pub fn split_node_budget(&self, budget: u64, floor: u64, demands: &[f64]) -> Vec<u64> {
        let n = demands.len() as u64;
        if n == 0 {
            return Vec::new();
        }
        let even = || vec![(budget / n).max(1); demands.len()];
        // Clamp each demand to non-negative finite before summing: the
        // shares below clamp their numerators the same way, and a negative
        // contribution to the denominator would let a single share exceed
        // the whole budget (violating the sum-to-budget contract).
        let total_demand: f64 =
            demands.iter().copied().filter(|d| d.is_finite()).map(|d| d.max(0.0)).sum();
        if floor.saturating_mul(n) > budget || total_demand <= 0.0 {
            return even();
        }
        let spread = budget - floor * n;
        let mut shares: Vec<u64> = demands
            .iter()
            .map(|&d| floor + (spread as f64 * (d.max(0.0) / total_demand)) as u64)
            .collect();
        // Hand the rounding dust to the hungriest queue so the shares sum to
        // exactly the node budget.
        let assigned: u64 = shares.iter().sum();
        let hungriest = demands
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0);
        shares[hungriest] += budget.saturating_sub(assigned);
        // A zero-byte quota is meaningless (queues floor their quota at one
        // byte anyway); keep degenerate inputs safe.
        for share in &mut shares {
            *share = (*share).max(1);
        }
        shares
    }
}

/// Mutable per-node demand state of the quota re-split: an EWMA of each
/// queue's admitted bytes per re-split interval, advanced every
/// [`QUOTA_RESPLIT_CADENCE`] admissions. The executor owns one per memory
/// node (behind a mutex) and applies the returned shares to the node's
/// queues.
#[derive(Debug)]
pub struct DemandSplitter {
    ewma: Vec<f64>,
    last_totals: Vec<u64>,
    admissions: u64,
}

impl DemandSplitter {
    /// A splitter for `queues` queues with no demand observed yet.
    pub fn new(queues: usize) -> Self {
        Self { ewma: vec![0.0; queues], last_totals: vec![0; queues], admissions: 0 }
    }

    /// The current demand estimate per queue.
    pub fn demands(&self) -> &[f64] {
        &self.ewma
    }

    /// Record one admission. On the cadence boundary, fold each queue's
    /// newly admitted bytes (`totals(i)` is queue `i`'s cumulative admitted
    /// bytes) into the EWMA and return the fresh shares to apply; `None`
    /// between boundaries.
    pub fn on_admission(
        &mut self,
        totals: impl Fn(usize) -> u64,
        budget: u64,
        floor: u64,
        model: &CostModel,
    ) -> Option<Vec<u64>> {
        self.admissions += 1;
        if !self.admissions.is_multiple_of(QUOTA_RESPLIT_CADENCE) {
            return None;
        }
        for i in 0..self.ewma.len() {
            let total = totals(i);
            let delta = total.saturating_sub(self.last_totals[i]) as f64;
            self.last_totals[i] = total;
            self.ewma[i] = DEMAND_EWMA_ALPHA * delta + (1.0 - DEMAND_EWMA_ALPHA) * self.ewma[i];
        }
        Some(model.split_node_budget(budget, floor, &self.ewma))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_penalty_engages_above_half() {
        let model = CostModel::default();
        assert_eq!(model.occupancy_penalty_ns(1000, 0.0), 0);
        assert_eq!(model.occupancy_penalty_ns(1000, 0.5), 0);
        assert_eq!(model.occupancy_penalty_ns(1000, 0.75), 500);
        assert_eq!(model.occupancy_penalty_ns(1000, 1.0), 1000);
    }

    #[test]
    fn projection_composition_maxes_axes_and_nudges_remote_ties() {
        let model = CostModel::default();
        // Device-dominated and node-dominated projections max, not sum.
        assert_eq!(model.compose_projection(1280, 100, true, false), 1280 + 10);
        assert_eq!(model.compose_projection(128, 5000, true, false), 5000 + 1);
        // The NUMA tie-break engages only when asked for and only off-node.
        let local = model.compose_projection(128, 128, true, true);
        let remote = model.compose_projection(128, 128, false, true);
        assert_eq!(remote, local + 1);
        assert_eq!(
            model.compose_projection(128, 128, false, false),
            model.compose_projection(128, 128, true, false)
        );
    }

    #[test]
    fn gated_transfer_split_hides_up_to_the_gate() {
        let model = CostModel::default();
        // Transfer fits entirely before the gate: nothing on the device axis.
        assert_eq!(model.gated_transfer_split(400, 1000, 0), (0, 400));
        // Accumulated node backlog eats the gate's hiding capacity.
        assert_eq!(model.gated_transfer_split(400, 1000, 800), (200, 400));
        // Transfer longer than the gate spills the difference.
        assert_eq!(model.gated_transfer_split(1500, 1000, 0), (500, 1500));
    }

    /// Three stages: 0 (scan) feeds 1 (build); stage 2 depends on 1.
    fn chain_feeds() -> Vec<Option<usize>> {
        vec![Some(1), None, None]
    }

    /// Stage-load lookup over a fixed vector (missing stages load 0).
    fn load_of(loads: &[u64]) -> impl Fn(usize) -> u64 + '_ {
        |s| loads.get(s).copied().unwrap_or(0)
    }

    #[test]
    fn gate_estimate_includes_the_dependency_feed_chain() {
        let model = CostModel::default();
        let feeds = chain_feeds();
        // The build (stage 1) committed little, but its feed (stage 0) is
        // heavily backlogged: the gate cannot open before the scan clears.
        let loads = vec![9_000, 1_000, 0];
        assert_eq!(model.gate_estimate_ns(&[1], 0, &load_of(&loads), &feeds), 9_000);
        // An idle feed leaves the dependency's own committed load.
        let idle_feed = vec![0, 1_000, 0];
        assert_eq!(model.gate_estimate_ns(&[1], 0, &load_of(&idle_feed), &feeds), 1_000);
        // The already-open floor still dominates when larger.
        assert_eq!(model.gate_estimate_ns(&[1], 20_000, &load_of(&loads), &feeds), 20_000);
    }

    #[test]
    fn gate_estimate_is_monotone_in_feed_latency() {
        // Satellite acceptance: a slower feed can only open the gate later.
        let model = CostModel::default();
        let feeds = chain_feeds();
        let mut previous = 0;
        for feed_load in [0u64, 500, 2_000, 2_000, 50_000] {
            let loads = vec![feed_load, 1_000, 0];
            let estimate = model.gate_estimate_ns(&[1], 0, &load_of(&loads), &feeds);
            assert!(
                estimate >= previous,
                "slower feed ({feed_load}) opened the gate earlier: {estimate} < {previous}"
            );
            assert!(estimate >= 1_000, "the dependency's own load is a lower bound");
            previous = estimate;
        }
    }

    #[test]
    fn straggler_threshold_separates_healthy_from_slow() {
        let observer = Arc::new(SlowdownObserver::new(4));
        let model = CostModel::default().with_observer(Arc::clone(&observer));
        // Slot 0 is never observed; the others are seeded at their sample.
        observer.record(1, 1_000, 1_000);
        observer.record(2, (STRAGGLER_RATIO * 1_000.0) as u64, 1_000);
        observer.record(3, 8_000, 1_000);
        assert!(!model.is_straggler(0));
        assert!(!model.is_straggler(1));
        assert!(!model.is_straggler(2), "the threshold itself is not a straggler");
        assert!(model.is_straggler(3));
        // Unattached, nothing straggles.
        assert!(!CostModel::default().is_straggler(3));
    }

    #[test]
    fn demand_shares_sum_to_the_budget_and_respect_the_floor() {
        let model = CostModel::default();
        let budget = 10_000u64;
        let floor = 1_000u64;
        let shares = model.split_node_budget(budget, floor, &[900.0, 100.0, 0.0]);
        // Satellite acceptance: shares sum to the node budget…
        assert_eq!(shares.iter().sum::<u64>(), budget);
        // …no queue — not even the idle one — starves below one block…
        assert!(shares.iter().all(|&s| s >= floor), "{shares:?}");
        // …and demand ranks the shares.
        assert!(shares[0] > shares[1], "{shares:?}");
        assert!(shares[1] > shares[2], "{shares:?}");
    }

    #[test]
    fn demand_split_degrades_to_even_when_it_cannot_do_better() {
        let model = CostModel::default();
        // Floors exceeding the budget: even split.
        assert_eq!(model.split_node_budget(1_000, 600, &[1.0, 1.0]), vec![500, 500]);
        // No observed demand yet: even split.
        assert_eq!(model.split_node_budget(900, 100, &[0.0, 0.0, 0.0]), vec![300, 300, 300]);
        // Degenerate inputs stay safe.
        assert!(model.split_node_budget(1_000, 100, &[]).is_empty());
        assert_eq!(model.split_node_budget(0, 0, &[1.0]), vec![1]);
        // Negative or non-finite demands are clamped out of the denominator
        // too, so no single share can exceed the budget.
        let shares = model.split_node_budget(10_000, 1_000, &[-500.0, 1_000.0, f64::NAN]);
        assert_eq!(shares.iter().sum::<u64>(), 10_000, "{shares:?}");
        assert!(shares.iter().all(|&s| (1_000..=10_000).contains(&s)), "{shares:?}");
    }

    #[test]
    fn demand_splitter_resplits_on_the_cadence() {
        let model = CostModel::default();
        let mut splitter = DemandSplitter::new(2);
        // Queue 0 admits 3000 bytes/interval, queue 1 admits 1000.
        let totals = |i: usize| if i == 0 { 3_000 } else { 1_000 };
        let mut resplits = 0;
        let mut last = None;
        for _ in 0..QUOTA_RESPLIT_CADENCE * 3 {
            if let Some(shares) = splitter.on_admission(totals, 8_000, 1_000, &model) {
                resplits += 1;
                assert_eq!(shares.iter().sum::<u64>(), 8_000);
                assert!(shares[0] > shares[1], "demand must rank the shares: {shares:?}");
                last = Some(shares);
            }
        }
        assert_eq!(resplits, 3, "one re-split per cadence interval");
        // After the first interval the deltas are zero, so the EWMA decays
        // toward even — but demand ordering is preserved while it lasts.
        assert!(last.unwrap()[0] >= 1_000);
        assert!(splitter.demands()[0] >= splitter.demands()[1]);
    }

    #[test]
    fn slowdown_observer_seeds_converges_and_floors() {
        let observer = SlowdownObserver::new(2);
        // Unobserved slots read nominal.
        assert_eq!(observer.slowdown(0), 1.0);
        assert_eq!(observer.snapshot(), vec![1.0, 1.0]);
        // The first sample seeds the EWMA directly (no blend with 1.0)…
        observer.record(0, 8_000, 1_000);
        assert_eq!(observer.slowdown(0), 8.0);
        // …and further samples blend at SLOWDOWN_EWMA_ALPHA.
        observer.record(0, 4_000, 1_000);
        let expected = SLOWDOWN_EWMA_ALPHA * 4.0 + (1.0 - SLOWDOWN_EWMA_ALPHA) * 8.0;
        assert!((observer.slowdown(0) - expected).abs() < 1e-12);
        // Below-nominal samples floor at 1.0: a device never looks *faster*
        // than its profile.
        observer.record(1, 500, 1_000);
        assert_eq!(observer.slowdown(1), 1.0);
        // Degenerate inputs are ignored rather than panicking or poisoning.
        observer.record(0, 100, 0);
        observer.record(99, 100, 100);
        assert!((observer.slowdown(0) - expected).abs() < 1e-12);
    }

    #[test]
    fn slowdown_observer_is_safe_under_concurrent_recording() {
        let observer = Arc::new(SlowdownObserver::new(1));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let observer = Arc::clone(&observer);
                scope.spawn(move || {
                    for _ in 0..1_000 {
                        observer.record(0, 4_000, 1_000);
                    }
                });
            }
        });
        // Every sample was 4.0, so whatever interleaving happened the EWMA
        // is exactly 4.0.
        assert_eq!(observer.slowdown(0), 4.0);
    }

    #[test]
    fn construction_builds_the_unattached_model() {
        // No configuration knob reaches the model: every configuration
        // builds the default, unattached model, which prices nominal.
        for config in [EngineConfig::default(), EngineConfig::cpu_only(1)] {
            let model = CostModel::from_config(&config);
            assert_eq!(format!("{model:?}"), format!("{:?}", CostModel::default()));
            assert_eq!(model.observed_device_slowdown(0), 1.0);
        }
    }

    #[test]
    fn feedback_multiplier_requires_an_observer() {
        let observer = Arc::new(SlowdownObserver::new(1));
        observer.record(0, 8_000, 1_000);
        // Observer attached: its EWMA.
        let on = CostModel::default().with_observer(Arc::clone(&observer));
        assert_eq!(on.observed_device_slowdown(0), 8.0);
        // No observer attached: nominal.
        assert_eq!(CostModel::default().observed_device_slowdown(0), 1.0);
        // Recording through the model reaches the shared observer.
        on.observe(0, 1_000, 1_000);
        assert!(observer.slowdown(0) < 8.0);
    }
}
