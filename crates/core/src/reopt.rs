//! Feedback-driven plan re-optimization (ROADMAP open item 1).
//!
//! HetExchange freezes the device-placement split and the degrees of
//! parallelism at plan time; every adaptive mechanism shipped so far
//! (slowdown-feedback routing, work stealing, calibration) moves blocks
//! *below* that frozen plan. This module closes the loop **above** the plan,
//! in the adaptive-reoptimization style of Cascades-era optimizers: execute,
//! capture runtime measurements, and feed them back into cost estimation and
//! a small plan-space search, so a repeated query's second run is planned
//! from its first run's observed behaviour instead of the declared profiles.
//!
//! The pieces:
//!
//! * [`plan_fingerprint`] — a stable hash of the device-agnostic plan, the
//!   key under which measurements are remembered.
//! * [`PlanFeedback`] — what one successful run teaches us: the placement it
//!   ran under, its simulated time, the per-device observed-slowdown EWMAs,
//!   per-stage row counts (actual selectivities) and timelines, control-plane
//!   traffic and interconnect bytes.
//! * [`FeedbackCache`] — a concurrent fingerprint→feedback map shared across
//!   queries (engine-lifetime by default; the `QueryServer` shares one
//!   server-lifetime cache across its whole pool).
//! * [`candidates`] / [`reoptimize`] — the search: enumerate valid
//!   placement/DOP combinations for the topology, cost each one from the
//!   feedback record anchored to the *measured* incumbent time, and emit a
//!   rewrite only when the estimated gain clears [`DEFAULT_REOPT_MIN_GAIN`].
//!
//! Determinism boundaries: the search consumes only the feedback record, the
//! topology's declared profiles and the [`CostModel`]'s calibrated constants
//! — never wall-clock state — so identical feedback yields an identical
//! decision. The feedback itself is distilled from simulated measurements,
//! which on gated plans can vary slightly with worker interleaving; benches
//! therefore compare medians, and the differential suite pins the disabled
//! path (`ReoptConfig::disabled()` never fingerprints, never caches, never
//! rewrites).

use crate::cost::CostModel;
use hetex_common::config::{ExecutionTarget, DEFAULT_REOPT_MIN_GAIN, EST_MAX_TUPLE_BYTES};
use hetex_common::EngineConfig;
use hetex_topology::ServerTopology;
use std::collections::HashMap;
use std::sync::Mutex;

/// Smoothing factor folding a newer run's measurements into an existing
/// feedback record of the *same* placement (a placement change replaces the
/// record wholesale — times measured under different placements must not be
/// averaged together).
pub const FEEDBACK_EWMA_ALPHA: f64 = 0.5;

/// Planning-side effective PCIe bandwidth (GB/s) used to convert candidate
/// interconnect-byte estimates into the nanosecond floor that asynchronous
/// DMA puts under a placement's completion time. A single scalar suffices
/// for ranking candidates on one server. Matches the paper server's
/// ~12 GB/s effective x16 Gen 3 links.
pub const REOPT_PCIE_GBPS: f64 = 12.0;

/// FNV-1a over the plan's stable debug rendering: a fingerprint for "the
/// same query submitted again". Stable within a build of the workspace
/// (plan rendering is deterministic); not meant to survive serialization
/// across versions — the cache it keys is in-memory and engine-lifetime.
pub fn plan_fingerprint(plan: &crate::plan::RelNode) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let rendered = format!("{plan:?}");
    let mut hash = FNV_OFFSET;
    for byte in rendered.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// What one stage's execution taught us: rows that entered, rows that
/// survived, and the simulated completion instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageObservation {
    /// Physical rows entering the stage across all instances.
    pub rows_in: u64,
    /// Physical rows the stage emitted.
    pub rows_out: u64,
    /// Simulated completion time of the stage, nanoseconds.
    pub completion_ns: u64,
}

impl StageObservation {
    /// The stage's *actual* selectivity (`rows_out / rows_in`); `None` when
    /// nothing entered.
    pub fn selectivity(&self) -> Option<f64> {
        (self.rows_in > 0).then(|| self.rows_out as f64 / self.rows_in as f64)
    }
}

/// Everything a successful run teaches the reoptimizer, distilled from the
/// engine's `QueryStats`.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanFeedback {
    /// [`plan_fingerprint`] of the device-agnostic plan.
    pub fingerprint: u64,
    /// Placement the measurements were taken under.
    pub target: ExecutionTarget,
    /// CPU degree of parallelism of the measured run.
    pub cpu_dop: usize,
    /// GPU degree of parallelism of the measured run.
    pub gpu_dop: usize,
    /// Simulated end-to-end time of the measured run, nanoseconds (EWMA
    /// across repeated runs of the same placement).
    pub sim_time_ns: f64,
    /// Observed-slowdown EWMA per device slot, indexed like the topology's
    /// device list (1.0 = healthy).
    pub observed_slowdowns: Vec<f64>,
    /// Per-stage row counts and timelines (actual selectivities).
    pub stages: Vec<StageObservation>,
    /// Cross-node control-plane acquisitions of the measured run.
    pub remote_control_acquisitions: u64,
    /// Interconnect bytes (scale-weighted) of the measured run.
    pub bytes_transferred: f64,
    /// How many runs have been folded into this record.
    pub runs: u32,
}

impl PlanFeedback {
    /// Fold a newer run of the same fingerprint into this record. Same
    /// placement: measurements merge by EWMA ([`FEEDBACK_EWMA_ALPHA`]).
    /// Different placement (the reoptimizer rewrote the plan since): the
    /// newer record replaces the old wholesale — its measurements are the
    /// only ones valid for the placement now in effect.
    pub fn absorb(&mut self, newer: PlanFeedback) {
        let runs = self.runs.saturating_add(newer.runs);
        if (newer.target, newer.cpu_dop, newer.gpu_dop) != (self.target, self.cpu_dop, self.gpu_dop)
        {
            *self = newer;
            self.runs = runs;
            return;
        }
        let a = FEEDBACK_EWMA_ALPHA;
        self.sim_time_ns = a * newer.sim_time_ns + (1.0 - a) * self.sim_time_ns;
        if self.observed_slowdowns.len() == newer.observed_slowdowns.len() {
            for (mine, theirs) in self.observed_slowdowns.iter_mut().zip(&newer.observed_slowdowns)
            {
                *mine = a * theirs + (1.0 - a) * *mine;
            }
        } else {
            self.observed_slowdowns = newer.observed_slowdowns;
        }
        self.stages = newer.stages;
        self.remote_control_acquisitions = newer.remote_control_acquisitions;
        self.bytes_transferred = newer.bytes_transferred;
        self.runs = runs;
    }

    /// Observed slowdown of device slot `slot` (1.0 when never observed),
    /// floored at 1.0 like the observer's own EWMA.
    pub fn slowdown_for(&self, slot: usize) -> f64 {
        self.observed_slowdowns.get(slot).copied().unwrap_or(1.0).max(1.0)
    }

    /// The widest stage's input row count — the parallelism the plan can
    /// actually use (zero when no stage observations were captured).
    pub fn widest_stage_rows(&self) -> u64 {
        self.stages.iter().map(|s| s.rows_in).max().unwrap_or(0)
    }
}

/// A concurrent fingerprint→[`PlanFeedback`] map. One instance lives for the
/// engine's lifetime (so two plain `execute` calls of the same plan share
/// measurements); the serving layer shares a single cache across its whole
/// worker pool.
#[derive(Debug, Default)]
pub struct FeedbackCache {
    inner: Mutex<HashMap<u64, PlanFeedback>>,
}

impl FeedbackCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The feedback recorded for `fingerprint`, if any (cloned out — the
    /// reoptimizer works on a snapshot, never under the cache lock).
    pub fn get(&self, fingerprint: u64) -> Option<PlanFeedback> {
        self.inner.lock().expect("feedback cache poisoned").get(&fingerprint).cloned()
    }

    /// Record one run's feedback: absorbed into the existing record of the
    /// same fingerprint, or inserted fresh.
    pub fn record(&self, feedback: PlanFeedback) {
        let mut inner = self.inner.lock().expect("feedback cache poisoned");
        match inner.entry(feedback.fingerprint) {
            std::collections::hash_map::Entry::Occupied(mut e) => e.get_mut().absorb(feedback),
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(feedback);
            }
        }
    }

    /// Number of distinct fingerprints remembered.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("feedback cache poisoned").len()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Forget everything.
    pub fn clear(&self) {
        self.inner.lock().expect("feedback cache poisoned").clear();
    }
}

/// One point of the plan space: a device placement plus per-class degrees of
/// parallelism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// Device placement of the candidate.
    pub target: ExecutionTarget,
    /// CPU degree of parallelism.
    pub cpu_dop: usize,
    /// GPU degree of parallelism.
    pub gpu_dop: usize,
}

impl Candidate {
    /// The candidate a configuration currently encodes.
    pub fn of(config: &EngineConfig) -> Self {
        Self { target: config.target, cpu_dop: config.cpu_dop, gpu_dop: config.gpu_dop }
    }

    /// Human-readable label (`hybrid(8,2)` and friends) used by benches and
    /// the reopt summary.
    pub fn label(&self) -> String {
        match self.target {
            ExecutionTarget::CpuOnly => format!("cpu_only({})", self.cpu_dop),
            ExecutionTarget::GpuOnly => format!("gpu_only({})", self.gpu_dop),
            ExecutionTarget::Hybrid => format!("hybrid({},{})", self.cpu_dop, self.gpu_dop),
        }
    }

    /// The submitted configuration re-pointed at this candidate: placement
    /// and DOPs replaced, everything else (block size, weights, toggles,
    /// budgets) preserved.
    pub fn apply(&self, base: &EngineConfig) -> EngineConfig {
        let mut config = base.clone();
        config.target = self.target;
        config.cpu_dop = self.cpu_dop;
        config.gpu_dop = self.gpu_dop;
        config
    }

    /// Total degree of parallelism.
    pub fn total_dop(&self) -> usize {
        self.cpu_dop + self.gpu_dop
    }

    /// Topology device slots this candidate occupies: like the parallelizer,
    /// the first `cpu_dop` cores and the first `gpu_dop` GPUs in topology
    /// order.
    pub fn device_slots(&self, topology: &ServerTopology) -> Vec<usize> {
        let mut slots = Vec::with_capacity(self.total_dop());
        if self.target != ExecutionTarget::GpuOnly {
            slots.extend(topology.cpu_cores().iter().take(self.cpu_dop).map(|d| d.index()));
        }
        if self.target != ExecutionTarget::CpuOnly {
            slots.extend(topology.gpus().iter().take(self.gpu_dop).map(|d| d.index()));
        }
        slots
    }
}

/// A costed candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateCost {
    /// The candidate.
    pub candidate: Candidate,
    /// Estimated simulated time, nanoseconds, anchored to the incumbent's
    /// measured time.
    pub estimated_ns: f64,
}

/// The outcome of one plan-space search.
#[derive(Debug, Clone, PartialEq)]
pub struct ReoptDecision {
    /// The winning candidate (always different from the incumbent — the
    /// search returns `None` rather than a no-op decision).
    pub chosen: Candidate,
    /// Estimated relative gain over the incumbent (0.25 = 25% faster).
    pub estimated_gain: f64,
    /// The incumbent's estimated time, nanoseconds (equal to the measured
    /// feedback time when the incumbent is the measured placement).
    pub incumbent_ns: f64,
    /// Every candidate costed, best first.
    pub ranked: Vec<CandidateCost>,
}

/// Enumerate the plan space for `base` on `topology`: every placement, a
/// power-of-two CPU ladder up to the core count plus the incumbent DOP, and
/// every GPU count. Only combinations that validate under the base
/// configuration survive — every candidate this function returns can be
/// applied and executed as-is, which is the invariant the verifier proptest
/// and `plan_lint`'s `reopt` target pin.
pub fn candidates(base: &EngineConfig, topology: &ServerTopology) -> Vec<Candidate> {
    let cores = topology.cpu_cores().len();
    let gpus = topology.gpus().len();
    let incumbent = Candidate::of(base);

    let targets = [ExecutionTarget::CpuOnly, ExecutionTarget::GpuOnly, ExecutionTarget::Hybrid];
    let mut cpu_dops: Vec<usize> = std::iter::successors(Some(1usize), |d| d.checked_mul(2))
        .take_while(|d| *d <= cores)
        .collect();
    if cores > 0 && !cpu_dops.contains(&cores) {
        cpu_dops.push(cores);
    }
    cpu_dops.push(base.cpu_dop);
    cpu_dops.sort_unstable();
    cpu_dops.dedup();

    let mut out: Vec<Candidate> = Vec::new();
    for &target in &targets {
        for &cpu_dop in &cpu_dops {
            for gpu_dop in 0..=gpus {
                let candidate = match target {
                    ExecutionTarget::CpuOnly if cpu_dop > 0 && cpu_dop <= cores => {
                        Candidate { target, cpu_dop, gpu_dop: 0 }
                    }
                    ExecutionTarget::GpuOnly if gpu_dop > 0 => {
                        Candidate { target, cpu_dop: 0, gpu_dop }
                    }
                    // A hybrid with one empty class duplicates a single-
                    // device candidate; require both classes populated.
                    ExecutionTarget::Hybrid if cpu_dop > 0 && cpu_dop <= cores && gpu_dop > 0 => {
                        Candidate { target, cpu_dop, gpu_dop }
                    }
                    _ => continue,
                };
                if out.contains(&candidate) {
                    continue;
                }
                if candidate.apply(base).validate().is_err() {
                    continue;
                }
                out.push(candidate);
            }
        }
    }
    // The incumbent always participates (it anchors the gain computation),
    // provided it is itself valid.
    if !out.contains(&incumbent) && incumbent.apply(base).validate().is_ok() {
        out.push(incumbent);
    }
    out
}

/// The search: cost every candidate from the feedback record, anchored to
/// the measured incumbent time, and return a rewrite when a candidate beats
/// the incumbent by at least [`DEFAULT_REOPT_MIN_GAIN`]. `None` means "keep the
/// plan as submitted" — the search found nothing clearly better (or
/// re-optimization is disabled, or the feedback carries no usable anchor).
///
/// The estimate deliberately consumes only *observed* behaviour: per-device
/// slowdowns come from the feedback's EWMAs (never from
/// `DeviceProfile::exec_slowdown`, which routing estimates are forbidden to
/// see), transfer and control-plane terms are scaled from the measured run's
/// own traffic, and the `CostModel` contributes its calibrated control-plane
/// constant. Transfer is a *floor* on a candidate's time, not an addend:
/// mem-move DMA runs asynchronously, so a placement is bounded by
/// `max(compute, transfer)`.
pub fn reoptimize(
    base: &EngineConfig,
    feedback: &PlanFeedback,
    topology: &ServerTopology,
    cost: &CostModel,
) -> Option<ReoptDecision> {
    if !base.reopt.enabled || feedback.sim_time_ns <= 0.0 {
        return None;
    }
    let anchor =
        Candidate { target: feedback.target, cpu_dop: feedback.cpu_dop, gpu_dop: feedback.gpu_dop };
    // Routing adapts to observed slowdowns only when the executing config
    // feeds them back; the estimate must model the run it would produce.
    let adaptive = base.calibration.slowdown_feedback;
    let width_blocks = match feedback.widest_stage_rows() {
        0 => None,
        rows => Some(rows.div_ceil(base.block_capacity.max(1) as u64).max(1)),
    };

    let raw_anchor = raw_compute_time(&anchor, feedback, topology, adaptive, width_blocks)?;
    // κ converts the unitless compute estimate into nanoseconds by pinning
    // the anchor candidate to its *measured* time.
    let kappa = feedback.sim_time_ns / raw_anchor;
    let anchor_gpu_frac = gpu_rate_fraction(&anchor, topology);
    let anchor_control_ns = control_ns(&anchor, &anchor, feedback, cost);

    let mut ranked: Vec<CandidateCost> = Vec::new();
    for candidate in candidates(base, topology) {
        let Some(raw) = raw_compute_time(&candidate, feedback, topology, adaptive, width_blocks)
        else {
            continue;
        };
        // Anchored compute term, floored by the candidate's interconnect
        // time — mem-move DMA is asynchronous, so transfer *overlaps*
        // compute and bounds the run from below instead of adding to it —
        // plus the control-plane cost *difference* versus the anchor (whose
        // measured time already includes its own control traffic).
        let candidate_transfer = transfer_ns(&candidate, feedback, topology, anchor_gpu_frac);
        let control_delta = control_ns(&candidate, &anchor, feedback, cost) - anchor_control_ns;
        let estimated_ns = ((kappa * raw).max(candidate_transfer) + control_delta).max(1.0);
        ranked.push(CandidateCost { candidate, estimated_ns });
    }
    if ranked.is_empty() {
        return None;
    }
    ranked.sort_by(|a, b| {
        a.estimated_ns
            .total_cmp(&b.estimated_ns)
            // Deterministic tie-break: fewer devices first, then CPU-lean.
            .then(a.candidate.total_dop().cmp(&b.candidate.total_dop()))
            .then(a.candidate.gpu_dop.cmp(&b.candidate.gpu_dop))
    });

    let incumbent = Candidate::of(base);
    let incumbent_ns = ranked
        .iter()
        .find(|c| c.candidate == incumbent)
        .map(|c| c.estimated_ns)
        // An incumbent that failed to cost (e.g. zero devices on this
        // topology) is treated as the measured time.
        .unwrap_or(feedback.sim_time_ns);
    let best = ranked[0].clone();
    if best.candidate == incumbent || incumbent_ns <= 0.0 {
        return None;
    }
    let estimated_gain = 1.0 - best.estimated_ns / incumbent_ns;
    if estimated_gain < DEFAULT_REOPT_MIN_GAIN {
        return None;
    }
    Some(ReoptDecision { chosen: best.candidate, estimated_gain, incumbent_ns, ranked })
}

/// Unitless compute-time estimate of a candidate: work divided by the
/// aggregate observed-effective device rate. With adaptive routing the
/// aggregate is `Σ rate_d / slowdown_d` (feedback steers work away from
/// stragglers); with static routing work splits by *nominal* rates, so the
/// slowest device's slowdown bounds completion: `max_d slowdown_d / Σ
/// rate_d`. A candidate wider than the plan's widest stage (in blocks)
/// cannot use its extra devices; the estimate scales accordingly.
fn raw_compute_time(
    candidate: &Candidate,
    feedback: &PlanFeedback,
    topology: &ServerTopology,
    adaptive: bool,
    width_blocks: Option<u64>,
) -> Option<f64> {
    let slots = candidate.device_slots(topology);
    if slots.is_empty() {
        return None;
    }
    let mut adaptive_rate = 0.0f64;
    let mut nominal_rate = 0.0f64;
    let mut max_slowdown = 1.0f64;
    for &slot in &slots {
        let profile = topology.devices().get(slot)?;
        let rate = profile.compute_gops.max(f64::MIN_POSITIVE);
        let slowdown = feedback.slowdown_for(slot);
        adaptive_rate += rate / slowdown;
        nominal_rate += rate;
        max_slowdown = max_slowdown.max(slowdown);
    }
    let mut time = if adaptive { 1.0 / adaptive_rate } else { max_slowdown / nominal_rate };
    if let Some(width) = width_blocks {
        let devices = slots.len() as f64;
        if devices > width as f64 {
            // Only `width` devices can hold a block at a time; the surplus
            // contributes nothing.
            time *= devices / width as f64;
        }
    }
    Some(time)
}

/// Fraction of a candidate's aggregate nominal rate contributed by GPUs —
/// the share of work (and therefore of interconnect traffic, for
/// CPU-resident data) the GPUs attract.
fn gpu_rate_fraction(candidate: &Candidate, topology: &ServerTopology) -> f64 {
    let gpu_slots: Vec<usize> = topology.gpus().iter().map(|d| d.index()).collect();
    let mut total = 0.0f64;
    let mut gpu = 0.0f64;
    for slot in candidate.device_slots(topology) {
        let Some(profile) = topology.devices().get(slot) else { continue };
        let rate = profile.compute_gops.max(0.0);
        total += rate;
        if gpu_slots.contains(&slot) {
            gpu += rate;
        }
    }
    if total > 0.0 {
        gpu / total
    } else {
        0.0
    }
}

/// Estimated interconnect time of a candidate, nanoseconds. Scaled from the
/// anchor's *measured* bytes when the anchor itself fed GPUs; estimated from
/// the widest stage's rows otherwise (the anchor never touched the bus, so
/// there is nothing measured to scale).
fn transfer_ns(
    candidate: &Candidate,
    feedback: &PlanFeedback,
    topology: &ServerTopology,
    anchor_gpu_frac: f64,
) -> f64 {
    let frac = gpu_rate_fraction(candidate, topology);
    let bytes = if anchor_gpu_frac > 0.0 {
        feedback.bytes_transferred * (frac / anchor_gpu_frac)
    } else {
        feedback.widest_stage_rows() as f64 * EST_MAX_TUPLE_BYTES as f64 * frac
    };
    bytes / REOPT_PCIE_GBPS
}

/// Estimated control-plane time of a candidate, nanoseconds: the measured
/// acquisition count scaled by the consumer-count ratio (more consumers,
/// proportionally more cross-node pushes), priced at the cost model's
/// calibrated per-acquisition constant.
fn control_ns(
    candidate: &Candidate,
    anchor: &Candidate,
    feedback: &PlanFeedback,
    cost: &CostModel,
) -> f64 {
    let per_acquisition = cost.control_plane_ns(true) as f64;
    let anchor_dop = anchor.total_dop().max(1) as f64;
    feedback.remote_control_acquisitions as f64
        * per_acquisition
        * (candidate.total_dop() as f64 / anchor_dop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::RelNode;
    use hetex_common::config::ReoptConfig;
    use hetex_jit::{AggSpec, Expr};
    use std::sync::Arc;

    fn sample_plan() -> RelNode {
        RelNode::scan("t", &["a", "b"])
            .filter(Expr::col(0).gt_lit(42))
            .reduce(vec![AggSpec::sum(Expr::col(1))], &["sum_b"])
    }

    fn feedback_for(config: &EngineConfig, topology: &ServerTopology) -> PlanFeedback {
        PlanFeedback {
            fingerprint: plan_fingerprint(&sample_plan()),
            target: config.target,
            cpu_dop: config.cpu_dop,
            gpu_dop: config.gpu_dop,
            sim_time_ns: 1_000_000.0,
            observed_slowdowns: vec![1.0; topology.devices().len()],
            stages: vec![StageObservation {
                rows_in: 200_000,
                rows_out: 1,
                completion_ns: 1_000_000,
            }],
            remote_control_acquisitions: 40,
            bytes_transferred: 1e6,
            runs: 1,
        }
    }

    #[test]
    fn fingerprint_is_stable_and_plan_sensitive() {
        let a = plan_fingerprint(&sample_plan());
        let b = plan_fingerprint(&sample_plan());
        assert_eq!(a, b, "same plan, same fingerprint");
        let other = RelNode::scan("t", &["a", "b"])
            .filter(Expr::col(0).gt_lit(43))
            .reduce(vec![AggSpec::sum(Expr::col(1))], &["sum_b"]);
        assert_ne!(a, plan_fingerprint(&other), "different literal, different fingerprint");
    }

    #[test]
    fn stage_observation_reports_actual_selectivity() {
        let obs = StageObservation { rows_in: 1000, rows_out: 250, completion_ns: 5 };
        assert_eq!(obs.selectivity(), Some(0.25));
        let empty = StageObservation { rows_in: 0, rows_out: 0, completion_ns: 0 };
        assert_eq!(empty.selectivity(), None);
    }

    #[test]
    fn cache_absorbs_same_placement_and_replaces_on_change() {
        let topology = ServerTopology::paper_server();
        let config = EngineConfig::hybrid(8, 2);
        let cache = FeedbackCache::new();
        assert!(cache.is_empty());
        let mut first = feedback_for(&config, &topology);
        first.sim_time_ns = 2_000_000.0;
        cache.record(first.clone());
        let mut second = feedback_for(&config, &topology);
        second.sim_time_ns = 1_000_000.0;
        cache.record(second);
        let merged = cache.get(first.fingerprint).unwrap();
        assert_eq!(merged.runs, 2);
        assert!(
            (merged.sim_time_ns - 1_500_000.0).abs() < 1.0,
            "EWMA of 2ms and 1ms at alpha {FEEDBACK_EWMA_ALPHA}: {}",
            merged.sim_time_ns
        );
        // A placement change replaces the record wholesale.
        let replanned = feedback_for(&EngineConfig::cpu_only(24), &topology);
        cache.record(replanned.clone());
        let replaced = cache.get(first.fingerprint).unwrap();
        assert_eq!(replaced.target, ExecutionTarget::CpuOnly);
        assert_eq!(replaced.sim_time_ns, replanned.sim_time_ns);
        assert_eq!(replaced.runs, 3, "run count survives the replacement");
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn candidates_cover_the_space_and_all_validate() {
        let topology = ServerTopology::paper_server();
        let base = EngineConfig::hybrid(8, 2).with_reopt(ReoptConfig::enabled());
        let space = candidates(&base, &topology);
        assert!(space.contains(&Candidate::of(&base)), "incumbent always present");
        assert!(space.iter().any(|c| c.target == ExecutionTarget::CpuOnly));
        assert!(space.iter().any(|c| c.target == ExecutionTarget::GpuOnly));
        for candidate in &space {
            candidate.apply(&base).validate().unwrap();
        }
    }

    #[test]
    fn reoptimize_routes_around_an_observed_straggler() {
        let topology = ServerTopology::paper_server();
        let base = EngineConfig::hybrid(8, 2).with_reopt(ReoptConfig::enabled());
        let mut feedback = feedback_for(&base, &topology);
        // The second GPU was observed 8x slow; static routing (no slowdown
        // feedback) kept feeding it, so the whole run stretched.
        let slow_gpu = topology.gpus()[1].index();
        feedback.observed_slowdowns[slow_gpu] = 8.0;
        let cost = CostModel::from_config(&base);
        let mut static_base = base.clone();
        static_base.calibration.slowdown_feedback = false;
        let decision = reoptimize(&static_base, &feedback, &topology, &cost)
            .expect("an 8x straggler must trigger a rewrite");
        assert_ne!(decision.chosen, Candidate::of(&static_base));
        assert!(
            decision.chosen.gpu_dop <= 1,
            "the rewrite must drop the straggler GPU: {}",
            decision.chosen.label()
        );
        assert!(decision.estimated_gain >= DEFAULT_REOPT_MIN_GAIN);
        assert!(!decision.ranked.is_empty());
        // The chosen plan is the best-ranked one.
        assert_eq!(decision.ranked[0].candidate, decision.chosen);
    }

    #[test]
    fn reoptimize_is_quiet_without_enabled_or_signal() {
        let topology = ServerTopology::paper_server();
        let cost = CostModel::default();
        // Disabled: never a decision, whatever the feedback says.
        let off = EngineConfig::hybrid(8, 2);
        let mut feedback = feedback_for(&off, &topology);
        feedback.observed_slowdowns[topology.gpus()[1].index()] = 8.0;
        assert!(reoptimize(&off, &feedback, &topology, &cost).is_none());
        // Enabled but healthy: the incumbent placement is already near the
        // estimator's optimum only if it uses every fast device — a healthy
        // hybrid(8,2) still leaves cores idle, so a rewrite is allowed; what
        // must hold is determinism: the same inputs give the same answer.
        let on = EngineConfig::hybrid(8, 2).with_reopt(ReoptConfig::enabled());
        let healthy = feedback_for(&on, &topology);
        let first = reoptimize(&on, &healthy, &topology, &cost);
        let second = reoptimize(&on, &healthy, &topology, &cost);
        assert_eq!(first, second, "the search must be deterministic");
        // A zero-time anchor carries no usable signal.
        let mut zeroed = feedback_for(&on, &topology);
        zeroed.sim_time_ns = 0.0;
        assert!(reoptimize(&on, &zeroed, &topology, &cost).is_none());
    }

    #[test]
    fn feedback_cache_is_shareable_across_threads() {
        let cache = Arc::new(FeedbackCache::new());
        let topology = ServerTopology::paper_server();
        let config = EngineConfig::hybrid(4, 1);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let feedback = feedback_for(&config, &topology);
                std::thread::spawn(move || cache.record(feedback))
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(plan_fingerprint(&sample_plan())).unwrap().runs, 4);
    }
}
