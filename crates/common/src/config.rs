//! Engine-wide configuration.
//!
//! The configuration gathers the knobs that the paper's evaluation varies
//! (degree of parallelism per device type, block size, which devices
//! participate) plus the knobs our reproduction adds (scale-extrapolation
//! weight used when a physically small dataset models a nominally larger one).

/// Where the engine is allowed to run the main part of a query plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionTarget {
    /// All relational work on CPU cores only (paper: "Proteus CPUs").
    CpuOnly,
    /// All relational work on GPUs only (paper: "Proteus GPUs").
    GpuOnly,
    /// Work parallelized across both CPUs and GPUs (paper: "Proteus Hybrid").
    Hybrid,
}

impl ExecutionTarget {
    /// Human-readable label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            ExecutionTarget::CpuOnly => "Proteus CPUs",
            ExecutionTarget::GpuOnly => "Proteus GPUs",
            ExecutionTarget::Hybrid => "Proteus Hybrid",
        }
    }
}

/// What the engine does with the findings of the pre-execution static
/// analysis pass (the `hetex-analysis` crate) it runs over every compiled
/// query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AnalysisMode {
    /// Error-severity diagnostics reject the query before execution;
    /// warnings are printed to stderr. This is the default.
    #[default]
    Deny,
    /// All diagnostics (errors included) are printed to stderr and the
    /// query executes anyway — an escape hatch for debugging the analyzer
    /// itself or deliberately running a flagged plan.
    Warn,
    /// The analysis pass is skipped entirely.
    Off,
}

/// Whether (and how) idle pipelined workers re-route queued blocks away from
/// overloaded siblings of the same stage.
///
/// Routing binds every block to a consumer the moment it is produced; a
/// straggler instance (an unexpectedly slow device, a parked lease, a cold
/// gate) would otherwise hold its queued blocks hostage while siblings idle.
/// Stealing re-binds late: the thief takes the *tail* of the victim's queue
/// (the blocks that would wait longest), the router's load estimator moves
/// the stolen cost from victim to thief (`LoadEstimator::decommit`), and the
/// block's staging charge is released on the victim's node and re-acquired on
/// the thief's. Only anonymously routed stages (round-robin / least-loaded)
/// steal — hash- and target-routed blocks are semantically bound to their
/// consumer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StealPolicy {
    /// An idle worker steals the tail block from the most-loaded same-stage
    /// sibling whose backlog holds at least two blocks. This is the default.
    #[default]
    TailMostLoaded,
    /// Never steal: blocks stay bound to the consumer chosen at routing time
    /// (the pre-stealing behaviour, kept selectable for A/B comparison).
    Disabled,
}

impl StealPolicy {
    /// True when stealing is enabled in any form.
    pub fn is_enabled(self) -> bool {
        self != StealPolicy::Disabled
    }
}

/// Toggles of the online-calibration subsystem (`hetex-core`'s
/// `Calibration` machinery): the estimate→observe→correct loop that feeds
/// *measured* device behaviour back into routing projections and steal
/// pricing, instead of trusting declared profiles forever.
///
/// Both default on; `CalibrationConfig::disabled()` routes and steals on
/// nominal device speeds. The topology micro-probe's measured constants are
/// not a toggle: every execution's cost model consumes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CalibrationConfig {
    /// Feed each device's observed-slowdown EWMA (charged vs nominal busy
    /// time, updated at block completion) back into routing projections:
    /// the device-axis term of a consumer's projection is multiplied by its
    /// device's observed slowdown, so a hidden straggler stops *receiving*
    /// new blocks instead of only having them stolen back.
    pub slowdown_feedback: bool,
    /// Feed the observed-slowdown EWMA into the steal-profitability victim
    /// time estimate: a victim whose device is an observed straggler is
    /// priced at its *observed* per-block cost (nominal cost times the EWMA)
    /// when deciding whether a steal pays off, so rescues from hidden
    /// stragglers are recognized as profitable earlier.
    pub steal_feedback: bool,
}

impl Default for CalibrationConfig {
    fn default() -> Self {
        Self { slowdown_feedback: true, steal_feedback: true }
    }
}

impl CalibrationConfig {
    /// Both feedback inputs disabled: routing and steal pricing on nominal
    /// profiles, the baseline the differential tests toggle against.
    pub fn disabled() -> Self {
        Self { slowdown_feedback: false, steal_feedback: false }
    }

    /// Toggle the observed-slowdown routing feedback.
    pub fn with_slowdown_feedback(mut self, on: bool) -> Self {
        self.slowdown_feedback = on;
        self
    }

    /// Toggle the observed-slowdown steal-victim pricing.
    pub fn with_steal_feedback(mut self, on: bool) -> Self {
        self.steal_feedback = on;
        self
    }
}

/// Toggles of the fault-tolerance machinery in the pipelined executor.
///
/// All machinery is additionally gated on a `FaultPlan` being attached to the
/// topology — a healthy run (no plan) takes none of these paths and charges
/// no simulated time to any of them, so the fault subsystem is free when
/// unused. These toggles select how much of the recovery ladder engages when
/// faults *do* fire; `FaultConfig::disabled()` reproduces the PR 1 behaviour
/// (any failure poison-cascades the whole query).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultConfig {
    /// Retry transient kernel failures in place with bounded, sim-charged
    /// exponential backoff before escalating to a quarantine.
    pub transient_retry: bool,
    /// Quarantine a permanently failed device: stop routing to it, drain its
    /// queued anonymous blocks to surviving same-stage siblings, and restart
    /// from the gate when its blocks were semantically bound (hash/target).
    pub quarantine: bool,
    /// Per-stage watchdog that converts a wedged (no-progress) worker into a
    /// quarantine instead of an unbounded hang.
    pub watchdog: bool,
    /// Engine-level degraded restart: when a query still fails with a
    /// structured `DeviceLost`/`Wedged` error, re-plan and re-execute on the
    /// surviving devices (CPU-only if every GPU is gone).
    pub degraded_restart: bool,
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self { transient_retry: true, quarantine: true, watchdog: true, degraded_restart: true }
    }
}

impl FaultConfig {
    /// Every recovery path disabled — the PR 1 poison-cascade behaviour:
    /// the first failure aborts the query with a structured error.
    pub fn disabled() -> Self {
        Self { transient_retry: false, quarantine: false, watchdog: false, degraded_restart: false }
    }

    /// Toggle in-place transient retries.
    pub fn with_transient_retry(mut self, on: bool) -> Self {
        self.transient_retry = on;
        self
    }

    /// Toggle device quarantine and block re-routing.
    pub fn with_quarantine(mut self, on: bool) -> Self {
        self.quarantine = on;
        self
    }

    /// Toggle the per-stage no-progress watchdog.
    pub fn with_watchdog(mut self, on: bool) -> Self {
        self.watchdog = on;
        self
    }

    /// Toggle the engine-level degraded restart.
    pub fn with_degraded_restart(mut self, on: bool) -> Self {
        self.degraded_restart = on;
        self
    }
}

/// Priority class of a query session submitted to the serving layer.
///
/// Admission is strict-priority with FIFO order inside each class: a waiting
/// `High` session is always admitted before any waiting `Normal` one, and no
/// session bypasses an earlier peer of its own class (so admission order is
/// deterministic and starvation within a class is impossible). The running
/// set shares devices by weighted fairness, where each class contributes its
/// [`Self::weight`] as the base multiplier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Priority {
    /// Latency-sensitive sessions: admitted first, largest fairness weight.
    High,
    /// The default class.
    #[default]
    Normal,
    /// Background sessions: admitted last, smallest fairness weight.
    Low,
}

impl Priority {
    /// Admission rank — lower admits first.
    pub fn rank(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }

    /// Base fairness-weight multiplier of the class (scaled at run time by
    /// the query's estimated remaining cost).
    pub fn weight(self) -> f64 {
        match self {
            Priority::High => 4.0,
            Priority::Normal => 2.0,
            Priority::Low => 1.0,
        }
    }

    /// Human-readable label used by benches and reports.
    pub fn label(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        }
    }
}

/// Configuration of the multi-query serving layer (`hetex-engine`'s
/// `QueryServer`).
///
/// Default **off**: a plain [`EngineConfig::default`] never engages the
/// serving machinery, so the single-query `Proteus::execute` path stays
/// bit-identical to the pre-serving engine (asserted by the differential
/// suite). `ServeConfig::serving()` turns it on with the default pool and
/// admission budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Master switch of the serving layer.
    pub enabled: bool,
    /// Size of the shared worker pool: the maximum number of query sessions
    /// executing concurrently (admission may hold it lower).
    pub workers: usize,
    /// Per-memory-node admission byte budget. Every admitted session holds a
    /// staging lease of its estimated peak footprint on every node for its
    /// whole run — the admission token — so the sum of running sessions'
    /// footprints never exceeds this budget on any node. `None` sizes the
    /// budget to [`DEFAULT_SERVE_ADMISSION_BYTES`].
    pub admission_bytes: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

impl ServeConfig {
    /// The serving layer switched off — the default, single-query behaviour.
    pub fn disabled() -> Self {
        Self { enabled: false, workers: DEFAULT_SERVE_WORKERS, admission_bytes: None }
    }

    /// The serving layer switched on with the default worker pool and
    /// admission budget.
    pub fn serving() -> Self {
        Self { enabled: true, ..Self::disabled() }
    }

    /// Set the shared worker-pool size.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Set (or reset to the default, with `None`) the per-node admission
    /// byte budget.
    pub fn with_admission_bytes(mut self, bytes: Option<u64>) -> Self {
        self.admission_bytes = bytes;
        self
    }

    /// The effective per-node admission budget.
    pub fn effective_admission_bytes(&self) -> u64 {
        self.admission_bytes.unwrap_or(DEFAULT_SERVE_ADMISSION_BYTES)
    }
}

/// Default shared worker-pool size of the serving layer.
pub const DEFAULT_SERVE_WORKERS: usize = 4;

/// Default per-memory-node admission byte budget of the serving layer:
/// four default staging budgets, so four default-configured sessions can
/// hold admission tokens concurrently on every node.
pub const DEFAULT_SERVE_ADMISSION_BYTES: u64 = 4 * DEFAULT_STAGING_BYTES;

/// Configuration of feedback-driven plan re-optimization (`hetex-core`'s
/// `reopt` module).
///
/// Default **off**: a plain [`EngineConfig::default`] never fingerprints a
/// plan, never consults the feedback cache and never rewrites a placement, so
/// the execute path stays bit-identical to the pre-reopt engine (asserted by
/// the differential suite). `ReoptConfig::enabled()` turns the whole loop on:
/// every successful run distills a `PlanFeedback` record into the engine's
/// (or server's) feedback cache, and a repeated query's second run searches
/// the placement/DOP plan space costed by that record's measurements, and
/// rewrites the plan only for an estimated gain of at least
/// [`DEFAULT_REOPT_MIN_GAIN`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReoptConfig {
    /// Master switch of the re-optimization loop.
    pub enabled: bool,
}

impl Default for ReoptConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

impl ReoptConfig {
    /// Re-optimization switched off — the default, frozen-plan behaviour.
    pub fn disabled() -> Self {
        Self { enabled: false }
    }

    /// The full loop switched on.
    pub fn enabled() -> Self {
        Self { enabled: true }
    }
}

/// Minimum estimated relative gain (5%) a candidate must show over the
/// incumbent before the reoptimizer rewrites the placement: it guards
/// against churning the placement on estimation noise.
pub const DEFAULT_REOPT_MIN_GAIN: f64 = 0.05;

/// Initial placement of base-table data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataPlacement {
    /// Columns reside in CPU (socket-interleaved) memory — the SF1000 setup.
    CpuResident,
    /// Columns are partitioned across the GPUs' device memories — the SF100 setup.
    GpuResident,
}

/// Engine configuration. `Default` reproduces the paper's server with all
/// devices enabled and CPU-resident data.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Which device classes execute the relational part of the plan.
    pub target: ExecutionTarget,
    /// Number of CPU worker threads used for relational pipelines.
    pub cpu_dop: usize,
    /// Number of GPUs used for relational pipelines.
    pub gpu_dop: usize,
    /// Tuples per block produced by pack/segmenter operators.
    pub block_capacity: usize,
    /// Where base tables start out.
    pub placement: DataPlacement,
    /// Whether HetExchange operators are inserted at all. Disabling them
    /// reproduces the paper's "without HetExchange" single-device baselines
    /// used in Figures 7 and 8.
    pub hetexchange_enabled: bool,
    /// Byte multiplier applied by the benchmark harness when the physical data
    /// is a scaled-down stand-in for a larger nominal scale factor.
    pub scale_weight: f64,
    /// Per-table overrides of `scale_weight`. SSB tables scale differently
    /// with the scale factor (the `date` dimension has a fixed size, `part`
    /// grows logarithmically), so the harness sets one weight per table.
    pub table_weights: Vec<(String, f64)>,
    /// Per-memory-node staging byte budget (DESIGN.md §4.2). Every block
    /// pushed into a consumer queue is first admitted against the queue's
    /// byte quota (its demand-weighted share of this budget) and backed by
    /// a `BlockLease` of its byte size from the destination node's arena, so
    /// large blocks count for more and back-pressure reflects real staging
    /// memory: a producer held back waits, with no timeout, until bytes are
    /// released. The handle count of each queue is separately capped at
    /// [`DEFAULT_QUEUE_CAPACITY`].
    pub staging_bytes: u64,
    /// Adaptive re-routing policy of the pipelined executor: whether idle
    /// workers steal queued blocks from overloaded same-stage siblings.
    pub steal_policy: StealPolicy,
    /// Online-calibration toggles: whether routing projections and steal
    /// pricing consume the observed-slowdown feedback.
    pub calibration: CalibrationConfig,
    /// Fault-tolerance toggles: how much of the recovery ladder (retry,
    /// quarantine, watchdog, degraded restart) engages when injected or real
    /// faults fire. Inert when the topology carries no fault plan.
    pub fault: FaultConfig,
    /// What to do with the findings of the pre-execution static analysis
    /// pass: reject on errors (default), warn-and-run, or skip the pass.
    pub analysis: AnalysisMode,
    /// Multi-query serving toggles: admission budget and shared worker pool
    /// of the `QueryServer` session layer. Off by default — the single-query
    /// `Proteus::execute` path never consults this group.
    pub serve: ServeConfig,
    /// Feedback-driven plan re-optimization toggles: whether repeated
    /// queries are re-planned from their previous runs' measurements. Off by
    /// default — a disabled group never fingerprints a plan or touches the
    /// feedback cache.
    pub reopt: ReoptConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            target: ExecutionTarget::Hybrid,
            cpu_dop: 24,
            gpu_dop: 2,
            block_capacity: crate::block::DEFAULT_BLOCK_CAPACITY,
            placement: DataPlacement::CpuResident,
            hetexchange_enabled: true,
            scale_weight: 1.0,
            table_weights: Vec::new(),
            staging_bytes: DEFAULT_STAGING_BYTES,
            steal_policy: StealPolicy::default(),
            calibration: CalibrationConfig::default(),
            fault: FaultConfig::default(),
            analysis: AnalysisMode::default(),
            serve: ServeConfig::default(),
            reopt: ReoptConfig::default(),
        }
    }
}

/// Bound (in blocks) of each pipelined consumer queue: a control-plane cap
/// on buffered *handles*; the data-plane bound on staged *bytes* is
/// `EngineConfig::staging_bytes`.
pub const DEFAULT_QUEUE_CAPACITY: usize = 16;

/// Default per-memory-node staging byte budget (64 MiB). Generous relative to
/// physical block sizes (staging charges are physical bytes, not
/// scale-extrapolated ones), so governance costs nothing on the happy path
/// while still bounding runaway staging.
pub const DEFAULT_STAGING_BYTES: u64 = 64 * 1024 * 1024;

/// Estimated worst-case bytes per tuple used when sizing staging floors.
/// Blocks in this workspace carry a handful of 4/8-byte columns — join
/// outputs concatenate probe and build payloads, so 32 bytes per tuple is
/// the planning estimate the staging validation uses (the arenas themselves
/// always charge exact physical bytes).
pub const EST_MAX_TUPLE_BYTES: usize = 32;

impl EngineConfig {
    /// CPU-only configuration with the given degree of parallelism.
    pub fn cpu_only(cpu_dop: usize) -> Self {
        Self { target: ExecutionTarget::CpuOnly, cpu_dop, gpu_dop: 0, ..Self::default() }
    }

    /// GPU-only configuration with the given number of GPUs.
    pub fn gpu_only(gpu_dop: usize) -> Self {
        Self { target: ExecutionTarget::GpuOnly, cpu_dop: 0, gpu_dop, ..Self::default() }
    }

    /// Hybrid configuration using `cpu_dop` cores and `gpu_dop` GPUs.
    pub fn hybrid(cpu_dop: usize, gpu_dop: usize) -> Self {
        Self { target: ExecutionTarget::Hybrid, cpu_dop, gpu_dop, ..Self::default() }
    }

    /// Total degree of parallelism of the main (relational) part of the plan.
    pub fn total_dop(&self) -> usize {
        self.cpu_dop + self.gpu_dop
    }

    /// The scale weight applied to scans of `table`: the per-table override if
    /// one was configured, otherwise the global `scale_weight`.
    pub fn weight_for(&self, table: &str) -> f64 {
        self.table_weights
            .iter()
            .find(|(name, _)| name == table)
            .map(|(_, w)| *w)
            .unwrap_or(self.scale_weight)
    }

    /// Set a per-table weight override.
    pub fn with_table_weight(mut self, table: impl Into<String>, weight: f64) -> Self {
        self.table_weights.push((table.into(), weight));
        self
    }

    /// Select the pipelined executor's work-stealing policy.
    pub fn with_steal_policy(mut self, policy: StealPolicy) -> Self {
        self.steal_policy = policy;
        self
    }

    /// Select which calibration inputs feed the cost model.
    pub fn with_calibration(mut self, calibration: CalibrationConfig) -> Self {
        self.calibration = calibration;
        self
    }

    /// Select which fault-recovery paths are active.
    pub fn with_fault(mut self, fault: FaultConfig) -> Self {
        self.fault = fault;
        self
    }

    /// Select what the engine does with static-analysis findings.
    pub fn with_analysis(mut self, mode: AnalysisMode) -> Self {
        self.analysis = mode;
        self
    }

    /// Select the multi-query serving toggles.
    pub fn with_serve(mut self, serve: ServeConfig) -> Self {
        self.serve = serve;
        self
    }

    /// Select the feedback-driven re-optimization toggles.
    pub fn with_reopt(mut self, reopt: ReoptConfig) -> Self {
        self.reopt = reopt;
        self
    }

    /// Estimated peak per-node staging footprint of one query under this
    /// configuration — the byte size of the admission token the serving
    /// layer holds for the query's whole run: the query's own per-node
    /// staging budget, since the executor's arenas cannot lease more.
    pub fn est_serve_footprint_bytes(&self) -> u64 {
        self.staging_bytes
    }

    /// Estimated size in bytes of a maximum-size block under this
    /// configuration ([`EST_MAX_TUPLE_BYTES`] per tuple).
    pub fn est_max_block_bytes(&self) -> u64 {
        (self.block_capacity.max(1) * EST_MAX_TUPLE_BYTES) as u64
    }

    /// Smallest valid per-node staging budget: one estimated maximum-size
    /// block per active consumer. Below this a node whose arena hosts every
    /// consumer could not stage even one block per instance, and the
    /// executor's per-queue byte quotas would shrink below a single block —
    /// the precondition of the lease-ordering deadlock-freedom argument
    /// (see DESIGN.md "Staging memory governance").
    pub fn min_staging_bytes(&self) -> u64 {
        self.est_max_block_bytes() * self.total_dop().max(1) as u64
    }

    /// Validate that the configuration is internally consistent.
    pub fn validate(&self) -> crate::error::Result<()> {
        use crate::error::HetError;
        match self.target {
            ExecutionTarget::CpuOnly if self.cpu_dop == 0 => {
                Err(HetError::Config("CpuOnly target requires cpu_dop > 0".into()))
            }
            ExecutionTarget::GpuOnly if self.gpu_dop == 0 => {
                Err(HetError::Config("GpuOnly target requires gpu_dop > 0".into()))
            }
            // A DOP on a device class the target excludes would be ignored by
            // the parallelizer yet still inflate `total_dop()`, and with it the
            // staging floor and the serving footprint.
            ExecutionTarget::CpuOnly if self.gpu_dop > 0 => Err(HetError::Config(format!(
                "CpuOnly target cannot carry gpu_dop = {}; use Hybrid or drop the GPUs",
                self.gpu_dop
            ))),
            ExecutionTarget::GpuOnly if self.cpu_dop > 0 => Err(HetError::Config(format!(
                "GpuOnly target cannot carry cpu_dop = {}; use Hybrid or drop the cores",
                self.cpu_dop
            ))),
            ExecutionTarget::Hybrid if self.total_dop() == 0 => {
                Err(HetError::Config("Hybrid target requires at least one device".into()))
            }
            _ if self.block_capacity == 0 => {
                Err(HetError::Config("block_capacity must be positive".into()))
            }
            _ if self.scale_weight <= 0.0 => {
                Err(HetError::Config("scale_weight must be positive".into()))
            }
            _ if self.serve.enabled && self.serve.workers == 0 => {
                Err(HetError::Config("serving requires at least one worker".into()))
            }
            _ if self.serve.enabled && self.serve.admission_bytes == Some(0) => {
                Err(HetError::Config("serving admission budget must be positive".into()))
            }
            _ if self.serve.enabled
                && self.serve.effective_admission_bytes() < self.est_serve_footprint_bytes() =>
            {
                Err(HetError::Config(format!(
                    "serving admission budget ({}) cannot admit even one query of this \
                     configuration (estimated peak staging footprint {} bytes per node)",
                    self.serve.effective_admission_bytes(),
                    self.est_serve_footprint_bytes()
                )))
            }
            _ if self.staging_bytes < self.min_staging_bytes() => Err(HetError::Config(format!(
                "staging_bytes ({}) must cover at least one maximum-size block per active \
                     consumer: {} consumers x {} bytes/block (block_capacity {} x {} bytes/tuple) \
                     = {} bytes minimum",
                self.staging_bytes,
                self.total_dop().max(1),
                self.est_max_block_bytes(),
                self.block_capacity,
                EST_MAX_TUPLE_BYTES,
                self.min_staging_bytes()
            ))),
            _ => Ok(()),
        }
    }

    /// The configuration this one degrades to when only `cpus` CPU cores and
    /// `gpus` GPUs survive a device loss: DOPs clamp to the survivors, a
    /// GPU-dependent target falls back to CPU-only when every GPU is gone,
    /// and `None` means no degraded plan exists (no survivors can host the
    /// target). This is the clamping logic the engine's degraded-restart
    /// ladder applies between attempts, lifted out of the execute path so the
    /// same rules are visible (and testable) at the configuration layer.
    pub fn degraded_for(&self, cpus: usize, gpus: usize) -> Option<EngineConfig> {
        if cpus == 0 && gpus == 0 {
            return None;
        }
        let mut cfg = self.clone();
        cfg.gpu_dop = cfg.gpu_dop.min(gpus);
        cfg.cpu_dop = cfg.cpu_dop.min(cpus);
        if cfg.gpu_dop == 0
            && matches!(cfg.target, ExecutionTarget::GpuOnly | ExecutionTarget::Hybrid)
        {
            // Every surviving plan must run somewhere: fall back to CPU-only.
            cfg.target = ExecutionTarget::CpuOnly;
            cfg.gpu_dop = 0;
            cfg.cpu_dop = cfg.cpu_dop.max(1).min(cpus);
        }
        if cfg.cpu_dop == 0 && cfg.target == ExecutionTarget::CpuOnly {
            return None;
        }
        Some(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_hybrid() {
        let cfg = EngineConfig::default();
        assert_eq!(cfg.target, ExecutionTarget::Hybrid);
        cfg.validate().unwrap();
        assert_eq!(cfg.total_dop(), 26);
    }

    #[test]
    fn constructors_set_targets() {
        assert_eq!(EngineConfig::cpu_only(8).target, ExecutionTarget::CpuOnly);
        assert_eq!(EngineConfig::gpu_only(2).gpu_dop, 2);
        assert_eq!(EngineConfig::hybrid(4, 1).total_dop(), 5);
    }

    #[test]
    fn validation_rejects_inconsistent_configs() {
        assert!(EngineConfig::cpu_only(0).validate().is_err());
        assert!(EngineConfig::gpu_only(0).validate().is_err());
        let cfg = EngineConfig { block_capacity: 0, ..EngineConfig::default() };
        assert!(cfg.validate().is_err());
        let cfg = EngineConfig { scale_weight: 0.0, ..EngineConfig::default() };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn staging_budget_must_cover_one_block_per_consumer() {
        // One estimated max-size block per active consumer is the floor.
        let cfg = EngineConfig::hybrid(8, 2);
        let floor = cfg.min_staging_bytes();
        assert_eq!(floor, cfg.est_max_block_bytes() * 10);
        assert!(EngineConfig { staging_bytes: floor, ..cfg.clone() }.validate().is_ok());
        let err = EngineConfig { staging_bytes: floor - 1, ..cfg }.validate().unwrap_err();
        assert_eq!(err.category(), "config");
        assert!(err.to_string().contains("per active consumer"), "descriptive: {err}");
        // The default budget is valid for the default (hybrid 24+2) config.
        EngineConfig::default().validate().unwrap();
    }

    #[test]
    fn stealing_is_on_by_default_and_selectable() {
        let cfg = EngineConfig::default();
        assert_eq!(cfg.steal_policy, StealPolicy::TailMostLoaded);
        assert!(cfg.steal_policy.is_enabled());
        let off = cfg.with_steal_policy(StealPolicy::Disabled);
        assert!(!off.steal_policy.is_enabled());
        off.validate().unwrap();
    }

    #[test]
    fn calibration_defaults_on_and_toggles_individually() {
        let cfg = EngineConfig::default();
        assert_eq!(cfg.calibration, CalibrationConfig::default());
        assert!(cfg.calibration.slowdown_feedback);
        assert!(cfg.calibration.steal_feedback);
        let off = CalibrationConfig::disabled();
        assert!(!off.slowdown_feedback && !off.steal_feedback);
        // Each input toggles independently of the other.
        let one = CalibrationConfig::disabled().with_slowdown_feedback(true);
        assert!(one.slowdown_feedback && !one.steal_feedback);
        let other = CalibrationConfig::disabled().with_steal_feedback(true);
        assert!(other.steal_feedback && !other.slowdown_feedback);
        let cfg = cfg.with_calibration(off);
        assert_eq!(cfg.calibration, CalibrationConfig::disabled());
        cfg.validate().unwrap();
    }

    #[test]
    fn fault_recovery_defaults_on_and_toggles_individually() {
        let cfg = EngineConfig::default();
        assert_eq!(cfg.fault, FaultConfig::default());
        assert!(cfg.fault.transient_retry && cfg.fault.quarantine);
        assert!(cfg.fault.watchdog && cfg.fault.degraded_restart);
        let off = FaultConfig::disabled();
        assert!(!off.transient_retry && !off.quarantine);
        assert!(!off.watchdog && !off.degraded_restart);
        let one = FaultConfig::disabled().with_quarantine(true);
        assert!(one.quarantine && !one.transient_retry && !one.watchdog);
        let two = FaultConfig::disabled().with_watchdog(true).with_transient_retry(true);
        assert!(two.watchdog && two.transient_retry && !two.degraded_restart);
        let three = FaultConfig::default().with_degraded_restart(false);
        assert!(!three.degraded_restart && three.quarantine);
        let cfg = cfg.with_fault(off);
        assert_eq!(cfg.fault, FaultConfig::disabled());
        cfg.validate().unwrap();
    }

    #[test]
    fn serving_defaults_off_and_toggles_independently() {
        // Default off: a plain config never engages the serving layer.
        let cfg = EngineConfig::default();
        assert_eq!(cfg.serve, ServeConfig::disabled());
        assert!(!cfg.serve.enabled);
        cfg.validate().unwrap();
        // Switched on: defaults are a valid pool and budget.
        let on = EngineConfig::default().with_serve(ServeConfig::serving());
        assert!(on.serve.enabled);
        assert_eq!(on.serve.workers, DEFAULT_SERVE_WORKERS);
        assert_eq!(on.serve.effective_admission_bytes(), DEFAULT_SERVE_ADMISSION_BYTES);
        on.validate().unwrap();
        // Knobs toggle independently.
        let tuned = ServeConfig::serving().with_workers(2).with_admission_bytes(Some(1 << 30));
        assert!(tuned.enabled && tuned.workers == 2);
        assert_eq!(tuned.effective_admission_bytes(), 1 << 30);
        // Invalid serving configs are rejected — but only when enabled.
        let zero_workers =
            EngineConfig::default().with_serve(ServeConfig::serving().with_workers(0));
        assert_eq!(zero_workers.validate().unwrap_err().category(), "config");
        let no_budget = EngineConfig::default()
            .with_serve(ServeConfig::serving().with_admission_bytes(Some(0)));
        assert_eq!(no_budget.validate().unwrap_err().category(), "config");
        let off_zero_workers =
            EngineConfig::default().with_serve(ServeConfig::disabled().with_workers(0));
        off_zero_workers.validate().unwrap();
        // A budget that cannot admit even one query is rejected.
        let starved = EngineConfig::default()
            .with_serve(ServeConfig::serving().with_admission_bytes(Some(1024)));
        let err = starved.validate().unwrap_err();
        assert!(err.to_string().contains("cannot admit"), "descriptive: {err}");
    }

    #[test]
    fn priority_classes_rank_and_weigh() {
        assert_eq!(Priority::default(), Priority::Normal);
        assert!(Priority::High.rank() < Priority::Normal.rank());
        assert!(Priority::Normal.rank() < Priority::Low.rank());
        assert!(Priority::High.weight() > Priority::Normal.weight());
        assert!(Priority::Normal.weight() > Priority::Low.weight());
        assert_eq!(Priority::High.label(), "high");
        assert_eq!(Priority::Low.label(), "low");
    }

    #[test]
    fn serve_footprint_follows_the_staging_budget() {
        let cfg = EngineConfig::hybrid(8, 2);
        assert_eq!(cfg.est_serve_footprint_bytes(), DEFAULT_STAGING_BYTES);
        let tight = EngineConfig { staging_bytes: cfg.min_staging_bytes(), ..cfg.clone() };
        assert_eq!(tight.est_serve_footprint_bytes(), cfg.min_staging_bytes());
    }

    #[test]
    fn per_table_weights_override_the_global_weight() {
        let cfg = EngineConfig { scale_weight: 100.0, ..EngineConfig::default() };
        let cfg = cfg.with_table_weight("date", 1.0).with_table_weight("part", 7.5);
        assert_eq!(cfg.weight_for("lineorder"), 100.0);
        assert_eq!(cfg.weight_for("date"), 1.0);
        assert_eq!(cfg.weight_for("part"), 7.5);
        cfg.validate().unwrap();
    }

    #[test]
    fn labels_match_paper_naming() {
        assert_eq!(ExecutionTarget::CpuOnly.label(), "Proteus CPUs");
        assert_eq!(ExecutionTarget::Hybrid.label(), "Proteus Hybrid");
    }

    #[test]
    fn reopt_defaults_off_and_toggles_independently() {
        // Default off: a plain config never engages the reoptimizer.
        let cfg = EngineConfig::default();
        assert_eq!(cfg.reopt, ReoptConfig::disabled());
        assert!(!cfg.reopt.enabled);
        cfg.validate().unwrap();
        // Switched on, it validates and toggles nothing else.
        let on = EngineConfig::default().with_reopt(ReoptConfig::enabled());
        assert!(on.reopt.enabled);
        on.validate().unwrap();
        assert_eq!(on.with_reopt(ReoptConfig::disabled()), cfg);
    }

    #[test]
    fn validation_rejects_dops_on_a_device_class_the_target_excludes() {
        // The ad-hoc constructors zero the excluded class, so they pass.
        EngineConfig::cpu_only(8).validate().unwrap();
        EngineConfig::gpu_only(1).validate().unwrap();
        // Cross-class DOPs are rejected: CpuOnly cannot carry GPU workers
        // and vice versa.
        let err = EngineConfig { gpu_dop: 2, ..EngineConfig::cpu_only(8) }.validate().unwrap_err();
        assert_eq!(err.category(), "config");
        assert!(err.to_string().contains("gpu_dop"), "descriptive: {err}");
        let err = EngineConfig { cpu_dop: 4, ..EngineConfig::gpu_only(2) }.validate().unwrap_err();
        assert_eq!(err.category(), "config");
        assert!(err.to_string().contains("cpu_dop"), "descriptive: {err}");
        // Hybrid carries both.
        EngineConfig::hybrid(4, 2).validate().unwrap();
    }

    #[test]
    fn degraded_for_clamps_to_survivors() {
        let hybrid = EngineConfig::hybrid(8, 2);
        // No survivors at all: no degraded plan.
        assert!(hybrid.degraded_for(0, 0).is_none());
        // GPUs gone: hybrid falls back to CPU-only on the surviving cores.
        let cpu_fallback = hybrid.degraded_for(4, 0).unwrap();
        assert_eq!(cpu_fallback.target, ExecutionTarget::CpuOnly);
        assert_eq!((cpu_fallback.cpu_dop, cpu_fallback.gpu_dop), (4, 0));
        cpu_fallback.validate().unwrap();
        // Partial survivors clamp without changing the target.
        let clamped = hybrid.degraded_for(24, 1).unwrap();
        assert_eq!(clamped.target, ExecutionTarget::Hybrid);
        assert_eq!((clamped.cpu_dop, clamped.gpu_dop), (8, 1));
        // A CPU-only plan with no surviving cores has nowhere to run.
        assert!(EngineConfig::cpu_only(8).degraded_for(0, 2).is_none());
        // GPU-only with GPUs gone but cores alive falls back to the cores.
        let gpu_fallback = EngineConfig::gpu_only(2).degraded_for(6, 0).unwrap();
        assert_eq!(gpu_fallback.target, ExecutionTarget::CpuOnly);
        assert_eq!((gpu_fallback.cpu_dop, gpu_fallback.gpu_dop), (1, 0));
        gpu_fallback.validate().unwrap();
    }
}
