//! The Proteus-like engine session.
//!
//! [`Proteus`] owns the server topology, the catalog of loaded tables and
//! the engine-lifetime calibration and feedback state. Submitting a query
//! follows the lifetime of Figure 2: a sequential physical plan is
//! parallelized by HetExchange, compiled into pipelines, and executed; the
//! caller gets back the result rows, the simulated execution time, and
//! execution statistics.

use crate::codegen::compile;
use crate::executor::{DeviceKindStats, Executor};
use hetex_common::{AnalysisMode, EngineConfig, HetError, MemoryNodeId, Result};
use hetex_core::reopt::reoptimize;
use hetex_core::{
    parallelize, plan_fingerprint, CostModel, FeedbackCache, HetNode, PlanFeedback, RelNode,
    SlowdownObserver, StageObservation,
};
use hetex_jit::state::StateArena;
use hetex_storage::{Catalog, StoredTable};
use hetex_topology::probe::CalibratedConstants;
use hetex_topology::{DeviceId, DeviceKind, ServerTopology, SimTime};
use std::collections::HashMap;
use std::sync::Arc;

/// Execution statistics of one query.
#[derive(Debug, Clone)]
pub struct QueryStats {
    /// Blocks processed and busy time per device kind.
    pub per_kind: HashMap<DeviceKind, DeviceKindStats>,
    /// Bytes moved over interconnects (weighted by scale extrapolation).
    pub bytes_transferred: f64,
    /// Number of pipeline stages executed.
    pub stages: usize,
    /// Simulated completion time of each stage.
    pub stage_completion: Vec<SimTime>,
    /// Wall-clock time of the functional execution.
    pub wall_time: std::time::Duration,
    /// Peak leased staging bytes per memory node.
    pub staging_peaks: Vec<(MemoryNodeId, u64)>,
    /// Blocks adaptively re-routed (work-stealing) per stage; all zeros
    /// unless a device was observed straggling or was quarantined.
    pub blocks_stolen: Vec<u64>,
    /// Cross-node control-plane traffic: pushes that acquired a queue mutex
    /// on a memory node other than the block's. Routing's control-plane
    /// term prices exactly these acquisitions.
    pub remote_control_acquisitions: u64,
    /// Observed-slowdown EWMA per device slot (charged vs nominal busy
    /// time, 1.0 = healthy), indexed like the topology's device list: the
    /// straggler estimator routing, stealing and claim pacing read.
    pub observed_slowdowns: Vec<f64>,
    /// Transient kernel failures absorbed by bounded in-place retry (zero
    /// without an injected fault plan).
    pub transient_retries: u64,
    /// Blocks re-executed on a surviving sibling after a device quarantine
    /// (zero without an injected fault plan).
    pub recovered_blocks: u64,
    /// Staging bytes still leased when execution finished; zero on every
    /// clean run (the fault suite's leak invariant).
    pub staging_leaked_bytes: u64,
    /// Devices excluded by degraded restarts of this query, in exclusion
    /// order (topology device indices). Empty when the query ran healthy.
    pub excluded_devices: Vec<usize>,
    /// Degraded restarts (device-loss replans) this query needed.
    pub degraded_restarts: usize,
    /// Simulated time reached by every attempt of this query, in attempt
    /// order: the time each failed attempt had simulated when its error
    /// surfaced, then the final (successful) attempt's `sim_time`. A healthy
    /// query has exactly one entry, equal to `QueryOutcome::sim_time`.
    pub attempt_sim_times: Vec<SimTime>,
    /// Observed rows-in/rows-out per stage (the *actual* per-stage
    /// selectivities), indexed like `stage_completion`. Counts are
    /// best-effort under fault recovery: blocks replayed through a
    /// quarantine drain are not re-counted.
    pub stage_rows: Vec<(u64, u64)>,
    /// Label of the placement the reoptimizer substituted for this run
    /// (e.g. `"cpu_only(24)"`). `None` when re-optimization is off, no
    /// feedback existed yet, or the search kept the submitted plan.
    pub reopt_applied: Option<String>,
}

impl QueryStats {
    /// Total blocks stolen across all stages.
    pub fn total_blocks_stolen(&self) -> u64 {
        self.blocks_stolen.iter().sum()
    }

    /// End-to-end simulated time including every failed attempt: the sum of
    /// [`Self::attempt_sim_times`]. Equal to `QueryOutcome::sim_time` for a
    /// healthy query; strictly larger after a degraded restart (the time the
    /// lost attempts burned before the loss surfaced is paid, not hidden).
    pub fn total_sim_time(&self) -> SimTime {
        self.attempt_sim_times.iter().fold(SimTime::ZERO, |acc, t| acc.add_nanos(t.as_nanos()))
    }

    /// The largest observed-slowdown EWMA of any device slot (1.0 when
    /// nothing straggled or nothing was observed) — the headline straggler
    /// signal benches and diagnostics report.
    pub fn max_observed_slowdown(&self) -> f64 {
        self.observed_slowdowns.iter().copied().fold(1.0, f64::max)
    }

    /// The *actual* selectivity of stage `stage` (`rows_out / rows_in`);
    /// `None` when the stage saw no input or was never recorded.
    pub fn observed_selectivity(&self, stage: usize) -> Option<f64> {
        let &(rows_in, rows_out) = self.stage_rows.get(stage)?;
        (rows_in > 0).then(|| rows_out as f64 / rows_in as f64)
    }
}

/// The outcome of a query: exact rows plus modeled execution time.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Result rows (group keys followed by aggregate values; a single row for
    /// ungrouped aggregations).
    pub rows: Vec<Vec<i64>>,
    /// Simulated end-to-end execution time on the modeled server.
    pub sim_time: SimTime,
    /// Statistics gathered during execution.
    pub stats: QueryStats,
}

impl QueryOutcome {
    /// Simulated execution time in seconds (the unit of Figures 4 and 5).
    pub fn seconds(&self) -> f64 {
        self.sim_time.as_secs_f64()
    }

    /// Modeled throughput in GB/s given the working-set size in bytes —
    /// the metric §6.2 and §6.4 quote.
    pub fn throughput_gbps(&self, working_set_bytes: f64) -> f64 {
        if self.sim_time == SimTime::ZERO {
            return 0.0;
        }
        working_set_bytes / self.sim_time.as_secs_f64() / 1e9
    }
}

/// A Proteus-like engine instance bound to one (simulated) server.
pub struct Proteus {
    topology: Arc<ServerTopology>,
    catalog: Catalog,
    /// Engine-lifetime plan-feedback cache: one record per plan fingerprint,
    /// consulted (and refreshed) only by sessions with
    /// `EngineConfig::reopt` enabled. Sessions can inject a different cache
    /// (the `QueryServer` shares one across its whole pool).
    feedback: Arc<FeedbackCache>,
    /// Engine-lifetime state arena: every query's hash tables, group tables
    /// and lane buffers take their memory from it and give it back when the
    /// query ends, so the next query finds it already faulted in.
    arena: StateArena,
}

impl Proteus {
    /// An engine on the paper's two-socket, two-GPU server.
    pub fn on_paper_server() -> Self {
        Self::new(ServerTopology::paper_server())
    }

    /// An engine on an arbitrary topology.
    pub fn new(topology: Arc<ServerTopology>) -> Self {
        Self {
            topology,
            catalog: Catalog::new(),
            feedback: Arc::new(FeedbackCache::new()),
            arena: StateArena::new(),
        }
    }

    /// The server topology.
    pub fn topology(&self) -> &Arc<ServerTopology> {
        &self.topology
    }

    /// Benchmark-only: the topology, which carries its derived link
    /// constants (ROADMAP item 1(a)).
    pub fn probed_constants(&self) -> &Arc<CalibratedConstants> {
        &self.topology
    }

    /// The engine-lifetime feedback cache behind plan re-optimization, shared
    /// by every session that does not inject its own via
    /// [`QuerySession::reuse_feedback`](crate::session::QuerySession::reuse_feedback).
    pub fn feedback_cache(&self) -> &Arc<FeedbackCache> {
        &self.feedback
    }

    /// The arena every query's state buffers come from.
    pub fn state_arena(&self) -> &StateArena {
        &self.arena
    }

    /// The table catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Register a loaded table.
    pub fn register_table(&self, table: StoredTable) {
        self.catalog.register(table);
    }

    /// The heterogeneity-aware plan a query would execute with, rendered as
    /// text (the EXPLAIN of Figure 1e / 2b).
    pub fn explain(&self, plan: &RelNode, config: &EngineConfig) -> Result<String> {
        Ok(self.parallel_plan(plan, config)?.explain())
    }

    /// The heterogeneity-aware plan itself.
    pub fn parallel_plan(&self, plan: &RelNode, config: &EngineConfig) -> Result<HetNode> {
        parallelize(plan, config)
    }

    /// Open a [`QuerySession`](crate::session::QuerySession) on this engine —
    /// the unified entry point for one-shot execution. The serving
    /// counterpart is [`QueryServer::session`](crate::server::QueryServer::session).
    pub fn session(&self) -> crate::session::QuerySession<'_> {
        crate::session::QuerySession::on_engine(self)
    }

    /// The session entry point: validate, optionally re-optimize from cached
    /// feedback, execute, and record fresh feedback.
    ///
    /// With `config.reopt` disabled (the default) this is exactly the
    /// pre-reopt engine: validate, then execute the submitted plan — no
    /// fingerprinting, no cache traffic, no rewrites. With it enabled, a
    /// prior run's [`PlanFeedback`] (from `feedback`, defaulting to the
    /// engine-lifetime cache) drives a placement/DOP search; a winning
    /// candidate replaces the submitted placement and the rewritten
    /// configuration passes through every gate the submitted one would —
    /// `validate()` here, then the static verifier ([`Self::verify`], Deny
    /// semantics unchanged) inside the attempt.
    pub(crate) fn execute_with(
        &self,
        plan: &RelNode,
        config: &EngineConfig,
        observer: Option<Arc<SlowdownObserver>>,
        feedback: Option<Arc<FeedbackCache>>,
    ) -> Result<QueryOutcome> {
        config.validate()?;
        if !config.reopt.enabled {
            return self.execute_validated(plan, config, observer);
        }
        let cache = feedback.unwrap_or_else(|| Arc::clone(&self.feedback));
        let fingerprint = plan_fingerprint(plan);
        let mut effective = config.clone();
        let mut applied = None;
        if let Some(prior) = cache.get(fingerprint) {
            let cost = CostModel::from_config(config);
            if let Some(decision) = reoptimize(config, &prior, &self.topology, &cost) {
                effective = decision.chosen.apply(config);
                effective.validate()?;
                applied = Some(decision.chosen.label());
            }
        }
        let mut outcome = self.execute_validated(plan, &effective, observer)?;
        outcome.stats.reopt_applied = applied;
        cache.record(Self::distill_feedback(fingerprint, &effective, &outcome));
        Ok(outcome)
    }

    /// Execute a validated configuration.
    ///
    /// The last rung of the fault-recovery ladder lives here: when execution
    /// fails with a structured [`HetError::DeviceLost`] (a bound stage lost
    /// its consumer, or a whole stage died) and `config.fault.degraded_restart`
    /// is on, the lost device is excluded from the topology, the degrees of
    /// parallelism are clamped to the surviving devices — a query losing its
    /// last GPU degrades to CPU-only — and the query is re-planned and
    /// re-executed from scratch. Results are exact either way; the reported
    /// simulated time is that of the final (successful) attempt, with the time
    /// each failed attempt burned recorded in `QueryStats::attempt_sim_times`.
    fn execute_validated(
        &self,
        plan: &RelNode,
        config: &EngineConfig,
        observer: Option<Arc<SlowdownObserver>>,
    ) -> Result<QueryOutcome> {
        let executor = self.query_executor(&self.topology, observer.clone());
        match self.execute_attempt(&self.topology, &executor, plan, config) {
            Err(HetError::DeviceLost { device, .. }) if config.fault.degraded_restart => {
                let burned = executor
                    .take_failed_sim_time()
                    .expect("executor error paths record burned sim time");
                self.execute_degraded(plan, config, device, vec![burned], observer)
            }
            other => other,
        }
    }

    /// Distill one successful run's statistics into the feedback record the
    /// reoptimizer consumes on the next submission of the same plan. `config`
    /// is the placement that was *dispatched*; after a degraded restart the
    /// surviving attempt ran a clamped variant, which the feedback
    /// deliberately ignores — exclusions are transient and the record should
    /// describe the query on the healthy topology.
    fn distill_feedback(
        fingerprint: u64,
        config: &EngineConfig,
        outcome: &QueryOutcome,
    ) -> PlanFeedback {
        let stats = &outcome.stats;
        let stages = stats
            .stage_rows
            .iter()
            .enumerate()
            .map(|(i, &(rows_in, rows_out))| StageObservation {
                rows_in,
                rows_out,
                completion_ns: stats.stage_completion.get(i).map_or(0, |t| t.as_nanos()),
            })
            .collect();
        PlanFeedback {
            fingerprint,
            target: config.target,
            cpu_dop: config.cpu_dop,
            gpu_dop: config.gpu_dop,
            sim_time_ns: outcome.sim_time.as_nanos() as f64,
            observed_slowdowns: stats.observed_slowdowns.clone(),
            stages,
            remote_control_acquisitions: stats.remote_control_acquisitions,
            bytes_transferred: stats.bytes_transferred,
            runs: 1,
        }
    }

    /// A fresh executor for one query (or one degraded attempt): private
    /// memory/link clocks, so concurrent queries never corrupt each other's
    /// simulated accounting.
    fn query_executor(
        &self,
        topology: &Arc<ServerTopology>,
        observer: Option<Arc<SlowdownObserver>>,
    ) -> Executor {
        let executor = Executor::new(topology.with_private_clocks());
        match observer {
            Some(observer) => executor.with_shared_observer(observer),
            None => executor,
        }
    }

    /// One plan→compile→execute attempt against `topology`/`executor`.
    fn execute_attempt(
        &self,
        topology: &Arc<ServerTopology>,
        executor: &Executor,
        plan: &RelNode,
        config: &EngineConfig,
    ) -> Result<QueryOutcome> {
        let het = parallelize(plan, config)?;
        hetex_core::traits::check_relational_requirements(&het)?;
        let mut graph = compile(&het, config, topology)?;
        graph.state.use_arena(&self.arena);
        Self::verify(&graph, config, topology)?;
        let result = executor.execute(&graph, &self.catalog, config)?;
        Ok(QueryOutcome {
            rows: result.rows,
            sim_time: result.sim_time,
            stats: QueryStats {
                per_kind: result.per_kind,
                bytes_transferred: result.bytes_transferred,
                stages: graph.stages.len(),
                stage_completion: result.stage_completion,
                wall_time: result.wall_time,
                staging_peaks: result.staging_peaks,
                blocks_stolen: result.blocks_stolen,
                remote_control_acquisitions: result.remote_control_acquisitions,
                observed_slowdowns: result.observed_slowdowns,
                transient_retries: result.transient_retries,
                recovered_blocks: result.recovered_blocks,
                staging_leaked_bytes: result.staging_leaked_bytes,
                excluded_devices: Vec::new(),
                degraded_restarts: 0,
                attempt_sim_times: vec![result.sim_time],
                stage_rows: result.stage_rows,
                reopt_applied: None,
            },
        })
    }

    /// The pre-execution static analysis pass: verify the compiled stage
    /// graph against the config and topology (`hetex-analysis`), honouring
    /// `config.analysis` — reject on error-severity diagnostics under
    /// [`AnalysisMode::Deny`], print-and-run under [`AnalysisMode::Warn`],
    /// skip under [`AnalysisMode::Off`]. Pure host-side work: it charges no
    /// simulated time.
    fn verify(
        graph: &crate::codegen::StageGraph,
        config: &EngineConfig,
        topology: &Arc<ServerTopology>,
    ) -> Result<()> {
        if config.analysis == AnalysisMode::Off {
            return Ok(());
        }
        let report = hetex_analysis::analyze(graph, config, topology);
        if report.is_clean() {
            return Ok(());
        }
        if config.analysis == AnalysisMode::Deny && report.has_errors() {
            return Err(HetError::Plan(format!(
                "static analysis rejected the plan:\n{}",
                report.render()
            )));
        }
        eprintln!("static analysis findings (executing anyway):\n{report}");
        Ok(())
    }

    /// Degraded restarts after a structured device loss, bounded by the
    /// device count: each round excludes the lost device, clamps the
    /// parallelism degrees to the survivors (retargeting to CPU-only when no
    /// GPU survives) and replans. Another `DeviceLost` excludes the next
    /// device; any other error — or running out of devices — surfaces.
    fn execute_degraded(
        &self,
        plan: &RelNode,
        config: &EngineConfig,
        first_lost: usize,
        mut attempt_sim_times: Vec<SimTime>,
        observer: Option<Arc<SlowdownObserver>>,
    ) -> Result<QueryOutcome> {
        let mut topology = Arc::clone(&self.topology);
        let mut lost = first_lost;
        let mut excluded: Vec<usize> = Vec::new();
        for _ in 0..self.topology.devices().len() {
            topology = topology.with_device_excluded(DeviceId::new(lost))?;
            excluded.push(lost);
            let gpus = topology.gpus().len();
            let cpus = topology.cpu_cores().len();
            let Some(cfg) = config.degraded_for(cpus, gpus) else {
                break;
            };
            cfg.validate()?;
            // A fresh executor: its device clocks and simulated GPUs run
            // against the shrunken topology, and placement never sees the
            // excluded devices.
            let executor = self.query_executor(&topology, observer.clone());
            match self.execute_attempt(&topology, &executor, plan, &cfg) {
                Ok(mut outcome) => {
                    outcome.stats.degraded_restarts = excluded.len();
                    outcome.stats.excluded_devices = excluded;
                    attempt_sim_times.push(outcome.sim_time);
                    outcome.stats.attempt_sim_times = attempt_sim_times;
                    return Ok(outcome);
                }
                Err(HetError::DeviceLost { device, .. }) if !excluded.contains(&device) => {
                    lost = device;
                    attempt_sim_times.push(
                        executor
                            .take_failed_sim_time()
                            .expect("executor error paths record burned sim time"),
                    );
                }
                Err(e) => return Err(e),
            }
        }
        Err(HetError::Execution(format!(
            "degraded restart exhausted: no surviving device can run the query \
             (excluded devices {excluded:?})"
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetex_common::{ColumnData, DataType};
    use hetex_jit::{AggSpec, Expr};
    use hetex_storage::TableBuilder;

    fn engine_with_table(rows: usize) -> Proteus {
        engine_on(ServerTopology::paper_server(), rows)
    }

    fn engine_on(topology: Arc<ServerTopology>, rows: usize) -> Proteus {
        let engine = Proteus::new(topology);
        let nodes = engine.topology().cpu_memory_nodes();
        let table = TableBuilder::new("t")
            .column(
                "a",
                DataType::Int32,
                ColumnData::Int32((0..rows as i32).map(|i| i % 1000).collect()),
            )
            .column(
                "b",
                DataType::Int64,
                ColumnData::Int64((0..rows as i64).map(|i| i * 2).collect()),
            )
            .build(&nodes, 8192)
            .unwrap();
        engine.register_table(table);
        engine
    }

    fn sum_where_plan() -> RelNode {
        // SELECT SUM(b) FROM t WHERE a > 42 — the paper's running example.
        RelNode::scan("t", &["a", "b"])
            .filter(Expr::col(0).gt_lit(42))
            .reduce(vec![AggSpec::sum(Expr::col(1))], &["sum_b"])
    }

    fn expected_sum(rows: usize) -> i64 {
        (0..rows as i64).filter(|i| i % 1000 > 42).map(|i| i * 2).sum()
    }

    #[test]
    fn running_example_on_all_targets() {
        let engine = engine_with_table(100_000);
        let expected = expected_sum(100_000);
        for config in
            [EngineConfig::cpu_only(4), EngineConfig::gpu_only(2), EngineConfig::hybrid(8, 2)]
        {
            let outcome = engine.session().execute(&sum_where_plan(), &config).unwrap();
            assert_eq!(outcome.rows, vec![vec![expected]], "target {:?}", config.target);
            assert!(outcome.sim_time > SimTime::ZERO);
            assert!(outcome.seconds() > 0.0);
            assert!(outcome.stats.stages >= 1);
        }
    }

    #[test]
    fn scan_views_release_the_stored_columns_when_execute_returns() {
        // Scan blocks view the stored columns, so every handle a query makes
        // holds a reference to them: once `execute` returns, none may remain.
        let engine = engine_with_table(50_000);
        let table = engine.catalog().get("t").unwrap();
        let columns = [table.column("a").unwrap(), table.column("b").unwrap()];
        let before: Vec<usize> = columns.iter().map(Arc::strong_count).collect();
        for config in
            [EngineConfig::cpu_only(2), EngineConfig::gpu_only(2), EngineConfig::hybrid(4, 2)]
        {
            let outcome = engine.session().execute(&sum_where_plan(), &config).unwrap();
            assert_eq!(outcome.rows, vec![vec![expected_sum(50_000)]]);
            let after: Vec<usize> = columns.iter().map(Arc::strong_count).collect();
            assert_eq!(after, before, "target {:?} left scan views alive", config.target);
        }
    }

    #[test]
    fn group_by_returns_sorted_groups() {
        let engine = engine_with_table(10_000);
        let plan =
            RelNode::scan("t", &["a", "b"]).group_by(&[0], vec![AggSpec::count()], &["a", "cnt"]);
        let outcome = engine.session().execute(&plan, &EngineConfig::cpu_only(2)).unwrap();
        assert_eq!(outcome.rows.len(), 1000);
        // Sorted by key and each key appears 10 times.
        assert!(outcome.rows.windows(2).all(|w| w[0][0] < w[1][0]));
        assert!(outcome.rows.iter().all(|r| r[1] == 10));
    }

    #[test]
    fn repeated_queries_take_every_state_buffer_from_the_arena() {
        // A join and a group-by on one worker, so every run makes the same
        // requests in the same order: the first run fills the arena, and
        // from the second on it serves every buffer and keeps the same bytes.
        let engine = engine_with_table(50_000);
        let nodes = engine.topology().cpu_memory_nodes();
        let keys = ColumnData::Int32((0..1000).collect());
        let payload = ColumnData::Int64((0..1000).map(|k| k * 3).collect());
        let dim = TableBuilder::new("d").column("k", DataType::Int32, keys);
        let dim = dim.column("v", DataType::Int64, payload).build(&nodes, 256).unwrap();
        engine.register_table(dim);
        let dim = RelNode::scan("d", &["k", "v"]).filter(Expr::col(1).lt_lit(2_400));
        let plan = RelNode::scan("t", &["a", "b"]).hash_join(dim, 0, 0, &[1]).group_by(
            &[0],
            vec![AggSpec::sum(Expr::col(2)), AggSpec::count()],
            &["a", "sum_v", "cnt"],
        );
        let config = EngineConfig::cpu_only(1);
        let first = engine.session().execute(&plan, &config).unwrap().rows;
        assert_eq!(first.len(), 800);
        assert_eq!(first[1], vec![1, 3 * 50, 50]);
        let (fresh, retained) = engine.state_arena().stats();
        assert!(fresh > 0 && retained > 0, "the first run fills the arena");
        for _ in 0..3 {
            assert_eq!(engine.session().execute(&plan, &config).unwrap().rows, first);
            assert_eq!(engine.state_arena().stats(), (fresh, retained));
        }
        assert!(retained <= hetex_jit::state::STATE_ARENA_BYTES);
    }

    #[test]
    fn explain_shows_hetexchange_operators() {
        let engine = engine_with_table(1000);
        let text = engine.explain(&sum_where_plan(), &EngineConfig::hybrid(24, 2)).unwrap();
        assert!(text.contains("router"));
        assert!(text.contains("cpu2gpu"));
        assert!(text.contains("segmenter t"));
    }

    #[test]
    fn missing_table_is_a_catalog_error() {
        let engine = Proteus::on_paper_server();
        let err =
            engine.session().execute(&sum_where_plan(), &EngineConfig::cpu_only(1)).unwrap_err();
        assert_eq!(err.category(), "catalog");
    }

    #[test]
    fn invalid_config_is_rejected_before_execution() {
        let engine = engine_with_table(100);
        assert!(engine.session().execute(&sum_where_plan(), &EngineConfig::cpu_only(0)).is_err());
    }

    #[test]
    fn losing_every_gpu_degrades_the_query_to_cpu_only() {
        use hetex_topology::FaultPlan;
        // Both GPUs are dead from t=0 but the query is pinned GPU-only: the
        // first attempt loses a device, the restart ladder excludes it, the
        // retry loses the other one, and the final restart retargets the
        // query to CPU-only. Rows must be exact throughout.
        let topology = ServerTopology::paper_server();
        let gpus: Vec<DeviceId> = topology.gpus();
        let faulted = topology
            .with_fault_plan(
                FaultPlan::new()
                    .abort_device(gpus[0], SimTime::ZERO)
                    .abort_device(gpus[1], SimTime::ZERO),
            )
            .unwrap();
        let engine = engine_on(faulted, 100_000);
        let outcome =
            engine.session().execute(&sum_where_plan(), &EngineConfig::gpu_only(2)).unwrap();
        assert_eq!(outcome.rows, vec![vec![expected_sum(100_000)]]);
        assert!(
            outcome.stats.degraded_restarts >= 1,
            "a GPU-only query with no live GPU cannot succeed without restarting"
        );
        assert_eq!(outcome.stats.excluded_devices.len(), outcome.stats.degraded_restarts);
        assert!(outcome.stats.excluded_devices.iter().all(|d| gpus.contains(&DeviceId::new(*d))));
        // The surviving run really is CPU-only.
        assert!(outcome.stats.per_kind.contains_key(&DeviceKind::CpuCore));
        let gpu_blocks = outcome.stats.per_kind.get(&DeviceKind::Gpu).map_or(0, |s| s.blocks);
        assert_eq!(gpu_blocks, 0, "no block may be charged to a dead GPU");
        assert_eq!(outcome.stats.staging_leaked_bytes, 0);
    }

    #[test]
    fn degraded_restart_can_be_disabled() {
        use hetex_common::FaultConfig;
        use hetex_topology::FaultPlan;
        let topology = ServerTopology::paper_server();
        let gpus = topology.gpus();
        let faulted = topology
            .with_fault_plan(
                FaultPlan::new()
                    .abort_device(gpus[0], SimTime::ZERO)
                    .abort_device(gpus[1], SimTime::ZERO),
            )
            .unwrap();
        let engine = engine_on(faulted, 10_000);
        let config = EngineConfig::gpu_only(2).with_fault(FaultConfig::disabled());
        let err = engine.session().execute(&sum_where_plan(), &config).unwrap_err();
        assert_eq!(err.category(), "device-lost", "got: {err}");
    }

    #[test]
    fn throughput_helper_uses_simulated_time() {
        let engine = engine_with_table(100_000);
        let outcome =
            engine.session().execute(&sum_where_plan(), &EngineConfig::cpu_only(8)).unwrap();
        let bytes = (100_000 * (4 + 8)) as f64;
        assert!(outcome.throughput_gbps(bytes) > 0.0);
    }
}
