//! The adaptivity scenarios (DESIGN.md §4.3, §6, §7, §10 and §11): the
//! router's defences against an unequal server, each run as an A/B pair on the
//! join+reduce hybrid plan over the paper server — work stealing, slowdown
//! feedback, fault recovery and plan re-optimization — plus four SSB streams
//! through one `QueryServer` against serial execution. Every test asserts its
//! feature's bar on simulated time with byte-identical rows, and the healthy
//! legs pin their simulated seconds at ±10%.
//!
//! How much of a straggler's backlog the router has queued before its first
//! observation lands follows host-thread interleaving, so every join+reduce
//! leg gates the median of three runs. The tests also take one lock, so that
//! no two scenarios share the host's cores: run side by side, the unskewed
//! controls drift past their 2% bars.

use hetexchange::bench::workload::{join_reduce_engine_on, SsbWorkload, DEFAULT_PHYSICAL_SF};
use hetexchange::common::config::ReoptConfig;
use hetexchange::common::{CalibrationConfig, EngineConfig, FaultConfig, ServeConfig, StealPolicy};
use hetexchange::engine::{QueryOutcome, QueryServer};
use hetexchange::topology::{FaultPlan, ServerTopology, SimTime};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Fact rows of the join+reduce plan; its dimension has half as many.
const FACT_ROWS: usize = 200_000;

/// Hidden slowdown of the straggler GPU in the skewed legs.
const SKEW_FACTOR: f64 = 8.0;

/// Simulated seconds of a healthy join+reduce run at [`FACT_ROWS`]: both
/// sides of the unskewed steal and calibration pairs and of the healthy
/// fault pair measure exactly this.
const HEALTHY_JOIN_REDUCE_S: f64 = 2.057_280_672;

static ONE_SCENARIO_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Hold the scenario lock for the rest of the test. A test that failed
/// while holding it poisons it; the next one runs anyway.
fn serialized() -> MutexGuard<'static, ()> {
    ONE_SCENARIO_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Assert that `actual` lies within ±10% of `pinned`, the value measured
/// when the pin was set.
fn assert_pinned(what: &str, actual: f64, pinned: f64) {
    assert!(
        (actual / pinned - 1.0).abs() <= 0.10,
        "{what} = {actual}s is more than 10% away from its pinned {pinned}s"
    );
}

/// One plan run with the mechanism under test (`on`) and without it (`off`).
struct Ab {
    on: QueryOutcome,
    off: QueryOutcome,
}

impl Ab {
    /// Simulated-time gain of `on` over `off`, in percent (negative: `on`
    /// cost time).
    fn gain_pct(&self) -> f64 {
        (1.0 - self.on.seconds() / self.off.seconds()) * 100.0
    }

    /// Assert that `on` and `off` returned the same rows.
    fn assert_rows_identical(&self) {
        assert_eq!(self.on.rows, self.off.rows, "the two runs returned different rows");
    }

    /// The two times and the gain, for a failed assertion's message.
    fn describe(&self) -> String {
        let (on, off) = (self.on.seconds(), self.off.seconds());
        format!("on {on}s vs off {off}s: gain {:.2}%", self.gain_pct())
    }
}

/// Of three runs of `leg`, the one with the median gain: the bars gate the
/// typical outcome, not a scheduler tail.
fn median_of_three(leg: impl Fn() -> Ab) -> Ab {
    let mut runs: Vec<Ab> = (0..3).map(|_| leg()).collect();
    runs.sort_by(|a, b| a.gain_pct().total_cmp(&b.gain_pct()));
    runs.swap_remove(1)
}

/// `base` with the weights that model a paper-scale volume (~48 GB of fact
/// side, a dimension that scales more slowly) on the physically small
/// tables, and stealing off. Without the weights a run is dominated by the
/// fixed ~10 ms router initialization and the A/B measures nothing.
fn join_reduce_config(base: EngineConfig) -> EngineConfig {
    let mut config = base.with_steal_policy(StealPolicy::Disabled);
    config.scale_weight = 20_000.0;
    config.block_capacity = 2048;
    config.with_table_weight("dim", 2_500.0)
}

/// The paper server; when `skewed`, its second GPU is a hidden
/// [`SKEW_FACTOR`]× straggler: work charged to it takes that much longer
/// while routing keeps pricing the nominal profile.
fn paper_server(skewed: bool) -> Arc<ServerTopology> {
    let topology = ServerTopology::paper_server();
    if !skewed {
        return topology;
    }
    let slow_gpu = topology.gpus()[1];
    topology.with_device_slowdown(slow_gpu, SKEW_FACTOR).unwrap()
}

/// Run the join+reduce plan on one engine under `on`, then under `off`.
fn ab_on(topology: Arc<ServerTopology>, rows: usize, on: &EngineConfig, off: &EngineConfig) -> Ab {
    let (engine, plan) = join_reduce_engine_on(topology, rows).unwrap();
    let on = engine.session().execute(&plan, on).unwrap();
    Ab { on, off: engine.session().execute(&plan, off).unwrap() }
}

/// Stealing on vs off, with slowdown feedback off so stealing is the only
/// defence: with both on, how much backlog is left to steal depends on how
/// fast the host ran the straggler's first kernel.
fn steal(skewed: bool) -> Ab {
    let config = join_reduce_config(EngineConfig::hybrid(8, 2))
        .with_calibration(CalibrationConfig::default().with_slowdown_feedback(false));
    let stealing = config.clone().with_steal_policy(StealPolicy::TailMostLoaded);
    median_of_three(|| ab_on(paper_server(skewed), FACT_ROWS, &stealing, &config))
}

/// Online calibration (slowdown feedback routing and measured topology
/// constants) on vs off, with stealing off so feedback is the only defence.
fn calibration(skewed: bool, rows: usize) -> Ab {
    let config = join_reduce_config(EngineConfig::hybrid(8, 2));
    let calibrated = config.clone().with_calibration(CalibrationConfig::default());
    let nominal = config.with_calibration(CalibrationConfig::disabled());
    ab_on(paper_server(skewed), rows, &calibrated, &nominal)
}

#[test]
fn steal_recovers_ten_percent_from_a_hidden_straggler() {
    let _serial = serialized();
    let ab = steal(true);
    ab.assert_rows_identical();
    assert!(ab.on.stats.total_blocks_stolen() > 0, "the straggler's backlog was never stolen");
    assert!(ab.gain_pct() >= 10.0, "stealing gained less than 10%: {}", ab.describe());
}

#[test]
fn steal_costs_at_most_two_percent_on_a_healthy_server() {
    let _serial = serialized();
    let ab = steal(false);
    ab.assert_rows_identical();
    assert!(ab.gain_pct() >= -2.0, "stealing cost more than 2%: {}", ab.describe());
    assert_pinned("steal_s", ab.on.seconds(), HEALTHY_JOIN_REDUCE_S);
    assert_pinned("no_steal_s", ab.off.seconds(), HEALTHY_JOIN_REDUCE_S);
}

#[test]
fn calib_recovers_twenty_percent_from_a_hidden_straggler_without_stealing() {
    let _serial = serialized();
    let ab = median_of_three(|| calibration(true, FACT_ROWS));
    ab.assert_rows_identical();
    let ewma = ab.on.stats.max_observed_slowdown();
    assert!(ewma > 1.5, "the hidden straggler was never observed: EWMA {ewma}");
    assert!(ab.gain_pct() >= 20.0, "calibration gained less than 20%: {}", ab.describe());
}

#[test]
fn calib_costs_at_most_two_percent_on_a_healthy_server() {
    let _serial = serialized();
    let ab = median_of_three(|| calibration(false, FACT_ROWS));
    ab.assert_rows_identical();
    assert_eq!(ab.on.stats.max_observed_slowdown(), 1.0, "a healthy device observed a slowdown");
    assert!(ab.gain_pct() >= -2.0, "calibration cost more than 2%: {}", ab.describe());
    assert_pinned("calibrated_s", ab.on.seconds(), HEALTHY_JOIN_REDUCE_S);
    assert_pinned("nominal_s", ab.off.seconds(), HEALTHY_JOIN_REDUCE_S);
}

#[test]
fn calib_observes_the_dimension_filters_selectivity() {
    let _serial = serialized();
    // Stage 0 is the dimension filter `attr < 3` over 7 values of `attr`.
    let ab = calibration(false, 50_000);
    let observed = ab.on.stats.observed_selectivity(0).expect("the filter stage saw input");
    assert!((observed - 3.0 / 7.0).abs() < 0.01, "observed stage-0 selectivity {observed} != 3/7");
}

/// The faulted server against the healthy one, under the same configuration
/// on two engines.
fn faulted(plan: FaultPlan, config: &EngineConfig, rows: usize) -> Ab {
    let faulty = ServerTopology::paper_server().with_fault_plan(plan).unwrap();
    let (faulted_engine, rel) = join_reduce_engine_on(faulty, rows).unwrap();
    let (healthy_engine, _) = join_reduce_engine_on(ServerTopology::paper_server(), rows).unwrap();
    let on = faulted_engine.session().execute(&rel, config).unwrap();
    Ab { on, off: healthy_engine.session().execute(&rel, config).unwrap() }
}

/// What every fault leg keeps: the rows, and no staging lease left behind.
fn assert_exact_and_unleaked(ab: &Ab) {
    ab.assert_rows_identical();
    assert_eq!(ab.on.stats.staging_leaked_bytes, 0, "recovery leaked staging leases");
}

#[test]
fn fault_machinery_armed_without_a_plan_costs_at_most_two_percent() {
    let _serial = serialized();
    let config = join_reduce_config(EngineConfig::hybrid(8, 2));
    let armed = config.clone().with_fault(FaultConfig::default());
    let disabled = config.with_fault(FaultConfig::disabled());
    let ab = median_of_three(|| ab_on(paper_server(false), FACT_ROWS, &armed, &disabled));
    assert_exact_and_unleaked(&ab);
    assert_eq!(ab.on.stats.recovered_blocks, 0);
    assert_eq!(ab.on.stats.transient_retries, 0);
    assert!(ab.gain_pct().abs() <= 2.0, "armed fault machinery moved the run: {}", ab.describe());
    assert_pinned("faulted_s", ab.on.seconds(), HEALTHY_JOIN_REDUCE_S);
    assert_pinned("baseline_s", ab.off.seconds(), HEALTHY_JOIN_REDUCE_S);
}

#[test]
fn fault_losing_a_gpu_drains_its_backlog_without_a_restart() {
    let _serial = serialized();
    let gpu = ServerTopology::paper_server().gpus()[1];
    let config = join_reduce_config(EngineConfig::hybrid(8, 2));
    let ab = median_of_three(|| {
        faulted(FaultPlan::new().abort_device(gpu, SimTime::from_nanos(1)), &config, FACT_ROWS)
    });
    assert_exact_and_unleaked(&ab);
    assert!(ab.on.stats.recovered_blocks > 0, "the dead GPU's backlog was never drained");
    assert_eq!(ab.on.stats.degraded_restarts, 0, "executor-level recovery needs no restart");
}

#[test]
fn fault_transient_kernel_failures_cost_at_most_ten_percent() {
    let _serial = serialized();
    // Every kernel invocation on one GPU fails with p = 0.3 for the whole run.
    let gpu = ServerTopology::paper_server().gpus()[0];
    let run_long = SimTime::from_millis(600_000);
    let flaky = || FaultPlan::new().transient_window(gpu, SimTime::ZERO, run_long, 0.3, 0xfa);
    let config = join_reduce_config(EngineConfig::hybrid(8, 2));
    let ab = median_of_three(|| faulted(flaky(), &config, FACT_ROWS));
    assert_exact_and_unleaked(&ab);
    assert!(ab.on.stats.transient_retries > 0, "p = 0.3 never failed a kernel");
    assert!(ab.gain_pct() >= -10.0, "transient recovery cost more than 10%: {}", ab.describe());
}

#[test]
fn fault_losing_both_gpus_restarts_a_gpu_only_query_on_the_cpu() {
    let _serial = serialized();
    let gpus = ServerTopology::paper_server().gpus();
    let config = join_reduce_config(EngineConfig::gpu_only(2));
    let both_lost = || {
        FaultPlan::new().abort_device(gpus[0], SimTime::ZERO).abort_device(gpus[1], SimTime::ZERO)
    };
    let ab = median_of_three(|| faulted(both_lost(), &config, FACT_ROWS / 2));
    assert_exact_and_unleaked(&ab);
    assert!(ab.on.stats.degraded_restarts >= 1, "a GPU-only query with no GPUs must restart");
}

#[test]
fn serve_four_streams_at_least_one_and_a_half_times_faster_than_serial() {
    let _serial = serialized();
    const STREAMS: usize = 4;
    // The default physical scale, not the environment's: the bar and the
    // pins below hold for this data only.
    let workload = SsbWorkload::build(DEFAULT_PHYSICAL_SF, 100.0, false).unwrap();
    // Stealing off: the isolated times, and so the fair timeline built from
    // them, are deterministic.
    let config =
        workload.config(EngineConfig::hybrid(6, 1)).with_steal_policy(StealPolicy::Disabled);
    let queries = workload.queries.clone();
    let engine = Arc::new(workload.engine_cpu_data);
    let expected: Vec<Vec<Vec<i64>>> =
        queries.iter().map(|q| engine.session().execute(&q.plan, &config).unwrap().rows).collect();

    // A budget for every stream at once: the worker pool and the devices,
    // not admission, bound this batch.
    let serve = ServeConfig::serving()
        .with_workers(STREAMS)
        .with_admission_bytes(Some(STREAMS as u64 * config.est_serve_footprint_bytes()));
    let budget = serve.effective_admission_bytes();
    let mut server = QueryServer::new(Arc::clone(&engine), serve).unwrap();
    // Open loop: every stream's whole SSB flight is submitted at virtual
    // time zero.
    let mut tickets = Vec::new();
    for query in (0..STREAMS).flat_map(|_| &queries) {
        tickets.push(server.session().submit(query.plan.clone(), config.clone()).unwrap());
    }
    for (ticket, i) in tickets.into_iter().zip((0..queries.len()).cycle()) {
        let outcome = ticket.wait().unwrap();
        assert_eq!(
            outcome.rows, expected[i],
            "served {} differs from its lone run",
            queries[i].name
        );
        assert_eq!(outcome.stats.staging_leaked_bytes, 0, "{} leaked staging", queries[i].name);
    }
    let report = server.shutdown().unwrap();

    assert_eq!(report.sessions.len(), STREAMS * 13);
    let peak = report.admission_peaks.iter().map(|&(_, p)| p).max().unwrap_or(0);
    assert!(peak <= budget, "admission peaked at {peak} B over its {budget} B budget");
    let (serial, served) = (report.serial.as_secs_f64(), report.makespan.as_secs_f64());
    let (p50, p99) =
        (report.latency_quantile(0.50).as_secs_f64(), report.latency_quantile(0.99).as_secs_f64());
    assert!(p50 <= p99 && p99 <= served + 1e-12, "p50 {p50}s, p99 {p99}s, makespan {served}s");
    assert!(serial / served >= 1.5, "serving {served}s vs serial {serial}s is under 1.5x");
    assert_pinned("serial_s", serial, 43.641_559_684);
    assert_pinned("served_s", served, 11.403_365_648);
    assert_pinned("p50_latency_s", p50, 5.745_761_546);
    assert_pinned("p99_latency_s", p99, 11.403_365_648);
}

/// The same plan submitted twice to one engine under `reopt`: `off` is the
/// first run, `on` the second. The plan is mis-planned on purpose —
/// hybrid(8,2) on the skewed server with calibration and stealing off — so
/// nothing below the plan can rescue it.
fn resubmitted(reopt: ReoptConfig) -> Ab {
    let (engine, plan) = join_reduce_engine_on(paper_server(true), FACT_ROWS).unwrap();
    let config = join_reduce_config(EngineConfig::hybrid(8, 2))
        .with_calibration(CalibrationConfig::disabled())
        .with_reopt(reopt);
    let off = engine.session().execute(&plan, &config).unwrap();
    Ab { on: engine.session().execute(&plan, &config).unwrap(), off }
}

#[test]
fn reopt_second_run_recovers_twenty_percent_from_the_misplanned_hybrid() {
    let _serial = serialized();
    let ab = median_of_three(|| resubmitted(ReoptConfig::enabled()));
    ab.assert_rows_identical();
    let ewma = ab.off.stats.max_observed_slowdown();
    assert!(ewma > 1.5, "the hidden straggler was never observed: EWMA {ewma}");
    let replanned = ab.on.stats.reopt_applied.as_deref().expect("the second run was not rewritten");
    assert!(
        !replanned.contains("(8,2)"),
        "the rewrite kept the mis-planned hybrid(8,2): {replanned}"
    );
    assert!(ab.gain_pct() >= 20.0, "the second run recovered less than 20%: {}", ab.describe());
}

#[test]
fn reopt_disabled_never_rewrites_and_repeats_the_first_run() {
    let _serial = serialized();
    let ab = median_of_three(|| resubmitted(ReoptConfig::disabled()));
    ab.assert_rows_identical();
    assert_eq!(ab.on.stats.reopt_applied, None, "ReoptConfig::disabled() rewrote the plan");
    assert!(ab.gain_pct().abs() <= 5.0, "the two runs diverged by more than 5%: {}", ab.describe());
}
