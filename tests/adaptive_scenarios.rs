//! The adaptivity scenarios (DESIGN.md §4.3, §6, §7, §10 and §11): the
//! router's defences against an unequal server, run on the join+reduce
//! hybrid plan over the paper server — re-routing and slowdown feedback
//! (always on, measured against the healthy server and the narrower plan),
//! fault recovery and plan re-optimization (each an A/B pair) — plus four
//! SSB streams through one `QueryServer` against serial execution. Every
//! test asserts its feature's bar on simulated time with byte-identical
//! rows, and the healthy and skewed legs pin their simulated seconds at
//! ±10%.
//!
//! Most legs gate the median of three runs, a margin from when routing
//! followed host-thread interleaving; the lost-GPU and skewed legs gate
//! every one of many runs. The tests also take one lock, so that no two
//! scenarios share the host's cores: run side by side, the controls drift
//! past their bars.

use hetexchange::bench::workload::{join_reduce_engine_on, SsbWorkload, DEFAULT_PHYSICAL_SF};
use hetexchange::common::config::ReoptConfig;
use hetexchange::common::{EngineConfig, ServeConfig};
use hetexchange::engine::{QueryOutcome, QueryServer};
use hetexchange::topology::{FaultPlan, ServerTopology, SimTime};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Fact rows of the join+reduce plan; its dimension has half as many.
const FACT_ROWS: usize = 200_000;

/// Hidden slowdown of the straggler GPU in the skewed legs.
const SKEW_FACTOR: f64 = 8.0;

/// Simulated seconds of a healthy hybrid(8,2) join+reduce run at
/// [`FACT_ROWS`]: the healthy leg and both sides of the armed-fault pair
/// measure this on a quiet host. It is also what the run measured with
/// stealing and slowdown feedback switched off, before they became
/// permanent, so it is the nominal time the healthy run's defences are held
/// against.
const HEALTHY_JOIN_REDUCE_S: f64 = 2.057_280_672;

/// Simulated seconds of the same run with the second GPU a hidden
/// [`SKEW_FACTOR`]× straggler, once re-routing and slowdown feedback have
/// rescued it: the end of the CPU lanes, which no rescue moves (the balance
/// point).
const SKEWED_JOIN_REDUCE_S: f64 = 3.302_369_748;

/// Simulated seconds of the join+reduce on hybrid(8,1), the same server
/// with one GPU: what losing the other GPU may cost at most, plus 5%.
const ONE_GPU_JOIN_REDUCE_S: f64 = 4.119_734_454;

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
/// tables. Without the weights a run is dominated by the fixed ~10 ms router
/// initialization and the scenarios measure nothing.
fn join_reduce_config(base: EngineConfig) -> EngineConfig {
    let mut config = base;
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

/// One join+reduce run of `config` over `rows` fact rows on `topology`.
fn join_reduce(topology: Arc<ServerTopology>, rows: usize, config: &EngineConfig) -> QueryOutcome {
    let (engine, plan) = join_reduce_engine_on(topology, rows).unwrap();
    engine.session().execute(&plan, config).unwrap()
}

/// Re-routing and slowdown feedback against a hidden straggler GPU.
/// Neither can be switched off, so the skewed run is measured against the
/// healthy server and against the narrower plan that leaves the straggler
/// out: the straggler must stay a net gain of at least 10%. The median of
/// three skewed runs must meet every bar, a re-route off the straggler
/// included.
#[test]
fn steal_recovers_ten_percent_from_a_hidden_straggler() {
    let _serial = serialized();
    let config = join_reduce_config(EngineConfig::hybrid(8, 2));
    let healthy = join_reduce(paper_server(false), FACT_ROWS, &config);
    let mut skewed: Vec<QueryOutcome> =
        (0..3).map(|_| join_reduce(paper_server(true), FACT_ROWS, &config)).collect();
    // The same server without the straggler: hybrid(8,1) keeps the healthy
    // first GPU only.
    let one_gpu = join_reduce_config(EngineConfig::hybrid(8, 1));
    let without = join_reduce(paper_server(true), FACT_ROWS, &one_gpu);

    for run in &skewed {
        assert_eq!(run.rows, healthy.rows, "a skewed run returned different rows");
    }
    skewed.sort_by(|a, b| a.seconds().total_cmp(&b.seconds()));
    let median = &skewed[1];
    let stolen = median.stats.total_blocks_stolen();
    assert!(stolen > 0, "the median run re-routed nothing off the straggler's backlog");
    let ewma = median.stats.max_observed_slowdown();
    assert!(ewma > 1.5, "the hidden straggler was never observed: EWMA {ewma}");
    let (skewed_s, healthy_s) = (median.seconds(), healthy.seconds());
    assert!(
        skewed_s <= 1.75 * healthy_s,
        "the straggler cost more than 75%: {skewed_s}s vs healthy {healthy_s}s"
    );
    assert!(
        skewed_s <= 0.9 * without.seconds(),
        "the straggler GPU gained less than 10%: {skewed_s}s with it, {}s without",
        without.seconds()
    );
    assert_pinned("skewed_s", skewed_s, SKEWED_JOIN_REDUCE_S);
}

/// The skewed leg over 100 runs: the straggler's queued backlog goes back
/// through routing, which places it once, so no run ends more than 4% past
/// the balance point and the median run is at most the 3.353 sim-s the
/// retired steal path read. The median run re-routes.
#[test]
fn steal_every_skewed_run_stays_within_four_percent_of_the_balance() {
    let _serial = serialized();
    let config = join_reduce_config(EngineConfig::hybrid(8, 2));
    let healthy = join_reduce(paper_server(false), FACT_ROWS, &config);
    let mut runs: Vec<QueryOutcome> =
        (0..100).map(|_| join_reduce(paper_server(true), FACT_ROWS, &config)).collect();
    for run in &runs {
        assert_eq!(run.rows, healthy.rows, "a skewed run returned different rows");
        assert_eq!(run.stats.staging_leaked_bytes, 0, "a skewed run leaked staging");
    }
    runs.sort_by(|a, b| a.seconds().total_cmp(&b.seconds()));
    let (median, max) = (&runs[50], runs[99].seconds());
    assert!(median.seconds() <= 3.353, "median skewed run {}s > 3.353s", median.seconds());
    assert!(max <= 3.43, "a skewed run took {max}s > 3.43s");
    assert!(median.stats.total_blocks_stolen() > 0, "the median run re-routed nothing");
}
/// Three hybrid(8,2) join+reduce runs on the healthy server, shared by the
/// two healthy legs and run once. The defences are inert there, so they cost
/// nothing: the median run may take at most 2% longer than the nominal
/// [`HEALTHY_JOIN_REDUCE_S`], and its time is pinned. (Under host load one
/// run in forty reads up to ~1% slower.)
fn healthy_runs() -> &'static [QueryOutcome] {
    static RUNS: OnceLock<Vec<QueryOutcome>> = OnceLock::new();
    RUNS.get_or_init(|| {
        let config = join_reduce_config(EngineConfig::hybrid(8, 2));
        let mut runs: Vec<QueryOutcome> =
            (0..3).map(|_| join_reduce(paper_server(false), FACT_ROWS, &config)).collect();
        runs.sort_by(|a, b| a.seconds().total_cmp(&b.seconds()));
        let median_s = runs[1].seconds();
        let cost_pct = (median_s / HEALTHY_JOIN_REDUCE_S - 1.0) * 100.0;
        assert!(cost_pct <= 2.0, "the defences cost {cost_pct:.2}% on a healthy server");
        assert_pinned("healthy_s", median_s, HEALTHY_JOIN_REDUCE_S);
        for run in &runs {
            assert_eq!(run.rows, runs[0].rows, "two healthy runs returned different rows");
        }
        runs
    })
}

#[test]
fn steal_costs_at_most_two_percent_on_a_healthy_server() {
    let _serial = serialized();
    for run in healthy_runs() {
        assert_eq!(run.stats.total_blocks_stolen(), 0, "a healthy server had blocks stolen");
    }
}

/// Every device's multiplier stays exactly 1.0, so routing takes the path it
/// would take without feedback.
#[test]
fn calib_costs_at_most_two_percent_on_a_healthy_server() {
    let _serial = serialized();
    for run in healthy_runs() {
        for (device, &ewma) in run.stats.observed_slowdowns.iter().enumerate() {
            assert_eq!(ewma, 1.0, "healthy device {device} observed a slowdown");
        }
    }
}

#[test]
fn calib_observes_the_dimension_filters_selectivity() {
    let _serial = serialized();
    // Stage 0 is the dimension filter `attr < 3` over 7 values of `attr`.
    let config = join_reduce_config(EngineConfig::hybrid(8, 2));
    let outcome = join_reduce(paper_server(false), 50_000, &config);
    let observed = outcome.stats.observed_selectivity(0).expect("the filter stage saw input");
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
    // The plan attaches the fault machinery (fault state, watchdog) but
    // never fires: its window opens long after the run ends.
    let gpu = ServerTopology::paper_server().gpus()[0];
    let (opens, closes) = (SimTime::from_millis(600_000), SimTime::from_millis(1_200_000));
    let never = || FaultPlan::new().transient_window(gpu, opens, closes, 1.0, 0xfa);
    let config = join_reduce_config(EngineConfig::hybrid(8, 2));
    let ab = median_of_three(|| faulted(never(), &config, FACT_ROWS));
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
    assert!(ab.on.stats.recovered_blocks > 0, "the dead GPU's backlog was never re-routed");
    assert_eq!(ab.on.stats.degraded_restarts, 0, "executor-level recovery needs no restart");
}

/// Losing the second GPU before its first block, after it, and mid-run:
/// its backlog is re-routed over every live consumer, so each of 20 runs
/// at each onset costs at most 5% more than the same server with one GPU,
/// and every run keeps its rows and staging, re-routes and needs no
/// restart. The spread of an onset's runs is their interquartile range,
/// at most 5% of the median: the runs read 3.476 sim-s after the GPU's
/// first block and 4.120 before it, and about one run in a thousand lands
/// on the other of the two, where routing's last placement decides whether
/// a CPU core takes a third 1.24 s block.
#[test]
fn fault_losing_a_gpu_at_any_onset_costs_at_most_five_percent_over_one_gpu() {
    let _serial = serialized();
    let gpu = ServerTopology::paper_server().gpus()[1];
    let config = join_reduce_config(EngineConfig::hybrid(8, 2));
    let healthy = join_reduce(paper_server(false), FACT_ROWS, &config);
    for onset in [SimTime::ZERO, SimTime::from_nanos(1), SimTime::from_millis(500)] {
        let lost = || {
            let plan = FaultPlan::new().abort_device(gpu, onset);
            let topology = ServerTopology::paper_server().with_fault_plan(plan).unwrap();
            join_reduce(topology, FACT_ROWS, &config)
        };
        let runs: Vec<QueryOutcome> = (0..20).map(|_| lost()).collect();
        for run in &runs {
            assert_eq!(run.rows, healthy.rows, "onset {onset}: different rows");
            assert_eq!(run.stats.staging_leaked_bytes, 0, "onset {onset}: leaked staging");
            assert_eq!(run.stats.degraded_restarts, 0, "onset {onset}: restarted");
            assert!(run.stats.recovered_blocks > 0, "onset {onset}: nothing re-routed");
            assert!(
                run.seconds() <= 1.05 * ONE_GPU_JOIN_REDUCE_S,
                "onset {onset}: {}s against {ONE_GPU_JOIN_REDUCE_S}s on one GPU",
                run.seconds()
            );
        }
        let mut seconds: Vec<f64> = runs.iter().map(QueryOutcome::seconds).collect();
        seconds.sort_by(f64::total_cmp);
        let (q1, median, q3) = (seconds[5], seconds[10], seconds[15]);
        assert!(q3 - q1 <= 0.05 * median, "onset {onset}: the runs spread over {seconds:?}");
    }
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
    // The restart runs on every surviving core, not on one of them.
    assert!(
        ab.on.seconds() <= 2.0 * ab.off.seconds(),
        "the CPU restart took more than twice the healthy GPU-only run: {}",
        ab.describe()
    );
}

#[test]
fn serve_four_streams_at_least_one_and_a_half_times_faster_than_serial() {
    let _serial = serialized();
    const STREAMS: usize = 4;
    // The default physical scale, not the environment's: the bar and the
    // pins below hold for this data only.
    let workload = SsbWorkload::build(DEFAULT_PHYSICAL_SF, 100.0, false).unwrap();
    // Nothing straggles, so nothing is stolen; the isolated times, and so
    // the fair timeline built from them, vary run to run only where thread
    // interleaving decides a block claim (under 0.05% of `serial_s`).
    let config = workload.config(EngineConfig::hybrid(6, 1));
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
/// first run, `on` the second.
fn resubmitted(topology: Arc<ServerTopology>, base: EngineConfig, reopt: ReoptConfig) -> Ab {
    let (engine, plan) = join_reduce_engine_on(topology, FACT_ROWS).unwrap();
    let config = join_reduce_config(base).with_reopt(reopt);
    let off = engine.session().execute(&plan, &config).unwrap();
    Ab { on: engine.session().execute(&plan, &config).unwrap(), off }
}

/// `cpu_only(8)` on the skewed server, mis-planned on purpose: routing
/// cannot widen a placement, so only a rewrite can reach the GPUs.
fn misplanned(reopt: ReoptConfig) -> Ab {
    resubmitted(paper_server(true), EngineConfig::cpu_only(8), reopt)
}

#[test]
fn reopt_second_run_recovers_half_of_a_misplanned_cpu_only_run() {
    let _serial = serialized();
    let ab = median_of_three(|| misplanned(ReoptConfig::enabled()));
    ab.assert_rows_identical();
    let replanned = ab.on.stats.reopt_applied.as_deref().expect("the second run was not rewritten");
    assert!(replanned.starts_with("hybrid"), "the rewrite left the GPUs out: {replanned}");
    // The rewrite runs on the straggler too, and observes it.
    let ewma = ab.on.stats.max_observed_slowdown();
    assert!(ewma > 1.5, "the hidden straggler was never observed: EWMA {ewma}");
    assert!(ab.gain_pct() >= 50.0, "the second run recovered less than 50%: {}", ab.describe());
}

/// hybrid(2,2) on the skewed server: stealing and feedback steer work off
/// the straggler, but two cores and one healthy GPU are all that is left to
/// take it, so only a rewrite can widen the plan.
#[test]
fn reopt_second_run_recovers_twenty_percent_from_the_misplanned_hybrid() {
    let _serial = serialized();
    let misplanned_hybrid =
        || resubmitted(paper_server(true), EngineConfig::hybrid(2, 2), ReoptConfig::enabled());
    let ab = median_of_three(misplanned_hybrid);
    ab.assert_rows_identical();
    let ewma = ab.off.stats.max_observed_slowdown();
    assert!(ewma > 1.5, "the hidden straggler was never observed: EWMA {ewma}");
    let replanned = ab.on.stats.reopt_applied.as_deref().expect("the second run was not rewritten");
    assert!(
        !replanned.contains("(2,2)"),
        "the rewrite kept the mis-planned hybrid(2,2): {replanned}"
    );
    assert!(ab.gain_pct() >= 20.0, "the second run recovered less than 20%: {}", ab.describe());
}

#[test]
fn reopt_disabled_never_rewrites_and_repeats_the_first_run() {
    let _serial = serialized();
    let ab = median_of_three(|| misplanned(ReoptConfig::disabled()));
    ab.assert_rows_identical();
    assert_eq!(ab.on.stats.reopt_applied, None, "ReoptConfig::disabled() rewrote the plan");
    assert!(ab.gain_pct().abs() <= 5.0, "the two runs diverged by more than 5%: {}", ab.describe());
}

#[test]
fn reopt_never_slows_a_healthy_resubmission() {
    let _serial = serialized();
    let healthy =
        || resubmitted(paper_server(false), EngineConfig::hybrid(8, 2), ReoptConfig::enabled());
    let ab = median_of_three(healthy);
    ab.assert_rows_identical();
    assert!(ab.gain_pct() >= -2.0, "the rewrite slowed a healthy run: {}", ab.describe());
}
