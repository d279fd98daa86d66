//! One run of one workload: set-up, timed passes, the correctness gate, and
//! the metrics. `--trace 0` measures the end-to-end metrics with no span
//! recorded; `--trace 1` is a separate run that drives every query through
//! the engine's five public calls with a span around each, runs the
//! micro-probes, and yields the per-layer metrics.
//!
//! Load shape: one generator thread, closed loop, back to back. A *pass*
//! executes the workload's query list once; `serve_mixed` instead submits
//! *rounds* — every stream's queries up front (an open burst at virtual time
//! zero, which is how `ServedQuery::latency` is defined), then waits on every
//! ticket and shuts the server down.

use crate::load::{Load, Workload, SERVE_STREAMS, SERVE_WORKERS};
use crate::probes::Probes;
use crate::stats::{geomean, median, tail};
use crate::trace::{self, Tracer};
use hetex_baselines::{DbmsC, DbmsG};
use hetex_common::config::DataPlacement;
use hetex_common::{EngineConfig, HetError, MemoryNodeId, Priority, Result, ServeConfig};
use hetex_core::traits::check_relational_requirements;
use hetex_core::{compile, parallelize};
use hetex_engine::executor::DeviceKindStats;
use hetex_engine::{reference_execute, Executor, QueryServer, ServeReport};
use hetex_topology::DeviceKind;
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Set-ups per untraced run; `setup_s` is the median of their CPU seconds.
const SETUPS: usize = 3;

/// Passes (or rounds) a run measures at least, however short `--seconds`.
const MIN_PASSES: usize = 3;

pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Directory of `trace_<workload>.json`.
    pub out: PathBuf,
    /// One pass of everything on single-block data (unit tests).
    pub quick: bool,
}

/// A metric as measured: the value, the samples behind it, and a remark for
/// the printed table (a paper reference value, the percentile actually used).
pub struct Measured {
    pub value: f64,
    pub n: usize,
    pub note: String,
}

pub type Metrics = BTreeMap<&'static str, Measured>;

pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the printed output.
    pub failures: Vec<String>,
    pub metrics: Metrics,
}

/// What the gate and the metrics need from one execution, whichever path
/// (session or five public calls, engine or server) produced it.
struct Exec {
    rows: Vec<Vec<i64>>,
    sim_s: f64,
    leaked_bytes: u64,
    counts: Counts,
}

/// `QueryStats` counts, summed over a pass.
#[derive(Default, Clone, Copy)]
struct Counts {
    blocks: u64,
    cpu_busy_ns: u64,
    gpu_busy_ns: u64,
    stolen: u64,
    remote_acquisitions: u64,
    bytes_transferred: f64,
    staging_peak: u64,
}

impl Counts {
    fn of(
        per_kind: &HashMap<DeviceKind, DeviceKindStats>,
        stolen: &[u64],
        remote_acquisitions: u64,
        bytes_transferred: f64,
        staging_peaks: &[(MemoryNodeId, u64)],
    ) -> Self {
        let busy = |kind| per_kind.get(&kind).map_or(0, |s: &DeviceKindStats| s.busy_ns);
        Self {
            blocks: per_kind.values().map(|s| s.blocks).sum(),
            cpu_busy_ns: busy(DeviceKind::CpuCore),
            gpu_busy_ns: busy(DeviceKind::Gpu),
            stolen: stolen.iter().sum(),
            remote_acquisitions,
            bytes_transferred,
            staging_peak: staging_peaks.iter().map(|(_, peak)| *peak).max().unwrap_or(0),
        }
    }

    fn add(&mut self, other: &Counts) {
        self.blocks += other.blocks;
        self.cpu_busy_ns += other.cpu_busy_ns;
        self.gpu_busy_ns += other.gpu_busy_ns;
        self.stolen += other.stolen;
        self.remote_acquisitions += other.remote_acquisitions;
        self.bytes_transferred += other.bytes_transferred;
        self.staging_peak = self.staging_peak.max(other.staging_peak);
    }
}

impl From<hetex_engine::QueryOutcome> for Exec {
    fn from(o: hetex_engine::QueryOutcome) -> Self {
        let s = &o.stats;
        let counts = Counts::of(
            &s.per_kind,
            &s.blocks_stolen,
            s.remote_control_acquisitions,
            s.bytes_transferred,
            &s.staging_peaks,
        );
        Exec {
            sim_s: o.sim_time.as_secs_f64(),
            leaked_bytes: s.staging_leaked_bytes,
            counts,
            rows: o.rows,
        }
    }
}

impl From<hetex_engine::executor::ExecutionResult> for Exec {
    fn from(r: hetex_engine::executor::ExecutionResult) -> Self {
        let counts = Counts::of(
            &r.per_kind,
            &r.blocks_stolen,
            r.remote_control_acquisitions,
            r.bytes_transferred,
            &r.staging_peaks,
        );
        Exec {
            sim_s: r.sim_time.as_secs_f64(),
            leaked_bytes: r.staging_leaked_bytes,
            counts,
            rows: r.rows,
        }
    }
}

/// The correctness gate. Every execution is an attempted operation; it fails
/// if it errors, leaks staging bytes, or returns rows that differ from the
/// query's first execution — and all executions of a query fail together if
/// those rows differ from `reference_execute` (rows do not depend on the
/// configuration, so one oracle result per query covers every config).
#[derive(Default)]
struct Gate {
    /// Per query: the rows of its first passing execution, and how many
    /// executions passed so far.
    expected: Vec<Option<Vec<Vec<i64>>>>,
    passed: Vec<u64>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Gate {
    fn fail(&mut self, count: u64, what: String) {
        self.failed += count;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    /// Count one execution of query `q`; `Some` when it passed.
    fn admit(&mut self, q: usize, name: &str, result: Result<Exec>) -> Option<Exec> {
        self.attempted += 1;
        let mut exec = match result {
            Ok(exec) => exec,
            Err(e) => {
                self.fail(1, format!("{name}: {e}"));
                return None;
            }
        };
        if exec.leaked_bytes != 0 {
            self.fail(1, format!("{name}: {} staging bytes leaked", exec.leaked_bytes));
            return None;
        }
        let rows = std::mem::take(&mut exec.rows);
        if self.expected.len() <= q {
            self.expected.resize(q + 1, None);
            self.passed.resize(q + 1, 0);
        }
        match &self.expected[q] {
            Some(expected) if *expected != rows => {
                self.fail(1, format!("{name}: rows differ from the query's first execution"));
                return None;
            }
            Some(_) => {}
            None => self.expected[q] = Some(rows),
        }
        self.passed[q] += 1;
        Some(exec)
    }

    /// Count one non-query operation (a server shutdown).
    fn admit_op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(1, what());
        }
    }

    /// Compare every query's rows to the oracle's.
    fn check_oracle(&mut self, load: &Load, mut tracer: Option<&mut Tracer>) {
        for (q, query) in load.queries.iter().enumerate() {
            let Some(expected) = self.expected.get_mut(q).and_then(Option::take) else { continue };
            let oracle = trace::time(&mut tracer, "reference.execute", Some(q as u32), || {
                reference_execute(&query.plan, load.engine.catalog())
            });
            let wrong = match oracle {
                Ok(rows) if rows == expected => continue,
                Ok(_) => "rows differ from reference_execute".to_string(),
                Err(e) => format!("oracle failed: {e}"),
            };
            let count = std::mem::take(&mut self.passed[q]);
            self.fail(count, format!("{}: {wrong}", query.name));
        }
    }
}

/// Samples of the single-query passes of one configuration.
#[derive(Default)]
struct Passes {
    sim_by_query: Vec<Vec<f64>>,
    /// Wall seconds, simulated seconds and counts of passes in which every
    /// query passed the gate.
    wall_s: Vec<f64>,
    sim_s: Vec<f64>,
    counts: Vec<Counts>,
    attempted: usize,
}

impl Passes {
    fn new(queries: usize) -> Self {
        Self { sim_by_query: vec![Vec::new(); queries], ..Self::default() }
    }

    /// Σ over the query list of each query's median simulated time.
    fn sim_s(&self) -> f64 {
        self.sim_by_query.iter().map(|sims| median(sims)).sum()
    }

    fn min_samples(&self) -> usize {
        self.sim_by_query.iter().map(Vec::len).min().unwrap_or(0)
    }
}

/// One query through the five public calls `Proteus::execute_attempt` makes
/// (plus the two constructors of its per-query executor), a span around each
/// and the `QueryStats` counts recorded at the same boundaries.
fn traced_session(
    tracer: &mut Tracer,
    load: &Load,
    config: &EngineConfig,
    q: usize,
) -> Result<Exec> {
    let query = Some(q as u32);
    let plan = &load.queries[q].plan;
    let topology = load.engine.topology();
    let session = tracer.begin("engine.session", query);
    let result = (|| {
        config.validate()?;
        let het = tracer.time("core.parallelize", query, || parallelize(plan, config))?;
        tracer.time("core.check_relational_requirements", query, || {
            check_relational_requirements(&het)
        })?;
        let compile_span = tracer.begin("core.compile", query);
        let graph = compile(&het, config, topology);
        tracer.end(compile_span);
        let graph = graph?;
        tracer.count(compile_span, "stages", graph.stages.len() as f64);
        let analyze_span = tracer.begin("analysis.analyze", query);
        let report = hetex_analysis::analyze(&graph, config, topology);
        tracer.end(analyze_span);
        tracer.count(analyze_span, "diagnostics", report.diagnostics().len() as f64);
        if report.has_errors() {
            return Err(HetError::Plan(format!("static analysis rejected:\n{}", report.render())));
        }
        let clocks =
            tracer.time("topology.with_private_clocks", query, || topology.with_private_clocks());
        let executor = tracer.time("engine.executor_new", query, || {
            Executor::with_constants(clocks, Arc::clone(load.engine.probed_constants()))
        });
        let execute = tracer.begin("engine.execute", query);
        let result = executor.execute(&graph, load.engine.catalog(), config);
        tracer.end(execute);
        if let Ok(r) = &result {
            let blocks: u64 = r.per_kind.values().map(|s| s.blocks).sum();
            tracer.count(execute, "blocks", blocks as f64);
            tracer.count(execute, "sim_s", r.sim_time.as_secs_f64());
            tracer.count(execute, "bytes_transferred", r.bytes_transferred);
        }
        // What `execute_attempt` pays on return: the graph owns the query's
        // hash and group-by state.
        tracer.time("engine.teardown", query, || drop((executor, graph)));
        result.map(Exec::from)
    })();
    tracer.end(session);
    result
}

/// Execute the query list once. Untraced passes go through
/// `session().execute`; traced ones through [`traced_session`].
fn run_pass(
    load: &Load,
    config: &EngineConfig,
    gate: &mut Gate,
    passes: &mut Passes,
    mut tracer: Option<&mut Tracer>,
) {
    let start = Instant::now();
    let mut sim_s = 0.0;
    let mut counts = Counts::default();
    let mut complete = true;
    for (q, query) in load.queries.iter().enumerate() {
        let result = match &mut tracer {
            None => load.engine.session().execute(&query.plan, config).map(Exec::from),
            Some(tracer) => traced_session(tracer, load, config, q),
        };
        match gate.admit(q, &query.name, result) {
            Some(exec) => {
                passes.sim_by_query[q].push(exec.sim_s);
                sim_s += exec.sim_s;
                counts.add(&exec.counts);
            }
            None => complete = false,
        }
    }
    passes.attempted += 1;
    if complete {
        passes.wall_s.push(start.elapsed().as_secs_f64());
        passes.sim_s.push(sim_s);
        passes.counts.push(counts);
    }
}

/// Samples of the serving rounds.
#[derive(Default)]
struct Rounds {
    wall_s: Vec<f64>,
    makespan_s: Vec<f64>,
    speedup: Vec<f64>,
    latency_s: Vec<f64>,
    admission_wait_s: Vec<f64>,
    peak_admitted_bytes: u64,
    sessions_per_round: usize,
    attempted: usize,
}

fn new_server(load: &Load) -> Result<QueryServer> {
    let footprint = load.config.est_serve_footprint_bytes();
    let serve = ServeConfig::serving()
        .with_workers(SERVE_WORKERS)
        .with_admission_bytes(Some(SERVE_WORKERS as u64 * footprint));
    QueryServer::new(Arc::clone(&load.engine), serve)
}

/// One round: a fresh server, every stream's queries submitted up front,
/// every ticket waited on, shutdown. The wall-clock runs from before the
/// first submit until `shutdown()` returns.
fn serve_round(
    load: &Load,
    streams: &[Priority],
    gate: &mut Gate,
    rounds: &mut Rounds,
    mut tracer: Option<&mut Tracer>,
) {
    rounds.attempted += 1;
    rounds.sessions_per_round = streams.len() * load.queries.len();
    let mut server = match trace::time(&mut tracer, "server.new", None, || new_server(load)) {
        Ok(server) => server,
        Err(e) => return gate.admit_op(false, || format!("QueryServer::new: {e}")),
    };
    let start = Instant::now();
    let mut tickets = Vec::new();
    for priority in streams {
        for (q, query) in load.queries.iter().enumerate() {
            let ticket = trace::time(&mut tracer, "server.submit", Some(q as u32), || {
                server.session().priority(*priority).submit(query.plan.clone(), load.config.clone())
            });
            tickets.push((q, ticket));
        }
    }
    let mut complete = true;
    for (q, ticket) in tickets {
        let outcome = trace::time(&mut tracer, "server.ticket_wait", Some(q as u32), || {
            ticket.and_then(|t| t.wait()).map(Exec::from)
        });
        complete &= gate.admit(q, &load.queries[q].name, outcome).is_some();
    }
    let report = trace::time(&mut tracer, "server.shutdown", None, || server.shutdown());
    let wall_s = start.elapsed().as_secs_f64();
    let report: ServeReport = match report {
        Ok(report) => report,
        Err(e) => return gate.admit_op(false, || format!("QueryServer::shutdown: {e}")),
    };
    let peak = report.admission_peaks.iter().map(|(_, peak)| *peak).max().unwrap_or(0);
    gate.admit_op(peak <= report.admission_budget, || {
        format!("admission peak {peak} exceeds the budget {}", report.admission_budget)
    });
    rounds.peak_admitted_bytes = rounds.peak_admitted_bytes.max(peak);
    if complete && report.sessions.len() == rounds.sessions_per_round {
        rounds.wall_s.push(wall_s);
        rounds.makespan_s.push(report.makespan.as_secs_f64());
        rounds.speedup.push(report.speedup());
        for s in &report.sessions {
            rounds.latency_s.push(s.latency().as_secs_f64());
            rounds.admission_wait_s.push(s.admitted_at.as_secs_f64());
        }
    }
}

/// `VmHWM` of this process in MB (0 where `/proc` has none).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident memory per pass: `/proc/self/clear_refs` resets the
/// high-water mark to the current RSS before a pass, and the mark is read
/// after it. Where the reset is refused, the whole run's mark is the one
/// sample. A per-layer metric only: how many 2 MB blocks are in flight at
/// once is a producer/consumer race, per-pass peaks of `scan_cpu` step
/// between 200 and 430 MB in units of one query's projected columns, and no
/// statistic of them repeats within a quarter from run to run.
struct PeakRss {
    resettable: bool,
    per_pass_mb: Vec<f64>,
}

impl PeakRss {
    fn new() -> Self {
        Self { resettable: true, per_pass_mb: Vec::new() }
    }

    /// Call before a pass.
    fn reset(&mut self) {
        self.resettable = self.resettable && std::fs::write("/proc/self/clear_refs", "5").is_ok();
    }

    /// Call after a pass.
    fn sample(&mut self) {
        if self.resettable {
            self.per_pass_mb.push(peak_rss_mb());
        }
    }

    fn measured(&self) -> Measured {
        if self.per_pass_mb.is_empty() {
            measured(peak_rss_mb(), 1)
        } else {
            measured(median(&self.per_pass_mb), self.per_pass_mb.len())
        }
    }
}

fn measured(value: f64, n: usize) -> Measured {
    Measured { value, n, note: String::new() }
}

pub fn run(opts: &Opts) -> Result<Report> {
    if opts.trace {
        run_traced(opts)
    } else {
        run_untraced(opts)
    }
}

/// Clock ticks per second of `/proc/self/stat` (`USER_HZ`, 100 on Linux).
const USER_HZ: f64 = 100.0;

/// CPU seconds (user + system, every thread, exited ones included) this
/// process has used so far.
fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may hold spaces: count fields after its parenthesis.
    // `utime` and `stime` are fields 14 and 15 of the line, 12 and 13 there.
    let mut fields = stat.rsplit_once(')')?.1.split_whitespace();
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// The host clock of the end-to-end metrics: CPU seconds of this process.
/// Wall-clock on this kind of box (a two-vCPU microVM) counts whatever the
/// hypervisor steals — measured here: minute-long bursts during which a
/// 26-thread pass took 2.5x as long — and CPU time does not. It falls back to
/// wall-clock where `/proc/self/stat` cannot be read.
struct CpuClock {
    wall: Instant,
    cpu: Option<f64>,
}

impl CpuClock {
    fn start() -> Self {
        Self { wall: Instant::now(), cpu: cpu_seconds() }
    }

    fn seconds(&self) -> f64 {
        match (self.cpu, cpu_seconds()) {
            (Some(start), Some(now)) => now - start,
            _ => self.wall.elapsed().as_secs_f64(),
        }
    }
}

/// One set-up: dataset generation + registration + `Proteus::new` (the
/// topology probe) + (`serve_mixed`) the first `QueryServer::new` + one
/// warm-up pass. Returns the load and the set-up's CPU seconds. One gate
/// serves every set-up: the same seed must give the same rows every time.
fn set_up(opts: &Opts, gate: &mut Gate) -> Result<(Load, f64)> {
    let clock = CpuClock::start();
    let load = opts.workload.build(opts.seed, opts.quick)?;
    if opts.workload == Workload::ServeMixed {
        new_server(&load)?.shutdown()?;
    }
    run_pass(&load, &load.config, gate, &mut Passes::new(load.queries.len()), None);
    Ok((load, clock.seconds()))
}

/// The end-to-end run: no span is recorded anywhere.
fn run_untraced(opts: &Opts) -> Result<Report> {
    let serving = opts.workload == Workload::ServeMixed;
    let mut gate = Gate::default();
    let (load, first_setup_s) = set_up(opts, &mut gate)?;

    let min_passes = if opts.quick { 1 } else { MIN_PASSES };
    let start = Instant::now();
    let within = |attempted: usize| {
        attempted < min_passes || (!opts.quick && start.elapsed().as_secs_f64() < opts.seconds)
    };
    let clock = CpuClock::start();
    let (sim_s, tuples, n) = if serving {
        let mut rounds = Rounds::default();
        while within(rounds.attempted) {
            serve_round(&load, &SERVE_STREAMS, &mut gate, &mut rounds, None);
        }
        let tuples = rounds.sessions_per_round * load.fact_rows * rounds.attempted;
        (median(&rounds.makespan_s), tuples, rounds.attempted)
    } else {
        let mut passes = Passes::new(load.queries.len());
        while within(passes.attempted) {
            run_pass(&load, &load.config, &mut gate, &mut passes, None);
        }
        (passes.sim_s(), load.queries.len() * load.fact_rows * passes.attempted, passes.attempted)
    };
    let cpu_s = clock.seconds();
    gate.check_oracle(&load, None);
    // The other set-ups come after the passes, which so always run in the
    // allocator state one set-up leaves behind.
    drop(load);
    let mut setup_s = vec![first_setup_s];
    for _ in 1..if opts.quick { 1 } else { SETUPS } {
        setup_s.push(set_up(opts, &mut gate)?.1);
    }

    let mut metrics = Metrics::new();
    metrics.insert("sim_s", measured(sim_s, n));
    metrics.insert(
        "host_mtuples_per_cpu_s",
        measured(if cpu_s > 0.0 { tuples as f64 / cpu_s / 1e6 } else { 0.0 }, n),
    );
    metrics.insert("setup_s", measured(median(&setup_s), setup_s.len()));
    Ok(Report { attempted: gate.attempted, failed: gate.failed, failures: gate.failures, metrics })
}

/// Share of `--seconds` the traced run spends on alternating passes, and on
/// serving rounds (`serve_mixed` only; the others serve one round).
const TRACED_PASS_SHARE: f64 = 0.6;
const TRACED_SERVE_SHARE: f64 = 0.25;

fn sum(values: &[f64]) -> f64 {
    values.iter().sum()
}

/// The per-layer run.
fn run_traced(opts: &Opts) -> Result<Report> {
    let mut tracer = Tracer::new();
    let load = tracer
        .time("benchmark.build_workload", None, || opts.workload.build(opts.seed, opts.quick))?;
    let mut gate = Gate::default();
    let mut m = Metrics::new();

    let (traced, execute_ns_per_pass) = session_layers(opts, &load, &mut tracer, &mut gate, &mut m);
    server_layer(opts, &load, &mut tracer, &mut gate, &mut m);
    fixed_cost(opts, &mut tracer, &mut gate, &mut m)?;
    if opts.workload == Workload::HybridPaper {
        paper_ratios(&load, &traced, &mut gate, &mut m, opts.quick)?;
    } else {
        for (name, ..) in crate::manifest::PER_LAYER.iter().filter(|m| m.0.starts_with("paper.")) {
            m.insert(name, measured(0.0, 0));
        }
    }

    let mut probes = Probes {
        tracer: &mut tracer,
        batches: if opts.quick { 2 } else { 30 },
        quick: opts.quick,
        out: Metrics::new(),
    };
    probes.run()?;
    // An estimate, not a measurement: blocks x the three unit costs a block
    // pays on its way to a consumer, as a share of the execute wall-clock.
    let unit_ns: f64 = ["core.route_ns", "core.queue_push_pop_ns", "storage.lease_cycle_ns"]
        .iter()
        .map(|name| probes.out[name].value)
        .sum();
    let blocks = &m["engine.blocks_processed"];
    let share = measured(blocks.value * unit_ns / execute_ns_per_pass.max(1.0), blocks.n);
    m.insert("engine.control_plane_share_est", share);
    m.append(&mut probes.out);

    let mark = tracer.mark();
    gate.check_oracle(&load, Some(&mut tracer));
    let oracle_ns = tracer.durations("reference.execute", mark);
    m.insert("reference.execute_ms", measured(sum(&oracle_ns) / 1e6, oracle_ns.len()));
    m.insert("trace.spans", measured(tracer.spans().len() as f64, 1));

    std::fs::create_dir_all(&opts.out)
        .and_then(|()| {
            let path = opts.out.join(format!("trace_{}.json", opts.workload.name()));
            std::fs::write(path, tracer.chrome_json(opts.workload.name()))
        })
        .map_err(|e| HetError::Execution(format!("writing the trace to {:?}: {e}", opts.out)))?;
    println!("{:<42} {:>7} {:>12} {:>12}", "span", "calls", "total_ms", "self_ms");
    for (name, row) in tracer.layer_table() {
        println!(
            "{name:<42} {:>7} {:>12.3} {:>12.3}",
            row.calls,
            row.total_ns as f64 / 1e6,
            row.self_ns as f64 / 1e6
        );
    }
    Ok(Report {
        attempted: gate.attempted,
        failed: gate.failed,
        failures: gate.failures,
        metrics: m,
    })
}

/// Alternate untraced and traced passes of the workload's queries: the
/// traced ones feed the plan-side and `engine.*` metrics, each adjacent pair
/// gives a tracing-overhead sample. Returns the traced passes and the
/// execute wall-clock of one pass in nanoseconds.
fn session_layers(
    opts: &Opts,
    load: &Load,
    tracer: &mut Tracer,
    gate: &mut Gate,
    m: &mut Metrics,
) -> (Passes, f64) {
    let queries = load.queries.len();
    let mut plain = Passes::new(queries);
    let mut traced = Passes::new(queries);
    let mut rss = PeakRss::new();
    run_pass(load, &load.config, gate, &mut Passes::new(queries), None);
    let mark = tracer.mark();
    let start = Instant::now();
    let min_passes = if opts.quick { 1 } else { MIN_PASSES };
    while traced.attempted < min_passes
        || (!opts.quick && start.elapsed().as_secs_f64() < opts.seconds * TRACED_PASS_SHARE)
    {
        // Whichever goes second finds the allocator and caches warmer:
        // alternate who that is.
        let traced_first = traced.attempted % 2 == 1;
        if traced_first {
            run_pass(load, &load.config, gate, &mut traced, Some(&mut *tracer));
        }
        rss.reset();
        run_pass(load, &load.config, gate, &mut plain, None);
        rss.sample();
        if !traced_first {
            run_pass(load, &load.config, gate, &mut traced, Some(&mut *tracer));
        }
    }

    let ns = |name: &str| tracer.durations(name, mark);
    let (session, execute) = (ns("engine.session"), ns("engine.execute"));
    let n = session.len();
    let session_ns = sum(&session).max(1.0);
    // Everything a session does ahead of `Executor::execute`.
    let plan_side = [
        "core.parallelize",
        "core.check_relational_requirements",
        "core.compile",
        "analysis.analyze",
        "topology.with_private_clocks",
        "engine.executor_new",
    ];
    let plan_ns: f64 = plan_side.iter().map(|name| sum(&ns(name))).sum();
    let median_of = |name: &str, per: f64| measured(median(&ns(name)) / per, n);
    let pass_ms: Vec<f64> = plain.wall_s.iter().map(|s| s * 1e3).collect();
    let session_ms: Vec<f64> = session.iter().map(|ns| ns / 1e6).collect();
    m.insert("engine.session_ms_p50", measured(median(&session_ms), n));
    m.insert("engine.session_ms_p90", tail_measured(&session_ms));
    m.insert("engine.pass_ms_p50", measured(median(&pass_ms), pass_ms.len()));
    m.insert("engine.pass_ms_p90", tail_measured(&pass_ms));
    m.insert("engine.execute_ms_p50", measured(median(&execute) / 1e6, n));
    m.insert("engine.execute_share", measured(sum(&execute) / session_ns, n));
    m.insert("engine.plan_share", measured(plan_ns / session_ns, n));
    m.insert("engine.teardown_share", measured(sum(&ns("engine.teardown")) / session_ns, n));
    m.insert("engine.executor_new_us", median_of("engine.executor_new", 1e3));
    m.insert("topology.private_clocks_us", median_of("topology.with_private_clocks", 1e3));
    m.insert("core.parallelize_us", median_of("core.parallelize", 1e3));
    m.insert("core.compile_us", median_of("core.compile", 1e3));
    m.insert("analysis.analyze_us", median_of("analysis.analyze", 1e3));
    let stages = tracer.counts("core.compile", "stages", mark);
    m.insert("core.stages_per_plan", measured(sum(&stages) / n.max(1) as f64, n));
    let diagnostics = tracer.counts("analysis.analyze", "diagnostics", mark);
    m.insert("analysis.diagnostics", measured(sum(&diagnostics), n));

    // `QueryStats` counts of one pass: medians over the traced passes.
    let passes = traced.counts.len();
    let per_pass = |f: &dyn Fn(&Counts) -> f64| {
        measured(median(&traced.counts.iter().map(f).collect::<Vec<_>>()), passes)
    };
    let blocks = per_pass(&|c| c.blocks as f64);
    let execute_ns_per_pass = sum(&execute) / traced.attempted.max(1) as f64;
    m.insert(
        "engine.host_us_per_block",
        measured(execute_ns_per_pass / 1e3 / blocks.value.max(1.0), passes),
    );
    m.insert("engine.blocks_processed", blocks);
    m.insert("engine.cpu_busy_sim_s", per_pass(&|c| c.cpu_busy_ns as f64 / 1e9));
    m.insert("engine.gpu_busy_sim_s", per_pass(&|c| c.gpu_busy_ns as f64 / 1e9));
    m.insert("engine.blocks_stolen", per_pass(&|c| c.stolen as f64));
    m.insert("engine.remote_control_acquisitions", per_pass(&|c| c.remote_acquisitions as f64));
    m.insert("engine.bytes_transferred", per_pass(&|c| c.bytes_transferred));
    m.insert("engine.host_peak_rss_mb", rss.measured());
    let staging_peak = traced.counts.iter().map(|c| c.staging_peak).max().unwrap_or(0);
    m.insert("storage.peak_leased_bytes", measured(staging_peak as f64, passes));

    let pass_sims: Vec<f64> = plain.sim_s.iter().chain(&traced.sim_s).copied().collect();
    let range = pass_sims.iter().copied().fold(f64::MIN, f64::max)
        - pass_sims.iter().copied().fold(f64::MAX, f64::min);
    let sim_median = median(&pass_sims);
    m.insert(
        "engine.sim_spread_pct",
        measured(if sim_median > 0.0 { range / sim_median * 100.0 } else { 0.0 }, pass_sims.len()),
    );
    // Each traced pass against the untraced pass next to it, so that drift of
    // the box between pairs cancels.
    let overhead: Vec<f64> = plain
        .wall_s
        .iter()
        .zip(&traced.wall_s)
        .map(|(plain, traced)| (traced / plain - 1.0) * 100.0)
        .collect();
    m.insert("trace.overhead_pct", measured(median(&overhead), overhead.len()));
    (traced, execute_ns_per_pass)
}

/// The serving layer: `serve_mixed`'s own rounds, one round of a single
/// Normal stream of the workload's queries elsewhere.
fn server_layer(opts: &Opts, load: &Load, tracer: &mut Tracer, gate: &mut Gate, m: &mut Metrics) {
    let serving = opts.workload == Workload::ServeMixed;
    let streams: &[Priority] = if serving { &SERVE_STREAMS } else { &[Priority::Normal] };
    let mut rounds = Rounds::default();
    let mark = tracer.mark();
    let start = Instant::now();
    while rounds.attempted < 1
        || (serving
            && !opts.quick
            && (rounds.attempted < MIN_PASSES
                || start.elapsed().as_secs_f64() < opts.seconds * TRACED_SERVE_SHARE))
    {
        serve_round(load, streams, gate, &mut rounds, Some(&mut *tracer));
    }
    let n_rounds = rounds.wall_s.len();
    let n_sessions = rounds.latency_s.len();
    let host = |name: &str, per: f64| {
        let ns = tracer.durations(name, mark);
        measured(median(&ns) / per, ns.len())
    };
    m.insert("server.new_ms", host("server.new", 1e6));
    m.insert("server.submit_us", host("server.submit", 1e3));
    m.insert("server.ticket_wait_ms_p50", host("server.ticket_wait", 1e6));
    m.insert("server.shutdown_ms", host("server.shutdown", 1e6));
    let round_s = median(&rounds.wall_s);
    let qps = if round_s > 0.0 { rounds.sessions_per_round as f64 / round_s } else { 0.0 };
    m.insert("server.host_qps", measured(qps, n_rounds));
    m.insert("server.sim_makespan_s", measured(median(&rounds.makespan_s), n_rounds));
    m.insert("server.sim_latency_s_p50", measured(median(&rounds.latency_s), n_sessions));
    m.insert("server.sim_latency_s_p90", tail_measured(&rounds.latency_s));
    m.insert(
        "server.admission_wait_sim_s_p50",
        measured(median(&rounds.admission_wait_s), n_sessions),
    );
    m.insert("server.peak_admitted_bytes", measured(rounds.peak_admitted_bytes as f64, n_rounds));
    m.insert("server.sim_speedup_vs_serial", measured(median(&rounds.speedup), n_rounds));
}

/// Fixed cost of a query: the same queries and configuration over
/// single-block tables, where nothing but the fixed cost (thread spawn,
/// router init, dimension builds) is left of `Executor::execute`.
fn fixed_cost(opts: &Opts, tracer: &mut Tracer, gate: &mut Gate, m: &mut Metrics) -> Result<()> {
    let tiny = opts.workload.build(opts.seed, true)?;
    let mut tiny_gate = Gate::default();
    let mark = tracer.mark();
    for _ in 0..if opts.quick { 1 } else { 5 } {
        let mut passes = Passes::new(tiny.queries.len());
        run_pass(&tiny, &tiny.config, &mut tiny_gate, &mut passes, Some(&mut *tracer));
    }
    tiny_gate.check_oracle(&tiny, None);
    gate.attempted += tiny_gate.attempted;
    gate.failed += tiny_gate.failed;
    gate.failures.append(&mut tiny_gate.failures);
    let execute = tracer.durations("engine.execute", mark);
    m.insert("engine.execute_fixed_ms", measured(median(&execute) / 1e6, execute.len()));
    Ok(())
}

/// A `_p90` metric: the tail at the percentile the sample supports.
fn tail_measured(values: &[f64]) -> Measured {
    let p = crate::stats::supported_tail(values.len());
    Measured { value: tail(values), n: values.len(), note: format!("at p{:.0}", p * 100.0) }
}

/// The paper's ratios on `hybrid_paper`: hybrid against CPU-only(24),
/// GPU-only(2) and the two modelled commercial systems, all in simulated
/// seconds, each beside the range the paper prints. The modelled server has
/// no hardware reference in this repo: these ratios are its only validation.
fn paper_ratios(
    load: &Load,
    hybrid: &Passes,
    gate: &mut Gate,
    m: &mut Metrics,
    quick: bool,
) -> Result<()> {
    let queries = load.queries.len();
    let passes = if quick { 1 } else { 3 };
    let mut side = |base: EngineConfig| {
        let config = load.config_like(base);
        let mut samples = Passes::new(queries);
        for _ in 0..passes {
            run_pass(load, &config, gate, &mut samples, None);
        }
        samples
    };
    let cpu = side(EngineConfig::cpu_only(24));
    let gpu = side(EngineConfig::gpu_only(2));
    if hybrid.min_samples() == 0 || cpu.min_samples() == 0 || gpu.min_samples() == 0 {
        return Err(HetError::Execution("a paper comparison side has no passing run".into()));
    }
    let med = |p: &Passes, q: usize| median(&p.sim_by_query[q]);
    let topology = load.engine.topology();
    let catalog = load.engine.catalog();
    let dbms_c = DbmsC::new(Arc::clone(topology), 24);
    let dbms_g = DbmsG::new(Arc::clone(topology), 2, DataPlacement::CpuResident);
    let (mut efficiency, mut over_cpu, mut over_gpu) = (Vec::new(), Vec::new(), Vec::new());
    let (mut over_c, mut over_g) = (Vec::new(), Vec::new());
    for (q, query) in load.queries.iter().enumerate() {
        let (h, c, g) = (med(hybrid, q), med(&cpu, q), med(&gpu, q));
        efficiency.push((1.0 / h) / (1.0 / c + 1.0 / g));
        over_cpu.push(c / h);
        over_gpu.push(g / h);
        let weights = load.config_like(EngineConfig::cpu_only(24));
        over_c.push(dbms_c.execute(&query.plan, catalog, &weights)?.seconds() / h);
        // DBMS G fails Q2.2 and Q4.3 by design (the paper reports both).
        let weights = load.config_like(EngineConfig::gpu_only(2));
        if let Ok(outcome) = dbms_g.execute(&query.plan, catalog, &weights) {
            over_g.push(outcome.seconds() / h);
        }
    }
    let max = |v: &[f64]| v.iter().copied().fold(0.0, f64::max);
    let mut put = |name, value, n, note: &str| {
        m.insert(name, Measured { value, n, note: note.to_string() });
    };
    let mean = efficiency.iter().sum::<f64>() / queries as f64;
    put("paper.sim_hybrid_efficiency", mean, queries, "paper: 0.885");
    put("paper.hybrid_over_cpu_geomean", geomean(&over_cpu), queries, "");
    put("paper.hybrid_over_gpu_geomean", geomean(&over_gpu), queries, "");
    put("paper.hybrid_over_dbms_c_geomean", geomean(&over_c), queries, "paper: 1.5-5.1x");
    put("paper.hybrid_over_dbms_c_max", max(&over_c), queries, "paper: 5.1x");
    put("paper.hybrid_over_dbms_g_geomean", geomean(&over_g), over_g.len(), "paper: 3.4-11.4x");
    put("paper.hybrid_over_dbms_g_max", max(&over_g), over_g.len(), "paper: 11.4x");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Quick options writing traces to a directory of the calling test's own.
    pub(crate) fn quick(workload: Workload, seed: u64, trace: bool, test: &str) -> Opts {
        let out =
            std::env::temp_dir().join(format!("hetex-benchmark-{}-{test}", std::process::id()));
        Opts { workload, seed, seconds: 0.1, trace, out, quick: true }
    }

    #[test]
    fn seeds_give_different_data_and_both_pass_the_oracle() {
        for workload in Workload::ALL {
            let (table, column) = match workload {
                Workload::JoinLargeCpu => ("fact", "key"),
                _ => ("lineorder", "lo_quantity"),
            };
            let column_of = |seed| {
                let load = workload.build(seed, true).unwrap();
                load.engine.catalog().get(table).unwrap().column(column).unwrap()
            };
            assert_eq!(column_of(42), column_of(42), "{workload:?}: a seed fixes the data");
            assert_ne!(column_of(42), column_of(43), "{workload:?}: seeds must differ");
            for seed in [42, 43] {
                let report = run(&quick(workload, seed, false, "seeds")).unwrap();
                assert!(report.attempted > 0);
                assert_eq!(report.failed, 0, "{workload:?} seed {seed}: {:?}", report.failures);
            }
        }
    }

    #[test]
    fn gate_counts_errors_leaks_and_row_mismatches() {
        let exec = |rows: Vec<Vec<i64>>, leaked_bytes| {
            Ok(Exec { rows, sim_s: 1.0, leaked_bytes, counts: Counts::default() })
        };
        let mut gate = Gate::default();
        assert!(gate.admit(0, "q", exec(vec![vec![1]], 0)).is_some());
        assert!(gate.admit(0, "q", exec(vec![vec![1]], 0)).is_some());
        assert!(gate.admit(0, "q", exec(vec![vec![2]], 0)).is_none(), "rows differ");
        assert!(gate.admit(0, "q", exec(vec![vec![1]], 64)).is_none(), "leak");
        assert!(gate.admit(0, "q", Err(HetError::Execution("boom".into()))).is_none());
        gate.admit_op(false, || "peak over budget".into());
        assert_eq!((gate.attempted, gate.failed, gate.passed[0]), (6, 4, 2));
        assert_eq!(gate.failures.len(), 4);
    }

    #[test]
    fn an_oracle_mismatch_fails_every_execution_of_the_query() {
        let load = Workload::JoinLargeCpu.build(42, true).unwrap();
        let mut gate = Gate::default();
        let mut passes = Passes::new(load.queries.len());
        run_pass(&load, &load.config, &mut gate, &mut passes, None);
        run_pass(&load, &load.config, &mut gate, &mut passes, None);
        assert_eq!((gate.attempted, gate.failed), (4, 0));
        // Corrupt what the engine "returned" for the first query.
        gate.expected[0].as_mut().unwrap()[0][0] += 1;
        gate.check_oracle(&load, None);
        assert_eq!(gate.failed, 2, "both executions of the corrupted query fail");
    }

    #[test]
    fn traced_run_writes_the_trace_and_accounts_for_the_session() {
        let opts = quick(Workload::JoinCpu, 42, true, "trace");
        let report = run(&opts).unwrap();
        assert_eq!(report.failed, 0, "{:?}", report.failures);
        let shares = report.metrics["engine.plan_share"].value
            + report.metrics["engine.execute_share"].value;
        assert!((0.95..=1.0).contains(&shares), "plan + execute = {shares}");
        let trace = std::fs::read_to_string(opts.out.join("trace_join_cpu.json")).unwrap();
        assert!(trace.contains("\"name\":\"engine.execute\"") && trace.ends_with("]}\n"));
        std::fs::remove_dir_all(&opts.out).unwrap();
    }
}
