//! A/B harness for the fault-tolerant execution ladder: injected device
//! faults vs the healthy baseline, plus the cost of having the fault
//! machinery armed at all.
//!
//! Four workloads, all on the join+reduce acceptance plan with stealing
//! disabled (so the takeover drain — not PR 3's stealing — is the rescue
//! path under test):
//!
//! * **healthy** — no fault plan; `FaultConfig::default()` (armed) vs
//!   `FaultConfig::disabled()`. Without an injected plan the executor never
//!   constructs fault state, so the armed run must cost ≤ 2%. This pair is
//!   deterministic and is the regression-gated baseline.
//! * **gpu_loss (skewed)** — one GPU aborts permanently after its first
//!   block; the quarantine + takeover drain re-executes its backlog on the
//!   surviving devices. Rows must be byte-identical to the healthy run.
//! * **transient (skewed)** — every kernel invocation on one GPU fails with
//!   p=0.3 for the whole run; bounded in-place retry absorbs the failures
//!   at ≤ 10% simulated overhead with byte-identical rows.
//! * **total_gpu_loss (skewed)** — a GPU-only query loses *both* GPUs at
//!   t=0: the engine's degraded-restart ladder excludes them one by one and
//!   retargets the query to CPU-only, still with exact rows.
//!
//! The skewed workloads' timings depend on where in the stream the fault
//! lands (wall-clock sensitive), so — like `steal_ab`/`calib_ab` — their
//! values are reported but not regression-gated; the real acceptance bars
//! live in the `fault_ab` bin and in this module's tests.
//!
//! `cargo run --release -p hetex-bench --bin fault_ab [out_dir]` emits
//! `BENCH_fault.json`.

use crate::workload::join_reduce_engine_on;
use hetex_common::{EngineConfig, FaultConfig, Result, StealPolicy};
use hetex_topology::{FaultPlan, ServerTopology, SimTime};

/// Transient failure probability of the flaky GPU in the transient workload.
pub const TRANSIENT_P: f64 = 0.3;

/// One faulted-vs-baseline measurement.
#[derive(Debug, Clone)]
pub struct FaultAbRow {
    /// Workload label.
    pub workload: String,
    /// Simulated seconds of the faulted (or fault-armed) run.
    pub faulted_s: f64,
    /// Simulated seconds of the healthy baseline run.
    pub baseline_s: f64,
    /// Whether both runs produced byte-identical result rows.
    pub rows_identical: bool,
    /// Blocks re-executed on a surviving sibling after a quarantine.
    pub recovered_blocks: u64,
    /// Transient kernel failures absorbed by in-place retry.
    pub transient_retries: u64,
    /// Degraded restarts (device-loss replans) the faulted run needed.
    pub degraded_restarts: usize,
    /// Staging bytes still leased when the faulted run finished (the leak
    /// invariant: must be zero).
    pub staging_leaked_bytes: u64,
}

impl FaultAbRow {
    /// Simulated-time overhead of the faulted run over the baseline, in
    /// percent (negative = the faulted run was faster).
    pub fn overhead_pct(&self) -> f64 {
        if self.baseline_s <= 0.0 {
            return 0.0;
        }
        (self.faulted_s / self.baseline_s - 1.0) * 100.0
    }
}

/// The full fault A/B report.
#[derive(Debug, Clone, Default)]
pub struct FaultAbReport {
    /// Every measured workload.
    pub rows: Vec<FaultAbRow>,
}

impl FaultAbReport {
    /// Look up a row by workload label.
    pub fn get(&self, workload: &str) -> Option<&FaultAbRow> {
        self.rows.iter().find(|r| r.workload == workload)
    }

    /// Serialize as pretty-printed JSON (hand-rolled; the build has no JSON
    /// dependency).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"benchmark\": \"fault_tolerance_ab\",\n");
        out.push_str("  \"metric\": \"simulated_seconds\",\n  \"workloads\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"workload\": \"{}\", \"faulted_s\": {:.9}, \"baseline_s\": {:.9}, \
                 \"overhead_pct\": {:.2}, \"rows_identical\": {}, \"recovered_blocks\": {}, \
                 \"transient_retries\": {}, \"degraded_restarts\": {}, \
                 \"staging_leaked_bytes\": {}}}{}\n",
                row.workload,
                row.faulted_s,
                row.baseline_s,
                row.overhead_pct(),
                row.rows_identical,
                row.recovered_blocks,
                row.transient_retries,
                row.degraded_restarts,
                row.staging_leaked_bytes,
                if i + 1 < self.rows.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// The shared configuration: the calib_ab acceptance setup (same scale
/// extrapolation and block granularity) with stealing disabled, so the
/// quarantine drain is the only rescue path.
fn base_config() -> EngineConfig {
    let mut config = EngineConfig::hybrid(8, 2);
    config.scale_weight = 20_000.0;
    config.block_capacity = 2048;
    config.steal_policy = StealPolicy::Disabled;
    config.with_table_weight("dim", 2_500.0)
}

/// Run the faulted topology against the healthy paper server with the same
/// configuration and compare.
fn fault_ab_on(
    plan: FaultPlan,
    config: &EngineConfig,
    fact_rows: usize,
    workload: String,
) -> Result<FaultAbRow> {
    let faulted_topology = ServerTopology::paper_server().with_fault_plan(plan)?;
    let (faulted_engine, rel) = join_reduce_engine_on(faulted_topology, fact_rows)?;
    let (healthy_engine, _) = join_reduce_engine_on(ServerTopology::paper_server(), fact_rows)?;
    let faulted = faulted_engine.session().execute(&rel, config)?;
    let baseline = healthy_engine.session().execute(&rel, config)?;
    Ok(FaultAbRow {
        workload,
        faulted_s: faulted.seconds(),
        baseline_s: baseline.seconds(),
        rows_identical: faulted.rows == baseline.rows,
        recovered_blocks: faulted.stats.recovered_blocks,
        transient_retries: faulted.stats.transient_retries,
        degraded_restarts: faulted.stats.degraded_restarts,
        staging_leaked_bytes: faulted.stats.staging_leaked_bytes,
    })
}

/// The healthy control: no fault plan, fault machinery armed vs disabled.
/// Without a plan the executor constructs no fault state, so the armed run
/// must be free — this is the pair the regression gate prices.
pub fn healthy_fault_ab(fact_rows: usize) -> Result<FaultAbRow> {
    let (engine, rel) = join_reduce_engine_on(ServerTopology::paper_server(), fact_rows)?;
    let config = base_config();
    let armed =
        engine.session().execute(&rel, &config.clone().with_fault(FaultConfig::default()))?;
    let disabled = engine.session().execute(&rel, &config.with_fault(FaultConfig::disabled()))?;
    Ok(FaultAbRow {
        workload: format!("join_reduce_{}k_healthy", fact_rows / 1000),
        faulted_s: armed.seconds(),
        baseline_s: disabled.seconds(),
        rows_identical: armed.rows == disabled.rows,
        recovered_blocks: armed.stats.recovered_blocks,
        transient_retries: armed.stats.transient_retries,
        degraded_restarts: armed.stats.degraded_restarts,
        staging_leaked_bytes: armed.stats.staging_leaked_bytes,
    })
}

/// One GPU aborts permanently after its first block; quarantine + takeover
/// drain must save the run with byte-identical rows.
pub fn gpu_loss_fault_ab(fact_rows: usize) -> Result<FaultAbRow> {
    let gpu = ServerTopology::paper_server().gpus()[1];
    fault_ab_on(
        FaultPlan::new().abort_device(gpu, SimTime::from_nanos(1)),
        &base_config(),
        fact_rows,
        format!("join_reduce_{}k_gpu_loss_skewed", fact_rows / 1000),
    )
}

/// Every kernel invocation on one GPU fails with [`TRANSIENT_P`] for the
/// whole run; bounded in-place retry must absorb it at ≤ 10% overhead.
pub fn transient_fault_ab(fact_rows: usize) -> Result<FaultAbRow> {
    let gpu = ServerTopology::paper_server().gpus()[0];
    fault_ab_on(
        FaultPlan::new().transient_window(
            gpu,
            SimTime::ZERO,
            SimTime::from_millis(600_000),
            TRANSIENT_P,
            0xfau64,
        ),
        &base_config(),
        fact_rows,
        format!("join_reduce_{}k_transient_skewed", fact_rows / 1000),
    )
}

/// A GPU-only query loses both GPUs at t=0; the engine's degraded-restart
/// ladder must retarget it to CPU-only with exact rows. The baseline is the
/// healthy GPU-only run, so the reported overhead is the honest price of
/// falling back to one CPU core.
pub fn total_gpu_loss_fault_ab(fact_rows: usize) -> Result<FaultAbRow> {
    let topology = ServerTopology::paper_server();
    let gpus = topology.gpus();
    let mut config = EngineConfig::gpu_only(2);
    config.scale_weight = 20_000.0;
    config.block_capacity = 2048;
    config.steal_policy = StealPolicy::Disabled;
    let config = config.with_table_weight("dim", 2_500.0);
    fault_ab_on(
        FaultPlan::new().abort_device(gpus[0], SimTime::ZERO).abort_device(gpus[1], SimTime::ZERO),
        &config,
        fact_rows,
        format!("join_reduce_{}k_total_gpu_loss_skewed", fact_rows / 1000),
    )
}

/// Of `runs` repeated measurements, the one with the median overhead — where
/// in the stream a fault lands (and so how much backlog needs draining) is
/// wall-clock sensitive, and the acceptance bars should gate the typical
/// outcome, not a scheduler tail.
fn median_by_overhead(mut runs: Vec<FaultAbRow>) -> FaultAbRow {
    runs.sort_by(|a, b| {
        a.overhead_pct().partial_cmp(&b.overhead_pct()).unwrap_or(std::cmp::Ordering::Equal)
    });
    runs.swap_remove(runs.len() / 2)
}

/// Run the A/B suite: the gated healthy control plus the three injected
/// fault scenarios, each reported as the median of three measurements.
pub fn run_all(fact_rows: usize) -> Result<FaultAbReport> {
    let mut rows = Vec::new();
    for scenario in [healthy_fault_ab, gpu_loss_fault_ab, transient_fault_ab] {
        rows.push(median_by_overhead(
            (0..3).map(|_| scenario(fact_rows)).collect::<Result<Vec<_>>>()?,
        ));
    }
    rows.push(median_by_overhead(
        (0..3).map(|_| total_gpu_loss_fault_ab(fact_rows / 2)).collect::<Result<Vec<_>>>()?,
    ));
    Ok(FaultAbReport { rows })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpu_loss_recovers_byte_identical_rows_without_stealing() {
        let row = gpu_loss_fault_ab(200_000).unwrap();
        assert!(row.rows_identical, "takeover drain must preserve rows exactly");
        assert!(row.recovered_blocks > 0, "the dead GPU's backlog was never drained");
        assert_eq!(row.staging_leaked_bytes, 0, "recovery must not leak leases");
        assert_eq!(row.degraded_restarts, 0, "executor-level recovery needs no restart");
    }

    #[test]
    fn transient_faults_cost_under_ten_percent() {
        let row = transient_fault_ab(200_000).unwrap();
        assert!(row.rows_identical, "in-place retry must preserve rows exactly");
        assert!(row.transient_retries > 0, "p=0.3 over ~100 invocations never failed");
        assert!(
            row.overhead_pct() <= 10.0,
            "transient recovery cost {:.1}% > 10% ({}s vs {}s)",
            row.overhead_pct(),
            row.faulted_s,
            row.baseline_s
        );
    }

    #[test]
    fn losing_both_gpus_degrades_to_cpu_with_exact_rows() {
        let row = total_gpu_loss_fault_ab(100_000).unwrap();
        assert!(row.rows_identical, "degraded restart must preserve rows exactly");
        assert!(row.degraded_restarts >= 1, "a GPU-only query with no GPUs must restart");
    }

    #[test]
    fn armed_fault_machinery_is_free_without_a_plan() {
        // A 5% sanity bar on the median of three runs: each run's simulated
        // times follow host-thread interleaving, so one run alone can miss
        // it. The tight ≤ 2% bar is the bin's, on the same median.
        let row = median_by_overhead(
            (0..3).map(|_| healthy_fault_ab(200_000)).collect::<Result<Vec<_>>>().unwrap(),
        );
        assert!(row.rows_identical);
        assert_eq!(row.recovered_blocks + row.transient_retries, 0);
        assert!(
            row.overhead_pct().abs() <= 5.0,
            "armed fault machinery cost {:.1}% on a healthy run",
            row.overhead_pct()
        );
    }

    #[test]
    fn report_json_shape() {
        let report = FaultAbReport {
            rows: vec![FaultAbRow {
                workload: "w".into(),
                faulted_s: 1.2,
                baseline_s: 1.0,
                rows_identical: true,
                recovered_blocks: 7,
                transient_retries: 3,
                degraded_restarts: 1,
                staging_leaked_bytes: 0,
            }],
        };
        let json = report.to_json();
        assert!(json.contains("\"overhead_pct\": 20.00"));
        assert!(json.contains("\"recovered_blocks\": 7"));
        assert!(json.contains("\"degraded_restarts\": 1"));
        assert!(report.get("w").is_some());
    }
}
