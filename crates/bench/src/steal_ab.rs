//! A/B harness: adaptive re-routing (work stealing) on vs off.
//!
//! Two workloads, both the join+reduce hybrid acceptance plan in pipelined
//! mode:
//!
//! * **skewed** — the paper server with one GPU marked as a hidden 8×
//!   straggler (`ServerTopology::with_device_slowdown`): work charged to it
//!   takes 8× its modeled time while routing keeps pricing the nominal
//!   profile, so its queue backs up exactly the way an unforeseen slowdown
//!   (thermal throttling, a co-tenant) would in a real engine. Stealing must
//!   recover ≥ 10% of end-to-end simulated time with byte-identical rows.
//! * **unskewed** — the healthy paper server, where stealing must cost ≤ 2%.
//!
//! Both run with **slowdown feedback off**, so stealing is the only defence
//! — the mirror image of `calib_ab`, which disables stealing to isolate
//! feedback routing. With both on, how much backlog is left to steal depends
//! on how many blocks the router queues behind the straggler before its
//! first 8× observation lands, i.e. on how fast the host ran that first
//! kernel: a wall-clock race, not a property of either mechanism.
//!
//! `cargo run --release -p hetex-bench --bin steal_ab` emits
//! `BENCH_steal.json`.

use crate::workload::join_reduce_engine_on;
use hetex_common::{CalibrationConfig, EngineConfig, Result, StealPolicy};
use hetex_topology::ServerTopology;

/// Hidden slowdown factor of the straggler GPU in the skewed workload.
pub const SKEW_FACTOR: f64 = 8.0;

/// One steal-on vs steal-off measurement.
#[derive(Debug, Clone)]
pub struct StealAbRow {
    /// Workload label.
    pub workload: String,
    /// Simulated seconds with `StealPolicy::TailMostLoaded`.
    pub steal_s: f64,
    /// Simulated seconds with `StealPolicy::Disabled`.
    pub no_steal_s: f64,
    /// Blocks adaptively re-routed in the stealing run (all stages).
    pub blocks_stolen: u64,
    /// Whether both runs produced byte-identical result rows.
    pub rows_identical: bool,
}

impl StealAbRow {
    /// Relative improvement of stealing over binding, in percent (negative =
    /// stealing cost time).
    pub fn improvement_pct(&self) -> f64 {
        if self.no_steal_s <= 0.0 {
            return 0.0;
        }
        (1.0 - self.steal_s / self.no_steal_s) * 100.0
    }
}

/// The full steal A/B report.
#[derive(Debug, Clone, Default)]
pub struct StealAbReport {
    /// Every measured workload.
    pub rows: Vec<StealAbRow>,
}

impl StealAbReport {
    /// Look up a row by workload label.
    pub fn get(&self, workload: &str) -> Option<&StealAbRow> {
        self.rows.iter().find(|r| r.workload == workload)
    }

    /// Serialize as pretty-printed JSON (hand-rolled; the build has no JSON
    /// dependency).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"benchmark\": \"work_stealing_ab\",\n");
        out.push_str("  \"metric\": \"simulated_seconds\",\n  \"workloads\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"workload\": \"{}\", \"steal_s\": {:.9}, \"no_steal_s\": {:.9}, \
                 \"improvement_pct\": {:.2}, \"blocks_stolen\": {}, \"rows_identical\": {}}}{}\n",
                row.workload,
                row.steal_s,
                row.no_steal_s,
                row.improvement_pct(),
                row.blocks_stolen,
                row.rows_identical,
                if i + 1 < self.rows.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// The acceptance configuration shared by both workloads. The weights model
/// a paper-scale volume (~48 GB fact side, a dimension that scales more
/// slowly) on the physically small tables — without them a run is dominated
/// by the fixed ~10 ms router initialization and the A/B measures nothing.
/// The other join+reduce A/B suites use the same extrapolation.
fn base_config() -> EngineConfig {
    let mut config = EngineConfig::hybrid(8, 2)
        .with_calibration(CalibrationConfig::default().with_slowdown_feedback(false));
    config.scale_weight = 20_000.0;
    config.block_capacity = 2048;
    config.with_table_weight("dim", 2_500.0)
}

/// Run the join+reduce plan on `topology` with stealing on and off.
fn steal_ab_on(
    topology: std::sync::Arc<ServerTopology>,
    fact_rows: usize,
    workload: String,
) -> Result<StealAbRow> {
    let (engine, plan) = join_reduce_engine_on(topology, fact_rows)?;
    let config = base_config();
    let stealing = engine
        .session()
        .execute(&plan, &config.clone().with_steal_policy(StealPolicy::TailMostLoaded))?;
    let bound =
        engine.session().execute(&plan, &config.with_steal_policy(StealPolicy::Disabled))?;
    Ok(StealAbRow {
        workload,
        steal_s: stealing.seconds(),
        no_steal_s: bound.seconds(),
        blocks_stolen: stealing.stats.total_blocks_stolen(),
        rows_identical: stealing.rows == bound.rows,
    })
}

/// The skewed workload: one GPU is a hidden [`SKEW_FACTOR`]× straggler.
pub fn skewed_steal_ab(fact_rows: usize) -> Result<StealAbRow> {
    let topology = ServerTopology::paper_server();
    let slow_gpu = topology.gpus()[1];
    let skewed = topology.with_device_slowdown(slow_gpu, SKEW_FACTOR)?;
    steal_ab_on(skewed, fact_rows, format!("join_reduce_{}k_skewed_gpu_8x", fact_rows / 1000))
}

/// The unskewed control: stealing on a healthy server must be ~free.
pub fn unskewed_steal_ab(fact_rows: usize) -> Result<StealAbRow> {
    steal_ab_on(
        ServerTopology::paper_server(),
        fact_rows,
        format!("join_reduce_{}k_unskewed", fact_rows / 1000),
    )
}

/// Of `runs` repeated measurements, the one with the median improvement —
/// steal timing (and, in governed mode, arena-occupancy pricing) makes
/// single runs wall-clock sensitive, and the acceptance bars should gate the
/// typical outcome, not a scheduler tail.
fn median_by_improvement(mut runs: Vec<StealAbRow>) -> StealAbRow {
    runs.sort_by(|a, b| {
        a.improvement_pct().partial_cmp(&b.improvement_pct()).unwrap_or(std::cmp::Ordering::Equal)
    });
    runs.swap_remove(runs.len() / 2)
}

/// Run the A/B suite: the skewed straggler workload plus the unskewed
/// control, each reported as the median of three measurements.
pub fn run_all(fact_rows: usize) -> Result<StealAbReport> {
    let skewed = median_by_improvement(
        (0..3).map(|_| skewed_steal_ab(fact_rows)).collect::<Result<Vec<_>>>()?,
    );
    let unskewed = median_by_improvement(
        (0..3).map(|_| unskewed_steal_ab(fact_rows)).collect::<Result<Vec<_>>>()?,
    );
    Ok(StealAbReport { rows: vec![skewed, unskewed] })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stealing_recovers_at_least_10_percent_on_the_skewed_workload() {
        // Acceptance criterion: on the hidden-straggler workload, adaptive
        // re-routing improves end-to-end simulated time by >= 10% with
        // byte-identical rows and a non-zero steal count.
        let row = skewed_steal_ab(200_000).unwrap();
        assert!(row.rows_identical, "stealing must not change results");
        assert!(row.blocks_stolen > 0, "the straggler's backlog was never rescued");
        assert!(
            row.improvement_pct() >= 10.0,
            "stealing {}s vs bound {}s: improvement {:.1}% < 10%",
            row.steal_s,
            row.no_steal_s,
            row.improvement_pct()
        );
    }

    #[test]
    fn stealing_is_near_free_on_the_unskewed_workload() {
        // A 5% sanity bar on the median of three runs: each run's simulated
        // times follow host-thread interleaving (governed routing prices live
        // arena occupancy even with zero steals), so one run alone can miss
        // it. The tight ≤2% acceptance bar is the `steal_ab` bin's, on the
        // same median.
        let row = median_by_improvement(
            (0..3).map(|_| unskewed_steal_ab(200_000)).collect::<Result<Vec<_>>>().unwrap(),
        );
        assert!(row.rows_identical, "stealing must not change results");
        assert!(
            row.improvement_pct() >= -5.0,
            "stealing {}s vs bound {}s on a healthy server: cost {:.1}% > 5%",
            row.steal_s,
            row.no_steal_s,
            -row.improvement_pct()
        );
    }

    #[test]
    fn report_json_shape() {
        let report = StealAbReport {
            rows: vec![StealAbRow {
                workload: "w".into(),
                steal_s: 0.9,
                no_steal_s: 1.0,
                blocks_stolen: 7,
                rows_identical: true,
            }],
        };
        let json = report.to_json();
        assert!(json.contains("\"improvement_pct\": 10.00"));
        assert!(json.contains("\"blocks_stolen\": 7"));
        assert!(json.contains("\"rows_identical\": true"));
        assert!(report.get("w").is_some());
    }
}
