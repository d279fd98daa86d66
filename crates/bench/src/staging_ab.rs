//! A/B harness: byte-budget staging governance on vs off.
//!
//! Runs the pipelined executor over the join+reduce hybrid acceptance
//! workload twice — once with the per-node staging byte budget enabled
//! (`EngineConfig::staging_bytes = Some(..)`, every queued block backed by a
//! `BlockLease`) and once with governance disabled (`None`, the PR 1
//! handle-count-only behaviour) — and reports simulated end-to-end times, the
//! relative overhead, the per-node peak staged bytes, and whether the result
//! rows were byte-identical. The acceptance bar: governance must stay within
//! 5% of the ungoverned throughput on identical row counts. `cargo run
//! --release -p hetex-bench --bin staging_ab` emits `BENCH_staging.json`.

use crate::workload::join_reduce_engine;
use hetex_common::config::DEFAULT_STAGING_BYTES;
use hetex_common::{EngineConfig, Result};

/// The demand-weighted quota A/B (cost-model term 1) reuses the governed
/// acceptance workload with a deliberately *tight* budget — at the default
/// 64 MiB the quotas never bind, so the split policy would be unobservable.
/// Tight means a small multiple of the validation floor: admission quotas
/// genuinely park producers and the re-split has something to re-balance.
const DEMAND_QUOTA_BUDGET_FLOORS: u64 = 3;

/// One governed-vs-ungoverned measurement.
#[derive(Debug, Clone)]
pub struct StagingAbRow {
    /// Workload label.
    pub workload: String,
    /// Per-node staging budget used for the governed run, in bytes.
    pub budget_bytes: u64,
    /// Simulated seconds with byte-budget governance.
    pub governed_s: f64,
    /// Simulated seconds without governance (PR 1 behaviour).
    pub ungoverned_s: f64,
    /// Largest per-node peak of leased staging bytes in the governed run.
    pub peak_leased_bytes: u64,
    /// Whether both runs produced byte-identical result rows.
    pub rows_identical: bool,
    /// What the two time fields measured — emitted into the JSON so the
    /// committed artifact is self-describing (the demand-quota variant
    /// reuses the fields with both sides governed).
    pub note: &'static str,
}

impl StagingAbRow {
    /// Relative overhead of governance, in percent (positive = slower).
    pub fn overhead_pct(&self) -> f64 {
        if self.ungoverned_s <= 0.0 {
            return 0.0;
        }
        (self.governed_s / self.ungoverned_s - 1.0) * 100.0
    }
}

/// The full governed-vs-ungoverned report.
#[derive(Debug, Clone, Default)]
pub struct StagingAbReport {
    /// Every measured workload.
    pub rows: Vec<StagingAbRow>,
}

impl StagingAbReport {
    /// Serialize as pretty-printed JSON (hand-rolled; the build has no JSON
    /// dependency).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"benchmark\": \"staging_governance_ab\",\n");
        out.push_str("  \"metric\": \"simulated_seconds\",\n  \"workloads\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"workload\": \"{}\", \"budget_bytes\": {}, \"governed_s\": {:.9}, \
                 \"ungoverned_s\": {:.9}, \"overhead_pct\": {:.2}, \"peak_leased_bytes\": {}, \
                 \"rows_identical\": {}, \"note\": \"{}\"}}{}\n",
                row.workload,
                row.budget_bytes,
                row.governed_s,
                row.ungoverned_s,
                row.overhead_pct(),
                row.peak_leased_bytes,
                row.rows_identical,
                row.note,
                if i + 1 < self.rows.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// The acceptance workload: join+reduce over `fact_rows` fact rows on
/// `EngineConfig::hybrid(8, 2)`, with and without the staging byte budget
/// (same scale extrapolation as `steal_ab`).
pub fn join_reduce_staging_ab(fact_rows: usize) -> Result<StagingAbRow> {
    let (engine, plan) = join_reduce_engine(fact_rows)?;
    let mut base = EngineConfig::hybrid(8, 2);
    base.scale_weight = 20_000.0;
    base.block_capacity = 2048;
    let base = base.with_table_weight("dim", 2_500.0);

    let budget = DEFAULT_STAGING_BYTES;
    let governed =
        engine.session().execute(&plan, &base.clone().with_staging_bytes(Some(budget)))?;
    let ungoverned = engine.session().execute(&plan, &base.clone().with_staging_bytes(None))?;
    Ok(StagingAbRow {
        workload: format!("join_reduce_{}k_hybrid_8_2", fact_rows / 1000),
        budget_bytes: budget,
        governed_s: governed.seconds(),
        ungoverned_s: ungoverned.seconds(),
        peak_leased_bytes: governed
            .stats
            .staging_peaks
            .iter()
            .map(|(_, peak)| *peak)
            .max()
            .unwrap_or(0),
        rows_identical: governed.rows == ungoverned.rows,
        note: "governed_s=byte-governed, ungoverned_s=ungoverned (PR 1)",
    })
}

/// Demand-weighted vs even staging quota split (cost-model term 1), both
/// governed under a tight budget: `governed_s` is the demand-weighted run,
/// `ungoverned_s` the even-split (PR 2) run. The acceptance bar mirrors the
/// governance bar: demand weighting must stay within 5% of the even split
/// on identical rows (its win is back-pressure fairness under skewed
/// per-stage demand, not raw simulated time).
pub fn join_reduce_demand_quota_ab(fact_rows: usize) -> Result<StagingAbRow> {
    let (engine, plan) = join_reduce_engine(fact_rows)?;
    let mut base = EngineConfig::hybrid(8, 2);
    base.scale_weight = 20_000.0;
    base.block_capacity = 2048;
    let mut base = base.with_table_weight("dim", 2_500.0);
    let budget = base.min_staging_bytes() * DEMAND_QUOTA_BUDGET_FLOORS;
    base.staging_bytes = Some(budget);

    let demand = engine.session().execute(&plan, &base)?;
    let even = engine.session().execute(
        &plan,
        &base.clone().with_cost_model(base.cost_model.with_demand_weighted_quotas(false)),
    )?;
    Ok(StagingAbRow {
        workload: format!("join_reduce_{}k_hybrid_8_2_demand_quota", fact_rows / 1000),
        budget_bytes: budget,
        governed_s: demand.seconds(),
        ungoverned_s: even.seconds(),
        peak_leased_bytes: demand
            .stats
            .staging_peaks
            .iter()
            .map(|(_, peak)| *peak)
            .max()
            .unwrap_or(0),
        rows_identical: demand.rows == even.rows,
        note: "governed_s=demand-weighted split, ungoverned_s=even split (both governed)",
    })
}

/// Run the A/B suite: the governed-vs-ungoverned acceptance workload plus
/// the demand-weighted quota variant.
pub fn run_all(fact_rows: usize) -> Result<StagingAbReport> {
    Ok(StagingAbReport {
        rows: vec![join_reduce_staging_ab(fact_rows)?, join_reduce_demand_quota_ab(fact_rows)?],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn governance_costs_at_most_5_percent_on_the_acceptance_workload() {
        // Acceptance criterion: the governed pipelined executor stays within
        // 5% of PR 1's ungoverned simulated time on the join+reduce hybrid
        // workload, with identical rows, and every staged block was backed by
        // a lease (a non-zero peak within the budget).
        let row = join_reduce_staging_ab(200_000).unwrap();
        assert!(row.rows_identical, "governance must not change results");
        assert!(
            row.overhead_pct() <= 5.0,
            "governed {}s vs ungoverned {}s: overhead {:.2}% > 5%",
            row.governed_s,
            row.ungoverned_s,
            row.overhead_pct()
        );
        assert!(row.peak_leased_bytes > 0, "no block was ever lease-backed");
        assert!(row.peak_leased_bytes <= row.budget_bytes, "peak exceeded the budget");
    }

    #[test]
    fn demand_weighted_quotas_cost_at_most_5_percent_under_a_tight_budget() {
        // Cost-model term 1 acceptance: with admission quotas genuinely
        // binding (tight budget), the demand-weighted split stays within 5%
        // of the even split with identical rows and a governed peak.
        let row = join_reduce_demand_quota_ab(200_000).unwrap();
        assert!(row.rows_identical, "quota policy must not change results");
        assert!(
            row.overhead_pct() <= 5.0,
            "demand-weighted {}s vs even {}s: overhead {:.2}% > 5%",
            row.governed_s,
            row.ungoverned_s,
            row.overhead_pct()
        );
        assert!(row.peak_leased_bytes > 0, "no block was ever lease-backed");
        assert!(row.peak_leased_bytes <= row.budget_bytes, "peak exceeded the budget");
    }

    #[test]
    fn report_json_shape() {
        let report = StagingAbReport {
            rows: vec![StagingAbRow {
                workload: "w".into(),
                budget_bytes: 1024,
                governed_s: 1.05,
                ungoverned_s: 1.0,
                peak_leased_bytes: 512,
                rows_identical: true,
                note: "governed_s=a, ungoverned_s=b",
            }],
        };
        let json = report.to_json();
        assert!(json.contains("\"overhead_pct\": 5.00"));
        assert!(json.contains("\"peak_leased_bytes\": 512"));
        assert!(json.contains("\"rows_identical\": true"));
    }
}
