//! # hetex-analysis
//!
//! Static verification of compiled queries: prove a [`StageGraph`] will
//! execute — correct shapes, acyclic wiring, deadlock-free staging —
//! *without running it*.
//!
//! HetExchange's premise is that the query plan is a program; this crate is
//! that program's type checker and linter. [`analyze`] runs three check
//! families over a compiled query and returns an [`AnalysisReport`] of
//! [`Diagnostic`]s with stable `HX0xx` codes (see [`Code`] for the catalog):
//!
//! * **IR type/schema checking** (`HX00x`, [`ir_check`]) — column widths
//!   propagate through every step chain, all device templates of a stage
//!   agree on one blueprint, state slots match their uses, plus expression
//!   lints (constant zero divisors, vectorized scratch depth, non-boolean
//!   filter predicates).
//! * **Stage-graph linting** (`HX01x`, [`graph_check`]) — acyclicity, queue
//!   wiring consistency, dependency gates mirroring hash-build dependencies,
//!   consumers naming real non-excluded devices.
//! * **Staging deadlock-freedom** (`HX02x`, [`staging_check`]) — the §4.2
//!   lease-ordering precondition proved per memory node against the actual
//!   consumer placement.
//!
//! The engine runs [`analyze`] before executing every query and rejects a
//! plan with error-severity diagnostics (fault plans are validated where
//! they enter, by `ServerTopology::with_fault_plan`); the `plan_lint` binary
//! runs it over every bench and SSB plan in CI; and the mutation suite in
//! `tests/` proves each lint actually fires.

pub mod diagnostics;
pub mod graph_check;
pub mod ir_check;
pub mod staging_check;

pub use diagnostics::{AnalysisReport, Code, Diagnostic, Severity};

use hetex_common::EngineConfig;
use hetex_core::codegen::StageGraph;
use hetex_topology::ServerTopology;

/// Statically verify a compiled query against its config and topology.
pub fn analyze(
    graph: &StageGraph,
    config: &EngineConfig,
    topology: &ServerTopology,
) -> AnalysisReport {
    let mut report = AnalysisReport::new();
    ir_check::check(graph, &mut report);
    graph_check::check(graph, topology, &mut report);
    staging_check::check(graph, config, topology, &mut report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetex_core::{compile, parallelize, RelNode};
    use hetex_jit::{AggSpec, Expr};

    fn ssb_like_plan() -> RelNode {
        let dates = RelNode::scan("date", &["d_datekey", "d_year"])
            .filter(Expr::col(1).eq(Expr::lit(1993)));
        RelNode::scan("lineorder", &["lo_orderdate", "lo_discount", "lo_revenue"])
            .filter(Expr::col(1).between(1, 3))
            .hash_join(dates, 0, 0, &[1])
            .reduce(vec![AggSpec::sum(Expr::col(2))], &["revenue"])
    }

    #[test]
    fn compiled_plans_analyze_clean() {
        for config in
            [EngineConfig::hybrid(8, 2), EngineConfig::cpu_only(8), EngineConfig::gpu_only(2)]
        {
            let topology = ServerTopology::paper_server();
            let het = parallelize(&ssb_like_plan(), &config).unwrap();
            let graph = compile(&het, &config, &topology).unwrap();
            let report = analyze(&graph, &config, &topology);
            assert!(
                report.is_clean(),
                "expected a clean report for {:?}, got:\n{}",
                config.target,
                report.render()
            );
        }
    }
}
