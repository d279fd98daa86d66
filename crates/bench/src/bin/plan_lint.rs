//! Plan lint: compile every bench and SSB plan and run the static analyzer
//! (`hetex-analysis`) over the result — no execution, no data movement.
//!
//! Usage: `plan_lint` — prints a per-plan markdown table and exits 1 when
//! any plan draws an error-severity diagnostic (warnings are reported but do
//! not fail the run; the engine's own pre-execution check makes the same
//! split). When `GITHUB_STEP_SUMMARY` is set (a GitHub
//! Actions step), the table is appended to the workflow summary page.
//!
//! The linted corpus is every plan a bench bin compiles: the thirteen SSB
//! queries, the two microbenchmark plans (sum, join) and the pipeline A/B
//! join+reduce plan, each under the CPU-only, GPU-only and hybrid execution
//! targets the figures use, the serving configuration, and the `reopt`
//! target — an enabled `ReoptConfig` whose **entire searched plan space**
//! (every candidate placement the reoptimizer can emit) is linted, since
//! the engine re-verifies a feedback rewrite before dispatch and an
//! error-severity candidate would turn that rewrite into a runtime refusal.

use hetex_analysis::analyze;
use hetex_bench::micro::{MicroQuery, MicroWorkload};
use hetex_bench::SsbWorkload;
use hetex_common::{EngineConfig, ReoptConfig};
use hetex_core::{compile, parallelize, RelNode};
use hetex_topology::ServerTopology;
use std::process::exit;
use std::sync::Arc;

/// One linted (plan, config) combination.
struct LintRow {
    plan: String,
    target: &'static str,
    stages: usize,
    errors: usize,
    warnings: usize,
    /// Rendered diagnostics, empty for a clean plan.
    detail: String,
}

/// Lint one plan under one config; `None` when the combination does not
/// compile (that is a hard failure too — the lint exists to prove plans are
/// executable).
fn lint(
    name: &str,
    target: &'static str,
    plan: &RelNode,
    config: &EngineConfig,
    topology: &Arc<ServerTopology>,
) -> Result<LintRow, String> {
    config.validate().map_err(|e| format!("{name} [{target}]: {e}"))?;
    let het = parallelize(plan, config).map_err(|e| format!("{name} [{target}]: {e}"))?;
    hetex_core::traits::check_relational_requirements(&het)
        .map_err(|e| format!("{name} [{target}]: {e}"))?;
    let graph = compile(&het, config, topology).map_err(|e| format!("{name} [{target}]: {e}"))?;
    let report = analyze(&graph, config, topology);
    Ok(LintRow {
        plan: name.to_string(),
        target,
        stages: graph.stages.len(),
        errors: report.errors().count(),
        warnings: report.warnings().count(),
        detail: report.render(),
    })
}

/// The three execution targets the figure harnesses sweep, the
/// configuration `tests/adaptive_scenarios.rs` serves SSB under (the lint
/// proves a plan the `QueryServer` admits also validates and analyzes
/// cleanly), and the `reopt` target whose searched plan space is linted candidate by
/// candidate.
fn targets() -> [(&'static str, EngineConfig); 5] {
    [
        ("cpu", EngineConfig::cpu_only(8)),
        ("gpu", EngineConfig::gpu_only(2)),
        ("hybrid", EngineConfig::hybrid(8, 2)),
        ("serve", EngineConfig::hybrid(6, 1)),
        ("reopt", EngineConfig::hybrid(8, 2).with_reopt(ReoptConfig::enabled())),
    ]
}

/// Lint the reoptimizer's full searched plan space for one plan: every
/// candidate placement `candidates` can emit, applied to the submitted
/// configuration.
/// The space collapses into one table row — stages of the widest candidate,
/// summed diagnostics, per-candidate detail for anything non-clean.
fn lint_search_space(
    name: &str,
    plan: &RelNode,
    config: &EngineConfig,
    topology: &Arc<ServerTopology>,
) -> Result<LintRow, String> {
    let space = hetex_core::reopt::candidates(config, topology);
    let mut stages = 0;
    let mut errors = 0;
    let mut warnings = 0;
    let mut detail = String::new();
    for candidate in &space {
        let emitted = candidate.apply(config);
        let row = lint(name, "reopt", plan, &emitted, topology)
            .map_err(|e| format!("{e} (searched candidate {})", candidate.label()))?;
        stages = stages.max(row.stages);
        errors += row.errors;
        warnings += row.warnings;
        if row.errors + row.warnings > 0 {
            detail.push_str(&format!("candidate {}:\n{}", candidate.label(), row.detail));
        }
    }
    Ok(LintRow {
        plan: format!("{name} ({} searched candidates)", space.len()),
        target: "reopt",
        stages,
        errors,
        warnings,
        detail,
    })
}

fn render_table(rows: &[LintRow]) -> String {
    let errors: usize = rows.iter().map(|r| r.errors).sum();
    let warnings: usize = rows.iter().map(|r| r.warnings).sum();
    let mut out = String::from("## Plan lint (static analysis)\n\n");
    out.push_str(&format!(
        "{} plan/target combinations analyzed — **{}** ({errors} error(s), \
         {warnings} warning(s))\n\n",
        rows.len(),
        if errors == 0 { "clean" } else { "REJECTED" },
    ));
    out.push_str("| plan | target | stages | errors | warnings | status |\n");
    out.push_str("|---|---|---:|---:|---:|---|\n");
    for row in rows {
        let status = if row.errors > 0 {
            "❌ error"
        } else if row.warnings > 0 {
            "⚠️ warning"
        } else {
            "✅ clean"
        };
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} |\n",
            row.plan, row.target, row.stages, row.errors, row.warnings, status
        ));
    }
    out.push('\n');
    out
}

fn main() {
    let topology = ServerTopology::paper_server();

    // The linted corpus: every plan the bench bins compile.
    let ssb = SsbWorkload::build(0.002, 100.0, false).expect("build SSB workload");
    let micro = MicroWorkload::build(10_000).expect("build micro workload");
    let (_engine, join_reduce) =
        hetex_bench::workload::join_reduce_engine(10_000).expect("build join+reduce plan");
    // Each plan is linted under the config its bench bin actually runs:
    // the workload builders size block capacity (and thus the staging
    // floors) to the generated data, so the lint sees the real regime.
    type ConfigFn = fn(&SsbWorkload, &MicroWorkload, EngineConfig) -> EngineConfig;
    let mut corpus: Vec<(String, RelNode, ConfigFn)> = Vec::new();
    fn ssb_cfg(ssb: &SsbWorkload, _m: &MicroWorkload, base: EngineConfig) -> EngineConfig {
        ssb.config(base)
    }
    fn micro_cfg(_s: &SsbWorkload, micro: &MicroWorkload, base: EngineConfig) -> EngineConfig {
        micro.config(base, micro.physical_probe_bytes)
    }
    fn plain_cfg(_s: &SsbWorkload, _m: &MicroWorkload, base: EngineConfig) -> EngineConfig {
        base
    }
    for query in &ssb.queries {
        corpus.push((format!("ssb/{}", query.name), query.plan.clone(), ssb_cfg));
    }
    for query in [MicroQuery::Sum, MicroQuery::Join] {
        corpus.push((format!("micro/{}", query.label()), micro.plan(query), micro_cfg));
    }
    corpus.push(("workload/join_reduce".to_string(), join_reduce, plain_cfg));

    let mut rows: Vec<LintRow> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    for (name, plan, cfg) in &corpus {
        for (target, base) in targets() {
            let config = cfg(&ssb, &micro, base);
            let result = if target == "reopt" {
                lint_search_space(name, plan, &config, &topology)
            } else {
                lint(name, target, plan, &config, &topology)
            };
            match result {
                Ok(row) => rows.push(row),
                Err(e) => failures.push(e),
            }
        }
    }

    let table = render_table(&rows);
    print!("{table}");
    for row in rows.iter().filter(|r| r.errors + r.warnings > 0) {
        println!("--- {} [{}] ---\n{}", row.plan, row.target, row.detail);
    }
    for failure in &failures {
        eprintln!("compile failure: {failure}");
    }

    if let Ok(summary_path) = std::env::var("GITHUB_STEP_SUMMARY") {
        use std::io::Write;
        match std::fs::OpenOptions::new().create(true).append(true).open(&summary_path) {
            Ok(mut f) => {
                if let Err(e) = f.write_all(table.as_bytes()) {
                    eprintln!("could not append step summary to {summary_path}: {e}");
                }
            }
            Err(e) => eprintln!("could not open step summary {summary_path}: {e}"),
        }
    }

    let errors: usize = rows.iter().map(|r| r.errors).sum();
    if errors > 0 || !failures.is_empty() {
        eprintln!(
            "plan lint failed: {errors} error diagnostic(s), {} compile failure(s)",
            failures.len()
        );
        exit(1);
    }
    println!("plan lint passed: {} combinations, 0 error diagnostics", rows.len());
}
