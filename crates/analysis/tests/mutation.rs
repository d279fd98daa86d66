//! Mutation-testing harness for the static analyzer.
//!
//! Two halves prove the analyzer is neither blind nor trigger-happy:
//!
//! * **Soundness of silence** — randomly generated valid plans, compiled
//!   under every execution target, analyze completely clean (property test).
//! * **Each lint fires** — every mutation class seeds a specific defect into
//!   a compiled stage graph (the `Stage`/`StageWiring` fields are public
//!   exactly so tests can corrupt them) or into its config, and the
//!   test asserts the *expected* HX code is reported — not just "something
//!   failed".

use hetex_analysis::{analyze, AnalysisReport, Code};
use hetex_common::EngineConfig;
use hetex_core::codegen::{StageGraph, StageSource};
use hetex_core::{compile, parallelize, RelNode};
use hetex_jit::{AggSpec, Expr};
use hetex_topology::{DeviceId, DeviceKind, ServerTopology};
use proptest::prelude::*;
use std::sync::Arc;

/// Compile a plan for the paper server; panics on invalid plans (the corpus
/// here is valid by construction).
fn compiled(plan: &RelNode, config: &EngineConfig) -> (StageGraph, Arc<ServerTopology>) {
    let topology = ServerTopology::paper_server();
    let het = parallelize(plan, config).expect("parallelize");
    let graph = compile(&het, config, &topology).expect("compile");
    (graph, topology)
}

fn join_plan(threshold: i64) -> RelNode {
    let dim = RelNode::scan("dim", &["k", "attr"]).filter(Expr::col(1).lt_lit(threshold));
    RelNode::scan("fact", &["key", "value"])
        .hash_join(dim, 0, 0, &[1])
        .reduce(vec![AggSpec::sum(Expr::col(1)), AggSpec::count()], &["sum_v", "cnt"])
}

fn reduce_plan(threshold: i64) -> RelNode {
    RelNode::scan("fact", &["key", "value"])
        .filter(Expr::col(0).gt_lit(threshold))
        .reduce(vec![AggSpec::sum(Expr::col(1))], &["sum_v"])
}

fn hybrid() -> EngineConfig {
    EngineConfig::hybrid(8, 2)
}

/// Analyze a mutated graph and assert the expected code fired.
fn assert_fires(report: &AnalysisReport, code: Code, label: &str) {
    assert!(
        report.has_code(code),
        "{label}: expected {} ({}), got:\n{}",
        code.as_str(),
        code.summary(),
        if report.is_clean() { "<clean report>".to_string() } else { report.render() }
    );
}

// ---------------------------------------------------------------------------
// Soundness of silence: random valid plans analyze clean.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_valid_plans_analyze_clean(
        threshold in -100i64..1000,
        dim_threshold in 1i64..7,
        cpu_dop in 1usize..9,
        gpu_dop in 1usize..3,
        shape in 0u8..4,
    ) {
        let plan = match shape {
            0 => reduce_plan(threshold),
            1 => join_plan(dim_threshold),
            2 => RelNode::scan("fact", &["key", "value", "g"])
                .filter(Expr::col(0).between(threshold, threshold + 500))
                .group_by(&[2], vec![AggSpec::sum(Expr::col(1))], &["g", "sum_v"]),
            _ => RelNode::scan("fact", &["key", "value"])
                .reduce(vec![AggSpec::count()], &["cnt"]),
        };
        for config in [
            EngineConfig::cpu_only(cpu_dop),
            EngineConfig::gpu_only(gpu_dop),
            EngineConfig::hybrid(cpu_dop, gpu_dop),
        ] {
            let (graph, topology) = compiled(&plan, &config);
            let report = analyze(&graph, &config, &topology);
            prop_assert!(
                report.is_clean(),
                "valid plan (shape {}) drew diagnostics under {:?}:\n{}",
                shape, config.target, report.render()
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Each lint fires: one seeded mutation per class, expected code asserted.
// ---------------------------------------------------------------------------

#[test]
fn mutation_truncated_projection_is_hx001() {
    let config = hybrid();
    let (mut graph, topology) = compiled(&reduce_plan(10), &config);
    let stage = graph
        .stages
        .iter_mut()
        .find(|s| matches!(s.source, StageSource::Table { .. }))
        .expect("a table-source stage");
    let StageSource::Table { projection, .. } = &mut stage.source else { unreachable!() };
    projection.pop();
    let report = analyze(&graph, &config, &topology);
    assert_fires(&report, Code::HX001, "truncated projection");
}

#[test]
fn mutation_template_under_wrong_kind_is_hx002() {
    let config = hybrid();
    let (mut graph, topology) = compiled(&reduce_plan(10), &config);
    let stage = graph.stages.first_mut().expect("a stage");
    let cpu = stage.template(DeviceKind::CpuCore).clone();
    stage.templates.insert(DeviceKind::Gpu, cpu);
    let report = analyze(&graph, &config, &topology);
    assert_fires(&report, Code::HX002, "CPU template registered as GPU");
}

#[test]
fn mutation_foreign_state_is_hx003() {
    let config = hybrid();
    let (mut graph, topology) = compiled(&join_plan(3), &config);
    // State compiled for a *different* plan: the probe's hash-table slot now
    // holds that plan's accumulators (or nothing at all).
    let (foreign, _) = compiled(&reduce_plan(10), &config);
    graph.state = foreign.state;
    let report = analyze(&graph, &config, &topology);
    assert_fires(&report, Code::HX003, "state of another plan");
}

#[test]
fn mutation_zero_divisor_is_hx004() {
    let config = hybrid();
    let plan = RelNode::scan("fact", &["key", "value"])
        .filter(Expr::Div(Box::new(Expr::col(0)), Box::new(Expr::lit(0))).gt_lit(1))
        .reduce(vec![AggSpec::count()], &["cnt"]);
    let (graph, topology) = compiled(&plan, &config);
    let report = analyze(&graph, &config, &topology);
    assert_fires(&report, Code::HX004, "division by constant zero");
    assert!(!report.has_errors(), "HX004 is a warning, not an error");
}

#[test]
fn mutation_deep_scratch_nesting_is_hx006() {
    let config = hybrid();
    // Right-nested arithmetic: every level needs its right operand's scratch
    // column live while the left evaluates, so depth grows with nesting.
    let mut expr = Expr::col(0);
    for _ in 0..12 {
        expr = Expr::Add(Box::new(Expr::lit(1)), Box::new(expr));
    }
    let plan = RelNode::scan("fact", &["key", "value"])
        .filter(expr.gt_lit(0))
        .reduce(vec![AggSpec::count()], &["cnt"]);
    let (graph, topology) = compiled(&plan, &config);
    let report = analyze(&graph, &config, &topology);
    assert_fires(&report, Code::HX006, "excessive scratch depth");
}

#[test]
fn mutation_arithmetic_filter_predicate_is_hx007() {
    let config = hybrid();
    let plan = RelNode::scan("fact", &["key", "value"])
        .filter(Expr::Add(Box::new(Expr::col(0)), Box::new(Expr::lit(1))))
        .reduce(vec![AggSpec::count()], &["cnt"]);
    let (graph, topology) = compiled(&plan, &config);
    let report = analyze(&graph, &config, &topology);
    assert_fires(&report, Code::HX007, "non-boolean filter predicate");
}

#[test]
fn mutation_dependency_cycle_is_hx010() {
    let config = hybrid();
    let (mut graph, topology) = compiled(&join_plan(3), &config);
    let result = graph.stages.iter().position(|s| s.is_result).expect("result stage");
    graph.stages[0].depends_on.push(result);
    let report = analyze(&graph, &config, &topology);
    assert_fires(&report, Code::HX010, "dependency cycle");
}

#[test]
fn mutation_cleared_feed_is_hx011() {
    let config = hybrid();
    let (mut graph, topology) = compiled(&join_plan(3), &config);
    let fed = graph.wiring.feeds.iter().position(|f| f.is_some()).expect("a fed stage");
    graph.wiring.feeds[fed] = None;
    let report = analyze(&graph, &config, &topology);
    assert_fires(&report, Code::HX011, "cleared feed");
}

#[test]
fn mutation_dropped_build_gate_is_hx012() {
    let config = hybrid();
    let (mut graph, topology) = compiled(&join_plan(3), &config);
    let probe =
        graph.stages.iter().position(|s| !s.depends_on.is_empty()).expect("a gated (probe) stage");
    graph.stages[probe].depends_on.clear();
    let report = analyze(&graph, &config, &topology);
    assert_fires(&report, Code::HX012, "dropped build gate");
}

#[test]
fn mutation_unknown_consumer_device_is_hx013() {
    let config = hybrid();
    let (mut graph, topology) = compiled(&reduce_plan(10), &config);
    let stage = graph.stages.iter_mut().find(|s| !s.consumers.is_empty()).expect("consumers");
    let slot = stage.consumers.first_mut().expect("a consumer slot");
    match slot.kind {
        DeviceKind::CpuCore => slot.affinity.cpu_core = Some(DeviceId::new(999)),
        DeviceKind::Gpu => slot.affinity.gpu = Some(DeviceId::new(999)),
    }
    let report = analyze(&graph, &config, &topology);
    assert_fires(&report, Code::HX013, "unknown consumer device");
}

#[test]
fn mutation_no_consumers_is_hx013() {
    let config = hybrid();
    let (mut graph, topology) = compiled(&reduce_plan(10), &config);
    graph.stages[0].consumers.clear();
    let report = analyze(&graph, &config, &topology);
    assert_fires(&report, Code::HX013, "no consumers");
}

#[test]
fn mutation_no_result_stage_is_hx014() {
    let config = hybrid();
    let (mut graph, topology) = compiled(&reduce_plan(10), &config);
    for stage in &mut graph.stages {
        stage.is_result = false;
    }
    let report = analyze(&graph, &config, &topology);
    assert_fires(&report, Code::HX014, "no result stage");
}

#[test]
fn mutation_starved_staging_budget_is_hx020() {
    // `EngineConfig::validate` (run by the planner) rejects a starved budget
    // up front, so compile with a healthy config and starve it afterwards —
    // the analyzer must independently re-prove the floor, since plans can be
    // checked against configs the planner never saw.
    let mut config = hybrid();
    let (graph, topology) = compiled(&join_plan(3), &config);
    config.staging_bytes = config.min_staging_bytes().saturating_sub(1).max(1);
    let report = analyze(&graph, &config, &topology);
    assert_fires(&report, Code::HX020, "staging budget below floor");
    assert!(report.has_errors(), "HX020 is an error");
}

#[test]
fn mutation_sub_block_quota_carve_out_is_hx021() {
    // The floor covers one block per device instance, but a multi-stage
    // plan places more queues than instances on a node, so each queue's
    // even carve-out of a floor-sized budget is below one block.
    let mut config = hybrid();
    let (graph, topology) = compiled(&join_plan(3), &config);
    config.staging_bytes = config.min_staging_bytes();
    let report = analyze(&graph, &config, &topology);
    assert_fires(&report, Code::HX021, "sub-block quota carve-out");
    assert!(!report.has_errors(), "HX021 is a warning");
}

/// The engine-facing contract: a mutated plan is *rejected* before any
/// execution. Exercised here at the analyzer level (error severities
/// present ⇒ `Proteus::verify` errors).
#[test]
fn mutations_produce_error_severities_that_deny_would_reject() {
    let config = hybrid();
    let (mut graph, topology) = compiled(&join_plan(3), &config);
    graph.stages[0].consumers.clear();
    let report = analyze(&graph, &config, &topology);
    assert!(report.has_errors());
    assert!(!report.render().is_empty());
}
