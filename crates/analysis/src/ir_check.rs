//! IR type/schema checking (`HX001`–`HX007`).
//!
//! Width propagation re-runs the per-pipeline validation of
//! [`CompiledPipeline::new`] *and* extends it across stage boundaries: the
//! producer's emitted width must match every consumer template's declared
//! input width, and every device template of one stage must agree on the
//! shared step blueprint (§4.2's "parameterizable version of the pipeline per
//! device" is only sound when the versions are the same program).
//!
//! [`CompiledPipeline::new`]: hetex_jit::CompiledPipeline

use crate::diagnostics::{AnalysisReport, Code};
use hetex_core::codegen::{Stage, StageGraph, StageSource};
use hetex_jit::{CompiledPipeline, Expr, SharedState, StateObject, Step, TerminalStep};
use hetex_topology::DeviceKind;

/// Maximum number of concurrently live scratch columns the vectorized
/// lowering may rent for one expression before we flag the plan: each buffer
/// is a full chunk column (8 KiB), so deep binary nesting walks the working
/// set out of L1 — exactly the regime column-at-a-time evaluation is worst
/// at.
pub const MAX_SCRATCH_DEPTH: usize = 8;

/// Run every IR check over every stage template.
pub fn check(graph: &StageGraph, report: &mut AnalysisReport) {
    for (idx, stage) in graph.stages.iter().enumerate() {
        check_source_width(idx, stage, &graph.stages, report);
        check_template_agreement(idx, stage, report);
        for template in stage.templates.values() {
            check_template(idx, template, &graph.state, report);
        }
    }
}

/// `HX001`: the stage's input width must match what its source emits.
fn check_source_width(idx: usize, stage: &Stage, stages: &[Stage], report: &mut AnalysisReport) {
    let source_width = match &stage.source {
        StageSource::Table { projection, .. } => Some(projection.len()),
        StageSource::Stage(src) => stages.get(*src).map(|s| s.output_width()),
    };
    // An unknown producer stage is reported by the graph checks (HX011);
    // width checking only applies when the source resolves.
    let Some(source_width) = source_width else { return };
    for (kind, template) in &stage.templates {
        if template.input_width() != source_width {
            report.report(
                Code::HX001,
                Some(idx),
                format!(
                    "{kind:?} template expects {} input columns, but the stage's source ({}) \
                     emits {source_width}",
                    template.input_width(),
                    describe_source(&stage.source),
                ),
            );
        }
    }
}

fn describe_source(source: &StageSource) -> String {
    match source {
        StageSource::Table { table, projection } => {
            format!("table '{table}' with a {}-column projection", projection.len())
        }
        StageSource::Stage(src) => format!("stage {src}"),
    }
}

/// `HX002`: all device templates of a stage must share one blueprint, and
/// each must be registered under its own device kind.
fn check_template_agreement(idx: usize, stage: &Stage, report: &mut AnalysisReport) {
    for (kind, template) in &stage.templates {
        if template.device() != *kind {
            report.report(
                Code::HX002,
                Some(idx),
                format!(
                    "template registered under {kind:?} was compiled for {:?}",
                    template.device()
                ),
            );
        }
    }
    let mut kinds: Vec<DeviceKind> = stage.templates.keys().copied().collect();
    kinds.sort_by_key(|k| format!("{k:?}"));
    let Some((&first_kind, rest)) = kinds.split_first() else { return };
    let first = &stage.templates[&first_kind];
    for &kind in rest {
        let other = &stage.templates[&kind];
        if other.input_width() != first.input_width()
            || other.steps() != first.steps()
            || other.terminal() != first.terminal()
        {
            report.report(
                Code::HX002,
                Some(idx),
                format!(
                    "{kind:?} and {first_kind:?} templates disagree on the step blueprint \
                     (the device lowerings would compute different results)"
                ),
            );
        }
    }
}

/// Width propagation plus per-expression lints over one template.
fn check_template(
    idx: usize,
    template: &CompiledPipeline,
    state: &SharedState,
    report: &mut AnalysisReport,
) {
    let mut width = template.input_width();
    for step in template.steps() {
        if let Err(err) = step.check_width(width) {
            report.report(Code::HX001, Some(idx), err.to_string());
        }
        match step {
            Step::Filter { predicate } => {
                check_expr(idx, predicate, report);
                if !is_boolean_shaped(predicate) {
                    report.report(
                        Code::HX007,
                        Some(idx),
                        format!(
                            "filter predicate {predicate:?} is not boolean-shaped; \
                             non-zero-is-true semantics apply"
                        ),
                    );
                }
            }
            Step::Map { exprs } => exprs.iter().for_each(|e| check_expr(idx, e, report)),
            Step::HashJoinProbe { key, slot, payload_width } => {
                check_expr(idx, key, report);
                match state.object(*slot) {
                    Some(StateObject::HashTable(table)) => {
                        let built = table.payload_width();
                        if built != *payload_width {
                            report.report(
                                Code::HX003,
                                Some(idx),
                                format!(
                                    "probe of slot {} expects {payload_width} payload columns, \
                                     the build side stores {built}",
                                    slot.index()
                                ),
                            );
                        }
                    }
                    Some(other) => report.report(
                        Code::HX003,
                        Some(idx),
                        format!(
                            "probe references slot {} which holds {}",
                            slot.index(),
                            kind_name(other)
                        ),
                    ),
                    None => report.report(
                        Code::HX003,
                        Some(idx),
                        format!("probe references unknown state slot {}", slot.index()),
                    ),
                }
            }
        }
        width = step.output_width(width);
    }
    if let Err(err) = template.terminal().check_width(width) {
        report.report(Code::HX001, Some(idx), err.to_string());
    }
    check_terminal(idx, template.terminal(), state, report);
}

fn check_terminal(
    idx: usize,
    terminal: &TerminalStep,
    state: &SharedState,
    report: &mut AnalysisReport,
) {
    match terminal {
        TerminalStep::Pack { exprs } => exprs.iter().for_each(|e| check_expr(idx, e, report)),
        TerminalStep::HashJoinBuild { key, payload, slot } => {
            check_expr(idx, key, report);
            payload.iter().for_each(|e| check_expr(idx, e, report));
            match state.object(*slot) {
                Some(StateObject::HashTable(table)) => {
                    let payload_width = table.payload_width();
                    if payload_width != payload.len() {
                        report.report(
                            Code::HX003,
                            Some(idx),
                            format!(
                                "build into slot {} stores {} payload columns, the slot was \
                                 registered for {payload_width}",
                                slot.index(),
                                payload.len()
                            ),
                        );
                    }
                }
                Some(other) => report.report(
                    Code::HX003,
                    Some(idx),
                    format!(
                        "hash build targets slot {} which holds {}",
                        slot.index(),
                        kind_name(other)
                    ),
                ),
                None => report.report(
                    Code::HX003,
                    Some(idx),
                    format!("hash build targets unknown state slot {}", slot.index()),
                ),
            }
        }
        TerminalStep::Reduce { aggs, slot } => {
            aggs.iter().for_each(|a| check_expr(idx, &a.expr, report));
            match state.object(*slot) {
                Some(StateObject::Accumulators(acc)) => {
                    if acc.len() != aggs.len() {
                        report.report(
                            Code::HX003,
                            Some(idx),
                            format!(
                                "reduce updates {} aggregates, slot {} holds {} accumulators",
                                aggs.len(),
                                slot.index(),
                                acc.len()
                            ),
                        );
                    }
                }
                Some(other) => report.report(
                    Code::HX003,
                    Some(idx),
                    format!(
                        "reduce targets slot {} which holds {}",
                        slot.index(),
                        kind_name(other)
                    ),
                ),
                None => report.report(
                    Code::HX003,
                    Some(idx),
                    format!("reduce targets unknown state slot {}", slot.index()),
                ),
            }
        }
        TerminalStep::GroupBy { keys, aggs, slot } => {
            keys.iter().for_each(|e| check_expr(idx, e, report));
            aggs.iter().for_each(|a| check_expr(idx, &a.expr, report));
            match state.object(*slot) {
                Some(StateObject::GroupBy(table)) => {
                    if table.funcs().len() != aggs.len() {
                        report.report(
                            Code::HX003,
                            Some(idx),
                            format!(
                                "group-by updates {} aggregates, slot {} was registered for {}",
                                aggs.len(),
                                slot.index(),
                                table.funcs().len()
                            ),
                        );
                    }
                }
                Some(other) => report.report(
                    Code::HX003,
                    Some(idx),
                    format!(
                        "group-by targets slot {} which holds {}",
                        slot.index(),
                        kind_name(other)
                    ),
                ),
                None => report.report(
                    Code::HX003,
                    Some(idx),
                    format!("group-by targets unknown state slot {}", slot.index()),
                ),
            }
        }
    }
}

fn kind_name(object: &StateObject) -> &'static str {
    match object {
        StateObject::HashTable(_) => "a hash table",
        StateObject::Accumulators(_) => "an accumulator set",
        StateObject::GroupBy(_) => "a group-by table",
    }
}

/// Per-expression lints: `HX004` (division by constant zero) and `HX006`
/// (vectorized scratch depth).
fn check_expr(idx: usize, expr: &Expr, report: &mut AnalysisReport) {
    if divides_by_constant_zero(expr) {
        report.report(
            Code::HX004,
            Some(idx),
            format!("{expr:?} divides by a constant zero (defined to evaluate to 0)"),
        );
    }
    let depth = scratch_depth(expr);
    if depth > MAX_SCRATCH_DEPTH {
        report.report(
            Code::HX006,
            Some(idx),
            format!(
                "expression needs {depth} concurrently live scratch columns under the \
                 vectorized lowering (limit {MAX_SCRATCH_DEPTH}); chunk working set will \
                 spill out of L1"
            ),
        );
    }
}

fn divides_by_constant_zero(expr: &Expr) -> bool {
    match expr {
        Expr::Div(_, b) if matches!(**b, Expr::Lit(0)) => true,
        Expr::Col(_) | Expr::Lit(_) => false,
        Expr::Add(a, b)
        | Expr::Sub(a, b)
        | Expr::Mul(a, b)
        | Expr::Div(a, b)
        | Expr::Eq(a, b)
        | Expr::Ne(a, b)
        | Expr::Lt(a, b)
        | Expr::Le(a, b)
        | Expr::Gt(a, b)
        | Expr::Ge(a, b)
        | Expr::And(a, b)
        | Expr::Or(a, b) => divides_by_constant_zero(a) || divides_by_constant_zero(b),
        Expr::Not(a) | Expr::Between(a, _, _) | Expr::InList(a, _) => divides_by_constant_zero(a),
    }
}

/// Number of concurrently live scratch columns `Expr::eval_batch` rents for
/// this expression: a binary node evaluates its left side into the output
/// buffer, then rents one buffer for the right side while it recurses —
/// so the high-water mark is `max(depth(lhs), 1 + depth(rhs))`.
pub fn scratch_depth(expr: &Expr) -> usize {
    match expr {
        Expr::Col(_) | Expr::Lit(_) => 0,
        Expr::Add(a, b)
        | Expr::Sub(a, b)
        | Expr::Mul(a, b)
        | Expr::Div(a, b)
        | Expr::Eq(a, b)
        | Expr::Ne(a, b)
        | Expr::Lt(a, b)
        | Expr::Le(a, b)
        | Expr::Gt(a, b)
        | Expr::Ge(a, b)
        | Expr::And(a, b)
        | Expr::Or(a, b) => scratch_depth(a).max(1 + scratch_depth(b)),
        Expr::Not(a) | Expr::Between(a, _, _) | Expr::InList(a, _) => scratch_depth(a),
    }
}

/// True when the expression's top level yields 0/1 (comparison, connective,
/// range or membership test).
fn is_boolean_shaped(expr: &Expr) -> bool {
    matches!(
        expr,
        Expr::Eq(..)
            | Expr::Ne(..)
            | Expr::Lt(..)
            | Expr::Le(..)
            | Expr::Gt(..)
            | Expr::Ge(..)
            | Expr::And(..)
            | Expr::Or(..)
            | Expr::Not(..)
            | Expr::Between(..)
            | Expr::InList(..)
            | Expr::Lit(_)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_depth_counts_live_rentals() {
        assert_eq!(scratch_depth(&Expr::col(0)), 0);
        // One binary node: lhs into out, one rental for rhs.
        assert_eq!(scratch_depth(&Expr::col(0).eq(Expr::lit(1))), 1);
        // Left-deep chains stay at one live rental.
        let left_deep = Expr::col(0).and(Expr::col(1)).and(Expr::col(2)).and(Expr::col(3));
        assert_eq!(scratch_depth(&left_deep), 1);
        // Right-deep chains rent one buffer per level.
        let right_deep = Expr::And(
            Box::new(Expr::col(0)),
            Box::new(Expr::And(
                Box::new(Expr::col(1)),
                Box::new(Expr::And(Box::new(Expr::col(2)), Box::new(Expr::col(3)))),
            )),
        );
        assert_eq!(scratch_depth(&right_deep), 3);
    }

    #[test]
    fn division_by_constant_zero_is_found_anywhere() {
        let bad = Expr::col(0).eq(Expr::Div(Box::new(Expr::col(1)), Box::new(Expr::lit(0))));
        assert!(divides_by_constant_zero(&bad));
        let fine = Expr::Div(Box::new(Expr::col(1)), Box::new(Expr::lit(100)));
        assert!(!divides_by_constant_zero(&fine));
    }

    #[test]
    fn boolean_shape_detection() {
        assert!(is_boolean_shaped(&Expr::col(0).between(1, 3)));
        assert!(is_boolean_shaped(&Expr::col(0).eq(Expr::lit(1))));
        assert!(!is_boolean_shaped(&Expr::col(0)));
        assert!(!is_boolean_shaped(&Expr::col(0).mul(Expr::col(1))));
    }
}
