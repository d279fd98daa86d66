//! The code-generation context driven by the produce()/consume() traversal.
//!
//! §4.1: operators are code-generation modules exposing `produce()` and
//! `consume()`. The traversal itself lives with the plan operators (in
//! `hetex-core`); what this module provides is the context those methods
//! write into: the pipeline currently being generated and the shared state
//! slots (hash tables, accumulators) that pipelines reference across breaker
//! boundaries.
//!
//! A HetExchange or blocking operator "breaks" the current pipeline by calling
//! [`CodegenContext::finish_pipeline`], which hands back the compiled
//! pipeline; the next `produce()` below it starts a fresh one with
//! [`CodegenContext::begin_pipeline`]. A pipeline names no device: each
//! instance's execution context specializes it for the device it runs on.

use crate::ir::{AggSpec, StateSlot, Step, TerminalStep};
use crate::pipeline::CompiledPipeline;
use crate::state::SharedState;
use hetex_common::{HetError, PipelineId, Result};
use hetex_topology::DeviceKind;

/// A pipeline under construction.
#[derive(Debug)]
struct PipelineBuilder {
    input_width: usize,
    steps: Vec<Step>,
}

/// Collects shared state, and the open pipeline, while the plan is
/// traversed.
#[derive(Debug, Default)]
pub struct CodegenContext {
    state: SharedState,
    current: Option<PipelineBuilder>,
    next_id: usize,
}

impl CodegenContext {
    /// An empty context.
    pub fn new() -> Self {
        Self::default()
    }

    /// Start generating a new pipeline whose input blocks carry
    /// `input_width` columns. Fails if a pipeline is already open — a plan
    /// operator forgot to break it.
    pub fn begin_pipeline(&mut self, input_width: usize) -> Result<()> {
        if self.current.is_some() {
            return Err(HetError::Codegen(
                "begin_pipeline while another pipeline is still open".into(),
            ));
        }
        self.current = Some(PipelineBuilder { input_width, steps: Vec::new() });
        Ok(())
    }

    /// True if a pipeline is currently being generated.
    pub fn has_open_pipeline(&self) -> bool {
        self.current.is_some()
    }

    /// Number of registers currently flowing through the open pipeline.
    pub fn current_width(&self) -> Result<usize> {
        let builder =
            self.current.as_ref().ok_or_else(|| HetError::Codegen("no open pipeline".into()))?;
        Ok(builder.steps.iter().fold(builder.input_width, |w, s| s.output_width(w)))
    }

    /// Append a fused step to the open pipeline (what a non-breaking
    /// operator's `consume()` emits).
    pub fn push_step(&mut self, step: Step) -> Result<()> {
        let width = self.current_width()?;
        step.check_width(width)?;
        self.current.as_mut().expect("checked by current_width").steps.push(step);
        Ok(())
    }

    /// Seal the open pipeline with a terminal step (what a pipeline breaker's
    /// `consume()` emits) and return it compiled.
    pub fn finish_pipeline(&mut self, terminal: TerminalStep) -> Result<CompiledPipeline> {
        let builder = self
            .current
            .take()
            .ok_or_else(|| HetError::Codegen("finish_pipeline with no open pipeline".into()))?;
        let id = PipelineId::new(self.next_id);
        self.next_id += 1;
        CompiledPipeline::new(id, DeviceKind::CpuCore, builder.input_width, builder.steps, terminal)
    }

    /// Register a join hash table shared across pipelines.
    pub fn add_hash_table(&mut self, payload_width: usize) -> StateSlot {
        self.state.add_hash_table(payload_width)
    }

    /// Register ungrouped aggregate accumulators.
    pub fn add_accumulators(&mut self, aggs: &[AggSpec]) -> StateSlot {
        self.state.add_accumulators(aggs)
    }

    /// Register a group-by table.
    pub fn add_group_by(&mut self, aggs: &[AggSpec]) -> StateSlot {
        self.state.add_group_by(aggs)
    }

    /// Finish code generation, returning the shared state. Fails if a
    /// pipeline was left open.
    pub fn seal(self) -> Result<SharedState> {
        if self.current.is_some() {
            return Err(HetError::Codegen("code generation ended with an open pipeline".into()));
        }
        Ok(self.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;

    #[test]
    fn build_a_two_pipeline_plan() {
        // Build side pipeline, then probe+reduce pipeline — the skeleton of
        // the paper's running example.
        let mut ctx = CodegenContext::new();
        let ht = ctx.add_hash_table(1);
        let acc = ctx.add_accumulators(&[AggSpec::sum(Expr::col(2))]);

        ctx.begin_pipeline(2).unwrap();
        ctx.push_step(Step::Filter { predicate: Expr::col(0).gt_lit(0) }).unwrap();
        let build = ctx
            .finish_pipeline(TerminalStep::HashJoinBuild {
                key: Expr::col(0),
                payload: vec![Expr::col(1)],
                slot: ht,
            })
            .unwrap();

        ctx.begin_pipeline(2).unwrap();
        assert_eq!(ctx.current_width().unwrap(), 2);
        ctx.push_step(Step::HashJoinProbe { key: Expr::col(0), slot: ht, payload_width: 1 })
            .unwrap();
        assert_eq!(ctx.current_width().unwrap(), 3);
        let probe = ctx
            .finish_pipeline(TerminalStep::Reduce {
                aggs: vec![AggSpec::sum(Expr::col(2))],
                slot: acc,
            })
            .unwrap();

        assert_ne!(build.id(), probe.id());
        assert_eq!((build.steps().len(), probe.terminal_width()), (1, 3));
        let state = ctx.seal().unwrap();
        assert_eq!(state.len(), 2);
    }

    #[test]
    fn nested_begin_and_dangling_pipelines_are_errors() {
        let mut ctx = CodegenContext::new();
        ctx.begin_pipeline(1).unwrap();
        assert!(ctx.begin_pipeline(1).is_err());
        assert!(ctx.has_open_pipeline());
        // Sealing with an open pipeline is a codegen bug.
        assert!(ctx.seal().is_err());
    }

    #[test]
    fn steps_are_width_checked_during_generation() {
        let mut ctx = CodegenContext::new();
        ctx.begin_pipeline(2).unwrap();
        let bad = ctx.push_step(Step::Filter { predicate: Expr::col(7).gt_lit(0) });
        assert!(bad.is_err());
        // Width checks also apply to terminals.
        let bad_terminal = ctx.finish_pipeline(TerminalStep::Pack { exprs: vec![Expr::col(9)] });
        assert!(bad_terminal.is_err());
    }

    #[test]
    fn operations_without_open_pipeline_fail() {
        let mut ctx = CodegenContext::new();
        assert!(ctx.current_width().is_err());
        assert!(ctx.push_step(Step::Filter { predicate: Expr::lit(1) }).is_err());
        assert!(ctx.finish_pipeline(TerminalStep::Pack { exprs: vec![] }).is_err());
    }
}
