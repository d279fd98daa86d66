//! Code generation: from a heterogeneity-aware plan to a stage graph of
//! compiled pipelines.
//!
//! The traversal is the classic produce()/consume() scheme of §4.1: relational
//! operators append fused steps to the pipeline being generated, HetExchange
//! operators break pipelines and carry the *edge attributes* between them —
//! which routing policy distributes blocks, which devices the consumer is
//! instantiated on (and with what affinities), whether a mem-move localizes or
//! broadcasts the blocks. A stage holds one compiled pipeline: the router's
//! "parameterizable version of the pipeline per device" (§4.2) is that one
//! pipeline run through the execution context each instance builds for its
//! device, which picks the schedule and the charge.

use crate::plan::{DeviceTarget, HetNode, RouterPolicy};
use crate::router::{ConsumerSlot, Router};
use hetex_common::{EngineConfig, HetError, Result};
use hetex_jit::{
    CodegenContext, CompiledPipeline, Expr, SharedState, StateSlot, Step, TerminalStep,
};
use hetex_topology::{DeviceKind, ServerTopology};
use std::collections::HashMap;
use std::sync::Arc;

/// How incoming blocks are localized before an instance consumes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemMoveMode {
    /// No mem-move on this edge (blocks are consumed wherever they are).
    None,
    /// Move each block to the consuming instance's local memory node.
    ToInstance,
    /// Additionally broadcast each block to every GPU memory node (build-side
    /// dimension data for broadcast hash joins).
    Broadcast,
}

/// Where a stage's input blocks come from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StageSource {
    /// A base-table scan produced by the segmenter.
    Table { table: String, projection: Vec<String> },
    /// The output blocks of an earlier stage.
    Stage(usize),
}

/// One stage: a set of pipeline instances fed by a router.
#[derive(Debug)]
pub struct Stage {
    /// The stage's pipeline, run by every consumer instance whatever its
    /// device.
    pub pipeline: CompiledPipeline,
    /// Input blocks.
    pub source: StageSource,
    /// Consumer instances (device type + affinity), as planned by the router.
    pub consumers: Vec<ConsumerSlot>,
    /// Routing policy distributing input blocks over the consumers.
    pub policy: RouterPolicy,
    /// Whether a router operator is actually present (affects the ~10 ms
    /// router-initialization overhead of §6.4).
    pub has_router: bool,
    /// Mem-move behaviour on the stage's input edge.
    pub mem_move: MemMoveMode,
    /// Stages whose shared state (join hash tables) this stage's pipeline
    /// probes; they must complete before this stage starts.
    pub depends_on: Vec<usize>,
    /// True for the stage whose terminal state holds the query result.
    pub is_result: bool,
}

impl Stage {
    /// Output width of the stage's pipeline.
    pub fn output_width(&self) -> usize {
        self.pipeline.terminal().output_width()
    }
}

/// Explicit producer → consumer wiring of a stage graph, computed at compile
/// time so the pipelined executor can create its queues and dependency gates
/// without re-deriving the topology of the graph.
#[derive(Debug, Clone, Default)]
pub struct StageWiring {
    /// `feeds[i] = Some(j)` when stage `j` consumes stage `i`'s output blocks
    /// (the executor wires one queue per consumer slot of `j`, and stage `i`
    /// registers as their producer). `None` for sink stages.
    pub feeds: Vec<Option<usize>>,
    /// `unlocks[i]` = stages whose dependency gate opens (partially) when
    /// stage `i` completes — the inverse of `Stage::depends_on`.
    pub unlocks: Vec<Vec<usize>>,
}

impl StageWiring {
    /// Derive the wiring from compiled stages. Fails if two stages claim the
    /// same producer (plans are trees, so each stage feeds at most one).
    fn derive(stages: &[Stage]) -> Result<Self> {
        let mut feeds: Vec<Option<usize>> = vec![None; stages.len()];
        let mut unlocks: Vec<Vec<usize>> = vec![Vec::new(); stages.len()];
        for (idx, stage) in stages.iter().enumerate() {
            if let StageSource::Stage(src) = stage.source {
                if src >= stages.len() {
                    return Err(HetError::Codegen(format!(
                        "stage {idx} consumes unknown stage {src}"
                    )));
                }
                if let Some(prev) = feeds[src] {
                    return Err(HetError::Codegen(format!(
                        "stage {src} feeds both stage {prev} and stage {idx}"
                    )));
                }
                feeds[src] = Some(idx);
            }
            for &dep in &stage.depends_on {
                if dep >= stages.len() {
                    return Err(HetError::Codegen(format!(
                        "stage {idx} depends on unknown stage {dep}"
                    )));
                }
                unlocks[dep].push(idx);
            }
        }
        Ok(Self { feeds, unlocks })
    }
}

/// The compiled query: stages in execution order plus the shared state.
#[derive(Debug)]
pub struct StageGraph {
    /// Stages in a valid execution order (builds before probes).
    pub stages: Vec<Stage>,
    /// Shared state (hash tables, accumulators, group-by tables).
    pub state: SharedState,
    /// Producer → consumer wiring used by the pipelined executor.
    pub wiring: StageWiring,
}

impl StageGraph {
    /// Index of the result stage.
    pub fn result_stage(&self) -> Result<usize> {
        self.stages
            .iter()
            .position(|s| s.is_result)
            .ok_or_else(|| HetError::Codegen("plan has no result stage".into()))
    }
}

/// Compile a heterogeneity-aware plan into a stage graph.
pub fn compile(
    plan: &HetNode,
    config: &EngineConfig,
    topology: &Arc<ServerTopology>,
) -> Result<StageGraph> {
    let mut cg = Codegen {
        ctx: CodegenContext::new(),
        stages: Vec::new(),
        config,
        topology,
        build_stage_of_slot: HashMap::new(),
        core_offset: 0,
    };

    // Strip the result-gathering wrapper (union router / gpu2cpu above the
    // root aggregation): results are collected from shared state by the
    // executor's single result-collection step.
    let mut root = plan;
    loop {
        match root {
            HetNode::Router { input, policy: RouterPolicy::Union, .. } => root = input,
            HetNode::Gpu2Cpu { input } => root = input,
            _ => break,
        }
    }

    let result_stage = cg.compile_stage(root, true)?;
    cg.stages[result_stage].is_result = true;
    let state = cg.ctx.seal()?;
    let wiring = StageWiring::derive(&cg.stages)?;
    Ok(StageGraph { stages: cg.stages, state, wiring })
}

/// Edge attributes gathered while descending an input chain.
#[derive(Debug, Default, Clone)]
struct EdgeAttrs {
    policy: Option<RouterPolicy>,
    targets: Option<Vec<DeviceTarget>>,
    mem_move: Option<MemMoveMode>,
    crosses_to_gpu: bool,
}

struct Codegen<'a> {
    ctx: CodegenContext,
    stages: Vec<Stage>,
    config: &'a EngineConfig,
    topology: &'a Arc<ServerTopology>,
    /// Which stage builds each hash-table slot.
    build_stage_of_slot: HashMap<usize, usize>,
    /// Running count of planned CPU instances: each stage's consumers are
    /// staggered past the previous stages' so concurrently running pipelines
    /// land on disjoint cores when the topology has enough.
    core_offset: usize,
}

impl<'a> Codegen<'a> {
    /// Compile the subtree rooted at a pipeline-terminal node (pack, reduce,
    /// group-by) into a stage; returns its index.
    fn compile_stage(&mut self, node: &HetNode, is_result: bool) -> Result<usize> {
        let (terminal, body) = match node {
            HetNode::Pack { input } => {
                let width = self.walk_body(input)?;
                let exprs: Vec<Expr> = (0..width.width).map(Expr::col).collect();
                (TerminalStep::Pack { exprs }, width)
            }
            HetNode::Reduce { input, aggs, .. } => {
                let body = self.walk_body(input)?;
                let slot = self.ctx.add_accumulators(aggs);
                (TerminalStep::Reduce { aggs: aggs.clone(), slot }, body)
            }
            HetNode::GroupBy { input, keys, aggs, .. } => {
                let body = self.walk_body(input)?;
                let slot = self.ctx.add_group_by(aggs);
                (
                    TerminalStep::GroupBy {
                        keys: keys.iter().map(|&k| Expr::col(k)).collect(),
                        aggs: aggs.clone(),
                        slot,
                    },
                    body,
                )
            }
            other => {
                return Err(HetError::Codegen(format!(
                    "expected a pipeline-terminal operator at a stage root, found {other:?}"
                )))
            }
        };
        let _ = is_result;
        self.seal_stage(terminal, body)
    }

    /// Walk the relational body of a pipeline (filters, projections, probes)
    /// down to its input chain; returns the open pipeline's body description.
    fn walk_body(&mut self, node: &HetNode) -> Result<OpenBody> {
        match node {
            HetNode::Filter { input, predicate } => {
                let mut body = self.walk_body(input)?;
                self.ctx.push_step(Step::Filter { predicate: predicate.clone() })?;
                body.width = self.ctx.current_width()?;
                Ok(body)
            }
            HetNode::Project { input, exprs, .. } => {
                let mut body = self.walk_body(input)?;
                self.ctx.push_step(Step::Map { exprs: exprs.clone() })?;
                body.width = self.ctx.current_width()?;
                Ok(body)
            }
            HetNode::HashJoin { build, probe, build_key, probe_key, payload } => {
                // Compile the entire build side first: it becomes one or more
                // stages ending in a HashJoinBuild terminal.
                let (slot, build_stage) = self.compile_build_side(build, *build_key, payload)?;
                // Then continue with the probe side in the current pipeline.
                let mut body = self.walk_body(probe)?;
                self.ctx.push_step(Step::HashJoinProbe {
                    key: Expr::col(*probe_key),
                    slot,
                    payload_width: payload.len(),
                })?;
                body.width = self.ctx.current_width()?;
                body.depends_on.push(build_stage);
                Ok(body)
            }
            // Input-chain operators: this is where the pipeline begins.
            HetNode::Unpack { .. }
            | HetNode::MemMove { .. }
            | HetNode::Cpu2Gpu { .. }
            | HetNode::Gpu2Cpu { .. }
            | HetNode::Router { .. }
            | HetNode::Segmenter { .. } => self.open_pipeline_from_chain(node),
            HetNode::Pack { .. } | HetNode::Reduce { .. } | HetNode::GroupBy { .. } => {
                Err(HetError::Codegen(
                    "nested pipeline terminal encountered inside a pipeline body".into(),
                ))
            }
        }
    }

    /// Descend an input chain (unpack / mem-move / crossings / router /
    /// segmenter or an upstream packed stage), record the edge attributes and
    /// open the new pipeline.
    fn open_pipeline_from_chain(&mut self, node: &HetNode) -> Result<OpenBody> {
        let mut attrs = EdgeAttrs::default();
        let mut cursor = node;
        let (source, width) = loop {
            match cursor {
                HetNode::Unpack { input } => cursor = input,
                HetNode::MemMove { input, broadcast } => {
                    attrs.mem_move = Some(if *broadcast {
                        MemMoveMode::Broadcast
                    } else {
                        MemMoveMode::ToInstance
                    });
                    cursor = input;
                }
                HetNode::Cpu2Gpu { input } => {
                    attrs.crosses_to_gpu = true;
                    cursor = input;
                }
                HetNode::Gpu2Cpu { input } => cursor = input,
                HetNode::Router { input, policy, targets } => {
                    attrs.policy = Some(*policy);
                    attrs.targets = Some(targets.clone());
                    cursor = input;
                }
                HetNode::Segmenter { table, projection } => {
                    break (
                        StageSource::Table { table: table.clone(), projection: projection.clone() },
                        projection.len(),
                    );
                }
                packed @ (HetNode::Pack { .. }
                | HetNode::Reduce { .. }
                | HetNode::GroupBy { .. }) => {
                    let stage = self.compile_stage(packed, false)?;
                    let width = self.stages[stage].output_width();
                    // Upstream packed stages feed blocks, not state;
                    // consuming them does not require a dependency gate —
                    // blocks flow through the queue as they are produced.
                    break (StageSource::Stage(stage), width);
                }
                other => {
                    return Err(HetError::Codegen(format!(
                        "unexpected operator in an input chain: {other:?}"
                    )))
                }
            }
        };
        self.ctx.begin_pipeline(width)?;
        Ok(OpenBody { source, width, attrs, depends_on: Vec::new() })
    }

    /// Compile the build side of a hash join into its stages and register the
    /// hash-table slot. Returns `(slot, build_stage_index)`.
    fn compile_build_side(
        &mut self,
        build: &HetNode,
        build_key: usize,
        payload: &[usize],
    ) -> Result<(StateSlot, usize)> {
        let slot = self.ctx.add_hash_table(payload.len());
        // The build subtree produced by the parallelizer is
        // Unpack(MemMove(Pack(...))) — an input chain over a packed stage.
        let body = self.open_pipeline_from_chain(build)?;
        let terminal = TerminalStep::HashJoinBuild {
            key: Expr::col(build_key),
            payload: payload.iter().map(|&p| Expr::col(p)).collect(),
            slot,
        };
        let stage = self.seal_stage(terminal, body)?;
        self.build_stage_of_slot.insert(slot.index(), stage);
        Ok((slot, stage))
    }

    /// Seal the currently open pipeline into a stage.
    fn seal_stage(&mut self, terminal: TerminalStep, body: OpenBody) -> Result<usize> {
        let pipeline = self.ctx.finish_pipeline(terminal)?;

        // Resolve the consumer instances from the router targets (or a single
        // sequential CPU/GPU instance when no router is present).
        let targets = body.attrs.targets.clone().unwrap_or_else(|| {
            if body.attrs.crosses_to_gpu {
                vec![DeviceTarget::gpu(1)]
            } else {
                vec![DeviceTarget::cpu(1)]
            }
        });
        let consumers = Router::plan_consumers_offset(&targets, self.topology, self.core_offset)?;
        self.core_offset += consumers.iter().filter(|c| c.kind == DeviceKind::CpuCore).count();

        let mut depends_on = body.depends_on;
        depends_on.sort_unstable();
        depends_on.dedup();

        let stage = Stage {
            pipeline,
            source: body.source,
            consumers,
            policy: body.attrs.policy.unwrap_or(RouterPolicy::RoundRobin),
            has_router: body.attrs.policy.is_some() && self.config.hetexchange_enabled,
            mem_move: body.attrs.mem_move.unwrap_or(MemMoveMode::None),
            depends_on,
            is_result: false,
        };
        self.stages.push(stage);
        Ok(self.stages.len() - 1)
    }
}

/// Description of a pipeline body while it is still open in the codegen
/// context.
#[derive(Debug)]
struct OpenBody {
    source: StageSource,
    width: usize,
    attrs: EdgeAttrs,
    depends_on: Vec<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parallelize, RelNode};
    use hetex_jit::AggSpec;

    fn ssb_like_plan() -> RelNode {
        let dates = RelNode::scan("date", &["d_datekey", "d_year"])
            .filter(Expr::col(1).eq(Expr::lit(1993)));
        RelNode::scan("lineorder", &["lo_orderdate", "lo_discount", "lo_revenue"])
            .filter(Expr::col(1).between(1, 3))
            .hash_join(dates, 0, 0, &[1])
            .reduce(vec![AggSpec::sum(Expr::col(2))], &["revenue"])
    }

    fn compile_for(config: &EngineConfig) -> StageGraph {
        let topology = ServerTopology::paper_server();
        let het = parallelize(&ssb_like_plan(), config).unwrap();
        compile(&het, config, &topology).unwrap()
    }

    #[test]
    fn hybrid_query_produces_build_and_probe_stages() {
        let graph = compile_for(&EngineConfig::hybrid(8, 2));
        // Stage 0: dimension scan+filter+pack; stage 1: hash build;
        // stage 2: fact scan+filter+probe+reduce (the result stage).
        assert_eq!(graph.stages.len(), 3);
        assert_eq!(graph.result_stage().unwrap(), 2);
        assert!(matches!(graph.stages[0].source, StageSource::Table { .. }));
        assert_eq!(graph.stages[1].source, StageSource::Stage(0));
        assert!(matches!(graph.stages[2].source, StageSource::Table { .. }));
        // The probe stage depends on the build stage's completion.
        assert_eq!(graph.stages[2].depends_on, vec![1]);
        // Shared state: one hash table + one accumulator set.
        assert_eq!(graph.state.len(), 2);
    }

    #[test]
    fn hybrid_result_stage_has_cpu_and_gpu_consumers_and_one_pipeline() {
        let graph = compile_for(&EngineConfig::hybrid(8, 2));
        let result = &graph.stages[2];
        let kinds = |kind| result.consumers.iter().filter(|c| c.kind == kind).count();
        assert_eq!((kinds(DeviceKind::CpuCore), kinds(DeviceKind::Gpu)), (8, 2));
        assert_eq!(result.policy, RouterPolicy::LeastLoaded);
        assert!(result.has_router);
        assert_eq!(result.mem_move, MemMoveMode::ToInstance);
        // Both kinds run the one pipeline: filter, probe, reduce.
        assert_eq!(result.pipeline.steps().len(), 2);
        assert!(matches!(result.pipeline.terminal(), TerminalStep::Reduce { .. }));
    }

    #[test]
    fn build_side_broadcasts_only_when_gpus_participate() {
        let hybrid = compile_for(&EngineConfig::hybrid(8, 2));
        assert_eq!(hybrid.stages[1].mem_move, MemMoveMode::Broadcast);
        let cpu_only = compile_for(&EngineConfig::cpu_only(8));
        assert_eq!(cpu_only.stages[1].mem_move, MemMoveMode::ToInstance);
        // CPU-only plans never instantiate a GPU consumer.
        let mut consumers = cpu_only.stages.iter().flat_map(|s| &s.consumers);
        assert!(consumers.all(|c| c.kind == DeviceKind::CpuCore));
    }

    #[test]
    fn gpu_only_main_stage_runs_on_gpus() {
        let graph = compile_for(&EngineConfig::gpu_only(2));
        let result = &graph.stages[graph.result_stage().unwrap()];
        assert!(result.consumers.iter().all(|c| c.kind == DeviceKind::Gpu));
        assert_eq!(result.consumers.len(), 2);
    }

    #[test]
    fn disabled_hetexchange_is_sequential_without_routers() {
        let mut config = EngineConfig::cpu_only(1);
        config.hetexchange_enabled = false;
        let graph = compile_for(&config);
        for stage in &graph.stages {
            assert!(!stage.has_router);
            assert_eq!(stage.consumers.len(), 1);
        }
    }

    #[test]
    fn wiring_connects_producers_to_consumers_and_inverts_gates() {
        let graph = compile_for(&EngineConfig::hybrid(8, 2));
        // Stage 0 (dimension scan) feeds stage 1 (hash build); the probe
        // stage (2) reads a base table, so nothing feeds it and it feeds
        // no-one (it is the result sink).
        assert_eq!(graph.wiring.feeds, vec![Some(1), None, None]);
        // Build completion unlocks the probe stage's gate.
        assert_eq!(graph.wiring.unlocks[1], vec![2]);
        assert!(graph.wiring.unlocks[0].is_empty());
        assert!(graph.wiring.unlocks[2].is_empty());
    }
}
