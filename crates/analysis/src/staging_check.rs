//! Staging deadlock-freedom as a static proof (`HX020`–`HX021`).
//!
//! The pipelined executor backs every queued block with a byte lease from the
//! destination memory node's staging arena, split into per-queue admission
//! quotas. The §4.2 lease-ordering argument (DESIGN.md) that this cannot
//! deadlock has one hard precondition — the budget covers at least one
//! estimated maximum-size block per device instance — and one soft regime:
//! multi-stage plans place more queues than device instances on a node, so
//! per-queue carve-outs can fall below one block, at which point liveness
//! rests on the empty-accounts-admit rule at the price of near-lockstep
//! progress. [`check`] proves the hard floor (`HX020`, error — also proved
//! by `EngineConfig::validate`, but re-proved here so plans checked outside
//! the engine path are covered) and flags the degraded regime (`HX021`,
//! warning) from the *actual* consumer→node mapping the executor will use.

use crate::diagnostics::{AnalysisReport, Code};
use hetex_common::{EngineConfig, MemoryNodeId};
use hetex_core::codegen::StageGraph;
use hetex_topology::ServerTopology;
use std::collections::HashMap;

/// Run the staging checks.
pub fn check(
    graph: &StageGraph,
    config: &EngineConfig,
    topology: &ServerTopology,
    report: &mut AnalysisReport,
) {
    let budget = config.staging_bytes;
    let block = config.est_max_block_bytes();
    let floor = config.min_staging_bytes();
    if budget < floor {
        report.report(
            Code::HX020,
            None,
            format!(
                "staging_bytes ({budget}) is below the deadlock-freedom floor of one \
                 {block}-byte block per device instance ({} instances = {floor} bytes); \
                 a parked producer could starve every consumer of a node",
                config.total_dop().max(1)
            ),
        );
        return;
    }
    // The soft regime: per-queue carve-outs (an even `budget / consumers`
    // share per node) below one block. Live, but progress degrades to
    // near-lockstep block-at-a-time flow on that node.
    for (node, consumers) in sorted(consumers_per_node(graph, topology)) {
        let share = budget / consumers as u64;
        if share < block {
            report.report(
                Code::HX021,
                None,
                format!(
                    "memory node {node} stages queues for {consumers} consumers across all \
                     stages; the even quota carve-out ({share} bytes) is below one \
                     {block}-byte block, so admission degrades to block-at-a-time flow"
                ),
            );
        }
    }
}

/// The consumer→staging-node mapping the pipelined executor derives: each
/// consumer's queue stages blocks in the local memory of the device the
/// instance is pinned to.
fn consumers_per_node(
    graph: &StageGraph,
    topology: &ServerTopology,
) -> HashMap<MemoryNodeId, usize> {
    let mut per_node: HashMap<MemoryNodeId, usize> = HashMap::new();
    for stage in &graph.stages {
        for consumer in &stage.consumers {
            // Consumers with unknown devices are reported as HX013; skip
            // them here rather than double-reporting.
            let Some(device) = consumer.affinity.for_kind(consumer.kind) else { continue };
            let Ok(node) = topology.local_memory_of(device) else { continue };
            *per_node.entry(node).or_default() += 1;
        }
    }
    per_node
}

fn sorted(map: HashMap<MemoryNodeId, usize>) -> Vec<(MemoryNodeId, usize)> {
    let mut entries: Vec<_> = map.into_iter().collect();
    entries.sort_by_key(|(node, _)| *node);
    entries
}
