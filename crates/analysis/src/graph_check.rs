//! Stage-graph linting (`HX010`–`HX014`).
//!
//! The stage graph is the control plane of the pipelined executor: `feeds`
//! edges become block queues, `depends_on` edges become dependency gates.
//! These checks prove the graph is a DAG whose queues all have a producer
//! and a consumer, whose gates exactly mirror the hash-build dependencies
//! the probes actually have, and whose consumer instances name real,
//! non-excluded devices of the topology.

use crate::diagnostics::{AnalysisReport, Code};
use hetex_core::codegen::{StageGraph, StageSource};
use hetex_jit::{Step, TerminalStep};
use hetex_topology::ServerTopology;

/// Run every graph check.
pub fn check(graph: &StageGraph, topology: &ServerTopology, report: &mut AnalysisReport) {
    check_wiring(graph, report);
    check_cycles(graph, report);
    check_gates(graph, report);
    check_consumers(graph, topology, report);
    check_result_stage(graph, report);
}

/// `HX011`: sources resolve, `wiring.feeds` mirrors them, and no stage's
/// output is silently dropped.
fn check_wiring(graph: &StageGraph, report: &mut AnalysisReport) {
    let n = graph.stages.len();
    if graph.wiring.feeds.len() != n || graph.wiring.unlocks.len() != n {
        report.report(
            Code::HX011,
            None,
            format!(
                "wiring covers {} feeds / {} unlocks entries for {n} stages",
                graph.wiring.feeds.len(),
                graph.wiring.unlocks.len()
            ),
        );
        return;
    }
    for (idx, stage) in graph.stages.iter().enumerate() {
        if let StageSource::Stage(src) = stage.source {
            if src >= n {
                report.report(
                    Code::HX011,
                    Some(idx),
                    format!("consumes unknown stage {src} ({n} stages exist)"),
                );
            } else if graph.wiring.feeds[src] != Some(idx) {
                report.report(
                    Code::HX011,
                    Some(idx),
                    format!(
                        "consumes stage {src}, but wiring.feeds[{src}] = {:?} — the executor \
                         would wire the queue elsewhere",
                        graph.wiring.feeds[src]
                    ),
                );
            }
        }
    }
    for (src, &target) in graph.wiring.feeds.iter().enumerate() {
        if let Some(target) = target {
            let claimed =
                graph.stages.get(target).is_some_and(|s| s.source == StageSource::Stage(src));
            if !claimed {
                report.report(
                    Code::HX011,
                    Some(src),
                    format!(
                        "wiring.feeds[{src}] = Some({target}), but stage {target} does not \
                         consume stage {src}"
                    ),
                );
            }
        }
    }
    // A non-result sink nobody gates on produces blocks (or state) that no
    // one will ever read — dead weight at best, a wedged producer at worst.
    for (idx, stage) in graph.stages.iter().enumerate() {
        let feeds_someone = graph.wiring.feeds[idx].is_some();
        let gates_someone = graph.stages.iter().any(|s| s.depends_on.contains(&idx));
        if !stage.is_result && !feeds_someone && !gates_someone {
            report.report(
                Code::HX011,
                Some(idx),
                "orphan stage: not the result, feeds no queue and unlocks no gate",
            );
        }
    }
}

/// `HX010`: the graph (feeds + depends-on edges) must be acyclic.
fn check_cycles(graph: &StageGraph, report: &mut AnalysisReport) {
    let n = graph.stages.len();
    // Edges point from a stage to the stages that must wait for it.
    let mut successors: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (idx, stage) in graph.stages.iter().enumerate() {
        if let StageSource::Stage(src) = stage.source {
            if src < n {
                successors[src].push(idx);
            }
        }
        for &dep in &stage.depends_on {
            if dep < n {
                successors[dep].push(idx);
            }
        }
    }
    // Iterative colored DFS.
    const WHITE: u8 = 0;
    const GRAY: u8 = 1;
    const BLACK: u8 = 2;
    let mut color = vec![WHITE; n];
    for root in 0..n {
        if color[root] != WHITE {
            continue;
        }
        let mut stack = vec![(root, 0usize)];
        color[root] = GRAY;
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            if *next < successors[node].len() {
                let succ = successors[node][*next];
                *next += 1;
                match color[succ] {
                    WHITE => {
                        color[succ] = GRAY;
                        stack.push((succ, 0));
                    }
                    GRAY => {
                        report.report(
                            Code::HX010,
                            Some(succ),
                            format!(
                                "stage-graph cycle: stage {node} reaches stage {succ} which is \
                                 an ancestor of stage {node}"
                            ),
                        );
                        return;
                    }
                    _ => {}
                }
            } else {
                color[node] = BLACK;
                stack.pop();
            }
        }
    }
}

/// `HX012`: gates exactly mirror hash-build dependencies, and
/// `wiring.unlocks` is the inverse of `depends_on`.
fn check_gates(graph: &StageGraph, report: &mut AnalysisReport) {
    let n = graph.stages.len();
    // Which stage builds each hash-table slot.
    let build_stage_of_slot = |slot: usize| -> Option<usize> {
        graph.stages.iter().position(|s| {
            matches!(s.pipeline.terminal(), TerminalStep::HashJoinBuild { slot: s, .. }
                if s.index() == slot)
        })
    };
    for (idx, stage) in graph.stages.iter().enumerate() {
        for step in stage.pipeline.steps() {
            let Step::HashJoinProbe { slot, .. } = step else { continue };
            match build_stage_of_slot(slot.index()) {
                Some(build) if stage.depends_on.contains(&build) => {}
                Some(build) => report.report(
                    Code::HX012,
                    Some(idx),
                    format!(
                        "probes slot {} built by stage {build}, but the gate is missing from \
                         depends_on {:?} — the probe could run against a half-built table",
                        slot.index(),
                        stage.depends_on
                    ),
                ),
                None => report.report(
                    Code::HX012,
                    Some(idx),
                    format!("probes slot {} which no stage builds", slot.index()),
                ),
            }
        }
        for &dep in &stage.depends_on {
            if dep >= n {
                report.report(Code::HX012, Some(idx), format!("depends on unknown stage {dep}"));
                continue;
            }
            let builds_something =
                matches!(graph.stages[dep].pipeline.terminal(), TerminalStep::HashJoinBuild { .. });
            if !builds_something {
                report.report(
                    Code::HX012,
                    Some(idx),
                    format!("gates on stage {dep}, which builds no hash table"),
                );
            }
        }
    }
    if graph.wiring.unlocks.len() == n {
        for (idx, stage) in graph.stages.iter().enumerate() {
            for &dep in &stage.depends_on {
                if dep < n && !graph.wiring.unlocks[dep].contains(&idx) {
                    report.report(
                        Code::HX012,
                        Some(idx),
                        format!(
                            "depends on stage {dep}, but wiring.unlocks[{dep}] = {:?} does not \
                             open this stage's gate — the stage would wait forever",
                            graph.wiring.unlocks[dep]
                        ),
                    );
                }
            }
        }
        for (dep, unlocked) in graph.wiring.unlocks.iter().enumerate() {
            for &idx in unlocked {
                let gated = graph.stages.get(idx).is_some_and(|s| s.depends_on.contains(&dep));
                if !gated {
                    report.report(
                        Code::HX012,
                        Some(dep),
                        format!(
                            "wiring.unlocks[{dep}] opens stage {idx}, which does not depend \
                             on stage {dep}"
                        ),
                    );
                }
            }
        }
    }
}

/// `HX013`: every consumer instance names a real, non-excluded device of its
/// kind.
fn check_consumers(graph: &StageGraph, topology: &ServerTopology, report: &mut AnalysisReport) {
    for (idx, stage) in graph.stages.iter().enumerate() {
        if stage.consumers.is_empty() {
            report.report(Code::HX013, Some(idx), "stage has no consumer instances");
            continue;
        }
        for (slot_idx, consumer) in stage.consumers.iter().enumerate() {
            let Some(device) = consumer.affinity.for_kind(consumer.kind) else {
                report.report(
                    Code::HX013,
                    Some(idx),
                    format!(
                        "consumer {slot_idx} ({:?}) has no affinity for its own device kind",
                        consumer.kind
                    ),
                );
                continue;
            };
            match topology.device(device) {
                Err(_) => report.report(
                    Code::HX013,
                    Some(idx),
                    format!("consumer {slot_idx} is pinned to unknown device {device:?}"),
                ),
                Ok(profile) if profile.kind != consumer.kind => report.report(
                    Code::HX013,
                    Some(idx),
                    format!(
                        "consumer {slot_idx} is a {:?} instance pinned to {device:?}, \
                         a {:?} device",
                        consumer.kind, profile.kind
                    ),
                ),
                Ok(_) if topology.is_excluded(device) => report.report(
                    Code::HX013,
                    Some(idx),
                    format!(
                        "consumer {slot_idx} is pinned to {device:?}, which the topology \
                         has excluded"
                    ),
                ),
                Ok(_) => {}
            }
        }
    }
}

/// `HX014`: exactly one result stage, and it must be a sink.
fn check_result_stage(graph: &StageGraph, report: &mut AnalysisReport) {
    let results: Vec<usize> =
        graph.stages.iter().enumerate().filter_map(|(idx, s)| s.is_result.then_some(idx)).collect();
    match results.as_slice() {
        [] => report.report(Code::HX014, None, "plan has no result stage"),
        [result] => {
            let consumed =
                graph.stages.iter().position(|s| s.source == StageSource::Stage(*result));
            if let Some(consumer) = consumed {
                report.report(
                    Code::HX014,
                    Some(*result),
                    format!("result stage feeds stage {consumer}; the result must be a sink"),
                );
            }
        }
        many => report.report(
            Code::HX014,
            None,
            format!("plan has {} result stages: {many:?}", many.len()),
        ),
    }
}
