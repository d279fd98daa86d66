//! The per-tuple interpreter: a test-only oracle for the two lowerings.
//!
//! This is the right-hand side of Figure 3 taken literally, as specialized by
//! the CPU provider: `threadIdInWorker = 0`, `#threadsInWorker = 1`, the
//! neighborhood reduction disappears, and the worker-scoped atomic
//! degenerates to one atomic merge of the block-local partial aggregates per
//! block. It shares no chunk, selection-vector or batch hash code with
//! [`crate::lower_cpu_vec`], so that lowering's kernel tests compare their
//! counters and block order against it. It is compiled under `cfg(test)`
//! only; no pipeline dispatches to it.

use crate::expr::Expr;
use crate::ir::{AggSpec, Step, TerminalStep};
use crate::pipeline::{BlockCounters, CompiledPipeline, ExecCtx};
use crate::state::{FlatGroups, SharedState};
use hetex_common::{BlockHandle, HetError, Result};

/// Apply the transform steps to one tuple, invoking `emit` for every tuple
/// that reaches the terminal (a probe with several matches fans out).
fn apply_transforms<E>(
    steps: &[Step],
    state: &SharedState,
    regs: Vec<i64>,
    probes: &mut u64,
    matches: &mut u64,
    emit: &mut E,
) -> Result<()>
where
    E: FnMut(Vec<i64>) -> Result<()>,
{
    apply_from(steps, 0, state, regs, probes, matches, emit)
}

fn apply_from<E>(
    steps: &[Step],
    idx: usize,
    state: &SharedState,
    regs: Vec<i64>,
    probes: &mut u64,
    matches: &mut u64,
    emit: &mut E,
) -> Result<()>
where
    E: FnMut(Vec<i64>) -> Result<()>,
{
    if idx == steps.len() {
        return emit(regs);
    }
    match &steps[idx] {
        Step::Filter { predicate } => {
            if predicate.eval_bool(&regs) {
                apply_from(steps, idx + 1, state, regs, probes, matches, emit)?;
            }
            Ok(())
        }
        Step::Map { exprs } => {
            let mapped: Vec<i64> = exprs.iter().map(|e| e.eval(&regs)).collect();
            apply_from(steps, idx + 1, state, mapped, probes, matches, emit)
        }
        Step::HashJoinProbe { key, slot, payload_width } => {
            let k = key.eval(&regs);
            *probes += 1;
            let table = state.hash_table_of_width(*slot, *payload_width)?;
            let mut found: Vec<Vec<i64>> = Vec::new();
            table.probe(k, |payload| found.push(payload.to_vec()));
            *matches += found.len() as u64;
            for payload in found {
                let mut widened = regs.clone();
                widened.extend_from_slice(&payload);
                apply_from(steps, idx + 1, state, widened, probes, matches, emit)?;
            }
            Ok(())
        }
    }
}

/// Evaluate the pack layout for one tuple.
fn eval_row(exprs: &[Expr], regs: &[i64]) -> Vec<i64> {
    exprs.iter().map(|e| e.eval(regs)).collect()
}

/// Process one block with the CPU specialization.
pub(crate) fn process_block(
    pipeline: &CompiledPipeline,
    block: &BlockHandle,
    state: &SharedState,
    ctx: &mut ExecCtx,
) -> Result<(Vec<BlockHandle>, BlockCounters)> {
    let rows = block.rows();
    let data = block.block();
    let columns: Vec<_> = data.columns().collect();
    let mut counters = BlockCounters {
        rows_in: rows as u64,
        bytes_in: data.byte_size() as u64,
        ..Default::default()
    };

    // Block-local terminal state (the CPU provider's "thread-local variables").
    let mut partials: Vec<i64> = match pipeline.terminal() {
        TerminalStep::Reduce { aggs, .. } => aggs.iter().map(|a| a.func.identity()).collect(),
        _ => Vec::new(),
    };
    let mut local_groups = match pipeline.terminal() {
        TerminalStep::GroupBy { keys, aggs, .. } => FlatGroups::new(keys.len(), aggs),
        _ => FlatGroups::default(),
    };
    ctx.open_pack(pipeline.terminal());
    let mut outputs: Vec<BlockHandle> = Vec::new();

    let mut probes = 0u64;
    let mut probe_matches = 0u64;
    let mut rows_terminal = 0u64;
    let mut build_inserts = 0u64;

    let steps = pipeline.steps();
    let terminal = pipeline.terminal();

    for row in 0..rows {
        let regs = columns
            .iter()
            .enumerate()
            .map(|(c, col)| {
                col.get_i64(row).ok_or_else(|| {
                    HetError::Execution(format!("input column {c} is not an integer column"))
                })
            })
            .collect::<Result<Vec<i64>>>()?;
        apply_transforms(steps, state, regs, &mut probes, &mut probe_matches, &mut |r| {
            rows_terminal += 1;
            match terminal {
                TerminalStep::Pack { exprs } => {
                    // One tuple at a time into the same open block the
                    // chunk kernel fills a column run at a time.
                    let open = &mut ctx.open;
                    for (column, expr) in open.columns.iter_mut().zip(exprs) {
                        column.push(expr.eval(&r));
                    }
                    open.rows += 1;
                    if open.rows >= ctx.out_capacity {
                        outputs.push(ctx.flush_full(&mut counters)?);
                    }
                }
                TerminalStep::HashJoinBuild { key, payload, slot } => {
                    let k = key.eval(&r);
                    let row_payload = eval_row(payload, &r);
                    state.hash_table_of_width(*slot, payload.len())?.insert(k, row_payload);
                    build_inserts += 1;
                }
                TerminalStep::Reduce { aggs, .. } => {
                    accumulate_local(aggs, &r, &mut partials);
                }
                TerminalStep::GroupBy { keys, aggs, .. } => {
                    let key = eval_row(keys, &r);
                    accumulate_local(aggs, &r, local_groups.entry(&key));
                }
            }
            Ok(())
        })?;
    }

    // Merge the block-local partials into shared state: this is the
    // `workerScopedAtomic` of the CPU provider — one synchronization per
    // block, not per tuple.
    match terminal {
        TerminalStep::Reduce { aggs, slot } => {
            state.accumulators(*slot)?.merge_partials(&partials);
            counters.atomics += aggs.len() as u64;
        }
        TerminalStep::GroupBy { slot, .. } => {
            if !local_groups.is_empty() {
                state.group_by(*slot)?.absorb(&mut local_groups);
                counters.atomics += 1;
            }
        }
        TerminalStep::HashJoinBuild { .. } => {
            counters.atomics += build_inserts;
        }
        TerminalStep::Pack { .. } => {}
    }

    counters.probes = probes;
    counters.probe_matches = probe_matches;
    counters.rows_terminal = rows_terminal;
    Ok((outputs, counters))
}

/// Accumulate one tuple into block-local aggregate partials.
fn accumulate_local(aggs: &[AggSpec], regs: &[i64], partials: &mut [i64]) {
    for (i, agg) in aggs.iter().enumerate() {
        let value = agg.expr.eval(regs);
        partials[i] = agg.func.accumulate(partials[i], value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use hetex_common::{Block, BlockId, BlockMeta, ColumnData, MemoryNodeId, PipelineId};
    use hetex_topology::DeviceKind;

    fn block_of(a: Vec<i64>, b: Vec<i64>) -> BlockHandle {
        let rows = a.len();
        let block = Block::new(vec![ColumnData::Int64(a), ColumnData::Int64(b)], rows).unwrap();
        BlockHandle::new(block, BlockMeta::new(BlockId::new(0), MemoryNodeId::new(0)))
    }

    // These tests pin the interpreter itself, against hand-computed values.
    fn cpu_ctx(capacity: usize) -> ExecCtx {
        ExecCtx::cpu(MemoryNodeId::new(0), capacity)
    }

    #[test]
    fn filtered_sum_matches_reference() {
        // SELECT SUM(b) FROM t WHERE a > 42 — the paper's running example.
        let a: Vec<i64> = (0..1000).map(|i| i % 100).collect();
        let b: Vec<i64> = (0..1000).map(|i| i * 3).collect();
        let expected: i64 = a.iter().zip(&b).filter(|(av, _)| **av > 42).map(|(_, bv)| *bv).sum();

        let mut state = SharedState::new();
        let slot = state.add_accumulators(&[AggSpec::sum(Expr::col(1))]);
        let pipeline = CompiledPipeline::new(
            PipelineId::new(9),
            DeviceKind::CpuCore,
            2,
            vec![Step::Filter { predicate: Expr::col(0).gt_lit(42) }],
            TerminalStep::Reduce { aggs: vec![AggSpec::sum(Expr::col(1))], slot },
        )
        .unwrap();
        let (blocks, counters) =
            process_block(&pipeline, &block_of(a, b), &state, &mut cpu_ctx(64)).unwrap();
        assert!(blocks.is_empty());
        assert_eq!(state.accumulators(slot).unwrap().values(), vec![expected]);
        assert_eq!(counters.rows_in, 1000);
        assert!(counters.rows_terminal < 1000);
        assert_eq!(counters.atomics, 1);
        assert_eq!(counters.bytes_in, 16_000);
    }

    #[test]
    fn build_then_probe_joins_correctly() {
        let mut state = SharedState::new();
        let ht = state.add_hash_table(1);
        let acc = state.add_accumulators(&[AggSpec::count(), AggSpec::sum(Expr::col(3))]);

        // Build side: keys 0..10, payload = key * 100.
        let build = CompiledPipeline::new(
            PipelineId::new(1),
            DeviceKind::CpuCore,
            2,
            vec![],
            TerminalStep::HashJoinBuild {
                key: Expr::col(0),
                payload: vec![Expr::col(1)],
                slot: ht,
            },
        )
        .unwrap();
        let build_block = block_of((0..10).collect(), (0..10).map(|i| i * 100).collect());
        process_block(&build, &build_block, &state, &mut cpu_ctx(64)).unwrap();
        assert_eq!(state.hash_table(ht).unwrap().len(), 10);

        // Probe side: keys 0..1000 (only 0..10 match); count matches and sum payloads.
        let probe = CompiledPipeline::new(
            PipelineId::new(2),
            DeviceKind::CpuCore,
            2,
            vec![Step::HashJoinProbe { key: Expr::col(0), slot: ht, payload_width: 1 }],
            TerminalStep::Reduce {
                aggs: vec![AggSpec::count(), AggSpec::sum(Expr::col(2))],
                slot: acc,
            },
        )
        .unwrap();
        let probe_block = block_of((0..1000).collect(), vec![0; 1000]);
        let (_, counters) = process_block(&probe, &probe_block, &state, &mut cpu_ctx(64)).unwrap();
        assert_eq!(counters.probes, 1000);
        assert_eq!(counters.probe_matches, 10);
        let values = state.accumulators(acc).unwrap().values();
        assert_eq!(values[0], 10);
        assert_eq!(values[1], (0..10).map(|i| i * 100).sum::<i64>());
    }

    #[test]
    fn one_to_many_probe_fans_out() {
        let mut state = SharedState::new();
        let ht = state.add_hash_table(1);
        // Two build tuples share key 7.
        state.hash_table(ht).unwrap().insert(7, vec![70]);
        state.hash_table(ht).unwrap().insert(7, vec![71]);
        let acc = state.add_accumulators(&[AggSpec::count()]);
        let probe = CompiledPipeline::new(
            PipelineId::new(3),
            DeviceKind::CpuCore,
            2,
            vec![Step::HashJoinProbe { key: Expr::col(0), slot: ht, payload_width: 1 }],
            TerminalStep::Reduce { aggs: vec![AggSpec::count()], slot: acc },
        )
        .unwrap();
        let block = block_of(vec![7, 8, 7], vec![0, 0, 0]);
        let (_, counters) = process_block(&probe, &block, &state, &mut cpu_ctx(64)).unwrap();
        assert_eq!(counters.probe_matches, 4);
        assert_eq!(state.accumulators(acc).unwrap().values(), vec![4]);
    }

    #[test]
    fn group_by_accumulates_per_key() {
        let mut state = SharedState::new();
        let aggs = vec![AggSpec::sum(Expr::col(1)), AggSpec::count()];
        let slot = state.add_group_by(&aggs);
        let pipeline = CompiledPipeline::new(
            PipelineId::new(6),
            DeviceKind::CpuCore,
            2,
            vec![],
            TerminalStep::GroupBy { keys: vec![Expr::col(0)], aggs: aggs.clone(), slot },
        )
        .unwrap();
        let a: Vec<i64> = (0..100).map(|i| i % 5).collect();
        let b: Vec<i64> = (0..100).collect();
        process_block(&pipeline, &block_of(a, b), &state, &mut cpu_ctx(64)).unwrap();
        let groups = state.group_by(slot).unwrap().snapshot();
        assert_eq!(groups.len(), 5);
        for (key, values) in groups {
            let expected_sum: i64 = (0..100).filter(|i| i % 5 == key[0]).sum();
            assert_eq!(values, vec![expected_sum, 20]);
        }
    }

    #[test]
    fn map_step_projects_and_derives() {
        let mut state = SharedState::new();
        let slot = state.add_accumulators(&[AggSpec::sum(Expr::col(0))]);
        // revenue = a * b, then sum.
        let pipeline = CompiledPipeline::new(
            PipelineId::new(7),
            DeviceKind::CpuCore,
            2,
            vec![Step::Map { exprs: vec![Expr::col(0).mul(Expr::col(1))] }],
            TerminalStep::Reduce { aggs: vec![AggSpec::sum(Expr::col(0))], slot },
        )
        .unwrap();
        let block = block_of(vec![2, 3, 4], vec![10, 10, 10]);
        process_block(&pipeline, &block, &state, &mut cpu_ctx(64)).unwrap();
        assert_eq!(state.accumulators(slot).unwrap().values(), vec![90]);
    }
}
