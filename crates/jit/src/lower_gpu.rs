//! The GPU lowering: a SIMT kernel over the simulated GPU.
//!
//! This is the left-hand side of Figure 3 as specialized by the GPU provider
//! and the shape of Listing 1's pipeline 9: `threadIdInWorker` becomes the
//! grid-wide thread id, `#threadsInWorker` the grid size, tuples are visited
//! with a grid-stride loop, aggregates are accumulated in thread-local
//! registers, reduced per warp ("neighborhood") and flushed with one
//! device-scoped atomic per warp.
//!
//! The kernel body interprets the same step IR as the CPU lowering
//! (`lower_cpu::apply_transforms`), which is the "single blueprint, two
//! specializations" property HetExchange gets from device providers.

use crate::ir::TerminalStep;
use crate::lower_cpu::{accumulate_local, apply_transforms, eval_row, partition_of};
use crate::pipeline::{BlockCounters, CompiledPipeline, ExecCtx};
use crate::state::{FlatGroups, SharedState};
use hetex_common::{BlockHandle, HetError, Result};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process one block with the GPU specialization.
pub(crate) fn process_block(
    pipeline: &CompiledPipeline,
    block: &BlockHandle,
    state: &SharedState,
    ctx: &mut ExecCtx,
) -> Result<(Vec<BlockHandle>, BlockCounters)> {
    let gpu = ctx
        .gpu
        .clone()
        .ok_or_else(|| HetError::Execution("GPU pipeline executed without a GPU device".into()))?;
    let rows = block.rows();
    let data = block.block();
    let columns = data.columns();
    let config = ctx.launch_config;

    // Shared (device-visible) counters, updated once per virtual thread.
    let probes = AtomicU64::new(0);
    let probe_matches = AtomicU64::new(0);
    let rows_terminal = AtomicU64::new(0);
    let first_error: Mutex<Option<HetError>> = Mutex::new(None);
    // Packed output rows produced by the kernel, gathered per partition.
    let packed: Mutex<HashMap<usize, Vec<Vec<i64>>>> = Mutex::new(HashMap::new());

    let steps = pipeline.steps();
    let terminal = pipeline.terminal();

    gpu.launch(config, |thread| {
        // Thread-local state (the registers of Listing 1, lines 22/26).
        let mut local_partials: Vec<i64> = match terminal {
            TerminalStep::Reduce { aggs, .. } => aggs.iter().map(|a| a.func.identity()).collect(),
            _ => Vec::new(),
        };
        // Most of a launch's virtual threads see no tuple of a small block:
        // the group table is made by the first tuple that needs it, so idle
        // threads allocate nothing.
        let mut local_groups: Option<FlatGroups> = None;
        let mut local_packed: Vec<(usize, Vec<i64>)> = Vec::new();
        let mut local_probes = 0u64;
        let mut local_matches = 0u64;
        let mut local_terminal = 0u64;

        for i in thread.grid_stride(rows) {
            let regs: Vec<i64> = columns.iter().map(|c| c.get_i64(i).unwrap_or(0)).collect();
            let result = apply_transforms(
                steps,
                state,
                regs,
                &mut local_probes,
                &mut local_matches,
                &mut |r| {
                    local_terminal += 1;
                    match terminal {
                        TerminalStep::Pack { exprs, partition_by, partitions } => {
                            let out_row = eval_row(exprs, &r);
                            let p = partition_by
                                .as_ref()
                                .map(|e| partition_of(e, &r, *partitions))
                                .unwrap_or(0);
                            local_packed.push((p, out_row));
                        }
                        TerminalStep::HashJoinBuild { key, payload, slot } => {
                            let k = key.eval(&r);
                            state
                                .hash_table_of_width(*slot, payload.len())?
                                .insert(k, eval_row(payload, &r));
                        }
                        TerminalStep::Reduce { aggs, .. } => {
                            accumulate_local(aggs, &r, &mut local_partials);
                        }
                        TerminalStep::GroupBy { keys, aggs, .. } => {
                            let key = eval_row(keys, &r);
                            let groups = local_groups
                                .get_or_insert_with(|| FlatGroups::new(keys.len(), aggs));
                            accumulate_local(aggs, &r, groups.entry(&key));
                        }
                    }
                    Ok(())
                },
            );
            if let Err(e) = result {
                let mut slot = first_error.lock();
                if slot.is_none() {
                    *slot = Some(e);
                }
                return;
            }
        }

        // Flush thread-local state into device-shared state. Warp leaders in
        // the generated code do this after a neighborhood reduction; the
        // functional effect is identical, and the cost model charges one
        // atomic per warp below.
        let flush = (|| -> Result<()> {
            match terminal {
                TerminalStep::Reduce { slot, .. } => {
                    state.accumulators(*slot)?.merge_partials(&local_partials);
                }
                TerminalStep::GroupBy { slot, .. } => {
                    if let Some(groups) = &local_groups {
                        state.group_by(*slot)?.merge_batch(groups);
                    }
                }
                TerminalStep::Pack { .. } => {
                    if !local_packed.is_empty() {
                        let mut shared = packed.lock();
                        for (p, row) in local_packed.drain(..) {
                            shared.entry(p).or_default().push(row);
                        }
                    }
                }
                TerminalStep::HashJoinBuild { .. } => {}
            }
            Ok(())
        })();
        if let Err(e) = flush {
            let mut slot = first_error.lock();
            if slot.is_none() {
                *slot = Some(e);
            }
        }

        probes.fetch_add(local_probes, Ordering::Relaxed);
        probe_matches.fetch_add(local_matches, Ordering::Relaxed);
        rows_terminal.fetch_add(local_terminal, Ordering::Relaxed);
    });

    if let Some(err) = first_error.lock().take() {
        return Err(err);
    }

    let rows_terminal = rows_terminal.load(Ordering::Relaxed);
    let mut counters = BlockCounters {
        rows_in: rows as u64,
        bytes_in: data.byte_size() as u64,
        probes: probes.load(Ordering::Relaxed),
        probe_matches: probe_matches.load(Ordering::Relaxed),
        rows_terminal,
        launches: 1,
        ..Default::default()
    };

    // One device atomic per active warp (per aggregate), the neighborhood-
    // reduction discipline of Listing 1.
    let active_warps =
        config.total_warps().min(rows.div_ceil(hetex_gpu_sim::simt::WARP_SIZE).max(1)) as u64;
    counters.atomics = match terminal {
        TerminalStep::Reduce { aggs, .. } => active_warps * aggs.len() as u64,
        TerminalStep::GroupBy { .. } => active_warps,
        TerminalStep::HashJoinBuild { .. } => rows_terminal,
        TerminalStep::Pack { .. } => 0,
    };

    // Move the kernel's packed rows into the instance's open partitions and
    // flush the partitions that filled up.
    let mut outputs = Vec::new();
    let packed = packed.into_inner();
    if !packed.is_empty() {
        let tagged = matches!(terminal, TerminalStep::Pack { partition_by: Some(_), .. });
        for (p, rows) in packed {
            let mut bucket = ctx.open_partitions.remove(&p).unwrap_or_default();
            bucket.extend(rows);
            while bucket.len() >= ctx.out_capacity {
                let rest = bucket.split_off(ctx.out_capacity);
                let full = std::mem::replace(&mut bucket, rest);
                counters.rows_emitted += full.len() as u64;
                counters.bytes_out += (full.len() * full[0].len() * 8) as u64;
                let handle = ctx.build_block(&full, if tagged { Some(p) } else { None })?;
                outputs.push(handle);
            }
            if !bucket.is_empty() {
                ctx.open_partitions.insert(p, bucket);
            }
        }
    }

    Ok((outputs, counters))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::ir::{AggSpec, StateSlot, Step};
    use crate::pipeline::ExecCtx;
    use hetex_common::{Block, BlockId, BlockMeta, ColumnData, MemoryNodeId, PipelineId};
    use hetex_gpu_sim::device::standalone_gpu;
    use hetex_topology::DeviceKind;
    use std::sync::Arc;

    fn block_of(a: Vec<i64>, b: Vec<i64>) -> BlockHandle {
        let rows = a.len();
        let block = Block::new(vec![ColumnData::Int64(a), ColumnData::Int64(b)], rows).unwrap();
        BlockHandle::new(block, BlockMeta::new(BlockId::new(0), MemoryNodeId::new(0)))
    }

    fn gpu_ctx(capacity: usize) -> ExecCtx {
        ExecCtx::gpu(Arc::new(standalone_gpu()), capacity)
    }

    #[test]
    fn gpu_filtered_sum_matches_cpu_result() {
        let a: Vec<i64> = (0..20_000).map(|i| i % 100).collect();
        let b: Vec<i64> = (0..20_000).map(|i| i * 7).collect();
        let expected: i64 = a.iter().zip(&b).filter(|(av, _)| **av > 42).map(|(_, bv)| *bv).sum();

        let mut state = SharedState::new();
        let slot = state.add_accumulators(&[AggSpec::sum(Expr::col(1))]);
        let pipeline = CompiledPipeline::new(
            PipelineId::new(9),
            DeviceKind::Gpu,
            2,
            vec![Step::Filter { predicate: Expr::col(0).gt_lit(42) }],
            TerminalStep::Reduce { aggs: vec![AggSpec::sum(Expr::col(1))], slot },
        )
        .unwrap();
        let mut ctx = gpu_ctx(1024);
        let out = pipeline.process_block(&block_of(a, b), &state, &mut ctx).unwrap();
        assert_eq!(state.accumulators(slot).unwrap().values(), vec![expected]);
        assert_eq!(out.counters.launches, 1);
        assert!(out.counters.atomics > 0);
        assert!(out.work.kernel_launches == 1);
    }

    #[test]
    fn gpu_requires_a_device() {
        let mut state = SharedState::new();
        let slot = state.add_accumulators(&[AggSpec::count()]);
        let pipeline = CompiledPipeline::new(
            PipelineId::new(8),
            DeviceKind::Gpu,
            2,
            vec![],
            TerminalStep::Reduce { aggs: vec![AggSpec::count()], slot },
        )
        .unwrap();
        // A CPU context has no GPU attached.
        let mut ctx = ExecCtx::cpu(MemoryNodeId::new(0), 64);
        let err = pipeline.process_block(&block_of(vec![1], vec![2]), &state, &mut ctx);
        assert!(err.is_err());
    }

    #[test]
    fn gpu_probe_matches_reference_join() {
        let mut state = SharedState::new();
        let ht = state.add_hash_table(1);
        for k in 0..50 {
            state.hash_table(ht).unwrap().insert(k, vec![k * 1000]);
        }
        let acc = state.add_accumulators(&[AggSpec::count(), AggSpec::sum(Expr::col(2))]);
        let pipeline = CompiledPipeline::new(
            PipelineId::new(10),
            DeviceKind::Gpu,
            2,
            vec![Step::HashJoinProbe { key: Expr::col(0), slot: ht, payload_width: 1 }],
            TerminalStep::Reduce {
                aggs: vec![AggSpec::count(), AggSpec::sum(Expr::col(2))],
                slot: acc,
            },
        )
        .unwrap();
        let keys: Vec<i64> = (0..10_000).map(|i| i % 200).collect();
        let expected_matches = keys.iter().filter(|k| **k < 50).count() as i64;
        let expected_sum: i64 = keys.iter().filter(|k| **k < 50).map(|k| k * 1000).sum();
        let mut ctx = gpu_ctx(1024);
        let out =
            pipeline.process_block(&block_of(keys, vec![0; 10_000]), &state, &mut ctx).unwrap();
        assert_eq!(out.counters.probes, 10_000);
        assert_eq!(out.counters.probe_matches as i64, expected_matches);
        assert_eq!(state.accumulators(acc).unwrap().values(), vec![expected_matches, expected_sum]);
    }

    #[test]
    fn gpu_pack_emits_all_surviving_rows() {
        let state = SharedState::new();
        let pipeline = CompiledPipeline::new(
            PipelineId::new(11),
            DeviceKind::Gpu,
            2,
            vec![Step::Filter { predicate: Expr::col(0).lt_lit(500) }],
            TerminalStep::Pack {
                exprs: vec![Expr::col(0), Expr::col(1)],
                partition_by: None,
                partitions: 1,
            },
        )
        .unwrap();
        let a: Vec<i64> = (0..2000).collect();
        let b: Vec<i64> = (0..2000).map(|i| i + 1).collect();
        let mut ctx = gpu_ctx(128);
        let mut out = pipeline.process_block(&block_of(a, b), &state, &mut ctx).unwrap();
        out.blocks.extend(pipeline.finalize_instance(&mut ctx).unwrap().blocks);
        let rows: usize = out.blocks.iter().map(BlockHandle::rows).sum();
        assert_eq!(rows, 500);
        // Every emitted row satisfies the filter and keeps b = a + 1.
        for handle in &out.blocks {
            let block = handle.block();
            for i in 0..handle.rows() {
                let a = block.column(0).unwrap().get_i64(i).unwrap();
                let b = block.column(1).unwrap().get_i64(i).unwrap();
                assert!(a < 500);
                assert_eq!(b, a + 1);
            }
        }
    }

    #[test]
    fn gpu_group_by_matches_reference() {
        let mut state = SharedState::new();
        let aggs = vec![AggSpec::sum(Expr::col(1))];
        let slot = state.add_group_by(&aggs);
        let pipeline = CompiledPipeline::new(
            PipelineId::new(12),
            DeviceKind::Gpu,
            2,
            vec![],
            TerminalStep::GroupBy { keys: vec![Expr::col(0)], aggs, slot },
        )
        .unwrap();
        let a: Vec<i64> = (0..10_000).map(|i| i % 7).collect();
        let b: Vec<i64> = (0..10_000).collect();
        let mut ctx = gpu_ctx(1024);
        pipeline.process_block(&block_of(a, b), &state, &mut ctx).unwrap();
        let groups = state.group_by(slot).unwrap().snapshot();
        assert_eq!(groups.len(), 7);
        for (key, values) in groups {
            let expected: i64 = (0..10_000i64).filter(|i| i % 7 == key[0]).sum();
            assert_eq!(values, vec![expected]);
        }
    }

    #[test]
    fn bad_state_slot_surfaces_as_error_not_panic() {
        let state = SharedState::new();
        let pipeline = CompiledPipeline::new(
            PipelineId::new(13),
            DeviceKind::Gpu,
            1,
            vec![],
            TerminalStep::Reduce { aggs: vec![AggSpec::count()], slot: StateSlot(7) },
        )
        .unwrap();
        let block = Block::new(vec![ColumnData::Int64(vec![1, 2, 3])], 3).unwrap();
        let handle = BlockHandle::new(block, BlockMeta::new(BlockId::new(0), MemoryNodeId::new(0)));
        let mut ctx = gpu_ctx(8);
        let err = pipeline.process_block(&handle, &state, &mut ctx);
        assert!(err.is_err());
    }
}
