//! The GPU lowering: the chunk kernel under a SIMT schedule.
//!
//! This is the left-hand side of Figure 3 as a GPU instance's [`ExecCtx`]
//! specializes it, and the shape of Listing 1's pipeline 9:
//! `threadIdInWorker` is the grid-wide thread id, `#threadsInWorker` the grid
//! size of the context's launch configuration, tuples are visited with a
//! grid-stride loop, and aggregates reach device-global state with one
//! device-scoped atomic per warp.
//!
//! A grid-stride loop hands row `i` to thread `i mod #threads` in wave
//! `i div #threads`, so consecutive lanes — and consecutive warps, and
//! consecutive waves — hold consecutive rows: the kernel is a parallel-for
//! over warps whose per-thread loop collapses into a dense inner loop. The
//! lowering therefore *executes* it as [`lower_cpu_vec`]'s chunk kernel over
//! tiles of [`VEC_CHUNK`] lanes (32 warps) in ascending row order: the tile's
//! lanes are the initial selection vector and a filter refines it exactly as
//! predication masks lanes off. What SIMT adds is *counted*, from the launch
//! and block sizes, not simulated lane by lane: one launch, its threads and
//! warps on the device's [`LaunchStats`], and one device atomic per active
//! warp — the quantities the cost model prices.
//!
//! One pipeline, one chunk kernel, two schedules: [`CompiledPipeline::process_block`]
//! picks this one when the context has a GPU attached.

use crate::ir::TerminalStep;
use crate::lower_cpu_vec::{self, VEC_CHUNK};
use crate::pipeline::{BlockCounters, CompiledPipeline, ExecCtx};
use crate::state::SharedState;
use hetex_common::{BlockHandle, Result};
use hetex_gpu_sim::simt::WARP_SIZE;
use hetex_gpu_sim::LaunchStats;

// A tile is a whole number of warps: no warp straddles two tiles.
const _: () = assert!(VEC_CHUNK.is_multiple_of(WARP_SIZE));

/// Process one block with the GPU specialization; `launch` is the launch
/// the caller recorded for it on the context's device.
pub(crate) fn process_block(
    pipeline: &CompiledPipeline,
    launch: LaunchStats,
    block: &BlockHandle,
    state: &SharedState,
    ctx: &mut ExecCtx,
) -> Result<(Vec<BlockHandle>, BlockCounters)> {
    // Executed: the warp tiles, in grid-stride (= ascending row) order.
    let (outputs, mut counters) = lower_cpu_vec::process_block(pipeline, block, state, ctx)?;

    // Counted: the launch, and one device atomic per active warp (per
    // aggregate) — the neighborhood-reduction discipline of Listing 1. A
    // hash build inserts with one atomic per tuple; a pack needs none.
    counters.launches = launch.launches;
    let active_warps = launch.warps.min(block.rows().div_ceil(WARP_SIZE).max(1) as u64);
    counters.atomics = match pipeline.terminal() {
        TerminalStep::Reduce { aggs, .. } => active_warps * aggs.len() as u64,
        TerminalStep::GroupBy { .. } => active_warps,
        TerminalStep::HashJoinBuild { .. } => counters.rows_terminal,
        TerminalStep::Pack { .. } => 0,
    };
    Ok((outputs, counters))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::ir::{AggSpec, StateSlot, Step};
    use crate::pipeline::ExecCtx;
    use crate::state::StateObject;
    use hetex_common::{Block, BlockId, BlockMeta, ColumnData, MemoryNodeId, PipelineId};
    use hetex_gpu_sim::device::standalone_gpu;
    use hetex_gpu_sim::LaunchConfig;
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
            TerminalStep::Pack { exprs: vec![Expr::col(0), Expr::col(1)] },
        )
        .unwrap();
        let a: Vec<i64> = (0..2000).collect();
        let b: Vec<i64> = (0..2000).map(|i| i + 1).collect();
        let mut ctx = gpu_ctx(128);
        let mut out = pipeline.process_block(&block_of(a, b), &state, &mut ctx).unwrap();
        out.blocks.extend(pipeline.finalize_instance(&state, &mut ctx).unwrap().blocks);
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
        // The instance's partials reach the shared table when it finishes.
        assert!(state.group_by(slot).unwrap().is_empty());
        pipeline.finalize_instance(&state, &mut ctx).unwrap();
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

    // ---- The GPU lowering against the vectorized CPU lowering -------------

    /// An emitted block: id, weight, column-major values.
    type BlockDump = (BlockId, f64, Vec<Vec<i64>>);

    /// Everything a run leaves behind that the two lowerings must agree on.
    #[derive(Debug, PartialEq)]
    struct Observed {
        blocks: Vec<BlockDump>,
        /// Per state slot: hash tables as (len, payloads of `probe_keys` in
        /// match order), accumulators, sorted groups.
        state: Vec<String>,
        counters: BlockCounters,
    }

    fn dump_state(state: &SharedState, probe_keys: &[i64]) -> Vec<String> {
        (0..state.len())
            .map(|slot| match state.object(StateSlot(slot)).unwrap() {
                StateObject::HashTable(table) => {
                    let hits: Vec<Vec<Vec<i64>>> = probe_keys
                        .iter()
                        .map(|&k| {
                            let mut rows = Vec::new();
                            table.probe(k, |payload| rows.push(payload.to_vec()));
                            rows
                        })
                        .collect();
                    format!("{} {hits:?}", table.len())
                }
                StateObject::Accumulators(acc) => format!("{:?}", acc.values()),
                StateObject::GroupBy(groups) => format!("{:?}", groups.snapshot()),
            })
            .collect()
    }

    /// The neighborhood-reduction discipline: one atomic per active warp.
    fn active_warps(rows: usize, config: LaunchConfig) -> u64 {
        config.total_warps().min(rows.div_ceil(32).max(1)) as u64
    }

    /// Feed `inputs` through one instance of `pipeline` on `ctx`, then
    /// finalize it. Every call's work must be the charge of the context's
    /// kind on its counters.
    fn observe(
        pipeline: &CompiledPipeline,
        mut ctx: ExecCtx,
        inputs: &[BlockHandle],
        mk_state: &dyn Fn() -> SharedState,
        probe_keys: &[i64],
    ) -> (Observed, Vec<BlockCounters>) {
        let state = mk_state();
        let mut blocks = Vec::new();
        let mut counters = BlockCounters::default();
        let mut per_block = Vec::new();
        let kind = ctx.device();
        for input in inputs {
            let out = pipeline.process_block(input, &state, &mut ctx).unwrap();
            let weight = input.meta().weight;
            assert_eq!(out.work, pipeline.work_profile_on(kind, &out.counters, weight));
            blocks.extend(out.blocks);
            counters.merge(&out.counters);
            per_block.push(out.counters);
        }
        let tail = pipeline.finalize_instance(&state, &mut ctx).unwrap();
        let weight = inputs.last().map_or(1.0, |b| b.meta().weight);
        assert_eq!(tail.work, pipeline.work_profile_on(kind, &tail.counters, weight));
        blocks.extend(tail.blocks);
        counters.merge(&tail.counters);
        let blocks = blocks
            .iter()
            .map(|h| {
                let cols = h
                    .block()
                    .columns()
                    .map(|c| (0..h.rows()).map(|r| c.get_i64(r).unwrap()).collect())
                    .collect();
                (h.meta().id, h.meta().weight, cols)
            })
            .collect();
        (Observed { blocks, state: dump_state(&state, probe_keys), counters }, per_block)
    }

    /// One pipeline through a GPU and a CPU context over the same inputs:
    /// identical packed blocks, shared state and functional counters; the
    /// GPU additionally counts one launch per block and the warp formula's
    /// atomics.
    fn assert_gpu_matches_cpu_vec(
        steps: &[Step],
        terminal: &TerminalStep,
        inputs: &[BlockHandle],
        mk_state: &dyn Fn() -> SharedState,
        probe_keys: &[i64],
    ) -> Observed {
        let pipeline = CompiledPipeline::new(
            PipelineId::new(21),
            DeviceKind::CpuCore,
            inputs[0].block().width(),
            steps.to_vec(),
            terminal.clone(),
        )
        .unwrap();
        let (mut gpu, gpu_blocks) = observe(&pipeline, gpu_ctx(100), inputs, mk_state, probe_keys);
        let cpu_ctx = ExecCtx::cpu(MemoryNodeId::new(0), 100);
        let (mut cpu, _) = observe(&pipeline, cpu_ctx, inputs, mk_state, probe_keys);

        let config = LaunchConfig::default_for_device();
        for (input, counters) in inputs.iter().zip(&gpu_blocks) {
            let warps = active_warps(input.rows(), config);
            let expected = match terminal {
                TerminalStep::Reduce { aggs, .. } => warps * aggs.len() as u64,
                TerminalStep::GroupBy { .. } => warps,
                TerminalStep::HashJoinBuild { .. } => counters.rows_terminal,
                TerminalStep::Pack { .. } => 0,
            };
            assert_eq!(counters.launches, 1, "one launch per block");
            assert_eq!(counters.atomics, expected, "{} rows", input.rows());
        }
        assert_eq!(cpu.counters.launches, 0);
        // The schedule-specific counts are checked above; everything else —
        // rows_in, bytes_in, probes, probe_matches, rows_terminal,
        // rows_emitted, bytes_out — must be equal.
        for side in [&mut gpu, &mut cpu] {
            side.counters.launches = 0;
            side.counters.atomics = 0;
        }
        assert_eq!(gpu, cpu);
        gpu
    }

    fn int_block(cols: Vec<Vec<i64>>) -> BlockHandle {
        column_block(cols.into_iter().map(ColumnData::Int64).collect())
    }

    fn column_block(cols: Vec<ColumnData>) -> BlockHandle {
        let rows = cols[0].len();
        let block = Block::new(cols, rows).unwrap();
        let mut meta = BlockMeta::new(BlockId::new(0), MemoryNodeId::new(0));
        meta.weight = 3.0;
        BlockHandle::new(block, meta)
    }

    /// Slot 0: a probe table where keys 0..40 match, key 7 three times and
    /// key 11 twice. Slot 1: whatever `terminal` accumulates into.
    fn probe_state_for(terminal: &TerminalStep) -> SharedState {
        let mut state = SharedState::new();
        let ht = state.add_hash_table(1);
        for k in 0..40 {
            state.hash_table(ht).unwrap().insert(k, vec![k * 10]);
        }
        for (k, v) in [(7, 70_000), (11, -11), (7, 7)] {
            state.hash_table(ht).unwrap().insert(k, vec![v]);
        }
        match terminal {
            TerminalStep::Reduce { aggs, .. } => {
                state.add_accumulators(aggs);
            }
            TerminalStep::GroupBy { aggs, .. } => {
                state.add_group_by(aggs);
            }
            TerminalStep::HashJoinBuild { payload, .. } => {
                state.add_hash_table(payload.len());
            }
            TerminalStep::Pack { .. } => {}
        }
        state
    }

    /// Every terminal, reading the three registers a filter + fan-out probe
    /// leave behind and writing slot 1.
    fn all_terminals() -> Vec<TerminalStep> {
        vec![
            TerminalStep::Reduce {
                aggs: vec![
                    AggSpec::sum(Expr::col(2)),
                    AggSpec::count(),
                    AggSpec::min(Expr::col(1)),
                    AggSpec::max(Expr::col(2)),
                ],
                slot: StateSlot(1),
            },
            TerminalStep::GroupBy {
                keys: vec![Expr::col(0)],
                aggs: vec![AggSpec::sum(Expr::col(2)), AggSpec::count()],
                slot: StateSlot(1),
            },
            TerminalStep::HashJoinBuild {
                key: Expr::col(0),
                payload: vec![Expr::col(1), Expr::col(2)],
                slot: StateSlot(1),
            },
            TerminalStep::Pack { exprs: vec![Expr::col(1), Expr::col(2)] },
        ]
    }

    #[test]
    fn every_terminal_matches_the_vectorized_cpu_lowering_at_every_launch_shape() {
        // Empty launch, sub-warp, one warp, warp + 1, a hybrid_paper-sized
        // block, exactly one grid-stride wave (80 x 128 threads), wave + 1,
        // and many waves.
        let steps = vec![
            Step::Filter { predicate: Expr::col(1).gt_lit(29) },
            Step::HashJoinProbe { key: Expr::col(0), slot: StateSlot(0), payload_width: 1 },
        ];
        let probe_keys: Vec<i64> = (0..64).collect();
        for rows in [0usize, 1, 31, 32, 33, 470, 10_240, 10_241, 65_536] {
            let keys: Vec<i64> = (0..rows as i64).map(|i| (i * 7 + 7) % 64).collect();
            let vals: Vec<i64> = (0..rows as i64).map(|i| (i * 13 + 30) % 101).collect();
            // The same block twice: the open pack block and block-local
            // state carry across launches of one instance.
            let inputs = [int_block(vec![keys.clone(), vals.clone()]), int_block(vec![keys, vals])];
            for terminal in all_terminals() {
                let seen = assert_gpu_matches_cpu_vec(
                    &steps,
                    &terminal,
                    &inputs,
                    &|| probe_state_for(&terminal),
                    &probe_keys,
                );
                assert_eq!(seen.counters.rows_in, 2 * rows as u64);
                assert!(seen.counters.probe_matches >= seen.counters.rows_terminal);
                if rows >= 470 {
                    assert!(seen.counters.probe_matches > seen.counters.probes / 2, "fan-out");
                }
            }
        }
    }

    #[test]
    fn gpu_pack_and_build_orders_are_ascending() {
        // The by-product of tiling: pack output and build insertion follow
        // the input order, not the order host threads happened to flush in.
        let rows = 25_000usize;
        let ids: Vec<i64> = (0..rows as i64).collect();
        let keys: Vec<i64> = ids.iter().map(|i| i % 5).collect();
        let state = SharedState::new();
        let pack = CompiledPipeline::new(
            PipelineId::new(22),
            DeviceKind::Gpu,
            2,
            vec![],
            TerminalStep::Pack { exprs: vec![Expr::col(0)] },
        )
        .unwrap();
        let mut ctx = gpu_ctx(4096);
        let block = int_block(vec![ids.clone(), keys.clone()]);
        let mut out = pack.process_block(&block, &state, &mut ctx).unwrap().blocks;
        out.extend(pack.finalize_instance(&state, &mut ctx).unwrap().blocks);
        let packed: Vec<i64> = out
            .iter()
            .flat_map(|h| (0..h.rows()).map(|r| h.block().column(0).unwrap().get_i64(r).unwrap()))
            .collect();
        assert_eq!(packed, ids);

        let mut state = SharedState::new();
        let ht = state.add_hash_table(1);
        let build = CompiledPipeline::new(
            PipelineId::new(23),
            DeviceKind::Gpu,
            2,
            vec![],
            TerminalStep::HashJoinBuild {
                key: Expr::col(1),
                payload: vec![Expr::col(0)],
                slot: ht,
            },
        )
        .unwrap();
        build.process_block(&block, &state, &mut gpu_ctx(4096)).unwrap();
        let mut of_key_3 = Vec::new();
        state.hash_table(ht).unwrap().probe(3, |payload| of_key_3.push(payload[0]));
        assert_eq!(of_key_3, ids.iter().copied().filter(|i| i % 5 == 3).collect::<Vec<_>>());
    }

    #[test]
    fn a_wrapping_sum_wraps_identically() {
        let rows = 10_241usize;
        let vals: Vec<i64> = (0..rows as i64).map(|i| i64::MAX / 3 - i).collect();
        let aggs = vec![AggSpec::sum(Expr::col(0)), AggSpec::min(Expr::col(0))];
        let terminal = TerminalStep::Reduce { aggs: aggs.clone(), slot: StateSlot(0) };
        let seen = assert_gpu_matches_cpu_vec(
            &[],
            &terminal,
            &[int_block(vec![vals.clone()])],
            &|| {
                let mut s = SharedState::new();
                s.add_accumulators(&aggs);
                s
            },
            &[],
        );
        let wrapped = vals.iter().fold(0i64, |a, v| a.wrapping_add(*v));
        assert!(vals.iter().try_fold(0i64, |a, v| a.checked_add(*v)).is_none(), "must overflow");
        assert_eq!(seen.state, vec![format!("{:?}", vec![wrapped, i64::MAX / 3 - 10_240])]);
    }

    #[test]
    fn int32_inputs_read_identically() {
        let rows = 2_000usize;
        let int_cols = || {
            vec![
                ColumnData::Int32((0..rows as i32).map(|i| i % 17 - 8).collect()),
                ColumnData::Int64((0..rows as i64).collect()),
            ]
        };
        let aggs = vec![AggSpec::sum(Expr::col(0)), AggSpec::sum(Expr::col(1)), AggSpec::count()];
        let terminal = TerminalStep::GroupBy {
            keys: vec![Expr::col(0)],
            aggs: aggs.clone(),
            slot: StateSlot(0),
        };
        let mk_state = || {
            let mut s = SharedState::new();
            s.add_group_by(&aggs);
            s
        };
        let filter = vec![Step::Filter { predicate: Expr::col(1).gt_lit(99) }];
        let seen = assert_gpu_matches_cpu_vec(
            &filter,
            &terminal,
            &[column_block(int_cols())],
            &mk_state,
            &[],
        );
        assert_eq!(seen.counters.rows_terminal, 1_900);
    }

    #[test]
    fn a_filter_that_empties_the_selection_emits_and_merges_nothing() {
        let rows = 10_241usize;
        let cols = vec![(0..rows as i64).collect(), vec![5; rows]];
        let steps = vec![
            Step::Filter { predicate: Expr::col(1).gt_lit(5) },
            Step::HashJoinProbe { key: Expr::col(0), slot: StateSlot(0), payload_width: 1 },
        ];
        for terminal in all_terminals() {
            let seen = assert_gpu_matches_cpu_vec(
                &steps,
                &terminal,
                &[int_block(cols.clone())],
                &|| probe_state_for(&terminal),
                &[0, 7, 11],
            );
            assert_eq!(seen.counters.probes, 0);
            assert_eq!(seen.counters.rows_terminal, 0);
            assert!(seen.blocks.is_empty());
        }
    }

    // ---- Golden charges ---------------------------------------------------

    /// `out.work` of two fixed GPU blocks, as literals captured at the
    /// commit before the warp-tiled lowering replaced the per-thread
    /// interpreter. GPU `sim_s` is a function of these, so an edit to the
    /// lowering, the counters or the GPU charge that moves any of them moves
    /// simulated time and must say so.
    #[test]
    fn gpu_work_profiles_are_pinned() {
        use hetex_topology::WorkProfile;
        let weighted = |cols: Vec<Vec<i64>>, weight: f64| {
            let mut handle = int_block(cols);
            handle.meta_mut().weight = weight;
            handle
        };

        // (a) A ~470-row hybrid_paper-shaped block: filter -> probe -> reduce.
        let mut state = SharedState::new();
        let ht = state.add_hash_table(1);
        for k in 0..50 {
            state.hash_table(ht).unwrap().insert(k, vec![k * 1000]);
        }
        state.hash_table(ht).unwrap().insert(7, vec![-7]);
        let aggs = vec![AggSpec::sum(Expr::col(2)), AggSpec::count()];
        let acc = state.add_accumulators(&aggs);
        let p = CompiledPipeline::new(
            PipelineId::new(1),
            DeviceKind::Gpu,
            2,
            vec![
                Step::Filter { predicate: Expr::col(1).gt_lit(99) },
                Step::HashJoinProbe { key: Expr::col(0), slot: ht, payload_width: 1 },
            ],
            TerminalStep::Reduce { aggs, slot: acc },
        )
        .unwrap();
        let block = weighted(
            vec![(0..470).map(|i| i % 80).collect(), (0..470).map(|i| i * 3 % 400).collect()],
            1.0,
        );
        assert_eq!(
            p.process_block(&block, &state, &mut gpu_ctx(1024)).unwrap().work,
            WorkProfile {
                bytes_scanned: 7520.0,
                bytes_written: 0.0,
                random_bytes: 8064.0,
                tuples: 470.0,
                ops: 3687.5,
                atomics: 30.0,
                kernel_launches: 1,
            }
        );

        // (b) One grid-stride wave plus one row, weighted: group-by.
        let mut state = SharedState::new();
        let aggs = vec![AggSpec::sum(Expr::col(1)), AggSpec::max(Expr::col(1))];
        let slot = state.add_group_by(&aggs);
        let p = CompiledPipeline::new(
            PipelineId::new(2),
            DeviceKind::Gpu,
            2,
            vec![],
            TerminalStep::GroupBy { keys: vec![Expr::col(0)], aggs, slot },
        )
        .unwrap();
        let block =
            weighted(vec![(0..10_241).map(|i| i % 13).collect(), (0..10_241).collect()], 2.5);
        assert_eq!(
            p.process_block(&block, &state, &mut gpu_ctx(1024)).unwrap().work,
            WorkProfile {
                bytes_scanned: 409640.0,
                bytes_written: 0.0,
                random_bytes: 1024100.0,
                tuples: 25602.5,
                ops: 198419.375,
                atomics: 800.0,
                kernel_launches: 1,
            }
        );
    }
}
