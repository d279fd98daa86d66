//! The chunk kernel: chunked, selection-vector execution of the step IR.
//!
//! This is the CPU lowering, and the kernel the GPU lowering schedules. It
//! executes a pipeline's fused IR over fixed-size chunks of [`VEC_CHUNK`]
//! tuples rather than dispatching the step chain per tuple:
//!
//! * the chunk's registers are *columns* (`Vec<i64>` per register), indexed
//!   by row. An input register is *lazy* at chunk start: the first step or
//!   terminal expression that reads it widens it from the input block's
//!   window of its (possibly shared) columns, at the selected rows only — the
//!   whole chunk while the selection is still the identity — so a column is
//!   read only where a row survives to the operator that uses it;
//! * `Step::Filter` evaluates its predicate column-at-a-time into a dense
//!   flag buffer and refines a `u32` **selection vector** with a tight,
//!   branch-light compaction loop ([`refine_selection`]) — no tuples move;
//! * a `Step::HashJoinProbe` against a table of unique keys moves nothing
//!   either: each selected row has at most one match, so the selection
//!   narrows to the matched rows and the payload registers are written at
//!   those rows;
//! * `Step::Map` and a probe that fans out (a key with several build rows)
//!   evaluate column-at-a-time over the surviving selection into reusable
//!   scratch (rented from a [`ScratchPool`]), producing a dense chunk and
//!   resetting the selection to the identity. A fan-out reads every lazy
//!   register first, as it re-gathers them all; a map reads only what its
//!   expressions read. There is no per-step block materialization;
//! * the terminal consumes the final selection in one pass with chunk-local
//!   accumulators that are merged into shared state once per *block* (the
//!   CPU provider's worker-scoped atomic: one synchronization per block); a
//!   hash build appends the chunk's keys and payload columns to scratch and
//!   hands the block's rows to the join table in one append; a pack appends
//!   the chunk's evaluated columns to the instance's open output blocks —
//!   whole runs when unpartitioned, one lane at a time into its partition's
//!   columns when hash-partitioned — with no per-tuple object.
//!
//! The scratch ([`VecScratch`]) lives in the instance's [`ExecCtx`], so a
//! block of a few hundred rows reuses the buffers of every block before it.
//!
//! Row order: tuples are visited in ascending selection order and a probe
//! appends its matches in probe order, which is exactly the depth-first order
//! of a per-tuple interpreter of the same steps — the unit tests below pin
//! rows, block boundaries, partition tags and counters against one.
//!
//! The GPU lowering ([`crate::lower_gpu`]) runs this same chunk kernel: a
//! chunk is 32 warps of a grid-stride kernel's consecutive lanes, so the two
//! devices share one kernel definition and differ in schedule and in what is
//! counted (the GPU replaces the per-block `atomics` below with one per
//! active warp and adds the launch). The IR stays the single operator
//! blueprint.

use crate::expr::{Expr, ScratchPool};
use crate::ir::{Step, TerminalStep};
use crate::pipeline::{BlockCounters, CompiledPipeline, ExecCtx};
use crate::state::{JoinMatches, SharedState};
use hetex_common::{BlockHandle, ColumnRef, HetError, Result};

/// Tuples per chunk. Sized so a handful of `i64` register columns plus
/// scratch (~tens of KiB) stay L1/L2-resident while still amortizing
/// per-chunk setup over a thousand tuples — the classic vectorized-execution
/// sweet spot between tuple-at-a-time interpretation overhead and full-block
/// materialization.
pub const VEC_CHUNK: usize = 1024;

/// Refine a selection vector in place: keep `sel[j]` exactly when
/// `flags[j] != 0` (`flags` is dense, aligned with `sel`). The compaction is
/// order-preserving and monotone — the result is a subsequence of the input —
/// and runs as a tight data-dependent loop with no index recomputation.
pub fn refine_selection(sel: &mut Vec<u32>, flags: &[i64]) {
    debug_assert_eq!(sel.len(), flags.len());
    let mut kept = 0usize;
    for j in 0..sel.len() {
        let idx = sel[j];
        sel[kept] = idx;
        kept += (flags[j] != 0) as usize;
    }
    sel.truncate(kept);
}

/// The chunk kernel's scratch: register columns, the selection vector,
/// flag/key buffers, probe matches and the expression pool. It lives in the
/// instance's [`ExecCtx`], so every buffer grows to chunk size once per
/// instance and is reused by every chunk of every block it processes: the
/// steady-state chunk loop allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct VecScratch {
    /// The chunk's register columns, indexed by row. A register holds values
    /// at the selected rows only; rows a filter or probe dropped keep stale
    /// values that are never read. Columns past the current width are spares.
    regs: Vec<Vec<i64>>,
    /// Per input register: true while it is not yet read from the block.
    lazy: Vec<bool>,
    /// Surviving selection: row indexes into `regs`, ascending.
    sel: Vec<u32>,
    /// Dense predicate / key / aggregate buffers.
    flags: Vec<i64>,
    /// The `(lane, build row)` pairs of the chunk's last probe.
    matches: JoinMatches,
    /// Rentable intermediate buffers for expression evaluation.
    pool: ScratchPool,
    /// Emptied column sets, so renting columns allocates no outer `Vec`.
    sets: Vec<Vec<Vec<i64>>>,
    /// A hash build's keys and payload columns, appended chunk by chunk and
    /// inserted once per block.
    build_keys: Vec<i64>,
    build_payload: Vec<Vec<i64>>,
}

/// The input rows of the current chunk: `columns[..][base..base + len]`.
#[derive(Clone, Copy)]
struct Window<'a> {
    columns: &'a [ColumnRef<'a>],
    base: usize,
    len: usize,
}

/// Widen `src` into `dst` at the rows of `sel`: the whole of it while `sel`
/// is the identity, otherwise row by row, leaving the other rows as they
/// were.
fn widen<T: Copy + Into<i64>>(src: &[T], sel: &[u32], dst: &mut Vec<i64>) {
    if sel.len() == src.len() {
        dst.clear();
        dst.extend(src.iter().map(|&v| v.into()));
    } else {
        dst.resize(dst.len().max(src.len()), 0);
        for &r in sel {
            dst[r as usize] = src[r as usize].into();
        }
    }
}

impl VecScratch {
    /// Rent `n` cleared columns from the pool.
    fn rent_columns(&mut self, n: usize) -> Vec<Vec<i64>> {
        let mut cols = self.sets.pop().unwrap_or_default();
        cols.extend((0..n).map(|_| self.pool.acquire()));
        cols
    }

    /// Return rented columns to the pool.
    fn release_columns(&mut self, mut cols: Vec<Vec<i64>>) {
        for col in cols.drain(..) {
            self.pool.release(col);
        }
        self.sets.push(cols);
    }

    /// Make room for `width` registers.
    fn reserve_registers(&mut self, width: usize) {
        if self.regs.len() < width {
            self.regs.resize_with(width, Vec::new);
        }
    }

    /// Start a chunk of `len` rows: every input register lazy, every row
    /// selected.
    fn start_chunk(&mut self, width: usize, len: usize) {
        self.reserve_registers(width);
        self.lazy.clear();
        self.lazy.resize(width, true);
        self.sel.clear();
        self.sel.extend(0..len as u32);
    }

    /// Replace the chunk's first registers with `cols`, returning the old
    /// columns to the pool, and reset the selection to the identity over
    /// `len` dense lanes.
    fn install_dense(&mut self, mut cols: Vec<Vec<i64>>, len: usize) {
        self.reserve_registers(cols.len());
        for (reg, col) in self.regs.iter_mut().zip(cols.iter_mut()) {
            std::mem::swap(reg, col);
        }
        self.release_columns(cols);
        self.lazy.clear();
        self.sel.clear();
        self.sel.extend(0..len as u32);
    }

    /// Read register `r` from the block window at the selected rows, if it
    /// is still lazy.
    fn gather(&mut self, r: usize, window: Window<'_>) {
        if self.lazy.get(r) != Some(&true) {
            return;
        }
        self.lazy[r] = false;
        let rows = window.base..window.base + window.len;
        match window.columns[r] {
            ColumnRef::Int64(v) => widen(&v[rows], &self.sel, &mut self.regs[r]),
            ColumnRef::Int32(v) => widen(&v[rows], &self.sel, &mut self.regs[r]),
            ColumnRef::Float64(_) => unreachable!("Float64 inputs are rejected per block"),
        }
    }

    /// Evaluate `expr` over the selection into `out`, gathering the lazy
    /// registers it reads first.
    fn eval(&mut self, expr: &Expr, window: Window<'_>, out: &mut Vec<i64>) {
        expr.for_each_register(&mut |r| self.gather(r, window));
        expr.eval_batch(&self.regs, &self.sel, out, &mut self.pool);
    }

    /// Evaluate each of `exprs` into a rented column.
    fn eval_columns<'e>(
        &mut self,
        exprs: impl ExactSizeIterator<Item = &'e Expr>,
        window: Window<'_>,
    ) -> Vec<Vec<i64>> {
        let mut cols = self.rent_columns(exprs.len());
        for (col, expr) in cols.iter_mut().zip(exprs) {
            self.eval(expr, window, col);
        }
        cols
    }
}

/// Process one block with the chunk kernel: the hot path is chunked and
/// column-at-a-time, and output rows, their order and the counters are those
/// of a per-tuple walk of the same steps.
pub(crate) fn process_block(
    pipeline: &CompiledPipeline,
    block: &BlockHandle,
    state: &SharedState,
    ctx: &mut ExecCtx,
) -> Result<(Vec<BlockHandle>, BlockCounters)> {
    let mut scratch = std::mem::take(&mut ctx.scratch);
    let processed = process_chunks(pipeline, block, state, ctx, &mut scratch);
    ctx.scratch = scratch;
    processed
}

fn process_chunks(
    pipeline: &CompiledPipeline,
    block: &BlockHandle,
    state: &SharedState,
    ctx: &mut ExecCtx,
    scratch: &mut VecScratch,
) -> Result<(Vec<BlockHandle>, BlockCounters)> {
    let rows = block.rows();
    let data = block.block();
    let columns: Vec<ColumnRef<'_>> = data.columns().collect();
    // Registers are read lazily, but a float input fails its whole block,
    // whether or not a surviving row reads it.
    let float = columns.iter().position(|c| matches!(c, ColumnRef::Float64(_)));
    if let Some(c) = float.filter(|_| rows > 0) {
        return Err(HetError::Execution(format!(
            "pipeline {}: input column {c} is Float64, and compiled pipelines \
             evaluate integer columns only",
            pipeline.id()
        )));
    }
    let mut counters = BlockCounters {
        rows_in: rows as u64,
        bytes_in: data.byte_size() as u64,
        ..Default::default()
    };

    // Block-local terminal state, merged into shared state once per block
    // (the CPU provider's worker-scoped atomic).
    let mut partials: Vec<i64> = match pipeline.terminal() {
        TerminalStep::Reduce { aggs, .. } => aggs.iter().map(|a| a.func.identity()).collect(),
        _ => Vec::new(),
    };
    // The block-local group table and the open pack blocks live in the
    // context: cleared or carried over, not reallocated, per block.
    match pipeline.terminal() {
        TerminalStep::GroupBy { keys, aggs, .. } => ctx.local_groups.reset(keys.len(), aggs),
        TerminalStep::HashJoinBuild { payload, .. } => {
            scratch.build_keys.clear();
            scratch.build_payload.resize_with(payload.len(), Vec::new);
            scratch.build_payload.iter_mut().for_each(Vec::clear);
        }
        _ => {}
    }
    ctx.open_pack(pipeline.terminal());
    let mut outputs: Vec<BlockHandle> = Vec::new();

    let mut probes = 0u64;
    let mut probe_matches = 0u64;
    let mut rows_terminal = 0u64;

    let steps = pipeline.steps();
    let terminal = pipeline.terminal();

    let mut base = 0usize;
    while base < rows {
        let len = (rows - base).min(VEC_CHUNK);
        let window = Window { columns: &columns, base, len };
        scratch.start_chunk(columns.len(), len);

        // The fused step chain over the chunk.
        let mut width = pipeline.input_width();
        for step in steps {
            if scratch.sel.is_empty() {
                break;
            }
            match step {
                Step::Filter { predicate } => {
                    let mut flags = std::mem::take(&mut scratch.flags);
                    scratch.eval(predicate, window, &mut flags);
                    refine_selection(&mut scratch.sel, &flags);
                    scratch.flags = flags;
                }
                Step::Map { exprs } => {
                    let lanes = scratch.sel.len();
                    let mapped = scratch.eval_columns(exprs.iter(), window);
                    scratch.install_dense(mapped, lanes);
                    width = exprs.len();
                }
                Step::HashJoinProbe { key, slot, payload_width } => {
                    let mut keys = std::mem::take(&mut scratch.flags);
                    scratch.eval(key, window, &mut keys);
                    // One read guard per chunk; matches come back in probe
                    // order — the depth-first order of a per-tuple
                    // recursion — as (lane, build row) pairs.
                    let table = state.hash_table_of_width(*slot, *payload_width)?.read();
                    table.probe_batch(&keys, &mut scratch.matches);
                    probes += keys.len() as u64;
                    scratch.flags = keys;
                    let matches = std::mem::take(&mut scratch.matches);
                    let (lanes, matched) = (&matches.lanes, &matches.rows);
                    let fanned = matched.len();
                    probe_matches += fanned as u64;
                    if table.unique_keys() {
                        // At most one match per lane: the registers stay
                        // where they are, the selection narrows to the
                        // matched rows and the payload lands at them.
                        for (m, &l) in lanes.iter().enumerate() {
                            scratch.sel[m] = scratch.sel[l as usize];
                        }
                        scratch.sel.truncate(fanned);
                        let end = scratch.sel.last().map_or(0, |&r| r as usize + 1);
                        scratch.reserve_registers(width + payload_width);
                        for (c, reg) in
                            scratch.regs[width..width + payload_width].iter_mut().enumerate()
                        {
                            reg.resize(reg.len().max(end), 0);
                            table.scatter_payload(c, matched, &scratch.sel, reg);
                        }
                    } else {
                        // A fan-out re-gathers every register densely, so
                        // the lazy ones are read first.
                        for r in 0..width {
                            scratch.gather(r, window);
                        }
                        let mut out_cols = scratch.rent_columns(width + payload_width);
                        for (c, out) in out_cols.iter_mut().enumerate() {
                            if c < width {
                                let (src, sel) = (&scratch.regs[c], &scratch.sel);
                                out.extend(lanes.iter().map(|&l| src[sel[l as usize] as usize]));
                            } else {
                                table.gather_payload(c - width, matched, out);
                            }
                        }
                        scratch.install_dense(out_cols, fanned);
                    }
                    scratch.matches = matches;
                    width += payload_width;
                }
            }
        }

        // Terminal: consume the surviving selection in one pass.
        rows_terminal += scratch.sel.len() as u64;
        if !scratch.sel.is_empty() {
            match terminal {
                TerminalStep::Pack { exprs, partition_by, partitions } => {
                    let out_cols = scratch.eval_columns(exprs.iter(), window);
                    // A block is emitted the moment it fills, so blocks leave
                    // in fill order and each holds a run of the lane order.
                    let capacity = ctx.out_capacity.max(1);
                    match partition_by {
                        // Whole column runs, split where the open block fills.
                        None => {
                            let lanes = scratch.sel.len();
                            let mut start = 0;
                            while start < lanes {
                                let open = &mut ctx.open_blocks[0];
                                let end = lanes.min(start + capacity.saturating_sub(open.rows));
                                for (dst, src) in open.columns.iter_mut().zip(&out_cols) {
                                    dst.extend_from_slice(&src[start..end]);
                                }
                                open.rows += end - start;
                                start = end;
                                if open.rows >= capacity {
                                    outputs.push(ctx.flush_full(0, None, &mut counters)?);
                                }
                            }
                        }
                        // Each lane's values scattered straight into its
                        // partition's columns, in lane order.
                        Some(by) => {
                            let mut keys = scratch.pool.acquire();
                            scratch.eval(by, window, &mut keys);
                            let fanout = (*partitions).max(1) as u64;
                            for (j, key) in keys.iter().enumerate() {
                                let p = (key.unsigned_abs() % fanout) as usize;
                                let open = &mut ctx.open_blocks[p];
                                for (dst, src) in open.columns.iter_mut().zip(&out_cols) {
                                    dst.push(src[j]);
                                }
                                open.rows += 1;
                                if open.rows >= capacity {
                                    outputs.push(ctx.flush_full(p, Some(p), &mut counters)?);
                                }
                            }
                            scratch.pool.release(keys);
                        }
                    }
                    scratch.release_columns(out_cols);
                }
                TerminalStep::HashJoinBuild { key, payload, .. } => {
                    let mut keys = std::mem::take(&mut scratch.flags);
                    scratch.eval(key, window, &mut keys);
                    scratch.build_keys.extend_from_slice(&keys);
                    scratch.flags = keys;
                    let pay_cols = scratch.eval_columns(payload.iter(), window);
                    for (to, from) in scratch.build_payload.iter_mut().zip(&pay_cols) {
                        to.extend_from_slice(from);
                    }
                    scratch.release_columns(pay_cols);
                }
                TerminalStep::Reduce { aggs, .. } => {
                    let mut values = std::mem::take(&mut scratch.flags);
                    for (i, agg) in aggs.iter().enumerate() {
                        scratch.eval(&agg.expr, window, &mut values);
                        // Dense fold into the block-local partial.
                        let mut acc = partials[i];
                        for &v in &values {
                            acc = agg.func.accumulate(acc, v);
                        }
                        partials[i] = acc;
                    }
                    scratch.flags = values;
                }
                TerminalStep::GroupBy { keys, aggs, .. } => {
                    let key_cols = scratch.eval_columns(keys.iter(), window);
                    let agg_cols = scratch.eval_columns(aggs.iter().map(|a| &a.expr), window);
                    ctx.local_groups.accumulate_batch(&key_cols, &agg_cols, scratch.sel.len());
                    scratch.release_columns(key_cols);
                    scratch.release_columns(agg_cols);
                }
            }
        }
        base += len;
    }

    // One shared-state merge per block: the CPU provider's worker-scoped
    // atomic.
    match terminal {
        TerminalStep::Reduce { aggs, slot } => {
            state.accumulators(*slot)?.merge_partials(&partials);
            counters.atomics += aggs.len() as u64;
        }
        TerminalStep::GroupBy { slot, .. } => {
            if !ctx.local_groups.is_empty() {
                state.group_by(*slot)?.merge_batch(&ctx.local_groups);
                counters.atomics += 1;
            }
        }
        TerminalStep::HashJoinBuild { payload, slot, .. } => {
            let (keys, payload_cols) = (&scratch.build_keys, &scratch.build_payload);
            state.hash_table_of_width(*slot, payload.len())?.insert_batch(keys, payload_cols);
            counters.atomics += keys.len() as u64;
        }
        TerminalStep::Pack { .. } => {}
    }

    counters.probes = probes;
    counters.probe_matches = probe_matches;
    counters.rows_terminal = rows_terminal;
    Ok((outputs, counters))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::ir::{AggSpec, StateSlot};
    use hetex_common::{Block, BlockId, BlockMeta, ColumnData, MemoryNodeId, PipelineId};
    use hetex_topology::DeviceKind;
    use std::sync::Arc;

    fn block_of(cols: Vec<Vec<i64>>) -> BlockHandle {
        let rows = cols[0].len();
        let block = Block::new(cols.into_iter().map(ColumnData::Int64).collect(), rows).unwrap();
        BlockHandle::new(block, BlockMeta::new(BlockId::new(0), MemoryNodeId::new(0)))
    }

    /// Run the same pipeline shape through the chunk kernel and the per-tuple
    /// interpreter and require byte-identical outputs (blocks, order,
    /// counters).
    fn assert_modes_agree(
        steps: Vec<Step>,
        terminal: TerminalStep,
        cols: Vec<Vec<i64>>,
        mk_state: impl Fn() -> SharedState,
        check: impl Fn(&SharedState, &[BlockHandle]),
    ) {
        let width = cols.len();
        let pipeline =
            CompiledPipeline::new(PipelineId::new(77), DeviceKind::CpuCore, width, steps, terminal)
                .unwrap();
        let block = block_of(cols);

        let run = |vectorized: bool| {
            let state = mk_state();
            let mut ctx = ExecCtx::cpu(MemoryNodeId::new(0), 100);
            let (mut blocks, counters) = if vectorized {
                process_block(&pipeline, &block, &state, &mut ctx).unwrap()
            } else {
                crate::lower_cpu::process_block(&pipeline, &block, &state, &mut ctx).unwrap()
            };
            let tail = pipeline.finalize_instance(&mut ctx).unwrap();
            blocks.extend(tail.blocks);
            (state, blocks, counters)
        };
        let (vstate, vblocks, vcount) = run(true);
        let (tstate, tblocks, tcount) = run(false);

        assert_eq!(vcount, tcount, "counters diverged");
        assert_eq!(vblocks.len(), tblocks.len(), "block count diverged");
        for (vb, tb) in vblocks.iter().zip(&tblocks) {
            assert_eq!(vb.rows(), tb.rows());
            assert_eq!(vb.meta().hash_partition, tb.meta().hash_partition);
            for c in 0..vb.block().width() {
                for r in 0..vb.rows() {
                    assert_eq!(
                        vb.block().column(c).unwrap().get_i64(r),
                        tb.block().column(c).unwrap().get_i64(r),
                        "col {c} row {r}"
                    );
                }
            }
        }
        check(&vstate, &vblocks);
        check(&tstate, &tblocks);
    }

    #[test]
    fn refine_selection_keeps_flagged_lanes_in_order() {
        let mut sel: Vec<u32> = vec![0, 3, 4, 9, 11];
        refine_selection(&mut sel, &[1, 0, 7, 0, -2]);
        assert_eq!(sel, vec![0, 4, 11]);
        refine_selection(&mut sel, &[0, 0, 0]);
        assert!(sel.is_empty());
        // Refining an empty selection is a no-op.
        refine_selection(&mut sel, &[]);
        assert!(sel.is_empty());
    }

    #[test]
    fn a_window_over_shared_columns_reads_like_an_owned_copy_of_its_rows() {
        let n = VEC_CHUNK * 3;
        let a: Vec<i32> = (0..n as i32).map(|i| i % 89 - 40).collect();
        let b: Vec<i64> = (0..n as i64).map(|i| i * 7).collect();
        let (offset, rows) = (VEC_CHUNK + 3, VEC_CHUNK + 100);
        let rows_of = offset..offset + rows;
        let copy = Block::new(
            vec![
                ColumnData::Int32(a[rows_of.clone()].to_vec()),
                ColumnData::Int64(b[rows_of].to_vec()),
            ],
            rows,
        )
        .unwrap();
        let shared = vec![Arc::new(ColumnData::Int32(a)), Arc::new(ColumnData::Int64(b))];
        let window = Block::window(shared, offset, rows).unwrap();
        assert_eq!(window.byte_size(), copy.byte_size());
        let meta = BlockMeta::new(BlockId::new(0), MemoryNodeId::new(0));
        let pipeline = CompiledPipeline::new(
            PipelineId::new(78),
            DeviceKind::CpuCore,
            2,
            vec![Step::Filter { predicate: Expr::col(0).gt_lit(0) }],
            TerminalStep::Pack {
                exprs: vec![Expr::col(1), Expr::col(0)],
                partition_by: None,
                partitions: 1,
            },
        )
        .unwrap();
        let run = |block: Block| {
            let mut ctx = ExecCtx::cpu(MemoryNodeId::new(0), 1 << 20);
            let handle = BlockHandle::new(block, meta.clone());
            let (mut out, counters) =
                process_block(&pipeline, &handle, &SharedState::new(), &mut ctx).unwrap();
            out.extend(pipeline.finalize_instance(&mut ctx).unwrap().blocks);
            let cols: Vec<Vec<Option<i64>>> = out
                .iter()
                .flat_map(|h| {
                    h.block()
                        .columns()
                        .map(|c| (0..c.len()).map(|r| c.get_i64(r)).collect())
                        .collect::<Vec<_>>()
                })
                .collect();
            (cols, counters)
        };
        let (from_copy, copy_counters) = run(copy);
        assert!(!from_copy.is_empty() && from_copy[0].len() < rows);
        assert_eq!(run(window), (from_copy, copy_counters));
    }

    #[test]
    fn filtered_reduce_matches_tuple_at_a_time_across_chunk_boundaries() {
        // > VEC_CHUNK rows so the chunk loop actually iterates; odd tail.
        let n = VEC_CHUNK * 2 + 345;
        let a: Vec<i64> = (0..n as i64).map(|i| i % 97).collect();
        let b: Vec<i64> = (0..n as i64).map(|i| i * 3 - 1000).collect();
        assert_modes_agree(
            vec![Step::Filter { predicate: Expr::col(0).between(10, 60) }],
            TerminalStep::Reduce {
                aggs: vec![
                    AggSpec::sum(Expr::col(1)),
                    AggSpec::count(),
                    AggSpec::min(Expr::col(1)),
                    AggSpec::max(Expr::col(1)),
                ],
                slot: StateSlot(0),
            },
            vec![a, b],
            || {
                let mut s = SharedState::new();
                s.add_accumulators(&[
                    AggSpec::sum(Expr::col(1)),
                    AggSpec::count(),
                    AggSpec::min(Expr::col(1)),
                    AggSpec::max(Expr::col(1)),
                ]);
                s
            },
            |state, _| {
                let vals = state.accumulators(StateSlot(0)).unwrap().values();
                assert_eq!(
                    vals[1],
                    (0..(VEC_CHUNK * 2 + 345) as i64)
                        .filter(|i| (10..=60).contains(&(i % 97)))
                        .count() as i64
                );
            },
        );
    }

    #[test]
    fn probe_fan_out_and_group_by_match_tuple_at_a_time() {
        let n = VEC_CHUNK + 200;
        let keys: Vec<i64> = (0..n as i64).map(|i| i % 50).collect();
        let vals: Vec<i64> = (0..n as i64).collect();
        let mk_state = || {
            let mut s = SharedState::new();
            let ht = s.add_hash_table(1);
            // Key 7 fans out to two build rows; keys >= 40 have no match.
            for k in 0..40 {
                s.hash_table(ht).unwrap().insert(k, vec![k * 10]);
            }
            s.hash_table(ht).unwrap().insert(7, vec![70_000]);
            s.add_group_by(&[AggSpec::sum(Expr::col(2)), AggSpec::count()]);
            s
        };
        assert_modes_agree(
            vec![
                Step::HashJoinProbe { key: Expr::col(0), slot: StateSlot(0), payload_width: 1 },
                Step::Filter { predicate: Expr::col(2).gt_lit(-1) },
            ],
            TerminalStep::GroupBy {
                keys: vec![Expr::col(0)],
                aggs: vec![AggSpec::sum(Expr::col(2)), AggSpec::count()],
                slot: StateSlot(1),
            },
            vec![keys, vals],
            mk_state,
            |state, _| {
                let groups = state.group_by(StateSlot(1)).unwrap().snapshot();
                assert_eq!(groups.len(), 40);
            },
        );
    }

    #[test]
    fn wide_fan_out_probe_packs_the_same_rows_in_the_same_order() {
        // Every build key carries three two-column payload rows inserted at
        // different times, so each matching probe fans out 3x and the output
        // of one chunk overflows the chunk size.
        let n = VEC_CHUNK * 2 + 10;
        let keys: Vec<i64> = (0..n as i64).map(|i| (i * 13) % 300 - 20).collect();
        let vals: Vec<i64> = (0..n as i64).collect();
        let mk_state = || {
            let mut s = SharedState::new();
            let ht = s.add_hash_table(2);
            for copy in 0..3 {
                for k in 0..250 {
                    s.hash_table(ht).unwrap().insert(k, vec![k * 10 + copy, -k]);
                }
            }
            s
        };
        let matching = keys.iter().filter(|k| (0..250).contains(*k)).count();
        assert_modes_agree(
            vec![Step::HashJoinProbe { key: Expr::col(0), slot: StateSlot(0), payload_width: 2 }],
            TerminalStep::Pack {
                exprs: vec![Expr::col(1), Expr::col(2), Expr::col(3)],
                partition_by: None,
                partitions: 1,
            },
            vec![keys, vals],
            mk_state,
            |_, blocks| {
                assert_eq!(blocks.iter().map(BlockHandle::rows).sum::<usize>(), matching * 3);
                // Matches of one probe tuple stay adjacent, in insertion order.
                let first = blocks[0].block();
                for r in 0..3 {
                    assert_eq!(
                        first.column(0).unwrap().get_i64(r),
                        first.column(0).unwrap().get_i64(0)
                    );
                    assert_eq!(first.column(1).unwrap().get_i64(r).unwrap() % 10, r as i64);
                }
            },
        );
    }

    #[test]
    fn a_block_of_64k_distinct_groups_matches_tuple_at_a_time() {
        // Every tuple starts its own group: the block-local table grows from
        // empty to 64k groups inside one block, then merges them all.
        let n = 64 * 1024;
        let keys: Vec<i64> =
            (0..n as i64).map(|i| i.wrapping_mul(0x9E37_79B9) ^ (i << 40)).collect();
        let vals: Vec<i64> = (0..n as i64).map(|i| i - 7).collect();
        let aggs =
            || vec![AggSpec::sum(Expr::col(1)), AggSpec::count(), AggSpec::max(Expr::col(1))];
        assert_modes_agree(
            Vec::new(),
            TerminalStep::GroupBy { keys: vec![Expr::col(0)], aggs: aggs(), slot: StateSlot(0) },
            vec![keys.clone(), vals],
            || {
                let mut s = SharedState::new();
                s.add_group_by(&aggs());
                s
            },
            |state, _| {
                let groups = state.group_by(StateSlot(0)).unwrap().snapshot();
                assert_eq!(groups.len(), n);
                let row = keys.iter().position(|k| *k == groups[0].0[0]).unwrap() as i64;
                assert_eq!(groups[0].1, vec![row - 7, 1, row - 7]);
            },
        );
    }

    #[test]
    fn map_and_hash_pack_match_tuple_at_a_time() {
        let n = VEC_CHUNK + 77;
        let a: Vec<i64> = (0..n as i64).collect();
        let b: Vec<i64> = (0..n as i64).map(|i| i % 11).collect();
        assert_modes_agree(
            vec![
                Step::Filter { predicate: Expr::col(1).in_list(vec![1, 3, 5, 7, 9]) },
                Step::Map { exprs: vec![Expr::col(0).mul(Expr::col(1)), Expr::col(1)] },
            ],
            TerminalStep::Pack {
                exprs: vec![Expr::col(0), Expr::col(1)],
                partition_by: Some(Expr::col(1)),
                partitions: 3,
            },
            vec![a, b],
            SharedState::new,
            |_, blocks| {
                assert!(!blocks.is_empty());
                for h in blocks {
                    let p = h.meta().hash_partition.expect("hash-pack tags blocks");
                    let keys = h.block().column(1).unwrap();
                    for r in 0..h.rows() {
                        assert_eq!(keys.get_i64(r).unwrap().unsigned_abs() % 3, p);
                    }
                }
            },
        );
    }

    #[test]
    fn hash_join_build_matches_tuple_at_a_time() {
        let n = 500;
        let k: Vec<i64> = (0..n as i64).collect();
        let v: Vec<i64> = (0..n as i64).map(|i| i * 2).collect();
        assert_modes_agree(
            vec![Step::Filter { predicate: Expr::col(0).lt_lit(100) }],
            TerminalStep::HashJoinBuild {
                key: Expr::col(0),
                payload: vec![Expr::col(1)],
                slot: StateSlot(0),
            },
            vec![k, v],
            || {
                let mut s = SharedState::new();
                s.add_hash_table(1);
                s
            },
            |state, _| {
                assert_eq!(state.hash_table(StateSlot(0)).unwrap().len(), 100);
            },
        );
    }

    /// An emitted block as these tests compare it: id, partition tag, weight,
    /// rows (the only content of a zero-width block) and column-major values.
    type Emitted = (BlockId, Option<u64>, f64, usize, Vec<Vec<i64>>);

    fn dump(blocks: &[BlockHandle]) -> Vec<Emitted> {
        blocks
            .iter()
            .map(|h| {
                let cols = h
                    .block()
                    .columns()
                    .map(|c| (0..c.len()).map(|r| c.get_i64(r).unwrap()).collect())
                    .collect();
                (h.meta().id, h.meta().hash_partition, h.meta().weight, h.rows(), cols)
            })
            .collect()
    }

    /// SplitMix64: the property tests' value source.
    fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Feed `inputs` through one instance — the chunk kernel, or the
    /// per-tuple oracle filling the same open blocks a tuple at a time — and
    /// finalize it: every emitted block in emission order, and the counters
    /// of every call.
    fn run_instance(
        pipeline: &CompiledPipeline,
        inputs: &[BlockHandle],
        state: &SharedState,
        ctx: &mut ExecCtx,
        per_tuple: bool,
    ) -> (Vec<Emitted>, Vec<BlockCounters>) {
        let mut blocks = Vec::new();
        let mut counters = Vec::new();
        for input in inputs {
            let (out, c) = if per_tuple {
                ctx.current_weight = input.meta().weight;
                crate::lower_cpu::process_block(pipeline, input, state, ctx).unwrap()
            } else {
                let out = pipeline.process_block(input, state, ctx).unwrap();
                (out.blocks, out.counters)
            };
            blocks.extend(out);
            counters.push(c);
        }
        let tail = pipeline.finalize_instance(ctx).unwrap();
        blocks.extend(tail.blocks);
        counters.push(tail.counters);
        (dump(&blocks), counters)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(3))]

        /// The columnar Pack terminal emits what the per-tuple oracle emits —
        /// blocks, ids, partition tags, weights, order, boundaries and
        /// counters — for every output width, capacity and partitioning, with
        /// blocks of a few chunks each fed through one context before it is
        /// finalized.
        #[test]
        fn columnar_pack_matches_the_per_tuple_oracle(
            sizes in proptest::collection::vec(0usize..1_500, 2..5),
            seed in 0u64..u64::MAX,
            keep in 0i64..101,
        ) {
            let inputs: Vec<BlockHandle> = sizes
                .iter()
                .enumerate()
                .map(|(b, &rows)| {
                    let at =
                        |i: usize, salt: u64| mix(seed ^ mix((b * 4_096 + i) as u64 ^ salt));
                    let mut handle = block_of(vec![
                        (0..rows).map(|i| at(i, 1) as i64).collect(),
                        (0..rows).map(|i| (at(i, 2) % 1_000) as i64 - 500).collect(),
                        (0..rows).map(|i| (at(i, 3) % 100) as i64).collect(),
                    ]);
                    handle.meta_mut().weight = 1.0 + b as f64;
                    handle
                })
                .collect();
            let survivors: usize = inputs
                .iter()
                .map(|h| {
                    let f = h.block().column(2).unwrap();
                    (0..h.rows()).filter(|&r| f.get_i64(r).unwrap() < keep).count()
                })
                .sum();
            let exprs = [
                Expr::col(1),
                Expr::col(0),
                Expr::col(0).mul(Expr::col(2)),
                Expr::lit(-7),
                Expr::col(2),
            ];
            let state = SharedState::new();
            for width in 0..=4 {
                for capacity in [1, 2, 1023, 1024, 1025, 64 * 1024] {
                    for partitions in [None, Some(1), Some(2), Some(61)] {
                        let pipeline = CompiledPipeline::new(
                            PipelineId::new(79),
                            DeviceKind::CpuCore,
                            3,
                            vec![Step::Filter { predicate: Expr::col(2).lt_lit(keep) }],
                            TerminalStep::Pack {
                                exprs: exprs[..width].to_vec(),
                                partition_by: partitions.map(|_| Expr::col(1)),
                                partitions: partitions.unwrap_or(1),
                            },
                        )
                        .unwrap();
                        let run = |per_tuple| {
                            let mut ctx = ExecCtx::cpu(MemoryNodeId::new(0), capacity);
                            run_instance(&pipeline, &inputs, &state, &mut ctx, per_tuple)
                        };
                        let (blocks, counters) = run(false);
                        let case = format!("width {width}, capacity {capacity}, {partitions:?}");
                        let oracle = run(true);
                        proptest::prop_assert_eq!(&(blocks.clone(), counters), &oracle, "{}", case);
                        // What neither path may get wrong in the same way.
                        proptest::prop_assert_eq!(
                            blocks.iter().map(|b| b.3).sum::<usize>(), survivors, "{}", case
                        );
                        for (r, (id, tag, _, rows, cols)) in blocks.iter().enumerate() {
                            proptest::prop_assert_eq!(id.index(), r);
                            proptest::prop_assert!((1..=capacity).contains(rows));
                            let tagged = (partitions, tag, cols.first());
                            if let (Some(n), Some(tag), Some(keys)) = tagged {
                                proptest::prop_assert!(
                                    keys.iter().all(|k| k.unsigned_abs() % n as u64 == *tag)
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// Generated-case budget of the register-model property:
    /// `HETEX_KERNEL_CASES` cases (default 24).
    fn kernel_cases() -> u32 {
        std::env::var("HETEX_KERNEL_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(24)
    }

    /// How a generated join table stores its keys.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum TableKind {
        /// Unique dense keys, sealed with a direct index.
        Direct,
        /// Unique keys spread too far for a direct index, sealed hashed.
        Hashed,
        /// Unique dense keys, never sealed.
        Unsealed,
        /// Dense keys of one to three rows each, one key with two at least,
        /// sealed.
        FanOut,
    }

    /// The stride of a [`TableKind::Hashed`] table's keys.
    const SPARSE: i64 = 1 << 40;

    /// A join table to generate: its kind, payload width and rows.
    struct TableSpec {
        kind: TableKind,
        width: usize,
        rows: Vec<(i64, Vec<i64>)>,
    }

    /// A probe chain of one to four tables, filters and maps between the
    /// probes, and one terminal of each kind, drawn from `rng`. Payload values are keys of
    /// the next tables (0..72, of which 0..64 may be present), input column
    /// 0 is a key, 1 a filter column, and 2 and 3 are wide values that are
    /// read first by the terminal unless the chain holds a map.
    fn probe_chain(rng: &mut proptest::TestRng) -> (Vec<TableSpec>, Vec<Step>, Vec<TerminalStep>) {
        let kinds = [TableKind::Direct, TableKind::Hashed, TableKind::Unsealed, TableKind::FanOut];
        let maps = rng.below(2) == 0;
        let mut tables = Vec::new();
        let mut steps = Vec::new();
        let (mut width, mut keys) = (4, vec![0usize]);
        for slot in 0..1 + rng.below(4) as usize {
            let kind = kinds[rng.below(4) as usize];
            let pw = 1 + rng.below(2) as usize;
            let density = [5, 40, 80, 100][rng.below(4) as usize];
            let mut rows = Vec::new();
            for i in 0..64 {
                let k = (i * 37 + slot as i64) % 64;
                // The first two keys always land, the first twice in a
                // fan-out table.
                let copies = if i < 2 {
                    1 + usize::from(i == 0 && kind == TableKind::FanOut)
                } else if rng.below(100) >= density {
                    0
                } else if kind == TableKind::FanOut {
                    1 + rng.below(3) as usize
                } else {
                    1
                };
                for _ in 0..copies {
                    let stored = if kind == TableKind::Hashed { k * SPARSE } else { k };
                    rows.push((stored, (0..pw).map(|_| rng.below(72) as i64).collect()));
                }
            }
            tables.push(TableSpec { kind, width: pw, rows });
            if rng.below(2) == 0 {
                let r =
                    if rng.below(2) == 0 { 1 } else { keys[rng.below(keys.len() as u64) as usize] };
                steps.push(Step::Filter { predicate: Expr::col(r).lt_lit(rng.below(110) as i64) });
            }
            if maps && rng.below(2) == 0 {
                let mut exprs: Vec<Expr> = (0..width).map(Expr::col).collect();
                exprs.push(Expr::col(1).sub(Expr::col(3)));
                steps.push(Step::Map { exprs });
                width += 1;
            }
            let key = Expr::col(keys[rng.below(keys.len() as u64) as usize]);
            let key = if kind == TableKind::Hashed { key.mul(Expr::lit(SPARSE)) } else { key };
            steps.push(Step::HashJoinProbe { key, slot: StateSlot(slot), payload_width: pw });
            keys.extend(width..width + pw);
            width += pw;
        }
        if rng.below(3) == 0 {
            steps.push(Step::Filter { predicate: Expr::col(3).gt_lit(-500) });
        }
        let (last, slot) = (*keys.last().unwrap(), StateSlot(tables.len()));
        let partitions = 1 + rng.below(7) as usize;
        let terminals = vec![
            TerminalStep::Pack {
                exprs: vec![Expr::col(2), Expr::col(last), Expr::col(3)],
                partition_by: None,
                partitions: 1,
            },
            TerminalStep::Pack {
                exprs: vec![Expr::col(3), Expr::col(0)],
                partition_by: Some(Expr::col(2)),
                partitions,
            },
            TerminalStep::HashJoinBuild {
                key: Expr::col(last),
                payload: vec![Expr::col(2), Expr::col(3)],
                slot,
            },
            TerminalStep::Reduce {
                aggs: vec![
                    AggSpec::sum(Expr::col(2)),
                    AggSpec::count(),
                    AggSpec::min(Expr::col(3)),
                    AggSpec::max(Expr::col(last)),
                ],
                slot,
            },
            TerminalStep::GroupBy {
                keys: vec![Expr::col(last), Expr::col(3)],
                aggs: vec![AggSpec::sum(Expr::col(2)), AggSpec::count()],
                slot,
            },
        ];
        (tables, steps, terminals)
    }

    /// The generated tables, sealed as their kind says, then the terminal's
    /// state object.
    fn chain_state(tables: &[TableSpec], terminal: &TerminalStep) -> SharedState {
        let mut state = SharedState::new();
        for spec in tables {
            let slot = state.add_hash_table(spec.width);
            let table = state.hash_table(slot).unwrap();
            for (key, payload) in &spec.rows {
                table.insert(*key, payload.clone());
            }
            if spec.kind != TableKind::Unsealed {
                table.seal();
            }
            if spec.kind != TableKind::FanOut {
                assert_eq!(table.is_direct(), spec.kind == TableKind::Direct, "{:?}", spec.kind);
            }
            assert_eq!(table.len() == table.distinct_keys(), spec.kind != TableKind::FanOut);
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

    /// One input block of `rows` rows: column `c` is `Int32` where
    /// `int32[c]`, values as [`probe_chain`] describes them.
    fn chain_input(rng: &mut proptest::TestRng, rows: usize, int32: [bool; 4]) -> BlockHandle {
        let columns = (0..4)
            .map(|c| {
                let values: Vec<i64> = (0..rows)
                    .map(|_| match c {
                        0 => rng.below(70) as i64,
                        1 => rng.below(100) as i64,
                        2 => rng.next_u64() as i32 as i64,
                        _ => rng.below(2_000) as i64 - 1_000,
                    })
                    .collect();
                if int32[c] {
                    ColumnData::Int32(values.into_iter().map(|v| v as i32).collect())
                } else {
                    ColumnData::Int64(values)
                }
            })
            .collect();
        let block = Block::new(columns, rows).unwrap();
        BlockHandle::new(block, BlockMeta::new(BlockId::new(0), MemoryNodeId::new(0)))
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(kernel_cases()))]

        /// Lazy registers and in-place unique-key probes change nothing the
        /// per-tuple oracle can see: blocks, ids, tags, order, counters and
        /// the state left behind, for probe chains over every kind of join
        /// table with filters and maps between them, every terminal, `Int32`
        /// and `Int64` inputs, and blocks on and around the chunk size fed
        /// through one context.
        #[test]
        fn lazy_registers_match_the_per_tuple_oracle(seed in 0u64..u64::MAX) {
            let mut rng = proptest::TestRng::new(seed);
            let (tables, steps, terminals) = probe_chain(&mut rng);
            let int32 = [0, 1, 2, 3].map(|_| rng.below(2) == 0);
            let sizes = [0, 1, 1_023, 1_024, 1_025, 2_900 + rng.below(200) as usize];
            let inputs: Vec<BlockHandle> = (0..1 + rng.below(3))
                .map(|b| {
                    let rows = sizes[rng.below(sizes.len() as u64) as usize];
                    let mut input = chain_input(&mut rng, rows, int32);
                    input.meta_mut().weight = 1.0 + b as f64;
                    input
                })
                .collect();
            let capacity = [1, 7, 1_023, 1_024, 4_096][rng.below(5) as usize];
            for terminal in terminals {
                let pipeline = CompiledPipeline::new(
                    PipelineId::new(81),
                    DeviceKind::CpuCore,
                    4,
                    steps.clone(),
                    terminal.clone(),
                )
                .unwrap();
                let run = |per_tuple| {
                    let state = chain_state(&tables, &terminal);
                    let mut ctx = ExecCtx::cpu(MemoryNodeId::new(0), capacity);
                    let (blocks, counters) =
                        run_instance(&pipeline, &inputs, &state, &mut ctx, per_tuple);
                    (blocks, counters, dump_state(&state))
                };
                let case = format!("seed {seed}: {steps:?} -> {terminal:?}, capacity {capacity}");
                proptest::prop_assert_eq!(run(false), run(true), "{}", case);
            }
        }
    }

    #[test]
    fn a_float_input_fails_its_block_even_when_no_row_reads_it() {
        // Column 1 is read only after a probe that matches no row.
        let rows = 2_000;
        let block = Block::new(
            vec![
                ColumnData::Int64((0..rows as i64).collect()),
                ColumnData::Float64(vec![0.5; rows]),
            ],
            rows,
        )
        .unwrap();
        let block = BlockHandle::new(block, BlockMeta::new(BlockId::new(0), MemoryNodeId::new(0)));
        let mut state = SharedState::new();
        let ht = state.add_hash_table(1);
        state.hash_table(ht).unwrap().insert(-1, vec![0]);
        let aggs = vec![AggSpec::sum(Expr::col(1)), AggSpec::count()];
        let acc = state.add_accumulators(&aggs);
        let pipeline = CompiledPipeline::new(
            PipelineId::new(82),
            DeviceKind::CpuCore,
            2,
            vec![Step::HashJoinProbe { key: Expr::col(0), slot: ht, payload_width: 1 }],
            TerminalStep::Reduce { aggs, slot: acc },
        )
        .unwrap();
        let mut ctx = ExecCtx::cpu(MemoryNodeId::new(0), 100);
        match pipeline.process_block(&block, &state, &mut ctx) {
            Err(HetError::Execution(msg)) => {
                assert!(msg.contains("input column 1 is Float64"), "{msg}")
            }
            other => panic!("expected an execution error, got {other:?}"),
        }
        assert_eq!(state.accumulators(acc).unwrap().values(), vec![0, 0]);
    }

    /// Per state slot: hash tables as their payloads for keys 0..128 in match
    /// order, accumulators, sorted groups.
    fn dump_state(state: &SharedState) -> Vec<String> {
        use crate::state::StateObject;
        (0..state.len())
            .map(|slot| match state.object(StateSlot(slot)).unwrap() {
                StateObject::HashTable(table) => {
                    let mut rows = Vec::new();
                    for k in 0..128 {
                        table.probe(k, |payload| rows.push((k, payload.to_vec())));
                    }
                    format!("{rows:?}")
                }
                StateObject::Accumulators(acc) => format!("{:?}", acc.values()),
                StateObject::GroupBy(groups) => format!("{:?}", groups.snapshot()),
            })
            .collect()
    }

    #[test]
    fn a_reused_context_gives_a_block_what_a_fresh_context_gives_it() {
        // Slot 0 holds three build rows per key in 0..40, so a matching probe
        // fans out 3x; the filter passes every row of a `pass` block and
        // none of another.
        let steps = vec![
            Step::Filter { predicate: Expr::col(1).gt_lit(29) },
            Step::HashJoinProbe { key: Expr::col(0), slot: StateSlot(0), payload_width: 1 },
        ];
        let input = |rows: usize, pass: bool| {
            block_of(vec![
                (0..rows as i64).map(|i| (i * 7) % 40).collect(),
                (0..rows as i64).map(|i| if pass { 30 + i % 50 } else { i % 30 }).collect(),
            ])
        };
        let terminals = [
            TerminalStep::Reduce {
                aggs: vec![
                    AggSpec::sum(Expr::col(2)),
                    AggSpec::count(),
                    AggSpec::min(Expr::col(1)),
                ],
                slot: StateSlot(1),
            },
            TerminalStep::GroupBy {
                keys: vec![Expr::col(0), Expr::col(2)],
                aggs: vec![AggSpec::sum(Expr::col(1)), AggSpec::count()],
                slot: StateSlot(1),
            },
            TerminalStep::HashJoinBuild {
                key: Expr::col(0),
                payload: vec![Expr::col(1), Expr::col(2)],
                slot: StateSlot(1),
            },
            TerminalStep::Pack {
                exprs: vec![Expr::col(2), Expr::col(1)],
                partition_by: None,
                partitions: 1,
            },
            TerminalStep::Pack {
                exprs: vec![Expr::col(0), Expr::col(2), Expr::col(1)],
                partition_by: Some(Expr::col(2)),
                partitions: 61,
            },
        ];
        let mk_state = |terminal: &TerminalStep| {
            let mut state = SharedState::new();
            let ht = state.add_hash_table(1);
            for copy in 0..3 {
                for k in 0..40 {
                    state.hash_table(ht).unwrap().insert(k, vec![k * 100 + copy]);
                }
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
        };
        let gpu = Arc::new(hetex_gpu_sim::device::standalone_gpu());
        let ctx_for = |device: DeviceKind| match device {
            DeviceKind::CpuCore => ExecCtx::cpu(MemoryNodeId::new(0), 500),
            DeviceKind::Gpu => ExecCtx::gpu(Arc::clone(&gpu), 500),
        };
        // Block B alone, on a context that may have run other blocks: what
        // it emits (ids aside, which number the instance's blocks), every
        // counter, and the state it leaves.
        let observe = |pipeline: &CompiledPipeline, b: &BlockHandle, ctx: &mut ExecCtx| {
            let state = mk_state(pipeline.terminal());
            let (blocks, counters) =
                run_instance(pipeline, std::slice::from_ref(b), &state, ctx, false);
            let blocks: Vec<_> =
                blocks.into_iter().map(|(_, tag, w, rows, cols)| (tag, w, rows, cols)).collect();
            (blocks, counters, dump_state(&state))
        };
        let orders = [
            ((3_000, false), (700, true)),
            ((3_000, true), (700, true)),
            ((2_100, true), (500, false)),
        ];
        for device in [DeviceKind::CpuCore, DeviceKind::Gpu] {
            for terminal in &terminals {
                let pipeline = CompiledPipeline::new(
                    PipelineId::new(80),
                    device,
                    2,
                    steps.clone(),
                    terminal.clone(),
                )
                .unwrap();
                for ((a_rows, a_pass), (b_rows, b_pass)) in orders {
                    let (a, b) = (input(a_rows, a_pass), input(b_rows, b_pass));
                    let mut reused = ctx_for(device);
                    let state = mk_state(terminal);
                    pipeline.process_block(&a, &state, &mut reused).unwrap();
                    pipeline.finalize_instance(&mut reused).unwrap();
                    let seen = observe(&pipeline, &b, &mut reused);
                    assert_eq!(
                        seen,
                        observe(&pipeline, &b, &mut ctx_for(device)),
                        "{device:?} {terminal:?}"
                    );
                    if b_pass {
                        assert_eq!(seen.1[0].probe_matches, 3 * seen.1[0].probes, "3x fan-out");
                    } else {
                        assert_eq!(seen.1[0].rows_terminal, 0, "emptied selection");
                    }
                }
            }
        }
    }

    /// `out.work` of three fixed CPU blocks, as literals captured at the
    /// commit before the charge shape was keyed on the pipeline's device
    /// instead of a kernel-mode setting. CPU `sim_s` is a function of these
    /// (their GPU twins are `lower_gpu`'s `gpu_work_profiles_are_pinned`).
    #[test]
    fn cpu_work_profiles_are_pinned() {
        use hetex_topology::WorkProfile;
        let weighted = |cols: Vec<Vec<i64>>, weight: f64| {
            let mut handle = block_of(cols);
            handle.meta_mut().weight = weight;
            handle
        };
        let cpu_ctx = |capacity: usize| ExecCtx::cpu(MemoryNodeId::new(0), capacity);

        // (a) filter -> reduce, several chunks with an odd tail.
        let mut state = SharedState::new();
        let aggs = vec![AggSpec::sum(Expr::col(1)), AggSpec::count()];
        let acc = state.add_accumulators(&aggs);
        let p = CompiledPipeline::new(
            PipelineId::new(1),
            DeviceKind::CpuCore,
            2,
            vec![Step::Filter {
                predicate: Expr::col(0).between(10, 60).and(Expr::col(1).gt_lit(3)),
            }],
            TerminalStep::Reduce { aggs, slot: acc },
        )
        .unwrap();
        let block = weighted(
            vec![(0..2_393).map(|i| i % 97).collect(), (0..2_393).map(|i| i * 3 - 1000).collect()],
            1.0,
        );
        assert_eq!(
            p.process_block(&block, &state, &mut cpu_ctx(1024)).unwrap().work,
            WorkProfile {
                bytes_scanned: 38288.0,
                bytes_written: 0.0,
                random_bytes: 0.0,
                tuples: 2393.0,
                ops: 8036.75,
                atomics: 2.0,
                kernel_launches: 0,
            }
        );

        // (b) probe -> group-by, weighted, with a fan-out key.
        let mut state = SharedState::new();
        let ht = state.add_hash_table(1);
        for k in 0..40 {
            state.hash_table(ht).unwrap().insert(k, vec![k * 10]);
        }
        state.hash_table(ht).unwrap().insert(7, vec![70_000]);
        let aggs = vec![AggSpec::sum(Expr::col(2)), AggSpec::max(Expr::col(1))];
        let slot = state.add_group_by(&aggs);
        let p = CompiledPipeline::new(
            PipelineId::new(2),
            DeviceKind::CpuCore,
            2,
            vec![Step::HashJoinProbe { key: Expr::col(0), slot: ht, payload_width: 1 }],
            TerminalStep::GroupBy { keys: vec![Expr::col(0)], aggs, slot },
        )
        .unwrap();
        let block = weighted(vec![(0..1_224).map(|i| i % 50).collect(), (0..1_224).collect()], 2.5);
        assert_eq!(
            p.process_block(&block, &state, &mut cpu_ctx(1024)).unwrap().work,
            WorkProfile {
                bytes_scanned: 48960.0,
                bytes_written: 0.0,
                random_bytes: 174340.0,
                tuples: 3060.0,
                ops: 26723.4375,
                atomics: 2.5,
                kernel_launches: 0,
            }
        );

        // (c) filter -> hash-partitioned pack, flushing mid-block.
        let p = CompiledPipeline::new(
            PipelineId::new(3),
            DeviceKind::CpuCore,
            2,
            vec![Step::Filter { predicate: Expr::col(0).lt_lit(40_000) }],
            TerminalStep::Pack {
                exprs: vec![Expr::col(0), Expr::col(1)],
                partition_by: Some(Expr::col(1)),
                partitions: 3,
            },
        )
        .unwrap();
        let block =
            weighted(vec![(0..65_536).collect(), (0..65_536).map(|i| i % 7).collect()], 1.0);
        assert_eq!(
            p.process_block(&block, &SharedState::new(), &mut cpu_ctx(1000)).unwrap().work,
            WorkProfile {
                bytes_scanned: 1048576.0,
                bytes_written: 624000.0,
                random_bytes: 0.0,
                tuples: 65536.0,
                ops: 90776.0,
                atomics: 0.0,
                kernel_launches: 0,
            }
        );
    }
}
