//! Compiled pipelines and their execution context.
//!
//! A [`CompiledPipeline`] is the product of "JIT compilation": the fused,
//! specialized form of the operators between two pipeline breakers. Its
//! behaviour is identical on every device; *how* it is executed differs per
//! device and is implemented by the two lowerings (`lower_cpu_vec`,
//! `lower_gpu`), selected by the pipeline's device kind.
//!
//! Processing a block returns the produced output blocks plus
//! [`BlockCounters`] describing what actually happened (rows, probes,
//! matches, emitted rows). The counters are converted into a
//! [`WorkProfile`](hetex_topology::WorkProfile) — scaled by the block's
//! weight — which the executor prices with the cost model and charges to the
//! worker's resource clock.

use crate::ir::{Step, TerminalStep};
use crate::lower_cpu_vec::{self, Shape, VecScratch, VEC_CHUNK};
use crate::lower_gpu;
use crate::state::{FlatGroups, SharedState, StateArena};
use hetex_common::{
    Block, BlockHandle, BlockId, BlockMeta, ColumnData, HetError, MemoryNodeId, PipelineId, Result,
};
use hetex_gpu_sim::{GpuDevice, LaunchConfig};
use hetex_topology::{DeviceKind, WorkProfile};
use std::sync::Arc;

/// Functional counters for one processed block (or one finalize call).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BlockCounters {
    /// Tuples read from the input block.
    pub rows_in: u64,
    /// Tuples that reached the terminal step.
    pub rows_terminal: u64,
    /// Tuples emitted into output blocks.
    pub rows_emitted: u64,
    /// Hash-table probes performed.
    pub probes: u64,
    /// Probe matches found.
    pub probe_matches: u64,
    /// Device-scoped atomic updates performed.
    pub atomics: u64,
    /// Kernel launches performed (GPU lowering only).
    pub launches: u64,
    /// Physical input bytes.
    pub bytes_in: u64,
    /// Physical output bytes.
    pub bytes_out: u64,
}

impl BlockCounters {
    /// Merge another counter set into this one.
    pub fn merge(&mut self, other: &BlockCounters) {
        self.rows_in += other.rows_in;
        self.rows_terminal += other.rows_terminal;
        self.rows_emitted += other.rows_emitted;
        self.probes += other.probes;
        self.probe_matches += other.probe_matches;
        self.atomics += other.atomics;
        self.launches += other.launches;
        self.bytes_in += other.bytes_in;
        self.bytes_out += other.bytes_out;
    }
}

/// The result of processing one block (or finalizing an instance).
#[derive(Debug, Default)]
pub struct PipelineOutput {
    /// Output block handles produced.
    pub blocks: Vec<BlockHandle>,
    /// Counters describing the work done.
    pub counters: BlockCounters,
    /// The modeled work, already scaled by the input block's weight.
    pub work: WorkProfile,
}

/// The pack terminal's partially filled output block: a buffer per output
/// column and the row count (the only record of a zero-width block's rows).
#[derive(Debug, Default)]
pub(crate) struct OpenBlock {
    pub(crate) columns: Vec<Vec<i64>>,
    pub(crate) rows: usize,
}

/// Per-instance execution context: which device the instance runs on, where
/// its outputs live, the partially filled output block of the pack terminal
/// and the group-by partials (both flushed by `finalize_instance`), and the
/// kernel's reusable scratch.
#[derive(Debug)]
pub struct ExecCtx {
    /// The device kind this instance runs on.
    pub device: DeviceKind,
    /// The simulated GPU, for GPU instances.
    pub gpu: Option<Arc<GpuDevice>>,
    /// Kernel launch configuration used by the GPU lowering.
    pub launch_config: LaunchConfig,
    /// Capacity (tuples) of produced output blocks.
    pub out_capacity: usize,
    /// Memory node output blocks are produced on (local to this instance).
    pub out_node: MemoryNodeId,
    /// The pack terminal's open output block, whose columns hold a whole
    /// block, so appending to them never reallocates.
    pub(crate) open: OpenBlock,
    /// The chunk kernel's group-by partials: they gather every block of the
    /// instance and merge into the shared table once, in
    /// `finalize_instance`.
    pub(crate) local_groups: FlatGroups,
    /// The chunk kernel's registers, selection, probe matches and buffer
    /// pool, reused by every chunk of every block of the instance.
    pub(crate) scratch: VecScratch,
    /// Weight inherited by produced blocks (set from the last input block).
    pub(crate) current_weight: f64,
    next_block_id: usize,
    /// Where the build buffers and the pack's output columns come from; the
    /// build buffers and any empty output column go back when the context
    /// drops.
    pub(crate) arena: StateArena,
}

impl Drop for ExecCtx {
    fn drop(&mut self) {
        let scratch = &mut self.scratch;
        for buf in scratch.build.iter_mut().chain(&mut self.open.columns) {
            self.arena.give(std::mem::take(buf));
        }
    }
}

impl ExecCtx {
    /// A CPU execution context producing blocks on `out_node`.
    pub fn cpu(out_node: MemoryNodeId, out_capacity: usize) -> Self {
        Self {
            device: DeviceKind::CpuCore,
            gpu: None,
            launch_config: LaunchConfig::new(1, 1),
            out_capacity,
            out_node,
            open: OpenBlock::default(),
            local_groups: FlatGroups::default(),
            scratch: VecScratch::default(),
            current_weight: 1.0,
            next_block_id: 0,
            arena: StateArena::default(),
        }
    }

    /// A GPU execution context bound to a simulated device.
    pub fn gpu(device: Arc<GpuDevice>, out_capacity: usize) -> Self {
        let mut ctx = Self::cpu(device.memory_node(), out_capacity);
        ctx.device = DeviceKind::Gpu;
        ctx.gpu = Some(device);
        ctx.launch_config = LaunchConfig::default_for_device();
        ctx
    }

    /// Take the group partials, the build buffers and the pack's output
    /// columns from `arena`, and give them back to it.
    pub fn with_arena(mut self, arena: &StateArena) -> Self {
        self.local_groups.use_arena(arena);
        self.arena = arena.clone();
        self
    }

    /// Allocate the next output block id for this instance.
    pub(crate) fn next_block_id(&mut self) -> BlockId {
        let id = BlockId::new(self.next_block_id);
        self.next_block_id += 1;
        id
    }

    /// For a pack terminal, give the open block a column per output
    /// expression, each from the arena with room for a whole block.
    pub(crate) fn open_pack(&mut self, terminal: &TerminalStep) {
        let TerminalStep::Pack { exprs } = terminal else { return };
        self.open.columns.resize_with(exprs.len(), Vec::new);
        for column in self.open.columns.iter_mut().filter(|c| c.capacity() == 0) {
            *column = self.arena.take(self.out_capacity);
        }
    }

    /// Emit the open block, which has reached the output capacity, and open
    /// the next one with room for as many rows.
    pub(crate) fn flush_full(&mut self, counters: &mut BlockCounters) -> Result<BlockHandle> {
        let (open, arena) = (&mut self.open, &self.arena);
        let rows = std::mem::take(&mut open.rows);
        let columns =
            open.columns.iter_mut().map(|c| std::mem::replace(c, arena.take(rows))).collect();
        self.build_block(columns, rows, counters)
    }

    /// Build an output block of `rows` rows from its columns, counting the
    /// rows and bytes it emits.
    pub(crate) fn build_block(
        &mut self,
        columns: Vec<Vec<i64>>,
        rows: usize,
        counters: &mut BlockCounters,
    ) -> Result<BlockHandle> {
        counters.rows_emitted += rows as u64;
        counters.bytes_out += (rows * columns.len() * 8) as u64;
        let block = Block::new(columns.into_iter().map(ColumnData::Int64).collect(), rows)?;
        let mut meta = BlockMeta::new(self.next_block_id(), self.out_node);
        meta.weight = self.current_weight;
        Ok(BlockHandle::new(block, meta))
    }
}

/// A device-specialized, fused pipeline.
#[derive(Debug, Clone)]
pub struct CompiledPipeline {
    id: PipelineId,
    device: DeviceKind,
    input_width: usize,
    steps: Vec<Step>,
    terminal: TerminalStep,
    /// Each expression's kernel, per step and then the terminal: chosen once.
    pub(crate) shapes: Vec<Vec<Shape>>,
    /// [`Self::work_profile_on`]'s per-tuple transform and terminal ops on
    /// a CPU core and on a GPU, and its random bytes per probe: summed once.
    ops: [(f64, f64); 2],
    probe_random_bytes: f64,
}

impl CompiledPipeline {
    /// Compile a pipeline, validating that register references are within the
    /// width flowing through each step.
    pub fn new(
        id: PipelineId,
        device: DeviceKind,
        input_width: usize,
        steps: Vec<Step>,
        terminal: TerminalStep,
    ) -> Result<Self> {
        let mut width = input_width;
        for step in &steps {
            step.check_width(width)?;
            width = step.output_width(width);
        }
        terminal.check_width(width)?;
        let shapes = lower_cpu_vec::shapes(&steps, &terminal);
        let ops = [DeviceKind::CpuCore, DeviceKind::Gpu].map(|device| {
            let transform_ops: f64 = steps.iter().map(|s| s.ops_per_tuple(device)).sum();
            (transform_ops, terminal.ops_per_tuple(device))
        });
        let probe_bytes = steps.iter().filter_map(|s| match s {
            Step::HashJoinProbe { payload_width, .. } => Some(16.0 + 8.0 * *payload_width as f64),
            _ => None,
        });
        let probe_random_bytes =
            probe_bytes.clone().sum::<f64>() / probe_bytes.count().max(1) as f64;
        Ok(Self { id, device, input_width, steps, terminal, shapes, ops, probe_random_bytes })
    }

    /// The pipeline's identifier.
    pub fn id(&self) -> PipelineId {
        self.id
    }

    /// The device kind the pipeline was compiled for.
    pub fn device(&self) -> DeviceKind {
        self.device
    }

    /// Number of registers of the input layout.
    pub fn input_width(&self) -> usize {
        self.input_width
    }

    /// The transform steps.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// The terminal step.
    pub fn terminal(&self) -> &TerminalStep {
        &self.terminal
    }

    /// How many of the pipeline's expressions the chunk kernel evaluates
    /// with the tree walker rather than a specialised shape.
    pub fn tree_walked_exprs(&self) -> usize {
        self.shapes.iter().flatten().filter(|s| **s == Shape::Tree).count()
    }

    /// Number of registers flowing into the terminal step.
    pub fn terminal_width(&self) -> usize {
        self.steps.iter().fold(self.input_width, |w, s| s.output_width(w))
    }

    /// Process one input block on this instance.
    pub fn process_block(
        &self,
        block: &BlockHandle,
        state: &SharedState,
        ctx: &mut ExecCtx,
    ) -> Result<PipelineOutput> {
        if block.block().width() != self.input_width {
            return Err(HetError::Execution(format!(
                "pipeline {} expects {} input columns, block has {}",
                self.id,
                self.input_width,
                block.block().width()
            )));
        }
        ctx.current_weight = block.meta().weight;
        let (blocks, counters) = match self.device {
            DeviceKind::CpuCore => lower_cpu_vec::process_block(self, block, state, ctx)?,
            DeviceKind::Gpu => lower_gpu::process_block(self, block, state, ctx)?,
        };
        let work = self.work_profile(&counters, ctx.current_weight);
        Ok(PipelineOutput { blocks, counters, work })
    }

    /// Flush this instance's partially filled pack output, and merge its
    /// group-by partials into `state`'s table. The merge is the host's: the
    /// model charged its atomic per block, so it adds no work.
    pub fn finalize_instance(
        &self,
        state: &SharedState,
        ctx: &mut ExecCtx,
    ) -> Result<PipelineOutput> {
        if let TerminalStep::GroupBy { slot, .. } = &self.terminal {
            if !ctx.local_groups.is_empty() {
                state.group_by(*slot)?.absorb(&mut ctx.local_groups);
            }
        }
        let mut blocks = Vec::new();
        let mut counters = BlockCounters::default();
        let open = std::mem::take(&mut ctx.open);
        if open.rows > 0 {
            blocks.push(ctx.build_block(open.columns, open.rows, &mut counters)?);
        } else {
            open.columns.into_iter().for_each(|c| ctx.arena.give(c));
        }
        let work = self.work_profile(&counters, ctx.current_weight);
        Ok(PipelineOutput { blocks, counters, work })
    }

    /// Finish the shared state once every instance has finished: emit the
    /// results of a reduce / group-by terminal, and seal the table of a
    /// hash-join build (which emits nothing). Must be called exactly once
    /// per pipeline, after every instance has finished and before any
    /// pipeline that probes its table starts, by the executor.
    pub fn emit_state_results(
        &self,
        state: &SharedState,
        ctx: &mut ExecCtx,
    ) -> Result<PipelineOutput> {
        let (columns, rows) = match &self.terminal {
            TerminalStep::Reduce { slot, .. } => {
                (state.accumulators(*slot)?.values().into_iter().map(|v| vec![v]).collect(), 1)
            }
            TerminalStep::GroupBy { slot, .. } => state.group_by(*slot)?.sorted_columns(),
            TerminalStep::HashJoinBuild { slot, .. } => {
                state.hash_table(*slot)?.seal();
                (Vec::new(), 0)
            }
            TerminalStep::Pack { .. } => (Vec::new(), 0),
        };
        let mut counters = BlockCounters::default();
        let mut blocks = Vec::new();
        if rows > 0 {
            blocks.push(ctx.build_block(columns, rows, &mut counters)?);
        }
        let work = self.work_profile(&counters, 1.0);
        Ok(PipelineOutput { blocks, counters, work })
    }

    /// Convert functional counters into modeled work, scaled by `weight` and
    /// priced for the device this pipeline was compiled for.
    pub fn work_profile(&self, counters: &BlockCounters, weight: f64) -> WorkProfile {
        self.work_profile_on(self.device, counters, weight)
    }

    /// Convert functional counters into modeled work, scaled by `weight` and
    /// priced for `device`'s kernel shape (routing estimates price one
    /// template on every consumer kind).
    ///
    /// The charge prices the modeled device, not how the host simulates it.
    /// A GPU thread pays one dispatch op per input tuple (the per-thread
    /// step dispatch plus register handling) on top of the full expression
    /// ops. A CPU core runs the chunk kernel: [`VEC_TUPLE_DISPATCH_OPS`] per
    /// tuple (selection-vector bookkeeping) plus [`VEC_CHUNK_OVERHEAD_OPS`]
    /// per [`VEC_CHUNK`]-tuple chunk (chunk setup/gather amortized across a
    /// thousand tuples), and the per-step ops themselves shrink via
    /// [`Step::ops_per_tuple`] / [`TerminalStep::ops_per_tuple`]. Memory
    /// terms (scan/write/random bytes) are the same on both — the kernel
    /// shape changes how tuples are dispatched, not how many bytes move.
    pub fn work_profile_on(
        &self,
        device: DeviceKind,
        counters: &BlockCounters,
        weight: f64,
    ) -> WorkProfile {
        let (transform_ops, terminal_ops) = self.ops[usize::from(device == DeviceKind::Gpu)];

        let rows_in = counters.rows_in as f64;
        let rows_terminal = counters.rows_terminal as f64;
        let dispatch_ops = match device {
            DeviceKind::Gpu => rows_in,
            DeviceKind::CpuCore => {
                let chunks = counters.rows_in.div_ceil(VEC_CHUNK as u64) as f64;
                rows_in * VEC_TUPLE_DISPATCH_OPS + chunks * VEC_CHUNK_OVERHEAD_OPS
            }
        };
        let ops = dispatch_ops + rows_in * transform_ops + rows_terminal * terminal_ops;
        let random = counters.probes as f64 * self.probe_random_bytes
            + rows_terminal * self.terminal.random_bytes_per_tuple();

        let mut work = WorkProfile::new()
            .scan(counters.bytes_in as f64)
            .write(counters.bytes_out as f64)
            .random(random)
            .compute(rows_in, if rows_in > 0.0 { ops / rows_in } else { 0.0 })
            .atomic(counters.atomics as f64);
        // `scaled` keeps launches: a block standing in for more is launched once.
        work.kernel_launches = counters.launches;
        work.scaled(weight.max(0.0))
    }
}

/// Per-tuple dispatch charge of the CPU chunk kernel: maintaining the
/// selection vector and flag lanes costs a fraction of an op per tuple —
/// versus the full op a GPU thread pays for its per-tuple step dispatch and
/// register handling.
pub const VEC_TUPLE_DISPATCH_OPS: f64 = 0.125;

/// Fixed per-chunk overhead of the CPU chunk kernel (gather setup,
/// selection reset, scratch bookkeeping), amortized over [`VEC_CHUNK`]
/// tuples — ~0.03 ops/tuple at full chunks.
pub const VEC_CHUNK_OVERHEAD_OPS: f64 = 32.0;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::ir::{AggSpec, StateSlot};

    fn input_block(rows: usize) -> BlockHandle {
        let a: Vec<i64> = (0..rows as i64).collect();
        let b: Vec<i64> = (0..rows as i64).map(|i| i * 2).collect();
        let block = Block::new(vec![ColumnData::Int64(a), ColumnData::Int64(b)], rows).unwrap();
        BlockHandle::new(block, BlockMeta::new(BlockId::new(0), MemoryNodeId::new(0)))
    }

    #[test]
    fn pipeline_validates_register_widths() {
        let bad = CompiledPipeline::new(
            PipelineId::new(1),
            DeviceKind::CpuCore,
            2,
            vec![Step::Filter { predicate: Expr::col(5).gt_lit(0) }],
            TerminalStep::Pack { exprs: vec![Expr::col(0)] },
        );
        assert!(bad.is_err());

        // A probe widens the register file, so later steps may reference the
        // appended payload registers.
        let ok = CompiledPipeline::new(
            PipelineId::new(2),
            DeviceKind::CpuCore,
            2,
            vec![
                Step::HashJoinProbe { key: Expr::col(0), slot: StateSlot(0), payload_width: 1 },
                Step::Filter { predicate: Expr::col(2).gt_lit(0) },
            ],
            TerminalStep::Reduce { aggs: vec![AggSpec::count()], slot: StateSlot(1) },
        );
        assert!(ok.is_ok());
        assert_eq!(ok.unwrap().terminal_width(), 3);
    }

    #[test]
    fn rejects_blocks_of_wrong_width() {
        let p = CompiledPipeline::new(
            PipelineId::new(3),
            DeviceKind::CpuCore,
            3,
            vec![],
            TerminalStep::Reduce { aggs: vec![AggSpec::count()], slot: StateSlot(0) },
        )
        .unwrap();
        let mut state = SharedState::new();
        state.add_accumulators(&[AggSpec::count()]);
        let mut ctx = ExecCtx::cpu(MemoryNodeId::new(0), 16);
        let err = p.process_block(&input_block(10), &state, &mut ctx);
        assert!(err.is_err());
    }

    #[test]
    fn work_profile_scales_with_weight_but_not_launches() {
        let p = CompiledPipeline::new(
            PipelineId::new(4),
            DeviceKind::Gpu,
            2,
            vec![Step::Filter { predicate: Expr::col(0).gt_lit(10) }],
            TerminalStep::Reduce { aggs: vec![AggSpec::sum(Expr::col(1))], slot: StateSlot(0) },
        )
        .unwrap();
        let counters = BlockCounters {
            rows_in: 1000,
            rows_terminal: 500,
            bytes_in: 16_000,
            atomics: 4,
            launches: 1,
            ..Default::default()
        };
        let w1 = p.work_profile(&counters, 1.0);
        let w10 = p.work_profile(&counters, 10.0);
        assert!((w10.bytes_scanned - 10.0 * w1.bytes_scanned).abs() < 1e-6);
        assert!((w10.ops - 10.0 * w1.ops).abs() < 1e-6);
        assert_eq!(w1.kernel_launches, 1);
        assert_eq!(w10.kernel_launches, 1);
    }

    #[test]
    fn vectorized_charge_is_cheaper_on_cpu_and_unchanged_on_gpu() {
        let compile = |id: usize, device: DeviceKind| {
            CompiledPipeline::new(
                PipelineId::new(id),
                device,
                2,
                vec![Step::Filter {
                    predicate: Expr::col(0).between(5, 500).and(Expr::col(1).gt_lit(3)),
                }],
                TerminalStep::Reduce { aggs: vec![AggSpec::sum(Expr::col(1))], slot: StateSlot(0) },
            )
            .unwrap()
        };
        let (cpu, gpu) = (compile(11, DeviceKind::CpuCore), compile(12, DeviceKind::Gpu));
        let counters = BlockCounters {
            rows_in: 10_000,
            rows_terminal: 4_000,
            bytes_in: 160_000,
            atomics: 1,
            ..Default::default()
        };
        let per_thread = cpu.work_profile_on(DeviceKind::Gpu, &counters, 1.0);
        let chunked = cpu.work_profile_on(DeviceKind::CpuCore, &counters, 1.0);
        assert!(chunked.ops < per_thread.ops, "{} !< {}", chunked.ops, per_thread.ops);
        // Memory terms do not change: the kernel shape moves no extra bytes.
        assert_eq!(chunked.bytes_scanned, per_thread.bytes_scanned);
        assert_eq!(chunked.random_bytes, per_thread.random_bytes);
        // A pipeline's own charge is its device's shape, whichever template
        // the estimate was taken from.
        assert_eq!(cpu.work_profile(&counters, 1.0), chunked);
        assert_eq!(gpu.work_profile(&counters, 1.0), per_thread);
    }

    #[test]
    fn exec_ctx_builds_tagged_blocks() {
        let mut ctx = ExecCtx::cpu(MemoryNodeId::new(1), 8);
        ctx.current_weight = 2.0;
        let mut counters = BlockCounters::default();
        let h = ctx.build_block(vec![vec![1, 3], vec![2, 4]], 2, &mut counters).unwrap();
        assert_eq!(h.rows(), 2);
        assert_eq!(h.block().column(1).unwrap().get_i64(0), Some(2));
        assert_eq!(h.meta().location, MemoryNodeId::new(1));
        assert!((h.meta().weight - 2.0).abs() < f64::EPSILON);
        // ids increment per instance; a zero-width block keeps its row count
        let h2 = ctx.build_block(Vec::new(), 3, &mut counters).unwrap();
        assert_ne!(h.meta().id, h2.meta().id);
        assert_eq!((h2.rows(), h2.block().width()), (3, 0));
        assert_eq!((counters.rows_emitted, counters.bytes_out), (5, 32));
    }
}
