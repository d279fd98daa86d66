//! Device providers — the interface of Table 1.
//!
//! §4.1: "HetExchange groups the collection of all the utility functions into
//! a device-independent interface, and offers a collection of device providers
//! implementing said interface; a CPU- and a GPU-specific provider at the
//! moment. Device crossing operators are the ones specifying which device
//! provider every pipeline should use."
//!
//! The trait below carries the same surface the paper lists in Table 1:
//!
//! | Device provider methods | | |
//! |---|---|---|
//! | allocStateVar | get/releaseBuffer | #threadsInWorker |
//! | freeStateVar  | malloc/free       | threadIdInWorker |
//! | storeStateVar | convertToMachineCode | loadMachineCode |
//! | loadStateVar  | workerScopedAtomic\<T, Op\> | |
//!
//! State variables are backed by the memory managers, buffers by the block
//! managers (both from `hetex-storage`), worker-scoped atomics by the device
//! atomics of `hetex-gpu-sim`, and "machine code" by the device-specific
//! lowering of the pipeline IR (our stand-in for LLVM x86 / NVPTX back-ends).

use crate::pipeline::CompiledPipeline;
use hetex_common::{MemoryNodeId, Result};
use hetex_gpu_sim::{DeviceAtomicI64, GpuDevice, LaunchConfig};
use hetex_storage::{
    BlockLease, BlockManagerSet, ExhaustionPolicy, MemoryManagerSet, StateAllocation,
};
use hetex_topology::DeviceKind;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// The device-independent utility interface pipelines are generated against.
pub trait DeviceProvider: Send + Sync {
    /// Which device type this provider specializes code for.
    fn kind(&self) -> DeviceKind;

    /// The memory node local to the provider's device.
    fn local_memory(&self) -> MemoryNodeId;

    /// `allocStateVar`: allocate operator state on the provider's local
    /// memory node through its memory manager.
    fn alloc_state_var(&self, managers: &MemoryManagerSet, bytes: u64) -> Result<StateAllocation>;

    /// `freeStateVar`: release operator state (allocation objects free on
    /// drop; this makes the release explicit for generated code symmetry).
    fn free_state_var(&self, allocation: StateAllocation) {
        drop(allocation);
    }

    /// `storeStateVar`: persist a named state value for the pipeline.
    fn store_state_var(&self, name: &str, value: i64);

    /// `loadStateVar`: read back a named state value.
    fn load_state_var(&self, name: &str) -> Option<i64>;

    /// `getBuffer`: lease `bytes` of staging on the provider's local node.
    /// Generated pipeline code must not stall inside a buffer grab, so the
    /// exhaustion behaviour is the explicit fail-fast policy — back-pressure
    /// belongs to the executor's admission path, which parks instead.
    fn get_buffer(&self, managers: &BlockManagerSet, bytes: u64) -> Result<BlockLease> {
        managers.acquire(self.local_memory(), self.local_memory(), bytes, ExhaustionPolicy::Error)
    }

    /// `releaseBuffer`: return a staging block.
    fn release_buffer(&self, lease: BlockLease) {
        drop(lease);
    }

    /// `malloc`: raw scratch allocation in bytes on the local node (modeled
    /// through the same memory manager as state variables).
    fn malloc(&self, managers: &MemoryManagerSet, bytes: u64) -> Result<StateAllocation> {
        self.alloc_state_var(managers, bytes)
    }

    /// `free`: release a scratch allocation.
    fn free(&self, allocation: StateAllocation) {
        drop(allocation);
    }

    /// `#threadsInWorker`: 1 on a CPU core, the grid size on a GPU.
    fn threads_in_worker(&self) -> usize;

    /// `threadIdInWorker`: always 0 on a CPU core; the grid-wide thread id on
    /// a GPU (`lane` is the flat virtual-thread index of the caller).
    fn thread_id_in_worker(&self, lane: usize) -> usize;

    /// `workerScopedAtomic<i64, Add>`: the device-scoped atomic used to merge
    /// partial aggregates into shared state.
    fn worker_scoped_atomic_add(&self, target: &DeviceAtomicI64, value: i64) {
        target.fetch_add(value);
    }

    /// The kernel launch configuration pipelines on this device use.
    fn launch_config(&self) -> LaunchConfig;

    /// `convertToMachineCode`: lower the pipeline to "machine code". Our
    /// substitute returns a human-readable listing of the specialized code
    /// (the shape of Listing 1 / Figure 3), since the real lowering is the
    /// interpretation strategy selected by the pipeline's device kind.
    fn convert_to_machine_code(&self, pipeline: &CompiledPipeline) -> String;

    /// `loadMachineCode`: make the lowered pipeline executable. A no-op here
    /// (pipelines are always executable); kept for interface fidelity.
    fn load_machine_code(&self, _pipeline: &CompiledPipeline) -> Result<()> {
        Ok(())
    }
}

/// Renders the device-agnostic part of a pipeline listing.
fn render_steps(pipeline: &CompiledPipeline, indent: &str) -> String {
    let mut out = String::new();
    for step in pipeline.steps() {
        match step {
            crate::ir::Step::Filter { .. } => {
                out.push_str(&format!("{indent}if !predicate(t): continue\n"))
            }
            crate::ir::Step::Map { exprs } => {
                out.push_str(&format!("{indent}t <- project[{} exprs](t)\n", exprs.len()))
            }
            crate::ir::Step::HashJoinProbe { slot, .. } => out.push_str(&format!(
                "{indent}for m in probe(state[{}], key(t)): t <- t ++ m\n",
                slot.index()
            )),
        }
    }
    match pipeline.terminal() {
        crate::ir::TerminalStep::Pack { .. } => {
            out.push_str(&format!("{indent}append t to output block; flush when full\n"))
        }
        crate::ir::TerminalStep::HashJoinBuild { slot, .. } => out.push_str(&format!(
            "{indent}insert (key(t), payload(t)) into state[{}]\n",
            slot.index()
        )),
        crate::ir::TerminalStep::Reduce { .. } => {
            out.push_str(&format!("{indent}local_acc <- local_acc + f(t)\n"))
        }
        crate::ir::TerminalStep::GroupBy { .. } => {
            out.push_str(&format!("{indent}local_groups[key(t)] <- merge(f(t))\n"))
        }
    }
    out
}

/// The CPU provider: single thread per worker, no neighborhood reduction.
#[derive(Debug)]
pub struct CpuProvider {
    local_memory: MemoryNodeId,
    state_vars: Mutex<HashMap<String, i64>>,
}

impl CpuProvider {
    /// A provider whose workers allocate from `local_memory`.
    pub fn new(local_memory: MemoryNodeId) -> Self {
        Self { local_memory, state_vars: Mutex::new(HashMap::new()) }
    }
}

impl DeviceProvider for CpuProvider {
    fn kind(&self) -> DeviceKind {
        DeviceKind::CpuCore
    }

    fn local_memory(&self) -> MemoryNodeId {
        self.local_memory
    }

    fn alloc_state_var(&self, managers: &MemoryManagerSet, bytes: u64) -> Result<StateAllocation> {
        managers.alloc_on(self.local_memory, bytes)
    }

    fn store_state_var(&self, name: &str, value: i64) {
        self.state_vars.lock().insert(name.to_owned(), value);
    }

    fn load_state_var(&self, name: &str) -> Option<i64> {
        self.state_vars.lock().get(name).copied()
    }

    fn threads_in_worker(&self) -> usize {
        1
    }

    fn thread_id_in_worker(&self, _lane: usize) -> usize {
        0
    }

    fn launch_config(&self) -> LaunchConfig {
        LaunchConfig::new(1, 1)
    }

    fn convert_to_machine_code(&self, pipeline: &CompiledPipeline) -> String {
        // Figure 3, right-hand side: threadIdInWorker = 0, #threadsInWorker = 1,
        // the neighborhood reduce and worker-scoped atomic optimize away into a
        // single merge per block.
        let mut code = format!("def pipeline{}_cpu(block, state):\n", pipeline.id().index());
        code.push_str("  # specialized by CpuProvider: threadId=0, #threads=1\n");
        code.push_str("  local_acc <- identity\n");
        code.push_str("  for i in 0 .. block.rows:\n");
        code.push_str("    t <- block[i]\n");
        code.push_str(&render_steps(pipeline, "    "));
        code.push_str("  merge local state into shared state (single atomic per block)\n");
        code
    }
}

/// The GPU provider: grid-stride workers, neighborhood reduction, device atomics.
#[derive(Debug)]
pub struct GpuProvider {
    device: Arc<GpuDevice>,
    launch: LaunchConfig,
    state_vars: Mutex<HashMap<String, i64>>,
}

impl GpuProvider {
    /// A provider bound to one simulated GPU.
    pub fn new(device: Arc<GpuDevice>) -> Self {
        Self {
            device,
            launch: LaunchConfig::default_for_device(),
            state_vars: Mutex::new(HashMap::new()),
        }
    }

    /// The GPU this provider generates code for.
    pub fn device(&self) -> &Arc<GpuDevice> {
        &self.device
    }
}

impl DeviceProvider for GpuProvider {
    fn kind(&self) -> DeviceKind {
        DeviceKind::Gpu
    }

    fn local_memory(&self) -> MemoryNodeId {
        self.device.memory_node()
    }

    fn alloc_state_var(&self, managers: &MemoryManagerSet, bytes: u64) -> Result<StateAllocation> {
        // State for GPU pipelines lives in device memory; enforce the device
        // capacity first, then account it in the node's memory manager.
        let reservation = self.device.memory().alloc(bytes)?;
        let allocation = managers.alloc_on(self.local_memory(), bytes)?;
        // The device reservation guard is dropped here; capacity enforcement
        // for long-lived state is carried by the memory manager, which has the
        // same capacity as the device node.
        drop(reservation);
        Ok(allocation)
    }

    fn store_state_var(&self, name: &str, value: i64) {
        self.state_vars.lock().insert(name.to_owned(), value);
    }

    fn load_state_var(&self, name: &str) -> Option<i64> {
        self.state_vars.lock().get(name).copied()
    }

    fn threads_in_worker(&self) -> usize {
        self.launch.total_threads()
    }

    fn thread_id_in_worker(&self, lane: usize) -> usize {
        lane % self.launch.total_threads()
    }

    fn launch_config(&self) -> LaunchConfig {
        self.launch
    }

    fn convert_to_machine_code(&self, pipeline: &CompiledPipeline) -> String {
        // Listing 1, pipeline 9: grid-stride loop, thread-local accumulator,
        // neighborhood (warp) reduce, leader does the device atomic.
        let mut code =
            format!("__kernel__ def pipeline{}_gpu(block, state):\n", pipeline.id().index());
        code.push_str(&format!(
            "  # specialized by GpuProvider: threadId=grid thread id, #threads={}\n",
            self.launch.total_threads()
        ));
        code.push_str("  local_acc <- identity\n");
        code.push_str("  for i = threadIdInWorker to block.rows-1 step #threadsInWorker:\n");
        code.push_str("    t <- block[i]\n");
        code.push_str(&render_steps(pipeline, "    "));
        code.push_str("  nh_acc <- neighborhood_reduce(local_acc)\n");
        code.push_str("  if thread_neighborhood_leader: atomic_add(state.acc, nh_acc)\n");
        code
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::ir::{AggSpec, StateSlot, Step, TerminalStep};
    use hetex_common::PipelineId;
    use hetex_gpu_sim::device::standalone_gpu;

    fn sample_pipeline(device: DeviceKind) -> CompiledPipeline {
        CompiledPipeline::new(
            PipelineId::new(9),
            device,
            2,
            vec![Step::Filter { predicate: Expr::col(0).gt_lit(42) }],
            TerminalStep::Reduce { aggs: vec![AggSpec::sum(Expr::col(1))], slot: StateSlot(0) },
        )
        .unwrap()
    }

    #[test]
    fn cpu_provider_table1_surface() {
        let provider = CpuProvider::new(MemoryNodeId::new(0));
        assert_eq!(provider.kind(), DeviceKind::CpuCore);
        assert_eq!(provider.threads_in_worker(), 1);
        assert_eq!(provider.thread_id_in_worker(17), 0);
        assert_eq!(provider.launch_config().total_threads(), 1);
        provider.store_state_var("acc_ptr", 42);
        assert_eq!(provider.load_state_var("acc_ptr"), Some(42));
        assert_eq!(provider.load_state_var("missing"), None);

        let managers = MemoryManagerSet::new(&[(MemoryNodeId::new(0), 1 << 20)]);
        let alloc = provider.alloc_state_var(&managers, 1024).unwrap();
        assert_eq!(alloc.node(), MemoryNodeId::new(0));
        provider.free_state_var(alloc);

        let atomic = DeviceAtomicI64::new(0);
        provider.worker_scoped_atomic_add(&atomic, 5);
        assert_eq!(atomic.load(), 5);
    }

    #[test]
    fn gpu_provider_table1_surface() {
        let gpu = Arc::new(standalone_gpu());
        let provider = GpuProvider::new(gpu);
        assert_eq!(provider.kind(), DeviceKind::Gpu);
        assert!(provider.threads_in_worker() > 1);
        let tid = provider.thread_id_in_worker(3);
        assert_eq!(tid, 3);
        // State allocation is bounded by device memory (8 GB).
        let managers = MemoryManagerSet::new(&[(provider.local_memory(), 8 * (1 << 30))]);
        assert!(provider.alloc_state_var(&managers, 1 << 20).is_ok());
        assert!(provider.alloc_state_var(&managers, 16 * (1 << 30)).is_err());
    }

    #[test]
    fn buffers_come_from_the_local_block_manager() {
        let provider = CpuProvider::new(MemoryNodeId::new(1));
        let set = BlockManagerSet::new(&[MemoryNodeId::new(0), MemoryNodeId::new(1)], 4096);
        let lease = provider.get_buffer(&set, 1024).unwrap();
        assert_eq!(lease.home(), MemoryNodeId::new(1));
        assert_eq!(lease.bytes(), 1024);
        provider.release_buffer(lease);
        assert_eq!(set.manager(MemoryNodeId::new(1)).unwrap().available_bytes(), 4096);
        // getBuffer fails fast on a dry arena (explicit Error policy) rather
        // than parking generated code.
        let err = provider.get_buffer(&set, 8192).unwrap_err();
        assert_eq!(err.category(), "memory");
    }

    #[test]
    fn providers_specialize_the_same_blueprint_differently() {
        // Figure 3: the same pipeline produces structurally different code for
        // CPU and GPU, but from a single operator blueprint.
        let cpu_code = CpuProvider::new(MemoryNodeId::new(0))
            .convert_to_machine_code(&sample_pipeline(DeviceKind::CpuCore));
        let gpu_code = GpuProvider::new(Arc::new(standalone_gpu()))
            .convert_to_machine_code(&sample_pipeline(DeviceKind::Gpu));
        assert!(cpu_code.contains("for i in 0 .. block.rows"));
        assert!(cpu_code.contains("single atomic per block"));
        assert!(gpu_code.contains("step #threadsInWorker"));
        assert!(gpu_code.contains("neighborhood_reduce"));
        assert!(gpu_code.contains("thread_neighborhood_leader"));
        // Both contain the shared blueprint body.
        assert!(cpu_code.contains("if !predicate(t)"));
        assert!(gpu_code.contains("if !predicate(t)"));
        // loadMachineCode is a no-op that succeeds.
        assert!(CpuProvider::new(MemoryNodeId::new(0))
            .load_machine_code(&sample_pipeline(DeviceKind::CpuCore))
            .is_ok());
    }
}
