//! # hetex-jit
//!
//! The "JIT compilation" layer of the reproduction.
//!
//! The paper generates LLVM IR per pipeline and lowers it to x86 or PTX
//! depending on the *device provider* the pipeline was instantiated with
//! (Table 1, Figure 3). LLVM and CUDA are not available here, so this crate
//! substitutes machine-code generation with **plan-time specialization**: a
//! pipeline is described by a small IR of fused steps ([`ir::Step`]) built via
//! the classic produce()/consume() traversal ([`codegen`]), "compilation"
//! resolves column offsets, constants and expression shapes up front, and the
//! device each instance runs on selects the *lowering*:
//!
//! * [`lower_cpu_vec`] — the chunk kernel, run as is on a CPU core: filters
//!   refine a `u32` selection index array in tight autovectorizable loops,
//!   expressions evaluate column-at-a-time into pooled scratch, and terminals
//!   consume the surviving selection in one pass, merged into shared state
//!   once per block;
//! * [`lower_gpu`] — the same chunk kernel scheduled as the warp tiles of a
//!   grid-stride SIMT kernel on the simulated GPU (`hetex-gpu-sim`), with the
//!   launch and one device atomic per active warp *counted* — the shape of
//!   Listing 1's pipeline 9.
//!
//! Both lowerings run the *same* step IR, which is exactly the paper's
//! "one operator blueprint, per-device specializations" property: relational
//! operators never contain device-specific code, and a stage compiles one
//! [`CompiledPipeline`]. The [`ExecCtx`] each instance builds for its device
//! is its device provider (Table 1): it supplies `threadIdInWorker` and
//! `#threadsInWorker` (its launch configuration), picks the lowering and the
//! charge, and [`CompiledPipeline::explain`] is `convertToMachineCode` — the
//! schedule that context runs. State variables live in [`SharedState`], and
//! worker-scoped atomics are the GPU lowering's counted atomics.

pub mod codegen;
pub mod expr;
pub mod ir;
#[cfg(test)]
mod lower_cpu;
pub mod lower_cpu_vec;
pub mod lower_gpu;
pub mod pipeline;
pub mod state;

pub use codegen::CodegenContext;
pub use expr::{Expr, ScratchPool};
pub use ir::{AggFunc, AggSpec, StateSlot, Step, TerminalStep};
pub use lower_cpu_vec::{refine_selection, VEC_CHUNK};
pub use pipeline::{BlockCounters, CompiledPipeline, ExecCtx, PipelineOutput};
pub use state::{SharedState, StateObject};
