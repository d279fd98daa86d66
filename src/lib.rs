//! # hetexchange
//!
//! Facade crate for the HetExchange reproduction. It re-exports every crate of
//! the workspace under a single name so that examples and downstream users can
//! depend on just `hetexchange`:
//!
//! ```rust
//! use hetexchange::prelude::*;
//! ```
//!
//! The workspace reproduces *HetExchange: Encapsulating heterogeneous CPU-GPU
//! parallelism in JIT compiled engines* (PVLDB 12(5), 2019). See `DESIGN.md`
//! for the system inventory and `EXPERIMENTS.md` for the reproduced figures.

pub use hetex_analysis as analysis;
pub use hetex_baselines as baselines;
pub use hetex_bench as bench;
pub use hetex_common as common;
pub use hetex_core as core_ops;
pub use hetex_engine as engine;
pub use hetex_gpu_sim as gpu_sim;
pub use hetex_jit as jit;
pub use hetex_ssb as ssb;
pub use hetex_storage as storage;
pub use hetex_topology as topology;

/// Commonly used types, re-exported for convenience.
pub mod prelude {
    pub use hetex_common::config::{DataPlacement, ExecutionTarget};
    pub use hetex_common::{
        Block, BlockHandle, DataType, EngineConfig, HetError, Result, Schema, Value,
    };
}
