//! # hetex-storage
//!
//! The storage substrate of the reproduction: an in-memory columnar store with
//! NUMA-aware placement, plus the two memory subsystems §4.3 of the paper
//! distinguishes:
//!
//! * **memory managers** ([`memory_manager`]) serve *state* memory — hash
//!   tables, aggregation state — one manager per memory node;
//! * **block managers** ([`block_manager`]) serve *staging* memory — the
//!   blocks that carry intermediate results between devices — with
//!   pre-allocated arenas, device-local synchronization, per-remote-node
//!   caches and batched remote acquisition, as described in the paper.
//!
//! Tables ([`catalog`]) are stored column-wise; each table is split into row
//! segments placed round-robin across the memory nodes of the chosen
//! placement (CPU DRAM for the SF1000 experiments, GPU device memory for the
//! SF100 experiments). The [`segmenter`] turns those segments into the
//! block-shaped partitions that the bottom of every HetExchange plan routes.

pub mod block_manager;
pub mod catalog;
pub mod memory_manager;
pub mod segmenter;

pub use block_manager::{BlockLease, BlockManager, BlockManagerSet, ExhaustionPolicy};
pub use catalog::{Catalog, StoredTable, TableBuilder};
pub use memory_manager::{MemoryManager, MemoryManagerSet, StateAllocation};
pub use segmenter::Segmenter;
