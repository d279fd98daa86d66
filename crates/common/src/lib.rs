//! # hetex-common
//!
//! Shared building blocks for the HetExchange reproduction: scalar values and
//! data types, relational schemas, typed column vectors (with dictionary
//! encoding for strings), data [`Block`]s (row windows over shared columns) and
//! the [`BlockHandle`]s that HetExchange's control-flow operators route around,
//! plus the error and configuration types used across every crate in the
//! workspace.
//!
//! Everything in this crate is device- and engine-agnostic: it knows nothing
//! about CPUs, GPUs, pipelines, or the simulator. Higher layers (`hetex-topology`,
//! `hetex-storage`, `hetex-core`, …) build on these types.

pub mod block;
pub mod column;
pub mod config;
pub mod error;
pub mod ids;
pub mod schema;
pub mod types;
pub mod wait;

pub use block::{Block, BlockHandle, BlockMeta, StagingToken};
pub use column::{Column, ColumnData, ColumnRef, DictionaryBuilder};
pub use config::{EngineConfig, Priority, ReoptConfig, ServeConfig};
pub use error::{HetError, Result};
pub use ids::{BlockId, ColumnId, MemoryNodeId, PipelineId, QueryId, TableId};
pub use schema::{Field, Schema};
pub use types::{DataType, Value};
