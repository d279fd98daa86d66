//! # hetex-engine
//!
//! A Proteus-like analytical engine augmented with HetExchange.
//!
//! The engine mirrors the lifetime of a query in Figure 2:
//!
//! 1. the caller hands in a sequential, device-agnostic physical plan
//!    ([`hetex_core::RelNode`]);
//! 2. the HetExchange parallelizer rewrites it into a heterogeneity-aware plan
//!    ([`hetex_core::HetNode`]) according to the [`EngineConfig`]
//!    (CPU-only / GPU-only / hybrid, degrees of parallelism);
//! 3. [`codegen`] performs the produce()/consume() traversal, splitting the
//!    plan at pipeline breakers into device-specialized
//!    [`hetex_jit::CompiledPipeline`]s organized as a [`codegen::StageGraph`];
//! 4. [`executor`] runs the stages: every pipeline instance is a task,
//!    pinned (logically) to a CPU core or a simulated GPU and run on one of
//!    `available_parallelism()` host threads; blocks really flow and results
//!    are exact, while
//!    execution *time* is accounted on the simulated resource clocks of
//!    `hetex-topology`;
//! 5. [`engine::Proteus`] packages the above behind a session API,
//!    [`server::QueryServer`] serves many queries concurrently over one
//!    engine (priority admission against shared staging arenas, weighted-fair
//!    virtual timeline, shared calibration), and [`reference`] provides a
//!    naive single-threaded executor used to validate every result in tests.
//!
//! [`EngineConfig`]: hetex_common::EngineConfig

// Function-size bound (threshold in the workspace `clippy.toml`).
#![warn(clippy::too_many_lines)]

pub use hetex_core::codegen;

pub mod engine;
pub mod executor;
pub mod reference;
pub mod server;
pub mod session;

pub use engine::{Proteus, QueryOutcome, QueryStats};
pub use executor::{Executor, HostCounts};
pub use hetex_core::codegen::{compile, MemMoveMode, Stage, StageGraph, StageSource};
pub use reference::reference_execute;
pub use server::{QueryServer, QueryTicket, ServeReport, ServedQuery};
pub use session::QuerySession;
