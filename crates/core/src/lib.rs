//! # hetex-core
//!
//! The paper's primary contribution: the **HetExchange** operator family and
//! the machinery around it.
//!
//! * [`plan`] — the device-agnostic physical plan ([`plan::RelNode`]) and the
//!   heterogeneity-aware plan ([`plan::HetNode`]) it is rewritten into, with
//!   the four HetExchange operators as explicit plan nodes.
//! * [`traits`] — the four physical traits of §3.3 (target device, degree of
//!   parallelism, data locality, packing) and their derivation over a plan;
//!   each HetExchange operator is a *converter* that changes exactly one trait.
//! * [`parallelizer`] — the plan rewriter that inserts routers, device
//!   crossings, mem-moves and pack/unpack operators into a sequential plan,
//!   reproducing the step-by-step construction of Figure 1 for CPU-only,
//!   GPU-only and hybrid configurations.
//! * [`cost`] — the unified routing/admission cost model
//!   ([`cost::CostModel`]): every estimation term the executor's router
//!   path and queue-admission path consult, behind one interface.
//! * [`router`] — the control-flow router: policies (round-robin,
//!   least-loaded, union, broadcast-target), degree-of-parallelism
//!   control and affinity assignment. Routes block *handles*, never data.
//! * [`mem_move`] — the data-flow operator that schedules asynchronous DMA
//!   transfers (and broadcasts) so consumers only ever see local data.
//! * [`pack`] — pack/unpack utilities that convert between
//!   block-at-a-time movement and tuple-at-a-time execution.
//! * [`queue`] — the asynchronous block-handle queues connecting routed
//!   pipeline instances.
//! * [`reopt`] — feedback-driven plan re-optimization: a plan-fingerprint
//!   keyed [`reopt::FeedbackCache`] of measurements distilled from executed
//!   queries, and a small placement/DOP plan-space search costed by the
//!   calibrated [`cost::CostModel`], so a repeated query's second run is
//!   planned from its first run's observed behaviour.
//! * [`serve`] — the deterministic multi-query fairness timeline
//!   ([`serve::FairTimeline`]): admitted sessions replayed as fluid flows
//!   over the device capacities under weighted max-min fairness, the model
//!   behind the serving layer's latencies and makespan.

pub mod codegen;
pub mod cost;
pub mod mem_move;
pub mod pack;
pub mod parallelizer;
pub mod plan;
pub mod queue;
pub mod reopt;
pub mod router;
pub mod serve;
pub mod traits;

pub use codegen::{compile, MemMoveMode, Stage, StageGraph, StageSource, StageWiring};
pub use cost::{CostModel, DemandSplitter, SlowdownObserver};
pub use mem_move::MemMove;
pub use pack::{Packer, Unpacker};
pub use parallelizer::parallelize;
pub use plan::{DeviceTarget, HetNode, RelNode, RouterPolicy};
pub use queue::BlockQueue;
pub use reopt::{
    plan_fingerprint, Candidate, CandidateCost, FeedbackCache, PlanFeedback, ReoptDecision,
    StageObservation,
};
pub use router::Router;
pub use serve::{FairTimeline, ServeSchedule, ServeSession, SessionSchedule};
pub use traits::PlanTraits;
