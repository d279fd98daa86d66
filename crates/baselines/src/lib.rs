//! # hetex-baselines
//!
//! Stand-ins for the two commercial systems the paper compares against (§6):
//!
//! * **DBMS C** ([`dbms_c::DbmsC`]) — "a columnar database that uses SIMD
//!   vector-at-a-time execution, similar to MonetDB/X100, and supports
//!   multi-CPU execution". Our stand-in executes queries exactly (through the
//!   instrumented plan profiler) and models vector-at-a-time cost: every
//!   operator materializes an intermediate vector, which costs memory
//!   bandwidth that register-pipelined compiled engines do not pay.
//! * **DBMS G** ([`dbms_g::DbmsG`]) — "uses JIT code generation, operates over
//!   columnar data and supports multi-GPU execution", with the behaviours §6
//!   attributes to it: dense-array star joins with filters applied after the
//!   join, kernels that allocate twice the registers (half occupancy),
//!   pageable-memory transfers at less than half the PCIe bandwidth for
//!   non-resident data, per-GPU co-partitioning with no cross-GPU traffic,
//!   inability to run Q2.2's string inequality, and a Q4.3-style failure when
//!   cardinality estimation does not fit device memory.
//!
//! Both baselines produce *exact* query results (rows and volumes both come
//! from one run of the engine's row interpreter, observed by [`profile`]) and
//! *modeled* execution times built
//! from the same calibration constants as the main engine's cost model, so
//! comparisons against Proteus are apples-to-apples.

pub mod dbms_c;
pub mod dbms_g;
pub mod profile;

pub use dbms_c::DbmsC;
pub use dbms_g::DbmsG;
pub use profile::{profile_plan, PlanProfile};

use hetex_topology::SimTime;

/// The outcome of running a query on a baseline system.
#[derive(Debug, Clone)]
pub struct BaselineOutcome {
    /// Exact result rows (same convention as the engine: keys then aggregates,
    /// sorted by key).
    pub rows: Vec<Vec<i64>>,
    /// Modeled execution time.
    pub sim_time: SimTime,
}

impl BaselineOutcome {
    /// Execution time in seconds.
    pub fn seconds(&self) -> f64 {
        self.sim_time.as_secs_f64()
    }
}
