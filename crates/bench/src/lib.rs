//! # hetex-bench
//!
//! The benchmark harness that regenerates **every table and figure** of the
//! paper's evaluation (§6):
//!
//! | Paper artefact | Regenerate with |
//! |---|---|
//! | Table 1 (device-provider interface) | `cargo run --release -p hetex-bench --bin table1` |
//! | Figure 4 (SSB SF100, GPU-fitting working sets) | `... --bin fig4` |
//! | Figure 5 (SSB SF1000, non-GPU-fitting working sets) | `... --bin fig5` |
//! | Figure 6 (scalability of Proteus on SSB SF1000) | `... --bin fig6` |
//! | Figure 7 (microbenchmark scale-up: sum and join) | `... --bin fig7` |
//! | Figure 8 (microbenchmark size-up at DOP = 1) | `... --bin fig8` |
//!
//! `cargo bench --workspace` additionally runs Criterion micro-benchmarks of
//! the HetExchange operators and a reduced-size smoke pass over the figure
//! harnesses.
//!
//! ## Scale modeling
//!
//! The paper evaluates SF100 (~60 GB) and SF1000 (~600 GB). Generating those
//! datasets is neither possible nor useful on this machine, so every figure
//! runs on a physically small dataset (default physical SF ≈ 0.02, overridable
//! with the `HETEX_PHYSICAL_SF` environment variable) while the engines'
//! `scale_weight` models the nominal volume. Functional results stay exact;
//! modeled execution times scale to the nominal data size. EXPERIMENTS.md
//! records the shape comparison against the paper's reported numbers.

pub mod figures;
pub mod micro;
pub mod report;
pub mod systems;
pub mod workload;

pub use report::{print_matrix, QueryTimeRow};
pub use systems::System;
pub use workload::SsbWorkload;
