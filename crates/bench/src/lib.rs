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

pub mod calib_ab;
pub mod fault_ab;
pub mod figures;
pub mod micro;
pub mod reopt_ab;
pub mod report;
pub mod serve_ab;
pub mod steal_ab;
pub mod systems;
pub mod workload;

pub use report::{print_matrix, QueryTimeRow};
pub use systems::System;
pub use workload::SsbWorkload;

/// Where a bench bin writes its `BENCH_*.json`: into `dir` (created if
/// missing) when one is given, the current directory otherwise. The bins
/// pass their first CLI argument — argument parsing stays in each `main`,
/// this helper only resolves (and prepares) the path.
///
/// The directory argument exists so CI (and any comparison run) can
/// generate fresh numbers *next to* the checked-in baselines instead of
/// overwriting them in place: the old flow snapshotted the committed
/// `BENCH_*.json` to a temporary directory before the bins clobbered them,
/// and a bin that ran before the snapshot silently compared a file against
/// itself.
pub fn bench_output_path(dir: Option<std::path::PathBuf>, file: &str) -> std::path::PathBuf {
    let dir = dir.unwrap_or_default();
    if !dir.as_os_str().is_empty() {
        std::fs::create_dir_all(&dir)
            .unwrap_or_else(|e| panic!("create bench output dir {}: {e}", dir.display()));
    }
    dir.join(file)
}

/// Observed per-stage selectivities of a finished query — one entry per
/// recorded stage (`QueryStats::observed_selectivity`), `None` when a stage
/// saw no input. The A/B harnesses report these next to their a-priori
/// workload selectivity labels so the committed artifacts carry *measured*
/// per-stage row behaviour, the same signal the plan reoptimizer feeds on.
pub fn observed_selectivities(stats: &hetex_engine::QueryStats) -> Vec<Option<f64>> {
    (0..stats.stage_rows.len()).map(|i| stats.observed_selectivity(i)).collect()
}

/// Render observed per-stage selectivities as a JSON array fragment, `null`
/// for a stage that saw no input. Shared by the A/B report serializers.
pub fn selectivities_json(sels: &[Option<f64>]) -> String {
    let items: Vec<String> =
        sels.iter().map(|s| s.map_or_else(|| "null".to_string(), |v| format!("{v:.4}"))).collect();
    format!("[{}]", items.join(", "))
}
