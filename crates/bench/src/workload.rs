//! Workload construction for the figure harnesses.
//!
//! An [`SsbWorkload`] bundles everything a figure needs: the simulated server,
//! one Proteus engine over CPU-resident data, optionally a second Proteus
//! engine over GPU-resident data (the SF100 setup pre-loads the working set
//! into the GPUs' device memories), the thirteen SSB query plans, and the
//! scale weight that models the nominal scale factor. The synthetic
//! join+reduce engine ([`join_reduce_engine`]) that `plan_lint` and the
//! root package's tests run lives here too.

use hetex_common::{ColumnData, DataType, EngineConfig, MemoryNodeId, Result};
use hetex_core::RelNode;
use hetex_engine::Proteus;
use hetex_jit::{AggSpec, Expr};
use hetex_ssb::{all_queries, SsbDataset, SsbGenerator, SsbQuery};
use hetex_storage::{Catalog, TableBuilder};
use hetex_topology::ServerTopology;
use std::sync::Arc;

/// Default physical scale factor used when `HETEX_PHYSICAL_SF` is not set.
pub const DEFAULT_PHYSICAL_SF: f64 = 0.02;

/// The physical scale factor to use, honouring the environment override.
pub fn physical_sf_from_env() -> f64 {
    std::env::var("HETEX_PHYSICAL_SF")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|v: &f64| *v > 0.0)
        .unwrap_or(DEFAULT_PHYSICAL_SF)
}

/// A fully constructed SSB workload.
pub struct SsbWorkload {
    /// The simulated server.
    pub topology: Arc<ServerTopology>,
    /// Proteus over CPU-resident data (always present).
    pub engine_cpu_data: Proteus,
    /// Proteus over GPU-resident data (present when the nominal working set
    /// fits in aggregate device memory, i.e. the SF100 experiments).
    pub engine_gpu_data: Option<Proteus>,
    /// Catalog over the CPU-resident dataset (used by DBMS C and DBMS G when
    /// streaming).
    pub catalog_cpu: Catalog,
    /// Catalog over the GPU-resident dataset.
    pub catalog_gpu: Option<Catalog>,
    /// The thirteen SSB queries.
    pub queries: Vec<SsbQuery>,
    /// Modeled-over-physical scale ratio applied to every scan.
    pub scale_weight: f64,
    /// Nominal scale factor being modeled.
    pub nominal_sf: f64,
    /// Physical scale factor of the generated data.
    pub physical_sf: f64,
    /// Block capacity used by the engines (sized so a run produces a few
    /// hundred blocks regardless of the physical scale).
    pub block_capacity: usize,
    /// Dataset generated with CPU placement (kept for working-set sizing).
    pub dataset: SsbDataset,
    /// Per-table nominal/physical weights (SSB tables scale differently with
    /// the scale factor).
    pub table_weights: Vec<(String, f64)>,
}

impl SsbWorkload {
    /// Build a workload modeling `nominal_sf` from data generated at
    /// `physical_sf`. `gpu_resident` additionally builds the GPU-placed copy
    /// used by the SF100 experiments.
    pub fn build(physical_sf: f64, nominal_sf: f64, gpu_resident: bool) -> Result<SsbWorkload> {
        let topology = ServerTopology::paper_server();
        let cpu_nodes = topology.cpu_memory_nodes();
        let gpu_nodes = topology.gpu_memory_nodes();

        let mut generator =
            SsbGenerator { scale_factor: physical_sf, seed: 42, ..Default::default() };
        // Spread every table over several segments so data is interleaved
        // across the placement's memory nodes, like the paper's setup ("the
        // dataset is loaded and evenly distributed to the sockets" /
        // "randomly partitioned between the two GPUs").
        generator.segment_rows = (generator.row_counts().0 / 8).max(2_048);
        let dataset = generator.generate(&cpu_nodes)?;
        let queries = all_queries(&dataset)?;

        let catalog_cpu = Catalog::new();
        dataset.register_into(&catalog_cpu);
        let engine_cpu_data = Proteus::new(Arc::clone(&topology));
        dataset.register_into(engine_cpu_data.catalog());

        let (engine_gpu_data, catalog_gpu) = if gpu_resident {
            let gpu_dataset = generator.generate(&gpu_nodes)?;
            let catalog = Catalog::new();
            gpu_dataset.register_into(&catalog);
            let engine = Proteus::new(Arc::clone(&topology));
            gpu_dataset.register_into(engine.catalog());
            (Some(engine), Some(catalog))
        } else {
            (None, None)
        };

        let fact_rows = dataset.fact_rows();
        let block_capacity = (fact_rows / 256).clamp(128, 64 * 1024);

        // Per-table weights: SSB tables scale differently with the scale
        // factor (date is fixed, part grows logarithmically), so each table
        // gets its own nominal/physical ratio.
        let nominal = SsbGenerator::new(nominal_sf).row_counts();
        let weight = |nominal_rows: usize, physical_rows: usize| {
            (nominal_rows as f64 / physical_rows.max(1) as f64).max(1.0)
        };
        let table_weights = vec![
            ("lineorder".to_string(), weight(nominal.0, dataset.lineorder.rows())),
            ("date".to_string(), weight(nominal.1, dataset.date.rows())),
            ("customer".to_string(), weight(nominal.2, dataset.customer.rows())),
            ("supplier".to_string(), weight(nominal.3, dataset.supplier.rows())),
            ("part".to_string(), weight(nominal.4, dataset.part.rows())),
        ];
        let scale_weight = table_weights[0].1;

        Ok(SsbWorkload {
            topology,
            engine_cpu_data,
            engine_gpu_data,
            catalog_cpu,
            catalog_gpu,
            queries,
            scale_weight,
            nominal_sf,
            physical_sf,
            block_capacity,
            dataset,
            table_weights,
        })
    }

    /// The engine configuration for a Proteus run, with the workload's scale
    /// weights and block capacity applied.
    pub fn config(&self, mut base: EngineConfig) -> EngineConfig {
        base.scale_weight = self.scale_weight;
        base.table_weights = self.table_weights.clone();
        base.block_capacity = self.block_capacity;
        base
    }

    /// A query by paper name.
    pub fn query(&self, name: &str) -> Option<&SsbQuery> {
        self.queries.iter().find(|q| q.name == name)
    }

    /// Nominal working-set bytes of a query (fact columns only, scaled to the
    /// nominal SF) — the quantity used for throughput figures.
    pub fn nominal_working_set(&self, query: &SsbQuery) -> Result<f64> {
        let physical = self.dataset.working_set_bytes(&query.lineorder_columns)? as f64;
        Ok(physical * self.scale_weight)
    }

    /// The GPU memory nodes of the topology (used by placement checks).
    pub fn gpu_nodes(&self) -> Vec<MemoryNodeId> {
        self.topology.gpu_memory_nodes()
    }
}

/// Build the synthetic join+reduce engine: a fact table joined against a
/// dimension sized at half the fact side — large enough that the build
/// chain is a real pipeline stage, not a rounding error.
pub fn join_reduce_engine(fact_rows: usize) -> Result<(Proteus, RelNode)> {
    join_reduce_engine_on(ServerTopology::paper_server(), fact_rows)
}

/// Like [`join_reduce_engine`], on an arbitrary topology — the adaptivity
/// scenarios use this with a skewed server (one straggler device) or one
/// with an injected fault plan.
pub fn join_reduce_engine_on(
    topology: Arc<ServerTopology>,
    fact_rows: usize,
) -> Result<(Proteus, RelNode)> {
    let engine = Proteus::new(Arc::clone(&topology));
    let nodes = topology.cpu_memory_nodes();
    let dim_rows = (fact_rows / 2).max(1);
    let fact = TableBuilder::new("fact")
        .column(
            "key",
            DataType::Int32,
            ColumnData::Int32((0..fact_rows as i32).map(|i| i % dim_rows as i32).collect()),
        )
        .column("value", DataType::Int64, ColumnData::Int64((0..fact_rows as i64).collect()))
        .build(&nodes, 4096)?;
    let dim = TableBuilder::new("dim")
        .column("k", DataType::Int32, ColumnData::Int32((0..dim_rows as i32).collect()))
        .column(
            "attr",
            DataType::Int32,
            ColumnData::Int32((0..dim_rows as i32).map(|i| i % 7).collect()),
        )
        .build(&nodes, 4096)?;
    engine.register_table(fact);
    engine.register_table(dim);

    // SELECT SUM(value), COUNT(*) FROM fact JOIN dim ON key = k WHERE attr < 3
    let dim_plan = RelNode::scan("dim", &["k", "attr"]).filter(Expr::col(1).lt_lit(3));
    let plan = RelNode::scan("fact", &["key", "value"])
        .hash_join(dim_plan, 0, 0, &[1])
        .reduce(vec![AggSpec::sum(Expr::col(1)), AggSpec::count()], &["sum_v", "cnt"]);
    Ok((engine, plan))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetex_common::config::ExecutionTarget;

    #[test]
    fn workload_builds_both_placements() {
        let w = SsbWorkload::build(0.002, 100.0, true).unwrap();
        assert_eq!(w.queries.len(), 13);
        assert!(w.engine_gpu_data.is_some());
        assert!(w.catalog_gpu.is_some());
        assert!((w.scale_weight - 50_000.0).abs() < 1e-6);
        assert!(w.block_capacity >= 128);
        assert!(w.query("Q1.1").is_some());
        assert!(w.query("Q9.1").is_none());
        let q = w.query("Q1.1").unwrap().clone();
        assert!(w.nominal_working_set(&q).unwrap() > 0.0);
    }

    #[test]
    fn config_applies_scale_weight() {
        let w = SsbWorkload::build(0.002, 1000.0, false).unwrap();
        assert!(w.engine_gpu_data.is_none());
        let cfg = w.config(EngineConfig::hybrid(24, 2));
        assert_eq!(cfg.target, ExecutionTarget::Hybrid);
        assert!((cfg.scale_weight - 500_000.0).abs() < 1e-6);
        assert_eq!(cfg.block_capacity, w.block_capacity);
    }

    #[test]
    fn physical_sf_env_override() {
        // Without the variable the default applies.
        std::env::remove_var("HETEX_PHYSICAL_SF");
        assert_eq!(physical_sf_from_env(), DEFAULT_PHYSICAL_SF);
    }
}
