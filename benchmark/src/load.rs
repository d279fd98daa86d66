//! The five workloads: which data, which queries, which engine
//! configuration. Everything that shapes load lives here (nothing is
//! imported from `hetex_bench`), and every input is a function of `--seed`.
//!
//! Why these five — each stresses layers the others bypass:
//!
//! * `scan_cpu`: dense filter + reduce, one tiny date join. The vectorized
//!   filter/selection/reduce kernels do nearly all the work, hash state
//!   almost none.
//! * `join_cpu`: the paper's star-join + group-by shape against build sides
//!   that stay cache-resident (≤ 20k keys) — the hash-table layer dominates.
//! * `join_large_cpu`: the same probe/group-by layer with build and
//!   aggregation state far past the last-level cache, plus a timed build
//!   side, so a design that trades one regime for the other is caught.
//! * `hybrid_paper`: Figure 5's configuration. Router, cost model, queues,
//!   leases, DMA, stealing and the GPU simulator all run; kernels are a
//!   minority. The workload for the simulated clock.
//! * `serve_mixed`: the same executor driven concurrently through
//!   `QueryServer` — admission, priorities and the fair-timeline replay do
//!   work nothing else touches.
//!
//! Sizes are set by the run length (`manifest::RUN_SECONDS`): each is the
//! largest at which a run still collects enough passes behind its medians.

use hetex_common::{ColumnData, DataType, EngineConfig, Priority, Result};
use hetex_core::RelNode;
use hetex_engine::Proteus;
use hetex_jit::{AggSpec, Expr};
use hetex_ssb::{all_queries, SsbGenerator};
use hetex_storage::TableBuilder;
use hetex_topology::ServerTopology;
use std::sync::Arc;

/// A benchmark workload, by the name `BENCHMARK.json` lists it under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ScanCpu,
    JoinCpu,
    JoinLargeCpu,
    HybridPaper,
    ServeMixed,
}

/// Host-clock workloads pin the engine's degree of parallelism to the two
/// cores of the box the bounds were sized on (`nproc` is printed with every
/// run so a different box is visible).
const HOST_DOP: usize = 2;

/// Streams of one `serve_mixed` round, by admission class: each submits
/// [`SERVE_QUERIES`] up front.
pub const SERVE_STREAMS: [Priority; 4] =
    [Priority::High, Priority::Normal, Priority::Normal, Priority::Low];

/// What every serving stream submits: the first query of each SSB flight, a
/// mix of one light scan and three star joins of growing width. All thirteen
/// would make a round last ~5 s on this box, leaving three rounds behind the
/// median of a 15 s run; sixteen sessions a round leave about ten.
const SERVE_QUERIES: [&str; 4] = ["Q1.1", "Q2.1", "Q3.1", "Q4.1"];

/// Worker-pool size of the serving workload. The admission budget is sized
/// to as many footprints, so admission (not only the pool) queues sessions.
pub const SERVE_WORKERS: usize = 2;

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::ScanCpu,
        Workload::JoinCpu,
        Workload::JoinLargeCpu,
        Workload::HybridPaper,
        Workload::ServeMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ScanCpu => "scan_cpu",
            Workload::JoinCpu => "join_cpu",
            Workload::JoinLargeCpu => "join_large_cpu",
            Workload::HybridPaper => "hybrid_paper",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Build the workload's dataset and engine. `tiny` shrinks every table
    /// to a single block so that what remains of a query's wall-clock is its
    /// fixed cost (thread spawn, router init, dimension builds); the unit
    /// tests use it too.
    pub fn build(self, seed: u64, tiny: bool) -> Result<Load> {
        let sf = |full: f64| if tiny { 0.0002 } else { full };
        match self {
            Workload::ScanCpu => {
                let flight1 = |name: &str| name.starts_with("Q1.");
                ssb_load(seed, sf(0.5), None, &flight1, EngineConfig::cpu_only(HOST_DOP))
            }
            Workload::JoinCpu => {
                let joins = |name: &str| !name.starts_with("Q1.");
                ssb_load(seed, sf(0.1), None, &joins, EngineConfig::cpu_only(HOST_DOP))
            }
            Workload::JoinLargeCpu => {
                let (fact, dim) = if tiny { (2_000, 1_000) } else { (500_000, 500_000) };
                join_large_load(seed, fact, dim, EngineConfig::cpu_only(HOST_DOP))
            }
            Workload::HybridPaper => {
                ssb_load(seed, sf(0.02), Some(1000.0), &|_| true, EngineConfig::hybrid(24, 2))
            }
            Workload::ServeMixed => {
                let picked = |name: &str| SERVE_QUERIES.contains(&name);
                ssb_load(seed, sf(0.02), Some(100.0), &picked, EngineConfig::hybrid(6, 1))
            }
        }
    }
}

/// One query of a workload.
pub struct Query {
    pub name: String,
    pub plan: RelNode,
}

/// A built workload: engine over registered data, query list, configuration.
pub struct Load {
    pub engine: Arc<Proteus>,
    pub queries: Vec<Query>,
    pub config: EngineConfig,
    /// Fact-table rows every query scans.
    pub fact_rows: usize,
}

impl Load {
    /// `base` with this load's scale weights and block capacity — how the
    /// hybrid workload derives its CPU-only and GPU-only comparison runs.
    pub fn config_like(&self, base: EngineConfig) -> EngineConfig {
        EngineConfig {
            scale_weight: self.config.scale_weight,
            table_weights: self.config.table_weights.clone(),
            block_capacity: self.config.block_capacity,
            ..base
        }
    }
}

/// An SSB dataset at `physical_sf` on the paper server, with those of the
/// thirteen queries whose name `keep` accepts. With `nominal_sf`, per-table weights model the
/// nominal scale factor and blocks are sized so a scan yields ~256 of them
/// (the arithmetic of `hetex_bench::SsbWorkload::build`, copied so that a
/// change there cannot move this ruler).
fn ssb_load(
    seed: u64,
    physical_sf: f64,
    nominal_sf: Option<f64>,
    keep: &dyn Fn(&str) -> bool,
    base: EngineConfig,
) -> Result<Load> {
    let topology = ServerTopology::paper_server();
    let mut generator = SsbGenerator { scale_factor: physical_sf, seed, ..Default::default() };
    // Several segments per table, so data interleaves across both sockets.
    generator.segment_rows = (generator.row_counts().0 / 8).max(2_048);
    let dataset = generator.generate(&topology.cpu_memory_nodes())?;
    let engine = Proteus::new(topology);
    dataset.register_into(engine.catalog());

    let mut config = base;
    if let Some(nominal_sf) = nominal_sf {
        let nominal = SsbGenerator::new(nominal_sf).row_counts();
        let weight = |nominal_rows: usize, physical_rows: usize| {
            (nominal_rows as f64 / physical_rows.max(1) as f64).max(1.0)
        };
        config.table_weights = vec![
            ("lineorder".to_string(), weight(nominal.0, dataset.lineorder.rows())),
            ("date".to_string(), weight(nominal.1, dataset.date.rows())),
            ("customer".to_string(), weight(nominal.2, dataset.customer.rows())),
            ("supplier".to_string(), weight(nominal.3, dataset.supplier.rows())),
            ("part".to_string(), weight(nominal.4, dataset.part.rows())),
        ];
        config.scale_weight = config.table_weights[0].1;
        config.block_capacity = (dataset.fact_rows() / 256).clamp(128, 64 * 1024);
    }
    let queries = all_queries(&dataset)?
        .into_iter()
        .filter(|q| keep(&q.name))
        .map(|q| Query { name: q.name, plan: q.plan })
        .collect();
    Ok(Load { engine: Arc::new(engine), queries, config, fact_rows: dataset.fact_rows() })
}

/// splitmix64: the seeded stream behind the synthetic tables and probe inputs.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Distinct values of the synthetic fact table's grouping column.
const JOIN_LARGE_GROUPS: u64 = 64 * 1024;

/// Synthetic fact ⋈ dim: uniform foreign keys into a dimension of which
/// `attr < 3` keeps 3 in 7, so the build side holds ~43% of `dim_rows` keys.
/// Two queries: join + reduce, and join + group-by on a 64k-distinct key.
fn join_large_load(
    seed: u64,
    fact_rows: usize,
    dim_rows: usize,
    config: EngineConfig,
) -> Result<Load> {
    let topology = ServerTopology::paper_server();
    let nodes = topology.cpu_memory_nodes();
    let engine = Proteus::new(topology);
    let mut rng = seed;
    let mut key = Vec::with_capacity(fact_rows);
    let mut group = Vec::with_capacity(fact_rows);
    let mut value = Vec::with_capacity(fact_rows);
    for _ in 0..fact_rows {
        let r = splitmix64(&mut rng);
        key.push((r % dim_rows as u64) as i32);
        group.push(((r >> 32) % JOIN_LARGE_GROUPS) as i32);
        value.push((r >> 48) as i64);
    }
    let attr = (0..dim_rows).map(|_| (splitmix64(&mut rng) % 7) as i32).collect();
    let segment_rows = (fact_rows / 8).max(2_048);
    engine.register_table(
        TableBuilder::new("fact")
            .column("key", DataType::Int32, ColumnData::Int32(key))
            .column("grp", DataType::Int32, ColumnData::Int32(group))
            .column("value", DataType::Int64, ColumnData::Int64(value))
            .build(&nodes, segment_rows)?,
    );
    engine.register_table(
        TableBuilder::new("dim")
            .column("k", DataType::Int32, ColumnData::Int32((0..dim_rows as i32).collect()))
            .column("attr", DataType::Int32, ColumnData::Int32(attr))
            .build(&nodes, segment_rows)?,
    );

    let joined = || {
        let dim = RelNode::scan("dim", &["k", "attr"]).filter(Expr::col(1).lt_lit(3));
        RelNode::scan("fact", &["key", "grp", "value"]).hash_join(dim, 0, 0, &[1])
    };
    let aggs = || vec![AggSpec::sum(Expr::col(2)), AggSpec::count()];
    let queries = vec![
        Query { name: "join_reduce".into(), plan: joined().reduce(aggs(), &["sum_v", "cnt"]) },
        Query {
            name: "join_groupby".into(),
            plan: joined().group_by(&[1], aggs(), &["sum_v", "cnt"]),
        },
    ];
    Ok(Load { engine: Arc::new(engine), queries, config, fact_rows })
}
