//! Staging-memory governance invariants (DESIGN.md "Staging memory
//! governance"): peak leased bytes per node never exceed the configured
//! arena budget across randomized pipelined plans, and a deliberately tiny
//! budget slows a query down instead of deadlocking it.

use hetexchange::common::config::DEFAULT_STAGING_BYTES;
use hetexchange::common::{ColumnData, DataType, EngineConfig};
use hetexchange::core_ops::RelNode;
use hetexchange::engine::{reference_execute, Proteus};
use hetexchange::jit::{AggSpec, Expr};
use hetexchange::storage::TableBuilder;
use proptest::prelude::*;

/// Engine with a fact table joined against a dimension — the two-stage-chain
/// shape (scan → build gate → probe → reduce) that exercises gates, device
/// crossings and every staging path at once.
fn join_engine(fact_rows: usize, dim_rows: usize, segment_rows: usize) -> Proteus {
    let engine = Proteus::on_paper_server();
    let nodes = engine.topology().cpu_memory_nodes();
    let fact = TableBuilder::new("fact")
        .column(
            "key",
            DataType::Int32,
            ColumnData::Int32((0..fact_rows as i32).map(|i| i % dim_rows.max(1) as i32).collect()),
        )
        .column("value", DataType::Int64, ColumnData::Int64((0..fact_rows as i64).collect()))
        .build(&nodes, segment_rows)
        .unwrap();
    let dim = TableBuilder::new("dim")
        .column("k", DataType::Int32, ColumnData::Int32((0..dim_rows as i32).collect()))
        .column(
            "attr",
            DataType::Int32,
            ColumnData::Int32((0..dim_rows as i32).map(|i| i % 7).collect()),
        )
        .build(&nodes, segment_rows)
        .unwrap();
    engine.register_table(fact);
    engine.register_table(dim);
    engine
}

fn join_plan() -> RelNode {
    // SELECT SUM(value), COUNT(*) FROM fact JOIN dim ON key = k WHERE attr < 3
    let dim = RelNode::scan("dim", &["k", "attr"]).filter(Expr::col(1).lt_lit(3));
    RelNode::scan("fact", &["key", "value"])
        .hash_join(dim, 0, 0, &[1])
        .reduce(vec![AggSpec::sum(Expr::col(1)), AggSpec::count()], &["sum_v", "cnt"])
}

fn expected(fact_rows: usize, dim_rows: usize) -> (i64, i64) {
    let mut sum = 0i64;
    let mut cnt = 0i64;
    for i in 0..fact_rows as i64 {
        if (i % dim_rows as i64) % 7 < 3 {
            sum += i;
            cnt += 1;
        }
    }
    (sum, cnt)
}

#[test]
fn tiny_budget_completes_slowly_instead_of_deadlocking() {
    // Two budgets near the floor of one estimated max-size block per active
    // consumer: exactly the floor on hybrid(2,1), where per-queue quotas
    // collapse to roughly one block and the pipeline advances in
    // near-lockstep; and three floors on the scale-extrapolated hybrid(8,2)
    // join, where quotas still bind and the demand-weighted re-split has
    // something to re-balance. Slow, but alive and exact.
    let mut lockstep = EngineConfig::hybrid(2, 1);
    lockstep.block_capacity = 256;
    lockstep.staging_bytes = lockstep.min_staging_bytes();
    let mut rebalanced = EngineConfig::hybrid(8, 2).with_table_weight("dim", 2_500.0);
    rebalanced.scale_weight = 20_000.0;
    rebalanced.block_capacity = 2048;
    rebalanced.staging_bytes = rebalanced.min_staging_bytes() * 3;
    for (config, fact_rows, dim_rows, segment_rows) in
        [(lockstep, 30_000, 10_000, 512), (rebalanced, 200_000, 100_000, 4096)]
    {
        let engine = join_engine(fact_rows, dim_rows, segment_rows);
        let budget = config.staging_bytes;
        assert!(budget < DEFAULT_STAGING_BYTES / 10, "budget must be genuinely tiny: {budget}");
        let outcome = engine.session().execute(&join_plan(), &config).unwrap();
        assert_eq!(outcome.rows, reference_execute(&join_plan(), engine.catalog()).unwrap());
        for (node, peak) in &outcome.stats.staging_peaks {
            assert!(*peak <= budget, "node {node} peaked at {peak} > tiny budget {budget}");
        }
        assert!(
            outcome.stats.staging_peaks.iter().any(|(_, p)| *p > 0),
            "blocks must have been lease-backed"
        );
        assert_eq!(outcome.stats.staging_leaked_bytes, 0, "staging leaked under budget {budget}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Peak leased bytes per node never exceed the configured arena capacity,
    /// and governance never changes results, across random pipelined plans
    /// (device mixes, block sizes, and budget tightness).
    #[test]
    fn prop_peak_leased_bytes_never_exceed_the_budget(
        cpus in 1usize..5,
        gpus in 0usize..3,
        capacity_sel in 0usize..3,
        budget_mult in 1u64..5,
        fact_rows in 10_000usize..40_000,
    ) {
        let dim_rows = fact_rows / 3;
        let engine = join_engine(fact_rows, dim_rows, 1024);
        let mut config = if gpus == 0 {
            EngineConfig::cpu_only(cpus)
        } else {
            EngineConfig::hybrid(cpus, gpus)
        };
        config.block_capacity = [256, 1024, 4096][capacity_sel];
        let budget = config.min_staging_bytes() * budget_mult;
        config.staging_bytes = budget;
        let outcome = engine.session().execute(&join_plan(), &config).unwrap();

        let (sum, cnt) = expected(fact_rows, dim_rows);
        prop_assert_eq!(outcome.rows.clone(), vec![vec![sum, cnt]]);
        prop_assert!(!outcome.stats.staging_peaks.is_empty());
        for (node, peak) in &outcome.stats.staging_peaks {
            prop_assert!(
                peak <= &budget,
                "node {} peaked at {} > budget {}", node, peak, budget
            );
        }
    }
}
