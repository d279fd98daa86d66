//! Quickstart: run the paper's running example on CPUs, GPUs and both.
//!
//! The query is the one Figures 1-3 use throughout:
//! `SELECT SUM(b) FROM t WHERE a > 42`.
//!
//! Run with: `cargo run --release --example quickstart`

use hetexchange::common::{ColumnData, DataType, EngineConfig};
use hetexchange::core_ops::RelNode;
use hetexchange::engine::Proteus;
use hetexchange::jit::{AggSpec, Expr};
use hetexchange::storage::TableBuilder;

fn main() -> hetexchange::common::Result<()> {
    // 1. An engine on the paper's server: 2 sockets x 12 cores + 2 GPUs.
    let engine = Proteus::on_paper_server();

    // 2. Load a small table, interleaved over the two sockets' DRAM.
    let rows = 2_000_000usize;
    let nodes = engine.topology().cpu_memory_nodes();
    let table = TableBuilder::new("t")
        .column(
            "a",
            DataType::Int32,
            ColumnData::Int32((0..rows as i32).map(|i| i % 100).collect()),
        )
        .column("b", DataType::Int64, ColumnData::Int64((0..rows as i64).map(|i| i * 3).collect()))
        .build(&nodes, rows / 8)?;
    engine.register_table(table);

    // 3. The sequential physical plan (Figure 1a / 2a).
    let plan = RelNode::scan("t", &["a", "b"])
        .filter(Expr::col(0).gt_lit(42))
        .reduce(vec![AggSpec::sum(Expr::col(1))], &["sum_b"]);

    // 4. Show the heterogeneity-aware plan HetExchange produces for a hybrid
    //    configuration (Figure 1e / 2b).
    let hybrid = EngineConfig::hybrid(24, 2);
    println!("-- heterogeneity-aware plan (hybrid, 24 CPU cores + 2 GPUs) --");
    println!("{}", engine.explain(&plan, &hybrid)?);

    // 5. Execute on CPU-only, GPU-only and hybrid configurations. The result
    //    is identical; the modeled execution time differs.
    for config in [EngineConfig::cpu_only(24), EngineConfig::gpu_only(2), hybrid] {
        let outcome = engine.session().execute(&plan, &config)?;
        println!(
            "{:<14} -> SUM(b) = {:>16}   simulated time {:>8.3} ms   ({} stages, {:.1} MB moved)",
            config.target.label(),
            outcome.rows[0][0],
            outcome.sim_time.as_millis_f64(),
            outcome.stats.stages,
            outcome.stats.bytes_transferred / 1e6,
        );
    }
    Ok(())
}
