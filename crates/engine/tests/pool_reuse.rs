//! The engine-lifetime worker pool reuses its threads across queries.
//!
//! A test binary of its own: it counts the process's OS threads, so no
//! other test may run (and spawn threads) beside it.

use hetex_common::{ColumnData, DataType, EngineConfig};
use hetex_core::RelNode;
use hetex_engine::{pool, Proteus};
use hetex_jit::{AggSpec, Expr};
use hetex_storage::TableBuilder;
use hetex_topology::ServerTopology;

/// The `Threads:` line of `/proc/self/status`, where the OS provides it.
fn os_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|l| l.strip_prefix("Threads:")).and_then(|n| n.trim().parse().ok())
}

#[test]
fn hybrid_queries_after_a_warm_up_create_no_threads() {
    let engine = Proteus::new(ServerTopology::paper_server());
    let nodes = engine.topology().cpu_memory_nodes();
    let rows = 60_000;
    let fact = TableBuilder::new("fact")
        .column("key", DataType::Int32, ColumnData::Int32((0..rows).map(|i| i % 100).collect()))
        .column("value", DataType::Int64, ColumnData::Int64((0..rows as i64).collect()))
        .build(&nodes, 2048)
        .unwrap();
    let dim = TableBuilder::new("dim")
        .column("k", DataType::Int32, ColumnData::Int32((0..100).collect()))
        .column("attr", DataType::Int32, ColumnData::Int32((0..100).map(|i| i % 7).collect()))
        .build(&nodes, 2048)
        .unwrap();
    engine.register_table(fact);
    engine.register_table(dim);
    let dim = RelNode::scan("dim", &["k", "attr"]).filter(Expr::col(1).lt_lit(3));
    let plan = RelNode::scan("fact", &["key", "value"])
        .hash_join(dim, 0, 0, &[1])
        .reduce(vec![AggSpec::sum(Expr::col(1))], &["sum_v"]);
    let config = EngineConfig::hybrid(24, 2);

    // Warm-up: one query, then 64 jobs that must all run at once. A query
    // keeps at most its job count (here ≤ 2 pumps + 26 + 26 + 1 instances)
    // running, but how many overlap depends on timing (early finishers are
    // reused within the query), so the barrier makes the cache's size
    // deterministic.
    let expected = engine.session().execute(&plan, &config).unwrap().rows;
    assert!(pool::threads_spawned() >= 26, "a hybrid(24,2) join runs a job per instance");
    let barrier = std::sync::Barrier::new(64);
    pool::scope(|s| {
        for _ in 0..64 {
            s.spawn(|| {
                barrier.wait();
            });
        }
    });
    let (spawned, threads) = (pool::threads_spawned(), os_threads());
    for _ in 0..100 {
        assert_eq!(engine.session().execute(&plan, &config).unwrap().rows, expected);
    }
    assert_eq!(pool::threads_spawned(), spawned, "the pool spawned threads after its warm-up");
    if let (Some(before), Some(after)) = (threads, os_threads()) {
        assert_eq!(after, before, "the process gained OS threads after the warm-up");
    }
}
