//! Re-routing invariants (DESIGN.md "Adaptive re-routing"): under
//! randomized withdrawal timing every block is consumed exactly once (no
//! loss, no duplication), the staging charges attached to queued handles
//! balance to zero, and execution that re-routes off a straggler produces
//! byte-identical rows to the `reference_execute` oracle on a skewed
//! (hidden-straggler) server.

use hetexchange::common::{ColumnData, DataType, EngineConfig};
use hetexchange::core_ops::queue::BlockQueue;
use hetexchange::core_ops::RelNode;
use hetexchange::engine::{reference_execute, Proteus};
use hetexchange::jit::{AggSpec, Expr};
use hetexchange::storage::TableBuilder;
use hetexchange::topology::ServerTopology;
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use hetexchange::common::{Block, BlockHandle, BlockId, BlockMeta, MemoryNodeId};

/// A staging-token stand-in counting its releases (the real token is the
/// executor's queue-slot + arena-lease bundle; the queue sees `dyn Any`).
struct ReleaseCounter(Arc<AtomicUsize>);
impl Drop for ReleaseCounter {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

fn staged_handle(id: usize, released: &Arc<AtomicUsize>) -> BlockHandle {
    let block = Block::new(vec![ColumnData::Int64(vec![id as i64])], 1).unwrap();
    let mut handle =
        BlockHandle::new(block, BlockMeta::new(BlockId::new(id), MemoryNodeId::new(0)));
    handle.attach_staging(Arc::new(ReleaseCounter(Arc::clone(released))));
    handle
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Exactly-once delivery under randomized steal timing: a producer, a
    /// popping consumer and a stealing sibling race over one queue; every
    /// block id ends up consumed by exactly one of them, and every staging
    /// charge is released.
    #[test]
    fn prop_pop_and_steal_consume_each_block_exactly_once(
        total in 1usize..400,
        producer_stall_every in 1usize..8,
        steal_min_depth in 1usize..4,
    ) {
        let released = Arc::new(AtomicUsize::new(0));
        let q = BlockQueue::new(1);
        let stop = Arc::new(AtomicBool::new(false));

        let consumer = {
            let q = q.clone();
            std::thread::spawn(move || {
                let mut ids = Vec::new();
                while let Some(h) = q.pop() {
                    ids.push(h.meta().id.index());
                }
                ids
            })
        };
        let thief = {
            let q = q.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut ids = Vec::new();
                loop {
                    if q.len() >= steal_min_depth {
                        if let Some(h) = q.steal() {
                            ids.push(h.meta().id.index());
                            continue;
                        }
                    }
                    if stop.load(Ordering::SeqCst) && q.is_empty() {
                        break;
                    }
                    std::thread::yield_now();
                }
                ids
            })
        };

        for id in 0..total {
            q.push(staged_handle(id, &released)).unwrap();
            if id % producer_stall_every == 0 {
                std::thread::yield_now();
            }
        }
        q.producer_done().unwrap();
        let mut seen = consumer.join().unwrap();
        stop.store(true, Ordering::SeqCst);
        seen.extend(thief.join().unwrap());

        seen.sort_unstable();
        prop_assert_eq!(seen, (0..total).collect::<Vec<_>>());
        // Leases balance to zero: every attached charge was released.
        prop_assert_eq!(released.load(Ordering::SeqCst), total);
    }
}

/// Engine under test: fact ⋈ dim → SUM/COUNT on a paper server with one GPU
/// marked as a hidden straggler.
fn skewed_engine(fact_rows: usize, dim_rows: usize, slowdown: f64) -> Proteus {
    let topology = ServerTopology::paper_server();
    let slow_gpu = topology.gpus()[1];
    let skewed = topology.with_device_slowdown(slow_gpu, slowdown).unwrap();
    let engine = Proteus::new(skewed);
    let nodes = engine.topology().cpu_memory_nodes();
    let fact = TableBuilder::new("fact")
        .column(
            "key",
            DataType::Int32,
            ColumnData::Int32((0..fact_rows as i32).map(|i| i % dim_rows.max(1) as i32).collect()),
        )
        .column("value", DataType::Int64, ColumnData::Int64((0..fact_rows as i64).collect()))
        .build(&nodes, 1024)
        .unwrap();
    let dim = TableBuilder::new("dim")
        .column("k", DataType::Int32, ColumnData::Int32((0..dim_rows as i32).collect()))
        .column(
            "attr",
            DataType::Int32,
            ColumnData::Int32((0..dim_rows as i32).map(|i| i % 7).collect()),
        )
        .build(&nodes, 1024)
        .unwrap();
    engine.register_table(fact);
    engine.register_table(dim);
    engine
}

fn join_plan() -> RelNode {
    let dim = RelNode::scan("dim", &["k", "attr"]).filter(Expr::col(1).lt_lit(3));
    RelNode::scan("fact", &["key", "value"])
        .hash_join(dim, 0, 0, &[1])
        .reduce(vec![AggSpec::sum(Expr::col(1)), AggSpec::count()], &["sum_v", "cnt"])
}

/// The healthy-server safety claim: on a server where no device is an
/// observed straggler, no lane re-routes a block (**zero steals**) and the
/// **simulated time is deterministic** — two runs agree to the nanosecond.
/// The exact-equality half runs on an ungated single-stage plan, where simulated
/// time is fully deterministic (gated plans read the gate estimate at
/// wall-clock-dependent routing instants, so their simulated times carry
/// schedule noise — rows and steal counts stay exact there; see the gated
/// half below).
#[test]
fn a_healthy_server_reroutes_nothing_and_keeps_sim_time() {
    let engine = skewed_engine(60_000, 15_000, 1.0); // slowdown 1.0 = healthy
    let scan_plan = || {
        RelNode::scan("fact", &["key", "value"])
            .filter(Expr::col(0).lt_lit(5_000))
            .reduce(vec![AggSpec::sum(Expr::col(1)), AggSpec::count()], &["sum_v", "cnt"])
    };
    for (label, mut config) in
        [("cpu_only", EngineConfig::cpu_only(6)), ("hybrid", EngineConfig::hybrid(6, 2))]
    {
        config.block_capacity = 512;
        config.scale_weight = 10_000.0;
        // The default staging budget keeps every arena under half full, so
        // the occupancy penalty (which reads live, wall-clock-dependent
        // occupancy) never engages and routing stays deterministic.
        let first = engine.session().execute(&scan_plan(), &config).unwrap();
        let second = engine.session().execute(&scan_plan(), &config).unwrap();
        assert_eq!(first.rows, second.rows, "{label}: rows must match");
        for run in [&first, &second] {
            assert_eq!(
                run.stats.total_blocks_stolen(),
                0,
                "{label}: a healthy server must take zero steals"
            );
        }
        assert_eq!(
            first.sim_time, second.sim_time,
            "{label}: zero steals must leave the simulated time deterministic"
        );
    }
}

/// The gated half of the healthy-server safety claim: on the join plan
/// (whose simulated time carries gate-estimate schedule noise), no lane
/// re-routes and the rows are byte-identical — only a lane on an observed
/// straggler re-routes.
#[test]
fn healthy_server_join_takes_zero_steals() {
    let engine = skewed_engine(40_000, 10_000, 1.0);
    let mut config = EngineConfig::hybrid(6, 2);
    config.block_capacity = 512;
    config.scale_weight = 10_000.0;
    let stealing = engine.session().execute(&join_plan(), &config).unwrap();
    assert_eq!(stealing.stats.total_blocks_stolen(), 0);
    assert_eq!(stealing.rows, reference_execute(&join_plan(), engine.catalog()).unwrap());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Row output with stealing equals the reference oracle's on a
    /// hidden-straggler server, across device mixes and slowdowns, with
    /// staging peaks still within the budget.
    #[test]
    fn prop_stealing_rows_equal_the_reference(
        cpus in 2usize..6,
        gpus in 1usize..3,
        slowdown in 2u64..12,
        fact_rows in 20_000usize..60_000,
    ) {
        let dim_rows = fact_rows / 4;
        let engine = skewed_engine(fact_rows, dim_rows, slowdown as f64);
        let mut config = EngineConfig::hybrid(cpus, gpus);
        config.block_capacity = 512;
        config.scale_weight = 10_000.0;
        let budget = config.min_staging_bytes() * 3;
        config.staging_bytes = budget;

        let stealing = engine.session().execute(&join_plan(), &config).unwrap();
        let expected = reference_execute(&join_plan(), engine.catalog()).unwrap();

        prop_assert_eq!(&stealing.rows, &expected);
        for (node, peak) in &stealing.stats.staging_peaks {
            prop_assert!(
                peak <= &budget,
                "node {} peaked at {} > budget {} (steal re-charge must stay governed)",
                node, peak, budget
            );
        }
    }
}
