//! Each execution runs its pipeline work on at most
//! `available_parallelism()` threads, the calling thread included.
//!
//! A test binary of its own: it counts the process's OS threads, so no
//! other test may run (and spawn threads) beside it.

use hetex_common::{ColumnData, DataType, EngineConfig};
use hetex_core::RelNode;
use hetex_engine::Proteus;
use hetex_jit::{AggSpec, Expr};
use hetex_storage::TableBuilder;
use hetex_topology::ServerTopology;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// The `Threads:` line of `/proc/self/status`, where the OS provides it.
fn os_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|l| l.strip_prefix("Threads:")).and_then(|n| n.trim().parse().ok())
}

/// The thread count once the threads of the last execution have exited:
/// a joined thread leaves the count only as it finishes exiting.
fn settled_threads(at_most: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(1);
    loop {
        let threads = os_threads().expect("counted above");
        if threads <= at_most || Instant::now() >= deadline {
            return threads;
        }
        std::thread::yield_now();
    }
}

#[test]
fn hybrid_queries_run_on_at_most_available_parallelism_threads() {
    let Some(before) = os_threads() else { return };
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
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

    // A sampler reads the thread count every 200 µs while the queries run.
    let (peak, stop) = (AtomicUsize::new(0), AtomicBool::new(false));
    let expected = std::thread::scope(|scope| {
        scope.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                peak.fetch_max(os_threads().unwrap_or(0), Ordering::Relaxed);
                std::thread::sleep(Duration::from_micros(200));
            }
        });
        let idle = before + 1;
        let expected = engine.session().execute(&plan, &config).unwrap().rows;
        let after_first = settled_threads(idle);
        for _ in 0..100 {
            assert_eq!(engine.session().execute(&plan, &config).unwrap().rows, expected);
            settled_threads(idle);
        }
        assert_eq!(settled_threads(idle), after_first, "the process grew after the first query");
        stop.store(true, Ordering::Relaxed);
        expected
    });
    assert!(!expected.is_empty());
    let bound = before + parallelism - 1 + 1;
    let peak = peak.load(Ordering::Relaxed);
    assert!(
        peak <= bound,
        "{peak} threads at peak: {before} before, {parallelism} per execution, 1 sampler"
    );
}
