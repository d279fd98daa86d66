//! Engine-reuse and multi-query serving invariants.
//!
//! * Concurrent `Proteus::execute` calls from many threads are as good as
//!   serial ones: byte-identical rows, zero staging leaks, and — on a
//!   healthy server, where nothing is stolen and execution is wall-clock
//!   independent — bit-identical simulated times (each query runs on private clocks, so
//!   co-runners cannot corrupt each other's accounting).
//! * The [`QueryServer`] session layer: admission never exceeds the
//!   per-node byte budget, rows are byte-identical to single-query runs,
//!   the fair timeline's latencies dominate each query's isolated time, and
//!   the makespan never exceeds the serial back-to-back baseline.

use hetex_common::{ColumnData, DataType, EngineConfig, HetError, Priority, ServeConfig};
use hetex_core::SlowdownObserver;
use hetex_engine::{Proteus, QueryServer};
use hetex_jit::{AggSpec, Expr};
use hetex_storage::TableBuilder;
use hetex_topology::{ServerTopology, SimTime};
use std::sync::Arc;

fn engine_with_table(rows: usize) -> Proteus {
    engine_on(ServerTopology::paper_server(), rows)
}

fn engine_on(topology: Arc<ServerTopology>, rows: usize) -> Proteus {
    let engine = Proteus::new(topology);
    let nodes = engine.topology().cpu_memory_nodes();
    let table = TableBuilder::new("t")
        .column(
            "a",
            DataType::Int32,
            ColumnData::Int32((0..rows as i32).map(|i| i % 1000).collect()),
        )
        .column("b", DataType::Int64, ColumnData::Int64((0..rows as i64).map(|i| i * 2).collect()))
        .build(&nodes, 8192)
        .unwrap();
    engine.register_table(table);
    engine
}

fn sum_where_plan(threshold: i64) -> hetex_core::RelNode {
    hetex_core::RelNode::scan("t", &["a", "b"])
        .filter(Expr::col(0).gt_lit(threshold))
        .reduce(vec![AggSpec::sum(Expr::col(1))], &["sum_b"])
}

#[test]
fn concurrent_executes_match_serial_bit_for_bit() {
    // Nothing straggles on a healthy server, so nothing is stolen and
    // execution is wall-clock independent: even the simulated times must be
    // bit-identical between serial and concurrent runs — the private-clock
    // guarantee.
    let engine = Arc::new(engine_with_table(100_000));
    let configs: Vec<EngineConfig> = (0..4)
        .map(|i| match i % 2 {
            0 => EngineConfig::cpu_only(4),
            _ => EngineConfig::hybrid(4, 2),
        })
        .collect();
    let serial: Vec<_> = configs
        .iter()
        .enumerate()
        .map(|(i, c)| engine.session().execute(&sum_where_plan(i as i64 * 100), c).unwrap())
        .collect();

    let concurrent: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = configs
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let engine = Arc::clone(&engine);
                scope.spawn(move || {
                    engine.session().execute(&sum_where_plan(i as i64 * 100), c).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (i, (s, c)) in serial.iter().zip(&concurrent).enumerate() {
        assert_eq!(s.rows, c.rows, "query {i}: concurrent rows differ from serial");
        assert_eq!(
            s.sim_time, c.sim_time,
            "query {i}: co-runners corrupted the simulated accounting"
        );
        assert_eq!(c.stats.staging_leaked_bytes, 0, "query {i}: leaked staging bytes");
        assert_eq!(s.stats.bytes_transferred, c.stats.bytes_transferred, "query {i}");
    }
}

#[test]
fn concurrent_executes_with_stealing_keep_rows_exact() {
    // Once re-routing engages, the time accounting legitimately depends on
    // load order, but the rows never may.
    let engine = Arc::new(engine_with_table(100_000));
    let config = EngineConfig::hybrid(6, 2);
    let expected = engine.session().execute(&sum_where_plan(42), &config).unwrap().rows;
    let rows: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let engine = Arc::clone(&engine);
                let config = config.clone();
                scope.spawn(move || engine.session().execute(&sum_where_plan(42), &config).unwrap())
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for outcome in rows {
        assert_eq!(outcome.rows, expected);
        assert_eq!(outcome.stats.staging_leaked_bytes, 0);
    }
}

#[test]
fn query_server_serves_batches_with_exact_rows_and_bounded_admission() {
    let engine = Arc::new(engine_with_table(100_000));
    let config = EngineConfig::cpu_only(4);
    let footprint = config.est_serve_footprint_bytes();
    // A budget for two queries at a time: the batch of four must overlap in
    // pairs, never beyond.
    let serve = ServeConfig::serving().with_workers(4).with_admission_bytes(Some(2 * footprint));

    let expected: Vec<Vec<Vec<i64>>> = (0..4)
        .map(|i| engine.session().execute(&sum_where_plan(i * 100), &config).unwrap().rows)
        .collect();

    let mut server = QueryServer::new(Arc::clone(&engine), serve).unwrap();
    let priorities = [Priority::Low, Priority::Normal, Priority::High, Priority::Normal];
    let tickets: Vec<_> = (0..4)
        .map(|i| {
            server
                .session()
                .priority(priorities[i])
                .submit(sum_where_plan(i as i64 * 100), config.clone())
                .unwrap()
        })
        .collect();
    for (i, ticket) in tickets.into_iter().enumerate() {
        let outcome = ticket.wait().unwrap();
        assert_eq!(outcome.rows, expected[i], "served query {i} rows differ from single-query");
        assert_eq!(outcome.stats.staging_leaked_bytes, 0);
    }
    let report = server.shutdown().unwrap();
    assert_eq!(report.sessions.len(), 4);
    assert_eq!(report.admission_budget, 2 * footprint);
    for (node, peak) in &report.admission_peaks {
        assert!(
            *peak <= report.admission_budget,
            "admission peak {peak} on {node} exceeds the budget"
        );
        assert!(*peak >= footprint, "at least one query was admitted on {node}");
    }
    // The fair timeline's invariants: latency dominates the isolated time
    // (co-runners never accelerate a query), the batch never beats serial,
    // and serving overlaps at least two queries (makespan < serial).
    for s in &report.sessions {
        assert!(s.finished_at >= s.admitted_at);
        assert!(s.latency() >= s.isolated, "query {} served faster than its isolated time", s.seq);
    }
    assert!(report.makespan <= report.serial);
    assert!(
        report.makespan < report.serial,
        "four capacity-sharing queries must overlap somewhere"
    );
    assert!(report.speedup() >= 1.0);
    // High priority is admitted no later than any normal/low co-runner.
    let high = report.sessions.iter().find(|s| s.priority == Priority::High).unwrap();
    for s in &report.sessions {
        assert!(high.admitted_at <= s.admitted_at, "a lower class bypassed high priority");
    }
}

#[test]
fn two_server_workers_run_hybrid_queries_on_the_shared_pool() {
    // Both server workers execute at once, each query's pipeline instances
    // drawn from the one engine-lifetime pool the other query also uses.
    let engine = Arc::new(engine_with_table(100_000));
    let config = EngineConfig::hybrid(24, 2);
    let footprint = config.est_serve_footprint_bytes();
    let serve = ServeConfig::serving().with_workers(2).with_admission_bytes(Some(2 * footprint));
    let expected: Vec<_> = (0..8)
        .map(|i| engine.session().execute(&sum_where_plan(i * 100), &config).unwrap().rows)
        .collect();
    let mut server = QueryServer::new(Arc::clone(&engine), serve).unwrap();
    let tickets: Vec<_> = (0..8)
        .map(|i| server.session().submit(sum_where_plan(i as i64 * 100), config.clone()).unwrap())
        .collect();
    for (i, ticket) in tickets.into_iter().enumerate() {
        let outcome = ticket.wait().unwrap();
        assert_eq!(outcome.rows, expected[i], "served query {i} rows differ from single-query");
        assert_eq!(outcome.stats.staging_leaked_bytes, 0);
    }
    let report = server.shutdown().unwrap();
    assert_eq!(report.sessions.len(), 8);
    assert!(report.makespan < report.serial, "two workers must overlap queries");
}

#[test]
fn query_server_requires_serving_enabled_and_fitting_footprints() {
    let engine = Arc::new(engine_with_table(1_000));
    // An empty worker pool or a zero admission budget cannot serve.
    for serve in [
        ServeConfig::serving().with_workers(0),
        ServeConfig::serving().with_admission_bytes(Some(0)),
    ] {
        let err = QueryServer::new(Arc::clone(&engine), serve).unwrap_err();
        assert_eq!(err.category(), "config");
    }

    let serve = ServeConfig::serving().with_admission_bytes(Some(1024));
    let mut server = QueryServer::new(Arc::clone(&engine), serve).unwrap();
    let config = EngineConfig::cpu_only(2);
    assert!(config.est_serve_footprint_bytes() > 1024);
    let err = server.session().submit(sum_where_plan(42), config).unwrap_err();
    assert_eq!(err.category(), "config");
    assert!(matches!(err, HetError::Config(_)));
    let report = server.shutdown().unwrap();
    assert!(report.sessions.is_empty());
    assert_eq!(report.makespan, SimTime::ZERO);
}

#[test]
fn an_engine_session_feeds_the_observer_it_is_given() {
    // `session().observe(..)` replaces the query's fresh per-run observer:
    // a hidden 8x straggler must show up in the caller's observer, and the
    // stats must be a snapshot of that same observer.
    let topology = ServerTopology::paper_server();
    let slow_gpu = topology.gpus()[1];
    let engine = engine_on(topology.with_device_slowdown(slow_gpu, 8.0).unwrap(), 50_000);
    let observer = Arc::new(SlowdownObserver::new(engine.topology().devices().len()));
    let outcome = engine
        .session()
        .observe(Arc::clone(&observer))
        .execute(&sum_where_plan(42), &EngineConfig::hybrid(4, 2))
        .unwrap();
    assert!(observer.slowdown(slow_gpu.index()) > 1.5, "the given observer saw nothing");
    assert_eq!(outcome.stats.observed_slowdowns, observer.snapshot());
}

#[test]
fn shared_observer_learns_across_served_queries() {
    // The server threads one SlowdownObserver through every query; after a
    // batch it holds an EWMA for the device slots the batch used.
    let engine = Arc::new(engine_with_table(50_000));
    let serve = ServeConfig::serving().with_workers(2);
    let mut server = QueryServer::new(Arc::clone(&engine), serve).unwrap();
    let observer = Arc::clone(server.observer());
    let tickets: Vec<_> = (0..3)
        .map(|_| server.session().submit(sum_where_plan(42), EngineConfig::cpu_only(4)).unwrap())
        .collect();
    for ticket in tickets {
        ticket.wait().unwrap();
    }
    server.shutdown().unwrap();
    let snapshot = observer.snapshot();
    assert_eq!(snapshot.len(), engine.topology().devices().len());
    assert!(snapshot.iter().all(|&s| s.is_finite() && s > 0.0));
}
