//! Host work counts (`QueryStats::host_counts`), bounded where they are a
//! function of the plan, the topology and the data, and reported where
//! thread interleaving decides them.
//!
//! Routing prices each block once per pricing class of its stage (consumers
//! alike in device kind, device profile and memory node), so `route_evals`
//! is the sum of the stages' class counts over the blocks routed into them.
//! The check derives both from the compiled plan and the catalog, without
//! the executor: a table-scan stage is routed one block per segment, and
//! the stages fed by other stages share one class count here, so the blocks
//! routed into them are the rest of `routed_blocks`.

use hetexchange::common::{ColumnData, DataType, EngineConfig};
use hetexchange::core_ops::{compile, parallelize, RelNode, StageGraph, StageSource};
use hetexchange::engine::{HostCounts, Proteus};
use hetexchange::jit::{AggSpec, Expr};
use hetexchange::ssb::{all_queries, SsbGenerator};
use hetexchange::storage::{Segmenter, TableBuilder};
use hetexchange::topology::ServerTopology;
use std::collections::HashSet;

const RUNS: usize = 20;

/// The paper server with a small SSB dataset and a synthetic join's two
/// tables registered.
fn engine() -> Proteus {
    let engine = Proteus::on_paper_server();
    let nodes = engine.topology().cpu_memory_nodes();
    let generator =
        SsbGenerator { scale_factor: 0.002, seed: 1234, segment_rows: 2_048, fact_rows: None };
    generator.generate(&nodes).expect("generate SSB").register_into(engine.catalog());
    let rows: i32 = 20_000;
    let keys = |stride: i32| ColumnData::Int32((0..rows).map(|i| i * stride % 5_000).collect());
    engine.register_table(
        TableBuilder::new("fact")
            .column("key", DataType::Int32, keys(7))
            .column("grp", DataType::Int32, keys(3))
            .column("value", DataType::Int64, ColumnData::Int64((0..i64::from(rows)).collect()))
            .build(&nodes, 4_096)
            .unwrap(),
    );
    engine.register_table(
        TableBuilder::new("dim")
            .column("k", DataType::Int32, ColumnData::Int32((0..5_000).collect()))
            .column("attr", DataType::Int32, ColumnData::Int32((0..5_000).map(|i| i % 7).collect()))
            .build(&nodes, 4_096)
            .unwrap(),
    );
    engine
}

/// Blocks of 1,024 rows, so the synthetic join routes tens of blocks.
fn small_blocks(mut config: EngineConfig) -> EngineConfig {
    config.block_capacity = 1_024;
    config
}

/// The synthetic join's two queries: join + reduce and join + group-by.
fn joins() -> Vec<(String, RelNode)> {
    let joined = || {
        let dim = RelNode::scan("dim", &["k", "attr"]).filter(Expr::col(1).lt_lit(3));
        RelNode::scan("fact", &["key", "grp", "value"]).hash_join(dim, 0, 0, &[1])
    };
    let aggs = || vec![AggSpec::sum(Expr::col(2)), AggSpec::count()];
    vec![
        ("join_reduce".into(), joined().reduce(aggs(), &["sum_v", "cnt"])),
        ("join_groupby".into(), joined().group_by(&[1], aggs(), &["sum_v", "cnt"])),
    ]
}

/// A stage's pricing classes, from its consumers and the topology.
fn classes(graph: &StageGraph, stage: usize, topology: &ServerTopology) -> u64 {
    let mut classes = Vec::new();
    for slot in &graph.stages[stage].consumers {
        let profile = topology.device(slot.affinity.for_kind(slot.kind).unwrap()).unwrap();
        let class = (slot.kind, profile.local_memory, profile.clone());
        if !classes.contains(&class) {
            classes.push(class);
        }
    }
    classes.len() as u64
}

/// `route_evals` of one run of `plan` under `config`, derived from the plan:
/// each table stage's class count times its segments, plus the class count
/// the other stages share times the blocks routed into them.
fn expected_route_evals(
    engine: &Proteus,
    plan: &RelNode,
    config: &EngineConfig,
    routed_blocks: u64,
) -> u64 {
    let topology = engine.topology();
    let graph = compile(&parallelize(plan, config).unwrap(), config, topology).unwrap();
    let (mut evals, mut scanned) = (0, 0);
    let mut fed = HashSet::new();
    for (stage, s) in graph.stages.iter().enumerate() {
        match &s.source {
            StageSource::Table { table, projection } => {
                let projection: Vec<&str> = projection.iter().map(String::as_str).collect();
                let table = engine.catalog().get(table).unwrap();
                let segments = Segmenter::new(table, &projection, config.block_capacity)
                    .segments()
                    .unwrap()
                    .len() as u64;
                evals += classes(&graph, stage, topology) * segments;
                scanned += segments;
            }
            StageSource::Stage(_) => {
                fed.insert(classes(&graph, stage, topology));
            }
        }
    }
    assert!(fed.len() <= 1, "stages fed by stages price different class counts: {fed:?}");
    evals + fed.into_iter().next().unwrap_or(0) * (routed_blocks - scanned)
}

/// Run every query `RUNS` times: `route_evals` is the derived sum in every
/// run and the same in each, and at most `per_block` classes are priced per
/// routed block.
fn assert_route_evals(
    engine: &Proteus,
    queries: &[(String, RelNode)],
    config: &EngineConfig,
    per_block: u64,
) {
    for (name, plan) in queries {
        let mut seen = HashSet::new();
        for _ in 0..RUNS {
            let counts = engine.session().execute(plan, config).unwrap().stats.host_counts;
            let expected = expected_route_evals(engine, plan, config, counts.routed_blocks);
            assert_eq!(counts.route_evals, expected, "{name} on {:?}: {counts:?}", config.target);
            assert!(
                counts.route_evals <= per_block * counts.routed_blocks,
                "{name}: more than {per_block} classes priced per block: {counts:?}"
            );
            seen.insert(counts.route_evals);
        }
        assert_eq!(seen.len(), 1, "{name}: route_evals moved between runs: {seen:?}");
    }
}

#[test]
fn route_evals_are_the_class_counts_of_the_routed_blocks() {
    let engine = engine();
    let dataset_queries: Vec<(String, RelNode)> = {
        let nodes = engine.topology().cpu_memory_nodes();
        let generator =
            SsbGenerator { scale_factor: 0.002, seed: 1234, segment_rows: 2_048, fact_rows: None };
        let dataset = generator.generate(&nodes).unwrap();
        all_queries(&dataset).unwrap().into_iter().map(|q| (q.name, q.plan)).collect()
    };
    // The CPU workloads: two cores, one on each socket, so two classes.
    let cpu = EngineConfig::cpu_only(2);
    assert_route_evals(&engine, &dataset_queries, &cpu, 2);
    assert_route_evals(&engine, &joins(), &small_blocks(cpu), 2);
    // The paper's hybrid(24, 2): the cores of each socket and each GPU are
    // a class of their own, four in all.
    assert_route_evals(&engine, &joins(), &small_blocks(EngineConfig::hybrid(24, 2)), 4);
}

#[test]
fn wakes_and_parks_are_reported() {
    // Notifications and idle waits depend on how threads interleave, so
    // they are reported, not bounded.
    let engine = engine();
    for (name, plan) in joins() {
        let config = small_blocks(EngineConfig::hybrid(24, 2));
        let stats = engine.session().execute(&plan, &config).unwrap().stats;
        let HostCounts { route_evals, routed_blocks, wakes, parks } = stats.host_counts;
        eprintln!("{name} on hybrid(24, 2): {routed_blocks} blocks routed, {route_evals} class prices, {wakes} notifications, {parks} parks");
        assert!(routed_blocks > 0 && route_evals > 0, "{name}: nothing was routed");
    }
}
