//! Cross-crate integration tests: every engine configuration and both baseline
//! systems must produce exactly the same answers as the naive reference
//! executor on the full SSB query set, across data placements.

use hetexchange::baselines::{DbmsC, DbmsG};
use hetexchange::common::config::DataPlacement;
use hetexchange::common::EngineConfig;
use hetexchange::common::{ColumnData, DataType};
use hetexchange::core_ops::RelNode;
use hetexchange::core_ops::{compile, parallelize, StageSource};
use hetexchange::engine::{reference_execute, Executor, Proteus};
use hetexchange::jit::{AggSpec, Expr, StateObject, StateSlot};
use hetexchange::ssb::{all_queries, SsbGenerator};
use hetexchange::storage::{Catalog, TableBuilder};
use std::sync::Arc;

fn generator() -> SsbGenerator {
    SsbGenerator { scale_factor: 0.002, seed: 1234, segment_rows: 2_048, fact_rows: None }
}

#[test]
fn all_ssb_queries_match_reference_on_cpu_gpu_and_hybrid() {
    let engine = Proteus::on_paper_server();
    let dataset =
        generator().generate(&engine.topology().cpu_memory_nodes()).expect("generate SSB");
    dataset.register_into(engine.catalog());
    let reference_catalog = Catalog::new();
    dataset.register_into(&reference_catalog);

    let configs =
        [EngineConfig::cpu_only(6), EngineConfig::gpu_only(2), EngineConfig::hybrid(6, 2)];
    for query in all_queries(&dataset).expect("queries") {
        let expected = reference_execute(&query.plan, &reference_catalog)
            .unwrap_or_else(|e| panic!("reference failed for {}: {e}", query.name));
        for config in &configs {
            let outcome = engine
                .session()
                .execute(&query.plan, config)
                .unwrap_or_else(|e| panic!("{} failed on {:?}: {e}", query.name, config.target));
            assert_eq!(
                outcome.rows, expected,
                "{} on {:?} disagrees with the reference executor",
                query.name, config.target
            );
        }
    }
}

/// Every expression of every stage that scans `lineorder` runs a specialised
/// kernel shape, on every device template of the CPU, GPU and hybrid plans of
/// all 13 queries: a predicate or aggregate that falls back to the tree walker
/// fails here rather than silently slowing the fact scan.
#[test]
fn ssb_fact_stages_compile_to_specialised_shapes_only() {
    let engine = Proteus::on_paper_server();
    let dataset =
        generator().generate(&engine.topology().cpu_memory_nodes()).expect("generate SSB");
    let configs =
        [EngineConfig::cpu_only(6), EngineConfig::gpu_only(2), EngineConfig::hybrid(6, 2)];
    let queries = all_queries(&dataset).expect("queries");
    assert_eq!(queries.len(), 13);
    for query in &queries {
        for config in &configs {
            let het = parallelize(&query.plan, config).expect("parallelize");
            let graph = compile(&het, config, engine.topology()).expect("compile");
            let fact = graph.stages.iter().filter(|stage| {
                matches!(&stage.source, StageSource::Table { table, .. } if table == "lineorder")
            });
            let mut templates = 0;
            for template in fact.flat_map(|stage| stage.templates.values()) {
                templates += 1;
                assert_eq!(
                    template.tree_walked_exprs(),
                    0,
                    "{} on {:?}: {:?} -> {:?}",
                    query.name,
                    config.target,
                    template.steps(),
                    template.terminal()
                );
            }
            assert!(templates > 0, "{} on {:?} has no lineorder stage", query.name, config.target);
        }
    }
}

/// Whether each group table of `plan` indexed its keys directly, after one
/// execution on `engine`'s catalog.
fn group_tables_direct(engine: &Proteus, plan: &RelNode, config: &EngineConfig) -> Vec<bool> {
    let het = parallelize(plan, config).expect("parallelize");
    let graph = compile(&het, config, engine.topology()).expect("compile");
    let executor = Executor::new(Arc::clone(engine.topology()));
    executor.execute(&graph, engine.catalog(), config).expect("execute");
    let objects = (0..graph.state.len()).filter_map(|i| graph.state.object(StateSlot(i)));
    objects
        .filter_map(|o| if let StateObject::GroupBy(t) = o { Some(t.is_direct()) } else { None })
        .collect()
}

/// SSB Q2.1's `(d_year, p_brand1)` key and a 64 Ki-value key behind a join
/// (the shape of the ruler's `join_groupby`) are indexed directly; a key one
/// value wider than `GROUP_DIRECT_SPAN` falls back to hashed slots.
#[test]
fn group_keys_within_the_direct_span_skip_the_hash() {
    let engine = Proteus::on_paper_server();
    let dataset =
        generator().generate(&engine.topology().cpu_memory_nodes()).expect("generate SSB");
    dataset.register_into(engine.catalog());
    let config = EngineConfig::cpu_only(2);
    let q2_1 = hetexchange::ssb::query_by_name(&dataset, "Q2.1").unwrap();
    assert_eq!(group_tables_direct(&engine, &q2_1.plan, &config), vec![true]);

    let nodes = engine.topology().cpu_memory_nodes();
    let rows = 70_000;
    let dim = TableBuilder::new("dim")
        .column("k", DataType::Int32, ColumnData::Int32((0..100).collect()))
        .column("attr", DataType::Int32, ColumnData::Int32((0..100).map(|k| k % 7).collect()));
    engine.register_table(dim.build(&nodes, 4_096).unwrap());
    for (name, span, direct) in [("fact", 64 * 1024, true), ("wide", 64 * 1024 + 1, false)] {
        let fact = TableBuilder::new(name)
            .column("key", DataType::Int32, ColumnData::Int32((0..rows).map(|i| i % 100).collect()))
            .column(
                "grp",
                DataType::Int32,
                ColumnData::Int32((0..rows).map(|i| i % span).collect()),
            )
            .column("value", DataType::Int64, ColumnData::Int64((0..i64::from(rows)).collect()));
        engine.register_table(fact.build(&nodes, 8_192).unwrap());
        let dim = RelNode::scan("dim", &["k", "attr"]).filter(Expr::col(1).lt_lit(3));
        let plan = RelNode::scan(name, &["key", "grp", "value"])
            .hash_join(dim, 0, 0, &[1])
            .group_by(&[1], vec![AggSpec::sum(Expr::col(2)), AggSpec::count()], &["sum_v", "cnt"]);
        assert_eq!(group_tables_direct(&engine, &plan, &config), vec![direct], "{name}");
    }
}

#[test]
fn gpu_resident_placement_produces_identical_results() {
    let engine = Proteus::on_paper_server();
    let gpu_nodes = engine.topology().gpu_memory_nodes();
    let cpu_nodes = engine.topology().cpu_memory_nodes();
    let gpu_dataset = generator().generate(&gpu_nodes).expect("gpu placement");
    let cpu_dataset = generator().generate(&cpu_nodes).expect("cpu placement");
    gpu_dataset.register_into(engine.catalog());
    let reference_catalog = Catalog::new();
    cpu_dataset.register_into(&reference_catalog);

    for name in ["Q1.1", "Q2.1", "Q3.2", "Q4.1"] {
        let query = hetexchange::ssb::query_by_name(&gpu_dataset, name).unwrap();
        let expected = reference_execute(&query.plan, &reference_catalog).unwrap();
        let outcome = engine
            .session()
            .execute(&query.plan, &EngineConfig::gpu_only(2))
            .unwrap_or_else(|e| panic!("{name} failed on GPU-resident data: {e}"));
        assert_eq!(outcome.rows, expected, "{name} differs with GPU-resident data");
    }
}

#[test]
fn baselines_match_reference_and_report_paper_failures() {
    let topology = hetexchange::topology::ServerTopology::paper_server();
    let dataset = generator().generate(&topology.cpu_memory_nodes()).expect("generate SSB");
    let catalog = Catalog::new();
    dataset.register_into(&catalog);
    let weights = EngineConfig::default();

    let dbms_c = DbmsC::new(Arc::clone(&topology), 24);
    let dbms_g_streaming = DbmsG::new(Arc::clone(&topology), 2, DataPlacement::CpuResident);
    let dbms_g_resident = DbmsG::new(topology, 2, DataPlacement::GpuResident);

    for query in all_queries(&dataset).expect("queries") {
        let expected = reference_execute(&query.plan, &catalog).unwrap();
        let c = dbms_c.execute(&query.plan, &catalog, &weights).expect("DBMS C runs everything");
        assert_eq!(c.rows, expected, "DBMS C wrong on {}", query.name);

        let g = dbms_g_streaming.execute(&query.plan, &catalog, &weights);
        match query.name.as_str() {
            // §6: DBMS G cannot run Q2.2 at all, and fails Q4.3 over
            // non-GPU-resident data.
            "Q2.2" => assert!(g.is_err(), "DBMS G must fail Q2.2"),
            "Q4.3" => assert!(g.is_err(), "DBMS G must fail Q4.3 when streaming"),
            _ => {
                assert_eq!(
                    g.unwrap_or_else(|e| panic!("DBMS G failed {}: {e}", query.name)).rows,
                    expected,
                    "DBMS G wrong on {}",
                    query.name
                );
            }
        }

        // With GPU-resident data only the string inequality remains impossible.
        let g = dbms_g_resident.execute(&query.plan, &catalog, &weights);
        if query.name == "Q2.2" {
            assert!(g.is_err());
        } else {
            assert_eq!(g.unwrap().rows, expected);
        }
    }
}

#[test]
fn sequential_and_parallel_executions_agree_without_hetexchange() {
    let engine = Proteus::on_paper_server();
    let dataset =
        generator().generate(&engine.topology().cpu_memory_nodes()).expect("generate SSB");
    dataset.register_into(engine.catalog());
    let query = hetexchange::ssb::query_by_name(&dataset, "Q2.1").unwrap();

    // Model a non-trivial working set; otherwise the ~10 ms router
    // initialization overhead dominates (the Figure 8 effect) and the
    // comparison below would be meaningless.
    let mut sequential = EngineConfig::cpu_only(1);
    sequential.hetexchange_enabled = false;
    sequential.scale_weight = 10_000.0;
    let mut parallel = EngineConfig::hybrid(8, 2);
    parallel.scale_weight = 10_000.0;
    let seq = engine.session().execute(&query.plan, &sequential).unwrap();
    let par = engine.session().execute(&query.plan, &parallel).unwrap();
    assert_eq!(seq.rows, par.rows);
    assert!(
        par.sim_time < seq.sim_time,
        "parallel execution must be faster in simulated time ({} vs {})",
        par.sim_time,
        seq.sim_time
    );
}
