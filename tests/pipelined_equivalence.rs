//! Cross-device equivalence: the pipelined executor must produce the rows of
//! the independent `reference_execute` oracle on every workload and device
//! mix — placement and scheduling are performance decisions, never
//! correctness ones.

use hetexchange::bench::workload::{join_reduce_engine, SsbWorkload};
use hetexchange::common::{ColumnData, DataType, EngineConfig};
use hetexchange::core_ops::RelNode;
use hetexchange::engine::{reference_execute, Proteus};
use hetexchange::jit::{AggSpec, Expr};
use hetexchange::storage::TableBuilder;

fn device_mixes() -> Vec<EngineConfig> {
    vec![EngineConfig::cpu_only(4), EngineConfig::gpu_only(2), EngineConfig::hybrid(8, 2)]
}

#[test]
fn join_reduce_rows_match_the_reference_on_every_device_mix() {
    let (engine, plan) = join_reduce_engine(200_000).unwrap();
    let expected = reference_execute(&plan, engine.catalog()).unwrap();
    assert!(!expected.is_empty());
    for config in device_mixes() {
        let got = engine.session().execute(&plan, &config).unwrap();
        assert_eq!(
            got.rows, expected,
            "rows diverged from the reference under {:?}",
            config.target
        );
    }
}

#[test]
fn ssb_queries_rows_match_the_reference_on_every_device_mix() {
    let workload = SsbWorkload::build(0.002, 1000.0, false).unwrap();
    let engine = &workload.engine_cpu_data;
    for name in ["Q1.1", "Q3.1"] {
        let query = workload.queries.iter().find(|q| q.name == name).expect("query exists");
        let expected = reference_execute(&query.plan, engine.catalog()).unwrap();
        assert!(!expected.is_empty(), "{name} returned no rows");
        for base in device_mixes() {
            let config = workload.config(base);
            let got = engine.session().execute(&query.plan, &config).unwrap();
            assert_eq!(got.rows, expected, "{name} rows diverged under {:?}", config.target);
        }
    }
}

/// `dim` holds every key `copies` times and `fact` probes `dim_keys + 1`
/// distinct keys (one of them unmatched), so every kept fact row fans out to
/// exactly `copies` matches.
fn duplicate_key_engine(
    fact_rows: i64,
    dim_keys: i64,
    copies: i64,
    value: fn(i64) -> i64,
) -> Proteus {
    let engine = Proteus::on_paper_server();
    let nodes = engine.topology().cpu_memory_nodes();
    let dim_rows = dim_keys * copies;
    engine.register_table(
        TableBuilder::new("fact")
            .column(
                "key",
                DataType::Int32,
                ColumnData::Int32(
                    (0..fact_rows).map(|i| ((i * 7) % (dim_keys + 1)) as i32).collect(),
                ),
            )
            .column(
                "value",
                DataType::Int64,
                ColumnData::Int64((0..fact_rows).map(value).collect()),
            )
            .build(&nodes, 4_096)
            .unwrap(),
    );
    engine.register_table(
        TableBuilder::new("dim")
            .column(
                "k",
                DataType::Int32,
                ColumnData::Int32((0..dim_rows).map(|i| (i % dim_keys) as i32).collect()),
            )
            .column("tag", DataType::Int64, ColumnData::Int64((0..dim_rows).collect()))
            .build(&nodes, 4_096)
            .unwrap(),
    );
    engine
}

#[test]
fn duplicate_build_keys_fan_out_identically_on_cpu_gpu_and_hybrid() {
    let (fact_rows, dim_keys, copies) = (30_000, 500, 3);
    let engine = duplicate_key_engine(fact_rows, dim_keys, copies, |i| i % 1_000);
    let joined = || {
        RelNode::scan("fact", &["key", "value"]).hash_join(
            RelNode::scan("dim", &["k", "tag"]),
            0,
            0,
            &[1],
        )
    };
    let aggs = || vec![AggSpec::count(), AggSpec::sum(Expr::col(1)), AggSpec::sum(Expr::col(2))];
    let reduce = joined().reduce(aggs(), &["cnt", "sum_v", "sum_tag"]);
    // Grouping by the build payload keeps every duplicate apart.
    let grouped = joined().group_by(&[2], aggs(), &["tag", "cnt", "sum_v", "sum_tag"]);

    let matched = (0..fact_rows).filter(|i| (i * 7) % (dim_keys + 1) < dim_keys).count() as i64;
    let expected_reduce = reference_execute(&reduce, engine.catalog()).unwrap();
    assert_eq!(expected_reduce[0][0], matched * copies, "rows in = matches out");
    let expected_grouped = reference_execute(&grouped, engine.catalog()).unwrap();
    assert_eq!(expected_grouped.len() as i64, dim_keys * copies);

    for config in device_mixes() {
        let got = engine.session().execute(&reduce, &config).unwrap();
        assert_eq!(got.rows, expected_reduce, "join + reduce under {:?}", config.target);
        let got = engine.session().execute(&grouped, &config).unwrap();
        assert_eq!(got.rows, expected_grouped, "join + group-by under {:?}", config.target);
    }
}

#[test]
fn sum_overflow_wraps_identically_on_every_lowering_and_the_reference() {
    // Every value is near i64::MAX / 4, so SUM(value) overflows within a
    // handful of rows and SUM(value * value) overflows in the expression.
    let engine = duplicate_key_engine(20_000, 10, 1, |i| i64::MAX / 4 - i);
    let plan = RelNode::scan("fact", &["key", "value"]).group_by(
        &[0],
        vec![
            AggSpec::sum(Expr::col(1)),
            AggSpec::sum(Expr::col(1).mul(Expr::col(1))),
            AggSpec::count(),
        ],
        &["key", "sum_v", "sum_sq", "cnt"],
    );
    let expected = reference_execute(&plan, engine.catalog()).unwrap();
    let wrapped: i64 = (0..20_000).fold(0i64, |acc, i| acc.wrapping_add(i64::MAX / 4 - i));
    assert_eq!(expected.iter().fold(0i64, |acc, row| acc.wrapping_add(row[1])), wrapped);

    for config in [EngineConfig::cpu_only(2), EngineConfig::gpu_only(2)] {
        let got = engine.session().execute(&plan, &config).unwrap();
        assert_eq!(got.rows, expected, "{:?}", config.target);
    }
}
