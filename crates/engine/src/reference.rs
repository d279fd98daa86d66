//! A naive, single-threaded reference executor.
//!
//! Used only for validation: it evaluates a [`RelNode`] plan directly against
//! the catalog, materializing intermediate results row by row with no
//! parallelism, no blocks and no cost model. Integration tests compare every
//! engine configuration (CPU-only / GPU-only / hybrid) and both baseline
//! engines against this executor's output.

use hetex_common::{DataType, HetError, Result};
use hetex_core::RelNode;
use hetex_jit::ir::AggFunc;
use hetex_jit::{AggSpec, Expr};
use hetex_storage::Catalog;
use std::collections::HashMap;

/// Evaluate `plan` against `catalog`, returning fully materialized rows.
/// Group-by results are sorted by key (the same order the engine reports).
pub fn reference_execute(plan: &RelNode, catalog: &Catalog) -> Result<Vec<Vec<i64>>> {
    match plan {
        RelNode::Scan { table, projection } => {
            let table = catalog.get(table)?;
            let mut columns = Vec::new();
            for name in projection {
                let column = table.column(name)?;
                if column.data_type() == DataType::Float64 {
                    return Err(HetError::Schema(format!(
                        "column {}.{name} is Float64; plans evaluate integer columns only",
                        table.name()
                    )));
                }
                columns.push(column);
            }
            let rows = table.rows();
            let mut out = Vec::with_capacity(rows);
            for r in 0..rows {
                out.push(columns.iter().map(|c| c.get_i64(r).unwrap_or(0)).collect());
            }
            Ok(out)
        }
        RelNode::Filter { input, predicate } => {
            let rows = reference_execute(input, catalog)?;
            Ok(rows.into_iter().filter(|r| predicate.eval_bool(r)).collect())
        }
        RelNode::Project { input, exprs, .. } => {
            let rows = reference_execute(input, catalog)?;
            Ok(rows.into_iter().map(|r| exprs.iter().map(|e| e.eval(&r)).collect()).collect())
        }
        RelNode::HashJoin { build, probe, build_key, probe_key, payload } => {
            let build_rows = reference_execute(build, catalog)?;
            let probe_rows = reference_execute(probe, catalog)?;
            let mut table: HashMap<i64, Vec<Vec<i64>>> = HashMap::new();
            for row in build_rows {
                let key = *row.get(*build_key).ok_or_else(|| {
                    HetError::Plan(format!("build key column {build_key} out of range"))
                })?;
                let payload_row: Vec<i64> = payload.iter().map(|&p| row[p]).collect();
                table.entry(key).or_default().push(payload_row);
            }
            let mut out = Vec::new();
            for row in probe_rows {
                let key = *row.get(*probe_key).ok_or_else(|| {
                    HetError::Plan(format!("probe key column {probe_key} out of range"))
                })?;
                if let Some(matches) = table.get(&key) {
                    for m in matches {
                        let mut joined = row.clone();
                        joined.extend_from_slice(m);
                        out.push(joined);
                    }
                }
            }
            Ok(out)
        }
        RelNode::Reduce { input, aggs, .. } => {
            let rows = reference_execute(input, catalog)?;
            Ok(vec![aggregate(&rows, aggs)])
        }
        RelNode::GroupBy { input, keys, aggs, .. } => {
            let rows = reference_execute(input, catalog)?;
            let mut groups: HashMap<Vec<i64>, Vec<Vec<i64>>> = HashMap::new();
            for row in rows {
                let key: Vec<i64> = keys.iter().map(|&k| row[k]).collect();
                groups.entry(key).or_default().push(row);
            }
            let mut out: Vec<Vec<i64>> = groups
                .into_iter()
                .map(|(key, rows)| {
                    let mut row = key;
                    row.extend(aggregate(&rows, aggs));
                    row
                })
                .collect();
            out.sort();
            Ok(out)
        }
    }
}

/// Fold `rows` into one value per aggregate. Goes through the engine's own
/// [`Expr::eval`] and [`AggFunc::accumulate`], so overflow wraps here exactly
/// as it does in every lowering.
fn aggregate(rows: &[Vec<i64>], aggs: &[AggSpec]) -> Vec<i64> {
    aggs.iter()
        .map(|agg| {
            let mut acc = agg.func.identity();
            for row in rows {
                let value = match agg.func {
                    AggFunc::Count => 1,
                    _ => agg.expr.eval(row),
                };
                acc = agg.func.accumulate(acc, value);
            }
            acc
        })
        .collect()
}

/// Convenience: the sum query of the paper's running example, as a plan.
pub fn running_example_plan(
    table: &str,
    filter_col: &str,
    sum_col: &str,
    threshold: i64,
) -> RelNode {
    RelNode::scan(table, &[filter_col, sum_col])
        .filter(Expr::col(0).gt_lit(threshold))
        .reduce(vec![AggSpec::sum(Expr::col(1))], &["sum"])
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetex_common::{ColumnData, DataType, MemoryNodeId};
    use hetex_storage::TableBuilder;

    fn catalog() -> Catalog {
        let catalog = Catalog::new();
        let nodes = vec![MemoryNodeId::new(0)];
        catalog.register(
            TableBuilder::new("fact")
                .column("k", DataType::Int32, ColumnData::Int32(vec![1, 2, 3, 2, 1, 9]))
                .column("v", DataType::Int64, ColumnData::Int64(vec![10, 20, 30, 40, 50, 60]))
                .build(&nodes, 4)
                .unwrap(),
        );
        catalog.register(
            TableBuilder::new("dim")
                .column("id", DataType::Int32, ColumnData::Int32(vec![1, 2, 3]))
                .column("tag", DataType::Int32, ColumnData::Int32(vec![100, 200, 300]))
                .build(&nodes, 4)
                .unwrap(),
        );
        catalog
    }

    #[test]
    fn scan_filter_reduce() {
        let plan = running_example_plan("fact", "k", "v", 1);
        let rows = reference_execute(&plan, &catalog()).unwrap();
        // k > 1 rows: (2,20),(3,30),(2,40),(9,60) -> 150
        assert_eq!(rows, vec![vec![150]]);
    }

    #[test]
    fn join_and_group_by() {
        let dim = RelNode::scan("dim", &["id", "tag"]);
        let plan = RelNode::scan("fact", &["k", "v"]).hash_join(dim, 0, 0, &[1]).group_by(
            &[2],
            vec![AggSpec::sum(Expr::col(1)), AggSpec::count()],
            &["tag", "s", "c"],
        );
        let rows = reference_execute(&plan, &catalog()).unwrap();
        // tag 100: k=1 rows v=10,50 -> 60/2 ; tag 200: v=20,40 -> 60/2 ; tag 300: v=30 -> 30/1
        assert_eq!(rows, vec![vec![100, 60, 2], vec![200, 60, 2], vec![300, 30, 1]]);
    }

    #[test]
    fn projection_and_min_max() {
        let plan = RelNode::Project {
            input: Box::new(RelNode::scan("fact", &["k", "v"])),
            exprs: vec![Expr::col(1).mul(Expr::lit(2))],
            names: vec!["v2".into()],
        }
        .reduce(vec![AggSpec::min(Expr::col(0)), AggSpec::max(Expr::col(0))], &["min", "max"]);
        let rows = reference_execute(&plan, &catalog()).unwrap();
        assert_eq!(rows, vec![vec![20, 120]]);
    }

    #[test]
    fn a_float_column_is_a_schema_error_naming_it() {
        let catalog = catalog();
        catalog.register(
            TableBuilder::new("prices")
                .column("id", DataType::Int64, ColumnData::Int64(vec![1, 2]))
                .column("price", DataType::Float64, ColumnData::Float64(vec![1.5, 2.5]))
                .build(&[MemoryNodeId::new(0)], 4)
                .unwrap(),
        );
        let plan = RelNode::scan("prices", &["id", "price"])
            .reduce(vec![AggSpec::sum(Expr::col(1))], &["total"]);
        match reference_execute(&plan, &catalog) {
            Err(HetError::Schema(msg)) => assert!(msg.contains("prices.price"), "{msg}"),
            other => panic!("expected a schema error, got {other:?}"),
        }
        let ints = RelNode::scan("prices", &["id"]).reduce(vec![AggSpec::count()], &["n"]);
        assert_eq!(reference_execute(&ints, &catalog).unwrap(), vec![vec![2]]);
    }

    #[test]
    fn bad_column_index_errors() {
        let dim = RelNode::scan("dim", &["id"]);
        let plan = RelNode::scan("fact", &["k"]).hash_join(dim, 5, 0, &[0]);
        assert!(reference_execute(&plan, &catalog()).is_err());
        assert!(reference_execute(&RelNode::scan("missing", &["x"]), &catalog()).is_err());
    }
}
