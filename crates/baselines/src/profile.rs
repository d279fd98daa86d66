//! Instrumented plan evaluation.
//!
//! Both baselines need the same two things: the exact query result and the
//! per-operator data volumes (how many rows survive the fact-side filters, how
//! many reach each join, how wide the intermediates are). [`profile_plan`]
//! computes both in a single pass: it is the reference evaluator with
//! cardinality instrumentation. Volumes are physical; callers scale them by
//! the benchmark's `scale_weight` to model the nominal SF100/SF1000 datasets.

use hetex_common::{DataType, EngineConfig, HetError, Result};
use hetex_core::RelNode;
use hetex_jit::ir::AggFunc;
use hetex_jit::state::JoinHashTable;
use hetex_jit::{AggSpec, Expr};
use hetex_storage::Catalog;
use std::collections::HashMap;

/// Per-operator volumes of one query execution.
#[derive(Debug, Clone, Default)]
pub struct PlanProfile {
    /// Physical bytes scanned from the fact (probe-spine) table.
    pub fact_bytes: f64,
    /// Physical rows of the fact table.
    pub fact_rows: f64,
    /// Physical bytes scanned from dimension (build-side) tables.
    pub dim_bytes: f64,
    /// Number of hash joins on the probe spine.
    pub joins: usize,
    /// Fact rows surviving the fact-local filters (before any join).
    pub rows_after_filter: f64,
    /// Rows surviving after each successive join (probe spine order).
    pub rows_after_each_join: Vec<f64>,
    /// Register width (columns) flowing into the aggregation.
    pub spine_width: usize,
    /// Rows of the final result.
    pub result_rows: f64,
    /// Number of group-by keys (0 for plain reductions).
    pub group_keys: usize,
    /// True if any dimension filter is a range predicate over a
    /// dictionary-encoded (string) column — the construct DBMS G cannot run.
    pub has_string_range_filter: bool,
    /// Scale weight of the fact (probe-spine) table.
    pub spine_weight: f64,
    /// Product of the full value domains (dictionary sizes) of the group-by
    /// keys — the cardinality a GPU engine must budget for when estimating its
    /// aggregation output (DBMS G's Q4.3 failure mode).
    pub group_domain_product: f64,
    /// Source (table, column) of each probe-spine output column, when it maps
    /// directly to a stored column.
    pub spine_columns: Vec<Option<(String, String)>>,
}

impl PlanProfile {
    /// Total rows probed across all joins (each surviving row probes the next
    /// join), used to price random accesses.
    pub fn total_probes(&self) -> f64 {
        let mut probes = 0.0;
        let mut current = self.rows_after_filter;
        for &after in &self.rows_after_each_join {
            probes += current;
            current = after;
        }
        probes
    }

    /// Rows reaching the aggregation.
    pub fn rows_into_aggregation(&self) -> f64 {
        self.rows_after_each_join.last().copied().unwrap_or(self.rows_after_filter)
    }
}

/// Evaluate `plan` exactly while recording per-operator volumes. Data volumes
/// are scaled by the per-table weights of `config` (the same weights the main
/// engine applies), so baseline cost models see the nominal data sizes.
pub fn profile_plan(
    plan: &RelNode,
    catalog: &Catalog,
    config: &EngineConfig,
) -> Result<(PlanProfile, Vec<Vec<i64>>)> {
    let mut profile =
        PlanProfile { spine_weight: 1.0, group_domain_product: 1.0, ..PlanProfile::default() };
    let rows = eval(plan, catalog, config, &mut profile, true)?;
    profile.result_rows = rows.len() as f64;
    // Spine cardinalities were counted on the physical data; scale them to the
    // nominal fact-table size (selectivities are scale-invariant).
    profile.rows_after_filter *= profile.spine_weight;
    for r in &mut profile.rows_after_each_join {
        *r *= profile.spine_weight;
    }
    Ok((profile, rows))
}

fn eval(
    node: &RelNode,
    catalog: &Catalog,
    config: &EngineConfig,
    profile: &mut PlanProfile,
    on_spine: bool,
) -> Result<Vec<Vec<i64>>> {
    match node {
        RelNode::Scan { table, projection } => {
            let weight = config.weight_for(table);
            let table = catalog.get(table)?;
            let projection_refs: Vec<&str> = projection.iter().map(String::as_str).collect();
            let bytes = table.projected_bytes(&projection_refs)? as f64 * weight;
            if on_spine {
                profile.fact_bytes += bytes;
                profile.fact_rows += table.rows() as f64 * weight;
                profile.spine_width = projection.len();
                profile.spine_weight = weight;
                profile.spine_columns = projection
                    .iter()
                    .map(|c| Some((table.name().to_string(), c.clone())))
                    .collect();
            } else {
                profile.dim_bytes += bytes;
            }
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
            let mut out = Vec::with_capacity(table.rows());
            for r in 0..table.rows() {
                out.push(columns.iter().map(|c| c.get_i64(r).unwrap_or(0)).collect());
            }
            Ok(out)
        }
        RelNode::Filter { input, predicate } => {
            if !on_spine {
                detect_string_range(input, predicate, catalog, profile);
            }
            let rows = eval(input, catalog, config, profile, on_spine)?;
            let out: Vec<Vec<i64>> = rows.into_iter().filter(|r| predicate.eval_bool(r)).collect();
            if on_spine {
                profile.rows_after_filter = out.len() as f64;
            }
            Ok(out)
        }
        RelNode::Project { input, exprs, .. } => {
            let rows = eval(input, catalog, config, profile, on_spine)?;
            if on_spine {
                profile.spine_width = exprs.len();
                profile.spine_columns = vec![None; exprs.len()];
            }
            Ok(rows.into_iter().map(|r| exprs.iter().map(|e| e.eval(&r)).collect()).collect())
        }
        RelNode::HashJoin { build, probe, build_key, probe_key, payload } => {
            let build_rows = eval(build, catalog, config, profile, false)?;
            let probe_rows = eval(probe, catalog, config, profile, on_spine)?;
            if on_spine && profile.rows_after_filter == 0.0 {
                // No explicit fact filter: every fact row reaches the first join.
                profile.rows_after_filter = probe_rows.len() as f64;
            }
            let table = JoinHashTable::new(payload.len());
            for row in build_rows {
                let key = row
                    .get(*build_key)
                    .copied()
                    .ok_or_else(|| HetError::Plan("build key out of range".into()))?;
                table.insert(key, payload.iter().map(|&p| row[p]).collect());
            }
            let mut out = Vec::new();
            for row in probe_rows {
                let key = row
                    .get(*probe_key)
                    .copied()
                    .ok_or_else(|| HetError::Plan("probe key out of range".into()))?;
                table.probe(key, |m| {
                    let mut joined = row.clone();
                    joined.extend_from_slice(m);
                    out.push(joined);
                });
            }
            if on_spine {
                profile.joins += 1;
                profile.rows_after_each_join.push(out.len() as f64);
                profile.spine_width += payload.len();
                for &p in payload {
                    profile.spine_columns.push(source_column(build, p));
                }
            }
            Ok(out)
        }
        RelNode::Reduce { input, aggs, .. } => {
            let rows = eval(input, catalog, config, profile, on_spine)?;
            profile.group_keys = 0;
            Ok(vec![aggregate(&rows, aggs)])
        }
        RelNode::GroupBy { input, keys, aggs, .. } => {
            let rows = eval(input, catalog, config, profile, on_spine)?;
            profile.group_keys = keys.len();
            profile.group_domain_product = keys
                .iter()
                .map(|&k| {
                    profile
                        .spine_columns
                        .get(k)
                        .and_then(|s| s.as_ref())
                        .and_then(|(table, column)| {
                            catalog
                                .get(table)
                                .ok()
                                .and_then(|t| t.dictionary(column))
                                .map(|d| d.len() as f64)
                        })
                        .unwrap_or(8.0)
                })
                .product();
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

/// The stored (table, column) a build-side output column maps to, if it is a
/// direct column reference (filters preserve columns; projections do not).
fn source_column(node: &RelNode, col: usize) -> Option<(String, String)> {
    match node {
        RelNode::Scan { table, projection } => {
            projection.get(col).map(|c| (table.clone(), c.clone()))
        }
        RelNode::Filter { input, .. } => source_column(input, col),
        _ => None,
    }
}

/// Mark the profile if a dimension filter contains a range predicate over a
/// dictionary-encoded column (Q2.2's `p_brand1 BETWEEN 'MFGR#2221' AND
/// 'MFGR#2228'`).
fn detect_string_range(
    input: &RelNode,
    predicate: &Expr,
    catalog: &Catalog,
    profile: &mut PlanProfile,
) {
    let RelNode::Scan { table, projection } = input else {
        return;
    };
    let Ok(table) = catalog.get(table) else {
        return;
    };
    let dict_columns: Vec<usize> = projection
        .iter()
        .enumerate()
        .filter(|(_, name)| {
            table.schema().field(name).map(|f| f.data_type == DataType::Dictionary).unwrap_or(false)
        })
        .map(|(i, _)| i)
        .collect();
    if expr_has_range_over(predicate, &dict_columns) {
        profile.has_string_range_filter = true;
    }
}

fn expr_has_range_over(expr: &Expr, dict_columns: &[usize]) -> bool {
    match expr {
        Expr::Between(inner, _, _) => matches!(**inner, Expr::Col(c) if dict_columns.contains(&c)),
        Expr::And(a, b) | Expr::Or(a, b) => {
            expr_has_range_over(a, dict_columns) || expr_has_range_over(b, dict_columns)
        }
        Expr::Not(a) => expr_has_range_over(a, dict_columns),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetex_common::{ColumnData, DictionaryBuilder, MemoryNodeId};
    use hetex_engine::reference_execute;
    use hetex_storage::TableBuilder;
    use std::sync::Arc;

    fn catalog() -> Catalog {
        let catalog = Catalog::new();
        let nodes = vec![MemoryNodeId::new(0)];
        let brand_dict = Arc::new(DictionaryBuilder::from_domain(["B1", "B2", "B3", "B4"]));
        catalog.register(
            TableBuilder::new("fact")
                .column(
                    "k",
                    DataType::Int32,
                    ColumnData::Int32((0..1000).map(|i| i % 10).collect()),
                )
                .column(
                    "m",
                    DataType::Int32,
                    ColumnData::Int32((0..1000).map(|i| i % 100).collect()),
                )
                .column("v", DataType::Int64, ColumnData::Int64((0..1000).collect()))
                .build(&nodes, 256)
                .unwrap(),
        );
        catalog.register(
            TableBuilder::new("dim")
                .column("id", DataType::Int32, ColumnData::Int32((0..10).collect()))
                .dict_column("brand", (0..10).map(|i| i % 4).collect(), brand_dict)
                .build(&nodes, 256)
                .unwrap(),
        );
        catalog
    }

    fn plan() -> RelNode {
        let dim = RelNode::scan("dim", &["id", "brand"]).filter(Expr::col(1).between(1, 2));
        RelNode::scan("fact", &["k", "m", "v"])
            .filter(Expr::col(1).lt_lit(50))
            .hash_join(dim, 0, 0, &[1])
            .group_by(&[3], vec![AggSpec::sum(Expr::col(2))], &["brand", "s"])
    }

    fn unit_config() -> EngineConfig {
        EngineConfig::default()
    }

    #[test]
    fn profile_matches_reference_result() {
        let catalog = catalog();
        let (profile, rows) = profile_plan(&plan(), &catalog, &unit_config()).unwrap();
        let expected = reference_execute(&plan(), &catalog).unwrap();
        assert_eq!(rows, expected);
        assert_eq!(profile.fact_rows, 1000.0);
        assert_eq!(profile.fact_bytes, 1000.0 * (4.0 + 4.0 + 8.0));
        assert!(profile.dim_bytes > 0.0);
        assert_eq!(profile.joins, 1);
        assert_eq!(profile.rows_after_filter, 500.0);
        // Brands 1 and 2 are matched by dim ids {1,2,5,6,9}: 5 of 10 keys.
        assert_eq!(profile.rows_after_each_join, vec![250.0]);
        assert_eq!(profile.group_keys, 1);
        assert_eq!(profile.result_rows, rows.len() as f64);
        assert!(profile.total_probes() > 0.0);
        assert_eq!(profile.rows_into_aggregation(), 250.0);
        // The range is over a dictionary column of the dimension.
        assert!(profile.has_string_range_filter);
    }

    #[test]
    fn integer_ranges_do_not_trigger_the_string_flag() {
        let catalog = catalog();
        let dim = RelNode::scan("dim", &["id", "brand"]).filter(Expr::col(0).between(1, 5));
        let plan = RelNode::scan("fact", &["k", "v"])
            .hash_join(dim, 0, 0, &[])
            .reduce(vec![AggSpec::count()], &["c"]);
        let (profile, rows) = profile_plan(&plan, &catalog, &unit_config()).unwrap();
        assert!(!profile.has_string_range_filter);
        assert_eq!(rows.len(), 1);
        // No explicit fact filter: all fact rows reach the join.
        assert_eq!(profile.rows_after_filter, 1000.0);
    }

    #[test]
    fn a_float_column_is_a_schema_error_not_zeros() {
        let catalog = catalog();
        catalog.register(
            TableBuilder::new("prices")
                .column("p", DataType::Float64, ColumnData::Float64(vec![0.5, 1.5]))
                .build(&[MemoryNodeId::new(0)], 256)
                .unwrap(),
        );
        let plan = RelNode::scan("prices", &["p"]).reduce(vec![AggSpec::sum(Expr::col(0))], &["s"]);
        match profile_plan(&plan, &catalog, &unit_config()) {
            Err(HetError::Schema(msg)) => assert!(msg.contains("prices.p"), "{msg}"),
            other => panic!("expected a schema error, got {other:?}"),
        }
    }
}
