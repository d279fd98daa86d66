//! Instrumented plan evaluation.
//!
//! Both baselines need the same two things: the exact query result and the
//! per-operator data volumes (how many rows survive the fact-side filters, how
//! many reach each join, how wide the intermediates are). [`profile_plan`]
//! gets both from one run of the engine's row interpreter
//! ([`hetex_engine::reference::evaluate`]), observing each node's output as it
//! is evaluated; it evaluates nothing itself. Volumes are physical; callers
//! scale them by the benchmark's `scale_weight` to model the nominal
//! SF100/SF1000 datasets.

use hetex_common::{DataType, EngineConfig, Result};
use hetex_core::RelNode;
use hetex_engine::reference::evaluate;
use hetex_jit::Expr;
use hetex_storage::Catalog;

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
    let mut profiler = Profiler {
        catalog,
        config,
        spine: spine(plan),
        last_rows: 0,
        profile: PlanProfile {
            spine_weight: 1.0,
            group_domain_product: 1.0,
            ..PlanProfile::default()
        },
    };
    let rows = evaluate(plan, catalog, &mut |node, rows| profiler.visit(node, rows))?;
    let mut profile = profiler.profile;
    profile.result_rows = rows.len() as f64;
    // Spine cardinalities were counted on the physical data; scale them to the
    // nominal fact-table size (selectivities are scale-invariant).
    profile.rows_after_filter *= profile.spine_weight;
    for r in &mut profile.rows_after_each_join {
        *r *= profile.spine_weight;
    }
    Ok((profile, rows))
}

/// The probe spine: the root and, below it, each node's input (a join's
/// probe side) down to the fact scan.
fn spine(plan: &RelNode) -> Vec<&RelNode> {
    let mut spine = vec![plan];
    let mut node = plan;
    loop {
        node = match node {
            RelNode::Scan { .. } => return spine,
            RelNode::Filter { input, .. }
            | RelNode::Project { input, .. }
            | RelNode::Reduce { input, .. }
            | RelNode::GroupBy { input, .. } => input,
            RelNode::HashJoin { probe, .. } => probe,
        };
        spine.push(node);
    }
}

/// The observer that fills a [`PlanProfile`] as the interpreter visits each
/// node, inputs first and a join's build side before its probe side.
struct Profiler<'a> {
    catalog: &'a Catalog,
    config: &'a EngineConfig,
    spine: Vec<&'a RelNode>,
    /// Output rows of the node visited last: at a join, its probe side's.
    last_rows: usize,
    profile: PlanProfile,
}

impl Profiler<'_> {
    fn visit(&mut self, node: &RelNode, rows: &[Vec<i64>]) -> Result<()> {
        let on_spine = self.spine.iter().any(|s| std::ptr::eq(*s, node));
        let profile = &mut self.profile;
        match node {
            RelNode::Scan { table, projection } => {
                let weight = self.config.weight_for(table);
                let table = self.catalog.get(table)?;
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
            }
            RelNode::Filter { .. } if on_spine => profile.rows_after_filter = rows.len() as f64,
            RelNode::Filter { input, predicate } => {
                detect_string_range(input, predicate, self.catalog, profile)
            }
            RelNode::Project { exprs, .. } if on_spine => {
                profile.spine_width = exprs.len();
                profile.spine_columns = vec![None; exprs.len()];
            }
            RelNode::HashJoin { build, payload, .. } if on_spine => {
                if profile.rows_after_filter == 0.0 {
                    // No explicit fact filter: every fact row reaches the first join.
                    profile.rows_after_filter = self.last_rows as f64;
                }
                profile.joins += 1;
                profile.rows_after_each_join.push(rows.len() as f64);
                profile.spine_width += payload.len();
                for &p in payload {
                    profile.spine_columns.push(source_column(build, p));
                }
            }
            RelNode::Reduce { .. } => profile.group_keys = 0,
            RelNode::GroupBy { keys, .. } => {
                profile.group_keys = keys.len();
                profile.group_domain_product = keys
                    .iter()
                    .map(|&k| {
                        profile
                            .spine_columns
                            .get(k)
                            .and_then(|s| s.as_ref())
                            .and_then(|(table, column)| {
                                self.catalog
                                    .get(table)
                                    .ok()
                                    .and_then(|t| t.dictionary(column))
                                    .map(|d| d.len() as f64)
                            })
                            .unwrap_or(8.0)
                    })
                    .product();
            }
            RelNode::Project { .. } | RelNode::HashJoin { .. } => {}
        }
        self.last_rows = rows.len();
        Ok(())
    }
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
    use hetex_jit::AggSpec;
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
}
