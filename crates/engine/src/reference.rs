//! The row interpreter: the workspace's one evaluator of [`RelNode`] plans.
//!
//! It evaluates a plan directly against the catalog, materialising each
//! node's output as rows of `i64`, with no blocks, no parallelism and no cost
//! model. Integration tests and the benchmark check every engine
//! configuration against [`reference_execute`], and `hetex-baselines`
//! measures the volumes its modelled systems are priced by through
//! [`evaluate`]'s observer. It shares no code with the engine: it matches on
//! the plan, expression and aggregate enums and implements their meaning
//! below itself, so a defect in a lowering, a hash table or the engine's tree
//! walker cannot hide in the oracle as well.
//!
//! # Semantics
//!
//! * **Scans.** Every value is an `i64`. A scan reads each projected column
//!   with `get_i64`, so a dictionary column yields its codes.
//! * **Arithmetic.** `+`, `−` and `×` wrap. `x / 0` is 0, and
//!   `i64::MIN / −1` wraps.
//! * **Predicates.** Comparisons, `AND`, `OR`, `NOT`, inclusive `BETWEEN` and
//!   `IN` give 0 or 1. A filter keeps the rows whose predicate is not 0.
//! * **Aggregates.** `SUM` and `COUNT` wrap. A reduce over no rows returns
//!   the identities: 0 for `SUM` and `COUNT`, `i64::MAX` for `MIN` and
//!   `i64::MIN` for `MAX`. A group-by over no rows returns no rows.
//! * **Row order.** A join emits its probe rows in input order, each followed
//!   by its matches in build order; a joined row is the probe row followed by
//!   the match's payload columns. A group-by emits one row per group, its
//!   keys then its aggregates, in key order.
//! * **Errors.** A missing table or column, or a join key outside its row, is
//!   an error.
//!
//! # The observer
//!
//! [`evaluate`] calls its observer once per node, with the node and its
//! output rows, after the node's inputs: a join's build side, then its probe
//! side, then the join itself.

use hetex_common::{HetError, Result};
use hetex_core::RelNode;
use hetex_jit::ir::AggFunc;
use hetex_jit::{AggSpec, Expr};
use hetex_storage::Catalog;
use std::collections::BTreeMap;

/// What [`evaluate`] calls with each node and its output rows.
pub type Observer<'a> = dyn FnMut(&RelNode, &[Vec<i64>]) -> Result<()> + 'a;

/// Evaluate `plan` against `catalog`, returning fully materialized rows in
/// the order the module's semantics give (group-by results by key, the order
/// the engine reports).
pub fn reference_execute(plan: &RelNode, catalog: &Catalog) -> Result<Vec<Vec<i64>>> {
    evaluate(plan, catalog, &mut |_, _| Ok(()))
}

/// [`reference_execute`], calling `observe` with each node and its output
/// rows as the node is evaluated; an error from `observe` ends the
/// evaluation.
pub fn evaluate(
    plan: &RelNode,
    catalog: &Catalog,
    observe: &mut Observer<'_>,
) -> Result<Vec<Vec<i64>>> {
    let rows = match plan {
        RelNode::Scan { table, projection } => {
            let table = catalog.get(table)?;
            let columns =
                projection.iter().map(|name| table.column(name)).collect::<Result<Vec<_>>>()?;
            (0..table.rows())
                .map(|r| columns.iter().map(|c| c.get_i64(r).unwrap_or(0)).collect())
                .collect()
        }
        RelNode::Filter { input, predicate } => {
            let mut rows = evaluate(input, catalog, observe)?;
            rows.retain(|row| eval(predicate, row) != 0);
            rows
        }
        RelNode::Project { input, exprs, .. } => evaluate(input, catalog, observe)?
            .iter()
            .map(|row| exprs.iter().map(|e| eval(e, row)).collect())
            .collect(),
        RelNode::HashJoin { build, probe, build_key, probe_key, payload } => {
            let build_rows = evaluate(build, catalog, observe)?;
            let probe_rows = evaluate(probe, catalog, observe)?;
            // Build rows sorted by key; the sort is stable, so each key's
            // matches stay in build order.
            let mut table = build_rows
                .iter()
                .map(|row| {
                    Ok((
                        key_of(row, *build_key, "build")?,
                        payload.iter().map(|&p| row[p]).collect(),
                    ))
                })
                .collect::<Result<Vec<(i64, Vec<i64>)>>>()?;
            table.sort_by_key(|(key, _)| *key);
            let mut out = Vec::new();
            for row in &probe_rows {
                let key = key_of(row, *probe_key, "probe")?;
                let first = table.partition_point(|(k, _)| *k < key);
                for (_, m) in table[first..].iter().take_while(|(k, _)| *k == key) {
                    let mut joined = Vec::with_capacity(row.len() + m.len());
                    joined.extend_from_slice(row);
                    joined.extend_from_slice(m);
                    out.push(joined);
                }
            }
            out
        }
        RelNode::Reduce { input, aggs, .. } => {
            let mut acc = identities(aggs);
            for row in &evaluate(input, catalog, observe)? {
                fold(aggs, &mut acc, row);
            }
            vec![acc]
        }
        RelNode::GroupBy { input, keys, aggs, .. } => {
            let mut groups: BTreeMap<Vec<i64>, Vec<i64>> = BTreeMap::new();
            let mut key = Vec::with_capacity(keys.len());
            for row in &evaluate(input, catalog, observe)? {
                key.clear();
                key.extend(keys.iter().map(|&k| row[k]));
                match groups.get_mut(key.as_slice()) {
                    Some(acc) => fold(aggs, acc, row),
                    None => {
                        let mut acc = identities(aggs);
                        fold(aggs, &mut acc, row);
                        groups.insert(key.clone(), acc);
                    }
                }
            }
            groups
                .into_iter()
                .map(|(mut row, acc)| {
                    row.extend(acc);
                    row
                })
                .collect()
        }
    };
    observe(plan, &rows)?;
    Ok(rows)
}

/// Column `index` of `row`: a join's key.
fn key_of(row: &[i64], index: usize, side: &str) -> Result<i64> {
    row.get(index)
        .copied()
        .ok_or_else(|| HetError::Plan(format!("{side} key column {index} out of range")))
}

/// `expr` over `row`.
fn eval(expr: &Expr, row: &[i64]) -> i64 {
    match expr {
        Expr::Col(i) => row[*i],
        Expr::Lit(v) => *v,
        Expr::Add(a, b) => eval(a, row).wrapping_add(eval(b, row)),
        Expr::Sub(a, b) => eval(a, row).wrapping_sub(eval(b, row)),
        Expr::Mul(a, b) => eval(a, row).wrapping_mul(eval(b, row)),
        Expr::Div(a, b) => match eval(b, row) {
            0 => 0,
            y => eval(a, row).wrapping_div(y),
        },
        Expr::Eq(a, b) => (eval(a, row) == eval(b, row)) as i64,
        Expr::Ne(a, b) => (eval(a, row) != eval(b, row)) as i64,
        Expr::Lt(a, b) => (eval(a, row) < eval(b, row)) as i64,
        Expr::Le(a, b) => (eval(a, row) <= eval(b, row)) as i64,
        Expr::Gt(a, b) => (eval(a, row) > eval(b, row)) as i64,
        Expr::Ge(a, b) => (eval(a, row) >= eval(b, row)) as i64,
        Expr::And(a, b) => (eval(a, row) != 0 && eval(b, row) != 0) as i64,
        Expr::Or(a, b) => (eval(a, row) != 0 || eval(b, row) != 0) as i64,
        Expr::Not(a) => (eval(a, row) == 0) as i64,
        Expr::Between(a, lo, hi) => (*lo..=*hi).contains(&eval(a, row)) as i64,
        Expr::InList(a, list) => list.contains(&eval(a, row)) as i64,
    }
}

/// Each aggregate's value over no rows.
fn identities(aggs: &[AggSpec]) -> Vec<i64> {
    aggs.iter()
        .map(|agg| match agg.func {
            AggFunc::Sum | AggFunc::Count => 0,
            AggFunc::Min => i64::MAX,
            AggFunc::Max => i64::MIN,
        })
        .collect()
}

/// Fold `row` into one accumulator per aggregate.
fn fold(aggs: &[AggSpec], acc: &mut [i64], row: &[i64]) {
    for (acc, agg) in acc.iter_mut().zip(aggs) {
        *acc = match agg.func {
            AggFunc::Sum => acc.wrapping_add(eval(&agg.expr, row)),
            AggFunc::Count => acc.wrapping_add(1),
            AggFunc::Min => (*acc).min(eval(&agg.expr, row)),
            AggFunc::Max => (*acc).max(eval(&agg.expr, row)),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetex_common::{ColumnData, DataType, MemoryNodeId};
    use hetex_jit::ScratchPool;
    use hetex_storage::TableBuilder;
    use proptest::TestRng;

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

    /// A binary expression's constructor.
    type Binary = fn(Box<Expr>, Box<Expr>) -> Expr;

    fn bin(f: Binary, a: Expr, b: Expr) -> Expr {
        f(Box::new(a), Box::new(b))
    }

    #[test]
    fn scan_filter_reduce() {
        let plan = RelNode::scan("fact", &["k", "v"])
            .filter(Expr::col(0).gt_lit(1))
            .reduce(vec![AggSpec::sum(Expr::col(1))], &["sum"]);
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
    fn bad_column_index_errors() {
        let dim = RelNode::scan("dim", &["id"]);
        let plan = RelNode::scan("fact", &["k"]).hash_join(dim, 5, 0, &[0]);
        assert!(reference_execute(&plan, &catalog()).is_err());
        assert!(reference_execute(&RelNode::scan("missing", &["x"]), &catalog()).is_err());
    }

    #[test]
    fn an_empty_build_side_joins_nothing_and_reduces_to_the_identities() {
        let dim = RelNode::scan("dim", &["id", "tag"]).filter(Expr::col(0).gt_lit(99));
        let joined = RelNode::scan("fact", &["k", "v"]).hash_join(dim, 0, 0, &[1]);
        assert!(reference_execute(&joined, &catalog()).unwrap().is_empty());
        let aggs = || {
            vec![
                AggSpec::sum(Expr::col(1)),
                AggSpec::count(),
                AggSpec::min(Expr::col(1)),
                AggSpec::max(Expr::col(1)),
            ]
        };
        let reduced = joined.clone().reduce(aggs(), &["s", "c", "lo", "hi"]);
        assert_eq!(
            reference_execute(&reduced, &catalog()).unwrap(),
            vec![vec![0, 0, i64::MAX, i64::MIN]]
        );
        let grouped = joined.group_by(&[0], aggs(), &["k", "s", "c", "lo", "hi"]);
        assert!(reference_execute(&grouped, &catalog()).unwrap().is_empty());
    }

    #[test]
    fn duplicate_build_keys_fan_out_in_build_order_after_each_probe_row() {
        let catalog = catalog();
        catalog.register(
            TableBuilder::new("multi")
                .column("id", DataType::Int32, ColumnData::Int32(vec![2, 1, 2, 7, 2]))
                .column("tag", DataType::Int32, ColumnData::Int32(vec![5, 6, 7, 8, 9]))
                .build(&[MemoryNodeId::new(0)], 2)
                .unwrap(),
        );
        let plan = RelNode::scan("fact", &["k", "v"]).hash_join(
            RelNode::scan("multi", &["id", "tag"]),
            0,
            0,
            &[1, 0],
        );
        assert_eq!(
            reference_execute(&plan, &catalog).unwrap(),
            vec![
                vec![1, 10, 6, 1],
                vec![2, 20, 5, 2],
                vec![2, 20, 7, 2],
                vec![2, 20, 9, 2],
                vec![2, 40, 5, 2],
                vec![2, 40, 7, 2],
                vec![2, 40, 9, 2],
                vec![1, 50, 6, 1],
            ]
        );
    }

    #[test]
    fn group_by_one_to_three_keys_emits_groups_in_key_order() {
        let catalog = Catalog::new();
        catalog.register(
            TableBuilder::new("t")
                .column("a", DataType::Int32, ColumnData::Int32(vec![2, 1, 2, 1, 2, -3]))
                .column("b", DataType::Int64, ColumnData::Int64(vec![0, 5, 0, 4, 1, 9]))
                .column("c", DataType::Int32, ColumnData::Int32(vec![7, 7, 7, 7, 8, 7]))
                .column("v", DataType::Int64, ColumnData::Int64(vec![1, 2, 3, 4, 5, 6]))
                .build(&[MemoryNodeId::new(0)], 4)
                .unwrap(),
        );
        let run = |keys: &[usize]| {
            let names: Vec<&str> = ["k1", "k2", "k3"][..keys.len()].to_vec();
            let names = [names, vec!["s", "n"]].concat();
            let plan = RelNode::scan("t", &["a", "b", "c", "v"]).group_by(
                keys,
                vec![AggSpec::sum(Expr::col(3)), AggSpec::count()],
                &names,
            );
            reference_execute(&plan, &catalog).unwrap()
        };
        assert_eq!(run(&[0]), vec![vec![-3, 6, 1], vec![1, 6, 2], vec![2, 9, 3]]);
        assert_eq!(
            run(&[2, 0]),
            vec![vec![7, -3, 6, 1], vec![7, 1, 6, 2], vec![7, 2, 4, 2], vec![8, 2, 5, 1]]
        );
        assert_eq!(
            run(&[0, 1, 2]),
            vec![
                vec![-3, 9, 7, 6, 1],
                vec![1, 4, 7, 4, 1],
                vec![1, 5, 7, 2, 1],
                vec![2, 0, 7, 4, 2],
                vec![2, 1, 8, 5, 1],
            ]
        );
    }

    #[test]
    fn division_by_zero_is_zero_and_the_one_overflowing_quotient_wraps() {
        let div = |x, y| eval(&bin(Expr::Div, Expr::col(0), Expr::col(1)), &[x, y]);
        assert_eq!(div(7, 0), 0);
        assert_eq!(div(i64::MIN, 0), 0);
        assert_eq!(div(i64::MIN, -1), i64::MIN);
        assert_eq!(div(-7, 2), -3);
        assert_eq!(eval(&bin(Expr::Add, Expr::lit(i64::MAX), Expr::lit(1)), &[]), i64::MIN);
        // The same through a plan: a sum that wraps, and a zero divisor.
        let plan = RelNode::Project {
            input: Box::new(RelNode::scan("fact", &["k", "v"])),
            exprs: vec![bin(Expr::Div, Expr::col(1), Expr::col(0).sub(Expr::col(0)))],
            names: vec!["q".into()],
        }
        .reduce(vec![AggSpec::sum(Expr::col(0)), AggSpec::count()], &["s", "n"]);
        assert_eq!(reference_execute(&plan, &catalog()).unwrap(), vec![vec![0, 6]]);
    }

    #[test]
    fn the_observer_sees_every_node_once_build_side_first() {
        let dim = RelNode::scan("dim", &["id", "tag"]).filter(Expr::col(0).lt_lit(3));
        let plan = RelNode::scan("fact", &["k", "v"])
            .hash_join(dim, 0, 0, &[1])
            .reduce(vec![AggSpec::count()], &["c"]);
        let mut seen = Vec::new();
        let rows = evaluate(&plan, &catalog(), &mut |node, rows| {
            let kind = match node {
                RelNode::Scan { table, .. } => table.as_str(),
                RelNode::Filter { .. } => "filter",
                RelNode::HashJoin { .. } => "join",
                RelNode::Reduce { .. } => "reduce",
                _ => "other",
            };
            seen.push(format!("{kind} {}", rows.len()));
            Ok(())
        })
        .unwrap();
        assert_eq!(rows, vec![vec![4]]);
        assert_eq!(seen, ["dim 3", "filter 2", "fact 6", "join 4", "reduce 1"]);
        let stop = evaluate(&plan, &catalog(), &mut |_, _| Err(HetError::Plan("stop".into())));
        assert!(stop.is_err());
    }

    /// Registers a generated expression reads: zero, ±1, the `i32` and `i64`
    /// edges and their neighbours, and random values.
    fn register(rng: &mut TestRng) -> i64 {
        const EDGES: [i64; 11] = [
            0,
            1,
            -1,
            i32::MAX as i64,
            i32::MIN as i64,
            i32::MAX as i64 + 1,
            i32::MIN as i64 - 1,
            i64::MAX,
            i64::MIN,
            i64::MAX - 1,
            i64::MIN + 1,
        ];
        match rng.below(3) {
            0 => EDGES[rng.below(EDGES.len() as u64) as usize],
            1 => rng.below(21) as i64 - 10,
            _ => rng.next_u64() as i64,
        }
    }

    /// A random expression of depth at most `depth` over `width` registers,
    /// of every variant; literals are drawn like registers.
    fn expr(rng: &mut TestRng, depth: u32, width: usize) -> Expr {
        let leaf = depth == 0 || rng.below(4) == 0;
        if leaf {
            return match rng.below(2) {
                0 => Expr::col(rng.below(width as u64) as usize),
                _ => Expr::lit(register(rng)),
            };
        }
        const BINARY: [Binary; 12] = [
            Expr::Add,
            Expr::Sub,
            Expr::Mul,
            Expr::Div,
            Expr::Eq,
            Expr::Ne,
            Expr::Lt,
            Expr::Le,
            Expr::Gt,
            Expr::Ge,
            Expr::And,
            Expr::Or,
        ];
        let op = rng.below(BINARY.len() as u64 + 3) as usize;
        let a = Box::new(expr(rng, depth - 1, width));
        match op.checked_sub(BINARY.len()) {
            None => BINARY[op](a, Box::new(expr(rng, depth - 1, width))),
            Some(0) => Expr::Not(a),
            Some(1) => {
                let (lo, hi) = (register(rng), register(rng));
                Expr::Between(a, lo.min(hi), lo.max(hi))
            }
            _ => Expr::InList(a, (0..rng.below(4)).map(|_| register(rng)).collect()),
        }
    }

    /// Generated-case budget: `HETEX_KERNEL_CASES` cases (default 24).
    fn cases() -> u32 {
        std::env::var("HETEX_KERNEL_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(24)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(cases()))]

        /// The row interpreter's scalar semantics equal the engine's
        /// production tree walker, `Expr::eval_batch`, lane by lane: random
        /// trees of every variant, depth at most 4, over registers at the
        /// `i32` and `i64` edges, zero, ±1 and random values, evaluated over
        /// a sparse selection.
        #[test]
        fn scalar_semantics_match_the_engine_tree_walker(seed in 0u64..u64::MAX) {
            let mut rng = TestRng::new(seed);
            let width = 1 + rng.below(4) as usize;
            let lanes = 48;
            let cols: Vec<Vec<i64>> =
                (0..width).map(|_| (0..lanes).map(|_| register(&mut rng)).collect()).collect();
            let sel: Vec<u32> = (0..lanes as u32).filter(|_| rng.below(4) != 0).collect();
            let mut pool = ScratchPool::new();
            let mut out = Vec::new();
            for _ in 0..32 {
                let e = expr(&mut rng, 4, width);
                e.eval_batch(&cols, &sel, &mut out, &mut pool);
                proptest::prop_assert_eq!(out.len(), sel.len());
                for (lane, &r) in sel.iter().enumerate() {
                    let row: Vec<i64> = cols.iter().map(|c| c[r as usize]).collect();
                    proptest::prop_assert_eq!(
                        eval(&e, &row), out[lane], "seed {} {:?} on {:?}", seed, e, row
                    );
                }
            }
        }
    }
}
