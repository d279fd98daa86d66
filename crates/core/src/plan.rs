//! Plan representations.
//!
//! [`RelNode`] is the *device-agnostic physical plan* a conventional optimizer
//! produces (Figure 1a / 2a): scans, filters, projections, hash joins and
//! aggregations, with no notion of devices, parallelism or data movement.
//!
//! [`HetNode`] is the *heterogeneity-aware plan* (Figure 1e / 2b): the same
//! relational operators plus the four HetExchange operator families —
//! `router`, the device-crossing pair `cpu2gpu`/`gpu2cpu`, `mem-move`, and
//! `pack`/`unpack` — inserted by the [`crate::parallelizer`].
//!
//! Columns are positional: every node's output is an ordered list of named
//! columns, and expressions reference their input node's columns by index.
//! [`RelNode::output_names`] / [`HetNode::output_names`] give the mapping that
//! query authors (the SSB crate) use to resolve names to indexes.

use hetex_jit::{AggSpec, Expr};
use hetex_topology::DeviceKind;
use std::fmt;

/// Routing policies of the router operator (§3.1). The paper's hash policy
/// is not among them: it routes blocks a hash-pack tagged, and no plan here
/// hash-packs (DESIGN.md §12, "No hash exchange").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouterPolicy {
    /// Round-robin / range partitioning of blocks over consumers.
    RoundRobin,
    /// Route each block to the currently least-loaded consumer; this is the
    /// load-balancing behaviour the hybrid plans rely on.
    LeastLoaded,
    /// Route by the block's broadcast-target tag (set by a multicasting
    /// mem-move).
    Target,
    /// Merge the outputs of many producers into a single consumer.
    Union,
}

impl fmt::Display for RouterPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RouterPolicy::RoundRobin => "round-robin",
            RouterPolicy::LeastLoaded => "least-loaded",
            RouterPolicy::Target => "target",
            RouterPolicy::Union => "union",
        };
        f.write_str(s)
    }
}

/// One group of consumer instances a router fans out to: a device kind and
/// the number of instances on that kind. A hybrid router has one target per
/// device type — the "multiple parents" of §3.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceTarget {
    /// The device type of the instances.
    pub kind: DeviceKind,
    /// How many instances are created on that device type.
    pub dop: usize,
}

impl DeviceTarget {
    /// `dop` CPU-core instances.
    pub fn cpu(dop: usize) -> Self {
        Self { kind: DeviceKind::CpuCore, dop }
    }

    /// `dop` GPU instances.
    pub fn gpu(dop: usize) -> Self {
        Self { kind: DeviceKind::Gpu, dop }
    }
}

/// The device-agnostic physical plan.
#[derive(Debug, Clone, PartialEq)]
pub enum RelNode {
    /// Sequential scan of a loaded table, reading only `projection`.
    Scan { table: String, projection: Vec<String> },
    /// Filter by a predicate over the input's columns.
    Filter { input: Box<RelNode>, predicate: Expr },
    /// Projection / derived columns.
    Project { input: Box<RelNode>, exprs: Vec<Expr>, names: Vec<String> },
    /// Hash equi-join. `build_key`/`probe_key` index the respective inputs'
    /// columns; `payload` lists build-side columns appended to probe tuples.
    HashJoin {
        build: Box<RelNode>,
        probe: Box<RelNode>,
        build_key: usize,
        probe_key: usize,
        payload: Vec<usize>,
    },
    /// Ungrouped aggregation producing exactly one row.
    Reduce { input: Box<RelNode>, aggs: Vec<AggSpec>, names: Vec<String> },
    /// Grouped aggregation.
    GroupBy { input: Box<RelNode>, keys: Vec<usize>, aggs: Vec<AggSpec>, names: Vec<String> },
}

impl RelNode {
    /// Convenience constructor for a scan.
    pub fn scan(table: impl Into<String>, projection: &[&str]) -> RelNode {
        RelNode::Scan {
            table: table.into(),
            projection: projection.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// Wrap this node in a filter.
    pub fn filter(self, predicate: Expr) -> RelNode {
        RelNode::Filter { input: Box::new(self), predicate }
    }

    /// Join this node (as probe side) with a build side.
    pub fn hash_join(
        self,
        build: RelNode,
        probe_key: usize,
        build_key: usize,
        payload: &[usize],
    ) -> RelNode {
        RelNode::HashJoin {
            build: Box::new(build),
            probe: Box::new(self),
            build_key,
            probe_key,
            payload: payload.to_vec(),
        }
    }

    /// Reduce this node to a single aggregated row.
    pub fn reduce(self, aggs: Vec<AggSpec>, names: &[&str]) -> RelNode {
        RelNode::Reduce {
            input: Box::new(self),
            aggs,
            names: names.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// Group this node by key columns.
    pub fn group_by(self, keys: &[usize], aggs: Vec<AggSpec>, names: &[&str]) -> RelNode {
        RelNode::GroupBy {
            input: Box::new(self),
            keys: keys.to_vec(),
            aggs,
            names: names.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// Names of this node's output columns, in order.
    pub fn output_names(&self) -> Vec<String> {
        match self {
            RelNode::Scan { projection, .. } => projection.clone(),
            RelNode::Filter { input, .. } => input.output_names(),
            RelNode::Project { names, .. } => names.clone(),
            RelNode::HashJoin { build, probe, payload, .. } => {
                let mut names = probe.output_names();
                let build_names = build.output_names();
                for &p in payload {
                    names
                        .push(build_names.get(p).cloned().unwrap_or_else(|| format!("payload{p}")));
                }
                names
            }
            RelNode::Reduce { names, .. } | RelNode::GroupBy { names, .. } => names.clone(),
        }
    }

    /// Number of output columns.
    pub fn output_width(&self) -> usize {
        match self {
            RelNode::GroupBy { keys, aggs, .. } => keys.len() + aggs.len(),
            RelNode::Reduce { aggs, .. } => aggs.len(),
            _ => self.output_names().len(),
        }
    }

    /// Index of an output column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.output_names().iter().position(|n| n == name)
    }

    /// Number of relational operators in the plan (for tests and EXPLAIN).
    pub fn node_count(&self) -> usize {
        1 + match self {
            RelNode::Scan { .. } => 0,
            RelNode::Filter { input, .. }
            | RelNode::Project { input, .. }
            | RelNode::Reduce { input, .. }
            | RelNode::GroupBy { input, .. } => input.node_count(),
            RelNode::HashJoin { build, probe, .. } => build.node_count() + probe.node_count(),
        }
    }

    /// Render an indented EXPLAIN-style representation.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(&mut out, 0);
        out
    }

    fn explain_into(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth);
        match self {
            RelNode::Scan { table, projection } => {
                out.push_str(&format!("{pad}scan {table} [{}]\n", projection.join(", ")));
            }
            RelNode::Filter { input, .. } => {
                out.push_str(&format!("{pad}filter\n"));
                input.explain_into(out, depth + 1);
            }
            RelNode::Project { input, names, .. } => {
                out.push_str(&format!("{pad}project [{}]\n", names.join(", ")));
                input.explain_into(out, depth + 1);
            }
            RelNode::HashJoin { build, probe, .. } => {
                out.push_str(&format!("{pad}hash-join\n"));
                out.push_str(&format!("{pad}  build:\n"));
                build.explain_into(out, depth + 2);
                out.push_str(&format!("{pad}  probe:\n"));
                probe.explain_into(out, depth + 2);
            }
            RelNode::Reduce { input, names, .. } => {
                out.push_str(&format!("{pad}reduce [{}]\n", names.join(", ")));
                input.explain_into(out, depth + 1);
            }
            RelNode::GroupBy { input, names, .. } => {
                out.push_str(&format!("{pad}group-by [{}]\n", names.join(", ")));
                input.explain_into(out, depth + 1);
            }
        }
    }
}

/// The heterogeneity-aware plan: relational operators plus HetExchange
/// converters.
#[derive(Debug, Clone, PartialEq)]
pub enum HetNode {
    /// The single-threaded leaf that cuts a table into block-shaped partitions.
    Segmenter {
        table: String,
        projection: Vec<String>,
    },
    /// Control-flow: parallelism encapsulation.
    Router {
        input: Box<HetNode>,
        policy: RouterPolicy,
        targets: Vec<DeviceTarget>,
    },
    /// Control-flow: CPU → GPU crossing (kernel launches).
    Cpu2Gpu {
        input: Box<HetNode>,
    },
    /// Control-flow: GPU → CPU crossing (asynchronous queue + CPU-side part).
    Gpu2Cpu {
        input: Box<HetNode>,
    },
    /// Data-flow: make blocks local to their consumer, possibly broadcasting.
    MemMove {
        input: Box<HetNode>,
        broadcast: bool,
    },
    /// Data-flow: group tuples into blocks.
    Pack {
        input: Box<HetNode>,
    },
    /// Data-flow: feed a block's tuples one at a time to the next operator.
    Unpack {
        input: Box<HetNode>,
    },
    /// Relational operators (same semantics as in [`RelNode`]).
    Filter {
        input: Box<HetNode>,
        predicate: Expr,
    },
    Project {
        input: Box<HetNode>,
        exprs: Vec<Expr>,
        names: Vec<String>,
    },
    HashJoin {
        build: Box<HetNode>,
        probe: Box<HetNode>,
        build_key: usize,
        probe_key: usize,
        payload: Vec<usize>,
    },
    Reduce {
        input: Box<HetNode>,
        aggs: Vec<AggSpec>,
        names: Vec<String>,
    },
    GroupBy {
        input: Box<HetNode>,
        keys: Vec<usize>,
        aggs: Vec<AggSpec>,
        names: Vec<String>,
    },
}

impl HetNode {
    /// The input of a single-input node.
    pub fn input(&self) -> Option<&HetNode> {
        match self {
            HetNode::Segmenter { .. } => None,
            HetNode::Router { input, .. }
            | HetNode::Cpu2Gpu { input }
            | HetNode::Gpu2Cpu { input }
            | HetNode::MemMove { input, .. }
            | HetNode::Pack { input, .. }
            | HetNode::Unpack { input }
            | HetNode::Filter { input, .. }
            | HetNode::Project { input, .. }
            | HetNode::Reduce { input, .. }
            | HetNode::GroupBy { input, .. } => Some(input),
            HetNode::HashJoin { probe, .. } => Some(probe),
        }
    }

    /// Names of this node's output columns.
    pub fn output_names(&self) -> Vec<String> {
        match self {
            HetNode::Segmenter { projection, .. } => projection.clone(),
            HetNode::Project { names, .. } => names.clone(),
            HetNode::HashJoin { build, probe, payload, .. } => {
                let mut names = probe.output_names();
                let build_names = build.output_names();
                for &p in payload {
                    names
                        .push(build_names.get(p).cloned().unwrap_or_else(|| format!("payload{p}")));
                }
                names
            }
            HetNode::Reduce { names, .. } | HetNode::GroupBy { names, .. } => names.clone(),
            other => other.input().map(|i| i.output_names()).unwrap_or_default(),
        }
    }

    /// Count of HetExchange operators (router, device crossings, mem-move,
    /// pack/unpack) in the plan — the quantity Figure 1 grows step by step.
    pub fn hetexchange_operator_count(&self) -> usize {
        let own = matches!(
            self,
            HetNode::Router { .. }
                | HetNode::Cpu2Gpu { .. }
                | HetNode::Gpu2Cpu { .. }
                | HetNode::MemMove { .. }
                | HetNode::Pack { .. }
                | HetNode::Unpack { .. }
        ) as usize;
        let children = match self {
            HetNode::HashJoin { build, probe, .. } => {
                build.hetexchange_operator_count() + probe.hetexchange_operator_count()
            }
            other => other.input().map_or(0, HetNode::hetexchange_operator_count),
        };
        own + children
    }

    /// Total number of plan nodes.
    pub fn node_count(&self) -> usize {
        1 + match self {
            HetNode::HashJoin { build, probe, .. } => build.node_count() + probe.node_count(),
            other => other.input().map_or(0, HetNode::node_count),
        }
    }

    /// Render an indented EXPLAIN-style representation.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(&mut out, 0);
        out
    }

    fn explain_into(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth);
        match self {
            HetNode::Segmenter { table, projection } => {
                out.push_str(&format!("{pad}segmenter {table} [{}]\n", projection.join(", ")));
            }
            HetNode::Router { input, policy, targets } => {
                let targets: Vec<String> =
                    targets.iter().map(|t| format!("{}x{}", t.dop, t.kind)).collect();
                out.push_str(&format!(
                    "{pad}router policy={policy} targets=[{}]\n",
                    targets.join(", ")
                ));
                input.explain_into(out, depth + 1);
            }
            HetNode::Cpu2Gpu { input } => {
                out.push_str(&format!("{pad}cpu2gpu\n"));
                input.explain_into(out, depth + 1);
            }
            HetNode::Gpu2Cpu { input } => {
                out.push_str(&format!("{pad}gpu2cpu\n"));
                input.explain_into(out, depth + 1);
            }
            HetNode::MemMove { input, broadcast } => {
                out.push_str(&format!(
                    "{pad}mem-move{}\n",
                    if *broadcast { " (broadcast)" } else { "" }
                ));
                input.explain_into(out, depth + 1);
            }
            HetNode::Pack { input } => {
                out.push_str(&format!("{pad}pack\n"));
                input.explain_into(out, depth + 1);
            }
            HetNode::Unpack { input } => {
                out.push_str(&format!("{pad}unpack\n"));
                input.explain_into(out, depth + 1);
            }
            HetNode::Filter { input, .. } => {
                out.push_str(&format!("{pad}filter\n"));
                input.explain_into(out, depth + 1);
            }
            HetNode::Project { input, names, .. } => {
                out.push_str(&format!("{pad}project [{}]\n", names.join(", ")));
                input.explain_into(out, depth + 1);
            }
            HetNode::HashJoin { build, probe, .. } => {
                out.push_str(&format!("{pad}hash-join\n"));
                out.push_str(&format!("{pad}  build:\n"));
                build.explain_into(out, depth + 2);
                out.push_str(&format!("{pad}  probe:\n"));
                probe.explain_into(out, depth + 2);
            }
            HetNode::Reduce { input, names, .. } => {
                out.push_str(&format!("{pad}reduce [{}]\n", names.join(", ")));
                input.explain_into(out, depth + 1);
            }
            HetNode::GroupBy { input, names, .. } => {
                out.push_str(&format!("{pad}group-by [{}]\n", names.join(", ")));
                input.explain_into(out, depth + 1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetex_jit::Expr;

    fn sample_rel_plan() -> RelNode {
        // SELECT SUM(lo_revenue) FROM lineorder, date
        // WHERE lo_orderdate = d_datekey AND d_year = 1993 AND lo_discount BETWEEN 1 AND 3
        let dates = RelNode::scan("date", &["d_datekey", "d_year"])
            .filter(Expr::col(1).eq(Expr::lit(1993)));
        RelNode::scan("lineorder", &["lo_orderdate", "lo_discount", "lo_revenue"])
            .filter(Expr::col(1).between(1, 3))
            .hash_join(dates, 0, 0, &[1])
            .reduce(vec![hetex_jit::AggSpec::sum(Expr::col(2))], &["revenue"])
    }

    #[test]
    fn rel_output_names_follow_operators() {
        let scan = RelNode::scan("lineorder", &["lo_orderdate", "lo_revenue"]);
        assert_eq!(scan.output_names(), vec!["lo_orderdate", "lo_revenue"]);
        assert_eq!(scan.column_index("lo_revenue"), Some(1));
        assert_eq!(scan.column_index("missing"), None);

        let plan = sample_rel_plan();
        assert_eq!(plan.output_names(), vec!["revenue"]);
        assert_eq!(plan.output_width(), 1);
        assert_eq!(plan.node_count(), 6);

        // Join output = probe columns ++ payload columns.
        if let RelNode::Reduce { input, .. } = &plan {
            let join_names = input.output_names();
            assert_eq!(join_names, vec!["lo_orderdate", "lo_discount", "lo_revenue", "d_year"]);
        } else {
            panic!("expected reduce at root");
        }
    }

    #[test]
    fn explain_renders_tree_shape() {
        let text = sample_rel_plan().explain();
        assert!(text.contains("reduce [revenue]"));
        assert!(text.contains("hash-join"));
        assert!(text.contains("scan lineorder"));
        assert!(text.contains("scan date"));
        // Build side appears before probe side.
        assert!(text.find("build:").unwrap() < text.find("probe:").unwrap());
    }

    #[test]
    fn het_plan_counts_hetexchange_operators() {
        let plan = HetNode::Reduce {
            input: Box::new(HetNode::Unpack {
                input: Box::new(HetNode::Cpu2Gpu {
                    input: Box::new(HetNode::MemMove {
                        input: Box::new(HetNode::Router {
                            input: Box::new(HetNode::Segmenter {
                                table: "t".into(),
                                projection: vec!["a".into(), "b".into()],
                            }),
                            policy: RouterPolicy::LeastLoaded,
                            targets: vec![DeviceTarget::cpu(4), DeviceTarget::gpu(2)],
                        }),
                        broadcast: false,
                    }),
                }),
            }),
            aggs: vec![hetex_jit::AggSpec::count()],
            names: vec!["cnt".into()],
        };
        assert_eq!(plan.hetexchange_operator_count(), 4);
        assert_eq!(plan.node_count(), 6);
        assert_eq!(plan.output_names(), vec!["cnt"]);
        let text = plan.explain();
        assert!(text.contains("router policy=least-loaded targets=[4xcpu, 2xgpu]"));
        assert!(text.contains("cpu2gpu"));
        assert!(text.contains("mem-move"));
        assert!(text.contains("segmenter t"));
    }

    #[test]
    fn device_target_constructors() {
        assert_eq!(DeviceTarget::cpu(8).kind, DeviceKind::CpuCore);
        assert_eq!(DeviceTarget::gpu(2).dop, 2);
        assert_eq!(RouterPolicy::Target.to_string(), "target");
        assert_eq!(RouterPolicy::Union.to_string(), "union");
    }
}
