//! The plan rewriter: from a sequential physical plan to a heterogeneity-aware
//! plan.
//!
//! This reproduces the step-by-step construction of Figure 1: starting from a
//! device- and parallelism-agnostic plan (Figure 1a), the rewriter inserts
//!
//! 1. device-crossing operators where execution moves between CPUs and GPUs
//!    (Figure 1b),
//! 2. routers to establish the degree of parallelism per device type
//!    (Figure 1c),
//! 3. mem-move operators so every relational operator sees local data
//!    (Figure 1d), and
//! 4. pack/unpack operators to translate between block-granularity movement
//!    and tuple-granularity execution (Figure 1e).
//!
//! The paper leaves optimizer-driven placement as future work and inserts the
//! operators heuristically (§5); we do the same, parameterized by the
//! [`EngineConfig`]: CPU-only, GPU-only, or hybrid targets, with the configured
//! degrees of parallelism. Setting `hetexchange_enabled = false` reproduces the
//! "without HetExchange" single-device plans used in Figures 7 and 8 (no
//! routers, DOP 1).

use crate::plan::{DeviceTarget, HetNode, RelNode, RouterPolicy};
use hetex_common::config::ExecutionTarget;
use hetex_common::{EngineConfig, HetError, Result};

/// Degree-of-parallelism targets derived from an engine configuration.
fn targets_of(config: &EngineConfig) -> Vec<DeviceTarget> {
    let mut targets = Vec::new();
    match config.target {
        ExecutionTarget::CpuOnly => targets.push(DeviceTarget::cpu(config.cpu_dop.max(1))),
        ExecutionTarget::GpuOnly => targets.push(DeviceTarget::gpu(config.gpu_dop.max(1))),
        ExecutionTarget::Hybrid => {
            if config.cpu_dop > 0 {
                targets.push(DeviceTarget::cpu(config.cpu_dop));
            }
            if config.gpu_dop > 0 {
                targets.push(DeviceTarget::gpu(config.gpu_dop));
            }
        }
    }
    if targets.is_empty() {
        targets.push(DeviceTarget::cpu(1));
    }
    targets
}

/// True if any GPU participates in the main part of the plan.
fn uses_gpu(config: &EngineConfig) -> bool {
    matches!(config.target, ExecutionTarget::GpuOnly | ExecutionTarget::Hybrid)
        && config.gpu_dop > 0
}

/// Rewrite a sequential physical plan into a heterogeneity-aware plan.
pub fn parallelize(plan: &RelNode, config: &EngineConfig) -> Result<HetNode> {
    config.validate()?;
    let het = augment(plan, config, true)?;
    Ok(het)
}

fn augment(node: &RelNode, config: &EngineConfig, is_root: bool) -> Result<HetNode> {
    let het = match node {
        RelNode::Scan { table, projection } => scan_chain(table, projection, config, false),
        RelNode::Filter { input, predicate } => HetNode::Filter {
            input: Box::new(augment(input, config, false)?),
            predicate: predicate.clone(),
        },
        RelNode::Project { input, exprs, names } => HetNode::Project {
            input: Box::new(augment(input, config, false)?),
            exprs: exprs.clone(),
            names: names.clone(),
        },
        RelNode::HashJoin { build, probe, build_key, probe_key, payload } => HetNode::HashJoin {
            build: Box::new(augment_build_side(build, config)?),
            probe: Box::new(augment(probe, config, false)?),
            build_key: *build_key,
            probe_key: *probe_key,
            payload: payload.clone(),
        },
        RelNode::Reduce { input, aggs, names } => HetNode::Reduce {
            input: Box::new(augment(input, config, false)?),
            aggs: aggs.clone(),
            names: names.clone(),
        },
        RelNode::GroupBy { input, keys, aggs, names } => HetNode::GroupBy {
            input: Box::new(augment(input, config, false)?),
            keys: keys.clone(),
            aggs: aggs.clone(),
            names: names.clone(),
        },
    };

    // At the root, gather the per-device partial results into a single CPU
    // consumer: gpu2cpu brings GPU-side results back, and a union router
    // funnels every instance into one stream (pipelines 1-3 of Figure 2).
    if is_root && config.hetexchange_enabled {
        let mut gathered = het;
        if uses_gpu(config) {
            gathered = HetNode::Gpu2Cpu { input: Box::new(gathered) };
        }
        gathered = HetNode::Router {
            input: Box::new(gathered),
            policy: RouterPolicy::Union,
            targets: vec![DeviceTarget::cpu(1)],
        };
        return Ok(gathered);
    }
    Ok(het)
}

/// The chain that turns a base-table scan into local, unpacked tuples on the
/// participating devices: segmenter → router → mem-move → (cpu2gpu) → unpack.
fn scan_chain(
    table: &str,
    projection: &[String],
    config: &EngineConfig,
    build_side: bool,
) -> HetNode {
    let mut node = HetNode::Segmenter { table: table.to_string(), projection: projection.to_vec() };
    if config.hetexchange_enabled {
        let targets = if build_side {
            // Dimension (build) sides are small; parallelize them over CPU
            // cores only and broadcast the result to the GPUs afterwards.
            vec![DeviceTarget::cpu(config.cpu_dop.clamp(1, 8))]
        } else {
            targets_of(config)
        };
        node =
            HetNode::Router { input: Box::new(node), policy: RouterPolicy::LeastLoaded, targets };
    }
    node = HetNode::MemMove { input: Box::new(node), broadcast: false };
    if !build_side && uses_gpu(config) {
        node = HetNode::Cpu2Gpu { input: Box::new(node) };
    }
    HetNode::Unpack { input: Box::new(node) }
}

/// The build side of a join: scan and filter the dimension on the CPU, pack
/// the surviving tuples, broadcast them to every device that will probe, and
/// unpack into the hash-table build. A router above the packed dimension
/// parallelizes the build itself — multiple CPU pipeline instances insert
/// into the shared hash table concurrently, exactly like any other
/// router-encapsulated pipeline (a single-instance build would serialize the
/// whole query behind one core's random-access bandwidth).
fn augment_build_side(build: &RelNode, config: &EngineConfig) -> Result<HetNode> {
    let inner = augment_build_inner(build, config)?;
    let packed = HetNode::Pack { input: Box::new(inner) };
    let mut node = packed;
    if config.hetexchange_enabled {
        node = HetNode::Router {
            input: Box::new(node),
            policy: RouterPolicy::LeastLoaded,
            targets: vec![DeviceTarget::cpu(config.cpu_dop.clamp(1, 8))],
        };
    }
    let moved = HetNode::MemMove { input: Box::new(node), broadcast: uses_gpu(config) };
    Ok(HetNode::Unpack { input: Box::new(moved) })
}

fn augment_build_inner(node: &RelNode, config: &EngineConfig) -> Result<HetNode> {
    match node {
        RelNode::Scan { table, projection } => Ok(scan_chain(table, projection, config, true)),
        RelNode::Filter { input, predicate } => Ok(HetNode::Filter {
            input: Box::new(augment_build_inner(input, config)?),
            predicate: predicate.clone(),
        }),
        RelNode::Project { input, exprs, names } => Ok(HetNode::Project {
            input: Box::new(augment_build_inner(input, config)?),
            exprs: exprs.clone(),
            names: names.clone(),
        }),
        RelNode::HashJoin { build, probe, build_key, probe_key, payload } => {
            // Snowflake-shaped build sides (a dimension joined with another
            // dimension) are supported by recursing on both sides.
            Ok(HetNode::HashJoin {
                build: Box::new(augment_build_side(build, config)?),
                probe: Box::new(augment_build_inner(probe, config)?),
                build_key: *build_key,
                probe_key: *probe_key,
                payload: payload.clone(),
            })
        }
        RelNode::Reduce { .. } | RelNode::GroupBy { .. } => {
            Err(HetError::Plan("aggregations are not supported on the build side of a join".into()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::{check_relational_requirements, derive_traits};
    use hetex_jit::{AggSpec, Expr};

    fn sample_plan() -> RelNode {
        let dates = RelNode::scan("date", &["d_datekey", "d_year"])
            .filter(Expr::col(1).eq(Expr::lit(1993)));
        RelNode::scan("lineorder", &["lo_orderdate", "lo_discount", "lo_revenue"])
            .filter(Expr::col(1).between(1, 3))
            .hash_join(dates, 0, 0, &[1])
            .reduce(vec![AggSpec::sum(Expr::col(2))], &["revenue"])
    }

    #[test]
    fn hybrid_plan_contains_all_four_operator_families() {
        let config = EngineConfig::hybrid(24, 2);
        let het = parallelize(&sample_plan(), &config).unwrap();
        let text = het.explain();
        assert!(text.contains("router"), "{text}");
        assert!(text.contains("cpu2gpu"), "{text}");
        assert!(text.contains("gpu2cpu"), "{text}");
        assert!(text.contains("mem-move"), "{text}");
        assert!(text.contains("unpack"), "{text}");
        assert!(text.contains("pack"), "{text}");
        assert!(text.contains("segmenter lineorder"), "{text}");
        assert!(text.contains("segmenter date"), "{text}");
        // Both device types appear as router targets.
        assert!(text.contains("24xcpu"), "{text}");
        assert!(text.contains("2xgpu"), "{text}");
        // The dimension build side is broadcast.
        assert!(text.contains("mem-move (broadcast)"), "{text}");
        assert!(het.hetexchange_operator_count() >= 8);
    }

    #[test]
    fn relational_operators_always_get_local_unpacked_input() {
        for config in
            [EngineConfig::cpu_only(8), EngineConfig::gpu_only(2), EngineConfig::hybrid(16, 2)]
        {
            let het = parallelize(&sample_plan(), &config).unwrap();
            check_relational_requirements(&het).unwrap();
        }
    }

    #[test]
    fn cpu_only_plans_have_no_device_crossings() {
        let het = parallelize(&sample_plan(), &EngineConfig::cpu_only(16)).unwrap();
        let text = het.explain();
        assert!(!text.contains("cpu2gpu"));
        assert!(!text.contains("gpu2cpu"));
        assert!(!text.contains("broadcast"));
        let traits = derive_traits(&het);
        assert_eq!(traits.device, hetex_topology::DeviceKind::CpuCore);
    }

    #[test]
    fn gpu_only_plans_cross_into_the_gpu_and_back() {
        let het = parallelize(&sample_plan(), &EngineConfig::gpu_only(2)).unwrap();
        let text = het.explain();
        assert!(text.contains("cpu2gpu"));
        assert!(text.contains("gpu2cpu"));
        assert!(text.contains("2xgpu"));
        assert!(!text.contains("xcpu, "), "main router should target GPUs only: {text}");
    }

    #[test]
    fn disabling_hetexchange_removes_routers() {
        let mut config = EngineConfig::cpu_only(1);
        config.hetexchange_enabled = false;
        let het = parallelize(&sample_plan(), &config).unwrap();
        let text = het.explain();
        assert!(!text.contains("router"));
        // Data-flow conversions are still present: execution still needs
        // blocks unpacked and local.
        assert!(text.contains("unpack"));
        assert!(text.contains("mem-move"));
    }

    #[test]
    fn preserves_output_names_and_validates_config() {
        let het = parallelize(&sample_plan(), &EngineConfig::hybrid(4, 1)).unwrap();
        assert_eq!(het.output_names(), vec!["revenue"]);
        let bad = EngineConfig::cpu_only(0);
        assert!(parallelize(&sample_plan(), &bad).is_err());
    }

    #[test]
    fn aggregation_on_build_side_is_rejected() {
        let bad = RelNode::scan("fact", &["k"]).hash_join(
            RelNode::scan("dim", &["k"]).reduce(vec![AggSpec::count()], &["c"]),
            0,
            0,
            &[0],
        );
        assert!(parallelize(
            &bad.reduce(vec![AggSpec::count()], &["c"]),
            &EngineConfig::cpu_only(2)
        )
        .is_err());
    }
}
