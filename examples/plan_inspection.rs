//! Inspect how HetExchange rewrites a plan and how the execution contexts of
//! a CPU core and a GPU — the device providers — specialize one pipeline
//! (Figures 1-3 and Table 1).
//!
//! Run with: `cargo run --release --example plan_inspection`

use hetexchange::common::{EngineConfig, MemoryNodeId, PipelineId};
use hetexchange::core_ops::traits::{check_relational_requirements, derive_traits};
use hetexchange::core_ops::{parallelize, RelNode};
use hetexchange::gpu_sim::device::standalone_gpu;
use hetexchange::jit::{AggSpec, CompiledPipeline, ExecCtx, Expr, StateSlot, Step, TerminalStep};
use hetexchange::topology::DeviceKind;
use std::sync::Arc;

fn main() -> hetexchange::common::Result<()> {
    // The running example: an aggregation over a filtered join.
    let dates =
        RelNode::scan("date", &["d_datekey", "d_year"]).filter(Expr::col(1).eq(Expr::lit(1993)));
    let plan = RelNode::scan("lineorder", &["lo_orderdate", "lo_discount", "lo_revenue"])
        .filter(Expr::col(1).between(1, 3))
        .hash_join(dates, 0, 0, &[1])
        .reduce(vec![AggSpec::sum(Expr::col(2))], &["revenue"]);

    println!("== sequential physical plan (Figure 1a) ==\n{}", plan.explain());

    for (label, config) in [
        ("CPU-only, 24 cores", EngineConfig::cpu_only(24)),
        ("GPU-only, 2 GPUs", EngineConfig::gpu_only(2)),
        ("hybrid, 24 cores + 2 GPUs", EngineConfig::hybrid(24, 2)),
    ] {
        let het = parallelize(&plan, &config)?;
        check_relational_requirements(&het)?;
        let traits = derive_traits(&het);
        println!("== heterogeneity-aware plan: {label} ==");
        println!("{}", het.explain());
        println!(
            "output traits: device={}, dop={}, local={}, packed={}  ({} HetExchange operators)\n",
            traits.device,
            traits.dop,
            traits.local,
            traits.packed,
            het.hetexchange_operator_count()
        );
    }

    // Table 1 / Figure 3: one pipeline, specialized by each device's context.
    let pipeline = CompiledPipeline::new(
        PipelineId::new(9),
        DeviceKind::CpuCore,
        2,
        vec![Step::Filter { predicate: Expr::col(0).gt_lit(42) }],
        TerminalStep::Reduce { aggs: vec![AggSpec::sum(Expr::col(1))], slot: StateSlot(0) },
    )?;
    let cpu = ExecCtx::cpu(MemoryNodeId::new(0), 1024);
    let gpu = ExecCtx::gpu(Arc::new(standalone_gpu()), 1024);
    for (label, ctx) in [("CPU", &cpu), ("GPU", &gpu)] {
        println!("== convertToMachineCode on the {label} context ==\n{}", pipeline.explain(ctx));
    }
    Ok(())
}
