//! One harness per figure/table of the paper's evaluation.
//!
//! Each function builds the workload, runs every (query, system) combination
//! of the corresponding figure, prints the matrix and returns the rows so
//! tests (and EXPERIMENTS.md) can check the *shape* of the result: who wins,
//! by roughly what factor, and where the crossovers are.

use crate::micro::{MicroQuery, MicroWorkload, PAPER_PROBE_BYTES};
use crate::report::{print_matrix, speedup_summary, QueryTimeRow};
use crate::systems::{run_query, System};
use crate::workload::SsbWorkload;
use hetex_common::{EngineConfig, MemoryNodeId, PipelineId, Result};
use hetex_gpu_sim::device::standalone_gpu;
use hetex_jit::{AggSpec, CompiledPipeline, ExecCtx, Expr, StateSlot, Step, TerminalStep};
use std::sync::Arc;

/// A regenerated figure: its title and every measured point.
#[derive(Debug)]
pub struct Figure {
    /// Title used when printing.
    pub title: String,
    /// Every (label, series, value) measurement.
    pub rows: Vec<QueryTimeRow>,
}

impl Figure {
    /// The measurement for a (query, system) pair, if present and successful.
    pub fn seconds(&self, query: &str, system: &str) -> Option<f64> {
        self.rows.iter().find(|r| r.query == query && r.system == system).and_then(|r| r.seconds)
    }
}

// ----------------------------------------------------------------- Figure 4

/// Figure 4: SSB with GPU-fitting working sets (nominal SF100), data resident
/// in GPU memory for the GPU systems.
pub fn figure4(physical_sf: f64) -> Result<Figure> {
    let workload = SsbWorkload::build(physical_sf, 100.0, true)?;
    let mut rows = Vec::new();
    for query in &workload.queries {
        for system in System::figure4_lineup() {
            rows.push(run_query(&workload, system, query, true));
        }
    }
    let text_rows = rows.clone();
    print_matrix("Figure 4: SSB SF100, GPU-resident working sets (seconds)", &rows);
    if let Some((geo, max)) = speedup_summary(&text_rows, "DBMS G", "Proteus GPUs") {
        println!("Proteus GPUs vs DBMS G: geo-mean {geo:.2}x, max {max:.2}x (paper: up to 10.8x)");
    }
    if let Some((geo, max)) = speedup_summary(&text_rows, "DBMS C", "Proteus CPUs") {
        println!("Proteus CPUs vs DBMS C: geo-mean {geo:.2}x, max {max:.2}x (paper: up to 2x)");
    }
    Ok(Figure { title: "Figure 4".into(), rows })
}

// ----------------------------------------------------------------- Figure 5

/// Figure 5: SSB with non-GPU-fitting working sets (nominal SF1000),
/// pre-loaded in CPU memory for every system.
pub fn figure5(physical_sf: f64) -> Result<Figure> {
    let workload = SsbWorkload::build(physical_sf, 1000.0, false)?;
    let mut rows = Vec::new();
    for query in &workload.queries {
        for system in System::figure5_lineup() {
            rows.push(run_query(&workload, system, query, false));
        }
    }
    print_matrix("Figure 5: SSB SF1000, CPU-resident working sets (seconds)", &rows);

    // §6.2: "On average, Proteus Hybrid throughput is 88.5% of the sum of the
    // throughputs of Proteus CPU and Proteus GPU."
    let mut ratios = Vec::new();
    for query in &workload.queries {
        let ws = workload.nominal_working_set(query)?;
        let get = |system: &str| {
            rows.iter()
                .find(|r| r.query == query.name && r.system == system)
                .and_then(|r| r.seconds)
        };
        if let (Some(c), Some(g), Some(h)) =
            (get("Proteus CPUs"), get("Proteus GPUs"), get("Proteus Hybrid"))
        {
            let tp = |seconds: f64| ws / seconds / 1e9;
            ratios.push(tp(h) / (tp(c) + tp(g)));
        }
    }
    if !ratios.is_empty() {
        let avg = ratios.iter().sum::<f64>() / ratios.len() as f64;
        println!(
            "Proteus Hybrid throughput / (CPU + GPU throughput): {:.1}% (paper: 88.5%)",
            avg * 100.0
        );
    }
    if let Some((geo, max)) = speedup_summary(&rows, "DBMS C", "Proteus Hybrid") {
        println!("Proteus Hybrid vs DBMS C: geo-mean {geo:.2}x, max {max:.2}x (paper: 1.5-5.1x)");
    }
    if let Some((geo, max)) = speedup_summary(&rows, "DBMS G", "Proteus Hybrid") {
        println!("Proteus Hybrid vs DBMS G: geo-mean {geo:.2}x, max {max:.2}x (paper: 3.4-11.4x)");
    }
    Ok(Figure { title: "Figure 5".into(), rows })
}

// ----------------------------------------------------------------- Figure 6

/// Figure 6: scalability of Proteus on SSB SF1000 — speed-up of each query
/// group over single-threaded CPU execution, as CPU cores are added, with and
/// without the two GPUs.
pub fn figure6(physical_sf: f64, core_counts: &[usize]) -> Result<Figure> {
    let workload = SsbWorkload::build(physical_sf, 1000.0, false)?;
    let groups = [1usize, 2, 3, 4];

    let group_time = |config: EngineConfig, group: usize| -> Result<f64> {
        let mut total = 0.0;
        for query in workload.queries.iter().filter(|q| q.group == group) {
            total += workload
                .engine_cpu_data
                .session()
                .execute(&query.plan, &workload.config(config.clone()))?
                .seconds();
        }
        Ok(total)
    };

    let mut rows = Vec::new();
    for &group in &groups {
        let sequential = group_time(EngineConfig::cpu_only(1), group)?;
        for &gpus in &[0usize, 2] {
            let series = if gpus == 0 { "No GPUs".to_string() } else { "2 GPUs".to_string() };
            for &cores in core_counts {
                if cores == 0 && gpus == 0 {
                    continue;
                }
                let config = match (cores, gpus) {
                    (0, g) => EngineConfig::gpu_only(g),
                    (c, 0) => EngineConfig::cpu_only(c),
                    (c, g) => EngineConfig::hybrid(c, g),
                };
                let time = group_time(config, group)?;
                rows.push(QueryTimeRow {
                    query: format!("group {group} @ {cores} cores"),
                    system: series.clone(),
                    seconds: Some(sequential / time),
                    note: None,
                });
            }
        }
    }
    print_matrix("Figure 6: Proteus scalability on SSB SF1000 (speed-up over 1 CPU core)", &rows);
    Ok(Figure { title: "Figure 6".into(), rows })
}

// ----------------------------------------------------------------- Figure 7

/// Figure 7: microbenchmark scale-up — the sum and join queries across CPU
/// core counts and 0/1/2 GPUs, plus the "without HetExchange" single-device
/// baselines, reported as speed-up over 1 CPU core without HetExchange.
pub fn figure7(probe_rows: usize, core_counts: &[usize]) -> Result<Figure> {
    let workload = MicroWorkload::build(probe_rows)?;
    let nominal = PAPER_PROBE_BYTES;
    let mut rows = Vec::new();

    for query in [MicroQuery::Sum, MicroQuery::Join] {
        // Baselines without HetExchange (dashed lines in the paper).
        let mut no_hetex_cpu = EngineConfig::cpu_only(1);
        no_hetex_cpu.hetexchange_enabled = false;
        let base_cpu = workload.run(query, no_hetex_cpu, nominal)?;
        let mut no_hetex_gpu = EngineConfig::gpu_only(1);
        no_hetex_gpu.hetexchange_enabled = false;
        let base_gpu = workload.run(query, no_hetex_gpu, nominal)?;
        rows.push(QueryTimeRow {
            query: format!("{} w/o HetExchange 1 CPU", query.label()),
            system: "baseline".into(),
            seconds: Some(1.0),
            note: None,
        });
        rows.push(QueryTimeRow {
            query: format!("{} w/o HetExchange 1 GPU", query.label()),
            system: "baseline".into(),
            seconds: Some(base_cpu / base_gpu),
            note: None,
        });

        for &gpus in &[0usize, 1, 2] {
            let series = format!("{} GPUs", gpus);
            for &cores in core_counts {
                if cores == 0 && gpus == 0 {
                    continue;
                }
                let config = match (cores, gpus) {
                    (0, g) => EngineConfig::gpu_only(g),
                    (c, 0) => EngineConfig::cpu_only(c),
                    (c, g) => EngineConfig::hybrid(c, g),
                };
                let time = workload.run(query, config, nominal)?;
                rows.push(QueryTimeRow {
                    query: format!("{} @ {cores} cores", query.label()),
                    system: series.clone(),
                    seconds: Some(base_cpu / time),
                    note: None,
                });
            }
        }
    }
    print_matrix(
        "Figure 7: microbenchmark scale-up (speed-up over 1 CPU core without HetExchange)",
        &rows,
    );
    Ok(Figure { title: "Figure 7".into(), rows })
}

// ----------------------------------------------------------------- Figure 8

/// Figure 8: microbenchmark size-up at DOP = 1 — execution time of the sum and
/// join queries with and without the HetExchange operators, over input sizes.
pub fn figure8(probe_rows: usize, sizes_gb: &[f64]) -> Result<Figure> {
    let workload = MicroWorkload::build(probe_rows)?;
    let mut rows = Vec::new();
    for query in [MicroQuery::Sum, MicroQuery::Join] {
        for &(device, label) in &[(false, "CPU"), (true, "GPU")] {
            for &with_hetex in &[true, false] {
                let series = format!(
                    "1 {label} {}",
                    if with_hetex { "with HetExchange" } else { "without HetExchange" }
                );
                for &gb in sizes_gb {
                    let mut config =
                        if device { EngineConfig::gpu_only(1) } else { EngineConfig::cpu_only(1) };
                    config.hetexchange_enabled = with_hetex;
                    let time = workload.run(query, config, gb * 1e9)?;
                    rows.push(QueryTimeRow {
                        query: format!("{} {gb} GB", query.label()),
                        system: series.clone(),
                        seconds: Some(time),
                        note: None,
                    });
                }
            }
        }
    }
    print_matrix("Figure 8: microbenchmark size-up at DOP=1 (seconds)", &rows);
    Ok(Figure { title: "Figure 8".into(), rows })
}

// ------------------------------------------------------------------ Table 1

/// Table 1: the device-provider interface, and how the execution contexts
/// of a CPU core and a GPU — the providers instances run through — specialize
/// one pipeline (Figure 3 / Listing 1).
pub fn table1() -> String {
    let methods = [
        ("allocStateVar", "get/releaseBuffer", "#threadsInWorker"),
        ("freeStateVar", "malloc/free", "threadIdInWorker"),
        ("storeStateVar", "convertToMachineCode", "loadMachineCode"),
        ("loadStateVar", "workerScopedAtomic<T, Op>", ""),
    ];
    let mut out = String::new();
    out.push_str("== Table 1: functions overloaded in device providers, per device ==\n");
    for (a, b, c) in methods {
        out.push_str(&format!("{a:<16}{b:<28}{c}\n"));
    }

    // The same pipeline, specialized by each device's context (Figure 3).
    let pipeline = CompiledPipeline::new(
        PipelineId::new(9),
        hetex_topology::DeviceKind::CpuCore,
        2,
        vec![Step::Filter { predicate: Expr::col(0).gt_lit(42) }],
        TerminalStep::Reduce { aggs: vec![AggSpec::sum(Expr::col(1))], slot: StateSlot(0) },
    )
    .expect("valid pipeline");
    let cpu = ExecCtx::cpu(MemoryNodeId::new(0), 1024);
    let gpu = ExecCtx::gpu(Arc::new(standalone_gpu()), 1024);
    for (label, ctx) in [("CPU", &cpu), ("GPU", &gpu)] {
        out.push_str(&format!("\n-- convertToMachineCode on the {label} context --\n"));
        out.push_str(&pipeline.explain(ctx));
    }
    println!("{out}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEST_SF: f64 = 0.002;

    #[test]
    fn figure4_shapes_match_the_paper() {
        let fig = figure4(TEST_SF).unwrap();
        // 13 queries x 4 systems.
        assert_eq!(fig.rows.len(), 13 * 4);
        // With GPU-resident working sets, GPUs beat CPUs (Q1.1) and Proteus
        // GPU is at least as fast as DBMS G.
        let gpu = fig.seconds("Q1.1", "Proteus GPUs").unwrap();
        let cpu = fig.seconds("Q1.1", "Proteus CPUs").unwrap();
        let dbms_g = fig.seconds("Q1.1", "DBMS G").unwrap();
        let dbms_c = fig.seconds("Q1.1", "DBMS C").unwrap();
        assert!(gpu < cpu, "GPU {gpu} should beat CPU {cpu} at SF100");
        assert!(gpu <= dbms_g, "Proteus GPU {gpu} should not lose to DBMS G {dbms_g}");
        // The two CPU systems land in the same ballpark (the paper shows them
        // within ~1.5x of each other on the single-join flight).
        assert!(
            cpu <= dbms_c * 1.6,
            "Proteus CPU {cpu} should be competitive with DBMS C {dbms_c}"
        );
        assert!(
            dbms_c <= cpu * 1.6,
            "DBMS C {dbms_c} should be competitive with Proteus CPU {cpu}"
        );
        // DBMS G cannot run Q2.2.
        assert!(fig.seconds("Q2.2", "DBMS G").is_none());
        assert!(fig.seconds("Q2.2", "Proteus GPUs").is_some());
    }

    #[test]
    fn figure5_hybrid_wins_and_q1_is_cpu_friendly() {
        let fig = figure5(TEST_SF).unwrap();
        assert_eq!(fig.rows.len(), 13 * 5);
        for query in ["Q1.1", "Q2.1", "Q3.1", "Q4.1", "Q4.3"] {
            let hybrid = fig.seconds(query, "Proteus Hybrid").unwrap();
            let cpu = fig.seconds(query, "Proteus CPUs").unwrap();
            if let Some(gpu) = fig.seconds(query, "Proteus GPUs") {
                assert!(
                    hybrid <= gpu * 1.05,
                    "{query}: hybrid {hybrid} should not lose to GPU-only {gpu}"
                );
            }
            assert!(
                hybrid <= cpu * 1.05,
                "{query}: hybrid {hybrid} should not lose to CPU-only {cpu}"
            );
        }
        // PCIe-bound GPUs lose to CPUs on the single-join flight (§6.2).
        let cpu = fig.seconds("Q1.1", "Proteus CPUs").unwrap();
        let gpu = fig.seconds("Q1.1", "Proteus GPUs").unwrap();
        assert!(cpu < gpu, "Q1.1 at SF1000: CPU {cpu} should beat PCIe-bound GPU {gpu}");
        // DBMS G fails Q2.2 and Q4.3 at SF1000.
        assert!(fig.seconds("Q2.2", "DBMS G").is_none());
        assert!(fig.seconds("Q4.3", "DBMS G").is_none());
        assert!(fig.seconds("Q4.3", "Proteus Hybrid").is_some());
    }

    #[test]
    fn figure6_scales_with_cores_and_gpus() {
        let fig = figure6(TEST_SF, &[1, 8]).unwrap();
        let one = fig.seconds("group 1 @ 1 cores", "No GPUs").unwrap();
        let eight = fig.seconds("group 1 @ 8 cores", "No GPUs").unwrap();
        assert!((one - 1.0).abs() < 0.2, "1 core is the baseline, got {one}");
        assert!(eight > 3.0, "8 cores should speed group 1 up >3x, got {eight}");
        let with_gpus = fig.seconds("group 2 @ 8 cores", "2 GPUs").unwrap();
        let without = fig.seconds("group 2 @ 8 cores", "No GPUs").unwrap();
        assert!(
            with_gpus > without,
            "adding GPUs should increase group 2 speed-up ({with_gpus} vs {without})"
        );
    }

    #[test]
    fn figure7_sum_saturates_and_join_loves_gpus() {
        let fig = figure7(30_000, &[1, 16, 24]).unwrap();
        let s16 = fig.seconds("sum @ 16 cores", "0 GPUs").unwrap();
        let s24 = fig.seconds("sum @ 24 cores", "0 GPUs").unwrap();
        assert!(s16 > 8.0, "sum should scale well to 16 cores, got {s16}");
        assert!(s24 < s16 * 1.3, "sum saturates past 16 cores ({s16} -> {s24})");
        let join_gpu = fig.seconds("join @ 1 cores", "2 GPUs").unwrap();
        let join_cpu = fig.seconds("join @ 1 cores", "0 GPUs").unwrap();
        assert!(
            join_gpu > 3.0 * join_cpu,
            "two GPUs should dominate the join microbenchmark ({join_gpu} vs {join_cpu})"
        );
        // The dashed no-HetExchange baselines exist.
        assert!(fig.seconds("sum w/o HetExchange 1 CPU", "baseline").is_some());
        assert!(fig.seconds("join w/o HetExchange 1 GPU", "baseline").is_some());
    }

    #[test]
    fn figure8_overhead_shrinks_with_input_size() {
        let fig = figure8(20_000, &[0.125, 8.0]).unwrap();
        let with_small = fig.seconds("sum 0.125 GB", "1 CPU with HetExchange").unwrap();
        let without_small = fig.seconds("sum 0.125 GB", "1 CPU without HetExchange").unwrap();
        let with_big = fig.seconds("sum 8 GB", "1 CPU with HetExchange").unwrap();
        let without_big = fig.seconds("sum 8 GB", "1 CPU without HetExchange").unwrap();
        let small_ratio = with_small / without_small;
        let big_ratio = with_big / without_big;
        assert!(small_ratio > big_ratio, "overhead must be relatively larger for small inputs");
        assert!(big_ratio < 1.15, "overhead is amortized for large inputs, got {big_ratio}");
    }

    #[test]
    fn table1_lists_the_provider_surface() {
        let text = table1();
        assert!(text.contains("allocStateVar"));
        assert!(text.contains("workerScopedAtomic"));
        // The live contexts' values, not fixed strings.
        let gpu = hetex_gpu_sim::LaunchConfig::default_for_device();
        let threads = gpu.total_threads();
        assert!(text.contains("#threadsInWorker = 1, threadIdInWorker in 0..1"));
        assert!(text.contains(&format!("#threadsInWorker = {threads}, threadIdInWorker in 0..")));
        assert!(text.contains(&format!("launch {} x {}", gpu.grid_dim, gpu.block_dim)));
        assert!(text.contains(&format!("VEC_CHUNK = {}", hetex_jit::VEC_CHUNK)));
        assert!(text.contains("filter: [specialised, 1 atom(s)]"));
    }
}
