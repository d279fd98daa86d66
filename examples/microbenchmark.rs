//! The §6.4 microbenchmarks: a bandwidth-bound sum and a random-access-bound
//! join, swept over device mixes — a miniature of Figure 7.
//!
//! Run with: `cargo run --release --example microbenchmark`

use hetexchange::bench::micro::{MicroQuery, MicroWorkload, PAPER_PROBE_BYTES};
use hetexchange::common::EngineConfig;

fn main() -> hetexchange::common::Result<()> {
    let workload = MicroWorkload::build(200_000)?;
    println!(
        "probe side: {} physical rows modeling {:.0} GB; build side: {} rows (~7.7 MB)\n",
        workload.probe_rows,
        PAPER_PROBE_BYTES / 1e9,
        workload.build_rows
    );

    for query in [MicroQuery::Sum, MicroQuery::Join] {
        println!("-- {} query --", query.label());
        let mut base = EngineConfig::cpu_only(1);
        base.hetexchange_enabled = false;
        let baseline = workload.run(query, base, PAPER_PROBE_BYTES)?;
        println!("  1 CPU core, no HetExchange : {baseline:>8.3} s (baseline)");
        for (label, config) in [
            ("1 CPU core", EngineConfig::cpu_only(1)),
            ("16 CPU cores", EngineConfig::cpu_only(16)),
            ("24 CPU cores", EngineConfig::cpu_only(24)),
            ("2 GPUs", EngineConfig::gpu_only(2)),
            ("24 cores + 2 GPUs", EngineConfig::hybrid(24, 2)),
        ] {
            let seconds = workload.run(query, config, PAPER_PROBE_BYTES)?;
            println!("  {label:<27}: {seconds:>8.3} s   speed-up {:>6.1}x", baseline / seconds);
        }
        println!();
    }
    println!("The sum query is CPU-friendly (PCIe-bound on GPUs); the join is GPU-friendly.");
    Ok(())
}
