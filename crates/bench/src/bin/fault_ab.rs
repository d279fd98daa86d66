//! Emit `BENCH_fault.json`: the fault-tolerance ladder under injected device
//! faults (permanent GPU loss, transient kernel failures, total GPU loss of
//! a GPU-only query) plus the healthy control that prices having the fault
//! machinery armed at all.
//!
//! Usage: `fault_ab [out_dir]` — writes `BENCH_fault.json` into `out_dir`
//! (default: the current directory).

use hetex_bench::fault_ab;

fn main() {
    let report = fault_ab::run_all(200_000).expect("fault A/B suite failed");
    let mut ok = true;
    for row in &report.rows {
        println!(
            "{:<36} faulted {:>9.4}s  baseline {:>9.4}s  overhead {:>7.2}%  recovered {:>3}  \
             retries {:>3}  restarts {}  leaked {}  rows_identical {}",
            row.workload,
            row.faulted_s,
            row.baseline_s,
            row.overhead_pct(),
            row.recovered_blocks,
            row.transient_retries,
            row.degraded_restarts,
            row.staging_leaked_bytes,
            row.rows_identical
        );
        ok &= row.rows_identical && row.staging_leaked_bytes == 0;
        if row.workload.contains("healthy") {
            // Without a plan the executor constructs no fault state: armed
            // must be free.
            ok &= row.overhead_pct().abs() <= 2.0;
        } else if row.workload.contains("transient") {
            ok &= row.transient_retries > 0 && row.overhead_pct() <= 10.0;
        } else if row.workload.contains("total_gpu_loss") {
            ok &= row.degraded_restarts >= 1;
        } else if row.workload.contains("gpu_loss") {
            ok &= row.recovered_blocks > 0 && row.degraded_restarts == 0;
        }
    }
    let path =
        hetex_bench::bench_output_path(std::env::args().nth(1).map(Into::into), "BENCH_fault.json");
    std::fs::write(&path, report.to_json()).expect("write BENCH_fault.json");
    println!("wrote {}", path.display());
    if !ok {
        eprintln!(
            "fault A/B failed its acceptance bar (row mismatch, leaked staging, >2% armed \
             overhead, >10% transient overhead, or a fault scenario that never engaged)"
        );
        std::process::exit(1);
    }
}
