//! Emit `BENCH_serve.json`: N concurrent SSB query streams through one
//! `QueryServer` vs serial back-to-back execution — aggregate speedup,
//! p50/p99 served latency, byte-identical rows, and bounded admission.
//!
//! Usage: `serve_ab [out_dir]` — writes `BENCH_serve.json` into `out_dir`
//! (default: the current directory).

use hetex_bench::serve_ab::{self, DEFAULT_STREAMS, SPEEDUP_BAR};

fn main() {
    let report = serve_ab::run(DEFAULT_STREAMS).expect("serve A/B suite failed");
    println!(
        "{:<28} sessions {:>3}  serial {:>9.4}s  served {:>9.4}s  speedup {:>5.2}x  \
         p50 {:>9.4}s  p99 {:>9.4}s  peak {}/{} B  leaked {}  rows_identical {}",
        report.workload,
        report.sessions,
        report.serial_s,
        report.served_s,
        report.speedup(),
        report.p50_latency_s,
        report.p99_latency_s,
        report.peak_admitted_bytes,
        report.admission_budget_bytes,
        report.staging_leaked_bytes,
        report.rows_identical
    );
    let ok = report.rows_identical
        && report.staging_leaked_bytes == 0
        && report.peak_admitted_bytes <= report.admission_budget_bytes
        && report.speedup() >= SPEEDUP_BAR;
    let path =
        hetex_bench::bench_output_path(std::env::args().nth(1).map(Into::into), "BENCH_serve.json");
    std::fs::write(&path, report.to_json()).expect("write BENCH_serve.json");
    println!("wrote {}", path.display());
    if !ok {
        eprintln!(
            "serve A/B failed its acceptance bar (row mismatch, leaked staging, admission \
             over budget, or < {SPEEDUP_BAR}x speedup at {DEFAULT_STREAMS} streams)"
        );
        std::process::exit(1);
    }
}
