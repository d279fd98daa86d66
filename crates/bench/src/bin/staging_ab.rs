//! Emit `BENCH_staging.json`: pipelined execution with vs without byte-budget
//! staging governance on the join+reduce hybrid acceptance workload.
//!
//! Usage: `staging_ab [out_dir]` — writes `BENCH_staging.json` into
//! `out_dir` (default: the current directory).

#![forbid(unsafe_code)]

use hetex_bench::staging_ab;

fn main() {
    let report = staging_ab::run_all(200_000).expect("staging A/B suite failed");
    let mut ok = true;
    for row in &report.rows {
        println!(
            "{:<28} governed {:>9.4}s  ungoverned {:>9.4}s  overhead {:>6.2}%  peak {:>10} / {} bytes  rows_identical {}",
            row.workload,
            row.governed_s,
            row.ungoverned_s,
            row.overhead_pct(),
            row.peak_leased_bytes,
            row.budget_bytes,
            row.rows_identical
        );
        ok &= row.rows_identical && row.overhead_pct() <= 5.0;
    }
    let path = hetex_bench::bench_output_path(
        std::env::args().nth(1).map(Into::into),
        "BENCH_staging.json",
    );
    std::fs::write(&path, report.to_json()).expect("write BENCH_staging.json");
    println!("wrote {}", path.display());
    if !ok {
        eprintln!(
            "staging governance A/B failed its acceptance bar (>5% overhead or row mismatch)"
        );
        std::process::exit(1);
    }
}
