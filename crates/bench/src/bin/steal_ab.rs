//! Emit `BENCH_steal.json`: pipelined execution with adaptive re-routing
//! (work stealing) on vs off, on a deliberately skewed hybrid workload (one
//! hidden 8× straggler GPU) plus the unskewed control.
//!
//! Usage: `steal_ab [out_dir]` — writes `BENCH_steal.json` into `out_dir`
//! (default: the current directory).

use hetex_bench::steal_ab;

fn main() {
    let report = steal_ab::run_all(200_000).expect("steal A/B suite failed");
    let mut ok = true;
    for row in &report.rows {
        println!(
            "{:<32} steal {:>9.4}s  no-steal {:>9.4}s  improvement {:>6.2}%  stolen {:>4}  rows_identical {}",
            row.workload,
            row.steal_s,
            row.no_steal_s,
            row.improvement_pct(),
            row.blocks_stolen,
            row.rows_identical
        );
        ok &= row.rows_identical;
        if row.workload.contains("skewed_gpu") {
            ok &= row.improvement_pct() >= 10.0 && row.blocks_stolen > 0;
        } else {
            ok &= row.improvement_pct() >= -2.0;
        }
    }
    let path =
        hetex_bench::bench_output_path(std::env::args().nth(1).map(Into::into), "BENCH_steal.json");
    std::fs::write(&path, report.to_json()).expect("write BENCH_steal.json");
    println!("wrote {}", path.display());
    if !ok {
        eprintln!(
            "work-stealing A/B failed its acceptance bar (<10% skewed gain, >2% unskewed cost, \
             or row mismatch)"
        );
        std::process::exit(1);
    }
}
