//! Emit `BENCH_calib.json`: pipelined execution with the online-calibration
//! loop (observed-slowdown feedback routing + measured topology constants)
//! on vs off, with stealing disabled, on a deliberately skewed hybrid
//! workload (one hidden 8× straggler GPU) plus the unskewed control.
//!
//! Usage: `calib_ab [out_dir]` — writes `BENCH_calib.json` into `out_dir`
//! (default: the current directory).

use hetex_bench::calib_ab;

fn main() {
    let report = calib_ab::run_all(200_000).expect("calibration A/B suite failed");
    let mut ok = true;
    for row in &report.rows {
        println!(
            "{:<32} calibrated {:>9.4}s  nominal {:>9.4}s  improvement {:>6.2}%  \
             straggler_ewma {:>5.2}  ctl {:>5}ns  rows_identical {}",
            row.workload,
            row.calibrated_s,
            row.nominal_s,
            row.improvement_pct(),
            row.straggler_ewma,
            row.control_plane_ns,
            row.rows_identical
        );
        ok &= row.rows_identical;
        if row.workload.contains("skewed_gpu") {
            ok &= row.improvement_pct() >= 20.0 && row.straggler_ewma > 1.5;
        } else {
            ok &= row.improvement_pct() >= -2.0;
        }
    }
    let path =
        hetex_bench::bench_output_path(std::env::args().nth(1).map(Into::into), "BENCH_calib.json");
    std::fs::write(&path, report.to_json()).expect("write BENCH_calib.json");
    println!("wrote {}", path.display());
    if !ok {
        eprintln!(
            "calibration A/B failed its acceptance bar (<20% skewed recovery, >2% unskewed \
             cost, unobserved straggler, or row mismatch)"
        );
        std::process::exit(1);
    }
}
