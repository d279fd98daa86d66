//! Emit `BENCH_reopt.json`: the same query submitted twice to one engine —
//! a mis-planned hybrid(8,2) on a server with a hidden 8× straggler GPU,
//! static routing, stealing disabled — with feedback-driven plan
//! re-optimization on vs off. The reopt leg must correct the placement on
//! the second run (≥ 20% simulated-time recovery, byte-identical rows); the
//! disabled control must never rewrite.
//!
//! Usage: `reopt_ab [out_dir]` — writes `BENCH_reopt.json` into `out_dir`
//! (default: the current directory).

use hetex_bench::reopt_ab;

fn main() {
    let report = reopt_ab::run_all(200_000).expect("re-optimization A/B suite failed");
    let mut ok = true;
    for row in &report.rows {
        println!(
            "{:<40} first {:>9.4}s  second {:>9.4}s  recovery {:>6.2}%  \
             straggler_ewma {:>5.2}  replanned_to {:<14}  rows_identical {}",
            row.workload,
            row.first_s,
            row.second_s,
            row.recovery_pct(),
            row.straggler_ewma,
            row.replanned_to.as_deref().unwrap_or("-"),
            row.rows_identical
        );
        ok &= row.rows_identical;
        if row.workload.contains("reopt_off") {
            ok &= row.replanned_to.is_none() && row.recovery_pct().abs() <= 5.0;
        } else {
            ok &= row.replanned_to.is_some()
                && row.recovery_pct() >= 20.0
                && row.straggler_ewma > 1.5;
        }
    }
    let path =
        hetex_bench::bench_output_path(std::env::args().nth(1).map(Into::into), "BENCH_reopt.json");
    std::fs::write(&path, report.to_json()).expect("write BENCH_reopt.json");
    println!("wrote {}", path.display());
    if !ok {
        eprintln!(
            "re-optimization A/B failed its acceptance bar (<20% second-run recovery, \
             missing rewrite, control rewrote or drifted >5%, unobserved straggler, \
             or row mismatch)"
        );
        std::process::exit(1);
    }
}
