//! Regenerates Figure 7: microbenchmark scale-up — the sum and 1:N-join
//! queries over a 23 GB (nominal) input, across CPU core counts and 0/1/2
//! GPUs, plus the "without HetExchange" single-device baselines.
//!
//! Usage: `cargo run --release -p hetex-bench --bin fig7`

fn main() {
    let cores = [0, 1, 2, 4, 8, 12, 16, 20, 24];
    if let Err(e) = hetex_bench::figures::figure7(200_000, &cores) {
        eprintln!("figure 7 failed: {e}");
        std::process::exit(1);
    }
}
