//! Regenerates Figure 8: microbenchmark size-up at DOP = 1 — execution time of
//! the sum and join queries, with and without the HetExchange operators, over
//! input sizes from 0.125 GB to 16 GB.
//!
//! Usage: `cargo run --release -p hetex-bench --bin fig8`

fn main() {
    let sizes = [0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0];
    if let Err(e) = hetex_bench::figures::figure8(200_000, &sizes) {
        eprintln!("figure 8 failed: {e}");
        std::process::exit(1);
    }
}
