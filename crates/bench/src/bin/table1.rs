//! Regenerates Table 1: the device-provider interface and how the CPU and GPU
//! providers specialize the same pipeline blueprint (Figure 3 / Listing 1).
//!
//! Usage: `cargo run --release -p hetex-bench --bin table1`

fn main() {
    hetex_bench::figures::table1();
}
