//! Regenerates Table 1: the device-provider interface and how a CPU and a GPU
//! execution context specialize one pipeline (Figure 3 / Listing 1).
//!
//! Usage: `cargo run --release -p hetex-bench --bin table1`

fn main() {
    hetex_bench::figures::table1();
}
